//! Synthetic WiFi/cellular trace pairs.
//!
//! The paper's trace-driven evaluation (§VI-B) uses four pairs of bit-rate
//! traces collected by downloading a file simultaneously over a public WiFi
//! network and a cellular network for 25 minutes (100 slots of 15 s). The raw
//! traces are not part of the paper, so this module synthesises pairs with
//! the same *qualitative structure*, which is what Table VI and Figure 12
//! depend on:
//!
//! * **trace 1** — both networks fluctuate and the better network changes
//!   several times (no single network is always optimal);
//! * **trace 2** — the cellular network is always better than WiFi;
//! * **trace 3** — the network that starts out better degrades sharply
//!   mid-way while the other improves (the case where Greedy gets stuck);
//! * **trace 4** — mild fluctuation with occasional crossovers.
//!
//! Each trace is generated as a piecewise-constant regime mean plus bounded
//! noise, mirroring how real cellular rates jump between quality regimes.

use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smartexp3_core::NetworkId;

/// Network identifier of a pair's WiFi trace.
pub const WIFI: NetworkId = NetworkId(0);
/// Network identifier of a pair's cellular trace.
pub const CELLULAR: NetworkId = NetworkId(1);

/// A pair of simultaneous traces: the selection problem the single device of
/// §VI-B faces every slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePair {
    /// Index of the paper trace this pair mimics (1–4), or 0 for custom pairs.
    pub paper_index: usize,
    /// The public WiFi trace.
    pub wifi: Trace,
    /// The cellular trace.
    pub cellular: Trace,
}

impl TracePair {
    /// Number of slots (the shorter of the two traces).
    #[must_use]
    pub fn len(&self) -> usize {
        self.wifi.len().min(self.cellular.len())
    }

    /// `true` if either trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of slots in which the cellular network is strictly better.
    #[must_use]
    pub fn cellular_better_fraction(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let better = (0..n)
            .filter(|&slot| self.cellular.rate_at(slot) > self.wifi.rate_at(slot))
            .count();
        better as f64 / n as f64
    }

    /// The megabytes downloaded by an oracle that always uses the better
    /// network (ignoring switching costs).
    #[must_use]
    pub fn oracle_megabytes(&self) -> f64 {
        (0..self.len())
            .map(|slot| self.wifi.rate_at(slot).max(self.cellular.rate_at(slot)))
            .sum::<f64>()
            * self.wifi.slot_duration_s
            / 8.0
    }
}

/// One regime of a piecewise trace: a mean rate that holds for a fraction of
/// the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Regime {
    /// Fraction of the total duration this regime occupies (the fractions of
    /// a profile are normalised, so they need not sum to 1).
    pub weight: f64,
    /// Mean bit rate during the regime, Mbps.
    pub mean_mbps: f64,
}

/// A synthetic-trace profile: regimes plus multiplicative noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Network name used for the generated [`Trace`].
    pub name: String,
    /// The sequence of rate regimes.
    pub regimes: Vec<Regime>,
    /// Standard deviation of the per-slot relative noise (e.g. 0.2 = ±20 %).
    pub noise: f64,
}

impl TraceProfile {
    /// Generates a trace of `slots` slots.
    #[must_use]
    pub fn generate(&self, slots: usize, slot_duration_s: f64, rng: &mut dyn RngCore) -> Trace {
        let total_weight: f64 = self.regimes.iter().map(|r| r.weight.max(0.0)).sum();
        let mut rates = Vec::with_capacity(slots);
        if total_weight <= 0.0 || self.regimes.is_empty() {
            return Trace::new(self.name.clone(), slot_duration_s, vec![0.0; slots]);
        }
        for slot in 0..slots {
            let position = (slot as f64 + 0.5) / slots as f64;
            let mut acc = 0.0;
            let mut mean = self.regimes.last().expect("non-empty").mean_mbps;
            for regime in &self.regimes {
                acc += regime.weight.max(0.0) / total_weight;
                if position <= acc {
                    mean = regime.mean_mbps;
                    break;
                }
            }
            // Bounded multiplicative noise: uniform in [1 - 2σ, 1 + 2σ].
            let noise = 1.0 + self.noise * 2.0 * (rng.gen::<f64>() * 2.0 - 1.0);
            rates.push((mean * noise).max(0.05));
        }
        Trace::new(self.name.clone(), slot_duration_s, rates)
    }
}

/// Generates the synthetic equivalent of one of the paper's four trace pairs.
///
/// `index` must be 1–4; `slots` is the trace length (the paper uses 100).
///
/// # Panics
///
/// Panics if `index` is outside 1–4 (the caller selects a paper trace, so an
/// invalid index is a programming error).
#[must_use]
pub fn paper_trace_pair(index: usize, slots: usize, seed: u64) -> TracePair {
    assert!((1..=4).contains(&index), "paper traces are numbered 1-4");
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64) << 32);
    let (wifi_profile, cellular_profile) = match index {
        1 => (
            // Both fluctuate around similar rates; the optimum flips.
            TraceProfile {
                name: "public WiFi".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.3,
                        mean_mbps: 2.8,
                    },
                    Regime {
                        weight: 0.3,
                        mean_mbps: 1.6,
                    },
                    Regime {
                        weight: 0.4,
                        mean_mbps: 3.2,
                    },
                ],
                noise: 0.25,
            },
            TraceProfile {
                name: "cellular".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.25,
                        mean_mbps: 1.8,
                    },
                    Regime {
                        weight: 0.35,
                        mean_mbps: 4.2,
                    },
                    Regime {
                        weight: 0.4,
                        mean_mbps: 2.2,
                    },
                ],
                noise: 0.35,
            },
        ),
        2 => (
            // Cellular always better.
            TraceProfile {
                name: "public WiFi".to_string(),
                regimes: vec![Regime {
                    weight: 1.0,
                    mean_mbps: 2.0,
                }],
                noise: 0.2,
            },
            TraceProfile {
                name: "cellular".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.5,
                        mean_mbps: 5.5,
                    },
                    Regime {
                        weight: 0.5,
                        mean_mbps: 6.2,
                    },
                ],
                noise: 0.15,
            },
        ),
        3 => (
            // WiFi starts better but collapses; cellular recovers strongly.
            TraceProfile {
                name: "public WiFi".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.35,
                        mean_mbps: 3.5,
                    },
                    Regime {
                        weight: 0.65,
                        mean_mbps: 0.8,
                    },
                ],
                noise: 0.3,
            },
            TraceProfile {
                name: "cellular".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.35,
                        mean_mbps: 1.5,
                    },
                    Regime {
                        weight: 0.65,
                        mean_mbps: 4.5,
                    },
                ],
                noise: 0.35,
            },
        ),
        _ => (
            // Mild fluctuation with occasional crossovers.
            TraceProfile {
                name: "public WiFi".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.5,
                        mean_mbps: 3.0,
                    },
                    Regime {
                        weight: 0.5,
                        mean_mbps: 2.2,
                    },
                ],
                noise: 0.2,
            },
            TraceProfile {
                name: "cellular".to_string(),
                regimes: vec![
                    Regime {
                        weight: 0.4,
                        mean_mbps: 2.4,
                    },
                    Regime {
                        weight: 0.6,
                        mean_mbps: 3.8,
                    },
                ],
                noise: 0.3,
            },
        ),
    };
    TracePair {
        paper_index: index,
        wifi: wifi_profile.generate(slots, 15.0, &mut rng),
        cellular: cellular_profile.generate(slots, 15.0, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_pairs_generate_requested_length() {
        for index in 1..=4 {
            let pair = paper_trace_pair(index, 100, 7);
            assert_eq!(pair.len(), 100);
            assert!(!pair.is_empty());
            assert!(pair.wifi.peak_rate() > 0.0);
            assert!(pair.cellular.peak_rate() > 0.0);
        }
    }

    #[test]
    fn trace2_cellular_dominates() {
        let pair = paper_trace_pair(2, 100, 3);
        assert!(
            pair.cellular_better_fraction() > 0.95,
            "cellular should dominate trace 2, fraction = {}",
            pair.cellular_better_fraction()
        );
    }

    #[test]
    fn traces_1_3_4_have_no_permanent_winner() {
        for index in [1, 3, 4] {
            let pair = paper_trace_pair(index, 100, 11);
            let fraction = pair.cellular_better_fraction();
            assert!(
                (0.2..=0.85).contains(&fraction),
                "trace {index}: cellular-better fraction {fraction} suggests a permanent winner"
            );
        }
    }

    #[test]
    fn trace3_wifi_collapses_late() {
        let pair = paper_trace_pair(3, 100, 5);
        let early: f64 = (0..30).map(|s| pair.wifi.rate_at(s)).sum::<f64>() / 30.0;
        let late: f64 = (60..100).map(|s| pair.wifi.rate_at(s)).sum::<f64>() / 40.0;
        assert!(late < early * 0.5, "early {early:.2}, late {late:.2}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = paper_trace_pair(1, 50, 42);
        let b = paper_trace_pair(1, 50, 42);
        let c = paper_trace_pair(1, 50, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn oracle_download_bounds_any_strategy() {
        let pair = paper_trace_pair(4, 100, 1);
        let oracle = pair.oracle_megabytes();
        assert!(oracle > pair.wifi.total_megabytes() - 1e-9);
        assert!(oracle > pair.cellular.total_megabytes() - 1e-9);
    }

    #[test]
    #[should_panic(expected = "numbered 1-4")]
    fn invalid_index_panics() {
        let _ = paper_trace_pair(5, 10, 0);
    }

    #[test]
    fn degenerate_profile_yields_zero_trace() {
        let profile = TraceProfile {
            name: "empty".to_string(),
            regimes: vec![],
            noise: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let trace = profile.generate(10, 15.0, &mut rng);
        assert_eq!(trace.rates_mbps, vec![0.0; 10]);
    }
}
