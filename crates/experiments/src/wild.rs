//! §VII-B in-the-wild experiment — downloading a 500 MB file in a coffee shop
//! while choosing between a public WiFi network and a cellular network whose
//! load is neither known nor controlled.
//!
//! The uncontrolled environment is emulated with synthetic simultaneous
//! traces in which both networks fluctuate with the (hidden) background load
//! and neither is permanently better. Smart EXP3 and Greedy are run
//! sequentially against the same conditions, as in the paper, and the metric
//! is the time needed to finish the download.

use crate::config::Scale;
use crate::report::{cell, format_table};
use crate::runner::run_many;
use crate::tracedriven::replay;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smartexp3_core::PolicyKind;
use std::fmt;
use tracegen::{Regime, TracePair, TraceProfile};

/// Size of the file to download, in MB (the paper downloads 500 MB).
pub const FILE_SIZE_MB: f64 = 500.0;

/// Maximum length of one attempt, in slots (50 simulated minutes).
pub const WILD_SLOTS: usize = 200;

/// Generates the coffee-shop conditions of one run: both networks fluctuate
/// with hidden background load, with rates in the few-Mbps range.
#[must_use]
pub fn wild_conditions(seed: u64) -> TracePair {
    let mut rng = StdRng::seed_from_u64(seed);
    let wifi = TraceProfile {
        name: "coffee-shop WiFi".to_string(),
        regimes: vec![
            Regime {
                weight: 0.2,
                mean_mbps: 5.0,
            },
            Regime {
                weight: 0.3,
                mean_mbps: 2.0,
            },
            Regime {
                weight: 0.3,
                mean_mbps: 6.5,
            },
            Regime {
                weight: 0.2,
                mean_mbps: 3.0,
            },
        ],
        noise: 0.35,
    };
    let cellular = TraceProfile {
        name: "tethered cellular".to_string(),
        regimes: vec![
            Regime {
                weight: 0.25,
                mean_mbps: 4.5,
            },
            Regime {
                weight: 0.25,
                mean_mbps: 6.0,
            },
            Regime {
                weight: 0.25,
                mean_mbps: 2.5,
            },
            Regime {
                weight: 0.25,
                mean_mbps: 5.0,
            },
        ],
        noise: 0.3,
    };
    TracePair {
        paper_index: 0,
        wifi: wifi.generate(WILD_SLOTS, 15.0, &mut rng),
        cellular: cellular.generate(WILD_SLOTS, 15.0, &mut rng),
    }
}

/// The regenerated in-the-wild comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct WildResult {
    /// Mean minutes Smart EXP3 needed to download the file.
    pub smart_minutes: f64,
    /// Mean minutes Greedy needed.
    pub greedy_minutes: f64,
    /// Number of runs of each algorithm.
    pub runs: usize,
}

impl WildResult {
    /// How much faster Smart EXP3 finished the download (Greedy time divided
    /// by Smart EXP3 time; the paper reports ≈1.2×).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.smart_minutes <= 0.0 {
            return 1.0;
        }
        self.greedy_minutes / self.smart_minutes
    }
}

/// Minutes until one session of `kind` has downloaded the file: the first
/// slot whose cumulative goodput — switching delays deducted — reaches
/// [`FILE_SIZE_MB`], or the whole attempt if it never does.
fn minutes_to_download(kind: PolicyKind, pair: &TracePair, seed: u64) -> f64 {
    let slots = replay(kind, pair, WILD_SLOTS, seed)
        .goodput_megabytes
        .iter()
        .position(|&downloaded| downloaded >= FILE_SIZE_MB)
        .map_or(WILD_SLOTS, |slot| slot + 1);
    slots as f64 * pair.wifi.slot_duration_s / 60.0
}

/// Runs the in-the-wild comparison: each run generates fresh coffee-shop
/// conditions and measures both algorithms against them.
#[must_use]
pub fn run(scale: &Scale) -> WildResult {
    let times: Vec<(f64, f64)> = run_many(scale, |seed| {
        let pair = wild_conditions(seed);
        (
            minutes_to_download(PolicyKind::SmartExp3, &pair, seed),
            minutes_to_download(PolicyKind::Greedy, &pair, seed.wrapping_add(911)),
        )
    });
    let runs = times.len().max(1);
    WildResult {
        smart_minutes: times.iter().map(|(s, _)| s).sum::<f64>() / runs as f64,
        greedy_minutes: times.iter().map(|(_, g)| g).sum::<f64>() / runs as f64,
        runs: times.len(),
    }
}

impl fmt::Display for WildResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = vec![
            vec!["Smart EXP3".to_string(), cell(self.smart_minutes)],
            vec!["Greedy".to_string(), cell(self.greedy_minutes)],
        ];
        f.write_str(&format_table(
            &format!(
                "§VII-B in the wild — minutes to download {FILE_SIZE_MB} MB ({} runs each)",
                self.runs
            ),
            &["algorithm", "mean minutes"],
            &rows,
        ))?;
        writeln!(f, "Smart EXP3 speed-up over Greedy: {:.2}x", self.speedup())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_downloads_at_least_as_fast_as_greedy_on_average() {
        let scale = Scale::quick().with_runs(6);
        let result = run(&scale);
        assert!(result.smart_minutes > 0.0);
        assert!(
            result.speedup() > 0.95,
            "expected Smart EXP3 to be competitive, speedup = {:.2}",
            result.speedup()
        );
        assert!(result.to_string().contains("in the wild"));
    }

    #[test]
    fn conditions_have_no_permanent_winner() {
        let pair = wild_conditions(3);
        let fraction = pair.cellular_better_fraction();
        assert!((0.15..=0.85).contains(&fraction), "fraction = {fraction}");
    }
}
