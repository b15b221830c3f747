//! Dense-urban large-K sampling — linear vs alias CDF inversion.
//!
//! The paper's settings top out at a handful of networks per area, where the
//! O(K) linear CDF walk is free. A dense urban block advertises hundreds of
//! candidate networks, and at that scale sampling dominates the per-slot
//! cost. This experiment runs the scenario library's [`dense_urban`] world
//! once per strategy from the same root seed — the O(K) linear walk and the
//! amortised-O(1) alias table ([`SamplerStrategy::Alias`]) — and reports
//! decisions/sec for each, plus the achieved mean gain so the
//! configurations can be checked for equivalent decision quality, and the
//! alias run's rebuild/overlay counters so its amortisation is visible.
//!
//! The runs are *different pinned configurations* (the sampler is part of
//! the policy config), so their trajectories are each bit-stable but not
//! bit-identical to one another; distributionally they agree to within the
//! softmax cache's 1e-12 drift bound.

use crate::config::Scale;
use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_env::{dense_urban, DenseUrbanConfig};
use std::fmt;
use std::time::Instant;

/// Networks per city block in the default comparison — the acceptance
/// point for the alias sampler.
pub const DEFAULT_NETWORKS: usize = 512;

/// Sessions in the default comparison (eight 64-device blocks).
pub const DEFAULT_SESSIONS: usize = 512;

/// The full sweep: every CDF-inversion strategy the weight table supports.
pub const ALL_STRATEGIES: [SamplerStrategy; 2] = [SamplerStrategy::Linear, SamplerStrategy::Alias];

/// One timed run of the dense-urban world under a fixed sampler strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyMeasurement {
    /// The CDF-inversion strategy measured.
    pub strategy: SamplerStrategy,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Decisions taken across the run.
    pub decisions: u64,
    /// Fleet-wide mean per-decision gain — the decision-quality check.
    pub mean_gain: f64,
    /// Alias-table freezes across the run (0 for Linear).
    pub sampler_rebuilds: u64,
    /// Draws resolved from the dirty-arm overlay (0 for Linear).
    pub overlay_hits: u64,
}

impl StrategyMeasurement {
    /// Decisions per wall-clock second.
    #[must_use]
    pub fn decisions_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.decisions as f64 / self.elapsed_s
        } else {
            f64::INFINITY
        }
    }
}

/// The sampler comparison on one dense-urban world: one measurement per
/// requested strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseResult {
    /// Networks per city block (the arm count `K`).
    pub networks_per_area: usize,
    /// Sessions in the world.
    pub sessions: usize,
    /// Slots stepped.
    pub slots: usize,
    /// One timed run per strategy, in sweep order.
    pub measurements: Vec<StrategyMeasurement>,
}

impl DenseResult {
    /// The measurement for `strategy`, when it was part of the sweep.
    #[must_use]
    pub fn strategy(&self, strategy: SamplerStrategy) -> Option<&StrategyMeasurement> {
        self.measurements.iter().find(|m| m.strategy == strategy)
    }

    /// Throughput of `strategy` over the linear walk's, when both ran.
    #[must_use]
    pub fn speedup_over_linear(&self, strategy: SamplerStrategy) -> Option<f64> {
        let linear = self.strategy(SamplerStrategy::Linear)?.decisions_per_sec();
        let other = self.strategy(strategy)?.decisions_per_sec();
        (linear > 0.0).then(|| other / linear)
    }
}

/// Times one dense-urban run under `strategy`. All runs share the scale's
/// first seed so the worlds are identical up to the sampler config.
fn measure(
    scale: &Scale,
    networks_per_area: usize,
    sessions: usize,
    strategy: SamplerStrategy,
) -> StrategyMeasurement {
    let dense = DenseUrbanConfig {
        networks_per_area,
        devices_per_area: DenseUrbanConfig::default().devices_per_area.min(sessions),
        sampler: strategy,
    };
    let mut scenario = dense_urban(
        sessions,
        PolicyKind::Exp3,
        scale.fleet_config(scale.seed(0)),
        dense,
    )
    .expect("static scenario construction cannot fail");
    let start = Instant::now();
    scenario.run(scale.slots);
    let elapsed_s = start.elapsed().as_secs_f64();
    let metrics = scenario.fleet.metrics();
    let exp3 = metrics.kind(PolicyKind::Exp3);
    StrategyMeasurement {
        strategy,
        elapsed_s,
        decisions: metrics.decisions,
        mean_gain: exp3.map_or(0.0, |m| m.mean_gain()),
        sampler_rebuilds: exp3.map_or(0, |m| m.policy.sampler_rebuilds),
        overlay_hits: exp3.map_or(0, |m| m.policy.overlay_hits),
    }
}

/// Runs the comparison on a world of `networks_per_area` networks and
/// `sessions` sessions, `scale.slots` slots per run, sweeping `strategies`.
#[must_use]
pub fn run_strategies(
    scale: &Scale,
    networks_per_area: usize,
    sessions: usize,
    strategies: &[SamplerStrategy],
) -> DenseResult {
    DenseResult {
        networks_per_area,
        sessions,
        slots: scale.slots,
        measurements: strategies
            .iter()
            .map(|&strategy| measure(scale, networks_per_area, sessions, strategy))
            .collect(),
    }
}

/// Runs the full two-way comparison on a world of `networks_per_area`
/// networks and `sessions` sessions.
#[must_use]
pub fn run_with(scale: &Scale, networks_per_area: usize, sessions: usize) -> DenseResult {
    run_strategies(scale, networks_per_area, sessions, &ALL_STRATEGIES)
}

/// Runs the default comparison: [`DEFAULT_NETWORKS`] networks per block,
/// [`DEFAULT_SESSIONS`] sessions, both strategies.
#[must_use]
pub fn run(scale: &Scale) -> DenseResult {
    run_with(scale, DEFAULT_NETWORKS, DEFAULT_SESSIONS)
}

impl fmt::Display for DenseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dense urban — K = {} networks/block, {} sessions, {} slots, EXP3",
            self.networks_per_area, self.sessions, self.slots
        )?;
        for m in &self.measurements {
            write!(
                f,
                "{:<8} {:>12.0} decisions/s ({} decisions in {:.3} s), mean gain {:.4}",
                format!("{:?}", m.strategy),
                m.decisions_per_sec(),
                m.decisions,
                m.elapsed_s,
                m.mean_gain
            )?;
            if m.strategy == SamplerStrategy::Alias {
                write!(
                    f,
                    ", {} rebuilds, {} overlay hits",
                    m.sampler_rebuilds, m.overlay_hits
                )?;
            }
            writeln!(f)?;
        }
        if let Some(speedup) = self.speedup_over_linear(SamplerStrategy::Alias) {
            writeln!(f, "alias / linear speedup: {speedup:.2}x")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_reach_the_same_decision_quality() {
        let scale = Scale::quick().with_slots(60);
        let result = run_with(&scale, 64, 32);
        assert_eq!(result.measurements.len(), 2);
        let linear = result.strategy(SamplerStrategy::Linear).unwrap();
        let alias = result.strategy(SamplerStrategy::Alias).unwrap();
        assert_eq!(linear.decisions, alias.decisions);
        assert_eq!(linear.decisions, 60 * 32);
        // Same world, same seed, different pinned sampler configs: the
        // trajectories differ decision-for-decision but the achieved mean
        // gain must agree closely (both samplers invert the same CDF).
        let (a, b) = (linear.mean_gain, alias.mean_gain);
        assert!(a > 0.0 && b > 0.0);
        assert!(
            (a - b).abs() / a.max(b) < 0.25,
            "sampler strategies diverged in quality: linear {a:.4} vs alias {b:.4}"
        );
        // Only the alias run freezes tables; the counters prove the path ran.
        assert_eq!(linear.sampler_rebuilds, 0);
        assert!(alias.sampler_rebuilds > 0);
        let text = result.to_string();
        assert!(text.contains("Dense urban"));
        assert!(text.contains("alias / linear speedup"));
    }

    #[test]
    fn single_strategy_sweeps_report_without_speedups() {
        let scale = Scale::quick().with_slots(20);
        let result = run_strategies(&scale, 32, 16, &[SamplerStrategy::Alias]);
        assert_eq!(result.measurements.len(), 1);
        assert!(result.speedup_over_linear(SamplerStrategy::Alias).is_none());
        assert!(!result.to_string().contains("speedup"));
    }
}
