//! Figure 3 and Table IV — which fraction of runs reach a stable state
//! (Definition 2), whether that state is a Nash equilibrium, and how long it
//! takes to get there.

use crate::config::Scale;
use crate::report::{cell, format_table};
use crate::runner::{run_many, run_static};
use crate::settings::StaticSetting;
use congestion_game::median;
use smartexp3_core::PolicyKind;
use std::fmt;

/// The algorithms Figure 3 / Table IV consider (the ones for which the notion
/// of a stable state is well defined: block-based, without resets).
#[must_use]
pub fn figure3_algorithms() -> [PolicyKind; 3] {
    [
        PolicyKind::BlockExp3,
        PolicyKind::HybridBlockExp3,
        PolicyKind::SmartExp3WithoutReset,
    ]
}

/// Stability statistics of one algorithm in one setting.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityRow {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// The static setting.
    pub setting: StaticSetting,
    /// Fraction of runs that reached a stable state.
    pub stable_fraction: f64,
    /// Fraction of runs that stabilised at a Nash equilibrium.
    pub stable_at_nash_fraction: f64,
    /// Median number of slots needed to reach the stable state, over the runs
    /// that did (`None` if no run stabilised).
    pub median_slots_to_stable: Option<f64>,
}

/// The regenerated Figure 3 + Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityResult {
    /// One row per (algorithm, setting).
    pub rows: Vec<StabilityRow>,
}

impl StabilityResult {
    /// Looks up the row of `algorithm` in `setting`.
    #[must_use]
    pub fn row(&self, algorithm: PolicyKind, setting: StaticSetting) -> Option<&StabilityRow> {
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm && r.setting == setting)
    }
}

/// Runs the Figure 3 / Table IV experiment.
#[must_use]
pub fn run(scale: &Scale) -> StabilityResult {
    let mut rows = Vec::new();
    for setting in StaticSetting::both() {
        for algorithm in figure3_algorithms() {
            let outcomes: Vec<(Option<usize>, bool)> = run_many(scale, |seed| {
                let result = run_static(setting, algorithm, scale, seed);
                (result.stable_slot, result.stable_at_nash)
            });
            let runs = outcomes.len().max(1) as f64;
            let stable: Vec<f64> = outcomes
                .iter()
                .filter_map(|(slot, _)| slot.map(|s| s as f64))
                .collect();
            let at_nash = outcomes.iter().filter(|(_, nash)| *nash).count();
            rows.push(StabilityRow {
                algorithm,
                setting,
                stable_fraction: stable.len() as f64 / runs,
                stable_at_nash_fraction: at_nash as f64 / runs,
                median_slots_to_stable: if stable.is_empty() {
                    None
                } else {
                    Some(median(&stable))
                },
            });
        }
    }
    StabilityResult { rows }
}

impl fmt::Display for StabilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.label().to_string(),
                    r.setting.label().to_string(),
                    cell(r.stable_fraction * 100.0),
                    cell(r.stable_at_nash_fraction * 100.0),
                    r.median_slots_to_stable.map_or("-".to_string(), cell),
                ]
            })
            .collect();
        f.write_str(&format_table(
            "Figure 3 / Table IV — stability",
            &[
                "algorithm",
                "setting",
                "% runs stable",
                "% stable at NE",
                "median slots to stable",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_without_reset_stabilises_more_often_and_faster_than_block_exp3() {
        let scale = Scale::quick().with_runs(3).with_slots(600);
        let result = run(&scale);
        for setting in StaticSetting::both() {
            let smart = result
                .row(PolicyKind::SmartExp3WithoutReset, setting)
                .unwrap();
            let block = result.row(PolicyKind::BlockExp3, setting).unwrap();
            assert!(
                smart.stable_fraction >= block.stable_fraction,
                "{}: smart {} < block {}",
                setting.label(),
                smart.stable_fraction,
                block.stable_fraction
            );
        }
        assert!(result.to_string().contains("stable"));
    }
}
