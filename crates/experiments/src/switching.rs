//! Figure 2 — average number of network switches per algorithm, in both
//! static settings.

use crate::config::Scale;
use crate::report::{cell, format_table};
use crate::runner::{run_many, run_static};
use crate::settings::StaticSetting;
use congestion_game::Summary;
use smartexp3_core::PolicyKind;
use std::fmt;

/// The algorithms Figure 2 compares (Centralized and Fixed Random never
/// switch and are omitted, as in the paper).
#[must_use]
pub fn figure2_algorithms() -> [PolicyKind; 7] {
    [
        PolicyKind::Exp3,
        PolicyKind::BlockExp3,
        PolicyKind::HybridBlockExp3,
        PolicyKind::SmartExp3WithoutReset,
        PolicyKind::SmartExp3,
        PolicyKind::Greedy,
        PolicyKind::FullInformation,
    ]
}

/// One row of Figure 2: an algorithm in a setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingRow {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// The static setting.
    pub setting: StaticSetting,
    /// Mean per-device number of switches.
    pub mean_switches: f64,
    /// Standard deviation of per-device switch counts (the error bars).
    pub std_switches: f64,
}

/// The regenerated Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingResult {
    /// One row per (algorithm, setting).
    pub rows: Vec<SwitchingRow>,
}

impl SwitchingResult {
    /// The mean switch count of `algorithm` in `setting`, if present.
    #[must_use]
    pub fn mean_of(&self, algorithm: PolicyKind, setting: StaticSetting) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm && r.setting == setting)
            .map(|r| r.mean_switches)
    }
}

/// Runs the Figure 2 experiment.
#[must_use]
pub fn run(scale: &Scale) -> SwitchingResult {
    let mut rows = Vec::new();
    for setting in StaticSetting::both() {
        for algorithm in figure2_algorithms() {
            let per_device: Vec<Vec<f64>> = run_many(scale, |seed| {
                run_static(setting, algorithm, scale, seed).switch_counts()
            });
            let flattened: Vec<f64> = per_device.into_iter().flatten().collect();
            let summary = Summary::of(&flattened);
            rows.push(SwitchingRow {
                algorithm,
                setting,
                mean_switches: summary.mean,
                std_switches: summary.std_dev,
            });
        }
    }
    SwitchingResult { rows }
}

impl fmt::Display for SwitchingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = figure2_algorithms()
            .iter()
            .map(|&algorithm| {
                let mut row = vec![algorithm.label().to_string()];
                for setting in StaticSetting::both() {
                    let entry = self
                        .rows
                        .iter()
                        .find(|r| r.algorithm == algorithm && r.setting == setting);
                    match entry {
                        Some(r) => {
                            row.push(cell(r.mean_switches));
                            row.push(cell(r.std_switches));
                        }
                        None => {
                            row.push("-".to_string());
                            row.push("-".to_string());
                        }
                    }
                }
                row
            })
            .collect();
        f.write_str(&format_table(
            "Figure 2 — average number of network switches per device",
            &[
                "algorithm",
                "setting 1 mean",
                "setting 1 std",
                "setting 2 mean",
                "setting 2 std",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_switches_far_less_than_exp3() {
        let scale = Scale::quick().with_runs(2).with_slots(250);
        let result = run(&scale);
        for setting in StaticSetting::both() {
            let exp3 = result.mean_of(PolicyKind::Exp3, setting).unwrap();
            let smart = result.mean_of(PolicyKind::SmartExp3, setting).unwrap();
            assert!(
                smart * 3.0 < exp3,
                "{}: smart {smart:.1} vs exp3 {exp3:.1}",
                setting.label()
            );
        }
        let text = result.to_string();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Smart EXP3"));
    }
}
