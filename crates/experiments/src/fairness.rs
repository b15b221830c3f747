//! Figure 5 — fairness: the standard deviation of the per-device cumulative
//! downloads (lower = fairer).

use crate::config::Scale;
use crate::report::{cell, format_table};
use crate::runner::{run_many, run_static};
use crate::settings::StaticSetting;
use congestion_game::{jain_index, standard_deviation};
use smartexp3_core::PolicyKind;
use std::fmt;

/// One bar of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessRow {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// The static setting.
    pub setting: StaticSetting,
    /// Mean over runs of the per-run standard deviation of device downloads,
    /// in MB (the paper's fairness measure).
    pub std_dev_mb: f64,
    /// Mean Jain's fairness index (supplementary; 1 = perfectly fair).
    pub jain: f64,
}

/// The regenerated Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessResult {
    /// One row per (algorithm, setting).
    pub rows: Vec<FairnessRow>,
}

impl FairnessResult {
    /// Looks up the row of `algorithm` in `setting`.
    #[must_use]
    pub fn row(&self, algorithm: PolicyKind, setting: StaticSetting) -> Option<&FairnessRow> {
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm && r.setting == setting)
    }
}

/// Runs the Figure 5 experiment for the given algorithms.
#[must_use]
pub fn run_for(scale: &Scale, algorithms: &[PolicyKind]) -> FairnessResult {
    let mut rows = Vec::new();
    for setting in StaticSetting::both() {
        for &algorithm in algorithms {
            let per_run: Vec<(f64, f64)> = run_many(scale, |seed| {
                let result = run_static(setting, algorithm, scale, seed);
                let downloads_mb: Vec<f64> = result
                    .devices
                    .iter()
                    .map(|d| d.download_megabytes())
                    .collect();
                (standard_deviation(&downloads_mb), jain_index(&downloads_mb))
            });
            let runs = per_run.len().max(1) as f64;
            rows.push(FairnessRow {
                algorithm,
                setting,
                std_dev_mb: per_run.iter().map(|(s, _)| s).sum::<f64>() / runs,
                jain: per_run.iter().map(|(_, j)| j).sum::<f64>() / runs,
            });
        }
    }
    FairnessResult { rows }
}

/// Runs the full Figure 5 (all nine algorithms).
#[must_use]
pub fn run(scale: &Scale) -> FairnessResult {
    run_for(scale, &PolicyKind::all())
}

impl fmt::Display for FairnessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.label().to_string(),
                    r.setting.label().to_string(),
                    cell(r.std_dev_mb),
                    format!("{:.3}", r.jain),
                ]
            })
            .collect();
        f.write_str(&format_table(
            "Figure 5 — fairness (std dev of per-device cumulative download, MB)",
            &["algorithm", "setting", "std dev (MB)", "Jain index"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_is_fairer_than_greedy() {
        let scale = Scale::quick().with_runs(2).with_slots(400);
        let result = run_for(&scale, &[PolicyKind::SmartExp3, PolicyKind::Greedy]);
        let mut smart_fairer_count = 0;
        for setting in StaticSetting::both() {
            let smart = result.row(PolicyKind::SmartExp3, setting).unwrap();
            let greedy = result.row(PolicyKind::Greedy, setting).unwrap();
            if smart.std_dev_mb <= greedy.std_dev_mb {
                smart_fairer_count += 1;
            }
        }
        assert!(
            smart_fairer_count >= 1,
            "Smart EXP3 should be fairer than Greedy in at least one setting"
        );
        assert!(result.to_string().contains("Jain"));
    }
}
