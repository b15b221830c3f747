//! Table V — (mean) per-run median cumulative download in GB, and the
//! unutilised-resources discussion of §VI-A.

use crate::config::Scale;
use crate::report::{cell2, format_table};
use crate::runner::{run_many, run_static};
use crate::settings::StaticSetting;
use congestion_game::median;
use smartexp3_core::PolicyKind;
use std::fmt;

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadRow {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// The static setting.
    pub setting: StaticSetting,
    /// Mean over runs of the per-run median device download, in GB.
    pub median_download_gb: f64,
    /// Mean unutilised bandwidth over the run, in GB (the "lost resources" of
    /// the Greedy discussion).
    pub unutilized_gb: f64,
}

/// The regenerated Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadResult {
    /// One row per (algorithm, setting).
    pub rows: Vec<DownloadRow>,
}

impl DownloadResult {
    /// Looks up the row of `algorithm` in `setting`.
    #[must_use]
    pub fn row(&self, algorithm: PolicyKind, setting: StaticSetting) -> Option<&DownloadRow> {
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm && r.setting == setting)
    }
}

/// Runs the Table V experiment for the given algorithms.
#[must_use]
pub fn run_for(scale: &Scale, algorithms: &[PolicyKind]) -> DownloadResult {
    let mut rows = Vec::new();
    for setting in StaticSetting::both() {
        for &algorithm in algorithms {
            let per_run: Vec<(f64, f64)> = run_many(scale, |seed| {
                let result = run_static(setting, algorithm, scale, seed);
                (
                    median(&result.downloads_gigabytes()),
                    result.unutilized_megabits / 8000.0,
                )
            });
            let runs = per_run.len().max(1) as f64;
            rows.push(DownloadRow {
                algorithm,
                setting,
                median_download_gb: per_run.iter().map(|(d, _)| d).sum::<f64>() / runs,
                unutilized_gb: per_run.iter().map(|(_, u)| u).sum::<f64>() / runs,
            });
        }
    }
    DownloadResult { rows }
}

/// Runs the full Table V (all nine algorithms).
#[must_use]
pub fn run(scale: &Scale) -> DownloadResult {
    run_for(scale, &PolicyKind::all())
}

impl fmt::Display for DownloadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let algorithms: Vec<PolicyKind> = {
            let mut seen = Vec::new();
            for row in &self.rows {
                if !seen.contains(&row.algorithm) {
                    seen.push(row.algorithm);
                }
            }
            seen
        };
        let rows: Vec<Vec<String>> = algorithms
            .iter()
            .map(|&algorithm| {
                let mut row = vec![algorithm.label().to_string()];
                for setting in StaticSetting::both() {
                    match self.row(algorithm, setting) {
                        Some(r) => {
                            row.push(cell2(r.median_download_gb));
                            row.push(cell2(r.unutilized_gb));
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
            "Table V — per-run median cumulative download (GB) and unutilised bandwidth (GB)",
            &[
                "algorithm",
                "setting 1 median DL",
                "setting 1 unused",
                "setting 2 median DL",
                "setting 2 unused",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_based_algorithms_beat_exp3_on_download() {
        let scale = Scale::quick().with_runs(2).with_slots(300);
        let result = run_for(&scale, &[PolicyKind::Exp3, PolicyKind::SmartExp3]);
        for setting in StaticSetting::both() {
            let exp3 = result.row(PolicyKind::Exp3, setting).unwrap();
            let smart = result.row(PolicyKind::SmartExp3, setting).unwrap();
            assert!(
                smart.median_download_gb > exp3.median_download_gb * 0.95,
                "{}: smart {:.2} GB vs exp3 {:.2} GB",
                setting.label(),
                smart.median_download_gb,
                exp3.median_download_gb
            );
        }
        assert!(result.to_string().contains("Table V"));
    }
}
