//! Figure 4 — average distance to Nash equilibrium over time, for all nine
//! algorithms in both static settings (plus the time-at-equilibrium shares
//! quoted in the text of §VI-A).

use crate::config::Scale;
use crate::report::format_series;
use crate::runner::{average_series, downsample, run_many, run_static};
use crate::settings::StaticSetting;
use smartexp3_core::PolicyKind;
use std::fmt;

/// Number of buckets used when rendering the series textually.
pub const SERIES_BUCKETS: usize = 12;

/// Distance-to-equilibrium curve of one algorithm in one setting.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceCurve {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// The static setting.
    pub setting: StaticSetting,
    /// Average (over runs) distance to Nash equilibrium per slot.
    pub distance: Vec<f64>,
    /// Average fraction of slots spent at an exact Nash equilibrium.
    pub fraction_time_at_nash: f64,
    /// Average fraction of slots spent at an ε-equilibrium (ε = 7.5 %).
    pub fraction_time_at_epsilon: f64,
}

impl DistanceCurve {
    /// Mean distance over the final quarter of the run (a convergence proxy).
    #[must_use]
    pub fn final_distance(&self) -> f64 {
        let n = self.distance.len();
        if n == 0 {
            return 0.0;
        }
        let from = n - n / 4 - 1;
        self.distance[from..].iter().sum::<f64>() / (n - from) as f64
    }
}

/// The regenerated Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceResult {
    /// One curve per (algorithm, setting).
    pub curves: Vec<DistanceCurve>,
}

impl DistanceResult {
    /// Looks up the curve of `algorithm` in `setting`.
    #[must_use]
    pub fn curve(&self, algorithm: PolicyKind, setting: StaticSetting) -> Option<&DistanceCurve> {
        self.curves
            .iter()
            .find(|c| c.algorithm == algorithm && c.setting == setting)
    }
}

/// Runs the Figure 4 experiment for the given algorithms (use
/// [`PolicyKind::all`] for the full figure).
#[must_use]
pub fn run_for(scale: &Scale, algorithms: &[PolicyKind]) -> DistanceResult {
    let mut curves = Vec::new();
    for setting in StaticSetting::both() {
        for &algorithm in algorithms {
            let runs: Vec<(Vec<f64>, f64, f64)> = run_many(scale, |seed| {
                let result = run_static(setting, algorithm, scale, seed);
                (
                    result.distance_to_nash,
                    result.fraction_time_at_nash,
                    result.fraction_time_at_epsilon,
                )
            });
            let series: Vec<Vec<f64>> = runs.iter().map(|(s, _, _)| s.clone()).collect();
            let n = runs.len().max(1) as f64;
            curves.push(DistanceCurve {
                algorithm,
                setting,
                distance: average_series(&series),
                fraction_time_at_nash: runs.iter().map(|(_, a, _)| a).sum::<f64>() / n,
                fraction_time_at_epsilon: runs.iter().map(|(_, _, b)| b).sum::<f64>() / n,
            });
        }
    }
    DistanceResult { curves }
}

/// Runs the full Figure 4 (all nine algorithms).
#[must_use]
pub fn run(scale: &Scale) -> DistanceResult {
    run_for(scale, &PolicyKind::all())
}

impl fmt::Display for DistanceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for setting in StaticSetting::both() {
            let curves: Vec<(String, Vec<f64>)> = self
                .curves
                .iter()
                .filter(|c| c.setting == setting)
                .map(|c| {
                    let bucket = (c.distance.len() / SERIES_BUCKETS).max(1);
                    (
                        c.algorithm.label().to_string(),
                        downsample(&c.distance, bucket),
                    )
                })
                .collect();
            if curves.is_empty() {
                continue;
            }
            let bucket = self
                .curves
                .iter()
                .find(|c| c.setting == setting)
                .map(|c| (c.distance.len() / SERIES_BUCKETS).max(1))
                .unwrap_or(1);
            f.write_str(&format_series(
                &format!(
                    "Figure 4 — average distance to Nash equilibrium (%), {}",
                    setting.label()
                ),
                bucket,
                &curves,
            ))?;
            for curve in self.curves.iter().filter(|c| c.setting == setting) {
                if curve.algorithm == PolicyKind::SmartExp3 {
                    writeln!(
                        f,
                        "Smart EXP3 time at NE: {:.1} %, time at ε-equilibrium (ε=7.5): {:.1} %",
                        curve.fraction_time_at_nash * 100.0,
                        curve.fraction_time_at_epsilon * 100.0
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_ends_closer_to_equilibrium_than_fixed_random() {
        let scale = Scale::quick().with_runs(2).with_slots(400);
        let result = run_for(
            &scale,
            &[
                PolicyKind::SmartExp3,
                PolicyKind::FixedRandom,
                PolicyKind::Centralized,
            ],
        );
        for setting in StaticSetting::both() {
            let smart = result.curve(PolicyKind::SmartExp3, setting).unwrap();
            let random = result.curve(PolicyKind::FixedRandom, setting).unwrap();
            let central = result.curve(PolicyKind::Centralized, setting).unwrap();
            assert!(central.final_distance() < 1e-6);
            assert!(
                smart.final_distance() <= random.final_distance() + 5.0,
                "{}: smart {:.1} vs fixed-random {:.1}",
                setting.label(),
                smart.final_distance(),
                random.final_distance()
            );
        }
        assert!(result.to_string().contains("Figure 4"));
    }
}
