//! Figures 7 and 8 — adaptability to devices joining and leaving the service
//! area (dynamic settings 1 and 2 of §VI-A), driven through the unified
//! engine path ([`run_environment`]).

use crate::config::Scale;
use crate::report::format_series;
use crate::runner::{average_series, downsample, run_environment, run_many};
use crate::settings::DynamicSetting;
use netsim::SimulationConfig;
use smartexp3_core::PolicyKind;
use std::fmt;

/// The algorithms the dynamic-setting figures compare.
#[must_use]
pub fn dynamic_algorithms() -> [PolicyKind; 4] {
    [
        PolicyKind::Exp3,
        PolicyKind::SmartExp3WithoutReset,
        PolicyKind::SmartExp3,
        PolicyKind::Greedy,
    ]
}

/// Distance curve of one algorithm in one dynamic setting.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsCurve {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// Average distance to Nash equilibrium per slot (over runs).
    pub distance: Vec<f64>,
}

/// The regenerated Figure 7 or Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsResult {
    /// Which dynamic setting was simulated.
    pub setting: DynamicSetting,
    /// One curve per algorithm.
    pub curves: Vec<DynamicsCurve>,
}

impl DynamicsResult {
    /// Mean distance of `algorithm` over the slots in `[from, to)`.
    #[must_use]
    pub fn mean_distance(&self, algorithm: PolicyKind, from: usize, to: usize) -> Option<f64> {
        let curve = self.curves.iter().find(|c| c.algorithm == algorithm)?;
        let to = to.min(curve.distance.len());
        let from = from.min(to);
        if from == to {
            return Some(0.0);
        }
        Some(curve.distance[from..to].iter().sum::<f64>() / (to - from) as f64)
    }
}

/// Runs a dynamic-setting experiment (Figure 7 with
/// [`DynamicSetting::DevicesJoinAndLeave`], Figure 8 with
/// [`DynamicSetting::DevicesLeave`]).
#[must_use]
pub fn run(scale: &Scale, setting: DynamicSetting) -> DynamicsResult {
    let curves = dynamic_algorithms()
        .into_iter()
        .map(|algorithm| {
            let series: Vec<Vec<f64>> = run_many(scale, |seed| {
                let (env, fleet) = setting
                    .build_environment(
                        algorithm,
                        SimulationConfig {
                            total_slots: scale.slots,
                            ..SimulationConfig::default()
                        },
                        scale.fleet_config(seed),
                    )
                    .expect("dynamic scenario construction cannot fail");
                run_environment(env, fleet, scale.slots).distance_to_nash
            });
            DynamicsCurve {
                algorithm,
                distance: average_series(&series),
            }
        })
        .collect();
    DynamicsResult { setting, curves }
}

impl fmt::Display for DynamicsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let buckets = 12usize;
        let bucket = self
            .curves
            .first()
            .map(|c| (c.distance.len() / buckets).max(1))
            .unwrap_or(1);
        let series: Vec<(String, Vec<f64>)> = self
            .curves
            .iter()
            .map(|c| {
                (
                    c.algorithm.label().to_string(),
                    downsample(&c.distance, bucket),
                )
            })
            .collect();
        f.write_str(&format_series(
            &format!(
                "Figures 7/8 — distance to Nash equilibrium (%), dynamic setting: {}",
                self.setting.label()
            ),
            bucket,
            &series,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_recovers_after_devices_leave() {
        // Scaled-down version of Figure 8: 16 of 20 devices leave at 60 % of
        // the run; only algorithms with a reset mechanism rediscover the freed
        // resources.
        let scale = Scale::quick().with_runs(3).with_slots(800);
        let result = run(&scale, DynamicSetting::DevicesLeave);
        let departure = scale.slots * 600 / 1200;
        let tail_from = departure + (scale.slots - departure) / 2;
        let smart = result
            .mean_distance(PolicyKind::SmartExp3, tail_from, scale.slots)
            .unwrap();
        let greedy = result
            .mean_distance(PolicyKind::Greedy, tail_from, scale.slots)
            .unwrap();
        assert!(
            smart < greedy + 1e-9,
            "after resources are freed smart ({smart:.1}%) should do at least as well as greedy ({greedy:.1}%)"
        );
        assert!(result.to_string().contains("dynamic setting"));
    }
}
