//! Figure 11 — robustness of Smart EXP3 against "greedy" devices: scenarios
//! in which part of the population runs Greedy while the rest runs Smart EXP3.

use crate::config::Scale;
use crate::report::format_series;
use crate::runner::{average_series, downsample, run_environment, run_many};
use crate::settings::mixed_environment;
use congestion_game::{
    distance_to_nash_given, nash_allocation, DeviceState, ResourceSelectionGame,
};
use netsim::{setting1_networks, SimulationConfig};
use smartexp3_core::PolicyKind;
use std::fmt;

/// The three population mixes of Figure 11 (out of 20 devices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessScenario {
    /// Scenario number used in the paper (1, 2 or 3).
    pub index: usize,
    /// Number of devices running Smart EXP3.
    pub smart_devices: usize,
    /// Number of devices running Greedy.
    pub greedy_devices: usize,
}

/// The paper's three scenarios: 19/1, 10/10 and 1/19 Smart/Greedy devices.
#[must_use]
pub fn scenarios() -> [RobustnessScenario; 3] {
    [
        RobustnessScenario {
            index: 1,
            smart_devices: 19,
            greedy_devices: 1,
        },
        RobustnessScenario {
            index: 2,
            smart_devices: 10,
            greedy_devices: 10,
        },
        RobustnessScenario {
            index: 3,
            smart_devices: 1,
            greedy_devices: 19,
        },
    ]
}

/// Per-policy distance curves in one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCurves {
    /// The scenario.
    pub scenario: RobustnessScenario,
    /// Averaged distance-to-equilibrium series of the Smart EXP3 devices.
    pub smart_distance: Vec<f64>,
    /// Averaged distance-to-equilibrium series of the Greedy devices.
    pub greedy_distance: Vec<f64>,
}

impl RobustnessCurves {
    /// Mean distance of the Smart EXP3 devices over the last quarter of the run.
    #[must_use]
    pub fn smart_tail(&self) -> f64 {
        tail_mean(&self.smart_distance)
    }

    /// Mean distance of the Greedy devices over the last quarter of the run.
    #[must_use]
    pub fn greedy_tail(&self) -> f64 {
        tail_mean(&self.greedy_distance)
    }
}

fn tail_mean(series: &[f64]) -> f64 {
    let n = series.len();
    if n == 0 {
        return 0.0;
    }
    let from = n - n / 4 - 1;
    series[from..].iter().sum::<f64>() / (n - from) as f64
}

/// The regenerated Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessResult {
    /// One entry per scenario.
    pub curves: Vec<RobustnessCurves>,
}

/// Runs the Figure 11 experiment.
#[must_use]
pub fn run(scale: &Scale) -> RobustnessResult {
    let game = ResourceSelectionGame::new(
        setting1_networks()
            .iter()
            .map(|n| (n.id, n.bandwidth_mbps))
            .collect::<Vec<_>>(),
    );
    let curves = scenarios()
        .into_iter()
        .map(|scenario| {
            let per_run: Vec<(Vec<f64>, Vec<f64>)> = run_many(scale, |seed| {
                let ((env, fleet), kinds) = mixed_environment(
                    setting1_networks(),
                    &[
                        (PolicyKind::SmartExp3, scenario.smart_devices),
                        (PolicyKind::Greedy, scenario.greedy_devices),
                    ],
                    SimulationConfig {
                        keep_selections: true,
                        ..SimulationConfig::default()
                    },
                    scale.fleet_config(seed),
                )
                .expect("robustness scenario construction cannot fail");
                let result = run_environment(env, fleet, scale.slots);
                let selections = result.selections.as_ref().expect("selections were kept");
                let equilibrium = nash_allocation(&game, kinds.len());
                let mut smart = Vec::new();
                let mut greedy = Vec::new();
                for slot_records in selections {
                    for (target, kind) in [
                        (&mut smart, PolicyKind::SmartExp3),
                        (&mut greedy, PolicyKind::Greedy),
                    ] {
                        let states: Vec<DeviceState> = slot_records
                            .iter()
                            .filter(|r| kinds.get(r.device.0 as usize) == Some(&kind))
                            .map(|r| DeviceState {
                                network: r.network,
                                observed_rate: r.rate_mbps,
                            })
                            .collect();
                        let distance = if states.is_empty() {
                            0.0
                        } else {
                            distance_to_nash_given(&game, &equilibrium, &states)
                        };
                        target.push(distance);
                    }
                }
                (smart, greedy)
            });
            let smart_series: Vec<Vec<f64>> = per_run.iter().map(|(s, _)| s.clone()).collect();
            let greedy_series: Vec<Vec<f64>> = per_run.iter().map(|(_, g)| g.clone()).collect();
            RobustnessCurves {
                scenario,
                smart_distance: average_series(&smart_series),
                greedy_distance: average_series(&greedy_series),
            }
        })
        .collect();
    RobustnessResult { curves }
}

impl fmt::Display for RobustnessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for curve in &self.curves {
            let bucket = (curve.smart_distance.len() / 12).max(1);
            let series = vec![
                (
                    format!("Smart EXP3 ({} devices)", curve.scenario.smart_devices),
                    downsample(&curve.smart_distance, bucket),
                ),
                (
                    format!("Greedy ({} devices)", curve.scenario.greedy_devices),
                    downsample(&curve.greedy_distance, bucket),
                ),
            ];
            f.write_str(&format_series(
                &format!(
                    "Figure 11 — scenario {}: distance to Nash equilibrium (%)",
                    curve.scenario.index
                ),
                bucket,
                &series,
            ))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_exp3_copes_even_when_outnumbered_by_greedy_devices() {
        let scale = Scale::quick().with_runs(1).with_slots(300);
        let result = run(&scale);
        assert_eq!(result.curves.len(), 3);
        for curve in &result.curves {
            assert_eq!(curve.smart_distance.len(), 300);
            assert!(curve.smart_tail().is_finite());
        }
        // In scenario 3 (19 greedy devices) the Smart EXP3 device should not be
        // doing dramatically worse than the Greedy crowd.
        let scenario3 = &result.curves[2];
        assert!(
            scenario3.smart_tail() <= scenario3.greedy_tail() + 50.0,
            "smart tail {:.1}% vs greedy tail {:.1}%",
            scenario3.smart_tail(),
            scenario3.greedy_tail()
        );
        assert!(result.to_string().contains("scenario 3"));
    }
}
