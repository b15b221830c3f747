//! §VII-A controlled (testbed) experiments — Figures 13–15 and Table VII.
//!
//! The real testbed (3 WiFi APs, 14 Raspberry-Pi clients) is emulated with the
//! simulator's noisy, unequal bandwidth sharing (see `netsim::testbed`), which
//! reproduces the phenomena the paper attributes to the real world: noisier
//! gain estimates, more resets and unequal per-device shares.

use crate::config::Scale;
use crate::report::{cell2, format_series, format_table};
use crate::runner::{average_series, downsample, run_environment, run_many};
use crate::settings::{controlled_environment, mixed_environment};
use congestion_game::standard_deviation;
use congestion_game::{median, optimal_distance_from_average_bit_rate, ResourceSelectionGame};
use netsim::testbed::{testbed_config, testbed_networks, TESTBED_DEVICES};
use netsim::SimulationConfig;
use smartexp3_core::PolicyKind;
use std::fmt;

/// Which controlled experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlledScenario {
    /// Figure 13 + Table VII: all 14 devices present throughout.
    Static,
    /// Figure 14: 9 of the 14 devices leave halfway through (slot 240 of 480).
    DevicesLeave,
    /// Figure 15: 7 devices run Smart EXP3 and 7 run Greedy.
    Mixed,
}

impl ControlledScenario {
    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ControlledScenario::Static => "static testbed (Fig. 13, Table VII)",
            ControlledScenario::DevicesLeave => "dynamic testbed, 9 devices leave (Fig. 14)",
            ControlledScenario::Mixed => "7 Smart EXP3 + 7 Greedy (Fig. 15)",
        }
    }
}

/// Result of one controlled-experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledResult {
    /// The scenario.
    pub scenario: ControlledScenario,
    /// Per-algorithm averaged Definition-4 distance series
    /// (distance from the average bit rate available, %).
    pub curves: Vec<(PolicyKind, Vec<f64>)>,
    /// The optimal (Nash-equilibrium) Definition-4 distance.
    pub optimal_distance: f64,
    /// Table VII: per-algorithm (median download % of total possible,
    /// std dev of the per-device download %).
    pub table7: Vec<(PolicyKind, f64, f64)>,
}

impl ControlledResult {
    /// Mean Definition-4 distance of `kind` over the last quarter of the run.
    #[must_use]
    pub fn tail_distance(&self, kind: PolicyKind) -> Option<f64> {
        let (_, series) = self.curves.iter().find(|(k, _)| *k == kind)?;
        let n = series.len();
        if n == 0 {
            return Some(0.0);
        }
        let from = n - n / 4 - 1;
        Some(series[from..].iter().sum::<f64>() / (n - from) as f64)
    }
}

/// Runs one controlled-experiment scenario at the paper's 480-slot length
/// scaled by `scale.slots / 1200` (so the default scale keeps the 2-hour
/// proportion of the 5-hour simulations).
#[must_use]
pub fn run(scale: &Scale, scenario: ControlledScenario) -> ControlledResult {
    let slots = (scale.slots * 480 / 1200).max(60);
    let game = ResourceSelectionGame::new(
        testbed_networks()
            .iter()
            .map(|n| (n.id, n.bandwidth_mbps))
            .collect::<Vec<_>>(),
    );
    let optimal_distance = optimal_distance_from_average_bit_rate(&game, TESTBED_DEVICES);
    // Total volume the testbed could deliver over the run (megabits), used by
    // Table VII to express downloads as percentages.
    let total_possible_megabits = game.aggregate_rate() * slots as f64 * 15.0;

    let algorithms = [PolicyKind::SmartExp3, PolicyKind::Greedy];
    let mut curves = Vec::new();
    let mut table7 = Vec::new();

    match scenario {
        ControlledScenario::Static | ControlledScenario::DevicesLeave => {
            let leave_after = match scenario {
                ControlledScenario::DevicesLeave => Some(slots / 2),
                _ => None,
            };
            for kind in algorithms {
                let runs: Vec<(Vec<f64>, Vec<f64>)> = run_many(scale, |seed| {
                    let (env, fleet) =
                        controlled_environment(kind, leave_after, scale.fleet_config(seed))
                            .expect("testbed scenario construction cannot fail");
                    let result = run_environment(env, fleet, slots);
                    let percents: Vec<f64> = result
                        .devices
                        .iter()
                        .map(|d| d.download_megabits / total_possible_megabits * 100.0)
                        .collect();
                    (result.distance_from_average, percents)
                });
                let series: Vec<Vec<f64>> = runs.iter().map(|(s, _)| s.clone()).collect();
                curves.push((kind, average_series(&series)));
                let medians: Vec<f64> = runs.iter().map(|(_, p)| median(p)).collect();
                let stds: Vec<f64> = runs.iter().map(|(_, p)| standard_deviation(p)).collect();
                table7.push((kind, mean(&medians), mean(&stds)));
            }
        }
        ControlledScenario::Mixed => {
            // One simulation contains both populations; the Definition-4
            // series is computed per population from the kept selections.
            let runs: Vec<(Vec<f64>, Vec<f64>)> = run_many(scale, |seed| {
                let ((env, fleet), kinds) = mixed_environment(
                    testbed_networks(),
                    &[(PolicyKind::SmartExp3, 7), (PolicyKind::Greedy, 7)],
                    SimulationConfig {
                        keep_selections: true,
                        ..testbed_config()
                    },
                    scale.fleet_config(seed),
                )
                .expect("mixed testbed scenario construction cannot fail");
                let result = run_environment(env, fleet, slots);
                let selections = result.selections.as_ref().expect("selections were kept");
                let mut smart = Vec::new();
                let mut greedy = Vec::new();
                for slot_records in selections {
                    for (target, kind) in [
                        (&mut smart, PolicyKind::SmartExp3),
                        (&mut greedy, PolicyKind::Greedy),
                    ] {
                        let rates: Vec<f64> = slot_records
                            .iter()
                            .filter(|r| kinds.get(r.device.0 as usize) == Some(&kind))
                            .map(|r| r.rate_mbps)
                            .collect();
                        // Fair share computed against the whole population.
                        let fair = game.aggregate_rate() / TESTBED_DEVICES as f64;
                        let distance = if rates.is_empty() {
                            0.0
                        } else {
                            rates
                                .iter()
                                .map(|&g| (fair - g).max(0.0) * 100.0 / fair)
                                .sum::<f64>()
                                / rates.len() as f64
                        };
                        target.push(distance);
                    }
                }
                (smart, greedy)
            });
            let smart_series: Vec<Vec<f64>> = runs.iter().map(|(s, _)| s.clone()).collect();
            let greedy_series: Vec<Vec<f64>> = runs.iter().map(|(_, g)| g.clone()).collect();
            curves.push((PolicyKind::SmartExp3, average_series(&smart_series)));
            curves.push((PolicyKind::Greedy, average_series(&greedy_series)));
        }
    }

    ControlledResult {
        scenario,
        curves,
        optimal_distance,
        table7,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

impl fmt::Display for ControlledResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bucket = self
            .curves
            .first()
            .map(|(_, s)| (s.len() / 12).max(1))
            .unwrap_or(1);
        let mut series: Vec<(String, Vec<f64>)> = self
            .curves
            .iter()
            .map(|(kind, s)| (kind.label().to_string(), downsample(s, bucket)))
            .collect();
        let length = series.first().map(|(_, s)| s.len()).unwrap_or(0);
        series.push(("Optimal".to_string(), vec![self.optimal_distance; length]));
        f.write_str(&format_series(
            &format!(
                "Figures 13-15 — distance from average bit rate available (%), {}",
                self.scenario.label()
            ),
            bucket,
            &series,
        ))?;
        if !self.table7.is_empty() {
            let rows: Vec<Vec<String>> = self
                .table7
                .iter()
                .map(|(kind, median_pct, std_pct)| {
                    vec![
                        kind.label().to_string(),
                        cell2(*median_pct),
                        cell2(*std_pct),
                    ]
                })
                .collect();
            f.write_str(&format_table(
                "Table VII — per-device cumulative download (% of total possible)",
                &["algorithm", "median %", "std dev %"],
                &rows,
            ))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_testbed_produces_table7_and_curves() {
        let scale = Scale::quick().with_runs(1).with_slots(300);
        let result = run(&scale, ControlledScenario::Static);
        assert_eq!(result.curves.len(), 2);
        assert_eq!(result.table7.len(), 2);
        let (_, smart_median, _) = result.table7[0];
        // With 14 devices sharing 33 Mbps, each device's fair share is ~7.1 %.
        assert!(
            smart_median > 2.0 && smart_median < 10.0,
            "median % = {smart_median}"
        );
        assert!(result.optimal_distance >= 0.0);
        assert!(result.to_string().contains("Table VII"));
    }

    #[test]
    fn mixed_testbed_tracks_both_populations() {
        let scale = Scale::quick().with_runs(1).with_slots(300);
        let result = run(&scale, ControlledScenario::Mixed);
        assert_eq!(result.curves.len(), 2);
        assert!(result.tail_distance(PolicyKind::SmartExp3).is_some());
        assert!(result.tail_distance(PolicyKind::Greedy).is_some());
    }
}
