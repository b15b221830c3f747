//! Figures 9 and 10 — devices moving across service areas (setting 3 of
//! §VI-A, the Figure 1 map).
//!
//! Figure 9 plots the distance to equilibrium separately for the moving
//! devices and for the devices of each area; Figure 10 compares the number of
//! switches incurred by devices that stay for the whole experiment across the
//! static and dynamic settings.
//!
//! Reproduction note: the per-group distance here is computed against the
//! Nash allocation of the *whole* five-network game (all 20 devices), because
//! the exact constrained equilibrium of the area-restricted game changes as
//! devices move. This keeps the metric consistent across groups and preserves
//! the figure's comparative shape; see EXPERIMENTS.md.

use crate::config::Scale;
use crate::report::{cell, format_series, format_table};
use crate::runner::{average_series, downsample, run_environment, run_many, run_static};
use crate::settings::{mobility_environment, mobility_group_labels, DynamicSetting, StaticSetting};
use congestion_game::{nash_allocation, ResourceSelectionGame};
use netsim::{figure1_networks, SimulationConfig};
use smartexp3_core::PolicyKind;
use std::fmt;

/// The algorithms Figure 9 compares.
#[must_use]
pub fn mobility_algorithms() -> [PolicyKind; 4] {
    [
        PolicyKind::Exp3,
        PolicyKind::SmartExp3WithoutReset,
        PolicyKind::SmartExp3,
        PolicyKind::Greedy,
    ]
}

/// Per-group distance curves of one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityCurves {
    /// The algorithm.
    pub algorithm: PolicyKind,
    /// `groups[g]` is the averaged distance series of group `g` (see
    /// [`mobility_group_labels`]).
    pub groups: Vec<Vec<f64>>,
}

/// The regenerated Figure 9, plus the Figure 10 switch counts.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityResult {
    /// One entry per algorithm.
    pub curves: Vec<MobilityCurves>,
    /// Figure 10: average switches of persistent devices, per scenario label.
    pub persistent_switches: Vec<(String, f64)>,
}

/// Runs the Figure 9 experiment (per-group distance curves).
#[must_use]
pub fn run(scale: &Scale) -> MobilityResult {
    run_for(scale, &mobility_algorithms())
}

/// Runs Figure 9 for a custom set of algorithms, and Figure 10 for Smart EXP3.
#[must_use]
pub fn run_for(scale: &Scale, algorithms: &[PolicyKind]) -> MobilityResult {
    let game = ResourceSelectionGame::new(
        figure1_networks()
            .iter()
            .map(|n| (n.id, n.bandwidth_mbps))
            .collect::<Vec<_>>(),
    );
    let config = SimulationConfig {
        keep_selections: true,
        ..SimulationConfig::default()
    };

    let mut curves = Vec::new();
    for &algorithm in algorithms {
        let per_run: Vec<Vec<Vec<f64>>> = run_many(scale, |seed| {
            let ((env, fleet), groups) =
                mobility_environment(algorithm, scale.slots, config, scale.fleet_config(seed))
                    .expect("mobility scenario construction cannot fail");
            let result = run_environment(env, fleet, scale.slots);
            let equilibrium = nash_allocation(&game, groups.len());
            result
                .group_distance_series(&game, &equilibrium, &groups, 4)
                .expect("selections were kept")
        });
        let mut groups = Vec::new();
        for group in 0..4 {
            let series: Vec<Vec<f64>> = per_run.iter().map(|run| run[group].clone()).collect();
            groups.push(average_series(&series));
        }
        curves.push(MobilityCurves { algorithm, groups });
    }

    MobilityResult {
        curves,
        persistent_switches: persistent_switches(scale),
    }
}

/// Figure 10 — average switches of devices present for the whole run, for
/// Smart EXP3, across the static and dynamic settings.
#[must_use]
pub fn persistent_switches(scale: &Scale) -> Vec<(String, f64)> {
    let config = SimulationConfig::default();
    let mut rows = Vec::new();

    for setting in StaticSetting::both() {
        let switches: Vec<f64> = run_many(scale, |seed| {
            mean(&run_static(setting, PolicyKind::SmartExp3, scale, seed).switch_counts())
        });
        rows.push((format!("static ({})", setting.label()), mean(&switches)));
    }

    for (setting, label) in [
        (
            DynamicSetting::DevicesJoinAndLeave,
            "dynamic setting 1 (11 persistent devices)",
        ),
        (
            DynamicSetting::DevicesLeave,
            "dynamic setting 2 (4 persistent devices)",
        ),
    ] {
        let persistent = setting.persistent_devices();
        let switches: Vec<f64> = run_many(scale, |seed| {
            let (env, fleet) = setting
                .build_environment(
                    PolicyKind::SmartExp3,
                    scale.slots,
                    config,
                    scale.fleet_config(seed),
                )
                .expect("dynamic scenario construction cannot fail");
            let result = run_environment(env, fleet, scale.slots);
            let persistent_counts: Vec<f64> = result
                .devices
                .iter()
                .take(persistent)
                .map(|d| d.switches as f64)
                .collect();
            mean(&persistent_counts)
        });
        rows.push((label.to_string(), mean(&switches)));
    }

    // Mobility setting: moving devices (group 0) vs the other 12 devices.
    let moving_and_static: Vec<(f64, f64)> = run_many(scale, |seed| {
        let ((env, fleet), groups) = mobility_environment(
            PolicyKind::SmartExp3,
            scale.slots,
            config,
            scale.fleet_config(seed),
        )
        .expect("mobility scenario construction cannot fail");
        let result = run_environment(env, fleet, scale.slots);
        let moving: Vec<f64> = result
            .devices
            .iter()
            .filter(|d| groups.get(d.id.0 as usize) == Some(&0))
            .map(|d| d.switches as f64)
            .collect();
        let stationary: Vec<f64> = result
            .devices
            .iter()
            .filter(|d| groups.get(d.id.0 as usize) != Some(&0))
            .map(|d| d.switches as f64)
            .collect();
        (mean(&moving), mean(&stationary))
    });
    rows.push((
        "setting 3 (8 moving devices)".to_string(),
        mean(
            &moving_and_static
                .iter()
                .map(|(m, _)| *m)
                .collect::<Vec<_>>(),
        ),
    ));
    rows.push((
        "setting 3 (other 12 devices)".to_string(),
        mean(
            &moving_and_static
                .iter()
                .map(|(_, s)| *s)
                .collect::<Vec<_>>(),
        ),
    ));
    rows
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

impl fmt::Display for MobilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels = mobility_group_labels();
        for (group, label) in labels.iter().enumerate() {
            let bucket = self
                .curves
                .first()
                .and_then(|c| c.groups.get(group))
                .map(|s| (s.len() / 12).max(1))
                .unwrap_or(1);
            let series: Vec<(String, Vec<f64>)> = self
                .curves
                .iter()
                .map(|c| {
                    (
                        c.algorithm.label().to_string(),
                        downsample(&c.groups[group], bucket),
                    )
                })
                .collect();
            f.write_str(&format_series(
                &format!("Figure 9 — distance to Nash equilibrium (%), {label}"),
                bucket,
                &series,
            ))?;
        }
        let rows: Vec<Vec<String>> = self
            .persistent_switches
            .iter()
            .map(|(label, switches)| vec![label.clone(), cell(*switches)])
            .collect();
        f.write_str(&format_table(
            "Figure 10 — average switches of persistent devices (Smart EXP3)",
            &["scenario", "avg switches"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_curves_cover_all_groups() {
        let scale = Scale::quick().with_runs(1).with_slots(120);
        let result = run_for(&scale, &[PolicyKind::SmartExp3]);
        assert_eq!(result.curves.len(), 1);
        assert_eq!(result.curves[0].groups.len(), 4);
        for group in &result.curves[0].groups {
            assert_eq!(group.len(), 120);
        }
        assert_eq!(result.persistent_switches.len(), 6);
        assert!(result.to_string().contains("Figure 10"));
    }
}
