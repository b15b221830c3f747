//! Figure 6 — scalability of Smart EXP3 w/o Reset: how the time to reach a
//! stable state grows with the number of networks (3/5/7, 20 devices) and
//! with the number of devices (20/40/80, 3 networks) — plus the fleet-scale
//! sweep measuring raw engine throughput on the replicated-congestion world.
//!
//! All runs go through the unified engine path
//! ([`run_environment`]).

use crate::config::Scale;
use crate::report::{cell, format_table};
use crate::runner::{run_environment, run_many};
use crate::settings::homogeneous_environment;
use congestion_game::median;
use netsim::{NetworkSpec, SimulationConfig};
use smartexp3_core::PolicyKind;
use smartexp3_engine::FleetConfig;
use smartexp3_telemetry::RingSink;
use std::fmt;
use std::time::Instant;

/// One point of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityPoint {
    /// Number of networks in the scenario.
    pub networks: usize,
    /// Number of devices in the scenario.
    pub devices: usize,
    /// Fraction of runs that reached a stable state.
    pub stable_fraction: f64,
    /// Fraction of runs stable at a Nash equilibrium.
    pub stable_at_nash_fraction: f64,
    /// Median slots to reach the stable state, over stable runs.
    pub median_slots_to_stable: Option<f64>,
}

/// The regenerated Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityResult {
    /// Varying number of networks (20 devices).
    pub by_networks: Vec<ScalabilityPoint>,
    /// Varying number of devices (3 networks).
    pub by_devices: Vec<ScalabilityPoint>,
}

/// Network sets used when sweeping the number of networks.
#[must_use]
pub fn network_sweep(count: usize) -> Vec<NetworkSpec> {
    let rates = [4.0, 7.0, 22.0, 10.0, 14.0, 5.0, 8.0];
    rates
        .iter()
        .take(count.clamp(1, rates.len()))
        .enumerate()
        .map(|(id, &rate)| {
            if id == 2 {
                NetworkSpec::cellular(id as u32, rate)
            } else {
                NetworkSpec::wifi(id as u32, rate)
            }
        })
        .collect()
}

fn measure(scale: &Scale, networks: Vec<NetworkSpec>, devices: usize) -> ScalabilityPoint {
    let network_count = networks.len();
    let outcomes: Vec<(Option<usize>, bool)> = run_many(scale, |seed| {
        let (env, fleet) = homogeneous_environment(
            networks.clone(),
            PolicyKind::SmartExp3WithoutReset,
            devices,
            SimulationConfig {
                total_slots: scale.slots,
                ..SimulationConfig::default()
            },
            scale.fleet_config(seed),
        )
        .expect("scalability scenario construction cannot fail");
        let result = run_environment(env, fleet, scale.slots);
        (result.stable_slot, result.stable_at_nash)
    });
    let runs = outcomes.len().max(1) as f64;
    let stable: Vec<f64> = outcomes
        .iter()
        .filter_map(|(slot, _)| slot.map(|s| s as f64))
        .collect();
    let at_nash = outcomes.iter().filter(|(_, nash)| *nash).count();
    ScalabilityPoint {
        networks: network_count,
        devices,
        stable_fraction: stable.len() as f64 / runs,
        stable_at_nash_fraction: at_nash as f64 / runs,
        median_slots_to_stable: if stable.is_empty() {
            None
        } else {
            Some(median(&stable))
        },
    }
}

/// Runs the Figure 6 experiment with the paper's sweeps (networks 3/5/7 at 20
/// devices; devices 20/40/80 at 3 networks).
#[must_use]
pub fn run(scale: &Scale) -> ScalabilityResult {
    run_with(scale, &[3, 5, 7], &[20, 40, 80])
}

/// Runs the Figure 6 experiment with custom sweeps.
#[must_use]
pub fn run_with(
    scale: &Scale,
    network_counts: &[usize],
    device_counts: &[usize],
) -> ScalabilityResult {
    let by_networks = network_counts
        .iter()
        .map(|&count| measure(scale, network_sweep(count), 20))
        .collect();
    let by_devices = device_counts
        .iter()
        .map(|&devices| measure(scale, network_sweep(3), devices))
        .collect();
    ScalabilityResult {
        by_networks,
        by_devices,
    }
}

/// One point of the fleet-scale throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalePoint {
    /// Number of concurrent sessions.
    pub sessions: usize,
    /// Decisions per second sustained through the engine's streaming
    /// telemetry path on the replicated equal-share congestion world.
    pub decisions_per_sec: f64,
    /// Final-slot mean scaled gain (streaming telemetry).
    pub mean_gain: f64,
    /// Final-slot Jain fairness index of observed goodput.
    pub jain: f64,
    /// Final-slot mean per-area distance to equilibrium, percent.
    pub distance_mean_pct: f64,
}

/// Fleet-scale scalability: steps the replicated equal-share congestion
/// world (Smart EXP3 everywhere) for `slots` slots at each session count and
/// reports sustained decision throughput plus the final slot's streaming
/// quality metrics (mean gain, Jain index, distance to equilibrium) — so the
/// sweep shows *what the fleet converged to*, not just how fast it stepped.
/// `config` carries the engine's parallelism override (and the
/// partitioned-feedback switch), so thread-scaling sweeps are reproducible
/// from the CLI.
#[must_use]
pub fn fleet_sweep(
    session_counts: &[usize],
    slots: usize,
    config: FleetConfig,
) -> Vec<FleetScalePoint> {
    session_counts
        .iter()
        .map(|&sessions| {
            let mut scenario =
                smartexp3_env::equal_share(sessions, PolicyKind::SmartExp3, config.clone())
                    .expect("fleet sweep construction cannot fail");
            assert!(scenario.enable_telemetry());
            let mut sink = RingSink::new(1);
            let start = Instant::now();
            scenario.run_streaming(slots, &mut sink);
            let elapsed = start.elapsed().as_secs_f64().max(f64::EPSILON);
            let last = sink.latest().expect("the sweep runs at least one slot");
            FleetScalePoint {
                sessions,
                decisions_per_sec: (sessions * slots) as f64 / elapsed,
                mean_gain: last.metrics.mean_gain(),
                jain: last.metrics.jain(),
                distance_mean_pct: last.metrics.distance_mean(),
            }
        })
        .collect()
}

impl fmt::Display for ScalabilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .by_networks
            .iter()
            .chain(self.by_devices.iter())
            .map(|p| {
                vec![
                    p.networks.to_string(),
                    p.devices.to_string(),
                    cell(p.stable_fraction * 100.0),
                    cell(p.stable_at_nash_fraction * 100.0),
                    p.median_slots_to_stable.map_or("-".to_string(), cell),
                ]
            })
            .collect();
        f.write_str(&format_table(
            "Figure 6 — scalability of Smart EXP3 w/o Reset",
            &[
                "networks",
                "devices",
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
    fn more_networks_slow_down_stabilisation() {
        let scale = Scale::quick().with_runs(2).with_slots(900);
        let result = run_with(&scale, &[3, 5], &[20]);
        assert_eq!(result.by_networks.len(), 2);
        assert_eq!(result.by_devices.len(), 1);
        // Both sweeps should produce mostly-stable runs at this horizon.
        for point in result.by_networks.iter().chain(&result.by_devices) {
            assert!(point.stable_fraction > 0.0, "{point:?} never stabilised");
        }
        assert!(result.to_string().contains("Figure 6"));
    }

    #[test]
    fn network_sweep_produces_requested_sizes() {
        assert_eq!(network_sweep(3).len(), 3);
        assert_eq!(network_sweep(7).len(), 7);
        assert_eq!(network_sweep(100).len(), 7);
    }

    #[test]
    fn fleet_sweep_reports_positive_throughput_and_quality_metrics() {
        let points = fleet_sweep(&[200, 400], 5, FleetConfig::with_root_seed(1));
        assert_eq!(points.len(), 2);
        for point in &points {
            assert!(point.decisions_per_sec > 0.0, "{point:?}");
            assert!(point.mean_gain > 0.0, "{point:?}");
            assert!(point.jain > 0.0 && point.jain <= 1.0, "{point:?}");
            assert!(point.distance_mean_pct >= 0.0, "{point:?}");
        }
    }
}
