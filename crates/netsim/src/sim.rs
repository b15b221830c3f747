//! The slot-driven wireless network selection simulator.
//!
//! This replaces the paper's SimPy setup: time is divided into slots of
//! `slot_duration_s` (15 s in the paper); in every slot each active device's
//! policy picks a network, the network's bandwidth is split among the devices
//! that picked it, switching devices pay a technology-dependent delay, and
//! each policy receives its observation. The recorder turns the run into the
//! metrics the paper's figures use.
//!
//! Since the environment-layer refactor, [`Simulation::run`] is a **thin
//! sequential driver** over [`CongestionEnvironment`]: all world logic
//! (events, visibility, sharing, delays, accounting, recording) lives in the
//! environment and is shared with the fleet engine's `run_env` path. The
//! driver calls the environment's phase methods with the run's single shared
//! RNG in the historical order, so trajectories are **bit-identical** to the
//! pre-refactor monolithic slot loop (pinned by `tests/golden.rs`).

use crate::device::{DeviceOutcome, DeviceSetup};
use crate::env::{CongestionEnvironment, DeviceProfile, VisibilityUpdate};
use crate::event::BandwidthEvent;
use crate::network::NetworkSpec;
use crate::recorder::RunResult;
use crate::sharing::SharingModel;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smartexp3_core::NetworkId;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Length of one slot in seconds (paper: 15 s, longer than the largest
    /// observed switching delay).
    pub slot_duration_s: f64,
    /// Number of slots to simulate (paper: 1200 = 5 simulated hours).
    pub total_slots: usize,
    /// Bit rate that maps to a scaled gain of 1.0. `None` uses the largest
    /// network bandwidth of the scenario.
    pub gain_scale_mbps: Option<f64>,
    /// How network bandwidth is split among devices.
    pub sharing: SharingModel,
    /// Definition 2 probability threshold (paper: 0.75).
    pub stable_probability_threshold: f64,
    /// ε (in percent) of the ε-equilibrium accounting (paper: 7.5).
    pub epsilon_percent: f64,
    /// Keep the raw per-slot selections in the [`RunResult`] (needed by the
    /// mobility and trace-illustration experiments; costs memory).
    pub keep_selections: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            slot_duration_s: 15.0,
            total_slots: 1200,
            gain_scale_mbps: None,
            sharing: SharingModel::EqualShare,
            stable_probability_threshold: 0.75,
            epsilon_percent: 7.5,
            keep_selections: false,
        }
    }
}

impl SimulationConfig {
    /// A shorter configuration for unit tests and quick examples.
    #[must_use]
    pub fn quick(total_slots: usize) -> Self {
        SimulationConfig {
            total_slots,
            ..Self::default()
        }
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation {
    config: SimulationConfig,
    networks: Vec<NetworkSpec>,
    topology: Topology,
    bandwidth_events: Vec<BandwidthEvent>,
    devices: Vec<DeviceSetup>,
}

impl Simulation {
    /// Creates a simulation over `networks` with a given `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `networks` is empty (an environment without networks is a
    /// programming error in the experiment definition, not a data condition).
    #[must_use]
    pub fn new(networks: Vec<NetworkSpec>, topology: Topology, config: SimulationConfig) -> Self {
        assert!(
            !networks.is_empty(),
            "a simulation needs at least one network"
        );
        Simulation {
            config,
            networks,
            topology,
            bandwidth_events: Vec::new(),
            devices: Vec::new(),
        }
    }

    /// Creates a simulation where every network is visible everywhere.
    #[must_use]
    pub fn single_area(networks: Vec<NetworkSpec>, config: SimulationConfig) -> Self {
        let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
        Self::new(networks, Topology::single_area(&ids), config)
    }

    /// Adds a device.
    pub fn add_device(&mut self, setup: DeviceSetup) -> &mut Self {
        self.devices.push(setup);
        self
    }

    /// Schedules a bandwidth change.
    pub fn add_bandwidth_event(&mut self, event: BandwidthEvent) -> &mut Self {
        self.bandwidth_events.push(event);
        self
    }

    /// Number of devices configured so far.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Runs the simulation to completion with a deterministic seed and
    /// returns the collected measurements.
    ///
    /// One shared RNG drives policies and environment alike, with the
    /// environment's phase methods invoked in the historical draw order;
    /// steady-state slots stay allocation-free because every per-slot buffer
    /// lives in the [`CongestionEnvironment`].
    #[must_use]
    pub fn run(self, seed: u64) -> RunResult {
        let Simulation {
            config,
            networks,
            topology,
            bandwidth_events,
            mut devices,
        } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles: Vec<DeviceProfile> = devices.iter().map(DeviceProfile::from_setup).collect();
        let mut env =
            CongestionEnvironment::new(networks, topology, bandwidth_events, profiles, config, 0)
                .with_recorder();
        let mut probabilities_buffer: Vec<(NetworkId, f64)> = Vec::new();

        for slot in 0..config.total_slots {
            // 1. Environment events.
            env.apply_due_events(slot);

            // 2. Device life-cycle: activity, mobility, visibility changes.
            for (index, device) in devices.iter_mut().enumerate() {
                match env.refresh_visibility(index, slot) {
                    VisibilityUpdate::Inactive | VisibilityUpdate::Unchanged => {}
                    VisibilityUpdate::Changed => {
                        device
                            .policy
                            .on_networks_changed(env.available(index), &mut rng);
                    }
                    VisibilityUpdate::FirstActivation => {
                        // First activation: the policy was constructed with
                        // its initial network set; only notify if it differs.
                        if policy_networks_differ(device, env.available(index)) {
                            device
                                .policy
                                .on_networks_changed(env.available(index), &mut rng);
                        }
                    }
                }
            }

            // 3. Selections. A device that sees no network sits the slot
            // out, as on the fleet path.
            env.begin_choices();
            for (index, device) in devices.iter_mut().enumerate() {
                if !device.is_active_at(slot) || env.available(index).is_empty() {
                    continue;
                }
                let chosen = device.policy.choose(slot, &mut rng);
                env.register_choice(index, chosen);
            }

            // 4. Bandwidth sharing.
            env.compute_shares(&mut rng);

            // 5. Feedback, goodput accounting and recording.
            for k in 0..env.choice_count() {
                let (index, chosen) = env.choice_at(k);
                let observation = env.grade(k, slot, &mut rng);
                let device = &mut devices[index];
                device.policy.observe(&observation, &mut rng);
                env.recycle_observation(observation);

                device.policy.probabilities_into(&mut probabilities_buffer);
                let top = top_probability(&probabilities_buffer).unwrap_or((chosen, 1.0));
                env.record_top(k, top);
            }
            env.finish_slot();
        }

        let outcomes: Vec<DeviceOutcome> = devices
            .iter()
            .enumerate()
            .map(|(index, device)| {
                env.outcome(
                    index,
                    device.policy.name().to_string(),
                    device.policy.stats().resets,
                )
            })
            .collect();
        env.into_result(outcomes)
            .expect("the simulation driver always attaches a recorder")
    }
}

fn top_probability(probabilities: &[(NetworkId, f64)]) -> Option<(NetworkId, f64)> {
    probabilities
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

fn policy_networks_differ(setup: &DeviceSetup, visible: &[NetworkId]) -> bool {
    let mut policy_nets: Vec<NetworkId> = setup
        .policy
        .probabilities()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let mut visible_sorted = visible.to_vec();
    policy_nets.sort();
    visible_sorted.sort();
    policy_nets != visible_sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{setting1_networks, setting2_networks};
    use smartexp3_core::{PolicyFactory, PolicyKind};

    fn factory(networks: &[NetworkSpec]) -> PolicyFactory {
        PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect()).unwrap()
    }

    fn build_simulation(
        networks: Vec<NetworkSpec>,
        kind: PolicyKind,
        devices: usize,
        slots: usize,
    ) -> Simulation {
        let mut policies = factory(&networks);
        let mut simulation = Simulation::single_area(networks, SimulationConfig::quick(slots));
        for id in 0..devices {
            let policy = policies.build(kind).unwrap();
            let mut setup = DeviceSetup::new(id as u32, policy);
            if kind.needs_full_information() {
                setup = setup.with_full_information();
            }
            simulation.add_device(setup);
        }
        simulation
    }

    #[test]
    fn centralized_devices_sit_at_equilibrium_from_the_start() {
        let simulation = build_simulation(setting1_networks(), PolicyKind::Centralized, 20, 50);
        let result = simulation.run(1);
        assert_eq!(result.fraction_time_at_nash, 1.0);
        assert!(result.distance_to_nash.iter().all(|&d| d < 1e-9));
        assert!(result.devices.iter().all(|d| d.switches == 0));
        assert_eq!(result.unutilized_megabits, 0.0);
    }

    #[test]
    fn smart_exp3_converges_towards_equilibrium_in_setting1() {
        let simulation = build_simulation(setting1_networks(), PolicyKind::SmartExp3, 20, 600);
        let result = simulation.run(7);
        let early = result.mean_distance_to_nash(0, 100);
        let late = result.mean_distance_to_nash(500, 600);
        assert!(
            late < early,
            "distance should shrink over time: early {early:.1}%, late {late:.1}%"
        );
        assert!(late < 60.0, "late distance still {late:.1}%");
    }

    #[test]
    fn smart_exp3_switches_less_than_exp3() {
        let smart = build_simulation(setting1_networks(), PolicyKind::SmartExp3, 10, 400).run(3);
        let exp3 = build_simulation(setting1_networks(), PolicyKind::Exp3, 10, 400).run(3);
        let smart_switches: f64 = smart.switch_counts().iter().sum();
        let exp3_switches: f64 = exp3.switch_counts().iter().sum();
        assert!(
            smart_switches * 2.0 < exp3_switches,
            "smart {smart_switches} vs exp3 {exp3_switches}"
        );
    }

    #[test]
    fn downloads_are_positive_and_bounded_by_capacity() {
        let result = build_simulation(setting2_networks(), PolicyKind::Greedy, 20, 200).run(11);
        let total = result.total_download_megabits();
        // Capacity over the run: 33 Mbps * 200 slots * 15 s.
        let capacity = 33.0 * 200.0 * 15.0;
        assert!(total > 0.0);
        assert!(
            total <= capacity + 1e-6,
            "total {total} exceeds capacity {capacity}"
        );
        assert!(result.devices.iter().all(|d| d.active_slots == 200));
    }

    #[test]
    fn device_activity_windows_are_respected() {
        let networks = setting1_networks();
        let mut policies = factory(&networks);
        let mut simulation = Simulation::single_area(networks, SimulationConfig::quick(100));
        simulation.add_device(DeviceSetup::new(
            0,
            policies.build(PolicyKind::SmartExp3).unwrap(),
        ));
        simulation.add_device(
            DeviceSetup::new(1, policies.build(PolicyKind::SmartExp3).unwrap())
                .active_between(40, Some(80)),
        );
        let result = simulation.run(5);
        assert_eq!(result.devices[0].active_slots, 100);
        assert_eq!(result.devices[1].active_slots, 40);
    }

    #[test]
    fn bandwidth_events_change_the_environment() {
        let networks = setting1_networks();
        let mut policies = factory(&networks);
        let mut simulation = Simulation::single_area(networks, SimulationConfig::quick(60));
        simulation.add_device(DeviceSetup::new(
            0,
            policies.build(PolicyKind::Greedy).unwrap(),
        ));
        // The 22 Mbps network collapses to 1 Mbps halfway through.
        simulation.add_bandwidth_event(BandwidthEvent::new(30, NetworkId(2), 1.0));
        let result = simulation.run(2);
        assert_eq!(result.slots, 60);
        // Downloads must reflect the collapse: strictly less than staying at
        // 22 Mbps for the whole hour would give.
        assert!(result.total_download_megabits() < 22.0 * 60.0 * 15.0);
    }

    #[test]
    fn full_information_policy_receives_counterfactual_feedback() {
        let networks = setting1_networks();
        let mut policies = factory(&networks);
        let mut simulation = Simulation::single_area(networks, SimulationConfig::quick(150));
        for id in 0..5 {
            simulation.add_device(
                DeviceSetup::new(id, policies.build(PolicyKind::FullInformation).unwrap())
                    .with_full_information(),
            );
        }
        let result = simulation.run(9);
        // With full feedback and only 5 devices on a 22 Mbps network, the run
        // should spend a decent share of its time near equilibrium.
        assert!(result.fraction_time_at_epsilon > 0.2);
    }

    #[test]
    fn runs_are_reproducible_from_the_seed() {
        let a = build_simulation(setting1_networks(), PolicyKind::SmartExp3, 8, 150).run(77);
        let b = build_simulation(setting1_networks(), PolicyKind::SmartExp3, 8, 150).run(77);
        assert_eq!(a.total_download_megabits(), b.total_download_megabits());
        assert_eq!(a.switch_counts(), b.switch_counts());
        let c = build_simulation(setting1_networks(), PolicyKind::SmartExp3, 8, 150).run(78);
        assert_ne!(a.total_download_megabits(), c.total_download_megabits());
    }

    #[test]
    fn mobility_changes_available_networks() {
        use crate::network::figure1_networks;
        use crate::topology::{AreaId, Topology};
        let networks = figure1_networks();
        let mut policies = factory(&networks);
        let mut simulation =
            Simulation::new(networks, Topology::figure1(), SimulationConfig::quick(120));
        simulation.add_device(
            DeviceSetup::new(0, policies.build(PolicyKind::SmartExp3).unwrap())
                .in_area(AreaId(0))
                .moving_to(40, AreaId(1))
                .moving_to(80, AreaId(2)),
        );
        let result = simulation.run(4);
        assert_eq!(result.devices[0].active_slots, 120);
        assert!(result.devices[0].download_megabits > 0.0);
    }
}
