//! Scenario builders for every setting the paper evaluates.

use netsim::testbed::{testbed_config, testbed_networks, TESTBED_DEVICES};
use netsim::{
    figure1_networks, setting1_networks, setting2_networks, AreaId, CongestionEnvironment,
    DeviceProfile, NetworkSpec, SimulationConfig, Topology,
};
use serde::{Deserialize, Serialize};
use smartexp3_core::{ConfigError, NetworkId, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};

/// The two static simulation settings of §VI-A (20 devices, 3 networks,
/// 33 Mbps aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StaticSetting {
    /// Non-uniform rates 4 / 7 / 22 Mbps (unique Nash equilibrium).
    Setting1,
    /// Uniform rates 11 / 11 / 11 Mbps (three symmetric equilibria).
    Setting2,
}

impl StaticSetting {
    /// Both static settings.
    #[must_use]
    pub fn both() -> [StaticSetting; 2] {
        [StaticSetting::Setting1, StaticSetting::Setting2]
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            StaticSetting::Setting1 => "Setting 1",
            StaticSetting::Setting2 => "Setting 2",
        }
    }

    /// The networks of the setting.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkSpec> {
        match self {
            StaticSetting::Setting1 => setting1_networks(),
            StaticSetting::Setting2 => setting2_networks(),
        }
    }

    /// Number of devices the paper uses in this setting.
    #[must_use]
    pub fn devices(&self) -> usize {
        20
    }
}

/// Builds a [`PolicyFactory`] over `networks`.
///
/// # Errors
///
/// Propagates [`ConfigError`] from the factory constructor.
pub fn factory_for(networks: &[NetworkSpec]) -> Result<PolicyFactory, ConfigError> {
    PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect())
}

/// Device `id`, always active in the single area over `ids`, asking for
/// counterfactual gains when `kind` learns from full information.
fn single_area_profile(ids: &[NetworkId], kind: PolicyKind, id: usize) -> DeviceProfile {
    let profile = DeviceProfile::new(id as u32, AreaId(0), ids.to_vec());
    if kind.needs_full_information() {
        profile.with_full_information()
    } else {
        profile
    }
}

/// Assembles the engine-path pair for any recorder-backed world: `populate`
/// fills the fleet with one session per profile (in profile order), and the
/// recorder-equipped environment is built around the same profiles, both
/// derived from `fleet_config`'s root seed (the fleet also inherits its
/// engine parallelism). Drive the pair with
/// [`run_environment`](crate::runner::run_environment).
fn environment_pair<F>(
    networks: Vec<NetworkSpec>,
    topology: Topology,
    profiles: Vec<DeviceProfile>,
    config: SimulationConfig,
    fleet_config: FleetConfig,
    populate: F,
) -> Result<(CongestionEnvironment, FleetEngine), ConfigError>
where
    F: FnOnce(&mut FleetEngine, &[DeviceProfile]) -> Result<(), ConfigError>,
{
    let mut fleet = FleetEngine::new(fleet_config);
    populate(&mut fleet, &profiles)?;
    let seed = fleet.config().environment_seed();
    let env = CongestionEnvironment::new(networks, topology, Vec::new(), profiles, config, seed)
        .with_recorder();
    Ok((env, fleet))
}

/// A single-area world with `devices` devices all running `kind`: a
/// recorder-equipped [`CongestionEnvironment`] plus a [`FleetEngine`]
/// configured by `fleet_config` (root seed and engine parallelism). Drive
/// the pair with [`run_environment`](crate::runner::run_environment).
///
/// # Errors
///
/// Propagates [`ConfigError`] from policy construction.
pub fn homogeneous_environment(
    networks: Vec<NetworkSpec>,
    kind: PolicyKind,
    devices: usize,
    config: SimulationConfig,
    fleet_config: FleetConfig,
) -> Result<(CongestionEnvironment, FleetEngine), ConfigError> {
    mixed_environment(networks, &[(kind, devices)], config, fleet_config).map(|(pair, _)| pair)
}

/// A single-area world with a mix of policies: `counts` lists how many
/// devices run each kind, in session order (the robustness scenarios of
/// Fig. 11 and the mixed controlled experiment of Fig. 15). Returns the
/// recorder-equipped environment and fleet, and the kind of every device.
///
/// # Errors
///
/// Propagates [`ConfigError`] from policy construction.
#[allow(clippy::type_complexity)]
pub fn mixed_environment(
    networks: Vec<NetworkSpec>,
    counts: &[(PolicyKind, usize)],
    config: SimulationConfig,
    fleet_config: FleetConfig,
) -> Result<((CongestionEnvironment, FleetEngine), Vec<PolicyKind>), ConfigError> {
    let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
    let kinds: Vec<PolicyKind> = counts
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
        .collect();
    let profiles = kinds
        .iter()
        .enumerate()
        .map(|(id, &kind)| single_area_profile(&ids, kind, id))
        .collect();
    let topology = Topology::single_area(&ids);
    let mut factory = factory_for(&networks)?;
    let pair = environment_pair(
        networks,
        topology,
        profiles,
        config,
        fleet_config,
        |fleet, _| {
            for &(kind, count) in counts {
                fleet.add_fleet(&mut factory, kind, count)?;
            }
            Ok(())
        },
    )?;
    Ok((pair, kinds))
}

/// The dynamic settings of §VI-A (Figures 7 and 8); all devices run `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DynamicSetting {
    /// Dynamic setting 1: 11 devices stay throughout; 9 more join at slot 401
    /// and leave after slot 800.
    DevicesJoinAndLeave,
    /// Dynamic setting 2: 16 devices leave after slot 600, freeing resources
    /// for the remaining 4.
    DevicesLeave,
}

impl DynamicSetting {
    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DynamicSetting::DevicesJoinAndLeave => "9 devices join at t=401, leave after t=800",
            DynamicSetting::DevicesLeave => "16 devices leave after t=600",
        }
    }

    /// Number of devices that stay for the whole run.
    #[must_use]
    pub fn persistent_devices(&self) -> usize {
        match self {
            DynamicSetting::DevicesJoinAndLeave => 11,
            DynamicSetting::DevicesLeave => 4,
        }
    }

    /// The setting's population: 20 devices whose activity windows encode
    /// the join/leave schedule, scaled proportionally when `total_slots`
    /// differs from the paper's 1200.
    fn profiles(&self, ids: &[NetworkId], total_slots: usize) -> Vec<DeviceProfile> {
        let scale = |slot: usize| slot * total_slots / 1200;
        let window = |id: u32| match self {
            DynamicSetting::DevicesJoinAndLeave if id >= 11 => (scale(400), Some(scale(800))),
            DynamicSetting::DevicesLeave if id >= 4 => (0, Some(scale(600))),
            _ => (0, None),
        };
        (0..20u32)
            .map(|id| {
                let (from, until) = window(id);
                DeviceProfile::new(id, AreaId(0), ids.to_vec()).active_between(from, until)
            })
            .collect()
    }

    /// Builds the setting (3 networks at 4/7/22 Mbps as in the paper) as a
    /// recorder-equipped environment plus a fleet configured by
    /// `fleet_config` (root seed and engine parallelism). The join/leave
    /// slots are scaled proportionally when the run's `total_slots` differs
    /// from the paper's 1200.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from policy construction.
    pub fn build_environment(
        &self,
        kind: PolicyKind,
        total_slots: usize,
        config: SimulationConfig,
        fleet_config: FleetConfig,
    ) -> Result<(CongestionEnvironment, FleetEngine), ConfigError> {
        let networks = setting1_networks();
        let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
        let profiles = self.profiles(&ids, total_slots);
        let topology = Topology::single_area(&ids);
        let mut factory = factory_for(&networks)?;
        environment_pair(
            networks,
            topology,
            profiles,
            config,
            fleet_config,
            |fleet, profiles| {
                fleet
                    .add_fleet(&mut factory, kind, profiles.len())
                    .map(|_| ())
            },
        )
    }
}

/// The population of [`mobility_environment`]: 8 walkers starting in the
/// food court (moving at the scaled slots 400 and 800), 2 food-court
/// stayers, 5 study-area and 5 bus-stop devices, with their reporting group
/// per device.
fn mobility_profiles(topology: &Topology, total_slots: usize) -> (Vec<DeviceProfile>, Vec<usize>) {
    let scale = |slot: usize| slot * total_slots / 1200;
    let mut profiles = Vec::with_capacity(20);
    let mut groups = Vec::with_capacity(20);
    for id in 0..20u32 {
        let (area, group) = match id {
            0..=7 => (0u32, 0usize),
            8..=9 => (0, 1),
            10..=14 => (1, 2),
            _ => (2, 3),
        };
        let area_id = AreaId(area);
        let mut profile = DeviceProfile::new(id, area_id, topology.networks_in(area_id));
        if group == 0 {
            profile = profile
                .moving_to(scale(400), AreaId(1))
                .moving_to(scale(800), AreaId(2));
        }
        profiles.push(profile);
        groups.push(group);
    }
    (profiles, groups)
}

/// Per-area policy factories for the Figure-1 map: policies are constructed
/// over the networks visible from the device's starting area (a device
/// cannot know about networks it has never seen).
fn mobility_factories(
    networks: &[NetworkSpec],
    topology: &Topology,
) -> Result<Vec<PolicyFactory>, ConfigError> {
    [AreaId(0), AreaId(1), AreaId(2)]
        .iter()
        .map(|&area| {
            let visible = topology.networks_in(area);
            PolicyFactory::new(
                networks
                    .iter()
                    .filter(|n| visible.contains(&n.id))
                    .map(|n| (n.id, n.bandwidth_mbps))
                    .collect(),
            )
        })
        .collect()
}

/// The mobility scenario of §VI-A setting 3 (Figure 9): the Figure 1 map with
/// 20 devices, 8 of which move from the food court to the study area at slot
/// 401 and on to the bus stop at slot 801 (scaled proportionally when the
/// run's `total_slots` differs from the paper's 1200), as a
/// recorder-equipped environment plus a fleet configured by `fleet_config`.
///
/// Also returns, per device id, its *group* for reporting:
/// 0 = moving devices (1–8), 1 = food-court stayers (9–10),
/// 2 = study-area devices (11–15), 3 = bus-stop devices (16–20).
///
/// # Errors
///
/// Propagates [`ConfigError`] from policy construction.
#[allow(clippy::type_complexity)]
pub fn mobility_environment(
    kind: PolicyKind,
    total_slots: usize,
    config: SimulationConfig,
    fleet_config: FleetConfig,
) -> Result<((CongestionEnvironment, FleetEngine), Vec<usize>), ConfigError> {
    let networks = figure1_networks();
    let topology = Topology::figure1();
    let (profiles, groups) = mobility_profiles(&topology, total_slots);
    let mut factories = mobility_factories(&networks, &topology)?;
    let pair = environment_pair(
        networks,
        topology,
        profiles,
        config,
        fleet_config,
        |fleet, profiles| {
            for profile in profiles {
                fleet.add_fleet(&mut factories[profile.area.0 as usize], kind, 1)?;
            }
            Ok(())
        },
    )?;
    Ok((pair, groups))
}

/// Human-readable labels of the mobility groups returned by
/// [`mobility_environment`].
#[must_use]
pub fn mobility_group_labels() -> [&'static str; 4] {
    [
        "devices 1-8 (moving)",
        "devices 9-10 (food court)",
        "devices 11-15 (study area)",
        "devices 16-20 (bus stop)",
    ]
}

/// The controlled-experiment (testbed) scenario of §VII-A: 14 devices all
/// running `kind` on 3 APs with noisy unequal sharing, as a
/// recorder-equipped environment plus a fleet configured by `fleet_config`.
/// `leave_after` removes 9 of the 14 devices after that slot (the dynamic
/// experiment of Figure 14).
///
/// # Errors
///
/// Propagates [`ConfigError`] from policy construction.
pub fn controlled_environment(
    kind: PolicyKind,
    leave_after: Option<usize>,
    fleet_config: FleetConfig,
) -> Result<(CongestionEnvironment, FleetEngine), ConfigError> {
    let networks = testbed_networks();
    let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
    let profiles = (0..TESTBED_DEVICES)
        .map(|id| {
            let profile = single_area_profile(&ids, kind, id);
            match leave_after {
                // Devices 5..14 (9 devices) leave after `leave_slot`.
                Some(leave_slot) if id >= 5 => profile.active_between(0, Some(leave_slot)),
                _ => profile,
            }
        })
        .collect();
    let topology = Topology::single_area(&ids);
    let mut factory = factory_for(&networks)?;
    environment_pair(
        networks,
        topology,
        profiles,
        testbed_config(),
        fleet_config,
        |fleet, profiles| {
            fleet
                .add_fleet(&mut factory, kind, profiles.len())
                .map(|_| ())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartexp3_core::Environment;

    fn fleet_config() -> FleetConfig {
        FleetConfig::with_root_seed(1)
    }

    #[test]
    fn static_settings_have_twenty_devices_and_33_mbps() {
        for setting in StaticSetting::both() {
            assert_eq!(setting.devices(), 20);
            let total: f64 = setting.networks().iter().map(|n| n.bandwidth_mbps).sum();
            assert_eq!(total, 33.0);
        }
    }

    #[test]
    fn homogeneous_environment_builds_all_devices() {
        let (env, fleet) = homogeneous_environment(
            setting1_networks(),
            PolicyKind::FullInformation,
            20,
            SimulationConfig::default(),
            fleet_config(),
        )
        .unwrap();
        assert_eq!(fleet.len(), 20);
        assert_eq!(env.sessions(), 20);
        assert!(env.profiles().iter().all(|p| p.needs_full_information));
    }

    #[test]
    fn mixed_environment_reports_kinds_in_device_order() {
        let ((env, fleet), kinds) = mixed_environment(
            setting1_networks(),
            &[(PolicyKind::SmartExp3, 3), (PolicyKind::Greedy, 2)],
            SimulationConfig::default(),
            fleet_config(),
        )
        .unwrap();
        assert_eq!(env.sessions(), 5);
        assert_eq!(
            kinds,
            [
                PolicyKind::SmartExp3,
                PolicyKind::SmartExp3,
                PolicyKind::SmartExp3,
                PolicyKind::Greedy,
                PolicyKind::Greedy
            ]
        );
        for (index, kind) in kinds.into_iter().enumerate() {
            assert_eq!(fleet.kind(index), Some(kind));
        }
    }

    #[test]
    fn dynamic_settings_scale_their_schedules_with_the_run_length() {
        for (setting, window) in [
            (DynamicSetting::DevicesJoinAndLeave, (200, Some(400))),
            (DynamicSetting::DevicesLeave, (0, Some(300))),
        ] {
            let (env, fleet) = setting
                .build_environment(
                    PolicyKind::SmartExp3,
                    600,
                    SimulationConfig::default(),
                    fleet_config(),
                )
                .unwrap();
            assert_eq!(fleet.len(), 20);
            let persistent = setting.persistent_devices();
            let profiles = env.profiles();
            assert!(profiles[..persistent]
                .iter()
                .all(|p| (p.active_from, p.active_until) == (0, None)));
            assert!(profiles[persistent..]
                .iter()
                .all(|p| (p.active_from, p.active_until) == window));
        }
    }

    #[test]
    fn mobility_environment_has_twenty_devices_in_four_groups() {
        let ((env, fleet), groups) = mobility_environment(
            PolicyKind::SmartExp3,
            600,
            SimulationConfig::default(),
            fleet_config(),
        )
        .unwrap();
        assert_eq!(fleet.len(), 20);
        assert_eq!(groups.len(), 20);
        for group in 0..4 {
            assert!(groups.contains(&group), "group {group} missing");
        }
        assert_eq!(mobility_group_labels().len(), 4);
        assert_eq!(
            env.profiles()[0].moves,
            [(200, AreaId(1)), (400, AreaId(2))]
        );
    }

    #[test]
    fn controlled_environment_matches_testbed_population() {
        let (env, fleet) =
            controlled_environment(PolicyKind::Greedy, Some(30), fleet_config()).unwrap();
        assert_eq!(fleet.len(), TESTBED_DEVICES);
        let leaving = env
            .profiles()
            .iter()
            .filter(|p| p.active_until == Some(30))
            .count();
        assert_eq!(leaving, 9);
    }
}
