//! Testbed emulation presets for the paper's §VII real-world experiments.
//!
//! The controlled experiments of §VII-A run 14 Raspberry-Pi clients against 3
//! WiFi APs (4, 7 and 22 Mbps) for 480 slots of 15 seconds. Compared to the
//! clean simulation, the real testbed exhibits (a) unequal and noisy per-device
//! shares (distance to the AP, interference, packet loss) and (b) noisier gain
//! estimates, which cause Smart EXP3 to switch and reset more often than in
//! simulation. The presets here reproduce those conditions inside the
//! simulator: same topology, [`SharingModel::testbed`] noise, 480 slots.
//!
//! The in-the-wild experiment of §VII-B (coffee shop, one device, unknown
//! background load) is modelled in the `experiments` crate on top of
//! [`BandwidthEvent`](crate::BandwidthEvent) schedules.

use crate::env::SimulationConfig;
use crate::network::NetworkSpec;
use crate::sharing::SharingModel;

/// The three WiFi APs of the controlled experiments (channels 11, 6 and 1;
/// 4, 7 and 22 Mbps).
#[must_use]
pub fn testbed_networks() -> Vec<NetworkSpec> {
    vec![
        NetworkSpec::wifi(0, 4.0),
        NetworkSpec::wifi(1, 7.0),
        NetworkSpec::wifi(2, 22.0),
    ]
}

/// Number of client devices in the controlled experiments.
pub const TESTBED_DEVICES: usize = 14;

/// Number of 15-second slots in a 2-hour controlled run.
pub const TESTBED_SLOTS: usize = 480;

/// World configuration reproducing the controlled-experiment conditions
/// (run it for [`TESTBED_SLOTS`] slots).
#[must_use]
pub fn testbed_config() -> SimulationConfig {
    SimulationConfig {
        sharing: SharingModel::testbed(),
        ..SimulationConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{CongestionEnvironment, DeviceProfile};
    use crate::topology::{AreaId, Topology};
    use smartexp3_core::{NetworkId, PolicyFactory, PolicyKind};
    use smartexp3_engine::{FleetConfig, FleetEngine};

    #[test]
    fn testbed_preset_matches_the_paper_setup() {
        let networks = testbed_networks();
        assert_eq!(networks.len(), 3);
        let total: f64 = networks.iter().map(|n| n.bandwidth_mbps).sum();
        assert_eq!(total, 33.0);
        assert!(matches!(
            testbed_config().sharing,
            SharingModel::NoisyShare { .. }
        ));
    }

    #[test]
    fn testbed_noise_causes_more_resets_than_clean_simulation() {
        let run = |config: SimulationConfig| {
            let networks = testbed_networks();
            let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
            let mut factory =
                PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect())
                    .unwrap();
            let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(123));
            fleet
                .add_fleet(&mut factory, PolicyKind::SmartExp3, TESTBED_DEVICES)
                .unwrap();
            let profiles = (0..TESTBED_DEVICES as u32)
                .map(|id| DeviceProfile::new(id, AreaId(0), ids.clone()))
                .collect();
            let seed = fleet.config().environment_seed();
            let topology = Topology::single_area(&ids);
            let mut env =
                CongestionEnvironment::new(networks, topology, Vec::new(), profiles, config, seed);
            fleet.run_env(&mut env, TESTBED_SLOTS);
            (0..fleet.len())
                .map(|index| fleet.policy(index).unwrap().stats().resets)
                .sum::<u64>()
        };
        let clean_resets = run(SimulationConfig::default());
        let noisy_resets = run(testbed_config());
        assert!(
            noisy_resets >= clean_resets,
            "noisy {noisy_resets} < clean {clean_resets}"
        );
    }
}
