//! Worlds shared by the engine's integration tests.

use netsim::{CongestionEnvironment, DeviceProfile, NetworkSpec, SimulationConfig, Topology};
use smartexp3_core::{Environment, NetworkId, Observation, SessionView, SlotIndex};
use smartexp3_engine::FleetEngine;

/// One service area in which all `sessions` devices see every network of
/// `networks`: sessions choosing the same network split its bandwidth
/// equally (the paper's sharing model), so their feedback couples.
pub fn single_area_congestion(
    networks: Vec<NetworkSpec>,
    sessions: usize,
    env_seed: u64,
) -> CongestionEnvironment {
    let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
    let topology = Topology::single_area(&ids);
    let profiles = (0..sessions as u32)
        .map(|id| DeviceProfile::new(id, topology.default_area(), ids.clone()))
        .collect();
    CongestionEnvironment::new(
        networks,
        topology,
        Vec::new(),
        profiles,
        SimulationConfig::default(),
        env_seed,
    )
}

/// Independent feedback: a session's gain depends only on its own index and
/// choice, so any routing error changes the trajectory. Stateless, so a
/// fresh world per call can follow the fleet through churn.
struct Independent {
    sessions: usize,
}

impl Environment for Independent {
    fn sessions(&self) -> usize {
        self.sessions
    }

    fn begin_slot(&mut self, _slot: SlotIndex) {}

    fn session_view(&self, _session: usize, _slot: SlotIndex) -> SessionView<'_> {
        SessionView::active_static()
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        for (session, (choice, out)) in choices.iter().zip(out.iter_mut()).enumerate() {
            *out = choice.map(|chosen| {
                let gain = if chosen == NetworkId(2) {
                    0.7 + (session % 7) as f64 / 40.0
                } else {
                    0.2 + chosen.0 as f64 / 30.0
                };
                Observation::bandit(slot, chosen, gain * 22.0, gain.min(1.0))
            });
        }
    }
}

/// Steps `fleet` for `slots` slots of independent feedback.
pub fn run_independent(fleet: &mut FleetEngine, slots: usize) {
    let mut world = Independent {
        sessions: fleet.len(),
    };
    fleet.run_env(&mut world, slots);
}
