//! A device that walks into a service area without networks sits those
//! slots out, slot-synchronous and event-driven, at one and two threads,
//! instead of asking its policy to choose from an empty set; a checkpoint
//! taken while it is there restores bit-identically.

use netsim::{
    setting1_networks, AreaId, CongestionEnvironment, DeviceProfile, ServiceArea, SimulationConfig,
    Topology,
};
use smartexp3_core::{Environment, NetworkId, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};
use std::ops::Range;

const SLOTS: usize = 8;
/// The slots the devices spend in area 1, which has no networks.
const AWAY: Range<usize> = 3..5;
const KINDS: [PolicyKind; 2] = [PolicyKind::Exp3, PolicyKind::SmartExp3];

fn ids() -> Vec<NetworkId> {
    setting1_networks().iter().map(|n| n.id).collect()
}

fn factory() -> PolicyFactory {
    let rates = setting1_networks()
        .iter()
        .map(|n| (n.id, n.bandwidth_mbps))
        .collect();
    PolicyFactory::new(rates).unwrap()
}

/// Area 0 sees every network, area 1 none.
fn dead_zone_topology() -> Topology {
    Topology::new(vec![
        ServiceArea {
            id: AreaId(0),
            name: "covered".to_string(),
            networks: ids(),
        },
        ServiceArea {
            id: AreaId(1),
            name: "dead zone".to_string(),
            networks: Vec::new(),
        },
    ])
}

fn fleet_world(threads: usize) -> (FleetEngine, CongestionEnvironment) {
    let mut factory = factory();
    let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(31).with_threads(threads));
    for kind in KINDS {
        fleet.add_fleet(&mut factory, kind, 1).unwrap();
    }
    let profiles = (0..KINDS.len() as u32)
        .map(|id| {
            DeviceProfile::new(id, AreaId(0), ids())
                .moving_to(AWAY.start, AreaId(1))
                .moving_to(AWAY.end, AreaId(0))
        })
        .collect();
    let env = CongestionEnvironment::new(
        setting1_networks(),
        dead_zone_topology(),
        Vec::new(),
        profiles,
        SimulationConfig::default(),
        5,
    );
    (fleet, env)
}

fn graded_slots(env: &CongestionEnvironment) -> Vec<usize> {
    (0..KINDS.len())
        .map(|index| env.outcome(index, String::new(), 0).active_slots)
        .collect()
}

#[test]
fn fleet_devices_in_an_area_without_networks_sit_the_slots_out() {
    for threads in [1, 2] {
        for events in [false, true] {
            let (mut fleet, mut env) = fleet_world(threads);
            while fleet.slot() < SLOTS {
                let before = graded_slots(&env);
                let slot = if events {
                    fleet
                        .step_events(&mut env)
                        .expect("every slot has a cohort")
                } else {
                    let slot = fleet.slot();
                    fleet.step_env(&mut env);
                    slot
                };
                for (index, (&was, now)) in before.iter().zip(graded_slots(&env)).enumerate() {
                    assert_eq!(
                        now > was,
                        !AWAY.contains(&slot),
                        "{:?} at slot {slot} ({threads} threads, events {events})",
                        KINDS[index]
                    );
                }
            }
        }
    }
}

#[test]
fn a_checkpoint_taken_in_a_dead_zone_restores_bit_identically() {
    // At slot 4 both devices are still away: their weight tables are empty,
    // so the checkpoint carries each table's `-inf` maximum.
    let cut = AWAY.start + 1;
    for events in [false, true] {
        let step = |fleet: &mut FleetEngine, env: &mut CongestionEnvironment, until: usize| {
            if events {
                fleet.run_until(env, until);
            } else {
                fleet.run_env(env, until - fleet.slot());
            }
        };
        let (mut original, mut env) = fleet_world(1);
        step(&mut original, &mut env, cut);
        let snapshot = original.snapshot_env(&env).unwrap();
        assert!(snapshot.to_json().unwrap().contains("-inf"));
        let (_, mut resumed_env) = fleet_world(1);
        let mut resumed = FleetEngine::from_snapshot_env(snapshot, &mut resumed_env).unwrap();
        step(&mut original, &mut env, SLOTS);
        step(&mut resumed, &mut resumed_env, SLOTS);
        assert_eq!(
            resumed.to_json().unwrap(),
            original.to_json().unwrap(),
            "events {events}"
        );
        assert_eq!(resumed_env.state(), env.state(), "events {events}");
    }
}
