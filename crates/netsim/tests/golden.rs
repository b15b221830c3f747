//! Golden pins of the congestion world on the fleet-engine path: static,
//! mobility with mixed policies and activity windows, and bandwidth events
//! with noisy sharing and full-information feedback, each driven through
//! `FleetEngine::run_env` with a recorder attached and pinned to exact `f64`
//! bit patterns — so any change to sharing, delays, visibility, event
//! timing or recorder input shows up as a drifted pin.

use netsim::{
    figure1_networks, setting1_networks, AreaId, BandwidthEvent, CongestionEnvironment,
    DeviceProfile, NetworkSpec, RunResult, SharingModel, SimulationConfig, Topology,
};
use smartexp3_core::{NetworkId, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};

fn factory(networks: &[NetworkSpec]) -> PolicyFactory {
    PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect()).unwrap()
}

/// Runs `devices` (policy kind + profile, in session order, every policy
/// built over all of `networks`) for `slots` slots from `root_seed` and
/// returns the recorder's result.
fn run_world(
    networks: Vec<NetworkSpec>,
    topology: Topology,
    events: Vec<BandwidthEvent>,
    devices: Vec<(PolicyKind, DeviceProfile)>,
    config: SimulationConfig,
    root_seed: u64,
    slots: usize,
) -> RunResult {
    let mut policies = factory(&networks);
    let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(root_seed));
    let mut profiles = Vec::with_capacity(devices.len());
    for (kind, profile) in devices {
        fleet.add_fleet(&mut policies, kind, 1).unwrap();
        profiles.push(profile);
    }
    let seed = fleet.config().environment_seed();
    let mut env = CongestionEnvironment::new(networks, topology, events, profiles, config, seed)
        .with_recorder();
    fleet.run_env(&mut env, slots);
    let outcomes = (0..fleet.len())
        .map(|index| {
            let policy = fleet.policy(index).expect("session exists");
            env.outcome(
                index,
                policy.kind().label().to_string(),
                policy.stats().resets,
            )
        })
        .collect();
    env.into_result(outcomes).expect("recorder attached")
}

fn assert_golden(result: &RunResult, download_bits: u64, distance_bits: u64, switches: f64) {
    let total_switches: f64 = result.switch_counts().iter().sum();
    let total_distance: f64 = result.distance_to_nash.iter().sum();
    assert_eq!(
        result.total_download_megabits().to_bits(),
        download_bits,
        "download drifted: {} ({:#x})",
        result.total_download_megabits(),
        result.total_download_megabits().to_bits()
    );
    assert_eq!(
        total_distance.to_bits(),
        distance_bits,
        "distance series drifted: {total_distance} ({:#x})",
        total_distance.to_bits()
    );
    assert_eq!(total_switches, switches, "switch counts drifted");
}

fn ids(networks: &[NetworkSpec]) -> Vec<NetworkId> {
    networks.iter().map(|n| n.id).collect()
}

#[test]
fn static_smart_exp3_is_pinned() {
    let networks = setting1_networks();
    let home = ids(&networks);
    let devices = (0..8)
        .map(|id| {
            (
                PolicyKind::SmartExp3,
                DeviceProfile::new(id, AreaId(0), home.clone()),
            )
        })
        .collect();
    let result = run_world(
        networks,
        Topology::single_area(&home),
        Vec::new(),
        devices,
        SimulationConfig::default(),
        77,
        150,
    );
    assert_golden(&result, 0x40f08f07c40b3350, 0x40c302aaaaaaaaab, 246.0);
}

#[test]
fn mobility_with_mixed_policies_is_pinned() {
    let networks = figure1_networks();
    let home = ids(&networks);
    let devices = vec![
        (
            PolicyKind::SmartExp3,
            DeviceProfile::new(0, AreaId(0), home.clone())
                .moving_to(40, AreaId(1))
                .moving_to(80, AreaId(2)),
        ),
        (
            PolicyKind::Exp3,
            DeviceProfile::new(1, AreaId(1), home.clone()),
        ),
        (
            PolicyKind::Greedy,
            DeviceProfile::new(2, AreaId(2), home).active_between(10, Some(100)),
        ),
    ];
    let result = run_world(
        networks,
        Topology::figure1(),
        Vec::new(),
        devices,
        SimulationConfig::default(),
        4,
        120,
    );
    assert_golden(&result, 0x40ed950258981da0, 0x40c0360000000000, 107.0);
}

#[test]
fn events_noisy_sharing_and_full_information_are_pinned() {
    let networks = setting1_networks();
    let home = ids(&networks);
    let devices = (0..6)
        .map(|id| {
            let profile = DeviceProfile::new(id, AreaId(0), home.clone());
            if id < 4 {
                (PolicyKind::FullInformation, profile.with_full_information())
            } else {
                (PolicyKind::SmartExp3, profile)
            }
        })
        .collect();
    let events = vec![
        BandwidthEvent::new(30, NetworkId(2), 2.0),
        BandwidthEvent::new(60, NetworkId(2), 22.0),
    ];
    let result = run_world(
        networks,
        Topology::single_area(&home),
        events,
        devices,
        SimulationConfig {
            sharing: SharingModel::testbed(),
            ..SimulationConfig::default()
        },
        13,
        90,
    );
    assert_golden(&result, 0x40db2477b15de91d, 0x40d6081e29e1ac51, 274.0);
}

/// The event-burst world of the restore-mid-burst pin: same-slot bursts at
/// slot 10, single events at 12 and 14, recoveries at 20 — a schedule dense
/// enough that an off-by-one in the restored `EventSchedule` cursor (an
/// event replayed, or one skipped) is guaranteed to change the bandwidth
/// trajectory and thus the recorded gains.
fn burst_world(threads: usize) -> (FleetEngine, CongestionEnvironment) {
    let networks = setting1_networks();
    let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
    let rates: Vec<(NetworkId, f64)> = networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
    let mut factory = PolicyFactory::new(rates).unwrap();
    let mut fleet = FleetEngine::new(
        FleetConfig::with_root_seed(404)
            .with_threads(threads)
            .with_shard_size(3),
    );
    fleet
        .add_fleet(&mut factory, PolicyKind::SmartExp3, 10)
        .unwrap();
    let profiles = (0..10)
        .map(|id| DeviceProfile::new(id, AreaId(0), ids.clone()))
        .collect();
    let events = vec![
        BandwidthEvent::new(10, NetworkId(2), 2.0),
        BandwidthEvent::new(10, NetworkId(1), 1.0),
        BandwidthEvent::new(12, NetworkId(0), 0.5),
        BandwidthEvent::new(14, NetworkId(2), 8.0),
        BandwidthEvent::new(20, NetworkId(1), 7.0),
        BandwidthEvent::new(20, NetworkId(2), 22.0),
    ];
    let env = CongestionEnvironment::new(
        setting1_networks(),
        Topology::single_area(&ids),
        events,
        profiles,
        SimulationConfig::default(),
        7,
    );
    (fleet, env)
}

/// Fingerprint that ignores the parallelism knobs (they are part of the
/// snapshot but must never affect the trajectory).
fn burst_fingerprint(fleet: &FleetEngine) -> (String, u64) {
    let mut snapshot = fleet.snapshot().expect("distributed fleets snapshot");
    snapshot.config.threads = None;
    snapshot.config.shard_size = 0;
    let gains: f64 = snapshot.sessions.iter().map(|s| s.gain).sum();
    (
        serde_json::to_string(&snapshot).expect("snapshots serialize"),
        gains.to_bits(),
    )
}

#[test]
fn restore_mid_burst_neither_replays_nor_skips_events() {
    // Uninterrupted reference: 40 slots through the burst schedule.
    let (mut reference, mut reference_env) = burst_world(1);
    reference.run_env(&mut reference_env, 40);
    let (expected_json, expected_gain_bits) = burst_fingerprint(&reference);
    // Golden pin (exact f64 bit pattern of the summed scaled gains): any
    // replayed or skipped bandwidth event changes shares and thus this sum.
    assert_eq!(
        expected_gain_bits,
        0x40463a2e8ba2e8ba,
        "burst-world trajectory drifted: gains {}",
        f64::from_bits(expected_gain_bits)
    );

    // Snapshot mid-schedule, between the slot-10 burst and the slot-12/14
    // events, then restore two ways and finish the run.
    let (mut interrupted, mut interrupted_env) = burst_world(2);
    interrupted.run_env(&mut interrupted_env, 11);
    let snapshot = interrupted.snapshot_env(&interrupted_env).unwrap();

    // (a) Into a freshly built world.
    let (_, mut fresh_env) = burst_world(8);
    let mut resumed = FleetEngine::from_snapshot_env(snapshot.clone(), &mut fresh_env).unwrap();
    resumed.run_env(&mut fresh_env, 40 - 11);
    assert_eq!(
        burst_fingerprint(&resumed).0,
        expected_json,
        "restore into a fresh world replayed or skipped an event"
    );

    // (b) Back into the world that already ran past the checkpoint (the
    // event cursor must rewind so the slot-12/14/20 events fire again,
    // exactly once each).
    interrupted.run_env(&mut interrupted_env, 15);
    let mut rewound = FleetEngine::from_snapshot_env(snapshot, &mut interrupted_env).unwrap();
    rewound.run_env(&mut interrupted_env, 40 - 11);
    assert_eq!(
        burst_fingerprint(&rewound).0,
        expected_json,
        "restore into an already-advanced world replayed or skipped an event"
    );
}
