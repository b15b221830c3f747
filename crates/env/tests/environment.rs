//! Environment-layer integration tests:
//!
//! * environment-driven runs are **bit-identical at 1/2/8 threads** (and
//!   across shard sizes);
//! * a mid-scenario snapshot/restore round-trips **bit-identically**,
//!   including pending `BandwidthEvent`s, mobility state and the
//!   environment RNG;
//! * a Figure-1 world with mobility, activity windows and a bandwidth event,
//!   stepped by rng-free policies, reproduces a pinned run bit for bit.

use netsim::{
    figure1_networks, AreaId, BandwidthEvent, CongestionEnvironment, DeviceProfile, RunResult,
    SimulationConfig, Topology,
};
use rand::RngCore;
use smartexp3_core::{
    Environment, NetworkId, Observation, PartitionExecutor, Policy, PolicyKind, PolicyStats,
    SamplerStrategy, SessionRange, SessionView, SlotIndex,
};
use smartexp3_engine::{FleetConfig, FleetEngine, SnapshotError, WakeEntry};
use smartexp3_env::{
    area_mobility, cooperative, dense_duty_cycle, dense_urban, duty_cycle, dynamic_bandwidth,
    equal_share, trace_driven, DenseUrbanConfig, DutyCycleConfig, GossipConfig, Scenario,
};

fn scenario_fingerprint(scenario: &Scenario) -> String {
    // Parallelism knobs are part of the snapshot but must never affect the
    // trajectory; normalise them so the fingerprint compares pure state. The
    // wake queue is stripped too: it records *scheduling* state (primed only
    // on the event-driven path), so sync-vs-event comparisons normalise it
    // away and compare session states, RNG streams and the clock — tests
    // that care about the queue itself compare `wake_queue` directly.
    let mut snapshot = scenario
        .fleet
        .snapshot()
        .expect("distributed fleets snapshot");
    snapshot.config.threads = None;
    snapshot.config.shard_size = 0;
    snapshot.wake_queue = None;
    serde_json::to_string(&snapshot).expect("snapshots serialize")
}

fn build(threads: usize, world: &str) -> Scenario {
    build_config(
        FleetConfig::with_root_seed(42)
            .with_threads(threads)
            .with_shard_size(16),
        world,
    )
}

fn build_config(config: FleetConfig, world: &str) -> Scenario {
    match world {
        "equal_share" => equal_share(180, PolicyKind::SmartExp3, config).unwrap(),
        "dynamic_bandwidth" => {
            dynamic_bandwidth(180, PolicyKind::SmartExp3, config, 10, 25).unwrap()
        }
        "area_mobility" => area_mobility(120, PolicyKind::SmartExp3, config, 12, 24).unwrap(),
        "trace_driven" => trace_driven(150, PolicyKind::SmartExp3, config, 80).unwrap(),
        // Probabilistic push so the per-area gossip RNG streams are actually
        // consumed — thread identity and snapshot round-trips must cover them.
        "cooperative" => {
            cooperative(180, PolicyKind::SmartExp3, config, GossipConfig::push(0.4)).unwrap()
        }
        // Large-K world on the linear sampler (the alias matrix covers the
        // same world under Alias): covers the O(K) walk at large K and the
        // sharded `begin_slot` refresh under the thread-identity and
        // snapshot-round-trip matrices.
        "dense_urban" => dense_urban(
            48,
            PolicyKind::Exp3,
            config,
            DenseUrbanConfig {
                networks_per_area: 96,
                devices_per_area: 16,
                sampler: SamplerStrategy::Linear,
            },
        )
        .unwrap(),
        other => panic!("unknown world {other}"),
    }
}

#[test]
fn every_world_is_bit_identical_at_any_thread_count() {
    for world in [
        "equal_share",
        "dynamic_bandwidth",
        "area_mobility",
        "trace_driven",
        "cooperative",
        "dense_urban",
    ] {
        let mut reference = build(1, world);
        assert!(
            reference.environment.feedback_partitions().is_some(),
            "{world} must advertise feedback partitions"
        );
        reference.run(40);
        let expected = scenario_fingerprint(&reference);
        for threads in [2, 8] {
            let mut scenario = build(threads, world);
            scenario.run(40);
            assert_eq!(
                scenario_fingerprint(&scenario),
                expected,
                "{world} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn uniform_cadence_event_stepping_is_bit_identical_to_sync_on_every_world() {
    // The tentpole correctness anchor: none of the catalog worlds override
    // the wake protocol, so every session runs the default uniform cadence 1
    // and `step_events` must reproduce `step_env` bit-for-bit — same
    // choices, same RNG streams, same environment state — at 1/2/8 threads,
    // with sequential (1 thread) and partitioned feedback.
    for world in [
        "equal_share",
        "dynamic_bandwidth",
        "area_mobility",
        "trace_driven",
        "cooperative",
        "dense_urban",
    ] {
        let mut reference = build(1, world);
        reference.run(40);
        let expected = scenario_fingerprint(&reference);
        let expected_env = reference.environment.state();
        let event_configs = [
            FleetConfig::with_root_seed(42)
                .with_threads(1)
                .with_shard_size(16),
            FleetConfig::with_root_seed(42)
                .with_threads(2)
                .with_shard_size(16),
            FleetConfig::with_root_seed(42)
                .with_threads(8)
                .with_shard_size(16),
        ];
        for (index, config) in event_configs.into_iter().enumerate() {
            let mut scenario = build_config(config, world);
            scenario.fleet.run_until(scenario.environment.as_mut(), 40);
            assert_eq!(scenario.fleet.slot(), 40, "{world} clock, config {index}");
            assert_eq!(
                scenario_fingerprint(&scenario),
                expected,
                "{world} event stepping diverged from sync (config {index})"
            );
            assert_eq!(
                scenario.environment.state(),
                expected_env,
                "{world} environment state diverged under event stepping (config {index})"
            );
        }
    }
}

fn build_duty_cycle(config: FleetConfig) -> Scenario {
    duty_cycle(
        180,
        PolicyKind::SmartExp3,
        config,
        DutyCycleConfig {
            cadences: vec![1, 2, 4, 8],
            burst_period: 10,
            horizon_slots: 60,
            ..DutyCycleConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn duty_cycle_trajectories_are_identical_at_any_thread_count() {
    let mut reference = build_duty_cycle(
        FleetConfig::with_root_seed(42)
            .with_threads(1)
            .with_shard_size(16),
    );
    reference
        .fleet
        .run_until(reference.environment.as_mut(), 40);
    let expected = scenario_fingerprint(&reference);
    let expected_queue = reference.fleet.snapshot().unwrap().wake_queue;
    let expected_env = reference.environment.state();
    assert!(expected_queue.is_some(), "event runs prime the queue");
    for config in [
        FleetConfig::with_root_seed(42)
            .with_threads(2)
            .with_shard_size(16),
        FleetConfig::with_root_seed(42)
            .with_threads(8)
            .with_shard_size(16),
        // Cohorts sliced at every shard edge (one session per shard), cut
        // mid-cadence-group (5 is coprime to the 4-cadence round-robin), and
        // held whole inside a single shard.
        FleetConfig::with_root_seed(42)
            .with_threads(2)
            .with_shard_size(1),
        FleetConfig::with_root_seed(42)
            .with_threads(2)
            .with_shard_size(5),
        FleetConfig::with_root_seed(42)
            .with_threads(2)
            .with_shard_size(1024),
    ] {
        let mut scenario = build_duty_cycle(config);
        scenario.fleet.run_until(scenario.environment.as_mut(), 40);
        assert_eq!(scenario_fingerprint(&scenario), expected);
        assert_eq!(
            scenario.fleet.snapshot().unwrap().wake_queue,
            expected_queue
        );
        assert_eq!(scenario.environment.state(), expected_env);
    }
}

/// The alias-sampler worlds of the bit-identity matrix: the large-K dense
/// blocks, the bursty duty-cycle areas (sleep phases are exactly the
/// static-weight intervals the overlay must survive), and their composition.
fn build_alias_world(config: FleetConfig, world: &str) -> Scenario {
    match world {
        "dense_urban" => dense_urban(
            48,
            PolicyKind::Exp3,
            config,
            DenseUrbanConfig {
                networks_per_area: 96,
                devices_per_area: 16,
                sampler: SamplerStrategy::Alias,
            },
        )
        .unwrap(),
        "duty_cycle" => duty_cycle(
            120,
            PolicyKind::SmartExp3,
            config,
            DutyCycleConfig {
                cadences: vec![1, 2, 4, 8],
                burst_period: 10,
                horizon_slots: 60,
                sampler: SamplerStrategy::Alias,
            },
        )
        .unwrap(),
        "dense_duty_cycle" => dense_duty_cycle(
            32,
            PolicyKind::SmartExp3,
            config,
            DenseUrbanConfig {
                networks_per_area: 64,
                devices_per_area: 8,
                sampler: SamplerStrategy::Alias,
            },
            DutyCycleConfig {
                cadences: vec![2, 4, 8],
                burst_period: 10,
                horizon_slots: 60,
                ..DutyCycleConfig::default()
            },
        )
        .unwrap(),
        other => panic!("unknown alias world {other}"),
    }
}

#[test]
fn alias_sampler_trajectories_are_bit_identical_at_any_thread_count() {
    // The tentpole determinism anchor: overlay patches, dirty-mass rebuild
    // triggers and the sampler counters are all structural (driven by the
    // per-session update stream), so alias runs must be bit-identical at any
    // thread count, with sequential (1 thread) and partitioned feedback —
    // on the sync path and the event-driven path alike.
    for world in ["dense_urban", "duty_cycle", "dense_duty_cycle"] {
        let mut reference = build_alias_world(
            FleetConfig::with_root_seed(42)
                .with_threads(1)
                .with_shard_size(16),
            world,
        );
        reference
            .fleet
            .run_until(reference.environment.as_mut(), 40);
        let expected = scenario_fingerprint(&reference);
        let expected_env = reference.environment.state();
        for (index, config) in [
            FleetConfig::with_root_seed(42)
                .with_threads(2)
                .with_shard_size(16),
            FleetConfig::with_root_seed(42)
                .with_threads(8)
                .with_shard_size(16),
        ]
        .into_iter()
        .enumerate()
        {
            let mut scenario = build_alias_world(config, world);
            scenario.fleet.run_until(scenario.environment.as_mut(), 40);
            assert_eq!(
                scenario_fingerprint(&scenario),
                expected,
                "{world} alias run diverged (config {index})"
            );
            assert_eq!(
                scenario.environment.state(),
                expected_env,
                "{world} environment diverged under alias (config {index})"
            );
        }
        // The alias path genuinely ran: at least one table freeze per world.
        let metrics = reference.fleet.metrics();
        let stats = metrics
            .kind(PolicyKind::Exp3)
            .or_else(|| metrics.kind(PolicyKind::SmartExp3))
            .expect("alias worlds host an EXP3-family fleet");
        assert!(
            stats.policy.sampler_rebuilds > 0,
            "{world}: no alias rebuilds recorded"
        );
    }
}

#[test]
fn sampler_strategy_survives_snapshot_round_trips() {
    // Both strategies must round-trip through `FleetSnapshot` — the
    // serialized policy state carries the strategy and, for Alias, the
    // frozen table, overlay and counters — and continue bit-identically when
    // restored at a different thread count.
    for sampler in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
        let dense = DenseUrbanConfig {
            networks_per_area: 96,
            devices_per_area: 16,
            sampler,
        };
        let mut original = dense_urban(
            48,
            PolicyKind::Exp3,
            FleetConfig::with_root_seed(42)
                .with_threads(2)
                .with_shard_size(16),
            dense,
        )
        .unwrap();
        original.run(15);
        let snapshot = original
            .fleet
            .snapshot_env(original.environment.as_ref())
            .unwrap();
        original.run(25);
        let expected = scenario_fingerprint(&original);

        let mut resumed = dense_urban(
            48,
            PolicyKind::Exp3,
            FleetConfig::with_root_seed(42)
                .with_threads(8)
                .with_shard_size(16),
            dense,
        )
        .unwrap();
        resumed.fleet =
            FleetEngine::from_snapshot_env(snapshot, resumed.environment.as_mut()).unwrap();
        resumed.run(25);
        assert_eq!(
            scenario_fingerprint(&resumed),
            expected,
            "{sampler:?} diverged after snapshot/restore"
        );
    }
}

#[test]
fn mid_queue_snapshots_restore_the_event_schedule_bit_exactly() {
    // Checkpoint an event-driven run while the wake queue holds pending
    // cohorts from every cadence group (1/2/4/8) and two bandwidth events
    // are still unconsumed (bursts at 20/25 and 30/35), then prove the
    // restored pair — remaining queue, per-session RNG streams and env
    // event cursor — continues bit-exactly without re-priming.
    let build = |config: FleetConfig| {
        duty_cycle(
            180,
            PolicyKind::SmartExp3,
            config,
            DutyCycleConfig {
                cadences: vec![1, 2, 4, 8],
                burst_period: 20,
                horizon_slots: 60,
                ..DutyCycleConfig::default()
            },
        )
        .unwrap()
    };
    let mut original = build(
        FleetConfig::with_root_seed(42)
            .with_threads(2)
            .with_shard_size(16),
    );
    original.fleet.run_until(original.environment.as_mut(), 13);
    let snapshot = original
        .fleet
        .snapshot_env(original.environment.as_ref())
        .expect("duty-cycle worlds checkpoint");
    let queue = snapshot.wake_queue.as_ref().expect("queue primed");
    assert_eq!(queue.len(), 180, "every session has one pending wake");
    // The queue spans multiple timestamps: cadence-1 sessions are due at 13,
    // cadence-8 stragglers well past it.
    let wakes: Vec<usize> = queue.iter().map(|e| e.wake).collect();
    assert!(wakes.contains(&13));
    assert!(wakes.iter().any(|&w| w > 14));

    original.fleet.run_until(original.environment.as_mut(), 45);
    let expected = scenario_fingerprint(&original);
    let expected_queue = original.fleet.snapshot().unwrap().wake_queue;
    let expected_env = original.environment.state();

    // Restore at a different thread count; the recorded queue must be used
    // as-is (no re-priming), so the continuation is bit-identical.
    let mut resumed = build(
        FleetConfig::with_root_seed(42)
            .with_threads(8)
            .with_shard_size(16),
    );
    resumed.fleet = FleetEngine::from_snapshot_env(snapshot, resumed.environment.as_mut()).unwrap();
    resumed.fleet.run_until(resumed.environment.as_mut(), 45);
    assert_eq!(scenario_fingerprint(&resumed), expected);
    assert_eq!(resumed.fleet.snapshot().unwrap().wake_queue, expected_queue);
    assert_eq!(resumed.environment.state(), expected_env);
}

/// A cadence of `usize::MAX` used to overflow the default `next_wake`: a
/// debug build panicked on the second event step, and a release build
/// wrapped and woke sessions every slot. The wake now saturates, so each
/// session decides at its first wake and never again.
#[test]
fn a_saturating_wake_cadence_decides_once() {
    let build = || {
        let duty = DutyCycleConfig {
            cadences: vec![usize::MAX],
            burst_period: 0,
            horizon_slots: 0,
            sampler: SamplerStrategy::Linear,
        };
        let config = FleetConfig::with_root_seed(1).with_threads(1);
        duty_cycle(4, PolicyKind::SmartExp3, config, duty).unwrap()
    };
    let mut stepped = build();
    for slot in 0..4 {
        assert_eq!(
            stepped.fleet.step_events(stepped.environment.as_mut()),
            Some(slot)
        );
    }
    assert_eq!(
        stepped.fleet.step_events(stepped.environment.as_mut()),
        None
    );
    assert_eq!(stepped.fleet.metrics().decisions, 4);
    for session in 0..4 {
        assert_eq!(stepped.fleet.policy(session).unwrap().stats().blocks, 1);
    }

    // The parked wakes round-trip through a checkpoint.
    let snapshot = stepped
        .fleet
        .snapshot_env(stepped.environment.as_ref())
        .unwrap();
    let queue = snapshot.wake_queue.as_ref().expect("queue primed");
    assert!(queue.iter().all(|entry| entry.wake == SlotIndex::MAX));
    let text = snapshot.to_json().unwrap();
    let mut resumed = build();
    resumed.fleet = FleetEngine::from_snapshot_env(snapshot, resumed.environment.as_mut()).unwrap();
    let resumed_text = resumed
        .fleet
        .snapshot_env(resumed.environment.as_ref())
        .unwrap()
        .to_json()
        .unwrap();
    assert_eq!(resumed_text, text);
    assert_eq!(
        resumed.fleet.step_events(resumed.environment.as_mut()),
        None
    );

    let mut fresh = build();
    fresh.fleet.run_until(fresh.environment.as_mut(), 50);
    assert_eq!(fresh.fleet.metrics().decisions, 4);
    assert_eq!(fresh.fleet.last_choices(), stepped.fleet.last_choices());
}

#[test]
fn malformed_wake_queues_are_rejected_on_restore() {
    // A restored queue must hold exactly one entry per session, none due
    // before the snapshot's slot: a duplicate would make a session decide
    // twice in one timestamp, and a wake in the past would move the clock
    // backwards. Each edit must end in a typed error — never a panic or a
    // silently wrong schedule — and leave the target world untouched.
    let build = || {
        duty_cycle(
            40,
            PolicyKind::SmartExp3,
            FleetConfig::with_root_seed(42)
                .with_threads(2)
                .with_shard_size(16),
            DutyCycleConfig {
                cadences: vec![1, 2, 4, 8],
                burst_period: 10,
                horizon_slots: 60,
                ..DutyCycleConfig::default()
            },
        )
        .unwrap()
    };
    let mut original = build();
    original.fleet.run_until(original.environment.as_mut(), 5);
    let snapshot = original
        .fleet
        .snapshot_env(original.environment.as_ref())
        .unwrap();
    assert_eq!(snapshot.wake_queue.as_ref().map(Vec::len), Some(40));
    type QueueEdit = fn(&mut Vec<WakeEntry>);
    let edits: [(&str, QueueEdit); 4] = [
        ("a duplicated entry", |queue| queue.push(queue[0])),
        ("an out-of-range session", |queue| queue[0].session = 40),
        ("a missing session", |queue| {
            queue.pop();
        }),
        ("a wake before the slot", |queue| queue[0].wake = 4),
    ];
    for (what, edit) in edits {
        let mut broken = snapshot.clone();
        edit(broken.wake_queue.as_mut().unwrap());
        let mut target = build();
        let untouched = target.environment.state();
        match FleetEngine::from_snapshot_env(broken, target.environment.as_mut()) {
            Err(SnapshotError::Malformed(message)) => {
                assert!(message.contains("wake queue"), "{what}: {message}");
            }
            other => panic!("{what}: expected a malformed snapshot, got {other:?}"),
        }
        assert_eq!(
            target.environment.state(),
            untouched,
            "{what}: the rejected restore touched the world"
        );
    }
    let mut target = build();
    assert!(FleetEngine::from_snapshot_env(snapshot, target.environment.as_mut()).is_ok());
}

#[test]
fn snapshots_of_another_session_count_are_rejected_on_restore() {
    // A 100-device snapshot with its last session spliced out is
    // self-consistent (a session's id is its index), so it used to restore
    // into a fresh 100-device world and panic on the first step. It must
    // end in a typed error and leave the world untouched.
    let build = || equal_share(100, PolicyKind::SmartExp3, FleetConfig::with_root_seed(5)).unwrap();
    let mut original = build();
    original.run(3);
    let mut spliced = original
        .fleet
        .snapshot_env(original.environment.as_ref())
        .unwrap();
    spliced.sessions.pop();
    let mut target = build();
    let untouched = target.environment.state();
    match FleetEngine::from_snapshot_env(spliced, target.environment.as_mut()) {
        Err(SnapshotError::Environment(message)) => {
            assert!(message.contains("99 sessions"), "{message}");
        }
        other => panic!("expected an environment error, got {other:?}"),
    }
    assert_eq!(target.environment.state(), untouched);
}

#[test]
fn mid_scenario_snapshots_restore_bit_identically() {
    // Snapshot each world mid-run — before the dynamic-bandwidth recovery
    // event fires, mid-walk for the mobility world, and with live gossip
    // digests plus partially consumed per-area gossip RNG streams for the
    // cooperative world — so pending events, mobility state and gossip state
    // must all survive the round-trip.
    for world in [
        "dynamic_bandwidth",
        "area_mobility",
        "trace_driven",
        "cooperative",
        "dense_urban",
    ] {
        let mut original = build(2, world);
        original.run(15);
        let snapshot = original
            .fleet
            .snapshot_env(original.environment.as_ref())
            .unwrap_or_else(|error| panic!("{world} snapshot failed: {error}"));
        original.run(25);
        let expected = scenario_fingerprint(&original);

        let mut resumed = build(8, world);
        resumed.fleet =
            FleetEngine::from_snapshot_env(snapshot, resumed.environment.as_mut()).unwrap();
        resumed.run(25);
        assert_eq!(
            scenario_fingerprint(&resumed),
            expected,
            "{world} diverged after snapshot/restore"
        );
    }
}

/// Builds a congestion world with explicit per-area populations (an entry of
/// 0 is an area that exists in the topology but hosts nobody), noisy sharing
/// so every partition consumes RNG draws, and a mixed-policy fleet.
fn degenerate_world(populations: &[usize], config: FleetConfig) -> Scenario {
    use netsim::{NetworkSpec, ServiceArea};
    use smartexp3_core::PolicyFactory;

    let mut networks = Vec::new();
    let mut service_areas = Vec::new();
    let mut profiles = Vec::new();
    let mut fleet = FleetEngine::new(config);
    let mut next_session = 0u32;
    for (area, &population) in populations.iter().enumerate() {
        let base = (area * 3) as u32;
        let specs = vec![
            NetworkSpec::wifi(base, 4.0),
            NetworkSpec::wifi(base + 1, 7.0),
            NetworkSpec::cellular(base + 2, 22.0),
        ];
        let ids: Vec<NetworkId> = specs.iter().map(|n| n.id).collect();
        let rates: Vec<(NetworkId, f64)> = specs.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
        service_areas.push(ServiceArea {
            id: AreaId(area as u32),
            name: format!("area {area}"),
            networks: ids.clone(),
        });
        networks.extend(specs);
        let mut factory = PolicyFactory::new(rates).unwrap();
        fleet
            .add_fleet(&mut factory, PolicyKind::SmartExp3, population)
            .unwrap();
        for _ in 0..population {
            profiles.push(DeviceProfile::new(
                next_session,
                AreaId(area as u32),
                ids.clone(),
            ));
            next_session += 1;
        }
    }
    let seed = fleet.config().environment_seed();
    let environment = CongestionEnvironment::new(
        networks,
        netsim::Topology::new(service_areas),
        Vec::new(),
        profiles,
        SimulationConfig {
            sharing: netsim::SharingModel::testbed(),
            ..SimulationConfig::default()
        },
        seed,
    );
    Scenario {
        name: "degenerate",
        environment: Box::new(environment),
        fleet,
    }
}

#[test]
fn degenerate_partitions_match_the_sequential_fallback_decision_for_decision() {
    // Empty areas, single-session areas, a giant area, and uniform layouts:
    // whatever the partition shape, the sharded feedback phase at 8 threads
    // must equal the sequential fallback exactly. Noisy sharing makes every
    // graded network draw from its partition stream, so any routing error
    // (wrong stream, wrong order, leaked state) changes the trajectory.
    let layouts: [&[usize]; 4] = [
        &[1; 30],                       // thirty single-session areas
        &[60],                          // one giant area
        &[0, 7, 0, 1, 25, 0, 3, 1, 13], // churn: empty areas between odd sizes
        &[10, 10, 10, 10, 10, 10],      // uniform mid-size areas
    ];
    for layout in layouts {
        let mut partitioned = degenerate_world(
            layout,
            FleetConfig::with_root_seed(77)
                .with_threads(8)
                .with_shard_size(4),
        );
        let mut sequential =
            degenerate_world(layout, FleetConfig::with_root_seed(77).with_threads(1));
        partitioned.run(30);
        sequential.run(30);
        assert_eq!(
            scenario_fingerprint(&partitioned),
            scenario_fingerprint(&sequential),
            "layout {layout:?} diverged between sharded and sequential feedback"
        );
        // The environments' dynamic state (partition RNG positions, goodput
        // accounting) must agree bit-for-bit too.
        assert_eq!(
            partitioned.environment.state(),
            sequential.environment.state(),
            "layout {layout:?}: environment state diverged"
        );
    }
}

#[test]
fn mid_phase_snapshot_restores_partition_rng_streams_exactly() {
    // Snapshot an environment *between* the choose and feedback phases of a
    // slot (the environment does not mutate during choose, so its state at
    // that point is exactly what `state()` captures) and prove the restored
    // copy replays the rest of the slot — share noise and switching delays
    // drawn from every partition's own stream — bit-for-bit.
    let mut original = degenerate_world(
        &[5, 1, 9, 0, 4],
        FleetConfig::with_root_seed(11).with_threads(2),
    );
    original.run(12);

    // Slot 12: advance the environment, then checkpoint mid-slot, after the
    // fleet has chosen but before feedback runs.
    let slot = original.fleet.slot();
    let env = original.environment.as_mut();
    env.begin_slot(slot);
    let sessions = env.sessions();
    let state = env
        .state()
        .expect("recorder-less congestion worlds checkpoint");
    let choices: Vec<Option<NetworkId>> = (0..sessions)
        .map(|i| (i % 7 != 6).then(|| NetworkId(((i / 5) * 3 + i % 3) as u32)))
        .collect();
    let mut out_original: Vec<Option<smartexp3_core::Observation>> = vec![None; sessions];
    env.feedback(slot, &choices, &mut out_original);

    // Restore into a freshly built world and replay the same feedback.
    let mut resumed = degenerate_world(
        &[5, 1, 9, 0, 4],
        FleetConfig::with_root_seed(11).with_threads(8),
    );
    resumed
        .environment
        .restore(&state)
        .expect("mid-phase state restores");
    let mut out_resumed: Vec<Option<smartexp3_core::Observation>> = vec![None; sessions];
    resumed
        .environment
        .feedback(slot, &choices, &mut out_resumed);

    for (session, (a, b)) in out_original.iter().zip(&out_resumed).enumerate() {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.bit_rate_mbps.to_bits(),
                    b.bit_rate_mbps.to_bits(),
                    "session {session}: share bits diverged after mid-phase restore"
                );
                assert_eq!(
                    a.switching_delay_s.to_bits(),
                    b.switching_delay_s.to_bits(),
                    "session {session}: delay bits diverged after mid-phase restore"
                );
            }
            other => panic!("session {session}: presence diverged: {other:?}"),
        }
    }
    // And the partition streams keep agreeing on every later slot.
    for offset in 1..6 {
        let slot = slot + offset;
        original.environment.begin_slot(slot);
        resumed.environment.begin_slot(slot);
        original
            .environment
            .feedback(slot, &choices, &mut out_original);
        resumed
            .environment
            .feedback(slot, &choices, &mut out_resumed);
    }
    assert_eq!(
        original.environment.state(),
        resumed.environment.state(),
        "partition RNG streams drifted after the mid-phase restore"
    );
}

#[test]
fn snapshots_without_environment_state_are_rejected() {
    let mut scenario = build(1, "equal_share");
    scenario.run(2);
    let bare = scenario.fleet.snapshot().unwrap();
    let error = FleetEngine::from_snapshot_env(bare, scenario.environment.as_mut())
        .expect_err("restore must fail without environment state");
    assert!(error.to_string().contains("environment"));
}

/// Forwards the stepping calls to the world it wraps and checks every
/// observation that world delivers for counterfactual gains: one per visible
/// network, `networks` of them, the chosen one among them.
struct FullGainsSpy {
    inner: Box<dyn Environment>,
    networks: usize,
    observations: u64,
    with_full_gains: u64,
}

impl FullGainsSpy {
    fn count(&mut self, choices: &[Option<NetworkId>], out: &[Option<Observation>]) {
        for (choice, observation) in choices.iter().zip(out) {
            let Some(observation) = choice.and(observation.as_ref()) else {
                continue;
            };
            self.observations += 1;
            if observation.full_gains.as_ref().is_some_and(|gains| {
                gains.len() == self.networks
                    && gains
                        .iter()
                        .any(|&(network, _)| network == observation.network)
            }) {
                self.with_full_gains += 1;
            }
        }
    }
}

impl Environment for FullGainsSpy {
    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        self.inner.begin_slot(slot);
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        self.inner.begin_slot_partitioned(slot, executor);
    }

    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_> {
        self.inner.session_view(session, slot)
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        self.inner.feedback(slot, choices, out);
        self.count(choices, out);
    }

    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        self.inner.feedback_partitions()
    }

    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        self.inner
            .feedback_partitioned(slot, choices, out, executor);
        self.count(choices, out);
    }

    fn wants_top_choices(&self) -> bool {
        self.inner.wants_top_choices()
    }

    fn end_slot(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        tops: &[Option<(NetworkId, f64)>],
    ) {
        self.inner.end_slot(slot, choices, tops);
    }
}

#[test]
fn full_information_scenarios_deliver_one_gain_per_visible_network() {
    // The scenario builders used to leave the full-information flag off
    // every device profile, so a FullInformation fleet silently fell back to
    // updating only the arm it chose.
    type Build = fn(FleetConfig) -> Scenario;
    let worlds: [(&str, usize, Build); 2] = [
        ("equal_share", 3, |config| {
            equal_share(200, PolicyKind::FullInformation, config).unwrap()
        }),
        ("dense_urban", 32, |config| {
            let dense = DenseUrbanConfig {
                networks_per_area: 32,
                devices_per_area: 16,
                sampler: SamplerStrategy::Linear,
            };
            dense_urban(48, PolicyKind::FullInformation, config, dense).unwrap()
        }),
    ];
    for (world, networks, build) in worlds {
        let mut trajectories = Vec::new();
        for threads in [1, 2] {
            let mut scenario = build(
                FleetConfig::with_root_seed(8)
                    .with_threads(threads)
                    .with_shard_size(16),
            );
            let mut spy = FullGainsSpy {
                inner: scenario.environment,
                networks,
                observations: 0,
                with_full_gains: 0,
            };
            scenario.fleet.run_env(&mut spy, 20);
            assert_eq!(
                spy.observations,
                20 * scenario.fleet.len() as u64,
                "{world} at {threads} threads"
            );
            assert_eq!(
                spy.with_full_gains, spy.observations,
                "{world} at {threads} threads: observations without full gains"
            );
            scenario.environment = spy.inner;
            trajectories.push((
                scenario_fingerprint(&scenario),
                scenario.environment.state(),
            ));
        }
        assert_eq!(
            trajectories[0], trajectories[1],
            "{world} diverged at 2 threads"
        );
    }
}

/// A deterministic (rng-free) policy: explores its networks once in sorted
/// order, then sticks to the best empirical mean (ties to the lowest id).
struct DeterministicBest {
    networks: Vec<NetworkId>,
    totals: Vec<(NetworkId, f64, u64)>,
    cursor: usize,
    stats: PolicyStats,
    last: Option<NetworkId>,
}

impl DeterministicBest {
    fn new(mut networks: Vec<NetworkId>) -> Self {
        networks.sort();
        DeterministicBest {
            totals: networks.iter().map(|&n| (n, 0.0, 0)).collect(),
            networks,
            cursor: 0,
            stats: PolicyStats::default(),
            last: None,
        }
    }

    fn target(&self) -> NetworkId {
        if self.cursor < self.networks.len() {
            self.networks[self.cursor]
        } else {
            self.totals
                .iter()
                .map(|&(n, gain, slots)| (n, if slots == 0 { 0.0 } else { gain / slots as f64 }))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(n, _)| n)
                .expect("at least one network")
        }
    }
}

impl Policy for DeterministicBest {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Greedy
    }

    fn choose(&mut self, _slot: SlotIndex, _rng: &mut dyn RngCore) -> NetworkId {
        let chosen = self.target();
        if self.cursor < self.networks.len() {
            self.cursor += 1;
            self.stats.explorations += 1;
        } else {
            self.stats.greedy_selections += 1;
        }
        if self.last.is_some_and(|previous| previous != chosen) {
            self.stats.switches += 1;
        }
        self.last = Some(chosen);
        self.stats.blocks += 1;
        chosen
    }

    fn observe(&mut self, observation: &Observation, _rng: &mut dyn RngCore) {
        if let Some(entry) = self
            .totals
            .iter_mut()
            .find(|(n, _, _)| *n == observation.network)
        {
            entry.1 += observation.scaled_gain;
            entry.2 += 1;
        }
    }

    fn on_networks_changed(&mut self, available: &[NetworkId], _rng: &mut dyn RngCore) {
        self.networks = available.to_vec();
        self.networks.sort();
        self.totals.retain(|(n, _, _)| self.networks.contains(n));
        for &network in &self.networks {
            if !self.totals.iter().any(|(n, _, _)| *n == network) {
                self.totals.push((network, 0.0, 0));
            }
        }
        self.totals.sort_by_key(|&(n, _, _)| n);
        self.cursor = 0;
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        let target = self.target();
        self.networks
            .iter()
            .map(|&n| (n, if n == target { 1.0 } else { 0.0 }))
            .collect()
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// (id, start area, moves, active_from, active_until)
type PinnedDevice = (u32, AreaId, Vec<(usize, AreaId)>, usize, Option<usize>);

/// The pinned world's population: walkers, stayers and activity windows on
/// the Figure-1 map.
fn pinned_devices() -> Vec<PinnedDevice> {
    vec![
        (
            0,
            AreaId(0),
            vec![(20, AreaId(1)), (40, AreaId(2))],
            0,
            None,
        ),
        (1, AreaId(0), vec![], 0, None),
        (2, AreaId(1), vec![(30, AreaId(0))], 0, None),
        (3, AreaId(1), vec![], 10, Some(50)),
        (4, AreaId(2), vec![], 0, None),
        (5, AreaId(2), vec![(25, AreaId(0))], 5, None),
    ]
}

/// FNV-style digest of everything a recorder-equipped run reports: every
/// selection record, the distance series, each device's accounting and the
/// stable slot.
fn run_digest(result: &RunResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(0x0100_0000_01b3);
    for slot in result.selections.iter().flatten() {
        for record in slot {
            mix(u64::from(record.device.0));
            mix(u64::from(record.network.0));
            mix(record.rate_mbps.to_bits());
            mix(u64::from(record.top_choice.0 .0));
            mix(record.top_choice.1.to_bits());
        }
        mix(u64::MAX);
    }
    for distance in &result.distance_to_nash {
        mix(distance.to_bits());
    }
    for device in &result.devices {
        mix(device.switches);
        mix(device.active_slots as u64);
        mix(device.download_megabits.to_bits());
    }
    mix(result.stable_slot.map_or(u64::MAX, |slot| slot as u64));
    hash
}

#[test]
fn figure1_world_with_deterministic_policies_is_pinned() {
    // The policies draw no randomness, so the pin fixes the world's own
    // logic: visibility, activity windows, the bandwidth event, sharing,
    // delays and the recorder's input.
    let topology = Topology::figure1();
    let mut profiles = Vec::new();
    let mut fleet = FleetEngine::new(
        FleetConfig::with_root_seed(999)
            .with_threads(2)
            .with_shard_size(2),
    );
    for (id, area, moves, from, until) in pinned_devices() {
        let mut profile =
            DeviceProfile::new(id, area, topology.networks_in(area)).active_between(from, until);
        for (slot, destination) in moves {
            profile = profile.moving_to(slot, destination);
        }
        profiles.push(profile);
        fleet.add_session(Box::new(DeterministicBest::new(topology.networks_in(area))));
    }
    let mut env = CongestionEnvironment::new(
        figure1_networks(),
        topology,
        vec![BandwidthEvent::new(35, NetworkId(2), 1.0)],
        profiles,
        SimulationConfig {
            keep_selections: true,
            ..SimulationConfig::default()
        },
        7,
    )
    .with_recorder();
    fleet.run_env(&mut env, 60);
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
    let result = env.into_result(outcomes).expect("recorder attached");

    assert_eq!(result.slots, 60);
    assert_eq!(
        result.switch_counts(),
        vec![8.0, 5.0, 18.0, 2.0, 2.0, 5.0],
        "switches drifted"
    );
    assert_eq!(result.stable_slot, Some(57));
    assert_eq!(result.fraction_time_at_nash.to_bits(), 0x3f91111111111111);
    assert_eq!(
        result.distance_to_nash.iter().sum::<f64>().to_bits(),
        0x40a6c95555555555,
        "distance series drifted"
    );
    assert_eq!(
        result.total_download_megabits().to_bits(),
        0x40e1d1825d5b790a,
        "download drifted"
    );
    assert_eq!(
        run_digest(&result),
        0x01a7ebb092890fef,
        "selections or accounting drifted"
    );
}
