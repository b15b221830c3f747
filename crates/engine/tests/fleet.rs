//! Fleet-engine guarantees: thread-count determinism, bit-identical
//! snapshot/restore, and graceful handling of environments that deactivate
//! sessions mid-slot.

use smartexp3_core::{
    Environment, NetworkId, Observation, PolicyFactory, PolicyKind, SessionView, SlotIndex,
};
use smartexp3_engine::{FleetConfig, FleetEngine, SnapshotError, StepContext};

fn rates() -> Vec<(NetworkId, f64)> {
    netsim::setting1_networks()
        .iter()
        .map(|n| (n.id, n.bandwidth_mbps))
        .collect()
}

fn mixed_fleet(config: FleetConfig, sessions: usize) -> FleetEngine {
    let mut factory = PolicyFactory::new(rates()).unwrap();
    let mut fleet = FleetEngine::new(config);
    for kind in [
        PolicyKind::SmartExp3,
        PolicyKind::Exp3,
        PolicyKind::Greedy,
        PolicyKind::FixedRandom,
    ] {
        fleet.add_fleet(&mut factory, kind, sessions / 4).unwrap();
    }
    fleet
}

/// Congestion feedback: every session choosing network `n` receives an equal
/// share of `n`'s bandwidth (the paper's sharing model), so sessions couple
/// and the two-phase API is required.
fn run_congestion(config: FleetConfig, sessions: usize, slots: usize) -> FleetEngine {
    let bandwidth: Vec<(NetworkId, f64)> = rates();
    let mut fleet = mixed_fleet(config, sessions);
    for _ in 0..slots {
        let slot = fleet.slot();
        let choices = fleet.choose_all().to_vec();
        let mut counts = std::collections::BTreeMap::new();
        for &chosen in &choices {
            *counts.entry(chosen).or_insert(0usize) += 1;
        }
        let observations: Vec<Observation> = choices
            .iter()
            .map(|&chosen| {
                let capacity = bandwidth
                    .iter()
                    .find(|(n, _)| *n == chosen)
                    .map(|(_, mbps)| *mbps)
                    .unwrap_or(0.0);
                let share = capacity / counts[&chosen] as f64;
                Observation::bandit(slot, chosen, share, (share / 22.0).min(1.0))
            })
            .collect();
        fleet.observe_all(&observations);
    }
    fleet
}

fn independent_feedback(ctx: &mut StepContext<'_>) -> Observation {
    let gain = if ctx.chosen == NetworkId(2) {
        0.8 + (ctx.session.0 % 5) as f64 / 50.0
    } else {
        0.25
    };
    Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain.min(1.0))
}

#[test]
fn fleet_results_are_identical_at_1_2_and_8_threads() {
    let reference = run_congestion(FleetConfig::with_root_seed(7).with_threads(1), 400, 60);
    let reference_json = reference.to_json().unwrap();
    let reference_metrics = reference.metrics();

    for threads in [2usize, 8] {
        let fleet = run_congestion(
            FleetConfig::with_root_seed(7).with_threads(threads),
            400,
            60,
        );
        assert_eq!(
            fleet.metrics(),
            reference_metrics,
            "metrics diverged at {threads} threads"
        );
        // The serialized fleets differ only in the recorded thread config;
        // normalising that field, every byte of state must match.
        let json = fleet.to_json().unwrap();
        let normalise = |s: &str, t: usize| s.replace(&format!("\"threads\":{t}"), "\"threads\":1");
        assert_eq!(
            normalise(&json, threads),
            normalise(&reference_json, 1),
            "serialized state diverged at {threads} threads"
        );
    }
}

#[test]
fn fleet_results_are_independent_of_shard_size() {
    let reference = run_congestion(
        FleetConfig::with_root_seed(3)
            .with_threads(4)
            .with_shard_size(1024),
        300,
        40,
    )
    .metrics();
    for shard_size in [1usize, 7, 64] {
        let metrics = run_congestion(
            FleetConfig::with_root_seed(3)
                .with_threads(4)
                .with_shard_size(shard_size),
            300,
            40,
        )
        .metrics();
        assert_eq!(metrics, reference, "diverged at shard size {shard_size}");
    }
}

#[test]
fn snapshot_restore_resumes_the_exact_trajectory() {
    let config = FleetConfig::with_root_seed(11).with_threads(4);
    let total_slots = 80usize;
    let cut = 35usize;

    // Uninterrupted reference run.
    let mut reference = mixed_fleet(config.clone(), 200);
    reference.run_with(total_slots, independent_feedback);

    // Interrupted run: step to `cut`, checkpoint through JSON, resume.
    let mut first_half = mixed_fleet(config, 200);
    first_half.run_with(cut, independent_feedback);
    let checkpoint = first_half.to_json().unwrap();
    // Ids are the session indices and seed the RNG streams: a rewound
    // `next_id` would hand later sessions the streams of sessions 0.., and
    // a repeated id would share one stream between two sessions.
    let snapshot = first_half.snapshot().unwrap();
    let mut rewound = snapshot.clone();
    rewound.next_id = 0;
    let mut repeated = snapshot;
    repeated.sessions[1].id = 0;
    for (what, broken) in [("a rewound next id", rewound), ("a repeated id", repeated)] {
        match FleetEngine::from_snapshot(broken) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected a malformed snapshot, got {other:?}"),
        }
    }
    drop(first_half);

    let mut resumed = FleetEngine::from_json(&checkpoint).unwrap();
    assert_eq!(resumed.slot(), cut);
    assert_eq!(resumed.len(), 200);
    resumed.run_with(total_slots - cut, independent_feedback);

    assert_eq!(resumed.metrics(), reference.metrics());
    assert_eq!(
        resumed.to_json().unwrap(),
        reference.to_json().unwrap(),
        "resumed fleet must be bit-identical to the uninterrupted one"
    );
}

/// An environment that misbehaves on purpose: every session is reported
/// active for the choose phase, but sessions whose index matches the slot
/// parity are deactivated *between* choose and observe — their feedback slot
/// stays `None` even though they chose. A third of the sessions additionally
/// sit whole slots out the regular way (inactive in `session_view`).
struct MidSlotDeactivator {
    sessions: usize,
    graded: u64,
    dropped: u64,
}

impl Environment for MidSlotDeactivator {
    fn sessions(&self) -> usize {
        self.sessions
    }

    fn begin_slot(&mut self, _slot: SlotIndex) {}

    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_> {
        SessionView {
            active: session % 3 != 2 || slot.is_multiple_of(2),
            networks_changed: None,
        }
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        for (index, choice) in choices.iter().enumerate() {
            out[index] = match choice {
                // Mid-slot deactivation: the session chose, but the
                // environment withdraws it before feedback is delivered.
                Some(_) if index % 2 == slot % 2 => None,
                Some(chosen) => {
                    self.graded += 1;
                    Some(Observation::bandit(slot, *chosen, 11.0, 0.5))
                }
                None => {
                    self.dropped += 1;
                    None
                }
            };
        }
    }

    fn wants_top_choices(&self) -> bool {
        // Exercise the top-choice read path alongside the skipped sessions.
        true
    }
}

#[test]
fn mid_slot_deactivation_is_skipped_gracefully() {
    // Regression: the engine used to assume every choosing session observes
    // feedback (`last_choice.expect("choice just made")`); an environment
    // deactivating a session between choose and observe must not panic.
    let mut fleet = mixed_fleet(FleetConfig::with_root_seed(23).with_threads(2), 60);
    let mut env = MidSlotDeactivator {
        sessions: 60,
        graded: 0,
        dropped: 0,
    };
    fleet.run_env(&mut env, 30);
    assert_eq!(fleet.slot(), 30);
    assert!(env.graded > 0, "some sessions must have been graded");
    assert!(env.dropped > 0, "some sessions must have sat slots out");
    // Every session that ever chose keeps its last choice visible; the
    // choose/observe mismatch never corrupts the mirror.
    for (index, choice) in fleet.last_choices().iter().enumerate() {
        assert!(
            choice.is_some(),
            "session {index} chose at least once and must keep its last choice"
        );
    }
    // The two-phase path stays usable after the environment-driven slots.
    let choices = fleet.choose_all().to_vec();
    assert_eq!(choices.len(), 60);
    let observations: Vec<Observation> = choices
        .iter()
        .map(|&chosen| Observation::bandit(fleet.slot(), chosen, 11.0, 0.5))
        .collect();
    fleet.observe_all(&observations);
    assert_eq!(fleet.slot(), 31);
}

#[test]
fn snapshot_of_a_snapshot_is_stable() {
    let mut fleet = mixed_fleet(FleetConfig::with_root_seed(5), 40);
    fleet.run_with(25, independent_feedback);
    let once = fleet.to_json().unwrap();
    let twice = FleetEngine::from_json(&once).unwrap().to_json().unwrap();
    assert_eq!(once, twice);
}
