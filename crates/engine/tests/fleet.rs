//! Fleet-engine guarantees: thread-count determinism, bit-identical
//! snapshot/restore, and graceful handling of environments that deactivate
//! sessions mid-slot.

mod common;

use common::{run_independent, single_area_congestion};
use netsim::setting1_networks;
use smartexp3_core::{
    Environment, Exp3, NetworkId, Observation, PolicyFactory, PolicyKind, SamplerStrategy,
    SessionView, SlotIndex,
};
use smartexp3_engine::{FleetConfig, FleetEngine, SnapshotError};

fn rates() -> Vec<(NetworkId, f64)> {
    setting1_networks()
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

/// Congestion feedback: one service area over the setting-1 networks, so
/// sessions couple.
fn run_congestion(config: FleetConfig, sessions: usize, slots: usize) -> FleetEngine {
    let mut env = single_area_congestion(setting1_networks(), sessions, config.environment_seed());
    let mut fleet = mixed_fleet(config, sessions);
    fleet.run_env(&mut env, slots);
    fleet
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
    run_independent(&mut reference, total_slots);

    // Interrupted run: step to `cut`, checkpoint through JSON, resume.
    let mut first_half = mixed_fleet(config, 200);
    run_independent(&mut first_half, cut);
    let checkpoint = first_half.to_json().unwrap();
    drop(first_half);

    let mut resumed = FleetEngine::from_json(&checkpoint).unwrap();
    assert_eq!(resumed.slot(), cut);
    assert_eq!(resumed.len(), 200);
    run_independent(&mut resumed, total_slots - cut);

    assert_eq!(resumed.metrics(), reference.metrics());
    assert_eq!(
        resumed.to_json().unwrap(),
        reference.to_json().unwrap(),
        "resumed fleet must be bit-identical to the uninterrupted one"
    );
}

/// Replaces the contents of the first `"field":[…]` list in `text` with
/// `edit(contents)`.
fn edit_first_list(text: &str, field: &str, edit: impl Fn(&str) -> String) -> String {
    let start = text.find(&format!("\"{field}\":[")).unwrap() + field.len() + 4;
    let end = start + text[start..].find(']').unwrap();
    format!(
        "{}{}{}",
        &text[..start],
        edit(&text[start..end]),
        &text[end..]
    )
}

#[test]
fn restore_rejects_weight_tables_that_disagree_with_their_arms() {
    let networks: Vec<NetworkId> = rates().iter().map(|&(n, _)| n).collect();
    for sampler in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
        let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(17));
        for _ in 0..2 {
            let policy = Exp3::new(networks.clone(), sampler).unwrap();
            fleet.add_session(Box::new(policy));
        }
        run_independent(&mut fleet, 5);
        let text = fleet.to_json().unwrap();
        assert!(FleetEngine::from_json(&text).is_ok());
        // Session 0's table is the first in the text. Every edit used to
        // restore: the shape edit then panicked on the next step, and a
        // non-finite weight stepped on and was written back into the next
        // checkpoint.
        let mut broken = vec![(
            "a short log_weights".to_string(),
            edit_first_list(&text, "log_weights", |list| {
                list.rsplit_once(',').unwrap().0.to_string()
            }),
        )];
        // A normaliser ten times its weights' sum used to restore, and the
        // session's probabilities then summed to (1 − γ)/10 + γ.
        let start = text.find("\"exp_sum\":").unwrap() + "\"exp_sum\":".len();
        let end = start + text[start..].find(',').unwrap();
        let exp_sum: f64 = text[start..end].parse().unwrap();
        broken.push((
            "an exp_sum ten times its weights' sum".to_string(),
            format!("{}{:?}{}", &text[..start], exp_sum * 10.0, &text[end..]),
        ));
        for token in ["NaN", "inf", "-inf"] {
            broken.push((
                format!("{token} in log_weights"),
                edit_first_list(&text, "log_weights", |list| {
                    format!("{token}{}", &list[list.find(',').unwrap()..])
                }),
            ));
        }
        for (what, broken) in broken {
            assert_ne!(broken, text, "{what}");
            match FleetEngine::from_json(&broken) {
                Err(SnapshotError::Malformed(message)) => {
                    // The table's reader refuses it as it is read.
                    assert!(
                        message.contains("`sessions` of `FleetSnapshot`: element 0: ")
                            && message.contains("field `weights` of `Exp3`: "),
                        "{sampler:?}, {what}: {message}"
                    );
                }
                other => {
                    panic!("{sampler:?}, {what}: expected a malformed snapshot, got {other:?}")
                }
            }
        }
    }
}

#[test]
fn restore_rejects_an_overlay_mass_that_disagrees_with_the_dirty_arms() {
    let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(23));
    let policy = Exp3::new((0..16).map(NetworkId).collect(), SamplerStrategy::Alias).unwrap();
    fleet.add_session(Box::new(policy));
    run_independent(&mut fleet, 3);
    let text = fleet.to_json().unwrap();
    assert_eq!(
        FleetEngine::from_json(&text).unwrap().to_json().unwrap(),
        text
    );
    // The table patched its overlay instead of re-freezing: its overlay
    // mass is live. Multiplied by 1000 it used to restore, and the session
    // then drew arms far from the probabilities it stated.
    let start = text.find("\"dirty_mass\":").unwrap() + "\"dirty_mass\":".len();
    let end = start + text[start..].find(',').unwrap();
    let dirty_mass: f64 = text[start..end].parse().unwrap();
    assert!(dirty_mass > 0.0, "the overlay is live");
    let inflated = format!(
        "{}{:?}{}",
        &text[..start],
        dirty_mass * 1000.0,
        &text[end..]
    );
    match FleetEngine::from_json(&inflated) {
        Err(SnapshotError::Malformed(message)) => {
            assert!(message.contains("dirty_mass"), "{message}");
        }
        other => panic!("expected a malformed snapshot, got {other:?}"),
    }
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
}

#[test]
fn snapshot_of_a_snapshot_is_stable() {
    let mut fleet = mixed_fleet(FleetConfig::with_root_seed(5), 40);
    run_independent(&mut fleet, 25);
    let once = fleet.to_json().unwrap();
    let twice = FleetEngine::from_json(&once).unwrap().to_json().unwrap();
    assert_eq!(once, twice);
}
