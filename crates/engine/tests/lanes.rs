//! Fleet-lane equivalence properties: a mixed fleet — monomorphized lanes
//! interleaved with boxed fallback sessions in one engine — must agree
//! **decision-for-decision** with an all-boxed engine (the same sessions
//! added one by one through [`FleetEngine::add_session`]) under session
//! churn (fleets added mid-run) and mid-run snapshot/restore, including the
//! restore that routes the boxed engine's EXP3-family states into lanes,
//! and under coupled (congestion) feedback.

mod common;

use common::{run_independent, single_area_congestion};
use netsim::NetworkSpec;
use smartexp3_core::{Environment, NetworkId, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};

fn networks() -> Vec<NetworkSpec> {
    vec![
        NetworkSpec::wifi(0, 4.0),
        NetworkSpec::wifi(1, 7.0),
        NetworkSpec::cellular(2, 22.0),
        NetworkSpec::wifi(3, 11.0),
    ]
}

fn rates() -> Vec<(NetworkId, f64)> {
    networks()
        .iter()
        .map(|n| (n.id, n.bandwidth_mbps))
        .collect()
}

/// Interleaves lane-eligible kinds (Smart EXP3, EXP3, the ablations) with
/// boxed-only baselines so the lanes engine ends up with many alternating
/// segments.
fn mixed_wave(scale: usize) -> [(PolicyKind, usize); 6] {
    [
        (PolicyKind::SmartExp3, 5 * scale),
        (PolicyKind::Exp3, 3 * scale),
        (PolicyKind::Greedy, 2 * scale),
        (PolicyKind::BlockExp3, 3 * scale),
        (PolicyKind::FixedRandom, scale),
        (PolicyKind::Exp3, 2 * scale),
    ]
}

/// Adds a mixed wave through [`FleetEngine::add_fleet`], which routes the
/// EXP3-family kinds into lanes.
fn add_mixed_wave(fleet: &mut FleetEngine, factory: &mut PolicyFactory, scale: usize) {
    for (kind, count) in mixed_wave(scale) {
        fleet.add_fleet(factory, kind, count).unwrap();
    }
}

/// Adds the same wave one session at a time through
/// [`FleetEngine::add_session`], which keeps every session on the boxed
/// fallback lane.
fn add_boxed_wave(fleet: &mut FleetEngine, factory: &mut PolicyFactory, scale: usize) {
    for (kind, count) in mixed_wave(scale) {
        for _ in 0..count {
            fleet.add_session(factory.build(kind).unwrap());
        }
    }
}

/// Steps both engines one slot and asserts every session decided
/// identically.
fn step_both(lanes: &mut FleetEngine, boxed: &mut FleetEngine, label: &str) {
    run_independent(lanes, 1);
    run_independent(boxed, 1);
    assert_eq!(
        lanes.last_choices(),
        boxed.last_choices(),
        "lane and boxed engines diverged {label} (slot {})",
        boxed.slot()
    );
}

#[test]
fn mixed_lane_fleets_match_all_boxed_fleets_under_churn_and_restore() {
    let mut factory = PolicyFactory::new(rates()).unwrap();
    let config = FleetConfig::with_root_seed(97)
        .with_threads(2)
        .with_shard_size(8);
    let mut lanes = FleetEngine::new(config.clone());
    let mut boxed = FleetEngine::new(config);
    add_mixed_wave(&mut lanes, &mut factory, 4);
    add_boxed_wave(&mut boxed, &mut factory, 4);
    assert_eq!(lanes.len(), boxed.len());

    for _ in 0..12 {
        step_both(&mut lanes, &mut boxed, "before churn");
    }

    // Churn: grow both fleets mid-run — appends must merge/extend lanes
    // without disturbing the established sessions' streams.
    add_mixed_wave(&mut lanes, &mut factory, 2);
    add_boxed_wave(&mut boxed, &mut factory, 2);
    // Direct single-session adds land on the boxed fallback lane in both.
    for _ in 0..3 {
        let policy = factory.build(PolicyKind::Greedy).unwrap();
        lanes.add_session(policy);
        let policy = factory.build(PolicyKind::Greedy).unwrap();
        boxed.add_session(policy);
    }
    assert_eq!(lanes.len(), boxed.len());

    for _ in 0..10 {
        step_both(&mut lanes, &mut boxed, "after churn");
    }

    // Mid-run snapshot/restore: the boxed engine's EXP3-family states come
    // back in lanes, and the resumed copy must keep agreeing with the lanes
    // engine decision-for-decision.
    let mut boxed = FleetEngine::from_snapshot(boxed.snapshot().unwrap()).unwrap();

    for _ in 0..10 {
        step_both(&mut lanes, &mut boxed, "after restore into lanes");
    }

    // More churn after the restore, then a plain JSON round-trip of each.
    add_mixed_wave(&mut lanes, &mut factory, 1);
    add_boxed_wave(&mut boxed, &mut factory, 1);
    let mut lanes = FleetEngine::from_json(&lanes.to_json().unwrap()).unwrap();
    let mut boxed = FleetEngine::from_json(&boxed.to_json().unwrap()).unwrap();
    for _ in 0..8 {
        step_both(&mut lanes, &mut boxed, "after round-trip");
    }

    assert_eq!(lanes.metrics(), boxed.metrics());
    assert_eq!(
        lanes.to_json().unwrap(),
        boxed.to_json().unwrap(),
        "serialized state must be independent of lane routing"
    );
}

#[test]
fn coupled_feedback_agrees_between_lanes_and_boxes() {
    // Equal-share congestion over a mixed fleet: the observation handed to
    // session `i` depends on every session's choice, so segment boundaries
    // in the joint-choice buffer would surface immediately.
    let run = |lanes_enabled: bool| -> (Vec<Option<NetworkId>>, String, Option<String>) {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        let mut fleet = FleetEngine::new(
            FleetConfig::with_root_seed(31)
                .with_threads(8)
                .with_shard_size(5),
        );
        if lanes_enabled {
            add_mixed_wave(&mut fleet, &mut factory, 3);
        } else {
            add_boxed_wave(&mut fleet, &mut factory, 3);
        }
        let seed = fleet.config().environment_seed();
        let mut env = single_area_congestion(networks(), fleet.len(), seed);
        fleet.run_env(&mut env, 25);
        (
            fleet.last_choices().to_vec(),
            fleet.to_json().unwrap(),
            env.state(),
        )
    };
    let (lane_choices, lane_json, lane_env) = run(true);
    let (boxed_choices, boxed_json, boxed_env) = run(false);
    assert_eq!(lane_choices, boxed_choices);
    assert_eq!(lane_json, boxed_json);
    assert_eq!(lane_env, boxed_env);
}
