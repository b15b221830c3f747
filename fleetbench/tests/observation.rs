//! The layer instruments are pure observation: a world stepped through
//! `TracedEnv` (with its timed executor) and a `CountingSink` takes the same
//! decisions and reaches the same state as the same world stepped bare.

use fleetbench::sink::QualitySink;
use fleetbench::trace::{CountingSink, SpanLog, TracedEnv, ENV_FEEDBACK, SINK_RECORD, STEP};
use smartexp3_core::{Environment, PolicyKind, SamplerStrategy};
use smartexp3_engine::{FleetConfig, FleetEngine};
use smartexp3_env::{DenseUrbanConfig, DutyCycleConfig, Scenario};
use smartexp3_telemetry::TelemetrySink;
use std::sync::Arc;

const STEPS: usize = 24;

fn config() -> FleetConfig {
    // Two workers, so the engine takes the partitioned feedback path and
    // the timed executor is exercised.
    FleetConfig::with_root_seed(41)
        .with_threads(2)
        .with_shard_size(64)
}

fn duty() -> DutyCycleConfig {
    DutyCycleConfig {
        cadences: vec![1, 2, 4, 8],
        burst_period: 8,
        horizon_slots: 64,
        ..DutyCycleConfig::default()
    }
}

fn dense() -> DenseUrbanConfig {
    DenseUrbanConfig {
        networks_per_area: 64,
        devices_per_area: 16,
        sampler: SamplerStrategy::Alias,
    }
}

fn step(
    fleet: &mut FleetEngine,
    env: &mut dyn Environment,
    sink: &mut dyn TelemetrySink,
    events: bool,
) {
    if events {
        fleet.step_events_with_sink(env, Some(sink));
    } else {
        fleet.step_env_with_sink(env, Some(sink));
    }
}

/// Steps `build()` bare and traced side by side; asserts identical choices
/// after every step and identical environment and fleet state at the end.
fn assert_pure(build: impl Fn() -> Scenario, events: bool) {
    let mut bare = build();
    let traced = build();
    assert!(bare.enable_telemetry());
    let spans = Arc::new(SpanLog::default());
    let mut traced_env =
        TracedEnv::new(traced.environment, Arc::clone(&spans)).checking_observations();
    assert!(traced_env.set_telemetry(true));
    let mut traced_fleet = traced.fleet;
    let mut bare_sink = QualitySink::default();
    let mut traced_sink = CountingSink::new(QualitySink::default(), Arc::clone(&spans));

    for n in 0..STEPS {
        step(
            &mut bare.fleet,
            bare.environment.as_mut(),
            &mut bare_sink,
            events,
        );
        let span = spans.open_step();
        step(&mut traced_fleet, &mut traced_env, &mut traced_sink, events);
        spans.close_step(span);
        assert_eq!(
            bare.fleet.last_choices(),
            traced_fleet.last_choices(),
            "choices diverged at step {n}"
        );
    }
    assert_eq!(bare.environment.state(), traced_env.state());
    assert_eq!(
        bare.fleet.to_json().unwrap(),
        traced_fleet.to_json().unwrap()
    );
    assert_eq!(
        bare_sink.totals().graded,
        traced_sink.inner_mut().totals().graded
    );

    // The instruments saw the work they claim to measure.
    let counts = traced_env.counts();
    let decisions = traced_fleet.metrics().decisions;
    let all = 0..spans.cursor();
    assert_eq!(spans.totals(STEP, all.clone()).0, STEPS as u64);
    assert_eq!(
        spans.totals(SINK_RECORD, all.clone()).0,
        bare_sink.totals().records
    );
    assert!(spans.totals(ENV_FEEDBACK, all.clone()).0 > 0);
    let (boundary_spans, stray_spans) = spans.stray_spans(all);
    assert!(boundary_spans > 0);
    assert_eq!(stray_spans, 0, "every boundary span lies inside its step");
    assert!(counts.feedback_jobs > 0);
    assert!(counts.useful_jobs <= counts.feedback_jobs);
    assert_eq!(counts.session_views, decisions);
    assert_eq!(counts.observations_checked, decisions);
    assert_eq!(counts.observations_bad, 0);
    assert_eq!(bare_sink.totals().bad_records, 0);
    if events {
        assert_eq!(counts.next_wake, decisions);
    }
}

#[test]
fn traced_equal_share_matches_bare() {
    assert_pure(
        || smartexp3_env::equal_share(300, PolicyKind::SmartExp3, config()).unwrap(),
        false,
    );
}

#[test]
fn traced_duty_cycle_matches_bare() {
    assert_pure(
        || smartexp3_env::duty_cycle(300, PolicyKind::SmartExp3, config(), duty()).unwrap(),
        true,
    );
}

#[test]
fn traced_dense_urban_matches_bare() {
    assert_pure(
        || smartexp3_env::dense_urban(64, PolicyKind::Exp3, config(), dense()).unwrap(),
        false,
    );
}

#[test]
fn traced_dense_duty_cycle_matches_bare() {
    assert_pure(
        || {
            smartexp3_env::dense_duty_cycle(64, PolicyKind::Exp3, config(), dense(), duty())
                .unwrap()
        },
        true,
    );
}

#[test]
fn traced_checkpoint_restores_bit_identically() {
    // The wrapper forwards state/restore: a checkpoint taken through it
    // restores into a bare world that then continues identically.
    let build = || smartexp3_env::duty_cycle(200, PolicyKind::SmartExp3, config(), duty());
    let original = build().unwrap();
    let mut env = TracedEnv::new(original.environment, Arc::new(SpanLog::default()));
    let mut fleet = original.fleet;
    let mut sink = QualitySink::default();
    for _ in 0..10 {
        step(&mut fleet, &mut env, &mut sink, true);
    }
    let text = fleet.snapshot_env(&env).unwrap().to_json().unwrap();
    let mut fresh = build().unwrap();
    let snapshot = serde_json::from_str(&text).unwrap();
    let mut restored =
        FleetEngine::from_snapshot_env(snapshot, fresh.environment.as_mut()).unwrap();
    for _ in 0..5 {
        step(&mut fleet, &mut env, &mut sink, true);
        step(
            &mut restored,
            fresh.environment.as_mut(),
            &mut QualitySink::default(),
            true,
        );
        assert_eq!(fleet.last_choices(), restored.last_choices());
    }
    assert_eq!(env.state(), fresh.environment.state());
}

#[test]
fn spans_outside_a_step_are_stray() {
    let spans = SpanLog::default();
    let step = spans.open_step();
    spans.time(ENV_FEEDBACK, || ());
    spans.close_step(step);
    spans.time(SINK_RECORD, || ());
    let all = 0..spans.cursor();
    assert_eq!(spans.stray_spans(all.clone()), (2, 1));
    // A window that leaves out the step makes its children stray too.
    assert_eq!(spans.stray_spans(1..all.end), (2, 2));
}
