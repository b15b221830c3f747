//! Environment-driven stepping throughput: decisions per second when the
//! fleet is driven through `FleetEngine::run_env` over the scenario
//! library's worlds, rather than through closure feedback.
//!
//! This is the perf trajectory of the *coupled* path — joint-choice
//! congestion sharing, visibility bookkeeping, event application — which is
//! what every paper scenario exercises. One element is one decision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smartexp3_core::PolicyKind;
use smartexp3_engine::FleetConfig;
use smartexp3_env::{
    area_mobility, cooperative, dynamic_bandwidth, equal_share, trace_driven, GossipConfig,
    Scenario,
};
use std::time::Duration;

fn build(world: &str, sessions: usize) -> Scenario {
    let config = FleetConfig::with_root_seed(1);
    match world {
        "equal_share" => equal_share(sessions, PolicyKind::SmartExp3, config).unwrap(),
        "dynamic_bandwidth" => {
            dynamic_bandwidth(sessions, PolicyKind::SmartExp3, config, 40, 80).unwrap()
        }
        "area_mobility" => area_mobility(sessions, PolicyKind::SmartExp3, config, 40, 80).unwrap(),
        "trace_driven" => trace_driven(sessions, PolicyKind::SmartExp3, config, 400).unwrap(),
        "cooperative" => cooperative(
            sessions,
            PolicyKind::SmartExp3,
            config,
            GossipConfig::broadcast(),
        )
        .unwrap(),
        other => panic!("unknown world {other}"),
    }
}

/// Decisions/sec over session count on the equal-share congestion world.
fn bench_scenario_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sessions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for sessions in [1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(sessions as u64));
        group.bench_with_input(
            BenchmarkId::new("equal_share", sessions),
            &sessions,
            |b, &sessions| {
                let mut scenario = build("equal_share", sessions);
                b.iter(|| scenario.run(1));
            },
        );
    }
    group.finish();
}

/// Decisions/sec across the scenario catalog at a fixed population.
fn bench_scenario_worlds(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_worlds");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let sessions = 20_000usize;
    group.throughput(Throughput::Elements(sessions as u64));
    for world in [
        "equal_share",
        "dynamic_bandwidth",
        "area_mobility",
        "trace_driven",
        "cooperative",
    ] {
        group.bench_with_input(BenchmarkId::new("step", world), &world, |b, &world| {
            let mut scenario = build(world, sessions);
            b.iter(|| scenario.run(1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario_sessions, bench_scenario_worlds);
criterion_main!(benches);
