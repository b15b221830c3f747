//! Quick-mode fleet-engine throughput smoke run.
//!
//! Steps a Smart EXP3 fleet through the equal-share congestion scenario of
//! the environment layer (the `scenario_throughput` workload) twice: plain,
//! and with streaming telemetry on (the observability overhead datapoint),
//! then through the cooperative world. One JSON record per configuration is
//! appended to `BENCH_engine.json`; every record names its `world`,
//! `threads` and `feedback` mode explicitly (older records lack those fields
//! but keep parsing — readers treat them as additive).
//!
//! A **duty-cycle pair** records the event-driven engine path: the same
//! world stepped slot-synchronously and through the wake queue
//! (`run_until`), the latter with wake-to-decision latency percentiles in
//! the record's `extra` fields.
//!
//! ```text
//! cargo run --release -p smartexp3-bench --bin engine_smoke \
//!     [-- --sessions N] [--slots N] [--threads N] [--out PATH] [--only SUBSTR]
//! ```
//!
//! A **duty-cycled dense group** (`dense_duty_cycle`) is the alias-sampler
//! headline: the dense-urban blocks under the 2/4/8 wake-cadence mix, the
//! two CDF-inversion strategies measured **interleaved** (one round each
//! per A/B run) so host drift hits both equally, each record carrying the
//! median of [`AB_RUNS`] runs, the min/max band of its sampling-phase rate
//! and `host_cores`. Caveat: when `threads` exceeds the record's
//! `host_cores`, the datapoint measures an oversubscribed worker pool, not
//! parallel scaling.
//!
//! `--only SUBSTR` runs only the datapoint groups whose name contains
//! `SUBSTR` (groups: `equal_share`, `equal_share_telemetry`,
//! `cooperative`, `dense_urban`, `duty_cycle`, `dense_duty_cycle`) — e.g.
//! `--only equal_share` runs everything on that world.

use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_engine::FleetConfig;
use smartexp3_env::{
    cooperative, dense_duty_cycle, dense_urban, duty_cycle, equal_share, DenseUrbanConfig,
    DutyCycleConfig, GossipConfig, Scenario,
};
use smartexp3_telemetry::RingSink;
use std::time::Instant;

/// Sessions in the dense-urban datapoints: one paper-shaped city block. The
/// large-K comparison is about per-decision sampling cost, so the fleet is
/// kept cache-resident — at huge fleets every strategy is DRAM-bound and the
/// sampler difference is masked by memory traffic.
const DENSE_SESSIONS: usize = 64;

/// Networks per block in the dense-urban datapoints (the arm count K).
const DENSE_NETWORKS: usize = 512;

/// Warm-up through the all-fresh opening slots, so the measurement starts
/// from steady state, then `slots` timed environment-driven slots; returns
/// decisions per second.
fn measure_scenario(scenario: &mut Scenario, slots: usize) -> f64 {
    scenario.run(slots.div_ceil(4).max(1));
    let sessions = scenario.sessions();
    let start = Instant::now();
    scenario.run(slots);
    (sessions * slots) as f64 / start.elapsed().as_secs_f64()
}

/// Same measurement with streaming telemetry enabled: per-partition metric
/// accumulation, canonical-order merge and a ring sink every slot. Paired
/// with the telemetry-off `equal_share` datapoint, this records what the
/// observability layer costs.
fn measure_scenario_streaming(scenario: &mut Scenario, slots: usize) -> f64 {
    assert!(scenario.enable_telemetry(), "world streams telemetry");
    let mut sink = RingSink::new(1);
    scenario.run_streaming(slots.div_ceil(4).max(1), &mut sink);
    let sessions = scenario.sessions();
    let start = Instant::now();
    scenario.run_streaming(slots, &mut sink);
    (sessions * slots) as f64 / start.elapsed().as_secs_f64()
}

/// Interleaved rounds per sampler A/B datapoint; medians over this many
/// runs are what the records report.
const AB_RUNS: usize = 6;

/// Median and spread of one A/B side's per-run rates.
struct Band {
    median: f64,
    min: f64,
    max: f64,
}

fn band(mut rates: Vec<f64>) -> Band {
    rates.sort_by(f64::total_cmp);
    let mid = rates.len() / 2;
    let median = if rates.len().is_multiple_of(2) {
        (rates[mid - 1] + rates[mid]) / 2.0
    } else {
        rates[mid]
    };
    Band {
        median,
        min: rates[0],
        max: *rates.last().expect("at least one run"),
    }
}

fn parse_flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("error: {name} expects a positive integer, got `{raw}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

/// One BENCH_engine.json line. `world` names the measured workload and
/// `feedback` its feedback mode, so multi-world runs are unambiguous.
/// `extra` carries pre-rendered additive JSON fields (empty for none) —
/// the dense-urban records use it for the sampler axis.
struct Record {
    bench: &'static str,
    world: &'static str,
    feedback: &'static str,
    policy: &'static str,
    sessions: usize,
    slots: usize,
    threads: usize,
    decisions_per_sec: f64,
    extra: String,
}

impl Record {
    fn render(&self) -> String {
        let Record {
            bench,
            world,
            feedback,
            policy,
            sessions,
            slots,
            threads,
            decisions_per_sec,
            extra,
        } = self;
        format!(
            "{{\"bench\":\"{bench}\",\"world\":\"{world}\",\"feedback\":\"{feedback}\",\
             \"sessions\":{sessions},\"slots\":{slots},\"threads\":{threads},\
             \"decisions_per_sec\":{decisions_per_sec:.0},\"policy\":\"{policy}\"{extra}}}"
        )
    }
}

/// Dense-urban large-K datapoint: one cache-resident city block (64 sessions,
/// K = 512) stepped with the given sampler. Returns `(total decisions/sec,
/// sampling-phase decisions/sec)` — the second divides decisions by the
/// summed choose-phase wall time from the streaming timing records, isolating
/// the cost the sampler strategy actually controls from the
/// strategy-independent environment and observe work.
fn measure_dense(sampler: SamplerStrategy, slots: usize, threads: usize) -> (f64, f64) {
    let config = FleetConfig::with_root_seed(2026).with_threads(threads);
    let dense = DenseUrbanConfig {
        networks_per_area: DENSE_NETWORKS,
        sampler,
        ..DenseUrbanConfig::default()
    };
    let mut scenario =
        dense_urban(DENSE_SESSIONS, PolicyKind::Exp3, config, dense).expect("valid scenario");
    let mut sink = RingSink::new(slots);
    scenario.run_streaming(slots.div_ceil(4).max(1), &mut sink);
    let mut sink = RingSink::new(slots);
    let start = Instant::now();
    scenario.run_streaming(slots, &mut sink);
    let elapsed = start.elapsed().as_secs_f64();
    let decisions = (DENSE_SESSIONS * slots) as f64;
    let choose_s: f64 = sink.records().map(|r| r.timing.choose_s).sum();
    (decisions / elapsed, decisions / choose_s.max(f64::EPSILON))
}

/// Cadence mix of the duty-cycled dense datapoints: every session sleeps at
/// least one slot between decisions, so its weight table is a static-weight
/// phase most of the wall clock.
const DENSE_DUTY_CADENCES: [usize; 3] = [2, 4, 8];

/// One measurement window on a duty-cycled dense scenario: steps `slots`
/// more slots through the wake queue with streaming timing, and returns
/// `(total decisions/sec, sampling-phase decisions/sec)` — the latter
/// divides the window's decisions by its summed choose-phase wall time, the
/// cost the sampler strategy actually controls.
fn dense_duty_window(scenario: &mut Scenario, slots: usize) -> (f64, f64) {
    let before = scenario.fleet.metrics().decisions;
    let until = scenario.fleet.slot() + slots;
    let mut sink = RingSink::new(slots.max(1));
    let start = Instant::now();
    scenario
        .fleet
        .run_until_with_sink(scenario.environment.as_mut(), until, &mut sink);
    let elapsed = start.elapsed().as_secs_f64();
    let decided = (scenario.fleet.metrics().decisions - before) as f64;
    let choose_s: f64 = sink.records().map(|r| r.timing.choose_s).sum();
    (
        decided / elapsed.max(f64::EPSILON),
        decided / choose_s.max(f64::EPSILON),
    )
}

/// Interleaved two-way sampler comparison on the duty-cycled dense world:
/// one scenario per strategy from the same seed, warmed through the wake
/// queue, then measured round-robin (one window each per A/B round) so
/// clock drift and thermal state hit both strategies equally. Returns
/// `(total band, sampling-phase band)` per strategy, in argument order.
fn ab_dense_duty(slots: usize, threads: usize) -> Vec<(SamplerStrategy, Band, Band)> {
    let strategies = [SamplerStrategy::Linear, SamplerStrategy::Alias];
    let warm = slots.div_ceil(4).max(1);
    let horizon = warm + slots * (AB_RUNS + 1);
    let mut scenarios: Vec<Scenario> = strategies
        .iter()
        .map(|&sampler| {
            let config = FleetConfig::with_root_seed(2026).with_threads(threads);
            let dense = DenseUrbanConfig {
                networks_per_area: DENSE_NETWORKS,
                sampler,
                ..DenseUrbanConfig::default()
            };
            let duty = DutyCycleConfig {
                cadences: DENSE_DUTY_CADENCES.to_vec(),
                burst_period: (slots / 4).max(2),
                horizon_slots: horizon,
                ..DutyCycleConfig::default()
            };
            dense_duty_cycle(DENSE_SESSIONS, PolicyKind::Exp3, config, dense, duty)
                .expect("valid scenario")
        })
        .collect();
    for scenario in &mut scenarios {
        scenario
            .fleet
            .run_until(scenario.environment.as_mut(), warm);
    }
    let mut totals: Vec<Vec<f64>> = vec![Vec::with_capacity(AB_RUNS); strategies.len()];
    let mut samplings: Vec<Vec<f64>> = vec![Vec::with_capacity(AB_RUNS); strategies.len()];
    for _ in 0..AB_RUNS {
        for (index, scenario) in scenarios.iter_mut().enumerate() {
            let (total, sampling) = dense_duty_window(scenario, slots);
            totals[index].push(total);
            samplings[index].push(sampling);
        }
    }
    strategies
        .into_iter()
        .zip(totals.into_iter().zip(samplings))
        .map(|(sampler, (total, sampling))| (sampler, band(total), band(sampling)))
        .collect()
}

/// Sync-vs-event-driven pair on the duty-cycle world. Returns the two
/// throughputs plus the event run's latency extra (pre-rendered JSON).
fn measure_duty_cycle(sessions: usize, slots: usize, config: &FleetConfig) -> (f64, f64, String) {
    let warm = slots.div_ceil(4).max(1);
    let build = || {
        duty_cycle(
            sessions,
            PolicyKind::SmartExp3,
            config.clone(),
            DutyCycleConfig {
                cadences: vec![1, 2, 4, 8],
                burst_period: (slots / 4).max(2),
                horizon_slots: warm + slots,
                ..DutyCycleConfig::default()
            },
        )
        .expect("valid scenario")
    };
    // Sync baseline: the identical world stepped slot-synchronously (the
    // cadences are ignored — every session decides every slot).
    let mut sync = build();
    let sync_rate = measure_scenario(&mut sync, slots);
    // Event-driven: only due cohorts decide, so the rate divides the
    // decisions the engine actually took (from the metrics delta) by wall
    // time.
    let mut events = build();
    events.fleet.run_until(events.environment.as_mut(), warm);
    let warm_decisions = events.fleet.metrics().decisions;
    let start = Instant::now();
    events
        .fleet
        .run_until(events.environment.as_mut(), warm + slots);
    let elapsed = start.elapsed().as_secs_f64();
    let decided = events.fleet.metrics().decisions - warm_decisions;
    let event_rate = decided as f64 / elapsed.max(f64::EPSILON);
    let latency_extra = match events.fleet.last_wake_latency() {
        Some(latency) => format!(
            ",\"stepping\":\"events\",\"latency_count\":{},\"latency_p50_us\":{:.2},\
             \"latency_p95_us\":{:.2},\"latency_p99_us\":{:.2}",
            latency.count,
            latency.p50_s * 1e6,
            latency.p95_s * 1e6,
            latency.p99_s * 1e6
        ),
        None => ",\"stepping\":\"events\"".to_string(),
    };
    (sync_rate, event_rate, latency_extra)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sessions = parse_flag(&args, "--sessions", 100_000);
    let slots = parse_flag(&args, "--slots", 40);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let wanted = |group: &str| only.as_deref().is_none_or(|filter| group.contains(filter));
    let auto_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = parse_flag(&args, "--threads", auto_threads);
    let config = FleetConfig::with_root_seed(1).with_threads(threads);
    let mut records = Vec::new();

    let smart_record = |bench, world, feedback, decisions_per_sec| Record {
        bench,
        world,
        feedback,
        policy: "SmartExp3",
        sessions,
        slots,
        threads,
        decisions_per_sec,
        extra: String::new(),
    };

    // Environment-driven datapoint: the fleet stepped through the
    // equal-share congestion scenario via `run_env`, with the feedback phase
    // fanned out over the partitions whenever the pool has more than one
    // worker.
    let mut partitioned_rate = None;
    if wanted("equal_share") {
        let mut partitioned =
            equal_share(sessions, PolicyKind::SmartExp3, config.clone()).expect("valid scenario");
        let rate = measure_scenario(&mut partitioned, slots);
        records.push(smart_record(
            "scenario_throughput/equal_share",
            "equal_share",
            "partitioned",
            rate,
        ));
        partitioned_rate = Some(rate);
    }
    // Telemetry datapoint: the identical world with per-slot streaming
    // metrics on — the partitioned/telemetry pair is the observability
    // overhead the README quotes (budget: ≤ 10% decisions/sec).
    let mut streaming_rate = None;
    if wanted("equal_share_telemetry") {
        let mut streaming =
            equal_share(sessions, PolicyKind::SmartExp3, config.clone()).expect("valid scenario");
        let rate = measure_scenario_streaming(&mut streaming, slots);
        records.push(smart_record(
            "scenario_throughput/equal_share",
            "equal_share",
            "partitioned+telemetry",
            rate,
        ));
        streaming_rate = Some(rate);
    }
    // Cooperative datapoint: the same world with the Co-Bandit gossip layer
    // (per-area broadcast digests + `observe_shared` folding), so the perf
    // trajectory also tracks what cooperation costs on top of equal_share.
    let mut coop_rate = None;
    if wanted("cooperative") {
        let mut coop = cooperative(
            sessions,
            PolicyKind::SmartExp3,
            config.clone(),
            GossipConfig::broadcast(),
        )
        .expect("valid scenario");
        let rate = measure_scenario(&mut coop, slots);
        records.push(smart_record(
            "scenario_throughput/cooperative",
            "cooperative",
            "partitioned",
            rate,
        ));
        coop_rate = Some(rate);
    }

    // Event-driven datapoints: the duty-cycle world (1/2/4/8 cadence mix)
    // stepped slot-synchronously and through the wake queue. The event
    // record carries wake-to-decision latency percentiles in `extra`.
    if wanted("duty_cycle") {
        let (sync_rate, event_rate, latency_extra) = measure_duty_cycle(sessions, slots, &config);
        records.push(Record {
            bench: "scenario_throughput/duty_cycle",
            world: "duty_cycle",
            feedback: "partitioned",
            policy: "SmartExp3",
            sessions,
            slots,
            threads,
            decisions_per_sec: sync_rate,
            extra: ",\"stepping\":\"sync\"".to_string(),
        });
        records.push(Record {
            bench: "scenario_throughput/duty_cycle",
            world: "duty_cycle",
            feedback: "partitioned",
            policy: "SmartExp3",
            sessions,
            slots,
            threads,
            decisions_per_sec: event_rate,
            extra: latency_extra,
        });
        eprintln!(
            "duty_cycle: sync {:.2}M vs event-driven {:.2}M decisions/sec",
            sync_rate / 1e6,
            event_rate / 1e6
        );
    }

    // Large-K sampler datapoints: the dense-urban world at K = 512, once per
    // CDF-inversion strategy. The small fleet needs many slots for a stable
    // wall-clock reading, so the slot count is scaled up from `--slots`.
    let dense_slots = (slots * 50).max(500);
    if wanted("dense_urban") {
        let (linear_total, linear_sampling) =
            measure_dense(SamplerStrategy::Linear, dense_slots, threads);
        let (alias_total, alias_sampling) =
            measure_dense(SamplerStrategy::Alias, dense_slots, threads);
        let dense_extra = |sampler: SamplerStrategy, sampling_rate: f64| {
            format!(
                ",\"sampler\":\"{sampler:?}\",\"networks\":{DENSE_NETWORKS},\
                 \"sampling_decisions_per_sec\":{sampling_rate:.0}"
            )
        };
        let dense_record = |sampler: SamplerStrategy, total: f64, sampling: f64| Record {
            bench: "scenario_throughput/dense_urban",
            world: "dense_urban",
            feedback: "partitioned",
            policy: "Exp3",
            sessions: DENSE_SESSIONS,
            slots: dense_slots,
            threads,
            decisions_per_sec: total,
            extra: dense_extra(sampler, sampling),
        };
        records.push(dense_record(
            SamplerStrategy::Linear,
            linear_total,
            linear_sampling,
        ));
        records.push(dense_record(
            SamplerStrategy::Alias,
            alias_total,
            alias_sampling,
        ));
        eprintln!(
            "dense_urban K={DENSE_NETWORKS}: linear {:.2}M vs alias {:.2}M total; \
             sampling phase linear {:.2}M / alias {:.2}M (alias/linear {:.2}x)",
            linear_total / 1e6,
            alias_total / 1e6,
            linear_sampling / 1e6,
            alias_sampling / 1e6,
            alias_sampling / linear_sampling
        );
    }

    // The alias headline: duty-cycled dense world (K = 512, cadences 2/4/8),
    // both samplers measured interleaved through the wake queue. The
    // band covers the sampling-phase rate — the metric the strategy controls.
    if wanted("dense_duty_cycle") {
        let two_way = ab_dense_duty(dense_slots, threads);
        for (sampler, total, sampling) in &two_way {
            records.push(Record {
                bench: "scenario_throughput/dense_duty_cycle",
                world: "dense_duty_cycle",
                feedback: "partitioned",
                policy: "Exp3",
                sessions: DENSE_SESSIONS,
                slots: dense_slots,
                threads,
                decisions_per_sec: total.median,
                extra: format!(
                    ",\"stepping\":\"events\",\"sampler\":\"{sampler:?}\",\
                     \"networks\":{DENSE_NETWORKS},\"cadences\":\"2/4/8\",\
                     \"ab_runs\":{AB_RUNS},\
                     \"sampling_decisions_per_sec\":{:.0},\
                     \"sampling_band_min\":{:.0},\"sampling_band_max\":{:.0},\
                     \"host_cores\":{auto_threads}",
                    sampling.median, sampling.min, sampling.max
                ),
            });
        }
        let rate = |strategy: SamplerStrategy| {
            two_way
                .iter()
                .find(|(s, _, _)| *s == strategy)
                .map(|(_, _, sampling)| sampling.median)
                .unwrap_or(0.0)
        };
        let (linear, alias) = (rate(SamplerStrategy::Linear), rate(SamplerStrategy::Alias));
        eprintln!(
            "dense_duty_cycle K={DENSE_NETWORKS} cadences 2/4/8: sampling phase \
             linear {:.2}M / alias {:.2}M decisions/sec (alias/linear {:.2}x)",
            linear / 1e6,
            alias / 1e6,
            alias / linear.max(f64::EPSILON)
        );
    }

    if records.is_empty() {
        eprintln!(
            "error: --only `{}` matches no datapoint group",
            only.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }
    let mut contents = std::fs::read_to_string(&out).unwrap_or_default();
    if !contents.is_empty() && !contents.ends_with('\n') {
        contents.push('\n');
    }
    for record in &records {
        let line = record.render();
        println!("{line}");
        contents.push_str(&line);
        contents.push('\n');
    }
    if let Err(error) = std::fs::write(&out, contents) {
        eprintln!("error: cannot write {out}: {error}");
        std::process::exit(1);
    }
    if let (Some(partitioned_rate), Some(streaming_rate), Some(coop_rate)) =
        (partitioned_rate, streaming_rate, coop_rate)
    {
        eprintln!(
            "scenario {:.2}M (telemetry {:.2}M = {:+.1}%), cooperative {:.2}M decisions/sec \
             over {sessions} sessions x {slots} slots, {threads} threads -> appended to {out}",
            partitioned_rate / 1e6,
            streaming_rate / 1e6,
            (streaming_rate / partitioned_rate - 1.0) * 100.0,
            coop_rate / 1e6
        );
    } else {
        eprintln!(
            "{} records over {sessions} sessions x {slots} slots, {threads} threads -> appended \
             to {out}",
            records.len()
        );
    }
}
