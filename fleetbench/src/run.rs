//! One benchmark run: set up a workload, step it in a closed loop for the
//! requested time, check its outputs, checkpoint and restore it, and report
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! The end-to-end times are in reference seconds (see [`crate::machine`]):
//! process CPU time, scaled by the host's speed measured in the same run.
//! The window's wall and CPU time are printed beside them. The per-layer
//! spans are wall time; the per-layer checkpoint phases are in reference
//! seconds, like the end-to-end checkpoint times they add up to.

use crate::machine::{cpu_seconds, reference_rate, reference_tables, NOMINAL_REFERENCE_RATE};
use crate::sink::{QualitySink, SinkTotals};
use crate::trace::{
    CountingSink, EnvCounts, SpanLog, TracedEnv, ENV_BEGIN, ENV_END_SLOT, ENV_FEEDBACK,
    SINK_RECORD, STEP,
};
use crate::workload::{Stepping, Workload, THREADS};
use smartexp3_core::Environment;
use smartexp3_engine::{FleetEngine, FleetMetrics, FleetSnapshot};
use smartexp3_env::Scenario;
use smartexp3_telemetry::TelemetrySink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed steps at the start of a run whose telemetry gives the quality
/// metrics; the checkpoint is taken right after them.
pub const QUALITY_STEPS: usize = 100;
/// Steps the restored fleet runs beside the original before the window.
const CONTINUE_STEPS: usize = 3;
/// CPU length of the window segments whose median rate gives
/// `decisions_per_s`; the reference kernel runs once after each.
const SEGMENT_S: f64 = 1.0;
/// Save/restore cycles of a traced run. The first warms the allocator and is
/// not reported: a cold encode of a few hundred megabytes runs a quarter
/// slower than the next one, by an amount that varies from run to run. An
/// untraced run reports no checkpoint times and makes one cycle.
const TRACED_CHECKPOINT_CYCLES: usize = 2;
/// Builds of the world per run (the measured one, discarded ones, and the
/// restore target); `setup_s` is their median.
const SETUP_BUILDS: usize = 7;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the world and its fleet.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether to run with the layer instruments attached.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness checks counted against the number attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.expect_many(1, u64::from(!ok), what);
    }

    fn expect_many(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{} ({failed} of {attempted})", what()));
        }
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Checks,
    /// Human-readable context lines.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Option<Arc<SpanLog>>,
}

/// The measured world's environment, bare or wrapped in the instruments.
enum World {
    Plain(Box<dyn Environment>),
    Traced(Box<TracedEnv>),
}

impl World {
    fn env(&mut self) -> &mut dyn Environment {
        match self {
            World::Plain(env) => env.as_mut(),
            World::Traced(env) => env.as_mut(),
        }
    }

    fn counts(&self) -> EnvCounts {
        match self {
            World::Plain(_) => EnvCounts::default(),
            World::Traced(env) => env.counts(),
        }
    }
}

/// The measured world's sink, bare or wrapped in the counting sink.
enum Sink {
    Plain(QualitySink),
    Counted(CountingSink<QualitySink>),
}

impl Sink {
    fn sink(&mut self) -> &mut dyn TelemetrySink {
        match self {
            Sink::Plain(sink) => sink,
            Sink::Counted(sink) => sink,
        }
    }

    fn quality(&mut self) -> &mut QualitySink {
        match self {
            Sink::Plain(sink) => sink,
            Sink::Counted(sink) => sink.inner_mut(),
        }
    }
}

/// Advances `fleet` by one call of the workload's step function; `false`
/// when an event-driven fleet has nothing left to do.
fn step(
    fleet: &mut FleetEngine,
    env: &mut dyn Environment,
    sink: &mut dyn TelemetrySink,
    stepping: Stepping,
) -> bool {
    match stepping {
        Stepping::Sync => {
            fleet.step_env_with_sink(env, Some(sink));
            true
        }
        Stepping::Events => fleet.step_events_with_sink(env, Some(sink)).is_some(),
    }
}

/// One step of the measured world, wrapped in a step span when `spans` is
/// given; returns whether the fleet progressed and the call's CPU time.
fn measured_step(
    fleet: &mut FleetEngine,
    world: &mut World,
    sink: &mut Sink,
    stepping: Stepping,
    spans: Option<&SpanLog>,
) -> (bool, f64) {
    let span = spans.map(SpanLog::open_step);
    let start = cpu_seconds();
    let progressed = step(fleet, world.env(), sink.sink(), stepping);
    let seconds = cpu_seconds() - start;
    if let (Some(spans), Some(span)) = (spans, span) {
        spans.close_step(span);
    }
    (progressed, seconds)
}

/// Runs `f`, returning its result and the CPU seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = cpu_seconds();
    let result = f();
    (result, cpu_seconds() - start)
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Decision rates of consecutive window segments of at least
/// [`SEGMENT_S`] step CPU time each (a trailing shorter segment counts only
/// when it is the only one).
fn segment_rates(step_s: &[f64], step_decisions: &[u64]) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut seconds, mut decisions) = (0.0, 0u64);
    for (s, d) in step_s.iter().zip(step_decisions) {
        seconds += s;
        decisions += d;
        if seconds >= SEGMENT_S {
            rates.push(decisions as f64 / seconds);
            (seconds, decisions) = (0.0, 0);
        }
    }
    if rates.is_empty() && seconds > 0.0 {
        rates.push(decisions as f64 / seconds);
    }
    rates
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summed `PolicyStats` counters the core layer reports.
#[derive(Debug, Clone, Copy, Default)]
struct CoreCounts {
    rebuilds: u64,
    overlay_hits: u64,
    resets: u64,
}

impl CoreCounts {
    fn of(metrics: &FleetMetrics) -> CoreCounts {
        metrics
            .per_kind
            .iter()
            .fold(CoreCounts::default(), |acc, (_, kind)| CoreCounts {
                rebuilds: acc.rebuilds + kind.policy.sampler_rebuilds,
                overlay_hits: acc.overlay_hits + kind.policy.overlay_hits,
                resets: acc.resets + kind.policy.resets,
            })
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload as `options` describe.
///
/// # Panics
///
/// Panics when the world cannot be built or checkpointed at all; every
/// recoverable problem is a failed check instead.
#[must_use]
pub fn run(options: &Options) -> Outcome {
    let workload = options.workload;
    let stepping = workload.stepping();
    let sessions = workload.sessions();
    let mut checks = Checks::default();

    // Set-up: the measured world, then discarded builds so the median has
    // company; the restore target below is the last build.
    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    let (scenario, seconds) = timed(|| workload.build(options.seed));
    setup_s.push(seconds);
    for _ in 2..SETUP_BUILDS {
        let (extra, seconds) = timed(|| workload.build(options.seed));
        setup_s.push(seconds);
        drop(extra);
    }
    let Scenario {
        environment,
        mut fleet,
        ..
    } = scenario;
    let spans = Arc::new(SpanLog::default());
    let (mut world, mut sink) = if options.trace {
        (
            World::Traced(Box::new(TracedEnv::new(environment, Arc::clone(&spans)))),
            Sink::Counted(CountingSink::new(
                QualitySink::default(),
                Arc::clone(&spans),
            )),
        )
    } else {
        (
            World::Plain(environment),
            Sink::Plain(QualitySink::default()),
        )
    };

    let traced_spans = options.trace.then_some(spans.as_ref());
    // The quality metrics come from a fixed number of steps, which keeps
    // them a deterministic function of the seed; the steps also warm the
    // buffers before the window.
    sink.quality().quality_window = true;
    for _ in 0..QUALITY_STEPS {
        measured_step(&mut fleet, &mut world, &mut sink, stepping, traced_spans);
    }
    sink.quality().quality_window = false;

    // Checkpoint at this fixed point of the run, so its size is a function
    // of the seed alone, then restore into a freshly built world; a second
    // cycle restores into the same world again, overwriting it. The
    // restored fleet continues beside the original for a few steps and is
    // dropped before the window.
    let (fresh, seconds) = timed(|| workload.build(options.seed));
    setup_s.push(seconds);
    let Scenario {
        environment: fresh_env,
        fleet: fresh_fleet,
        ..
    } = fresh;
    drop(fresh_fleet);
    let mut restored_env =
        TracedEnv::new(fresh_env, Arc::new(SpanLog::default())).checking_observations();
    let mut ckpt = [0.0; 4];
    let (mut text_bytes, mut env_state_bytes, mut fleet_bytes) = (0, 0, 0);
    let mut restored: Option<FleetEngine> = None;
    let cycles = if options.trace {
        TRACED_CHECKPOINT_CYCLES
    } else {
        1
    };
    for cycle in 0..cycles {
        // Free the previous cycle's fleet before this cycle allocates.
        restored.take();
        let (mut snapshot, snapshot_s) = timed(|| {
            fleet
                .snapshot_env(world.env())
                .expect("the benchmark worlds support checkpointing")
        });
        let (text, encode_s) = timed(|| {
            snapshot
                .to_json()
                .expect("a fleet of EXP3-family sessions serializes")
        });
        text_bytes = text.len();
        env_state_bytes = snapshot.environment.as_ref().map_or(0, String::len);
        if options.trace && cycle == 0 {
            snapshot.environment = None;
            fleet_bytes = snapshot.to_json().map_or(0, |fleet_only| fleet_only.len());
        }
        drop(snapshot);
        let (parsed, parse_s) = timed(|| serde_json::from_str::<FleetSnapshot>(&text));
        drop(text);
        let (engine, rebuild_s) = match parsed {
            Ok(parsed) => timed(|| {
                FleetEngine::from_snapshot_env(parsed, &mut restored_env)
                    .map_err(|error| error.to_string())
            }),
            Err(error) => (Err(error.to_string()), 0.0),
        };
        ckpt = [snapshot_s, encode_s, parse_s, rebuild_s];
        checks.expect(engine.is_ok(), || {
            format!(
                "restore failed: {}",
                engine.as_ref().err().cloned().unwrap_or_default()
            )
        });
        restored = engine.ok();
    }
    if let Some(mut restored) = restored {
        let mut restored_sink = QualitySink::default();
        for _ in 0..CONTINUE_STEPS {
            let observations = restored_env.counts();
            measured_step(&mut fleet, &mut world, &mut sink, stepping, traced_spans);
            step(
                &mut restored,
                &mut restored_env,
                &mut restored_sink,
                stepping,
            );
            checks.expect(fleet.last_choices() == restored.last_choices(), || {
                "the restored fleet chose differently".to_string()
            });
            let observed = restored_env.counts().since(&observations);
            checks.expect(
                observed.observations_checked > 0 && observed.observations_bad == 0,
                || "an observation gain was non-finite or outside [0, 1]".to_string(),
            );
        }
        checks.expect(world.env().state() == restored_env.state(), || {
            "the restored world's state diverged".to_string()
        });
    }
    // The program holds one world; the restore target must not stay
    // resident through the window.
    drop(restored_env);

    // The timed window: a closed loop, one step call after the other.
    let before = fleet.metrics();
    let sink_before = sink.quality().totals();
    let env_before = world.counts();
    let span_cursor = spans.cursor();
    let budget = Duration::from_secs_f64(options.seconds);
    let mut step_s: Vec<f64> = Vec::new();
    let mut step_decisions: Vec<u64> = Vec::new();
    // The reference tables live only through the window, so they stay
    // below the checkpoint phase's peak RSS.
    let mut tables = reference_tables(THREADS);
    let mut reference = vec![reference_rate(&mut tables)];
    let mut segment_s = 0.0;
    let window_cpu_start = cpu_seconds();
    let window_start = Instant::now();
    loop {
        let chosen_before = sink.quality().totals().active;
        let (progressed, seconds) =
            measured_step(&mut fleet, &mut world, &mut sink, stepping, traced_spans);
        step_s.push(seconds);
        step_decisions.push(sink.quality().totals().active - chosen_before);
        segment_s += seconds;
        if segment_s >= SEGMENT_S {
            segment_s = 0.0;
            reference.push(reference_rate(&mut tables));
        }
        if !progressed {
            checks.expect(false, || "the wake queue ran dry".to_string());
            break;
        }
        if fleet.slot() >= workload.horizon() || window_start.elapsed() >= budget {
            break;
        }
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let window_cpu_s = cpu_seconds() - window_cpu_start;
    reference.push(reference_rate(&mut tables));
    drop(tables);
    // Reference seconds per CPU second: above 1 on a fast host.
    let host_speed = median(&reference) / NOMINAL_REFERENCE_RATE;
    let window_spans = span_cursor..spans.cursor();
    let after = fleet.metrics();
    let window_sink = sink.quality().totals().since(&sink_before);
    let window_env = world.counts().since(&env_before);
    let decisions = after.decisions - before.decisions;

    // Output checks.
    let expected = workload.expected_decisions(fleet.slot());
    checks.expect(after.decisions == expected, || {
        format!(
            "decisions {} differ from the schedule's {expected}",
            after.decisions
        )
    });
    let totals: SinkTotals = sink.quality().totals();
    checks.expect(
        totals.graded == after.decisions && totals.active == after.decisions,
        || {
            format!(
                "telemetry graded {} / active {} sessions for {} decisions",
                totals.graded, totals.active, after.decisions
            )
        },
    );
    checks.expect_many(totals.records, totals.bad_records, || {
        "telemetry records with gains outside [0, 1] or unbalanced counts".to_string()
    });

    // Metrics.
    let [snapshot_s, encode_s, parse_s, rebuild_s] = ckpt.map(|cpu_s| cpu_s * host_speed);
    let mut sorted: Vec<f64> = step_s.iter().map(|cpu_s| cpu_s * host_speed).collect();
    sorted.sort_by(f64::total_cmp);
    let decisions_per_cpu_s = median(&segment_rates(&step_s, &step_decisions));
    let decisions_per_s = decisions_per_cpu_s / host_speed;
    let steps = step_s.len() as u64;
    let quality = sink.quality().quality();
    let mut notes = vec![
        format!(
            "workload={} seed={} threads={THREADS} host_cores={} stepping={stepping:?} sessions={sessions}",
            workload.name(),
            options.seed,
            host_cores()
        ),
        format!(
            "host: reference kernel at {:.0} updates per CPU second (median of {} samples), {host_speed:.4} reference seconds per CPU second",
            median(&reference),
            reference.len()
        ),
        format!(
            "window: {steps} steps, {decisions} decisions in {window_s:.3} s wall / {window_cpu_s:.3} s CPU ({:.1} decisions per wall second, {:.1} per CPU second overall, {decisions_per_cpu_s:.1} median of {SEGMENT_S} CPU-second segments, {decisions_per_s:.1} per reference second); step percentiles over {steps} samples; quality over {QUALITY_STEPS} steps before it ({} decisions)",
            decisions as f64 / window_s,
            decisions as f64 / window_cpu_s,
            quality.sessions
        ),
    ];

    let metrics = if options.trace {
        let step_total = spans.totals(STEP, window_spans.clone()).1;
        let (begin_calls, begin_s) = spans.totals(ENV_BEGIN, window_spans.clone());
        let (feedback_calls, feedback_s) = spans.totals(ENV_FEEDBACK, window_spans.clone());
        let end_slot_s = spans.totals(ENV_END_SLOT, window_spans.clone()).1;
        let (records, sink_s) = spans.totals(SINK_RECORD, window_spans.clone());
        let env_busy = begin_s + feedback_s + end_slot_s;
        let self_s = step_total - env_busy - sink_s;
        // The ledger holds only if every boundary span lies inside a step of
        // the window, so no span is counted outside the step time it is
        // subtracted from.
        let (boundary_spans, stray_spans) = spans.stray_spans(window_spans.clone());
        checks.expect_many(boundary_spans, stray_spans, || {
            "boundary spans outside the window's step spans".to_string()
        });
        checks.expect(self_s >= 0.0, || {
            format!("env busy + sink time exceed the step time by {} s", -self_s)
        });
        let core_before = CoreCounts::of(&before);
        let core_after = CoreCounts::of(&after);
        let per_decision = |count: u64| count as f64 / decisions.max(1) as f64;
        notes.push(format!(
            "ledger: env busy {env_busy:.6} s + telemetry sink {sink_s:.6} s + engine self {self_s:.6} s = engine step {step_total:.6} s"
        ));
        vec![
            metric("engine.steps", steps as f64, "count"),
            metric(
                "engine.idle_steps",
                (steps - window_sink.records) as f64,
                "count",
            ),
            metric(
                "engine.cohort_mean",
                decisions as f64 / window_sink.records.max(1) as f64,
                "decisions",
            ),
            metric("engine.step_s", step_total, "s"),
            metric("engine.begin_s", window_sink.begin_s, "s"),
            metric("engine.choose_s", window_sink.choose_s, "s"),
            metric("engine.feedback_s", window_sink.feedback_s, "s"),
            metric("engine.observe_s", window_sink.observe_s, "s"),
            metric(
                "engine.unphased_s",
                step_total - window_sink.phased_s(),
                "s",
            ),
            metric("engine.self_s", self_s, "s"),
            metric("env.begin_calls", begin_calls as f64, "count"),
            metric("env.begin_s", begin_s, "s"),
            metric("env.feedback_calls", feedback_calls as f64, "count"),
            metric("env.feedback_s", feedback_s, "s"),
            metric("env.end_slot_s", end_slot_s, "s"),
            metric(
                "env.feedback_jobs",
                window_env.feedback_jobs as f64,
                "count",
            ),
            metric(
                "env.feedback_job_busy_s",
                window_env.feedback_job_busy_ns as f64 * 1e-9,
                "s",
            ),
            metric(
                "env.feedback_useful_ratio",
                window_env.useful_jobs as f64 / window_env.feedback_jobs.max(1) as f64,
                "ratio",
            ),
            metric(
                "env.session_view_per_decision",
                per_decision(window_env.session_views),
                "calls/decision",
            ),
            metric("env.next_wake_calls", window_env.next_wake as f64, "count"),
            metric(
                "env.next_env_event_calls",
                window_env.next_env_event as f64,
                "count",
            ),
            metric(
                "core.sampler_rebuilds_per_decision",
                per_decision(core_after.rebuilds - core_before.rebuilds),
                "1/decision",
            ),
            metric(
                "core.overlay_hits_per_decision",
                per_decision(core_after.overlay_hits - core_before.overlay_hits),
                "1/decision",
            ),
            metric(
                "core.resets",
                (core_after.resets - core_before.resets) as f64,
                "count",
            ),
            metric("telemetry.records", records as f64, "count"),
            metric("telemetry.sink_s", sink_s, "s"),
            metric("ckpt.snapshot_s", snapshot_s, "s"),
            metric("ckpt.encode_s", encode_s, "s"),
            metric("ckpt.parse_s", parse_s, "s"),
            metric("ckpt.rebuild_s", rebuild_s, "s"),
            metric("ckpt.env_state_bytes", env_state_bytes as f64, "bytes"),
            metric("ckpt.fleet_bytes", fleet_bytes as f64, "bytes"),
            metric("traced.decisions_per_s", decisions_per_s, "1/s"),
        ]
    } else {
        vec![
            metric("decisions_per_s", decisions_per_s, "1/s"),
            metric("step_p50_ms", percentile(&sorted, 50.0) * 1e3, "ms"),
            metric("step_p90_ms", percentile(&sorted, 90.0) * 1e3, "ms"),
            metric("setup_s", median(&setup_s) * host_speed, "s"),
            metric(
                "checkpoint_bytes_per_session",
                text_bytes as f64 / sessions as f64,
                "bytes",
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric("goodput_mbps", quality.goodput_mbps(), "Mbps"),
            metric(
                "switches_per_decision",
                quality.switches_per_decision(),
                "1/decision",
            ),
            metric("distance_to_eq_pct", quality.distance_to_eq_pct(), "%"),
            metric("jain_fairness", quality.jain_fairness(), "index"),
        ]
    };
    for metric in &metrics {
        checks.expect(metric.value.is_finite(), || {
            format!("metric {} is not finite", metric.name)
        });
    }
    notes.push(format!(
        "checks: {} attempted, {} failed, failed_ratio = {}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    ));

    Outcome {
        metrics,
        checks,
        notes,
        spans: options.trace.then_some(spans),
    }
}

/// Cores the host offers this process.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
