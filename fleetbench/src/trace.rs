//! Observation-only instruments placed at the public layer boundaries:
//! a forwarding [`Environment`] wrapper ([`TracedEnv`]), a timed
//! [`PartitionExecutor`] ([`TimedExecutor`]) and a counting
//! [`TelemetrySink`] ([`CountingSink`]). Spans are kept in memory in a
//! [`SpanLog`] and written out when the run ends.
//!
//! None of the instruments changes what it wraps: every call is forwarded
//! unchanged, so a traced world takes the same decisions and reaches the same
//! `state()` as an untraced one (see `tests/observation.rs`).

use smartexp3_core::{
    EnvStateError, Environment, NetworkId, Observation, PartitionExecutor, PartitionJob,
    SessionRange, SessionView, SharedFeedback, SlotIndex, SlotMetrics,
};
use smartexp3_telemetry::{TelemetryRecord, TelemetrySink};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names recorded at the layer boundaries.
pub const STEP: &str = "engine.step";
/// `begin_slot` / `begin_slot_partitioned`.
pub const ENV_BEGIN: &str = "env.begin";
/// `feedback` / `feedback_partitioned`.
pub const ENV_FEEDBACK: &str = "env.feedback";
/// `end_slot`.
pub const ENV_END_SLOT: &str = "env.end_slot";
/// `TelemetrySink::record`.
pub const SINK_RECORD: &str = "telemetry.record";

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name (one of the constants above).
    pub name: &'static str,
    /// Index of the span that caused this one (the enclosing step), if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store shared by every instrument of one world. Spans are
/// indexed by insertion order; the index is the span's identifier.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Index of the open step span, or `usize::MAX` outside a step.
    parent: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            parent: AtomicUsize::new(usize::MAX),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }

    /// Opens a step span; boundary spans recorded until [`close_step`]
    /// name it as their parent. Returns its index.
    ///
    /// [`close_step`]: Self::close_step
    pub fn open_step(&self) -> usize {
        let start = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: STEP,
            parent: None,
            start_ns: start,
            end_ns: start,
        });
        let index = spans.len() - 1;
        self.parent.store(index, Ordering::Relaxed);
        index
    }

    /// Closes the step span `index`.
    pub fn close_step(&self, index: usize) {
        let end = self.now_ns();
        self.parent.store(usize::MAX, Ordering::Relaxed);
        self.lock()[index].end_ns = end;
    }

    /// Times `f` as a span named `name` under the open step.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let parent = match self.parent.load(Ordering::Relaxed) {
            usize::MAX => None,
            index => Some(index),
        };
        self.lock().push(Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        });
        result
    }

    /// Number of spans recorded so far: a cursor for [`totals`].
    ///
    /// [`totals`]: Self::totals
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.lock().len()
    }

    /// Count and summed seconds of the spans named `name` among those
    /// recorded between cursors `range.start` and `range.end`.
    #[must_use]
    pub fn totals(&self, name: &str, range: std::ops::Range<usize>) -> (u64, f64) {
        self.lock()[range]
            .iter()
            .filter(|span| span.name == name)
            .fold((0, 0.0), |(count, seconds), span| {
                (count + 1, seconds + span.seconds())
            })
    }

    /// Of the boundary spans (every span but the steps) recorded between
    /// cursors `range.start` and `range.end`: how many there are, and how
    /// many do not lie inside a step span of that range.
    #[must_use]
    pub fn stray_spans(&self, range: std::ops::Range<usize>) -> (u64, u64) {
        let spans = self.lock();
        let inside_step = |span: &Span| {
            span.parent.is_some_and(|parent| {
                range.contains(&parent) && {
                    let step = &spans[parent];
                    step.name == STEP
                        && step.start_ns <= span.start_ns
                        && span.end_ns <= step.end_ns
                }
            })
        };
        spans[range.clone()]
            .iter()
            .filter(|span| span.name != STEP)
            .fold((0, 0), |(count, stray), span| {
                (count + 1, stray + u64::from(!inside_step(span)))
            })
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.lock().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counters of the environment boundary that are not spans.
#[derive(Debug, Default)]
pub struct EnvCounters {
    /// `session_view` calls (made concurrently from the engine's workers).
    pub session_views: AtomicU64,
    /// `next_wake` calls.
    pub next_wake: AtomicU64,
    /// `next_env_event` calls.
    pub next_env_event: AtomicU64,
    /// Feedback jobs handed to the executor.
    pub feedback_jobs: AtomicU64,
    /// Nanoseconds the feedback jobs ran, summed over worker threads.
    pub feedback_job_busy_ns: AtomicU64,
    /// Feedback jobs whose partition held at least one choice.
    pub useful_jobs: AtomicU64,
    /// Observations checked for a finite gain in `[0, 1]`.
    pub observations_checked: AtomicU64,
    /// Observations that failed that check.
    pub observations_bad: AtomicU64,
}

/// A plain-number copy of [`EnvCounters`], for window deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvCounts {
    /// See [`EnvCounters::session_views`].
    pub session_views: u64,
    /// See [`EnvCounters::next_wake`].
    pub next_wake: u64,
    /// See [`EnvCounters::next_env_event`].
    pub next_env_event: u64,
    /// See [`EnvCounters::feedback_jobs`].
    pub feedback_jobs: u64,
    /// See [`EnvCounters::feedback_job_busy_ns`].
    pub feedback_job_busy_ns: u64,
    /// See [`EnvCounters::useful_jobs`].
    pub useful_jobs: u64,
    /// See [`EnvCounters::observations_checked`].
    pub observations_checked: u64,
    /// See [`EnvCounters::observations_bad`].
    pub observations_bad: u64,
}

impl EnvCounts {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &EnvCounts) -> EnvCounts {
        EnvCounts {
            session_views: self.session_views - earlier.session_views,
            next_wake: self.next_wake - earlier.next_wake,
            next_env_event: self.next_env_event - earlier.next_env_event,
            feedback_jobs: self.feedback_jobs - earlier.feedback_jobs,
            feedback_job_busy_ns: self.feedback_job_busy_ns - earlier.feedback_job_busy_ns,
            useful_jobs: self.useful_jobs - earlier.useful_jobs,
            observations_checked: self.observations_checked - earlier.observations_checked,
            observations_bad: self.observations_bad - earlier.observations_bad,
        }
    }
}

/// A [`PartitionExecutor`] that times every job it forwards.
pub struct TimedExecutor<'a> {
    inner: &'a dyn PartitionExecutor,
    counters: &'a EnvCounters,
}

impl<'a> TimedExecutor<'a> {
    /// Wraps `inner`, accumulating job counts and busy time into `counters`.
    #[must_use]
    pub fn new(inner: &'a dyn PartitionExecutor, counters: &'a EnvCounters) -> Self {
        TimedExecutor { inner, counters }
    }
}

impl PartitionExecutor for TimedExecutor<'_> {
    fn run(&self, jobs: Vec<PartitionJob<'_>>) {
        let counters = self.counters;
        counters
            .feedback_jobs
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let timed: Vec<PartitionJob<'_>> = jobs
            .into_iter()
            .map(|job| {
                Box::new(move || {
                    let start = Instant::now();
                    job();
                    counters
                        .feedback_job_busy_ns
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }) as PartitionJob<'_>
            })
            .collect();
        self.inner.run(timed);
    }
}

/// A forwarding [`Environment`]: every trait method goes to the wrapped
/// world unchanged, while the sequential phase calls are recorded as spans
/// and the rest are counted.
pub struct TracedEnv {
    inner: Box<dyn Environment>,
    spans: Arc<SpanLog>,
    counters: EnvCounters,
    check_observations: bool,
}

impl TracedEnv {
    /// Wraps `inner`, recording spans into `spans`.
    #[must_use]
    pub fn new(inner: Box<dyn Environment>, spans: Arc<SpanLog>) -> Self {
        TracedEnv {
            inner,
            spans,
            counters: EnvCounters::default(),
            check_observations: false,
        }
    }

    /// Also checks, after every feedback call, that each observation's
    /// scaled gain is finite and in `[0, 1]` (an O(sessions) scan).
    #[must_use]
    pub fn checking_observations(mut self) -> Self {
        self.check_observations = true;
        self
    }

    /// Current values of the non-span counters.
    #[must_use]
    pub fn counts(&self) -> EnvCounts {
        let c = &self.counters;
        EnvCounts {
            session_views: c.session_views.load(Ordering::Relaxed),
            next_wake: c.next_wake.load(Ordering::Relaxed),
            next_env_event: c.next_env_event.load(Ordering::Relaxed),
            feedback_jobs: c.feedback_jobs.load(Ordering::Relaxed),
            feedback_job_busy_ns: c.feedback_job_busy_ns.load(Ordering::Relaxed),
            useful_jobs: c.useful_jobs.load(Ordering::Relaxed),
            observations_checked: c.observations_checked.load(Ordering::Relaxed),
            observations_bad: c.observations_bad.load(Ordering::Relaxed),
        }
    }

    /// Counts the advertised partitions that hold at least one choice —
    /// the feedback jobs that had work to do. Runs outside the feedback span.
    fn count_useful_partitions(&self, choices: &[Option<NetworkId>]) {
        let Some(ranges) = self.inner.feedback_partitions() else {
            return;
        };
        let useful = ranges
            .iter()
            .filter(|range| {
                choices
                    .get(range.start..range.end)
                    .is_some_and(|part| part.iter().any(Option::is_some))
            })
            .count();
        self.counters
            .useful_jobs
            .fetch_add(useful as u64, Ordering::Relaxed);
    }

    fn check(&self, out: &[Option<Observation>]) {
        if !self.check_observations {
            return;
        }
        let mut checked = 0u64;
        let mut bad = 0u64;
        for observation in out.iter().flatten() {
            checked += 1;
            let gain = observation.scaled_gain;
            if !(gain.is_finite() && (0.0..=1.0).contains(&gain)) {
                bad += 1;
            }
        }
        let c = &self.counters;
        c.observations_checked.fetch_add(checked, Ordering::Relaxed);
        c.observations_bad.fetch_add(bad, Ordering::Relaxed);
    }
}

impl Environment for TracedEnv {
    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        let inner = &mut self.inner;
        self.spans.time(ENV_BEGIN, || inner.begin_slot(slot));
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        let inner = &mut self.inner;
        self.spans
            .time(ENV_BEGIN, || inner.begin_slot_partitioned(slot, executor));
    }

    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_> {
        self.counters.session_views.fetch_add(1, Ordering::Relaxed);
        self.inner.session_view(session, slot)
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        let inner = &mut self.inner;
        self.spans
            .time(ENV_FEEDBACK, || inner.feedback(slot, choices, out));
        self.check(out);
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
        let timed = TimedExecutor::new(executor, &self.counters);
        let inner = &mut self.inner;
        self.spans.time(ENV_FEEDBACK, || {
            inner.feedback_partitioned(slot, choices, out, &timed);
        });
        self.count_useful_partitions(choices);
        self.check(out);
    }

    fn shares_feedback(&self) -> bool {
        self.inner.shares_feedback()
    }

    fn shared_feedback_into(&self, session: usize, out: &mut SharedFeedback) -> bool {
        self.inner.shared_feedback_into(session, out)
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
        let inner = &mut self.inner;
        self.spans
            .time(ENV_END_SLOT, || inner.end_slot(slot, choices, tops));
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        self.inner.set_telemetry(enabled)
    }

    fn telemetry(&self) -> Option<&SlotMetrics> {
        self.inner.telemetry()
    }

    fn wake_cadence(&self, session: usize) -> usize {
        self.inner.wake_cadence(session)
    }

    fn first_wake(&self, session: usize) -> SlotIndex {
        self.inner.first_wake(session)
    }

    fn next_wake(&self, session: usize, woke_at: SlotIndex) -> SlotIndex {
        self.counters.next_wake.fetch_add(1, Ordering::Relaxed);
        self.inner.next_wake(session, woke_at)
    }

    fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
        self.counters.next_env_event.fetch_add(1, Ordering::Relaxed);
        self.inner.next_env_event(from)
    }

    fn state(&self) -> Option<String> {
        self.inner.state()
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        self.inner.restore(state)
    }
}

/// A [`TelemetrySink`] that records a span around every record it forwards.
pub struct CountingSink<S> {
    inner: S,
    spans: Arc<SpanLog>,
}

impl<S: TelemetrySink> CountingSink<S> {
    /// Wraps `inner`, recording spans into `spans`.
    #[must_use]
    pub fn new(inner: S, spans: Arc<SpanLog>) -> Self {
        CountingSink { inner, spans }
    }

    /// The wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: TelemetrySink> TelemetrySink for CountingSink<S> {
    fn record(&mut self, record: &TelemetryRecord) {
        let inner = &mut self.inner;
        self.spans.time(SINK_RECORD, || inner.record(record));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
