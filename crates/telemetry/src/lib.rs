//! Streaming fleet telemetry.
//!
//! The dense [`netsim`] recorder keeps one `SelectionRecord` per session per
//! slot, which is fine at paper scale (tens of devices) and hopeless at fleet
//! scale (millions of sessions). This crate provides the memory-bounded
//! alternative: per-partition [`SlotMetrics`] accumulators that environments
//! fill while they grade sessions inside `feedback_partitioned`, merge in
//! canonical partition order (so the resulting series is bit-identical at any
//! thread count and with partitioning on or off), and expose once per slot.
//!
//! The engine pairs each slot's metrics with a [`SlotTiming`] (wall-clock
//! phase breakdown, explicitly *excluded* from determinism contracts) into a
//! [`TelemetryRecord`] and hands it to a [`TelemetrySink`]: either the
//! in-memory [`RingSink`] for tests and experiments, or the [`JsonlSink`]
//! that appends one compact JSON line per slot to a file a dashboard can
//! tail (`tail -f telemetry.jsonl`).
//!
//! Everything here is plain accumulation — no per-session allocation, no
//! `log2` calls (histogram buckets come from the f64 exponent bits), and no
//! dependence on session count, so telemetry stays within a few percent of
//! the untracked decision rate.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Fixed-layout histogram with logarithmically spaced (power-of-two) buckets.
///
/// Bucket `0` collects everything that is not a positive normal value above
/// the smallest edge (zero, negatives, NaN and values below `2^min_exp`);
/// bucket `i ≥ 1` collects values in `[2^(min_exp+i-1), 2^(min_exp+i))`, and
/// the last bucket additionally absorbs everything larger. The bucket index
/// is derived from the IEEE-754 exponent bits, so recording costs a shift and
/// a clamp rather than a `log2` call.
///
/// Two histograms can only be [`merge`](Histogram::merge)d when they share a
/// layout (same `min_exp`, same bucket count). Merging adds counts and sums,
/// which makes it exactly associative and commutative on the counts and
/// associative up to f64 rounding on the sum — the engine only ever merges in
/// canonical partition order, so the sums are reproducible too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Exponent of the lower edge of bucket 1 (the first "real" bucket).
    min_exp: i32,
    /// Per-bucket counts; `counts[0]` is the underflow bucket.
    counts: Vec<u64>,
    /// Sum of every recorded value (including underflow/overflow values).
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets whose first real bucket
    /// starts at `2^min_exp`. `buckets` must be at least 2 (underflow plus
    /// one real bucket).
    #[must_use]
    pub fn new(min_exp: i32, buckets: usize) -> Self {
        assert!(
            buckets >= 2,
            "histogram needs an underflow and a real bucket"
        );
        Histogram {
            min_exp,
            counts: vec![0; buckets],
            sum: 0.0,
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        // IEEE-754 exponent without log2(): biased exponent lives in bits
        // 52..63. Subnormals decode to -1023 and clamp into the underflow
        // bucket; infinities decode to +1024 and clamp into the last bucket.
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        let last = (self.counts.len() - 1) as i64;
        (exp - i64::from(self.min_exp) + 1).clamp(0, last) as usize
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `count` copies of one value in a single bucket update.
    pub fn record_n(&mut self, value: f64, count: u64) {
        let idx = self.bucket_index(value);
        self.counts[idx] += count;
        if !value.is_nan() {
            self.sum += value * count as f64;
        }
    }

    /// Adds another histogram's counts and sum into this one.
    ///
    /// # Panics
    /// Panics if the two histograms have different layouts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.min_exp, other.min_exp, "histogram layout mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram layout mismatch"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Resets all counts and the sum, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.sum = 0.0;
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded (non-NaN) values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The raw bucket counts, underflow bucket first.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Lower edge of bucket `i` (`None` for the underflow bucket 0).
    #[must_use]
    pub fn bucket_lower_edge(&self, i: usize) -> Option<f64> {
        if i == 0 || i >= self.counts.len() {
            return None;
        }
        Some(2.0_f64.powi(self.min_exp + i as i32 - 1))
    }

    /// Lower edge of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`) of
    /// the recorded values, or `None` when the histogram is empty. Values in
    /// the underflow bucket report `0.0`. The resolution is the bucket width
    /// (a factor of two), which is the usual log-bucket trade: percentile
    /// reads cost one O(buckets) scan and no per-sample storage.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the quantile sample: ceil(q·n), clamped into [1, n].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(self.bucket_lower_edge(i).unwrap_or(0.0));
            }
        }
        None
    }
}

/// Percentile summary of the queueing latency of one event-driven cohort's
/// decisions, read off a log-bucket [`Histogram`] (so percentiles have
/// power-of-two resolution).
///
/// The engine charges each decision the host time from cohort start until
/// the decision's shard began choosing: how long it queued within the
/// timestamp, read once per shard. It is not a per-decision wake delay.
/// Latency is measured with `Instant` on the host, like [`SlotTiming`]: it
/// is *not* part of any determinism contract, and two bit-identical runs
/// report different latencies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Decisions measured.
    pub count: u64,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Median (p50) latency in seconds.
    pub p50_s: f64,
    /// 95th-percentile latency in seconds.
    pub p95_s: f64,
    /// 99th-percentile latency in seconds.
    pub p99_s: f64,
}

impl LatencyStats {
    /// Summarises a latency histogram, or `None` when nothing was recorded.
    #[must_use]
    pub fn from_histogram(histogram: &Histogram) -> Option<LatencyStats> {
        let count = histogram.count();
        if count == 0 {
            return None;
        }
        Some(LatencyStats {
            count,
            mean_s: histogram.sum() / count as f64,
            p50_s: histogram.quantile(0.50).unwrap_or(0.0),
            p95_s: histogram.quantile(0.95).unwrap_or(0.0),
            p99_s: histogram.quantile(0.99).unwrap_or(0.0),
        })
    }
}

/// Fleet-wide sampler-acceleration counters, summed over every session's
/// weight table at record time.
///
/// Both counters are cumulative (monotone across a run's records) and
/// **deterministic** — they count structural events of the sampling
/// algorithm, not host timing — so they are identical at any thread count.
/// They stay 0 for fleets on the linear and tree sampler strategies; under
/// the alias strategy a climbing `rebuilds` slope is the signature of a
/// rebuild storm (weights churning faster than draws amortise the freeze).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerCounters {
    /// Alias-table freezes across the fleet so far.
    pub rebuilds: u64,
    /// Draws resolved through the dirty-arm overlay walk so far.
    pub overlay_hits: u64,
}

/// Per-slot (or per-partition) metric accumulator.
///
/// Environments fill one of these per feedback partition while grading
/// sessions, then the sequential cross-partition reduce merges them in
/// canonical partition order into the slot-level value exposed through
/// `Environment::telemetry`. Every operation is O(1) per session and the
/// struct owns a fixed amount of memory, so fleets of millions of sessions
/// pay a few counters per partition rather than a record per session.
///
/// Fairness follows the convention of `congestion_game::jain_index`: an empty
/// or all-zero population is vacuously fair (index 1.0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotMetrics {
    /// Sessions graded this slot.
    pub sessions: u64,
    /// Sessions that switched networks this slot.
    pub switches: u64,
    /// Sum of observed per-session goodput (Mbps).
    pub rate_sum: f64,
    /// Sum of squared observed goodput (for Jain's index).
    pub rate_sq_sum: f64,
    /// Sum of scaled gains handed to the policies.
    pub gain_sum: f64,
    /// Areas (partitions) that graded at least one session.
    pub areas: u64,
    /// Sum over areas of the per-area distance-to-equilibrium (percent).
    pub distance_sum: f64,
    /// Worst per-area distance-to-equilibrium (percent).
    pub distance_max: f64,
    /// Histogram of observed goodput (Mbps), buckets `2^-7 .. 2^10`.
    pub goodput: Histogram,
    /// Histogram of scaled gains, buckets `2^-11 .. 2^0`.
    pub gains: Histogram,
}

impl Default for SlotMetrics {
    fn default() -> Self {
        SlotMetrics::new()
    }
}

impl SlotMetrics {
    /// Creates an empty accumulator with the standard histogram layouts
    /// (goodput ~0.008–512 Mbps, gains ~0.0005–1).
    #[must_use]
    pub fn new() -> Self {
        SlotMetrics {
            sessions: 0,
            switches: 0,
            rate_sum: 0.0,
            rate_sq_sum: 0.0,
            gain_sum: 0.0,
            areas: 0,
            distance_sum: 0.0,
            distance_max: 0.0,
            goodput: Histogram::new(-7, 18),
            gains: Histogram::new(-11, 12),
        }
    }

    /// Records one graded session: the goodput it observed (Mbps), the scaled
    /// gain handed to its policy, and whether it switched networks.
    pub fn record_session(&mut self, rate_mbps: f64, scaled_gain: f64, switched: bool) {
        self.sessions += 1;
        self.switches += u64::from(switched);
        self.rate_sum += rate_mbps;
        self.rate_sq_sum += rate_mbps * rate_mbps;
        self.gain_sum += scaled_gain;
        self.goodput.record(rate_mbps);
        self.gains.record(scaled_gain);
    }

    /// Closes out one area's grading pass with its distance-to-equilibrium
    /// (percent). Call exactly once per area that graded at least one
    /// session.
    pub fn finish_area(&mut self, distance_percent: f64) {
        self.areas += 1;
        self.distance_sum += distance_percent;
        if distance_percent > self.distance_max {
            self.distance_max = distance_percent;
        }
    }

    /// Merges another accumulator into this one. Exact on the integer
    /// counters; the f64 sums depend on merge order, so callers must merge in
    /// a canonical order (the engine merges in partition order).
    pub fn merge(&mut self, other: &SlotMetrics) {
        self.sessions += other.sessions;
        self.switches += other.switches;
        self.rate_sum += other.rate_sum;
        self.rate_sq_sum += other.rate_sq_sum;
        self.gain_sum += other.gain_sum;
        self.areas += other.areas;
        self.distance_sum += other.distance_sum;
        if other.distance_max > self.distance_max {
            self.distance_max = other.distance_max;
        }
        self.goodput.merge(&other.goodput);
        self.gains.merge(&other.gains);
    }

    /// Resets everything to the empty state, keeping allocations.
    pub fn clear(&mut self) {
        self.sessions = 0;
        self.switches = 0;
        self.rate_sum = 0.0;
        self.rate_sq_sum = 0.0;
        self.gain_sum = 0.0;
        self.areas = 0;
        self.distance_sum = 0.0;
        self.distance_max = 0.0;
        self.goodput.clear();
        self.gains.clear();
    }

    /// Mean observed goodput (Mbps); 0 when no session was graded.
    #[must_use]
    pub fn mean_rate_mbps(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.rate_sum / self.sessions as f64
        }
    }

    /// Mean scaled gain; 0 when no session was graded.
    #[must_use]
    pub fn mean_gain(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.gain_sum / self.sessions as f64
        }
    }

    /// Fraction of graded sessions that switched networks.
    #[must_use]
    pub fn switch_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.switches as f64 / self.sessions as f64
        }
    }

    /// Jain's fairness index of the observed goodput, `(Σx)²/(n·Σx²)`.
    ///
    /// Follows the `congestion_game::jain_index` convention: 1.0 for an empty
    /// or all-zero population (vacuously fair).
    #[must_use]
    pub fn jain(&self) -> f64 {
        if self.sessions == 0 || self.rate_sq_sum == 0.0 {
            return 1.0;
        }
        self.rate_sum * self.rate_sum / (self.sessions as f64 * self.rate_sq_sum)
    }

    /// Mean per-area distance-to-equilibrium (percent); 0 with no areas.
    #[must_use]
    pub fn distance_mean(&self) -> f64 {
        if self.areas == 0 {
            0.0
        } else {
            self.distance_sum / self.areas as f64
        }
    }
}

/// Wall-clock breakdown of one engine slot, in seconds.
///
/// Timing is measured with `Instant` on the host and is *not* part of any
/// determinism contract: two bit-identical runs will report different
/// timings. Determinism tests must compare [`TelemetryRecord::metrics`] only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SlotTiming {
    /// Time spent in `Environment::begin_slot`.
    pub begin_slot_s: f64,
    /// Time spent choosing arms across all shards.
    pub choose_s: f64,
    /// Time spent in environment feedback (including partitioned grading).
    pub feedback_s: f64,
    /// Time spent observing rewards and in `Environment::end_slot`.
    pub observe_s: f64,
}

impl SlotTiming {
    /// Total measured wall time of the slot.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.begin_slot_s + self.choose_s + self.feedback_s + self.observe_s
    }
}

/// One slot of the fleet time series: the deterministic metrics plus the
/// non-deterministic wall-clock timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Engine slot index.
    pub slot: usize,
    /// Sessions that made a choice this slot.
    pub active: u64,
    /// Deterministic per-slot metrics (identical at any thread count).
    pub metrics: SlotMetrics,
    /// Wall-clock phase breakdown (excluded from determinism contracts).
    pub timing: SlotTiming,
    /// Queueing-latency percentiles for the decisions of this record (host
    /// time from cohort start until each decision's shard began choosing;
    /// see [`LatencyStats`]), measured by the event-driven engine path
    /// (`None` on the slot-synchronous path). Host wall-clock, excluded from
    /// determinism contracts like [`timing`](Self::timing).
    pub latency: Option<LatencyStats>,
    /// Cumulative fleet-wide sampler counters as of this record (`None` for
    /// producers that predate the alias sampler). Deterministic, unlike
    /// [`timing`](Self::timing).
    pub sampler: Option<SamplerCounters>,
}

/// Receives one [`TelemetryRecord`] per slot from the engine.
pub trait TelemetrySink: Send {
    /// Ingests one slot's record.
    fn record(&mut self, record: &TelemetryRecord);

    /// Flushes any buffered output.
    ///
    /// # Errors
    /// Returns the underlying I/O error for file-backed sinks.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Memory-bounded in-memory sink: keeps the most recent `capacity` records.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    records: VecDeque<TelemetryRecord>,
}

impl RingSink {
    /// Creates a ring that retains at most `capacity` records (≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            records: VecDeque::new(),
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TelemetryRecord> {
        self.records.iter()
    }

    /// The most recent record, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&TelemetryRecord> {
        self.records.back()
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no record has been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl TelemetrySink for RingSink {
    fn record(&mut self, record: &TelemetryRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record.clone());
    }
}

/// File sink writing one compact JSON object per line (JSONL).
///
/// Each record is flushed as soon as it is written so `tail -f` (or a
/// dashboard polling the file) sees slots as they complete. Write errors are
/// sticky: the first failure stops further writing and is reported by
/// [`flush`](TelemetrySink::flush) and [`finish`](JsonlSink::finish).
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    written: u64,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    /// Returns the error from creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            written: 0,
            error: None,
        })
    }

    /// Number of records successfully written so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes and closes the sink, reporting any sticky write error.
    ///
    /// # Errors
    /// Returns the first write error encountered, if any.
    pub fn finish(mut self) -> std::io::Result<u64> {
        TelemetrySink::flush(&mut self)?;
        Ok(self.written)
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, record: &TelemetryRecord) {
        if self.error.is_some() {
            return;
        }
        let line = match serde_json::to_string(record) {
            Ok(line) => line,
            Err(err) => {
                self.error = Some(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    err.to_string(),
                ));
                return;
            }
        };
        let result = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        match result {
            Ok(()) => self.written += 1,
            Err(err) => self.error = Some(err),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.writer.flush()
    }
}

/// Validates a JSONL telemetry export: every non-empty line must parse as a
/// [`TelemetryRecord`], slots must be strictly increasing, histogram counts
/// must match the session counter, Jain's index must lie in `[0, 1]`,
/// distances must be non-negative and cumulative sampler counters must
/// never decrease. Returns the number of records.
///
/// # Errors
/// Returns a description of the first violation, prefixed with its
/// 1-based line number.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_slot: Option<usize> = None;
    let mut last_sampler: Option<SamplerCounters> = None;
    for (line_no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: TelemetryRecord = serde_json::from_str(line)
            .map_err(|err| format!("line {}: parse error: {}", line_no + 1, err))?;
        if let Some(last) = last_slot {
            if record.slot <= last {
                return Err(format!(
                    "line {}: slot {} does not increase past {}",
                    line_no + 1,
                    record.slot,
                    last
                ));
            }
        }
        last_slot = Some(record.slot);
        let m = &record.metrics;
        if m.goodput.count() != m.sessions || m.gains.count() != m.sessions {
            return Err(format!(
                "line {}: histogram counts ({}, {}) disagree with sessions ({})",
                line_no + 1,
                m.goodput.count(),
                m.gains.count(),
                m.sessions
            ));
        }
        let jain = m.jain();
        if !(0.0..=1.0 + 1e-9).contains(&jain) {
            return Err(format!(
                "line {}: Jain index {} out of [0, 1]",
                line_no + 1,
                jain
            ));
        }
        if m.distance_sum < 0.0 || m.distance_max < 0.0 {
            return Err(format!("line {}: negative distance", line_no + 1));
        }
        if m.switches > m.sessions {
            return Err(format!(
                "line {}: more switches ({}) than sessions ({})",
                line_no + 1,
                m.switches,
                m.sessions
            ));
        }
        if let Some(latency) = &record.latency {
            let ordered = latency.p50_s >= 0.0
                && latency.p50_s <= latency.p95_s
                && latency.p95_s <= latency.p99_s;
            if !ordered || latency.count == 0 {
                return Err(format!(
                    "line {}: malformed latency percentiles (count {}, p50 {}, p95 {}, p99 {})",
                    line_no + 1,
                    latency.count,
                    latency.p50_s,
                    latency.p95_s,
                    latency.p99_s
                ));
            }
        }
        if let Some(sampler) = &record.sampler {
            // The counters are cumulative over the run, so within one export
            // they may never decrease.
            if let Some(last) = &last_sampler {
                if sampler.rebuilds < last.rebuilds || sampler.overlay_hits < last.overlay_hits {
                    return Err(format!(
                        "line {}: sampler counters went backwards \
                         ({:?} after {:?})",
                        line_no + 1,
                        sampler,
                        last
                    ));
                }
            }
            last_sampler = Some(*sampler);
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator for property-style tests (no rand dep;
    /// integer-valued samples keep f64 sums exact, so merge order cannot
    /// perturb them).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn value(&mut self) -> f64 {
            (self.next() % 1_000) as f64
        }
    }

    fn sample_histogram(seed: u64, n: usize) -> Histogram {
        let mut h = Histogram::new(-7, 18);
        let mut lcg = Lcg(seed);
        for _ in 0..n {
            h.record(lcg.value());
        }
        h
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        let h = Histogram::new(-2, 6);
        assert_eq!(h.bucket_lower_edge(0), None);
        assert_eq!(h.bucket_lower_edge(1), Some(0.25));
        assert_eq!(h.bucket_lower_edge(2), Some(0.5));
        assert_eq!(h.bucket_lower_edge(5), Some(4.0));
        assert_eq!(h.bucket_lower_edge(6), None);
    }

    #[test]
    fn bucket_index_matches_log2() {
        let h = Histogram::new(-7, 18);
        for i in 0..200 {
            let v = 0.003 * 1.37_f64.powi(i % 40) + i as f64 * 0.01;
            let expected = if v <= 0.0 {
                0
            } else {
                ((v.log2().floor() as i64) + 7 + 1).clamp(0, 17) as usize
            };
            assert_eq!(h.bucket_index(v), expected, "value {v}");
        }
    }

    #[test]
    fn degenerate_values_land_in_underflow() {
        let mut h = Histogram::new(-7, 18);
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(1e-300);
        assert_eq!(h.counts()[0], 4);
        assert_eq!(h.count(), 4);
        h.record(f64::INFINITY);
        assert_eq!(h.counts()[17], 1);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Integer-valued samples: every sum is exactly representable, so
        // count *and* sum comparisons are exact in every merge order.
        let a = sample_histogram(1, 500);
        let b = sample_histogram(2, 333);
        let c = sample_histogram(3, 777);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        assert_eq!(left, right);

        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Identity.
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new(-7, 18));
        assert_eq!(with_empty, a);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Histogram::new(-7, 18);
        a.merge(&Histogram::new(-2, 18));
    }

    fn sample_metrics(seed: u64, sessions: usize) -> SlotMetrics {
        let mut m = SlotMetrics::new();
        let mut lcg = Lcg(seed);
        for _ in 0..sessions {
            let rate = lcg.value();
            let gain = (lcg.next() % 100) as f64 / 128.0;
            m.record_session(rate, gain, lcg.next().is_multiple_of(3));
        }
        m.finish_area((lcg.next() % 50) as f64);
        m
    }

    #[test]
    fn metrics_merge_is_associative_and_commutative_on_counts() {
        let a = sample_metrics(11, 100);
        let b = sample_metrics(22, 200);
        let c = sample_metrics(33, 50);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        // Integer-valued samples → exact equality across merge orders.
        assert_eq!(left.sessions, right.sessions);
        assert_eq!(left.switches, right.switches);
        assert_eq!(left.areas, right.areas);
        assert_eq!(left.goodput, right.goodput);
        assert_eq!(left.rate_sum, right.rate_sum);
        assert_eq!(left.distance_max, right.distance_max);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.sessions, ba.sessions);
        assert_eq!(ab.goodput, ba.goodput);
        assert_eq!(ab.gains, ba.gains);
    }

    #[test]
    fn jain_follows_the_game_crate_convention() {
        let mut m = SlotMetrics::new();
        assert_eq!(m.jain(), 1.0, "empty population is vacuously fair");
        m.record_session(0.0, 0.0, false);
        m.record_session(0.0, 0.0, false);
        assert_eq!(m.jain(), 1.0, "all-zero population is vacuously fair");
        m.clear();
        for _ in 0..8 {
            m.record_session(5.0, 0.5, false);
        }
        assert!((m.jain() - 1.0).abs() < 1e-12);
        m.record_session(45.0, 0.5, false);
        assert!(m.jain() < 1.0);
        assert!(m.jain() > 0.0);
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let mut m = SlotMetrics::new();
        m.record_session(10.0, 0.25, true);
        m.record_session(20.0, 0.75, false);
        m.finish_area(12.0);
        m.finish_area(4.0);
        assert_eq!(m.sessions, 2);
        assert!((m.mean_rate_mbps() - 15.0).abs() < 1e-12);
        assert!((m.mean_gain() - 0.5).abs() < 1e-12);
        assert!((m.switch_rate() - 0.5).abs() < 1e-12);
        assert!((m.distance_mean() - 8.0).abs() < 1e-12);
        assert_eq!(m.distance_max, 12.0);
        assert_eq!(m.goodput.count(), 2);

        m.clear();
        assert_eq!(m, SlotMetrics::new());
    }

    fn record_for_slot(slot: usize) -> TelemetryRecord {
        let mut metrics = SlotMetrics::new();
        metrics.record_session(8.0, 0.5, false);
        metrics.finish_area(3.0);
        TelemetryRecord {
            slot,
            active: 1,
            metrics,
            timing: SlotTiming {
                begin_slot_s: 0.001,
                choose_s: 0.002,
                feedback_s: 0.003,
                observe_s: 0.004,
            },
            latency: None,
            sampler: None,
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut h = Histogram::new(-2, 8);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 10 values in bucket [0.25, 0.5), 10 in [1, 2), 1 in [4, 8).
        for _ in 0..10 {
            h.record(0.3);
        }
        for _ in 0..10 {
            h.record(1.5);
        }
        h.record(5.0);
        assert_eq!(
            h.quantile(0.0),
            Some(0.25),
            "rank clamps to the first value"
        );
        assert_eq!(h.quantile(0.25), Some(0.25));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        // Out-of-range q values clamp instead of panicking.
        assert_eq!(h.quantile(-3.0), Some(0.25));
        assert_eq!(h.quantile(7.0), Some(4.0));
    }

    #[test]
    fn quantile_reports_zero_for_underflow_values() {
        let mut h = Histogram::new(-2, 8);
        h.record(0.0);
        h.record(-1.0);
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(LatencyStats::from_histogram(&h).map(|l| l.p99_s), Some(0.0));
    }

    #[test]
    fn record_n_matches_repeated_records() {
        let mut batched = Histogram::new(-30, 34);
        let mut single = Histogram::new(-30, 34);
        for (value, count) in [(3e-6, 7u64), (0.0, 2), (2.5e-3, 1), (1e-4, 0)] {
            batched.record_n(value, count);
            for _ in 0..count {
                single.record(value);
            }
        }
        assert_eq!(batched.counts(), single.counts());
        assert!((batched.sum() - single.sum()).abs() < 1e-15);
        assert_eq!(batched.count(), 10);
    }

    #[test]
    fn latency_stats_summarise_a_histogram() {
        assert!(LatencyStats::from_histogram(&Histogram::new(-30, 34)).is_none());
        let mut h = Histogram::new(-30, 34);
        for _ in 0..98 {
            h.record(1e-6);
        }
        h.record(1e-3);
        h.record(1e-3);
        let stats = LatencyStats::from_histogram(&h).expect("non-empty");
        assert_eq!(stats.count, 100);
        assert!((stats.mean_s - (98.0 * 1e-6 + 2.0 * 1e-3) / 100.0).abs() < 1e-12);
        // p50 and p95 land in the 1µs bucket, p99 in the 1ms bucket; the
        // percentiles must be ordered and bucket-resolution accurate.
        assert!(stats.p50_s <= 1e-6 && stats.p50_s > 1e-7);
        assert_eq!(stats.p50_s, stats.p95_s);
        assert!(stats.p99_s > stats.p95_s);
        assert!(stats.p99_s <= 1e-3 && stats.p99_s > 1e-4);
    }

    #[test]
    fn validate_jsonl_checks_latency_ordering() {
        let mut record = record_for_slot(0);
        record.latency = Some(LatencyStats {
            count: 1,
            mean_s: 1e-5,
            p50_s: 1e-5,
            p95_s: 1e-5,
            p99_s: 1e-5,
        });
        let good = serde_json::to_string(&record).unwrap();
        assert_eq!(validate_jsonl(&good), Ok(1));

        record.latency = Some(LatencyStats {
            count: 1,
            mean_s: 1e-5,
            p50_s: 2e-5,
            p95_s: 1e-5,
            p99_s: 1e-5,
        });
        let bad = serde_json::to_string(&record).unwrap();
        let err = validate_jsonl(&bad).unwrap_err();
        assert!(err.contains("latency"), "unexpected error: {err}");
    }

    #[test]
    fn validate_jsonl_checks_sampler_monotonicity() {
        let mut first = record_for_slot(0);
        first.sampler = Some(SamplerCounters {
            rebuilds: 5,
            overlay_hits: 100,
        });
        let mut second = record_for_slot(1);
        second.sampler = Some(SamplerCounters {
            rebuilds: 6,
            overlay_hits: 140,
        });
        let good = format!(
            "{}\n{}",
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        assert_eq!(validate_jsonl(&good), Ok(2));

        // Cumulative counters running backwards mean the export mixes runs
        // (or a producer is resetting mid-stream) — rejected.
        second.sampler = Some(SamplerCounters {
            rebuilds: 4,
            overlay_hits: 140,
        });
        let bad = format!(
            "{}\n{}",
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        let err = validate_jsonl(&bad).unwrap_err();
        assert!(err.contains("sampler"), "unexpected error: {err}");
    }

    #[test]
    fn ring_sink_is_bounded() {
        let mut sink = RingSink::new(3);
        assert!(sink.is_empty());
        for slot in 0..10 {
            sink.record(&record_for_slot(slot));
        }
        assert_eq!(sink.len(), 3);
        let slots: Vec<usize> = sink.records().map(|r| r.slot).collect();
        assert_eq!(slots, vec![7, 8, 9]);
        assert_eq!(sink.latest().map(|r| r.slot), Some(9));
    }

    #[test]
    fn timing_totals_add_up() {
        let r = record_for_slot(0);
        assert!((r.timing.total_s() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let record = record_for_slot(42);
        let json = serde_json::to_string(&record).expect("serialize");
        let back: TelemetryRecord = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, record);
    }

    #[test]
    fn jsonl_sink_writes_tailable_lines() {
        let path = std::env::temp_dir().join(format!(
            "smartexp3_telemetry_test_{}.jsonl",
            std::process::id()
        ));
        let mut sink = JsonlSink::create(&path).expect("create sink");
        for slot in 0..5 {
            sink.record(&record_for_slot(slot));
        }
        assert_eq!(sink.records_written(), 5);
        let written = sink.finish().expect("finish");
        assert_eq!(written, 5);

        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 5);
        assert_eq!(validate_jsonl(&text), Ok(5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_jsonl_rejects_garbage_and_non_monotonic_slots() {
        assert!(validate_jsonl("not json").is_err());

        let a = serde_json::to_string(&record_for_slot(3)).unwrap();
        let b = serde_json::to_string(&record_for_slot(3)).unwrap();
        let text = format!("{a}\n{b}\n");
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("slot"), "unexpected error: {err}");

        // Histogram count / session mismatch.
        let mut bad = record_for_slot(0);
        bad.metrics.sessions = 7;
        let text = serde_json::to_string(&bad).unwrap();
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("histogram"), "unexpected error: {err}");
    }
}
