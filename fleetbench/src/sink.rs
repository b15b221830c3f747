//! The benchmark's streaming-telemetry sink: it checks every record,
//! accumulates the paper's quality metrics over the quality window, and
//! keeps running totals the run reads as window deltas.

use smartexp3_telemetry::{TelemetryRecord, TelemetrySink};

/// Running totals over every record received.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SinkTotals {
    /// Records received.
    pub records: u64,
    /// Sum of `record.active` (sessions that chose).
    pub active: u64,
    /// Sum of `record.metrics.sessions` (sessions graded).
    pub graded: u64,
    /// Records that failed the per-record check.
    pub bad_records: u64,
    /// Summed `SlotTiming::begin_slot_s`.
    pub begin_s: f64,
    /// Summed `SlotTiming::choose_s`.
    pub choose_s: f64,
    /// Summed `SlotTiming::feedback_s`.
    pub feedback_s: f64,
    /// Summed `SlotTiming::observe_s`.
    pub observe_s: f64,
}

impl SinkTotals {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &SinkTotals) -> SinkTotals {
        SinkTotals {
            records: self.records - earlier.records,
            active: self.active - earlier.active,
            graded: self.graded - earlier.graded,
            bad_records: self.bad_records - earlier.bad_records,
            begin_s: self.begin_s - earlier.begin_s,
            choose_s: self.choose_s - earlier.choose_s,
            feedback_s: self.feedback_s - earlier.feedback_s,
            observe_s: self.observe_s - earlier.observe_s,
        }
    }

    /// Summed `SlotTiming::total_s`.
    #[must_use]
    pub fn phased_s(&self) -> f64 {
        self.begin_s + self.choose_s + self.feedback_s + self.observe_s
    }
}

/// The paper's quality measures, summed from `TelemetryRecord::metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Sessions graded.
    pub sessions: u64,
    /// Sessions that switched network.
    pub switches: u64,
    /// Summed goodput (Mbps).
    pub rate_sum: f64,
    /// Summed squared goodput.
    pub rate_sq_sum: f64,
    /// Areas graded.
    pub areas: u64,
    /// Summed per-area distance to the Nash equilibrium (percent).
    pub distance_sum: f64,
}

impl Quality {
    /// Mean goodput per decision (Mbps).
    #[must_use]
    pub fn goodput_mbps(&self) -> f64 {
        self.rate_sum / self.sessions.max(1) as f64
    }

    /// Switches per decision.
    #[must_use]
    pub fn switches_per_decision(&self) -> f64 {
        self.switches as f64 / self.sessions.max(1) as f64
    }

    /// Mean per-area distance to the Nash equilibrium (percent).
    #[must_use]
    pub fn distance_to_eq_pct(&self) -> f64 {
        self.distance_sum / self.areas.max(1) as f64
    }

    /// Jain's fairness index over every graded decision's goodput.
    #[must_use]
    pub fn jain_fairness(&self) -> f64 {
        if self.rate_sq_sum == 0.0 {
            return 1.0;
        }
        self.rate_sum * self.rate_sum / (self.sessions as f64 * self.rate_sq_sum)
    }
}

/// Checks and accumulates every telemetry record.
#[derive(Debug, Default)]
pub struct QualitySink {
    totals: SinkTotals,
    quality: Quality,
    /// Whether records currently fall in the quality window.
    pub quality_window: bool,
}

impl QualitySink {
    /// Running totals so far.
    #[must_use]
    pub fn totals(&self) -> SinkTotals {
        self.totals
    }

    /// Quality accumulated over the records received with
    /// [`quality_window`](Self::quality_window) set.
    #[must_use]
    pub fn quality(&self) -> Quality {
        self.quality
    }
}

/// `true` when a record is internally consistent: every session that chose
/// was graded, and the gains and rates are finite and in range (each scaled
/// gain lies in `[0, 1]`, so their sum lies in `[0, sessions]`).
fn record_is_sound(record: &TelemetryRecord) -> bool {
    let m = &record.metrics;
    let sessions = m.sessions as f64;
    m.sessions == record.active
        && m.gains.count() == m.sessions
        && m.gain_sum.is_finite()
        && (0.0..=sessions).contains(&m.gain_sum)
        && m.rate_sum.is_finite()
        && m.rate_sum >= 0.0
        && m.rate_sq_sum.is_finite()
        && m.distance_sum.is_finite()
}

impl TelemetrySink for QualitySink {
    fn record(&mut self, record: &TelemetryRecord) {
        let t = &mut self.totals;
        t.records += 1;
        t.active += record.active;
        t.graded += record.metrics.sessions;
        t.bad_records += u64::from(!record_is_sound(record));
        t.begin_s += record.timing.begin_slot_s;
        t.choose_s += record.timing.choose_s;
        t.feedback_s += record.timing.feedback_s;
        t.observe_s += record.timing.observe_s;
        if self.quality_window {
            let m = &record.metrics;
            let q = &mut self.quality;
            q.sessions += m.sessions;
            q.switches += m.switches;
            q.rate_sum += m.rate_sum;
            q.rate_sq_sum += m.rate_sq_sum;
            q.areas += m.areas;
            q.distance_sum += m.distance_sum;
        }
    }
}
