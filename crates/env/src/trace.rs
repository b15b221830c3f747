//! Trace replay as an [`Environment`]: every session rides the synthetic
//! WiFi/cellular trace pairs of §VI-B, shifted by a per-session phase so a
//! million sessions do not all see the same slot of the same trace.
//!
//! Sessions are fully independent, so the world partitions into contiguous
//! **phase groups** of
//! [`partition_sessions`](TraceEnvironment::with_partition_sessions)
//! sessions, each with its own delay-sampling RNG stream advanced in
//! canonical session order. Group 0 keeps the historical single-stream seed
//! derivation, so worlds that fit in one group reproduce the pre-sharding
//! trajectories bit-for-bit.

use netsim::DelayModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smartexp3_core::{
    EnvStateError, Environment, NetworkId, Observation, PartitionExecutor, PartitionJob,
    SequentialExecutor, SessionRange, SessionView, SlotIndex, SlotMetrics,
};
use tracegen::{TracePair, CELLULAR, WIFI};

/// Default sessions per feedback partition (phase group). Large enough that
/// per-partition bookkeeping is negligible, small enough that a million
/// sessions fan out over hundreds of workers.
pub const TRACE_PARTITION_SESSIONS: usize = 4096;

/// Per-session accounting of a trace replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct TraceSessionDyn {
    current: Option<NetworkId>,
    switches: u64,
    download_megabits: f64,
}

/// Serialized dynamic state (see [`Environment::state`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceEnvState {
    /// One RNG stream per feedback partition, in partition order.
    rngs: Vec<[u64; 4]>,
    sessions: Vec<TraceSessionDyn>,
}

/// Replays a set of [`TracePair`]s for an arbitrary number of sessions:
/// session `i` follows pair `i % pairs` with a phase offset derived from its
/// index (traces wrap around), pays sampled switching delays, and receives
/// bandit feedback. Session 0 replays pair 0 from its first slot, so a
/// one-session world over one pair is the single device of §VI-B.
pub struct TraceEnvironment {
    pairs: Vec<TracePair>,
    sessions: Vec<TraceSessionDyn>,
    gain_scale: f64,
    wifi_delay: DelayModel,
    cellular_delay: DelayModel,
    env_seed: u64,
    ranges: Vec<SessionRange>,
    rngs: Vec<StdRng>,
    /// Whether phase groups accumulate streaming telemetry while grading.
    telemetry_enabled: bool,
    /// One accumulator per phase group, merged in canonical partition order
    /// into `slot_metrics` after every feedback pass.
    partition_metrics: Vec<SlotMetrics>,
    /// Last slot's fleet-level metrics (telemetry only; never serialized).
    slot_metrics: SlotMetrics,
}

/// Derives phase group `partition`'s delay-sampling stream. Partition 0
/// keeps the historical `seed_from_u64(env_seed)` stream.
fn trace_rng(env_seed: u64, partition: usize) -> StdRng {
    if partition == 0 {
        return StdRng::seed_from_u64(env_seed);
    }
    let mixed = smartexp3_core::splitmix64(env_seed ^ 0x2545_F491_4F6C_DD1D)
        ^ (partition as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    StdRng::seed_from_u64(smartexp3_core::splitmix64(mixed))
}

/// The (pair, phase-shifted slot) session `session` replays at `slot`.
fn trace_slot(pairs: &[TracePair], session: usize, slot: SlotIndex) -> (&TracePair, usize) {
    let pair = &pairs[session % pairs.len()];
    // Stagger sessions across the trace so the world is heterogeneous.
    let offset = (session / pairs.len()) % pair.len();
    (pair, (slot + offset) % pair.len())
}

impl TraceEnvironment {
    /// Builds a trace world for `sessions` sessions over `pairs` (at least
    /// one), with switching-delay sampling seeded by `env_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or any pair has no slots.
    #[must_use]
    pub fn new(pairs: Vec<TracePair>, sessions: usize, env_seed: u64) -> Self {
        assert!(!pairs.is_empty(), "a trace world needs at least one pair");
        assert!(
            pairs.iter().all(|p| !p.is_empty()),
            "trace pairs must have at least one slot"
        );
        let gain_scale = pairs
            .iter()
            .map(|p| p.wifi.peak_rate().max(p.cellular.peak_rate()))
            .fold(1e-9, f64::max);
        let mut env = TraceEnvironment {
            pairs,
            sessions: vec![TraceSessionDyn::default(); sessions],
            gain_scale,
            wifi_delay: DelayModel::paper_wifi(),
            cellular_delay: DelayModel::paper_cellular(),
            env_seed,
            ranges: Vec::new(),
            rngs: Vec::new(),
            telemetry_enabled: false,
            partition_metrics: Vec::new(),
            slot_metrics: SlotMetrics::new(),
        };
        env.rebuild_partitions(TRACE_PARTITION_SESSIONS);
        env
    }

    /// Overrides the phase-group size (clamped to ≥ 1) and re-derives the
    /// per-group RNG streams from the environment seed. Smaller groups mean
    /// more feedback parallelism; the trajectory changes with the layout
    /// (each group owns a stream), but is always thread-count independent.
    #[must_use]
    pub fn with_partition_sessions(mut self, sessions_per_partition: usize) -> Self {
        self.rebuild_partitions(sessions_per_partition.max(1));
        self
    }

    fn rebuild_partitions(&mut self, per_partition: usize) {
        let sessions = self.sessions.len();
        let partitions = sessions.div_ceil(per_partition).max(1);
        self.ranges = (0..partitions)
            .map(|p| SessionRange::new(p * per_partition, ((p + 1) * per_partition).min(sessions)))
            .collect();
        self.rngs = (0..partitions)
            .map(|p| trace_rng(self.env_seed, p))
            .collect();
        self.partition_metrics = vec![SlotMetrics::new(); partitions];
    }

    /// Total download across all sessions, in megabits.
    #[must_use]
    pub fn total_download_megabits(&self) -> f64 {
        self.sessions.iter().map(|s| s.download_megabits).sum()
    }

    /// Total switches across all sessions (environment-observed).
    #[must_use]
    pub fn total_switches(&self) -> u64 {
        self.sessions.iter().map(|s| s.switches).sum()
    }
}

/// Grades one phase group: canonical session order, delays from the group's
/// own stream. `start` is the global index of the group's first session;
/// `sessions`, `choices` and `out` are the group's slices. With `telemetry`
/// on, `metrics` additionally accumulates the group's streaming series; the
/// trace world's "distance to equilibrium" is the shortfall against the best
/// rate the session's own trace offered that slot (there is no congestion, so
/// the per-session optimum *is* the equilibrium).
#[allow(clippy::too_many_arguments)]
fn run_partition(
    pairs: &[TracePair],
    gain_scale: f64,
    wifi_delay: DelayModel,
    cellular_delay: DelayModel,
    rng: &mut StdRng,
    start: usize,
    slot: SlotIndex,
    choices: &[Option<NetworkId>],
    sessions: &mut [TraceSessionDyn],
    out: &mut [Option<Observation>],
    telemetry: bool,
    metrics: &mut SlotMetrics,
) {
    if telemetry {
        metrics.clear();
    }
    let mut graded = 0usize;
    let mut shortfall_sum = 0.0;
    for (i, choice) in choices.iter().enumerate() {
        let Some(chosen) = *choice else {
            out[i] = None;
            continue;
        };
        let (pair, trace_slot) = trace_slot(pairs, start + i, slot);
        let slot_duration = pair.wifi.slot_duration_s;
        let rate = if chosen == WIFI {
            pair.wifi.rate_at(trace_slot)
        } else if chosen == CELLULAR {
            pair.cellular.rate_at(trace_slot)
        } else {
            0.0
        };
        let session = &mut sessions[i];
        let switched = session.current.is_some() && session.current != Some(chosen);
        let delay = if switched {
            session.switches += 1;
            let model = if chosen == CELLULAR {
                cellular_delay
            } else {
                wifi_delay
            };
            model.sample(slot_duration, rng)
        } else {
            0.0
        };
        session.current = Some(chosen);
        session.download_megabits += rate * (slot_duration - delay).max(0.0);

        let scaled_gain = (rate / gain_scale).clamp(0.0, 1.0);
        if telemetry {
            graded += 1;
            metrics.record_session(rate, scaled_gain, switched);
            let best = pair
                .wifi
                .rate_at(trace_slot)
                .max(pair.cellular.rate_at(trace_slot));
            if best > 0.0 {
                shortfall_sum += (best - rate).max(0.0) * 100.0 / best;
            }
        }
        let mut observation = Observation::bandit(slot, chosen, rate, scaled_gain);
        if switched {
            observation = observation.with_switch(delay);
        }
        out[i] = Some(observation);
    }
    if telemetry && graded > 0 {
        metrics.finish_area(shortfall_sum / graded as f64);
    }
}

impl Environment for TraceEnvironment {
    fn sessions(&self) -> usize {
        self.sessions.len()
    }

    fn begin_slot(&mut self, _slot: SlotIndex) {}

    fn session_view(&self, _session: usize, _slot: SlotIndex) -> SessionView<'_> {
        SessionView::active_static()
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        self.feedback_partitioned(slot, choices, out, &SequentialExecutor);
    }

    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        Some(&self.ranges)
    }

    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        let telemetry = self.telemetry_enabled;
        let pairs: &[TracePair] = &self.pairs;
        let gain_scale = self.gain_scale;
        let wifi_delay = self.wifi_delay;
        let cellular_delay = self.cellular_delay;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(self.ranges.len());
        let mut sessions_rest: &mut [TraceSessionDyn] = &mut self.sessions;
        let mut out_rest: &mut [Option<Observation>] = out;
        let mut choices_rest: &[Option<NetworkId>] = choices;
        for ((range, rng), metrics) in self
            .ranges
            .iter()
            .zip(self.rngs.iter_mut())
            .zip(self.partition_metrics.iter_mut())
        {
            let len = range.len();
            let (job_sessions, rest) = sessions_rest.split_at_mut(len);
            sessions_rest = rest;
            let (job_out, rest) = out_rest.split_at_mut(len);
            out_rest = rest;
            let (job_choices, rest) = choices_rest.split_at(len);
            choices_rest = rest;
            let start = range.start;
            jobs.push(Box::new(move || {
                run_partition(
                    pairs,
                    gain_scale,
                    wifi_delay,
                    cellular_delay,
                    rng,
                    start,
                    slot,
                    job_choices,
                    job_sessions,
                    job_out,
                    telemetry,
                    metrics,
                );
            }));
        }
        executor.run(jobs);
        // Canonical-partition-order merge: identical result under any
        // executor, so the telemetry series is thread-count independent.
        if telemetry {
            self.slot_metrics.clear();
            for metrics in &self.partition_metrics {
                self.slot_metrics.merge(metrics);
            }
        }
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        self.telemetry_enabled = enabled;
        if !enabled {
            self.slot_metrics.clear();
        }
        true
    }

    fn telemetry(&self) -> Option<&SlotMetrics> {
        self.telemetry_enabled.then_some(&self.slot_metrics)
    }

    fn state(&self) -> Option<String> {
        serde_json::to_string(&TraceEnvState {
            rngs: self.rngs.iter().map(StdRng::state).collect(),
            sessions: self.sessions.clone(),
        })
        .ok()
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        let state: TraceEnvState = serde_json::from_str(state)
            .map_err(|error| EnvStateError(format!("unparseable trace state: {error}")))?;
        if state.sessions.len() != self.sessions.len() {
            return Err(EnvStateError(format!(
                "state describes {} sessions, environment hosts {}",
                state.sessions.len(),
                self.sessions.len()
            )));
        }
        if state.rngs.len() != self.rngs.len() {
            return Err(EnvStateError(format!(
                "state carries {} partition RNG streams, environment has {} phase groups",
                state.rngs.len(),
                self.rngs.len()
            )));
        }
        self.rngs = state.rngs.into_iter().map(StdRng::from_state).collect();
        self.sessions = state.sessions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::paper_trace_pair;

    #[test]
    fn sessions_are_phase_shifted_over_the_pairs() {
        let env = TraceEnvironment::new(
            vec![paper_trace_pair(1, 50, 7), paper_trace_pair(2, 50, 8)],
            5,
            1,
        );
        let (_, slot0) = trace_slot(&env.pairs, 0, 0);
        let (_, slot2) = trace_slot(&env.pairs, 2, 0);
        assert_ne!(slot0, slot2, "same pair, different phase");
        assert_eq!(env.sessions(), 5);
        // Five sessions fit in one default phase group.
        assert_eq!(env.feedback_partitions().unwrap().len(), 1);
    }

    #[test]
    fn feedback_replays_the_trace_rates() {
        let pair = paper_trace_pair(1, 30, 3);
        let wifi0 = pair.wifi.rate_at(0);
        let mut env = TraceEnvironment::new(vec![pair], 1, 2);
        let mut out = vec![None];
        env.feedback(0, &[Some(WIFI)], &mut out);
        let observation = out[0].as_ref().unwrap();
        assert_eq!(observation.bit_rate_mbps, wifi0);
        assert!(!observation.switched);
        // Switching to cellular pays a delay and counts a switch.
        env.feedback(1, &[Some(CELLULAR)], &mut out);
        assert!(out[0].as_ref().unwrap().switched);
        assert_eq!(env.total_switches(), 1);
        assert!(env.total_download_megabits() > 0.0);
    }

    #[test]
    fn state_round_trips() {
        let mut env = TraceEnvironment::new(vec![paper_trace_pair(3, 40, 5)], 3, 9);
        let mut out = vec![None, None, None];
        env.feedback(0, &[Some(WIFI), Some(CELLULAR), None], &mut out);
        let state = env.state().unwrap();
        let mut restored = TraceEnvironment::new(vec![paper_trace_pair(3, 40, 5)], 3, 0);
        restored.restore(&state).unwrap();
        assert_eq!(restored.total_switches(), env.total_switches());
        assert!(restored.restore("{bad").is_err());
        let donor = TraceEnvironment::new(vec![paper_trace_pair(3, 40, 5)], 2, 0);
        assert!(restored.restore(&donor.state().unwrap()).is_err());
        // A different phase-group layout carries a different stream count.
        let mut regrouped = TraceEnvironment::new(vec![paper_trace_pair(3, 40, 5)], 3, 9)
            .with_partition_sessions(1);
        assert_eq!(regrouped.feedback_partitions().unwrap().len(), 3);
        assert!(regrouped.restore(&state).is_err());
    }

    #[test]
    fn phase_groups_partition_the_sessions() {
        let env = TraceEnvironment::new(vec![paper_trace_pair(1, 30, 3)], 10, 4)
            .with_partition_sessions(4);
        let ranges = env.feedback_partitions().unwrap();
        assert_eq!(ranges.len(), 3);
        assert!(SessionRange::tile(ranges, 10));
        assert_eq!(ranges[2], SessionRange::new(8, 10));
    }
}
