//! The heterogeneous duty-cycle layer: a wrapper [`Environment`] that gives
//! every session its own wake cadence, for the event-driven engine path
//! ([`FleetEngine::step_events`](smartexp3_engine::FleetEngine::step_events)).
//!
//! The paper's devices do not tick in lock-step — a phone re-evaluates its
//! network at block boundaries, on duty cycles, or when something changes
//! around it. [`DutyCycleEnvironment`] retrofits that onto any existing
//! world: it delegates all world logic (visibility, activity, feedback) to
//! the wrapped environment and overrides only the **wake protocol** —
//! session `i` wakes every `cadences[i % cadences.len()]` slots, staggered
//! by its index so cohorts spread over the cycle instead of thundering in
//! unison. Pushed environment events ([`Environment::next_env_event`])
//! forward to the wrapped world, so bandwidth bursts still materialise at
//! their exact slots even when no session is due.
//!
//! One caveat keeps this wrapper honest: `networks_changed` notifications
//! are **edge-triggered** — the wrapped world raises them entering a slot
//! and any `begin_slot` consumes them — so a session sleeping through a
//! mobility transition would miss its visibility notice. The
//! [`duty_cycle`](crate::duty_cycle) catalog world therefore builds on the
//! equal-share congestion areas (static visibility) and injects burstiness
//! through scheduled **bandwidth collapses** instead, which are level
//! changes every later wake observes correctly.

use smartexp3_core::{
    EnvStateError, Environment, NetworkId, Observation, PartitionExecutor, SamplerStrategy,
    SessionRange, SessionView, SharedFeedback, SlotIndex,
};

/// Shape of the [`duty_cycle`](crate::duty_cycle) world: the wake-cadence
/// mix, the bandwidth-burst schedule, and the policies' sampling strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DutyCycleConfig {
    /// Wake cadences assigned round-robin by session index: session `i`
    /// decides every `cadences[i % cadences.len()]` slots (each clamped to
    /// at least 1). The default mixes 1/2/4/8.
    pub cadences: Vec<usize>,
    /// Every `burst_period` slots each area's cellular network collapses to
    /// 2 Mbps, recovering half a period later — the bursty-wake stimulus.
    /// `0` disables bursts.
    pub burst_period: usize,
    /// Bursts are scheduled up to this slot (events are static, so the
    /// schedule must cover the intended run length).
    pub horizon_slots: usize,
    /// CDF-inversion strategy for every EXP3-family policy in the world.
    /// Sleep intervals are static-weight phases, so
    /// [`SamplerStrategy::Alias`] amortises its table freeze across them;
    /// the default stays [`SamplerStrategy::Linear`] so historical golden
    /// pins stand. (In [`dense_duty_cycle`](crate::dense_duty_cycle) the
    /// dense config's sampler governs instead — one world, one knob.)
    pub sampler: SamplerStrategy,
}

impl Default for DutyCycleConfig {
    fn default() -> Self {
        DutyCycleConfig {
            cadences: vec![1, 2, 4, 8],
            burst_period: 32,
            horizon_slots: 256,
            sampler: SamplerStrategy::Linear,
        }
    }
}

/// A duty-cycle wrapper around any [`Environment`]. See the
/// `duty_cycle` module documentation.
pub struct DutyCycleEnvironment {
    inner: Box<dyn Environment>,
    /// Cadence assignment, round-robin by session index (never empty, every
    /// entry ≥ 1).
    cadences: Vec<usize>,
}

impl DutyCycleEnvironment {
    /// Wraps `inner` with per-session wake cadences assigned round-robin
    /// from `cadences`. An empty list or zero entries are sanitised to
    /// cadence 1 (slot-synchronous).
    #[must_use]
    pub fn new(inner: Box<dyn Environment>, cadences: Vec<usize>) -> Self {
        let mut cadences: Vec<usize> = cadences.into_iter().map(|c| c.max(1)).collect();
        if cadences.is_empty() {
            cadences.push(1);
        }
        DutyCycleEnvironment { inner, cadences }
    }

    /// The sanitised cadence assignment.
    #[must_use]
    pub fn cadences(&self) -> &[usize] {
        &self.cadences
    }

    /// Read access to the wrapped environment.
    #[must_use]
    pub fn inner(&self) -> &dyn Environment {
        self.inner.as_ref()
    }

    fn cadence_of(&self, session: usize) -> usize {
        self.cadences[session % self.cadences.len()]
    }
}

impl Environment for DutyCycleEnvironment {
    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        self.inner.begin_slot(slot);
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        self.inner.begin_slot_partitioned(slot, executor);
    }

    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_> {
        self.inner.session_view(session, slot)
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        self.inner.feedback(slot, choices, out);
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
        self.inner
            .feedback_partitioned(slot, choices, out, executor);
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
        self.inner.end_slot(slot, choices, tops);
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        self.inner.set_telemetry(enabled)
    }

    fn telemetry(&self) -> Option<&smartexp3_core::SlotMetrics> {
        self.inner.telemetry()
    }

    fn wake_cadence(&self, session: usize) -> usize {
        self.cadence_of(session)
    }

    fn first_wake(&self, session: usize) -> SlotIndex {
        // Stagger first wakes across the cycle so same-cadence sessions
        // spread over it instead of forming one giant cohort.
        session % self.cadence_of(session)
    }

    fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
        self.inner.next_env_event(from)
    }

    fn state(&self) -> Option<String> {
        // The cadence assignment is static configuration; the only dynamic
        // state is the wrapped world's.
        self.inner.state()
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        self.inner.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat {
        sessions: usize,
        events: Vec<SlotIndex>,
    }

    impl Environment for Flat {
        fn sessions(&self) -> usize {
            self.sessions
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
            for (index, choice) in choices.iter().enumerate() {
                out[index] = choice.map(|network| {
                    Observation::bandit(slot, network, 11.0, 0.5 + (index % 2) as f64 * 0.1)
                });
            }
        }
        fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
            self.events.iter().copied().find(|&at| at >= from)
        }
    }

    #[test]
    fn cadences_are_assigned_round_robin_and_staggered() {
        let env = DutyCycleEnvironment::new(
            Box::new(Flat {
                sessions: 8,
                events: Vec::new(),
            }),
            vec![1, 4],
        );
        assert_eq!(env.wake_cadence(0), 1);
        assert_eq!(env.wake_cadence(1), 4);
        assert_eq!(env.first_wake(0), 0);
        assert_eq!(env.first_wake(1), 1);
        assert_eq!(env.first_wake(3), 3);
        assert_eq!(env.first_wake(5), 1);
        assert_eq!(env.next_wake(1, 1), 5);
    }

    #[test]
    fn zero_and_empty_cadences_are_sanitised() {
        let env = DutyCycleEnvironment::new(
            Box::new(Flat {
                sessions: 2,
                events: Vec::new(),
            }),
            vec![0, 3],
        );
        assert_eq!(env.cadences(), &[1, 3]);
        let env = DutyCycleEnvironment::new(
            Box::new(Flat {
                sessions: 2,
                events: Vec::new(),
            }),
            Vec::new(),
        );
        assert_eq!(env.cadences(), &[1]);
        assert_eq!(env.wake_cadence(17), 1);
    }

    #[test]
    fn env_events_forward_to_the_wrapped_world() {
        let env = DutyCycleEnvironment::new(
            Box::new(Flat {
                sessions: 2,
                events: vec![4, 9],
            }),
            vec![8],
        );
        assert_eq!(env.next_env_event(0), Some(4));
        assert_eq!(env.next_env_event(5), Some(9));
        assert_eq!(env.next_env_event(10), None);
    }
}
