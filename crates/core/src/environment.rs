//! The [`Environment`] trait: the world on the other side of the
//! [`Policy`](crate::Policy) boundary.
//!
//! A policy answers "which network do I pick this slot?"; an environment
//! answers everything else — which networks each session can currently see,
//! and what gain every session obtains once the *joint* choice vector of all
//! sessions is known (bandwidth sharing, switching delays, scheduled capacity
//! changes, mobility between service areas).
//!
//! The trait is deliberately split into phases so a fleet engine can drive
//! millions of sessions in parallel while keeping results bit-identical at
//! any thread count:
//!
//! 1. [`begin_slot`](Environment::begin_slot) — sequential; the environment
//!    advances its own state (scheduled bandwidth events, mobility walks,
//!    activity windows).
//! 2. [`session_view`](Environment::session_view) — called concurrently from
//!    worker threads (`&self`); reports whether a session participates this
//!    slot and whether its visible-network set changed.
//! 3. [`feedback`](Environment::feedback) — converts the joint choice vector
//!    into one observation per session. Any randomness the environment needs
//!    (noisy bandwidth shares, sampled switching delays) must come from state
//!    owned by the environment, never from per-session RNG streams, so the
//!    result is independent of how sessions were sharded. Worlds that are
//!    unions of independent areas can additionally advertise
//!    [`feedback_partitions`](Environment::feedback_partitions) and implement
//!    [`feedback_partitioned`](Environment::feedback_partitioned), letting
//!    the driver fan the feedback phase itself over worker threads — see
//!    *Partitioned feedback* below.
//! 4. [`end_slot`](Environment::end_slot) — sequential; an event hook for
//!    recorders and metrics, fired after every session has observed its
//!    feedback.
//!
//! # Partitioned feedback
//!
//! For a fleet of millions of sessions, a sequential feedback phase bounds
//! the whole engine on one core. Most large worlds are unions of
//! **independent areas**: disjoint session ranges whose feedback depends
//! only on the choices of sessions in the same range. Such environments
//! advertise the split as a list of [`SessionRange`]s (ordered, disjoint,
//! tiling `0..sessions()`) and grade each partition from **its own RNG
//! stream**, advanced in canonical session order — so the trajectory is a
//! pure function of the seed, independent of which worker grades which
//! partition, and [`feedback`](Environment::feedback) (the sequential
//! fallback, required to iterate the same partitions in order) produces
//! bit-identical results to
//! [`feedback_partitioned`](Environment::feedback_partitioned) under any
//! [`PartitionExecutor`].
//!
//! Environments that support checkpointing serialize their dynamic state as
//! an opaque JSON string via [`state`](Environment::state) /
//! [`restore`](Environment::restore); a fleet engine embeds that string in
//! its own snapshot so a mid-scenario checkpoint resumes bit-identically —
//! pending events, mobility positions and the environment RNG included.
//!
//! # Event-driven stepping
//!
//! Slot-synchronous stepping advances every session one global slot at a
//! time. Real devices do not tick in lock-step: each decides on its own
//! cadence (duty cycles, block boundaries), and the world pushes events
//! (bandwidth changes, area transitions) between decisions. The wake
//! protocol — [`wake_cadence`](Environment::wake_cadence),
//! [`first_wake`](Environment::first_wake),
//! [`next_wake`](Environment::next_wake) and
//! [`next_env_event`](Environment::next_env_event) — lets an event-driven
//! driver ask each session when it decides next and the environment when
//! its own state next changes, so the driver only materialises the
//! timestamps where something actually happens.
//!
//! Every method has a **uniform-cadence default** (every session wakes every
//! slot, no pushed events), under which an event-driven driver degenerates
//! to exactly the slot-synchronous schedule — existing environments satisfy
//! the protocol unchanged, and a driver honouring it must produce
//! bit-identical trajectories to slot stepping at cadence 1.

use crate::{NetworkId, Observation, SlotIndex};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What one session is allowed to do in the coming slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionView<'a> {
    /// `false` when the session sits this slot out (outside its activity
    /// window); the engine then neither asks its policy to choose nor
    /// delivers feedback.
    pub active: bool,
    /// `Some(networks)` exactly when the session's set of visible networks
    /// changed entering this slot (mobility, AP churn, first activation into
    /// an area that differs from the one its policy was built for). The
    /// engine forwards it to [`Policy::on_networks_changed`] before the
    /// session chooses.
    ///
    /// [`Policy::on_networks_changed`]: crate::Policy::on_networks_changed
    pub networks_changed: Option<&'a [NetworkId]>,
}

impl SessionView<'_> {
    /// The static-world view: active every slot, networks never change.
    #[must_use]
    pub fn active_static() -> Self {
        SessionView {
            active: true,
            networks_changed: None,
        }
    }
}

/// A contiguous range of sessions `[start, end)` forming one independent
/// feedback partition (see the `environment` module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SessionRange {
    /// First session of the partition (inclusive).
    pub start: usize,
    /// One past the last session of the partition (exclusive).
    pub end: usize,
}

impl SessionRange {
    /// The range `[start, end)` (empty when `end <= start`).
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        SessionRange { start, end }
    }

    /// Number of sessions in the partition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the partition holds no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` when `ranges` is a valid partition layout for `sessions`
    /// sessions: ordered, disjoint and tiling `0..sessions` exactly (empty
    /// ranges are permitted). Drivers may use this to reject malformed
    /// layouts before fanning work out.
    #[must_use]
    pub fn tile(ranges: &[SessionRange], sessions: usize) -> bool {
        let mut cursor = 0usize;
        for range in ranges {
            if range.start != cursor || range.end < range.start {
                return false;
            }
            cursor = range.end;
        }
        cursor == sessions
    }
}

/// One unit of partitioned-feedback work: grades exactly one partition.
/// Jobs borrow disjoint mutable state from the environment, so an executor
/// may run them in any order, concurrently or not, without changing the
/// result.
pub type PartitionJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Executes a batch of independent [`PartitionJob`]s — the driver-provided
/// half of the partitioned-feedback protocol. A fleet engine backs this with
/// its worker pool; the sequential fallback is [`SequentialExecutor`].
pub trait PartitionExecutor: Sync {
    /// Runs every job exactly once, in any order. Must not return until all
    /// jobs have finished.
    fn run(&self, jobs: Vec<PartitionJob<'_>>);
}

/// A [`PartitionExecutor`] that runs jobs on the calling thread, in order —
/// the reference execution every parallel executor must agree with
/// bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl PartitionExecutor for SequentialExecutor {
    fn run(&self, jobs: Vec<PartitionJob<'_>>) {
        for job in jobs {
            job();
        }
    }
}

/// Error restoring an environment from serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvStateError(pub String);

impl fmt::Display for EnvStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "environment state error: {}", self.0)
    }
}

impl std::error::Error for EnvStateError {}

/// A world that couples a fleet of sessions: per-slot visibility and
/// activity per session, plus joint-choice → per-session feedback.
///
/// See the `environment` module documentation for the phase protocol and the
/// determinism contract. `Send + Sync` is required because
/// [`session_view`](Self::session_view) is called from parallel workers.
pub trait Environment: Send + Sync {
    /// Number of sessions this environment provides feedback for. A driver
    /// must host exactly this many sessions, in the same order.
    fn sessions(&self) -> usize;

    /// Advances environment state to the start of `slot`: applies scheduled
    /// bandwidth events, moves walking devices between service areas,
    /// opens/closes activity windows. Called exactly once per slot, before
    /// any session chooses.
    fn begin_slot(&mut self, slot: SlotIndex);

    /// Partition-parallel variant of [`begin_slot`](Self::begin_slot),
    /// sharded over the same [`feedback_partitions`](Self::feedback_partitions)
    /// as the feedback phase. Drivers may call it instead of `begin_slot`
    /// whenever the environment advertises partitions; both must produce
    /// bit-identical state (the slot refresh is expected to be RNG-free per
    /// session, so unlike `feedback_partitioned` there are no per-partition
    /// RNG streams to carry).
    ///
    /// The default ignores `executor` and runs the sequential
    /// [`begin_slot`](Self::begin_slot) — third-party environments are
    /// untouched.
    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        let _ = executor;
        self.begin_slot(slot);
    }

    /// The view of session `session` for the current slot. Called from
    /// parallel workers during the choose phase, after
    /// [`begin_slot`](Self::begin_slot); implementations must precompute any
    /// per-session changes there.
    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_>;

    /// Converts the joint choices of the current slot into per-session
    /// feedback.
    ///
    /// `choices[i]` is `None` for sessions that sat the slot out; `out` is a
    /// persistent buffer owned by the driver, resized to one entry per
    /// session (entries still hold the previous slot's observations, so
    /// implementations may scavenge their heap allocations — e.g.
    /// full-information gain vectors — before overwriting). Write `None` for
    /// inactive sessions.
    ///
    /// Runs sequentially; environment randomness must be drawn from the
    /// environment's own state in a canonical (session-order) sequence.
    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    );

    /// The independent feedback partitions of this world, or `None` when the
    /// feedback phase is inherently sequential (the default — third-party
    /// environments are untouched).
    ///
    /// When `Some`, the ranges must be ordered, disjoint and tile
    /// `0..sessions()` exactly (see [`SessionRange::tile`]), must stay fixed
    /// for the environment's lifetime, and feedback for a session in one
    /// partition must not depend on the choices of sessions in another.
    /// Drivers are then allowed to call
    /// [`feedback_partitioned`](Self::feedback_partitioned) instead of
    /// [`feedback`](Self::feedback); both must produce bit-identical results.
    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        None
    }

    /// Partition-parallel variant of [`feedback`](Self::feedback):
    /// implementations package one [`PartitionJob`] per advertised partition
    /// — each owning disjoint mutable state (the partition's RNG stream,
    /// share/load buffers, its slice of `out`) — and hand the batch to the
    /// driver's `executor`, then perform any sequential cross-partition
    /// reduce (recorders, global accounting) after it returns.
    ///
    /// The default ignores `executor` and runs the sequential
    /// [`feedback`](Self::feedback); environments advertising partitions
    /// must override it (and keep the two paths bit-identical — the
    /// recommended shape is to implement `feedback` as
    /// `self.feedback_partitioned(slot, choices, out, &SequentialExecutor)`).
    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        let _ = executor;
        self.feedback(slot, choices, out);
    }

    /// `true` when this environment produces **shared** (gossiped) feedback:
    /// the driver will then call
    /// [`shared_feedback_into`](Self::shared_feedback_into) for every session
    /// that observed feedback this slot and forward the digest to
    /// [`Policy::observe_shared`](crate::Policy::observe_shared). The default
    /// is `false` — isolated worlds pay nothing.
    fn shares_feedback(&self) -> bool {
        false
    }

    /// Copies the gossip digest visible to `session` this slot into `out`
    /// (a driver-owned scratch buffer, overwritten entirely); returns `true`
    /// when the digest carries any entries.
    ///
    /// Called from parallel workers during the observe phase (`&self`), after
    /// [`feedback`](Self::feedback) has run — implementations must have
    /// finalised their digests there.
    fn shared_feedback_into(&self, session: usize, out: &mut crate::SharedFeedback) -> bool {
        let _ = (session, out);
        false
    }

    /// `true` when [`end_slot`](Self::end_slot) wants each session's
    /// most-probable network (the `tops` argument). Computing it costs one
    /// distribution read per session per slot, so fleet-scale environments
    /// leave this `false` (the default) and `end_slot` receives an empty
    /// slice.
    fn wants_top_choices(&self) -> bool {
        false
    }

    /// End-of-slot event hook, fired after every session has observed its
    /// feedback. `tops[i]` is session `i`'s most probable network and its
    /// probability (only populated when
    /// [`wants_top_choices`](Self::wants_top_choices) returns `true`;
    /// recorders use it for stable-state detection). The default does
    /// nothing.
    fn end_slot(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        tops: &[Option<(NetworkId, f64)>],
    ) {
        let _ = (slot, choices, tops);
    }

    /// Enables or disables streaming telemetry accumulation; returns `true`
    /// when this environment supports it (and the new setting took effect).
    ///
    /// Telemetry is pure observation: toggling it must not change choices,
    /// gains, the environment RNG trajectory or [`state`](Self::state).
    /// Environments that support partitioned feedback accumulate one
    /// [`SlotMetrics`](smartexp3_telemetry::SlotMetrics) per partition while
    /// grading and merge them in canonical partition order, so the series is
    /// identical at any thread count and with partitioning on or off. The
    /// default declines (`false`): worlds without telemetry pay nothing.
    fn set_telemetry(&mut self, enabled: bool) -> bool {
        let _ = enabled;
        false
    }

    /// The metrics accumulated for the most recently graded slot, or `None`
    /// when telemetry is unsupported or disabled.
    fn telemetry(&self) -> Option<&smartexp3_telemetry::SlotMetrics> {
        None
    }

    /// The decision cadence of `session` in slots: once awake at time `t`,
    /// the session next decides at `t + wake_cadence(session)` (unless
    /// [`next_wake`](Self::next_wake) is overridden with a richer schedule).
    /// The default — cadence 1, every session decides every slot — is the
    /// uniform-cadence adapter that makes slot-synchronous environments
    /// satisfy the event protocol unchanged. Implementations must return a
    /// value ≥ 1; drivers clamp 0 to 1.
    fn wake_cadence(&self, session: usize) -> usize {
        let _ = session;
        1
    }

    /// The first slot at which `session` decides. The default (slot 0,
    /// matching slot-synchronous stepping) suits uniform worlds; duty-cycle
    /// worlds stagger first wakes so cohorts do not all collide at 0.
    fn first_wake(&self, session: usize) -> SlotIndex {
        let _ = session;
        0
    }

    /// The next slot at which `session` decides, given that it just decided
    /// at `woke_at`. Must be strictly greater than `woke_at` (drivers clamp
    /// to `woke_at + 1`). The default applies
    /// [`wake_cadence`](Self::wake_cadence) as a fixed period.
    fn next_wake(&self, session: usize, woke_at: SlotIndex) -> SlotIndex {
        woke_at + self.wake_cadence(session).max(1)
    }

    /// The earliest slot **at or after** `from` at which the environment's
    /// own state changes (a scheduled bandwidth event fires, a device moves
    /// between areas, an activity window opens or closes) — or `None` when
    /// no such slot remains. An event-driven driver must call
    /// [`begin_slot`](Self::begin_slot) (or its partitioned variant) at
    /// every such slot even when no session wakes there, because slot-state
    /// advances like event-schedule cursors are applied, not skipped.
    ///
    /// The default (`None`) declares the environment free of pushed events:
    /// its `begin_slot` must then tolerate being called only at wake times
    /// (i.e. its per-slot refresh is a pure function of the absolute slot).
    fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
        let _ = from;
        None
    }

    /// Serializes the environment's dynamic state (current bandwidths,
    /// pending events, mobility positions, environment RNG, per-session
    /// accounting) as an opaque JSON string, or `None` when this environment
    /// cannot be checkpointed.
    fn state(&self) -> Option<String> {
        None
    }

    /// Restores dynamic state captured by [`state`](Self::state) on a
    /// freshly built environment with the same static configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EnvStateError`] when the state text does not parse or does
    /// not match this environment's configuration.
    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        let _ = state;
        Err(EnvStateError(
            "this environment does not support checkpointing".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_view_is_active_without_changes() {
        let view = SessionView::active_static();
        assert!(view.active);
        assert!(view.networks_changed.is_none());
        assert_eq!(
            view,
            SessionView {
                active: true,
                networks_changed: None
            }
        );
    }

    #[test]
    fn default_view_is_inactive() {
        assert!(!SessionView::default().active);
    }

    #[test]
    fn state_error_displays_its_message() {
        let error = EnvStateError("bad cursor".to_string());
        assert!(error.to_string().contains("bad cursor"));
    }

    struct Trivial;

    impl Environment for Trivial {
        fn sessions(&self) -> usize {
            1
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
            out[0] = choices[0].map(|network| Observation::bandit(slot, network, 1.0, 0.5));
        }
    }

    #[test]
    fn session_ranges_validate_tilings() {
        let tiling = [
            SessionRange::new(0, 3),
            SessionRange::new(3, 3),
            SessionRange::new(3, 7),
        ];
        assert!(SessionRange::tile(&tiling, 7));
        assert!(SessionRange::tile(&[], 0));
        assert_eq!(tiling[0].len(), 3);
        assert!(tiling[1].is_empty());
        // Gaps, overlaps, inversions and short covers are all rejected.
        assert!(!SessionRange::tile(&tiling, 8));
        assert!(!SessionRange::tile(&[SessionRange::new(1, 4)], 4));
        assert!(!SessionRange::tile(
            &[SessionRange::new(0, 3), SessionRange::new(2, 4)],
            4
        ));
        assert!(!SessionRange::tile(&[SessionRange::new(0, 3)], 4));
        let inverted = SessionRange::new(5, 2);
        assert!(inverted.is_empty());
        assert_eq!(inverted.len(), 0);
        assert!(!SessionRange::tile(&[inverted], 2));
    }

    #[test]
    fn sequential_executor_runs_every_job_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let jobs: Vec<PartitionJob<'_>> = (0..4)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as PartitionJob<'_>
            })
            .collect();
        SequentialExecutor.run(jobs);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn trait_defaults_are_usable() {
        let mut env = Trivial;
        assert!(!env.wants_top_choices());
        assert!(!env.shares_feedback());
        assert!(env.feedback_partitions().is_none());
        let mut digest = crate::SharedFeedback::default();
        assert!(!env.shared_feedback_into(0, &mut digest));
        assert!(digest.is_empty());
        assert!(env.state().is_none());
        assert!(env.restore("{}").is_err());
        env.end_slot(0, &[Some(NetworkId(0))], &[]);
        let mut out = vec![None];
        env.feedback(0, &[Some(NetworkId(0))], &mut out);
        assert_eq!(out[0].as_ref().map(|o| o.network), Some(NetworkId(0)));
        // The default partitioned path is the sequential one.
        out[0] = None;
        env.feedback_partitioned(0, &[Some(NetworkId(0))], &mut out, &SequentialExecutor);
        assert_eq!(out[0].as_ref().map(|o| o.network), Some(NetworkId(0)));
    }

    #[test]
    fn wake_protocol_defaults_to_uniform_cadence() {
        let env = Trivial;
        assert_eq!(env.wake_cadence(0), 1);
        assert_eq!(env.first_wake(0), 0);
        // Uniform cadence 1: the wake schedule is exactly the slot sequence.
        assert_eq!(env.next_wake(0, 0), 1);
        assert_eq!(env.next_wake(0, 41), 42);
        // No pushed events anywhere.
        assert!(env.next_env_event(0).is_none());
        assert!(env.next_env_event(1_000_000).is_none());
    }

    #[test]
    fn next_wake_clamps_zero_cadence_to_one() {
        struct ZeroCadence;
        impl Environment for ZeroCadence {
            fn sessions(&self) -> usize {
                1
            }
            fn begin_slot(&mut self, _slot: SlotIndex) {}
            fn session_view(&self, _session: usize, _slot: SlotIndex) -> SessionView<'_> {
                SessionView::active_static()
            }
            fn feedback(
                &mut self,
                _slot: SlotIndex,
                _choices: &[Option<NetworkId>],
                _out: &mut [Option<Observation>],
            ) {
            }
            fn wake_cadence(&self, _session: usize) -> usize {
                0
            }
        }
        // A buggy cadence of 0 must still make forward progress.
        assert_eq!(ZeroCadence.next_wake(0, 7), 8);
    }
}
