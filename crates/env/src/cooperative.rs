//! The Co-Bandit cooperative-feedback layer: a wrapper [`Environment`] that
//! lets sessions gossip their observed rates between slots.
//!
//! *Cooperation Speeds Surfing: Use Co-Bandit!* (Appavoo, Gilbert, Tan 2019)
//! shows that devices which share what they observed converge markedly
//! faster than isolated bandits. [`CooperativeEnvironment`] retrofits that
//! onto **any** existing world: it delegates all world logic (visibility,
//! activity, joint-choice feedback) to the wrapped environment and, during
//! the sequential feedback phase, folds each session's observed rate into
//! its **neighbourhood digest** — a per-network, staleness-decayed
//! [`SharedFeedback`] the whole neighbourhood reads back during the observe
//! phase.
//!
//! Two gossip modes ([`GossipMode`]):
//!
//! * **broadcast** — every graded session's report enters its
//!   neighbourhood's digest each slot (the paper's reliable-broadcast
//!   baseline);
//! * **probabilistic push** — each session gossips with probability `p`,
//!   drawn from its **neighbourhood's own RNG stream** (Co-Bandit's
//!   epidemic dissemination). Per-neighbourhood streams, advanced in
//!   canonical session order, keep sharded replay bit-identical at any
//!   thread count — and are exactly what lets the gossip fold ride the
//!   wrapped environment's **feedback partitions**: when every
//!   neighbourhood lies within one partition, the wrapper forwards the
//!   partitions and folds each partition's gossip in a second parallel
//!   wave, so a cooperative world loses none of the sharded-feedback
//!   speedup.
//!
//! Checkpointing composes: [`Environment::state`] bundles the wrapped
//! environment's state with every digest and every gossip RNG stream, so a
//! mid-run snapshot of a cooperative scenario restores bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smartexp3_core::{
    EnvStateError, Environment, NetworkId, Observation, PartitionExecutor, PartitionJob,
    SessionRange, SessionView, SharedFeedback, SlotIndex,
};

/// How reports propagate through a neighbourhood each slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GossipMode {
    /// Every graded session's observed rate enters its neighbourhood digest.
    Broadcast,
    /// Each graded session pushes its report with this probability, drawn
    /// from the neighbourhood's own RNG stream (clamped to `[0, 1]`).
    ProbabilisticPush(f64),
}

/// Configuration of the gossip layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Dissemination mode.
    pub mode: GossipMode,
    /// Fraction of a digest entry's weight retained per slot (staleness
    /// decay; see [`SharedFeedback::new`]).
    pub retention: f64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            mode: GossipMode::Broadcast,
            retention: 0.5,
        }
    }
}

impl GossipConfig {
    /// Broadcast gossip with the default staleness decay.
    #[must_use]
    pub fn broadcast() -> Self {
        GossipConfig::default()
    }

    /// Probabilistic-push gossip (each session reports with probability
    /// `probability`) with the default staleness decay.
    #[must_use]
    pub fn push(probability: f64) -> Self {
        GossipConfig {
            mode: GossipMode::ProbabilisticPush(probability.clamp(0.0, 1.0)),
            ..GossipConfig::default()
        }
    }

    /// Overrides the per-slot digest retention factor.
    #[must_use]
    pub fn with_retention(mut self, retention: f64) -> Self {
        self.retention = retention;
        self
    }
}

use smartexp3_core::splitmix64;

/// Derives neighbourhood `area`'s gossip RNG stream from the gossip seed.
/// The extra constant keeps these streams distinct from the wrapped
/// environment's RNG (seeded with the raw environment seed) and from every
/// per-session stream.
fn gossip_rng(seed: u64, area: usize) -> StdRng {
    let mixed = splitmix64(seed ^ 0x5851_F42D_4C95_7F2D)
        ^ (area as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    StdRng::seed_from_u64(splitmix64(mixed))
}

/// Serialized dynamic state (see [`Environment::state`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CooperativeEnvState {
    inner: String,
    digests: Vec<SharedFeedback>,
    rngs: Vec<[u64; 4]>,
}

/// How the gossip phase rides the wrapped environment's feedback
/// partitions: per inner partition, its session range and the contiguous
/// neighbourhood-id range whose digests and RNG streams its gossip job owns.
struct GossipPlan {
    /// The inner partitions' session ranges, cached at construction (the
    /// layout is fixed for an environment's lifetime).
    ranges: Vec<SessionRange>,
    /// Per partition: `[start, end)` over neighbourhood ids.
    neighbourhoods: Vec<(usize, usize)>,
}

/// Maps every neighbourhood to the partition of its sessions and checks the
/// layout is splittable: no neighbourhood spans two partitions, and
/// neighbourhood ids group contiguously in partition order (empty
/// neighbourhoods attach to the earliest open group). Returns `None` when
/// the gossip topology does not align with the partitions — the wrapper
/// then keeps the sequential path.
fn build_gossip_plan(
    membership: &[usize],
    neighbourhoods: usize,
    ranges: &[SessionRange],
) -> Option<GossipPlan> {
    if !SessionRange::tile(ranges, membership.len()) {
        return None;
    }
    let mut owner: Vec<Option<usize>> = vec![None; neighbourhoods];
    for (partition, range) in ranges.iter().enumerate() {
        for session in range.start..range.end {
            match owner[membership[session]] {
                None => owner[membership[session]] = Some(partition),
                Some(existing) if existing == partition => {}
                Some(_) => return None,
            }
        }
    }
    let mut plan = Vec::with_capacity(ranges.len());
    let mut cursor = 0usize;
    for partition in 0..ranges.len() {
        let start = cursor;
        while cursor < neighbourhoods && owner[cursor].is_none_or(|p| p == partition) {
            cursor += 1;
        }
        plan.push((start, cursor));
    }
    (cursor == neighbourhoods).then_some(GossipPlan {
        ranges: ranges.to_vec(),
        neighbourhoods: plan,
    })
}

/// A cooperative-feedback wrapper around any [`Environment`]. See the
/// `cooperative` module documentation.
pub struct CooperativeEnvironment {
    inner: Box<dyn Environment>,
    config: GossipConfig,
    /// `membership[i]` is the neighbourhood session `i` gossips in.
    membership: Vec<usize>,
    /// One digest per neighbourhood.
    digests: Vec<SharedFeedback>,
    /// One gossip RNG stream per neighbourhood (advanced only by
    /// probabilistic-push draws, in canonical session order).
    rngs: Vec<StdRng>,
    /// `Some` when the gossip topology aligns with the wrapped
    /// environment's feedback partitions — the wrapper then forwards the
    /// partitions and runs the gossip fold as a second partitioned wave.
    plan: Option<GossipPlan>,
}

impl CooperativeEnvironment {
    /// Wraps `inner` with a gossip layer.
    ///
    /// `membership` maps every session to its gossip neighbourhood (dense
    /// indices from 0; typically the session's service area). `gossip_seed`
    /// seeds the per-neighbourhood RNG streams — scenario builders pass the
    /// fleet's environment seed, and the wrapper decorrelates internally.
    ///
    /// # Panics
    ///
    /// Panics when `membership.len() != inner.sessions()` — the gossip layer
    /// and the world must describe the same session set.
    #[must_use]
    pub fn new(
        inner: Box<dyn Environment>,
        membership: Vec<usize>,
        config: GossipConfig,
        gossip_seed: u64,
    ) -> Self {
        assert_eq!(
            membership.len(),
            inner.sessions(),
            "gossip membership describes {} sessions, environment hosts {}",
            membership.len(),
            inner.sessions()
        );
        // Sanitise once here rather than per draw: `GossipConfig`'s fields
        // are public, so a push probability built around the `push()`
        // constructor's clamp (1.5, NaN, …) would otherwise panic inside
        // `gen_bool` on the first graded slot. Non-finite means "never".
        let config = GossipConfig {
            mode: match config.mode {
                GossipMode::ProbabilisticPush(p) => {
                    GossipMode::ProbabilisticPush(if p.is_finite() {
                        p.clamp(0.0, 1.0)
                    } else {
                        0.0
                    })
                }
                GossipMode::Broadcast => GossipMode::Broadcast,
            },
            ..config
        };
        let neighbourhoods = membership.iter().map(|&m| m + 1).max().unwrap_or(0);
        let plan = inner
            .feedback_partitions()
            .and_then(|ranges| build_gossip_plan(&membership, neighbourhoods, ranges));
        CooperativeEnvironment {
            inner,
            config,
            membership,
            digests: (0..neighbourhoods)
                .map(|_| SharedFeedback::new(config.retention))
                .collect(),
            rngs: (0..neighbourhoods)
                .map(|area| gossip_rng(gossip_seed, area))
                .collect(),
            plan,
        }
    }

    /// The gossip configuration.
    #[must_use]
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Number of gossip neighbourhoods.
    #[must_use]
    pub fn neighbourhoods(&self) -> usize {
        self.digests.len()
    }

    /// The current digest of neighbourhood `area`.
    #[must_use]
    pub fn digest(&self, area: usize) -> &SharedFeedback {
        &self.digests[area]
    }

    /// Read access to the wrapped environment.
    #[must_use]
    pub fn inner(&self) -> &dyn Environment {
        self.inner.as_ref()
    }
}

impl Environment for CooperativeEnvironment {
    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        self.inner.begin_slot(slot);
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        // The gossip phase never runs at slot begin, so the wrapped world's
        // sharded refresh is safe regardless of the neighbourhood plan.
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
        // Gossip phase: age every digest one slot, then fold this slot's
        // reports in. Sessions are visited in canonical order and each push
        // draw comes from the session's *neighbourhood* stream, so the
        // trajectory is independent of how the driver sharded the fleet.
        for digest in &mut self.digests {
            digest.decay();
        }
        for (index, observation) in out.iter().enumerate() {
            let Some(observation) = observation else {
                continue;
            };
            let area = self.membership[index];
            let push = match self.config.mode {
                GossipMode::Broadcast => true,
                GossipMode::ProbabilisticPush(probability) => self.rngs[area].gen_bool(probability),
            };
            if push {
                self.digests[area].record(observation.network, observation.scaled_gain);
            }
        }
    }

    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        // Forward the wrapped environment's partitions only when the gossip
        // topology splits along them; otherwise the feedback phase must stay
        // sequential (one neighbourhood's stream would be shared otherwise).
        self.plan.as_ref()?;
        self.inner.feedback_partitions()
    }

    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        let Some(plan) = &self.plan else {
            self.feedback(slot, choices, out);
            return;
        };
        // Wave 1: the wrapped world grades its partitions.
        self.inner
            .feedback_partitioned(slot, choices, out, executor);
        // Wave 2: the gossip fold, one job per partition — each decays and
        // refills its own neighbourhoods' digests, drawing push decisions
        // from the neighbourhoods' streams in canonical session order
        // (bit-identical to the sequential fold in `feedback`).
        let out_view: &[Option<Observation>] = out;
        let membership: &[usize] = &self.membership;
        let mode = self.config.mode;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(plan.ranges.len());
        let mut digests_rest: &mut [SharedFeedback] = &mut self.digests;
        let mut rngs_rest: &mut [StdRng] = &mut self.rngs;
        for (range, &(first, last)) in plan.ranges.iter().zip(&plan.neighbourhoods) {
            let count = last - first;
            let (job_digests, rest) = digests_rest.split_at_mut(count);
            digests_rest = rest;
            let (job_rngs, rest) = rngs_rest.split_at_mut(count);
            rngs_rest = rest;
            let range = *range;
            jobs.push(Box::new(move || {
                for digest in job_digests.iter_mut() {
                    digest.decay();
                }
                for session in range.start..range.end {
                    let Some(observation) = &out_view[session] else {
                        continue;
                    };
                    let local = membership[session] - first;
                    let push = match mode {
                        GossipMode::Broadcast => true,
                        GossipMode::ProbabilisticPush(probability) => {
                            job_rngs[local].gen_bool(probability)
                        }
                    };
                    if push {
                        job_digests[local].record(observation.network, observation.scaled_gain);
                    }
                }
            }));
        }
        executor.run(jobs);
    }

    fn shares_feedback(&self) -> bool {
        true
    }

    fn shared_feedback_into(&self, session: usize, out: &mut SharedFeedback) -> bool {
        let digest = &self.digests[self.membership[session]];
        if digest.is_empty() {
            return false;
        }
        out.copy_from(digest);
        true
    }

    fn wants_top_choices(&self) -> bool {
        self.inner.wants_top_choices()
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        // Gossip is pure information sharing; the graded quantities live in
        // the wrapped world, so telemetry is the inner environment's.
        self.inner.set_telemetry(enabled)
    }

    fn telemetry(&self) -> Option<&smartexp3_core::SlotMetrics> {
        self.inner.telemetry()
    }

    fn end_slot(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        tops: &[Option<(NetworkId, f64)>],
    ) {
        self.inner.end_slot(slot, choices, tops);
    }

    fn state(&self) -> Option<String> {
        let inner = self.inner.state()?;
        let state = CooperativeEnvState {
            inner,
            digests: self.digests.clone(),
            rngs: self.rngs.iter().map(StdRng::state).collect(),
        };
        serde_json::to_string(&state).ok()
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        let state: CooperativeEnvState = serde_json::from_str(state)
            .map_err(|error| EnvStateError(format!("unparseable cooperative state: {error}")))?;
        if state.digests.len() != self.digests.len() || state.rngs.len() != self.rngs.len() {
            return Err(EnvStateError(format!(
                "state describes {} neighbourhoods, environment hosts {}",
                state.digests.len(),
                self.digests.len()
            )));
        }
        self.inner.restore(&state.inner)?;
        self.digests = state.digests;
        self.rngs = state.rngs.into_iter().map(StdRng::from_state).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-network world: session `i` always gains `0.2 + 0.1·(i % 2)` on
    /// whatever it chose.
    struct TwoNetworks {
        sessions: usize,
    }

    impl Environment for TwoNetworks {
        fn sessions(&self) -> usize {
            self.sessions
        }
        fn begin_slot(&mut self, _slot: SlotIndex) {}
        fn session_view(&self, session: usize, _slot: SlotIndex) -> SessionView<'_> {
            // Odd sessions sit odd slots out... keep everyone active here;
            // inactivity is exercised by the engine-level tests.
            let _ = session;
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
                    let gain = 0.2 + 0.1 * (index % 2) as f64;
                    Observation::bandit(slot, network, gain * 22.0, gain)
                });
            }
        }
        fn state(&self) -> Option<String> {
            Some("{}".to_string())
        }
        fn restore(&mut self, _state: &str) -> Result<(), EnvStateError> {
            Ok(())
        }
    }

    fn wrap(sessions: usize, config: GossipConfig) -> CooperativeEnvironment {
        let membership = (0..sessions).map(|i| i / 2).collect();
        CooperativeEnvironment::new(Box::new(TwoNetworks { sessions }), membership, config, 9)
    }

    #[test]
    fn broadcast_gossip_fills_neighbourhood_digests() {
        let mut env = wrap(4, GossipConfig::broadcast());
        assert_eq!(env.neighbourhoods(), 2);
        assert!(env.shares_feedback());
        let choices = vec![
            Some(NetworkId(0)),
            Some(NetworkId(1)),
            Some(NetworkId(0)),
            None,
        ];
        let mut out = vec![None, None, None, None];
        env.begin_slot(0);
        env.feedback(0, &choices, &mut out);
        // Neighbourhood 0 heard both its sessions; neighbourhood 1 only the
        // active one.
        let mut digest = SharedFeedback::default();
        assert!(env.shared_feedback_into(0, &mut digest));
        assert_eq!(digest.len(), 2);
        assert!(env.shared_feedback_into(3, &mut digest));
        assert_eq!(digest.len(), 1);
        assert_eq!(
            digest.rate_of(NetworkId(0)).map(|r| r.weight),
            Some(1.0),
            "session 3 sat out, only session 2 reported"
        );
    }

    #[test]
    fn push_mode_draws_from_per_neighbourhood_streams() {
        // probability 0 never gossips, probability 1 always does; both are
        // deterministic regardless of the RNG stream state.
        let choices = vec![Some(NetworkId(0)); 4];
        let mut out = vec![None; 4];
        let mut never = wrap(4, GossipConfig::push(0.0));
        never.begin_slot(0);
        never.feedback(0, &choices, &mut out);
        let mut digest = SharedFeedback::default();
        assert!(!never.shared_feedback_into(0, &mut digest));

        let mut always = wrap(4, GossipConfig::push(1.0));
        always.begin_slot(0);
        always.feedback(0, &choices, &mut out);
        assert!(always.shared_feedback_into(0, &mut digest));
        assert_eq!(digest.rate_of(NetworkId(0)).unwrap().weight, 2.0);
    }

    #[test]
    fn out_of_range_push_probabilities_are_sanitised() {
        // `GossipConfig`'s fields are public, so a probability that bypassed
        // the `push()` constructor's clamp must not panic in `gen_bool`.
        let choices = vec![Some(NetworkId(0)); 4];
        let mut out = vec![None; 4];
        let mut digest = SharedFeedback::default();
        let mut over = wrap(
            4,
            GossipConfig {
                mode: GossipMode::ProbabilisticPush(1.5),
                retention: 0.5,
            },
        );
        over.begin_slot(0);
        over.feedback(0, &choices, &mut out);
        assert!(over.shared_feedback_into(0, &mut digest), "clamped to 1");
        let mut nan = wrap(
            4,
            GossipConfig {
                mode: GossipMode::ProbabilisticPush(f64::NAN),
                retention: 0.5,
            },
        );
        nan.begin_slot(0);
        nan.feedback(0, &choices, &mut out);
        assert!(!nan.shared_feedback_into(0, &mut digest), "NaN means never");
    }

    #[test]
    fn digests_decay_between_slots() {
        let mut env = wrap(2, GossipConfig::broadcast().with_retention(0.0));
        let mut out = vec![None, None];
        env.begin_slot(0);
        env.feedback(0, &[Some(NetworkId(1)), Some(NetworkId(1))], &mut out);
        assert_eq!(env.digest(0).rate_of(NetworkId(1)).unwrap().weight, 2.0);
        // Next slot: nobody reports, retention 0 forgets everything.
        env.begin_slot(1);
        env.feedback(1, &[None, None], &mut out);
        assert!(env.digest(0).is_empty());
    }

    /// A partitioned inner world: every session always gains `0.5` on its
    /// choice, sessions split into fixed-size partitions.
    struct PartitionedInner {
        sessions: usize,
        ranges: Vec<SessionRange>,
    }

    impl PartitionedInner {
        fn new(sessions: usize, per_partition: usize) -> Self {
            let ranges = (0..sessions.div_ceil(per_partition))
                .map(|p| {
                    SessionRange::new(p * per_partition, ((p + 1) * per_partition).min(sessions))
                })
                .collect();
            PartitionedInner { sessions, ranges }
        }
    }

    impl Environment for PartitionedInner {
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
                out[index] = choice.map(|network| Observation::bandit(slot, network, 11.0, 0.5));
            }
        }
        fn feedback_partitions(&self) -> Option<&[SessionRange]> {
            Some(&self.ranges)
        }
        fn feedback_partitioned(
            &mut self,
            slot: SlotIndex,
            choices: &[Option<NetworkId>],
            out: &mut [Option<Observation>],
            _executor: &dyn PartitionExecutor,
        ) {
            self.feedback(slot, choices, out);
        }
        fn state(&self) -> Option<String> {
            Some("{}".to_string())
        }
        fn restore(&mut self, _state: &str) -> Result<(), EnvStateError> {
            Ok(())
        }
    }

    /// Runs partition jobs in reverse order — any shared gossip stream or
    /// digest leak across partitions would diverge from the sequential fold.
    struct ReverseExecutor;

    impl PartitionExecutor for ReverseExecutor {
        fn run(&self, jobs: Vec<PartitionJob<'_>>) {
            for job in jobs.into_iter().rev() {
                job();
            }
        }
    }

    #[test]
    fn aligned_neighbourhoods_forward_the_inner_partitions() {
        // 8 sessions, inner partitions of 4, neighbourhoods of 2: every
        // neighbourhood lies inside one partition, so the plan builds.
        let membership = (0..8).map(|i| i / 2).collect();
        let env = CooperativeEnvironment::new(
            Box::new(PartitionedInner::new(8, 4)),
            membership,
            GossipConfig::push(0.5),
            7,
        );
        let ranges = env.feedback_partitions().expect("aligned gossip splits");
        assert_eq!(ranges.len(), 2);
        let plan = env.plan.as_ref().unwrap();
        assert_eq!(plan.neighbourhoods, vec![(0, 2), (2, 4)]);

        // A neighbourhood spanning two partitions must refuse to split.
        let spanning = vec![0, 0, 0, 1, 1, 1, 2, 2];
        let env = CooperativeEnvironment::new(
            Box::new(PartitionedInner::new(8, 4)),
            spanning,
            GossipConfig::push(0.5),
            7,
        );
        assert!(env.plan.is_none());
        assert!(env.feedback_partitions().is_none());

        // An unpartitioned inner world never advertises partitions.
        let membership = (0..4).map(|i| i / 2).collect();
        let env = CooperativeEnvironment::new(
            Box::new(TwoNetworks { sessions: 4 }),
            membership,
            GossipConfig::push(0.5),
            7,
        );
        assert!(env.feedback_partitions().is_none());
    }

    #[test]
    fn partitioned_gossip_matches_the_sequential_fold_bit_for_bit() {
        let build = || {
            let membership = (0..12).map(|i| i / 3).collect();
            CooperativeEnvironment::new(
                Box::new(PartitionedInner::new(12, 6)),
                membership,
                GossipConfig::push(0.4),
                31,
            )
        };
        let mut sequential = build();
        let mut partitioned = build();
        let mut out_a = vec![None; 12];
        let mut out_b = vec![None; 12];
        for slot in 0..30 {
            let choices: Vec<Option<NetworkId>> = (0..12)
                .map(|i| ((i + slot) % 4 != 3).then(|| NetworkId(((i + slot) % 2) as u32)))
                .collect();
            sequential.feedback(slot, &choices, &mut out_a);
            partitioned.feedback_partitioned(slot, &choices, &mut out_b, &ReverseExecutor);
            assert_eq!(sequential.digests, partitioned.digests, "slot {slot}");
        }
        // The gossip streams advanced identically too.
        assert_eq!(sequential.state(), partitioned.state());
    }

    #[test]
    fn state_round_trips_digests_and_gossip_rngs() {
        let mut env = wrap(4, GossipConfig::push(0.5));
        let mut out = vec![None; 4];
        for slot in 0..5 {
            env.begin_slot(slot);
            env.feedback(slot, &[Some(NetworkId(slot as u32 % 2)); 4], &mut out);
        }
        let state = env.state().expect("cooperative state serializes");

        let mut restored = wrap(4, GossipConfig::push(0.5));
        restored.restore(&state).expect("state restores");
        assert_eq!(restored.digests, env.digests);
        // The gossip streams resume exactly: both copies must make identical
        // push decisions forever after.
        for slot in 5..20 {
            env.begin_slot(slot);
            restored.begin_slot(slot);
            let choices = vec![Some(NetworkId(0)); 4];
            let mut out_b = vec![None; 4];
            env.feedback(slot, &choices, &mut out);
            restored.feedback(slot, &choices, &mut out_b);
            assert_eq!(restored.digests, env.digests, "diverged at slot {slot}");
        }

        // Mismatched neighbourhood counts are rejected.
        let mut other = wrap(6, GossipConfig::push(0.5));
        assert!(other.restore(&state).is_err());
        assert!(env.restore("{broken").is_err());
    }
}
