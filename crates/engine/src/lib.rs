//! # smartexp3-engine
//!
//! A high-throughput **fleet engine**: hosts thousands to millions of
//! independent bandit sessions — each a [`Policy`] from `smartexp3-core`
//! plus its own deterministic RNG stream — and steps them in parallel with
//! batched APIs.
//!
//! ## Fleet lanes
//!
//! Sessions are stored in contiguous homogeneous **lane segments**: fleets
//! built through [`FleetEngine::add_fleet`] keep EXP3-family policies as
//! concrete values (`Vec<LaneSession<Exp3>>` / `Vec<LaneSession<SmartExp3>>`)
//! laid out back-to-back in session order, and every per-slot phase loop is
//! monomorphized per lane — no `Box` pointer-chase, no vtable call per
//! decision. Everything else (baselines, oracles, and any policy handed to
//! [`FleetEngine::add_session`]) runs on the **boxed fallback lane**, which
//! executes the exact same generic loop bodies through `Box<dyn Policy>`.
//! Lane routing is a storage decision only: each session keeps its private
//! RNG stream and runs the same policy code, so a lane fleet is
//! **bit-identical** to the same sessions added one by one as boxes — same
//! decisions, same snapshot bytes, at any thread count.
//!
//! ## Seeding model
//!
//! A fleet is created from a single **root seed**. Every session draws its
//! decisions from a private [`StdRng`] stream derived as
//! `mix(root_seed, session_id)` (a SplitMix64-style avalanche over both
//! words), so:
//!
//! * sessions never share RNG state — there is no cross-session ordering
//!   dependency, which is what makes sharded parallel stepping legal;
//! * the fleet's results are a pure function of `(root seed, session ids,
//!   observations)` — **identical at any thread count and shard size**;
//! * snapshots only need each stream's 256-bit state to resume bit-exactly.
//!
//! ## Batched stepping
//!
//! [`FleetEngine::choose_all`] / [`FleetEngine::observe_all`] run one slot in
//! two phases (useful when feedback couples sessions, e.g. congestion
//! sharing), while [`FleetEngine::step_with`] fuses both into a single
//! parallel traversal for independent-feedback workloads. Sessions are
//! processed in shards of [`FleetConfig::shard_size`] distributed over rayon
//! workers.
//!
//! ## Checkpointing
//!
//! [`FleetEngine::snapshot`] captures every session (policy learning state
//! via [`PolicyState`], RNG stream state, gain statistics) into a serde tree
//! that [`FleetEngine::from_snapshot`] restores **bit-identically**: a
//! restored fleet produces exactly the trajectory the original would have.
//! [`FleetEngine::to_json`] / [`FleetEngine::from_json`] wrap that in a
//! stable text format.
//!
//! ```rust
//! use smartexp3_core::{NetworkId, Observation, PolicyFactory, PolicyKind};
//! use smartexp3_engine::{FleetConfig, FleetEngine};
//!
//! # fn main() -> Result<(), smartexp3_core::ConfigError> {
//! let mut factory = PolicyFactory::new(vec![
//!     (NetworkId(0), 4.0),
//!     (NetworkId(1), 7.0),
//!     (NetworkId(2), 22.0),
//! ])?;
//! let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(7));
//! fleet.add_fleet(&mut factory, PolicyKind::SmartExp3, 1000)?;
//! for _ in 0..50 {
//!     fleet.step_with(|ctx| {
//!         let gain = if ctx.chosen == NetworkId(2) { 0.9 } else { 0.2 };
//!         Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain)
//!     });
//! }
//! let metrics = fleet.metrics();
//! assert_eq!(metrics.decisions, 50 * 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::{Deserialize, Serialize};
use smartexp3_core::{
    splitmix64, ConfigError, Environment, Exp3, FleetPolicies, NetworkId, NetworkStats,
    Observation, PartitionExecutor, PartitionJob, Policy, PolicyFactory, PolicyKind, PolicyState,
    PolicyStats, SharedFeedback, SlotIndex, SmartExp3,
};
use smartexp3_telemetry::{
    Histogram, LatencyStats, SamplerCounters, SlotTiming, TelemetryRecord, TelemetrySink,
};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Identifier of one session (one simulated device) within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Configuration of a [`FleetEngine`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Root seed from which every session's RNG stream is derived.
    pub root_seed: u64,
    /// Sessions per shard (the unit of work handed to a rayon worker).
    ///
    /// Larger shards amortise scheduling overhead; smaller shards balance
    /// load better. The default of 1024 keeps per-shard step cost in the
    /// tens-of-microseconds range for slot-level policies. Results are
    /// independent of this value.
    pub shard_size: usize,
    /// Worker threads for batched stepping. `None` uses the machine's
    /// available parallelism; `Some(1)` forces sequential stepping. Results
    /// are independent of this value.
    pub threads: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            root_seed: 0,
            shard_size: 1024,
            threads: None,
        }
    }
}

impl FleetConfig {
    /// Configuration with the given root seed and default parallelism.
    #[must_use]
    pub fn with_root_seed(root_seed: u64) -> Self {
        FleetConfig {
            root_seed,
            ..FleetConfig::default()
        }
    }

    /// Overrides the worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the shard size (clamped to ≥ 1).
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Derives the seed for an [`Environment`]'s own RNG from this fleet's
    /// root seed — a stream kept distinct (by an odd-multiplier avalanche
    /// over a different constant) from every per-session stream
    /// [`session_rng`] derives, so environment randomness never correlates
    /// with any session's decisions. Scenario builders use this so a fleet
    /// and its world are reproducible from the one root seed.
    #[must_use]
    pub fn environment_seed(&self) -> u64 {
        self.root_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xE489_21FB_5D5C_91F3)
    }
}

/// Derives session `id`'s private RNG stream from the fleet's root seed.
///
/// Exposed so external drivers (benches, analysis tools) can reproduce a
/// single session's stream without instantiating a fleet.
#[must_use]
pub fn session_rng(root_seed: u64, id: SessionId) -> StdRng {
    // Avalanche the root, decorrelate nearby ids with an odd-constant
    // multiply, and avalanche the combination; the result seeds the
    // generator's full 256-bit state through `seed_from_u64`'s own SplitMix64
    // expansion. The combine is deliberately asymmetric in (root, id) so
    // fleet A's session B never shares a stream with fleet B's session A.
    let mixed = splitmix64(root_seed) ^ id.0.wrapping_mul(0xA24B_AED4_963E_E407);
    StdRng::seed_from_u64(splitmix64(mixed))
}

/// One hosted session: a policy plus its private RNG stream and statistics.
///
/// `P` is the policy storage: a concrete EXP3-family type on the
/// monomorphized fleet lanes (the policy lives *inline* in the lane's `Vec`,
/// so a shard walk is a linear scan), or `Box<dyn Policy>` on the fallback
/// lane. `Box<dyn Policy>` implements [`Policy`] by delegation, so every
/// phase loop is written once, generically.
struct LaneSession<P> {
    id: SessionId,
    kind: PolicyKind,
    policy: P,
    rng: StdRng,
    /// Per-session gain statistics ([`NetworkStats`]), merged into fleet-wide
    /// per-kind aggregates by [`FleetEngine::metrics`].
    gains: NetworkStats,
    /// The network chosen for the slot currently in flight (or the most
    /// recently completed one).
    last_choice: Option<NetworkId>,
}

impl<P: Policy> LaneSession<P> {
    fn choose(&mut self, slot: SlotIndex) -> NetworkId {
        let chosen = self.policy.choose(slot, &mut self.rng);
        self.last_choice = Some(chosen);
        chosen
    }

    fn observe(&mut self, observation: &Observation) {
        self.gains
            .record_slot(observation.network, observation.scaled_gain);
        self.policy.observe(observation, &mut self.rng);
    }
}

/// A contiguous run of same-storage sessions, in global session order.
///
/// Sessions added consecutively with the same storage type extend the last
/// segment; a storage change starts a new one. Segments therefore partition
/// the global session index space into contiguous ranges by construction,
/// which is what lets the engine hand each rayon worker a plain sub-slice of
/// a lane plus the matching sub-slices of the global per-session buffers —
/// no scatter indices, no `unsafe`.
enum LaneSegment {
    /// Monomorphized lane: slot-level EXP3, stored inline.
    Exp3(Vec<LaneSession<Exp3>>),
    /// Monomorphized lane: Smart EXP3 (the full algorithm and all feature
    /// ablations are one concrete type), stored inline.
    Smart(Vec<LaneSession<SmartExp3>>),
    /// Fallback lane: anything behind `Box<dyn Policy>` (baselines, oracles
    /// and third-party policies).
    Boxed(Vec<LaneSession<Box<dyn Policy>>>),
}

/// A shard — at most `shard_size` contiguous sessions of one segment —
/// handed to a rayon worker. The variant is matched **once per shard**, so
/// the per-session loop body inside is statically dispatched for the
/// monomorphized lanes.
enum ShardSessions<'a> {
    /// Shard of an [`LaneSegment::Exp3`] lane.
    Exp3(&'a mut [LaneSession<Exp3>]),
    /// Shard of a [`LaneSegment::Smart`] lane.
    Smart(&'a mut [LaneSession<SmartExp3>]),
    /// Shard of the boxed fallback lane.
    Boxed(&'a mut [LaneSession<Box<dyn Policy>>]),
}

impl LaneSegment {
    fn len(&self) -> usize {
        match self {
            LaneSegment::Exp3(lane) => lane.len(),
            LaneSegment::Smart(lane) => lane.len(),
            LaneSegment::Boxed(lane) => lane.len(),
        }
    }

    /// Splits the segment into shard-sized session runs (the final shard may
    /// be shorter), wrapped for once-per-shard lane dispatch.
    fn shards(&mut self, shard_size: usize) -> Vec<ShardSessions<'_>> {
        match self {
            LaneSegment::Exp3(lane) => lane
                .chunks_mut(shard_size)
                .map(ShardSessions::Exp3)
                .collect(),
            LaneSegment::Smart(lane) => lane
                .chunks_mut(shard_size)
                .map(ShardSessions::Smart)
                .collect(),
            LaneSegment::Boxed(lane) => lane
                .chunks_mut(shard_size)
                .map(ShardSessions::Boxed)
                .collect(),
        }
    }
}

/// Runs `$body` with `$sessions` bound to the shard's typed session slice.
/// The match happens once per shard, so `$body` is monomorphized per lane:
/// static dispatch (and cross-call inlining) on the EXP3/Smart lanes, the
/// historical vtable path on the boxed fallback lane.
macro_rules! with_lane {
    ($shard:expr, |$sessions:ident| $body:expr) => {
        match $shard {
            ShardSessions::Exp3($sessions) => $body,
            ShardSessions::Smart($sessions) => $body,
            ShardSessions::Boxed($sessions) => $body,
        }
    };
}

/// Iterates every session of every segment in global session order, binding
/// `$session` to a `&`/`&mut LaneSession<_>` per the borrow of `$segments`.
/// Used by the sequential cold paths (metrics, snapshot, broadcast).
macro_rules! for_each_lane_session {
    ($segments:expr, |$session:ident| $body:expr) => {
        for segment in $segments {
            match segment {
                LaneSegment::Exp3(lane) => {
                    for $session in lane {
                        $body
                    }
                }
                LaneSegment::Smart(lane) => {
                    for $session in lane {
                        $body
                    }
                }
                LaneSegment::Boxed(lane) => {
                    for $session in lane {
                        $body
                    }
                }
            }
        }
    };
}

/// Reusable per-shard buffers for batched stepping.
///
/// One `SlotScratch` lives per shard, persists across slots, and is handed to
/// the feedback closure through [`StepContext::scratch`], so grading a slot
/// never has to allocate: a closure that attaches counterfactual
/// full-information gains takes the buffer with
/// [`full_gains_buffer`](Self::full_gains_buffer), and the engine reclaims
/// the allocation from the observation after the session has consumed it.
#[derive(Debug, Default)]
pub struct SlotScratch {
    /// Recycled backing storage for [`Observation::full_gains`].
    full_gains: Vec<(NetworkId, f64)>,
    /// Recycled distribution read buffer (top-choice extraction for
    /// environments whose recorders track stable states).
    probabilities: Vec<(NetworkId, f64)>,
    /// Recycled shared-feedback digest buffer: cooperative environments copy
    /// the gossip digest a session can hear into this buffer during the
    /// observe phase, so delivering shared feedback allocates nothing in
    /// steady state.
    shared: SharedFeedback,
}

impl SlotScratch {
    /// Creates an empty scratch space.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recycled full-gains buffer (cleared, capacity preserved).
    /// Attach the filled buffer to the returned [`Observation`] via
    /// [`Observation::with_full_gains`]; the engine recovers the allocation
    /// after the observation has been consumed.
    #[must_use]
    pub fn full_gains_buffer(&mut self) -> Vec<(NetworkId, f64)> {
        let mut buffer = std::mem::take(&mut self.full_gains);
        buffer.clear();
        buffer
    }

    /// Reclaims recyclable allocations from a consumed observation.
    fn recycle(&mut self, observation: Observation) {
        if let Some(mut gains) = observation.full_gains {
            gains.clear();
            self.full_gains = gains;
        }
    }
}

/// Everything [`FleetEngine::step_with`] tells the feedback closure about the
/// decision it must grade, plus the shard's reusable scratch space.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// The deciding session.
    pub session: SessionId,
    /// The slot being stepped.
    pub slot: SlotIndex,
    /// The network the session chose for this slot.
    pub chosen: NetworkId,
    /// The network the session used in the previous slot (`None` on its
    /// first slot), for switch accounting.
    pub previous: Option<NetworkId>,
    /// The shard's reusable buffers (see [`SlotScratch`]).
    pub scratch: &'a mut SlotScratch,
}

/// Aggregate behaviour of every session of one [`PolicyKind`] in the fleet.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KindMetrics {
    /// Number of sessions running this kind.
    pub sessions: usize,
    /// Summed behavioural counters of those sessions.
    pub policy: PolicyStats,
    /// Per-network gain statistics summed over those sessions.
    pub gains: NetworkStats,
}

impl KindMetrics {
    /// Mean scaled gain per slot across all sessions of this kind.
    #[must_use]
    pub fn mean_gain(&self) -> f64 {
        let slots = self.gains.total_slots();
        if slots == 0 {
            0.0
        } else {
            self.gains.total_gain() / slots as f64
        }
    }
}

/// A point-in-time view of fleet-wide aggregate behaviour.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Number of hosted sessions.
    pub sessions: usize,
    /// Slots stepped since the fleet was created (or restored state's value).
    pub slot: SlotIndex,
    /// Total decisions taken (`choose` calls) across all sessions.
    pub decisions: u64,
    /// Total network switches across all sessions.
    pub switches: u64,
    /// Total minimal resets across all sessions.
    pub resets: u64,
    /// Per-policy-kind aggregates, in [`PolicyKind::all`] order (only kinds
    /// present in the fleet appear).
    pub per_kind: Vec<(PolicyKind, KindMetrics)>,
}

impl FleetMetrics {
    /// The aggregate for one policy kind, if any session runs it.
    #[must_use]
    pub fn kind(&self, kind: PolicyKind) -> Option<&KindMetrics> {
        self.per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m)
    }
}

impl fmt::Display for FleetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} sessions, slot {}, {} decisions, {} switches, {} resets",
            self.sessions, self.slot, self.decisions, self.switches, self.resets
        )?;
        for (kind, metrics) in &self.per_kind {
            writeln!(
                f,
                "  {:<22} {:>8} sessions  mean gain {:.4}  switches {:>10}  resets {:>6}",
                kind.label(),
                metrics.sessions,
                metrics.mean_gain(),
                metrics.policy.switches,
                metrics.policy.resets,
            )?;
        }
        Ok(())
    }
}

/// Errors produced by fleet checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A session's policy cannot capture serializable state (the centralized
    /// oracle keeps its state in a shared coordinator).
    UnsupportedPolicy {
        /// The offending session.
        session: SessionId,
        /// Its policy kind.
        kind: PolicyKind,
    },
    /// The snapshot was produced by an incompatible engine version.
    UnsupportedVersion(u32),
    /// The snapshot text could not be parsed.
    Malformed(String),
    /// The environment rejected the snapshot (missing or incompatible
    /// environment state, or an environment that cannot be checkpointed).
    Environment(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedPolicy { session, kind } => write!(
                f,
                "{session} runs `{kind}`, whose state cannot be captured per session"
            ),
            SnapshotError::UnsupportedVersion(version) => write!(
                f,
                "unsupported fleet snapshot format version {version} \
                 (this engine writes version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Malformed(message) => write!(f, "malformed fleet snapshot: {message}"),
            SnapshotError::Environment(message) => {
                write!(f, "environment snapshot error: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Snapshot format version written by this engine.
///
/// A version-9 snapshot holds the engine configuration, every session's
/// policy state (weight tables with their distribution cache and, for
/// [`SamplerStrategy::Alias`](smartexp3_core::SamplerStrategy) configs, the
/// frozen Vose table, dirty-arm overlay and sampler counters), RNG stream
/// and gain statistics, the event-driven engine's wake queue
/// ([`FleetSnapshot::wake_queue`]) and, optionally, the dynamic state of the
/// [`Environment`] the fleet was stepped through
/// ([`FleetSnapshot::environment`]) — everything a restored fleet needs to
/// continue on the exact trajectory of the original. A snapshot of any
/// other version is rejected with [`SnapshotError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u32 = 9;

/// Checkpoint of one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Session identifier.
    pub id: u64,
    /// Policy kind (kept alongside the state because the Smart EXP3 feature
    /// ablations all share the [`PolicyState::SmartExp3`] variant).
    pub kind: PolicyKind,
    /// Full policy learning state.
    pub policy: PolicyState,
    /// The session RNG stream's 256-bit internal state.
    pub rng: [u64; 4],
    /// Per-session gain statistics.
    pub gains: NetworkStats,
    /// Network used in the most recent slot.
    pub last_choice: Option<NetworkId>,
}

/// Checkpoint of a whole fleet; serializable with `serde_json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Engine configuration (restored fleets keep it, including parallelism,
    /// though results never depend on the parallelism fields).
    pub config: FleetConfig,
    /// Next slot to be stepped.
    pub slot: SlotIndex,
    /// Next session id to be assigned.
    pub next_id: u64,
    /// Decisions taken so far.
    pub decisions: u64,
    /// Every session, in session order.
    pub sessions: Vec<SessionSnapshot>,
    /// Dynamic state of the [`Environment`] the fleet was stepped through
    /// (its own opaque JSON, see [`Environment::state`]), or `None` for
    /// closure-driven fleets.
    pub environment: Option<String>,
    /// Pending wakes of the event-driven engine path, sorted ascending by
    /// `(wake, session)` for stable snapshot bytes; `None` when the fleet
    /// was stepped slot-synchronously (the wake queue is then re-seeded from
    /// the environment's wake protocol on the next event-driven step).
    pub wake_queue: Option<Vec<WakeEntry>>,
}

impl FleetSnapshot {
    /// Serializes this snapshot to JSON. Same bytes as
    /// [`FleetEngine::to_json`], but usable after field-level edits (e.g.
    /// normalising [`wake_queue`](Self::wake_queue) away for
    /// stepping-mode-agnostic fingerprints).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        serde_json::to_string(self).map_err(|e| SnapshotError::Malformed(e.to_string()))
    }
}

/// One pending wake of the event-driven engine: session `session` decides
/// next at slot `wake`. A snapshot's queue holds exactly one entry per
/// session, none due before the snapshot's slot; restore rejects any other
/// queue as [`SnapshotError::Malformed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WakeEntry {
    /// The slot at which the session next decides.
    pub wake: SlotIndex,
    /// The session (by id — session ids are assigned sequentially, so this
    /// is also the session's index).
    pub session: u64,
}

/// Rebuilds the wake calendar from a snapshot's `(wake, session)` entries
/// for a fleet of `sessions` sessions at `slot`, rejecting every queue the
/// engine cannot have written: each session must appear exactly once and
/// wake no earlier than `slot`.
fn wake_calendar(
    pending: Vec<WakeEntry>,
    sessions: usize,
    slot: SlotIndex,
) -> Result<BTreeMap<SlotIndex, Vec<usize>>, SnapshotError> {
    let mut queued = vec![false; sessions];
    let mut wakes: BTreeMap<SlotIndex, Vec<usize>> = BTreeMap::new();
    for WakeEntry { wake, session } in pending {
        let malformed = |what: String| {
            SnapshotError::Malformed(format!("wake queue entry {session}@{wake} {what}"))
        };
        let index = usize::try_from(session)
            .ok()
            .filter(|&index| index < sessions)
            .ok_or_else(|| malformed(format!("names no session of {sessions}")))?;
        if std::mem::replace(&mut queued[index], true) {
            return Err(malformed("repeats its session".to_string()));
        }
        if wake < slot {
            return Err(malformed(format!("is due before slot {slot}")));
        }
        wakes.entry(wake).or_default().push(index);
    }
    match queued.iter().position(|&queued| !queued) {
        Some(missing) => Err(SnapshotError::Malformed(format!(
            "wake queue has no entry for session {missing}"
        ))),
        None => Ok(wakes),
    }
}

/// Per-shard work unit of the cohort choose phase: global offset, sessions,
/// the shard's slice of the cohort, its slices of the joint-choice buffer and
/// the last-choice mirror, and its tally (see [`FleetEngine::tallies`]).
type ChooseShard<'a> = (
    usize,
    ShardSessions<'a>,
    &'a [usize],
    &'a mut [Option<NetworkId>],
    &'a mut [Option<NetworkId>],
    &'a mut (f64, u64),
);

/// Per-shard work unit of the cohort observe phase: global offset, sessions,
/// the shard's slice of the cohort, its slice of the top-choice buffer and
/// its persistent scratch.
type ObserveShard<'a> = (
    usize,
    ShardSessions<'a>,
    &'a [usize],
    &'a mut [Option<(NetworkId, f64)>],
    &'a mut SlotScratch,
);

/// Layout of the cohort latency histogram: first real bucket at `2^-30` s
/// (~1 ns), 34 buckets, so the top bucket opens at 4 s — per-slot latencies
/// land comfortably inside.
const LATENCY_MIN_EXP: i32 = -30;
/// Bucket count of the latency histogram (see [`LATENCY_MIN_EXP`]).
const LATENCY_BUCKETS: usize = 34;

impl ShardSessions<'_> {
    /// Sessions in the shard.
    fn len(&self) -> usize {
        match self {
            ShardSessions::Exp3(sessions) => sessions.len(),
            ShardSessions::Smart(sessions) => sessions.len(),
            ShardSessions::Boxed(sessions) => sessions.len(),
        }
    }
}

/// Every shard of the fleet — exactly the sharding of
/// [`LaneSegment::shards`] — in global session order, with its global offset.
fn fleet_shards(
    segments: &mut [LaneSegment],
    shard_size: usize,
) -> Vec<(usize, ShardSessions<'_>)> {
    let mut offset = 0usize;
    segments
        .iter_mut()
        .flat_map(|segment| segment.shards(shard_size))
        .map(|shard| {
            let start = offset;
            offset += shard.len();
            (start, shard)
        })
        .collect()
}

/// [`fleet_shards`], each with its slice of the ascending cohort `members`
/// (empty when no member falls inside it). The cohort is sliced with
/// `partition_point`, so the cost grows with the shard count, not with how
/// the cohort is fragmented.
fn cohort_shards<'a>(
    segments: &'a mut [LaneSegment],
    members: &'a [usize],
    shard_size: usize,
) -> impl Iterator<Item = (usize, ShardSessions<'a>, &'a [usize])> {
    let mut rest = members;
    fleet_shards(segments, shard_size)
        .into_iter()
        .map(move |(offset, shard)| {
            let end = offset + shard.len();
            let (due, tail) = rest.split_at(rest.partition_point(|&index| index < end));
            rest = tail;
            (offset, shard, due)
        })
}

/// Splits the first `len` elements off `slice`, leaving the rest in place.
fn split_prefix<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(slice).split_at_mut(len);
    *slice = tail;
    head
}

/// The engine-side [`PartitionExecutor`]: runs an environment's feedback
/// partition jobs on the same worker pool the choose and observe shards use.
/// Each job owns disjoint environment state, so the pool's dynamic load
/// balancing never affects the result.
struct PoolExecutor<'a> {
    pool: &'a Option<ThreadPool>,
}

impl PartitionExecutor for PoolExecutor<'_> {
    fn run(&self, jobs: Vec<PartitionJob<'_>>) {
        FleetEngine::in_pool(self.pool, || {
            jobs.into_par_iter().for_each(|job| job());
        });
    }
}

/// A manager for a fleet of concurrently learning bandit sessions.
///
/// See the [crate documentation](crate) for the seeding and determinism
/// model. All batched entry points are deterministic given the root seed and
/// the observation sequence, regardless of `threads` and `shard_size`.
pub struct FleetEngine {
    config: FleetConfig,
    pool: Option<ThreadPool>,
    /// Sessions in global session order, stored as contiguous homogeneous
    /// lane segments (see the crate docs on fleet lanes). `self.last` always
    /// holds one entry per session, so it doubles as the session count.
    segments: Vec<LaneSegment>,
    slot: SlotIndex,
    next_id: u64,
    decisions: u64,
    choices: Vec<NetworkId>,
    /// Mirror of every session's most recent choice, maintained by all step
    /// paths so [`last_choices`](Self::last_choices) is a zero-alloc read.
    last: Vec<Option<NetworkId>>,
    /// One persistent [`SlotScratch`] per shard, grown on fleet growth only —
    /// steady-state stepping performs no per-**session** allocation. (A small
    /// O(shard-count) pairing vector is still built per step to hand each
    /// worker its shard and scratch together.)
    scratch: Vec<SlotScratch>,
    /// Persistent environment-stepping buffers (joint choices, feedback,
    /// top-choice reads), reused across [`step_env`](Self::step_env) calls.
    env_choices: Vec<Option<NetworkId>>,
    env_feedback: Vec<Option<Observation>>,
    env_tops: Vec<Option<(NetworkId, f64)>>,
    /// Wall-clock phase breakdown of the most recent [`step_env`]
    /// (`Self::step_env`) slot. Host timing, *not* covered by any
    /// determinism contract, and deliberately excluded from snapshots.
    last_timing: Option<SlotTiming>,
    /// Pending wakes of the event-driven path: a calendar from wake slot to
    /// the sessions due then (in reschedule order; each cohort is sorted
    /// when drained, so it always runs in ascending session order).
    /// Embedded in snapshots as sorted `(wake, session)` entries when primed.
    wakes: BTreeMap<SlotIndex, Vec<usize>>,
    /// Whether `wakes` currently describes the fleet. Slot-synchronous
    /// stepping and fleet growth invalidate the queue; the next event-driven
    /// step re-seeds it from the environment's wake protocol.
    wakes_primed: bool,
    /// Emptied cohort vectors, recycled as calendar days and as the
    /// every-session cohort of slot-synchronous steps, so steady-state
    /// stepping allocates no per-session index storage.
    spare_cohorts: Vec<Vec<usize>>,
    /// One `(started_s, decided)` tally per shard of the current cohort:
    /// seconds from cohort start until the shard began choosing (one clock
    /// read per shard), and how many of its sessions decided.
    tallies: Vec<(f64, u64)>,
    /// Latency histogram of the most recent event-driven cohort, rebuilt
    /// from `tallies` (host timing, outside all determinism contracts).
    latency: Histogram,
    /// Latency percentiles of the most recent event-driven cohort.
    last_latency: Option<LatencyStats>,
}

impl fmt::Debug for FleetEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetEngine")
            .field("config", &self.config)
            .field("sessions", &self.len())
            .field("slot", &self.slot)
            .field("decisions", &self.decisions)
            .finish_non_exhaustive()
    }
}

impl FleetEngine {
    /// Creates an empty fleet.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let pool = config.threads.map(|threads| {
            ThreadPoolBuilder::new()
                .num_threads(threads.max(1))
                .build()
                .expect("thread pool construction cannot fail")
        });
        FleetEngine {
            config,
            pool,
            segments: Vec::new(),
            slot: 0,
            next_id: 0,
            decisions: 0,
            choices: Vec::new(),
            last: Vec::new(),
            scratch: Vec::new(),
            env_choices: Vec::new(),
            env_feedback: Vec::new(),
            env_tops: Vec::new(),
            last_timing: None,
            wakes: BTreeMap::new(),
            wakes_primed: false,
            spare_cohorts: Vec::new(),
            tallies: Vec::new(),
            latency: Histogram::new(LATENCY_MIN_EXP, LATENCY_BUCKETS),
            last_latency: None,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of hosted sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        // The last-choice mirror always has exactly one entry per session.
        self.last.len()
    }

    /// `true` when the fleet hosts no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }

    /// The next slot to be stepped.
    #[must_use]
    pub fn slot(&self) -> SlotIndex {
        self.slot
    }

    /// Builds the `LaneSession` for the next session id, advancing the id
    /// counter and growing the last-choice mirror. The caller appends the
    /// session to the appropriate lane.
    fn new_lane_session<P>(&mut self, kind: PolicyKind, policy: P) -> LaneSession<P> {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.last.push(None);
        // A grown fleet needs its wake queue re-seeded (the new session has
        // no pending wake yet).
        self.wakes_primed = false;
        LaneSession {
            id,
            kind,
            rng: session_rng(self.config.root_seed, id),
            policy,
            gains: NetworkStats::new(),
            last_choice: None,
        }
    }

    /// Appends to the trailing boxed segment, or starts one. (And likewise
    /// for the two monomorphized lanes below: extending only the *last*
    /// segment preserves global session order under interleaved adds.)
    fn append_boxed(&mut self, session: LaneSession<Box<dyn Policy>>) {
        match self.segments.last_mut() {
            Some(LaneSegment::Boxed(lane)) => lane.push(session),
            _ => self.segments.push(LaneSegment::Boxed(vec![session])),
        }
    }

    fn append_exp3(&mut self, session: LaneSession<Exp3>) {
        match self.segments.last_mut() {
            Some(LaneSegment::Exp3(lane)) => lane.push(session),
            _ => self.segments.push(LaneSegment::Exp3(vec![session])),
        }
    }

    fn append_smart(&mut self, session: LaneSession<SmartExp3>) {
        match self.segments.last_mut() {
            Some(LaneSegment::Smart(lane)) => lane.push(session),
            _ => self.segments.push(LaneSegment::Smart(vec![session])),
        }
    }

    /// Adds one session running `policy`, assigning it the next session id
    /// and its private RNG stream. Individually added boxed policies always
    /// run on the fallback lane; bulk EXP3-family adds through
    /// [`add_fleet`](Self::add_fleet) go to the monomorphized lanes.
    pub fn add_session(&mut self, kind: PolicyKind, policy: Box<dyn Policy>) -> SessionId {
        let session = self.new_lane_session(kind, policy);
        let id = session.id;
        self.append_boxed(session);
        id
    }

    /// Bulk-adds `count` sessions of `kind` built by `factory` (via the
    /// factory's bulk-construction hook). Returns the ids of the new
    /// sessions, which are always a contiguous run.
    ///
    /// EXP3-family kinds are stored concretely in monomorphized lane
    /// segments; other kinds go to the boxed fallback lane. The routing
    /// never changes behaviour, only storage.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors from the factory; no sessions are added
    /// on error.
    pub fn add_fleet(
        &mut self,
        factory: &mut PolicyFactory,
        kind: PolicyKind,
        count: usize,
    ) -> Result<Vec<SessionId>, ConfigError> {
        Ok(match factory.build_fleet_concrete(kind, count)? {
            FleetPolicies::Exp3(policies) => policies
                .into_iter()
                .map(|policy| {
                    let session = self.new_lane_session(kind, policy);
                    let id = session.id;
                    self.append_exp3(session);
                    id
                })
                .collect(),
            FleetPolicies::SmartExp3(policies) => policies
                .into_iter()
                .map(|policy| {
                    let session = self.new_lane_session(kind, policy);
                    let id = session.id;
                    self.append_smart(session);
                    id
                })
                .collect(),
            FleetPolicies::Boxed(policies) => policies
                .into_iter()
                .map(|policy| self.add_session(kind, policy))
                .collect(),
        })
    }

    /// Total shard count across all segments for the given shard size.
    /// Shards never span a segment boundary (each worker gets one typed
    /// slice), so this can exceed `len().div_ceil(shard_size)` in a
    /// mixed-lane fleet.
    fn shard_count(&self, shard_size: usize) -> usize {
        self.segments
            .iter()
            .map(|segment| segment.len().div_ceil(shard_size))
            .sum()
    }

    /// Grows the per-shard scratch pool to cover `shard_count` shards —
    /// the one place both step paths size their scratch from.
    fn ensure_scratch(&mut self, shard_count: usize) {
        if self.scratch.len() < shard_count {
            self.scratch.resize_with(shard_count, SlotScratch::default);
        }
    }

    /// Runs `operation` inside this engine's thread pool (or inline when no
    /// explicit pool is configured — rayon then uses available parallelism).
    fn in_pool<R>(pool: &Option<ThreadPool>, operation: impl FnOnce() -> R) -> R {
        match pool {
            Some(pool) => pool.install(operation),
            None => operation(),
        }
    }

    /// Phase 1 of a slot: every session picks its network for slot
    /// [`slot()`](Self::slot), in parallel. Returns the choices in session
    /// order. Must be followed by [`observe_all`](Self::observe_all) before
    /// the next `choose_all`.
    pub fn choose_all(&mut self) -> &[NetworkId] {
        let slot = self.slot;
        let shard_size = self.config.shard_size.max(1);
        let count = self.len();
        // Choices are written by the parallel workers themselves (the same
        // pattern as `step_env`'s choose phase) rather than re-read from
        // `last_choice` afterwards — there is no window in which a session
        // could be observed without a recorded choice, and no panic path.
        self.choices.clear();
        self.choices.resize(count, NetworkId(0));
        let mut choices = self.choices.as_mut_slice();
        let mut last = self.last.as_mut_slice();
        let work: Vec<_> = fleet_shards(&mut self.segments, shard_size)
            .into_iter()
            .map(|(_, shard)| {
                let len = shard.len();
                (
                    shard,
                    split_prefix(&mut choices, len),
                    split_prefix(&mut last, len),
                )
            })
            .collect();
        Self::in_pool(&self.pool, || {
            work.into_par_iter().for_each(|(shard, choices, last)| {
                with_lane!(shard, |sessions| {
                    for (i, session) in sessions.iter_mut().enumerate() {
                        let chosen = session.choose(slot);
                        choices[i] = chosen;
                        last[i] = Some(chosen);
                    }
                });
            });
        });
        self.decisions += count as u64;
        &self.choices
    }

    /// Phase 2 of a slot: delivers one [`Observation`] per session (in
    /// session order, matching [`choose_all`](Self::choose_all)'s output) and
    /// advances the fleet to the next slot.
    ///
    /// # Panics
    ///
    /// Panics when `observations.len() != self.len()` — feedback and fleet
    /// must stay aligned.
    pub fn observe_all(&mut self, observations: &[Observation]) {
        assert_eq!(
            observations.len(),
            self.len(),
            "one observation per session required"
        );
        let shard_size = self.config.shard_size.max(1);
        let work = fleet_shards(&mut self.segments, shard_size);
        Self::in_pool(&self.pool, || {
            work.into_par_iter().for_each(|(offset, shard)| {
                with_lane!(shard, |sessions| {
                    for (i, session) in sessions.iter_mut().enumerate() {
                        session.observe(&observations[offset + i]);
                    }
                });
            });
        });
        self.slot += 1;
        self.wakes_primed = false;
    }

    /// Fused step: every session chooses, the `feedback` closure grades the
    /// choice, and the session observes — one parallel traversal, no
    /// per-session allocation. Each shard threads its persistent
    /// [`SlotScratch`] through the [`StepContext`], so feedback closures that
    /// build per-slot structures (e.g. full-information gain vectors) can
    /// reuse buffers across slots instead of allocating. Use this when
    /// feedback for a session depends only on that session's own choice; when
    /// sessions couple (congestion), use [`choose_all`](Self::choose_all) +
    /// [`observe_all`](Self::observe_all).
    pub fn step_with<F>(&mut self, feedback: F)
    where
        F: Fn(&mut StepContext<'_>) -> Observation + Sync,
    {
        let slot = self.slot;
        let shard_size = self.config.shard_size.max(1);
        let count = self.len();
        let shard_count = self.shard_count(shard_size);
        self.ensure_scratch(shard_count);
        let mut last = self.last.as_mut_slice();
        let work: Vec<_> = fleet_shards(&mut self.segments, shard_size)
            .into_iter()
            .zip(&mut self.scratch)
            .map(|((_, shard), scratch)| {
                let last = split_prefix(&mut last, shard.len());
                (shard, last, scratch)
            })
            .collect();
        let feedback = &feedback;
        Self::in_pool(&self.pool, || {
            work.into_par_iter().for_each(|(shard, last, scratch)| {
                with_lane!(shard, |sessions| {
                    for (index, session) in sessions.iter_mut().enumerate() {
                        let previous = session.last_choice;
                        let chosen = session.choose(slot);
                        last[index] = Some(chosen);
                        let mut context = StepContext {
                            session: session.id,
                            slot,
                            chosen,
                            previous,
                            scratch: &mut *scratch,
                        };
                        let observation = feedback(&mut context);
                        session.observe(&observation);
                        scratch.recycle(observation);
                    }
                });
            });
        });
        self.decisions += count as u64;
        self.slot += 1;
        self.wakes_primed = false;
    }

    /// Convenience: runs `slots` fused steps.
    pub fn run_with<F>(&mut self, slots: usize, feedback: F)
    where
        F: Fn(&mut StepContext<'_>) -> Observation + Sync,
    {
        for _ in 0..slots {
            self.step_with(&feedback);
        }
    }

    /// Steps the fleet one slot through an [`Environment`] — the unified
    /// path for coupled-feedback worlds (congestion games, bandwidth
    /// dynamics, mobility, trace replay).
    ///
    /// One slot runs four phases:
    ///
    /// 1. `env.begin_slot` — environment-state advance. Worlds that
    ///    advertise [`feedback_partitions`](Environment::feedback_partitions)
    ///    (when the pool has more than one worker) get
    ///    [`Environment::begin_slot_partitioned`] with an executor backed by
    ///    the worker pool instead — the RNG-free per-session refresh fans
    ///    out over the same area partitions as feedback, bit-identically;
    /// 2. choose — sharded over rayon workers: each session reads its
    ///    [`SessionView`](smartexp3_core::SessionView), absorbs a visibility
    ///    change if one is reported, and (when active) picks a network with
    ///    its private RNG stream;
    /// 3. feedback — joint-choice → per-session feedback. When the
    ///    environment advertises
    ///    [`feedback_partitions`](Environment::feedback_partitions) and the
    ///    pool has more than one worker, the engine hands the environment a
    ///    [`PartitionExecutor`] backed by the same worker pool, and the
    ///    environment fans one job per independent area out over it;
    ///    otherwise the sequential [`Environment::feedback`] runs on the
    ///    calling thread;
    /// 4. observe — sharded: every active session ingests its observation
    ///    (and, if the environment asked for top choices, reports its most
    ///    probable network for stable-state recording) before
    ///    `env.end_slot` fires.
    ///
    /// This is the event-driven pipeline of
    /// [`step_events`](Self::step_events) run on the cohort of every
    /// session. Because per-session randomness lives in per-session streams
    /// and all environment randomness is drawn from environment-owned
    /// streams in canonical session order (one stream per feedback partition
    /// on the partitioned path), the trajectory is **bit-identical at any
    /// thread count and shard size — partitioned or sequential feedback**.
    /// Steady-state stepping allocates nothing per session: joint-choice,
    /// feedback and top-choice buffers persist across slots (a small
    /// O(shard-count) pairing vector is rebuilt per phase, as in
    /// [`step_with`](Self::step_with), and the partitioned feedback path
    /// boxes one job per partition per slot).
    ///
    /// # Panics
    ///
    /// Panics when `env.sessions() != self.len()` — the environment and the
    /// fleet must describe the same session set.
    pub fn step_env(&mut self, env: &mut dyn Environment) {
        self.step_env_with_sink(env, None);
    }

    /// [`step_env`](Self::step_env) with streaming telemetry: after the slot
    /// completes, one [`TelemetryRecord`] — the environment's
    /// [`telemetry`](Environment::telemetry) metrics (empty if the world has
    /// none enabled) plus this slot's [`SlotTiming`] — is delivered to
    /// `sink`, if one is given. The sink is an observer: stepping with or
    /// without one is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `env.sessions() != self.len()`, as in
    /// [`step_env`](Self::step_env).
    pub fn step_env_with_sink(
        &mut self,
        env: &mut dyn Environment,
        sink: Option<&mut dyn TelemetrySink>,
    ) {
        self.assert_describes(env);
        let mut every = self.spare_cohorts.pop().unwrap_or_default();
        every.extend(0..self.len());
        self.run_cohort(env, self.slot, &every, false, sink);
        every.clear();
        self.spare_cohorts.push(every);
        self.wakes_primed = false;
    }

    /// Panics unless `env` describes exactly this fleet's sessions.
    fn assert_describes(&self, env: &dyn Environment) {
        assert_eq!(
            env.sessions(),
            self.len(),
            "environment describes {} sessions, fleet hosts {}",
            env.sessions(),
            self.len()
        );
    }

    /// Phase 1 at `t`: advances the environment — fanned out over the worker
    /// pool when it advertises partitions and the pool has more than one
    /// worker — and returns whether the feedback phase is partitioned too
    /// (the two phases always agree) plus the phase's wall time.
    fn begin_slot(&self, env: &mut dyn Environment, t: SlotIndex) -> (bool, f64) {
        let workers = match &self.pool {
            Some(pool) => pool.current_num_threads(),
            None => rayon::current_num_threads(),
        };
        let partitioned = workers > 1 && env.feedback_partitions().is_some();
        let start = Instant::now();
        if partitioned {
            env.begin_slot_partitioned(t, &PoolExecutor { pool: &self.pool });
        } else {
            env.begin_slot(t);
        }
        (partitioned, start.elapsed().as_secs_f64())
    }

    /// The one stepping pipeline behind [`step_env`](Self::step_env) and
    /// [`step_events`](Self::step_events): runs the four phases at `t` for
    /// the cohort `members` (ascending session indices — every session on
    /// the slot-synchronous path), counts the decisions taken and advances
    /// the clock to `t + 1`.
    ///
    /// The fleet is sharded exactly as every other path shards it; each
    /// shard steps only its slice of the cohort and shards without members
    /// are skipped, so a timestamp costs O(cohort + shards) engine work
    /// however the cohort is fragmented. Sessions outside the cohort read as
    /// absent in the joint-choice buffer, exactly like inactive sessions.
    /// With `wake_latency`, the cohort's queueing latency (one clock read
    /// per shard) goes to [`last_wake_latency`](Self::last_wake_latency) and
    /// the telemetry record; slot-synchronous records carry none.
    fn run_cohort(
        &mut self,
        env: &mut dyn Environment,
        t: SlotIndex,
        members: &[usize],
        wake_latency: bool,
        sink: Option<&mut dyn TelemetrySink>,
    ) {
        let shard_size = self.config.shard_size.max(1);
        let count = self.len();
        let whole_fleet = members.len() == count;
        let (partitioned, begin_slot_s) = self.begin_slot(env, t);
        let cohort_start = Instant::now();

        // Phase 2: cohort choose (parallel).
        if self.env_choices.len() != count {
            self.env_choices.resize(count, None);
        }
        if !whole_fleet {
            self.env_choices.fill(None);
        }
        let shard_count = self.shard_count(shard_size);
        self.ensure_scratch(shard_count);
        self.tallies.clear();
        self.tallies.resize(shard_count, (0.0, 0));
        {
            let env_view: &dyn Environment = env;
            let mut work: Vec<ChooseShard<'_>> = Vec::with_capacity(shard_count);
            let mut choices = self.env_choices.as_mut_slice();
            let mut last = self.last.as_mut_slice();
            for ((offset, shard, due), tally) in
                cohort_shards(&mut self.segments, members, shard_size).zip(&mut self.tallies)
            {
                let choices = split_prefix(&mut choices, shard.len());
                let last = split_prefix(&mut last, shard.len());
                if !due.is_empty() {
                    work.push((offset, shard, due, choices, last, tally));
                }
            }
            Self::in_pool(&self.pool, || {
                work.into_par_iter()
                    .for_each(|(offset, shard, due, choices, last, tally)| {
                        let started_s = cohort_start.elapsed().as_secs_f64();
                        let mut decided = 0u64;
                        with_lane!(shard, |sessions| {
                            for &index in due {
                                let i = index - offset;
                                let session = &mut sessions[i];
                                let view = env_view.session_view(index, t);
                                if let Some(networks) = view.networks_changed {
                                    session
                                        .policy
                                        .on_networks_changed(networks, &mut session.rng);
                                }
                                choices[i] = if view.active {
                                    let chosen = session.choose(t);
                                    last[i] = Some(chosen);
                                    decided += 1;
                                    Some(chosen)
                                } else {
                                    None
                                };
                            }
                        });
                        *tally = (started_s, decided);
                    });
            });
        }
        let active: u64 = self.tallies.iter().map(|&(_, decided)| decided).sum();
        let latency = if wake_latency {
            // Host timing, outside all determinism contracts; merged in
            // shard order.
            self.latency.clear();
            for &(started_s, decided) in &self.tallies {
                self.latency.record_n(started_s, decided);
            }
            self.last_latency = LatencyStats::from_histogram(&self.latency);
            self.last_latency
        } else {
            None
        };
        let choose_s = cohort_start.elapsed().as_secs_f64();
        let phase_start = Instant::now();

        // Phase 3: joint feedback. Partitioned worlds fan their independent
        // areas out over the worker pool; everything else — including any
        // world on a single-worker pool, where job dispatch is pure
        // overhead — runs the sequential fallback on this thread. The two
        // paths are bit-identical by the partition contract, so this is a
        // wall-clock decision only.
        if self.env_feedback.len() != count {
            self.env_feedback.resize(count, None);
        }
        if partitioned {
            let executor = PoolExecutor { pool: &self.pool };
            env.feedback_partitioned(t, &self.env_choices, &mut self.env_feedback, &executor);
        } else {
            env.feedback(t, &self.env_choices, &mut self.env_feedback);
        }
        // Structural guard: a session that did not choose must not observe.
        // The feedback buffer persists across slots (so environments can
        // scavenge allocations), which means an environment that forgets to
        // write `None` for an inactive session would otherwise re-deliver
        // that session's stale observation from an earlier slot.
        for (choice, feedback) in self.env_choices.iter().zip(self.env_feedback.iter_mut()) {
            if choice.is_none() {
                *feedback = None;
            }
        }
        let feedback_s = phase_start.elapsed().as_secs_f64();
        let phase_start = Instant::now();

        // Phase 4: cohort observe (parallel), then the end-of-slot hook.
        // Sessions in a cooperative environment additionally hear their
        // neighbourhood's gossip digest (copied into the shard's recycled
        // scratch buffer) and fold it in via `Policy::observe_shared`.
        let wants_tops = env.wants_top_choices();
        let shares_feedback = env.shares_feedback();
        if self.env_tops.len() != count {
            self.env_tops.resize(count, None);
        }
        if wants_tops && !whole_fleet {
            // Stale tops from earlier cohorts must not leak into end_slot.
            self.env_tops.fill(None);
        }
        {
            let env_view: &dyn Environment = env;
            let feedback = &self.env_feedback;
            let mut work: Vec<ObserveShard<'_>> = Vec::with_capacity(shard_count);
            let mut tops = self.env_tops.as_mut_slice();
            for ((offset, shard, due), scratch) in
                cohort_shards(&mut self.segments, members, shard_size).zip(&mut self.scratch)
            {
                let tops = split_prefix(&mut tops, shard.len());
                if !due.is_empty() {
                    work.push((offset, shard, due, tops, scratch));
                }
            }
            Self::in_pool(&self.pool, || {
                work.into_par_iter()
                    .for_each(|(offset, shard, due, tops, scratch)| {
                        with_lane!(shard, |sessions| {
                            for &index in due {
                                let i = index - offset;
                                let session = &mut sessions[i];
                                let Some(observation) = &feedback[index] else {
                                    if wants_tops {
                                        tops[i] = None;
                                    }
                                    continue;
                                };
                                session.observe(observation);
                                if shares_feedback
                                    && env_view.shared_feedback_into(index, &mut scratch.shared)
                                {
                                    session
                                        .policy
                                        .observe_shared(&scratch.shared, &mut session.rng);
                                }
                                if wants_tops {
                                    // Bounded top-1 read: O(K) with no full
                                    // listing write-out. Ties resolve to the
                                    // later-listed arm, exactly as the
                                    // full-listing `max_by` scan this
                                    // replaces (see
                                    // `Policy::top_probabilities_into`).
                                    session
                                        .policy
                                        .top_probabilities_into(1, &mut scratch.probabilities);
                                    tops[i] = scratch.probabilities.first().copied();
                                }
                            }
                        });
                    });
            });
        }
        let tops: &[Option<(NetworkId, f64)>] = if wants_tops { &self.env_tops } else { &[] };
        env.end_slot(t, &self.env_choices, tops);
        let observe_s = phase_start.elapsed().as_secs_f64();

        let timing = SlotTiming {
            begin_slot_s,
            choose_s,
            feedback_s,
            observe_s,
        };
        self.last_timing = Some(timing);
        if let Some(sink) = sink {
            sink.record(&TelemetryRecord {
                slot: t,
                active,
                metrics: env.telemetry().cloned().unwrap_or_default(),
                timing,
                latency,
                sampler: Some(self.sampler_counters()),
            });
        }
        self.decisions += active;
        self.slot = t + 1;
    }

    /// Convenience: runs `slots` environment-driven steps.
    pub fn run_env(&mut self, env: &mut dyn Environment, slots: usize) {
        for _ in 0..slots {
            self.step_env(env);
        }
    }

    /// Runs `slots` environment-driven steps, streaming one
    /// [`TelemetryRecord`] per slot into `sink` (see
    /// [`step_env_with_sink`](Self::step_env_with_sink)).
    pub fn run_env_with_sink(
        &mut self,
        env: &mut dyn Environment,
        slots: usize,
        sink: &mut dyn TelemetrySink,
    ) {
        for _ in 0..slots {
            self.step_env_with_sink(env, Some(&mut *sink));
        }
    }

    /// Seeds the wake queue from the environment's wake protocol, unless it
    /// is already primed (by a previous event-driven step or a restored
    /// snapshot). Each session is seeded at its
    /// [`first_wake`](Environment::first_wake), advanced along its own
    /// [`next_wake`](Environment::next_wake) schedule until the wake reaches
    /// the engine's current slot — so a fleet that already stepped (or
    /// resumed mid-run without a recorded queue) rejoins its cadence grid
    /// instead of waking everything immediately.
    fn prime_wakes(&mut self, env: &dyn Environment) {
        if self.wakes_primed {
            return;
        }
        self.wakes.clear();
        for index in 0..self.len() {
            let mut wake = env.first_wake(index);
            while wake < self.slot {
                wake = env.next_wake(index, wake).max(wake + 1);
            }
            self.wakes.entry(wake).or_default().push(index);
        }
        self.wakes_primed = true;
    }

    /// The next timestamp the event engine would materialise: the earlier of
    /// the soonest pending session wake and the environment's next pushed
    /// event at or after the current slot. `None` when nothing remains
    /// (empty fleet and an event-free environment).
    fn next_timestamp(&self, env: &dyn Environment) -> Option<SlotIndex> {
        let wake = self.wakes.first_key_value().map(|(&t, _)| t);
        let event = env.next_env_event(self.slot);
        match (wake, event) {
            (Some(w), Some(e)) => Some(w.min(e)),
            (wake, event) => wake.or(event),
        }
    }

    /// Event-driven step: materialises the **next timestamp at which
    /// anything happens** — the earliest pending session wake, or the
    /// environment's next pushed event ([`Environment::next_env_event`]) —
    /// instead of ticking every session every slot. Returns the timestamp
    /// processed, or `None` when nothing remains.
    ///
    /// At a wake timestamp `t`, the cohort of sessions due at `t` (drained
    /// from the wake calendar, ascending by session) runs as a micro-batch
    /// through the *same* four-phase pipeline as
    /// [`step_env`](Self::step_env): `begin_slot(t)` (partitioned when the
    /// world advertises partitions), cohort choose (the fleet's fixed
    /// shards, each stepping its slice of the cohort; shards without due
    /// sessions are skipped), joint feedback over the full-length choice
    /// buffer (non-cohort sessions are `None`, exactly like inactive
    /// sessions), cohort observe and `end_slot`. Each cohort session is then
    /// rescheduled at its [`next_wake`](Environment::next_wake). At an
    /// env-event-only timestamp, only `begin_slot(t)` runs — scheduled state
    /// advances (event cursors!) are applied, never skipped — and no session
    /// decides.
    ///
    /// **Correctness anchor:** with every session at the default uniform
    /// cadence 1, the cohort is always the whole fleet and this path is
    /// **bit-identical** to [`step_env`](Self::step_env) — same choices,
    /// same RNG streams, same environment state — at any thread count and
    /// shard size, with sequential or partitioned feedback.
    ///
    /// As a side effect the cohort's queueing latency is recorded: each
    /// decision is charged the host time from cohort start until its shard
    /// began choosing (one clock read per shard). That is queueing within
    /// the timestamp, not a per-decision wake delay. Read the percentiles
    /// via [`last_wake_latency`](Self::last_wake_latency) or a telemetry
    /// sink ([`step_events_with_sink`](Self::step_events_with_sink)).
    ///
    /// # Panics
    ///
    /// Panics when `env.sessions() != self.len()`, as in
    /// [`step_env`](Self::step_env).
    pub fn step_events(&mut self, env: &mut dyn Environment) -> Option<SlotIndex> {
        self.step_events_with_sink(env, None)
    }

    /// [`step_events`](Self::step_events) with streaming telemetry: after a
    /// wake cohort completes, one [`TelemetryRecord`] — keyed by the cohort
    /// timestamp, with the environment's metrics, this cohort's
    /// [`SlotTiming`] and its queueing [`LatencyStats`] — is delivered to
    /// `sink`. Env-event-only timestamps produce no record (no session
    /// decided, so the slot series stays strictly increasing and histogram
    /// counts stay consistent with the validator's contract).
    ///
    /// # Panics
    ///
    /// Panics when `env.sessions() != self.len()`.
    pub fn step_events_with_sink(
        &mut self,
        env: &mut dyn Environment,
        sink: Option<&mut dyn TelemetrySink>,
    ) -> Option<SlotIndex> {
        self.assert_describes(env);
        self.prime_wakes(env);
        let t = self.next_timestamp(env)?;
        debug_assert!(t >= self.slot, "wake queue fell behind the clock");
        let Some(mut cohort) = self
            .wakes
            .first_entry()
            .filter(|day| *day.key() == t)
            .map(|day| day.remove())
        else {
            // Env-event-only timestamp: state advances (event cursors are
            // applied by `begin_slot`, not recomputed from the absolute
            // slot); nobody decides, no feedback, no telemetry record.
            self.begin_slot(env, t);
            self.slot = t + 1;
            return Some(t);
        };
        cohort.sort_unstable();
        self.run_cohort(env, t, &cohort, true, sink);
        // Reschedule the cohort on each session's own cadence; forward
        // progress is enforced even against a buggy `next_wake`.
        let (wakes, spare) = (&mut self.wakes, &mut self.spare_cohorts);
        for &index in &cohort {
            let next = env.next_wake(index, t).max(t + 1);
            wakes
                .entry(next)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(index);
        }
        cohort.clear();
        self.spare_cohorts.push(cohort);
        Some(t)
    }

    /// Runs event-driven steps until the clock reaches `until`: every
    /// timestamp strictly below `until` at which anything happens is
    /// materialised (in order), then the clock jumps to `until` — idle gaps
    /// cost nothing. A subsequent [`step_env`](Self::step_env) or
    /// [`run_until`](Self::run_until) continues from slot `until`.
    pub fn run_until(&mut self, env: &mut dyn Environment, until: SlotIndex) {
        self.run_until_with_sink_impl(env, until, None);
    }

    /// [`run_until`](Self::run_until) streaming one [`TelemetryRecord`] per
    /// wake cohort into `sink` (see
    /// [`step_events_with_sink`](Self::step_events_with_sink)).
    pub fn run_until_with_sink(
        &mut self,
        env: &mut dyn Environment,
        until: SlotIndex,
        sink: &mut dyn TelemetrySink,
    ) {
        self.run_until_with_sink_impl(env, until, Some(sink));
    }

    fn run_until_with_sink_impl(
        &mut self,
        env: &mut dyn Environment,
        until: SlotIndex,
        mut sink: Option<&mut dyn TelemetrySink>,
    ) {
        self.prime_wakes(env);
        while let Some(t) = self.next_timestamp(env) {
            if t >= until {
                break;
            }
            match &mut sink {
                Some(sink) => self.step_events_with_sink(env, Some(&mut **sink)),
                None => self.step_events(env),
            };
        }
        if self.slot < until {
            self.slot = until;
        }
    }

    /// Queueing-latency percentiles of the most recent event-driven cohort
    /// ([`step_events`](Self::step_events)), or `None` before the first
    /// cohort or when the last cohort made no decision. Each decision counts
    /// the host time from cohort start until its shard began choosing — how
    /// long it queued within the timestamp, not a per-decision wake delay.
    /// Host timing only — excluded from the determinism contract and from
    /// snapshots.
    #[must_use]
    pub fn last_wake_latency(&self) -> Option<LatencyStats> {
        self.last_latency
    }

    /// Wall-clock phase breakdown of the most recent
    /// [`step_env`](Self::step_env) slot, or `None` before the first
    /// environment-driven step. Host timing only — excluded from the
    /// determinism contract and from snapshots.
    #[must_use]
    pub fn last_slot_timing(&self) -> Option<SlotTiming> {
        self.last_timing
    }

    /// Broadcasts a network-set change to every session (e.g. AP churn in the
    /// area the fleet simulates). Never panics: policies that do not support
    /// dynamism keep their state (see [`Policy::on_networks_changed`]).
    pub fn networks_changed(&mut self, available: &[NetworkId]) {
        let shard_size = self.config.shard_size.max(1);
        let mut work: Vec<ShardSessions<'_>> = Vec::new();
        for segment in &mut self.segments {
            work.extend(segment.shards(shard_size));
        }
        Self::in_pool(&self.pool, || {
            work.into_par_iter().for_each(|shard| {
                with_lane!(shard, |sessions| {
                    for session in sessions {
                        session
                            .policy
                            .on_networks_changed(available, &mut session.rng);
                    }
                });
            });
        });
    }

    /// The most recent choice of every session, in session order (`None`
    /// entries for sessions that have not chosen yet). Zero-alloc: returns a
    /// view of a buffer the step paths keep up to date.
    #[must_use]
    pub fn last_choices(&self) -> &[Option<NetworkId>] {
        &self.last
    }

    /// The policy of session `index` (in session order), for read-only
    /// inspection (name, stats, probabilities).
    #[must_use]
    pub fn policy(&self, index: usize) -> Option<&dyn Policy> {
        let mut index = index;
        for segment in &self.segments {
            let n = segment.len();
            if index < n {
                return Some(match segment {
                    LaneSegment::Exp3(lane) => &lane[index].policy,
                    LaneSegment::Smart(lane) => &lane[index].policy,
                    LaneSegment::Boxed(lane) => &*lane[index].policy,
                });
            }
            index -= n;
        }
        None
    }

    /// The policy kind of session `index` (in session order).
    #[must_use]
    pub fn kind(&self, index: usize) -> Option<PolicyKind> {
        let mut index = index;
        for segment in &self.segments {
            let n = segment.len();
            if index < n {
                return Some(match segment {
                    LaneSegment::Exp3(lane) => lane[index].kind,
                    LaneSegment::Smart(lane) => lane[index].kind,
                    LaneSegment::Boxed(lane) => lane[index].kind,
                });
            }
            index -= n;
        }
        None
    }

    /// Fleet-wide cumulative sampler counters (alias-table rebuilds and
    /// overlay-walk hits), summed in session order. Deterministic at any
    /// thread count; an O(N) scan, so telemetry paths call it once per
    /// recorded slot and only when a sink is attached.
    #[must_use]
    pub fn sampler_counters(&self) -> SamplerCounters {
        let mut totals = SamplerCounters::default();
        for_each_lane_session!(&self.segments, |session| {
            let stats = session.policy.stats();
            totals.rebuilds += stats.sampler_rebuilds;
            totals.overlay_hits += stats.overlay_hits;
        });
        totals
    }

    /// Aggregates fleet-wide metrics.
    ///
    /// Sessions are folded **in session order**, so the floating-point gain
    /// totals are identical across runs and thread counts.
    #[must_use]
    pub fn metrics(&self) -> FleetMetrics {
        let mut per_kind: Vec<(PolicyKind, KindMetrics)> = Vec::new();
        let mut switches = 0u64;
        let mut resets = 0u64;
        for_each_lane_session!(&self.segments, |session| {
            let stats = session.policy.stats();
            switches += stats.switches;
            resets += stats.resets;
            let entry = match per_kind.iter_mut().find(|(k, _)| *k == session.kind) {
                Some((_, entry)) => entry,
                None => {
                    per_kind.push((session.kind, KindMetrics::default()));
                    &mut per_kind.last_mut().expect("just pushed").1
                }
            };
            entry.sessions += 1;
            entry.policy.switches += stats.switches;
            entry.policy.blocks += stats.blocks;
            entry.policy.resets += stats.resets;
            entry.policy.switch_backs += stats.switch_backs;
            entry.policy.greedy_selections += stats.greedy_selections;
            entry.policy.explorations += stats.explorations;
            entry.policy.shared_observations += stats.shared_observations;
            entry.policy.sampler_rebuilds += stats.sampler_rebuilds;
            entry.policy.overlay_hits += stats.overlay_hits;
            entry.gains.merge(&session.gains);
        });
        per_kind.sort_by_key(|(kind, _)| PolicyKind::all().iter().position(|k| k == kind));
        FleetMetrics {
            sessions: self.len(),
            slot: self.slot,
            decisions: self.decisions,
            switches,
            resets,
            per_kind,
        }
    }

    /// Captures the whole fleet for checkpointing.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::UnsupportedPolicy`] when any session runs the
    /// centralized oracle (its state lives in the shared coordinator).
    pub fn snapshot(&self) -> Result<FleetSnapshot, SnapshotError> {
        let mut sessions = Vec::with_capacity(self.len());
        let mut failed: Option<SnapshotError> = None;
        for_each_lane_session!(&self.segments, |session| {
            if failed.is_none() {
                match session.policy.state() {
                    Some(policy) => sessions.push(SessionSnapshot {
                        id: session.id.0,
                        kind: session.kind,
                        policy,
                        rng: session.rng.state(),
                        gains: session.gains.clone(),
                        last_choice: session.last_choice,
                    }),
                    None => {
                        failed = Some(SnapshotError::UnsupportedPolicy {
                            session: session.id,
                            kind: session.kind,
                        });
                    }
                }
            }
        });
        if let Some(error) = failed {
            return Err(error);
        }
        let wake_queue = self.wakes_primed.then(|| {
            let mut pending: Vec<WakeEntry> = self
                .wakes
                .iter()
                .flat_map(|(&wake, due)| {
                    due.iter().map(move |&session| WakeEntry {
                        wake,
                        session: session as u64,
                    })
                })
                .collect();
            // Calendar days hold sessions in reschedule order; sort for
            // stable bytes.
            pending.sort_by_key(|entry| (entry.wake, entry.session));
            pending
        });
        Ok(FleetSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            slot: self.slot,
            next_id: self.next_id,
            decisions: self.decisions,
            sessions,
            environment: None,
            wake_queue,
        })
    }

    /// Captures the fleet **and** the environment it is being stepped
    /// through, so the pair can resume bit-identically mid-scenario —
    /// pending bandwidth events, mobility positions and the environment RNG
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Environment`] when the environment does not
    /// support checkpointing, plus every error [`snapshot`](Self::snapshot)
    /// can produce.
    pub fn snapshot_env(&self, env: &dyn Environment) -> Result<FleetSnapshot, SnapshotError> {
        let state = env.state().ok_or_else(|| {
            SnapshotError::Environment("environment does not support checkpointing".to_string())
        })?;
        let mut snapshot = self.snapshot()?;
        snapshot.environment = Some(state);
        Ok(snapshot)
    }

    /// Restores a fleet from a snapshot taken with
    /// [`snapshot_env`](Self::snapshot_env), applying the embedded
    /// environment state to `env` (a freshly built environment with the same
    /// static configuration).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Environment`] when the snapshot carries no
    /// environment state or the environment rejects it, plus every error
    /// [`from_snapshot`](Self::from_snapshot) can produce.
    pub fn from_snapshot_env(
        mut snapshot: FleetSnapshot,
        env: &mut dyn Environment,
    ) -> Result<Self, SnapshotError> {
        // Validate everything that can fail *before* mutating the live
        // environment — a rejected snapshot must leave `env` untouched — so
        // the fleet is rebuilt first.
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snapshot.version));
        }
        let state = snapshot.environment.take().ok_or_else(|| {
            SnapshotError::Environment("snapshot carries no environment state".to_string())
        })?;
        let engine = Self::from_snapshot(snapshot)?;
        env.restore(&state)
            .map_err(|error| SnapshotError::Environment(error.to_string()))?;
        Ok(engine)
    }

    /// Restores a fleet from a snapshot. The restored fleet continues
    /// bit-identically to the fleet the snapshot was taken from.
    ///
    /// EXP3-family policy states are routed back into the monomorphized
    /// lanes and every other state is boxed onto the fallback lane; the
    /// restored sessions hold the same states and RNG streams either way.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::UnsupportedVersion`] for snapshots from an
    /// incompatible engine version, and [`SnapshotError::Malformed`] for
    /// session ids or a wake queue the engine cannot have written (see
    /// [`WakeEntry`]).
    pub fn from_snapshot(snapshot: FleetSnapshot) -> Result<Self, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snapshot.version));
        }
        // The engine assigns ids as `0..len` and derives each RNG stream
        // from the id, so a rewound or repeated id would hand later sessions
        // the streams of earlier ones.
        let sessions = snapshot.sessions.len();
        if let Some((index, session)) = snapshot
            .sessions
            .iter()
            .enumerate()
            .find(|&(index, session)| session.id != index as u64)
        {
            return Err(SnapshotError::Malformed(format!(
                "session {index} carries id {}",
                session.id
            )));
        }
        if snapshot.next_id != sessions as u64 {
            return Err(SnapshotError::Malformed(format!(
                "next id {} does not follow the {sessions} sessions",
                snapshot.next_id
            )));
        }
        let wakes = snapshot
            .wake_queue
            .map(|pending| wake_calendar(pending, sessions, snapshot.slot))
            .transpose()?;
        let mut engine = FleetEngine::new(snapshot.config);
        engine.slot = snapshot.slot;
        engine.decisions = snapshot.decisions;
        for s in snapshot.sessions {
            let id = SessionId(s.id);
            let rng = StdRng::from_state(s.rng);
            engine.last.push(s.last_choice);
            match s.policy {
                PolicyState::Exp3(policy) => engine.append_exp3(LaneSession {
                    id,
                    kind: s.kind,
                    policy: *policy,
                    rng,
                    gains: s.gains,
                    last_choice: s.last_choice,
                }),
                PolicyState::SmartExp3(policy) => engine.append_smart(LaneSession {
                    id,
                    kind: s.kind,
                    policy: *policy,
                    rng,
                    gains: s.gains,
                    last_choice: s.last_choice,
                }),
                other => engine.append_boxed(LaneSession {
                    id,
                    kind: s.kind,
                    policy: other.into_policy(),
                    rng,
                    gains: s.gains,
                    last_choice: s.last_choice,
                }),
            }
        }
        engine.next_id = snapshot.next_id;
        if let Some(wakes) = wakes {
            engine.wakes = wakes;
            engine.wakes_primed = true;
        }
        Ok(engine)
    }

    /// Serializes a snapshot of the fleet to JSON text.
    ///
    /// # Errors
    ///
    /// Propagates [`snapshot`](Self::snapshot) errors.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        self.snapshot()?.to_json()
    }

    /// Restores a fleet from JSON text produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on parse failures and
    /// [`SnapshotError::UnsupportedVersion`] on version mismatches.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let snapshot: FleetSnapshot =
            serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        Self::from_snapshot(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartexp3_core::Observation;

    fn rates() -> Vec<(NetworkId, f64)> {
        vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ]
    }

    fn feedback(ctx: &mut StepContext<'_>) -> Observation {
        // Deterministic per-session environment: network 2 is best, with a
        // session-dependent wobble so sessions do not all look identical.
        let wobble = (ctx.session.0 % 7) as f64 / 100.0;
        let gain = if ctx.chosen == NetworkId(2) {
            0.85 - wobble
        } else {
            0.2 + wobble
        };
        let mut obs = Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain);
        if ctx.previous.is_some_and(|p| p != ctx.chosen) {
            obs = obs.with_switch(0.5);
        }
        obs
    }

    fn build_fleet(threads: Option<usize>, shard_size: usize, sessions: usize) -> FleetEngine {
        let mut config = FleetConfig::with_root_seed(42).with_shard_size(shard_size);
        config.threads = threads;
        let mut factory = PolicyFactory::new(rates()).unwrap();
        let mut fleet = FleetEngine::new(config);
        fleet
            .add_fleet(&mut factory, PolicyKind::SmartExp3, sessions / 2)
            .unwrap();
        fleet
            .add_fleet(&mut factory, PolicyKind::Exp3, sessions / 4)
            .unwrap();
        fleet
            .add_fleet(
                &mut factory,
                PolicyKind::Greedy,
                sessions - sessions / 2 - sessions / 4,
            )
            .unwrap();
        fleet
    }

    #[test]
    fn session_streams_are_decorrelated() {
        use rand::RngCore;
        let mut a = session_rng(1, SessionId(0));
        let mut b = session_rng(1, SessionId(1));
        let mut c = session_rng(2, SessionId(0));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_ne!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        // The (root, id) combine must not be symmetric: fleet 1's session 2
        // and fleet 2's session 1 are different streams.
        let mut d = session_rng(1, SessionId(2));
        let mut e = session_rng(2, SessionId(1));
        assert_ne!(
            (0..4).map(|_| d.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| e.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn two_phase_and_fused_stepping_agree() {
        let mut fused = build_fleet(Some(2), 16, 100);
        let mut phased = build_fleet(Some(2), 16, 100);
        for _ in 0..30 {
            fused.step_with(feedback);

            let slot = phased.slot();
            let previous = phased.last_choices().to_vec();
            let choices = phased.choose_all().to_vec();
            let mut scratch = SlotScratch::new();
            let observations: Vec<Observation> = choices
                .iter()
                .enumerate()
                .map(|(i, &chosen)| {
                    feedback(&mut StepContext {
                        session: SessionId(i as u64),
                        slot,
                        chosen,
                        previous: previous[i],
                        scratch: &mut scratch,
                    })
                })
                .collect();
            phased.observe_all(&observations);
        }
        assert_eq!(fused.metrics(), phased.metrics());
    }

    #[test]
    fn metrics_aggregate_per_kind() {
        let mut fleet = build_fleet(Some(1), 32, 80);
        fleet.run_with(50, feedback);
        let metrics = fleet.metrics();
        assert_eq!(metrics.sessions, 80);
        assert_eq!(metrics.decisions, 50 * 80);
        assert_eq!(metrics.slot, 50);
        let smart = metrics.kind(PolicyKind::SmartExp3).unwrap();
        assert_eq!(smart.sessions, 40);
        assert!(smart.mean_gain() > 0.0);
        assert_eq!(
            smart.gains.total_slots(),
            50 * 40,
            "every smart session records every slot"
        );
        // Per-kind order follows PolicyKind::all().
        let kinds: Vec<PolicyKind> = metrics.per_kind.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![PolicyKind::Exp3, PolicyKind::SmartExp3, PolicyKind::Greedy]
        );
        let display = metrics.to_string();
        assert!(display.contains("80 sessions"));
        assert!(display.contains("Smart EXP3"));
    }

    #[test]
    fn scratch_full_gains_buffers_are_recycled() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(9).with_threads(1));
        fleet
            .add_fleet(&mut factory, PolicyKind::FullInformation, 8)
            .unwrap();
        for _ in 0..30 {
            fleet.step_with(|ctx| {
                let mut gains = ctx.scratch.full_gains_buffer();
                assert!(gains.is_empty(), "recycled buffer must come back clean");
                gains.extend([
                    (NetworkId(0), 0.2),
                    (NetworkId(1), 0.3),
                    (NetworkId(2), 0.9),
                ]);
                let gain = if ctx.chosen == NetworkId(2) {
                    0.9
                } else {
                    0.25
                };
                Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain).with_full_gains(gains)
            });
        }
        let metrics = fleet.metrics();
        assert_eq!(metrics.decisions, 30 * 8);
        let full = metrics.kind(PolicyKind::FullInformation).unwrap();
        assert!(full.mean_gain() > 0.0);
    }

    #[test]
    fn centralized_sessions_cannot_snapshot() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        let mut fleet = FleetEngine::new(FleetConfig::default());
        fleet
            .add_fleet(&mut factory, PolicyKind::Centralized, 3)
            .unwrap();
        match fleet.snapshot() {
            Err(SnapshotError::UnsupportedPolicy { kind, .. }) => {
                assert_eq!(kind, PolicyKind::Centralized);
            }
            other => panic!("expected UnsupportedPolicy, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_version_is_checked() {
        let fleet = build_fleet(Some(1), 8, 4);
        let mut snapshot = fleet.snapshot().unwrap();
        snapshot.version = 999;
        match FleetEngine::from_snapshot(snapshot) {
            Err(SnapshotError::UnsupportedVersion(999)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        assert!(FleetEngine::from_json("{not json").is_err());
        // A full text that only names another version gets the one generic
        // diagnostic.
        let text = fleet.to_json().unwrap();
        let v8 = text.replacen("\"version\":9", "\"version\":8", 1);
        assert_ne!(v8, text);
        match FleetEngine::from_json(&v8) {
            Err(error @ SnapshotError::UnsupportedVersion(8)) => assert_eq!(
                error.to_string(),
                "unsupported fleet snapshot format version 8 (this engine writes version 9)"
            ),
            other => panic!("expected UnsupportedVersion(8), got {other:?}"),
        }
        // The sampler strategy that is gone no longer parses.
        let tree = text.replace("\"Linear\"", "\"Tree\"");
        assert_ne!(tree, text);
        match FleetEngine::from_json(&tree) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
        // Bare texts of earlier versions lack most fields: an error, never
        // a restored fleet or a panic.
        for version in 2u32..=8 {
            let bare = format!("{{\"version\":{version},\"sessions\":[]}}");
            assert!(FleetEngine::from_json(&bare).is_err(), "version {version}");
        }
    }

    #[test]
    fn deeply_nested_text_is_malformed() {
        // A million open brackets used to overflow the parser's stack and
        // abort the process; the nesting limit makes it a typed error.
        match FleetEngine::from_json(&"[".repeat(1_000_000)) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
    }

    #[test]
    fn networks_changed_never_panics_and_retargets() {
        let mut fleet = build_fleet(Some(2), 8, 40);
        fleet.run_with(10, feedback);
        // Network 2 disappears; no session may panic, adaptive policies
        // must stop choosing it.
        let remaining = [NetworkId(0), NetworkId(1)];
        fleet.networks_changed(&remaining);
        fleet.step_with(|ctx| {
            let gain = 0.4;
            Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain)
        });
        for index in 0..fleet.len() {
            let kind = fleet.kind(index).unwrap();
            let choice = fleet.last_choices()[index];
            if matches!(kind, PolicyKind::SmartExp3 | PolicyKind::Greedy) {
                assert!(
                    remaining.contains(&choice.unwrap()),
                    "session#{index} still on a vanished network"
                );
            }
        }
    }

    /// Deterministic world for event-engine tests: every session is always
    /// active, feedback is a pure function of `(slot, choice, session)`, the
    /// wake protocol staggers sessions over `cadences` and `events` are
    /// pushed environment timestamps. `begin_slots` records every
    /// state-advance so tests can assert which timestamps materialised.
    struct CadenceEnv {
        sessions: usize,
        cadences: Vec<usize>,
        events: Vec<SlotIndex>,
        begin_slots: Vec<SlotIndex>,
    }

    impl CadenceEnv {
        fn uniform(sessions: usize) -> Self {
            CadenceEnv {
                sessions,
                cadences: vec![1],
                events: Vec::new(),
                begin_slots: Vec::new(),
            }
        }

        fn cadence_of(&self, session: usize) -> usize {
            self.cadences[session % self.cadences.len()].max(1)
        }
    }

    impl Environment for CadenceEnv {
        fn sessions(&self) -> usize {
            self.sessions
        }

        fn begin_slot(&mut self, slot: SlotIndex) {
            self.begin_slots.push(slot);
        }

        fn session_view(
            &self,
            _session: usize,
            _slot: SlotIndex,
        ) -> smartexp3_core::SessionView<'_> {
            smartexp3_core::SessionView::active_static()
        }

        fn feedback(
            &mut self,
            slot: SlotIndex,
            choices: &[Option<NetworkId>],
            out: &mut [Option<Observation>],
        ) {
            for (session, (choice, out)) in choices.iter().zip(out.iter_mut()).enumerate() {
                *out = choice.map(|chosen| {
                    let wobble = ((session + slot) % 5) as f64 / 100.0;
                    let gain = if chosen == NetworkId(2) {
                        0.8 - wobble
                    } else {
                        0.25 + wobble
                    };
                    Observation::bandit(slot, chosen, gain * 22.0, gain)
                });
            }
        }

        fn wake_cadence(&self, session: usize) -> usize {
            self.cadence_of(session)
        }

        fn first_wake(&self, session: usize) -> SlotIndex {
            session % self.cadence_of(session)
        }

        fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
            self.events.iter().copied().find(|&at| at >= from)
        }
    }

    #[test]
    fn event_stepping_is_bit_identical_to_sync_at_uniform_cadence() {
        // The in-crate smoke version of the correctness anchor (the full
        // world × threads × lanes × partitioning matrix lives in
        // crates/env/tests): uniform cadence 1 makes every cohort the whole
        // fleet, so step_events must reproduce step_env bit-for-bit.
        for threads in [Some(1), Some(2)] {
            let mut sync = build_fleet(threads, 8, 40);
            let mut events = build_fleet(threads, 8, 40);
            let mut sync_env = CadenceEnv::uniform(40);
            let mut events_env = CadenceEnv::uniform(40);
            for step in 0..20 {
                sync.step_env(&mut sync_env);
                assert_eq!(events.step_events(&mut events_env), Some(step));
                assert_eq!(events.last_choices(), sync.last_choices(), "step {step}");
            }
            assert_eq!(events.slot(), sync.slot());
            assert_eq!(events.metrics(), sync.metrics());
            assert_eq!(events_env.begin_slots, sync_env.begin_slots);
            let mut event_snapshot = events.snapshot().unwrap();
            // The event engine additionally carries its wake queue; the
            // session states and RNG streams must match exactly.
            assert!(event_snapshot.wake_queue.is_some());
            event_snapshot.wake_queue = None;
            assert_eq!(
                serde_json::to_string(&event_snapshot).unwrap(),
                serde_json::to_string(&sync.snapshot().unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn heterogeneous_cadences_wake_only_due_cohorts() {
        let mut fleet = build_fleet(Some(2), 8, 40);
        let mut env = CadenceEnv {
            sessions: 40,
            cadences: vec![1, 2, 4, 8],
            events: Vec::new(),
            begin_slots: Vec::new(),
        };
        let until = 16;
        fleet.run_until(&mut env, until);
        assert_eq!(fleet.slot(), until);
        // Each session wakes at first_wake, then every cadence slots; count
        // the wakes strictly below `until` per session.
        let expected: u64 = (0..40)
            .map(|session| {
                let cadence = env.cadence_of(session);
                let first = session % cadence;
                ((until - first).div_ceil(cadence)) as u64
            })
            .sum();
        assert_eq!(fleet.metrics().decisions, expected);
        // Slot 15 wakes the cadence-1 group (10), the cadence-2 group (odd
        // first wakes, 10) and the cadence-8 sessions staggered to 7 mod 8
        // (5) — 25 decisions, never the whole fleet.
        assert_eq!(fleet.last_wake_latency().unwrap().count, 25);
    }

    #[test]
    fn env_event_only_timestamps_advance_state_without_decisions() {
        let mut fleet = build_fleet(Some(1), 8, 8);
        let mut env = CadenceEnv {
            sessions: 8,
            cadences: vec![64],
            events: vec![3, 5],
            begin_slots: Vec::new(),
        };
        // All eight sessions first wake in 0..8 (staggered); the pushed
        // events at 3 and 5 coincide with wakes. Run past every wake, then
        // the next timestamps are event-free: nothing before slot 64.
        fleet.run_until(&mut env, 10);
        assert_eq!(fleet.slot(), 10);
        assert_eq!(env.begin_slots, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(fleet.metrics().decisions, 8);
        // A world with pushed events beyond every wake: the engine
        // materialises the event timestamp, advances state, decides nothing.
        let mut fleet = build_fleet(Some(1), 8, 8);
        let mut env = CadenceEnv {
            sessions: 8,
            cadences: vec![64],
            events: vec![20],
            begin_slots: Vec::new(),
        };
        fleet.run_until(&mut env, 8);
        let decided_by_8 = fleet.metrics().decisions;
        assert_eq!(fleet.step_events(&mut env), Some(20));
        assert_eq!(*env.begin_slots.last().unwrap(), 20);
        assert_eq!(fleet.metrics().decisions, decided_by_8);
        assert_eq!(fleet.slot(), 21);
    }

    #[test]
    fn wake_queue_round_trips_through_snapshots() {
        let mut original = build_fleet(Some(2), 8, 40);
        let mut env = CadenceEnv {
            sessions: 40,
            cadences: vec![1, 3, 5],
            events: Vec::new(),
            begin_slots: Vec::new(),
        };
        for _ in 0..7 {
            original.step_events(&mut env);
        }
        let snapshot = original.snapshot().unwrap();
        let queue = snapshot.wake_queue.clone().expect("queue primed");
        assert_eq!(queue.len(), 40);
        assert!(queue
            .windows(2)
            .all(|w| (w[0].wake, w[0].session) < (w[1].wake, w[1].session)));
        let mut restored = FleetEngine::from_snapshot(snapshot).unwrap();
        // The restored fleet continues on the recorded schedule without
        // re-priming — bit-identical timestamps, choices and bytes.
        let mut restored_env = CadenceEnv {
            sessions: 40,
            cadences: vec![1, 3, 5],
            events: Vec::new(),
            begin_slots: Vec::new(),
        };
        for _ in 0..9 {
            let expected = original.step_events(&mut env);
            assert_eq!(restored.step_events(&mut restored_env), expected);
            assert_eq!(restored.last_choices(), original.last_choices());
        }
        let text = original.to_json().unwrap();
        assert_eq!(restored.to_json().unwrap(), text);
        // Version-9 texts written while `FleetConfig` still had its
        // latency, feedback-partitioning and lane switches, and weight
        // tables still had a Fenwick tree, carry those fields; restore
        // ignores them (lanes off included) and the fleet round-trips
        // bit-exactly.
        let legacy = text
            .replacen(
                "\"threads\":2",
                "\"threads\":2,\"partitioned_feedback\":true,\"fleet_lanes\":false,\
                 \"wake_latency\":true",
                1,
            )
            .replace("\"alias_prob\":", "\"tree\":[],\"alias_prob\":");
        assert!(legacy.contains("\"fleet_lanes\":false"));
        assert_eq!(
            legacy.matches("\"tree\":[]").count(),
            text.matches("\"alias_prob\":").count()
        );
        assert_eq!(
            FleetEngine::from_json(&legacy).unwrap().to_json().unwrap(),
            text
        );
    }

    #[test]
    fn run_until_fast_forwards_idle_tails() {
        let mut fleet = build_fleet(Some(1), 8, 8);
        let mut env = CadenceEnv {
            sessions: 8,
            cadences: vec![100],
            events: Vec::new(),
            begin_slots: Vec::new(),
        };
        // Every session wakes once in 0..8, then nothing until ~100; the
        // clock jumps straight to the horizon.
        fleet.run_until(&mut env, 50);
        assert_eq!(fleet.slot(), 50);
        assert_eq!(fleet.metrics().decisions, 8);
        assert_eq!(env.begin_slots.len(), 8);
        // Latency percentiles were recorded for the last cohort.
        let latency = fleet.last_wake_latency().expect("cohort decided");
        assert_eq!(latency.count, 1);
        assert!(latency.p50_s <= latency.p95_s && latency.p95_s <= latency.p99_s);
    }
}
