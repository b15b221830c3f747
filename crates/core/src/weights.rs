//! Numerically stable exponential weights shared by the EXP3 family.
//!
//! EXP3 maintains a multiplicative weight per arm and mixes the normalised
//! weights with a uniform distribution:
//!
//! ```text
//! p_i = (1 - γ) · w_i / Σ_j w_j  +  γ / k
//! ```
//!
//! Because the estimated gains `ĝ = g / p` can be large (blocks of dozens of
//! slots divided by small probabilities), weights are stored in the **log
//! domain** and probabilities derived from a max-shifted softmax, which keeps
//! the computation stable over arbitrarily long horizons.
//!
//! ## The distribution cache
//!
//! Recomputing the softmax from scratch on every read is the dominant cost of
//! a fleet stepping millions of sessions, so the table keeps the softmax
//! **cached and incrementally maintained** (following the spirit of Sato &
//! Ito's "Fast EXP3 Algorithms"): alongside the log-weights it stores the
//! max-shifted exponentials `e_i = exp(lw_i − max_lw)` and their running sum.
//! A [`multiplicative_update`](WeightTable::multiplicative_update) then costs
//! one `exp` plus a constant-time sum adjustment, after an O(log k) arm
//! lookup that
//! [`multiplicative_update_at`](WeightTable::multiplicative_update_at) skips
//! for a caller that kept the drawn position. A full O(k) rebuild happens
//! only when the maximum shifts, when an arm is added/removed/reset, or
//! periodically to keep floating-point drift of the running sum far below
//! any observable level (see `PATCH_LIMIT`).
//!
//! Cache invariants (checked by the property suite in `tests/`):
//!
//! 1. `log_weights` is always the exact ground truth; the cache is derived
//!    data and never feeds back into it.
//! 2. `max_log_weight` equals `max(log_weights)` at all times under the
//!    linear strategy; under the alias strategy it is a **shift reference**
//!    that may lag the maximum by at most `MAX_SHIFT_SLACK` between rebuilds
//!    (the softmax ratio is shift-invariant, so probabilities are
//!    unaffected).
//! 3. `exp_weights[i]` equals `exp(log_weights[i] − max_log_weight)` exactly;
//!    `exp_sum` equals `Σ exp_weights[i]` up to the accumulated rounding of at
//!    most `PATCH_LIMIT` constant-time adjustments (relative error well below
//!    1e-12, the tolerance the property tests assert).
//! 4. Only the canonical state is serialized: the arms, `log_weights`, the
//!    shift reference, the running `exp_sum`, the patch count, the strategy,
//!    each dirty arm's position and frozen mass, the running overlay mass and
//!    the two sampler counters. Reading a table rebuilds the arm index, the
//!    exponentials and the Vose table with the code that builds them
//!    everywhere else, bit for bit, so a restored policy continues on the
//!    exact trajectory of the original; the reader rejects a text whose
//!    canonical fields disagree (see [`WeightTable`]'s `Deserialize`).
//!
//! ## Amortised-O(1) sampling (`SamplerStrategy::Alias`)
//!
//! The cache makes updates O(1), but the default linear sampler still walks
//! the CDF in O(k) — fine for the paper's handful of networks, a real cost
//! in dense-spectrum worlds with hundreds of visible arms. In the
//! constant-time regime of the Fast EXP3 paper — and of this repo's
//! duty-cycle worlds, where a sleeping session's weights are frozen across
//! its whole sleep interval and Smart EXP3's weights are frozen within a
//! block — the walk is avoidable. The opt-in [`SamplerStrategy::Alias`]
//! keeps a **Vose alias table** built over the cached exponentials: two
//! O(1) array reads invert the softmax part of the CDF, with the γ/k
//! uniform share handled analytically from a prefix of the draw. Updates do
//! not rebuild the table; instead a **dirty-arm overlay**
//! records which arms gained mass since the table was frozen, and sampling
//! draws from the mixture of the frozen table (stale mass) and a short O(d)
//! walk over the dirty arms (fresh delta mass) — exact, because a clean
//! arm's frozen mass *is* its current mass. The table is re-frozen in O(k)
//! only when the dirty mass crosses [`DIRTY_MASS_FRACTION`] of the total or
//! on the events that already rebuild the cache (max shift, arm churn,
//! reset, drift budget), so phases with static weights amortise the rebuild
//! to ~O(k / phase length) while every draw stays O(1).
//!
//! Both strategies sample the same distribution (within the 1e-12 cache
//! tolerance) and consume exactly one `rng.gen::<f64>()` per draw — the
//! alias decode splits the single draw's 53 mantissa bits into a column
//! index and a coin, rather than drawing twice — but their floating-point
//! decode orders differ, so a given target can resolve to a different arm at
//! CDF boundaries. Bit-exactness of decision trajectories is therefore
//! **per policy config**: worlds built on the default
//! [`SamplerStrategy::Linear`] keep their historical golden pins, and
//! alias-sampled configs carry their own.

use crate::NetworkId;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Deserializer, Serialize};

/// Number of constant-time cache adjustments allowed before the next update
/// performs a full rebuild. Each adjustment perturbs the running sum by at
/// most one ulp, so 64 of them keep the cached distribution within ~1e-14 of
/// a from-scratch softmax — two orders of magnitude tighter than the 1e-12
/// contract the property tests assert.
const PATCH_LIMIT: u32 = 64;

/// Relative gap between a running sum and its from-scratch value that a
/// table read from text may carry: `exp_sum` against `Σ exp_weights`, and
/// `dirty_mass` against the dirty arms' fresh deltas (relative to the
/// table's total mass). The running sums drift by about one ulp per
/// constant-time patch and at most `PATCH_LIMIT` patches separate two
/// rebuilds, so a table the program wrote stays near 1e-14 — well inside the
/// 1e-12 the property suite asserts of the cached distribution, and three
/// orders of magnitude inside this bound.
const EXP_SUM_TOLERANCE: f64 = 1e-9;

/// How far (in the log domain) a weight may rise **above** the cached shift
/// reference before the alias strategy rebuilds. The linear strategy rebuilds
/// on any overshoot — the historical behaviour its golden pins encode — but
/// at large K the near-uniform phase makes almost every update the new
/// maximum, turning each O(1) patch into an O(k) rebuild. Under
/// [`SamplerStrategy::Alias`] the softmax shift only has to keep
/// `exp(lw − reference)` finite and well-scaled, not anchored to the exact
/// maximum: `exp(40) ≈ 2.4e17` stays far from overflow (`exp(709)`) and far
/// above underflow for any arm within the slack, so probabilities keep full
/// double precision (the softmax ratio is shift-invariant). Rebuilds then
/// come from `PATCH_LIMIT` (or churn events), restoring the amortized-O(1)
/// update the cache was built for.
const MAX_SHIFT_SLACK: f64 = 40.0;

/// Fraction of the total sampled mass the dirty-arm overlay may hold before
/// the alias table is re-frozen. Below the threshold a draw is O(1) with
/// probability ≥ 1 − `DIRTY_MASS_FRACTION` and an O(dirty) short walk
/// otherwise (dirty ≤ `PATCH_LIMIT`); above it the stale table no longer
/// represents most of the distribution and an O(k) rebuild is cheaper than
/// letting the walk dominate. 25% keeps the expected per-draw cost within
/// a small constant of a pure alias lookup while rebuilding at most once
/// per ~`0.25/γ̄`-fold mass growth.
const DIRTY_MASS_FRACTION: f64 = 0.25;

/// How [`WeightTable::sample`] inverts the CDF.
///
/// Part of each policy's configuration: changing it changes the
/// floating-point accumulation order of the CDF inversion (not the sampled
/// distribution), so golden decision pins are scoped to a (policy config,
/// strategy) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplerStrategy {
    /// O(k) walk over the cached probabilities — the historical default, and
    /// the fastest option for the paper's small network sets.
    #[default]
    Linear,
    /// Amortised-O(1) Vose alias table over the cached exponentials with a
    /// dirty-arm overlay — for static-weight phases (duty-cycled sleepers,
    /// Smart EXP3 blocks) in dense-spectrum worlds, where the table freeze
    /// is amortised over many draws.
    Alias,
}

/// One-pass digest of an EXP3 distribution (see [`WeightTable::summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSummary {
    /// The arm with the highest probability (earliest-inserted wins ties).
    pub most_probable: NetworkId,
    /// The highest probability.
    pub max: f64,
    /// The lowest probability.
    pub min: f64,
}

/// Exponential weight table over a (possibly changing) set of networks.
///
/// Serialized as its canonical state only (see the module docs' cache
/// invariant 4): the `#[serde(skip)]` fields are caches that reading a
/// table rebuilds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightTable {
    arms: Vec<NetworkId>,
    /// Natural-log weights; `log_weights[i]` corresponds to `arms[i]`.
    log_weights: Vec<f64>,
    /// `(arm, position)` pairs sorted by arm, for O(log k) lookups.
    #[serde(skip)]
    index: Vec<(NetworkId, usize)>,
    /// Cached maximum of `log_weights` (the softmax shift).
    max_log_weight: f64,
    /// Cached `exp(log_weights[i] − max_log_weight)`.
    #[serde(skip)]
    exp_weights: Vec<f64>,
    /// Cached `Σ exp_weights[i]`, maintained incrementally.
    exp_sum: f64,
    /// Constant-time adjustments applied since the last full rebuild.
    patches: u32,
    /// How [`sample`](Self::sample) inverts the CDF.
    strategy: SamplerStrategy,
    /// Vose alias table: probability of keeping the column's own arm.
    /// Empty unless the strategy is [`SamplerStrategy::Alias`].
    #[serde(skip)]
    alias_prob: Vec<f64>,
    /// Vose alias table: the alternative arm of each column.
    #[serde(skip)]
    alias_idx: Vec<usize>,
    /// Total mass the alias table was frozen over (summed from scratch, not
    /// the drifting `exp_sum`).
    #[serde(skip)]
    alias_total: f64,
    /// Positions patched since the alias table was frozen, each with its
    /// frozen mass: the exponential it had at the freeze, which is what its
    /// first patch removed (deduplicated; bounded by `PATCH_LIMIT` between
    /// cache rebuilds). A clean arm's frozen mass is its current mass, so
    /// only dirty arms need theirs kept.
    dirty: Vec<(usize, f64)>,
    /// `Σ_dirty (exp_weights[j] − frozen mass of j)` — the overlay's share
    /// of the sampled mass, always ≥ 0 (negative deltas force a rebuild).
    dirty_mass: f64,
    /// Times the alias table has been (re)built — the observable cost signal
    /// for rebuild storms. Stays 0 under the linear strategy.
    sampler_rebuilds: u64,
    /// Draws resolved through the dirty-arm overlay walk instead of the O(1)
    /// alias lookup. Stays 0 under the linear strategy.
    overlay_hits: u64,
}

impl WeightTable {
    /// Creates a table with uniform (unit) weights over `arms`, sampling with
    /// the default [`SamplerStrategy::Linear`].
    ///
    /// Duplicate arms are collapsed; the caller is expected to have validated
    /// the arm list already (see [`ConfigError`](crate::ConfigError)).
    #[must_use]
    pub fn uniform(arms: &[NetworkId]) -> Self {
        Self::uniform_with_strategy(arms, SamplerStrategy::default())
    }

    /// Creates a table with uniform (unit) weights over `arms` and an explicit
    /// sampling strategy.
    ///
    /// Duplicate arms are collapsed keeping the first occurrence, exactly as
    /// [`uniform`](Self::uniform) does (the two constructors produce
    /// identical tables apart from the strategy).
    #[must_use]
    pub fn uniform_with_strategy(arms: &[NetworkId], strategy: SamplerStrategy) -> Self {
        // Collapse duplicates in O(k log k): sort (arm, first position)
        // pairs, dedup by arm (keeping the earliest position), then restore
        // insertion order. A per-arm sorted insert would be O(k²) — felt at
        // the dense-urban scale of ~1000 arms × thousands of sessions.
        let mut pairs: Vec<(NetworkId, usize)> = arms
            .iter()
            .copied()
            .enumerate()
            .map(|(position, arm)| (arm, position))
            .collect();
        pairs.sort_unstable();
        pairs.dedup_by(|later, first| later.0 == first.0);
        pairs.sort_unstable_by_key(|&(_, position)| position);
        let arms: Vec<NetworkId> = pairs.into_iter().map(|(arm, _)| arm).collect();
        let mut table = WeightTable {
            log_weights: vec![0.0; arms.len()],
            index: Vec::with_capacity(arms.len()),
            arms,
            max_log_weight: f64::NEG_INFINITY,
            exp_weights: Vec::new(),
            exp_sum: 0.0,
            patches: 0,
            strategy,
            alias_prob: Vec::new(),
            alias_idx: Vec::new(),
            alias_total: 0.0,
            dirty: Vec::new(),
            dirty_mass: 0.0,
            sampler_rebuilds: 0,
            overlay_hits: 0,
        };
        table.rebuild_index();
        table.rebuild_cache();
        table
    }

    /// The active sampling strategy.
    #[must_use]
    pub fn strategy(&self) -> SamplerStrategy {
        self.strategy
    }

    /// Number of arms currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// Returns `true` when no arms are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The tracked arms, in insertion order.
    #[must_use]
    pub fn arms(&self) -> &[NetworkId] {
        &self.arms
    }

    /// Binary-search result for `arm` in the sorted index: `Ok` holds the
    /// index entry, `Err` the insertion point.
    fn index_slot(&self, arm: NetworkId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&arm, |&(a, _)| a)
    }

    /// Returns the position of `arm` in the table, if tracked, in O(log k).
    #[must_use]
    pub fn position(&self, arm: NetworkId) -> Option<usize> {
        self.index_slot(arm).ok().map(|slot| self.index[slot].1)
    }

    /// Log-weight of `arm`, or `None` if the arm is not tracked.
    #[must_use]
    pub fn log_weight(&self, arm: NetworkId) -> Option<f64> {
        self.position(arm).map(|i| self.log_weights[i])
    }

    /// Rebuilds the cached softmax from the ground-truth log-weights.
    fn rebuild_cache(&mut self) {
        self.max_log_weight = self
            .log_weights
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        self.rebuild_exp_weights();
        self.exp_sum = self.exp_weights.iter().sum();
        self.patches = 0;
        self.rebuild_alias();
    }

    /// Recomputes every `exp(lw − max_log_weight)` against the current shift
    /// reference.
    fn rebuild_exp_weights(&mut self) {
        let max = self.max_log_weight;
        self.exp_weights.clear();
        self.exp_weights
            .extend(self.log_weights.iter().map(|&lw| (lw - max).exp()));
    }

    /// (Re)freezes the Vose alias table over the cached exponentials, in
    /// O(k), and clears the dirty-arm overlay. No-op (beyond clearing) under
    /// the linear strategy.
    fn rebuild_alias(&mut self) {
        self.dirty.clear();
        self.dirty_mass = 0.0;
        if self.strategy == SamplerStrategy::Alias {
            self.sampler_rebuilds += 1;
        }
        let masses = std::mem::take(&mut self.exp_weights);
        self.freeze_alias(&masses);
        self.exp_weights = masses;
    }

    /// Builds the Vose alias table over `masses` (one per arm) under the
    /// alias strategy, and empties it under the linear one. Touches neither
    /// the overlay nor the rebuild counter: [`rebuild_alias`](Self::rebuild_alias)
    /// freezes the current exponentials, and the reader re-freezes the
    /// masses a written table was frozen over.
    ///
    /// Vose's method: scale every mass to `m_i · k / Σm`, split the columns
    /// into deficit (< 1) and surplus (≥ 1) stacks, then repeatedly top a
    /// deficit column up from a surplus one so every column holds exactly
    /// one unit — `alias_prob[c]` of it belonging to arm `c` and the rest to
    /// `alias_idx[c]`. Floating-point leftovers keep their initialised
    /// `prob = 1, idx = self`, which is the exact-arithmetic limit.
    fn freeze_alias(&mut self, masses: &[f64]) {
        self.alias_prob.clear();
        self.alias_idx.clear();
        self.alias_total = 0.0;
        let k = masses.len();
        if self.strategy != SamplerStrategy::Alias || k == 0 {
            return;
        }
        // The freeze total is summed from scratch — the alias decode must be
        // internally consistent with the frozen masses, not with the
        // incrementally drifting `exp_sum`.
        let total: f64 = masses.iter().sum();
        self.alias_prob.resize(k, 1.0);
        self.alias_idx.extend(0..k);
        if !(total.is_finite() && total > 0.0) {
            // Damaged masses (the non-finite-update guard failed upstream):
            // keep the uniform table so sampling stays sound, mirroring the
            // linear walk's never-panic contract.
            self.alias_total = k as f64;
            return;
        }
        self.alias_total = total;
        let scale = k as f64 / total;
        let mut scaled: Vec<f64> = masses.iter().map(|&m| m * scale).collect();
        // Sized for the worst case up front, so a freeze allocates each
        // stack once instead of growing it through about log2(k)
        // reallocations.
        let mut small: Vec<usize> = Vec::with_capacity(k);
        let mut large: Vec<usize> = Vec::with_capacity(k);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(deficit), Some(surplus)) = (small.pop(), large.pop()) {
            self.alias_prob[deficit] = scaled[deficit];
            self.alias_idx[deficit] = surplus;
            scaled[surplus] = (scaled[surplus] + scaled[deficit]) - 1.0;
            if scaled[surplus] < 1.0 {
                small.push(surplus);
            } else {
                large.push(surplus);
            }
        }
    }

    /// Folds a constant-time cache patch into the dirty-arm overlay: arm `i`
    /// went from mass `removed` to `added`. Only positive deltas reach here
    /// (the rebuild condition routes negative ones to a full rebuild), so
    /// the overlay mass never goes negative. Re-freezes the table when the
    /// overlay outgrows [`DIRTY_MASS_FRACTION`] of the total.
    fn overlay_patch(&mut self, i: usize, removed: f64, added: f64) {
        // O(dirty) dedup keeps the overlay walk exact: a duplicate entry
        // would double-count the arm's delta. `dirty` is bounded by
        // `PATCH_LIMIT`, so this scan is as constant as the patch itself.
        // An arm's first patch since the freeze removes its frozen mass.
        if !self.dirty.iter().any(|&(j, _)| j == i) {
            self.dirty.push((i, removed));
        }
        self.dirty_mass += added - removed;
        let total = self.alias_total + self.dirty_mass;
        if !(total.is_finite() && total > 0.0) || self.dirty_mass > DIRTY_MASS_FRACTION * total {
            self.rebuild_alias();
        }
    }

    /// Times the alias table has been (re)built over this table's lifetime
    /// (0 under the linear strategy) — serialized, so restored
    /// fleets keep counting from the snapshot.
    #[must_use]
    pub fn sampler_rebuilds(&self) -> u64 {
        self.sampler_rebuilds
    }

    /// Draws resolved through the dirty-arm overlay walk instead of the O(1)
    /// alias lookup (0 under the linear strategy).
    #[must_use]
    pub fn overlay_hits(&self) -> u64 {
        self.overlay_hits
    }

    /// Rebuilds the sorted arm index (positions shift after a removal).
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.index
            .extend(self.arms.iter().copied().enumerate().map(|(i, a)| (a, i)));
        self.index.sort_unstable_by_key(|&(a, _)| a);
    }

    /// The EXP3 probability of the arm at position `i` under `gamma`,
    /// computed from the cache in O(1).
    #[inline]
    fn probability_at(&self, i: usize, gamma: f64) -> f64 {
        let k = self.arms.len() as f64;
        (1.0 - gamma) * (self.exp_weights[i] / self.exp_sum) + gamma / k
    }

    /// Applies the EXP3 multiplicative update `w ← w · exp(γ ĝ / k)` to `arm`.
    ///
    /// `estimated_gain` is the importance-weighted gain `ĝ = g / p`.
    /// Unknown arms are ignored (this can only happen transiently around a
    /// change in the available-network set). Non-finite estimates are
    /// rejected outright: a single NaN or ±∞ gain would otherwise poison the
    /// whole distribution, so the update is dropped and the table left
    /// unchanged.
    pub fn multiplicative_update(&mut self, arm: NetworkId, gamma: f64, estimated_gain: f64) {
        if let Some(i) = self.position(arm) {
            self.multiplicative_update_at(i, gamma, estimated_gain);
        }
    }

    /// [`multiplicative_update`](Self::multiplicative_update) on the arm at
    /// table position `i` (see [`sample_position`](Self::sample_position)),
    /// skipping the O(log k) arm lookup — at large K the sorted index does
    /// not stay in cache, so the lookup is a chain of dependent misses.
    /// Out-of-range positions and non-finite estimates are ignored.
    pub fn multiplicative_update_at(&mut self, i: usize, gamma: f64, estimated_gain: f64) {
        if !estimated_gain.is_finite() || i >= self.arms.len() {
            return;
        }
        let k = self.arms.len() as f64;
        let delta = gamma * estimated_gain / k;
        if delta == 0.0 {
            return;
        }
        let old_lw = self.log_weights[i];
        let new_lw = old_lw + delta;
        self.log_weights[i] = new_lw;

        let removed = self.exp_weights[i];
        if self.needs_cache_rebuild(old_lw, new_lw, delta, removed) {
            // The maximum shifted, the arm that defined it shrank, a dominant
            // term is about to be cancelled out of the running sum, or the
            // drift budget is spent: recompute from the ground truth.
            self.rebuild_cache();
        } else {
            let added = (new_lw - self.max_log_weight).exp();
            self.exp_weights[i] = added;
            self.exp_sum += added - removed;
            self.patches += 1;
            if self.exp_sum.is_finite() && self.exp_sum > 0.0 {
                // The cache patch held; mirror it into the sampler structure
                // so draws see the same incrementally maintained masses.
                if self.strategy == SamplerStrategy::Alias {
                    self.overlay_patch(i, removed, added);
                }
            } else {
                self.rebuild_cache();
            }
        }
        self.renormalize();
    }

    /// The one shared rebuild condition for every sampling strategy: decides
    /// whether this update can be a constant-time cache patch or must
    /// recompute from the ground truth.
    ///
    /// The strategies differ only in two knobs. **Shift slack**: the linear
    /// strategy rebuilds on any overshoot of the cached shift (the exact
    /// historical condition its golden pins encode — the `+ 0.0` is
    /// bit-exact), while the alias strategy tolerates
    /// `MAX_SHIFT_SLACK` so the large-K hot path stays a patch (see that
    /// constant's docs). **Negative patchability**: the linear cache
    /// patches a shrinking arm in place, but the alias overlay cannot express
    /// negative delta mass without breaking the single-draw decode, so any
    /// negative delta rebuilds — harmless in practice, since EXP3-proper
    /// estimated gains are ≥ 0.
    fn needs_cache_rebuild(&self, old_lw: f64, new_lw: f64, delta: f64, removed: f64) -> bool {
        let (slack, patchable_negative) = match self.strategy {
            SamplerStrategy::Linear => (0.0, true),
            SamplerStrategy::Alias => (MAX_SHIFT_SLACK, false),
        };
        self.patches >= PATCH_LIMIT
            || new_lw > self.max_log_weight + slack
            || (delta < 0.0
                && (!patchable_negative
                    || old_lw == self.max_log_weight
                    || removed > 0.5 * self.exp_sum))
    }

    /// Folds one **shared** (gossiped) gain estimate into `arm`'s weight —
    /// the Co-Bandit cooperative-feedback path, reusing the incremental
    /// cached-distribution update so gossip costs the same one `exp` as a
    /// bandit update.
    ///
    /// Shared rates come from neighbours' raw measurements, so the guard is
    /// stricter than [`multiplicative_update`](Self::multiplicative_update)'s:
    /// besides non-finite estimates, **negative** shared rates are rejected
    /// outright (a scaled gain is `[0, 1]` by construction; a negative report
    /// is a corrupt or hostile message, and folding it in would drain weight
    /// from an arm based on data nobody observed).
    pub fn shared_update(&mut self, arm: NetworkId, gamma: f64, shared_gain: f64) {
        if !shared_gain.is_finite() || shared_gain < 0.0 {
            return;
        }
        self.multiplicative_update(arm, gamma, shared_gain);
    }

    /// EXP3 probability distribution `p_i = (1-γ)·softmax(w)_i + γ/k`,
    /// returned in the same order as [`arms`](Self::arms).
    #[must_use]
    pub fn probabilities(&self, gamma: f64) -> Vec<f64> {
        (0..self.arms.len())
            .map(|i| self.probability_at(i, gamma))
            .collect()
    }

    /// The most probable arm and its probability, in one pass over the
    /// cached exponentials without materialising the O(K) listing; `None`
    /// when the table is empty.
    ///
    /// Ties break towards the **later-inserted** arm (the opposite of
    /// [`summary`](Self::summary)), matching what a reader gets from scanning
    /// the full [`probabilities`](Self::probabilities) listing, paired with
    /// [`arms`](Self::arms), with `Iterator::max_by(f64::total_cmp)`.
    #[must_use]
    pub fn top_choice(&self, gamma: f64) -> Option<(NetworkId, f64)> {
        self.arms
            .iter()
            .enumerate()
            .map(|(i, &arm)| (arm, self.probability_at(i, gamma)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Probability of a specific arm under the EXP3 rule, in O(log k) (an
    /// index lookup plus a constant-time cache read).
    #[must_use]
    pub fn probability_of(&self, arm: NetworkId, gamma: f64) -> f64 {
        match self.position(arm) {
            Some(i) => self.probability_at(i, gamma),
            None => 0.0,
        }
    }

    /// The most probable arm and its probability, breaking ties towards the
    /// earliest-inserted arm. `None` when the table is empty.
    #[must_use]
    pub fn most_probable(&self, gamma: f64) -> Option<(NetworkId, f64)> {
        self.summary(gamma).map(|s| (s.most_probable, s.max))
    }

    /// `(min, max)` of the distribution, or `None` when the table is empty.
    #[must_use]
    pub fn probability_bounds(&self, gamma: f64) -> Option<(f64, f64)> {
        self.summary(gamma).map(|s| (s.min, s.max))
    }

    /// One-pass summary of the distribution (argmax arm, maximum and minimum
    /// probability), or `None` when the table is empty. The EXP3-family
    /// policies consult all three for every fresh decision (greedy and reset
    /// conditions), so they are produced together from the cache.
    #[must_use]
    pub fn summary(&self, gamma: f64) -> Option<DistributionSummary> {
        if self.arms.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut max_p = self.probability_at(0, gamma);
        let mut min_p = max_p;
        for i in 1..self.arms.len() {
            let p = self.probability_at(i, gamma);
            if p > max_p {
                best = i;
                max_p = p;
            }
            if p < min_p {
                min_p = p;
            }
        }
        Some(DistributionSummary {
            most_probable: self.arms[best],
            max: max_p,
            min: min_p,
        })
    }

    /// Samples an arm from the EXP3 distribution, reusing the cache (no
    /// allocation, no softmax recomputation). Exactly one `f64` is drawn
    /// from `rng`, whichever [`SamplerStrategy`] is active.
    ///
    /// If the distribution has been damaged despite the non-finite-update
    /// guard (probabilities that fail to accumulate past the drawn target),
    /// the walk falls back to an arm instead of panicking — one poisoned
    /// session must never take down a fleet.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn sample(&mut self, gamma: f64, rng: &mut dyn RngCore) -> (NetworkId, f64) {
        let (i, probability) = self.sample_position(gamma, rng);
        (self.arms[i], probability)
    }

    /// [`sample`](Self::sample), returning the drawn arm's table position
    /// instead of its id (the same draw, RNG use and overlay count). A
    /// caller that keeps the position can update the arm with
    /// [`multiplicative_update_at`](Self::multiplicative_update_at) while
    /// the arm set is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn sample_position(&mut self, gamma: f64, rng: &mut dyn RngCore) -> (usize, f64) {
        let target: f64 = rng.gen();
        let (i, overlay) = self.invert_at(gamma, target);
        // `&mut self` exists solely for this count: overlay traffic is the
        // alias strategy's cost signal, surfaced through `PolicyStats`.
        if overlay {
            self.overlay_hits += 1;
        }
        (i, self.probability_at(i, gamma))
    }

    /// Deterministic core of [`sample`](Self::sample): inverts the CDF at
    /// `target ∈ [0, 1)` using the active strategy. Exposed so tests can pin
    /// strategy equivalence at chosen targets without mocking an RNG. Does
    /// not count overlay hits (it takes `&self`); [`sample`](Self::sample)
    /// is the counting entry point.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    #[must_use]
    pub fn sample_at(&self, gamma: f64, target: f64) -> (NetworkId, f64) {
        let (i, _) = self.invert_at(gamma, target);
        (self.arms[i], self.probability_at(i, gamma))
    }

    /// Strategy dispatch for the CDF inversion. The second return value
    /// reports whether the draw resolved through the dirty-arm overlay
    /// (always `false` for the linear strategy).
    fn invert_at(&self, gamma: f64, target: f64) -> (usize, bool) {
        assert!(
            !self.arms.is_empty(),
            "cannot sample from an empty weight table"
        );
        match self.strategy {
            SamplerStrategy::Linear => (self.invert_linear(gamma, target), false),
            SamplerStrategy::Alias => self.invert_alias(gamma, target),
        }
    }

    /// O(k) CDF walk — the historical sampler. Its exact subtraction order
    /// defines the pre-existing golden decision pins, so it must never
    /// change.
    fn invert_linear(&self, gamma: f64, mut target: f64) -> usize {
        let k = self.arms.len();
        for i in 0..k {
            let p = self.probability_at(i, gamma);
            if target < p || i + 1 == k {
                return i;
            }
            target -= p;
        }
        // Unreachable through the loop above (the `i + 1 == k` branch fires
        // on the final arm), but kept as a defensive fallback.
        k - 1
    }

    /// Amortised-O(1) alias decode. The single `target ∈ [0, 1)` is consumed
    /// in stages, each stage rescaling the remainder back to `[0, 1)` so the
    /// next stage sees a full-precision uniform variate (splitting the one
    /// draw rather than drawing again — the one-RNG-draw contract):
    ///
    /// 1. `target < γ` resolves the uniform γ/k mixture analytically to arm
    ///    `⌊target/γ · k⌋`.
    /// 2. Otherwise the remainder selects softmax mass. A slice proportional
    ///    to the overlay's share routes to an O(dirty) walk over the dirty
    ///    arms' fresh deltas (`overlay = true`).
    /// 3. The rest drives the Vose table: the integer part of `u·k` picks a
    ///    column, the fractional part is the coin against `alias_prob` —
    ///    two array reads.
    ///
    /// Clean arms' frozen mass equals their current mass, so the mixture of
    /// stale table plus fresh deltas is the exact cached distribution.
    /// A damaged table (non-finite totals) falls back to the linear walk —
    /// one poisoned session must never take down a fleet.
    fn invert_alias(&self, gamma: f64, target: f64) -> (usize, bool) {
        let k = self.arms.len();
        if target < gamma {
            // γ > 0 here (`target < γ` is unreachable for γ ≤ 0), and the
            // `min` clamps the `x ≈ k` rounding edge into the last arm.
            let x = target / gamma * k as f64;
            return ((x as usize).min(k - 1), false);
        }
        let total = self.alias_total + self.dirty_mass;
        if !(total.is_finite() && total > 0.0) || self.alias_prob.len() != k {
            return (self.invert_linear(gamma, target), false);
        }
        let s = (target - gamma) / (1.0 - gamma);
        let fresh_frac = self.dirty_mass / total;
        if s < fresh_frac {
            // Overlay walk over the fresh deltas, in patch order. The
            // accumulated `dirty_mass` and the per-arm recomputed deltas can
            // disagree by ulps, so the walk clamps to the last dirty arm
            // exactly as the linear walk clamps to its last arm.
            let mut remaining = s * total;
            for (walked, &(j, frozen)) in self.dirty.iter().enumerate() {
                let delta = self.exp_weights[j] - frozen;
                if remaining < delta || walked + 1 == self.dirty.len() {
                    return (j, true);
                }
                remaining -= delta;
            }
            // Unreachable (the walk clamps on its final entry; `s <
            // fresh_frac` implies the overlay is non-empty), kept defensive.
            return (k - 1, true);
        }
        let u = (s - fresh_frac) / (1.0 - fresh_frac);
        let x = u * k as f64;
        let column = (x as usize).min(k - 1);
        let coin = x - column as f64;
        // A NaN coin or prob fails the comparison and takes the alias
        // branch, which always holds a valid arm index.
        let arm = if coin < self.alias_prob[column] {
            column
        } else {
            self.alias_idx[column]
        };
        (arm, false)
    }

    /// Adds a newly discovered arm.
    ///
    /// Following §III ("Change in set of networks"), the new arm's weight is
    /// set to the maximum weight of the existing arms (or 1 if the table was
    /// empty), so that it has a realistic chance of being explored.
    pub fn add_arm(&mut self, arm: NetworkId) {
        let slot = match self.index_slot(arm) {
            Ok(_) => return,
            Err(slot) => slot,
        };
        // The ground-truth maximum, not the cached shift reference (under
        // the alias strategy the reference may lag the maximum by up to
        // `MAX_SHIFT_SLACK`; under the linear strategy the two are equal).
        let true_max = self
            .log_weights
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let lw = if true_max.is_finite() { true_max } else { 0.0 };
        self.index.insert(slot, (arm, self.arms.len()));
        self.arms.push(arm);
        self.log_weights.push(lw);
        self.rebuild_cache();
    }

    /// Removes an arm that is no longer available. Returns `true` if it was
    /// present.
    pub fn remove_arm(&mut self, arm: NetworkId) -> bool {
        match self.position(arm) {
            Some(i) => {
                self.arms.remove(i);
                self.log_weights.remove(i);
                self.rebuild_index();
                self.rebuild_cache();
                true
            }
            None => false,
        }
    }

    /// Resets every weight back to 1 (log-weight 0), keeping the arm set.
    pub fn reset_uniform(&mut self) {
        for lw in &mut self.log_weights {
            *lw = 0.0;
        }
        self.rebuild_cache();
    }

    /// Keeps log-weights centred around zero so they never overflow even over
    /// billions of updates. Shifting all log-weights by a constant does not
    /// change the softmax — nor the cached exponentials, which are stored
    /// relative to the maximum.
    fn renormalize(&mut self) {
        let max_lw = self.max_log_weight;
        if max_lw.is_finite() && max_lw.abs() > 1e3 {
            for lw in &mut self.log_weights {
                *lw -= max_lw;
            }
            self.max_log_weight = 0.0;
        }
    }
}

/// The written layout of a [`WeightTable`]: its canonical state.
#[derive(Deserialize)]
struct WeightTableText {
    arms: Vec<NetworkId>,
    log_weights: Vec<f64>,
    max_log_weight: f64,
    exp_sum: f64,
    patches: u32,
    strategy: SamplerStrategy,
    dirty: Vec<(usize, f64)>,
    dirty_mass: f64,
    sampler_rebuilds: u64,
    overlay_hits: u64,
}

/// Reads a table's canonical state and rebuilds its caches with the code
/// that builds them everywhere else: the arm index, every `exp(lw −
/// max_log_weight)` against the written shift reference, and the Vose table
/// over the masses it was frozen over (each clean arm's exponential, each
/// dirty arm's frozen mass). A table the program wrote comes back equal to
/// the one written, bit for bit.
///
/// A text the program did not write can break what every draw and update
/// relies on — the first would then panic or silently skew the
/// distribution (an `exp_sum` ten times too large makes the probabilities
/// sum to (1 − γ)/10 + γ) — so this reader is where such a table is
/// refused. It fails when `log_weights` is not as long as `arms`; an arm is
/// listed twice; a log-weight is not finite; a table with arms has a
/// non-finite `max_log_weight` or an `exp_sum` that is not finite and
/// positive; a rebuilt exponential is not finite; `exp_sum` differs from
/// the rebuilt exponentials' sum (in position order) by more than 1e-9 of
/// that sum (`EXP_SUM_TOLERANCE`); a dirty position is out of range or
/// repeated, or its frozen mass is not finite; a linear table has dirty
/// arms; or `dirty_mass` is not finite or differs from the dirty arms'
/// fresh mass (rebuilt exponential − frozen mass, summed in dirty order) by
/// more than 1e-9 of the table's total mass. (An empty table — a device
/// that sees no network — holds `max_log_weight = -inf` legitimately.)
impl Deserialize for WeightTable {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        WeightTable::from_text(WeightTableText::deserialize(de)?).map_err(serde::Error::custom)
    }
}

impl WeightTable {
    /// Builds a table from its canonical state, rebuilding its caches, or
    /// describes the first condition the state breaks (see the
    /// `Deserialize` impl).
    fn from_text(text: WeightTableText) -> Result<Self, String> {
        let k = text.arms.len();
        if text.log_weights.len() != k {
            return Err(format!(
                "`log_weights` holds {} entries for {k} arms",
                text.log_weights.len()
            ));
        }
        let mut table = WeightTable {
            arms: text.arms,
            log_weights: text.log_weights,
            index: Vec::with_capacity(k),
            max_log_weight: text.max_log_weight,
            exp_weights: Vec::with_capacity(k),
            exp_sum: text.exp_sum,
            patches: text.patches,
            strategy: text.strategy,
            alias_prob: Vec::new(),
            alias_idx: Vec::new(),
            alias_total: 0.0,
            dirty: text.dirty,
            dirty_mass: text.dirty_mass,
            sampler_rebuilds: text.sampler_rebuilds,
            overlay_hits: text.overlay_hits,
        };
        table.rebuild_index();
        if let Some(pair) = table.index.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(format!("arm {} is listed twice", pair[0].0 .0));
        }
        if let Some((position, lw)) = table
            .log_weights
            .iter()
            .enumerate()
            .find(|(_, lw)| !lw.is_finite())
        {
            return Err(format!("`log_weights` holds {lw} at position {position}"));
        }
        if k > 0 && !table.max_log_weight.is_finite() {
            return Err(format!("`max_log_weight` is {}", table.max_log_weight));
        }
        if k > 0 && !(table.exp_sum.is_finite() && table.exp_sum > 0.0) {
            return Err(format!(
                "`exp_sum` is {}, not finite and positive",
                table.exp_sum
            ));
        }
        table.rebuild_exp_weights();
        if let Some((position, e)) = table
            .exp_weights
            .iter()
            .enumerate()
            .find(|(_, e)| !e.is_finite())
        {
            return Err(format!(
                "`log_weights` at position {position} exponentiates to {e} \
                 against `max_log_weight` {}",
                table.max_log_weight
            ));
        }
        let sum: f64 = table.exp_weights.iter().sum();
        if !(sum.is_finite() && (table.exp_sum - sum).abs() <= EXP_SUM_TOLERANCE * sum) {
            return Err(format!(
                "`exp_sum` is {}, but the exponentials sum to {sum}",
                table.exp_sum
            ));
        }
        let mut seen = vec![false; k];
        for &(position, frozen) in &table.dirty {
            if position >= k {
                return Err(format!("`dirty` names position {position} of {k}"));
            }
            if std::mem::replace(&mut seen[position], true) {
                return Err(format!("`dirty` names position {position} twice"));
            }
            if !frozen.is_finite() {
                return Err(format!("`dirty` freezes position {position} at {frozen}"));
            }
        }
        if table.strategy == SamplerStrategy::Linear && !table.dirty.is_empty() {
            return Err("a linear table holds dirty arms".to_string());
        }
        let mut frozen_masses = table.exp_weights.clone();
        for &(position, frozen) in &table.dirty {
            frozen_masses[position] = frozen;
        }
        table.freeze_alias(&frozen_masses);
        let fresh: f64 = table
            .dirty
            .iter()
            .map(|&(position, frozen)| table.exp_weights[position] - frozen)
            .sum();
        let total = table.alias_total + table.dirty_mass;
        if !(table.dirty_mass.is_finite()
            && (table.dirty_mass - fresh).abs() <= EXP_SUM_TOLERANCE * total)
        {
            return Err(format!(
                "`dirty_mass` is {}, but the dirty arms carry {fresh} fresh mass",
                table.dirty_mass
            ));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arms(k: u32) -> Vec<NetworkId> {
        (0..k).map(NetworkId).collect()
    }

    /// From-scratch reference distribution, bypassing the cache entirely.
    fn naive_probabilities(table: &WeightTable, gamma: f64) -> Vec<f64> {
        let k = table.len();
        let lws: Vec<f64> = table
            .arms()
            .iter()
            .map(|&a| table.log_weight(a).unwrap())
            .collect();
        let max = lws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = lws.iter().map(|&lw| (lw - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter()
            .map(|e| (1.0 - gamma) * e / sum + gamma / k as f64)
            .collect()
    }

    #[test]
    fn uniform_table_gives_uniform_probabilities() {
        let table = WeightTable::uniform(&arms(4));
        let probs = table.probabilities(0.1);
        for p in probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn top_probabilities_match_a_full_listing_scan() {
        let mut rng = StdRng::seed_from_u64(71);
        for strategy in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
            let mut table = WeightTable::uniform_with_strategy(&arms(17), strategy);
            let gamma = 0.07;
            for round in 0..200 {
                let arm = NetworkId(round % 17);
                table.multiplicative_update(arm, gamma, ((round % 13) as f64).mul_add(0.17, 0.4));
                let pairs: Vec<(NetworkId, f64)> = table
                    .arms()
                    .iter()
                    .copied()
                    .zip(table.probabilities(gamma))
                    .collect();
                // The engine's historical idiom: scan the full listing, last
                // maximal element wins ties.
                let expected_top = pairs.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1));
                assert_eq!(table.top_choice(gamma), expected_top);
                let _ = table.sample(gamma, &mut rng);
            }
        }
    }

    #[test]
    fn top_probabilities_tie_towards_the_later_arm() {
        // A fresh table is exactly uniform: every arm ties, so the top
        // choice must be the *last* arm (engine `max_by` semantics).
        let table = WeightTable::uniform(&arms(5));
        assert_eq!(
            table.top_choice(0.1).map(|(arm, _)| arm),
            Some(NetworkId(4))
        );
    }

    #[test]
    fn duplicate_arms_are_collapsed() {
        let table = WeightTable::uniform(&[NetworkId(1), NetworkId(0), NetworkId(1)]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.arms(), &[NetworkId(1), NetworkId(0)]);
        assert_eq!(table.position(NetworkId(1)), Some(0));
        assert_eq!(table.position(NetworkId(0)), Some(1));
    }

    #[test]
    fn probabilities_sum_to_one_after_updates() {
        let mut table = WeightTable::uniform(&arms(3));
        table.multiplicative_update(NetworkId(1), 0.3, 5.0);
        table.multiplicative_update(NetworkId(2), 0.3, 1.0);
        let probs = table.probabilities(0.2);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rewarded_arm_gains_probability() {
        let mut table = WeightTable::uniform(&arms(3));
        for _ in 0..20 {
            table.multiplicative_update(NetworkId(2), 0.2, 2.0);
        }
        let probs = table.probabilities(0.1);
        assert!(probs[2] > probs[0]);
        assert!(probs[2] > probs[1]);
    }

    #[test]
    fn gamma_one_forces_uniform_exploration() {
        let mut table = WeightTable::uniform(&arms(5));
        table.multiplicative_update(NetworkId(0), 0.5, 50.0);
        let probs = table.probabilities(1.0);
        for p in probs {
            assert!((p - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn huge_updates_do_not_overflow() {
        let mut table = WeightTable::uniform(&arms(3));
        for _ in 0..10_000 {
            table.multiplicative_update(NetworkId(0), 1.0, 500.0);
        }
        let probs = table.probabilities(0.01);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs[0] > 0.98);
    }

    #[test]
    fn cached_distribution_tracks_the_naive_softmax() {
        let mut table = WeightTable::uniform(&arms(5));
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..5_000 {
            let arm = NetworkId((rng.gen::<u32>()) % 5);
            let gain = rng.gen::<f64>() * 40.0 - 5.0; // includes negative updates
            table.multiplicative_update(arm, 0.3, gain);
            let gamma = rng.gen::<f64>();
            let cached = table.probabilities(gamma);
            let naive = naive_probabilities(&table, gamma);
            for (c, n) in cached.iter().zip(&naive) {
                assert!((c - n).abs() < 1e-12, "step {step}: cached {c} naive {n}");
            }
        }
    }

    #[test]
    fn non_finite_updates_are_rejected() {
        let mut table = WeightTable::uniform(&arms(3));
        table.multiplicative_update(NetworkId(1), 0.5, 4.0);
        let before = table.probabilities(0.1);
        table.multiplicative_update(NetworkId(0), 0.5, f64::NAN);
        table.multiplicative_update(NetworkId(1), 0.5, f64::INFINITY);
        table.multiplicative_update(NetworkId(2), 0.5, f64::NEG_INFINITY);
        assert_eq!(table.probabilities(0.1), before);
        // Sampling still works and never panics.
        let mut rng = StdRng::seed_from_u64(7);
        let (arm, p) = table.sample(0.1, &mut rng);
        assert!(table.arms().contains(&arm));
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn shared_updates_reject_non_finite_and_negative_rates() {
        let mut table = WeightTable::uniform(&arms(3));
        table.multiplicative_update(NetworkId(1), 0.5, 4.0);
        let before = table.probabilities(0.1);
        table.shared_update(NetworkId(0), 0.5, f64::NAN);
        table.shared_update(NetworkId(1), 0.5, f64::INFINITY);
        table.shared_update(NetworkId(2), 0.5, f64::NEG_INFINITY);
        table.shared_update(NetworkId(0), 0.5, -0.4);
        assert_eq!(table.probabilities(0.1), before);
        // A valid shared rate behaves exactly like a multiplicative update.
        let mut reference = table.clone();
        table.shared_update(NetworkId(2), 0.3, 0.8);
        reference.multiplicative_update(NetworkId(2), 0.3, 0.8);
        assert_eq!(table.probabilities(0.2), reference.probabilities(0.2));
    }

    #[test]
    fn new_arm_inherits_max_weight() {
        let mut table = WeightTable::uniform(&arms(2));
        table.multiplicative_update(NetworkId(1), 0.5, 10.0);
        let best_lw = table.log_weight(NetworkId(1)).unwrap();
        table.add_arm(NetworkId(7));
        assert_eq!(table.log_weight(NetworkId(7)), Some(best_lw));
    }

    #[test]
    fn remove_arm_shrinks_distribution() {
        let mut table = WeightTable::uniform(&arms(3));
        assert!(table.remove_arm(NetworkId(1)));
        assert!(!table.remove_arm(NetworkId(1)));
        assert_eq!(table.len(), 2);
        let probs = table.probabilities(0.0);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Positions stay consistent after the removal.
        assert_eq!(table.position(NetworkId(0)), Some(0));
        assert_eq!(table.position(NetworkId(2)), Some(1));
        assert_eq!(table.position(NetworkId(1)), None);
    }

    #[test]
    fn probability_of_matches_the_full_listing() {
        let mut table = WeightTable::uniform(&arms(4));
        for step in 0..200 {
            table.multiplicative_update(NetworkId(step % 4), 0.4, (step % 7) as f64);
            let probs = table.probabilities(0.2);
            for (i, &arm) in table.arms().iter().enumerate() {
                assert_eq!(table.probability_of(arm, 0.2), probs[i]);
            }
        }
        assert_eq!(table.probability_of(NetworkId(9), 0.2), 0.0);
    }

    #[test]
    fn most_probable_and_bounds_agree_with_the_listing() {
        let mut table = WeightTable::uniform(&arms(4));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            table.multiplicative_update(
                NetworkId(rng.gen::<u32>() % 4),
                0.3,
                rng.gen::<f64>() * 9.0,
            );
            let probs = table.probabilities(0.15);
            let naive_best =
                probs
                    .iter()
                    .enumerate()
                    .fold(0usize, |b, (i, &p)| if p > probs[b] { i } else { b });
            let (arm, p) = table.most_probable(0.15).unwrap();
            assert_eq!(arm, table.arms()[naive_best]);
            assert_eq!(p, probs[naive_best]);
            let (min_p, max_p) = table.probability_bounds(0.15).unwrap();
            assert_eq!(min_p, probs.iter().cloned().fold(f64::INFINITY, f64::min));
            assert_eq!(
                max_p,
                probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            );
        }
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut table = WeightTable::uniform(&arms(2));
        for _ in 0..50 {
            table.multiplicative_update(NetworkId(1), 0.3, 3.0);
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut hits = 0;
        for _ in 0..2000 {
            let (arm, p) = table.sample(0.1, &mut rng);
            assert!(p > 0.0 && p <= 1.0);
            if arm == NetworkId(1) {
                hits += 1;
            }
        }
        assert!(hits > 1600, "expected heavy bias towards arm 1, got {hits}");
    }

    /// Per-arm probabilities the alias decode actually samples: mass decoded
    /// from the Vose columns (each column holds `alias_total / k`, split by
    /// its coin threshold) plus each dirty arm's fresh delta over its frozen
    /// mass, mixed with the γ/k uniform share — the ground truth for what
    /// `invert_alias` draws, reconstructed without inverting anything.
    fn alias_decoded_probabilities(table: &WeightTable, gamma: f64) -> Vec<f64> {
        let k = table.len();
        let column_mass = table.alias_total / k as f64;
        let mut mass = vec![0.0f64; k];
        for c in 0..k {
            mass[c] += column_mass * table.alias_prob[c];
            mass[table.alias_idx[c]] += column_mass * (1.0 - table.alias_prob[c]);
        }
        for &(j, frozen) in &table.dirty {
            mass[j] += table.exp_weights[j] - frozen;
        }
        let total = table.alias_total + table.dirty_mass;
        mass.into_iter()
            .map(|m| (1.0 - gamma) * m / total + gamma / k as f64)
            .collect()
    }

    /// Property test for the alias path: an alias-strategy table driven
    /// through random updates, arm churn, resets and **sleep phases**
    /// (draw-only stretches, the static-weight regime the strategy exists
    /// for) must keep both its cached distribution *and* the distribution
    /// its decode actually samples within 1e-12 of the from-scratch softmax
    /// after every operation.
    #[test]
    fn alias_distribution_tracks_the_naive_softmax_under_churn() {
        let mut table = WeightTable::uniform_with_strategy(&arms(12), SamplerStrategy::Alias);
        let mut rng = StdRng::seed_from_u64(314);
        let mut next_arm = 12u32;
        for step in 0..4_000 {
            match rng.gen::<u32>() % 20 {
                0 => {
                    table.add_arm(NetworkId(next_arm));
                    next_arm += 1;
                }
                1 if table.len() > 2 => {
                    let victim = table.arms()[rng.gen::<usize>() % table.len()];
                    assert!(table.remove_arm(victim));
                }
                2 if step % 500 == 2 => table.reset_uniform(),
                3 => {
                    // Sleep: frozen weights, sampling only. The overlay and
                    // table must be untouched by draws.
                    let before = table.probabilities(0.3);
                    for _ in 0..25 {
                        let (arm, p) = table.sample(0.3, &mut rng);
                        assert!(table.arms().contains(&arm));
                        assert!(p.is_finite() && p > 0.0);
                    }
                    assert_eq!(table.probabilities(0.3), before);
                }
                _ => {
                    let arm = table.arms()[rng.gen::<usize>() % table.len()];
                    let gain = rng.gen::<f64>() * 40.0 - 5.0;
                    table.multiplicative_update(arm, 0.3, gain);
                }
            }
            let gamma = rng.gen::<f64>();
            let cached = table.probabilities(gamma);
            let naive = naive_probabilities(&table, gamma);
            let decoded = alias_decoded_probabilities(&table, gamma);
            for ((c, n), d) in cached.iter().zip(&naive).zip(&decoded) {
                assert!((c - n).abs() < 1e-12, "step {step}: cached {c} naive {n}");
                assert!((d - n).abs() < 1e-12, "step {step}: decoded {d} naive {n}");
            }
        }
        assert!(
            table.sampler_rebuilds() > 0,
            "churn must have re-frozen the table"
        );
    }

    /// Single-draw inversion fuzz for the alias decode: at every target the
    /// chosen arm must be valid and carry its exact cached probability
    /// (checked against an update-for-update linear twin), the seam targets
    /// between the uniform head, the dirty overlay and the frozen table must
    /// resolve without panicking, and a full grid inversion must map
    /// Lebesgue measure back to the distribution.
    #[test]
    fn alias_inversion_is_sound_decision_for_decision() {
        for k in [2u32, 64, 1024] {
            let mut linear = WeightTable::uniform_with_strategy(&arms(k), SamplerStrategy::Linear);
            let mut alias = WeightTable::uniform_with_strategy(&arms(k), SamplerStrategy::Alias);
            let mut rng = StdRng::seed_from_u64(2_000 + u64::from(k));
            for step in 0..1_500 {
                let target = rng.gen::<f64>();
                let gamma = 0.05 + 0.9 * rng.gen::<f64>();
                // The alias decode spends the draw's bits differently from
                // the linear walk, so the *arm* may differ at equal targets;
                // what must hold decision-for-decision is that the arm is
                // real and its reported probability is the distribution's.
                let (arm, p) = alias.sample_at(gamma, target);
                assert!(alias.arms().contains(&arm), "K={k} step {step}");
                let p_twin = linear.probability_of(arm, gamma);
                assert!(
                    (p - p_twin).abs() < 1e-12,
                    "K={k} step {step}: alias {p} vs twin {p_twin}"
                );
                let gain = rng.gen::<f64>() / p.max(1e-6);
                linear.multiplicative_update(arm, gamma, gain);
                alias.multiplicative_update(arm, gamma, gain);
            }
            // The linear twin's boundary targets: 0 must land on the first
            // arm's mass, and targets at (or past) 1.0 must clamp into the
            // last arm rather than walk off the table.
            let first = linear.arms()[0];
            let last = linear.arms()[linear.len() - 1];
            assert_eq!(linear.sample_at(0.2, 0.0).0, first, "K={k} target 0");
            for target in [1.0 - 1e-15, 1.0] {
                assert_eq!(
                    linear.sample_at(0.2, target).0,
                    last,
                    "K={k} target {target}: boundary drifted"
                );
            }
            // Force a live overlay, then probe the decode's seams: 0, the
            // uniform/softmax boundary γ, the overlay/table split, and the
            // top of the range (which must clamp, never walk off).
            linear.reset_uniform();
            alias.reset_uniform();
            let gamma = 0.2;
            for arm in [0u32, 1] {
                linear.multiplicative_update(NetworkId(arm), gamma, 0.6);
                alias.multiplicative_update(NetworkId(arm), gamma, 0.6);
            }
            assert!(!alias.dirty.is_empty(), "K={k}: overlay should be live");
            let total = alias.alias_total + alias.dirty_mass;
            let split = (1.0 - gamma).mul_add(alias.dirty_mass / total, gamma);
            for target in [
                0.0,
                gamma - 1e-12,
                gamma,
                split - 1e-12,
                split,
                split + 1e-12,
                1.0 - 1e-15,
                1.0,
            ] {
                let (arm, p) = alias.sample_at(gamma, target);
                assert!(alias.arms().contains(&arm), "K={k} target {target}");
                let p_twin = linear.probability_of(arm, gamma);
                assert!(
                    (p - p_twin).abs() < 1e-12,
                    "K={k} target {target}: {p} vs {p_twin}"
                );
            }
            // Grid inversion: each decode segment misattributes at most one
            // cell, and there are ≤ k uniform-head slots, ≤ 2k Vose column
            // halves and ≤ |dirty| overlay slices — so total variation is
            // bounded by (3k + |dirty| + 4) / n.
            let n = 1usize << 16;
            let mut counts = vec![0usize; k as usize];
            for i in 0..n {
                let t = (i as f64 + 0.5) / n as f64;
                let (arm, _) = alias.sample_at(gamma, t);
                counts[alias.position(arm).unwrap()] += 1;
            }
            let probs = alias.probabilities(gamma);
            let tv = counts
                .iter()
                .zip(&probs)
                .map(|(&c, &p)| (c as f64 / n as f64 - p).abs())
                .sum::<f64>()
                / 2.0;
            let bound = (3 * k as usize + alias.dirty.len() + 4) as f64 / n as f64;
            assert!(tv <= bound + 1e-9, "K={k}: TV {tv} exceeds {bound}");
        }
    }

    /// Draws through the overlay are counted; rebuilds re-freeze and clear
    /// it. The counters are the observability contract `PolicyStats`
    /// surfaces, so their mechanics are pinned here.
    #[test]
    fn alias_overlay_counts_hits_and_rebuilds() {
        let mut table = WeightTable::uniform_with_strategy(&arms(8), SamplerStrategy::Alias);
        let built_at_start = table.sampler_rebuilds();
        assert_eq!(built_at_start, 1, "construction freezes the first table");
        // A small positive update patches the overlay instead of rebuilding.
        table.multiplicative_update(NetworkId(3), 0.2, 0.4);
        assert_eq!(table.sampler_rebuilds(), built_at_start);
        // The arm's frozen mass is its uniform exponential, exp(0).
        assert_eq!(table.dirty, vec![(3, 1.0)]);
        assert!(table.dirty_mass > 0.0);
        // Sampling inside the overlay slice counts a hit: aim just past the
        // uniform head, inside the fresh fraction.
        let gamma = 0.1f64;
        let total = table.alias_total + table.dirty_mass;
        let inside = (1.0 - gamma).mul_add(0.5 * table.dirty_mass / total, gamma);
        let hits_before = table.overlay_hits();
        let (i, overlay) = table.invert_at(gamma, inside);
        assert!(overlay, "target {inside} should resolve via the overlay");
        assert_eq!(
            table.arms()[i],
            NetworkId(3),
            "the only dirty arm owns the slice"
        );
        assert_eq!(table.overlay_hits(), hits_before, "sample_at never counts");
        // Repeated growth of one arm crosses DIRTY_MASS_FRACTION and forces
        // a re-freeze, clearing the overlay.
        for _ in 0..200 {
            table.multiplicative_update(NetworkId(3), 0.2, 1.0);
        }
        assert!(table.sampler_rebuilds() > built_at_start);
        // A negative update can never live in the overlay: it rebuilds.
        let rebuilds = table.sampler_rebuilds();
        table.multiplicative_update(NetworkId(1), 0.2, -2.0);
        assert_eq!(table.sampler_rebuilds(), rebuilds + 1);
        assert!(table.dirty.is_empty());
        assert_eq!(table.dirty_mass, 0.0);
    }

    /// Linear tables never touch the alias machinery: counters stay zero and
    /// the alias vectors stay empty through heavy churn.
    #[test]
    fn linear_strategy_keeps_alias_state_empty() {
        let mut table = WeightTable::uniform(&arms(6));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..300 {
            let arm = table.arms()[rng.gen::<usize>() % table.len()];
            table.multiplicative_update(arm, 0.3, rng.gen::<f64>() * 30.0);
            let _ = table.sample(0.3, &mut rng);
        }
        assert_eq!(table.sampler_rebuilds(), 0);
        assert_eq!(table.overlay_hits(), 0);
        assert!(table.alias_prob.is_empty() && table.alias_idx.is_empty());
        assert!(table.dirty.is_empty());
    }

    /// `top_choice` edge cases: a single-arm table, a weighted table and
    /// the all-equal tie contract (the last arm).
    #[test]
    fn top_probabilities_edge_cases() {
        // K = 1: the lone arm carries the entire distribution, for any γ.
        let single = WeightTable::uniform(&arms(1));
        let (arm, p) = single.top_choice(0.3).unwrap();
        assert_eq!(arm, NetworkId(0));
        assert!((p - 1.0).abs() < 1e-12);
        let mut weighted = WeightTable::uniform(&arms(6));
        weighted.multiplicative_update(NetworkId(2), 0.3, 8.0);
        assert_eq!(
            weighted.top_choice(0.1).map(|(arm, _)| arm),
            Some(NetworkId(2))
        );
        // All-equal weights tie towards the later-inserted arm.
        let uniform = WeightTable::uniform(&arms(4));
        assert_eq!(
            uniform.top_choice(0.2).map(|(arm, _)| arm),
            Some(NetworkId(3))
        );
    }

    /// Non-finite estimated gains must be rejected on the alias path exactly
    /// as on the linear path: distribution untouched, overlay untouched,
    /// sampling still sound.
    #[test]
    fn alias_path_rejects_non_finite_gains() {
        let mut table = WeightTable::uniform_with_strategy(&arms(6), SamplerStrategy::Alias);
        table.multiplicative_update(NetworkId(3), 0.4, 5.0);
        let before = table.probabilities(0.1);
        let dirty_before = table.dirty.clone();
        table.multiplicative_update(NetworkId(0), 0.4, f64::NAN);
        table.multiplicative_update(NetworkId(1), 0.4, f64::INFINITY);
        table.multiplicative_update(NetworkId(2), 0.4, f64::NEG_INFINITY);
        assert_eq!(table.probabilities(0.1), before);
        assert_eq!(table.dirty, dirty_before);
        let mut rng = StdRng::seed_from_u64(9);
        let (arm, p) = table.sample(0.1, &mut rng);
        assert!(table.arms().contains(&arm));
        assert!(p.is_finite() && p > 0.0);
    }

    /// The position forms are the arm forms without the lookup: over random
    /// tables under both strategies with add/remove/reset churn, an update
    /// by position leaves the table equal to a twin updated by arm, and a
    /// drawn position names the arm, probability and overlay count `sample`
    /// draws from the same RNG state.
    #[test]
    fn position_forms_match_the_arm_forms() {
        for strategy in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
            let mut by_position = WeightTable::uniform_with_strategy(&arms(10), strategy);
            let mut by_arm = by_position.clone();
            let mut rng = StdRng::seed_from_u64(77);
            let mut next_arm = 10u32;
            for step in 0..3_000 {
                match rng.gen::<u32>() % 16 {
                    0 => {
                        by_position.add_arm(NetworkId(next_arm));
                        by_arm.add_arm(NetworkId(next_arm));
                        next_arm += 1;
                    }
                    1 if by_arm.len() > 2 => {
                        let victim = by_arm.arms()[rng.gen::<usize>() % by_arm.len()];
                        by_position.remove_arm(victim);
                        by_arm.remove_arm(victim);
                    }
                    2 if step % 400 == 2 => {
                        by_position.reset_uniform();
                        by_arm.reset_uniform();
                    }
                    _ => {
                        let arm = by_arm.arms()[rng.gen::<usize>() % by_arm.len()];
                        let gamma = 0.05 + 0.9 * rng.gen::<f64>();
                        let gain = rng.gen::<f64>() * 40.0 - 5.0;
                        let position = by_position.position(arm).unwrap();
                        by_position.multiplicative_update_at(position, gamma, gain);
                        by_arm.multiplicative_update(arm, gamma, gain);
                    }
                }
                assert_eq!(by_position, by_arm, "{strategy:?} step {step}: update");
                let gamma = rng.gen::<f64>();
                let seed = rng.gen::<u64>();
                let (i, p) = by_position.sample_position(gamma, &mut StdRng::seed_from_u64(seed));
                let (arm, q) = by_arm.sample(gamma, &mut StdRng::seed_from_u64(seed));
                assert_eq!(by_position.arms()[i], arm, "{strategy:?} step {step}: draw");
                assert_eq!(p.to_bits(), q.to_bits(), "{strategy:?} step {step}: draw");
                assert_eq!(
                    by_position, by_arm,
                    "{strategy:?} step {step}: overlay count"
                );
            }
            // Out-of-range positions and non-finite gains change nothing.
            let before = by_position.clone();
            by_position.multiplicative_update_at(before.len(), 0.3, 2.0);
            by_position.multiplicative_update_at(0, 0.3, f64::NAN);
            by_position.multiplicative_update_at(0, 0.3, f64::INFINITY);
            assert_eq!(by_position, before);
        }
    }

    /// The text of `table`, with `edit` applied to a copy first.
    fn edited_text(table: &WeightTable, edit: impl FnOnce(&mut WeightTable)) -> String {
        let mut edited = table.clone();
        edit(&mut edited);
        serde_json::to_string(&edited).unwrap()
    }

    /// Tables built by the program read back equal to the table written, an
    /// empty one with its `-inf` maximum included, and each canonical field
    /// that breaks a condition draws and updates rely on is refused by name.
    #[test]
    fn reader_names_each_broken_field() {
        let mut table = WeightTable::uniform_with_strategy(&arms(4), SamplerStrategy::Alias);
        table.multiplicative_update(NetworkId(2), 0.2, 0.5);
        assert!(!table.dirty.is_empty());
        let linear = WeightTable::uniform(&arms(3));
        let empty = WeightTable::uniform(&[]);
        assert_eq!(empty.max_log_weight, f64::NEG_INFINITY);
        for written in [&table, &linear, &empty] {
            let text = serde_json::to_string(written).unwrap();
            assert_eq!(
                &serde_json::from_str::<WeightTable>(&text).unwrap(),
                written
            );
        }
        type Break = fn(&mut WeightTable);
        let breaks: [(&str, Break); 13] = [
            ("log_weights", |t| {
                t.log_weights.pop();
            }),
            ("listed twice", |t| t.arms[1] = t.arms[0]),
            ("log_weights", |t| t.log_weights[1] = f64::NAN),
            ("max_log_weight", |t| t.max_log_weight = f64::NEG_INFINITY),
            ("exponentiates to inf", |t| t.max_log_weight = -800.0),
            ("exp_sum", |t| t.exp_sum = 0.0),
            ("exp_sum", |t| t.exp_sum *= 1.0 + 1e-6),
            ("`dirty` names position 4", |t| t.dirty.push((4, 1.0))),
            ("twice", |t| t.dirty.push(t.dirty[0])),
            ("freezes position 2 at NaN", |t| t.dirty[0].1 = f64::NAN),
            ("dirty_mass", |t| t.dirty_mass = f64::INFINITY),
            ("dirty_mass", |t| t.dirty_mass *= 1.0 + 1e-6),
            ("linear table holds dirty arms", |t| {
                t.strategy = SamplerStrategy::Linear;
            }),
        ];
        for (name, break_table) in breaks {
            let text = edited_text(&table, break_table);
            let error = serde_json::from_str::<WeightTable>(&text)
                .unwrap_err()
                .to_string();
            assert!(error.contains(name), "{name}: {error}");
        }
    }

    /// An overlay mass that disagrees with the dirty arms is refused. Such a
    /// table used to restore and then draw far from the probabilities it
    /// stated: with its 16-arm alias table's `dirty_mass` multiplied by
    /// 1000, 200k stratified draws gave arm 0 a share of 0.024 where it
    /// states 0.063.
    #[test]
    fn reader_rejects_an_overlay_mass_that_disagrees_with_the_dirty_arms() {
        let mut table = WeightTable::uniform_with_strategy(&arms(16), SamplerStrategy::Alias);
        for arm in [0, 1, 2, 0, 1, 2, 0] {
            table.multiplicative_update(NetworkId(arm), 0.1, 0.5);
        }
        assert_eq!(table.dirty.len(), 3);
        assert_eq!(
            table.sampler_rebuilds(),
            1,
            "every update patched the overlay"
        );
        let text = serde_json::to_string(&table).unwrap();
        assert_eq!(serde_json::from_str::<WeightTable>(&text).unwrap(), table);
        let inflated = text.replace(
            &format!("\"dirty_mass\":{:?}", table.dirty_mass),
            &format!("\"dirty_mass\":{:?}", table.dirty_mass * 1000.0),
        );
        assert_ne!(inflated, text);
        let error = serde_json::from_str::<WeightTable>(&inflated).unwrap_err();
        assert!(error.to_string().contains("dirty_mass"), "{error}");
    }

    /// A table read from text samples from exponentials rebuilt from its
    /// log-weights, never from a stale written cache: an edit of a
    /// log-weight or of the shift reference that moves the exponentials'
    /// sum away from `exp_sum` is refused, and an edit inside the tolerance
    /// restores with the probabilities of a from-scratch softmax. (A
    /// `log_weights[5]` edited from 0.0 to 3.0 used to restore stating
    /// p[5] = 0.062 while its log-weights imply 0.521.)
    #[test]
    fn restored_tables_never_sample_from_stale_caches() {
        let gamma = 0.1;
        for strategy in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
            let mut table = WeightTable::uniform_with_strategy(&arms(16), strategy);
            for arm in [0, 3, 9, 3] {
                table.multiplicative_update(NetworkId(arm), gamma, 0.4);
            }
            assert_eq!(table.log_weights[5], 0.0);
            let max = table.max_log_weight;
            type Edit = Box<dyn Fn(&mut WeightTable)>;
            let refused: [Edit; 2] = [
                Box::new(|t| t.log_weights[5] = 3.0),
                Box::new(move |t| t.max_log_weight = max + 2.0),
            ];
            for (case, edit) in refused.into_iter().enumerate() {
                let text = edited_text(&table, edit);
                let error = serde_json::from_str::<WeightTable>(&text).unwrap_err();
                assert!(
                    error.to_string().contains("exp_sum"),
                    "{strategy:?} case {case}: {error}"
                );
            }
            let tolerated: [Edit; 2] = [
                Box::new(|t| t.log_weights[5] = 1e-13),
                Box::new(move |t| t.max_log_weight = max + 1e-13),
            ];
            for (case, edit) in tolerated.into_iter().enumerate() {
                let text = edited_text(&table, edit);
                let restored: WeightTable = serde_json::from_str(&text).unwrap();
                let naive = naive_probabilities(&restored, gamma);
                for (p, n) in restored.probabilities(gamma).iter().zip(&naive) {
                    assert!(
                        (p - n).abs() < 1e-12,
                        "{strategy:?} case {case}: {p} vs {n}"
                    );
                }
            }
        }
    }
}
