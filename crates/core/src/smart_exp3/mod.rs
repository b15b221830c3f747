//! Smart EXP3 (Algorithm 1 of the paper, plus the §V implementation details).
//!
//! Smart EXP3 keeps the exponential-weight core of EXP3 but wraps it in four
//! practical mechanisms:
//!
//! * **Adaptive blocking** — a network is kept for a whole block of
//!   `⌈(1+β)^x⌉` slots, bounding switching (Theorem 2);
//! * **Initial exploration + greedy choices** — every network is visited once
//!   at start-up, and while the probability distribution is still close to
//!   uniform the device flips a fair coin and, on heads, deterministically
//!   picks the network with the best observed average gain;
//! * **Switch-back** — if the first slot of a block is disappointing compared
//!   to (the tail of) the previous block, the device returns to its previous
//!   network at the next slot;
//! * **Minimal reset** — periodically, and on a sustained quality drop of the
//!   most-used network, block lengths and greedy statistics are cleared and
//!   exploration is forced again, while the learned weights are kept.
//!
//! The same implementation also serves the paper's ablation variants
//! ([`BlockExp3`](crate::BlockExp3), [`HybridBlockExp3`](crate::HybridBlockExp3),
//! Smart EXP3 w/o Reset) through [`SmartExp3Features`].

mod config;

pub use config::{SmartExp3Config, SmartExp3Features};

use crate::block::{block_length, BlockState};
use crate::error::check_networks;
use crate::policy::{Observation, Policy, PolicyStats, SelectionKind};
use crate::{ConfigError, NetworkId, NetworkStats, SlotIndex, WeightTable};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The Smart EXP3 policy (and, depending on [`SmartExp3Features`], its
/// ablation variants).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmartExp3 {
    config: SmartExp3Config,
    available: Vec<NetworkId>,
    weights: WeightTable,
    stats_table: NetworkStats,

    /// Global block counter `b` (never reset; drives the γ schedule).
    block_index: usize,
    current_gamma: f64,

    /// Networks still to be visited by the (initial or post-reset) exploration
    /// phase.
    explore_queue: Vec<NetworkId>,
    explore_shuffled: bool,

    current_block: Option<BlockState>,
    previous_block: Option<BlockState>,
    /// Set when the switch-back rule fired; consumed by the next decision.
    pending_switch_back: Option<NetworkId>,
    /// `true` while a new decision is required before the next slot.
    needs_decision: bool,

    /// Network used in the most recent slot (for switch counting).
    last_network: Option<NetworkId>,
    /// Block length of the most probable network when the greedy condition
    /// `max(p) − min(p) ≤ 1/(k−1)` first became false (the `y` of §V).
    greedy_cutoff: Option<u64>,
    /// Consecutive slots with a ≥ `reset_drop_fraction` decline on the
    /// most-used network.
    drop_streak: u32,

    /// Memoised `⌈(1+β)^x⌉` block lengths indexed by `x` (0 = not yet
    /// computed): β is fixed per policy and every fresh decision consults the
    /// formula up to three times (reset condition, greedy condition, final
    /// block length), so the `powf` is paid once per distinct `x` instead of
    /// per decision. Serialized so a restored policy stays byte-identical.
    block_length_memo: Vec<u64>,
    /// Recycled backing storage for [`BlockState::slot_gains`]: the gain log
    /// of a finished block's predecessor is cleared and reused by the next
    /// block, so steady-state block turnover performs no allocation.
    gain_log_pool: Vec<f64>,

    last_kind: SelectionKind,
    stats: PolicyStats,
}

impl SmartExp3 {
    /// Creates a Smart EXP3 policy over `networks`.
    ///
    /// # Errors
    ///
    /// Returns an error if `networks` is empty or contains duplicates, or if
    /// `config` fails validation.
    pub fn new(networks: Vec<NetworkId>, config: SmartExp3Config) -> Result<Self, ConfigError> {
        check_networks(&networks)?;
        config.validate()?;
        let explore_queue = if config.features.initial_exploration {
            networks.clone()
        } else {
            Vec::new()
        };
        Ok(SmartExp3 {
            weights: WeightTable::uniform_with_strategy(&networks, config.sampler),
            stats_table: NetworkStats::new(),
            block_index: 0,
            current_gamma: config.gamma.value(1),
            explore_queue,
            explore_shuffled: false,
            current_block: None,
            previous_block: None,
            pending_switch_back: None,
            needs_decision: true,
            last_network: None,
            greedy_cutoff: None,
            drop_streak: 0,
            block_length_memo: Vec::new(),
            gain_log_pool: Vec::new(),
            last_kind: SelectionKind::Exploration,
            stats: PolicyStats::default(),
            available: networks,
            config,
        })
    }

    /// Convenience constructor for the full Smart EXP3 with paper defaults.
    ///
    /// # Errors
    ///
    /// See [`SmartExp3::new`].
    pub fn with_defaults(networks: Vec<NetworkId>) -> Result<Self, ConfigError> {
        Self::new(networks, SmartExp3Config::default())
    }

    /// The configuration this policy was built with.
    #[must_use]
    pub fn config(&self) -> &SmartExp3Config {
        &self.config
    }

    /// The γ used for the current block.
    #[must_use]
    pub fn current_gamma(&self) -> f64 {
        self.current_gamma
    }

    /// Number of blocks started so far.
    #[must_use]
    pub fn block_index(&self) -> usize {
        self.block_index
    }

    /// Length (in slots) of the block currently being executed, if any.
    #[must_use]
    pub fn current_block_length(&self) -> Option<u64> {
        self.current_block.as_ref().map(|b| b.length)
    }

    // ------------------------------------------------------------------
    // Decision making
    // ------------------------------------------------------------------

    fn block_length_for(&mut self, network: NetworkId) -> u64 {
        let x = self.stats_table.blocks(network);
        let len = self.memoized_block_length(x);
        match self.config.max_block_length {
            Some(cap) => len.min(cap.max(1)),
            None => len,
        }
    }

    /// `⌈(1+β)^x⌉` through the memo (exact: the memo stores the very value
    /// [`block_length`] computes). Degenerate `x` beyond the memo range —
    /// unreachable through real block counts — falls back to the direct
    /// computation.
    fn memoized_block_length(&mut self, x: u64) -> u64 {
        const MEMO_LIMIT: u64 = 4_096;
        if x >= MEMO_LIMIT {
            return block_length(self.config.beta, x);
        }
        let index = x as usize;
        if index >= self.block_length_memo.len() {
            self.block_length_memo.resize(index + 1, 0);
        }
        if self.block_length_memo[index] == 0 {
            self.block_length_memo[index] = block_length(self.config.beta, x);
        }
        self.block_length_memo[index]
    }

    /// §V "Greedy choices": whether the greedy coin flip may be used for the
    /// next decision. Also records `y` the first time condition (a) fails.
    ///
    /// Reads the one-pass distribution digest — no per-decision probability
    /// vector is materialised.
    fn greedy_allowed(&mut self, summary: &crate::DistributionSummary) -> bool {
        let k = self.weights.len();
        if k < 2 {
            return false;
        }
        let near_uniform = summary.max - summary.min <= 1.0 / (k as f64 - 1.0);
        let l_plus = self.block_length_for(summary.most_probable);
        if near_uniform {
            return true;
        }
        if self.greedy_cutoff.is_none() {
            // Condition (a) just evaluated to false for the first time.
            self.greedy_cutoff = Some(l_plus);
        }
        match self.greedy_cutoff {
            Some(y) => l_plus < y,
            None => false,
        }
    }

    /// Periodic-reset condition of §V: the most probable network has both a
    /// sufficiently high probability and a long next block.
    fn periodic_reset_due(&mut self, summary: &crate::DistributionSummary) -> bool {
        if !self.config.features.reset {
            return false;
        }
        summary.max >= self.config.reset_probability_threshold
            && self.block_length_for(summary.most_probable)
                >= self.config.reset_block_length_threshold
    }

    fn do_reset(&mut self) {
        self.stats.resets += 1;
        self.stats_table.clear();
        self.explore_queue = self.available.clone();
        self.explore_shuffled = false;
        self.previous_block = None;
        self.pending_switch_back = None;
        self.drop_streak = 0;
        // Weights, the block counter and γ are deliberately kept: the reset is
        // minimal so the device "adapts without forsaking everything it has
        // learned".
    }

    fn start_new_block(&mut self, rng: &mut dyn RngCore) -> NetworkId {
        self.block_index += 1;
        self.current_gamma = self.config.gamma.value(self.block_index);
        // One pass over the cached distribution serves the reset check, the
        // greedy conditions and the greedy fallback below. A minimal reset
        // keeps the weights and γ, so the digest stays valid across it.
        let summary = self.weights.summary(self.current_gamma);

        if self.explore_queue.is_empty() {
            if let Some(summary) = &summary {
                if self.periodic_reset_due(summary) {
                    self.do_reset();
                }
            }
        }

        let (network, probability, kind) = if let Some(previous) = self.pending_switch_back.take() {
            self.stats.switch_backs += 1;
            (previous, 1.0, SelectionKind::SwitchBack)
        } else if !self.explore_queue.is_empty() {
            if !self.explore_shuffled {
                self.explore_queue.shuffle(rng);
                self.explore_shuffled = true;
            }
            let probability = 1.0 / self.explore_queue.len() as f64;
            let network = self
                .explore_queue
                .pop()
                .expect("checked non-empty explore queue");
            self.stats.explorations += 1;
            (network, probability, SelectionKind::Exploration)
        } else {
            let greedy_allowed = self.config.features.greedy
                && summary
                    .as_ref()
                    .is_some_and(|summary| self.greedy_allowed(summary));
            if greedy_allowed && rng.gen_bool(0.5) {
                // Deterministic pick of the empirically best network.
                let network = self
                    .stats_table
                    .best_average()
                    .filter(|n| self.available.contains(n))
                    .unwrap_or_else(|| {
                        summary
                            .as_ref()
                            .expect("non-empty weight table")
                            .most_probable
                    });
                self.stats.greedy_selections += 1;
                (network, 0.5, SelectionKind::Greedy)
            } else {
                let (network, p) = self.weights.sample(self.current_gamma, rng);
                let probability = if greedy_allowed { p / 2.0 } else { p };
                (network, probability, SelectionKind::Random)
            }
        };

        let length = self.block_length_for(network);
        self.stats_table.record_block(network);
        self.stats.blocks += 1;
        if let Some(last) = self.last_network {
            if last != network {
                self.stats.switches += 1;
            }
        }
        self.last_kind = kind;
        let gain_log = std::mem::take(&mut self.gain_log_pool);
        self.current_block = Some(BlockState::with_gain_log(
            network,
            length,
            probability,
            kind,
            gain_log,
        ));
        self.needs_decision = false;
        network
    }

    // ------------------------------------------------------------------
    // Feedback processing
    // ------------------------------------------------------------------

    /// Ends the current block: applies the EXP3 weight update with the
    /// importance-weighted block gain and archives the block for the
    /// switch-back rule.
    fn finish_current_block(&mut self) {
        if let Some(block) = self.current_block.take() {
            let estimated = block.accumulated_gain / block.probability.max(f64::MIN_POSITIVE);
            self.weights
                .multiplicative_update(block.network, self.current_gamma, estimated);
            // The outgoing previous block's gain log becomes the pool buffer
            // for the next block — block turnover allocates nothing.
            if let Some(retired) = self.previous_block.replace(block) {
                self.recycle_gain_log(retired.slot_gains);
            }
        }
        self.needs_decision = true;
    }

    /// Returns a retired gain log to the pool (cleared, capacity kept).
    fn recycle_gain_log(&mut self, mut log: Vec<f64>) {
        log.clear();
        self.gain_log_pool = log;
    }

    /// §V "Switch back": evaluates whether the first slot of the current block
    /// is disappointing enough to return to the previous network.
    fn switch_back_triggered(&self, current_gain: f64) -> Option<NetworkId> {
        if !self.config.features.switch_back {
            return None;
        }
        let current = self.current_block.as_ref()?;
        // Only the very first slot of a block can trigger a switch back, and a
        // switch-back block must not immediately switch back again
        // (ping-pong prevention).
        if current.elapsed != 1 || current.kind == SelectionKind::SwitchBack {
            return None;
        }
        let previous = self.previous_block.as_ref()?;
        if previous.network == current.network {
            return None;
        }
        if !self.available.contains(&previous.network) {
            return None;
        }
        let window = previous.recent_gains(self.config.switch_back_window);
        if window.is_empty() {
            return None;
        }
        let window_average = window.iter().sum::<f64>() / window.len() as f64;
        let last_slot = *window.last().expect("non-empty window");
        let higher_fraction =
            window.iter().filter(|&&g| g > current_gain).count() as f64 / window.len() as f64;
        let worse_than_average = current_gain < window_average;
        let worse_than_last = current_gain < last_slot;
        let majority_higher = higher_fraction > self.config.switch_back_majority;
        if worse_than_average || worse_than_last || majority_higher {
            Some(previous.network)
        } else {
            None
        }
    }

    /// Drop-triggered reset of §V: a sustained ≥15 % decline on the most-used
    /// network while connected to it.
    fn drop_reset_triggered(&mut self, observation: &Observation) -> bool {
        if !self.config.features.reset {
            return false;
        }
        let Some(most_used) = self.stats_table.most_used() else {
            return false;
        };
        if most_used != observation.network {
            self.drop_streak = 0;
            return false;
        }
        let Some(average) = self.stats_table.average_gain(most_used) else {
            return false;
        };
        if average <= 0.0 {
            return false;
        }
        let threshold = average * (1.0 - self.config.reset_drop_fraction);
        if observation.scaled_gain < threshold {
            self.drop_streak += 1;
        } else {
            self.drop_streak = 0;
        }
        self.drop_streak > self.config.reset_drop_slots
    }
}

impl Policy for SmartExp3 {
    fn state(&self) -> Option<crate::PolicyState> {
        Some(crate::PolicyState::SmartExp3(Box::new(self.clone())))
    }

    fn name(&self) -> &'static str {
        match (
            self.config.features.initial_exploration,
            self.config.features.greedy,
            self.config.features.switch_back,
            self.config.features.reset,
        ) {
            (_, _, true, true) => "Smart EXP3",
            (_, _, true, false) => "Smart EXP3 w/o Reset",
            (_, true, false, _) => "Hybrid Block EXP3",
            (false, false, false, false) => "Block EXP3",
            _ => "Smart EXP3 (custom)",
        }
    }

    fn choose(&mut self, _slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId {
        match &self.current_block {
            Some(block) if !self.needs_decision => {
                let network = block.network;
                self.last_kind = SelectionKind::Continuation;
                network
            }
            _ => self.start_new_block(rng),
        }
    }

    fn observe(&mut self, observation: &Observation, _rng: &mut dyn RngCore) {
        let Some(block) = self.current_block.as_mut() else {
            return;
        };
        if block.network != observation.network {
            // Feedback that does not correspond to the running block (can only
            // happen if the environment overrode the choice); ignore it.
            return;
        }
        // Only the trailing switch-back window of a block's gain log is ever
        // consulted, so recording is bounded: block memory stays constant even
        // as block lengths grow geometrically.
        block.record_slot_bounded(observation.scaled_gain, self.config.switch_back_window);
        self.stats_table
            .record_slot(observation.network, observation.scaled_gain);
        self.last_network = Some(observation.network);

        // Drop-triggered reset has priority: it ends the block and forces a
        // fresh exploration.
        if self.drop_reset_triggered(observation) {
            self.finish_current_block();
            self.do_reset();
            return;
        }

        if let Some(previous) = self.switch_back_triggered(observation.scaled_gain) {
            self.finish_current_block();
            self.pending_switch_back = Some(previous);
            return;
        }

        if self
            .current_block
            .as_ref()
            .map(BlockState::is_finished)
            .unwrap_or(false)
        {
            self.finish_current_block();
        }
    }

    fn observe_shared(&mut self, shared: &crate::SharedFeedback, _rng: &mut dyn RngCore) {
        // Co-Bandit folding, as in [`Exp3`](crate::Exp3): gossiped digests
        // nudge the weight table directly (confidence-scaled mean gain, no
        // importance weighting), while the block machinery — own-block gain
        // log, greedy statistics, switch-back windows — stays fed exclusively
        // by the device's own observations, so every blocking guarantee of
        // the paper is untouched. The shared_update guard drops corrupt
        // reports (non-finite or negative rates).
        for rate in shared.rates() {
            self.weights.shared_update(
                rate.network,
                self.current_gamma,
                rate.confidence() * rate.mean_gain(),
            );
        }
        self.stats.shared_observations += shared.len() as u64;
    }

    fn on_networks_changed(&mut self, available: &[NetworkId], _rng: &mut dyn RngCore) {
        let newly_discovered: Vec<NetworkId> = available
            .iter()
            .copied()
            .filter(|n| !self.available.contains(n))
            .collect();
        let removed: Vec<NetworkId> = self
            .available
            .iter()
            .copied()
            .filter(|n| !available.contains(n))
            .collect();

        // A vanished network that was very likely to be selected warrants a
        // reset (§III "Change in set of networks").
        let removed_high_probability = removed.iter().any(|&n| {
            self.weights.probability_of(n, self.current_gamma)
                >= self.config.reset_probability_threshold
        });

        for &n in &newly_discovered {
            self.weights.add_arm(n);
        }
        for &n in &removed {
            self.weights.remove_arm(n);
        }
        self.available = available.to_vec();
        self.stats_table.retain_networks(available);
        self.explore_queue.retain(|n| available.contains(n));
        if let Some(previous) = &self.previous_block {
            if !available.contains(&previous.network) {
                self.previous_block = None;
            }
        }
        if let Some(pending) = self.pending_switch_back {
            if !available.contains(&pending) {
                self.pending_switch_back = None;
            }
        }

        // If the network we are currently connected to is gone, the block is
        // abandoned (no weight update — the arm no longer exists).
        let current_network_gone = self
            .current_block
            .as_ref()
            .map(|b| !available.contains(&b.network))
            .unwrap_or(false);
        if current_network_gone {
            self.current_block = None;
            self.needs_decision = true;
        }

        if self.config.features.reset && (!newly_discovered.is_empty() || removed_high_probability)
        {
            self.do_reset();
            self.needs_decision = true;
        } else if self.config.features.initial_exploration && !newly_discovered.is_empty() {
            // Without the reset mechanism, still queue new networks for a
            // one-block visit so they are not ignored forever.
            self.explore_queue.extend(newly_discovered);
            self.explore_shuffled = false;
        }
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        let probs = self.weights.probabilities(self.current_gamma);
        self.weights.arms().iter().copied().zip(probs).collect()
    }

    fn probabilities_into(&self, out: &mut Vec<(NetworkId, f64)>) {
        self.weights.probability_pairs_into(self.current_gamma, out);
    }

    fn top_probabilities_into(&self, k: usize, out: &mut Vec<(NetworkId, f64)>) {
        self.weights
            .top_probabilities_into(self.current_gamma, k, out);
    }

    fn last_selection_kind(&self) -> SelectionKind {
        self.last_kind
    }

    fn stats(&self) -> PolicyStats {
        // The sampler counters live in the weight table; overlay them at
        // read time (same idiom as `Exp3::stats`).
        let mut stats = self.stats;
        stats.sampler_rebuilds = self.weights.sampler_rebuilds();
        stats.overlay_hits = self.weights.overlay_hits();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::probability_of;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nets(k: u32) -> Vec<NetworkId> {
        (0..k).map(NetworkId).collect()
    }

    /// Drives a policy against a static environment where `best` always gives
    /// `high` and every other network gives `low`.
    fn run_static(
        policy: &mut SmartExp3,
        best: NetworkId,
        high: f64,
        low: f64,
        slots: usize,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..slots {
            let chosen = policy.choose(t, &mut rng);
            let gain = if chosen == best { high } else { low };
            let obs = Observation::bandit(t, chosen, gain * 22.0, gain);
            policy.observe(&obs, &mut rng);
        }
    }

    /// Golden decision pin for the alias-sampler configuration — Smart
    /// EXP3's block structure is exactly the static-weight phase the alias
    /// table amortises over, so this trajectory is the headline config's
    /// contract.
    #[test]
    fn alias_sampler_decisions_are_pinned() {
        let config = SmartExp3Config {
            sampler: crate::SamplerStrategy::Alias,
            ..SmartExp3Config::default()
        };
        let mut policy = SmartExp3::new(nets(8), config).unwrap();
        let mut rng = StdRng::seed_from_u64(2026);
        let mut sequence = Vec::new();
        for slot in 0..24 {
            let chosen = policy.choose(slot, &mut rng);
            let gain = if chosen == NetworkId(5) { 0.9 } else { 0.2 };
            policy.observe(
                &Observation::bandit(slot, chosen, gain * 22.0, gain),
                &mut rng,
            );
            sequence.push(chosen.0);
        }
        assert_eq!(
            sequence,
            [7, 5, 1, 5, 5, 6, 5, 5, 2, 5, 5, 4, 5, 5, 0, 5, 5, 3, 5, 5, 5, 5, 1, 5],
            "alias-sampler SmartExp3 decision pin drifted"
        );
        let stats = policy.stats();
        assert!(stats.sampler_rebuilds > 0, "alias table was never frozen");
    }

    #[test]
    fn explores_every_network_before_exploiting() {
        let mut policy = SmartExp3::with_defaults(nets(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..5 {
            let n = policy.choose(t, &mut rng);
            seen.insert(n);
            policy.observe(&Observation::bandit(t, n, 5.0, 0.2), &mut rng);
        }
        assert_eq!(
            seen.len(),
            5,
            "first k blocks must visit k distinct networks"
        );
        assert_eq!(policy.stats().explorations, 5);
    }

    #[test]
    fn concentrates_probability_on_the_best_network() {
        let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
        run_static(&mut policy, NetworkId(2), 0.9, 0.1, 600, 42);
        let p_best = probability_of(&policy.probabilities(), NetworkId(2));
        assert!(
            p_best > 0.5,
            "expected concentration on the best arm, got {p_best}"
        );
    }

    #[test]
    fn switches_far_less_than_slot_level_exp3() {
        let slots = 1000;
        let mut smart = SmartExp3::with_defaults(nets(3)).unwrap();
        run_static(&mut smart, NetworkId(2), 0.9, 0.2, slots, 7);

        let mut exp3 = crate::Exp3::new(nets(3), crate::Exp3Config::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for t in 0..slots {
            let chosen = exp3.choose(t, &mut rng);
            let gain = if chosen == NetworkId(2) { 0.9 } else { 0.2 };
            exp3.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        assert!(
            smart.stats().switches * 3 < exp3.stats().switches,
            "smart={} exp3={}",
            smart.stats().switches,
            exp3.stats().switches
        );
    }

    #[test]
    fn switch_count_respects_theorem_2_bound() {
        let slots = 1200usize;
        let config = SmartExp3Config::default();
        for seed in 0..5 {
            let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
            run_static(&mut policy, NetworkId(1), 0.8, 0.3, slots, seed);
            // Theorem 2 evaluated per observed reset period: with r resets the
            // run is split into ~r+1 periods of length τ = T/(r+1).
            let periods = policy.stats().resets as f64 + 1.0;
            let tau = slots as f64 / periods;
            let bound = crate::theory::switch_bound(3, config.beta, 1.0, tau, slots as f64);
            assert!(
                (policy.stats().switches as f64) < bound,
                "switches {} exceed Theorem 2 bound {}",
                policy.stats().switches,
                bound
            );
        }
    }

    #[test]
    fn block_lengths_grow_over_time() {
        let mut policy = SmartExp3::new(
            nets(3),
            SmartExp3Config::with_features(SmartExp3Features::smart_exp3_without_reset()),
        )
        .unwrap();
        run_static(&mut policy, NetworkId(0), 0.9, 0.1, 800, 3);
        let length = policy.current_block_length().unwrap_or(1);
        assert!(length > 2, "block length should have grown, got {length}");
    }

    #[test]
    fn switch_back_returns_to_previous_network() {
        // Environment: network 0 is great, network 1 is terrible. Whenever the
        // policy wanders to network 1, the first bad slot should trigger a
        // switch-back to network 0 on the following decision.
        let mut policy = SmartExp3::new(
            nets(2),
            SmartExp3Config::with_features(SmartExp3Features::smart_exp3_without_reset()),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut saw_switch_back = false;
        for t in 0..400 {
            let chosen = policy.choose(t, &mut rng);
            if policy.last_selection_kind() == SelectionKind::SwitchBack {
                saw_switch_back = true;
                assert_eq!(
                    chosen,
                    NetworkId(0),
                    "switch back should return to the good network"
                );
            }
            let gain = if chosen == NetworkId(0) { 0.9 } else { 0.05 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        assert!(saw_switch_back, "the switch-back mechanism never fired");
        assert!(policy.stats().switch_backs > 0);
    }

    #[test]
    fn no_two_consecutive_switch_backs() {
        let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut previous_was_switch_back = false;
        for t in 0..2000 {
            let chosen = policy.choose(t, &mut rng);
            let fresh = policy.last_selection_kind();
            if fresh == SelectionKind::SwitchBack {
                assert!(
                    !previous_was_switch_back,
                    "two switch-back blocks in a row at slot {t}"
                );
            }
            if fresh.is_fresh_decision() {
                previous_was_switch_back = fresh == SelectionKind::SwitchBack;
            }
            // Noisy environment to provoke frequent switch-backs.
            let base = match chosen {
                NetworkId(0) => 0.7,
                NetworkId(1) => 0.5,
                _ => 0.3,
            };
            let noise = (t % 7) as f64 * 0.02;
            policy.observe(
                &Observation::bandit(t, chosen, (base + noise) * 22.0, base + noise),
                &mut rng,
            );
        }
    }

    #[test]
    fn periodic_reset_eventually_fires() {
        let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
        // A long, stable run in which one network dominates: the probability
        // threshold and the block-length threshold will eventually both hold.
        run_static(&mut policy, NetworkId(2), 0.95, 0.05, 4000, 5);
        assert!(
            policy.stats().resets >= 1,
            "expected at least one periodic reset in a long stable run"
        );
    }

    #[test]
    fn without_reset_feature_no_reset_ever_happens() {
        let mut policy = SmartExp3::new(
            nets(3),
            SmartExp3Config::with_features(SmartExp3Features::smart_exp3_without_reset()),
        )
        .unwrap();
        run_static(&mut policy, NetworkId(2), 0.95, 0.05, 4000, 5);
        assert_eq!(policy.stats().resets, 0);
    }

    #[test]
    fn drop_in_quality_triggers_reset_and_adaptation() {
        let mut policy = SmartExp3::with_defaults(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        // Phase 1: network 0 is clearly better.
        for t in 0..400 {
            let chosen = policy.choose(t, &mut rng);
            let gain = if chosen == NetworkId(0) { 0.9 } else { 0.4 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        let resets_before = policy.stats().resets;
        // Phase 2: network 0 collapses; network 1 becomes the best.
        for t in 400..1200 {
            let chosen = policy.choose(t, &mut rng);
            let gain = if chosen == NetworkId(0) { 0.2 } else { 0.4 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        assert!(
            policy.stats().resets > resets_before,
            "a sustained quality drop should trigger a reset"
        );
        // After adapting, the policy should spend most of its time on network 1.
        let mut on_new_best = 0;
        for t in 1200..1400 {
            let chosen = policy.choose(t, &mut rng);
            if chosen == NetworkId(1) {
                on_new_best += 1;
            }
            let gain = if chosen == NetworkId(0) { 0.2 } else { 0.4 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        assert!(
            on_new_best > 100,
            "only {on_new_best}/200 slots on the new best network"
        );
    }

    #[test]
    fn newly_discovered_network_is_explored_and_triggers_reset() {
        let mut policy = SmartExp3::with_defaults(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        run_static(&mut policy, NetworkId(1), 0.6, 0.3, 300, 8);
        let resets_before = policy.stats().resets;
        policy.on_networks_changed(&[NetworkId(0), NetworkId(1), NetworkId(9)], &mut rng);
        assert!(policy.stats().resets > resets_before);
        let mut visited_new = false;
        for t in 300..320 {
            let chosen = policy.choose(t, &mut rng);
            if chosen == NetworkId(9) {
                visited_new = true;
            }
            let gain = if chosen == NetworkId(9) { 0.95 } else { 0.4 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        assert!(
            visited_new,
            "the new network should be explored shortly after discovery"
        );
    }

    #[test]
    fn losing_the_current_network_forces_a_new_decision() {
        let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        run_static(&mut policy, NetworkId(2), 0.9, 0.1, 200, 17);
        // Remove whichever network the policy is currently on.
        let current = policy.choose(200, &mut rng);
        let remaining: Vec<NetworkId> = nets(3).into_iter().filter(|&n| n != current).collect();
        policy.on_networks_changed(&remaining, &mut rng);
        let next = policy.choose(201, &mut rng);
        assert!(remaining.contains(&next));
        let sum: f64 = policy.probabilities().iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_remain_a_distribution_throughout() {
        let mut policy = SmartExp3::with_defaults(nets(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for t in 0..1500 {
            let chosen = policy.choose(t, &mut rng);
            let gain = 0.2 + 0.6 * ((chosen.index() + t) % 3) as f64 / 3.0;
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
            let probs = policy.probabilities();
            let sum: f64 = probs.iter().map(|(_, p)| p).sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "probabilities drifted at slot {t}"
            );
            assert!(probs.iter().all(|(_, p)| *p >= 0.0 && *p <= 1.0 + 1e-9));
        }
    }

    #[test]
    fn shared_feedback_reaches_the_weights_but_not_the_block_machinery() {
        use crate::SharedFeedback;
        let mut policy = SmartExp3::with_defaults(nets(3)).unwrap();
        run_static(&mut policy, NetworkId(0), 0.5, 0.4, 60, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let blocks_before = policy.stats().blocks;
        let p_before = probability_of(&policy.probabilities(), NetworkId(2));
        let mut digest = SharedFeedback::new(0.5);
        for _ in 0..40 {
            digest.decay();
            digest.record(NetworkId(2), 0.95);
            policy.observe_shared(&digest, &mut rng);
        }
        let p_after = probability_of(&policy.probabilities(), NetworkId(2));
        assert!(
            p_after > p_before,
            "gossip should raise network 2: {p_before} -> {p_after}"
        );
        assert_eq!(
            policy.stats().blocks,
            blocks_before,
            "gossip must not start or finish blocks"
        );
        assert_eq!(policy.stats().shared_observations, 40);
        let sum: f64 = policy.probabilities().iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_exp3_variant_never_uses_greedy_or_switch_back() {
        let mut policy = SmartExp3::new(
            nets(3),
            SmartExp3Config::with_features(SmartExp3Features::block_exp3()),
        )
        .unwrap();
        run_static(&mut policy, NetworkId(0), 0.9, 0.1, 1000, 2);
        let stats = policy.stats();
        assert_eq!(stats.greedy_selections, 0);
        assert_eq!(stats.switch_backs, 0);
        assert_eq!(stats.resets, 0);
        assert_eq!(stats.explorations, 0);
        assert_eq!(policy.name(), "Block EXP3");
    }

    #[test]
    fn hybrid_variant_uses_greedy_but_not_switch_back() {
        let mut policy = SmartExp3::new(
            nets(3),
            SmartExp3Config::with_features(SmartExp3Features::hybrid_block_exp3()),
        )
        .unwrap();
        run_static(&mut policy, NetworkId(0), 0.9, 0.1, 1000, 2);
        let stats = policy.stats();
        assert!(stats.greedy_selections > 0);
        assert_eq!(stats.switch_backs, 0);
        assert_eq!(policy.name(), "Hybrid Block EXP3");
    }

    #[test]
    fn variant_names_are_distinct() {
        let names: Vec<&str> = [
            SmartExp3Features::block_exp3(),
            SmartExp3Features::hybrid_block_exp3(),
            SmartExp3Features::smart_exp3_without_reset(),
            SmartExp3Features::smart_exp3(),
        ]
        .into_iter()
        .map(|f| {
            SmartExp3::new(nets(2), SmartExp3Config::with_features(f))
                .unwrap()
                .name()
        })
        .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), 4, "variant names collide: {names:?}");
    }
}
