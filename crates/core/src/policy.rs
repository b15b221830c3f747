//! The [`Policy`] trait driven by the environment one slot at a time, together
//! with the observation and statistics types exchanged across that boundary.

use crate::{NetworkId, PolicyKind, SlotIndex};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// How a Smart EXP3 block's network was chosen, as its
/// [`BlockState`](crate::BlockState) records it.
///
/// The Smart EXP3 weight-update rule divides the observed gain by the
/// probability `p(b)` with which the block's network was chosen, and that
/// probability depends on the *kind* of selection that was made (initial
/// exploration, random draw, greedy pick or switch-back). The switch-back
/// rule reads the kind too: a switch-back block never switches back again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionKind {
    /// Initial (or post-reset) exploration of a not-yet-visited network.
    Exploration,
    /// Random draw from the policy's probability distribution.
    Random,
    /// Deterministic pick of the network with the highest average gain.
    Greedy,
    /// Return to the previously used network after a disappointing first slot.
    SwitchBack,
}

/// Everything a device learns at the end of one time slot.
///
/// The environment (simulator or testbed driver) fills this in after the slot
/// has elapsed and hands it to [`Policy::observe`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Index of the slot that just finished.
    pub slot: SlotIndex,
    /// The network the device was associated with during the slot.
    pub network: NetworkId,
    /// Raw bit rate observed on that network, in Mbps.
    pub bit_rate_mbps: f64,
    /// The same bit rate scaled to `[0, 1]` (the *gain* of the congestion
    /// game formulation, §II-B of the paper).
    pub scaled_gain: f64,
    /// Whether associating with `network` required switching away from the
    /// network used in the previous slot.
    pub switched: bool,
    /// Switching delay incurred this slot, in seconds (0 when `!switched`).
    pub switching_delay_s: f64,
    /// Counterfactual scaled gains for every available network, if the
    /// environment provides full feedback. Only the [`FullInformation`]
    /// baseline consumes this; bandit policies ignore it.
    ///
    /// [`FullInformation`]: crate::FullInformation
    pub full_gains: Option<Vec<(NetworkId, f64)>>,
}

impl Observation {
    /// Convenience constructor for the common bandit-feedback case.
    ///
    /// `switched` / `switching_delay_s` default to `false` / `0.0` and no full
    /// feedback is attached.
    #[must_use]
    pub fn bandit(
        slot: SlotIndex,
        network: NetworkId,
        bit_rate_mbps: f64,
        scaled_gain: f64,
    ) -> Self {
        Observation {
            slot,
            network,
            bit_rate_mbps,
            scaled_gain,
            switched: false,
            switching_delay_s: 0.0,
            full_gains: None,
        }
    }

    /// Attaches full-information feedback (per-network counterfactual gains).
    #[must_use]
    pub fn with_full_gains(mut self, gains: Vec<(NetworkId, f64)>) -> Self {
        self.full_gains = Some(gains);
        self
    }

    /// Records that the device switched networks this slot and the delay paid.
    #[must_use]
    pub fn with_switch(mut self, delay_s: f64) -> Self {
        self.switched = true;
        self.switching_delay_s = delay_s;
        self
    }
}

/// Counters describing a policy's behaviour so far, exposed for evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Number of network switches performed (a change of network between two
    /// consecutive slots in which the device was active).
    pub switches: u64,
    /// Number of blocks started (1 for slot-level policies' every decision).
    /// EXP3 and Smart EXP3 evaluate their γ schedule at this count, so a
    /// restored state's γ follows from it.
    pub blocks: u64,
    /// Number of times the minimal-reset mechanism fired.
    pub resets: u64,
    /// Number of switch-back blocks.
    pub switch_backs: u64,
    /// Number of greedy (deterministic, highest-average-gain) selections.
    pub greedy_selections: u64,
    /// Number of exploration selections.
    pub explorations: u64,
    /// Number of shared (gossiped) per-network rate reports folded into the
    /// policy via [`Policy::observe_shared`].
    pub shared_observations: u64,
    /// Times the policy's weight-table sampler rebuilt its acceleration
    /// structure (the alias-table freeze under
    /// [`SamplerStrategy::Alias`](crate::SamplerStrategy::Alias); 0 for the
    /// linear strategy). A rebuild storm here means updates are
    /// churning faster than draws can amortise.
    pub sampler_rebuilds: u64,
    /// Draws that resolved through the alias sampler's dirty-arm overlay
    /// walk instead of its O(1) table lookup (0 for the linear strategy).
    pub overlay_hits: u64,
}

/// A sequential decision policy for distributed resource selection.
///
/// The environment drives a policy with a strict per-slot protocol:
///
/// 1. [`choose`](Policy::choose) — the policy returns the network to use for
///    the coming slot;
/// 2. the environment lets the slot elapse and measures the gain;
/// 3. [`observe`](Policy::observe) — the policy ingests the feedback.
///
/// [`on_networks_changed`](Policy::on_networks_changed) may be called between
/// slots when the set of visible networks changes (mobility, AP churn), and
/// [`observe_shared`](Policy::observe_shared) after `observe` in cooperative
/// worlds.
///
/// The trait has nine methods, and each has a caller: those four, the reads
/// [`probabilities`](Policy::probabilities) (reports, tests) and
/// [`top_choice`](Policy::top_choice) (the engine's top-choice hook; its
/// default scans `probabilities()`), and [`kind`](Policy::kind),
/// [`stats`](Policy::stats) and [`state`](Policy::state) (reports, metrics
/// and checkpoints).
///
/// Implementations are deterministic given the `rng` passed in, which keeps
/// whole-simulation runs reproducible from a single seed.
pub trait Policy: Send {
    /// Which of the paper's algorithms this policy runs; its
    /// [`label`](PolicyKind::label) names it in reports. The fleet engine
    /// reads a session's kind from its policy, so a checkpoint need not
    /// write it.
    fn kind(&self) -> PolicyKind;

    /// Selects the network to associate with for slot `slot`.
    fn choose(&mut self, slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId;

    /// Ingests the feedback for the slot that just finished.
    fn observe(&mut self, observation: &Observation, rng: &mut dyn RngCore);

    /// Ingests **shared** (gossiped) feedback: per-network observed-rate
    /// digests the device heard from its neighbourhood this slot (the
    /// Co-Bandit cooperative path, see [`SharedFeedback`]).
    ///
    /// Called after [`observe`](Policy::observe), at most once per slot, and
    /// only by drivers running a cooperative environment. The default is a
    /// documented no-op: a policy that does not cooperate simply ignores the
    /// gossip. The EXP3 family overrides it to fold the digests into its
    /// weight table through the cached-distribution update, so shared
    /// feedback rides the same zero-alloc hot path as bandit feedback.
    ///
    /// [`SharedFeedback`]: crate::SharedFeedback
    fn observe_shared(&mut self, shared: &crate::SharedFeedback, rng: &mut dyn RngCore) {
        let _ = (shared, rng);
    }

    /// Informs the policy that its set of available networks changed.
    ///
    /// The default implementation is a documented no-op: a policy that does
    /// not track network churn simply keeps its current state and continues
    /// choosing among the networks it already knows. This default must never
    /// panic — a fleet engine hosts thousands of sessions in shared worker
    /// threads, and one session in a dynamic environment must not be able to
    /// take the whole fleet down. Policies that *do* adapt (Smart EXP3, the
    /// greedy baseline, …) override this to re-target the new network set.
    fn on_networks_changed(&mut self, available: &[NetworkId], rng: &mut dyn RngCore) {
        let _ = (available, rng);
    }

    /// Current probability of selecting each network at the next fresh
    /// decision, in no particular order. Deterministic policies report 1.0 for
    /// their committed choice.
    fn probabilities(&self) -> Vec<(NetworkId, f64)>;

    /// The most probable network of [`probabilities`](Policy::probabilities)
    /// and its probability, or `None` when the listing is empty: what the
    /// engine's end-of-slot top-choice hook reads.
    ///
    /// Ties break towards the **later-listed** network, as
    /// `Iterator::max_by(f64::total_cmp)` does. The default scans the listing
    /// `probabilities()` returns; the EXP3 family overrides it with one pass
    /// over the cached exponentials, so dense worlds (hundreds of networks
    /// per session) build no listing per session per slot.
    fn top_choice(&self) -> Option<(NetworkId, f64)> {
        self.probabilities()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Behavioural counters (switches, resets, …) accumulated so far.
    fn stats(&self) -> PolicyStats;

    /// Captures the policy's full learning state for checkpointing, or `None`
    /// for policies whose state cannot be serialized (currently only the
    /// centralized oracle, whose state lives in a shared coordinator).
    ///
    /// The fleet engine uses this to snapshot every session of a fleet; a
    /// policy restored from the returned [`PolicyState`] must behave
    /// bit-identically to the original from that point on.
    ///
    /// [`PolicyState`]: crate::PolicyState
    fn state(&self) -> Option<crate::PolicyState> {
        None
    }
}

/// `Box<dyn Policy>` is itself a [`Policy`], delegating every method to the
/// boxed value. This lets generic drivers — most importantly the fleet
/// engine's lane loops, which are monomorphized per concrete policy type —
/// treat the boxed fallback lane as just another `P: Policy`, reusing one
/// code path for both static and dynamic dispatch.
impl Policy for Box<dyn Policy> {
    fn kind(&self) -> PolicyKind {
        (**self).kind()
    }

    fn choose(&mut self, slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId {
        (**self).choose(slot, rng)
    }

    fn observe(&mut self, observation: &Observation, rng: &mut dyn RngCore) {
        (**self).observe(observation, rng);
    }

    fn observe_shared(&mut self, shared: &crate::SharedFeedback, rng: &mut dyn RngCore) {
        (**self).observe_shared(shared, rng);
    }

    fn on_networks_changed(&mut self, available: &[NetworkId], rng: &mut dyn RngCore) {
        (**self).on_networks_changed(available, rng);
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        (**self).probabilities()
    }

    fn top_choice(&self) -> Option<(NetworkId, f64)> {
        (**self).top_choice()
    }

    fn stats(&self) -> PolicyStats {
        (**self).stats()
    }

    fn state(&self) -> Option<crate::PolicyState> {
        (**self).state()
    }
}

/// Returns the probability associated with `network` in a probability listing,
/// or 0.0 when absent. Convenience used by evaluation code and tests.
#[must_use]
pub fn probability_of(probabilities: &[(NetworkId, f64)], network: NetworkId) -> f64 {
    probabilities
        .iter()
        .find(|(n, _)| *n == network)
        .map(|(_, p)| *p)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_builders_compose() {
        let obs = Observation::bandit(4, NetworkId(1), 10.0, 0.45)
            .with_switch(1.5)
            .with_full_gains(vec![(NetworkId(0), 0.2), (NetworkId(1), 0.45)]);
        assert!(obs.switched);
        assert_eq!(obs.switching_delay_s, 1.5);
        assert_eq!(obs.full_gains.as_ref().map(Vec::len), Some(2));
    }

    #[test]
    fn probability_lookup_defaults_to_zero() {
        let probs = vec![(NetworkId(0), 0.25), (NetworkId(2), 0.75)];
        assert_eq!(probability_of(&probs, NetworkId(2)), 0.75);
        assert_eq!(probability_of(&probs, NetworkId(9)), 0.0);
    }
}
