//! The Full Information baseline (Table II): an exponentially weighted
//! forecaster that, unlike a bandit, receives the gain it *could* have
//! obtained from every network at the end of each slot.
//!
//! This follows the adaptive-routing-with-expert-advice construction of
//! György & Ottucsák: each slot the device samples a network from the
//! normalised weights, then updates every network's weight multiplicatively
//! from its loss `1 − gain`. It is not implementable without extra signalling
//! in a real deployment — the paper includes it (like Centralized) as an
//! idealised reference point.

use crate::error::check_networks;
use crate::policy::{Observation, Policy, PolicyStats};
use crate::{ConfigError, NetworkId, SlotIndex, WeightTable};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Learning rate η of the multiplicative update `w ← w · exp(−η · loss)`: a
/// mild rate; the paper does not report the value it used, and results are
/// insensitive to it in the settings considered.
const LEARNING_RATE: f64 = 0.2;

/// Full-feedback exponentially weighted forecaster, with learning rate
/// η = 0.2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullInformation {
    weights: WeightTable,
    current: Option<NetworkId>,
    stats: PolicyStats,
}

impl FullInformation {
    /// Creates the forecaster over `networks`.
    ///
    /// # Errors
    ///
    /// Returns an error if `networks` is empty or contains duplicates.
    pub fn new(networks: Vec<NetworkId>) -> Result<Self, ConfigError> {
        check_networks(&networks)?;
        Ok(FullInformation {
            weights: WeightTable::uniform(&networks),
            current: None,
            stats: PolicyStats::default(),
        })
    }
}

impl Policy for FullInformation {
    fn state(&self) -> Option<crate::PolicyState> {
        Some(crate::PolicyState::FullInformation(Box::new(self.clone())))
    }

    fn kind(&self) -> crate::PolicyKind {
        crate::PolicyKind::FullInformation
    }

    fn choose(&mut self, _slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId {
        // Pure weight sampling: γ = 0 (no forced uniform exploration is needed
        // because every arm's weight is updated every slot regardless).
        let (network, _) = self.weights.sample(0.0, rng);
        if let Some(previous) = self.current {
            if previous != network {
                self.stats.switches += 1;
            }
        }
        self.stats.blocks += 1;
        self.current = Some(network);
        network
    }

    fn observe(&mut self, observation: &Observation, _rng: &mut dyn RngCore) {
        let Some(full) = &observation.full_gains else {
            // Degenerate to bandit feedback when the environment cannot
            // provide counterfactual gains: update only the chosen network.
            self.weights.multiplicative_update(
                observation.network,
                1.0,
                self.loss_update(observation.scaled_gain),
            );
            return;
        };
        for &(network, gain) in full {
            let update = self.loss_update(gain);
            self.weights.multiplicative_update(network, 1.0, update);
        }
    }

    fn on_networks_changed(&mut self, available: &[NetworkId], _rng: &mut dyn RngCore) {
        for &n in available {
            self.weights.add_arm(n);
        }
        let to_remove: Vec<NetworkId> = self
            .weights
            .arms()
            .iter()
            .copied()
            .filter(|n| !available.contains(n))
            .collect();
        for n in to_remove {
            self.weights.remove_arm(n);
        }
        if let Some(current) = self.current {
            if !available.contains(&current) {
                self.current = None;
            }
        }
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        let probs = self.weights.probabilities(0.0);
        self.weights.arms().iter().copied().zip(probs).collect()
    }

    fn top_choice(&self) -> Option<(NetworkId, f64)> {
        self.weights.top_choice(0.0)
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

impl FullInformation {
    /// Converts a scaled gain into the argument handed to
    /// [`WeightTable::multiplicative_update`] so that the net effect on the
    /// log-weight is `−η · loss` (the update rule adds `γ·x/k`, and it is
    /// always invoked with γ = 1 here).
    fn loss_update(&self, scaled_gain: f64) -> f64 {
        let loss = (1.0 - scaled_gain).clamp(0.0, 1.0);
        -LEARNING_RATE * loss * self.weights.len() as f64
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

    fn full_obs(slot: usize, chosen: NetworkId, gains: &[(NetworkId, f64)]) -> Observation {
        let g = gains
            .iter()
            .find(|(n, _)| *n == chosen)
            .map(|(_, g)| *g)
            .unwrap_or(0.0);
        Observation::bandit(slot, chosen, g * 22.0, g).with_full_gains(gains.to_vec())
    }

    #[test]
    fn converges_faster_than_bandit_feedback_would() {
        let mut policy = FullInformation::new(nets(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let gains = vec![
            (NetworkId(0), 0.2),
            (NetworkId(1), 0.4),
            (NetworkId(2), 0.9),
        ];
        for t in 0..60 {
            let chosen = policy.choose(t, &mut rng);
            policy.observe(&full_obs(t, chosen, &gains), &mut rng);
        }
        let p_best = probability_of(&policy.probabilities(), NetworkId(2));
        assert!(
            p_best > 0.9,
            "full feedback should converge fast, p = {p_best}"
        );
    }

    #[test]
    fn without_full_feedback_it_still_functions() {
        let mut policy = FullInformation::new(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..20 {
            let chosen = policy.choose(t, &mut rng);
            let gain = if chosen == NetworkId(0) { 0.9 } else { 0.1 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        let sum: f64 = policy.probabilities().iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// A state written while the forecaster still carried a config
    /// (`{"learning_rate":0.2}`, the rate it now always uses) restores to
    /// the same policy: the reader skips the member.
    #[test]
    fn a_state_with_the_dropped_learning_rate_restores_to_the_same_policy() {
        let mut policy = FullInformation::new(nets(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let gains = vec![
            (NetworkId(0), 0.2),
            (NetworkId(1), 0.4),
            (NetworkId(2), 0.9),
        ];
        for t in 0..10 {
            let chosen = policy.choose(t, &mut rng);
            policy.observe(&full_obs(t, chosen, &gains), &mut rng);
        }
        let state = crate::PolicyState::FullInformation(Box::new(policy.clone()));
        let text = serde_json::to_string(&state).unwrap();
        let legacy = text.replacen(
            "{\"weights\":",
            "{\"config\":{\"learning_rate\":0.2},\"weights\":",
            1,
        );
        assert_eq!(legacy.matches("\"learning_rate\":0.2").count(), 1);
        let restored: crate::PolicyState = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), text);
        let mut restored = restored.into_policy();
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        for t in 10..40 {
            let a = policy.choose(t, &mut rng_a);
            assert_eq!(restored.choose(t, &mut rng_b), a, "slot {t}");
            policy.observe(&full_obs(t, a, &gains), &mut rng_a);
            restored.observe(&full_obs(t, a, &gains), &mut rng_b);
        }
        assert_eq!(restored.probabilities(), policy.probabilities());
    }

    #[test]
    fn network_set_changes_are_supported() {
        let mut policy = FullInformation::new(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        policy.on_networks_changed(&[NetworkId(1), NetworkId(2), NetworkId(3)], &mut rng);
        assert_eq!(policy.probabilities().len(), 3);
    }
}
