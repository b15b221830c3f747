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

use crate::error::{check_networks, check_positive};
use crate::policy::{Observation, Policy, PolicyStats};
use crate::{ConfigError, NetworkId, SlotIndex, WeightTable};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Configuration of the [`FullInformation`] forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FullInformationConfig {
    /// Learning rate η of the multiplicative update `w ← w · exp(−η · loss)`.
    pub learning_rate: f64,
}

impl Default for FullInformationConfig {
    fn default() -> Self {
        // A mild learning rate; the paper does not report the exact value it
        // used, and results are insensitive to it in the settings considered.
        FullInformationConfig { learning_rate: 0.2 }
    }
}

impl FullInformationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the learning rate is not finite and positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_positive("learning_rate", self.learning_rate)
    }
}

/// Full-feedback exponentially weighted forecaster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullInformation {
    config: FullInformationConfig,
    weights: WeightTable,
    current: Option<NetworkId>,
    stats: PolicyStats,
}

impl FullInformation {
    /// The configuration this forecaster was built with.
    pub(crate) fn config(&self) -> &FullInformationConfig {
        &self.config
    }

    /// Creates the forecaster over `networks`.
    ///
    /// # Errors
    ///
    /// Returns an error if `networks` is empty/duplicated or the configuration
    /// is invalid.
    pub fn new(
        networks: Vec<NetworkId>,
        config: FullInformationConfig,
    ) -> Result<Self, ConfigError> {
        check_networks(&networks)?;
        config.validate()?;
        Ok(FullInformation {
            config,
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

    fn name(&self) -> &'static str {
        "Full Information"
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

    fn top_probabilities_into(&self, k: usize, out: &mut Vec<(NetworkId, f64)>) {
        self.weights.top_probabilities_into(0.0, k, out);
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
        -self.config.learning_rate * loss * self.weights.len() as f64
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
        let mut policy = FullInformation::new(nets(3), FullInformationConfig::default()).unwrap();
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
        let mut policy = FullInformation::new(nets(2), FullInformationConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..20 {
            let chosen = policy.choose(t, &mut rng);
            let gain = if chosen == NetworkId(0) { 0.9 } else { 0.1 };
            policy.observe(&Observation::bandit(t, chosen, gain * 22.0, gain), &mut rng);
        }
        let sum: f64 = policy.probabilities().iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_learning_rate() {
        let config = FullInformationConfig { learning_rate: 0.0 };
        assert!(FullInformation::new(nets(2), config).is_err());
    }

    #[test]
    fn network_set_changes_are_supported() {
        let mut policy = FullInformation::new(nets(2), FullInformationConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        policy.on_networks_changed(&[NetworkId(1), NetworkId(2), NetworkId(3)], &mut rng);
        assert_eq!(policy.probabilities().len(), 3);
    }
}
