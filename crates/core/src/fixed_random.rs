//! The Fixed Random baseline (Table II): pick a network uniformly at random
//! once, then never move (unless the network disappears).

use crate::error::check_networks;
use crate::policy::{Observation, Policy, PolicyStats};
use crate::{ConfigError, NetworkId, SlotIndex};
use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Picks one network uniformly at random and stays on it forever.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedRandom {
    available: Vec<NetworkId>,
    chosen: Option<NetworkId>,
    stats: PolicyStats,
}

impl FixedRandom {
    /// Creates the policy over `networks`.
    ///
    /// # Errors
    ///
    /// Returns an error if `networks` is empty or contains duplicates.
    pub fn new(networks: Vec<NetworkId>) -> Result<Self, ConfigError> {
        check_networks(&networks)?;
        Ok(FixedRandom {
            available: networks,
            chosen: None,
            stats: PolicyStats::default(),
        })
    }

    /// The committed network, once the first slot has been decided.
    #[must_use]
    pub fn committed(&self) -> Option<NetworkId> {
        self.chosen
    }
}

impl Policy for FixedRandom {
    fn state(&self) -> Option<crate::PolicyState> {
        Some(crate::PolicyState::FixedRandom(Box::new(self.clone())))
    }

    fn kind(&self) -> crate::PolicyKind {
        crate::PolicyKind::FixedRandom
    }

    fn choose(&mut self, _slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId {
        if self.chosen.is_none() {
            self.chosen = self.available.choose(rng).copied();
            self.stats.blocks += 1;
        }
        self.chosen.expect("validated non-empty network set")
    }

    fn observe(&mut self, _observation: &Observation, _rng: &mut dyn RngCore) {}

    fn on_networks_changed(&mut self, available: &[NetworkId], rng: &mut dyn RngCore) {
        self.available = available.to_vec();
        if let Some(current) = self.chosen {
            if !available.contains(&current) {
                // Forced to re-pick; this is the only time the policy switches.
                self.chosen = available.choose(rng).copied();
                self.stats.switches += 1;
                self.stats.blocks += 1;
            }
        }
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        match self.chosen {
            Some(c) => self
                .available
                .iter()
                .map(|&n| (n, if n == c { 1.0 } else { 0.0 }))
                .collect(),
            None => {
                let p = 1.0 / self.available.len() as f64;
                self.available.iter().map(|&n| (n, p)).collect()
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn never_switches_in_a_static_environment() {
        let nets: Vec<NetworkId> = (0..3).map(NetworkId).collect();
        let mut policy = FixedRandom::new(nets).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let first = policy.choose(0, &mut rng);
        for t in 1..200 {
            assert_eq!(policy.choose(t, &mut rng), first);
        }
        assert_eq!(policy.stats().switches, 0);
    }

    #[test]
    fn repicks_only_when_its_network_disappears() {
        let nets: Vec<NetworkId> = (0..2).map(NetworkId).collect();
        let mut policy = FixedRandom::new(nets).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let first = policy.choose(0, &mut rng);
        let other = if first == NetworkId(0) {
            NetworkId(1)
        } else {
            NetworkId(0)
        };
        policy.on_networks_changed(&[other], &mut rng);
        assert_eq!(policy.choose(1, &mut rng), other);
        assert_eq!(policy.stats().switches, 1);
    }

    #[test]
    fn different_seeds_can_pick_different_networks() {
        let nets: Vec<NetworkId> = (0..4).map(NetworkId).collect();
        let mut picks = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let mut policy = FixedRandom::new(nets.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            picks.insert(policy.choose(0, &mut rng));
        }
        assert!(picks.len() > 1, "16 seeds should not all agree");
    }
}
