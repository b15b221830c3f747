//! The Greedy baseline (Table II of the paper).
//!
//! The device first explores every available network once, in random order.
//! From then on it deterministically selects the network with the highest
//! average observed gain. It never forgets and never deliberately explores
//! again, which is exactly why it gets stuck after environmental changes
//! (Figures 8, 13, 14 of the paper).

use crate::error::check_networks;
use crate::policy::{Observation, Policy, PolicyStats};
use crate::{ConfigError, NetworkId, NetworkStats, SlotIndex};
use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Greedy network selection: explore once, then always pick the empirical best.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Greedy {
    available: Vec<NetworkId>,
    to_explore: Vec<NetworkId>,
    explore_shuffled: bool,
    stats_table: NetworkStats,
    current: Option<NetworkId>,
    stats: PolicyStats,
}

impl Greedy {
    /// Creates a greedy policy over `networks`.
    ///
    /// # Errors
    ///
    /// Returns an error if `networks` is empty or contains duplicates.
    pub fn new(networks: Vec<NetworkId>) -> Result<Self, ConfigError> {
        check_networks(&networks)?;
        Ok(Greedy {
            to_explore: networks.clone(),
            available: networks,
            explore_shuffled: false,
            stats_table: NetworkStats::new(),
            current: None,
            stats: PolicyStats::default(),
        })
    }

    fn note_switch(&mut self, next: NetworkId) {
        if let Some(previous) = self.current {
            if previous != next {
                self.stats.switches += 1;
            }
        }
        self.current = Some(next);
    }
}

impl Policy for Greedy {
    fn state(&self) -> Option<crate::PolicyState> {
        Some(crate::PolicyState::Greedy(Box::new(self.clone())))
    }

    fn kind(&self) -> crate::PolicyKind {
        crate::PolicyKind::Greedy
    }

    fn choose(&mut self, _slot: SlotIndex, rng: &mut dyn RngCore) -> NetworkId {
        self.stats.blocks += 1;
        if !self.explore_shuffled {
            self.to_explore.shuffle(rng);
            self.explore_shuffled = true;
        }
        let next = if let Some(network) = self.to_explore.pop() {
            self.stats.explorations += 1;
            network
        } else {
            self.stats.greedy_selections += 1;
            self.stats_table
                .best_average()
                .filter(|n| self.available.contains(n))
                .or(self.current)
                .unwrap_or(self.available[0])
        };
        self.note_switch(next);
        next
    }

    fn observe(&mut self, observation: &Observation, _rng: &mut dyn RngCore) {
        self.stats_table
            .record_slot(observation.network, observation.scaled_gain);
    }

    fn on_networks_changed(&mut self, available: &[NetworkId], _rng: &mut dyn RngCore) {
        // Newly visible networks are queued for a one-slot exploration visit;
        // vanished networks are dropped from the statistics.
        for &n in available {
            if !self.available.contains(&n) {
                self.to_explore.push(n);
                self.explore_shuffled = false;
            }
        }
        self.available = available.to_vec();
        self.to_explore.retain(|n| available.contains(n));
        self.stats_table.retain_networks(available);
        if let Some(current) = self.current {
            if !available.contains(&current) {
                self.current = None;
            }
        }
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        // Deterministic once exploration is done: all mass on the empirical best.
        let target = if self.to_explore.is_empty() {
            self.stats_table
                .best_average()
                .filter(|n| self.available.contains(n))
                .or(self.current)
        } else {
            None
        };
        self.available
            .iter()
            .map(|&n| {
                let p = match target {
                    Some(best) if best == n => 1.0,
                    Some(_) => 0.0,
                    None => 1.0 / self.available.len() as f64,
                };
                (n, p)
            })
            .collect()
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

    fn nets(k: u32) -> Vec<NetworkId> {
        (0..k).map(NetworkId).collect()
    }

    #[test]
    fn explores_each_network_exactly_once_first() {
        let mut policy = Greedy::new(nets(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..4 {
            let n = policy.choose(t, &mut rng);
            assert!(seen.insert(n), "network {n} explored twice");
            policy.observe(&Observation::bandit(t, n, 5.0, 0.2), &mut rng);
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(policy.stats().explorations, 4);
    }

    #[test]
    fn sticks_to_empirical_best_after_exploration() {
        let mut policy = Greedy::new(nets(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for t in 0..3 {
            let n = policy.choose(t, &mut rng);
            let gain = if n == NetworkId(1) { 0.9 } else { 0.1 };
            policy.observe(&Observation::bandit(t, n, gain * 22.0, gain), &mut rng);
        }
        for t in 3..50 {
            let n = policy.choose(t, &mut rng);
            assert_eq!(n, NetworkId(1));
            policy.observe(&Observation::bandit(t, n, 19.8, 0.9), &mut rng);
        }
        // 3 exploration slots can incur at most 3 switches, plus possibly one
        // switch into the final greedy choice.
        assert!(policy.stats().switches <= 4);
    }

    #[test]
    fn can_get_stuck_when_conditions_change() {
        // The defining weakness of Greedy: after settling, a change in gains
        // does not trigger re-exploration of other networks.
        let mut policy = Greedy::new(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..2 {
            let n = policy.choose(t, &mut rng);
            let gain = if n == NetworkId(0) { 0.8 } else { 0.4 };
            policy.observe(&Observation::bandit(t, n, gain * 22.0, gain), &mut rng);
        }
        // Network 0's quality collapses, but its long history keeps its average above 0.4
        // only for a while; greedy still never *tries* network 1 again unless the average
        // crosses. With a short history the average drops quickly, so use few slots and a
        // large prior gap to show stickiness.
        for t in 2..6 {
            let n = policy.choose(t, &mut rng);
            assert_eq!(n, NetworkId(0));
            policy.observe(&Observation::bandit(t, n, 0.7 * 22.0, 0.7), &mut rng);
        }
    }

    #[test]
    fn newly_discovered_network_gets_explored() {
        let mut policy = Greedy::new(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for t in 0..5 {
            let n = policy.choose(t, &mut rng);
            policy.observe(&Observation::bandit(t, n, 11.0, 0.5), &mut rng);
        }
        policy.on_networks_changed(&[NetworkId(0), NetworkId(1), NetworkId(5)], &mut rng);
        let mut visited_new = false;
        for t in 5..8 {
            let n = policy.choose(t, &mut rng);
            if n == NetworkId(5) {
                visited_new = true;
            }
            policy.observe(&Observation::bandit(t, n, 11.0, 0.5), &mut rng);
        }
        assert!(
            visited_new,
            "the newly discovered network should be explored"
        );
    }

    #[test]
    fn handles_current_network_disappearing() {
        let mut policy = Greedy::new(nets(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for t in 0..4 {
            let n = policy.choose(t, &mut rng);
            policy.observe(&Observation::bandit(t, n, 11.0, 0.5), &mut rng);
        }
        policy.on_networks_changed(&[NetworkId(1)], &mut rng);
        let n = policy.choose(4, &mut rng);
        assert_eq!(n, NetworkId(1));
    }
}
