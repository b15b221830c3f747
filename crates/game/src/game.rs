//! The wireless network selection game Γ = ⟨N, K, (S_j), (U_i)⟩ of §II-B.
//!
//! Devices (players) select one network (resource) each; a network's
//! bandwidth is shared among the devices that selected it. The *gain* of a
//! device is the bit rate it observes, so the utility of a network is a
//! decreasing function of its congestion level. The default utility is the
//! equal-share rule `U_i(n) = rate_i / n` the paper assumes in simulation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a network — the same type the policies in `smartexp3-core`
/// use, re-exported so that allocations, metrics and policies all speak about
/// the same identifiers.
pub use smartexp3_core::NetworkId;

/// How many devices are associated with each network.
pub type Allocation = BTreeMap<NetworkId, usize>;

/// A rate as the game stores it: non-finite or negative rates become 0.
fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.max(0.0)
    } else {
        0.0
    }
}

/// A resource-selection game instance: the set of networks and their
/// bandwidths (Mbps), with equal-share utilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSelectionGame {
    rates: BTreeMap<NetworkId, f64>,
}

impl ResourceSelectionGame {
    /// Creates a game over networks with the given bandwidths.
    ///
    /// Non-finite or negative rates are clamped to 0 (a zero-rate network is
    /// legal: it simply never attracts devices at equilibrium).
    #[must_use]
    pub fn new<I>(network_rates: I) -> Self
    where
        I: IntoIterator<Item = (NetworkId, f64)>,
    {
        let rates = network_rates
            .into_iter()
            .map(|(id, rate)| (id, clamp_rate(rate)))
            .collect();
        ResourceSelectionGame { rates }
    }

    /// Sets the bandwidth of `network`, adding the network when the game
    /// does not have it yet. The rate is clamped as in [`new`](Self::new),
    /// so a game updated this way equals one built from the updated rates.
    pub fn set_rate(&mut self, network: NetworkId, rate: f64) {
        self.rates.insert(network, clamp_rate(rate));
    }

    /// The networks of the game, in ascending identifier order.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.rates.keys().copied().collect()
    }

    /// Number of networks `k`.
    #[must_use]
    pub fn network_count(&self) -> usize {
        self.rates.len()
    }

    /// Bandwidth (Mbps) of `network`, or `None` if unknown.
    #[must_use]
    pub fn rate(&self, network: NetworkId) -> Option<f64> {
        self.rates.get(&network).copied()
    }

    /// Aggregate bandwidth over all networks (Mbps).
    #[must_use]
    pub fn aggregate_rate(&self) -> f64 {
        self.rates.values().sum()
    }

    /// Equal-share utility `U_i(n) = rate_i / n`: the bit rate each of `n`
    /// devices observes on `network`. Returns the full rate for `n = 0`
    /// (the rate a first device *would* observe).
    #[must_use]
    pub fn share(&self, network: NetworkId, devices: usize) -> f64 {
        let rate = self.rate(network).unwrap_or(0.0);
        rate / devices.max(1) as f64
    }

    /// Builds an [`Allocation`] (devices per network) from a per-device list
    /// of selections. Networks of the game that nobody selected appear with a
    /// count of 0; selections of unknown networks are counted too.
    #[must_use]
    pub fn allocation_from_choices(&self, choices: &[NetworkId]) -> Allocation {
        let mut allocation: Allocation = self.rates.keys().map(|&n| (n, 0)).collect();
        for &choice in choices {
            *allocation.entry(choice).or_insert(0) += 1;
        }
        allocation
    }

    /// Total number of devices in an allocation.
    #[must_use]
    pub fn devices_in(allocation: &Allocation) -> usize {
        allocation.values().sum()
    }

    /// Bandwidth (Mbps) left completely unused by an allocation: the sum of
    /// the rates of networks with zero devices. This is the quantity behind
    /// the paper's "unutilized resources / tragedy of the commons"
    /// discussion of the Greedy baseline.
    #[must_use]
    pub fn unutilized_rate(&self, allocation: &Allocation) -> f64 {
        self.rates
            .iter()
            .filter(|(id, _)| allocation.get(id).copied().unwrap_or(0) == 0)
            .map(|(_, &rate)| rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setting1() -> ResourceSelectionGame {
        ResourceSelectionGame::new(vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ])
    }

    #[test]
    fn shares_follow_equal_split() {
        let game = setting1();
        assert_eq!(game.share(NetworkId(2), 2), 11.0);
        assert_eq!(game.share(NetworkId(2), 0), 22.0);
        assert_eq!(game.share(NetworkId(9), 4), 0.0);
        assert_eq!(game.aggregate_rate(), 33.0);
    }

    #[test]
    fn allocation_from_choices_counts_devices() {
        let game = setting1();
        let choices = vec![NetworkId(2), NetworkId(2), NetworkId(0)];
        let allocation = game.allocation_from_choices(&choices);
        assert_eq!(allocation[&NetworkId(2)], 2);
        assert_eq!(allocation[&NetworkId(0)], 1);
        assert_eq!(allocation[&NetworkId(1)], 0);
        assert_eq!(ResourceSelectionGame::devices_in(&allocation), 3);
    }

    #[test]
    fn unutilized_rate_sums_empty_networks() {
        let game = setting1();
        let allocation = game.allocation_from_choices(&[NetworkId(1), NetworkId(2)]);
        assert_eq!(game.unutilized_rate(&allocation), 4.0);
        let full = game.allocation_from_choices(&[NetworkId(0), NetworkId(1), NetworkId(2)]);
        assert_eq!(game.unutilized_rate(&full), 0.0);
    }

    #[test]
    fn invalid_rates_are_clamped() {
        let game = ResourceSelectionGame::new(vec![
            (NetworkId(0), f64::NAN),
            (NetworkId(1), -3.0),
            (NetworkId(2), 5.0),
        ]);
        assert_eq!(game.rate(NetworkId(0)), Some(0.0));
        assert_eq!(game.rate(NetworkId(1)), Some(0.0));
        assert_eq!(game.aggregate_rate(), 5.0);
    }

    #[test]
    fn set_rate_matches_a_rebuild() {
        let mut game = setting1();
        game.set_rate(NetworkId(2), 2.0);
        game.set_rate(NetworkId(1), f64::INFINITY);
        game.set_rate(NetworkId(0), -1.0);
        game.set_rate(NetworkId(7), 9.0);
        let rebuilt = ResourceSelectionGame::new(vec![
            (NetworkId(0), -1.0),
            (NetworkId(1), f64::INFINITY),
            (NetworkId(2), 2.0),
            (NetworkId(7), 9.0),
        ]);
        assert_eq!(game, rebuilt);
        assert_eq!(game.aggregate_rate(), 11.0);
    }
}
