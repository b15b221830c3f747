//! The Centralized oracle baseline (Table II).
//!
//! A central coordinator with global knowledge of every network's bandwidth
//! assigns each device to a network so that the allocation is a Nash
//! equilibrium of the equal-share congestion game, and devices never deviate.
//! It is optimal and switch-free but, as the paper notes, not implementable
//! without coordination — it serves as the upper-bound reference.
//!
//! Devices join the coordinator one at a time ([`CentralizedCoordinator::join`]);
//! each joining device is assigned to the network that maximises its marginal
//! share. For singleton congestion games with equal-share utilities this greedy
//! insertion yields a pure Nash equilibrium allocation.

use crate::policy::{Observation, Policy, PolicyStats};
use crate::{ConfigError, NetworkId, SlotIndex};
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

#[derive(Debug)]
struct CoordinatorState {
    /// Bandwidth (Mbps) of each network.
    rates: BTreeMap<NetworkId, f64>,
    /// Number of devices currently assigned to each network.
    loads: BTreeMap<NetworkId, usize>,
    next_device: u64,
}

/// Central allocator that hands out Nash-equilibrium assignments.
#[derive(Debug, Clone)]
pub struct CentralizedCoordinator {
    state: Arc<Mutex<CoordinatorState>>,
}

impl CentralizedCoordinator {
    /// Creates a coordinator that knows the bandwidth of every network.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoNetworks`] if `network_rates` is empty, or
    /// [`ConfigError::ParameterOutOfRange`] if any rate is not finite and
    /// positive.
    pub fn new(network_rates: Vec<(NetworkId, f64)>) -> Result<Self, ConfigError> {
        if network_rates.is_empty() {
            return Err(ConfigError::NoNetworks);
        }
        let mut rates = BTreeMap::new();
        for (id, rate) in network_rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(ConfigError::ParameterOutOfRange {
                    parameter: "network_rate",
                    value: rate,
                    expected: "a finite value > 0",
                });
            }
            rates.insert(id, rate);
        }
        let loads = rates.keys().map(|&id| (id, 0usize)).collect();
        Ok(CentralizedCoordinator {
            state: Arc::new(Mutex::new(CoordinatorState {
                rates,
                loads,
                next_device: 0,
            })),
        })
    }

    /// Registers a new device and returns its policy, pinned to the network
    /// that maximises the device's share given the devices already assigned.
    pub fn join(&self) -> CentralizedPolicy {
        let assigned = self
            .assign_within(None)
            .expect("coordinator always has at least one network");
        CentralizedPolicy {
            coordinator: self.clone(),
            assigned,
        }
    }

    /// Assigns one device to the best marginal-share network, optionally
    /// restricted to `allowed`, and records the added load. Returns `None` if
    /// the restriction excludes every known network.
    fn assign_within(&self, allowed: Option<&[NetworkId]>) -> Option<NetworkId> {
        let mut state = self.state.lock().expect("coordinator lock poisoned");
        let assigned = state
            .rates
            .iter()
            .filter(|(id, _)| allowed.is_none_or(|a| a.contains(id)))
            .map(|(&id, &rate)| {
                let load = state.loads.get(&id).copied().unwrap_or(0);
                (id, rate / (load + 1) as f64)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)?;
        *state.loads.entry(assigned).or_insert(0) += 1;
        state.next_device += 1;
        Some(assigned)
    }

    /// Removes a device previously assigned to `network` (used when devices
    /// leave the service area).
    pub fn leave(&self, network: NetworkId) {
        let mut state = self.state.lock().expect("coordinator lock poisoned");
        if let Some(load) = state.loads.get_mut(&network) {
            *load = load.saturating_sub(1);
        }
    }

    /// Current number of devices assigned to each network.
    #[must_use]
    pub fn allocation(&self) -> Vec<(NetworkId, usize)> {
        let state = self.state.lock().expect("coordinator lock poisoned");
        state.loads.iter().map(|(&id, &n)| (id, n)).collect()
    }
}

/// A device-side handle of the [`CentralizedCoordinator`]: always selects the
/// network it was assigned at join time.
#[derive(Debug, Clone)]
pub struct CentralizedPolicy {
    coordinator: CentralizedCoordinator,
    assigned: NetworkId,
}

impl CentralizedPolicy {
    /// The network this device was assigned to.
    #[must_use]
    pub fn assigned(&self) -> NetworkId {
        self.assigned
    }

    /// Access to the coordinator (e.g. to deregister on leave).
    #[must_use]
    pub fn coordinator(&self) -> &CentralizedCoordinator {
        &self.coordinator
    }
}

impl Policy for CentralizedPolicy {
    fn kind(&self) -> crate::PolicyKind {
        crate::PolicyKind::Centralized
    }

    fn choose(&mut self, _slot: SlotIndex, _rng: &mut dyn RngCore) -> NetworkId {
        self.assigned
    }

    fn observe(&mut self, _observation: &Observation, _rng: &mut dyn RngCore) {}

    fn on_networks_changed(&mut self, available: &[NetworkId], _rng: &mut dyn RngCore) {
        if !available.contains(&self.assigned) {
            // Re-join through the coordinator, restricted to the networks this
            // device can still see.
            self.coordinator.leave(self.assigned);
            if let Some(assigned) = self.coordinator.assign_within(Some(available)) {
                self.assigned = assigned;
            }
        }
    }

    fn probabilities(&self) -> Vec<(NetworkId, f64)> {
        vec![(self.assigned, 1.0)]
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setting1() -> Vec<(NetworkId, f64)> {
        vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ]
    }

    #[test]
    fn twenty_devices_reach_the_unique_nash_allocation() {
        // Setting 1 of the paper: rates 4/7/22 Mbps, 20 devices → NE is 2/4/14.
        let coordinator = CentralizedCoordinator::new(setting1()).unwrap();
        let _policies: Vec<CentralizedPolicy> = (0..20).map(|_| coordinator.join()).collect();
        let mut alloc = coordinator.allocation();
        alloc.sort();
        assert_eq!(
            alloc,
            vec![(NetworkId(0), 2), (NetworkId(1), 4), (NetworkId(2), 14)]
        );
    }

    #[test]
    fn uniform_rates_spread_devices_evenly() {
        let coordinator = CentralizedCoordinator::new(vec![
            (NetworkId(0), 11.0),
            (NetworkId(1), 11.0),
            (NetworkId(2), 11.0),
        ])
        .unwrap();
        let _policies: Vec<CentralizedPolicy> = (0..20).map(|_| coordinator.join()).collect();
        let mut counts: Vec<usize> = coordinator
            .allocation()
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![6, 7, 7]);
    }

    #[test]
    fn allocation_is_a_nash_equilibrium() {
        // No device can improve by unilaterally moving.
        let coordinator = CentralizedCoordinator::new(setting1()).unwrap();
        let _policies: Vec<CentralizedPolicy> = (0..20).map(|_| coordinator.join()).collect();
        let alloc: BTreeMap<NetworkId, usize> = coordinator.allocation().into_iter().collect();
        let rates: BTreeMap<NetworkId, f64> = setting1().into_iter().collect();
        for (&net, &load) in &alloc {
            if load == 0 {
                continue;
            }
            let own_share = rates[&net] / load as f64;
            for (&other, &other_load) in &alloc {
                if other == net {
                    continue;
                }
                let share_if_moved = rates[&other] / (other_load + 1) as f64;
                assert!(
                    share_if_moved <= own_share + 1e-9,
                    "device on {net} could improve by moving to {other}"
                );
            }
        }
    }

    #[test]
    fn policy_never_switches_and_reports_point_mass() {
        let coordinator = CentralizedCoordinator::new(setting1()).unwrap();
        let mut policy = coordinator.join();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let first = policy.choose(0, &mut rng);
        for t in 1..50 {
            assert_eq!(policy.choose(t, &mut rng), first);
        }
        assert_eq!(policy.probabilities(), vec![(first, 1.0)]);
        assert_eq!(policy.stats().switches, 0);
    }

    #[test]
    fn rejects_empty_or_invalid_rates() {
        assert!(CentralizedCoordinator::new(vec![]).is_err());
        assert!(CentralizedCoordinator::new(vec![(NetworkId(0), -1.0)]).is_err());
    }

    #[test]
    fn reassigns_when_assigned_network_disappears() {
        let coordinator = CentralizedCoordinator::new(setting1()).unwrap();
        let mut policy = coordinator.join();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let original = policy.assigned();
        let remaining: Vec<NetworkId> = setting1()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|&n| n != original)
            .collect();
        policy.on_networks_changed(&remaining, &mut rng);
        assert_ne!(policy.assigned(), original);
    }
}
