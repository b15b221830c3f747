//! Convenience factory that builds any of the paper's nine algorithms by name.
//!
//! The evaluation harness (and downstream users comparing algorithms) can
//! iterate over [`PolicyKind::all`] and construct one policy per device with a
//! [`PolicyFactory`], without caring about the per-algorithm constructor
//! signatures (the centralized oracle, for instance, needs a shared
//! coordinator that knows every network's bandwidth).

use crate::{
    CentralizedCoordinator, ConfigError, Exp3, FixedRandom, FullInformation, Greedy, NetworkId,
    Policy, SamplerStrategy, SmartExp3, SmartExp3Variant,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The nine selection algorithms evaluated in the paper (Tables II and III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Slot-level EXP3 (Auer et al.).
    Exp3,
    /// EXP3 with adaptive blocking only.
    BlockExp3,
    /// Block EXP3 plus the greedy policy (and initial exploration).
    HybridBlockExp3,
    /// Smart EXP3 with the reset mechanism disabled.
    SmartExp3WithoutReset,
    /// The full Smart EXP3 algorithm.
    SmartExp3,
    /// Explore once, then always pick the best empirical average.
    Greedy,
    /// Pick a network uniformly at random once and never move.
    FixedRandom,
    /// Exponentially weighted forecaster with full (counterfactual) feedback.
    FullInformation,
    /// Centralized oracle that assigns devices to a Nash-equilibrium allocation.
    Centralized,
}

impl PolicyKind {
    /// Every algorithm, in the order the paper's figures list them.
    #[must_use]
    pub fn all() -> [PolicyKind; 9] {
        [
            PolicyKind::Exp3,
            PolicyKind::BlockExp3,
            PolicyKind::HybridBlockExp3,
            PolicyKind::SmartExp3WithoutReset,
            PolicyKind::SmartExp3,
            PolicyKind::Greedy,
            PolicyKind::FullInformation,
            PolicyKind::Centralized,
            PolicyKind::FixedRandom,
        ]
    }

    /// The bandit-feedback members of the EXP3 family (Table III ablation).
    #[must_use]
    pub fn exp3_family() -> [PolicyKind; 5] {
        [
            PolicyKind::Exp3,
            PolicyKind::BlockExp3,
            PolicyKind::HybridBlockExp3,
            PolicyKind::SmartExp3WithoutReset,
            PolicyKind::SmartExp3,
        ]
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Exp3 => "EXP3",
            PolicyKind::BlockExp3 => "Block EXP3",
            PolicyKind::HybridBlockExp3 => "Hybrid Block EXP3",
            PolicyKind::SmartExp3WithoutReset => "Smart EXP3 w/o Reset",
            PolicyKind::SmartExp3 => "Smart EXP3",
            PolicyKind::Greedy => "Greedy",
            PolicyKind::FixedRandom => "Fixed Random",
            PolicyKind::FullInformation => "Full Information",
            PolicyKind::Centralized => "Centralized",
        }
    }

    /// `true` for algorithms that require full (counterfactual) feedback from
    /// the environment.
    #[must_use]
    pub fn needs_full_information(&self) -> bool {
        matches!(self, PolicyKind::FullInformation)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A homogeneous batch of policies built by
/// [`PolicyFactory::build_fleet_concrete`]: the EXP3 family comes back as
/// concrete values so the fleet engine can store them inline in its
/// monomorphized **fleet lanes** (contiguous per-kind storage, static
/// dispatch); every other kind stays behind the trait object and runs on the
/// boxed fallback lane.
pub enum FleetPolicies {
    /// Concrete slot-level EXP3 instances ([`PolicyKind::Exp3`]).
    Exp3(Vec<Exp3>),
    /// Concrete Smart EXP3 instances — the full algorithm or any Table III
    /// ablation (`BlockExp3`, `HybridBlockExp3`, `SmartExp3WithoutReset`,
    /// `SmartExp3` are all one concrete type holding different
    /// [`SmartExp3Variant`]s).
    SmartExp3(Vec<SmartExp3>),
    /// Policies that only exist behind `Box<dyn Policy>` (the baselines, the
    /// oracles, and — via [`PolicyFactory::build_fleet`] — any future kind
    /// without a dedicated lane).
    Boxed(Vec<Box<dyn Policy>>),
}

impl FleetPolicies {
    /// Number of policies in the batch, whatever the lane.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FleetPolicies::Exp3(v) => v.len(),
            FleetPolicies::SmartExp3(v) => v.len(),
            FleetPolicies::Boxed(v) => v.len(),
        }
    }

    /// `true` when the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds policies of any [`PolicyKind`] for one common environment.
#[derive(Debug, Clone)]
pub struct PolicyFactory {
    networks: Vec<NetworkId>,
    network_rates: Vec<(NetworkId, f64)>,
    sampler: SamplerStrategy,
    coordinator: Option<CentralizedCoordinator>,
}

impl PolicyFactory {
    /// Creates a factory for an environment whose networks have the given
    /// bandwidths (Mbps). The bandwidths are only used by the centralized
    /// oracle; bandit policies never see them.
    ///
    /// # Errors
    ///
    /// Returns an error if the network list is empty or contains duplicates.
    pub fn new(network_rates: Vec<(NetworkId, f64)>) -> Result<Self, ConfigError> {
        let networks: Vec<NetworkId> = network_rates.iter().map(|(n, _)| *n).collect();
        crate::error::check_networks(&networks)?;
        Ok(PolicyFactory {
            networks,
            network_rates,
            sampler: SamplerStrategy::default(),
            coordinator: None,
        })
    }

    /// Selects the CDF-inversion strategy for every EXP3-family policy this
    /// factory builds (both the slot-level baseline and the Smart EXP3
    /// variants), the one setting a factory holds besides its networks: the
    /// Smart EXP3 kind picks the variant, and every other parameter is the
    /// paper's. Dense-spectrum worlds pass [`SamplerStrategy::Alias`]
    /// here to make each draw amortised O(1) instead of O(k).
    #[must_use]
    pub fn with_sampler(mut self, sampler: SamplerStrategy) -> Self {
        self.sampler = sampler;
        self
    }

    /// The networks this factory builds policies for.
    #[must_use]
    pub fn networks(&self) -> &[NetworkId] {
        &self.networks
    }

    /// Builds `count` independent policies of the requested kind — the bulk
    /// construction hook used by the fleet engine to spin up large fleets
    /// without per-session factory plumbing.
    ///
    /// Equivalent to calling [`build`](Self::build) `count` times: for
    /// [`PolicyKind::Centralized`] every instance registers one more device
    /// with the shared coordinator.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the underlying constructors.
    pub fn build_fleet(
        &mut self,
        kind: PolicyKind,
        count: usize,
    ) -> Result<Vec<Box<dyn Policy>>, ConfigError> {
        (0..count).map(|_| self.build(kind)).collect()
    }

    /// Builds `count` independent policies of the requested kind as a
    /// *concrete* homogeneous batch — the construction hook behind the fleet
    /// engine's lanes. The policies are constructed by exactly the same
    /// constructor calls as [`build_fleet`](Self::build_fleet), so a lane
    /// fleet starts from bit-identical state; only the storage differs.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the underlying constructors.
    pub fn build_fleet_concrete(
        &mut self,
        kind: PolicyKind,
        count: usize,
    ) -> Result<FleetPolicies, ConfigError> {
        Ok(match kind {
            PolicyKind::Exp3 => FleetPolicies::Exp3(
                (0..count)
                    .map(|_| Exp3::new(self.networks.clone(), self.sampler))
                    .collect::<Result<_, _>>()?,
            ),
            PolicyKind::BlockExp3
            | PolicyKind::HybridBlockExp3
            | PolicyKind::SmartExp3WithoutReset
            | PolicyKind::SmartExp3 => {
                let variant = smart_variant(kind);
                FleetPolicies::SmartExp3(
                    (0..count)
                        .map(|_| SmartExp3::new(self.networks.clone(), variant, self.sampler))
                        .collect::<Result<_, _>>()?,
                )
            }
            _ => FleetPolicies::Boxed(self.build_fleet(kind, count)?),
        })
    }

    /// Builds one policy of the requested kind.
    ///
    /// Each call for [`PolicyKind::Centralized`] registers one more device
    /// with the shared coordinator, so calling it once per device yields the
    /// Nash-equilibrium allocation.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the underlying constructors.
    pub fn build(&mut self, kind: PolicyKind) -> Result<Box<dyn Policy>, ConfigError> {
        let networks = self.networks.clone();
        let policy: Box<dyn Policy> = match kind {
            PolicyKind::Exp3 => Box::new(Exp3::new(networks, self.sampler)?),
            PolicyKind::BlockExp3
            | PolicyKind::HybridBlockExp3
            | PolicyKind::SmartExp3WithoutReset
            | PolicyKind::SmartExp3 => {
                Box::new(SmartExp3::new(networks, smart_variant(kind), self.sampler)?)
            }
            PolicyKind::Greedy => Box::new(Greedy::new(networks)?),
            PolicyKind::FixedRandom => Box::new(FixedRandom::new(networks)?),
            PolicyKind::FullInformation => Box::new(FullInformation::new(networks)?),
            PolicyKind::Centralized => {
                if self.coordinator.is_none() {
                    self.coordinator =
                        Some(CentralizedCoordinator::new(self.network_rates.clone())?);
                }
                Box::new(
                    self.coordinator
                        .as_ref()
                        .expect("coordinator initialised above")
                        .join(),
                )
            }
        };
        Ok(policy)
    }
}

/// The Table III rung of one of the Smart EXP3 family's four kinds.
fn smart_variant(kind: PolicyKind) -> SmartExp3Variant {
    match kind {
        PolicyKind::BlockExp3 => SmartExp3Variant::BlockExp3,
        PolicyKind::HybridBlockExp3 => SmartExp3Variant::HybridBlockExp3,
        PolicyKind::SmartExp3WithoutReset => SmartExp3Variant::SmartExp3WithoutReset,
        _ => SmartExp3Variant::SmartExp3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> Vec<(NetworkId, f64)> {
        vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ]
    }

    #[test]
    fn every_kind_builds_and_reports_its_label() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        for kind in PolicyKind::all() {
            let policy = factory.build(kind).unwrap();
            assert_eq!(policy.kind(), kind, "kind mismatch for {kind:?}");
            let kinds: Vec<PolicyKind> = match factory.build_fleet_concrete(kind, 2).unwrap() {
                FleetPolicies::Exp3(v) => v.iter().map(Policy::kind).collect(),
                FleetPolicies::SmartExp3(v) => v.iter().map(Policy::kind).collect(),
                FleetPolicies::Boxed(v) => v.iter().map(Policy::kind).collect(),
            };
            assert_eq!(kinds, [kind; 2], "fleet kind mismatch for {kind:?}");
        }
    }

    #[test]
    fn centralized_devices_share_one_coordinator() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20 {
            let mut policy = factory.build(PolicyKind::Centralized).unwrap();
            *counts.entry(policy.choose(0, &mut rng)).or_insert(0) += 1;
        }
        assert_eq!(counts.get(&NetworkId(2)), Some(&14));
        assert_eq!(counts.get(&NetworkId(1)), Some(&4));
        assert_eq!(counts.get(&NetworkId(0)), Some(&2));
    }

    #[test]
    fn concrete_fleets_match_boxed_fleets_at_construction() {
        for kind in PolicyKind::all() {
            let mut concrete_factory = PolicyFactory::new(rates()).unwrap();
            let mut boxed_factory = PolicyFactory::new(rates()).unwrap();
            let concrete = concrete_factory.build_fleet_concrete(kind, 3).unwrap();
            let boxed = boxed_factory.build_fleet(kind, 3).unwrap();
            assert_eq!(concrete.len(), 3);
            assert!(!concrete.is_empty());
            let concrete_kinds: Vec<PolicyKind> = match &concrete {
                FleetPolicies::Exp3(v) => v.iter().map(Policy::kind).collect(),
                FleetPolicies::SmartExp3(v) => v.iter().map(Policy::kind).collect(),
                FleetPolicies::Boxed(v) => v.iter().map(Policy::kind).collect(),
            };
            let boxed_kinds: Vec<PolicyKind> = boxed.iter().map(Policy::kind).collect();
            assert_eq!(concrete_kinds, boxed_kinds, "kind mismatch for {kind:?}");
            let expect_lane = matches!(
                kind,
                PolicyKind::Exp3
                    | PolicyKind::BlockExp3
                    | PolicyKind::HybridBlockExp3
                    | PolicyKind::SmartExp3WithoutReset
                    | PolicyKind::SmartExp3
            );
            assert_eq!(
                !matches!(concrete, FleetPolicies::Boxed(_)),
                expect_lane,
                "lane routing mismatch for {kind:?}"
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<&str> =
            PolicyKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), PolicyKind::all().len());
    }

    #[test]
    fn duplicate_networks_are_rejected() {
        let result = PolicyFactory::new(vec![(NetworkId(0), 4.0), (NetworkId(0), 7.0)]);
        assert!(result.is_err());
    }
}
