//! Serializable policy state — the checkpoint format behind
//! [`Policy::state`](crate::Policy::state).
//!
//! A fleet engine hosting many sessions cannot name the concrete type behind
//! a `Box<dyn Policy>`, so checkpointing goes through this enum: every
//! distributed policy captures itself as a [`PolicyState`] (a plain serde
//! value) and [`PolicyState::into_policy`] turns a restored state back into a
//! boxed policy that behaves bit-identically from that point on.
//!
//! The centralized oracle is deliberately absent: its decision state lives in
//! a shared [`CentralizedCoordinator`](crate::CentralizedCoordinator), not in
//! the per-device policy, so it cannot be captured per session.

use crate::{Exp3, FixedRandom, FullInformation, Greedy, Policy, SmartExp3};
use serde::{Deserialize, Serialize};

/// The full learning state of one distributed policy instance.
///
/// Obtained from [`Policy::state`](crate::Policy::state); restored with
/// [`into_policy`](PolicyState::into_policy). The Smart EXP3 ablations
/// (Block EXP3, Hybrid Block EXP3, Smart EXP3 w/o Reset) are all
/// [`SmartExp3`] instances, each holding its
/// [`SmartExp3Variant`](crate::SmartExp3Variant), so they round-trip through
/// the [`PolicyState::SmartExp3`] variant and keep their
/// [`kind`](Policy::kind).
///
/// The variants carry *concrete* policy values, which is what lets the fleet
/// engine route a restored [`PolicyState::Exp3`] / [`PolicyState::SmartExp3`]
/// back into its monomorphized fleet lanes instead of boxing it: lane and
/// boxed sessions snapshot to the same bytes and restore bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyState {
    /// Slot-level EXP3.
    Exp3(Box<Exp3>),
    /// Smart EXP3 (any Table III variant).
    SmartExp3(Box<SmartExp3>),
    /// The greedy baseline.
    Greedy(Box<Greedy>),
    /// The fixed-random baseline.
    FixedRandom(Box<FixedRandom>),
    /// The full-information forecaster.
    FullInformation(Box<FullInformation>),
}

impl PolicyState {
    /// Rebuilds a boxed policy from this state.
    #[must_use]
    pub fn into_policy(self) -> Box<dyn Policy> {
        match self {
            PolicyState::Exp3(p) => p,
            PolicyState::SmartExp3(p) => p,
            PolicyState::Greedy(p) => p,
            PolicyState::FixedRandom(p) => p,
            PolicyState::FullInformation(p) => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkId, Observation, PolicyFactory, PolicyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rates() -> Vec<(NetworkId, f64)> {
        vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ]
    }

    #[test]
    fn every_distributed_policy_captures_state() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        for kind in PolicyKind::all() {
            let policy = factory.build(kind).unwrap();
            if kind == PolicyKind::Centralized {
                assert!(policy.state().is_none(), "centralized state is shared");
            } else {
                assert!(policy.state().is_some(), "{kind} must capture state");
            }
        }
    }

    #[test]
    fn restored_policy_continues_bit_identically() {
        let mut factory = PolicyFactory::new(rates()).unwrap();
        for kind in PolicyKind::exp3_family() {
            let mut original = factory.build(kind).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            for slot in 0..40 {
                let chosen = original.choose(slot, &mut rng);
                let gain = if chosen == NetworkId(2) { 0.9 } else { 0.2 };
                original.observe(
                    &Observation::bandit(slot, chosen, gain * 22.0, gain),
                    &mut rng,
                );
            }

            let mut restored = original.state().expect("captures state").into_policy();
            // Drive both copies with identical RNG streams; they must agree.
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            for slot in 40..120 {
                let a = original.choose(slot, &mut rng_a);
                let b = restored.choose(slot, &mut rng_b);
                assert_eq!(a, b, "{kind} diverged at slot {slot}");
                let gain = 0.5;
                original.observe(&Observation::bandit(slot, a, gain * 22.0, gain), &mut rng_a);
                restored.observe(&Observation::bandit(slot, b, gain * 22.0, gain), &mut rng_b);
            }
            assert_eq!(original.stats(), restored.stats());
        }
    }
}
