//! # smartexp3-core
//!
//! Bandit-style policies for **distributed resource selection**, reproducing the
//! algorithms of *"Shrewd Selection Speeds Surfing: Use Smart EXP3!"*
//! (Appavoo, Gilbert, Tan — ICDCS 2018).
//!
//! The paper studies wireless network selection: every time slot, each mobile
//! device independently picks one of the wireless networks available to it and
//! observes the bit rate it obtains (its *gain*). The crate provides:
//!
//! * [`SmartExp3`] — the paper's contribution: EXP3 augmented with adaptive
//!   blocking, an initial exploration phase, occasional greedy choices, a
//!   switch-back mechanism and a minimal reset (Algorithm 1 + §V). A
//!   [`SmartExp3Variant`] picks the rung of the paper's Table III ablation
//!   ladder it runs (Block EXP3, Hybrid Block EXP3, Smart EXP3 w/o Reset or
//!   the full algorithm).
//! * The baselines it is evaluated against: [`Exp3`], [`Greedy`],
//!   [`FixedRandom`], [`FullInformation`] and the oracle
//!   [`CentralizedCoordinator`] / [`CentralizedPolicy`].
//! * The [`Policy`] trait that a simulator (see the `netsim` crate) drives one
//!   slot at a time.
//! * [`theory`] — closed forms of the paper's Theorem 2 (switch bound) and
//!   Theorem 3 (weak-regret bound), used by tests and benches.
//!
//! ## Quick example
//!
//! ```rust
//! use rand::SeedableRng;
//! use smartexp3_core::{NetworkId, Policy, SamplerStrategy, SmartExp3, SmartExp3Variant};
//!
//! # fn main() -> Result<(), smartexp3_core::ConfigError> {
//! let nets = vec![NetworkId(0), NetworkId(1), NetworkId(2)];
//! let mut policy = SmartExp3::new(nets, SmartExp3Variant::SmartExp3, SamplerStrategy::Linear)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! for slot in 0..100 {
//!     let chosen = policy.choose(slot, &mut rng);
//!     // pretend network 2 is consistently the best
//!     let gain = if chosen == NetworkId(2) { 0.9 } else { 0.2 };
//!     let obs = smartexp3_core::Observation::bandit(slot, chosen, gain * 22.0, gain);
//!     policy.observe(&obs, &mut rng);
//! }
//! assert!(policy.probabilities().iter().any(|(n, p)| *n == NetworkId(2) && *p > 0.3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod centralized;
mod environment;
mod error;
mod exp3;
mod factory;
mod fixed_random;
mod full_information;
mod gamma;
mod greedy;
mod policy;
mod shared;
mod smart_exp3;
mod state;
mod stats;
pub mod theory;
mod types;
mod weights;

pub use block::{block_length, BlockState};
pub use centralized::{CentralizedCoordinator, CentralizedPolicy};
pub use environment::{
    EnvStateError, Environment, PartitionExecutor, PartitionJob, SequentialExecutor, SessionRange,
    SessionView,
};
pub use error::ConfigError;
pub use exp3::Exp3;
pub use factory::{FleetPolicies, PolicyFactory, PolicyKind};
pub use fixed_random::FixedRandom;
pub use full_information::FullInformation;
pub use greedy::Greedy;
pub use policy::{probability_of, Observation, Policy, PolicyStats, SelectionKind};
pub use shared::{SharedFeedback, SharedRate};
pub use smart_exp3::{SmartExp3, SmartExp3Variant};
pub use smartexp3_telemetry::SlotMetrics;
pub use state::PolicyState;
pub use stats::NetworkStats;
pub use types::{splitmix64, BlockIndex, NetworkId, SlotIndex};
pub use weights::{DistributionSummary, SamplerStrategy, WeightTable};
