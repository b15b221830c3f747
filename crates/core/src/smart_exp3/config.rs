//! Configuration of [`SmartExp3`](crate::SmartExp3) and its feature-ablation
//! variants.

use crate::SamplerStrategy;
use serde::{Deserialize, Serialize};

/// Which of Smart EXP3's mechanisms are enabled.
///
/// The paper's Table III defines an ablation ladder; each named variant of the
/// algorithm corresponds to one combination of these flags:
///
/// | Variant                | blocks | explore | greedy | switch-back | reset |
/// |------------------------|--------|---------|--------|-------------|-------|
/// | Block EXP3             | ✓      |         |        |             |       |
/// | Hybrid Block EXP3      | ✓      | ✓       | ✓      |             |       |
/// | Smart EXP3 w/o Reset   | ✓      | ✓       | ✓      | ✓           |       |
/// | Smart EXP3             | ✓      | ✓       | ✓      | ✓           | ✓     |
///
/// (Adaptive blocking is always on — it is what distinguishes this whole
/// family from plain [`Exp3`](crate::Exp3).)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmartExp3Features {
    /// Explore every available network once (in random order) before using the
    /// probability distribution.
    pub initial_exploration: bool,
    /// Occasionally pick the network with the highest average gain
    /// deterministically (coin-flip greedy policy, §III "Greedy choices").
    pub greedy: bool,
    /// Return to the previous network after a disappointing first slot of a
    /// block (§III "Switching back").
    pub switch_back: bool,
    /// Minimal reset: periodic, and on a sustained drop in the quality of the
    /// most-used network (§III "Minimal reset").
    pub reset: bool,
}

impl SmartExp3Features {
    /// All mechanisms on — full Smart EXP3.
    #[must_use]
    pub fn smart_exp3() -> Self {
        SmartExp3Features {
            initial_exploration: true,
            greedy: true,
            switch_back: true,
            reset: true,
        }
    }

    /// Smart EXP3 without the reset mechanism (Table III).
    #[must_use]
    pub fn smart_exp3_without_reset() -> Self {
        SmartExp3Features {
            reset: false,
            ..Self::smart_exp3()
        }
    }

    /// Block EXP3 + initial exploration + greedy policy (Table III).
    #[must_use]
    pub fn hybrid_block_exp3() -> Self {
        SmartExp3Features {
            initial_exploration: true,
            greedy: true,
            switch_back: false,
            reset: false,
        }
    }

    /// Only adaptive blocking on top of EXP3 (Table III).
    #[must_use]
    pub fn block_exp3() -> Self {
        SmartExp3Features {
            initial_exploration: false,
            greedy: false,
            switch_back: false,
            reset: false,
        }
    }
}

impl Default for SmartExp3Features {
    fn default() -> Self {
        Self::smart_exp3()
    }
}

/// What a caller chooses about a Smart EXP3 policy: which mechanisms run,
/// and how a fresh decision's draw inverts the CDF. The default is full
/// Smart EXP3 on the `Linear` sampler.
///
/// Every numeric parameter is fixed at the paper's §V value: `β = 0.1`,
/// `γ = b^{-1/3}` (clamped to `[10⁻³, 1]`), an 8-slot switch-back window
/// with a 50 % majority, periodic reset at `p ≥ 0.75 ∧ l ≥ 40`, and a drop
/// reset after more than 4 slots of a ≥ 15 % decline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SmartExp3Config {
    /// Enabled mechanisms (see [`SmartExp3Features`]).
    pub features: SmartExp3Features,
    /// How the fresh-decision random draw inverts the CDF (see
    /// [`SamplerStrategy`]). Golden decision pins are scoped to this choice;
    /// the default `Linear` reproduces the historical trajectories
    /// bit-exactly.
    pub sampler: SamplerStrategy,
}

impl SmartExp3Config {
    /// The paper's configuration with a different feature set (used to build
    /// the Table III ablation variants).
    #[must_use]
    pub fn with_features(features: SmartExp3Features) -> Self {
        SmartExp3Config {
            features,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        BETA, RESET_BLOCK_LENGTH, RESET_DROP_FRACTION, RESET_DROP_SLOTS, RESET_PROBABILITY,
        SWITCH_BACK_MAJORITY, SWITCH_BACK_WINDOW,
    };
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = SmartExp3Config::default();
        assert_eq!(config.features, SmartExp3Features::smart_exp3());
        assert_eq!(config.sampler, SamplerStrategy::Linear);
        assert_eq!(BETA, 0.1);
        assert_eq!(SWITCH_BACK_WINDOW, 8);
        assert_eq!(SWITCH_BACK_MAJORITY, 0.5);
        assert_eq!(RESET_PROBABILITY, 0.75);
        assert_eq!(RESET_BLOCK_LENGTH, 40);
        assert_eq!(RESET_DROP_FRACTION, 0.15);
        assert_eq!(RESET_DROP_SLOTS, 4);
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        let block = SmartExp3Features::block_exp3();
        let hybrid = SmartExp3Features::hybrid_block_exp3();
        let no_reset = SmartExp3Features::smart_exp3_without_reset();
        let smart = SmartExp3Features::smart_exp3();
        assert!(!block.greedy && !block.switch_back && !block.reset);
        assert!(hybrid.greedy && !hybrid.switch_back);
        assert!(no_reset.switch_back && !no_reset.reset);
        assert!(smart.reset);
    }
}
