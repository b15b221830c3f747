//! Configuration of [`SmartExp3`](crate::SmartExp3) and its feature-ablation
//! variants.

use crate::error::{check_positive, check_unit_interval};
use crate::{ConfigError, GammaSchedule, SamplerStrategy};
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

/// Full configuration of the Smart EXP3 family.
///
/// The defaults reproduce the parameter choices of §V of the paper:
/// `β = 0.1`, `γ = b^{-1/3}`, a 15-second slot, an 8-slot switch-back window,
/// periodic reset at `p ≥ 0.75 ∧ l ≥ 40`, and drop-triggered reset at a
/// sustained ≥15 % decline over more than 4 slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmartExp3Config {
    /// Block-growth factor β ∈ (0, 1]; block length is `⌈(1+β)^x⌉`.
    pub beta: f64,
    /// Exploration-rate schedule, evaluated at the block index.
    pub gamma: GammaSchedule,
    /// Enabled mechanisms (see [`SmartExp3Features`]).
    pub features: SmartExp3Features,
    /// Number of trailing slots of the previous block consulted by the
    /// switch-back rule (paper: 8).
    pub switch_back_window: usize,
    /// Fraction of the window that must have exceeded the current gain for
    /// the "more than 50 % of the time" switch-back trigger (paper: 0.5).
    pub switch_back_majority: f64,
    /// Periodic reset fires when the most probable network's probability
    /// reaches this threshold … (paper: 0.75).
    pub reset_probability_threshold: f64,
    /// … and its next block length reaches this many slots (paper: 40).
    pub reset_block_length_threshold: u64,
    /// Drop-triggered reset: relative decline on the most-used network that
    /// counts as significant (paper: 0.15, i.e. 15 %).
    pub reset_drop_fraction: f64,
    /// Drop-triggered reset: number of consecutive declining slots that must
    /// be exceeded (paper: 4).
    pub reset_drop_slots: u32,
    /// How the fresh-decision random draw inverts the CDF (see
    /// [`SamplerStrategy`]). Golden decision pins are scoped to this choice;
    /// the default `Linear` reproduces the historical trajectories
    /// bit-exactly.
    pub sampler: SamplerStrategy,
}

impl Default for SmartExp3Config {
    fn default() -> Self {
        SmartExp3Config {
            beta: 0.1,
            gamma: GammaSchedule::paper_default(),
            features: SmartExp3Features::smart_exp3(),
            switch_back_window: 8,
            switch_back_majority: 0.5,
            reset_probability_threshold: 0.75,
            reset_block_length_threshold: 40,
            reset_drop_fraction: 0.15,
            reset_drop_slots: 4,
            sampler: SamplerStrategy::default(),
        }
    }
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

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_unit_interval("beta", self.beta)?;
        self.gamma.validate()?;
        check_unit_interval("switch_back_majority", self.switch_back_majority)?;
        check_unit_interval(
            "reset_probability_threshold",
            self.reset_probability_threshold,
        )?;
        check_unit_interval("reset_drop_fraction", self.reset_drop_fraction)?;
        check_positive(
            "reset_block_length_threshold",
            self.reset_block_length_threshold as f64,
        )?;
        if self.switch_back_window == 0 {
            return Err(ConfigError::ParameterOutOfRange {
                parameter: "switch_back_window",
                value: 0.0,
                expected: "at least 1 slot",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = SmartExp3Config::default();
        assert_eq!(config.beta, 0.1);
        assert_eq!(config.switch_back_window, 8);
        assert_eq!(config.reset_probability_threshold, 0.75);
        assert_eq!(config.reset_block_length_threshold, 40);
        assert_eq!(config.reset_drop_fraction, 0.15);
        assert_eq!(config.reset_drop_slots, 4);
        assert!(config.validate().is_ok());
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

    #[test]
    fn invalid_parameters_are_rejected() {
        let config = SmartExp3Config {
            beta: 0.0,
            ..SmartExp3Config::default()
        };
        assert!(config.validate().is_err());

        let config = SmartExp3Config {
            switch_back_window: 0,
            ..SmartExp3Config::default()
        };
        assert!(config.validate().is_err());

        let config = SmartExp3Config {
            reset_drop_fraction: 1.5,
            ..SmartExp3Config::default()
        };
        assert!(config.validate().is_err());
    }
}
