//! The paper's Table III ablation ladder of [`SmartExp3`](crate::SmartExp3).

use crate::PolicyKind;
use serde::{Deserialize, Serialize};

/// Which rung of the paper's Table III ladder a Smart EXP3 policy runs, and
/// so which of its mechanisms are on:
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
pub enum SmartExp3Variant {
    /// Only adaptive blocking on top of EXP3.
    BlockExp3,
    /// Block EXP3 plus the greedy policy and the initial exploration that
    /// feeds it.
    HybridBlockExp3,
    /// Smart EXP3 without the reset mechanism.
    SmartExp3WithoutReset,
    /// The full Smart EXP3 algorithm.
    SmartExp3,
}

impl SmartExp3Variant {
    /// Whether every available network is visited once (in random order)
    /// before the probability distribution is used.
    pub(crate) fn explores(self) -> bool {
        self != SmartExp3Variant::BlockExp3
    }

    /// Whether the network with the highest average gain is occasionally
    /// picked deterministically (coin-flip greedy policy, §III "Greedy
    /// choices").
    pub(crate) fn greedy(self) -> bool {
        self != SmartExp3Variant::BlockExp3
    }

    /// Whether a disappointing first slot of a block returns the device to
    /// its previous network (§III "Switching back").
    pub(crate) fn switches_back(self) -> bool {
        matches!(
            self,
            SmartExp3Variant::SmartExp3WithoutReset | SmartExp3Variant::SmartExp3
        )
    }

    /// Whether the minimal reset runs: periodic, and on a sustained drop in
    /// the quality of the most-used network (§III "Minimal reset").
    pub(crate) fn resets(self) -> bool {
        self == SmartExp3Variant::SmartExp3
    }

    /// The [`PolicyKind`] this rung is evaluated as.
    pub(crate) fn kind(self) -> PolicyKind {
        match self {
            SmartExp3Variant::BlockExp3 => PolicyKind::BlockExp3,
            SmartExp3Variant::HybridBlockExp3 => PolicyKind::HybridBlockExp3,
            SmartExp3Variant::SmartExp3WithoutReset => PolicyKind::SmartExp3WithoutReset,
            SmartExp3Variant::SmartExp3 => PolicyKind::SmartExp3,
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
        let mechanisms =
            |v: SmartExp3Variant| [v.explores(), v.greedy(), v.switches_back(), v.resets()];
        let ladder = [
            SmartExp3Variant::BlockExp3,
            SmartExp3Variant::HybridBlockExp3,
            SmartExp3Variant::SmartExp3WithoutReset,
            SmartExp3Variant::SmartExp3,
        ]
        .map(mechanisms);
        assert_eq!(
            ladder,
            [
                [false, false, false, false],
                [true, true, false, false],
                [true, true, true, false],
                [true, true, true, true],
            ]
        );
    }
}
