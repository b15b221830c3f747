//! Exploration-rate (γ) schedules.
//!
//! The paper's implementation (§V) uses `γ = b^{-1/3}` where `b` is the block
//! index, so exploration decays over time and the convergence argument of
//! Theorem 1 (which requires γ → 0) applies. A fixed γ is also provided for
//! textbook EXP3.

use crate::error::check_unit_interval;
use crate::ConfigError;
use serde::{Deserialize, Serialize};

/// A schedule mapping a decision index (block or slot, 1-based) to γ ∈ (0, 1].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GammaSchedule {
    /// Constant exploration rate.
    Fixed(f64),
    /// `γ(b) = b^{-1/3}`, clamped to `[floor, 1]`; the paper's choice, after
    /// Maghsudi & Stanczak (relay selection with adversarial bandits).
    InverseCubeRoot {
        /// Lower clamp preventing γ from reaching exactly 0 (keeps the
        /// distribution mixed); the paper effectively uses 0.
        floor: f64,
    },
}

impl GammaSchedule {
    /// The paper's default schedule: `γ = b^{-1/3}` with a tiny floor.
    #[must_use]
    pub fn paper_default() -> Self {
        GammaSchedule::InverseCubeRoot { floor: 1e-3 }
    }

    /// Checks the schedule's parameter: a fixed γ must lie in `(0, 1]`, an
    /// [`InverseCubeRoot`](Self::InverseCubeRoot) floor in `[0, 1]` (a floor
    /// of 0 is valid: [`value`](Self::value) lifts it to the smallest
    /// positive `f64`). Every config holding a schedule validates it here.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            GammaSchedule::Fixed(gamma) => check_unit_interval("gamma", gamma),
            GammaSchedule::InverseCubeRoot { floor } if (0.0..=1.0).contains(&floor) => Ok(()),
            GammaSchedule::InverseCubeRoot { floor } => Err(ConfigError::ParameterOutOfRange {
                parameter: "gamma floor",
                value: floor,
                expected: "a finite value in [0, 1]",
            }),
        }
    }

    /// Evaluates the schedule at `index` (1-based). An `index` of 0 is treated
    /// as 1.
    ///
    /// Every fresh decision of every session evaluates the schedule, so the
    /// common small indices read a process-wide precomputed table instead of
    /// paying a `powf` each time; the table holds exactly the values the
    /// direct computation produces.
    #[must_use]
    pub fn value(&self, index: usize) -> f64 {
        match *self {
            GammaSchedule::Fixed(gamma) => gamma.clamp(f64::MIN_POSITIVE, 1.0),
            GammaSchedule::InverseCubeRoot { floor } => {
                let index = index.max(1);
                let raw = inverse_cube_root_cached(index);
                raw.clamp(floor.max(f64::MIN_POSITIVE), 1.0)
            }
        }
    }
}

/// `index^{-1/3}`, read from a lazily initialised table for small indices.
fn inverse_cube_root_cached(index: usize) -> f64 {
    use std::sync::OnceLock;
    const TABLE_SIZE: usize = 4_096;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    if index < TABLE_SIZE {
        let table = TABLE.get_or_init(|| {
            (0..TABLE_SIZE)
                .map(|b| inverse_cube_root(b.max(1)))
                .collect()
        });
        table[index]
    } else {
        inverse_cube_root(index)
    }
}

fn inverse_cube_root(index: usize) -> f64 {
    (index as f64).powf(-1.0 / 3.0)
}

impl Default for GammaSchedule {
    fn default() -> Self {
        GammaSchedule::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_schedule_is_constant_and_clamped() {
        let schedule = GammaSchedule::Fixed(0.3);
        assert_eq!(schedule.value(1), 0.3);
        assert_eq!(schedule.value(1000), 0.3);
        assert_eq!(GammaSchedule::Fixed(5.0).value(10), 1.0);
    }

    #[test]
    fn inverse_cube_root_starts_at_one_and_decays() {
        let schedule = GammaSchedule::paper_default();
        assert!((schedule.value(1) - 1.0).abs() < 1e-12);
        assert!((schedule.value(8) - 0.5).abs() < 1e-12);
        assert!(schedule.value(1000) < schedule.value(10));
    }

    #[test]
    fn floor_is_respected() {
        let schedule = GammaSchedule::InverseCubeRoot { floor: 0.05 };
        assert!(schedule.value(usize::MAX / 2) >= 0.05);
    }

    #[test]
    fn constructors_reject_a_floor_outside_the_unit_interval() {
        // A floor above 1 used to pass validation, and the first γ then
        // panicked in `clamp` (min > max) inside a constructor that returns
        // `Result`.
        use crate::{Exp3, Exp3Config, NetworkId, SmartExp3, SmartExp3Config};
        let networks = vec![NetworkId(0), NetworkId(1)];
        for floor in [6.0, 2.0, 1.0 + f64::EPSILON, -0.5, f64::NAN, f64::INFINITY] {
            let gamma = GammaSchedule::InverseCubeRoot { floor };
            let exp3 = Exp3Config {
                gamma,
                ..Exp3Config::default()
            };
            let smart = SmartExp3Config {
                gamma,
                ..SmartExp3Config::default()
            };
            assert!(Exp3::new(networks.clone(), exp3).is_err(), "{floor}");
            assert!(SmartExp3::new(networks.clone(), smart).is_err(), "{floor}");
        }
        for floor in [0.0, 1e-3, 1.0] {
            let gamma = GammaSchedule::InverseCubeRoot { floor };
            assert_eq!(gamma.validate(), Ok(()), "{floor}");
            assert!(gamma.value(usize::MAX / 2) > 0.0);
        }
    }

    #[test]
    fn index_zero_is_treated_as_one() {
        let schedule = GammaSchedule::paper_default();
        assert_eq!(schedule.value(0), schedule.value(1));
    }
}
