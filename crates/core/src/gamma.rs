//! The exploration rate γ.
//!
//! The paper's implementation (§V) uses `γ = b^{-1/3}` where `b` is the block
//! index, so exploration decays over time and the convergence argument of
//! Theorem 1 (which requires γ → 0) applies. EXP3 (one block per slot) and
//! Smart EXP3 both evaluate it at their block count.

/// Lower clamp keeping the distribution mixed; the paper effectively uses 0.
const GAMMA_FLOOR: f64 = 1e-3;

/// γ at `index` (1-based; 0 is treated as 1): `index^{-1/3}` clamped to
/// `[1e-3, 1]`, the paper's choice after Maghsudi & Stanczak (relay
/// selection with adversarial bandits).
///
/// Every fresh decision of every session evaluates it, so the common small
/// indices read a process-wide precomputed table instead of paying a `powf`
/// each time; the table holds exactly the values the direct computation
/// produces.
pub(crate) fn gamma(index: usize) -> f64 {
    inverse_cube_root_cached(index.max(1)).clamp(GAMMA_FLOOR, 1.0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cube_root_starts_at_one_and_decays() {
        assert!((gamma(1) - 1.0).abs() < 1e-12);
        assert!((gamma(8) - 0.5).abs() < 1e-12);
        assert!(gamma(1000) < gamma(10));
    }

    #[test]
    fn floor_is_respected() {
        assert_eq!(gamma(usize::MAX / 2), GAMMA_FLOOR);
    }

    #[test]
    fn index_zero_is_treated_as_one() {
        assert_eq!(gamma(0), gamma(1));
    }
}
