//! Property-based tests on the core data structures and invariants:
//! probability distributions stay normalised, block lengths obey the
//! ⌈(1+β)^x⌉ law, equilibrium allocations really are equilibria, and the
//! metrics behave like metrics.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! small hand-rolled harness: every property is checked over `CASES`
//! deterministic pseudo-random cases drawn from the vendored `rand` crate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartexp3::core::{
    block_length, probability_of, Exp3, NetworkId, Observation, Policy, SamplerStrategy,
    SharedFeedback, SmartExp3, WeightTable,
};
use smartexp3::game::{
    distance_to_nash, is_nash_allocation, jain_index, nash_allocation, standard_deviation,
    DeviceState, ResourceSelectionGame, Summary,
};

const CASES: u64 = 64;

fn network_ids(count: usize) -> Vec<NetworkId> {
    (0..count as u32).map(NetworkId).collect()
}

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Uniform draw from `{lo, …, hi - 1}`.
fn uniform_usize(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    lo + rng.gen_index(hi - lo)
}

#[test]
fn weight_table_probabilities_always_form_a_distribution() {
    const TARGETS: [f64; 6] = [0.0, 0.05, 0.31, 0.5, 0.77, 0.999];
    for strategy in [SamplerStrategy::Linear, SamplerStrategy::Alias] {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let arms = uniform_usize(&mut rng, 1, 8);
            let gamma = uniform(&mut rng, 0.0, 1.0);
            let mut table = WeightTable::uniform_with_strategy(&network_ids(arms), strategy);
            for _ in 0..uniform_usize(&mut rng, 0, 40) {
                let arm = uniform_usize(&mut rng, 0, arms) as u32;
                let gain = uniform(&mut rng, 0.0, 50.0);
                table.multiplicative_update(NetworkId(arm), 0.3, gain);
                // Written and read back, the table is the same table: every
                // field, the caches the reader rebuilds included, and the
                // running sums pass the reader's checks. The copy draws the
                // same arms.
                let text = serde_json::to_string(&table).unwrap();
                let copy: WeightTable = serde_json::from_str(&text)
                    .unwrap_or_else(|error| panic!("{strategy:?} case {case}: {error}"));
                assert_eq!(copy, table, "{strategy:?} case {case}");
                for target in TARGETS {
                    assert_eq!(
                        copy.sample_at(gamma, target),
                        table.sample_at(gamma, target),
                        "{strategy:?} case {case}: target {target}"
                    );
                }
            }
            let probs = table.probabilities(gamma);
            assert_eq!(probs.len(), arms);
            let sum: f64 = probs.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{strategy:?} case {case}: sum {sum}"
            );
            for p in probs {
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&p),
                    "{strategy:?} case {case}: p {p}"
                );
            }
        }
    }
}

/// From-scratch max-shifted softmax with γ-mixing, built from the table's
/// ground-truth log-weights — the reference the incremental cache must match.
fn naive_reference_distribution(table: &WeightTable, gamma: f64) -> Vec<f64> {
    let arms = table.arms();
    if arms.is_empty() {
        return Vec::new();
    }
    let lws: Vec<f64> = arms
        .iter()
        .map(|&arm| table.log_weight(arm).expect("tracked arm"))
        .collect();
    let max = lws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = lws.iter().map(|&lw| (lw - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter()
        .map(|e| (1.0 - gamma) * e / sum + gamma / arms.len() as f64)
        .collect()
}

#[test]
fn cached_distribution_matches_a_naive_softmax_reference() {
    // Randomized sequences of multiplicative updates (both signs, some
    // enormous), arm additions/removals and uniform resets: after every
    // operation the cached, incrementally-patched distribution must agree
    // with a from-scratch softmax to 1e-12.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9_000 + case);
        let initial = uniform_usize(&mut rng, 1, 7);
        let mut table = WeightTable::uniform(&network_ids(initial));
        let mut next_arm = initial as u32;
        for op in 0..400 {
            match uniform_usize(&mut rng, 0, 20) {
                0 => {
                    table.add_arm(NetworkId(next_arm));
                    next_arm += 1;
                }
                1 => {
                    if table.len() > 1 {
                        let victim = table.arms()[uniform_usize(&mut rng, 0, table.len())];
                        assert!(table.remove_arm(victim));
                    }
                }
                2 => table.reset_uniform(),
                _ => {
                    let arm = table.arms()[uniform_usize(&mut rng, 0, table.len())];
                    let magnitude = if uniform_usize(&mut rng, 0, 10) == 0 {
                        uniform(&mut rng, -200.0, 500.0)
                    } else {
                        uniform(&mut rng, -5.0, 50.0)
                    };
                    table.multiplicative_update(arm, uniform(&mut rng, 0.0, 1.0), magnitude);
                }
            }
            let gamma = uniform(&mut rng, 0.0, 1.0);
            let cached = table.probabilities(gamma);
            let reference = naive_reference_distribution(&table, gamma);
            assert_eq!(cached.len(), reference.len());
            for (i, (c, r)) in cached.iter().zip(&reference).enumerate() {
                assert!(
                    (c - r).abs() < 1e-12,
                    "case {case}, op {op}, arm {i}: cached {c} vs reference {r}"
                );
            }
        }
    }
}

#[test]
fn cached_sampling_matches_a_naive_sampler_decision_for_decision() {
    // The cache must not change behaviour: a naive implementation that
    // recomputes the full softmax for every draw, fed the same RNG stream
    // and the same updates, must pick the same arm every single time.
    for case in 0..CASES {
        let arms = 2 + (case as usize % 5);
        let mut table = WeightTable::uniform(&network_ids(arms));
        let mut naive_lws = vec![0.0f64; arms];
        let mut table_rng = StdRng::seed_from_u64(10_000 + case);
        let mut naive_rng = StdRng::seed_from_u64(10_000 + case);
        for step in 0..2_000 {
            let gamma = 1.0 / ((step + 2) as f64).cbrt();
            let (chosen, probability) = table.sample(gamma, &mut table_rng);

            // Naive draw: full softmax, then the same CDF walk.
            let max = naive_lws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = naive_lws.iter().map(|&lw| (lw - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let mut target: f64 = naive_rng.gen();
            let mut naive_choice = arms - 1;
            for (i, &e) in exps.iter().enumerate() {
                let p = (1.0 - gamma) * e / sum + gamma / arms as f64;
                if target < p {
                    naive_choice = i;
                    break;
                }
                target -= p;
            }
            assert_eq!(
                chosen.index(),
                naive_choice,
                "case {case}, step {step}: cached sampler diverged"
            );

            // Identical importance-weighted update on both sides (the
            // table's probability is used for both, so the ground-truth
            // log-weights stay bit-identical).
            let gain = ((step * 7 + case as usize) % 10) as f64 / 10.0;
            let estimated = gain / probability.max(f64::MIN_POSITIVE);
            let delta = gamma * estimated / arms as f64;
            naive_lws[chosen.index()] += delta;
            table.multiplicative_update(chosen, gamma, estimated);
            // Mirror the table's renormalisation shift so both sides keep
            // identical log-weights.
            let naive_max = naive_lws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if naive_max.abs() > 1e3 {
                for lw in &mut naive_lws {
                    *lw -= naive_max;
                }
            }
            for (i, &arm) in table.arms().iter().enumerate() {
                assert_eq!(
                    table.log_weight(arm),
                    Some(naive_lws[i]),
                    "case {case}, step {step}: ground truth diverged"
                );
            }
        }
    }
}

#[test]
fn non_finite_gains_never_poison_the_distribution() {
    // Regression: a single NaN/∞ estimated gain used to corrupt the
    // log-weights and make sampling panic. Non-finite updates are now
    // rejected and the distribution must stay a distribution throughout.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(11_000 + case);
        let arms = uniform_usize(&mut rng, 2, 6);
        let mut table = WeightTable::uniform(&network_ids(arms));
        for step in 0..300 {
            let arm = NetworkId(uniform_usize(&mut rng, 0, arms) as u32);
            let gain = match step % 5 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => uniform(&mut rng, 0.0, 30.0),
            };
            table.multiplicative_update(arm, 0.3, gain);
            let probs = table.probabilities(0.1);
            let sum: f64 = probs.iter().sum();
            assert!(
                probs.iter().all(|p| p.is_finite() && *p >= 0.0),
                "case {case}, step {step}: {probs:?}"
            );
            assert!((sum - 1.0).abs() < 1e-9, "case {case}, step {step}: {sum}");
            let (chosen, p) = table.sample(0.2, &mut rng);
            assert!(chosen.index() < arms);
            assert!(p.is_finite() && p > 0.0);
        }
    }
}

#[test]
fn shared_feedback_never_poisons_the_distribution() {
    // The cooperative extension of the non-finite-gain fuzz above: gossip
    // digests carry *raw* neighbour measurements, so `observe_shared` is a
    // second door through which NaN, ±∞ and negative rates can reach the
    // weight table. The `WeightTable::shared_update` guard must reject them
    // the same way `multiplicative_update` rejects non-finite gains, and the
    // distribution must stay a distribution throughout.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(12_000 + case);
        let arms = uniform_usize(&mut rng, 2, 6);
        let mut exp3 = Exp3::new(network_ids(arms), SamplerStrategy::Linear).unwrap();
        let mut smart = SmartExp3::with_defaults(network_ids(arms)).unwrap();
        let mut digest = SharedFeedback::new(uniform(&mut rng, 0.0, 0.9));
        for slot in 0..200 {
            // One ordinary slot for both policies (keeps γ schedules moving).
            for policy in [&mut exp3 as &mut dyn Policy, &mut smart] {
                let chosen = policy.choose(slot, &mut rng);
                let gain = uniform(&mut rng, 0.0, 1.0);
                policy.observe(
                    &Observation::bandit(slot, chosen, gain * 22.0, gain),
                    &mut rng,
                );
            }
            // One slot of hostile gossip: most reports are garbage.
            digest.decay();
            let network = NetworkId(uniform_usize(&mut rng, 0, arms) as u32);
            let rate = match slot % 6 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -uniform(&mut rng, 0.0, 5.0),
                _ => uniform(&mut rng, 0.0, 1.0),
            };
            digest.record(network, rate);
            for policy in [&mut exp3 as &mut dyn Policy, &mut smart] {
                policy.observe_shared(&digest, &mut rng);
                let probs = policy.probabilities();
                let sum: f64 = probs.iter().map(|(_, p)| p).sum();
                assert!(
                    probs.iter().all(|(_, p)| p.is_finite() && *p >= 0.0),
                    "case {case}, slot {slot}: {probs:?}"
                );
                assert!(
                    (sum - 1.0).abs() < 1e-6,
                    "case {case}, slot {slot}: sum {sum}"
                );
            }
        }
        assert!(exp3.stats().shared_observations > 0);
        assert!(smart.stats().shared_observations > 0);
    }
}

#[test]
fn block_lengths_follow_the_growth_law() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let beta = uniform(&mut rng, 0.01, 1.0);
        let x = uniform_usize(&mut rng, 0, 60) as u64;
        let length = block_length(beta, x);
        let exact = (1.0 + beta).powf(x as f64);
        assert!(length as f64 >= exact - 1e-9, "case {case}");
        // `ceil` overshoots by less than one slot; at magnitudes where one
        // slot is below the f64 ulp, allow the comparison a relative epsilon.
        assert!(
            (length as f64) < (exact + 1.0) * (1.0 + 1e-12),
            "case {case}"
        );
        assert!(block_length(beta, x + 1) >= length, "case {case}");
    }
}

#[test]
fn nash_allocation_is_always_an_equilibrium() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let networks = uniform_usize(&mut rng, 1, 6);
        let rates: Vec<(NetworkId, f64)> = (0..networks)
            .map(|i| (NetworkId(i as u32), uniform(&mut rng, 0.5, 50.0)))
            .collect();
        let devices = uniform_usize(&mut rng, 0, 60);
        let game = ResourceSelectionGame::new(rates);
        let allocation = nash_allocation(&game, devices);
        assert_eq!(ResourceSelectionGame::devices_in(&allocation), devices);
        assert!(is_nash_allocation(&game, &allocation), "case {case}");
    }
}

#[test]
fn distance_to_nash_is_nonnegative_and_zero_at_equilibrium() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let networks = uniform_usize(&mut rng, 2, 5);
        let rates: Vec<(NetworkId, f64)> = (0..networks)
            .map(|i| (NetworkId(i as u32), uniform(&mut rng, 1.0, 40.0)))
            .collect();
        let devices = uniform_usize(&mut rng, 1, 30);
        let game = ResourceSelectionGame::new(rates);
        let allocation = nash_allocation(&game, devices);
        let mut states = Vec::new();
        for (&network, &count) in &allocation {
            for _ in 0..count {
                states.push(DeviceState {
                    network,
                    observed_rate: game.share(network, count),
                });
            }
        }
        let at_equilibrium = distance_to_nash(&game, &states);
        assert!(at_equilibrium.abs() < 1e-9, "case {case}: {at_equilibrium}");

        // Perturbing observed rates downwards can only keep the distance ≥ 0.
        let mut perturbed = states.clone();
        if let Some(first) = perturbed.first_mut() {
            first.observed_rate *= 0.5;
        }
        assert!(distance_to_nash(&game, &perturbed) >= 0.0, "case {case}");
    }
}

#[test]
fn fairness_metrics_are_scale_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let count = uniform_usize(&mut rng, 2, 20);
        let values: Vec<f64> = (0..count).map(|_| uniform(&mut rng, 0.1, 100.0)).collect();
        let factor = uniform(&mut rng, 0.1, 10.0);
        let scaled: Vec<f64> = values.iter().map(|v| v * factor).collect();
        // Jain's index is scale-free; the standard deviation scales linearly.
        assert!(
            (jain_index(&values) - jain_index(&scaled)).abs() < 1e-9,
            "case {case}"
        );
        let std_ratio = standard_deviation(&scaled) / standard_deviation(&values).max(1e-12);
        assert!(
            (std_ratio - factor).abs() < 1e-6 || standard_deviation(&values) < 1e-9,
            "case {case}: ratio {std_ratio} vs factor {factor}"
        );
        let index = jain_index(&values);
        assert!(index > 0.0 && index <= 1.0 + 1e-12, "case {case}");
    }
}

#[test]
fn summary_is_ordered_and_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let count = uniform_usize(&mut rng, 1, 50);
        let values: Vec<f64> = (0..count).map(|_| uniform(&mut rng, -1e6, 1e6)).collect();
        let summary = Summary::of(&values);
        assert_eq!(summary.count, values.len());
        assert!(summary.min <= summary.median + 1e-9, "case {case}");
        assert!(summary.median <= summary.max + 1e-9, "case {case}");
        assert!(
            summary.mean >= summary.min - 1e-9 && summary.mean <= summary.max + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn smart_exp3_probabilities_stay_normalised_under_arbitrary_gains() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + case);
        let networks = uniform_usize(&mut rng, 2, 6);
        let slots = uniform_usize(&mut rng, 30, 120);
        let mut policy = SmartExp3::with_defaults(network_ids(networks)).unwrap();
        for slot in 0..slots {
            let gain = rng.gen::<f64>();
            let chosen = policy.choose(slot, &mut rng);
            assert!(chosen.index() < networks, "case {case}");
            policy.observe(
                &Observation::bandit(slot, chosen, gain * 22.0, gain),
                &mut rng,
            );
            let probs = policy.probabilities();
            let sum: f64 = probs.iter().map(|(_, p)| p).sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "case {case}, slot {slot}: sum {sum}"
            );
        }
    }
}

#[test]
fn exp3_never_chooses_an_unavailable_network() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let networks = uniform_usize(&mut rng, 2, 6);
        let slots = uniform_usize(&mut rng, 10, 80);
        let arms = network_ids(networks);
        let mut policy = Exp3::new(arms.clone(), SamplerStrategy::Linear).unwrap();
        for slot in 0..slots {
            let chosen = policy.choose(slot, &mut rng);
            assert!(arms.contains(&chosen), "case {case}");
            let gain = (slot % 3) as f64 / 3.0;
            policy.observe(
                &Observation::bandit(slot, chosen, gain * 22.0, gain),
                &mut rng,
            );
        }
        // The probability listing always covers exactly the available arms.
        let probs = policy.probabilities();
        assert_eq!(probs.len(), networks);
        for &arm in &arms {
            assert!(probability_of(&probs, arm) > 0.0, "case {case}");
        }
    }
}

#[test]
fn smart_exp3_switches_stay_below_theorem2_for_random_environments() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + case);
        let best = uniform_usize(&mut rng, 0, 3) as u32;
        let slots = 400usize;
        let mut policy = SmartExp3::with_defaults(network_ids(3)).unwrap();
        for slot in 0..slots {
            let chosen = policy.choose(slot, &mut rng);
            let gain = if chosen == NetworkId(best) {
                0.85
            } else {
                0.25
            };
            policy.observe(
                &Observation::bandit(slot, chosen, gain * 22.0, gain),
                &mut rng,
            );
        }
        let stats = policy.stats();
        let periods = stats.resets as f64 + 1.0;
        let bound = smartexp3::core::theory::switch_bound(
            3,
            0.1,
            1.0,
            slots as f64 / periods,
            slots as f64,
        );
        assert!(
            (stats.switches as f64) < bound,
            "case {case}: switches {} >= bound {}",
            stats.switches,
            bound
        );
    }
}
