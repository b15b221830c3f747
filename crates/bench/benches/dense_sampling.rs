//! Large-K sampling: the O(K) linear CDF walk vs the amortised-O(1) alias
//! table, at arm counts from the paper's settings (handfuls) up to a
//! dense-urban catalog (1024 networks).
//!
//! Three levels: the raw [`WeightTable`] draw+update cycle, the full EXP3
//! per-slot cost (`choose` + `observe`) a dense-urban session pays online,
//! and the `alias_sampling` group — static-weight phases (several draws per
//! update, the duty-cycled workload) where the frozen alias table amortises
//! its O(K) freeze across O(1) draws.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smartexp3_core::{
    Exp3, Exp3Config, NetworkId, Observation, Policy, SamplerStrategy, WeightTable,
};
use std::time::Duration;

const ARM_COUNTS: [usize; 3] = [64, 256, 1024];
const STRATEGIES: [SamplerStrategy; 2] = [SamplerStrategy::Linear, SamplerStrategy::Alias];

fn networks(k: usize) -> Vec<NetworkId> {
    (0..k as u32).map(NetworkId).collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("weight_table_draw_update");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2));
    for k in ARM_COUNTS {
        for strategy in STRATEGIES {
            let id = BenchmarkId::new(format!("{strategy:?}"), k);
            group.bench_function(id, |b| {
                let mut table = WeightTable::uniform_with_strategy(&networks(k), strategy);
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    let (arm, probability) = table.sample(0.1, &mut rng);
                    table.multiplicative_update(arm, 0.1, 0.5 / probability);
                    arm
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("exp3_slot");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2));
    for k in ARM_COUNTS {
        for strategy in STRATEGIES {
            let id = BenchmarkId::new(format!("{strategy:?}"), k);
            group.bench_function(id, |b| {
                let config = Exp3Config {
                    sampler: strategy,
                    ..Exp3Config::default()
                };
                let mut policy = Exp3::new(networks(k), config).expect("valid config");
                let mut rng = StdRng::seed_from_u64(11);
                let mut slot = 0usize;
                b.iter(|| {
                    let chosen = policy.choose(slot, &mut rng);
                    let gain = 0.2 + 0.6 * (chosen.index() as f64 / k as f64);
                    let observation = Observation::bandit(slot, chosen, gain * 22.0, gain);
                    policy.observe(&observation, &mut rng);
                    slot += 1;
                    chosen
                })
            });
        }
    }
    group.finish();

    // The tentpole workload: static-weight phases. A duty-cycled session
    // draws every wake but updates only when it actually connects, so the
    // table sees runs of draws between updates — exactly where the alias
    // table's amortised-O(1) draw should pull ahead of the linear walk.
    let mut group = c.benchmark_group("alias_sampling");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2));
    for k in [256, 512, 1024] {
        for draws_per_update in [4usize, 16] {
            for strategy in STRATEGIES {
                let id = BenchmarkId::new(
                    format!("{strategy:?}"),
                    format!("k{k}_draws{draws_per_update}"),
                );
                group.bench_function(id, |b| {
                    let mut table = WeightTable::uniform_with_strategy(&networks(k), strategy);
                    let mut rng = StdRng::seed_from_u64(23);
                    b.iter(|| {
                        let mut last = NetworkId(0);
                        for _ in 0..draws_per_update {
                            last = table.sample(0.1, &mut rng).0;
                        }
                        let (arm, probability) = table.sample(0.1, &mut rng);
                        table.multiplicative_update(arm, 0.1, 0.5 / probability);
                        last
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
