//! Fan-out of independent evaluation runs, and the driver that turns an
//! environment-driven fleet into the paper's metrics ([`RunResult`]).
//!
//! Both levels of parallelism run on the same substrate: each *run* of an
//! experiment is an independent fleet driven through `FleetEngine::run_env`,
//! and the runs themselves are fanned out over a rayon pool.

use crate::config::Scale;
use crate::settings::{homogeneous_environment, StaticSetting};
use netsim::{CongestionEnvironment, RunResult, SimulationConfig};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use smartexp3_core::PolicyKind;
use smartexp3_engine::FleetEngine;

/// Executes `scale.runs` independent evaluations of `job` (one per seed) and
/// collects the results in run order.
///
/// `job` receives the run's seed. With `scale.threads == 1` everything runs
/// on the calling thread; otherwise runs are distributed over a rayon pool
/// (results are still returned in deterministic run order).
pub fn run_many<T, F>(scale: &Scale, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let runs = scale.runs;
    if runs == 0 {
        return Vec::new();
    }
    if scale.threads <= 1 || runs == 1 {
        return (0..runs).map(|i| job(scale.seed(i))).collect();
    }

    let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let work: Vec<(u64, &mut Option<T>)> = results
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| (scale.seed(i), slot))
        .collect();
    let pool = ThreadPoolBuilder::new()
        .num_threads(scale.threads.min(runs).max(1))
        .build()
        .expect("thread pool construction cannot fail");
    let job = &job;
    pool.install(|| {
        work.into_par_iter()
            .for_each(|(seed, slot)| *slot = Some(job(seed)));
    });
    results
        .into_iter()
        .map(|r| r.expect("every run slot is filled"))
        .collect()
}

/// Drives a recorder-equipped [`CongestionEnvironment`] fleet for `slots`
/// slots through `FleetEngine::run_env` and assembles the [`RunResult`].
///
/// # Panics
///
/// Panics when the environment was built without a recorder.
#[must_use]
pub fn run_environment(
    mut env: CongestionEnvironment,
    mut fleet: FleetEngine,
    slots: usize,
) -> RunResult {
    fleet.run_env(&mut env, slots);
    let outcomes = (0..fleet.len())
        .map(|index| {
            let policy = fleet.policy(index).expect("session exists");
            env.outcome(
                index,
                policy.kind().label().to_string(),
                policy.stats().resets,
            )
        })
        .collect();
    env.into_result(outcomes)
        .expect("run_environment requires a recorder-equipped environment")
}

/// One run of a static setting (§VI-A): the setting's devices all running
/// `algorithm` for `scale.slots` slots, with `seed` as the fleet's root seed.
#[must_use]
pub fn run_static(
    setting: StaticSetting,
    algorithm: PolicyKind,
    scale: &Scale,
    seed: u64,
) -> RunResult {
    let (env, fleet) = homogeneous_environment(
        setting.networks(),
        algorithm,
        setting.devices(),
        SimulationConfig::default(),
        scale.fleet_config(seed),
    )
    .expect("static scenario construction cannot fail");
    run_environment(env, fleet, scale.slots)
}

/// Averages per-slot series element-wise, ignoring series that are shorter
/// than the longest one beyond their end (useful for averaging distance
/// curves over runs).
#[must_use]
pub fn average_series(series: &[Vec<f64>]) -> Vec<f64> {
    let longest = series.iter().map(Vec::len).max().unwrap_or(0);
    let mut sums = vec![0.0; longest];
    let mut counts = vec![0usize; longest];
    for run in series {
        for (slot, &value) in run.iter().enumerate() {
            sums[slot] += value;
            counts[slot] += 1;
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(sum, count)| if count == 0 { 0.0 } else { sum / count as f64 })
        .collect()
}

/// Down-samples a series by averaging consecutive buckets of `bucket` slots;
/// used to print figure-like series compactly.
#[must_use]
pub fn downsample(series: &[f64], bucket: usize) -> Vec<f64> {
    if bucket == 0 {
        return series.to_vec();
    }
    series
        .chunks(bucket.max(1))
        .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{mobility_environment, DynamicSetting};
    use netsim::setting1_networks;
    use smartexp3_engine::FleetConfig;

    #[test]
    fn sequential_and_parallel_agree() {
        let sequential = run_many(&Scale::quick().with_runs(9).with_threads(1), |seed| {
            seed * 2
        });
        let parallel = run_many(&Scale::quick().with_runs(9).with_threads(4), |seed| {
            seed * 2
        });
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 9);
    }

    #[test]
    fn run_environment_produces_a_complete_result() {
        let (env, fleet) = homogeneous_environment(
            setting1_networks(),
            PolicyKind::SmartExp3,
            10,
            SimulationConfig::default(),
            FleetConfig::with_root_seed(5),
        )
        .unwrap();
        let result = run_environment(env, fleet, 40);
        assert_eq!(result.slots, 40);
        assert_eq!(result.devices.len(), 10);
        assert!(result.total_download_megabits() > 0.0);
        assert_eq!(result.distance_to_nash.len(), 40);
    }

    fn slots(slots: usize) -> Scale {
        Scale::quick().with_slots(slots)
    }

    #[test]
    fn centralized_devices_sit_at_equilibrium_from_the_start() {
        let result = run_static(
            StaticSetting::Setting1,
            PolicyKind::Centralized,
            &slots(50),
            1,
        );
        assert_eq!(result.fraction_time_at_nash, 1.0);
        assert!(result.distance_to_nash.iter().all(|&d| d < 1e-9));
        assert!(result.devices.iter().all(|d| d.switches == 0));
        assert_eq!(result.unutilized_megabits, 0.0);
    }

    #[test]
    fn smart_exp3_converges_towards_equilibrium_in_setting1() {
        let result = run_static(
            StaticSetting::Setting1,
            PolicyKind::SmartExp3,
            &slots(600),
            7,
        );
        let early = result.mean_distance_to_nash(0, 100);
        let late = result.mean_distance_to_nash(500, 600);
        assert!(
            late < early,
            "distance should shrink over time: early {early:.1}%, late {late:.1}%"
        );
        assert!(late < 60.0, "late distance still {late:.1}%");
    }

    #[test]
    fn downloads_are_bounded_by_capacity_and_reproducible_from_the_seed() {
        let run = |seed| {
            run_static(
                StaticSetting::Setting2,
                PolicyKind::Greedy,
                &slots(200),
                seed,
            )
        };
        let result = run(11);
        // Capacity over the run: 33 Mbps * 200 slots * 15 s.
        let total = result.total_download_megabits();
        assert!(total > 0.0 && total <= 33.0 * 200.0 * 15.0, "total {total}");
        assert!(result.devices.iter().all(|d| d.active_slots == 200));
        assert_eq!(run(11), result);
        assert_ne!(run(12).devices, result.devices);
    }

    #[test]
    fn device_activity_windows_are_respected() {
        let (env, fleet) = DynamicSetting::DevicesLeave
            .build_environment(
                PolicyKind::SmartExp3,
                100,
                SimulationConfig::default(),
                FleetConfig::with_root_seed(5),
            )
            .unwrap();
        let result = run_environment(env, fleet, 100);
        for (id, device) in result.devices.iter().enumerate() {
            let expected = if id < 4 { 100 } else { 50 };
            assert_eq!(device.active_slots, expected, "device {id}");
        }
    }

    #[test]
    fn full_information_devices_learn_from_counterfactual_feedback() {
        let (env, fleet) = homogeneous_environment(
            setting1_networks(),
            PolicyKind::FullInformation,
            5,
            SimulationConfig::default(),
            FleetConfig::with_root_seed(9),
        )
        .unwrap();
        let result = run_environment(env, fleet, 150);
        // With full feedback and only 5 devices on a 22 Mbps network, the
        // run spends a decent share of its time near equilibrium.
        assert!(result.fraction_time_at_epsilon > 0.2);
    }

    #[test]
    fn recorded_runs_are_identical_at_any_thread_count() {
        const SLOTS: usize = 60;
        let config = SimulationConfig {
            keep_selections: true,
            ..SimulationConfig::default()
        };
        let worlds: [&dyn Fn(PolicyKind, FleetConfig) -> (CongestionEnvironment, FleetEngine); 3] = [
            &|kind, fleet| {
                homogeneous_environment(setting1_networks(), kind, 20, config, fleet).unwrap()
            },
            &|kind, fleet| {
                DynamicSetting::DevicesJoinAndLeave
                    .build_environment(kind, SLOTS, config, fleet)
                    .unwrap()
            },
            &|kind, fleet| mobility_environment(kind, SLOTS, config, fleet).unwrap().0,
        ];
        for (world, build) in worlds.iter().enumerate() {
            for kind in [
                PolicyKind::SmartExp3,
                PolicyKind::Exp3,
                PolicyKind::FullInformation,
                PolicyKind::Centralized,
            ] {
                let run = |threads| {
                    let fleet = FleetConfig::with_root_seed(17)
                        .with_threads(threads)
                        .with_shard_size(3);
                    let (env, fleet) = build(kind, fleet);
                    run_environment(env, fleet, SLOTS)
                };
                let reference = run(1);
                assert!(reference.selections.is_some());
                for threads in [2, 8] {
                    assert_eq!(
                        run(threads),
                        reference,
                        "world {world}, {kind:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn averaging_handles_unequal_lengths() {
        let series = vec![vec![1.0, 3.0], vec![3.0, 5.0, 7.0]];
        assert_eq!(average_series(&series), vec![2.0, 4.0, 7.0]);
        assert!(average_series(&[]).is_empty());
    }

    #[test]
    fn downsampling_averages_buckets() {
        let series = vec![1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(downsample(&series, 2), vec![2.0, 6.0, 9.0]);
        assert_eq!(downsample(&series, 0), series);
    }
}
