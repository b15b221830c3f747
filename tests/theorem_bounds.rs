//! Empirical checks of the paper's theorems against full simulation runs.

use smartexp3::core::{theory, PolicyKind};
use smartexp3::experiments::runner::run_environment;
use smartexp3::experiments::settings::homogeneous_environment;
use smartexp3::netsim::{setting1_networks, setting2_networks, NetworkSpec, SimulationConfig};
use smartexp3::{FleetConfig, RunResult};

/// One run of 20 devices running `kind`, with `seed` as the fleet's root
/// seed.
fn run(kind: PolicyKind, networks: Vec<NetworkSpec>, slots: usize, seed: u64) -> RunResult {
    let (env, fleet) = homogeneous_environment(
        networks,
        kind,
        20,
        SimulationConfig::default(),
        FleetConfig::with_root_seed(seed),
    )
    .unwrap();
    run_environment(env, fleet, slots)
}

#[test]
fn theorem2_switch_bound_holds_in_both_settings() {
    // Theorem 2 with t_d = 1 slot, β = 0.1 and τ equal to the observed reset
    // period; every simulated device must stay below the bound.
    let slots = 900usize;
    for (seed, networks) in [(1u64, setting1_networks()), (2, setting2_networks())] {
        let result = run(PolicyKind::SmartExp3, networks, slots, seed);
        for device in &result.devices {
            let periods = device.resets as f64 + 1.0;
            let tau = slots as f64 / periods;
            let bound = theory::switch_bound(3, 0.1, 1.0, tau, slots as f64);
            assert!(
                (device.switches as f64) < bound,
                "device {:?} switched {} times, bound {bound:.0}",
                device.id,
                device.switches
            );
        }
    }
}

#[test]
fn theorem2_bound_is_not_vacuous_for_exp3() {
    // EXP3 (which has no blocking) comes within a constant factor of the
    // bound while Smart EXP3 stays an order of magnitude below it — evidence
    // that the bound reflects the blocking mechanism rather than being
    // trivially large.
    let slots = 900usize;
    let exp3 = run(PolicyKind::Exp3, setting1_networks(), slots, 3);
    let smart = run(PolicyKind::SmartExp3, setting1_networks(), slots, 3);
    let bound = theory::switch_bound_no_reset(3, 0.1, slots as f64);
    let exp3_mean: f64 = exp3.switch_counts().iter().sum::<f64>() / exp3.devices.len() as f64;
    let smart_mean: f64 = smart.switch_counts().iter().sum::<f64>() / smart.devices.len() as f64;
    assert!(
        exp3_mean > bound * 0.5,
        "EXP3 switched only {exp3_mean:.0} times on average; bound {bound:.0}"
    );
    assert!(
        smart_mean * 4.0 < exp3_mean,
        "Smart EXP3 ({smart_mean:.0}) should switch far less than EXP3 ({exp3_mean:.0})"
    );
}

#[test]
fn regret_bound_scales_sensibly() {
    // Not a statement about a particular run (weak regret needs the best
    // fixed network in hindsight), but the closed form must react to its
    // parameters the way Theorem 3 describes.
    let base = theory::RegretBoundParams {
        networks: 3,
        gamma: 0.1,
        beta: 0.1,
        max_block_length: 40.0,
        best_gain_per_period: 1200.0,
        slot_duration: 1.0,
        tau: 1200.0,
        total_time: 1200.0,
        mean_delay: 0.2,
        mean_gain: 0.5,
    };
    let reference = theory::regret_bound(&base);

    let mut more_networks = base;
    more_networks.networks = 7;
    assert!(theory::regret_bound(&more_networks) > reference);

    let mut slower_blocks = base;
    slower_blocks.beta = 0.05;
    assert!(theory::regret_bound(&slower_blocks) > reference);

    let mut higher_delay = base;
    higher_delay.mean_delay = 2.0;
    assert!(theory::regret_bound(&higher_delay) > reference);
}
