//! Cross-crate integration tests: drive the public facade API through the
//! paper's main scenarios and check the qualitative results the paper reports.

use smartexp3::core::PolicyKind;
use smartexp3::experiments::runner::run_environment;
use smartexp3::experiments::settings::homogeneous_environment;
use smartexp3::game::{nash_allocation, ResourceSelectionGame};
use smartexp3::netsim::{setting1_networks, setting2_networks, NetworkSpec, SimulationConfig};
use smartexp3::{FleetConfig, NetworkId, RunResult};

/// One single-area run of `devices` devices all running `kind`, with `seed`
/// as the fleet's root seed.
fn run(
    networks: Vec<NetworkSpec>,
    kind: PolicyKind,
    devices: usize,
    slots: usize,
    seed: u64,
) -> RunResult {
    let (env, fleet) = homogeneous_environment(
        networks,
        kind,
        devices,
        SimulationConfig::default(),
        FleetConfig::with_root_seed(seed),
    )
    .unwrap();
    run_environment(env, fleet, slots)
}

#[test]
fn every_algorithm_completes_a_setting1_run() {
    for kind in PolicyKind::all() {
        let result = run(setting1_networks(), kind, 20, 120, 1);
        assert_eq!(result.slots, 120, "{kind:?} did not complete");
        assert!(
            result.total_download_megabits() > 0.0,
            "{kind:?} downloaded nothing"
        );
        assert_eq!(result.devices.len(), 20);
    }
}

#[test]
fn headline_result_smart_exp3_beats_exp3_on_switches_and_download() {
    // The core claim of the paper: compared to EXP3, Smart EXP3 switches an
    // order of magnitude less and achieves a higher cumulative download.
    let slots = 600;
    let smart = run(setting1_networks(), PolicyKind::SmartExp3, 20, slots, 3);
    let exp3 = run(setting1_networks(), PolicyKind::Exp3, 20, slots, 3);

    let smart_switches: f64 = smart.switch_counts().iter().sum();
    let exp3_switches: f64 = exp3.switch_counts().iter().sum();
    assert!(
        smart_switches * 4.0 < exp3_switches,
        "switch reduction too small: smart {smart_switches}, exp3 {exp3_switches}"
    );
    assert!(
        smart.total_download_megabits() > exp3.total_download_megabits(),
        "smart {:.0} Mb should beat exp3 {:.0} Mb",
        smart.total_download_megabits(),
        exp3.total_download_megabits()
    );
}

#[test]
fn centralized_oracle_is_the_gold_standard() {
    let central = run(setting1_networks(), PolicyKind::Centralized, 20, 200, 5);
    assert_eq!(central.fraction_time_at_nash, 1.0);
    assert!(central.distance_to_nash.iter().all(|&d| d < 1e-9));

    // No bandit algorithm should download more than the equilibrium oracle
    // by more than rounding (they pay switching costs and exploration).
    let smart = run(setting1_networks(), PolicyKind::SmartExp3, 20, 200, 5);
    assert!(smart.total_download_megabits() <= central.total_download_megabits() * 1.001);
}

#[test]
fn smart_exp3_spends_most_late_slots_near_equilibrium_in_setting2() {
    let result = run(setting2_networks(), PolicyKind::SmartExp3, 20, 800, 9);
    let late = result.mean_distance_to_nash(600, 800);
    assert!(
        late < 30.0,
        "late-run distance to equilibrium should be small, got {late:.1}%"
    );
}

#[test]
fn greedy_can_strand_capacity_in_setting1_but_smart_exp3_does_not() {
    // §VI-A "unutilized resources": Greedy tends to abandon the 4 Mbps
    // network entirely, Smart EXP3 keeps all three networks in use on average.
    let mut greedy_unused = 0.0;
    let mut smart_unused = 0.0;
    for seed in 0..3 {
        greedy_unused +=
            run(setting1_networks(), PolicyKind::Greedy, 20, 300, seed).unutilized_megabits;
        smart_unused +=
            run(setting1_networks(), PolicyKind::SmartExp3, 20, 300, seed).unutilized_megabits;
    }
    assert!(
        smart_unused <= greedy_unused,
        "smart wasted {smart_unused:.0} Mb vs greedy {greedy_unused:.0} Mb"
    );
}

#[test]
fn run_results_are_deterministic_given_the_seed() {
    let a = run(setting1_networks(), PolicyKind::SmartExp3, 10, 200, 77);
    let b = run(setting1_networks(), PolicyKind::SmartExp3, 10, 200, 77);
    assert_eq!(a.total_download_megabits(), b.total_download_megabits());
    assert_eq!(a.distance_to_nash, b.distance_to_nash);
    assert_eq!(a.switch_counts(), b.switch_counts());
}

#[test]
fn equilibrium_math_matches_the_simulator() {
    // The equilibrium the game crate computes is exactly the allocation the
    // centralized coordinator in the core crate produces.
    let networks = setting1_networks();
    let game = ResourceSelectionGame::new(
        networks
            .iter()
            .map(|n| (n.id, n.bandwidth_mbps))
            .collect::<Vec<_>>(),
    );
    let expected = nash_allocation(&game, 20);
    assert_eq!(expected[&NetworkId(0)], 2);
    assert_eq!(expected[&NetworkId(1)], 4);
    assert_eq!(expected[&NetworkId(2)], 14);

    let result = run(networks, PolicyKind::Centralized, 20, 5, 0);
    let mut counts = std::collections::BTreeMap::new();
    for record in &result
        .selections
        .unwrap_or_default()
        .first()
        .cloned()
        .unwrap_or_default()
    {
        *counts.entry(record.network).or_insert(0usize) += 1;
    }
    // selections were not kept (config default), so fall back to checking the
    // distance metric instead when empty.
    if !counts.is_empty() {
        assert_eq!(counts[&NetworkId(2)], 14);
    }
    assert_eq!(result.fraction_time_at_nash, 1.0);
}
