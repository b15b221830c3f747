//! Quickstart: 20 devices running Smart EXP3 share three networks
//! (the paper's static Setting 1), and we watch them converge to the Nash
//! equilibrium allocation 2 / 4 / 14.
//!
//! Run with: `cargo run --release --example quickstart`

use smartexp3::core::PolicyKind;
use smartexp3::experiments::runner::run_environment;
use smartexp3::experiments::settings::homogeneous_environment;
use smartexp3::game::{nash_allocation, ResourceSelectionGame};
use smartexp3::netsim::{setting1_networks, SimulationConfig};
use smartexp3::FleetConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let networks = setting1_networks();
    println!("Networks:");
    for network in &networks {
        println!(
            "  {} — {} Mbps ({})",
            network.id, network.bandwidth_mbps, network.technology
        );
    }

    let game = ResourceSelectionGame::new(
        networks
            .iter()
            .map(|n| (n.id, n.bandwidth_mbps))
            .collect::<Vec<_>>(),
    );
    let equilibrium = nash_allocation(&game, 20);
    println!("\nNash equilibrium allocation for 20 devices: {equilibrium:?}");

    let (env, fleet) = homogeneous_environment(
        networks,
        PolicyKind::SmartExp3,
        20,
        SimulationConfig::default(),
        FleetConfig::with_root_seed(42),
    )?;
    // 1200 slots: 5 simulated hours of 15-second slots.
    let result = run_environment(env, fleet, 1200);
    println!("\nAfter {} slots:", result.slots);
    println!(
        "  total download     : {:.2} GB",
        result.total_download_megabits() / 8000.0
    );
    println!(
        "  switches per device: {:.1}",
        result.switch_counts().iter().sum::<f64>() / result.devices.len() as f64
    );
    println!(
        "  time at Nash equilibrium   : {:.1} %",
        result.fraction_time_at_nash * 100.0
    );
    println!(
        "  time at ε-equilibrium (7.5): {:.1} %",
        result.fraction_time_at_epsilon * 100.0
    );
    println!(
        "  distance to equilibrium over the last hour: {:.1} %",
        result.mean_distance_to_nash(960, 1200)
    );
    Ok(())
}
