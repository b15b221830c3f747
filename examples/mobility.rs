//! Mobility across service areas: the Figure 1 map of the paper, with eight
//! devices walking from the food court to the study area and on to the bus
//! stop while the rest stay put (setting 3 of §VI-A).
//!
//! Run with: `cargo run --release --example mobility [slots]` (default 1200;
//! pass a smaller count, e.g. 120, for a quick smoke run — CI does).

use smartexp3::core::PolicyKind;
use smartexp3::experiments::runner::run_environment;
use smartexp3::experiments::settings::mobility_environment;
use smartexp3::netsim::{SimulationConfig, Topology};
use smartexp3::FleetConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total_slots = match std::env::args().nth(1) {
        None => 1200,
        Some(raw) => raw.parse().map_err(|_| {
            format!("slots must be a positive integer, got `{raw}` (usage: mobility [slots])")
        })?,
    };
    println!("Service areas:");
    for area in Topology::figure1().areas() {
        println!(
            "  {:?} ({}): networks {:?}",
            area.id, area.name, area.networks
        );
    }

    // Devices 0-7 walk from the food court to the study area and on to the
    // bus stop at one third and two thirds of the run (slots 400 and 800 at
    // the paper's 1200-slot scale); each device only knows about the
    // networks visible from the area it starts in.
    let ((env, fleet), _groups) = mobility_environment(
        PolicyKind::SmartExp3,
        total_slots,
        SimulationConfig::default(),
        FleetConfig::with_root_seed(11),
    )?;
    let result = run_environment(env, fleet, total_slots);
    println!(
        "\nPer-device outcome after {} slots (devices 0-7 are the moving ones):",
        result.slots
    );
    println!(
        "{:<8} {:>12} {:>10} {:>8}",
        "device", "download GB", "switches", "resets"
    );
    for device in &result.devices {
        println!(
            "{:<8} {:>12.2} {:>10} {:>8}",
            device.id.to_string(),
            device.download_gigabytes(),
            device.switches,
            device.resets
        );
    }
    let moving: f64 = result
        .devices
        .iter()
        .take(8)
        .map(|d| d.switches as f64)
        .sum::<f64>()
        / 8.0;
    let stationary: f64 = result
        .devices
        .iter()
        .skip(8)
        .map(|d| d.switches as f64)
        .sum::<f64>()
        / 12.0;
    println!(
        "\nMoving devices switch more ({moving:.1} on average) than stationary ones ({stationary:.1}),\n\
         because discovering new networks and losing the preferred one both trigger resets — the\n\
         behaviour Figure 10 of the paper reports."
    );
    Ok(())
}
