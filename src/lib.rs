//! # smartexp3
//!
//! A from-scratch Rust reproduction of *"Shrewd Selection Speeds Surfing: Use
//! Smart EXP3!"* (Appavoo, Gilbert, Tan — ICDCS 2018): bandit-style
//! algorithms for distributed wireless network selection, the congestion-game
//! formulation and metrics used to evaluate them, a slot-driven network
//! simulator, synthetic trace generation, and an experiment harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the individual crates of the workspace:
//!
//! * [`core`] (`smartexp3-core`) — [`SmartExp3`], EXP3 and the other
//!   baseline policies, plus the [`Policy`] trait;
//! * [`game`] (`congestion-game`) — Nash equilibria, ε-equilibria, fairness
//!   and distance metrics;
//! * [`netsim`] — networks, devices, mobility, delays and the simulator;
//! * [`tracegen`] — synthetic WiFi/cellular traces and trace-driven runs;
//! * [`experiments`] — one runner per paper table/figure and the `repro` CLI;
//! * [`engine`] (`smartexp3-engine`) — the [`FleetEngine`] hosting
//!   thousands-to-millions of concurrent sessions with batched
//!   parallel stepping and bit-identical snapshot/restore;
//! * [`scenarios`] (`smartexp3-env`) — the fleet-scale scenario library:
//!   every paper world (shared congestion, bandwidth dynamics, area
//!   mobility, trace replay) as an [`Environment`](core::Environment)
//!   driveable by [`FleetEngine::run_env`](engine::FleetEngine::run_env)
//!   with millions of sessions;
//! * [`telemetry`] (`smartexp3-telemetry`) — streaming fleet telemetry:
//!   memory-bounded per-slot metric accumulators
//!   ([`SlotMetrics`](telemetry::SlotMetrics)), slot-phase wall-clock timing
//!   ([`SlotTiming`](telemetry::SlotTiming)) and tailable sinks
//!   ([`RingSink`](telemetry::RingSink), [`JsonlSink`](telemetry::JsonlSink)).
//!
//! ## Fleet engine
//!
//! The engine scales the reproduction from "one simulated area" to
//! production-style fleets: each session is an independent policy — stored
//! contiguously in a monomorphized per-policy-type *fleet lane*, or behind
//! `Box<dyn Policy>` on the fallback lane — with a private RNG stream
//! derived from a fleet-wide root seed and its session id, so batched steps
//! parallelise freely and results are identical at any thread count. See
//! [`engine`] for the lane layout, seeding model and checkpoint format.
//!
//! ## Quickstart
//!
//! ```rust
//! use smartexp3::core::{PolicyFactory, PolicyKind};
//! use smartexp3::netsim::{setting1_networks, DeviceSetup, Simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), smartexp3::core::ConfigError> {
//! let networks = setting1_networks();
//! let mut factory =
//!     PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect())?;
//! let mut sim = Simulation::single_area(networks, SimulationConfig::quick(300));
//! for id in 0..20 {
//!     sim.add_device(DeviceSetup::new(id, factory.build(PolicyKind::SmartExp3)?));
//! }
//! let result = sim.run(42);
//! println!(
//!     "downloaded {:.1} GB in total, {:.0} switches per device on average",
//!     result.total_download_megabits() / 8000.0,
//!     result.switch_counts().iter().sum::<f64>() / 20.0
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use congestion_game as game;
pub use experiments;
pub use netsim;
pub use smartexp3_core as core;
pub use smartexp3_engine as engine;
pub use smartexp3_env as scenarios;
pub use smartexp3_telemetry as telemetry;
pub use tracegen;

// Convenience re-exports of the most commonly used items.
pub use congestion_game::{nash_allocation, ResourceSelectionGame};
pub use netsim::{DeviceSetup, RunResult, Simulation, SimulationConfig};
pub use smartexp3_core::{
    Exp3, Greedy, NetworkId, Observation, Policy, PolicyFactory, PolicyKind, SmartExp3,
    SmartExp3Config, SmartExp3Features,
};
pub use smartexp3_engine::{FleetConfig, FleetEngine, FleetMetrics, SessionId};
