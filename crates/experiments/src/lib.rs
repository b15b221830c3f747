//! # experiments
//!
//! Scenario runners that regenerate every table and figure of the Smart EXP3
//! paper's evaluation (§VI and §VII) on top of the `smartexp3-core`,
//! `congestion-game`, `netsim` and `tracegen` crates.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`switching`] | Figure 2 — number of network switches |
//! | [`stability`] | Figure 3 + Table IV — stable states |
//! | [`distance`] | Figure 4 — distance to Nash equilibrium |
//! | [`download`] | Table V — cumulative download |
//! | [`fairness`] | Figure 5 — download dispersion |
//! | [`scalability`] | Figure 6 — time to stabilise vs #networks / #devices |
//! | [`dynamics`] | Figures 7 and 8 — devices joining / leaving |
//! | [`mobility`] | Figures 9 and 10 — movement across service areas |
//! | [`robustness`] | Figure 11 — mixes of Smart EXP3 and Greedy devices |
//! | [`tracedriven`] | Table VI + Figure 12 — trace-driven evaluation |
//! | [`controlled`] | Figures 13–15 + Table VII — testbed emulation |
//! | [`wild`] | §VII-B — 500 MB download in the wild |
//! | [`cooperative`] | Co-Bandit follow-up — gossip vs isolated convergence |
//! | [`dense`] | dense-urban large-K worlds — linear vs alias sampling throughput |
//! | [`events`] | event-driven stepping — sync vs wake-queue trajectories and latency |
//!
//! Every experiment takes a [`Scale`] (number of runs, slots, threads, seed)
//! and returns a displayable result; the `repro` binary wires them to a CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod controlled;
pub mod cooperative;
pub mod dense;
pub mod distance;
pub mod download;
pub mod dynamics;
pub mod events;
pub mod fairness;
pub mod mobility;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod scalability;
pub mod settings;
pub mod stability;
pub mod switching;
pub mod tracedriven;
pub mod wild;

pub use config::Scale;
pub use settings::{DynamicSetting, StaticSetting};
