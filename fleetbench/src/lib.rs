//! End-to-end and per-layer benchmark of the Smart EXP3 fleet engine.
//!
//! Four workloads — a small-K fleet and a large-K dense city, each stepped
//! slot-synchronously and event-driven — run as closed loops on a two-thread
//! engine pool. An untraced run reports the end-to-end metrics; a traced run
//! attaches the instruments in [`trace`] at the public layer boundaries and
//! reports the per-layer ledger. See `fleetbench/README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod machine;
pub mod run;
pub mod sink;
pub mod trace;
pub mod workload;
