//! Trace-driven selection: replays Smart EXP3 and Greedy against the four
//! synthetic WiFi/cellular trace pairs of the paper's §VI-B (Table VI) and
//! prints the median download each achieves, plus a textual version of
//! Figure 12's selection overlay for trace 3 (the one where the initially
//! best network collapses). Each replay is one session of the fleet engine
//! stepping a one-session trace world.
//!
//! Run with: `cargo run --release --example trace_driven`

use smartexp3::experiments::config::Scale;
use smartexp3::experiments::tracedriven;

fn main() {
    println!("{}", tracedriven::run(&Scale::quick().with_runs(5)));
    println!("{}", tracedriven::illustrate(3, 1));
}
