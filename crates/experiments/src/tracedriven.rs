//! Table VI and Figure 12 — trace-driven evaluation: Smart EXP3 vs Greedy on
//! four pairs of WiFi/cellular bit-rate traces.
//!
//! Each run is the single device of §VI-B: a one-session
//! [`TraceEnvironment`] stepped slot by slot through the fleet engine, its
//! choice read back from [`FleetEngine::last_choices`].

use crate::config::Scale;
use crate::report::{cell, cell2, format_table};
use crate::runner::run_many;
use congestion_game::median;
use smartexp3_core::{NetworkId, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};
use smartexp3_env::TraceEnvironment;
use std::fmt;
use tracegen::{paper_trace_pair, TracePair, CELLULAR, WIFI};

/// One session's replay of a trace pair.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceReplay {
    /// Per-slot `(chosen network, its trace rate in Mbps)`.
    pub(crate) selections: Vec<(NetworkId, f64)>,
    /// Cumulative goodput after each slot, MB (switching delays deducted).
    pub(crate) goodput_megabytes: Vec<f64>,
    /// Network switches.
    pub(crate) switches: u64,
}

impl TraceReplay {
    /// Total goodput over the replay, MB.
    fn download_megabytes(&self) -> f64 {
        self.goodput_megabytes.last().copied().unwrap_or(0.0)
    }

    /// Download volume lost to switching delays, MB: what the chosen
    /// networks offered over whole slots minus the goodput.
    fn switching_cost_megabytes(&self, slot_duration_s: f64) -> f64 {
        let offered: f64 = self
            .selections
            .iter()
            .map(|&(_, rate)| rate * slot_duration_s)
            .sum();
        offered / 8.0 - self.download_megabytes()
    }
}

/// Replays the first `slots` slots of `pair` for one session of `kind`
/// (Smart EXP3 or a baseline), with `root_seed` as the fleet's root seed.
pub(crate) fn replay(
    kind: PolicyKind,
    pair: &TracePair,
    slots: usize,
    root_seed: u64,
) -> TraceReplay {
    let mut factory =
        PolicyFactory::new(vec![(WIFI, 1.0), (CELLULAR, 1.0)]).expect("two networks are valid");
    // One session has nothing to parallelise: a one-worker pool keeps every
    // step on the calling thread.
    let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(root_seed).with_threads(1));
    fleet
        .add_fleet(&mut factory, kind, 1)
        .expect("trace policies build over two networks");
    let mut env = TraceEnvironment::new(vec![pair.clone()], 1, fleet.config().environment_seed());
    let mut replay = TraceReplay {
        selections: Vec::with_capacity(slots),
        goodput_megabytes: Vec::with_capacity(slots),
        switches: 0,
    };
    for slot in 0..slots {
        fleet.step_env(&mut env);
        let chosen = fleet.last_choices()[0].expect("the session chooses every slot");
        let rate = if chosen == CELLULAR {
            pair.cellular.rate_at(slot)
        } else {
            pair.wifi.rate_at(slot)
        };
        replay.selections.push((chosen, rate));
        replay
            .goodput_megabytes
            .push(env.total_download_megabits() / 8.0);
    }
    replay.switches = env.total_switches();
    replay
}

/// Median download and switching cost of one algorithm on one trace pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCells {
    /// Median cumulative download over the runs, MB.
    pub download_mb: f64,
    /// Median switching cost over the runs, MB.
    pub switching_cost_mb: f64,
    /// Median number of switches.
    pub switches: f64,
}

/// One row of Table VI (one trace pair).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Paper trace index (1–4).
    pub trace: usize,
    /// Smart EXP3's numbers.
    pub smart: TraceCells,
    /// Greedy's numbers.
    pub greedy: TraceCells,
}

/// The regenerated Table VI.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDrivenResult {
    /// One row per trace pair.
    pub rows: Vec<TraceRow>,
}

fn summarize(runs: &[TraceReplay], slot_duration_s: f64) -> TraceCells {
    let median_of =
        |value: &dyn Fn(&TraceReplay) -> f64| median(&runs.iter().map(value).collect::<Vec<_>>());
    TraceCells {
        download_mb: median_of(&TraceReplay::download_megabytes),
        switching_cost_mb: median_of(&|r| r.switching_cost_megabytes(slot_duration_s)),
        switches: median_of(&|r| r.switches as f64),
    }
}

/// Number of slots per trace (the paper's 25-minute traces at 15 s per slot).
pub const TRACE_SLOTS: usize = 100;

/// Generates the synthetic trace pair used for paper trace `index` (fixed seed
/// so every experiment and bench sees the same pair).
#[must_use]
pub fn trace_pair(index: usize) -> TracePair {
    paper_trace_pair(index, TRACE_SLOTS, 1000 + index as u64)
}

/// Runs the Table VI experiment.
#[must_use]
pub fn run(scale: &Scale) -> TraceDrivenResult {
    let rows = (1..=4)
        .map(|trace| {
            let pair = trace_pair(trace);
            let cells = |kind: PolicyKind| {
                let runs = run_many(scale, |seed| replay(kind, &pair, TRACE_SLOTS, seed));
                summarize(&runs, pair.wifi.slot_duration_s)
            };
            TraceRow {
                trace,
                smart: cells(PolicyKind::SmartExp3),
                greedy: cells(PolicyKind::Greedy),
            }
        })
        .collect();
    TraceDrivenResult { rows }
}

impl fmt::Display for TraceDrivenResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("Trace {}", r.trace),
                    cell2(r.smart.download_mb),
                    cell2(r.smart.switching_cost_mb),
                    cell2(r.greedy.download_mb),
                    cell2(r.greedy.switching_cost_mb),
                ]
            })
            .collect();
        f.write_str(&format_table(
            "Table VI — trace-driven median download and switching cost (MB)",
            &[
                "trace",
                "Smart EXP3 download",
                "Smart EXP3 cost",
                "Greedy download",
                "Greedy cost",
            ],
            &rows,
        ))
    }
}

/// Figure 12 — the per-slot selection of a single representative Smart EXP3
/// run overlaid on the trace pair: `(wifi rate, cellular rate, rate obtained)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIllustration {
    /// Paper trace index.
    pub trace: usize,
    /// Per-slot `(wifi, cellular, obtained)` rates in Mbps.
    pub series: Vec<(f64, f64, f64)>,
}

/// Produces the Figure 12 illustration for `trace` (1 or 3 in the paper).
#[must_use]
pub fn illustrate(trace: usize, seed: u64) -> TraceIllustration {
    let pair = trace_pair(trace);
    let series = replay(PolicyKind::SmartExp3, &pair, TRACE_SLOTS, seed)
        .selections
        .iter()
        .enumerate()
        .map(|(slot, &(_, rate))| (pair.wifi.rate_at(slot), pair.cellular.rate_at(slot), rate))
        .collect();
    TraceIllustration { trace, series }
}

impl fmt::Display for TraceIllustration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Figure 12 — trace {} selection overlay (every 10th slot)",
            self.trace
        )?;
        writeln!(f, "| slot | WiFi Mbps | cellular Mbps | Smart EXP3 Mbps |")?;
        for (slot, (wifi, cellular, chosen)) in self.series.iter().enumerate() {
            if slot % 10 == 0 {
                writeln!(
                    f,
                    "| {slot} | {} | {} | {} |",
                    cell(*wifi),
                    cell(*cellular),
                    cell(*chosen)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_beats_greedy_on_trace3_and_matches_on_trace2() {
        let scale = Scale::quick().with_runs(3);
        let result = run(&scale);
        assert_eq!(result.rows.len(), 4);
        let trace3 = &result.rows[2];
        assert!(
            trace3.smart.download_mb > trace3.greedy.download_mb,
            "trace 3: smart {:.0} MB vs greedy {:.0} MB",
            trace3.smart.download_mb,
            trace3.greedy.download_mb
        );
        let trace2 = &result.rows[1];
        assert!(
            trace2.smart.download_mb > trace2.greedy.download_mb * 0.85,
            "trace 2: smart {:.0} MB should be close to greedy {:.0} MB",
            trace2.smart.download_mb,
            trace2.greedy.download_mb
        );
        // Smart explores, so it pays a visibly higher switching cost.
        assert!(trace3.smart.switching_cost_mb >= trace3.greedy.switching_cost_mb);
        assert!(result.to_string().contains("Table VI"));
    }

    #[test]
    fn no_policy_beats_the_oracle() {
        let pair = paper_trace_pair(1, TRACE_SLOTS, 9);
        for kind in [PolicyKind::SmartExp3, PolicyKind::Greedy] {
            let run = replay(kind, &pair, TRACE_SLOTS, 1);
            assert_eq!(run.selections.len(), TRACE_SLOTS);
            assert!(run.download_megabytes() > 0.0);
            assert!(run.download_megabytes() <= pair.oracle_megabytes() + 1e-9);
            assert!(run.switching_cost_megabytes(pair.wifi.slot_duration_s) >= 0.0);
        }
    }

    #[test]
    fn greedy_sticks_to_the_dominant_network_after_exploring_both() {
        // Cellular is always better in trace 2.
        let run = replay(
            PolicyKind::Greedy,
            &paper_trace_pair(2, TRACE_SLOTS, 4),
            TRACE_SLOTS,
            2,
        );
        let cellular = run
            .selections
            .iter()
            .filter(|(n, _)| *n == CELLULAR)
            .count();
        assert!(cellular * 10 > TRACE_SLOTS * 9, "{cellular} cellular slots");
        assert!(run.switches <= 3);
    }

    #[test]
    fn smart_exp3_abandons_the_collapsing_network_in_trace3() {
        let run = replay(
            PolicyKind::SmartExp3,
            &paper_trace_pair(3, TRACE_SLOTS, 6),
            TRACE_SLOTS,
            3,
        );
        // In the last third the cellular network is clearly better.
        let tail = &run.selections[70..];
        let cellular = tail.iter().filter(|(n, _)| *n == CELLULAR).count();
        assert!(
            cellular > tail.len() / 2,
            "only {cellular}/{} tail slots on cellular",
            tail.len()
        );
    }

    #[test]
    fn a_session_that_never_switches_pays_no_switching_cost() {
        let pair = paper_trace_pair(2, TRACE_SLOTS, 8);
        let run = replay(PolicyKind::FixedRandom, &pair, TRACE_SLOTS, 5);
        assert_eq!(run.switches, 0);
        assert_eq!(run.switching_cost_megabytes(pair.wifi.slot_duration_s), 0.0);
    }

    #[test]
    fn replays_are_reproducible_from_the_seed() {
        let pair = paper_trace_pair(4, 80, 2);
        let run = |seed| replay(PolicyKind::SmartExp3, &pair, 80, seed);
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }

    #[test]
    fn illustration_covers_every_slot() {
        let illustration = illustrate(1, 7);
        assert_eq!(illustration.series.len(), TRACE_SLOTS);
        assert!(illustration.to_string().contains("Figure 12"));
    }
}
