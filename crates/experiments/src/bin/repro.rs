//! `repro` — regenerate the Smart EXP3 paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--runs N] [--slots N] [--threads N] [--seed N] [--paper-scale]
//!                    [--telemetry PATH]
//!
//! experiments:
//!   fig2 | fig3 | table4 | fig4 | table5 | fig5 | fig6 | fig7 | fig8 |
//!   fig9 | fig10 | fig11 | table6 | fig12 | fig13 | table7 | fig14 |
//!   fig15 | wild | all
//! ```

use experiments::config::Scale;
use experiments::controlled::{self, ControlledScenario};
use experiments::settings::DynamicSetting;
use experiments::{
    cooperative, dense, distance, download, dynamics, events, fairness, mobility, robustness,
    scalability, stability, switching, tracedriven, wild,
};
use smartexp3_core::SamplerStrategy;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: repro <experiment> [--runs N] [--slots N] [--threads N] [--seed N] [--paper-scale]
                  [--telemetry PATH] [--sampler linear|alias]

flags:
  --telemetry PATH  stream per-slot fleet telemetry (JSONL, tailable) to PATH
                    while running the coop experiment's broadcast variant, or
                    an event-driven duty-cycle run (with wake-to-decision
                    latency percentiles) for the events experiment
  --sampler NAME    restrict the dense experiment's sweep to one
                    CDF-inversion strategy (default: both)

experiments:
  fig2     number of network switches (Figure 2)
  fig3     stable states (Figure 3)        table4  slots to stability (Table IV)
  fig4     distance to Nash equilibrium (Figure 4)
  table5   cumulative download (Table V)   fig5    fairness (Figure 5)
  fig6     scalability (Figure 6)
  fig7     dynamic setting 1 (Figure 7)    fig8    dynamic setting 2 (Figure 8)
  fig9     mobility (Figure 9)             fig10   switches of persistent devices
  fig11    robustness to greedy devices (Figure 11)
  table6   trace-driven download (Table VI)
  fig12    trace selection overlay (Figure 12)
  fig13    controlled testbed, static      table7  testbed download (Table VII)
  fig14    controlled testbed, dynamic     fig15   controlled testbed, mixed
  wild     in-the-wild 500 MB download (§VII-B)
  coop     Co-Bandit gossip vs isolated convergence (follow-up paper)
  dense    dense-urban large-K sampling, linear vs alias throughput
  events   event-driven stepping: sync vs wake-queue trajectories + latency
  all      everything above";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let experiment = args[0].to_lowercase();
    let (scale, telemetry, sampler) = match parse_scale(&args[1..]) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &telemetry {
        let export = match experiment.as_str() {
            "coop" | "cooperative" | "all" => cooperative::export_telemetry,
            // The event-driven export: one record per wake timestamp, each
            // carrying wake-to-decision latency percentiles.
            "events" | "duty_cycle" => events::export_telemetry,
            _ => {
                eprintln!(
                    "error: --telemetry is only wired to the coop and events experiments\n\n{USAGE}"
                );
                return ExitCode::FAILURE;
            }
        };
        match export(&scale, path) {
            Ok(records) => {
                eprintln!(
                    "telemetry: wrote {records} slot records to {} (tail with `tail -f`)",
                    path.display()
                );
            }
            Err(error) => {
                eprintln!(
                    "error: telemetry export to {} failed: {error}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let known = run_experiment(&experiment, &scale, sampler);
    if !known {
        eprintln!("error: unknown experiment `{experiment}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_scale(
    args: &[String],
) -> Result<(Scale, Option<PathBuf>, Option<SamplerStrategy>), String> {
    let mut scale = Scale::default();
    let mut telemetry = None;
    let mut sampler = None;
    let mut index = 0;
    while index < args.len() {
        let flag = args[index].clone();
        match flag.as_str() {
            "--paper-scale" => scale = Scale::paper(),
            "--telemetry" => {
                index += 1;
                let value = args
                    .get(index)
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                telemetry = Some(PathBuf::from(value));
            }
            "--sampler" => {
                index += 1;
                let value = args
                    .get(index)
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                sampler = Some(match value.as_str() {
                    "linear" => SamplerStrategy::Linear,
                    "alias" => SamplerStrategy::Alias,
                    other => return Err(format!("unknown sampler `{other}`")),
                });
            }
            "--runs" | "--slots" | "--threads" | "--seed" => {
                index += 1;
                let value = args
                    .get(index)
                    .ok_or_else(|| format!("missing value for {flag}"))?
                    .parse::<usize>()
                    .map_err(|_| format!("invalid value for {flag}"))?;
                match flag.as_str() {
                    "--runs" => scale.runs = value.max(1),
                    "--slots" => scale.slots = value.max(1),
                    "--threads" => scale.threads = value.max(1),
                    "--seed" => scale.base_seed = value as u64,
                    _ => unreachable!(),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        index += 1;
    }
    Ok((scale, telemetry, sampler))
}

fn run_experiment(experiment: &str, scale: &Scale, sampler: Option<SamplerStrategy>) -> bool {
    let everything = experiment == "all";
    let mut matched = false;
    let mut wants = |names: &[&str]| -> bool {
        let hit = everything || names.contains(&experiment);
        matched |= hit;
        hit
    };

    if wants(&["fig2"]) {
        println!("{}", switching::run(scale));
    }
    if wants(&["fig3", "table4"]) {
        println!("{}", stability::run(scale));
    }
    if wants(&["fig4"]) {
        println!("{}", distance::run(scale));
    }
    if wants(&["table5"]) {
        println!("{}", download::run(scale));
    }
    if wants(&["fig5"]) {
        println!("{}", fairness::run(scale));
    }
    if wants(&["fig6"]) {
        println!("{}", scalability::run(scale));
    }
    if wants(&["fig7"]) {
        println!(
            "{}",
            dynamics::run(scale, DynamicSetting::DevicesJoinAndLeave)
        );
    }
    if wants(&["fig8"]) {
        println!("{}", dynamics::run(scale, DynamicSetting::DevicesLeave));
    }
    if wants(&["fig9", "fig10"]) {
        println!("{}", mobility::run(scale));
    }
    if wants(&["fig11"]) {
        println!("{}", robustness::run(scale));
    }
    if wants(&["table6"]) {
        println!("{}", tracedriven::run(scale));
    }
    if wants(&["fig12"]) {
        println!("{}", tracedriven::illustrate(1, scale.base_seed));
        println!("{}", tracedriven::illustrate(3, scale.base_seed));
    }
    if wants(&["fig13", "table7"]) {
        println!("{}", controlled::run(scale, ControlledScenario::Static));
    }
    if wants(&["fig14"]) {
        println!(
            "{}",
            controlled::run(scale, ControlledScenario::DevicesLeave)
        );
    }
    if wants(&["fig15"]) {
        println!("{}", controlled::run(scale, ControlledScenario::Mixed));
    }
    if wants(&["wild"]) {
        println!("{}", wild::run(scale));
    }
    if wants(&["coop", "cooperative"]) {
        println!("{}", cooperative::run(scale));
    }
    if wants(&["dense", "dense_urban"]) {
        match sampler {
            Some(strategy) => println!(
                "{}",
                dense::run_strategies(
                    scale,
                    dense::DEFAULT_NETWORKS,
                    dense::DEFAULT_SESSIONS,
                    &[strategy]
                )
            ),
            None => println!("{}", dense::run(scale)),
        }
    }
    if wants(&["events", "duty_cycle"]) {
        println!("{}", events::run(scale));
    }
    matched
}
