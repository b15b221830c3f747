//! Dense-urban spectrum demo: city blocks advertising hundreds of networks,
//! where the per-draw cost of sampling dominates the slot — run from the
//! same seed once per CDF-inversion strategy, to compare the amortised-O(1)
//! alias table with the O(K) linear walk.
//!
//! ```text
//! cargo run --release --example dense_urban [sessions] [slots] [networks] [threads] \
//!     [--sampler linear|alias]
//! ```
//!
//! Defaults build a 512-network, 4096-session world and sweep **both**
//! samplers with per-phase timing; `--sampler` restricts the run to one.
//! Each strategy is a distinct pinned policy configuration (the sampler is
//! part of the config), bit-stable on its own; distributionally the samplers
//! agree to within the softmax cache's 1e-12 drift bound, which the closing
//! mean-gain comparison makes visible.

use smartexp3::core::{PolicyKind, SamplerStrategy};
use smartexp3::engine::FleetConfig;
use smartexp3::scenarios::{dense_urban, DenseUrbanConfig};
use smartexp3::telemetry::RingSink;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: dense_urban [sessions] [slots] [networks] [threads] \
         [--sampler linear|alias]"
    );
    std::process::exit(2);
}

fn parse_arg(value: &str, name: &str) -> usize {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} must be a non-negative integer, got `{value}`");
        usage();
    })
}

fn parse_sampler(value: &str) -> SamplerStrategy {
    match value {
        "linear" => SamplerStrategy::Linear,
        "alias" => SamplerStrategy::Alias,
        other => {
            eprintln!("error: unknown sampler `{other}` (expected linear or alias)");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut only: Option<SamplerStrategy> = None;
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--help" | "-h" => usage(),
            "--sampler" => {
                index += 1;
                let raw = args
                    .get(index)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                only = Some(parse_sampler(raw));
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            _ => usage(),
        }
        index += 1;
    }
    let positional_names = ["sessions", "slots", "networks", "threads"];
    if positional.len() > positional_names.len() {
        usage();
    }
    let mut parsed = [4096usize, 50, 512, 0];
    for (slot, (raw, name)) in parsed
        .iter_mut()
        .zip(positional.iter().zip(positional_names))
    {
        *slot = parse_arg(raw, name);
    }
    let [sessions, slots, networks, threads] = parsed;
    let (sessions, slots, networks) = (sessions.max(1), slots.max(1), networks.max(2));

    let samplers: Vec<SamplerStrategy> = match only {
        Some(sampler) => vec![sampler],
        None => vec![SamplerStrategy::Linear, SamplerStrategy::Alias],
    };

    let mut results = Vec::new();
    for &sampler in &samplers {
        let mut config = FleetConfig::with_root_seed(2026);
        if threads > 0 {
            config = config.with_threads(threads);
        }
        let dense = DenseUrbanConfig {
            networks_per_area: networks,
            sampler,
            ..DenseUrbanConfig::default()
        };
        let build_start = Instant::now();
        let mut scenario =
            dense_urban(sessions, PolicyKind::Exp3, config, dense).expect("valid scenario");
        println!(
            "world `{}` [{sampler:?}]: {} sessions x {} networks/block, built in {:.2}s",
            scenario.name,
            scenario.sessions(),
            networks,
            build_start.elapsed().as_secs_f64()
        );
        let mut sink = RingSink::new(slots);
        let step_start = Instant::now();
        scenario.run_streaming(slots, &mut sink);
        let elapsed = step_start.elapsed().as_secs_f64();
        let metrics = scenario.fleet.metrics();
        let throughput = metrics.decisions as f64 / elapsed;
        let exp3 = metrics.kind(PolicyKind::Exp3);
        let mean_gain = exp3.map_or(0.0, |m| m.mean_gain());
        let (mut begin, mut choose, mut feedback, mut observe) = (0.0, 0.0, 0.0, 0.0);
        for record in sink.records() {
            begin += record.timing.begin_slot_s;
            choose += record.timing.choose_s;
            feedback += record.timing.feedback_s;
            observe += record.timing.observe_s;
        }
        println!(
            "  {} decisions in {elapsed:.2}s — {:.0} decisions/sec, mean gain {mean_gain:.4}",
            metrics.decisions, throughput
        );
        println!(
            "  phases: begin {begin:.2}s, choose {choose:.2}s, feedback {feedback:.2}s, observe {observe:.2}s"
        );
        if sampler == SamplerStrategy::Alias {
            let (rebuilds, hits) = exp3.map_or((0, 0), |m| {
                (m.policy.sampler_rebuilds, m.policy.overlay_hits)
            });
            println!("  alias: {rebuilds} table rebuilds, {hits} overlay hits");
        }
        results.push((sampler, throughput, mean_gain));
    }

    if results.len() > 1 {
        let (_, linear_tp, linear_gain) = results[0];
        for &(sampler, throughput, gain) in &results[1..] {
            println!(
                "{sampler:?} / Linear: {:.2}x throughput at K = {networks}; \
                 mean gain {gain:.4} vs {linear_gain:.4}",
                throughput / linear_tp
            );
        }
    }
}
