//! Command line of the fleet benchmark.
//!
//! ```text
//! fleetbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! fleetbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints context lines and one `name value unit` line per metric,
//! then, as its last line, the JSON result object. `--out` also appends a
//! record (workload, seed, threads, host cores and the result) to `FILE`,
//! the input format of `compare`.

use fleetbench::compare;
use fleetbench::run::{host_cores, run, Options, Outcome};
use fleetbench::workload::{Workload, THREADS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fleetbench --workload fleet_sync|fleet_events|dense_sync|dense_events --seed N --seconds S --trace 0|1 [--out FILE]
  fleetbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|arg| arg == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flag(args, "--trace").ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let out = flag(args, "--out").map(PathBuf::from);
    Ok((
        Options {
            workload,
            seed,
            seconds,
            trace,
        },
        out,
    ))
}

/// The result object the last line carries.
fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, metric) in outcome.metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            metrics,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            metric.name,
            metric.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    )
}

fn write_spans(options: &Options, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ));
    if let Some(spans) = &outcome.spans {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans.write_jsonl(&mut file)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    Ok(path)
}

fn append_record(path: &PathBuf, options: &Options, result: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":{THREADS},\"host_cores\":{},\"result\":{result}}}",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        host_cores()
    )?;
    file.flush()
}

fn run_command(args: &[String]) -> Result<(), String> {
    let (options, out) = parse_run(args)?;
    let outcome = run(&options);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.checks.failures {
        eprintln!("check failed: {failure}");
    }
    if options.trace {
        let path = write_spans(&options, &outcome).map_err(|e| format!("writing spans: {e}"))?;
        println!("# spans written to {}", path.display());
    }
    for metric in &outcome.metrics {
        println!("{:<36} {:>20} {}", metric.name, metric.value, metric.unit);
    }
    let result = result_json(&outcome);
    if let Some(path) = &out {
        append_record(path, &options, &result).map_err(|e| format!("--out: {e}"))?;
    }
    println!("{result}");
    Ok(())
}

fn compare_command(args: &[String]) -> Result<(), String> {
    let [parent, change, ..] = args else {
        return Err("compare needs two result files".to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
    let bounds = compare::bounds(&read(benchmark)?)?;
    let parent = compare::read_results(&read(parent)?).map_err(|e| format!("{parent}: {e}"))?;
    let change = compare::read_results(&read(change)?).map_err(|e| format!("{change}: {e}"))?;
    print!("{}", compare::report(&parent, &change, &bounds));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some(_) => run_command(&args),
        None => Err("no arguments".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
