//! Compare mode: reads two result sets (JSONL files of run records, as
//! `--out` appends them) and prints, per workload, the correctness checks
//! of both sides and then, per metric, the parent and change medians with
//! their quartiles. End-to-end metrics are judged against the bounds in
//! `BENCHMARK.json`.

use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value kept as the parsed tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(value.clone()))
    }
}

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Raw>(text)
        .map(|raw| raw.0)
        .map_err(|error| error.to_string())
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// How an end-to-end metric may move before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds from a `BENCHMARK.json` text.
///
/// # Errors
///
/// Returns a message when the text does not parse or lacks the fields.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let root = parse(benchmark_json)?;
    let metrics = field(&root, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|metric| {
            let name = field(metric, "name").and_then(Value::as_str);
            let better = field(metric, "better").and_then(Value::as_str);
            let bound = field(metric, "bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((
                    name.to_string(),
                    Bound {
                        higher_is_better: better == "higher",
                        bound,
                    },
                )),
                _ => Err("an end_to_end entry lacks name, better or bound".to_string()),
            }
        })
        .collect()
}

/// The runs of one workload in a result set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Metric values by metric name, one per run.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Checks attempted, summed over the runs.
    pub attempted: u64,
    /// Checks failed, summed over the runs.
    pub failed: u64,
}

impl WorkloadRuns {
    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs grouped by workload.
pub type ResultSet = BTreeMap<String, WorkloadRuns>;

/// Reads a result set: one JSON record per line, each with `workload` and
/// a `result` holding the benchmark's result object (`attempted`, `failed`
/// and `metrics`). Blank lines are skipped.
///
/// # Errors
///
/// Returns a message naming the first line that does not parse.
pub fn read_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse(line).map_err(|error| format!("line {}: {error}", number + 1))?;
        let workload = field(&record, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let result =
            field(&record, "result").ok_or_else(|| format!("line {}: no result", number + 1))?;
        let count = |key: &str| {
            field(result, key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: no result.{key}", number + 1))
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let metrics = field(result, "metrics")
            .and_then(Value::as_map)
            .ok_or_else(|| format!("line {}: no result.metrics", number + 1))?;
        let runs = set.entry(workload.to_string()).or_default();
        runs.attempted += attempted;
        runs.failed += failed;
        for (name, metric) in metrics {
            if let Some(value) = field(metric, "value").and_then(Value::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut result = [0.0; 3];
    for (i, slot) in (1..4).zip(result.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    result
}

/// Interquartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict on one end-to-end metric.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], bound: Bound) -> &'static str {
    let parent_median = quartiles(parent)[1];
    let change_median = quartiles(change)[1];
    let worse_by = if bound.higher_is_better {
        (parent_median - change_median) / parent_median.abs()
    } else {
        (change_median - parent_median) / parent_median.abs()
    };
    if spread(parent) > bound.bound || spread(change) > bound.bound {
        "unresolved"
    } else if worse_by > bound.bound {
        "REGRESSION"
    } else if -worse_by > bound.bound {
        "improved"
    } else {
        "within bound"
    }
}

/// Renders the comparison table. Each workload opens with its checks,
/// flagged when the change fails a larger share of them than the parent.
/// Metrics with a bound get a verdict; the others (per-layer metrics) are
/// listed for reading.
#[must_use]
pub fn report(parent: &ResultSet, change: &ResultSet, bounds: &BTreeMap<String, Bound>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<36} {:>14} {:>14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "parent_med", "change_med", "change_q1", "change_q3", "move"
    );
    for (workload, parent_runs) in parent {
        let Some(change_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<14} (absent from the change's results)");
            continue;
        };
        let checks = if change_runs.failed_ratio() > parent_runs.failed_ratio() {
            "MORE CHECKS FAILED"
        } else {
            "no more checks failed"
        };
        let _ = writeln!(
            out,
            "{workload:<14} {:<36} parent {} of {} failed, change {} of {} failed  {checks}",
            "checks",
            parent_runs.failed,
            parent_runs.attempted,
            change_runs.failed,
            change_runs.attempted
        );
        for (name, parent_values) in &parent_runs.metrics {
            let Some(change_values) = change_runs.metrics.get(name) else {
                continue;
            };
            let [_, parent_median, _] = quartiles(parent_values);
            let [q1, change_median, q3] = quartiles(change_values);
            let moved = if parent_median == 0.0 {
                0.0
            } else {
                (change_median - parent_median) / parent_median.abs()
            };
            let judged = bounds
                .get(name)
                .map_or("-", |bound| verdict(parent_values, change_values, *bound));
            let _ = writeln!(
                out,
                "{workload:<14} {name:<36} {parent_median:>14.6} {change_median:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%  {judged}",
                moved * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let higher = Bound {
            higher_is_better: true,
            bound: 0.1,
        };
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0, 80.0, 80.5], higher),
            "REGRESSION"
        );
        assert_eq!(
            verdict(&parent, &[98.0, 99.0, 97.0, 98.0, 98.5], higher),
            "within bound"
        );
        assert_eq!(
            verdict(&parent, &[130.0, 131.0, 129.0, 130.0, 130.5], higher),
            "improved"
        );
        assert_eq!(
            verdict(&parent, &[50.0, 150.0, 80.0, 120.0, 100.0], higher),
            "unresolved"
        );
        let lower = Bound {
            higher_is_better: false,
            bound: 0.1,
        };
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0, 80.0, 80.5], lower),
            "improved"
        );
    }

    #[test]
    fn result_sets_and_bounds_parse() {
        let records = "{\"workload\":\"w\",\"seed\":1,\"result\":{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"m\":{\"value\":2.5,\"unit\":\"s\"}}}}\n\n";
        let set = read_results(records).unwrap();
        assert_eq!(set["w"].metrics["m"], vec![2.5]);
        assert_eq!((set["w"].attempted, set["w"].failed), (1, 0));
        let benchmark =
            "{\"end_to_end\":[{\"name\":\"m\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.2}]}";
        let bounds = bounds(benchmark).unwrap();
        assert_eq!(
            bounds["m"],
            Bound {
                higher_is_better: false,
                bound: 0.2
            }
        );
        let same = report(&set, &set, &bounds);
        assert!(same.contains("within bound") && same.contains("no more checks failed"));
        let failing = read_results(&records.replace("\"failed\":0", "\"failed\":1")).unwrap();
        assert!(report(&set, &failing, &bounds).contains("MORE CHECKS FAILED"));
        assert!(!report(&failing, &failing, &bounds).contains("MORE CHECKS FAILED"));
    }
}
