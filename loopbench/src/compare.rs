//! Compare mode: runs of a parent commit against runs of a change, one row
//! per workload and end-to-end metric, judged by the metric's own bound and
//! the nine-of-ten pair rule (see [`crate::stats::compare`]).
//!
//! Each side is a directory holding one file per untraced run: the run's
//! standard output as printed. Files are paired by sorted name, so name
//! them by run order (`01.out`, `02.out`, ...) and alternate which side runs
//! first. Where both sides ran a workload with the same seed, their
//! history fingerprints are compared too.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Value};
use crate::manifest::END_TO_END;
use crate::stats::{compare, Verdict};

/// Workload name → metric name → one value per run, in file order.
type Metrics = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// (workload, seed) → history fingerprint.
type Histories = BTreeMap<(String, String), String>;

/// Reads every run output in `dir`.
fn read_runs(dir: &Path) -> Result<(Metrics, Histories), String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.is_file())
        .collect();
    files.sort();
    let mut runs = Metrics::new();
    let mut histories = Histories::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let header = text
            .lines()
            .find(|line| line.starts_with("loopbench "))
            .ok_or_else(|| format!("{}: no loopbench header line", file.display()))?;
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .map(str::to_string)
        };
        if field("trace").as_deref() != Some("0") {
            continue;
        }
        let workload =
            field("workload").ok_or_else(|| format!("{}: no workload", file.display()))?;
        let fingerprint = text
            .lines()
            .find_map(|line| line.strip_prefix("# fingerprint="))
            .and_then(|rest| rest.split_whitespace().next());
        if let (Some(seed), Some(fingerprint)) = (field("seed"), fingerprint) {
            histories.insert((workload.clone(), seed), fingerprint.to_string());
        }
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = parse(last).map_err(|e| format!("{}: result line: {e}", file.display()))?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{}: the run was not correct", file.display()));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", file.display()))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", file.display()))?;
            runs.entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((runs, histories))
}

/// Prints the comparison table. Returns the exit code: 0 when no pair is
/// worse, 1 when one is, 2 when the inputs cannot be compared.
pub fn run(parent_dir: &Path, change_dir: &Path) -> i32 {
    let ((parent, parent_histories), (change, change_histories)) =
        match (read_runs(parent_dir), read_runs(change_dir)) {
            (Ok(p), Ok(c)) => (p, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("compare: {e}");
                return 2;
            }
        };
    let mut any_worse = false;
    let mut rows = 0;
    for (workload, parent_metrics) in &parent {
        let Some(change_metrics) = change.get(workload) else {
            println!("{workload}: no runs of the change");
            continue;
        };
        for def in END_TO_END {
            let (Some(p), Some(c)) = (parent_metrics.get(def.name), change_metrics.get(def.name))
            else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let result = compare(p, c, def.better, bound);
            any_worse |= result.verdict == Verdict::Worse;
            rows += 1;
            println!(
                "{workload:<14} {:<15} {:<10} ratio {:.4} (change median {} / parent median {} {}; {} better) \
                 pairs won {} lost {} tied {} of {}x{} runs; parent spread {:.1}% vs bound {:.0}%",
                def.name,
                result.verdict.label(),
                result.ratio(),
                result.change_median,
                result.parent_median,
                def.unit,
                def.better.label(),
                result.wins,
                result.losses,
                result.ties,
                p.len(),
                c.len(),
                100.0 * result.parent_spread,
                100.0 * bound,
            );
        }
    }
    // A change that only claims speed must leave every history as it was.
    for (key, parent_fingerprint) in &parent_histories {
        if let Some(change_fingerprint) = change_histories.get(key) {
            let same = if parent_fingerprint == change_fingerprint {
                "same"
            } else {
                "DIFFERS"
            };
            println!(
                "{:<14} seed {:<6} history {same} (parent {parent_fingerprint}, change {change_fingerprint})",
                key.0, key.1
            );
        }
    }
    if rows == 0 {
        eprintln!("compare: no workload has untraced runs on both sides");
        return 2;
    }
    i32::from(any_worse)
}
