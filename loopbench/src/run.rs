//! One benchmark run: generate the inputs, repeat passes until the time is
//! up, check the outputs, and report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::drive::{proc_status_kb, recover, run_pass, Pass};
use crate::json::{number, quote};
use crate::manifest::{metric, END_TO_END, PER_LAYER};
use crate::stats::{failed_ops_pct, percentile};
use crate::workload::{set_up, Inputs, Workload, ITERATIONS_PER_BATCH, PARALLELISM};

/// Untraced passes a run makes at least, whatever `--seconds` says: the
/// end-to-end latencies take each batch's and each query's minimum over
/// the passes (see [`end_to_end`]), which needs a few passes to work.
const MIN_PASSES: usize = 3;

/// Recovery and set-up are timed again after every untraced pass, so their
/// samples see the host in the same states the passes did: its speed
/// shifts by a quarter within a run, and a burst of samples taken at one
/// moment would only see that moment.
///
/// Recoveries per round: at least one, then more until 16 or until the
/// round has taken 300 ms. The median over all rounds is reported.
const RECOVERY_ROUND: (usize, usize, Duration) = (1, 16, Duration::from_millis(300));

/// Stand-alone set-ups per round, on top of each pass's own: up to 10
/// within 200 ms, and none when the pass's set-up alone took longer.
const SETUP_ROUND: (usize, Duration) = (10, Duration::from_millis(200));

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub store_dir: PathBuf,
}

/// A reported metric value with a note on what it rests on.
struct Reported {
    name: &'static str,
    value: f64,
    basis: String,
}

/// Runs the benchmark and returns the process exit code: 0 when every
/// correctness check passed, 1 otherwise.
pub fn run(args: &RunArgs) -> i32 {
    let workload = args.workload;
    println!(
        "loopbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let generating = Instant::now();
    let inputs = Inputs::generate(workload, args.seed);
    println!(
        "# inputs: {} batches, {} deltas, generated in {:.3} s (load generator, not measured)",
        inputs.batches.len(),
        inputs.deltas(),
        generating.elapsed().as_secs_f64()
    );

    let run_dir = args
        .store_dir
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let created_root = !args.store_dir.exists();
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        println!(
            "# cannot create the store directory {}: {e}",
            run_dir.display()
        );
        return 1;
    }
    print_header(&run_dir);

    let mut problems = Vec::new();
    let cpu_before = cpu_times();
    let (untraced, traced, recovery_ms, setups) = measure(args, &inputs, &run_dir, &mut problems);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        println!(
            "# host steal: {:.1}% of CPU time while measuring (time other guests of the host took)",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        problems.push(format!("cannot remove {}: {e}", run_dir.display()));
    }
    // A store root this run created goes too, unless another run is using
    // it (removing a non-empty directory fails, which is fine).
    if created_root {
        let _ = std::fs::remove_dir(&args.store_dir);
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        problems.push("no complete pass".to_string());
        for p in &problems {
            println!("# FAILED: {p}");
        }
        return 1;
    }

    let reported = if args.trace {
        per_layer(&untraced, &traced, &mut problems)
    } else {
        end_to_end(&untraced, &recovery_ms, &setups, &mut problems)
    };
    let passes: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "# fingerprint={:016x} passes={} untraced + {} traced, attempted={attempted} failed={failed}",
        untraced[0].fingerprint,
        untraced.len(),
        traced.len()
    );
    for r in &reported {
        let unit = metric(r.name)
            .expect("reported metrics are catalogued")
            .unit;
        println!("{} = {} {unit}  ({})", r.name, r.value, r.basis);
    }
    for p in &problems {
        println!("# FAILED: {p}");
    }
    let correct = problems.is_empty();
    let metrics: Vec<String> = reported
        .iter()
        .map(|r| {
            let unit = metric(r.name)
                .expect("reported metrics are catalogued")
                .unit;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(r.name),
                number(r.value),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Repeats passes until `args.seconds` of them have run (at least
/// [`MIN_PASSES`] untraced; in trace mode alternating untraced and traced
/// passes, at least one each), checking every pass. Returns the untraced
/// and traced passes, the recovery times in milliseconds and the set-up
/// times in seconds.
fn measure(
    args: &RunArgs,
    inputs: &Inputs,
    run_dir: &Path,
    problems: &mut Vec<String>,
) -> (Vec<Pass>, Vec<Pass>, Vec<f64>, Vec<f64>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut recovery_ms = Vec::new();
    let mut expected_skips = None;
    let mut setups = Vec::new();
    // Only pass time counts towards the run's seconds: generation and the
    // rounds of set-ups and recoveries come on top.
    let mut measured = Duration::ZERO;
    for index in 0.. {
        let pass_started = Instant::now();
        let tracing = args.trace && index % 2 == 1;
        let dir = run_dir.join(format!("pass-{index}"));
        let (pass, runner) = match run_pass(args.workload, inputs, args.seed, tracing, &dir) {
            Ok(done) => done,
            Err(e) => {
                problems.push(format!("pass {index}: {e}"));
                break;
            }
        };
        if catch_unwind(AssertUnwindSafe(|| runner.partitioner().audit())).is_err() {
            problems.push(format!("pass {index}: the partitioner audit failed"));
        }
        let first = untraced
            .first()
            .or(traced.first())
            .map(|p: &Pass| p.fingerprint);
        if first.is_some_and(|f| f != pass.fingerprint) {
            problems.push(format!(
                "pass {index} ({}) fingerprint {:016x} differs from pass 0's",
                if tracing { "traced" } else { "untraced" },
                pass.fingerprint
            ));
        }
        // The traced pass counts the iterations the untraced runner skips.
        if *expected_skips.get_or_insert(pass.iterations_skipped) != pass.iterations_skipped {
            problems.push(format!(
                "pass {index} skipped a different number of iterations"
            ));
        }
        measured += pass_started.elapsed();
        setups.push(pass.setup_s);
        if !tracing {
            match recover(args.workload, &runner, &dir, RECOVERY_ROUND) {
                Ok(times) => recovery_ms.extend(times),
                Err(e) => problems.push(format!("pass {index} recovery: {e}")),
            }
            if pass.setup_s < SETUP_ROUND.1.as_secs_f64() {
                set_up_round(args, inputs, &run_dir.join("setup"), &mut setups, problems);
            }
        }
        drop(runner);
        if dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                problems.push(format!("cannot remove {}: {e}", dir.display()));
            }
        }
        println!(
            "# pass {index} ({}): set-up {:.6} s, loop {:.3} s",
            if tracing { "traced" } else { "untraced" },
            pass.setup_s,
            pass.batch_ms.iter().sum::<f64>() / 1e3
        );
        if tracing {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let enough = if args.trace {
            !untraced.is_empty() && !traced.is_empty()
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && measured >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    (untraced, traced, recovery_ms, setups)
}

/// Times up to [`SETUP_ROUND`] stand-alone set-ups, each dropped at once
/// (its store in `dir`, removed afterwards).
fn set_up_round(
    args: &RunArgs,
    inputs: &Inputs,
    dir: &Path,
    setups: &mut Vec<f64>,
    problems: &mut Vec<String>,
) {
    let (most, budget) = SETUP_ROUND;
    let started = Instant::now();
    for _ in 0..most {
        if started.elapsed() >= budget {
            break;
        }
        let began = Instant::now();
        match set_up(args.workload, inputs, args.seed, ITERATIONS_PER_BATCH, dir) {
            Ok(system) => {
                setups.push(began.elapsed().as_secs_f64());
                drop(system);
            }
            Err(e) => problems.push(format!("set-up: {e}")),
        }
        if dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(dir) {
                problems.push(format!("cannot remove {}: {e}", dir.display()));
            }
        }
    }
}

fn print_header(run_dir: &Path) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# threads_available={threads} parallelism={PARALLELISM}");
    println!(
        "# git_commit={}",
        git_commit().unwrap_or_else(|| "unknown".to_string())
    );
    let canonical = run_dir
        .canonicalize()
        .unwrap_or_else(|_| run_dir.to_path_buf());
    println!(
        "# store_dir={} fs_type={}",
        canonical.display(),
        fs_type(&canonical).unwrap_or_else(|| "unknown".to_string())
    );
}

/// Stolen and total CPU ticks of the machine so far, from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (absent in an exported tree).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`:
/// fsync cost depends on it.
fn fs_type(path: &Path) -> Option<String> {
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

/// Nearest-rank percentile, or 0 with a recorded problem when the samples
/// cannot support it.
fn pct(samples: &[f64], q: f64, what: &str, problems: &mut Vec<String>) -> f64 {
    percentile(samples, q).unwrap_or_else(|e| {
        problems.push(format!("{what}: {e}"));
        0.0
    })
}

/// Like [`pct`], but 0 without a problem when the layer was never called
/// on this workload (no store on an in-memory workload).
fn layer_pct(samples: &[f64], q: f64, what: &str, problems: &mut Vec<String>) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        pct(samples, q, what, problems)
    }
}

/// The elementwise minimum of a per-item sample vector over passes.
fn fastest<'a>(passes: &'a [Pass], field: impl Fn(&'a Pass) -> &'a [f64]) -> Vec<f64> {
    let mut min = field(&passes[0]).to_vec();
    for pass in &passes[1..] {
        let samples = field(pass);
        assert_eq!(samples.len(), min.len(), "passes did different work");
        for (m, &x) in min.iter_mut().zip(samples) {
            *m = m.min(x);
        }
    }
    min
}

fn pooled<'a>(passes: &'a [Pass], field: impl Fn(&'a Pass) -> &'a [f64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| field(p).iter().copied())
        .collect()
}

fn end_to_end(
    untraced: &[Pass],
    recovery_ms: &[f64],
    setups: &[f64],
    problems: &mut Vec<String>,
) -> Vec<Reported> {
    let passes = untraced.len();
    // Every pass does the same work in the same order, so batch i (and
    // query i) of one pass is the same operation as in any other. Its
    // fastest pass is its cost undisturbed by other tenants of the host,
    // whose interference only ever adds time.
    let batch_ms = fastest(untraced, |p| &p.batch_ms);
    let query_us = fastest(untraced, |p| &p.query_us);
    let first = &untraced[0];
    let deltas = first.deltas;
    let loop_s: f64 = batch_ms.iter().sum::<f64>() / 1e3;
    let query_gen_ms: f64 = untraced.iter().map(|p| p.query_gen_ms).sum();
    println!("# query generation: {query_gen_ms:.1} ms over {passes} passes (load generator, not measured)");
    let batches = format!(
        "{} batches, each the fastest of {passes} passes",
        batch_ms.len()
    );
    let queries = format!(
        "{} queries, each the fastest of {passes} passes",
        query_us.len()
    );
    let values = [
        (
            "batch_p50_ms",
            pct(&batch_ms, 0.5, "batch_p50_ms", problems),
            format!("nearest-rank p50 of {batches}"),
        ),
        (
            "batch_p95_ms",
            pct(&batch_ms, 0.95, "batch_p95_ms", problems),
            format!("nearest-rank p95 of {batches}"),
        ),
        (
            "deltas_per_s",
            deltas as f64 / loop_s,
            format!("{deltas} deltas over {loop_s:.3} s of fastest-pass loop time"),
        ),
        (
            "query_p50_us",
            pct(&query_us, 0.5, "query_p50_us", problems),
            format!("nearest-rank p50 of {queries}"),
        ),
        (
            "query_p99_us",
            pct(&query_us, 0.99, "query_p99_us", problems),
            format!("nearest-rank p99 of {queries}"),
        ),
        (
            "cut_ratio_mean",
            first.cut_ratio_mean,
            format!(
                "mean over {} batches, identical every pass",
                first.batch_ms.len()
            ),
        ),
        (
            "local_hop_pct",
            100.0 * first.local_hops as f64 / first.hops.max(1) as f64,
            format!("{} local of {} hops per pass", first.local_hops, first.hops),
        ),
        (
            "setup_s",
            pct(setups, 0.5, "setup_s", problems),
            format!("nearest-rank median of {} set-ups", setups.len()),
        ),
        (
            "recovery_ms",
            pct(recovery_ms, 0.5, "recovery_ms", problems),
            format!("nearest-rank median of {} recoveries", recovery_ms.len()),
        ),
        (
            "peak_rss_mb",
            first.peak_rss_kb as f64 / 1024.0,
            format!(
                "largest VmRSS at a batch boundary of the first pass; process VmHWM {} MB",
                proc_status_kb("VmHWM") / 1024
            ),
        ),
    ];
    debug_assert_eq!(values.len(), END_TO_END.len());
    values
        .into_iter()
        .map(|(name, value, basis)| Reported { name, value, basis })
        .collect()
}

fn per_layer(untraced: &[Pass], traced: &[Pass], problems: &mut Vec<String>) -> Vec<Reported> {
    let n = traced.len() as f64;
    let traces: Vec<_> = traced.iter().filter_map(|p| p.trace.as_ref()).collect();
    let pool = |f: fn(&crate::drive::Trace) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let per_pass =
        |f: fn(&crate::drive::Trace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / n;
    let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b) / n;
    let apply = pool(|t| &t.apply_ms);
    let append = pool(|t| &t.append_ms);
    let install = pool(|t| &t.install_ms);
    let batch = pool(|t| &t.batch_ms);
    let stages = pool(|t| &t.stages_ms);
    let (lookup, neighborhood, khop) = (
        pool(|t| &t.lookup_us),
        pool(|t| &t.neighborhood_us),
        pool(|t| &t.khop_us),
    );
    let visited = per_pass(|t| t.visited as f64);
    let migrations = per_pass(|t| t.migrations as f64);
    let installs = per_pass(|t| t.installs as f64);
    let untraced_p50 = pct(
        &pooled(untraced, |p| &p.batch_ms),
        0.5,
        "untraced batch p50",
        problems,
    );
    let traced_p50 = pct(&batch, 0.5, "traced batch p50", problems);
    let attempted: u64 = traced.iter().map(|p| p.attempted).sum();
    let failed: u64 = traced.iter().map(|p| p.failed).sum();
    let values = [
        (
            "graph.apply_ms_p50",
            layer_pct(&apply, 0.5, "graph.apply_ms_p50", problems),
        ),
        (
            "graph.apply_ms_p95",
            layer_pct(&apply, 0.95, "graph.apply_ms_p95", problems),
        ),
        ("graph.apply_ms_sum", sum(&apply)),
        (
            "graph.deltas",
            traced.iter().map(|p| p.deltas as f64).sum::<f64>() / n,
        ),
        ("sweep.ms_sum", sum(&pool(|t| &t.sweep_ms))),
        ("sweep.decide_ms", per_pass(|t| t.decide_ms)),
        ("sweep.merge_ms", per_pass(|t| t.merge_ms)),
        ("sweep.apply_ms", per_pass(|t| t.sweep_apply_ms)),
        ("sweep.visited", visited),
        (
            "sweep.slots_scheduled",
            per_pass(|t| t.slots_scheduled as f64),
        ),
        ("sweep.migrations", migrations),
        (
            "sweep.migrations_per_visited",
            if visited > 0.0 {
                migrations / visited
            } else {
                0.0
            },
        ),
        (
            "sweep.iterations_skipped",
            per_pass(|t| t.iterations_skipped as f64),
        ),
        (
            "persist.append_ms_p50",
            layer_pct(&append, 0.5, "persist.append_ms_p50", problems),
        ),
        (
            "persist.append_ms_p95",
            layer_pct(&append, 0.95, "persist.append_ms_p95", problems),
        ),
        ("persist.append_ms_sum", sum(&append)),
        (
            "persist.install_ms_p50",
            layer_pct(&install, 0.5, "persist.install_ms_p50", problems),
        ),
        (
            "persist.install_ms_p95",
            layer_pct(&install, 0.95, "persist.install_ms_p95", problems),
        ),
        ("persist.install_ms_sum", sum(&install)),
        (
            "persist.install_bytes",
            per_pass(|t| t.install_bytes as f64),
        ),
        // Write-ahead bytes exist only where a store takes them.
        (
            "persist.append_bytes",
            if append.is_empty() {
                0.0
            } else {
                per_pass(|t| t.append_bytes as f64)
            },
        ),
        (
            "persist.incremental_share",
            if installs > 0.0 {
                per_pass(|t| t.incremental_installs as f64) / installs
            } else {
                0.0
            },
        ),
        (
            "persist.chain_len_max",
            traces.iter().map(|t| t.chain_len_max).max().unwrap_or(0) as f64,
        ),
        (
            "persist.live_bytes",
            traces.iter().map(|t| t.live_bytes_max).max().unwrap_or(0) as f64,
        ),
        ("serve.ms_sum", sum(&pool(|t| &t.serve_ms))),
        (
            "serve.lookup_p50_us",
            layer_pct(&lookup, 0.5, "serve.lookup_p50_us", problems),
        ),
        (
            "serve.neighborhood_p50_us",
            layer_pct(&neighborhood, 0.5, "serve.neighborhood_p50_us", problems),
        ),
        (
            "serve.khop_p50_us",
            layer_pct(&khop, 0.5, "serve.khop_p50_us", problems),
        ),
        (
            "serve.khop_p99_us",
            layer_pct(&khop, 0.99, "serve.khop_p99_us", problems),
        ),
        (
            "serve.hops",
            traced.iter().map(|p| p.hops as f64).sum::<f64>() / n,
        ),
        (
            "serve.local_hops",
            traced.iter().map(|p| p.local_hops as f64).sum::<f64>() / n,
        ),
        (
            "serve.misses",
            traced.iter().map(|p| p.misses as f64).sum::<f64>() / n,
        ),
        ("loop.batch_ms_sum", sum(&batch)),
        (
            "loop.unaccounted_pct",
            100.0 * (sum(&batch) - sum(&stages)) / sum(&batch),
        ),
        (
            "loop.trace_overhead_pct",
            100.0 * (traced_p50 / untraced_p50 - 1.0),
        ),
        ("loop.failed_ops_pct", failed_ops_pct(failed, attempted)),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    let basis = format!("{} traced passes", traced.len());
    values
        .into_iter()
        .map(|(name, value)| Reported {
            name,
            value,
            basis: basis.clone(),
        })
        .collect()
}
