//! `loopbench`: the whole-loop benchmark of the adaptive partitioner.
//!
//! The system runs one loop: a batch arrives, `apply_batch`, the sweep
//! (decide → merge → apply), the write-ahead append, the checkpoint
//! install, then serving. This benchmark drives that loop through public
//! APIs only — `StreamingRunner::ingest`, `CheckpointStore::append` and
//! `install`, and `QueryRouter::answer` — and reports its cost and its
//! partition quality, end to end and per layer.
//!
//! ```text
//! loopbench --workload <name> [--seed 42] [--seconds 25] [--trace 0|1] [--store-dir .bench_store]
//! loopbench compare <parent-runs-dir> <change-runs-dir>
//! loopbench manifest            # prints BENCHMARK.json
//! ```
//!
//! A run generates its inputs from the seed (load-generator work, timed
//! apart and never counted), then repeats whole passes over the stream —
//! set-up, then every batch — until `--seconds` of passes have run (three
//! untraced passes at least). The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Any failed correctness check exits
//! with code 1.
//!
//! Parallelism is fixed at 2 (the core count of the host the bounds were
//! set on), not read from the host, so every host runs the same program.
//! The report header records `threads_available`, the seed, the git commit
//! when one is readable, the store directory with its filesystem type, and
//! the share of the machine's CPU time other guests of the host stole while
//! the run measured.
//!
//! Every pass does the same work in the same order, and interference from
//! other tenants of the host only ever adds time. So the end-to-end
//! latencies take, for each batch and each query, its fastest pass, and
//! report percentiles over those: the cost of each operation with the
//! least disturbance the run saw.
//!
//! # Workloads
//!
//! Each pass is 200 batches; every workload partitions into k = 8 from a
//! hash start and charges 4 repartitioning iterations to each batch.
//!
//! - `cdr-durable`: CDR churn, 20k subscribers at 28 batches a week (~9.7k
//!   deltas a batch). Every batch is written ahead and installed in a
//!   file-backed `CheckpointStore` with fsync on, then 64 uniform queries
//!   are served. It exists because persist dominates it: this is where
//!   fewer fsyncs per batch would show.
//! - `twitter-serve`: Twitter mentions, 4k users, 450 s windows from 17:00
//!   (one full daily rate cycle), in memory. Each batch is followed by 1024
//!   community-biased queries with 2-hop traversals, drawn as 16 sets of 64
//!   with 16 hotspots each (one set's 16 hotspots make the serving cost
//!   swing twofold from seed to seed). Serving dominates it,
//!   and it has no store, so a persist change is predicted to leave it
//!   unchanged.
//! - `burst-sweep`: `holme_kim(1M, 6, 0.1)` with no pre-convergence, then a
//!   +10% forest-fire burst in 500-vertex batches, in memory, 64 uniform
//!   queries a batch. The sweep dominates it; serving and persist are
//!   negligible.
//!
//! # End-to-end metrics (untraced)
//!
//! - `batch_p50_ms`, `batch_p95_ms`: per-batch loop latency, ingest +
//!   append + install + the sum of the batch's query answers. Nearest-rank
//!   percentiles; p95 is refused below 200 samples.
//! - `deltas_per_s`: deltas ingested over loop time (the sum of the
//!   batches' fastest-pass latencies).
//! - `query_p50_us`, `query_p99_us`: `QueryRouter::answer` latency of a
//!   single closed-loop client; p99 is refused below 1000 samples.
//! - `cut_ratio_mean`: mean over batches of the post-sweep cut ratio.
//! - `local_hop_pct`: local hops over all hops served.
//! - `setup_s`: partitioner construction and store open; stream generation
//!   excluded. Median of every pass's set-up plus, after each untraced pass
//!   whose set-up took under 200 ms, up to 10 stand-alone ones within
//!   200 ms.
//! - `recovery_ms`: rebuilding the runner from its persisted state. After
//!   each untraced pass, 1 to 16 rebuilds within 300 ms; the median over
//!   all of them is reported. On `cdr-durable` that is
//!   `CheckpointStore::open` plus
//!   `StreamingRunner::resume` on the pass's directory; the in-memory
//!   workloads have no store, so for them it is decoding the final
//!   checkpoint bytes plus `resume`.
//! - `peak_rss_mb`: the largest resident set (`VmRSS`) seen at a batch
//!   boundary of the first pass, before later passes and recovery leave
//!   freed memory behind in the allocator. It includes the inputs every
//!   pass reuses (the batch stream, and on `burst-sweep` the base graph)
//!   but not the generator's working copies. It is sampled rather than read
//!   from `VmHWM`, whose high-water mark input generation sets on
//!   `burst-sweep`; `VmHWM` is printed beside it.
//!
//! Failed operations — store errors and queries whose anchor is gone — are
//! the JSON line's `failed` out of `attempted` (every ingest, append,
//! install and query). They are 0 on these workloads, so they are not an
//! end-to-end metric, whose values must never be 0.
//!
//! # Per-layer metrics (traced)
//!
//! The traced pass runs the same history with the runner's budget at 0 and
//! four `AdaptivePartitioner::iterate_profiled` calls per batch, timing
//! every call from outside, so the stages add up to the batch total. Sums
//! and counts are per pass.
//!
//! - `graph.*` (apg-graph via `ingest`): apply time and deltas. Should move
//!   `deltas_per_s` on `twitter-serve` and `cdr-durable`.
//! - `sweep.*` (apg-core partitioner, apg-exec active set and shards):
//!   decide/merge/apply time, visited, slots scheduled, migrations,
//!   migrations per visited vertex, iterations skipped. Should move
//!   `batch_p50_ms` and `deltas_per_s` on `burst-sweep`.
//! - `persist.*` (apg-persist `SegmentStore`, apg-core `CheckpointStore`):
//!   append and install time, bytes, incremental share, chain length, live
//!   bytes. Should move `batch_p50_ms`/`batch_p95_ms` on `cdr-durable`, and
//!   `recovery_ms` through the bytes. 0 on the in-memory workloads.
//! - `serve.*` (apg-serve): per-kind answer latency, hops, local hops,
//!   misses. Should move `query_p50_us`/`query_p99_us` and `batch_p50_ms`
//!   on `twitter-serve`.
//! - `loop.*`: traced batch total, the share no stage accounts for, the
//!   traced-over-untraced `batch_p50_ms` overhead, and failed operations.
//!
//! Not measured, on purpose: `apg-pregel`, `apg-metis`, `apg-apps` and the
//! paper-figure binaries are not part of the loop.
//!
//! # Correctness
//!
//! Every pass's fingerprint — FNV-1a over each batch's
//! `TimelineStats::deterministic_fields` plus its served hops and local
//! hops — must equal the first pass's, traced passes included. After each
//! pass `AdaptivePartitioner::audit` must pass. The recovered runner's
//! timeline digest, batch count, graph and partitioning must equal the live
//! runner's.

mod compare;
mod drive;
mod json;
mod manifest;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::exit;

use run::RunArgs;
use workload::Workload;

fn usage(problem: &str) -> ! {
    eprintln!("loopbench: {problem}");
    eprintln!(
        "usage: loopbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--store-dir DIR]\n       \
         loopbench compare <parent-runs-dir> <change-runs-dir>\n       loopbench manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut workload = None;
    let mut run = RunArgs {
        workload: Workload::CdrDurable,
        seed: 42,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        store_dir: PathBuf::from(".bench_store"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, not {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("no workload {value}"))),
                )
            }
            "--seed" => run.seed = number(),
            "--seconds" => run.seconds = number(),
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--store-dir" => run.store_dir = PathBuf::from(value),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    run.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    run
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            0
        }
        Some("compare") => match &args[1..] {
            [parent, change] => compare::run(parent.as_ref(), change.as_ref()),
            _ => usage("compare takes two directories"),
        },
        _ => run::run(&parse_run_args(&args)),
    };
    exit(code)
}
