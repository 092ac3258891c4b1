//! One pass of the operating loop over a workload's stream, untraced or
//! traced, plus the recovery measurement that follows the last pass.
//!
//! A batch's loop latency is the time from handing the batch to
//! `StreamingRunner::ingest` until the store's install returns, plus the
//! time the closed-loop client waits on each `QueryRouter::answer`. Query
//! generation between the two is load-generator work: timed apart, never
//! counted.
//!
//! The traced pass times every call into a layer from outside: `ingest`
//! with a zero iteration budget is the graph layer, each of the four
//! `iterate_profiled` calls is the sweep, `append` and `install` are
//! persist, and each `answer` is serve. Because the adaptive budget skips
//! only iterations whose active set is empty, and such an iteration is a
//! no-op apart from the counters it charges, both passes produce the same
//! history; the fingerprint proves it on every run.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use apg_core::{
    fold_timeline_digest, CheckpointStore, StoreConfig, StreamCheckpoint, StreamingRunner,
    TimelineStats, TIMELINE_DIGEST_SEED,
};
use apg_persist::Encode;
use apg_serve::{QueryKind, QueryRouter};

use crate::workload::{set_up, Inputs, Workload, ITERATIONS_PER_BATCH};

/// What the traced pass measured, layer by layer. Times are in
/// milliseconds (`_us` ones in microseconds). Vectors hold one sample per
/// call (per batch for `apply_ms`, `sweep_ms`, `serve_ms`, `batch_ms` and
/// `stages_ms`, per query for the `_us` ones); scalars are pass totals.
#[derive(Debug, Default)]
pub struct Trace {
    pub apply_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    pub decide_ms: f64,
    pub merge_ms: f64,
    pub sweep_apply_ms: f64,
    pub visited: u64,
    pub slots_scheduled: u64,
    pub migrations: u64,
    pub iterations_skipped: u64,
    pub append_ms: Vec<f64>,
    pub install_ms: Vec<f64>,
    pub append_bytes: u64,
    pub install_bytes: u64,
    pub installs: u64,
    pub incremental_installs: u64,
    pub chain_len_max: u64,
    pub live_bytes_max: u64,
    pub serve_ms: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub neighborhood_us: Vec<f64>,
    pub khop_us: Vec<f64>,
    /// Per batch: the loop latency, and the sum of the stage times inside
    /// it. Their difference is time no layer accounts for.
    pub batch_ms: Vec<f64>,
    pub stages_ms: Vec<f64>,
}

/// One pass: set-up, then every batch of the stream through the loop.
pub struct Pass {
    pub setup_s: f64,
    pub batch_ms: Vec<f64>,
    pub query_us: Vec<f64>,
    pub deltas: u64,
    /// Mean over batches of the post-sweep cut ratio.
    pub cut_ratio_mean: f64,
    pub hops: u64,
    pub local_hops: u64,
    pub misses: u64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every batch's deterministic timeline fields and its
    /// served hops and local hops.
    pub fingerprint: u64,
    /// Iterations the runner's adaptive budget skipped (untraced), or
    /// iterations that started with an empty active set (traced).
    pub iterations_skipped: u64,
    pub query_gen_ms: f64,
    /// Largest resident set seen at a batch boundary, in KiB.
    pub peak_rss_kb: u64,
    pub trace: Option<Trace>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn fold_u64(mut digest: u64, x: u64) -> u64 {
    for byte in x.to_le_bytes() {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// A field of `/proc/self/status` in KiB (0 where the file is unreadable).
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one pass and returns it with the live runner it ends with. The
/// store, if any, lives in `store_dir`, which must not exist yet.
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    traced: bool,
    store_dir: &Path,
) -> Result<(Pass, StreamingRunner), String> {
    let iterations = if traced { 0 } else { ITERATIONS_PER_BATCH };
    let started = Instant::now();
    let (mut runner, mut store) = set_up(workload, inputs, seed, iterations, store_dir)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut trace = traced.then(Trace::default);
    let mut pass = Pass {
        setup_s,
        batch_ms: Vec::with_capacity(inputs.batches.len()),
        query_us: Vec::with_capacity(
            inputs.batches.len()
                * inputs
                    .queries
                    .iter()
                    .map(|w| w.queries_per_round)
                    .sum::<usize>(),
        ),
        deltas: 0,
        cut_ratio_mean: 0.0,
        hops: 0,
        local_hops: 0,
        misses: 0,
        attempted: 0,
        failed: 0,
        fingerprint: TIMELINE_DIGEST_SEED,
        iterations_skipped: 0,
        query_gen_ms: 0.0,
        peak_rss_kb: proc_status_kb("VmRSS"),
        trace: None,
    };
    let mut cut_ratio_sum = 0.0;

    for (round, batch) in inputs.batches.iter().enumerate() {
        if let Some(t) = trace.as_mut() {
            t.append_bytes += batch.to_bytes().len() as u64;
        }
        let mut stages = Duration::ZERO;
        let start = Instant::now();
        let stats: TimelineStats = match trace.as_mut() {
            None => runner.ingest(batch),
            Some(t) => {
                let mut stats = runner.ingest(batch);
                let graph_time = start.elapsed();
                t.apply_ms.push(ms(graph_time));
                let mut sweep_time = Duration::ZERO;
                let mut migrations = 0;
                for _ in 0..ITERATIONS_PER_BATCH {
                    let call = Instant::now();
                    let (it, profile) = runner.partitioner_mut().iterate_profiled();
                    sweep_time += call.elapsed();
                    migrations += it.migrations;
                    t.decide_ms += profile.decide_ms;
                    t.merge_ms += profile.merge_ms;
                    t.sweep_apply_ms += profile.apply_ms;
                    t.visited += profile.visited as u64;
                    t.slots_scheduled += profile.slots_scheduled as u64;
                    t.iterations_skipped += u64::from(profile.active_before == 0);
                }
                t.sweep_ms.push(ms(sweep_time));
                t.migrations += migrations as u64;
                stages += graph_time + sweep_time;
                // The runner saw a zero budget; record what the untraced
                // runner records for the same batch.
                stats.migrations = migrations;
                stats.iterations = ITERATIONS_PER_BATCH;
                stats.cut_after = runner.partitioner().cut_edges();
                stats
            }
        };
        pass.attempted += 1;
        if let Some(store) = store.as_mut() {
            pass.attempted += 2;
            let call = Instant::now();
            let appended = store.append(batch);
            let append_time = call.elapsed();
            let call = Instant::now();
            let installed = store.install(&mut runner);
            let install_time = call.elapsed();
            pass.failed += u64::from(appended.is_err());
            if let Some(t) = trace.as_mut() {
                t.append_ms.push(ms(append_time));
                t.install_ms.push(ms(install_time));
                stages += append_time + install_time;
                if let Ok(report) = &installed {
                    t.installs += 1;
                    t.install_bytes += report.bytes as u64;
                    t.incremental_installs += u64::from(report.incremental);
                }
                t.chain_len_max = t.chain_len_max.max(store.store().chain_len() as u64);
                t.live_bytes_max = t.live_bytes_max.max(store.store().live_bytes());
            }
            pass.failed += u64::from(installed.is_err());
        }
        let write_time = start.elapsed();

        let generating = Instant::now();
        let graph = runner.partitioner().graph();
        let queries: Vec<_> = inputs
            .queries
            .iter()
            .flat_map(|w| w.generate(graph, round as u64))
            .collect();
        pass.query_gen_ms += ms(generating.elapsed());

        let router = QueryRouter::new(
            runner.partitioner().graph(),
            runner.partitioner().partitioning(),
        );
        let (mut hops, mut local_hops) = (0u64, 0u64);
        let mut serve_time = Duration::ZERO;
        for query in &queries {
            let call = Instant::now();
            let outcome = router.answer(black_box(query));
            let latency = call.elapsed();
            black_box(&outcome);
            serve_time += latency;
            pass.query_us.push(us(latency));
            if let Some(t) = trace.as_mut() {
                match query.kind() {
                    QueryKind::VertexLookup => t.lookup_us.push(us(latency)),
                    QueryKind::Neighborhood => t.neighborhood_us.push(us(latency)),
                    QueryKind::KHop => t.khop_us.push(us(latency)),
                }
            }
            hops += outcome.hops as u64;
            local_hops += outcome.local_hops as u64;
            pass.misses += u64::from(!outcome.found);
        }
        pass.attempted += queries.len() as u64;
        let batch_time = write_time + serve_time;
        pass.batch_ms.push(ms(batch_time));
        if let Some(t) = trace.as_mut() {
            t.serve_ms.push(ms(serve_time));
            t.batch_ms.push(ms(batch_time));
            t.stages_ms.push(ms(stages + serve_time));
        }

        pass.deltas += stats.deltas as u64;
        cut_ratio_sum += stats.cut_ratio_after();
        pass.hops += hops;
        pass.local_hops += local_hops;
        pass.fingerprint = fold_u64(
            fold_u64(fold_timeline_digest(pass.fingerprint, &stats), hops),
            local_hops,
        );
        pass.peak_rss_kb = pass.peak_rss_kb.max(proc_status_kb("VmRSS"));
    }
    pass.failed += pass.misses;
    pass.cut_ratio_mean = cut_ratio_sum / inputs.batches.len() as f64;
    pass.iterations_skipped = match &trace {
        Some(t) => t.iterations_skipped,
        None => runner.iterations_skipped() as u64,
    };
    pass.trace = trace;
    Ok((pass, runner))
}

/// Rebuilds `live` from its persisted state, checking each copy equals it,
/// and returns the time of each rebuild in milliseconds. `repeats` is
/// `(at least, at most, time after which to stop)`.
///
/// On the durable workload this is `CheckpointStore::open` plus
/// `StreamingRunner::resume` on the pass's store directory. In-memory
/// workloads have no store; for them it is decoding the runner's final
/// checkpoint bytes plus `resume`, the restart cost of a snapshot kept in
/// memory.
pub fn recover(
    workload: Workload,
    live: &StreamingRunner,
    store_dir: &Path,
    (least, most, enough): (usize, usize, Duration),
) -> Result<Vec<f64>, String> {
    let bytes = (!workload.durable()).then(|| live.checkpoint().to_bytes());
    let mut times = Vec::with_capacity(most);
    let started = Instant::now();
    while times.len() < least || (times.len() < most && started.elapsed() < enough) {
        let started = Instant::now();
        let checkpoint = match &bytes {
            Some(bytes) => {
                StreamCheckpoint::from_bytes(bytes).map_err(|e| format!("decode: {e:?}"))?
            }
            None => {
                let (_store, recovered) = CheckpointStore::open(store_dir, StoreConfig::default())
                    .map_err(|e| format!("store open: {e}"))?;
                recovered
                    .checkpoint
                    .ok_or("the store recovered no checkpoint")?
            }
        };
        let recovered = StreamingRunner::resume(checkpoint);
        times.push(ms(started.elapsed()));
        let same = recovered.timeline_digest() == live.timeline_digest()
            && recovered.batches_ingested() == live.batches_ingested()
            && recovered.partitioner().partitioning() == live.partitioner().partitioning()
            && recovered.partitioner().graph() == live.partitioner().graph()
            && recovered.partitioner().cut_edges() == live.partitioner().cut_edges();
        if !same {
            return Err("the recovered runner differs from the live one".to_string());
        }
    }
    Ok(times)
}
