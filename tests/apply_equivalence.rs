//! The apply phase and the adaptive iteration budget.
//!
//! Apply is serial at every parallelism: only the decision phase is
//! sharded, and the admitted moves are committed one `apply_move` at a
//! time in ascending vertex order. Runs at parallelism 1, 2 and 8 must
//! therefore equal the per-move apply of the naive reference model
//! (`tests/common/reference.rs`) and leave the same active set.
//!
//! `StreamingRunner` skips the budgeted iterations left once the active
//! set drains. At the default `drain_floor` of zero every skipped
//! iteration is provably a no-op, so the recorded `TimelineStats` must
//! equal a fixed-budget run — the model's. The fuzzed version of that
//! contract lives in `tests/reference_equivalence.rs`; this file keeps the
//! converged-stream regression pin and the non-zero-floor sanity run.

#[allow(dead_code)]
#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;

use apg::core::{
    AdaptiveConfig, AdaptivePartitioner, IterationStats, StreamingRunner, TimelineStats,
};
use apg::graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch};
use apg::partition::InitialStrategy;
use apg::streams::{CdrConfig, CdrStream, PowerLawGrowth, StreamSource};
use reference::ReferenceModel;

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Builds one fuzzed churn batch. `apply_batch` routes through the
/// tolerant mutators (unknown endpoints and duplicate edges are ignored),
/// so arbitrary op tuples are safe.
fn churn_batch(ops: &[(u8, u32, u32)], range: u32) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &(op, a, b) in ops {
        let (a, b) = (a % range, b % range);
        match op % 4 {
            0 => {
                let v = batch.add_vertex(vec![a, b]);
                if op % 8 >= 4 {
                    let w = batch.add_vertex(vec![]);
                    batch.connect_new(v, w);
                }
            }
            1 => batch.add_edge(a, b),
            2 => batch.remove_edge(a, b),
            _ => batch.remove_vertex(a),
        }
    }
    batch
}

/// Everything the apply phase can influence.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    history: Vec<IterationStats>,
    assignment: Vec<u16>,
    cut: usize,
    degree_mass: Vec<usize>,
}

/// Runs iteration blocks interleaved with `UpdateBatch` churn at one
/// parallelism; returns everything observable plus the final active set.
fn run_partitioner(
    graph: &CsrGraph,
    ops: &[(u8, u32, u32)],
    parallelism: usize,
    s: f64,
    seed: u64,
) -> (Observed, Vec<u32>) {
    let cfg = AdaptiveConfig::new(4)
        .willingness(s)
        .parallelism(parallelism);
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let mut history = p.run_for(3);
    for chunk in ops.chunks(3) {
        let range = p.graph().num_vertices().max(1) as u32;
        p.apply_batch(&churn_batch(chunk, range));
        history.extend(p.run_for(2));
    }
    history.extend(p.run_for(3));
    p.audit();
    let active = (0..p.graph().num_vertices() as u32)
        .filter(|&v| p.is_active(v))
        .collect();
    let observed = Observed {
        history,
        assignment: p.partitioning().as_slice().to_vec(),
        cut: p.cut_edges(),
        degree_mass: p.degree_mass().to_vec(),
    };
    (observed, active)
}

/// The same scenario on the reference model's per-move apply.
fn run_model(graph: &CsrGraph, ops: &[(u8, u32, u32)], s: f64, seed: u64) -> Observed {
    let cfg = AdaptiveConfig::new(4).willingness(s);
    let mut m = ReferenceModel::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let mut history = m.run_for(3);
    for chunk in ops.chunks(3) {
        let range = m.graph().num_vertices().max(1) as u32;
        m.apply_batch(&churn_batch(chunk, range));
        history.extend(m.run_for(2));
    }
    history.extend(m.run_for(3));
    Observed {
        history,
        assignment: m.assignment().to_vec(),
        cut: m.cut_edges(),
        degree_mass: m.degree_mass(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apply at parallelism 1, 2 and 8 ≡ the model's serial per-move
    /// apply: identical histories (including `max_partition`, the
    /// live-size peak), final assignments, cut counts and degree-mass
    /// vectors under interleaved `UpdateBatch` churn, and the same active
    /// set at every parallelism.
    #[test]
    fn parallel_apply_equals_serial_apply(
        g in arb_graph(48),
        ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 0..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
    ) {
        let s = s_percent as f64 / 100.0;
        let serial = run_model(&g, &ops, s, seed);
        let (_, serial_active) = run_partitioner(&g, &ops, 1, s, seed);
        for parallelism in [1usize, 2, 8] {
            let (observed, active) = run_partitioner(&g, &ops, parallelism, s, seed);
            prop_assert_eq!(&observed, &serial,
                "diverged from the serial apply at parallelism {}", parallelism);
            prop_assert_eq!(&active, &serial_active,
                "active sets diverged at parallelism {}", parallelism);
        }
    }
}

/// A converged stream where the adaptive budget provably skips: the
/// regression pin for the "identical timelines, less work" claim (the
/// seed/scale pair is chosen so the active set fully drains mid-batch).
#[test]
fn adaptive_budget_skips_on_a_converged_stream() {
    let config = CdrConfig {
        initial_subscribers: 300,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_subscribers);
    let cfg = AdaptiveConfig::new(2).willingness(1.0);
    let mut stream = CdrStream::new(config, 7);
    let batches: Vec<UpdateBatch> = (0..8).map(|_| stream.next_batch().unwrap()).collect();

    let mut model = ReferenceModel::with_strategy(&graph, InitialStrategy::Hash, &cfg, 7);
    let fixed: Vec<TimelineStats> = batches.iter().map(|b| model.ingest(b, 25)).collect();

    let p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 7);
    let mut r = StreamingRunner::new(p).iterations_per_batch(25);
    for batch in &batches {
        r.ingest(batch);
    }
    assert!(
        r.iterations_skipped() > 0,
        "budget never drained — scenario no longer converges"
    );
    assert_eq!(r.timeline(), fixed.as_slice());
    assert_eq!(r.partitioner().iteration(), model.iteration());
    assert_eq!(
        r.partitioner().partitioning().as_slice(),
        model.assignment()
    );
    r.partitioner().audit();
}

/// A non-zero `drain_floor` trades exactness for earlier stops; the run
/// must still be self-consistent (audit) even though its timeline may
/// legitimately differ from the fixed-budget one.
#[test]
fn drain_floor_runs_stay_consistent() {
    let base = DynGraph::from(&gen::mesh3d(5, 5, 4));
    let cfg = AdaptiveConfig::new(3).drain_floor(0.05);
    let p = AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, 13);
    let mut r = StreamingRunner::new(p).iterations_per_batch(10);
    let mut source = PowerLawGrowth::new(&base, 2, 6, 13);
    r.drive(&mut source, 5);
    r.partitioner().audit();
    assert_eq!(r.timeline().len(), 5);
}
