//! Layout-equivalence regression suite: the slab-backed `DynGraph`
//! adjacency must behave exactly like the boxed `Vec<Vec<_>>` layout it
//! replaced (the reference model's [`BoxedGraph`]), under arbitrary
//! batched churn — tombstones, re-additions and forced compaction
//! included. The slab is a memory layout, not a graph semantics change and
//! not a wire-format change, so this file also pins the persisted format
//! version.

#[allow(dead_code)]
#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;

use apg::graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch, VertexId};
use reference::BoxedGraph;

/// Asserts the slab graph and the boxed reference agree slot-for-slot.
fn assert_same(slab: &DynGraph, boxed: &BoxedGraph) {
    if let Some(difference) = boxed.diff(slab) {
        panic!("slab diverged from the boxed reference: {difference}");
    }
}

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk` deltas
/// (same idiom as `proptest_invariants.rs`).
fn batches_from_ops(ops: &[(u8, u32, u32)], base_slots: usize, chunk: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut batch = UpdateBatch::new();
    let mut slots = base_slots;
    for &(op, a, b) in ops {
        let range = (slots + batch.num_new_vertices()).max(1) as u32;
        match op {
            0 => {
                batch.add_vertex(vec![a % range]);
            }
            1 => batch.add_edge(a % range, b % range),
            2 => batch.remove_edge(a % range, b % range),
            3 => batch.remove_vertex(a % range),
            _ => {
                let n = batch.num_new_vertices();
                if n >= 2 {
                    batch.connect_new(a as usize % n, b as usize % n);
                }
            }
        }
        if batch.len() >= chunk {
            slots += batch.num_new_vertices();
            out.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched churn — vertex/edge adds, removals into tombstones, edges
    /// into freed slots — produces the same graph and the same
    /// `ApplyReport` in both layouts, with forced slab compaction
    /// interleaved mid-sequence so relocation/garbage-reclaim paths are
    /// exercised, not just the append path.
    #[test]
    fn slab_graph_matches_boxed_reference(
        ops in proptest::collection::vec((0u8..5, 0u32..48, 0u32..48), 1..220),
        base in 1usize..12,
        compact_every in 1usize..4,
    ) {
        let mut slab = DynGraph::with_vertices(base);
        let mut boxed = BoxedGraph::with_vertices(base);
        for (i, batch) in batches_from_ops(&ops, base, 11).into_iter().enumerate() {
            let slab_report = batch.apply(&mut slab);
            let boxed_report = batch.apply_to(&mut boxed);
            prop_assert_eq!(&slab_report, &boxed_report, "reports diverged at batch {}", i);
            if i % compact_every == 0 {
                slab.compact_adjacency();
            }
            assert_same(&slab, &boxed);
        }
    }

    /// `compact_adjacency` is observation-free: logical equality (`==`),
    /// every neighbour slice and the edge/vertex counts are unchanged by a
    /// forced compaction at any point in a mutation history.
    #[test]
    fn compaction_is_unobservable(
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 1..120),
        base in 1usize..10,
    ) {
        let mut compacted = DynGraph::with_vertices(base);
        let mut untouched = DynGraph::with_vertices(base);
        for batch in batches_from_ops(&ops, base, 7) {
            batch.apply(&mut compacted);
            batch.apply(&mut untouched);
            compacted.compact_adjacency();
            prop_assert_eq!(&compacted, &untouched, "compaction changed the logical graph");
        }
    }
}

/// The degree-prepass CSR import produces exactly the CSR's adjacency and
/// round-trips back to an identical CSR.
#[test]
fn csr_round_trip_preserves_adjacency() {
    let csr = gen::holme_kim(2_000, 6, 0.2, 9);
    let dyn_graph = DynGraph::from(&csr);
    assert_eq!(dyn_graph.num_vertices(), csr.num_vertices());
    assert_eq!(dyn_graph.num_edges(), csr.num_edges());
    for v in 0..csr.num_vertices() as VertexId {
        assert_eq!(dyn_graph.neighbors(v), csr.neighbors(v));
    }
    assert_eq!(dyn_graph.to_csr(), csr);
}

/// A scale-free burst followed by a deletion wave matches the boxed
/// reference even when the slab has relocated and compacted heavily —
/// the deterministic, larger-scale cousin of the proptest above.
#[test]
fn burst_and_deletion_wave_match_reference() {
    let csr: CsrGraph = gen::holme_kim(5_000, 8, 0.1, 31);
    let n = csr.num_vertices();
    let mut slab = DynGraph::from(&csr);
    let mut boxed = BoxedGraph::with_vertices(n);
    let mut seed_batch = UpdateBatch::new();
    for v in 0..n as VertexId {
        for &w in csr.neighbors(v) {
            if w > v {
                seed_batch.add_edge(v, w);
            }
        }
    }
    seed_batch.apply_to(&mut boxed);

    let mut churn = UpdateBatch::new();
    for v in (0..n as VertexId).step_by(3) {
        churn.remove_vertex(v);
    }
    for v in (1..n as VertexId).step_by(5) {
        if let Some(&w) = csr.neighbors(v).first() {
            churn.remove_edge(v, w);
        }
    }
    let a = churn.add_vertex(vec![1, 4]);
    let b = churn.add_vertex(vec![7]);
    churn.connect_new(a, b);
    let slab_report = churn.apply(&mut slab);
    let boxed_report = churn.apply_to(&mut boxed);
    assert_eq!(slab_report, boxed_report);
    slab.compact_adjacency();
    assert_same(&slab, &boxed);
}

/// The slab rework is layout-only: the persisted snapshot format must not
/// move as a side effect of an in-memory layout change. Bumping this
/// constant requires re-blessing the golden fixtures (see
/// `persist_fixtures.rs`) — v4 is the incremental-snapshot format
/// (delta-encoded checkpoints + chained delta-snapshot files; an
/// *intentional* bump, re-blessed with it).
#[test]
fn wire_format_version_unchanged() {
    assert_eq!(apg::persist::format::VERSION, 4);
}
