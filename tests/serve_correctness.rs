//! Correctness and determinism of the partition-aware serving layer.
//!
//! Three contracts:
//!
//! 1. **Traversal correctness** — `Query::KHop` answered by the router is
//!    equivalent to a brute-force BFS over the same snapshot: the same
//!    vertex set, and hop/locality accounting that re-derives from the
//!    assignment. Pinned by proptest over random graphs with interleaved
//!    `UpdateBatch` churn, so the equivalence holds mid-stream, not just on
//!    pristine graphs.
//! 2. **Scratch reuse** — the router keeps one traversal scratch per
//!    thread and resets it by what the previous traversal reached. Answers
//!    stay equal to the brute-force BFS, and `k_hop_vertices` to the
//!    discovery-order reference BFS, when one thread alternates between
//!    graphs of different sizes and the graphs grow between queries, and
//!    when `serve_round` fans out over fresh worker threads.
//! 3. **Serve-timeline determinism** — a streaming run with an interleaved
//!    serve phase produces a byte-identical `ServeStats` timeline at
//!    `parallelism` = 1, 2 and 8 (same pinning style as
//!    `streaming_determinism.rs`).

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
use apg::graph::{DynGraph, Graph, UpdateBatch, VertexId};
use apg::partition::{InitialStrategy, PartitionId, Partitioning};
use apg::prelude::{Query, QueryMix, QueryRouter, QueryWorkload, ServeStats};
use apg::serve::QueryOutcome;
use apg::streams::{CdrConfig, CdrStream};

/// Reference implementation: plain BFS to depth `k`, no shared code with
/// the router's traversal beyond the graph API.
fn brute_force_khop(g: &DynGraph, anchor: VertexId, k: usize) -> BTreeSet<VertexId> {
    let mut reached = BTreeSet::new();
    if !g.is_vertex(anchor) {
        return reached;
    }
    let mut frontier = vec![anchor];
    let mut seen: BTreeSet<VertexId> = [anchor].into();
    for _ in 0..k {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.neighbors(v) {
                if seen.insert(w) {
                    reached.insert(w);
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    reached
}

/// Discovery-order reference: a queue-of-`(vertex, depth)` BFS that
/// allocates its visited set per call, as the router did before it kept a
/// reusable scratch. Vertices within `k` hops of `anchor`, anchor excluded,
/// in the order a FIFO traversal over sorted neighbour lists finds them.
fn reference_bfs_order(g: &DynGraph, anchor: VertexId, k: usize) -> Vec<VertexId> {
    let mut reached = Vec::new();
    if k == 0 || !g.is_vertex(anchor) {
        return reached;
    }
    let mut seen = vec![false; g.num_vertices()];
    seen[anchor as usize] = true;
    let mut frontier = VecDeque::new();
    frontier.push_back((anchor, 0usize));
    while let Some((v, depth)) = frontier.pop_front() {
        for &w in g.neighbors(v) {
            if seen[w as usize] {
                continue;
            }
            seen[w as usize] = true;
            reached.push(w);
            if depth + 1 < k {
                frontier.push_back((w, depth + 1));
            }
        }
    }
    reached
}

/// The outcome a query must have, derived from [`brute_force_khop`] and
/// the assignment alone.
fn brute_force_outcome(g: &DynGraph, p: &Partitioning, query: &Query) -> QueryOutcome {
    let anchor = query.anchor();
    if !g.is_vertex(anchor) {
        return QueryOutcome::missing();
    }
    let k = match *query {
        Query::VertexLookup(_) => {
            return QueryOutcome {
                found: true,
                result_size: 1,
                hops: 0,
                local_hops: 0,
            }
        }
        Query::Neighborhood(_) => 1,
        Query::KHop { k, .. } => k,
    };
    let reached = brute_force_khop(g, anchor, k);
    let home = p.partition_of(anchor);
    QueryOutcome {
        found: true,
        result_size: reached.len(),
        hops: reached.len(),
        local_hops: reached
            .iter()
            .filter(|&&v| p.partition_of(v) == home)
            .count(),
    }
}

/// SplitMix64: the test's own deterministic stream for graph shapes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sparse random graph on `n` slots, about two edges per vertex, plus a
/// hub joined to every 8th vertex so that traversals through it reach a
/// large share of the graph.
fn sparse_graph(n: usize, seed: u64) -> DynGraph {
    let mut state = seed;
    let mut g = DynGraph::with_vertices(n);
    for _ in 0..n {
        let u = (splitmix(&mut state) % n as u64) as VertexId;
        let v = (splitmix(&mut state) % n as u64) as VertexId;
        g.add_edge(u, v);
    }
    for v in (8..n as VertexId).step_by(8) {
        g.add_edge(0, v);
    }
    g
}

/// A hash assignment of every slot of `g` into four partitions.
fn hash_partitioning(g: &DynGraph) -> Partitioning {
    let labels = (0..g.num_vertices() as u64)
        .map(|v| (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62) as PartitionId)
        .collect();
    Partitioning::from_assignment(labels, 4)
}

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk` deltas
/// (same scheme as `proptest_invariants.rs`).
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every churn batch, `KHop` answered by the router equals a
    /// brute-force BFS on the same snapshot — same vertex set, hop count =
    /// set size, and local hops re-derived from the assignment.
    #[test]
    fn khop_matches_brute_force_bfs_under_churn(
        n in 4usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..80),
        k in 0usize..5,
        seed in 0u64..500,
    ) {
        let mut graph = DynGraph::with_vertices(n);
        for &(u, v) in &edges {
            if (u as usize) < n && (v as usize) < n {
                graph.add_edge(u, v);
            }
        }
        let config = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
        let mut partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed);

        for batch in batches_from_ops(&ops, n, 16) {
            partitioner.apply_batch(&batch);
            partitioner.iterate();
            let g = partitioner.graph();
            let p = partitioner.partitioning();
            let router = QueryRouter::new(g, p);
            for anchor in g.vertices().take(12) {
                let reference = brute_force_khop(g, anchor, k);
                let reached: BTreeSet<VertexId> =
                    router.k_hop_vertices(anchor, k).into_iter().collect();
                prop_assert_eq!(&reached, &reference, "anchor {} depth {}", anchor, k);

                let outcome = router.answer(&Query::KHop { anchor, k });
                prop_assert!(outcome.found);
                prop_assert_eq!(outcome.result_size, reference.len());
                prop_assert_eq!(outcome.hops, reference.len());
                let home = p.partition_of(anchor);
                let local = reference
                    .iter()
                    .filter(|&&v| p.partition_of(v) == home)
                    .count();
                prop_assert_eq!(outcome.local_hops, local);
            }
        }
    }

    /// `Neighborhood` is exactly `KHop { k: 1 }` — both results and
    /// accounting — on any churned snapshot.
    #[test]
    fn neighborhood_is_one_hop(
        n in 4usize..32,
        edges in proptest::collection::vec((0u32..32, 0u32..32), 1..80),
        seed in 0u64..500,
    ) {
        let mut graph = DynGraph::with_vertices(n);
        for &(u, v) in &edges {
            if (u as usize) < n && (v as usize) < n {
                graph.add_edge(u, v);
            }
        }
        let config = AdaptiveConfig::builder(4).parallelism(1).build().unwrap();
        let partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed);
        let router = QueryRouter::new(partitioner.graph(), partitioner.partitioning());
        for anchor in partitioner.graph().vertices() {
            prop_assert_eq!(
                router.answer(&Query::Neighborhood(anchor)),
                router.answer(&Query::KHop { anchor, k: 1 })
            );
        }
    }

    /// One thread answers queries against a large sparse graph (over 4k
    /// slots, so most resets clear only the reached vertices) and a small
    /// dense graph (whose traversals reach most of its slots, so the
    /// scratch is reset by a fill), in fuzzed order, while churn grows
    /// either graph. Each query is asked twice in a row, so marks a reset
    /// missed would hide vertices from the second answer.
    #[test]
    fn scratch_reuse_matches_reference_bfs(
        sparse_n in 4_096usize..4_608,
        dense_n in 4usize..24,
        seed in 0u64..1_000,
        steps in proptest::collection::vec((0u8..4, 0u32..100_000, 0usize..5), 1..40),
    ) {
        let mut sparse = sparse_graph(sparse_n, seed);
        let mut dense = DynGraph::with_vertices(dense_n);
        for u in 0..dense_n as VertexId {
            for v in u + 1..dense_n as VertexId {
                if !(u + v + seed as VertexId).is_multiple_of(4) {
                    dense.add_edge(u, v);
                }
            }
        }
        // A fresh thread starts with an empty scratch, so the first query,
        // on the dense graph, is reset by a fill before the sparse graph
        // grows the scratch past it.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let first = (1, seed as u32, 2);
                for (op, x, k) in std::iter::once(first).chain(steps.iter().copied()) {
                    let g = if op % 2 == 0 { &mut sparse } else { &mut dense };
                    if op >= 2 {
                        // Churn: a new vertex joined to two existing ones,
                        // and one edge between existing vertices.
                        let n = g.num_vertices() as u32;
                        let v = g.add_vertex();
                        g.add_edge(v, x % n);
                        g.add_edge(v, (x / 7) % n);
                        g.add_edge((x / 3) % n, (x / 11) % n);
                        continue;
                    }
                    let p = hash_partitioning(g);
                    let router = QueryRouter::new(g, &p);
                    let anchor = x % g.num_vertices() as u32;
                    let order = reference_bfs_order(g, anchor, k);
                    for query in [Query::KHop { anchor, k }, Query::Neighborhood(anchor)] {
                        let expected = brute_force_outcome(g, &p, &query);
                        for _ in 0..2 {
                            prop_assert_eq!(router.answer(&query), expected, "{:?}", query);
                            prop_assert_eq!(
                                &router.k_hop_vertices(anchor, k),
                                &order,
                                "anchor {} depth {}",
                                anchor,
                                k
                            );
                        }
                    }
                }
            })
            .join()
            .expect("scratch-reuse worker panicked");
        });
    }
}

/// `serve_round` on a graph over 4k slots equals the brute-force fold of
/// its queries at parallelism 1, 2 and 8. The fan-out workers are fresh
/// threads, so each grows its own scratch and then resets it by the
/// vertices each traversal reached, under a different interleaving of
/// queries per worker than the serial round.
#[test]
fn serve_round_matches_brute_force_at_any_parallelism() {
    let g = sparse_graph(6_000, 17);
    let p = hash_partitioning(&g);
    let router = QueryRouter::new(&g, &p);
    for mix in [QueryMix::Uniform, QueryMix::CommunityBiased] {
        let workload = QueryWorkload::new(mix, 512, 5).khop_depth(3);
        let mut expected = ServeStats {
            round: 2,
            ..ServeStats::default()
        };
        for query in workload.generate(&g, 2) {
            expected.absorb(query.kind(), &brute_force_outcome(&g, &p, &query));
        }
        assert!(expected.khops > 0 && expected.hops > 0, "{mix:?} too quiet");
        for parallelism in [1, 2, 8] {
            assert_eq!(
                router.serve_round(&workload, 2, parallelism),
                expected,
                "{mix:?} at parallelism {parallelism}"
            );
        }
    }
}

/// One streaming run with an interleaved serve phase; returns the serve
/// timeline.
fn serve_timeline(parallelism: usize, mix: QueryMix) -> Vec<ServeStats> {
    const SEED: u64 = 31;
    let config = CdrConfig {
        initial_subscribers: 3_000,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_subscribers);
    let cfg = AdaptiveConfig::new(8).parallelism(parallelism);
    let mut runner = StreamingRunner::new(AdaptivePartitioner::with_strategy(
        &graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(3)
    .serve_workload(QueryWorkload::new(mix, 96, SEED ^ 0xBEEF).khop_depth(3));
    runner.drive(&mut CdrStream::new(config, SEED), 12);
    runner.serve_timeline().to_vec()
}

/// The serve timeline is byte-identical at parallelism 1, 2 and 8, for
/// every query mix — and the projection check pins every deterministic
/// field, not just `ServeStats` equality.
#[test]
fn serve_timeline_is_parallelism_invariant() {
    for mix in [
        QueryMix::Uniform,
        QueryMix::DegreeBiased,
        QueryMix::CommunityBiased,
    ] {
        let sequential = serve_timeline(1, mix);
        assert_eq!(sequential.len(), 12);
        for parallelism in [2, 8] {
            let parallel = serve_timeline(parallelism, mix);
            assert_eq!(sequential, parallel, "{mix:?} at parallelism {parallelism}");
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    a.deterministic_fields(),
                    b.deterministic_fields(),
                    "{mix:?} round {} fields drifted",
                    a.round
                );
            }
        }
        let hops: usize = sequential.iter().map(|s| s.hops).sum();
        assert!(hops > 0, "{mix:?} scenario too quiet to prove anything");
    }
}
