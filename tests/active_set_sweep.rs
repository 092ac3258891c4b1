//! Property tests pinning the active-set sweep's exactness contract:
//! visiting only active vertices must produce **exactly** the history an
//! exhaustive every-live-vertex sweep produces, for any graph, seed,
//! willingness and interleaved mutation schedule — because randomness is
//! keyed per `(seed, vertex, iteration)` and skipped vertices provably
//! decide *Stay*.
//!
//! The exhaustive sweep is the naive reference model's
//! (`tests/common/reference.rs`). This file drives the partitioner through
//! its single-mutation API, one op at a time; the batch-driven version of
//! the same contract is `tests/reference_equivalence.rs`.

#[allow(dead_code)]
#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, IterationStats};
use apg::graph::{gen, CsrGraph, Graph};
use apg::partition::InitialStrategy;
use apg_graph::delta::DeltaTarget;
use reference::ReferenceModel;

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Applies one fuzzed op to the partitioner through its mutators.
fn mutate(p: &mut AdaptivePartitioner, op: u8, a: u32, b: u32) {
    let range = p.graph().num_vertices().max(1) as u32;
    match op % 4 {
        0 => {
            p.add_vertex_with_edges(&[a % range, b % range]);
        }
        1 => {
            p.add_edge(a % range, b % range);
        }
        2 => {
            p.remove_edge(a % range, b % range);
        }
        _ => {
            p.remove_vertex(a % range);
        }
    }
}

/// The same op on the model, through its delta hooks.
fn mutate_model(m: &mut ReferenceModel, op: u8, a: u32, b: u32) {
    let range = m.graph().num_vertices().max(1) as u32;
    match op % 4 {
        0 => {
            let v = m.delta_add_vertex();
            m.delta_add_edge(v, a % range);
            m.delta_add_edge(v, b % range);
        }
        1 => {
            m.delta_add_edge(a % range, b % range);
        }
        2 => {
            m.delta_remove_edge(a % range, b % range);
        }
        _ => {
            m.delta_remove_vertex(a % range);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Active-set sweep ≡ exhaustive sweep: identical `IterationStats`
    /// histories, final assignments and cut counts under interleaved
    /// mutations, for any seed and willingness.
    #[test]
    fn active_sweep_equals_exhaustive_sweep(
        g in arb_graph(48),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
    ) {
        let cfg = AdaptiveConfig::new(4)
            .willingness(s_percent as f64 / 100.0)
            .parallelism(2);

        let mut m = ReferenceModel::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        let mut expected: Vec<IterationStats> = m.run_for(3);
        for chunk in ops.chunks(3) {
            for &(op, a, b) in chunk {
                mutate_model(&mut m, op, a, b);
            }
            expected.extend(m.run_for(2));
        }
        expected.extend(m.run_for(3));

        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        let mut history = p.run_for(3);
        for chunk in ops.chunks(3) {
            for &(op, a, b) in chunk {
                mutate(&mut p, op, a, b);
            }
            history.extend(p.run_for(2));
        }
        history.extend(p.run_for(3));
        p.audit();

        prop_assert_eq!(&history, &expected, "histories diverged");
        prop_assert_eq!(p.partitioning().as_slice(), m.assignment(), "assignments diverged");
        prop_assert_eq!(p.cut_edges(), m.cut_edges(), "cut counts diverged");
    }

    /// The active-set invariant holds at every observation point, not just
    /// at the end: every *inactive* vertex provably decides Stay — no
    /// partition outweighs its current one among its neighbours
    /// (`audit()` checks exactly this, plus the set's own accounting).
    #[test]
    fn active_set_invariant_holds_under_churn(
        g in arb_graph(40),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..20),
        seed in 0u64..1000,
    ) {
        let cfg = AdaptiveConfig::new(3).willingness(0.6).parallelism(2);
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        p.audit();
        for &(op, a, b) in &ops {
            mutate(&mut p, op, a, b);
            p.audit();
            p.iterate();
            p.audit();
        }
    }

    /// Once quiet, the sweep's work tracks the boundary, not the graph:
    /// a converged mesh keeps iterating without visiting interior
    /// vertices, and the visited count equals the active set.
    #[test]
    fn quiet_iterations_visit_only_the_active_set(seed in 0u64..200) {
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::new(4).max_iterations(400);
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        p.run_to_convergence();
        let live = p.graph().num_live_vertices();
        for _ in 0..3 {
            let before = p.num_active_vertices();
            let (_, profile) = p.iterate_profiled();
            prop_assert_eq!(profile.active_before, before);
            prop_assert!(profile.visited <= before);
            prop_assert!(profile.visited < live, "quiet sweep still O(|V|)");
        }
        p.audit();
    }
}
