//! The equivalence gate: the optimised partitioner must equal the naive
//! reference model of the paper's heuristic (`tests/common/reference.rs`).
//!
//! The optimised code sweeps only the active set, shards the decision
//! phase across threads, keeps cut, sizes and degree mass incrementally,
//! stores adjacency in a slab, and lets `StreamingRunner` skip the budgeted
//! iterations left once the active set drains. The model does none of
//! that: an exhaustive serial sweep, per-move apply, full recounts, boxed
//! adjacency and a fixed per-batch budget. Under fuzzed `UpdateBatch`
//! churn at parallelism 1, 2 and 8, both must agree on the
//! `IterationStats` history, the `TimelineStats` deterministic fields, the
//! assignment, the cut and the degree mass, and `audit()` must pass after
//! every batch.
//!
//! `tests/active_set_sweep.rs` holds the single-mutation version of the
//! sweep contract and the active-set properties the model cannot express;
//! `tests/apply_equivalence.rs` pins the apply phase and the budget.

#[allow(dead_code)]
#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;

use apg::core::{
    AdaptiveConfig, AdaptivePartitioner, IterationStats, PlacementPolicy, StreamingRunner,
    TimelineStats,
};
use apg::graph::{CsrGraph, Graph, UpdateBatch};
use apg::partition::{InitialStrategy, PartitionId};
use reference::ReferenceModel;

const PARALLELISM: [usize; 3] = [1, 2, 8];

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Cuts a fuzzed op stream into batches of three ops over a graph that
/// starts with `slots` vertex slots. The batch API only builds valid
/// placeholders, and `apply_batch` ignores unknown endpoints and duplicate
/// edges, so arbitrary op tuples are safe.
fn churn_batches(ops: &[(u8, u32, u32)], mut slots: usize) -> Vec<UpdateBatch> {
    ops.chunks(3)
        .map(|chunk| {
            let range = slots.max(1) as u32;
            let mut batch = UpdateBatch::new();
            for &(op, a, b) in chunk {
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
            slots += batch.num_new_vertices();
            batch
        })
        .collect()
}

/// A config drawn from `knobs`: willingness, and one bit each for
/// self-counting, edge balance and least-loaded placement.
fn config(s_percent: u32, knobs: u8, parallelism: usize) -> AdaptiveConfig {
    let placement = if knobs & 4 != 0 {
        PlacementPolicy::LeastLoaded
    } else {
        PlacementPolicy::HashWithFallback
    };
    AdaptiveConfig::new(4)
        .willingness(s_percent as f64 / 100.0)
        .count_self(knobs & 1 != 0)
        .balance_on_edges(knobs & 2 != 0)
        .placement(placement)
        .parallelism(parallelism)
}

/// The state both implementations must agree on at the end of a run.
#[derive(Debug, PartialEq)]
struct End {
    assignment: Vec<PartitionId>,
    cut: usize,
    degree_mass: Vec<usize>,
    iteration: usize,
}

fn end_of_model(m: &ReferenceModel) -> End {
    End {
        assignment: m.assignment().to_vec(),
        cut: m.cut_edges(),
        degree_mass: m.degree_mass(),
        iteration: m.iteration(),
    }
}

fn end_of_partitioner(p: &AdaptivePartitioner) -> End {
    End {
        assignment: p.partitioning().as_slice().to_vec(),
        cut: p.cut_edges(),
        degree_mass: p.degree_mass().to_vec(),
        iteration: p.iteration(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `AdaptivePartitioner` ≡ the reference model: iteration blocks
    /// interleaved with batches give the same `IterationStats` history
    /// (cut, migrations, live vertices, edges, largest partition) and the
    /// same final assignment, cut and degree mass at every parallelism.
    #[test]
    fn partitioner_equals_reference_under_churn(
        g in arb_graph(48),
        ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 0..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
        knobs in 0u8..8,
    ) {
        let batches = churn_batches(&ops, g.num_vertices());
        let mut model = ReferenceModel::with_strategy(
            &g, InitialStrategy::Hash, &config(s_percent, knobs, 1), seed,
        );
        let mut expected: Vec<IterationStats> = model.run_for(3);
        for batch in &batches {
            model.apply_batch(batch);
            expected.extend(model.run_for(2));
        }
        expected.extend(model.run_for(3));
        let expected_end = end_of_model(&model);

        for parallelism in PARALLELISM {
            let cfg = config(s_percent, knobs, parallelism);
            let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
            let mut history = p.run_for(3);
            for batch in &batches {
                p.apply_batch(batch);
                p.audit();
                history.extend(p.run_for(2));
                p.audit();
            }
            history.extend(p.run_for(3));
            p.audit();
            prop_assert_eq!(&history, &expected,
                "histories diverged at parallelism {}", parallelism);
            prop_assert_eq!(&end_of_partitioner(&p), &expected_end,
                "end state diverged at parallelism {}", parallelism);
        }
    }

    /// `StreamingRunner` with its drain-early budget ≡ the model with a
    /// fixed budget: identical `TimelineStats` (deterministic fields), and
    /// the skipped iterations are still charged to the iteration counter.
    #[test]
    fn runner_equals_reference_under_churn(
        g in arb_graph(40),
        ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
        knobs in 0u8..8,
        budget in 1usize..7,
    ) {
        let batches = churn_batches(&ops, g.num_vertices());
        let mut model = ReferenceModel::with_strategy(
            &g, InitialStrategy::Hash, &config(s_percent, knobs, 1), seed,
        );
        let expected: Vec<TimelineStats> =
            batches.iter().map(|b| model.ingest(b, budget)).collect();
        let expected_end = end_of_model(&model);

        for parallelism in PARALLELISM {
            let cfg = config(s_percent, knobs, parallelism);
            let p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
            let mut r = StreamingRunner::new(p).iterations_per_batch(budget);
            for batch in &batches {
                r.ingest(batch);
                r.partitioner().audit();
            }
            prop_assert_eq!(r.timeline(), expected.as_slice(),
                "timelines diverged at parallelism {}", parallelism);
            prop_assert_eq!(&end_of_partitioner(r.partitioner()), &expected_end,
                "end state diverged at parallelism {}", parallelism);
        }
    }
}
