//! The query router: read-only execution over a partitioned graph
//! snapshot.

use std::cell::RefCell;
use std::time::Instant;

use apg_exec::fanout;
use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::Partitioning;

use crate::query::{Query, QueryOutcome};
use crate::stats::ServeStats;
use crate::workload::QueryWorkload;

thread_local! {
    /// Each thread's traversal scratch. A thread-local rather than a router
    /// field because [`QueryRouter::answer`] takes `&self` and
    /// [`QueryRouter::serve_round`] shares the router across its fan-out
    /// workers.
    static TRAVERSAL: RefCell<Traversal> = const {
        RefCell::new(Traversal {
            seen: Vec::new(),
            order: Vec::new(),
        })
    };
}

/// Reusable breadth-first traversal state: one visited flag per vertex slot
/// and the discovery list, which doubles as the level-ranged frontier.
///
/// Between runs `seen` is true exactly at the entries of `order`, so the
/// next run resets only those. `seen` grows to the largest slot count the
/// thread has served and never shrinks; no run allocates once both vectors
/// have reached their high-water marks.
struct Traversal {
    seen: Vec<bool>,
    order: Vec<VertexId>,
}

impl Traversal {
    /// Breadth-first traversal of `graph` to depth `k` from the live vertex
    /// `anchor`. Returns every vertex it reached, anchor excluded, in
    /// discovery order. Neighbour lists are sorted, so that order — and
    /// every outcome counted over it — is deterministic. Costs O(edges
    /// scanned) plus the reset of the previous run's marks.
    fn run(&mut self, graph: &DynGraph, anchor: VertexId, k: usize) -> &[VertexId] {
        // Clearing one mark per reached vertex is a scattered write; once
        // the last run reached a sixteenth of the scratch, one sequential
        // fill is cheaper.
        if self.order.len() * 16 >= self.seen.len() {
            self.seen.fill(false);
        } else {
            for &v in &self.order {
                self.seen[v as usize] = false;
            }
        }
        self.order.clear();
        let n = graph.num_vertices();
        if self.seen.len() < n {
            self.seen.resize(n, false);
        }

        self.seen[anchor as usize] = true;
        self.order.push(anchor);
        let mut level = 0..1;
        for _ in 0..k {
            for i in level.clone() {
                let v = self.order[i];
                for &w in graph.neighbors(v) {
                    if !self.seen[w as usize] {
                        self.seen[w as usize] = true;
                        self.order.push(w);
                    }
                }
            }
            // `k` may exceed the anchor's eccentricity: stop at the first
            // level that discovers nothing.
            if level.end == self.order.len() {
                break;
            }
            level = level.end..self.order.len();
        }
        &self.order[1..]
    }
}

/// Routes queries to their anchor's serving domain and executes them
/// against a borrowed `(graph, assignment)` snapshot.
///
/// The router holds shared borrows only — it can never mutate the graph or
/// the assignment, which is what lets the streaming runner interleave serve
/// rounds between batches and assert afterwards that serving dirtied
/// nothing. Each query executes at the partition owning its anchor; every
/// vertex the traversal reaches is one *hop*, **local** when that vertex
/// lives in the anchor's partition and **remote** otherwise.
///
/// A query costs O(edges scanned), not O(vertices): a one-hop read is the
/// anchor's neighbour list itself, and a deeper traversal reuses a
/// per-thread scratch that it resets by the vertices the previous
/// traversal reached. Answering allocates nothing once that scratch has
/// grown to the largest graph and the longest traversal the thread has
/// met; it keeps one byte per slot of that graph plus that discovery list.
///
/// See the [crate docs](crate) for a worked example.
pub struct QueryRouter<'a> {
    graph: &'a DynGraph,
    assignment: &'a Partitioning,
}

impl<'a> QueryRouter<'a> {
    /// A router over the given snapshot. The assignment must cover every
    /// vertex slot of the graph (checked on each query in debug builds).
    pub fn new(graph: &'a DynGraph, assignment: &'a Partitioning) -> Self {
        debug_assert!(
            assignment.num_vertices() >= graph.num_vertices(),
            "assignment covers {} slots but the graph has {}",
            assignment.num_vertices(),
            graph.num_vertices()
        );
        QueryRouter { graph, assignment }
    }

    /// Answers one query. Tombstoned anchors yield
    /// [`QueryOutcome::missing`]; the query stream may race with removals,
    /// so this is an expected outcome, not an error.
    pub fn answer(&self, query: &Query) -> QueryOutcome {
        let anchor = query.anchor();
        if !self.graph.is_vertex(anchor) {
            return QueryOutcome::missing();
        }
        match *query {
            Query::VertexLookup(_) => QueryOutcome {
                found: true,
                result_size: 1,
                hops: 0,
                local_hops: 0,
            },
            // A neighborhood read is a 1-hop traversal with the same
            // accounting; `neighborhood_is_one_hop` in
            // tests/serve_correctness.rs pins the two equal.
            Query::Neighborhood(_) => self.k_hop(anchor, 1),
            Query::KHop { k, .. } => self.k_hop(anchor, k),
        }
    }

    /// Every live vertex within `k` hops of `anchor` (anchor excluded), in
    /// breadth-first discovery order. The reference result the correctness
    /// tests pin [`Query::KHop`] outcomes against.
    pub fn k_hop_vertices(&self, anchor: VertexId, k: usize) -> Vec<VertexId> {
        if !self.graph.is_vertex(anchor) {
            return Vec::new();
        }
        self.reached(anchor, k, <[VertexId]>::to_vec)
    }

    /// Hop accounting for a traversal. Each *discovered* vertex is one
    /// hop — a traversal fetches every discovered vertex exactly once, from
    /// whichever partition owns it.
    fn k_hop(&self, anchor: VertexId, k: usize) -> QueryOutcome {
        let home = self.assignment.partition_of(anchor);
        self.reached(anchor, k, |reached| QueryOutcome {
            found: true,
            result_size: reached.len(),
            hops: reached.len(),
            local_hops: reached
                .iter()
                .filter(|&&v| self.assignment.partition_of(v) == home)
                .count(),
        })
    }

    /// Hands `f` the vertices within `k` hops of the live vertex `anchor`
    /// (anchor excluded), in discovery order. One hop needs no visited set:
    /// `DynGraph` neighbour lists are sorted, duplicate-free and never hold
    /// their own vertex, so they are exactly the 1-hop discovery order.
    fn reached<R>(&self, anchor: VertexId, k: usize, f: impl FnOnce(&[VertexId]) -> R) -> R {
        match k {
            0 => f(&[]),
            1 => f(self.graph.neighbors(anchor)),
            _ => TRAVERSAL.with(|t| f(t.borrow_mut().run(self.graph, anchor, k))),
        }
    }

    /// Serves one round of `workload` and aggregates the outcomes.
    ///
    /// Queries are generated for `round`, answered with up to `parallelism`
    /// threads via the ordered [`fanout`] primitive, and folded into
    /// [`ServeStats`] in query order — so the result is identical at every
    /// parallelism level (only `wall_ms`, which equality ignores, may
    /// differ).
    pub fn serve_round(
        &self,
        workload: &QueryWorkload,
        round: u64,
        parallelism: usize,
    ) -> ServeStats {
        let started = Instant::now();
        let queries = workload.generate(self.graph, round);
        let kinds: Vec<_> = queries.iter().map(|q| q.kind()).collect();
        let outcomes = fanout::map_items(parallelism, queries, |_, q| self.answer(&q));
        let mut stats = ServeStats {
            round,
            ..ServeStats::default()
        };
        for (kind, outcome) in kinds.iter().zip(&outcomes) {
            stats.absorb(*kind, outcome);
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryMix;

    /// Two triangles bridged by one edge, split across two partitions:
    ///
    /// ```text
    ///   0 - 1        3 - 4
    ///    \ /    ==    \ /
    ///     2 ---------- 5
    ///   [p0 p0 p0]  [p1 p1 p1]
    /// ```
    fn bridged_triangles() -> (DynGraph, Partitioning) {
        let mut g = DynGraph::with_vertices(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 5)] {
            g.add_edge(u, v);
        }
        let p = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        (g, p)
    }

    #[test]
    fn lookup_has_no_hops() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let o = r.answer(&Query::VertexLookup(4));
        assert!(o.found);
        assert_eq!((o.result_size, o.hops, o.local_hops), (1, 0, 0));
    }

    #[test]
    fn neighborhood_counts_each_neighbor_as_a_hop() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        // Vertex 2's neighbours: 0, 1 (local) and 5 (remote).
        let o = r.answer(&Query::Neighborhood(2));
        assert_eq!((o.result_size, o.hops, o.local_hops), (3, 3, 2));
        assert_eq!(o.remote_hops(), 1);
    }

    #[test]
    fn khop_counts_discovery_hops_against_the_anchor_domain() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        // From 0: depth 1 reaches {1, 2}, depth 2 reaches {5}. 5 is remote.
        let o = r.answer(&Query::KHop { anchor: 0, k: 2 });
        assert_eq!((o.hops, o.local_hops), (3, 2));
        // Depth 3 pulls in the rest of the far triangle.
        let o = r.answer(&Query::KHop { anchor: 0, k: 3 });
        assert_eq!((o.hops, o.local_hops), (5, 2));
    }

    #[test]
    fn khop_one_equals_neighborhood() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        for v in 0..6 {
            assert_eq!(
                r.answer(&Query::Neighborhood(v)),
                r.answer(&Query::KHop { anchor: v, k: 1 }),
                "anchor {v}"
            );
        }
    }

    #[test]
    fn khop_zero_reaches_nothing() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let o = r.answer(&Query::KHop { anchor: 0, k: 0 });
        assert!(o.found);
        assert_eq!((o.result_size, o.hops), (0, 0));
    }

    #[test]
    fn tombstoned_anchor_misses() {
        let (mut g, p) = bridged_triangles();
        g.remove_vertex(3);
        let r = QueryRouter::new(&g, &p);
        for q in [
            Query::VertexLookup(3),
            Query::Neighborhood(3),
            Query::KHop { anchor: 3, k: 2 },
        ] {
            assert_eq!(r.answer(&q), QueryOutcome::missing());
        }
        // Traversals route around the tombstone: from 4, depth 2 now only
        // reaches 5 then 2.
        let reached = r.k_hop_vertices(4, 2);
        assert_eq!(reached, vec![5, 2]);
    }

    #[test]
    fn k_hop_vertices_is_discovery_ordered() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        assert_eq!(r.k_hop_vertices(0, 1), vec![1, 2]);
        assert_eq!(r.k_hop_vertices(0, 2), vec![1, 2, 5]);
        assert_eq!(r.k_hop_vertices(0, 9), vec![1, 2, 5, 3, 4]);
    }

    #[test]
    fn serve_round_is_parallelism_invariant() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let w = QueryWorkload::new(QueryMix::Uniform, 64, 11);
        let serial = r.serve_round(&w, 5, 1);
        assert_eq!(serial, r.serve_round(&w, 5, 2));
        assert_eq!(serial, r.serve_round(&w, 5, 8));
        assert_eq!(serial.queries, 64);
        assert_eq!(serial.round, 5);
    }
}
