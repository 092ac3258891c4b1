//! A naive, serial reference model of the paper's §2 heuristic: the
//! executable specification the optimised [`AdaptivePartitioner`] and
//! [`StreamingRunner`] are pinned against.
//!
//! It follows the paper's pseudo-code (and xDGP's description of the same
//! heuristic, arXiv:1309.1049) with every optimisation taken out:
//!
//! * boxed `Vec<Vec<_>>` adjacency ([`BoxedGraph`]) instead of the slab;
//! * an exhaustive sweep over every live vertex instead of the active set;
//! * admission in ascending vertex order and one move applied at a time,
//!   instead of a sharded decide and a merge;
//! * a full recount of cut, sizes and degree mass wherever one is read,
//!   instead of incremental accounting;
//! * a fixed per-batch iteration budget instead of the drain-early one.
//!
//! Randomness uses the optimised code's `(seed, vertex, iteration)` keying
//! ([`vertex_rng`]), so for the same inputs both draw the same numbers.
//! [`CapacityModel`], [`QuotaTable`] and [`InitialStrategy`] are reused:
//! they are inputs to the rule, not what the model checks.
//!
//! Test- and bench-only: `tests/` and the `sweep` and `scaling` benches
//! include this file with `#[path]`; no library exports it.
//!
//! [`AdaptivePartitioner`]: apg_core::AdaptivePartitioner
//! [`StreamingRunner`]: apg_core::StreamingRunner

use rand::Rng;

use apg_core::{AdaptiveConfig, IterationStats, PlacementPolicy, QuotaTable, TimelineStats};
use apg_exec::vertex_rng;
use apg_graph::delta::DeltaTarget;
use apg_graph::{ApplyReport, DynGraph, Graph, UpdateBatch, VertexId};
use apg_partition::initial::hash_vertex;
use apg_partition::{CapacityModel, InitialStrategy, PartitionId};

/// The pre-slab adjacency layout: one sorted, heap-allocated neighbour list
/// per vertex slot. Its [`DeltaTarget`] hooks spell out `DynGraph`'s
/// mutation semantics: self-loops, dead endpoints and duplicates are
/// rejected, tombstones drop their edges, and ids are never reused.
#[derive(Debug, Clone)]
pub struct BoxedGraph {
    adj: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    num_edges: usize,
}

impl BoxedGraph {
    /// `n` isolated live vertices.
    pub fn with_vertices(n: usize) -> Self {
        BoxedGraph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            num_edges: 0,
        }
    }

    /// Copies `graph` slot for slot. Every slot comes out live, as in
    /// `AdaptivePartitioner`'s own import (a tombstone returns as an
    /// isolated vertex).
    pub fn from_graph<G: Graph>(graph: &G) -> Self {
        let n = graph.num_vertices();
        BoxedGraph {
            adj: (0..n as VertexId)
                .map(|v| graph.neighbors(v).to_vec())
                .collect(),
            alive: vec![true; n],
            num_edges: graph.num_edges(),
        }
    }

    /// Vertex slots, tombstones included.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Live vertices.
    pub fn num_live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether `v` is a live vertex.
    pub fn is_live(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Neighbours of `v` in ascending order (empty for a tombstone).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Live vertex ids in ascending order.
    pub fn live(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.adj.len() as VertexId).filter(|&v| self.is_live(v))
    }

    /// The first way `graph` differs from this one (slot count, edge
    /// count, or one slot's liveness or neighbour list), if any.
    pub fn diff(&self, graph: &DynGraph) -> Option<String> {
        if graph.num_vertices() != self.num_vertices() {
            return Some(format!(
                "{} slots vs {}",
                graph.num_vertices(),
                self.num_vertices()
            ));
        }
        if graph.num_edges() != self.num_edges {
            return Some(format!("{} edges vs {}", graph.num_edges(), self.num_edges));
        }
        (0..self.adj.len() as VertexId).find_map(|v| {
            (graph.is_vertex(v) != self.is_live(v) || graph.neighbors(v) != self.neighbors(v))
                .then(|| format!("slot {v} differs"))
        })
    }

    fn insert_sorted(list: &mut Vec<VertexId>, w: VertexId) -> bool {
        match list.binary_search(&w) {
            Ok(_) => false,
            Err(i) => {
                list.insert(i, w);
                true
            }
        }
    }

    fn remove_sorted(list: &mut Vec<VertexId>, w: VertexId) -> bool {
        match list.binary_search(&w) {
            Ok(i) => {
                list.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

impl DeltaTarget for BoxedGraph {
    fn delta_add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        self.alive.push(true);
        (self.adj.len() - 1) as VertexId
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        if !Self::insert_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        Self::insert_sorted(&mut self.adj[v as usize], u);
        self.num_edges += 1;
        true
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        if !Self::remove_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        Self::remove_sorted(&mut self.adj[v as usize], u);
        self.num_edges -= 1;
        true
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.is_live(v) {
            return None;
        }
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &w in &nbrs {
            Self::remove_sorted(&mut self.adj[w as usize], v);
        }
        self.num_edges -= nbrs.len();
        self.alive[v as usize] = false;
        Some(nbrs.len())
    }
}

/// The heuristic on a [`BoxedGraph`], one naive step at a time.
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    graph: BoxedGraph,
    /// One label per slot; a tombstone keeps its last label, as
    /// `Partitioning` does.
    labels: Vec<PartitionId>,
    config: AdaptiveConfig,
    seed: u64,
    iteration: usize,
    batches: usize,
}

impl ReferenceModel {
    /// Copies `graph` and labels it with `strategy` against vertex-balanced
    /// capacities, exactly as `AdaptivePartitioner::with_strategy` does.
    pub fn with_strategy<G: Graph>(
        graph: &G,
        strategy: InitialStrategy,
        config: &AdaptiveConfig,
        seed: u64,
    ) -> Self {
        let caps = CapacityModel::vertex_balanced(
            graph.num_live_vertices(),
            config.num_partitions,
            config.capacity_factor,
        );
        ReferenceModel {
            graph: BoxedGraph::from_graph(graph),
            labels: strategy.assign(graph, &caps, seed).as_slice().to_vec(),
            config: config.clone(),
            seed,
            iteration: 0,
            batches: 0,
        }
    }

    /// The model's graph.
    pub fn graph(&self) -> &BoxedGraph {
        &self.graph
    }

    /// The label of every slot, tombstones included.
    pub fn assignment(&self) -> &[PartitionId] {
        &self.labels
    }

    /// Iterations run so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Cut edges, recounted over every live edge.
    pub fn cut_edges(&self) -> usize {
        self.graph
            .live()
            .flat_map(|v| self.graph.neighbors(v).iter().map(move |&w| (v, w)))
            .filter(|&(v, w)| v < w && self.labels[v as usize] != self.labels[w as usize])
            .count()
    }

    /// Live vertices per partition, recounted.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.config.num_partitions as usize];
        for v in self.graph.live() {
            sizes[self.labels[v as usize] as usize] += 1;
        }
        sizes
    }

    /// Edge endpoints per partition, recounted.
    pub fn degree_mass(&self) -> Vec<usize> {
        let mut mass = vec![0; self.config.num_partitions as usize];
        for v in self.graph.live() {
            mass[self.labels[v as usize] as usize] += self.graph.neighbors(v).len();
        }
        mass
    }

    /// Capacities for the current population (paper §4.2.1: a factor of
    /// the balanced load), in vertices or in edge endpoints.
    fn capacities(&self) -> CapacityModel {
        let (k, factor) = (self.config.num_partitions, self.config.capacity_factor);
        if self.config.balance_edges {
            CapacityModel::edge_balanced(self.graph.num_edges().max(1), k, factor)
        } else {
            CapacityModel::vertex_balanced(self.graph.num_live(), k, factor)
        }
    }

    /// The paper's rule for one vertex: move to the partition holding the
    /// most neighbours (the vertex itself counts for its own partition
    /// under `count_self`), but stay whenever the current partition is
    /// among the best. Ties between other partitions are broken uniformly,
    /// over the candidates in order of first appearance along the
    /// ascending neighbour list.
    fn decide(&self, v: VertexId, rng: &mut impl Rng) -> Option<PartitionId> {
        let current = self.labels[v as usize];
        let mut counts = vec![0usize; self.config.num_partitions as usize];
        let mut seen = Vec::new();
        for &w in self.graph.neighbors(v) {
            let p = self.labels[w as usize];
            if counts[p as usize] == 0 {
                seen.push(p);
            }
            counts[p as usize] += 1;
        }
        if self.config.count_self {
            counts[current as usize] += 1;
        }
        let best = counts.iter().copied().max().unwrap_or(0);
        if best == 0 || counts[current as usize] == best {
            return None;
        }
        let candidates: Vec<PartitionId> = seen
            .into_iter()
            .filter(|&p| counts[p as usize] == best)
            .collect();
        Some(match candidates.len() {
            1 => candidates[0],
            n => candidates[rng.gen_range(0..n)],
        })
    }

    /// One iteration: every live vertex rolls its willingness and decides
    /// against the labels as the iteration found them; then, in ascending
    /// vertex order, each proposal is admitted against the per-iteration
    /// quota table and applied on the spot.
    pub fn iterate(&mut self) -> IterationStats {
        let k = self.config.num_partitions;
        let caps = self.capacities();
        let loads = if self.config.balance_edges {
            self.degree_mass()
        } else {
            self.sizes()
        };
        let remaining: Vec<usize> = (0..k)
            .map(|p| caps.remaining(p, loads[p as usize]))
            .collect();
        let mut quota = QuotaTable::new(self.config.quota_rule, &remaining);
        let s = self.config.willingness_at(self.iteration);
        let round = self.iteration as u64;

        let mut proposals = Vec::new();
        for v in self.graph.live() {
            let mut rng = vertex_rng(self.seed, v as u64, round);
            if s < 1.0 && !rng.gen_bool(s) {
                continue;
            }
            if let Some(to) = self.decide(v, &mut rng) {
                proposals.push((v, to));
            }
        }

        let mut migrations = 0;
        for (v, to) in proposals {
            let units = if self.config.balance_edges {
                self.graph.neighbors(v).len()
            } else {
                1
            };
            if quota.try_consume_units(self.labels[v as usize], to, units) {
                self.labels[v as usize] = to;
                migrations += 1;
            }
        }

        self.iteration += 1;
        IterationStats {
            iteration: self.iteration - 1,
            migrations,
            cut_edges: self.cut_edges(),
            live_vertices: self.graph.num_live(),
            num_edges: self.graph.num_edges(),
            max_partition: self.sizes().into_iter().max().unwrap_or(0),
        }
    }

    /// Runs exactly `n` iterations.
    pub fn run_for(&mut self, n: usize) -> Vec<IterationStats> {
        (0..n).map(|_| self.iterate()).collect()
    }

    /// Applies `batch` through the shared delta loop.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> ApplyReport {
        batch.apply_to(self)
    }

    /// One streaming step: apply `batch`, then run exactly `iterations`
    /// iterations — the fixed per-batch budget. `wall_ms` is left at 0; it
    /// takes no part in `TimelineStats` equality.
    pub fn ingest(&mut self, batch: &UpdateBatch, iterations: usize) -> TimelineStats {
        let cut_before = self.cut_edges();
        let report = self.apply_batch(batch);
        let cut_after_ingest = self.cut_edges();
        let migrations = self.run_for(iterations).iter().map(|s| s.migrations).sum();
        self.batches += 1;
        TimelineStats {
            batch: self.batches - 1,
            deltas: batch.len(),
            vertices_added: report.new_vertices.len(),
            vertices_removed: report.vertices_removed,
            edges_added: report.edges_added,
            edges_removed: report.edges_removed,
            cut_before,
            cut_after_ingest,
            cut_after: self.cut_edges(),
            migrations,
            iterations,
            live_vertices: self.graph.num_live(),
            num_edges: self.graph.num_edges(),
            wall_ms: 0.0,
        }
    }
}

/// Graph changes go straight to the [`BoxedGraph`]; a new vertex is then
/// placed by the configured [`PlacementPolicy`], against the sizes from
/// before it arrived and the capacities for the population including it.
impl DeltaTarget for ReferenceModel {
    fn delta_add_vertex(&mut self) -> VertexId {
        let sizes = self.sizes();
        let v = self.graph.delta_add_vertex();
        let k = self.config.num_partitions;
        let least_loaded = (0..k).min_by_key(|&p| sizes[p as usize]).expect("k >= 1");
        let p = match self.config.placement {
            PlacementPolicy::LeastLoaded => least_loaded,
            PlacementPolicy::HashWithFallback => {
                let p = (hash_vertex(v) % k as u64) as PartitionId;
                if self.capacities().remaining(p, sizes[p as usize]) > 0 {
                    p
                } else {
                    least_loaded
                }
            }
        };
        self.labels.push(p);
        v
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.graph.delta_add_edge(u, v)
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.graph.delta_remove_edge(u, v)
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        self.graph.delta_remove_vertex(v)
    }
}
