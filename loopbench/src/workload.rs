//! The three workloads: their parameters, input generation from a seed, and
//! the set-up of the system under test.
//!
//! Generation is load-generator work. It runs before anything is timed and
//! never counts towards a metric; its time is printed in the report header.

use std::path::Path;

use apg_core::{
    AdaptiveConfig, AdaptivePartitioner, CheckpointStore, StoreConfig, StoreError, StreamingRunner,
};
use apg_graph::gen::holme_kim;
use apg_graph::{CsrGraph, DynGraph, UpdateBatch};
use apg_partition::{InitialStrategy, PartitionId};
use apg_serve::{QueryMix, QueryWorkload};
use apg_streams::{
    CdrConfig, CdrStream, ForestFireConfig, ForestFireSource, StreamSource, TwitterConfig,
    TwitterStream,
};

/// Partitions every workload splits the graph into.
pub const K: PartitionId = 8;

/// Decision-sweep threads. Fixed rather than read from the host, so every
/// host runs the same program; it equals the core count of the 2-core host
/// the bounds were set on.
pub const PARALLELISM: usize = 2;

/// Repartitioning iterations charged to each batch.
pub const ITERATIONS_PER_BATCH: usize = 4;

/// Batches in one pass over a workload's stream. A run repeats whole passes
/// until its time is up, so every run samples the same stream positions.
pub const BATCHES: usize = 200;

/// Timeline entries a durable runner keeps; older ones fold into the
/// timeline digest, which keeps each checkpoint O(window) as a long-running
/// loop must.
pub const DURABLE_TIMELINE_WINDOW: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CdrDurable,
    TwitterServe,
    BurstSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CdrDurable,
        Workload::TwitterServe,
        Workload::BurstSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CdrDurable => "cdr-durable",
            Workload::TwitterServe => "twitter-serve",
            Workload::BurstSweep => "burst-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each batch is written ahead and installed in a file-backed
    /// store with fsync on.
    pub fn durable(self) -> bool {
        self == Workload::CdrDurable
    }

    /// The query load served after every batch by one closed-loop client:
    /// the queries of every returned workload, in order.
    ///
    /// `twitter-serve` splits its 1024 community-biased queries over 16
    /// workloads of 64, each with its own 16 hotspots: a single workload's
    /// 16 hotspots make serving cost swing twofold from seed to seed, and
    /// 256 hotspots average that out.
    pub fn queries(self, seed: u64) -> Vec<QueryWorkload> {
        let seed = seed ^ 0x71_75_65_72_79;
        match self {
            Workload::CdrDurable | Workload::BurstSweep => {
                vec![QueryWorkload::new(QueryMix::Uniform, 64, seed)]
            }
            Workload::TwitterServe => (0..16)
                .map(|i| {
                    QueryWorkload::new(QueryMix::CommunityBiased, 64, seed.wrapping_add(i))
                        .khop_depth(2)
                })
                .collect(),
        }
    }
}

/// The graph a pass starts from.
pub enum Base {
    /// `n` isolated vertices: the stream brings every edge.
    Isolated(usize),
    /// A generated graph.
    Csr(CsrGraph),
}

/// A workload's pre-generated inputs.
pub struct Inputs {
    pub base: Base,
    pub batches: Vec<UpdateBatch>,
    pub queries: Vec<QueryWorkload>,
}

impl Inputs {
    /// Generates the base graph and the whole batch stream from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let (base, batches) = match workload {
            Workload::CdrDurable => {
                // 28 batches a week puts ~9.7k deltas in each batch.
                let config = CdrConfig {
                    initial_subscribers: 20_000,
                    batches_per_week: 28,
                    ..CdrConfig::default()
                };
                let mut stream = CdrStream::new(config, seed);
                let batches = pull(&mut stream);
                (Base::Isolated(config.initial_subscribers), batches)
            }
            Workload::TwitterServe => {
                // 200 windows of 450 s from 17:00 span 25 hours: one full
                // daily rate cycle, evening peak and overnight trough.
                let config = TwitterConfig {
                    initial_users: 4_000,
                    ..TwitterConfig::default()
                };
                let mut stream = TwitterStream::new(config, seed).with_clock(17.0, 450.0);
                let batches = pull(&mut stream);
                (Base::Isolated(config.initial_users), batches)
            }
            Workload::BurstSweep => {
                const BASE_VERTICES: usize = 1_000_000;
                const BURST_BATCH: usize = 500;
                let csr = holme_kim(BASE_VERTICES, 6, 0.1, seed);
                let burst = ForestFireConfig::burst(BASE_VERTICES / 10, seed ^ 0xf1_2e);
                let mut source = ForestFireSource::new(&DynGraph::from(&csr), &burst, BURST_BATCH);
                let batches = pull(&mut source);
                (Base::Csr(csr), batches)
            }
        };
        assert_eq!(
            batches.len(),
            BATCHES,
            "{} stream ended early",
            workload.name()
        );
        Inputs {
            base,
            batches,
            queries: workload.queries(seed),
        }
    }

    /// Deltas in the whole stream.
    pub fn deltas(&self) -> usize {
        self.batches.iter().map(UpdateBatch::len).sum()
    }
}

fn pull(source: &mut impl StreamSource) -> Vec<UpdateBatch> {
    (0..BATCHES).map_while(|_| source.next_batch()).collect()
}

/// The partitioner configuration every workload runs.
fn config() -> AdaptiveConfig {
    AdaptiveConfig::builder(K)
        .parallelism(PARALLELISM)
        .build()
        .expect("the benchmark's configuration is valid")
}

/// Builds the system under test: a hash-partitioned runner over the base
/// graph and, for a durable workload, the store opened in `store_dir`.
/// `iterations` is the runner's per-batch budget (the traced loop drives
/// iterations itself and passes 0).
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    iterations: usize,
    store_dir: &Path,
) -> Result<(StreamingRunner, Option<CheckpointStore>), StoreError> {
    let config = config();
    let partitioner = match &inputs.base {
        Base::Isolated(n) => AdaptivePartitioner::with_strategy(
            &DynGraph::with_vertices(*n),
            InitialStrategy::Hash,
            &config,
            seed,
        ),
        Base::Csr(csr) => {
            AdaptivePartitioner::with_strategy(csr, InitialStrategy::Hash, &config, seed)
        }
    };
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(iterations);
    let store = if workload.durable() {
        runner = runner.timeline_window(DURABLE_TIMELINE_WINDOW);
        Some(CheckpointStore::open(store_dir, StoreConfig::default())?.0)
    } else {
        None
    };
    Ok((runner, store))
}
