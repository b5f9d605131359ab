//! Real-thread cluster deployments.
//!
//! Two modes, one report type:
//!
//! * **Partitioned** ([`ThreadedCluster`]) — one worker thread per
//!   partition; every worker consumes the *full* event stream from its own
//!   bounded channel (the fan-out the paper describes) and runs local
//!   detection over its share-nothing slice of `S` plus a private complete
//!   `D`. This is the configuration the scaling experiment (E6) measures:
//!   aggregate ingest+detect throughput as partitions are added. It is the
//!   only runner of that fan-out on real threads — [`crate::Broker`] fans
//!   out sequentially, and shared mode keeps one `D` and fans out nothing —
//!   so E6 is why it stays.
//! * **Shared** ([`SharedEngineCluster`]) — N worker threads drive *one*
//!   [`ConcurrentEngine`] (full `S` behind an `Arc` snapshot slot, one
//!   sharded `D`). The stream is hash-routed by target, so each event is
//!   processed exactly once and same-target events keep their relative
//!   order — which makes per-event candidates identical to a single-thread
//!   engine run. Where partitioned mode buys throughput by duplicating
//!   event-processing N times, shared mode buys it by overlapping ingest
//!   and detection on one copy of the state.
//!
//! Both modes drain their worker queues in **bounded micro-batches** of at
//! most [`DEFAULT_MAX_BATCH`] rather than one item per `recv`: a worker
//! blocks for the first item, takes whatever else is already queued, and
//! hands the engine the whole slice (`on_events_into`), amortizing
//! snapshot pins, scratch lookups, and stats flushes. Batching never
//! waits — an idle stream degrades to batch size 1 — and candidates are
//! identical at any batch size (the engine's batch-vs-single contract,
//! test-enforced here too).

use crossbeam::channel;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{partition_by_source, FollowGraph, HashPartitioner};
use magicrecs_types::{Candidate, ClusterConfig, DetectorConfig, EdgeEvent, Error, Result};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Micro-batch bound for worker queue drains: past ~64 the per-batch
/// costs (snapshot pin, scratch lookup, stats flush, WAL group commit
/// downstream) are already amortized to noise, while larger bounds only
/// add queueing latency under bursts.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Drains one micro-batch from `rx` into `batch`: blocks for the first
/// item, then takes whatever is already queued up to
/// [`DEFAULT_MAX_BATCH`]. Returns `false` once the channel is closed and
/// empty. Batching never *waits* for a batch to fill — an idle stream
/// degrades to batch size 1.
fn drain_batch<T>(rx: &channel::Receiver<T>, batch: &mut Vec<T>) -> bool {
    batch.clear();
    match rx.recv() {
        Ok(item) => batch.push(item),
        Err(_) => return false,
    }
    while batch.len() < DEFAULT_MAX_BATCH {
        match rx.try_recv() {
            Ok(item) => batch.push(item),
            Err(_) => break,
        }
    }
    true
}

/// Outcome of a threaded trace run.
#[derive(Debug, Clone)]
pub struct ThreadedRunReport {
    /// Candidates gathered across partitions, sorted by
    /// `(triggered_at, user, target)`.
    pub candidates: Vec<Candidate>,
    /// Events broadcast (per partition).
    pub events: u64,
    /// Wall-clock time from first send to last gather.
    pub wall: Duration,
}

impl ThreadedRunReport {
    /// Stream-rate throughput: distinct events per second the cluster
    /// keeps up with.
    pub fn stream_events_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() > 0.0 {
            self.events as f64 / self.wall.as_secs_f64()
        } else {
            f64::INFINITY
        }
    }
}

/// A cluster of partition worker threads.
pub struct ThreadedCluster {
    graph_parts: Vec<FollowGraph>,
    detector_config: DetectorConfig,
}

impl ThreadedCluster {
    /// Prepares a threaded cluster (partitions the graph eagerly; threads
    /// are spawned per run so a cluster can be reused across traces).
    pub fn new(
        graph: &FollowGraph,
        cluster_config: ClusterConfig,
        detector_config: DetectorConfig,
    ) -> Result<Self> {
        cluster_config.validate()?;
        detector_config.validate()?;
        let partitioner = HashPartitioner::new(cluster_config.partitions);
        Ok(ThreadedCluster {
            graph_parts: partition_by_source(graph, &partitioner),
            detector_config,
        })
    }

    /// Runs a trace through fresh partition workers, gathering all
    /// candidates. Deterministic output ordering.
    pub fn run_trace(&self, events: &[EdgeEvent]) -> Result<ThreadedRunReport> {
        let (result_tx, result_rx) = channel::unbounded::<Vec<Candidate>>();
        let mut senders = Vec::with_capacity(self.graph_parts.len());
        let mut joins = Vec::with_capacity(self.graph_parts.len());

        for local in &self.graph_parts {
            let (tx, rx) = channel::bounded::<EdgeEvent>(4096);
            let partition = ConcurrentEngine::new(local.clone(), self.detector_config)?;
            let result_tx = result_tx.clone();
            senders.push(tx);
            joins.push(thread::spawn(move || {
                let mut local_out = Vec::new();
                let mut batch = Vec::with_capacity(DEFAULT_MAX_BATCH);
                // Micro-batch drain: one engine dispatch per queue drain
                // instead of one per event; candidates are identical
                // (the engine's batch-vs-single contract).
                while drain_batch(&rx, &mut batch) {
                    partition.on_events_into(&batch, &mut local_out);
                }
                // One send per worker keeps gather cheap.
                let _ = result_tx.send(local_out);
            }));
        }
        drop(result_tx);

        let start = Instant::now();
        for &event in events {
            for tx in &senders {
                tx.send(event)
                    .map_err(|_| Error::ChannelClosed("cluster ingest"))?;
            }
        }
        drop(senders);

        let mut candidates = Vec::new();
        for batch in result_rx.iter() {
            candidates.extend(batch);
        }
        let wall = start.elapsed();
        for j in joins {
            j.join()
                .map_err(|_| Error::ChannelClosed("partition worker panicked"))?;
        }
        candidates.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });
        Ok(ThreadedRunReport {
            candidates,
            events: events.len() as u64,
            wall,
        })
    }
}

/// N worker threads sharing one [`ConcurrentEngine`].
///
/// Events are hash-routed by target (`dst`), so every event is processed
/// exactly once and all events for a given target are handled by the same
/// worker in stream order. Candidates for an event therefore match what a
/// single-thread engine produces on the same trace (they depend only on `S`
/// and on `D[target]`, which sees the same update sequence).
pub struct SharedEngineCluster {
    graph: FollowGraph,
    workers: usize,
    detector_config: DetectorConfig,
}

impl SharedEngineCluster {
    /// Prepares a shared-engine cluster with `workers` threads.
    pub fn new(
        graph: &FollowGraph,
        workers: usize,
        detector_config: DetectorConfig,
    ) -> Result<Self> {
        if workers == 0 {
            return Err(Error::InvalidConfig("workers must be >= 1".into()));
        }
        detector_config.validate()?;
        Ok(SharedEngineCluster {
            graph: graph.clone(),
            workers,
            detector_config,
        })
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Routes `dst` to a worker: same target, same worker, every time.
    ///
    /// Uses the workspace routing mix ([`magicrecs_types::route_mix`]) —
    /// the same value `ShardedTemporalStore` masks for its shard choice,
    /// so each worker's targets map onto a stable subset of `D` shards and
    /// cross-worker shard contention stays low by construction.
    fn route(dst: magicrecs_types::UserId, workers: usize) -> usize {
        (magicrecs_types::route_mix(&dst) as usize) % workers
    }

    /// Runs a trace through a fresh shared engine, gathering all
    /// candidates. Deterministic output (same sort as partitioned mode).
    pub fn run_trace(&self, events: &[EdgeEvent]) -> Result<ThreadedRunReport> {
        let engine = Arc::new(ConcurrentEngine::new(
            self.graph.clone(),
            self.detector_config,
        )?);
        let (result_tx, result_rx) = channel::unbounded::<Vec<Candidate>>();
        let mut senders = Vec::with_capacity(self.workers);
        let mut joins = Vec::with_capacity(self.workers);

        for _ in 0..self.workers {
            let (tx, rx) = channel::bounded::<EdgeEvent>(4096);
            let engine = Arc::clone(&engine);
            let result_tx = result_tx.clone();
            senders.push(tx);
            joins.push(thread::spawn(move || {
                let mut local_out = Vec::new();
                let mut batch = Vec::with_capacity(DEFAULT_MAX_BATCH);
                // Micro-batch drain: the engine pins one `S` snapshot,
                // looks up its scratch once, and flushes stats once per
                // drained batch instead of per event.
                while drain_batch(&rx, &mut batch) {
                    engine.on_events_into(&batch, &mut local_out);
                }
                let _ = result_tx.send(local_out);
            }));
        }
        drop(result_tx);

        let start = Instant::now();
        for &event in events {
            senders[Self::route(event.dst, self.workers)]
                .send(event)
                .map_err(|_| Error::ChannelClosed("shared-engine ingest"))?;
        }
        drop(senders);

        let mut candidates = Vec::new();
        for batch in result_rx.iter() {
            candidates.extend(batch);
        }
        let wall = start.elapsed();
        for j in joins {
            j.join()
                .map_err(|_| Error::ChannelClosed("shared-engine worker panicked"))?;
        }
        candidates.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });
        Ok(ThreadedRunReport {
            candidates,
            events: events.len() as u64,
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};

    #[test]
    fn threaded_matches_sequential_broker() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cc = ClusterConfig::single().with_partitions(4);
        let dc = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };

        let mut broker = Broker::new(&g, cc, dc).unwrap();
        let mut expected = broker.process_trace(trace.events().iter().copied());
        expected.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });

        let cluster = ThreadedCluster::new(&g, cc, dc).unwrap();
        let report = cluster.run_trace(trace.events()).unwrap();
        assert_eq!(report.candidates, expected);
        assert_eq!(report.events as usize, trace.len());
    }

    #[test]
    fn single_partition_threaded_works() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            500,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cluster = ThreadedCluster::new(
            &g,
            ClusterConfig::single(),
            DetectorConfig {
                max_witnesses: Some(8),
                ..DetectorConfig::example()
            },
        )
        .unwrap();
        let report = cluster.run_trace(trace.events()).unwrap();
        assert!(report.stream_events_per_sec() > 0.0);
    }

    #[test]
    fn reusable_across_traces() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let cluster = ThreadedCluster::new(
            &g,
            ClusterConfig::single().with_partitions(2),
            DetectorConfig {
                max_witnesses: Some(8),
                ..DetectorConfig::example()
            },
        )
        .unwrap();
        let short = ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(15));
        let t1 = Scenario::steady(500, short);
        let t2 = Scenario::steady(500, short.with_seed(2));
        let r1a = cluster.run_trace(t1.events()).unwrap();
        let _r2 = cluster.run_trace(t2.events()).unwrap();
        let r1b = cluster.run_trace(t1.events()).unwrap();
        // Fresh workers per run: identical inputs give identical outputs.
        assert_eq!(r1a.candidates, r1b.candidates);
    }

    #[test]
    fn empty_trace_ok() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let cluster = ThreadedCluster::new(
            &g,
            ClusterConfig::single().with_partitions(2),
            DetectorConfig::example(),
        )
        .unwrap();
        let report = cluster.run_trace(&[]).unwrap();
        assert!(report.candidates.is_empty());
    }

    /// Shared-engine mode produces exactly a single-thread engine's
    /// candidates: hash-routing by target keeps `D[target]` update order,
    /// and detection depends on nothing else.
    #[test]
    fn shared_engine_matches_sequential_engine() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        // Trace duration ≪ τ (10 min), so no expiry races the comparison.
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let dc = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };

        let engine = ConcurrentEngine::new(g.clone(), dc).unwrap();
        let mut expected = engine.on_events(trace.events());
        expected.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });

        for workers in [1usize, 4] {
            let cluster = SharedEngineCluster::new(&g, workers, dc).unwrap();
            let report = cluster.run_trace(trace.events()).unwrap();
            assert_eq!(report.candidates, expected, "workers={workers}");
            assert_eq!(report.events as usize, trace.len());
        }
    }

    /// Shared mode and partitioned mode agree on the candidate multiset
    /// (partitioning by `A` splits `S` without losing any intersections).
    #[test]
    fn shared_engine_matches_partitioned_cluster() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            800,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let dc = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };

        let partitioned = ThreadedCluster::new(&g, ClusterConfig::single().with_partitions(4), dc)
            .unwrap()
            .run_trace(trace.events())
            .unwrap();
        let shared = SharedEngineCluster::new(&g, 2, dc)
            .unwrap()
            .run_trace(trace.events())
            .unwrap();
        assert_eq!(shared.candidates, partitioned.candidates);
    }

    #[test]
    fn shared_engine_reusable_and_deterministic() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let short = ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(15));
        let t = Scenario::steady(400, short);
        let cluster = SharedEngineCluster::new(&g, 3, DetectorConfig::example()).unwrap();
        let a = cluster.run_trace(t.events()).unwrap();
        let b = cluster.run_trace(t.events()).unwrap();
        // Fresh engine per run: identical inputs give identical outputs.
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn shared_engine_rejects_zero_workers() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        assert!(SharedEngineCluster::new(&g, 0, DetectorConfig::example()).is_err());
    }

    /// Micro-batch draining is a transport change only: the shared and
    /// the partitioned mode, each draining up to `DEFAULT_MAX_BATCH`,
    /// produce the candidates of one engine fed one event at a time.
    #[test]
    fn batched_drain_matches_single_item_drain() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            800,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let dc = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };

        let engine = ConcurrentEngine::new(g.clone(), dc).unwrap();
        let mut single_item: Vec<Candidate> = trace
            .events()
            .iter()
            .flat_map(|&e| engine.on_event(e))
            .collect();
        single_item.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });

        let shared = SharedEngineCluster::new(&g, 3, dc)
            .unwrap()
            .run_trace(trace.events())
            .unwrap();
        assert_eq!(shared.candidates, single_item, "shared");

        let partitioned = ThreadedCluster::new(&g, ClusterConfig::single().with_partitions(3), dc)
            .unwrap()
            .run_trace(trace.events())
            .unwrap();
        assert_eq!(partitioned.candidates, single_item, "partitioned");
    }
}
