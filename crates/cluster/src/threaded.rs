//! Real-thread cluster deployments.
//!
//! Two modes, one worker pool, one report type:
//!
//! * **Partitioned** ([`ThreadedCluster`]) — one worker thread per
//!   partition; every worker consumes the *full* event stream from its own
//!   bounded channel (the fan-out the paper describes) and runs local
//!   detection over its share-nothing slice of `S` plus a private complete
//!   `D`. This is the workspace's one runner of the paper's fan-out, and
//!   the configuration the scaling experiment (E6) measures: aggregate
//!   ingest+detect throughput as partitions are added.
//! * **Shared** ([`SharedEngineCluster`]) — N worker threads drive *one*
//!   [`ConcurrentEngine`] (full `S` behind an `Arc` snapshot slot, one
//!   sharded `D`). The stream is hash-routed by target, so each event is
//!   processed exactly once and same-target events keep their relative
//!   order — which makes per-event candidates identical to a single-thread
//!   engine run. Where partitioned mode buys throughput by duplicating
//!   event-processing N times, shared mode buys it by overlapping ingest
//!   and detection on one copy of the state.
//!
//! The modes differ only in how an event is dispatched: to every worker,
//! or to worker `route_mix(dst) % workers`. Workers drain their queues in
//! **bounded micro-batches** of at most [`DEFAULT_MAX_BATCH`] rather than
//! one item per `recv`: a worker blocks for the first item, takes whatever
//! else is already queued, and hands the engine the whole slice
//! (`on_events_into`), amortizing snapshot pins, scratch lookups, and
//! stats flushes. Batching never waits — an idle stream degrades to batch
//! size 1 — and candidates are identical at any batch size (the engine's
//! batch-vs-single contract, test-enforced here too). Each run hands its
//! engines back in [`ThreadedRunReport::engines`], so callers can read
//! per-partition `D` size, memory and stats.

use crossbeam::channel;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{partition_by_source, FollowGraph};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Error, Result};
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
#[derive(Debug)]
pub struct ThreadedRunReport {
    /// Candidates gathered across workers, sorted by
    /// `(triggered_at, user, target)`.
    pub candidates: Vec<Candidate>,
    /// Events in the trace.
    pub events: u64,
    /// Wall-clock time from first send to last gather.
    pub wall: Duration,
    /// The run's engines, handed back once their workers are joined: one
    /// per partition, indexed by partition, for [`ThreadedCluster`]; the
    /// one shared engine for [`SharedEngineCluster`].
    pub engines: Vec<ConcurrentEngine>,
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

/// Sends `event` to one worker queue.
fn send(tx: &channel::Sender<EdgeEvent>, event: EdgeEvent) -> Result<()> {
    tx.send(event)
        .map_err(|_| Error::ChannelClosed("cluster ingest"))
}

/// The worker pool both modes run: one thread per entry of `engines`,
/// each draining its own bounded queue into its engine. `dispatch` sends
/// each event to the queues it belongs on. Once every worker is joined,
/// the engines are unwrapped — deduplicated by pointer, so a shared engine
/// comes back once — and returned with the sorted gather.
fn run_workers(
    mut engines: Vec<Arc<ConcurrentEngine>>,
    events: &[EdgeEvent],
    dispatch: impl Fn(&[channel::Sender<EdgeEvent>], EdgeEvent) -> Result<()>,
) -> Result<ThreadedRunReport> {
    let mut senders = Vec::with_capacity(engines.len());
    let mut joins = Vec::with_capacity(engines.len());
    for engine in &engines {
        let (tx, rx) = channel::bounded::<EdgeEvent>(4096);
        let engine = Arc::clone(engine);
        senders.push(tx);
        joins.push(thread::spawn(move || {
            let mut local_out = Vec::new();
            let mut batch = Vec::with_capacity(DEFAULT_MAX_BATCH);
            // Micro-batch drain: one engine dispatch per queue drain
            // instead of one per event; candidates are identical (the
            // engine's batch-vs-single contract).
            while drain_batch(&rx, &mut batch) {
                engine.on_events_into(&batch, &mut local_out);
            }
            local_out
        }));
    }

    let start = Instant::now();
    for &event in events {
        dispatch(&senders, event)?;
    }
    drop(senders);

    let mut candidates = Vec::new();
    for j in joins {
        candidates.extend(
            j.join()
                .map_err(|_| Error::ChannelClosed("cluster worker panicked"))?,
        );
    }
    let wall = start.elapsed();
    candidates.sort_by(|a, b| {
        (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
    });
    engines.dedup_by(|a, b| Arc::ptr_eq(a, b));
    Ok(ThreadedRunReport {
        candidates,
        events: events.len() as u64,
        wall,
        engines: engines
            .into_iter()
            .map(|e| Arc::try_unwrap(e).expect("every worker is joined"))
            .collect(),
    })
}

/// The paper's fan-out on threads: one worker per partition of `S` by
/// `A`, each ingesting the full stream into a private complete `D`.
pub struct ThreadedCluster {
    graph_parts: Vec<FollowGraph>,
    detector_config: DetectorConfig,
}

impl ThreadedCluster {
    /// Prepares a threaded cluster of `partitions ≥ 1` partitions
    /// (partitions the graph eagerly; threads and engines are fresh per
    /// run so a cluster can be reused across traces).
    pub fn new(
        graph: &FollowGraph,
        partitions: u32,
        detector_config: DetectorConfig,
    ) -> Result<Self> {
        if partitions == 0 {
            return Err(Error::InvalidConfig(
                "at least one partition required".into(),
            ));
        }
        detector_config.validate()?;
        Ok(ThreadedCluster {
            graph_parts: partition_by_source(graph, partitions),
            detector_config,
        })
    }

    /// Runs a trace through fresh partition workers, each event sent to
    /// every partition, gathering all candidates. Deterministic output
    /// ordering.
    pub fn run_trace(&self, events: &[EdgeEvent]) -> Result<ThreadedRunReport> {
        let engines = self
            .graph_parts
            .iter()
            .map(|local| ConcurrentEngine::new(local.clone(), self.detector_config).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        run_workers(engines, events, |senders, event| {
            senders.iter().try_for_each(|tx| send(tx, event))
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

    /// Runs a trace through a fresh shared engine, gathering all
    /// candidates. Deterministic output (same sort as partitioned mode).
    ///
    /// Routes each event by its `dst` with the workspace routing mix
    /// ([`magicrecs_types::route_mix`]) — the same value
    /// `ShardedTemporalStore` masks for its shard choice, so each worker's
    /// targets map onto a stable subset of `D` shards and cross-worker
    /// shard contention stays low by construction.
    pub fn run_trace(&self, events: &[EdgeEvent]) -> Result<ThreadedRunReport> {
        let engine = Arc::new(ConcurrentEngine::new(
            self.graph.clone(),
            self.detector_config,
        )?);
        run_workers(vec![engine; self.workers], events, |senders, event| {
            let worker = magicrecs_types::route_mix(&event.dst) as usize % senders.len();
            send(&senders[worker], event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_baseline::BatchOracle;
    use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig, Trace};
    use magicrecs_graph::{partition_of, GraphBuilder};
    use magicrecs_types::{Timestamp, UserId};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn figure1() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
        g.build()
    }

    fn figure1_events() -> [EdgeEvent; 2] {
        [
            EdgeEvent::follow(u(11), u(22), Timestamp::from_secs(10)),
            EdgeEvent::follow(u(12), u(22), Timestamp::from_secs(20)),
        ]
    }

    fn capped() -> DetectorConfig {
        DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        }
    }

    fn steady(users: u64) -> Trace {
        Scenario::steady(
            users,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        )
    }

    #[test]
    fn threaded_matches_batch_oracle() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = steady(1_000);
        let mut expected = BatchOracle::new(capped())
            .unwrap()
            .replay(&g, trace.events());
        expected.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });

        let cluster = ThreadedCluster::new(&g, 4, capped()).unwrap();
        let report = cluster.run_trace(trace.events()).unwrap();
        assert_eq!(report.candidates, expected);
        assert_eq!(report.events as usize, trace.len());
    }

    #[test]
    fn partitioned_equals_single_node() {
        // The fundamental distribution property: partition-local
        // intersections lose nothing. Witnesses are capped so hot targets
        // stay cheap; the cap is deterministic, so outputs still match.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = steady(1_000);
        let single = ConcurrentEngine::new(g.clone(), capped()).unwrap();
        let mut expected = single.on_events(trace.events());
        expected.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });

        for parts in [1u32, 4, 20] {
            let report = ThreadedCluster::new(&g, parts, capped())
                .unwrap()
                .run_trace(trace.events())
                .unwrap();
            assert_eq!(report.engines.len(), parts as usize);
            assert_eq!(
                report.candidates, expected,
                "mismatch at {parts} partitions"
            );
        }
    }

    #[test]
    fn candidates_come_from_owning_partition() {
        let cluster = ThreadedCluster::new(&figure1(), 4, DetectorConfig::example()).unwrap();
        let report = cluster.run_trace(&figure1_events()).unwrap();
        assert_eq!(report.candidates.len(), 1);
        let owner = partition_of(report.candidates[0].user, 4) as usize;
        // The owning partition must be the one whose engine fired.
        let fired: Vec<usize> = report
            .engines
            .iter()
            .enumerate()
            .filter(|(_, p)| p.stats().candidates > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fired, vec![owner]);
    }

    #[test]
    fn d_memory_replicated_per_partition() {
        // Every partition holds the full D: the cluster's D scales with
        // partition count.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = steady(1_000);
        let resident = |parts: u32| -> u64 {
            ThreadedCluster::new(&g, parts, capped())
                .unwrap()
                .run_trace(trace.events())
                .unwrap()
                .engines
                .iter()
                .map(|p| p.store().resident_entries())
                .sum()
        };
        let d1 = resident(1);
        assert!(d1 > 0);
        assert_eq!(resident(8), d1 * 8, "full-D-per-partition invariant");
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = figure1();
        assert!(ThreadedCluster::new(&g, 0, DetectorConfig::example()).is_err());
        assert!(ThreadedCluster::new(&g, 1, DetectorConfig::example().with_k(1)).is_err());
    }

    #[test]
    fn single_partition_threaded_works() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            500,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cluster = ThreadedCluster::new(&g, 1, capped()).unwrap();
        let report = cluster.run_trace(trace.events()).unwrap();
        assert!(report.stream_events_per_sec() > 0.0);
    }

    #[test]
    fn reusable_across_traces() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let cluster = ThreadedCluster::new(&g, 2, capped()).unwrap();
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
        let cluster = ThreadedCluster::new(&g, 2, DetectorConfig::example()).unwrap();
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
            assert_eq!(report.engines.len(), 1, "one shared engine comes back");
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

        let partitioned = ThreadedCluster::new(&g, 4, dc)
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

        let partitioned = ThreadedCluster::new(&g, 3, dc)
            .unwrap()
            .run_trace(trace.events())
            .unwrap();
        assert_eq!(partitioned.candidates, single_item, "partitioned");
    }
}
