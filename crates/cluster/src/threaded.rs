//! Real-thread cluster deployments.
//!
//! Two modes, one report type:
//!
//! * **Partitioned** ([`ThreadedCluster`]) — one worker thread per
//!   partition; every worker consumes the *full* event stream from its own
//!   bounded channel (the fan-out the paper describes) and runs local
//!   detection over its share-nothing slice of `S` plus a private complete
//!   `D`. This is the configuration the scaling experiment (E6) measures:
//!   aggregate ingest+detect throughput as partitions are added.
//! * **Shared** ([`SharedEngineCluster`]) — N worker threads drive *one*
//!   [`ConcurrentEngine`] (full `S` behind an `Arc` snapshot slot, one
//!   sharded `D`). The stream is hash-routed by target, so each event is
//!   processed exactly once and same-target events keep their relative
//!   order — which makes per-event candidates identical to a single-thread
//!   engine run. Where partitioned mode buys throughput by duplicating
//!   event-processing N times, shared mode buys it by overlapping ingest
//!   and detection on one copy of the state.
//!
//! Shared mode can also run **durably**
//! ([`SharedEngineCluster::run_trace_persistent`]): the workers drive a
//! [`PersistentConcurrentEngine`] instead, and a background
//! [`CheckpointDriver`] cuts non-quiescent checkpoints on a cadence while
//! the workers keep ingesting — no worker ever waits for a checkpoint, a
//! fence stalls only the one WAL partition being cut. Because workers and
//! WAL partitions share the same routing mix, worker *i*'s targets land
//! on WAL partition *i* exactly, so a partition fence never blocks a
//! worker other than the one whose targets it covers.
//!
//! Both modes drain their worker queues in **bounded micro-batches**
//! (configurable via `with_max_batch`, default [`DEFAULT_MAX_BATCH`])
//! rather than one item per `recv`: a worker blocks for the first item,
//! takes whatever else is already queued, and hands the engine the whole
//! slice (`on_events_into`), amortizing snapshot pins, detector lookups,
//! and stats flushes. Batching never waits — an idle stream degrades to
//! batch size 1 — and candidates are identical at any bound (the
//! engines' batch-vs-single contract, test-enforced here too).

use crate::partition::Partition;
use crossbeam::channel;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{partition_by_source, FollowGraph, HashPartitioner};
use magicrecs_persist::{CheckpointDriver, PersistOptions, PersistentConcurrentEngine};
use magicrecs_types::{
    Candidate, ClusterConfig, DetectorConfig, EdgeEvent, Error, PartitionId, Result,
};
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default micro-batch bound for worker queue drains. Tuned by the
/// hotpath bench (`batched_celebrity_events_per_sec`): past ~64 the
/// per-batch costs (snapshot pin, detector lookup, stats flush, WAL
/// group commit downstream) are already amortized to noise, while larger
/// bounds only add queueing latency under bursts.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Drains one micro-batch from `rx` into `batch`: blocks for the first
/// item, then takes whatever is already queued up to `max`. Returns
/// `false` once the channel is closed and empty. Batching never *waits*
/// for a batch to fill — an idle stream degrades to batch size 1.
fn drain_batch<T>(rx: &channel::Receiver<T>, batch: &mut Vec<T>, max: usize) -> bool {
    batch.clear();
    match rx.recv() {
        Ok(item) => batch.push(item),
        Err(_) => return false,
    }
    while batch.len() < max {
        match rx.try_recv() {
            Ok(item) => batch.push(item),
            Err(_) => break,
        }
    }
    true
}

/// Directive returned by an ingest hook: keep broadcasting, or kill the
/// coordinator mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestControl {
    /// Keep sending events.
    Continue,
    /// Simulate coordinator death: stop sending immediately. Events
    /// already queued still drain — workers must shut down cleanly and
    /// the gathered candidates must equal a run over exactly the sent
    /// prefix (no partial-event corruption, no hung worker).
    Kill,
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

/// `n` per second of `wall` (infinite for a zero-length run).
fn per_sec(n: f64, wall: Duration) -> f64 {
    if wall.as_secs_f64() > 0.0 {
        n / wall.as_secs_f64()
    } else {
        f64::INFINITY
    }
}

impl ThreadedRunReport {
    /// Aggregate events processed per second across all partitions
    /// (events × partitions / wall).
    pub fn aggregate_events_per_sec(&self, partitions: usize) -> f64 {
        per_sec(self.events as f64 * partitions as f64, self.wall)
    }

    /// Stream-rate throughput: distinct events per second the cluster
    /// keeps up with.
    pub fn stream_events_per_sec(&self) -> f64 {
        per_sec(self.events as f64, self.wall)
    }
}

/// Outcome of a durable shared-engine run
/// ([`SharedEngineCluster::run_trace_persistent`]). The candidates went
/// to the run's sink, batch by batch; the report keeps none of them.
#[derive(Debug, Clone)]
pub struct PersistentRunReport {
    /// Events sent to the workers.
    pub events: u64,
    /// Wall-clock time from first send to the last worker's exit.
    pub wall: Duration,
    /// Checkpoints the background [`CheckpointDriver`] completed while
    /// the workers ingested (plus the catch-up cut at drain, if the
    /// cadence demanded one).
    pub checkpoints_completed: u64,
    /// Driver checkpoint attempts that failed. A failure leaves the
    /// previous chain tip intact and is retried on the next cadence
    /// poll, so a non-zero count with a clean run means degraded
    /// reclamation, not lost data.
    pub checkpoint_failures: u64,
}

impl PersistentRunReport {
    /// Stream-rate throughput: distinct events per second the cluster
    /// keeps up with.
    pub fn stream_events_per_sec(&self) -> f64 {
        per_sec(self.events as f64, self.wall)
    }
}

/// A cluster of partition worker threads.
pub struct ThreadedCluster {
    partitions: usize,
    graph_parts: Vec<FollowGraph>,
    detector_config: DetectorConfig,
    max_batch: usize,
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
            partitions: cluster_config.partitions as usize,
            graph_parts: partition_by_source(graph, &partitioner),
            detector_config,
            max_batch: DEFAULT_MAX_BATCH,
        })
    }

    /// Sets the worker queue-drain bound (≥ 1; see [`DEFAULT_MAX_BATCH`]).
    /// `1` reproduces the one-item-per-recv transport exactly.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// Runs a trace through fresh partition workers, gathering all
    /// candidates. Deterministic output ordering.
    pub fn run_trace(&self, events: &[EdgeEvent]) -> Result<ThreadedRunReport> {
        self.run_trace_hooked(events, |_| IngestControl::Continue)
    }

    /// [`ThreadedCluster::run_trace`] with a coordinator-side crash
    /// hook: `hook(i)` runs before event `i` is broadcast and may
    /// [`IngestControl::Kill`] the coordinator. A kill closes every
    /// ingest channel mid-stream; workers drain what was already queued
    /// and exit, so the report covers exactly the sent prefix —
    /// identical to a clean run over `events[..i]` (test-enforced).
    /// This is the adversity harness's seam for overload-then-die
    /// scenarios at the cluster layer.
    pub fn run_trace_hooked<F>(
        &self,
        events: &[EdgeEvent],
        mut hook: F,
    ) -> Result<ThreadedRunReport>
    where
        F: FnMut(usize) -> IngestControl,
    {
        let (result_tx, result_rx) = channel::unbounded::<Vec<Candidate>>();
        let mut senders = Vec::with_capacity(self.partitions);
        let mut joins = Vec::with_capacity(self.partitions);

        for (i, local) in self.graph_parts.iter().enumerate() {
            let (tx, rx) = channel::bounded::<EdgeEvent>(4096);
            let partition =
                Partition::new(PartitionId(i as u32), local.clone(), self.detector_config)?;
            let result_tx = result_tx.clone();
            let max_batch = self.max_batch;
            senders.push(tx);
            joins.push(thread::spawn(move || {
                let mut local_out = Vec::new();
                let mut batch = Vec::with_capacity(max_batch);
                // Micro-batch drain: one engine dispatch per queue drain
                // instead of one per event; candidates are identical
                // (the engine's batch-vs-single contract).
                while drain_batch(&rx, &mut batch, max_batch) {
                    partition.on_events_into(&batch, &mut local_out);
                }
                // One send per worker keeps gather cheap.
                let _ = result_tx.send(local_out);
            }));
        }
        drop(result_tx);

        let start = Instant::now();
        let mut sent = 0u64;
        for (i, &event) in events.iter().enumerate() {
            if hook(i) == IngestControl::Kill {
                // A simulated coordinator death is exactly the event a
                // post-mortem dump should anchor on: record where the
                // stream was cut so the recorder timeline shows what
                // ingested before vs. after the kill.
                magicrecs_obs::recorder::record(
                    magicrecs_obs::TraceKind::Kill,
                    "coordinator",
                    i as u64,
                    events.len() as u64,
                );
                break;
            }
            for tx in &senders {
                tx.send(event)
                    .map_err(|_| Error::ChannelClosed("cluster ingest"))?;
            }
            sent += 1;
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
            events: sent,
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
    max_batch: usize,
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
            max_batch: DEFAULT_MAX_BATCH,
        })
    }

    /// Sets the worker queue-drain bound (≥ 1; see [`DEFAULT_MAX_BATCH`]).
    /// `1` reproduces the one-item-per-recv transport exactly — the
    /// hotpath bench races the two settings as
    /// `batched_celebrity_events_per_sec`.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
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
            let max_batch = self.max_batch;
            senders.push(tx);
            joins.push(thread::spawn(move || {
                let mut local_out = Vec::new();
                let mut batch = Vec::with_capacity(max_batch);
                // Micro-batch drain: the engine pins one `S` snapshot,
                // looks up detector scratch once, and flushes stats once
                // per drained batch instead of per event.
                while drain_batch(&rx, &mut batch, max_batch) {
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

    /// [`SharedEngineCluster::run_trace`] on a durable engine: creates a
    /// fresh [`PersistentConcurrentEngine`] in `dir` with one WAL
    /// partition per worker, and — when `opts.checkpoint_every > 0` —
    /// attaches a background [`CheckpointDriver`] that cuts fence-vector
    /// checkpoints *while the workers ingest*. Workers never pause for a
    /// cut: a fence stalls appends to one WAL partition, and worker
    /// routing equals partition routing, so at most the one worker whose
    /// targets are being exported waits.
    ///
    /// Each worker hands `sink` the candidates of every drained batch, in
    /// event order within the batch, and keeps nothing: a caller that
    /// wants the stream collects it (batches from different workers
    /// interleave), a throughput-only caller counts or drops it. The
    /// candidates are those of [`SharedEngineCluster::run_trace`] and of
    /// a single-thread engine.
    ///
    /// After the stream drains, the driver is given a bounded grace
    /// period to bring the chain tip within one cadence of the durable
    /// tail (so a restart replays at most `checkpoint_every` events),
    /// then the WAL is synced.
    pub fn run_trace_persistent(
        &self,
        dir: &Path,
        opts: PersistOptions,
        events: &[EdgeEvent],
        sink: impl Fn(&[Candidate]) + Sync,
    ) -> Result<PersistentRunReport> {
        let engine = Arc::new(PersistentConcurrentEngine::create(
            dir,
            self.graph.clone(),
            0,
            self.detector_config,
            self.workers,
            opts,
        )?);
        // A 10 ms cadence-check granularity is far below any sensible
        // `checkpoint_every`, and on a saturated box the poll wakeups
        // themselves time-slice against the workers — poll coarsely.
        let driver = (opts.checkpoint_every > 0).then(|| {
            CheckpointDriver::spawn(
                Arc::clone(&engine),
                opts.checkpoint_every,
                Duration::from_millis(10),
            )
        });

        let (sent, ingest_closed, outcomes, wall) = thread::scope(|scope| {
            let mut senders = Vec::with_capacity(self.workers);
            let mut joins = Vec::with_capacity(self.workers);
            for _ in 0..self.workers {
                let (tx, rx) = channel::bounded::<EdgeEvent>(4096);
                let (engine, sink, max_batch) = (&engine, &sink, self.max_batch);
                senders.push(tx);
                joins.push(scope.spawn(move || -> Result<()> {
                    let mut out = Vec::new();
                    let mut batch = Vec::with_capacity(max_batch);
                    while drain_batch(&rx, &mut batch, max_batch) {
                        // WAL append + store apply. A persistence fault
                        // poisons the WAL (every later append is
                        // refused), so stop draining and surface the
                        // first error.
                        engine.on_events_into(&batch, &mut out)?;
                        sink(&out);
                        out.clear();
                    }
                    Ok(())
                }));
            }

            let start = Instant::now();
            let mut sent = 0u64;
            let mut ingest_closed = false;
            for &event in events {
                if senders[Self::route(event.dst, self.workers)]
                    .send(event)
                    .is_err()
                {
                    // A worker died mid-stream (WAL poison); its error
                    // comes back from its join.
                    ingest_closed = true;
                    break;
                }
                sent += 1;
            }
            drop(senders);
            let outcomes: Vec<_> = joins.into_iter().map(|j| j.join()).collect();
            (sent, ingest_closed, outcomes, start.elapsed())
        });
        for outcome in outcomes {
            outcome
                .map_err(|_| Error::ChannelClosed("persistent shared-engine worker panicked"))??;
        }
        if ingest_closed {
            return Err(Error::ChannelClosed("persistent shared-engine ingest"));
        }

        let (checkpoints_completed, checkpoint_failures) = match driver {
            Some(driver) => {
                // The engine is idle now; give the driver a bounded
                // window to close the cadence gap so a restart replays at
                // most `checkpoint_every` events. Missing the window is
                // not an error — the chain tip is merely staler.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let lag = match engine.checkpoint_tip() {
                        Some(tip) => engine.next_seq().saturating_sub(tip + 1),
                        None => engine.next_seq(),
                    };
                    if lag < opts.checkpoint_every || Instant::now() >= deadline {
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                driver.stop()
            }
            None => (0, 0),
        };
        engine.sync()?;

        Ok(PersistentRunReport {
            events: sent,
            wall,
            checkpoints_completed,
            checkpoint_failures,
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

    /// Killing the coordinator mid-broadcast loses nothing already sent
    /// and hangs nothing: workers drain the queued prefix and exit, and
    /// the gathered candidates equal a clean run over exactly that
    /// prefix.
    #[test]
    fn coordinator_kill_yields_exact_prefix() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            800,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let dc = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let cluster =
            ThreadedCluster::new(&g, ClusterConfig::single().with_partitions(3), dc).unwrap();
        let kill_at = trace.len() / 2;
        let killed = cluster
            .run_trace_hooked(trace.events(), |i| {
                if i == kill_at {
                    IngestControl::Kill
                } else {
                    IngestControl::Continue
                }
            })
            .unwrap();
        assert_eq!(killed.events as usize, kill_at);
        let clean = cluster.run_trace(&trace.events()[..kill_at]).unwrap();
        assert_eq!(killed.candidates, clean.candidates);
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

    /// The durable shared run produces exactly a single-thread engine's
    /// candidates while a background driver checkpoints mid-ingest, and
    /// the directory it leaves behind recovers to the same live state
    /// with at most one cadence of WAL replay.
    #[test]
    fn persistent_shared_run_checkpoints_live_and_recovers() {
        use magicrecs_persist::{FsyncPolicy, PersistOptions, RebasePolicy, TempDir};

        let g = GraphGen::new(GraphGenConfig::small()).generate();
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

        let dir = TempDir::new("cluster-persist");
        let opts = PersistOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 128,
            rebase: RebasePolicy {
                max_chain_len: 8,
                max_delta_bytes_ratio: 0.0,
            },
            ..PersistOptions::default()
        };
        const WORKERS: usize = 2;
        let cluster = SharedEngineCluster::new(&g, WORKERS, dc).unwrap();
        let collected = std::sync::Mutex::new(Vec::new());
        let report = cluster
            .run_trace_persistent(dir.path(), opts, trace.events(), |batch| {
                collected.lock().unwrap().extend_from_slice(batch)
            })
            .unwrap();
        let mut got = collected.into_inner().unwrap();
        got.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });
        assert_eq!(got, expected);
        assert_eq!(report.events as usize, trace.len());
        // 1000 events at a 128-event cadence: the driver must have cut at
        // least once (the post-drain grace period guarantees it).
        assert!(report.checkpoints_completed >= 1, "{report:?}");
        assert_eq!(report.checkpoint_failures, 0, "{report:?}");

        // Recover the directory and probe: the restored engine matches a
        // fault-free twin fed the same trace.
        let (pe, rec) = magicrecs_persist::PersistentConcurrentEngine::open(
            dir.path(),
            dc,
            magicrecs_graph::CapStrategy::None,
            WORKERS,
            opts,
        )
        .unwrap();
        assert_eq!(rec.next_seq, trace.len() as u64);
        assert!(rec.checkpoint_seq.is_some(), "{rec:?}");
        assert!(
            rec.replayed < opts.checkpoint_every,
            "tail replay exceeds one cadence: {rec:?}"
        );

        let twin = ConcurrentEngine::new(g.clone(), dc).unwrap();
        twin.on_events(trace.events());
        let probe = Scenario::steady(
            40,
            ScenarioConfig::small()
                .with_duration(magicrecs_types::Duration::from_secs(20))
                .with_seed(7),
        );
        assert_eq!(
            pe.on_events(probe.events()).unwrap(),
            twin.on_events(probe.events()),
            "post-recovery candidates diverge from fault-free twin"
        );
    }

    #[test]
    fn shared_engine_rejects_zero_workers() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        assert!(SharedEngineCluster::new(&g, 0, DetectorConfig::example()).is_err());
    }

    /// Micro-batch draining is a transport change only: any `max_batch`
    /// produces the same candidates as the one-item-per-recv setting (and
    /// as a single-thread engine), for both cluster modes.
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

        let shared_single = SharedEngineCluster::new(&g, 3, dc)
            .unwrap()
            .with_max_batch(1)
            .run_trace(trace.events())
            .unwrap();
        for max_batch in [2usize, 64, 4096] {
            let batched = SharedEngineCluster::new(&g, 3, dc)
                .unwrap()
                .with_max_batch(max_batch)
                .run_trace(trace.events())
                .unwrap();
            assert_eq!(
                batched.candidates, shared_single.candidates,
                "shared, max_batch={max_batch}"
            );
        }

        let cc = ClusterConfig::single().with_partitions(3);
        let part_single = ThreadedCluster::new(&g, cc, dc)
            .unwrap()
            .with_max_batch(1)
            .run_trace(trace.events())
            .unwrap();
        let part_batched = ThreadedCluster::new(&g, cc, dc)
            .unwrap()
            .with_max_batch(128)
            .run_trace(trace.events())
            .unwrap();
        assert_eq!(part_batched.candidates, part_single.candidates);
        assert_eq!(part_batched.candidates, shared_single.candidates);
    }
}
