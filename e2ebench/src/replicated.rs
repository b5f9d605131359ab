//! The replicated, durable workload: two in-process `replica::Node`s,
//! leader and follower cross-placed over two partitions, every unit a
//! `PersistentEngine` under `FsyncPolicy::Always` with automatic
//! checkpoints. One `RoutedClient` drives a closed loop: send a batch,
//! wait for its `IngestAck`, send the next; at the end `drain` waits
//! until every batch is on both nodes.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use magicrecs_persist::{FsyncPolicy, PersistOptions, PersistentEngine, Wal, WalOptions};
use magicrecs_replica::{ClusterMap, Coordinator, Node, NodeConfig, NodeHandle, RoutedClient};
use magicrecs_types::{Candidate, EdgeEvent, FxHashMap};

use crate::inputs::{detector, ReplicatedInputs, REPLICATED_USERS, REPLICATED_WARMUP_BATCHES};
use crate::replay::{Decomposed, Ledger};

/// Events between automatic checkpoints of each partition unit.
pub const CHECKPOINT_EVERY: u64 = 2_048;

/// WAL segment size of every unit (the nodes' default).
pub const SEGMENT_BYTES: u64 = 64 << 10;

/// How long `drain` may take before the run counts as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Candidates per `(partition, batch tag)`.
pub type PerPartTag = FxHashMap<(u32, u64), Vec<Candidate>>;

/// Everything one replicated run measured.
pub struct ReplicatedRun {
    /// Per set-up repetition: node starts through warm-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per acked batch: `RoutedClient::ingest` round trip, ms.
    pub ack_ms: Vec<f64>,
    /// Batches sent, warm-up included, in send order.
    pub sent: Vec<(u32, Vec<EdgeEvent>)>,
    /// Events sent in the measured loop.
    pub measured_events: u64,
    /// Measured loop start → `drain` returned, seconds.
    pub wall_s: f64,
    /// `drain` alone, ms.
    pub drain_ms: f64,
    /// CPU seconds over the loop and drain, client thread excluded.
    pub cpu_s: f64,
    /// Resident memory after the run, MiB.
    pub peak_rss_mb: f64,
    /// Ingest errors and drain timeouts.
    pub refused: u64,
    /// Candidates delivered per `(partition, tag)`.
    pub delivered: PerPartTag,
    /// `RoutedClient` re-routes.
    pub reroutes: u64,
    /// Global-registry scrapes around the measured loop.
    pub scrape_before: Vec<(String, u64)>,
    /// See `scrape_before`.
    pub scrape_after: Vec<(String, u64)>,
    /// Traced runs: ack → replicated delays, ms.
    pub ship_lag_ms: Vec<f64>,
    /// Traced runs: largest `replica_lag_events` seen.
    pub max_lag_events: u64,
    /// The routing map (for the twin).
    pub map: ClusterMap,
}

fn free_addr() -> std::net::SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral loopback port")
}

/// Two nodes over fresh loopback ports in `dir`.
fn start_cluster(dir: &Path, graph_seed: u64) -> (ClusterMap, NodeHandle, NodeHandle) {
    let text = format!(
        "users {REPLICATED_USERS}\nseed {graph_seed}\nnode 0 {}\nnode 1 {}\n\
         partition 0 leader 0 follower 1\npartition 1 leader 1 follower 0\n",
        free_addr(),
        free_addr()
    );
    let map = ClusterMap::parse(&text).expect("cluster map parses");
    let start = |id: u32| {
        let mut cfg = NodeConfig::new(id, map.clone(), dir.join(format!("n{id}")));
        cfg.detector = detector();
        cfg.checkpoint_every = CHECKPOINT_EVERY;
        cfg.segment_bytes = SEGMENT_BYTES;
        Node::start(cfg).expect("replica node starts")
    };
    let n0 = start(0);
    let n1 = start(1);
    (map, n0, n1)
}

fn scrape(map: &ClusterMap) -> Vec<(String, u64)> {
    Coordinator::new(map.clone())
        .metrics(0)
        .expect("metrics scrape")
}

/// Polls the leaders' replicated watermarks and times each acked batch
/// from its ack until a follower holds it.
fn ship_lag_poller(
    map: ClusterMap,
    acks: mpsc::Receiver<(u32, u64, Instant)>,
    stop: &AtomicBool,
) -> (Vec<f64>, u64) {
    let coord = Coordinator::new(map);
    let mut pending: Vec<(u32, u64, Instant)> = Vec::new();
    let mut lags = Vec::new();
    let mut max_lag = 0u64;
    let mut round = 0u64;
    let mut stopped_at: Option<Instant> = None;
    loop {
        pending.extend(acks.try_iter());
        if stop.load(Ordering::Acquire) {
            // `drain` returned: every ack is replicated, so what is
            // still pending resolves within a few polls.
            let at = *stopped_at.get_or_insert_with(Instant::now);
            if pending.is_empty() || at.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        for p in 0..2u32 {
            // Partition p is led by node p.
            let Ok(st) = coord.status(p, p) else { continue };
            let now = Instant::now();
            pending.retain(|&(part, end, at)| {
                if part == p && st.replicated >= end {
                    lags.push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
                    false
                } else {
                    true
                }
            });
        }
        round += 1;
        if round.is_multiple_of(25) {
            if let Ok(m) = coord.metrics(0) {
                let lag = m
                    .iter()
                    .find(|(n, _)| n == "replica_lag_events")
                    .map_or(0, |(_, v)| *v);
                max_lag = max_lag.max(lag);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    (lags, max_lag)
}

/// Runs the replicated workload in `dir`: `reps` set-ups (the last is
/// kept), then a closed loop for `seconds` and a drain.
pub fn run(
    inputs: &ReplicatedInputs,
    dir: &Path,
    seconds: f64,
    reps: usize,
    traced: bool,
) -> ReplicatedRun {
    let batches = &inputs.batches;
    let warm = REPLICATED_WARMUP_BATCHES.min(batches.len());
    let mut setup_s = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let rep_dir: PathBuf = dir.join(format!("rep{rep}"));
        let t = Instant::now();
        let (map, n0, n1) = start_cluster(&rep_dir, inputs.graph_seed);
        let mut client = RoutedClient::new(map.clone());
        for (_, b) in &batches[..warm] {
            client.ingest(b).expect("warm-up ingest");
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(client);
            n0.shutdown();
            n1.shutdown();
            let _ = std::fs::remove_dir_all(&rep_dir);
        } else {
            kept = Some((map, n0, n1, client));
        }
    }
    let (map, n0, n1, mut client) = kept.expect("at least one set-up");

    let scrape_before = scrape(&map);
    let stop = AtomicBool::new(false);
    let (ack_tx, ack_rx) = mpsc::channel();
    let mut ack_ms = Vec::new();
    let mut refused = 0u64;
    let mut sent: Vec<(u32, Vec<EdgeEvent>)> = batches[..warm].to_vec();
    let mut next_seq = [0u64; 2];
    for (p, b) in &sent {
        next_seq[*p as usize] += b.len() as u64;
    }
    let mut measured_events = 0u64;
    let mut drain_ms = 0.0;
    let cpu0 = crate::host::cpu_seconds();
    let client_cpu0 = crate::host::thread_cpu_seconds();
    let t0 = Instant::now();
    let ((), (ship_lag_ms, max_lag_events)) = std::thread::scope(|s| {
        let poller = traced.then(|| {
            let m = map.clone();
            let stop = &stop;
            s.spawn(move || ship_lag_poller(m, ack_rx, stop))
        });
        let deadline = t0 + Duration::from_secs_f64(seconds);
        for (p, b) in &batches[warm..] {
            if Instant::now() >= deadline {
                break;
            }
            let t = Instant::now();
            if let Err(e) = client.ingest(b) {
                eprintln!("ingest failed: {e}");
                refused += 1;
                break;
            }
            let acked = Instant::now();
            ack_ms.push((acked - t).as_secs_f64() * 1e3);
            next_seq[*p as usize] += b.len() as u64;
            if traced {
                let _ = ack_tx.send((*p, next_seq[*p as usize], acked));
            }
            measured_events += b.len() as u64;
            sent.push((*p, b.clone()));
        }
        let td = Instant::now();
        if let Err(e) = client.drain(DRAIN_TIMEOUT) {
            eprintln!("drain failed: {e}");
            refused += 1;
        }
        drain_ms = td.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Release);
        let lag = poller.map_or((Vec::new(), 0), |h| h.join().expect("ship-lag poller"));
        ((), lag)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    // The system's CPU: the whole process minus this (client) thread.
    let cpu_s =
        crate::host::cpu_seconds() - cpu0 - (crate::host::thread_cpu_seconds() - client_cpu0);
    let peak_rss_mb = crate::host::rss_mb();
    let scrape_after = scrape(&map);

    let delivered: PerPartTag = client
        .delivered()
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    let reroutes = client.reroutes();
    drop(client);
    n0.shutdown();
    n1.shutdown();

    ReplicatedRun {
        setup_s,
        ack_ms,
        sent,
        measured_events,
        wall_s,
        drain_ms,
        cpu_s,
        peak_rss_mb,
        refused,
        delivered,
        reroutes,
        scrape_before,
        scrape_after,
        ship_lag_ms,
        max_lag_events,
        map,
    }
}

/// The fault-free twin: one engine per partition fed the same batches
/// in the same order, keyed by `(partition, first sequence)` exactly as
/// the routed client tags them.
pub fn twin(map: &ClusterMap, sent: &[(u32, Vec<EdgeEvent>)]) -> PerPartTag {
    let graph = magicrecs_replica::fixture_graph(map);
    let engines: Vec<magicrecs_core::ConcurrentEngine> = (0..2)
        .map(|_| {
            magicrecs_core::ConcurrentEngine::new(graph.clone(), detector())
                .expect("valid detector config")
        })
        .collect();
    let mut seq = [0u64; 2];
    let mut out = PerPartTag::default();
    for (p, b) in sent {
        let pi = *p as usize;
        let c = engines[pi].on_events(b);
        if !c.is_empty() {
            out.insert((*p, seq[pi]), c);
        }
        seq[pi] += b.len() as u64;
    }
    out
}

/// What the in-process durable replay measured.
pub struct PersistReplay {
    /// `Wal::append_batch` under `FsyncPolicy::Always`, per batch, µs.
    pub wal_us: Vec<f64>,
    /// Decomposed detection pipeline, per batch, µs.
    pub detect_us: Vec<f64>,
    /// `PersistentEngine::checkpoint` at the nodes' cadence, ms each.
    pub checkpoint_ms: Vec<f64>,
    /// Bytes each of those checkpoints wrote.
    pub checkpoint_bytes: Vec<f64>,
    /// Work and self time of the decomposed pipeline.
    pub ledger: Ledger,
    /// `D` entries resident at the end, both partitions.
    pub resident_entries: u64,
    /// Candidates per `(partition, tag)`.
    pub delivered: PerPartTag,
}

/// Checkpoint bytes written so far in this process (global registry).
fn checkpoint_bytes_total() -> u64 {
    magicrecs_obs::export::flatten(&magicrecs_obs::global().snapshot())
        .iter()
        .filter(|(n, _)| n == "checkpoint_full_bytes" || n == "checkpoint_delta_bytes")
        .map(|(_, v)| *v)
        .sum()
}

/// Replays the sent batches in process, per partition: the WAL group
/// commit alone, the decomposed detection pipeline, and a persistent
/// engine checkpointed at the nodes' cadence.
pub fn persist_replay(
    map: &ClusterMap,
    sent: &[(u32, Vec<EdgeEvent>)],
    dir: &Path,
) -> PersistReplay {
    let graph = magicrecs_replica::fixture_graph(map);
    let mut wals = Vec::new();
    let mut engines = Vec::new();
    let mut pipes = Vec::new();
    for p in 0..2 {
        let wal_dir = dir.join(format!("wal-p{p}"));
        wals.push(
            Wal::create(
                &wal_dir,
                "wal-",
                WalOptions {
                    fsync: FsyncPolicy::Always,
                    segment_bytes: SEGMENT_BYTES,
                },
            )
            .expect("replay WAL"),
        );
        engines.push(
            PersistentEngine::create(
                &dir.join(format!("engine-p{p}")),
                graph.clone(),
                0,
                detector(),
                PersistOptions {
                    fsync: FsyncPolicy::Never,
                    segment_bytes: SEGMENT_BYTES,
                    checkpoint_every: 0,
                    ..PersistOptions::default()
                },
            )
            .expect("replay engine"),
        );
        pipes.push(Decomposed::new(&graph));
    }
    let mut out = PersistReplay {
        wal_us: Vec::with_capacity(sent.len()),
        detect_us: Vec::with_capacity(sent.len()),
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: Vec::new(),
        ledger: Ledger::default(),
        resident_entries: 0,
        delivered: PerPartTag::default(),
    };
    let mut seq = [0u64; 2];
    let mut since = [0u64; 2];
    let mut scratch = Vec::new();
    for (p, b) in sent {
        let pi = *p as usize;
        let t = Instant::now();
        wals[pi].append_batch(b).expect("replay WAL append");
        out.wal_us.push(t.elapsed().as_secs_f64() * 1e6);

        let mut cands = Vec::new();
        let t = Instant::now();
        pipes[pi].process(b, &mut cands);
        out.detect_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !cands.is_empty() {
            out.delivered.insert((*p, seq[pi]), cands);
        }
        seq[pi] += b.len() as u64;

        scratch.clear();
        engines[pi]
            .on_events_into(b, &mut scratch)
            .expect("replay engine ingest");
        since[pi] += b.len() as u64;
        if since[pi] >= CHECKPOINT_EVERY {
            since[pi] = 0;
            let bytes0 = checkpoint_bytes_total();
            let t = Instant::now();
            engines[pi].checkpoint().expect("replay checkpoint");
            out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.checkpoint_bytes
                .push((checkpoint_bytes_total() - bytes0) as f64);
        }
    }
    for pipe in &pipes {
        out.ledger.merge(&pipe.ledger);
        out.resident_entries += pipe.resident_entries();
    }
    out
}
