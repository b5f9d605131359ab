//! The replica node runtime: a blocking, thread-per-connection server
//! hosting one **partition unit** per partition this node replicates.
//!
//! A unit is a [`PersistentEngine`] — the one persistent engine at a
//! single WAL partition (`wal-p0-` segments, incremental checkpoints,
//! detector state) — behind a `Mutex` and fenced by an [`EpochGate`].
//! The same unit serves in both roles:
//!
//! * **leading** — `RouteBind`/`Ingest` are admitted through the gate,
//!   applied with group commit (`FsyncPolicy::Always`, so the durable
//!   watermark *is* `next_seq`), candidates delivered to subscribed
//!   connections, and acknowledged with `IngestAck{durable, replicated}`;
//! * **following** — the gate refuses writes with a typed
//!   `WrongLeader`, while a tail thread (the crate's `tail` module) ships the
//!   leader's WAL segments into the local engine. A follower is
//!   **apply-only**: shipped batches go through
//!   [`PersistentEngine::apply_shipped`] (the same group commit,
//!   checkpoint cadence and `D` mutations as the leader, no detection),
//!   because detection is a read-only pass over `S` and `D` and only the
//!   leader delivers. Its `D` stays identical to the leader's, so a
//!   promotion resumes detection where the leader left off.
//!
//! Both roles serve the read-only shipping plane (`SegmentsReq` /
//! `SegmentFetch` / `StateListReq` / `StateFetch`), so a rebalance
//! target can bootstrap from whichever replica is cheapest. The segment
//! names come from `magicrecs-persist` ([`PersistentEngine::wal_prefix`],
//! [`segment_path`]); this module never spells them out.
//! `SegmentsReq` is a long-poll: when the unit holds nothing past the
//! requested sequence, the reply waits until the next batch is durable
//! or [`NodeConfig::poll_interval`] expires.
//!
//! ## The demote fence
//!
//! "Acked" means the client saw `IngestAck` — so a batch admitted
//! before a demotion must either complete *and be counted in the fence
//! the coordinator waits on*, or be refused. The unit's engine `Mutex`
//! is that fence, not a leftover of a single-threaded engine: the
//! ingest path re-checks the gate **inside** the engine lock, and
//! `RoleChange{leader: false}` takes the engine lock *before* flipping
//! the gate: any in-flight batch finishes first (and is covered by the
//! returned fence), and any batch still waiting on the lock re-checks
//! the gate and is refused. Nothing is ever acked above the fence.
//!
//! ## Promotion
//!
//! `RoleChange{leader: true}` stops the tail thread (shutting its socket
//! down, so a parked long-poll does not delay it), flips the gate,
//! bumps `replica_promotions`, records a [`TraceKind::Promote`] event,
//! and writes the flight-recorder ring to `promote-<epoch>.trace` in
//! the unit's directory — crash forensics name the promotion even if
//! the process dies right after.

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::route::EpochGate;
use magicrecs_gen::{GraphGen, GraphGenConfig};
use magicrecs_graph::{CapStrategy, FollowGraph};
use magicrecs_obs::recorder;
use magicrecs_obs::TraceKind;
use magicrecs_persist::wal::segment_path;
use magicrecs_persist::{segment_catalog, FsyncPolicy, PersistOptions, PersistentEngine};
use magicrecs_server::wire::{decode, encode, Frame, ReplStatus, WireErrorCode, MAX_CHUNK_LEN};
use magicrecs_types::{DetectorConfig, Error, Result, Timestamp, UserId};

use crate::config::ClusterMap;
use crate::metrics::{replica_metrics, ReplicaMetrics};
use crate::tail::{start_tail, TailHandle};

/// Everything a node process needs to come up.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id in the map.
    pub node_id: u32,
    /// The static topology.
    pub map: ClusterMap,
    /// Root data directory; each unit lives in `p<partition>/`.
    pub data_dir: PathBuf,
    /// Detector configuration (must match across the cluster).
    pub detector: DetectorConfig,
    /// WAL segment size. Small segments make shipping granular.
    pub segment_bytes: u64,
    /// Auto-checkpoint cadence in events (0 = only on `CheckpointReq`).
    pub checkpoint_every: u64,
    /// Bound on a caught-up `SegmentsReq` long-poll: the longest this
    /// node holds the reply while it has nothing past the requested
    /// sequence. A new durable batch answers it at once, so this only
    /// sets how often an idle follower re-polls (and re-reports its
    /// progress).
    pub poll_interval: Duration,
    /// Spawn tail threads at start for partitions the map says this
    /// node follows. Tests that drive `FollowReq` by hand turn this off.
    pub auto_follow: bool,
}

impl NodeConfig {
    /// Sensible defaults for loopback clusters: 64 KiB segments,
    /// manual checkpoints, 50 ms long-poll bound, auto-follow on.
    pub fn new(node_id: u32, map: ClusterMap, data_dir: PathBuf) -> NodeConfig {
        NodeConfig {
            node_id,
            map,
            data_dir,
            detector: DetectorConfig::default(),
            segment_bytes: 64 << 10,
            checkpoint_every: 0,
            poll_interval: Duration::from_millis(50),
            auto_follow: true,
        }
    }

    pub(crate) fn persist_opts(&self) -> PersistOptions {
        PersistOptions {
            // Always-fsync makes `next_seq` the durable watermark, which
            // is the promotion contract ("promote at its durable seq").
            fsync: FsyncPolicy::Always,
            segment_bytes: self.segment_bytes,
            checkpoint_every: self.checkpoint_every,
            ..PersistOptions::default()
        }
    }
}

/// The deterministic graph fixture every replica of a map shares:
/// replication ships only the event WAL, so all detectors must start
/// from the identical follow graph.
pub fn fixture_graph(map: &ClusterMap) -> FollowGraph {
    GraphGen::new(
        GraphGenConfig::small()
            .with_seed(map.seed)
            .with_users(map.users),
    )
    .generate()
}

/// One replicated partition living on this node.
pub(crate) struct Unit {
    pub(crate) partition: u32,
    pub(crate) dir: PathBuf,
    pub(crate) gate: EpochGate,
    pub(crate) engine: Mutex<PersistentEngine>,
    /// Mirror of `engine.next_seq()`, readable without the lock. Moved
    /// only through [`Unit::publish_durable`].
    durable: AtomicU64,
    /// Highest `from_seq` any follower has reported via `SegmentsReq` —
    /// the leader's view of the replicated watermark.
    pub(crate) replicated: AtomicU64,
    pub(crate) tail: Mutex<Option<TailHandle>>,
    /// Long-polls parked until `durable` moves (see
    /// [`Unit::wait_past`]); the mutex only orders the check against
    /// the notify.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl Unit {
    pub(crate) fn new(
        partition: u32,
        dir: PathBuf,
        gate: EpochGate,
        engine: PersistentEngine,
    ) -> Unit {
        let durable = engine.next_seq();
        Unit {
            partition,
            dir,
            gate,
            engine: Mutex::new(engine),
            durable: AtomicU64::new(durable),
            replicated: AtomicU64::new(0),
            tail: Mutex::new(None),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The durable watermark (the engine's next sequence).
    pub(crate) fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Publishes a new durable watermark and wakes every long-poll
    /// parked on this unit.
    pub(crate) fn publish_durable(&self, durable: u64) {
        self.durable.store(durable, Ordering::Release);
        self.wake();
    }

    fn wake(&self) {
        let _guard = self.wake_lock.lock().unwrap();
        self.wake.notify_all();
    }

    /// Blocks until the durable watermark passes `seq` (the unit holds a
    /// record at `seq`), `bound` elapses, or `stop` is set.
    fn wait_past(&self, seq: u64, bound: Duration, stop: &AtomicBool) {
        let deadline = Instant::now() + bound;
        let mut guard = self.wake_lock.lock().unwrap();
        while self.durable() <= seq && !stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            guard = self.wake.wait_timeout(guard, deadline - now).unwrap().0;
        }
    }

    fn status(&self, _node: u32) -> ReplStatus {
        let (epoch, leading, _hint) = self.gate.current();
        let durable = self.durable();
        ReplStatus {
            partition: self.partition,
            leading,
            epoch,
            durable,
            applied: durable,
            replicated: self.replicated.load(Ordering::Acquire),
        }
    }
}

pub(crate) struct NodeInner {
    pub(crate) cfg: NodeConfig,
    pub(crate) units: Mutex<HashMap<u32, Arc<Unit>>>,
    pub(crate) metrics: ReplicaMetrics,
    shutdown: AtomicBool,
    /// A handle on every live connection's socket, keyed by accept
    /// order, so shutdown can sever them.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running node: the acceptor thread plus its shared state. Obtained
/// from [`Node::start`]; the `replica_node` binary parks on it forever,
/// in-process tests call [`NodeHandle::shutdown`].
pub struct NodeHandle {
    inner: Arc<NodeInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

/// What [`NodeHandle::d_state`] reads from a unit. Two replicas that
/// applied the same log hold equal values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitState {
    /// The WAL sequence the next event will receive.
    pub next_seq: u64,
    /// Every resident `D` entry as `(target, source, created_at)`,
    /// grouped by target in ascending order, each target's entries in
    /// stored order.
    pub entries: Vec<(UserId, UserId, Timestamp)>,
}

/// Namespace for starting replica nodes.
pub struct Node;

impl Node {
    /// Creates (or re-opens) every unit the map assigns this node,
    /// binds the listener, spawns the acceptor, and — for partitions
    /// the map says we follow — starts tail threads against the
    /// initial leaders.
    pub fn start(cfg: NodeConfig) -> Result<NodeHandle> {
        let addr = cfg.map.addr_of(cfg.node_id)?;
        let graph = fixture_graph(&cfg.map);
        let mut units = HashMap::new();
        let mut lead = cfg.map.led_by(cfg.node_id);
        lead.extend(cfg.map.followed_by(cfg.node_id));
        for partition in lead {
            let unit = open_unit(&cfg, partition, graph.clone())?;
            units.insert(partition, Arc::new(unit));
        }
        let inner = Arc::new(NodeInner {
            units: Mutex::new(units),
            metrics: replica_metrics(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            cfg,
        });
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Io(e.to_string()))?;
        if inner.cfg.auto_follow {
            for partition in inner.cfg.map.followed_by(inner.cfg.node_id) {
                let leader = inner
                    .cfg
                    .map
                    .partition(partition)
                    .expect("validated")
                    .leader;
                let source = inner.cfg.map.addr_of(leader)?;
                let unit = Arc::clone(
                    inner
                        .units
                        .lock()
                        .unwrap()
                        .get(&partition)
                        .expect("unit just created"),
                );
                start_tail(&inner, &unit, source);
            }
        }
        let acc_inner = Arc::clone(&inner);
        let acceptor = std::thread::spawn(move || {
            for (id, stream) in (0u64..).zip(listener.incoming()) {
                if acc_inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                acc_inner.conns.lock().unwrap().insert(id, handle);
                let conn_inner = Arc::clone(&acc_inner);
                std::thread::spawn(move || {
                    let _ = serve_conn(&conn_inner, stream);
                    conn_inner.conns.lock().unwrap().remove(&id);
                });
            }
        });
        Ok(NodeHandle {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The body of a replica node process, given its arguments after the
    /// program name: `--config <map file> --node <id> --data <dir>
    /// [--no-auto-follow]`. Installs the flight-recorder panic hook,
    /// reads the cluster map, starts the node (creating or re-opening its
    /// partition units), prints `READY <addr>` on stdout once the
    /// listener is bound, and parks forever: the multi-process tests and
    /// the adversity runner kill it with SIGKILL, never gracefully, and
    /// surviving that *is* the point. Bad arguments exit with status 2,
    /// an unreadable map or a failed start with status 1.
    pub fn run_process(args: impl IntoIterator<Item = String>) -> ! {
        recorder::install_panic_hook();
        let usage = || -> ! {
            eprintln!(
                "usage: replica_node --config <map file> --node <id> --data <dir> \
                 [--no-auto-follow]"
            );
            std::process::exit(2);
        };
        let fail = |what: String| -> ! {
            eprintln!("replica_node: {what}");
            std::process::exit(1);
        };
        let (mut config_path, mut node_id, mut data_dir) = (None, None, None);
        let mut auto_follow = true;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--config" => {
                    config_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
                }
                "--node" => {
                    node_id = args
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                        .or_else(|| usage())
                }
                "--data" => data_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
                "--no-auto-follow" => auto_follow = false,
                _ => usage(),
            }
        }
        let (Some(config_path), Some(node_id), Some(data_dir)) = (config_path, node_id, data_dir)
        else {
            usage()
        };
        let text = std::fs::read_to_string(&config_path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", config_path.display())));
        let map =
            ClusterMap::parse(&text).unwrap_or_else(|e| fail(format!("bad cluster map: {e}")));
        let mut cfg = NodeConfig::new(node_id, map, data_dir);
        cfg.auto_follow = auto_follow;
        let handle = Node::start(cfg).unwrap_or_else(|e| fail(format!("start failed: {e}")));
        println!("READY {}", handle.addr());
        use std::io::Write;
        let _ = std::io::stdout().flush();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}

impl NodeHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Durable watermark of one hosted partition (tests/diagnostics).
    pub fn durable(&self, partition: u32) -> Option<u64> {
        get_unit(&self.inner, partition).map(|u| u.durable())
    }

    /// One hosted partition's replicated state, read under its engine
    /// lock (tests/diagnostics).
    pub fn d_state(&self, partition: u32) -> Option<UnitState> {
        let unit = get_unit(&self.inner, partition)?;
        let engine = unit.engine.lock().unwrap();
        let mut entries = Vec::new();
        engine.engine().store().export_entries(&mut entries);
        entries.sort_by_key(|&(target, _, _)| target);
        Some(UnitState {
            next_seq: engine.next_seq(),
            entries,
        })
    }

    /// Stops tail threads, the acceptor and every live connection, and
    /// returns once no connection thread is left — as a process exit
    /// would, so the same directories can be reopened right after.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let units: Vec<Arc<Unit>> = self.inner.units.lock().unwrap().values().cloned().collect();
        for unit in &units {
            if let Some(handle) = unit.tail.lock().unwrap().take() {
                handle.stop();
            }
        }
        // Wake the acceptor with a dummy connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
        // Sever every connection and release parked long-polls; each
        // connection thread then fails its next read or write and exits.
        for stream in self.inner.conns.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for unit in &units {
            unit.wake();
        }
        while !self.inner.conns.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Opens an existing unit directory or creates a fresh one seeded with
/// the fixture graph.
fn open_unit(cfg: &NodeConfig, partition: u32, graph: FollowGraph) -> Result<Unit> {
    let dir = cfg.data_dir.join(format!("p{partition}"));
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
    let has_state = std::fs::read_dir(&dir)
        .map_err(|e| Error::Io(e.to_string()))?
        .next()
        .is_some();
    let engine = if has_state {
        let (pe, _report) =
            PersistentEngine::open(&dir, cfg.detector, CapStrategy::None, cfg.persist_opts())?;
        pe
    } else {
        PersistentEngine::create(&dir, graph, 0, cfg.detector, cfg.persist_opts())?
    };
    let spec = cfg
        .map
        .partition(partition)
        .ok_or(Error::UnknownPartition(partition))?;
    let leading = spec.leader == cfg.node_id;
    let gate = EpochGate::new(partition, 0, leading, spec.leader);
    Ok(Unit::new(partition, dir, gate, engine))
}

fn get_unit(inner: &Arc<NodeInner>, partition: u32) -> Option<Arc<Unit>> {
    inner.units.lock().unwrap().get(&partition).cloned()
}

fn send(stream: &mut TcpStream, frame: &Frame) -> Result<()> {
    use std::io::Write;
    stream
        .write_all(&encode(frame))
        .map_err(|e| Error::Io(e.to_string()))
}

fn reply_err(stream: &mut TcpStream, code: WireErrorCode, detail: String) -> Result<()> {
    send(stream, &Frame::Error { code, detail })
}

/// Per-connection state: one partition binding at a time (rebinding is
/// cheap and the routed client does it whenever it switches partitions
/// on a shared connection).
struct ConnState {
    bound: Option<(u32, u64)>,
    subscribed: bool,
}

fn serve_conn(inner: &Arc<NodeInner>, mut stream: TcpStream) -> Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut state = ConnState {
        bound: None,
        subscribed: false,
    };
    loop {
        loop {
            match decode(&buf) {
                Ok(Some((frame, used))) => {
                    buf.drain(..used);
                    if !handle_frame(inner, &mut stream, &mut state, frame)? {
                        return Ok(());
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = reply_err(&mut stream, WireErrorCode::BadFrame, e.to_string());
                    return Err(e);
                }
            }
        }
        let n = stream
            .read(&mut scratch)
            .map_err(|e| Error::Io(e.to_string()))?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Handles one frame; returns `Ok(false)` to close the connection.
fn handle_frame(
    inner: &Arc<NodeInner>,
    stream: &mut TcpStream,
    state: &mut ConnState,
    frame: Frame,
) -> Result<bool> {
    match frame {
        Frame::Hello { .. } => {
            send(
                stream,
                &Frame::HelloAck {
                    worker_id: inner.cfg.node_id,
                    num_workers: 1,
                },
            )?;
        }
        Frame::Subscribe => {
            state.subscribed = true;
            send(stream, &Frame::OkAck)?;
        }
        Frame::Barrier { tag } => send(stream, &Frame::BarrierAck { tag })?,
        Frame::MetricsReq => {
            let metrics = magicrecs_obs::export::flatten(&magicrecs_obs::global().snapshot());
            send(stream, &Frame::MetricsResp { metrics })?;
        }
        Frame::CheckpointReq => {
            let units: Vec<Arc<Unit>> = inner.units.lock().unwrap().values().cloned().collect();
            for unit in units {
                unit.engine.lock().unwrap().checkpoint()?;
            }
            send(stream, &Frame::OkAck)?;
        }
        Frame::RouteBind { partition, epoch } => match get_unit(inner, partition) {
            None => {
                // Not hosted here; the best hint we have is the static map.
                let hint = inner
                    .cfg
                    .map
                    .partition(partition)
                    .map(|p| p.leader)
                    .unwrap_or(0);
                inner.metrics.refused_writes.incr();
                send(
                    stream,
                    &Frame::WrongLeader {
                        partition,
                        epoch: 0,
                        hint,
                    },
                )?;
            }
            Some(unit) => match unit.gate.admit(epoch) {
                Ok(_) => {
                    state.bound = Some((partition, epoch));
                    send(stream, &Frame::OkAck)?;
                }
                Err(Error::WrongLeader {
                    partition,
                    epoch,
                    hint,
                }) => {
                    inner.metrics.refused_writes.incr();
                    send(
                        stream,
                        &Frame::WrongLeader {
                            partition,
                            epoch,
                            hint,
                        },
                    )?;
                }
                Err(e) => return Err(e),
            },
        },
        Frame::Ingest { tag, events } => {
            let Some((partition, epoch)) = state.bound else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    "bind a partition before ingesting".into(),
                )?;
                return Ok(true);
            };
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Internal,
                    "partition unit vanished".into(),
                )?;
                return Ok(false);
            };
            let mut engine = unit.engine.lock().unwrap();
            // The fence: demotion flips the gate while holding this
            // lock, so re-checking here guarantees nothing is acked
            // above the fence the coordinator was handed.
            match unit.gate.admit(epoch) {
                Ok(_) => {}
                Err(Error::WrongLeader {
                    partition,
                    epoch,
                    hint,
                }) => {
                    drop(engine);
                    state.bound = None;
                    inner.metrics.refused_writes.incr();
                    send(
                        stream,
                        &Frame::WrongLeader {
                            partition,
                            epoch,
                            hint,
                        },
                    )?;
                    return Ok(true);
                }
                Err(e) => return Err(e),
            }
            let next = engine.next_seq();
            if tag > next {
                drop(engine);
                reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("ingest gap: batch tag {tag} but next seq is {next}"),
                )?;
                return Ok(true);
            }
            let skip = (next - tag) as usize;
            let mut candidates = Vec::new();
            if skip >= events.len() {
                // Whole batch already held (idempotent re-send).
                if !events.is_empty() {
                    inner.metrics.dup_batches.incr();
                }
            } else {
                engine.on_events_into(&events[skip..], &mut candidates)?;
                unit.publish_durable(engine.next_seq());
                inner.metrics.ingest_batches.incr();
            }
            let durable = engine.next_seq();
            drop(engine);
            if state.subscribed && !candidates.is_empty() {
                send(stream, &Frame::Deliver { tag, candidates })?;
            }
            send(
                stream,
                &Frame::IngestAck {
                    partition,
                    tag,
                    durable,
                    replicated: unit.replicated.load(Ordering::Acquire),
                },
            )?;
        }
        Frame::SegmentsReq {
            partition,
            from_seq,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            // The follower's requested floor doubles as its durable
            // progress report: everything below is replicated.
            unit.replicated.fetch_max(from_seq, Ordering::AcqRel);
            // Long-poll: a caught-up follower gets its reply when the
            // next batch is durable, not on its next timer tick.
            unit.wait_past(from_seq, inner.cfg.poll_interval, &inner.shutdown);
            let catalog = segment_catalog(&unit.dir, &PersistentEngine::wal_prefix())?;
            let segments = catalog.iter().map(|s| (s.first_seq, s.bytes)).collect();
            send(
                stream,
                &Frame::SegmentsResp {
                    partition,
                    segments,
                },
            )?;
        }
        Frame::SegmentFetch {
            partition,
            first_seq,
            offset,
            max_len,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let path = segment_path(&unit.dir, &PersistentEngine::wal_prefix(), first_seq);
            let bytes = read_slice(&path, offset, max_len)?;
            match bytes {
                Some(bytes) => send(
                    stream,
                    &Frame::SegmentChunk {
                        partition,
                        first_seq,
                        offset,
                        bytes,
                    },
                )?,
                None => reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("no such segment {}", path.display()),
                )?,
            }
        }
        Frame::StateListReq { partition } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let mut files = Vec::new();
            let rd = std::fs::read_dir(&unit.dir).map_err(|e| Error::Io(e.to_string()))?;
            for entry in rd {
                let entry = entry.map_err(|e| Error::Io(e.to_string()))?;
                let meta = entry.metadata().map_err(|e| Error::Io(e.to_string()))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                // Ship only settled durable state: no tmp files (mid-rename),
                // no trace dumps.
                if meta.is_file() && !name.ends_with(".tmp") && !name.ends_with(".trace") {
                    files.push((name, meta.len()));
                }
            }
            files.sort();
            send(stream, &Frame::StateListResp { partition, files })?;
        }
        Frame::StateFetch {
            partition,
            name,
            offset,
            max_len,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Unsupported,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            if !safe_name(&name) {
                let _ = reply_err(
                    stream,
                    WireErrorCode::BadFrame,
                    format!("unsafe state name {name:?}"),
                );
                return Ok(false);
            }
            let bytes = read_slice(&unit.dir.join(&name), offset, max_len)?;
            match bytes {
                Some(bytes) => send(
                    stream,
                    &Frame::StateChunk {
                        partition,
                        name,
                        offset,
                        bytes,
                    },
                )?,
                None => reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("no such state file {name}"),
                )?,
            }
        }
        Frame::RoleChange {
            partition,
            epoch,
            leader,
            hint,
        } => {
            let Some(unit) = get_unit(inner, partition) else {
                reply_err(
                    stream,
                    WireErrorCode::Internal,
                    format!("partition {partition} not hosted"),
                )?;
                return Ok(true);
            };
            let durable = if leader {
                promote(inner, &unit, epoch, hint)?
            } else {
                demote(inner, &unit, epoch, hint)
            };
            send(
                stream,
                &Frame::RoleChangeAck {
                    partition,
                    epoch,
                    durable,
                },
            )?;
        }
        Frame::FollowReq { partition, source } => {
            let source: SocketAddr = source
                .parse()
                .map_err(|_| Error::InvalidConfig(format!("bad follow source {source:?}")))?;
            match crate::tail::get_or_bootstrap(inner, partition, source) {
                Ok(unit) => {
                    start_tail(inner, &unit, source);
                    send(stream, &Frame::OkAck)?;
                }
                Err(e) => reply_err(stream, WireErrorCode::Internal, e.to_string())?,
            }
        }
        Frame::StatusReq { partition } => match get_unit(inner, partition) {
            Some(unit) => send(stream, &Frame::StatusResp(unit.status(inner.cfg.node_id)))?,
            None => reply_err(
                stream,
                WireErrorCode::Unsupported,
                format!("partition {partition} not hosted"),
            )?,
        },
        Frame::DeltaPublish { .. } => {
            reply_err(
                stream,
                WireErrorCode::Unsupported,
                "not served by replica nodes".into(),
            )?;
        }
        // Response-direction frames arriving at a server mean the peer
        // is confused; answer typed and hang up.
        other => {
            let _ = reply_err(
                stream,
                WireErrorCode::BadFrame,
                format!("unexpected frame type {}", other.frame_type()),
            );
            return Ok(false);
        }
    }
    Ok(true)
}

/// Leader-ward role flip: stop tailing, fence the gate open, leave a
/// promotion record in both the metrics and the flight recorder, and
/// persist the recorder ring next to the data it describes.
fn promote(inner: &Arc<NodeInner>, unit: &Arc<Unit>, epoch: u64, hint: u32) -> Result<u64> {
    if let Some(handle) = unit.tail.lock().unwrap().take() {
        handle.stop();
    }
    let engine = unit.engine.lock().unwrap();
    let durable = engine.next_seq();
    unit.publish_durable(durable);
    unit.gate.set_role(epoch, true, hint);
    drop(engine);
    inner.metrics.promotions.incr();
    recorder::record(
        TraceKind::Promote,
        "follower promoted to leader",
        unit.partition as u64,
        epoch,
    );
    let dump = recorder::dump_string();
    let path = unit.dir.join(format!("promote-{epoch}.trace"));
    std::fs::write(&path, dump).map_err(|e| Error::Io(e.to_string()))?;
    Ok(durable)
}

/// Follower-ward role flip — the write fence. Holding the engine lock
/// across the gate flip is what makes the returned watermark a true
/// upper bound on everything this unit ever acked (see module docs).
fn demote(inner: &Arc<NodeInner>, unit: &Arc<Unit>, epoch: u64, hint: u32) -> u64 {
    let engine = unit.engine.lock().unwrap();
    unit.gate.set_role(epoch, false, hint);
    let durable = engine.next_seq();
    unit.publish_durable(durable);
    drop(engine);
    inner.metrics.demotions.incr();
    durable
}

/// `true` for bare file names that cannot escape the unit directory.
pub(crate) fn safe_name(name: &str) -> bool {
    !name.is_empty()
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains("..")
        && name != "."
}

/// Reads up to `max_len` (capped at [`MAX_CHUNK_LEN`]) bytes of `path`
/// starting at `offset`. `Ok(None)` if the file does not exist;
/// `Some(vec![])` past end-of-file (the wire's "ends here" marker).
fn read_slice(path: &std::path::Path, offset: u64, max_len: u32) -> Result<Option<Vec<u8>>> {
    use std::io::{Seek, SeekFrom};
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::Io(e.to_string())),
    };
    let len = f.metadata().map_err(|e| Error::Io(e.to_string()))?.len();
    if offset >= len {
        return Ok(Some(Vec::new()));
    }
    f.seek(SeekFrom::Start(offset))
        .map_err(|e| Error::Io(e.to_string()))?;
    let want = ((len - offset).min(max_len as u64)).min(MAX_CHUNK_LEN as u64) as usize;
    let mut bytes = vec![0u8; want];
    let mut filled = 0;
    while filled < want {
        let n = f
            .read(&mut bytes[filled..])
            .map_err(|e| Error::Io(e.to_string()))?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    bytes.truncate(filled);
    Ok(Some(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_name_rejects_traversal() {
        assert!(safe_name("wal-00000000000000000000.wal"));
        assert!(safe_name("checkpoint-3.mgci"));
        assert!(!safe_name("../evil"));
        assert!(!safe_name("a/b"));
        assert!(!safe_name("a\\b"));
        assert!(!safe_name(""));
        assert!(!safe_name("."));
    }

    #[test]
    fn read_slice_handles_bounds() {
        let tmp = magicrecs_persist::TempDir::new("replica-read-slice");
        let p = tmp.path().join("f");
        std::fs::write(&p, b"hello world").unwrap();
        assert_eq!(read_slice(&p, 0, 5).unwrap().unwrap(), b"hello");
        assert_eq!(read_slice(&p, 6, 100).unwrap().unwrap(), b"world");
        assert_eq!(read_slice(&p, 11, 4).unwrap().unwrap(), b"");
        assert_eq!(read_slice(&p, 999, 4).unwrap().unwrap(), b"");
        assert!(read_slice(&tmp.path().join("missing"), 0, 4)
            .unwrap()
            .is_none());
    }
}
