//! The server: one acceptor + N share-nothing epoll workers over a
//! shared [`ConcurrentEngine`].
//!
//! The acceptor owns the listening socket, reads each connection's
//! [`Frame::Hello`], and hands the socket to the requested worker (or
//! round-robin). From then on the connection lives entirely on that
//! worker's thread: its reads, detection calls, and deliveries never
//! cross cores except through the engine's already-sharded `D` — the
//! share-nothing seam the cluster transport established in PR 2.
//!
//! Each worker runs a level-triggered epoll loop over its socket set
//! plus one eventfd (socket handoff + shutdown wake-ups), optionally
//! pinned to its core ([`sys::pin_to_core`], best-effort). Ingest
//! frames feed [`ConcurrentEngine::on_events_into`] — the PR 5
//! micro-batch fast path — after passing admission
//! ([`crate::admission`]); candidates fan out to the worker's
//! subscribed connections as [`Frame::Deliver`] frames echoing the
//! ingest tag.

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::sys;
use crate::wire::{self, Frame, ShedCode, WireErrorCode};
use magicrecs_core::ConcurrentEngine;
use magicrecs_obs as obs;
use magicrecs_obs::stage::Stage;
use magicrecs_obs::TraceKind;
use magicrecs_types::{Error, Result};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Callback invoked on [`Frame::CheckpointReq`]. Injected so the server
/// stays independent of the persistence crate: a durable deployment
/// passes a closure over its `PersistentConcurrentEngine`; a volatile
/// one passes `None` and the request earns a typed
/// [`WireErrorCode::Unsupported`].
pub type CheckpointHook = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// Server construction knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker (and target core) count. Zero = one per available core.
    pub workers: usize,
    /// Ingress admission knobs.
    pub admission: AdmissionConfig,
    /// Pin worker `i` to core `i` (best-effort; ignored where the
    /// container forbids affinity).
    pub pin_cores: bool,
    /// Checkpoint trigger, if the engine is durable.
    pub checkpoint_hook: Option<CheckpointHook>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("admission", &self.admission)
            .field("pin_cores", &self.pin_cores)
            .field("checkpoint_hook", &self.checkpoint_hook.is_some())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            admission: AdmissionConfig::default(),
            pin_cores: true,
            checkpoint_hook: None,
        }
    }
}

/// Server-side metrics that live outside the engine's detection path.
/// Registered on the **engine's** registry (not the global one) so one
/// `MetricsResp` scrape of the engine covers the whole serving
/// component.
struct ServingCounters {
    dropped_deliveries: obs::Counter,
    connections: obs::Gauge,
    frames_ingest: obs::Counter,
    frames_control: obs::Counter,
}

impl ServingCounters {
    fn on(registry: &obs::Registry) -> ServingCounters {
        ServingCounters {
            dropped_deliveries: registry.counter("server_dropped_deliveries"),
            connections: registry.gauge("server_connections"),
            frames_ingest: registry.counter("server_frames_ingest"),
            frames_control: registry.counter("server_frames_control"),
        }
    }
}

/// A socket handed from the acceptor to a worker, with any bytes the
/// client pipelined behind its Hello.
struct Handoff {
    queue: Mutex<Vec<(TcpStream, Vec<u8>)>>,
    wake: sys::EventFd,
}

/// Eventfd token in each worker's epoll (connection slots use their
/// index, which stays far below this).
const WAKE_TOKEN: u64 = u64::MAX;

/// One worker-owned connection.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_off: usize,
    subscribed: bool,
    bucket: TokenBucket,
    wants_out: bool,
    /// Peer closed or errored: deregister at the end of the cycle.
    dead: bool,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// worker threads until process exit; call shutdown for a clean join.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_wake: Arc<sys::EventFd>,
    handoffs: Vec<Arc<Handoff>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// the acceptor plus `cfg.workers` workers over `engine`.
    pub fn start(
        engine: Arc<ConcurrentEngine>,
        bind_addr: &str,
        cfg: ServerConfig,
    ) -> Result<Server> {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let listener = TcpListener::bind(bind_addr).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;

        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServingCounters::on(engine.registry()));
        let mut handoffs = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers + 1);

        for w in 0..workers {
            let handoff = Arc::new(Handoff {
                queue: Mutex::new(Vec::new()),
                wake: sys::EventFd::new().map_err(io_err)?,
            });
            handoffs.push(handoff.clone());
            let worker = Worker {
                id: w as u32,
                num_workers: workers as u32,
                engine: engine.clone(),
                cfg: cfg.clone(),
                stop: stop.clone(),
                counters: counters.clone(),
                handoff,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mr-worker-{w}"))
                    .spawn(move || worker.run())
                    .map_err(io_err)?,
            );
        }

        let accept_wake = Arc::new(sys::EventFd::new().map_err(io_err)?);
        {
            let stop = stop.clone();
            let wake = accept_wake.clone();
            let handoffs = handoffs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("mr-acceptor".into())
                    .spawn(move || acceptor_loop(listener, wake, handoffs, stop))
                    .map_err(io_err)?,
            );
        }

        Ok(Server {
            addr,
            stop,
            accept_wake,
            handoffs,
            threads,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and workers and joins their threads. Open
    /// connections are closed without a goodbye frame.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.accept_wake.notify();
        for h in &self.handoffs {
            h.wake.notify();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(format!("server: {e}"))
}

/// Accept loop: wait on {listener, wake eventfd}; for each connection
/// read the Hello (bounded by a read timeout so a stalled peer cannot
/// block accepts for long) and hand the socket to its worker.
fn acceptor_loop(
    listener: TcpListener,
    wake: Arc<sys::EventFd>,
    handoffs: Vec<Arc<Handoff>>,
    stop: Arc<AtomicBool>,
) {
    let Ok(ep) = sys::Epoll::new() else { return };
    if ep.add(listener.as_raw_fd(), 0, sys::IN).is_err() {
        return;
    }
    if ep.add(wake.raw(), WAKE_TOKEN, sys::IN).is_err() {
        return;
    }
    let mut rr = 0usize;
    let mut events = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        if ep.wait(&mut events, -1).is_err() {
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for _ in 0..events.len() {
            // Accept everything ready; nonblocking accept drains.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Some((worker, stream, leftover)) =
                            handshake(stream, handoffs.len(), &mut rr)
                        {
                            let h = &handoffs[worker];
                            h.queue.lock().unwrap().push((stream, leftover));
                            h.wake.notify();
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        wake.drain();
    }
}

/// Reads the client's Hello frame (with a timeout) and picks its
/// worker. Returns `None` to drop the connection (timeout, garbage, or
/// a non-Hello first frame).
fn handshake(
    stream: TcpStream,
    workers: usize,
    rr: &mut usize,
) -> Option<(usize, TcpStream, Vec<u8>)> {
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(2000)))
        .ok()?;
    let mut buf = Vec::with_capacity(64);
    let mut chunk = [0u8; 4096];
    let mut stream = stream;
    loop {
        match wire::decode(&buf) {
            Ok(Some((Frame::Hello { preferred_worker }, used))) => {
                let leftover = buf.split_off(used);
                let worker = if (preferred_worker as usize) < workers {
                    preferred_worker as usize
                } else {
                    *rr = (*rr + 1) % workers;
                    *rr
                };
                stream.set_read_timeout(None).ok()?;
                return Some((worker, stream, leftover));
            }
            Ok(Some(_)) | Err(_) => return None, // first frame must be Hello
            Ok(None) => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None, // includes the handshake timeout
        }
        if buf.len() > 4096 {
            return None; // a Hello is tens of bytes; this is garbage
        }
    }
}

struct Worker {
    id: u32,
    num_workers: u32,
    engine: Arc<ConcurrentEngine>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    counters: Arc<ServingCounters>,
    handoff: Arc<Handoff>,
}

impl Worker {
    fn run(self) {
        if self.cfg.pin_cores {
            // Best-effort; a refusal (cgroup limits, 1-core box) is fine.
            let _ = sys::pin_to_core(self.id as usize);
        }
        let Ok(ep) = sys::Epoll::new() else { return };
        if ep
            .add(self.handoff.wake.raw(), WAKE_TOKEN, sys::IN)
            .is_err()
        {
            return;
        }

        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut events = Vec::new();
        let mut scratch = Vec::new(); // candidate buffer reused per batch

        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            if ep.wait(&mut events, -1).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Per-cycle admission budget (see crate::admission).
            let mut cycle_events = 0usize;
            let mut dead: Vec<usize> = Vec::new();

            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.handoff.wake.drain();
                    self.adopt(&ep, &mut conns, &mut free, &mut cycle_events, &mut scratch);
                    continue;
                }
                let idx = ev.token as usize;
                {
                    let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                        continue;
                    };
                    if ev.events & (sys::ERR | sys::HUP) != 0 {
                        conn.dead = true;
                    }
                    if !conn.dead && ev.events & sys::OUT != 0 {
                        let _ = flush(conn);
                    }
                }
                let alive = conns[idx].as_ref().is_some_and(|c| !c.dead);
                if alive && ev.events & (sys::IN | sys::RDHUP) != 0 {
                    self.read_and_process(idx, &mut conns, &mut cycle_events, &mut scratch);
                }
                match conns[idx].as_mut() {
                    Some(conn) if conn.dead => dead.push(idx),
                    Some(conn) => sync_out_interest(&ep, idx, conn),
                    None => {}
                }
            }

            dead.sort_unstable();
            dead.dedup();
            for idx in dead {
                if let Some(conn) = conns[idx].take() {
                    let _ = ep.del(conn.stream.as_raw_fd());
                    self.counters.connections.sub(1);
                    free.push(idx);
                }
            }
        }
    }

    /// Adopts handed-off sockets: nonblocking, registered, greeted.
    fn adopt(
        &self,
        ep: &sys::Epoll,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        cycle_events: &mut usize,
        scratch: &mut Vec<magicrecs_types::Candidate>,
    ) {
        let pending: Vec<(TcpStream, Vec<u8>)> =
            std::mem::take(&mut *self.handoff.queue.lock().unwrap());
        for (stream, leftover) in pending {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let now = Instant::now();
            let mut conn = Conn {
                stream,
                read_buf: leftover,
                write_buf: Vec::new(),
                write_off: 0,
                subscribed: false,
                bucket: TokenBucket::new(
                    self.cfg.admission.source_rate,
                    self.cfg.admission.source_burst,
                    now,
                ),
                wants_out: false,
                dead: false,
            };
            self.enqueue(
                &mut conn,
                &Frame::HelloAck {
                    worker_id: self.id,
                    num_workers: self.num_workers,
                },
            );
            let _ = flush(&mut conn);
            let idx = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            if ep
                .add(conn.stream.as_raw_fd(), idx as u64, sys::IN | sys::RDHUP)
                .is_err()
            {
                free.push(idx);
                continue;
            }
            self.counters.connections.add(1);
            conns[idx] = Some(conn);
            // A pipelining client may have written frames right behind
            // its Hello; the handshake read carried them here as
            // leftover, and the socket may never signal readable again
            // on their account — drain them now, not on the next read.
            if !conns[idx].as_ref().expect("just set").read_buf.is_empty() {
                self.drain_frames(idx, conns, cycle_events, scratch);
            }
            if conns[idx].as_ref().is_some_and(|c| c.dead) {
                if let Some(conn) = conns[idx].take() {
                    let _ = ep.del(conn.stream.as_raw_fd());
                    self.counters.connections.sub(1);
                    free.push(idx);
                }
            } else if let Some(conn) = conns[idx].as_mut() {
                sync_out_interest(ep, idx, conn);
            }
        }
    }

    /// Drains the socket's readable bytes and processes every complete
    /// frame. Candidates fan out to the worker's subscribers, which is
    /// why this takes the whole slot table, not one connection.
    fn read_and_process(
        &self,
        idx: usize,
        conns: &mut [Option<Conn>],
        cycle_events: &mut usize,
        scratch: &mut Vec<magicrecs_types::Candidate>,
    ) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let conn = conns[idx].as_mut().expect("caller checked slot");
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if conn.read_buf.len() > self.cfg.admission.max_read_buf {
                        self.enqueue(
                            conn,
                            &Frame::Error {
                                code: WireErrorCode::BadFrame,
                                detail: "read buffer cap exceeded".into(),
                            },
                        );
                        let _ = flush(conn);
                        conn.dead = true;
                        break;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
            // Decode/process after each read so a pipelining peer gets
            // responses without waiting for its stream to go idle.
            self.drain_frames(idx, conns, cycle_events, scratch);
            if conns[idx].as_ref().expect("slot").dead {
                break;
            }
        }
        self.drain_frames(idx, conns, cycle_events, scratch);
    }

    fn drain_frames(
        &self,
        idx: usize,
        conns: &mut [Option<Conn>],
        cycle_events: &mut usize,
        scratch: &mut Vec<magicrecs_types::Candidate>,
    ) {
        loop {
            let conn = conns[idx].as_mut().expect("caller checked slot");
            if conn.dead {
                return;
            }
            match wire::decode(&conn.read_buf) {
                Ok(None) => return,
                Ok(Some((frame, used))) => {
                    conn.read_buf.drain(..used);
                    self.handle(idx, conns, frame, cycle_events, scratch);
                }
                Err(e) => {
                    self.enqueue(
                        conn,
                        &Frame::Error {
                            code: WireErrorCode::BadFrame,
                            detail: format!("{e:?}"),
                        },
                    );
                    let _ = flush(conn);
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    fn handle(
        &self,
        idx: usize,
        conns: &mut [Option<Conn>],
        frame: Frame,
        cycle_events: &mut usize,
        scratch: &mut Vec<magicrecs_types::Candidate>,
    ) {
        match frame {
            Frame::Ingest { tag, events } => {
                // Stage decomposition: one stamp at receipt, then elapsed
                // µs recorded at each boundary the batch crosses. Only
                // admitted batches record, so the per-stage sums account
                // for the same traffic as the end-to-end histogram.
                let t0 = Instant::now();
                let stages = obs::global_stages();
                self.counters.frames_ingest.incr();
                let n = events.len() as u64;
                let conn = conns[idx].as_mut().expect("slot");
                // Gate 1: the source's token bucket.
                if let Err(retry_after_us) = conn.bucket.try_take(n, Instant::now()) {
                    self.engine.note_shed(n);
                    obs::recorder::record(TraceKind::Shed, "token_bucket", n, retry_after_us);
                    self.enqueue(
                        conn,
                        &Frame::Shed {
                            tag,
                            code: ShedCode::RateLimited,
                            retry_after_us,
                        },
                    );
                    return;
                }
                // Gate 2: the worker's per-cycle budget.
                if cycle_events.saturating_add(events.len()) > self.cfg.admission.cycle_budget {
                    self.engine.note_shed(n);
                    obs::recorder::record(
                        TraceKind::Shed,
                        "cycle_budget",
                        *cycle_events as u64,
                        self.cfg.admission.cycle_budget as u64,
                    );
                    self.enqueue(
                        conn,
                        &Frame::Shed {
                            tag,
                            code: ShedCode::Overloaded,
                            retry_after_us: 1_000,
                        },
                    );
                    return;
                }
                *cycle_events += events.len();
                self.engine.note_queue_depth(*cycle_events as u64);
                stages.record_since(Stage::Admission, t0);
                scratch.clear();
                let t_detect = Instant::now();
                self.engine.on_events_into(&events, scratch);
                stages.record_since(Stage::Detect, t_detect);
                self.engine.note_accepted(n);
                let t_deliver = Instant::now();
                if !scratch.is_empty() {
                    // A hot event can emit more candidates than fit one
                    // frame (1 MiB); chunk so every Deliver stays well
                    // under the cap (worst-case candidate ≈ 659 bytes at
                    // the 64-witness cap).
                    let all = std::mem::take(scratch);
                    for chunk in all.chunks(wire::MAX_DELIVER_CANDIDATES) {
                        let bytes = wire::encode(&Frame::Deliver {
                            tag,
                            candidates: chunk.to_vec(),
                        });
                        for slot in conns.iter_mut() {
                            if let Some(c) = slot.as_mut() {
                                if c.subscribed && !c.dead {
                                    self.enqueue_bytes(c, &bytes, true);
                                }
                            }
                        }
                    }
                }
                stages.record_since(Stage::Deliver, t_deliver);
                stages.record_since(Stage::EndToEnd, t0);
            }
            Frame::Subscribe => {
                self.counters.frames_control.incr();
                let conn = conns[idx].as_mut().expect("slot");
                conn.subscribed = true;
                self.enqueue(conn, &Frame::OkAck);
            }
            Frame::Barrier { tag } => {
                self.counters.frames_control.incr();
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(conn, &Frame::BarrierAck { tag });
            }
            Frame::MetricsReq => {
                // Full scrape: the engine's registry (which carries the
                // serving counters and the store gauges) plus the
                // process-global one (stage histograms, WAL internals).
                // Names are prefix-disjoint, so concatenation is safe.
                self.counters.frames_control.incr();
                let mut snap = self.engine.scrape();
                snap.extend(obs::global().snapshot());
                let metrics = obs::export::flatten(&snap);
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(conn, &Frame::MetricsResp { metrics });
            }
            Frame::DeltaPublish { bytes } => {
                self.counters.frames_control.incr();
                let result = magicrecs_graph::load_delta(&mut bytes.as_slice())
                    .and_then(|delta| self.engine.swap_graph_delta(&delta).map(|_| ()));
                let reply = match result {
                    Ok(()) => Frame::OkAck,
                    Err(e) => Frame::Error {
                        code: WireErrorCode::Internal,
                        detail: format!("{e:?}"),
                    },
                };
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(conn, &reply);
            }
            Frame::CheckpointReq => {
                self.counters.frames_control.incr();
                let reply = match &self.cfg.checkpoint_hook {
                    None => Frame::Error {
                        code: WireErrorCode::Unsupported,
                        detail: "volatile engine: no checkpoint hook".into(),
                    },
                    Some(hook) => match hook() {
                        Ok(()) => Frame::OkAck,
                        Err(e) => Frame::Error {
                            code: WireErrorCode::Internal,
                            detail: format!("{e:?}"),
                        },
                    },
                };
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(conn, &reply);
            }
            // Replication control frames belong to replica nodes; this
            // single-node tier answers them typed (the peer may be a
            // probing coordinator) and keeps the connection alive.
            Frame::RouteBind { .. }
            | Frame::SegmentsReq { .. }
            | Frame::SegmentFetch { .. }
            | Frame::RoleChange { .. }
            | Frame::StateListReq { .. }
            | Frame::StateFetch { .. }
            | Frame::FollowReq { .. }
            | Frame::StatusReq { .. } => {
                self.counters.frames_control.incr();
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(
                    conn,
                    &Frame::Error {
                        code: WireErrorCode::Unsupported,
                        detail: "replication frames require a replica node".into(),
                    },
                );
            }
            // Server-to-client frames arriving here mean a confused
            // peer; refuse and close.
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Deliver { .. }
            | Frame::Shed { .. }
            | Frame::MetricsResp { .. }
            | Frame::OkAck
            | Frame::BarrierAck { .. }
            | Frame::Error { .. }
            | Frame::IngestAck { .. }
            | Frame::WrongLeader { .. }
            | Frame::SegmentsResp { .. }
            | Frame::SegmentChunk { .. }
            | Frame::RoleChangeAck { .. }
            | Frame::StateListResp { .. }
            | Frame::StateChunk { .. }
            | Frame::StatusResp(_) => {
                let conn = conns[idx].as_mut().expect("slot");
                self.enqueue(
                    conn,
                    &Frame::Error {
                        code: WireErrorCode::BadFrame,
                        detail: "unexpected frame direction".into(),
                    },
                );
                let _ = flush(conn);
                conn.dead = true;
            }
        }
    }

    fn enqueue(&self, conn: &mut Conn, frame: &Frame) {
        let bytes = wire::encode(frame);
        self.enqueue_bytes(conn, &bytes, false);
    }

    /// Appends `bytes` to the connection's write queue, honoring the
    /// slow-consumer cap: a full queue drops *deliveries* (counted) but
    /// never control replies (`droppable = false`), which are small and
    /// bounded per request.
    fn enqueue_bytes(&self, conn: &mut Conn, bytes: &[u8], droppable: bool) {
        let queued = conn.write_buf.len() - conn.write_off;
        if droppable && queued + bytes.len() > self.cfg.admission.max_write_queue {
            self.counters.dropped_deliveries.incr();
            return;
        }
        conn.write_buf.extend_from_slice(bytes);
        let _ = flush(conn);
    }
}

/// Writes as much queued output as the socket accepts.
fn flush(conn: &mut Conn) -> std::io::Result<()> {
    while conn.write_off < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_off..]) {
            Ok(0) => {
                conn.dead = true;
                return Ok(());
            }
            Ok(n) => conn.write_off += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                conn.dead = true;
                return Err(e);
            }
        }
    }
    if conn.write_off == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_off = 0;
    } else if conn.write_off > 64 * 1024 {
        conn.write_buf.drain(..conn.write_off);
        conn.write_off = 0;
    }
    Ok(())
}

/// Keeps EPOLLOUT interest in sync with whether output is queued, so a
/// writable-but-idle socket does not spin the level-triggered loop.
fn sync_out_interest(ep: &sys::Epoll, idx: usize, conn: &mut Conn) {
    let has_backlog = conn.write_off < conn.write_buf.len();
    if has_backlog && !conn.wants_out {
        if ep
            .modify(
                conn.stream.as_raw_fd(),
                idx as u64,
                sys::IN | sys::RDHUP | sys::OUT,
            )
            .is_ok()
        {
            conn.wants_out = true;
        }
    } else if !has_backlog
        && conn.wants_out
        && ep
            .modify(conn.stream.as_raw_fd(), idx as u64, sys::IN | sys::RDHUP)
            .is_ok()
    {
        conn.wants_out = false;
    }
}
