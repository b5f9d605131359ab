//! The served workloads: a `Server` over a `ConcurrentEngine` on
//! loopback, driven by a two-thread generator (one writer, one epoll
//! reader) over one connection per server worker.
//!
//! A run has three parts after set-up:
//!
//! 1. **Fixed-rate phase** (open loop). Every [`SLOT`] the writer sends
//!    one frame per connection with the events that fell due. Delivery
//!    latency is timed from the slot's *scheduled* send time to the
//!    first `Deliver` echoing the frame's tag. A barrier per connection
//!    closes the phase; the time from the last slot's due time to the
//!    barrier acks is the drain time.
//! 2. **Saturation phase** (closed window). Each connection keeps at
//!    most [`WINDOW`] frames in flight, each followed by a barrier whose
//!    ack retires it; throughput is acked events over the phase.
//! 3. **Checks**: one registry scrape, then the correctness replay.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{FollowGraph, GraphBuilder};
use magicrecs_server::sys::{Epoll, Event, IN};
use magicrecs_server::{
    connect_per_worker, wire, AdmissionConfig, ClientConn, Frame as Wire, Server, ServerConfig,
};
use magicrecs_types::UserId;

use crate::inputs::{detector, Frame, ServedInputs, SLOT};
use crate::replay::PerTag;
use crate::stats::{window_rates, Schedule};

/// Saturation frames each connection may have in flight.
pub const WINDOW: usize = 16;

/// Saturation throughput is measured per window of this length and
/// reported as the median window, so a transient stall moves one window
/// rather than the whole figure.
pub const RATE_WINDOW: Duration = Duration::from_millis(100);

/// Barrier tags that close the two phases (per connection).
const FENCE_TAG: u64 = u64::MAX - 1;
const FINAL_TAG: u64 = u64::MAX;

/// The reader gives up after this long without a byte.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side span totals of a traced run.
#[derive(Debug, Clone, Default)]
pub struct ClientSpans {
    /// Frame encode time, ns.
    pub encode_ns: u64,
    /// Socket write time, ns.
    pub write_ns: u64,
    /// Received-frame decode time, ns.
    pub decode_ns: u64,
    /// Sampled raw spans: `(request tag, layer, start ns, end ns)`,
    /// relative to the run's start.
    pub sampled: Vec<(u64, &'static str, u64, u64)>,
}

/// Keeps one raw span in every this many requests.
const SPAN_SAMPLE: u64 = 64;

impl ClientSpans {
    fn merge(&mut self, o: ClientSpans) {
        self.encode_ns += o.encode_ns;
        self.write_ns += o.write_ns;
        self.decode_ns += o.decode_ns;
        self.sampled.extend(o.sampled);
    }
}

/// Tracing switch plus the origin raw spans are measured from.
#[derive(Clone, Copy)]
struct Tracer {
    origin: Instant,
    on: bool,
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &self,
        spans: &mut ClientSpans,
        tag: u64,
        layer: &'static str,
        a: Instant,
        b: Instant,
    ) {
        if tag.is_multiple_of(SPAN_SAMPLE) {
            spans.sampled.push((tag, layer, self.ns(a), self.ns(b)));
        }
    }
}

/// Everything one served run measured.
pub struct ServedRun {
    /// Per set-up repetition: `S` build through warm-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per set-up repetition: `S` build alone, seconds.
    pub graph_build_s: Vec<f64>,
    /// Heap bytes of `S`, MiB.
    pub graph_memory_mb: f64,
    /// Fixed-rate delivery latencies, ms (one per delivering frame),
    /// with the index of the slot the frame was sent in.
    pub latency_ms: Vec<(usize, f64)>,
    /// Fixed-rate slots in the run.
    pub slots: usize,
    /// Generator lateness per fixed-rate slot, ms.
    pub late_ms: Vec<f64>,
    /// Last slot due → fixed-phase barrier acks, ms.
    pub drain_ms: f64,
    /// Saturation throughput per [`RATE_WINDOW`], events/s.
    pub sat_rates: Vec<f64>,
    /// Events sent in both measured phases.
    pub measured_events: u64,
    /// CPU seconds over both measured phases, generator threads excluded.
    pub cpu_s: f64,
    /// Resident memory once the fixed-rate phase drained, MiB. `D` only
    /// grows within a run, so this is the serving high point of the part
    /// of the run whose work is the same on every run of a seed.
    pub peak_rss_mb: f64,
    /// Ingest frames sent (warm-up included).
    pub frames: u64,
    /// Shed, error and timed-out frames.
    pub refused: u64,
    /// Candidates delivered per tag.
    pub delivered: PerTag,
    /// Frames sent, per connection, in send order.
    pub sent: Vec<Vec<Frame>>,
    /// Registry scrapes just before the measured phases, after the
    /// fixed-rate phase, and at the end.
    pub scrape_before: Vec<(String, u64)>,
    /// See `scrape_before`.
    pub scrape_fixed: Vec<(String, u64)>,
    /// See `scrape_before`.
    pub scrape_after: Vec<(String, u64)>,
    /// Client spans (traced runs only).
    pub spans: ClientSpans,
    /// The graph the server ran on, for the replays.
    pub graph: Arc<FollowGraph>,
}

/// Builds `S` from the edge list and times it.
fn build_graph(edges: &[(UserId, UserId)]) -> (FollowGraph, f64) {
    let t = Instant::now();
    let mut b = GraphBuilder::with_capacity(edges.len());
    b.extend(edges.iter().copied());
    let g = b.build();
    (g, t.elapsed().as_secs_f64())
}

fn ingest(f: &Frame) -> Wire {
    Wire::Ingest {
        tag: f.tag,
        events: f.events.clone(),
    }
}

/// Files a received frame: deliveries into `delivered`, sheds and
/// errors into `refused`. Returns the barrier tag for barrier acks.
fn file_frame(frame: Wire, delivered: &mut PerTag, refused: &mut u64) -> Option<u64> {
    match frame {
        Wire::Deliver { tag, candidates } => {
            let d = delivered.entry(tag).or_default();
            for c in &candidates {
                d.add(c);
            }
            None
        }
        Wire::BarrierAck { tag } => Some(tag),
        Wire::Shed { .. } | Wire::Error { .. } => {
            *refused += 1;
            None
        }
        other => panic!("unexpected frame from server: {other:?}"),
    }
}

/// A started server with subscribed, warmed-up connections.
struct Live {
    server: Server,
    engine: Arc<ConcurrentEngine>,
    conns: Vec<ClientConn>,
}

/// One set-up: build `S`, start engine and server, connect one
/// subscribed connection per worker, and push the warm-up frames
/// through. Returns the live server and (build, total) seconds.
fn set_up(
    inputs: &ServedInputs,
    workers: usize,
    delivered: &mut PerTag,
    refused: &mut u64,
) -> (Live, f64, f64) {
    let t = Instant::now();
    let (graph, build_s) = build_graph(&inputs.edges);
    let engine = Arc::new(ConcurrentEngine::new(graph, detector()).expect("valid detector config"));
    let server = Server::start(
        engine.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers,
            admission: AdmissionConfig::unlimited(),
            pin_cores: true,
            checkpoint_hook: None,
        },
    )
    .expect("server starts");
    let mut conns = connect_per_worker(server.addr()).expect("connect");
    assert_eq!(conns.len(), workers, "one connection per worker");
    for c in conns.iter_mut() {
        c.send(&Wire::Subscribe).expect("subscribe");
        assert_eq!(c.recv().expect("subscribe ack"), Wire::OkAck);
    }
    for f in &inputs.warmup {
        conns[f.conn].send(&ingest(f)).expect("warm-up ingest");
    }
    for c in conns.iter_mut() {
        for frame in c.barrier(FENCE_TAG).expect("warm-up barrier") {
            file_frame(frame, delivered, refused);
        }
    }
    (
        Live {
            server,
            engine,
            conns,
        },
        build_s,
        t.elapsed().as_secs_f64(),
    )
}

/// Writer ↔ reader progress, guarded by one mutex.
#[derive(Default)]
struct Progress {
    fence_acks: usize,
    fence_at: Option<Instant>,
    /// Registry scrape taken once the fixed-rate phase drained.
    fixed_scrape: Option<Vec<(String, u64)>>,
    inflight: Vec<usize>,
    /// Saturation acks: when, and how many events the frame held.
    acks: Vec<(Instant, u32)>,
    final_acks: usize,
    aborted: bool,
}

type Shared = Arc<(Mutex<Progress>, Condvar)>;

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, Progress> {
    shared.0.lock().expect("generator thread panicked")
}

/// What the reader thread hands back.
struct ReaderOut {
    delivered: PerTag,
    latency_ms: Vec<(usize, f64)>,
    refused: u64,
    spans: ClientSpans,
    /// CPU seconds this thread used.
    cpu_s: f64,
}

/// Tag ranges of the run's phases.
#[derive(Clone, Copy)]
struct Tags {
    fixed_lo: u64,
    fixed_hi: u64,
    sat_lo: u64,
}

/// The reader: one epoll over every connection's read half. Files
/// deliveries, times fixed-phase frames against their schedule, and
/// retires barrier acks into the shared progress.
#[allow(clippy::too_many_arguments)]
fn reader(
    mut socks: Vec<(TcpStream, Vec<u8>)>,
    sched: Schedule,
    slot_of: Vec<u32>,
    sat_len: Vec<u32>,
    tags: Tags,
    shared: Shared,
    tracer: Tracer,
) -> ReaderOut {
    let cpu0 = crate::host::thread_cpu_seconds();
    let conns = socks.len();
    let ep = Epoll::new().expect("epoll");
    for (i, (s, _)) in socks.iter().enumerate() {
        ep.add(s.as_raw_fd(), i as u64, IN).expect("epoll add");
    }
    let mut out = ReaderOut {
        delivered: PerTag::default(),
        latency_ms: Vec::new(),
        refused: 0,
        spans: ClientSpans::default(),
        cpu_s: 0.0,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut last_byte = Instant::now();
    let mut pending: Vec<usize> = (0..conns).collect();
    loop {
        // Frames already buffered (the warm-up leftovers on entry).
        for c in pending.drain(..) {
            let buf = &mut socks[c].1;
            loop {
                let t0 = Instant::now();
                let Some((frame, used)) = wire::decode(buf).expect("server sent a corrupt frame")
                else {
                    break;
                };
                let t1 = Instant::now();
                buf.drain(..used);
                if let Wire::Deliver { tag, .. } = &frame {
                    if tracer.on {
                        out.spans.decode_ns += (t1 - t0).as_nanos() as u64;
                        tracer.record(&mut out.spans, *tag, "gen.decode", t0, t1);
                    }
                    if (tags.fixed_lo..tags.fixed_hi).contains(tag)
                        && !out.delivered.contains_key(tag)
                    {
                        let slot = slot_of[(tag - tags.fixed_lo) as usize] as usize;
                        out.latency_ms
                            .push((slot, sched.latency(slot, t0).as_secs_f64() * 1e3));
                    }
                }
                if let Wire::MetricsResp { metrics } = frame {
                    lock(&shared).fixed_scrape = Some(metrics);
                    shared.1.notify_all();
                    continue;
                }
                let Some(btag) = file_frame(frame, &mut out.delivered, &mut out.refused) else {
                    continue;
                };
                let mut p = lock(&shared);
                match btag {
                    FENCE_TAG => {
                        p.fence_acks += 1;
                        if p.fence_acks == conns {
                            p.fence_at = Some(t1);
                        }
                    }
                    FINAL_TAG => p.final_acks += 1,
                    t => {
                        p.inflight[c] -= 1;
                        p.acks.push((t1, sat_len[(t - tags.sat_lo) as usize]));
                    }
                }
                shared.1.notify_all();
            }
        }
        if lock(&shared).final_acks == conns {
            out.cpu_s = crate::host::thread_cpu_seconds() - cpu0;
            return out;
        }
        if last_byte.elapsed() > STALL_TIMEOUT {
            out.refused += 1;
            let mut p = lock(&shared);
            p.aborted = true;
            shared.1.notify_all();
            out.cpu_s = crate::host::thread_cpu_seconds() - cpu0;
            return out;
        }
        events.clear();
        ep.wait(&mut events, 50).expect("epoll wait");
        for ev in &events {
            let c = ev.token as usize;
            // Level-triggered readiness: one read cannot block.
            match socks[c].0.read(&mut chunk) {
                Ok(0) => panic!("server closed connection {c} mid-run"),
                Ok(n) => {
                    socks[c].1.extend_from_slice(&chunk[..n]);
                    last_byte = Instant::now();
                    pending.push(c);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }
}

/// Encodes and writes one ingest frame (plus an optional barrier with
/// the same tag), recording spans when tracing.
fn send(
    sock: &mut TcpStream,
    f: &mut Frame,
    barrier: bool,
    buf: &mut Vec<u8>,
    spans: &mut ClientSpans,
    tracer: Tracer,
) {
    let t0 = Instant::now();
    buf.clear();
    let frame = Wire::Ingest {
        tag: f.tag,
        events: std::mem::take(&mut f.events),
    };
    wire::encode_into(&frame, buf);
    if let Wire::Ingest { events, .. } = frame {
        f.events = events;
    }
    if barrier {
        wire::encode_into(&Wire::Barrier { tag: f.tag }, buf);
    }
    let t1 = Instant::now();
    sock.write_all(buf).expect("ingest write");
    if tracer.on {
        let t2 = Instant::now();
        spans.encode_ns += (t1 - t0).as_nanos() as u64;
        spans.write_ns += (t2 - t1).as_nanos() as u64;
        tracer.record(spans, f.tag, "gen.encode", t0, t1);
        tracer.record(spans, f.tag, "gen.write", t1, t2);
    }
}

fn write_barrier(sock: &mut TcpStream, tag: u64) {
    sock.write_all(&wire::encode(&Wire::Barrier { tag }))
        .expect("barrier write");
}

/// What the writer thread hands back.
struct WriterOut {
    slots: Vec<Vec<Frame>>,
    saturation: Vec<Vec<Frame>>,
    sat_sent: Vec<usize>,
    late_ms: Vec<f64>,
    sat_start: Instant,
    spans: ClientSpans,
    /// Resident memory when the fixed-rate phase had drained, MiB.
    rss_mb: f64,
    /// CPU seconds this thread used.
    cpu_s: f64,
}

/// The writer: paces the fixed-rate slots, then keeps the saturation
/// window full until `sat_for` has passed.
fn writer(
    mut socks: Vec<TcpStream>,
    mut slots: Vec<Vec<Frame>>,
    mut saturation: Vec<Vec<Frame>>,
    sched: Schedule,
    sat_for: Duration,
    shared: Shared,
    tracer: Tracer,
) -> WriterOut {
    let cpu0 = crate::host::thread_cpu_seconds();
    let conns = socks.len();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut spans = ClientSpans::default();
    let mut late_ms = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        late_ms.push(sched.wait_for(i).as_secs_f64() * 1e3);
        for f in slot.iter_mut() {
            send(&mut socks[f.conn], f, false, &mut buf, &mut spans, tracer);
        }
    }
    for s in socks.iter_mut() {
        write_barrier(s, FENCE_TAG);
    }
    {
        let mut p = lock(&shared);
        while p.fence_acks < conns && !p.aborted {
            p = shared.1.wait(p).expect("generator thread panicked");
        }
    }
    // One scrape closes the fixed-rate phase, so its stage histograms
    // describe the same batches the delivery latencies do.
    socks[0]
        .write_all(&wire::encode(&Wire::MetricsReq))
        .expect("metrics request");
    {
        let mut p = lock(&shared);
        while p.fixed_scrape.is_none() && !p.aborted {
            p = shared.1.wait(p).expect("generator thread panicked");
        }
    }
    // Memory is read after the fixed-rate phase, whose work is the same
    // on every run of a seed; the saturation phase's volume is not.
    let rss_mb = crate::host::rss_mb();

    let sat_start = Instant::now();
    let deadline = sat_start + sat_for;
    let mut sent = vec![0usize; conns];
    'fill: while Instant::now() < deadline {
        let mut progressed = false;
        for c in 0..conns {
            while sent[c] < saturation[c].len() {
                {
                    let mut p = lock(&shared);
                    if p.aborted {
                        break 'fill;
                    }
                    if p.inflight[c] >= WINDOW {
                        break;
                    }
                    p.inflight[c] += 1;
                }
                let f = &mut saturation[c][sent[c]];
                send(&mut socks[c], f, true, &mut buf, &mut spans, tracer);
                sent[c] += 1;
                progressed = true;
            }
        }
        if (0..conns).all(|c| sent[c] == saturation[c].len()) {
            break;
        }
        if !progressed {
            // Every connection is at its window or out of frames: sleep
            // until an ack retires one (or briefly, to re-check the
            // deadline).
            let p = lock(&shared);
            if !p.aborted {
                let _ = shared
                    .1
                    .wait_timeout(p, Duration::from_millis(2))
                    .expect("generator thread panicked");
            }
        }
    }
    {
        let mut p = lock(&shared);
        while p.inflight.iter().any(|&n| n > 0) && !p.aborted {
            p = shared.1.wait(p).expect("generator thread panicked");
        }
    }
    for s in socks.iter_mut() {
        write_barrier(s, FINAL_TAG);
    }
    WriterOut {
        slots,
        saturation,
        sat_sent: sent,
        late_ms,
        sat_start,
        spans,
        rss_mb,
        cpu_s: crate::host::thread_cpu_seconds() - cpu0,
    }
}

/// Runs one served workload: `reps` set-ups (the last one is kept),
/// then the fixed-rate and saturation phases.
pub fn run(inputs: ServedInputs, seconds: f64, reps: usize, traced: bool) -> ServedRun {
    let workers = crate::host::nproc();
    let mut delivered = PerTag::default();
    let mut refused = 0u64;
    let mut setup_s = Vec::with_capacity(reps);
    let mut graph_build_s = Vec::with_capacity(reps);
    let mut live = None;
    for rep in 0..reps {
        // Only the kept set-up's warm-up deliveries are checked.
        delivered.clear();
        refused = 0;
        let (l, build, total) = set_up(&inputs, workers, &mut delivered, &mut refused);
        graph_build_s.push(build);
        setup_s.push(total);
        if rep + 1 < reps {
            l.server.shutdown();
        } else {
            live = Some(l);
        }
    }
    let Live {
        server,
        engine,
        mut conns,
    } = live.expect("at least one set-up");
    let addr = server.addr();
    let graph = engine.graph();
    let graph_memory_mb = graph.memory_bytes() as f64 / (1 << 20) as f64;
    let scrape_before = conns[0].fetch_metrics().expect("metrics scrape");

    let ServedInputs {
        warmup,
        slots,
        saturation,
        ..
    } = inputs;
    let tags = Tags {
        fixed_lo: slots.iter().flatten().map(|f| f.tag).min().unwrap_or(0),
        fixed_hi: slots.iter().flatten().map(|f| f.tag + 1).max().unwrap_or(0),
        sat_lo: saturation
            .iter()
            .flatten()
            .map(|f| f.tag)
            .min()
            .unwrap_or(0),
    };
    let mut slot_of = vec![u32::MAX; (tags.fixed_hi - tags.fixed_lo) as usize];
    for (i, slot) in slots.iter().enumerate() {
        for f in slot {
            slot_of[(f.tag - tags.fixed_lo) as usize] = i as u32;
        }
    }
    let sat_hi = saturation
        .iter()
        .flatten()
        .map(|f| f.tag + 1)
        .max()
        .unwrap_or(tags.sat_lo);
    let mut sat_len = vec![0u32; (sat_hi - tags.sat_lo) as usize];
    for f in saturation.iter().flatten() {
        sat_len[(f.tag - tags.sat_lo) as usize] = f.events.len() as u32;
    }
    let fixed_events: u64 = slots.iter().flatten().map(|f| f.events.len() as u64).sum();

    let mut reads = Vec::with_capacity(workers);
    let mut writes = Vec::with_capacity(workers);
    for c in conns.drain(..) {
        let (r, w, leftover) = c.split().expect("split connection");
        reads.push((r, leftover));
        writes.push(w);
    }
    let shared: Shared = Arc::new((
        Mutex::new(Progress {
            inflight: vec![0; workers],
            ..Progress::default()
        }),
        Condvar::new(),
    ));
    let origin = Instant::now();
    let tracer = Tracer { origin, on: traced };
    // Slot i is due one slot after the phase starts, plus i slots.
    let sched = Schedule {
        start: origin + Duration::from_millis(20) + SLOT,
        interval: SLOT,
    };
    let n_slots = slots.len();
    let last_due = sched.due(n_slots.saturating_sub(1));
    let sat_for = Duration::from_secs_f64(seconds * (1.0 - crate::inputs::FIXED_SHARE));
    let cpu0 = crate::host::cpu_seconds();
    let (w_out, r_out) = std::thread::scope(|s| {
        let rs = shared.clone();
        let r = s.spawn(move || reader(reads, sched, slot_of, sat_len, tags, rs, tracer));
        let ws = shared.clone();
        let w = s.spawn(move || writer(writes, slots, saturation, sched, sat_for, ws, tracer));
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    // The system's CPU: the whole process minus the generator threads.
    let cpu_s = crate::host::cpu_seconds() - cpu0 - w_out.cpu_s - r_out.cpu_s;
    let peak_rss_mb = w_out.rss_mb;

    let mut progress = lock(&shared);
    let drain_ms = progress.fence_at.map_or(0.0, |t| {
        t.saturating_duration_since(last_due).as_secs_f64() * 1e3
    });
    let sat_events: u64 = progress.acks.iter().map(|&(_, n)| n as u64).sum();
    let sat_end = progress.acks.last().map_or(w_out.sat_start, |&(t, _)| t);
    let sat_rates = window_rates(w_out.sat_start, sat_end, &progress.acks, RATE_WINDOW);
    let scrape_fixed = progress.fixed_scrape.take().unwrap_or_default();
    drop(progress);

    let mut control = ClientConn::connect(addr, None).expect("control connection");
    let scrape_after = control.fetch_metrics().expect("metrics scrape");
    drop(control);
    server.shutdown();

    delivered.extend(r_out.delivered);
    // Frames in send order per connection: warm-up, fixed, saturation.
    let mut sent: Vec<Vec<Frame>> = vec![Vec::new(); workers];
    for f in warmup {
        sent[f.conn].push(f);
    }
    for f in w_out.slots.into_iter().flatten() {
        sent[f.conn].push(f);
    }
    for (c, frames) in w_out.saturation.into_iter().enumerate() {
        sent[c].extend(frames.into_iter().take(w_out.sat_sent[c]));
    }
    let frames = sent.iter().map(|s| s.len() as u64).sum();
    let mut spans = w_out.spans;
    spans.merge(r_out.spans);

    ServedRun {
        setup_s,
        graph_build_s,
        graph_memory_mb,
        latency_ms: r_out.latency_ms,
        slots: n_slots,
        late_ms: w_out.late_ms,
        drain_ms,
        sat_rates,
        measured_events: fixed_events + sat_events,
        cpu_s,
        peak_rss_mb,
        frames,
        refused: refused + r_out.refused,
        delivered,
        sent,
        scrape_before,
        scrape_fixed,
        scrape_after,
        spans,
        graph,
    }
}

/// Candidates the run delivered, in total.
pub fn delivered_count(delivered: &PerTag) -> u64 {
    delivered.values().map(|d| d.count).sum()
}
