//! Serving-tier load generator: drives millions of simulated users over
//! loopback TCP against a [`magicrecs_server::Server`] and records
//! end-to-end delivery latency, sustained throughput, and shed behavior
//! into `BENCH_hotpath.json` (merge-don't-clobber, same recorder as
//! `hotpath`).
//!
//! Usage:
//!   cargo run -p magicrecs-bench --release --bin loadgen
//!   cargo run -p magicrecs-bench --release --bin loadgen -- --smoke
//!       # CI: small fixture, asserts the pipeline end-to-end, no JSON
//!   cargo run -p magicrecs-bench --release --bin loadgen -- \
//!       --users 4000000 --events 2000000 --out /tmp/b.json
//!   cargo run -p magicrecs-bench --release --bin loadgen -- \
//!       --metrics-out /tmp/metrics.json   # full registry scrape, merged
//!
//! Every run also scrapes the server's metrics registry over the wire
//! (`MetricsReq`) and prints a per-stage latency decomposition —
//! admission, detect, deliver, end-to-end, plus the queue-wait estimate
//! (client-observed delivery mean minus server-side work mean). With
//! `--metrics-out` the whole flattened scrape merges into the given
//! JSON file (same merge-don't-clobber recorder as `--out`).
//!
//! Two phases:
//!
//! 1. **Saturation** — unlimited admission, open-loop: every event is
//!    pre-routed (`route_mix(dst) % workers`, one connection per worker,
//!    the parity-test routing) and sent as fast as the sockets accept in
//!    `--batch`-event ingest frames. Each frame carries a tag; the
//!    `Deliver` echoing that tag timestamps end-to-end delivery latency
//!    (ingest write → candidate read) for p50/p99/p999. Throughput is
//!    admitted events over wall clock.
//! 2. **Overload** — the same trace against per-connection token buckets
//!    sized to half the phase-1 measured rate, i.e. a deliberate 2×
//!    overload, with a burst of at most ⅛ of a connection's share of the
//!    phase so the phase outlasts it. The server must answer with typed
//!    `Shed` frames (never stall, never split a batch); the shed rate and
//!    a retry-after hint are recorded. A third phase replays the same
//!    overload with a client that honors the retry hints.
//!
//! On a shared CI core the latency numbers measure *pipelining* (frames
//! queue behind each other on one core), not service time — see
//! ROADMAP item 2's caveat. Run on real cores for honest tails.

use magicrecs_bench::json::{Json, Val};
use magicrecs_bench::{fmt_rate, small_graph, ServedStats};
use magicrecs_core::ConcurrentEngine;
use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs_graph::FollowGraph;
use magicrecs_server::{
    connect_per_worker, wire, AdmissionConfig, Backoff, Frame, Server, ServerConfig,
};
use magicrecs_types::{
    metrics::Histogram, route_mix, DetectorConfig, EdgeEvent, FxHashMap, Timestamp,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---- command line ----------------------------------------------------------

struct Args {
    /// Simulated user population (graph vertices).
    users: u64,
    /// Events to send in each phase.
    events: usize,
    /// Events per ingest frame.
    batch: usize,
    /// Server workers (0 = one per available core).
    workers: usize,
    /// CI mode: small fixture, hard sanity asserts, no JSON rewrite.
    smoke: bool,
    /// Skip the overload phase.
    no_overload: bool,
    /// Output path; defaults to `BENCH_hotpath.json` at the workspace root.
    out: Option<PathBuf>,
    /// Where to merge the full flattened metrics scrape (optional).
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        users: 2_000_000,
        events: 1_000_000,
        batch: 2_048,
        workers: 0,
        smoke: false,
        no_overload: false,
        out: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("bad {what}: {e}"))
        };
        match a.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.users = 50_000;
                args.events = 40_000;
                args.batch = 256;
                args.workers = 2;
            }
            "--users" => args.users = grab("--users"),
            "--events" => args.events = grab("--events") as usize,
            "--batch" => args.batch = (grab("--batch") as usize).max(1),
            "--workers" => args.workers = grab("--workers") as usize,
            "--no-overload" => args.no_overload = true,
            "--out" => args.out = Some(PathBuf::from(it.next().expect("--out needs a path"))),
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(
                    it.next().expect("--metrics-out needs a path"),
                ))
            }
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

// ---- one phase -------------------------------------------------------------

/// Outcome of driving one trace through one server instance.
struct PhaseReport {
    sent: u64,
    shed: u64,
    candidates: u64,
    max_retry_hint_us: u64,
    wall: Duration,
    latency: Histogram,
    stats: ServedStats,
    /// Full flattened registry scrape (`MetricsReq`), taken after the
    /// run's barrier so every admitted batch has recorded its stages.
    metrics: Vec<(String, u64)>,
}

impl PhaseReport {
    fn events_per_sec(&self) -> f64 {
        (self.sent - self.shed) as f64 / self.wall.as_secs_f64()
    }

    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.sent.max(1) as f64
    }

    /// One scraped value by exact name (0 if the run never touched it).
    fn metric(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// In-flight frame bookkeeping: tag → (send instant, event count).
type Inflight = Arc<Mutex<FxHashMap<u64, (Instant, u32)>>>;

/// Reader side of one connection: decodes frames until the final
/// barrier ack, timestamping deliveries and counting sheds.
struct ReaderOutcome {
    latency: Histogram,
    shed: u64,
    candidates: u64,
    max_retry_hint_us: u64,
}

fn run_reader(
    mut sock: std::net::TcpStream,
    mut buf: Vec<u8>,
    inflight: Inflight,
    fin_tag: u64,
) -> ReaderOutcome {
    let mut out = ReaderOutcome {
        latency: Histogram::new(),
        shed: 0,
        candidates: 0,
        max_retry_hint_us: 0,
    };
    let mut chunk = vec![0u8; 256 * 1024];
    loop {
        while let Some((frame, used)) = wire::decode(&buf).expect("server sent a corrupt frame") {
            buf.drain(..used);
            match frame {
                Frame::Deliver { tag, candidates } => {
                    if let Some((t0, _)) = inflight.lock().unwrap().remove(&tag) {
                        out.latency.record(t0.elapsed().as_micros() as u64);
                    }
                    out.candidates += candidates.len() as u64;
                }
                Frame::Shed {
                    tag,
                    retry_after_us,
                    ..
                } => {
                    if let Some((_, n)) = inflight.lock().unwrap().remove(&tag) {
                        out.shed += n as u64;
                    }
                    out.max_retry_hint_us = out.max_retry_hint_us.max(retry_after_us);
                }
                Frame::BarrierAck { tag } if tag == fin_tag => return out,
                Frame::Error { code, detail } => {
                    panic!("server error {code:?}: {detail}")
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => panic!("server closed mid-run"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// Witness sets for guaranteed-diamond probe groups: each entry is `k`
/// accounts one common `A` follows, so `k` follows of a fresh target
/// within the window must fire a candidate for that `A`. Interleaved at
/// a fixed cadence, these give the delivery-latency histogram a dense
/// sample even when the organic Zipf traffic rarely completes a motif.
fn probe_witness_sets(
    graph: &FollowGraph,
    k: usize,
    count: usize,
) -> Vec<Vec<magicrecs_types::UserId>> {
    graph
        .iter_forward()
        .filter_map(|(_, followings)| {
            if followings.len() < k {
                return None;
            }
            // Skip sets containing popular witnesses: a probe through a
            // celebrity B would fan out to all of B's co-followers and
            // flood the run with deliveries; the probe stream is meant
            // to *sample* latency, not dominate the workload.
            let modest: Vec<_> = followings
                .into_iter()
                .filter(|b| graph.follower_count(*b) <= 64)
                .take(k)
                .collect();
            (modest.len() == k).then_some(modest)
        })
        .take(count)
        .collect()
}

/// Interleaves one probe group every `stride` organic events. Probe
/// targets are fresh vertices above the user id space, so probes never
/// perturb organic targets; timestamps reuse the neighboring event's,
/// keeping the trace time-ordered.
fn interleave_probes(
    events: &[EdgeEvent],
    witness_sets: &[Vec<magicrecs_types::UserId>],
    users: u64,
) -> Vec<EdgeEvent> {
    if witness_sets.is_empty() {
        return events.to_vec();
    }
    let stride = (events.len() / (witness_sets.len() + 1)).max(1);
    let mut merged = Vec::with_capacity(events.len() + 3 * witness_sets.len());
    let mut next = 0usize;
    for (i, e) in events.iter().enumerate() {
        merged.push(*e);
        if (i + 1) % stride == 0 && next < witness_sets.len() {
            let target = magicrecs_types::UserId(users + next as u64);
            for b in &witness_sets[next] {
                merged.push(EdgeEvent::follow(*b, target, e.created_at));
            }
            next += 1;
        }
    }
    merged
}

fn run_phase(
    graph: &FollowGraph,
    config: DetectorConfig,
    events: &[EdgeEvent],
    workers: usize,
    admission: AdmissionConfig,
    batch: usize,
) -> PhaseReport {
    let engine = Arc::new(ConcurrentEngine::new(graph.clone(), config).expect("engine"));
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            admission,
            pin_cores: true,
            checkpoint_hook: None,
        },
    )
    .expect("server start");
    let addr = server.addr();
    let mut conns = connect_per_worker(addr).expect("connect");
    let n = conns.len();
    for c in conns.iter_mut() {
        c.send(&Frame::Subscribe).expect("subscribe");
        assert_eq!(c.recv().expect("sub ack"), Frame::OkAck);
    }

    // Pre-route and pre-encode per worker so the timed section measures
    // the server, not the generator.
    let mut frames: Vec<Vec<(u64, Vec<u8>, u32)>> = (0..n).map(|_| Vec::new()).collect();
    let mut pending: Vec<Vec<EdgeEvent>> = vec![Vec::new(); n];
    let mut tag = 0u64;
    let fin_tag = u64::MAX;
    for e in events {
        let w = (route_mix(&e.dst) % n as u64) as usize;
        pending[w].push(*e);
        if pending[w].len() >= batch {
            let evs = std::mem::take(&mut pending[w]);
            let count = evs.len() as u32;
            frames[w].push((
                tag,
                wire::encode(&Frame::Ingest { tag, events: evs }),
                count,
            ));
            tag += 1;
        }
    }
    for (w, rest) in pending.into_iter().enumerate() {
        if !rest.is_empty() {
            let count = rest.len() as u32;
            frames[w].push((
                tag,
                wire::encode(&Frame::Ingest { tag, events: rest }),
                count,
            ));
            tag += 1;
        }
    }

    let started = Instant::now();
    let mut readers = Vec::new();
    let mut writers = Vec::new();
    for (conn, worker_frames) in conns.into_iter().zip(frames) {
        let inflight: Inflight = Arc::new(Mutex::new(FxHashMap::default()));
        let (rsock, mut wsock, leftover) = conn.split().expect("split");
        let reader_inflight = inflight.clone();
        readers.push(std::thread::spawn(move || {
            run_reader(rsock, leftover, reader_inflight, fin_tag)
        }));
        writers.push(std::thread::spawn(move || {
            for (tag, bytes, count) in &worker_frames {
                inflight
                    .lock()
                    .unwrap()
                    .insert(*tag, (Instant::now(), *count));
                wsock.write_all(bytes).expect("ingest write");
            }
            wsock
                .write_all(&wire::encode(&Frame::Barrier { tag: fin_tag }))
                .expect("barrier write");
        }));
    }
    for w in writers {
        w.join().expect("writer");
    }
    let mut latency = Histogram::new();
    let mut shed = 0u64;
    let mut candidates = 0u64;
    let mut max_retry_hint_us = 0u64;
    for r in readers {
        let o = r.join().expect("reader");
        latency.merge(&o.latency);
        shed += o.shed;
        candidates += o.candidates;
        max_retry_hint_us = max_retry_hint_us.max(o.max_retry_hint_us);
    }
    let wall = started.elapsed();

    let mut control = magicrecs_server::ClientConn::connect(addr, None).expect("control conn");
    let metrics = control.fetch_metrics().expect("metrics scrape");
    let stats = ServedStats::from_metrics(&metrics);
    server.shutdown();

    PhaseReport {
        sent: events.len() as u64,
        shed,
        candidates,
        max_retry_hint_us,
        wall,
        latency,
        stats,
        metrics,
    }
}

/// Outcome of the resilient-retry phase.
struct RetryReport {
    sent: u64,
    first_round_shed: u64,
    rounds: u64,
    max_hint_us: u64,
    wall: Duration,
    stats: ServedStats,
}

/// Phase 3: the same 2× overload, but with a client that *consumes* the
/// typed `Shed{RateLimited}` hints instead of merely recording them —
/// after each round it re-sends only the still-refused batches (keyed
/// by the first event's sequence, so a retry replays the identical
/// batch and the whole-batch shed contract makes double-ingest
/// impossible), sleeping an exponential backoff with jitter floored at
/// the server's largest retry-after hint. Runs until every batch is
/// admitted; exactly-once is then asserted from the server's own
/// counters (`accepted == sent`).
fn run_resilient_retry(
    graph: &FollowGraph,
    config: DetectorConfig,
    events: &[EdgeEvent],
    workers: usize,
    admission: AdmissionConfig,
    batch: usize,
) -> RetryReport {
    let engine = Arc::new(ConcurrentEngine::new(graph.clone(), config).expect("engine"));
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            admission,
            pin_cores: true,
            checkpoint_hook: None,
        },
    )
    .expect("server start");
    let addr = server.addr();
    let conns = connect_per_worker(addr).expect("connect");
    let n = conns.len();

    // A batch can only ever be admitted if it fits the bucket's burst
    // allowance (floor 256); larger batches would retry forever.
    let batch = batch.min(256);

    // Route per worker, tagging each batch with its first event's
    // worker-local sequence — the resend key.
    let mut batches: Vec<Vec<(u64, Vec<EdgeEvent>)>> = (0..n).map(|_| Vec::new()).collect();
    let mut staged: Vec<Vec<EdgeEvent>> = vec![Vec::new(); n];
    let mut next_seq = vec![0u64; n];
    let flush = |w: usize,
                 staged: &mut Vec<Vec<EdgeEvent>>,
                 next_seq: &mut Vec<u64>,
                 batches: &mut Vec<Vec<(u64, Vec<EdgeEvent>)>>| {
        let evs = std::mem::take(&mut staged[w]);
        if !evs.is_empty() {
            let seq = next_seq[w];
            next_seq[w] += evs.len() as u64;
            batches[w].push((seq, evs));
        }
    };
    for e in events {
        let w = (route_mix(&e.dst) % n as u64) as usize;
        staged[w].push(*e);
        if staged[w].len() >= batch {
            flush(w, &mut staged, &mut next_seq, &mut batches);
        }
    }
    for w in 0..n {
        flush(w, &mut staged, &mut next_seq, &mut batches);
    }

    let started = Instant::now();
    let mut joins = Vec::new();
    for (wi, (mut conn, worker_batches)) in conns.into_iter().zip(batches).enumerate() {
        joins.push(std::thread::spawn(move || {
            let mut backoff = Backoff::new(
                Duration::from_micros(200),
                Duration::from_millis(200),
                0xD1A1 ^ wi as u64,
            );
            let mut pending = worker_batches;
            let mut first_round_shed = 0u64;
            let mut rounds = 0u64;
            let mut max_hint_us = 0u64;
            while !pending.is_empty() {
                rounds += 1;
                assert!(rounds <= 10_000, "retry phase not converging");
                for (tag, evs) in &pending {
                    conn.send(&Frame::Ingest {
                        tag: *tag,
                        events: evs.clone(),
                    })
                    .expect("ingest");
                }
                let before = conn.barrier(u64::MAX).expect("barrier");
                let mut shed_tags = Vec::new();
                let mut round_hint = 0u64;
                for f in before {
                    match f {
                        Frame::Shed {
                            tag,
                            code,
                            retry_after_us,
                        } => {
                            assert_eq!(
                                code,
                                magicrecs_server::ShedCode::RateLimited,
                                "bucket overload must shed RateLimited"
                            );
                            shed_tags.push(tag);
                            round_hint = round_hint.max(retry_after_us);
                        }
                        Frame::Deliver { .. } => {}
                        other => panic!("unexpected frame in retry phase: {other:?}"),
                    }
                }
                max_hint_us = max_hint_us.max(round_hint);
                if rounds == 1 {
                    first_round_shed = shed_tags.len() as u64;
                }
                // Keep only the refused batches, in seq order; the rest
                // are admitted exactly once and never re-sent.
                pending.retain(|(tag, _)| shed_tags.contains(tag));
                if !pending.is_empty() {
                    std::thread::sleep(backoff.next_delay(round_hint));
                } else {
                    backoff.reset();
                }
            }
            (first_round_shed, rounds, max_hint_us)
        }));
    }
    let mut first_round_shed = 0u64;
    let mut rounds = 0u64;
    let mut max_hint_us = 0u64;
    for j in joins {
        let (s, r, h) = j.join().expect("retry worker");
        first_round_shed += s;
        rounds = rounds.max(r);
        max_hint_us = max_hint_us.max(h);
    }
    let wall = started.elapsed();

    let mut control = magicrecs_server::ClientConn::connect(addr, None).expect("control conn");
    let stats = ServedStats::from_metrics(&control.fetch_metrics().expect("metrics scrape"));
    server.shutdown();

    RetryReport {
        sent: events.len() as u64,
        first_round_shed,
        rounds,
        max_hint_us,
        wall,
        stats,
    }
}

/// Admission for the two overload phases: per-connection token buckets
/// refilling at half the saturation rate's per-connection share, a 2×
/// overload.
///
/// The burst is at most ⅛ of one connection's share of the phase's
/// events (and never above the stock quarter-second burst), floored at
/// 256 events so a batch still fits. A phase sent at the saturation rate
/// lasts about `events / sat_rate`, in which a bucket refills half its
/// connection's share; with ⅛ more from the burst, at most ⅝ of the
/// share can be admitted, so a 2× overload sheds however fast the box
/// is. With the stock burst alone (`rate / 4`), a small phase on a fast
/// box fits inside the burst and sheds nothing.
fn overload_admission(sat_rate: f64, events: usize, workers: usize) -> AdmissionConfig {
    let per_conn_rate = (sat_rate / (2.0 * workers as f64)).max(1.0);
    let share = events as f64 / workers as f64;
    let stock = AdmissionConfig::rate_limited(per_conn_rate);
    AdmissionConfig {
        source_burst: stock.source_burst.min(share / 8.0).max(256.0),
        ..stock
    }
}

/// Prints the per-stage latency decomposition from a phase's registry
/// scrape: where an admitted batch's time went (admission gates, WAL,
/// detection, delivery fan-out) against the server's own end-to-end
/// measure, plus the queue-wait estimate — the client-observed delivery
/// mean minus the server-side work mean, i.e. time spent queued in
/// sockets and epoll rather than being worked on.
fn print_stage_breakdown(report: &PhaseReport) {
    let e2e_count = report.metric("stage_e2e_us_count");
    if e2e_count == 0 {
        println!("  stages: no admitted batches recorded");
        return;
    }
    let e2e_sum = report.metric("stage_e2e_us_sum");
    println!("  stage breakdown (server-side, {e2e_count} admitted batches):");
    println!(
        "    {:<10} {:>10} {:>10} {:>9} {:>7}",
        "stage", "count", "mean µs", "p99 µs", "share"
    );
    for (label, name) in [
        ("admission", "stage_admission_us"),
        ("wal", "stage_wal_us"),
        ("detect", "stage_detect_us"),
        ("deliver", "stage_deliver_us"),
        ("e2e", "stage_e2e_us"),
    ] {
        let count = report.metric(&format!("{name}_count"));
        if count == 0 {
            continue; // the WAL stage only exists under persistence
        }
        let sum = report.metric(&format!("{name}_sum"));
        println!(
            "    {:<10} {:>10} {:>10.1} {:>9} {:>6.1}%",
            label,
            count,
            sum as f64 / count as f64,
            report.metric(&format!("{name}_p99")),
            100.0 * sum as f64 / e2e_sum.max(1) as f64,
        );
    }
    let server_mean = e2e_sum as f64 / e2e_count as f64;
    let client_mean = report.latency.mean().unwrap_or(0.0);
    println!(
        "    queue wait ≈ {:.1}µs (client deliver mean {:.1}µs − server e2e mean {:.1}µs)",
        (client_mean - server_mean).max(0.0),
        client_mean,
        server_mean,
    );
}

// ---- main ------------------------------------------------------------------

fn main() {
    let args = parse_args();
    let workers = if args.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        args.workers
    };
    let config = magicrecs_bench::bench_detector_config();
    println!(
        "loadgen: {} users, {} events, {} workers, batch {}",
        args.users, args.events, workers, args.batch
    );

    let t0 = Instant::now();
    let graph = if args.smoke {
        small_graph(args.users)
    } else {
        // Millions of vertices: keep mean degree modest so the graph
        // builds in seconds and memory stays in the hundreds of MB.
        GraphGen::new(GraphGenConfig {
            users: args.users,
            mean_out_degree: 4.0,
            max_out_degree: 64,
            popularity_alpha: 1.0,
            activity_alpha: 0.6,
            seed: 0xBEEF,
        })
        .generate()
    };
    // Simulated arrivals at 2k/s spread the trace across many detection
    // windows (tau = 10min), so expiry bounds the live store at ~1.2M
    // edges-in-window equivalents per million users — the steady state a
    // real deployment sees, not an ever-growing window. Wall-clock send
    // rate is open-loop regardless.
    let sim_rate = 2_000.0;
    let trace = Scenario::steady(
        args.users,
        ScenarioConfig {
            rate_per_sec: sim_rate,
            duration: magicrecs_types::Duration::from_secs(
                ((args.events as f64 / sim_rate).ceil() as u64).max(1),
            ),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: 0.9,
            seed: 0x10AD,
        },
    );
    let organic = &trace.events()[..trace.len().min(args.events)];
    let probes = probe_witness_sets(&graph, config.k, (organic.len() / 1_000).clamp(50, 1_500));
    let events = interleave_probes(organic, &probes, args.users);
    let events = &events[..];
    println!(
        "  fixture: {} edges, {} events ({} probe groups, {:.1}s to build)",
        graph.num_follow_edges(),
        events.len(),
        probes.len(),
        t0.elapsed().as_secs_f64()
    );

    // ---- phase 1: saturation -------------------------------------------
    let sat = run_phase(
        &graph,
        config,
        events,
        workers,
        AdmissionConfig::unlimited(),
        args.batch,
    );
    let p50 = sat.latency.quantile(0.50).unwrap_or(0);
    let p99 = sat.latency.quantile(0.99).unwrap_or(0);
    let p999 = sat.latency.quantile(0.999).unwrap_or(0);
    println!(
        "  saturation: {} over {:.2}s wall, {} candidates, deliver p50 {}µs p99 {}µs p999 {}µs",
        fmt_rate(sat.events_per_sec()),
        sat.wall.as_secs_f64(),
        sat.candidates,
        p50,
        p99,
        p999,
    );
    println!(
        "  engine: detect p50 {}µs p99 {}µs, queue hwm {}, dropped deliveries {}",
        sat.stats.detect_p50_us,
        sat.stats.detect_p99_us,
        sat.stats.queue_high_watermark,
        sat.stats.dropped_deliveries
    );
    print_stage_breakdown(&sat);
    assert_eq!(sat.shed, 0, "unlimited admission must not shed");
    assert!(sat.candidates > 0, "trace produced no deliveries");
    assert_eq!(sat.stats.accepted, sat.sent, "server lost events");
    if args.smoke {
        // The observability acceptance checks: stage histograms must be
        // populated, and the per-stage sums must account for the
        // server's own end-to-end measure. Each stage rounds down to
        // whole µs independently of e2e, so grant 10% plus a few µs of
        // truncation slack per batch before calling the books cooked.
        let e2e_count = sat.metric("stage_e2e_us_count");
        assert!(e2e_count > 0, "no admitted batch recorded an e2e stage");
        assert!(
            sat.metric("stage_detect_us_count") > 0,
            "detect stage histogram is empty"
        );
        let parts = sat.metric("stage_admission_us_sum")
            + sat.metric("stage_wal_us_sum")
            + sat.metric("stage_detect_us_sum")
            + sat.metric("stage_deliver_us_sum");
        let e2e = sat.metric("stage_e2e_us_sum");
        let slack = 10 * e2e_count;
        assert!(
            parts <= e2e + slack,
            "stage sums ({parts}µs) exceed end-to-end ({e2e}µs): stages overlap"
        );
        assert!(
            parts + slack >= e2e - e2e / 10,
            "stage sums ({parts}µs) account for less than 90% of end-to-end ({e2e}µs): \
             a stage is unmeasured"
        );
    }

    // ---- phase 2: 2× overload ------------------------------------------
    // Token buckets sized to half the demonstrated per-worker rate: a
    // deliberate 2× overload.
    let admission = overload_admission(sat.events_per_sec(), events.len(), workers);
    let overload = if args.no_overload {
        None
    } else {
        let report = run_phase(&graph, config, events, workers, admission, args.batch);
        println!(
            "  overload(2x): shed rate {:.3} ({} of {} events), max retry hint {}µs, {}",
            report.shed_rate(),
            report.shed,
            report.sent,
            report.max_retry_hint_us,
            fmt_rate(report.events_per_sec()),
        );
        assert!(
            report.shed > 0,
            "2x overload must shed (typed), got none — admission control is inert"
        );
        assert!(
            report.max_retry_hint_us > 0,
            "shed responses must carry a retry-after hint"
        );
        assert_eq!(
            report.stats.accepted + report.stats.shed,
            report.sent,
            "every event must be either admitted or typed-shed"
        );
        Some(report)
    };

    // ---- phase 3: overload with a resilient client ---------------------
    let retry = if args.no_overload {
        None
    } else {
        let report = run_resilient_retry(&graph, config, events, workers, admission, args.batch);
        println!(
            "  retry(2x, hint-honoring): {} rounds, {} first-round sheds, max hint {}µs, \
             all {} events admitted in {:.2}s",
            report.rounds,
            report.first_round_shed,
            report.max_hint_us,
            report.sent,
            report.wall.as_secs_f64(),
        );
        assert!(
            report.first_round_shed > 0,
            "2x overload must shed on the first round — retry phase tested nothing"
        );
        assert!(report.rounds > 1, "sheds imply at least one retry round");
        assert!(
            report.max_hint_us > 0,
            "shed responses must carry a retry-after hint"
        );
        // The exactly-once assertion: despite every shed batch being
        // re-sent (some several times), the server admitted each event
        // exactly once — whole-batch sheds + seq-keyed resends cannot
        // double-ingest.
        assert_eq!(
            report.stats.accepted, report.sent,
            "retried events must be admitted exactly once"
        );
        Some(report)
    };

    if let Some(path) = &args.metrics_out {
        let mut scrape = Json::new();
        for (name, value) in &sat.metrics {
            scrape.int(name, *value);
        }
        scrape.merge_into_file(path);
        println!("wrote metrics scrape to {}", path.display());
    }

    if args.smoke {
        println!("smoke OK (no JSON rewrite)");
        return;
    }
    assert!(
        sat.events_per_sec() >= 100_000.0,
        "sustained rate {} is below the 100k events/sec floor",
        fmt_rate(sat.events_per_sec())
    );

    // ---- merge + write --------------------------------------------------
    let mut json = Json::new();
    json.num("serving_events_per_sec", sat.events_per_sec());
    json.obj(
        "serving_deliver_latency_us",
        &[
            ("p50", p50 as f64),
            ("p99", p99 as f64),
            ("p999", p999 as f64),
        ],
    );
    json.obj(
        "serving_detect_latency_us",
        &[
            ("p50", sat.stats.detect_p50_us as f64),
            ("p99", sat.stats.detect_p99_us as f64),
        ],
    );
    // Rates near 0 or 1 need more than `num`'s one decimal.
    json.set(
        "serving_shed_rate_saturation",
        Val::Raw(format!("{:.3}", sat.shed_rate())),
    );
    if let Some(o) = &overload {
        json.set(
            "serving_shed_rate_overload_2x",
            Val::Raw(format!("{:.3}", o.shed_rate())),
        );
        json.int("serving_overload_max_retry_hint_us", o.max_retry_hint_us);
    }
    if let Some(r) = &retry {
        json.int("serving_retry_rounds", r.rounds);
        json.num("serving_retry_wall_s", r.wall.as_secs_f64());
    }
    json.int(
        "serving_queue_high_watermark",
        sat.stats.queue_high_watermark,
    );
    json.int("serving_dropped_deliveries", sat.stats.dropped_deliveries);
    json.int("serving_bench_users", args.users);
    json.int("serving_bench_events", sat.sent);
    json.int("serving_bench_workers", workers as u64);
    json.int(
        "serving_bench_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );

    let path = args.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
            .join("BENCH_hotpath.json")
    });
    json.merge_into_file(&path);
    println!("wrote {}", path.display());
}
