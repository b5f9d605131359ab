//! The follower side of WAL shipping: a per-partition thread that
//! tails a source replica's MGWL segments into the local unit, plus
//! the state-ship bootstrap a rebalance target uses to materialise a
//! partition it has never hosted.
//!
//! ## Tail protocol
//!
//! A round starts with `SegmentsReq{from_seq}`: the request *is* the
//! follower's durable progress report, feeding the leader's replicated
//! watermark, and it is a **long-poll** — a caught-up follower gets the
//! reply when the next batch is durable on the source, or when the
//! source's `poll_interval` bound expires. The tailer never sleeps
//! between rounds; the long-poll is its only wait. A round then streams
//! bytes forward with `SegmentFetch`/`SegmentChunk` and ends with a
//! `StatusReq` that sets the lag gauge.
//!
//! Each connection keeps a **cursor**: the segment being read, the byte
//! offset reached in it, and the [`ShipDecoder`] that holds any torn
//! frame tail. A round fetches only the bytes appended since the last
//! one, up to the size the catalog lists, and moves to the next segment
//! once the current one is used up (a later segment in the catalog means
//! the current one is sealed). Bytes pass through the decoder, which
//! re-validates every CRC and sequence against the local expectation: a
//! cut at any byte boundary leaves a clean prefix, a duplicate resend is
//! skipped, and a hole is a typed [`Error::ReplicaGap`] that stops the
//! tailer (recorded in the flight recorder) rather than letting the
//! replica diverge.
//!
//! After a reconnect or any error the cursor is gone, and the tailer
//! falls back to fetching the segment holding its next sequence from
//! offset 0; the decoder's duplicate skip absorbs the overlap. That
//! fallback never has to reason about torn-tail offsets across a source
//! restart — the only position it trusts is the engine's own durable
//! sequence. A cursor that disagrees with that sequence or with the
//! catalog is dropped the same way.
//!
//! Stopping a tail (promotion, re-follow, shutdown) shuts its socket
//! down, so a thread parked in a long-poll exits at once.
//!
//! Shipped records are applied through
//! [`PersistentEngine::apply_shipped`]: the follower keeps `D` and its
//! log identical to the source's but runs no detection.
//!
//! ## Bootstrap (rebalance)
//!
//! A `FollowReq` for a partition this node has no unit for first ships
//! *every settled file* of the source's partition directory
//! (`StateListReq`/`StateFetch`): base snapshot, checkpoint chain, WAL
//! segments. The target then runs ordinary crash recovery
//! ([`PersistentEngine::open`]) over the copied directory — the same
//! code path a reboot uses, so a half-shipped WAL tail is truncated,
//! not trusted — and tails forward from wherever recovery landed.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::route::EpochGate;
use magicrecs_graph::CapStrategy;
use magicrecs_obs::recorder;
use magicrecs_obs::TraceKind;
use magicrecs_persist::{PersistentEngine, ShipDecoder, WalRecord};
use magicrecs_server::wire::{Frame, MAX_CHUNK_LEN};
use magicrecs_server::ClientConn;
use magicrecs_types::{EdgeEvent, Error, Result};

use crate::node::{NodeInner, Unit};

/// Control handle for one tail thread.
pub(crate) struct TailHandle {
    stop: Arc<TailStop>,
    join: JoinHandle<()>,
}

impl TailHandle {
    /// Signals the thread, breaks any long-poll it is parked in, and
    /// waits for it to exit.
    pub(crate) fn stop(self) {
        self.stop.trigger();
        let _ = self.join.join();
    }
}

/// The stop signal a tail thread shares with its handle: a flag, plus
/// a handle on the socket the thread may be blocked on.
#[derive(Default)]
struct TailStop {
    stopped: AtomicBool,
    socket: Mutex<Option<TcpStream>>,
}

impl TailStop {
    fn is_set(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Registers the socket of a fresh connection; `false` if a stop
    /// already arrived. The flag is checked under the slot lock, so a
    /// stop either sees this socket or is seen here.
    fn arm(&self, socket: TcpStream) -> bool {
        let mut slot = self.socket.lock().unwrap();
        if self.is_set() {
            return false;
        }
        *slot = Some(socket);
        true
    }

    fn trigger(&self) {
        self.stopped.store(true, Ordering::Release);
        if let Some(socket) = self.socket.lock().unwrap().take() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

/// Spawns (or replaces) the tail thread for `unit`, pulling from
/// `source`.
pub(crate) fn start_tail(inner: &Arc<NodeInner>, unit: &Arc<Unit>, source: SocketAddr) {
    let stop = Arc::new(TailStop::default());
    let thread_stop = Arc::clone(&stop);
    let thread_inner = Arc::clone(inner);
    let thread_unit = Arc::clone(unit);
    let join = std::thread::spawn(move || {
        run_tail(&thread_inner, &thread_unit, source, &thread_stop);
    });
    let old = unit.tail.lock().unwrap().replace(TailHandle { stop, join });
    if let Some(old) = old {
        old.stop();
    }
}

fn run_tail(inner: &Arc<NodeInner>, unit: &Arc<Unit>, source: SocketAddr, stop: &TailStop) {
    let mut reconnect_pause = Duration::from_millis(1);
    while !stop.is_set() {
        let conn =
            ClientConn::connect(source, None).and_then(|conn| Ok((conn.socket_handle()?, conn)));
        let mut conn = match conn {
            Ok((socket, conn)) => {
                if !stop.arm(socket) {
                    return;
                }
                conn
            }
            Err(_) => {
                std::thread::sleep(reconnect_pause);
                reconnect_pause = (reconnect_pause * 2).min(Duration::from_millis(200));
                continue;
            }
        };
        reconnect_pause = Duration::from_millis(1);
        // A fresh connection starts without a cursor: the first round
        // takes the offset-0 fallback.
        let mut cursor = None;
        while !stop.is_set() {
            match tail_round(inner, unit, &mut conn, &mut cursor) {
                Ok(()) => {}
                Err(Error::ReplicaGap { expected, got, .. }) => {
                    // The source no longer holds what we need; shipping
                    // cannot continue without diverging. Refuse loudly.
                    recorder::record(TraceKind::ReplicaGap, "tail stopped on gap", expected, got);
                    return;
                }
                Err(_) => break, // transport trouble or damage: reconnect
            }
        }
    }
}

/// Where the next fetch on a connection resumes.
struct Cursor {
    /// First sequence (file name) of the segment being read.
    first_seq: u64,
    /// Bytes of that segment already fed to the decoder.
    offset: u64,
    decoder: ShipDecoder,
}

/// One round: long-poll the catalog, fetch everything it lists past the
/// cursor, apply it, and report lag.
fn tail_round(
    inner: &Arc<NodeInner>,
    unit: &Arc<Unit>,
    conn: &mut ClientConn,
    cursor: &mut Option<Cursor>,
) -> Result<()> {
    let partition = unit.partition;
    let expect = unit.durable();
    inner.metrics.tail_rounds.incr();
    conn.send(&Frame::SegmentsReq {
        partition,
        from_seq: expect,
    })?;
    let segments = match conn.recv()? {
        Frame::SegmentsResp { segments, .. } => segments,
        other => {
            return Err(Error::Corrupt(format!(
                "expected SegmentsResp, got frame type {}",
                other.frame_type()
            )))
        }
    };
    let listed = |first_seq: u64| {
        segments
            .iter()
            .find(|&&(first, _)| first == first_seq)
            .map(|&(_, bytes)| bytes)
    };
    // Trust the cursor only while it agrees with the engine and its
    // segment still holds at least the bytes already read.
    if cursor.as_ref().is_some_and(|c| {
        c.decoder.expected() != expect || listed(c.first_seq).is_none_or(|b| b < c.offset)
    }) {
        *cursor = None;
    }
    if cursor.is_none() {
        if segments.is_empty() {
            return Ok(());
        }
        // Fallback: the last segment whose first seq is at or below
        // what we need, from offset 0.
        let Some(i) = segments.iter().rposition(|&(first, _)| first <= expect) else {
            // Everything the source holds starts above us: a hole.
            return Err(Error::ReplicaGap {
                partition,
                expected: expect,
                got: segments[0].0,
            });
        };
        *cursor = Some(Cursor {
            first_seq: segments[i].0,
            offset: 0,
            decoder: ShipDecoder::new(partition, expect),
        });
    }
    let c = cursor.as_mut().expect("cursor set above");
    let mut records: Vec<WalRecord> = Vec::new();
    loop {
        let end = listed(c.first_seq).unwrap_or(0);
        if c.offset >= end {
            // Used up as far as the catalog lists. A later segment means
            // this one is sealed: move on; otherwise the round is done.
            let Some(&(next, _)) = segments.iter().find(|&&(first, _)| first > c.first_seq) else {
                break;
            };
            c.decoder.begin_segment()?;
            c.first_seq = next;
            c.offset = 0;
            continue;
        }
        conn.send(&Frame::SegmentFetch {
            partition,
            first_seq: c.first_seq,
            offset: c.offset,
            max_len: (end - c.offset).min(MAX_CHUNK_LEN as u64) as u32,
        })?;
        let bytes = match conn.recv()? {
            Frame::SegmentChunk { bytes, .. } => bytes,
            Frame::Error { detail, .. } => {
                // Segment vanished between catalog and fetch
                // (reclaimed); re-list after the fallback.
                return Err(Error::Io(format!("segment fetch refused: {detail}")));
            }
            other => {
                return Err(Error::Corrupt(format!(
                    "expected SegmentChunk, got frame type {}",
                    other.frame_type()
                )))
            }
        };
        if bytes.is_empty() {
            return Err(Error::Io(format!(
                "segment {} ends below its listed {end} bytes",
                c.first_seq
            )));
        }
        c.offset += bytes.len() as u64;
        records.clear();
        c.decoder.feed(&bytes, &mut records)?;
        if !records.is_empty() {
            apply(unit, &records)?;
        }
    }
    // Report lag against the source's durable watermark.
    conn.send(&Frame::StatusReq { partition })?;
    match conn.recv()? {
        Frame::StatusResp(st) => {
            inner
                .metrics
                .lag_events
                .set(st.durable.saturating_sub(unit.durable()));
            Ok(())
        }
        Frame::Error { .. } => Ok(()),
        other => Err(Error::Corrupt(format!(
            "expected StatusResp, got frame type {}",
            other.frame_type()
        ))),
    }
}

/// Applies shipped records through the local engine, apply-only. The
/// decoder emits densely from the unit's durable seq, and the engine
/// assigns exactly those sequences on append — checked, because a
/// mismatch means the replica would silently diverge.
fn apply(unit: &Unit, records: &[WalRecord]) -> Result<()> {
    let mut engine = unit.engine.lock().unwrap();
    let next = engine.next_seq();
    if records[0].seq != next {
        return Err(Error::Invariant(format!(
            "ship stream at seq {} but local engine expects {next}",
            records[0].seq
        )));
    }
    let events: Vec<EdgeEvent> = records.iter().map(|r| r.event).collect();
    engine.apply_shipped(&events)?;
    unit.publish_durable(engine.next_seq());
    Ok(())
}

/// Returns the existing unit for `partition`, or bootstraps one by
/// shipping the source's settled state files and running crash
/// recovery over them.
pub(crate) fn get_or_bootstrap(
    inner: &Arc<NodeInner>,
    partition: u32,
    source: SocketAddr,
) -> Result<Arc<Unit>> {
    if let Some(unit) = inner.units.lock().unwrap().get(&partition) {
        return Ok(Arc::clone(unit));
    }
    let cfg = &inner.cfg;
    let dir = cfg.data_dir.join(format!("p{partition}"));
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
    let mut conn = ClientConn::connect(source, None)?;
    conn.send(&Frame::StateListReq { partition })?;
    let files = match conn.recv()? {
        Frame::StateListResp { files, .. } => files,
        Frame::Error { detail, .. } => {
            return Err(Error::Io(format!("state list refused: {detail}")))
        }
        other => {
            return Err(Error::Corrupt(format!(
                "expected StateListResp, got frame type {}",
                other.frame_type()
            )))
        }
    };
    for (name, _listed_len) in files {
        if !crate::node::safe_name(&name) {
            return Err(Error::Corrupt(format!(
                "source offered unsafe state name {name:?}"
            )));
        }
        fetch_state_file(inner, &mut conn, partition, &name, &dir)?;
    }
    drop(conn);
    let opts = cfg.persist_opts();
    let (engine, _report) = PersistentEngine::open(&dir, cfg.detector, CapStrategy::None, opts)?;
    let hint = cfg.map.partition(partition).map(|p| p.leader).unwrap_or(0);
    let gate = EpochGate::new(partition, 0, false, hint);
    let unit = Arc::new(Unit::new(partition, dir, gate, engine));
    inner
        .units
        .lock()
        .unwrap()
        .insert(partition, Arc::clone(&unit));
    Ok(unit)
}

/// Streams one state file to `dir/name` (via a `.tmp` rename so a
/// crashed bootstrap never leaves a plausible-but-partial file).
fn fetch_state_file(
    inner: &Arc<NodeInner>,
    conn: &mut ClientConn,
    partition: u32,
    name: &str,
    dir: &std::path::Path,
) -> Result<()> {
    use std::io::Write;
    let tmp_path = dir.join(format!("{name}.shiptmp"));
    let mut out = std::fs::File::create(&tmp_path).map_err(|e| Error::Io(e.to_string()))?;
    let mut offset = 0u64;
    loop {
        conn.send(&Frame::StateFetch {
            partition,
            name: name.to_string(),
            offset,
            max_len: MAX_CHUNK_LEN as u32,
        })?;
        let bytes = match conn.recv()? {
            Frame::StateChunk { bytes, .. } => bytes,
            Frame::Error { detail, .. } => {
                return Err(Error::Io(format!("state fetch refused: {detail}")))
            }
            other => {
                return Err(Error::Corrupt(format!(
                    "expected StateChunk, got frame type {}",
                    other.frame_type()
                )))
            }
        };
        if bytes.is_empty() {
            break;
        }
        out.write_all(&bytes)
            .map_err(|e| Error::Io(e.to_string()))?;
        offset += bytes.len() as u64;
    }
    out.sync_all().map_err(|e| Error::Io(e.to_string()))?;
    drop(out);
    std::fs::rename(&tmp_path, dir.join(name)).map_err(|e| Error::Io(e.to_string()))?;
    inner.metrics.bootstrap_files.incr();
    Ok(())
}
