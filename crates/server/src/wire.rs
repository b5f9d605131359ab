//! The length-prefixed binary wire protocol.
//!
//! Frame layout (everything little-endian):
//!
//! ```text
//! [len: u32]  [ver: u8]  [type: u8]  [payload ...]  [check: u64]
//!  `len` covers ver..=check      varint fields      FxHash checksum
//! ```
//!
//! `len` is the byte count of everything after the length field itself
//! (minimum 10: version + type + checksum). The checksum is the
//! workspace's [`Check`] accumulator (FxHash) folded over the version,
//! type, payload length, and payload bytes — the same integrity recipe
//! as the `MGRS`/`MGRD` codecs, shared so a registry-backed CRC swap
//! lands everywhere at once. Payload fields are the varints of
//! [`magicrecs_graph::io`].
//!
//! Decoding is *prefix-closed*: a truncated byte stream decodes to a
//! clean prefix of the frames written (the partial tail reports
//! "incomplete", never an error, never a wrong frame), and any
//! corruption that survives the length check dies on the checksum as a
//! typed [`Error::Corrupt`] — property-tested in
//! `tests/properties.rs`.

use magicrecs_graph::io::{read_exact_checked, read_varint_checked, write_varint, Check};
use magicrecs_types::{Candidate, EdgeEvent, EdgeKind, Error, Result, Timestamp, UserId};

/// Protocol version byte. Bump on any frame-layout change.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on a single frame's `len` field (1 MiB). Anything larger is
/// rejected as corrupt before buffering, so a flipped length byte cannot
/// make a reader allocate or wait for gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Most candidates the server packs into one `Deliver` frame. A
/// worst-case candidate (three max-width varints plus 64 witnesses at
/// the detector's witness cap) encodes to ~672 bytes, so this keeps
/// every Deliver comfortably under [`MAX_FRAME_LEN`]; larger emissions
/// are chunked into several frames sharing the tag.
pub const MAX_DELIVER_CANDIDATES: usize = 1024;

/// Smallest legal `len`: version + type + checksum.
const MIN_FRAME_LEN: usize = 1 + 1 + 8;

/// Sentinel for "any worker" in [`Frame::Hello`].
pub const ANY_WORKER: u32 = u32::MAX;

/// Why an ingest frame was refused (carried in [`Frame::Shed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCode {
    /// The connection's token bucket is empty: the source exceeds its
    /// configured events/sec. Retry after the bucket refills.
    RateLimited,
    /// The worker's per-cycle event budget is exhausted: the core is
    /// saturated. Retry after the hinted backoff.
    Overloaded,
}

impl ShedCode {
    fn to_byte(self) -> u8 {
        match self {
            ShedCode::RateLimited => 1,
            ShedCode::Overloaded => 2,
        }
    }

    fn from_byte(b: u8) -> Result<ShedCode> {
        match b {
            1 => Ok(ShedCode::RateLimited),
            2 => Ok(ShedCode::Overloaded),
            _ => Err(Error::Corrupt(format!("wire: unknown shed code {b}"))),
        }
    }
}

/// Error classes carried in [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// The peer sent a frame this endpoint cannot parse or does not
    /// accept in its current state. The connection is closed after this.
    BadFrame,
    /// The requested operation is not available (e.g. checkpoint trigger
    /// on a volatile engine).
    Unsupported,
    /// The operation was understood but failed server-side (e.g. a delta
    /// that does not apply to the current snapshot).
    Internal,
}

impl WireErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            WireErrorCode::BadFrame => 1,
            WireErrorCode::Unsupported => 2,
            WireErrorCode::Internal => 3,
        }
    }

    fn from_byte(b: u8) -> Result<WireErrorCode> {
        match b {
            1 => Ok(WireErrorCode::BadFrame),
            2 => Ok(WireErrorCode::Unsupported),
            3 => Ok(WireErrorCode::Internal),
            _ => Err(Error::Corrupt(format!("wire: unknown error code {b}"))),
        }
    }
}

/// Largest `bytes` payload a [`Frame::SegmentChunk`] / [`Frame::StateChunk`]
/// sender may pack (512 KiB) — keeps every chunk frame comfortably under
/// [`MAX_FRAME_LEN`] with headroom for the header varints.
pub const MAX_CHUNK_LEN: usize = 1 << 19;

/// Replication status snapshot carried by [`Frame::StatusResp`].
///
/// Watermarks are **next-sequence** values, not last-sequence: `durable`
/// is the first sequence *not yet* durable in the node's local WAL (so a
/// fresh partition reports 0 and a partition holding seqs `0..=41`
/// reports 42). This sidesteps the "is 0 a seq or none?" ambiguity and
/// matches `Wal::next_seq()` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStatus {
    /// Partition this status describes.
    pub partition: u32,
    /// Whether the node currently leads the partition.
    pub leading: bool,
    /// The node's routing epoch for the partition.
    pub epoch: u64,
    /// First sequence not yet durable in the node's local WAL.
    pub durable: u64,
    /// First sequence not yet applied to the warm engine.
    pub applied: u64,
    /// Leader only: first sequence not yet confirmed shipped to the
    /// follower (0 when no follower has ever polled).
    pub replicated: u64,
}

/// Payload version byte inside [`Frame::MetricsResp`]. Independent of
/// [`WIRE_VERSION`]: the metrics payload can evolve (new entry shapes)
/// without a protocol-wide bump.
pub const METRICS_VERSION: u8 = 1;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → acceptor, first frame on every connection. The acceptor
    /// hands the socket to `preferred_worker` ([`ANY_WORKER`] =
    /// round-robin), which replies with [`Frame::HelloAck`].
    Hello {
        /// Requested worker id, or [`ANY_WORKER`].
        preferred_worker: u32,
    },
    /// Worker → client: the connection is live on `worker_id`. Clients
    /// route events by `route_mix(dst) % num_workers` and send each on
    /// the matching connection to preserve per-target order.
    HelloAck {
        /// The worker that owns this connection.
        worker_id: u32,
        /// Worker count, for client-side routing.
        num_workers: u32,
    },
    /// Client → worker: a micro-batch of events (a single event is a
    /// batch of one). `tag` is client-assigned and echoed on every
    /// [`Frame::Deliver`]/[`Frame::Shed`] this batch produces, which is
    /// what lets a load generator measure end-to-end latency.
    Ingest {
        /// Client-assigned correlation tag.
        tag: u64,
        /// Events, already routed to this connection's worker.
        events: Vec<EdgeEvent>,
    },
    /// Client → worker: start receiving [`Frame::Deliver`] frames for
    /// candidates detected on this worker.
    Subscribe,
    /// Worker → subscriber: candidates produced by the ingest batch
    /// tagged `tag`.
    Deliver {
        /// The triggering batch's tag.
        tag: u64,
        /// Raw candidates (pre-funnel).
        candidates: Vec<Candidate>,
    },
    /// Worker → client: the tagged ingest batch was refused whole.
    Shed {
        /// The refused batch's tag.
        tag: u64,
        /// Why it was refused.
        code: ShedCode,
        /// Hint: retry no sooner than this many µs from receipt.
        retry_after_us: u64,
    },
    /// Either direction: a typed failure.
    Error {
        /// Error class.
        code: WireErrorCode,
        /// Human-readable detail (diagnostic only, not part of the
        /// contract).
        detail: String,
    },
    /// Control: publish an `MGRD` graph delta (bytes as written by
    /// `magicrecs_graph::save_delta`) into the engine's snapshot slot.
    /// Replies [`Frame::OkAck`] or [`Frame::Error`].
    DeltaPublish {
        /// Serialized delta.
        bytes: Vec<u8>,
    },
    /// Control: trigger a checkpoint. Replies [`Frame::OkAck`], or
    /// [`Frame::Error`] with [`WireErrorCode::Unsupported`] when the
    /// server runs a volatile engine.
    CheckpointReq,
    /// Control reply: success without payload.
    OkAck,
    /// Client → worker: reply [`Frame::BarrierAck`] once every frame
    /// received before this one on this connection has been fully
    /// processed (FIFO makes this a pure echo). Used to fence ingest.
    Barrier {
        /// Echoed verbatim.
        tag: u64,
    },
    /// Worker → client: the barrier `tag` has been reached.
    BarrierAck {
        /// The barrier's tag.
        tag: u64,
    },
    /// Control: request a full metrics-registry scrape
    /// ([`Frame::MetricsResp`]).
    MetricsReq,
    /// Control reply: flattened registry scrape as length-prefixed
    /// `(name, value)` entries (histograms appear as their
    /// `_count`/`_sum`/`_min`/`_max`/`_p50`/`_p90`/`_p99` projections).
    /// The payload carries its own [`METRICS_VERSION`] byte so the entry
    /// shape can grow without touching [`WIRE_VERSION`].
    MetricsResp {
        /// Sorted `(metric name, value)` pairs.
        metrics: Vec<(String, u64)>,
    },
    /// Leader → client: the tagged ingest batch is durable. `durable` /
    /// `replicated` are next-sequence watermarks (see [`ReplStatus`]): a
    /// batch whose events occupy seqs `s..s+n` is **acked** once
    /// `durable >= s+n` and may be dropped from the client's resend
    /// ledger once `replicated >= s+n` — before that, a kill -9 of the
    /// leader can lose the acked-but-unshipped tail and the client must
    /// be able to re-send it to the promoted follower.
    IngestAck {
        /// Partition the batch landed on.
        partition: u32,
        /// The acked batch's client-assigned tag.
        tag: u64,
        /// First sequence not yet durable on the leader.
        durable: u64,
        /// First sequence not yet confirmed shipped to the follower.
        replicated: u64,
    },
    /// Client → node: bind this connection's ingest stream to a
    /// partition at a routing epoch. Every later ingest on the
    /// connection is admitted through the partition's epoch gate at the
    /// bound epoch; a stale bind (or a later move) gets
    /// [`Frame::WrongLeader`]. Replies [`Frame::OkAck`] on success.
    RouteBind {
        /// Partition this connection will write.
        partition: u32,
        /// Routing epoch the client routed with.
        epoch: u64,
    },
    /// Node → client: the write (or bind) was refused because the
    /// partition's routing epoch moved on. The wire twin of
    /// [`Error::WrongLeader`].
    WrongLeader {
        /// Partition the write was aimed at.
        partition: u32,
        /// The refusing node's current epoch for that partition.
        epoch: u64,
        /// Node id believed to lead the partition now.
        hint: u32,
    },
    /// Follower → leader: list WAL segments that cover `from_seq`
    /// onward. Doubles as the follower's progress report: the leader
    /// takes `from_seq` as the follower's replicated watermark.
    SegmentsReq {
        /// Partition being tailed.
        partition: u32,
        /// First sequence the follower still needs.
        from_seq: u64,
    },
    /// Leader → follower: the shippable-segment catalog (every segment
    /// whose records could include `from_seq` or later), as
    /// `(first_seq, byte length)` pairs in ascending `first_seq` order.
    SegmentsResp {
        /// Partition being tailed.
        partition: u32,
        /// `(first_seq, byte length)` per shippable segment.
        segments: Vec<(u64, u64)>,
    },
    /// Follower → leader: fetch raw bytes of one WAL segment.
    SegmentFetch {
        /// Partition being tailed.
        partition: u32,
        /// The segment's first sequence (its catalog identity).
        first_seq: u64,
        /// Byte offset to read from.
        offset: u64,
        /// Most bytes wanted back (sender also caps at
        /// [`MAX_CHUNK_LEN`]).
        max_len: u32,
    },
    /// Leader → follower: raw segment bytes. Empty `bytes` means the
    /// segment currently ends at `offset` — poll again (growing tail) or
    /// re-list (a newer segment exists).
    SegmentChunk {
        /// Partition being tailed.
        partition: u32,
        /// The segment's first sequence.
        first_seq: u64,
        /// Offset these bytes start at.
        offset: u64,
        /// The bytes (possibly ending mid-record; the ship decoder is
        /// prefix-closed).
        bytes: Vec<u8>,
    },
    /// Coordinator → node: assume a role for a partition at a new epoch.
    /// Demotion (`leader: false`) fences ingest *before* the route
    /// flips; promotion (`leader: true`) opens the gate at the new
    /// epoch. Replies [`Frame::RoleChangeAck`].
    RoleChange {
        /// Partition changing hands.
        partition: u32,
        /// The new routing epoch.
        epoch: u64,
        /// Whether this node now leads the partition.
        leader: bool,
        /// Node id that leads the partition at `epoch`.
        hint: u32,
    },
    /// Node → coordinator: the role change is applied; `durable` is the
    /// node's WAL watermark at the instant the gate flipped — for a
    /// demotion this is the fence the new leader must reach before
    /// opening.
    RoleChangeAck {
        /// Partition that changed hands.
        partition: u32,
        /// The epoch that was applied.
        epoch: u64,
        /// First sequence not yet durable at the flip.
        durable: u64,
    },
    /// Peer → node: list the partition's checkpoint state files
    /// (rebalance bootstrap). Replies [`Frame::StateListResp`].
    StateListReq {
        /// Partition whose state is wanted.
        partition: u32,
    },
    /// Node → peer: checkpoint state files as `(name, byte length)`
    /// pairs. Names are bare file names inside the partition's state
    /// directory — never paths.
    StateListResp {
        /// Partition whose state is listed.
        partition: u32,
        /// `(file name, byte length)` per state file.
        files: Vec<(String, u64)>,
    },
    /// Peer → node: fetch raw bytes of one checkpoint state file.
    StateFetch {
        /// Partition whose state is wanted.
        partition: u32,
        /// Bare file name from [`Frame::StateListResp`].
        name: String,
        /// Byte offset to read from.
        offset: u64,
        /// Most bytes wanted back.
        max_len: u32,
    },
    /// Node → peer: raw state-file bytes. Empty `bytes` = end of file.
    StateChunk {
        /// Partition whose state is shipped.
        partition: u32,
        /// The file these bytes belong to.
        name: String,
        /// Offset these bytes start at.
        offset: u64,
        /// The bytes.
        bytes: Vec<u8>,
    },
    /// Coordinator → node: start (or re-point) the warm-follower tailer
    /// for a partition, shipping from the node at `source`
    /// (`host:port`). Replies [`Frame::OkAck`].
    FollowReq {
        /// Partition to follow.
        partition: u32,
        /// Loopback address of the node to ship from.
        source: String,
    },
    /// Control: request a [`Frame::StatusResp`] for one partition.
    StatusReq {
        /// Partition whose status is wanted.
        partition: u32,
    },
    /// Control reply: the node's replication status for a partition.
    StatusResp(ReplStatus),
}

fn kind_to_byte(k: EdgeKind) -> u8 {
    match k {
        EdgeKind::Follow => 0,
        EdgeKind::Unfollow => 1,
        EdgeKind::Retweet => 2,
        EdgeKind::Favorite => 3,
    }
}

fn kind_from_byte(b: u8) -> Result<EdgeKind> {
    match b {
        0 => Ok(EdgeKind::Follow),
        1 => Ok(EdgeKind::Unfollow),
        2 => Ok(EdgeKind::Retweet),
        3 => Ok(EdgeKind::Favorite),
        _ => Err(Error::Corrupt(format!("wire: unknown edge kind {b}"))),
    }
}

impl Frame {
    /// The wire type byte of this frame (the table in the crate docs).
    pub fn frame_type(&self) -> u8 {
        frame_type(self)
    }
}

fn frame_type(f: &Frame) -> u8 {
    match f {
        Frame::Hello { .. } => 0,
        Frame::HelloAck { .. } => 1,
        Frame::Ingest { .. } => 2,
        Frame::Subscribe => 3,
        Frame::Deliver { .. } => 4,
        Frame::Shed { .. } => 5,
        Frame::Error { .. } => 6,
        Frame::DeltaPublish { .. } => 7,
        Frame::CheckpointReq => 8,
        Frame::OkAck => 11,
        Frame::Barrier { .. } => 12,
        Frame::BarrierAck { .. } => 13,
        Frame::MetricsReq => 14,
        Frame::MetricsResp { .. } => 15,
        Frame::IngestAck { .. } => 16,
        Frame::RouteBind { .. } => 17,
        Frame::WrongLeader { .. } => 18,
        Frame::SegmentsReq { .. } => 19,
        Frame::SegmentsResp { .. } => 20,
        Frame::SegmentFetch { .. } => 21,
        Frame::SegmentChunk { .. } => 22,
        Frame::RoleChange { .. } => 23,
        Frame::RoleChangeAck { .. } => 24,
        Frame::StateListReq { .. } => 25,
        Frame::StateListResp { .. } => 26,
        Frame::StateFetch { .. } => 27,
        Frame::StateChunk { .. } => 28,
        Frame::FollowReq { .. } => 29,
        Frame::StatusReq { .. } => 30,
        Frame::StatusResp(_) => 31,
    }
}

/// Folds the integrity checksum over the frame's covered bytes.
fn checksum(ver: u8, ty: u8, payload: &[u8]) -> u64 {
    let mut c = Check::new();
    c.mix(ver as u64);
    c.mix(ty as u64);
    c.mix(payload.len() as u64);
    let mut chunks = payload.chunks_exact(8);
    for ch in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(ch);
        c.mix(u64::from_le_bytes(w));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        c.mix(u64::from_le_bytes(w));
    }
    c.finish()
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    // Writing into a Vec cannot fail.
    write_varint(out, v).expect("vec write");
}

fn encode_payload(f: &Frame, out: &mut Vec<u8>) {
    match f {
        Frame::Hello { preferred_worker } => put_varint(out, *preferred_worker as u64),
        Frame::HelloAck {
            worker_id,
            num_workers,
        } => {
            put_varint(out, *worker_id as u64);
            put_varint(out, *num_workers as u64);
        }
        Frame::Ingest { tag, events } => {
            put_varint(out, *tag);
            put_varint(out, events.len() as u64);
            for e in events {
                put_varint(out, e.src.raw());
                put_varint(out, e.dst.raw());
                put_varint(out, e.created_at.as_micros());
                out.push(kind_to_byte(e.kind));
            }
        }
        Frame::Subscribe | Frame::CheckpointReq | Frame::OkAck | Frame::MetricsReq => {}
        Frame::Deliver { tag, candidates } => {
            put_varint(out, *tag);
            put_varint(out, candidates.len() as u64);
            for c in candidates {
                put_varint(out, c.user.raw());
                put_varint(out, c.target.raw());
                put_varint(out, c.triggered_at.as_micros());
                put_varint(out, c.witnesses.len() as u64);
                for w in &c.witnesses {
                    put_varint(out, w.raw());
                }
            }
        }
        Frame::Shed {
            tag,
            code,
            retry_after_us,
        } => {
            put_varint(out, *tag);
            out.push(code.to_byte());
            put_varint(out, *retry_after_us);
        }
        Frame::Error { code, detail } => {
            out.push(code.to_byte());
            put_varint(out, detail.len() as u64);
            out.extend_from_slice(detail.as_bytes());
        }
        Frame::DeltaPublish { bytes } => {
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        Frame::Barrier { tag } | Frame::BarrierAck { tag } => put_varint(out, *tag),
        Frame::MetricsResp { metrics } => {
            out.push(METRICS_VERSION);
            put_varint(out, metrics.len() as u64);
            for (name, value) in metrics {
                put_varint(out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                put_varint(out, *value);
            }
        }
        Frame::IngestAck {
            partition,
            tag,
            durable,
            replicated,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *tag);
            put_varint(out, *durable);
            put_varint(out, *replicated);
        }
        Frame::RouteBind { partition, epoch } => {
            put_varint(out, *partition as u64);
            put_varint(out, *epoch);
        }
        Frame::WrongLeader {
            partition,
            epoch,
            hint,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *epoch);
            put_varint(out, *hint as u64);
        }
        Frame::SegmentsReq {
            partition,
            from_seq,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *from_seq);
        }
        Frame::SegmentsResp {
            partition,
            segments,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, segments.len() as u64);
            for (first_seq, len) in segments {
                put_varint(out, *first_seq);
                put_varint(out, *len);
            }
        }
        Frame::SegmentFetch {
            partition,
            first_seq,
            offset,
            max_len,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *first_seq);
            put_varint(out, *offset);
            put_varint(out, *max_len as u64);
        }
        Frame::SegmentChunk {
            partition,
            first_seq,
            offset,
            bytes,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *first_seq);
            put_varint(out, *offset);
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        Frame::RoleChange {
            partition,
            epoch,
            leader,
            hint,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *epoch);
            out.push(*leader as u8);
            put_varint(out, *hint as u64);
        }
        Frame::RoleChangeAck {
            partition,
            epoch,
            durable,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, *epoch);
            put_varint(out, *durable);
        }
        Frame::StateListReq { partition } | Frame::StatusReq { partition } => {
            put_varint(out, *partition as u64);
        }
        Frame::StateListResp { partition, files } => {
            put_varint(out, *partition as u64);
            put_varint(out, files.len() as u64);
            for (name, len) in files {
                put_varint(out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                put_varint(out, *len);
            }
        }
        Frame::StateFetch {
            partition,
            name,
            offset,
            max_len,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put_varint(out, *offset);
            put_varint(out, *max_len as u64);
        }
        Frame::StateChunk {
            partition,
            name,
            offset,
            bytes,
        } => {
            put_varint(out, *partition as u64);
            put_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put_varint(out, *offset);
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        Frame::FollowReq { partition, source } => {
            put_varint(out, *partition as u64);
            put_varint(out, source.len() as u64);
            out.extend_from_slice(source.as_bytes());
        }
        Frame::StatusResp(s) => {
            put_varint(out, s.partition as u64);
            out.push(s.leading as u8);
            put_varint(out, s.epoch);
            put_varint(out, s.durable);
            put_varint(out, s.applied);
            put_varint(out, s.replicated);
        }
    }
}

/// Appends the frame's wire bytes to `out`.
pub fn encode_into(f: &Frame, out: &mut Vec<u8>) {
    let ty = frame_type(f);
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length backpatched below
    out.push(WIRE_VERSION);
    out.push(ty);
    let payload_start = out.len();
    encode_payload(f, out);
    let check = checksum(WIRE_VERSION, ty, &out[payload_start..]);
    out.extend_from_slice(&check.to_le_bytes());
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one frame to a fresh buffer.
pub fn encode(f: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_into(f, &mut out);
    out
}

fn read_u32_field(r: &mut &[u8], what: &str) -> Result<u32> {
    let v = read_varint_checked(r, what)?;
    u32::try_from(v).map_err(|_| Error::Corrupt(format!("wire: {what} {v} exceeds u32")))
}

fn read_event(r: &mut &[u8]) -> Result<EdgeEvent> {
    let src = UserId(read_varint_checked(r, "wire event src")?);
    let dst = UserId(read_varint_checked(r, "wire event dst")?);
    let at = Timestamp::from_micros(read_varint_checked(r, "wire event time")?);
    let mut kb = [0u8; 1];
    read_exact_checked(r, &mut kb, "wire event kind")?;
    Ok(EdgeEvent {
        src,
        dst,
        created_at: at,
        kind: kind_from_byte(kb[0])?,
    })
}

fn read_candidate(r: &mut &[u8]) -> Result<Candidate> {
    let user = UserId(read_varint_checked(r, "wire cand user")?);
    let target = UserId(read_varint_checked(r, "wire cand target")?);
    let at = Timestamp::from_micros(read_varint_checked(r, "wire cand time")?);
    let n = read_varint_checked(r, "wire cand witness count")? as usize;
    if n > r.len() {
        return Err(Error::Corrupt(format!(
            "wire: witness count {n} exceeds remaining payload {}",
            r.len()
        )));
    }
    let mut witnesses = Vec::with_capacity(n);
    for _ in 0..n {
        witnesses.push(UserId(read_varint_checked(r, "wire cand witness")?));
    }
    Ok(Candidate {
        user,
        target,
        witnesses,
        triggered_at: at,
    })
}

/// Claimed element counts are validated against the remaining payload
/// (every element costs ≥ `min_bytes`), so a corrupt count can never
/// drive a large allocation.
fn checked_count(r: &[u8], n: u64, min_bytes: usize, what: &str) -> Result<usize> {
    let n = n as usize;
    if n.saturating_mul(min_bytes) > r.len() {
        return Err(Error::Corrupt(format!(
            "wire: {what} count {n} exceeds remaining payload {}",
            r.len()
        )));
    }
    Ok(n)
}

/// Reads a length-prefixed UTF-8 string, validating the claimed length
/// against the remaining payload first.
fn read_string(r: &mut &[u8], what: &str) -> Result<String> {
    let n = read_varint_checked(r, what)?;
    let n = checked_count(r, n, 1, what)?;
    let mut bytes = vec![0u8; n];
    read_exact_checked(r, &mut bytes, what)?;
    String::from_utf8(bytes).map_err(|_| Error::Corrupt(format!("wire: {what} not utf-8")))
}

/// Reads a length-prefixed raw byte blob with the same count guard.
fn read_bytes(r: &mut &[u8], what: &str) -> Result<Vec<u8>> {
    let n = read_varint_checked(r, what)?;
    let n = checked_count(r, n, 1, what)?;
    let mut bytes = vec![0u8; n];
    read_exact_checked(r, &mut bytes, what)?;
    Ok(bytes)
}

fn read_bool(r: &mut &[u8], what: &str) -> Result<bool> {
    let mut b = [0u8; 1];
    read_exact_checked(r, &mut b, what)?;
    match b[0] {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(Error::Corrupt(format!("wire: {what} byte {v} not a bool"))),
    }
}

fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame> {
    let mut r = payload;
    let f = match ty {
        0 => Frame::Hello {
            preferred_worker: read_u32_field(&mut r, "wire hello worker")?,
        },
        1 => Frame::HelloAck {
            worker_id: read_u32_field(&mut r, "wire ack worker")?,
            num_workers: read_u32_field(&mut r, "wire ack workers")?,
        },
        2 => {
            let tag = read_varint_checked(&mut r, "wire ingest tag")?;
            let n = read_varint_checked(&mut r, "wire ingest count")?;
            let n = checked_count(r, n, 4, "event")?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(read_event(&mut r)?);
            }
            Frame::Ingest { tag, events }
        }
        3 => Frame::Subscribe,
        4 => {
            let tag = read_varint_checked(&mut r, "wire deliver tag")?;
            let n = read_varint_checked(&mut r, "wire deliver count")?;
            let n = checked_count(r, n, 4, "candidate")?;
            let mut candidates = Vec::with_capacity(n);
            for _ in 0..n {
                candidates.push(read_candidate(&mut r)?);
            }
            Frame::Deliver { tag, candidates }
        }
        5 => {
            let tag = read_varint_checked(&mut r, "wire shed tag")?;
            let mut cb = [0u8; 1];
            read_exact_checked(&mut r, &mut cb, "wire shed code")?;
            Frame::Shed {
                tag,
                code: ShedCode::from_byte(cb[0])?,
                retry_after_us: read_varint_checked(&mut r, "wire shed retry")?,
            }
        }
        6 => {
            let mut cb = [0u8; 1];
            read_exact_checked(&mut r, &mut cb, "wire error code")?;
            let n = read_varint_checked(&mut r, "wire error len")?;
            let n = checked_count(r, n, 1, "error byte")?;
            let mut bytes = vec![0u8; n];
            read_exact_checked(&mut r, &mut bytes, "wire error detail")?;
            Frame::Error {
                code: WireErrorCode::from_byte(cb[0])?,
                detail: String::from_utf8(bytes)
                    .map_err(|_| Error::Corrupt("wire: error detail not utf-8".into()))?,
            }
        }
        7 => {
            let n = read_varint_checked(&mut r, "wire delta len")?;
            let n = checked_count(r, n, 1, "delta byte")?;
            let mut bytes = vec![0u8; n];
            read_exact_checked(&mut r, &mut bytes, "wire delta bytes")?;
            Frame::DeltaPublish { bytes }
        }
        8 => Frame::CheckpointReq,
        // 9 and 10 are retired (the old fixed-field stats frames): they
        // decode to the unknown-frame error, and must not be reused.
        11 => Frame::OkAck,
        12 => Frame::Barrier {
            tag: read_varint_checked(&mut r, "wire barrier tag")?,
        },
        13 => Frame::BarrierAck {
            tag: read_varint_checked(&mut r, "wire barrier tag")?,
        },
        14 => Frame::MetricsReq,
        15 => {
            let mut vb = [0u8; 1];
            read_exact_checked(&mut r, &mut vb, "wire metrics version")?;
            if vb[0] != METRICS_VERSION {
                return Err(Error::Corrupt(format!(
                    "wire: metrics payload version {}, expected {METRICS_VERSION}",
                    vb[0]
                )));
            }
            let n = read_varint_checked(&mut r, "wire metrics count")?;
            // Each entry costs at least a name-length varint + a value
            // varint, even with an empty name.
            let n = checked_count(r, n, 2, "metric")?;
            let mut metrics = Vec::with_capacity(n);
            for _ in 0..n {
                let len = read_varint_checked(&mut r, "wire metric name len")?;
                let len = checked_count(r, len, 1, "metric name byte")?;
                let mut bytes = vec![0u8; len];
                read_exact_checked(&mut r, &mut bytes, "wire metric name")?;
                let name = String::from_utf8(bytes)
                    .map_err(|_| Error::Corrupt("wire: metric name not utf-8".into()))?;
                let value = read_varint_checked(&mut r, "wire metric value")?;
                metrics.push((name, value));
            }
            Frame::MetricsResp { metrics }
        }
        16 => Frame::IngestAck {
            partition: read_u32_field(&mut r, "wire ack partition")?,
            tag: read_varint_checked(&mut r, "wire ack tag")?,
            durable: read_varint_checked(&mut r, "wire ack durable")?,
            replicated: read_varint_checked(&mut r, "wire ack replicated")?,
        },
        17 => Frame::RouteBind {
            partition: read_u32_field(&mut r, "wire bind partition")?,
            epoch: read_varint_checked(&mut r, "wire bind epoch")?,
        },
        18 => Frame::WrongLeader {
            partition: read_u32_field(&mut r, "wire wrongleader partition")?,
            epoch: read_varint_checked(&mut r, "wire wrongleader epoch")?,
            hint: read_u32_field(&mut r, "wire wrongleader hint")?,
        },
        19 => Frame::SegmentsReq {
            partition: read_u32_field(&mut r, "wire segreq partition")?,
            from_seq: read_varint_checked(&mut r, "wire segreq from")?,
        },
        20 => {
            let partition = read_u32_field(&mut r, "wire segresp partition")?;
            let n = read_varint_checked(&mut r, "wire segresp count")?;
            let n = checked_count(r, n, 2, "segment entry")?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                let first_seq = read_varint_checked(&mut r, "wire segresp first_seq")?;
                let len = read_varint_checked(&mut r, "wire segresp len")?;
                segments.push((first_seq, len));
            }
            Frame::SegmentsResp {
                partition,
                segments,
            }
        }
        21 => Frame::SegmentFetch {
            partition: read_u32_field(&mut r, "wire segfetch partition")?,
            first_seq: read_varint_checked(&mut r, "wire segfetch first_seq")?,
            offset: read_varint_checked(&mut r, "wire segfetch offset")?,
            max_len: read_u32_field(&mut r, "wire segfetch max_len")?,
        },
        22 => Frame::SegmentChunk {
            partition: read_u32_field(&mut r, "wire segchunk partition")?,
            first_seq: read_varint_checked(&mut r, "wire segchunk first_seq")?,
            offset: read_varint_checked(&mut r, "wire segchunk offset")?,
            bytes: read_bytes(&mut r, "wire segchunk bytes")?,
        },
        23 => Frame::RoleChange {
            partition: read_u32_field(&mut r, "wire role partition")?,
            epoch: read_varint_checked(&mut r, "wire role epoch")?,
            leader: read_bool(&mut r, "wire role leader")?,
            hint: read_u32_field(&mut r, "wire role hint")?,
        },
        24 => Frame::RoleChangeAck {
            partition: read_u32_field(&mut r, "wire roleack partition")?,
            epoch: read_varint_checked(&mut r, "wire roleack epoch")?,
            durable: read_varint_checked(&mut r, "wire roleack durable")?,
        },
        25 => Frame::StateListReq {
            partition: read_u32_field(&mut r, "wire statelist partition")?,
        },
        26 => {
            let partition = read_u32_field(&mut r, "wire statelist partition")?;
            let n = read_varint_checked(&mut r, "wire statelist count")?;
            // Each entry costs at least a name-length varint + a size
            // varint, even with an empty name.
            let n = checked_count(r, n, 2, "state file entry")?;
            let mut files = Vec::with_capacity(n);
            for _ in 0..n {
                let name = read_string(&mut r, "wire state file name")?;
                let len = read_varint_checked(&mut r, "wire state file len")?;
                files.push((name, len));
            }
            Frame::StateListResp { partition, files }
        }
        27 => Frame::StateFetch {
            partition: read_u32_field(&mut r, "wire statefetch partition")?,
            name: read_string(&mut r, "wire statefetch name")?,
            offset: read_varint_checked(&mut r, "wire statefetch offset")?,
            max_len: read_u32_field(&mut r, "wire statefetch max_len")?,
        },
        28 => Frame::StateChunk {
            partition: read_u32_field(&mut r, "wire statechunk partition")?,
            name: read_string(&mut r, "wire statechunk name")?,
            offset: read_varint_checked(&mut r, "wire statechunk offset")?,
            bytes: read_bytes(&mut r, "wire statechunk bytes")?,
        },
        29 => Frame::FollowReq {
            partition: read_u32_field(&mut r, "wire follow partition")?,
            source: read_string(&mut r, "wire follow source")?,
        },
        30 => Frame::StatusReq {
            partition: read_u32_field(&mut r, "wire status partition")?,
        },
        31 => Frame::StatusResp(ReplStatus {
            partition: read_u32_field(&mut r, "wire status partition")?,
            leading: read_bool(&mut r, "wire status leading")?,
            epoch: read_varint_checked(&mut r, "wire status epoch")?,
            durable: read_varint_checked(&mut r, "wire status durable")?,
            applied: read_varint_checked(&mut r, "wire status applied")?,
            replicated: read_varint_checked(&mut r, "wire status replicated")?,
        }),
        _ => return Err(Error::Corrupt(format!("wire: unknown frame type {ty}"))),
    };
    if !r.is_empty() {
        return Err(Error::Corrupt(format!(
            "wire: {} trailing payload bytes after frame type {ty}",
            r.len()
        )));
    }
    Ok(f)
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds an incomplete frame; read more bytes.
/// * `Ok(Some((frame, consumed)))` — one frame decoded; drop `consumed`
///   bytes from the front of `buf`.
/// * `Err(Corrupt)` — the stream is damaged beyond resynchronization;
///   close the connection.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(Error::Corrupt(format!(
            "wire: frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
        )));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = &buf[4..4 + len];
    let ver = body[0];
    if ver != WIRE_VERSION {
        return Err(Error::Corrupt(format!(
            "wire: version {ver}, expected {WIRE_VERSION}"
        )));
    }
    let ty = body[1];
    let payload = &body[2..len - 8];
    let mut cb = [0u8; 8];
    cb.copy_from_slice(&body[len - 8..]);
    let want = u64::from_le_bytes(cb);
    let got = checksum(ver, ty, payload);
    if want != got {
        return Err(Error::Corrupt(format!(
            "wire: checksum mismatch on frame type {ty} ({got:#x} != {want:#x})"
        )));
    }
    Ok(Some((decode_payload(ty, payload)?, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                preferred_worker: ANY_WORKER,
            },
            Frame::HelloAck {
                worker_id: 3,
                num_workers: 8,
            },
            Frame::Ingest {
                tag: 42,
                events: vec![
                    EdgeEvent::follow(UserId(1), UserId(2), Timestamp::from_secs(5)),
                    EdgeEvent::unfollow(UserId(9), UserId(2), Timestamp::from_secs(6)),
                    EdgeEvent {
                        src: UserId(7),
                        dst: UserId(8),
                        created_at: Timestamp::from_micros(123_456_789),
                        kind: EdgeKind::Retweet,
                    },
                ],
            },
            Frame::Subscribe,
            Frame::Deliver {
                tag: 42,
                candidates: vec![Candidate {
                    user: UserId(10),
                    target: UserId(2),
                    witnesses: vec![UserId(1), UserId(9)],
                    triggered_at: Timestamp::from_secs(6),
                }],
            },
            Frame::Shed {
                tag: 43,
                code: ShedCode::RateLimited,
                retry_after_us: 1500,
            },
            Frame::Error {
                code: WireErrorCode::Unsupported,
                detail: "no checkpoint hook".into(),
            },
            Frame::DeltaPublish {
                bytes: vec![1, 2, 3, 250],
            },
            Frame::CheckpointReq,
            Frame::OkAck,
            Frame::Barrier { tag: u64::MAX },
            Frame::BarrierAck { tag: 0 },
            Frame::MetricsReq,
            Frame::MetricsResp {
                metrics: vec![
                    ("engine_events".to_string(), 100),
                    ("stage_detect_us_p99".to_string(), 80),
                    (String::new(), 0),
                ],
            },
            Frame::IngestAck {
                partition: 2,
                tag: 42,
                durable: 1000,
                replicated: 988,
            },
            Frame::RouteBind {
                partition: 2,
                epoch: 3,
            },
            Frame::WrongLeader {
                partition: 2,
                epoch: 4,
                hint: 1,
            },
            Frame::SegmentsReq {
                partition: 2,
                from_seq: 988,
            },
            Frame::SegmentsResp {
                partition: 2,
                segments: vec![(0, 4096), (512, 128), (1024, 0)],
            },
            Frame::SegmentFetch {
                partition: 2,
                first_seq: 512,
                offset: 64,
                max_len: MAX_CHUNK_LEN as u32,
            },
            Frame::SegmentChunk {
                partition: 2,
                first_seq: 512,
                offset: 64,
                bytes: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Frame::SegmentChunk {
                partition: 2,
                first_seq: 512,
                offset: 68,
                bytes: Vec::new(),
            },
            Frame::RoleChange {
                partition: 2,
                epoch: 4,
                leader: true,
                hint: 1,
            },
            Frame::RoleChangeAck {
                partition: 2,
                epoch: 4,
                durable: 1000,
            },
            Frame::StateListReq { partition: 2 },
            Frame::StateListResp {
                partition: 2,
                files: vec![
                    ("base-000042.mgrs".to_string(), 1 << 16),
                    ("delta-000043.mgci".to_string(), 777),
                    (String::new(), 0),
                ],
            },
            Frame::StateFetch {
                partition: 2,
                name: "base-000042.mgrs".to_string(),
                offset: 0,
                max_len: 4096,
            },
            Frame::StateChunk {
                partition: 2,
                name: "base-000042.mgrs".to_string(),
                offset: 0,
                bytes: vec![7; 32],
            },
            Frame::FollowReq {
                partition: 2,
                source: "127.0.0.1:41001".to_string(),
            },
            Frame::StatusReq { partition: 2 },
            Frame::StatusResp(ReplStatus {
                partition: 2,
                leading: false,
                epoch: 4,
                durable: 988,
                applied: 988,
                replicated: 0,
            }),
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for f in sample_frames() {
            let bytes = encode(&f);
            let (got, consumed) = decode(&bytes).unwrap().unwrap();
            assert_eq!(got, f);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn stream_of_frames_decodes_in_order() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_into(f, &mut stream);
        }
        let mut off = 0;
        let mut got = Vec::new();
        while let Some((f, used)) = decode(&stream[off..]).unwrap() {
            got.push(f);
            off += used;
        }
        assert_eq!(off, stream.len());
        assert_eq!(got, frames);
    }

    #[test]
    fn incomplete_prefixes_report_none() {
        let bytes = encode(&Frame::Barrier { tag: 77 });
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]).unwrap(),
                None,
                "cut at {cut} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn oversized_length_is_typed_corrupt() {
        let mut bytes = encode(&Frame::Subscribe);
        bytes[..4].copy_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
        // Undersized too: a length that cannot even hold the checksum.
        bytes[..4].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn wrong_version_is_typed_corrupt() {
        let mut bytes = encode(&Frame::Subscribe);
        bytes[4] = WIRE_VERSION + 1;
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_counts_cannot_drive_allocation() {
        // Hand-craft an ingest frame claiming 2^40 events with an empty
        // payload tail; the count check must reject it before allocating.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // tag
        put_varint(&mut payload, 1 << 40); // event count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.push(WIRE_VERSION);
        bytes.push(2); // ingest
        bytes.extend_from_slice(&payload);
        let check = checksum(WIRE_VERSION, 2, &payload);
        bytes.extend_from_slice(&check.to_le_bytes());
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn metrics_payload_version_mismatch_is_typed_corrupt() {
        let mut bytes = encode(&Frame::MetricsResp {
            metrics: vec![("x".to_string(), 1)],
        });
        // The payload version byte sits right after the frame header
        // (len + ver + type); bumping it must fail typed, not misparse.
        bytes[6] = METRICS_VERSION + 1;
        let check = checksum(WIRE_VERSION, 15, &bytes[6..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&check.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_metric_count_cannot_drive_allocation() {
        let mut payload = Vec::new();
        payload.push(METRICS_VERSION);
        put_varint(&mut payload, 1 << 40); // entry count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.push(WIRE_VERSION);
        bytes.push(15); // metrics resp
        bytes.extend_from_slice(&payload);
        let check = checksum(WIRE_VERSION, 15, &payload);
        bytes.extend_from_slice(&check.to_le_bytes());
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn trailing_payload_bytes_are_typed_corrupt() {
        // A Subscribe frame with one extra payload byte: checksum valid,
        // parse must still reject the leftover.
        let payload = [0xAAu8];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.push(WIRE_VERSION);
        bytes.push(3); // subscribe
        bytes.extend_from_slice(&payload);
        let check = checksum(WIRE_VERSION, 3, &payload);
        bytes.extend_from_slice(&check.to_le_bytes());
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Corrupt(_))));
    }
}
