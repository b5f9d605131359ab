//! The write-ahead log for `D`: append-only segments of stream events.
//!
//! Every event is framed as `len | crc32 | payload` (see the crate docs
//! for the byte layout) and carries an explicit, strictly-ascending
//! sequence number, so the recovery replay can resume exactly after the
//! last checkpointed event. Segments roll at a byte threshold; fsync is
//! batched by policy; and segments whose every record is both past the
//! store's retention window **and** covered by a `D` checkpoint are
//! reclaimed — the log is bounded by `τ` + checkpoint cadence, not by
//! uptime.
//!
//! ## Group commit
//!
//! [`Wal::append_batch`] is the hot-path entry point: it encodes all N
//! frames of a micro-batch into the one reused buffer, assigns a dense
//! run of sequences, and lands them with a **single `write(2)`** —
//! [`Wal::append`] is the N = 1 special case of the same code path, so a
//! batch's segment bytes are byte-identical to N single appends. The
//! only places a batch's write splits are a segment roll or an interior
//! [`FsyncPolicy::EveryN`] `n`-record mark (huge batches only).
//!
//! Durability is what batching actually amortizes: **a batch is one
//! durability unit** — the [`FsyncPolicy`] ticks once per append *call*,
//! so `EveryN(n)` syncs every `n` batches instead of every `n` records
//! (per-event appends are one-record batches, keeping the historical
//! per-record cadence exactly). What a batch may never do is defer more
//! than `n` records inside one call: an `EveryN(n)` batch of `N ≥ n`
//! records syncs at every interior `n`-record boundary — `⌈N/n⌉` syncs
//! for an `n`-aligned batch, each on a record boundary, never mid-frame
//! (regression-tested). See [`FsyncPolicy`] for the exposure-bound
//! contract this trades.
//!
//! [`SharedWal::append_batch`] pre-partitions a batch by the hash route,
//! takes each partition lock **at most once**, and assigns each
//! partition's sub-batch a dense run of global sequences under that one
//! lock hold.
//!
//! Crash semantics: a torn record at the very end of the newest segment is
//! the expected signature of a crash mid-append — scanning stops there and
//! [`Wal::open`] truncates it away before appending resumes. Torn or
//! corrupt bytes anywhere *before* the tail mean lost history and are
//! refused as [`Error::Corrupt`].

use crate::crc::crc32;
use crate::metrics;
use crate::vfs::{std_vfs, Vfs, VfsFile};
use magicrecs_graph::io::{read_varint, write_varint};
use magicrecs_obs::{recorder, TraceKind};
use magicrecs_types::{EdgeEvent, EdgeKind, Error, Result, Timestamp, UserId};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub(crate) const MAGIC: &[u8; 4] = b"MGWL";
pub(crate) const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: u64 = 16;
/// Sanity bound on a record's payload (real records are ~30 bytes); a
/// bigger length field is torn/corrupt framing, not a huge record.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 16;

/// When appended records are pushed to durable storage.
///
/// The policy counts **durability units**, not records: one
/// [`Wal::append`] is one unit, and one [`Wal::append_batch`] is one
/// unit no matter how many records it carries (group commit — the batch
/// succeeds or tears as a whole, so syncing inside it buys nothing).
/// With per-event appends this is exactly the historical per-record
/// behavior; with micro-batches the caller chooses its own exposure by
/// choosing the batch size. One cap keeps huge batches honest: a single
/// call never defers more than `n` records — an [`FsyncPolicy::EveryN`]
/// batch of `N ≥ n` records syncs at every interior `n`-record boundary
/// (`⌈N/n⌉` syncs for an `n`-aligned batch), always on a record
/// boundary, never mid-frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append call (a batch is one call — the
    /// classic group commit). Maximal durability, minimal throughput.
    Always,
    /// `fdatasync` every `n` durability units and on segment roll/close —
    /// the production default; at most `n` un-synced units (minus what
    /// the OS already wrote back) are exposed to power loss: `n` events
    /// under per-event appends, `n` micro-batches under batched ingest.
    EveryN(u64),
    /// Never sync explicitly; the OS flushes on its own schedule. For
    /// tests and benches.
    Never,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::EveryN(256),
            segment_bytes: 1 << 20,
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number.
    pub seq: u64,
    /// The logged event.
    pub event: EdgeEvent,
}

/// Outcome of a replay scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Complete records visited.
    pub records: u64,
    /// Sequence of the last complete record, if any.
    pub last_seq: Option<u64>,
    /// Whether the newest segment ended in a torn (incomplete) record.
    pub torn_tail: bool,
}

/// A record boundary: the file prefix length that ends exactly after the
/// record with sequence `seq` — the kill-point matrix truncates here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordBoundary {
    /// Segment file holding the record.
    pub path: PathBuf,
    /// Byte length of the file prefix ending at this record's end.
    pub offset_after: u64,
    /// The record's sequence number.
    pub seq: u64,
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

/// Appends a full `len | crc32 | payload` frame at `buf`'s current end
/// (the buffer is reused across appends and shared by a whole batch —
/// one buffer, one eventual `write(2)`, no per-event allocation).
fn encode_frame(buf: &mut Vec<u8>, seq: u64, event: EdgeEvent) {
    let base = buf.len();
    buf.extend_from_slice(&[0u8; 8]); // len + crc backfilled below
    write_varint(buf, seq).expect("vec write is infallible");
    let kind = match event.kind {
        EdgeKind::Follow => 0u8,
        EdgeKind::Unfollow => 1,
        EdgeKind::Retweet => 2,
        EdgeKind::Favorite => 3,
    };
    buf.push(kind);
    write_varint(buf, event.src.raw()).expect("vec write is infallible");
    write_varint(buf, event.dst.raw()).expect("vec write is infallible");
    write_varint(buf, event.created_at.as_micros()).expect("vec write is infallible");
    let len = (buf.len() - base - 8) as u32;
    let crc = crc32(&buf[base + 8..]);
    buf[base..base + 4].copy_from_slice(&len.to_le_bytes());
    buf[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
}

pub(crate) fn decode_payload(mut payload: &[u8]) -> Option<WalRecord> {
    let r = &mut payload;
    let seq = read_varint(r).ok()?;
    let mut k = [0u8; 1];
    r.read_exact(&mut k).ok()?;
    let kind = match k[0] {
        0 => EdgeKind::Follow,
        1 => EdgeKind::Unfollow,
        2 => EdgeKind::Retweet,
        3 => EdgeKind::Favorite,
        _ => return None,
    };
    let src = read_varint(r).ok()?;
    let dst = read_varint(r).ok()?;
    let at = read_varint(r).ok()?;
    if !r.is_empty() {
        return None; // trailing garbage inside a crc-valid frame
    }
    Some(WalRecord {
        seq,
        event: EdgeEvent {
            src: UserId(src),
            dst: UserId(dst),
            created_at: Timestamp::from_micros(at),
            kind,
        },
    })
}

/// Everything a scan learns about one segment file.
#[derive(Debug)]
struct SegmentScan {
    last_seq: Option<u64>,
    max_ts: Timestamp,
    /// File length up to (and including) the last complete record.
    valid_bytes: u64,
    /// Whether bytes past `valid_bytes` exist (torn tail / corruption).
    torn: bool,
}

/// Reads `buf.len()` bytes if available; returns how many were read
/// (short only at EOF).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        let got = r.read(&mut buf[n..])?;
        if got == 0 {
            break;
        }
        n += got;
    }
    Ok(n)
}

/// Scans one segment, calling `on_record` for every complete record.
fn scan_segment(path: &Path, mut on_record: impl FnMut(WalRecord, u64)) -> Result<SegmentScan> {
    let ctx = || format!("wal segment {}", path.display());
    let file = File::open(path).map_err(|e| io_err(&ctx(), e))?;
    let mut r = std::io::BufReader::new(file);

    let mut header = [0u8; HEADER_LEN as usize];
    let got = read_fully(&mut r, &mut header).map_err(|e| io_err(&ctx(), e))?;
    if got < header.len() {
        // A crash can tear even the header of a freshly-rolled segment.
        return Ok(SegmentScan {
            last_seq: None,
            max_ts: Timestamp::ZERO,
            valid_bytes: 0,
            torn: true,
        });
    }
    if &header[0..4] != MAGIC {
        return Err(Error::Corrupt(format!("{}: bad segment magic", ctx())));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(Error::Corrupt(format!(
            "{}: unsupported segment version {version}",
            ctx()
        )));
    }
    let first_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));

    let mut offset = HEADER_LEN;
    let mut last_seq: Option<u64> = None;
    let mut max_ts = Timestamp::ZERO;
    let mut payload = Vec::new();
    loop {
        let mut frame = [0u8; 8];
        let got = read_fully(&mut r, &mut frame).map_err(|e| io_err(&ctx(), e))?;
        if got == 0 {
            // Clean end on a record boundary.
            return Ok(SegmentScan {
                last_seq,
                max_ts,
                valid_bytes: offset,
                torn: false,
            });
        }
        let torn = |offset| {
            Ok(SegmentScan {
                last_seq,
                max_ts,
                valid_bytes: offset,
                torn: true,
            })
        };
        if got < frame.len() {
            return torn(offset);
        }
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return torn(offset);
        }
        payload.resize(len as usize, 0);
        let got = read_fully(&mut r, &mut payload).map_err(|e| io_err(&ctx(), e))?;
        if got < payload.len() || crc32(&payload) != crc {
            return torn(offset);
        }
        let Some(record) = decode_payload(&payload) else {
            return torn(offset);
        };
        // A crc-valid record with out-of-order sequencing is not a torn
        // write — it is lost or reordered history.
        if record.seq < first_seq || last_seq.is_some_and(|l| record.seq <= l) {
            return Err(Error::Corrupt(format!(
                "{}: non-monotone sequence {} after {:?}",
                ctx(),
                record.seq,
                last_seq
            )));
        }
        offset += 8 + len as u64;
        last_seq = Some(record.seq);
        max_ts = max_ts.max(record.event.created_at);
        on_record(record, offset);
    }
}

/// Lists the segment files for `prefix` in `dir`, sorted by first
/// sequence (encoded zero-padded in the name). The match is anchored to
/// the exact segment-name shape — `<prefix><20 digits>.wal` — so the
/// retired single-log prefix `wal-` does not swallow a `SharedWal`'s
/// `wal-p3-` partition files living in the same directory.
pub(crate) fn list_segments(dir: &Path, prefix: &str) -> Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("wal dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("wal dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_segment = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(".wal"))
            .is_some_and(|digits| digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()));
        if is_segment {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Partition indices for which `SharedWal`-shaped segment files
/// (`wal-p<i>-…`) exist in `dir`.
fn existing_wal_partitions(dir: &Path) -> Result<Vec<usize>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("wal dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("wal dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(i) = name
            .strip_prefix("wal-p")
            .and_then(|rest| rest.split_once('-'))
            .and_then(|(idx, rest)| rest.ends_with(".wal").then(|| idx.parse::<usize>().ok())?)
        {
            out.push(i);
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Segment prefix of the retired single-log layout (`wal-<20 digits>`),
/// which recovery no longer replays.
const RETIRED_PREFIX: &str = "wal-";

/// Whether `dir` holds any WAL segment files at all — partitioned
/// (`wal-p<i>-…`) or of the retired single-log layout (`wal-…`).
/// Creation paths refuse such directories before publishing anything
/// into them.
pub(crate) fn any_segments(dir: &Path) -> Result<bool> {
    Ok(
        !list_segments(dir, RETIRED_PREFIX)?.is_empty()
            || !existing_wal_partitions(dir)?.is_empty(),
    )
}

/// Refuses a directory holding segments of the retired single-log
/// layout: opening it would restore `D` without that history. Only
/// reads the directory.
pub(crate) fn refuse_retired_layout(dir: &Path) -> Result<()> {
    match list_segments(dir, RETIRED_PREFIX)?.first() {
        Some(path) => Err(Error::Corrupt(format!(
            "{} is a segment of the retired single-log WAL layout, which recovery \
             no longer replays — opening would silently drop its history",
            path.display()
        ))),
        None => Ok(()),
    }
}

/// Path of the `prefix` segment whose first record is `first_seq` —
/// the one definition of the segment file name.
pub fn segment_path(dir: &Path, prefix: &str, first_seq: u64) -> PathBuf {
    dir.join(format!("{prefix}{first_seq:020}.wal"))
}

/// Replays every complete record with `seq >= min_seq` for one WAL
/// prefix in sequence order, tolerating (and reporting) a torn tail on
/// the newest segment only. A checkpoint covering through sequence `c`
/// resumes with `min_seq = c + 1`; a fresh recovery passes 0.
pub fn replay(
    dir: &Path,
    prefix: &str,
    min_seq: u64,
    mut f: impl FnMut(WalRecord),
) -> Result<ReplayStats> {
    let segments = list_segments(dir, prefix)?;
    let mut stats = ReplayStats::default();
    for (i, path) in segments.iter().enumerate() {
        let scan = scan_segment(path, |record, _| {
            if record.seq >= min_seq {
                f(record);
                stats.records += 1;
            }
            stats.last_seq = Some(record.seq);
        })?;
        if scan.torn {
            if i + 1 != segments.len() {
                return Err(Error::Corrupt(format!(
                    "wal segment {} has a torn tail but is not the newest segment — \
                     history after it would be lost",
                    path.display()
                )));
            }
            stats.torn_tail = true;
        }
    }
    Ok(stats)
}

/// Every record boundary for one WAL prefix, in sequence order — the
/// kill-point matrix truncates the file(s) at each of these.
pub fn record_boundaries(dir: &Path, prefix: &str) -> Result<Vec<RecordBoundary>> {
    let mut out = Vec::new();
    for path in list_segments(dir, prefix)? {
        scan_segment(&path, |record, offset_after| {
            out.push(RecordBoundary {
                path: path.clone(),
                offset_after,
                seq: record.seq,
            });
        })?;
    }
    out.sort_by_key(|b| b.seq);
    Ok(out)
}

/// Metadata for a closed (no longer written) segment.
#[derive(Debug, Clone)]
struct ClosedSegment {
    path: PathBuf,
    last_seq: u64,
    max_ts: Timestamp,
}

struct ActiveSegment {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    bytes: u64,
    last_seq: u64,
    max_ts: Timestamp,
}

/// A single-writer write-ahead log over one segment prefix.
pub struct Wal {
    dir: PathBuf,
    prefix: String,
    opts: WalOptions,
    vfs: Arc<dyn Vfs>,
    active: Option<ActiveSegment>,
    closed: Vec<ClosedSegment>,
    next_seq: u64,
    appends_since_sync: u64,
    syncs: u64,
    scratch: Vec<u8>,
    /// Set when a failed append left the active segment in a state this
    /// process cannot repair (garbage bytes past the last record
    /// boundary, or a sequence that was assigned but never landed).
    /// Further appends are refused: writing a valid record *after* the
    /// damage would make every later record — even acknowledged, fsynced
    /// ones — unrecoverable, because the replay scan stops at the first
    /// bad frame and treats the rest as a torn tail.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("prefix", &self.prefix)
            .field("next_seq", &self.next_seq)
            .field("closed_segments", &self.closed.len())
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Creates a fresh WAL in `dir` (created if missing). Refuses to
    /// create over existing segments of the same prefix — recovering into
    /// an existing log goes through [`Wal::open`].
    pub fn create(dir: &Path, prefix: &str, opts: WalOptions) -> Result<Wal> {
        Self::create_with_vfs(dir, prefix, opts, std_vfs())
    }

    /// [`Wal::create`] on an explicit I/O backend (see [`Vfs`]); the
    /// default constructor threads [`crate::StdVfs`].
    pub fn create_with_vfs(
        dir: &Path,
        prefix: &str,
        opts: WalOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("wal dir create", e))?;
        if !list_segments(dir, prefix)?.is_empty() {
            return Err(Error::Invariant(format!(
                "wal segments with prefix {prefix:?} already exist in {} — use Wal::open",
                dir.display()
            )));
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            opts,
            vfs,
            active: None,
            closed: Vec::new(),
            next_seq: 0,
            appends_since_sync: 0,
            syncs: 0,
            scratch: Vec::new(),
            poisoned: false,
        })
    }

    /// Opens an existing WAL for appending: scans the segments, **repairs
    /// the torn tail** of the newest one (truncating incomplete trailing
    /// bytes — the crash signature recovery already accounted for), and
    /// positions `next_seq` after the last surviving record.
    ///
    /// Callers replay first ([`replay`]), then open; the torn bytes the
    /// replay skipped are the same bytes this truncates.
    pub fn open(dir: &Path, prefix: &str, opts: WalOptions) -> Result<Wal> {
        Self::open_with_vfs(dir, prefix, opts, std_vfs())
    }

    /// [`Wal::open`] on an explicit I/O backend (see [`Vfs`]). Tail
    /// repair (truncation + fsync of the torn newest segment) runs
    /// through the backend, so injected repair failures surface typed
    /// here instead of panicking later.
    pub fn open_with_vfs(
        dir: &Path,
        prefix: &str,
        opts: WalOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("wal dir create", e))?;
        let segments = list_segments(dir, prefix)?;
        let mut closed = Vec::new();
        let mut next_seq = 0u64;
        for (i, path) in segments.iter().enumerate() {
            let scan = scan_segment(path, |_, _| {})?;
            let newest = i + 1 == segments.len();
            if scan.torn && !newest {
                return Err(Error::Corrupt(format!(
                    "wal segment {} has a torn tail but is not the newest segment",
                    path.display()
                )));
            }
            if scan.torn {
                if scan.valid_bytes == 0 {
                    // Even the header was torn: drop the file entirely.
                    vfs.remove_file(path).map_err(|e| io_err("wal repair", e))?;
                    continue;
                }
                recorder::record(
                    TraceKind::WalRewind,
                    "tail repair",
                    scan.valid_bytes,
                    scan.last_seq.map_or(0, |s| s + 1),
                );
                let mut f = vfs.open_write(path).map_err(|e| io_err("wal repair", e))?;
                f.set_len(scan.valid_bytes)
                    .map_err(|e| io_err("wal repair", e))?;
                f.sync_all().map_err(|e| io_err("wal repair", e))?;
            }
            match scan.last_seq {
                Some(last) => {
                    next_seq = next_seq.max(last + 1);
                    closed.push(ClosedSegment {
                        path: path.clone(),
                        last_seq: last,
                        max_ts: scan.max_ts,
                    });
                }
                None => {
                    // Header-only segment: no records to keep.
                    vfs.remove_file(path).map_err(|e| io_err("wal repair", e))?;
                }
            }
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            opts,
            vfs,
            active: None,
            closed,
            next_seq,
            appends_since_sync: 0,
            syncs: 0,
            scratch: Vec::new(),
            poisoned: false,
        })
    }

    /// The sequence the next append will receive (also: 1 + the last
    /// appended sequence, or 0 on a fresh log).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends `event` with the next sequence number, returning it.
    pub fn append(&mut self, event: EdgeEvent) -> Result<u64> {
        let seq = self.next_seq;
        self.append_with_seq(seq, event)?;
        Ok(seq)
    }

    /// Group commit: appends a whole micro-batch under dense sequences
    /// `first..first+N`, returning the first. The batch's frames are
    /// encoded back-to-back into the one reused buffer and land with a
    /// **single `write(2)`**, splitting only where a single-append stream
    /// would have acted anyway (a segment roll, or an
    /// [`FsyncPolicy::EveryN`] sync point — see the module docs): the
    /// on-disk bytes are identical to N [`Wal::append`] calls, for ~1/N
    /// of the syscall and policy-bookkeeping cost.
    ///
    /// Error contract: a failure before anything landed leaves the log
    /// at the prior record boundary and is safely retryable, exactly
    /// like a failed single append. A failure *after* part of the batch
    /// landed **poisons the WAL** — the call is then half-committed, and
    /// a retried slice would re-append the landed prefix under fresh
    /// sequences (recovery would double-apply those events); restart
    /// through recovery instead, which replays the landed prefix exactly
    /// once. The fsync-failure poison rules of [`Wal::append_with_seq`]
    /// apply unchanged.
    pub fn append_batch(&mut self, events: &[EdgeEvent]) -> Result<u64> {
        let first = self.next_seq;
        self.append_batch_with_first_seq(first, events)?;
        Ok(first)
    }

    /// Appends `event` under an externally-assigned sequence (the shared
    /// engine's global counter). Sequences must be strictly ascending per
    /// WAL.
    ///
    /// A failed *write* leaves the log positioned back at the last
    /// record boundary, so retrying with the same sequence is safe. If
    /// the boundary cannot be restored (the rewind itself fails), the
    /// WAL poisons itself and refuses all further appends — appending
    /// valid records after garbage bytes would strand everything behind
    /// a mid-log tear the replay scan cannot cross. A failed *fsync*
    /// after a successful write also poisons (see [`Wal::sync`]): the
    /// record's durability is then indeterminate — it may resurface at
    /// recovery even though the caller saw an error — and the only safe
    /// continuation is a restart through recovery, which reconciles
    /// against what the disk actually holds.
    pub fn append_with_seq(&mut self, seq: u64, event: EdgeEvent) -> Result<()> {
        self.append_batch_with_first_seq(seq, std::slice::from_ref(&event))
    }

    /// [`Wal::append_batch`] under externally-assigned dense sequences
    /// `first_seq..first_seq+N` (the shared engine's global counter —
    /// [`SharedWal::append_batch`] grabs one dense run per partition
    /// under that partition's lock). This is also the single-append code
    /// path (`N = 1`), which is what guarantees batch-vs-single byte
    /// parity of the segment files.
    ///
    /// The batch is written in maximal chunks: a chunk ends only where a
    /// segment roll is due or where a huge batch crosses an interior
    /// [`FsyncPolicy::EveryN`] `n`-record mark (a single call never
    /// defers more than `n` records; the interior sync lands on that
    /// record boundary — never mid-frame). With batch ≤ n and no roll,
    /// that is one `write(2)` for the whole batch, and the whole call
    /// counts as **one** fsync-policy durability unit (see
    /// [`FsyncPolicy`]).
    pub fn append_batch_with_first_seq(
        &mut self,
        first_seq: u64,
        events: &[EdgeEvent],
    ) -> Result<()> {
        // Poison check FIRST, even for an empty slice: `SharedWal`'s
        // once-retry re-submits the un-landed remainder of a failed
        // batch, which is empty exactly when everything landed but the
        // batch-end fsync failed (a poisoning error). An Ok on that
        // empty retry would swallow the sync failure and acknowledge a
        // batch whose durability is indeterminate.
        if self.poisoned {
            return Err(Error::Invariant(
                "wal is poisoned by an earlier failed append — reopen to repair".into(),
            ));
        }
        if events.is_empty() {
            return Ok(());
        }
        if first_seq < self.next_seq {
            return Err(Error::Invariant(format!(
                "wal sequence must ascend: got {first_seq}, expected >= {}",
                self.next_seq
            )));
        }
        let m = metrics::wal();
        m.append_calls.incr();
        m.records.add(events.len() as u64);
        m.batch_events.record(events.len() as u64);
        let period = match self.opts.fsync {
            FsyncPolicy::EveryN(n) => n.max(1),
            _ => u64::MAX,
        };
        let mut i = 0usize;
        let mut synced_at_mark = false;
        while i < events.len() {
            if self
                .active
                .as_ref()
                .is_none_or(|a| a.bytes >= self.opts.segment_bytes)
            {
                if let Err(e) = self.roll(first_seq + i as u64) {
                    // Same partial-commit rule as the write path below: a
                    // roll failure *between* landed chunks leaves the call
                    // half-committed, which a retry would duplicate.
                    if i > 0 {
                        self.mark_poisoned("roll between landed chunks", first_seq + i as u64);
                    }
                    return Err(e);
                }
            }
            // Records this chunk may hold before the call's next interior
            // n-record mark (counted from the call start).
            let until_mark = period - (i as u64 % period);
            let active = self.active.as_mut().expect("rolled above");
            let frame = &mut self.scratch;
            frame.clear();
            let mut count = 0usize;
            let mut max_ts = Timestamp::ZERO;
            while i + count < events.len()
                && (count as u64) < until_mark
                && (count == 0 || active.bytes + (frame.len() as u64) < self.opts.segment_bytes)
            {
                let event = events[i + count];
                encode_frame(frame, first_seq + (i + count) as u64, event);
                max_ts = max_ts.max(event.created_at);
                count += 1;
            }
            if let Err(e) = active.file.write_all(frame) {
                // A short write left partial frame bytes after the last
                // record; rewind to the boundary so the next append does
                // not bury them under a valid frame.
                let rewound = active.file.set_len(active.bytes).is_ok()
                    && active.file.seek(SeekFrom::Start(active.bytes)).is_ok();
                // Partial-commit rule: if *earlier chunks of this call*
                // already landed, the call is half-committed — a caller
                // retrying the same slice (safe for single appends, whose
                // failure leaves nothing behind) would re-append the
                // landed prefix under fresh sequences, and recovery would
                // replay those events twice. Poisoning makes the
                // half-committed state unrepresentable: the caller must
                // restart through recovery, which replays the landed
                // prefix exactly once. A first-chunk failure keeps the
                // single-append contract — nothing landed, retry is safe.
                if !rewound || i > 0 {
                    self.mark_poisoned("short write", first_seq + i as u64);
                }
                return Err(io_err("wal append", e));
            }
            active.bytes += frame.len() as u64;
            active.last_seq = first_seq + (i + count - 1) as u64;
            active.max_ts = active.max_ts.max(max_ts);
            self.next_seq = first_seq + (i + count) as u64;
            i += count;

            // Interior forced sync: a single call crossing an n-record
            // mark syncs there (⌈N/n⌉ syncs for an n-aligned batch).
            synced_at_mark = period != u64::MAX && (i as u64).is_multiple_of(period);
            if synced_at_mark {
                self.sync()?;
            }
        }
        // The call-end policy tick: the whole batch was one durability
        // unit (unless an interior mark just synced it).
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if !synced_at_mark {
                    self.appends_since_sync += 1;
                    if self.appends_since_sync >= n.max(1) {
                        self.sync()?;
                    }
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Marks the log unusable for further appends (see
    /// [`Wal::append_with_seq`]); used by [`SharedWal`] when a globally
    /// assigned sequence could not be written even after a retry — the
    /// partition's durable tail must then end *below* the burned
    /// sequence, so [`SharedWal::replay_merged_fenced`]'s gap check classifies
    /// it as a tolerable tail loss instead of refusing recovery.
    fn poison(&mut self) {
        self.mark_poisoned("burned sequence", self.next_seq);
    }

    /// The single poison-entry point: sets the flag, bumps the
    /// process-wide poison counter, and drops a [`TraceKind::WalPoison`]
    /// event (label = why, `a` = the sequence involved) into the flight
    /// recorder so a post-mortem dump names the failing operation.
    fn mark_poisoned(&mut self, why: &'static str, seq: u64) {
        self.poisoned = true;
        metrics::wal().poisons.incr();
        recorder::record(TraceKind::WalPoison, why, seq, 0);
    }

    /// Forces an `fdatasync` of the active segment.
    ///
    /// A reported fsync failure poisons the log: the kernel consumes the
    /// error state, so whether already-written records reached disk is
    /// unknowable afterwards — continuing to append (and acknowledge)
    /// on top of maybe-lost bytes would silently break the recovery
    /// contract. The caller must treat in-flight events as indeterminate
    /// and restart through recovery, which trusts only what actually
    /// survives on disk.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(active) = self.active.as_mut() {
            if let Err(e) = active.file.sync_data() {
                recorder::record(TraceKind::FsyncFail, "wal fsync", self.next_seq, 0);
                self.mark_poisoned("wal fsync", self.next_seq);
                return Err(io_err("wal fsync", e));
            }
            self.syncs += 1;
            metrics::wal().fsyncs.incr();
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Number of `fdatasync` calls issued against active segments so far
    /// (policy-triggered and explicit alike) — the observable the group
    /// commit regression tests pin: [`FsyncPolicy::EveryN`] counts
    /// durability *units* (append calls), so batching may only make
    /// syncs rarer — per-event appends keep the historical per-record
    /// cadence exactly, a stream of batches syncs every `n` batches, and
    /// a batched log never syncs more often than its single-append twin.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn roll(&mut self, first_seq: u64) -> Result<()> {
        self.close_active()?;
        let path = segment_path(&self.dir, &self.prefix, first_seq);
        let mut file = self
            .vfs
            .create_new(&path)
            .map_err(|e| io_err("wal segment create", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&first_seq.to_le_bytes());
        if let Err(e) = file.write_all(&header) {
            // Remove the half-headered shell so a retried roll can
            // create_new the same path instead of hitting EEXIST forever.
            let _ = self.vfs.remove_file(&path);
            return Err(io_err("wal header", e));
        }
        // The new segment's *name* must survive power loss too — fsyncing
        // record bytes into a file the directory forgot is lost history.
        if !matches!(self.opts.fsync, FsyncPolicy::Never) {
            if let Err(e) = self.vfs.sync_dir(&self.dir) {
                // Same retryability contract as the header-write branch:
                // leave no orphan shell behind, or the retried roll hits
                // create_new EEXIST forever.
                let _ = self.vfs.remove_file(&path);
                return Err(io_err("wal dir fsync", e));
            }
        }
        self.active = Some(ActiveSegment {
            file,
            path,
            bytes: HEADER_LEN,
            last_seq: first_seq,
            max_ts: Timestamp::ZERO,
        });
        Ok(())
    }

    fn close_active(&mut self) -> Result<()> {
        // Sync before taking: a failed sync must leave the segment
        // tracked as active (not silently dropped from both the active
        // slot and the closed list, where reclaim could never find it).
        if let Some(active) = self.active.as_mut() {
            if !matches!(self.opts.fsync, FsyncPolicy::Never) {
                if let Err(e) = active.file.sync_data() {
                    recorder::record(TraceKind::FsyncFail, "wal segment close", self.next_seq, 0);
                    self.mark_poisoned("wal segment close fsync", self.next_seq);
                    return Err(io_err("wal fsync", e));
                }
                metrics::wal().fsyncs.incr();
            }
        }
        if let Some(active) = self.active.take() {
            if active.bytes > HEADER_LEN {
                self.closed.push(ClosedSegment {
                    path: active.path,
                    last_seq: active.last_seq,
                    max_ts: active.max_ts,
                });
            } else {
                // Never received a record: drop the empty shell. A
                // failed unlink here is deliberately swallowed — the
                // header-only leftover carries no history and the next
                // open() removes it (audited under fault injection).
                let _ = self.vfs.remove_file(&active.path);
            }
        }
        Ok(())
    }

    /// Deletes closed segments that are fully reclaimable: every record
    /// is older than `cutoff` (the store's own window pruning has already
    /// discarded those entries) **and** covered by the checkpoint at
    /// `checkpoint_seq` (replay will never need them). Returns how many
    /// segments were deleted.
    pub fn reclaim_before(&mut self, cutoff: Timestamp, checkpoint_seq: u64) -> Result<usize> {
        let mut removed = 0usize;
        // Retain-style so a failed unlink keeps every undeleted segment
        // tracked (an early return mid-drain would forget them all and
        // make them unreclaimable until reopen).
        let mut first_err: Option<Error> = None;
        self.closed.retain(|seg| {
            if first_err.is_some() || !(seg.max_ts < cutoff && seg.last_seq <= checkpoint_seq) {
                return true;
            }
            match self.vfs.remove_file(&seg.path) {
                Ok(()) => {
                    removed += 1;
                    false
                }
                // Already gone is already reclaimed.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    removed += 1;
                    false
                }
                Err(e) => {
                    first_err = Some(io_err("wal reclaim", e));
                    true
                }
            }
        });
        if removed > 0 && !matches!(self.opts.fsync, FsyncPolicy::Never) {
            // A failed directory fsync here is loud but not lossy: the
            // unlinked segments were all checkpoint-covered, so even a
            // power loss that resurrects their names replays nothing new
            // (records below `min_seq` are filtered). Propagating beats
            // swallowing — the caller learns reclamation durability is
            // unconfirmed — and takes precedence over a per-segment
            // unlink error, which the retained list already preserves
            // for the next reclaim pass to retry.
            self.vfs
                .sync_dir(&self.dir)
                .map_err(|e| io_err("wal reclaim dir fsync", e))?;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(removed),
        }
    }

    /// Number of on-disk segments (closed + active).
    pub fn segment_count(&self) -> usize {
        self.closed.len() + usize::from(self.active.is_some())
    }

    /// Flushes and syncs (per policy) without consuming the WAL.
    pub fn close(mut self) -> Result<()> {
        self.close_active()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.close_active();
    }
}

/// The partition an event for target `dst` routes to, out of `parts` —
/// the single definition shared by appends, fenced exports, and
/// fence-vector replay. **Not** the sharded store's shard function (that
/// one masks against a power of two); a checkpoint filters targets by
/// *this* function, because the WAL is what the fence vector cuts.
pub fn route_partition(dst: &UserId, parts: usize) -> usize {
    (magicrecs_types::route_mix(dst) as usize) % parts
}

/// Per-partition WALs behind one global sequence — the shared-engine
/// deployment's log. Events are routed to a partition by the same
/// [`magicrecs_types::route_mix`] hash the sharded store and worker pool
/// use, so each worker's appends land in "its" partition log and
/// contention stays within the route.
///
/// Sequence assignment happens **under the partition lock**, so each
/// partition's log is strictly ascending (the per-segment invariant) and
/// same-target events get sequence order matching their processing order.
///
/// ## Shard-epoch fencing
///
/// A non-quiescent checkpoint cuts the log one partition at a time with
/// [`SharedWal::with_partition_fenced`]: it holds partition `p`'s lock
/// (blocking only that partition's appends), drains the in-flight
/// store applies ticketed by [`SharedWal::append_batch_tracked`], syncs,
/// and hands the caller `p`'s **fence** — the first sequence the cut
/// does *not* cover. While the callback exports partition `p`'s
/// targets, every other partition keeps ingesting.
pub struct SharedWal {
    parts: Vec<Mutex<Wal>>,
    seq: AtomicU64,
    /// Per-partition count of appends whose store apply has not finished
    /// yet. Incremented under the partition lock (so a fence holding
    /// that lock observes every ticket issued before it), decremented by
    /// [`ApplyTicket::drop`] after the caller's store apply.
    pending: Vec<AtomicU64>,
}

/// RAII ticket pairing a tracked WAL append with its store apply: the
/// fence waits for all tickets of a partition to drop before it trusts
/// the store to reflect everything the log holds. Hold it across the
/// store mutation, drop it after.
#[must_use = "dropping the ticket before the store apply completes lets a fence cut between the WAL append and the apply"]
pub struct ApplyTicket<'a> {
    pending: &'a [AtomicU64],
    parts: Vec<usize>,
}

impl Drop for ApplyTicket<'_> {
    fn drop(&mut self) {
        for &p in &self.parts {
            self.pending[p].fetch_sub(1, Ordering::Release);
        }
    }
}

impl SharedWal {
    /// Segment-name prefix of partition `i`.
    pub(crate) fn prefix(i: usize) -> String {
        format!("wal-p{i}-")
    }

    /// Creates `parts` fresh per-partition WALs in `dir`.
    pub fn create(dir: &Path, parts: usize, opts: WalOptions) -> Result<SharedWal> {
        Self::create_with_vfs(dir, parts, opts, std_vfs())
    }

    /// [`SharedWal::create`] on an explicit I/O backend shared by every
    /// partition WAL.
    pub fn create_with_vfs(
        dir: &Path,
        parts: usize,
        opts: WalOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<SharedWal> {
        assert!(parts >= 1, "need at least one wal partition");
        let parts = (0..parts)
            .map(|i| {
                Ok(Mutex::new(Wal::create_with_vfs(
                    dir,
                    &Self::prefix(i),
                    opts,
                    Arc::clone(&vfs),
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        let pending = (0..parts.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(SharedWal {
            parts,
            seq: AtomicU64::new(0),
            pending,
        })
    }

    /// Opens `parts` existing per-partition WALs (repairing torn tails);
    /// the global sequence resumes after the maximum across partitions.
    ///
    /// The partition count is part of the log's identity (targets route
    /// by `hash % parts`): opening with fewer partitions than files
    /// exist for would silently drop the excess partitions' history, so
    /// it is refused.
    pub fn open(dir: &Path, parts: usize, opts: WalOptions) -> Result<SharedWal> {
        Self::open_with_floor_vfs(dir, parts, opts, 0, std_vfs())
    }

    /// [`SharedWal::open`] on an explicit I/O backend shared by every
    /// partition WAL, with a lower bound on the resumed global sequence.
    /// Recovery passes the checkpoint's highest fence: if every segment
    /// the checkpoint covered has been reclaimed (an idle,
    /// fully-checkpointed log can legitimately hold zero files), a plain
    /// scan would restart at 0 — and new appends below the checkpoint's
    /// coverage would be silently skipped by the *next* recovery's fence
    /// filter. The floor pins the sequence at or above what on-disk
    /// checkpoints claim to cover, so sequences never regress.
    pub fn open_with_floor_vfs(
        dir: &Path,
        parts: usize,
        opts: WalOptions,
        floor: u64,
        vfs: Arc<dyn Vfs>,
    ) -> Result<SharedWal> {
        assert!(parts >= 1, "need at least one wal partition");
        Self::check_partition_count(dir, parts)?;
        let parts = (0..parts)
            .map(|i| {
                Ok(Mutex::new(Wal::open_with_vfs(
                    dir,
                    &Self::prefix(i),
                    opts,
                    Arc::clone(&vfs),
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        let next = parts.iter().map(|p| p.lock().next_seq()).max().unwrap_or(0);
        let pending = (0..parts.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(SharedWal {
            parts,
            seq: AtomicU64::new(next.max(floor)),
            pending,
        })
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Refuses a partition count smaller than what the directory's
    /// `wal-p<i>-` files imply.
    fn check_partition_count(dir: &Path, parts: usize) -> Result<()> {
        if let Some(&max_idx) = existing_wal_partitions(dir)?.last() {
            if max_idx >= parts {
                return Err(Error::Invariant(format!(
                    "wal directory {} holds segments for partition {max_idx} but only \
                     {parts} partition(s) were requested — opening would silently drop \
                     the excess partitions' history",
                    dir.display()
                )));
            }
        }
        Ok(())
    }

    /// Appends `event` to the partition its target routes to, returning
    /// the assigned global sequence: a one-event
    /// [`SharedWal::append_batch`], under the same failure contract.
    pub fn append(&self, event: EdgeEvent) -> Result<u64> {
        self.append_batch_impl(std::slice::from_ref(&event), false)
            .map(|(seq, _)| seq)
    }

    /// Returns the run `first..first + len` to the global counter after
    /// an append that landed none of it (`wal` unpoisoned), provided no
    /// later sequence was assigned since — always the case at one
    /// partition, whose lock every assignment takes. The log is then
    /// exactly as before the call, so the failure surfaces as retryable,
    /// like a single [`Wal`]'s, instead of being retried here.
    fn give_back(&self, wal: &Wal, first: u64, len: u64) -> bool {
        !wal.poisoned
            && self
                .seq
                .compare_exchange(first + len, first, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Group commit across partitions: routes every event of `events` to
    /// its target's partition, takes each partition lock **at most
    /// once**, and appends each partition's sub-batch (in stream order)
    /// under a dense run of global sequences assigned under that one
    /// lock hold — one `write(2)` and one fsync-policy pass per touched
    /// partition instead of one per event. Returns the number of events
    /// appended.
    ///
    /// Per-target order is preserved (targets are route-sticky and each
    /// sub-batch keeps stream order), which is all `D` semantics need;
    /// *cross*-partition sequence interleaving differs from N single
    /// [`SharedWal::append`] calls — dense runs instead of round-robin —
    /// but [`SharedWal::replay_merged_fenced`] orders by global sequence, so
    /// replay is deterministic either way.
    ///
    /// A sub-batch that fails before anything of the call landed hands
    /// its sequences back when they are still the newest assigned (always
    /// at one partition): the call is then a clean, retryable no-op.
    /// Otherwise a failed sub-batch is retried once from the exact record
    /// boundary it reached — its global sequences are consumed (another
    /// partition holds a higher one), so they must land or become this
    /// partition's *permanent tail*. On a second failure the partition
    /// is poisoned: its durable log then ends below the burned
    /// sequences, which [`SharedWal::replay_merged_fenced`]'s gap check
    /// tolerates as a tail loss, where a later successful append above
    /// the hole would make recovery refuse the whole log as corrupt.
    /// Earlier partitions' sub-batches stay committed; the caller must
    /// treat the batch as indeterminate and restart through recovery.
    pub fn append_batch(&self, events: &[EdgeEvent]) -> Result<u64> {
        self.append_batch_impl(events, false)
            .map(|_| events.len() as u64)
    }

    /// [`SharedWal::append_batch`] that registers the caller's upcoming
    /// store apply with every touched partition's fence — hold the
    /// returned [`ApplyTicket`] across the store mutation, one pending
    /// unit per touched partition. Each ticket is issued under the same
    /// partition lock that assigned the sequences, so a fence can never
    /// observe them as durable while missing the in-flight apply. On
    /// error no ticket is issued and any partial registrations are
    /// withdrawn: the caller restarts through recovery, so there is no
    /// apply for a fence to wait on.
    pub fn append_batch_tracked(&self, events: &[EdgeEvent]) -> Result<(u64, ApplyTicket<'_>)> {
        let (_, parts) = self.append_batch_impl(events, true)?;
        let ticket = ApplyTicket {
            pending: &self.pending,
            parts,
        };
        Ok((events.len() as u64, ticket))
    }

    /// The group commit behind every append: returns the highest
    /// sequence the call assigned (0 for an empty call) and, when
    /// `track`ing, the partitions holding a pending apply.
    fn append_batch_impl(&self, events: &[EdgeEvent], track: bool) -> Result<(u64, Vec<usize>)> {
        let mut touched: Vec<usize> = Vec::new();
        let mut last = 0;
        if events.is_empty() {
            return Ok((last, touched));
        }
        // Pre-partition by route, preserving stream order within each
        // bucket. One pass; bucket storage is per call (amortized over
        // the batch).
        let mut buckets: Vec<Vec<EdgeEvent>> = vec![Vec::new(); self.parts.len()];
        for &event in events {
            buckets[route_partition(&event.dst, self.parts.len())].push(event);
        }
        let mut committed = false;
        for (p, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut wal = self.parts[p].lock();
            // Assign the dense run inside the lock: this partition's
            // sequences stay ascending no matter how batches interleave
            // across partitions.
            let first = self.seq.fetch_add(bucket.len() as u64, Ordering::Relaxed);
            if let Err(first_err) = wal.append_batch_with_first_seq(first, bucket) {
                // While nothing of the call has landed, a still-newest run
                // goes back to the counter and the call fails cleanly.
                let given_back = !committed && self.give_back(&wal, first, bucket.len() as u64);
                // Otherwise, if nothing of this run landed the partition
                // is unpoisoned and the whole run retries once. A
                // *partial* landing already poisoned the partition, so
                // the retry fails immediately and the second poison() is
                // a no-op — either way a still-failing run's burned tail
                // becomes this partition's permanent durable end, which
                // recovery tolerates (see `SharedWal::append`).
                let retried = !given_back && {
                    let landed = (wal.next_seq().saturating_sub(first) as usize).min(bucket.len());
                    wal.append_batch_with_first_seq(first + landed as u64, &bucket[landed..])
                        .is_ok()
                };
                if !retried {
                    if !given_back {
                        wal.poison();
                    }
                    // Withdraw partial registrations: no apply will
                    // follow a failed batch, so leaving them would hang
                    // every future fence on the touched partitions.
                    for &t in &touched {
                        self.pending[t].fetch_sub(1, Ordering::Release);
                    }
                    return Err(first_err);
                }
            }
            committed = true;
            last = first + bucket.len() as u64 - 1;
            if track {
                // Still under the partition lock: a fence that later
                // takes this lock is guaranteed to see the pending apply.
                self.pending[p].fetch_add(1, Ordering::Relaxed);
                touched.push(p);
            }
        }
        Ok((last, touched))
    }

    /// The next global sequence to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Syncs every partition.
    pub fn sync_all(&self) -> Result<()> {
        for p in &self.parts {
            p.lock().sync()?;
        }
        Ok(())
    }

    /// On-disk segment count across partitions.
    pub(crate) fn segment_count(&self) -> usize {
        self.parts.iter().map(|p| p.lock().segment_count()).sum()
    }

    /// Flushes and syncs (per policy) every partition, consuming the log.
    pub(crate) fn close(self) -> Result<()> {
        for p in self.parts {
            p.into_inner().close()?;
        }
        Ok(())
    }

    /// Cuts partition `p` at a consistent fence and runs `f(fence)`
    /// while holding the cut: takes `p`'s lock (stalling only appends
    /// routed to `p`), waits for every in-flight tracked apply on `p` to
    /// finish, syncs the partition, and calls `f` with the fence — the
    /// first sequence the cut does **not** cover. While `f` runs, no new
    /// `p`-routed event can be logged or applied, so a store export
    /// taken inside `f` reflects *exactly* the events below the fence
    /// for `p`-routed targets; every other partition ingests
    /// undisturbed.
    ///
    /// `f` must not append to this `SharedWal` (self-deadlock on `p`'s
    /// lock) and should touch only `p`-routed state; store shard locks
    /// taken inside `f` are fine because ingest never holds a shard lock
    /// while acquiring a partition lock.
    pub fn with_partition_fenced<R>(
        &self,
        p: usize,
        f: impl FnOnce(u64) -> Result<R>,
    ) -> Result<R> {
        let mut wal = self.parts[p].lock();
        // Ticket holders never block on this partition's lock (they
        // already released it) — they finish their store apply and drop,
        // so this wait is bounded by one apply, not by ingest rate.
        let mut spins = 0u32;
        while self.pending[p].load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Durability before coverage: the fence authorizes recovery to
        // skip everything below it, so everything below it must be on
        // disk first. Under `FsyncPolicy::Never` the operator opted out
        // of that promise (matching roll/close/reclaim, which skip their
        // fsyncs too) and coverage rides on the checkpoint file's own
        // fsync-then-rename publish — skipping the flush here keeps the
        // fenced window (and the one stalled partition) short.
        if !matches!(wal.opts.fsync, FsyncPolicy::Never) {
            wal.sync()?;
        }
        let fence = wal.next_seq();
        recorder::record(
            TraceKind::CkptFenceEnter,
            "partition fence",
            p as u64,
            fence,
        );
        let out = f(fence);
        recorder::record(TraceKind::CkptFenceExit, "partition fence", p as u64, fence);
        out
    }

    /// Each partition's next sequence — the fence vector a cut "right
    /// now, with nothing in flight" would record. Used by the sealing
    /// checkpoint at open, where the engine is provably quiescent, and by
    /// the checkpoint driver to tell which partitions logged past a fence.
    pub fn partition_next_seqs(&self) -> Vec<u64> {
        self.parts.iter().map(|p| p.lock().next_seq()).collect()
    }

    /// Reclaims fully-pruned, fully-checkpointed segments on every
    /// partition against a per-partition fence vector: partition `i`'s
    /// segments are covered through `fences[i] - 1` ([`Wal::reclaim_before`]),
    /// so each partition reclaims against its *own* fence instead of one
    /// global covered sequence. A zero fence means the chain covers
    /// nothing of that partition — nothing reclaims. Returns segments
    /// deleted.
    pub fn reclaim_before_fenced(&self, cutoff: Timestamp, fences: &[u64]) -> Result<usize> {
        assert_eq!(fences.len(), self.parts.len(), "fence vector length");
        let mut removed = 0;
        for (p, &fence) in self.parts.iter().zip(fences) {
            if fence == 0 {
                continue;
            }
            removed += p.lock().reclaim_before(cutoff, fence - 1)?;
        }
        Ok(removed)
    }

    /// Replays all partitions' records, merged into global sequence
    /// order, against a per-partition fence vector as recorded by a
    /// non-quiescent checkpoint: partition `i` replays records with
    /// `seq >= fences[i]`. Per-target order is what `D` semantics need
    /// and per-partition order already provides it (targets are
    /// partition-sticky); the global sort additionally makes replay
    /// deterministic.
    ///
    /// Gap detection: global sequences are assigned densely across
    /// partitions. Sequences below `max(fences)` are legitimately absent
    /// from the merge (each is either covered by its own partition's
    /// fence or belongs to another partition entirely), so density is
    /// demanded on `[max(fences), min-over-partitions(last durable
    /// seq)]`, where every surviving sequence must appear regardless of
    /// routing. A sequence missing from that range cannot be any
    /// partition's torn/unsynced tail (every partition's log provably
    /// extends past it), so it means a lost or deleted middle segment —
    /// refused as [`Error::Corrupt`] rather than silently rebuilding `D`
    /// without that history. Gaps *above* the minimum tail are tolerated:
    /// they are exactly the crash signature of independently-synced
    /// partition tails. At one partition this is plain contiguity from
    /// the fence to the log's end. The check only runs when every
    /// partition holds at least one surviving record — a record-less
    /// partition's losses are indistinguishable from never-routed
    /// silence, so any hole could be its lost tail.
    ///
    /// Memory: the merge materializes every replayed record before
    /// sorting, so peak memory is O(records past the checkpoint) —
    /// bounded by the checkpoint cadence in any reclaiming deployment.
    /// With checkpoints disabled (`checkpoint_every = 0`) it is the whole
    /// history; a streaming k-way merge is the upgrade path if that
    /// configuration ever needs large logs.
    pub fn replay_merged_fenced(
        dir: &Path,
        parts: usize,
        fences: &[u64],
        mut f: impl FnMut(WalRecord),
    ) -> Result<ReplayStats> {
        assert_eq!(fences.len(), parts, "fence vector length");
        Self::check_partition_count(dir, parts)?;
        let mut records: Vec<WalRecord> = Vec::new();
        let mut merged = ReplayStats::default();
        let mut min_tail: Option<u64> = None;
        let mut all_partitions_have_records = true;
        for (i, &fence) in fences.iter().enumerate() {
            let stats = replay(dir, &Self::prefix(i), fence, |r| records.push(r))?;
            merged.torn_tail |= stats.torn_tail;
            merged.last_seq = merged.last_seq.max(stats.last_seq);
            match stats.last_seq {
                Some(last) => min_tail = Some(min_tail.map_or(last, |t: u64| t.min(last))),
                // A record-less partition disables the check entirely: its
                // durable floor is unknowable, so *any* missing sequence
                // could be its lost tail (e.g. a burned first append on a
                // cold partition) — refusing would brick an undamaged
                // directory. The post-recovery sealing checkpoint restores
                // full checking for everything after this open.
                None => all_partitions_have_records = false,
            }
        }
        records.sort_by_key(|r| r.seq);
        let lo = fences.iter().copied().max().unwrap_or(0);
        if let Some(min_tail) = min_tail.filter(|_| all_partitions_have_records) {
            let above = records.iter().skip_while(|r| r.seq < lo);
            for (expected, r) in (lo..).zip(above.take_while(|r| r.seq <= min_tail)) {
                if r.seq != expected {
                    return Err(Error::Corrupt(format!(
                        "shared wal gap: sequence {expected} is missing but every \
                         partition's log extends through {min_tail} — a middle segment \
                         was lost"
                    )));
                }
            }
        }
        merged.records = records.len() as u64;
        for r in records {
            f(r);
        }
        Ok(merged)
    }

    /// Record boundaries across all partitions, sorted by global
    /// sequence.
    pub fn record_boundaries(dir: &Path, parts: usize) -> Result<Vec<RecordBoundary>> {
        let mut out = Vec::new();
        for i in 0..parts {
            out.extend(record_boundaries(dir, &Self::prefix(i))?);
        }
        out.sort_by_key(|b| b.seq);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use std::fs::OpenOptions;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn ev(i: u64) -> EdgeEvent {
        EdgeEvent::follow(u(i), u(1000 + i % 7), ts(i))
    }

    fn collect(dir: &Path, prefix: &str, from: u64) -> (Vec<WalRecord>, ReplayStats) {
        let mut out = Vec::new();
        let stats = replay(dir, prefix, from, |r| out.push(r)).unwrap();
        (out, stats)
    }

    #[test]
    fn append_replay_roundtrip() {
        let t = TempDir::new("wal");
        let mut wal = Wal::create(t.path(), "wal-", WalOptions::default()).unwrap();
        for i in 0..100 {
            assert_eq!(wal.append(ev(i)).unwrap(), i);
        }
        wal.close().unwrap();
        let (records, stats) = collect(t.path(), "wal-", 0);
        assert_eq!(records.len(), 100);
        assert_eq!(stats.last_seq, Some(99));
        assert!(!stats.torn_tail);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.event, ev(i as u64));
        }
        // min_seq is inclusive: resuming after checkpoint c passes c+1.
        let (tail, _) = collect(t.path(), "wal-", 60);
        assert_eq!(tail.len(), 40);
        assert_eq!(tail[0].seq, 60);
        let (none, _) = collect(t.path(), "wal-", u64::MAX);
        assert!(none.is_empty());
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 256,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for i in 0..200 {
            wal.append(ev(i)).unwrap();
        }
        assert!(wal.segment_count() > 1, "should have rolled");
        wal.close().unwrap();
        let mut seqs = Vec::new();
        replay(t.path(), "wal-", 0, |r| seqs.push(r.seq)).unwrap();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn truncated_tail_is_detected_and_repaired_on_open() {
        let t = TempDir::new("wal");
        let mut wal = Wal::create(t.path(), "wal-", WalOptions::default()).unwrap();
        for i in 0..10 {
            wal.append(ev(i)).unwrap();
        }
        wal.close().unwrap();
        let seg = list_segments(t.path(), "wal-").unwrap().pop().unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        // Chop 3 bytes off the last record.
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (records, stats) = collect(t.path(), "wal-", u64::MAX);
        assert!(records.is_empty());
        assert!(stats.torn_tail);
        assert_eq!(stats.last_seq, Some(8), "only 9 complete records remain");

        let mut reopened = Wal::open(t.path(), "wal-", WalOptions::default()).unwrap();
        assert_eq!(reopened.next_seq(), 9);
        reopened.append(ev(100)).unwrap();
        reopened.close().unwrap();
        let (_, stats) = collect(t.path(), "wal-", 0);
        assert!(!stats.torn_tail, "open must have repaired the tear");
        assert_eq!(stats.last_seq, Some(9));
    }

    #[test]
    fn corrupt_middle_segment_is_refused() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for i in 0..100 {
            wal.append(ev(i)).unwrap();
        }
        wal.close().unwrap();
        let segments = list_segments(t.path(), "wal-").unwrap();
        assert!(segments.len() >= 3);
        // Flip one payload byte in a middle segment.
        let victim = &segments[1];
        let mut bytes = std::fs::read(victim).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(victim, bytes).unwrap();
        let err = replay(t.path(), "wal-", 0, |_| {}).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        assert!(Wal::open(t.path(), "wal-", opts).is_err());
    }

    #[test]
    fn reclaim_respects_window_and_checkpoint() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for i in 0..100 {
            wal.append(ev(i)).unwrap(); // timestamps 0..100 s
        }
        let before = wal.segment_count();
        // Not checkpointed: nothing reclaimable even when far past τ.
        assert_eq!(wal.reclaim_before(ts(1_000), 0).unwrap(), 0);
        // Checkpointed through seq 50: only segments fully before both
        // bounds go.
        let removed = wal.reclaim_before(ts(1_000), 50).unwrap();
        assert!(removed > 0);
        assert!(wal.segment_count() < before);
        // Everything past the checkpoint still replays.
        wal.close().unwrap();
        let mut seqs = Vec::new();
        replay(t.path(), "wal-", 51, |r| seqs.push(r.seq)).unwrap();
        assert_eq!(seqs, (51..100).collect::<Vec<u64>>());
    }

    #[test]
    fn create_refuses_existing_segments() {
        let t = TempDir::new("wal");
        let mut wal = Wal::create(t.path(), "wal-", WalOptions::default()).unwrap();
        wal.append(ev(0)).unwrap();
        wal.close().unwrap();
        assert!(Wal::create(t.path(), "wal-", WalOptions::default()).is_err());
        // A different prefix is fine.
        assert!(Wal::create(t.path(), "other-", WalOptions::default()).is_ok());
    }

    #[test]
    fn record_boundaries_cover_every_record() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 200,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for i in 0..50 {
            wal.append(ev(i)).unwrap();
        }
        wal.close().unwrap();
        let bounds = record_boundaries(t.path(), "wal-").unwrap();
        assert_eq!(bounds.len(), 50);
        let seqs: Vec<u64> = bounds.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<u64>>());
        assert!(bounds
            .windows(2)
            .all(|w| w[0].path != w[1].path || w[0].offset_after < w[1].offset_after));
    }

    #[test]
    fn shared_wal_routes_and_merges() {
        let t = TempDir::new("wal");
        let shared = SharedWal::create(t.path(), 4, WalOptions::default()).unwrap();
        for i in 0..500 {
            shared.append(ev(i)).unwrap();
        }
        assert_eq!(shared.next_seq(), 500);
        shared.sync_all().unwrap();
        drop(shared);
        let mut records = Vec::new();
        let stats =
            SharedWal::replay_merged_fenced(t.path(), 4, &[0; 4], |r| records.push(r)).unwrap();
        assert_eq!(stats.records, 500);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-target stickiness: each target's records live in one prefix.
        let bounds = SharedWal::record_boundaries(t.path(), 4).unwrap();
        assert_eq!(bounds.len(), 500);
        let reopened = SharedWal::open(t.path(), 4, WalOptions::default()).unwrap();
        assert_eq!(reopened.next_seq(), 500);
    }

    #[test]
    fn missing_middle_segment_is_a_gap_at_one_partition() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 1, opts).unwrap();
        for i in 0..100 {
            shared.append(ev(i)).unwrap();
        }
        shared.close().unwrap();
        let segments = list_segments(t.path(), &SharedWal::prefix(0)).unwrap();
        assert!(segments.len() >= 3);
        std::fs::remove_file(&segments[1]).unwrap();
        // Plain replay (the sparse-sequence per-partition primitive)
        // cannot see the hole…
        assert!(replay(t.path(), &SharedWal::prefix(0), 0, |_| {}).is_ok());
        // …but the merged recovery path refuses it: one partition's log
        // must be dense from the fence to its end.
        let err = SharedWal::replay_merged_fenced(t.path(), 1, &[0], |_| {}).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("gap"), "{err}");
    }

    #[test]
    fn one_partition_failed_append_gives_its_sequences_back() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let t = TempDir::new("wal");
        let fv = FaultVfs::new_disarmed(FaultPlan::fail_nth_write(1));
        let shared =
            SharedWal::create_with_vfs(t.path(), 1, WalOptions::default(), Arc::new(fv.clone()))
                .unwrap();
        shared.append_batch(&[ev(0), ev(1)]).unwrap();
        fv.set_armed(true);
        // The failed call lands nothing, so it hands its run back and
        // surfaces the error instead of retrying behind the caller…
        assert!(shared.append_batch(&[ev(2), ev(3)]).is_err());
        assert_eq!(fv.fired_count(), 1);
        assert_eq!(shared.next_seq(), 2);
        // …and stays as retryable as a single log's failed append.
        shared.append_batch(&[ev(2), ev(3)]).unwrap();
        shared.append(ev(4)).unwrap();
        shared.close().unwrap();
        let mut seqs = Vec::new();
        SharedWal::replay_merged_fenced(t.path(), 1, &[0], |r| seqs.push(r.seq)).unwrap();
        assert_eq!(seqs, (0..5).collect::<Vec<u64>>());
    }

    #[test]
    fn open_floor_prevents_sequence_regression_after_full_reclaim() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 1, opts).unwrap();
        for i in 0..50 {
            shared.append(ev(i)).unwrap();
        }
        // Checkpoint covered everything, window long passed: every
        // segment is reclaimable and the directory legitimately empties.
        shared.close().unwrap();
        let shared = SharedWal::open(t.path(), 1, opts).unwrap();
        assert!(shared.reclaim_before_fenced(ts(1_000), &[50]).unwrap() > 0);
        assert_eq!(shared.segment_count(), 0);
        drop(shared);
        assert!(list_segments(t.path(), &SharedWal::prefix(0))
            .unwrap()
            .is_empty());
        // A plain scan restarts at 0 — that is the hazard the floor
        // exists for: new appends below the checkpoint's coverage would
        // be skipped by the next recovery's fence filter.
        assert_eq!(SharedWal::open(t.path(), 1, opts).unwrap().next_seq(), 0);
        let open_at = |floor| SharedWal::open_with_floor_vfs(t.path(), 1, opts, floor, std_vfs());
        let shared = open_at(50).unwrap();
        assert_eq!(shared.next_seq(), 50);
        assert_eq!(shared.append(ev(50)).unwrap(), 50);
        shared.close().unwrap();
        // The new record is visible to a replay resuming past the
        // checkpoint, and the floor is a no-op when the scan is ahead.
        let (records, _) = collect(t.path(), &SharedWal::prefix(0), 50);
        assert_eq!(records.len(), 1);
        assert_eq!(open_at(7).unwrap().next_seq(), 51);
    }

    #[test]
    fn merged_replay_refuses_lost_middle_partition_segment() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 4, opts).unwrap();
        for i in 0..500 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        drop(shared);
        // Delete a middle segment of one partition. Per-partition replay
        // cannot see the hole (its sequences are sparse by nature)…
        let victim = (0..4)
            .map(|i| list_segments(t.path(), &SharedWal::prefix(i)).unwrap())
            .find(|segs| segs.len() >= 3)
            .expect("some partition rolled at least thrice");
        std::fs::remove_file(&victim[1]).unwrap();
        // …but the merged view knows the lost records sit below every
        // partition's durable tail and refuses.
        let err = SharedWal::replay_merged_fenced(t.path(), 4, &[0; 4], |_| {}).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("gap"), "{err}");
    }

    #[test]
    fn merged_replay_tolerates_lost_partition_tail() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 4, opts).unwrap();
        for i in 0..500 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        drop(shared);
        // Losing the *newest* segment of one partition is exactly the
        // crash signature of an unsynced tail — replay must proceed with
        // the surviving records rather than refuse.
        let segs = list_segments(t.path(), &SharedWal::prefix(0)).unwrap();
        assert!(segs.len() >= 2);
        std::fs::remove_file(segs.last().unwrap()).unwrap();
        let mut n = 0u64;
        let stats = SharedWal::replay_merged_fenced(t.path(), 4, &[0; 4], |_| n += 1).unwrap();
        assert!(n < 500, "tail records are gone");
        assert_eq!(stats.records, n);
    }

    #[test]
    fn merged_replay_skips_gap_check_when_a_partition_has_no_records() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 4, opts).unwrap();
        for i in 0..500 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        drop(shared);
        // A partition with zero surviving records (all segments gone —
        // the extreme of a cold partition whose only assigned sequence
        // was burned) leaves every hole attributable to it, so the
        // contiguity check must stand down rather than refuse.
        for seg in list_segments(t.path(), &SharedWal::prefix(0)).unwrap() {
            std::fs::remove_file(seg).unwrap();
        }
        let mut n = 0u64;
        let stats = SharedWal::replay_merged_fenced(t.path(), 4, &[0; 4], |_| n += 1).unwrap();
        assert!(n > 0 && n < 500);
        assert_eq!(stats.records, n);
    }

    #[test]
    fn reclaim_failure_keeps_remaining_segments_tracked() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for i in 0..100 {
            wal.append(ev(i)).unwrap();
        }
        let before = wal.segment_count();
        assert!(before >= 3);
        // Sabotage one reclaimable segment so its unlink fails (a
        // directory cannot be removed as a file).
        let segs = list_segments(t.path(), "wal-").unwrap();
        std::fs::remove_file(&segs[1]).unwrap();
        std::fs::create_dir(&segs[1]).unwrap();
        assert!(wal.reclaim_before(ts(1_000), 99).is_err());
        // The failed segment (and everything after it) is still tracked:
        // once the obstruction clears, a second pass reclaims the rest
        // instead of leaking them into limbo until reopen.
        std::fs::remove_dir(&segs[1]).unwrap();
        assert!(wal.reclaim_before(ts(1_000), 99).unwrap() > 0);
        assert_eq!(wal.segment_count(), 1, "only the active segment survives");
    }

    #[test]
    fn sequential_prefix_does_not_swallow_partition_segments() {
        let t = TempDir::new("wal");
        let shared = SharedWal::create(t.path(), 2, WalOptions::default()).unwrap();
        for i in 0..20 {
            shared.append(ev(i)).unwrap();
        }
        drop(shared);
        // `wal-` must not match `wal-p0-…`: the retired-layout check
        // (and a plain `wal-` log beside partition logs) sees only
        // `wal-<20 digits>` segments.
        let mut seq = Wal::create(t.path(), "wal-", WalOptions::default()).unwrap();
        seq.append(ev(0)).unwrap();
        seq.close().unwrap();
        let (records, _) = collect(t.path(), "wal-", 0);
        assert_eq!(records.len(), 1, "partition segments leaked into wal-");
    }

    #[test]
    fn shared_wal_refuses_shrunken_partition_count() {
        let t = TempDir::new("wal");
        let shared = SharedWal::create(t.path(), 4, WalOptions::default()).unwrap();
        for i in 0..100 {
            shared.append(ev(i)).unwrap();
        }
        drop(shared);
        // Fewer partitions than the directory holds: silently dropping
        // p2/p3's history is refused…
        assert!(SharedWal::open(t.path(), 2, WalOptions::default()).is_err());
        assert!(SharedWal::replay_merged_fenced(t.path(), 2, &[0; 2], |_| {}).is_err());
        // …while the true count (or a larger one) still opens.
        assert!(SharedWal::open(t.path(), 4, WalOptions::default()).is_ok());
        assert!(SharedWal::open(t.path(), 8, WalOptions::default()).is_ok());
    }

    /// Segment files (name, bytes) for a prefix, sorted by name.
    fn segment_bytes(dir: &Path, prefix: &str) -> Vec<(String, Vec<u8>)> {
        list_segments(dir, prefix)
            .unwrap()
            .into_iter()
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn append_batch_matches_single_appends_byte_for_byte() {
        // Across fsync policies and segment rolls, a batched log must be
        // byte-identical to a single-append log: same segment names, same
        // bytes, same number of durability points.
        for policy in [
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(5),
            FsyncPolicy::Always,
        ] {
            let opts = WalOptions {
                fsync: policy,
                segment_bytes: 200, // rolls every ~6 records
            };
            let events: Vec<EdgeEvent> = (0..100).map(ev).collect();

            let t_single = TempDir::new("wal-single");
            let mut single = Wal::create(t_single.path(), "wal-", opts).unwrap();
            for &e in &events {
                single.append(e).unwrap();
            }
            let single_syncs = single.sync_count();
            single.close().unwrap();

            let t_batch = TempDir::new("wal-batch");
            let mut batched = Wal::create(t_batch.path(), "wal-", opts).unwrap();
            // Uneven batch sizes, several straddling rolls and sync points.
            let mut rest: &[EdgeEvent] = &events;
            for size in [1usize, 7, 2, 13, 29, 3, 64, 100] {
                let take = size.min(rest.len());
                let (head, tail) = rest.split_at(take);
                let first = batched.next_seq();
                assert_eq!(batched.append_batch(head).unwrap(), first, "{policy:?}");
                rest = tail;
            }
            assert!(rest.is_empty());
            assert_eq!(batched.next_seq(), 100);
            // Group commit may only *reduce* durability points (a batch
            // is one unit); it never syncs more than the single path.
            assert!(batched.sync_count() <= single_syncs, "{policy:?}");
            batched.close().unwrap();

            assert_eq!(
                segment_bytes(t_single.path(), "wal-"),
                segment_bytes(t_batch.path(), "wal-"),
                "segments diverge under {policy:?}"
            );
        }
    }

    #[test]
    fn group_commit_syncs_at_policy_boundaries_only() {
        // EveryN(n) counts durability units (append calls): a batch is
        // ONE unit, so n *batches* — not n records — make a sync.
        let opts = WalOptions {
            fsync: FsyncPolicy::EveryN(8),
            segment_bytes: 1 << 20,
        };
        let t = TempDir::new("wal");
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        for batch_no in 0..16u64 {
            let first = wal.next_seq();
            let events: Vec<EdgeEvent> = (first..first + 5).map(ev).collect();
            wal.append_batch(&events).unwrap();
            assert_eq!(
                wal.sync_count(),
                (batch_no + 1) / 8,
                "sync cadence must count batches"
            );
        }
        // 80 records over 16 batches: 2 syncs (units), where the
        // per-record reading would have made 10.
        assert_eq!(wal.sync_count(), 2);
        // Single appends are one-record batches: the historical
        // per-record cadence is unchanged.
        for i in 0..8u64 {
            wal.append(ev(80 + i)).unwrap();
        }
        assert_eq!(wal.sync_count(), 3);

        // A policy-aligned batch of N = 4n performs ⌈N/n⌉ syncs, each on
        // a record boundary inside the batched write sequence.
        let t = TempDir::new("wal");
        let mut wal = Wal::create(
            t.path(),
            "wal-",
            WalOptions {
                fsync: FsyncPolicy::EveryN(256),
                segment_bytes: 1 << 20,
            },
        )
        .unwrap();
        let events: Vec<EdgeEvent> = (0..1024).map(ev).collect();
        wal.append_batch(&events).unwrap();
        assert_eq!(wal.sync_count(), 4, "⌈1024/256⌉ syncs");
        // And the trailing partial group carries: 100 more events → no
        // sync until the next period fills.
        let more: Vec<EdgeEvent> = (1024..1124).map(ev).collect();
        wal.append_batch(&more).unwrap();
        assert_eq!(wal.sync_count(), 4);
        wal.close().unwrap();
        let (records, _) = collect(t.path(), "wal-", 0);
        assert_eq!(records.len(), 1124);
    }

    #[test]
    fn append_batch_straddles_segment_rolls() {
        let opts = WalOptions {
            segment_bytes: 256,
            ..WalOptions::default()
        };
        let t = TempDir::new("wal");
        let mut wal = Wal::create(t.path(), "wal-", opts).unwrap();
        let events: Vec<EdgeEvent> = (0..200).map(ev).collect();
        assert_eq!(wal.append_batch(&events).unwrap(), 0);
        assert!(wal.segment_count() > 1, "batch must roll segments");
        wal.close().unwrap();
        let mut seqs = Vec::new();
        let stats = replay(t.path(), "wal-", 0, |r| seqs.push(r.seq)).unwrap();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
        assert!(!stats.torn_tail);
        // Empty batch is a no-op at the current sequence.
        assert_eq!(Wal::open(t.path(), "wal-", opts).unwrap().next_seq(), 200);
    }

    #[test]
    fn shared_wal_append_batch_routes_and_replays() {
        let opts = WalOptions {
            segment_bytes: 512,
            ..WalOptions::default()
        };
        let events: Vec<EdgeEvent> = (0..500).map(ev).collect();

        let t_single = TempDir::new("wal-s");
        let single = SharedWal::create(t_single.path(), 4, opts).unwrap();
        for &e in &events {
            single.append(e).unwrap();
        }
        single.sync_all().unwrap();
        drop(single);

        let t_batch = TempDir::new("wal-b");
        let batched = SharedWal::create(t_batch.path(), 4, opts).unwrap();
        for chunk in events.chunks(37) {
            assert_eq!(batched.append_batch(chunk).unwrap(), chunk.len() as u64);
        }
        assert_eq!(batched.next_seq(), 500);
        batched.sync_all().unwrap();
        drop(batched);

        // Global sequence runs differ (dense per-partition runs vs
        // round-robin), but each partition must hold the same events in
        // the same stream order — per-target order is the contract.
        for p in 0..4 {
            let mut single_events = Vec::new();
            replay(t_single.path(), &SharedWal::prefix(p), 0, |r| {
                single_events.push(r.event)
            })
            .unwrap();
            let mut batch_events = Vec::new();
            replay(t_batch.path(), &SharedWal::prefix(p), 0, |r| {
                batch_events.push(r.event)
            })
            .unwrap();
            assert_eq!(single_events, batch_events, "partition {p}");
        }
        // Merged replay is gap-free and complete.
        let mut n = 0u64;
        let stats =
            SharedWal::replay_merged_fenced(t_batch.path(), 4, &[0; 4], |_| n += 1).unwrap();
        assert_eq!(n, 500);
        assert!(!stats.torn_tail);
        let reopened = SharedWal::open(t_batch.path(), 4, opts).unwrap();
        assert_eq!(reopened.next_seq(), 500);
    }

    #[test]
    fn tracked_appends_gate_the_fence_until_applied() {
        let t = TempDir::new("wal");
        let shared = SharedWal::create(t.path(), 4, WalOptions::default()).unwrap();
        let (n, ticket) = shared.append_batch_tracked(&[ev(0)]).unwrap();
        let p = route_partition(&ev(0).dst, 4);
        assert_eq!((n, shared.next_seq()), (1, 1), "one event, sequence 0");
        assert_eq!(shared.pending[p].load(Ordering::Relaxed), 1);
        // The fence on any *other* partition is unaffected by p's ticket.
        let q = (p + 1) % 4;
        shared
            .with_partition_fenced(q, |fence| {
                assert_eq!(fence, 0);
                Ok(())
            })
            .unwrap();
        drop(ticket);
        assert_eq!(shared.pending[p].load(Ordering::Relaxed), 0);
        // With the apply finished, p's fence covers the appended event.
        shared
            .with_partition_fenced(p, |fence| {
                assert_eq!(fence, 1);
                Ok(())
            })
            .unwrap();

        // Batch tickets register once per touched partition and all
        // withdraw on drop.
        let events: Vec<EdgeEvent> = (0..50).map(ev).collect();
        let (n, ticket) = shared.append_batch_tracked(&events).unwrap();
        assert_eq!(n, 50);
        let touched: u64 = shared
            .pending
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        assert!(touched >= 1);
        drop(ticket);
        for c in &shared.pending {
            assert_eq!(c.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn fence_blocks_until_inflight_apply_drops() {
        use std::sync::atomic::AtomicBool;
        let t = TempDir::new("wal");
        let shared = Arc::new(SharedWal::create(t.path(), 1, WalOptions::default()).unwrap());
        let (_, ticket) = shared.append_batch_tracked(&[ev(0)]).unwrap();
        let fenced = Arc::new(AtomicBool::new(false));
        let handle = {
            let shared = Arc::clone(&shared);
            let fenced = Arc::clone(&fenced);
            std::thread::spawn(move || {
                shared
                    .with_partition_fenced(0, |fence| {
                        fenced.store(true, Ordering::SeqCst);
                        Ok(fence)
                    })
                    .unwrap()
            })
        };
        // The fence must not cut while the apply is in flight.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!fenced.load(Ordering::SeqCst));
        drop(ticket);
        assert_eq!(handle.join().unwrap(), 1);
        assert!(fenced.load(Ordering::SeqCst));
    }

    #[test]
    fn fenced_replay_honors_per_partition_fences() {
        let t = TempDir::new("wal");
        let shared = SharedWal::create(t.path(), 2, WalOptions::default()).unwrap();
        for i in 0..200 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        // Cut partition 0 at its current tail, then keep ingesting into
        // both partitions — the staggered-fence shape a non-quiescent
        // checkpoint produces.
        let f0 = shared.with_partition_fenced(0, Ok).unwrap();
        for i in 200..400 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        let fences = [f0, 0];
        drop(shared);
        let mut seqs = Vec::new();
        let stats =
            SharedWal::replay_merged_fenced(t.path(), 2, &fences, |r| seqs.push(r.seq)).unwrap();
        assert!(!stats.torn_tail);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        // Every replayed sequence below partition 0's fence must belong
        // to partition 1 (partition 0's were cut away by its fence).
        let mut p1_seqs = Vec::new();
        replay(t.path(), &SharedWal::prefix(1), 0, |r| p1_seqs.push(r.seq)).unwrap();
        for &s in seqs.iter().filter(|&&s| s < f0) {
            assert!(
                p1_seqs.contains(&s),
                "seq {s} below fence must be partition 1's"
            );
        }
        // And nothing of partition 1 was dropped.
        assert_eq!(
            seqs.iter().filter(|&&s| s < f0).count(),
            p1_seqs.iter().filter(|&&s| s < f0).count()
        );
        // Everything at/above max(fences) is dense through the minimum
        // durable tail — the uniform-replay guarantee, preserved.
        let uniform: Vec<u64> = {
            let mut v = Vec::new();
            SharedWal::replay_merged_fenced(t.path(), 2, &[f0; 2], |r| v.push(r.seq)).unwrap();
            v
        };
        let fenced_above: Vec<u64> = seqs.iter().copied().filter(|&s| s >= f0).collect();
        assert_eq!(fenced_above, uniform);
    }

    #[test]
    fn fenced_reclaim_uses_each_partitions_own_fence() {
        let t = TempDir::new("wal");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let shared = SharedWal::create(t.path(), 2, opts).unwrap();
        for i in 0..300 {
            shared.append(ev(i)).unwrap();
        }
        shared.sync_all().unwrap();
        let tails = shared.partition_next_seqs();
        // A zero fence reclaims nothing on that partition.
        let before: usize = (0..2)
            .map(|i| {
                list_segments(t.path(), &SharedWal::prefix(i))
                    .unwrap()
                    .len()
            })
            .sum();
        shared
            .reclaim_before_fenced(Timestamp::from_secs(10_000), &[0, 0])
            .unwrap();
        let after_zero: usize = (0..2)
            .map(|i| {
                list_segments(t.path(), &SharedWal::prefix(i))
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(before, after_zero);
        // Fencing partition 0 at its tail reclaims its closed segments
        // while partition 1 (fence 0) keeps everything.
        let p1_before = list_segments(t.path(), &SharedWal::prefix(1))
            .unwrap()
            .len();
        let removed = shared
            .reclaim_before_fenced(Timestamp::from_secs(10_000), &[tails[0], 0])
            .unwrap();
        assert!(removed > 0);
        assert_eq!(
            list_segments(t.path(), &SharedWal::prefix(1))
                .unwrap()
                .len(),
            p1_before
        );
        // Full fence vector reclaims everything closed, matching the
        // uniform path's outcome.
        shared
            .reclaim_before_fenced(Timestamp::from_secs(10_000), &tails)
            .unwrap();
        let left: usize = (0..2)
            .map(|i| {
                list_segments(t.path(), &SharedWal::prefix(i))
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(left, 2, "only the active segment per partition remains");
    }

    #[test]
    fn fsync_policies_accept_appends() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(8),
            FsyncPolicy::Never,
        ] {
            let t = TempDir::new("wal");
            let mut wal = Wal::create(
                t.path(),
                "wal-",
                WalOptions {
                    fsync: policy,
                    ..WalOptions::default()
                },
            )
            .unwrap();
            for i in 0..30 {
                wal.append(ev(i)).unwrap();
            }
            wal.close().unwrap();
            let (records, _) = collect(t.path(), "wal-", 0);
            assert_eq!(records.len(), 30, "{policy:?}");
        }
    }
}
