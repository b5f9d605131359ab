//! Epoch-aligned checkpoints of the temporal store `D` — full (`MGCK`)
//! and incremental delta (`MGCI`).
//!
//! A **full** checkpoint captures every resident `(dst, src, created_at)`
//! entry — per-target lists in stored time order, targets sorted
//! ascending for determinism — plus the WAL **fence vector** it is
//! consistent through: for each WAL partition `p`, `fences[p]` is the
//! first sequence the checkpoint does *not* cover, so recovery replays
//! partition `p` from `fences[p]`. A length-1 fence vector is uniform
//! (a one-partition engine, and legacy v1 files whose single `last_seq`
//! reads as fence `last_seq + 1` everywhere).
//!
//! A **delta** checkpoint (`MGCI`) layers over a predecessor: it records
//! only the targets whose lists changed since the predecessor's fence
//! vector — each as its *complete current* list (or a tombstone when the
//! target aged out entirely) — plus the new fence vector and the
//! predecessor's id it chains to. The chain mirrors the `S` snapshot's
//! base+delta design: restore loads the newest decodable full, then
//! applies each strictly-linked delta in id order (a delta's target list
//! replaces the base's; a tombstone deletes it), after which each WAL
//! partition's tail above the *tip's* fence finishes the job.
//!
//! Restore is replay-shaped: re-inserting the merged entries in file
//! order reproduces each target list byte for byte (the store's insert
//! path is deterministic for in-order batches).
//!
//! Files are written to a temp name, fsynced, and atomically renamed, so
//! a crash mid-checkpoint leaves the previous chain intact. Writing a
//! full prunes **everything** older (fulls and deltas — the new full
//! supersedes the whole chain); writing a delta prunes *nothing*,
//! because every predecessor in its chain is still load-bearing.

use magicrecs_graph::io::{
    read_ascending_step, read_exact_checked, read_varint_checked, write_varint, Check,
};
use magicrecs_types::{Error, Result, Timestamp, UserId};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"MGCK";
const DELTA_MAGIC: &[u8; 4] = b"MGCI";
const VERSION_V1: u32 = 1;
const VERSION: u32 = 2;
const DELTA_VERSION: u32 = 1;

/// A decoded checkpoint: the store's entries plus the WAL positions they
/// are consistent through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The last WAL sequence this checkpoint's cut assigned — the file's
    /// id. Replay resumes from the fence vector, not from here; this is
    /// the chain-ordering key.
    pub last_seq: u64,
    /// Per-partition fences: partition `p` replays from `fences[p]`.
    /// Length 1 means uniform (one-partition engine / legacy v1 file);
    /// [`Checkpoint::fence_vector`] broadcasts it.
    pub fences: Vec<u64>,
    /// `(dst, src, created_at)` entries; per-target in stored time order.
    pub entries: Vec<(UserId, UserId, Timestamp)>,
}

impl Checkpoint {
    /// The fence vector broadcast to `parts` partitions. A stored vector
    /// of matching length is used as-is; a length-1 vector is uniform
    /// semantics and broadcasts; any other mismatch is refused — the
    /// partition count is part of the log's identity.
    pub fn fence_vector(&self, parts: usize) -> Result<Vec<u64>> {
        broadcast_fences(&self.fences, parts)
    }
}

/// Broadcasts a stored fence vector to `parts` partitions (see
/// [`Checkpoint::fence_vector`]).
pub fn broadcast_fences(fences: &[u64], parts: usize) -> Result<Vec<u64>> {
    if fences.len() == parts {
        Ok(fences.to_vec())
    } else if fences.len() == 1 {
        Ok(vec![fences[0]; parts])
    } else {
        Err(Error::Invariant(format!(
            "checkpoint fence vector has {} partition(s) but the wal has {parts} — \
             the partition count is part of the log's identity",
            fences.len()
        )))
    }
}

/// A decoded delta checkpoint: the changed targets since its chain
/// predecessor, each as its complete current list or a tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCheckpoint {
    /// Chain-ordering key (same id space as [`Checkpoint::last_seq`]).
    pub id: u64,
    /// The id of the chain predecessor this delta layers over — either a
    /// full checkpoint or an earlier delta. The chain loader refuses a
    /// delta whose `base_id` is not exactly the current tip.
    pub base_id: u64,
    /// Per-partition fences as of this delta's cut (length-1 = uniform).
    pub fences: Vec<u64>,
    /// Complete current lists of the changed targets.
    pub entries: Vec<(UserId, UserId, Timestamp)>,
    /// Targets that existed in the predecessor's view but no longer hold
    /// any resident entry.
    pub tombstones: Vec<UserId>,
}

fn ckpt_path(dir: &Path, last_seq: u64) -> PathBuf {
    dir.join(format!("d-ckpt-{last_seq:020}.mgck"))
}

fn delta_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("d-ckpt-{id:020}.mgci"))
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(format!("checkpoint write failed: {e}"))
}

/// Writes the sorted target groups (and interleaved tombstones) shared
/// by the full-v2 and delta encodings: targets strictly ascending,
/// delta-stepped; per group a count varint (0 = tombstone, only legal
/// when `tombstones` is in play) then `(src, at-delta)` pairs.
fn write_groups<W: Write>(
    w: &mut W,
    check: &mut Check,
    entries: &mut [(UserId, UserId, Timestamp)],
    tombstones: &mut Vec<UserId>,
) -> Result<()> {
    // Stable by target: per-target time order (export order) survives.
    entries.sort_by_key(|&(dst, _, _)| dst);
    tombstones.sort_unstable();
    tombstones.dedup();
    let groups: Vec<&[(UserId, UserId, Timestamp)]> = entries.chunk_by(|a, b| a.0 == b.0).collect();
    if let Some(t) = tombstones.iter().find(|t| {
        groups
            .binary_search_by_key(&t.raw(), |g| g[0].0.raw())
            .is_ok()
    }) {
        return Err(Error::Invariant(format!(
            "target {} is both exported and tombstoned in one checkpoint",
            t.raw()
        )));
    }
    w.write_all(&((groups.len() + tombstones.len()) as u64).to_le_bytes())
        .map_err(io_err)?;
    // Merge the two ascending streams so the on-disk targets stay
    // strictly ascending (the decoder's integrity check).
    let mut gi = 0usize;
    let mut ti = 0usize;
    let mut prev_dst = 0u64;
    let mut first = true;
    while gi < groups.len() || ti < tombstones.len() {
        let take_group = match (groups.get(gi), tombstones.get(ti)) {
            (Some(g), Some(t)) => g[0].0 < *t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let dst = if take_group {
            groups[gi][0].0.raw()
        } else {
            tombstones[ti].raw()
        };
        check.mix(dst);
        write_varint(w, if first { dst } else { dst - prev_dst }).map_err(io_err)?;
        first = false;
        prev_dst = dst;
        if take_group {
            let group = groups[gi];
            gi += 1;
            write_varint(w, group.len() as u64).map_err(io_err)?;
            let mut prev_at = 0u64;
            for (i, &(_, src, at)) in group.iter().enumerate() {
                check.mix(src.raw());
                check.mix(at.as_micros());
                write_varint(w, src.raw()).map_err(io_err)?;
                // Time-ordered within a list: non-negative deltas.
                let at = at.as_micros();
                write_varint(w, if i == 0 { at } else { at - prev_at }).map_err(io_err)?;
                prev_at = at;
            }
        } else {
            ti += 1;
            write_varint(w, 0).map_err(io_err)?; // tombstone marker
            check.mix(u64::MAX); // distinguish "count 0" from absence
        }
    }
    Ok(())
}

/// Decoded groups: live `(dst, src, at)` entries plus tombstoned targets.
type DecodedGroups = (Vec<(UserId, UserId, Timestamp)>, Vec<UserId>);

/// Reads the groups written by [`write_groups`]. `allow_tombstones`
/// distinguishes the delta encoding (count 0 = tombstone) from the full
/// encoding (count 0 = corrupt).
fn read_groups<R: std::io::Read>(
    r: &mut R,
    check: &mut Check,
    targets: u64,
    allow_tombstones: bool,
    ctx: &str,
) -> Result<DecodedGroups> {
    let mut entries = Vec::new();
    let mut tombstones = Vec::new();
    let mut prev_dst = 0u64;
    for t in 0..targets {
        let dst = read_ascending_step(r, t == 0, prev_dst, ctx, "target")?;
        check.mix(dst);
        prev_dst = dst;
        let count = read_varint_checked(r, ctx)?;
        if count == 0 {
            if !allow_tombstones {
                return Err(Error::Corrupt(format!(
                    "{ctx}: empty target list for {dst}"
                )));
            }
            check.mix(u64::MAX);
            tombstones.push(UserId(dst));
            continue;
        }
        let mut prev_at = 0u64;
        for i in 0..count {
            let src = read_varint_checked(r, ctx)?;
            let at_delta = read_varint_checked(r, ctx)?;
            let at = if i == 0 {
                at_delta
            } else {
                prev_at.checked_add(at_delta).ok_or_else(|| {
                    Error::Corrupt(format!("{ctx}: timestamp overflows past {prev_at}"))
                })?
            };
            check.mix(src);
            check.mix(at);
            entries.push((UserId(dst), UserId(src), Timestamp::from_micros(at)));
            prev_at = at;
        }
    }
    Ok((entries, tombstones))
}

fn write_fences<W: Write>(w: &mut W, check: &mut Check, fences: &[u64]) -> Result<()> {
    w.write_all(&(fences.len() as u64).to_le_bytes())
        .map_err(io_err)?;
    check.mix(fences.len() as u64);
    for &f in fences {
        w.write_all(&f.to_le_bytes()).map_err(io_err)?;
        check.mix(f);
    }
    Ok(())
}

fn read_fences<R: std::io::Read>(r: &mut R, check: &mut Check, ctx: &str) -> Result<Vec<u64>> {
    let mut n8 = [0u8; 8];
    read_exact_checked(r, &mut n8, ctx)?;
    let parts = u64::from_le_bytes(n8);
    if parts == 0 || parts > 1 << 20 {
        return Err(Error::Corrupt(format!(
            "{ctx}: implausible fence vector length {parts}"
        )));
    }
    check.mix(parts);
    let mut fences = Vec::with_capacity(parts as usize);
    for _ in 0..parts {
        read_exact_checked(r, &mut n8, ctx)?;
        let f = u64::from_le_bytes(n8);
        check.mix(f);
        fences.push(f);
    }
    Ok(fences)
}

/// Serializes a full checkpoint with a uniform fence (`last_seq + 1`
/// everywhere) into `w` — the one-partition engine's shape.
pub fn save_checkpoint<W: Write>(
    entries: Vec<(UserId, UserId, Timestamp)>,
    last_seq: u64,
    w: &mut W,
) -> Result<()> {
    save_checkpoint_fenced(entries, last_seq, &[last_seq.saturating_add(1)], w)
}

/// Serializes a full checkpoint (`entries` in any order; sorted here)
/// with an explicit per-partition fence vector into `w`.
pub fn save_checkpoint_fenced<W: Write>(
    mut entries: Vec<(UserId, UserId, Timestamp)>,
    last_seq: u64,
    fences: &[u64],
    w: &mut W,
) -> Result<()> {
    w.write_all(MAGIC).map_err(io_err)?;
    w.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
    w.write_all(&last_seq.to_le_bytes()).map_err(io_err)?;
    let mut check = Check::new();
    check.mix(last_seq);
    write_fences(w, &mut check, fences)?;
    write_groups(w, &mut check, &mut entries, &mut Vec::new())?;
    w.write_all(&check.finish().to_le_bytes()).map_err(io_err)?;
    Ok(())
}

/// Serializes a delta checkpoint into `w`: the changed targets' complete
/// current lists plus tombstones, chained to `base_id`.
pub fn save_delta_checkpoint<W: Write>(
    mut entries: Vec<(UserId, UserId, Timestamp)>,
    mut tombstones: Vec<UserId>,
    id: u64,
    base_id: u64,
    fences: &[u64],
    w: &mut W,
) -> Result<()> {
    w.write_all(DELTA_MAGIC).map_err(io_err)?;
    w.write_all(&DELTA_VERSION.to_le_bytes()).map_err(io_err)?;
    w.write_all(&id.to_le_bytes()).map_err(io_err)?;
    w.write_all(&base_id.to_le_bytes()).map_err(io_err)?;
    let mut check = Check::new();
    check.mix(id);
    check.mix(base_id);
    write_fences(w, &mut check, fences)?;
    write_groups(w, &mut check, &mut entries, &mut tombstones)?;
    w.write_all(&check.finish().to_le_bytes()).map_err(io_err)?;
    Ok(())
}

/// Decodes a checkpoint written by [`save_checkpoint`] /
/// [`save_checkpoint_fenced`] (or a legacy v1 file, whose single
/// `last_seq` becomes the uniform fence `last_seq + 1`). Any malformed
/// shape is [`Error::Corrupt`].
pub fn load_checkpoint<R: std::io::Read>(r: &mut R) -> Result<Checkpoint> {
    let ctx = "checkpoint load";
    let mut magic = [0u8; 4];
    read_exact_checked(r, &mut magic, ctx)?;
    if &magic != MAGIC {
        return Err(Error::Corrupt(
            "bad magic: not a magicrecs checkpoint".into(),
        ));
    }
    let mut v4 = [0u8; 4];
    read_exact_checked(r, &mut v4, ctx)?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION_V1 && version != VERSION {
        return Err(Error::Corrupt(format!(
            "unsupported checkpoint version {version} (expected {VERSION_V1} or {VERSION})"
        )));
    }
    let mut n8 = [0u8; 8];
    read_exact_checked(r, &mut n8, ctx)?;
    let last_seq = u64::from_le_bytes(n8);
    let mut check = Check::new();
    check.mix(last_seq);
    let fences = if version == VERSION {
        read_fences(r, &mut check, ctx)?
    } else {
        // v1 stored one global covered seq: uniform fence everywhere.
        vec![last_seq.saturating_add(1)]
    };
    read_exact_checked(r, &mut n8, ctx)?;
    let targets = u64::from_le_bytes(n8);
    let (entries, _) = read_groups(r, &mut check, targets, false, ctx)?;
    let mut c8 = [0u8; 8];
    read_exact_checked(r, &mut c8, ctx)?;
    if u64::from_le_bytes(c8) != check.finish() {
        return Err(Error::Corrupt("checkpoint checksum mismatch".into()));
    }
    Ok(Checkpoint {
        last_seq,
        fences,
        entries,
    })
}

/// Decodes a delta checkpoint written by [`save_delta_checkpoint`].
pub fn load_delta_checkpoint<R: std::io::Read>(r: &mut R) -> Result<DeltaCheckpoint> {
    let ctx = "delta checkpoint load";
    let mut magic = [0u8; 4];
    read_exact_checked(r, &mut magic, ctx)?;
    if &magic != DELTA_MAGIC {
        return Err(Error::Corrupt(
            "bad magic: not a magicrecs delta checkpoint".into(),
        ));
    }
    let mut v4 = [0u8; 4];
    read_exact_checked(r, &mut v4, ctx)?;
    let version = u32::from_le_bytes(v4);
    if version != DELTA_VERSION {
        return Err(Error::Corrupt(format!(
            "unsupported delta checkpoint version {version} (expected {DELTA_VERSION})"
        )));
    }
    let mut n8 = [0u8; 8];
    read_exact_checked(r, &mut n8, ctx)?;
    let id = u64::from_le_bytes(n8);
    read_exact_checked(r, &mut n8, ctx)?;
    let base_id = u64::from_le_bytes(n8);
    if base_id >= id {
        return Err(Error::Corrupt(format!(
            "{ctx}: base id {base_id} not below id {id}"
        )));
    }
    let mut check = Check::new();
    check.mix(id);
    check.mix(base_id);
    let fences = read_fences(r, &mut check, ctx)?;
    read_exact_checked(r, &mut n8, ctx)?;
    let targets = u64::from_le_bytes(n8);
    let (entries, tombstones) = read_groups(r, &mut check, targets, true, ctx)?;
    let mut c8 = [0u8; 8];
    read_exact_checked(r, &mut c8, ctx)?;
    if u64::from_le_bytes(c8) != check.finish() {
        return Err(Error::Corrupt("delta checkpoint checksum mismatch".into()));
    }
    Ok(DeltaCheckpoint {
        id,
        base_id,
        fences,
        entries,
        tombstones,
    })
}

/// Writes a checkpoint file into `dir` (temp-file, **fsync**, atomic
/// rename — a checkpoint authorizes deleting its predecessor and
/// reclaiming WAL segments, so it must actually be on disk before it
/// supersedes anything), then deletes any older checkpoint files.
/// Returns the final path.
pub fn write_checkpoint(
    dir: &Path,
    entries: Vec<(UserId, UserId, Timestamp)>,
    last_seq: u64,
) -> Result<PathBuf> {
    write_checkpoint_with(dir, entries, last_seq, &crate::vfs::StdVfs)
}

/// [`write_checkpoint`] on an explicit I/O backend (see [`crate::Vfs`]).
pub fn write_checkpoint_with(
    dir: &Path,
    entries: Vec<(UserId, UserId, Timestamp)>,
    last_seq: u64,
    vfs: &dyn crate::vfs::Vfs,
) -> Result<PathBuf> {
    let fences = [last_seq.saturating_add(1)];
    write_checkpoint_fenced_with(dir, entries, last_seq, &fences, vfs).map(|(p, _)| p)
}

/// Writes a full fenced checkpoint file into `dir` (temp-file,
/// **fsync**, atomic rename — a checkpoint authorizes deleting its
/// predecessors and reclaiming WAL segments, so it must actually be on
/// disk before it supersedes anything), then deletes every older
/// checkpoint file — fulls *and* deltas: the new full replaces the whole
/// chain. Returns the final path and the file's size in bytes (the
/// rebase policy's denominator).
///
/// A failed *pruning* unlink propagates as [`Error::Io`] even though the
/// new checkpoint is already durable at that point: the newest-wins
/// loader keeps recovery correct either way, but swallowing the error
/// would silently leak one stale file per cadence tick forever.
/// Retrying the checkpoint (the caller's natural response) re-attempts
/// the same pruning, so transient failures self-heal. `NotFound` is
/// tolerated — already gone is already pruned.
pub fn write_checkpoint_fenced_with(
    dir: &Path,
    entries: Vec<(UserId, UserId, Timestamp)>,
    last_seq: u64,
    fences: &[u64],
    vfs: &dyn crate::vfs::Vfs,
) -> Result<(PathBuf, u64)> {
    let final_path = ckpt_path(dir, last_seq);
    let tmp_path = final_path.with_extension("mgck.tmp");
    let mut buf = Vec::new();
    save_checkpoint_fenced(entries, last_seq, fences, &mut buf)?;
    crate::fsutil::publish_durably(vfs, &tmp_path, &final_path, &buf)?;
    let mut stale: Vec<PathBuf> = Vec::new();
    stale.extend(
        list_checkpoints(dir)?
            .into_iter()
            .filter(|&(_, seq)| seq < last_seq)
            .map(|(p, _)| p),
    );
    // Deltas at or below the new full's id are superseded by it; deltas
    // *above* it cannot exist (ids come from one monotone sequence and a
    // full is only written at the current tip).
    stale.extend(
        list_delta_checkpoints(dir)?
            .into_iter()
            .filter(|&(_, id)| id <= last_seq)
            .map(|(p, _)| p),
    );
    for path in stale {
        match vfs.remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(Error::Io(format!(
                    "checkpoint prune {}: {e}",
                    path.display()
                )))
            }
        }
    }
    let m = crate::metrics::ckpt();
    m.full_writes.incr();
    m.full_bytes.add(buf.len() as u64);
    // A published full resets the chain — nothing dirty rides above it.
    m.dirty_ratio_pct.set(0);
    Ok((final_path, buf.len() as u64))
}

/// Writes a delta checkpoint file into `dir` (same temp-file + fsync +
/// atomic rename discipline). Prunes **nothing**: every predecessor in
/// the chain is still load-bearing. Returns the final path and the
/// file's size in bytes.
pub fn write_delta_checkpoint_with(
    dir: &Path,
    entries: Vec<(UserId, UserId, Timestamp)>,
    tombstones: Vec<UserId>,
    id: u64,
    base_id: u64,
    fences: &[u64],
    vfs: &dyn crate::vfs::Vfs,
) -> Result<(PathBuf, u64)> {
    let final_path = delta_path(dir, id);
    let tmp_path = final_path.with_extension("mgci.tmp");
    let mut buf = Vec::new();
    save_delta_checkpoint(entries, tombstones, id, base_id, fences, &mut buf)?;
    crate::fsutil::publish_durably(vfs, &tmp_path, &final_path, &buf)?;
    let m = crate::metrics::ckpt();
    m.delta_writes.incr();
    m.delta_bytes.add(buf.len() as u64);
    Ok((final_path, buf.len() as u64))
}

/// Full checkpoint files in `dir`, sorted ascending by id.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(PathBuf, u64)>> {
    list_by_suffix(dir, ".mgck")
}

/// Delta checkpoint files in `dir`, sorted ascending by id.
pub fn list_delta_checkpoints(dir: &Path) -> Result<Vec<(PathBuf, u64)>> {
    list_by_suffix(dir, ".mgci")
}

fn list_by_suffix(dir: &Path, suffix: &str) -> Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| Error::Io(format!("checkpoint dir: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::Io(format!("checkpoint dir: {e}")))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("d-ckpt-")
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((entry.path(), seq));
        }
    }
    out.sort_by_key(|&(_, seq)| seq);
    Ok(out)
}

/// Loads the newest **full** checkpoint in `dir` that decodes cleanly,
/// skipping corrupt ones (a crash can only tear the newest, which the
/// atomic rename already guards; skipping is defense in depth). `None`
/// when no usable checkpoint exists — recovery then replays the whole
/// WAL. Deltas are ignored; recovery uses [`load_latest_chain`].
pub fn load_latest_checkpoint(dir: &Path) -> Result<Option<Checkpoint>> {
    for (path, _) in list_checkpoints(dir)?.into_iter().rev() {
        let bytes = std::fs::read(&path).map_err(|e| Error::Io(format!("checkpoint read: {e}")))?;
        match load_checkpoint(&mut bytes.as_slice()) {
            Ok(ck) => return Ok(Some(ck)),
            Err(Error::Corrupt(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// A resolved checkpoint chain: the newest decodable full plus every
/// strictly-linked delta above it, merged into one restorable view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointChain {
    /// The tip's id — the chain's position in the id space.
    pub last_seq: u64,
    /// The tip's fence vector (length-1 = uniform): partition `p`
    /// replays from `fences[p]`.
    pub fences: Vec<u64>,
    /// Merged entries, targets ascending, per-target stored time order —
    /// same restore shape as a full checkpoint's entries.
    pub entries: Vec<(UserId, UserId, Timestamp)>,
    /// Deltas applied on top of the full.
    pub chain_len: u64,
    /// Size of the full checkpoint file.
    pub full_bytes: u64,
    /// Total size of the applied delta files.
    pub delta_bytes: u64,
}

/// Resolves the checkpoint chain in `dir`: walks full checkpoints newest
/// → oldest until one decodes, then applies every delta above it in
/// ascending id order, requiring each `base_id` to equal the current tip
/// (a delta's target lists replace the base's; tombstones delete).
///
/// Stale deltas at or below the full's id are ignored (a failed prune
/// can leave them behind). A delta *above* the full that is corrupt or
/// does not link is [`Error::Corrupt`], not skipped: deltas are
/// published atomically (temp + fsync + rename), so an undecodable or
/// unchained delta means real damage, and the WAL segments its fences
/// authorized reclaiming may already be gone — restoring without it
/// would silently lose its targets' history.
pub fn load_latest_chain(dir: &Path) -> Result<Option<CheckpointChain>> {
    let read = |path: &Path| -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| Error::Io(format!("checkpoint read: {e}")))
    };
    let mut base: Option<(Checkpoint, u64)> = None;
    for (path, _) in list_checkpoints(dir)?.into_iter().rev() {
        let bytes = read(&path)?;
        match load_checkpoint(&mut bytes.as_slice()) {
            Ok(ck) => {
                base = Some((ck, bytes.len() as u64));
                break;
            }
            Err(Error::Corrupt(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    let Some((base, full_bytes)) = base else {
        // No usable full: deltas alone cannot restore (they hold only
        // changed targets). If deltas exist this is damage, surfaced so
        // the operator knows history was lost rather than silently
        // rebuilding from the WAL alone.
        if let Some((path, _)) = list_delta_checkpoints(dir)?.first() {
            return Err(Error::Corrupt(format!(
                "delta checkpoint {} has no usable full checkpoint beneath it",
                path.display()
            )));
        }
        return Ok(None);
    };
    // Merge: target -> complete list. BTreeMap keeps targets ascending
    // for the deterministic restore order fulls already guarantee.
    let mut lists: BTreeMap<UserId, Vec<(UserId, Timestamp)>> = BTreeMap::new();
    for &(dst, src, at) in &base.entries {
        lists.entry(dst).or_default().push((src, at));
    }
    let mut tip_id = base.last_seq;
    let mut fences = base.fences.clone();
    let mut chain_len = 0u64;
    let mut delta_bytes = 0u64;
    for (path, id) in list_delta_checkpoints(dir)? {
        if id <= base.last_seq {
            continue; // superseded leftover of a failed prune
        }
        let bytes = read(&path)?;
        let delta = load_delta_checkpoint(&mut bytes.as_slice()).map_err(|e| match e {
            Error::Corrupt(msg) => Error::Corrupt(format!(
                "delta checkpoint {} is damaged ({msg}) — the chain above the last \
                 full checkpoint cannot be trusted",
                path.display()
            )),
            other => other,
        })?;
        if delta.base_id != tip_id {
            return Err(Error::Corrupt(format!(
                "delta checkpoint {} chains to {} but the tip is {tip_id} — a link \
                 of the chain is missing",
                path.display(),
                delta.base_id
            )));
        }
        for tomb in &delta.tombstones {
            lists.remove(tomb);
        }
        let mut it = delta.entries.into_iter().peekable();
        while let Some(&(dst, _, _)) = it.peek() {
            let mut list: Vec<(UserId, Timestamp)> = Vec::new();
            while let Some(&(d, src, at)) = it.peek() {
                if d != dst {
                    break;
                }
                list.push((src, at));
                it.next();
            }
            lists.insert(dst, list);
        }
        tip_id = delta.id;
        fences = delta.fences;
        chain_len += 1;
        delta_bytes += bytes.len() as u64;
    }
    let entries = lists
        .into_iter()
        .flat_map(|(dst, list)| list.into_iter().map(move |(src, at)| (dst, src, at)))
        .collect();
    Ok(Some(CheckpointChain {
        last_seq: tip_id,
        fences,
        entries,
        chain_len,
        full_bytes,
        delta_bytes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use magicrecs_temporal::TemporalEdgeStore;
    use magicrecs_types::Duration;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn store_with_entries() -> TemporalEdgeStore {
        let mut d = TemporalEdgeStore::with_window(Duration::from_mins(30));
        for i in 0..200u64 {
            d.insert(u(i % 17), u(1000 + i % 9), ts(10 + i));
        }
        d.insert(u(3), u(1000), ts(5)); // out-of-order arrival
        d
    }

    #[test]
    fn store_roundtrips_through_checkpoint() {
        let d = store_with_entries();
        let mut dump = Vec::new();
        d.export_entries(&mut dump);
        let mut buf = Vec::new();
        save_checkpoint(dump, 123, &mut buf).unwrap();
        let ck = load_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(ck.last_seq, 123);
        assert_eq!(ck.entries.len() as u64, d.resident_entries());

        let mut restored = TemporalEdgeStore::with_window(Duration::from_mins(30));
        for &(dst, src, at) in &ck.entries {
            restored.insert(src, dst, at);
        }
        let mut d = d;
        assert_eq!(restored.resident_entries(), d.resident_entries());
        assert_eq!(restored.resident_targets(), d.resident_targets());
        for target in 1000..1009u64 {
            assert_eq!(
                restored.witnesses(u(target), ts(300)),
                d.witnesses(u(target), ts(300)),
                "target {target}"
            );
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let d = store_with_entries();
        let mut a = Vec::new();
        d.export_entries(&mut a);
        let mut b = a.clone();
        // Different input order (export order is unspecified): same bytes.
        b.reverse();
        // Reversal breaks per-target time order, so restrict the shuffle
        // to whole target groups: sort both stably by target and compare.
        let mut buf_a = Vec::new();
        save_checkpoint(a, 7, &mut buf_a).unwrap();
        let mut groups: Vec<Vec<(UserId, UserId, Timestamp)>> = Vec::new();
        b.reverse(); // back to export order
        for e in b {
            match groups.last_mut() {
                Some(g) if g[0].0 == e.0 => g.push(e),
                _ => groups.push(vec![e]),
            }
        }
        groups.reverse(); // permute target groups only
        let shuffled: Vec<_> = groups.into_iter().flatten().collect();
        let mut buf_b = Vec::new();
        save_checkpoint(shuffled, 7, &mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let d = store_with_entries();
        let mut dump = Vec::new();
        d.export_entries(&mut dump);
        let mut buf = Vec::new();
        save_checkpoint(dump, 9, &mut buf).unwrap();
        for len in 0..buf.len() {
            let r = load_checkpoint(&mut &buf[..len]);
            assert!(
                matches!(r, Err(Error::Corrupt(_))),
                "truncation at {len}: {r:?}"
            );
        }
        let reference = load_checkpoint(&mut buf.as_slice()).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x20;
            if let Ok(loaded) = load_checkpoint(&mut bad.as_slice()) {
                assert_eq!(loaded, reference, "silent corruption at byte {i}");
            }
        }
    }

    #[test]
    fn write_load_latest_and_pruning() {
        let t = TempDir::new("ckpt");
        write_checkpoint(t.path(), vec![(u(1), u(2), ts(3))], 10).unwrap();
        write_checkpoint(t.path(), vec![(u(1), u(2), ts(3)), (u(1), u(4), ts(5))], 20).unwrap();
        // Older checkpoint pruned after the newer landed.
        assert_eq!(list_checkpoints(t.path()).unwrap().len(), 1);
        let ck = load_latest_checkpoint(t.path()).unwrap().unwrap();
        assert_eq!(ck.last_seq, 20);
        assert_eq!(ck.entries.len(), 2);
    }

    #[test]
    fn corrupt_latest_falls_back_to_older() {
        let t = TempDir::new("ckpt");
        write_checkpoint(t.path(), vec![(u(1), u(2), ts(3))], 10).unwrap();
        // Hand-write a corrupt "newer" checkpoint.
        std::fs::write(t.path().join("d-ckpt-00000000000000000099.mgck"), b"junk").unwrap();
        let ck = load_latest_checkpoint(t.path()).unwrap().unwrap();
        assert_eq!(ck.last_seq, 10);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let t = TempDir::new("ckpt");
        assert!(load_latest_checkpoint(t.path()).unwrap().is_none());
        assert!(load_latest_chain(t.path()).unwrap().is_none());
    }

    #[test]
    fn fenced_checkpoint_roundtrips_fence_vector() {
        let fences = [7u64, 0, 12, 3];
        let mut buf = Vec::new();
        save_checkpoint_fenced(vec![(u(1), u(2), ts(3))], 11, &fences, &mut buf).unwrap();
        let ck = load_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(ck.last_seq, 11);
        assert_eq!(ck.fences, fences);
        assert_eq!(ck.fence_vector(4).unwrap(), fences);
        // Length mismatch refused; uniform length-1 broadcasts.
        assert!(ck.fence_vector(2).is_err());
        let mut buf = Vec::new();
        save_checkpoint(vec![(u(1), u(2), ts(3))], 11, &mut buf).unwrap();
        let ck = load_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(ck.fence_vector(4).unwrap(), vec![12; 4]);
    }

    #[test]
    fn delta_checkpoint_roundtrips_entries_and_tombstones() {
        let entries = vec![
            (u(5), u(100), ts(1)),
            (u(5), u(101), ts(2)),
            (u(9), u(50), ts(3)),
        ];
        let mut buf = Vec::new();
        save_delta_checkpoint(
            entries.clone(),
            vec![u(7), u(2)],
            30,
            20,
            &[31, 14],
            &mut buf,
        )
        .unwrap();
        let d = load_delta_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(d.id, 30);
        assert_eq!(d.base_id, 20);
        assert_eq!(d.fences, vec![31, 14]);
        assert_eq!(d.entries, entries);
        assert_eq!(d.tombstones, vec![u(2), u(7)]);
        // Every truncation and every byte flip is detected or harmless.
        for len in 0..buf.len() {
            assert!(matches!(
                load_delta_checkpoint(&mut &buf[..len]),
                Err(Error::Corrupt(_))
            ));
        }
        let reference = load_delta_checkpoint(&mut buf.as_slice()).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x20;
            if let Ok(loaded) = load_delta_checkpoint(&mut bad.as_slice()) {
                assert_eq!(loaded, reference, "silent corruption at byte {i}");
            }
        }
    }

    #[test]
    fn overlapping_export_and_tombstone_refused() {
        let mut buf = Vec::new();
        let r = save_delta_checkpoint(
            vec![(u(5), u(100), ts(1))],
            vec![u(5)],
            30,
            20,
            &[31],
            &mut buf,
        );
        assert!(matches!(r, Err(Error::Invariant(_))));
    }

    #[test]
    fn chain_merges_full_plus_deltas() {
        let t = TempDir::new("ckpt");
        let vfs = crate::vfs::StdVfs;
        // Full at id 10: targets 1 and 2.
        write_checkpoint_fenced_with(
            t.path(),
            vec![(u(1), u(100), ts(1)), (u(2), u(200), ts(2))],
            10,
            &[11, 5],
            &vfs,
        )
        .unwrap();
        // Delta at 20: target 2 grew, target 3 appeared.
        write_delta_checkpoint_with(
            t.path(),
            vec![
                (u(2), u(200), ts(2)),
                (u(2), u(201), ts(4)),
                (u(3), u(300), ts(5)),
            ],
            vec![],
            20,
            10,
            &[21, 15],
            &vfs,
        )
        .unwrap();
        // Delta at 25: target 1 aged out entirely.
        write_delta_checkpoint_with(t.path(), vec![], vec![u(1)], 25, 20, &[26, 15], &vfs).unwrap();
        let chain = load_latest_chain(t.path()).unwrap().unwrap();
        assert_eq!(chain.last_seq, 25);
        assert_eq!(chain.fences, vec![26, 15]);
        assert_eq!(chain.chain_len, 2);
        assert!(chain.full_bytes > 0 && chain.delta_bytes > 0);
        assert_eq!(
            chain.entries,
            vec![
                (u(2), u(200), ts(2)),
                (u(2), u(201), ts(4)),
                (u(3), u(300), ts(5))
            ]
        );
    }

    #[test]
    fn chain_equals_equivalent_full() {
        // Build the same end state as one full and as full+delta; the
        // merged chain must restore identically.
        let t_full = TempDir::new("ckpt");
        let t_chain = TempDir::new("ckpt");
        let vfs = crate::vfs::StdVfs;
        let end_state = vec![
            (u(1), u(100), ts(1)),
            (u(4), u(400), ts(3)),
            (u(4), u(401), ts(6)),
        ];
        write_checkpoint_fenced_with(t_full.path(), end_state.clone(), 40, &[41], &vfs).unwrap();
        write_checkpoint_fenced_with(
            t_chain.path(),
            vec![
                (u(1), u(100), ts(1)),
                (u(4), u(400), ts(3)),
                (u(9), u(900), ts(2)),
            ],
            30,
            &[31],
            &vfs,
        )
        .unwrap();
        write_delta_checkpoint_with(
            t_chain.path(),
            vec![(u(4), u(400), ts(3)), (u(4), u(401), ts(6))],
            vec![u(9)],
            40,
            30,
            &[41],
            &vfs,
        )
        .unwrap();
        let full = load_latest_chain(t_full.path()).unwrap().unwrap();
        let chain = load_latest_chain(t_chain.path()).unwrap().unwrap();
        assert_eq!(full.entries, chain.entries);
        assert_eq!(full.last_seq, chain.last_seq);
        assert_eq!(full.fences, chain.fences);
    }

    #[test]
    fn new_full_prunes_whole_chain_and_stale_deltas_are_ignored() {
        let t = TempDir::new("ckpt");
        let vfs = crate::vfs::StdVfs;
        write_checkpoint_fenced_with(t.path(), vec![(u(1), u(2), ts(3))], 10, &[11], &vfs).unwrap();
        write_delta_checkpoint_with(
            t.path(),
            vec![(u(1), u(2), ts(3))],
            vec![],
            20,
            10,
            &[21],
            &vfs,
        )
        .unwrap();
        // A stale delta below the next full survives pruning only if the
        // unlink failed; simulate the leftover by hand after the prune.
        write_checkpoint_fenced_with(t.path(), vec![(u(5), u(6), ts(7))], 30, &[31], &vfs).unwrap();
        assert_eq!(list_checkpoints(t.path()).unwrap().len(), 1);
        assert!(list_delta_checkpoints(t.path()).unwrap().is_empty());
        // Hand-plant a stale (pre-full) delta: ignored, not corrupt.
        let mut buf = Vec::new();
        save_delta_checkpoint(vec![(u(9), u(9), ts(9))], vec![], 25, 10, &[26], &mut buf).unwrap();
        std::fs::write(t.path().join("d-ckpt-00000000000000000025.mgci"), &buf).unwrap();
        let chain = load_latest_chain(t.path()).unwrap().unwrap();
        assert_eq!(chain.last_seq, 30);
        assert_eq!(chain.chain_len, 0);
        assert_eq!(chain.entries, vec![(u(5), u(6), ts(7))]);
    }

    #[test]
    fn broken_chain_links_are_refused() {
        let t = TempDir::new("ckpt");
        let vfs = crate::vfs::StdVfs;
        write_checkpoint_fenced_with(t.path(), vec![(u(1), u(2), ts(3))], 10, &[11], &vfs).unwrap();
        // A delta chaining to an id that is not the tip: missing link.
        write_delta_checkpoint_with(
            t.path(),
            vec![(u(1), u(2), ts(3))],
            vec![],
            30,
            20,
            &[31],
            &vfs,
        )
        .unwrap();
        assert!(matches!(
            load_latest_chain(t.path()),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_file(t.path().join("d-ckpt-00000000000000000030.mgci")).unwrap();
        // A correctly-linked but damaged delta: also refused.
        write_delta_checkpoint_with(
            t.path(),
            vec![(u(1), u(2), ts(3))],
            vec![],
            20,
            10,
            &[21],
            &vfs,
        )
        .unwrap();
        let p = t.path().join("d-ckpt-00000000000000000020.mgci");
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        bytes.truncate(mid + 1);
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            load_latest_chain(t.path()),
            Err(Error::Corrupt(_))
        ));
        // A delta with no full beneath it at all: refused too.
        let t2 = TempDir::new("ckpt");
        write_delta_checkpoint_with(
            t2.path(),
            vec![(u(1), u(2), ts(3))],
            vec![],
            20,
            10,
            &[21],
            &vfs,
        )
        .unwrap();
        assert!(matches!(
            load_latest_chain(t2.path()),
            Err(Error::Corrupt(_))
        ));
    }
}
