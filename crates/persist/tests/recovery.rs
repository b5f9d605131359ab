//! Crash-recovery kill-point matrix: truncate the WAL at **every** record
//! boundary of a long replay, recover, and assert candidate-stream parity
//! with an uninterrupted run — for the single-owner [`PersistentEngine`]
//! (one WAL partition, inline checkpoints) and the shared
//! [`PersistentConcurrentEngine`] at four partitions. The uninterrupted
//! run is a [`ConcurrentEngine`] twin, itself checked once per fixture
//! against the independent brute-force [`BatchOracle`].
//!
//! Parity argument: recovery at boundary `k` must be semantically
//! identical to an uninterrupted engine that has processed exactly `k`
//! events. The matrix therefore probes every boundary with the next
//! event (`k`'s candidates must match the reference run's event-`k`
//! output byte for byte — any state divergence the next event can see is
//! caught at the boundary that introduces it), and additionally feeds the
//! **entire remaining suffix** at sampled boundaries. Checkpoints every
//! 512 events bound each recovery's replay, which keeps the full matrix
//! O(boundaries × checkpoint cadence) instead of O(boundaries × history).
//!
//! Crash modelling: a prefix of the log survives; the boundary cut is
//! made **mid-record** (not on the clean frame edge) for most `k`, so the
//! torn-tail repair path is exercised across the whole matrix too.
//!
//! Event count: 10k+ in release (the CI `persist-smoke` job runs this),
//! reduced in debug so tier-1 `cargo test` stays fast.
//! `MAGICRECS_KILLPOINT_FULL=1` forces the full matrix anywhere.

use magicrecs_baseline::BatchOracle;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{CapStrategy, FollowGraph, GraphBuilder, GraphDelta};
use magicrecs_persist::wal::record_boundaries;
use magicrecs_persist::{
    FaultMode, FaultOp, FaultPlan, FaultSpec, FaultVfs, FsyncPolicy, PersistOptions,
    PersistentConcurrentEngine, PersistentEngine, RecordBoundary, SharedWal, SnapshotStore,
    TempDir, Wal, WalOptions,
};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Error, Timestamp, UserId};
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::Arc;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn ts(s: u64) -> Timestamp {
    Timestamp::from_secs(s)
}

fn matrix_events() -> u64 {
    if std::env::var_os("MAGICRECS_KILLPOINT_FULL").is_some() || !cfg!(debug_assertions) {
        10_000
    } else {
        2_000
    }
}

/// A graph dense enough that a large fraction of events fire candidates:
/// 40 As each following 6 of 10 Bs.
fn motif_graph() -> FollowGraph {
    let mut g = GraphBuilder::new();
    for a in 0..40u64 {
        for j in 0..6u64 {
            g.add_edge(u(a), u(100 + (a + j) % 10));
        }
    }
    g.build()
}

/// Monotone-timestamp trace over a rotating set of targets, with
/// unfollows sprinkled in. Monotone time is the engines' own documented
/// parity condition for expiry under out-of-order streams; recovery
/// inherits exactly that contract.
fn matrix_trace(n: u64) -> Vec<EdgeEvent> {
    let mut events = Vec::with_capacity(n as usize);
    for i in 0..n {
        let b = u(100 + i % 10);
        let c = u(1_000 + (i / 7) % 31);
        if i % 41 == 13 {
            events.push(EdgeEvent::unfollow(b, c, ts(10 + i / 4)));
        } else {
            events.push(EdgeEvent::follow(b, c, ts(10 + i / 4)));
        }
    }
    events
}

fn config() -> DetectorConfig {
    DetectorConfig {
        max_witnesses: Some(6),
        ..DetectorConfig::example()
    }
}

fn opts() -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::Never, // crash = truncation; sync irrelevant
        segment_bytes: 16 << 10,
        checkpoint_every: 512,
        rebase: magicrecs_persist::RebasePolicy::DISABLED,
    }
}

/// Pins the matrices' reference stream — a [`ConcurrentEngine`] twin —
/// to the independent brute-force oracle on the same graph and trace,
/// so a bug the twin shares with the persistent engines cannot hide.
fn assert_reference_matches_oracle(events: &[EdgeEvent], per_event: &[Vec<Candidate>]) {
    let oracle = BatchOracle::new(config())
        .unwrap()
        .replay(&motif_graph(), events);
    assert_eq!(
        per_event.concat(),
        oracle,
        "engine twin diverges from the oracle"
    );
}

/// Wipes `to` and re-copies every file from `from`.
fn resync_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(to).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Simulates a crash at boundary `k` inside `scratch`: records with
/// sequence `>= k` are cut from their segment files, the cut lands
/// `tear` bytes *into* record `k` (0 = clean boundary cut), and the
/// checkpoint on disk becomes the one that actually existed at that
/// moment (the newest archived checkpoint covering `< k`).
fn crash_at(
    scratch: &Path,
    boundaries: &[RecordBoundary],
    k: usize,
    tear: u64,
    archive: &[(u64, std::path::PathBuf)],
) {
    use std::collections::HashMap;
    let mut keep: HashMap<&Path, u64> = HashMap::new();
    for b in &boundaries[k..] {
        keep.entry(b.path.as_path()).or_insert_with(|| {
            boundaries[..k]
                .iter()
                .rev()
                .find(|p| p.path == b.path)
                .map_or(0, |p| p.offset_after)
        });
    }
    if k < boundaries.len() && tear > 0 {
        let b = &boundaries[k];
        let base = keep[b.path.as_path()];
        let record_len = b.offset_after - base;
        // Strictly inside record k: a complete record would not be a
        // crash at this boundary.
        *keep.get_mut(b.path.as_path()).unwrap() = base + tear.min(record_len - 1);
    }
    for (path, len) in keep {
        let p = scratch.join(path.file_name().unwrap());
        if len == 0 {
            std::fs::remove_file(&p).unwrap();
        } else {
            OpenOptions::new()
                .write(true)
                .open(&p)
                .unwrap()
                .set_len(len)
                .unwrap();
        }
    }
    // Swap in the checkpoint that existed at crash time: the live run's
    // final checkpoint (copied by resync) covers sequences the crash has
    // not reached, and `write_checkpoint` prunes superseded files, so the
    // historically-correct one comes from the archive.
    for entry in std::fs::read_dir(scratch).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name().to_string_lossy().ends_with(".mgck") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    if let Some((covered, path)) = archive
        .iter()
        .rev()
        .find(|&&(covered, _)| covered < k as u64)
    {
        std::fs::copy(path, scratch.join(format!("d-ckpt-{covered:020}.mgck"))).unwrap();
    }
}

/// Copies the (single, newest) checkpoint file out of `dir` into the
/// archive, recording the sequence it covers.
fn archive_checkpoint(
    dir: &Path,
    archive_dir: &Path,
    archive: &mut Vec<(u64, std::path::PathBuf)>,
) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(covered) = name
            .strip_prefix("d-ckpt-")
            .and_then(|s| s.strip_suffix(".mgck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if archive.iter().all(|&(c, _)| c != covered) {
                let dst = archive_dir.join(name);
                std::fs::copy(entry.path(), &dst).unwrap();
                archive.push((covered, dst));
            }
        }
    }
    archive.sort_by_key(|&(c, _)| c);
}

/// The sequential kill-point matrix: every boundary, next-event parity;
/// sampled boundaries, full-suffix parity.
#[test]
fn kill_point_matrix_sequential() {
    let n = matrix_events() as usize;
    let events = matrix_trace(n as u64);
    let cfg = config();

    // Uninterrupted reference run, per-event candidates recorded.
    let reference = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();
    assert_reference_matches_oracle(&events, &per_event);
    let fired = per_event.iter().filter(|c| !c.is_empty()).count();
    assert!(
        fired * 5 > n,
        "fixture too sparse: only {fired}/{n} events fire"
    );

    // The persistent run whose directory the matrix will crash.
    // Checkpoints are manual so each can be archived the moment it
    // exists — `write_checkpoint` prunes superseded files, but the
    // matrix must reconstruct the exact on-disk state at every k.
    let live = TempDir::new("kp-seq");
    let manual = PersistOptions {
        checkpoint_every: 0,
        ..opts()
    };
    let archive_dir = TempDir::new("kp-seq-ckpts");
    let mut archive: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let mut pe = PersistentEngine::create(live.path(), motif_graph(), 0, cfg, manual).unwrap();
    for (i, &e) in events.iter().enumerate() {
        let got = pe.on_event(e).unwrap();
        assert_eq!(got, per_event[i], "pre-crash divergence at event {i}");
        if (i + 1) % opts().checkpoint_every as usize == 0 {
            pe.checkpoint().unwrap();
            archive_checkpoint(live.path(), archive_dir.path(), &mut archive);
        }
    }
    pe.close().unwrap();

    let boundaries = SharedWal::record_boundaries(live.path(), 1).unwrap();
    assert_eq!(boundaries.len(), n, "every event logs one record");

    let scratch = TempDir::new("kp-seq-scratch");
    let suffix_stride = (n / 7).max(1);
    for k in 0..=n {
        resync_dir(live.path(), scratch.path());
        // Vary the tear offset across the matrix; every third boundary
        // cuts cleanly on the frame edge.
        let tear = if k % 3 == 0 {
            0
        } else {
            1 + (k as u64 * 7) % 20
        };
        crash_at(scratch.path(), &boundaries, k, tear, &archive);

        let (mut recovered, report) =
            PersistentEngine::open(scratch.path(), cfg, CapStrategy::None, manual).unwrap();
        assert_eq!(report.next_seq, k as u64, "k={k}: wrong resume point");
        let expect_replay = k as u64 - report.checkpoint_seq.map_or(0, |c| c + 1);
        assert_eq!(report.replayed, expect_replay, "k={k}: {report:?}");
        assert!(
            report.replayed <= opts().checkpoint_every,
            "k={k}: checkpoint failed to bound replay"
        );

        if k < n {
            // The single-event probe: recovery at k ≡ uninterrupted
            // prefix of k events, so event k's candidates must match.
            let got = recovered.on_event(events[k]).unwrap();
            assert_eq!(got, per_event[k], "post-recovery divergence at k={k}");
        }
        if k % suffix_stride == 0 || k + 1 >= n {
            let start = (k + usize::from(k < n)).min(n);
            for (i, &e) in events[start..].iter().enumerate() {
                let got = recovered.on_event(e).unwrap();
                assert_eq!(
                    got,
                    per_event[start + i],
                    "suffix divergence at k={k}, event {}",
                    start + i
                );
            }
        }
    }
}

/// The batched kill-point slice: the same crash model as the sequential
/// matrix, but the log is written by **group-committed `on_events`
/// batches** and the sampled cuts land *inside* batches (the boundary
/// stride is coprime to the batch size, so cuts hit every in-batch
/// offset, most of them tearing mid-record through a batch's single
/// `write(2)`). Recovery must treat a torn group commit exactly like a
/// torn single append: keep the batch's complete prefix records, repair
/// the tear, and continue with candidate parity.
#[test]
fn kill_point_slice_batched_group_commit() {
    let n = (matrix_events() / 2) as usize;
    let events = matrix_trace(n as u64);
    let cfg = config();
    const BATCH: usize = 7;

    let reference = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();
    assert_reference_matches_oracle(&events, &per_event);

    let live = TempDir::new("kp-gc");
    let manual = PersistOptions {
        checkpoint_every: 0,
        ..opts()
    };
    let archive_dir = TempDir::new("kp-gc-ckpts");
    let mut archive: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let mut pe = PersistentEngine::create(live.path(), motif_graph(), 0, cfg, manual).unwrap();
    let mut out = Vec::new();
    let mut done = 0usize;
    for chunk in events.chunks(BATCH) {
        out.clear();
        pe.on_events_into(chunk, &mut out).unwrap();
        let want: Vec<Candidate> = per_event[done..done + chunk.len()]
            .iter()
            .flat_map(|c| c.iter().cloned())
            .collect();
        assert_eq!(out, want, "pre-crash batch divergence at event {done}");
        done += chunk.len();
        // Manual cadence at chunk granularity, archived like the matrix.
        if done % (opts().checkpoint_every as usize) < BATCH {
            pe.checkpoint().unwrap();
            archive_checkpoint(live.path(), archive_dir.path(), &mut archive);
        }
    }
    pe.close().unwrap();

    // Group commit is byte-compatible with single appends, so the
    // boundary scan sees one record per event, exactly like the matrix.
    let boundaries = SharedWal::record_boundaries(live.path(), 1).unwrap();
    assert_eq!(boundaries.len(), n);

    let scratch = TempDir::new("kp-gc-scratch");
    let stride = 13; // coprime to BATCH: cuts sweep every in-batch offset
    let mut k = 0usize;
    while k <= n {
        resync_dir(live.path(), scratch.path());
        let tear = if k.is_multiple_of(3) {
            0
        } else {
            1 + (k as u64 * 11) % 24
        };
        crash_at(scratch.path(), &boundaries, k, tear, &archive);

        let (mut recovered, report) =
            PersistentEngine::open(scratch.path(), cfg, CapStrategy::None, manual).unwrap();
        assert_eq!(report.next_seq, k as u64, "k={k}: wrong resume point");

        if k < n {
            // Continue with a group-committed batch, not a single event:
            // the recovered log must accept batched appends at the exact
            // resume sequence and keep candidate parity.
            let end = (k + BATCH).min(n);
            let got = recovered.on_events(&events[k..end]).unwrap();
            let want: Vec<Candidate> = per_event[k..end]
                .iter()
                .flat_map(|c| c.iter().cloned())
                .collect();
            assert_eq!(got, want, "post-recovery batch divergence at k={k}");
        }
        k += stride;
    }
}

/// The concurrent (sharded `D`, per-partition WAL) kill-point matrix:
/// crash at global sequence `k`, full-suffix parity at every sampled
/// point, next-event parity at every point.
#[test]
fn kill_point_matrix_concurrent() {
    let n = (matrix_events() / 2) as usize; // two engines share the budget
    let events = matrix_trace(n as u64);
    let cfg = config();
    const PARTS: usize = 4;

    let reference = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();
    assert_reference_matches_oracle(&events, &per_event);

    let live = TempDir::new("kp-conc");
    let archive_dir = TempDir::new("kp-conc-ckpts");
    let mut archive: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let pe = PersistentConcurrentEngine::create(live.path(), motif_graph(), 0, cfg, PARTS, opts())
        .unwrap();
    // Single-threaded drive: a deterministic global sequence makes
    // "crash at k" well defined (thread-safety of the shared path is
    // covered by the crate's unit tests; candidates don't depend on the
    // thread count, only on per-target order).
    for (i, &e) in events.iter().enumerate() {
        let got = pe.on_event(e).unwrap();
        assert_eq!(got, per_event[i], "pre-crash divergence at event {i}");
        if (i + 1) % opts().checkpoint_every as usize == 0 {
            pe.checkpoint().unwrap();
            archive_checkpoint(live.path(), archive_dir.path(), &mut archive);
        }
    }
    drop(pe);

    let boundaries = SharedWal::record_boundaries(live.path(), PARTS).unwrap();
    assert_eq!(boundaries.len(), n);

    let scratch = TempDir::new("kp-conc-scratch");
    let suffix_stride = (n / 11).max(1);
    for k in 0..=n {
        resync_dir(live.path(), scratch.path());
        let tear = if k % 4 == 0 {
            0
        } else {
            1 + (k as u64 * 5) % 16
        };
        crash_at(scratch.path(), &boundaries, k, tear, &archive);

        let (recovered, report) =
            PersistentConcurrentEngine::open(scratch.path(), cfg, CapStrategy::None, PARTS, opts())
                .unwrap();
        assert_eq!(report.next_seq, k as u64, "k={k}");
        assert!(
            report.replayed <= opts().checkpoint_every,
            "k={k}: checkpoint failed to bound replay ({report:?})"
        );

        if k < n {
            let got = recovered.on_event(events[k]).unwrap();
            assert_eq!(got, per_event[k], "post-recovery divergence at k={k}");
        }
        if k % suffix_stride == 0 || k + 1 >= n {
            let start = (k + usize::from(k < n)).min(n);
            for (i, &e) in events[start..].iter().enumerate() {
                let got = recovered.on_event(e).unwrap();
                assert_eq!(
                    got,
                    per_event[start + i],
                    "concurrent suffix divergence at k={k}, event {}",
                    start + i
                );
            }
        }
    }
}

/// Mixed per-partition truncation: different partitions lose different
/// amounts of unsynced tail. Recovery must come back up cleanly on the
/// surviving per-partition prefixes (per-target history is
/// partition-sticky, so `D` stays per-target consistent) and resume live
/// ingest past the highest surviving sequence.
#[test]
fn concurrent_recovery_with_uneven_partition_loss() {
    let n = 1_000u64;
    let events = matrix_trace(n);
    let cfg = config();
    const PARTS: usize = 4;

    let live = TempDir::new("kp-uneven");
    let pe = PersistentConcurrentEngine::create(live.path(), motif_graph(), 0, cfg, PARTS, opts())
        .unwrap();
    for &e in &events {
        pe.on_event(e).unwrap();
    }
    drop(pe);

    // Chop a different number of tail records off each partition's
    // newest segment.
    let mut survivors = 0u64;
    let mut surviving_inserts = 0u64;
    let mut max_surviving_seq = 0u64;
    for part in 0..PARTS {
        let prefix = format!("wal-p{part}-");
        let bs = record_boundaries(live.path(), &prefix).unwrap();
        let cut = (part * 3) % 7; // 0, 3, 6, 2 records lost
        let keep_idx = bs.len().saturating_sub(cut);
        survivors += keep_idx as u64;
        surviving_inserts += bs[..keep_idx]
            .iter()
            .filter(|b| events[b.seq as usize].kind.is_insertion())
            .count() as u64;
        // Records in a partition file are ordered but carry sparse global
        // seqs; the surviving max is the last kept record's seq.
        if keep_idx > 0 {
            max_surviving_seq = max_surviving_seq.max(bs[keep_idx - 1].seq);
            if cut > 0 {
                // All cut records live in the newest (last) segment file
                // for these sizes; truncate it at the last kept boundary
                // that shares its file.
                let last_file = &bs[bs.len() - 1].path;
                let keep = bs[..keep_idx]
                    .iter()
                    .rev()
                    .find(|b| &b.path == last_file)
                    .map_or(0, |b| b.offset_after);
                let f = OpenOptions::new().write(true).open(last_file).unwrap();
                f.set_len(keep.max(16)).unwrap();
            }
        }
    }
    for entry in std::fs::read_dir(live.path()).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name().to_string_lossy().ends_with(".mgck") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }

    let (recovered, report) =
        PersistentConcurrentEngine::open(live.path(), cfg, CapStrategy::None, PARTS, opts())
            .unwrap();
    assert_eq!(report.replayed, survivors);
    let stats = recovered.engine().store().stats();
    assert_eq!(
        stats.inserted, surviving_inserts,
        "every surviving insertion must reach the store"
    );
    assert_eq!(report.next_seq, max_surviving_seq + 1);
    recovered
        .on_event(EdgeEvent::follow(u(100), u(5_000), ts(10_000)))
        .unwrap();
}

/// Shared driver for the injected-fault kill points below: feeds the
/// matrix trace in group-committed batches of 10 through a
/// [`FaultVfs`], arms `plan` after `arm_after` events, and returns
/// `(acked, per_event_reference, pre_fault_candidates, dir, fault_vfs)`
/// once the injected fault has surfaced as a typed error and poisoned
/// the engine end-to-end.
fn drive_until_injected_fault(
    dir: &Path,
    plan: FaultPlan,
    arm_after: usize,
    events: &[EdgeEvent],
    per_event: &[Vec<Candidate>],
) -> (usize, Vec<Candidate>, FaultVfs) {
    const BATCH: usize = 10;
    // EveryN(4) puts an interior policy sync *inside* every batch: each
    // group commit lands as chunks of 4/4/2, so both a failed interior
    // sync and a torn second-chunk write hit AFTER a prefix of the call
    // has landed — the poison-after-landed-prefix shape.
    let opts = PersistOptions {
        fsync: FsyncPolicy::EveryN(4),
        segment_bytes: 16 << 10,
        checkpoint_every: 0, // isolate the WAL path from checkpoint I/O
        rebase: magicrecs_persist::RebasePolicy::DISABLED,
    };
    let fv = FaultVfs::new_disarmed(plan);
    let mut engine = PersistentEngine::create_with_vfs(
        dir,
        motif_graph(),
        0,
        config(),
        opts,
        Arc::new(fv.clone()),
    )
    .unwrap();

    let mut pre: Vec<Candidate> = Vec::new();
    let mut acked = 0usize;
    let mut fault_error: Option<Error> = None;
    for chunk in events.chunks(BATCH) {
        if acked >= arm_after {
            fv.set_armed(true);
        }
        match engine.on_events(chunk) {
            Ok(out) => {
                pre.extend(out);
                acked += chunk.len();
                assert_eq!(
                    pre.len(),
                    per_event[..acked].iter().map(Vec::len).sum::<usize>(),
                    "pre-fault divergence by event {acked}"
                );
            }
            Err(e) => {
                fault_error = Some(e);
                break;
            }
        }
    }
    let err = fault_error.expect("injected fault must surface before the trace ends");
    assert!(
        matches!(err, Error::Io(_) | Error::Corrupt(_) | Error::Invariant(_)),
        "injected fault must be typed: {err:?}"
    );
    assert!(fv.fired_count() >= 1, "error without a fired fault");

    // Poisoned end-to-end: the landed prefix makes the failed call
    // half-committed, so the engine must refuse everything afterwards —
    // acknowledging on top of it would double-replay the prefix.
    let refused = engine.on_event(events[acked]);
    assert!(
        matches!(refused, Err(Error::Invariant(_))),
        "poison must refuse later appends end-to-end: {refused:?}"
    );
    drop(engine); // the crash
    (acked, pre, fv)
}

/// Recovers `dir` on a clean backend, resumes over the tail, and
/// asserts candidate parity: acknowledged prefix + resumed tail, with
/// the durable-but-unacknowledged window `[acked, next_seq)` replayed
/// emission-suppressed.
fn assert_recovery_parity(
    dir: &Path,
    events: &[EdgeEvent],
    per_event: &[Vec<Candidate>],
    acked: usize,
    pre: Vec<Candidate>,
    expect_landed_prefix: u64,
    expect_torn_tail: bool,
) {
    let opts = PersistOptions {
        fsync: FsyncPolicy::EveryN(4),
        segment_bytes: 16 << 10,
        checkpoint_every: 0,
        rebase: magicrecs_persist::RebasePolicy::DISABLED,
    };
    let (mut recovered, report) =
        PersistentEngine::open(dir, config(), CapStrategy::None, opts).unwrap();
    assert_eq!(
        report.next_seq,
        acked as u64 + expect_landed_prefix,
        "recovery must land exactly on the durable prefix"
    );
    assert_eq!(report.torn_tail, expect_torn_tail);
    assert_eq!(
        report.replayed, report.next_seq,
        "no checkpoint: full replay"
    );

    let mut got = pre;
    for &e in &events[report.next_seq as usize..] {
        got.extend(recovered.on_event(e).unwrap());
    }
    let mut expected: Vec<Candidate> = Vec::new();
    for per in per_event.iter().take(acked) {
        expected.extend(per.iter().cloned());
    }
    for per in per_event.iter().skip(report.next_seq as usize) {
        expected.extend(per.iter().cloned());
    }
    assert_eq!(got, expected, "post-recovery candidate parity");
}

/// Kill point: the *interior policy fsync* of a group commit fails
/// after the batch's first chunk landed. The WAL must poison (the call
/// is half-committed), the error must be typed, and recovery must
/// replay exactly the landed 4-record chunk with emission suppressed.
#[test]
fn kill_point_fsync_failure_poisons_after_landed_prefix() {
    let events = matrix_trace(400);
    let reference = ConcurrentEngine::new(motif_graph(), config()).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();

    let dir = TempDir::new("kp-fsync-fault");
    // First sync after arming = the interior EveryN(4) mark of the next
    // batch: 4 records land, then their promised fsync fails.
    let (acked, pre, fv) = drive_until_injected_fault(
        dir.path(),
        FaultPlan::fail_nth_sync(1),
        100,
        &events,
        &per_event,
    );
    assert_eq!(acked, 100, "fault fires inside the first armed batch");
    assert_eq!(fv.fired_count(), 1, "exactly the planned sync fault fires");
    assert!(fv.ops_seen(FaultOp::Sync) >= 1);
    // The bytes of the synced-then-failed chunk are still in the file
    // (no physical crash), so recovery replays them: a clean tail, 4
    // records past the acknowledged prefix.
    assert_recovery_parity(dir.path(), &events, &per_event, acked, pre, 4, false);
}

/// Kill point: the *second chunk* of a group commit tears — a prefix of
/// its frame bytes lands, then the device errors — and the WAL's
/// rewind-to-boundary truncation fails too (a sick device stays sick).
/// The first chunk is already durable (landed prefix ⇒ poison), the
/// torn bytes stay on disk, and recovery must repair the torn tail and
/// replay exactly the intact 4 records.
#[test]
fn kill_point_torn_write_poisons_after_landed_prefix() {
    let events = matrix_trace(400);
    let reference = ConcurrentEngine::new(motif_graph(), config()).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();

    let dir = TempDir::new("kp-torn-fault");
    // Write #1 after arming = chunk 1 (4 records, lands clean, interior
    // sync passes); write #2 = chunk 2, torn 7 bytes in — strictly
    // inside chunk 2's first frame, so no record of it survives. The
    // paired
    // SetLen fault kills the in-process rewind, so the tear survives to
    // recovery instead of being truncated away by the error path.
    let plan = FaultPlan::torn_nth_write(2, 7).and(FaultSpec {
        op: FaultOp::SetLen,
        nth: 1,
        mode: FaultMode::Fail,
    });
    let (acked, pre, fv) = drive_until_injected_fault(dir.path(), plan, 100, &events, &per_event);
    assert_eq!(acked, 100, "fault fires inside the first armed batch");
    assert_eq!(
        fv.fired_count(),
        2,
        "torn write AND failed rewind both fire"
    );
    // Chunk 1's records survive; chunk 2's torn bytes are repaired at
    // open (the crash signature the report surfaces as `torn_tail`).
    assert_recovery_parity(dir.path(), &events, &per_event, acked, pre, 4, true);
}

/// An incremental-checkpoint policy for the live-checkpoint kill points.
fn inc_opts() -> PersistOptions {
    PersistOptions {
        checkpoint_every: 0,
        rebase: magicrecs_persist::RebasePolicy {
            max_chain_len: 8,
            max_delta_bytes_ratio: 0.0,
        },
        ..opts()
    }
}

/// Live-checkpoint kill point: the **`MGCI` delta file's write fails
/// mid-checkpoint** while ingest is live. The cut must fail typed
/// without moving the chain tip or poisoning the WAL, the dirty marks
/// it drained must be restored (so the *next* cut still covers those
/// targets), and a crash after the retried cut must lose nothing.
#[test]
fn kill_point_mid_delta_checkpoint_write() {
    let events = matrix_trace(600);
    let cfg = config();
    const PARTS: usize = 2;
    let reference = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();

    let dir = TempDir::new("kp-mgci");
    let fv = FaultVfs::new_disarmed(FaultPlan::fail_nth_write(1));
    let pe = PersistentConcurrentEngine::create_with_vfs(
        dir.path(),
        motif_graph(),
        0,
        cfg,
        PARTS,
        inc_opts(),
        Arc::new(fv.clone()),
    )
    .unwrap();
    for (i, &e) in events[..300].iter().enumerate() {
        assert_eq!(pe.on_event(e).unwrap(), per_event[i], "pre-fault event {i}");
    }
    pe.checkpoint().unwrap(); // full — starts the chain
    for (i, &e) in events[300..400].iter().enumerate() {
        assert_eq!(pe.on_event(e).unwrap(), per_event[300 + i]);
    }
    let tip_before = pe.checkpoint_tip();
    fv.set_armed(true);
    let err = pe.checkpoint(); // the delta's first file write dies
    assert!(err.is_err(), "injected checkpoint fault must surface");
    fv.set_armed(false);
    assert_eq!(fv.fired_count(), 1);
    assert_eq!(
        pe.checkpoint_tip(),
        tip_before,
        "failed cut must not move the chain tip"
    );
    // The WAL is untouched by a checkpoint fault: ingest keeps running…
    for (i, &e) in events[400..500].iter().enumerate() {
        assert_eq!(pe.on_event(e).unwrap(), per_event[400 + i]);
    }
    // …and the retried cut re-covers the targets whose dirty marks the
    // failed cut drained (the undo log), so this delta misses nothing.
    pe.checkpoint().unwrap();
    assert!(pe.checkpoint_tip() > tip_before);
    pe.sync().unwrap();
    drop(pe); // the crash

    let (recovered, report) =
        PersistentConcurrentEngine::open(dir.path(), cfg, CapStrategy::None, PARTS, inc_opts())
            .unwrap();
    assert_eq!(report.next_seq, 500);
    assert_eq!(
        report.replayed, 0,
        "the retried cut covers everything: {report:?}"
    );
    for (i, &e) in events[500..].iter().enumerate() {
        assert_eq!(
            recovered.on_event(e).unwrap(),
            per_event[500 + i],
            "post-recovery divergence at event {}",
            500 + i
        );
    }
}

/// Live-checkpoint kill point: crash **between two shard fences** of a
/// non-quiescent cut — partition 0 is already exported (and took fresh
/// ingest right after its fence), partition 1 is not yet cut, and the
/// checkpoint file never lands. The crash image must recover off the
/// *previous* chain with full candidate parity: a half-taken cut leaves
/// no artifact other than its per-partition WAL syncs.
#[test]
fn kill_point_between_shard_fences() {
    let events = matrix_trace(500);
    let cfg = config();
    const PARTS: usize = 2;
    let reference = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
    let per_event: Vec<Vec<Candidate>> = events.iter().map(|&e| reference.on_event(e)).collect();

    let live = TempDir::new("kp-fence-live");
    let scratch = TempDir::new("kp-fence-crash");
    let pe =
        PersistentConcurrentEngine::create(live.path(), motif_graph(), 0, cfg, PARTS, inc_opts())
            .unwrap();
    for (i, &e) in events[..300].iter().enumerate() {
        assert_eq!(pe.on_event(e).unwrap(), per_event[i]);
    }
    pe.checkpoint().unwrap(); // the chain the crash image falls back to
    for (i, &e) in events[300..350].iter().enumerate() {
        assert_eq!(pe.on_event(e).unwrap(), per_event[300 + i]);
    }
    let mut crash_fed = 0usize;
    pe.checkpoint_with_fence_observer(|p, _fence| {
        if p == 0 {
            // Between the fences: partition 0 is cut, partition 1 is
            // not. Ingest live events (they straddle both routes), make
            // them durable, and take the crash image *now* — before the
            // checkpoint file can ever land.
            for (i, &e) in events[350..360].iter().enumerate() {
                assert_eq!(pe.on_event(e).unwrap(), per_event[350 + i]);
            }
            pe.sync().unwrap();
            resync_dir(live.path(), scratch.path());
            crash_fed = 360;
        }
    })
    .unwrap();
    assert_eq!(crash_fed, 360, "observer must have fired for partition 0");
    drop(pe);

    let (recovered, report) =
        PersistentConcurrentEngine::open(scratch.path(), cfg, CapStrategy::None, PARTS, inc_opts())
            .unwrap();
    assert_eq!(report.next_seq, 360, "crash image holds all synced events");
    assert_eq!(
        report.checkpoint_seq,
        Some(299),
        "the half-taken cut must leave no checkpoint artifact"
    );
    assert_eq!(report.replayed, 60, "replay from the previous cut's fence");
    for (i, &e) in events[360..].iter().enumerate() {
        assert_eq!(
            recovered.on_event(e).unwrap(),
            per_event[360 + i],
            "post-recovery divergence at event {}",
            360 + i
        );
    }
}

use proptest::prelude::{prop_assert_eq, ProptestConfig};

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary interleavings of ingest batches and incremental
    /// (non-quiescent) checkpoints — including cuts that take fresh
    /// ingest *between* their shard fences — crashed at an arbitrary
    /// step, recover to candidate-parity with a fault-free twin.
    ///
    /// Each plan step is `(batch_size, action)`: action 1 checkpoints
    /// after the batch, action 2 checkpoints with live ingest injected
    /// after partition 0's fence, action 0 just ingests. The crash image
    /// is a byte-copy of the directory at the chosen step (after a WAL
    /// sync — `FsyncPolicy::Never` crash modelling, same as the matrix).
    #[test]
    fn interleaved_incremental_checkpoints_recover_to_twin_parity(
        plan in proptest::collection::vec((1usize..16, 0u8..3), 3..12),
        crash_after in 0usize..12,
    ) {
        let cfg = config();
        const PARTS: usize = 2;
        let stream = matrix_trace(1_000);
        let cur = std::cell::Cell::new(0usize);
        let take = |k: usize| -> &[EdgeEvent] {
            let s = cur.get();
            cur.set(s + k);
            &stream[s..s + k]
        };

        let twin = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
        let live = TempDir::new("prop-inc");
        let crash = TempDir::new("prop-inc-crash");
        let pe = PersistentConcurrentEngine::create(
            live.path(), motif_graph(), 0, cfg, PARTS, inc_opts(),
        ).unwrap();
        let crash_step = crash_after % plan.len();
        let mut crashed_fed = 0usize;
        for (step, &(batch, action)) in plan.iter().enumerate() {
            let events = take(batch);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            pe.on_events_into(events, &mut got).unwrap();
            twin.on_events_into(events, &mut want);
            prop_assert_eq!(got, want, "live parity diverged at step {}", step);
            match action {
                1 => pe.checkpoint().unwrap(),
                2 => pe.checkpoint_with_fence_observer(|p, _| {
                    if p == 0 {
                        let mid = take(3);
                        let (mut g, mut w) = (Vec::new(), Vec::new());
                        pe.on_events_into(mid, &mut g).unwrap();
                        twin.on_events_into(mid, &mut w);
                        assert_eq!(g, w, "between-fence parity diverged at step {step}");
                    }
                }).unwrap(),
                _ => {}
            }
            if step == crash_step {
                pe.sync().unwrap();
                resync_dir(live.path(), crash.path());
                crashed_fed = cur.get();
            }
        }
        drop(pe);

        let (recovered, report) = PersistentConcurrentEngine::open(
            crash.path(), cfg, CapStrategy::None, PARTS, inc_opts(),
        ).unwrap();
        prop_assert_eq!(report.next_seq, crashed_fed as u64, "{:?}", report);

        // The fault-free twin of the crash image: same prefix, no
        // persistence, no checkpoints, no recovery.
        let fresh = ConcurrentEngine::new(motif_graph(), cfg).unwrap();
        let mut sink = Vec::new();
        fresh.on_events_into(&stream[..crashed_fed], &mut sink);
        let probe = &stream[crashed_fed..crashed_fed + 40];
        for (i, &e) in probe.iter().enumerate() {
            let (mut g, mut w) = (Vec::new(), Vec::new());
            recovered.on_event_into(e, &mut g).unwrap();
            fresh.on_event_into(e, &mut w);
            prop_assert_eq!(g, w, "post-crash candidate divergence at probe {}", i);
        }
    }
}

/// Snapshot-delta files in `dir` (`s-delta-*.mgrd`).
fn delta_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("s-delta-") && name.ends_with(".mgrd")
        })
        .count()
}

/// A snapshot delta that `FollowGraph::apply_delta` refuses — here one
/// removing an edge `S` does not hold — must leave nothing durable
/// behind, for both persistent engines: no delta file, the epoch
/// unchanged, the directory still opens, and a correct delta between the
/// same epochs publishes afterwards.
#[test]
fn refused_graph_delta_is_not_made_durable() {
    // A0 follows B100..B105 in `motif_graph`, so A0 → B106 is absent.
    let bad = GraphDelta::new(0, 1, vec![], vec![(u(0), u(106))]).unwrap();
    let good = GraphDelta::new(0, 1, vec![(u(0), u(106))], vec![]).unwrap();

    let t = TempDir::new("refused-delta-seq");
    let pe = PersistentEngine::create(t.path(), motif_graph(), 0, config(), opts()).unwrap();
    assert!(pe.shared().publish_graph_delta(&bad).is_err());
    assert_eq!(pe.shared().epoch(), 0);
    assert_eq!(delta_files(t.path()), 0, "refused delta reached disk");
    pe.close().unwrap();
    let (pe, report) =
        PersistentEngine::open(t.path(), config(), CapStrategy::None, opts()).unwrap();
    assert_eq!(report.snapshot_epoch, 0);
    pe.shared().publish_graph_delta(&good).unwrap();
    assert_eq!(pe.shared().epoch(), 1);
    assert_eq!(delta_files(t.path()), 1);
    pe.close().unwrap();
    let (pe, report) =
        PersistentEngine::open(t.path(), config(), CapStrategy::None, opts()).unwrap();
    assert_eq!((pe.shared().epoch(), report.deltas_applied), (1, 1));

    let t = TempDir::new("refused-delta-conc");
    let pe = PersistentConcurrentEngine::create(t.path(), motif_graph(), 0, config(), 2, opts())
        .unwrap();
    assert!(pe.publish_graph_delta(&bad).is_err());
    assert_eq!(pe.epoch(), 0);
    assert_eq!(delta_files(t.path()), 0, "refused delta reached disk");
    drop(pe);
    let (pe, report) =
        PersistentConcurrentEngine::open(t.path(), config(), CapStrategy::None, 2, opts()).unwrap();
    assert_eq!(report.snapshot_epoch, 0);
    pe.publish_graph_delta(&good).unwrap();
    assert_eq!(pe.epoch(), 1);
    assert_eq!(delta_files(t.path()), 1);
    drop(pe);
    let (pe, report) =
        PersistentConcurrentEngine::open(t.path(), config(), CapStrategy::None, 2, opts()).unwrap();
    assert_eq!((pe.epoch(), report.deltas_applied), (1, 1));
}

/// A directory in the retired single-log layout (`wal-<20 digits>.wal`
/// segments) is refused with a typed error naming the segment — never
/// restored without that history — and the refusal touches nothing, not
/// even the `.tmp` leftovers recovery would otherwise sweep.
#[test]
fn open_refuses_retired_single_log_layout() {
    let t = TempDir::new("retired-layout");
    SnapshotStore::new(t.path())
        .unwrap()
        .publish_base(0, &motif_graph())
        .unwrap();
    let mut old = Wal::create(t.path(), "wal-", WalOptions::default()).unwrap();
    for &e in &matrix_trace(20) {
        old.append(e).unwrap();
    }
    old.close().unwrap();
    std::fs::write(t.path().join("d-ckpt-interrupted.tmp"), b"torn").unwrap();
    let listing = || {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(t.path())
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = listing();

    let err = PersistentEngine::open(t.path(), config(), CapStrategy::None, opts())
        .err()
        .expect("retired layout must be refused");
    assert!(
        matches!(&err, Error::Corrupt(msg) if msg.contains("wal-00000000000000000000.wal")),
        "typed refusal naming the segment: {err:?}"
    );
    assert_eq!(
        listing(),
        before,
        "refusal must leave the directory as it was"
    );
}
