//! # magicrecs-persist
//!
//! Persistence & recovery for the paper's two state halves. The design
//! splits state into an offline-computed follow graph `S` "loaded into the
//! system periodically" and an in-memory recent-edge store `D` — which
//! means a naïve deployment loses `D` (and every in-flight recommendation
//! window) on any restart, and pays a full interner+CSR rebuild on every
//! `S` refresh. This crate supplies the missing durability primitives:
//!
//! * **Delta-loaded `S` snapshots** ([`snapshot::SnapshotStore`]) — a
//!   directory of full-graph bases (`magicrecs_graph::io`, `MGRS`) plus
//!   [`magicrecs_graph::GraphDelta`] chain files (`MGRD`); startup loads
//!   the newest base and folds the chain with
//!   `FollowGraph::apply_delta`, so the periodic refresh costs its
//!   touched rows, not the world.
//! * **Write-ahead-logged `D`** ([`wal`]) — an append-only segmented log
//!   of stream events with CRC-32-checked records, a batched fsync policy,
//!   epoch-aligned [`checkpoint`]s of the temporal store, and segment
//!   reclamation once the store's own window pruning passes a segment's
//!   max timestamp.
//! * **Crash recovery** ([`recovery`]) — one persistent engine,
//!   [`recovery::PersistentConcurrentEngine`]: the one
//!   `magicrecs_core::ConcurrentEngine` shared across threads over
//!   per-partition WALs keyed by the hash route, checkpointed without
//!   quiescing. [`recovery::PersistentEngine`] is that engine at one
//!   partition for a single owner, checkpointing inline every
//!   `checkpoint_every` events. Recovery restores the snapshot chain and
//!   the latest checkpoint chain, replays the WAL tail with notification
//!   emission suppressed (no duplicate deliveries), then hands off to
//!   live ingest. After a crash at *any* record boundary, the recovered
//!   candidate stream is byte-identical to an uninterrupted run's
//!   (test-enforced by the kill-point matrix).
//! * **Non-quiescent checkpoints** — the engine checkpoints `D`
//!   *while ingest runs*: each WAL partition is cut behind its own brief
//!   fence (appends to that route stall for the export, every other
//!   partition keeps ingesting) and the file records a **fence vector**;
//!   recovery replays each partition's tail from its own fence. With a
//!   non-disabled [`RebasePolicy`], checkpoints are **incremental**
//!   ([`checkpoint::DeltaCheckpoint`], `MGCI`): only targets dirtied
//!   since the previous cut are written, chained onto the last full
//!   checkpoint and rebased per the policy — mirroring the `S`
//!   base+delta chain.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   s-base-00000000000000000007.mgrs        full S snapshot, epoch 7
//!   s-delta-…0007-…0008.mgrd                GraphDelta 7 → 8
//!   d-ckpt-00000000000000004096.mgck        full D checkpoint through seq 4096
//!   d-ckpt-00000000000000005120.mgci        incremental delta, base 4096
//!   wal-p0-00000000000000000000.wal         WAL segment of partition 0
//!   wal-p3-00000000000000001042.wal         … of partition 3 (route 3)
//! ```
//!
//! Every WAL is per-partition (`wal-p<i>-`; a [`PersistentEngine`] has
//! one partition, `wal-p0-`). The retired single-log layout
//! (`wal-<20 digits>.wal`) is not replayed: `open` refuses a directory
//! holding such a segment with a typed [`magicrecs_types::Error::Corrupt`]
//! naming the file, and touches nothing.
//!
//! WAL segment format (`MGWL`):
//!
//! ```text
//! magic "MGWL"  4 bytes | version u32 LE | first_seq u64 LE
//! per record:
//!   len   u32 LE        payload byte count
//!   crc32 u32 LE        CRC-32 (IEEE) of the payload
//!   payload:
//!     seq  varint u64   strictly ascending within a segment
//!     kind u8           0 follow · 1 unfollow · 2 retweet · 3 favorite
//!     src  varint u64
//!     dst  varint u64
//!     at   varint u64   event timestamp, µs
//! ```
//!
//! A torn tail (crash mid-write) is detected by length/CRC and repaired at
//! open; torn bytes in the *middle* of the log are refused as
//! [`magicrecs_types::Error::Corrupt`]. `D` checkpoint format (`MGCK`,
//! full):
//!
//! ```text
//! magic "MGCK" | version u32 LE (=2) | last_seq u64 LE
//! fences  u64 LE count, then count × u64 LE   per-partition replay fences
//! targets u64 LE
//! per target (ascending dst):
//!   dst     varint u64, delta-encoded across targets
//!   count   varint u64
//!   entries count × (src varint u64, at varint u64 delta from previous)
//! checksum u64 LE (FxHash of all decoded values)
//! ```
//!
//! (Version-1 files — no fence block — still load, with a uniform fence
//! at `last_seq + 1`.) Incremental checkpoints (`MGCI`) share the group
//! encoding, add `id`/`base_id` linking the file to the chain below it,
//! and write a zero entry-count as a **tombstone** (the target vanished
//! from `D` since the base). Chain rules: a delta is only valid atop the
//! exact checkpoint `base_id` names; loading merges the newest full plus
//! its strictly-ascending linked deltas (delta lists replace the base's
//! per-target lists; tombstones remove them). Only a *full* checkpoint
//! prunes — writing one deletes every older full and every delta at or
//! below its id, so a delta's predecessors stay on disk (load-bearing)
//! until the next full supersedes the chain. WAL reclamation is
//! authorized by the chain tip's fence vector: partition `p` may drop
//! segments strictly below `fences[p]`.
//!
//! ## Crash-consistency contract
//!
//! Every mutation of the persistence directory flows through a swappable
//! I/O backend ([`vfs::Vfs`]; production uses the zero-cost [`StdVfs`],
//! tests inject failures with [`FaultVfs`]). Under *any* interleaving of
//! crashes, failed writes/fsyncs/renames, and torn writes at those call
//! sites, the crate guarantees:
//!
//! 1. **Typed failure or poison — never a panic, never silent loss.** An
//!    I/O fault surfaces to the caller as [`magicrecs_types::Error::Io`]
//!    (or `Corrupt`/`Invariant` on the consuming side). If a WAL append
//!    fails after bytes may have partially landed, or an fsync the
//!    [`FsyncPolicy`] promised cannot be delivered, the WAL **poisons**
//!    itself: every later append is refused with a typed error so an
//!    application can never acknowledge an event the log will not
//!    remember. What was durably appended *before* the poison point
//!    remains replayable.
//! 2. **Acknowledged means recoverable.** An event whose append (and
//!    policy-mandated fsync) returned `Ok` is replayed by
//!    [`recovery::PersistentEngine::open`] /
//!    [`recovery::PersistentConcurrentEngine::open`] after a crash, and
//!    the recovered candidate stream is byte-identical to an
//!    uninterrupted run's — no duplicates (replay suppresses emission up
//!    to the recovered sequence), no gaps (merged replay refuses
//!    sequence holes below the durable tail as `Corrupt`).
//! 3. **Publishes are atomic.** Checkpoints and snapshots land via
//!    write-temp → fsync → rename → dir-fsync; a fault at any step
//!    leaves at worst a `.tmp` orphan which recovery sweeps. Readers
//!    pick newest-valid, so a half-published file is never loaded.
//! 4. **Cleanup failures are loud, not lossy.** Checkpoint pruning and
//!    WAL segment reclamation propagate unlink/dir-fsync errors (except
//!    benign `NotFound`); the retained state is always a superset of
//!    what correctness requires, so a failed cleanup can only leak disk,
//!    never drop acknowledged data.
//!
//! These guarantees are enforced by the kill-point matrix
//! (`tests/recovery.rs`), fault-plan property tests (`tests/faults.rs`),
//! and the adversity harness (`magicrecs-bench`, `bin/adversity`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc;
mod fsutil;
mod metrics;
pub mod recovery;
pub mod replica;
pub mod snapshot;
pub mod tempdir;
pub mod vfs;
pub mod wal;

pub use checkpoint::{
    load_latest_chain, load_latest_checkpoint, write_checkpoint, Checkpoint, CheckpointChain,
    DeltaCheckpoint,
};
pub use recovery::{
    CheckpointDriver, PersistOptions, PersistentConcurrentEngine, PersistentEngine, RecoveryReport,
};
pub use replica::{segment_catalog, segment_containing, ShipDecoder, ShippableSegment};
pub use snapshot::{RebasePolicy, SnapshotStore};
pub use tempdir::TempDir;
pub use vfs::{std_vfs, FaultMode, FaultOp, FaultPlan, FaultSpec, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{FsyncPolicy, RecordBoundary, ReplayStats, SharedWal, Wal, WalOptions, WalRecord};
