//! The swappable I/O backend every persist write path goes through.
//!
//! [`Vfs`] virtualizes exactly the mutating filesystem operations the
//! durability argument depends on — create/open-for-write, write, fsync
//! (file and directory), truncate, rename, remove — while read paths
//! (segment scans, checkpoint/snapshot loads) stay on `std::fs`: faults
//! of interest fire while *producing* state, and the corruption property
//! tests already cover arbitrary damage on the consuming side.
//!
//! [`StdVfs`] is the default passthrough (a unit struct forwarding to
//! `std::fs`; the virtual call is noise next to the syscall it wraps).
//! [`FaultVfs`] wraps any inner backend and fires a deterministic,
//! seed-keyable [`FaultPlan`] — fail the nth write, fail the nth fsync,
//! tear a write after `k` bytes then error, fail a rename or remove or
//! directory fsync, or just be slow — so every poison/rewind/retry branch
//! in the WAL and the durable-publish paths is reachable on demand
//! instead of only via post-hoc file truncation.

use magicrecs_obs::{recorder, TraceKind};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// An open, writable file handle behind a [`Vfs`].
///
/// Only the operations the persist write paths use: buffered reads never
/// come through here (scans reopen files read-only via `std::fs`).
pub trait VfsFile: Send {
    /// Writes the whole buffer or fails.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`-equivalent: flush data (not necessarily metadata).
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync`-equivalent: flush data and metadata.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Repositions the write cursor.
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64>;
}

impl VfsFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        io::Seek::seek(self, pos)
    }
}

/// The mutating-filesystem surface of the persistence layer.
///
/// Implementations must be shareable across threads ([`SharedWal`]'s
/// partitions append concurrently behind one handle).
///
/// [`SharedWal`]: crate::SharedWal
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates a file that must not already exist (WAL segment roll —
    /// `create_new` is what makes a retried roll detect leftover shells).
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates or truncates a file (durable-publish temp files).
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for writing (torn-tail repair).
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory so entry mutations inside it (create, rename,
    /// unlink) survive power loss. A no-op where directories cannot be
    /// opened for syncing.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The default backend: a zero-state passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A ready-made `Arc<dyn Vfs>` over [`StdVfs`] — what every
/// non-`_with_vfs` constructor threads through.
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

impl Vfs for StdVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(f))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            std::fs::OpenOptions::new().write(true).open(path)?,
        ))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

/// The operation classes a [`FaultSpec`] can target. File-handle syncs
/// (`sync_data` and `sync_all`) share one counter — callers choose
/// between them by durability policy, not by failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A file write (`write_all`).
    Write,
    /// A file fsync (`sync_data` or `sync_all`).
    Sync,
    /// A file truncation (`set_len`) — the WAL's rewind-to-boundary.
    SetLen,
    /// Opening a file for writing (`create_new`, `create`, `open_write`).
    Open,
    /// A rename (the durable publish's commit point).
    Rename,
    /// A file unlink (reclaim, pruning, compaction).
    Remove,
    /// A directory fsync.
    SyncDir,
}

const FAULT_OPS: usize = 7;

fn op_index(op: FaultOp) -> usize {
    match op {
        FaultOp::Write => 0,
        FaultOp::Sync => 1,
        FaultOp::SetLen => 2,
        FaultOp::Open => 3,
        FaultOp::Rename => 4,
        FaultOp::Remove => 5,
        FaultOp::SyncDir => 6,
    }
}

fn op_name(op: FaultOp) -> &'static str {
    match op {
        FaultOp::Write => "write",
        FaultOp::Sync => "sync",
        FaultOp::SetLen => "set_len",
        FaultOp::Open => "open",
        FaultOp::Rename => "rename",
        FaultOp::Remove => "remove",
        FaultOp::SyncDir => "sync_dir",
    }
}

/// What happens when a [`FaultSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails outright with an injected I/O error.
    Fail,
    /// (Writes only.) The first `keep` bytes land, then the write fails —
    /// the torn-write crash signature, mid-operation. Non-write ops
    /// treat this as [`FaultMode::Fail`].
    Torn {
        /// Bytes allowed to reach the file before the error.
        keep: u64,
    },
    /// The operation succeeds after sleeping — degraded, not broken.
    Slow {
        /// Stall length in microseconds.
        micros: u64,
    },
}

/// One scheduled fault: the `nth` (1-based, counted per [`FaultOp`]
/// across the whole [`FaultVfs`]) occurrence of `op` behaves as `mode`.
/// Each spec fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operation class the spec targets.
    pub op: FaultOp,
    /// 1-based occurrence count at which it fires.
    pub nth: u64,
    /// What firing does.
    pub mode: FaultMode,
}

/// A deterministic schedule of injected faults.
///
/// Determinism is the point: the persist write paths issue a fixed
/// operation sequence for a fixed input stream, so "the 12th write
/// tears after 5 bytes" reproduces the identical failure every run —
/// and a plan derived from a recorded seed ([`FaultPlan::from_seed`])
/// replays an adversity cell bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub specs: Vec<FaultSpec>,
}

/// Tiny deterministic generator for seed-keyed plans (xorshift64).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

impl FaultPlan {
    /// An empty plan (no faults — [`FaultVfs`] degenerates to its inner
    /// backend).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds `spec` to the plan (builder-style).
    pub fn and(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    fn single(op: FaultOp, nth: u64, mode: FaultMode) -> FaultPlan {
        FaultPlan::default().and(FaultSpec { op, nth, mode })
    }

    /// Fail the `nth` file write.
    pub fn fail_nth_write(nth: u64) -> FaultPlan {
        Self::single(FaultOp::Write, nth, FaultMode::Fail)
    }

    /// Tear the `nth` file write after `keep` bytes, then fail it.
    pub fn torn_nth_write(nth: u64, keep: u64) -> FaultPlan {
        Self::single(FaultOp::Write, nth, FaultMode::Torn { keep })
    }

    /// Fail the `nth` file fsync (`sync_data`/`sync_all`).
    pub fn fail_nth_sync(nth: u64) -> FaultPlan {
        Self::single(FaultOp::Sync, nth, FaultMode::Fail)
    }

    /// Fail the `nth` rename.
    pub fn fail_nth_rename(nth: u64) -> FaultPlan {
        Self::single(FaultOp::Rename, nth, FaultMode::Fail)
    }

    /// Fail the `nth` directory fsync.
    pub fn fail_nth_sync_dir(nth: u64) -> FaultPlan {
        Self::single(FaultOp::SyncDir, nth, FaultMode::Fail)
    }

    /// Stall the `nth` file write by `micros` microseconds (slow I/O —
    /// succeeds, but late).
    pub fn slow_nth_write(nth: u64, micros: u64) -> FaultPlan {
        Self::single(FaultOp::Write, nth, FaultMode::Slow { micros })
    }

    /// Derives a random-looking but fully seed-determined plan of one or
    /// two faults whose trigger counts fall within `horizon` operations.
    /// The same `(seed, horizon)` always yields the same plan — record
    /// the seed and the run replays bit for bit.
    pub fn from_seed(seed: u64, horizon: u64) -> FaultPlan {
        let mut rng = XorShift(seed | 1);
        let horizon = horizon.max(1);
        let n_specs = 1 + (rng.next() % 2);
        let mut plan = FaultPlan::default();
        for _ in 0..n_specs {
            // Writes and syncs dominate the persist op stream, so weight
            // them to keep seeded plans likely to actually fire.
            let op = match rng.next() % 8 {
                0..=2 => FaultOp::Write,
                3..=4 => FaultOp::Sync,
                5 => FaultOp::Rename,
                6 => FaultOp::Remove,
                _ => FaultOp::SyncDir,
            };
            let nth = 1 + rng.next() % horizon;
            let mode = match (op, rng.next() % 4) {
                (FaultOp::Write, 0 | 1) => FaultMode::Torn {
                    keep: rng.next() % 48,
                },
                (FaultOp::Write, 2) => FaultMode::Slow {
                    micros: rng.next() % 500,
                },
                _ => FaultMode::Fail,
            };
            plan.specs.push(FaultSpec { op, nth, mode });
        }
        plan
    }
}

#[derive(Debug)]
struct FaultState {
    pending: Vec<FaultSpec>,
    counts: [u64; FAULT_OPS],
    fired: Vec<FaultSpec>,
    armed: bool,
}

/// A [`Vfs`] that forwards to [`StdVfs`] but fires a [`FaultPlan`].
///
/// Cloning shares the fault state (counters, pending specs, fired log):
/// hand one clone to the engine as its backend and keep another as the
/// control/inspection handle. A disarmed `FaultVfs`
/// ([`FaultVfs::set_armed`]) counts nothing and fires nothing — arm it
/// after setup I/O (snapshot publish, WAL creation) so the plan's
/// operation counts index into the ingest stream, not the preamble.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fault backend over [`StdVfs`], armed from the start.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            inner: StdVfs,
            state: Arc::new(Mutex::new(FaultState {
                pending: plan.specs,
                counts: [0; FAULT_OPS],
                fired: Vec::new(),
                armed: true,
            })),
        }
    }

    /// Like [`FaultVfs::new`] but disarmed — arm with
    /// [`FaultVfs::set_armed`] once setup I/O is done.
    pub fn new_disarmed(plan: FaultPlan) -> FaultVfs {
        let v = FaultVfs::new(plan);
        v.set_armed(false);
        v
    }

    /// Arms or disarms fault checking (disarmed: pure passthrough, no
    /// counting).
    pub fn set_armed(&self, armed: bool) {
        self.state.lock().armed = armed;
    }

    /// The specs that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<FaultSpec> {
        self.state.lock().fired.clone()
    }

    /// How many specs have fired so far.
    pub fn fired_count(&self) -> usize {
        self.state.lock().fired.len()
    }

    /// Scheduled specs that have not fired yet.
    pub fn pending_count(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Operations of class `op` observed while armed.
    pub fn ops_seen(&self, op: FaultOp) -> u64 {
        self.state.lock().counts[op_index(op)]
    }

    /// Counts one occurrence of `op` and returns the mode to apply if a
    /// pending spec fires on it.
    fn check(&self, op: FaultOp) -> Option<FaultMode> {
        let mut st = self.state.lock();
        if !st.armed {
            return None;
        }
        st.counts[op_index(op)] += 1;
        let n = st.counts[op_index(op)];
        let hit = st.pending.iter().position(|s| s.op == op && s.nth == n)?;
        let spec = st.pending.swap_remove(hit);
        st.fired.push(spec);
        // Name the failing operation in the flight recorder: a dump
        // taken after an adversity cell goes red should say *which*
        // injected fault it tripped over, not just that one fired.
        recorder::record(
            TraceKind::FaultInjected,
            op_name(op),
            n,
            st.fired.len() as u64,
        );
        Some(spec.mode)
    }

    fn injected(op: FaultOp, nth_hint: u64) -> io::Error {
        io::Error::other(format!("injected fault: {} #{nth_hint}", op_name(op)))
    }

    /// Applies `mode` to a non-write operation: `Fail` and `Torn` error,
    /// `Slow` stalls then lets the caller proceed. Returns `Err` when the
    /// operation must not run.
    fn gate(&self, op: FaultOp, mode: Option<FaultMode>) -> io::Result<()> {
        match mode {
            None => Ok(()),
            Some(FaultMode::Slow { micros }) => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                Ok(())
            }
            Some(FaultMode::Fail | FaultMode::Torn { .. }) => {
                Err(Self::injected(op, self.ops_seen(op)))
            }
        }
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    ctl: FaultVfs,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.ctl.check(FaultOp::Write) {
            None => self.inner.write_all(buf),
            Some(FaultMode::Slow { micros }) => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.write_all(buf)
            }
            Some(FaultMode::Torn { keep }) => {
                let keep = (keep as usize).min(buf.len());
                // Land the prefix through the real backend, then fail the
                // call: the file now holds a torn frame, exactly like a
                // short write cut off by power loss.
                self.inner.write_all(&buf[..keep])?;
                Err(FaultVfs::injected(
                    FaultOp::Write,
                    self.ctl.ops_seen(FaultOp::Write),
                ))
            }
            Some(FaultMode::Fail) => Err(FaultVfs::injected(
                FaultOp::Write,
                self.ctl.ops_seen(FaultOp::Write),
            )),
        }
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.ctl
            .gate(FaultOp::Sync, self.ctl.check(FaultOp::Sync))?;
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.ctl
            .gate(FaultOp::Sync, self.ctl.check(FaultOp::Sync))?;
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.ctl
            .gate(FaultOp::SetLen, self.ctl.check(FaultOp::SetLen))?;
        self.inner.set_len(len)
    }
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        // Seeks pair with set_len in the rewind path; SetLen is the
        // injectable half.
        self.inner.seek(pos)
    }
}

impl Vfs for FaultVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(FaultOp::Open, self.check(FaultOp::Open))?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create_new(path)?,
            ctl: self.clone(),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(FaultOp::Open, self.check(FaultOp::Open))?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            ctl: self.clone(),
        }))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(FaultOp::Open, self.check(FaultOp::Open))?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_write(path)?,
            ctl: self.clone(),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(FaultOp::Rename, self.check(FaultOp::Rename))?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(FaultOp::Remove, self.check(FaultOp::Remove))?;
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate(FaultOp::SyncDir, self.check(FaultOp::SyncDir))?;
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn std_vfs_round_trips_and_create_new_refuses_existing() {
        let t = TempDir::new("vfs");
        let vfs = StdVfs;
        let p = t.path().join("a.bin");
        let mut f = vfs.create_new(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"hello");
        assert!(vfs.create_new(&p).is_err(), "create_new over existing");
        let q = t.path().join("b.bin");
        vfs.rename(&p, &q).unwrap();
        vfs.sync_dir(t.path()).unwrap();
        vfs.remove_file(&q).unwrap();
        assert!(!q.exists());
    }

    #[test]
    fn fault_vfs_fires_each_spec_once_at_its_count() {
        let t = TempDir::new("vfs");
        let fv = FaultVfs::new(FaultPlan::fail_nth_write(2));
        let mut f = fv.create(&t.path().join("x")).unwrap();
        f.write_all(b"one").unwrap();
        let err = f.write_all(b"two").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // One-shot: the third write sails through.
        f.write_all(b"three").unwrap();
        assert_eq!(fv.fired_count(), 1);
        assert_eq!(fv.pending_count(), 0);
        assert_eq!(fv.ops_seen(FaultOp::Write), 3);
        assert_eq!(
            std::fs::read(t.path().join("x")).unwrap(),
            b"onethree",
            "failed write landed nothing"
        );
    }

    #[test]
    fn torn_write_lands_prefix_then_errors() {
        let t = TempDir::new("vfs");
        let fv = FaultVfs::new(FaultPlan::torn_nth_write(1, 4));
        let mut f = fv.create(&t.path().join("x")).unwrap();
        assert!(f.write_all(b"abcdefgh").is_err());
        assert_eq!(std::fs::read(t.path().join("x")).unwrap(), b"abcd");
    }

    #[test]
    fn disarmed_backend_neither_counts_nor_fires() {
        let t = TempDir::new("vfs");
        let fv = FaultVfs::new_disarmed(FaultPlan::fail_nth_write(1));
        let mut f = fv.create(&t.path().join("x")).unwrap();
        f.write_all(b"a").unwrap();
        assert_eq!(fv.ops_seen(FaultOp::Write), 0);
        fv.set_armed(true);
        assert!(f.write_all(b"b").is_err());
        assert_eq!(fv.fired_count(), 1);
    }

    #[test]
    fn sync_rename_remove_and_dir_faults_fire() {
        let t = TempDir::new("vfs");
        let plan = FaultPlan::fail_nth_sync(1)
            .and(FaultSpec {
                op: FaultOp::Rename,
                nth: 1,
                mode: FaultMode::Fail,
            })
            .and(FaultSpec {
                op: FaultOp::Remove,
                nth: 1,
                mode: FaultMode::Fail,
            })
            .and(FaultSpec {
                op: FaultOp::SyncDir,
                nth: 1,
                mode: FaultMode::Fail,
            });
        let fv = FaultVfs::new(plan);
        let p = t.path().join("x");
        let mut f = fv.create(&p).unwrap();
        f.write_all(b"v").unwrap();
        assert!(f.sync_data().is_err());
        f.sync_all().unwrap(); // spec consumed by the sync_data attempt
        assert!(fv.rename(&p, &t.path().join("y")).is_err());
        assert!(fv.remove_file(&p).is_err());
        assert!(fv.sync_dir(t.path()).is_err());
        assert!(p.exists(), "failed rename/remove must not mutate");
        assert_eq!(fv.fired_count(), 4);
    }

    #[test]
    fn slow_mode_succeeds() {
        let t = TempDir::new("vfs");
        let fv = FaultVfs::new(FaultPlan::slow_nth_write(1, 10));
        let mut f = fv.create(&t.path().join("x")).unwrap();
        f.write_all(b"late").unwrap();
        assert_eq!(std::fs::read(t.path().join("x")).unwrap(), b"late");
        assert_eq!(fv.fired_count(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        let a = FaultPlan::from_seed(42, 100);
        let b = FaultPlan::from_seed(42, 100);
        assert_eq!(a, b);
        assert!(!a.specs.is_empty());
        assert!(a.specs.iter().all(|s| s.nth >= 1 && s.nth <= 100));
        let differs = (0..50u64).any(|s| FaultPlan::from_seed(s, 100) != a);
        assert!(differs, "seeds must actually vary the plan");
    }
}
