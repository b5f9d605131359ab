//! The flight recorder: fixed-size, sequence-stamped per-thread rings
//! of structured trace events, dumped on panic or failure.
//!
//! Recording is for **rare-path** events — shed decisions, WAL
//! poison/rewind, fsync failures, checkpoint fences, kill hooks — not
//! per-event traffic. Each thread owns a ring of [`RING_CAP`] slots
//! behind its own mutex (uncontended except while a dump walks the
//! rings); a global atomic sequence stamps every event so a dump can
//! interleave per-thread history into one ordered tail. Wraparound
//! silently drops each thread's oldest events: a flight recorder keeps
//! the end of the story, not the whole story.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Slots per thread ring. At 5 words per event this bounds recorder
/// memory to a few KiB per thread regardless of process lifetime.
pub const RING_CAP: usize = 256;

/// What happened. Kinds are coarse; `label` carries the operation name
/// and `a`/`b` carry kind-specific payload words (documented per kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Admission control shed a batch; `a` = queue depth at decision,
    /// `b` = deficit/limit that tripped the gate.
    Shed,
    /// A WAL partition was poisoned; `a` = partition id.
    WalPoison,
    /// WAL recovery rewound past a torn/corrupt tail; `a` = partition
    /// id, `b` = records recovered before the rewind point.
    WalRewind,
    /// An fsync (or the write behind it) failed; `a` = partition id.
    FsyncFail,
    /// The fault-injection VFS fired a planned fault; `label` names the
    /// intercepted operation, `a` = how many faults have fired.
    FaultInjected,
    /// A checkpoint fence was entered (partition quiesced); `a` =
    /// partition id.
    CkptFenceEnter,
    /// The matching fence exit; `a` = partition id.
    CkptFenceExit,
    /// Something was killed on purpose (an engine, a connection, a
    /// process), named by `label`; `a` = target id, `b` = events sent
    /// before the kill.
    Kill,
    /// A replica was promoted to (or demoted from) partition leadership;
    /// `a` = partition id, `b` = the new routing epoch.
    Promote,
    /// A replication ship stream gapped (lost middle segment / reclaimed
    /// past the follower); `a` = expected sequence, `b` = delivered.
    ReplicaGap,
    /// An ingest was refused because the routing epoch moved on; `a` =
    /// partition id, `b` = the refusing node's current epoch.
    RefusedWrite,
    /// The panic hook fired; `label` is the panic message (static part).
    Panic,
    /// Anything else; meaning is carried entirely by `label`/`a`/`b`.
    Custom,
}

impl TraceKind {
    fn name(self) -> &'static str {
        match self {
            TraceKind::Shed => "shed",
            TraceKind::WalPoison => "wal_poison",
            TraceKind::WalRewind => "wal_rewind",
            TraceKind::FsyncFail => "fsync_fail",
            TraceKind::FaultInjected => "fault_injected",
            TraceKind::CkptFenceEnter => "ckpt_fence_enter",
            TraceKind::CkptFenceExit => "ckpt_fence_exit",
            TraceKind::Kill => "kill",
            TraceKind::Promote => "promote",
            TraceKind::ReplicaGap => "replica_gap",
            TraceKind::RefusedWrite => "refused_write",
            TraceKind::Panic => "panic",
            TraceKind::Custom => "custom",
        }
    }
}

/// One recorded event. Fixed-size: the label is `&'static str` so
/// recording never allocates.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// First payload word; meaning depends on `kind`.
    pub a: u64,
    /// Second payload word; meaning depends on `kind`.
    pub b: u64,
    /// Static label naming the operation or site.
    pub label: &'static str,
}

struct Ring {
    events: Vec<TraceEvent>,
    next: usize,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < RING_CAP {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
        }
        self.next = (self.next + 1) % RING_CAP;
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);

fn rings() -> &'static Mutex<Vec<&'static Mutex<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<&'static Mutex<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: &'static Mutex<Ring> = {
        let ring: &'static Mutex<Ring> = Box::leak(Box::new(Mutex::new(Ring {
            events: Vec::with_capacity(RING_CAP),
            next: 0,
        })));
        rings().lock().unwrap().push(ring);
        ring
    };
}

/// Records one event on this thread's ring and returns its sequence
/// number. Rare-path cost: one relaxed `fetch_add` plus an uncontended
/// mutex.
pub fn record(kind: TraceKind, label: &'static str, a: u64, b: u64) -> u64 {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ev = TraceEvent {
        seq,
        kind,
        a,
        b,
        label,
    };
    MY_RING.with(|ring| ring.lock().unwrap().push(ev));
    seq
}

/// The next sequence number a [`record`] call would receive. Harnesses
/// snapshot this before a scenario and pass it to [`dump_since`] to
/// scope a dump to that scenario's events.
pub fn current_seq() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// [`dump`] restricted to events recorded at or after `seq` (as
/// returned by [`current_seq`]) — the tail belonging to one scenario in
/// a process that runs many.
pub fn dump_since(seq: u64) -> Vec<TraceEvent> {
    let mut out = dump();
    out.retain(|e| e.seq >= seq);
    out
}

/// Gathers every thread's ring and returns the retained events sorted
/// by sequence — the interleaved tail of process history.
pub fn dump() -> Vec<TraceEvent> {
    let rings = rings().lock().unwrap();
    let mut out: Vec<TraceEvent> = Vec::new();
    for ring in rings.iter() {
        out.extend(ring.lock().unwrap().events.iter().copied());
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Renders `events` one-per-line: `seq kind label a b`.
pub fn format_events(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&format!(
            "#{seq:06} {kind:<16} {label} a={a} b={b}\n",
            seq = e.seq,
            kind = e.kind.name(),
            label = e.label,
            a = e.a,
            b = e.b,
        ));
    }
    s
}

/// [`dump`] rendered via [`format_events`].
pub fn dump_string() -> String {
    format_events(&dump())
}

static LAST_PANIC_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// Installs (once) a panic hook that records a [`TraceKind::Panic`]
/// event, prints the flight-recorder dump to stderr, stashes it for
/// [`last_panic_dump`], and then chains to the previous hook. Safe to
/// call from multiple sites; only the first call installs.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            record(TraceKind::Panic, "panic", 0, 0);
            let dump = dump_string();
            eprintln!("=== flight recorder (last {} events) ===", RING_CAP);
            eprint!("{dump}");
            eprintln!("=== end flight recorder ===");
            *LAST_PANIC_DUMP.lock().unwrap() = Some(dump);
            prev(info);
        }));
    });
}

/// The dump stashed by the panic hook on the most recent panic, if any.
/// Lets a test assert on the dump without capturing stderr.
pub fn last_panic_dump() -> Option<String> {
    LAST_PANIC_DUMP.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dump_ordered() {
        let s1 = record(TraceKind::Custom, "rec_test_one", 1, 2);
        let s2 = record(TraceKind::Custom, "rec_test_two", 3, 4);
        assert!(s2 > s1);
        let d = dump();
        let mine: Vec<&TraceEvent> = d
            .iter()
            .filter(|e| e.label.starts_with("rec_test_"))
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert_eq!(mine[1].a, 3);
    }

    #[test]
    fn format_names_label() {
        record(TraceKind::FsyncFail, "fmt_test_sync", 7, 0);
        let s = dump_string();
        assert!(s.contains("fsync_fail"));
        assert!(s.contains("fmt_test_sync"));
        assert!(s.contains("a=7"));
    }
}
