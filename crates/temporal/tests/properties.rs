//! Property tests for the dynamic store `D`: window invariants under
//! arbitrary operation interleavings, strategy equivalence, the sharded
//! wrapper's agreement with the plain store, and `TargetList`'s agreement
//! with a plain `VecDeque`.

use magicrecs_temporal::{PruneStrategy, ShardedTemporalStore, TargetList, TemporalEdgeStore};
use magicrecs_types::{Duration, FxHashMap, Timestamp, UserId};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { src: u64, dst: u64, at: u64 },
    Remove { src: u64, dst: u64 },
    Query { dst: u64, now: u64 },
    Advance { now: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..20, 0u64..10, 0u64..2_000).prop_map(|(src, dst, at)| Op::Insert {
            src,
            dst,
            at
        }),
        1 => (0u64..20, 0u64..10).prop_map(|(src, dst)| Op::Remove { src, dst }),
        2 => (0u64..10, 0u64..2_000).prop_map(|(dst, now)| Op::Query { dst, now }),
        1 => (0u64..2_000u64).prop_map(|now| Op::Advance { now }),
    ]
}

/// Reference model: a plain vector of live edges.
#[derive(Default)]
struct Model {
    edges: Vec<(u64, u64, u64)>, // src, dst, at
}

impl Model {
    fn insert(&mut self, src: u64, dst: u64, at: u64) {
        self.edges.push((src, dst, at));
    }
    fn remove(&mut self, src: u64, dst: u64) {
        self.edges.retain(|&(s, d, _)| !(s == src && d == dst));
    }
    /// Store semantics: everything at or after `now − window`, including
    /// entries *newer* than `now` — queues deliver out of order, and edges
    /// within τ of each other are correlated regardless of which side of
    /// the query time they fall on.
    fn witnesses(&self, dst: u64, now: u64, window: u64) -> Vec<(u64, u64)> {
        let cutoff = now.saturating_sub(window);
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &(s, d, at) in &self.edges {
            if d != dst || at < cutoff {
                continue;
            }
            match out.iter_mut().find(|(w, _)| *w == s) {
                Some(slot) => slot.1 = slot.1.max(at),
                None => out.push((s, at)),
            }
        }
        out.sort_unstable();
        out
    }
    /// Every edge at or after `cutoff` as `(dst, src, at)`, grouped by
    /// target in arrival order — the store's stored order when arrivals
    /// are in time order.
    fn in_window(&self, cutoff: u64) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = self
            .edges
            .iter()
            .filter(|&&(_, _, at)| at >= cutoff)
            .map(|&(s, d, at)| (d, s, at))
            .collect();
        out.sort_by_key(|&(d, _, _)| d);
        out
    }
}

/// The store's in-window entries, grouped by target in stored order.
fn in_window(entries: Vec<(UserId, UserId, Timestamp)>, cutoff: u64) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = entries
        .into_iter()
        .filter(|&(_, _, at)| at.as_secs() >= cutoff)
        .map(|(d, s, at)| (d.raw(), s.raw(), at.as_secs()))
        .collect();
    out.sort_by_key(|&(d, _, _)| d);
    out
}

const WINDOW_SECS: u64 = 300;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strategy gives window-correct query results matching the
    /// brute-force model, regardless of interleaving, and after every
    /// operation the store holds exactly the model's in-window edges in
    /// time order. Ten targets over twenty sources put most targets past
    /// one entry (a slab list), so unfollows and expiry of multi-entry
    /// targets are exercised along with single-entry ones.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        for strategy in [
            PruneStrategy::Eager,
            PruneStrategy::Wheel,
            PruneStrategy::Sweep { sweep_every: 7 },
        ] {
            let mut store =
                TemporalEdgeStore::new(Duration::from_secs(WINDOW_SECS), strategy);
            let mut model = Model::default();
            // Pruning rides the event stream: sweeps and advances use the
            // latest observed time, so queries must not lag far behind it
            // (in production a query IS an event at the stream frontier).
            // Keep all operation times monotone via a high-water mark;
            // small-jitter out-of-order arrival is covered by unit tests.
            let mut hwm = 0u64;
            for &op in &ops {
                match op {
                    Op::Insert { src, dst, at } => {
                        let at = at.max(hwm);
                        hwm = at;
                        store.insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                        model.insert(src, dst, at);
                    }
                    Op::Remove { src, dst } => {
                        store.remove(UserId(src), UserId(dst));
                        model.remove(src, dst);
                    }
                    Op::Query { dst, now } => {
                        let now = now.max(hwm);
                        hwm = now;
                        let mut got: Vec<(u64, u64)> = store
                            .witnesses(UserId(dst), Timestamp::from_secs(now))
                            .into_iter()
                            .map(|(s, t)| (s.raw(), t.as_secs()))
                            .collect();
                        got.sort_unstable();
                        let expect = model.witnesses(dst, now, WINDOW_SECS);
                        prop_assert_eq!(got, expect, "strategy {:?}", strategy);
                    }
                    Op::Advance { now } => {
                        let now = now.max(hwm);
                        hwm = now;
                        store.advance(Timestamp::from_secs(now));
                    }
                }
                let cutoff = hwm.saturating_sub(WINDOW_SECS);
                let mut held = Vec::new();
                store.export_entries(&mut held);
                prop_assert_eq!(held.len() as u64, store.resident_entries());
                prop_assert_eq!(in_window(held, cutoff), model.in_window(cutoff));
            }
        }
    }

    /// Resident-entry accounting never underflows and pruning only ever
    /// shrinks state.
    #[test]
    fn accounting_invariants(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let mut store = TemporalEdgeStore::with_window(Duration::from_secs(WINDOW_SECS));
        let mut hwm = 0u64;
        for &op in &ops {
            match op {
                Op::Insert { src, dst, at } => {
                    let at = at.max(hwm);
                    hwm = at;
                    store.insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                }
                Op::Remove { src, dst } => store.remove(UserId(src), UserId(dst)),
                Op::Query { dst, now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    let _ = store.witnesses(UserId(dst), Timestamp::from_secs(now));
                }
                Op::Advance { now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    store.advance(Timestamp::from_secs(now));
                }
            }
            let stats = store.stats();
            prop_assert!(store.resident_entries() <= stats.inserted);
            prop_assert!(stats.peak_entries >= store.resident_entries());
            prop_assert_eq!(
                stats.inserted - stats.pruned - stats.unfollowed,
                store.resident_entries(),
                "entry accounting drifted"
            );
        }
    }

    /// The sharded wrapper agrees with a single plain store: the same
    /// witnesses, and after every operation the same resident entries in
    /// the same per-target order, through unfollows and expiry of single-
    /// and multi-entry targets alike.
    #[test]
    fn sharded_matches_plain(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let plain = std::cell::RefCell::new(TemporalEdgeStore::new(
            Duration::from_secs(WINDOW_SECS),
            PruneStrategy::Wheel,
        ));
        let sharded =
            ShardedTemporalStore::new(Duration::from_secs(WINDOW_SECS), PruneStrategy::Wheel, 4);
        let mut hwm = 0u64;
        for &op in &ops {
            match op {
                Op::Insert { src, dst, at } => {
                    let at = at.max(hwm);
                    hwm = at;
                    plain
                        .borrow_mut()
                        .insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                    sharded.insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                }
                Op::Remove { src, dst } => {
                    plain.borrow_mut().remove(UserId(src), UserId(dst));
                    sharded.remove(UserId(src), UserId(dst));
                }
                Op::Query { dst, now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    let mut a = plain
                        .borrow_mut()
                        .witnesses(UserId(dst), Timestamp::from_secs(now));
                    let mut b = sharded.witnesses(UserId(dst), Timestamp::from_secs(now));
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b);
                }
                Op::Advance { now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    plain.borrow_mut().advance(Timestamp::from_secs(now));
                    sharded.advance(Timestamp::from_secs(now));
                }
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            plain.borrow().export_entries(&mut a);
            sharded.export_entries(&mut b);
            a.sort_by_key(|&(dst, _, _)| dst);
            b.sort_by_key(|&(dst, _, _)| dst);
            prop_assert_eq!(a, b);
            prop_assert_eq!(plain.borrow().resident_targets(), sharded.resident_targets());
        }
        prop_assert_eq!(
            plain.borrow().resident_entries(),
            sharded.resident_entries()
        );
    }

    /// Cross-shard consistency (PR 2 satellite): for arbitrary event
    /// traces the sharded store reports identical witnesses,
    /// `resident_entries`/`resident_targets`, and pruning *statistics*
    /// (pruned / unfollowed / reclaimed counters) to the plain store —
    /// with the production entry cap engaged, so cap enforcement is also
    /// covered. Targets live entirely inside one shard, which is why the
    /// per-target disciplines cannot diverge.
    #[test]
    fn sharded_prune_behavior_matches_plain(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        cap in 1usize..6,
    ) {
        let plain = std::cell::RefCell::new(
            TemporalEdgeStore::new(Duration::from_secs(WINDOW_SECS), PruneStrategy::Wheel)
                .with_entry_cap(Some(cap)),
        );
        let sharded =
            ShardedTemporalStore::new(Duration::from_secs(WINDOW_SECS), PruneStrategy::Wheel, 8)
                .with_entry_cap(Some(cap));
        let mut hwm = 0u64;
        for &op in &ops {
            match op {
                Op::Insert { src, dst, at } => {
                    let at = at.max(hwm);
                    hwm = at;
                    plain
                        .borrow_mut()
                        .insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                    sharded.insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                }
                Op::Remove { src, dst } => {
                    plain.borrow_mut().remove(UserId(src), UserId(dst));
                    sharded.remove(UserId(src), UserId(dst));
                }
                Op::Query { dst, now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    let mut a = plain
                        .borrow_mut()
                        .witnesses(UserId(dst), Timestamp::from_secs(now));
                    let mut b = sharded.witnesses(UserId(dst), Timestamp::from_secs(now));
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b);
                }
                Op::Advance { now } => {
                    let now = now.max(hwm);
                    hwm = now;
                    plain.borrow_mut().advance(Timestamp::from_secs(now));
                    sharded.advance(Timestamp::from_secs(now));
                }
            }
            // Aggregate state must agree after *every* op, not just at the
            // end: pruning is incremental.
            prop_assert_eq!(plain.borrow().resident_entries(), sharded.resident_entries());
            prop_assert_eq!(plain.borrow().resident_targets(), sharded.resident_targets());
            let (ps, ss) = (plain.borrow().stats(), sharded.stats());
            prop_assert_eq!(ps.inserted, ss.inserted);
            prop_assert_eq!(ps.unfollowed, ss.unfollowed);
            prop_assert_eq!(ps.pruned, ss.pruned);
            prop_assert_eq!(ps.lists_reclaimed, ss.lists_reclaimed);
        }
    }
}

/// Operations for the capped-fetch pin, timed relative to a clock that
/// only moves forward: 48 sources over two targets (duplicates are
/// common, and a walk can keep more sources than its linear dedup
/// handles) and small steps, often none (ties are the norm).
#[derive(Debug, Clone, Copy)]
enum CapOp {
    /// At the clock after moving it `ahead` seconds.
    Insert {
        src: u64,
        dst: u64,
        ahead: u64,
    },
    /// `back` seconds behind the clock: a late arrival.
    Late {
        src: u64,
        dst: u64,
        back: u64,
    },
    Remove {
        src: u64,
        dst: u64,
    },
    /// At the clock after moving it `ahead` seconds.
    Query {
        dst: u64,
        ahead: u64,
    },
    /// At the clock after moving it `ahead` seconds.
    Advance {
        ahead: u64,
    },
}

fn cap_op_strategy() -> impl Strategy<Value = CapOp> {
    prop_oneof![
        3 => (0u64..48, 0u64..2, 0u64..2)
            .prop_map(|(src, dst, ahead)| CapOp::Insert { src, dst, ahead }),
        4 => (0u64..48, 0u64..2)
            .prop_map(|(src, dst)| CapOp::Insert { src, dst, ahead: 0 }),
        2 => (0u64..48, 0u64..2, 0u64..12)
            .prop_map(|(src, dst, back)| CapOp::Late { src, dst, back }),
        1 => (0u64..48, 0u64..2).prop_map(|(src, dst)| CapOp::Remove { src, dst }),
        3 => (0u64..2, 0u64..2).prop_map(|(dst, ahead)| CapOp::Query { dst, ahead }),
        1 => (0u64..4).prop_map(|ahead| CapOp::Advance { ahead }),
    ]
}

/// `(Reverse(at), source)` top `cap`, as the detector selects it.
fn top_by_recency(mut w: Vec<(u64, u64)>, cap: usize) -> Vec<(u64, u64)> {
    w.sort_unstable_by_key(|&(s, at)| (std::cmp::Reverse(at), s));
    w.truncate(cap);
    w
}

/// Every resident entry, grouped by target with each target's stored
/// order kept.
fn exported(store: &TemporalEdgeStore) -> Vec<(UserId, UserId, Timestamp)> {
    let mut out = Vec::new();
    store.export_entries(&mut out);
    out.sort_by_key(|&(dst, _, _)| dst);
    out
}

/// About 200 operations at the strategy's mean clock step, so a target
/// holds dozens of sources in window and longer runs still trim.
const CAPPED_WINDOW_SECS: u64 = 60;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The capped witness fetch is the uncapped one cut at the cap (mostly
    /// caps 1–8; larger ones take the walk past its linear dedup): it
    /// returns exactly the distinct in-window sources whose newest
    /// timestamp is at or above the cap-th newest (ties straddling the
    /// boundary included), each with its newest timestamp; the detector's
    /// top-`cap` selection over it equals that over the uncapped fetch;
    /// and it leaves the store exactly as the uncapped query does.
    #[test]
    fn capped_fetch_is_the_uncapped_fetch_cut_at_the_cap(
        ops in proptest::collection::vec(cap_op_strategy(), 1..300),
        cap in prop_oneof![3 => 1usize..9, 1 => 9usize..48],
    ) {
        let new_store = || {
            let mut d = TemporalEdgeStore::new(
                Duration::from_secs(CAPPED_WINDOW_SECS),
                PruneStrategy::Wheel,
            );
            d.enable_dirty_tracking();
            d
        };
        let (mut capped, mut uncapped) = (new_store(), new_store());
        let mut model = Model::default();
        // Queries and advances run at the clock, at or past every earlier
        // operation's time, so the store's trims never outrun the model's
        // window.
        let mut clock = 100u64;
        for &op in &ops {
            let insert = match op {
                CapOp::Insert { src, dst, ahead } => {
                    clock += ahead;
                    Some((src, dst, clock))
                }
                CapOp::Late { src, dst, back } => Some((src, dst, clock - back)),
                CapOp::Remove { src, dst } => {
                    for d in [&mut capped, &mut uncapped] {
                        d.remove(UserId(src), UserId(dst));
                    }
                    model.remove(src, dst);
                    None
                }
                CapOp::Query { dst, ahead } => {
                    clock += ahead;
                    let now = Timestamp::from_secs(clock);
                    let (mut got, mut all) = (Vec::new(), Vec::new());
                    capped.witnesses_capped_into(UserId(dst), now, Some(cap), &mut got);
                    uncapped.witnesses_into(UserId(dst), now, &mut all);
                    let (got, all) = (raw(got), raw(all));

                    let distinct = model.witnesses(dst, clock, CAPPED_WINDOW_SECS);
                    let boundary = top_by_recency(distinct.clone(), cap)
                        .get(cap - 1)
                        .map_or(0, |&(_, at)| at);
                    let expect: Vec<(u64, u64)> =
                        distinct.iter().copied().filter(|&(_, at)| at >= boundary).collect();
                    let mut sorted = got.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(&sorted, &expect, "cap {}", cap);
                    let mut sorted_all = all.clone();
                    sorted_all.sort_unstable();
                    prop_assert_eq!(&sorted_all, &distinct);
                    prop_assert_eq!(top_by_recency(got, cap), top_by_recency(all, cap));
                    None
                }
                CapOp::Advance { ahead } => {
                    clock += ahead;
                    for d in [&mut capped, &mut uncapped] {
                        d.advance(Timestamp::from_secs(clock));
                    }
                    None
                }
            };
            if let Some((src, dst, at)) = insert {
                for d in [&mut capped, &mut uncapped] {
                    d.insert(UserId(src), UserId(dst), Timestamp::from_secs(at));
                }
                model.insert(src, dst, at);
            }
            prop_assert_eq!(capped.resident_entries(), uncapped.resident_entries());
            prop_assert_eq!(capped.resident_targets(), uncapped.resident_targets());
            prop_assert_eq!(capped.stats(), uncapped.stats());
            prop_assert_eq!(capped.dirty_targets(), uncapped.dirty_targets());
            prop_assert_eq!(exported(&capped), exported(&uncapped));
        }
        let drain = |d: &mut TemporalEdgeStore| {
            let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
            d.drain_dirty_exports(|_| true, &mut entries, &mut tombs, &mut drained);
            entries.sort_by_key(|&(dst, _, _)| dst);
            tombs.sort_unstable();
            drained.sort_unstable();
            (entries, tombs, drained)
        };
        prop_assert_eq!(drain(&mut capped), drain(&mut uncapped));
    }
}

#[derive(Debug, Clone, Copy)]
enum ListOp {
    /// At or after the newest entry (ties included).
    InOrder {
        src: u64,
        ahead: u64,
    },
    /// Up to `back` seconds behind the newest entry.
    OutOfOrder {
        src: u64,
        back: u64,
    },
    RemoveSource {
        src: u64,
    },
    /// Trim at `newest − back` (saturating).
    TrimBefore {
        back: u64,
    },
    EnforceCap {
        cap: usize,
    },
}

fn list_op_strategy() -> impl Strategy<Value = ListOp> {
    prop_oneof![
        4 => (0u64..5, 0u64..3).prop_map(|(src, ahead)| ListOp::InOrder { src, ahead }),
        2 => (0u64..5, 0u64..6).prop_map(|(src, back)| ListOp::OutOfOrder { src, back }),
        1 => (0u64..5).prop_map(|src| ListOp::RemoveSource { src }),
        1 => (0u64..8).prop_map(|back| ListOp::TrimBefore { back }),
        1 => (0usize..4).prop_map(|cap| ListOp::EnforceCap { cap }),
    ]
}

/// Reference `TargetList`: every list held in one `VecDeque`, whatever
/// its length.
#[derive(Default)]
struct ListModel {
    entries: VecDeque<(u64, u64)>,
}

impl ListModel {
    fn insert(&mut self, src: u64, at: u64) {
        let idx = self
            .entries
            .iter()
            .rposition(|&(_, t)| t <= at)
            .map_or(0, |i| i + 1);
        self.entries.insert(idx, (src, at));
    }
    fn remove_source(&mut self, src: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|&(s, _)| s != src);
        before - self.entries.len()
    }
    fn drop_while(&mut self, mut pred: impl FnMut(&Self) -> bool) -> usize {
        let mut dropped = 0;
        while !self.entries.is_empty() && pred(self) {
            self.entries.pop_front();
            dropped += 1;
        }
        dropped
    }
    fn since(&self, cutoff: u64) -> Vec<(u64, u64)> {
        self.entries
            .iter()
            .copied()
            .filter(|&(_, t)| t >= cutoff)
            .collect()
    }
    /// Newest-first, each source once, at its latest timestamp.
    fn distinct_since(&self, cutoff: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (s, t) in self.since(cutoff).into_iter().rev() {
            if !out.iter().any(|&(w, _)| w == s) {
                out.push((s, t));
            }
        }
        out
    }
}

fn raw(v: impl IntoIterator<Item = (UserId, Timestamp)>) -> Vec<(u64, u64)> {
    v.into_iter().map(|(s, t)| (s.raw(), t.as_secs())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `TargetList` agrees with a plain `VecDeque` after every step:
    /// in-order, out-of-order and tied inserts, unfollows, window trims
    /// and caps — including trims back down to one entry or to none.
    #[test]
    fn target_list_matches_deque_model(
        ops in proptest::collection::vec(list_op_strategy(), 1..60),
    ) {
        let mut list: TargetList = TargetList::new();
        let mut model = ListModel::default();
        let mut seen = FxHashMap::default();
        let mut clock = 10u64;
        for &op in &ops {
            let newest = model.entries.back().map_or(clock, |&(_, t)| t);
            match op {
                ListOp::InOrder { src, ahead } => {
                    clock = newest + ahead;
                    list.insert(UserId(src), Timestamp::from_secs(clock));
                    model.insert(src, clock);
                }
                ListOp::OutOfOrder { src, back } => {
                    let at = newest.saturating_sub(back);
                    list.insert(UserId(src), Timestamp::from_secs(at));
                    model.insert(src, at);
                }
                ListOp::RemoveSource { src } => {
                    prop_assert_eq!(list.remove_source(UserId(src)), model.remove_source(src));
                }
                ListOp::TrimBefore { back } => {
                    let cutoff = newest.saturating_sub(back);
                    let got = list.trim_before(Timestamp::from_secs(cutoff));
                    prop_assert_eq!(got, model.drop_while(|m| m.entries[0].1 < cutoff));
                }
                ListOp::EnforceCap { cap } => {
                    let got = list.enforce_cap(cap);
                    prop_assert_eq!(got, model.drop_while(|m| m.entries.len() > cap));
                }
            }

            prop_assert_eq!(list.len(), model.entries.len());
            prop_assert_eq!(list.is_empty(), model.entries.is_empty());
            prop_assert_eq!(raw(list.iter()), model.since(0));
            prop_assert_eq!(
                list.newest().map(Timestamp::as_secs),
                model.entries.back().map(|&(_, t)| t)
            );
            prop_assert_eq!(
                list.oldest().map(Timestamp::as_secs),
                model.entries.front().map(|&(_, t)| t)
            );
            let newest = model.entries.back().map_or(clock, |&(_, t)| t);
            for cutoff in [0, newest.saturating_sub(3), newest, newest + 1] {
                let since = Timestamp::from_secs(cutoff);
                prop_assert_eq!(raw(list.entries_since(since)), model.since(cutoff));
                let distinct = model.distinct_since(cutoff);
                for cap in [1, 2, 3, usize::MAX] {
                    let mut got = vec![(UserId(99), Timestamp::from_secs(0))];
                    list.newest_sources_into(since, cap, &mut seen, &mut got);
                    prop_assert!(seen.is_empty());
                    // The newest-first prefix down to the cap-th source's
                    // timestamp, ties included.
                    let boundary = distinct.get(cap.saturating_sub(1)).map_or(0, |&(_, t)| t);
                    let mut expect = vec![(99, 0)];
                    expect.extend(distinct.iter().copied().filter(|&(_, t)| t >= boundary));
                    prop_assert_eq!(raw(got), expect, "cap {}", cap);
                }
            }
        }
    }
}

/// Barrier-driven torn-read check: writer threads insert entries whose
/// timestamp is a pure function of the source id while reader threads
/// hammer `witnesses` on the same targets. Every witness a reader ever
/// observes must satisfy that function — a torn or half-applied insert
/// would surface as a mismatched `(src, ts)` pair — and the final state
/// must account for every insert.
#[test]
fn concurrent_insert_and_witnesses_never_tear() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    const WRITERS: u64 = 4;
    const READERS: usize = 3;
    const PER_WRITER: u64 = 2_000;
    const TARGETS: u64 = 16;

    // ts = src * 3 + 7, far inside one window so nothing is trimmed.
    fn ts_for(src: u64) -> u64 {
        src * 3 + 7
    }

    let store: Arc<ShardedTemporalStore> = Arc::new(ShardedTemporalStore::new(
        Duration::from_secs(10_000_000), // ≫ any ts_for value: nothing trims
        PruneStrategy::Eager,
        8,
    ));
    let barrier = Arc::new(Barrier::new(WRITERS as usize + READERS));
    let violations = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..PER_WRITER {
                let src = w * PER_WRITER + i;
                store.insert(
                    UserId(src),
                    UserId(src % TARGETS),
                    Timestamp::from_secs(ts_for(src)),
                );
            }
        }));
    }
    for _ in 0..READERS {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let violations = Arc::clone(&violations);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let query_at = Timestamp::from_secs(ts_for(WRITERS * PER_WRITER));
            for round in 0..400u64 {
                let dst = round % TARGETS;
                for (src, at) in store.witnesses(UserId(dst), query_at) {
                    let src = src.raw();
                    let consistent = src % TARGETS == dst
                        && src < WRITERS * PER_WRITER
                        && at == Timestamp::from_secs(ts_for(src));
                    if !consistent {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(violations.load(Ordering::Relaxed), 0, "torn read observed");
    assert_eq!(store.stats().inserted, WRITERS * PER_WRITER);
    assert_eq!(store.resident_entries(), WRITERS * PER_WRITER);
    // Every entry is a distinct source: the final witness sets partition
    // the id space by `src % TARGETS`.
    let query_at = Timestamp::from_secs(ts_for(WRITERS * PER_WRITER));
    let total: usize = (0..TARGETS)
        .map(|dst| store.witnesses(UserId(dst), query_at).len())
        .sum();
    assert_eq!(total as u64, WRITERS * PER_WRITER);
}
