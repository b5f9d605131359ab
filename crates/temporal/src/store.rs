//! The `D` store: recent dynamic edges indexed by target.
//!
//! `TemporalEdgeStore` is the single-threaded store owned by one partition
//! (the paper's partitions each hold "the complete D data structure"). It
//! combines the per-target entries, held in a `TargetTable` (one slot per
//! target, multi-entry [`crate::TargetList`]s in its slab), with a
//! configurable global pruning discipline and detailed statistics for the
//! memory experiments.

use crate::table::TargetTable;
use crate::wheel::EpochWheel;
use magicrecs_types::{Duration, FxHashMap, FxHashSet, Timestamp, UserId};

/// Global memory-reclamation discipline for expired targets (ablation B3).
///
/// Per-list trimming happens on every touch regardless; the strategy decides
/// how *cold* lists (targets no longer receiving edges) get reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStrategy {
    /// Trim only on touch. Cold lists persist until touched again — the
    /// baseline the paper's "prune to only retain the most recent edges"
    /// improves on.
    Eager,
    /// Epoch-wheel index; [`TemporalEdgeStore::advance`] reclaims expired
    /// targets in O(expired).
    Wheel,
    /// Every `sweep_every` insertions, scan all lists and trim. Simple but
    /// introduces periodic latency spikes proportional to the target count.
    Sweep {
        /// Full-scan period, counted in insertions.
        sweep_every: u64,
    },
}

/// Statistics counters for a [`TemporalEdgeStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total edges inserted.
    pub inserted: u64,
    /// Total entries removed by unfollow events.
    pub unfollowed: u64,
    /// Total entries dropped by window trimming.
    pub pruned: u64,
    /// Target lists fully reclaimed (became empty and were removed).
    pub lists_reclaimed: u64,
    /// Full sweeps performed (Sweep strategy only).
    pub sweeps: u64,
    /// Peak resident entry count observed.
    pub peak_entries: u64,
}

/// The dynamic edge store `D`, keyed by sparse [`UserId`]: dynamic events
/// reference an unbounded, un-interned vertex set, so the sparse id is
/// the honest key at ingestion.
#[derive(Debug, Clone)]
pub struct TemporalEdgeStore {
    window: Duration,
    strategy: PruneStrategy,
    /// Optional cap on entries retained per target (most recent win);
    /// the paper's "retain the most recent edges" pruning.
    entry_cap: Option<usize>,
    targets: TargetTable,
    wheel: Option<EpochWheel>,
    resident: u64,
    since_sweep: u64,
    stats: StoreStats,
    /// Targets whose list changed since the last dirty drain (`None`:
    /// tracking disabled — the default; incremental checkpointing turns
    /// it on). Every mutation path marks here: inserts, removals, window
    /// trims (on query, advance, and sweep), cap drops, and list
    /// reclamation.
    dirty: Option<FxHashSet<UserId>>,
    /// The witness query's dedup scratch: empty between calls, kept so
    /// that queries allocate nothing once it has grown.
    seen: FxHashMap<UserId, ()>,
}

impl TemporalEdgeStore {
    /// Creates a store retaining edges for `window`, with the given pruning
    /// strategy.
    pub fn new(window: Duration, strategy: PruneStrategy) -> Self {
        let wheel =
            matches!(strategy, PruneStrategy::Wheel).then(|| EpochWheel::for_window(window));
        TemporalEdgeStore {
            window,
            strategy,
            entry_cap: None,
            targets: TargetTable::new(),
            wheel,
            resident: 0,
            since_sweep: 0,
            stats: StoreStats::default(),
            dirty: None,
            seen: FxHashMap::default(),
        }
    }

    /// Sets a cap on entries retained per target: when a list exceeds the
    /// cap, its oldest entries are dropped even if still inside the
    /// window. Bounds hot-target (celebrity) cost and memory; the detector
    /// only ever examines the most recent witnesses anyway.
    pub fn with_entry_cap(mut self, cap: Option<usize>) -> Self {
        self.entry_cap = cap.map(|c| c.max(1));
        self
    }

    /// Creates a store with the wheel strategy — the production default.
    pub fn with_window(window: Duration) -> Self {
        TemporalEdgeStore::new(window, PruneStrategy::Wheel)
    }

    /// The retention window τ.
    #[inline]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Inserts the dynamic edge `src → dst` created at `at`, trimming the
    /// touched list to the window as a side effect.
    pub fn insert(&mut self, src: UserId, dst: UserId, at: Timestamp) {
        let cutoff = at.saturating_sub(self.window);
        let (prev_newest, dropped) = self.targets.insert(dst, src, at, cutoff, self.entry_cap);
        let dropped = dropped as u64;
        self.mark_dirty(dst);
        self.stats.inserted += 1;
        self.stats.pruned += dropped;
        self.resident = self.resident + 1 - dropped;
        self.stats.peak_entries = self.stats.peak_entries.max(self.resident);

        if let Some(wheel) = &mut self.wheel {
            // The list's previous newest entry already indexed `dst` in
            // `at`'s bucket when that bucket is still live.
            if !prev_newest.is_some_and(|prev| wheel.already_indexed(prev, at)) {
                wheel.touch(dst, at);
            }
        }
        if let PruneStrategy::Sweep { sweep_every } = self.strategy {
            self.since_sweep += 1;
            if self.since_sweep >= sweep_every {
                self.sweep(at);
            }
        }
    }

    /// Removes any stored edges `src → dst` (unfollow semantics).
    pub fn remove(&mut self, src: UserId, dst: UserId) {
        if let Some(pos) = self.targets.find(dst) {
            let (removed, reclaimed) = self.targets.remove_source(pos, src);
            let removed = removed as u64;
            self.stats.unfollowed += removed;
            self.resident -= removed;
            if reclaimed {
                self.stats.lists_reclaimed += 1;
            }
            if removed > 0 {
                self.mark_dirty(dst);
            }
        }
    }

    /// Appends the distinct in-window sources for `dst` as of `now`
    /// (each with its latest timestamp) to `out`: the uncapped case of
    /// [`TemporalEdgeStore::witnesses_capped_into`].
    pub fn witnesses_into(
        &mut self,
        dst: UserId,
        now: Timestamp,
        out: &mut Vec<(UserId, Timestamp)>,
    ) {
        self.witnesses_capped_into(dst, now, None, out);
    }

    /// Appends the `cap` newest distinct in-window sources for `dst` as of
    /// `now` (each with its latest timestamp), plus any that tie the
    /// `cap`-th one's timestamp, to `out` — newest first. `None` appends
    /// every distinct in-window source; a cap of 0 counts as 1.
    ///
    /// This is the paper's `D` query: "when a B → C edge is created, we
    /// query D to find all other B's that also point to the C." The window
    /// is one-sided — entries *newer* than `now` are included: queues
    /// deliver out of order, and edges within τ of each other are
    /// temporally correlated regardless of which side of the query time
    /// they land on. The cap bounds the walk (see
    /// [`crate::TargetList::newest_sources_into`]): a detector that keeps the
    /// `(Reverse(at), source)` top `cap` witnesses keeps the same set from
    /// this output as from the uncapped one. The cap changes only what is
    /// appended: the query's trim, counters and dirty marks are the
    /// uncapped query's.
    pub fn witnesses_capped_into(
        &mut self,
        dst: UserId,
        now: Timestamp,
        cap: Option<usize>,
        out: &mut Vec<(UserId, Timestamp)>,
    ) {
        let cutoff = now.saturating_sub(self.window);
        if let Some(pos) = self.targets.find(dst) {
            // Trim opportunistically — the query already pays for the scan.
            let (dropped, reclaimed) = self.targets.trim(pos, cutoff);
            let dropped = dropped as u64;
            self.stats.pruned += dropped;
            self.resident -= dropped;
            if reclaimed {
                self.stats.lists_reclaimed += 1;
                self.mark_dirty(dst);
                return;
            }
            let cap = cap.map_or(usize::MAX, |c| c.max(1));
            self.targets
                .newest_sources_into(pos, cutoff, cap, &mut self.seen, out);
            if dropped > 0 {
                self.mark_dirty(dst);
            }
        }
    }

    /// Convenience wrapper returning a fresh vector (tests, examples).
    pub fn witnesses(&mut self, dst: UserId, now: Timestamp) -> Vec<(UserId, Timestamp)> {
        let mut out = Vec::new();
        self.witnesses_into(dst, now, &mut out);
        out
    }

    /// Advances the clock for pruning purposes: reclaims expired targets.
    ///
    /// * `Wheel`: visits exactly the targets whose buckets expired.
    /// * `Eager` / `Sweep`: no-op (Eager trims on touch; Sweep trims on its
    ///   own insert-count schedule).
    pub fn advance(&mut self, now: Timestamp) {
        let cutoff = now.saturating_sub(self.window);
        if let Some(wheel) = &mut self.wheel {
            for target in wheel.expire_before(cutoff) {
                if let Some(pos) = self.targets.find(target) {
                    let (dropped, reclaimed) = self.targets.trim(pos, cutoff);
                    let dropped = dropped as u64;
                    self.stats.pruned += dropped;
                    self.resident -= dropped;
                    if reclaimed {
                        self.stats.lists_reclaimed += 1;
                    }
                    if dropped > 0 {
                        if let Some(dirty) = &mut self.dirty {
                            dirty.insert(target);
                        }
                    }
                }
            }
        }
    }

    /// Full sweep: trims every list (Sweep strategy; also callable
    /// directly for tests/benches).
    pub fn sweep(&mut self, now: Timestamp) {
        let cutoff = now.saturating_sub(self.window);
        let mut reclaimed = 0u64;
        let mut dropped_total = 0u64;
        let dirty = &mut self.dirty;
        self.targets.trim_all(cutoff, |target, dropped, emptied| {
            dropped_total += dropped as u64;
            reclaimed += u64::from(emptied);
            if let Some(dirty) = dirty {
                dirty.insert(target);
            }
        });
        self.stats.pruned += dropped_total;
        self.resident -= dropped_total;
        self.stats.lists_reclaimed += reclaimed;
        self.stats.sweeps += 1;
        self.since_sweep = 0;
    }

    /// Appends every resident entry as `(dst, src, created_at)` to `out` —
    /// the checkpoint serializer's export. Entries within one target come
    /// out in stored time order (so re-inserting in export order rebuilds
    /// each list identically); target order follows map iteration and is
    /// **unspecified** — deterministic consumers sort by target.
    pub fn export_entries(&self, out: &mut Vec<(UserId, UserId, Timestamp)>) {
        out.reserve(self.resident as usize);
        self.export_entries_where(|_| true, out);
    }

    /// [`TemporalEdgeStore::export_entries`] restricted to targets
    /// satisfying `pred` — the fenced per-partition export: a checkpoint
    /// cuts one WAL partition at a time and exports exactly the targets
    /// routed to it.
    pub fn export_entries_where(
        &self,
        pred: impl Fn(UserId) -> bool,
        out: &mut Vec<(UserId, UserId, Timestamp)>,
    ) {
        for (dst, pos) in self.targets.targets() {
            if pred(dst) {
                out.extend(self.targets.entries(pos).map(|(src, at)| (dst, src, at)));
            }
        }
    }

    /// Turns on dirty-target tracking (idempotent). Mutations from here
    /// on record which targets changed, feeding incremental checkpoints;
    /// the set is emptied by [`TemporalEdgeStore::drain_dirty_exports`]
    /// and [`TemporalEdgeStore::clear_dirty_where`].
    pub fn enable_dirty_tracking(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(FxHashSet::default());
        }
    }

    /// Whether dirty-target tracking is on.
    #[inline]
    pub fn dirty_tracking_enabled(&self) -> bool {
        self.dirty.is_some()
    }

    /// Number of currently-dirty targets (0 when tracking is off).
    pub fn dirty_targets(&self) -> usize {
        self.dirty.as_ref().map_or(0, |d| d.len())
    }

    #[inline]
    fn mark_dirty(&mut self, target: UserId) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(target);
        }
    }

    /// Re-marks targets dirty — the checkpoint failure path: a drained
    /// dirty set whose delta never landed durably must flow into the
    /// *next* delta or those changes silently vanish from the chain.
    pub fn mark_dirty_many(&mut self, targets: impl IntoIterator<Item = UserId>) {
        if let Some(dirty) = &mut self.dirty {
            dirty.extend(targets);
        }
    }

    /// Drains the dirty targets satisfying `pred`: each one's **current
    /// full list** is appended to `entries` as `(dst, src, at)` triples
    /// (time order within a target, like
    /// [`TemporalEdgeStore::export_entries`]), a dirty target holding no
    /// list anymore is appended to `tombstones`, and every drained target
    /// is appended to `drained` (the caller's undo log — see
    /// [`TemporalEdgeStore::mark_dirty_many`]). Targets failing `pred`
    /// stay dirty. No-op when tracking is off.
    pub fn drain_dirty_exports(
        &mut self,
        pred: impl Fn(UserId) -> bool,
        entries: &mut Vec<(UserId, UserId, Timestamp)>,
        tombstones: &mut Vec<UserId>,
        drained: &mut Vec<UserId>,
    ) {
        let Some(dirty) = &mut self.dirty else { return };
        let matched: Vec<UserId> = dirty.iter().copied().filter(|&t| pred(t)).collect();
        for t in &matched {
            dirty.remove(t);
        }
        for &t in &matched {
            drained.push(t);
            match self.targets.find(t) {
                // A held target is never empty (emptied targets are
                // removed from the table), so this always exports ≥ 1
                // entries.
                Some(pos) => {
                    entries.extend(self.targets.entries(pos).map(|(src, at)| (t, src, at)))
                }
                None => tombstones.push(t),
            }
        }
    }

    /// Clears dirty marks for targets satisfying `pred` — the full-export
    /// path: a full checkpoint of a partition captures every target
    /// routed to it, dirty or not, so their marks are spent. Returns the
    /// cleared targets so a caller whose full checkpoint then fails to
    /// land can re-mark them ([`TemporalEdgeStore::mark_dirty_many`]).
    pub fn clear_dirty_where(&mut self, pred: impl Fn(UserId) -> bool) -> Vec<UserId> {
        let Some(dirty) = &mut self.dirty else {
            return Vec::new();
        };
        let cleared: Vec<UserId> = dirty.iter().copied().filter(|&t| pred(t)).collect();
        for t in &cleared {
            dirty.remove(t);
        }
        cleared
    }

    /// Number of resident (stored, possibly stale) entries.
    #[inline]
    pub fn resident_entries(&self) -> u64 {
        self.resident
    }

    /// Number of targets currently holding at least one entry.
    #[inline]
    pub fn resident_targets(&self) -> usize {
        self.targets.len()
    }

    /// Snapshot of the statistics counters.
    #[inline]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Approximate heap bytes (target table and its lists + wheel + the
    /// witness query's dedup scratch). Tables and sets are sized by their
    /// capacity: a table is allocated whether or not its slots are
    /// occupied.
    pub fn memory_bytes(&self) -> usize {
        let seen_bytes = self.seen.capacity() * (std::mem::size_of::<UserId>() + 1) * 8 / 7;
        let wheel_bytes = self.wheel.as_ref().map_or(0, |w| w.memory_bytes());
        self.targets.memory_bytes() + seen_bytes + wheel_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn w(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn insert_then_query_witnesses() {
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(u(1), u(100), ts(10));
        d.insert(u(2), u(100), ts(20));
        d.insert(u(3), u(200), ts(20)); // different target
        let mut got = d.witnesses(u(100), ts(30));
        got.sort_by_key(|&(s, _)| s);
        assert_eq!(got, vec![(u(1), ts(10)), (u(2), ts(20))]);
    }

    #[test]
    fn window_excludes_stale_edges() {
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(u(1), u(100), ts(10));
        d.insert(u(2), u(100), ts(100));
        let got = d.witnesses(u(100), ts(120));
        assert_eq!(got, vec![(u(2), ts(100))]);
        // The stale entry was trimmed by the query.
        assert_eq!(d.resident_entries(), 1);
    }

    #[test]
    fn unfollow_removes_witness() {
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(u(1), u(100), ts(10));
        d.insert(u(2), u(100), ts(11));
        d.remove(u(1), u(100));
        assert_eq!(d.witnesses(u(100), ts(12)), vec![(u(2), ts(11))]);
        assert_eq!(d.stats().unfollowed, 1);
    }

    #[test]
    fn unfollow_last_entry_reclaims_list() {
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(u(1), u(100), ts(10));
        d.remove(u(1), u(100));
        assert_eq!(d.resident_targets(), 0);
        assert_eq!(d.stats().lists_reclaimed, 1);
    }

    #[test]
    fn wheel_advance_reclaims_cold_targets() {
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Wheel);
        for i in 0..100 {
            d.insert(u(i), u(1000 + i), ts(1));
        }
        assert_eq!(d.resident_targets(), 100);
        d.advance(ts(100));
        assert_eq!(d.resident_targets(), 0);
        assert_eq!(d.stats().pruned, 100);
        assert_eq!(d.stats().lists_reclaimed, 100);
    }

    #[test]
    fn eager_strategy_keeps_cold_lists_until_touch() {
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Eager);
        d.insert(u(1), u(100), ts(1));
        d.advance(ts(100)); // no-op for Eager
        assert_eq!(d.resident_targets(), 1);
        // Touch reclaims.
        assert!(d.witnesses(u(100), ts(100)).is_empty());
        assert_eq!(d.resident_targets(), 0);
    }

    #[test]
    fn sweep_strategy_trims_on_schedule() {
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Sweep { sweep_every: 5 });
        for i in 0..4 {
            d.insert(u(i), u(100 + i), ts(1));
        }
        assert_eq!(d.stats().sweeps, 0);
        // Fifth insert at a much later time triggers the sweep, which
        // reclaims the four stale lists.
        d.insert(u(9), u(999), ts(1000));
        assert_eq!(d.stats().sweeps, 1);
        assert_eq!(d.resident_targets(), 1);
    }

    #[test]
    fn stats_track_peak() {
        let mut d = TemporalEdgeStore::with_window(w(1000));
        for i in 0..50 {
            d.insert(u(i), u(7), ts(i));
        }
        assert_eq!(d.stats().peak_entries, 50);
        assert_eq!(d.stats().inserted, 50);
    }

    #[test]
    fn duplicate_source_counts_once_in_witnesses() {
        let mut d = TemporalEdgeStore::with_window(w(100));
        d.insert(u(1), u(7), ts(1));
        d.insert(u(1), u(7), ts(2));
        let got = d.witnesses(u(7), ts(3));
        assert_eq!(got, vec![(u(1), ts(2))]); // latest timestamp wins
        assert_eq!(d.resident_entries(), 2); // both stored
    }

    #[test]
    fn witnesses_into_reuses_buffer() {
        let mut d = TemporalEdgeStore::with_window(w(100));
        d.insert(u(1), u(7), ts(1));
        let mut buf = Vec::with_capacity(16);
        d.witnesses_into(u(7), ts(2), &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        d.witnesses_into(u(7), ts(2), &mut buf);
        assert_eq!(buf.len(), 1);
        assert!(buf.capacity() >= 16);
    }

    #[test]
    fn memory_shrinks_after_advance() {
        let mut d = TemporalEdgeStore::with_window(w(10));
        for i in 0..1000 {
            d.insert(u(i % 50), u(1000 + i), ts(1));
        }
        let before = d.memory_bytes();
        d.advance(ts(1000));
        assert!(d.memory_bytes() < before);
        assert_eq!(d.resident_entries(), 0);
    }

    #[test]
    fn export_reinsert_roundtrips_state() {
        let mut d = TemporalEdgeStore::with_window(w(600));
        d.insert(u(1), u(100), ts(10));
        d.insert(u(2), u(100), ts(5)); // out of order: stored sorted
        d.insert(u(1), u(100), ts(20)); // duplicate source kept
        d.insert(u(3), u(200), ts(15));
        let mut dump = Vec::new();
        d.export_entries(&mut dump);
        assert_eq!(dump.len() as u64, d.resident_entries());

        let mut d2 = TemporalEdgeStore::with_window(w(600));
        for &(dst, src, at) in &dump {
            d2.insert(src, dst, at);
        }
        assert_eq!(d2.resident_entries(), d.resident_entries());
        assert_eq!(d2.resident_targets(), d.resident_targets());
        for target in [u(100), u(200)] {
            assert_eq!(d2.witnesses(target, ts(30)), d.witnesses(target, ts(30)));
        }
    }

    #[test]
    fn query_unknown_target_is_empty() {
        let mut d = TemporalEdgeStore::with_window(w(10));
        assert!(d.witnesses(u(42), ts(5)).is_empty());
    }

    #[test]
    fn dirty_tracking_marks_every_mutation_path() {
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Wheel);
        // Off by default: mutations don't record anything.
        d.insert(u(1), u(100), ts(1));
        assert_eq!(d.dirty_targets(), 0);
        d.enable_dirty_tracking();
        assert!(d.dirty_tracking_enabled());

        // Insert marks.
        d.insert(u(2), u(100), ts(2));
        assert_eq!(d.dirty_targets(), 1);

        // Drain exports the current full list and empties the set.
        let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
        d.drain_dirty_exports(|_| true, &mut entries, &mut tombs, &mut drained);
        assert_eq!(drained, vec![u(100)]);
        assert_eq!(entries.len(), 2, "full current list, not just the delta");
        assert!(tombs.is_empty());
        assert_eq!(d.dirty_targets(), 0);

        // Remove marks; removing the last entry tombstones on drain.
        d.remove(u(1), u(100));
        d.remove(u(2), u(100));
        let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
        d.drain_dirty_exports(|_| true, &mut entries, &mut tombs, &mut drained);
        assert_eq!(tombs, vec![u(100)]);
        assert!(entries.is_empty());

        // Wheel expiry marks the expired target.
        d.insert(u(3), u(200), ts(5));
        d.clear_dirty_where(|_| true);
        d.advance(ts(1000));
        assert_eq!(d.dirty_targets(), 1);

        // A drained-but-failed checkpoint re-marks.
        let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
        d.drain_dirty_exports(|_| true, &mut entries, &mut tombs, &mut drained);
        assert_eq!(d.dirty_targets(), 0);
        d.mark_dirty_many(drained);
        assert_eq!(d.dirty_targets(), 1);

        // Predicate-filtered drain leaves non-matching targets dirty.
        d.insert(u(4), u(300), ts(2000));
        let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
        d.drain_dirty_exports(|t| t == u(300), &mut entries, &mut tombs, &mut drained);
        assert_eq!(drained, vec![u(300)]);
        assert_eq!(d.dirty_targets(), 1, "u(200) stays dirty");
        let _ = (entries, tombs);
    }

    #[test]
    fn dirty_tracking_marks_query_trims_and_sweeps() {
        // Query-path trim marks.
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Eager);
        d.enable_dirty_tracking();
        d.insert(u(1), u(100), ts(1));
        d.clear_dirty_where(|_| true);
        assert!(d.witnesses(u(100), ts(100)).is_empty()); // trims + reclaims
        assert_eq!(d.dirty_targets(), 1);

        // Sweep-path trim marks (collect-then-mark inside retain).
        let mut d = TemporalEdgeStore::new(w(10), PruneStrategy::Sweep { sweep_every: 3 });
        d.enable_dirty_tracking();
        d.insert(u(1), u(100), ts(1));
        d.insert(u(2), u(200), ts(1));
        d.clear_dirty_where(|_| true);
        d.insert(u(3), u(300), ts(1000)); // triggers the sweep
                                          // 100 and 200 expired in the sweep; 300 marked by its insert.
        assert_eq!(d.dirty_targets(), 3);
    }

    #[test]
    fn export_entries_where_filters_targets() {
        let mut d = TemporalEdgeStore::with_window(w(600));
        d.insert(u(1), u(100), ts(10));
        d.insert(u(2), u(100), ts(20));
        d.insert(u(3), u(200), ts(15));
        let mut out = Vec::new();
        d.export_entries_where(|t| t == u(100), &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(dst, _, _)| dst == u(100)));
    }

    #[test]
    fn out_of_order_arrivals_within_window() {
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(u(2), u(7), ts(20));
        d.insert(u(1), u(7), ts(10)); // late delivery
        let mut got = d.witnesses(u(7), ts(30));
        got.sort_by_key(|&(s, _)| s);
        assert_eq!(got, vec![(u(1), ts(10)), (u(2), ts(20))]);
    }

    #[test]
    fn single_entry_targets_own_no_list_heap() {
        let mut d = TemporalEdgeStore::with_window(w(600));
        for i in 0..1_000 {
            d.insert(u(i), u(10_000 + i), ts(1));
        }
        assert_eq!(d.targets.slab_targets(), 0);
        let table_and_wheel = d.memory_bytes();
        d.insert(u(1), u(10_000), ts(2)); // a second entry moves one list to the slab
        assert_eq!(d.targets.slab_targets(), 1);
        assert!(d.memory_bytes() > table_and_wheel);
    }

    #[test]
    fn max_user_id_at_max_timestamp_is_stored() {
        let (id, t) = (UserId(u64::MAX), Timestamp(u64::MAX));
        let mut d = TemporalEdgeStore::with_window(w(60));
        d.insert(id, id, t);
        d.insert(u(0), u(0), Timestamp(0));
        assert_eq!(d.witnesses(id, t), vec![(id, t)]);
        d.insert(u(1), id, t); // a second entry: the target's list moves to the slab
        let mut got = d.witnesses(id, t);
        got.sort_unstable();
        assert_eq!(got, vec![(u(1), t), (id, t)]);
        d.remove(id, id);
        d.remove(u(1), id);
        assert_eq!(d.resident_targets(), 1);
        assert!(d.witnesses(id, t).is_empty());
        assert_eq!(d.witnesses(u(0), Timestamp(0)), vec![(u(0), Timestamp(0))]);
    }

    #[test]
    fn touch_skipped_for_repeat_target_in_live_bucket() {
        // window 160 s → 10 s buckets.
        let mut d = TemporalEdgeStore::with_window(w(160));
        d.insert(u(1), u(7), ts(1));
        d.insert(u(2), u(7), ts(5)); // same bucket: no second push
        let wheel = d.wheel.as_ref().expect("wheel strategy");
        assert_eq!(wheel.indexed_touches(), 1);
        d.insert(u(3), u(7), ts(15)); // next bucket: pushed
        assert_eq!(d.wheel.as_ref().expect("wheel").indexed_touches(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The wheel never loses a resident entry, whatever the arrival
        /// order. Every resident entry's target is indexed in a live
        /// bucket between the entry's own bucket and the horizon (the
        /// clamp for late arrivals) — so after `advance(now)` no entry
        /// older than the cutoff sits in a bucket before the cutoff's —
        /// and a far-future advance reclaims everything.
        #[test]
        fn wheel_index_never_leaks(
            ops in proptest::collection::vec((0u64..8, 0u64..6, 0u64..6, 0u64..500), 1..160),
        ) {
            const WINDOW: u64 = 160;
            let mut d = TemporalEdgeStore::with_window(w(WINDOW)).with_entry_cap(Some(3));
            let mut clock = 0u64;
            for &(kind, src, dst, r) in &ops {
                match kind {
                    // In order, a little ahead of the clock.
                    0..=2 => {
                        clock += r % 7;
                        d.insert(u(src), u(dst), ts(clock));
                    }
                    // Out of order, within a couple of buckets.
                    3 => d.insert(u(src), u(dst), ts(clock.saturating_sub(r % 25))),
                    // Far behind: lands before the horizon.
                    4 => d.insert(u(src), u(dst), ts(clock.saturating_sub(r))),
                    5 => d.remove(u(src), u(dst)),
                    _ => {
                        clock += r % 40;
                        d.advance(ts(clock));
                    }
                }
                let wheel = d.wheel.as_ref().expect("wheel strategy");
                let mut resident = Vec::new();
                d.export_entries(&mut resident);
                for &(dst, src, at) in &resident {
                    let (own, horizon) = wheel.bucket_and_horizon(at);
                    let held = wheel.buckets_holding(dst);
                    proptest::prop_assert!(
                        held.iter().any(|&b| b >= own && b <= own.max(horizon)),
                        "entry {:?} -> {:?} at {:?} (bucket {}, horizon {}) indexed only in {:?}",
                        src, dst, at, own, horizon, held
                    );
                }
            }
            d.advance(ts(clock + 10 * WINDOW));
            proptest::prop_assert_eq!(d.resident_entries(), 0);
            proptest::prop_assert_eq!(d.resident_targets(), 0);
        }
    }
}
