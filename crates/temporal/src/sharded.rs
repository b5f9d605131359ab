//! A hash-sharded, lock-protected wrapper around [`TemporalEdgeStore`] for
//! concurrent ingest.
//!
//! The live (threaded) pipeline has one ingest thread per partition plus
//! query threads; sharding by target id keeps lock contention negligible
//! because the firehose's targets are spread across shards. Reads take a
//! shard read lock; inserts a shard write lock.

use crate::store::{PruneStrategy, StoreStats, TemporalEdgeStore};
use magicrecs_types::{Duration, Timestamp, UserId, VertexKey};
use parking_lot::RwLock;

/// Concurrent sharded `D` store (generic over the vertex key, like the
/// per-shard stores it wraps).
pub struct ShardedTemporalStore<K = UserId> {
    shards: Vec<Shard<K>>,
    mask: usize,
    window: Duration,
}

/// One shard on cache lines of its own: every insert writes its lock
/// word and counters, so two workers on neighbouring shards must not
/// share a line.
#[repr(align(128))]
struct Shard<K>(RwLock<TemporalEdgeStore<K>>);

impl<K> std::ops::Deref for Shard<K> {
    type Target = RwLock<TemporalEdgeStore<K>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K> std::ops::DerefMut for Shard<K> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<K: VertexKey> ShardedTemporalStore<K> {
    /// Creates a store with `shards` rounded up to a power of two.
    pub fn new(window: Duration, strategy: PruneStrategy, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedTemporalStore {
            shards: (0..n)
                .map(|_| Shard(RwLock::new(TemporalEdgeStore::new(window, strategy))))
                .collect(),
            mask: n - 1,
            window,
        }
    }

    /// Creates a 16-shard store with the wheel strategy.
    pub fn with_window(window: Duration) -> Self {
        ShardedTemporalStore::new(window, PruneStrategy::Wheel, 16)
    }

    /// Sets a per-target entry cap on every shard (see
    /// [`TemporalEdgeStore::with_entry_cap`]). Targets live entirely inside
    /// one shard, so the cap's per-target semantics are identical to the
    /// plain store's.
    pub fn with_entry_cap(mut self, cap: Option<usize>) -> Self {
        for s in &mut self.shards {
            let store = std::mem::replace(
                s.get_mut(),
                TemporalEdgeStore::new(self.window, PruneStrategy::Eager),
            );
            *s.get_mut() = store.with_entry_cap(cap);
        }
        self
    }

    /// The retention window τ.
    #[inline]
    pub fn window(&self) -> Duration {
        self.window
    }

    #[inline]
    fn shard_of(&self, dst: K) -> usize {
        (magicrecs_types::route_mix(&dst) as usize) & self.mask
    }

    /// Inserts `src → dst` at `at`.
    pub fn insert(&self, src: K, dst: K, at: Timestamp) {
        self.shards[self.shard_of(dst)].write().insert(src, dst, at);
    }

    /// Removes edges `src → dst` (unfollow).
    pub fn remove(&self, src: K, dst: K) {
        self.shards[self.shard_of(dst)].write().remove(src, dst);
    }

    /// Inserts a micro-batch, taking each **touched** shard's write lock
    /// at most once (the batched-ingest hot path). Each edge's shard is
    /// hashed exactly once into a per-call index; only shards the batch
    /// actually touches are visited, each with one pass over the indices
    /// (integer compares, no re-hashing), so per-target slice order is
    /// preserved exactly as N single [`ShardedTemporalStore::insert`]
    /// calls would.
    ///
    /// Tiny batches fall back to per-edge inserts — below a few edges the
    /// index allocation costs more than the locks it saves.
    pub fn insert_batch(&self, edges: &[(K, K, Timestamp)]) {
        if edges.len() <= 2 {
            for &(src, dst, at) in edges {
                self.insert(src, dst, at);
            }
            return;
        }
        let idx: Vec<u32> = edges
            .iter()
            .map(|&(_, dst, _)| self.shard_of(dst) as u32)
            .collect();
        // Touched-shard set: a bitmap when the shard count fits a word
        // (the common case — shard counts are small powers of two), else
        // a small dedup'd list.
        if self.shards.len() <= u64::BITS as usize {
            let mut touched = 0u64;
            for &s in &idx {
                touched |= 1u64 << s;
            }
            while touched != 0 {
                let s = touched.trailing_zeros();
                touched &= touched - 1;
                let mut guard = self.shards[s as usize].write();
                for (&(src, dst, at), &i) in edges.iter().zip(&idx) {
                    if i == s {
                        guard.insert(src, dst, at);
                    }
                }
            }
        } else {
            let mut touched: Vec<u32> = idx.clone();
            touched.sort_unstable();
            touched.dedup();
            for s in touched {
                let mut guard = self.shards[s as usize].write();
                for (&(src, dst, at), &i) in edges.iter().zip(&idx) {
                    if i == s {
                        guard.insert(src, dst, at);
                    }
                }
            }
        }
    }

    /// Distinct in-window witnesses for `dst` as of `now`.
    pub fn witnesses(&self, dst: K, now: Timestamp) -> Vec<(K, Timestamp)> {
        // Witness queries trim the touched list, so take the write lock.
        self.shards[self.shard_of(dst)].write().witnesses(dst, now)
    }

    /// Appends the distinct in-window witnesses for `dst` to `out`,
    /// reusing the caller's buffer: the uncapped case of
    /// [`ShardedTemporalStore::witnesses_capped_into`].
    pub fn witnesses_into(&self, dst: K, now: Timestamp, out: &mut Vec<(K, Timestamp)>) {
        self.witnesses_capped_into(dst, now, None, out);
    }

    /// Appends the `cap` newest distinct in-window witnesses for `dst`
    /// plus the boundary ties to `out` (the detector hot path; see
    /// [`TemporalEdgeStore::witnesses_capped_into`]). Only the one shard
    /// holding `dst` is locked, and only for the copy-out.
    pub fn witnesses_capped_into(
        &self,
        dst: K,
        now: Timestamp,
        cap: Option<usize>,
        out: &mut Vec<(K, Timestamp)>,
    ) {
        self.shards[self.shard_of(dst)]
            .write()
            .witnesses_capped_into(dst, now, cap, out);
    }

    /// Advances all shards (wheel expiry).
    pub fn advance(&self, now: Timestamp) {
        for s in &self.shards {
            s.write().advance(now);
        }
    }

    /// Appends every resident entry as `(dst, src, created_at)` across all
    /// shards (see [`TemporalEdgeStore::export_entries`]); per-target time
    /// order is preserved, target order is unspecified.
    pub fn export_entries(&self, out: &mut Vec<(K, K, Timestamp)>) {
        for s in &self.shards {
            s.read().export_entries(out);
        }
    }

    /// [`ShardedTemporalStore::export_entries`] restricted to targets
    /// satisfying `pred`. This is the fenced-export primitive: a
    /// non-quiescent checkpoint fences one WAL partition and exports
    /// exactly the targets routed to it (the WAL partition function is
    /// **not** the shard function — every shard can hold targets of every
    /// partition, so the filter runs across all shards).
    pub fn export_entries_where(
        &self,
        pred: impl Fn(K) -> bool + Copy,
        out: &mut Vec<(K, K, Timestamp)>,
    ) {
        for s in &self.shards {
            s.read().export_entries_where(pred, out);
        }
    }

    /// Turns on dirty-target tracking on every shard (idempotent); see
    /// [`TemporalEdgeStore::enable_dirty_tracking`].
    pub fn enable_dirty_tracking(&self) {
        for s in &self.shards {
            s.write().enable_dirty_tracking();
        }
    }

    /// Total dirty targets across shards (0 when tracking is off).
    pub fn dirty_targets(&self) -> usize {
        self.shards.iter().map(|s| s.read().dirty_targets()).sum()
    }

    /// Drains dirty targets satisfying `pred` across all shards — each
    /// drained target's current full list goes to `entries`, vanished
    /// targets to `tombstones`, and every drained target to `drained`
    /// (see [`TemporalEdgeStore::drain_dirty_exports`]). Shards are
    /// visited one write-lock at a time.
    pub fn drain_dirty_exports(
        &self,
        pred: impl Fn(K) -> bool + Copy,
        entries: &mut Vec<(K, K, Timestamp)>,
        tombstones: &mut Vec<K>,
        drained: &mut Vec<K>,
    ) {
        for s in &self.shards {
            s.write()
                .drain_dirty_exports(pred, entries, tombstones, drained);
        }
    }

    /// Clears dirty marks for targets satisfying `pred` on every shard,
    /// returning the cleared targets (the full-export path and its
    /// failure undo; see [`TemporalEdgeStore::clear_dirty_where`]).
    pub fn clear_dirty_where(&self, pred: impl Fn(K) -> bool + Copy) -> Vec<K> {
        let mut cleared = Vec::new();
        for s in &self.shards {
            cleared.extend(s.write().clear_dirty_where(pred));
        }
        cleared
    }

    /// Re-marks targets dirty, routing each to its shard — the
    /// checkpoint-failure undo (see
    /// [`TemporalEdgeStore::mark_dirty_many`]).
    pub fn mark_dirty_many(&self, targets: impl IntoIterator<Item = K>) {
        for t in targets {
            self.shards[self.shard_of(t)]
                .write()
                .mark_dirty_many(std::iter::once(t));
        }
    }

    /// Total resident entries across shards.
    pub fn resident_entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().resident_entries())
            .sum()
    }

    /// Total resident targets across shards.
    pub fn resident_targets(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().resident_targets())
            .sum()
    }

    /// Merged statistics across shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.read().stats();
            total.inserted += st.inserted;
            total.unfollowed += st.unfollowed;
            total.pruned += st.pruned;
            total.lists_reclaimed += st.lists_reclaimed;
            total.sweeps += st.sweeps;
            total.peak_entries += st.peak_entries; // upper bound on true peak
        }
        total
    }

    /// Approximate heap bytes across shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().memory_bytes()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let s: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(1), PruneStrategy::Eager, 5);
        assert_eq!(s.shard_count(), 8);
        let s1: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(1), PruneStrategy::Eager, 0);
        assert_eq!(s1.shard_count(), 1);
    }

    #[test]
    fn insert_query_across_shards() {
        let s = ShardedTemporalStore::with_window(Duration::from_secs(60));
        for i in 0..100 {
            s.insert(u(i), u(1000 + i % 10), ts(10));
        }
        assert_eq!(s.resident_entries(), 100);
        let got = s.witnesses(u(1000), ts(20));
        assert_eq!(got.len(), 10); // sources 0,10,...,90
    }

    #[test]
    fn concurrent_ingest_and_query() {
        let s = Arc::new(ShardedTemporalStore::with_window(Duration::from_secs(600)));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        s.insert(u(w * 1000 + i), u(i % 50), ts(i % 100));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    for i in 0..500u64 {
                        seen += s.witnesses(u(i % 50), ts(100)).len();
                    }
                    seen
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(s.stats().inserted, 4000);
        assert_eq!(s.resident_entries(), 4000);
    }

    #[test]
    fn advance_prunes_all_shards() {
        let s = ShardedTemporalStore::new(Duration::from_secs(10), PruneStrategy::Wheel, 4);
        for i in 0..100 {
            s.insert(u(i), u(i), ts(1));
        }
        s.advance(ts(1000));
        assert_eq!(s.resident_entries(), 0);
        assert_eq!(s.resident_targets(), 0);
    }

    #[test]
    fn remove_routes_to_right_shard() {
        let s = ShardedTemporalStore::with_window(Duration::from_secs(60));
        s.insert(u(1), u(7), ts(1));
        s.remove(u(1), u(7));
        assert!(s.witnesses(u(7), ts(2)).is_empty());
    }

    #[test]
    fn sharded_dirty_tracking_and_filtered_export() {
        let s = ShardedTemporalStore::new(Duration::from_secs(600), PruneStrategy::Wheel, 4);
        s.enable_dirty_tracking();
        for i in 0..50u64 {
            s.insert(u(i), u(1000 + i % 10), ts(10 + i));
        }
        assert_eq!(s.dirty_targets(), 10);

        // Drain the targets of one synthetic "partition" (parity of the
        // route hash) — the others stay dirty.
        let parts = 2usize;
        let pred = move |t: UserId| (magicrecs_types::route_mix(&t) as usize).is_multiple_of(parts);
        let (mut entries, mut tombs, mut drained) = (Vec::new(), Vec::new(), Vec::new());
        s.drain_dirty_exports(pred, &mut entries, &mut tombs, &mut drained);
        assert!(tombs.is_empty());
        assert!(drained.iter().all(|&t| pred(t)));
        assert_eq!(s.dirty_targets(), 10 - drained.len());

        // The filtered export matches the drained partition's entries.
        let mut full = Vec::new();
        s.export_entries_where(pred, &mut full);
        let mut a = entries.clone();
        let mut b = full.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // Re-marking restores the drained targets.
        s.mark_dirty_many(drained.iter().copied());
        assert_eq!(s.dirty_targets(), 10);
        s.clear_dirty_where(|_| true);
        assert_eq!(s.dirty_targets(), 0);
    }
}
