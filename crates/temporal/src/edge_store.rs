//! The store abstraction the detector and the batch-apply helpers are
//! generic over.
//!
//! [`EdgeStore`] captures the dynamic-structure contract the paper gives
//! `D`: insert recent edges by target, remove on unfollow, answer the
//! "all other B's that also point to the C" witness query, and reclaim
//! expired state. Two implementations ship:
//!
//! * [`TemporalEdgeStore`] — single-owner, `&mut self`; the store a
//!   declarative motif executor owns.
//! * [`ShardedTemporalStore`] — hash-sharded behind per-shard locks; all
//!   operations are interiorly mutable, so the trait is additionally
//!   implemented for `&ShardedTemporalStore`. That reference impl is the
//!   concurrency seam: N threads can each hold a `&ShardedTemporalStore`
//!   and drive the same generic code that a `TemporalEdgeStore` owner runs
//!   single-threaded.
//!
//! The trait keeps `&mut self` receivers: exclusive access is the honest
//! requirement for the plain store, and a shared reference to a sharded
//! store *is* `&mut`-able for free (`&mut &ShardedTemporalStore`). Code
//! generic over `EdgeStore` therefore never needs to know which world it
//! is in.

use crate::sharded::ShardedTemporalStore;
use crate::store::{StoreStats, TemporalEdgeStore};
use magicrecs_types::{Duration, EdgeEvent, Timestamp, UserId, VertexKey};

/// The dynamic edge structure `D`, as seen by detection engines.
///
/// Implementors must keep the same window semantics as
/// [`TemporalEdgeStore`]: `witnesses_into` reports distinct in-window
/// sources for a target (each with its latest timestamp), where the window
/// is one-sided — entries newer than `now` are included.
pub trait EdgeStore<K: VertexKey> {
    /// Inserts the dynamic edge `src → dst` created at `at`.
    fn insert(&mut self, src: K, dst: K, at: Timestamp);

    /// Inserts a micro-batch of `(src, dst, at)` edges, preserving slice
    /// order per target. The default is the per-edge loop, so existing
    /// implementations keep compiling; stores with per-operation costs
    /// worth amortizing override it — [`ShardedTemporalStore`] takes each
    /// shard lock **at most once** per batch instead of once per edge.
    fn insert_batch(&mut self, edges: &[(K, K, Timestamp)]) {
        for &(src, dst, at) in edges {
            self.insert(src, dst, at);
        }
    }

    /// Removes any stored edges `src → dst` (unfollow semantics).
    fn remove(&mut self, src: K, dst: K);

    /// Appends the distinct in-window sources for `dst` as of `now` (each
    /// with its latest timestamp) to `out`, newest first. Both stores run
    /// this as the uncapped case of their `witnesses_capped_into`, the
    /// newest-first walk that the engine stops at `max_witnesses`.
    fn witnesses_into(&mut self, dst: K, now: Timestamp, out: &mut Vec<(K, Timestamp)>);

    /// Advances the clock for pruning purposes: reclaims expired targets.
    fn advance(&mut self, now: Timestamp);

    /// The retention window τ.
    fn window(&self) -> Duration;

    /// Number of resident (stored, possibly stale) entries.
    fn resident_entries(&self) -> u64;

    /// Number of targets currently holding at least one entry.
    fn resident_targets(&self) -> usize;

    /// Snapshot of the statistics counters.
    fn stats(&self) -> StoreStats;

    /// Approximate heap bytes held.
    fn memory_bytes(&self) -> usize;
}

impl<K: VertexKey> EdgeStore<K> for TemporalEdgeStore<K> {
    #[inline]
    fn insert(&mut self, src: K, dst: K, at: Timestamp) {
        TemporalEdgeStore::insert(self, src, dst, at);
    }

    #[inline]
    fn remove(&mut self, src: K, dst: K) {
        TemporalEdgeStore::remove(self, src, dst);
    }

    #[inline]
    fn witnesses_into(&mut self, dst: K, now: Timestamp, out: &mut Vec<(K, Timestamp)>) {
        TemporalEdgeStore::witnesses_into(self, dst, now, out);
    }

    #[inline]
    fn advance(&mut self, now: Timestamp) {
        TemporalEdgeStore::advance(self, now);
    }

    #[inline]
    fn window(&self) -> Duration {
        TemporalEdgeStore::window(self)
    }

    #[inline]
    fn resident_entries(&self) -> u64 {
        TemporalEdgeStore::resident_entries(self)
    }

    #[inline]
    fn resident_targets(&self) -> usize {
        TemporalEdgeStore::resident_targets(self)
    }

    #[inline]
    fn stats(&self) -> StoreStats {
        TemporalEdgeStore::stats(self)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        TemporalEdgeStore::memory_bytes(self)
    }
}

impl<K: VertexKey> EdgeStore<K> for ShardedTemporalStore<K> {
    #[inline]
    fn insert(&mut self, src: K, dst: K, at: Timestamp) {
        ShardedTemporalStore::insert(self, src, dst, at);
    }

    #[inline]
    fn insert_batch(&mut self, edges: &[(K, K, Timestamp)]) {
        ShardedTemporalStore::insert_batch(self, edges);
    }

    #[inline]
    fn remove(&mut self, src: K, dst: K) {
        ShardedTemporalStore::remove(self, src, dst);
    }

    #[inline]
    fn witnesses_into(&mut self, dst: K, now: Timestamp, out: &mut Vec<(K, Timestamp)>) {
        ShardedTemporalStore::witnesses_into(self, dst, now, out);
    }

    #[inline]
    fn advance(&mut self, now: Timestamp) {
        ShardedTemporalStore::advance(self, now);
    }

    #[inline]
    fn window(&self) -> Duration {
        ShardedTemporalStore::window(self)
    }

    #[inline]
    fn resident_entries(&self) -> u64 {
        ShardedTemporalStore::resident_entries(self)
    }

    #[inline]
    fn resident_targets(&self) -> usize {
        ShardedTemporalStore::resident_targets(self)
    }

    #[inline]
    fn stats(&self) -> StoreStats {
        ShardedTemporalStore::stats(self)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        ShardedTemporalStore::memory_bytes(self)
    }
}

/// Applies a micro-batch of stream events to a store without detection:
/// maximal insertion runs go through [`EdgeStore::insert_batch`] (one
/// shard-lock pass on a sharded store), and a removal flushes the pending
/// run before applying, so **per-target operation order is preserved**
/// exactly as N single applies would. `scratch` is the caller's reusable
/// `(src, dst, at)` buffer; it is left cleared.
///
/// This is the replay fast path: crash recovery and replica
/// state-maintenance rebuild `D` from event sequences with emission
/// suppressed, where nothing forces a per-event store round trip.
pub fn apply_events_batch<D: EdgeStore<UserId>>(
    store: &mut D,
    events: &[EdgeEvent],
    scratch: &mut Vec<(UserId, UserId, Timestamp)>,
) {
    scratch.clear();
    for &e in events {
        if e.kind.is_insertion() {
            scratch.push((e.src, e.dst, e.created_at));
        } else {
            store.insert_batch(scratch);
            scratch.clear();
            store.remove(e.src, e.dst);
        }
    }
    store.insert_batch(scratch);
    scratch.clear();
}

/// The concurrency seam: a shared reference to a sharded store is itself a
/// store. N worker threads each materialize a `&mut &ShardedTemporalStore`
/// and run the same engine code a single-owner store runs exclusively.
impl<K: VertexKey> EdgeStore<K> for &ShardedTemporalStore<K> {
    #[inline]
    fn insert(&mut self, src: K, dst: K, at: Timestamp) {
        ShardedTemporalStore::insert(self, src, dst, at);
    }

    #[inline]
    fn insert_batch(&mut self, edges: &[(K, K, Timestamp)]) {
        ShardedTemporalStore::insert_batch(self, edges);
    }

    #[inline]
    fn remove(&mut self, src: K, dst: K) {
        ShardedTemporalStore::remove(self, src, dst);
    }

    #[inline]
    fn witnesses_into(&mut self, dst: K, now: Timestamp, out: &mut Vec<(K, Timestamp)>) {
        ShardedTemporalStore::witnesses_into(self, dst, now, out);
    }

    #[inline]
    fn advance(&mut self, now: Timestamp) {
        ShardedTemporalStore::advance(self, now);
    }

    #[inline]
    fn window(&self) -> Duration {
        ShardedTemporalStore::window(self)
    }

    #[inline]
    fn resident_entries(&self) -> u64 {
        ShardedTemporalStore::resident_entries(self)
    }

    #[inline]
    fn resident_targets(&self) -> usize {
        ShardedTemporalStore::resident_targets(self)
    }

    #[inline]
    fn stats(&self) -> StoreStats {
        ShardedTemporalStore::stats(self)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        ShardedTemporalStore::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PruneStrategy;
    use magicrecs_types::UserId;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Generic driver: the code under test does not know which store it is
    /// running against.
    fn drive<S: EdgeStore<UserId>>(store: &mut S) -> Vec<(UserId, Timestamp)> {
        store.insert(u(1), u(100), ts(10));
        store.insert(u(2), u(100), ts(20));
        store.insert(u(3), u(200), ts(20));
        store.remove(u(3), u(200));
        let mut out = Vec::new();
        store.witnesses_into(u(100), ts(30), &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn plain_store_through_trait() {
        let mut s = TemporalEdgeStore::with_window(Duration::from_secs(60));
        assert_eq!(drive(&mut s), vec![(u(1), ts(10)), (u(2), ts(20))]);
        assert_eq!(EdgeStore::<UserId>::resident_entries(&s), 2);
        assert_eq!(EdgeStore::<UserId>::stats(&s).inserted, 3);
        assert!(EdgeStore::<UserId>::memory_bytes(&s) > 0);
        assert_eq!(EdgeStore::<UserId>::window(&s), Duration::from_secs(60));
    }

    #[test]
    fn sharded_store_through_trait() {
        let mut s: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(60), PruneStrategy::Wheel, 4);
        assert_eq!(drive(&mut s), vec![(u(1), ts(10)), (u(2), ts(20))]);
        assert_eq!(EdgeStore::<UserId>::resident_entries(&s), 2);
    }

    #[test]
    fn shared_reference_is_a_store() {
        let s: ShardedTemporalStore = ShardedTemporalStore::with_window(Duration::from_secs(60));
        // Two independent `&mut &Sharded` handles drive one store.
        let mut h1 = &s;
        let h2 = &s;
        h1.insert(u(1), u(100), ts(10));
        h2.insert(u(4), u(100), ts(20));
        // Sources 1,2 from `drive` plus 4 from the second handle.
        assert_eq!(drive(&mut h1).len(), 3);
    }

    #[test]
    fn insert_batch_matches_single_inserts() {
        // Per-target list state and witness answers must be identical
        // whether a batch goes through `insert_batch` or N inserts —
        // for the default (loop) impl and the sharded lock-batched one.
        let edges: Vec<(UserId, UserId, Timestamp)> = (0..200u64)
            .map(|i| (u(i % 17), u(1000 + i % 23), ts(10 + i % 40)))
            .collect();

        fn drive_both<A: EdgeStore<UserId>, B: EdgeStore<UserId>>(
            single: &mut A,
            batched: &mut B,
            edges: &[(UserId, UserId, Timestamp)],
        ) {
            for &(src, dst, at) in edges {
                single.insert(src, dst, at);
            }
            batched.insert_batch(edges);
            assert_eq!(single.resident_entries(), batched.resident_entries());
            assert_eq!(single.stats().inserted, batched.stats().inserted);
            for t in 1000..1023u64 {
                let mut a = Vec::new();
                let mut b = Vec::new();
                single.witnesses_into(u(t), ts(60), &mut a);
                batched.witnesses_into(u(t), ts(60), &mut b);
                assert_eq!(a, b, "target {t}");
            }
        }

        let mut plain_single = TemporalEdgeStore::with_window(Duration::from_secs(600));
        let mut plain_batched = TemporalEdgeStore::with_window(Duration::from_secs(600));
        drive_both(&mut plain_single, &mut plain_batched, &edges);

        let mut sharded_single: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(600), PruneStrategy::Wheel, 8);
        let mut sharded_batched: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(600), PruneStrategy::Wheel, 8);
        drive_both(&mut sharded_single, &mut sharded_batched, &edges);

        // The concurrency seam batches too.
        let sharded_ref: ShardedTemporalStore =
            ShardedTemporalStore::new(Duration::from_secs(600), PruneStrategy::Wheel, 8);
        let mut handle = &sharded_ref;
        EdgeStore::insert_batch(&mut handle, &edges);
        assert_eq!(
            sharded_ref.resident_entries(),
            sharded_batched.resident_entries()
        );
    }

    #[test]
    fn trait_advance_reclaims() {
        let mut s = TemporalEdgeStore::with_window(Duration::from_secs(10));
        EdgeStore::insert(&mut s, u(1), u(5), ts(1));
        EdgeStore::advance(&mut s, ts(1_000));
        assert_eq!(EdgeStore::<UserId>::resident_targets(&s), 0);
    }
}
