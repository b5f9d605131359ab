//! The per-target (`C`) list of recent incoming dynamic edges.
//!
//! Holds `(B, created_at)` pairs ordered by `created_at`. Message queues can
//! deliver slightly out of order, so insertion walks back from the tail to
//! its sorted position — O(1) for in-order arrivals, O(displacement)
//! otherwise. Window trimming is then a front-drain.
//!
//! Duplicate sources are allowed in storage (a `B` can retweet the same
//! author twice); [`TargetList::distinct_sources_since`] deduplicates at
//! query time, which is what the motif semantics need ("more than k *of
//! them*" — distinct followings).
//!
//! **Inline layout.** On a sparse firehose most targets ever hold exactly
//! one entry, so a list is `Empty`, `One` (the entry stored inline, no
//! heap) or `Many` (a `VecDeque`). A list moves to `Many` on its second
//! entry and stays there until the store reclaims it. The enum is no
//! larger than the `VecDeque` alone — its capacity niche holds the tag —
//! so the store's map slot does not grow. Every read goes through one
//! `(&[_], &[_])` slice pair, so all variants share one read path and the
//! iteration (checkpoint export) order is the same in each.

use magicrecs_types::{Timestamp, UserId, VertexKey};
use std::collections::VecDeque;

/// Time-ordered recent edges into one target vertex.
///
/// Generic over the vertex key so the detector-facing store can be
/// instantiated over sparse [`UserId`]s (default) or dense interned ids.
#[derive(Debug, Clone)]
pub struct TargetList<K = UserId> {
    /// `(source, created_at)` ordered by `created_at` ascending.
    entries: Entries<K>,
}

/// Storage for a [`TargetList`]: inline while it holds at most one entry.
#[derive(Debug, Clone)]
enum Entries<K> {
    Empty,
    One([(K, Timestamp); 1]),
    Many(VecDeque<(K, Timestamp)>),
}

/// A list's entries in time order, as two consecutive slices.
type Slices<'a, K> = (&'a [(K, Timestamp)], &'a [(K, Timestamp)]);

impl<K> Default for TargetList<K> {
    fn default() -> Self {
        TargetList {
            entries: Entries::Empty,
        }
    }
}

impl<K: VertexKey> TargetList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        TargetList::default()
    }

    /// The entries in time order.
    #[inline]
    fn as_slices(&self) -> Slices<'_, K> {
        match &self.entries {
            Entries::Empty => (&[], &[]),
            Entries::One(one) => (one, &[]),
            Entries::Many(many) => many.as_slices(),
        }
    }

    /// The entries from index `start` on.
    #[inline]
    fn slices_from(&self, start: usize) -> Slices<'_, K> {
        let (a, b) = self.as_slices();
        match a.get(start..) {
            Some(a) => (a, b),
            None => (&[], &b[start - a.len()..]),
        }
    }

    /// Inserts an edge, keeping timestamp order (stable for ties).
    pub fn insert(&mut self, src: K, at: Timestamp) {
        let entry = (src, at);
        match &mut self.entries {
            Entries::Empty => self.entries = Entries::One([entry]),
            Entries::One([first]) => {
                let first = *first;
                let pair = if first.1 <= at {
                    [first, entry]
                } else {
                    [entry, first]
                };
                self.entries = Entries::Many(VecDeque::from(pair));
            }
            Entries::Many(many) => {
                // Fast path: in-order arrival.
                if many.back().is_none_or(|&(_, t)| t <= at) {
                    many.push_back(entry);
                    return;
                }
                // Out-of-order: walk back to the insertion point.
                let mut idx = many.len();
                while idx > 0 && many[idx - 1].1 > at {
                    idx -= 1;
                }
                many.insert(idx, entry);
            }
        }
    }

    /// Removes all entries from `src` (unfollow semantics). Returns how many
    /// entries were removed.
    pub fn remove_source(&mut self, src: K) -> usize {
        let before = self.len();
        match &mut self.entries {
            Entries::One([(s, _)]) if *s == src => self.entries = Entries::Empty,
            Entries::Many(many) => many.retain(|&(s, _)| s != src),
            _ => {}
        }
        before - self.len()
    }

    /// Drops the `n` oldest entries (`n ≤ len`). Returns `n`.
    fn drop_front(&mut self, n: usize) -> usize {
        if n > 0 {
            match &mut self.entries {
                Entries::Many(many) => {
                    many.drain(..n);
                }
                // `n ≤ len ≤ 1`: the whole list goes.
                _ => self.entries = Entries::Empty,
            }
        }
        n
    }

    /// Drops entries strictly older than `cutoff`. Returns how many were
    /// dropped.
    pub fn trim_before(&mut self, cutoff: Timestamp) -> usize {
        self.drop_front(self.partition_point(cutoff))
    }

    /// Iterates entries with `created_at ≥ cutoff` in time order
    /// (duplicates included).
    pub fn entries_since(&self, cutoff: Timestamp) -> impl Iterator<Item = (K, Timestamp)> + '_ {
        let (a, b) = self.slices_from(self.partition_point(cutoff));
        a.iter().chain(b).copied()
    }

    /// Index of the first entry with `created_at >= cutoff`.
    fn partition_point(&self, cutoff: Timestamp) -> usize {
        let (a, b) = self.as_slices();
        if let Some(&(_, t)) = a.last() {
            if t >= cutoff {
                return a.partition_point(|&(_, ts)| ts < cutoff);
            }
        }
        a.len() + b.partition_point(|&(_, ts)| ts < cutoff)
    }

    /// Collects the **distinct** sources with an in-window entry, paired
    /// with their most recent timestamp, appended to `out` (unordered).
    ///
    /// `out` is caller-provided so the detector's hot path can reuse one
    /// scratch buffer across events. Small windows dedup with a linear
    /// scan (cache-friendly, no allocation); hot targets switch to a hash
    /// map to stay O(n) — a celebrity's list can hold thousands of
    /// in-window entries and a quadratic scan would dominate event cost.
    pub fn distinct_sources_since(&self, cutoff: Timestamp, out: &mut Vec<(K, Timestamp)>) {
        const LINEAR_DEDUP_MAX: usize = 64;
        let (a, b) = self.slices_from(self.partition_point(cutoff));
        let in_window = a.len() + b.len();
        let base = out.len();
        if in_window <= LINEAR_DEDUP_MAX {
            for &(src, at) in a.iter().chain(b) {
                // Time order means later entries overwrite earlier ones.
                match out[base..].iter_mut().find(|(s, _)| *s == src) {
                    Some(slot) => slot.1 = at,
                    None => out.push((src, at)),
                }
            }
        } else {
            let mut seen: magicrecs_types::FxHashMap<K, usize> =
                magicrecs_types::FxHashMap::default();
            seen.reserve(in_window);
            for &(src, at) in a.iter().chain(b) {
                match seen.entry(src) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        out[*e.get()].1 = at;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(out.len());
                        out.push((src, at));
                    }
                }
            }
        }
    }

    /// Drops the oldest entries until at most `cap` remain. Returns how
    /// many were dropped. This is the paper's memory-pressure relief:
    /// "pruning the D data structure to only retain the most recent
    /// edges."
    pub fn enforce_cap(&mut self, cap: usize) -> usize {
        self.drop_front(self.len().saturating_sub(cap))
    }

    /// Number of stored entries (including expired ones not yet trimmed).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Empty => 0,
            Entries::One(_) => 1,
            Entries::Many(many) => many.len(),
        }
    }

    /// Whether the list holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every stored entry in time order (duplicates and
    /// not-yet-trimmed expired entries included) — the checkpoint
    /// serializer's view: re-inserting these in order reproduces the list
    /// byte for byte.
    pub fn iter(&self) -> impl Iterator<Item = (K, Timestamp)> + '_ {
        let (a, b) = self.as_slices();
        a.iter().chain(b).copied()
    }

    /// Timestamp of the most recent entry.
    pub fn newest(&self) -> Option<Timestamp> {
        let (a, b) = self.as_slices();
        b.last().or(a.last()).map(|&(_, t)| t)
    }

    /// Timestamp of the oldest entry.
    pub fn oldest(&self) -> Option<Timestamp> {
        let (a, b) = self.as_slices();
        a.first().or(b.first()).map(|&(_, t)| t)
    }

    /// Approximate heap bytes held by this list (0 while it is inline).
    pub fn memory_bytes(&self) -> usize {
        match &self.entries {
            Entries::Many(many) => many.capacity() * std::mem::size_of::<(K, Timestamp)>(),
            _ => 0,
        }
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

    fn collect_since(l: &TargetList, cutoff: Timestamp) -> Vec<(UserId, Timestamp)> {
        l.entries_since(cutoff).collect()
    }

    #[test]
    fn in_order_inserts() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1));
        l.insert(u(2), ts(2));
        l.insert(u(3), ts(3));
        assert_eq!(
            collect_since(&l, ts(0)),
            vec![(u(1), ts(1)), (u(2), ts(2)), (u(3), ts(3))]
        );
    }

    #[test]
    fn out_of_order_inserts_are_sorted() {
        let mut l = TargetList::new();
        l.insert(u(3), ts(3));
        l.insert(u(1), ts(1));
        l.insert(u(2), ts(2));
        let got: Vec<_> = collect_since(&l, ts(0)).iter().map(|&(s, _)| s).collect();
        assert_eq!(got, vec![u(1), u(2), u(3)]);
        assert_eq!(l.oldest(), Some(ts(1)));
        assert_eq!(l.newest(), Some(ts(3)));
    }

    #[test]
    fn window_query_binary_searches() {
        let mut l = TargetList::new();
        for s in 1..=10 {
            l.insert(u(s), ts(s));
        }
        let got: Vec<_> = collect_since(&l, ts(7)).iter().map(|&(s, _)| s).collect();
        assert_eq!(got, vec![u(7), u(8), u(9), u(10)]);
    }

    #[test]
    fn trim_before_drops_prefix() {
        let mut l = TargetList::new();
        for s in 1..=5 {
            l.insert(u(s), ts(s));
        }
        assert_eq!(l.trim_before(ts(3)), 2);
        assert_eq!(l.len(), 3);
        assert_eq!(l.oldest(), Some(ts(3)));
        assert_eq!(l.trim_before(ts(3)), 0); // idempotent
    }

    #[test]
    fn remove_source_unfollow() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1));
        l.insert(u(2), ts(2));
        l.insert(u(1), ts(3));
        assert_eq!(l.remove_source(u(1)), 2);
        assert_eq!(l.len(), 1);
        assert_eq!(l.remove_source(u(99)), 0);
    }

    #[test]
    fn distinct_sources_dedup_keeps_latest() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1));
        l.insert(u(2), ts(2));
        l.insert(u(1), ts(5)); // duplicate source, newer
        let mut out = Vec::new();
        l.distinct_sources_since(ts(0), &mut out);
        out.sort_by_key(|&(s, _)| s);
        assert_eq!(out, vec![(u(1), ts(5)), (u(2), ts(2))]);
    }

    #[test]
    fn distinct_sources_appends_after_existing() {
        let mut l = TargetList::new();
        l.insert(u(7), ts(1));
        let mut out = vec![(u(42), ts(0))]; // pre-existing scratch content
        l.distinct_sources_since(ts(0), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (u(42), ts(0)));
    }

    #[test]
    fn window_excludes_older_duplicates() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1)); // out of window
        l.insert(u(2), ts(10));
        let mut out = Vec::new();
        l.distinct_sources_since(ts(5), &mut out);
        assert_eq!(out, vec![(u(2), ts(10))]);
    }

    #[test]
    fn equal_timestamps_preserved() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(5));
        l.insert(u(2), ts(5));
        l.insert(u(3), ts(5));
        assert_eq!(l.len(), 3);
        let got: Vec<_> = collect_since(&l, ts(5)).iter().map(|&(s, _)| s).collect();
        assert_eq!(got, vec![u(1), u(2), u(3)]);
    }

    #[test]
    fn empty_list_queries() {
        let l = TargetList::new();
        assert!(l.is_empty());
        assert_eq!(l.newest(), None);
        assert_eq!(l.oldest(), None);
        assert!(collect_since(&l, ts(0)).is_empty());
    }

    #[test]
    fn inline_layout_fits_the_deque_slot() {
        use magicrecs_types::DenseId;
        let deque = std::mem::size_of::<VecDeque<(UserId, Timestamp)>>();
        assert_eq!(std::mem::size_of::<TargetList<UserId>>(), deque);
        assert_eq!(std::mem::size_of::<TargetList<DenseId>>(), deque);
    }

    #[test]
    fn second_entry_moves_to_heap_keeping_tie_order() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(5));
        assert_eq!(l.memory_bytes(), 0, "one entry stays inline");
        l.insert(u(2), ts(5)); // tie: goes after the inline entry
        assert!(l.memory_bytes() > 0);
        assert_eq!(collect_since(&l, ts(0)), vec![(u(1), ts(5)), (u(2), ts(5))]);

        let mut l = TargetList::new();
        l.insert(u(1), ts(5));
        l.insert(u(2), ts(4)); // older second entry goes in front
        assert_eq!(collect_since(&l, ts(0)), vec![(u(2), ts(4)), (u(1), ts(5))]);
    }
}
