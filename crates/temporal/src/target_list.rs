//! The per-target (`C`) list of recent incoming dynamic edges.
//!
//! Holds `(B, created_at)` pairs ordered by `created_at`. Message queues can
//! deliver slightly out of order, so insertion walks back from the tail to
//! its sorted position — O(1) for in-order arrivals, O(displacement)
//! otherwise. Window trimming is then a front-drain.
//!
//! Duplicate sources are allowed in storage (a `B` can retweet the same
//! author twice); [`TargetList::newest_sources_into`] deduplicates at
//! query time, which is what the motif semantics need ("more than k *of
//! them*" — distinct followings). It walks the list newest-first and
//! stops once it holds the `cap` newest distinct sources (plus ties at
//! the boundary timestamp): the detector only ever uses the newest
//! `max_witnesses`, so a celebrity's 1,024-entry list costs about `cap`
//! steps, not a full dedup. Dedup compares against the few sources kept
//! so far, then probes a set the caller owns and reuses, so no query
//! allocates a map of its own.
//!
//! A list lives in its table's slab (see `crate::table`) once its target
//! holds two entries; a target with one entry keeps it in its table slot
//! and owns no list. Every read goes through the deque's
//! `(&[_], &[_])` slice pair, so the iteration (checkpoint export) order
//! is stored time order.

use magicrecs_types::{FxHashMap, Timestamp, UserId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Kept sources up to which [`TargetList::newest_sources_into`] dedups by
/// comparing against them; past it, by probing its set. Short lists are
/// the common case on a sparse firehose, and for them a few compares cost
/// less than filling and clearing the set.
const LINEAR_DEDUP_KEPT: usize = 32;

/// Time-ordered recent edges into one target vertex.
#[derive(Debug, Clone, Default)]
pub struct TargetList {
    /// `(source, created_at)` ordered by `created_at` ascending.
    entries: VecDeque<(UserId, Timestamp)>,
}

/// A list's entries in time order, as two consecutive slices.
type Slices<'a> = (&'a [(UserId, Timestamp)], &'a [(UserId, Timestamp)]);

impl TargetList {
    /// Creates an empty list.
    pub fn new() -> Self {
        TargetList::default()
    }

    /// A list of two entries already in time order.
    pub(crate) fn from_pair(pair: [(UserId, Timestamp); 2]) -> Self {
        TargetList {
            entries: VecDeque::from(pair),
        }
    }

    /// The entries in time order.
    #[inline]
    fn as_slices(&self) -> Slices<'_> {
        self.entries.as_slices()
    }

    /// The entries from index `start` on.
    #[inline]
    fn slices_from(&self, start: usize) -> Slices<'_> {
        let (a, b) = self.as_slices();
        match a.get(start..) {
            Some(a) => (a, b),
            None => (&[], &b[start - a.len()..]),
        }
    }

    /// Inserts an edge, keeping timestamp order (stable for ties).
    pub fn insert(&mut self, src: UserId, at: Timestamp) {
        let entry = (src, at);
        // Fast path: in-order arrival.
        if self.entries.back().is_none_or(|&(_, t)| t <= at) {
            self.entries.push_back(entry);
            return;
        }
        // Out-of-order: walk back to the insertion point.
        let mut idx = self.entries.len();
        while idx > 0 && self.entries[idx - 1].1 > at {
            idx -= 1;
        }
        self.entries.insert(idx, entry);
    }

    /// Removes all entries from `src` (unfollow semantics). Returns how many
    /// entries were removed.
    pub fn remove_source(&mut self, src: UserId) -> usize {
        let before = self.len();
        self.entries.retain(|&(s, _)| s != src);
        before - self.len()
    }

    /// Drops the `n` oldest entries (`n ≤ len`). Returns `n`.
    fn drop_front(&mut self, n: usize) -> usize {
        self.entries.drain(..n);
        n
    }

    /// Drops entries strictly older than `cutoff`. Returns how many were
    /// dropped.
    pub fn trim_before(&mut self, cutoff: Timestamp) -> usize {
        self.drop_front(self.partition_point(cutoff))
    }

    /// Iterates entries with `created_at ≥ cutoff` in time order
    /// (duplicates included).
    pub fn entries_since(
        &self,
        cutoff: Timestamp,
    ) -> impl Iterator<Item = (UserId, Timestamp)> + '_ {
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

    /// Appends the **distinct** sources with an entry at or after
    /// `cutoff`, each with its newest timestamp, newest first — at most
    /// `cap` of them plus any that tie the `cap`-th one's timestamp.
    ///
    /// The walk goes newest-first, so a source's first sighting is its
    /// newest entry and later sightings are skipped. Once `cap` distinct
    /// sources are kept, the `cap`-th one's timestamp is the boundary:
    /// the walk keeps every further source that ties it and stops at the
    /// first entry strictly older. Every source whose newest timestamp is
    /// above the boundary is kept, and so is every tie, so any
    /// `(Reverse(at), source)` top-`cap` selection over the output equals
    /// the same selection over all distinct sources. `usize::MAX` walks
    /// the whole window.
    ///
    /// Dedup compares against the kept sources while there are at most
    /// 32 of them (most lists hold a few sources), then probes `seen`:
    /// the caller's reusable set (a map to unit, whose entry API probes
    /// once per hit), which must be empty and is left empty, so a query
    /// allocates nothing once the set has grown. Either way the cost
    /// stays linear in the entries walked.
    pub fn newest_sources_into(
        &self,
        cutoff: Timestamp,
        cap: usize,
        seen: &mut FxHashMap<UserId, ()>,
        out: &mut Vec<(UserId, Timestamp)>,
    ) {
        debug_assert!(seen.is_empty());
        let (a, b) = self.slices_from(self.partition_point(cutoff));
        let mut walk = b.iter().rev().chain(a.iter().rev());
        let base = out.len();
        // Every entry is at or above the boundary until the cap-th
        // distinct source fixes it.
        let mut boundary = Timestamp::ZERO;
        while out.len() - base <= LINEAR_DEDUP_KEPT {
            let Some(&(src, at)) = walk.next() else {
                return;
            };
            if at < boundary {
                return;
            }
            if out[base..].iter().all(|&(s, _)| s != src) {
                out.push((src, at));
                if out.len() - base == cap {
                    boundary = at;
                }
            }
        }
        // Room for every source the walk can keep, so the set's load
        // stays low on a hot list.
        seen.reserve((a.len() + b.len()).min(cap));
        seen.extend(out[base..].iter().map(|&(s, _)| (s, ())));
        // Until the cap is reached nothing is below the boundary; after
        // it only the ties are left to keep. Two loops keep either check
        // out of the other's path.
        if out.len() - base < cap {
            for &(src, at) in walk.by_ref() {
                if let Entry::Vacant(slot) = seen.entry(src) {
                    slot.insert(());
                    out.push((src, at));
                    if out.len() - base == cap {
                        boundary = at;
                        break;
                    }
                }
            }
        }
        for &(src, at) in walk {
            if at < boundary {
                break;
            }
            if let Entry::Vacant(slot) = seen.entry(src) {
                slot.insert(());
                out.push((src, at));
            }
        }
        seen.clear();
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
        self.entries.len()
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
    pub fn iter(&self) -> impl Iterator<Item = (UserId, Timestamp)> + '_ {
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

    /// Approximate heap bytes held by this list (its buffer's capacity).
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(UserId, Timestamp)>()
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

    /// Every distinct source from `cutoff` on, through the capped walk
    /// with no cap.
    fn distinct_since(l: &TargetList, cutoff: Timestamp, out: &mut Vec<(UserId, Timestamp)>) {
        l.newest_sources_into(cutoff, usize::MAX, &mut FxHashMap::default(), out);
    }

    #[test]
    fn distinct_sources_dedup_keeps_latest() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1));
        l.insert(u(2), ts(2));
        l.insert(u(1), ts(5)); // duplicate source, newer
        let mut out = Vec::new();
        distinct_since(&l, ts(0), &mut out);
        assert_eq!(out, vec![(u(1), ts(5)), (u(2), ts(2))]);
    }

    #[test]
    fn distinct_sources_appends_after_existing() {
        let mut l = TargetList::new();
        l.insert(u(7), ts(1));
        let mut out = vec![(u(42), ts(0))]; // pre-existing scratch content
        distinct_since(&l, ts(0), &mut out);
        assert_eq!(out, vec![(u(42), ts(0)), (u(7), ts(1))]);
    }

    #[test]
    fn window_excludes_older_duplicates() {
        let mut l = TargetList::new();
        l.insert(u(1), ts(1)); // out of window
        l.insert(u(2), ts(10));
        let mut out = Vec::new();
        distinct_since(&l, ts(5), &mut out);
        assert_eq!(out, vec![(u(2), ts(10))]);
    }

    #[test]
    fn capped_walk_stops_past_the_boundary_ties() {
        let mut l = TargetList::new();
        for (s, t) in [(1, 1), (2, 2), (3, 3), (4, 3), (5, 3), (6, 4), (6, 5)] {
            l.insert(u(s), ts(t));
        }
        let mut seen = FxHashMap::default();
        let mut out = Vec::new();
        // Newest-first, the second distinct source (5, at 3) sets the
        // boundary; 4 and 3 tie it, 2 is older and ends the walk. 6
        // counts once, with its newest timestamp.
        l.newest_sources_into(ts(0), 2, &mut seen, &mut out);
        assert_eq!(
            out,
            vec![(u(6), ts(5)), (u(5), ts(3)), (u(4), ts(3)), (u(3), ts(3))]
        );
        assert!(seen.is_empty(), "the dedup set is left empty");
        out.clear();
        l.newest_sources_into(ts(0), 1, &mut seen, &mut out);
        assert_eq!(out, vec![(u(6), ts(5))]);
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
}
