//! The target table: one shard's index from a target `C` to its recent
//! incoming edges, an open-addressing hash table laid out for the sparse
//! firehose, where most targets ever hold a single entry.
//!
//! **Slots.** A power-of-two `Vec` of 24-byte slots. A slot holds the
//! target key, the target's newest timestamp and one more word: the
//! single entry's source while the target holds one entry (the entry
//! lives in the slot, no heap), or the index of its [`TargetList`] in
//! the table's slab once it holds two. A list moves to the slab on its
//! second entry and stays there until the target is removed.
//!
//! **Slab.** Multi-entry lists live in a `Vec<TargetList>` with a free
//! list; a removed target's list is dropped and its index reused.
//!
//! **Tags.** Whether a slot is vacant, holds one entry or names a slab
//! list is kept in a side array of 2-bit tags (32 slots per `u64`), so no
//! key or timestamp value is reserved as a sentinel: both come from the
//! wire.
//!
//! **Probing.** Linear probing from a home slot taken from the *high*
//! bits of the key's [`route_mix`] hash (its multiplicative Fx product).
//! The sharded store picks a shard from the same hash's low bits, so all
//! of one shard's keys share those and they would cluster as an index.
//! Deletion shifts the following run back, so there are no tombstones.
//! The table doubles when an insert would take it past 7/8 full.
//!
//! Byte costs: 24 B per slot plus 1/4 B of tag, at 7/16–7/8 load; a slab
//! list adds 32 B plus its `VecDeque` buffer (16 B per entry of
//! capacity).

use crate::target_list::TargetList;
use magicrecs_types::{route_mix, FxHashMap, Timestamp, UserId};

/// Tag of a slot holding no target.
const VACANT: u64 = 0;
/// Tag of a slot holding its target's single entry inline.
const ONE: u64 = 1;
/// Tag of a slot whose target's entries are a slab list.
const MANY: u64 = 2;

/// Slots a table holds once it holds anything.
const MIN_SLOTS: usize = 16;

/// One target: its key, its newest entry's timestamp and either that
/// entry's source (tag [`ONE`]) or its slab index (tag [`MANY`]).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: UserId,
    /// The source of the single entry, or the slab index.
    word: u64,
    newest: Timestamp,
}

const EMPTY_SLOT: Slot = Slot {
    key: UserId(0),
    word: 0,
    newest: Timestamp(0),
};

/// Open-addressing map from target to its time-ordered entries.
#[derive(Debug, Clone)]
pub(crate) struct TargetTable {
    slots: Vec<Slot>,
    /// 2-bit tags, slot `i` at bits `2(i % 32)..` of word `i / 32`.
    tags: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots.len())`: a hash's top bits are its home slot.
    shift: u32,
    lists: Vec<TargetList>,
    /// Slab indices whose lists were dropped, for reuse.
    free: Vec<usize>,
}

impl TargetTable {
    /// An empty table; it allocates on its first insert.
    pub(crate) fn new() -> Self {
        TargetTable {
            slots: Vec::new(),
            tags: Vec::new(),
            len: 0,
            shift: 64,
            lists: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of targets held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn home(&self, key: UserId) -> usize {
        (route_mix(&key) >> self.shift) as usize
    }

    #[inline]
    fn tag(&self, pos: usize) -> u64 {
        (self.tags[pos / 32] >> (pos % 32 * 2)) & 3
    }

    #[inline]
    fn set_tag(&mut self, pos: usize, tag: u64) {
        let shift = pos % 32 * 2;
        let word = &mut self.tags[pos / 32];
        *word = (*word & !(3 << shift)) | (tag << shift);
    }

    /// `Ok` with `key`'s slot, or `Err` with the vacant slot that ends
    /// its probe run (0 for a table with no slots yet).
    #[inline]
    fn probe(&self, key: UserId) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.mask();
        let mut pos = self.home(key);
        loop {
            if self.tag(pos) == VACANT {
                return Err(pos);
            }
            if self.slots[pos].key == key {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The slot holding `key`, if any.
    #[inline]
    pub(crate) fn find(&self, key: UserId) -> Option<usize> {
        self.probe(key).ok()
    }

    /// Puts `slot` into the vacant slot `pos` found by [`Self::probe`],
    /// growing first if the table would pass 7/8 full.
    fn occupy(&mut self, mut pos: usize, slot: Slot, tag: u64) {
        let slots = self.slots.len();
        if self.len + 1 > slots - slots / 8 {
            self.grow();
            pos = self.probe(slot.key).expect_err("a new key is absent");
        }
        self.slots[pos] = slot;
        self.set_tag(pos, tag);
        self.len += 1;
    }

    /// Doubles the slot count and re-homes every target.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old_slots = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; slots]);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; slots.div_ceil(32)]);
        self.shift = 64 - slots.trailing_zeros();
        let mask = self.mask();
        for (pos, slot) in old_slots.into_iter().enumerate() {
            let tag = (old_tags[pos / 32] >> (pos % 32 * 2)) & 3;
            if tag != VACANT {
                let mut to = self.home(slot.key);
                while self.tag(to) != VACANT {
                    to = (to + 1) & mask;
                }
                self.slots[to] = slot;
                self.set_tag(to, tag);
            }
        }
    }

    /// Empties slot `pos` (dropping its slab list, if any) and shifts the
    /// rest of its probe run back over the hole.
    fn remove_at(&mut self, mut hole: usize) {
        if self.tag(hole) == MANY {
            let list = self.slots[hole].word as usize;
            self.lists[list] = TargetList::new();
            self.free.push(list);
        }
        let mask = self.mask();
        let mut next = (hole + 1) & mask;
        loop {
            let tag = self.tag(next);
            if tag == VACANT {
                break;
            }
            // `next` may move back to `hole` unless its home lies
            // cyclically in `(hole, next]`.
            let home = self.home(self.slots[next].key);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next];
                self.set_tag(hole, tag);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.set_tag(hole, VACANT);
        self.len -= 1;
    }

    /// Puts `list` into the slab, returning its index.
    fn alloc_list(&mut self, list: TargetList) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.lists[i] = list;
                i
            }
            None => {
                self.lists.push(list);
                self.lists.len() - 1
            }
        }
    }

    /// Inserts the edge `src → key` at `at` (stable for ties), then drops
    /// the target's entries older than `cutoff` and its oldest entries
    /// beyond `cap` (≥ 1). `cutoff` must not be after `at`, so the target
    /// keeps at least one entry. Returns the target's newest timestamp
    /// before the insert (`None` for a new target) and how many entries
    /// were dropped.
    pub(crate) fn insert(
        &mut self,
        key: UserId,
        src: UserId,
        at: Timestamp,
        cutoff: Timestamp,
        cap: Option<usize>,
    ) -> (Option<Timestamp>, usize) {
        let pos = match self.probe(key) {
            Ok(pos) => pos,
            Err(vacant) => {
                let slot = Slot {
                    key,
                    word: src.raw(),
                    newest: at,
                };
                self.occupy(vacant, slot, ONE);
                return (None, 0);
            }
        };
        let slot = self.slots[pos];
        let dropped = if self.tag(pos) == ONE {
            let first = (UserId(slot.word), slot.newest);
            let pair = if first.1 <= at {
                [first, (src, at)]
            } else {
                [(src, at), first]
            };
            // The newer of the two is at or after `cutoff` and a cap
            // keeps at least one, so only the older one can go.
            let keep = (2 - usize::from(pair[0].1 < cutoff)).min(cap.unwrap_or(2));
            if keep == 1 {
                self.slots[pos].word = pair[1].0.raw();
            } else {
                let list = self.alloc_list(TargetList::from_pair(pair));
                self.slots[pos].word = list as u64;
                self.set_tag(pos, MANY);
            }
            2 - keep
        } else {
            let list = &mut self.lists[slot.word as usize];
            list.insert(src, at);
            list.trim_before(cutoff) + cap.map_or(0, |c| list.enforce_cap(c))
        };
        // Trims and caps drop the oldest entries and keep the newest.
        self.slots[pos].newest = slot.newest.max(at);
        (Some(slot.newest), dropped)
    }

    /// Removes every entry from `src` in target slot `pos`, removing the
    /// target if none is left. Returns `(removed, target removed)`.
    pub(crate) fn remove_source(&mut self, pos: usize, src: UserId) -> (usize, bool) {
        let slot = self.slots[pos];
        if self.tag(pos) == ONE {
            if UserId(slot.word) != src {
                return (0, false);
            }
            self.remove_at(pos);
            return (1, true);
        }
        let list = &mut self.lists[slot.word as usize];
        let removed = list.remove_source(src);
        match list.newest() {
            Some(newest) => {
                self.slots[pos].newest = newest;
                (removed, false)
            }
            None => {
                self.remove_at(pos);
                (removed, true)
            }
        }
    }

    /// Drops target slot `pos`'s entries older than `cutoff`, removing the
    /// target if none is left. Returns `(dropped, target removed)`.
    pub(crate) fn trim(&mut self, pos: usize, cutoff: Timestamp) -> (usize, bool) {
        let slot = self.slots[pos];
        if slot.newest < cutoff {
            let dropped = self.entry_count(pos);
            self.remove_at(pos);
            return (dropped, true);
        }
        match self.tag(pos) {
            ONE => (0, false),
            _ => (self.lists[slot.word as usize].trim_before(cutoff), false),
        }
    }

    /// [`Self::trim`] on every target. Calls `on_trim(target, dropped,
    /// removed)` for each target that dropped anything.
    pub(crate) fn trim_all(
        &mut self,
        cutoff: Timestamp,
        mut on_trim: impl FnMut(UserId, usize, bool),
    ) {
        // Removal shifts slots, so the emptied targets go in a second pass.
        let mut emptied = Vec::new();
        for pos in 0..self.slots.len() {
            let slot = self.slots[pos];
            match self.tag(pos) {
                VACANT => {}
                _ if slot.newest < cutoff => {
                    on_trim(slot.key, self.entry_count(pos), true);
                    emptied.push(slot.key);
                }
                ONE => {}
                _ => {
                    let dropped = self.lists[slot.word as usize].trim_before(cutoff);
                    if dropped > 0 {
                        on_trim(slot.key, dropped, false);
                    }
                }
            }
        }
        for key in emptied {
            let pos = self.find(key).expect("emptied target is held");
            self.remove_at(pos);
        }
    }

    /// Entries held by target slot `pos`.
    fn entry_count(&self, pos: usize) -> usize {
        match self.tag(pos) {
            ONE => 1,
            _ => self.lists[self.slots[pos].word as usize].len(),
        }
    }

    /// Target slot `pos`'s distinct sources at or after `cutoff`, newest
    /// first, capped (see [`TargetList::newest_sources_into`]).
    pub(crate) fn newest_sources_into(
        &self,
        pos: usize,
        cutoff: Timestamp,
        cap: usize,
        seen: &mut FxHashMap<UserId, ()>,
        out: &mut Vec<(UserId, Timestamp)>,
    ) {
        let slot = self.slots[pos];
        if self.tag(pos) == ONE {
            if slot.newest >= cutoff {
                out.push((UserId(slot.word), slot.newest));
            }
        } else {
            self.lists[slot.word as usize].newest_sources_into(cutoff, cap, seen, out);
        }
    }

    /// Target slot `pos`'s entries in stored time order.
    pub(crate) fn entries(&self, pos: usize) -> impl Iterator<Item = (UserId, Timestamp)> + '_ {
        let slot = self.slots[pos];
        let (one, list) = match self.tag(pos) {
            ONE => (Some((UserId(slot.word), slot.newest)), None),
            _ => (None, Some(&self.lists[slot.word as usize])),
        };
        one.into_iter()
            .chain(list.into_iter().flat_map(TargetList::iter))
    }

    /// Every target with its slot, in slot order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = (UserId, usize)> + '_ {
        (0..self.slots.len())
            .filter(|&pos| self.tag(pos) != VACANT)
            .map(|pos| (self.slots[pos].key, pos))
    }

    /// Targets whose entries live in the slab.
    #[cfg(test)]
    pub(crate) fn slab_targets(&self) -> usize {
        self.lists.len() - self.free.len()
    }

    /// Heap bytes: slots, tags, the slab and its lists' buffers, and the
    /// free list, by capacity.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot>()
            + self.tags.capacity() * size_of::<u64>()
            + self.lists.capacity() * size_of::<TargetList>()
            + self
                .lists
                .iter()
                .map(TargetList::memory_bytes)
                .sum::<usize>()
            + self.free.capacity() * size_of::<usize>()
    }

    /// Mean slots a successful lookup visits (1 for a key in its home
    /// slot).
    #[cfg(test)]
    fn mean_probe_len(&self) -> f64 {
        let mask = self.mask();
        let total: usize = self
            .targets()
            .map(|(key, pos)| (pos.wrapping_sub(self.home(key)) & mask) + 1)
            .sum();
        total as f64 / self.len as f64
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

    fn all(t: &TargetTable) -> Vec<(UserId, Vec<(UserId, Timestamp)>)> {
        let mut v: Vec<_> = t
            .targets()
            .map(|(key, pos)| (key, t.entries(pos).collect()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn second_entry_moves_to_the_slab_keeping_tie_order() {
        let mut t = TargetTable::new();
        assert_eq!(t.insert(u(7), u(1), ts(5), ts(0), None), (None, 0));
        assert_eq!(t.slab_targets(), 0, "one entry stays inline");
        // A tie goes after the inline entry.
        assert_eq!(t.insert(u(7), u(2), ts(5), ts(0), None), (Some(ts(5)), 0));
        assert_eq!(t.slab_targets(), 1);
        assert_eq!(all(&t), vec![(u(7), vec![(u(1), ts(5)), (u(2), ts(5))])]);

        // An older second entry goes in front.
        let mut t = TargetTable::new();
        t.insert(u(7), u(1), ts(5), ts(0), None);
        t.insert(u(7), u(2), ts(4), ts(0), None);
        assert_eq!(all(&t), vec![(u(7), vec![(u(2), ts(4)), (u(1), ts(5))])]);
    }

    #[test]
    fn a_trimmed_or_capped_pair_stays_inline() {
        let mut t = TargetTable::new();
        t.insert(u(7), u(1), ts(5), ts(0), None);
        // The old entry is behind the cutoff: replaced in place.
        assert_eq!(t.insert(u(7), u(2), ts(50), ts(10), None), (Some(ts(5)), 1));
        t.insert(u(8), u(1), ts(5), ts(0), Some(1));
        // A cap of one keeps the newer entry, whichever arrived last.
        assert_eq!(
            t.insert(u(8), u(3), ts(4), ts(0), Some(1)),
            (Some(ts(5)), 1)
        );
        assert_eq!(t.slab_targets(), 0);
        assert_eq!(
            all(&t),
            vec![(u(7), vec![(u(2), ts(50))]), (u(8), vec![(u(1), ts(5))])]
        );
    }

    #[test]
    fn extreme_keys_and_timestamps_are_ordinary_values() {
        let mut t = TargetTable::new();
        let (max_u, max_t) = (UserId(u64::MAX), Timestamp(u64::MAX));
        t.insert(max_u, max_u, max_t, max_t, None);
        t.insert(u(0), u(0), Timestamp(0), Timestamp(0), None);
        assert_eq!(
            all(&t),
            vec![
                (u(0), vec![(u(0), Timestamp(0))]),
                (max_u, vec![(max_u, max_t)])
            ]
        );
        let pos = t.find(max_u).expect("held");
        assert_eq!(t.remove_source(pos, max_u), (1, true));
        assert_eq!(t.find(max_u), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn removal_keeps_every_other_key_reachable() {
        // Enough keys to grow several times and wrap probe runs; remove
        // every third, then look every key up.
        let mut t = TargetTable::new();
        for k in 0..5_000u64 {
            t.insert(u(k * 7), u(k), ts(k), ts(0), None);
        }
        for k in (0..5_000u64).step_by(3) {
            let pos = t.find(u(k * 7)).expect("held");
            assert_eq!(t.remove_source(pos, u(k)), (1, true));
        }
        for k in 0..5_000u64 {
            let held = t
                .find(u(k * 7))
                .map(|pos| t.entries(pos).collect::<Vec<_>>());
            let expect = (k % 3 != 0).then(|| vec![(u(k), ts(k))]);
            assert_eq!(held, expect, "key {k}");
        }
        assert_eq!(t.len(), 5_000 - 5_000usize.div_ceil(3));
    }

    #[test]
    fn removed_slab_lists_are_dropped_and_reused() {
        let mut t = TargetTable::new();
        for k in 0..4 {
            t.insert(u(k), u(1), ts(1), ts(0), None);
            t.insert(u(k), u(2), ts(2), ts(0), None);
        }
        assert_eq!(t.slab_targets(), 4);
        let pos = t.find(u(1)).expect("held");
        assert_eq!(t.trim(pos, ts(3)), (2, true));
        assert_eq!(t.slab_targets(), 3);
        t.insert(u(9), u(1), ts(5), ts(0), None);
        t.insert(u(9), u(2), ts(5), ts(0), None);
        assert_eq!(t.lists.len(), 4, "the freed slab index is reused");
    }

    /// Keys from one shard of a 16-shard store share the low bits of
    /// their hash. Indexed by the high bits, the table still spreads them:
    /// these keys average 2.7 slots per hit at 7/8 load (a random hash
    /// would average 4.5). Indexed by the low bits they average 9.1.
    #[test]
    fn one_shards_keys_do_not_cluster() {
        let mut t = TargetTable::new();
        let keys = (0u64..)
            .map(UserId)
            .filter(|k| route_mix(k) & 15 == 3)
            .take(1 << 17);
        for key in keys {
            let slots = t.slots.len();
            if t.len + 1 > slots - slots / 8 && slots == 1 << 17 {
                break; // the next insert would grow the table
            }
            t.insert(key, key, ts(1), ts(0), None);
        }
        assert_eq!(t.slots.len(), 1 << 17);
        assert_eq!(t.len, (1 << 17) - (1 << 14), "the table is at its max load");
        let mean = t.mean_probe_len();
        assert!(mean <= 8.0, "mean successful probe length {mean:.2}");
    }
}
