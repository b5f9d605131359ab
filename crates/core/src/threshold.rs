//! `k`-of-`n` threshold intersection over sorted lists.
//!
//! The motif condition is "more than k of [A's followings] follow an
//! account C within a time period τ". After the `D` lookup produces `n ≥ k`
//! witness `B`s, the detector must find every `A` appearing in **at least
//! k** of the `n` sorted follower lists `S[B₁] … S[Bₙ]`. (For `k = n = 2`
//! this is plain intersection.)
//!
//! The detector runs the delta form of that query, [`threshold_fresh`]:
//! only values that also appear in a *fresh* list (a witness whose edge is
//! the event's own), generated from the fresh lists or from the `n − k + 1`
//! shortest lists, whichever is shorter, merged through a loser tree, and
//! counted against each other list by a bitset scan when the list is short
//! and by galloping when it is long. The long-list probes advance through
//! [`gallop_to_simd`], so on dense-id lists every probe's final bracket is
//! resolved by the vectorized count-below scan (see [`crate::simd`] for
//! the dispatch story; `MAGICRECS_FORCE_SCALAR=1` pins the scalar twin).
//!
//! The kernel is generic over the element type ([`SimdElem`]) so the
//! detector runs it over dense `u32` ids — half the memory traffic of raw
//! `u64` user ids — while tests and offline consumers can still use it
//! over [`magicrecs_types::UserId`]. [`threshold_naive`] is the
//! brute-force reference the property tests recompute against.
//!
//! Both return `(value, count)` pairs sorted by value, counts being the
//! exact number of lists containing the value.

use crate::intersect::{gallop_to, gallop_to_simd};
use crate::simd::SimdElem;

/// A loser (tournament) tree over the generator lists' head values.
///
/// Leaves are generator indices; each internal node stores the *loser* of
/// the match below it and the overall winner (the minimum head across
/// generators) sits at the root. After the winner's list cursor advances,
/// one leaf-to-root replay — O(log g) compares against stored losers —
/// restores the invariant, instead of an O(g) min-scan per value.
/// Exhausted lists hold a `None` key, which compares as +∞; ties break on
/// the lower leaf index so the merge order is deterministic.
#[derive(Debug)]
struct LoserTree<V> {
    /// Loser leaf index per internal node (1-based heap layout; node 0
    /// unused). Length `p2` = leaf count rounded up to a power of two.
    losers: Vec<u32>,
    /// Current head value per leaf; `None` = exhausted (or virtual leaf
    /// padding up to `p2`).
    keys: Vec<Option<V>>,
    /// Per-node winners, needed only while building; kept so a rebuild
    /// reuses the buffer.
    win: Vec<u32>,
    /// Leaf currently winning the whole tournament.
    winner: u32,
    /// Power-of-two leaf capacity.
    p2: usize,
}

impl<V> Default for LoserTree<V> {
    fn default() -> Self {
        LoserTree {
            losers: Vec::new(),
            keys: Vec::new(),
            win: Vec::new(),
            winner: 0,
            p2: 1,
        }
    }
}

impl<V: Copy + Ord> LoserTree<V> {
    /// Rebuilds the tree over new per-leaf keys, reusing its buffers.
    fn rebuild(&mut self, keys: impl IntoIterator<Item = Option<V>>) {
        self.keys.clear();
        self.keys.extend(keys);
        let p2 = self.keys.len().max(1).next_power_of_two();
        self.p2 = p2;
        self.keys.resize(p2, None);
        self.losers.clear();
        self.losers.resize(p2, 0);
        // Bottom-up build: winners per node computed transiently, losers
        // stored. Node n's children are nodes 2n and 2n+1; leaf i is node
        // p2 + i.
        let mut win = std::mem::take(&mut self.win);
        win.clear();
        win.resize(2 * p2, 0);
        for (i, w) in win.iter_mut().enumerate().skip(p2) {
            *w = (i - p2) as u32;
        }
        for n in (1..p2).rev() {
            let (a, b) = (win[2 * n], win[2 * n + 1]);
            let (w, l) = if self.beats(a, b) { (a, b) } else { (b, a) };
            win[n] = w;
            self.losers[n] = l;
        }
        self.winner = win[1];
        self.win = win;
    }

    /// Whether leaf `x` wins against leaf `y` (`None` loses to everything;
    /// ties go to the lower leaf index).
    #[inline]
    fn beats(&self, x: u32, y: u32) -> bool {
        match (self.keys[x as usize], self.keys[y as usize]) {
            (Some(a), Some(b)) => a < b || (a == b && x < y),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => x < y,
        }
    }

    /// The winning leaf's key (`None` once every list is exhausted).
    #[inline]
    fn winner_key(&self) -> Option<V> {
        self.keys[self.winner as usize]
    }

    /// The winning leaf index.
    #[inline]
    fn winner_leaf(&self) -> usize {
        self.winner as usize
    }

    /// Replaces the current winner's key and replays its path to the root.
    fn replace_winner(&mut self, key: Option<V>) {
        let leaf = self.winner;
        self.keys[leaf as usize] = key;
        let mut w = leaf;
        let mut node = (leaf as usize + self.p2) / 2;
        while node >= 1 {
            let l = self.losers[node];
            if self.beats(l, w) {
                self.losers[node] = w;
                w = l;
            }
            node /= 2;
        }
        self.winner = w;
    }
}

/// Marks a generated value's count once it has met a fresh list.
const FRESH_HIT: u32 = 1 << 31;

/// [`threshold_fresh`] scans a probe list whose length is at most this
/// many times the surviving values' count, and gallops through a longer
/// one. Chosen from `hotpath`'s `threshold_fresh_*` crossover sweep: on
/// its celebrity-shaped detect every crossover from 2× to 32× runs in
/// ≈8.5 µs against ≈20 µs galloping every list, while 64× (which scans
/// the 1.3k-id list too) takes ≈10 µs. 16× sits inside that plateau,
/// a factor of two from either edge.
pub const FRESH_SCAN_CROSSOVER: usize = 16;

/// Widest lane span (highest − lowest generated value) the membership
/// bitset covers: 512 KiB of words. Dense ids of any graph this repo
/// builds stay far below it; wider values gallop every list.
const FRESH_SCAN_MAX_SPAN: u32 = 1 << 22;

/// Reusable buffers for [`threshold_fresh`]: a caller that keeps one
/// allocates nothing per call once the buffers have grown to its fan-in.
#[derive(Debug)]
pub struct FreshScratch<V> {
    /// List indices by ascending length.
    order: Vec<usize>,
    /// Generator list indices, in loser-tree leaf order.
    generators: Vec<usize>,
    /// The other lists' indices in probe order (shortest first).
    probes: Vec<usize>,
    /// Per-generator cursor while the tree merges them.
    cursors: Vec<usize>,
    /// Generated values, ascending, and per value its hit count, with
    /// [`FRESH_HIT`] set once a fresh list contained it.
    values: Vec<V>,
    counts: Vec<u32>,
    /// Membership bitset over the values' lanes, offset by the lowest
    /// generated lane. All zero between calls: a call clears exactly the
    /// bits it set.
    bits: Vec<u64>,
    tree: LoserTree<V>,
}

impl<V> Default for FreshScratch<V> {
    fn default() -> Self {
        FreshScratch {
            order: Vec::new(),
            generators: Vec::new(),
            probes: Vec::new(),
            cursors: Vec::new(),
            values: Vec::new(),
            counts: Vec::new(),
            bits: Vec::new(),
            tree: LoserTree::default(),
        }
    }
}

/// Delta threshold: every value in at least `k` of the `n` sorted `lists`
/// **and** in at least one list whose `fresh` flag is set, appended to
/// `out` as `(value, count)` ascending, `count` being the exact number of
/// lists containing it.
///
/// This is the k-of-n query with one witness bound to the new tuple, the
/// delta form GenericJoin uses for a changing relation: a value whose
/// lists are all old was already at `k` before, so only values that meet
/// a fresh list can be new. Two generators each produce every qualifying
/// value:
///
/// * the fresh lists — a qualifying value is in one by definition;
/// * the `n − k + 1` shortest lists (the pivot lists) — a value in `k`
///   lists is in one of them, since only `k − 1` lists are left out.
///
/// The kernel takes whichever holds fewer entries, so a fresh celebrity
/// list is never the generator, and merges the generator lists (through a
/// loser tree when there are several) into one ascending run of values
/// with their counts. It then counts that run against each other list,
/// shortest first, scanning short lists and galloping long ones. A list
/// at most [`FRESH_SCAN_CROSSOVER`] times as long as the surviving values
/// is read once, front to back, each element tested against the values'
/// membership bitset (a hit's slot is a galloping search in the values); a
/// longer list — a celebrity's followers — is probed per value with
/// [`gallop_to_simd`], so it is never walked. Element types without a
/// lane view (and values spanning more than 2²² lanes) gallop every
/// list, through the run when the list is the shorter side. Before a
/// list is probed, values that can no longer reach `k` (only possible
/// for the last `k − 1` lists) or can no longer meet a fresh list are
/// dropped, and their bits cleared, so the longest lists are probed by
/// survivors only. Every value that reaches the output was probed
/// against every list, so its count is exact.
pub fn threshold_fresh<V: SimdElem>(
    lists: &[&[V]],
    fresh: &[bool],
    k: usize,
    scratch: &mut FreshScratch<V>,
    out: &mut Vec<(V, u32)>,
) {
    threshold_fresh_at_crossover(lists, fresh, k, scratch, out, FRESH_SCAN_CROSSOVER);
}

/// [`threshold_fresh`] with the scan/gallop crossover as an argument: the
/// benchmark sweep that picks [`FRESH_SCAN_CROSSOVER`] runs through it.
#[doc(hidden)]
pub fn threshold_fresh_at_crossover<V: SimdElem>(
    lists: &[&[V]],
    fresh: &[bool],
    k: usize,
    scratch: &mut FreshScratch<V>,
    out: &mut Vec<(V, u32)>,
    crossover: usize,
) {
    let n = lists.len();
    debug_assert_eq!(fresh.len(), n, "one fresh flag per list");
    if k == 0 || n < k || !fresh.contains(&true) {
        return;
    }
    let FreshScratch {
        order,
        generators,
        probes,
        cursors,
        values,
        counts,
        bits,
        tree,
    } = scratch;
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by_key(|&i| lists[i].len());
    let pivots = n - k + 1;
    let pivot_len: usize = order[..pivots].iter().map(|&i| lists[i].len()).sum();
    let fresh_len: usize = (0..n).filter(|&i| fresh[i]).map(|i| lists[i].len()).sum();
    generators.clear();
    probes.clear();
    if fresh_len <= pivot_len {
        for &i in order.iter() {
            if fresh[i] {
                generators.push(i);
            } else {
                probes.push(i);
            }
        }
    } else {
        generators.extend_from_slice(&order[..pivots]);
        probes.extend_from_slice(&order[pivots..]);
    }

    // Merge the generators into one ascending run with counts.
    values.clear();
    counts.clear();
    let fresh_bit = |li: usize| if fresh[li] { FRESH_HIT } else { 0 };
    if let [li] = generators[..] {
        values.extend_from_slice(lists[li]);
        counts.resize(values.len(), 1 | fresh_bit(li));
    } else {
        cursors.clear();
        cursors.resize(generators.len(), 0);
        tree.rebuild(generators.iter().map(|&li| lists[li].first().copied()));
        while let Some(v) = tree.winner_key() {
            // Successive winners with an equal key are exactly the
            // generator lists containing `v`; each advances past it.
            let mut c = 0u32;
            while tree.winner_key() == Some(v) {
                let leaf = tree.winner_leaf();
                let li = generators[leaf];
                cursors[leaf] += 1;
                tree.replace_winner(lists[li].get(cursors[leaf]).copied());
                c = (c + 1) | fresh_bit(li);
            }
            values.push(v);
            counts.push(c);
        }
    }

    // Mark the values in the membership bitset when their lanes are
    // narrow enough to index one; otherwise every list gallops.
    let base = match (values.first(), values.last()) {
        (Some(&lo), Some(&hi))
            if V::as_lanes(values).is_some()
                && hi.to_lane() - lo.to_lane() < FRESH_SCAN_MAX_SPAN =>
        {
            let words = ((hi.to_lane() - lo.to_lane()) >> 6) as usize + 1;
            if bits.len() < words {
                bits.resize(words, 0);
            }
            for &v in values.iter() {
                let (w, m) = bit_of(v, lo.to_lane());
                bits[w] |= m;
            }
            Some(lo.to_lane())
        }
        _ => None,
    };

    let mut fresh_left = probes.iter().filter(|&&li| fresh[li]).count();
    let mut fresh_pruned = false;
    for (pos, &li) in probes.iter().enumerate() {
        // Drop values that can no longer qualify: too few lists left to
        // reach `k`, or no fresh list left to meet. A dropped value's bit
        // is cleared with it, so the scan never counts it again.
        let remaining = probes.len() - pos;
        let need_fresh = fresh_left == 0;
        if remaining < k || (need_fresh && !fresh_pruned) {
            fresh_pruned |= need_fresh;
            let need = k.saturating_sub(remaining) as u32;
            let mut w = 0;
            for r in 0..values.len() {
                let c = counts[r];
                if c & !FRESH_HIT >= need && (!need_fresh || c & FRESH_HIT != 0) {
                    values[w] = values[r];
                    counts[w] = c;
                    w += 1;
                } else if let Some(base) = base {
                    let (word, m) = bit_of(values[r], base);
                    bits[word] &= !m;
                }
            }
            values.truncate(w);
            counts.truncate(w);
        }
        if values.is_empty() {
            break;
        }
        let (list, bit) = (lists[li], fresh_bit(li));
        let scan_base = base.filter(|_| list.len() <= crossover.saturating_mul(values.len()));
        if let (Some(base), Some(lanes)) = (scan_base, V::as_lanes(list)) {
            scan_count(lanes, bits, base, values, counts, bit);
        } else if list.len() < values.len() {
            let mut c = 0usize;
            for &x in list {
                c = gallop_to_simd(values, c, x);
                if c == values.len() {
                    break;
                }
                if values[c] == x {
                    counts[c] = (counts[c] + 1) | bit;
                    c += 1;
                }
            }
        } else {
            let mut c = 0usize;
            for (r, &v) in values.iter().enumerate() {
                c = gallop_to_simd(list, c, v);
                if c == list.len() {
                    break;
                }
                if list[c] == v {
                    counts[r] = (counts[r] + 1) | bit;
                    c += 1;
                }
            }
        }
        fresh_left -= usize::from(fresh[li]);
    }
    out.extend(
        values
            .iter()
            .zip(counts.iter())
            .filter(|&(_, &c)| c & FRESH_HIT != 0 && (c & !FRESH_HIT) as usize >= k)
            .map(|(&v, &c)| (v, c & !FRESH_HIT)),
    );
    if let Some(base) = base {
        for &v in values.iter() {
            bits[bit_of(v, base).0] = 0;
        }
    }
}

/// Word index and mask of `v`'s bit in a membership bitset whose bit 0 is
/// lane `base`.
#[inline]
fn bit_of<V: SimdElem>(v: V, base: u32) -> (usize, u64) {
    let off = v.to_lane() - base;
    ((off >> 6) as usize, 1 << (off & 63))
}

/// Counts one probe list against the ascending `values` in a single pass:
/// each element inside the values' range is tested against their
/// membership bitset (`bits`, bit 0 = lane `base`), and a hit's slot is
/// found by exponential then binary search from the previous hit: O(1)
/// when most elements hit, O(log gap) when hits are sparse.
fn scan_count<V: SimdElem>(
    list: &[u32],
    bits: &[u64],
    base: u32,
    values: &[V],
    counts: &mut [u32],
    flag: u32,
) {
    let (lo, hi) = (values[0].to_lane(), values[values.len() - 1].to_lane());
    let mut c = 0;
    for &x in list {
        if x < lo {
            continue;
        }
        if x > hi {
            break;
        }
        let off = x - base;
        if bits[(off >> 6) as usize] & (1 << (off & 63)) != 0 {
            c = gallop_to(values, c, V::from_lane(x));
            debug_assert_eq!(values[c].to_lane(), x, "a set bit is a live value");
            counts[c] = (counts[c] + 1) | flag;
            c += 1;
        }
    }
}

/// Brute-force reference used by tests and property checks.
pub fn threshold_naive<V: Copy + Ord>(lists: &[&[V]], k: usize) -> Vec<(V, u32)> {
    let mut counts: std::collections::BTreeMap<V, u32> = Default::default();
    for list in lists {
        for &v in *list {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| k > 0 && c as usize >= k && lists.len() >= k)
        .collect()
}

/// Recovers which lists contain `value` (indices ascending) — used by the
/// detector to attach per-candidate witness sets after counting.
pub fn lists_containing<V: Copy + Ord>(lists: &[&[V]], value: V) -> Vec<u32> {
    lists
        .iter()
        .enumerate()
        .filter(|(_, l)| l.binary_search(&value).is_ok())
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::{DenseId, UserId};
    use proptest::prelude::*;

    fn ids(v: &[u64]) -> Vec<UserId> {
        v.iter().map(|&n| UserId(n)).collect()
    }

    /// [`threshold_fresh`] with every list fresh: the full k-of-n count.
    fn run_all_fresh(lists: &[Vec<u64>], k: usize) -> Vec<(u64, u32)> {
        let fresh = vec![true; lists.len()];
        run_fresh(lists, &fresh, k, &mut FreshScratch::default())
    }

    #[test]
    fn threshold_fresh_two_of_two_is_intersection() {
        let lists = vec![vec![1, 2, 3, 5], vec![2, 3, 4]];
        assert_eq!(run_all_fresh(&lists, 2), vec![(2, 2), (3, 2)]);
    }

    #[test]
    fn threshold_fresh_two_of_three_majority() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        assert_eq!(run_all_fresh(&lists, 2), vec![(2, 2), (3, 3), (4, 2)]);
    }

    #[test]
    fn threshold_fresh_three_of_three_strict() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        assert_eq!(run_all_fresh(&lists, 3), vec![(3, 3)]);
    }

    #[test]
    fn threshold_fresh_k_larger_than_list_count_is_empty() {
        let lists = vec![vec![1, 2], vec![1, 2]];
        assert_eq!(run_all_fresh(&lists, 3), vec![]);
    }

    #[test]
    fn threshold_fresh_k_zero_is_empty() {
        let lists = vec![vec![1], vec![1]];
        assert_eq!(run_all_fresh(&lists, 0), vec![]);
    }

    #[test]
    fn threshold_fresh_empty_lists_ignored() {
        let lists = vec![vec![], vec![1, 2], vec![2, 3]];
        assert_eq!(run_all_fresh(&lists, 2), vec![(2, 2)]);
    }

    #[test]
    fn threshold_fresh_single_list_k_one() {
        let lists = vec![vec![7, 9]];
        assert_eq!(run_all_fresh(&lists, 1), vec![(7, 1), (9, 1)]);
    }

    #[test]
    fn threshold_fresh_exact_counts_on_duplicated_membership() {
        // Values in all lists, some in exactly k, some in fewer.
        let lists = vec![
            vec![1, 5, 9],
            vec![1, 5, 7, 9],
            vec![1, 3, 9],
            vec![1, 9, 11],
        ];
        assert_eq!(run_all_fresh(&lists, 2), vec![(1, 4), (5, 2), (9, 4)]);
    }

    #[test]
    fn lists_containing_finds_indices() {
        let owned = [ids(&[1, 2, 3]), ids(&[2, 4]), ids(&[3, 4])];
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        assert_eq!(lists_containing(&slices, UserId(2)), vec![0, 1]);
        assert_eq!(lists_containing(&slices, UserId(4)), vec![1, 2]);
        assert_eq!(lists_containing(&slices, UserId(9)), Vec::<u32>::new());
    }

    #[test]
    fn threshold_fresh_output_appended_not_cleared() {
        let owned = [ids(&[1]), ids(&[1])];
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = vec![(UserId(99), 9u32)];
        threshold_fresh(
            &slices,
            &[true, true],
            2,
            &mut FreshScratch::default(),
            &mut out,
        );
        assert_eq!(out, vec![(UserId(99), 9), (UserId(1), 2)]);
    }

    /// High fan-in with every list fresh: the pivot lists generate, so the
    /// loser tree merges up to 65 generator lists through multi-level
    /// replays (a 128-leaf tree).
    #[test]
    fn threshold_fresh_loser_tree_at_high_fan_in() {
        let lists: Vec<Vec<u64>> = (0..66u64)
            .map(|i| vec![i, 100 + (i % 7), 200, 300 + i * 2])
            .collect();
        let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        for k in [1usize, 2, 3, 30, 66] {
            let expect: Vec<(u64, u32)> = threshold_naive(&slices, k)
                .into_iter()
                .map(|(v, c)| (v.raw(), c))
                .collect();
            assert_eq!(run_all_fresh(&lists, k), expect, "k={k}");
        }
    }

    /// `threshold_naive` restricted to values in at least one fresh list.
    fn fresh_naive(lists: &[Vec<u64>], fresh: &[bool], k: usize) -> Vec<(u64, u32)> {
        let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        threshold_naive(&slices, k)
            .into_iter()
            .filter(|&(v, _)| {
                slices
                    .iter()
                    .zip(fresh)
                    .any(|(l, &f)| f && l.binary_search(&v).is_ok())
            })
            .map(|(v, c)| (v.raw(), c))
            .collect()
    }

    fn run_fresh(
        lists: &[Vec<u64>],
        fresh: &[bool],
        k: usize,
        scratch: &mut FreshScratch<UserId>,
    ) -> Vec<(u64, u32)> {
        let owned: Vec<Vec<UserId>> = lists.iter().map(|l| ids(l)).collect();
        let slices: Vec<&[UserId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        threshold_fresh(&slices, fresh, k, scratch, &mut out);
        out.into_iter().map(|(v, c)| (v.raw(), c)).collect()
    }

    /// [`run_fresh`] over dense `u32` ids, the lanes the SIMD gallop
    /// path runs on.
    fn run_fresh_dense(lists: &[Vec<u64>], fresh: &[bool], k: usize) -> Vec<(u64, u32)> {
        let owned: Vec<Vec<DenseId>> = lists
            .iter()
            .map(|l| l.iter().map(|&v| DenseId(v as u32)).collect())
            .collect();
        let slices: Vec<&[DenseId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        threshold_fresh(&slices, fresh, k, &mut FreshScratch::default(), &mut out);
        out.into_iter().map(|(v, c)| (u64::from(v.0), c)).collect()
    }

    #[test]
    fn threshold_fresh_keeps_only_values_meeting_a_fresh_list() {
        // 3 is in all three lists, 2 and 4 in two; only list 2 is fresh.
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]];
        let mut scratch = FreshScratch::default();
        let got = run_fresh(&lists, &[false, false, true], 2, &mut scratch);
        assert_eq!(got, vec![(3, 3), (4, 2)]);
    }

    #[test]
    fn threshold_fresh_without_fresh_list_is_empty() {
        let lists = vec![vec![1, 2], vec![1, 2]];
        let mut scratch = FreshScratch::default();
        assert_eq!(run_fresh(&lists, &[false, false], 2, &mut scratch), vec![]);
        assert_eq!(run_fresh(&[], &[], 1, &mut scratch), vec![]);
        assert_eq!(run_fresh(&lists, &[true, true], 0, &mut scratch), vec![]);
    }

    #[test]
    fn threshold_fresh_all_fresh_equals_full_threshold() {
        let lists = vec![
            vec![1, 5, 9],
            vec![1, 5, 7, 9],
            vec![1, 3, 9],
            vec![1, 9, 11],
        ];
        let mut scratch = FreshScratch::default();
        for k in 1..=4 {
            assert_eq!(
                run_fresh(&lists, &[true; 4], k, &mut scratch),
                fresh_naive(&lists, &[true; 4], k),
                "k={k}"
            );
        }
    }

    #[test]
    fn threshold_fresh_celebrity_fresh_list() {
        // The fresh list dwarfs the rest, so the pivot lists generate and
        // the celebrity list is only probed.
        let celeb: Vec<u64> = (0..100_000).map(|i| i * 2).collect();
        let lists = vec![vec![10, 1_001, 50_001], vec![10, 1_001, 50_001], celeb];
        let mut scratch = FreshScratch::default();
        let fresh = [false, false, true];
        assert_eq!(run_fresh(&lists, &fresh, 2, &mut scratch), vec![(10, 3)]);
        assert_eq!(
            run_fresh(&lists, &fresh, 2, &mut scratch),
            fresh_naive(&lists, &fresh, 2)
        );
    }

    #[test]
    fn threshold_fresh_same_scratch_across_fan_ins() {
        let mut scratch = FreshScratch::default();
        let wide: Vec<Vec<u64>> = (0..40u64).map(|i| vec![i, 100, 200 + i]).collect();
        let mut fresh = vec![false; 40];
        fresh[7] = true;
        assert_eq!(run_fresh(&wide, &fresh, 3, &mut scratch), vec![(100, 40)]);
        let narrow = vec![vec![1, 2], vec![2, 3]];
        assert_eq!(
            run_fresh(&narrow, &[true, false], 2, &mut scratch),
            vec![(2, 2)]
        );
        assert_eq!(run_fresh(&wide, &fresh, 3, &mut scratch), vec![(100, 40)]);
    }

    /// [`threshold_fresh`] over dense ids on a caller-held scratch.
    fn run_fresh_dense_with(
        lists: &[Vec<u32>],
        fresh: &[bool],
        k: usize,
        scratch: &mut FreshScratch<DenseId>,
    ) -> Vec<(u64, u32)> {
        let owned: Vec<Vec<DenseId>> = lists
            .iter()
            .map(|l| l.iter().map(|&v| DenseId(v)).collect())
            .collect();
        let slices: Vec<&[DenseId]> = owned.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        threshold_fresh(&slices, fresh, k, scratch, &mut out);
        out.into_iter().map(|(v, c)| (u64::from(v.0), c)).collect()
    }

    fn widen(lists: &[Vec<u32>]) -> Vec<Vec<u64>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&v| u64::from(v)).collect())
            .collect()
    }

    /// Bits left set by one call must not leak into the next: a call that
    /// prunes some values and ends with survivors, and one that prunes
    /// every value and returns early, are each followed by a call on
    /// disjoint, smaller values whose probe lists cover the old bits.
    #[test]
    fn threshold_fresh_scratch_reuse_after_pruning() {
        let mut scratch = FreshScratch::default();
        let small = vec![vec![10, 20, 30], (10..40).collect(), vec![12, 14, 20, 30]];
        let small_fresh = [true, false, false];
        let expect = fresh_naive(&widen(&small), &small_fresh, 2);
        assert_eq!(expect, vec![(10, 2), (20, 3), (30, 3)]);
        assert_eq!(
            run_fresh_dense_with(&small, &small_fresh, 2, &mut scratch),
            expect
        );

        // The fresh list generates 1000..1064; before the last probe the
        // values from 1032 up are pruned (count 1 of the 2 needed) and the
        // survivors, whose bits sit where the next call's values do,
        // reach k = 3.
        let some_pruned = vec![
            (1000..1064).collect(),
            (936..1032).collect(),
            (900..1032).collect(),
        ];
        let fresh = [true, false, false];
        let got = run_fresh_dense_with(&some_pruned, &fresh, 3, &mut scratch);
        assert_eq!(got, fresh_naive(&widen(&some_pruned), &fresh, 3));
        assert_eq!(got.len(), 32);
        assert_eq!(
            run_fresh_dense_with(&small, &small_fresh, 2, &mut scratch),
            expect
        );

        // No probe list holds a generated value: the pruning before the
        // last probe drops them all and the call returns early.
        let all_pruned = vec![
            (1000..1064).collect(),
            (2000..2100).collect(),
            (2000..2100).collect(),
        ];
        assert_eq!(
            run_fresh_dense_with(&all_pruned, &fresh, 3, &mut scratch),
            vec![]
        );
        assert_eq!(
            run_fresh_dense_with(&small, &small_fresh, 2, &mut scratch),
            expect
        );
    }

    #[test]
    fn gallop_to_frontier_cases() {
        use crate::intersect::gallop_to;
        let list: Vec<u64> = vec![2, 4, 6, 8, 10, 12];
        // Already at/past target.
        assert_eq!(gallop_to(&list, 0, 1), 0);
        assert_eq!(gallop_to(&list, 0, 2), 0);
        // Mid-list, from various frontiers.
        assert_eq!(gallop_to(&list, 0, 7), 3);
        assert_eq!(gallop_to(&list, 2, 7), 3);
        assert_eq!(gallop_to(&list, 3, 8), 3);
        // Past the end.
        assert_eq!(gallop_to(&list, 0, 13), 6);
        assert_eq!(gallop_to(&list, 5, 13), 6);
        // From == len.
        assert_eq!(gallop_to(&list, 6, 1), 6);
    }

    proptest! {
        /// The delta kernel equals the naive k-of-n count filtered to
        /// values in a fresh list, for any fresh subset and either
        /// generator; one scratch serves both calls.
        #[test]
        fn threshold_fresh_matches_naive(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0u64..64, 0..40), prop::bool::ANY),
                0..12,
            ),
            long in proptest::collection::vec(0u64..64, 0..64),
            k in 1usize..6,
        ) {
            let (mut lists, mut fresh): (Vec<Vec<u64>>, Vec<bool>) = raw
                .into_iter()
                .map(|(mut l, f)| {
                    l.sort_unstable();
                    l.dedup();
                    (l, f)
                })
                .unzip();
            let mut scratch = FreshScratch::default();
            let expect = fresh_naive(&lists, &fresh, k);
            prop_assert_eq!(&run_fresh(&lists, &fresh, k, &mut scratch), &expect);
            prop_assert_eq!(&run_fresh_dense(&lists, &fresh, k), &expect);
            // A long fresh list tips the choice toward the pivot lists.
            let mut long = long;
            long.sort_unstable();
            long.dedup();
            lists.push(long);
            fresh.push(true);
            let expect = fresh_naive(&lists, &fresh, k);
            prop_assert_eq!(&run_fresh(&lists, &fresh, k, &mut scratch), &expect);
            prop_assert_eq!(&run_fresh_dense(&lists, &fresh, k), &expect);
        }

        /// The dense kernel equals the naive reference with probe lists
        /// on both sides of the scan/gallop crossover: many short lists,
        /// one or several of them fresh, and one or two old lists longer
        /// than `FRESH_SCAN_CROSSOVER` × the fresh lists' total, which
        /// bounds the generated values. One scratch serves every call.
        #[test]
        fn threshold_fresh_matches_naive_across_crossover(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0u32..400, 0..40), prop::bool::ANY),
                4..24,
            ),
            longs in proptest::collection::vec((1u32..4, 0u32..8), 1..3),
            first_fresh in 0usize..24,
            k in 1usize..6,
        ) {
            let (mut lists, mut fresh): (Vec<Vec<u32>>, Vec<bool>) = raw
                .into_iter()
                .map(|(mut l, f)| {
                    l.sort_unstable();
                    l.dedup();
                    (l, f)
                })
                .unzip();
            fresh[first_fresh % lists.len()] = true;
            let n_short = lists.len();
            let fresh_len: usize = (0..n_short).filter(|&i| fresh[i]).map(|i| lists[i].len()).sum();
            for (stride, offset) in longs {
                let len = (FRESH_SCAN_CROSSOVER * fresh_len) as u32 + 1 + offset;
                lists.push((0..len).map(|i| i * stride + offset).collect());
                fresh.push(false);
            }
            let expect = fresh_naive(&widen(&lists), &fresh, k);
            let mut scratch = FreshScratch::default();
            prop_assert_eq!(&run_fresh_dense_with(&lists, &fresh, k, &mut scratch), &expect);
            prop_assert_eq!(
                &run_fresh(&widen(&lists), &fresh, k, &mut FreshScratch::default()),
                &expect
            );
            // Reuse: the same scratch on the short lists alone.
            let expect = fresh_naive(&widen(&lists[..n_short]), &fresh[..n_short], k);
            prop_assert_eq!(
                &run_fresh_dense_with(&lists[..n_short], &fresh[..n_short], k, &mut scratch),
                &expect
            );
        }
    }
}
