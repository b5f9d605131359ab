//! Frontier search over sorted lists.
//!
//! The paper: "since S is a static data structure, we can easily keep the
//! A's sorted and thus intersections can be implemented efficiently using
//! well-known algorithms." The detector's threshold kernel
//! ([`crate::threshold::threshold_fresh`]) probes a long list — a
//! celebrity's followers — with one exponential (galloping) search per
//! value instead of walking it, so its cost scales with the short side.
//! This module holds that search:
//!
//! * [`gallop_to`] — the portable, generic frontier advance;
//! * [`gallop_to_simd`] — the same contract with the final bracket
//!   resolved by a vector count-below scan. It is a *dispatcher*, not a
//!   second algorithm: when [`crate::simd::SimdElem::as_lanes`] reports
//!   that the element type is layout-identical to `u32` (dense ids are;
//!   raw `u64` ids are not) and [`crate::simd::simd_level`] reports a
//!   vector tier (AVX2 → SSE2 → scalar, `MAGICRECS_FORCE_SCALAR=1`
//!   pinning scalar for the CI matrix), it runs
//!   `simd::gallop_to_u32`; otherwise it falls through to [`gallop_to`],
//!   so the portable code *is* the fallback.
//!
//! Both require sorted, deduplicated input. The differential proptests
//! below pin the dispatcher to its scalar twin.

use crate::simd::{self, SimdElem, SimdLevel};

/// First index `i ≥ from` with `list[i] ≥ target`, by exponential search
/// anchored at the frontier `from`.
///
/// The seed implementation derived its binary-search window as
/// `[lo + step/2 ..= min(lo + step, len - 1)]`, re-examining the probe
/// element already proven smaller than `target` and leaning on an
/// inclusive `len - 1` bound. This version keeps the invariant explicit —
/// `list[prev] < target` at all times — and searches the half-open
/// bracket `(prev, bound)`, which is both one comparison cheaper per probe
/// and immune to the empty-slice underflow. The threshold kernel's scan
/// finds each hit's slot among its values through exactly this function.
#[inline]
pub fn gallop_to<V: Copy + Ord>(list: &[V], from: usize, target: V) -> usize {
    if from >= list.len() || list[from] >= target {
        return from;
    }
    // Invariant: list[prev] < target.
    let mut prev = from;
    let mut step = 1usize;
    while from + step < list.len() && list[from + step] < target {
        prev = from + step;
        step <<= 1;
    }
    let bound = (from + step).min(list.len());
    prev + 1 + list[prev + 1..bound].partition_point(|&v| v < target)
}

/// [`gallop_to`] with the final bracket resolved by a vector count-below
/// scan when lanes and tier allow — the probe primitive the threshold
/// kernel gallops its long lists (and its values) through.
#[inline]
pub fn gallop_to_simd<V: SimdElem>(list: &[V], from: usize, target: V) -> usize {
    // O(1) fast path ahead of any dispatch: many probes find the cursor
    // already at or past the target, and paying even a cached tier check
    // per probe measurably drags the short-gap case.
    if from >= list.len() || list[from] >= target {
        return from;
    }
    if let Some(lanes) = V::as_lanes(list) {
        if simd::simd_level() != SimdLevel::Scalar {
            return simd::gallop_to_u32(lanes, from, target.to_lane());
        }
    }
    gallop_to(list, from, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::{DenseId, UserId};
    use proptest::prelude::*;

    fn ids(v: &[u64]) -> Vec<UserId> {
        v.iter().map(|&n| UserId(n)).collect()
    }

    fn dense(v: &[u32]) -> Vec<DenseId> {
        v.iter().map(|&n| DenseId(n)).collect()
    }

    /// Walks `short` against `long` the way the threshold kernel probes a
    /// long list: one frontier advance per value, never moving back.
    /// Returns the values found, through both [`gallop_to`] and (on dense
    /// ids) [`gallop_to_simd`], after checking the two agree.
    fn gallop_hits(short: &[u64], long: &[u64]) -> Vec<u64> {
        fn walk<V: Copy + Ord>(short: &[V], long: &[V], to: fn(&[V], usize, V) -> usize) -> Vec<V> {
            let (mut out, mut c) = (Vec::new(), 0);
            for &x in short {
                c = to(long, c, x);
                if c == long.len() {
                    break;
                }
                if long[c] == x {
                    out.push(x);
                    c += 1;
                }
            }
            out
        }
        let scalar: Vec<u64> = walk(&ids(short), &ids(long), gallop_to)
            .into_iter()
            .map(|u| u.raw())
            .collect();
        let narrow = |v: &[u64]| dense(&v.iter().map(|&x| x as u32).collect::<Vec<_>>());
        let vector: Vec<u64> = walk(&narrow(short), &narrow(long), gallop_to_simd)
            .into_iter()
            .map(|d| u64::from(d.0))
            .collect();
        assert_eq!(vector, scalar, "gallop_to_simd disagrees with gallop_to");
        scalar
    }

    fn naive_hits(short: &[u64], long: &[u64]) -> Vec<u64> {
        short.iter().copied().filter(|x| long.contains(x)).collect()
    }

    #[test]
    fn gallop_hit_then_long_miss_run_in_one_gap() {
        // A hit at 300, then many misses all falling inside the same gap
        // of the long list, then another hit — the adversarial shape for
        // frontier handling (each miss must neither lose nor overshoot
        // the frontier).
        let long: Vec<u64> = (0..200).map(|i| i * 100).collect();
        let mut short = vec![300u64];
        short.extend(301..340);
        short.push(500);
        assert_eq!(gallop_hits(&short, &long), vec![300, 500]);
    }

    #[test]
    fn gallop_misses_beyond_end() {
        let long: Vec<u64> = (0..64).collect();
        assert_eq!(gallop_hits(&[0, 63, 64, 65, 1000], &long), vec![0, 63]);
    }

    /// The SIMD dispatcher on a non-lane element type (raw u64 ids) must
    /// silently take the scalar fallback.
    #[test]
    fn simd_dispatchers_fall_back_for_u64_ids() {
        let a = ids(&[1, 3, 5, 7, 9, 11, 13, 15, 17]);
        assert_eq!(gallop_to_simd(&a, 0, UserId(8)), 4);
        assert_eq!(gallop_to_simd(&a, 4, UserId(9)), 4);
        assert_eq!(gallop_to_simd(&a, 0, UserId(18)), a.len());
    }

    proptest! {
        /// The SIMD frontier advance agrees with the scalar `gallop_to` on
        /// every (frontier, target) pair, including targets beyond the
        /// list and frontiers at the end.
        #[test]
        fn gallop_to_simd_matches_scalar(
            mut list in proptest::collection::vec(0u32..100_000, 0..400),
            from in 0usize..420,
            target in 0u32..110_000,
        ) {
            list.sort_unstable();
            list.dedup();
            let dl = dense(&list);
            let from = from.min(dl.len());
            prop_assert_eq!(
                gallop_to_simd(&dl, from, DenseId(target)),
                gallop_to(&dl, from, DenseId(target))
            );
        }

        #[test]
        fn gallop_handles_extreme_skew(
            short in proptest::collection::vec(0u64..100_000, 1..5),
            start in 0u64..50_000,
        ) {
            let mut short = short;
            short.sort_unstable();
            short.dedup();
            let long: Vec<u64> = (start..start + 20_000).collect();
            prop_assert_eq!(gallop_hits(&short, &long), naive_hits(&short, &long));
        }

        /// Frontier regression on adversarial skew: hits followed by long
        /// runs of misses landing in the gaps of a strided long list. The
        /// naive filter is the oracle; the frontier must match it
        /// element-for-element.
        #[test]
        fn gallop_matches_naive_on_gap_runs(
            stride in 2u64..200,
            long_len in 10usize..2_000,
            runs in proptest::collection::vec(
                // (hit index into long, miss-run length after the hit)
                (0usize..2_000, 0usize..64),
                0..12,
            ),
        ) {
            let long: Vec<u64> = (0..long_len as u64).map(|i| i * stride).collect();
            let mut short: Vec<u64> = Vec::new();
            for (hit, miss_run) in runs {
                let anchor = (hit % long_len) as u64 * stride;
                short.push(anchor); // exact hit
                // Misses strictly inside the gap after the anchor.
                for m in 1..=miss_run as u64 {
                    short.push(anchor + 1 + (m % stride.max(2).saturating_sub(1)));
                }
            }
            short.sort_unstable();
            short.dedup();
            prop_assert_eq!(gallop_hits(&short, &long), naive_hits(&short, &long));
        }
    }
}
