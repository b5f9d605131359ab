//! Runtime-dispatched x86-64 SIMD kernels over `u32` lanes.
//!
//! The detector's threshold kernel compares dense `u32` ids, a layout
//! chosen partly to unlock vectorization. This module holds the vector
//! inner loop it uses and the dispatch that picks it:
//!
//! * **Detection** happens once per process ([`simd_level`]): AVX2 via
//!   `is_x86_feature_detected!`, SSE2 as the x86-64 baseline, scalar
//!   everywhere else. Setting `MAGICRECS_FORCE_SCALAR=1` (any value but
//!   `"0"`) pins the process to the scalar fallbacks — the CI matrix uses
//!   this to keep the portable code from rotting.
//! * **Lane views** come from [`SimdElem`]: element types that are
//!   layout-identical to `u32` (the dense ids) expose their slices as raw
//!   lanes; everything else (`u64`, [`UserId`]) reports no view and
//!   [`crate::intersect::gallop_to_simd`] falls back to the scalar
//!   generic.
//! * **Kernel**: a galloping frontier advance (`gallop_to_u32`) whose
//!   final bracket is resolved by a vectorized count-below scan
//!   (`count_lt`, SSE2 and AVX2 bodies) instead of the last ~6 rounds of
//!   branchy binary search.
//!
//! The kernel requires the same input contract as its scalar twin
//! [`crate::intersect::gallop_to`]: slices sorted ascending and
//! deduplicated. The differential proptests in `intersect.rs` pin the
//! dispatched path to the scalar twin, and the tests below pin each
//! `count_lt` body to the scalar count.
//!
//! **Adding an arm**: implement the `#[target_feature]` `count_lt` body,
//! extend [`SimdLevel`] and `detect()`, and add its branch to the one
//! `match simd_level()` in `count_lt`.
#![allow(unsafe_code)]

use magicrecs_types::{DenseId, UserId};
use std::sync::OnceLock;

/// Highest instruction-set tier the dispatcher will use in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar fallbacks only (non-x86-64, or forced via
    /// `MAGICRECS_FORCE_SCALAR`).
    Scalar,
    /// 128-bit kernels (x86-64 baseline — always available there).
    Sse2,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

/// The tier selected for this process (cached after first call).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    if std::env::var_os("MAGICRECS_FORCE_SCALAR").is_some_and(|v| v != *"0") {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Element types the sorted-list kernels accept, with an optional view of
/// slices as packed `u32` lanes for the SIMD paths.
///
/// The default implementation reports no lane view, which routes every
/// call through the scalar generics — implementors only override the three
/// methods when the type is layout-identical to `u32` (enforced with
/// `repr(transparent)` on [`DenseId`]). `to_lane`/`from_lane` are only
/// ever invoked on types whose `as_lanes` returns `Some`.
pub trait SimdElem: Copy + Ord {
    /// Reinterpret a slice as its raw `u32` lanes, if layout-identical.
    #[inline]
    fn as_lanes(_slice: &[Self]) -> Option<&[u32]> {
        None
    }

    /// The raw lane of one element. Only called when [`SimdElem::as_lanes`]
    /// returns `Some` for this type.
    #[inline]
    fn to_lane(self) -> u32 {
        unreachable!("to_lane on an element type without a lane view")
    }

    /// Rebuild an element from a lane read out of an accepted slice.
    #[inline]
    fn from_lane(_lane: u32) -> Self {
        unreachable!("from_lane on an element type without a lane view")
    }
}

impl SimdElem for u32 {
    #[inline]
    fn as_lanes(slice: &[Self]) -> Option<&[u32]> {
        Some(slice)
    }
    #[inline]
    fn to_lane(self) -> u32 {
        self
    }
    #[inline]
    fn from_lane(lane: u32) -> Self {
        lane
    }
}

impl SimdElem for DenseId {
    #[inline]
    fn as_lanes(slice: &[Self]) -> Option<&[u32]> {
        // SAFETY: `DenseId` is `repr(transparent)` over `u32` (asserted at
        // its definition precisely for this view), so the slices have
        // identical layout, alignment, and length.
        Some(unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u32, slice.len()) })
    }
    #[inline]
    fn to_lane(self) -> u32 {
        self.0
    }
    #[inline]
    fn from_lane(lane: u32) -> Self {
        DenseId(lane)
    }
}

impl SimdElem for u64 {}
impl SimdElem for UserId {}

/// Bracket size below which a vectorized count-below scan replaces the
/// tail of the binary search in [`gallop_to_u32`]. 64 lanes = 8 AVX2
/// blocks: small enough to stay cache-resident, large enough to absorb
/// the ~6 branch-missing search rounds it replaces.
const SCAN_WINDOW: usize = 64;

/// Number of elements of `window` strictly below `target`.
///
/// On a sorted window this is the lower-bound index; the caller keeps the
/// window small (≤ [`SCAN_WINDOW`] on the hot path) so the linear scan is
/// a handful of vector compares.
#[inline]
fn count_lt(window: &[u32], target: u32) -> usize {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY: AVX2 verified by the dispatcher for this process.
        SimdLevel::Avx2 => unsafe { count_lt_avx2(window, target) },
        // SAFETY: SSE2 is part of the x86-64 baseline.
        SimdLevel::Sse2 => unsafe { count_lt_sse2(window, target) },
        SimdLevel::Scalar => count_lt_scalar(window, target),
    }
    #[cfg(not(target_arch = "x86_64"))]
    count_lt_scalar(window, target)
}

fn count_lt_scalar(window: &[u32], target: u32) -> usize {
    window.iter().filter(|&&v| v < target).count()
}

/// First index `i ≥ from` with `list[i] ≥ target` — the SIMD twin of
/// [`crate::intersect::gallop_to`], sharing its frontier invariant.
///
/// Exponential probing brackets the answer exactly as the scalar version
/// does; the bracket is then narrowed by binary search only down to
/// [`SCAN_WINDOW`] lanes and finished with [`count_lt`], trading the most
/// misprediction-prone search rounds for a few wide compares.
pub(crate) fn gallop_to_u32(list: &[u32], from: usize, target: u32) -> usize {
    if from >= list.len() || list[from] >= target {
        return from;
    }
    // Invariant: list[prev] < target (see the scalar twin).
    let mut prev = from;
    let mut step = 1usize;
    while from + step < list.len() && list[from + step] < target {
        prev = from + step;
        step <<= 1;
    }
    let bound = (from + step).min(list.len());
    let mut lo = prev + 1;
    let mut hi = bound;
    while hi - lo > SCAN_WINDOW {
        let mid = lo + (hi - lo) / 2;
        if list[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + count_lt(&list[lo..hi], target)
}

// ---- x86-64 inner loops ---------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Vector count-below over ≤ a-few-blocks windows. x86 integer
    /// compares are signed, so lanes are biased by `i32::MIN` to preserve
    /// unsigned order.
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline).
    pub(super) unsafe fn count_lt_sse2(window: &[u32], target: u32) -> usize {
        let bias = _mm_set1_epi32(i32::MIN);
        let t = _mm_xor_si128(_mm_set1_epi32(target as i32), bias);
        let mut n = 0usize;
        let mut i = 0usize;
        while i + 4 <= window.len() {
            let v = _mm_xor_si128(
                _mm_loadu_si128(window.as_ptr().add(i) as *const __m128i),
                bias,
            );
            let lt = _mm_cmplt_epi32(v, t);
            n += (_mm_movemask_ps(_mm_castsi128_ps(lt)) as u32).count_ones() as usize;
            i += 4;
        }
        n + count_lt_scalar(&window[i..], target)
    }

    /// 8-lane variant of [`count_lt_sse2`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_lt_avx2(window: &[u32], target: u32) -> usize {
        let bias = _mm256_set1_epi32(i32::MIN);
        let t = _mm256_xor_si256(_mm256_set1_epi32(target as i32), bias);
        let mut n = 0usize;
        let mut i = 0usize;
        while i + 8 <= window.len() {
            let v = _mm256_xor_si256(
                _mm256_loadu_si256(window.as_ptr().add(i) as *const __m256i),
                bias,
            );
            // v < t  ⟺  t > v.
            let lt = _mm256_cmpgt_epi32(t, v);
            n += (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32).count_ones() as usize;
            i += 8;
        }
        n + count_lt_scalar(&window[i..], target)
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{count_lt_avx2, count_lt_sse2};

#[cfg(test)]
mod tests {
    use super::*;

    /// Windows for the count-below bodies: empty, shorter than one block,
    /// lane-boundary remainders around 4 and 8, a full `SCAN_WINDOW`, and
    /// values above `i32::MAX` (the unsigned-order bias).
    fn windows() -> Vec<Vec<u32>> {
        vec![
            vec![],
            vec![5],
            (0..3).collect(),
            (0..4).collect(),
            (0..5).collect(),
            (0..7).collect(),
            (0..8).collect(),
            (0..9).collect(),
            (0..SCAN_WINDOW as u32).map(|v| v * 3).collect(),
            vec![
                0,
                1,
                2,
                i32::MAX as u32,
                1 << 31,
                u32::MAX - 9,
                u32::MAX - 1,
                u32::MAX,
            ],
        ]
    }

    const TARGETS: [u32; 9] = [0, 1, 4, 5, 8, 100, 1 << 31, u32::MAX - 1, u32::MAX];

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn count_lt_sse2_matches_scalar() {
        for w in windows() {
            for t in TARGETS {
                // SAFETY: SSE2 is part of the x86-64 baseline.
                let got = unsafe { x86::count_lt_sse2(&w, t) };
                assert_eq!(got, count_lt_scalar(&w, t), "window={w:?} target={t}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn count_lt_avx2_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for w in windows() {
            for t in TARGETS {
                // SAFETY: AVX2 checked above.
                let got = unsafe { x86::count_lt_avx2(&w, t) };
                assert_eq!(got, count_lt_scalar(&w, t), "window={w:?} target={t}");
            }
        }
    }

    #[test]
    fn gallop_to_u32_matches_partition_point() {
        let lists: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            (0..500).map(|v| v * 7).collect(),
            (0..2_000).collect(),
            (0..300).map(|v| v * v).collect(),
            vec![0, 1, 2, u32::MAX - 2, u32::MAX],
        ];
        for list in &lists {
            for &target in &[0u32, 1, 6, 7, 8, 499, 3_500, 90_000, u32::MAX - 2, u32::MAX] {
                for from in [0usize, 1, list.len() / 2, list.len()] {
                    let from = from.min(list.len());
                    let expect = from
                        + list[from..]
                            .partition_point(|&v| v < target)
                            .min(list.len() - from);
                    assert_eq!(
                        gallop_to_u32(list, from, target),
                        expect,
                        "list_len={} from={from} target={target}",
                        list.len()
                    );
                }
            }
        }
    }

    #[test]
    fn dense_id_lane_view_roundtrips() {
        let ids: Vec<DenseId> = (0..9u32).map(DenseId).collect();
        let lanes = <DenseId as SimdElem>::as_lanes(&ids).expect("dense ids are lanes");
        assert_eq!(lanes, (0..9u32).collect::<Vec<_>>().as_slice());
        assert_eq!(DenseId::from_lane(DenseId(7).to_lane()), DenseId(7));
        // u64-shaped ids expose no lane view.
        assert!(<UserId as SimdElem>::as_lanes(&[UserId(1)]).is_none());
        assert!(<u64 as SimdElem>::as_lanes(&[1u64]).is_none());
    }

    #[test]
    fn level_is_stable_across_calls() {
        assert_eq!(simd_level(), simd_level());
    }
}
