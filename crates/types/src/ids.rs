//! Strongly-typed identifiers for graph vertices and cluster partitions.
//!
//! Raw `u64`s are easy to transpose (is this the follower or the followee?);
//! newtypes make the role explicit at every call site while compiling down
//! to the raw integer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A Twitter-style account identifier.
///
/// In the paper's notation a user id plays three roles depending on where it
/// sits in the diamond motif: `A` (the recommendation target), `B` (one of
/// `A`'s followings, a "witness"), or `C` (the account being recommended).
/// The same account is all three for different motifs, so we use a single id
/// type rather than role-specific types.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u64);

impl UserId {
    /// The smallest valid user id. Useful as a range start.
    pub const MIN: UserId = UserId(0);

    /// The largest representable user id. Useful as a range end / sentinel.
    pub const MAX: UserId = UserId(u64::MAX);

    /// Returns the raw `u64`.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for UserId {
    #[inline]
    fn from(v: u64) -> Self {
        UserId(v)
    }
}

impl From<UserId> for u64 {
    #[inline]
    fn from(v: UserId) -> Self {
        v.0
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A dense vertex index assigned by graph-build-time interning.
///
/// Twitter user ids are sparse `u64`s; the static graph `S` interns every
/// vertex it references into a contiguous `0..n` range so adjacency can be
/// held in a true offset-array CSR (`S[B]` becomes two array reads instead
/// of a hash probe) and the hot intersection kernels compare `u32`s (half
/// the memory traffic of raw ids).
///
/// Dense ids belong to `S` and the detection kernel (`magicrecs-graph`,
/// `magicrecs-core`). The dynamic structure `D` stays keyed by sparse
/// [`UserId`]: the event stream references vertices `S` never interned.
///
/// **Ordering guarantee:** the interner assigns dense ids in ascending raw
/// [`UserId`] order, so `dense(a) < dense(b) ⟺ a < b`. Sorted dense
/// adjacency slices therefore correspond element-for-element to sorted
/// raw-id lists, and the detector can work entirely in dense space,
/// converting back only at the candidate-emission boundary.
///
/// `repr(transparent)` is load-bearing: the SIMD intersection kernels in
/// `magicrecs-core` reinterpret `&[DenseId]` as `&[u32]` lanes, which is
/// only sound while this type is layout-identical to its `u32` payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct DenseId(pub u32);

impl DenseId {
    /// Returns the raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, for indexing offset arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for DenseId {
    #[inline]
    fn from(v: u32) -> Self {
        DenseId(v)
    }
}

impl From<DenseId> for u32 {
    #[inline]
    fn from(v: DenseId) -> Self {
        v.0
    }
}

impl fmt::Debug for DenseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for DenseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one partition of the cluster (the paper runs 20).
///
/// Partitions own a disjoint set of `A` vertices; see
/// `magicrecs_cluster::Partitioner`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Returns the raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, for indexing partition vectors.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for PartitionId {
    #[inline]
    fn from(v: u32) -> Self {
        PartitionId(v)
    }
}

impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_id_roundtrip() {
        let u = UserId::from(42u64);
        assert_eq!(u.raw(), 42);
        assert_eq!(u64::from(u), 42);
        assert_eq!(format!("{u}"), "42");
        assert_eq!(format!("{u:?}"), "u42");
    }

    #[test]
    fn user_id_ordering_matches_raw() {
        let mut v = vec![UserId(5), UserId(1), UserId(3)];
        v.sort();
        assert_eq!(v, vec![UserId(1), UserId(3), UserId(5)]);
    }

    #[test]
    fn user_id_bounds() {
        assert!(UserId::MIN < UserId::MAX);
        assert_eq!(UserId::MIN.raw(), 0);
        assert_eq!(UserId::MAX.raw(), u64::MAX);
    }

    #[test]
    fn dense_id_roundtrip_and_order() {
        let d = DenseId::from(9u32);
        assert_eq!(d.raw(), 9);
        assert_eq!(d.index(), 9usize);
        assert_eq!(u32::from(d), 9);
        assert_eq!(format!("{d:?}"), "d9");
        let mut v = vec![DenseId(5), DenseId(1), DenseId(3)];
        v.sort();
        assert_eq!(v, vec![DenseId(1), DenseId(3), DenseId(5)]);
    }

    #[test]
    fn partition_id_roundtrip() {
        let p = PartitionId::from(7u32);
        assert_eq!(p.raw(), 7);
        assert_eq!(p.index(), 7usize);
        assert_eq!(format!("{p:?}"), "p7");
    }
}
