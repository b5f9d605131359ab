//! Dense-ID interning: sparse `u64` user ids → contiguous `u32` indices.
//!
//! Built once at graph-build time over every vertex the static graph
//! references. The forward map is a single Fx-hash probe (paid only at the
//! sparse boundary: event ingestion and candidate emission); the reverse
//! map is an array read. Everything between those boundaries — `S`
//! lookups, intersections, threshold counting — runs on dense `u32`s.
//!
//! **Order preservation.** Dense ids are assigned in ascending raw-id
//! order, so `dense(a) < dense(b) ⟺ a < b`. This is what lets the
//! detector's sorted-list kernels operate on dense slices while the
//! emitted candidates still come out in ascending [`UserId`] order.

use magicrecs_types::{DenseId, FxHashMap, UserId};

/// Bidirectional sparse-id ⇄ dense-id map (immutable after build).
#[derive(Debug, Clone, Default)]
pub struct UserInterner {
    /// Sparse → dense. One Fx probe; only used at the sparse boundary.
    dense: FxHashMap<UserId, DenseId>,
    /// Dense → sparse. `users[d]` is the raw id of dense vertex `d`;
    /// strictly ascending by construction.
    users: Vec<UserId>,
}

impl UserInterner {
    /// Builds from a strictly ascending, deduplicated id list (asserted).
    pub fn from_sorted_users(users: Vec<UserId>) -> Self {
        assert!(
            users.len() <= u32::MAX as usize,
            "UserInterner supports up to 2^32-1 vertices per graph"
        );
        debug_assert!(
            users.windows(2).all(|w| w[0] < w[1]),
            "interner input must be strictly ascending"
        );
        let mut dense = FxHashMap::default();
        dense.reserve(users.len());
        for (i, &u) in users.iter().enumerate() {
            dense.insert(u, DenseId(i as u32));
        }
        UserInterner { dense, users }
    }

    /// Builds from an arbitrary id list (sorts and deduplicates first).
    pub fn from_users(mut users: Vec<UserId>) -> Self {
        users.sort_unstable();
        users.dedup();
        UserInterner::from_sorted_users(users)
    }

    /// The dense id of `user`, if interned.
    #[inline]
    pub fn dense(&self, user: UserId) -> Option<DenseId> {
        self.dense.get(&user).copied()
    }

    /// The raw id of dense vertex `d`.
    ///
    /// # Panics
    /// If `d` is out of range (dense ids are only minted by this interner,
    /// so an out-of-range id is a cross-graph mixup).
    #[inline]
    pub fn user(&self, d: DenseId) -> UserId {
        self.users[d.index()]
    }

    /// Number of interned vertices (== the CSR vertex-space size).
    #[inline]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no vertices are interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Whether `user` is interned.
    #[inline]
    pub fn contains(&self, user: UserId) -> bool {
        self.dense.contains_key(&user)
    }

    /// Builds the interner over this one's users merged with `extra`
    /// (strictly ascending, deduplicated, and disjoint from the current
    /// users — asserted in debug), returning the new interner and the
    /// remap from **old** dense ids to **new** dense ids.
    ///
    /// A `None` remap means old dense ids are unchanged (no extra users,
    /// or every extra id sorts past the current maximum — the common case
    /// for Twitter-style time-ordered ids, where new accounts have higher
    /// ids than everything already interned). In that case the forward map
    /// is cloned and only the appended users pay a hash insert. When extra
    /// ids land mid-range, dense ids shift (order preservation is
    /// load-bearing: the detector emits candidates in dense order and
    /// relies on it equalling raw-id order) and the map is rebuilt; the
    /// returned remap (`remap[old.index()] == new`) is strictly monotone
    /// so callers can remap sorted structures with a linear pass.
    pub fn merged_with(&self, extra: &[UserId]) -> (UserInterner, Option<Vec<DenseId>>) {
        debug_assert!(extra.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(extra.iter().all(|&u| !self.contains(u)));
        assert!(
            self.users.len() + extra.len() <= u32::MAX as usize,
            "UserInterner supports up to 2^32-1 vertices per graph"
        );
        if extra.is_empty() {
            return (self.clone(), None);
        }
        if self.users.last().is_none_or(|&max| max < extra[0]) {
            // Append-only: old ids stay put, extend both directions.
            let mut dense = self.dense.clone();
            let mut users = self.users.clone();
            dense.reserve(extra.len());
            for &u in extra {
                dense.insert(u, DenseId(users.len() as u32));
                users.push(u);
            }
            return (UserInterner { dense, users }, None);
        }
        // Mid-range insertions: merge the two ascending runs, tracking
        // where each old id lands.
        let mut users = Vec::with_capacity(self.users.len() + extra.len());
        let mut remap = Vec::with_capacity(self.users.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.users.len() || j < extra.len() {
            let take_old = j >= extra.len() || (i < self.users.len() && self.users[i] < extra[j]);
            if take_old {
                remap.push(DenseId(users.len() as u32));
                users.push(self.users[i]);
                i += 1;
            } else {
                users.push(extra[j]);
                j += 1;
            }
        }
        (UserInterner::from_sorted_users(users), Some(remap))
    }

    /// Iterates `(dense, raw)` pairs in ascending order of both.
    pub fn iter(&self) -> impl Iterator<Item = (DenseId, UserId)> + '_ {
        self.users
            .iter()
            .enumerate()
            .map(|(i, &u)| (DenseId(i as u32), u))
    }

    /// Approximate resident bytes (hash map costed at the hashbrown
    /// layout, ~8/7 load factor, plus the reverse array).
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(UserId, DenseId)>() + 1;
        let map_bytes = (self.dense.len() as f64 * entry as f64 * 8.0 / 7.0) as usize;
        map_bytes + self.users.len() * std::mem::size_of::<UserId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn roundtrip_both_directions() {
        let i = UserInterner::from_users(vec![u(50), u(3), u(1_000_000), u(3)]);
        assert_eq!(i.len(), 3);
        for (d, raw) in i.iter() {
            assert_eq!(i.dense(raw), Some(d));
            assert_eq!(i.user(d), raw);
        }
        assert_eq!(i.dense(u(4)), None);
    }

    #[test]
    fn order_preserving() {
        let i = UserInterner::from_users(vec![u(9), u(2), u(500), u(40)]);
        let ds: Vec<DenseId> = [2u64, 9, 40, 500]
            .iter()
            .map(|&n| i.dense(u(n)).unwrap())
            .collect();
        assert_eq!(ds, vec![DenseId(0), DenseId(1), DenseId(2), DenseId(3)]);
    }

    #[test]
    fn empty_interner() {
        let i = UserInterner::default();
        assert!(i.is_empty());
        assert_eq!(i.dense(u(1)), None);
    }

    #[test]
    fn memory_accounting_scales() {
        let small = UserInterner::from_users((0..10).map(u).collect());
        let big = UserInterner::from_users((0..10_000).map(u).collect());
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    #[cfg(debug_assertions)]
    fn unsorted_input_rejected_in_debug() {
        let _ = UserInterner::from_sorted_users(vec![u(5), u(2)]);
    }

    #[test]
    fn merged_with_empty_is_identity() {
        let i = UserInterner::from_users(vec![u(3), u(9)]);
        let (m, remap) = i.merged_with(&[]);
        assert!(remap.is_none());
        assert_eq!(m.len(), 2);
        assert_eq!(m.dense(u(3)), i.dense(u(3)));
    }

    #[test]
    fn merged_with_appended_ids_keeps_old_dense_ids() {
        let i = UserInterner::from_users(vec![u(3), u(9)]);
        let (m, remap) = i.merged_with(&[u(10), u(20)]);
        assert!(remap.is_none(), "append-only must not shift old ids");
        assert_eq!(m.dense(u(3)), Some(DenseId(0)));
        assert_eq!(m.dense(u(9)), Some(DenseId(1)));
        assert_eq!(m.dense(u(10)), Some(DenseId(2)));
        assert_eq!(m.dense(u(20)), Some(DenseId(3)));
    }

    #[test]
    fn merged_with_mid_range_ids_produces_monotone_remap() {
        let i = UserInterner::from_users(vec![u(3), u(9), u(30)]);
        let (m, remap) = i.merged_with(&[u(1), u(10)]);
        let remap = remap.expect("mid-range insertions shift dense ids");
        // New order: 1, 3, 9, 10, 30.
        assert_eq!(remap, vec![DenseId(1), DenseId(2), DenseId(4)]);
        assert!(remap.windows(2).all(|w| w[0] < w[1]));
        for (old_d, raw) in i.iter() {
            assert_eq!(m.dense(raw), Some(remap[old_d.index()]));
        }
        // Order preservation survives the merge.
        let ds: Vec<DenseId> = [1u64, 3, 9, 10, 30]
            .iter()
            .map(|&n| m.dense(u(n)).unwrap())
            .collect();
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
    }
}
