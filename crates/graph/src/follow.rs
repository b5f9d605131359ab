//! The bidirectional static follow graph.
//!
//! [`FollowGraph`] holds both directions of the offline-computed `A → B`
//! edges, interned into dense-id space (see [`crate::UserInterner`]):
//!
//! * **forward** — `A → [B]`: the accounts each user follows ("followings").
//!   Used by baselines, the workload generator, and the influencer cap.
//! * **inverse** — `B → [A]`: each account's followers **restricted to the
//!   hosted `A` set**. This is the paper's structure `S`: "store the inverse
//!   as an adjacency list … given a particular B, we can query S to look up
//!   all A's that follow it."
//!
//! The hot path works exclusively in dense space ([`FollowGraph::followers_dense`],
//! [`FollowGraph::follows_dense`]): an `S[B]` lookup is two array reads and
//! intersections compare `u32`s. Id-level accessors remain for offline
//! consumers (io, partitioning, baselines, tests); they translate at the
//! boundary and allocate, so keep them off per-event paths.
//!
//! The influencer cap ([`CapStrategy`]) reproduces the paper's pruning:
//! "for users who follow many accounts, we have found it more effective to
//! limit the number of influencers each user can have. This has the
//! additional benefit of limiting the size of the S data structures held in
//! memory."

use crate::csr::CsrGraph;
use crate::intern::UserInterner;
use magicrecs_types::{DenseId, FxHashMap, UserId};

/// How to choose which followings to keep when a user exceeds the
/// influencer cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapStrategy {
    /// Keep everything (no cap).
    None,
    /// Keep the `n` followings with the **most followers** (global
    /// popularity proxy for the paper's "rich features").
    MostPopular(usize),
    /// Keep the `n` followings with the **fewest followers**. Favouring
    /// niche accounts concentrates signal on tight communities; included as
    /// the contrast arm of experiment E9.
    LeastPopular(usize),
    /// Keep the `n` smallest user ids — a cheap deterministic stand-in for
    /// "first n by account age" (Twitter ids are time-ordered).
    Oldest(usize),
}

impl CapStrategy {
    /// The cap value, if any.
    pub fn cap(&self) -> Option<usize> {
        match *self {
            CapStrategy::None => None,
            CapStrategy::MostPopular(n) | CapStrategy::LeastPopular(n) | CapStrategy::Oldest(n) => {
                Some(n)
            }
        }
    }
}

/// The static bidirectional follow graph (structure `S` plus its forward
/// view), interned to dense ids.
#[derive(Debug, Clone, Default)]
pub struct FollowGraph {
    interner: UserInterner,
    forward: CsrGraph,
    inverse: CsrGraph,
}

impl FollowGraph {
    /// Builds from forward rows (each row sorted + deduplicated, rows in
    /// ascending source order), applying the influencer cap before
    /// interning and inverting.
    pub(crate) fn from_forward_rows(
        mut forward_rows: Vec<(UserId, Vec<UserId>)>,
        cap: CapStrategy,
    ) -> Self {
        if let Some(n) = cap.cap() {
            // Popularity = follower count over the *uncapped* graph.
            let mut popularity: FxHashMap<UserId, u32> = FxHashMap::default();
            if matches!(
                cap,
                CapStrategy::MostPopular(_) | CapStrategy::LeastPopular(_)
            ) {
                for (_, targets) in &forward_rows {
                    for &b in targets {
                        *popularity.entry(b).or_insert(0) += 1;
                    }
                }
            }
            for (_, targets) in forward_rows.iter_mut() {
                if targets.len() <= n {
                    continue;
                }
                match cap {
                    CapStrategy::None => unreachable!(),
                    CapStrategy::Oldest(_) => {
                        targets.truncate(n); // rows are sorted by id
                    }
                    CapStrategy::MostPopular(_) => {
                        targets
                            .sort_unstable_by_key(|b| (std::cmp::Reverse(popularity[b]), b.raw()));
                        targets.truncate(n);
                        targets.sort_unstable();
                    }
                    CapStrategy::LeastPopular(_) => {
                        targets.sort_unstable_by_key(|b| (popularity[b], b.raw()));
                        targets.truncate(n);
                        targets.sort_unstable();
                    }
                }
            }
        }

        // Intern every vertex the (capped) graph references. Sources come
        // sorted from the builder; merging in the targets and resorting
        // yields the ascending id list the order-preserving interner needs.
        let mut vertices: Vec<UserId> = Vec::new();
        for (a, bs) in &forward_rows {
            vertices.push(*a);
            vertices.extend_from_slice(bs);
        }
        let interner = UserInterner::from_users(vertices);

        // Forward edges in dense space. Rows arrive in ascending source
        // order with ascending targets, and interning preserves order, so
        // the edge list is already `(src, dst)`-sorted.
        let mut fwd_edges: Vec<(DenseId, DenseId)> = Vec::new();
        for (a, bs) in &forward_rows {
            let da = interner.dense(*a).expect("source was interned");
            for b in bs {
                let db = interner.dense(*b).expect("target was interned");
                fwd_edges.push((da, db));
            }
        }
        debug_assert!(fwd_edges.windows(2).all(|w| w[0] < w[1]));

        // Invert: (A, B) → (B, A), then sort to group by B with A's
        // ascending (dense order == raw order).
        let mut inv_edges: Vec<(DenseId, DenseId)> =
            fwd_edges.iter().map(|&(a, b)| (b, a)).collect();
        inv_edges.sort_unstable();

        let n = interner.len();
        FollowGraph {
            forward: CsrGraph::from_sorted_edges(n, &fwd_edges),
            inverse: CsrGraph::from_sorted_edges(n, &inv_edges),
            interner,
        }
    }

    /// Assembles a graph from parts whose invariants the caller has
    /// already established (the delta-application path: interner
    /// ascending, both CSRs over the interner's vertex space with sorted
    /// rows, inverse the exact transpose of forward).
    pub(crate) fn from_parts(interner: UserInterner, forward: CsrGraph, inverse: CsrGraph) -> Self {
        debug_assert_eq!(forward.num_vertices(), interner.len());
        debug_assert_eq!(inverse.num_vertices(), interner.len());
        FollowGraph {
            interner,
            forward,
            inverse,
        }
    }

    // ---- dense hot path ---------------------------------------------------

    /// The interner mapping sparse ids to this graph's dense vertex space.
    #[inline]
    pub fn interner(&self) -> &UserInterner {
        &self.interner
    }

    /// Dense id of `user`, if it appears anywhere in the static graph.
    #[inline]
    pub fn dense_of(&self, user: UserId) -> Option<DenseId> {
        self.interner.dense(user)
    }

    /// Raw id of dense vertex `d`.
    #[inline]
    pub fn user_of(&self, d: DenseId) -> UserId {
        self.interner.user(d)
    }

    /// The followers of dense vertex `b` as a sorted dense slice — the
    /// paper's `S` lookup, now two array reads. Ascending dense order
    /// equals ascending raw-id order (order-preserving interning).
    #[inline]
    pub fn followers_dense(&self, b: DenseId) -> &[DenseId] {
        self.inverse.neighbors(b)
    }

    /// Whether dense vertex `a` follows dense vertex `b`.
    #[inline]
    pub fn follows_dense(&self, a: DenseId, b: DenseId) -> bool {
        self.forward.contains_edge(a, b)
    }

    // ---- id-level view (offline / boundary use) ---------------------------

    /// The accounts `a` follows (sorted ascending). Allocates; offline use.
    pub fn followings(&self, a: UserId) -> Vec<UserId> {
        self.to_users(self.dense_of(a).map_or(&[], |d| self.forward.neighbors(d)))
    }

    /// The followers of `b` (sorted ascending). Allocates; offline use —
    /// the detector uses [`FollowGraph::followers_dense`].
    pub fn followers(&self, b: UserId) -> Vec<UserId> {
        self.to_users(self.dense_of(b).map_or(&[], |d| self.inverse.neighbors(d)))
    }

    /// Whether `a` follows `b`.
    #[inline]
    pub fn follows(&self, a: UserId, b: UserId) -> bool {
        match (self.dense_of(a), self.dense_of(b)) {
            (Some(da), Some(db)) => self.forward.contains_edge(da, db),
            _ => false,
        }
    }

    fn to_users(&self, dense: &[DenseId]) -> Vec<UserId> {
        dense.iter().map(|&d| self.interner.user(d)).collect()
    }

    /// Number of distinct follow edges.
    #[inline]
    pub fn num_follow_edges(&self) -> usize {
        self.forward.num_edges()
    }

    /// Number of interned vertices (dense vertex-space size).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.interner.len()
    }

    /// Out-degree (following count) of `a`.
    #[inline]
    pub fn following_count(&self, a: UserId) -> usize {
        self.dense_of(a).map_or(0, |d| self.forward.degree(d))
    }

    /// In-degree (follower count) of `b`.
    #[inline]
    pub fn follower_count(&self, b: UserId) -> usize {
        self.dense_of(b).map_or(0, |d| self.inverse.degree(d))
    }

    /// Iterates `(A, followings)` rows in ascending id order (allocates
    /// per row; offline use).
    pub fn iter_forward(&self) -> impl Iterator<Item = (UserId, Vec<UserId>)> + '_ {
        self.forward
            .iter()
            .map(|(d, ts)| (self.interner.user(d), self.to_users(ts)))
    }

    /// Iterates `(B, followers)` rows — the `S` structure — in ascending
    /// id order (allocates per row; offline use).
    pub fn iter_inverse(&self) -> impl Iterator<Item = (UserId, Vec<UserId>)> + '_ {
        self.inverse
            .iter()
            .map(|(d, ts)| (self.interner.user(d), self.to_users(ts)))
    }

    /// The forward CSR in dense space (for baselines that need raw access).
    pub fn forward_csr(&self) -> &CsrGraph {
        &self.forward
    }

    /// The inverse CSR in dense space — structure `S` (the detector's hot
    /// path).
    pub fn inverse_csr(&self) -> &CsrGraph {
        &self.inverse
    }

    /// Approximate resident bytes: both CSR directions plus the interner.
    pub fn memory_bytes(&self) -> usize {
        self.forward.memory_bytes() + self.inverse.memory_bytes() + self.interner.memory_bytes()
    }

    /// Approximate resident bytes of what a partition actually serves
    /// from: the inverse index plus the interner (forward is only needed
    /// offline).
    pub fn s_memory_bytes(&self) -> usize {
        self.inverse.memory_bytes() + self.interner.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    /// A1 follows B1,B2; A2 follows B1,B2,B3; A3 follows B2.
    fn sample() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        b.extend([
            (u(1), u(11)),
            (u(1), u(12)),
            (u(2), u(11)),
            (u(2), u(12)),
            (u(2), u(13)),
            (u(3), u(12)),
        ]);
        b
    }

    #[test]
    fn forward_and_inverse_agree() {
        let g = sample().build();
        assert_eq!(g.followings(u(2)), &[u(11), u(12), u(13)]);
        assert_eq!(g.followers(u(11)), &[u(1), u(2)]);
        assert_eq!(g.followers(u(12)), &[u(1), u(2), u(3)]);
        assert_eq!(g.followers(u(13)), &[u(2)]);
        assert!(g.follows(u(1), u(11)));
        assert!(!g.follows(u(3), u(11)));
    }

    #[test]
    fn dense_view_matches_id_view() {
        let g = sample().build();
        for (b, followers) in g.iter_inverse() {
            let db = g.dense_of(b).unwrap();
            let via_dense: Vec<UserId> = g
                .followers_dense(db)
                .iter()
                .map(|&d| g.user_of(d))
                .collect();
            assert_eq!(via_dense, followers, "B={b:?}");
        }
        assert!(g.follows_dense(g.dense_of(u(1)).unwrap(), g.dense_of(u(11)).unwrap()));
    }

    #[test]
    fn dense_ids_are_order_preserving() {
        let g = sample().build();
        let ids = [1u64, 2, 3, 11, 12, 13];
        let dense: Vec<DenseId> = ids
            .iter()
            .map(|&n| g.dense_of(u(n)).expect("interned"))
            .collect();
        assert!(dense.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn unknown_users_resolve_empty() {
        let g = sample().build();
        assert_eq!(g.dense_of(u(99)), None);
        assert_eq!(g.followers(u(99)), Vec::<UserId>::new());
        assert_eq!(g.followings(u(99)), Vec::<UserId>::new());
        assert!(!g.follows(u(99), u(11)));
        assert!(!g.follows(u(1), u(99)));
    }

    #[test]
    fn inverse_edge_count_matches_forward() {
        let g = sample().build();
        let fwd: usize = g.iter_forward().map(|(_, t)| t.len()).sum();
        let inv: usize = g.iter_inverse().map(|(_, t)| t.len()).sum();
        assert_eq!(fwd, inv);
        assert_eq!(fwd, g.num_follow_edges());
    }

    #[test]
    fn degrees() {
        let g = sample().build();
        assert_eq!(g.following_count(u(2)), 3);
        assert_eq!(g.follower_count(u(12)), 3);
        assert_eq!(g.following_count(u(99)), 0);
        assert_eq!(g.follower_count(u(99)), 0);
    }

    #[test]
    fn cap_oldest_keeps_smallest_ids() {
        let g = sample().build_capped_for_test(CapStrategy::Oldest(2));
        assert_eq!(g.followings(u(2)), &[u(11), u(12)]);
        // B3 lost its only follower — and with it, its dense id.
        assert_eq!(g.followers(u(13)), Vec::<UserId>::new());
        assert_eq!(g.dense_of(u(13)), None);
    }

    #[test]
    fn cap_most_popular_keeps_high_follower_accounts() {
        // Popularity: B2 has 3 followers, B1 has 2, B3 has 1.
        let g = sample().build_capped_for_test(CapStrategy::MostPopular(2));
        assert_eq!(g.followings(u(2)), &[u(11), u(12)]); // keeps B1, B2
    }

    #[test]
    fn cap_least_popular_keeps_niche_accounts() {
        let g = sample().build_capped_for_test(CapStrategy::LeastPopular(2));
        assert_eq!(g.followings(u(2)), &[u(11), u(13)]); // keeps B3, B1
    }

    #[test]
    fn cap_none_is_identity() {
        let uncapped = sample().build();
        let explicit = sample().build_capped_for_test(CapStrategy::None);
        assert_eq!(uncapped.num_follow_edges(), explicit.num_follow_edges());
    }

    #[test]
    fn cap_shrinks_s_memory() {
        let mut b = GraphBuilder::new();
        for a in 0..100u64 {
            for bb in 1000..1050u64 {
                b.add_edge(u(a), u(bb));
            }
        }
        let full = b.clone().build();
        let capped = b.build_capped(CapStrategy::Oldest(5));
        assert!(capped.s_memory_bytes() < full.s_memory_bytes());
        assert_eq!(capped.num_follow_edges(), 100 * 5);
    }

    #[test]
    fn followers_always_sorted() {
        let g = sample().build();
        for (_, followers) in g.iter_inverse() {
            assert!(followers.windows(2).all(|w| w[0] < w[1]));
        }
    }

    impl GraphBuilder {
        fn build_capped_for_test(self, cap: CapStrategy) -> FollowGraph {
            self.build_capped(cap)
        }
    }
}
