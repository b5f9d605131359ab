//! Partitioning the static graph by recommendation target (`A`).
//!
//! The paper: "To distribute this design over multiple machines, we
//! partition by the A's. This means each partition holds a disjoint set of
//! source vertices for the S data structure; thus, the same B's may reside
//! in multiple partitions. Such a design guarantees that all adjacency list
//! intersections are local to each partition."
//!
//! [`partition_by_source`] implements exactly that: partition `p` receives
//! the follow edges of every `A` with `hash(A) mod n == p`, and builds its
//! own inverse index `S_p` over just those `A`s.

use crate::builder::GraphBuilder;
use crate::follow::{CapStrategy, FollowGraph};
use magicrecs_types::{PartitionId, UserId};
use std::hash::BuildHasher;

/// Assigns each `A` vertex to a partition.
pub trait Partitioner: Send + Sync {
    /// Number of partitions.
    fn partitions(&self) -> u32;

    /// The partition owning user `a`.
    fn partition_of(&self, a: UserId) -> PartitionId;
}

/// Hash-based partitioner (the standard choice for a skew-free `A` split).
///
/// Uses the workspace Fx hasher with an avalanche finalizer so consecutive
/// ids spread uniformly.
#[derive(Debug, Clone, Copy)]
pub struct HashPartitioner {
    n: u32,
}

impl HashPartitioner {
    /// Creates a partitioner over `n ≥ 1` partitions.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "need at least one partition");
        HashPartitioner { n }
    }
}

impl Partitioner for HashPartitioner {
    #[inline]
    fn partitions(&self) -> u32 {
        self.n
    }

    #[inline]
    fn partition_of(&self, a: UserId) -> PartitionId {
        let bh = magicrecs_types::FxBuildHasher::default();

        // Finalize with a xor-shift avalanche so modulo over small n is
        // unbiased even for sequential ids.
        let mut x = bh.hash_one(a);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        PartitionId((x % self.n as u64) as u32)
    }
}

/// Splits a [`FollowGraph`] into per-partition graphs, each holding the
/// forward rows (and therefore the inverse `S_p`) of its owned `A`s only.
///
/// The influencer cap is applied *before* partitioning (matching the paper,
/// where pruning happens in the offline pipeline), so pass the already
/// capped graph in.
///
/// Returns one [`FollowGraph`] per partition, indexed by
/// [`PartitionId::index`].
pub fn partition_by_source<P: Partitioner>(graph: &FollowGraph, part: &P) -> Vec<FollowGraph> {
    let n = part.partitions() as usize;
    let mut builders: Vec<GraphBuilder> = (0..n).map(|_| GraphBuilder::new()).collect();
    for (a, followings) in graph.iter_forward() {
        let p = part.partition_of(a).index();
        for b in followings {
            builders[p].add_edge(a, b);
        }
    }
    builders
        .into_iter()
        .map(|b| b.build_capped(CapStrategy::None))
        .collect()
}

/// Splits a [`GraphDelta`](crate::delta::GraphDelta) by the same `A`-ownership rule as
/// [`partition_by_source`]: partition `p` receives the added/removed edges
/// of every `A` it owns, so applying slice `p` to partition `p`'s local
/// graph is equivalent to re-partitioning the fully-applied global graph.
///
/// Epochs carry over unchanged — the chain is global, each partition just
/// applies its slice of it.
pub fn partition_delta_by_source<P: Partitioner>(
    delta: &crate::delta::GraphDelta,
    part: &P,
) -> Vec<crate::delta::GraphDelta> {
    let n = part.partitions() as usize;
    let mut added: Vec<Vec<(UserId, UserId)>> = vec![Vec::new(); n];
    let mut removed: Vec<Vec<(UserId, UserId)>> = vec![Vec::new(); n];
    for &(a, b) in delta.added() {
        added[part.partition_of(a).index()].push((a, b));
    }
    for &(a, b) in delta.removed() {
        removed[part.partition_of(a).index()].push((a, b));
    }
    added
        .into_iter()
        .zip(removed)
        .map(|(add, rm)| {
            crate::delta::GraphDelta::new(delta.base_epoch, delta.target_epoch, add, rm)
                .expect("slices of a valid delta stay sorted and disjoint")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn sample() -> FollowGraph {
        let mut b = GraphBuilder::new();
        for a in 0..40u64 {
            b.add_edge(u(a), u(1000));
            b.add_edge(u(a), u(1000 + a % 5));
        }
        b.build()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let g = sample();
        let part = HashPartitioner::new(4);
        let parts = partition_by_source(&g, &part);
        assert_eq!(parts.len(), 4);

        let total: usize = parts.iter().map(|p| p.num_follow_edges()).sum();
        assert_eq!(total, g.num_follow_edges());

        // Each A appears in exactly one partition.
        for a in 0..40u64 {
            let owning: Vec<_> = parts
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.followings(u(a)).is_empty())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(owning.len(), 1, "A={a} in partitions {owning:?}");
            assert_eq!(owning[0], part.partition_of(u(a)).index());
        }
    }

    #[test]
    fn same_b_resides_in_multiple_partitions() {
        // The paper: "the same B's may reside in multiple partitions."
        let g = sample();
        let parts = partition_by_source(&g, &HashPartitioner::new(4));
        let with_b1000 = parts
            .iter()
            .filter(|p| !p.followers(u(1000)).is_empty())
            .count();
        assert!(with_b1000 > 1, "B1000 should replicate across partitions");
    }

    #[test]
    fn local_followers_are_subset_of_global() {
        let g = sample();
        let parts = partition_by_source(&g, &HashPartitioner::new(4));
        let global: Vec<_> = g.followers(u(1000));
        for p in &parts {
            for a in p.followers(u(1000)) {
                assert!(global.contains(&a));
            }
        }
        // Union of locals == global.
        let mut union: Vec<UserId> = parts.iter().flat_map(|p| p.followers(u(1000))).collect();
        union.sort_unstable();
        assert_eq!(union, global);
    }

    #[test]
    fn single_partition_is_identity() {
        let g = sample();
        let parts = partition_by_source(&g, &HashPartitioner::new(1));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_follow_edges(), g.num_follow_edges());
        assert_eq!(parts[0].followers(u(1000)), g.followers(u(1000)));
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let part = HashPartitioner::new(20);
        for a in 0..1000u64 {
            let p1 = part.partition_of(u(a));
            let p2 = part.partition_of(u(a));
            assert_eq!(p1, p2);
            assert!(p1.raw() < 20);
        }
    }

    #[test]
    fn hash_partitioner_balances_sequential_ids() {
        let part = HashPartitioner::new(8);
        let mut counts = [0usize; 8];
        for a in 0..8000u64 {
            counts[part.partition_of(u(a)).index()] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Expect ~1000 per partition; allow ±15%.
        assert!(min > 850 && max < 1150, "imbalanced: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn partitioned_delta_matches_repartitioned_graph() {
        let old = sample();
        let mut nb = GraphBuilder::new();
        for a in 0..40u64 {
            if a != 3 {
                nb.add_edge(u(a), u(1000)); // A3 unfollows B1000
            }
            nb.add_edge(u(a), u(1000 + a % 5));
        }
        nb.add_edge(u(41), u(2000)); // brand-new A and B
        nb.add_edge(u(7), u(2000));
        let new = nb.build();

        let part = HashPartitioner::new(4);
        let delta = crate::delta::GraphDelta::between(&old, &new, 0, 1).unwrap();
        let slices = partition_delta_by_source(&delta, &part);
        assert_eq!(slices.len(), 4);
        let total: usize = slices.iter().map(|d| d.len()).sum();
        assert_eq!(total, delta.len());

        let old_parts = partition_by_source(&old, &part);
        let want_parts = partition_by_source(&new, &part);
        for (i, (local, slice)) in old_parts.iter().zip(&slices).enumerate() {
            let applied = local.apply_delta(slice).unwrap();
            let got: Vec<_> = applied.iter_forward().collect();
            let want: Vec<_> = want_parts[i].iter_forward().collect();
            assert_eq!(got, want, "partition {i}");
        }
    }
}
