//! Partitioning the static graph by recommendation target (`A`).
//!
//! The paper: "To distribute this design over multiple machines, we
//! partition by the A's. This means each partition holds a disjoint set of
//! source vertices for the S data structure; thus, the same B's may reside
//! in multiple partitions. Such a design guarantees that all adjacency list
//! intersections are local to each partition."
//!
//! [`partition_by_source`] implements exactly that: partition `p` receives
//! the follow edges of every `A` with [`partition_of`]`(A, n) == p`, and
//! builds its own inverse index `S_p` over just those `A`s.

use crate::builder::GraphBuilder;
use crate::follow::{CapStrategy, FollowGraph};
use magicrecs_types::UserId;
use std::hash::BuildHasher;

/// The partition (of `partitions ≥ 1`) owning user `a`.
///
/// Hashes with the workspace Fx hasher, then finalizes with a xor-shift
/// avalanche so modulo over small `partitions` is unbiased even for
/// sequential ids.
#[inline]
pub fn partition_of(a: UserId, partitions: u32) -> u32 {
    let mut x = magicrecs_types::FxBuildHasher::default().hash_one(a);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x % partitions as u64) as u32
}

/// Splits a [`FollowGraph`] into `partitions ≥ 1` per-partition graphs,
/// each holding the forward rows (and therefore the inverse `S_p`) of its
/// owned `A`s only; graph `p` holds every `A` with
/// [`partition_of`]`(A, partitions) == p`.
///
/// The influencer cap is applied *before* partitioning (matching the paper,
/// where pruning happens in the offline pipeline), so pass the already
/// capped graph in.
pub fn partition_by_source(graph: &FollowGraph, partitions: u32) -> Vec<FollowGraph> {
    assert!(partitions >= 1, "need at least one partition");
    let mut builders: Vec<GraphBuilder> = (0..partitions).map(|_| GraphBuilder::new()).collect();
    for (a, followings) in graph.iter_forward() {
        let p = partition_of(a, partitions) as usize;
        for b in followings {
            builders[p].add_edge(a, b);
        }
    }
    builders
        .into_iter()
        .map(|b| b.build_capped(CapStrategy::None))
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
        let parts = partition_by_source(&g, 4);
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
            assert_eq!(owning[0], partition_of(u(a), 4) as usize);
        }
    }

    #[test]
    fn same_b_resides_in_multiple_partitions() {
        // The paper: "the same B's may reside in multiple partitions."
        let g = sample();
        let parts = partition_by_source(&g, 4);
        let with_b1000 = parts
            .iter()
            .filter(|p| !p.followers(u(1000)).is_empty())
            .count();
        assert!(with_b1000 > 1, "B1000 should replicate across partitions");
    }

    #[test]
    fn local_followers_are_subset_of_global() {
        let g = sample();
        let parts = partition_by_source(&g, 4);
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
        let parts = partition_by_source(&g, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_follow_edges(), g.num_follow_edges());
        assert_eq!(parts[0].followers(u(1000)), g.followers(u(1000)));
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        for a in 0..1000u64 {
            let p1 = partition_of(u(a), 20);
            let p2 = partition_of(u(a), 20);
            assert_eq!(p1, p2);
            assert!(p1 < 20);
        }
    }

    #[test]
    fn hash_partitioner_balances_sequential_ids() {
        let mut counts = [0usize; 8];
        for a in 0..8000u64 {
            counts[partition_of(u(a), 8) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Expect ~1000 per partition; allow ±15%.
        assert!(min > 850 && max < 1150, "imbalanced: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = partition_by_source(&sample(), 0);
    }
}
