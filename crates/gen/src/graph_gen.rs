//! Synthetic follow-graph generation with Twitter-like degree shapes.
//!
//! Myers et al. (WWW'14, reference 7 of the paper) characterize the
//! Twitter follow graph: both in-degree (followers) and out-degree
//! (followings) are heavy-tailed; the median account has a handful of
//! followers while the head has tens of millions. The generator reproduces
//! that shape with two knobs:
//!
//! * **popularity_alpha** — Zipf exponent for *who gets followed*. Sampling
//!   followees by Zipf rank yields a power-law in-degree distribution.
//! * **activity** — each user's out-degree is drawn from a bounded Pareto
//!   via the same Zipf machinery (rank → degree mapping), so a few users
//!   follow thousands while most follow dozens.
//!
//! For detection workloads what matters is (a) the size distribution of the
//! `S` adjacency lists being intersected and (b) how often the same hot `C`
//! attracts temporally-close edges — both functions of these two shapes.

use crate::zipf::Zipf;
use magicrecs_graph::{CapStrategy, FollowGraph, GraphBuilder};
use magicrecs_types::UserId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for [`GraphGen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphGenConfig {
    /// Number of users (vertex ids are `0..users`).
    pub users: u64,
    /// Mean out-degree (followings per user).
    pub mean_out_degree: f64,
    /// Maximum out-degree (bounded tail).
    pub max_out_degree: usize,
    /// Zipf exponent for followee popularity (in-degree skew). Twitter-like
    /// graphs sit near 1.0.
    pub popularity_alpha: f64,
    /// Zipf exponent for follower activity (out-degree skew).
    pub activity_alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GraphGenConfig {
    /// A small, quick config for tests: 1k users, ~20 followings each.
    pub fn small() -> Self {
        GraphGenConfig {
            users: 1_000,
            mean_out_degree: 20.0,
            max_out_degree: 200,
            popularity_alpha: 1.0,
            activity_alpha: 0.6,
            seed: 0xDECAF,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different user count.
    pub fn with_users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig::small()
    }
}

/// Follow-graph generator.
#[derive(Debug, Clone)]
pub struct GraphGen {
    config: GraphGenConfig,
}

impl GraphGen {
    /// Creates a generator.
    pub fn new(config: GraphGenConfig) -> Self {
        assert!(config.users >= 2, "need at least two users");
        assert!(config.mean_out_degree > 0.0, "mean out-degree must be > 0");
        GraphGen { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GraphGenConfig {
        &self.config
    }

    /// Generates the follow graph (uncapped).
    pub fn generate(&self) -> FollowGraph {
        self.generate_capped(CapStrategy::None)
    }

    /// Generates the follow graph with an influencer cap applied at build
    /// time (experiment E9).
    pub fn generate_capped(&self, cap: CapStrategy) -> FollowGraph {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let popularity = Zipf::new(cfg.users as usize, cfg.popularity_alpha);

        // Out-degree sampler: Zipf rank over users scaled so the mean lands
        // near `mean_out_degree`. Rank 0 (most active) gets max_out_degree;
        // degree decays as rank^-activity_alpha, floored at 1.
        let activity = Zipf::new(cfg.users as usize, cfg.activity_alpha);

        let mut builder =
            GraphBuilder::with_capacity((cfg.users as f64 * cfg.mean_out_degree) as usize);
        let est_total = cfg.users as f64 * cfg.mean_out_degree;

        for a in 0..cfg.users {
            let degree = self.sample_out_degree(&activity, est_total, &mut rng);
            for _ in 0..degree {
                // Followee by popularity rank; ranks map to ids via a fixed
                // multiplicative shuffle so "popular" ids are spread across
                // the id space (sequential hot ids would make partition
                // balance artificially easy).
                let rank = popularity.sample(&mut rng) as u64;
                let b = spread_rank(rank, cfg.users);
                if b != a {
                    builder.add_edge(UserId(a), UserId(b));
                }
            }
        }
        builder.build_capped(cap)
    }

    /// Draws one out-degree: expected degree of the activity rank, scaled to
    /// hit the configured mean, clamped to `[1, max_out_degree]`.
    fn sample_out_degree(&self, activity: &Zipf, est_total: f64, rng: &mut StdRng) -> usize {
        let cfg = &self.config;
        let rank = activity.sample(rng);
        // pmf(rank) * users ≈ relative activity share; scale so the overall
        // mean matches mean_out_degree.
        let share = activity.pmf(rank);
        let degree = share * est_total;
        (degree.round() as usize).clamp(1, cfg.max_out_degree)
    }

    /// The most-popular user ids in rank order (useful for scenarios that
    /// want to pick a "celebrity").
    pub fn popular_ids(&self, top: usize) -> Vec<UserId> {
        (0..top.min(self.config.users as usize) as u64)
            .map(|rank| UserId(spread_rank(rank, self.config.users)))
            .collect()
    }
}

/// Maps a popularity rank to a user id via multiplication by a constant
/// coprime to `users`, exact in u128 — a true permutation of `0..users`, so
/// distinct ranks keep distinct popularity masses.
pub(crate) fn spread_rank(rank: u64, users: u64) -> u64 {
    ((rank as u128 * spread_multiplier(users) as u128) % users as u128) as u64
}

/// Smallest multiplier ≥ (golden-ratio constant mod users) coprime to
/// `users`. Deterministic per `users`; the gcd loop runs a handful of steps.
fn spread_multiplier(users: u64) -> u64 {
    let mut g = 0x9E37_79B9_7F4A_7C15u64 % users;
    loop {
        if g != 0 && gcd(g, users) == 1 {
            return g;
        }
        g = (g + 1) % users.max(2);
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphStats;

    #[test]
    fn generates_requested_scale() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let stats = GraphStats::of(&g);
        assert!(stats.edges > 5_000, "too few edges: {}", stats.edges);
        // Mean out-degree within 2x of target (skew makes this loose).
        assert!(
            stats.out_degree.mean > 5.0 && stats.out_degree.mean < 80.0,
            "mean out-degree {}",
            stats.out_degree.mean
        );
    }

    #[test]
    fn in_degree_is_heavy_tailed() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let stats = GraphStats::of(&g);
        // Power-law: the head is far above both the mean and the median.
        assert!(
            stats.in_degree.skew() > 5.0,
            "in-degree skew {} too low for a power law",
            stats.in_degree.skew()
        );
        assert!(
            stats.in_degree.max >= stats.in_degree.median * 10,
            "max {} vs median {}",
            stats.in_degree.max,
            stats.in_degree.median
        );
    }

    #[test]
    fn out_degree_is_skewed_but_bounded() {
        let cfg = GraphGenConfig::small();
        let g = GraphGen::new(cfg).generate();
        let stats = GraphStats::of(&g);
        assert!(stats.out_degree.max <= cfg.max_out_degree);
        assert!(stats.out_degree.max > stats.out_degree.median);
    }

    #[test]
    fn deterministic_per_seed() {
        let g1 = GraphGen::new(GraphGenConfig::small()).generate();
        let g2 = GraphGen::new(GraphGenConfig::small()).generate();
        assert_eq!(g1.num_follow_edges(), g2.num_follow_edges());
        let different = GraphGen::new(GraphGenConfig::small().with_seed(99)).generate();
        // Same scale, different structure (edge counts may coincide, so
        // compare a specific adjacency).
        let probe = UserId(0);
        let same_row = g1.followings(probe) == different.followings(probe);
        assert!(
            !same_row || g1.num_follow_edges() != different.num_follow_edges(),
            "different seeds produced identical graphs"
        );
    }

    #[test]
    fn popular_ids_have_high_in_degree() {
        let gen = GraphGen::new(GraphGenConfig::small());
        let g = gen.generate();
        let stats = GraphStats::of(&g);
        let top = gen.popular_ids(5);
        for id in &top {
            assert!(
                g.follower_count(*id) as f64 >= stats.in_degree.mean,
                "rank-0..5 id {id} has below-average followers"
            );
        }
    }

    #[test]
    fn no_self_loops() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        for (a, followings) in g.iter_forward() {
            assert!(!followings.contains(&a), "self-loop at {a:?}");
        }
    }

    #[test]
    fn capped_generation_limits_out_degree() {
        let gen = GraphGen::new(GraphGenConfig::small());
        let g = gen.generate_capped(CapStrategy::Oldest(5));
        let stats = GraphStats::of(&g);
        assert!(stats.out_degree.max <= 5);
    }

    #[test]
    fn spread_rank_is_injective_over_range() {
        let users = 1009u64; // prime, so the multiplier can't alias
        let mut seen = std::collections::HashSet::new();
        for rank in 0..users {
            seen.insert(spread_rank(rank, users));
        }
        assert_eq!(seen.len() as u64, users);
    }

    #[test]
    #[should_panic(expected = "two users")]
    fn one_user_rejected() {
        let _ = GraphGen::new(GraphGenConfig {
            users: 1,
            ..GraphGenConfig::small()
        });
    }
}
