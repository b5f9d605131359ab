//! A brute-force oracle for the diamond-motif semantics.
//!
//! Replays an event trace with the simplest possible data structures (plain
//! vectors, membership tests over the forward adjacency) and *no* shared
//! code with the production detector's hot path — an independent
//! implementation of the same specification. Property tests assert the
//! production engine agrees with this oracle event-for-event.
//!
//! Also serves as the "batch computation" contrast the paper draws:
//! "Nearly all approaches to motif detection are based on a static graph
//! snapshot and viewed as batch computations." [`BatchOracle::snapshot_scan`]
//! enumerates completed diamonds over a frozen snapshot, which is what a
//! batch system would recompute periodically.

use magicrecs_graph::FollowGraph;
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Timestamp, UserId};

/// Brute-force replay/enumeration of diamond motifs.
#[derive(Debug, Clone)]
pub struct BatchOracle {
    config: DetectorConfig,
}

impl BatchOracle {
    /// Creates an oracle with the given (validated) configuration.
    pub fn new(config: DetectorConfig) -> magicrecs_types::Result<Self> {
        config.validate()?;
        Ok(BatchOracle { config })
    }

    /// Replays `events` in order, returning every candidate the online
    /// semantics should produce (same filtering rules as the detector).
    ///
    /// The candidate contract: after the `max_witnesses` cap, a witness
    /// is *fresh* when its newest in-window timestamp equals the event's.
    /// An `A` is emitted iff it passes the filters, follows at least `k`
    /// of the capped witnesses, and at least one of those is fresh; the
    /// per-event candidate cap applies last. "In window" here means
    /// `[t − τ, t]`, so on a time-ordered trace the fresh set is the
    /// triggering `B` plus any `B` that acted on the same target in the
    /// same microsecond.
    pub fn replay(&self, graph: &FollowGraph, events: &[EdgeEvent]) -> Vec<Candidate> {
        // Live dynamic edges: (src, dst, created_at), append-only with
        // removals; deliberately unindexed.
        let mut live: Vec<(UserId, UserId, Timestamp)> = Vec::new();
        let mut out = Vec::new();

        for &event in events {
            if !event.kind.is_insertion() {
                live.retain(|&(s, d, _)| !(s == event.src && d == event.dst));
                continue;
            }
            live.push((event.src, event.dst, event.created_at));
            let t = event.created_at;
            let cutoff = t.saturating_sub(self.config.tau);

            // Distinct in-window witnesses for this target, latest ts each.
            let mut witnesses: Vec<(UserId, Timestamp)> = Vec::new();
            for &(s, d, at) in &live {
                if d != event.dst || at < cutoff || at > t {
                    continue;
                }
                match witnesses.iter_mut().find(|(w, _)| *w == s) {
                    Some(slot) => slot.1 = slot.1.max(at),
                    None => witnesses.push((s, at)),
                }
            }
            if witnesses.len() < self.config.k {
                continue;
            }
            if let Some(cap) = self.config.max_witnesses {
                if witnesses.len() > cap {
                    witnesses.sort_by_key(|&(b, at)| (std::cmp::Reverse(at), b));
                    witnesses.truncate(cap);
                }
            }
            witnesses.sort_by_key(|&(b, _)| b);
            // Fresh witnesses: those whose newest in-window edge is this
            // event's.
            let fresh: Vec<UserId> = witnesses
                .iter()
                .filter(|&&(_, at)| at == t)
                .map(|&(b, _)| b)
                .collect();

            // Count, per candidate A, how many witnesses A follows —
            // membership checks against the forward adjacency, no
            // intersection machinery.
            let mut counts: std::collections::BTreeMap<UserId, Vec<UserId>> = Default::default();
            for &(b, _) in &witnesses {
                for a in graph.followers(b) {
                    counts.entry(a).or_default().push(b);
                }
            }
            let mut emitted = 0usize;
            for (a, wit) in counts {
                if wit.len() < self.config.k || a == event.dst {
                    continue;
                }
                if !wit.iter().any(|b| fresh.contains(b)) {
                    continue;
                }
                if self.config.skip_existing
                    && (witnesses.iter().any(|&(b, _)| b == a) || graph.follows(a, event.dst))
                {
                    continue;
                }
                if let Some(cap) = self.config.max_candidates_per_event {
                    if emitted >= cap {
                        break;
                    }
                }
                out.push(Candidate {
                    user: a,
                    target: event.dst,
                    witnesses: wit,
                    triggered_at: t,
                });
                emitted += 1;
            }
        }
        out
    }

    /// Batch enumeration over a frozen snapshot: all `(A, C)` pairs whose
    /// diamond is complete considering every dynamic edge in
    /// `[as_of − τ, as_of]`. This is what a periodic batch job would
    /// output — experiment E5's contrast arm.
    pub fn snapshot_scan(
        &self,
        graph: &FollowGraph,
        events: &[EdgeEvent],
        as_of: Timestamp,
    ) -> Vec<(UserId, UserId)> {
        let cutoff = as_of.saturating_sub(self.config.tau);
        // Net live edges in window (insertions minus later unfollows).
        let mut live: Vec<(UserId, UserId)> = Vec::new();
        for &e in events.iter().filter(|e| e.created_at <= as_of) {
            if e.kind.is_insertion() {
                if e.created_at >= cutoff {
                    live.push((e.src, e.dst));
                }
            } else {
                live.retain(|&(s, d)| !(s == e.src && d == e.dst));
            }
        }
        live.sort_unstable();
        live.dedup();

        // Group witnesses by target.
        let mut by_target: std::collections::BTreeMap<UserId, Vec<UserId>> = Default::default();
        for (s, d) in live {
            by_target.entry(d).or_default().push(s);
        }

        let mut out = Vec::new();
        for (c, witnesses) in by_target {
            if witnesses.len() < self.config.k {
                continue;
            }
            let mut counts: std::collections::BTreeMap<UserId, usize> = Default::default();
            for &b in &witnesses {
                for a in graph.followers(b) {
                    *counts.entry(a).or_default() += 1;
                }
            }
            for (a, n) in counts {
                if n < self.config.k || a == c {
                    continue;
                }
                if self.config.skip_existing && (witnesses.contains(&a) || graph.follows(a, c)) {
                    continue;
                }
                out.push((a, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_core::ConcurrentEngine;
    use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::Duration;
    use proptest::prelude::*;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn figure1() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
        g.build()
    }

    #[test]
    fn oracle_matches_figure1() {
        let oracle = BatchOracle::new(DetectorConfig::example()).unwrap();
        let events = vec![
            EdgeEvent::follow(u(11), u(22), ts(10)),
            EdgeEvent::follow(u(12), u(22), ts(20)),
        ];
        let got = oracle.replay(&figure1(), &events);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].user, u(2));
        assert_eq!(got[0].witnesses, vec![u(11), u(12)]);
    }

    #[test]
    fn oracle_equals_engine_on_random_trace() {
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let cfg = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(Duration::from_secs(15)),
        );
        let oracle = BatchOracle::new(cfg).unwrap();
        let expected = oracle.replay(&g, trace.events());
        let engine = ConcurrentEngine::new(g, cfg).unwrap();
        let got = engine.on_events(trace.events());
        assert_eq!(got, expected);
    }

    #[test]
    fn snapshot_scan_finds_complete_diamonds() {
        let oracle = BatchOracle::new(DetectorConfig::example()).unwrap();
        let events = vec![
            EdgeEvent::follow(u(11), u(22), ts(10)),
            EdgeEvent::follow(u(12), u(22), ts(20)),
        ];
        let got = oracle.snapshot_scan(&figure1(), &events, ts(30));
        assert_eq!(got, vec![(u(2), u(22))]);
        // Before the second edge: nothing.
        assert!(oracle.snapshot_scan(&figure1(), &events, ts(15)).is_empty());
        // After the window has passed: nothing.
        assert!(oracle
            .snapshot_scan(&figure1(), &events, ts(10_000))
            .is_empty());
    }

    #[test]
    fn snapshot_scan_respects_unfollow() {
        let oracle = BatchOracle::new(DetectorConfig::example()).unwrap();
        let events = vec![
            EdgeEvent::follow(u(11), u(22), ts(10)),
            EdgeEvent::unfollow(u(11), u(22), ts(15)),
            EdgeEvent::follow(u(12), u(22), ts(20)),
        ];
        assert!(oracle.snapshot_scan(&figure1(), &events, ts(30)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The central correctness property of the reproduction: the
        /// production engine and the brute-force oracle agree on arbitrary
        /// graphs and traces, including unfollows and out-of-window gaps.
        #[test]
        fn engine_agrees_with_oracle(
            edges in proptest::collection::vec((0u64..30, 30u64..45), 1..120),
            actions in proptest::collection::vec(
                (30u64..45, 45u64..60, 0u64..2000, prop::bool::ANY),
                1..80,
            ),
            k in 2usize..4,
        ) {
            let mut b = GraphBuilder::new();
            b.extend(edges.into_iter().map(|(a, bb)| (u(a), u(bb))));
            let g = b.build();

            let mut events: Vec<EdgeEvent> = actions
                .into_iter()
                .map(|(src, dst, at, is_unfollow)| {
                    if is_unfollow {
                        EdgeEvent::unfollow(u(src), u(dst), ts(at))
                    } else {
                        EdgeEvent::follow(u(src), u(dst), ts(at))
                    }
                })
                .collect();
            events.sort_by_key(|e| e.created_at);

            let cfg = DetectorConfig::example()
                .with_k(k)
                .with_tau(Duration::from_secs(300));
            let oracle = BatchOracle::new(cfg).unwrap();
            let expected = oracle.replay(&g, &events);
            let engine = ConcurrentEngine::new(g, cfg).unwrap();
            let got: Vec<Candidate> = events.iter().flat_map(|&e| engine.on_event(e)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
