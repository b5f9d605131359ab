//! Single-owner checks of [`ConcurrentEngine`]: one engine driven from one
//! thread, the way a cluster partition, a replica and a recovery run drive
//! it. Compiled for tests only; the engine itself lives in
//! [`crate::concurrent`].

#[cfg(test)]
mod tests {
    use crate::ConcurrentEngine;
    use magicrecs_graph::{FollowGraph, GraphBuilder, GraphDelta};
    use magicrecs_types::{DetectorConfig, EdgeEvent, Timestamp, UserId};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn small_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)),
            (u(1), u(12)),
            (u(2), u(11)),
            (u(2), u(12)),
            (u(3), u(12)),
        ]);
        g.build()
    }

    fn engine(graph: FollowGraph) -> ConcurrentEngine {
        ConcurrentEngine::new(graph, DetectorConfig::example()).unwrap()
    }

    #[test]
    fn quickstart_flow() {
        let engine = engine(small_graph());
        let c = u(99);
        assert!(engine
            .on_event(EdgeEvent::follow(u(11), c, ts(100)))
            .is_empty());
        let recs = engine.on_event(EdgeEvent::follow(u(12), c, ts(105)));
        let users: Vec<UserId> = recs.iter().map(|r| r.user).collect();
        assert_eq!(users, vec![u(1), u(2)]);
    }

    #[test]
    fn advance_reclaims_store_memory() {
        let engine = engine(small_graph());
        for i in 0..100u64 {
            engine.on_event(EdgeEvent::follow(u(11), u(1000 + i), ts(1)));
        }
        assert!(engine.store().resident_entries() > 0);
        engine.advance(ts(100_000));
        assert_eq!(engine.store().resident_entries(), 0);
    }

    #[test]
    fn memory_accounting_positive() {
        let engine = engine(small_graph());
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn swap_graph_takes_effect_immediately() {
        // Start with a graph where nobody follows B2; swap in one where
        // A1 follows both B1 and B2 mid-stream.
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let engine = engine(sparse.build());
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        let before = engine.on_event(EdgeEvent::follow(u(12), c, ts(11)));
        assert!(before.is_empty(), "A1 does not follow B2 yet");

        let old = engine.swap_graph(small_graph());
        assert_eq!(old.num_follow_edges(), 1);
        // D still holds both witnesses; a fresh event re-evaluates against
        // the new S.
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "swap should enable the motif");
        assert_eq!(after[0].user, u(1));
    }

    #[test]
    fn swap_graph_delta_matches_full_swap() {
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let base = sparse.build();
        let delta = GraphDelta::between(&base, &small_graph(), 0, 1).unwrap();

        let engine = engine(base);
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        assert!(engine
            .on_event(EdgeEvent::follow(u(12), c, ts(11)))
            .is_empty());

        engine.swap_graph_delta(&delta).unwrap();
        // D survived the refresh; the refreshed rows complete the motif.
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "delta swap should enable the motif");
        assert_eq!(after[0].user, u(1));

        // Against the full-swap reference: identical candidate stream.
        let reference = self::engine(small_graph());
        reference.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        reference.on_event(EdgeEvent::follow(u(12), c, ts(11)));
        let want = reference.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert_eq!(after, want);
    }

    #[test]
    fn on_events_matches_single_events() {
        // Candidate stream, stats, and store contents must be identical
        // whether a trace goes through one on_events call per chunk or
        // one on_event call per event — including same-target repeats
        // inside a chunk.
        let trace: Vec<EdgeEvent> = (0..500u64)
            .map(|i| {
                if i % 29 == 0 {
                    EdgeEvent::unfollow(u(11), u(900 + i % 7), ts(10 + i))
                } else {
                    EdgeEvent::follow(u(11 + i % 3), u(900 + i % 7), ts(10 + i))
                }
            })
            .collect();
        let single = engine(small_graph());
        let batched = engine(small_graph());
        let mut want = Vec::new();
        for &e in &trace {
            want.extend(single.on_event(e));
        }
        let mut got = Vec::new();
        for chunk in trace.chunks(37) {
            batched.on_events_into(chunk, &mut got);
        }
        assert_eq!(got, want);
        let (s, b) = (single.stats(), batched.stats());
        assert_eq!(s.events, b.events);
        assert_eq!(s.candidates, b.candidates);
        assert_eq!(s.firing_events, b.firing_events);
        assert_eq!(s.detect_time.count, b.detect_time.count);
        assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
        assert_eq!(single.store_stats(), batched.store_stats());
    }

    #[test]
    fn on_events_crosses_advance_boundary_like_single_events() {
        // > ADVANCE_EVERY events in one call: the periodic advance must
        // fire mid-batch at the same cadence the single path uses.
        let trace: Vec<EdgeEvent> = (0..2100u64)
            .map(|i| EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)))
            .collect();
        let single = engine(small_graph());
        let batched = engine(small_graph());
        for &e in &trace {
            single.on_event(e);
        }
        batched.on_events(&trace);
        assert_eq!(
            single.store().resident_targets(),
            batched.store().resident_targets()
        );
        assert_eq!(single.store_stats(), batched.store_stats());
        assert!(batched.store().resident_targets() < 200, "advance must run");
    }

    #[test]
    fn apply_to_store_batch_matches_single_applies() {
        let trace: Vec<EdgeEvent> = (0..300u64)
            .map(|i| {
                if i % 13 == 0 {
                    EdgeEvent::unfollow(u(1 + i % 5), u(100 + i % 9), ts(i))
                } else {
                    EdgeEvent::follow(u(1 + i % 5), u(100 + i % 9), ts(i))
                }
            })
            .collect();
        let single = engine(small_graph());
        let batched = engine(small_graph());
        for &e in &trace {
            single.apply_to_store_batch(std::slice::from_ref(&e));
        }
        batched.apply_to_store_batch(&trace);
        assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
        assert_eq!(single.store().stats(), batched.store().stats());
    }
}
