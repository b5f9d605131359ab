//! Batch-vs-single differential properties: `on_events` pinned to its
//! single-event twin on arbitrary graphs, traces, and chunkings.
//!
//! The batched ingest hot path (engines, cluster transports, WAL group
//! commit) is only allowed to change *where fixed costs are paid* — the
//! candidate stream, engine stats, and store contents must be
//! indistinguishable from event-at-a-time processing. These properties
//! drive random traces (unfollows and same-target repeats included)
//! through both paths with random uneven chunk splits and compare
//! everything observable.

use magicrecs::baseline::BatchOracle;
use magicrecs::cluster::SharedEngineCluster;
use magicrecs::prelude::*;
use proptest::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

/// Strategy: a random small follow graph (As 0..25 following Bs 25..40)
/// and a random dynamic trace (Bs acting on Cs 40..50), with unfollows
/// and plenty of same-target repeats (the run-splitting case).
fn graph_and_trace() -> impl Strategy<Value = (FollowGraph, Vec<EdgeEvent>)> {
    let edges = proptest::collection::vec((0u64..25, 25u64..40), 1..100);
    let actions =
        proptest::collection::vec((25u64..40, 40u64..48, 0u64..1_500, prop::bool::ANY), 1..80);
    (edges, actions).prop_map(|(edges, actions)| {
        let mut b = GraphBuilder::new();
        b.extend(edges.into_iter().map(|(x, y)| (u(x), u(y))));
        let mut events: Vec<EdgeEvent> = actions
            .into_iter()
            .map(|(src, dst, at, unf)| {
                let t = Timestamp::from_secs(at);
                if unf {
                    EdgeEvent::unfollow(u(src), u(dst), t)
                } else {
                    EdgeEvent::follow(u(src), u(dst), t)
                }
            })
            .collect();
        events.sort_by_key(|e| e.created_at);
        (b.build(), events)
    })
}

/// Feeds `events` to `apply` in chunks whose sizes cycle through
/// `splits` — uneven, possibly larger than the remainder.
fn chunked(events: &[EdgeEvent], splits: &[usize], mut apply: impl FnMut(&[EdgeEvent])) {
    let mut i = 0;
    let mut s = 0;
    while i < events.len() {
        let take = splits[s % splits.len()].min(events.len() - i);
        apply(&events[i..i + take]);
        i += take;
        s += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn sequential_engine_batch_parity(
        (graph, events) in graph_and_trace(),
        splits in proptest::collection::vec(1usize..17, 1..10),
    ) {
        // One partition over the whole graph, driven by its single owner:
        // per-event and chunked ingest must agree with each other and
        // with the brute-force oracle.
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));
        let reference = BatchOracle::new(cfg).unwrap().replay(&graph, &events);
        let single = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        let batched = ConcurrentEngine::new(graph, cfg).unwrap();

        let mut want = Vec::new();
        for &e in &events {
            want.extend(single.on_event(e));
        }
        prop_assert_eq!(&want, &reference, "per-event partition != oracle");
        let mut got = Vec::new();
        chunked(&events, &splits, |chunk| {
            batched.on_events_into(chunk, &mut got);
        });

        prop_assert_eq!(got, want, "candidate stream diverged");
        let (s, b) = (single.stats(), batched.stats());
        prop_assert_eq!(s.events, b.events);
        prop_assert_eq!(s.candidates, b.candidates);
        prop_assert_eq!(s.firing_events, b.firing_events);
        prop_assert_eq!(single.store_stats(), batched.store_stats());
        prop_assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
    }

    #[test]
    fn concurrent_engine_batch_parity(
        (graph, events) in graph_and_trace(),
        splits in proptest::collection::vec(1usize..17, 1..10),
    ) {
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));
        // Three-way: brute-force oracle, per-event engine, batched
        // engine — all must agree event for event.
        let reference = BatchOracle::new(cfg).unwrap().replay(&graph, &events);
        let single = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        let batched = ConcurrentEngine::new(graph, cfg).unwrap();

        let mut want = Vec::new();
        for &e in &events {
            want.extend(single.on_event(e));
        }
        prop_assert_eq!(&want, &reference, "per-event engine != oracle");

        let mut got = Vec::new();
        chunked(&events, &splits, |chunk| {
            batched.on_events_into(chunk, &mut got);
        });
        prop_assert_eq!(&got, &want, "batched candidate stream diverged");

        let (s, b) = (single.stats(), batched.stats());
        prop_assert_eq!(s.events, b.events);
        prop_assert_eq!(s.candidates, b.candidates);
        prop_assert_eq!(s.firing_events, b.firing_events);
        prop_assert_eq!(s.detect_time.count, b.detect_time.count);
        prop_assert_eq!(single.store_stats(), batched.store_stats());
        prop_assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
    }

    #[test]
    fn shared_cluster_batch_parity((graph, events) in graph_and_trace()) {
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));

        // Shared cluster: its micro-batch drains produce the oracle's
        // stream.
        let mut expected = BatchOracle::new(cfg).unwrap().replay(&graph, &events);
        expected.sort_by_key(|c| (c.triggered_at, c.user, c.target));
        let report = SharedEngineCluster::new(&graph, 2, cfg)
            .unwrap()
            .run_trace(&events)
            .unwrap();
        prop_assert_eq!(report.candidates, expected, "shared cluster diverged");
    }
}
