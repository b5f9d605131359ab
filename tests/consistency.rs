//! Cross-implementation consistency properties, driven by proptest.
//!
//! Two independent implementations of the motif semantics exist in this
//! workspace (the production engine and the brute-force oracle) plus two
//! distributions of the engine (sequential broker, threaded cluster). On
//! arbitrary graphs and traces, at k = 2 and k = 3, they must all agree
//! with the oracle.

use magicrecs::baseline::BatchOracle;
use magicrecs::cluster::{Broker, ThreadedCluster};
use magicrecs::gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs::prelude::*;
use proptest::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn key(c: &Candidate) -> (Timestamp, UserId, UserId) {
    (c.triggered_at, c.user, c.target)
}

fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
    v.sort_by_key(key);
    v
}

/// Strategy: a random small follow graph (As 0..25 following Bs 25..40)
/// and a random dynamic trace (Bs acting on Cs 40..50), with unfollows.
fn graph_and_trace() -> impl Strategy<Value = (FollowGraph, Vec<EdgeEvent>)> {
    let edges = proptest::collection::vec((0u64..25, 25u64..40), 1..100);
    let actions =
        proptest::collection::vec((25u64..40, 40u64..50, 0u64..1_500, prop::bool::ANY), 1..60);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn broker_and_threaded_agree_with_engine(
        (graph, events) in graph_and_trace(),
        parts in 1u32..6,
        k in 2usize..4,
    ) {
        let cfg = DetectorConfig {
            k,
            ..DetectorConfig::example().with_tau(Duration::from_secs(200))
        };

        // The brute-force oracle is the reference; the single engine and
        // both of its distributions must each reproduce it.
        let expected = sorted(BatchOracle::new(cfg).unwrap().replay(&graph, &events));

        let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        let got_engine = sorted(engine.on_events(&events));
        prop_assert_eq!(&got_engine, &expected, "engine diverged");

        let mut broker = Broker::new(
            &graph,
            ClusterConfig::single().with_partitions(parts),
            cfg,
        )
        .unwrap();
        let got_broker = sorted(broker.process_trace(events.iter().copied()));
        prop_assert_eq!(&got_broker, &expected, "broker diverged");

        let cluster = ThreadedCluster::new(
            &graph,
            ClusterConfig::single().with_partitions(parts),
            cfg,
        )
        .unwrap();
        let got_threaded = sorted(cluster.run_trace(&events).unwrap().candidates);
        prop_assert_eq!(&got_threaded, &expected, "threaded cluster diverged");
    }

    #[test]
    fn candidate_invariants_hold(
        (graph, events) in graph_and_trace(),
    ) {
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(200));
        let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        for &event in &events {
            for c in engine.on_event(event) {
                // Witness count meets the threshold.
                prop_assert!(c.witnesses.len() >= cfg.k);
                // The user follows every listed witness (static edge).
                for w in &c.witnesses {
                    prop_assert!(
                        graph.follows(c.user, *w),
                        "{:?} does not follow witness {:?}", c.user, w
                    );
                }
                // Never self-recommendation, never an existing follower.
                prop_assert!(c.user != c.target);
                prop_assert!(!graph.follows(c.user, c.target));
                // Trigger time matches the event.
                prop_assert_eq!(c.triggered_at, event.created_at);
                // Witnesses sorted ascending.
                prop_assert!(c.witnesses.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn candidate_volume_monotone_in_k(
        (graph, events) in graph_and_trace(),
    ) {
        // Higher k can only reduce (or keep equal) the candidate volume.
        let mut counts = Vec::new();
        for k in [2usize, 3, 4] {
            let cfg = DetectorConfig::example()
                .with_k(k)
                .with_tau(Duration::from_secs(200));
            let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
            counts.push(engine.on_events(&events).len());
        }
        prop_assert!(counts[0] >= counts[1] && counts[1] >= counts[2],
            "volume not monotone in k: {:?}", counts);
    }

    #[test]
    fn candidate_volume_monotone_in_tau(
        (graph, events) in graph_and_trace(),
    ) {
        // A wider window can only add candidates.
        let mut counts = Vec::new();
        for tau in [30u64, 120, 600] {
            let cfg = DetectorConfig::example().with_tau(Duration::from_secs(tau));
            let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
            counts.push(engine.on_events(&events).len());
        }
        prop_assert!(counts[0] <= counts[1] && counts[1] <= counts[2],
            "volume not monotone in tau: {:?}", counts);
    }
}

/// Strategy: a dense follow graph (As 0..25 following Bs 25..40) and a
/// trace that drives each of three targets (40..43) with up to fifteen
/// distinct Bs, so a witness cap of 2–6 binds. Timestamps fall on a
/// 5-second grid, which makes same-microsecond groups common. Each target
/// is delivered late by its own delay: the stream is ordered by
/// `created_at + delay[target]`, so events reach the engine out of time
/// order across targets while each target's own events stay in order.
/// (Same-target lateness is left out on purpose: `D`'s window is
/// one-sided, counting entries newer than the event, while the oracle's
/// ends at the event.)
fn capped_graph_and_trace() -> impl Strategy<Value = (FollowGraph, Vec<EdgeEvent>)> {
    let edges = proptest::collection::vec((0u64..25, 25u64..40), 20..160);
    let actions = proptest::collection::vec((25u64..40, 40u64..43, 0u64..40, 0u8..10), 1..90);
    let delays = (0u64..60, 0u64..60, 0u64..60);
    (edges, actions, delays).prop_map(|(edges, actions, (d0, d1, d2))| {
        let delays = [d0, d1, d2];
        let mut b = GraphBuilder::new();
        b.extend(edges.into_iter().map(|(x, y)| (u(x), u(y))));
        let mut events: Vec<EdgeEvent> = actions
            .into_iter()
            .map(|(src, dst, step, kind)| {
                let t = Timestamp::from_secs(step * 5);
                if kind == 0 {
                    EdgeEvent::unfollow(u(src), u(dst), t)
                } else {
                    EdgeEvent::follow(u(src), u(dst), t)
                }
            })
            .collect();
        events.sort_by_key(|e| e.created_at.as_secs() + delays[(e.dst.raw() - 40) as usize]);
        (b.build(), events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The served engine fetches only the `max_witnesses` newest
    /// witnesses from `D` (plus boundary ties). With a cap of 2–6 that
    /// binds on most detects, both its single-event and its batched
    /// entry point (random chunking) must still emit exactly the
    /// brute-force oracle's candidate stream.
    #[test]
    fn engine_with_binding_witness_cap_agrees_with_oracle(
        (graph, events) in capped_graph_and_trace(),
        k in 2usize..4,
        cap in 2usize..7,
        skip_existing in prop::bool::ANY,
        splits in proptest::collection::vec(1usize..9, 1..6),
    ) {
        let cfg = DetectorConfig {
            k,
            tau: Duration::from_secs(120),
            max_witnesses: Some(cap.max(k)),
            max_candidates_per_event: None,
            skip_existing,
        };
        let expected = BatchOracle::new(cfg).unwrap().replay(&graph, &events);

        let single = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        let mut got_single = Vec::new();
        for &e in &events {
            got_single.extend(single.on_event(e));
        }
        prop_assert_eq!(&got_single, &expected, "on_event diverged");

        let batched = ConcurrentEngine::new(graph, cfg).unwrap();
        let mut got_batched = Vec::new();
        let (mut i, mut s) = (0, 0);
        while i < events.len() {
            let take = splits[s % splits.len()].min(events.len() - i);
            batched.on_events_into(&events[i..i + take], &mut got_batched);
            i += take;
            s += 1;
        }
        prop_assert_eq!(&got_batched, &expected, "on_events_into diverged");
    }
}

/// The broker's candidate stream on a generated workload (1,500 users, a
/// mixed 90 s scenario at 60 events/s, 4 partitions, witness cap 8): the
/// trace length and every candidate in emission order.
fn broker_stream(seed: u64) -> (usize, Vec<Candidate>) {
    let users = 1_500u64;
    let graph = GraphGen::new(GraphGenConfig::small().with_users(users)).generate();
    let trace = Scenario::mixed(
        &graph,
        users,
        Duration::from_secs(30),
        25,
        ScenarioConfig {
            rate_per_sec: 60.0,
            duration: Duration::from_secs(90),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: 1.0,
            seed,
        },
    );
    let config = DetectorConfig {
        max_witnesses: Some(8),
        ..DetectorConfig::example()
    };
    let mut broker =
        Broker::new(&graph, ClusterConfig::single().with_partitions(4), config).unwrap();
    let mut candidates = Vec::new();
    for &event in trace.events() {
        candidates.extend(broker.on_event(event));
    }
    (trace.len(), candidates)
}

#[test]
fn pipeline_is_deterministic() {
    let (e1, c1) = broker_stream(42);
    let (e2, c2) = broker_stream(42);
    assert!(e1 > 3_000, "trace too small: {e1}");
    assert!(!c1.is_empty(), "no candidates detected");
    assert_eq!(e1, e2);
    assert_eq!(c1, c2);
}

#[test]
fn different_seeds_differ() {
    let (_, c1) = broker_stream(1);
    let (_, c2) = broker_stream(2);
    // Candidate counts coinciding exactly across different workloads would
    // suggest the seed is ignored somewhere.
    assert_ne!(
        c1.len(),
        c2.len(),
        "seeds produced identical candidate counts"
    );
}
