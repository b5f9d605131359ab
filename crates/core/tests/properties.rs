//! Property tests for the detection core beyond what the unit tests and
//! the facade's cross-implementation suites cover: the candidate contract
//! against a full recompute, first-emission timing, and scratch-buffer
//! hygiene.

use magicrecs_core::threshold::{lists_containing, threshold_naive};
use magicrecs_core::{ConcurrentEngine, DiamondDetector};
use magicrecs_graph::{FollowGraph, GraphBuilder};
use magicrecs_temporal::TemporalEdgeStore;
use magicrecs_types::{Candidate, DenseId, DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};
use proptest::prelude::*;
use std::collections::HashSet;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn build_graph(edges: &[(u64, u64)]) -> FollowGraph {
    let mut b = GraphBuilder::new();
    b.extend(edges.iter().map(|&(a, bb)| (u(a), u(bb))));
    b.build()
}

/// The detector's bottom half recomputed from scratch: cap and sort the
/// witnesses, count every capped witness's follower list with the
/// brute-force `threshold_naive`, apply the filters, keep only candidates
/// with a fresh witness when `fresh_only`, then the per-event cap.
fn full_recompute(
    s: &FollowGraph,
    cfg: &DetectorConfig,
    target: UserId,
    t: Timestamp,
    witnesses: &[(UserId, Timestamp)],
    fresh_only: bool,
) -> Vec<Candidate> {
    if witnesses.len() < cfg.k {
        return Vec::new();
    }
    let mut w = witnesses.to_vec();
    if let Some(cap) = cfg.max_witnesses {
        if w.len() > cap {
            w.sort_by_key(|&(b, at)| (std::cmp::Reverse(at), b));
            w.truncate(cap);
        }
    }
    w.sort_by_key(|&(b, _)| b);
    let lists: Vec<&[DenseId]> = w
        .iter()
        .map(|&(b, _)| s.dense_of(b).map_or(&[][..], |d| s.followers_dense(d)))
        .collect();
    let matches = threshold_naive(&lists, cfg.k);
    let dense_target = s.dense_of(target);
    let mut out = Vec::new();
    for (a, _) in matches {
        let user = s.user_of(a);
        if Some(a) == dense_target {
            continue;
        }
        if cfg.skip_existing
            && (w.iter().any(|&(b, _)| b == user)
                || dense_target.is_some_and(|c| s.follows_dense(a, c)))
        {
            continue;
        }
        let hit = lists_containing(&lists, a);
        if fresh_only && !hit.iter().any(|&i| w[i as usize].1 == t) {
            continue;
        }
        if cfg
            .max_candidates_per_event
            .is_some_and(|cap| out.len() >= cap)
        {
            break;
        }
        out.push(Candidate {
            user,
            target,
            witnesses: hit.iter().map(|&i| w[i as usize].0).collect(),
            triggered_at: t,
        });
    }
    out
}

/// Replays `events` through a store and the detector kernel; calls
/// `check(index, witnesses, detector output)` per insertion.
fn replay_with_witnesses(
    s: &FollowGraph,
    cfg: DetectorConfig,
    events: &[EdgeEvent],
    mut check: impl FnMut(usize, &[(UserId, Timestamp)], &[Candidate]),
) {
    let mut store = TemporalEdgeStore::with_window(cfg.tau);
    let mut det = DiamondDetector::new(cfg).unwrap();
    for (i, e) in events.iter().enumerate() {
        if !e.kind.is_insertion() {
            store.remove(e.src, e.dst);
            continue;
        }
        store.insert(e.src, e.dst, e.created_at);
        let w = store.witnesses(e.dst, e.created_at);
        let mut got = Vec::new();
        det.detect_into(
            s,
            e.dst,
            e.created_at,
            |buf| buf.extend_from_slice(&w),
            &mut got,
        );
        check(i, &w, &got);
    }
}

/// Arbitrary follow/unfollow events: sources 12..32 (some of them also
/// followers in the graph), targets 32..38, whole-second timestamps in a
/// short span so same-microsecond groups are common.
fn events_strategy() -> impl Strategy<Value = Vec<EdgeEvent>> {
    proptest::collection::vec((12u64..32, 32u64..38, 0u64..90, 0u8..8), 1..80).prop_map(|v| {
        v.into_iter()
            .map(|(src, dst, at, kind)| {
                let at = Timestamp::from_secs(at);
                if kind == 0 {
                    EdgeEvent::unfollow(u(src), u(dst), at)
                } else {
                    EdgeEvent::follow(u(src), u(dst), at)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The candidate contract, per event and on any event order: the
    /// detector emits exactly the full recompute's candidates that have a
    /// fresh witness, under every filter and cap combination.
    #[test]
    fn detector_equals_fresh_filtered_full_recompute(
        edges in proptest::collection::vec((0u64..24, 12u64..38), 1..120),
        events in events_strategy(),
        k in 2usize..4,
        witness_cap in 0usize..6,
        candidate_cap in 0usize..4,
        skip_existing in prop::bool::ANY,
    ) {
        let graph = build_graph(&edges);
        let cfg = DetectorConfig {
            k,
            tau: Duration::from_secs(40),
            // 0 stands for "no cap".
            max_witnesses: (witness_cap > 0).then(|| witness_cap.max(k)),
            max_candidates_per_event: (candidate_cap > 0).then_some(candidate_cap),
            skip_existing,
        };
        let mut failures = Vec::new();
        replay_with_witnesses(&graph, cfg, &events, |i, w, got| {
            let e = events[i];
            let want = full_recompute(&graph, &cfg, e.dst, e.created_at, w, true);
            if got != want.as_slice() {
                failures.push((i, got.to_vec(), want));
            }
        });
        prop_assert!(failures.is_empty(), "{:?}", failures.first());
    }

    /// On a time-ordered trace with `skip_existing: false`, delta detection
    /// loses no first emission: every `(A, C)` pair the full recompute
    /// emits for the first time fires at that same event.
    #[test]
    fn first_emissions_fire_at_the_same_event(
        edges in proptest::collection::vec((0u64..24, 12u64..38), 1..120),
        events in events_strategy(),
        k in 2usize..4,
        witness_cap in 0usize..6,
    ) {
        let graph = build_graph(&edges);
        let mut events = events;
        events.sort_by_key(|e| e.created_at);
        let cfg = DetectorConfig {
            k,
            tau: Duration::from_secs(40),
            max_witnesses: (witness_cap > 0).then(|| witness_cap.max(k)),
            max_candidates_per_event: None,
            skip_existing: false,
        };
        let mut seen: HashSet<(UserId, UserId)> = HashSet::new();
        let mut missed = Vec::new();
        replay_with_witnesses(&graph, cfg, &events, |i, w, got| {
            let e = events[i];
            for c in full_recompute(&graph, &cfg, e.dst, e.created_at, w, false) {
                if seen.insert((c.user, c.target))
                    && !got.iter().any(|g| g.user == c.user && g.target == c.target)
                {
                    missed.push((i, c));
                }
            }
        });
        prop_assert!(missed.is_empty(), "{:?}", missed.first());
    }

    /// Processing events one-by-one equals processing them as one batch
    /// (scratch buffers carry no state across events).
    #[test]
    fn per_event_equals_trace(
        edges in proptest::collection::vec((0u64..15, 15u64..25), 1..50),
        actions in proptest::collection::vec((15u64..25, 25u64..30, 0u64..500), 1..40),
    ) {
        let graph = build_graph(&edges);
        let mut events: Vec<EdgeEvent> = actions
            .iter()
            .map(|&(src, dst, at)| EdgeEvent::follow(u(src), u(dst), Timestamp::from_secs(at)))
            .collect();
        events.sort_by_key(|e| e.created_at);
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(300));

        let e1 = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
        let batch = e1.on_events(&events);

        let e2 = ConcurrentEngine::new(graph, cfg).unwrap();
        let mut single = Vec::new();
        for &e in &events {
            single.extend(e2.on_event(e));
        }
        prop_assert_eq!(batch, single);
    }

    /// Engine candidate output is invariant to the store's entry cap as
    /// long as the cap comfortably exceeds the distinct in-window sources
    /// (the regime property tests run in).
    #[test]
    fn entry_cap_transparent_at_test_scale(
        edges in proptest::collection::vec((0u64..15, 15u64..25), 1..50),
        actions in proptest::collection::vec((15u64..25, 25u64..28, 0u64..300), 1..50),
    ) {
        let graph = build_graph(&edges);
        let mut events: Vec<EdgeEvent> = actions
            .iter()
            .map(|&(src, dst, at)| EdgeEvent::follow(u(src), u(dst), Timestamp::from_secs(at)))
            .collect();
        events.sort_by_key(|e| e.created_at);

        // Uncapped store (max_witnesses None) vs capped (Some(64) ⇒ entry
        // cap 1024): at ≤ 10 distinct sources per target both see all
        // witnesses.
        let uncapped = DetectorConfig::example().with_tau(Duration::from_secs(300));
        let capped = DetectorConfig {
            max_witnesses: Some(64),
            ..uncapped
        };
        let e1 = ConcurrentEngine::new(graph.clone(), uncapped).unwrap();
        let e2 = ConcurrentEngine::new(graph, capped).unwrap();
        prop_assert_eq!(e1.on_events(&events), e2.on_events(&events));
    }
}
