//! Failure injection at the engine: out-of-order delivery, duplicate
//! delivery, and clock anomalies.

use magicrecs::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn ts(s: u64) -> Timestamp {
    Timestamp::from_secs(s)
}

fn graph() -> FollowGraph {
    let mut g = GraphBuilder::new();
    for a in 0..20u64 {
        g.add_edge(u(a), u(100));
        g.add_edge(u(a), u(101));
        g.add_edge(u(a), u(102));
    }
    g.build()
}

#[test]
fn out_of_order_delivery_detects_motifs() {
    // A reordering transport can deliver three witness edges in any of
    // their 6 orders; detection must find the motif in every one, since
    // all three edges remain within the window whichever arrives last.
    let events: Vec<EdgeEvent> = [100u64, 101, 102]
        .iter()
        .enumerate()
        .map(|(i, &b)| EdgeEvent::follow(u(b), u(900), ts(10 + i as u64)))
        .collect();
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let engine = ConcurrentEngine::new(graph(), DetectorConfig::production()).unwrap();
        let found: usize = order
            .iter()
            .map(|&i| engine.on_event(events[i]).len())
            .sum();
        assert_eq!(
            found, 20,
            "order {order:?}: all 20 As follow the three witnesses"
        );
    }
}

#[test]
fn duplicate_events_do_not_double_count_witnesses() {
    // The same B→C edge delivered 5 times is still one witness.
    let engine = ConcurrentEngine::new(graph(), DetectorConfig::production()).unwrap();
    for _ in 0..5 {
        let out = engine.on_event(EdgeEvent::follow(u(100), u(900), ts(10)));
        assert!(out.is_empty(), "k=3 must not fire on one distinct witness");
    }
    // Two more distinct witnesses close it exactly once per event.
    assert!(engine
        .on_event(EdgeEvent::follow(u(101), u(900), ts(11)))
        .is_empty());
    let out = engine.on_event(EdgeEvent::follow(u(102), u(900), ts(12)));
    assert_eq!(out.len(), 20, "all 20 As follow the three witnesses");
}

#[test]
fn clock_skew_events_do_not_panic() {
    let engine = ConcurrentEngine::new(graph(), DetectorConfig::example()).unwrap();
    // Events at the epoch, far future, and "before" previous events.
    engine.on_event(EdgeEvent::follow(u(100), u(900), Timestamp::ZERO));
    engine.on_event(EdgeEvent::follow(u(101), u(900), ts(1_000_000_000)));
    engine.on_event(EdgeEvent::follow(u(102), u(900), ts(5)));
    // Unfollow for an edge never seen.
    engine.on_event(EdgeEvent::unfollow(u(103), u(901), ts(1)));
}

#[test]
fn burst_of_identical_timestamps() {
    // Many events at the same instant (batch import flush).
    let engine = ConcurrentEngine::new(graph(), DetectorConfig::production()).unwrap();
    let mut total = 0;
    for b in [100u64, 101, 102] {
        total += engine
            .on_event(EdgeEvent::follow(u(b), u(900), ts(42)))
            .len();
    }
    assert_eq!(total, 20, "same-instant edges count as correlated");
}
