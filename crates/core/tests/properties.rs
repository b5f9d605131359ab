//! Property tests for the detection core beyond what the unit tests and
//! the facade's cross-implementation suites cover: scratch-buffer hygiene
//! and algorithm-choice independence.

use magicrecs_core::{Engine, ThresholdAlgo};
use magicrecs_graph::GraphBuilder;
use magicrecs_types::{Candidate, DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};
use proptest::prelude::*;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn build_graph(edges: &[(u64, u64)]) -> magicrecs_graph::FollowGraph {
    let mut b = GraphBuilder::new();
    b.extend(edges.iter().map(|&(a, bb)| (u(a), u(bb))));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three threshold algorithms produce identical engine output on
    /// arbitrary graphs and traces (algorithm choice is purely a
    /// performance knob).
    #[test]
    fn threshold_algo_is_transparent(
        edges in proptest::collection::vec((0u64..20, 20u64..32), 1..80),
        actions in proptest::collection::vec((20u64..32, 32u64..40, 0u64..1_000), 1..60),
    ) {
        let graph = build_graph(&edges);
        let mut events: Vec<EdgeEvent> = actions
            .iter()
            .map(|&(src, dst, at)| EdgeEvent::follow(u(src), u(dst), Timestamp::from_secs(at)))
            .collect();
        events.sort_by_key(|e| e.created_at);
        let cfg = DetectorConfig::example().with_tau(Duration::from_secs(300));

        let mut outputs: Vec<Vec<Candidate>> = Vec::new();
        for algo in [
            ThresholdAlgo::ScanCount,
            ThresholdAlgo::HeapMerge,
            ThresholdAlgo::PivotSkip,
            ThresholdAlgo::PivotTree,
            ThresholdAlgo::Adaptive,
        ] {
            let mut engine = Engine::with_algo(graph.clone(), cfg, algo).unwrap();
            outputs.push(engine.process_trace(events.iter().copied()));
        }
        for pair in outputs.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }

    /// Processing events one-by-one equals processing them as a trace
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

        let mut e1 = Engine::new(graph.clone(), cfg).unwrap();
        let batch = e1.process_trace(events.iter().copied());

        let mut e2 = Engine::new(graph, cfg).unwrap();
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
        let mut e1 = Engine::new(graph.clone(), uncapped).unwrap();
        let mut e2 = Engine::new(graph, capped).unwrap();
        prop_assert_eq!(
            e1.process_trace(events.iter().copied()),
            e2.process_trace(events.iter().copied())
        );
    }
}
