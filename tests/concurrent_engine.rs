//! Integration tests for the shared-state engine: N threads driving one
//! `ConcurrentEngine`, per-event candidate parity with a single-thread
//! run and the shared cluster wrapper — every reference anchored on the
//! brute-force `BatchOracle`.

use magicrecs::baseline::BatchOracle;
use magicrecs::cluster::SharedEngineCluster;
use magicrecs::gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs::prelude::*;
use std::sync::Arc;

fn capped_config() -> DetectorConfig {
    DetectorConfig {
        max_witnesses: Some(8),
        ..DetectorConfig::example()
    }
}

fn test_graph(users: u64) -> FollowGraph {
    GraphGen::new(GraphGenConfig::small().with_users(users)).generate()
}

/// A steady trace much shorter than τ (10 min), so expiry cadence cannot
/// perturb cross-thread comparisons.
fn test_trace(users: u64, seed: u64) -> Vec<EdgeEvent> {
    Scenario::steady(
        users,
        ScenarioConfig {
            rate_per_sec: 80.0,
            duration: Duration::from_secs(30),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: 1.0,
            seed,
        },
    )
    .events()
    .to_vec()
}

/// The acceptance-criteria parity check: one `ConcurrentEngine` shared by
/// 4 threads produces, for every event, the same candidate set
/// (order-insensitive) as a single-thread run on the same trace, which in
/// turn reproduces the oracle.
#[test]
fn four_threads_sharing_one_engine_match_sequential_per_event() {
    let graph = test_graph(1_200);
    let trace = test_trace(1_200, 0xC0FFEE);
    let config = capped_config();

    // Single-thread reference: candidates per event index.
    let seq = ConcurrentEngine::new(graph.clone(), config).unwrap();
    let expected: Vec<Vec<Candidate>> = trace.iter().map(|&e| seq.on_event(e)).collect();
    assert_eq!(
        expected.concat(),
        BatchOracle::new(config).unwrap().replay(&graph, &trace),
        "single-thread reference diverged from the oracle"
    );

    // Shared engine, 4 threads, routed by target so per-target order holds.
    const WORKERS: usize = 4;
    let engine = ConcurrentEngine::new(graph, config).unwrap();
    let mut shards: Vec<Vec<(usize, EdgeEvent)>> = vec![Vec::new(); WORKERS];
    for (idx, &e) in trace.iter().enumerate() {
        shards[(e.dst.raw() % WORKERS as u64) as usize].push((idx, e));
    }
    let mut got: Vec<Option<Vec<Candidate>>> = vec![None; trace.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = shards
            .iter()
            .map(|shard| {
                let engine = &engine;
                scope.spawn(move || {
                    shard
                        .iter()
                        .map(|&(idx, e)| (idx, engine.on_event(e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (idx, candidates) in worker.join().unwrap() {
                got[idx] = Some(candidates);
            }
        }
    });

    let mut firing = 0usize;
    for (idx, want) in expected.iter().enumerate() {
        let mut got = got[idx].take().expect("event processed");
        // Candidate *sets* must match; order across threads is incidental
        // (the engine emits sorted per event anyway, so this is belt and
        // braces).
        got.sort_by_key(|c| (c.user, c.target));
        let mut want = want.clone();
        want.sort_by_key(|c| (c.user, c.target));
        assert_eq!(got, want, "event {idx} diverged");
        firing += usize::from(!want.is_empty());
    }
    assert!(firing > 0, "trace should close at least one diamond");
    assert_eq!(engine.stats().events, trace.len() as u64);
}

/// The cluster-level wrapper agrees with the oracle as the worker count
/// varies (1, 2, 4 over the same trace).
#[test]
fn shared_cluster_scaling_preserves_results() {
    let graph = test_graph(900);
    let trace = test_trace(900, 7);
    let config = capped_config();

    let mut expected = BatchOracle::new(config).unwrap().replay(&graph, &trace);
    expected.sort_by(|a, b| {
        (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
    });

    for workers in [1usize, 2, 4] {
        let report = SharedEngineCluster::new(&graph, workers, config)
            .unwrap()
            .run_trace(&trace)
            .unwrap();
        assert_eq!(report.candidates, expected, "workers={workers}");
    }
}

/// `swap_graph` mid-stream is safe under concurrent load and takes effect
/// for subsequent events.
#[test]
fn graph_swap_under_concurrent_load() {
    let mut sparse = GraphBuilder::new();
    sparse.add_edge(UserId(1), UserId(11));
    let engine =
        Arc::new(ConcurrentEngine::new(sparse.build(), DetectorConfig::example()).unwrap());

    // Background load on unrelated targets while we swap.
    let bg = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for i in 0..5_000u64 {
                engine.on_event(EdgeEvent::follow(
                    UserId(500 + i % 7),
                    UserId(10_000 + i % 97),
                    Timestamp::from_secs(100),
                ));
            }
        })
    };

    let c = UserId(99);
    engine.on_event(EdgeEvent::follow(UserId(11), c, Timestamp::from_secs(100)));
    assert!(engine
        .on_event(EdgeEvent::follow(UserId(12), c, Timestamp::from_secs(101)))
        .is_empty());

    let mut dense = GraphBuilder::new();
    dense.extend([
        (UserId(1), UserId(11)),
        (UserId(1), UserId(12)),
        (UserId(2), UserId(11)),
        (UserId(2), UserId(12)),
    ]);
    engine.swap_graph(dense.build());

    let after = engine.on_event(EdgeEvent::follow(UserId(12), c, Timestamp::from_secs(102)));
    let users: Vec<UserId> = after.iter().map(|r| r.user).collect();
    assert_eq!(users, vec![UserId(1), UserId(2)]);
    bg.join().unwrap();
}
