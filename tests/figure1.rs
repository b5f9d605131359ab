//! Figure 1 of the paper, verified across every implementation in the
//! workspace: the hand-coded engine, the threaded cluster, the batch
//! oracle, the polling baseline and the two-hop baselines all agree that creating `B2 → C2` recommends `C2` to `A2`
//! (and to no one else).

use magicrecs::baseline::{BatchOracle, PollingDetector, TwoHopBloom, TwoHopExact};
use magicrecs::cluster::ThreadedCluster;
use magicrecs::prelude::*;

fn a(n: u64) -> UserId {
    UserId(n)
}

/// A1→B1, A2→{B1,B2}, A3→B2 — the paper's schematic fragment.
fn figure1_graph() -> FollowGraph {
    let mut g = GraphBuilder::new();
    g.extend([(a(1), a(11)), (a(2), a(11)), (a(2), a(12)), (a(3), a(12))]);
    g.build()
}

fn events() -> Vec<EdgeEvent> {
    vec![
        EdgeEvent::follow(a(11), a(22), Timestamp::from_secs(10)),
        EdgeEvent::follow(a(12), a(22), Timestamp::from_secs(40)),
    ]
}

/// The expected outcome: exactly one recommendation, C2 → A2, witnessed by
/// B1 and B2, triggered by the second edge.
fn assert_figure1(candidates: &[Candidate], impl_name: &str) {
    assert_eq!(candidates.len(), 1, "{impl_name}: wrong candidate count");
    let c = &candidates[0];
    assert_eq!(c.user, a(2), "{impl_name}: wrong user");
    assert_eq!(c.target, a(22), "{impl_name}: wrong target");
    assert_eq!(c.witnesses, vec![a(11), a(12)], "{impl_name}: witnesses");
    assert_eq!(
        c.triggered_at,
        Timestamp::from_secs(40),
        "{impl_name}: trigger time"
    );
}

#[test]
fn engine_reproduces_figure1() {
    let engine = ConcurrentEngine::new(figure1_graph(), DetectorConfig::example()).unwrap();
    let out = engine.on_events(&events());
    assert_figure1(&out, "ConcurrentEngine");
}

#[test]
fn threaded_cluster_reproduces_figure1() {
    let cluster = ThreadedCluster::new(&figure1_graph(), 3, DetectorConfig::example()).unwrap();
    let report = cluster.run_trace(&events()).unwrap();
    assert_figure1(&report.candidates, "ThreadedCluster");
}

#[test]
fn batch_oracle_reproduces_figure1() {
    let oracle = BatchOracle::new(DetectorConfig::example()).unwrap();
    let out = oracle.replay(&figure1_graph(), &events());
    assert_figure1(&out, "BatchOracle");
}

#[test]
fn polling_baseline_reproduces_figure1_late() {
    let det = PollingDetector::new(DetectorConfig::example(), Duration::from_secs(60)).unwrap();
    let report = det.run(&figure1_graph(), &events());
    assert_eq!(report.recommendations.len(), 1, "polling found the motif");
    assert_eq!(report.recommendations[0].user, a(2));
    // But late: the poll tick trails the completion.
    assert!(
        report.latency.p50_us > 0,
        "polling latency must be non-zero"
    );
}

#[test]
fn two_hop_baselines_reproduce_figure1() {
    let g = figure1_graph();
    let mut exact = TwoHopExact::new(DetectorConfig::example()).unwrap();
    let mut out = Vec::new();
    for e in events() {
        out.extend(exact.on_event(&g, e));
    }
    assert_eq!(out.len(), 1, "TwoHopExact");
    assert_eq!(out[0].user, a(2));

    let mut bloom = TwoHopBloom::new(DetectorConfig::example(), 1000, 0.01).unwrap();
    let mut pairs = Vec::new();
    for e in events() {
        pairs.extend(bloom.on_event(&g, e));
    }
    assert_eq!(pairs, vec![(a(2), a(22))], "TwoHopBloom");
}

#[test]
fn no_motif_when_window_elapses() {
    // Same fragment, but the second follow arrives after τ: every
    // implementation stays silent.
    let stale = vec![
        EdgeEvent::follow(a(11), a(22), Timestamp::from_secs(10)),
        EdgeEvent::follow(a(12), a(22), Timestamp::from_secs(10_000)),
    ];
    let engine = ConcurrentEngine::new(figure1_graph(), DetectorConfig::example()).unwrap();
    assert!(engine.on_events(&stale).is_empty());
    let oracle = BatchOracle::new(DetectorConfig::example()).unwrap();
    assert!(oracle.replay(&figure1_graph(), &stale).is_empty());
}
