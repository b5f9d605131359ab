//! Quickstart: the paper's Figure 1 walkthrough, end to end.
//!
//! Builds the schematic graph fragment, runs the online engine with the
//! paper's example parameters (k = 2), and shows the diamond motif closing
//! in real time when `B2 → C2` arrives.
//!
//! Run with: `cargo run --example quickstart`

use magicrecs::prelude::*;

fn main() {
    // ── Figure 1 of the paper ───────────────────────────────────────────
    // A1 follows B1; A2 follows B1 and B2; A3 follows B2.
    // The dashed B→C edges arrive on the live stream.
    let a1 = UserId(1);
    let a2 = UserId(2);
    let a3 = UserId(3);
    let b1 = UserId(11);
    let b2 = UserId(12);
    let c2 = UserId(22);

    let mut builder = GraphBuilder::new();
    builder.add_edge(a1, b1);
    builder.add_edge(a2, b1);
    builder.add_edge(a2, b2);
    builder.add_edge(a3, b2);
    let graph = builder.build();

    println!(
        "Static graph loaded: {} follow edges",
        graph.num_follow_edges()
    );
    println!("  followers(B1) = {:?}", graph.followers(b1));
    println!("  followers(B2) = {:?}", graph.followers(b2));

    // ── Online engine, k = 2 (the paper's running example) ─────────────
    let engine = ConcurrentEngine::new(graph, DetectorConfig::example()).expect("valid config");

    // B1 → C2 arrives: one witness, no recommendation yet.
    let t0 = Timestamp::from_secs(100);
    let recs = engine.on_event(EdgeEvent::follow(b1, c2, t0));
    println!("\n[{t0}] B1 follows C2 -> {} recommendations", recs.len());

    // B2 → C2 arrives 30 s later: the diamond closes.
    let t1 = t0 + Duration::from_secs(30);
    let recs = engine.on_event(EdgeEvent::follow(b2, c2, t1));
    println!("[{t1}] B2 follows C2 -> {} recommendation(s)", recs.len());
    for r in &recs {
        println!(
            "  push C{} to A{}  (because followings {:?} followed within τ)",
            r.target, r.user, r.witnesses
        );
    }

    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].user, a2);
    assert_eq!(recs[0].target, c2);

    // ── What the paper says should happen ───────────────────────────────
    println!(
        "\nPaper §2: \"when the edge B2 → C2 is created, we want to push C2 \
         to A2 as a recommendation\" — reproduced."
    );
    let s = engine.stats();
    println!(
        "Engine stats: {} events, {} candidates, detection p50 = {} µs",
        s.events, s.candidates, s.detect_time.p50_us
    );
}
