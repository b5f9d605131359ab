//! Celebrity burst: the paper's motivating flash-crowd scenario at
//! cluster scale.
//!
//! Generates a Twitter-shaped follow graph, deploys the paper's 20-partition
//! architecture, and replays a steady background stream plus a celebrity
//! joining — a burst of follows converging on one fresh account. The motif
//! detector turns that temporal correlation into recommendations.
//!
//! Run with: `cargo run --release --example celebrity_burst`

use magicrecs::cluster::Broker;
use magicrecs::gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs::prelude::*;

fn main() {
    // ── A Twitter-shaped graph: power-law in/out degrees ────────────────
    let users = 5_000u64;
    let gen = GraphGen::new(GraphGenConfig {
        users,
        mean_out_degree: 30.0,
        ..GraphGenConfig::small()
    });
    let graph = gen.generate();
    println!(
        "Generated follow graph: {} users, {} edges",
        users,
        graph.num_follow_edges()
    );

    // ── The paper's deployment: 20 partitions, k = 3 ────────────────────
    let detector = DetectorConfig::production();
    let mut broker =
        Broker::new(&graph, ClusterConfig::production(), detector).expect("valid configs");
    println!(
        "Cluster: {} partitions (partitioned by A, full D per partition)",
        broker.num_partitions()
    );

    // ── Workload: steady background + a celebrity joining at t=noon+60s ─
    let noon = Timestamp::from_secs(12 * 3600);
    let cfg = ScenarioConfig {
        rate_per_sec: 50.0,
        duration: Duration::from_secs(120),
        start: noon,
        ..ScenarioConfig::small()
    };
    let background = Scenario::steady(users, cfg);
    let celebrity = UserId(users + 1); // a brand-new account
    let burst = Scenario::celebrity_join(
        &graph,
        celebrity,
        400,
        Duration::from_secs(60),
        ScenarioConfig {
            start: noon + Duration::from_secs(60),
            ..cfg
        },
    );
    let trace = background.merge(burst);
    println!(
        "Trace: {} events over {:.0}s (burst of 400 follows to the celebrity at t=60s)",
        trace.len(),
        trace.end().unwrap().as_secs_f64()
    );

    // ── Replay through the cluster ──────────────────────────────────────
    let mut candidates = 0u64;
    let mut celebrity_candidates = 0u64;
    for &event in trace.events() {
        for candidate in broker.on_event(event) {
            candidates += 1;
            if candidate.target == celebrity {
                celebrity_candidates += 1;
            }
        }
    }

    println!("\n── Results ───────────────────────────────────────────────");
    println!("Candidates:            {candidates}");
    println!(
        "  recommending the new celebrity: {celebrity_candidates} \
         (each user's own followings vouched for it)"
    );

    // Per-partition detection cost: the paper's "a few milliseconds".
    let mut worst_p99 = 0;
    for p in broker.partitions() {
        worst_p99 = worst_p99.max(p.stats().detect_time.p99_us);
    }
    println!("Worst per-partition detection p99: {worst_p99} µs");
    assert!(
        celebrity_candidates > 0,
        "the burst should produce candidates"
    );
}
