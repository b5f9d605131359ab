//! Celebrity burst: the paper's motivating flash-crowd scenario at
//! cluster scale.
//!
//! Generates a Twitter-shaped follow graph, deploys the paper's 20-partition
//! architecture, and replays a steady background stream plus a celebrity
//! joining — a burst of follows converging on one fresh account. The motif
//! detector turns that temporal correlation into recommendations.
//!
//! Run with: `cargo run --release --example celebrity_burst`

use magicrecs::cluster::ThreadedCluster;
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
    let partitions = 20;
    let cluster = ThreadedCluster::new(&graph, partitions, DetectorConfig::production())
        .expect("valid configs");
    println!("Cluster: {partitions} partitions (partitioned by A, full D per partition)");

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
        (trace.end().unwrap() - trace.start().unwrap()).as_secs_f64()
    );

    // ── Replay through the cluster ──────────────────────────────────────
    let report = cluster.run_trace(trace.events()).expect("cluster run");
    let candidates = report.candidates.len();
    let celebrity_candidates = report
        .candidates
        .iter()
        .filter(|c| c.target == celebrity)
        .count();

    println!("\n── Results ───────────────────────────────────────────────");
    println!("Candidates:            {candidates}");
    println!(
        "  recommending the new celebrity: {celebrity_candidates} \
         (each user's own followings vouched for it)"
    );

    // Per-partition detection cost: the paper's "a few milliseconds".
    let worst_p99 = report
        .engines
        .iter()
        .map(|p| p.stats().detect_time.p99_us)
        .max()
        .unwrap_or(0);
    println!("Worst per-partition detection p99: {worst_p99} µs");
    assert!(
        celebrity_candidates > 0,
        "the burst should produce candidates"
    );
}
