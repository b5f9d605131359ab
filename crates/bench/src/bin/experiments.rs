//! The experiments harness: one markdown table per paper claim it measures.
//!
//! Usage:
//!   cargo run -p magicrecs-bench --release --bin experiments           # all
//!   cargo run -p magicrecs-bench --release --bin experiments -- e2 e5 # some
//!
//! Each experiment prints a markdown table plus the paper's corresponding
//! claim. A ✓ marks a claim the run asserts; claims that rest on
//! wall-clock time print without one. Experiment numbers are stable: E3
//! (queue-latency model), E4 (delivery funnel) and E10 (declarative motif
//! DSL) were retired.

use magicrecs_baseline::{CountingBloom, PollingDetector, TwoHopBloom, TwoHopExact};
use magicrecs_bench::{
    bench_detector_config, bench_trace, fmt_bytes, fmt_rate, header, row, small_graph,
};
use magicrecs_cluster::{Broker, ThreadedCluster};
use magicrecs_core::ConcurrentEngine;
use magicrecs_gen::{GraphGen, GraphGenConfig};
use magicrecs_graph::{CapStrategy, GraphBuilder, GraphStats};
use magicrecs_temporal::{PruneStrategy, TemporalEdgeStore};
use magicrecs_types::{ClusterConfig, DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("# magicrecs experiments\n");
    if want("e1") {
        e1_figure1();
    }
    if want("e2") {
        e2_throughput();
    }
    if want("e5") {
        e5_baselines();
    }
    if want("e6") {
        e6_partitions();
    }
    if want("e7") {
        e7_pruning();
    }
    if want("e8") {
        e8_k_tau();
    }
    if want("e9") {
        e9_influencer_cap();
    }
}

fn u(n: u64) -> UserId {
    UserId(n)
}

// ───────────────────────────── E1 ────────────────────────────────────────

fn e1_figure1() {
    println!("## E1 — Figure 1 walkthrough (§2 running example, k = 2)\n");
    let mut g = GraphBuilder::new();
    g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
    let graph = g.build();
    let engine = ConcurrentEngine::new(graph, DetectorConfig::example()).unwrap();
    let r1 = engine.on_event(EdgeEvent::follow(u(11), u(22), Timestamp::from_secs(10)));
    let r2 = engine.on_event(EdgeEvent::follow(u(12), u(22), Timestamp::from_secs(40)));
    println!("{}", header(&["event", "recommendations"]));
    println!("{}", row(&["B1 → C2".into(), format!("{}", r1.len())]));
    println!(
        "{}",
        row(&[
            "B2 → C2".into(),
            format!(
                "{} (push C2 to {})",
                r2.len(),
                r2.iter()
                    .map(|c| format!("A{}", c.user))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ])
    );
    assert!(r1.is_empty(), "B1 → C2 alone must not fire");
    assert_eq!(
        r2.iter().map(|c| (c.user, c.target)).collect::<Vec<_>>(),
        [(u(2), u(22))],
        "B2 → C2 must push C2 to A2 and to no one else"
    );
    println!("\nPaper: \"when the edge B2 → C2 is created, we want to push C2 to A2\" ✓\n");
}

// ───────────────────────────── E2 ────────────────────────────────────────

fn e2_throughput() {
    println!("## E2 — Single-node ingest+detect throughput (paper target: 10⁴ insertions/s)\n");
    println!(
        "{}",
        header(&[
            "users",
            "edges",
            "events",
            "wall",
            "throughput",
            "detect p50",
            "detect p99"
        ])
    );
    for users in [5_000u64, 20_000, 50_000] {
        let graph = small_graph(users);
        let edges = graph.num_follow_edges();
        let trace = bench_trace(users, 2_000.0, 30, 0xE2);
        let engine = ConcurrentEngine::new(graph, bench_detector_config()).unwrap();
        let start = Instant::now();
        for &e in trace.events() {
            engine.on_event(e);
        }
        let wall = start.elapsed();
        let thr = trace.len() as f64 / wall.as_secs_f64();
        let d = engine.stats().detect_time;
        println!(
            "{}",
            row(&[
                format!("{users}"),
                format!("{edges}"),
                format!("{}", trace.len()),
                format!("{:.2}s", wall.as_secs_f64()),
                fmt_rate(thr),
                format!("{} µs", d.p50_us),
                format!("{} µs", d.p99_us),
            ])
        );
    }
    println!("\nPaper: \"our design targets O(10⁴) edge insertions per second\"; compare the");
    println!("throughput column (wall-clock, so unasserted) against that target.\n");
}

// ───────────────────────────── E5 ────────────────────────────────────────

fn e5_baselines() {
    println!("## E5 — The two ruled-out naive designs (§2)\n");
    let users = 2_000u64;
    let graph = small_graph(users);
    let trace = bench_trace(users, 100.0, 120, 0xE5);
    let cfg = bench_detector_config();

    // Online reference. The online detector re-fires as witnesses
    // accumulate, so compare *distinct pairs* against polling (which
    // reports each pair once).
    let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
    let t0 = Instant::now();
    let online = engine.on_events(trace.events());
    let online_wall = t0.elapsed();
    let mut online_pairs: Vec<(UserId, UserId)> =
        online.iter().map(|c| (c.user, c.target)).collect();
    online_pairs.sort_unstable();
    online_pairs.dedup();
    let d = engine.stats().detect_time;

    println!("### E5a — Polling vs online (latency)\n");
    println!(
        "{}",
        header(&[
            "design",
            "detection median",
            "detection p99",
            "edges scanned",
            "distinct (A,C) pairs"
        ])
    );
    println!(
        "{}",
        row(&[
            "online (this paper)".into(),
            format!("{} µs", d.p50_us),
            format!("{} µs", d.p99_us),
            format!("{} (wall {:.2}s)", trace.len(), online_wall.as_secs_f64()),
            online_pairs.len().to_string(),
        ])
    );
    for interval in [10u64, 60, 300] {
        let det = PollingDetector::new(cfg, Duration::from_secs(interval)).unwrap();
        let report = det.run(&graph, trace.events());
        assert!(
            report.latency.p50_us > d.p99_us,
            "polling every {interval} s must be slower at p50 than online at p99"
        );
        println!(
            "{}",
            row(&[
                format!("poll every {interval} s"),
                format!("{:.1} s", report.latency.p50_us as f64 / 1e6),
                format!("{:.1} s", report.latency.p99_us as f64 / 1e6),
                report.edges_scanned.to_string(),
                report.recommendations.len().to_string(),
            ])
        );
    }
    println!("\nPaper: \"the latency would be unacceptably large\" — polling latency is");
    println!("O(interval) seconds vs microseconds online. ✓\n");

    println!("### E5b — Two-hop materialization vs S+D (memory)\n");
    let mut exact = TwoHopExact::new(cfg).unwrap();
    let mut bloom = TwoHopBloom::new(cfg, 10_000, 0.01).unwrap();
    for &e in trace.events() {
        exact.on_event(&graph, e);
        bloom.on_event(&graph, e);
    }
    let online_mem = engine.memory_bytes();
    let exact_per_user = exact.memory_bytes() as f64 / exact.tracked_users().max(1) as f64;
    let bloom_per_user = bloom.memory_bytes() as f64 / bloom.tracked_users().max(1) as f64;
    // The paper-scale rough calculation: two-hop sets reach ~10⁶ accounts.
    let paper_bloom = CountingBloom::new(1_000_000, 0.01).memory_bytes() as f64;

    println!(
        "{}",
        header(&[
            "design",
            "measured (this run)",
            "per active user",
            "projected at 10⁸ users"
        ])
    );
    println!(
        "{}",
        row(&[
            "online S + D".into(),
            fmt_bytes(online_mem),
            "n/a (S+D shared)".into(),
            "~100s of GB/partition×20 (paper-scale S)".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            "two-hop exact".into(),
            fmt_bytes(exact.memory_bytes()),
            fmt_bytes(exact_per_user as usize),
            "≫ PB (unbounded per-user maps)".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            "two-hop Bloom (10⁶ entries, 1% FP)".into(),
            fmt_bytes(bloom.memory_bytes()),
            fmt_bytes(bloom_per_user as usize),
            fmt_bytes((paper_bloom * 1e8) as usize),
        ])
    );
    println!(
        "\nWrite amplification this run: exact {} updates vs {} online D inserts ({}×).",
        exact.updates(),
        trace.len(),
        exact.updates() / trace.len().max(1) as u64
    );
    assert!(
        exact.updates() > trace.len() as u64,
        "two-hop exact must update more often than D inserts"
    );
    assert!(
        bloom.memory_bytes() > online_mem,
        "two-hop Bloom must outweigh S + D"
    );
    println!(
        "Paper: \"impractical, even using approximate data structures such as Bloom filters\" ✓\n"
    );
}

// ───────────────────────────── E6 ────────────────────────────────────────

fn e6_partitions() {
    println!("## E6 — Partitioned architecture (paper: 20 partitions)\n");
    let users = 20_000u64;
    let graph = small_graph(users);
    let trace = bench_trace(users, 2_000.0, 20, 0xE6);
    let cfg = bench_detector_config();

    println!(
        "{}",
        header(&[
            "partitions",
            "stream throughput",
            "aggregate D entries",
            "total memory"
        ])
    );
    let mut one_partition_d = None;
    for parts in [1u32, 2, 4, 8, 20] {
        let cluster =
            ThreadedCluster::new(&graph, ClusterConfig::single().with_partitions(parts), cfg)
                .unwrap();
        let report = cluster.run_trace(trace.events()).unwrap();
        // Sequential broker replicates the same state for memory accounting.
        let mut broker =
            Broker::new(&graph, ClusterConfig::single().with_partitions(parts), cfg).unwrap();
        let mut candidates = broker.process_trace(trace.events().iter().copied());
        candidates.sort_by_key(|c| (c.triggered_at, c.user, c.target));
        assert_eq!(
            report.candidates, candidates,
            "{parts} threaded partitions diverge from the broker"
        );
        let d_entries: u64 = broker
            .partitions()
            .iter()
            .map(|p| p.store().resident_entries())
            .sum();
        let one = *one_partition_d.get_or_insert(d_entries);
        assert_eq!(
            d_entries,
            one * u64::from(parts),
            "every partition holds a complete D"
        );
        println!(
            "{}",
            row(&[
                parts.to_string(),
                fmt_rate(report.stream_events_per_sec()),
                d_entries.to_string(),
                fmt_bytes(broker.memory_bytes()),
            ])
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n(Host has {cores} cores: thread-level speedup saturates there, and 20");
    println!("partitions on {cores} cores oversubscribe — on the paper's 20 machines each");
    println!("partition owns real hardware.) D entries grow linearly with partitions");
    println!("(every partition ingests the full stream) — the paper's acknowledged");
    println!("memory/network pressure. ✓\n");
}

// ───────────────────────────── E7 ────────────────────────────────────────

fn e7_pruning() {
    println!("## E7 — D memory vs window τ and pruning strategy\n");
    let users = 5_000u64;
    let rate = 1_000u64;
    let trace = bench_trace(users, rate as f64, 600, 0xE7);

    println!("### E7a — Resident size vs τ (wheel pruning)\n");
    println!(
        "{}",
        header(&[
            "τ",
            "resident entries",
            "resident targets",
            "memory",
            "pruned"
        ])
    );
    let mut last_resident = 0;
    for tau_secs in [15u64, 60, 120, 300] {
        let mut d = TemporalEdgeStore::new(Duration::from_secs(tau_secs), PruneStrategy::Wheel);
        for e in trace.events() {
            d.insert(e.src, e.dst, e.created_at);
            if d.stats().inserted.is_multiple_of(1024) {
                d.advance(e.created_at);
            }
        }
        println!(
            "{}",
            row(&[
                format!("{tau_secs} s"),
                d.resident_entries().to_string(),
                d.resident_targets().to_string(),
                fmt_bytes(d.memory_bytes()),
                d.stats().pruned.to_string(),
            ])
        );
        assert!(
            d.resident_entries() >= last_resident,
            "resident entries must not fall as τ grows"
        );
        assert!(
            d.resident_entries() <= 2 * rate * tau_secs,
            "pruning must hold D within 2× rate × τ"
        );
        last_resident = d.resident_entries();
    }
    println!("\nResident D size is ~rate × τ — pruning to the window bounds memory exactly");
    println!("as the paper prescribes (\"prune … to only retain the most recent edges\"). ✓\n");

    println!("### E7b — Pruning strategy ablation (B3)\n");
    println!(
        "{}",
        header(&["strategy", "wall", "resident at end", "peak entries"])
    );
    let mut resident = Vec::new();
    for (name, strategy) in [
        ("eager (touch-only)", PruneStrategy::Eager),
        ("epoch wheel", PruneStrategy::Wheel),
        (
            "sweep every 10k",
            PruneStrategy::Sweep {
                sweep_every: 10_000,
            },
        ),
    ] {
        let mut d = TemporalEdgeStore::new(Duration::from_secs(60), strategy);
        let t0 = Instant::now();
        for e in trace.events() {
            d.insert(e.src, e.dst, e.created_at);
            if matches!(strategy, PruneStrategy::Wheel) && d.stats().inserted.is_multiple_of(1024) {
                d.advance(e.created_at);
            }
        }
        println!(
            "{}",
            row(&[
                name.into(),
                format!("{:.1} ms", t0.elapsed().as_secs_f64() * 1e3),
                d.resident_entries().to_string(),
                d.stats().peak_entries.to_string(),
            ])
        );
        resident.push(d.resident_entries());
    }
    assert!(
        resident[0] >= resident[1],
        "eager must end with at least the wheel's resident entries"
    );
    println!("\nEager never reclaims cold targets; the wheel bounds memory at ~2× the live");
    println!("window for negligible cost; sweeps trade spikes for simplicity.\n");

    println!("### E7c — Per-target entry cap (the paper's \"retain the most recent edges\")\n");
    // Adversarially hot workload: few users, high rate — the head target
    // accumulates thousands of in-window entries without a cap.
    let hot_users = 2_000u64;
    let hot_graph = small_graph(hot_users);
    let hot = bench_trace(hot_users, 2_000.0, 20, 0xE7C);
    println!(
        "{}",
        header(&[
            "per-target cap",
            "wall",
            "throughput",
            "detect p99",
            "candidates"
        ])
    );
    for (name, max_witnesses) in [("uncapped", None), ("cap 64 (16× witnesses)", Some(64))] {
        let cfg = DetectorConfig {
            max_witnesses,
            ..bench_detector_config()
        };
        let engine = ConcurrentEngine::new(hot_graph.clone(), cfg).unwrap();
        let t0 = Instant::now();
        let n = engine.on_events(hot.events()).len();
        let wall = t0.elapsed();
        println!(
            "{}",
            row(&[
                name.into(),
                format!("{:.2}s", wall.as_secs_f64()),
                fmt_rate(hot.len() as f64 / wall.as_secs_f64()),
                format!("{} µs", engine.stats().detect_time.p99_us),
                n.to_string(),
            ])
        );
    }
    println!("\nThe cap bounds hot-celebrity cost: with it, the adversarial small-graph");
    println!("workload stays above the 10⁴/s target; without it, per-event cost grows");
    println!("with the hot target's in-window backlog (wall-clock, so unasserted).\n");
}

// ───────────────────────────── E8 ────────────────────────────────────────

fn e8_k_tau() {
    println!("## E8 — Candidate volume vs k and τ (k = 2 example, k = 3 production)\n");
    let users = 2_000u64;
    let graph = small_graph(users);
    // One hour of traffic so the τ sweep actually slides the window.
    let trace = bench_trace(users, 30.0, 3_600, 0xE8);
    println!("{}", header(&["k \\ τ", "60 s", "600 s", "3600 s"]));
    let mut volume: Vec<Vec<usize>> = Vec::new();
    for k in [2usize, 3, 4] {
        let mut cells = vec![format!("k = {k}")];
        let mut by_tau = Vec::new();
        for tau in [60u64, 600, 3_600] {
            let cfg = DetectorConfig {
                k,
                tau: Duration::from_secs(tau),
                max_witnesses: Some(64),
                max_candidates_per_event: None,
                skip_existing: true,
            };
            let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
            let n = engine.on_events(trace.events()).len();
            cells.push(n.to_string());
            by_tau.push(n);
        }
        println!("{}", row(&cells));
        assert!(
            by_tau.windows(2).all(|w| w[0] <= w[1]),
            "volume must not fall in τ at k = {k}"
        );
        if let Some(prev) = volume.last() {
            assert!(
                by_tau.iter().zip(prev).all(|(n, p)| n <= p),
                "volume must not rise in k at k = {k}"
            );
        }
        volume.push(by_tau);
    }
    let cuts = volume[0]
        .iter()
        .zip(&volume[1])
        .map(|(&k2, &k3)| k2 as f64 / k3.max(1) as f64);
    let lo = cuts.clone().fold(f64::INFINITY, f64::min);
    let hi = cuts.fold(0.0, f64::max);
    println!("\nVolume falls in k and grows in τ: k trades precision for recall, τ trades");
    println!("freshness for recall — the \"tunable parameters\" of §1. ✓ Production k = 3");
    println!("cuts raw volume {lo:.1}–{hi:.1}× vs the k = 2 example across the τ sweep.\n");
}

// ───────────────────────────── E9 ────────────────────────────────────────

fn e9_influencer_cap() {
    println!("## E9 — Influencer cap (paper: \"limit the number of influencers\")\n");
    let users = 5_000u64;
    let gen = GraphGen::new(GraphGenConfig {
        users,
        mean_out_degree: 40.0,
        max_out_degree: 1_000,
        popularity_alpha: 1.0,
        activity_alpha: 0.6,
        seed: 0xE9,
    });
    let trace = bench_trace(users, 100.0, 60, 0xE9);
    println!(
        "{}",
        header(&[
            "cap",
            "S edges",
            "S memory",
            "candidates",
            "kept",
            "mean witnesses"
        ])
    );
    let mut uncapped: Option<(usize, usize)> = None;
    for (name, cap) in [
        ("none", CapStrategy::None),
        ("top-100 popular", CapStrategy::MostPopular(100)),
        ("top-25 popular", CapStrategy::MostPopular(25)),
        ("top-25 niche", CapStrategy::LeastPopular(25)),
    ] {
        let graph = gen.generate_capped(cap);
        let stats = GraphStats::of(&graph);
        if let Some((edges, _)) = uncapped {
            assert!(stats.edges < edges, "{name} must shrink S");
        }
        let engine = ConcurrentEngine::new(graph, bench_detector_config()).unwrap();
        let candidates = engine.on_events(trace.events());
        let mean_wit = if candidates.is_empty() {
            0.0
        } else {
            candidates.iter().map(|c| c.witnesses.len()).sum::<usize>() as f64
                / candidates.len() as f64
        };
        let (_, all) = *uncapped.get_or_insert((stats.edges, candidates.len()));
        println!(
            "{}",
            row(&[
                name.into(),
                stats.edges.to_string(),
                fmt_bytes(engine.graph().s_memory_bytes()),
                candidates.len().to_string(),
                format!(
                    "{:.0}%",
                    100.0 * candidates.len() as f64 / all.max(1) as f64
                ),
                format!("{mean_wit:.2}"),
            ])
        );
    }
    println!("\nCapping shrinks S (\"the additional benefit of limiting the size of the S");
    println!("data structures held in memory\"). ✓ It costs candidate volume: \"kept\" is");
    println!("each cap's share of the uncapped candidates.\n");
}
