//! End-to-end benchmark for the MagicRecs serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <steady_sparse|celebrity_dense|replicated_durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The program under test sees only
//! inputs generated from `--seed`. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) records client
//! spans, replays the run through the decomposed pipeline, and prints
//! the per-layer ledger. Both check the delivered candidates against an
//! in-process replay. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Scratch data
//! lives under `.bench_data/` in the working directory. `METRICS.md`
//! next to this crate catalogs every metric.

mod host;
mod inputs;
mod replay;
mod replicated;
mod served;
mod stats;

use std::path::{Path, PathBuf};

use inputs::{ServedSpec, CELEBRITY_DENSE, STEADY_SPARSE};
use replay::{Decomposed, Ledger};
use stats::{mean, median, percentile, ratio, tail, window_percentiles};

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("events_per_s", "events/s"),
    ("cpu_ms_per_kevent", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units.
const PER_LAYER: [(&str, &str); 35] = [
    ("server.stage_detect_us_mean", "us"),
    ("server.stage_deliver_us_mean", "us"),
    ("server.stage_e2e_us_p99", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.codec_ns_per_event", "ns"),
    ("server.shed_events", "count"),
    ("server.dropped_deliveries", "count"),
    ("core.kernel_ns_per_detect", "ns"),
    ("core.detects_per_event", "ratio"),
    ("core.witnesses_per_detect", "count"),
    ("core.candidates_per_event", "ratio"),
    ("core.emit_ratio", "ratio"),
    ("core.kernel_share_pct", "%"),
    ("temporal.upsert_ns_per_event", "ns"),
    ("temporal.witness_fetch_ns", "ns"),
    ("temporal.resident_entries", "count"),
    ("temporal.expire_ms_total", "ms"),
    ("graph.build_s", "s"),
    ("graph.memory_mb", "MB"),
    ("persist.wal_append_us_per_batch", "us"),
    ("persist.fsyncs_per_batch", "ratio"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.share_pct", "%"),
    ("replica.ack_residual_ms", "ms"),
    ("replica.ship_lag_ms", "ms"),
    ("replica.lag_events", "count"),
    ("replica.tail_rounds", "count"),
    ("replica.dup_batches", "count"),
    ("replica.reroutes", "count"),
    ("gen.send_late_p99_ms", "ms"),
    ("gen.drain_ms", "ms"),
    ("gen.client_busy_share_pct", "%"),
    ("server.self_share_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The fixed-rate phase is cut into this many windows by send slot;
/// latency percentiles are the median over the windows, so a machine
/// hiccup confined to one window does not move them.
const LATENCY_WINDOWS: usize = 12;

/// Generator lateness (p99, ms) above which a fixed-rate phase no
/// longer measures the offered load it claims.
const LATE_BOUND_MS: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run's verdict and metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(correct: bool, attempted: u64, failed: u64) -> Report {
        Report {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Records a metric; its unit comes from the catalog tables.
    fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// The result line. Every metric of the run's table must be set.
    fn json(&self, table: &[(&str, &str)]) -> String {
        for (name, _) in table {
            assert!(
                self.metrics.iter().any(|(n, _, _)| n == name),
                "metric {name} was not measured"
            );
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _, _)| table.iter().any(|(t, _)| t == n))
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// One scraped value by exact name (0 when absent).
fn scraped(scrape: &[(String, u64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Growth of a scraped counter between two scrapes.
fn delta(before: &[(String, u64)], after: &[(String, u64)], name: &str) -> f64 {
    scraped(after, name) - scraped(before, name)
}

/// Mean of a scraped histogram over the interval between two scrapes.
fn delta_mean(before: &[(String, u64)], after: &[(String, u64)], hist: &str) -> f64 {
    ratio(
        delta(before, after, &format!("{hist}_sum")),
        delta(before, after, &format!("{hist}_count")),
    )
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn print_metadata(args: &Args, extra: &str) {
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} simd={:?} {extra}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc(),
        magicrecs_core::simd::simd_level(),
    );
}

/// Correctness gate of a served run: delivered candidates against the
/// engine replay of the same frames, plus the oracle prefix check.
/// Returns `(failed operations, candidates delivered)`.
fn served_gate(
    run: &served::ServedRun,
    oracle_prefix: &[magicrecs_types::EdgeEvent],
) -> (u64, u64) {
    let streams: Vec<Vec<(u64, &[magicrecs_types::EdgeEvent])>> = run
        .sent
        .iter()
        .map(|conn| conn.iter().map(|f| (f.tag, f.events.as_slice())).collect())
        .collect();
    let want = replay::engine_replay(&run.graph, &streams);
    let bad = replay::mismatches(&run.delivered, &want);
    let dropped = scraped(&run.scrape_after, "server_dropped_deliveries") as u64;
    let mut failed = run.refused + bad + dropped;
    if !oracle_prefix.is_empty() {
        let (n, agree) = replay::oracle_check(&run.graph, oracle_prefix);
        println!(
            "check: BatchOracle on the first {} trace events: {n} candidates, {}",
            oracle_prefix.len(),
            if agree { "engine agrees" } else { "MISMATCH" }
        );
        if !agree || n == 0 {
            failed += 1;
        }
    }
    let delivered = served::delivered_count(&run.delivered);
    println!(
        "check: {} frames, {delivered} candidates delivered, {bad} tag mismatches vs engine replay, \
         {} shed/error/timeout, {dropped} dropped deliveries",
        run.frames, run.refused
    );
    (failed, delivered)
}

/// End-to-end metrics of a served run, printed under the names the
/// workload definitions use.
fn served_end_to_end(report: &mut Report, run: &served::ServedRun, spec: &ServedSpec) {
    let all: Vec<f64> = run.latency_ms.iter().map(|&(_, ms)| ms).collect();
    let lat = sorted(&all);
    let windowed = |p| {
        median(&window_percentiles(
            &run.latency_ms,
            run.slots,
            LATENCY_WINDOWS,
            p,
        ))
    };
    let (p50, p90) = (windowed(50.0), windowed(90.0));
    let (tail_p, tail_v) = tail(&lat);
    let late = sorted(&run.late_ms);
    let late_p99 = percentile(&late, 99.0);
    let sat = median(&run.sat_rates);
    let cpu = ratio(run.cpu_s * 1e3, run.measured_events as f64 / 1e3);
    println!(
        "load: fixed-rate phase offered {} events/s open loop; generator late p99 {late_p99:.3} ms \
         (bound {LATE_BOUND_MS} ms: {}), drain {:.3} ms",
        spec.fixed_rate,
        if late_p99 <= LATE_BOUND_MS { "valid" } else { "INVALID" },
        run.drain_ms
    );
    println!(
        "metric deliver_p50_ms = {p50:.4} ms (median of {LATENCY_WINDOWS} windows; whole phase {:.4})",
        percentile(&lat, 50.0)
    );
    println!(
        "metric deliver_p90_ms = {p90:.4} ms (median of {LATENCY_WINDOWS} windows; whole phase {:.4})",
        percentile(&lat, 90.0)
    );
    println!(
        "metric deliver_p99_ms = {tail_v:.4} ms (reported at p{tail_p} over {} samples)",
        lat.len()
    );
    println!("metric saturation_events_per_s = {sat:.1} events/s");
    println!("metric cpu_ms_per_kevent = {cpu:.4} ms");
    println!("metric peak_rss_mb = {:.1} MB", run.peak_rss_mb);
    println!("metric setup_s = {:.4} s", median(&run.setup_s));
    report.set("setup_s", median(&run.setup_s));
    report.set("latency_ms", p50);
    report.set("events_per_s", sat);
    report.set("cpu_ms_per_kevent", cpu);
    report.set("peak_rss_mb", run.peak_rss_mb);
}

/// Per-layer self time, printed as a table with shares of busy time.
fn print_ledger(rows: &[(&str, f64)]) -> f64 {
    let busy: f64 = rows.iter().map(|(_, ms)| ms).sum();
    println!("ledger: layer self time (share of busy time)");
    for (layer, ms) in rows {
        println!(
            "ledger:   {layer:<10} {ms:>12.3} ms  {:>6.2}%",
            100.0 * ratio(*ms, busy)
        );
    }
    busy
}

/// Core and temporal per-layer metrics from a decomposed replay.
fn set_pipeline_metrics(report: &mut Report, l: &Ledger, resident: u64) {
    report.set(
        "core.kernel_ns_per_detect",
        ratio(l.kernel_ns as f64, l.detects as f64),
    );
    report.set(
        "core.detects_per_event",
        ratio(l.detects as f64, l.events as f64),
    );
    report.set(
        "core.witnesses_per_detect",
        ratio(l.witnesses as f64, l.detects as f64),
    );
    report.set(
        "core.candidates_per_event",
        ratio(l.candidates as f64, l.events as f64),
    );
    report.set(
        "core.emit_ratio",
        ratio(l.emitting as f64, l.detects as f64),
    );
    report.set(
        "temporal.upsert_ns_per_event",
        ratio(l.upsert_ns as f64, l.upserts as f64),
    );
    report.set(
        "temporal.witness_fetch_ns",
        ratio(l.fetch_ns as f64, l.fetches as f64),
    );
    report.set("temporal.resident_entries", resident as f64);
    report.set("temporal.expire_ms_total", l.expire_ns as f64 / 1e6);
}

/// Writes sampled raw spans as TSV under `.bench_data/`.
fn write_spans(args: &Args, header: &str, rows: impl Iterator<Item = String>) {
    let path =
        PathBuf::from(".bench_data").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(&r);
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn run_served(spec: &ServedSpec, args: &Args, dir: &Path) -> Report {
    let inputs = inputs::served_inputs(spec, args.seed, args.seconds, host::nproc());
    print_metadata(
        args,
        &format!(
            "fsync_probe_ms={:.4} users={} edges={} fixed_rate={} fixed_events={} probes={}",
            host::fsync_probe_ms(dir),
            spec.users,
            inputs.edges.len(),
            spec.fixed_rate,
            inputs.fixed_events(),
            inputs.probes
        ),
    );
    let oracle_prefix = inputs.oracle_prefix.clone();
    if !args.trace {
        let run = served::run(inputs, args.seconds, SETUP_REPS, false);
        let (failed, delivered) = served_gate(&run, &oracle_prefix);
        let mut report = Report::new(failed == 0 && delivered > 0, run.frames, failed);
        served_end_to_end(&mut report, &run, spec);
        return report;
    }

    // Traced: client spans on, one set-up, then the decomposed replay.
    let run = served::run(inputs.clone(), args.seconds, 1, true);
    let (mut failed, delivered) = served_gate(&run, &oracle_prefix);
    let mut pipe = Decomposed::new(&run.graph);
    let mut replayed = replay::PerTag::default();
    for f in run.sent.iter().flatten() {
        let mut out = Vec::new();
        pipe.process(&f.events, &mut out);
        if !out.is_empty() {
            replayed.insert(f.tag, replay::Digest::of(&out));
        }
    }
    let bad = replay::mismatches(&run.delivered, &replayed);
    println!("check: decomposed replay differs from the served run on {bad} tags");
    failed += bad;

    // The same run untraced, for the tracing overhead.
    let plain = served::run(inputs, args.seconds, 1, false);
    let traced_rate = median(&run.sat_rates);
    let plain_rate = median(&plain.sat_rates);
    let overhead = 100.0 * (ratio(plain_rate, traced_rate) - 1.0);

    let mut report = Report::new(failed == 0 && delivered > 0, run.frames, failed);
    // Stage figures cover the fixed-rate phase, like the latencies.
    let (b, f, a) = (&run.scrape_before, &run.scrape_fixed, &run.scrape_after);
    let stage = |s: &str| delta_mean(b, f, &format!("stage_{s}_us"));
    let client_ms =
        run.latency_ms.iter().map(|&(_, ms)| ms).sum::<f64>() / run.latency_ms.len().max(1) as f64;
    let e2e_ms = stage("e2e") / 1e3;
    report.set("server.stage_detect_us_mean", stage("detect"));
    report.set("server.stage_deliver_us_mean", stage("deliver"));
    report.set("server.stage_e2e_us_p99", scraped(f, "stage_e2e_us_p99"));
    report.set("server.queue_wait_ms", client_ms - e2e_ms);
    let s = &run.spans;
    report.set(
        "server.codec_ns_per_event",
        ratio(
            (s.encode_ns + s.decode_ns) as f64,
            run.measured_events as f64,
        ),
    );
    report.set("server.shed_events", delta(b, a, "engine_shed"));
    report.set(
        "server.dropped_deliveries",
        delta(b, a, "server_dropped_deliveries"),
    );
    let l = pipe.ledger.clone();
    set_pipeline_metrics(&mut report, &l, pipe.resident_entries());
    report.set("graph.build_s", median(&run.graph_build_s));
    report.set("graph.memory_mb", run.graph_memory_mb);
    for name in [
        "persist.wal_append_us_per_batch",
        "persist.fsyncs_per_batch",
        "persist.checkpoint_ms",
        "persist.checkpoint_bytes",
        "persist.share_pct",
        "replica.ack_residual_ms",
        "replica.ship_lag_ms",
        "replica.lag_events",
        "replica.tail_rounds",
        "replica.dup_batches",
        "replica.reroutes",
    ] {
        report.set(name, 0.0);
    }
    report.set(
        "gen.send_late_p99_ms",
        percentile(&sorted(&run.late_ms), 99.0),
    );
    report.set("gen.drain_ms", run.drain_ms);
    report.set("trace.overhead_pct", overhead);

    // Busy-time ledger: client spans, server self time (its end-to-end
    // stage minus detection), and detection split by the replay.
    let gen_ms = (s.encode_ns + s.write_ns + s.decode_ns) as f64 / 1e6;
    let server_ms = (delta(b, a, "stage_e2e_us_sum") - delta(b, a, "stage_detect_us_sum")) / 1e3;
    let temporal_ms = (l.upsert_ns + l.fetch_ns + l.expire_ns) as f64 / 1e6;
    let core_ms = l.kernel_ns as f64 / 1e6;
    let busy = print_ledger(&[
        ("gen", gen_ms),
        ("server", server_ms),
        ("temporal", temporal_ms),
        ("core", core_ms),
        ("persist", 0.0),
        ("replica", 0.0),
    ]);
    report.set("core.kernel_share_pct", 100.0 * ratio(core_ms, busy));
    report.set("gen.client_busy_share_pct", 100.0 * ratio(gen_ms, busy));
    report.set("server.self_share_pct", 100.0 * ratio(server_ms, busy));
    let parts: Vec<(&str, f64)> = ["admission", "wal", "detect", "deliver"]
        .iter()
        .map(|s| (*s, stage(s) / 1e3))
        .collect();
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    println!(
        "ledger: client e2e {client_ms:.4} ms = {} + residual {:.4} ms (network, queueing, client); \
         server e2e stage {e2e_ms:.4} ms",
        parts
            .iter()
            .map(|(n, v)| format!("{n} {v:.4}"))
            .collect::<Vec<_>>()
            .join(" + "),
        client_ms - sum
    );
    println!(
        "ledger: tracing overhead {overhead:.2}% (saturation {traced_rate:.0} traced vs {plain_rate:.0} untraced events/s)"
    );
    write_spans(
        args,
        "request\tlayer\tstart_ns\tend_ns",
        s.sampled
            .iter()
            .map(|(r, layer, a, b)| format!("{r}\t{layer}\t{a}\t{b}")),
    );
    report
}

fn run_replicated(args: &Args, dir: &Path) -> Report {
    let inputs = inputs::replicated_inputs(args.seed, args.seconds);
    let fsync_ms = host::fsync_probe_ms(dir);
    print_metadata(
        args,
        &format!(
            "users={} batch={} checkpoint_every={} fsync_probe_ms={fsync_ms:.4} closed_loop=1_client",
            inputs::REPLICATED_USERS,
            inputs::REPLICATED_BATCH,
            replicated::CHECKPOINT_EVERY
        ),
    );
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let run = replicated::run(
        &inputs,
        &dir.join("cluster"),
        args.seconds,
        reps,
        args.trace,
    );
    let want = replicated::twin(&run.map, &run.sent);
    let bad = replay::mismatches(&run.delivered, &want);
    let candidates: u64 = run.delivered.values().map(|c| c.len() as u64).sum();
    println!(
        "check: {} batches, {candidates} candidates delivered, {bad} (partition, tag) mismatches \
         vs engine twin, {} errors/timeouts",
        run.sent.len(),
        run.refused
    );
    let mut failed = run.refused + bad;
    let ack = sorted(&run.ack_ms);
    let (tail_p, tail_v) = tail(&ack);
    let rate = ratio(run.measured_events as f64, run.wall_s);
    let cpu = ratio(run.cpu_s * 1e3, run.measured_events as f64 / 1e3);

    if !args.trace {
        let mut report = Report::new(failed == 0 && candidates > 0, run.sent.len() as u64, failed);
        println!("load: closed loop, one client, {} acked batches", ack.len());
        println!("metric ack_p50_ms = {:.4} ms", percentile(&ack, 50.0));
        println!("metric ack_mean_ms = {:.4} ms", mean(&ack));
        println!("metric ack_p90_ms = {:.4} ms", percentile(&ack, 90.0));
        println!(
            "metric ack_p99_ms = {tail_v:.4} ms (reported at p{tail_p} over {} samples)",
            ack.len()
        );
        println!("metric replicated_events_per_s = {rate:.1} events/s");
        println!("metric cpu_ms_per_kevent = {cpu:.4} ms");
        println!("metric peak_rss_mb = {:.1} MB", run.peak_rss_mb);
        println!("metric setup_s = {:.4} s", median(&run.setup_s));
        report.set("setup_s", median(&run.setup_s));
        // The ack distribution is bimodal, so its median jumps between
        // the modes from run to run; the closed loop's mean is steady.
        report.set("latency_ms", mean(&ack));
        report.set("events_per_s", rate);
        report.set("cpu_ms_per_kevent", cpu);
        report.set("peak_rss_mb", run.peak_rss_mb);
        return report;
    }

    // Traced: durable replay, then the same run untraced for overhead.
    let pr = replicated::persist_replay(&run.map, &run.sent, &dir.join("replay"));
    let bad = replay::mismatches(&pr.delivered, &want);
    println!("check: decomposed durable replay differs from the twin on {bad} tags");
    failed += bad;
    let plain = replicated::run(&inputs, &dir.join("plain"), args.seconds, 1, false);
    let plain_rate = ratio(plain.measured_events as f64, plain.wall_s);
    let overhead = 100.0 * (ratio(plain_rate, rate) - 1.0);

    let mut report = Report::new(failed == 0 && candidates > 0, run.sent.len() as u64, failed);
    let (b, a) = (&run.scrape_before, &run.scrape_after);
    for name in [
        "server.stage_detect_us_mean",
        "server.stage_deliver_us_mean",
        "server.stage_e2e_us_p99",
        "server.queue_wait_ms",
        "server.codec_ns_per_event",
        "server.shed_events",
        "server.dropped_deliveries",
        "gen.send_late_p99_ms",
        "gen.client_busy_share_pct",
        "server.self_share_pct",
    ] {
        report.set(name, 0.0);
    }
    let l = &pr.ledger;
    set_pipeline_metrics(&mut report, l, pr.resident_entries);
    let t = std::time::Instant::now();
    let graph = magicrecs_replica::fixture_graph(&run.map);
    report.set("graph.build_s", t.elapsed().as_secs_f64());
    report.set(
        "graph.memory_mb",
        graph.memory_bytes() as f64 / (1 << 20) as f64,
    );
    let acked = ack.len() as f64;
    report.set("persist.wal_append_us_per_batch", mean(&pr.wal_us));
    report.set(
        "persist.fsyncs_per_batch",
        ratio(delta(b, a, "wal_fsyncs"), acked),
    );
    report.set("persist.checkpoint_ms", mean(&pr.checkpoint_ms));
    report.set("persist.checkpoint_bytes", mean(&pr.checkpoint_bytes));
    let wal_ms = mean(&pr.wal_us) / 1e3;
    let detect_ms = mean(&pr.detect_us) / 1e3;
    let residual_ms = mean(&run.ack_ms) - wal_ms - detect_ms;
    report.set("replica.ack_residual_ms", residual_ms);
    report.set("replica.ship_lag_ms", median(&run.ship_lag_ms));
    report.set("replica.lag_events", run.max_lag_events as f64);
    report.set("replica.tail_rounds", delta(b, a, "replica_tail_rounds"));
    report.set("replica.dup_batches", delta(b, a, "replica_dup_batches"));
    report.set("replica.reroutes", run.reroutes as f64);
    report.set("gen.drain_ms", run.drain_ms);
    report.set("trace.overhead_pct", overhead);

    let persist_ms = pr.wal_us.iter().sum::<f64>() / 1e3 + pr.checkpoint_ms.iter().sum::<f64>();
    let temporal_ms = (l.upsert_ns + l.fetch_ns + l.expire_ns) as f64 / 1e6;
    let core_ms = l.kernel_ns as f64 / 1e6;
    let replica_ms = (residual_ms * acked).max(0.0);
    let busy = print_ledger(&[
        ("gen", 0.0),
        ("server", 0.0),
        ("temporal", temporal_ms),
        ("core", core_ms),
        ("persist", persist_ms),
        ("replica", replica_ms),
    ]);
    report.set("core.kernel_share_pct", 100.0 * ratio(core_ms, busy));
    report.set("persist.share_pct", 100.0 * ratio(persist_ms, busy));
    println!(
        "ledger: ack {:.4} ms = WAL append {wal_ms:.4} + detect {detect_ms:.4} + residual {residual_ms:.4} ms \
         (replication, wire, locking); ship lag p50 {:.3} ms over {} batches",
        mean(&run.ack_ms),
        median(&run.ship_lag_ms),
        run.ship_lag_ms.len()
    );
    println!(
        "ledger: tracing overhead {overhead:.2}% ({rate:.0} traced vs {plain_rate:.0} untraced events/s)"
    );
    write_spans(
        args,
        "batch\tpartition\tack_ms\twal_us\tdetect_us",
        run.sent
            .iter()
            .skip(inputs::REPLICATED_WARMUP_BATCHES)
            .zip(&run.ack_ms)
            .enumerate()
            .map(|(i, ((p, _), ack))| {
                let j = i + inputs::REPLICATED_WARMUP_BATCHES;
                format!("{i}\t{p}\t{ack}\t{}\t{}", pr.wal_us[j], pr.detect_us[j])
            }),
    );
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let dir =
        PathBuf::from(".bench_data").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2ebench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let report = match args.workload.as_str() {
        "steady_sparse" => run_served(&STEADY_SPARSE, &args, &dir),
        "celebrity_dense" => run_served(&CELEBRITY_DENSE, &args, &dir),
        "replicated_durable" => run_replicated(&args, &dir),
        other => {
            eprintln!("e2ebench: unknown workload {other:?}");
            let _ = std::fs::remove_dir_all(&dir);
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json(table));
}
