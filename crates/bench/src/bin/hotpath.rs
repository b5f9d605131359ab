//! Hot-path baseline recorder: writes `BENCH_hotpath.json` at the repo
//! root so future PRs have machine-readable ns/op numbers to beat.
//!
//! Usage:
//!   cargo run -p magicrecs-bench --release --bin hotpath
//!   cargo run -p magicrecs-bench --release --bin hotpath -- \
//!       --concurrent-only --threads 2   # CI smoke: scaling arm only,
//!                                       # no JSON rewrite
//!   cargo run -p magicrecs-bench --release --bin hotpath -- \
//!       --no-concurrent --out /tmp/b.json  # partial run, custom path
//!
//! The JSON is **merged, not clobbered**: keys measured by this run
//! overwrite their previous values (field-by-field for grouped arms), and
//! keys this run did not measure — e.g. the concurrent curve during a
//! `--no-concurrent` run, or arms recorded by a fuller run on better
//! hardware — survive untouched.
//!
//! Covers the static graph layout (with an emulation of the seed's data
//! structures for an honest before/after), the detection kernel and the
//! shared-state engine:
//!
//! * `s_lookup` — dense offset-array CSR `S[B]` fetch vs the seed's
//!   Fx-hash-indexed CSR probe (emulated over the same adjacency).
//! * `threshold_fresh_*` — the detector's delta kernel on one
//!   celebrity-shaped detect, swept over its scan/gallop crossover
//!   (`simd_level` records which count-below tier its galloping ran on).
//! * `detector_*` — end-to-end engine ns/event on a Zipf trace and on a
//!   synthetic celebrity workload, once with every witness fresh (one
//!   timestamp per round) and once with only the trigger fresh.
//! * `d_*` — the dynamic store `D` on its own: ingest per pruning
//!   strategy (B3), hot and cold witness fetches, the Fx-vs-SipHash
//!   hasher ablation (B4), one wheel advance, and a sparse upsert arm
//!   shaped like the served steady-sparse trace whose bytes per resident
//!   entry are hard-asserted, run from one thread and from two
//!   (`--d-only` runs just these arms for CI).
//! * `concurrent_*` — thread-scaling curve of `ConcurrentEngine` (one
//!   shared `S` + sharded `D`, stream hash-routed by target) on the
//!   celebrity workload, events/sec at 1→N workers. `bench_cores` records
//!   how many hardware threads the box actually had — on a single-core
//!   container the curve is honest but flat.
//! * `snapshot_*` / `wal_*` / `recovery_*` — the persistence subsystem
//!   (PR 4): full `S` rebuild vs `GraphDelta` apply on a ~1%-changed
//!   graph, WAL append cost under the batched-fsync default, and the
//!   crash-recovery replay rate. `--no-persist` skips these arms (their
//!   previous keys survive the merge).
//! * `wal_group_append_ns_per_event` / `batched_celebrity_events_per_sec`
//!   — the batched ingest hot path (PR 5): group commit at batch sizes
//!   8/64/256 vs single appends (hard-asserted faster at 64 —
//!   `--wal-only` runs just this guard for CI), and the shared cluster's
//!   micro-batch queue drain vs the one-item-per-recv transport.
//! * `ingest_events_per_sec_while_checkpointing` vs
//!   `ingest_events_per_sec_baseline` — the non-quiescent checkpoint
//!   tax: the celebrity trace through a persistent shared engine
//!   cutting incremental fence-vector checkpoints mid-ingest, as a
//!   [`CheckpointDriver`] does, vs one with no checkpoints, the two fed
//!   the trace in alternating chunks within each round. The median round
//!   ratio is hard-asserted within 5%; every round's ratio and the IQR
//!   are printed. `checkpoint_full_bytes` vs
//!   `checkpoint_incremental_bytes` sizes a delta cut at a ~1% dirty
//!   ratio (hard-asserted <10% of the full — `--ckpt-only` runs just
//!   this guard for CI).
//! * `obs_instrumented_ns_per_event` vs `obs_disabled_ns_per_event` —
//!   the metrics-registry tax (PR 9): the celebrity trace through two
//!   engines differing only in their registry, live striped-atomic
//!   counters vs `Registry::disabled()`, in interleaved rounds.
//!   Hard-asserted ≤3% overhead on the median round ratio (`--obs-only`
//!   runs just this guard for CI).
//!
//! [`CheckpointDriver`]: magicrecs_persist::CheckpointDriver

use magicrecs_bench::json::{Json, Val};
use magicrecs_bench::{bench_graph, bench_trace, small_graph};
use magicrecs_cluster::SharedEngineCluster;
use magicrecs_core::threshold::{threshold_fresh_at_crossover, FreshScratch, FRESH_SCAN_CROSSOVER};
use magicrecs_core::{simd_level, ConcurrentEngine};
use magicrecs_graph::{FollowGraph, GraphBuilder};
use magicrecs_temporal::{PruneStrategy, TemporalEdgeStore};
use magicrecs_types::{DenseId, DetectorConfig, EdgeEvent, FxHashMap, Timestamp, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Median ns/op over `samples` timed batches of `iters` calls.
fn time_ns<F: FnMut()>(iters: u64, samples: usize, mut f: F) -> f64 {
    // Warm-up batch.
    for _ in 0..iters.min(16) {
        f();
    }
    let mut results: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    results[results.len() / 2]
}

fn sorted_ids(n: usize, range: u64, rng: &mut StdRng) -> Vec<UserId> {
    let mut v: Vec<UserId> = (0..n).map(|_| UserId(rng.random_range(0..range))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The same id values as dense `u32` lanes (the fixture ranges stay below
/// `u32::MAX`, so this is a width change, not a data change).
fn as_dense(ids: &[UserId]) -> Vec<DenseId> {
    ids.iter()
        .map(|u| DenseId(u32::try_from(u.raw()).expect("fixture ids fit u32")))
        .collect()
}

// ---- command line ----------------------------------------------------------

/// Command-line options (CI smoke vs full/partial baseline runs).
struct Args {
    /// Run only the concurrent scaling arm and skip the JSON rewrite.
    concurrent_only: bool,
    /// Skip the concurrent scaling arm (its previous keys survive the
    /// merge).
    no_concurrent: bool,
    /// Largest worker count on the scaling curve (1 is always measured).
    max_threads: usize,
    /// Skip the persistence arms (their previous keys survive the
    /// merge).
    no_persist: bool,
    /// Run only the persistence arms and skip the JSON rewrite (the
    /// persist-smoke CI job).
    persist_only: bool,
    /// Run only the WAL single-vs-group-commit arms (with the
    /// group-commit guard) and skip the JSON rewrite — the bench-smoke
    /// CI job's cheap durability guard.
    wal_only: bool,
    /// Run only the incremental-vs-full checkpoint size arm (with the
    /// <10%-at-1%-dirty guard) and skip the JSON rewrite — the
    /// bench-smoke CI job's checkpoint-chain guard.
    ckpt_only: bool,
    /// Run only the `D` arms (with the bytes-per-entry guard) and skip
    /// the JSON rewrite.
    d_only: bool,
    /// Run only the instrumentation-overhead arm (with the ≤3% guard)
    /// and skip the JSON rewrite — the obs-smoke CI job.
    obs_only: bool,
    /// Output path; defaults to `BENCH_hotpath.json` at the workspace
    /// root.
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        concurrent_only: false,
        no_concurrent: false,
        max_threads: 4,
        no_persist: false,
        persist_only: false,
        wal_only: false,
        ckpt_only: false,
        obs_only: false,
        d_only: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--concurrent-only" => args.concurrent_only = true,
            "--no-concurrent" => args.no_concurrent = true,
            "--no-persist" => args.no_persist = true,
            "--persist-only" => args.persist_only = true,
            "--wal-only" => args.wal_only = true,
            "--ckpt-only" => args.ckpt_only = true,
            "--obs-only" => args.obs_only = true,
            "--d-only" => args.d_only = true,
            "--threads" => {
                args.max_threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => {
                args.out = Some(PathBuf::from(it.next().expect("--out needs a path")));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(args.max_threads >= 1, "--threads must be >= 1");
    assert!(
        !(args.concurrent_only && args.no_concurrent),
        "--concurrent-only and --no-concurrent are mutually exclusive"
    );
    assert!(
        !(args.persist_only && args.no_persist),
        "--persist-only and --no-persist are mutually exclusive"
    );
    assert!(
        !(args.persist_only && args.concurrent_only),
        "--persist-only and --concurrent-only are mutually exclusive"
    );
    assert!(
        !(args.wal_only && (args.persist_only || args.concurrent_only || args.no_persist)),
        "--wal-only runs exactly the WAL arms; other selectors conflict"
    );
    assert!(
        !(args.ckpt_only
            && (args.wal_only || args.persist_only || args.concurrent_only || args.no_persist)),
        "--ckpt-only runs exactly the checkpoint size arm; other selectors conflict"
    );
    assert!(
        !(args.obs_only
            && (args.ckpt_only
                || args.wal_only
                || args.persist_only
                || args.concurrent_only
                || args.no_persist
                || args.no_concurrent)),
        "--obs-only runs exactly the instrumentation-overhead arm; other selectors conflict"
    );
    assert!(
        !(args.d_only
            && (args.obs_only
                || args.ckpt_only
                || args.wal_only
                || args.persist_only
                || args.concurrent_only
                || args.no_persist
                || args.no_concurrent)),
        "--d-only runs exactly the D arms; other selectors conflict"
    );
    args
}

/// The celebrity workload graph: 512 As follow 4 ordinary Bs and the
/// celebrity; 200k extra users follow the celebrity too, so every closing
/// event forces a k-of-5 threshold against a 200k-follower list.
fn celebrity_graph() -> FollowGraph {
    let mut gb = GraphBuilder::new();
    let celeb = UserId(9_000_000);
    for a in 0..512u64 {
        for b in 0..4u64 {
            gb.add_edge(UserId(a), UserId(1_000_000 + b));
        }
        gb.add_edge(UserId(a), celeb);
    }
    for extra in 0..200_000u64 {
        gb.add_edge(UserId(10_000 + extra), celeb);
    }
    gb.build()
}

/// The celebrity workload as an event trace: per round, the 4 ordinary Bs
/// act on a fresh C and the celebrity closes the diamond. Timestamps stay
/// inside one τ window so the work per event is identical no matter how
/// rounds interleave across worker threads — the scaling curve measures
/// threading, not accidental expiry.
fn celebrity_trace(rounds: u64) -> Vec<EdgeEvent> {
    let celeb = UserId(9_000_000);
    let mut events = Vec::with_capacity(rounds as usize * 5);
    for round in 0..rounds {
        let c = UserId(20_000_000 + round);
        let t = Timestamp::from_secs(43_200 + round % 300);
        for b in 0..4u64 {
            events.push(EdgeEvent::follow(UserId(1_000_000 + b), c, t));
        }
        events.push(EdgeEvent::follow(celeb, c, t));
    }
    events
}

/// Thread-scaling curve of the shared-state engine on the celebrity
/// workload. Appends `concurrent_*` keys to `json`.
fn run_concurrent(json: &mut Json, max_threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# concurrent engine scaling, celebrity workload ({cores} cores)");
    let graph = celebrity_graph();
    let trace = celebrity_trace(2_000);

    let mut fields: Vec<(&str, f64)> = Vec::new();
    let rate_at = |threads: usize, max_batch: usize| -> f64 {
        let cluster = SharedEngineCluster::new(&graph, threads, DetectorConfig::production())
            .expect("valid cluster config")
            .with_max_batch(max_batch);
        // One untimed run first: the arm that happens to go first must not
        // eat the page-cache/allocator warm-up for everyone else.
        cluster.run_trace(&trace).expect("warm-up run");
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let report = cluster.run_trace(&trace).expect("run_trace");
                report.stream_events_per_sec()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        samples[samples.len() / 2]
    };
    for (label, threads) in [("t1", 1usize), ("t2", 2), ("t4", 4)] {
        if threads > max_threads {
            continue;
        }
        let rate = rate_at(threads, magicrecs_cluster::DEFAULT_MAX_BATCH);
        println!("  {threads} thread(s): {rate:.0} events/sec");
        fields.push((label, rate));
    }
    json.obj("concurrent_celebrity_events_per_sec", &fields);
    json.int("concurrent_bench_cores", cores as u64);

    // Batched vs single-item queue drains, same engine and thread count:
    // max_batch 1 reproduces the pre-batching transport (one snapshot
    // pin + detector lookup + stats flush per event), the default drains
    // micro-batches.
    let threads = 2.min(max_threads);
    let single_drain = rate_at(threads, 1);
    let batched_drain = rate_at(threads, magicrecs_cluster::DEFAULT_MAX_BATCH);
    json.obj(
        "batched_celebrity_events_per_sec",
        &[("single", single_drain), ("b64", batched_drain)],
    );
    json.num(
        "speedup_batched_drain_over_single",
        batched_drain / single_drain,
    );
    println!(
        "  drain at {threads} thread(s): single {single_drain:.0} vs batched {batched_drain:.0} \
         events/sec ({:.2}x)",
        batched_drain / single_drain
    );
    if let (Some(&(_, r1)), Some(&(last, rn))) = (
        fields.iter().find(|(l, _)| *l == "t1"),
        fields.last().filter(|(l, _)| *l != "t1"),
    ) {
        let speedup = rn / r1;
        let key = if last == "t4" {
            "concurrent_speedup_t4_over_t1"
        } else {
            "concurrent_speedup_t2_over_t1"
        };
        json.num(key, speedup);
        println!("  speedup at max threads vs 1: {speedup:.2}x");
    }
}

/// The seed's CSR layout: Fx-hash index from sparse id to a range over a
/// shared u64 target array. Rebuilt here so the dense rewrite has an
/// in-repo baseline to race against.
struct SeedHashCsr {
    index: FxHashMap<UserId, (u32, u32)>,
    targets: Vec<UserId>,
}

impl SeedHashCsr {
    fn from_graph(g: &FollowGraph) -> Self {
        let mut index = FxHashMap::default();
        let mut targets = Vec::new();
        for (b, followers) in g.iter_inverse() {
            let start = targets.len() as u32;
            targets.extend(followers.iter().copied());
            index.insert(b, (start, targets.len() as u32 - start));
        }
        SeedHashCsr { index, targets }
    }

    #[inline]
    fn followers(&self, b: UserId) -> &[UserId] {
        match self.index.get(&b) {
            Some(&(start, len)) => &self.targets[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

/// Interleaved round-robin sampler shared by every multi-arm fixture:
/// `run(round, arm)` produces one ns measurement; round 0 is per-arm
/// warm-up (discarded), rounds 1..6 are timed, and the per-arm median is
/// returned. Arms that are compared against each other (the crossover
/// sweep) must see slow box-level frequency drift equally, which is what
/// the interleaving buys over timing each arm to completion in turn.
fn interleaved_medians(n_arms: usize, mut run: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n_arms];
    for round in 0..6 {
        for (ai, s) in samples.iter_mut().enumerate() {
            let ns = run(round, ai);
            if round > 0 {
                s.push(ns);
            }
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            s[s.len() / 2]
        })
        .collect()
}

/// Paired-round sampler shared by the two-arm guards: `round(r)` times
/// both arms once, the guard alternating which goes first by `r`, and
/// returns `[a, b]`. Round 0 is a discarded warm-up; rounds
/// `1..=rounds` are printed (arms named by `names`, in `unit`) and kept.
/// Returns both arms' medians and the ascending per-round `b / a` ratios,
/// which a guard judges by their median, since both arms of a round see
/// the same speed phase of the box.
fn paired_rounds(
    rounds: usize,
    names: [&str; 2],
    unit: &str,
    mut round: impl FnMut(usize) -> [f64; 2],
) -> ([f64; 2], Vec<f64>) {
    let _ = round(0);
    let (mut arms, mut ratios) = ([Vec::new(), Vec::new()], Vec::new());
    for r in 1..=rounds {
        let [a, b] = round(r);
        println!(
            "  round {r}: {} {a:.0} vs {} {b:.0} {unit}, ratio {:.3}",
            names[0],
            names[1],
            b / a
        );
        arms[0].push(a);
        arms[1].push(b);
        ratios.push(b / a);
    }
    for s in arms.iter_mut().chain([&mut ratios]) {
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    }
    (arms.map(|s| quantile(&s, 0.5)), ratios)
}

/// Crossovers the `threshold_fresh` sweep times, by field name: a probe
/// list scans when it is at most this many times the surviving values.
const FRESH_CROSSOVER_SWEEP: [(&str, usize); 8] = [
    ("gallop_only", 0),
    ("x2", 2),
    ("x4", 4),
    ("x8", 8),
    ("x16", 16),
    ("x32", 32),
    ("x64", 64),
    ("scan_only", usize::MAX),
];

/// The delta kernel on one detect shaped like a hot `celebrity_dense`
/// event (k = 3): 44 witness lists of ≈55 dense ids and one of ≈1.3k,
/// all drawn from a 3k-user community, plus a fresh trigger list of ≈55
/// that generates the values. Sweeps the scan/gallop crossover
/// (`FRESH_SCAN_CROSSOVER` is chosen from it): the short lists take the
/// scan from x2 on, the long one only above x32.
fn run_threshold_fresh(json: &mut Json) {
    println!("# threshold_fresh (1 fresh x 55 + 44 x 55 + 1 x 1.3k, k=3)");
    let mut rng = StdRng::seed_from_u64(0xF5E5);
    let mut lists: Vec<Vec<DenseId>> = (0..45)
        .map(|_| as_dense(&sorted_ids(56, 3_000, &mut rng)))
        .collect();
    lists.push(as_dense(&sorted_ids(1_800, 3_000, &mut rng)));
    let slices: Vec<&[DenseId]> = lists.iter().map(|l| l.as_slice()).collect();
    let mut fresh = vec![false; slices.len()];
    fresh[0] = true;
    let mut scratch = FreshScratch::default();
    let mut out: Vec<(DenseId, u32)> = Vec::new();
    let mut matches = None;
    let medians = interleaved_medians(FRESH_CROSSOVER_SWEEP.len(), |round, ai| {
        let crossover = FRESH_CROSSOVER_SWEEP[ai].1;
        let iters = if round == 0 { 64 } else { 1_000 };
        let start = Instant::now();
        for _ in 0..iters {
            out.clear();
            threshold_fresh_at_crossover(
                black_box(&slices),
                &fresh,
                3,
                &mut scratch,
                &mut out,
                crossover,
            );
            black_box(out.len());
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        assert_eq!(*matches.get_or_insert_with(|| out.clone()), out);
        ns
    });
    let mut fields: Vec<(&str, f64)> = FRESH_CROSSOVER_SWEEP
        .iter()
        .zip(&medians)
        .map(|(&(name, _), &ns)| (name, ns))
        .collect();
    for (name, ns) in &fields {
        println!("  {name} {ns:.0}");
    }
    fields.push(("crossover", FRESH_SCAN_CROSSOVER as f64));
    json.obj("threshold_fresh_celebrity_44x55_1x1k_k3", &fields);
}

/// The WAL arms: single-append cost vs group commit at batch sizes
/// 8/64/256, same 20k-event trace, production fsync default
/// (`EveryN(256)`). Group commit encodes a batch's frames into one
/// reused buffer and lands them with one `write(2)`, so the per-event
/// cost is dominated by encoding instead of syscalls. **Guard**: batch
/// 64 must beat single appends outright, or the run aborts (bench-smoke
/// runs this via `--wal-only`).
fn run_wal(json: &mut Json) {
    use magicrecs_persist::{FsyncPolicy, TempDir, Wal, WalOptions};

    println!("# wal append: single vs group commit (fsync every 256)");
    let wal_trace = bench_trace(20_000, 2_000.0, 25, 0x3A1);
    let wal_events = wal_trace.events();
    let opts = WalOptions {
        fsync: FsyncPolicy::EveryN(256),
        segment_bytes: 4 << 20,
    };
    // Median of 3 full log writes per arm; each run appends into a fresh
    // directory so segment state never leaks between samples.
    let measure = |batch: usize| -> f64 {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let tmp = TempDir::new("bench-wal");
                let mut wal = Wal::create(tmp.path(), "wal-", opts).expect("wal create");
                let start = Instant::now();
                if batch <= 1 {
                    for &e in wal_events {
                        wal.append(e).expect("append");
                    }
                } else {
                    for chunk in wal_events.chunks(batch) {
                        wal.append_batch(chunk).expect("append_batch");
                    }
                }
                wal.close().expect("close");
                start.elapsed().as_secs_f64() * 1e9 / wal_events.len() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        samples[samples.len() / 2]
    };
    let single = measure(1);
    let arms: Vec<(&str, f64)> = [("b8", 8usize), ("b64", 64), ("b256", 256)]
        .iter()
        .map(|&(name, batch)| (name, measure(batch)))
        .collect();
    json.num("wal_append_ns_per_event", single);
    json.obj("wal_group_append_ns_per_event", &arms);
    let b64 = arms.iter().find(|(n, _)| *n == "b64").expect("arm").1;
    json.num("speedup_wal_group64_over_single", single / b64);
    println!("  single {single:.0} ns/event");
    for (name, ns) in &arms {
        println!("  {name} {ns:.0} ns/event ({:.1}x)", single / ns);
    }
    assert!(
        b64 < single,
        "group commit at batch 64 ({b64:.0} ns/event) must beat single appends \
         ({single:.0} ns/event) — one write(2) per batch is the whole point"
    );
}

/// Rounds the checkpoint-tax guard measures.
const LIVE_CKPT_ROUNDS: usize = 7;

/// Celebrity rounds of the checkpoint-tax trace: 40k events, ≈1.5 s of
/// ingest per arm and round on a 2-core box.
const LIVE_CKPT_TRACE_ROUNDS: u64 = 8_000;

/// Events each arm ingests before the other arm takes the next chunk.
const LIVE_CKPT_CHUNK: usize = 2_048;

/// The value at quantile `q` of an ascending sample (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The non-quiescent checkpoint tax: the celebrity trace through two
/// fresh persistent shared engines (2 WAL partitions, fsync off so the
/// disk is out of the picture, each ingesting on 2 worker threads routed
/// by target as `SharedEngineCluster` routes them), a baseline that never
/// checkpoints and a live one that cuts incremental fence-vector
/// checkpoints on the production cadence (`PersistOptions::default()`'s
/// `checkpoint_every`) mid-ingest.
///
/// Within each of [`LIVE_CKPT_ROUNDS`] rounds the two arms take the trace
/// in alternating [`LIVE_CKPT_CHUNK`]-event chunks (which arm goes first
/// alternates too), so both arms see the same speed phase of the box.
/// When the live arm starts a chunk with a cadence's worth of events past
/// its chain tip, it cuts a checkpoint on a third thread alongside the
/// chunk's workers, as a [`CheckpointDriver`] would, so the cut's whole
/// cost lands on that arm's chunk. Every round's ratio and the IQR are
/// printed. **Guard**: the median round ratio keeps ≥95% of baseline
/// throughput, or the run aborts (one remeasure absorbs a noise spike).
/// Non-quiescent means ingest never *blocks* on a cut — but the export,
/// encode and write still need a core to overlap on, so on a single-core
/// box (where every cut is time-sliced straight out of the workers) the
/// guard floor honestly relaxes to 85%, with the core count recorded
/// alongside the ratio.
///
/// [`CheckpointDriver`]: magicrecs_persist::CheckpointDriver
fn run_live_checkpoint(json: &mut Json) {
    use magicrecs_cluster::DEFAULT_MAX_BATCH;
    use magicrecs_persist::{
        FsyncPolicy, PersistOptions, PersistentConcurrentEngine, RebasePolicy, TempDir,
    };

    println!("# ingest throughput while checkpointing (celebrity workload, 2 workers)");
    const WORKERS: usize = 2;
    let graph = celebrity_graph();
    let trace = celebrity_trace(LIVE_CKPT_TRACE_ROUNDS);
    let opts = PersistOptions {
        fsync: FsyncPolicy::Never,
        segment_bytes: 4 << 20,
        rebase: RebasePolicy {
            max_chain_len: 8,
            max_delta_bytes_ratio: 0.0,
        },
        ..PersistOptions::default()
    };
    // Each chunk split into the workers' shares once, up front.
    let chunks: Vec<Vec<Vec<EdgeEvent>>> = trace
        .chunks(LIVE_CKPT_CHUNK)
        .map(|chunk| {
            let mut shares = vec![Vec::new(); WORKERS];
            for &e in chunk {
                shares[magicrecs_types::route_mix(&e.dst) as usize % WORKERS].push(e);
            }
            shares
        })
        .collect();

    struct Arm {
        engine: PersistentConcurrentEngine,
        _dir: TempDir,
        /// Checkpoint cadence in events; 0 never cuts.
        every: u64,
        secs: f64,
        cuts: u64,
        candidates: usize,
    }
    let new_arm = |every: u64| {
        let dir = TempDir::new("bench-live-ckpt");
        let engine = PersistentConcurrentEngine::create(
            dir.path(),
            graph.clone(),
            0,
            DetectorConfig::production(),
            WORKERS,
            opts,
        )
        .expect("persistent engine");
        Arm {
            engine,
            _dir: dir,
            every,
            secs: 0.0,
            cuts: 0,
            candidates: 0,
        }
    };
    // One chunk through one arm; only the chunk's ingest (and the cut
    // beside it) is timed.
    let feed = |arm: &mut Arm, shares: &[Vec<EdgeEvent>]| {
        let engine = &arm.engine;
        let past_tip = engine.next_seq() - engine.checkpoint_tip().map_or(0, |tip| tip + 1);
        let cut = arm.every > 0 && past_tip >= arm.every;
        let start = Instant::now();
        let candidates: usize = std::thread::scope(|s| {
            if cut {
                s.spawn(|| engine.checkpoint().expect("checkpoint"));
            }
            let workers: Vec<_> = shares
                .iter()
                .map(|share| {
                    s.spawn(move || {
                        let (mut out, mut n) = (Vec::new(), 0);
                        for batch in share.chunks(DEFAULT_MAX_BATCH) {
                            n += engine.on_events_into(batch, &mut out).expect("ingest");
                            out.clear();
                        }
                        n
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });
        arm.secs += start.elapsed().as_secs_f64();
        arm.cuts += u64::from(cut);
        arm.candidates += candidates;
    };
    // One round: `[baseline, live]` events/sec.
    let round = |r: usize| -> [f64; 2] {
        let every = PersistOptions::default().checkpoint_every;
        let mut arms = [new_arm(0), new_arm(every)];
        for (c, shares) in chunks.iter().enumerate() {
            let first = (r + c) % 2;
            for a in [first, 1 - first] {
                feed(&mut arms[a], shares);
            }
        }
        assert!(
            arms[1].cuts >= 1,
            "the live arm must checkpoint during the measured run"
        );
        assert!(
            arms[0].candidates > 0 && arms[0].candidates == arms[1].candidates,
            "both arms emit the celebrity trace's candidates"
        );
        arms.map(|arm| trace.len() as f64 / arm.secs)
    };
    // `([median baseline, median live], ascending round ratios)`; the
    // warm-up round fills the page cache and allocator.
    let measure = || paired_rounds(LIVE_CKPT_ROUNDS, ["baseline", "live"], "events/sec", &round);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 2 {
        0.95
    } else {
        println!("  single-core box: cuts time-slice out of the workers, floor 0.85");
        0.85
    };
    let ([mut baseline, mut live], mut ratios) = measure();
    let mut ratio = quantile(&ratios, 0.5);
    if ratio < floor {
        println!("  median ratio {ratio:.3} below the {floor} guard — remeasuring once");
        ([baseline, live], ratios) = measure();
        ratio = quantile(&ratios, 0.5);
    }
    let (q1, q3) = (quantile(&ratios, 0.25), quantile(&ratios, 0.75));
    json.num("ingest_events_per_sec_baseline", baseline);
    json.num("ingest_events_per_sec_while_checkpointing", live);
    // A ratio near 1.0 needs more than `num`'s one decimal.
    json.set(
        "ingest_checkpointing_throughput_ratio",
        Val::Raw(format!("{ratio:.3}")),
    );
    json.set(
        "ingest_checkpointing_throughput_ratio_iqr",
        Val::Raw(format!("{:.3}", q3 - q1)),
    );
    json.int("ingest_checkpointing_bench_cores", cores as u64);
    println!(
        "  baseline {baseline:.0} vs while-checkpointing {live:.0} events/sec (medians); \
         median round ratio {ratio:.3}, IQR {q1:.3}–{q3:.3} over {LIVE_CKPT_ROUNDS} rounds, \
         {cores} core(s)"
    );
    assert!(
        ratio >= floor,
        "ingest while checkpointing must retain >={floor}x baseline on a {cores}-core box \
         in two independent measurements — the median of {LIVE_CKPT_ROUNDS} round ratios is \
         {ratio:.3} (IQR {q1:.3}–{q3:.3}); non-quiescent cuts are the whole point"
    );
}

/// Incremental checkpoint size at a ~1% dirty ratio: 20k single-entry
/// targets, one full cut, 1% of targets re-touched, one delta cut.
/// **Guard**: the delta writes <10% of the full checkpoint's bytes, or
/// the run aborts (bench-smoke runs this via `--ckpt-only`).
fn run_checkpoint_bytes(json: &mut Json) {
    use magicrecs_persist::{FsyncPolicy, PersistOptions, PersistentEngine, RebasePolicy, TempDir};

    println!("# checkpoint bytes: full vs incremental at ~1% dirty");
    const TARGETS: u64 = 20_000;
    const DIRTY: u64 = 200;
    let tmp = TempDir::new("bench-ckpt-bytes");
    let mut pe = PersistentEngine::create(
        tmp.path(),
        small_graph(1_000),
        0,
        DetectorConfig::production(),
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 4 << 20,
            checkpoint_every: 0, // manual cuts only
            rebase: RebasePolicy {
                max_chain_len: 8,
                max_delta_bytes_ratio: 0.0,
            },
        },
    )
    .expect("create");
    // One τ-window timestamp for everything: nothing expires between
    // the cuts, so the delta covers exactly the re-touched targets.
    let t = Timestamp::from_secs(43_200);
    let events: Vec<EdgeEvent> = (0..TARGETS)
        .map(|i| EdgeEvent::follow(UserId(11 + i % 3), UserId(1_000_000 + i), t))
        .collect();
    for chunk in events.chunks(256) {
        pe.on_events(chunk).expect("ingest");
    }
    pe.checkpoint().expect("full cut");
    let touch: Vec<EdgeEvent> = (0..DIRTY)
        .map(|i| EdgeEvent::follow(UserId(77), UserId(1_000_000 + i * (TARGETS / DIRTY)), t))
        .collect();
    pe.on_events(&touch).expect("re-touch");
    pe.checkpoint().expect("delta cut");

    let size_of = |ext: &str| -> u64 {
        std::fs::read_dir(tmp.path())
            .expect("read checkpoint dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == ext))
            .map(|e| e.metadata().expect("metadata").len())
            .max()
            .unwrap_or(0)
    };
    let full = size_of("mgck");
    let inc = size_of("mgci");
    let dirty_pct = 100.0 * DIRTY as f64 / TARGETS as f64;
    json.int("checkpoint_full_bytes", full);
    json.int("checkpoint_incremental_bytes", inc);
    json.num("checkpoint_incremental_dirty_pct", dirty_pct);
    json.num(
        "checkpoint_incremental_bytes_pct_of_full",
        100.0 * inc as f64 / full as f64,
    );
    println!(
        "  full {full} B vs incremental {inc} B at {dirty_pct:.1}% dirty \
         ({:.1}% of full)",
        100.0 * inc as f64 / full as f64
    );
    assert!(
        full > 0 && inc > 0,
        "both cuts must have landed (full {full} B, incremental {inc} B)"
    );
    assert!(
        inc * 10 < full,
        "an incremental checkpoint at {dirty_pct:.1}% dirty ({inc} B) must write <10% of \
         the full checkpoint ({full} B)"
    );
}

/// Overhead bar of the instrumentation guard, percent.
const OBS_GUARD_PCT: f64 = 3.0;

/// Live/disabled rounds the instrumentation guard takes its median over.
const OBS_GUARD_ROUNDS: usize = 11;

/// The instrumentation-overhead guard: the celebrity trace through two
/// `ConcurrentEngine`s differing only in their metrics registry — a
/// live [`Registry::new`] (striped-atomic counters plus the detect-time
/// histogram) vs [`Registry::disabled`], where every stat update is one
/// branch on a cold bool. Each of [`OBS_GUARD_ROUNDS`] rounds builds a
/// fresh engine per arm over one shared graph and feeds both the trace
/// 64 events at a time, alternately, timing every chunk; which arm goes
/// first alternates per chunk and per round. A replay of this fixture
/// runs at one of two speeds (about 2× apart) for seconds at a time, on
/// either arm, so whole replays timed one after the other can catch one
/// arm in the slow phase only; chunk by chunk, both arms see the same
/// phases. Each round yields one live/disabled ratio; every ratio and
/// the IQR are printed. **Guard**: the median ratio is at most
/// 1 + [`OBS_GUARD_PCT`]/100, with one full re-measurement before
/// aborting — the obs-smoke CI job runs this via `--obs-only`.
///
/// [`Registry::new`]: magicrecs_obs::Registry::new
/// [`Registry::disabled`]: magicrecs_obs::Registry::disabled
fn run_obs_guard(json: &mut Json) {
    use magicrecs_obs::Registry;

    let limit_pct = OBS_GUARD_PCT;
    println!("# instrumentation overhead: live registry vs disabled (guard {limit_pct}%)");
    let graph = std::sync::Arc::new(celebrity_graph());
    let trace = celebrity_trace(2_000);
    let config = DetectorConfig::production();

    // One round: fresh engines (store state must not accumulate across
    // rounds), construction untimed, events through the batched hot path
    // the cluster workers use. Returns `[disabled, live]` ns/event.
    let round = |r: usize| -> [f64; 2] {
        let engines = [Registry::disabled(), Registry::new()].map(|registry| {
            ConcurrentEngine::with_registry(graph.clone(), config, registry).expect("engine")
        });
        let mut ns = [0.0; 2];
        let mut out = Vec::new();
        let mut n = 0usize;
        for (c, chunk) in trace.chunks(64).enumerate() {
            let first = (r + c) % 2;
            for arm in [first, 1 - first] {
                out.clear();
                let start = Instant::now();
                n += engines[arm].on_events_into(chunk, &mut out);
                ns[arm] += start.elapsed().as_secs_f64() * 1e9;
            }
        }
        black_box(n);
        ns.map(|t| t / trace.len() as f64)
    };
    // `([median disabled, median live], ascending live/disabled round
    // ratios)`; the warm-up round fills the page cache, allocator and
    // interner.
    let measure = || paired_rounds(OBS_GUARD_ROUNDS, ["disabled", "live"], "ns/event", &round);
    let overhead_pct = |ratios: &[f64]| (quantile(ratios, 0.5) - 1.0) * 100.0;
    let ([mut off, mut live], mut ratios) = measure();
    if overhead_pct(&ratios) > limit_pct {
        println!(
            "  median overhead {:.2}% above the {limit_pct}% guard — remeasuring once",
            overhead_pct(&ratios)
        );
        ([off, live], ratios) = measure();
    }
    let pct = overhead_pct(&ratios);
    let (q1, q3) = (quantile(&ratios, 0.25), quantile(&ratios, 0.75));
    json.num("obs_instrumented_ns_per_event", live);
    json.num("obs_disabled_ns_per_event", off);
    // Small signed percentages and ratios need more than `num`'s one decimal.
    json.set("obs_overhead_pct", Val::Raw(format!("{pct:.2}")));
    json.set(
        "obs_overhead_ratio_iqr",
        Val::Raw(format!("{:.3}", q3 - q1)),
    );
    println!(
        "  instrumented {live:.0} vs disabled {off:.0} ns/event (medians); median round \
         ratio {:.3} ({pct:+.2}%), IQR {q1:.3}–{q3:.3} over {OBS_GUARD_ROUNDS} rounds",
        quantile(&ratios, 0.5)
    );
    assert!(
        pct <= limit_pct,
        "live instrumentation costs {pct:.2}% over the disabled registry (median of \
         {OBS_GUARD_ROUNDS} round ratios, IQR {q1:.3}–{q3:.3}), above the {limit_pct}% guard \
         in two independent measurements"
    );
}

/// Bytes-per-entry ceiling for `D` on the sparse upsert arm. The target
/// table's 24-byte slots, with single entries inline, and shrunk wheel
/// buckets put it near 41; a `FxHashMap` of 32-byte inline-or-deque
/// lists read about 61, and a layout that gives every target a heap
/// `VecDeque` and hashes every touch into a bucket set about 118.
const D_BYTES_PER_ENTRY_MAX: f64 = 80.0;

/// Timer-noise allowance for the capped-vs-uncapped witness fetch guard
/// on the 1,024-entry, 63-source list, where both walks visit every
/// entry.
const CAPPED_FETCH_NOISE: f64 = 1.05;

/// Paired rounds of the worst-case list's capped-vs-uncapped guard: each
/// round times both walks back to back, alternating which goes first,
/// and the guard judges the median of the rounds' ratios.
const CAPPED_FETCH_ROUNDS: usize = 11;

/// The `D` arms (ablations B3/B4 and the sparse upsert cross-check).
///
/// * `d_ingest_b3_ns_per_event` — a Zipf steady trace ingested under each
///   pruning strategy (wheel advancing every 1024 inserts).
/// * `d_witness_query_ns` — witness fetch, uncapped and capped at the
///   production `max_witnesses` (interleaved), on the hottest target of a
///   pre-loaded store and on a 1,024-entry list from 63 distinct sources
///   (the capped walk's worst case: it never reaches the cap), plus an
///   absent target. **Hard-asserted**: the capped fetch is no slower than
///   the uncapped one on both lists. On the worst case, where the two
///   walks do the same work, the median capped/uncapped ratio of
///   [`CAPPED_FETCH_ROUNDS`] paired rounds (first arm alternating) must
///   be within [`CAPPED_FETCH_NOISE`]; the rounds' IQR is printed.
/// * `d_hasher_b4_ns_per_key` — insert + lookup of 100k `UserId` keys,
///   Fx vs the default SipHash.
/// * `d_advance_wheel_1k_targets_ns` — one wheel advance reclaiming 1,000
///   expired single-entry targets.
/// * `d_upsert_sparse_ns_per_event` — the isolated cross-check for the
///   served ledger's `temporal.upsert_ns_per_event`: steady-sparse-shaped
///   follows (Zipf(0.5) over 500k ranks, each rank spread over 40 ids)
///   into a 16-shard store with the production entry cap, each insert
///   followed by the witness fetch the engine makes (capped at the
///   production `max_witnesses`). Nothing expires, as
///   in the served run. `d_bytes_per_entry_sparse` is the store's
///   capacity-based `memory_bytes` over its resident entries at the end —
///   deterministic, and **hard-asserted** ≤ [`D_BYTES_PER_ENTRY_MAX`].
/// * `d_upsert_sparse_2t_ns_per_event` — the same trace and work from two
///   threads into one fresh 16-shard store, split by target the way the
///   served tier routes events to its workers (`route_mix(dst) % 2`).
///   With 16 shards each thread then writes only its own half of them,
///   and every two neighbouring shards belong to different threads, so
///   this arm, unlike the one-thread arm, can see neighbouring shards
///   sharing a cache line. Reported as busy time per event: the two
///   threads' elapsed times summed over all events. Not asserted: on a
///   2-core VM its run-to-run spread hid the difference between the
///   cache-line-aligned shards and unaligned ones over 10 runs each.
fn run_d(json: &mut Json) {
    use magicrecs_gen::Zipf;
    use magicrecs_temporal::ShardedTemporalStore;
    use magicrecs_types::Duration;
    use std::collections::HashMap;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# D ingest per pruning strategy (B3)");
    let trace = bench_trace(5_000, 2_000.0, 20, 0xB3);
    let strategies = [
        ("eager", PruneStrategy::Eager),
        ("wheel", PruneStrategy::Wheel),
        (
            "sweep_10k",
            PruneStrategy::Sweep {
                sweep_every: 10_000,
            },
        ),
    ];
    let medians = interleaved_medians(strategies.len(), |_, ai| {
        let strategy = strategies[ai].1;
        let start = Instant::now();
        let mut d = TemporalEdgeStore::new(Duration::from_secs(120), strategy);
        for e in trace.events() {
            d.insert(e.src, e.dst, e.created_at);
            if strategy == PruneStrategy::Wheel && d.stats().inserted.is_multiple_of(1024) {
                d.advance(e.created_at);
            }
        }
        black_box(d.resident_entries());
        start.elapsed().as_secs_f64() * 1e9 / trace.len() as f64
    });
    let fields: Vec<(&str, f64)> = strategies
        .iter()
        .map(|&(name, _)| name)
        .zip(medians)
        .collect();
    for (name, ns) in &fields {
        println!("  {name} {ns:.0} ns/event");
    }
    json.obj("d_ingest_b3_ns_per_event", &fields);

    println!("# D witness query (capped at the production max_witnesses vs uncapped)");
    let cap = DetectorConfig::production().max_witnesses;
    let trace = bench_trace(5_000, 2_000.0, 20, 0xB3B);
    let mut hot = TemporalEdgeStore::with_window(Duration::from_secs(600));
    let mut counts: FxHashMap<UserId, usize> = FxHashMap::default();
    for e in trace.events() {
        hot.insert(e.src, e.dst, e.created_at);
        *counts.entry(e.dst).or_default() += 1;
    }
    let hottest = counts
        .iter()
        .max_by_key(|&(&dst, &n)| (n, dst))
        .map(|(&dst, _)| dst)
        .expect("trace is non-empty");
    let hot_now = trace.end().expect("trace is non-empty");
    // The dedup worst case for the capped walk: 1,024 entries from 63
    // distinct sources never reach a cap of 64, so the walk visits every
    // entry, as the uncapped one does.
    let worst_dst = UserId(7);
    let mut worst = TemporalEdgeStore::with_window(Duration::from_secs(600));
    for i in 0..1_024u64 {
        worst.insert(
            UserId(1_000 + i % 63),
            worst_dst,
            Timestamp::from_secs(i / 4),
        );
    }
    let worst_now = Timestamp::from_secs(256);
    let mut out = Vec::with_capacity(1_024);
    // Arms: hot uncapped, hot capped, worst uncapped, worst capped.
    let mut fetch = |arm: usize| {
        let (d, dst, now) = if arm < 2 {
            (&mut hot, hottest, hot_now)
        } else {
            (&mut worst, worst_dst, worst_now)
        };
        let cap = if arm % 2 == 1 { cap } else { None };
        time_ns(1_024, 3, || {
            out.clear();
            d.witnesses_capped_into(black_box(dst), now, cap, &mut out);
            black_box(out.len());
        })
    };
    // `([hot uncapped, hot capped, worst uncapped, worst capped] medians,
    // ascending worst-case capped/uncapped round ratios)`. A round's two
    // worst-case walks run back to back, so slow phases of the box land
    // on both; which goes first alternates, so warming the list up for
    // the second walk favours neither.
    let mut measure = || {
        let hot = interleaved_medians(2, |_, arm| fetch(arm));
        let ([unc, capped], ratios) =
            paired_rounds(CAPPED_FETCH_ROUNDS, ["uncapped", "capped"], "ns", |round| {
                let mut ns = [0.0; 2];
                for arm in [round % 2, 1 - round % 2] {
                    ns[arm] = fetch(2 + arm);
                }
                ns
            });
        ([hot[0], hot[1], unc, capped], ratios)
    };
    let guard =
        |q: &[f64; 4], ratios: &[f64]| q[1] <= q[0] && quantile(ratios, 0.5) <= CAPPED_FETCH_NOISE;
    let (mut q, mut ratios) = measure();
    // One remeasure absorbs a noise spike.
    if !guard(&q, &ratios) {
        println!(
            "  capped fetch slower than uncapped ({q:.0?}, worst-case median ratio {:.3}) \
             — remeasuring once",
            quantile(&ratios, 0.5)
        );
        (q, ratios) = measure();
    }
    let (q1, ratio, q3) = (
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.75),
    );
    let cold = time_ns(4_096, 5, || {
        out.clear();
        hot.witnesses_into(black_box(UserId(u64::MAX - 1)), hot_now, &mut out);
        black_box(out.len());
    });
    println!(
        "  hot target ({} entries) {:.0} ns uncapped, {:.0} ns capped; \
         1,024 entries from 63 sources {:.0} ns uncapped, {:.0} ns capped, median round \
         ratio {ratio:.3} (IQR {q1:.3}–{q3:.3} over {CAPPED_FETCH_ROUNDS} rounds); \
         cold target {cold:.0} ns",
        counts[&hottest], q[0], q[1], q[2], q[3]
    );
    json.obj(
        "d_witness_query_ns",
        &[
            ("hot_target", q[0]),
            ("hot_target_capped", q[1]),
            ("dedup_worst_1k_63_sources", q[2]),
            ("dedup_worst_1k_63_sources_capped", q[3]),
            ("cold_target", cold),
        ],
    );
    assert!(
        guard(&q, &ratios),
        "the capped witness fetch must be no slower than the uncapped one in two \
         independent measurements: hot target {:.0} ns capped vs {:.0} ns uncapped, \
         1,024-entry worst case median round ratio {ratio:.3} (IQR {q1:.3}–{q3:.3}; \
         x{CAPPED_FETCH_NOISE} noise allowance)",
        q[1],
        q[0]
    );

    println!("# D hasher (B4), 100k UserId keys");
    let keys: Vec<UserId> = (0..100_000u64)
        .map(|i| UserId(i.wrapping_mul(0x9E37)))
        .collect();
    fn insert_lookup<M: Default>(
        keys: &[UserId],
        insert: impl Fn(&mut M, UserId, u64),
        get: impl Fn(&M, UserId) -> u64,
    ) -> f64 {
        time_ns(1, 7, || {
            let mut m = M::default();
            for (i, &k) in keys.iter().enumerate() {
                insert(&mut m, k, i as u64);
            }
            let acc = keys
                .iter()
                .fold(0u64, |acc, &k| acc.wrapping_add(get(&m, k)));
            black_box(acc);
        }) / keys.len() as f64
    }
    let fx = insert_lookup::<FxHashMap<UserId, u64>>(
        &keys,
        |m, k, v| {
            m.insert(k, v);
        },
        |m, k| m[&k],
    );
    let sip = insert_lookup::<HashMap<UserId, u64>>(
        &keys,
        |m, k, v| {
            m.insert(k, v);
        },
        |m, k| m[&k],
    );
    println!("  fx {fx:.1} ns/key, siphash {sip:.1} ns/key");
    json.obj("d_hasher_b4_ns_per_key", &[("fx", fx), ("siphash", sip)]);

    println!("# D wheel advance, 1k expired targets");
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let mut d = TemporalEdgeStore::with_window(Duration::from_secs(60));
            for i in 0..1_000u64 {
                d.insert(UserId(i), UserId(10_000 + i), Timestamp::from_secs(1));
            }
            let start = Instant::now();
            d.advance(Timestamp::from_secs(10_000));
            let ns = start.elapsed().as_secs_f64() * 1e9;
            assert_eq!(d.resident_targets(), 0, "advance reclaims every target");
            ns
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let advance = samples[samples.len() / 2];
    println!("  {advance:.0} ns per advance");
    json.num("d_advance_wheel_1k_targets_ns", advance);

    // Same shape as the served steady-sparse trace: targets rank-Zipf,
    // then spread over `FAN` ids per rank; sources uniform; timestamps
    // spread over 530 s, inside τ, so nothing expires.
    const RANKS: usize = 500_000;
    const FAN: u64 = 40;
    const EVENTS: usize = 2_000_000;
    const SPAN_US: u64 = 530_000_000;
    println!("# D sparse upsert ({EVENTS} events, 16 shards)");
    let config = DetectorConfig::production();
    // The engine's cap for the production witness cap: 16x headroom,
    // floor 1024 (`magicrecs_core`'s `entry_cap_for`).
    let entry_cap = config.max_witnesses.map(|w| (w * 16).max(1024));
    let zipf = Zipf::new(RANKS, 0.5);
    let mut rng = StdRng::seed_from_u64(0xD5);
    let start_us = 12 * 3600 * 1_000_000u64;
    let events: Vec<(UserId, UserId, Timestamp)> = (0..EVENTS)
        .map(|i| {
            let rank = zipf.sample(&mut rng) as u64;
            let dst = UserId(rank + RANKS as u64 * rng.random_range(0..FAN));
            let src = UserId(rng.random_range(0..RANKS as u64));
            let at = start_us + SPAN_US * i as u64 / EVENTS as u64;
            (src, dst, Timestamp::from_micros(at))
        })
        .collect();
    let new_store = || {
        ShardedTemporalStore::new(config.tau, PruneStrategy::Wheel, 16).with_entry_cap(entry_cap)
    };
    // Each insert followed by the capped witness fetch the engine makes;
    // returns the elapsed seconds.
    let upsert = |d: &ShardedTemporalStore, events: &[(UserId, UserId, Timestamp)]| {
        let mut out = Vec::new();
        let start = Instant::now();
        for &(src, dst, at) in events {
            d.insert(src, dst, at);
            out.clear();
            d.witnesses_capped_into(dst, at, config.max_witnesses, &mut out);
            black_box(out.len());
        }
        start.elapsed().as_secs_f64()
    };
    let d = new_store();
    let ns = upsert(&d, &events) * 1e9 / EVENTS as f64;
    let resident = d.resident_entries();
    assert_eq!(resident, EVENTS as u64, "nothing expires inside τ");
    let bytes_per_entry = d.memory_bytes() as f64 / resident as f64;
    println!(
        "  {ns:.0} ns/event, {resident} entries in {} targets, {bytes_per_entry:.1} bytes/entry",
        d.resident_targets()
    );
    json.num("d_upsert_sparse_ns_per_event", ns);
    json.num("d_bytes_per_entry_sparse", bytes_per_entry);
    assert!(
        bytes_per_entry <= D_BYTES_PER_ENTRY_MAX,
        "D holds {bytes_per_entry:.1} bytes per resident entry on the sparse upsert arm, \
         above the {D_BYTES_PER_ENTRY_MAX} guard"
    );
    drop(d);

    println!("# D sparse upsert, 2 threads routed by target ({EVENTS} events, 16 shards)");
    let mut halves: [Vec<(UserId, UserId, Timestamp)>; 2] = [Vec::new(), Vec::new()];
    for &e in &events {
        halves[(magicrecs_types::route_mix(&e.1) % 2) as usize].push(e);
    }
    let d = new_store();
    let start_line = std::sync::Barrier::new(2);
    let busy_s: f64 = std::thread::scope(|s| {
        let threads: Vec<_> = halves
            .iter()
            .map(|half| {
                let (d, start_line, upsert) = (&d, &start_line, &upsert);
                s.spawn(move || {
                    start_line.wait();
                    upsert(d, half)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("upsert thread"))
            .sum()
    });
    assert_eq!(
        d.resident_entries(),
        EVENTS as u64,
        "nothing expires inside τ"
    );
    let ns_2t = busy_s * 1e9 / EVENTS as f64;
    println!(
        "  {ns_2t:.0} ns/event busy ({} + {} events, {:.2}x the one-thread arm, {cores} core(s))",
        halves[0].len(),
        halves[1].len(),
        ns_2t / ns
    );
    json.num("d_upsert_sparse_2t_ns_per_event", ns_2t);
    json.int("d_bench_cores", cores as u64);
}

/// Persistence arms: snapshot refresh (full rebuild vs delta apply on a
/// ~1%-changed graph), WAL single-vs-group-commit append cost, and
/// crash-recovery replay rate. Keys are merge-recorded like everything
/// else; `--no-persist` keeps the previous values.
fn run_persist(json: &mut Json) {
    use magicrecs_graph::GraphDelta;
    use magicrecs_persist::{FsyncPolicy, PersistOptions, PersistentEngine, TempDir};

    println!("# persistence (snapshot refresh / wal / recovery)");
    let base = bench_graph();
    // A refreshed world touching ~1% of edges: drop every 200th edge
    // (0.5%) and add as many fresh follows (new users included).
    let mut edges: Vec<(UserId, UserId)> = base
        .iter_forward()
        .flat_map(|(a, ts)| ts.into_iter().map(move |b| (a, b)))
        .collect();
    let total = edges.len();
    let mut keep = Vec::with_capacity(total);
    for (i, e) in edges.drain(..).enumerate() {
        if i % 200 != 0 {
            keep.push(e);
        }
    }
    let dropped = total - keep.len();
    for i in 0..dropped as u64 {
        // Half the additions come from brand-new (higher-id) users, half
        // re-wire existing ones.
        let src = if i % 2 == 0 {
            UserId(30_000_000 + i)
        } else {
            UserId(1 + i % 20_000)
        };
        keep.push((src, UserId(40_000_000 + i % 500)));
    }
    let new_graph = {
        let mut gb = GraphBuilder::with_capacity(keep.len());
        gb.extend(keep.iter().copied());
        gb.build()
    };
    let delta = GraphDelta::between(&base, &new_graph, 0, 1).expect("valid refresh delta");
    let changed_pct = 100.0 * delta.len() as f64 / total as f64;
    println!(
        "  delta: {} of {} edges changed ({changed_pct:.2}%)",
        delta.len(),
        total
    );

    // Both arms measure "construct the refreshed S" — the engine publish
    // itself (swap_graph / swap_graph_delta) is a pointer swap common to
    // both and is exercised for correctness below, not timed separately.
    let full_ns = time_ns(1, 5, || {
        let mut gb = GraphBuilder::with_capacity(keep.len());
        gb.extend(keep.iter().copied());
        black_box(gb.build());
    });
    let delta_ns = time_ns(1, 5, || {
        black_box(base.apply_delta(&delta).expect("delta applies"));
    });
    json.num("snapshot_full_refresh_ns", full_ns);
    json.num("snapshot_delta_refresh_ns", delta_ns);
    json.num("snapshot_delta_changed_pct", changed_pct);
    json.num("speedup_snapshot_delta_over_full", full_ns / delta_ns);
    println!(
        "  full rebuild {:.1} ms vs delta apply {:.1} ms ({:.1}x)",
        full_ns / 1e6,
        delta_ns / 1e6,
        full_ns / delta_ns
    );
    assert!(
        delta_ns < full_ns,
        "delta refresh ({delta_ns:.0} ns) must beat the full rebuild ({full_ns:.0} ns) \
         on a {changed_pct:.2}% delta"
    );
    // And the engine-level publish path agrees with the full swap.
    let engine =
        ConcurrentEngine::new(base.clone(), DetectorConfig::production()).expect("engine builds");
    engine.swap_graph_delta(&delta).expect("delta swap");
    assert_eq!(
        engine.graph().num_follow_edges(),
        new_graph.num_follow_edges()
    );

    // WAL append cost, single vs group commit.
    run_wal(json);

    // Crash-recovery replay rate: a full run's WAL replayed through the
    // store with emission suppressed. Ingest goes through the batched
    // path (the deployment hot path); the log is byte-identical either
    // way.
    let wal_trace = bench_trace(20_000, 2_000.0, 25, 0x3A1);
    let wal_events = wal_trace.events();
    let tmp = TempDir::new("bench-recovery");
    let mut pe = PersistentEngine::create(
        tmp.path(),
        base.clone(),
        0,
        DetectorConfig::production(),
        PersistOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 4 << 20,
            checkpoint_every: 0, // replay the whole log
            ..PersistOptions::default()
        },
    )
    .expect("create");
    for chunk in wal_events.chunks(64) {
        pe.on_events(chunk).expect("ingest");
    }
    pe.close().expect("close");
    let start = Instant::now();
    let (_, report) = PersistentEngine::open(
        tmp.path(),
        DetectorConfig::production(),
        magicrecs_graph::CapStrategy::None,
        PersistOptions::default(),
    )
    .expect("recover");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.replayed as usize, wal_events.len());
    let rate = report.replayed as f64 / secs;
    json.num("recovery_events_per_sec", rate);
    println!(
        "  recovery replayed {} events in {:.2}s ({:.0} events/sec, snapshot load included)",
        report.replayed, secs, rate
    );

    // Non-quiescent checkpoint tax + incremental chain size (PR 7).
    run_live_checkpoint(json);
    run_checkpoint_bytes(json);
}

fn main() {
    let args = parse_args();
    if args.concurrent_only {
        // CI smoke: run the scaling arm, print, leave the committed
        // baseline untouched.
        let mut json = Json::new();
        run_concurrent(&mut json, args.max_threads);
        return;
    }
    if args.persist_only {
        // CI persist-smoke: persistence arms (including the delta<full
        // hard assert), no JSON rewrite.
        let mut json = Json::new();
        run_persist(&mut json);
        return;
    }
    if args.wal_only {
        // CI bench-smoke: the group-commit guard alone, no JSON rewrite.
        let mut json = Json::new();
        run_wal(&mut json);
        return;
    }
    if args.ckpt_only {
        // CI bench-smoke: the incremental<full checkpoint-size guard
        // alone, no JSON rewrite.
        let mut json = Json::new();
        run_checkpoint_bytes(&mut json);
        return;
    }
    if args.obs_only {
        // CI obs-smoke: the instrumentation-overhead guard alone, no
        // JSON rewrite.
        let mut json = Json::new();
        run_obs_guard(&mut json);
        return;
    }
    if args.d_only {
        // CI build-test: the `D` arms and their bytes-per-entry guard, no
        // JSON rewrite.
        let mut json = Json::new();
        run_d(&mut json);
        return;
    }

    let mut json = Json::new();
    json.str("units", "ns_per_op");
    json.str(
        "note",
        "hot-path baseline written by `cargo run -p magicrecs-bench --release --bin hotpath` \
         (merge semantics: unmeasured keys survive)",
    );
    json.str("simd_level", &format!("{:?}", simd_level()));

    // ---- S lookup: dense CSR vs seed hash-CSR ---------------------------
    println!("# s_lookup");
    let graph = small_graph(20_000);
    let seed_csr = SeedHashCsr::from_graph(&graph);
    let probe_users: Vec<UserId> = graph
        .iter_inverse()
        .map(|(b, _)| b)
        .step_by(7)
        .take(4096)
        .collect();
    let probe_dense: Vec<DenseId> = probe_users
        .iter()
        .map(|&b| graph.dense_of(b).expect("interned"))
        .collect();
    let dense_ns = time_ns(256, 5, || {
        let mut total = 0usize;
        for &d in &probe_dense {
            total += black_box(graph.followers_dense(d)).len();
        }
        black_box(total);
    }) / probe_dense.len() as f64;
    let seed_ns = time_ns(256, 5, || {
        let mut total = 0usize;
        for &b in &probe_users {
            total += black_box(seed_csr.followers(b)).len();
        }
        black_box(total);
    }) / probe_users.len() as f64;
    json.obj(
        "s_lookup_20k_users",
        &[("dense_csr", dense_ns), ("seed_hash_csr", seed_ns)],
    );
    println!("  dense {dense_ns:.1} ns vs seed hash {seed_ns:.1} ns");

    // ---- delta kernel: scan/gallop crossover sweep ----------------------
    run_threshold_fresh(&mut json);

    // ---- end-to-end detector, Zipf steady trace -------------------------
    println!("# detector on Zipf steady trace (20k users, k=3)");
    let trace = bench_trace(20_000, 2_000.0, 10, 0xD1);
    // Engine construction (graph clone, store build) stays untimed.
    let zipf = interleaved_medians(1, |_, _| {
        let engine = ConcurrentEngine::new(graph.clone(), DetectorConfig::production()).unwrap();
        let mut n = 0usize;
        let start = Instant::now();
        for &e in trace.events() {
            n += engine.on_event(e).len();
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / trace.len() as f64
    })[0];
    println!("  {zipf:.0} ns/event");
    json.num("detector_zipf_20k_k3_ns_per_event", zipf);

    // ---- end-to-end detector, celebrity workload ------------------------
    // 512 As follow 4 ordinary Bs; 200k extra users follow the celebrity
    // B too. Per round, the 4 ordinary Bs act on a fresh C and then the
    // celebrity acts, counting the 512 As against the 200k-follower list.
    // Two timings of the same rounds, interleaved: all 5 events in one
    // microsecond (every witness fresh, so the kernel's pivot lists
    // generate), and 1 µs apart (only the trigger fresh — the common
    // single-fresh path, the celebrity probed rather than walked).
    println!("# detector on celebrity workload (k=3)");
    let celeb = UserId(9_000_000);
    let celeb_graph = celebrity_graph();
    let rounds = 200u64;
    let run_celeb = |spread: bool| -> f64 {
        let engine =
            ConcurrentEngine::new(celeb_graph.clone(), DetectorConfig::production()).unwrap();
        let mut n = 0usize;
        let start = Instant::now();
        for round in 0..rounds {
            let c = UserId(20_000_000 + round);
            let t = round * 3_600_000_000;
            let at = |i: u64| Timestamp::from_micros(if spread { t + i } else { t });
            for b in 0..4u64 {
                n += engine
                    .on_event(EdgeEvent::follow(UserId(1_000_000 + b), c, at(b)))
                    .len();
            }
            n += engine.on_event(EdgeEvent::follow(celeb, c, at(4))).len();
        }
        black_box(n);
        start.elapsed().as_secs_f64() * 1e9 / (rounds * 5) as f64
    };
    let celeb_ns = interleaved_medians(2, |_, ai| run_celeb(ai == 1));
    println!("  same microsecond {:.0} ns/event", celeb_ns[0]);
    println!("  distinct microseconds {:.0} ns/event", celeb_ns[1]);
    json.num("detector_celebrity_k3_ns_per_event", celeb_ns[0]);
    json.num("detector_celebrity_fresh_k3_ns_per_event", celeb_ns[1]);

    // ---- D: ingest, witness fetch, hasher, wheel, sparse upsert ---------
    run_d(&mut json);

    // ---- concurrent engine scaling --------------------------------------
    if !args.no_concurrent {
        run_concurrent(&mut json, args.max_threads);
    }

    // ---- persistence: delta refresh, WAL append, recovery replay --------
    if !args.no_persist {
        run_persist(&mut json);
    }

    // ---- instrumentation overhead: live registry vs disabled ------------
    run_obs_guard(&mut json);

    // ---- merge + write --------------------------------------------------
    let path = args.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
            .join("BENCH_hotpath.json")
    });
    json.merge_into_file(&path);
    println!("\nwrote {}", path.display());
}
