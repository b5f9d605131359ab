//! Detection benches (experiment E2's micro view): per-event cost on a
//! Twitter-shaped graph and the witness-count scaling of a single
//! detection. Threshold-algorithm choice (ablation B2) is measured at
//! kernel level, in the `intersect` bench and the `hotpath` recorder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use magicrecs_bench::{bench_detector_config, bench_trace, small_graph};
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::GraphBuilder;
use magicrecs_types::{DetectorConfig, EdgeEvent, Timestamp, UserId};
use std::hint::black_box;

fn bench_event_throughput(c: &mut Criterion) {
    let graph = small_graph(20_000);
    let trace = bench_trace(20_000, 2_000.0, 10, 0xD1);
    let mut group = c.benchmark_group("e2_engine_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("steady_20k_users", |b| {
        b.iter(|| {
            let engine = ConcurrentEngine::new(graph.clone(), bench_detector_config()).unwrap();
            let mut n = 0usize;
            for &e in trace.events() {
                n += engine.on_event(e).len();
            }
            black_box(n)
        });
    });
    group.finish();
}

fn bench_witness_scaling(c: &mut Criterion) {
    // One detection with w in-window witnesses, each with 100 followers.
    let mut group = c.benchmark_group("detection_vs_witness_count");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for witnesses in [2usize, 8, 32, 64] {
        let mut g = GraphBuilder::new();
        for w in 0..witnesses as u64 {
            for a in 0..100u64 {
                g.add_edge(UserId(1_000 + a), UserId(w));
            }
        }
        let graph = g.build();
        let cfg = DetectorConfig {
            k: 2,
            max_witnesses: Some(64),
            ..bench_detector_config()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(witnesses),
            &witnesses,
            |b, &w| {
                b.iter_batched(
                    || {
                        let engine = ConcurrentEngine::new(graph.clone(), cfg).unwrap();
                        // Pre-load w−1 witnesses.
                        for i in 0..(w as u64 - 1) {
                            engine.on_event(EdgeEvent::follow(
                                UserId(i),
                                UserId(99_999),
                                Timestamp::from_secs(1),
                            ));
                        }
                        engine
                    },
                    |engine| {
                        // The w-th witness triggers the full intersection.
                        let out = engine.on_event(EdgeEvent::follow(
                            UserId(w as u64 - 1),
                            UserId(99_999),
                            Timestamp::from_secs(2),
                        ));
                        black_box(out.len())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_throughput, bench_witness_scaling);
criterion_main!(benches);
