//! Stage accounting over the wire: a served run's per-stage latency
//! histograms must be populated and must account for the server's own
//! end-to-end measure.
//!
//! The stage histograms live on the process-global registry, which every
//! server in a process records into. This file holds one test so no other
//! server writes to them while it reads the sums.

use magicrecs_core::ConcurrentEngine;
use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
use magicrecs_server::{AdmissionConfig, ClientConn, Frame, Server, ServerConfig};
use magicrecs_types::DetectorConfig;
use std::sync::Arc;

#[test]
fn stage_sums_account_for_end_to_end() {
    let graph = GraphGen::new(GraphGenConfig::small()).generate();
    let trace = Scenario::steady(1_000, ScenarioConfig::small().with_rate(60.0));
    let engine = Arc::new(ConcurrentEngine::new(graph, DetectorConfig::example()).unwrap());
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig::unlimited(),
            pin_cores: false,
            checkpoint_hook: None,
        },
    )
    .unwrap();
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Subscribe).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);
    for (tag, batch) in trace.events().chunks(32).enumerate() {
        conn.send(&Frame::Ingest {
            tag: tag as u64,
            events: batch.to_vec(),
        })
        .unwrap();
    }
    let mut delivered = 0;
    for frame in conn.barrier(u64::MAX).unwrap() {
        match frame {
            Frame::Deliver { candidates, .. } => delivered += candidates.len(),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(delivered > 0, "the trace must deliver candidates");

    let metrics = conn.fetch_metrics().unwrap();
    server.shutdown();
    let get = |name: &str| -> u64 {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("scrape missing {name}"))
            .1
    };
    assert_eq!(get("engine_accepted"), trace.len() as u64);
    let count = get("stage_e2e_us_count");
    assert!(count > 0, "no admitted batch recorded an e2e stage");
    assert!(
        get("stage_detect_us_count") > 0,
        "detect stage histogram is empty"
    );
    // The stages are disjoint spans inside the end-to-end span, so their
    // sums cannot exceed it, and the gaps between them are a few
    // instructions, so the sums cover most of it. Each span truncates to
    // whole µs on its own: grant 10 µs a batch of rounding slack, and 10%
    // for the gaps.
    let parts = get("stage_admission_us_sum")
        + get("stage_wal_us_sum")
        + get("stage_detect_us_sum")
        + get("stage_deliver_us_sum");
    let e2e = get("stage_e2e_us_sum");
    let slack = 10 * count;
    assert!(
        parts <= e2e + slack,
        "stage sums ({parts} µs) exceed end-to-end ({e2e} µs): stages overlap"
    );
    assert!(
        parts + slack >= e2e - e2e / 10,
        "stage sums ({parts} µs) cover less than 90% of end-to-end ({e2e} µs): \
         a stage is unmeasured"
    );
}
