//! Loopback end-to-end tests: handshake, subscribe/deliver, barriers,
//! typed shedding and hint-honoring retries, control plane, and
//! connection hygiene.

use magicrecs_core::ConcurrentEngine;
use magicrecs_server::{
    connect_per_worker, AdmissionConfig, Backoff, ClientConn, Frame, Server, ServerConfig,
    ShedCode, WireErrorCode,
};
use magicrecs_types::{DetectorConfig, Duration, EdgeEvent, Timestamp, UserId};
use std::sync::Arc;

fn u(n: u64) -> UserId {
    UserId(n)
}

fn ts(s: u64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// A1(1), A2(2) both follow B1(10), B2(11): B1→C, B2→C completes the
/// k=2 diamond for both As.
fn diamond_graph() -> magicrecs_graph::FollowGraph {
    let mut b = magicrecs_graph::GraphBuilder::new();
    b.extend([(u(1), u(10)), (u(1), u(11)), (u(2), u(10)), (u(2), u(11))]);
    b.build()
}

fn start(workers: usize, admission: AdmissionConfig) -> (Server, Arc<ConcurrentEngine>) {
    let engine =
        Arc::new(ConcurrentEngine::new(diamond_graph(), DetectorConfig::example()).unwrap());
    let server = Server::start(
        engine.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers,
            admission,
            pin_cores: false,
            checkpoint_hook: None,
        },
    )
    .unwrap();
    (server, engine)
}

#[test]
fn handshake_reports_worker_topology() {
    let (server, _engine) = start(3, AdmissionConfig::unlimited());
    let conns = connect_per_worker(server.addr()).unwrap();
    assert_eq!(conns.len(), 3);
    for (i, c) in conns.iter().enumerate() {
        assert_eq!(c.worker_id, i as u32);
        assert_eq!(c.num_workers, 3);
    }
    server.shutdown();
}

#[test]
fn ingest_detect_deliver_roundtrip() {
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Subscribe).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);

    conn.send(&Frame::Ingest {
        tag: 7,
        events: vec![
            EdgeEvent::follow(u(10), u(99), ts(100)),
            EdgeEvent::follow(u(11), u(99), ts(105)),
        ],
    })
    .unwrap();

    match conn.recv().unwrap() {
        Frame::Deliver { tag, candidates } => {
            assert_eq!(tag, 7);
            let users: Vec<UserId> = candidates.iter().map(|c| c.user).collect();
            assert_eq!(users, vec![u(1), u(2)]);
            for c in &candidates {
                assert_eq!(c.target, u(99));
                assert_eq!(c.witnesses, vec![u(10), u(11)]);
            }
        }
        other => panic!("expected Deliver, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unsubscribed_connections_get_no_deliveries() {
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Ingest {
        tag: 1,
        events: vec![
            EdgeEvent::follow(u(10), u(99), ts(100)),
            EdgeEvent::follow(u(11), u(99), ts(105)),
        ],
    })
    .unwrap();
    // The barrier ack must be the *first* frame back: no Deliver.
    let before = conn.barrier(2).unwrap();
    assert!(before.is_empty(), "got {before:?}");
    server.shutdown();
}

#[test]
fn rate_limit_sheds_with_typed_response_and_retry_hint() {
    // Burst of 256 events, then an empty bucket at 1 ev/s.
    let (server, engine) = start(
        1,
        AdmissionConfig {
            source_rate: 1.0,
            source_burst: 256.0,
            ..AdmissionConfig::unlimited()
        },
    );
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();

    let burst: Vec<EdgeEvent> = (0..256)
        .map(|i| EdgeEvent::follow(u(1000 + i), u(2000), ts(i)))
        .collect();
    conn.send(&Frame::Ingest {
        tag: 1,
        events: burst.clone(),
    })
    .unwrap();
    conn.send(&Frame::Ingest {
        tag: 2,
        events: burst,
    })
    .unwrap();
    let frames = conn.barrier(99).unwrap();
    let sheds: Vec<&Frame> = frames
        .iter()
        .filter(|f| matches!(f, Frame::Shed { .. }))
        .collect();
    assert_eq!(sheds.len(), 1, "exactly the second batch sheds: {frames:?}");
    match sheds[0] {
        Frame::Shed {
            tag,
            code,
            retry_after_us,
        } => {
            assert_eq!(*tag, 2);
            assert_eq!(*code, ShedCode::RateLimited);
            // 256 events at 1/s: the hint is large (capped at 60s).
            assert!(*retry_after_us > 1_000_000, "hint {retry_after_us}µs");
        }
        _ => unreachable!(),
    }
    let s = engine.stats();
    assert_eq!(s.accepted, 256);
    assert_eq!(s.shed, 256);
    server.shutdown();
}

/// A client that honors the shed hints: each round it resends only the
/// batches the token bucket refused, keyed by tag, and sleeps a backoff
/// floored at the round's largest hint. Whole-batch sheds make the
/// resends idempotent, so the server admits every event exactly once.
#[test]
fn hint_honoring_retries_admit_every_event_exactly_once() {
    const BATCH: u64 = 128;
    const BATCHES: u64 = 16;
    // The bucket holds two batches and refills one every 62.5 ms. The
    // first round's 16 batches arrive back to back, so the first round
    // admits the 256-event burst plus 2,048 events a second of its own
    // time; it sheds unless it takes longer than the ≈ 0.9 s the whole
    // run needs to drain.
    let (server, _engine) = start(
        1,
        AdmissionConfig {
            source_rate: 2_048.0,
            source_burst: (2 * BATCH) as f64,
            ..AdmissionConfig::unlimited()
        },
    );
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    let mut pending: Vec<(u64, Vec<EdgeEvent>)> = (0..BATCHES)
        .map(|tag| {
            let events = (0..BATCH)
                .map(|i| EdgeEvent::follow(u(1000 + i), u(5000 + tag), ts(tag)))
                .collect();
            (tag, events)
        })
        .collect();
    let sent = BATCHES * BATCH;
    let mut backoff = Backoff::new(
        std::time::Duration::from_micros(200),
        std::time::Duration::from_millis(200),
        0xD1A1,
    );
    let (mut rounds, mut first_round_shed, mut shed_events) = (0u64, 0usize, 0u64);
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds <= 1_000, "retries do not converge");
        for (tag, events) in &pending {
            conn.send(&Frame::Ingest {
                tag: *tag,
                events: events.clone(),
            })
            .unwrap();
        }
        let mut shed_tags = Vec::new();
        let mut round_hint = 0u64;
        for frame in conn.barrier(u64::MAX).unwrap() {
            match frame {
                Frame::Shed {
                    tag,
                    code,
                    retry_after_us,
                } => {
                    assert_eq!(code, ShedCode::RateLimited, "only the bucket may shed");
                    assert!(retry_after_us > 0, "a shed must carry a retry hint");
                    shed_tags.push(tag);
                    round_hint = round_hint.max(retry_after_us);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        if rounds == 1 {
            first_round_shed = shed_tags.len();
        }
        shed_events += BATCH * shed_tags.len() as u64;
        pending.retain(|(tag, _)| shed_tags.contains(tag));
        if !pending.is_empty() {
            std::thread::sleep(backoff.next_delay(round_hint));
        }
    }
    assert!(first_round_shed > 0, "the first round must shed");
    assert!(rounds > 1, "sheds imply a retry round");

    let metrics = conn.fetch_metrics().unwrap();
    server.shutdown();
    let get = |name: &str| -> u64 {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("scrape missing {name}"))
            .1
    };
    assert_eq!(get("engine_accepted"), sent, "each event admitted once");
    assert_eq!(get("engine_events"), sent, "each event detected once");
    assert_eq!(get("engine_shed"), shed_events, "every shed was answered");
}

#[test]
fn stats_roundtrip_over_the_wire() {
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Ingest {
        tag: 1,
        events: vec![
            EdgeEvent::follow(u(10), u(99), ts(100)),
            EdgeEvent::follow(u(11), u(99), ts(101)),
        ],
    })
    .unwrap();
    conn.barrier(2).unwrap();
    let metrics = conn.fetch_metrics().unwrap();
    let get = |name: &str| -> u64 {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("scrape missing {name}"))
            .1
    };
    assert_eq!(get("engine_events"), 2);
    assert_eq!(get("engine_accepted"), 2);
    assert_eq!(get("engine_shed"), 0);
    assert_eq!(get("engine_candidates"), 2);
    assert_eq!(get("engine_firing_events"), 1);
    assert!(get("engine_queue_high_watermark") >= 2);
    assert_eq!(get("server_connections"), 1);
    assert_eq!(get("server_dropped_deliveries"), 0);
    assert_eq!(get("engine_detect_us_count"), 2);
    // Store gauges and the stage-latency decomposition from the global
    // registry ride the same scrape.
    assert!(get("store_inserted") >= 2);
    assert!(get("stage_e2e_us_count") >= 1);
    assert!(get("stage_detect_us_count") >= 1);
    assert!(get("server_frames_ingest") >= 1);
    server.shutdown();
}

#[test]
fn checkpoint_without_hook_is_typed_unsupported() {
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::CheckpointReq).unwrap();
    match conn.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, WireErrorCode::Unsupported),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn checkpoint_hook_is_invoked() {
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let engine =
        Arc::new(ConcurrentEngine::new(diamond_graph(), DetectorConfig::example()).unwrap());
    let hook_hits = hits.clone();
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig::unlimited(),
            pin_cores: false,
            checkpoint_hook: Some(Arc::new(move || {
                hook_hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(())
            })),
        },
    )
    .unwrap();
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::CheckpointReq).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);
    assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
    server.shutdown();
}

#[test]
fn delta_publish_applies_to_the_snapshot_slot() {
    let (server, engine) = start(1, AdmissionConfig::unlimited());
    // New graph adds A3(3) following B1 and B2.
    let old = diamond_graph();
    let mut b = magicrecs_graph::GraphBuilder::new();
    b.extend([
        (u(1), u(10)),
        (u(1), u(11)),
        (u(2), u(10)),
        (u(2), u(11)),
        (u(3), u(10)),
        (u(3), u(11)),
    ]);
    let new = b.build();
    let delta = magicrecs_graph::GraphDelta::between(&old, &new, 1, 2).unwrap();
    let mut bytes = Vec::new();
    magicrecs_graph::save_delta(&delta, &mut bytes).unwrap();

    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::DeltaPublish { bytes }).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);
    assert!(engine.graph().follows(u(3), u(10)));

    // Garbage delta: typed internal error, connection stays usable.
    conn.send(&Frame::DeltaPublish {
        bytes: vec![0xFF; 16],
    })
    .unwrap();
    match conn.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, WireErrorCode::Internal),
        other => panic!("expected Error, got {other:?}"),
    }
    conn.barrier(1).unwrap();
    server.shutdown();
}

#[test]
fn garbage_bytes_earn_a_typed_error_then_close() {
    use std::io::{Read, Write};
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Subscribe).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);

    // Bypass the typed client: write a corrupt frame directly.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&magicrecs_server::wire::encode(&Frame::Hello {
        preferred_worker: 0,
    }))
    .unwrap();
    let mut junk = magicrecs_server::wire::encode(&Frame::Subscribe);
    let last = junk.len() - 1;
    junk[last] ^= 0xFF; // break the checksum
    raw.write_all(&junk).unwrap();
    // Read until EOF: the server sends Error{BadFrame} and closes.
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    let mut frames = Vec::new();
    let mut off = 0;
    while let Ok(Some((f, used))) = magicrecs_server::wire::decode(&buf[off..]) {
        frames.push(f);
        off += used;
    }
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: WireErrorCode::BadFrame,
                ..
            }
        )),
        "got {frames:?}"
    );
    server.shutdown();
}

#[test]
fn frames_pipelined_behind_hello_are_answered() {
    use std::io::{Read, Write};
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    // Write Hello + Subscribe in a single segment: the Subscribe rides
    // into the acceptor's handshake read as leftover bytes and must
    // still be answered (regression: leftover was parked in the read
    // buffer until the socket next signalled readable — which for a
    // client waiting on the reply is never).
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut bytes = magicrecs_server::wire::encode(&Frame::Hello {
        preferred_worker: 0,
    });
    bytes.extend_from_slice(&magicrecs_server::wire::encode(&Frame::Subscribe));
    raw.write_all(&bytes).unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut frames = Vec::new();
    while frames.len() < 2 {
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed before answering; got {frames:?}");
        buf.extend_from_slice(&chunk[..n]);
        while let Some((f, used)) = magicrecs_server::wire::decode(&buf).unwrap() {
            buf.drain(..used);
            frames.push(f);
        }
    }
    assert!(matches!(frames[0], Frame::HelloAck { .. }), "{frames:?}");
    assert_eq!(frames[1], Frame::OkAck);
    server.shutdown();
}

#[test]
fn events_spread_across_workers_by_target_routing() {
    let (server, engine) = start(2, AdmissionConfig::unlimited());
    let mut conns = connect_per_worker(server.addr()).unwrap();
    let n = conns.len() as u64;
    // 100 events over distinct targets, routed client-side.
    for i in 0..100u64 {
        let dst = u(5000 + i);
        let w = magicrecs_types::route_mix(&dst) % n;
        conns[w as usize]
            .send(&Frame::Ingest {
                tag: i,
                events: vec![EdgeEvent::follow(u(1), dst, ts(i))],
            })
            .unwrap();
    }
    for c in conns.iter_mut() {
        c.barrier(u64::MAX).unwrap();
    }
    assert_eq!(engine.stats().events, 100);
    server.shutdown();
}

#[test]
fn kill_and_reconnect_resumes_cleanly() {
    let (server, engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Ingest {
        tag: 1,
        events: vec![EdgeEvent::follow(u(10), u(99), ts(100))],
    })
    .unwrap();
    conn.barrier(2).unwrap();
    conn.kill();

    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Subscribe).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);
    conn.send(&Frame::Ingest {
        tag: 2,
        events: vec![EdgeEvent::follow(u(11), u(99), ts(100 + 5))],
    })
    .unwrap();
    match conn.recv().unwrap() {
        Frame::Deliver { candidates, .. } => {
            assert_eq!(candidates.len(), 2, "diamond completes across the kill");
        }
        other => panic!("expected Deliver, got {other:?}"),
    }
    assert_eq!(engine.stats().events, 2);
    server.shutdown();
}

#[test]
fn window_expiry_applies_across_the_wire() {
    let (server, _engine) = start(1, AdmissionConfig::unlimited());
    let mut conn = ClientConn::connect(server.addr(), Some(0)).unwrap();
    conn.send(&Frame::Subscribe).unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::OkAck);
    let tau = DetectorConfig::example().tau;
    conn.send(&Frame::Ingest {
        tag: 1,
        events: vec![
            EdgeEvent::follow(u(10), u(99), ts(100)),
            // Outside the window: no diamond.
            EdgeEvent::follow(
                u(11),
                u(99),
                Timestamp::from_secs(100) + tau + Duration::from_secs(1),
            ),
        ],
    })
    .unwrap();
    let frames = conn.barrier(2).unwrap();
    assert!(frames.is_empty(), "stale witness fired: {frames:?}");
    server.shutdown();
}
