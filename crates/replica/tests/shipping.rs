//! In-process WAL-shipping tests: a leader + warm follower pair on
//! loopback, covering steady-state catch-up with `D` parity, leader
//! restart (the tail reconnects and the duplicate re-fetch is
//! absorbed), the per-connection byte cursor across segment rolls, the
//! `SegmentsReq` long-poll, prompt tail stops, and the typed gap
//! refusal when a follower asks for history the source no longer holds.
//! The byte-level kill-point matrix (every segment/record cut) lives in
//! `magicrecs-persist`'s `ShipDecoder` tests; these exercise the same
//! decoder through the real wire loop.

mod common;

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use common::{make_events, map_with, Twin};
use magicrecs_obs::recorder;
use magicrecs_persist::TempDir;
use magicrecs_replica::{
    fixture_graph, ClusterMap, Coordinator, Node, NodeConfig, NodeHandle, RoutedClient,
};
use magicrecs_server::wire::Frame;
use magicrecs_server::ClientConn;

/// Some tests read process-global counters and the flight recorder, so
/// every test in this binary runs alone.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One counter from the process-global registry the in-process nodes
/// record on.
fn global_counter(name: &str) -> u64 {
    magicrecs_obs::export::flatten(&magicrecs_obs::global().snapshot())
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Sizes of the `wal-` segment files in a unit directory, in order.
fn wal_sizes(dir: &Path) -> Vec<u64> {
    let mut segs: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().len())
        })
        .filter(|(n, _)| n.starts_with("wal-"))
        .collect();
    segs.sort();
    segs.into_iter().map(|(_, len)| len).collect()
}

fn node(map: &ClusterMap, id: u32, root: &Path, tweak: impl Fn(&mut NodeConfig)) -> NodeHandle {
    let mut cfg = NodeConfig::new(id, map.clone(), root.join(format!("n{id}")));
    tweak(&mut cfg);
    Node::start(cfg).unwrap()
}

/// Waits until the follower's partition-0 state equals the leader's:
/// same next sequence, same `D` entries.
fn wait_state_parity(leader: &NodeHandle, follower: &NodeHandle, what: &str) {
    wait_for(what, Duration::from_secs(10), || {
        leader.durable(0) == follower.durable(0)
    });
    let lead = leader.d_state(0).unwrap();
    assert!(
        !lead.entries.is_empty(),
        "{what}: the leader must hold D entries"
    );
    assert_eq!(
        follower.d_state(0),
        Some(lead),
        "{what}: follower state diverged"
    );
}

fn wait_for<F: FnMut() -> bool>(what: &str, timeout: Duration, mut f: F) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn warm_follower_tails_to_parity_and_reports_lag() {
    let _serial = serial();
    let map = map_with(600, 0xF01, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-steady");
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    let mut twin = Twin::new(&map);
    let mut client = RoutedClient::new(map.clone());
    let events = make_events(1500, map.users);
    for chunk in events.chunks(50) {
        client.ingest(chunk).unwrap();
        twin.ingest(chunk);
    }
    // Drain = every batch replicated; after this the follower must be
    // at full parity with the leader.
    client.drain(Duration::from_secs(10)).unwrap();
    assert_eq!(client.staged(0), events.len() as u64);
    assert_eq!(leader.durable(0), Some(events.len() as u64));
    wait_for("follower parity", Duration::from_secs(5), || {
        follower.durable(0) == Some(events.len() as u64)
    });
    // The apply-only follower holds the same D as the detecting leader.
    wait_state_parity(&leader, &follower, "steady-state parity");

    // Delivered candidates match the fault-free twin tag-for-tag.
    assert!(!twin.per_tag.is_empty(), "fixture must fire candidates");
    assert_eq!(client.delivered().len(), twin.per_tag.len());
    for (key, expect) in &twin.per_tag {
        assert_eq!(client.delivered().get(key), Some(expect), "tag {key:?}");
    }

    // The coordinator sees matching watermarks and the follower's
    // progress reports have advanced the leader's replicated watermark.
    let coord = Coordinator::new(map);
    let lead = coord.status(0, 0).unwrap();
    let foll = coord.status(1, 0).unwrap();
    assert!(lead.leading && !foll.leading);
    assert_eq!(lead.durable, foll.durable);
    assert_eq!(lead.replicated, lead.durable);

    // Replication lag is a scrapeable gauge and the tail loop ran.
    let scrape = coord.metrics(1).unwrap();
    let get = |n: &str| scrape.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
    assert_eq!(get("replica_lag_events"), Some(0));
    assert!(get("replica_tail_rounds").unwrap_or(0) > 0);

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn follower_survives_leader_restart_and_duplicate_refetch() {
    let _serial = serial();
    let map = map_with(500, 0xF02, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-restart");
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    let mut client = RoutedClient::new(map.clone());
    let events = make_events(900, map.users);
    let (first, second) = events.split_at(450);
    for chunk in first.chunks(45) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();

    // Bounce the leader: its listener and every connection (the
    // client's and the shipped stream) die mid-tail; on reopen the WAL
    // is recovered from disk and the follower's tail reconnects,
    // re-fetching the current segment from offset zero (the decoder's
    // duplicate skip absorbs the overlap).
    leader.shutdown();
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    assert_eq!(leader.durable(0), Some(450), "restart must recover the WAL");

    for chunk in second.chunks(45) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();
    wait_for("post-restart parity", Duration::from_secs(5), || {
        follower.durable(0) == Some(events.len() as u64)
    });

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn follower_refuses_history_gap_with_typed_trace() {
    let _serial = serial();
    // Build a leader whose early WAL segments are gone (checkpointed,
    // then reclaimed-by-hand), so a from-zero follower faces a hole.
    let map = map_with(400, 0xF03, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-gap");
    {
        let mut engine = magicrecs_persist::PersistentEngine::create(
            &tmp.path().join("n0").join("p0"),
            fixture_graph(&map),
            0,
            magicrecs_types::DetectorConfig::default(),
            magicrecs_persist::PersistOptions {
                fsync: magicrecs_persist::FsyncPolicy::Always,
                segment_bytes: 4 << 10,
                checkpoint_every: 0,
                ..Default::default()
            },
        )
        .unwrap();
        for e in make_events(600, map.users) {
            engine.on_event(e).unwrap();
        }
        engine.checkpoint().unwrap();
        assert!(
            engine.shared().wal_segments() > 2,
            "need several segments to punch a hole"
        );
        engine.close().unwrap();
    }
    // Drop the first WAL segment: history now starts above seq 0.
    let dir = tmp.path().join("n0").join("p0");
    let mut wals: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    wals.sort();
    std::fs::remove_file(dir.join(&wals[0])).unwrap();

    let trace_floor = recorder::current_seq();
    let leader = Node::start(NodeConfig::new(0, map.clone(), tmp.path().join("n0"))).unwrap();
    let follower = Node::start(NodeConfig::new(1, map.clone(), tmp.path().join("n1"))).unwrap();

    // The follower (durable 0) must refuse the hole — typed, traced,
    // and without ever applying a record it cannot have verified.
    wait_for("gap trace", Duration::from_secs(5), || {
        recorder::dump_since(trace_floor)
            .iter()
            .any(|e| e.kind == magicrecs_obs::TraceKind::ReplicaGap)
    });
    assert_eq!(
        follower.durable(0),
        Some(0),
        "a gapped follower must not diverge"
    );

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn caught_up_segments_req_long_polls_until_the_next_ingest() {
    let _serial = serial();
    let map = map_with(300, 0xF04, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-long-poll");
    let bound = Duration::from_secs(1);
    // No follower runs: this connection is the only poller.
    let leader = node(&map, 0, tmp.path(), |c| c.poll_interval = bound);
    let mut conn = ClientConn::connect(leader.addr(), None).unwrap();
    let poll = Frame::SegmentsReq {
        partition: 0,
        from_seq: 0,
    };

    // Idle: nothing past seq 0, so the reply waits out the bound.
    let t = Instant::now();
    conn.send(&poll).unwrap();
    assert!(matches!(conn.recv().unwrap(), Frame::SegmentsResp { .. }));
    let idle = t.elapsed();
    assert!(
        idle >= bound && idle < bound + Duration::from_millis(500),
        "idle long-poll took {idle:?}, bound {bound:?}"
    );

    // Parked: the next durable batch answers it, long before the bound.
    conn.send(&poll).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    let mut client = RoutedClient::new(map.clone());
    client.ingest(&make_events(40, map.users)).unwrap();
    let acked = t.elapsed();
    let Frame::SegmentsResp { segments, .. } = conn.recv().unwrap() else {
        panic!("expected SegmentsResp");
    };
    let answered = t.elapsed();
    assert!(!segments.is_empty());
    assert_eq!(leader.durable(0), Some(40));
    assert!(
        answered < acked + Duration::from_millis(100) && answered < bound / 4,
        "woken long-poll answered {answered:?} after ingest start (acked at {acked:?})"
    );

    leader.shutdown();
}

#[test]
fn cursor_tail_keeps_parity_across_segment_rolls_and_mid_segment_restart() {
    let _serial = serial();
    // Under 600 events at one per second: the whole trace sits inside
    // one window, so the restarted leader's replayed D and the
    // follower's applied D hold exactly the same entries.
    let map = map_with(500, 0xF05, 2, &[(0, 1)]);
    let tmp = TempDir::new("ship-cursor");
    let segment_bytes = 1 << 10;
    let small = |c: &mut NodeConfig| c.segment_bytes = segment_bytes;
    let trace_floor = recorder::current_seq();
    let gaps0 = global_counter("replica_gaps");
    let shipped0 = global_counter("replica_ship_bytes");
    let leader = node(&map, 0, tmp.path(), small);
    let follower = node(&map, 1, tmp.path(), small);
    let unit_dir = tmp.path().join("n0").join("p0");

    let mut client = RoutedClient::new(map.clone());
    let events = make_events(580, map.users);
    let (first, second) = events.split_at(290);
    for chunk in first.chunks(29) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();
    wait_state_parity(&leader, &follower, "parity across segment rolls");
    let sizes = wal_sizes(&unit_dir);
    assert!(sizes.len() > 4, "want several rolls, got {sizes:?}");
    let active = *sizes.last().unwrap();
    assert!(
        active > 32 && active < segment_bytes,
        "the restart must land mid-segment (active segment {active} bytes)"
    );

    // Bounce the leader mid-segment: the tail reconnects, re-reads that
    // one segment from offset 0, and carries on with a fresh cursor.
    leader.shutdown();
    let leader = node(&map, 0, tmp.path(), small);
    for chunk in second.chunks(29) {
        client.ingest(chunk).unwrap();
    }
    client.drain(Duration::from_secs(10)).unwrap();
    wait_state_parity(&leader, &follower, "parity across a leader restart");

    assert_eq!(global_counter("replica_gaps"), gaps0, "no ReplicaGap");
    assert!(
        !recorder::dump_since(trace_floor)
            .iter()
            .any(|e| e.kind == magicrecs_obs::TraceKind::ReplicaGap),
        "no ReplicaGap trace"
    );
    // Each byte ships once, plus the one segment re-read after the
    // restart — not the active segment again on every round.
    let sizes = wal_sizes(&unit_dir);
    let wal_bytes: u64 = sizes.iter().sum();
    let largest = sizes.iter().copied().max().unwrap();
    let shipped = global_counter("replica_ship_bytes") - shipped0;
    assert!(
        shipped >= wal_bytes && shipped <= wal_bytes + largest,
        "shipped {shipped} bytes for a {wal_bytes}-byte log (largest segment {largest})"
    );

    follower.shutdown();
    leader.shutdown();
}

#[test]
fn stopping_a_tail_parked_in_a_long_poll_does_not_wait_out_the_bound() {
    let _serial = serial();
    let map = map_with(300, 0xF06, 2, &[(0, 1), (0, 1)]);
    let tmp = TempDir::new("ship-stop");
    let bound = Duration::from_secs(10);
    let leader = node(&map, 0, tmp.path(), |c| c.poll_interval = bound);
    let follower = node(&map, 1, tmp.path(), |_| {});
    let mut client = RoutedClient::new(map.clone());
    client.ingest(&make_events(60, map.users)).unwrap();
    client.drain(Duration::from_secs(10)).unwrap();
    // Both tails are caught up, so both sit in a long-poll now.
    std::thread::sleep(Duration::from_millis(100));

    // Promotion stops partition 0's tail first.
    let t = Instant::now();
    let mut coord = Coordinator::new(map);
    coord.promote(0, 1).unwrap();
    let promote = t.elapsed();
    // Shutdown stops partition 1's.
    let t = Instant::now();
    follower.shutdown();
    let shutdown = t.elapsed();
    assert!(
        promote < bound / 10 && shutdown < bound / 10,
        "promotion took {promote:?} and shutdown {shutdown:?} against a {bound:?} long-poll"
    );

    leader.shutdown();
}
