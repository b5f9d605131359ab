//! Shared fixtures for the replication integration tests: cluster maps
//! on free loopback ports below the ephemeral range, a deterministic
//! candidate-rich event stream, and a fault-free twin that mirrors the
//! routed client's batching exactly.

// Each test binary compiles its own copy of this module and none uses
// every helper, so per-binary dead-code analysis is meaningless here.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};

use magicrecs_core::ConcurrentEngine;
use magicrecs_replica::{fixture_graph, ClusterMap, RouteTable};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, Timestamp, UserId};

/// Node ports come from `[NODE_PORT_LOW, NODE_PORT_LOW + NODE_PORTS)`,
/// below Linux's default ephemeral range (32768–60999). A node binds its
/// port only when it starts, after the map is built; an ephemeral port
/// handed out in between (an outgoing connection's local port) could
/// take a port picked from inside that range.
const NODE_PORT_LOW: u32 = 20_000;
const NODE_PORTS: u32 = 12_000;

/// A loopback address for a node, bound once to check it is free and then
/// let go. Ports are handed out in turn from a per-process counter that
/// starts at an offset taken from the process id, so concurrent tests and
/// test processes take different ports; a port some other socket holds
/// is skipped.
pub fn free_addr() -> SocketAddr {
    static NEXT: AtomicU32 = AtomicU32::new(u32::MAX);
    let _ = NEXT.compare_exchange(
        u32::MAX,
        std::process::id().wrapping_mul(61) % NODE_PORTS,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    for _ in 0..NODE_PORTS {
        let port = NODE_PORT_LOW + NEXT.fetch_add(1, Ordering::Relaxed) % NODE_PORTS;
        match TcpListener::bind(("127.0.0.1", port as u16)) {
            Ok(l) => return l.local_addr().expect("local addr"),
            Err(e) if e.kind() == ErrorKind::AddrInUse => continue,
            Err(e) => panic!("bind 127.0.0.1:{port}: {e}"),
        }
    }
    panic!(
        "no free loopback port in {NODE_PORT_LOW}..{}",
        NODE_PORT_LOW + NODE_PORTS
    )
}

/// A cluster map over `n` freshly picked loopback ports, with the
/// given `partition -> (leader, follower)` placement.
pub fn map_with(users: u64, seed: u64, n: u32, placement: &[(u32, u32)]) -> ClusterMap {
    let mut text = format!("users {users}\nseed {seed}\n");
    for id in 0..n {
        text.push_str(&format!("node {id} {}\n", free_addr()));
    }
    for (p, &(leader, follower)) in placement.iter().enumerate() {
        text.push_str(&format!(
            "partition {p} leader {leader} follower {follower}\n"
        ));
    }
    ClusterMap::parse(&text).expect("valid map")
}

/// A deterministic stream dense enough to fire the k=3 diamond
/// detector: rotating targets, many distinct actors per target, one
/// second apart (well inside the 10-minute window).
pub fn make_events(n: usize, users: u64) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            let src = UserId(1 + ((i as u64 * 7) % (users - 1)));
            let dst = UserId(1 + ((i as u64 / 24) % 32));
            EdgeEvent::follow(src, dst, Timestamp::from_secs(i as u64))
        })
        .collect()
}

/// Fault-free reference: one plain in-memory engine per partition,
/// fed the *same* per-partition batches the routed client stages, so
/// candidates can be compared tag-for-tag.
pub struct Twin {
    table: RouteTable,
    engines: Vec<ConcurrentEngine>,
    next_seq: Vec<u64>,
    /// `(partition, batch tag) -> candidates` (only non-empty batches).
    pub per_tag: HashMap<(u32, u64), Vec<Candidate>>,
}

impl Twin {
    pub fn new(map: &ClusterMap) -> Twin {
        let graph = fixture_graph(map);
        let table = map.route_table();
        let engines = (0..table.partitions())
            .map(|_| {
                ConcurrentEngine::new(graph.clone(), DetectorConfig::default())
                    .expect("twin engine")
            })
            .collect();
        let parts = table.partitions();
        Twin {
            table,
            engines,
            next_seq: vec![0; parts],
            per_tag: HashMap::new(),
        }
    }

    /// Mirrors `RoutedClient::ingest`'s routing and tagging.
    pub fn ingest(&mut self, events: &[EdgeEvent]) {
        let parts = self.table.partitions();
        let mut groups: Vec<Vec<EdgeEvent>> = vec![Vec::new(); parts];
        for e in events {
            groups[self.table.partition_of(&e.dst) as usize].push(*e);
        }
        for (p, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let tag = self.next_seq[p];
            self.next_seq[p] += group.len() as u64;
            let candidates = self.engines[p].on_events(&group);
            if !candidates.is_empty() {
                self.per_tag.insert((p as u32, tag), candidates);
            }
        }
    }
}

/// `true` when every candidate in `sub` occurs in `full` (multiset
/// containment; order-insensitive).
pub fn candidate_subset(sub: &[Candidate], full: &[Candidate]) -> bool {
    let mut pool: Vec<&Candidate> = full.iter().collect();
    for c in sub {
        match pool.iter().position(|p| *p == c) {
            Some(i) => {
                pool.swap_remove(i);
            }
            None => return false,
        }
    }
    true
}
