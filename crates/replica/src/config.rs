//! Static cluster topology: which node listens where, and which node
//! leads / follows each partition.
//!
//! The map is deliberately a *launch-time* artifact — a small text file
//! every process reads once. Failover and rebalance mutate the live
//! routing state (epochs, gate roles) through the wire protocol, not
//! this file; the map's leader/follower columns are only the *initial*
//! placement. The text format, one directive per line:
//!
//! ```text
//! users 2000
//! seed 48879
//! node 0 127.0.0.1:41000
//! node 1 127.0.0.1:41001
//! partition 0 leader 0 follower 1
//! ```
//!
//! `users`/`seed` pin the deterministic graph fixture so every node
//! (and any fault-free twin an experiment compares against) detects
//! over the *same* follow graph — replication ships only the event WAL,
//! never the base graph.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use crate::route::RouteTable;
use magicrecs_types::{Error, Result};

/// One process in the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Stable node id (also the `hint` value carried by `WrongLeader`).
    pub id: u32,
    /// Loopback listen address.
    pub addr: SocketAddr,
}

/// Initial placement of one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Partition id, dense from zero.
    pub partition: u32,
    /// Node that accepts writes at epoch 0.
    pub leader: u32,
    /// Node that tails the leader's WAL from the start.
    pub follower: u32,
}

/// The whole static topology plus the shared graph fixture parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Every node, sorted by id.
    pub nodes: Vec<NodeSpec>,
    /// Every partition, sorted by partition id (dense from zero).
    pub partitions: Vec<PartitionSpec>,
    /// Users in the deterministic graph fixture.
    pub users: u64,
    /// Seed for the deterministic graph fixture.
    pub seed: u64,
}

impl ClusterMap {
    /// Parses the text format described in the module docs. Unknown
    /// directives are rejected (typo safety); partitions must come out
    /// dense from zero.
    pub fn parse(text: &str) -> Result<ClusterMap> {
        let mut nodes = BTreeMap::new();
        let mut partitions = BTreeMap::new();
        let mut users = 2000u64;
        let mut seed = 0xBEEFu64;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| {
                Error::InvalidConfig(format!("cluster map line {}: {what}: {line}", lineno + 1))
            };
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "users" if toks.len() == 2 => {
                    users = toks[1].parse().map_err(|_| bad("bad user count"))?;
                }
                "seed" if toks.len() == 2 => {
                    seed = toks[1].parse().map_err(|_| bad("bad seed"))?;
                }
                "node" if toks.len() == 3 => {
                    let id: u32 = toks[1].parse().map_err(|_| bad("bad node id"))?;
                    let addr: SocketAddr = toks[2].parse().map_err(|_| bad("bad address"))?;
                    if nodes.insert(id, NodeSpec { id, addr }).is_some() {
                        return Err(bad("duplicate node"));
                    }
                }
                "partition" if toks.len() == 6 && toks[2] == "leader" && toks[4] == "follower" => {
                    let partition: u32 = toks[1].parse().map_err(|_| bad("bad partition id"))?;
                    let leader: u32 = toks[3].parse().map_err(|_| bad("bad leader id"))?;
                    let follower: u32 = toks[5].parse().map_err(|_| bad("bad follower id"))?;
                    let spec = PartitionSpec {
                        partition,
                        leader,
                        follower,
                    };
                    if partitions.insert(partition, spec).is_some() {
                        return Err(bad("duplicate partition"));
                    }
                }
                _ => return Err(bad("unknown directive")),
            }
        }
        let map = ClusterMap {
            nodes: nodes.into_values().collect(),
            partitions: partitions.into_values().collect(),
            users,
            seed,
        };
        map.validate()?;
        Ok(map)
    }

    /// Renders back to the text format (`parse` round-trips it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("users {}\n", self.users));
        out.push_str(&format!("seed {}\n", self.seed));
        for n in &self.nodes {
            out.push_str(&format!("node {} {}\n", n.id, n.addr));
        }
        for p in &self.partitions {
            out.push_str(&format!(
                "partition {} leader {} follower {}\n",
                p.partition, p.leader, p.follower
            ));
        }
        out
    }

    fn validate(&self) -> Result<()> {
        if self.partitions.is_empty() {
            return Err(Error::InvalidConfig("cluster map has no partitions".into()));
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.partition != i as u32 {
                return Err(Error::InvalidConfig(format!(
                    "partitions must be dense from 0; missing partition {i}"
                )));
            }
            for (role, id) in [("leader", p.leader), ("follower", p.follower)] {
                if self.node(id).is_none() {
                    return Err(Error::InvalidConfig(format!(
                        "partition {} names unknown {role} node {id}",
                        p.partition
                    )));
                }
            }
            if p.leader == p.follower {
                return Err(Error::InvalidConfig(format!(
                    "partition {} leader and follower are both node {}",
                    p.partition, p.leader
                )));
            }
        }
        Ok(())
    }

    /// Looks up a node by id.
    pub fn node(&self, id: u32) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Address of a node; typed error if the id is unknown.
    pub fn addr_of(&self, id: u32) -> Result<SocketAddr> {
        self.node(id)
            .map(|n| n.addr)
            .ok_or_else(|| Error::InvalidConfig(format!("unknown node {id}")))
    }

    /// The partition spec, if the id is in range.
    pub fn partition(&self, partition: u32) -> Option<&PartitionSpec> {
        self.partitions.get(partition as usize)
    }

    /// Both replicas of a partition, leader first — the candidate set a
    /// client walks when the leader stops answering.
    pub fn replicas(&self, partition: u32) -> Vec<u32> {
        match self.partition(partition) {
            Some(p) => vec![p.leader, p.follower],
            None => Vec::new(),
        }
    }

    /// Partitions a given node initially leads.
    pub fn led_by(&self, node: u32) -> Vec<u32> {
        self.partitions
            .iter()
            .filter(|p| p.leader == node)
            .map(|p| p.partition)
            .collect()
    }

    /// Partitions a given node initially follows.
    pub fn followed_by(&self, node: u32) -> Vec<u32> {
        self.partitions
            .iter()
            .filter(|p| p.follower == node)
            .map(|p| p.partition)
            .collect()
    }

    /// Epoch-0 route table matching the initial placement.
    pub fn route_table(&self) -> RouteTable {
        RouteTable::new(self.partitions.iter().map(|p| p.leader).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# two nodes, two partitions
users 500
seed 7
node 0 127.0.0.1:41000
node 1 127.0.0.1:41001
partition 0 leader 0 follower 1
partition 1 leader 1 follower 0
";

    #[test]
    fn parses_and_round_trips() {
        let map = ClusterMap::parse(SAMPLE).unwrap();
        assert_eq!(map.users, 500);
        assert_eq!(map.seed, 7);
        assert_eq!(map.nodes.len(), 2);
        assert_eq!(map.partitions.len(), 2);
        assert_eq!(map.replicas(0), vec![0, 1]);
        assert_eq!(map.replicas(1), vec![1, 0]);
        assert_eq!(map.led_by(0), vec![0]);
        assert_eq!(map.followed_by(0), vec![1]);
        let again = ClusterMap::parse(&map.render()).unwrap();
        assert_eq!(again, map);
    }

    #[test]
    fn rejects_typos_and_holes() {
        assert!(ClusterMap::parse("nod 0 127.0.0.1:1\n").is_err());
        assert!(
            ClusterMap::parse("node 0 127.0.0.1:1\npartition 1 leader 0 follower 0\n").is_err()
        );
        assert!(
            ClusterMap::parse("node 0 127.0.0.1:1\npartition 0 leader 0 follower 0\n").is_err(),
            "self-replication must be refused"
        );
        assert!(
            ClusterMap::parse("node 0 127.0.0.1:1\npartition 0 leader 0 follower 9\n").is_err(),
            "unknown follower must be refused"
        );
        assert!(ClusterMap::parse("").is_err(), "empty map must be refused");
    }

    #[test]
    fn route_table_matches_initial_leaders() {
        let map = ClusterMap::parse(SAMPLE).unwrap();
        let table = map.route_table();
        assert_eq!(table.partitions(), 2);
        assert_eq!(table.route_partition(0).owner, 0);
        assert_eq!(table.route_partition(1).owner, 1);
    }
}
