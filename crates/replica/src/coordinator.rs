//! The static coordinator: the one place that mutates the
//! partition→leader map, by driving `RoleChange`/`FollowReq` sequences
//! against replica nodes over the ordinary wire protocol.
//!
//! It is deliberately *not* a consensus service — the paper's setting
//! (and this reproduction's) is a single operator-driven control plane
//! over a config-defined topology. What the coordinator guarantees is
//! narrower and testable:
//!
//! * **Failover** ([`Coordinator::promote`]): after a leader dies, the
//!   surviving follower is promoted *at its own durable sequence* under
//!   a bumped epoch. Writes acked-but-unshipped by the dead leader may
//!   be above that sequence — that is the acked-tail contract: clients
//!   hold every batch in their [`SeqLedger`] until the **replicated**
//!   watermark passes it, so they re-send exactly the tail the
//!   promotion lost, and the WAL-seq dedup makes the re-send idempotent.
//!
//! * **Rebalance** ([`Coordinator::rebalance`]): moving a partition to
//!   a node that never hosted it ships a base checkpoint + MGCI chain +
//!   WAL tail (`FollowReq` bootstrap), catches the target up live, then
//!   runs a demote→catch-up→promote fence: the old leader's demotion
//!   ack is a hard upper bound on everything it ever acked (see
//!   [`crate::node`] on the fence), the target must reach that bound
//!   before it is promoted, and only then does the route flip. No acked
//!   event is dropped; racing writers get typed `WrongLeader` and
//!   re-route.
//!
//! [`SeqLedger`]: crate::SeqLedger

use std::time::{Duration, Instant};

use crate::route::RouteTable;
use magicrecs_server::wire::{Frame, ReplStatus};
use magicrecs_server::ClientConn;
use magicrecs_types::{Error, Result};

use crate::config::ClusterMap;

/// Drives role changes and keeps the authoritative route table.
pub struct Coordinator {
    map: ClusterMap,
    table: RouteTable,
}

impl Coordinator {
    /// Starts from the map's epoch-0 placement.
    pub fn new(map: ClusterMap) -> Coordinator {
        let table = map.route_table();
        Coordinator { map, table }
    }

    /// The current (post-moves) topology.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    /// The authoritative route table (clients start from a copy and
    /// learn newer epochs from `WrongLeader` hints).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    fn request(&self, node: u32, frame: &Frame) -> Result<Frame> {
        let mut conn = ClientConn::connect(self.map.addr_of(node)?, None)?;
        conn.send(frame)?;
        conn.recv()
    }

    /// `StatusReq` against one node.
    pub fn status(&self, node: u32, partition: u32) -> Result<ReplStatus> {
        match self.request(node, &Frame::StatusReq { partition })? {
            Frame::StatusResp(st) => Ok(st),
            Frame::Error { detail, .. } => Err(Error::Io(format!("status refused: {detail}"))),
            other => Err(unexpected("StatusResp", &other)),
        }
    }

    /// Full metrics scrape from one node.
    pub fn metrics(&self, node: u32) -> Result<Vec<(String, u64)>> {
        match self.request(node, &Frame::MetricsReq)? {
            Frame::MetricsResp { metrics } => Ok(metrics),
            other => Err(unexpected("MetricsResp", &other)),
        }
    }

    /// Tells `node` to (bootstrap if needed and) tail `partition` from
    /// `source`.
    pub fn start_follow(&self, node: u32, partition: u32, source: u32) -> Result<()> {
        let source_addr = self.map.addr_of(source)?.to_string();
        match self.request(
            node,
            &Frame::FollowReq {
                partition,
                source: source_addr,
            },
        )? {
            Frame::OkAck => Ok(()),
            Frame::Error { detail, .. } => Err(Error::Io(format!("follow refused: {detail}"))),
            other => Err(unexpected("OkAck", &other)),
        }
    }

    /// Asks `node` to checkpoint all its units (gives a rebalance
    /// bootstrap a compact base instead of the full WAL history).
    pub fn checkpoint(&self, node: u32) -> Result<()> {
        match self.request(node, &Frame::CheckpointReq)? {
            Frame::OkAck => Ok(()),
            other => Err(unexpected("OkAck", &other)),
        }
    }

    /// Polls `node` until its durable watermark reaches `target`.
    pub fn wait_caught_up(
        &self,
        node: u32,
        partition: u32,
        target: u64,
        timeout: Duration,
    ) -> Result<u64> {
        let deadline = Instant::now() + timeout;
        loop {
            // A bootstrapping target has no unit yet; keep polling.
            if let Ok(st) = self.status(node, partition) {
                if st.durable >= target {
                    return Ok(st.durable);
                }
            }
            if Instant::now() >= deadline {
                return Err(Error::Io(format!(
                    "node {node} did not reach seq {target} on partition {partition} in {timeout:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn role_change(
        &self,
        node: u32,
        partition: u32,
        epoch: u64,
        leader: bool,
        hint: u32,
    ) -> Result<u64> {
        let frame = Frame::RoleChange {
            partition,
            epoch,
            leader,
            hint,
        };
        match self.request(node, &frame)? {
            Frame::RoleChangeAck { durable, .. } => Ok(durable),
            Frame::Error { detail, .. } => Err(Error::Io(format!("role change refused: {detail}"))),
            other => Err(unexpected("RoleChangeAck", &other)),
        }
    }

    fn record_leader(&mut self, partition: u32, new_leader: u32) {
        if let Some(spec) = self.map.partitions.get_mut(partition as usize) {
            if spec.leader != new_leader {
                spec.follower = spec.leader;
                spec.leader = new_leader;
            }
        }
    }

    /// **Failover**: the current leader of `partition` is presumed dead
    /// (kill -9); promote `node` — its warm follower — at whatever
    /// sequence that follower has made durable. Returns the new epoch
    /// and the promotion watermark.
    pub fn promote(&mut self, partition: u32, node: u32) -> Result<(u64, u64)> {
        let epoch = self.table.move_partition(partition, node)?;
        let durable = self.role_change(node, partition, epoch, true, node)?;
        self.record_leader(partition, node);
        Ok((epoch, durable))
    }

    /// **Live rebalance**: moves `partition` from its current leader to
    /// `target` without dropping a single acked event. Returns the new
    /// epoch.
    ///
    /// Sequence: checkpoint the leader → bootstrap + tail on the target
    /// → wait near-live → demote the leader (the fence; its ack bounds
    /// everything ever acked) → wait for the target to pass the fence →
    /// promote the target → flip the route. Writers racing the flip are
    /// refused with `WrongLeader` at every stale stop and re-route.
    pub fn rebalance(&mut self, partition: u32, target: u32, timeout: Duration) -> Result<u64> {
        let leader = self.table.route_partition(partition).owner;
        if leader == target {
            return Err(Error::InvalidConfig(format!(
                "partition {partition} already led by node {target}"
            )));
        }
        self.checkpoint(leader)?;
        self.start_follow(target, partition, leader)?;
        let near = self.status(leader, partition)?.durable;
        self.wait_caught_up(target, partition, near, timeout)?;
        let epoch = self.table.move_partition(partition, target)?;
        let fence = self.role_change(leader, partition, epoch, false, target)?;
        self.wait_caught_up(target, partition, fence, timeout)?;
        self.role_change(target, partition, epoch, true, target)?;
        self.record_leader(partition, target);
        // Keep redundancy: the demoted leader tails the new one.
        self.start_follow(leader, partition, target)?;
        Ok(epoch)
    }
}

fn unexpected(wanted: &str, got: &Frame) -> Error {
    Error::Corrupt(format!(
        "expected {wanted}, got frame type {}",
        got.frame_type()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_leader_swaps_roles() {
        let map = ClusterMap::parse(
            "node 0 127.0.0.1:1\nnode 1 127.0.0.1:2\npartition 0 leader 0 follower 1\n",
        )
        .unwrap();
        let mut c = Coordinator::new(map);
        c.record_leader(0, 1);
        let spec = c.map().partition(0).unwrap();
        assert_eq!((spec.leader, spec.follower), (1, 0));
        assert_eq!(c.map().replicas(0), vec![1, 0]);
    }
}
