//! A single partition: the unit of horizontal scale.
//!
//! Holds the inverse index `S_p` for its owned `A`s plus a complete `D`
//! (every partition sees the full stream). Wraps a `magicrecs-core`
//! [`ConcurrentEngine`], driven by the partition's single owner, and tags
//! it with a [`PartitionId`].

use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{FollowGraph, GraphDelta};
use magicrecs_types::{Candidate, DetectorConfig, EdgeEvent, PartitionId, Result, Timestamp};

/// One partition of the cluster.
#[derive(Debug)]
pub struct Partition {
    id: PartitionId,
    engine: ConcurrentEngine,
}

impl Partition {
    /// Creates a partition over its slice of the static graph.
    pub fn new(id: PartitionId, local_graph: FollowGraph, config: DetectorConfig) -> Result<Self> {
        Ok(Partition {
            id,
            engine: ConcurrentEngine::new(local_graph, config)?,
        })
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Ingests one event and runs local detection. Candidates are always
    /// for `A`s owned by this partition.
    pub fn on_event(&self, event: EdgeEvent) -> Vec<Candidate> {
        self.engine.on_event(event)
    }

    /// Ingests a micro-batch in stream order, appending candidates
    /// (grouped by event, in event order) to `out`; returns the number
    /// appended. Identical candidates to N [`Partition::on_event`] calls
    /// (the engine's batch-vs-single contract) — this is what the
    /// threaded cluster's workers drain their queues into.
    pub fn on_events_into(&self, events: &[EdgeEvent], out: &mut Vec<Candidate>) -> usize {
        self.engine.on_events_into(events, out)
    }

    /// Hot-swaps this partition's static slice (periodic offline reload,
    /// full rebuild — the fallback when no delta chain is available).
    pub fn swap_graph(&self, local_graph: FollowGraph) {
        self.engine.swap_graph(local_graph);
    }

    /// Computes this partition's refreshed static slice from its slice
    /// of a global snapshot delta (see
    /// [`magicrecs_graph::partition_delta_by_source`]) **without
    /// committing it**: touched rows only, no re-interning of the whole
    /// slice. The broker's all-or-nothing reload computes every
    /// partition's slice first and commits via
    /// [`Partition::swap_graph`] only if all succeed.
    pub fn compute_graph_delta(&self, delta: &GraphDelta) -> Result<FollowGraph> {
        self.engine.graph().apply_delta(delta)
    }

    /// Forces dynamic-store expiry.
    pub fn advance(&self, now: Timestamp) {
        self.engine.advance(now);
    }

    /// The wrapped engine (stats, memory accounting).
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// Approximate resident bytes (`S_p` + `D`).
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::UserId;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(1), u(12))]);
        g.build()
    }

    #[test]
    fn partition_detects_locally() {
        let p = Partition::new(PartitionId(0), graph(), DetectorConfig::example()).unwrap();
        assert_eq!(p.id(), PartitionId(0));
        p.on_event(EdgeEvent::follow(u(11), u(99), ts(1)));
        let r = p.on_event(EdgeEvent::follow(u(12), u(99), ts(2)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(1));
    }
}
