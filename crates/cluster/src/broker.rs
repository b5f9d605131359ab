//! The broker: sequential fan-out/gather over partitions.
//!
//! "The final design is a fairly standard partitioned, replicated
//! architecture with coordination handled by brokers that fan-out queries
//! and gather results." Because partitions own disjoint `A` sets, gathering
//! is pure concatenation — no cross-partition dedup is ever needed, which
//! is the whole point of partitioning by `A`.
//!
//! This sequential broker is the reference implementation: its output is
//! proven (tests + property tests) identical to a single-node engine, and
//! [`crate::ThreadedCluster`] is in turn tested against it.

use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::{
    partition_by_source, partition_delta_by_source, FollowGraph, GraphDelta, HashPartitioner,
    Partitioner,
};
use magicrecs_types::{
    Candidate, ClusterConfig, DetectorConfig, EdgeEvent, PartitionId, Result, Timestamp,
};

/// A sequential fan-out broker over in-process partitions: one
/// [`ConcurrentEngine`] per partition, over that partition's slice of `S`
/// with a complete `D`, its [`PartitionId`] being its index.
#[derive(Debug)]
pub struct Broker {
    partitions: Vec<ConcurrentEngine>,
    partitioner: HashPartitioner,
}

impl Broker {
    /// Builds the broker: splits `graph` by `A` into
    /// `cluster_config.partitions` partitions, each with its own engine.
    pub fn new(
        graph: &FollowGraph,
        cluster_config: ClusterConfig,
        detector_config: DetectorConfig,
    ) -> Result<Self> {
        cluster_config.validate()?;
        detector_config.validate()?;
        let partitioner = HashPartitioner::new(cluster_config.partitions);
        let parts = partition_by_source(graph, &partitioner);
        let partitions = parts
            .into_iter()
            .map(|local| ConcurrentEngine::new(local, detector_config))
            .collect::<Result<Vec<_>>>()?;
        Ok(Broker {
            partitions,
            partitioner,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Fans the event out to every partition and gathers candidates,
    /// sorted by user id: a one-event [`Broker::on_events`], whose
    /// `(triggered_at, user, target)` order is the user order when every
    /// candidate shares the event's time and target.
    pub fn on_event(&mut self, event: EdgeEvent) -> Vec<Candidate> {
        self.on_events(std::slice::from_ref(&event))
    }

    /// Processes a whole trace.
    pub fn process_trace<I: IntoIterator<Item = EdgeEvent>>(
        &mut self,
        events: I,
    ) -> Vec<Candidate> {
        let mut all = Vec::new();
        for e in events {
            all.extend(self.on_event(e));
        }
        all
    }

    /// Fans a whole micro-batch out **partition-major**: each partition
    /// ingests the full slice once (one dispatch per partition instead of
    /// one per partition per event), and the gather is sorted by
    /// `(triggered_at, user, target)` for determinism.
    ///
    /// Same candidate *multiset* as event-by-event [`Broker::on_event`]
    /// (each partition's engine obeys the batch-vs-single contract);
    /// only the gather order differs — per-event gathers interleave
    /// partitions event by event, the batched gather groups by partition
    /// first, so it re-sorts on the deterministic key instead.
    pub fn on_events(&mut self, events: &[EdgeEvent]) -> Vec<Candidate> {
        let mut gathered = Vec::new();
        for p in &self.partitions {
            p.on_events_into(events, &mut gathered);
        }
        gathered.sort_by(|a, b| {
            (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
        });
        gathered
    }

    /// Reloads the static graph across all partitions (the paper's
    /// periodic offline load: "the A → B edges are computed offline and
    /// loaded into the system periodically"). Dynamic state (`D`) is
    /// preserved; each partition receives its re-partitioned slice.
    ///
    /// This is the **full-rebuild fallback**; when the offline pipeline
    /// ships a delta chain, [`Broker::reload_graph_delta`] refreshes each
    /// partition for the cost of its touched rows instead.
    pub fn reload_graph(&mut self, graph: &FollowGraph) {
        let parts = partition_by_source(graph, &self.partitioner);
        for (p, local) in self.partitions.iter().zip(parts) {
            p.swap_graph(local);
        }
    }

    /// Reloads via a snapshot delta: the global delta is split by `A`
    /// ownership ([`partition_delta_by_source`]) and each partition
    /// applies only its slice — equivalent to
    /// [`Broker::reload_graph`] with the fully-applied graph
    /// (test-enforced), without any partition paying a full interner+CSR
    /// rebuild.
    ///
    /// All-or-nothing: [`FollowGraph::apply_delta`] is pure, so every
    /// partition's refreshed graph is computed first and the swaps only
    /// happen once all slices succeed — an error (e.g. a delta applied
    /// out of chain order) leaves the whole cluster on its old epoch
    /// rather than split across two.
    pub fn reload_graph_delta(&mut self, delta: &GraphDelta) -> Result<()> {
        let slices = partition_delta_by_source(delta, &self.partitioner);
        let refreshed = self
            .partitions
            .iter()
            .zip(&slices)
            .map(|(p, slice)| p.graph().apply_delta(slice))
            .collect::<Result<Vec<_>>>()?;
        for (p, graph) in self.partitions.iter().zip(refreshed) {
            p.swap_graph(graph);
        }
        Ok(())
    }

    /// Forces expiry on every partition.
    pub fn advance(&mut self, now: Timestamp) {
        for p in &self.partitions {
            p.advance(now);
        }
    }

    /// The partition owning user `a`.
    pub fn partition_of(&self, a: magicrecs_types::UserId) -> PartitionId {
        self.partitioner.partition_of(a)
    }

    /// The partitions' engines, indexed by [`PartitionId`] (metrics,
    /// memory accounting).
    pub fn partitions(&self) -> &[ConcurrentEngine] {
        &self.partitions
    }

    /// Total resident bytes across partitions. Because every partition
    /// holds the full `D`, this grows linearly in partition count for the
    /// `D` component — the paper's noted memory pressure.
    pub fn memory_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
    use magicrecs_types::UserId;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn figure1() -> FollowGraph {
        let mut g = magicrecs_graph::GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
        g.build()
    }

    #[test]
    fn broker_matches_figure1() {
        let g = figure1();
        let mut broker = Broker::new(
            &g,
            ClusterConfig::single().with_partitions(3),
            DetectorConfig::example(),
        )
        .unwrap();
        assert_eq!(broker.num_partitions(), 3);
        broker.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = broker.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
    }

    #[test]
    fn partitioned_equals_single_node() {
        // The fundamental distribution property: partition-local
        // intersections lose nothing. Witnesses are capped so hot targets
        // stay cheap; the cap is deterministic, so outputs still match.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cfg = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let single = ConcurrentEngine::new(g.clone(), cfg).unwrap();
        let mut expected = single.on_events(trace.events());
        expected.sort_by_key(|a| (a.user, a.target, a.triggered_at));

        for parts in [1u32, 4, 20] {
            let mut broker =
                Broker::new(&g, ClusterConfig::single().with_partitions(parts), cfg).unwrap();
            let mut got = broker.process_trace(trace.events().iter().copied());
            got.sort_by_key(|a| (a.user, a.target, a.triggered_at));
            assert_eq!(got, expected, "mismatch at {parts} partitions");
        }
    }

    #[test]
    fn candidates_come_from_owning_partition() {
        let g = figure1();
        let mut broker = Broker::new(
            &g,
            ClusterConfig::single().with_partitions(4),
            DetectorConfig::example(),
        )
        .unwrap();
        broker.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = broker.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(r.len(), 1);
        let owner = broker.partition_of(r[0].user);
        // The owning partition must be the one whose engine fired.
        let fired: Vec<PartitionId> = broker
            .partitions()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.stats().candidates > 0)
            .map(|(i, _)| PartitionId(i as u32))
            .collect();
        assert_eq!(fired, vec![owner]);
    }

    #[test]
    fn d_memory_replicated_per_partition() {
        // Every partition holds the full D: broker memory for D scales
        // with partition count.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cfg = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let mut broker1 = Broker::new(&g, ClusterConfig::single().with_partitions(1), cfg).unwrap();
        let mut broker8 = Broker::new(&g, ClusterConfig::single().with_partitions(8), cfg).unwrap();
        broker1.process_trace(trace.events().iter().copied());
        broker8.process_trace(trace.events().iter().copied());

        let d1: u64 = broker1
            .partitions()
            .iter()
            .map(|p| p.store().resident_entries())
            .sum();
        let d8: u64 = broker8
            .partitions()
            .iter()
            .map(|p| p.store().resident_entries())
            .sum();
        assert_eq!(d8, d1 * 8, "full-D-per-partition invariant");
    }

    #[test]
    fn advance_applies_to_all_partitions() {
        let g = figure1();
        let mut broker = Broker::new(
            &g,
            ClusterConfig::single().with_partitions(2),
            DetectorConfig::example(),
        )
        .unwrap();
        broker.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        broker.advance(ts(100_000));
        for p in broker.partitions() {
            assert_eq!(p.store().resident_entries(), 0);
        }
    }

    #[test]
    fn reload_graph_applies_new_edges_without_losing_d() {
        // Before reload: A1 follows only B1, so no motif. After reload
        // (A1 follows B1 and B2), the already-ingested witnesses complete
        // the diamond on the next event.
        let mut sparse = magicrecs_graph::GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let mut broker = Broker::new(
            &sparse.build(),
            ClusterConfig::single().with_partitions(3),
            DetectorConfig::example(),
        )
        .unwrap();
        broker.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        assert!(broker
            .on_event(EdgeEvent::follow(u(12), u(22), ts(11)))
            .is_empty());

        let mut dense = magicrecs_graph::GraphBuilder::new();
        dense.extend([(u(1), u(11)), (u(1), u(12))]);
        broker.reload_graph(&dense.build());

        let r = broker.on_event(EdgeEvent::follow(u(12), u(22), ts(12)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(1));
    }

    #[test]
    fn reload_graph_delta_matches_full_reload() {
        // Two brokers over the same base graph and trace; one refreshes
        // via the delta path, the other via the full-rebuild fallback.
        // Their candidate streams must stay identical afterwards.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let mut refreshed = magicrecs_graph::GraphBuilder::new();
        let mut dropped = 0;
        for (a, targets) in g.iter_forward() {
            for (i, b) in targets.into_iter().enumerate() {
                // Drop a sprinkling of edges, keep the rest.
                if (a.raw() + i as u64).is_multiple_of(37) {
                    dropped += 1;
                    continue;
                }
                refreshed.add_edge(a, b);
            }
        }
        // And add a few brand-new follows (new As and Bs included).
        for a in 0..20u64 {
            refreshed.add_edge(u(5_000_000 + a), u(6_000_000 + a % 3));
        }
        let new_graph = refreshed.build();
        assert!(dropped > 0, "fixture must actually remove edges");
        let delta = GraphDelta::between(&g, &new_graph, 0, 1).unwrap();

        let cfg = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let cc = ClusterConfig::single().with_partitions(4);
        let mut via_delta = Broker::new(&g, cc, cfg).unwrap();
        let mut via_full = Broker::new(&g, cc, cfg).unwrap();

        let trace = Scenario::steady(
            600,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let half = trace.len() / 2;
        for &e in &trace.events()[..half] {
            assert_eq!(via_delta.on_event(e), via_full.on_event(e));
        }
        via_delta.reload_graph_delta(&delta).unwrap();
        via_full.reload_graph(&new_graph);
        for &e in &trace.events()[half..] {
            assert_eq!(via_delta.on_event(e), via_full.on_event(e));
        }
    }

    #[test]
    fn on_events_matches_per_event_fanout() {
        // Batched partition-major fan-out yields the same candidate
        // multiset as event-by-event fan-out, chunk after chunk.
        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            600,
            ScenarioConfig::small().with_duration(magicrecs_types::Duration::from_secs(20)),
        );
        let cfg = DetectorConfig {
            max_witnesses: Some(8),
            ..DetectorConfig::example()
        };
        let cc = ClusterConfig::single().with_partitions(4);
        let mut per_event = Broker::new(&g, cc, cfg).unwrap();
        let mut batched = Broker::new(&g, cc, cfg).unwrap();
        for chunk in trace.events().chunks(53) {
            let mut want: Vec<Candidate> = Vec::new();
            for &e in chunk {
                want.extend(per_event.on_event(e));
            }
            want.sort_by(|a, b| {
                (a.triggered_at, a.user, a.target).cmp(&(b.triggered_at, b.user, b.target))
            });
            assert_eq!(batched.on_events(chunk), want);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = figure1();
        assert!(Broker::new(
            &g,
            ClusterConfig::single().with_partitions(0),
            DetectorConfig::example()
        )
        .is_err());
        assert!(Broker::new(
            &g,
            ClusterConfig::single(),
            DetectorConfig::example().with_k(1)
        )
        .is_err());
    }
}
