//! # magicrecs-cluster
//!
//! The paper's distributed design (§2): "a fairly standard partitioned,
//! replicated architecture with coordination handled by brokers that
//! fan-out queries and gather results."
//!
//! * Partitioning is **by `A`** (the recommendation targets), so every
//!   adjacency-list intersection is partition-local — no cross-partition
//!   joins, ever.
//! * Every partition ingests the **entire** dynamic-edge stream and keeps a
//!   complete `D` (the paper's acknowledged network/memory pressure point,
//!   measured in E6/E7).
//! * Replication (leader/follower units across OS processes, failover,
//!   rebalance) lives in `magicrecs-replica`.
//!
//! Modules:
//!
//! * [`partition::Partition`] — one partition: local `S_p`, full `D`, an
//!   engine.
//! * [`broker::Broker`] — sequential fan-out/gather over partitions (the
//!   reference implementation used in correctness proofs: the union of
//!   partition outputs must equal a single-node engine's output).
//! * [`route::RouteTable`] / [`route::EpochGate`] — movable partition
//!   ownership with routing epochs; stale writes racing a partition move
//!   are refused typed, never silently applied.
//! * [`threaded::ThreadedCluster`] — real-thread deployment (one thread per
//!   partition over crossbeam channels, each ingesting the full stream into
//!   a private `D`): the paper's fan-out, which the scaling experiment (E6)
//!   measures.
//! * [`threaded::SharedEngineCluster`] — the shared-state alternative: N
//!   worker threads hash-route the stream by target into one
//!   `magicrecs_core::ConcurrentEngine` (one `S`, one sharded `D`) instead
//!   of N share-nothing partition clones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod partition;
pub mod route;
pub mod threaded;

pub use broker::Broker;
pub use partition::Partition;
pub use route::{EpochGate, RouteDecision, RouteTable};
pub use threaded::{SharedEngineCluster, ThreadedCluster, DEFAULT_MAX_BATCH};
