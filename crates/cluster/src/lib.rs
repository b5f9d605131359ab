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
//!   rebalance) and its routing plane (`RouteTable`, `EpochGate`) live in
//!   `magicrecs-replica`.
//!
//! This crate holds the in-process runners, both in [`threaded`]:
//!
//! * [`threaded::ThreadedCluster`] — the paper's fan-out on real threads
//!   (one thread per partition over crossbeam channels, each ingesting the
//!   full stream into a private `D`), which the scaling experiment (E6)
//!   measures. Its gathered candidates equal a single-node engine's.
//! * [`threaded::SharedEngineCluster`] — the shared-state alternative: N
//!   worker threads hash-route the stream by target into one
//!   `magicrecs_core::ConcurrentEngine` (one `S`, one sharded `D`) instead
//!   of N share-nothing partition clones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod threaded;

pub use threaded::{SharedEngineCluster, ThreadedCluster, DEFAULT_MAX_BATCH};
