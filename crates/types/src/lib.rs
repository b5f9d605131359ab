//! # magicrecs-types
//!
//! Shared vocabulary for the `magicrecs` workspace: vertex identifiers,
//! timestamps, graph-edge events, candidate records, configuration, a
//! fast integer hasher, and lightweight metrics (counters + latency
//! histograms).
//!
//! Every other crate in the workspace depends on this one and nothing in
//! this crate depends on anything outside `std` (plus `serde` for
//! de/serialization of events and reports), so it compiles fast and keeps
//! the dependency graph a clean DAG.
//!
//! The types mirror the notation of Gupta et al. (VLDB 2014): users `A`
//! follow users `B` (the *static* part of the graph, structure `S`), and the
//! live stream of `B → C` edges forms the *dynamic* part (structure `D`).
//! A recommendation pushes `C` to `A` when at least `k` of `A`'s followings
//! created an edge to `C` within the recency window `τ`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod event;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod time;

pub use config::{ClusterConfig, DetectorConfig};
pub use error::{Error, Result};
pub use event::{Candidate, EdgeEvent, EdgeKind};
pub use hash::{route_mix, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{DenseId, PartitionId, UserId};
pub use metrics::{Counter, Histogram, Snapshot};
pub use time::{Duration, Timestamp};
