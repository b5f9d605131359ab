//! # magicrecs
//!
//! A from-scratch Rust reproduction of Twitter's real-time recommendation
//! system — online detection of the "diamond" motif in a large dynamic
//! follow graph (Gupta et al., *Real-Time Twitter Recommendation: Online
//! Motif Detection in Large Dynamic Graphs*, PVLDB 7(13), 2014).
//!
//! This facade crate re-exports the workspace crates under stable module
//! names and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! ## Quick start
//!
//! ```
//! use magicrecs::prelude::*;
//!
//! // Static follow graph: A1 and A2 both follow B1 and B2.
//! let mut builder = GraphBuilder::new();
//! builder.add_edge(UserId(1), UserId(10)); // A1 -> B1
//! builder.add_edge(UserId(1), UserId(11)); // A1 -> B2
//! builder.add_edge(UserId(2), UserId(10)); // A2 -> B1
//! builder.add_edge(UserId(2), UserId(11)); // A2 -> B2
//! let graph = builder.build();
//!
//! // Online engine with the paper's example parameters (k = 2).
//! let engine = ConcurrentEngine::new(graph, DetectorConfig::example()).unwrap();
//!
//! // B1 follows C, then B2 follows C within the window: diamond completed.
//! let c = UserId(99);
//! let t0 = Timestamp::from_secs(100);
//! assert!(engine.on_event(EdgeEvent::follow(UserId(10), c, t0)).is_empty());
//! let recs = engine.on_event(EdgeEvent::follow(UserId(11), c, t0 + Duration::from_secs(5)));
//!
//! // Both A1 and A2 follow two accounts that just followed C.
//! let users: Vec<UserId> = recs.iter().map(|r| r.user).collect();
//! assert_eq!(users, vec![UserId(1), UserId(2)]);
//! ```

pub use magicrecs_baseline as baseline;
pub use magicrecs_cluster as cluster;
pub use magicrecs_core as core;
pub use magicrecs_gen as gen;
pub use magicrecs_graph as graph;
pub use magicrecs_replica as replica;
pub use magicrecs_server as server;
pub use magicrecs_temporal as temporal;
pub use magicrecs_types as types;

/// Commonly used items, for `use magicrecs::prelude::*`.
pub mod prelude {
    pub use magicrecs_core::{ConcurrentEngine, DiamondDetector};
    pub use magicrecs_graph::{FollowGraph, GraphBuilder};
    pub use magicrecs_temporal::{ShardedTemporalStore, TemporalEdgeStore};
    pub use magicrecs_types::{
        Candidate, DetectorConfig, Duration, EdgeEvent, EdgeKind, Timestamp, UserId,
    };
}
