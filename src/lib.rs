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
//!
//! ## Declarative motifs (§3 of the paper)
//!
//! ```
//! use magicrecs::motif::MotifEngine;
//! use magicrecs::prelude::*;
//! use std::sync::Arc;
//!
//! let mut builder = GraphBuilder::new();
//! builder.add_edge(UserId(1), UserId(10));
//! builder.add_edge(UserId(1), UserId(11));
//! let graph = Arc::new(builder.build());
//!
//! // Same diamond, declared in text and compiled to a query plan.
//! let motif = MotifEngine::from_text(
//!     "motif diamond {
//!          A -> B : static;
//!          B -> C : dynamic within 600s kinds follow;
//!          trigger B -> C;
//!          emit (A, C) when count(B) >= 2;
//!      }",
//!     graph,
//! ).unwrap();
//! println!("{}", motif.plan().explain()); // EXPLAIN-style plan rendering
//!
//! let c = UserId(99);
//! motif.on_event(EdgeEvent::follow(UserId(10), c, Timestamp::from_secs(1)));
//! let recs = motif.on_event(EdgeEvent::follow(UserId(11), c, Timestamp::from_secs(2)));
//! assert_eq!(recs[0].user, UserId(1));
//! ```

pub use magicrecs_baseline as baseline;
pub use magicrecs_cluster as cluster;
pub use magicrecs_core as core;
pub use magicrecs_gen as gen;
pub use magicrecs_graph as graph;
pub use magicrecs_motif as motif;
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
        Candidate, ClusterConfig, DetectorConfig, Duration, EdgeEvent, EdgeKind, PartitionId,
        Timestamp, UserId,
    };
}
