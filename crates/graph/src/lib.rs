//! # magicrecs-graph
//!
//! The *static* half of the paper's design: the `A → B` follow edges,
//! "computed offline and loaded into the system periodically", held in main
//! memory with **sorted adjacency lists** so that the detector's
//! intersections run on plain sorted slices.
//!
//! Layout:
//!
//! * [`intern::UserInterner`] — order-preserving map from sparse `u64` user
//!   ids to contiguous `u32` [`magicrecs_types::DenseId`]s, built once per
//!   graph load. Sparse ids exist only at the boundary (event ingestion,
//!   candidate emission); everything inside runs dense.
//! * [`csr::CsrGraph`] — a **true offset-array CSR** over dense ids
//!   (`offsets: Vec<u32>` + `targets: Vec<DenseId>`): an `S[B]` lookup is
//!   two array reads, no hash probe.
//! * [`builder::GraphBuilder`] — accumulates edges, dedups, sorts, interns,
//!   builds.
//! * [`follow::FollowGraph`] — interner + the pair of CSRs the system
//!   needs: forward (`A → [B]`, who each user follows) and inverse
//!   (`B → [A]`, structure `S` in the paper: the followers of each `B`),
//!   plus the influencer cap.
//! * [`delta::GraphDelta`] — versioned snapshot deltas (`MGRD`) and
//!   [`follow::FollowGraph::apply_delta`]: the periodic offline refresh
//!   for the cost of its touched rows instead of a world rebuild
//!   (`magicrecs-persist` chains these on disk).
//! * [`partition::partition_by_source`] — splits a [`FollowGraph`] into the
//!   per-partition `S` structures of §2's distributed design (each
//!   partition gets its own compact interner).
//! * [`stats`] — degree distributions and memory accounting for the
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod follow;
pub mod intern;
pub mod io;
pub mod partition;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{load_delta, save_delta, GraphDelta};
pub use follow::{CapStrategy, FollowGraph};
pub use intern::UserInterner;
pub use io::{load_graph, save_graph};
pub use partition::{partition_by_source, partition_of};
pub use stats::{DegreeStats, GraphStats};
