//! # magicrecs-core
//!
//! The paper's primary contribution: **online detection of the diamond
//! motif** over the static structure `S` (sorted follower lists, from
//! `magicrecs-graph`) and the dynamic structure `D` (recent edges by
//! target, from `magicrecs-temporal`).
//!
//! The algorithm, verbatim from §2 of the paper:
//!
//! > "when a B → C edge is created, we query D to find all other B's that
//! > also point to the C. At this point, we've computed the top half of the
//! > diamond motif. For all these B's, we look up their incoming edges from
//! > the A's in S to compute an intersection, which is whom we're making
//! > the recommendation to."
//!
//! ## The candidate contract
//!
//! The paper pushes `C` to `A` "when the edge B2 → C2 is created" — the
//! moment the diamond completes. After the `max_witnesses` cap, a witness
//! is *fresh* when its newest in-window timestamp equals the event's `t`;
//! an `A` is emitted iff it passes the filters (not `C` itself; with
//! `skip_existing`, neither a witness nor a follower of `C`), follows at
//! least `k` of the capped witnesses, and at least one of those is fresh.
//! `max_candidates_per_event` applies last. On a time-ordered stream the
//! fresh set is the trigger `B` plus any `B` that acted on `C` in the same
//! microsecond, so an `A` already at `k` is not re-announced by every
//! later witness it does not follow, and an event with no fresh witness
//! emits nothing. [`threshold::threshold_fresh`] counts exactly that set;
//! `magicrecs_baseline::BatchOracle` checks it by brute force.
//!
//! ## Architecture: read-only kernel, one mutable `D`
//!
//! Since PR 2 the crate is split along the paper's own seam. Detection
//! (steps 2–4: witness threshold, follower intersection, candidate
//! emission) is a **read-only kernel** — [`DiamondDetector::detect_into`]
//! touches only the immutable `S` and a witness list borrowed through a
//! fill callback. Everything mutable (`D` upserts, witness lookup,
//! expiry) lives in one concrete `D`, a hash-sharded store keyed by
//! sparse `UserId`. One engine runs that code path:
//!
//! * [`ConcurrentEngine`] — `&self`, one engine over an immutable
//!   `Arc<FollowGraph>` snapshot slot (hot-swappable for the periodic
//!   offline `S` reload), a hash-sharded `D`
//!   ([`magicrecs_temporal::ShardedTemporalStore`]) mutated under
//!   per-shard locks, and per-thread ingest scratch. N ingest/detect
//!   workers call `on_events_into(&self)` on one engine instead of
//!   cloning share-nothing partitions — the overlap of updates and
//!   subgraph queries that streaming-motif systems get their throughput
//!   from. It is the engine's one detecting ingest: the single-event
//!   `on_event` is a batch of one, and the apply-only paths (a
//!   follower's `apply_events`, recovery's `apply_to_store_batch`) share
//!   its `D` mutation routine. The same engine, driven from one thread,
//!   is one partition of the paper's share-nothing deployment (an entry
//!   of `magicrecs_cluster::Broker`) and the engine under the persistent
//!   and replicated layers.
//!
//! ## Modules
//!
//! * [`intersect`] — the galloping frontier search ([`intersect::gallop_to`]
//!   and its runtime-dispatched twin [`intersect::gallop_to_simd`]) the
//!   threshold kernel probes long lists with. Generic over the element
//!   type; the hot path runs it over dense `u32` ids.
//! * [`simd`] — the x86-64 count-below bodies behind that search (SSE2
//!   baseline, AVX2 by runtime detection, scalar everywhere else) plus
//!   the per-process dispatch and the [`simd::SimdElem`] lane-view trait.
//! * [`threshold`] — the `k`-of-`n` form ("more than k of them") in the
//!   delta shape the detector runs, [`threshold::threshold_fresh`]:
//!   values in at least `k` of `n` sorted lists and in at least one fresh
//!   list. It scans short lists and gallops long ones: a list at most
//!   [`threshold::FRESH_SCAN_CROSSOVER`]× the surviving values is
//!   counted in one pass against their membership bitset, a longer one
//!   by galloping per value. [`threshold::threshold_naive`] is the
//!   brute-force reference.
//! * [`detector`] — [`DiamondDetector`]: one event in, candidates out,
//!   working in dense-id space from witness lookup to candidate emission;
//!   hosts the read-only kernel.
//! * [`concurrent`] — [`ConcurrentEngine`]: the engine — `S` snapshot
//!   slot, sharded `D`, detection and its metrics, for one or many
//!   ingest threads.

// `deny`, not `forbid`: the SIMD module carries a scoped `allow` for its
// intrinsics and the `repr(transparent)` lane view — everything else in
// the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod detector;
#[cfg(test)]
mod engine;
pub mod intersect;
pub mod simd;
pub mod threshold;

pub use concurrent::{ConcurrentEngine, ConcurrentStats};
pub use detector::DiamondDetector;
pub use simd::{simd_level, SimdElem, SimdLevel};
