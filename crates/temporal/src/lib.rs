//! # magicrecs-temporal
//!
//! The *dynamic* half of the paper's design: structure `D`, which "holds the
//! edges pointing to C's … given a query vertex C, we can easily fetch all
//! edges from the B's along with their creation timestamps — in this way we
//! enforce the freshness of the recommendation."
//!
//! The paper also names `D` as the scalability pressure point: every
//! partition keeps the complete `D`, so "memory pressure can be alleviated
//! by pruning the D data structure to only retain the most recent edges."
//! This crate provides three pruning disciplines (ablation B3):
//!
//! * **Eager** — inserted/queried lists are trimmed in place; idle lists are
//!   reclaimed only when touched again. Minimal bookkeeping, memory can
//!   linger on cold targets.
//! * **Wheel** — an epoch wheel indexes targets by coarse time bucket, so a
//!   periodic [`TemporalEdgeStore::advance`] reclaims exactly the expired
//!   targets in O(expired).
//! * **Sweep** — a full scan of all lists every N inserts; simplest, with
//!   periodic latency spikes.
//!
//! `D` is laid out for the sparse firehose, where most targets ever hold
//! a single entry:
//!
//! * **Inline single-entry lists.** A [`TargetList`] stores its first
//!   entry inline and moves to a heap `VecDeque` only on its second, in
//!   the same 32 bytes (the deque's capacity niche holds the tag). A
//!   one-entry target costs its map slot and nothing else.
//! * **Append-only wheel buckets.** An [`EpochWheel`] bucket is a `Vec`
//!   of targets; a touch is a push, skipped when it repeats the bucket's
//!   last push. Expiry unions the expired buckets into a set, so each
//!   target is still reported once per advance.
//! * **Touch skipping.** [`TemporalEdgeStore::insert`] skips the wheel
//!   touch when the list's previous newest entry falls in the same bucket
//!   as the new one and that bucket is not behind the horizon: that entry
//!   already indexed the target there.
//!
//! The witness query is bounded by the detector's cap.
//! [`TemporalEdgeStore::witnesses_capped_into`] walks `D[C]` newest-first
//! and stops once it holds the `max_witnesses` newest distinct sources
//! plus any that tie the last one's timestamp, so a celebrity's
//! 1,024-entry list costs about `cap` steps. It dedups against the few
//! sources kept so far, then against a set the store keeps for the
//! purpose, so no query allocates a map of its own. `witnesses_into` is
//! the same walk with no cap.
//!
//! [`sharded::ShardedTemporalStore`] wraps the store in hash-sharded
//! `RwLock`s for the multi-threaded ingest path used by the live pipeline
//! and by `magicrecs_core`'s `ConcurrentEngine`.
//!
//! Every structure is keyed by sparse [`magicrecs_types::UserId`]: the
//! event stream references an unbounded vertex set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sharded;
pub mod store;
pub mod target_list;
pub mod wheel;

pub use sharded::ShardedTemporalStore;
pub use store::{PruneStrategy, StoreStats, TemporalEdgeStore};
pub use target_list::TargetList;
pub use wheel::EpochWheel;
