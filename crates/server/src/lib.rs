//! # magicrecs-server
//!
//! The serving tier: a share-nothing, thread-per-core network front end
//! over [`magicrecs_core::ConcurrentEngine`]. This is ROADMAP item 2 —
//! the first piece of the system that speaks to the outside world, and
//! the wire substrate item 4's multi-node cluster builds on.
//!
//! ## Architecture
//!
//! One acceptor thread owns the listening socket; N workers (one per
//! core, pinned best-effort via `sched_setaffinity`) each run a
//! hand-rolled level-triggered epoll loop over the connections handed
//! to them. A connection lives on exactly one worker for its whole
//! life: reads, admission, detection ([`ConcurrentEngine::on_events_into`],
//! the PR 5 micro-batch fast path), and delivery all happen on that
//! worker's thread. Cross-core traffic exists only inside the engine's
//! already-sharded `D` — the same seam the in-process cluster uses.
//!
//! Clients preserve the engine's per-target ordering contract by
//! routing: one connection per worker, each event sent on the
//! connection `route_mix(dst) % num_workers` (the workspace routing
//! recipe, [`magicrecs_types::route_mix`]). The network therefore adds
//! no ordering assumptions beyond the cluster transport's, and the
//! candidate stream is bit-identical to an in-process
//! `SharedEngineCluster` run — test-enforced in `tests/parity.rs`.
//!
//! ## Wire format
//!
//! Little-endian, length-prefixed frames (see [`wire`]):
//!
//! ```text
//! [len: u32] [ver: u8 = 1] [type: u8] [payload: varints] [check: u64]
//! ```
//!
//! `len` counts everything after itself (min 10 = ver + type + check,
//! max [`wire::MAX_FRAME_LEN`] = 1 MiB). `check` is the workspace's
//! FxHash [`magicrecs_graph::io::Check`] accumulator over the version,
//! type, payload length, and payload bytes. Varint fields use
//! [`magicrecs_graph::io::write_varint`]'s LEB128.
//!
//! | type | frame          | direction | payload |
//! |------|----------------|-----------|---------|
//! | 0    | `Hello`        | C → S     | preferred worker (u32, `0xFFFF_FFFF` = any) |
//! | 1    | `HelloAck`     | S → C     | worker id, worker count |
//! | 2    | `Ingest`       | C → S     | tag, event count, events (src, dst, µs, kind byte) |
//! | 3    | `Subscribe`    | C → S     | — |
//! | 4    | `Deliver`      | S → C     | tag, candidate count, candidates |
//! | 5    | `Shed`         | S → C     | tag, shed code byte, retry-after µs |
//! | 6    | `Error`        | either    | error code byte, detail string |
//! | 7    | `DeltaPublish` | C → S     | MGRD byte length, bytes |
//! | 8    | `CheckpointReq`| C → S     | — |
//! | 9    | *(retired)*    | —         | decodes to the unknown-frame error |
//! | 10   | *(retired)*    | —         | decodes to the unknown-frame error |
//! | 11   | `OkAck`        | S → C     | — |
//! | 12   | `Barrier`      | C → S     | tag |
//! | 13   | `BarrierAck`   | S → C     | tag |
//! | 14   | `MetricsReq`   | C → S     | — |
//! | 15   | `MetricsResp`  | S → C     | payload version byte, entry count, entries (name length, name bytes, value) |
//! | 16   | `IngestAck`    | S → C     | partition, tag, durable watermark, replicated watermark |
//! | 17   | `RouteBind`    | C → S     | partition, routing epoch |
//! | 18   | `WrongLeader`  | S → C     | partition, current epoch, owner hint |
//! | 19   | `SegmentsReq`  | F → L     | partition, from-seq (doubles as replicated watermark) |
//! | 20   | `SegmentsResp` | L → F     | partition, entry count, entries (first seq, byte length) |
//! | 21   | `SegmentFetch` | F → L     | partition, first seq, offset, max length |
//! | 22   | `SegmentChunk` | L → F     | partition, first seq, offset, byte length, bytes |
//! | 23   | `RoleChange`   | K → S     | partition, epoch, leader byte, owner hint |
//! | 24   | `RoleChangeAck`| S → K     | partition, epoch, durable watermark |
//! | 25   | `StateListReq` | F → L     | partition |
//! | 26   | `StateListResp`| L → F     | partition, entry count, entries (name length, name bytes, byte length) |
//! | 27   | `StateFetch`   | F → L     | partition, name length, name bytes, offset, max length |
//! | 28   | `StateChunk`   | L → F     | partition, name length, name bytes, offset, byte length, bytes |
//! | 29   | `FollowReq`    | K → S     | partition, source-address length, bytes |
//! | 30   | `StatusReq`    | K → S     | partition |
//! | 31   | `StatusResp`   | S → K     | partition, leading byte, epoch, durable, applied, replicated |
//!
//! Types 16–31 are the replication plane (`L` = partition leader, `F` =
//! warm follower, `K` = coordinator), served by replica nodes; this
//! crate's single-node [`server::Server`] answers the request-direction
//! ones with a typed `Unsupported` error. Watermarks are next-sequence
//! values throughout (see [`wire::ReplStatus`]).
//!
//! All telemetry rides `MetricsResp`, whose entries are a full flattened
//! scrape of the metrics registry (`magicrecs-obs`) and carry their own
//! payload version byte so the shape can grow without a protocol bump.
//! Types 9 and 10 once carried a fixed-field stats request/reply over
//! the same registry handles; they are retired, and a peer that still
//! sends them gets the typed unknown-frame `Corrupt` error.
//!
//! Shed codes: 1 = rate-limited (per-source token bucket empty; retry
//! after the hinted µs), 2 = overloaded (worker cycle budget spent).
//! Error codes: 1 = bad frame (connection closes after it), 2 =
//! unsupported operation, 3 = internal failure. Decoding is
//! prefix-closed: truncation yields a clean frame prefix, any other
//! damage a typed `Corrupt` — property-tested in `tests/properties.rs`.
//!
//! ## Admission-control contract
//!
//! Ingest passes two gates (see [`admission`]), both shedding the whole
//! batch atomically (never splitting it, so a retried batch replays in
//! order):
//!
//! 1. a per-connection token bucket (`source_rate`/`source_burst`):
//!    exceeding it earns `Shed{RateLimited}` with a retry-after hint
//!    computed from the deficit;
//! 2. a per-worker cycle budget (`cycle_budget` events per epoll
//!    wake-up): exceeding it earns `Shed{Overloaded}`.
//!
//! Subscribers are protected in the other direction: a consumer whose
//! socket backs up past `max_write_queue` bytes has further deliveries
//! dropped (counted in `dropped_deliveries`) rather than buffered
//! without bound. Control replies are never dropped. Inbound buffers
//! are capped at `max_read_buf`; a peer that exceeds it is closed with
//! a typed error. Accepted/shed/queue-high-watermark counters live on
//! the engine ([`magicrecs_core::ConcurrentStats`]) and are served by
//! `MetricsReq` (`engine_accepted`, `engine_shed`,
//! `engine_queue_high_watermark`).
//!
//! [`ConcurrentEngine::on_events_into`]: magicrecs_core::ConcurrentEngine::on_events_into

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod resilient;
pub mod server;
pub mod sys;
pub mod wire;

pub use admission::AdmissionConfig;
pub use client::{connect_per_worker, ClientConn};
pub use resilient::Backoff;
pub use server::{CheckpointHook, Server, ServerConfig};
pub use wire::{Frame, ReplStatus, ShedCode, WireErrorCode};
