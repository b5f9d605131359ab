//! The shared-state engine: N ingest/detect workers over one `S` + one
//! sharded `D`.
//!
//! The paper's deployment keeps `D` as a concurrently-updated recent-edge
//! structure while detection queries race against ingest — the throughput
//! of streaming-motif systems comes precisely from overlapping updates with
//! subgraph queries. [`ConcurrentEngine`] is that shape:
//!
//! * **`S`** — an immutable [`FollowGraph`] behind a swappable
//!   [`Arc`] slot. Workers clone the `Arc` per event (one brief read
//!   lock), so a detection in flight keeps its snapshot while
//!   [`ConcurrentEngine::swap_graph`] publishes the periodic offline
//!   reload. No detection ever observes a half-loaded graph.
//! * **`D`** — a [`ShardedTemporalStore`]: hash-sharded per-target lists
//!   behind per-shard locks, mutated through `&self`. Same-target events
//!   serialize on one shard; the firehose's spread keeps the rest
//!   uncontended.
//! * **Detection scratch** — each worker thread lazily materializes its own
//!   [`DiamondDetector`] (witness/match buffers), so the hot path shares
//!   no mutable state beyond the store shards.
//!
//! The result is `on_event(&self)`: clone the engine's [`Arc`] into N
//! threads and call it from all of them. It is also the only engine: a
//! single-owner caller (one partition of the paper's deployment, a
//! replica, a recovery run) drives it from one thread, where it
//! costs the same per event as an exclusively-owned engine. Per-event
//! semantics are independent of the thread count as long as same-target
//! events keep their relative order (candidates depend only on `S` and
//! `D[target]`) — which is what hash-routing a stream by target gives a
//! worker pool; see `magicrecs_cluster::SharedEngineCluster`.
//!
//! ## Batched ingest
//!
//! [`ConcurrentEngine::on_events_into`] is the micro-batch fast path the
//! cluster transports drain into: one pinned `S` snapshot, one detector
//! lookup, one stats flush, and at most one shard-lock acquisition per
//! shard per distinct-target run, for a whole slice of events.
//! **Batch-vs-single contract**: the candidate stream, aggregate stats,
//! and store contents are identical to calling
//! [`ConcurrentEngine::on_event`] N times (test-enforced by differential
//! proptests); batching changes *where fixed costs are paid*, never what
//! is detected. The single-event entry points are thin wrappers kept for
//! per-event callers. One caveat on a stream whose
//! timestamps skew heavily *across* targets: the periodic wheel expiry
//! advances with the engine-wide newest-seen timestamp, so entries more
//! than τ older than that high-water mark may be reclaimed while a lagging
//! worker still holds older-stamped events — the same trade any
//! out-of-order stream makes when it crosses an advance boundary.
//! Within-τ traffic (the only traffic that can form motifs) is never
//! affected.

use crate::detector::DiamondDetector;
use magicrecs_graph::{FollowGraph, GraphDelta};
use magicrecs_obs as obs;
use magicrecs_obs::{MetricSnapshot, Registry};
use magicrecs_temporal::{PruneStrategy, ShardedTemporalStore, StoreStats};
use magicrecs_types::{
    Candidate, DetectorConfig, EdgeEvent, Histogram, Result, Snapshot, Timestamp, UserId,
};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default shard count for the concurrent `D` (power of two).
const DEFAULT_SHARDS: usize = 16;

/// How many events between `D.advance()` calls (wheel expiry).
const ADVANCE_EVERY: u64 = 1024;

/// The per-target entry cap derived from a witness cap: 16× headroom (the
/// paper's "retain the most recent edges" pruning) — only the most recent
/// witnesses can matter, so older entries on ultra-hot targets are dead
/// weight.
fn entry_cap_for(max_witnesses: Option<usize>) -> Option<usize> {
    max_witnesses.map(|w| (w * 16).max(1024))
}

/// Longest distinct-target run `on_events_into` batch-applies at once.
/// Run membership is a linear `contains` scan, so the cap bounds run
/// construction at O(cap) per event (an uncapped all-distinct batch
/// would pay O(len²)); splitting a run is semantically free — runs are
/// purely a lock-batching optimization — and past ~64 edges per shard
/// pass the lock savings are already amortized to noise.
const MAX_RUN: usize = 64;

/// Most detectors a thread caches before evicting the oldest — bounds the
/// scratch kept alive by long-lived worker pools that outlive engines
/// (blue/green swaps, test suites).
const MAX_CACHED_DETECTORS: usize = 8;

/// Engine ids distinguish thread-local detector scratch when several
/// engines live in one process (tests, benches, blue/green swaps).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread detector scratch, keyed by engine id. One entry per
    /// engine this thread has driven recently; lookup is a short linear
    /// scan, capped at [`MAX_CACHED_DETECTORS`].
    static DETECTORS: RefCell<Vec<(u64, DiamondDetector)>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate counters for a [`ConcurrentEngine`], snapshotted at read time.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Events processed (insertions + unfollows), across all threads.
    pub events: u64,
    /// Candidates emitted (pre-funnel).
    pub candidates: u64,
    /// Events that produced at least one candidate.
    pub firing_events: u64,
    /// Ingress events admitted by the driving tier (serving front end or
    /// cluster transport). Zero when no driver reports admission.
    pub accepted: u64,
    /// Ingress events refused with a typed shed response.
    pub shed: u64,
    /// High-water mark of the driver's queued-but-unprocessed events.
    pub queue_high_watermark: u64,
    /// Wall-clock detection latency per event, µs.
    pub detect_time: Snapshot,
}

/// The shared-state engine: one `S` snapshot slot + one sharded `D`,
/// driven through `&self` by any number of worker threads.
pub struct ConcurrentEngine {
    id: u64,
    graph: RwLock<Arc<FollowGraph>>,
    store: ShardedTemporalStore,
    config: DetectorConfig,
    /// The engine's metrics live on a per-engine [`Registry`] (not the
    /// process-global one) so several engines in one process — tests,
    /// blue/green swaps — never cross-count. [`ConcurrentEngine::scrape`]
    /// exports it; the serving tier concatenates it with the global
    /// registry's snapshot for `MetricsResp`.
    registry: Registry,
    events: obs::Counter,
    candidates: obs::Counter,
    firing_events: obs::Counter,
    accepted: obs::Counter,
    shed: obs::Counter,
    queue_high_watermark: obs::Gauge,
    detect_time: obs::Histogram,
    since_advance: AtomicU64,
    /// High-water mark of event timestamps seen (µs): wheel expiry always
    /// advances with this, never with one thread's possibly-stale event
    /// time, so a lagging worker cannot be out-advanced by more than the
    /// stream's own timestamp skew.
    clock: AtomicU64,
}

impl std::fmt::Debug for ConcurrentEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentEngine")
            .field("id", &self.id)
            .field("shards", &self.store.shard_count())
            .field("events", &self.events.get())
            .finish_non_exhaustive()
    }
}

impl ConcurrentEngine {
    /// Creates an engine over `graph` with a default-sharded wheel-pruned
    /// store and a fresh per-engine metrics registry.
    ///
    /// When the detector caps witnesses, the store caps per-target entries
    /// at 16× that (the paper's "retain the most recent edges" pruning):
    /// only the most recent witnesses can matter, so older entries on
    /// ultra-hot targets are dead weight.
    ///
    /// `graph` is an owned [`FollowGraph`] or an `Arc` of one; several
    /// engines given clones of one `Arc` share a single `S`.
    pub fn new(graph: impl Into<Arc<FollowGraph>>, config: DetectorConfig) -> Result<Self> {
        ConcurrentEngine::with_registry(graph, config, Registry::new())
    }

    /// Creates an engine recording onto a caller-supplied registry — a
    /// [`Registry::disabled`] one turns every stat update into a single
    /// branch, which is the control arm of the instrumentation overhead
    /// guard (`hotpath -- --obs-only`).
    pub fn with_registry(
        graph: impl Into<Arc<FollowGraph>>,
        config: DetectorConfig,
        registry: Registry,
    ) -> Result<Self> {
        config.validate()?;
        let store = ShardedTemporalStore::new(config.tau, PruneStrategy::Wheel, DEFAULT_SHARDS)
            .with_entry_cap(entry_cap_for(config.max_witnesses));
        Ok(ConcurrentEngine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            graph: RwLock::new(graph.into()),
            store,
            config,
            events: registry.counter("engine_events"),
            candidates: registry.counter("engine_candidates"),
            firing_events: registry.counter("engine_firing_events"),
            accepted: registry.counter("engine_accepted"),
            shed: registry.counter("engine_shed"),
            queue_high_watermark: registry.gauge("engine_queue_high_watermark"),
            detect_time: registry.histogram("engine_detect_us"),
            registry,
            since_advance: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        })
    }

    /// Runs `f` against this thread's detector scratch for this engine,
    /// creating the detector on first use.
    fn with_detector<R>(&self, f: impl FnOnce(&mut DiamondDetector) -> R) -> R {
        DETECTORS.with(|cell| {
            let mut dets = cell.borrow_mut();
            let idx = match dets.iter().position(|&(id, _)| id == self.id) {
                Some(i) => i,
                None => {
                    // Evict the longest-cached entry first: a worker pool
                    // that outlives engines must not accumulate scratch
                    // for every engine it ever drove.
                    if dets.len() >= MAX_CACHED_DETECTORS {
                        dets.remove(0);
                    }
                    let det = DiamondDetector::new(self.config)
                        .expect("config validated at engine construction");
                    dets.push((self.id, det));
                    dets.len() - 1
                }
            };
            f(&mut dets[idx].1)
        })
    }

    /// Processes one event, appending any candidates to `out`. Returns the
    /// number appended.
    ///
    /// Callable from any number of threads sharing one engine: the `D`
    /// mutation takes one shard lock, the witness copy-out takes the same
    /// lock, and detection runs lock-free against this event's `S`
    /// snapshot.
    pub fn on_event_into(&self, event: EdgeEvent, out: &mut Vec<Candidate>) -> usize {
        let start = std::time::Instant::now();
        let t = event.created_at;
        let emitted = if !event.kind.is_insertion() {
            self.store.remove(event.src, event.dst);
            0
        } else {
            self.store.insert(event.src, event.dst, t);
            // Snapshot `S` for the remainder of this event: a concurrent
            // `swap_graph` must not change the graph mid-detection.
            let graph = self.graph.read().clone();
            self.with_detector(|det| {
                det.detect_into(
                    &graph,
                    event.dst,
                    t,
                    |buf| {
                        self.store.witnesses_capped_into(
                            event.dst,
                            t,
                            self.config.max_witnesses,
                            buf,
                        )
                    },
                    out,
                )
            })
        };
        let elapsed = start.elapsed().as_micros() as u64;

        self.events.incr();
        self.detect_time.record(elapsed);
        if emitted > 0 {
            self.firing_events.incr();
            self.candidates.add(emitted as u64);
        }

        self.tick(t);
        emitted
    }

    /// The wheel-expiry cadence: one tick per event, an advance every
    /// [`ADVANCE_EVERY`] ticks. Whichever thread lands on the boundary
    /// pays for the advance — always with the engine-wide timestamp
    /// high-water mark, not this thread's event time (which may trail
    /// other workers on a skewed stream).
    fn tick(&self, t: Timestamp) {
        self.clock.fetch_max(t.as_micros(), Ordering::Relaxed);
        let n = self.since_advance.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(ADVANCE_EVERY) {
            self.store
                .advance(Timestamp::from_micros(self.clock.load(Ordering::Relaxed)));
        }
    }

    /// Processes one event, returning any candidates.
    pub fn on_event(&self, event: EdgeEvent) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.on_event_into(event, &mut out);
        out
    }

    /// Processes a micro-batch in stream order through **one pinned `S`
    /// snapshot**, appending candidates (grouped by event, in event
    /// order) to `out`; returns the number appended.
    ///
    /// Batch-level costs are paid once instead of once per event: the
    /// `S` snapshot slot is read (and its `Arc` cloned) once, the
    /// thread's detector scratch is looked up once, stats land as one
    /// atomic add per counter and one histogram-stripe lock, and `D`
    /// mutations for runs of *distinct-target* events take each shard
    /// lock at most once via [`ShardedTemporalStore::insert_batch`].
    ///
    /// **Batch-vs-single contract** (test-enforced): under the same
    /// per-target single-submitter precondition the engine already
    /// documents, the candidate stream, aggregate stats, and store
    /// contents are identical to N [`ConcurrentEngine::on_event`] calls.
    /// Why run batching is safe: detection for event *i* reads only
    /// `D[target_i]`, so mutations of *other* targets in the same run
    /// cannot perturb it, and a repeated target starts a new run, so no
    /// same-target mutation ever jumps ahead of an earlier detection.
    /// Two cross-thread differences are inherent and intended: the whole
    /// batch detects against the snapshot pinned at batch start (a
    /// concurrent [`ConcurrentEngine::swap_graph`] reaches the *next*
    /// batch), and the wheel-expiry boundary fires between events at the
    /// same cadence but is evaluated per batch segment.
    pub fn on_events_into(&self, events: &[EdgeEvent], out: &mut Vec<Candidate>) -> usize {
        if events.is_empty() {
            return 0;
        }
        let appended_start = out.len();
        // Pin `S` once for the whole batch.
        let graph = self.graph.read().clone();
        let n = events.len() as u64;
        // Reserve the batch's advance ticks up front; boundary positions
        // inside the batch follow from the reserved start.
        let start_count = self.since_advance.fetch_add(n, Ordering::Relaxed);

        let mut inserts: Vec<(UserId, UserId, Timestamp)> = Vec::with_capacity(events.len());
        let mut run_targets: Vec<UserId> = Vec::with_capacity(events.len().min(MAX_RUN));
        let mut firing = 0u64;
        let mut emitted_total = 0u64;
        let mut times = Histogram::new();

        self.with_detector(|det| {
            let mut i = 0usize;
            while i < events.len() {
                // Segment: events up to (and including) the next
                // wheel-expiry boundary — the advance must fire between
                // the same two events it would under single-event ingest.
                let until_adv = ADVANCE_EVERY - ((start_count + i as u64) % ADVANCE_EVERY);
                let seg_end = (i + until_adv as usize).min(events.len());
                let mut r = i;
                while r < seg_end {
                    // Maximal distinct-target run.
                    run_targets.clear();
                    inserts.clear();
                    let mut run_end = r;
                    while run_end < seg_end
                        && run_targets.len() < MAX_RUN
                        && !run_targets.contains(&events[run_end].dst)
                    {
                        let e = events[run_end];
                        run_targets.push(e.dst);
                        if e.kind.is_insertion() {
                            inserts.push((e.src, e.dst, e.created_at));
                        }
                        run_end += 1;
                    }
                    // Mutations first — targets are pairwise distinct, so
                    // cross-target apply order is free and each shard
                    // lock is taken at most once.
                    self.store.insert_batch(&inserts);
                    for &e in &events[r..run_end] {
                        if !e.kind.is_insertion() {
                            self.store.remove(e.src, e.dst);
                        }
                    }
                    // Then detection, per event, in stream order.
                    for &e in &events[r..run_end] {
                        let start = std::time::Instant::now();
                        let emitted = if e.kind.is_insertion() {
                            det.detect_into(
                                &graph,
                                e.dst,
                                e.created_at,
                                |buf| {
                                    self.store.witnesses_capped_into(
                                        e.dst,
                                        e.created_at,
                                        self.config.max_witnesses,
                                        buf,
                                    )
                                },
                                out,
                            )
                        } else {
                            0
                        };
                        times.record(start.elapsed().as_micros() as u64);
                        if emitted > 0 {
                            firing += 1;
                            emitted_total += emitted as u64;
                        }
                    }
                    r = run_end;
                }
                // Fold the segment into the clock high-water mark, then
                // fire the boundary advance if the segment ends on one.
                let mut seg_max = 0u64;
                for &e in &events[i..seg_end] {
                    seg_max = seg_max.max(e.created_at.as_micros());
                }
                self.clock.fetch_max(seg_max, Ordering::Relaxed);
                if (start_count + seg_end as u64).is_multiple_of(ADVANCE_EVERY) {
                    self.store
                        .advance(Timestamp::from_micros(self.clock.load(Ordering::Relaxed)));
                }
                i = seg_end;
            }
        });

        self.events.add(n);
        self.detect_time.merge_from(&times);
        if emitted_total > 0 {
            self.firing_events.add(firing);
            self.candidates.add(emitted_total);
        }
        out.len() - appended_start
    }

    /// [`ConcurrentEngine::on_events_into`] collecting into a fresh
    /// vector.
    pub fn on_events(&self, events: &[EdgeEvent]) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.on_events_into(events, &mut out);
        out
    }

    /// Applies a micro-batch's `D` mutations without running detection —
    /// the apply-only path of a replica that does not serve the batch.
    ///
    /// Makes the same per-event `D` insert/remove calls as
    /// [`ConcurrentEngine::on_events_into`] and ticks the wheel-expiry
    /// cadence the same way, so `D` (and the cadence position) ends up
    /// identical to the detecting path; only candidate emission and the
    /// detection stats are skipped. Detection's witness query cannot
    /// change `D` here: it trims the touched list at the very cutoff the
    /// insert just applied.
    pub fn apply_events(&self, events: &[EdgeEvent]) {
        for &event in events {
            self.apply_to_store(event);
            self.tick(event.created_at);
        }
    }

    /// Applies an event's `D` mutation without running detection,
    /// touching stats or ticking the expiry cadence.
    pub fn apply_to_store(&self, event: EdgeEvent) {
        if event.kind.is_insertion() {
            self.store.insert(event.src, event.dst, event.created_at);
        } else {
            self.store.remove(event.src, event.dst);
        }
    }

    /// [`ConcurrentEngine::apply_to_store`] for a micro-batch: insertion
    /// runs take each shard lock at most once
    /// ([`ShardedTemporalStore::insert_batch`]); a removal flushes the
    /// pending run first so per-target op order is preserved. The
    /// recovery-replay fast path.
    pub fn apply_to_store_batch(&self, events: &[EdgeEvent]) {
        let mut scratch = Vec::with_capacity(events.len());
        let mut handle = &self.store;
        magicrecs_temporal::apply_events_batch(&mut handle, events, &mut scratch);
    }

    /// Hot-swaps the static graph, returning the previous snapshot.
    ///
    /// The paper: "the A → B edges are computed offline and loaded into
    /// the system periodically." In-flight detections finish against the
    /// snapshot they cloned; every later event sees the new graph. `D` is
    /// untouched, so in-window witnesses keep counting against the
    /// refreshed follower lists.
    pub fn swap_graph(&self, new_graph: FollowGraph) -> Arc<FollowGraph> {
        std::mem::replace(&mut *self.graph.write(), Arc::new(new_graph))
    }

    /// Refreshes the static graph by applying a snapshot delta — the cheap
    /// periodic reload: only touched CSR rows are rebuilt and the interner
    /// is extended (see [`FollowGraph::apply_delta`]).
    ///
    /// The delta is applied **outside** any lock against the current
    /// snapshot and the result is published through the same `Arc` slot as
    /// [`ConcurrentEngine::swap_graph`], so in-flight detections keep the
    /// snapshot they cloned and never observe a half-applied graph. If
    /// another swap publishes between the base read and this publish, the
    /// delta would silently apply to a stale base — that race is detected
    /// (the slot must still hold the base the delta was applied to) and
    /// reported as an error; snapshot refresh is a single-loader activity
    /// by design.
    pub fn swap_graph_delta(&self, delta: &GraphDelta) -> Result<Arc<FollowGraph>> {
        let base = self.graph.read().clone();
        let refreshed = Arc::new(base.apply_delta(delta)?);
        let mut slot = self.graph.write();
        if !Arc::ptr_eq(&slot, &base) {
            return Err(magicrecs_types::Error::Invariant(
                "concurrent graph swap raced swap_graph_delta: delta was applied to a \
                 superseded snapshot"
                    .into(),
            ));
        }
        let old = std::mem::replace(&mut *slot, refreshed);
        Ok(old)
    }

    /// The current `S` snapshot.
    pub fn graph(&self) -> Arc<FollowGraph> {
        self.graph.read().clone()
    }

    /// Forces dynamic-store expiry up to `now`.
    pub fn advance(&self, now: Timestamp) {
        self.store.advance(now);
    }

    /// The sharded dynamic store.
    pub fn store(&self) -> &ShardedTemporalStore {
        &self.store
    }

    /// Merged store statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Engine metrics, snapshotted across threads (histogram stripes are
    /// merged at read time). Reads the same registry handles
    /// [`ConcurrentEngine::scrape`] exports, so the two views can never
    /// disagree.
    pub fn stats(&self) -> ConcurrentStats {
        ConcurrentStats {
            events: self.events.get(),
            candidates: self.candidates.get(),
            firing_events: self.firing_events.get(),
            accepted: self.accepted.get(),
            shed: self.shed.get(),
            queue_high_watermark: self.queue_high_watermark.get(),
            detect_time: self.detect_time.snapshot().snapshot(),
        }
    }

    /// The engine's metrics registry. Drivers (the serving tier) may
    /// register their own metrics here so one scrape covers the whole
    /// component.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Scrapes the engine registry, first refreshing the store gauges
    /// (`store_resident_entries`, `store_inserted`, `store_unfollowed`,
    /// `store_pruned`, `store_lists_reclaimed`, `store_peak_entries`)
    /// from the sharded store's own counters — those live behind shard
    /// locks and are folded into gauges only at scrape time.
    pub fn scrape(&self) -> Vec<MetricSnapshot> {
        let s = self.store.stats();
        self.registry
            .gauge("store_resident_entries")
            .set(self.store.resident_entries());
        self.registry.gauge("store_inserted").set(s.inserted);
        self.registry.gauge("store_unfollowed").set(s.unfollowed);
        self.registry.gauge("store_pruned").set(s.pruned);
        self.registry
            .gauge("store_lists_reclaimed")
            .set(s.lists_reclaimed);
        self.registry
            .gauge("store_peak_entries")
            .set(s.peak_entries);
        self.registry.snapshot()
    }

    /// Records `n` ingress events admitted by the driving tier. The
    /// engine never calls this itself — drivers with an admission
    /// boundary (the network serving tier, a queue transport) report
    /// here so shed visibility lives next to the detection counters it
    /// gates.
    #[inline]
    pub fn note_accepted(&self, n: u64) {
        self.accepted.add(n);
    }

    /// Records `n` ingress events refused with a typed shed response.
    #[inline]
    pub fn note_shed(&self, n: u64) {
        self.shed.add(n);
    }

    /// Folds a driver-side queue depth observation into the high-water
    /// mark (monotone max).
    #[inline]
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_high_watermark.set_max(depth);
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Approximate resident bytes: `S` (inverse index) + `D`.
    pub fn memory_bytes(&self) -> usize {
        self.graph.read().s_memory_bytes() + self.store.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::UserId;
    use std::thread;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn small_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)),
            (u(1), u(12)),
            (u(2), u(11)),
            (u(2), u(12)),
            (u(3), u(12)),
        ]);
        g.build()
    }

    #[test]
    fn quickstart_flow_through_shared_ref() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        assert!(engine
            .on_event(EdgeEvent::follow(u(11), c, ts(100)))
            .is_empty());
        let recs = engine.on_event(EdgeEvent::follow(u(12), c, ts(105)));
        let users: Vec<UserId> = recs.iter().map(|r| r.user).collect();
        assert_eq!(users, vec![u(1), u(2)]);
        let s = engine.stats();
        assert_eq!(s.events, 2);
        assert_eq!(s.firing_events, 1);
        assert_eq!(s.candidates, 2);
        assert_eq!(s.detect_time.count, 2);
    }

    #[test]
    fn stats_accumulate() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(100)));
        engine.on_event(EdgeEvent::follow(u(12), c, ts(105)));
        let s = engine.stats();
        assert_eq!(s.events, 2);
        assert_eq!(s.firing_events, 1);
        assert_eq!(s.candidates, 2);
        assert_eq!(s.detect_time.count, 2);
    }

    #[test]
    fn automatic_advance_after_many_events() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        // > ADVANCE_EVERY events spread far apart in time: old entries
        // should get reclaimed by the periodic advance.
        for i in 0..2100u64 {
            engine.on_event(EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)));
        }
        // window = 10 min = 600 s; events are 10 s apart so ≤ ~61 live.
        assert!(
            engine.store().resident_targets() < 200,
            "stale targets not reclaimed: {}",
            engine.store().resident_targets()
        );
    }

    #[test]
    fn unfollow_event_counts_but_does_not_fire() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        let r = engine.on_event(EdgeEvent::unfollow(u(11), c, ts(11)));
        assert!(r.is_empty());
        assert_eq!(engine.stats().events, 2);
    }

    #[test]
    fn on_events_matches_single_events() {
        // Same-target repeats (run splits), unfollows, and uneven chunk
        // sizes: candidate stream, stats, and store contents must equal
        // the single-event twin's.
        let trace: Vec<EdgeEvent> = (0..600u64)
            .map(|i| {
                if i % 31 == 0 {
                    EdgeEvent::unfollow(u(11), u(900 + i % 5), ts(10 + i))
                } else {
                    EdgeEvent::follow(u(11 + i % 3), u(900 + i % 5), ts(10 + i))
                }
            })
            .collect();
        let single = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let batched = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut want = Vec::new();
        for &e in &trace {
            single.on_event_into(e, &mut want);
        }
        let mut got = Vec::new();
        for chunk in trace.chunks(41) {
            batched.on_events_into(chunk, &mut got);
        }
        assert_eq!(got, want);
        let (s, b) = (single.stats(), batched.stats());
        assert_eq!(s.events, b.events);
        assert_eq!(s.candidates, b.candidates);
        assert_eq!(s.firing_events, b.firing_events);
        assert_eq!(s.detect_time.count, b.detect_time.count);
        assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
        assert_eq!(
            single.store().stats().inserted,
            batched.store().stats().inserted
        );
        assert_eq!(
            single.store().stats().unfollowed,
            batched.store().stats().unfollowed
        );
    }

    #[test]
    fn on_events_crosses_advance_boundary_like_single_events() {
        let trace: Vec<EdgeEvent> = (0..2100u64)
            .map(|i| EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)))
            .collect();
        let single = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let batched = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &trace {
            single.on_event(e);
        }
        batched.on_events(&trace);
        assert_eq!(
            single.store().resident_targets(),
            batched.store().resident_targets()
        );
        assert!(batched.store().resident_targets() < 200, "advance must run");
    }

    #[test]
    fn apply_to_store_batch_matches_single_applies() {
        let trace: Vec<EdgeEvent> = (0..300u64)
            .map(|i| {
                if i % 13 == 0 {
                    EdgeEvent::unfollow(u(1 + i % 5), u(100 + i % 9), ts(i))
                } else {
                    EdgeEvent::follow(u(1 + i % 5), u(100 + i % 9), ts(i))
                }
            })
            .collect();
        let single = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let batched = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        for &e in &trace {
            single.apply_to_store(e);
        }
        batched.apply_to_store_batch(&trace);
        assert_eq!(
            single.store().resident_entries(),
            batched.store().resident_entries()
        );
        assert_eq!(
            single.store().stats().inserted,
            batched.store().stats().inserted
        );
    }

    /// Store counters without `peak_entries`: the batched detecting path
    /// applies a run's inserts before its removals, so its transient
    /// high-water mark may sit above the per-event apply path's.
    fn churn(engine: &ConcurrentEngine) -> StoreStats {
        StoreStats {
            peak_entries: 0,
            ..engine.store().stats()
        }
    }

    fn sorted_entries(engine: &ConcurrentEngine) -> Vec<(UserId, UserId, Timestamp)> {
        let mut entries = Vec::new();
        engine.store().export_entries(&mut entries);
        // Targets come out in shard/map order; lists within a target are
        // already in stored order, which a stable sort keeps.
        entries.sort_by_key(|&(dst, _, _)| dst);
        entries
    }

    #[test]
    fn apply_events_leaves_the_same_d_as_detection() {
        // Unfollows, same-target repeats, events far enough apart that
        // the wheel expires targets, and batches straddling the
        // ADVANCE_EVERY boundary.
        let trace: Vec<EdgeEvent> = (0..(3 * ADVANCE_EVERY + 117))
            .map(|i| {
                let dst = u(900 + i % 11);
                if i % 23 == 0 {
                    EdgeEvent::unfollow(u(11 + i % 3), dst, ts(10 + i))
                } else {
                    EdgeEvent::follow(u(11 + i % 3), dst, ts(10 + i))
                }
            })
            .collect();
        let detecting = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let applying = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let mut fired = Vec::new();
        let mut checked = 0;
        for chunk in trace.chunks(301) {
            detecting.on_events_into(chunk, &mut fired);
            applying.apply_events(chunk);
            assert_eq!(sorted_entries(&applying), sorted_entries(&detecting));
            assert_eq!(
                applying.since_advance.load(Ordering::Relaxed),
                detecting.since_advance.load(Ordering::Relaxed)
            );
            checked += 1;
        }
        assert!(checked > 3 && !fired.is_empty(), "trace must fire");
        assert_eq!(churn(&applying), churn(&detecting));
        assert_eq!(applying.stats().events, 0, "nothing was detected");
    }

    #[test]
    fn apply_events_crosses_advance_boundary_like_detection() {
        // Spread out in time so each mid-batch advance reclaims targets:
        // a missed or extra advance shows up as different resident sets.
        let trace: Vec<EdgeEvent> = (0..(2 * ADVANCE_EVERY + 52))
            .map(|i| EdgeEvent::follow(u(11), u(10_000 + i), ts(i * 10)))
            .collect();
        let detecting = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let applying = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let (head, tail) = trace.split_at(ADVANCE_EVERY as usize - 1);
        for part in [head, tail] {
            detecting.on_events(part);
            applying.apply_events(part);
        }
        assert_eq!(sorted_entries(&applying), sorted_entries(&detecting));
        assert_eq!(churn(&applying), churn(&detecting));
        assert!(
            applying.store().resident_targets() < 200,
            "advance must run"
        );
    }

    #[test]
    fn on_event_is_callable_from_n_threads() {
        // Distinct targets per thread: each thread closes its own diamonds.
        let engine =
            Arc::new(ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    let mut fired = 0usize;
                    for i in 0..50u64 {
                        let c = u(10_000 + w * 1_000 + i);
                        engine.on_event(EdgeEvent::follow(u(11), c, ts(100)));
                        fired += engine.on_event(EdgeEvent::follow(u(12), c, ts(105))).len();
                    }
                    fired
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Every pair fires for A1 and A2.
        assert_eq!(total, 4 * 50 * 2);
        assert_eq!(engine.stats().events, 4 * 50 * 2);
    }

    #[test]
    fn swap_graph_publishes_to_all_threads() {
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let engine = ConcurrentEngine::new(sparse.build(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        assert!(engine
            .on_event(EdgeEvent::follow(u(12), c, ts(11)))
            .is_empty());

        let old = engine.swap_graph(small_graph());
        assert_eq!(old.num_follow_edges(), 1);
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "swap should enable the motif");
        assert_eq!(after[0].user, u(1));
    }

    #[test]
    fn swap_graph_delta_publishes_refreshed_snapshot() {
        let mut sparse = GraphBuilder::new();
        sparse.add_edge(u(1), u(11));
        let base = sparse.build();
        let delta = GraphDelta::between(&base, &small_graph(), 0, 1).unwrap();
        let engine = ConcurrentEngine::new(base, DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        assert!(engine
            .on_event(EdgeEvent::follow(u(12), c, ts(11)))
            .is_empty());

        let old = engine.swap_graph_delta(&delta).unwrap();
        assert_eq!(old.num_follow_edges(), 1);
        let after = engine.on_event(EdgeEvent::follow(u(12), c, ts(12)));
        assert!(!after.is_empty(), "delta swap should enable the motif");
        assert_eq!(after[0].user, u(1));
        assert_eq!(
            engine.graph().num_follow_edges(),
            small_graph().num_follow_edges()
        );
    }

    #[test]
    fn swap_graph_delta_applies_in_order_chain() {
        let g0 = {
            let mut b = GraphBuilder::new();
            b.add_edge(u(1), u(11));
            b.build()
        };
        let g1 = {
            let mut b = GraphBuilder::new();
            b.extend([(u(1), u(11)), (u(1), u(12))]);
            b.build()
        };
        let d01 = GraphDelta::between(&g0, &g1, 0, 1).unwrap();
        let d12 = GraphDelta::between(&g1, &small_graph(), 1, 2).unwrap();
        let engine = ConcurrentEngine::new(g0, DetectorConfig::example()).unwrap();
        engine.swap_graph_delta(&d01).unwrap();
        engine.swap_graph_delta(&d12).unwrap();
        assert_eq!(
            engine.graph().num_follow_edges(),
            small_graph().num_follow_edges()
        );
        // Replaying the first delta out of order must fail loudly.
        assert!(engine.swap_graph_delta(&d01).is_err());
    }

    #[test]
    fn unfollow_removes_witness() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        let c = u(99);
        engine.on_event(EdgeEvent::follow(u(11), c, ts(10)));
        engine.on_event(EdgeEvent::unfollow(u(11), c, ts(11)));
        assert!(engine
            .on_event(EdgeEvent::follow(u(12), c, ts(12)))
            .is_empty());
    }

    #[test]
    fn advance_reclaims_store_memory() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        for i in 0..100u64 {
            engine.on_event(EdgeEvent::follow(u(11), u(1000 + i), ts(1)));
        }
        assert!(engine.store().resident_entries() > 0);
        engine.advance(ts(100_000));
        assert_eq!(engine.store().resident_entries(), 0);
    }

    #[test]
    fn memory_accounting_positive() {
        let engine = ConcurrentEngine::new(small_graph(), DetectorConfig::example()).unwrap();
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(ConcurrentEngine::new(small_graph(), DetectorConfig::example().with_k(0)).is_err());
    }
}
