//! In-process replays of exactly what a run sent, for the correctness
//! gate and for per-layer attribution.
//!
//! * [`engine_replay`] feeds the sent frames, per connection and in send
//!   order, through a fresh [`ConcurrentEngine`] — the reference the
//!   served candidate stream must equal tag for tag.
//! * [`Decomposed`] runs the same events through the engine's parts
//!   called one by one — `D` upsert, witness fetch (timed inside the
//!   fill closure), and [`DiamondDetector::detect_into`] — so each layer's
//!   self time is measured where the work happens. It must emit the same
//!   candidates as the served run.
//! * [`oracle_check`] compares the engine against the brute-force
//!   [`BatchOracle`] on a trace prefix small enough for it.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use magicrecs_baseline::BatchOracle;
use magicrecs_core::{ConcurrentEngine, DiamondDetector};
use magicrecs_graph::FollowGraph;
use magicrecs_temporal::{PruneStrategy, ShardedTemporalStore};
use magicrecs_types::{Candidate, EdgeEvent, FxHashMap, Timestamp};

use crate::inputs::detector;

/// Order-sensitive digest of the candidates one frame produced: their
/// count and a rolling hash. Comparing digests instead of candidate
/// lists keeps the generator's memory out of the measured process's
/// footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Candidates folded in.
    pub count: u64,
    /// Rolling hash over every field of every candidate, in order.
    pub hash: u64,
}

impl Digest {
    /// Folds in the next candidate.
    pub fn add(&mut self, c: &Candidate) {
        let mut h = DefaultHasher::new();
        (c.user.0, c.target.0, c.triggered_at.0).hash(&mut h);
        for w in &c.witnesses {
            w.0.hash(&mut h);
        }
        self.hash = self.hash.rotate_left(5).wrapping_mul(0x0100_0000_01b3) ^ h.finish();
        self.count += 1;
    }

    /// Digest of a candidate list.
    pub fn of(cs: &[Candidate]) -> Digest {
        let mut d = Digest::default();
        for c in cs {
            d.add(c);
        }
        d
    }
}

/// Candidate digest per frame tag (only tags that produced any).
pub type PerTag = FxHashMap<u64, Digest>;

/// Events between wheel-expiry advances, as in the engines.
const ADVANCE_EVERY: u64 = 1024;

/// `D` shards, as in `ConcurrentEngine::new`.
const SHARDS: usize = 16;

/// Replays independent streams of `(tag, events)` batches through one
/// fresh [`ConcurrentEngine`] over `graph`, one thread per stream (the
/// way the server's workers drive it), returning candidates per tag.
/// Streams must not share targets — connection routing guarantees it.
pub fn engine_replay(graph: &FollowGraph, streams: &[Vec<(u64, &[EdgeEvent])>]) -> PerTag {
    let engine = ConcurrentEngine::new(graph.clone(), detector()).expect("valid detector config");
    let parts: Vec<PerTag> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let engine = &engine;
                s.spawn(move || {
                    let mut out = PerTag::default();
                    let mut buf = Vec::new();
                    for (tag, events) in stream {
                        buf.clear();
                        if engine.on_events_into(events, &mut buf) > 0 {
                            out.insert(*tag, Digest::of(&buf));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Tags whose candidates differ between `got` and `want` (either side
/// missing counts as a difference).
pub fn mismatches<K: Eq + Hash, V: PartialEq>(
    got: &FxHashMap<K, V>,
    want: &FxHashMap<K, V>,
) -> u64 {
    let mut bad = 0u64;
    for (tag, w) in want {
        if got.get(tag) != Some(w) {
            bad += 1;
        }
    }
    bad + got.keys().filter(|t| !want.contains_key(t)).count() as u64
}

/// Work and self time accumulated by a [`Decomposed`] replay.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Events replayed.
    pub events: u64,
    /// `D` mutations (upserts and removals) and their total time.
    pub upserts: u64,
    /// Total upsert time, ns.
    pub upsert_ns: u64,
    /// Witness fetches (one per insertion) and their total time.
    pub fetches: u64,
    /// Total witness-fetch time, ns.
    pub fetch_ns: u64,
    /// Detections that reached `k` witnesses and ran the kernel.
    pub detects: u64,
    /// Kernel self time of those detections (detect minus fetch), ns.
    pub kernel_ns: u64,
    /// Witnesses the kernel consumed (after the `max_witnesses` cap).
    pub witnesses: u64,
    /// Detections that emitted at least one candidate.
    pub emitting: u64,
    /// Candidates emitted.
    pub candidates: u64,
    /// Wheel-expiry advances and their total time.
    pub expire_ns: u64,
}

impl Ledger {
    /// Folds another ledger into this one.
    pub fn merge(&mut self, o: &Ledger) {
        self.events += o.events;
        self.upserts += o.upserts;
        self.upsert_ns += o.upsert_ns;
        self.fetches += o.fetches;
        self.fetch_ns += o.fetch_ns;
        self.detects += o.detects;
        self.kernel_ns += o.kernel_ns;
        self.witnesses += o.witnesses;
        self.emitting += o.emitting;
        self.candidates += o.candidates;
        self.expire_ns += o.expire_ns;
    }
}

/// The engine's per-event pipeline, called part by part and timed.
pub struct Decomposed<'g> {
    graph: &'g FollowGraph,
    store: ShardedTemporalStore,
    detector: DiamondDetector,
    k: usize,
    cap: usize,
    clock: u64,
    /// Accumulated work and time.
    pub ledger: Ledger,
}

impl<'g> Decomposed<'g> {
    /// A fresh pipeline over `graph`, configured like the served engine.
    pub fn new(graph: &'g FollowGraph) -> Decomposed<'g> {
        let config = detector();
        // The engines cap each target's entries at 16x the witness cap.
        let entry_cap = config.max_witnesses.map(|w| (w * 16).max(1024));
        Decomposed {
            graph,
            store: ShardedTemporalStore::new(config.tau, PruneStrategy::Wheel, SHARDS)
                .with_entry_cap(entry_cap),
            detector: DiamondDetector::new(config).expect("valid detector config"),
            k: config.k,
            cap: config.max_witnesses.unwrap_or(usize::MAX),
            clock: 0,
            ledger: Ledger::default(),
        }
    }

    /// Replays one batch, appending its candidates to `out`.
    pub fn process(&mut self, events: &[EdgeEvent], out: &mut Vec<Candidate>) {
        for &e in events {
            let t = e.created_at;
            let l = &mut self.ledger;
            l.events += 1;
            let t0 = Instant::now();
            if !e.kind.is_insertion() {
                self.store.remove(e.src, e.dst);
                l.upserts += 1;
                l.upsert_ns += t0.elapsed().as_nanos() as u64;
            } else {
                self.store.insert(e.src, e.dst, t);
                l.upserts += 1;
                l.upsert_ns += t0.elapsed().as_nanos() as u64;
                let store = &self.store;
                let mut fill_ns = 0u64;
                let mut found = 0usize;
                let before = out.len();
                let t1 = Instant::now();
                self.detector.detect_into(
                    self.graph,
                    e.dst,
                    t,
                    |buf| {
                        let f0 = Instant::now();
                        store.witnesses_into(e.dst, t, buf);
                        fill_ns = f0.elapsed().as_nanos() as u64;
                        found = buf.len();
                    },
                    out,
                );
                let total = t1.elapsed().as_nanos() as u64;
                l.fetches += 1;
                l.fetch_ns += fill_ns;
                if found >= self.k {
                    l.detects += 1;
                    l.kernel_ns += total.saturating_sub(fill_ns);
                    l.witnesses += found.min(self.cap) as u64;
                    let emitted = (out.len() - before) as u64;
                    if emitted > 0 {
                        l.emitting += 1;
                        l.candidates += emitted;
                    }
                }
            }
            self.clock = self.clock.max(t.as_micros());
            if self.ledger.events.is_multiple_of(ADVANCE_EVERY) {
                let t2 = Instant::now();
                self.store.advance(Timestamp::from_micros(self.clock));
                self.ledger.expire_ns += t2.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Entries resident in `D`.
    pub fn resident_entries(&self) -> u64 {
        self.store.resident_entries()
    }
}

/// Canonical order for comparing candidate multisets.
fn sort_candidates(c: &mut [Candidate]) {
    c.sort_by(|a, b| {
        (a.user, a.target, a.triggered_at, &a.witnesses).cmp(&(
            b.user,
            b.target,
            b.triggered_at,
            &b.witnesses,
        ))
    });
}

/// Runs `prefix` through the engine and through [`BatchOracle`];
/// returns the oracle's candidate count and whether the two agree.
pub fn oracle_check(graph: &FollowGraph, prefix: &[EdgeEvent]) -> (usize, bool) {
    let mut want = BatchOracle::new(detector())
        .expect("valid detector config")
        .replay(graph, prefix);
    let mut got = ConcurrentEngine::new(graph.clone(), detector())
        .expect("valid detector config")
        .on_events(prefix);
    sort_candidates(&mut want);
    sort_candidates(&mut got);
    (want.len(), want == got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
    use magicrecs_types::{Duration, UserId};

    /// The decomposed pipeline must emit exactly what the engine emits,
    /// batch for batch, on a small trace with a celebrity burst.
    #[test]
    fn decomposed_pipeline_matches_engine() {
        let users = 2_000;
        let graph =
            GraphGen::new(GraphGenConfig::small().with_users(users).with_seed(7)).generate();
        let cfg = ScenarioConfig {
            rate_per_sec: 40.0,
            duration: Duration::from_secs(300),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: 1.0,
            seed: 11,
        };
        let trace = Scenario::mixed(&graph, users, Duration::from_secs(60), 80, cfg);
        let events = trace.events();
        assert!(events.len() > 5_000, "trace too small: {}", events.len());

        let batches: Vec<(u64, &[EdgeEvent])> = events
            .chunks(37)
            .enumerate()
            .map(|(i, c)| (i as u64, c))
            .collect();
        let want = engine_replay(&graph, std::slice::from_ref(&batches));
        assert!(!want.is_empty(), "fixture must fire candidates");

        let mut pipe = Decomposed::new(&graph);
        let mut got = PerTag::default();
        for (tag, batch) in &batches {
            let mut out = Vec::new();
            pipe.process(batch, &mut out);
            if !out.is_empty() {
                got.insert(*tag, Digest::of(&out));
            }
        }
        assert_eq!(mismatches(&got, &want), 0);
        let l = &pipe.ledger;
        assert_eq!(l.events, events.len() as u64);
        assert!(l.detects > 0 && l.emitting > 0 && l.emitting <= l.detects);
        assert_eq!(l.candidates, want.values().map(|d| d.count).sum::<u64>());
    }

    #[test]
    fn mismatches_counts_each_differing_tag() {
        let c = |u: u64| Candidate {
            user: UserId(u),
            target: UserId(9),
            witnesses: vec![UserId(1), UserId(2)],
            triggered_at: Timestamp::from_secs(1),
        };
        let mut a: FxHashMap<u64, Vec<Candidate>> = FxHashMap::default();
        a.insert(1, vec![c(1)]);
        a.insert(2, vec![c(2)]);
        let mut b = a.clone();
        assert_eq!(mismatches(&a, &b), 0);
        b.insert(2, vec![c(3)]);
        b.insert(3, vec![c(4)]);
        assert_eq!(mismatches(&a, &b), 2);
        assert_eq!(mismatches(&b, &a), 2);
        // Digests tell the same lists apart.
        assert_eq!(Digest::of(&[c(1), c(2)]), Digest::of(&[c(1), c(2)]));
        assert_ne!(Digest::of(&[c(1), c(2)]), Digest::of(&[c(2), c(1)]));
        assert_ne!(Digest::of(&[c(1)]), Digest::of(&[c(3)]));
    }
}
