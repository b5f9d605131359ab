//! The diamond-motif detector: one dynamic edge in, candidates out.
//!
//! Per §2 of the paper, on a new `B → C` edge at time `t`:
//!
//! 1. insert the edge into `D`;
//! 2. query `D[C]` for the distinct `B`s with edges in `[t − τ, t]` — the
//!    "top half of the diamond". The engine asks `D` for at most
//!    `max_witnesses` of them: the newest distinct `B`s, plus any that tie
//!    the last one's timestamp, so the cap's selection below only breaks
//!    those ties;
//! 3. if at least `k` witnesses exist, look up each witness's follower list
//!    in `S` and find every `A` present in at least `k` of them;
//! 4. emit a [`Candidate`] per such `A` that follows at least one *fresh*
//!    witness (minus `A`s who already follow `C` or are themselves
//!    witnesses, when `skip_existing` is set).
//!
//! **The candidate contract.** After the `max_witnesses` cap, a witness is
//! fresh when its newest in-window timestamp equals the event's `t`. An
//! `A` is emitted iff it passes the filters above, follows at least `k`
//! of the capped witnesses, and at least one of those is fresh;
//! `max_candidates_per_event` then truncates. On a time-ordered stream the
//! fresh set is the triggering `B` plus any `B` that acted on `C` in the
//! same microsecond, so this is the paper's push "when the edge B2 → C2 is
//! created": an `A` already at `k` is not re-announced each time another
//! witness it does not follow arrives, and an event with no fresh witness
//! (an out-of-order event whose `B` already has a newer entry, or whose
//! `B` the cap cut) emits nothing. Freshness is a pure function of the
//! witness timestamps and `t`, so [`DiamondDetector::detect_into`]'s
//! callers need nothing new. One first emission is lost by design: an `A`
//! that was itself a witness (and so skipped by `skip_existing`) can reach
//! `k` on an event it does not follow once its own entry expires, and
//! nothing fresh announces it then. It is rare: a sequential replay of the
//! `celebrity_dense` seed-1 trace counted 42 such pairs among 121,662
//! first emissions.
//!
//! Unfollow events remove the corresponding `D` entries (the static `S` is
//! offline-maintained, exactly as in the paper: "new incoming edges are
//! inserted into the D data structures … but these updates are not
//! propagated to the S data structures").
//!
//! **State/kernel split.** Step 1 (and the unfollow path) is the only part
//! that mutates `D`; steps 2–4 are read-only. [`DiamondDetector::detect_into`]
//! exposes exactly that read-only kernel, taking the witness list through a
//! fill callback instead of touching the store itself — the seam that lets
//! `ConcurrentEngine` run detection against an immutable `S` snapshot while
//! other threads keep inserting.
//!
//! **Dense hot path.** Steps 3–4 run entirely in dense-id space: each
//! witness `B` is interned once (`S.dense_of`, one hash probe — the only
//! probe left per witness), its follower list is a dense `u32` slice
//! fetched with two array reads, and the delta threshold kernel
//! ([`threshold_fresh`]) counts dense ids. Because interning is
//! order-preserving, the matches come out already sorted by raw id;
//! conversion back to [`UserId`] happens only at the [`Candidate`]
//! emission boundary. `D` stays keyed by sparse [`UserId`]s — dynamic
//! events reference an unbounded vertex set the interner has never seen
//! (see `magicrecs_temporal`).

use crate::intersect::gallop_to_simd;
use crate::threshold::{threshold_fresh, FreshScratch};
use magicrecs_graph::FollowGraph;
use magicrecs_types::{Candidate, DenseId, DetectorConfig, Result, Timestamp, UserId};

/// Stateless-per-event detector with reusable scratch buffers.
#[derive(Debug)]
pub struct DiamondDetector {
    config: DetectorConfig,
    // Scratch buffers, reused across events to avoid per-event allocation.
    witnesses: Vec<(UserId, Timestamp)>,
    /// Canonicalized witnesses: sorted ascending by sparse id, each with
    /// its graph-dense id when the witness is a vertex of `S` (and `None`
    /// — empty follower list — when not).
    rows: Vec<(UserId, Option<DenseId>)>,
    /// Per row: whether the witness is fresh (its timestamp is the
    /// event's).
    fresh: Vec<bool>,
    matches: Vec<(DenseId, u32)>,
    kernel: FreshScratch<DenseId>,
    /// Per-list frontier for witness recovery at emission: matches emit in
    /// ascending dense order, so one monotone galloping cursor per list
    /// replaces the per-candidate binary searches `lists_containing` paid
    /// (a fresh O(log |S[B]|) against every celebrity-sized list, per
    /// candidate).
    witness_cursors: Vec<usize>,
}

impl DiamondDetector {
    /// Creates a detector after validating `config`.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        Ok(DiamondDetector {
            config,
            witnesses: Vec::with_capacity(64),
            rows: Vec::with_capacity(64),
            fresh: Vec::with_capacity(64),
            matches: Vec::with_capacity(64),
            kernel: FreshScratch::default(),
            witness_cursors: Vec::with_capacity(64),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The read-only detection kernel: steps 2–4 of the paper's algorithm,
    /// with step 2's result supplied by the caller.
    ///
    /// `fill_witnesses` appends the distinct in-window `B`s for `target`
    /// (each with its latest timestamp) into the detector's scratch — a
    /// visitor borrow, so the kernel itself never holds store access. It
    /// may stop at the `max_witnesses` newest plus the ties at the last
    /// one's timestamp (`witnesses_capped_into`): the selection below
    /// keeps the same set either way. This is the seam `ConcurrentEngine`
    /// uses: the store lookup happens under a shard lock inside the
    /// callback, and everything after runs against the immutable `S`
    /// snapshot only.
    pub fn detect_into<F>(
        &mut self,
        s: &FollowGraph,
        target: UserId,
        t: Timestamp,
        fill_witnesses: F,
        out: &mut Vec<Candidate>,
    ) -> usize
    where
        F: FnOnce(&mut Vec<(UserId, Timestamp)>),
    {
        // Top half of the diamond: distinct in-window Bs pointing at C.
        self.witnesses.clear();
        fill_witnesses(&mut self.witnesses);
        if self.witnesses.len() < self.config.k {
            return 0;
        }

        // Cap witnesses, preferring the most recent. On a time-ordered
        // stream that keeps the triggering edge unless more than `cap`
        // witnesses share its timestamp and it loses the id tie-break;
        // out of order, the trigger may be cut and then nothing is fresh.
        // A selection, not a sort: the kept set is all that matters. A
        // capped fetch hands over more than `cap` only when witnesses
        // tie at its boundary timestamp.
        if let Some(cap) = self.config.max_witnesses {
            if self.witnesses.len() > cap {
                self.witnesses
                    .select_nth_unstable_by_key(cap - 1, |&(b, at)| (std::cmp::Reverse(at), b));
                self.witnesses.truncate(cap);
            }
        }
        // No fresh witness, nothing to announce.
        if !self.witnesses.iter().any(|&(_, at)| at == t) {
            return 0;
        }
        // Deterministic list order (witness order affects only ordering of
        // per-candidate witness ids, but keep everything canonical).
        self.witnesses.sort_unstable_by_key(|&(b, _)| b);

        // One interner probe per witness. Witnesses outside `S`
        // (no interned followers) contribute empty lists, exactly as the
        // old id-level lookup returned empty.
        self.rows.clear();
        self.fresh.clear();
        let (rows, fresh, witnesses) = (&mut self.rows, &mut self.fresh, &self.witnesses);
        rows.extend(witnesses.iter().map(|&(b, _)| (b, s.dense_of(b))));
        fresh.extend(witnesses.iter().map(|&(_, at)| at == t));
        self.finish_into(s, target, t, out)
    }

    /// Bottom half: count the follower lists of the canonicalized
    /// witnesses in `self.rows` for `A`s at `k` that meet a fresh witness,
    /// then filter and emit candidates.
    fn finish_into(
        &mut self,
        s: &FollowGraph,
        target: UserId,
        t: Timestamp,
        out: &mut Vec<Candidate>,
    ) -> usize {
        // Every `S[B]` lookup is two array reads on u32 slices.
        let lists: Vec<&[DenseId]> = self
            .rows
            .iter()
            .map(|&(_, d)| d.map_or(&[] as &[DenseId], |db| s.followers_dense(db)))
            .collect();
        self.matches.clear();
        threshold_fresh(
            &lists,
            &self.fresh,
            self.config.k,
            &mut self.kernel,
            &mut self.matches,
        );
        if self.matches.is_empty() {
            return 0;
        }

        // `C` may be unknown to the static graph; then nobody follows it
        // statically and it can never equal an interned match.
        let dense_dst = s.dense_of(target);

        let mut emitted = 0usize;
        self.witness_cursors.clear();
        self.witness_cursors.resize(lists.len(), 0);
        // Order-preserving interning keeps matches ascending by raw id, so
        // candidates emit in the same order the id-level path produced —
        // and the witness-recovery cursors below only ever move forward.
        for &(da, count) in self.matches.iter() {
            if Some(da) == dense_dst {
                continue; // never recommend an account to itself
            }
            let a = s.user_of(da);
            if self.config.skip_existing {
                // A witness already follows C (dynamically); a static
                // follower of C already knows it.
                if self.rows.binary_search_by_key(&a, |&(b, _)| b).is_ok()
                    || dense_dst.is_some_and(|dc| s.follows_dense(da, dc))
                {
                    continue;
                }
            }
            if let Some(cap) = self.config.max_candidates_per_event {
                if emitted >= cap {
                    break;
                }
            }
            // Recover which witnesses this candidate follows by advancing
            // each list's frontier to the candidate; the threshold count
            // says exactly how many lists will hit, so the scan stops as
            // soon as the last one is found.
            let mut witness_ids: Vec<UserId> = Vec::with_capacity(count as usize);
            for (i, list) in lists.iter().enumerate() {
                let c = gallop_to_simd(list, self.witness_cursors[i], da);
                if list.get(c).copied() == Some(da) {
                    witness_ids.push(self.rows[i].0);
                    self.witness_cursors[i] = c + 1;
                    if witness_ids.len() == count as usize {
                        break;
                    }
                } else {
                    self.witness_cursors[i] = c;
                }
            }
            debug_assert_eq!(witness_ids.len(), count as usize);
            out.push(Candidate {
                user: a,
                target,
                witnesses: witness_ids,
                triggered_at: t,
            });
            emitted += 1;
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_temporal::TemporalEdgeStore;
    use magicrecs_types::{Duration, EdgeEvent, EdgeKind};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The paper's Figure 1: A1→B1, A2→{B1,B2}, A3→B2; B1→C2 exists
    /// dynamically, then B2→C2 arrives and C2 should go to A2 only.
    fn figure1_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)), // A1 -> B1
            (u(2), u(11)), // A2 -> B1
            (u(2), u(12)), // A2 -> B2
            (u(3), u(12)), // A3 -> B2
        ]);
        g.build()
    }

    fn detector(k: usize) -> DiamondDetector {
        DiamondDetector::new(DetectorConfig::example().with_k(k)).unwrap()
    }

    fn store() -> TemporalEdgeStore {
        TemporalEdgeStore::with_window(Duration::from_mins(10))
    }

    /// One event through `D` and the kernel: an unfollow removes its
    /// entry, anything else inserts and detects against `C`'s witnesses.
    fn step(
        det: &mut DiamondDetector,
        s: &FollowGraph,
        d: &mut TemporalEdgeStore,
        event: EdgeEvent,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        if !event.kind.is_insertion() {
            d.remove(event.src, event.dst);
            return out;
        }
        let t = event.created_at;
        d.insert(event.src, event.dst, t);
        det.detect_into(
            s,
            event.dst,
            t,
            |buf| d.witnesses_into(event.dst, t, buf),
            &mut out,
        );
        out
    }

    #[test]
    fn figure1_walkthrough() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c2 = u(22);

        // B1 -> C2 first: only one witness, nothing fires.
        let r1 = step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c2, ts(100)));
        assert!(r1.is_empty());

        // B2 -> C2 within τ: the diamond closes; A2 is the intersection.
        let r2 = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c2, ts(160)));
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].user, u(2));
        assert_eq!(r2[0].target, c2);
        assert_eq!(r2[0].witnesses, vec![u(11), u(12)]);
        assert_eq!(r2[0].triggered_at, ts(160));
    }

    #[test]
    fn window_expiry_blocks_stale_witnesses() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(100)));
        // 11 minutes later — outside τ = 10 min.
        let r = step(
            &mut det,
            &s,
            &mut d,
            EdgeEvent::follow(u(12), c, ts(100 + 660)),
        );
        assert!(r.is_empty());
    }

    #[test]
    fn k3_requires_three_witnesses() {
        // A follows B1,B2,B3; all three must act.
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(1), u(12)), (u(1), u(13))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(3);
        let c = u(99);
        assert!(step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10))).is_empty());
        assert!(step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20))).is_empty());
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(13), c, ts(30)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(1));
        assert_eq!(r[0].witnesses, vec![u(11), u(12), u(13)]);
    }

    #[test]
    fn unfollow_removes_witness_before_closing() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        step(&mut det, &s, &mut d, EdgeEvent::unfollow(u(11), c, ts(20)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(30)));
        assert!(r.is_empty(), "unfollowed witness must not count");
    }

    #[test]
    fn self_recommendation_excluded() {
        // C itself follows both Bs: the intersection contains C, which must
        // be dropped.
        let c = u(50);
        let mut g = GraphBuilder::new();
        g.extend([(c, u(11)), (c, u(12)), (u(1), u(11)), (u(1), u(12))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        let users: Vec<UserId> = r.iter().map(|x| x.user).collect();
        assert_eq!(users, vec![u(1)]);
    }

    #[test]
    fn existing_follower_skipped_when_configured() {
        // A already follows C statically.
        let c = u(50);
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(1), u(12)), (u(1), c)]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        assert!(r.is_empty(), "existing follower must be skipped");

        // With skip_existing off, the candidate appears.
        let cfg = DetectorConfig {
            skip_existing: false,
            ..DetectorConfig::example()
        };
        let mut det2 = DiamondDetector::new(cfg).unwrap();
        let mut d2 = store();
        step(&mut det2, &s, &mut d2, EdgeEvent::follow(u(11), c, ts(10)));
        let r2 = step(&mut det2, &s, &mut d2, EdgeEvent::follow(u(12), c, ts(20)));
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].user, u(1));
    }

    #[test]
    fn witness_is_not_recommended() {
        // B1 follows B2; both follow C dynamically. B1 would be in the
        // intersection (follows B2 ≥ k? no — k=2 needs 2 witnesses).
        // Construct: A=11 follows 12 and 13; 11 itself also dynamically
        // follows C. Witnesses {11,12,13}; intersection of followers
        // includes... make 11 follow 12,13 so 11 appears in 2 lists.
        let mut g = GraphBuilder::new();
        g.extend([(u(11), u(12)), (u(11), u(13))]);
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(10)));
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(13), c, ts(12)));
        // 11 appears in followers(12) ∩ followers(13) — but then 11 itself
        // follows C: as a witness it must be excluded from later events.
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(14)));
        let users: Vec<UserId> = r.iter().map(|x| x.user).collect();
        assert!(
            !users.contains(&u(11)),
            "witness recommended to itself: {users:?}"
        );
    }

    #[test]
    fn duplicate_dynamic_edges_count_once() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(22);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        // Same B repeats (e.g. retweet twice): still a single witness.
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(20)));
        assert!(r.is_empty(), "one distinct B must not fire k=2");
    }

    #[test]
    fn candidates_sorted_by_user() {
        // Many As share both Bs.
        let mut g = GraphBuilder::new();
        for a in [9u64, 3, 7, 1] {
            g.add_edge(u(a), u(11));
            g.add_edge(u(a), u(12));
        }
        let s = g.build();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(11)));
        let users: Vec<u64> = r.iter().map(|x| x.user.raw()).collect();
        assert_eq!(users, vec![1, 3, 7, 9]);
    }

    #[test]
    fn max_candidates_cap_respected() {
        let mut g = GraphBuilder::new();
        for a in 0..100u64 {
            g.add_edge(u(a), u(1000));
            g.add_edge(u(a), u(1001));
        }
        let s = g.build();
        let cfg = DetectorConfig {
            max_candidates_per_event: Some(5),
            ..DetectorConfig::example()
        };
        let mut det = DiamondDetector::new(cfg).unwrap();
        let mut d = store();
        let c = u(5000);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(1000), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(1001), c, ts(11)));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn max_witnesses_cap_keeps_most_recent() {
        // 5 Bs act; cap at 3 keeps the 3 most recent, which all share A=1.
        let mut g = GraphBuilder::new();
        for b in 11..=15u64 {
            g.add_edge(u(1), u(b));
        }
        let s = g.build();
        let cfg = DetectorConfig {
            max_witnesses: Some(3),
            ..DetectorConfig::example()
        };
        let mut det = DiamondDetector::new(cfg).unwrap();
        let mut d = store();
        let c = u(99);
        for (i, b) in (11..=15u64).enumerate() {
            step(
                &mut det,
                &s,
                &mut d,
                EdgeEvent::follow(u(b), c, ts(10 + i as u64)),
            );
        }
        // After the last event the candidate's witnesses are the 3 newest.
        let mut d2 = store();
        let mut det2 = DiamondDetector::new(cfg).unwrap();
        let mut last = Vec::new();
        for (i, b) in (11..=15u64).enumerate() {
            last = step(
                &mut det2,
                &s,
                &mut d2,
                EdgeEvent::follow(u(b), c, ts(10 + i as u64)),
            );
        }
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].witnesses, vec![u(13), u(14), u(15)]);
    }

    #[test]
    fn retweet_events_drive_motifs_too() {
        let s = figure1_graph();
        let mut d = store();
        let mut det = detector(2);
        let author = u(22);
        let e1 = EdgeEvent {
            src: u(11),
            dst: author,
            created_at: ts(10),
            kind: EdgeKind::Retweet,
        };
        let e2 = EdgeEvent {
            src: u(12),
            dst: author,
            created_at: ts(15),
            kind: EdgeKind::Favorite,
        };
        step(&mut det, &s, &mut d, e1);
        let r = step(&mut det, &s, &mut d, e2);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
    }

    /// A1 follows B11 and B12, A2 follows B12 and B13, A5 follows B14.
    fn delta_graph() -> FollowGraph {
        let mut g = GraphBuilder::new();
        g.extend([
            (u(1), u(11)),
            (u(1), u(12)),
            (u(2), u(12)),
            (u(2), u(13)),
            (u(5), u(14)),
        ]);
        g.build()
    }

    fn users(r: &[Candidate]) -> Vec<u64> {
        r.iter().map(|c| c.user.raw()).collect()
    }

    #[test]
    fn re_announcement_suppressed() {
        let s = delta_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        assert_eq!(users(&r), vec![1]);
        // B13 closes A2's diamond; A1 is still at k but follows no fresh
        // witness, so it is not announced again.
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(13), c, ts(30)));
        assert_eq!(users(&r), vec![2]);
    }

    #[test]
    fn trigger_nobody_at_k_follows_emits_nothing() {
        let s = delta_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(14), c, ts(30)));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn same_timestamp_probe_group_still_fires() {
        let s = delta_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(10)));
        assert_eq!(users(&r), vec![1]);
        // Same microsecond: B11 and B12 are still fresh, so A1 fires with
        // this event too although it does not follow the trigger.
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(14), c, ts(10)));
        assert_eq!(users(&r), vec![1]);
        assert_eq!(r[0].witnesses, vec![u(11), u(12)]);
    }

    #[test]
    fn fresh_witness_cut_by_cap_emits_nothing() {
        let s = delta_graph();
        let c = u(99);
        let run = |max_witnesses| {
            let cfg = DetectorConfig {
                max_witnesses,
                ..DetectorConfig::example()
            };
            let mut det = DiamondDetector::new(cfg).unwrap();
            let mut d = store();
            step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
            step(&mut det, &s, &mut d, EdgeEvent::follow(u(13), c, ts(30)));
            // Out of order: the trigger is the oldest witness.
            step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(10)))
        };
        // Uncapped, the trigger is fresh and closes A1's diamond.
        assert_eq!(users(&run(None)), vec![1]);
        // Capped at 2, the trigger is cut; A2 is at k among the kept
        // witnesses, but neither of them is fresh.
        assert!(run(Some(2)).is_empty());
    }

    #[test]
    fn out_of_order_event_behind_newer_entry_emits_nothing() {
        let s = delta_graph();
        let mut d = store();
        let mut det = detector(2);
        let c = u(99);
        step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(30)));
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(12), c, ts(20)));
        assert_eq!(users(&r), vec![1]);
        // B11 already has a newer entry (30), so at t = 25 no witness is
        // fresh.
        let r = step(&mut det, &s, &mut d, EdgeEvent::follow(u(11), c, ts(25)));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(DiamondDetector::new(DetectorConfig::example().with_k(0)).is_err());
    }
}
