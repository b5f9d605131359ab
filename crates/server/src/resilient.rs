//! Client-side resilience: exponential backoff with jitter and a
//! resend ledger keyed by WAL sequence.
//!
//! The serving tier emits typed refusals (`Shed` with a retry-after
//! hint) and replica nodes emit typed acks (`IngestAck` with durable /
//! replicated watermarks). The replica tier's routed client consumes
//! them with these two pieces:
//!
//! * [`Backoff`] — exponential delay with deterministic jitter that
//!   treats a server's retry-after hint as a **floor**, never less.
//!   `tests/e2e.rs` drives it against a token bucket and checks that
//!   resending only the shed batches admits every event exactly once.
//! * [`SeqLedger`] — un-acked batches keyed by their first WAL
//!   sequence. A batch leaves the ledger only when the *replicated*
//!   watermark passes it, so after a leader kill -9 the client still
//!   holds exactly the acked-but-unshipped tail and can re-send it to
//!   the promoted follower. Re-sending is idempotent: the batch tag is
//!   its first sequence, and a leader skips any prefix it already
//!   holds — retry cannot double-ingest.

use magicrecs_types::{EdgeEvent, Error, Result};
use std::collections::VecDeque;
use std::time::Duration;

/// Exponential backoff with deterministic jitter.
///
/// The delay for attempt `n` is drawn uniformly from the upper half of
/// `base * 2^n` (capped at `cap`) — "equal jitter", so concurrent
/// clients desynchronize without ever retrying immediately. When the
/// server supplied a retry-after hint, the hint is a floor: honoring it
/// means never knocking again sooner than invited.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base`, doubling per attempt, capped at
    /// `cap`. `seed` drives the jitter; two clients with different
    /// seeds spread out, one client with a fixed seed is reproducible.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            // xorshift must not start at 0; fold in a constant.
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — no external RNG dependency, good enough to
        // decorrelate retry storms.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The delay to sleep before the next attempt, honoring
    /// `hint_us` (a server retry-after hint; 0 = none) as a floor.
    /// Advances the attempt counter.
    pub fn next_delay(&mut self, hint_us: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let half = exp.as_micros() as u64 / 2;
        let jittered = half + self.next_rand() % (half + 1);
        Duration::from_micros(jittered.max(hint_us))
    }

    /// Attempts made since construction or the last [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Clears the attempt counter after a success, so the next failure
    /// starts the ladder at `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One staged, not-yet-released batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingBatch {
    /// Correlation tag — by construction the batch's first sequence,
    /// which is what makes re-sends idempotent at the WAL layer.
    pub tag: u64,
    /// Sequence of the batch's first event; events occupy
    /// `first_seq .. first_seq + events.len()`.
    pub first_seq: u64,
    /// The batch's events, in send order.
    pub events: Vec<EdgeEvent>,
}

impl PendingBatch {
    /// First sequence *after* this batch.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.events.len() as u64
    }
}

/// The client's resend ledger: every sent batch, keyed by sequence,
/// retained until the replication watermark passes it.
///
/// Sequences are client-assigned and dense: the ledger hands out
/// `next_seq` as each batch is staged, and the receiving leader appends
/// at exactly those sequences (skipping any prefix it already holds).
/// "Acked" (durable on the leader) is therefore not enough to forget a
/// batch — only "replicated" (confirmed shipped to the follower) is,
/// because a kill -9 leader takes its un-shipped WAL tail down with it
/// and the promoted follower needs the client to still have those
/// events in hand.
#[derive(Debug, Default)]
pub struct SeqLedger {
    pending: VecDeque<PendingBatch>,
    next_seq: u64,
}

impl SeqLedger {
    /// A ledger whose first staged event gets sequence `first_seq`
    /// (0 for a fresh partition; the durable watermark when resuming).
    pub fn new(first_seq: u64) -> SeqLedger {
        SeqLedger {
            pending: VecDeque::new(),
            next_seq: first_seq,
        }
    }

    /// Stages a batch: assigns its sequences, records it as pending,
    /// and returns it for sending. Empty batches are an error — they
    /// would mint a tag no ack can ever release.
    pub fn stage(&mut self, events: Vec<EdgeEvent>) -> Result<&PendingBatch> {
        if events.is_empty() {
            return Err(Error::InvalidConfig("ledger: empty batch".into()));
        }
        let first_seq = self.next_seq;
        self.next_seq += events.len() as u64;
        self.pending.push_back(PendingBatch {
            tag: first_seq,
            first_seq,
            events,
        });
        Ok(self.pending.back().expect("just pushed"))
    }

    /// Applies a replicated watermark (first sequence **not** yet
    /// replicated): releases every batch wholly below it and returns
    /// how many were released. Watermarks are monotone; a stale or
    /// partial one releases nothing.
    pub fn release(&mut self, replicated: u64) -> usize {
        let mut released = 0;
        while let Some(front) = self.pending.front() {
            if front.end_seq() <= replicated {
                self.pending.pop_front();
                released += 1;
            } else {
                break;
            }
        }
        released
    }

    /// The batches a reconnecting client must re-send, oldest first.
    pub fn unreleased(&self) -> impl Iterator<Item = &PendingBatch> {
        self.pending.iter()
    }

    /// Sequence the next staged event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Batches still held.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when every staged batch has been released.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::{Timestamp, UserId};

    fn ev(n: u64) -> EdgeEvent {
        EdgeEvent::follow(UserId(n), UserId(n + 1), Timestamp::from_secs(n))
    }

    #[test]
    fn backoff_grows_honors_hints_and_caps() {
        let mut b = Backoff::new(
            Duration::from_micros(100),
            Duration::from_millis(10),
            0xC0FFEE,
        );
        let d0 = b.next_delay(0);
        assert!(d0 >= Duration::from_micros(50) && d0 <= Duration::from_micros(100));
        let d1 = b.next_delay(0);
        assert!(d1 >= Duration::from_micros(100) && d1 <= Duration::from_micros(200));
        // A server hint is a floor even when the ladder is lower.
        let d2 = b.next_delay(50_000);
        assert!(d2 >= Duration::from_millis(50));
        // The ladder never exceeds the cap (hint aside).
        for _ in 0..20 {
            assert!(b.next_delay(0) <= Duration::from_millis(10));
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay(0) <= Duration::from_micros(100));
    }

    #[test]
    fn backoff_jitter_differs_across_seeds() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 1);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 2);
        let da: Vec<Duration> = (0..4).map(|_| a.next_delay(0)).collect();
        let db: Vec<Duration> = (0..4).map(|_| b.next_delay(0)).collect();
        assert_ne!(da, db, "different seeds must jitter differently");
    }

    #[test]
    fn ledger_assigns_dense_seqs_and_tags() {
        let mut l = SeqLedger::new(100);
        let b1 = l.stage(vec![ev(1), ev(2), ev(3)]).unwrap().clone();
        assert_eq!((b1.tag, b1.first_seq, b1.end_seq()), (100, 100, 103));
        let b2 = l.stage(vec![ev(4)]).unwrap().clone();
        assert_eq!((b2.tag, b2.first_seq, b2.end_seq()), (103, 103, 104));
        assert_eq!(l.next_seq(), 104);
        assert!(l.stage(Vec::new()).is_err(), "empty batches are refused");
    }

    #[test]
    fn ledger_releases_only_fully_replicated_batches() {
        let mut l = SeqLedger::new(0);
        l.stage(vec![ev(1), ev(2)]).unwrap(); // seqs 0..2
        l.stage(vec![ev(3), ev(4)]).unwrap(); // seqs 2..4
        l.stage(vec![ev(5)]).unwrap(); // seq 4
                                       // Watermark mid-batch releases only the whole batches below it.
        assert_eq!(l.release(3), 1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.unreleased().next().unwrap().first_seq, 2);
        // Stale watermark: no-op.
        assert_eq!(l.release(1), 0);
        assert_eq!(l.release(5), 2);
        assert!(l.is_empty());
        // Sequences keep ascending after a drain.
        assert_eq!(l.stage(vec![ev(6)]).unwrap().first_seq, 5);
    }

    #[test]
    fn resend_set_is_exactly_the_unreleased_tail() {
        let mut l = SeqLedger::new(0);
        for i in 0..5 {
            l.stage(vec![ev(i), ev(i + 10)]).unwrap();
        }
        l.release(4); // two batches gone
        let tags: Vec<u64> = l.unreleased().map(|b| b.tag).collect();
        assert_eq!(tags, vec![4, 6, 8]);
    }
}
