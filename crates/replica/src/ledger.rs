//! The client's resend ledger, keyed by WAL sequence.
//!
//! [`SeqLedger`] holds un-acked batches keyed by their first WAL
//! sequence. A batch leaves the ledger only when the *replicated*
//! watermark passes it, so after a leader kill -9 the client still
//! holds exactly the acked-but-unshipped tail and can re-send it to the
//! promoted follower. Re-sending is idempotent: the batch tag is its
//! first sequence, and a leader skips any prefix it already holds —
//! retry cannot double-ingest.

use magicrecs_types::{EdgeEvent, Error, Result};
use std::collections::VecDeque;

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
