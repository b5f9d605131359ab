//! Graph-edge events and detection candidates.
//!
//! An [`EdgeEvent`] is one element of the real-time stream the paper assumes
//! ("a data source (e.g., message queue) that provides a stream of graph
//! edges as they are created"). A [`Candidate`] is the system's output:
//! push account `C` to user `A` because `k` of `A`'s followings acted on `C`
//! within the window.

use crate::ids::UserId;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The action that created a dynamic edge.
///
/// The paper's running example uses follows, and notes "the idea applies to
/// recommending content as well, based on user actions such as retweets,
/// favorites, etc." — each action kind can drive its own motif.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EdgeKind {
    /// `src` followed `dst`.
    Follow,
    /// `src` un-followed `dst` (removes the dynamic edge if still in window).
    Unfollow,
    /// `src` retweeted a tweet authored by `dst` (content co-action).
    Retweet,
    /// `src` favorited a tweet authored by `dst` (content co-action).
    Favorite,
}

impl EdgeKind {
    /// Whether this event *adds* a dynamic edge (vs. removing one).
    #[inline]
    pub fn is_insertion(self) -> bool {
        !matches!(self, EdgeKind::Unfollow)
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Follow => "follow",
            EdgeKind::Unfollow => "unfollow",
            EdgeKind::Retweet => "retweet",
            EdgeKind::Favorite => "favorite",
        };
        f.write_str(s)
    }
}

/// One edge-creation (or deletion) event from the firehose.
///
/// In the diamond-motif notation, `src` is a `B` and `dst` is a `C`. The
/// `created_at` timestamp is assigned at the *origin* (edge creation), not at
/// delivery, so end-to-end latency can be measured from the edge's creation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeEvent {
    /// The acting user (a `B`).
    pub src: UserId,
    /// The acted-on user (a `C`).
    pub dst: UserId,
    /// When the edge was created at the origin.
    pub created_at: Timestamp,
    /// What kind of action created the edge.
    pub kind: EdgeKind,
}

impl EdgeEvent {
    /// Convenience constructor for a follow event.
    #[inline]
    pub fn follow(src: UserId, dst: UserId, created_at: Timestamp) -> Self {
        EdgeEvent {
            src,
            dst,
            created_at,
            kind: EdgeKind::Follow,
        }
    }

    /// Convenience constructor for an unfollow event.
    #[inline]
    pub fn unfollow(src: UserId, dst: UserId, created_at: Timestamp) -> Self {
        EdgeEvent {
            src,
            dst,
            created_at,
            kind: EdgeKind::Unfollow,
        }
    }
}

/// A raw recommendation candidate: "push `target` to `user`".
///
/// `witnesses` are the `B`s that completed the motif, kept for scoring,
/// explanation ("because X and Y followed Z"), and debugging. The paper
/// calls the pre-funnel volume "billions of raw candidates" — a `Candidate`
/// is one of those.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Candidate {
    /// The user who will receive the push (an `A`).
    pub user: UserId,
    /// The account (or content author) being recommended (a `C`).
    pub target: UserId,
    /// The `B`s whose temporally-correlated actions formed the motif,
    /// sorted ascending. At least `k` of them.
    pub witnesses: Vec<UserId>,
    /// Timestamp of the triggering edge event.
    pub triggered_at: Timestamp,
}

impl Candidate {
    /// Number of witnesses — the primary relevance signal (more co-acting
    /// followings ⇒ stronger "what's hot" evidence).
    #[inline]
    pub fn strength(&self) -> usize {
        self.witnesses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn edge_kind_insertion() {
        assert!(EdgeKind::Follow.is_insertion());
        assert!(EdgeKind::Retweet.is_insertion());
        assert!(EdgeKind::Favorite.is_insertion());
        assert!(!EdgeKind::Unfollow.is_insertion());
    }

    #[test]
    fn follow_constructor() {
        let e = EdgeEvent::follow(u(1), u(2), Timestamp::from_secs(3));
        assert_eq!(e.src, u(1));
        assert_eq!(e.dst, u(2));
        assert_eq!(e.kind, EdgeKind::Follow);
    }

    #[test]
    fn candidate_strength_counts_witnesses() {
        let c = Candidate {
            user: u(1),
            target: u(9),
            witnesses: vec![u(2), u(3), u(4)],
            triggered_at: Timestamp::ZERO,
        };
        assert_eq!(c.strength(), 3);
    }

    #[test]
    fn edge_event_serde_roundtrip() {
        let e = EdgeEvent::follow(u(7), u(8), Timestamp::from_millis(1500));
        let json = serde_json_like(&e);
        // serde_json isn't a dependency; exercise serde via the derived
        // Debug-stable fields instead of a full format. The derives
        // themselves are checked at compile time; here we sanity-check
        // field visibility and Copy semantics.
        let e2 = e;
        assert_eq!(e, e2);
        assert!(json.contains("7"));
    }

    // Minimal stand-in so the test above does not need serde_json.
    fn serde_json_like(e: &EdgeEvent) -> String {
        format!("{:?}", e)
    }
}
