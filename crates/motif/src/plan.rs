//! Physical plans: an ordered list of executable steps plus an
//! `EXPLAIN`-style renderer.
//!
//! The planner compiles a [`crate::MotifSpec`] into a [`Plan`]; the
//! executor interprets the steps in order against the graph
//! infrastructure. Steps operate on a small, fixed register set (the
//! event, the witness list, the follower lists, the match list) — the
//! shape every diamond-family motif shares.

use magicrecs_types::{Duration, EdgeKind};
use std::fmt;

/// One executable operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Apply the event to the dynamic store (insert/remove), honoring the
    /// plan's kind filter. Non-matching events abort the plan.
    IngestDynamic,
    /// witnesses ← distinct in-window sources of `event.dst`.
    LoadWitnesses,
    /// Abort unless `witnesses.len() >= k`.
    RequireWitnesses(usize),
    /// Keep only the `n` most recent witnesses.
    CapWitnesses(usize),
    /// lists ← static follower list of each witness.
    LoadFollowerLists,
    /// matches ← values in ≥ k of the lists, at least one of them a fresh
    /// witness's (the event's own timestamp) — the delta threshold.
    ThresholdCount(usize),
    /// Drop the event target from matches.
    FilterSelf,
    /// Drop matches that are themselves witnesses.
    FilterWitnesses,
    /// Drop matches that already statically follow the target.
    FilterAlreadyFollowing,
    /// Materialize matches as candidates.
    EmitCandidates,
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::IngestDynamic => write!(f, "IngestDynamic[D.insert/remove]"),
            PlanStep::LoadWitnesses => write!(f, "LoadWitnesses[D lookup by target]"),
            PlanStep::RequireWitnesses(k) => write!(f, "RequireWitnesses[n >= {k}]"),
            PlanStep::CapWitnesses(n) => write!(f, "CapWitnesses[{n} most recent]"),
            PlanStep::LoadFollowerLists => write!(f, "LoadFollowerLists[S lookup per witness]"),
            PlanStep::ThresholdCount(k) => {
                write!(f, "ThresholdCount[sorted-list intersection, k = {k}]")
            }
            PlanStep::FilterSelf => write!(f, "FilterSelf"),
            PlanStep::FilterWitnesses => write!(f, "FilterWitnesses"),
            PlanStep::FilterAlreadyFollowing => write!(f, "FilterAlreadyFollowing[S probe]"),
            PlanStep::EmitCandidates => write!(f, "EmitCandidates"),
        }
    }
}

/// An executable motif plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Motif name (from the spec).
    pub name: String,
    /// Recency window of the trigger edge.
    pub window: Duration,
    /// Distinct-witness threshold.
    pub k: usize,
    /// Event kinds the trigger edge accepts (`None` = all insertions).
    pub kinds: Option<Vec<EdgeKind>>,
    /// Operators in execution order.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// Whether an incoming event kind matches the trigger's kind filter.
    /// Unfollows always match when follows do (they retract state).
    pub fn accepts_kind(&self, kind: EdgeKind) -> bool {
        match &self.kinds {
            None => true,
            Some(ks) => {
                if kind == EdgeKind::Unfollow {
                    ks.contains(&EdgeKind::Follow)
                } else {
                    ks.contains(&kind)
                }
            }
        }
    }

    /// Renders the plan in `EXPLAIN` style.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PLAN {} (window = {}, k = {}, kinds = {})",
            self.name,
            self.window,
            self.k,
            match &self.kinds {
                None => "any".to_string(),
                Some(ks) => ks
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            }
        );
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "  {i:>2}. {step}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            name: "diamond".into(),
            window: Duration::from_secs(600),
            k: 3,
            kinds: Some(vec![EdgeKind::Follow]),
            steps: vec![
                PlanStep::IngestDynamic,
                PlanStep::LoadWitnesses,
                PlanStep::RequireWitnesses(3),
                PlanStep::LoadFollowerLists,
                PlanStep::ThresholdCount(3),
                PlanStep::FilterSelf,
                PlanStep::EmitCandidates,
            ],
        }
    }

    #[test]
    fn kind_filter_semantics() {
        let p = plan();
        assert!(p.accepts_kind(EdgeKind::Follow));
        assert!(p.accepts_kind(EdgeKind::Unfollow)); // retracts follows
        assert!(!p.accepts_kind(EdgeKind::Retweet));

        let open = Plan { kinds: None, ..p };
        assert!(open.accepts_kind(EdgeKind::Retweet));
        assert!(open.accepts_kind(EdgeKind::Unfollow));
    }

    #[test]
    fn retweet_only_plan_ignores_unfollow() {
        let p = Plan {
            kinds: Some(vec![EdgeKind::Retweet]),
            ..plan()
        };
        assert!(!p.accepts_kind(EdgeKind::Unfollow));
        assert!(p.accepts_kind(EdgeKind::Retweet));
    }

    #[test]
    fn explain_renders_all_steps() {
        let p = plan();
        let text = p.explain();
        assert!(text.contains("PLAN diamond"));
        assert!(text.contains("window = 600.000s"));
        assert!(text.contains("ThresholdCount"));
        assert_eq!(text.lines().count(), 1 + p.steps.len());
    }
}
