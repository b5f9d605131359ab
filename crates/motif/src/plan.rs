//! Physical plans: the online detector configuration a spec compiles to,
//! plus an `EXPLAIN`-style renderer.
//!
//! The planner compiles a [`crate::MotifSpec`] into a [`Plan`]. Every
//! diamond-family motif shares one operator pipeline — the one
//! [`magicrecs_core::ConcurrentEngine`] runs — so a plan is that
//! pipeline's parameters ([`DetectorConfig`]) and the trigger's kind
//! filter; [`Plan::explain`] lists the operators those parameters select.

use magicrecs_types::{DetectorConfig, EdgeKind};

/// An executable motif plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Motif name (from the spec).
    pub name: String,
    /// Event kinds the trigger edge accepts (`None` = all insertions).
    pub kinds: Option<Vec<EdgeKind>>,
    /// The detector parameters: trigger window → `tau`, `count(W) >= k`
    /// → `k`, witness cap → `max_witnesses`, `allow existing` →
    /// `!skip_existing`.
    pub config: DetectorConfig,
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

    /// The operators the engine runs per accepted event, in order.
    fn operators(&self) -> Vec<String> {
        let c = &self.config;
        let mut ops = vec![
            "IngestDynamic[D.insert/remove]".to_string(),
            "LoadWitnesses[D lookup by target]".to_string(),
            format!("RequireWitnesses[n >= {}]", c.k),
        ];
        if let Some(cap) = c.max_witnesses {
            ops.push(format!("CapWitnesses[{cap} most recent]"));
        }
        ops.push("LoadFollowerLists[S lookup per witness]".to_string());
        ops.push(format!(
            "ThresholdCount[sorted-list intersection, k = {}]",
            c.k
        ));
        ops.push("FilterSelf".to_string());
        if c.skip_existing {
            ops.push("FilterWitnesses".to_string());
            ops.push("FilterAlreadyFollowing[S probe]".to_string());
        }
        ops.push("EmitCandidates".to_string());
        ops
    }

    /// Renders the plan in `EXPLAIN` style.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PLAN {} (window = {}, k = {}, kinds = {})",
            self.name,
            self.config.tau,
            self.config.k,
            match &self.kinds {
                None => "any".to_string(),
                Some(ks) => ks
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            }
        );
        for (i, op) in self.operators().iter().enumerate() {
            let _ = writeln!(out, "  {i:>2}. {op}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_types::Duration;

    fn plan() -> Plan {
        Plan {
            name: "diamond".into(),
            kinds: Some(vec![EdgeKind::Follow]),
            config: DetectorConfig {
                k: 3,
                tau: Duration::from_secs(600),
                max_witnesses: None,
                max_candidates_per_event: None,
                skip_existing: false,
            },
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
        assert!(!text.contains("CapWitnesses"));
        assert!(!text.contains("FilterWitnesses"));
        assert_eq!(text.lines().count(), 1 + 7);

        // A witness cap and `skip_existing` each add their operators.
        let mut full = plan();
        full.config.max_witnesses = Some(64);
        full.config.skip_existing = true;
        let text = full.explain();
        assert!(text.contains("CapWitnesses[64 most recent]"));
        assert!(text.contains("FilterAlreadyFollowing"));
        assert_eq!(text.lines().count(), 1 + 10);
    }
}
