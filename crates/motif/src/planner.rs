//! The planner: compiles a validated spec into an executable plan.
//!
//! The current planner covers the **diamond family**: motifs of the shape
//!
//! ```text
//! U -> W : static;              (any variable names)
//! W -> T : dynamic within τ;
//! trigger W -> T;
//! emit (U, T) when count(W) >= k;
//! ```
//!
//! i.e. one static fan-in joined against one windowed dynamic fan-in. This
//! is exactly the class the paper's production system runs, generalized
//! over `k`, `τ`, and event kinds. Specs outside the family (extra edges,
//! longer paths, emitting a witness) are rejected with a diagnostic naming
//! the unsupported feature — the honest frontier of a young query planner.
//!
//! A plannable spec compiles to the online detector's own parameters
//! ([`DetectorConfig`]): the trigger window becomes `tau`, `count(W) >= k`
//! becomes `k`, the witness cap (default: the production detector's)
//! becomes `max_witnesses`, and `allow existing` clears `skip_existing`.
//! Parameters the detector refuses (`k < 2`, a zero window) are rejected
//! here with its diagnostic.

use crate::plan::Plan;
use crate::spec::{Layer, MotifSpec};
use magicrecs_types::{DetectorConfig, Error, Result};

/// Compiles `spec` into a [`Plan`].
pub fn plan_motif(spec: &MotifSpec) -> Result<Plan> {
    spec.validate()?;

    // The trigger edge gives (W, T) and the window/kind filter.
    let trigger = spec.trigger_edge().expect("validated");
    let (witness_var, target_var) = (&trigger.src, &trigger.dst);
    let Layer::Dynamic { window } = trigger.layer else {
        unreachable!("validated: trigger is dynamic")
    };

    // Emit clause must be (U, T) counting W.
    if &spec.emit.target != target_var {
        return Err(Error::MotifPlan(format!(
            "unsupported: emit target `{}` must be the trigger destination `{}`",
            spec.emit.target, target_var
        )));
    }
    if &spec.emit.witness != witness_var {
        return Err(Error::MotifPlan(format!(
            "unsupported: count variable `{}` must be the trigger source `{}`",
            spec.emit.witness, witness_var
        )));
    }
    if &spec.emit.user == witness_var || &spec.emit.user == target_var {
        return Err(Error::MotifPlan(
            "unsupported: emit user must be a distinct role joined via a static edge".into(),
        ));
    }

    // Exactly one static edge U -> W; no other edges beyond the trigger.
    let mut static_edges = spec
        .edges
        .iter()
        .filter(|e| matches!(e.layer, Layer::Static));
    let static_edge = static_edges.next().ok_or_else(|| {
        Error::MotifPlan("unsupported: no static edge joins the user to the witnesses".into())
    })?;
    if static_edges.next().is_some() {
        return Err(Error::MotifPlan(
            "unsupported: multiple static edges (multi-hop joins not yet planned)".into(),
        ));
    }
    if spec
        .edges
        .iter()
        .filter(|e| matches!(e.layer, Layer::Dynamic { .. }))
        .count()
        > 1
    {
        return Err(Error::MotifPlan(
            "unsupported: multiple dynamic edges (multi-stream joins not yet planned)".into(),
        ));
    }
    if static_edge.src != spec.emit.user || &static_edge.dst != witness_var {
        return Err(Error::MotifPlan(format!(
            "unsupported: static edge must be `{} -> {}` to join the emit user to witnesses",
            spec.emit.user, witness_var
        )));
    }

    let k = spec.emit.min_count;
    let cap = spec
        .witness_cap
        .or(DetectorConfig::production().max_witnesses)
        .map(|cap| cap.max(k));
    let config = DetectorConfig {
        k,
        tau: window,
        max_witnesses: cap,
        max_candidates_per_event: None,
        skip_existing: !spec.allow_existing,
    };
    config
        .validate()
        .map_err(|e| Error::MotifPlan(format!("unsupported by the online detector: {e}")))?;
    Ok(Plan {
        name: spec.name.clone(),
        kinds: trigger.kinds.clone(),
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_motif;

    fn diamond_src(k: usize) -> String {
        format!(
            "motif diamond {{ A -> B : static; B -> C : dynamic within 600s; \
             trigger B -> C; emit (A, C) when count(B) >= {k}; }}"
        )
    }

    #[test]
    fn plans_the_diamond() {
        let spec = parse_motif(&diamond_src(3)).unwrap();
        let plan = plan_motif(&spec).unwrap();
        assert_eq!(
            plan.config,
            DetectorConfig {
                k: 3,
                tau: magicrecs_types::Duration::from_secs(600),
                ..DetectorConfig::production()
            }
        );
    }

    #[test]
    fn arbitrary_variable_names_accepted() {
        let spec = parse_motif(
            "motif m { user -> influencer : static; influencer -> account : dynamic; \
             trigger influencer -> account; \
             emit (user, account) when count(influencer) >= 2; }",
        )
        .unwrap();
        assert!(plan_motif(&spec).is_ok());
    }

    #[test]
    fn emit_target_must_be_trigger_destination() {
        let spec = parse_motif(
            "motif m { A -> B : static; B -> C : dynamic; trigger B -> C; \
             emit (A, B) when count(B) >= 2; }",
        )
        .unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("emit target"), "{err}");
    }

    #[test]
    fn count_variable_must_be_trigger_source() {
        let spec = parse_motif(
            "motif m { A -> B : static; B -> C : dynamic; trigger B -> C; \
             emit (A, C) when count(A) >= 2; }",
        )
        .unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("count variable"), "{err}");
    }

    #[test]
    fn multi_hop_static_rejected_with_diagnostic() {
        let spec = parse_motif(
            "motif deep { A -> X : static; X -> B : static; B -> C : dynamic; \
             trigger B -> C; emit (A, C) when count(B) >= 2; }",
        )
        .unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("multiple static"), "{err}");
    }

    #[test]
    fn multi_stream_rejected_with_diagnostic() {
        let spec = parse_motif(
            "motif two { A -> B : static; B -> C : dynamic; B -> D : dynamic; \
             trigger B -> C; emit (A, C) when count(B) >= 2; }",
        )
        .unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("multiple dynamic"), "{err}");
    }

    #[test]
    fn static_edge_must_join_user_to_witness() {
        let spec = parse_motif(
            "motif bad { B -> A : static; B -> C : dynamic; trigger B -> C; \
             emit (A, C) when count(B) >= 2; }",
        )
        .unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("static edge must be"), "{err}");
    }

    #[test]
    fn witness_cap_at_least_k() {
        let spec = parse_motif(&diamond_src(100)).unwrap();
        let plan = plan_motif(&spec).unwrap();
        assert_eq!(plan.config.max_witnesses, Some(100));
    }

    #[test]
    fn cap_clause_overrides_default() {
        let spec = parse_motif(
            "motif m { A -> B : static; B -> C : dynamic; trigger B -> C; \
             emit (A, C) when count(B) >= 2; cap witnesses 8; }",
        )
        .unwrap();
        let plan = plan_motif(&spec).unwrap();
        assert_eq!(plan.config.max_witnesses, Some(8));
    }

    #[test]
    fn allow_existing_drops_filters() {
        let spec = parse_motif(
            "motif m { A -> B : static; B -> C : dynamic; trigger B -> C; \
             emit (A, C) when count(B) >= 2; allow existing; }",
        )
        .unwrap();
        let plan = plan_motif(&spec).unwrap();
        assert!(!plan.config.skip_existing);
        assert!(!plan.explain().contains("FilterWitnesses"));
    }

    #[test]
    fn parameters_the_detector_refuses_are_rejected() {
        let spec = parse_motif(&diamond_src(1)).unwrap();
        let err = plan_motif(&spec).unwrap_err();
        assert!(err.to_string().contains("k must be at least 2"), "{err}");
    }

    #[test]
    fn kind_filter_propagates() {
        let spec = parse_motif(
            "motif co { A -> B : static; B -> C : dynamic kinds retweet, favorite; \
             trigger B -> C; emit (A, C) when count(B) >= 2; }",
        )
        .unwrap();
        let plan = plan_motif(&spec).unwrap();
        assert_eq!(
            plan.kinds,
            Some(vec![
                magicrecs_types::EdgeKind::Retweet,
                magicrecs_types::EdgeKind::Favorite
            ])
        );
    }
}
