//! Plan execution on the online engine.
//!
//! A diamond-family plan is a [`magicrecs_types::DetectorConfig`], so
//! [`MotifEngine`] runs it on the same [`ConcurrentEngine`] that serves
//! the hand-coded detector: the plan's kind filter sits in front, and
//! everything after it — the `D` upsert, witness fetch and cap, the delta
//! threshold, the filters and emission — is the engine's. A declarative
//! motif therefore emits exactly what the hand-coded detector with the
//! same parameters emits, by construction. Each program keeps its own `D`
//! (different motifs have different windows and kind filters, matching
//! the paper's "additional programs that use the graph infrastructure,
//! which may need to be augmented to include other data structures") over
//! a shared `S`.
//!
//! [`MotifSuite`] runs several programs over one shared graph — the
//! multi-motif deployment §3 envisions.

use crate::plan::Plan;
use crate::planner::plan_motif;
use crate::spec::MotifSpec;
use magicrecs_core::ConcurrentEngine;
use magicrecs_graph::FollowGraph;
use magicrecs_types::{Candidate, EdgeEvent, Result, Timestamp};
use std::sync::Arc;

/// An executable motif program: the plan's kind filter in front of an
/// engine with its own dynamic store.
#[derive(Debug)]
pub struct MotifEngine {
    plan: Plan,
    engine: ConcurrentEngine,
}

impl MotifEngine {
    /// Compiles `spec` and binds it to the shared graph.
    pub fn new(spec: &MotifSpec, graph: Arc<FollowGraph>) -> Result<Self> {
        let plan = plan_motif(spec)?;
        let engine = ConcurrentEngine::new(graph, plan.config)?;
        Ok(MotifEngine { plan, engine })
    }

    /// Parses, compiles, and binds a textual spec in one step.
    pub fn from_text(src: &str, graph: Arc<FollowGraph>) -> Result<Self> {
        let spec = crate::parse::parse_motif(src)?;
        MotifEngine::new(&spec, graph)
    }

    /// The compiled plan (for `EXPLAIN`).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Motif name.
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Events this program accepted (post kind filter).
    pub fn events_processed(&self) -> u64 {
        self.engine.stats().events
    }

    /// Candidates emitted.
    pub fn candidates_emitted(&self) -> u64 {
        self.engine.stats().candidates
    }

    /// Runs one event through the kind filter and, if accepted, the
    /// engine.
    pub fn on_event(&self, event: EdgeEvent) -> Vec<Candidate> {
        if !self.plan.accepts_kind(event.kind) {
            return Vec::new();
        }
        self.engine.on_event(event)
    }

    /// Forces dynamic-store expiry.
    pub fn advance(&self, now: Timestamp) {
        self.engine.advance(now);
    }

    /// The engine running this program (its store, stats and metrics).
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }
}

/// Several motif programs sharing one static graph.
#[derive(Debug, Default)]
pub struct MotifSuite {
    engines: Vec<MotifEngine>,
}

impl MotifSuite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        MotifSuite {
            engines: Vec::new(),
        }
    }

    /// Registers a program.
    pub fn register(&mut self, engine: MotifEngine) -> &mut Self {
        self.engines.push(engine);
        self
    }

    /// Registers a program from spec text.
    pub fn register_text(&mut self, src: &str, graph: Arc<FollowGraph>) -> Result<&mut Self> {
        self.engines.push(MotifEngine::from_text(src, graph)?);
        Ok(self)
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Feeds one event to every program, returning `(motif name,
    /// candidate)` pairs in registration order.
    pub fn on_event(&self, event: EdgeEvent) -> Vec<(String, Candidate)> {
        let mut out = Vec::new();
        for engine in &self.engines {
            for c in engine.on_event(event) {
                out.push((engine.name().to_string(), c));
            }
        }
        out
    }

    /// The registered programs.
    pub fn engines(&self) -> &[MotifEngine] {
        &self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::{Duration, EdgeKind, UserId};

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn figure1() -> Arc<FollowGraph> {
        let mut g = GraphBuilder::new();
        g.extend([(u(1), u(11)), (u(2), u(11)), (u(2), u(12)), (u(3), u(12))]);
        Arc::new(g.build())
    }

    const DIAMOND2: &str = "motif diamond2 { A -> B : static; B -> C : dynamic within 600s; \
                            trigger B -> C; emit (A, C) when count(B) >= 2; }";

    #[test]
    fn declarative_diamond_reproduces_figure1() {
        let m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        assert!(m
            .on_event(EdgeEvent::follow(u(11), u(22), ts(10)))
            .is_empty());
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
        assert_eq!(r[0].witnesses, vec![u(11), u(12)]);
        assert_eq!(m.events_processed(), 2);
        assert_eq!(m.candidates_emitted(), 1);
    }

    #[test]
    fn declarative_equals_handcoded_detector() {
        use magicrecs_core::ConcurrentEngine;
        use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig};
        use magicrecs_types::DetectorConfig;

        let g = GraphGen::new(GraphGenConfig::small()).generate();
        let trace = Scenario::steady(
            1_000,
            ScenarioConfig::small().with_duration(Duration::from_secs(15)),
        );
        // Hand-coded engine with matching parameters (cap 64 = planner's
        // default witness cap). Equal by construction — the plan runs on a
        // `ConcurrentEngine` — so this pins the spec → config compilation.
        let cfg = DetectorConfig {
            k: 2,
            tau: Duration::from_secs(600),
            max_witnesses: Some(64),
            max_candidates_per_event: None,
            skip_existing: true,
        };
        let engine = ConcurrentEngine::new(g.clone(), cfg).unwrap();
        let expected: Vec<Candidate> = engine.on_events(trace.events());

        let declarative = MotifEngine::from_text(
            "motif d { A -> B : static; B -> C : dynamic within 600s; \
             trigger B -> C; emit (A, C) when count(B) >= 2; }",
            Arc::new(g),
        )
        .unwrap();
        let mut got = Vec::new();
        for &e in trace.events() {
            got.extend(declarative.on_event(e));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn kind_filtered_motif_ignores_follows() {
        let src = "motif co { A -> B : static; B -> C : dynamic within 600s kinds retweet; \
                   trigger B -> C; emit (A, C) when count(B) >= 2; }";
        let m = MotifEngine::from_text(src, figure1()).unwrap();
        // Plain follows do not feed this motif.
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert!(r.is_empty());
        assert_eq!(m.events_processed(), 0);
        // Retweets do.
        let rt = |src: u64, at: u64| EdgeEvent {
            src: u(src),
            dst: u(22),
            created_at: ts(at),
            kind: EdgeKind::Retweet,
        };
        m.on_event(rt(11, 30));
        let r = m.on_event(rt(12, 35));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].user, u(2));
    }

    #[test]
    fn unfollow_retracts_in_declarative_engine() {
        let m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        m.on_event(EdgeEvent::unfollow(u(11), u(22), ts(15)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert!(r.is_empty());
    }

    #[test]
    fn window_respected() {
        let src = "motif fast { A -> B : static; B -> C : dynamic within 30s; \
                   trigger B -> C; emit (A, C) when count(B) >= 2; }";
        let m = MotifEngine::from_text(src, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let r = m.on_event(EdgeEvent::follow(u(12), u(22), ts(45)));
        assert!(r.is_empty(), "35s gap must exceed the 30s window");
    }

    #[test]
    fn suite_runs_multiple_programs() {
        let g = figure1();
        let mut suite = MotifSuite::new();
        suite.register_text(DIAMOND2, Arc::clone(&g)).unwrap();
        suite
            .register_text(
                "motif co { A -> B : static; B -> C : dynamic within 600s kinds retweet; \
                 trigger B -> C; emit (A, C) when count(B) >= 2; }",
                Arc::clone(&g),
            )
            .unwrap();
        assert_eq!(suite.len(), 2);

        // A follow pair fires only the diamond.
        suite.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        let fired = suite.on_event(EdgeEvent::follow(u(12), u(22), ts(20)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, "diamond2");

        // A retweet pair fires only the co-engagement motif (diamond's D
        // already has the follows, but retweets also count for it — both
        // may fire; check co fires at all).
        let rt = |src: u64, at: u64| EdgeEvent {
            src: u(src),
            dst: u(33),
            created_at: ts(at),
            kind: EdgeKind::Retweet,
        };
        suite.on_event(rt(11, 30));
        let fired = suite.on_event(rt(12, 35));
        let names: Vec<&str> = fired.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"co"), "{names:?}");
    }

    #[test]
    fn explain_is_available_through_engine() {
        let m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        let text = m.plan().explain();
        assert!(text.contains("PLAN diamond2"));
        assert!(text.contains("EmitCandidates"));
    }

    #[test]
    fn advance_prunes_private_store() {
        let m = MotifEngine::from_text(DIAMOND2, figure1()).unwrap();
        m.on_event(EdgeEvent::follow(u(11), u(22), ts(10)));
        assert!(m.engine().store().resident_entries() > 0);
        m.advance(ts(100_000));
        assert_eq!(m.engine().store().resident_entries(), 0);
    }
}
