//! Built-in motif programs.
//!
//! The specs the paper names or implies, as ready-to-parse text constants:
//! the production diamond (`k = 3`, follows), the running example
//! (`k = 2`), content co-engagement (retweets/favorites — "the idea applies
//! to recommending content as well"), and a tight-window breaking-news
//! variant.

use crate::exec::MotifEngine;
use crate::parse::parse_motif;
use crate::spec::MotifSpec;
use magicrecs_graph::FollowGraph;
use magicrecs_types::Result;
use std::sync::Arc;

/// The production diamond: k = 3 over follows, 10-minute window.
pub const DIAMOND_PRODUCTION: &str = r#"
# Who-to-follow: k of your followings followed the same account recently.
motif diamond {
    A -> B : static;
    B -> C : dynamic within 600s kinds follow;
    trigger B -> C;
    emit (A, C) when count(B) >= 3;
}
"#;

/// The paper's running example: k = 2.
pub const DIAMOND_EXAMPLE: &str = r#"
motif diamond_example {
    A -> B : static;
    B -> C : dynamic within 600s kinds follow;
    trigger B -> C;
    emit (A, C) when count(B) >= 2;
}
"#;

/// Content co-engagement: k followings retweeted/favorited the same author
/// within five minutes.
pub const CO_ENGAGEMENT: &str = r#"
motif co_engagement {
    A -> B : static;
    B -> C : dynamic within 300s kinds retweet, favorite;
    trigger B -> C;
    emit (A, C) when count(B) >= 2;
}
"#;

/// Breaking news: a tight 60-second window with a higher threshold —
/// fires only on genuine flash crowds.
pub const BREAKING_NEWS: &str = r#"
motif breaking_news {
    A -> B : static;
    B -> C : dynamic within 60s kinds retweet;
    trigger B -> C;
    emit (A, C) when count(B) >= 4;
}
"#;

/// Every built-in spec source, with its name.
pub fn builtin_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("diamond", DIAMOND_PRODUCTION),
        ("diamond_example", DIAMOND_EXAMPLE),
        ("co_engagement", CO_ENGAGEMENT),
        ("breaking_news", BREAKING_NEWS),
    ]
}

/// Parses every built-in spec.
pub fn builtin_specs() -> Result<Vec<MotifSpec>> {
    builtin_sources()
        .into_iter()
        .map(|(_, src)| parse_motif(src))
        .collect()
}

/// Builds an engine for each built-in motif over the shared graph.
pub fn builtin_engines(graph: Arc<FollowGraph>) -> Result<Vec<MotifEngine>> {
    builtin_sources()
        .into_iter()
        .map(|(_, src)| MotifEngine::from_text(src, Arc::clone(&graph)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_motif;
    use magicrecs_graph::GraphBuilder;
    use magicrecs_types::UserId;

    #[test]
    fn all_builtins_parse_and_plan() {
        let specs = builtin_specs().unwrap();
        assert_eq!(specs.len(), 4);
        for spec in &specs {
            let plan = plan_motif(spec).unwrap();
            assert_eq!(plan.config.k, spec.emit.min_count, "{}", spec.name);
        }
    }

    #[test]
    fn builtin_parameters_match_paper() {
        let specs = builtin_specs().unwrap();
        let diamond = specs.iter().find(|s| s.name == "diamond").unwrap();
        assert_eq!(diamond.emit.min_count, 3); // production k
        let example = specs.iter().find(|s| s.name == "diamond_example").unwrap();
        assert_eq!(example.emit.min_count, 2); // running example k
    }

    #[test]
    fn builtin_engines_construct() {
        let mut b = GraphBuilder::new();
        b.add_edge(UserId(1), UserId(2));
        let engines = builtin_engines(Arc::new(b.build())).unwrap();
        assert_eq!(engines.len(), 4);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"diamond"));
        assert!(names.contains(&"breaking_news"));
    }
}
