//! # magicrecs-motif
//!
//! The paper's concluding vision (§3), built: "we envision the development
//! of a generalized framework where one can declaratively specify a motif,
//! which would yield an optimized query plan against an online graph
//! database. This would seem to represent an entirely new class of data
//! management systems."
//!
//! Pipeline: **text spec → AST → validated plan → online engine**.
//!
//! ```text
//! motif diamond {
//!     A -> B : static;
//!     B -> C : dynamic within 600s kinds follow;
//!     trigger B -> C;
//!     emit (A, C) when count(B) >= 3;
//! }
//! ```
//!
//! * [`spec`] — the AST ([`MotifSpec`]) and its structural validation.
//! * [`parse`] — a hand-rolled recursive-descent parser with line/column
//!   errors (no parser dependencies).
//! * [`plan`] — the physical plan: the detector configuration the spec
//!   compiles to, the trigger's kind filter, and an `EXPLAIN`-style
//!   renderer of the operators they select.
//! * [`planner`] — compiles specs in the *diamond family* (one static
//!   fan-in joined against one windowed dynamic fan-in) to plans: window
//!   → `tau`, `count(B) >= k` → `k`, witness cap → `max_witnesses`,
//!   `allow existing` → `!skip_existing`. Anything outside the family is
//!   rejected with a diagnostic, documenting the current planner's
//!   frontier exactly as a young query engine would.
//! * [`exec`] — [`MotifEngine`] runs a plan on the online engine
//!   ([`magicrecs_core::ConcurrentEngine`]) behind the plan's kind filter,
//!   so declarative and hand-coded detection are one code path;
//!   [`MotifSuite`] runs several motif programs, each with its own `D`,
//!   over one shared graph, the paper's "additional programs that use the
//!   graph infrastructure".
//! * [`library`] — built-in specs: the production diamond, the k=2 example,
//!   content co-engagement, and a celebrity-burst variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod library;
pub mod parse;
pub mod plan;
pub mod planner;
pub mod spec;

pub use exec::{MotifEngine, MotifSuite};
pub use parse::parse_motif;
pub use plan::Plan;
pub use planner::plan_motif;
pub use spec::{EdgeDecl, EmitDecl, Layer, MotifSpec};
