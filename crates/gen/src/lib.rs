//! # magicrecs-gen
//!
//! Synthetic-workload substrate. The paper evaluates on the real Twitter
//! follow graph (O(10⁸) vertices, O(10¹⁰) edges) and its live edge-creation
//! firehose — neither of which ships with a reproduction. This crate builds
//! the closest synthetic equivalents:
//!
//! * [`zipf::Zipf`] — a deterministic Zipf(α) sampler (inverse-CDF table),
//!   the building block for heavy-tailed popularity and activity.
//! * [`graph_gen::GraphGen`] — follow-graph generator whose in-degree
//!   (popularity) and out-degree (following count) distributions follow the
//!   power-law shapes reported for the real graph (Myers et al., WWW'14):
//!   most accounts have few followers, a tiny head has millions.
//! * [`arrivals::PoissonProcess`] — edge-creation arrival times at a target
//!   rate (the paper's design point is 10⁴ insertions/sec), with optional
//!   burst modulation.
//! * [`scenario`] — full event traces: steady-state background follows plus
//!   the motif-rich episodes that make recommendations fire (a celebrity
//!   joining, breaking news rippling through a community).
//! * [`adversity`] — declarative adversity specs: background traffic plus
//!   scheduled flash crowds, churn storms, and rate bursts, with
//!   engine-agnostic crash/fault injection points for robustness
//!   experiments.
//! * [`playback`] — the deterministic scenario-playback loop used by
//!   robustness experiments: it feeds a trace into a fallible sink and
//!   yields control at scheduled breakpoints (crash here, arm faults
//!   there).
//!
//! Everything takes an explicit seed; identical seeds give identical
//! workloads on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversity;
pub mod arrivals;
pub mod graph_gen;
pub mod playback;
pub mod scenario;
pub mod zipf;

pub use adversity::{AdversitySpec, Episode, Injection};
pub use arrivals::PoissonProcess;
pub use graph_gen::{GraphGen, GraphGenConfig};
pub use scenario::{Scenario, ScenarioConfig, Trace};
pub use zipf::Zipf;
