//! Stage-latency decomposition: one histogram per pipeline stage plus
//! true end-to-end, so an unattributable tail latency decomposes into
//! queueing vs. work.
//!
//! The serving path stamps a batch once at ingest and records elapsed
//! µs into each stage's histogram as the batch crosses stage
//! boundaries: admission control → WAL group commit → motif detection →
//! candidate delivery. `EndToEnd` covers ingest-receipt to
//! delivery-complete on the server; client-observed latency minus the
//! server stages is queueing, which the end-to-end benchmark reports as
//! `server.queue_wait_ms`. The server crate's `tests/stages.rs` checks that
//! the admitted batches' stage sums account for their end-to-end sum.

use crate::registry::{Histogram, Registry};
use std::sync::OnceLock;
use std::time::Instant;

/// A pipeline stage with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Admission-control decision (gate checks on an ingest batch).
    Admission,
    /// WAL append + group commit, when persistence is enabled.
    Wal,
    /// Motif detection (`on_events_into`) over the admitted batch.
    Detect,
    /// Candidate encode + fanout to delivery connections.
    Deliver,
    /// Ingest receipt to delivery complete — the true server-side
    /// end-to-end, measured independently rather than summed.
    EndToEnd,
}

/// Every stage, in pipeline order.
pub const ALL_STAGES: [Stage; 5] = [
    Stage::Admission,
    Stage::Wal,
    Stage::Detect,
    Stage::Deliver,
    Stage::EndToEnd,
];

impl Stage {
    /// The registry metric name for this stage's histogram.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Admission => "stage_admission_us",
            Stage::Wal => "stage_wal_us",
            Stage::Detect => "stage_detect_us",
            Stage::Deliver => "stage_deliver_us",
            Stage::EndToEnd => "stage_e2e_us",
        }
    }
}

/// Handles to the five stage histograms on one registry.
#[derive(Clone)]
pub struct Stages {
    hists: [Histogram; 5],
}

impl Stages {
    /// Registers (or re-fetches) the stage histograms on `registry`.
    pub fn register(registry: &Registry) -> Stages {
        Stages {
            hists: ALL_STAGES.map(|s| registry.histogram(s.metric_name())),
        }
    }

    /// The histogram for `stage`.
    pub fn hist(&self, stage: Stage) -> &Histogram {
        &self.hists[ALL_STAGES.iter().position(|&s| s == stage).unwrap()]
    }

    /// Records `elapsed_us` against `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, elapsed_us: u64) {
        self.hist(stage).record(elapsed_us);
    }

    /// Records the time since `since` against `stage` and returns the
    /// elapsed µs (handy for chaining boundary stamps).
    #[inline]
    pub fn record_since(&self, stage: Stage, since: Instant) -> u64 {
        let us = since.elapsed().as_micros() as u64;
        self.record(stage, us);
        us
    }
}

/// The stage histograms on the [global registry](crate::registry::global)
/// — what the serving path records into and `MetricsResp` exports.
pub fn global_stages() -> &'static Stages {
    static STAGES: OnceLock<Stages> = OnceLock::new();
    STAGES.get_or_init(|| Stages::register(crate::registry::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_into_named_histograms() {
        let r = Registry::new();
        let stages = Stages::register(&r);
        stages.record(Stage::Detect, 42);
        stages.record(Stage::EndToEnd, 99);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        for s in ALL_STAGES {
            assert!(names.contains(&s.metric_name()), "missing {s:?}");
        }
        assert_eq!(stages.hist(Stage::Detect).snapshot().count(), 1);
        assert_eq!(stages.hist(Stage::Admission).snapshot().count(), 0);
    }

    #[test]
    fn register_twice_shares_histograms() {
        let r = Registry::new();
        let a = Stages::register(&r);
        let b = Stages::register(&r);
        a.record(Stage::Wal, 7);
        assert_eq!(b.hist(Stage::Wal).snapshot().count(), 1);
    }
}
