//! Replication-plane metrics, registered on the process-global
//! [`magicrecs_obs`] registry so they ride the existing `MetricsResp`
//! scrape and flight-recorder dumps.
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `replica_promotions` | counter | follower → leader role flips taken |
//! | `replica_demotions` | counter | leader → follower fences taken |
//! | `replica_refused_writes` | counter | `WrongLeader` refusals sent |
//! | `replica_ingest_batches` | counter | ingest batches applied as leader |
//! | `replica_dup_batches` | counter | re-sent batches absorbed by seq dedup |
//! | `replica_tail_rounds` | counter | follower long-poll + fetch rounds |
//! | `replica_bootstrap_files` | counter | state files shipped for rebalance |
//! | `replica_lag_events` | gauge | leader durable − local applied (events) |

use magicrecs_obs::{global, Counter, Gauge};

/// Handles to every replication metric (cheap to construct; the
/// registry interns by name).
pub struct ReplicaMetrics {
    /// Follower → leader role flips taken by this process.
    pub promotions: Counter,
    /// Leader → follower fences taken by this process.
    pub demotions: Counter,
    /// `WrongLeader` refusals sent (stale epoch or not leading).
    pub refused_writes: Counter,
    /// Ingest batches applied while leading.
    pub ingest_batches: Counter,
    /// Re-sent batches fully absorbed by the seq dedup window.
    pub dup_batches: Counter,
    /// Follower tail-loop rounds (catalog long-poll + fetch sweep).
    pub tail_rounds: Counter,
    /// State files shipped while bootstrapping a rebalance target.
    pub bootstrap_files: Counter,
    /// Replication lag in events: source durable − local applied.
    pub lag_events: Gauge,
}

/// Fetches the replication metric handles from the global registry.
pub fn replica_metrics() -> ReplicaMetrics {
    let r = global();
    ReplicaMetrics {
        promotions: r.counter("replica_promotions"),
        demotions: r.counter("replica_demotions"),
        refused_writes: r.counter("replica_refused_writes"),
        ingest_batches: r.counter("replica_ingest_batches"),
        dup_batches: r.counter("replica_dup_batches"),
        tail_rounds: r.counter("replica_tail_rounds"),
        bootstrap_files: r.counter("replica_bootstrap_files"),
        lag_events: r.gauge("replica_lag_events"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_and_scrape() {
        let m = replica_metrics();
        m.promotions.incr();
        m.lag_events.set(17);
        let snap = magicrecs_obs::export::flatten(&global().snapshot());
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert!(get("replica_promotions").unwrap() >= 1);
        assert_eq!(get("replica_lag_events"), Some(17));
    }
}
