//! Shared fixtures for the benches and the experiments harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use magicrecs_gen::{GraphGen, GraphGenConfig, Scenario, ScenarioConfig, Trace};
use magicrecs_graph::FollowGraph;
use magicrecs_types::{DetectorConfig, Duration, Timestamp};

/// Standard bench graph: 20k users, Twitter-shaped degrees, fixed seed.
pub fn bench_graph() -> FollowGraph {
    GraphGen::new(GraphGenConfig {
        users: 20_000,
        mean_out_degree: 30.0,
        max_out_degree: 500,
        popularity_alpha: 1.0,
        activity_alpha: 0.6,
        seed: 0xBEEF,
    })
    .generate()
}

/// Smaller graph for quick experiment runs.
pub fn small_graph(users: u64) -> FollowGraph {
    GraphGen::new(GraphGenConfig {
        users,
        mean_out_degree: 25.0,
        max_out_degree: 300,
        popularity_alpha: 1.0,
        activity_alpha: 0.6,
        seed: 0xBEEF,
    })
    .generate()
}

/// Standard bench trace over `users` accounts at `rate` events/sec for
/// `secs` simulated seconds (noon start to stay clear of quiet hours).
pub fn bench_trace(users: u64, rate: f64, secs: u64, seed: u64) -> Trace {
    Scenario::steady(
        users,
        ScenarioConfig {
            rate_per_sec: rate,
            duration: Duration::from_secs(secs),
            start: Timestamp::from_secs(12 * 3600),
            popularity_alpha: 1.0,
            seed,
        },
    )
}

/// The detector configuration used by throughput measurements: production
/// k and witness cap, so hot targets stay bounded.
pub fn bench_detector_config() -> DetectorConfig {
    DetectorConfig::production()
}

/// Renders a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown table header (with separator line).
pub fn header(cells: &[&str]) -> String {
    format!(
        "| {} |\n|{}|",
        cells.join(" | "),
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    )
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Formats an events/sec rate.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

/// The engine and serving counters a served run reports, projected from
/// one flattened `MetricsReq` registry scrape.
#[derive(Debug, Clone, Copy)]
pub struct ServedStats {
    /// Events processed by the engine (`engine_events`).
    pub events: u64,
    /// Candidates emitted, pre-funnel (`engine_candidates`).
    pub candidates: u64,
    /// Ingest events admitted by the serving tier (`engine_accepted`).
    pub accepted: u64,
    /// Ingest events refused with a typed shed (`engine_shed`).
    pub shed: u64,
    /// Deliveries dropped at a full subscriber write queue
    /// (`server_dropped_deliveries`).
    pub dropped_deliveries: u64,
}

impl ServedStats {
    /// Reads the counters out of a scrape; panics naming the first
    /// metric the scrape lacks.
    pub fn from_metrics(metrics: &[(String, u64)]) -> ServedStats {
        let get = |name: &str| -> u64 {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("scrape missing {name}"))
                .1
        };
        ServedStats {
            events: get("engine_events"),
            candidates: get("engine_candidates"),
            accepted: get("engine_accepted"),
            shed: get("engine_shed"),
            dropped_deliveries: get("server_dropped_deliveries"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let g = small_graph(500);
        assert!(g.num_follow_edges() > 1_000);
        let t = bench_trace(500, 50.0, 10, 1);
        assert!(t.len() > 100);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_bytes(5 << 20).contains("MiB"));
        assert!(fmt_bytes(3 << 30).contains("GiB"));
        assert_eq!(fmt_rate(500.0), "500/s");
        assert_eq!(fmt_rate(12_000.0), "12.0k/s");
        assert_eq!(fmt_rate(2.5e6), "2.50M/s");
        assert!(header(&["a", "b"]).contains("|---|---|"));
        assert_eq!(row(&["x".into(), "y".into()]), "| x | y |");
    }
}
