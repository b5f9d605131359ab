//! Configuration for the detector and the cluster.
//!
//! Defaults follow the paper: `k = 3` in production (`k = 2` in the running
//! example), 20 partitions, and a recency window on the order of minutes
//! ("we desire timely results" — the paper leaves τ tunable).

use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// Parameters of the diamond-motif detector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Minimum number of distinct `B`s that must act on the same `C` within
    /// the window for a recommendation to fire. The paper uses `k = 2` in
    /// its example and `k = 3` in production.
    pub k: usize,
    /// Recency window τ: only `B → C` edges created within the last τ count
    /// as temporally correlated.
    pub tau: Duration,
    /// Hard cap on how many witnesses a single detection enumerates; very
    /// hot `C`s (a celebrity joining) can accumulate thousands of in-window
    /// followers, and intersecting all of their follower lists is wasted
    /// work past the first few. `None` means unlimited.
    pub max_witnesses: Option<usize>,
    /// Cap on candidates emitted per event, keeping worst-case event cost
    /// bounded. `None` means unlimited.
    pub max_candidates_per_event: Option<usize>,
    /// Skip candidates that already follow the recommended account (in the
    /// static graph) or that are themselves motif witnesses — they already
    /// know about `C`. Production behaviour; disable to observe raw motif
    /// counts.
    pub skip_existing: bool,
}

impl DetectorConfig {
    /// The paper's production setting: `k = 3`.
    pub fn production() -> Self {
        DetectorConfig {
            k: 3,
            tau: Duration::from_mins(10),
            max_witnesses: Some(64),
            max_candidates_per_event: None,
            skip_existing: true,
        }
    }

    /// The paper's running example: `k = 2`.
    pub fn example() -> Self {
        DetectorConfig {
            k: 2,
            tau: Duration::from_mins(10),
            max_witnesses: None,
            max_candidates_per_event: None,
            skip_existing: true,
        }
    }

    /// Returns a copy with a different `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with a different window.
    pub fn with_tau(mut self, tau: Duration) -> Self {
        self.tau = tau;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.k < 2 {
            return Err(crate::error::Error::InvalidConfig(
                "k must be at least 2 (a single follow is not a correlation)".into(),
            ));
        }
        if self.tau == Duration::ZERO {
            return Err(crate::error::Error::InvalidConfig(
                "tau must be positive".into(),
            ));
        }
        if let Some(m) = self.max_witnesses {
            if m < self.k {
                return Err(crate::error::Error::InvalidConfig(format!(
                    "max_witnesses ({m}) must be >= k ({})",
                    self.k
                )));
            }
        }
        Ok(())
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::production()
    }
}

/// Parameters of the partitioned deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of partitions of the `A` vertex set (the paper runs 20).
    pub partitions: u32,
}

impl ClusterConfig {
    /// The paper's deployment shape: 20 partitions.
    pub fn production() -> Self {
        ClusterConfig { partitions: 20 }
    }

    /// A single-partition config for tests.
    pub fn single() -> Self {
        ClusterConfig { partitions: 1 }
    }

    /// Returns a copy with a different partition count.
    pub fn with_partitions(mut self, n: u32) -> Self {
        self.partitions = n;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.partitions == 0 {
            return Err(crate::error::Error::InvalidConfig(
                "at least one partition required".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_defaults_match_paper() {
        let d = DetectorConfig::production();
        assert_eq!(d.k, 3);
        let c = ClusterConfig::production();
        assert_eq!(c.partitions, 20);
        assert_eq!(DetectorConfig::example().k, 2);
    }

    #[test]
    fn detector_validation() {
        assert!(DetectorConfig::production().validate().is_ok());
        assert!(DetectorConfig::production().with_k(1).validate().is_err());
        assert!(DetectorConfig::production()
            .with_tau(Duration::ZERO)
            .validate()
            .is_err());
        let bad_cap = DetectorConfig {
            max_witnesses: Some(2),
            ..DetectorConfig::production() // k = 3 > cap
        };
        assert!(bad_cap.validate().is_err());
    }

    #[test]
    fn cluster_validation() {
        assert!(ClusterConfig::production().validate().is_ok());
        assert!(ClusterConfig::production()
            .with_partitions(0)
            .validate()
            .is_err());
    }

    #[test]
    fn builder_style_updates() {
        let d = DetectorConfig::example()
            .with_k(4)
            .with_tau(Duration::from_secs(30));
        assert_eq!(d.k, 4);
        assert_eq!(d.tau, Duration::from_secs(30));
    }
}
