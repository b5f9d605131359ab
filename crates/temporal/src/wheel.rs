//! An epoch wheel: a coarse time-bucketed index of *which targets were
//! touched when*, enabling O(expired) global pruning of the `D` store.
//!
//! Trimming a [`crate::TargetList`] is cheap, but a store holding millions
//! of targets cannot afford to visit every list just to discover most have
//! nothing to drop. The wheel records, per coarse time bucket, the targets
//! that received an edge in that bucket. Advancing the window visits only
//! the targets in expired buckets — each of which plausibly has something
//! to trim.
//!
//! **Append-only buckets.** A bucket is a plain `Vec` of targets: a touch
//! is a push, skipped only when it repeats the bucket's last push, so a
//! target can appear in a bucket more than once. Deduplication happens
//! once per expiry, when [`EpochWheel::expire_before`] unions the expired
//! buckets into a set. The store avoids most repeats up front: it skips
//! the touch when the target's previous newest entry already placed it in
//! the same live bucket (see `EpochWheel::already_indexed`).

use magicrecs_types::{Duration, FxHashMap, FxHashSet, Timestamp, UserId};

/// Time-bucketed index of touched targets.
#[derive(Debug, Clone)]
pub struct EpochWheel {
    /// Bucket width in microseconds.
    bucket_us: u64,
    /// bucket index → targets touched during that bucket (append-only,
    /// repeats possible).
    buckets: FxHashMap<u64, Vec<UserId>>,
    /// First bucket index not yet expired.
    horizon: u64,
}

impl EpochWheel {
    /// Creates a wheel with the given bucket width. A good width is
    /// `window / 16`: fine enough that expiry lag is small, coarse enough
    /// that the per-bucket lists amortize.
    pub fn new(bucket_width: Duration) -> Self {
        let bucket_us = bucket_width.as_micros().max(1);
        EpochWheel {
            bucket_us,
            buckets: FxHashMap::default(),
            horizon: 0,
        }
    }

    /// Derives a wheel from the retention window (width = window/16).
    pub fn for_window(window: Duration) -> Self {
        EpochWheel::new(Duration::from_micros((window.as_micros() / 16).max(1)))
    }

    #[inline]
    fn bucket_of(&self, at: Timestamp) -> u64 {
        at.as_micros() / self.bucket_us
    }

    /// Records that `target` received an edge at `at`.
    ///
    /// Touches that land in already-expired buckets are clamped onto the
    /// horizon bucket so late arrivals are still re-examined on the next
    /// advance rather than leaking.
    pub fn touch(&mut self, target: UserId, at: Timestamp) {
        let b = self.bucket_of(at).max(self.horizon);
        let bucket = self.buckets.entry(b).or_default();
        if bucket.last() != Some(&target) {
            bucket.push(target);
        }
    }

    /// Whether a touch at `at` is already covered by an earlier touch of
    /// the same target at `prev`: both fall in one bucket and that bucket
    /// is not behind the horizon, so the earlier touch landed in it
    /// unclamped and it has not expired since.
    ///
    /// The store relies on this only while the `prev` entry is still
    /// resident: expiring a bucket trims every entry in it, so a resident
    /// entry's bucket is live.
    #[inline]
    pub(crate) fn already_indexed(&self, prev: Timestamp, at: Timestamp) -> bool {
        let b = self.bucket_of(at);
        b >= self.horizon && self.bucket_of(prev) == b
    }

    /// Expires every bucket strictly older than `cutoff` and returns the
    /// union of their targets (each target reported once per call).
    pub fn expire_before(&mut self, cutoff: Timestamp) -> Vec<UserId> {
        let cutoff_bucket = self.bucket_of(cutoff);
        if cutoff_bucket <= self.horizon {
            return Vec::new();
        }
        let mut out = FxHashSet::default();
        // Visiting by key avoids scanning the whole map when few buckets
        // exist; bucket count is bounded by wheel span / width.
        let expired: Vec<u64> = self
            .buckets
            .keys()
            .copied()
            .filter(|&b| b < cutoff_bucket)
            .collect();
        for b in expired {
            if let Some(targets) = self.buckets.remove(&b) {
                out.extend(targets);
            }
        }
        self.horizon = cutoff_bucket;
        out.into_iter().collect()
    }

    /// Number of live (unexpired) buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total touches currently indexed (pushes across live buckets; a
    /// target counts once per run of consecutive touches in a bucket).
    pub fn indexed_touches(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Approximate heap bytes of the wheel (bucket `Vec` capacity plus the
    /// bucket map).
    pub fn memory_bytes(&self) -> usize {
        let map_slot = std::mem::size_of::<(u64, Vec<UserId>)>() + 1;
        self.buckets
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<UserId>())
            .sum::<usize>()
            + self.buckets.capacity() * map_slot * 8 / 7
    }

    /// The live buckets holding `target` (test-only view of the index).
    #[cfg(test)]
    pub(crate) fn buckets_holding(&self, target: UserId) -> Vec<u64> {
        let mut held: Vec<u64> = self
            .buckets
            .iter()
            .filter(|(_, v)| v.contains(&target))
            .map(|(&b, _)| b)
            .collect();
        held.sort_unstable();
        held
    }

    /// The bucket `at` falls in and the current horizon (test-only).
    #[cfg(test)]
    pub(crate) fn bucket_and_horizon(&self, at: Timestamp) -> (u64, u64) {
        (self.bucket_of(at), self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: u64) -> UserId {
        UserId(n)
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn expire_returns_touched_targets() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(5));
        w.touch(u(2), ts(15));
        w.touch(u(3), ts(25));
        let mut expired = w.expire_before(ts(20));
        expired.sort();
        assert_eq!(expired, vec![u(1), u(2)]);
        assert_eq!(w.bucket_count(), 1); // only the ts=25 bucket remains
    }

    #[test]
    fn expire_is_incremental() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(5));
        assert_eq!(w.expire_before(ts(20)), vec![u(1)]);
        // Second call with same cutoff: nothing new.
        assert!(w.expire_before(ts(20)).is_empty());
    }

    #[test]
    fn same_target_in_one_bucket_deduplicated() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(1));
        w.touch(u(1), ts(2));
        w.touch(u(1), ts(3));
        assert_eq!(w.indexed_touches(), 1);
        assert_eq!(w.expire_before(ts(100)), vec![u(1)]);
    }

    #[test]
    fn target_across_buckets_reported_once_per_expiry() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(5));
        w.touch(u(1), ts(15));
        let expired = w.expire_before(ts(100));
        assert_eq!(expired, vec![u(1)]);
    }

    #[test]
    fn late_touch_clamped_to_horizon() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(100));
        assert!(!w.expire_before(ts(100)).contains(&u(1)));
        w.expire_before(ts(200));
        // Touch with a long-expired timestamp: must not vanish forever.
        w.touch(u(2), ts(5));
        let expired = w.expire_before(ts(300));
        assert!(expired.contains(&u(2)), "late touch leaked: {expired:?}");
    }

    #[test]
    fn cutoff_within_horizon_is_noop() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(5));
        w.expire_before(ts(50));
        assert!(w.expire_before(ts(10)).is_empty()); // going backwards: no-op
    }

    #[test]
    fn for_window_uses_sixteenth_buckets() {
        let w: EpochWheel = EpochWheel::for_window(Duration::from_secs(160));
        assert_eq!(w.bucket_us, Duration::from_secs(10).as_micros());
    }

    #[test]
    fn tiny_window_clamps_bucket_width() {
        let w: EpochWheel = EpochWheel::for_window(Duration::from_micros(3));
        assert!(w.bucket_us >= 1);
    }

    #[test]
    fn memory_estimate_grows_with_touches() {
        let mut w = EpochWheel::new(Duration::from_secs(1));
        let empty = w.memory_bytes();
        for i in 0..1000 {
            w.touch(u(i), ts(i));
        }
        assert!(w.memory_bytes() > empty);
    }

    #[test]
    fn repeated_touch_skipped_only_when_consecutive() {
        let mut w = EpochWheel::new(Duration::from_secs(10));
        w.touch(u(1), ts(1));
        w.touch(u(2), ts(2));
        w.touch(u(1), ts(3)); // not the last push: appended again
        assert_eq!(w.indexed_touches(), 3);
        assert_eq!(w.expire_before(ts(100)).len(), 2, "reported once each");
    }

    #[test]
    fn memory_counts_bucket_capacity() {
        let mut w = EpochWheel::new(Duration::from_secs(1_000));
        for i in 0..1000 {
            w.touch(u(i), ts(1));
        }
        let targets = w.buckets.values().map(Vec::capacity).sum::<usize>();
        assert!(targets >= 1000);
        assert!(w.memory_bytes() >= targets * std::mem::size_of::<UserId>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `expire_before` reports exactly the targets touched in the
        /// expired buckets (late touches clamped onto the horizon), each
        /// once per call, against a set-per-bucket reference model.
        #[test]
        fn expire_reports_each_target_once(
            ops in proptest::collection::vec((0u64..4, 0u64..12, 0u64..400), 1..200),
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let mut w = EpochWheel::new(Duration::from_secs(10));
            let mut model: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            let mut horizon = 0u64;
            for &(kind, target, secs) in &ops {
                if kind == 0 {
                    let mut got = w.expire_before(ts(secs));
                    let n = got.len();
                    got.sort_unstable();
                    got.dedup();
                    proptest::prop_assert_eq!(got.len(), n, "target reported twice");
                    let mut expect = BTreeSet::new();
                    let cutoff_bucket = secs / 10;
                    if cutoff_bucket > horizon {
                        let live = model.split_off(&cutoff_bucket);
                        for set in std::mem::replace(&mut model, live).into_values() {
                            expect.extend(set);
                        }
                        horizon = cutoff_bucket;
                    }
                    let expect: Vec<UserId> = expect.into_iter().map(u).collect();
                    proptest::prop_assert_eq!(got, expect);
                } else {
                    w.touch(u(target), ts(secs));
                    model.entry((secs / 10).max(horizon)).or_default().insert(target);
                }
            }
        }
    }
}
