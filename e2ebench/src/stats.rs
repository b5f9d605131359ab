//! Sample statistics and open-loop pacing.
//!
//! Two rules from the benchmark's metric definitions live here so they
//! can be unit-tested apart from any server:
//!
//! * **Percentile selection.** A tail is reported at the highest
//!   percentile that still has at least [`MIN_BEYOND`] samples beyond
//!   it, together with the sample count, so a short run never reports a
//!   p99 that rests on one or two samples.
//! * **Scheduled-time latency** (the coordinated-omission rule of wrk2):
//!   an open-loop request is timed from when it was *due*, not from when
//!   the generator got around to sending it, so a stall inflates every
//!   request queued behind it.

use std::time::{Duration, Instant};

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
/// samples beyond it, and its value. Falls back to the median when the
/// sample is too small for any tail.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = TAILS
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= MIN_BEYOND as f64)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean, or zero for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or zero when `den` is zero (an unexercised layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fixed-schedule pacing for an open-loop generator: slot `i` is due at
/// `start + i * interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When slot 0 is due.
    pub start: Instant,
    /// Gap between consecutive slots.
    pub interval: Duration,
}

impl Schedule {
    /// When slot `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Sleeps until slot `i` is due; returns how late the caller woke
    /// (zero if it was already behind schedule by less than nothing).
    pub fn wait_for(&self, i: usize) -> Duration {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due)
    }

    /// Latency of slot `i` completing at `at`, timed from when the slot
    /// was due.
    pub fn latency(&self, i: usize, at: Instant) -> Duration {
        at.saturating_duration_since(self.due(i))
    }
}

/// Completion rates over consecutive `window`s from `start` to `end`:
/// events completed inside each full window divided by its length. A
/// trailing partial window is dropped; a run shorter than one window
/// yields its overall rate.
pub fn window_rates(
    start: Instant,
    end: Instant,
    done: &[(Instant, u32)],
    window: Duration,
) -> Vec<f64> {
    let span = end.saturating_duration_since(start);
    let full = (span.as_secs_f64() / window.as_secs_f64()) as usize;
    if full == 0 {
        let total: u64 = done.iter().map(|&(_, n)| n as u64).sum();
        return vec![ratio(total as f64, span.as_secs_f64())];
    }
    let mut counts = vec![0u64; full];
    for &(at, n) in done {
        let i = (at.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if i < full {
            counts[i] += n as u64;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / window.as_secs_f64())
        .collect()
}

/// Percentile `p` of each of `windows` consecutive windows of a run
/// whose samples are tagged with their position in `0..span` (a slot
/// index). Windows without samples are skipped. The median of the
/// result is robust to a disturbance confined to one window, where a
/// whole-run percentile is not.
pub fn window_percentiles(
    samples: &[(usize, f64)],
    span: usize,
    windows: usize,
    p: f64,
) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    for &(at, v) in samples {
        let w = (at * per.len() / span.max(1)).min(per.len() - 1);
        per[w].push(v);
    }
    per.into_iter()
        .filter(|w| !w.is_empty())
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted), (99.0, 990.0));
        // One sample short of ten beyond p99: fall back to p90.
        assert_eq!(tail(&sorted[..999]).0, 90.0);
        let sorted: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&sorted), (99.99, 99_990.0));
        let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&sorted), (50.0, 10.0));
        // Too few samples for any tail: the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn percentile_and_median_are_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn window_rates_drop_the_partial_tail() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let done = [(at(10), 5), (at(90), 5), (at(150), 20), (at(260), 100)];
        let rates = window_rates(t0, at(270), &done, Duration::from_millis(100));
        assert_eq!(rates, vec![100.0, 200.0]);
        // Shorter than a window: the overall rate.
        let rates = window_rates(t0, at(50), &done[..1], Duration::from_millis(100));
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn window_percentiles_confine_a_disturbance() {
        // 4 windows of 25 slots; window 2 is slow.
        let samples: Vec<(usize, f64)> = (0..100)
            .map(|i| {
                (
                    i,
                    if (50..75).contains(&i) {
                        100.0
                    } else {
                        1.0 + (i % 5) as f64
                    },
                )
            })
            .collect();
        let p90 = window_percentiles(&samples, 100, 4, 90.0);
        assert_eq!(p90, vec![5.0, 5.0, 100.0, 5.0]);
        assert_eq!(median(&p90), 5.0);
        // Empty windows are skipped.
        assert_eq!(window_percentiles(&samples[..10], 100, 4, 50.0), vec![3.0]);
    }

    /// A stall in the service must inflate the latency of every slot
    /// queued behind it when latency is timed from the schedule, while
    /// timing from the actual send (the coordinated-omission mistake)
    /// would hide it.
    #[test]
    fn stall_inflates_scheduled_latency_after_it() {
        let sched = Schedule {
            start: Instant::now() + Duration::from_millis(5),
            interval: Duration::from_millis(2),
        };
        let stall_at = 5;
        let stall = Duration::from_millis(40);
        let mut from_schedule = Vec::new();
        let mut from_send = Vec::new();
        for i in 0..20 {
            sched.wait_for(i);
            let sent = Instant::now();
            if i == stall_at {
                std::thread::sleep(stall);
            }
            let done = Instant::now();
            from_schedule.push(sched.latency(i, done));
            from_send.push(done - sent);
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // Slots due during the stall waited for it.
        for i in stall_at + 1..stall_at + 10 {
            assert!(
                ms(from_schedule[i]) >= 15.0,
                "slot {i} should carry the stall, got {:?}",
                from_schedule[i]
            );
            assert!(
                ms(from_send[i]) < 15.0,
                "send-time latency of slot {i} hides the stall"
            );
        }
        // Slots before the stall were served promptly.
        for l in &from_schedule[..stall_at] {
            assert!(ms(*l) < 15.0, "pre-stall latency {l:?}");
        }
    }
}
