//! Simulation time.
//!
//! The whole workspace runs on a *virtual* clock so experiments are
//! deterministic and a replayed hour of traffic costs nothing to "wait"
//! for. Time is microseconds since an arbitrary epoch, stored as
//! `u64` — enough for ~584 000 years of simulation.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time (microseconds since the simulation epoch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Timestamp(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The far future; useful as a sentinel for "never".
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Builds a timestamp from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Builds a timestamp from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Builds a timestamp from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future (events can arrive out of order from the queue).
    #[inline]
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The timestamp `d` earlier than `self`, saturating at the epoch.
    ///
    /// Used to compute the left edge of the recency window `[t-τ, t]`.
    #[inline]
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// The longest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a span from minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60_000_000)
    }

    /// Builds a span from hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Duration(h * 3_600_000_000)
    }

    /// Builds a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a span from fractional seconds (negative values clamp to 0).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1e6) as u64)
    }

    /// Microseconds in this span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds in this span (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the span by a float factor (used by delay models).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor.max(0.0)) as u64)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    /// Panics in debug builds if `rhs > self`; use
    /// [`Timestamp::saturating_since`] for possibly-out-of-order inputs.
    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        debug_assert!(rhs.0 <= self.0, "timestamp subtraction underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2_000));
        assert_eq!(Timestamp::from_millis(3), Timestamp::from_micros(3_000));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_mins(1), Duration::from_secs(60));
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1500));
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(3);
        assert_eq!(t + d, Timestamp::from_secs(13));
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_sub(Duration::from_secs(20)), Timestamp::ZERO);
    }

    #[test]
    fn saturating_since_out_of_order() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(5);
        assert_eq!(late.saturating_since(early), Duration::from_secs(4));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(Timestamp::MAX + Duration::from_secs(1), Timestamp::MAX);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
    }

    #[test]
    fn mul_f64_scales() {
        let d = Duration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), Duration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::from_micros(2)), "2µs");
    }

    #[test]
    fn window_left_edge() {
        // The detector computes [t-τ, t]; at the epoch the window clamps.
        let t = Timestamp::from_secs(5);
        let tau = Duration::from_secs(30);
        assert_eq!(t.saturating_sub(tau), Timestamp::ZERO);
    }
}
