//! Ingress admission control: per-connection token buckets and the
//! per-worker cycle budget.
//!
//! Admission is two independent gates, checked in order when an ingest
//! frame is decoded:
//!
//! 1. **Token bucket** (per connection, i.e. per ingest source): a
//!    configured sustained events/sec with a burst allowance. An empty
//!    bucket sheds the whole batch with [`ShedCode::RateLimited`] and a
//!    retry-after hint computed from the deficit — the batch is refused
//!    atomically, never split, so per-target ordering survives a shed
//!    (the client retries the whole batch in order).
//! 2. **Cycle budget** (per worker): at most `cycle_budget` events are
//!    applied per epoll wake-up. The budget bounds how long a worker can
//!    stay heads-down in detection before it services its other
//!    connections again; beyond it, ingest frames shed with
//!    [`ShedCode::Overloaded`]. This is what turns a 2× overload into
//!    typed backpressure instead of unbounded buffering.
//!
//! [`ShedCode::RateLimited`]: crate::wire::ShedCode::RateLimited
//! [`ShedCode::Overloaded`]: crate::wire::ShedCode::Overloaded

use std::time::Instant;

/// Admission knobs, per server.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Sustained per-connection ingest rate, events/sec.
    /// `f64::INFINITY` disables rate limiting.
    pub source_rate: f64,
    /// Per-connection burst allowance, events. The bucket starts full.
    pub source_burst: f64,
    /// Events a worker applies per epoll cycle before shedding.
    pub cycle_budget: usize,
    /// Cap on a subscriber's pending outbound bytes; deliveries beyond
    /// it are dropped (counted) rather than buffered without bound.
    pub max_write_queue: usize,
    /// Cap on a connection's inbound buffer. A peer that streams more
    /// than this without completing a frame is closed with a typed
    /// error. Must exceed [`crate::wire::MAX_FRAME_LEN`] + 4 or legal
    /// maximum frames could never arrive.
    pub max_read_buf: usize,
}

impl AdmissionConfig {
    /// Wide-open admission: no rate limit, large budgets. The default
    /// for parity tests, where every event must be accepted.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            source_rate: f64::INFINITY,
            source_burst: f64::INFINITY,
            cycle_budget: usize::MAX,
            max_write_queue: 64 << 20,
            max_read_buf: 2 * (crate::wire::MAX_FRAME_LEN + 4),
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::unlimited()
    }
}

/// A classic token bucket over wall-clock time.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/sec, holding at most `burst`,
    /// starting full.
    pub fn new(rate: f64, burst: f64, now: Instant) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        if self.rate.is_infinite() {
            self.tokens = self.burst;
        } else {
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
    }

    /// Takes `n` tokens if available; otherwise returns the number of
    /// microseconds after which the deficit will have refilled (the
    /// shed response's retry-after hint).
    pub fn try_take(&mut self, n: u64, now: Instant) -> Result<(), u64> {
        self.refill(now);
        let need = n as f64;
        if self.tokens >= need || self.rate.is_infinite() {
            self.tokens -= need;
            Ok(())
        } else {
            let deficit = need - self.tokens;
            let secs = if self.rate > 0.0 {
                deficit / self.rate
            } else {
                1.0
            };
            Err((secs * 1e6).ceil().min(60.0 * 1e6) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_then_refusal_then_refill() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 10.0, t0);
        assert!(b.try_take(10, t0).is_ok(), "burst allowance");
        let retry = b.try_take(5, t0).unwrap_err();
        // 5 tokens at 100/s = 50ms.
        assert!((40_000..=60_000).contains(&retry), "retry hint {retry}µs");
        // After 100ms the bucket holds 10 again (capped at burst).
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.try_take(10, t1).is_ok());
    }

    #[test]
    fn infinite_rate_never_sheds() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(f64::INFINITY, f64::INFINITY, t0);
        for _ in 0..100 {
            assert!(b.try_take(u64::MAX / 2, t0).is_ok());
        }
    }

    #[test]
    fn retry_hint_is_capped() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(0.001, 0.0, t0);
        let retry = b.try_take(1_000_000, t0).unwrap_err();
        assert!(retry <= 60_000_000, "hint {retry}µs exceeds 60s cap");
    }
}
