//! Client-side resilience: exponential backoff with jitter.
//!
//! The serving tier emits typed refusals (`Shed` with a retry-after
//! hint). [`Backoff`] is exponential delay with deterministic jitter
//! that treats a server's retry-after hint as a **floor**, never less.
//! `tests/e2e.rs` drives it against a token bucket and checks that
//! resending only the shed batches admits every event exactly once; the
//! replica tier's routed client retries with it too.

use std::time::Duration;

/// Exponential backoff with deterministic jitter.
///
/// The delay for attempt `n` is drawn uniformly from the upper half of
/// `base * 2^n` (capped at `cap`) — "equal jitter", so concurrent
/// clients desynchronize without ever retrying immediately. When the
/// server supplied a retry-after hint, the hint is a floor: honoring it
/// means never knocking again sooner than invited.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base`, doubling per attempt, capped at
    /// `cap`. `seed` drives the jitter; two clients with different
    /// seeds spread out, one client with a fixed seed is reproducible.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            // xorshift must not start at 0; fold in a constant.
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — no external RNG dependency, good enough to
        // decorrelate retry storms.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The delay to sleep before the next attempt, honoring
    /// `hint_us` (a server retry-after hint; 0 = none) as a floor.
    /// Advances the attempt counter.
    pub fn next_delay(&mut self, hint_us: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let half = exp.as_micros() as u64 / 2;
        let jittered = half + self.next_rand() % (half + 1);
        Duration::from_micros(jittered.max(hint_us))
    }

    /// Attempts made since construction or the last [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Clears the attempt counter after a success, so the next failure
    /// starts the ladder at `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_honors_hints_and_caps() {
        let mut b = Backoff::new(
            Duration::from_micros(100),
            Duration::from_millis(10),
            0xC0FFEE,
        );
        let d0 = b.next_delay(0);
        assert!(d0 >= Duration::from_micros(50) && d0 <= Duration::from_micros(100));
        let d1 = b.next_delay(0);
        assert!(d1 >= Duration::from_micros(100) && d1 <= Duration::from_micros(200));
        // A server hint is a floor even when the ladder is lower.
        let d2 = b.next_delay(50_000);
        assert!(d2 >= Duration::from_millis(50));
        // The ladder never exceeds the cap (hint aside).
        for _ in 0..20 {
            assert!(b.next_delay(0) <= Duration::from_millis(10));
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay(0) <= Duration::from_micros(100));
    }

    #[test]
    fn backoff_jitter_differs_across_seeds() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 1);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), 2);
        let da: Vec<Duration> = (0..4).map(|_| a.next_delay(0)).collect();
        let db: Vec<Duration> = (0..4).map(|_| b.next_delay(0)).collect();
        assert_ne!(da, db, "different seeds must jitter differently");
    }
}
