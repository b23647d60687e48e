//! Deterministic jittered exponential backoff.
//!
//! The policy paces the fabric's rendezvous in `tcp.rs`, on both ends:
//! `connect_retry` is every dial the fabric makes (rendezvous connects —
//! the root's listener may not be up yet — and rejoin dials after a rank
//! respawn), and the polls of a non-blocking listener wait for the next
//! dial the same way. Both start at tens of microseconds, so a peer
//! already on its way costs little, and back off to their old fixed
//! intervals while nobody comes. Nothing else in the fabric retries — a
//! failed receive or checkpoint RPC surfaces as an error and recovery
//! starts over. The jitter is *deterministic* — a cheap xorshift
//! stream seeded by the caller — so chaos runs replay the exact same
//! sleep schedule under the same seed (the reproducibility contract of
//! [`crate::chaos`]).

use std::time::{Duration, Instant};

/// Jittered exponential backoff over a fixed deadline.
///
/// Produces a sleep duration per failed attempt: `base * factor^n`,
/// capped at `max`, with ±`jitter` (a fraction of the delay) applied from
/// a deterministic pseudo-random stream. [`RetryPolicy::next_delay`]
/// returns `None` once the deadline has passed — the caller gives up and
/// surfaces the underlying error.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    base: Duration,
    max: Duration,
    factor: f64,
    /// Jitter amplitude as a fraction of the computed delay (0.0..=1.0).
    jitter: f64,
    deadline: Instant,
    attempt: u32,
    rng: u64,
}

impl RetryPolicy {
    /// A policy expiring `deadline` from now, with the given first-attempt
    /// delay and cap. `seed` fixes the jitter stream (pass the rank for
    /// per-process decorrelation that is still reproducible run-to-run).
    pub fn new(base: Duration, max: Duration, deadline: Duration, seed: u64) -> RetryPolicy {
        RetryPolicy {
            base,
            max,
            factor: 2.0,
            jitter: 0.25,
            deadline: Instant::now() + deadline,
            attempt: 0,
            // Splitmix the seed so adjacent seeds (rank numbers) get
            // uncorrelated streams, then dodge the all-zero xorshift
            // fixed point.
            rng: RetryPolicy::mix(seed) | 1,
        }
    }

    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The default connect policy: 50 µs first retry, doubling to a 500 ms
    /// cap, expiring after `deadline` (callers pass the fabric's connect
    /// timeout). A listener that is about to come up costs a dial tens of
    /// microseconds, not a whole first step.
    pub fn connect(deadline: Duration, seed: u64) -> RetryPolicy {
        RetryPolicy::new(
            Duration::from_micros(50),
            Duration::from_millis(500),
            deadline,
            seed,
        )
    }

    /// The pace of a listener poll: 20 µs first, doubling to `cap`,
    /// expiring after `deadline`.
    pub fn poll(cap: Duration, deadline: Duration) -> RetryPolicy {
        RetryPolicy::new(Duration::from_micros(20), cap, deadline, 0)
    }

    /// Time left before the policy expires (zero once exhausted).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The sleep before the next attempt, or `None` when the deadline has
    /// passed. Never returns a delay that overshoots the deadline: the
    /// final sleep is clamped so the last attempt still happens in time.
    pub fn next_delay(&mut self) -> Option<Duration> {
        let remaining = self.remaining();
        if remaining.is_zero() {
            return None;
        }
        let exp = self.factor.powi(self.attempt.min(20) as i32);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.max.as_secs_f64());
        // Uniform jitter in [1 - j, 1 + j].
        let unit = (self.xorshift() >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 + self.jitter * (2.0 * unit - 1.0);
        let jittered = Duration::from_secs_f64(capped * scale);
        Some(jittered.min(remaining))
    }

    /// Sleep for the next backoff step. Returns `false` when the deadline
    /// has passed (the caller should stop retrying).
    pub fn backoff(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                std::thread::sleep(d);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(seed: u64, n: usize) -> Vec<Duration> {
        let mut p = RetryPolicy::new(
            Duration::from_millis(10),
            Duration::from_millis(500),
            Duration::from_secs(3600),
            seed,
        );
        (0..n).map(|_| p.next_delay().unwrap()).collect()
    }

    #[test]
    fn delays_grow_exponentially_to_the_cap() {
        let d = delays(7, 12);
        // Monotone up to the cap modulo ±25% jitter: compare against the
        // un-jittered envelope.
        for (i, d) in d.iter().enumerate() {
            let ideal = (10.0 * 2f64.powi(i as i32)).min(500.0);
            let ms = d.as_secs_f64() * 1e3;
            assert!(
                ms >= ideal * 0.74 && ms <= ideal * 1.26,
                "attempt {i}: {ms:.2} ms outside jitter envelope of {ideal} ms"
            );
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(delays(42, 16), delays(42, 16));
        assert_ne!(delays(42, 16), delays(43, 16));
    }

    #[test]
    fn deadline_exhausts_the_policy() {
        let mut p = RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(2),
            Duration::from_millis(30),
            1,
        );
        let mut total = Duration::ZERO;
        let mut steps = 0;
        while let Some(d) = p.next_delay() {
            // Model the caller sleeping: advance our accounting only — the
            // policy tracks wall-clock internally, so actually sleep.
            std::thread::sleep(d);
            total += d;
            steps += 1;
            assert!(steps < 1000, "policy never expired");
        }
        assert!(p.expired());
        assert!(
            total <= Duration::from_millis(80),
            "overshot deadline: {total:?}"
        );
    }

    #[test]
    fn final_delay_is_clamped_to_the_deadline() {
        let mut p = RetryPolicy::new(
            Duration::from_secs(10),
            Duration::from_secs(10),
            Duration::from_millis(50),
            9,
        );
        let d = p.next_delay().unwrap();
        assert!(d <= Duration::from_millis(50));
    }
}
