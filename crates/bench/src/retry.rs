//! Seeded exponential-backoff-with-jitter retry policy, shared by
//! [`Farm::worker_loop`](crate::Farm::worker_loop)'s in-process point
//! retries and `maps-farmd`'s worker requeue path.
//!
//! The delay schedule is a *pure function* of `(seed, point key, attempt)`
//! — no clock, no global RNG — so two runs of the same campaign back off
//! identically and a resumed daemon re-derives the exact schedule a dead
//! one was following. Jitter comes from a SplitMix64 finalizer over the
//! key fingerprint, which decorrelates points that fail simultaneously
//! (a thundering herd of respawned workers) without sacrificing
//! reproducibility. `MAPS_DETERMINISTIC=1` therefore needs no special
//! case: the schedule is deterministic unconditionally.

use std::time::Duration;

use maps_obs::fingerprint64;
use maps_trace::rng::SplitMix64;

/// `MAPS_POINT_RETRIES`: bounded extra attempts for a failing point.
fn retries_from_env() -> u32 {
    std::env::var("MAPS_POINT_RETRIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Deterministic retry schedule: capped exponential backoff with
/// key-seeded jitter and a bounded attempt budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    budget: u32,
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl RetryPolicy {
    /// Builds a policy with an explicit budget (extra attempts after the
    /// first), backoff base/cap, and jitter seed.
    pub fn new(budget: u32, base: Duration, cap: Duration, seed: u64) -> Self {
        RetryPolicy {
            budget,
            base,
            cap,
            seed,
        }
    }

    /// The standard policy: budget from `MAPS_POINT_RETRIES` (default 1),
    /// 25 ms base doubling to a 2 s cap, jitter keyed by `seed`.
    pub fn from_env(seed: u64) -> Self {
        RetryPolicy::new(
            retries_from_env(),
            Duration::from_millis(25),
            Duration::from_secs(2),
            seed,
        )
    }

    /// Extra attempts allowed after the first failure.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Whether `attempt` failures still leave retries in the budget.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts <= self.budget
    }

    /// The delay before retry number `attempt` (1-based) of the point
    /// named `key`: `base · 2^(attempt−1)` capped at `cap`, scaled by a
    /// jitter factor in `[0.5, 1.0)` derived from the SplitMix64 finalizer
    /// of `seed ⊕ fingerprint(key) ⊕ attempt`. Pure — same inputs, same
    /// delay, on every machine.
    pub fn delay(&self, key: &str, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .checked_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
            .unwrap_or(self.cap)
            .min(self.cap);
        let r = SplitMix64::new(self.seed ^ fingerprint64(key) ^ u64::from(attempt)).next_u64();
        // Top 53 bits → uniform in [0, 1); fold into [0.5, 1.0).
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = 0.5 + unit / 2.0;
        exp.mul_f64(jitter)
    }

    /// Sleeps for [`RetryPolicy::delay`]. The schedule stays pure; only
    /// this helper touches the clock.
    pub fn back_off(&self, key: &str, attempt: u32) {
        let d = self.delay(key, attempt);
        if d > Duration::ZERO {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::new(3, Duration::from_millis(25), Duration::from_secs(2), 42)
    }

    #[test]
    fn delays_are_deterministic() {
        let a = policy();
        let b = policy();
        for attempt in 1..=8 {
            assert_eq!(a.delay("fig2/pt", attempt), b.delay("fig2/pt", attempt));
        }
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        let p = policy();
        for attempt in 1..=5u32 {
            let exp = Duration::from_millis(25 * (1 << (attempt - 1)));
            let d = p.delay("k", attempt);
            assert!(
                d >= exp.mul_f64(0.5),
                "attempt {attempt}: {d:?} < half of {exp:?}"
            );
            assert!(d < exp, "attempt {attempt}: {d:?} >= full {exp:?}");
        }
    }

    #[test]
    fn delays_are_capped() {
        let p = policy();
        // Attempt 40 would be 25ms·2^39 without the cap; the shift also
        // must not overflow.
        assert!(p.delay("k", 40) <= Duration::from_secs(2));
        assert!(p.delay("k", u32::MAX) <= Duration::from_secs(2));
    }

    #[test]
    fn different_keys_get_different_jitter() {
        let p = policy();
        // Not guaranteed for *every* pair, but these two must differ or
        // the jitter is not consuming the key at all.
        assert_ne!(p.delay("fig2/a", 3), p.delay("fig2/b", 3));
    }

    #[test]
    fn attempt_zero_is_immediate_and_budget_gates() {
        let p = policy();
        assert_eq!(p.delay("k", 0), Duration::ZERO);
        assert!(p.allows(0));
        assert!(p.allows(3));
        assert!(!p.allows(4));
    }
}
