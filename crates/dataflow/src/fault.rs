//! Deterministic fault injection.
//!
//! MapReduce operators are written commutatively and associatively *so
//! that* tasks can be re-executed after failures without changing the
//! result (paper §II-C). The engine makes that assumption testable: a
//! [`FaultInjector`] deterministically fails a configurable fraction of
//! task attempts, the scheduler retries them, and the engine's tests assert
//! that results are identical with and without injected faults.

use crate::partitioner::hash_key;

/// Decides, deterministically, whether a given task attempt should fail.
///
/// Decisions are pure functions of `(seed, stage, task, attempt)`, hashed
/// by the engine's own [`hash_key`], whose algorithm this crate defines,
/// so a given configuration always injects the same faults, whatever the
/// toolchain — failures are reproducible, and a retried attempt (higher
/// `attempt` number) gets an independent decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    probability: f64,
    seed: u64,
}

impl FaultInjector {
    /// Creates an injector failing roughly `probability` of attempts.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not within `[0, 1)`. (A probability of 1
    /// would fail every retry forever.)
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "fault probability must be in [0, 1), got {probability}"
        );
        FaultInjector { probability, seed }
    }

    /// An injector that never fails anything.
    pub fn disabled() -> Self {
        FaultInjector {
            probability: 0.0,
            seed: 0,
        }
    }

    /// The configured failure probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Whether the `attempt`-th run of task `task` in stage `stage_id`
    /// should fail.
    pub fn should_fail(&self, stage_id: u64, task: usize, attempt: u32) -> bool {
        if self.probability == 0.0 {
            return false;
        }
        let h = hash_key(&(self.seed, stage_id, task, attempt));
        // Map to [0, 1) with 53-bit precision.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fails() {
        let f = FaultInjector::disabled();
        for t in 0..100 {
            assert!(!f.should_fail(0, t, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(0.5, 42);
        let b = FaultInjector::new(0.5, 42);
        for stage in 0..10u64 {
            for task in 0..10 {
                assert_eq!(a.should_fail(stage, task, 0), b.should_fail(stage, task, 0));
            }
        }
    }

    #[test]
    fn failure_rate_is_close_to_probability() {
        let f = FaultInjector::new(0.3, 7);
        let trials = 100_000;
        let failures = (0..trials)
            .filter(|&i| f.should_fail(i as u64 / 1000, i % 1000, 0))
            .count();
        let rate = failures as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    /// The decisions are pinned: a change of hasher, or of what it is
    /// fed, changes which attempts fail and must show up here.
    #[test]
    fn decisions_are_pinned() {
        let f = FaultInjector::new(0.5, 42);
        let mut mask = 0u64;
        for stage in 0..4u64 {
            for task in 0..16 {
                if f.should_fail(stage, task, 0) {
                    mask |= 1 << (stage * 16 + task as u64);
                }
            }
        }
        assert_eq!(mask, 0xee62_fafd_213c_5db2, "{mask:#018x}");
    }

    #[test]
    fn attempts_get_independent_decisions() {
        let f = FaultInjector::new(0.5, 3);
        // With p=0.5, some task that fails on attempt 0 must succeed on a
        // later attempt; find one to confirm attempts are not correlated.
        let mut saw_recovery = false;
        for task in 0..1000 {
            if f.should_fail(1, task, 0) && !f.should_fail(1, task, 1) {
                saw_recovery = true;
                break;
            }
        }
        assert!(saw_recovery);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn probability_one_rejected() {
        let _ = FaultInjector::new(1.0, 0);
    }
}
