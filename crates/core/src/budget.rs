//! Privacy-budget accounting (sequential composition).
//!
//! Differential privacy composes: answering `k` queries at ε each costs
//! `k·ε` in total. The accountant tracks cumulative spend and refuses
//! queries that would exceed the data provider's total budget.

use std::sync::atomic::{AtomicU64, Ordering};

/// A sequential-composition privacy-budget accountant, shared by
/// reference: `total` is immutable and the spent ε is the bit pattern of
/// an `f64` in an atomic, advanced by compare-and-swap, so concurrent
/// charges need no lock and can never oversell the budget.
///
/// ```
/// use upa_core::budget::BudgetAccountant;
/// let b = BudgetAccountant::new(1.0);
/// assert!(b.try_spend(0.6).is_ok());
/// assert!(b.try_spend(0.6).is_err());
/// assert!((b.remaining() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct BudgetAccountant {
    total: f64,
    spent_bits: AtomicU64,
}

impl BudgetAccountant {
    /// Creates an accountant with the given total ε budget.
    ///
    /// # Panics
    ///
    /// Panics if `total_epsilon` is not a finite positive number.
    pub fn new(total_epsilon: f64) -> Self {
        BudgetAccountant::restore(total_epsilon, 0.0)
    }

    /// Reconstructs an accountant from persisted state — the replay half
    /// of a budget ledger. `spent` is the sum of every durable charge;
    /// it may legitimately exceed `total` (e.g. the provider lowered the
    /// budget between runs), in which case [`BudgetAccountant::remaining`]
    /// is zero and every further charge is refused.
    ///
    /// # Panics
    ///
    /// Panics if `total_epsilon` is not finite-positive or `spent` is not
    /// finite and non-negative.
    pub fn restore(total_epsilon: f64, spent: f64) -> Self {
        assert!(
            total_epsilon.is_finite() && total_epsilon > 0.0,
            "total budget must be finite and positive"
        );
        assert!(
            spent.is_finite() && spent >= 0.0,
            "replayed spend must be finite and non-negative"
        );
        BudgetAccountant {
            total: total_epsilon,
            spent_bits: AtomicU64::new(spent.to_bits()),
        }
    }

    /// Total budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget spent so far.
    pub fn spent(&self) -> f64 {
        f64::from_bits(self.spent_bits.load(Ordering::Acquire))
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent()).max(0.0)
    }

    /// Atomically charges `epsilon` if it fits, returning the budget
    /// remaining after the charge.
    ///
    /// # Errors
    ///
    /// Returns the remaining budget when the charge does not fit. A small
    /// tolerance absorbs floating-point accumulation so that, e.g., ten
    /// charges of 0.1 fit a budget of 1.0 exactly.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not a finite positive number.
    pub fn try_spend(&self, epsilon: f64) -> Result<f64, f64> {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "charged epsilon must be finite and positive"
        );
        let after = |bits: u64| f64::from_bits(bits) + epsilon;
        self.spent_bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                let next = after(bits);
                (next <= self.total + 1e-12).then_some(next.to_bits())
            })
            .map(|bits| (self.total - after(bits)).max(0.0))
            .map_err(|bits| (self.total - f64::from_bits(bits)).max(0.0))
    }

    /// Returns a charge whose spend never became durable (a ledger
    /// write or fsync failure). Clamped at zero, so a refund can never
    /// manufacture budget.
    pub fn refund(&self, epsilon: f64) {
        let _ = self
            .spent_bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                Some((f64::from_bits(bits) - epsilon).max(0.0).to_bits())
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn spends_until_exhausted() {
        let b = BudgetAccountant::new(0.3);
        assert!(b.try_spend(0.1).is_ok());
        assert!(b.try_spend(0.1).is_ok());
        assert!(b.try_spend(0.1).is_ok());
        let err = b.try_spend(0.1).unwrap_err();
        assert!(err.abs() < 1e-9, "remaining should be ~0, got {err}");
        assert!((b.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rejected_spend_does_not_charge() {
        let b = BudgetAccountant::new(0.5);
        assert!((b.try_spend(0.4).unwrap() - 0.1).abs() < 1e-12);
        assert!(b.try_spend(0.2).is_err());
        assert!(
            (b.spent() - 0.4).abs() < 1e-12,
            "failed spend must not charge"
        );
        assert!(b.try_spend(0.1).is_ok(), "a fitting charge still succeeds");
    }

    #[test]
    fn restore_resumes_where_the_ledger_left_off() {
        let original = BudgetAccountant::new(1.0);
        for _ in 0..10 {
            original.try_spend(0.1).unwrap();
        }
        // Replaying the same charges reconstructs the same state: the
        // tolerance that let ten 0.1-charges fill a 1.0 budget exactly
        // must survive the round trip.
        let replayed = BudgetAccountant::restore(1.0, original.spent());
        assert_eq!(replayed.spent(), original.spent());
        assert!(replayed.try_spend(0.1).is_err(), "budget stays exhausted");
        // A spend beyond the total (budget lowered after the fact) clamps
        // remaining to zero instead of going negative.
        let over = BudgetAccountant::restore(0.5, 0.8);
        assert_eq!(over.remaining(), 0.0);
    }

    #[test]
    fn atomic_budget_reserves_refunds_and_fills_exactly() {
        let b = BudgetAccountant::new(1.0);
        // Ten tenths fill the budget exactly despite float rounding.
        for _ in 0..10 {
            b.try_spend(0.1).expect("within budget");
        }
        let refused = b.try_spend(0.1).unwrap_err();
        assert!(refused < 1e-9, "remaining should be ~0, got {refused}");
        // A refund restores exactly one reservation's worth.
        b.refund(0.1);
        assert!(b.try_spend(0.1).is_ok());
        // Refunds clamp at zero — they can never manufacture budget.
        let empty = BudgetAccountant::restore(0.5, 0.1);
        empty.refund(5.0);
        assert_eq!(empty.spent(), 0.0);
        assert_eq!(empty.remaining(), 0.5);
    }

    #[test]
    fn concurrent_reservations_never_oversell_the_budget() {
        let b = Arc::new(BudgetAccountant::new(1.0));
        let granted = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            let granted = Arc::clone(&granted);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    if b.try_spend(0.1).is_ok() {
                        granted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::SeqCst), 10, "exactly 1.0/0.1 grants");
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn restore_rejects_negative_spend() {
        let _ = BudgetAccountant::restore(1.0, -0.1);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_zero_total() {
        let _ = BudgetAccountant::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_bad_charge() {
        let b = BudgetAccountant::new(1.0);
        let _ = b.try_spend(-0.1);
    }
}
