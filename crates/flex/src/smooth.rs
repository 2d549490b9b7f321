//! Smooth sensitivity on top of elastic sensitivity.
//!
//! Smooth sensitivity (Nissim, Raskhodnikova & Smith, STOC 2007; paper
//! §II-B) protects **groups** of records by calibrating noise to the
//! maximum discounted local sensitivity over all datasets within edit
//! distance `k`:
//!
//! ```text
//! S_β(x) = max_{k ≥ 0} e^{−βk} · A^{(k)}(x)
//! ```
//!
//! FLEX instantiates `A^{(k)}` with elastic sensitivity
//! ([`crate::analysis::elastic_sensitivity`]), which grows polynomially in
//! `k` for counting queries with joins, so the exponential discount
//! guarantees the maximum is attained at a finite `k`.

use crate::analysis::{elastic_sensitivity, FlexUnsupported};
use crate::metadata::Metadata;
use upa_relational::LogicalPlan;

/// The smooth-sensitivity bound `max_k e^{−βk}·E(q, k)`.
///
/// `horizon` bounds the search; because elastic sensitivity of a plan
/// with `j` joins grows like `k^j` while the discount decays
/// exponentially, any horizon past `~j/β` is exact. The function extends
/// the search adaptively until the discounted series has clearly peaked.
///
/// # Errors
///
/// Propagates [`FlexUnsupported`] from the elastic analysis, and rejects
/// non-positive `beta`.
pub fn smooth_sensitivity(
    plan: &LogicalPlan,
    metadata: &Metadata,
    beta: f64,
) -> Result<f64, FlexUnsupported> {
    assert!(
        beta.is_finite() && beta > 0.0,
        "smooth sensitivity needs beta > 0"
    );
    let mut best = 0.0f64;
    let mut k = 0u64;
    let mut since_best = 0u32;
    loop {
        let value = (-beta * k as f64).exp() * elastic_sensitivity(plan, metadata, k)?;
        if value > best {
            best = value;
            since_best = 0;
        } else {
            since_best += 1;
            // The discounted sequence of a polynomially growing E(q,k) is
            // unimodal; a long non-improving run means the peak passed.
            if since_best > (4.0 / beta).ceil() as u32 + 8 {
                return Ok(best);
            }
        }
        k += 1;
        if k > 10_000_000 {
            // Defensive cap; unreachable for sane β.
            return Ok(best);
        }
    }
}

/// FLEX's (ε, δ) smooth-noise mechanism: `β = ε / (2·ln(2/δ))` and
/// Laplace noise of scale `2·S_β/ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothMechanism {
    epsilon: f64,
    delta: f64,
}

impl SmoothMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon > 0` and `0 < delta < 1`.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive"
        );
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        SmoothMechanism { epsilon, delta }
    }

    /// The discount rate β.
    pub fn beta(&self) -> f64 {
        self.epsilon / (2.0 * (2.0 / self.delta).ln())
    }

    /// The smooth-sensitivity bound for a plan.
    ///
    /// # Errors
    ///
    /// Propagates [`FlexUnsupported`].
    pub fn sensitivity(
        &self,
        plan: &LogicalPlan,
        metadata: &Metadata,
    ) -> Result<f64, FlexUnsupported> {
        smooth_sensitivity(plan, metadata, self.beta())
    }

    /// The Laplace noise scale `2·S_β/ε`.
    ///
    /// # Errors
    ///
    /// Propagates [`FlexUnsupported`].
    pub fn noise_scale(
        &self,
        plan: &LogicalPlan,
        metadata: &Metadata,
    ) -> Result<f64, FlexUnsupported> {
        Ok(2.0 * self.sensitivity(plan, metadata)? / self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> Metadata {
        let mut m = Metadata::new();
        m.set_max_freq("orders", "orderkey", 1);
        m.set_max_freq("lineitem", "orderkey", 7);
        m
    }

    fn join_count() -> LogicalPlan {
        LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .count()
    }

    #[test]
    fn smooth_upper_bounds_local() {
        let m = meta();
        let local = elastic_sensitivity(&join_count(), &m, 0).unwrap();
        let smooth = smooth_sensitivity(&join_count(), &m, 0.1).unwrap();
        assert!(
            smooth >= local,
            "smooth {smooth} must dominate local {local}"
        );
    }

    #[test]
    fn smooth_of_plain_count_is_one() {
        // E(q, k) = 1 for all k, so the max is at k = 0.
        let m = meta();
        let plan = LogicalPlan::scan("lineitem").count();
        let s = smooth_sensitivity(&plan, &m, 0.25).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_beta_gives_larger_smooth_sensitivity() {
        let m = meta();
        let tight = smooth_sensitivity(&join_count(), &m, 1.0).unwrap();
        let loose = smooth_sensitivity(&join_count(), &m, 0.01).unwrap();
        assert!(loose > tight);
    }

    #[test]
    fn smooth_matches_manual_maximisation() {
        let m = meta();
        let beta = 0.2;
        let got = smooth_sensitivity(&join_count(), &m, beta).unwrap();
        let want = (0..2_000u64)
            .map(|k| (-beta * k as f64).exp() * (7.0 + k as f64))
            .fold(0.0f64, f64::max);
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn mechanism_computes_beta_and_scale() {
        let m = meta();
        let mech = SmoothMechanism::new(0.1, 1e-6);
        let beta = mech.beta();
        assert!((beta - 0.1 / (2.0 * (2.0e6f64).ln())).abs() < 1e-12);
        let scale = mech.noise_scale(&join_count(), &m).unwrap();
        assert!(scale > 2.0 * 7.0 / 0.1, "scale includes the smooth blow-up");
    }

    #[test]
    fn mechanism_propagates_unsupported() {
        let m = meta();
        let mech = SmoothMechanism::new(0.1, 1e-6);
        let plan = LogicalPlan::scan("t").sum(upa_relational::Expr::col("t.x"));
        assert!(mech.sensitivity(&plan, &m).is_err());
    }

    #[test]
    #[should_panic(expected = "beta > 0")]
    fn zero_beta_rejected() {
        let _ = smooth_sensitivity(&join_count(), &meta(), 0.0);
    }
}
