//! Query output values.
//!
//! UPA treats the output of a query as a point in `R^d`: scalar for the
//! counting/arithmetic queries, a model vector for the machine-learning
//! queries (KMeans centroids, Linear Regression weights). Sensitivity,
//! output ranges and Laplace noise are all applied **per component**, which
//! generalises the paper's scalar presentation in the standard way.

use dataflow::Data;

/// A query output: a fixed-dimension vector of finite components.
///
/// Implemented for `f64` (dimension 1) and `Vec<f64>`. Equality of
/// components is what RANGE ENFORCER uses to compare partition outputs
/// across queries — two runs of the same deterministic reduction produce
/// bit-identical floats, so exact comparison is the right operation.
pub trait DpOutput: Data + std::fmt::Debug {
    /// The output's components, borrowed: a scalar is a one-element slice
    /// of itself, so reading a component allocates nothing.
    fn components(&self) -> &[f64];

    /// Rebuilds an output from components (inverse of
    /// [`DpOutput::components`]).
    fn from_components(components: Vec<f64>) -> Self;

    /// L∞ distance between two outputs — the "greatest change on an output
    /// value" in the paper's Definition II.1, taken per component.
    fn distance(&self, other: &Self) -> f64 {
        self.components()
            .iter()
            .zip(other.components())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl DpOutput for f64 {
    fn components(&self) -> &[f64] {
        std::slice::from_ref(self)
    }

    fn from_components(components: Vec<f64>) -> Self {
        assert_eq!(components.len(), 1, "scalar output expects one component");
        components[0]
    }
}

impl DpOutput for Vec<f64> {
    fn components(&self) -> &[f64] {
        self
    }

    fn from_components(components: Vec<f64>) -> Self {
        components
    }
}

/// A per-component closed interval used as the enforced output range
/// `Ô_f`.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRange {
    /// Per-component `(min, max)` bounds.
    pub bounds: Vec<(f64, f64)>,
}

impl OutputRange {
    /// Creates a range from per-component bounds.
    ///
    /// # Panics
    ///
    /// Panics if any bound has `min > max`.
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        assert!(
            bounds.iter().all(|(lo, hi)| lo <= hi),
            "output range bounds must satisfy min <= max"
        );
        OutputRange { bounds }
    }

    /// Number of components.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// Per-component widths `max − min`: UPA's inferred local sensitivity.
    pub fn widths(&self) -> Vec<f64> {
        self.bounds.iter().map(|(lo, hi)| hi - lo).collect()
    }

    /// Whether `components` lies inside the range in every dimension.
    pub fn contains(&self, components: &[f64]) -> bool {
        components.len() == self.bounds.len()
            && components
                .iter()
                .zip(self.bounds.iter())
                .all(|(x, (lo, hi))| *x >= *lo && *x <= *hi)
    }

    /// Clamps each out-of-range component to a uniformly random point
    /// inside its bound (Algorithm 2, lines 17–18); in-range components
    /// are left untouched. Returns whether any component was replaced.
    pub fn constrain<R: rand::Rng + ?Sized>(&self, components: &mut [f64], rng: &mut R) -> bool {
        assert_eq!(components.len(), self.bounds.len(), "dimension mismatch");
        let mut clamped = false;
        for (x, (lo, hi)) in components.iter_mut().zip(self.bounds.iter()) {
            if *x < *lo || *x > *hi {
                *x = if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..=*hi)
                };
                clamped = true;
            }
        }
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_round_trip() {
        let x = 3.25f64;
        assert_eq!(x.components(), [3.25]);
        assert_eq!(f64::from_components(vec![3.25]), 3.25);
    }

    #[test]
    fn vector_round_trip_and_distance() {
        let a = vec![1.0, 5.0];
        let b = vec![2.0, 3.0];
        assert_eq!(a.distance(&b), 2.0, "L-infinity distance");
        assert_eq!(Vec::<f64>::from_components(a.clone()), a);
    }

    #[test]
    fn range_contains_and_widths() {
        let r = OutputRange::new(vec![(0.0, 2.0), (-1.0, 1.0)]);
        assert!(r.contains(&[1.0, 0.0]));
        assert!(!r.contains(&[3.0, 0.0]));
        assert!(!r.contains(&[1.0])); // dimension mismatch
        assert_eq!(r.widths(), vec![2.0, 2.0]);
    }

    #[test]
    fn constrain_replaces_only_out_of_range() {
        let r = OutputRange::new(vec![(0.0, 1.0), (0.0, 1.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = [0.5, 7.0];
        let clamped = r.constrain(&mut v, &mut rng);
        assert!(clamped);
        assert_eq!(v[0], 0.5, "in-range component untouched");
        assert!((0.0..=1.0).contains(&v[1]));
        let mut w = [0.1, 0.9];
        assert!(!r.constrain(&mut w, &mut rng));
        assert_eq!(w, [0.1, 0.9]);
    }

    #[test]
    fn constrain_degenerate_range() {
        let r = OutputRange::new(vec![(5.0, 5.0)]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = [99.0];
        r.constrain(&mut v, &mut rng);
        assert_eq!(v[0], 5.0);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn range_rejects_inverted_bounds() {
        let _ = OutputRange::new(vec![(1.0, 0.0)]);
    }
}
