//! The normal distribution with MLE fitting, quantiles and sampling.
//!
//! UPA (§IV-A) models the outputs of a query on neighbouring datasets as a
//! normal random variable, fits it to the sampled neighbour outputs by
//! maximum-likelihood estimation and uses the P1–P99 interval as both the
//! local-sensitivity estimate and the enforced output range.

use crate::erf::{norm_cdf, norm_quantile};
use crate::StatsError;
use rand::Rng;

/// A normal (Gaussian) distribution parameterised by mean and standard
/// deviation.
///
/// ```
/// use upa_stats::Normal;
/// let n = Normal::new(0.0, 1.0).unwrap();
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `std_dev` is negative,
    /// NaN, or infinite, or if `mean` is not finite. A zero standard
    /// deviation is allowed and denotes a degenerate (point-mass)
    /// distribution, which arises naturally in UPA when every neighbouring
    /// dataset yields the same output (e.g. a count query on a dataset where
    /// every record matches).
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter("mean"));
        }
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(StatsError::InvalidParameter("std_dev"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Fits a normal distribution to `samples` by maximum-likelihood
    /// estimation (the MLE variance uses the `1/n` normaliser, as in the
    /// paper's Algorithm 1, line 18).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] for an empty input.
    ///
    /// ```
    /// use upa_stats::Normal;
    /// let fit = Normal::mle(&[1.0, 2.0, 3.0]).unwrap();
    /// assert!((fit.mean() - 2.0).abs() < 1e-12);
    /// ```
    pub fn mle(samples: &[f64]) -> Result<Self, StatsError> {
        Normal::mle_iter(samples.len(), samples.iter().copied())
    }

    /// [`Normal::mle`] over the `len` values `samples` yields, read in the
    /// same two passes and sum order (so the fit is bit-identical to
    /// [`Normal::mle`] over those values collected): samples that are not
    /// one slice, such as one component of each of UPA's neighbour outputs,
    /// are fitted without gathering a copy.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] when `len` is 0.
    pub fn mle_iter<I>(len: usize, samples: I) -> Result<Self, StatsError>
    where
        I: Iterator<Item = f64> + Clone,
    {
        if len == 0 {
            return Err(StatsError::EmptySample);
        }
        let n = len as f64;
        let mean = samples.clone().sum::<f64>() / n;
        let var = samples.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Normal::new(mean, var.sqrt())
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The cumulative distribution function.
    ///
    /// For a degenerate distribution (`std_dev == 0`) this is a step
    /// function at the mean.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        norm_cdf((x - self.mean) / self.std_dev)
    }

    /// The quantile function (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    ///
    /// ```
    /// use upa_stats::Normal;
    /// let n = Normal::new(10.0, 2.0).unwrap();
    /// assert!((n.quantile(0.5) - 10.0).abs() < 1e-6);
    /// ```
    pub fn quantile(&self, p: f64) -> f64 {
        if self.std_dev == 0.0 {
            assert!(p > 0.0 && p < 1.0, "quantile: p must be in (0, 1)");
            return self.mean;
        }
        self.mean + self.std_dev * norm_quantile(p)
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        // Box–Muller: u1 in (0, 1], u2 in [0, 1).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mle_matches_hand_computation() {
        let fit = Normal::mle(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((fit.mean() - 5.0).abs() < 1e-12);
        // Population (MLE) standard deviation of this classic sample is 2.
        assert!((fit.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mle_iter_is_mle_over_the_collected_values() {
        let parts: [&[f64]; 2] = [&[0.1, -3.7, 2.2e9], &[1e-300, 0.3, -0.0]];
        let joined: Vec<f64> = parts.concat();
        let fit = Normal::mle_iter(joined.len(), parts.iter().flat_map(|p| p.iter().copied()));
        assert_eq!(fit, Normal::mle(&joined));
        assert_eq!(
            Normal::mle_iter(0, std::iter::empty()),
            Err(StatsError::EmptySample)
        );
    }

    #[test]
    fn mle_rejects_empty() {
        assert_eq!(Normal::mle(&[]), Err(StatsError::EmptySample));
    }

    #[test]
    fn mle_on_constant_sample_is_degenerate() {
        let fit = Normal::mle(&[3.0; 10]).unwrap();
        assert_eq!(fit.std_dev(), 0.0);
        assert_eq!(fit.quantile(0.01), 3.0);
        assert_eq!(fit.quantile(0.99), 3.0);
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn quantile_and_cdf_are_inverse() {
        let n = Normal::new(-3.0, 0.5).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn percentile_range_is_symmetric_about_mean() {
        let n = Normal::new(7.0, 2.0).unwrap();
        let (lo, hi) = (n.quantile(0.01), n.quantile(0.99));
        assert!(((7.0 - lo) - (hi - 7.0)).abs() < 1e-9);
        assert!(lo < 7.0 && hi > 7.0);
    }

    #[test]
    fn sampling_matches_moments() {
        let n = Normal::new(5.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..200_000).map(|_| n.sample(&mut rng)).collect();
        let fit = Normal::mle(&samples).unwrap();
        assert!((fit.mean() - 5.0).abs() < 0.05, "mean {}", fit.mean());
        assert!((fit.std_dev() - 3.0).abs() < 0.05, "std {}", fit.std_dev());
    }

    #[test]
    fn degenerate_cdf_is_step() {
        let n = Normal::new(1.0, 0.0).unwrap();
        assert_eq!(n.cdf(0.999), 0.0);
        assert_eq!(n.cdf(1.0), 1.0);
    }
}
