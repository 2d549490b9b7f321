//! The Laplace distribution and the Laplace mechanism.
//!
//! UPA's final release step (Algorithm 1, output line) adds
//! `Lap(localSen / ε)` noise to the (range-enforced) query output. This
//! module provides the distribution itself plus a small mechanism helper
//! that captures the `scale = sensitivity / epsilon` calibration.

use crate::StatsError;
use rand::Rng;

/// A Laplace distribution with location `mu` and scale `b > 0`.
///
/// ```
/// use upa_stats::Laplace;
/// let l = Laplace::new(0.0, 1.0).unwrap();
/// assert!((l.cdf(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    location: f64,
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `scale` is not a finite
    /// positive number or `location` is not finite.
    pub fn new(location: f64, scale: f64) -> Result<Self, StatsError> {
        if !location.is_finite() {
            return Err(StatsError::InvalidParameter("location"));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter("scale"));
        }
        Ok(Laplace { location, scale })
    }

    /// The location (median/mean) parameter.
    pub fn location(&self) -> f64 {
        self.location
    }

    /// The scale parameter `b`; the variance is `2b²`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Probability density function.
    pub fn pdf(&self, x: f64) -> f64 {
        (-((x - self.location).abs()) / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Draws one sample by inverse-CDF transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-1/2, 1/2); clamp away from the singular endpoints.
        let u: f64 = rng.gen::<f64>() - 0.5;
        let u = u.clamp(-0.499_999_999, 0.499_999_999);
        self.location - self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

/// The Laplace *mechanism*: noise calibrated as `sensitivity / epsilon`.
///
/// A zero sensitivity (which UPA produces when every sampled neighbouring
/// dataset yields exactly the same output) degenerates to releasing the
/// exact value — the mechanism is still ε-iDP because the output is
/// constant across neighbouring datasets within the enforced range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    sensitivity: f64,
    epsilon: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism for the given sensitivity and privacy budget.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `epsilon` is not a finite
    /// positive number, or `sensitivity` is negative or non-finite.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self, StatsError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(StatsError::InvalidParameter("epsilon"));
        }
        if !sensitivity.is_finite() || sensitivity < 0.0 {
            return Err(StatsError::InvalidParameter("sensitivity"));
        }
        Ok(LaplaceMechanism {
            sensitivity,
            epsilon,
        })
    }

    /// The sensitivity this mechanism was calibrated for.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The Laplace noise scale `sensitivity / epsilon`.
    pub fn noise_scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Releases `value + Lap(sensitivity / epsilon)`.
    pub fn release<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        let b = self.noise_scale();
        if b == 0.0 {
            return value;
        }
        // Safe: b is finite and positive here.
        Laplace::new(0.0, b).expect("valid scale").sample(rng) + value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
        assert!(Laplace::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let l = Laplace::new(1.0, 2.0).unwrap();
        let mut prev = 0.0;
        for i in -100..=100 {
            let c = l.cdf(i as f64 / 5.0);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let l = Laplace::new(0.0, 1.5).unwrap();
        // Trapezoidal integration over a wide interval.
        let (a, b, steps) = (-60.0f64, 60.0f64, 200_000);
        let h = (b - a) / steps as f64;
        let mut total = 0.0;
        for i in 0..steps {
            let x0 = a + i as f64 * h;
            total += 0.5 * (l.pdf(x0) + l.pdf(x0 + h)) * h;
        }
        assert!((total - 1.0).abs() < 1e-6, "integral = {total}");
    }

    #[test]
    fn sampling_matches_distribution() {
        let l = Laplace::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| l.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        // Var = 2 b^2 = 8.
        assert!((var - 8.0).abs() < 0.3, "var {var}");
        // Empirical CDF at the median.
        let below = samples.iter().filter(|&&x| x < 3.0).count() as f64 / n as f64;
        assert!((below - 0.5).abs() < 0.01);
    }

    #[test]
    fn mechanism_scale_and_zero_sensitivity() {
        let m = LaplaceMechanism::new(2.0, 0.1).unwrap();
        assert!((m.noise_scale() - 20.0).abs() < 1e-12);
        let exact = LaplaceMechanism::new(0.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(exact.release(42.0, &mut rng), 42.0);
    }

    #[test]
    fn mechanism_rejects_bad_parameters() {
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(-1.0, 0.1).is_err());
        assert!(LaplaceMechanism::new(f64::INFINITY, 0.1).is_err());
    }

    /// The textbook Laplace-mechanism DP bound, checked empirically: the
    /// probability ratio of landing in any interval under two inputs that
    /// differ by at most the sensitivity must be bounded by e^ε.
    #[test]
    fn empirical_dp_ratio_bound() {
        let sensitivity = 1.0;
        let epsilon = 0.5;
        let m = LaplaceMechanism::new(sensitivity, epsilon).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400_000;
        let f_x = 0.0;
        let f_y = 1.0; // neighbouring output, |f(x)-f(y)| = sensitivity
        let hist = |center: f64, rng: &mut StdRng| {
            let mut counts = [0usize; 40];
            for _ in 0..n {
                let v = m.release(center, rng);
                let bin = (((v + 10.0) / 0.5) as isize).clamp(0, 39) as usize;
                counts[bin] += 1;
            }
            counts
        };
        let hx = hist(f_x, &mut rng);
        let hy = hist(f_y, &mut rng);
        for (cx, cy) in hx.iter().zip(hy.iter()) {
            // Only test bins with enough mass for the empirical ratio to be
            // meaningful.
            if *cx > 2_000 && *cy > 2_000 {
                let ratio = *cx as f64 / *cy as f64;
                assert!(
                    ratio < (epsilon.exp()) * 1.15 && ratio > (-epsilon).exp() / 1.15,
                    "ratio {ratio} outside e^±ε band"
                );
            }
        }
    }
}
