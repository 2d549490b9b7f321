//! Statistics substrate for the UPA reproduction.
//!
//! UPA (DSN 2020, §IV-A) infers a local-sensitivity value by fitting a
//! normal distribution to the outputs of a query on sampled neighbouring
//! datasets via maximum-likelihood estimation, and then taking the
//! difference between the 1st and 99th percentiles of that distribution.
//! The released output is perturbed with Laplace noise calibrated to that
//! sensitivity.
//!
//! This crate provides, from scratch (no third-party numerics):
//!
//! * [`exact`] — [`ExactSum`], an exact, invertible sum of `f64` values
//!   rounded once at the end;
//! * [`erf`] — error function, complementary error function and the inverse
//!   normal CDF used for percentile computation;
//! * [`normal`] — the [`normal::Normal`] distribution with MLE fitting,
//!   CDF/quantiles and sampling;
//! * [`laplace`] — the [`laplace::Laplace`] distribution and the Laplace
//!   mechanism used for the final iDP release;
//! * [`sampling`] — uniform sampling without replacement and a bounded
//!   Zipf sampler (used by the TPC-H generator to create skewed join
//!   keys);
//! * [`rmse`] — the error metrics reported in the paper's Figure 2(a).
//!
//! # Example
//!
//! ```
//! use upa_stats::normal::Normal;
//!
//! // Fit a normal distribution to neighbour outputs by MLE and read the
//! // P1/P99 range that UPA uses as the enforced output range.
//! let outputs = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9];
//! let fit = Normal::mle(&outputs).expect("non-empty sample");
//! let (lo, hi) = (fit.quantile(0.01), fit.quantile(0.99));
//! assert!(lo < hi);
//! ```

pub mod erf;
pub mod exact;
pub mod ks;
pub mod laplace;
pub mod normal;
pub mod rmse;
pub mod sampling;

pub use exact::ExactSum;
pub use laplace::{Laplace, LaplaceMechanism};
pub use normal::Normal;

/// Error type for statistics routines that require non-degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty.
    EmptySample,
    /// A parameter was invalid (e.g. non-positive scale, probability
    /// outside `(0, 1)`). The payload names the offending parameter.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "empty sample"),
            StatsError::InvalidParameter(name) => write!(f, "invalid parameter: {name}"),
        }
    }
}

impl std::error::Error for StatsError {}
