//! Machine-learning workloads for the UPA evaluation.
//!
//! The paper's Table II evaluates two Spark user-defined queries on a
//! life-science dataset: **KMeans** and **Linear Regression** trained with
//! stochastic gradient descent. Neither is expressible in SQL, which is
//! why FLEX cannot support them and UPA can (UPA only needs the
//! commutative/associative Map/Reduce decomposition of one training
//! step).
//!
//! * [`data`] — a synthetic "life-science" generator: a Gaussian mixture
//!   with a heavy-tailed outlier fraction, standing in for the paper's
//!   proprietary `ds1.10` dataset (see DESIGN.md's substitution table);
//! * [`kmeans`] — Lloyd iterations as Map/Reduce: the mapper assigns a
//!   point to its nearest centroid and emits per-cluster sums, the
//!   reducer adds them, `finalize` produces the updated centroids (the
//!   query output UPA perturbs);
//! * [`linreg`] — one SGD epoch as Map/Reduce: the mapper emits the
//!   per-record gradient, the reducer sums, `finalize` applies the model
//!   update (the paper's §III walk-through example).

pub mod data;
mod fold;
pub mod kmeans;
pub mod linreg;

pub use data::{LifeScienceConfig, LrRecord};
pub use kmeans::KMeans;
pub use linreg::LinearRegression;
