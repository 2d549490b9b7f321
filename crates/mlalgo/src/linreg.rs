//! Linear Regression by gradient descent, as a Map/Reduce query.
//!
//! This is the paper's §III walk-through: the mapper computes an SGD
//! gradient per record, the reducer sums gradients, and the final model
//! update is the query output that UPA perturbs. One epoch = one UPA
//! query; training under DP splits the ε budget across epochs. The
//! query's fused kernel and [`LinearRegression::step_plain`] add each
//! record's gradient into a running sum in place instead (see
//! [`crate::fold`]).

use crate::data::LrRecord;
use crate::fold::{fold_plain, step_query, InPlaceStep};
use dataflow::Dataset;
use upa_core::query::MapReduceQuery;

/// A linear model (last weight is the bias) and its training step.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    weights: Vec<f64>,
    learning_rate: f64,
}

/// Accumulator of one epoch: gradient sum plus record count.
pub type LrAcc = (Vec<f64>, u64);

impl LinearRegression {
    /// Creates a model with zero weights for `dims` features.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not a positive finite number.
    pub fn new(dims: usize, learning_rate: f64) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        LinearRegression {
            weights: vec![0.0; dims + 1],
            learning_rate,
        }
    }

    /// The current weights (bias last).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Overwrites the weights (e.g. with a noisy update from UPA).
    ///
    /// # Panics
    ///
    /// Panics if the dimension changes.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.weights.len(), "dimension mismatch");
        self.weights = weights;
    }

    /// Prediction for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not have the model's dimension.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let dims = self.weights.len() - 1;
        assert!(
            features.len() == dims,
            "record has width {}, model has width {}",
            features.len(),
            dims
        );
        features
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
            + self.weights[dims]
    }

    /// `pred − y`: the factor every gradient component of `r` shares.
    fn residual(&self, r: &LrRecord) -> f64 {
        self.predict(&r.features) - r.target
    }

    /// Mean squared error over a slice.
    pub fn mse(&self, records: &[LrRecord]) -> f64 {
        if records.is_empty() {
            return 0.0;
        }
        records
            .iter()
            .map(|r| {
                let e = self.residual(r);
                e * e
            })
            .sum::<f64>()
            / records.len() as f64
    }

    /// One full-batch gradient epoch as a Map/Reduce query: the output is
    /// the **updated weight vector** `w − lr · ∇/n` — the value a data
    /// analyst receives, and therefore the value UPA protects.
    ///
    /// # Panics
    ///
    /// Evaluating the query panics on a record whose dimension is not the
    /// model's.
    pub fn step_query(&self, name: impl Into<String>) -> MapReduceQuery<LrRecord, LrAcc, Vec<f64>> {
        let w = self.weights.clone();
        let lr = self.learning_rate;
        step_query(self, name, move |acc: Option<&LrAcc>| match acc {
            Some((grad, n)) if *n > 0 => w
                .iter()
                .zip(grad)
                .map(|(wi, g)| wi - lr * g / *n as f64)
                .collect(),
            _ => w.clone(),
        })
    }

    /// One non-private epoch over a dataset (the vanilla Spark baseline);
    /// returns the updated weights without mutating `self`.
    pub fn step_plain(&self, data: &Dataset<LrRecord>) -> Vec<f64> {
        self.step_query("linreg_epoch")
            .finalize(fold_plain(self, data).as_ref())
    }

    /// Trains for `epochs` non-private epochs (reference/testing helper).
    pub fn fit(&mut self, data: &Dataset<LrRecord>, epochs: usize) {
        for _ in 0..epochs {
            let w = self.step_plain(data);
            self.set_weights(w);
        }
    }
}

impl InPlaceStep for LinearRegression {
    type Record = LrRecord;
    type Acc = LrAcc;

    /// The gradient of squared error, `(pred − y) · [x, 1]`, and a count
    /// of one.
    fn map(&self, r: &LrRecord) -> LrAcc {
        let err = self.residual(r);
        let mut g = Vec::with_capacity(self.weights.len());
        g.extend(r.features.iter().map(|x| err * x));
        g.push(err); // bias gradient
        (g, 1)
    }

    fn add(&self, (grad, n): &mut LrAcc, r: &LrRecord) {
        let err = self.residual(r);
        let (bias, weights) = grad.split_last_mut().expect("a gradient has a bias slot");
        for (g, x) in weights.iter_mut().zip(&r.features) {
            *g += err * x;
        }
        *bias += err;
        *n += 1;
    }

    fn reduce(a: &LrAcc, b: &LrAcc) -> LrAcc {
        (
            a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect(),
            a.1 + b.1,
        )
    }

    fn half_key(r: &LrRecord) -> u64 {
        crate::data::point_key(&r.features) ^ r.target.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_regression, LifeScienceConfig};
    use crate::fold::tests::assert_kernel_matches_generic;
    use dataflow::Context;

    fn small_data() -> (Vec<LrRecord>, Vec<f64>) {
        generate_regression(&LifeScienceConfig {
            records: 2_000,
            dims: 3,
            outlier_fraction: 0.0,
            ..LifeScienceConfig::default()
        })
    }

    #[test]
    fn training_reduces_mse() {
        let (records, _w) = small_data();
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize(records.clone(), 4);
        let mut model = LinearRegression::new(3, 0.05);
        let before = model.mse(&records);
        model.fit(&ds, 50);
        let after = model.mse(&records);
        assert!(
            after < before / 10.0,
            "training must reduce MSE ({before} -> {after})"
        );
    }

    #[test]
    fn training_recovers_hidden_model() {
        let (records, true_w) = small_data();
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize(records, 4);
        let mut model = LinearRegression::new(3, 0.1);
        model.fit(&ds, 200);
        for (wi, ti) in model.weights().iter().zip(&true_w) {
            assert!(
                (wi - ti).abs() < 0.2,
                "weights {:?} vs true {:?}",
                model.weights(),
                true_w
            );
        }
    }

    #[test]
    fn step_query_matches_plain_step() {
        let (records, _w) = small_data();
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(records.clone(), 4);
        let model = LinearRegression::new(3, 0.05);
        let plain = model.step_plain(&ds);
        let slice = model.step_query("epoch").evaluate_slice(&records);
        for (a, b) in plain.iter().zip(&slice) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_epoch_keeps_weights() {
        let model = LinearRegression::new(2, 0.1);
        let q = model.step_query("epoch");
        assert_eq!(q.evaluate_slice(&[]), model.weights());
    }

    #[test]
    fn neighbouring_datasets_change_the_model() {
        // The motivation for enforcing iDP on LR (§III): the updated model
        // differs between neighbouring datasets.
        let (records, _w) = small_data();
        let model = LinearRegression::new(3, 0.05);
        let q = model.step_query("epoch");
        let full = q.evaluate_slice(&records);
        let without_last = q.evaluate_slice(&records[..records.len() - 1]);
        assert_ne!(full, without_last);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn set_weights_rejects_wrong_dims() {
        let mut m = LinearRegression::new(3, 0.1);
        m.set_weights(vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_learning_rate_rejected() {
        let _ = LinearRegression::new(3, 0.0);
    }

    fn record(features: &[f64], target: f64) -> LrRecord {
        LrRecord {
            features: features.to_vec(),
            target,
        }
    }

    #[test]
    #[should_panic(expected = "record has width 3, model has width 2")]
    fn wider_record_rejected() {
        // Before the check, the third feature's gradient landed in the
        // bias slot: [0.3, 0.6, 0.9] instead of failing.
        let model = LinearRegression::new(2, 0.1);
        let _ = model
            .step_query("epoch")
            .evaluate_slice(&[record(&[1.0, 2.0], 3.0), record(&[1.0, 2.0, 5.0], 3.0)]);
    }

    #[test]
    #[should_panic(expected = "record has width 1, model has width 2")]
    fn narrower_record_rejected() {
        let model = LinearRegression::new(2, 0.1);
        let _ = model
            .step_query("epoch")
            .evaluate_slice(&[record(&[1.0], 3.0), record(&[1.0, 2.0], 3.0)]);
    }

    fn acc_bits((grad, n): &LrAcc) -> Vec<u64> {
        grad.iter().map(|x| x.to_bits()).chain([*n]).collect()
    }

    #[test]
    fn fused_kernel_matches_the_generic_fold() {
        let mut model = LinearRegression::new(2, 0.1);
        model.set_weights(vec![0.5, -0.25, 0.125]);
        let q = model.step_query("epoch");
        let finite: Vec<LrRecord> = (0..97)
            .map(|i| {
                let x = ((i * 37) % 101) as f64 * 0.11 - 5.5 + 1.0 / (i + 1) as f64;
                record(&[x, 1.0 - x * 0.5], (i % 7) as f64 / 3.0 - 1.0)
            })
            .collect();
        // A positive residual times a `-0.0` feature opens a half with a
        // `-0.0` gradient; the `+0.0` features after it turn it to `+0.0`.
        let mut signed_zero = vec![record(&[-0.0, 1.0], -1.0); 4];
        signed_zero.extend((0..59).map(|i| match i % 3 {
            0 => record(&[0.0, 2.0], -1.0 - i as f64),
            1 => record(&[-0.0, -0.0], -0.0),
            _ => record(&[0.0, -0.0], 0.5),
        }));
        // `inf · w` residuals, `inf - inf` and `0 · inf` gradients: the
        // default NaN is the only NaN payload.
        let mut infinite = finite.clone();
        for (i, r) in [
            record(&[f64::INFINITY, 1.0], 0.0),
            record(&[f64::NEG_INFINITY, 2.0], 1.0),
            record(&[3.0, f64::NEG_INFINITY], 0.0),
            record(&[0.0, f64::INFINITY], f64::INFINITY),
            record(&[-0.0, 1.0], f64::NEG_INFINITY),
        ]
        .into_iter()
        .enumerate()
        {
            infinite.insert(i * 17 + 2, r);
        }
        // One NaN payload only: which payload a sum of two NaNs keeps is
        // left open by Rust.
        let mut nan = finite.clone();
        nan.insert(11, record(&[f64::NAN, 1.0], 0.0));
        let mut cases = vec![finite, signed_zero.clone(), infinite, nan];
        // Short runs, the empty one included.
        cases.extend((0..8).map(|len| signed_zero[..len].to_vec()));
        assert_kernel_matches_generic(&model, &q, |ds| model.step_plain(ds), &cases, acc_bits);
    }
}
