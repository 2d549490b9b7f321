//! Brute-force ground-truth local sensitivity.
//!
//! Definition II.1: `LS_f(x) = max over neighbours y of |f(x) − f(y)|`.
//! The paper's accuracy evaluation (Figure 2(a) and Figure 3) compares
//! inferred sensitivities against this ground truth.
//!
//! Two implementations are provided:
//!
//! * [`exact_local_sensitivity`] — exploits the query's associative
//!   decomposition through the pipeline's own union-preserving reuse
//!   (the routine behind Algorithm 1's neighbour outputs, run with no
//!   un-sampled remainder): all `|x|` removal neighbours in `O(|x|)`
//!   reductions. This is what makes ground truth computable at
//!   10⁵-record scale in this reproduction (the paper ran the genuinely
//!   black-box version on a cluster).
//! * [`blackbox_local_sensitivity`] — the literal brute force the paper
//!   describes: re-evaluates the query from scratch per neighbour,
//!   `O(|x|²)`. Used on small inputs to cross-validate the fast path and
//!   by the Figure 4 harness to report the brute-force cost model.

use crate::domain::DomainSampler;
use crate::output::DpOutput;
use crate::pipeline::neighbour_outputs;
use crate::query::MapReduceQuery;
use dataflow::{Context, Data};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ground-truth neighbour outputs and the resulting local sensitivity.
#[derive(Debug, Clone)]
pub struct GroundTruth<Out> {
    /// `f(x)`.
    pub output: Out,
    /// `f(x − r)` for **every** record `r` of `x`, in record order.
    pub removal_outputs: Vec<Out>,
    /// `f(x + d)` for sampled domain records `d`.
    pub addition_outputs: Vec<Out>,
    /// `max |f(x) − f(y)|` (L∞ over components) across all neighbours.
    pub local_sensitivity: f64,
}

impl<Out: DpOutput> GroundTruth<Out> {
    fn from_outputs(output: Out, removal_outputs: Vec<Out>, addition_outputs: Vec<Out>) -> Self {
        let local_sensitivity = removal_outputs
            .iter()
            .chain(addition_outputs.iter())
            .map(|o| output.distance(o))
            .fold(0.0, f64::max);
        GroundTruth {
            output,
            removal_outputs,
            addition_outputs,
            local_sensitivity,
        }
    }

    /// The extreme (min, max) per component across all neighbour outputs —
    /// the blue lines of the paper's Figure 3.
    pub fn neighbour_extremes(&self) -> Vec<(f64, f64)> {
        let dims = self.output.components().len();
        let mut extremes = vec![(f64::INFINITY, f64::NEG_INFINITY); dims];
        for o in self
            .removal_outputs
            .iter()
            .chain(self.addition_outputs.iter())
        {
            for (c, &v) in o.components().iter().enumerate() {
                if c < dims {
                    extremes[c].0 = extremes[c].0.min(v);
                    extremes[c].1 = extremes[c].1.max(v);
                }
            }
        }
        extremes
    }
}

/// Exact local sensitivity using associative reuse: every removal
/// neighbour of `x` plus `domain_samples` sampled additions, through the
/// pipeline's own union-preserving reuse with no un-sampled remainder —
/// every record of `x` is a differing record.
///
/// `domain_samples` controls how many addition neighbours are evaluated
/// (the removal side is always exhaustive; the addition side of `D \ x` is
/// infinite in general and must be sampled). The neighbour outputs run
/// through `ctx`'s [`Context::par_map`].
pub fn exact_local_sensitivity<T, Acc, Out>(
    ctx: &Context,
    records: &[T],
    query: &MapReduceQuery<T, Acc, Out>,
    domain: &dyn DomainSampler<T>,
    domain_samples: usize,
    seed: u64,
) -> GroundTruth<Out>
where
    T: Data,
    Acc: Data,
    Out: DpOutput,
{
    let mapped: Vec<Acc> = records.iter().map(|r| query.map(r)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let additions: Vec<Acc> = domain
        .sample_n(&mut rng, domain_samples)
        .iter()
        .map(|d| query.map(d))
        .collect();
    let (output, removal_outputs, addition_outputs) =
        neighbour_outputs(ctx, query, None, &mapped, additions);
    GroundTruth::from_outputs(output, removal_outputs, addition_outputs)
}

/// Literal brute force: re-evaluates the query from scratch for each
/// neighbour (`O(|x|²)` mapper/reducer applications). Use only on small
/// inputs; exists to validate [`exact_local_sensitivity`] and to measure
/// the brute-force cost the paper contrasts against.
pub fn blackbox_local_sensitivity<T, Acc, Out>(
    records: &[T],
    query: &MapReduceQuery<T, Acc, Out>,
    domain: &dyn DomainSampler<T>,
    domain_samples: usize,
    seed: u64,
) -> GroundTruth<Out>
where
    T: Data,
    Acc: Data,
    Out: DpOutput,
{
    let output = query.evaluate_slice(records);
    let removal_outputs: Vec<Out> = (0..records.len())
        .map(|i| {
            let mut without: Vec<T> = Vec::with_capacity(records.len() - 1);
            without.extend_from_slice(&records[..i]);
            without.extend_from_slice(&records[i + 1..]);
            query.evaluate_slice(&without)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let addition_outputs: Vec<Out> = domain
        .sample_n(&mut rng, domain_samples)
        .into_iter()
        .map(|d| {
            let mut with: Vec<T> = records.to_vec();
            with.push(d);
            query.evaluate_slice(&with)
        })
        .collect();
    GroundTruth::from_outputs(output, removal_outputs, addition_outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::EmpiricalSampler;

    fn ctx() -> Context {
        Context::with_threads(2)
    }

    #[test]
    fn fast_path_matches_blackbox() {
        let data: Vec<f64> = (0..60).map(|i| ((i * 13) % 17) as f64).collect();
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x * 2.0);
        let domain = EmpiricalSampler::new(data.clone());
        let fast = exact_local_sensitivity(&ctx(), &data, &query, &domain, 20, 7);
        let slow = blackbox_local_sensitivity(&data, &query, &domain, 20, 7);
        assert!((fast.output - slow.output).abs() < 1e-9);
        assert_eq!(fast.removal_outputs.len(), slow.removal_outputs.len());
        for (a, b) in fast.removal_outputs.iter().zip(slow.removal_outputs.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in fast
            .addition_outputs
            .iter()
            .zip(slow.addition_outputs.iter())
        {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((fast.local_sensitivity - slow.local_sensitivity).abs() < 1e-9);
    }

    #[test]
    fn count_query_has_unit_sensitivity() {
        let data = vec![0.0; 100];
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_: &f64| 1.0);
        let domain = EmpiricalSampler::new(data.clone());
        let gt = exact_local_sensitivity(&ctx(), &data, &query, &domain, 10, 1);
        assert!((gt.local_sensitivity - 1.0).abs() < 1e-12);
        assert_eq!(gt.output, 100.0);
    }

    #[test]
    fn sensitivity_reflects_extreme_record() {
        // One outlier record of value 1000 dominates the removal side.
        let mut data = vec![1.0; 50];
        data.push(1000.0);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(vec![1.0]);
        let gt = exact_local_sensitivity(&ctx(), &data, &query, &domain, 5, 1);
        assert!((gt.local_sensitivity - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn neighbour_extremes_bracket_all_outputs() {
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data.clone());
        let gt = exact_local_sensitivity(&ctx(), &data, &query, &domain, 10, 3);
        let (lo, hi) = gt.neighbour_extremes()[0];
        for o in gt.removal_outputs.iter().chain(gt.addition_outputs.iter()) {
            assert!(*o >= lo && *o <= hi);
        }
        assert!(lo < hi);
    }

    #[test]
    fn empty_dataset_has_empty_removals() {
        let data: Vec<f64> = Vec::new();
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(vec![2.0]);
        let gt = exact_local_sensitivity(&ctx(), &data, &query, &domain, 4, 1);
        assert!(gt.removal_outputs.is_empty());
        assert_eq!(gt.addition_outputs.len(), 4);
        assert!((gt.local_sensitivity - 2.0).abs() < 1e-12);
    }
}
