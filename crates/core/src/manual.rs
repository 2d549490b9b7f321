//! The manual-range baseline (Airavat / GUPT / PINQ style, paper §IV-B
//! and §VII).
//!
//! Before UPA, DP data-mining systems required the **data analyst** to
//! supply an output range `Ô_f` for each query; the system clamps the
//! output into the range and derives a global-sensitivity bound
//! `max(Ô_f) − min(Ô_f)` from it. The guarantee is the same construction
//! UPA's RANGE ENFORCER automates — but the range must cover every
//! possible dataset (it is a *global* bound), so a safe manual range is
//! far wider than UPA's inferred local range and the added noise
//! correspondingly larger. The ablation benchmark compares the two.

use crate::error::UpaError;
use crate::output::{DpOutput, OutputRange};
use crate::query::MapReduceQuery;
use dataflow::{Data, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use upa_stats::LaplaceMechanism;

/// A manual-range DP release.
#[derive(Debug, Clone)]
pub struct ManualRelease<Out> {
    /// The noisy value released to the analyst.
    pub released: Out,
    /// The clamped (pre-noise) output.
    pub clamped: Out,
    /// The exact output `f(x)`.
    pub raw: Out,
    /// The global sensitivity derived from the manual range.
    pub sensitivity: Vec<f64>,
}

/// The Airavat/GUPT-style mechanism: analyst-supplied range, derived
/// global sensitivity, Laplace noise.
#[derive(Debug, Clone)]
pub struct ManualRangeMechanism {
    range: OutputRange,
    epsilon: f64,
    rng: StdRng,
}

impl ManualRangeMechanism {
    /// Creates a mechanism for the analyst-declared output `range` and
    /// budget ε.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon` is a positive finite number.
    pub fn new(range: OutputRange, epsilon: f64, seed: u64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive"
        );
        ManualRangeMechanism {
            range,
            epsilon,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The declared range.
    pub fn range(&self) -> &OutputRange {
        &self.range
    }

    /// The derived global sensitivity (per component: the range width).
    pub fn sensitivity(&self) -> Vec<f64> {
        self.range.widths()
    }

    /// Evaluates `query` on `data` with the engine and releases it under
    /// DP: clamp into the declared range, add Laplace noise of scale
    /// `width/ε`.
    ///
    /// # Errors
    ///
    /// Returns [`UpaError::InvalidConfig`] if the query output dimension
    /// does not match the declared range.
    pub fn run<T, Acc, Out>(
        &mut self,
        data: &Dataset<T>,
        query: &MapReduceQuery<T, Acc, Out>,
    ) -> Result<ManualRelease<Out>, UpaError>
    where
        T: Data,
        Acc: Data,
        Out: DpOutput,
    {
        let mapper = query.mapper();
        let reducer = query.reducer();
        let acc = data
            .map(move |t| mapper(t))
            .reduce(move |a, b| reducer(a, b));
        let raw = query.finalize(acc.as_ref());
        let mut components = raw.components();
        if components.len() != self.range.dim() {
            return Err(UpaError::InvalidConfig("manual range dimension"));
        }
        self.range.constrain(&mut components, &mut self.rng);
        let clamped = Out::from_components(components.clone());
        let released = Out::from_components(
            components
                .iter()
                .zip(self.range.widths())
                .map(|(&v, width)| {
                    LaplaceMechanism::new(width, self.epsilon)
                        .expect("validated parameters")
                        .release(v, &mut self.rng)
                })
                .collect(),
        );
        Ok(ManualRelease {
            released,
            clamped,
            raw,
            sensitivity: self.sensitivity(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::Context;

    fn count_query() -> MapReduceQuery<f64, f64, f64> {
        MapReduceQuery::scalar_sum("count", |_x: &f64| 1.0)
    }

    #[test]
    fn releases_within_noise_of_truth() {
        let ctx = Context::with_threads(2);
        let data: Vec<f64> = vec![0.0; 5_000];
        let ds = ctx.parallelize(data, 4);
        // Analyst knows counts lie in [0, 10_000].
        let mut mech = ManualRangeMechanism::new(OutputRange::new(vec![(0.0, 10_000.0)]), 1.0, 1);
        let r = mech.run(&ds, &count_query()).unwrap();
        assert_eq!(r.raw, 5_000.0);
        assert_eq!(r.clamped, 5_000.0);
        assert_eq!(r.sensitivity, vec![10_000.0]);
        // Noise scale 10_000; the release is perturbed but finite.
        assert!(r.released.is_finite());
        assert_ne!(r.released, r.raw);
    }

    #[test]
    fn out_of_range_outputs_are_clamped() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(vec![0.0; 100], 2);
        // Analyst under-declared the range: output is clamped into it, so
        // the DP guarantee holds even though utility is destroyed.
        let mut mech = ManualRangeMechanism::new(OutputRange::new(vec![(0.0, 10.0)]), 1.0, 2);
        let r = mech.run(&ds, &count_query()).unwrap();
        assert_eq!(r.raw, 100.0);
        assert!((0.0..=10.0).contains(&r.clamped));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(vec![1.0], 1);
        let mut mech =
            ManualRangeMechanism::new(OutputRange::new(vec![(0.0, 1.0), (0.0, 1.0)]), 1.0, 3);
        assert!(mech.run(&ds, &count_query()).is_err());
    }

    /// The accuracy gap the ablation bench demonstrates: a *safe* manual
    /// global range is orders of magnitude wider than UPA's inferred
    /// local range, so its noise is orders of magnitude larger.
    #[test]
    fn manual_noise_dwarfs_upa_noise() {
        let ctx = Context::with_threads(2);
        let data: Vec<f64> = (0..5_000).map(|i| (i % 10) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        // UPA run.
        let upa = crate::pipeline::Upa::new(
            ctx.clone(),
            crate::UpaConfig {
                sample_size: 100,
                add_noise: false,
                ..crate::UpaConfig::default()
            },
        );
        let domain = crate::domain::EmpiricalSampler::new(data);
        let upa_result = upa.run(&ds, &count_query(), &domain).unwrap();
        // A safe manual range for "count of any dataset this size".
        let manual_width = 1_000_000.0;
        assert!(
            manual_width / upa_result.max_sensitivity() > 1e4,
            "manual global bound should be >4 orders wider than UPA's local one"
        );
    }
}
