//! UPA configuration.

/// Configuration of the UPA pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct UpaConfig {
    /// Number of sampled differing records `n`. The paper defaults to
    /// 1000, which statistics theory shows is sufficient for the MLE
    /// normal fit (§IV-A); for datasets smaller than `n` the pipeline
    /// automatically samples every record, obtaining the exact local
    /// sensitivity.
    pub sample_size: usize,
    /// Privacy budget ε per query. The paper's evaluation uses 0.1
    /// (matching FLEX's setup).
    pub epsilon: f64,
    /// RNG seed for sampling, range clamping and noise — fixed for
    /// reproducible experiments.
    pub seed: u64,
    /// Whether the final Laplace noise is added. Disabled only by the
    /// accuracy harness, which needs the pre-noise sensitivity values; the
    /// release is **not** differentially private with noise disabled.
    pub add_noise: bool,
    /// Group size `g` for group-level privacy (the paper's §VI-E future
    /// work). With `g > 1`, neighbouring datasets differ by up to `g`
    /// records: the sampled differing records are evaluated in disjoint
    /// groups of `g`, so the inferred sensitivity covers the joint
    /// influence of `g` records. The default 1 is the paper's iDP
    /// setting.
    pub group_size: usize,
}

impl Default for UpaConfig {
    fn default() -> Self {
        UpaConfig {
            sample_size: 1000,
            epsilon: 0.1,
            seed: 0xDA7A,
            add_noise: true,
            group_size: 1,
        }
    }
}

impl UpaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::UpaError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), crate::UpaError> {
        if self.sample_size == 0 {
            return Err(crate::UpaError::InvalidConfig("sample_size"));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(crate::UpaError::InvalidConfig("epsilon"));
        }
        if self.group_size == 0 {
            return Err(crate::UpaError::InvalidConfig("group_size"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = UpaConfig::default();
        assert_eq!(c.sample_size, 1000);
        assert_eq!(c.epsilon, 0.1);
        assert!(c.add_noise);
        assert_eq!(c.group_size, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_flags_each_field() {
        use crate::UpaError;
        type Row = (fn(&mut UpaConfig), &'static str);
        let rows: [Row; 5] = [
            (|c| c.sample_size = 0, "sample_size"),
            (|c| c.epsilon = 0.0, "epsilon"),
            (|c| c.epsilon = -1.0, "epsilon"),
            (|c| c.epsilon = f64::NAN, "epsilon"),
            (|c| c.group_size = 0, "group_size"),
        ];
        for (edit, field) in rows {
            let mut c = UpaConfig::default();
            edit(&mut c);
            match c.validate() {
                Err(UpaError::InvalidConfig(f)) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
    }

    /// Callers build configurations with struct-update syntax, which does
    /// not validate; `Upa::prepare` refuses each invalid setting, naming
    /// the field, before it samples or touches the data.
    #[test]
    fn builder_rejects_invalid_settings() {
        use crate::domain::EmpiricalSampler;
        use crate::query::MapReduceQuery;
        use crate::{Upa, UpaError};
        let ctx = dataflow::Context::with_threads(2);
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let ds = ctx.parallelize(data.clone(), 2);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        for (config, field) in [
            (
                UpaConfig {
                    sample_size: 0,
                    ..UpaConfig::default()
                },
                "sample_size",
            ),
            (
                UpaConfig {
                    epsilon: 0.0,
                    ..UpaConfig::default()
                },
                "epsilon",
            ),
            (
                UpaConfig {
                    epsilon: f64::NAN,
                    ..UpaConfig::default()
                },
                "epsilon",
            ),
            (
                UpaConfig {
                    group_size: 0,
                    ..UpaConfig::default()
                },
                "group_size",
            ),
        ] {
            let upa = Upa::new(ctx.clone(), config);
            match upa.prepare(&ds, &query, &domain) {
                Err(UpaError::InvalidConfig(f)) => assert_eq!(f, field),
                Err(other) => panic!("expected InvalidConfig({field}), got {other:?}"),
                Ok(_) => panic!("expected InvalidConfig({field}), got a prepared query"),
            }
        }
    }
}
