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
    /// Starts a validating builder seeded with the paper's defaults.
    ///
    /// Unlike struct-update syntax, [`UpaConfigBuilder::build`] rejects
    /// invalid settings (`sample_size == 0`, non-positive or non-finite
    /// ε, `group_size == 0`)
    /// with [`crate::UpaError::InvalidConfig`] instead of letting them
    /// reach the pipeline.
    ///
    /// ```
    /// use upa_core::UpaConfig;
    /// let config = UpaConfig::builder()
    ///     .sample_size(200)
    ///     .epsilon(0.5)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.sample_size, 200);
    /// assert!(UpaConfig::builder().epsilon(-1.0).build().is_err());
    /// ```
    pub fn builder() -> UpaConfigBuilder {
        UpaConfigBuilder {
            config: UpaConfig::default(),
        }
    }

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

/// Builder for [`UpaConfig`] returned by [`UpaConfig::builder`]; `build`
/// validates before handing the configuration out.
#[derive(Debug, Clone)]
pub struct UpaConfigBuilder {
    config: UpaConfig,
}

impl UpaConfigBuilder {
    /// Sets the number of sampled differing records `n`.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n;
        self
    }

    /// Sets the per-query privacy budget ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables or disables the final Laplace noise. The release is not
    /// differentially private with noise disabled.
    pub fn add_noise(mut self, add_noise: bool) -> Self {
        self.config.add_noise = add_noise;
        self
    }

    /// Sets the group size `g` for group-level privacy.
    pub fn group_size(mut self, g: usize) -> Self {
        self.config.group_size = g;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::UpaError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn build(self) -> Result<UpaConfig, crate::UpaError> {
        self.config.validate()?;
        Ok(self.config)
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
        let mut c = UpaConfig {
            sample_size: 0,
            ..UpaConfig::default()
        };
        assert!(c.validate().is_err());
        c.sample_size = 10;
        c.epsilon = 0.0;
        assert!(c.validate().is_err());
        c.epsilon = 0.1;
        c.group_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_applies_settings_and_validates() {
        let c = UpaConfig::builder()
            .sample_size(250)
            .epsilon(0.5)
            .seed(7)
            .add_noise(false)
            .group_size(2)
            .build()
            .unwrap();
        assert_eq!(c.sample_size, 250);
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.seed, 7);
        assert!(!c.add_noise);
        assert_eq!(c.group_size, 2);
    }

    #[test]
    fn builder_rejects_invalid_settings() {
        use crate::UpaError;
        for (builder, field) in [
            (UpaConfig::builder().sample_size(0), "sample_size"),
            (UpaConfig::builder().epsilon(0.0), "epsilon"),
            (UpaConfig::builder().epsilon(f64::NAN), "epsilon"),
            (UpaConfig::builder().group_size(0), "group_size"),
        ] {
            match builder.build() {
                Err(UpaError::InvalidConfig(f)) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(UpaConfig::builder().build().unwrap(), UpaConfig::default());
    }
}
