//! Synthetic life-science dataset.
//!
//! The paper trains on `ds1.10 Life Science Data` (121 GB), which is not
//! redistributable. The substitution (DESIGN.md) generates a Gaussian
//! mixture with a small heavy-tailed outlier fraction: most records have
//! small influence on the trained model, a few have large influence —
//! the exact property the paper relies on when it argues local
//! sensitivity follows a normal distribution with rare outliers (§IV-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled record for linear regression: features plus target.
#[derive(Debug, Clone, PartialEq)]
pub struct LrRecord {
    /// Feature vector.
    pub features: Vec<f64>,
    /// Regression target.
    pub target: f64,
}

/// Configuration for the synthetic life-science data.
#[derive(Debug, Clone, PartialEq)]
pub struct LifeScienceConfig {
    /// Number of records.
    pub records: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Number of mixture components (KMeans ground-truth clusters).
    pub clusters: usize,
    /// Fraction of records drawn from the heavy-tailed outlier component.
    pub outlier_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LifeScienceConfig {
    fn default() -> Self {
        LifeScienceConfig {
            records: 10_000,
            dims: 4,
            clusters: 3,
            outlier_fraction: 0.01,
            seed: 0xD5_110,
        }
    }
}

/// Stable content key for a feature vector: a deterministic hash of the
/// coordinate bit patterns. Used as the half key of the ML queries (see
/// `MapReduceQuery::new` in `upa-core`).
pub fn point_key(features: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for x in features {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates clustered feature vectors for KMeans.
///
/// Cluster `c` is centred at `(10c, 10c, …)` with unit variance; outliers
/// are scaled by a factor drawn from `[4, 9]` — heavy-tailed but not so
/// extreme that a 1000-record sample cannot see the tail (the regime the
/// paper's §IV-A normality assumption needs).
pub fn generate_points(config: &LifeScienceConfig) -> Vec<Vec<f64>> {
    assert!(config.clusters > 0, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.records)
        .map(|_| {
            let c = rng.gen_range(0..config.clusters) as f64;
            let outlier = rng.gen_bool(config.outlier_fraction);
            let scale = if outlier {
                rng.gen_range(4.0..9.0)
            } else {
                1.0
            };
            (0..config.dims)
                .map(|_| (10.0 * c + gaussian(&mut rng)) * scale)
                .collect()
        })
        .collect()
}

/// Generates labelled records for linear regression.
///
/// Targets follow `y = w*·x + b* + noise` for a hidden model `w*`;
/// outliers have their features scaled, giving them out-sized gradients.
/// Returns `(records, true_weights)` where the last weight is the bias.
pub fn generate_regression(config: &LifeScienceConfig) -> (Vec<LrRecord>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let true_w: Vec<f64> = (0..=config.dims)
        .map(|_| rng.gen_range(-2.0..2.0))
        .collect();
    let records = (0..config.records)
        .map(|_| {
            let outlier = rng.gen_bool(config.outlier_fraction);
            let scale = if outlier {
                rng.gen_range(4.0..9.0)
            } else {
                1.0
            };
            let features: Vec<f64> = (0..config.dims)
                .map(|_| gaussian(&mut rng) * scale)
                .collect();
            let target = features
                .iter()
                .zip(&true_w)
                .map(|(x, w)| x * w)
                .sum::<f64>()
                + true_w[config.dims]
                + gaussian(&mut rng) * 0.1;
            LrRecord { features, target }
        })
        .collect();
    (records, true_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_deterministic_and_shaped() {
        let c = LifeScienceConfig {
            records: 500,
            ..LifeScienceConfig::default()
        };
        let a = generate_points(&c);
        let b = generate_points(&c);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|p| p.len() == c.dims));
    }

    #[test]
    fn points_form_separated_clusters() {
        let c = LifeScienceConfig {
            records: 3_000,
            outlier_fraction: 0.0,
            ..LifeScienceConfig::default()
        };
        let pts = generate_points(&c);
        // Without outliers every coordinate is within a few sigma of a
        // cluster centre 0, 10 or 20.
        for p in &pts {
            let near = [0.0, 10.0, 20.0].iter().any(|c| (p[0] - c).abs() < 5.0);
            assert!(near, "point {p:?} belongs to no cluster");
        }
    }

    #[test]
    fn outliers_have_large_norms() {
        let c = LifeScienceConfig {
            records: 5_000,
            outlier_fraction: 0.05,
            ..LifeScienceConfig::default()
        };
        let pts = generate_points(&c);
        let max_norm = pts
            .iter()
            .map(|p| p.iter().map(|x| x * x).sum::<f64>().sqrt())
            .fold(0.0, f64::max);
        // Cluster centres cap at ~20·sqrt(d) ≈ 40 without outliers.
        assert!(
            max_norm > 100.0,
            "expected heavy-tailed outliers, max {max_norm}"
        );
    }

    #[test]
    fn regression_targets_follow_hidden_model() {
        let c = LifeScienceConfig {
            records: 2_000,
            outlier_fraction: 0.0,
            ..LifeScienceConfig::default()
        };
        let (records, w) = generate_regression(&c);
        assert_eq!(w.len(), c.dims + 1);
        // Residuals w.r.t. the hidden model are the 0.1-sigma noise.
        for r in records.iter().take(100) {
            let pred: f64 =
                r.features.iter().zip(&w).map(|(x, wi)| x * wi).sum::<f64>() + w[c.dims];
            assert!((pred - r.target).abs() < 1.0);
        }
    }
}
