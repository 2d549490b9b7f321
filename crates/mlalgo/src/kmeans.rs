//! KMeans (Lloyd's algorithm), as a Map/Reduce query.
//!
//! One Lloyd iteration is one UPA query: the mapper assigns a point to
//! its nearest centroid and emits that cluster's partial sum; the reducer
//! adds partial sums; `finalize` divides to produce the updated centroid
//! matrix — the released output. The query's fused kernel and
//! [`KMeans::step_plain`] add each point into a running accumulator in
//! place instead (see [`crate::fold`]).

use crate::fold::{fold_plain, step_query, InPlaceStep};
use dataflow::Dataset;
use upa_core::query::MapReduceQuery;

/// A point is a feature vector.
pub type Point = Vec<f64>;

/// Accumulator of one iteration: per-cluster coordinate sums (flattened
/// `k × d`) and per-cluster counts.
pub type KmAcc = (Vec<f64>, Vec<f64>);

/// KMeans model: `k` centroids of dimension `d`.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Point>,
}

impl KMeans {
    /// Creates a model from initial centroids.
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or dimensions are inconsistent.
    pub fn new(centroids: Vec<Point>) -> Self {
        assert!(!centroids.is_empty(), "need at least one centroid");
        let d = centroids[0].len();
        assert!(d > 0, "centroids must have positive dimension");
        assert!(
            centroids.iter().all(|c| c.len() == d),
            "inconsistent centroid dimensions"
        );
        KMeans { centroids }
    }

    /// Deterministic initialisation: centroid `i` is the `i`-th distinct
    /// point of the input (adequate for well-separated synthetic data).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` points are provided.
    pub fn init_from_points(points: &[Point], k: usize) -> Self {
        assert!(points.len() >= k, "need at least k points");
        let stride = points.len() / k;
        KMeans::new((0..k).map(|i| points[i * stride].clone()).collect())
    }

    /// The current centroids.
    pub fn centroids(&self) -> &[Point] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.centroids[0].len()
    }

    /// Replaces the centroids with a flattened `k × d` matrix (e.g. a
    /// noisy update from UPA).
    ///
    /// # Panics
    ///
    /// Panics if the flattened length is not `k × d`.
    pub fn set_flat_centroids(&mut self, flat: &[f64]) {
        let (k, d) = (self.k(), self.dims());
        assert_eq!(flat.len(), k * d, "expected k*d components");
        self.centroids = flat.chunks(d).map(|c| c.to_vec()).collect();
    }

    /// Index of the centroid nearest to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not have the model's dimension.
    pub fn assign(&self, p: &[f64]) -> usize {
        assert!(
            p.len() == self.dims(),
            "point has width {}, model has width {}",
            p.len(),
            self.dims()
        );
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d: f64 = c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Sum of squared distances of points to their assigned centroids.
    pub fn inertia(&self, points: &[Point]) -> f64 {
        points
            .iter()
            .map(|p| {
                let c = &self.centroids[self.assign(p)];
                c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
            })
            .sum()
    }

    /// One Lloyd iteration as a Map/Reduce query. The output is the
    /// updated centroid matrix, flattened to `k × d` components (clusters
    /// that receive no points keep their current centroid).
    ///
    /// # Panics
    ///
    /// Evaluating the query panics on a point whose dimension is not the
    /// model's.
    pub fn step_query(&self, name: impl Into<String>) -> MapReduceQuery<Point, KmAcc, Vec<f64>> {
        let old = self.centroids.clone();
        let (k, d) = (self.k(), self.dims());
        step_query(self, name, move |acc: Option<&KmAcc>| {
            let mut flat = Vec::with_capacity(k * d);
            match acc {
                Some((sums, counts)) => {
                    for c in 0..k {
                        for j in 0..d {
                            if counts[c] > 0.0 {
                                flat.push(sums[c * d + j] / counts[c]);
                            } else {
                                flat.push(old[c][j]);
                            }
                        }
                    }
                }
                None => {
                    for c in &old {
                        flat.extend_from_slice(c);
                    }
                }
            }
            flat
        })
    }

    /// One non-private iteration over a dataset; returns the flattened
    /// updated centroids without mutating `self`.
    pub fn step_plain(&self, data: &Dataset<Point>) -> Vec<f64> {
        self.step_query("kmeans_iter")
            .finalize(fold_plain(self, data).as_ref())
    }

    /// Runs `iters` non-private Lloyd iterations.
    pub fn fit(&mut self, data: &Dataset<Point>, iters: usize) {
        for _ in 0..iters {
            let flat = self.step_plain(data);
            self.set_flat_centroids(&flat);
        }
    }
}

impl InPlaceStep for KMeans {
    type Record = Point;
    type Acc = KmAcc;

    /// `p` in its cluster's sums, one in its count, zeros elsewhere.
    fn map(&self, p: &Point) -> KmAcc {
        let (k, d) = (self.k(), self.dims());
        let c = self.assign(p);
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0.0; k];
        sums[c * d..(c + 1) * d].copy_from_slice(p);
        counts[c] = 1.0;
        (sums, counts)
    }

    fn add(&self, (sums, counts): &mut KmAcc, p: &Point) {
        let c = self.assign(p);
        let clusters = sums.chunks_exact_mut(self.dims()).zip(counts.iter_mut());
        for (i, (sum, count)) in clusters.enumerate() {
            if i == c {
                for (s, x) in sum.iter_mut().zip(p) {
                    *s += x;
                }
                *count += 1.0;
            } else {
                // The mapper's zeros: a `-0.0` sum becomes `+0.0`.
                for s in sum.iter_mut() {
                    *s += 0.0;
                }
                *count += 0.0;
            }
        }
    }

    fn reduce(a: &KmAcc, b: &KmAcc) -> KmAcc {
        (
            a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect(),
            a.1.iter().zip(&b.1).map(|(x, y)| x + y).collect(),
        )
    }

    fn half_key(p: &Point) -> u64 {
        crate::data::point_key(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_points, LifeScienceConfig};
    use crate::fold::tests::assert_kernel_matches_generic;
    use dataflow::Context;

    fn clustered_points() -> Vec<Point> {
        generate_points(&LifeScienceConfig {
            records: 3_000,
            dims: 2,
            clusters: 3,
            outlier_fraction: 0.0,
            ..LifeScienceConfig::default()
        })
    }

    #[test]
    fn kmeans_finds_the_mixture_centres() {
        let points = clustered_points();
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize(points.clone(), 4);
        let mut model = KMeans::new(vec![vec![1.0, 1.0], vec![9.0, 9.0], vec![21.0, 21.0]]);
        model.fit(&ds, 15);
        // Centres are near (0,0), (10,10), (20,20).
        let mut found = [false; 3];
        for c in model.centroids() {
            for (i, target) in [0.0, 10.0, 20.0].iter().enumerate() {
                if (c[0] - target).abs() < 1.0 && (c[1] - target).abs() < 1.0 {
                    found[i] = true;
                }
            }
        }
        assert_eq!(found, [true; 3], "centroids {:?}", model.centroids());
    }

    #[test]
    fn fit_reduces_inertia() {
        let points = clustered_points();
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize(points.clone(), 4);
        let mut model = KMeans::init_from_points(&points, 3);
        let before = model.inertia(&points);
        model.fit(&ds, 10);
        assert!(model.inertia(&points) <= before);
    }

    #[test]
    fn step_query_matches_plain_step() {
        let points = clustered_points();
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(points.clone(), 4);
        let model = KMeans::init_from_points(&points, 3);
        let plain = model.step_plain(&ds);
        let slice = model.step_query("iter").evaluate_slice(&points);
        for (a, b) in plain.iter().zip(&slice) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(plain.len(), 3 * 2);
    }

    #[test]
    fn empty_cluster_keeps_old_centroid() {
        let model = KMeans::new(vec![vec![0.0, 0.0], vec![100.0, 100.0]]);
        // All points near the first centroid.
        let points = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let flat = model.step_query("iter").evaluate_slice(&points);
        assert_eq!(&flat[2..4], &[100.0, 100.0], "empty cluster unchanged");
        assert!((flat[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_keeps_all_centroids() {
        let model = KMeans::new(vec![vec![1.0], vec![2.0]]);
        let flat = model.step_query("iter").evaluate_slice(&[]);
        assert_eq!(flat, vec![1.0, 2.0]);
    }

    #[test]
    fn assign_picks_nearest() {
        let model = KMeans::new(vec![vec![0.0], vec![10.0]]);
        assert_eq!(model.assign(&[2.0]), 0);
        assert_eq!(model.assign(&[8.0]), 1);
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn empty_model_rejected() {
        let _ = KMeans::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "point has width 3, model has width 2")]
    fn wider_point_rejected() {
        let model = KMeans::new(vec![vec![0.0, 0.0], vec![10.0, 10.0]]);
        let _ = model
            .step_query("iter")
            .evaluate_slice(&[vec![1.0, 2.0], vec![1.0, 2.0, 5.0]]);
    }

    #[test]
    #[should_panic(expected = "point has width 1, model has width 2")]
    fn narrower_point_rejected() {
        let model = KMeans::new(vec![vec![0.0, 0.0], vec![10.0, 10.0]]);
        let _ = model
            .step_query("iter")
            .evaluate_slice(&[vec![1.0, 2.0], vec![1.0]]);
    }

    fn acc_bits((sums, counts): &KmAcc) -> Vec<u64> {
        sums.iter().chain(counts).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_kernel_matches_the_generic_fold() {
        let model = KMeans::new(vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![-10.0, 5.0]]);
        let q = model.step_query("iter");
        let finite: Vec<Point> = (0..97)
            .map(|i| {
                let c = [0.0, 10.0, -10.0][i % 3];
                let x = ((i * 37) % 101) as f64 * 0.11 - 5.5;
                vec![c + x, c.abs() - x * 0.5]
            })
            .collect();
        // All-`-0.0` points open their half in cluster 0; only zeros and
        // other clusters' points follow, so each sum in cluster 0 keeps its
        // `-0.0` just as long as the generic fold does.
        let mut signed_zero: Vec<Point> = vec![vec![-0.0, -0.0]; 4];
        signed_zero.extend((0..59).map(|i| match i % 4 {
            0 => vec![-0.0, 0.0],
            1 => vec![10.0 + i as f64 * 0.1, 10.0],
            2 => vec![-10.0, 5.0 - i as f64 * 0.1],
            _ => vec![0.0, -0.0],
        }));
        // Infinite coordinates are equally far from every centroid and
        // land in cluster 0, where `inf + -inf` makes the default NaN.
        let mut infinite = finite.clone();
        for (i, p) in [
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 2.0],
            vec![3.0, f64::NEG_INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
            vec![-0.0, f64::INFINITY],
        ]
        .into_iter()
        .enumerate()
        {
            infinite.insert(i * 17 + 2, p);
        }
        // One NaN payload only: which payload a sum of two NaNs keeps is
        // left open by Rust.
        let mut nan = finite.clone();
        nan.insert(11, vec![f64::NAN, 1.0]);
        let mut cases = vec![finite, signed_zero.clone(), infinite, nan];
        // Short runs, the empty one included.
        cases.extend((0..8).map(|len| signed_zero[..len].to_vec()));
        assert_kernel_matches_generic(&model, &q, |ds| model.step_plain(ds), &cases, acc_bits);
    }
}
