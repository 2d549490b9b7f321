//! Record-domain samplers.
//!
//! Algorithm 1 samples `n` records "from `D` but not in `x`" — candidate
//! *additions* to the dataset — where `D` is the domain of possible
//! records. The domain is workload knowledge: the TPC-H generator knows
//! what a fresh lineitem can look like, the ML workloads know their
//! feature space. A [`DomainSampler`] encapsulates that knowledge.
//!
//! This replaces the paper's (unspecified) access to the data provider's
//! domain with an explicit interface; the workload crates implement it
//! with the same generators that produce the datasets, so sampled
//! additions follow the true record distribution.

use dataflow::columnar::ColumnarBuf;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Samples records from the domain `D` of possible dataset records.
pub trait DomainSampler<T>: Send + Sync {
    /// Draws one record from `D`.
    fn sample(&self, rng: &mut StdRng) -> T;

    /// Draws `n` records from `D`.
    fn sample_n(&self, rng: &mut StdRng, n: usize) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A [`DomainSampler`] backed by a closure.
///
/// ```
/// use upa_core::domain::{DomainSampler, FnSampler};
/// use rand::{rngs::StdRng, Rng, SeedableRng};
/// let s = FnSampler::new(|rng: &mut StdRng| rng.gen_range(0..10));
/// let mut rng = StdRng::seed_from_u64(0);
/// assert!(s.sample(&mut rng) < 10);
/// ```
pub struct FnSampler<F> {
    f: F,
}

impl<F> FnSampler<F> {
    /// Wraps a sampling closure.
    pub fn new(f: F) -> Self {
        FnSampler { f }
    }
}

impl<T, F> DomainSampler<T> for FnSampler<F>
where
    F: Fn(&mut StdRng) -> T + Send + Sync,
{
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.f)(rng)
    }
}

/// A [`DomainSampler`] that resamples uniformly from a pool of existing
/// records — the empirical distribution of the dataset itself. This is the
/// default when no generative model of the domain is available.
///
/// The pool is shared, not owned: cloning the sampler clones an [`Arc`],
/// and [`EmpiricalSampler::new`] takes either a `Vec` (moved in, no
/// element copied) or an `Arc<Vec<T>>` that other samplers, or the caller,
/// also hold. A workload that evaluates several queries over one table
/// builds the pool once and hands every query the same one.
///
/// ```
/// use std::sync::Arc;
/// use upa_core::domain::EmpiricalSampler;
/// let rows = Arc::new(vec![1, 2, 3]);
/// let a = EmpiricalSampler::new(Arc::clone(&rows));
/// let b = EmpiricalSampler::new(vec![4, 5]);
/// assert_eq!(a.pool().as_ptr(), rows.as_ptr());
/// assert_eq!(b.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalSampler<T> {
    pool: Arc<Vec<T>>,
}

impl<T: Clone + Send + Sync> EmpiricalSampler<T> {
    /// Builds a sampler over `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn new(pool: impl Into<Arc<Vec<T>>>) -> Self {
        let pool = pool.into();
        assert!(!pool.is_empty(), "empirical sampler needs a non-empty pool");
        EmpiricalSampler { pool }
    }

    /// The records draws are taken from.
    pub fn pool(&self) -> &[T] {
        &self.pool
    }

    /// The pool size.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

impl<T: Clone + Send + Sync> DomainSampler<T> for EmpiricalSampler<T> {
    fn sample(&self, rng: &mut StdRng) -> T {
        let i = rand::Rng::gen_range(rng, 0..self.pool.len());
        self.pool[i].clone()
    }
}

/// An [`EmpiricalSampler`] over a chunked column buffer: resamples
/// uniformly from the shared store chunks without ever materialising a
/// flat pool. Draws are **bit-identical** to
/// `EmpiricalSampler::new(buf.to_vec())` under the same RNG — both
/// consume one `gen_range(0..len)` per draw and index the same logical
/// row — so the choice of sampler never perturbs a seeded release.
#[derive(Debug, Clone)]
pub struct ColumnarEmpiricalSampler {
    pool: ColumnarBuf,
}

impl ColumnarEmpiricalSampler {
    /// Builds a sampler over `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn new(pool: ColumnarBuf) -> Self {
        assert!(!pool.is_empty(), "empirical sampler needs a non-empty pool");
        ColumnarEmpiricalSampler { pool }
    }

    /// The pool size.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

impl DomainSampler<f64> for ColumnarEmpiricalSampler {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let i = rand::Rng::gen_range(rng, 0..self.pool.len());
        self.pool.value(i)
    }

    /// The draws of `n` calls of [`DomainSampler::sample`], in order; the
    /// values are read once every index is drawn
    /// ([`ColumnarBuf::gather`]), so the random reads overlap.
    fn sample_n(&self, rng: &mut StdRng, n: usize) -> Vec<f64> {
        let indices: Vec<usize> = (0..n)
            .map(|_| rand::Rng::gen_range(rng, 0..self.pool.len()))
            .collect();
        self.pool.gather(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fn_sampler_delegates() {
        let s = FnSampler::new(|_rng: &mut StdRng| 7u32);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), 7);
        assert_eq!(s.sample_n(&mut rng, 3), vec![7, 7, 7]);
    }

    #[test]
    fn empirical_sampler_draws_from_pool() {
        let s = EmpiricalSampler::new(vec![1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(1);
        let draws = s.sample_n(&mut rng, 100);
        assert!(draws.iter().all(|x| [1, 2, 3].contains(x)));
        // All pool elements eventually appear.
        for v in [1, 2, 3] {
            assert!(draws.contains(&v), "{v} never sampled");
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty pool")]
    fn empirical_sampler_rejects_empty_pool() {
        let _ = EmpiricalSampler::<u8>::new(Vec::new());
    }

    #[test]
    fn columnar_sampler_matches_row_sampler_bit_for_bit() {
        let values: Vec<f64> = (0..257).map(|i| (i as f64) * 0.37 - 40.0).collect();
        let row = EmpiricalSampler::new(values.clone());
        let col = ColumnarEmpiricalSampler::new(ColumnarBuf::from_values(&values, 7));
        assert_eq!(col.len(), 257);
        assert!(!col.is_empty());
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let a = row.sample_n(&mut rng_a, 500);
        let b = col.sample_n(&mut rng_b, 500);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    #[should_panic(expected = "non-empty pool")]
    fn columnar_sampler_rejects_empty_pool() {
        let _ = ColumnarEmpiricalSampler::new(ColumnarBuf::new(Vec::new()));
    }
}
