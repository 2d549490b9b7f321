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
///
/// Drawing `n` records has two halves: [`DomainSampler::draw_n`] makes
/// the RNG draws and [`DomainSampler::materialise`] turns them into
/// records without touching the RNG, and [`DomainSampler::sample_n`] is
/// the one composed of the two. [`crate::Upa::prepare`] holds the engine
/// lock for `draw_n` only. A pool sampler ([`EmpiricalSampler`],
/// [`ColumnarEmpiricalSampler`]) draws pool positions and reads them in
/// `materialise`, outside the lock; a sampler whose draws are its values
/// ([`FnSampler`], the default) makes its records in `draw_n`, under the
/// lock.
pub trait DomainSampler<T>: Send + Sync {
    /// Draws one record from `D`.
    fn sample(&self, rng: &mut StdRng) -> T;

    /// The RNG half of `n` draws: by default the records of `n` calls of
    /// [`DomainSampler::sample`].
    fn draw_n(&self, rng: &mut StdRng, n: usize) -> DomainDraws<T> {
        DomainDraws::Records((0..n).map(|_| self.sample(rng)).collect())
    }

    /// The records of `draws`, in draw order; touches no RNG. A sampler
    /// whose [`DomainSampler::draw_n`] returns [`DomainDraws::Pool`]
    /// must override this to read its pool.
    ///
    /// # Panics
    ///
    /// By default, on [`DomainDraws::Pool`].
    fn materialise(&self, draws: DomainDraws<T>) -> Vec<T> {
        match draws {
            DomainDraws::Records(records) => records,
            DomainDraws::Pool(_) => panic!("this sampler has no pool to read draws from"),
        }
    }

    /// Draws `n` records from `D`: [`DomainSampler::draw_n`], then
    /// [`DomainSampler::materialise`].
    fn sample_n(&self, rng: &mut StdRng, n: usize) -> Vec<T> {
        self.materialise(self.draw_n(rng, n))
    }
}

/// What [`DomainSampler::draw_n`] drew.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainDraws<T> {
    /// Positions in the sampler's pool, in draw order.
    Pool(Vec<usize>),
    /// The records themselves, in draw order.
    Records(Vec<T>),
}

/// `n` uniform positions in a pool of `len`: one `gen_range(0..len)` per
/// draw, the draw [`EmpiricalSampler`] and [`ColumnarEmpiricalSampler`]
/// share so they stay bit-identical.
fn pool_draws<T>(rng: &mut StdRng, len: usize, n: usize) -> DomainDraws<T> {
    DomainDraws::Pool((0..n).map(|_| rand::Rng::gen_range(rng, 0..len)).collect())
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

    fn draw_n(&self, rng: &mut StdRng, n: usize) -> DomainDraws<T> {
        pool_draws(rng, self.pool.len(), n)
    }

    fn materialise(&self, draws: DomainDraws<T>) -> Vec<T> {
        match draws {
            DomainDraws::Pool(at) => at.iter().map(|&i| self.pool[i].clone()).collect(),
            DomainDraws::Records(records) => records,
        }
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

    fn draw_n(&self, rng: &mut StdRng, n: usize) -> DomainDraws<f64> {
        pool_draws(rng, self.pool.len(), n)
    }

    /// Reads every drawn row in one [`ColumnarBuf::gather`], so the
    /// random reads overlap.
    fn materialise(&self, draws: DomainDraws<f64>) -> Vec<f64> {
        match draws {
            DomainDraws::Pool(at) => self.pool.gather(&at),
            DomainDraws::Records(records) => records,
        }
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
        assert_eq!(s.draw_n(&mut rng, 2), DomainDraws::Records(vec![7, 7]));
    }

    #[test]
    fn pool_samplers_draw_positions_and_read_them_later() {
        let values: Vec<f64> = (0..50).map(|i| f64::from(i) * 1.5).collect();
        let row = EmpiricalSampler::new(values.clone());
        let col = ColumnarEmpiricalSampler::new(ColumnarBuf::from_values(values.to_vec(), 8));
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let DomainDraws::Pool(at) = col.draw_n(&mut rng_a, 20) else {
            panic!("a pool sampler draws positions");
        };
        assert_eq!(row.draw_n(&mut rng_b, 20), DomainDraws::Pool(at.clone()));
        let want: Vec<f64> = at.iter().map(|&i| values[i]).collect();
        assert_eq!(col.materialise(DomainDraws::Pool(at.clone())), want);
        assert_eq!(row.materialise(DomainDraws::Pool(at)), want);
        // `sample_n` is the two halves composed, on the same RNG stream.
        let mut rng_c = StdRng::seed_from_u64(9);
        assert_eq!(col.sample_n(&mut rng_c, 20), want);
        assert_eq!(
            rand::RngCore::next_u64(&mut rng_a),
            rand::RngCore::next_u64(&mut rng_c)
        );
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
        let col = ColumnarEmpiricalSampler::new(ColumnarBuf::from_values(values.to_vec(), 7));
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
