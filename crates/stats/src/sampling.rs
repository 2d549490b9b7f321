//! Sampling primitives for the Partition-and-Sample phase and the data
//! generators.
//!
//! * [`sample_indices`] — uniform sampling of `n` distinct indices without
//!   replacement (Robert Floyd's algorithm), used by UPA to pick the `n`
//!   differing records `S` from the input dataset; [`FloydDraws`] splits
//!   it into its RNG draws and an RNG-free resolve;
//! * [`Zipf`] — a bounded Zipf sampler used by the TPC-H generator to give
//!   join keys the skewed frequency distribution that makes TPCH16/21
//!   sensitivity hard (outliers in Figure 3).

use rand::Rng;

/// Uniformly samples `n` distinct indices from `0..len` without
/// replacement, using Robert Floyd's algorithm (O(n log n) work,
/// independent of `len`).
///
/// If `n >= len`, every index is returned (this mirrors the paper's rule
/// that for datasets smaller than the sample size, `n` is set to the
/// dataset size so the *exact* local sensitivity is obtained). The returned
/// indices are sorted.
///
/// This is [`FloydDraws::draw`] followed by [`FloydDraws::resolve`].
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let idx = upa_stats::sampling::sample_indices(&mut rng, 100, 10);
/// assert_eq!(idx.len(), 10);
/// assert!(idx.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, len: usize, n: usize) -> Vec<usize> {
    FloydDraws::draw(rng, len, n).resolve()
}

/// The RNG draws of Floyd's algorithm for `n` of `len` indices, not yet
/// resolved into a sample: step `k` drew `draws[k]` from
/// `0..=len - n + k`. Floyd takes a step's draw unless it is already
/// taken, and then takes the step's upper bound instead.
///
/// Drawing touches the RNG and nothing else; resolving touches no RNG,
/// so a caller that must order its draws against other users of one RNG
/// holds that RNG's lock for [`FloydDraws::draw`] only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloydDraws {
    len: usize,
    n: usize,
    /// Empty when `n >= len`: the whole population is the sample.
    draws: Vec<usize>,
}

impl FloydDraws {
    /// Draws `gen_range(0..=j)` for `j` in `len - n..len`, in order; no
    /// draw at all when `n >= len`.
    pub fn draw<R: Rng + ?Sized>(rng: &mut R, len: usize, n: usize) -> FloydDraws {
        let draws = if n >= len {
            Vec::new()
        } else {
            ((len - n)..len).map(|j| rng.gen_range(0..=j)).collect()
        };
        FloydDraws { len, n, draws }
    }

    /// The sorted sample Floyd's algorithm makes of these draws.
    ///
    /// A step collides only with an earlier draw or with the upper bound
    /// an earlier collision took, so when no value repeats no step
    /// collided and the sorted draws are the sample. Otherwise the steps
    /// are replayed in order against the repeated values and the bounds
    /// taken so far — both few — and the sample is the distinct draws
    /// together with the bounds taken: a draw that collides is already in
    /// the sample, and a bound is new when taken. The replay allocates
    /// twice, whatever `n`.
    pub fn resolve(self) -> Vec<usize> {
        let FloydDraws { len, n, draws } = self;
        if n >= len {
            return (0..len).collect();
        }
        let mut sorted = draws.clone();
        sorted.sort_unstable();
        let repeats = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        if repeats == 0 {
            return sorted;
        }
        // Each repeated value, and whether a step has drawn it yet.
        let mut repeated: Vec<(usize, bool)> = Vec::with_capacity(repeats);
        for w in sorted.windows(2) {
            if w[0] == w[1] && repeated.last().map(|r| r.0) != Some(w[0]) {
                repeated.push((w[0], false));
            }
        }
        sorted.dedup();
        // Ascending, since the steps' upper bounds are.
        let mut taken: Vec<usize> = Vec::with_capacity(n);
        for (j, &t) in ((len - n)..len).zip(&draws) {
            let drawn_before = match repeated.binary_search_by_key(&t, |r| r.0) {
                Ok(i) => std::mem::replace(&mut repeated[i].1, true),
                Err(_) => false,
            };
            if drawn_before || taken.binary_search(&t).is_ok() {
                taken.push(j);
            }
        }
        // The sample has `n` values, so it fits in the draws' buffer.
        let mut out = draws;
        out.clear();
        let mut new = taken
            .into_iter()
            .filter(|t| sorted.binary_search(t).is_err())
            .peekable();
        for &t in &sorted {
            while let Some(b) = new.next_if(|&b| b < t) {
                out.push(b);
            }
            out.push(t);
        }
        out.extend(new);
        out
    }
}

/// Bounded Zipf distribution over `1..=n` with exponent `s`.
///
/// Sampling is by binary search over a precomputed CDF table, so `sample`
/// is O(log n) after O(n) setup. The TPC-H generator uses this to create
/// skewed join-key frequencies.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf: n must be positive");
        assert!(s.is_finite() && s >= 0.0, "zipf: s must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point drift at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (never true; kept for API
    /// completeness alongside [`Zipf::len`]).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one value in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let idx = sample_indices(&mut rng, 1000, 100);
            assert_eq!(idx.len(), 100);
            let set: HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), 100);
            assert!(idx.iter().all(|&i| i < 1000));
        }
    }

    #[test]
    fn sample_indices_small_population_returns_all() {
        let mut rng = StdRng::seed_from_u64(4);
        let idx = sample_indices(&mut rng, 5, 10);
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        let idx = sample_indices(&mut rng, 5, 5);
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_indices_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            for i in sample_indices(&mut rng, 20, 2) {
                counts[i] += 1;
            }
        }
        // Each index expected 2000 times; allow generous tolerance.
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (1700..2300).contains(c),
                "index {i} drawn {c} times, expected ~2000"
            );
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 101];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 1 must dominate rank 10 which dominates rank 100.
        assert!(
            counts[1] > counts[10] * 3,
            "{} vs {}",
            counts[1],
            counts[10]
        );
        assert!(
            counts[10] > counts[100],
            "{} vs {}",
            counts[10],
            counts[100]
        );
        assert_eq!(counts[0], 0, "zipf support starts at 1");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0usize; 5];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, count) in counts.iter().enumerate().skip(1) {
            assert!(
                (9_000..11_000).contains(count),
                "value {k} drawn {count} times"
            );
        }
    }
}
