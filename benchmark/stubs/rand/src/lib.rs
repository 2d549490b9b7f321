//! Offline stand-in for the slice of the `rand` 0.8 API this repository
//! uses. The benchmark builds in a checkout with no network and an empty
//! cargo registry, so `benchmark/Cargo.toml` patches `rand` to this crate.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64 — a different
//! stream from the published crate's ChaCha12, so absolute released
//! values differ from a networked build; every statistical property the
//! benchmark checks (uniformity, Laplace scale) holds for both. The same
//! stand-in is compiled on both sides of any comparison.

pub mod distributions;
pub mod rngs;
pub mod seq;

pub use distributions::{Distribution, Standard};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform over `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// If the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p={p} is outside [0, 1]"
        );
        self.gen::<f64>() < p
    }

    /// A value from `distr`.
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded through SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    /// Builds the generator from another generator's output.
    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, std::convert::Infallible> {
        let mut seed = Self::Seed::default();
        rng.fill_bytes(seed.as_mut());
        Ok(Self::from_seed(seed))
    }

    /// Builds the generator from the clock and a process-wide counter.
    fn from_entropy() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Self::seed_from_u64(nanos ^ (COUNTER.fetch_add(0x9E37_79B9, Ordering::Relaxed) << 32))
    }
}

/// A fresh generator seeded from the clock (the published crate's
/// thread-local generator is not reproduced).
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng::from_entropy()
}

/// One [`Standard`] value from a fresh [`thread_rng`].
pub fn random<T>() -> T
where
    Standard: Distribution<T>,
{
    thread_rng().gen()
}

/// The usual imports.
pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::seq::SliceRandom;
    pub use crate::{random, thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_are_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut buckets = [0u32; 10];
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
            buckets[(u * 10.0) as usize] += 1;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
        for b in buckets {
            assert!((f64::from(b) / n as f64 - 0.1).abs() < 0.005);
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..2_000 {
            let v: usize = rng.gen_range(0..7);
            seen[v] = true;
            let w: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&w));
            let x: f64 = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&x));
            let y: u64 = rng.gen_range(5..=5);
            assert_eq!(y, 5);
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.08)).count();
        assert!((hits as f64 / 100_000.0 - 0.08).abs() < 0.005);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert!(v.choose(&mut rng).is_some());
    }
}
