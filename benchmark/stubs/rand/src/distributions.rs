//! Distributions: [`Standard`], [`Uniform`] and the range sampling behind
//! [`crate::Rng::gen_range`].

use crate::Rng;

/// A distribution over `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// The default distribution of a type: all bit patterns for integers,
/// `[0, 1)` for floats, a fair coin for `bool`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 random mantissa bits: uniform on the multiples of 2^-53.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution<u128> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

pub use uniform::Uniform;

/// Uniform sampling over ranges.
pub mod uniform {
    use super::Distribution;
    use crate::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A type [`crate::Rng::gen_range`] can sample.
    pub trait SampleUniform: Sized + Copy + PartialOrd {
        /// Uniform over `[low, high)`.
        fn sample_half_open<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        /// Uniform over `[low, high]`.
        fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    }

    /// A range [`crate::Rng::gen_range`] accepts.
    pub trait SampleRange<T> {
        /// Draws one value from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        /// Whether the range holds no value.
        fn is_empty(&self) -> bool;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start < self.end, "cannot sample empty range");
            T::sample_half_open(self.start, self.end, rng)
        }
        fn is_empty(&self) -> bool {
            // Not `start >= end`: a NaN bound is an empty range too.
            !matches!(
                self.start.partial_cmp(&self.end),
                Some(std::cmp::Ordering::Less)
            )
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start() <= self.end(), "cannot sample empty range");
            T::sample_inclusive(*self.start(), *self.end(), rng)
        }
        fn is_empty(&self) -> bool {
            !matches!(
                self.start().partial_cmp(self.end()),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        }
    }

    /// Uniform over `0..=span` without modulo bias: Lemire's widening
    /// multiply with rejection of the short first interval.
    fn below_inclusive<R: Rng + ?Sized>(span: u64, rng: &mut R) -> u64 {
        if span == u64::MAX {
            return rng.next_u64();
        }
        let n = span + 1;
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(n);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    macro_rules! uniform_int {
        ($($t:ty => $u:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_half_open<R: Rng + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                    Self::sample_inclusive(low, high - 1, rng)
                }
                fn sample_inclusive<R: Rng + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                    // The span fits the unsigned twin even across zero.
                    let span = high.wrapping_sub(low) as $u as u64;
                    low.wrapping_add(below_inclusive(span, rng) as $t)
                }
            }
        )*};
    }
    uniform_int!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
                 i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

    macro_rules! uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_half_open<R: Rng + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                    loop {
                        let u: $t = rng.gen();
                        let v = low + (high - low) * u;
                        // Rounding can land exactly on `high`; redraw.
                        if v < high {
                            return v;
                        }
                    }
                }
                fn sample_inclusive<R: Rng + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                    let u: $t = rng.gen();
                    low + (high - low) * u
                }
            }
        )*};
    }
    uniform_float!(f32, f64);

    /// A reusable uniform distribution over a range.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Uniform<T> {
        low: T,
        high: T,
        inclusive: bool,
    }

    impl<T: SampleUniform> Uniform<T> {
        /// Uniform over `[low, high)`.
        ///
        /// # Panics
        ///
        /// If `low >= high`.
        pub fn new(low: T, high: T) -> Uniform<T> {
            assert!(low < high, "Uniform::new called with low >= high");
            Uniform {
                low,
                high,
                inclusive: false,
            }
        }

        /// Uniform over `[low, high]`.
        ///
        /// # Panics
        ///
        /// If `low > high`.
        pub fn new_inclusive(low: T, high: T) -> Uniform<T> {
            assert!(low <= high, "Uniform::new_inclusive called with low > high");
            Uniform {
                low,
                high,
                inclusive: true,
            }
        }
    }

    impl<T: SampleUniform> Distribution<T> for Uniform<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            if self.inclusive {
                T::sample_inclusive(self.low, self.high, rng)
            } else {
                T::sample_half_open(self.low, self.high, rng)
            }
        }
    }
}
