//! Exact summation of `f64` values: a small superaccumulator.
//!
//! `f64` addition is commutative but not associative, so a floating-point
//! sum depends on the order its terms are added in. [`ExactSum`] keeps
//! the sum of its terms exactly instead: a fixed-point integer spanning
//! the whole `f64` exponent range, split into 32-bit digits held in `i64`
//! limbs (Neal, "Fast exact summation using small and large
//! superaccumulators", arXiv:1505.05571). Adding a value adds its
//! mantissa, shifted into place, to three limbs; the spare 31 bits of each
//! limb absorb carries, which are propagated only every 2^29th
//! operation. NaN and the two infinities are counted on the side, so a sum
//! that holds them can still have them subtracted.
//!
//! The state is associative, commutative and invertible: any order or
//! grouping of adds and merges gives the same value, and
//! [`ExactSum::sub`] undoes [`ExactSum::add`] limb for limb.
//! [`ExactSum::to_f64`] rounds the exact value once, to nearest with ties
//! to even — `math.fsum`'s answer.

/// Limbs of 32-bit digits. A finite `f64` is an integer multiple of
/// `2^-1074` below `2^1024`, so its bits reach position `1023 + 1074 =
/// 2097`, in digit 65; one more limb takes the carries out of it.
const LIMBS: usize = 67;
/// Operations between carry propagations. A limb changes by less than
/// `2^32` per operation and starts at most `2^32` after a propagation,
/// so twice this many operations (a merge) keep it below `2^63`.
const CARRY_EVERY: u32 = 1 << 29;
const DIGIT_MASK: i64 = (1 << 32) - 1;

/// An exact sum of `f64` values; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct ExactSum {
    /// Digit `i` weighs `2^(32 i - 1074)`. Below the top limb each holds
    /// a 32-bit digit plus pending carries; the top limb is signed.
    limbs: [i64; LIMBS],
    /// Operations since the last carry propagation, at most
    /// [`CARRY_EVERY`].
    pending: u32,
    nan: i64,
    pos_inf: i64,
    neg_inf: i64,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
            nan: 0,
            pos_inf: 0,
            neg_inf: 0,
        }
    }
}

impl ExactSum {
    /// The empty sum, zero.
    pub fn new() -> Self {
        ExactSum::default()
    }

    /// Adds `x` to the sum.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.apply(x, false);
    }

    /// Subtracts `x` from the sum: the exact inverse of [`ExactSum::add`].
    /// Subtracting a NaN or an infinity takes one off its count.
    #[inline]
    pub fn sub(&mut self, x: f64) {
        self.apply(x, true);
    }

    #[inline]
    fn apply(&mut self, x: f64, subtract: bool) {
        let bits = x.to_bits();
        let field = (bits >> 52) & 0x7ff;
        let fraction = bits & ((1 << 52) - 1);
        let step = if subtract { -1 } else { 1 };
        if field == 0x7ff {
            let count = if fraction != 0 {
                &mut self.nan
            } else if x > 0.0 {
                &mut self.pos_inf
            } else {
                &mut self.neg_inf
            };
            *count += step;
            return;
        }
        // x = mantissa · 2^(shift - 1074), the mantissa below 2^53.
        let (mantissa, shift) = match field {
            0 if fraction == 0 => return,
            0 => (fraction, 0),
            _ => (fraction | 1 << 52, field as u32 - 1),
        };
        if self.pending >= CARRY_EVERY {
            self.propagate();
        }
        self.pending += 1;
        let wide = u128::from(mantissa) << (shift % 32);
        let digit = (shift / 32) as usize;
        // 0 to add, -1 to subtract: `(d ^ s) - s` is `d` or `-d`.
        let s = -i64::from((bits >> 63 == 1) != subtract);
        let low = (wide as i64) & DIGIT_MASK;
        let mid = ((wide >> 32) as i64) & DIGIT_MASK;
        let high = (wide >> 64) as i64;
        self.limbs[digit] += (low ^ s) - s;
        self.limbs[digit + 1] += (mid ^ s) - s;
        self.limbs[digit + 2] += (high ^ s) - s;
    }

    /// Adds every term of `other` to this sum.
    pub fn merge(&mut self, other: &ExactSum) {
        if self.pending + other.pending > CARRY_EVERY {
            self.propagate();
        }
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
        self.pending += other.pending;
        if self.pending > CARRY_EVERY {
            self.propagate();
        }
        self.nan += other.nan;
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
    }

    /// Moves every limb's carries into the limb above, leaving each limb
    /// but the top one a digit in `[0, 2^32)`. The value is unchanged.
    fn propagate(&mut self) {
        let mut carry = 0i64;
        for limb in &mut self.limbs[..LIMBS - 1] {
            let v = *limb + carry;
            *limb = v & DIGIT_MASK;
            carry = v >> 32;
        }
        self.limbs[LIMBS - 1] += carry;
        self.pending = 1;
    }

    /// The sum rounded to the nearest `f64`, ties to even: NaN if it
    /// holds a NaN or both infinities, an infinity if it holds that one,
    /// `±inf` if the finite sum rounds beyond `f64::MAX`, and `+0.0` for
    /// an exact zero. A sum that had a NaN or an infinity subtracted
    /// without adding it holds a negative count, which reads as held.
    pub fn to_f64(&self) -> f64 {
        if self.nan != 0 || (self.pos_inf != 0 && self.neg_inf != 0) {
            return f64::NAN;
        }
        if self.pos_inf != 0 {
            return f64::INFINITY;
        }
        if self.neg_inf != 0 {
            return f64::NEG_INFINITY;
        }
        let mut digits = self.clone();
        digits.propagate();
        let negative = digits.limbs[LIMBS - 1] < 0;
        if negative {
            for limb in &mut digits.limbs {
                *limb = -*limb;
            }
            digits.propagate();
        }
        let magnitude = digits.magnitude_bits();
        let value = f64::from_bits(magnitude);
        if negative {
            -value
        } else {
            value
        }
    }

    /// The bits of the nearest `f64` to a non-negative propagated sum.
    fn magnitude_bits(&self) -> u64 {
        let Some(top) = self.limbs.iter().rposition(|&l| l != 0) else {
            return 0;
        };
        // The top three digits as one window; the digits below only
        // decide a tie.
        let base = top.saturating_sub(2);
        let window = self.limbs[base..=top]
            .iter()
            .rev()
            .fold(0u128, |w, &l| (w << 32) | l as u128);
        let sticky = self.limbs[..base].iter().any(|&l| l != 0);
        let msb = 127 - window.leading_zeros() as usize;
        // The sum is below 2^(position + 1) · 2^-1074.
        let position = msb + 32 * base;
        if position < 53 {
            // Below 2^53 · 2^-1074 every value is an `f64` whose bits
            // are its multiple of 2^-1074.
            return window as u64;
        }
        if position - 51 >= 0x7ff {
            return f64::INFINITY.to_bits();
        }
        let cut = msb - 52;
        let mut mantissa = (window >> cut) as u64;
        let rest = window & ((1 << cut) - 1);
        let half = 1u128 << (cut - 1);
        if rest > half || (rest == half && (sticky || mantissa & 1 == 1)) {
            mantissa += 1;
        }
        // The biased exponent is `position - 51`; the mantissa's leading
        // bit adds one to `position - 52`, and a mantissa rounded up to
        // 2^53 carries into the exponent by itself.
        let bits = ((position as u64 - 52) << 52) + mantissa;
        bits.min(f64::INFINITY.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A finite value from raw bits, its exponent field cut to
    /// `[lo, hi]`.
    fn finite(bits: u64, lo: u64, hi: u64) -> f64 {
        let field = lo + ((bits >> 52) & 0x7ff) % (hi - lo + 1);
        f64::from_bits((bits & !(0x7ff << 52)) | field << 52)
    }

    fn sum(xs: impl IntoIterator<Item = f64>) -> ExactSum {
        let mut sum = ExactSum::new();
        xs.into_iter().for_each(|x| sum.add(x));
        sum
    }

    fn same_state(a: &ExactSum, b: &ExactSum) -> bool {
        a.limbs == b.limbs && (a.nan, a.pos_inf, a.neg_inf) == (b.nan, b.pos_inf, b.neg_inf)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Adding values and then subtracting them, in another order,
        /// returns the start state limb for limb, NaN and infinities
        /// included.
        #[test]
        fn add_then_subtract_restores_every_limb(
            start in prop::collection::vec(0u64..u64::MAX, 0..40),
            terms in prop::collection::vec(0u64..u64::MAX, 1..80),
            specials in prop::collection::vec(0usize..4, 0..6),
        ) {
            let mut sum = sum(start.iter().map(|&b| finite(b, 0, 2046)));
            let before = sum.clone();
            let mut xs: Vec<f64> = terms.iter().map(|&b| finite(b, 0, 2046)).collect();
            xs.extend(specials.iter().map(|&k| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][k]));
            xs.iter().for_each(|&x| sum.add(x));
            xs.iter().rev().for_each(|&x| sum.sub(x));
            prop_assert!(same_state(&sum, &before), "{sum:?} != {before:?}");
        }
    }

    #[test]
    fn propagation_keeps_the_value_and_bounds_the_limbs() {
        let mut sum = ExactSum::new();
        sum.pending = CARRY_EVERY - 2;
        for _ in 0..5 {
            sum.add(f64::MAX);
            sum.add(-1.5);
        }
        assert!(sum.pending < 10, "a propagation ran");
        let bound = i64::from(sum.pending + 1) << 32;
        assert!(sum.limbs[..LIMBS - 1].iter().all(|l| l.abs() < bound));
        for _ in 0..5 {
            sum.sub(f64::MAX);
        }
        assert_eq!(sum.to_f64(), -7.5);
    }

    #[test]
    fn merge_after_many_operations_propagates_first() {
        let mut a = ExactSum::new();
        let mut b = ExactSum::new();
        a.pending = CARRY_EVERY;
        b.pending = CARRY_EVERY;
        a.add(3.0);
        b.add(0.25);
        a.merge(&b);
        assert!(a.pending <= CARRY_EVERY);
        assert_eq!(a.to_f64(), 3.25);
    }
}
