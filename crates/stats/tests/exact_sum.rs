//! `ExactSum` against an independent exact oracle: Shewchuk's expansion
//! sum with a correctly rounded final step (the algorithm behind Python's
//! `math.fsum`).

use proptest::prelude::*;
use upa_stats::ExactSum;

/// The correctly rounded sum of finite `xs` whose partial sums stay
/// finite: Shewchuk's non-overlapping partials (Shewchuk, "Adaptive
/// Precision Floating-Point Arithmetic and Fast Robust Geometric
/// Predicates", 1997), then CPython's half-even correction of the last
/// addition.
fn fsum(xs: &[f64]) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    for &x0 in xs {
        let mut x = x0;
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        partials.truncate(kept);
        partials.push(x);
    }
    let Some(mut n) = partials.len().checked_sub(1) else {
        return 0.0;
    };
    let mut hi = partials[n];
    let mut lo = 0.0;
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = partials[n];
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

/// A finite value from raw bits, its exponent field cut to `[lo, hi]`.
fn finite(bits: u64, lo: u64, hi: u64) -> f64 {
    let field = lo + ((bits >> 52) & 0x7ff) % (hi - lo + 1);
    f64::from_bits((bits & !(0x7ff << 52)) | field << 52)
}

fn sum(xs: &[f64]) -> ExactSum {
    let mut sum = ExactSum::new();
    xs.iter().for_each(|&x| sum.add(x));
    sum
}

fn exact(xs: &[f64]) -> f64 {
    sum(xs).to_f64()
}

/// Equal bits, except that an exact zero is `+0.0` whatever the oracle's
/// sign.
fn same(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (want == 0.0 && got.to_bits() == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Values within a few hundred binades of each other: every sum
    /// rounds, and most lose bits in a plain left fold.
    #[test]
    fn random_sums_round_like_the_oracle(raw in prop::collection::vec(0u64..u64::MAX, 0..200)) {
        let xs: Vec<f64> = raw.iter().map(|&b| finite(b, 900, 1200)).collect();
        let (got, want) = (exact(&xs), fsum(&xs));
        prop_assert!(same(got, want), "{got:e} != {want:e}");
    }

    /// From subnormals to 2^1017: the whole exponent range in one sum.
    #[test]
    fn wide_range_sums_round_like_the_oracle(raw in prop::collection::vec(0u64..u64::MAX, 0..64)) {
        let xs: Vec<f64> = raw.iter().map(|&b| finite(b, 0, 2040)).collect();
        let (got, want) = (exact(&xs), fsum(&xs));
        prop_assert!(same(got, want), "{got:e} != {want:e}");
    }

    /// Subnormals and the smallest normals: sums exact in `f64` too.
    #[test]
    fn subnormal_sums_round_like_the_oracle(raw in prop::collection::vec(0u64..u64::MAX, 0..100)) {
        let xs: Vec<f64> = raw.iter().map(|&b| finite(b, 0, 2)).collect();
        let (got, want) = (exact(&xs), fsum(&xs));
        prop_assert!(same(got, want), "{got:e} != {want:e}");
    }

    /// Large terms that cancel, leaving small ones: a left fold keeps
    /// little or nothing of the small terms.
    #[test]
    fn cancelling_sums_round_like_the_oracle(
        large in prop::collection::vec(0u64..u64::MAX, 1..40),
        small in prop::collection::vec(0u64..u64::MAX, 0..40),
        shift in 0usize..40,
    ) {
        let big: Vec<f64> = large.iter().map(|&b| finite(b, 1800, 2000)).collect();
        let mut xs: Vec<f64> = big.clone();
        xs.extend(small.iter().map(|&b| finite(b, 900, 1100)));
        xs.extend(big.iter().map(|x| -x));
        let len = xs.len();
        xs.rotate_left(shift % len);
        let (got, want) = (exact(&xs), fsum(&xs));
        prop_assert!(same(got, want), "{got:e} != {want:e}");
    }

    /// Huge terms whose sum stays finite, and terms that overflow it.
    #[test]
    fn huge_sums_round_like_the_oracle_or_overflow(raw in prop::collection::vec(0u64..u64::MAX, 1..16)) {
        let xs: Vec<f64> = raw.iter().map(|&b| finite(b, 2030, 2042)).collect();
        let (got, want) = (exact(&xs), fsum(&xs));
        prop_assert!(same(got, want), "{got:e} != {want:e}");
        let all: Vec<f64> = xs.iter().map(|x| x.abs() + f64::MAX / 2.0).collect();
        prop_assert_eq!(exact(&all[..1]), all[0]);
        if all.len() > 2 {
            prop_assert_eq!(exact(&all), f64::INFINITY);
        }
    }

    /// NaN wins; otherwise two opposite infinities make NaN and one
    /// infinity wins over every finite sum.
    #[test]
    fn nan_and_infinities_are_counted_on_the_side(
        raw in prop::collection::vec(0u64..u64::MAX, 0..20),
        specials in prop::collection::vec(0usize..3, 0..4),
    ) {
        let mut xs: Vec<f64> = raw.iter().map(|&b| finite(b, 900, 1200)).collect();
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        xs.extend(specials.iter().map(|&k| special[k]));
        let has = |k: usize| specials.contains(&k);
        let want = if has(0) || (has(1) && has(2)) {
            f64::NAN
        } else if has(1) {
            f64::INFINITY
        } else if has(2) {
            f64::NEG_INFINITY
        } else {
            fsum(&xs)
        };
        let got = exact(&xs);
        prop_assert!(same(got, want) || (got.is_nan() && want.is_nan()), "{got} != {want}");
        // Taking the specials back out leaves the finite sum.
        let mut all = sum(&xs);
        specials.iter().for_each(|&k| all.sub(special[k]));
        let finite_sum = fsum(&xs[..raw.len()]);
        prop_assert!(same(all.to_f64(), finite_sum));
    }

    /// Order and grouping do not matter: a reversed sum and a merge of
    /// two halves round to the same bits, and subtracting a part leaves
    /// the correctly rounded rest.
    #[test]
    fn order_merge_and_subtraction_agree(
        raw in prop::collection::vec(0u64..u64::MAX, 0..120),
        cut in 0usize..120,
    ) {
        let xs: Vec<f64> = raw.iter().map(|&b| finite(b, 950, 1150)).collect();
        let cut = cut.min(xs.len());
        let whole = exact(&xs);
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        prop_assert_eq!(exact(&reversed).to_bits(), whole.to_bits());
        let mut left = sum(&xs[..cut]);
        left.merge(&sum(&xs[cut..]));
        prop_assert_eq!(left.to_f64().to_bits(), whole.to_bits());
        xs[..cut].iter().for_each(|&x| left.sub(x));
        prop_assert!(same(left.to_f64(), fsum(&xs[cut..])));
    }
}

#[test]
fn ties_round_to_even_and_a_sticky_bit_breaks_them() {
    let two53 = 2f64.powi(53);
    assert_eq!(exact(&[two53, 1.0]), two53);
    assert_eq!(exact(&[two53, 3.0]), two53 + 4.0);
    assert_eq!(exact(&[two53, 1.0, 2f64.powi(-1000)]), two53 + 2.0);
    assert_eq!(exact(&[two53, 1.0, -(2f64.powi(-1000))]), two53);
    assert_eq!(exact(&[-two53, -1.0, -(2f64.powi(-1000))]), -two53 - 2.0);
    assert_eq!(exact(&[1.0, 2f64.powi(-53)]), 1.0);
    assert_eq!(
        exact(&[1.0, 2f64.powi(-53), f64::from_bits(1)]),
        1.0 + f64::EPSILON
    );
}

#[test]
fn exact_zero_and_the_extremes() {
    assert_eq!(exact(&[]).to_bits(), 0);
    assert_eq!(exact(&[-0.0, -0.0]).to_bits(), 0);
    assert_eq!(exact(&[1.5, -1.5]).to_bits(), 0);
    let tiny = f64::from_bits(1);
    assert_eq!(exact(&[tiny]), tiny);
    assert_eq!(exact(&[-tiny, tiny, -tiny]), -tiny);
    assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
    assert_eq!(exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    // Half an ulp above MAX is a tie, and MAX's mantissa is odd.
    let half_ulp = 2f64.powi(970);
    assert_eq!(exact(&[f64::MAX, half_ulp]), f64::INFINITY);
    assert_eq!(exact(&[f64::MAX, half_ulp, -tiny]), f64::MAX);
}

#[test]
fn a_million_terms_sum_exactly() {
    // 0.1 is not a binary fraction, so a left fold drifts; the exact sum
    // of a million copies of its double rounds once.
    let xs = vec![0.1; 1_000_000];
    let got = exact(&xs);
    assert_eq!(got.to_bits(), (0.1f64 * 1e6).to_bits());
    assert_ne!(xs.iter().sum::<f64>(), got, "a left fold drifts");
}
