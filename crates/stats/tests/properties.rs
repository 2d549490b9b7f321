//! Property-based tests of the statistics substrate.

use proptest::prelude::*;
use upa_stats::erf::{norm_cdf, norm_quantile};
use upa_stats::ks::ks_statistic;
use upa_stats::sampling::{sample_indices, Zipf};
use upa_stats::{Laplace, Normal};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The normal quantile is monotone in p and inverts the CDF.
    #[test]
    fn quantile_monotone_and_inverse(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let (qlo, qhi) = (norm_quantile(lo), norm_quantile(hi));
        prop_assert!(qlo <= qhi + 1e-12);
        prop_assert!((norm_cdf(qlo) - lo).abs() < 1e-5);
    }

    /// MLE fitting recovers location/scale shifts exactly.
    #[test]
    fn mle_is_equivariant(
        base in prop::collection::vec(-10.0f64..10.0, 2..100),
        shift in -100.0f64..100.0,
        scale in 0.1f64..10.0,
    ) {
        let fit = Normal::mle(&base).unwrap();
        let transformed: Vec<f64> = base.iter().map(|x| x * scale + shift).collect();
        let fit2 = Normal::mle(&transformed).unwrap();
        prop_assert!((fit2.mean() - (fit.mean() * scale + shift)).abs() < 1e-6 * (1.0 + fit2.mean().abs()));
        prop_assert!((fit2.std_dev() - fit.std_dev() * scale).abs() < 1e-6 * (1.0 + fit2.std_dev()));
    }

    /// Laplace CDF is monotone with median at the location.
    #[test]
    fn laplace_cdf_properties(loc in -50.0f64..50.0, scale in 0.1f64..20.0, x in -100.0f64..100.0) {
        let l = Laplace::new(loc, scale).unwrap();
        prop_assert!((l.cdf(loc) - 0.5).abs() < 1e-12);
        prop_assert!(l.cdf(x) >= 0.0 && l.cdf(x) <= 1.0);
        prop_assert!(l.cdf(x + 1.0) >= l.cdf(x));
    }

    /// Sampled indices are distinct, sorted, in range, of the right count.
    #[test]
    fn sample_indices_invariants(len in 1usize..2000, n in 0usize..2500, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let idx = sample_indices(&mut rng, len, n);
        prop_assert_eq!(idx.len(), n.min(len));
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(idx.iter().all(|&i| i < len));
    }

    /// Zipf samples stay in the support for any exponent.
    #[test]
    fn zipf_support(n in 1usize..500, s in 0.0f64..3.0, seed in 0u64..100) {
        use rand::SeedableRng;
        let z = Zipf::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = z.sample(&mut rng);
            prop_assert!(v >= 1 && v <= n);
        }
    }

    /// The KS statistic is within [0, 1] and zero-ish for the fitted CDF
    /// of constant samples.
    #[test]
    fn ks_bounds(values in prop::collection::vec(-100.0f64..100.0, 1..200)) {
        let fit = Normal::mle(&values).unwrap();
        if fit.std_dev() > 0.0 {
            let d = ks_statistic(&values, &fit).unwrap();
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }
}

/// Floyd's algorithm over a hash set, the way `sample_indices` resolved
/// its draws before the sort: the reference the draw/resolve split must
/// reproduce. Also returns how many steps collided.
fn hash_set_floyd(rng: &mut rand::rngs::StdRng, len: usize, n: usize) -> (Vec<usize>, usize) {
    use rand::Rng;
    if n >= len {
        return ((0..len).collect(), 0);
    }
    let mut chosen = std::collections::HashSet::with_capacity(n);
    let mut collisions = 0;
    for j in (len - n)..len {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
            collisions += 1;
        }
    }
    let mut out: Vec<usize> = chosen.into_iter().collect();
    out.sort_unstable();
    (out, collisions)
}

/// `sample_indices` returns the hash-set Floyd's sample for the same seed
/// and leaves the RNG where the reference leaves it. The populations run
/// from tiny (most draws collide, so the replay of collisions runs) to
/// millions of rows (the served sample, where the sorted draws are the
/// answer), with `n = 0` and `n >= len` among them.
#[test]
fn sample_indices_matches_hash_set_floyd() {
    use rand::{RngCore, SeedableRng};
    let (mut cases, mut replayed) = (0usize, 0usize);
    proptest::run(
        "sample_indices_matches_hash_set_floyd",
        &ProptestConfig::with_cases(2000),
        "(regime, len, n, seed)",
        (0usize..4, 0usize..3_000_000, 0usize..1500, 0u64..u64::MAX),
        |(regime, len, n, seed)| {
            let (len, n) = match regime {
                0 => (len % 12, n % 16),
                1 => (len % 3000, n),
                2 => (1_000_000 + len, n),
                _ if n % 2 == 0 => (len % 500, 0),
                _ => (len % 500, len % 500 + n % 7),
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut reference_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let got = sample_indices(&mut rng, len, n);
            let (want, collisions) = hash_set_floyd(&mut reference_rng, len, n);
            prop_assert_eq!(got, want, "len {len}, n {n}");
            prop_assert_eq!(rng.next_u64(), reference_rng.next_u64(), "next draw");
            cases += 1;
            replayed += usize::from(collisions > 0);
            Ok(())
        },
    );
    println!("{cases} cases matched the hash-set Floyd, {replayed} of them with collisions");
    assert!(replayed > cases / 10, "too few cases exercise the replay");
}
