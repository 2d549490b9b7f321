//! Property-based tests of UPA's soundness invariants.

use dataflow::columnar::{slab_ranges, ColumnarBuf, ColumnarDataset};
use dataflow::{Config, Context, Data};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use upa_core::domain::{ColumnarEmpiricalSampler, DomainSampler, EmpiricalSampler};
use upa_core::query::{half_of, MapReduceQuery};
use upa_core::{DpOutput, Upa, UpaConfig, UpaError, UpaResult};
use upa_stats::sampling::sample_indices;

fn ctx() -> Context {
    Context::with_threads(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The enforced output always lies inside the inferred range — the
    /// prerequisite of the §IV-C iDP proof — for arbitrary data,
    /// partitionings and seeds.
    #[test]
    fn enforced_output_always_in_range(
        values in prop::collection::vec(-1000.0f64..1000.0, 2..300),
        partitions in 1usize..6,
        sample_size in 2usize..64,
        seed in 0u64..500,
    ) {
        let c = ctx();
        let ds = c.parallelize(values.clone(), partitions);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(values);
        let upa = Upa::new(
            c.clone(),
            UpaConfig { sample_size, seed, add_noise: false, ..UpaConfig::default() },
        );
        let r = upa.run(&ds, &query, &domain).unwrap();
        prop_assert!(r.range.contains(r.enforced.components()));
        prop_assert!(r.sensitivity.iter().all(|s| *s >= 0.0 && s.is_finite()));
        prop_assert!(r.max_empirical_sensitivity() <= r.max_sensitivity() + 1e-9,
            "the enforced width dominates the observed neighbour spread");
    }

    /// Sensitivity of a scaled query scales linearly (Laplace mechanism
    /// equivariance through the whole pipeline).
    #[test]
    fn sensitivity_is_scale_equivariant(
        values in prop::collection::vec(0.0f64..100.0, 10..200),
        factor in 1.0f64..50.0,
        seed in 0u64..100,
    ) {
        let c = ctx();
        let ds = c.parallelize(values.clone(), 4);
        let domain = EmpiricalSampler::new(values);
        let config = UpaConfig { sample_size: 32, seed, add_noise: false, ..UpaConfig::default() };
        let base = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let scaled =
            MapReduceQuery::scalar_sum("sum_scaled", |x: &f64| x.to_bits(), move |x: &f64| *x * factor);
        let u1 = Upa::new(c.clone(), config.clone());
        let u2 = Upa::new(c.clone(), config);
        let r1 = u1.run(&ds, &base, &domain).unwrap();
        let r2 = u2.run(&ds, &scaled, &domain).unwrap();
        // Same seed → same sample → exactly proportional estimates.
        prop_assert!((r2.max_empirical_sensitivity() - factor * r1.max_empirical_sensitivity()).abs()
            <= 1e-6 * (1.0 + r2.max_empirical_sensitivity()));
    }

    /// Repeated enforcement over many random queries never loops and the
    /// history grows by exactly one entry per query.
    #[test]
    fn enforcer_history_grows_linearly(
        datasets in prop::collection::vec(
            prop::collection::vec(0.0f64..50.0, 4..60),
            1..6
        ),
        seed in 0u64..100,
    ) {
        let c = ctx();
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);
        let upa = Upa::new(
            c.clone(),
            UpaConfig { sample_size: 8, seed, add_noise: false, ..UpaConfig::default() },
        );
        let total = datasets.len();
        for values in datasets {
            let domain = EmpiricalSampler::new(values.clone());
            let ds = c.parallelize(values, 2);
            let _ = upa.run(&ds, &query, &domain).unwrap();
        }
        prop_assert_eq!(upa.enforcer().history_len(), total);
    }
}

/// Naive reference for phases 1–3 and the neighbour outputs they feed:
/// draw the sample, then — sort-free — left-fold each slab's un-sampled
/// records in order into one accumulator per (slab, logical half), and
/// left-fold those partials per half in ascending slab order.
/// Returns the bits of `[raw, removals.., additions..]`.
fn reference_bits<T: Data, Acc: Data>(
    slabs: &[Vec<T>],
    query: &MapReduceQuery<T, Acc, f64>,
    domain: &dyn DomainSampler<T>,
    config: &UpaConfig,
) -> Vec<u64> {
    let len: usize = slabs.iter().map(Vec::len).sum();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let picked = sample_indices(&mut rng, len, config.sample_size.min(len));
    let additions = domain.sample_n(&mut rng, picked.len());
    let push = |acc: &mut Option<Acc>, m: Acc| {
        *acc = Some(match acc.take() {
            Some(a) => query.reduce(&a, &m),
            None => m,
        });
    };
    let (mut rem, mut sampled, mut g) = ([None, None], Vec::new(), 0usize);
    for slab in slabs {
        let mut partial: [Option<Acc>; 2] = [None, None];
        for t in slab {
            if picked.binary_search(&g).is_ok() {
                sampled.push(query.map(t));
            } else {
                push(&mut partial[half_of(query.half_key()(t))], query.map(t));
            }
            g += 1;
        }
        for (h, p) in partial.into_iter().enumerate() {
            p.into_iter().for_each(|p| push(&mut rem[h], p));
        }
    }
    let r_sprime = query.merge_ref(rem[0].as_ref(), rem[1].as_ref());
    let r_x = query.merge_ref(r_sprime.as_ref(), query.reduce_all(&sampled).as_ref());
    let mut outputs = vec![query.finalize(r_x.as_ref())];
    for i in 0..sampled.len() {
        let before = query.reduce_all(&sampled[..i]);
        let after = sampled[i + 1..].iter().rev().fold(None, |s, m| match s {
            Some(s) => Some(query.reduce(m, &s)),
            None => Some(m.clone()),
        });
        let without = query.merge_ref(before.as_ref(), after.as_ref());
        outputs.push(
            query.finalize(
                query
                    .merge_ref(r_sprime.as_ref(), without.as_ref())
                    .as_ref(),
            ),
        );
    }
    for a in &additions {
        outputs.push(query.finalize(query.merge_ref(r_x.as_ref(), Some(&query.map(a))).as_ref()));
    }
    outputs.iter().map(|o| o.to_bits()).collect()
}

fn neighbour_bits(r: &UpaResult<f64>) -> Vec<u64> {
    std::iter::once(&r.raw)
        .chain(r.removal_outputs.iter())
        .chain(r.addition_outputs.iter())
        .map(|o| o.to_bits())
        .collect()
}

fn full_bits(r: &UpaResult<f64>) -> Vec<u64> {
    let mut bits = neighbour_bits(r);
    bits.extend([r.released.to_bits(), r.enforced.to_bits()]);
    bits.extend(r.sensitivity.iter().map(|s| s.to_bits()));
    bits.extend(r.empirical_sensitivity.iter().map(|s| s.to_bits()));
    bits.extend(
        r.range
            .bounds
            .iter()
            .flat_map(|(lo, hi)| [lo.to_bits(), hi.to_bits()]),
    );
    bits
}

/// A release either matches the reference bit for bit, or — non-finite
/// payloads can legitimately make the sensitivity fit refuse — fails;
/// returns the full result bits or the error text for parity checks.
fn against_reference(
    got: Result<UpaResult<f64>, UpaError>,
    want: &[u64],
) -> Result<Result<Vec<u64>, String>, String> {
    match got {
        Ok(r) if neighbour_bits(&r) == want => Ok(Ok(full_bits(&r))),
        Ok(r) => Err(format!("{:x?} != reference {want:x?}", neighbour_bits(&r))),
        Err(e) => Ok(Err(e.to_string())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both record sources release exactly what the naive reference fold
    /// says — on arbitrary chunk layouts (single-record chunks included),
    /// NaN/±inf payloads, row datasets whose partitions a `filter` left
    /// uneven, and three slabs thousands of records long. Chunk layout and
    /// the engine's map-side-combine flag must never reach a release.
    #[test]
    fn both_sources_match_the_reference_fold(
        base_values in prop::collection::vec(-1000.0f64..1000.0, 0..200),
        cuts in prop::collection::vec(1usize..16, 1..24),
        sample_size in 1usize..48,
        seed in 0u64..500,
        threads in 1usize..4,
        partitions in 1usize..7,
        salt in 0usize..17,
    ) {
        // Splice NaN/±inf payloads in at salt-derived positions — the
        // stub proptest has no weighted unions, so specials are injected
        // deterministically from the generated inputs.
        let mut values = base_values;
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (i, v) in values.iter_mut().enumerate() {
            if (i + salt) % 13 == 0 && salt % 3 != 0 {
                *v = specials[(i + salt) % specials.len()];
            }
        }
        let c = Context::with_threads(threads);
        let config = UpaConfig { sample_size, seed, add_noise: false, ..UpaConfig::default() };
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let run = |ctx: &Context| Upa::new(ctx.clone(), config.clone());
        let pool = if values.is_empty() { vec![0.0] } else { values.clone() };
        let domain = EmpiricalSampler::new(pool.clone());

        // Columnar source: the values split at arbitrary points — `cuts`
        // cycles, so layouts include runs of single-record chunks. Its
        // slabs are the engine-default ranges, whatever the chunks are.
        let mut chunks = Vec::new();
        let mut at = 0usize;
        while at < values.len() {
            let len = cuts[chunks.len() % cuts.len()].min(values.len() - at);
            chunks.push(Arc::from(&values[at..at + len]));
            at += len;
        }
        let buf = ColumnarBuf::new(chunks);
        let slabs: Vec<Vec<f64>> = slab_ranges(values.len(), c.config().default_partitions)
            .into_iter()
            .map(|(s, e)| values[s..e].to_vec())
            .collect();
        let want = reference_bits(&slabs, &query, &domain, &config);
        let columnar = against_reference(
            run(&c).run(
                &ColumnarDataset::new(&c, buf),
                &query,
                &ColumnarEmpiricalSampler::new(ColumnarBuf::from_values(pool.to_vec(), 7)),
            ),
            &want,
        )?;
        // Same values, same slabs, the other source: every bit agrees
        // (Ok or Err alike), logical halves and enforcement included.
        let flat = c.parallelize_default(values.clone());
        prop_assert_eq!(&against_reference(run(&c).run(&flat, &query, &domain), &want)?, &columnar);
        if values.is_empty() {
            prop_assert_eq!(columnar, Err(UpaError::EmptyDataset.to_string()));
        }

        // Row source with uneven (some possibly empty) partitions, under
        // both settings of the engine's combiner flag.
        let keep = move |x: &f64| (x.to_bits() >> 3) % 3 != (salt % 3) as u64;
        let mut outcomes = Vec::new();
        for map_side_combine in [true, false] {
            let c = Context::new(Config { threads, map_side_combine, ..Config::default() });
            let ds = c.parallelize(values.clone(), partitions).filter(keep);
            let slabs: Vec<Vec<f64>> = ds.partitions().iter().map(|p| p.to_vec()).collect();
            let want = reference_bits(&slabs, &query, &domain, &config);
            outcomes.push(against_reference(run(&c).run(&ds, &query, &domain), &want)?);
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1]);

        // Three slabs of more than 2,000 records each, over finite
        // fractional values whose sums round differently under another
        // grouping: both sources fold every slab as one left fold per
        // half, whatever the chunk size.
        let long: Vec<f64> = (0..3 * (2_001 + salt))
            .map(|i| ((i * 37 + salt) % 1_009) as f64 * 0.37 - 100.0)
            .collect();
        let c = Context::new(Config { threads, default_partitions: 3, ..Config::default() });
        let slabs: Vec<Vec<f64>> = slab_ranges(long.len(), 3)
            .into_iter()
            .map(|(s, e)| long[s..e].to_vec())
            .collect();
        prop_assert!(slabs.len() == 3 && slabs.iter().all(|s| s.len() > 2_000));
        let domain = EmpiricalSampler::new(long.clone());
        let buf = ColumnarBuf::from_values(long.to_vec(), 97 * cuts[0]);
        let want = reference_bits(&slabs, &query, &domain, &config);
        let columnar = run(&c).run(
            &ColumnarDataset::new(&c, buf.clone()),
            &query,
            &ColumnarEmpiricalSampler::new(buf),
        );
        prop_assert!(against_reference(columnar, &want)?.is_ok(), "finite data must release");
        let row = run(&c).run(&c.parallelize_default(long), &query, &domain);
        prop_assert!(against_reference(row, &want)?.is_ok(), "finite data must release");
    }

    /// Slabs over many chunk blocks of `chunk_rows` records, over finite
    /// fractional values whose sums round differently under another
    /// grouping: both sources continue one slab's fold across every chunk
    /// edge, as the reference does, whatever the chunk size.
    #[test]
    fn multi_block_slabs_match_the_reference_fold(
        len in 513usize..5_000,
        chunk_rows in 1usize..1_500,
        threads in 1usize..4,
        sample_size in 1usize..48,
        seed in 0u64..500,
        salt in 0usize..1_009,
    ) {
        let values: Vec<f64> = (0..len)
            .map(|i| ((i * 37 + salt) % 1_009) as f64 * 0.37 - 100.0)
            .collect();
        let c = Context::with_threads(threads);
        let config = UpaConfig { sample_size, seed, add_noise: false, ..UpaConfig::default() };
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(values.clone());
        let slabs: Vec<Vec<f64>> = slab_ranges(len, c.config().default_partitions)
            .into_iter()
            .map(|(s, e)| values[s..e].to_vec())
            .collect();
        let want = reference_bits(&slabs, &query, &domain, &config);
        let buf = ColumnarBuf::from_values(values.to_vec(), chunk_rows);
        let columnar = Upa::new(c.clone(), config.clone()).run(
            &ColumnarDataset::new(&c, buf.clone()),
            &query,
            &ColumnarEmpiricalSampler::new(buf),
        );
        prop_assert!(against_reference(columnar, &want)?.is_ok(), "finite data must release");
        let row = Upa::new(c.clone(), config).run(&c.parallelize_default(values), &query, &domain);
        prop_assert!(against_reference(row, &want)?.is_ok(), "finite data must release");
    }

    /// The row source over a non-`f64` record type with a stable half
    /// key and a tuple accumulator.
    #[test]
    fn keyed_records_match_the_reference_fold(
        rows in prop::collection::vec((0u32..40, -50.0f64..50.0), 1..150),
        partitions in 1usize..7,
        sample_size in 1usize..32,
        seed in 0u64..500,
    ) {
        let c = ctx();
        let config = UpaConfig { sample_size, seed, add_noise: false, ..UpaConfig::default() };
        let query: MapReduceQuery<(u32, f64), (f64, f64), f64> = MapReduceQuery::new(
            "weighted_mean",
            |(k, _): &(u32, f64)| u64::from(*k),
            |(k, v): &(u32, f64)| (*v * 0.1 * f64::from(*k), 1.0),
            |a, b| (a.0 + b.0, a.1 + b.1),
            |acc| acc.map_or(0.0, |(s, n)| s / n),
        );
        let domain = EmpiricalSampler::new(rows.clone());
        let ds = c.parallelize(rows, partitions).filter(|(k, _)| k % 5 != 0);
        let slabs: Vec<Vec<(u32, f64)>> = ds.partitions().iter().map(|p| p.to_vec()).collect();
        let want = reference_bits(&slabs, &query, &domain, &config);
        let got = Upa::new(c.clone(), config).run(&ds, &query, &domain);
        prop_assert!(against_reference(got, &want)?.is_ok(), "finite data must release");
    }
}
