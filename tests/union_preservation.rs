//! Property-based tests of the union-preservation invariant — the heart
//! of UPA's efficiency claim.
//!
//! For a commutative, associative reducer, the neighbour outputs that
//! UPA derives by *reusing* `R(M(S′))` plus prefix/suffix partial
//! reductions must equal direct re-evaluation of the query on each
//! neighbouring dataset. These properties drive randomised datasets,
//! partitionings and reducers through both paths.

use dataflow::fault::FaultInjector;
use dataflow::{Config, Context};
use proptest::prelude::*;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::query::MapReduceQuery;
use upa_repro::upa_core::{Upa, UpaConfig};

fn upa(ctx: &Context, sample_size: usize, seed: u64) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            add_noise: false,
            seed,
            ..UpaConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every UPA removal output corresponds to evaluating the query
    /// directly on the dataset minus one of its records.
    #[test]
    fn removal_outputs_match_direct_evaluation(
        values in prop::collection::vec(-100.0f64..100.0, 30..200),
        partitions in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize(values.clone(), partitions);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(values.clone());
        let u = upa(&ctx, 16, seed);
        let result = u.run(&ds, &query, &domain).unwrap();
        let total: f64 = result.raw;
        // Multiset of direct neighbour outputs.
        let direct: Vec<f64> = (0..values.len())
            .map(|i| total - values[i])
            .collect();
        for o in result.removal_outputs.iter() {
            let hit = direct.iter().any(|d| (d - o).abs() < 1e-6 * total.abs().max(1.0));
            prop_assert!(hit, "removal output {o} matches no direct neighbour");
        }
    }

    /// A MAX-reduce (commutative, associative, non-invertible) goes
    /// through the same reuse path correctly — the reuse trick does not
    /// secretly rely on subtraction being possible.
    #[test]
    fn max_reduce_neighbours_are_exact(
        values in prop::collection::vec(0.0f64..1_000.0, 20..120),
        seed in 0u64..1_000,
    ) {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(values.clone(), 4);
        let query = MapReduceQuery::new(
            "max",
            |x: &f64| x.to_bits(),
            |x: &f64| *x,
            |a: &f64, b: &f64| a.max(*b),
            |acc: Option<&f64>| acc.copied().unwrap_or(0.0),
        );
        let domain = EmpiricalSampler::new(values.clone());
        let u = upa(&ctx, 12, seed);
        let result = u.run(&ds, &query, &domain).unwrap();
        // Direct evaluation for every possible removal.
        let direct: Vec<f64> = (0..values.len()).map(|i| {
            values.iter().enumerate().filter(|(j, _)| *j != i)
                .map(|(_, v)| *v).fold(0.0, f64::max)
        }).collect();
        for o in result.removal_outputs.iter() {
            prop_assert!(
                direct.iter().any(|d| (d - o).abs() < 1e-9),
                "max removal output {o} not reproducible"
            );
        }
    }

    /// The engine's parallel reduce equals the sequential fold for any
    /// partitioning — commutativity/associativity made observable.
    #[test]
    fn parallel_reduce_is_partition_invariant(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..300),
        p1 in 1usize..9,
        p2 in 1usize..9,
    ) {
        let ctx = Context::with_threads(4);
        let a = ctx.parallelize(values.clone(), p1)
            .reduce(|x, y| x + y).unwrap();
        let b = ctx.parallelize(values.clone(), p2)
            .reduce(|x, y| x + y).unwrap();
        let direct: f64 = values.iter().sum();
        // Float addition is not exactly associative; tolerance covers it.
        let tol = 1e-9 * values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((a - direct).abs() <= tol);
        prop_assert!((b - direct).abs() <= tol);
    }

    /// Fault injection with retry never changes results (the property
    /// that justifies re-executing tasks — paper §II-C).
    #[test]
    fn injected_faults_do_not_change_results(
        values in prop::collection::vec(0i64..1_000, 10..400),
        fault_seed in 0u64..100,
    ) {
        let clean_ctx = Context::with_threads(4);
        let faulty_ctx = Context::new(Config {
            threads: 4,
            fault: FaultInjector::new(0.3, fault_seed),
            max_task_retries: 32,
            ..Config::default()
        });
        let clean = clean_ctx.parallelize(values.clone(), 6)
            .map(|x| x * 2)
            .reduce(|a, b| a + b);
        let faulty = faulty_ctx.parallelize(values.clone(), 6)
            .map(|x| x * 2)
            .reduce(|a, b| a + b);
        prop_assert_eq!(clean, faulty);
    }

    /// The inferred range always contains the (pre-enforcement, exact)
    /// outputs of the sampled neighbours it was fitted to — up to the
    /// 1%/99% percentile tails by construction.
    #[test]
    fn range_covers_most_sampled_neighbours(
        values in prop::collection::vec(0.0f64..50.0, 100..400),
        seed in 0u64..1_000,
    ) {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(values.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(values.clone());
        let u = upa(&ctx, 64, seed);
        let result = u.run(&ds, &query, &domain).unwrap();
        let (lo, hi) = result.range.bounds[0];
        let inside = result.removal_outputs.iter()
            .chain(result.addition_outputs.iter())
            .filter(|o| **o >= lo && **o <= hi)
            .count();
        let total = result.removal_outputs.len() + result.addition_outputs.len();
        // A normal fit's P1–P99 covers 98% in expectation; leave slack
        // for non-normal samples.
        prop_assert!(
            inside as f64 >= 0.80 * total as f64,
            "only {inside}/{total} sampled neighbours inside the range"
        );
    }
}

/// Deterministic spot check: UPA on a fault-injected engine produces the
/// same inferred sensitivity as on a clean engine.
#[test]
fn upa_pipeline_survives_fault_injection() {
    let values: Vec<f64> = (0..2_000).map(|i| (i % 31) as f64).collect();
    let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
    let domain = EmpiricalSampler::new(values.clone());

    let clean_ctx = Context::with_threads(4);
    let faulty_ctx = Context::new(Config {
        threads: 4,
        fault: FaultInjector::new(0.35, 77),
        max_task_retries: 32,
        ..Config::default()
    });

    let clean = upa(&clean_ctx, 50, 5);
    let faulty = upa(&faulty_ctx, 50, 5);
    let a = clean
        .run(&clean_ctx.parallelize(values.clone(), 8), &query, &domain)
        .unwrap();
    let b = faulty
        .run(&faulty_ctx.parallelize(values, 8), &query, &domain)
        .unwrap();
    assert_eq!(a.raw, b.raw);
    assert_eq!(a.sensitivity, b.sensitivity);
    assert!(
        faulty_ctx.metrics().task_retries > 0,
        "faults must have fired"
    );
}
