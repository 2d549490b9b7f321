//! Integration tests of the extension features: SQL-composed DP queries,
//! group-level privacy, prepared-query reuse, DP histograms and the
//! manual-range baseline — spanning `upa-relational`, `upa-core` and
//! `upa-flex`.

use dataflow::Context;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::output::OutputRange;
use upa_repro::upa_core::query::MapReduceQuery;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_relational::expr::Expr;
use upa_repro::upa_relational::plan::{int, LogicalPlan};
use upa_repro::upa_tpch::sql::catalog;
use upa_repro::upa_tpch::{Tables, TpchConfig};

fn tables() -> Tables {
    Tables::generate(&TpchConfig {
        orders: 1_500,
        ..TpchConfig::default()
    })
}

/// A DP count over the *rows of a SQL view*: filter with the relational
/// engine, then protect the filtered relation's rows with UPA. This is
/// the composability a SparkSQL deployment would use.
#[test]
fn dp_count_over_a_sql_view() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let sql = catalog(&ctx, &t, 4);
    // The view: urgent orders only.
    let view_plan = LogicalPlan::scan("orders").filter(Expr::col("orderpriority").eq(int(1)));
    let view = sql.execute(&view_plan).unwrap();
    let rows = view.as_rows().unwrap();
    let exact = rows.len() as f64;
    assert!(exact > 0.0);

    // Protect the view's rows: each row is one individual's order, its
    // half keyed by the row's content.
    let row_key =
        |row: &upa_repro::upa_relational::Row| dataflow::partitioner::hash_key(&format!("{row:?}"));
    let query = MapReduceQuery::scalar_sum("urgent_count", row_key, |_row: &Vec<_>| 1.0);
    let pool = rows.data().collect();
    let domain = EmpiricalSampler::new(pool);
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 64,
            add_noise: false,
            ..UpaConfig::default()
        },
    );
    let result = upa.run(rows.data(), &query, &domain).unwrap();
    assert_eq!(result.raw, exact);
    assert!((result.max_empirical_sensitivity() - 1.0).abs() < 1e-9);
}

/// Group-level privacy protects a family of g records with proportionally
/// more noise, end to end on TPC-H data.
#[test]
fn group_privacy_on_tpch_counts() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q = upa_repro::upa_tpch::queries::Q1::new(&t);
    let domain = EmpiricalSampler::new(t.lineitem.clone());
    let ds = ctx.parallelize(t.lineitem.clone(), 4);
    let individual = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 100,
            add_noise: false,
            ..UpaConfig::default()
        },
    );
    let group = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 100,
            add_noise: false,
            group_size: 10,
            ..UpaConfig::default()
        },
    );
    let ri = individual.run(&ds, q.query(), &domain).unwrap();
    let rg = group.run(&ds, q.query(), &domain).unwrap();
    assert_eq!(ri.max_empirical_sensitivity(), 1.0);
    assert_eq!(rg.max_empirical_sensitivity(), 10.0);
    assert!(rg.max_sensitivity() > ri.max_sensitivity());
}

/// Prepared queries answer repeated analyst requests without re-running
/// the engine (the §VI-E reuse extension) — across the suite's own query
/// objects.
#[test]
fn repeated_analyst_queries_reuse_preparation() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q = upa_repro::upa_tpch::queries::Q6::new(&t);
    let domain = EmpiricalSampler::new(t.lineitem.clone());
    let ds = ctx.parallelize(t.lineitem.clone(), 4);
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 100,
            ..UpaConfig::default()
        },
    )
    .with_budget(0.5);
    let prepared = upa.prepare(&ds, q.query(), &domain).unwrap();
    let before = ctx.metrics();
    let mut releases = Vec::new();
    for _ in 0..5 {
        releases.push(upa.release(&prepared).unwrap().released);
    }
    assert_eq!(ctx.metrics().since(&before).stages, 0);
    // All releases differ (independent noise) and the budget is spent.
    releases.sort_by(f64::total_cmp);
    releases.dedup();
    assert_eq!(releases.len(), 5);
    assert!(
        upa.release(&prepared).is_err(),
        "budget exhausted after 5 × 0.1"
    );
}

/// DP histogram of order priorities: per-bucket sensitivity is 1, and the
/// released histogram totals stay close to the truth.
#[test]
fn dp_histogram_of_order_priorities() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let query = MapReduceQuery::histogram(
        "priorities",
        |o: &upa_repro::upa_tpch::Order| o.orderkey,
        5,
        |o: &upa_repro::upa_tpch::Order| Some((o.orderpriority as usize - 1, 1.0)),
    );
    let domain = EmpiricalSampler::new(t.orders.clone());
    let ds = ctx.parallelize(t.orders.clone(), 4);
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 200,
            epsilon: 1.0,
            ..UpaConfig::default()
        },
    );
    let result = upa.run(&ds, &query, &domain).unwrap();
    assert_eq!(result.raw.len(), 5);
    assert_eq!(result.raw.iter().sum::<f64>(), t.orders.len() as f64);
    // A record lands in exactly one bucket: per-bucket empirical
    // sensitivity is 1.
    for s in &result.empirical_sensitivity {
        assert!((s - 1.0).abs() < 1e-9, "per-bucket sensitivity {s}");
    }
    // With ε=1 per bucket the noisy histogram is close to the truth.
    for (noisy, exact) in result.released.iter().zip(&result.raw) {
        assert!((noisy - exact).abs() < 100.0, "{noisy} vs {exact}");
    }
}

/// The manual-range baseline and UPA answer the same query; the manual
/// release is orders of magnitude noisier.
#[test]
fn manual_baseline_is_much_noisier_than_upa() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q = upa_repro::upa_tpch::queries::Q1::new(&t);
    let ds = ctx.parallelize(t.lineitem.clone(), 4);
    let epsilon = 0.1;
    // The analyst's safe global declaration: counts up to ten million.
    // Its width is the global sensitivity a manual-range system calibrates
    // its Laplace noise to.
    let manual_range = OutputRange::new(vec![(0.0, 1.0e7)]);
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 100,
            epsilon,
            add_noise: false,
            ..UpaConfig::default()
        },
    );
    let domain = EmpiricalSampler::new(t.lineitem.clone());
    let upa_result = upa.run(&ds, q.query(), &domain).unwrap();
    assert_eq!(q.query().evaluate_slice(&t.lineitem), upa_result.raw);
    let manual_scale = manual_range.widths()[0] / epsilon;
    let upa_scale = upa_result.max_sensitivity() / epsilon;
    assert!(
        manual_scale / upa_scale > 1e4,
        "manual {manual_scale} vs UPA {upa_scale}"
    );
}
