//! Benchmarks of the UPA pipeline against its baselines: vanilla
//! execution (what Figure 2(b) normalizes to) and the engine's plain
//! reduce, swept over sample size and dataset size, the two ML queries
//! at the paper suite's record count, TPCH4 through `joinDP`, the
//! served sum's prepare where |x| ≫ n, and the served cold release of an
//! answered query, span by span.

use dataflow::columnar::{ColumnarBuf, ColumnarDataset};
use dataflow::{Context, PairOps};
use std::sync::Arc;
use upa_bench::report::{bench, time_median};
use upa_core::domain::{ColumnarEmpiricalSampler, EmpiricalSampler};
use upa_core::join::JoinAggregate;
use upa_core::query::MapReduceQuery;
use upa_core::{Upa, UpaConfig};
use upa_mlalgo::data::{generate_points, generate_regression};
use upa_mlalgo::{KMeans, LifeScienceConfig, LinearRegression};
use upa_server::state::{build_agg_query, column_totals};
use upa_server::AggKind;
use upa_tpch::gen::TpchDatasets;
use upa_tpch::queries::{q4_qualifies, Q4};
use upa_tpch::{Tables, TpchConfig};

fn workload(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + 5) % 101) as f64).collect()
}

fn upa(ctx: &Context, sample_size: usize) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            ..UpaConfig::default()
        },
    )
}

/// The spans a served cold release spends its time in, in pipeline order.
const COLD_SPANS: [&str; 8] = [
    "prepare/partition",
    "prepare/sample",
    "prepare/map",
    "prepare/reduce",
    "prepare/neighbours",
    "prepare/mle_fit",
    "release/enforce",
    "release/clamp",
];

/// The served cold path (a cache miss of a query the engine has already
/// answered): on one 2-thread engine over a 2·10⁶-row column in 65,536-row
/// chunks with its exact half totals, each repetition prepares the served
/// sum afresh at n = 1000 and releases it once, so RANGE ENFORCER compares
/// it against every earlier release. Prints the median of the whole
/// prepare-and-release and of each span in [`COLD_SPANS`].
fn served_repeat_release(smoke: bool) {
    const ROWS: usize = 2_000_000;
    let ctx = Context::with_threads(2);
    let values: Vec<f64> = (0..ROWS)
        .map(|i| ((i * 37 + 5) % 101) as f64 * 0.37)
        .collect();
    let buf = ColumnarBuf::from_values(values.to_vec(), 1 << 16);
    let ds = ColumnarDataset::new(&ctx, buf.clone());
    let domain = ColumnarEmpiricalSampler::new(buf);
    let query = build_agg_query(AggKind::Sum).with_half_totals(Arc::new(column_totals(&ds)));
    let u = upa(&ctx, 1_000);
    let cold_release = || {
        let prepared = u.prepare(&ds, &query, &domain).expect("runs");
        let (_, audit) = u
            .release_with(&prepared, u.config().epsilon, |_| {})
            .expect("releases");
        audit
    };
    // The query's first answer: every timed release below repeats it.
    cold_release();
    let reps = if smoke { 1 } else { 401 };
    let mut totals = Vec::with_capacity(reps);
    let mut spans = vec![Vec::with_capacity(reps); COLD_SPANS.len()];
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let audit = cold_release();
        totals.push(start.elapsed().as_secs_f64() * 1e6);
        for (path, t) in COLD_SPANS.iter().zip(&mut spans) {
            let nanos: u64 = audit
                .spans
                .iter()
                .filter(|s| s.path == *path)
                .map(|s| s.nanos)
                .sum();
            t.push(nanos as f64 / 1e3);
        }
    }
    let median = |mut t: Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    let name = format!("upa/served_repeat_release/{ROWS}");
    println!(
        "{name:<48} {:>14.6} ms  (median of {reps})",
        median(totals) / 1e3
    );
    for (path, t) in COLD_SPANS.iter().zip(spans) {
        println!("  {path:<46} {:>14.3} us  (median)", median(t));
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // `cargo bench -p upa-bench --bench upa_pipeline -- served_repeat_release`
    // runs that case alone.
    if std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && "upa/served_repeat_release".contains(a.as_str()))
    {
        served_repeat_release(smoke);
        return;
    }
    let ctx = Context::with_threads(4);
    let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);

    let data = workload(100_000);
    let ds = ctx.parallelize(data.clone(), 8);
    let domain = EmpiricalSampler::new(data);
    let m = query.mapper();
    bench("upa/sum_100k/vanilla", 15, || {
        let m = m.clone();
        ds.map(move |t| m(t)).reduce(|a, b| a + b)
    });
    let u = upa(&ctx, 1_000);
    bench("upa/sum_100k/upa_full_pipeline", 15, || {
        u.run(&ds, &query, &domain).expect("runs")
    });

    // One Lloyd iteration and one SGD epoch over 120,000 records, each
    // folded in place by its query's fused kernel.
    let ml = LifeScienceConfig {
        records: 120_000,
        ..LifeScienceConfig::default()
    };
    let points = generate_points(&ml);
    let points_ds = ctx.parallelize(points.clone(), 8);
    let km = KMeans::init_from_points(&points, ml.clusters);
    let km_query = km.step_query("KMeans");
    let km_domain = EmpiricalSampler::new(points);
    bench("upa/kmeans_120k/vanilla", 15, || km.step_plain(&points_ds));
    bench("upa/kmeans_120k/upa", 15, || {
        u.run(&points_ds, &km_query, &km_domain).expect("runs")
    });
    let (records, _) = generate_regression(&ml);
    let records_ds = ctx.parallelize(records.clone(), 8);
    let lr = LinearRegression::new(ml.dims, 0.05);
    let lr_query = lr.step_query("LinearRegression");
    let lr_domain = EmpiricalSampler::new(records);
    bench("upa/linreg_120k/vanilla", 15, || lr.step_plain(&records_ds));
    bench("upa/linreg_120k/upa", 15, || {
        u.run(&records_ds, &lr_query, &lr_domain).expect("runs")
    });

    // TPCH4 at the paper suite's 60,000 orders: the vanilla shuffle join
    // against joinDP, whose one shuffle join is its remainder round.
    let tables = Tables::generate(&TpchConfig {
        orders: 60_000,
        ..TpchConfig::default()
    });
    let tpch = TpchDatasets::load(&ctx, &tables, 8);
    let (orders, lineitem) = Q4::keyed(&tpch);
    let q4_agg = JoinAggregate::count("TPCH4", |_: &u64, o, l| q4_qualifies(o, l));
    let orders_domain = EmpiricalSampler::new(orders.collect());
    bench("upa/tpch4_join_dp/vanilla", 15, || {
        orders
            .join(&lineitem)
            .filter(|(_, (o, l))| q4_qualifies(o, l))
            .count()
    });
    bench("upa/tpch4_join_dp/upa", 15, || {
        u.run_join(&orders, &lineitem, &q4_agg, &orders_domain)
            .expect("runs")
    });

    for n in [100usize, 1_000, 10_000] {
        let u = upa(&ctx, n);
        bench(&format!("upa/sample_size/{n}"), 10, || {
            u.run(&ds, &query, &domain).expect("runs")
        });
    }

    // The served sum at n = 1000 over 2·10⁵ and 2·10⁷ rows: it is handed
    // the column's exact half totals, so a prepare reads only its sample
    // and should take about the same time at both sizes (the paper's
    // Fig. 4(b) near-constant claim on the served path). The two sizes'
    // prepares alternate, so both see the same machine. The totals, one
    // scan of the column (`column_totals`), are timed on their own: the
    // server pays them once per column when it builds a residency (at
    // startup or attach), never inside a query.
    let sizes = [200_000usize, 20_000_000];
    let served: Vec<_> = sizes
        .iter()
        .map(|&rows| {
            let chunks = (0..rows)
                .step_by(1 << 16)
                .map(|at| {
                    let values: Vec<f64> = (at..rows.min(at + (1 << 16)))
                        .map(|i| ((i * 37 + 5) % 101) as f64 * 0.37)
                        .collect();
                    Arc::from(values)
                })
                .collect();
            let buf = ColumnarBuf::new(chunks);
            let ds = ColumnarDataset::new(&ctx, buf.clone());
            let domain = ColumnarEmpiricalSampler::new(buf);
            let (totals, fill_ms) = time_median(if smoke { 1 } else { 5 }, || column_totals(&ds));
            let name = format!("upa/served_sum_fill/{rows}");
            println!("{name:<48} {fill_ms:>14.6} ms  (median)");
            let query = build_agg_query(AggKind::Sum).with_half_totals(Arc::new(totals));
            (ds, domain, upa(&ctx, 1_000), query)
        })
        .collect();
    let reps = if smoke { 1 } else { 31 };
    let mut times = vec![Vec::with_capacity(reps); sizes.len()];
    for _ in 0..reps {
        for ((ds, domain, u, query), t) in served.iter().zip(&mut times) {
            let start = std::time::Instant::now();
            std::hint::black_box(u.prepare(ds, query, domain).expect("runs"));
            t.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    for (rows, mut t) in sizes.iter().zip(times) {
        t.sort_by(f64::total_cmp);
        let name = format!("upa/served_sum_prepare/{rows}");
        println!("{name:<48} {:>14.6} ms  (median of {reps})", t[reps / 2]);
    }
    drop(served);

    served_repeat_release(smoke);

    for size in [25_000usize, 100_000, 400_000] {
        let data = workload(size);
        let ds = ctx.parallelize(data.clone(), 8);
        let domain = EmpiricalSampler::new(data);
        let u = upa(&ctx, 1_000);
        bench(&format!("upa/dataset_size/{size}"), 10, || {
            u.run(&ds, &query, &domain).expect("runs")
        });
    }
}
