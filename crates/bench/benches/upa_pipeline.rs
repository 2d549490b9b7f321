//! Benchmarks of the UPA pipeline against its baselines: vanilla
//! execution (what Figure 2(b) normalizes to) and the engine's plain
//! reduce, swept over sample size and dataset size.

use dataflow::Context;
use upa_bench::report::bench;
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;
use upa_core::{Upa, UpaConfig};

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

fn main() {
    let ctx = Context::with_threads(4);
    let query =
        MapReduceQuery::scalar_sum("sum", |x: &f64| *x).with_half_key(|x: &f64| x.to_bits());

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

    for n in [100usize, 1_000, 10_000] {
        let u = upa(&ctx, n);
        bench(&format!("upa/sample_size/{n}"), 10, || {
            u.run(&ds, &query, &domain).expect("runs")
        });
    }

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
