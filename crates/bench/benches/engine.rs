//! Microbenchmarks of the dataflow engine (the Spark substitute): narrow
//! ops, shuffle reduce (integer and string keys) and hash join (a probe
//! side of either size).

use dataflow::{Context, PairOps};
use upa_bench::report::bench;

fn main() {
    let ctx = Context::with_threads(4);

    let ds = ctx.parallelize((0..200_000).collect::<Vec<i64>>(), 8);
    bench("engine/narrow/map_reduce_sum", 20, || {
        ds.map(|x| x * 2).reduce(|a, b| a + b)
    });
    bench("engine/narrow/filter_count", 20, || {
        ds.filter(|x| x % 3 == 0).count()
    });
    bench("engine/narrow/aggregate_moments", 20, || {
        ds.aggregate(
            (0.0f64, 0u64),
            |(s, n), x| (s + *x as f64, n + 1),
            |(s1, n1), (s2, n2)| (s1 + s2, n1 + n2),
        )
    });

    let pairs: Vec<(u64, u64)> = (0..100_000).map(|i| (i % 1_000, i)).collect();
    let ds = ctx.parallelize(pairs, 8);
    let right: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 1_000, i)).collect();
    let rds = ctx.parallelize(right, 4);
    bench("engine/shuffle/reduce_by_key", 15, || {
        ds.reduce_by_key(|a, b| a + b).len()
    });
    bench("engine/shuffle/hash_join", 15, || ds.join(&rds).len());

    // A shuffle join of a few thousand rows against a large table, so
    // shuffling and indexing the large side dominates. joinDP's
    // differing round had this shape until it became an in-memory probe
    // that shuffles nothing; `upa/tpch4_join_dp/upa` times it now.
    let build: Vec<(u64, u64)> = (0..232_000).map(|i| (i / 4, i)).collect();
    let build = ctx.parallelize(build, 8);
    let probe: Vec<(u64, u64)> = (0..2_000).map(|i| ((i * 29) % 58_000, i)).collect();
    let probe = ctx.parallelize(probe, 8);
    bench("engine/shuffle/join_small_probe", 15, || {
        probe.join(&build).len()
    });

    let named: Vec<(String, u64)> = (0..100_000)
        .map(|i| (format!("Customer#{:09}", i % 1_000), i))
        .collect();
    let named = ctx.parallelize(named, 8);
    bench("engine/shuffle/reduce_by_key_string_keys", 15, || {
        named.reduce_by_key(|a, b| a + b).len()
    });

    let data: Vec<i64> = (0..200_000).collect();
    for parts in [1usize, 4, 16] {
        let ds = ctx.parallelize(data.clone(), parts);
        bench(&format!("engine/partitions/{parts}"), 15, || {
            ds.map(|x| x.wrapping_mul(31)).reduce(|a, b| a ^ b)
        });
    }
}
