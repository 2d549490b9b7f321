//! Microbenchmarks of the dataflow engine (the Spark substitute): narrow
//! ops, shuffle reduce (integer and string keys) and hash join (fresh and
//! reused inputs, and a probe side of either size).

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
    let ds = ctx.parallelize(pairs.clone(), 8);
    let right: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 1_000, i)).collect();
    let rds = ctx.parallelize(right.clone(), 4);
    bench("engine/shuffle/reduce_by_key", 15, || {
        ds.reduce_by_key(|a, b| a + b).len()
    });
    // A dataset keeps the buckets and join index of its first join, so
    // `cold` joins a fresh pair of inputs on every iteration (built before
    // timing) and `reused` joins one pair again and again, which after its
    // first iteration shuffles nothing.
    let mut fresh = (0..15)
        .map(|_| {
            (
                ctx.parallelize(pairs.clone(), 8),
                ctx.parallelize(right.clone(), 4),
            )
        })
        .collect::<Vec<_>>()
        .into_iter();
    bench("engine/shuffle/hash_join/cold", 15, || {
        let (l, r) = fresh.next().expect("one input pair per iteration");
        l.join(&r).len()
    });
    bench("engine/shuffle/hash_join/reused", 15, || {
        ds.join(&rds).len()
    });

    // A shuffle join of a few thousand rows against a large table. The
    // first iteration shuffles and indexes the large side; every later
    // one reuses that and shuffles only the probe side, the shape of
    // joinDP's round 1 on an `other` that an earlier run has used.
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
