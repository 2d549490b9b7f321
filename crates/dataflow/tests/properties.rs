//! Property-based tests of the engine's operator semantics against
//! sequential reference implementations.

use dataflow::partitioner::HashPartitioner;
use dataflow::{Config, Context, PairOps};
use proptest::prelude::*;
use std::collections::HashMap;

fn ctx() -> Context {
    Context::with_threads(4)
}

type Rows = Vec<(u8, u32)>;

/// The reduce-side bucket of `key` in a shuffle on `c`.
fn bucket(c: &Context, key: u8) -> usize {
    HashPartitioner.partition(&key, c.config().shuffle_partitions)
}

/// Nested-loop `join`: bucket by bucket, left rows in input order, each
/// followed by its matching right rows in input order.
fn nested_loop_join(c: &Context, left: &Rows, right: &Rows) -> Vec<(u8, (u32, u32))> {
    let mut out = Vec::new();
    for b in 0..c.config().shuffle_partitions {
        for &(k, v) in left.iter().filter(|(k, _)| bucket(c, *k) == b) {
            for &(_, w) in right.iter().filter(|(k2, _)| *k2 == k) {
                out.push((k, (v, w)));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `reduce_by_key` equals a sequential HashMap fold.
    #[test]
    fn reduce_by_key_matches_reference(
        pairs in prop::collection::vec((0u8..12, -100i64..100), 0..300),
        partitions in 1usize..7,
    ) {
        let mut want: HashMap<u8, i64> = HashMap::new();
        for (k, v) in &pairs {
            *want.entry(*k).or_insert(0) += *v;
        }
        let ds = ctx().parallelize(pairs, partitions);
        let got = ds.reduce_by_key(|a, b| a + b).collect_as_map();
        prop_assert_eq!(got, want);
    }

    /// Join cardinality equals the product of per-key frequencies.
    #[test]
    fn join_cardinality_matches_reference(
        left in prop::collection::vec((0u8..6, 0u32..10), 0..100),
        right in prop::collection::vec((0u8..6, 0u32..10), 0..100),
    ) {
        let mut lf: HashMap<u8, u64> = HashMap::new();
        let mut rf: HashMap<u8, u64> = HashMap::new();
        for (k, _) in &left { *lf.entry(*k).or_insert(0) += 1; }
        for (k, _) in &right { *rf.entry(*k).or_insert(0) += 1; }
        let want: u64 = lf.iter().map(|(k, c)| c * rf.get(k).copied().unwrap_or(0)).sum();
        let c = ctx();
        let l = c.parallelize(left, 3);
        let r = c.parallelize(right, 4);
        prop_assert_eq!(l.join(&r).len() as u64, want);
    }

    /// `distinct` equals the set of inputs.
    #[test]
    fn distinct_matches_set(values in prop::collection::vec(0u16..50, 0..300)) {
        let ds = ctx().parallelize(values.clone(), 5);
        let mut got = ds.distinct().collect();
        got.sort_unstable();
        let mut want: Vec<u16> = values.into_iter().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// A fused map→filter→flat_map chain equals the sequential reference:
    /// stage fusion must not change operator semantics for any input or
    /// partitioning.
    #[test]
    fn fused_narrow_chain_matches_reference(
        values in prop::collection::vec(-500i64..500, 0..300),
        partitions in 1usize..7,
    ) {
        let want: Vec<i64> = values
            .iter()
            .map(|v| v * 3)
            .filter(|v| v % 2 == 0)
            .flat_map(|v| [v, v + 1])
            .collect();
        let ds = ctx().parallelize(values, partitions);
        let got = ds
            .map(|v: &i64| v * 3)
            .filter(|v: &i64| v % 2 == 0)
            .flat_map(|v: &i64| [*v, *v + 1])
            .collect();
        prop_assert_eq!(got, want);
    }

    /// `reduce_by_key` with the map-side combiner produces exactly the
    /// result of the combiner-off shuffle path for any input.
    #[test]
    fn map_side_combine_matches_uncombined_path(
        pairs in prop::collection::vec((0u8..10, -50i64..50), 0..300),
        partitions in 1usize..6,
    ) {
        let combined = Context::new(Config {
            threads: 4,
            map_side_combine: true,
            ..Config::default()
        });
        let plain = Context::new(Config {
            threads: 4,
            map_side_combine: false,
            ..Config::default()
        });
        let got = combined
            .parallelize(pairs.clone(), partitions)
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        let want = plain
            .parallelize(pairs, partitions)
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        prop_assert_eq!(got, want);
    }

    /// `join` equals its nested-loop reference, order included, on the
    /// drawn sides, on each side against an empty one, and with every key
    /// collapsed to one.
    #[test]
    fn joins_match_nested_loop_order(
        left in prop::collection::vec((0u8..6, 0u32..1000), 0..40),
        right in prop::collection::vec((0u8..6, 0u32..1000), 0..40),
        partitions in 1usize..5,
    ) {
        let single = |rows: &Rows| -> Rows { rows.iter().map(|&(_, v)| (0, v)).collect() };
        let shapes = [
            (left.clone(), right.clone()),
            (left.clone(), Vec::new()),
            (Vec::new(), right.clone()),
            (single(&left), single(&right)),
        ];
        let c = ctx();
        for (l, r) in &shapes {
            let lds = c.parallelize(l.clone(), partitions);
            let rds = c.parallelize(r.clone(), 3);
            prop_assert_eq!(lds.join(&rds).collect(), nested_loop_join(&c, l, r));
        }
    }
}
