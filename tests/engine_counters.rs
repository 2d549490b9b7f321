//! Engine-counter regression tests for the hot-path optimisations:
//! UPA's shuffle volume must stay proportional to the partition count
//! (never the dataset size), `reduce_by_key`'s map-side combiner is what
//! bounds a keyed shuffle, narrow-stage fusion must keep chained record
//! transforms inside one engine stage, and repeated releases must stay
//! engine-free.

use dataflow::{Config, Context, PairOps};
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::query::MapReduceQuery;
use upa_repro::upa_core::{Upa, UpaConfig};

fn upa_over(ctx: &Context, sample_size: usize) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            add_noise: false,
            ..UpaConfig::default()
        },
    )
}

/// UPA's phase-3 remainder reduce folds each partition in place and
/// exchanges one partial per (partition, half): shuffle volume is exactly
/// 2·num_partitions, not O(|x|).
#[test]
fn prepare_shuffles_partition_counts_not_dataset_size() {
    let parts = 8usize;
    let records = 20_000usize;
    let ctx = Context::new(Config {
        threads: 4,
        default_partitions: parts,
        shuffle_partitions: parts,
        ..Config::default()
    });
    let data: Vec<f64> = (0..records).map(|i| (i % 13) as f64).collect();
    let ds = ctx.parallelize(data.clone(), parts);
    let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
    let domain = EmpiricalSampler::new(data);

    let upa = upa_over(&ctx, 100);
    let before = ctx.metrics();
    let prepared = upa.prepare(&ds, &query, &domain).expect("prepare runs");
    let delta = ctx.metrics().since(&before);

    assert_eq!(
        delta.shuffles, 1,
        "the per-half exchange counts as a shuffle"
    );
    assert_eq!(
        delta.shuffle_records,
        2 * parts as u64,
        "one partial per (partition, half), whatever the {records} records"
    );

    // The release consumes only driver-side state: zero engine work.
    let before = ctx.metrics();
    upa.release(&prepared).expect("release runs");
    let delta = ctx.metrics().since(&before);
    assert_eq!(delta.stages, 0);
    assert_eq!(delta.shuffles, 0);
    assert_eq!(delta.shuffle_records, 0);
}

/// Disabling the combiner restores `reduce_by_key`'s naive O(|x|)
/// shuffle — the counter contrast proving the combiner is what bounds a
/// keyed shuffle's volume.
#[test]
fn combiner_off_shuffles_every_record() {
    let parts = 4usize;
    let records = 5_000usize;
    let shuffled = |map_side_combine: bool| -> u64 {
        let ctx = Context::new(Config {
            threads: 4,
            default_partitions: parts,
            shuffle_partitions: parts,
            map_side_combine,
            ..Config::default()
        });
        let keyed: Vec<(u8, f64)> = (0..records).map(|i| ((i % 2) as u8, i as f64)).collect();
        let before = ctx.metrics();
        let _ = ctx
            .parallelize(keyed, parts)
            .reduce_by_key(|a, b| a + b)
            .collect();
        ctx.metrics().since(&before).shuffle_records
    };
    assert_eq!(shuffled(true), 2 * parts as u64);
    assert_eq!(
        shuffled(false),
        records as u64,
        "without combining, every record crosses the shuffle"
    );
}

/// A chain of narrow transforms feeding a keyed reduce runs the chain as
/// one fused stage: stage count stays flat no matter how many record
/// transforms are chained.
#[test]
fn narrow_chains_do_not_multiply_stages() {
    let ctx = Context::with_threads(4);
    let data: Vec<i64> = (0..4_000).collect();

    let run = |chain_len: usize| -> u64 {
        let before = ctx.metrics();
        let mut ds = ctx.parallelize(data.clone(), 4);
        for _ in 0..chain_len {
            ds = ds.map(|x: &i64| x + 1);
        }
        let total = ds
            .map(|x: &i64| (x % 3, *x))
            .reduce_by_key(|a, b| a + b)
            .collect()
            .iter()
            .map(|(_, v)| *v)
            .sum::<i64>();
        assert_eq!(
            total,
            data.iter().map(|x| x + chain_len as i64).sum::<i64>()
        );
        ctx.metrics().since(&before).stages
    };

    let short = run(1);
    let long = run(6);
    assert_eq!(
        short, long,
        "fusion must keep chained narrow transforms in a single stage"
    );
}

/// An action on an unforced chain folds inside the chain's own stage:
/// `map → reduce` and a join's `filter → count` each run one stage that
/// charges its base records once, and the join's stage keeps its
/// `fused[join→…]` label, so the shuffle-time share still counts it.
#[test]
fn actions_fold_inside_the_chain_stage() {
    let ctx = Context::with_threads(2);
    let ds = ctx.parallelize((0..1_000i64).collect(), 4);
    let before = ctx.metrics();
    assert_eq!(ds.map(|x| x * 2).reduce(|a, b| a + b), Some(999_000));
    let delta = ctx.metrics().since(&before);
    assert_eq!((delta.stages, delta.records_processed), (1, 1_000));

    let orders = ctx.parallelize((0..100u64).map(|k| (k, k)).collect(), 4);
    let items = ctx.parallelize((0..400u64).map(|i| (i % 100, i)).collect(), 4);
    // The first join shuffles both sides; both keep their buckets.
    assert_eq!(orders.join(&items).count(), 400);
    ctx.reset_metrics();
    let n = orders.join(&items).filter(|(_, (_, i))| i % 2 == 0).count();
    assert_eq!(n, 200);
    let m = ctx.metrics();
    // The one stage scans the left buckets; the right side's join index
    // was built by the first join.
    assert_eq!((m.stages, m.shuffles, m.records_processed), (1, 0, 100));
    let names: Vec<String> = ctx.stage_times().into_keys().collect();
    assert_eq!(names, ["fused[join→filter]"]);
    assert!(ctx.shuffle_time_share() > 0.0);
}
