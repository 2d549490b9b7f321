//! The remainder memo on the served aggregates: a preparation that takes
//! the blocks its sample misses from a filled [`RemainderMemo`] releases
//! the same bits as one that folds the whole column, and reads only the
//! blocks its sample touches.

use dataflow::columnar::{ColumnarBuf, ColumnarDataset};
use dataflow::Context;
use proptest::prelude::*;
use std::sync::Arc;
use upa_core::domain::ColumnarEmpiricalSampler;
use upa_core::query::{RemainderMemo, REMAINDER_BLOCK};
use upa_core::{DpOutput, Upa, UpaConfig, UpaResult};
use upa_server::state::build_agg_query;
use upa_server::AggKind;

const KINDS: [AggKind; 3] = [AggKind::Sum, AggKind::Mean, AggKind::Count];

/// Fractional values, so fold order reaches the low bits.
fn values(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 + salt) % 113) as f64 * 0.37 - 7.0)
        .collect()
}

fn engine(ctx: &Context, seed: u64, sample_size: usize) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            seed,
            ..UpaConfig::default()
        },
    )
}

/// Everything a release shows: released, raw, sensitivity, range and
/// every neighbour output, as bit patterns.
fn bits(r: &UpaResult<f64>) -> Vec<u64> {
    let mut out = vec![r.released.to_bits(), r.raw.to_bits()];
    out.extend(r.sensitivity.iter().map(|x| x.to_bits()));
    for (lo, hi) in &r.range.bounds {
        out.extend([lo.to_bits(), hi.to_bits()]);
    }
    out.extend(r.removal_outputs.iter().map(|x| x.to_bits()));
    out.extend(r.addition_outputs.iter().map(|x| x.to_bits()));
    out.extend(r.enforced.components().iter().map(|x| x.to_bits()));
    out
}

/// Runs `kind` over `buf` on a fresh engine seeded `seed`, with `memo`
/// attached when given; returns the release and the records the `reduce`
/// span folded.
fn run(
    ctx: &Context,
    buf: &ColumnarBuf,
    kind: AggKind,
    memo: Option<&Arc<RemainderMemo<(f64, f64)>>>,
    seed: u64,
    sample_size: usize,
) -> (UpaResult<f64>, u64) {
    let mut query = build_agg_query(kind);
    if let Some(memo) = memo {
        query = query.with_remainder_memo(Arc::clone(memo));
    }
    let upa = engine(ctx, seed, sample_size);
    let data = ColumnarDataset::new(ctx, buf.clone());
    let domain = ColumnarEmpiricalSampler::new(buf.clone());
    let result = upa.run(&data, &query, &domain).unwrap();
    let audit = upa.last_audit().expect("run records an audit");
    let folded = audit
        .spans
        .iter()
        .find(|s| s.path == "prepare/reduce")
        .expect("prepare records a reduce span")
        .records;
    (result, folded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm memo releases the memo-less bits, and so does the
    /// preparation that fills it: for lengths and chunk sizes that are
    /// not multiples of the block, 1–4 threads (hence slab layouts), each
    /// served aggregate, and whichever seed built the memo.
    #[test]
    fn warm_memo_releases_memo_less_bits(
        len in 700usize..9_000,
        chunk_rows in 97usize..4_000,
        threads in 1usize..=4,
        kind in 0usize..3,
        memo_seed in 0u64..1_000,
        seed in 0u64..1_000,
        sample_size in 1usize..48,
        salt in 0usize..113,
    ) {
        let ctx = Context::with_threads(threads);
        let kind = KINDS[kind];
        let buf = ColumnarBuf::from_values(&values(len, salt), chunk_rows);
        let memo = Arc::new(RemainderMemo::new());

        let (filling, _) = run(&ctx, &buf, kind, Some(&memo), memo_seed, sample_size);
        let (cold_fill, _) = run(&ctx, &buf, kind, None, memo_seed, sample_size);
        prop_assert!(memo.is_filled());
        prop_assert_eq!(bits(&filling), bits(&cold_fill));

        let (warm, _) = run(&ctx, &buf, kind, Some(&memo), seed, sample_size);
        let (cold, _) = run(&ctx, &buf, kind, None, seed, sample_size);
        prop_assert_eq!(bits(&warm), bits(&cold));
    }
}

/// A memo filled from column A is not applied to column B of the same
/// length and chunking: B's release is its memo-less one, B's scan reads
/// all of B, and the memo keeps A's blocks.
#[test]
fn memo_ignores_a_foreign_source() {
    let ctx = Context::with_threads(2);
    let a = ColumnarBuf::from_values(&values(20_000, 0), 3_000);
    let b = ColumnarBuf::from_values(&values(20_000, 5), 3_000);
    let memo = Arc::new(RemainderMemo::new());
    run(&ctx, &a, AggKind::Sum, Some(&memo), 1, 16);
    let filled = memo.bytes();
    assert!(filled > 0);

    let (with_memo, folded) = run(&ctx, &b, AggKind::Sum, Some(&memo), 2, 16);
    let (without, _) = run(&ctx, &b, AggKind::Sum, None, 2, 16);
    assert_eq!(bits(&with_memo), bits(&without));
    assert_eq!(folded, 20_000 - 16, "B was read in full");
    assert_eq!(memo.bytes(), filled, "A's blocks stay");

    let (_, folded) = run(&ctx, &a, AggKind::Mean, Some(&memo), 3, 16);
    assert!(
        folded < 20_000 / 2,
        "A still takes its blocks from the memo"
    );
}

/// On a warm memo the `reduce` span folds at most the touched blocks:
/// no more than `n × REMAINDER_BLOCK` records for a sample of `n`, where
/// the memo-less scan folds every un-sampled record.
#[test]
fn warm_memo_folds_only_touched_blocks() {
    let ctx = Context::with_threads(2);
    let len = 200_003;
    let n = 8;
    let buf = ColumnarBuf::from_values(&values(len, 1), 65_533);
    let memo = Arc::new(RemainderMemo::new());

    let (_, cold) = run(&ctx, &buf, AggKind::Sum, None, 4, n);
    assert_eq!(cold, (len - n) as u64);
    let (_, filling) = run(&ctx, &buf, AggKind::Sum, Some(&memo), 4, n);
    assert!(filling >= cold, "the filling scan reads every record");

    for seed in 5..9 {
        let (_, warm) = run(&ctx, &buf, AggKind::Sum, Some(&memo), seed, n);
        assert!(
            warm <= (n * REMAINDER_BLOCK) as u64,
            "seed {seed}: folded {warm} records on a warm memo"
        );
        assert!(warm > 0);
    }
    // 48 bytes per 512-record block: about 1.2 % of the column.
    let blocks = len.div_ceil(REMAINDER_BLOCK);
    assert!(memo.bytes() >= blocks * 48 && memo.bytes() < len * 8 / 80);
}
