//! Pinned bits of repeated releases on one engine: Algorithm 2's
//! separation loop.
//!
//! `tests/golden_bits.rs` runs every query on a fresh `Upa`, so RANGE
//! ENFORCER never sees a repeat there and never removes a record. Here
//! TPCH6 and TPCH4 run six times each, in turn, on one `Upa`: from the
//! second trial on, each is a suspected repeat of its own history, and
//! the enforcer removes records until its partition outputs separate.
//! Each trial's `released` and `enforced` bits and its
//! `removed_records` are pinned, so a change to the removal loop that
//! moves a release, or removes a different number of records, fails
//! here.

use dataflow::Context;
use upa_core::{Upa, UpaConfig};
use upa_repro::suite::{build_queries, EvalData, EvalScale};

/// One trial: `(released bits, enforced bits, removed_records)`.
type Trial = (u64, u64, usize);

const TPCH6: [Trial; 6] = [
    (0x40f4_bb51_4a1a_8828, 0x40e5_61ad_c00a_7bd6, 0),
    (0x40ed_10a5_0b7d_528e, 0x40e6_6779_52fe_8778, 302),
    (0xc0b8_3f75_4505_0ef8, 0x40e4_0c72_769a_e5a6, 404),
    (0x40fc_8543_fb09_c48b, 0x40e5_1342_bbb8_ebb8, 394),
    (0x40ff_1b7b_4f29_1bb4, 0x40e4_8b10_ec13_b342, 502),
    (0xc102_d886_ccca_1227, 0x40e4_c706_a8b6_410c, 202),
];
const TPCH4: [Trial; 6] = [
    (0xc073_a165_665b_791d, 0x404f_8000_0000_0000, 0),
    (0xc04c_8ee3_df1c_f942, 0x4050_a657_3ae5_50d2, 64),
    (0x406e_b4fb_60b7_e176, 0x404a_bb24_a88b_fefa, 146),
    (0xc076_013f_60bf_03e0, 0x404a_8fb8_e12a_48b2, 208),
    (0x4072_08d3_0b14_dbac, 0x404f_0c2b_c1e2_f6e3, 292),
    (0x408b_b330_dc54_fb5b, 0x4051_4a38_b8c6_72d5, 374),
];

#[test]
fn repeated_tpch6_and_tpch4_releases_are_pinned() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(
        &ctx,
        EvalScale {
            orders: 600,
            ml_records: 400,
            partitions: 5,
            seed: 0xE7A1,
        },
    );
    let queries = build_queries(&data);
    let query = |name: &str| {
        queries
            .iter()
            .find(|q| q.name() == name)
            .unwrap_or_else(|| panic!("suite has no {name}"))
    };
    let (tpch6, tpch4) = (query("TPCH6"), query("TPCH4"));
    let mut upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 1000,
            seed: 0x5E9,
            ..UpaConfig::default()
        },
    );
    let mut got6 = Vec::new();
    let mut got4 = Vec::new();
    for _ in 0..6 {
        for (q, got) in [(tpch6, &mut got6), (tpch4, &mut got4)] {
            let r = q.run_upa(&mut upa, &data).unwrap();
            got.push((
                r.released[0].to_bits(),
                r.enforced[0].to_bits(),
                r.enforce_outcome.removed_records,
            ));
        }
    }
    assert_eq!(got6, TPCH6, "TPCH6 trials moved: {got6:#018x?}");
    assert_eq!(got4, TPCH4, "TPCH4 trials moved: {got4:#018x?}");
}
