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
//! here. The trials were re-recorded when a record's logical half became
//! `half_of` its key: the separation loop removes other records when the
//! halves hold other records.

use dataflow::Context;
use upa_core::{Upa, UpaConfig};
use upa_repro::suite::{build_queries, EvalData, EvalScale};

/// One trial: `(released bits, enforced bits, removed_records)`.
type Trial = (u64, u64, usize);

const TPCH6: [Trial; 6] = [
    (0x40f4_bb51_4a1a_8825, 0x40e5_61ad_c00a_7bd6, 0),
    (0x40fc_178b_f860_dda2, 0x40e4_2901_b7fe_d15e, 200),
    (0xc0d9_9094_f571_c05c, 0x40e4_c0e5_33ff_c730, 140),
    (0x40c4_317a_db99_b720, 0x40e5_389e_c007_7654, 182),
    (0xc0da_1c4e_ddd9_9c98, 0x40e4_0cc9_dc33_6a3c, 416),
    (0x4101_5da7_18f6_cc2e, 0x40e4_39ed_1f0a_8939, 204),
];
const TPCH4: [Trial; 6] = [
    (0xc073_a165_665b_791d, 0x404f_8000_0000_0000, 0),
    (0xc075_a3f2_d6df_4490, 0x404b_8000_0000_0000, 34),
    (0xc07d_f504_427b_7821, 0x404d_1bdc_6eea_cf08, 138),
    (0x4069_8f85_dfe2_8bc6, 0x404f_d864_45cd_3e7e, 150),
    (0xc059_01e5_789d_54cb, 0x4051_ce75_caca_395b, 226),
    (0x402e_b0b7_47ff_6bbc, 0x4052_3931_5e08_659c, 342),
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
