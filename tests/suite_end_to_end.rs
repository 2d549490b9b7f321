//! End-to-end run of the full nine-query evaluation suite (Table II)
//! with noise enabled — the integration surface the benchmark binaries
//! build on.

use dataflow::Context;
use upa_repro::suite::{build_queries, EvalData, EvalScale};
use upa_repro::upa_core::{Upa, UpaConfig, UpaError};
use upa_repro::upa_flex::plan::AggregateKind;
use upa_repro::upa_flex::{elastic_sensitivity, FlexUnsupported};
use upa_repro::upa_relational::parse_sql;
use upa_repro::upa_stats::rmse::relative_rmse;
use upa_repro::upa_tpch::sql::sql_texts;

fn small_scale() -> EvalScale {
    EvalScale {
        orders: 600,
        ml_records: 2_000,
        partitions: 4,
        seed: 3,
    }
}

#[test]
fn all_nine_queries_release_noisy_outputs() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let queries = build_queries(&data);
    assert_eq!(queries.len(), 9);
    let mut upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 60,
            epsilon: 0.1,
            ..UpaConfig::default()
        },
    );
    for q in &queries {
        let result = q.run_upa(&mut upa, &data).unwrap_or_else(|e| {
            panic!("{} failed: {e}", q.name());
        });
        assert!(
            result.released.iter().all(|v| v.is_finite()),
            "{}: non-finite release",
            q.name()
        );
        assert!(
            result
                .sensitivity
                .iter()
                .all(|s| *s >= 0.0 && s.is_finite()),
            "{}: bad sensitivity",
            q.name()
        );
        // Noise is on: the released value differs from the enforced one
        // in at least one component unless sensitivity is exactly zero.
        if result.sensitivity.iter().any(|s| *s > 0.0) {
            assert_ne!(result.released, result.enforced, "{}", q.name());
        }
    }
    // One history entry per query.
    assert_eq!(upa.enforcer().history_len(), 9);
}

#[test]
fn upa_sensitivity_tracks_ground_truth_for_count_queries() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let queries = build_queries(&data);
    let mut upa_estimates = Vec::new();
    let mut truths = Vec::new();
    for q in &queries {
        // Large sample so the estimate is dominated by the fit, not
        // sampling error (the paper's n=1000 regime).
        let mut upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 1_000,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let result = q.run_upa(&mut upa, &data).unwrap();
        let gt = q.ground_truth(&data, 200, 17);
        upa_estimates.push(result.sensitivity.iter().copied().fold(0.0, f64::max));
        truths.push(gt.local_sensitivity);
    }
    // Aggregate relative RMSE over the suite must be small: UPA's
    // Figure 2(a) reports ~3.8% on the paper's setup; allow a generous
    // factor for the tiny test scale.
    let err = relative_rmse(&upa_estimates, &truths).unwrap();
    assert!(
        err < 1.0,
        "suite-wide relative RMSE {err} out of band\nestimates {upa_estimates:?}\ntruths {truths:?}"
    );
}

#[test]
fn flex_bounds_are_conservative_where_supported() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let queries = build_queries(&data);
    for q in &queries {
        match q.flex_sensitivity(&data) {
            Ok(flex) => {
                let gt = q.ground_truth(&data, 100, 23);
                // FLEX's worst-case bound must upper-bound the true local
                // sensitivity (its soundness property).
                assert!(
                    flex >= gt.local_sensitivity - 1e-9,
                    "{}: FLEX {flex} below ground truth {}",
                    q.name(),
                    gt.local_sensitivity
                );
            }
            Err(e) => assert!(
                matches!(e, FlexUnsupported::NonCountAggregate(_)),
                "{}: {e}",
                q.name()
            ),
        }
    }
}

/// FLEX's elastic sensitivity at distances 0..3 of the plan parsed from
/// each TPC-H query's SQL text, pinned on `small_scale()`'s tables.
#[test]
fn sql_text_elastic_sensitivities_are_pinned() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let sum = Err(FlexUnsupported::NonCountAggregate(AggregateKind::Sum));
    let pinned = [
        ("Q1", [Ok(1.0), Ok(1.0), Ok(1.0), Ok(1.0)]),
        ("Q4", [Ok(12.0), Ok(13.0), Ok(14.0), Ok(15.0)]),
        ("Q6", [sum.clone(), sum.clone(), sum.clone(), sum.clone()]),
        ("Q11", [sum.clone(), sum.clone(), sum.clone(), sum.clone()]),
        ("Q13", [Ok(12.0), Ok(13.0), Ok(14.0), Ok(15.0)]),
        ("Q16", [Ok(42.0), Ok(43.0), Ok(44.0), Ok(45.0)]),
        ("Q21", [Ok(885.0), Ok(3544.0), Ok(7983.0), Ok(14208.0)]),
    ];
    let texts = sql_texts();
    assert_eq!(texts.len(), pinned.len());
    for ((name, text), (want_name, want)) in texts.iter().zip(pinned) {
        assert_eq!(*name, want_name);
        let plan = parse_sql(text).unwrap();
        for (k, want) in want.into_iter().enumerate() {
            assert_eq!(
                elastic_sensitivity(&plan, &data.metadata, k as u64),
                want,
                "{name} at distance {k}"
            );
        }
    }
}

/// Every suite query's FLEX bound, pinned on `small_scale()`'s tables:
/// the five count queries' values and the four unsupported aggregates.
#[test]
fn suite_flex_sensitivities_are_pinned() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let ml = Err(FlexUnsupported::NonCountAggregate(
        AggregateKind::MachineLearning,
    ));
    let sum = Err(FlexUnsupported::NonCountAggregate(AggregateKind::Sum));
    let pinned = [
        ("TPCH1", Ok(1.0)),
        ("TPCH4", Ok(12.0)),
        ("TPCH13", Ok(12.0)),
        ("TPCH16", Ok(42.0)),
        ("TPCH21", Ok(885.0)),
        ("KMeans", ml.clone()),
        ("LinearRegression", ml),
        ("TPCH6", sum.clone()),
        ("TPCH11", sum),
    ];
    let queries = build_queries(&data);
    assert_eq!(queries.len(), pinned.len());
    for (q, (name, want)) in queries.iter().zip(pinned) {
        assert_eq!(q.name(), name);
        assert_eq!(q.flex_sensitivity(&data), want, "{name}");
    }
}

#[test]
fn budget_spans_multiple_suite_queries() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let queries = build_queries(&data);
    let mut upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 40,
            epsilon: 0.1,
            ..UpaConfig::default()
        },
    )
    .with_budget(0.45);
    let mut ok = 0;
    let mut exhausted = 0;
    for q in queries.iter() {
        match q.run_upa(&mut upa, &data) {
            Ok(_) => ok += 1,
            Err(UpaError::BudgetExhausted { .. }) => exhausted += 1,
            Err(e) => panic!("{}: {e}", q.name()),
        }
    }
    assert_eq!(ok, 4, "0.45 budget funds exactly four ε=0.1 queries");
    assert_eq!(exhausted, 5);
}

/// Table II's labels, pinned in paper order: each query's name, its
/// "Query Type" and the table whose records iDP protects. `table2_support`
/// prints these strings, so a change that derives them must keep them.
#[test]
fn table2_labels_are_pinned() {
    let ctx = Context::with_threads(2);
    let data = EvalData::generate(&ctx, small_scale());
    let labels: Vec<(&str, &str, &str)> = build_queries(&data)
        .iter()
        .map(|q| (q.name(), q.kind(), q.protected()))
        .collect();
    assert_eq!(
        labels,
        [
            ("TPCH1", "Count", "lineitem"),
            ("TPCH4", "Count", "orders"),
            ("TPCH13", "Count", "orders"),
            ("TPCH16", "Count", "partsupp"),
            ("TPCH21", "Count", "supplier"),
            ("KMeans", "Machine Learning", "ds1.10"),
            ("LinearRegression", "Machine Learning", "ds1.10"),
            ("TPCH6", "Arithmetic", "lineitem"),
            ("TPCH11", "Arithmetic", "partsupp"),
        ]
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every suite query's ground truth, pinned on `small_scale()`'s tables:
/// the local sensitivity's bits, and one digest over the bits of `f(x)`,
/// of every removal output and of every addition output, in that order.
/// `paper.sens_rel_rmse` divides by these sensitivities, so a change to
/// how the ground truth folds its neighbours must leave them as they are.
#[test]
fn ground_truth_bits_are_pinned() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(&ctx, small_scale());
    let got: Vec<(&str, u64, u64)> = build_queries(&data)
        .iter()
        .map(|q| {
            let gt = q.ground_truth(&data, 200, 17);
            let outputs = std::iter::once(&gt.output)
                .chain(&gt.removal_outputs)
                .chain(&gt.addition_outputs);
            let digest = fnv(outputs.flatten().map(|x| x.to_bits()));
            (q.name(), gt.local_sensitivity.to_bits(), digest)
        })
        .collect();
    let want: [(&str, u64, u64); 9] = [
        ("TPCH1", 0x3ff0_0000_0000_0000, 0x8a81_4287_d0c1_147b),
        ("TPCH4", 0x401c_0000_0000_0000, 0xbcae_4bc4_662a_c801),
        ("TPCH13", 0x4028_0000_0000_0000, 0x8903_fbde_9fad_36eb),
        ("TPCH16", 0x3ff0_0000_0000_0000, 0xc04c_0aa8_d513_9f84),
        ("TPCH21", 0x4066_0000_0000_0000, 0x8a30_5c6a_78e9_d761),
        ("KMeans", 0x3fcc_08d5_08bf_0c80, 0x1168_ec9c_e27d_a1df),
        (
            "LinearRegression",
            0x3f86_ac1a_8716_be20,
            0x402f_8ee9_a698_d9fa,
        ),
        ("TPCH6", 0x40a8_eec6_2d67_aaf0, 0x802e_f3f2_304b_6016),
        ("TPCH11", 0x4161_1899_61d2_3160, 0x7286_a5b3_f385_d014),
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
