//! Integration tests of the observability layer: engine metrics
//! arithmetic, per-query audits across concurrent sessions, and
//! budget-spend accounting across repeated queries.

use dataflow::Context;
use upa_repro::upa_core::api::DpSession;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{UpaConfig, UpaError};

fn config(n: usize) -> UpaConfig {
    UpaConfig {
        sample_size: n,
        add_noise: false,
        ..UpaConfig::default()
    }
}

/// `MetricsSnapshot::since` must attribute exactly the work done between
/// the two snapshots, field by field.
#[test]
fn metrics_snapshot_since_attributes_interval_work() {
    let ctx = Context::with_threads(2);
    let data: Vec<f64> = (0..2_000).map(|i| (i % 7) as f64).collect();
    let domain = EmpiricalSampler::new(data.clone());
    let ds = ctx.parallelize(data, 4);

    let mut session = DpSession::new(ctx.clone(), config(50));
    let before = ctx.metrics();
    session
        .dpread(&ds, &domain, |x: &f64| x.to_bits())
        .map_dp("count", |_x: &f64| 1.0)
        .reduce_dp(|a, b| a + b)
        .unwrap();
    let after = ctx.metrics();
    let delta = after.since(&before);

    assert!(delta.stages > 0, "query ran stages: {delta}");
    assert!(delta.tasks > 0);
    assert!(delta.records_processed > 0);
    assert_eq!(delta.stages, after.stages - before.stages);
    assert_eq!(
        delta.records_processed,
        after.records_processed - before.records_processed
    );
    // `since` against a *newer* snapshot saturates instead of wrapping.
    let inverted = before.since(&after);
    assert_eq!(inverted.stages, 0);
    assert_eq!(inverted.records_processed, 0);
}

/// Two sessions running concurrently on separate contexts keep separate,
/// coherent audit trails.
#[test]
fn concurrent_sessions_keep_separate_audits() {
    let run_session = |name: &'static str, rows: usize, sample: usize| {
        std::thread::spawn(move || {
            let ctx = Context::with_threads(2);
            let data: Vec<f64> = (0..rows).map(|i| (i % 11) as f64).collect();
            let domain = EmpiricalSampler::new(data.clone());
            let ds = ctx.parallelize(data, 4);
            let mut session = DpSession::new(ctx, config(sample));
            session
                .dpread(&ds, &domain, |x: &f64| x.to_bits())
                .map_dp(name, |x: &f64| *x)
                .reduce_dp(|a, b| a + b)
                .unwrap();
            let audit = session.last_audit().expect("audit recorded").clone();
            (name, audit)
        })
    };
    let a = run_session("session_a_sum", 3_000, 40);
    let b = run_session("session_b_sum", 1_000, 20);
    let (name_a, audit_a) = a.join().expect("session a completes");
    let (name_b, audit_b) = b.join().expect("session b completes");

    assert_eq!(audit_a.query, name_a);
    assert_eq!(audit_b.query, name_b);
    assert_eq!(audit_a.sample_size, 40);
    assert_eq!(audit_b.sample_size, 20);
    for audit in [&audit_a, &audit_b] {
        for stage in ["sample", "map", "reduce", "enforce", "noise"] {
            assert!(
                audit.stage_nanos(stage) > 0,
                "{}: stage {stage} has zero time",
                audit.query
            );
        }
        assert!(audit.total_nanos > 0);
        assert!(audit.engine.stages > 0);
    }
}

/// Repeated queries against one engine charge the budget once per
/// release, and every audit snapshots the remaining budget at its release.
#[test]
fn budget_spend_accounts_across_repeated_queries() {
    use upa_repro::upa_core::query::MapReduceQuery;
    use upa_repro::upa_core::Upa;

    let ctx = Context::with_threads(2);
    let data: Vec<f64> = (0..1_500).map(|i| (i % 13) as f64).collect();
    let domain = EmpiricalSampler::new(data.clone());
    let ds = ctx.parallelize(data, 4);
    let epsilon = 0.1;
    let upa = Upa::new(
        ctx,
        UpaConfig {
            epsilon,
            sample_size: 30,
            add_noise: false,
            ..UpaConfig::default()
        },
    )
    .with_budget(0.25);
    let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);

    assert!(upa.run(&ds, &query, &domain).is_ok());
    assert!(upa.run(&ds, &query, &domain).is_ok());
    let third = upa.run(&ds, &query, &domain);
    assert!(
        matches!(third, Err(UpaError::BudgetExhausted { .. })),
        "0.25 budget covers two 0.1 releases, not three: {third:?}"
    );

    // Only the successful releases left audits, each recording its ε and
    // the budget remaining at that point.
    let audits = upa.audits();
    assert_eq!(audits.len(), 2);
    assert!((audits[0].epsilon - epsilon).abs() < 1e-12);
    let rem0 = audits[0].budget_remaining.expect("accountant attached");
    let rem1 = audits[1].budget_remaining.expect("accountant attached");
    assert!((rem0 - 0.15).abs() < 1e-9, "after first release: {rem0}");
    assert!((rem1 - 0.05).abs() < 1e-9, "after second release: {rem1}");
    assert_eq!(upa.remaining_budget(), Some(rem1));
}
