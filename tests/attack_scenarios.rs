//! Attack scenarios from UPA's threat model (§III): an analyst who can
//! filter a victim's record out of the dataset submits the same query on
//! neighbouring inputs and tries to learn the victim's presence from the
//! outputs.

use dataflow::Context;
use upa_repro::upa_core::api::DpSession;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_tpch::queries::{Q21, Q4};
use upa_repro::upa_tpch::{Tables, TpchConfig};

fn tables() -> Tables {
    Tables::generate(&TpchConfig {
        orders: 3_000,
        ..TpchConfig::default()
    })
}

#[test]
fn repeated_supplier_query_on_neighbour_is_detected() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q21 = Q21::new(&t);
    let domain = EmpiricalSampler::new(t.supplier.clone());
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 16,
            add_noise: false,
            ..UpaConfig::default()
        },
    );

    let full = ctx.parallelize(t.supplier.clone(), 4);
    let r1 = upa.run(&full, q21.query(), &domain).unwrap();
    assert!(!r1.enforce_outcome.attack_suspected);

    // Remove one arbitrary (mid-table) supplier: a neighbouring dataset.
    let mut neighbour = t.supplier.clone();
    neighbour.remove(neighbour.len() / 2);
    let nds = ctx.parallelize(neighbour, 4);
    let r2 = upa.run(&nds, q21.query(), &domain).unwrap();
    assert!(
        r2.enforce_outcome.attack_suspected,
        "stable half keys must expose the neighbouring repeat"
    );
    assert!(r2.enforce_outcome.removed_records >= 2);
}

#[test]
fn adding_a_record_is_also_detected() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q21 = Q21::new(&t);
    let domain = EmpiricalSampler::new(t.supplier.clone());
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 16,
            add_noise: false,
            ..UpaConfig::default()
        },
    );

    let full = ctx.parallelize(t.supplier.clone(), 4);
    let _ = upa.run(&full, q21.query(), &domain).unwrap();

    let mut grown = t.supplier.clone();
    let mut extra = grown[0];
    extra.suppkey = 999_999; // a fresh supplier with no lineitems
    grown.push(extra);
    let gds = ctx.parallelize(grown, 4);
    let r2 = upa.run(&gds, q21.query(), &domain).unwrap();
    assert!(r2.enforce_outcome.attack_suspected);
}

#[test]
fn unrelated_queries_are_not_flagged() {
    let t = tables();
    let ctx = Context::with_threads(4);
    let q21 = Q21::new(&t);
    let q4 = Q4::new(&t);
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 16,
            add_noise: false,
            ..UpaConfig::default()
        },
    );

    let suppliers = ctx.parallelize(t.supplier.clone(), 4);
    let supp_domain = EmpiricalSampler::new(t.supplier.clone());
    let r1 = upa.run(&suppliers, q21.query(), &supp_domain).unwrap();
    assert!(!r1.enforce_outcome.attack_suspected);

    // A different query over a different table: partition outputs differ
    // in both halves, so no defensive removal happens.
    let orders = ctx.parallelize(t.orders.clone(), 4);
    let order_domain = EmpiricalSampler::new(t.orders.clone());
    let r2 = upa.run(&orders, q4.query(), &order_domain).unwrap();
    assert!(!r2.enforce_outcome.attack_suspected);
    assert_eq!(r2.enforce_outcome.removed_records, 0);
}

#[test]
fn noisy_releases_hide_an_outlier_victim() {
    // The signal-vs-noise argument of the paper's threat model, end to
    // end: the victim's influence must be dominated by the noise scale.
    let t = tables();
    let ctx = Context::with_threads(4);
    let q21 = Q21::new(&t);
    let domain = EmpiricalSampler::new(t.supplier.clone());

    let victim_influence = t
        .supplier
        .iter()
        .map(|s| q21.query().map(s))
        .fold(0.0, f64::max);
    assert!(victim_influence > 0.0);

    let upa = Upa::new(ctx.clone(), UpaConfig::default());
    let full = ctx.parallelize(t.supplier.clone(), 4);
    let r = upa.run(&full, q21.query(), &domain).unwrap();
    let noise_scale = r.max_sensitivity() / r.epsilon;
    assert!(
        noise_scale > victim_influence / 2.0,
        "noise scale {noise_scale} must be commensurate with the worst-case influence {victim_influence}"
    );
}

/// The same sum through the Table I API on `x` and then on `x` minus one
/// victim is detected wherever the victim sits. `dpread`'s half key puts
/// each record in its half by content, so a removal changes one half's
/// output and leaves the other's; halves cut by position would shift
/// every later record, and a victim in the first half would change both.
#[test]
fn table1_victim_is_detected_wherever_it_sits() {
    let values: Vec<f64> = (0..100_000)
        .map(|i| ((i * 37 + 11) % 1_009) as f64 * 0.37)
        .collect();
    let ctx = Context::with_threads(4);
    let domain = EmpiricalSampler::new(values.clone());
    for victim in [10, 50_010, 99_990] {
        let mut session = DpSession::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 1_000,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let mut release = |data: Vec<f64>| {
            let ds = ctx.parallelize(data, 4);
            session
                .dpread(&ds, &domain, |x: &f64| x.to_bits())
                .map_dp("sum", |x: &f64| *x)
                .reduce_dp(|a, b| a + b)
                .unwrap()
        };
        let first = release(values.clone());
        assert!(!first.enforce_outcome.attack_suspected);
        let mut neighbour = values.clone();
        neighbour.remove(victim);
        let second = release(neighbour);
        assert!(
            second.enforce_outcome.attack_suspected,
            "the victim at index {victim} was not detected"
        );
    }
}
