//! Cross-validation of the fast (associativity-reusing) ground-truth
//! oracle against the literal black-box brute force on real workload
//! queries — the check that our Figure 2(a)/3 reference values are the
//! paper's Definition II.1, just computed faster.

use upa_repro::dataflow::Context;
use upa_repro::upa_core::brute::{blackbox_local_sensitivity, exact_local_sensitivity};
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_tpch::queries::{Q21, Q4, Q6};
use upa_repro::upa_tpch::{Tables, TpchConfig};

fn tiny_tables() -> Tables {
    Tables::generate(&TpchConfig {
        orders: 60,
        ..TpchConfig::default()
    })
}

#[test]
fn fast_ground_truth_matches_blackbox_on_q4() {
    let t = tiny_tables();
    let q = Q4::new(&t);
    let ctx = Context::with_threads(2);
    let domain = EmpiricalSampler::new(t.orders.clone());
    let fast = exact_local_sensitivity(&ctx, &t.orders, q.query(), &domain, 30, 5);
    let slow = blackbox_local_sensitivity(&t.orders, q.query(), &domain, 30, 5);
    assert_eq!(fast.removal_outputs.len(), slow.removal_outputs.len());
    for (a, b) in fast.removal_outputs.iter().zip(&slow.removal_outputs) {
        assert!((a - b).abs() < 1e-9);
    }
    assert!((fast.local_sensitivity - slow.local_sensitivity).abs() < 1e-9);
}

#[test]
fn fast_ground_truth_matches_blackbox_on_q6() {
    let t = tiny_tables();
    let q = Q6::new(&t);
    let ctx = Context::with_threads(2);
    let domain = EmpiricalSampler::new(t.lineitem.clone());
    let fast = exact_local_sensitivity(&ctx, &t.lineitem, q.query(), &domain, 20, 9);
    let slow = blackbox_local_sensitivity(&t.lineitem, q.query(), &domain, 20, 9);
    assert!((fast.local_sensitivity - slow.local_sensitivity).abs() < 1e-6);
    assert!((fast.output - slow.output).abs() < 1e-6 * fast.output.abs().max(1.0));
}

#[test]
fn fast_ground_truth_matches_blackbox_on_q21() {
    let t = tiny_tables();
    let q = Q21::new(&t);
    let ctx = Context::with_threads(2);
    let domain = EmpiricalSampler::new(t.supplier.clone());
    let fast = exact_local_sensitivity(&ctx, &t.supplier, q.query(), &domain, 10, 3);
    let slow = blackbox_local_sensitivity(&t.supplier, q.query(), &domain, 10, 3);
    assert!((fast.local_sensitivity - slow.local_sensitivity).abs() < 1e-9);
    // Q21's sensitivity comes from the heaviest supplier: it must equal
    // the max per-supplier contribution.
    let max_contribution = t
        .supplier
        .iter()
        .map(|s| q.query().map(s))
        .fold(0.0, f64::max);
    assert!((fast.local_sensitivity - max_contribution).abs() < 1e-9);
}

#[test]
fn neighbour_extremes_match_between_oracles() {
    let t = tiny_tables();
    let q = Q4::new(&t);
    let ctx = Context::with_threads(2);
    let domain = EmpiricalSampler::new(t.orders.clone());
    let fast = exact_local_sensitivity(&ctx, &t.orders, q.query(), &domain, 25, 1);
    let slow = blackbox_local_sensitivity(&t.orders, q.query(), &domain, 25, 1);
    let fe = fast.neighbour_extremes();
    let se = slow.neighbour_extremes();
    for ((flo, fhi), (slo, shi)) in fe.iter().zip(&se) {
        assert!((flo - slo).abs() < 1e-9);
        assert!((fhi - shi).abs() < 1e-9);
    }
}
