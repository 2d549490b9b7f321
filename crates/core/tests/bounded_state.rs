//! A cached release leaves O(1) state behind: one enforcer entry per
//! distinct signature, a bounded audit ring, and neighbour outputs shared
//! with the prepared query rather than copied.

use dataflow::Context;
use std::sync::Arc;
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;
use upa_core::{Upa, UpaConfig, AUDIT_RING};

const CACHED: usize = 100_000;

#[test]
fn cached_releases_keep_one_signature_and_a_bounded_audit_ring() {
    let ctx = Context::with_threads(2);
    let data: Vec<f64> = (0..2_000).map(|i| (i % 13) as f64).collect();
    let ds = ctx.parallelize(data.clone(), 4);
    let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
    let domain = EmpiricalSampler::new(data);
    let upa = Upa::new(
        ctx,
        UpaConfig {
            sample_size: 50,
            ..UpaConfig::default()
        },
    );
    let prepared = upa.prepare(&ds, &query, &domain).unwrap();
    let first = upa.release(&prepared).unwrap();
    let signature = upa.enforcer().last_signature().cloned();
    for _ in 1..CACHED {
        upa.release(&prepared).unwrap();
    }
    let cached = upa.release(&prepared).unwrap();
    let releases = CACHED + 1;

    // Every release is counted, but repeats share one entry.
    assert_eq!(upa.enforcer().history_len(), releases);
    assert_eq!(upa.enforcer().distinct_len(), 1);
    assert_eq!(upa.enforcer().last_signature().cloned(), signature);
    // The ring keeps the newest releases and never more than twice its size.
    let audits = upa.audits();
    assert!(audits.len() > AUDIT_RING && audits.len() <= 2 * AUDIT_RING);
    // The neighbour outputs are the first release's, shared, not copied.
    assert!(Arc::ptr_eq(&first.removal_outputs, &cached.removal_outputs));
    assert!(Arc::ptr_eq(
        &first.addition_outputs,
        &cached.addition_outputs
    ));

    // A fresh prepare's first release compares against that one prior:
    // the same sum over the same data is flagged and separated from it
    // once, then recorded as the second distinct signature.
    let fresh = upa.prepare(&ds, &query, &domain).unwrap();
    let late = upa.release(&fresh).unwrap();
    assert!(late.enforce_outcome.attack_suspected);
    assert!(late.enforce_outcome.removed_records >= 2);
    assert_eq!(upa.enforcer().history_len(), releases + 1);
    assert_eq!(upa.enforcer().distinct_len(), 2);
}
