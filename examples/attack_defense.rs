//! The repeated-query attack from UPA's threat model, and RANGE
//! ENFORCER's defence.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example attack_defense
//! ```
//!
//! The analyst knows enough attributes of one individual's TPC-H order to
//! filter it out, and submits the same counting query twice — once
//! against the full dataset, once with the victim's record excluded. The
//! difference of exact outputs would reveal the victim's presence. UPA
//! detects that the second query matches a previous query on a
//! neighbouring dataset (partition fingerprints), removes records to
//! break the adjacency, clamps into the enforced range and adds noise.

use dataflow::Context;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_tpch::queries::Q21;
use upa_repro::upa_tpch::{Tables, TpchConfig};

fn main() {
    let tables = Tables::generate(&TpchConfig {
        orders: 20_000,
        ..TpchConfig::default()
    });
    let ctx = Context::default();
    let q21 = Q21::new(&tables);
    let domain = EmpiricalSampler::new(tables.supplier.clone());

    // The victim: the most active supplier (largest join fan-in — the
    // worst case for privacy).
    let victim_influence = tables
        .supplier
        .iter()
        .map(|s| q21.query().map(s))
        .fold(0.0, f64::max);
    println!("victim's true influence on the count: {victim_influence}");

    let upa = Upa::new(ctx.clone(), UpaConfig::default());

    // Query 1: the full supplier table.
    let full = ctx.parallelize_default(tables.supplier.clone());
    let r1 = upa.run(&full, q21.query(), &domain).expect("query runs");
    println!(
        "release 1: {:.2} (exact {:.0}, attack suspected: {})",
        r1.released, r1.raw, r1.enforce_outcome.attack_suspected
    );

    // Query 2 (the attack): same query, victim removed.
    let victim_idx = tables
        .supplier
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            q21.query()
                .map(a)
                .partial_cmp(&q21.query().map(b))
                .expect("finite")
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    let mut without_victim = tables.supplier.clone();
    without_victim.remove(victim_idx);
    let neighbour = ctx.parallelize_default(without_victim);
    let r2 = upa
        .run(&neighbour, q21.query(), &domain)
        .expect("query runs");
    println!(
        "release 2: {:.2} (exact {:.0}, attack suspected: {}, records removed: {})",
        r2.released,
        r2.raw,
        r2.enforce_outcome.attack_suspected,
        r2.enforce_outcome.removed_records
    );

    println!(
        "\nexact difference    : {:.0} (would reveal the victim)",
        r1.raw - r2.raw
    );
    println!(
        "released difference : {:.2} (noise scale {:.2} drowns the signal)",
        r1.released - r2.released,
        r1.sensitivity[0] / r1.epsilon
    );

    assert!(
        r2.enforce_outcome.attack_suspected,
        "RANGE ENFORCER must flag the neighbouring repeat"
    );
    assert!(
        r1.sensitivity[0] / r1.epsilon >= victim_influence / 2.0,
        "noise must be commensurate with the victim's influence"
    );
}
