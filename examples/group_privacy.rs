//! Group-level privacy and repeated-query reuse — the paper's §VI-E
//! future-work extensions, implemented.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example group_privacy
//! ```
//!
//! A hospital's dataset contains whole families; protecting a single
//! record is not enough when up to `g` records belong to one household.
//! Setting `group_size = g` makes UPA sample neighbouring datasets that
//! differ by `g` records, scaling the inferred sensitivity (and noise)
//! to joint influence. The same prepared query is then released several
//! times — fresh noise and a fresh ε charge each time, but no engine
//! re-execution.

use dataflow::Context;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::query::MapReduceQuery;
use upa_repro::upa_core::{Upa, UpaConfig};

fn main() {
    // Synthetic patient ages; a "household" is up to 5 records.
    let ages: Vec<f64> = (0..60_000).map(|i| ((i * 13 + 7) % 95) as f64).collect();
    let ctx = Context::default();
    let dataset = ctx.parallelize_default(ages.clone());
    let domain = EmpiricalSampler::new(ages);
    // The half key (an age's bits) puts each record in one of RANGE
    // ENFORCER's two logical halves by its content; ages are whole
    // numbers, and the core mixes the key, so both halves fill.
    let query = MapReduceQuery::scalar_sum(
        "minors_count",
        |age: &f64| age.to_bits(),
        |age: &f64| {
            if *age < 18.0 {
                1.0
            } else {
                0.0
            }
        },
    );

    println!("group size | inferred sensitivity | noise scale (ε = 0.1)");
    for group_size in [1usize, 2, 5, 10] {
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                group_size,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let result = upa.run(&dataset, &query, &domain).expect("query runs");
        println!(
            "{group_size:10} | {:20.3} | {:.3}",
            result.max_empirical_sensitivity(),
            result.max_sensitivity() / result.epsilon,
        );
    }

    // Repeated-query reuse: prepare once, release thrice.
    println!("\nprepared-query reuse (no engine work per release):");
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            group_size: 5,
            ..UpaConfig::default()
        },
    )
    .with_budget(0.3);
    let prepared = upa.prepare(&dataset, &query, &domain).expect("prepares");
    let before = ctx.metrics();
    for i in 1..=3 {
        let r = upa
            .release(&prepared)
            .expect("budget covers three releases");
        println!(
            "  release {i}: {:.2} (remaining budget {:.2})",
            r.released,
            upa.remaining_budget().expect("budget attached")
        );
    }
    let delta = ctx.metrics().since(&before);
    println!(
        "  engine stages during the three releases: {} (shuffles: {})",
        delta.stages, delta.shuffles
    );
    assert_eq!(delta.stages, 0);
    assert!(
        upa.release(&prepared).is_err(),
        "fourth release exceeds the budget"
    );
    println!("  fourth release correctly refused: budget exhausted");
}
