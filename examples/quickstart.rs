//! Quickstart: release a differentially private count with UPA.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example loads a synthetic dataset into the dataflow engine, wraps
//! it with the paper's Table I operators (`dpread` → `mapDP` →
//! `reduceDP`), and prints the inferred sensitivity, the enforced output
//! range and the noisy release.

use dataflow::Context;
use upa_repro::upa_core::api::DpSession;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::UpaConfig;

fn main() {
    // A dataset of ages; the analyst wants the number of adults without
    // learning whether any specific individual is present.
    let ages: Vec<f64> = (0..100_000).map(|i| ((i * 37 + 11) % 100) as f64).collect();

    let ctx = Context::default();
    let dataset = ctx.parallelize_default(ages.clone());
    // The record domain the paper's added neighbours are drawn from;
    // attached at `dpread`, like the paper's Table I signature. Beside it
    // goes the half key: an age's bits put its record in one of the two
    // logical halves RANGE ENFORCER compares.
    let domain = EmpiricalSampler::new(ages);

    let config = UpaConfig {
        epsilon: 0.1, // the paper's evaluation budget
        ..UpaConfig::default()
    };
    let mut session = DpSession::new(ctx.clone(), config);

    let result = session
        .dpread(&dataset, &domain, |age: &f64| age.to_bits())
        .map_dp(
            "count_adults",
            |age: &f64| if *age >= 18.0 { 1.0 } else { 0.0 },
        )
        .reduce_dp(|a, b| a + b)
        .expect("query runs");

    println!("exact count      : {}", result.raw);
    println!("inferred LS      : {:.6}", result.sensitivity[0]);
    println!(
        "enforced range   : [{:.3}, {:.3}]",
        result.range.bounds[0].0, result.range.bounds[0].1
    );
    println!("noisy release    : {:.3}", result.released);
    println!(
        "noise scale      : {:.3} (sensitivity / epsilon)",
        result.sensitivity[0] / result.epsilon
    );
    println!("sampled records  : {}", result.sample_size);
    println!("engine metrics   : {}", ctx.metrics());

    // Every successful release leaves an EXPLAIN ANALYZE-style audit.
    if let Some(audit) = session.last_audit() {
        println!("\n{}", audit.render());
    }

    // A count changes by at most 1 per record, so the inferred local
    // sensitivity (the P1–P99 width of the ±1 neighbour-output sample)
    // lands within a small constant of the true sensitivity 1.
    assert!(result.sensitivity[0] > 0.0 && result.sensitivity[0] < 6.0);
}
