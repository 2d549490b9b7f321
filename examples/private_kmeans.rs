//! Differentially private KMeans on the synthetic life-science dataset.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example private_kmeans
//! ```
//!
//! Each Lloyd iteration is one UPA query whose output (the updated
//! centroid matrix) is released with noise calibrated to the inferred
//! per-component local sensitivity. The total ε budget is split across
//! iterations by the budget accountant. The example prints the model's
//! inertia per iteration, private vs non-private.

use dataflow::Context;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_mlalgo::data::{generate_points, LifeScienceConfig};
use upa_repro::upa_mlalgo::KMeans;

fn main() {
    let config = LifeScienceConfig {
        records: 30_000,
        dims: 3,
        clusters: 3,
        outlier_fraction: 0.005,
        ..LifeScienceConfig::default()
    };
    let points = generate_points(&config);
    let ctx = Context::default();
    let dataset = ctx.parallelize_default(points.clone());
    let domain = EmpiricalSampler::new(points.clone());

    let iterations = 5;
    let per_iter_epsilon = 0.5;
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            epsilon: per_iter_epsilon,
            ..UpaConfig::default()
        },
    )
    .with_budget(per_iter_epsilon * iterations as f64);

    let mut private = KMeans::init_from_points(&points, 3);
    let mut plain = private.clone();

    println!("iter |   private inertia |     plain inertia | max component sensitivity");
    for iter in 0..iterations {
        // Non-private reference run.
        let flat = plain.step_plain(&dataset);
        plain.set_flat_centroids(&flat);

        // Private run: the released (noisy) centroids feed the next step.
        let query = private.step_query(format!("kmeans_iter_{iter}"));
        let result = upa.run(&dataset, &query, &domain).expect("budget suffices");
        private.set_flat_centroids(&result.released);

        println!(
            "{iter:4} | {:17.2} | {:17.2} | {:.6}",
            private.inertia(&points),
            plain.inertia(&points),
            result.max_sensitivity(),
        );
    }

    println!(
        "\nremaining budget: {:.3}",
        upa.remaining_budget().expect("budget attached")
    );
    println!("plain centroids   : {:?}", plain.centroids());
    println!("private centroids : {:?}", private.centroids());

    // Per-record influence on a centroid is ~1/cluster_size, so the noisy
    // model must stay close to the non-private one at this scale.
    let drift: f64 = plain
        .centroids()
        .iter()
        .flatten()
        .zip(private.centroids().iter().flatten())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max centroid drift: {drift:.4}");
}
