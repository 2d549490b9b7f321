//! The paper's §III walk-through: Linear Regression under iDP.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example linear_regression
//! ```
//!
//! One SGD epoch is one UPA query: the mapper computes a gradient per
//! record, the reducer sums gradients, the finalize step applies the
//! model update, and UPA releases the updated weights with per-component
//! Laplace noise. The example trains privately and non-privately and
//! compares the models and their mean squared error.

use dataflow::Context;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_mlalgo::data::{generate_regression, LifeScienceConfig};
use upa_repro::upa_mlalgo::LinearRegression;

fn main() {
    let config = LifeScienceConfig {
        records: 50_000,
        dims: 4,
        outlier_fraction: 0.002,
        ..LifeScienceConfig::default()
    };
    let (records, true_w) = generate_regression(&config);
    let ctx = Context::default();
    let dataset = ctx.parallelize_default(records.clone());
    let domain = EmpiricalSampler::new(records.clone());

    let epochs = 20;
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            epsilon: 0.5,
            ..UpaConfig::default()
        },
    )
    .with_budget(0.5 * epochs as f64);

    let mut private = LinearRegression::new(config.dims, 0.2);
    let mut plain = private.clone();

    println!("epoch |  private MSE |    plain MSE | max grad sensitivity");
    for epoch in 0..epochs {
        plain.set_weights(plain.step_plain(&dataset));

        let query = private.step_query(format!("lr_epoch_{epoch}"));
        let result = upa.run(&dataset, &query, &domain).expect("budget suffices");
        private.set_weights(result.released.clone());

        if epoch % 4 == 0 || epoch == epochs - 1 {
            println!(
                "{epoch:5} | {:12.5} | {:12.5} | {:.6}",
                private.mse(&records),
                plain.mse(&records),
                result.max_sensitivity(),
            );
        }
    }

    println!("\nhidden model  : {true_w:?}");
    println!("plain model   : {:?}", plain.weights());
    println!("private model : {:?}", private.weights());

    let worst_gap = private
        .weights()
        .iter()
        .zip(&true_w)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max |private − hidden| = {worst_gap:.4}");
    assert!(
        private.mse(&records) < 1.0,
        "private training should still converge at this scale"
    );
}
