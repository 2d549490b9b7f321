//! **UPA** — Union Preserving Aggregation: automated, accurate and
//! efficient individual differential privacy (iDP) for MapReduce queries.
//!
//! This crate is the primary contribution of the reproduced paper (Li et
//! al., *UPA: An Automated, Accurate and Efficient Differentially Private
//! Big-data Mining System*, DSN 2020). Given a query expressed as a
//! commutative/associative Map/Reduce decomposition ([`query::MapReduceQuery`])
//! and a partitioned input dataset ([`dataflow::Dataset`]), UPA:
//!
//! 1. **Partitions and samples** (`n = 1000` by default): picks the
//!    *differing records* `S` uniformly from the input `x` and `n`
//!    candidate additions from the record domain (`D \ x`, provided by a
//!    [`domain::DomainSampler`]);
//! 2. **Maps in parallel** over `S`, the additions, and the remainder `S′`;
//! 3. Runs the **union-preserving reduce**: computes `R(M(S′))` once and
//!    reuses it — together with prefix/suffix partial reductions over the
//!    sampled records — to obtain the query output on all `2n` sampled
//!    neighbouring datasets at `O(|x| + n)` total cost instead of the
//!    brute-force `O(n · |x|)`;
//! 4. **Enforces iDP**: fits a normal distribution to the neighbour
//!    outputs by MLE, takes the P1–P99 interval as both the local
//!    sensitivity and the enforced output range `Ô_f`, runs
//!    [`enforcer::RangeEnforcer`] (the paper's Algorithm 2) against the
//!    query history to defeat repeated-query attacks, clamps the output
//!    into `Ô_f` and releases it with Laplace noise of scale
//!    `(P99 − P1)/ε`.
//!
//! The [`brute`] module computes ground-truth local sensitivity for the
//! accuracy evaluation, and [`budget`] tracks cumulative privacy spend.
//!
//! # Quickstart
//!
//! ```
//! use dataflow::Context;
//! use upa_core::{domain::FnSampler, query::MapReduceQuery, Upa, UpaConfig};
//!
//! let ctx = Context::with_threads(2);
//! let data: Vec<f64> = (0..5_000).map(|i| (i % 97) as f64).collect();
//! let ds = ctx.parallelize(data, 8);
//!
//! // A SUM query as its Map/Reduce decomposition; a record's value bits
//! // are its half key.
//! let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
//! // The record domain: values a fresh record could take.
//! let domain = FnSampler::new(|rng: &mut rand::rngs::StdRng| rand::Rng::gen_range(rng, 0.0..97.0));
//!
//! let upa = Upa::new(ctx, UpaConfig { sample_size: 200, ..UpaConfig::default() });
//! let result = upa.run(&ds, &query, &domain).unwrap();
//! assert!(result.sensitivity[0] > 0.0);
//! ```

pub mod api;
pub mod audit;
pub mod brute;
pub mod budget;
pub mod domain;
pub mod enforcer;
pub mod error;
pub mod join;
pub mod output;
pub mod pipeline;
pub mod query;

pub use audit::QueryAudit;
pub use config::UpaConfig;
pub use error::UpaError;
pub use output::DpOutput;
pub use pipeline::{PreparedQuery, Upa, UpaResult, AUDIT_RING};

mod config;
mod source;
