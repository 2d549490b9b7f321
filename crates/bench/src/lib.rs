//! Reproduction harness for the UPA paper's evaluation section.
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | Binary             | Paper artefact                               |
//! |--------------------|----------------------------------------------|
//! | `table2_support`   | Table II — query/dataset support matrix      |
//! | `fig2a_rmse`       | Figure 2(a) — sensitivity RMSE, UPA vs FLEX  |
//! | `fig2b_overhead`   | Figure 2(b) — runtime normalized to vanilla  |
//! | `fig3_coverage`    | Figure 3 — neighbour-output coverage vs `n`  |
//! | `fig4a_scalability`| Figure 4(a) — overhead vs dataset size       |
//! | `fig4b_samplesize` | Figure 4(b) — runtime vs sample size `n`     |
//! | `reproduce_all`    | everything above, in sequence                |
//!
//! Scale is configurable through environment variables
//! (`UPA_BENCH_ORDERS`, `UPA_BENCH_ML_RECORDS`, `UPA_BENCH_TRIALS`,
//! `UPA_BENCH_THREADS`); defaults are laptop-sized. Absolute numbers are
//! not expected to match the paper's 5-node/40 GbE cluster — the *shape*
//! (who wins, by what order of magnitude, where overhead rises and falls)
//! is the reproduction target, and each experiment prints the paper's
//! reference claim next to the measured value.

pub mod experiments;
pub mod report;

pub use experiments::ExpConfig;
