//! **FLEX** — the static-analysis baseline UPA is evaluated against.
//!
//! FLEX ("Towards Practical Differential Privacy for SQL Queries",
//! Johnson, Near & Song, VLDB 2018) infers an upper bound on the local
//! sensitivity of SQL **counting** queries by looking only at the query's
//! operator composition and at dataset *metadata* — the maximum frequency
//! of each join key. It never executes the query:
//!
//! * a count over a single table has sensitivity 1;
//! * a count over a join can change by (at most) the product of the most
//!   frequent join-key occurrences on either side, so FLEX multiplies max
//!   frequencies across every join in the plan;
//! * `Filter` is invisible to the analysis (its selectivity is data
//!   dependent), which is FLEX's main source of over-estimation — the
//!   paper's Figure 2(a) shows it off by up to five orders of magnitude on
//!   TPCH16/TPCH21, which stack multiple filters and joins;
//! * non-count aggregates (SUM, arithmetic, machine learning) are
//!   **unsupported** — only five of the paper's nine queries are
//!   analysable (Table II).
//!
//! FLEX reads the same [`LogicalPlan`](upa_relational::LogicalPlan) the
//! relational engine executes: a query's SQL text parses once, and both
//! the executor and the analysis walk that one plan.
//!
//! # Example
//!
//! ```
//! use upa_flex::{analyze, Metadata};
//! use upa_relational::parse_sql;
//!
//! let plan = parse_sql(
//!     "SELECT COUNT(*) FROM orders \
//!      JOIN lineitem ON orders.orderkey = lineitem.orderkey \
//!      WHERE orders.orderdate < 100",
//! )
//! .unwrap();
//! let mut meta = Metadata::new();
//! meta.set_max_freq("orders", "orderkey", 1);
//! meta.set_max_freq("lineitem", "orderkey", 7);
//! let s = analyze(&plan, &meta).unwrap();
//! assert_eq!(s, 7.0);
//! ```

pub mod analysis;
pub mod metadata;
pub mod plan;
pub mod smooth;

pub use analysis::{analyze, elastic_sensitivity, FlexUnsupported};
pub use metadata::{ColumnRef, Metadata};
pub use smooth::{smooth_sensitivity, SmoothMechanism};
