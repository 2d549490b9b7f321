//! A minimal relational query executor over the dataflow engine — the
//! **SparkSQL substitute** of the UPA reproduction.
//!
//! The paper runs seven of its nine queries as SparkSQL; FLEX consumes
//! their relational plans. This crate closes the loop: a query's SQL text
//! parses ([`parse_sql`]) into one [`LogicalPlan`], which the dataflow
//! engine **executes** and the `upa-flex` crate analyses statically as
//! is, so the reproduction can check that the plan given to FLEX
//! computes the same answer as the hand-written Map/Reduce query UPA
//! runs. The TPC-H queries exist as SQL text only (`upa_tpch::sql`).
//!
//! Components:
//!
//! * [`value`] — the dynamic [`value::Value`] cell type and row/schema
//!   representation;
//! * [`expr`] — a small expression language (column refs, literals,
//!   comparisons, boolean and arithmetic operators, `IN` lists), bound
//!   against a schema before evaluation;
//! * [`sqlparse`] — the SQL subset the queries are written in
//!   (`SELECT COUNT(*)`/`SUM(expr)` over `JOIN … ON` chains with a
//!   `WHERE` clause and an optional `GROUP BY`), parsed into a plan;
//! * [`plan`] — the logical plan: `Scan`, `Filter`, `Join`, `Project`,
//!   `Aggregate` and `GroupBy` (COUNT(*)/SUM), the one plan both the
//!   executor and the static baseline read;
//! * [`exec`] — the executor: binds expressions, runs scans/filters as
//!   narrow stages and joins through the engine's shuffle join.
//!
//! # Example
//!
//! ```
//! use dataflow::Context;
//! use upa_relational::exec::Catalog;
//! use upa_relational::expr::Expr;
//! use upa_relational::plan::LogicalPlan;
//! use upa_relational::value::{Relation, Schema, Value};
//!
//! let ctx = Context::with_threads(2);
//! let schema = Schema::new("t", &["k", "v"]);
//! let rows = vec![
//!     vec![Value::Int(1), Value::Float(10.0)],
//!     vec![Value::Int(2), Value::Float(20.0)],
//! ];
//! let mut catalog = Catalog::new();
//! catalog.register(Relation::from_rows(&ctx, schema, rows, 2));
//!
//! let plan = LogicalPlan::scan("t")
//!     .filter(Expr::col("t.k").gt(Expr::lit(Value::Int(1))))
//!     .count();
//! assert_eq!(catalog.execute(&plan).unwrap().as_scalar().unwrap(), 1.0);
//! ```

pub mod exec;
pub mod expr;
pub mod plan;
pub mod sqlparse;
pub mod value;

pub use exec::Catalog;
pub use expr::Expr;
pub use plan::LogicalPlan;
pub use sqlparse::parse_sql;
pub use value::{Relation, Row, Schema, Value};

/// Errors from planning or executing a relational query.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// Referenced table is not registered in the catalog.
    UnknownTable(String),
    /// Referenced column is absent from the input schema; the payload is
    /// `(column, schema columns)`.
    UnknownColumn(String, Vec<String>),
    /// An operator was applied to values of the wrong type.
    TypeMismatch(&'static str),
    /// A join key type that cannot be hashed (floats).
    UnhashableJoinKey(String),
    /// Aggregate applied to a non-numeric expression.
    NonNumericAggregate,
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            RelError::UnknownColumn(c, have) => {
                write!(f, "unknown column '{c}' (have: {})", have.join(", "))
            }
            RelError::TypeMismatch(what) => write!(f, "type mismatch in {what}"),
            RelError::UnhashableJoinKey(c) => {
                write!(f, "join key '{c}' has a type that cannot be hashed")
            }
            RelError::NonNumericAggregate => write!(f, "aggregate input is not numeric"),
        }
    }
}

impl std::error::Error for RelError {}
