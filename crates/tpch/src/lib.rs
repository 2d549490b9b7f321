//! TPC-H-style workload for the UPA reproduction.
//!
//! The paper evaluates UPA on seven SparkSQL TPC-H queries over 114–133 GB
//! of TPC-H data (Table II). This crate rebuilds that substrate at
//! laptop scale:
//!
//! * [`rows`] — the TPC-H tables (`lineitem`, `orders`, `part`,
//!   `supplier`, `partsupp`, `nation`), each declared once: its row type
//!   is its schema;
//! * [`gen`] — a **deterministic, seeded generator** with Zipf-skewed join
//!   keys. Skew matters: the heavy-fan-in suppliers it creates are exactly
//!   the sensitivity outliers that make TPCH21 the hardest query in the
//!   paper's Figure 3;
//! * [`queries`] — the seven queries (Q1, Q4, Q6, Q11, Q13, Q16, Q21),
//!   each as a commutative/associative Map/Reduce decomposition over its
//!   protected table, the form UPA runs;
//! * [`sql`] — the same seven queries as SQL text, their one relational
//!   definition: parsed, it is the plan the relational engine executes
//!   and FLEX analyses, and its join keys are the columns whose
//!   frequencies [`sql::build_metadata`] records for FLEX.
//!
//! The queries keep TPC-H's operator structure (which filters feed which
//! joins) while simplifying predicates to the generated columns; DESIGN.md
//! documents the substitution.

pub mod gen;
pub mod queries;
pub mod rows;
pub mod sql;

pub use gen::{Tables, TpchConfig};
pub use rows::{Lineitem, Nation, Order, Part, PartSupp, Supplier, Table};
