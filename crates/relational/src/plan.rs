//! Logical query plans: what the executor runs and FLEX analyses.

use crate::expr::Expr;
use crate::value::Value;

/// Aggregates the executor supports.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(expr)`.
    Sum(Expr),
}

/// A logical relational plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a catalog table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Equi-join on one column pair.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join column on the left schema.
        left_key: String,
        /// Join column on the right schema.
        right_key: String,
    },
    /// Keep only the named columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Columns to keep (qualified or unambiguous suffix names).
        columns: Vec<String>,
    },
    /// Reduce to a scalar.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The aggregate to compute.
        agg: Aggregate,
    },
    /// One aggregate value per distinct key (SQL `GROUP BY`).
    GroupBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping column.
        key: String,
        /// Aggregate computed per group.
        agg: Aggregate,
    },
}

impl LogicalPlan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Filter builder.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Join builder.
    pub fn join(
        self,
        right: LogicalPlan,
        left_key: impl Into<String>,
        right_key: impl Into<String>,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.into(),
            right_key: right_key.into(),
        }
    }

    /// Projection builder.
    pub fn project(self, columns: &[&str]) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// `COUNT(*)` builder.
    pub fn count(self) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            agg: Aggregate::CountStar,
        }
    }

    /// `SUM(expr)` builder.
    pub fn sum(self, expr: Expr) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            agg: Aggregate::Sum(expr),
        }
    }

    /// `GROUP BY key` builder.
    pub fn group_by(self, key: impl Into<String>, agg: Aggregate) -> LogicalPlan {
        LogicalPlan::GroupBy {
            input: Box::new(self),
            key: key.into(),
            agg,
        }
    }
}

/// Convenience literal constructors used by plan builders.
pub fn int(i: i64) -> Expr {
    Expr::lit(Value::Int(i))
}

/// Float literal.
pub fn float(f: f64) -> Expr {
    Expr::lit(Value::Float(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q4ish() -> LogicalPlan {
        LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .filter(Expr::col("orders.orderdate").lt(int(100)))
            .count()
    }

    #[test]
    fn builders_compose() {
        let p = q4ish();
        match &p {
            LogicalPlan::Aggregate { agg, .. } => assert_eq!(*agg, Aggregate::CountStar),
            other => panic!("expected aggregate root, got {other:?}"),
        }
    }
}
