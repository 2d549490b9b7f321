//! How FLEX reads a relational plan: the aggregates it cannot analyse,
//! and the `table.column` names of join keys it looks up in the metadata.

use crate::metadata::ColumnRef;

/// Non-count aggregates — FLEX cannot analyse these (Table II's
/// unsupported rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// SUM of an expression (TPCH6, TPCH11).
    Sum,
    /// An iterative machine-learning computation (KMeans, Linear
    /// Regression), which has no SQL plan at all.
    MachineLearning,
}

impl std::fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateKind::Sum => write!(f, "SUM"),
            AggregateKind::MachineLearning => write!(f, "ML"),
        }
    }
}

/// Splits a qualified `table.column` join key into the metadata's
/// `(table, column)` reference; unqualified names get an empty table.
pub(crate) fn split_column(name: &str) -> ColumnRef {
    match name.split_once('.') {
        Some((t, c)) => ColumnRef::new(t, c),
        None => ColumnRef::new("", name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, Metadata};
    use dataflow::Context;
    use upa_relational::plan::{int, Aggregate};
    use upa_relational::value::{Relation, Schema, Value};
    use upa_relational::{Catalog, Expr, LogicalPlan};

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
    fn flex_preserves_operator_structure() {
        let mut meta = Metadata::new();
        meta.set_max_freq("orders", "orderkey", 1);
        meta.set_max_freq("lineitem", "orderkey", 9);
        assert_eq!(analyze(&q4ish(), &meta).unwrap(), 9.0);
        // The filter above the join is opaque: dropping it changes nothing.
        let unfiltered = LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .count();
        assert_eq!(analyze(&unfiltered, &meta).unwrap(), 9.0);
    }

    #[test]
    fn flex_marks_sum_unsupported() {
        let p = LogicalPlan::scan("lineitem").sum(Expr::col("price"));
        assert!(analyze(&p, &Metadata::new()).is_err());
    }

    #[test]
    fn projection_is_transparent_for_flex() {
        let p = LogicalPlan::scan("t").project(&["a"]).count();
        assert_eq!(analyze(&p, &Metadata::new()).unwrap(), 1.0);
        let rows = LogicalPlan::scan("t").count().project(&["a"]);
        assert_eq!(analyze(&rows, &Metadata::new()).unwrap(), 1.0);
    }

    #[test]
    fn split_column_handles_unqualified() {
        let c = split_column("orderkey");
        assert_eq!(c.table, "");
        assert_eq!(c.column, "orderkey");
        assert_eq!(
            split_column("lineitem.orderkey"),
            ColumnRef::new("lineitem", "orderkey")
        );
    }

    #[test]
    fn group_by_builder_and_flex_shape() {
        let p = LogicalPlan::scan("t").group_by("t.k", Aggregate::CountStar);
        match &p {
            LogicalPlan::GroupBy { key, .. } => assert_eq!(key, "t.k"),
            other => panic!("expected group-by, got {other:?}"),
        }
        assert_eq!(analyze(&p, &Metadata::new()).unwrap(), 1.0);
    }

    #[test]
    fn column_ref_from_tuple_and_display() {
        let c: ColumnRef = ("lineitem", "orderkey").into();
        assert_eq!(c.to_string(), "lineitem.orderkey");
        assert_eq!(c, ColumnRef::new("lineitem", "orderkey"));
    }

    #[test]
    fn aggregate_kinds_display() {
        assert_eq!(AggregateKind::Sum.to_string(), "SUM");
        assert_eq!(AggregateKind::MachineLearning.to_string(), "ML");
    }

    #[test]
    fn executed_plan_and_flex_plan_share_structure() {
        let ctx = Context::with_threads(2);
        let mut c = Catalog::new();
        let orders = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect();
        c.register(Relation::from_rows(
            &ctx,
            Schema::new("orders", &["orderkey", "priority"]),
            orders,
            2,
        ));
        let lineitem = (0..300).map(|i| vec![Value::Int(i % 100)]).collect();
        c.register(Relation::from_rows(
            &ctx,
            Schema::new("lineitem", &["orderkey"]),
            lineitem,
            2,
        ));
        let plan = LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .filter(Expr::col("priority").ge(int(3)))
            .count();
        // Execute the plan...
        let measured = c.execute(&plan).unwrap().as_scalar().unwrap();
        assert_eq!(
            measured, 120.0,
            "40 orders of priority 3-4, 3 lineitems each"
        );
        // ...and analyse the same plan with FLEX.
        let mut meta = Metadata::new();
        meta.set_max_freq("orders", "orderkey", 1);
        meta.set_max_freq("lineitem", "orderkey", 3);
        let flex = analyze(&plan, &meta).unwrap();
        assert_eq!(flex, 3.0, "one order joins at most 3 lineitems");
    }
}
