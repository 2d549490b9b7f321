//! The plan executor: logical plans run as dataflow jobs.

use crate::plan::{Aggregate, LogicalPlan};
use crate::value::{JoinKey, Relation, Row, Schema, Value};
use crate::RelError;
use dataflow::PairOps;
use std::collections::HashMap;
use std::sync::Arc;

/// The result of executing a plan: rows or an aggregate scalar.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// A relation (non-aggregated plan).
    Rows(Relation),
    /// An aggregate scalar.
    Scalar(f64),
}

impl QueryOutput {
    /// The scalar, if the plan was an aggregate.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            QueryOutput::Scalar(s) => Some(*s),
            QueryOutput::Rows(_) => None,
        }
    }

    /// The relation, if the plan was not an aggregate.
    pub fn as_rows(&self) -> Option<&Relation> {
        match self {
            QueryOutput::Rows(r) => Some(r),
            QueryOutput::Scalar(_) => None,
        }
    }
}

/// A set of named relations plus the executor entry point.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Relation>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a relation under its own name, replacing any previous
    /// relation of that name.
    pub fn register(&mut self, relation: Relation) {
        self.tables.insert(relation.name().to_string(), relation);
    }

    /// Looks up a registered relation.
    pub fn table(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Executes a plan.
    ///
    /// # Errors
    ///
    /// Returns a [`RelError`] for unknown tables/columns, type mismatches
    /// or unhashable join keys. Expression evaluation errors inside engine
    /// tasks surface as rows being dropped is **not** acceptable for a
    /// database, so predicates are pre-validated against the first row
    /// where possible and evaluation errors panic the stage (fail-fast,
    /// as SparkSQL aborts a job).
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryOutput, RelError> {
        match plan {
            LogicalPlan::Aggregate { input, agg } => {
                let rel = self.execute_rel(input)?;
                Ok(QueryOutput::Scalar(self.aggregate(&rel, agg)?))
            }
            LogicalPlan::GroupBy { input, key, agg } => {
                let rel = self.execute_rel(input)?;
                Ok(QueryOutput::Rows(self.group_by(&rel, key, agg)?))
            }
            _ => Ok(QueryOutput::Rows(self.execute_rel(plan)?)),
        }
    }

    /// Grouped aggregation: one output row `(key, value)` per distinct
    /// key, computed through a `reduce_by_key` shuffle.
    fn group_by(&self, rel: &Relation, key: &str, agg: &Aggregate) -> Result<Relation, RelError> {
        let ki = rel.schema().index_of(key).ok_or_else(|| {
            RelError::UnknownColumn(key.to_string(), rel.schema().columns().to_vec())
        })?;
        if let Some(first) = rel.data().take(1).first() {
            if first[ki].join_key().is_none() {
                return Err(RelError::UnhashableJoinKey(key.to_string()));
            }
        }
        let value: Option<crate::expr::BoundExpr> = match agg {
            Aggregate::CountStar => None,
            Aggregate::Sum(e) => {
                let bound = e.bind(rel.schema())?;
                if let Some(first) = rel.data().take(1).first() {
                    bound
                        .eval(first)?
                        .as_f64()
                        .ok_or(RelError::NonNumericAggregate)?;
                }
                Some(bound)
            }
        };
        let keyed = rel.data().map(move |row| {
            let v = match &value {
                None => 1.0,
                Some(e) => e
                    .eval(row)
                    .ok()
                    .and_then(|x| x.as_f64())
                    .expect("aggregate expression validated against the schema"),
            };
            (key_of(row, ki), (row[ki].clone(), v))
        });
        let grouped = keyed
            .reduce_by_key(|a, b| (a.0.clone(), a.1 + b.1))
            .map(|(_, (k, v))| vec![k.clone(), Value::Float(*v)]);
        let agg_name = match agg {
            Aggregate::CountStar => "count",
            Aggregate::Sum(_) => "sum",
        };
        Ok(Relation::from_dataset(
            rel.name().to_string(),
            Schema::from_qualified(vec![
                rel.schema().columns()[ki].clone(),
                format!("{}.{agg_name}", rel.name()),
            ]),
            grouped,
        ))
    }

    fn aggregate(&self, rel: &Relation, agg: &Aggregate) -> Result<f64, RelError> {
        match agg {
            Aggregate::CountStar => Ok(rel.len() as f64),
            Aggregate::Sum(expr) => {
                let bound = expr.bind(rel.schema())?;
                // Pre-validate on one row so type errors surface as
                // Results rather than stage panics.
                if let Some(first) = rel.data().take(1).first() {
                    bound
                        .eval(first)?
                        .as_f64()
                        .ok_or(RelError::NonNumericAggregate)?;
                }
                let sum = rel
                    .data()
                    .map(move |row| {
                        bound
                            .eval(row)
                            .ok()
                            .and_then(|v| v.as_f64())
                            .expect("sum expression validated against the schema")
                    })
                    .reduce(|a, b| a + b)
                    .unwrap_or(0.0);
                Ok(sum)
            }
        }
    }

    fn execute_rel(&self, plan: &LogicalPlan) -> Result<Relation, RelError> {
        match plan {
            LogicalPlan::Scan { table } => self
                .tables
                .get(table)
                .cloned()
                .ok_or_else(|| RelError::UnknownTable(table.clone())),
            LogicalPlan::Filter { input, predicate } => {
                let rel = self.execute_rel(input)?;
                let bound = predicate.bind(rel.schema())?;
                if let Some(first) = rel.data().take(1).first() {
                    bound.eval_bool(first)?;
                }
                let data = rel.data().filter(move |row| {
                    bound
                        .eval_bool(row)
                        .expect("predicate validated against the schema")
                });
                Ok(Relation::from_dataset(
                    rel.name().to_string(),
                    rel.schema().clone(),
                    data,
                ))
            }
            LogicalPlan::Project { input, columns } => {
                let rel = self.execute_rel(input)?;
                let mut indices = Vec::with_capacity(columns.len());
                let mut names = Vec::with_capacity(columns.len());
                for c in columns {
                    let i = rel.schema().index_of(c).ok_or_else(|| {
                        RelError::UnknownColumn(c.clone(), rel.schema().columns().to_vec())
                    })?;
                    indices.push(i);
                    names.push(rel.schema().columns()[i].clone());
                }
                let indices = Arc::new(indices);
                let data = rel
                    .data()
                    .map(move |row| indices.iter().map(|&i| row[i].clone()).collect::<Row>());
                Ok(Relation::from_dataset(
                    rel.name().to_string(),
                    Schema::from_qualified(names),
                    data,
                ))
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.execute_rel(left)?;
                let r = self.execute_rel(right)?;
                let li = l.schema().index_of(left_key).ok_or_else(|| {
                    RelError::UnknownColumn(left_key.clone(), l.schema().columns().to_vec())
                })?;
                let ri = r.schema().index_of(right_key).ok_or_else(|| {
                    RelError::UnknownColumn(right_key.clone(), r.schema().columns().to_vec())
                })?;
                // Validate hashability on first rows.
                for (rel, idx, name) in [(&l, li, left_key), (&r, ri, right_key)] {
                    if let Some(first) = rel.data().take(1).first() {
                        if first[idx].join_key().is_none() {
                            return Err(RelError::UnhashableJoinKey(name.clone()));
                        }
                    }
                }
                let keyed_l = l.data().map(move |row| (key_of(row, li), row.clone()));
                let keyed_r = r.data().map(move |row| (key_of(row, ri), row.clone()));
                let joined = keyed_l.join(&keyed_r).map(|(_, (lrow, rrow))| {
                    let mut out = lrow.clone();
                    out.extend(rrow.iter().cloned());
                    out
                });
                Ok(Relation::from_dataset(
                    l.name().to_string(),
                    l.schema().concat(r.schema()),
                    joined,
                ))
            }
            LogicalPlan::Aggregate { .. } | LogicalPlan::GroupBy { .. } => {
                // execute() handles aggregates; reaching here means an
                // aggregate was nested under another operator, which the
                // executor does not support.
                Err(RelError::TypeMismatch("nested aggregates are unsupported"))
            }
        }
    }
}

fn key_of(row: &Row, idx: usize) -> JoinKey {
    row[idx]
        .join_key()
        .expect("join key hashability validated against the first row")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::int;
    use crate::value::Value;
    use dataflow::Context;

    fn catalog(ctx: &Context) -> Catalog {
        let mut c = Catalog::new();
        // orders(orderkey, custkey, priority)
        let orders: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 10), Value::Int(i % 5 + 1)])
            .collect();
        c.register(Relation::from_rows(
            ctx,
            Schema::new("orders", &["orderkey", "custkey", "priority"]),
            orders,
            4,
        ));
        // lineitem(orderkey, price): 3 per order
        let lineitem: Vec<Row> = (0..300)
            .map(|i| vec![Value::Int(i / 3), Value::Float((i % 7) as f64)])
            .collect();
        c.register(Relation::from_rows(
            ctx,
            Schema::new("lineitem", &["orderkey", "price"]),
            lineitem,
            4,
        ));
        c
    }

    #[test]
    fn scan_filter_count() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan = LogicalPlan::scan("orders")
            .filter(Expr::col("priority").ge(int(3)))
            .count();
        // priorities 1..=5 uniform over 100 orders: 3,4,5 → 60.
        assert_eq!(c.execute(&plan).unwrap().as_scalar().unwrap(), 60.0);
    }

    #[test]
    fn join_count_matches_fanout() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan = LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .count();
        assert_eq!(c.execute(&plan).unwrap().as_scalar().unwrap(), 300.0);
    }

    #[test]
    fn join_then_filter_then_sum() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan = LogicalPlan::scan("orders")
            .join(
                LogicalPlan::scan("lineitem"),
                "orders.orderkey",
                "lineitem.orderkey",
            )
            .filter(Expr::col("orders.priority").eq(int(1)))
            .sum(Expr::col("lineitem.price"));
        let got = c.execute(&plan).unwrap().as_scalar().unwrap();
        // Reference computation.
        let mut want = 0.0;
        for i in 0..300i64 {
            let orderkey = i / 3;
            if orderkey % 5 + 1 == 1 {
                want += (i % 7) as f64;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn projection_narrows_schema() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan = LogicalPlan::scan("orders").project(&["custkey"]);
        let out = c.execute(&plan).unwrap();
        let rel = out.as_rows().unwrap();
        assert_eq!(rel.schema().columns(), &["orders.custkey".to_string()]);
        assert_eq!(rel.len(), 100);
    }

    #[test]
    fn errors_are_reported() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        assert_eq!(
            c.execute(&LogicalPlan::scan("nope").count()).unwrap_err(),
            RelError::UnknownTable("nope".into())
        );
        let bad_col = LogicalPlan::scan("orders")
            .filter(Expr::col("zz").eq(int(1)))
            .count();
        assert!(matches!(
            c.execute(&bad_col).unwrap_err(),
            RelError::UnknownColumn(..)
        ));
        let float_key = LogicalPlan::scan("lineitem")
            .join(LogicalPlan::scan("lineitem"), "price", "price")
            .count();
        assert!(matches!(
            c.execute(&float_key).unwrap_err(),
            RelError::UnhashableJoinKey(_)
        ));
        let bad_sum = LogicalPlan::scan("orders").sum(Expr::col("priority").eq(int(1)));
        assert_eq!(
            c.execute(&bad_sum).unwrap_err(),
            RelError::NonNumericAggregate
        );
    }

    #[test]
    fn scalar_and_rows_views() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let scalar = c.execute(&LogicalPlan::scan("orders").count()).unwrap();
        assert_eq!(scalar.as_scalar(), Some(100.0));
        assert!(scalar.as_rows().is_none());
        let rows = c.execute(&LogicalPlan::scan("orders")).unwrap();
        assert!(rows.as_scalar().is_none());
        assert_eq!(rows.as_rows().unwrap().len(), 100);
    }

    #[test]
    fn group_by_count_matches_reference() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan =
            LogicalPlan::scan("orders").group_by("custkey", crate::plan::Aggregate::CountStar);
        let out = c.execute(&plan).unwrap();
        let rel = out.as_rows().unwrap();
        // 100 orders over 10 customers: 10 groups of 10.
        assert_eq!(rel.len(), 10);
        for row in rel.data().collect() {
            assert_eq!(row[1], Value::Float(10.0));
        }
    }

    #[test]
    fn group_by_sum_matches_reference() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan = LogicalPlan::scan("lineitem").group_by(
            "lineitem.orderkey",
            crate::plan::Aggregate::Sum(Expr::col("price")),
        );
        let out = c.execute(&plan).unwrap();
        let rel = out.as_rows().unwrap();
        assert_eq!(rel.len(), 100, "one group per order");
        // Spot-check order 0: lineitems 0,1,2 with prices 0,1,2.
        let rows = rel.data().collect();
        let row0 = rows
            .iter()
            .find(|r| r[0] == Value::Int(0))
            .expect("group for order 0");
        assert_eq!(row0[1], Value::Float(3.0));
    }

    #[test]
    fn group_by_on_float_key_is_rejected() {
        let ctx = Context::with_threads(2);
        let c = catalog(&ctx);
        let plan =
            LogicalPlan::scan("lineitem").group_by("price", crate::plan::Aggregate::CountStar);
        assert!(matches!(
            c.execute(&plan).unwrap_err(),
            RelError::UnhashableJoinKey(_)
        ));
    }
}
