//! SQL forms of the TPC-H queries, executable on the relational engine.
//!
//! The paper submits Q1/Q4/Q6/Q11/Q13/Q16/Q21 as SparkSQL; FLEX analyses
//! their plans. Each query's SQL text in [`sql_texts`] is its one
//! relational definition: [`plan`] parses it into a [`LogicalPlan`], which
//! the [`catalog`] of generated tables executes (the tests check it
//! against the Map/Reduce decompositions in [`crate::queries`]) and
//! `upa_flex` analyses as is, over the join-key frequencies
//! [`build_metadata`] reads off the same plans.

use crate::gen::Tables;
use crate::queries::{
    Q11_NATION_BOUND, Q16_BRAND, Q16_SIZES, Q21_NATION_BOUND, Q4_DATE_HI, Q4_DATE_LO, Q6_DATE_HI,
    Q6_DATE_LO,
};
use crate::rows::{Table, STATUS_F};
use dataflow::Context;
use std::collections::BTreeSet;
use upa_flex::Metadata;
use upa_relational::value::{Relation, Schema};
use upa_relational::{parse_sql, Catalog, LogicalPlan};

/// Loads the generated tables into a relational catalog, one relation per
/// table with every column its row type declares.
pub fn catalog(ctx: &Context, tables: &Tables, partitions: usize) -> Catalog {
    fn register<T: Table>(c: &mut Catalog, ctx: &Context, rows: &[T], partitions: usize) {
        let rows = rows.iter().map(T::row).collect();
        let schema = Schema::new(T::NAME, T::COLUMNS);
        c.register(Relation::from_rows(ctx, schema, rows, partitions));
    }
    let mut c = Catalog::new();
    register(&mut c, ctx, &tables.lineitem, partitions);
    register(&mut c, ctx, &tables.orders, partitions);
    register(&mut c, ctx, &tables.part, partitions);
    register(&mut c, ctx, &tables.supplier, partitions);
    register(&mut c, ctx, &tables.partsupp, partitions);
    register(&mut c, ctx, &tables.nation, partitions);
    c
}

/// FLEX metadata for the generated database: the maximum frequency of
/// every join key the seven [`sql_texts`] plans join on. FLEX's model
/// takes these as public, published by the data curator.
///
/// # Panics
///
/// If a plan joins on a key that is not a declared `table.column`.
pub fn build_metadata(tables: &Tables) -> Metadata {
    fn join_keys(plan: &LogicalPlan, out: &mut BTreeSet<(String, String)>) {
        match plan {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::GroupBy { input, .. } => join_keys(input, out),
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                for key in [left_key, right_key] {
                    let (table, column) = key.split_once('.').expect("qualified join key");
                    out.insert((table.to_string(), column.to_string()));
                }
                join_keys(left, out);
                join_keys(right, out);
            }
        }
    }
    fn record<T: Table>(m: &mut Metadata, keys: &BTreeSet<(String, String)>, rows: &[T]) {
        for (_, column) in keys.iter().filter(|(table, _)| table == T::NAME) {
            let key = T::column(column).unwrap_or_else(|| panic!("no column {}.{column}", T::NAME));
            m.record_keys(T::NAME, column, rows.iter().map(|r| key(r).join_key()));
        }
    }
    let mut keys = BTreeSet::new();
    for (name, _) in sql_texts() {
        join_keys(&plan(name), &mut keys);
    }
    let mut m = Metadata::new();
    record(&mut m, &keys, &tables.lineitem);
    record(&mut m, &keys, &tables.orders);
    record(&mut m, &keys, &tables.part);
    record(&mut m, &keys, &tables.supplier);
    record(&mut m, &keys, &tables.partsupp);
    record(&mut m, &keys, &tables.nation);
    assert_eq!(m.len(), keys.len(), "a join key names no generated table");
    m
}

/// The relational plan of query `name` (`"Q1"` … `"Q21"`), parsed from
/// its entry in [`sql_texts`].
///
/// # Panics
///
/// If `name` is not one of the seven queries.
pub fn plan(name: &str) -> LogicalPlan {
    let (_, text) = sql_texts()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no TPC-H query named {name}"));
    parse_sql(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The seven queries as SQL text, by TPC-H number. Date and nation-group
/// constants are formatted in, matching the generator's columns.
pub fn sql_texts() -> Vec<(&'static str, String)> {
    vec![
        ("Q1", "SELECT COUNT(*) FROM lineitem".to_string()),
        (
            "Q4",
            format!(
                "SELECT COUNT(*) FROM orders \
                 JOIN lineitem ON orders.orderkey = lineitem.orderkey \
                 WHERE orders.orderdate >= {} AND orders.orderdate < {} \
                 AND lineitem.commitdate < lineitem.receiptdate",
                Q4_DATE_LO, Q4_DATE_HI
            ),
        ),
        (
            "Q6",
            format!(
                "SELECT SUM(extendedprice * discount) FROM lineitem \
                 WHERE shipdate >= {} AND shipdate < {} \
                 AND discount >= 0.05 AND discount <= 0.07 AND quantity < 24.0",
                Q6_DATE_LO, Q6_DATE_HI
            ),
        ),
        (
            "Q11",
            format!(
                "SELECT SUM(partsupp.supplycost * partsupp.availqty) FROM partsupp \
                 JOIN supplier ON partsupp.suppkey = supplier.suppkey \
                 WHERE supplier.nationkey < {Q11_NATION_BOUND}"
            ),
        ),
        (
            "Q13",
            "SELECT COUNT(*) FROM orders \
             JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             WHERE orders.orderpriority >= 2"
                .to_string(),
        ),
        (
            "Q16",
            format!(
                "SELECT COUNT(*) FROM partsupp \
                 JOIN part ON partsupp.partkey = part.partkey \
                 JOIN supplier ON partsupp.suppkey = supplier.suppkey \
                 WHERE part.brand <> {} AND part.typ % 5 <> 0 \
                 AND part.size IN ({}) \
                 AND supplier.complaint = FALSE",
                Q16_BRAND,
                Q16_SIZES.map(|s| s.to_string()).join(", ")
            ),
        ),
        (
            "Q21",
            format!(
                "SELECT COUNT(*) FROM supplier \
                 JOIN lineitem ON supplier.suppkey = lineitem.suppkey \
                 JOIN orders ON lineitem.orderkey = orders.orderkey \
                 JOIN nation ON supplier.nationkey = nation.nationkey \
                 WHERE nation.nationkey < {} \
                 AND lineitem.receiptdate > lineitem.commitdate \
                 AND orders.orderstatus = {}",
                Q21_NATION_BOUND, STATUS_F
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TpchConfig;
    use crate::queries as tq;
    use upa_flex::ColumnRef;

    fn setup() -> (Tables, Catalog) {
        let tables = Tables::generate(&TpchConfig {
            orders: 600,
            ..TpchConfig::default()
        });
        let ctx = Context::with_threads(4);
        let catalog = catalog(&ctx, &tables, 4);
        (tables, catalog)
    }

    #[test]
    fn catalog_registers_all_tables() {
        let (tables, c) = setup();
        assert_eq!(c.len(), 6);
        assert_eq!(c.table("lineitem").unwrap().len(), tables.lineitem.len());
        assert_eq!(c.table("orders").unwrap().len(), tables.orders.len());
    }

    /// Every query's SQL text parses, [`plan`] returns exactly that parse,
    /// and the catalog executes it to one finite scalar: tokenizer,
    /// parser, binder and executor exercised end to end on all seven.
    #[test]
    fn sql_texts_parse_and_execute() {
        let (_tables, c) = setup();
        for (name, text) in sql_texts() {
            let parsed = parse_sql(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(plan(name), parsed, "{name}");
            let got = c.execute(&parsed).unwrap().as_scalar().unwrap();
            assert!(got.is_finite() && got >= 0.0, "{name}: {got}");
        }
    }

    /// Every query's SQL plan executes to the same answer as its
    /// hand-written Map/Reduce form over the protected table's rows: the
    /// cross-check that the plan handed to FLEX is the query UPA actually
    /// runs.
    #[test]
    fn sql_plans_match_handwritten_queries() {
        let (t, c) = setup();
        let map_reduce = [
            ("Q1", tq::Q1::new(&t).query().evaluate_slice(&t.lineitem)),
            ("Q4", tq::Q4::new(&t).query().evaluate_slice(&t.orders)),
            ("Q6", tq::Q6::new(&t).query().evaluate_slice(&t.lineitem)),
            ("Q11", tq::Q11::new(&t).query().evaluate_slice(&t.partsupp)),
            ("Q13", tq::Q13::new(&t).query().evaluate_slice(&t.orders)),
            ("Q16", tq::Q16::new(&t).query().evaluate_slice(&t.partsupp)),
            ("Q21", tq::Q21::new(&t).query().evaluate_slice(&t.supplier)),
        ];
        assert_eq!(sql_texts().len(), map_reduce.len());
        for (name, want) in map_reduce {
            let got = c.execute(&plan(name)).unwrap().as_scalar().unwrap();
            let tol = 1e-6 * want.abs().max(1.0);
            assert!(
                (got - want).abs() <= tol,
                "{name}: SQL text gives {got}, the Map/Reduce form gives {want}"
            );
        }
    }

    /// The plan FLEX analyses, parsed from each SQL text, has the shape of
    /// the hand-written Map/Reduce form: it scans the tables that form
    /// reads and ends in the aggregate it computes (a COUNT where the form
    /// sums 0/1 indicators or match counts, a SUM where it sums values).
    /// Q21's text also joins `nation`, as TPC-H's does; its Map/Reduce
    /// form reads the nation key off `supplier`.
    #[test]
    fn derived_flex_plans_match_handwritten_shapes() {
        use upa_relational::plan::Aggregate;
        fn tables(plan: &LogicalPlan, out: &mut Vec<String>) {
            match plan {
                LogicalPlan::Scan { table } => out.push(table.clone()),
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::GroupBy { input, .. } => tables(input, out),
                LogicalPlan::Join { left, right, .. } => {
                    tables(left, out);
                    tables(right, out);
                }
            }
        }
        for (name, want_tables, counts) in [
            ("Q1", &["lineitem"][..], true),
            ("Q4", &["lineitem", "orders"], true),
            ("Q6", &["lineitem"], false),
            ("Q11", &["partsupp", "supplier"], false),
            ("Q13", &["lineitem", "orders"], true),
            ("Q16", &["part", "partsupp", "supplier"], true),
            ("Q21", &["lineitem", "nation", "orders", "supplier"], true),
        ] {
            let plan = plan(name);
            let mut scanned = Vec::new();
            tables(&plan, &mut scanned);
            scanned.sort();
            assert_eq!(scanned, want_tables, "{name}");
            match (&plan, counts) {
                (
                    LogicalPlan::Aggregate {
                        agg: Aggregate::CountStar,
                        ..
                    },
                    true,
                )
                | (
                    LogicalPlan::Aggregate {
                        agg: Aggregate::Sum(_),
                        ..
                    },
                    false,
                ) => {}
                _ => panic!("{name}: unexpected root of {plan:?}"),
            }
        }
    }

    #[test]
    fn metadata_covers_all_join_keys() {
        let tables = Tables::generate(&TpchConfig {
            orders: 500,
            ..TpchConfig::default()
        });
        let m = build_metadata(&tables);
        for (t, c) in [
            ("lineitem", "orderkey"),
            ("lineitem", "suppkey"),
            ("orders", "orderkey"),
            ("part", "partkey"),
            ("supplier", "suppkey"),
            ("partsupp", "partkey"),
            ("partsupp", "suppkey"),
            ("nation", "nationkey"),
        ] {
            assert!(
                m.max_freq(&ColumnRef::new(t, c)).is_some(),
                "missing metadata for {t}.{c}"
            );
        }
    }

    #[test]
    fn primary_keys_have_frequency_one() {
        let tables = Tables::generate(&TpchConfig {
            orders: 500,
            ..TpchConfig::default()
        });
        let m = build_metadata(&tables);
        assert_eq!(m.max_freq(&ColumnRef::new("orders", "orderkey")), Some(1));
        assert_eq!(m.max_freq(&ColumnRef::new("supplier", "suppkey")), Some(1));
        assert_eq!(m.max_freq(&ColumnRef::new("part", "partkey")), Some(1));
    }

    #[test]
    fn skewed_foreign_keys_have_high_frequency() {
        let tables = Tables::generate(&TpchConfig {
            orders: 2_000,
            ..TpchConfig::default()
        });
        let m = build_metadata(&tables);
        let supp_mf = m
            .max_freq(&ColumnRef::new("lineitem", "suppkey"))
            .expect("recorded");
        let avg = tables.lineitem.len() as u64 / tables.supplier.len() as u64;
        assert!(
            supp_mf > 3 * avg,
            "Zipf skew should inflate the max frequency (mf {supp_mf}, avg {avg})"
        );
    }
}
