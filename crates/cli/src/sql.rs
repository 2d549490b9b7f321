//! DP releases for single-table SQL over CSV data.
//!
//! `upa-cli --sql "SELECT COUNT(*) FROM data WHERE age >= 18"` types the
//! CSV's rows as the table `data`, parses the SQL, and — when the plan
//! is a single-table `COUNT(*)`/`SUM(expr)` with an optional `WHERE` and
//! `GROUP BY` — converts it into a Map/Reduce decomposition over the
//! rows, so the release goes through the full UPA pipeline. Each CSV row
//! is the protected individual record. The relational executor is the
//! tests' reference for a release's exact value; a release never runs it.

use crate::{Args, Output, Release};
use std::collections::hash_map::{Entry, HashMap};
use upa_core::query::MapReduceQuery;
use upa_relational::expr::Expr;
use upa_relational::plan::{Aggregate, LogicalPlan};
use upa_relational::value::{JoinKey, Row, Schema, Value};
use upa_store::csv::CsvDocument;

/// Table name CSV data is registered under.
pub const TABLE: &str = "data";

/// Infers per-column types: a column where every non-empty cell parses as
/// `i64` becomes `Int` (groupable/joinable), one where every cell parses
/// as `f64` becomes `Float`, and everything else is `Str`.
pub fn typed_rows(doc: &CsvDocument) -> Vec<Row> {
    let cols = doc.header.len();
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Int,
        Float,
        Str,
    }
    let kinds: Vec<Kind> = (0..cols)
        .map(|c| {
            let mut kind = Kind::Int;
            for r in &doc.rows {
                let cell = r[c].trim();
                if cell.is_empty() {
                    continue;
                }
                if kind == Kind::Int && cell.parse::<i64>().is_err() {
                    kind = Kind::Float;
                }
                if kind == Kind::Float && cell.parse::<f64>().is_err() {
                    kind = Kind::Str;
                    break;
                }
            }
            kind
        })
        .collect();
    doc.rows
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(c, cell)| match kinds[c] {
                    Kind::Int => Value::Int(cell.trim().parse().unwrap_or(0)),
                    Kind::Float => Value::Float(cell.trim().parse().unwrap_or(0.0)),
                    Kind::Str => Value::str(cell),
                })
                .collect()
        })
        .collect()
}

/// Builds the schema for a CSV header, qualified under [`TABLE`].
pub fn schema_of(doc: &CsvDocument) -> Schema {
    let cols: Vec<&str> = doc.header.iter().map(|s| s.as_str()).collect();
    Schema::new(TABLE, &cols)
}

/// A stable content hash of a row, used as UPA's half key.
fn row_key(row: &Row) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for v in row {
        match v {
            Value::Int(i) => mix(*i as u64),
            Value::Float(f) => mix(f.to_bits()),
            Value::Bool(b) => mix(*b as u64),
            Value::Str(s) => {
                for b in s.as_bytes() {
                    mix(*b as u64);
                }
            }
        }
    }
    h
}

/// The `WHERE` predicate of a plan that scans [`TABLE`] alone, if it has
/// one.
///
/// # Errors
///
/// A plan over another table, or with joins or projections.
fn single_table(plan: &LogicalPlan) -> Result<Option<&Expr>, String> {
    let (scan, predicate) = match plan {
        LogicalPlan::Filter { input, predicate } => (input.as_ref(), Some(predicate)),
        scan => (scan, None),
    };
    let LogicalPlan::Scan { table } = scan else {
        return Err("only single-table queries can be released under DP".into());
    };
    if table != TABLE {
        return Err(format!(
            "unknown table '{table}' (the CSV is registered as '{TABLE}')"
        ));
    }
    Ok(predicate)
}

/// One row's contribution to a single-table aggregate, with the `WHERE`
/// predicate and the `SUM` argument bound to the CSV schema: `None` for
/// a row the predicate drops, else 1 for a count or the `SUM` argument
/// (0 where it is not a number).
fn row_value(
    predicate: Option<&Expr>,
    agg: &Aggregate,
    schema: &Schema,
) -> Result<impl Fn(&Row) -> Option<f64> + Send + Sync + 'static, String> {
    let bind = |e: &Expr| e.bind(schema).map_err(|e| e.to_string());
    let predicate = predicate.map(bind).transpose()?;
    let value = match agg {
        Aggregate::CountStar => None,
        Aggregate::Sum(e) => Some(bind(e)?),
    };
    Ok(move |row: &Row| {
        if let Some(p) = &predicate {
            if !p.eval_bool(row).unwrap_or(false) {
                return None;
            }
        }
        Some(match &value {
            Some(e) => e.eval(row).ok().and_then(|v| v.as_f64()).unwrap_or(0.0),
            None => 1.0,
        })
    })
}

/// Converts a single-table aggregate plan into a Map/Reduce decomposition
/// over the table's rows.
///
/// # Errors
///
/// Returns a message if the plan is not an aggregate, is not over
/// [`TABLE`] alone, or its expressions fail to bind against the CSV
/// schema.
pub fn plan_to_query(
    plan: &LogicalPlan,
    schema: &Schema,
) -> Result<MapReduceQuery<Row, f64, f64>, String> {
    let LogicalPlan::Aggregate { input, agg } = plan else {
        return Err("the SQL statement must be a COUNT(*) or SUM(...) aggregate".into());
    };
    let row_value = row_value(single_table(input)?, agg, schema)?;
    let name = match agg {
        Aggregate::CountStar => "sql_count",
        Aggregate::Sum(_) => "sql_sum",
    };
    Ok(MapReduceQuery::scalar_sum(
        name,
        row_key,
        move |row: &Row| row_value(row).unwrap_or(0.0),
    ))
}

/// Builds a per-group DP query over a single-table GROUP BY plan. The
/// group labels come from the observed distinct key values (standard for
/// categorical domains; the *counts* are protected, the category labels
/// are treated as public).
type GroupQuery = (Vec<String>, MapReduceQuery<Row, Vec<f64>, Vec<f64>>);

fn group_plan_to_query(
    key: &str,
    agg: &Aggregate,
    predicate: Option<&Expr>,
    schema: &Schema,
    rows: &[Row],
) -> Result<GroupQuery, String> {
    let ki = schema
        .index_of(key)
        .ok_or_else(|| format!("unknown column '{key}'"))?;
    // Bins and labels in first-seen key order.
    let mut labels = Vec::new();
    let mut index_of: HashMap<JoinKey, usize> = HashMap::new();
    for row in rows {
        let k = row[ki]
            .join_key()
            .ok_or_else(|| format!("column '{key}' cannot be grouped (float keys)"))?;
        if let Entry::Vacant(slot) = index_of.entry(k) {
            slot.insert(labels.len());
            labels.push(row[ki].to_string());
        }
    }
    let row_value = row_value(predicate, agg, schema)?;
    // An empty table has no groups; its release fails on the empty input.
    let bins = labels.len().max(1);
    let query = MapReduceQuery::histogram("sql_group_by", row_key, bins, move |row: &Row| {
        let v = row_value(row)?;
        let b = *row[ki].join_key().and_then(|k| index_of.get(&k))?;
        Some((b, v))
    });
    Ok((labels, query))
}

/// Full SQL flow: type the CSV, parse the statement, release under DP.
/// The release carries the audit of the pipeline run, for `--stats`.
///
/// # Errors
///
/// Returns a printable message for parse, shape or pipeline failures.
pub fn run_sql_release(doc: &CsvDocument, sql: &str, args: &Args) -> Result<Release, String> {
    let plan = upa_relational::parse_sql(sql).map_err(|e| e.to_string())?;
    let schema = schema_of(doc);
    let rows = typed_rows(doc);
    if let LogicalPlan::GroupBy { input, key, agg } = &plan {
        let predicate = single_table(input)?;
        let (labels, query) = group_plan_to_query(key, agg, predicate, &schema, &rows)?;
        let (result, audit) = crate::release(args, rows, &query)?;
        let output = Output::Grouped { labels, result };
        return Ok(Release { output, audit });
    }
    let query = plan_to_query(&plan, &schema)?;
    let (result, audit) = crate::release(args, rows, &query)?;
    let output = Output::Scalar(result);
    Ok(Release { output, audit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::Context;
    use upa_core::UpaResult;
    use upa_relational::value::Relation;
    use upa_store::csv;

    fn doc() -> CsvDocument {
        let mut text = String::from("age,city,income\n");
        for i in 0..2_000 {
            text.push_str(&format!(
                "{},{},{}\n",
                i % 90,
                if i % 3 == 0 { "york" } else { "leeds" },
                (i % 50) * 100
            ));
        }
        csv::parse(&text).unwrap()
    }

    fn args() -> Args {
        Args {
            input: "unused".into(),
            epsilon: 1.0,
            sample_size: 100,
            ..Args::default()
        }
    }

    /// The scalar release of `sql` over [`doc`], and the relational
    /// executor's answer over the same rows: the reference that the
    /// release's exact value must equal.
    fn release_and_exact(sql: &str) -> (UpaResult<f64>, f64) {
        let d = doc();
        let Output::Scalar(result) = run_sql_release(&d, sql, &args()).unwrap().output else {
            panic!("{sql} is a scalar release");
        };
        let mut catalog = upa_relational::Catalog::new();
        let rows = typed_rows(&d);
        catalog.register(Relation::from_rows(
            &Context::default(),
            schema_of(&d),
            rows,
            8,
        ));
        let plan = upa_relational::parse_sql(sql).unwrap();
        let exact = catalog.execute(&plan).unwrap().as_scalar().unwrap();
        (result, exact)
    }

    #[test]
    fn typing_detects_int_float_and_string_columns() {
        let d = doc();
        let rows = typed_rows(&d);
        assert!(matches!(rows[0][0], Value::Int(_)), "age is integral");
        assert!(matches!(rows[0][1], Value::Str(_)));
        assert!(matches!(rows[0][2], Value::Int(_)));
        let mixed = csv::parse("a\n1\n2.5\n").unwrap();
        assert!(matches!(typed_rows(&mixed)[0][0], Value::Float(_)));
    }

    #[test]
    fn sql_count_with_predicate() {
        let (result, exact) = release_and_exact("SELECT COUNT(*) FROM data WHERE age >= 18");
        let want = (0..2_000).filter(|i| i % 90 >= 18).count() as f64;
        assert_eq!(exact, want);
        assert_eq!(result.raw, want);
        assert!((result.max_empirical_sensitivity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sql_sum_with_string_filter() {
        let (result, exact) = release_and_exact("SELECT SUM(income) FROM data WHERE city = 'york'");
        let want: f64 = (0..2_000)
            .filter(|i| i % 3 == 0)
            .map(|i| ((i % 50) * 100) as f64)
            .sum();
        assert_eq!(exact, want);
        assert_eq!(result.raw, want);
    }

    #[test]
    fn unfiltered_count() {
        let (result, exact) = release_and_exact("SELECT COUNT(*) FROM data");
        assert_eq!(exact, 2_000.0);
        assert_eq!(result.raw, 2_000.0);
    }

    #[test]
    fn grouped_count_release() {
        let d = doc();
        let release =
            run_sql_release(&d, "SELECT city, COUNT(*) FROM data GROUP BY city", &args()).unwrap();
        let audit = release.audit.expect("grouped release has an audit");
        assert_eq!(audit.query, "sql_group_by");
        assert!(audit.stage_nanos("enforce") > 0);
        match release.output {
            Output::Grouped { labels, result } => {
                assert_eq!(labels.len(), 2);
                let york = labels.iter().position(|l| l == "york").expect("york group");
                let leeds = labels
                    .iter()
                    .position(|l| l == "leeds")
                    .expect("leeds group");
                let want_york = (0..2_000).filter(|i| i % 3 == 0).count() as f64;
                assert_eq!(result.raw[york], want_york);
                assert_eq!(result.raw[leeds], 2_000.0 - want_york);
                // Per-group influence of one record is 1.
                for s in &result.empirical_sensitivity {
                    assert!((s - 1.0).abs() < 1e-9);
                }
            }
            other => panic!("expected grouped release, got {other:?}"),
        }
    }

    #[test]
    fn grouped_sum_with_filter() {
        let d = doc();
        let release = run_sql_release(
            &d,
            "SELECT city, SUM(income) FROM data WHERE age >= 10 GROUP BY city",
            &args(),
        )
        .unwrap();
        match release.output {
            Output::Grouped { labels, result } => {
                let want: f64 = (0..2_000)
                    .filter(|i| i % 90 >= 10)
                    .map(|i| ((i % 50) * 100) as f64)
                    .sum();
                assert!((result.raw.iter().sum::<f64>() - want).abs() < 1e-6);
                assert_eq!(labels.len(), result.raw.len());
            }
            other => panic!("expected grouped release, got {other:?}"),
        }
    }

    /// The scalar plan conversion refuses a GROUP BY plan; the release
    /// sends those to the grouped one.
    #[test]
    fn scalar_entry_point_rejects_group_by() {
        let plan = upa_relational::parse_sql("SELECT city, COUNT(*) FROM data GROUP BY city");
        let Err(e) = plan_to_query(&plan.unwrap(), &schema_of(&doc())) else {
            panic!("a GROUP BY plan is not a scalar aggregate");
        };
        assert!(e.contains("COUNT(*) or SUM(...)"), "{e}");
    }

    #[test]
    fn unsupported_shapes_are_rejected_cleanly() {
        let d = doc();
        assert!(run_sql_release(&d, "SELECT COUNT(*) FROM other", &args())
            .unwrap_err()
            .contains("unknown table"));
        assert!(run_sql_release(
            &d,
            "SELECT COUNT(*) FROM data JOIN data ON data.age = data.age",
            &args()
        )
        .unwrap_err()
        .contains("single-table"));
        assert!(
            run_sql_release(&d, "SELECT COUNT(*) FROM data WHERE nope = 1", &args())
                .unwrap_err()
                .contains("unknown column")
        );
        assert!(run_sql_release(&d, "not sql at all", &args())
            .unwrap_err()
            .contains("parse error"));
    }
}
