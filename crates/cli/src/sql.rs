//! DP releases for single-table SQL over CSV data.
//!
//! `upa-cli --sql "SELECT COUNT(*) FROM data WHERE age >= 18"` loads the
//! CSV into a typed relation named `data`, parses the SQL, and — when the
//! plan is a single-table `COUNT(*)`/`SUM(expr)` with an optional `WHERE`
//! — converts it into a Map/Reduce decomposition over the table's rows so
//! the release goes through the full UPA pipeline. Each CSV row is the
//! protected individual record.

use dataflow::Context;
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;
use upa_core::{QueryAudit, Upa, UpaConfig, UpaResult};
use upa_relational::expr::BoundExpr;
use upa_relational::plan::{Aggregate, LogicalPlan};
use upa_relational::value::{JoinKey, Relation, Row, Schema, Value};
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

/// Converts a single-table aggregate plan into a Map/Reduce decomposition
/// over the table's rows.
///
/// # Errors
///
/// Returns a message if the plan uses joins/projections (not a
/// single-table aggregate), references another table, or its expressions
/// fail to bind against the CSV schema.
pub fn plan_to_query(
    plan: &LogicalPlan,
    schema: &Schema,
) -> Result<MapReduceQuery<Row, f64, f64>, String> {
    let (input, agg) = match plan {
        LogicalPlan::Aggregate { input, agg } => (input.as_ref(), agg),
        _ => return Err("the SQL statement must be a COUNT(*) or SUM(...) aggregate".into()),
    };
    let (scan, predicate) = match input {
        LogicalPlan::Scan { table } => (table, None),
        LogicalPlan::Filter { input, predicate } => match input.as_ref() {
            LogicalPlan::Scan { table } => (table, Some(predicate.clone())),
            _ => return Err("only single-table queries can be released under DP".into()),
        },
        _ => return Err("only single-table queries can be released under DP".into()),
    };
    if scan != TABLE {
        return Err(format!(
            "unknown table '{scan}' (the CSV is registered as '{TABLE}')"
        ));
    }
    let bound_pred: Option<BoundExpr> = match predicate {
        Some(p) => Some(p.bind(schema).map_err(|e| e.to_string())?),
        None => None,
    };
    let value_expr: Option<BoundExpr> = match agg {
        Aggregate::CountStar => None,
        Aggregate::Sum(e) => Some(e.bind(schema).map_err(|e| e.to_string())?),
    };
    let name = match agg {
        Aggregate::CountStar => "sql_count",
        Aggregate::Sum(_) => "sql_sum",
    };
    Ok(MapReduceQuery::scalar_sum(name, move |row: &Row| {
        let keep = match &bound_pred {
            Some(p) => p.eval_bool(row).unwrap_or(false),
            None => true,
        };
        if !keep {
            return 0.0;
        }
        match &value_expr {
            Some(e) => e.eval(row).ok().and_then(|v| v.as_f64()).unwrap_or(0.0),
            None => 1.0,
        }
    })
    .with_half_key(row_key))
}

/// A DP release of a SQL statement: either a scalar aggregate or a
/// grouped histogram.
#[derive(Debug, Clone)]
pub enum SqlRelease {
    /// Scalar aggregate: the UPA result plus the exact executor value.
    Scalar(Box<UpaResult<f64>>, f64),
    /// Grouped aggregate: group labels with the vector UPA result.
    Grouped {
        /// Human-readable group labels, positionally matching the result
        /// components.
        labels: Vec<String>,
        /// The per-group UPA release.
        result: Box<UpaResult<Vec<f64>>>,
    },
}

/// Builds a per-group DP query over a single-table GROUP BY plan. The
/// group labels come from the observed distinct key values (standard for
/// categorical domains; the *counts* are protected, the category labels
/// are treated as public).
type GroupQuery = (Vec<String>, MapReduceQuery<Row, Vec<f64>, Vec<f64>>);

fn group_plan_to_query(
    key: &str,
    agg: &Aggregate,
    predicate: Option<&upa_relational::expr::Expr>,
    schema: &Schema,
    rows: &[Row],
) -> Result<GroupQuery, String> {
    let ki = schema
        .index_of(key)
        .ok_or_else(|| format!("unknown column '{key}'"))?;
    let mut keys: Vec<JoinKey> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for row in rows {
        let k = row[ki]
            .join_key()
            .ok_or_else(|| format!("column '{key}' cannot be grouped (float keys)"))?;
        if seen.insert(k.clone()) {
            keys.push(k);
        }
    }
    // Labels in first-seen key order, positionally matching the bins.
    let label_of: std::collections::HashMap<JoinKey, String> = rows
        .iter()
        .map(|r| (r[ki].join_key().expect("checked above"), r[ki].to_string()))
        .collect();
    let ordered_labels: Vec<String> = keys
        .iter()
        .map(|k| label_of.get(k).cloned().unwrap_or_default())
        .collect();
    let index_of: std::collections::HashMap<JoinKey, usize> = keys
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let bound_pred = match predicate {
        Some(p) => Some(p.bind(schema).map_err(|e| e.to_string())?),
        None => None,
    };
    let value_expr = match agg {
        Aggregate::CountStar => None,
        Aggregate::Sum(e) => Some(e.bind(schema).map_err(|e| e.to_string())?),
    };
    let bins = keys.len();
    let query = MapReduceQuery::new(
        "sql_group_by",
        move |row: &Row| {
            let mut out = vec![0.0; bins];
            let keep = match &bound_pred {
                Some(p) => p.eval_bool(row).unwrap_or(false),
                None => true,
            };
            if keep {
                if let Some(k) = row[ki].join_key() {
                    if let Some(&b) = index_of.get(&k) {
                        out[b] = match &value_expr {
                            None => 1.0,
                            Some(e) => e.eval(row).ok().and_then(|v| v.as_f64()).unwrap_or(0.0),
                        };
                    }
                }
            }
            out
        },
        |a: &Vec<f64>, b: &Vec<f64>| a.iter().zip(b).map(|(x, y)| x + y).collect(),
        move |acc: Option<&Vec<f64>>| acc.cloned().unwrap_or_else(|| vec![0.0; bins]),
    )
    .with_half_key(row_key);
    Ok((ordered_labels, query))
}

/// Full SQL flow: type the CSV, parse the statement, release under DP.
/// Also returns the audit of the pipeline run, for `--stats`.
///
/// # Errors
///
/// Returns a printable message for parse, shape or pipeline failures.
pub fn run_sql_release(
    doc: &CsvDocument,
    sql: &str,
    args: &crate::Args,
) -> Result<(SqlRelease, Option<QueryAudit>), String> {
    let plan = upa_relational::parse_sql(sql).map_err(|e| e.to_string())?;
    let schema = schema_of(doc);
    let rows = typed_rows(doc);
    let ctx = if args.threads == 0 {
        Context::default()
    } else {
        Context::with_threads(args.threads)
    };
    let config = UpaConfig {
        epsilon: args.epsilon,
        sample_size: args.sample_size,
        seed: args.seed,
        ..UpaConfig::default()
    };

    if let LogicalPlan::GroupBy { input, key, agg } = &plan {
        let (table, predicate) = match input.as_ref() {
            LogicalPlan::Scan { table } => (table, None),
            LogicalPlan::Filter { input, predicate } => match input.as_ref() {
                LogicalPlan::Scan { table } => (table, Some(predicate)),
                _ => return Err("only single-table queries can be released under DP".into()),
            },
            _ => return Err("only single-table queries can be released under DP".into()),
        };
        if table != TABLE {
            return Err(format!(
                "unknown table '{table}' (the CSV is registered as '{TABLE}')"
            ));
        }
        let (labels, query) = group_plan_to_query(key, agg, predicate, &schema, &rows)?;
        let upa = Upa::new(ctx.clone(), config);
        let dataset = ctx.parallelize_default(rows.clone());
        let domain = EmpiricalSampler::new(rows);
        let result = upa
            .run(&dataset, &query, &domain)
            .map_err(|e| e.to_string())?;
        let audit = upa.last_audit().as_deref().cloned();
        return Ok((
            SqlRelease::Grouped {
                labels,
                result: Box::new(result),
            },
            audit,
        ));
    }

    let query = plan_to_query(&plan, &schema)?;
    // Cross-check with the relational executor.
    let mut catalog = upa_relational::Catalog::new();
    catalog.register(Relation::from_rows(&ctx, schema, rows.clone(), 8));
    let exact = catalog
        .execute(&plan)
        .map_err(|e| e.to_string())?
        .as_scalar()
        .ok_or("aggregate expected")?;
    let upa = Upa::new(ctx.clone(), config);
    let dataset = ctx.parallelize_default(rows.clone());
    let domain = EmpiricalSampler::new(rows);
    let result = upa
        .run(&dataset, &query, &domain)
        .map_err(|e| e.to_string())?;
    debug_assert!((result.raw - exact).abs() <= 1e-6 * exact.abs().max(1.0));
    let audit = upa.last_audit().as_deref().cloned();
    Ok((SqlRelease::Scalar(Box::new(result), exact), audit))
}

/// Backwards-compatible scalar entry point.
///
/// # Errors
///
/// As [`run_sql_release`], plus an error for GROUP BY statements (use
/// [`run_sql_release`] for those).
pub fn run_sql(
    doc: &CsvDocument,
    sql: &str,
    args: &crate::Args,
) -> Result<(UpaResult<f64>, f64), String> {
    match run_sql_release(doc, sql, args)?.0 {
        SqlRelease::Scalar(result, exact) => Ok((*result, exact)),
        SqlRelease::Grouped { .. } => {
            Err("GROUP BY statements produce grouped output; use run_sql_release".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn args() -> crate::Args {
        crate::Args {
            input: "unused".into(),
            epsilon: 1.0,
            sample_size: 100,
            ..crate::Args::default()
        }
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
        let d = doc();
        let (result, exact) =
            run_sql(&d, "SELECT COUNT(*) FROM data WHERE age >= 18", &args()).unwrap();
        let want = (0..2_000).filter(|i| i % 90 >= 18).count() as f64;
        assert_eq!(exact, want);
        assert_eq!(result.raw, want);
        assert!((result.max_empirical_sensitivity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sql_sum_with_string_filter() {
        let d = doc();
        let (result, exact) = run_sql(
            &d,
            "SELECT SUM(income) FROM data WHERE city = 'york'",
            &args(),
        )
        .unwrap();
        let want: f64 = (0..2_000)
            .filter(|i| i % 3 == 0)
            .map(|i| ((i % 50) * 100) as f64)
            .sum();
        assert_eq!(exact, want);
        assert_eq!(result.raw, want);
    }

    #[test]
    fn unfiltered_count() {
        let d = doc();
        let (result, exact) = run_sql(&d, "SELECT COUNT(*) FROM data", &args()).unwrap();
        assert_eq!(exact, 2_000.0);
        assert_eq!(result.raw, 2_000.0);
    }

    #[test]
    fn grouped_count_release() {
        let d = doc();
        let (release, audit) =
            run_sql_release(&d, "SELECT city, COUNT(*) FROM data GROUP BY city", &args()).unwrap();
        let audit = audit.expect("grouped release has an audit");
        assert_eq!(audit.query, "sql_group_by");
        assert!(audit.stage_nanos("enforce") > 0);
        match release {
            SqlRelease::Grouped { labels, result } => {
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
        let (release, _audit) = run_sql_release(
            &d,
            "SELECT city, SUM(income) FROM data WHERE age >= 10 GROUP BY city",
            &args(),
        )
        .unwrap();
        match release {
            SqlRelease::Grouped { labels, result } => {
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

    #[test]
    fn scalar_entry_point_rejects_group_by() {
        let d = doc();
        assert!(
            run_sql(&d, "SELECT city, COUNT(*) FROM data GROUP BY city", &args())
                .unwrap_err()
                .contains("grouped output")
        );
    }

    #[test]
    fn unsupported_shapes_are_rejected_cleanly() {
        let d = doc();
        assert!(run_sql(&d, "SELECT COUNT(*) FROM other", &args())
            .unwrap_err()
            .contains("unknown table"));
        assert!(run_sql(
            &d,
            "SELECT COUNT(*) FROM data JOIN data ON data.age = data.age",
            &args()
        )
        .unwrap_err()
        .contains("single-table"));
        assert!(
            run_sql(&d, "SELECT COUNT(*) FROM data WHERE nope = 1", &args())
                .unwrap_err()
                .contains("unknown column")
        );
        assert!(run_sql(&d, "not sql at all", &args())
            .unwrap_err()
            .contains("parse error"));
    }
}
