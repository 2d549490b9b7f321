//! `upa-cli` — differentially private aggregates over CSV files, and
//! the client of the `upa-server` daemon.
//!
//! ```text
//! upa-cli --input people.csv --column age --query mean --epsilon 0.5
//! ```
//!
//! The local release ([`run_release`]) loads one numeric column of a
//! headered CSV, or types the whole file for `--sql` ([`sql`]), runs the
//! aggregate through the full UPA pipeline (sampling, union-preserving
//! reduce, RANGE ENFORCER, Laplace release) and prints the noisy value
//! with its diagnostics. [`remote`] and [`store_cmd`] hold the other
//! commands; each command's flags are one [`mod@upa_server::flags`] table.

pub mod remote;
pub mod sql;
pub mod store_cmd;

use dataflow::{Context, Data};
use std::sync::Arc;
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;
use upa_core::{DpOutput, QueryAudit, Upa, UpaConfig, UpaResult};
use upa_server::flags::Command;
use upa_server::state::{agg_totals, build_agg_query};
use upa_server::AggKind;
use upa_store::csv;

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// CSV path.
    pub input: String,
    /// Column to aggregate.
    pub column: String,
    /// Aggregate kind.
    pub query: AggKind,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// UPA sample size `n`.
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Engine threads (0 = auto).
    pub threads: usize,
    /// Single-table SQL statement to release instead of
    /// `--column`/`--query` (e.g. `SELECT COUNT(*) FROM data WHERE age >= 18`).
    pub sql: Option<String>,
    /// Print the per-query audit (stage timings, enforcer decisions,
    /// engine counters) after the release, `EXPLAIN ANALYZE`-style.
    pub stats: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            input: String::new(),
            column: String::new(),
            query: AggKind::Count,
            epsilon: 0.1,
            sample_size: 1000,
            seed: 0xC11,
            threads: 0,
            sql: None,
            stats: false,
        }
    }
}

/// The local release's command line, `upa-cli [OPTIONS]`.
pub const RELEASE: Command<Args> = Command {
    about: "differentially private aggregates over CSV files",
    synopsis: &[
        "--input FILE.csv --column NAME --query count|sum|mean [OPTIONS]",
        "--input FILE.csv --sql STATEMENT [OPTIONS]",
        "serve|query|metrics|ingest|datasets --help",
    ],
    detail: "Releases a differentially private aggregate of a CSV file, either one \
             numeric column or a single-table SQL COUNT/SUM (the CSV is the table \
             `data`), with sensitivity inferred automatically by UPA (DSN 2020).",
    flags: upa_server::flags![
        "--input" "FILE.csv" set input: "CSV file with a header line (required)";
        "--column" "NAME" set column: "Numeric column to aggregate; required for sum and mean";
        "--query" "KIND" value query: "Aggregate: count, sum or mean";
        "--epsilon" "E" value epsilon: "Privacy budget of the release";
        "--sample-size" "N" value sample_size: "UPA sample size n";
        "--seed" "S" value seed: "RNG seed";
        "--threads" "T" value threads: "Engine threads; 0 for one per core";
        "--sql" "STATEMENT" some sql:
            "Release `SELECT COUNT(*) | SUM(expr) FROM data [WHERE ...] [GROUP BY col]` \
             instead of --column/--query";
        "--stats" "" switch stats:
            "Also print the query audit: per-stage wall-clock of Algorithm 1, \
             RANGE ENFORCER decisions and engine shuffle counters";
    ],
    positional: |_, _| false,
    check: |args| {
        if args.input.is_empty() {
            return Err("--input is required".into());
        }
        if args.sql.is_none() && args.column.is_empty() && args.query != AggKind::Count {
            return Err("--column is required for sum/mean".into());
        }
        Ok(())
    },
};

impl Args {
    /// Parses flags from an iterator of arguments (without the program
    /// name) as [`RELEASE`] does; `--help` is an error carrying the usage.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        RELEASE.parse(argv)?.ok_or_else(|| RELEASE.usage("upa-cli"))
    }
}

/// Runs `query` over `records` on the engine that `args` configure,
/// returning the release together with its [`QueryAudit`].
fn release<T: Data, Acc: Data, Out: DpOutput>(
    args: &Args,
    records: Vec<T>,
    query: &MapReduceQuery<T, Acc, Out>,
) -> Result<(UpaResult<Out>, Option<QueryAudit>), String> {
    let ctx = if args.threads == 0 {
        Context::default()
    } else {
        Context::with_threads(args.threads)
    };
    let upa = Upa::new(
        ctx.clone(),
        UpaConfig {
            epsilon: args.epsilon,
            sample_size: args.sample_size,
            seed: args.seed,
            ..UpaConfig::default()
        },
    );
    let dataset = ctx.parallelize_default(records.clone());
    let domain = EmpiricalSampler::new(records);
    let result = upa
        .run(&dataset, query, &domain)
        .map_err(|e| e.to_string())?;
    Ok((result, upa.last_audit().as_deref().cloned()))
}

/// Runs the aggregate over already-extracted values.
///
/// # Errors
///
/// Propagates pipeline errors as strings (empty input etc.).
pub fn run_values(values: Vec<f64>, args: &Args) -> Result<UpaResult<f64>, String> {
    Ok(release_agg(args, values)?.0)
}

/// Releases the `--query` aggregate over `values`, handing it their
/// exact half totals, summed once here.
fn release_agg(
    args: &Args,
    values: Vec<f64>,
) -> Result<(UpaResult<f64>, Option<QueryAudit>), String> {
    let totals = Arc::new(agg_totals(&values));
    let query = build_agg_query(args.query).with_half_totals(totals);
    release(args, values, &query)
}

/// The local release: read the file, then release the `--sql`
/// statement or the column's aggregate. The returned [`Release`]
/// carries the audit of the pipeline run, printed by the binary when
/// `--stats` is set.
///
/// # Errors
///
/// Returns a printable message for I/O, CSV, SQL or pipeline failures.
pub fn run_release(args: &Args) -> Result<Release, String> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let doc = csv::parse(&text).map_err(|e| e.to_string())?;
    if let Some(statement) = &args.sql {
        return sql::run_sql_release(&doc, statement, args);
    }
    let values = if args.query == AggKind::Count && args.column.is_empty() {
        vec![0.0; doc.rows.len()]
    } else {
        doc.numeric_column(&args.column)
            .map_err(|e| e.to_string())?
    };
    let (result, audit) = release_agg(args, values)?;
    Ok(Release {
        output: Output::Scalar(result),
        audit,
    })
}

/// A rendered-ready release: scalar or grouped.
#[derive(Debug, Clone)]
pub enum Output {
    /// One noisy value.
    Scalar(UpaResult<f64>),
    /// One noisy value per group.
    Grouped {
        /// Group labels, positionally matching the result components.
        labels: Vec<String>,
        /// The per-group release.
        result: UpaResult<Vec<f64>>,
    },
}

/// The full CLI release: the printable output plus the pipeline audit.
#[derive(Debug, Clone)]
pub struct Release {
    /// The value(s) to print.
    pub output: Output,
    /// The audit of the pipeline run that produced them.
    pub audit: Option<QueryAudit>,
}

/// Formats any release for the terminal.
pub fn render_output(output: &Output, args: &Args) -> String {
    match output {
        Output::Scalar(result) => render(result, args),
        Output::Grouped { labels, result } => {
            let mut out = format!("released per group (ε={}):\n", args.epsilon);
            for (i, label) in labels.iter().enumerate() {
                out.push_str(&format!(
                    "  {label:<20} {:>14.3}   (exact {:.0}, noise scale {:.3})\n",
                    result.released[i],
                    result.raw[i],
                    result.sensitivity[i] / args.epsilon,
                ));
            }
            out.push_str(&format!("  sampled records    : {}", result.sample_size));
            out
        }
    }
}

/// Formats a result for the terminal.
pub fn render(result: &UpaResult<f64>, args: &Args) -> String {
    format!(
        "released (ε={}): {:.6}\n  exact value        : {:.6}\n  inferred sensitivity: {:.6}\n  enforced range     : [{:.6}, {:.6}]\n  noise scale        : {:.6}\n  sampled records    : {}",
        args.epsilon,
        result.released,
        result.raw,
        result.max_sensitivity(),
        result.range.bounds[0].0,
        result.range.bounds[0].1,
        result.max_sensitivity() / args.epsilon,
        result.sample_size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = Args::parse(argv(
            "--input f.csv --column age --query mean --epsilon 0.5 --sample-size 64 --seed 9 --threads 2",
        ))
        .unwrap();
        assert_eq!(a.input, "f.csv");
        assert_eq!(a.column, "age");
        assert_eq!(a.query, AggKind::Mean);
        assert_eq!(a.epsilon, 0.5);
        assert_eq!(a.sample_size, 64);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 2);
        assert!(!a.stats);
        let b = Args::parse(argv("--input f.csv --stats")).unwrap();
        assert!(b.stats);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(Args::parse(argv("--nope")).is_err());
        assert!(Args::parse(argv("--input")).is_err());
        assert!(Args::parse(argv("--input f.csv --query fancy")).is_err());
        assert!(Args::parse(argv("--query sum")).is_err(), "input required");
        assert!(
            Args::parse(argv("--input f.csv --query sum")).is_err(),
            "column required for sum"
        );
    }

    #[test]
    fn count_sum_mean_agree_with_direct_computation() {
        let values: Vec<f64> = (0..3_000).map(|i| (i % 50) as f64).collect();
        let base = Args {
            input: "unused".into(),
            column: "x".into(),
            sample_size: 64,
            epsilon: 1.0,
            ..Args::default()
        };
        for (kind, want) in [
            (AggKind::Count, 3_000.0),
            (AggKind::Sum, values.iter().sum::<f64>()),
            (AggKind::Mean, values.iter().sum::<f64>() / 3_000.0),
        ] {
            let args = Args {
                query: kind,
                ..base.clone()
            };
            let r = run_values(values.clone(), &args).unwrap();
            assert!(
                (r.raw - want).abs() < 1e-6 * want.abs().max(1.0),
                "{kind:?}: raw {} vs want {want}",
                r.raw
            );
        }
    }

    #[test]
    fn end_to_end_over_a_csv_file() {
        let dir = std::env::temp_dir().join("upa_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ages.csv");
        let mut text = String::from("age,name\n");
        for i in 0..2_000 {
            text.push_str(&format!("{},person{}\n", i % 90, i));
        }
        std::fs::write(&path, text).unwrap();
        let args = Args {
            input: path.to_string_lossy().into_owned(),
            column: "age".into(),
            query: AggKind::Mean,
            epsilon: 1.0,
            sample_size: 100,
            ..Args::default()
        };
        let release = run_release(&args).unwrap();
        let Output::Scalar(r) = &release.output else {
            panic!("a column release is scalar");
        };
        let true_mean = (0..2_000).map(|i| (i % 90) as f64).sum::<f64>() / 2_000.0;
        assert!((r.raw - true_mean).abs() < 1e-9);
        let text = render(r, &args);
        assert!(text.contains("released"));
        assert!(text.contains("sensitivity"));
        // The release carries the audit for --stats.
        let audit = release.audit.expect("release has an audit");
        assert_eq!(audit.query, "mean");
        assert!(audit.stage_nanos("sample") > 0);
        assert!(audit.render().contains("stages:"));
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let args = Args {
            input: "/definitely/not/here.csv".into(),
            column: "x".into(),
            ..Args::default()
        };
        assert!(run_release(&args).unwrap_err().contains("cannot read"));
    }
}
