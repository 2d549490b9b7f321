//! Every `upa-cli` command's front door: the daemon's (`serve`, the
//! same table as `upa-serverd`'s) and the five others. Against the real
//! binary: `--help` prints the command's usage on stdout and exits 0,
//! and a bad flag prints the error and then the usage on stderr and
//! exits 2; either usage names every row of the command's flag table.
//! Against the six tables: every row lands a sample value in its field,
//! every printed default parses back to the args struct's `Default`, and
//! no usage line is wider than 76 columns.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::process::{Command as Process, Output, Stdio};
use upa_cli::remote::{MetricsArgs, QueryArgs, METRICS, QUERY};
use upa_cli::store_cmd::{DatasetsArgs, IngestArgs, DATASETS, INGEST};
use upa_cli::{Args, RELEASE};
use upa_server::daemon::{Daemon, DAEMON};
use upa_server::flags::Command;
use upa_server::{AggKind, ServerConfig};

fn cli(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_upa-cli"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run upa-cli")
}

/// Asserts that `text` names every flag of `table` with its placeholder.
fn names_every_row<T>(text: &str, table: &Command<T>) {
    for flag in table.flags {
        let head = format!("{} {}", flag.name, flag.value);
        assert!(text.contains(head.trim_end()), "{head} missing: {text}");
    }
}

/// `upa-cli <command> --help` and `upa-cli <command> --nope`.
fn front_door<T>(command: &[&str], table: &Command<T>) {
    let help = cli(&[command, &["--help"]].concat());
    assert_eq!(help.status.code(), Some(0), "{command:?} --help");
    assert!(help.stderr.is_empty(), "{command:?} --help wrote to stderr");
    names_every_row(&String::from_utf8_lossy(&help.stdout), table);

    let bad = cli(&[command, &["--nope"]].concat());
    assert_eq!(bad.status.code(), Some(2), "{command:?} --nope");
    assert!(bad.stdout.is_empty(), "{command:?} --nope wrote to stdout");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.starts_with("error: unknown flag '--nope'\n"),
        "{stderr}"
    );
    names_every_row(&stderr, table);
}

#[test]
fn release_front_door() {
    front_door(&[], &RELEASE);
}

#[test]
fn serve_front_door() {
    front_door(&["serve"], &DAEMON);
}

#[test]
fn query_front_door() {
    front_door(&["query"], &QUERY);
}

#[test]
fn metrics_front_door() {
    front_door(&["metrics"], &METRICS);
}

#[test]
fn ingest_front_door() {
    front_door(&["ingest"], &INGEST);
}

#[test]
fn datasets_front_door() {
    front_door(&["datasets"], &DATASETS);
}

/// A sample for one row: the flag, a value, and whether the value
/// landed in the row's field.
type Sample<T> = (&'static str, &'static str, fn(&T) -> bool);

/// Parses `base`, a command line that passes the table's check, plus
/// `flag value`.
fn parsed<T: Default>(table: &Command<T>, base: &str, flag: &str, value: &str) -> T {
    let line = format!("{base} {flag} {value}");
    match table.parse(line.split_whitespace().map(str::to_string)) {
        Ok(Some(parsed)) => parsed,
        other => panic!("{line}: {:?}", other.map(|_| "--help")),
    }
}

/// Asserts that `samples` holds one row per flag of `table` and that each
/// sample value, after `base`, lands in its field.
fn samples_land<T: Default>(table: &Command<T>, base: &str, samples: &[Sample<T>]) {
    assert_eq!(samples.len(), table.flags.len(), "one sample per flag");
    for flag in table.flags {
        let (_, value, landed) = samples
            .iter()
            .find(|(name, ..)| *name == flag.name)
            .unwrap_or_else(|| panic!("{} has no sample", flag.name));
        let got = parsed(table, base, flag.name, value);
        assert!(
            landed(&got),
            "{} {value} did not land in its field",
            flag.name
        );
    }
}

/// Asserts that each printed default of `table` is in `program`'s usage
/// and, after `base`, parses to what `base` alone parses to, and that no
/// usage line is wider than 76 columns. Returns how many defaults are
/// printed.
fn defaults_round_trip<T: Default + Debug>(table: &Command<T>, program: &str, base: &str) -> usize {
    let text = table.usage(program);
    let want = format!("{:?}", parsed(table, base, "", ""));
    let mut printed = 0;
    for flag in table.flags {
        let Some(shown) = (flag.shown)(&T::default()) else {
            continue;
        };
        assert!(
            text.contains(&format!("[default: {shown}]")),
            "{}",
            flag.name
        );
        let got = parsed(table, base, flag.name, &shown);
        assert_eq!(format!("{got:?}"), want, "{}", flag.name);
        printed += 1;
    }
    for line in text.lines() {
        assert!(line.chars().count() <= 76, "usage line too wide: {line:?}");
    }
    printed
}

/// Every flag of every table parses a sample value into its own field.
#[test]
fn every_flag_lands_in_its_field() {
    let daemon: [Sample<Daemon>; 17] = [
        ("--port", "0", |d| d.port == 0),
        ("--synthetic", "s=10:3", |d| {
            let s = &d.config.datasets[0];
            (s.name.as_str(), s.rows, s.columns["v"][5]) == ("s", 10, 2.0)
        }),
        ("--input", "a.csv", |d| d.inputs == [PathBuf::from("a.csv")]),
        ("--store", "st", |d| {
            d.config.store_path.as_deref() == Some(Path::new("st"))
        }),
        ("--attach", "people", |d| d.config.attach == ["people"]),
        ("--allow-admin", "", |d| d.config.allow_admin),
        ("--budget", "2.5", |d| d.config.budget == Some(2.5)),
        ("--ledger", "l.jsonl", |d| {
            d.config.ledger_path.as_deref() == Some(Path::new("l.jsonl"))
        }),
        ("--cache-capacity", "32", |d| d.config.cache_capacity == 32),
        ("--epsilon", "0.3", |d| d.config.epsilon == 0.3),
        ("--sample-size", "64", |d| d.config.sample_size == 64),
        ("--seed", "7", |d| d.config.seed == 7),
        ("--threads", "2", |d| d.config.threads == 2),
        ("--max-connections", "8", |d| d.config.max_connections == 8),
        ("--max-inflight", "3", |d| {
            d.config.max_inflight_prepares == 3
        }),
        ("--queue-capacity", "16", |d| d.config.queue_capacity == 16),
        ("--slow-query-ms", "50", |d| {
            d.config.slow_query_ms == Some(50)
        }),
    ];
    samples_land(&DAEMON, "--store st", &daemon);

    let release: [Sample<Args>; 9] = [
        ("--input", "f.csv", |a| a.input == "f.csv"),
        ("--column", "age", |a| a.column == "age"),
        ("--query", "mean", |a| a.query == AggKind::Mean),
        ("--epsilon", "0.5", |a| a.epsilon == 0.5),
        ("--sample-size", "64", |a| a.sample_size == 64),
        ("--seed", "9", |a| a.seed == 9),
        ("--threads", "2", |a| a.threads == 2),
        ("--sql", "SELECT", |a| a.sql.as_deref() == Some("SELECT")),
        ("--stats", "", |a| a.stats),
    ];
    samples_land(&RELEASE, "--input in.csv --column x", &release);

    let query: [Sample<QueryArgs>; 11] = [
        ("--addr", "h:2", |a| a.addr == "h:2"),
        ("--dataset", "people", |a| a.dataset == "people"),
        ("--query", "sum", |a| a.query == "sum"),
        ("--column", "age", |a| a.column == "age"),
        ("--epsilon", "0.5", |a| a.epsilon == Some(0.5)),
        ("--stats", "", |a| a.stats),
        ("--remaining", "", |a| a.remaining),
        ("--deadline-ms", "250", |a| a.deadline_ms == Some(250)),
        ("--connect-timeout-ms", "1000", |a| {
            a.connect_timeout_ms == Some(1000)
        }),
        ("--timeout-ms", "5000", |a| a.timeout_ms == Some(5000)),
        ("--retry-busy", "3", |a| a.retry_busy == 3),
    ];
    samples_land(&QUERY, "--addr h:1", &query);

    let metrics: [Sample<MetricsArgs>; 5] = [
        ("--addr", "h:2", |a| a.addr == "h:2"),
        ("--watch", "", |a| a.watch),
        ("--interval-ms", "50", |a| a.interval_ms == 50),
        ("--count", "4", |a| a.count == 4),
        ("--json", "", |a| a.json),
    ];
    samples_land(&METRICS, "--addr h:1", &metrics);

    let ingest: [Sample<IngestArgs>; 5] = [
        ("--input", "f.csv", |a| a.input == "f.csv"),
        ("--store", "t", |a| a.store == Path::new("t")),
        ("--name", "folks", |a| a.name.as_deref() == Some("folks")),
        ("--chunk-rows", "1024", |a| a.chunk_rows == 1024),
        ("--overwrite", "", |a| a.overwrite),
    ];
    samples_land(&INGEST, "in.csv --store s", &ingest);

    // One source alone passes the check, so these samples need no base.
    let datasets: [Sample<DatasetsArgs>; 2] = [
        ("--store", "s", |a| a.store == Some(PathBuf::from("s"))),
        ("--addr", "h:1", |a| a.addr.as_deref() == Some("h:1")),
    ];
    samples_land(&DATASETS, "", &datasets);
}

/// A printed default parses back to the args struct's own `Default` (the
/// daemon's is `ServerConfig::default()`'s), so a hand-written default,
/// or one the parser rejects, cannot come back.
#[test]
fn every_printed_default_is_the_config_default() {
    let defaults = Daemon::default();
    assert_eq!(
        format!("{:?}", defaults.config),
        format!(
            "{:?}",
            ServerConfig {
                log_stderr: true,
                ..ServerConfig::default()
            }
        )
    );
    let printed = defaults_round_trip(&DAEMON, "upa-cli serve", "--store st");
    assert_eq!(printed, 9, "every numeric flag prints its default");

    let release = defaults_round_trip(&RELEASE, "upa-cli", "--input in.csv --column x");
    let query = defaults_round_trip(&QUERY, "upa-cli query", "--addr h:1");
    let metrics = defaults_round_trip(&METRICS, "upa-cli metrics", "--addr h:1");
    let ingest = defaults_round_trip(&INGEST, "upa-cli ingest", "in.csv --store s");
    let datasets = defaults_round_trip(&DATASETS, "upa-cli datasets", "--store s");
    assert_eq!([release, query, metrics, ingest, datasets], [5, 3, 2, 1, 0]);
}
