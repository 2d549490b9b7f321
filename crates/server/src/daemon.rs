//! The daemon's one front door: `upa-serverd` and `upa-cli serve` both
//! start the server through [`main`].
//!
//! ```text
//! upa-serverd --synthetic data=100000:97 --budget 1.0 --ledger spends.jsonl --port 0
//! upa-cli serve --input people.csv --budget 1.0 --ledger spends.jsonl
//! ```
//!
//! Each flag is one row of one table: name, value placeholder, how the
//! value lands in its field, and help. The usage is generated from the
//! table, and a printed default is the field's value in
//! [`ServerConfig::default()`]. Once bound, the daemon prints
//! `upa-server listening on ADDR` as its first stdout line (port 0 picks
//! an ephemeral port), then serves until a `shutdown` request drains it.

use crate::{DatasetSpec, Server, ServerConfig};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// A parsed daemon command line.
#[derive(Debug, Clone)]
pub struct Daemon {
    /// The server configuration the flags describe.
    pub config: ServerConfig,
    /// TCP port on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// CSV files served as datasets, loaded at startup after any
    /// synthetic ones.
    pub inputs: Vec<PathBuf>,
}

impl Default for Daemon {
    fn default() -> Self {
        Daemon {
            // The daemon's structured event log goes to stderr.
            config: ServerConfig {
                log_stderr: true,
                ..ServerConfig::default()
            },
            port: 7878,
            inputs: Vec::new(),
        }
    }
}

fn parse<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// One daemon flag.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage; empty for a switch.
    value: &'static str,
    help: &'static str,
    set: fn(&mut Daemon, &str) -> Result<(), String>,
    /// The printed default: `Some` for a `value` row only.
    shown: fn(&Daemon) -> Option<String>,
}

/// The flag table. A row's kind says how its value lands in the field:
/// `value` replaces it (and prints it as the default), `some` sets an
/// optional field, `push` appends to a repeatable one, `switch` turns it
/// on and takes no value.
macro_rules! flags {
    ($($name:literal $value:literal $kind:ident $($f:ident).+: $help:literal;)*) => {
        /// Every daemon flag, in usage order.
        const FLAGS: &[Flag] = &[$(Flag {
            name: $name,
            value: $value,
            help: $help,
            set: flags!(@set $kind $($f).+),
            shown: flags!(@shown $kind $($f).+),
        }),*];
    };
    (@set value $($f:ident).+) => { |d, v| parse(v).map(|x| d.$($f).+ = x) };
    (@set some $($f:ident).+) => { |d, v| parse(v).map(|x| d.$($f).+ = Some(x)) };
    (@set push $($f:ident).+) => { |d, v| parse(v).map(|x| d.$($f).+.push(x)) };
    (@set switch $($f:ident).+) => { |d, _| Ok(d.$($f).+ = true) };
    (@shown value $($f:ident).+) => { |d| Some(d.$($f).+.to_string()) };
    (@shown $kind:ident $($f:ident).+) => { |_| None };
}

flags! {
    "--port" "N" value port: "TCP port to bind on 127.0.0.1; 0 picks an ephemeral port";
    "--synthetic" "SPEC" push config.datasets:
        "Serve NAME=ROWS[:MOD]: one column `v`, row i holding i mod MOD (MOD 97 if absent; repeatable)";
    "--input" "FILE.csv" push inputs:
        "Serve a CSV file named after its stem, every fully numeric column queryable (repeatable)";
    "--store" "DIR" some config.store_path:
        "Persistent columnar dataset store; enables the catalog. It may start empty";
    "--attach" "NAME" push config.attach:
        "Attach a store dataset at startup (repeatable; requires --store)";
    "--allow-admin" "" switch config.allow_admin:
        "Enable the admin wire ops (ingest, attach, detach)";
    "--budget" "EPS" some config.budget:
        "Total privacy budget per dataset, finite and positive (unmetered if absent)";
    "--ledger" "PATH" some config.ledger_path: "Crash-safe budget ledger, replayed on start";
    "--ledger-commit-us" "US" value config.ledger_commit_us:
        "Longest the group commit waits, before its fsync, for a spend caught mid-enqueue. \
         Spends arriving during an fsync share the next one whatever this is, 0 included";
    "--cache-capacity" "N" value config.cache_capacity:
        "Prepared-query LRU capacity; a cached release with no deadline takes no permit; \
         0 for unbounded";
    "--epsilon" "EPS" value config.epsilon: "Default per-release epsilon";
    "--sample-size" "N" value config.sample_size: "UPA sample size n";
    "--seed" "N" value config.seed: "RNG seed";
    "--threads" "N" value config.threads: "Engine threads; 0 for one per core";
    "--max-connections" "N" value config.max_connections: "Concurrent connection cap";
    "--max-inflight" "N" value config.max_inflight_prepares:
        "Permits per dataset: cache-miss or deadline requests running at once";
    "--queue-capacity" "N" value config.queue_capacity:
        "Requests waiting for one dataset's permits; one more is refused with `busy`";
    "--slow-query-ms" "MS" some config.slow_query_ms:
        "Log requests slower than MS at `warn` with their full trace (off if absent)";
}

/// Greedy word wrap of `words` into lines of at most `width` characters.
fn wrap<'a>(words: impl Iterator<Item = &'a str>, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in words {
        match lines.last_mut() {
            Some(line) if line.chars().count() + 1 + word.chars().count() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

/// The usage text, generated from the flag table.
fn usage(program: &str) -> String {
    const INDENT: usize = 28;
    let mut out = format!(
        "{program} — UPA differentially private query server\n\n\
         USAGE:\n    {program} [OPTIONS]\n\n\
         Serves --synthetic and --input datasets and/or a --store directory.\n\n\
         OPTIONS:\n"
    );
    let defaults = Daemon::default();
    let rows = FLAGS.iter().map(|f| {
        let default = (f.shown)(&defaults).map(|d| format!("[default: {d}]"));
        (format!("{} {}", f.name, f.value), f.help, default)
    });
    for (head, text, default) in rows.chain([("--help".into(), "Show this help", None)]) {
        let words = text.split_whitespace().chain(default.as_deref());
        for (i, line) in wrap(words, 76 - INDENT).iter().enumerate() {
            let head = if i == 0 { head.as_str() } else { "" };
            out.push_str(&format!("    {head:w$}{line}\n", w = INDENT - 4));
        }
    }
    out
}

impl Daemon {
    /// Parses daemon flags; `Ok(None)` when `--help` asks for the usage.
    ///
    /// # Errors
    ///
    /// A printable message for an unknown flag, a missing or malformed
    /// value, `--attach` without `--store`, or no data source at all.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Daemon>, String> {
        let mut daemon = Daemon::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let value = match flag.value {
                "" => String::new(),
                _ => args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?,
            };
            (flag.set)(&mut daemon, &value).map_err(|e| format!("bad {arg} '{value}': {e}"))?;
        }
        let config = &daemon.config;
        if !config.attach.is_empty() && config.store_path.is_none() {
            return Err("--attach requires --store".into());
        }
        // A store-backed daemon may start empty and attach datasets
        // later; only a daemon with no possible data source is an error.
        if config.datasets.is_empty() && daemon.inputs.is_empty() && config.store_path.is_none() {
            return Err("no data source: pass --synthetic, --input and/or --store".into());
        }
        Ok(Some(daemon))
    }

    /// The server configuration, with the CSV inputs loaded as datasets.
    ///
    /// # Errors
    ///
    /// A CSV input that cannot be read or has no numeric column.
    pub fn into_config(self) -> Result<ServerConfig, String> {
        let mut config = self.config;
        for path in &self.inputs {
            config.datasets.push(DatasetSpec::from_csv(path)?);
        }
        Ok(config)
    }

    /// Loads the CSV inputs, binds, announces the bound address as the
    /// first stdout line, and serves until a `shutdown` request drains
    /// the daemon.
    ///
    /// # Errors
    ///
    /// Dataset loading, startup (bind, ledger, configuration) or
    /// accept-loop failures, as printable messages.
    fn run(self) -> Result<(), String> {
        let addr = format!("127.0.0.1:{}", self.port);
        let server = Server::bind(self.into_config()?, &addr)
            .map_err(|e| format!("failed to start: {e}"))?;
        // Contract with tests and scripts: the first stdout line
        // announces the bound address (ephemeral ports are unknowable
        // otherwise).
        println!("upa-server listening on {}", server.local_addr());
        server.run().map_err(|e| e.to_string())
    }
}

/// The entry point of both binaries, `program` naming the command in the
/// usage. `--help` prints the usage on stdout and exits 0; a bad flag
/// prints the error and the usage on stderr and exits 2; a startup or
/// serving failure prints the error and exits 1.
pub fn main<I: IntoIterator<Item = String>>(program: &str, args: I) -> ExitCode {
    match Daemon::parse(args) {
        Ok(None) => {
            print!("{}", usage(program));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage(program));
            ExitCode::from(2)
        }
        Ok(Some(daemon)) => match daemon.run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(s: &str) -> Daemon {
        Daemon::parse(argv(s)).unwrap().expect("not --help")
    }

    /// Every flag parses a sample value into its own field.
    #[test]
    fn every_flag_lands_in_its_field() {
        // (flag, sample value, whether the value landed in its field)
        type Case = (&'static str, &'static str, fn(&Daemon) -> bool);
        let cases: [Case; 18] = [
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
            ("--ledger-commit-us", "500", |d| {
                d.config.ledger_commit_us == 500
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
        assert_eq!(cases.len(), FLAGS.len());
        for flag in FLAGS {
            let (_, sample, check) = cases
                .iter()
                .find(|(name, ..)| *name == flag.name)
                .unwrap_or_else(|| panic!("{} has no sample", flag.name));
            let d = parsed(&format!("--store st {} {sample}", flag.name));
            assert!(
                check(&d),
                "{} {sample} did not land in its field",
                flag.name
            );
        }
    }

    /// A printed default parses back to `ServerConfig::default()`'s own
    /// value, so a hand-written default (or one the parser rejects)
    /// cannot come back.
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
        let text = usage("upa-serverd");
        let mut printed = 0;
        for flag in FLAGS {
            let Some(shown) = (flag.shown)(&defaults) else {
                continue;
            };
            assert!(
                text.contains(&format!("[default: {shown}]")),
                "{}",
                flag.name
            );
            let d = parsed(&format!("--store st {} {shown}", flag.name));
            let want = Daemon {
                config: ServerConfig {
                    store_path: Some(PathBuf::from("st")),
                    ..defaults.config.clone()
                },
                ..defaults.clone()
            };
            assert_eq!(format!("{d:?}"), format!("{want:?}"), "{}", flag.name);
            printed += 1;
        }
        assert_eq!(printed, 10, "every numeric flag prints its default");
        for line in text.lines() {
            assert!(line.chars().count() <= 76, "usage line too wide: {line:?}");
        }
    }

    #[test]
    fn parses_serve_flags() {
        let d = parsed(
            "--input a.csv --input b.csv --port 0 --budget 2.0 --ledger l.jsonl \
             --epsilon 0.3 --sample-size 64 --seed 7 --threads 2 \
             --max-connections 8 --max-inflight 2 --queue-capacity 16 \
             --ledger-commit-us 500 --cache-capacity 32",
        );
        assert_eq!(d.inputs, [PathBuf::from("a.csv"), PathBuf::from("b.csv")]);
        assert_eq!(d.port, 0);
        assert_eq!(d.config.budget, Some(2.0));
        assert_eq!(d.config.max_inflight_prepares, 2);
        assert!(d.config.log_stderr, "the daemon logs to stderr");
        assert!(
            Daemon::parse(argv("--port 1")).is_err(),
            "some data source required"
        );
        for bad in [
            "--input a.csv --nope",
            "--input a.csv --seed 0xDA7A",
            "--input a.csv --budget",
            "--synthetic data",
            "--synthetic data=ten",
        ] {
            assert!(Daemon::parse(argv(bad)).is_err(), "{bad}");
        }
        assert!(Daemon::parse(argv("--input a.csv --help"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn parses_store_serve_flags() {
        let d = parsed("--store ./s --attach people --attach trips --allow-admin");
        assert!(d.inputs.is_empty(), "a store-only daemon is valid");
        assert_eq!(d.config.store_path, Some(PathBuf::from("./s")));
        assert_eq!(d.config.attach, vec!["people", "trips"]);
        assert!(d.config.allow_admin);
        assert!(
            Daemon::parse(argv("--attach x")).is_err(),
            "--attach requires --store"
        );
    }
}
