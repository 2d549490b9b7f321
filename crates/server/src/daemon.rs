//! The daemon's one front door: `upa-serverd` and `upa-cli serve` both
//! start the server through [`main`].
//!
//! ```text
//! upa-serverd --synthetic data=100000:97 --budget 1.0 --ledger spends.jsonl --port 0
//! upa-cli serve --input people.csv --budget 1.0 --ledger spends.jsonl
//! ```
//!
//! Each flag is one row of [`DAEMON`], a [`mod@crate::flags`] table: the
//! usage is generated from it, and a printed default is the field's
//! value in [`ServerConfig::default()`]. Once bound, the daemon prints
//! `upa-server listening on ADDR` as its first stdout line (port 0 picks
//! an ephemeral port), then serves until a `shutdown` request drains it.

use crate::flags::Command;
use crate::{DatasetSpec, Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

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

/// The daemon's command line.
pub const DAEMON: Command<Daemon> = Command {
    about: "UPA differentially private query server",
    synopsis: &["[OPTIONS]"],
    detail: "Serves --synthetic and --input datasets and/or a --store directory.",
    flags: crate::flags![
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
    ],
    positional: |_, _| false,
    check: |daemon| {
        let config = &daemon.config;
        if !config.attach.is_empty() && config.store_path.is_none() {
            return Err("--attach requires --store".into());
        }
        // A store-backed daemon may start empty and attach datasets
        // later; only a daemon with no possible data source is an error.
        if config.datasets.is_empty() && daemon.inputs.is_empty() && config.store_path.is_none() {
            return Err("no data source: pass --synthetic, --input and/or --store".into());
        }
        Ok(())
    },
};

impl Daemon {
    /// Parses daemon flags; `Ok(None)` when `--help` asks for the usage.
    ///
    /// # Errors
    ///
    /// A printable message for an unknown flag, a missing or malformed
    /// value, `--attach` without `--store`, or no data source at all.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Daemon>, String> {
        DAEMON.parse(args)
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
/// usage; exits as [`Command::main`] does.
pub fn main<I: IntoIterator<Item = String>>(program: &str, args: I) -> ExitCode {
    DAEMON.main(program, args, Daemon::run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(s: &str) -> Daemon {
        Daemon::parse(argv(s)).unwrap().expect("not --help")
    }

    #[test]
    fn parses_serve_flags() {
        let d = parsed(
            "--input a.csv --input b.csv --port 0 --budget 2.0 --ledger l.jsonl \
             --epsilon 0.3 --sample-size 64 --seed 7 --threads 2 \
             --max-connections 8 --max-inflight 2 --queue-capacity 16 \
             --cache-capacity 32",
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
