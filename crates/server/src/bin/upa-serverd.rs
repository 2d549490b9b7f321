//! The upa-server daemon.
//!
//! ```text
//! upa-serverd --synthetic data=100000:97 --budget 1.0 --ledger spends.jsonl --port 0
//! ```
//!
//! Prints `upa-server listening on ADDR` once bound (port 0 picks an
//! ephemeral port; the printed line is how tests and scripts discover
//! it), then serves until a `shutdown` request drains it.

use std::path::PathBuf;
use std::process::ExitCode;
use upa_server::{DatasetSpec, Server, ServerConfig};

const USAGE: &str = "\
upa-serverd — UPA differentially private query server

USAGE:
    upa-serverd [OPTIONS]

OPTIONS:
    --port N              TCP port to bind on 127.0.0.1 (0 = ephemeral) [default: 7878]
    --synthetic NAME=ROWS[:MOD]
                          Serve a synthetic dataset (repeatable); one
                          column `v` holding `i % MOD` [default MOD: 97]
    --store DIR           Persistent columnar dataset store directory;
                          enables the catalog (ingest/attach/detach).
                          An empty store is valid — attach later.
    --attach NAME         Attach a store dataset at startup (repeatable;
                          requires --store)
    --allow-admin         Enable the admin wire ops (ingest, attach,
                          detach) [default: disabled]
    --budget EPS          Total privacy budget per dataset (unmetered if absent)
    --ledger PATH         Crash-safe budget ledger file (replayed on start)
    --ledger-commit-us US Group-commit window: concurrent spends arriving
                          within US microseconds share one fsync
                          (0 = every spend fsyncs alone) [default: 200]
    --cache-capacity N    Prepared-query LRU cache capacity; a cached
                          release with no deadline takes no permit
                          (0 = unbounded) [default: 256]
    --epsilon EPS         Default per-release epsilon [default: 0.1]
    --sample-size N       UPA sample size n [default: 1000]
    --seed N              RNG seed [default: 0xDA7A]
    --threads N           Engine threads (0 = auto) [default: 0]
    --max-connections N   Concurrent connection cap [default: 64]
    --max-inflight N      Permits per dataset: max cache-miss or deadline
                          requests running at once [default: 4]
    --queue-capacity N    Max requests waiting for one dataset's permits;
                          one more is refused with `busy` [default: 64]
    --slow-query-ms MS    Log requests slower than MS at `warn` with
                          their full trace (disabled if absent)
    --trace-capacity N    Finished request traces retained for the
                          `trace` op [default: 256]
    --help                Show this help
";

fn parse_args(args: &[String]) -> Result<(ServerConfig, u16), String> {
    let mut config = ServerConfig {
        // The daemon's structured event log goes to stderr.
        log_stderr: true,
        ..ServerConfig::default()
    };
    let mut port: u16 = 7878;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--port" => {
                port = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?;
            }
            "--synthetic" => {
                let spec = value(&mut i, arg)?;
                config.datasets.push(parse_synthetic(&spec)?);
            }
            "--budget" => {
                config.budget = Some(
                    value(&mut i, arg)?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                );
            }
            "--ledger" => {
                config.ledger_path = Some(PathBuf::from(value(&mut i, arg)?));
            }
            "--store" => {
                config.store_path = Some(PathBuf::from(value(&mut i, arg)?));
            }
            "--attach" => {
                config.attach.push(value(&mut i, arg)?);
            }
            "--allow-admin" => {
                config.allow_admin = true;
            }
            "--ledger-commit-us" => {
                config.ledger_commit_us = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --ledger-commit-us: {e}"))?;
            }
            "--cache-capacity" => {
                config.cache_capacity = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --cache-capacity: {e}"))?;
            }
            "--epsilon" => {
                config.epsilon = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --epsilon: {e}"))?;
            }
            "--sample-size" => {
                config.sample_size = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --sample-size: {e}"))?;
            }
            "--seed" => {
                config.seed = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                config.threads = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--max-connections" => {
                config.max_connections = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --max-connections: {e}"))?;
            }
            "--max-inflight" => {
                config.max_inflight_prepares = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight: {e}"))?;
            }
            "--queue-capacity" => {
                config.queue_capacity = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --queue-capacity: {e}"))?;
            }
            "--slow-query-ms" => {
                config.slow_query_ms = Some(
                    value(&mut i, arg)?
                        .parse()
                        .map_err(|e| format!("bad --slow-query-ms: {e}"))?,
                );
            }
            "--trace-capacity" => {
                config.trace_capacity = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --trace-capacity: {e}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if !config.attach.is_empty() && config.store_path.is_none() {
        return Err("--attach requires --store".into());
    }
    // A store-backed server may legitimately start empty and have
    // datasets attached later; only a server with no possible data
    // source is a configuration error.
    if config.datasets.is_empty() && config.store_path.is_none() {
        return Err("no data source: pass --synthetic and/or --store".into());
    }
    Ok((config, port))
}

/// Parses `NAME=ROWS[:MOD]`.
fn parse_synthetic(spec: &str) -> Result<DatasetSpec, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad --synthetic '{spec}': expected NAME=ROWS[:MOD]"))?;
    let (rows, modulus) = match rest.split_once(':') {
        Some((r, m)) => (r, m.parse().map_err(|e| format!("bad modulus: {e}"))?),
        None => (rest, 97),
    };
    let rows: usize = rows.parse().map_err(|e| format!("bad row count: {e}"))?;
    Ok(DatasetSpec::synthetic(name, rows, modulus))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, port) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config, &format!("127.0.0.1:{port}")) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Contract with tests and `upa-cli serve`: the first stdout line
    // announces the bound address (ephemeral ports are unknowable
    // otherwise).
    println!("upa-server listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
