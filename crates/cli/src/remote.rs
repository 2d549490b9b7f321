//! The `serve` and `query` subcommands: run an `upa-server` daemon over
//! CSV files, and query a running daemon.
//!
//! ```text
//! upa-cli serve --input people.csv --budget 1.0 --ledger spends.jsonl
//! upa-cli query --addr 127.0.0.1:7878 --dataset people --query mean --column age --stats
//! ```
//!
//! Remote `--stats` output is produced by reconstructing the server's
//! audit JSON into a [`upa_core::QueryAudit`] and rendering it with the
//! same [`upa_core::QueryAudit::render`] as local runs — the formatting
//! lives in exactly one place.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use upa_server::wire::Body;
use upa_server::{Client, DatasetSpec, Server, ServerConfig};
use upa_store::csv;

/// Usage text for `upa-cli serve`.
pub const SERVE_USAGE: &str = "\
usage: upa-cli serve [--input FILE.csv ...] [--store DIR]
                     [--attach NAME ...] [--allow-admin]
                     [--port P] [--budget E] [--ledger PATH]
                     [--epsilon E] [--sample-size N] [--seed S]
                     [--threads T] [--max-connections N] [--max-inflight N]
                     [--queue-capacity N] [--slow-query-ms MS]
                     [--ledger-commit-us US] [--cache-capacity N]

Serves differentially private aggregates over the given CSV files
and/or a persistent columnar store. Each --input file becomes a dataset
named after its stem (people.csv -> people), with every fully numeric
column queryable. --store DIR opens a columnar dataset store (see
`upa-cli ingest`): --attach serves a stored dataset from startup, and
--allow-admin enables the ingest/attach/detach wire ops so datasets can
be managed while the daemon runs. A --store daemon may start with no
datasets at all. --budget meters each dataset;
--ledger makes spends crash-safe (replayed on restart), and
--ledger-commit-us sizes the group-commit window within which concurrent
spends share one fsync (0 = every spend fsyncs alone). Port 0 picks an
ephemeral port; the bound address is announced on the first stdout line.
--max-inflight sets how many cache-miss or deadline requests may run at
once on each dataset; --queue-capacity bounds how many wait for that
(one more is refused with `busy`); --cache-capacity bounds the
prepared-query LRU cache, whose hits without a deadline are served at
once (0 = unbounded). --slow-query-ms logs any request slower
than MS at `warn` with its full trace (see `upa-cli metrics` and the
server's `trace` op).";

/// Usage text for `upa-cli query`.
pub const QUERY_USAGE: &str = "\
usage: upa-cli query --addr HOST:PORT --query count|sum|mean
                     [--dataset NAME] [--column NAME] [--epsilon E]
                     [--stats] [--remaining] [--deadline-ms MS]
                     [--connect-timeout-ms MS] [--timeout-ms MS]
                     [--retry-busy N]

Releases one differentially private aggregate from a running
`upa-cli serve` (or upa-serverd) daemon. --stats prints the query audit
exactly as a local run would; --remaining also prints the dataset's
budget after the release. --deadline-ms asks the server to shed the
request (error `deadline`, nothing charged) if it cannot be served in
time; --retry-busy retries `busy` refusals with jittered backoff;
--connect-timeout-ms/--timeout-ms bound the connection and each reply.";

/// Parsed `serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// CSV files to serve, one dataset each.
    pub inputs: Vec<String>,
    /// TCP port (0 = ephemeral).
    pub port: u16,
    /// Per-dataset total ε budget.
    pub budget: Option<f64>,
    /// Crash-safe ledger path.
    pub ledger: Option<PathBuf>,
    /// Default per-release ε.
    pub epsilon: f64,
    /// UPA sample size `n`.
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Engine threads (0 = auto).
    pub threads: usize,
    /// Concurrent connection cap.
    pub max_connections: usize,
    /// Permits per dataset (max concurrently running cache-miss or
    /// deadline requests).
    pub max_inflight: usize,
    /// Max requests waiting for one dataset's permits.
    pub queue_capacity: usize,
    /// Slow-query log threshold in milliseconds (`None` disables it).
    pub slow_query_ms: Option<u64>,
    /// Group-commit window in microseconds (0 = commit every spend
    /// alone).
    pub ledger_commit_us: u64,
    /// Prepared-query LRU cache capacity (0 = unbounded).
    pub cache_capacity: usize,
    /// Persistent columnar store directory (enables the catalog).
    pub store: Option<PathBuf>,
    /// Store datasets to attach at startup.
    pub attach: Vec<String>,
    /// Enable the admin wire ops (ingest/attach/detach).
    pub allow_admin: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let defaults = ServerConfig::default();
        ServeArgs {
            inputs: Vec::new(),
            port: 7878,
            budget: None,
            ledger: None,
            epsilon: defaults.epsilon,
            sample_size: defaults.sample_size,
            seed: defaults.seed,
            threads: 0,
            max_connections: defaults.max_connections,
            max_inflight: defaults.max_inflight_prepares,
            queue_capacity: defaults.queue_capacity,
            slow_query_ms: None,
            ledger_commit_us: defaults.ledger_commit_us,
            cache_capacity: defaults.cache_capacity,
            store: None,
            attach: Vec::new(),
            allow_admin: false,
        }
    }
}

impl ServeArgs {
    /// Parses `serve` flags.
    ///
    /// # Errors
    ///
    /// A printable message for unknown or malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<ServeArgs, String> {
        let mut args = ServeArgs::default();
        let mut it = argv.into_iter();
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--input" => args.inputs.push(need(&mut it, "--input")?),
                "--port" => args.port = parse_num(&need(&mut it, "--port")?, "--port")?,
                "--budget" => {
                    args.budget = Some(parse_num(&need(&mut it, "--budget")?, "--budget")?)
                }
                "--ledger" => args.ledger = Some(PathBuf::from(need(&mut it, "--ledger")?)),
                "--epsilon" => args.epsilon = parse_num(&need(&mut it, "--epsilon")?, "--epsilon")?,
                "--sample-size" => {
                    args.sample_size = parse_num(&need(&mut it, "--sample-size")?, "--sample-size")?
                }
                "--seed" => args.seed = parse_num(&need(&mut it, "--seed")?, "--seed")?,
                "--threads" => args.threads = parse_num(&need(&mut it, "--threads")?, "--threads")?,
                "--max-connections" => {
                    args.max_connections =
                        parse_num(&need(&mut it, "--max-connections")?, "--max-connections")?
                }
                "--max-inflight" => {
                    args.max_inflight =
                        parse_num(&need(&mut it, "--max-inflight")?, "--max-inflight")?
                }
                "--queue-capacity" => {
                    args.queue_capacity =
                        parse_num(&need(&mut it, "--queue-capacity")?, "--queue-capacity")?
                }
                "--slow-query-ms" => {
                    args.slow_query_ms = Some(parse_num(
                        &need(&mut it, "--slow-query-ms")?,
                        "--slow-query-ms",
                    )?)
                }
                "--ledger-commit-us" => {
                    args.ledger_commit_us =
                        parse_num(&need(&mut it, "--ledger-commit-us")?, "--ledger-commit-us")?
                }
                "--cache-capacity" => {
                    args.cache_capacity =
                        parse_num(&need(&mut it, "--cache-capacity")?, "--cache-capacity")?
                }
                "--store" => args.store = Some(PathBuf::from(need(&mut it, "--store")?)),
                "--attach" => args.attach.push(need(&mut it, "--attach")?),
                "--allow-admin" => args.allow_admin = true,
                "--help" | "-h" => return Err(SERVE_USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{SERVE_USAGE}")),
            }
        }
        if !args.attach.is_empty() && args.store.is_none() {
            return Err(format!("--attach requires --store\n{SERVE_USAGE}"));
        }
        // A store-backed daemon may start empty; only a daemon with no
        // possible data source at all is an error.
        if args.inputs.is_empty() && args.store.is_none() {
            return Err(format!(
                "no data source: pass --input and/or --store\n{SERVE_USAGE}"
            ));
        }
        Ok(args)
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} must be a number, got '{value}'"))
}

/// Parsed `query` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Server address (`host:port`).
    pub addr: String,
    /// Dataset name.
    pub dataset: String,
    /// Aggregate (`count`/`sum`/`mean`).
    pub query: String,
    /// Column (empty for `count`).
    pub column: String,
    /// Per-release ε override.
    pub epsilon: Option<f64>,
    /// Print the query audit.
    pub stats: bool,
    /// Print the dataset's budget after the release.
    pub remaining: bool,
    /// Server-side deadline: shed (not charge) the release if it cannot
    /// be served within this many milliseconds.
    pub deadline_ms: Option<u64>,
    /// TCP connect timeout in milliseconds.
    pub connect_timeout_ms: Option<u64>,
    /// Per-reply read timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Extra attempts when the server refuses with `busy`.
    pub retry_busy: u32,
}

impl Default for QueryArgs {
    fn default() -> Self {
        QueryArgs {
            addr: String::new(),
            dataset: "data".to_string(),
            query: "count".to_string(),
            column: String::new(),
            epsilon: None,
            stats: false,
            remaining: false,
            deadline_ms: None,
            connect_timeout_ms: None,
            timeout_ms: None,
            retry_busy: 0,
        }
    }
}

impl QueryArgs {
    /// Parses `query` flags.
    ///
    /// # Errors
    ///
    /// A printable message for unknown or malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<QueryArgs, String> {
        let mut args = QueryArgs::default();
        let mut it = argv.into_iter();
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => args.addr = need(&mut it, "--addr")?,
                "--dataset" => args.dataset = need(&mut it, "--dataset")?,
                "--query" => args.query = need(&mut it, "--query")?,
                "--column" => args.column = need(&mut it, "--column")?,
                "--epsilon" => {
                    args.epsilon = Some(parse_num(&need(&mut it, "--epsilon")?, "--epsilon")?)
                }
                "--stats" => args.stats = true,
                "--remaining" => args.remaining = true,
                "--deadline-ms" => {
                    args.deadline_ms = Some(parse_num(
                        &need(&mut it, "--deadline-ms")?,
                        "--deadline-ms",
                    )?)
                }
                "--connect-timeout-ms" => {
                    args.connect_timeout_ms = Some(parse_num(
                        &need(&mut it, "--connect-timeout-ms")?,
                        "--connect-timeout-ms",
                    )?)
                }
                "--timeout-ms" => {
                    args.timeout_ms =
                        Some(parse_num(&need(&mut it, "--timeout-ms")?, "--timeout-ms")?)
                }
                "--retry-busy" => {
                    args.retry_busy = parse_num(&need(&mut it, "--retry-busy")?, "--retry-busy")?
                }
                "--help" | "-h" => return Err(QUERY_USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{QUERY_USAGE}")),
            }
        }
        if args.addr.is_empty() {
            return Err(format!("--addr is required\n{QUERY_USAGE}"));
        }
        Ok(args)
    }
}

/// Loads a CSV file as a server dataset: the stem names it, and every
/// column whose cells all parse as numbers becomes queryable.
///
/// # Errors
///
/// I/O and CSV-shape failures, or a file with no numeric columns at all.
pub fn load_dataset(path: &str) -> Result<DatasetSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = csv::parse(&text).map_err(|e| e.to_string())?;
    let name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let mut columns = HashMap::new();
    for header in &doc.header {
        if let Ok(values) = doc.numeric_column(header) {
            columns.insert(header.clone(), values);
        }
    }
    if columns.is_empty() && !doc.rows.is_empty() {
        return Err(format!("{path}: no fully numeric column to serve"));
    }
    Ok(DatasetSpec::new(name, doc.rows.len(), columns))
}

/// Builds the server configuration from parsed `serve` arguments.
///
/// # Errors
///
/// Dataset-loading failures.
pub fn build_server_config(args: &ServeArgs) -> Result<ServerConfig, String> {
    let mut datasets = Vec::new();
    for input in &args.inputs {
        datasets.push(load_dataset(input)?);
    }
    Ok(ServerConfig {
        datasets,
        budget: args.budget,
        ledger_path: args.ledger.clone(),
        epsilon: args.epsilon,
        sample_size: args.sample_size,
        seed: args.seed,
        threads: args.threads,
        max_connections: args.max_connections,
        max_inflight_prepares: args.max_inflight,
        queue_capacity: args.queue_capacity,
        slow_query_ms: args.slow_query_ms,
        ledger_commit_us: args.ledger_commit_us,
        cache_capacity: args.cache_capacity,
        trace_capacity: ServerConfig::default().trace_capacity,
        // `serve` is a daemon: the structured event log goes to stderr.
        log_stderr: true,
        fault: Default::default(),
        store_path: args.store.clone(),
        attach: args.attach.clone(),
        allow_admin: args.allow_admin,
    })
}

/// The `serve` subcommand: load the CSVs, bind, announce, serve until a
/// `shutdown` request drains the daemon.
///
/// # Errors
///
/// Dataset, bind, ledger or accept-loop failures.
pub fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let config = build_server_config(args)?;
    let names = config
        .datasets
        .iter()
        .map(|d| d.name.clone())
        .collect::<Vec<_>>()
        .join(", ");
    let server = Server::bind(config, &format!("127.0.0.1:{}", args.port))
        .map_err(|e| format!("cannot start server: {e}"))?;
    // Same announcement contract as upa-serverd: first stdout line
    // carries the bound address.
    println!("upa-server listening on {}", server.local_addr());
    println!("serving datasets: {names}");
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// The `query` subcommand's result, ready for the binary to print.
#[derive(Debug)]
pub struct RemoteRelease {
    /// The release reply.
    pub reply: upa_server::ReleaseOutcome,
    /// The budget after the release, when `--remaining` asked for it.
    pub budget: Option<upa_server::BudgetReply>,
}

/// The `query` subcommand: one connection, one release (with the audit
/// when `--stats` is set), optionally the budget afterwards.
///
/// # Errors
///
/// Connection, protocol, or server-side failures (budget refusals
/// included), as printable messages.
pub fn run_remote_query(args: &QueryArgs) -> Result<RemoteRelease, String> {
    let mut builder = Client::builder().retry_busy(args.retry_busy);
    if let Some(ms) = args.connect_timeout_ms {
        builder = builder.connect_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = args.timeout_ms {
        builder = builder.read_timeout(std::time::Duration::from_millis(ms));
    }
    let mut client = builder
        .connect(&args.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let reply = client
        .release_with_deadline(
            &args.dataset,
            &args.query,
            &args.column,
            args.epsilon,
            args.stats,
            args.deadline_ms,
        )
        .map_err(|e| e.to_string())?;
    let budget = if args.remaining {
        client.budget(&args.dataset).map_err(|e| e.to_string())?
    } else {
        None
    };
    Ok(RemoteRelease { reply, budget })
}

/// Usage text for `upa-cli metrics`.
pub const METRICS_USAGE: &str = "\
usage: upa-cli metrics --addr HOST:PORT [--watch] [--interval-ms MS]
                       [--count N] [--json]

Scrapes a running daemon's `metrics` op. By default prints the
Prometheus-style text exposition once. --json prints the structured
snapshot instead. --watch re-scrapes every --interval-ms (default 1000)
and renders a compact live summary; --count stops after N scrapes
(0 = until interrupted).";

/// Parsed `metrics` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsArgs {
    /// Server address (`host:port`).
    pub addr: String,
    /// Re-scrape and render a live summary.
    pub watch: bool,
    /// Milliseconds between watch scrapes.
    pub interval_ms: u64,
    /// Watch iterations (0 = until interrupted).
    pub count: u64,
    /// Print the structured snapshot as JSON instead of exposition.
    pub json: bool,
}

impl Default for MetricsArgs {
    fn default() -> Self {
        MetricsArgs {
            addr: String::new(),
            watch: false,
            interval_ms: 1000,
            count: 0,
            json: false,
        }
    }
}

impl MetricsArgs {
    /// Parses `metrics` flags.
    ///
    /// # Errors
    ///
    /// A printable message for unknown or malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<MetricsArgs, String> {
        let mut args = MetricsArgs::default();
        let mut it = argv.into_iter();
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => args.addr = need(&mut it, "--addr")?,
                "--watch" => args.watch = true,
                "--interval-ms" => {
                    args.interval_ms = parse_num(&need(&mut it, "--interval-ms")?, "--interval-ms")?
                }
                "--count" => args.count = parse_num(&need(&mut it, "--count")?, "--count")?,
                "--json" => args.json = true,
                "--help" | "-h" => return Err(METRICS_USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{METRICS_USAGE}")),
            }
        }
        if args.addr.is_empty() {
            return Err(format!("--addr is required\n{METRICS_USAGE}"));
        }
        Ok(args)
    }
}

/// The value of `label` spliced into `name` (`upa_x{label="v"}` → `v`).
fn label_value<'a>(name: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let start = name.find(&needle)? + needle.len();
    let end = name[start..].find('"')? + start;
    Some(&name[start..end])
}

/// Renders one compact `--watch` frame from a metrics snapshot.
pub fn render_watch(snapshot: &upa_server::RegistrySnapshot) -> String {
    let uptime = snapshot
        .gauges
        .get("upa_uptime_seconds")
        .copied()
        .unwrap_or(0.0);
    let mut out = format!("-- upa-server metrics (uptime {uptime:.1}s) --\n");

    let mut requests = Vec::new();
    for (name, count) in &snapshot.counters {
        if name.starts_with("upa_requests_total{") && *count > 0 {
            if let Some(op) = label_value(name, "op") {
                requests.push(format!("{op}={count}"));
            }
        }
    }
    if !requests.is_empty() {
        out.push_str(&format!("requests: {}\n", requests.join(" ")));
    }

    for (title, name) in [
        ("release latency", "upa_release_latency_us"),
        ("queue wait", "upa_queue_wait_us"),
        ("engine prepare", "upa_engine_prepare_us"),
        ("ledger fsync", "upa_ledger_fsync_us"),
    ] {
        if let Some(h) = snapshot.histograms.get(name) {
            if h.count > 0 {
                out.push_str(&format!(
                    "{title} µs: p50={} p99={} max={} (n={})\n",
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max(),
                    h.count
                ));
            }
        }
    }

    let mut budgets = Vec::new();
    for (name, v) in &snapshot.gauges {
        if name.starts_with("upa_budget_epsilon_remaining{") {
            if let Some(dataset) = label_value(name, "dataset") {
                budgets.push(format!("{dataset}={v:.4}"));
            }
        }
    }
    if !budgets.is_empty() {
        out.push_str(&format!("budget ε remaining: {}\n", budgets.join(" ")));
    }
    out
}

/// The `metrics` subcommand: scrape once (exposition or JSON), or
/// `--watch` a live summary.
///
/// # Errors
///
/// Connection or protocol failures, as printable messages.
pub fn run_metrics(args: &MetricsArgs) -> Result<(), String> {
    let mut client = Client::builder()
        .connect(&args.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    if !args.watch {
        let reply = client.metrics().map_err(|e| e.to_string())?;
        if args.json {
            println!("{}", reply.snapshot.to_json());
        } else {
            print!("{}", reply.exposition);
        }
        return Ok(());
    }
    let mut scrapes = 0u64;
    loop {
        let reply = client.metrics().map_err(|e| e.to_string())?;
        print!("{}", render_watch(&reply.snapshot));
        scrapes += 1;
        if args.count != 0 && scrapes >= args.count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}

/// Formats a remote release for the terminal (the audit is rendered
/// separately by the shared `--stats` path).
pub fn render_remote(release: &RemoteRelease) -> String {
    let reply = &release.reply;
    let mut out = format!(
        "released (ε={}): {:.6}\n  query              : {}\n  noise scale        : {:.6}\n  sampled records    : {}",
        reply.epsilon, reply.released, reply.query_id, reply.noise_scale, reply.sample_size,
    );
    let cache = match (reply.cached, reply.prepare_us) {
        (true, _) => "hit".to_string(),
        (false, Some(us)) => format!("miss (prepared in {us} µs)"),
        (false, None) => "miss".to_string(),
    };
    out.push_str(&format!("\n  cache              : {cache}"));
    if let Some(remaining) = reply.budget_remaining {
        out.push_str(&format!("\n  budget remaining   : {remaining:.6}"));
    }
    if let Some(budget) = &release.budget {
        out.push_str(&format!(
            "\n  budget             : {:.6} spent of {:.6} ({:.6} left)",
            budget.spent, budget.total, budget.remaining
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_serve_flags() {
        let a = ServeArgs::parse(argv(
            "--input a.csv --input b.csv --port 0 --budget 2.0 --ledger l.jsonl \
             --epsilon 0.3 --sample-size 64 --seed 7 --threads 2 \
             --max-connections 8 --max-inflight 2 --queue-capacity 16 \
             --ledger-commit-us 500 --cache-capacity 32",
        ))
        .unwrap();
        assert_eq!(a.inputs, vec!["a.csv", "b.csv"]);
        assert_eq!(a.port, 0);
        assert_eq!(a.budget, Some(2.0));
        assert_eq!(a.ledger.as_deref(), Some(Path::new("l.jsonl")));
        assert_eq!(a.epsilon, 0.3);
        assert_eq!(a.max_inflight, 2);
        assert_eq!(a.queue_capacity, 16);
        assert_eq!(a.ledger_commit_us, 500);
        assert_eq!(a.cache_capacity, 32);
        assert!(
            ServeArgs::parse(argv("--port 1")).is_err(),
            "some data source required"
        );
        assert!(ServeArgs::parse(argv("--input a.csv --nope")).is_err());
    }

    #[test]
    fn parses_store_serve_flags() {
        let a = ServeArgs::parse(argv(
            "--store ./s --attach people --attach trips --allow-admin",
        ))
        .unwrap();
        assert!(a.inputs.is_empty(), "a store-only daemon is valid");
        assert_eq!(a.store, Some(PathBuf::from("./s")));
        assert_eq!(a.attach, vec!["people", "trips"]);
        assert!(a.allow_admin);
        let config = build_server_config(&a).unwrap();
        assert_eq!(config.store_path, Some(PathBuf::from("./s")));
        assert_eq!(config.attach, vec!["people", "trips"]);
        assert!(config.allow_admin);
        assert!(
            ServeArgs::parse(argv("--attach x")).is_err(),
            "--attach requires --store"
        );
    }

    #[test]
    fn parses_query_flags() {
        let a = QueryArgs::parse(argv(
            "--addr 127.0.0.1:7878 --dataset people --query mean --column age --epsilon 0.5 \
             --stats --remaining --deadline-ms 250 --connect-timeout-ms 1000 --timeout-ms 5000 \
             --retry-busy 3",
        ))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert_eq!(a.dataset, "people");
        assert_eq!(a.query, "mean");
        assert_eq!(a.column, "age");
        assert_eq!(a.epsilon, Some(0.5));
        assert!(a.stats);
        assert!(a.remaining);
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.connect_timeout_ms, Some(1000));
        assert_eq!(a.timeout_ms, Some(5000));
        assert_eq!(a.retry_busy, 3);
        assert!(
            QueryArgs::parse(argv("--query sum")).is_err(),
            "addr required"
        );
    }

    #[test]
    fn load_dataset_keeps_numeric_columns_only() {
        let dir = std::env::temp_dir().join("upa_remote_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("people_{}.csv", std::process::id()));
        std::fs::write(&path, "age,name,score\n31,ada,9.5\n44,lin,7.25\n").unwrap();
        let spec = load_dataset(&path.to_string_lossy()).unwrap();
        assert_eq!(spec.rows, 2);
        assert_eq!(spec.columns.len(), 2, "name is not numeric");
        assert_eq!(spec.columns["age"], vec![31.0, 44.0]);
        assert_eq!(spec.columns["score"], vec![9.5, 7.25]);
        assert!(spec.name.starts_with("people_"));
        let _ = std::fs::remove_file(&path);
    }

    /// End to end over a loopback daemon: serve a CSV in-process, query
    /// it remotely, and check the remote audit renders through the same
    /// renderer a local run uses.
    #[test]
    fn serve_and_query_round_trip() {
        let dir = std::env::temp_dir().join("upa_remote_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("served_{}.csv", std::process::id()));
        let mut text = String::from("v\n");
        for i in 0..2_000 {
            text.push_str(&format!("{}\n", i % 50));
        }
        std::fs::write(&path, text).unwrap();

        let serve_args = ServeArgs {
            inputs: vec![path.to_string_lossy().into_owned()],
            budget: Some(1.0),
            epsilon: 0.25,
            sample_size: 40,
            threads: 2,
            ..ServeArgs::default()
        };
        let config = build_server_config(&serve_args).unwrap();
        let dataset = config.datasets[0].name.clone();
        let server = Server::bind(config, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());

        let query_args = QueryArgs {
            addr,
            dataset,
            query: "mean".into(),
            column: "v".into(),
            stats: true,
            remaining: true,
            ..QueryArgs::default()
        };
        let release = run_remote_query(&query_args).unwrap();
        assert_eq!(release.reply.epsilon, 0.25);
        assert!((release.budget.unwrap().remaining - 0.75).abs() < 1e-9);
        let text = render_remote(&release);
        assert!(text.contains("released (ε=0.25)"));
        assert!(text.contains("budget"));
        // The first release of a key pays the cold prepare and says so.
        assert!(!release.reply.cached);
        assert!(release.reply.prepare_us.is_some());
        assert!(text.contains("cache              : miss (prepared in"));
        let audit = release.reply.audit.expect("--stats carries the audit");
        let rendered = audit.render();
        assert!(rendered.contains("Query: mean"));
        assert!(rendered.contains("stages:"));

        // A repeat of the same query hits the prepared cache.
        let again = run_remote_query(&query_args).unwrap();
        assert!(again.reply.cached);
        assert_eq!(again.reply.prepare_us, None);
        assert!(render_remote(&again).contains("cache              : hit"));

        handle.shutdown();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
