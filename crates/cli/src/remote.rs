//! The `query` and `metrics` subcommands: release from, and scrape, a
//! running daemon (`upa-cli serve`, the same daemon as `upa-serverd`).
//!
//! ```text
//! upa-cli query --addr 127.0.0.1:7878 --dataset people --query mean --column age --stats
//! ```
//!
//! Remote `--stats` output is produced by reconstructing the server's
//! audit JSON into a [`upa_core::QueryAudit`] and rendering it with the
//! same [`upa_core::QueryAudit::render`] as local runs — the formatting
//! lives in exactly one place.

use upa_server::flags::Command;
use upa_server::wire::Body;
use upa_server::Client;

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

/// The `query` command's command line.
pub const QUERY: Command<QueryArgs> = Command {
    about: "release one aggregate from a running daemon",
    synopsis: &["--addr HOST:PORT [OPTIONS]"],
    detail: "Releases one differentially private aggregate from a running \
             `upa-cli serve` (or upa-serverd) daemon.",
    flags: upa_server::flags![
        "--addr" "HOST:PORT" set addr: "Address of the daemon (required)";
        "--dataset" "NAME" value dataset: "Dataset to release from";
        "--query" "KIND" value query: "Aggregate: count, sum or mean";
        "--column" "NAME" set column: "Column to aggregate; required for sum and mean";
        "--epsilon" "E" some epsilon: "Epsilon of this release (the daemon's default if absent)";
        "--stats" "" switch stats: "Also print the query audit, exactly as a local run would";
        "--remaining" "" switch remaining: "Also print the dataset's budget after the release";
        "--deadline-ms" "MS" some deadline_ms:
            "Ask the daemon to shed the release (error `deadline`, nothing charged) \
             if it cannot be served within MS";
        "--connect-timeout-ms" "MS" some connect_timeout_ms:
            "Bound the TCP connect (no bound if absent)";
        "--timeout-ms" "MS" some timeout_ms: "Bound the wait for each reply (no bound if absent)";
        "--retry-busy" "N" value retry_busy:
            "Retry `busy` refusals up to N times with jittered backoff";
    ],
    positional: |_, _| false,
    check: |args| required(&args.addr, "--addr"),
};

/// A required flag's check.
fn required(value: &str, flag: &str) -> Result<(), String> {
    match value {
        "" => Err(format!("{flag} is required")),
        _ => Ok(()),
    }
}

impl QueryArgs {
    /// Parses `query` flags as [`QUERY`] does; `--help` is an error
    /// carrying the usage.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<QueryArgs, String> {
        QUERY
            .parse(argv)?
            .ok_or_else(|| QUERY.usage("upa-cli query"))
    }
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

/// The `metrics` command's command line.
pub const METRICS: Command<MetricsArgs> = Command {
    about: "scrape a running daemon's metrics",
    synopsis: &["--addr HOST:PORT [OPTIONS]"],
    detail: "Scrapes a running daemon's `metrics` op and prints the Prometheus-style \
             text exposition once.",
    flags: upa_server::flags![
        "--addr" "HOST:PORT" set addr: "Address of the daemon (required)";
        "--watch" "" switch watch: "Re-scrape every --interval-ms and print a compact live summary";
        "--interval-ms" "MS" value interval_ms: "Milliseconds between --watch scrapes";
        "--count" "N" value count: "Stop --watch after N scrapes; 0 for until interrupted";
        "--json" "" switch json: "Print the structured snapshot as JSON instead";
    ],
    positional: |_, _| false,
    check: |args| required(&args.addr, "--addr"),
};

impl MetricsArgs {
    /// Parses `metrics` flags as [`METRICS`] does; `--help` is an error
    /// carrying the usage.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<MetricsArgs, String> {
        METRICS
            .parse(argv)?
            .ok_or_else(|| METRICS.usage("upa-cli metrics"))
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
    use upa_server::daemon::Daemon;
    use upa_server::Server;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
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

        let serve_args = format!(
            "--input {} --budget 1.0 --epsilon 0.25 --sample-size 40 --threads 2",
            path.display()
        );
        let config = Daemon::parse(argv(&serve_args))
            .unwrap()
            .expect("not --help")
            .into_config()
            .unwrap();
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
