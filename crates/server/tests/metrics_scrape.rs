//! End-to-end observability against a real `upa-serverd` process: a
//! served release yields a retrievable trace whose spans cover the
//! queue, engine, noise, and ledger stages; the request ID ties the
//! trace to the structured stderr log; and the `metrics` op returns a
//! well-formed exposition whose ε-remaining gauge shrinks with spend.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use upa_server::Client;

mod common;

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_e2e_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Spawns the daemon with a ledger and a zero slow-query threshold (so
/// every request logs its full trace), returning the child, its
/// announced address, and a thread collecting its stderr log lines.
fn spawn_daemon(ledger: &PathBuf) -> (Child, String, JoinHandle<Vec<String>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args([
            "--port",
            "0",
            "--synthetic",
            "data=4000:97",
            "--budget",
            "2.0",
            "--epsilon",
            "0.25",
            "--sample-size",
            "50",
            "--threads",
            "2",
            "--slow-query-ms",
            "0",
            "--ledger",
        ])
        .arg(ledger)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn upa-serverd");
    let stdout = child.stdout.take().expect("stdout piped");
    let stderr = child.stderr.take().expect("stderr piped");
    let log_lines = std::thread::spawn(move || {
        BufReader::new(stderr)
            .lines()
            .map_while(Result::ok)
            .collect()
    });
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("upa-server listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr, log_lines)
}

fn epsilon_remaining(client: &mut Client) -> f64 {
    let metrics = client.metrics().expect("metrics op");
    *metrics
        .snapshot
        .gauges
        .get("upa_budget_epsilon_remaining{dataset=\"data\"}")
        .expect("per-dataset ε-remaining gauge")
}

#[test]
fn served_release_yields_trace_metrics_and_log_line() {
    let ledger = temp_ledger("metrics_scrape");
    let (mut child, addr, log_lines) = spawn_daemon(&ledger);
    let mut client = Client::builder().connect(&addr).expect("connect");

    let before = epsilon_remaining(&mut client);
    assert!((before - 2.0).abs() < 1e-9, "fresh budget, got {before}");

    let reply = client
        .release("data", "mean", "v", None, false)
        .expect("release is served");
    assert!(reply.released.is_finite());

    // The trace op returns the release's record with every serving
    // stage on the request timeline, plus the engine's own span tree.
    let records = client.traces(None, Some(8)).expect("trace op");
    let record = records
        .iter()
        .find(|r| r.op == "release")
        .expect("the release left a trace");
    assert!(
        record.request_id.starts_with("r-"),
        "request id {:?}",
        record.request_id
    );
    assert_eq!(record.outcome, "ok");
    assert_eq!(record.query_id, "data/mean/v");
    for span in ["queue_wait", "noise_draw", "ledger_fsync"] {
        assert!(
            record.span(span).is_some(),
            "span {span} missing from {:?}",
            record.spans
        );
    }
    // The leader ran the engine; a coalesced follower would instead
    // carry `coalesce_wait` over the same window.
    assert!(
        record.span("engine_prepare").is_some() || record.span("coalesce_wait").is_some(),
        "no prepare-phase span in {:?}",
        record.spans
    );
    assert!(
        !record.engine.is_empty() && record.engine.iter().all(|s| s.path.starts_with("engine")),
        "engine audit spans grafted under engine/"
    );

    // The same record is addressable by its ID.
    let by_id = client
        .traces(Some(&record.request_id), None)
        .expect("trace by id");
    assert_eq!(by_id.len(), 1);
    assert_eq!(by_id[0].request_id, record.request_id);

    // The exposition is well-formed and carries the release quantiles
    // and the per-dataset budget gauges.
    let metrics = client.metrics().expect("metrics op");
    common::assert_exposition_well_formed(
        &metrics.exposition,
        &[
            "upa_requests_total",
            "upa_release_latency_us",
            "upa_queue_wait_us",
            "upa_ledger_fsync_us",
            "upa_uptime_seconds",
            "upa_budget_epsilon_remaining",
        ],
    );
    assert!(
        metrics.exposition.contains("quantile=\"0.5\"")
            && metrics.exposition.contains("quantile=\"0.99\""),
        "exposition lacks latency quantiles"
    );

    // ε-remaining shrinks by exactly the charge, release after release.
    let after_one = epsilon_remaining(&mut client);
    assert!(
        (after_one - (before - 0.25)).abs() < 1e-9,
        "one ε=0.25 charge: {before} -> {after_one}"
    );
    client
        .release("data", "mean", "v", None, false)
        .expect("second release");
    let after_two = epsilon_remaining(&mut client);
    assert!(
        (after_two - (before - 0.5)).abs() < 1e-9,
        "two charges: {before} -> {after_two}"
    );

    let _ = client.shutdown();
    child.wait().expect("daemon drains and exits");

    // With `--slow-query-ms 0` every request is a slow-query offender,
    // so the stderr log carries the release's full trace, tagged with
    // the same request ID the trace op returned.
    let log = log_lines.join().expect("stderr reader").join("\n");
    let needle = format!("\"request_id\":\"{}\"", record.request_id);
    let line = log
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no log line for {}:\n{log}", record.request_id));
    assert!(
        line.contains("\"event\":\"slow_query\"") && line.contains("\"trace\":"),
        "slow-query line lacks the embedded trace: {line}"
    );
    upa_server::wire::parse(line).expect("structured log lines are valid JSON");

    let _ = std::fs::remove_file(&ledger);
}
