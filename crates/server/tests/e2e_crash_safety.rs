//! End-to-end crash safety: a real `upa-serverd` process, concurrent
//! clients spending budget, `SIGKILL`, and a restart against the same
//! ledger. The budget must reflect every release that was delivered
//! before the kill, and an over-budget query must stay refused.
//!
//! The second test aims the kill at group commit itself: four clients
//! flooding cached releases keep a batch in flight almost continuously
//! (whatever arrives during one fsync rides the next), so the `SIGKILL`
//! lands mid-batch — and still, no release a client ever received may be
//! missing from the replayed ledger (durable spends without a delivered
//! release are fine; the converse never is).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use upa_server::{Client, ClientError, ErrorCode};

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_e2e_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Spawns the daemon on an ephemeral port and parses the announced
/// address from its first stdout line.
fn spawn_daemon(ledger: &PathBuf) -> (Child, String) {
    spawn_daemon_with(ledger, &["--budget", "1.0", "--epsilon", "0.4"])
}

fn spawn_daemon_with(ledger: &PathBuf, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args([
            "--port",
            "0",
            "--synthetic",
            "data=4000:97",
            "--sample-size",
            "50",
            "--threads",
            "2",
        ])
        .args(extra)
        .arg("--ledger")
        .arg(ledger)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn upa-serverd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("upa-server listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn budget_survives_sigkill_and_restart() {
    let ledger = temp_ledger("sigkill");
    let (mut child, addr) = spawn_daemon(&ledger);

    // Two concurrent clients each deliver one ε=0.4 release.
    let mut workers = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::builder().connect(&addr).expect("connect");
            client
                .release("data", "sum", "v", None, true)
                .expect("release delivers")
        }));
    }
    let delivered: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(delivered.len(), 2);
    for reply in &delivered {
        assert_eq!(reply.epsilon, 0.4);
        assert!(reply.released.is_finite());
        let audit = reply.audit.as_ref().expect("audit requested");
        assert_eq!(audit.query, "sum");
    }
    // Whatever the interleaving, both charges happened.
    let remaining = delivered
        .iter()
        .filter_map(|r| r.budget_remaining)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (remaining - 0.2).abs() < 1e-9,
        "after two 0.4 charges on 1.0, 0.2 remains (got {remaining})"
    );

    // Crash: no drain, no flush beyond the per-spend fsync.
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Restart on the same ledger: every delivered release is accounted.
    let (mut child2, addr2) = spawn_daemon(&ledger);
    let mut client = Client::builder().connect(&addr2).expect("reconnect");
    let budget = client.budget("data").expect("budget op").expect("metered");
    assert_eq!(budget.total, 1.0);
    assert!(
        (budget.spent - 0.8).abs() < 1e-9,
        "both pre-kill spends replayed (spent = {})",
        budget.spent
    );
    assert!((budget.remaining - 0.2).abs() < 1e-9);

    // The default ε=0.4 no longer fits: refused, budget untouched.
    match client.release("data", "sum", "v", None, false).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Budget),
        other => panic!("expected a budget refusal, got {other}"),
    }
    let budget = client.budget("data").unwrap().unwrap();
    assert!(
        (budget.spent - 0.8).abs() < 1e-9,
        "a refused release charges nothing"
    );

    // What still fits is still served.
    let last = client
        .release("data", "sum", "v", Some(0.2), false)
        .expect("a fitting charge is served");
    assert!(last.budget_remaining.unwrap() < 1e-9);

    let _ = client.shutdown();
    child2.wait().expect("daemon drains and exits");
    let _ = std::fs::remove_file(&ledger);
}

/// `SIGKILL` aimed into group commit: with several clients hammering
/// cached releases, a batch is nearly always being written or fsynced
/// when the kill lands. The fail-closed invariant under test: every
/// release a client *received* has a durable spend after replay. (Spends
/// that were made durable but whose replies never left the socket are
/// allowed — budget leaks toward safety.)
#[test]
fn sigkill_mid_batch_never_loses_a_delivered_release() {
    const WORKERS: usize = 4;
    const EPSILON: f64 = 0.01;
    // Room for 10⁶ releases: a disk with a fast fsync delivers 10⁴ within
    // the flood below, and an exhausted budget would end it early.
    const BUDGET: &str = "10000.0";
    let ledger = temp_ledger("sigkill_batch");
    let (mut child, addr) = spawn_daemon_with(&ledger, &["--budget", BUDGET, "--epsilon", "0.01"]);

    // Warm the prepared cache so the flood below rides the fast path
    // (connection-thread releases, group-committed spends).
    let mut warm = Client::builder().connect(&addr).expect("connect");
    warm.release("data", "mean", "v", None, false)
        .expect("warmup release");
    let delivered = Arc::new(AtomicU64::new(1)); // the warmup counts

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let addr = addr.clone();
        let delivered = Arc::clone(&delivered);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let mut client = match Client::builder().connect(&addr) {
                Ok(c) => c,
                Err(_) => return, // raced the kill
            };
            while !stop.load(Ordering::Relaxed) {
                match client.release("data", "mean", "v", None, false) {
                    Ok(reply) => {
                        assert!(reply.released.is_finite());
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                    // Any error here is the kill tearing the connection
                    // (or, theoretically, budget exhaustion — see
                    // `BUDGET`). Stop either way.
                    Err(_) => return,
                }
            }
        }));
    }

    // Let batches churn, then kill without warning.
    std::thread::sleep(std::time::Duration::from_millis(400));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let delivered = delivered.load(Ordering::Relaxed);
    assert!(
        delivered > 1,
        "the flood delivered something before the kill"
    );

    // Restart on the same ledger (replay tolerates — zeroes — a torn
    // tail from the kill). Every delivered release must be accounted.
    let (mut child2, addr2) =
        spawn_daemon_with(&ledger, &["--budget", BUDGET, "--epsilon", "0.01"]);
    let mut client = Client::builder().connect(&addr2).expect("reconnect");
    let budget = client.budget("data").expect("budget op").expect("metered");
    let floor = delivered as f64 * EPSILON;
    assert!(
        budget.spent >= floor - 1e-6,
        "{delivered} delivered releases need {floor} ε durable, ledger replayed only {}",
        budget.spent
    );
    // The converse bound: at most one spend per worker connection can be
    // durable-but-undelivered at the kill (its reply died in the socket),
    // plus the in-flight batch is bounded by the worker count.
    let ceiling = (delivered + 2 * WORKERS as u64) as f64 * EPSILON;
    assert!(
        budget.spent <= ceiling + 1e-6,
        "replayed spend {} exceeds every possible charge ({ceiling})",
        budget.spent
    );

    // The survivor still serves: the replayed state is live, not wedged.
    let after = client
        .release("data", "mean", "v", None, false)
        .expect("post-restart release");
    assert!(after.released.is_finite());

    let _ = client.shutdown();
    child2.wait().expect("daemon drains and exits");
    let _ = std::fs::remove_file(&ledger);
}
