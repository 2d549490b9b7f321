//! End-to-end store serving: a real `upa-serverd` process over a
//! persistent columnar store. Ingest a CSV through the wire, attach it,
//! spend budget, detach, re-attach — the spent ε must be exactly what
//! it was before the detach (the budget shard outlives the residency).
//! A restart against the same ledger must agree too.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use upa_server::{Client, ErrorCode};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upa_store_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn spawn_daemon(store: &Path, ledger: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args([
            "--port",
            "0",
            "--allow-admin",
            "--budget",
            "1.0",
            "--epsilon",
            "0.25",
            "--sample-size",
            "50",
            "--threads",
            "2",
        ])
        .arg("--store")
        .arg(store)
        .arg("--ledger")
        .arg(ledger)
        .args(extra)
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
fn ingest_attach_detach_reattach_preserves_spent_epsilon() {
    let root = temp_dir("lifecycle");
    let store = root.join("store");
    let ledger = root.join("spends.jsonl");
    let csv = root.join("trips.csv");
    let mut text = String::from("fare,city\n");
    for i in 0..3_000 {
        text.push_str(&format!("{}.5,metropolis\n", i % 40));
    }
    std::fs::write(&csv, text).unwrap();

    // The daemon starts with an EMPTY store — that must be valid.
    let (mut child, addr) = spawn_daemon(&store, &ledger, &[]);
    let mut client = Client::builder().connect(&addr).expect("connect");
    let reply = client.datasets_info().expect("datasets");
    assert!(reply.names.is_empty(), "daemon starts with no datasets");
    assert!(reply.available.is_empty(), "store starts empty");

    // Ingest through the wire (server-local path), then attach.
    let (name, rows) = client
        .ingest(&csv.to_string_lossy(), Some("trips"))
        .expect("ingest");
    assert_eq!(name, "trips");
    assert_eq!(rows, 3_000);
    let reply = client.datasets_info().unwrap();
    assert_eq!(reply.available, vec!["trips".to_string()]);
    assert!(reply.names.is_empty(), "ingest must not auto-attach");

    let outcome = client.attach("trips").expect("attach");
    assert_eq!(outcome.rows, 3_000);
    assert!(!outcome.reloaded);
    assert!(outcome.resident_bytes > 0);
    // The attach reply and the `datasets` info that follows it report
    // one residency, and a query leaves it as it was.
    let resident = |client: &mut Client| {
        let info = &client.datasets_info().unwrap().info;
        (info[0].rows, info[0].resident_bytes)
    };
    assert_eq!(
        resident(&mut client),
        (outcome.rows, outcome.resident_bytes)
    );

    // Spend some budget.
    let release = client
        .release("trips", "mean", "fare", None, false)
        .expect("release");
    assert_eq!(
        resident(&mut client),
        (outcome.rows, outcome.resident_bytes)
    );
    assert!((release.epsilon - 0.25).abs() < 1e-12);
    let budget = client.budget("trips").expect("budget").expect("metered");
    assert!((budget.spent - 0.25).abs() < 1e-9);

    // Detach: queries refuse, the dataset reappears as available.
    client.detach("trips").expect("detach");
    let err = client
        .release("trips", "mean", "fare", None, false)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownDataset));
    let reply = client.datasets_info().unwrap();
    assert!(reply.names.is_empty());
    assert_eq!(reply.available, vec!["trips".to_string()]);

    // Re-attach: spent ε is exactly what it was before the detach.
    client.attach("trips").expect("re-attach");
    let budget = client.budget("trips").unwrap().unwrap();
    assert!(
        (budget.spent - 0.25).abs() < 1e-9,
        "spent ε changed across detach/re-attach: {}",
        budget.spent
    );
    client
        .release("trips", "mean", "fare", None, false)
        .expect("release after re-attach");
    let budget = client.budget("trips").unwrap().unwrap();
    assert!((budget.spent - 0.5).abs() < 1e-9);

    client.shutdown().expect("shutdown");
    let _ = child.wait();

    // Restart with --attach: the ledger replay must seed the shard.
    let (mut child, addr) = spawn_daemon(&store, &ledger, &["--attach", "trips"]);
    let mut client = Client::builder().connect(&addr).expect("reconnect");
    let reply = client.datasets_info().unwrap();
    assert_eq!(reply.names, vec!["trips".to_string()]);
    assert_eq!(reply.info[0].rows, 3_000);
    let budget = client.budget("trips").unwrap().unwrap();
    assert!(
        (budget.spent - 0.5).abs() < 1e-9,
        "replayed spend wrong after restart: {}",
        budget.spent
    );

    client.shutdown().expect("shutdown");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn admin_ops_refuse_without_allow_admin() {
    let root = temp_dir("gated");
    let store = root.join("store");
    std::fs::create_dir_all(&store).unwrap();
    // No --allow-admin this time; data comes from --synthetic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args(["--port", "0", "--synthetic", "data=500:7", "--threads", "2"])
        .arg("--store")
        .arg(&store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn upa-serverd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("upa-server listening on ")
        .unwrap()
        .to_string();

    let mut client = Client::builder().connect(&addr).expect("connect");
    let err = client.attach("anything").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Admin));
    let err = client.detach("data").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Admin));
    let err = client.ingest("/tmp/x.csv", None).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Admin));
    // The synthetic dataset still serves normally.
    client
        .release("data", "count", "", None, false)
        .expect("release");

    client.shutdown().expect("shutdown");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn store_resident_gauge_equals_the_datasets_reply() {
    let root = temp_dir("gauge");
    let store = root.join("store");
    let ledger = root.join("spends.jsonl");
    let csv = root.join("trips.csv");
    let mut text = String::from("fare,km\n");
    for i in 0..2_000 {
        text.push_str(&format!("{}.5,{}\n", i % 40, i % 9));
    }
    std::fs::write(&csv, text).unwrap();

    let (mut child, addr) = spawn_daemon(&store, &ledger, &[]);
    let mut client = Client::builder().connect(&addr).expect("connect");
    let gauge = |client: &mut Client| {
        let metrics = client.metrics().expect("metrics op");
        *metrics
            .snapshot
            .gauges
            .get("upa_store_resident_bytes")
            .expect("store gauge")
    };
    assert_eq!(gauge(&mut client), 0.0);
    client.ingest(&csv.to_string_lossy(), Some("a")).unwrap();
    client.ingest(&csv.to_string_lossy(), Some("b")).unwrap();
    client.attach("a").expect("attach a");
    let outcome = client.attach("b").expect("attach b");

    // The gauge counts each residency as its attach and `datasets`
    // replies do: the values and one half-totals block per column.
    let info = client.datasets_info().unwrap().info;
    assert_eq!(info.len(), 2);
    assert_eq!(info[1].resident_bytes, outcome.resident_bytes);
    let sum: u64 = info.iter().map(|i| i.resident_bytes).sum();
    assert!(sum > 2 * 2 * 2_000 * 8, "more than the values alone");
    assert_eq!(gauge(&mut client), sum as f64);

    client.detach("a").expect("detach");
    assert_eq!(gauge(&mut client), outcome.resident_bytes as f64);

    client.shutdown().expect("shutdown");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&root);
}
