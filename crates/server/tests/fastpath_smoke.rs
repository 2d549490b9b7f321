//! The serving fast path under contention, end to end: once a query is
//! in the prepared cache, concurrent no-deadline releases are served on
//! their connection threads (`fastpath_hits`, zero scheduler traffic)
//! while their budget spends ride the group-commit ledger — strictly
//! fewer fsyncs than releases, with every spend still durable and
//! charged.
//!
//! The CI server-integration job runs this as its fast-path smoke.

use std::path::PathBuf;
use std::sync::Arc;
use upa_server::{Client, DatasetSpec, Server, ServerConfig};

mod common;

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_fastpath_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn contended_fastpath_batches_fsyncs_and_skips_the_scheduler() {
    const CLIENTS: usize = 8;
    const RELEASES_PER_CLIENT: usize = 25;
    const EPSILON: f64 = 0.01;
    let ledger = temp_ledger("contended");
    let server = Server::bind(
        ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", 3_000, 13)],
            budget: Some(50.0),
            ledger_path: Some(ledger.clone()),
            epsilon: EPSILON,
            sample_size: 40,
            threads: 2,
            max_connections: CLIENTS + 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    // Warm the cache: the one and only scheduler trip in this test.
    let mut observer = Client::builder().connect(&addr).expect("connect");
    observer
        .release("data", "mean", "v", None, false)
        .expect("warmup release");

    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::builder().connect(&addr).expect("connect");
            barrier.wait();
            for _ in 0..RELEASES_PER_CLIENT {
                let reply = client
                    .release("data", "mean", "v", None, false)
                    .expect("cached release");
                assert!(reply.released.is_finite());
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let flood = (CLIENTS * RELEASES_PER_CLIENT) as u64;
    let releases = flood + 1; // + the warmup

    let metrics = observer.metrics().expect("metrics scrape");
    common::assert_exposition_well_formed(
        &metrics.exposition,
        &[
            "upa_fastpath_hits_total",
            "upa_prepared_cache_hits_total",
            "upa_ledger_fsyncs_total",
            "upa_ledger_batch_size",
            "upa_ledger_commit_wait_us",
        ],
    );
    let counters = &metrics.snapshot.counters;

    // Every flood release rode the fast path; none touched the scheduler.
    assert_eq!(counters["upa_fastpath_hits_total"], flood);
    assert_eq!(counters["upa_prepared_cache_hits_total"], flood);
    assert_eq!(counters["upa_prepared_cache_misses_total"], 1, "the warmup");
    let sched = observer.stats().expect("stats").sched;
    assert_eq!(sched.submitted, 1, "only the warmup reached the scheduler");

    // Group commit did its job: strictly fewer fsyncs than spends, every
    // spend waited on exactly one commit, and at least one batch carried
    // more than one record.
    let fsyncs = counters["upa_ledger_fsyncs_total"];
    assert!(fsyncs >= 1);
    assert!(
        fsyncs < releases,
        "{releases} contended releases took {fsyncs} fsyncs — no batching happened"
    );
    let batch = &metrics.snapshot.histograms["upa_ledger_batch_size"];
    assert_eq!(batch.count, fsyncs, "one batch-size sample per commit");
    assert!(batch.max() >= 2, "some batch carried multiple spends");
    let wait = &metrics.snapshot.histograms["upa_ledger_commit_wait_us"];
    assert_eq!(wait.count, releases, "every spend waited on a commit");

    // And none of it was unaccounted: the budget charged every release.
    let budget = observer
        .budget("data")
        .expect("budget op")
        .expect("metered");
    assert!(
        (budget.spent - releases as f64 * EPSILON).abs() < 1e-6,
        "{releases} releases at ε={EPSILON} should have spent {}, ledger says {}",
        releases as f64 * EPSILON,
        budget.spent
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&ledger);
}
