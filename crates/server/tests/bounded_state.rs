//! Warm releases leave O(1) engine state on a served dataset: one enforcer
//! signature per prepared query and a bounded audit ring. The `metrics` op
//! exports both per dataset, and the `audit` op reads back the server's
//! remaining budget for every retained release.

use upa_core::AUDIT_RING;
use upa_server::{AggKind, Client, DatasetSpec, Server, ServerConfig, ServerState};

fn config(budget: Option<f64>) -> ServerConfig {
    ServerConfig {
        datasets: vec![
            DatasetSpec::synthetic("data", 2_000, 9),
            DatasetSpec::synthetic("idle", 500, 7),
        ],
        budget,
        epsilon: 0.25,
        sample_size: 40,
        threads: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn warm_releases_keep_one_signature_and_a_bounded_audit_ring() {
    const WARM: usize = 100_000;
    let state = ServerState::new(config(None)).expect("state");
    // The first release prepares; every later one is a warm cache hit.
    for _ in 0..=WARM {
        state
            .release("data", AggKind::Sum, "v", None, false)
            .expect("release");
    }
    let retained = state.retained();
    assert_eq!(retained.len(), 2);
    let (name, signatures, audits) = &retained[0];
    assert_eq!(name, "data");
    assert_eq!(*signatures, 1, "repeats share the first release's entry");
    assert!(
        *audits > AUDIT_RING && *audits <= 2 * AUDIT_RING,
        "{audits}"
    );
    assert_eq!(retained[1], ("idle".to_string(), 0, 0));
    // The ring still serves the most recent releases to the `audit` op.
    assert_eq!(state.audits_of("data", usize::MAX).unwrap().len(), *audits);
}

#[test]
fn scrape_exports_signatures_and_audit_ring_per_dataset() {
    let server = Server::bind(config(None), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::builder().connect(&addr).expect("connect");
    for _ in 0..3 {
        client
            .release("data", "sum", "v", None, false)
            .expect("release");
    }
    client
        .release("data", "count", "v", None, false)
        .expect("release");
    let gauges = client.metrics().expect("metrics op").snapshot.gauges;
    let gauge = |name: &str, dataset: &str| {
        gauges
            .get(&format!("{name}{{dataset=\"{dataset}\"}}"))
            .copied()
    };
    // Two prepared queries: two distinct signatures; four releases: four audits.
    assert_eq!(gauge("upa_enforcer_signatures", "data"), Some(2.0));
    assert_eq!(gauge("upa_audit_ring_entries", "data"), Some(4.0));
    assert_eq!(gauge("upa_enforcer_signatures", "idle"), Some(0.0));
    assert_eq!(gauge("upa_audit_ring_entries", "idle"), Some(0.0));

    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn audit_op_reports_the_remaining_budget_of_every_release() {
    let server = Server::bind(config(Some(2.0)), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::builder().connect(&addr).expect("connect");
    for _ in 0..2 {
        client
            .release("data", "mean", "v", None, false)
            .expect("release");
    }
    let audits = client.audits("data", None).expect("audit op");
    let remaining: Vec<Option<f64>> = audits.iter().map(|a| a.budget_remaining).collect();
    assert_eq!(remaining, vec![Some(1.75), Some(1.5)]);

    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}
