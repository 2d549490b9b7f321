//! Saturation behaviour over real TCP: when a dataset's bounded queue
//! is full the server answers `busy` (and only then — workers being
//! occupied is not a refusal), and a request whose `deadline_ms` lapses
//! in the queue is shed with `deadline` without charging budget.
//!
//! The flood carries a generous `deadline_ms` so every request opts
//! into the scheduler queue (a plain cached release would take the
//! zero-queue fast path and never see admission control); the fast path
//! itself is smoked at the end — a cached no-deadline release must land
//! as a `fastpath_hits` tick, not a scheduler submission.
//!
//! The CI server-integration job runs this as its saturation soak
//! (`UPA_SOAK_WAVES` scales the flood).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use upa_server::{
    Client, ClientError, DatasetSpec, ErrorCode, Server, ServerConfig, ShutdownHandle,
};

mod common;

fn start(config: ServerConfig) -> (String, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn soak_waves() -> usize {
    std::env::var("UPA_SOAK_WAVES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn full_queues_refuse_busy_and_lapsed_deadlines_shed() {
    const FLOODERS: usize = 16;
    const REQUESTS_PER_FLOODER: usize = 4;
    let (addr, handle, join) = start(ServerConfig {
        datasets: vec![DatasetSpec::synthetic("data", 3_000, 11)],
        budget: None, // unmetered: only scheduling outcomes below
        epsilon: 0.1,
        sample_size: 40,
        threads: 2,
        max_connections: FLOODERS + 8,
        // One worker and a single queue slot: whenever the worker and
        // the slot are both taken, the next submit must see `busy`.
        max_inflight_prepares: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    let served = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let mut saw_busy = false;
    for _wave in 0..soak_waves() {
        let mut threads = Vec::new();
        for _ in 0..FLOODERS {
            let addr = addr.clone();
            let served = Arc::clone(&served);
            let busy = Arc::clone(&busy);
            threads.push(std::thread::spawn(move || {
                let mut client = Client::builder().connect(&addr).expect("connect");
                for _ in 0..REQUESTS_PER_FLOODER {
                    // The deadline routes every request through the
                    // bounded queues; 60s never actually lapses.
                    match client.release_with_deadline(
                        "data",
                        "mean",
                        "v",
                        None,
                        false,
                        Some(60_000),
                    ) {
                        Ok(reply) => {
                            assert!(reply.released.is_finite());
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server { code, message }) => {
                            // The only legitimate refusal under flood is
                            // a full queue.
                            assert_eq!(code, ErrorCode::Busy, "{message}");
                            busy.fetch_add(1, Ordering::Relaxed);
                            // A busy refusal at admission closes the
                            // connection; reconnect for the next shot.
                            client = Client::builder().connect(&addr).expect("reconnect");
                        }
                        Err(other) => panic!("unexpected failure under flood: {other}"),
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        if busy.load(Ordering::Relaxed) > 0 {
            saw_busy = true;
            break;
        }
    }
    assert!(
        saw_busy,
        "a 16-way flood into a 1-slot queue never saw `busy`"
    );

    let mut observer = Client::builder().connect(&addr).expect("observer");

    // Every accepted request was served — busy only ever replaced
    // queueing, never dropped admitted work.
    let stats = observer.stats().expect("stats").sched;
    assert_eq!(stats.queued, 0, "{stats:?}");
    assert_eq!(stats.completed, stats.submitted, "{stats:?}");
    // Admission control can also refuse with `busy` when reconnect churn
    // momentarily exceeds the connection cap, so the scheduler's count
    // is a lower bound on what clients observed.
    assert!(
        stats.busy_rejected <= busy.load(Ordering::Relaxed),
        "queue refusals {} exceed observed busy {}: {stats:?}",
        stats.busy_rejected,
        busy.load(Ordering::Relaxed)
    );
    assert_eq!(stats.submitted, served.load(Ordering::Relaxed), "{stats:?}");

    // Fast-path smoke under the soak: `mean/v` is cached by now, so a
    // plain (no-deadline) release must be served on the connection
    // thread — a `fastpath_hits` tick, not a scheduler submission.
    let fast = observer
        .release("data", "mean", "v", None, false)
        .expect("cached release takes the fast path");
    assert!(fast.released.is_finite());
    served.fetch_add(1, Ordering::Relaxed);

    // Mid-soak metrics scrape (the CI server-integration job leans on
    // this): the exposition stays well-formed under live traffic and
    // carries the serving-path families.
    let metrics = observer.metrics().expect("metrics scrape");
    common::assert_exposition_well_formed(
        &metrics.exposition,
        &[
            "upa_requests_total",
            "upa_release_latency_us",
            "upa_queue_wait_us",
            "upa_fastpath_hits_total",
            "upa_prepared_cache_hits_total",
            "upa_sched_submitted_total",
            "upa_uptime_seconds",
        ],
    );
    let fastpath_hits = metrics.snapshot.counters["upa_fastpath_hits_total"];
    assert!(
        fastpath_hits >= 1,
        "cached release must count a fast-path hit"
    );
    let sched_after = observer.stats().expect("stats").sched;
    assert_eq!(
        sched_after.submitted, stats.submitted,
        "the fast-path release must not reach the scheduler"
    );
    // Every request was either scheduled or fast-pathed; none vanished.
    assert_eq!(
        sched_after.submitted + fastpath_hits,
        served.load(Ordering::Relaxed),
        "{sched_after:?}"
    );
    let released = served.load(Ordering::Relaxed);
    let latency = &metrics.snapshot.histograms["upa_release_latency_us"];
    assert!(
        latency.count >= released,
        "release-latency histogram saw {} of {released} releases",
        latency.count
    );

    // An unmeetable deadline is shed with the distinct `deadline` code…
    match observer
        .release_with_deadline("data", "mean", "v", None, false, Some(0))
        .unwrap_err()
    {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Deadline),
        other => panic!("expected a deadline shed, got {other}"),
    }
    // …and the connection survives it: the same client keeps working.
    let reply = observer
        .release_with_deadline("data", "mean", "v", None, false, Some(60_000))
        .expect("a generous deadline is met");
    assert!(reply.released.is_finite());
    let stats = observer.stats().expect("stats after shed").sched;
    assert_eq!(stats.shed_deadline, 1, "{stats:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}
