//! The serving path's headline guarantee, over real TCP connections:
//! 64 simultaneous identical queries run **exactly one** engine
//! prepare, every client still gets its **own independent** noisy
//! release, and the budget is charged once per release. The racers that
//! arrive before the prepare finishes coalesce onto it in the
//! scheduler; everyone after the cache fills rides the zero-queue fast
//! path — shared work, never shared noise, never shared spends.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use upa_server::{Client, DatasetSpec, Server, ServerConfig, ShutdownHandle};

const CLIENTS: usize = 64;

fn start(config: ServerConfig) -> (String, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn identical_concurrent_queries_coalesce_to_one_prepare() {
    let epsilon = 0.01;
    let (addr, handle, join) = start(ServerConfig {
        datasets: vec![DatasetSpec::synthetic("data", 3_000, 11)],
        budget: Some(10.0),
        epsilon,
        sample_size: 40,
        threads: 2,
        max_connections: CLIENTS + 8,
        max_inflight_prepares: 4,
        queue_capacity: CLIENTS + 8,
        ..ServerConfig::default()
    });

    // Connect everyone first, then release the herd at once so the
    // requests genuinely race into the scheduler.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::builder().connect(&addr).expect("connect");
            barrier.wait();
            client
                .release("data", "sum", "v", None, false)
                .expect("release")
        }));
    }
    let replies: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(replies.len(), CLIENTS);

    // Every client got an independent noisy sample, not a shared one.
    let distinct: HashSet<String> = replies
        .iter()
        .map(|r| format!("{:.17e}", r.released))
        .collect();
    assert!(
        distinct.len() > CLIENTS / 2,
        "noisy releases must be drawn independently per client \
         ({} distinct values across {CLIENTS})",
        distinct.len()
    );
    for r in &replies {
        assert_eq!(r.query_id, "data/sum/v");
        assert!(r.released.is_finite());
    }

    // The budget was charged once per release — coalescing shares the
    // prepare, not the spend.
    let mut observer = Client::builder().connect(&addr).expect("observer connect");
    let budget = observer.budget("data").unwrap().unwrap();
    assert!(
        (budget.spent - epsilon * CLIENTS as f64).abs() < 1e-9,
        "expected spent = {} (64 × ε), got {}",
        epsilon * CLIENTS as f64,
        budget.spent
    );

    // Exactly one prepare ran. Clients that raced in before it finished
    // coalesced onto it in the scheduler; everyone who arrived after the
    // cache filled was served on the fast path without queueing.
    let stats = observer.stats().expect("stats").sched;
    assert_eq!(
        stats.prepares, 1,
        "64 identical queries must share a single engine prepare: {stats:?}"
    );
    assert_eq!(stats.coalesced, stats.submitted - 1, "{stats:?}");
    assert_eq!(stats.completed, stats.submitted, "{stats:?}");
    assert_eq!(stats.shed_deadline, 0);
    let fastpath =
        observer.metrics().expect("metrics").snapshot.counters["upa_fastpath_hits_total"];
    assert_eq!(
        stats.submitted + fastpath,
        CLIENTS as u64,
        "every client was either scheduled or fast-pathed: {stats:?}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}
