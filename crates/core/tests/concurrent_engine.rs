//! One `Upa` serving concurrent callers. A preparation takes the engine's
//! critical section only for its RNG draws and a release only for its
//! enforcer pass and noise draw, so a cached release never waits for a
//! scan; concurrent first releases of one preparation enforce once; and a
//! preparation reports only its own engine work, whatever else runs on
//! the shared context meanwhile.

use dataflow::{Context, Dataset};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Duration;
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;
use upa_core::{Upa, UpaConfig};

fn engine(ctx: &Context) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 40,
            ..UpaConfig::default()
        },
    )
}

/// 4,000 records in 4 partitions, and their empirical domain.
fn data(ctx: &Context) -> (Dataset<f64>, EmpiricalSampler<f64>) {
    let values: Vec<f64> = (0..4_000).map(|i| (i % 17) as f64).collect();
    (
        ctx.parallelize(values.clone(), 4),
        EmpiricalSampler::new(values),
    )
}

fn sum() -> MapReduceQuery<f64, f64, f64> {
    MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x)
}

/// A sum whose mapper runs `hook` on its first call: on the preparing
/// thread, which maps the sampled records itself right after the phase-1
/// draws.
fn hooked_sum(hook: impl FnOnce() + Send + 'static) -> MapReduceQuery<f64, f64, f64> {
    let hook = Mutex::new(Some(hook));
    MapReduceQuery::scalar_sum(
        "hooked_sum",
        |x: &f64| x.to_bits(),
        move |x: &f64| {
            let first = hook.lock().expect("hook lock").take();
            if let Some(hook) = first {
                hook();
            }
            *x
        },
    )
}

/// Two engines share one context. One preparation stops inside its map
/// while the other engine runs a whole preparation on that context; the
/// stopped one must still report one stage and one exchange: its own.
#[test]
fn a_preparation_reports_only_its_own_engine_work() {
    let ctx = Context::with_threads(2);
    let (ds, domain) = data(&ctx);
    let (waiting, other) = (engine(&ctx), engine(&ctx));
    let (go_tx, go_rx) = mpsc::channel();
    let (ran_tx, ran_rx) = mpsc::channel();
    let query = hooked_sum(move || {
        go_tx.send(()).expect("the other thread listens");
        ran_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the other preparation finished");
    });
    std::thread::scope(|s| {
        let (ds, domain, other) = (&ds, &domain, &other);
        s.spawn(move || {
            go_rx.recv().expect("the hook fired");
            other.prepare(ds, &sum(), domain).expect("other prepare");
            ran_tx.send(()).expect("the hook listens");
        });
        let prepared = waiting.prepare(ds, &query, domain).expect("prepare");
        waiting.release(&prepared).expect("release");
    });
    let engine = waiting.last_audit().expect("release audited").engine;
    assert_eq!(engine.stages, 1, "{engine}");
    assert_eq!(engine.shuffles, 1, "{engine}");
    assert_eq!(engine.shuffle_records, 2 * 4, "{engine}");
}

/// N concurrent first releases of one fresh preparation: exactly one runs
/// RANGE ENFORCER, the others re-record its signature, and none is
/// checked against another's signature as an attack.
#[test]
fn concurrent_first_releases_enforce_once() {
    const N: usize = 8;
    let ctx = Context::with_threads(2);
    let (ds, domain) = data(&ctx);
    let upa = engine(&ctx);
    let prepared = upa.prepare(&ds, &sum(), &domain).expect("prepare");
    let start = Barrier::new(N);
    let results: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..N)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    upa.release(&prepared).expect("release")
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("release thread"))
            .collect()
    });
    assert_eq!(upa.enforcer().distinct_len(), 1);
    assert_eq!(upa.enforcer().history_len(), N);
    for r in &results {
        assert!(!r.enforce_outcome.attack_suspected);
        assert_eq!(r.enforce_outcome.removed_records, 0);
        assert_eq!(r.enforced, results[0].enforced, "one shared enforced value");
    }
    assert!(upa
        .audits()
        .iter()
        .all(|a| !a.attack_detected && a.removed_records == 0));
}

/// A preparation stops inside its map until a cached release of another
/// preparation on the same engine returns. Were the scan inside the
/// engine's critical section, the release would wait for the map, and the
/// map's timeout would fail the test instead of hanging it.
#[test]
fn a_cached_release_does_not_wait_for_a_preparation() {
    let ctx = Context::with_threads(2);
    let (ds, domain) = data(&ctx);
    let upa = engine(&ctx);
    let cached = upa.prepare(&ds, &sum(), &domain).expect("prepare");
    upa.release(&cached).expect("first release");

    let (entered_tx, entered_rx) = mpsc::channel();
    let (released_tx, released_rx) = mpsc::channel();
    let query = hooked_sum(move || {
        entered_tx.send(()).expect("the test listens");
        released_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a cached release returned while this preparation mapped");
    });
    std::thread::scope(|s| {
        let preparing = s.spawn(|| upa.prepare(&ds, &query, &domain).map(|_| ()));
        entered_rx.recv().expect("the preparation reached its map");
        upa.release(&cached).expect("cached release");
        let _ = released_tx.send(());
        preparing
            .join()
            .expect("the preparation was not held up")
            .expect("prepare");
    });
    assert_eq!(upa.enforcer().history_len(), 2);
}
