//! Server-wide observability: a metrics registry with log-linear
//! latency histograms, per-request traces, and a structured JSON event
//! log — std-only, shared by the daemon, the `metrics` wire op, and the
//! benchmarks.
//!
//! One [`Obs`] lives in [`crate::state::ServerState`] and is reachable
//! from every layer: the connection dispatcher assigns request IDs and
//! finishes traces, the request path records queue-wait, prepare,
//! coalesce, noise-draw and ledger-fsync timings.
//! The hot path touches only pre-registered `Arc` handles (plain
//! atomics); the registry mutex is taken at startup and scrape time
//! only.
//!
//! Metric naming: `upa_<subsystem>_<what>[_total|_us]`, labels spelled
//! inline (`upa_requests_total{op="release"}`). Latency histograms
//! record microseconds and expose as Prometheus summaries
//! (p50/p90/p99 + `_sum`/`_count`).

pub mod histogram;
pub mod log;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use log::{EventLog, Level, Value};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use trace::{Trace, TraceRecord, TraceSpan, TraceStore};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pre-registered hot-path handles, so recording a request never takes
/// the registry mutex.
#[derive(Debug)]
pub struct ServerMetrics {
    /// End-to-end release latency (dispatch to reply line).
    pub release_latency: Arc<Histogram>,
    /// Time a request queued for one of its dataset's permits.
    pub queue_wait: Arc<Histogram>,
    /// Time a coalesced request waited on the leader's prepare.
    pub coalesce_wait: Arc<Histogram>,
    /// Engine prepare (phases 1–3) duration.
    pub engine_prepare: Arc<Histogram>,
    /// Phase-4 noisy-release duration.
    pub noise_draw: Arc<Histogram>,
    /// Ledger append + fsync duration.
    pub ledger_fsync: Arc<Histogram>,
    /// Actual `fsync` syscalls issued by group commit — grows
    /// strictly slower than the release count whenever batching happens.
    pub ledger_fsyncs: Arc<Counter>,
    /// Spend records per committed ledger batch.
    pub ledger_batch_size: Arc<Histogram>,
    /// Time a spend waited on its batch's shared fsync (enqueue →
    /// durable).
    pub ledger_commit_wait: Arc<Histogram>,
    /// Releases served on the fast path (prepare cached, no deadline,
    /// no permit taken).
    pub fastpath_hits: Arc<Counter>,
    /// Prepared-query cache hits at dispatch.
    pub cache_hits: Arc<Counter>,
    /// Prepared-query cache misses at dispatch.
    pub cache_misses: Arc<Counter>,
    /// LRU evictions from the prepared-query cache.
    pub cache_evictions: Arc<Counter>,
    /// Requests over the configured slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// End-to-end `attach` latency (chunk load, checksum verification,
    /// catalog swap).
    pub store_attach: Arc<Histogram>,
    /// End-to-end `ingest` latency (CSV parse, chunk writes, fsyncs,
    /// atomic publish).
    pub store_ingest: Arc<Histogram>,
    requests: HashMap<&'static str, Arc<Counter>>,
    errors: HashMap<&'static str, Arc<Counter>>,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> ServerMetrics {
        // Every wire op, plus `invalid` for lines that never became one.
        let requests = crate::proto::Request::OPS
            .iter()
            .chain(&["invalid"])
            .map(|op| {
                (
                    *op,
                    registry.counter(&format!("upa_requests_total{{op=\"{op}\"}}")),
                )
            })
            .collect();
        let errors = crate::proto::ErrorCode::ALL
            .iter()
            .map(|code| {
                let name = code.as_str();
                (
                    name,
                    registry.counter(&format!("upa_errors_total{{code=\"{name}\"}}")),
                )
            })
            .collect();
        ServerMetrics {
            release_latency: registry.histogram("upa_release_latency_us"),
            queue_wait: registry.histogram("upa_queue_wait_us"),
            coalesce_wait: registry.histogram("upa_coalesce_wait_us"),
            engine_prepare: registry.histogram("upa_engine_prepare_us"),
            noise_draw: registry.histogram("upa_noise_draw_us"),
            ledger_fsync: registry.histogram("upa_ledger_fsync_us"),
            ledger_fsyncs: registry.counter("upa_ledger_fsyncs_total"),
            ledger_batch_size: registry.histogram("upa_ledger_batch_size"),
            ledger_commit_wait: registry.histogram("upa_ledger_commit_wait_us"),
            fastpath_hits: registry.counter("upa_fastpath_hits_total"),
            cache_hits: registry.counter("upa_prepared_cache_hits_total"),
            cache_misses: registry.counter("upa_prepared_cache_misses_total"),
            cache_evictions: registry.counter("upa_prepared_cache_evictions_total"),
            slow_queries: registry.counter("upa_slow_queries_total"),
            store_attach: registry.histogram("upa_store_attach_us"),
            store_ingest: registry.histogram("upa_store_ingest_us"),
            requests,
            errors,
        }
    }

    /// Counts one request for `op` (`invalid` for unparsable lines).
    pub fn count_request(&self, op: &str) {
        match self.requests.get(op) {
            Some(c) => c.inc(),
            None => self.requests["invalid"].inc(),
        }
    }

    /// Counts one error reply.
    pub fn count_error(&self, code: crate::proto::ErrorCode) {
        if let Some(c) = self.errors.get(code.as_str()) {
            c.inc();
        }
    }
}

/// How many finished request traces the `trace` op retains.
const TRACE_CAPACITY: usize = 256;

/// The server's observability hub: registry, trace ring, event log,
/// uptime clock, and the request/stats sequence counters.
#[derive(Debug)]
pub struct Obs {
    registry: Registry,
    /// Pre-registered hot-path metric handles.
    pub m: ServerMetrics,
    traces: TraceStore,
    log: EventLog,
    started: Instant,
    request_seq: AtomicU64,
    stats_seq: AtomicU64,
    slow_query_us: Option<u64>,
}

impl Obs {
    /// Builds the hub. `slow_query_ms` enables slow-query logging;
    /// `log_stderr` routes the event log to stderr (the daemon) or keeps
    /// it silent (in-process embedders — attach [`EventLog::capture`] to
    /// observe it).
    pub fn new(slow_query_ms: Option<u64>, log_stderr: bool) -> Obs {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        let log = if log_stderr {
            EventLog::new(Level::Info)
        } else {
            EventLog::quiet(Level::Info)
        };
        Obs {
            m,
            registry,
            traces: TraceStore::new(TRACE_CAPACITY),
            log,
            started: Instant::now(),
            request_seq: AtomicU64::new(0),
            stats_seq: AtomicU64::new(0),
            slow_query_us: slow_query_ms.map(|ms| ms.saturating_mul(1000)),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The finished-trace ring.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// The structured event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Seconds since the server state was built.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The next request ID (`r-1`, `r-2`, …).
    pub fn next_request_id(&self) -> String {
        format!("r-{}", self.request_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The next `stats`/`metrics` snapshot sequence number (monotonic
    /// per process; a reset to low values signals a restart).
    pub fn next_stats_seq(&self) -> u64 {
        self.stats_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The slow-query threshold in microseconds, when configured.
    pub fn slow_query_us(&self) -> Option<u64> {
        self.slow_query_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_and_stats_seq_are_monotonic() {
        let obs = Obs::new(None, false);
        assert_eq!(obs.next_request_id(), "r-1");
        assert_eq!(obs.next_request_id(), "r-2");
        assert_eq!(obs.next_stats_seq(), 1);
        assert_eq!(obs.next_stats_seq(), 2);
        assert!(obs.uptime_seconds() >= 0.0);
    }

    #[test]
    fn request_counters_fall_back_to_invalid() {
        let obs = Obs::new(Some(250), false);
        obs.m.count_request("release");
        obs.m.count_request("garbage");
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["upa_requests_total{op=\"release\"}"], 1);
        assert_eq!(snap.counters["upa_requests_total{op=\"invalid\"}"], 1);
        assert_eq!(obs.slow_query_us(), Some(250_000));
    }
}
