//! The TCP daemon: accept loop, per-connection workers, protocol
//! dispatch and graceful shutdown.
//!
//! # Threading model
//!
//! One acceptor thread (the caller of [`Server::run`]) and one worker
//! thread per admitted connection, all sharing an
//! `Arc<`[`ServerState`]`>`. A connection handles any number of
//! requests, one line-delimited JSON object each (see [`crate::wire`]).
//!
//! # The zero-queue fast path
//!
//! A release whose `(dataset, aggregate, column)` prepare is already
//! cached skips the scheduler entirely: the connection thread reserves
//! budget against the dataset's lock-free shard, submits its spend to
//! the group-commit ledger, draws the Laplace sample and replies —
//! microseconds of server work plus one *shared* fsync. Only cache-miss
//! prepares (and requests carrying a `deadline_ms`, which opt into
//! queue-aware shedding) are submitted to the [`Scheduler`]'s
//! per-dataset queues and served by its worker pool, which coalesces
//! identical queries and sheds expired deadlines (see [`crate::sched`]).
//!
//! # Shutdown
//!
//! The `shutdown` op (or [`Server::shutdown_handle`]) flags the state as
//! draining and wakes the acceptor with a loopback connection. The
//! acceptor stops admitting, joins every connection worker — in-flight
//! releases run to completion, so a drained shutdown never strands a
//! ledgered spend that could still be delivered — and only then drains
//! the scheduler pool.

use crate::obs::{Level, RegistrySnapshot, Trace, Value};
use crate::proto::{
    DatasetsReply, ErrorCode, MetricsReply, PreparedInfo, Request, Response, StatsReply,
};
use crate::sched::{JobOp, JobOutput, Scheduler, SchedulerHandle};
use crate::state::{ServeError, ServerConfig, ServerState};
use crate::wire;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    sched: SchedulerHandle,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// builds the shared state — including the ledger replay, so a
    /// bind against an existing ledger restores every durable spend
    /// before the first connection is admitted — plus the scheduler
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Bind or ledger I/O failures.
    pub fn bind(config: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(config)?);
        let sched = Scheduler::start(Arc::clone(&state));
        Ok(Server {
            listener,
            state,
            sched,
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests and in-process embedding).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// The scheduling core (tests and in-process embedding).
    pub fn scheduler(&self) -> Arc<Scheduler> {
        self.sched.scheduler()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Serves until shutdown, then drains in-flight connections and the
    /// scheduler pool.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures (individual connection errors are
    /// contained in their workers).
    pub fn run(mut self) -> io::Result<()> {
        let sched = self.sched.scheduler();
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.is_shutting_down() {
                // The waking connection (or any late arrival) is dropped
                // unanswered; admitted connections keep draining below.
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            workers.retain(|w| !w.is_finished());
            let guard = match self.state.admit_connection() {
                Ok(guard) => guard,
                Err(err) => {
                    // Over the cap (or draining): answer with the error
                    // and close — the bounded-backlog half of admission
                    // control.
                    let mut s = stream;
                    let _ = s.write_all(error_line(&err).as_bytes());
                    continue;
                }
            };
            let state = Arc::clone(&self.state);
            let sched = Arc::clone(&sched);
            let addr = self.addr;
            workers.push(std::thread::spawn(move || {
                let _guard = guard;
                if let Err(e) = serve_connection(stream, &state, &sched, addr) {
                    // Client went away mid-request; nothing to clean up —
                    // budget durability was settled before any reply.
                    let _ = e;
                }
            }));
        }
        // Drain: every admitted connection finishes its in-flight work
        // (the scheduler must still be running for their submits to
        // complete), then the scheduler pool itself winds down.
        for w in workers {
            let _ = w.join();
        }
        self.sched.drain();
        Ok(())
    }
}

/// Requests shutdown of a running [`Server`] from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flags the server as draining and wakes its acceptor.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
        // Wake the blocking accept; the connection itself is discarded.
        let _ = TcpStream::connect(self.addr);
    }
}

fn error_line(err: &ServeError) -> String {
    Response::from(err).to_line()
}

/// Longest request line accepted, newline included. The longest
/// legitimate request is an `ingest` carrying a filesystem path; a peer
/// that sends this much without a newline is refused and disconnected
/// instead of being buffered without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serves one connection until EOF or `shutdown`.
fn serve_connection(
    stream: TcpStream,
    state: &Arc<ServerState>,
    sched: &Arc<Scheduler>,
    self_addr: SocketAddr,
) -> io::Result<()> {
    // Idle connections wake periodically so a draining shutdown is not
    // held hostage by a client that keeps its socket open silently;
    // in-flight requests (which are past the read) still complete.
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    // Replies are small and latency-bound; never let Nagle hold one back
    // for a delayed ACK. (Each reply is a single buffered write anyway.)
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // One reply buffer for the connection's lifetime: replies serialize
    // into it in place, so the steady-state release path allocates
    // nothing on the reply side.
    let mut reply = String::new();
    loop {
        // On timeout `line` keeps any partial bytes already received —
        // the next pass resumes the same line, within what is left of
        // its length budget.
        let budget = (MAX_LINE_BYTES - line.len()) as u64;
        let n = match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(()); // client closed
        }
        reply.clear();
        let overlong = line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n");
        let is_shutdown = match std::str::from_utf8(&line) {
            _ if overlong => {
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                refuse_line(state, message, &mut reply);
                false
            }
            Ok(text) if text.trim().is_empty() => {
                line.clear();
                continue;
            }
            Ok(text) => respond(text.trim(), state, sched, &mut reply),
            Err(_) => {
                refuse_line(state, "request line is not UTF-8".into(), &mut reply);
                false
            }
        };
        line.clear();
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if overlong {
            // Where the next request starts is unknowable, so hang up —
            // after reading off what the peer is still sending: closing
            // over unread input resets the connection and can destroy
            // the reply in flight.
            writer.get_ref().shutdown(Shutdown::Write)?;
            let _ = io::copy(&mut reader, &mut io::sink());
            return Ok(());
        }
        if is_shutdown {
            state.begin_shutdown();
            let _ = TcpStream::connect(self_addr); // wake the acceptor
            return Ok(());
        }
    }
}

/// Counts and answers a line that never became a request.
fn refuse_line(state: &ServerState, message: String, reply: &mut String) {
    let obs = state.obs();
    obs.m.count_request("invalid");
    obs.m.count_error(ErrorCode::BadRequest);
    Response::from(&ServeError::BadRequest(message)).write_line(reply);
}

/// The `upa_requests_total` label for a decoded request.
fn op_name(r: &Request) -> &'static str {
    match r {
        Request::Ping => "ping",
        Request::Datasets => "datasets",
        Request::Prepare { .. } => "prepare",
        Request::Release { .. } => "release",
        Request::Budget { .. } => "budget",
        Request::Audit { .. } => "audit",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Trace { .. } => "trace",
        Request::Ingest { .. } => "ingest",
        Request::Attach { .. } => "attach",
        Request::Detach { .. } => "detach",
        Request::Shutdown => "shutdown",
    }
}

/// Composes the `metrics` scrape: the registry's live snapshot plus
/// values computed at scrape time — scheduler counters
/// (`upa_sched_*`), per-dataset budget gauges
/// (`upa_budget_epsilon_{total,spent,remaining}{dataset="…"}`), uptime,
/// and connection/cache occupancy.
fn scrape(state: &Arc<ServerState>, sched: &Arc<Scheduler>) -> RegistrySnapshot {
    let obs = state.obs();
    let mut snap = obs.registry().snapshot();
    let s = sched.stats();
    for (name, v) in [
        ("upa_sched_submitted_total", s.submitted),
        ("upa_sched_completed_total", s.completed),
        ("upa_sched_prepares_total", s.prepares),
        ("upa_sched_coalesced_total", s.coalesced),
        ("upa_sched_shed_deadline_total", s.shed_deadline),
        ("upa_sched_busy_rejected_total", s.busy_rejected),
        ("upa_sched_batches_total", s.batches),
    ] {
        snap.counters.insert(name.to_string(), v);
    }
    for (name, v) in [
        ("upa_sched_queued", s.queued as f64),
        ("upa_sched_peak_queued", s.peak_queued as f64),
        ("upa_sched_peak_batch", s.peak_batch as f64),
        ("upa_uptime_seconds", obs.uptime_seconds()),
        ("upa_connections_active", state.active_connections() as f64),
        ("upa_prepared_cache_entries", state.prepared_len() as f64),
    ] {
        snap.gauges.insert(name.to_string(), v);
    }
    for (dataset, total, spent, remaining) in state.budgets() {
        for (what, v) in [("total", total), ("spent", spent), ("remaining", remaining)] {
            snap.gauges.insert(
                format!("upa_budget_epsilon_{what}{{dataset=\"{dataset}\"}}"),
                v,
            );
        }
    }
    if let Some(catalog) = state.catalog() {
        snap.gauges.insert(
            "upa_store_datasets".to_string(),
            catalog.attached_count() as f64,
        );
        snap.gauges.insert(
            "upa_store_resident_bytes".to_string(),
            catalog.resident_bytes() as f64,
        );
    }
    snap
}

/// Dispatches one request line, appending the reply line to `reply`;
/// returns whether the request was a shutdown.
fn respond(
    line: &str,
    state: &Arc<ServerState>,
    sched: &Arc<Scheduler>,
    reply: &mut String,
) -> bool {
    let obs = Arc::clone(state.obs());
    let parsed = match wire::parse(line) {
        Ok(v) => v,
        Err(e) => {
            refuse_line(state, e.to_string(), reply);
            return false;
        }
    };
    let request = match Request::from_json(&parsed) {
        Ok(r) => r,
        Err(msg) => {
            refuse_line(state, msg, reply);
            return false;
        }
    };
    let op = op_name(&request);
    obs.m.count_request(op);
    // Health checks and observability still answer while draining;
    // everything else is refused.
    if state.is_shutting_down()
        && !matches!(
            request,
            Request::Ping | Request::Stats | Request::Metrics | Request::Trace { .. }
        )
    {
        obs.m.count_error(ErrorCode::ShuttingDown);
        Response::from(&ServeError::ShuttingDown).write_line(reply);
        return false;
    }
    // Prepare/release — the requests that move through the scheduler —
    // get a request ID and a trace; the scheduler and release path
    // record their spans into it.
    let trace = match &request {
        Request::Prepare { dataset, .. } | Request::Release { dataset, .. } => {
            Some(Trace::new(obs.next_request_id(), op, dataset.clone()))
        }
        _ => None,
    };
    let response = match request {
        Request::Ping => Response::Ok,
        Request::Datasets => Response::Datasets(DatasetsReply {
            names: state.dataset_names(),
            info: state.dataset_infos(),
            available: state.available_datasets(),
        }),
        Request::Prepare {
            dataset,
            query,
            column,
        } => match sched.submit(
            &dataset,
            query,
            &column,
            JobOp::Prepare,
            None,
            trace.clone(),
        ) {
            Ok(JobOutput::Prepared {
                query_id,
                sample_size,
                cached,
            }) => Response::Prepared(PreparedInfo {
                query_id,
                sample_size,
                cached,
            }),
            Ok(other) => Response::from(&ServeError::Pipeline(format!(
                "scheduler returned {other:?} for a prepare"
            ))),
            Err(e) => Response::from(&e),
        },
        Request::Release {
            dataset,
            query,
            column,
            epsilon,
            audit,
            deadline_ms,
        } => {
            // Zero-queue fast path: a cached prepare means phases 1–3
            // are paid for, so the release is served right here on the
            // connection thread — lock-free budget reserve, group-commit
            // fsync, one Laplace draw. Requests carrying a deadline opt
            // into queue-aware shedding and take the scheduler instead.
            let cached = if deadline_ms.is_none() {
                let hit = state.cached_prepared(&dataset, query, &column);
                if hit.is_some() {
                    obs.m.cache_hits.inc();
                } else {
                    obs.m.cache_misses.inc();
                }
                hit
            } else {
                None
            };
            match cached {
                Some(prepared) => {
                    obs.m.fastpath_hits.inc();
                    let query_id = ServerState::query_id(&dataset, query, &column);
                    match state.release_prepared_traced(
                        &dataset,
                        &query_id,
                        &prepared,
                        epsilon,
                        audit,
                        trace.as_ref(),
                    ) {
                        Ok(outcome) => Response::Released(Box::new(outcome)),
                        Err(e) => Response::from(&e),
                    }
                }
                None => match sched.submit(
                    &dataset,
                    query,
                    &column,
                    JobOp::Release {
                        epsilon,
                        want_audit: audit,
                    },
                    deadline_ms,
                    trace.clone(),
                ) {
                    Ok(JobOutput::Released(outcome)) => Response::Released(outcome),
                    Ok(other) => Response::from(&ServeError::Pipeline(format!(
                        "scheduler returned {other:?} for a release"
                    ))),
                    Err(e) => Response::from(&e),
                },
            }
        }
        Request::Budget { dataset } => match state.budget_of(&dataset) {
            Ok(budget) => Response::Budget { dataset, budget },
            Err(e) => Response::from(&e),
        },
        Request::Audit { dataset, last } => {
            match state.audits_of(&dataset, last.unwrap_or(u64::MAX) as usize) {
                Ok(audits) => Response::Audits { dataset, audits },
                Err(e) => Response::from(&e),
            }
        }
        Request::Stats => Response::Stats(StatsReply {
            sched: sched.stats(),
            uptime_seconds: obs.uptime_seconds(),
            seq: obs.next_stats_seq(),
        }),
        Request::Metrics => Response::Metrics(MetricsReply::new(scrape(state, sched))),
        Request::Trace { id, last } => {
            let traces = match id {
                Some(id) => obs.traces().find(&id).into_iter().collect(),
                None => obs.traces().recent(last.unwrap_or(1) as usize),
            };
            Response::Traces(traces)
        }
        Request::Ingest { path, dataset } => {
            if !state.config().allow_admin {
                Response::from(&ServeError::AdminDisabled)
            } else {
                let start = Instant::now();
                match state.ingest_csv_file(Path::new(&path), dataset.as_deref()) {
                    Ok(report) => {
                        obs.m.store_ingest.record_duration(start.elapsed());
                        Response::Ingested {
                            dataset: report.dataset,
                            rows: report.rows,
                            columns: report.columns,
                            chunks: report.chunks as u64,
                            bytes: report.bytes,
                        }
                    }
                    Err(e) => Response::from(&e),
                }
            }
        }
        Request::Attach { dataset } => {
            if !state.config().allow_admin {
                Response::from(&ServeError::AdminDisabled)
            } else {
                let start = Instant::now();
                match state.attach_dataset(&dataset) {
                    Ok(outcome) => {
                        obs.m.store_attach.record_duration(start.elapsed());
                        Response::Attached(outcome)
                    }
                    Err(e) => Response::from(&e),
                }
            }
        }
        Request::Detach { dataset } => {
            if !state.config().allow_admin {
                Response::from(&ServeError::AdminDisabled)
            } else {
                match state.detach_dataset(&dataset) {
                    Ok(()) => Response::Detached { dataset },
                    Err(e) => Response::from(&e),
                }
            }
        }
        Request::Shutdown => {
            Response::Draining.write_line(reply);
            return true;
        }
    };
    if let Response::Error { code, .. } = &response {
        obs.m.count_error(*code);
    }
    if let Some(t) = trace {
        let outcome = match &response {
            Response::Error { code, .. } => code.as_str().to_string(),
            _ => "ok".to_string(),
        };
        let record = t.finish(&outcome);
        if op == "release" {
            obs.m.release_latency.record(record.total_us);
        }
        let slow = obs
            .slow_query_us()
            .is_some_and(|threshold| record.total_us >= threshold);
        if slow {
            obs.m.slow_queries.inc();
            // A slow offender's log line carries its whole trace.
            obs.log().emit(
                Level::Warn,
                "slow_query",
                Some(&record.request_id),
                &[
                    ("op", Value::S(op.to_string())),
                    ("dataset", Value::S(record.dataset.clone())),
                    ("outcome", Value::S(outcome)),
                    ("total_us", Value::U(record.total_us)),
                    ("trace", Value::Raw(record.to_json())),
                ],
            );
        } else {
            obs.log().emit(
                Level::Info,
                "request_complete",
                Some(&record.request_id),
                &[
                    ("op", Value::S(op.to_string())),
                    ("dataset", Value::S(record.dataset.clone())),
                    ("outcome", Value::S(outcome)),
                    ("total_us", Value::U(record.total_us)),
                ],
            );
        }
        obs.traces().push(record);
    }
    response.write_line(reply);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DatasetSpec;
    use crate::wire::Json;

    struct Fixture {
        state: Arc<ServerState>,
        sched: Arc<Scheduler>,
        // Keeps the worker pool alive for the test's duration.
        _handle: SchedulerHandle,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture::with_config(ServerConfig {
                datasets: vec![DatasetSpec::synthetic("data", 1_500, 7)],
                budget: Some(1.0),
                epsilon: 0.2,
                sample_size: 30,
                threads: 2,
                ..ServerConfig::default()
            })
        }

        fn with_config(config: ServerConfig) -> Fixture {
            let state = Arc::new(ServerState::new(config).unwrap());
            let handle = Scheduler::start(Arc::clone(&state));
            Fixture {
                state,
                sched: handle.scheduler(),
                _handle: handle,
            }
        }

        fn respond_str(&self, line: &str) -> Json {
            let mut reply = String::new();
            respond(line, &self.state, &self.sched, &mut reply);
            wire::parse(reply.trim()).expect("reply is valid JSON")
        }
    }

    #[test]
    fn dispatch_covers_the_protocol_surface() {
        let fx = Fixture::new();
        assert_eq!(fx.respond_str(r#"{"op":"ping"}"#).bool_of("ok"), Some(true));
        let ds = fx.respond_str(r#"{"op":"datasets"}"#);
        assert_eq!(ds.get("datasets").unwrap().as_arr().unwrap().len(), 1);

        let p = fx.respond_str(r#"{"op":"prepare","dataset":"data","query":"sum","column":"v"}"#);
        assert_eq!(p.str_of("query_id"), Some("data/sum/v"));
        assert_eq!(p.bool_of("cached"), Some(false));
        assert_eq!(p.num_of("sample_size"), Some(30.0));

        let r = fx.respond_str(
            r#"{"op":"release","dataset":"data","query":"sum","column":"v","audit":true}"#,
        );
        assert_eq!(r.bool_of("ok"), Some(true));
        assert!(r.num_of("released").is_some());
        assert!((r.num_of("budget_remaining").unwrap() - 0.8).abs() < 1e-9);
        assert_eq!(r.get("audit").unwrap().str_of("query"), Some("sum"));

        let b = fx.respond_str(r#"{"op":"budget","dataset":"data"}"#);
        assert!((b.num_of("spent").unwrap() - 0.2).abs() < 1e-9);

        let a = fx.respond_str(r#"{"op":"audit","dataset":"data"}"#);
        assert_eq!(a.get("audits").unwrap().as_arr().unwrap().len(), 1);

        let s = fx.respond_str(r#"{"op":"stats"}"#);
        let sched = s.get("sched").unwrap();
        assert_eq!(sched.get("prepares").unwrap().as_u64(), Some(1));
        // The release found the prepare's cached state at dispatch and
        // took the zero-queue fast path — it never reached the
        // scheduler, so nothing coalesced.
        assert_eq!(sched.get("coalesced").unwrap().as_u64(), Some(0));
        assert_eq!(sched.get("submitted").unwrap().as_u64(), Some(1));
        let m = &fx.state.obs().m;
        assert_eq!(m.fastpath_hits.get(), 1);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.cache_misses.get(), 0);
    }

    #[test]
    fn deadline_releases_take_the_scheduler_even_when_cached() {
        let fx = Fixture::new();
        fx.respond_str(r#"{"op":"prepare","dataset":"data","query":"sum","column":"v"}"#);
        let r = fx.respond_str(
            r#"{"op":"release","dataset":"data","query":"sum","column":"v","deadline_ms":60000}"#,
        );
        assert_eq!(r.bool_of("ok"), Some(true));
        // A deadline opts into queue-aware shedding: the release went
        // through the scheduler (coalescing onto the cached state), not
        // the fast path.
        assert_eq!(fx.state.obs().m.fastpath_hits.get(), 0);
        let s = fx.respond_str(r#"{"op":"stats"}"#);
        let sched = s.get("sched").unwrap();
        assert_eq!(sched.get("submitted").unwrap().as_u64(), Some(2));
        assert_eq!(sched.get("coalesced").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn fastpath_release_spends_and_draws_fresh_noise() {
        let fx = Fixture::new();
        fx.respond_str(r#"{"op":"prepare","dataset":"data","query":"sum","column":"v"}"#);
        let a = fx
            .respond_str(r#"{"op":"release","dataset":"data","query":"sum","column":"v"}"#)
            .num_of("released")
            .unwrap();
        let b = fx
            .respond_str(r#"{"op":"release","dataset":"data","query":"sum","column":"v"}"#)
            .num_of("released")
            .unwrap();
        assert_ne!(a, b, "independent Laplace draws on the fast path");
        assert_eq!(fx.state.obs().m.fastpath_hits.get(), 2);
        // Both fast-path releases charged budget.
        let budget = fx.respond_str(r#"{"op":"budget","dataset":"data"}"#);
        assert!((budget.num_of("spent").unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn dispatch_rejects_malformed_requests() {
        let fx = Fixture::new();
        for (line, code) in [
            ("not json", "bad_request"),
            (r#"{"op":"mystery"}"#, "bad_request"),
            (r#"{"op":"release"}"#, "bad_request"),
            (r#"{"op":"release","query":"sum"}"#, "bad_request"),
            (
                r#"{"op":"release","dataset":"x","query":"count"}"#,
                "unknown_dataset",
            ),
            (r#"{"op":"budget","dataset":"x"}"#, "unknown_dataset"),
        ] {
            let reply = fx.respond_str(line);
            assert_eq!(reply.bool_of("ok"), Some(false), "{line}");
            assert_eq!(reply.str_of("code"), Some(code), "{line}");
        }
    }

    #[test]
    fn admin_ops_are_gated_behind_allow_admin() {
        // Default config: admin ops refused with the stable `admin` code
        // even when a store is configured.
        let dir = std::env::temp_dir().join(format!("upa_server_admin_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fx = Fixture::with_config(ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", 500, 7)],
            threads: 2,
            store_path: Some(dir.clone()),
            ..ServerConfig::default()
        });
        for line in [
            r#"{"op":"attach","dataset":"x"}"#,
            r#"{"op":"detach","dataset":"x"}"#,
            r#"{"op":"ingest","path":"/tmp/x.csv"}"#,
        ] {
            let reply = fx.respond_str(line);
            assert_eq!(reply.bool_of("ok"), Some(false), "{line}");
            assert_eq!(reply.str_of("code"), Some("admin"), "{line}");
        }

        // With --allow-admin the same ops reach the store layer.
        let fx = Fixture::with_config(ServerConfig {
            datasets: vec![],
            threads: 2,
            store_path: Some(dir.clone()),
            allow_admin: true,
            ..ServerConfig::default()
        });
        let csv = dir.join("tiny.csv");
        std::fs::write(&csv, "v\n1\n2\n3\n").unwrap();
        let ingested = fx.respond_str(&format!(r#"{{"op":"ingest","path":"{}"}}"#, csv.display()));
        assert_eq!(ingested.str_of("ingested"), Some("tiny"));
        assert_eq!(ingested.num_of("rows"), Some(3.0));

        let ds = fx.respond_str(r#"{"op":"datasets"}"#);
        assert_eq!(ds.get("datasets").unwrap().as_arr().unwrap().len(), 0);
        let avail = ds.get("available").unwrap().as_arr().unwrap();
        assert_eq!(avail.len(), 1, "published but unattached");

        let attached = fx.respond_str(r#"{"op":"attach","dataset":"tiny"}"#);
        assert_eq!(attached.str_of("attached"), Some("tiny"));
        assert_eq!(attached.num_of("rows"), Some(3.0));
        let r = fx.respond_str(r#"{"op":"release","dataset":"tiny","query":"count"}"#);
        assert_eq!(r.bool_of("ok"), Some(true));

        let detached = fx.respond_str(r#"{"op":"detach","dataset":"tiny"}"#);
        assert_eq!(detached.str_of("detached"), Some("tiny"));
        let gone = fx.respond_str(r#"{"op":"release","dataset":"tiny","query":"count"}"#);
        assert_eq!(gone.str_of("code"), Some("unknown_dataset"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_op_flags_and_refuses_new_work() {
        let fx = Fixture::new();
        let mut reply = String::new();
        let is_shutdown = respond(r#"{"op":"shutdown"}"#, &fx.state, &fx.sched, &mut reply);
        assert!(reply.contains("\"draining\":true"));
        assert!(is_shutdown);
        fx.state.begin_shutdown();
        let refused = fx.respond_str(r#"{"op":"release","query":"count"}"#);
        assert_eq!(refused.str_of("code"), Some("shutting_down"));
        // Health checks and counters still answer while draining.
        assert_eq!(fx.respond_str(r#"{"op":"ping"}"#).bool_of("ok"), Some(true));
        assert!(fx.respond_str(r#"{"op":"stats"}"#).get("sched").is_some());
    }
}
