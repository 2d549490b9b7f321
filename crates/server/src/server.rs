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
//! # One request path
//!
//! A `prepare` or `release` is served on its own connection thread by
//! one [`ServerState`] call. A cached release with no `deadline_ms` is
//! the fast path: budget reserve, one *shared* fsync, one Laplace draw.
//! Cache misses and requests with a deadline first take one of their
//! dataset's permits (see [`crate::state`]).
//!
//! # Shutdown
//!
//! The `shutdown` op (or [`Server::shutdown_handle`]) flags the state as
//! draining and wakes the acceptor with a loopback connection. The
//! acceptor stops admitting and joins every connection worker —
//! in-flight releases run to completion, so a drained shutdown never
//! strands a ledgered spend that could still be delivered.

use crate::obs::{Level, RegistrySnapshot, Trace, Value};
use crate::proto::{DatasetsReply, ErrorCode, MetricsReply, Request, Response, StatsReply};
use crate::state::{Ask, RequestCtx, ServeError, ServerConfig, ServerState};
use crate::wire::{self, Body};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// builds the shared state — including the ledger replay, so a
    /// bind against an existing ledger restores every durable spend
    /// before the first connection is admitted.
    ///
    /// # Errors
    ///
    /// Bind or ledger I/O failures.
    pub fn bind(config: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(config)?);
        Ok(Server {
            listener,
            state,
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

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Serves until shutdown, then drains in-flight connections.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures (individual connection errors are
    /// contained in their workers).
    pub fn run(self) -> io::Result<()> {
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
            let addr = self.addr;
            workers.push(std::thread::spawn(move || {
                let _guard = guard;
                if let Err(e) = serve_connection(stream, &state, addr) {
                    // Client went away mid-request; nothing to clean up —
                    // budget durability was settled before any reply.
                    let _ = e;
                }
            }));
        }
        // Drain: every admitted connection finishes its in-flight work.
        for w in workers {
            let _ = w.join();
        }
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
            Ok(text) => respond(text.trim(), state, &mut reply),
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

/// Composes the `metrics` scrape: the registry's live snapshot plus
/// values computed at scrape time — admission counters
/// (`upa_sched_*`), per-dataset budget gauges
/// (`upa_budget_epsilon_{total,spent,remaining}{dataset="…"}`), the
/// per-dataset engine state each release leaves behind
/// (`upa_enforcer_signatures`, `upa_audit_ring_entries`), uptime,
/// and connection/cache occupancy.
fn scrape(state: &ServerState) -> RegistrySnapshot {
    let obs = state.obs();
    let mut snap = obs.registry().snapshot();
    for (name, value) in state.sched_stats().counters() {
        // Levels and high-water marks are gauges; the rest count up.
        if name == "queued" || name.starts_with("peak_") {
            snap.gauges
                .insert(format!("upa_sched_{name}"), *value as f64);
        } else {
            snap.counters
                .insert(format!("upa_sched_{name}_total"), *value);
        }
    }
    for (name, v) in [
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
    for (dataset, signatures, audits) in state.retained() {
        for (name, v) in [
            ("upa_enforcer_signatures", signatures),
            ("upa_audit_ring_entries", audits),
        ] {
            snap.gauges
                .insert(format!("{name}{{dataset=\"{dataset}\"}}"), v as f64);
        }
    }
    if let Some(catalog) = state.catalog() {
        snap.gauges.insert(
            "upa_store_datasets".to_string(),
            catalog.attached_count() as f64,
        );
        snap.gauges.insert(
            "upa_store_resident_bytes".to_string(),
            state.store_resident_bytes() as f64,
        );
    }
    snap
}

/// Dispatches one request line, appending the reply line to `reply`;
/// returns whether the request was a shutdown.
fn respond(line: &str, state: &ServerState, reply: &mut String) -> bool {
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
    let op = request.op();
    let is_release = matches!(request, Request::Release { .. });
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
    // Prepare/release get a request ID and a trace; the request path
    // records its spans into it.
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
        } => {
            let ctx = RequestCtx {
                trace: trace.as_ref(),
                ..RequestCtx::default()
            };
            state
                .serve(&dataset, query, &column, Ask::Prepare, &ctx)
                .unwrap_or_else(|e| Response::from(&e))
        }
        Request::Release {
            dataset,
            query,
            column,
            epsilon,
            audit,
            deadline_ms,
        } => {
            let ctx = RequestCtx {
                trace: trace.as_ref(),
                deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                want_audit: audit,
            };
            state
                .serve(&dataset, query, &column, Ask::Release(epsilon), &ctx)
                .unwrap_or_else(|e| Response::from(&e))
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
            sched: state.sched_stats(),
            uptime_seconds: obs.uptime_seconds(),
            seq: obs.next_stats_seq(),
        }),
        Request::Metrics => Response::Metrics(MetricsReply::new(scrape(state))),
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
        if is_release {
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
        state: ServerState,
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
            Fixture {
                state: ServerState::new(config).unwrap(),
            }
        }

        fn respond_str(&self, line: &str) -> Json {
            let mut reply = String::new();
            respond(line, &self.state, &mut reply);
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
        // The release found the prepare's cached state and took the fast
        // path — it took no permit, so nothing coalesced.
        assert_eq!(sched.get("coalesced").unwrap().as_u64(), Some(0));
        assert_eq!(sched.get("submitted").unwrap().as_u64(), Some(1));
        let m = &fx.state.obs().m;
        assert_eq!(m.fastpath_hits.get(), 1);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.cache_misses.get(), 0);
    }

    #[test]
    fn deadline_releases_take_a_permit_even_when_cached() {
        let fx = Fixture::new();
        fx.respond_str(r#"{"op":"prepare","dataset":"data","query":"sum","column":"v"}"#);
        let r = fx.respond_str(
            r#"{"op":"release","dataset":"data","query":"sum","column":"v","deadline_ms":60000}"#,
        );
        assert_eq!(r.bool_of("ok"), Some(true));
        // A deadline opts into shedding: the release took a permit
        // (coalescing onto the cached state), not the fast path.
        assert_eq!(fx.state.obs().m.fastpath_hits.get(), 0);
        let s = fx.respond_str(r#"{"op":"stats"}"#);
        let sched = s.get("sched").unwrap();
        assert_eq!(sched.get("submitted").unwrap().as_u64(), Some(2));
        assert_eq!(sched.get("coalesced").unwrap().as_u64(), Some(1));

        // A zero deadline has lapsed by the time a permit is granted: it
        // is shed with its own code, before any spend.
        let shed = fx.respond_str(
            r#"{"op":"release","dataset":"data","query":"mean","column":"v","deadline_ms":0}"#,
        );
        assert_eq!(shed.str_of("code"), Some("deadline"));
        let stats = fx.state.sched_stats();
        assert_eq!((stats.shed_deadline, stats.prepares), (1, 1));
        assert_eq!(stats.completed, stats.submitted);
        assert_eq!(fx.state.budget_of("data"), Ok(Some((1.0, 0.2, 0.8))));
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
            (
                r#"{"op":"release","query":"sum","column":"v","epsilon":-2}"#,
                "bad_request",
            ),
            // Mistyped fields are refused, not served at the defaults.
            (
                r#"{"op":"release","query":"count","epsilon":"0.01"}"#,
                "bad_request",
            ),
            (
                r#"{"op":"release","query":"count","deadline_ms":-1}"#,
                "bad_request",
            ),
            (r#"{"op":"budget","dataset":"x"}"#, "unknown_dataset"),
        ] {
            let reply = fx.respond_str(line);
            assert_eq!(reply.bool_of("ok"), Some(false), "{line}");
            assert_eq!(reply.str_of("code"), Some(code), "{line}");
        }
        // Refused before taking a permit, and nothing was charged.
        assert_eq!(fx.state.sched_stats().submitted, 0);
        assert_eq!(fx.state.budget_of("data"), Ok(Some((1.0, 0.0, 1.0))));
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
        let is_shutdown = respond(r#"{"op":"shutdown"}"#, &fx.state, &mut reply);
        assert!(reply.contains("\"draining\":true"));
        assert!(is_shutdown);
        fx.state.begin_shutdown();
        let refused = fx.respond_str(r#"{"op":"release","query":"count"}"#);
        assert_eq!(refused.str_of("code"), Some("shutting_down"));
        // Health checks and counters still answer while draining.
        assert_eq!(fx.respond_str(r#"{"op":"ping"}"#).bool_of("ok"), Some(true));
        assert!(fx.respond_str(r#"{"op":"stats"}"#).get("sched").is_some());
    }

    #[test]
    fn one_datasets_flood_never_refuses_another() {
        use crate::client::Client;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        // One permit and one waiter per dataset: a flood on `hot` is
        // refused `busy`, while `cold`, asked meanwhile, is always served.
        let datasets = vec![
            DatasetSpec::synthetic("hot", 3_000, 11),
            DatasetSpec::synthetic("cold", 1_500, 7),
        ];
        let config = ServerConfig {
            datasets,
            sample_size: 40,
            threads: 2,
            max_connections: 16,
            max_inflight_prepares: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, "127.0.0.1:0").unwrap();
        let (addr, handle) = (server.local_addr(), server.shutdown_handle());
        let join = std::thread::spawn(move || server.run());
        let give_up = Instant::now() + Duration::from_secs(60);
        let (busy, flooding) = (AtomicU64::new(0), AtomicBool::new(true));
        // A deadline keeps every request on the permit path, cached or not.
        let release = |client: &mut Client, dataset: &str| {
            client.release_with_deadline(dataset, "sum", "v", None, false, Some(60_000))
        };
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| {
                    let mut client = Client::builder().connect(addr).unwrap();
                    while flooding.load(Relaxed) && Instant::now() < give_up {
                        if let Err(e) = release(&mut client, "hot") {
                            assert_eq!(e.code(), Some(ErrorCode::Busy), "{e}");
                            busy.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
            // Five `cold` releases served after `hot` first refused.
            let mut cold = Client::builder().connect(addr).unwrap();
            let mut served = 0;
            while served < 5 {
                assert!(Instant::now() < give_up, "`hot` never refused");
                let refusing = busy.load(Relaxed) > 0;
                release(&mut cold, "cold").expect("a flood elsewhere never refuses `cold`");
                served += usize::from(refusing);
            }
            flooding.store(false, Relaxed);
        });
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
