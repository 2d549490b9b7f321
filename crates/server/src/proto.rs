//! The typed wire protocol: every request and reply the daemon speaks,
//! as closed enums with `to_line`/`from_json` codecs.
//!
//! Both ends share this module — the server parses [`Request`] and
//! prints [`Response`], the client prints [`Request`] and parses
//! [`Response`] — so a protocol change is a change to exactly one file,
//! and the error-code vocabulary ([`ErrorCode`]) cannot drift between
//! sides. The line format itself is unchanged from the stringly v1
//! protocol (one JSON object per `\n`-terminated line, `"ok"`
//! discriminating success), so old clients interoperate.

use crate::obs::{RegistrySnapshot, TraceRecord};
use crate::state::{AggKind, AttachOutcome, DatasetInfo, ReleaseOutcome, ServeError};
use crate::wire::{self, Json};
use upa_core::QueryAudit;

/// The closed set of machine-readable error codes. The server derives
/// them from [`ServeError::code`]; the client parses them back, so both
/// sides agree on the vocabulary by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// No dataset of that name is registered.
    UnknownDataset,
    /// The dataset has no such numeric column.
    UnknownColumn,
    /// The request was malformed.
    BadRequest,
    /// A capacity bound was hit (connection cap, or a dataset's full
    /// waiting line).
    Busy,
    /// The request's deadline expired before it was served.
    Deadline,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The dataset's budget cannot cover the requested ε.
    Budget,
    /// The ledger could not make the spend durable.
    Ledger,
    /// The pipeline failed.
    Pipeline,
    /// An admin op arrived on a server without `--allow-admin`.
    Admin,
    /// A dataset-store operation failed.
    Store,
}

impl ErrorCode {
    /// Every code, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::UnknownDataset,
        ErrorCode::UnknownColumn,
        ErrorCode::BadRequest,
        ErrorCode::Busy,
        ErrorCode::Deadline,
        ErrorCode::ShuttingDown,
        ErrorCode::Budget,
        ErrorCode::Ledger,
        ErrorCode::Pipeline,
        ErrorCode::Admin,
        ErrorCode::Store,
    ];

    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::UnknownColumn => "unknown_column",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Busy => "busy",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Budget => "budget",
            ErrorCode::Ledger => "ledger",
            ErrorCode::Pipeline => "pipeline",
            ErrorCode::Admin => "admin",
            ErrorCode::Store => "store",
        }
    }

    /// Parses a wire spelling (`None` for anything outside the closed
    /// set).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health check (answered even while draining).
    Ping,
    /// List the served dataset names.
    Datasets,
    /// Run (or coalesce onto) phases 1–3 for a query.
    Prepare {
        /// Dataset name.
        dataset: String,
        /// Aggregate kind.
        query: AggKind,
        /// Column (empty for `count`).
        column: String,
    },
    /// Release one differentially private answer.
    Release {
        /// Dataset name.
        dataset: String,
        /// Aggregate kind.
        query: AggKind,
        /// Column (empty for `count`).
        column: String,
        /// Per-release ε override.
        epsilon: Option<f64>,
        /// Ask for the release's audit record.
        audit: bool,
        /// Shed the request with a `deadline` error if it cannot be
        /// served within this many milliseconds of arrival.
        deadline_ms: Option<u64>,
    },
    /// The dataset's budget.
    Budget {
        /// Dataset name.
        dataset: String,
    },
    /// The dataset's most recent audits.
    Audit {
        /// Dataset name.
        dataset: String,
        /// How many recent audits (every retained audit when absent).
        last: Option<u64>,
    },
    /// Admission counters (waiting requests, coalesced hits, shed
    /// requests), plus uptime and a monotonic snapshot sequence number.
    Stats,
    /// The full metrics registry: Prometheus-style text exposition plus
    /// the structured JSON form (answered even while draining).
    Metrics,
    /// Retained request traces, by ID or the most recent `last`.
    Trace {
        /// A specific request ID (`r-N`); takes precedence over `last`.
        id: Option<String>,
        /// How many recent traces (1 when both fields are absent).
        last: Option<u64>,
    },
    /// Ingest a server-local CSV file into the store (admin-gated).
    Ingest {
        /// Server-local path of the CSV file.
        path: String,
        /// Dataset name (defaults to the file stem).
        dataset: Option<String>,
    },
    /// Attach (or reload) a store dataset into the serving set
    /// (admin-gated).
    Attach {
        /// Dataset name.
        dataset: String,
    },
    /// Detach a dataset from the serving set (admin-gated); its spent ε
    /// survives for a later re-attach.
    Detach {
        /// Dataset name.
        dataset: String,
    },
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => "{\"op\":\"ping\"}".to_string(),
            Request::Datasets => "{\"op\":\"datasets\"}".to_string(),
            Request::Prepare {
                dataset,
                query,
                column,
            } => format!(
                "{{\"op\":\"prepare\",\"dataset\":{},\"query\":{},\"column\":{}}}",
                wire::json_str(dataset),
                wire::json_str(query.as_str()),
                wire::json_str(column)
            ),
            Request::Release {
                dataset,
                query,
                column,
                epsilon,
                audit,
                deadline_ms,
            } => {
                let mut s = format!(
                    "{{\"op\":\"release\",\"dataset\":{},\"query\":{},\"column\":{}",
                    wire::json_str(dataset),
                    wire::json_str(query.as_str()),
                    wire::json_str(column)
                );
                if let Some(eps) = epsilon {
                    s.push_str(&format!(",\"epsilon\":{}", wire::json_num(*eps)));
                }
                if *audit {
                    s.push_str(",\"audit\":true");
                }
                if let Some(ms) = deadline_ms {
                    s.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                s.push('}');
                s
            }
            Request::Budget { dataset } => format!(
                "{{\"op\":\"budget\",\"dataset\":{}}}",
                wire::json_str(dataset)
            ),
            Request::Audit { dataset, last } => {
                let mut s = format!("{{\"op\":\"audit\",\"dataset\":{}", wire::json_str(dataset));
                if let Some(n) = last {
                    s.push_str(&format!(",\"last\":{n}"));
                }
                s.push('}');
                s
            }
            Request::Stats => "{\"op\":\"stats\"}".to_string(),
            Request::Metrics => "{\"op\":\"metrics\"}".to_string(),
            Request::Trace { id, last } => {
                let mut s = String::from("{\"op\":\"trace\"");
                if let Some(id) = id {
                    s.push_str(&format!(",\"id\":{}", wire::json_str(id)));
                }
                if let Some(n) = last {
                    s.push_str(&format!(",\"last\":{n}"));
                }
                s.push('}');
                s
            }
            Request::Ingest { path, dataset } => {
                let mut s = format!("{{\"op\":\"ingest\",\"path\":{}", wire::json_str(path));
                if let Some(d) = dataset {
                    s.push_str(&format!(",\"dataset\":{}", wire::json_str(d)));
                }
                s.push('}');
                s
            }
            Request::Attach { dataset } => format!(
                "{{\"op\":\"attach\",\"dataset\":{}}}",
                wire::json_str(dataset)
            ),
            Request::Detach { dataset } => format!(
                "{{\"op\":\"detach\",\"dataset\":{}}}",
                wire::json_str(dataset)
            ),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses one request object. `dataset` defaults to `"data"`,
    /// matching the v1 protocol; `column` is required for `sum`/`mean`.
    ///
    /// # Errors
    ///
    /// A `bad_request`-worthy message for unknown ops, missing fields,
    /// or an optional field present with the wrong type.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v.str_of("op").unwrap_or("");
        let count = |name| optional(v, name, Json::as_u64, "a non-negative integer");
        match op {
            "ping" => Ok(Request::Ping),
            "datasets" => Ok(Request::Datasets),
            "prepare" => {
                let (dataset, query, column) = Self::query_fields(v)?;
                Ok(Request::Prepare {
                    dataset,
                    query,
                    column,
                })
            }
            "release" => {
                let (dataset, query, column) = Self::query_fields(v)?;
                Ok(Request::Release {
                    dataset,
                    query,
                    column,
                    epsilon: optional(v, "epsilon", Json::as_f64, "a number")?,
                    audit: optional(v, "audit", Json::as_bool, "a boolean")?.unwrap_or(false),
                    deadline_ms: count("deadline_ms")?,
                })
            }
            "budget" => Ok(Request::Budget {
                dataset: v.str_of("dataset").unwrap_or("data").to_string(),
            }),
            "audit" => Ok(Request::Audit {
                dataset: v.str_of("dataset").unwrap_or("data").to_string(),
                last: count("last")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace {
                id: v.str_of("id").map(str::to_string),
                last: count("last")?,
            }),
            "ingest" => Ok(Request::Ingest {
                path: v
                    .str_of("path")
                    .ok_or_else(|| "missing 'path'".to_string())?
                    .to_string(),
                dataset: v.str_of("dataset").map(str::to_string),
            }),
            "attach" => Ok(Request::Attach {
                dataset: v
                    .str_of("dataset")
                    .ok_or_else(|| "missing 'dataset'".to_string())?
                    .to_string(),
            }),
            "detach" => Ok(Request::Detach {
                dataset: v
                    .str_of("dataset")
                    .ok_or_else(|| "missing 'dataset'".to_string())?
                    .to_string(),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op '{other}' \
                 (ping|datasets|prepare|release|budget|audit|stats|metrics|trace\
                 |ingest|attach|detach|shutdown)"
            )),
        }
    }

    fn query_fields(v: &Json) -> Result<(String, AggKind, String), String> {
        let dataset = v.str_of("dataset").unwrap_or("data").to_string();
        let query: AggKind = v
            .str_of("query")
            .ok_or_else(|| "missing 'query'".to_string())?
            .parse()?;
        let column = v.str_of("column").unwrap_or("").to_string();
        if query != AggKind::Count && column.is_empty() {
            return Err("'column' is required for sum/mean".into());
        }
        Ok((dataset, query, column))
    }
}

/// Member `name` read by `read`: `None` when absent or `null`, and an
/// error naming the field when present with another type, so that a
/// mistyped `epsilon` is never charged at the default ε.
fn optional<T>(
    v: &Json,
    name: &str,
    read: impl Fn(&Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, String> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => read(field)
            .map(Some)
            .ok_or_else(|| format!("'{name}' must be {what}")),
    }
}

/// Counters of the requests past the fast path — cache misses and
/// requests with a deadline — as the `stats` op reports them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests currently waiting for a permit, across every dataset.
    pub queued: u64,
    /// High-water mark of `queued`.
    pub peak_queued: u64,
    /// Requests admitted (granted a permit or allowed to wait for one).
    pub submitted: u64,
    /// Admitted requests finished (served, errored, or shed).
    pub completed: u64,
    /// Engine prepares actually run.
    pub prepares: u64,
    /// Requests that obtained prepared state without running their own
    /// prepare (cache hits and in-flight waiters).
    pub coalesced: u64,
    /// Requests shed because their deadline expired before the spend.
    pub shed_deadline: u64,
    /// Requests refused because their dataset already had
    /// `queue_capacity` requests waiting.
    pub busy_rejected: u64,
    /// Single-flight groups: engine runs together with the callers
    /// that waited on each.
    pub batches: u64,
    /// Largest single-flight group.
    pub peak_batch: u64,
}

impl SchedStats {
    /// The fraction of prepared-state acquisitions that coalesced
    /// instead of running the engine (0 when nothing ran).
    pub fn coalesce_rate(&self) -> f64 {
        let total = self.prepares + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.coalesced as f64 / total as f64
        }
    }

    /// Every counter with its wire name, in wire order.
    pub(crate) fn counters(&mut self) -> [(&'static str, &mut u64); 10] {
        [
            ("queued", &mut self.queued),
            ("peak_queued", &mut self.peak_queued),
            ("submitted", &mut self.submitted),
            ("completed", &mut self.completed),
            ("prepares", &mut self.prepares),
            ("coalesced", &mut self.coalesced),
            ("shed_deadline", &mut self.shed_deadline),
            ("busy_rejected", &mut self.busy_rejected),
            ("batches", &mut self.batches),
            ("peak_batch", &mut self.peak_batch),
        ]
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> String {
        let mut stats = self.clone();
        let fields = stats.counters().map(|(name, n)| format!("\"{name}\":{n}"));
        format!("{{{}}}", fields.join(","))
    }

    /// Parses the [`SchedStats::to_json`] form.
    ///
    /// # Errors
    ///
    /// A message naming the missing counter.
    pub fn from_json(v: &Json) -> Result<SchedStats, String> {
        let mut stats = SchedStats::default();
        for (name, value) in stats.counters() {
            *value = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats reply missing '{name}'"))?;
        }
        Ok(stats)
    }
}

/// The `stats` reply's body: the counters of the requests past the fast
/// path plus process-scoped scrape bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Counters of the requests past the fast path.
    pub sched: SchedStats,
    /// Seconds since the server state was built; a drop between scrapes
    /// means a restart (and that every lifetime counter reset).
    pub uptime_seconds: f64,
    /// Monotonic per-process snapshot sequence number (increments on
    /// every `stats` reply), for rate computation and restart detection.
    pub seq: u64,
}

/// The `metrics` reply's body: the same snapshot twice — once as
/// Prometheus-style text for scrapers, once structured for programs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReply {
    /// Prometheus-style text exposition.
    pub exposition: String,
    /// The structured registry snapshot the exposition was rendered
    /// from.
    pub snapshot: RegistrySnapshot,
}

impl MetricsReply {
    /// Renders the exposition from `snapshot` (the two fields can never
    /// disagree on the server side).
    pub fn new(snapshot: RegistrySnapshot) -> MetricsReply {
        MetricsReply {
            exposition: snapshot.exposition(),
            snapshot,
        }
    }
}

/// The `datasets` reply's body: the served names, per-dataset shape
/// details and any store datasets published on disk but not attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetsReply {
    /// Served dataset names, sorted.
    pub names: Vec<String>,
    /// Shape details for each served dataset, sorted by name.
    pub info: Vec<DatasetInfo>,
    /// Store datasets on disk but not currently served, sorted.
    pub available: Vec<String>,
}

/// A successful `prepare` reply's body.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedInfo {
    /// Query identity (`dataset/kind/column`).
    pub query_id: String,
    /// Effective sample size of the prepared state.
    pub sample_size: usize,
    /// Whether the caller coalesced onto existing state (shared cache or
    /// another caller's in-flight prepare) instead of running its own.
    pub cached: bool,
}

/// One server reply.
#[derive(Debug, Clone)]
pub enum Response {
    /// Bare success (`ping`).
    Ok,
    /// The served datasets (names, shapes, and unattached store
    /// datasets).
    Datasets(DatasetsReply),
    /// A dataset was attached (or reloaded) into the serving set.
    Attached(AttachOutcome),
    /// A dataset was detached from the serving set.
    Detached {
        /// Dataset name.
        dataset: String,
    },
    /// A CSV file was ingested into the store.
    Ingested {
        /// Dataset name as published.
        dataset: String,
        /// Rows per column.
        rows: u64,
        /// Numeric columns kept.
        columns: Vec<String>,
        /// Chunk files written.
        chunks: u64,
        /// Bytes written (chunks plus manifest).
        bytes: u64,
    },
    /// Prepared (or coalesced) query state.
    Prepared(PreparedInfo),
    /// A released noisy answer (boxed: the audit payload makes this
    /// variant an order of magnitude larger than its siblings).
    Released(Box<ReleaseOutcome>),
    /// A dataset's budget as `(total, spent, remaining)` (`None` when
    /// the server is unmetered).
    Budget {
        /// Dataset name.
        dataset: String,
        /// `(total, spent, remaining)` when metered.
        budget: Option<(f64, f64, f64)>,
    },
    /// A dataset's recent audits, oldest first.
    Audits {
        /// Dataset name.
        dataset: String,
        /// The audit records.
        audits: Vec<QueryAudit>,
    },
    /// Admission counters plus uptime and scrape sequence.
    Stats(StatsReply),
    /// The metrics registry, as text exposition plus structured JSON.
    Metrics(MetricsReply),
    /// Retained request traces, oldest first.
    Traces(Vec<TraceRecord>),
    /// Shutdown accepted; the server is draining.
    Draining,
    /// A refusal, with its stable code.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
}

impl From<&ServeError> for Response {
    fn from(e: &ServeError) -> Response {
        Response::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

impl Response {
    /// Serializes to one `\n`-terminated protocol line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    /// Appends the `\n`-terminated protocol line to `out`. The serving
    /// hot path reuses one per-connection buffer across replies, so a
    /// release costs zero reply-side allocations once the buffer has
    /// grown to steady state.
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Response::Ok => out.push_str("{\"ok\":true}\n"),
            Response::Datasets(reply) => {
                out.push_str("{\"ok\":true,\"datasets\":[");
                for (i, n) in reply.names.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    wire::push_json_str(out, n);
                }
                out.push_str("],\"info\":[");
                for (i, d) in reply.info.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    wire::push_json_str(out, &d.name);
                    let _ = write!(out, ",\"rows\":{},\"columns\":[", d.rows);
                    for (j, c) in d.columns.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        wire::push_json_str(out, c);
                    }
                    let _ = write!(out, "],\"resident_bytes\":{}}}", d.resident_bytes);
                }
                out.push_str("],\"available\":[");
                for (i, n) in reply.available.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    wire::push_json_str(out, n);
                }
                out.push_str("]}\n");
            }
            Response::Attached(a) => {
                out.push_str("{\"ok\":true,\"attached\":");
                wire::push_json_str(out, &a.dataset);
                let _ = write!(
                    out,
                    ",\"rows\":{},\"resident_bytes\":{},\"reloaded\":{}}}",
                    a.rows, a.resident_bytes, a.reloaded
                );
                out.push('\n');
            }
            Response::Detached { dataset } => {
                out.push_str("{\"ok\":true,\"detached\":");
                wire::push_json_str(out, dataset);
                out.push_str("}\n");
            }
            Response::Ingested {
                dataset,
                rows,
                columns,
                chunks,
                bytes,
            } => {
                out.push_str("{\"ok\":true,\"ingested\":");
                wire::push_json_str(out, dataset);
                let _ = write!(out, ",\"rows\":{rows},\"columns\":[");
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    wire::push_json_str(out, c);
                }
                let _ = write!(out, "],\"chunks\":{chunks},\"bytes\":{bytes}}}");
                out.push('\n');
            }
            Response::Prepared(info) => {
                out.push_str("{\"ok\":true,\"query_id\":");
                wire::push_json_str(out, &info.query_id);
                let _ = write!(
                    out,
                    ",\"sample_size\":{},\"cached\":{}}}",
                    info.sample_size, info.cached
                );
                out.push('\n');
            }
            Response::Released(outcome) => {
                out.push_str("{\"ok\":true,\"query_id\":");
                wire::push_json_str(out, &outcome.query_id);
                out.push_str(",\"released\":");
                wire::push_json_num(out, outcome.released);
                out.push_str(",\"epsilon\":");
                wire::push_json_num(out, outcome.epsilon);
                out.push_str(",\"noise_scale\":");
                wire::push_json_num(out, outcome.noise_scale);
                let _ = write!(out, ",\"sample_size\":{}", outcome.sample_size);
                match outcome.budget_remaining {
                    Some(rem) => {
                        out.push_str(",\"budget_remaining\":");
                        wire::push_json_num(out, rem);
                    }
                    None => out.push_str(",\"budget_remaining\":null"),
                }
                let _ = write!(
                    out,
                    ",\"cache\":\"{}\"",
                    if outcome.cached { "hit" } else { "miss" }
                );
                if let Some(us) = outcome.prepare_us {
                    let _ = write!(out, ",\"prepare_us\":{us}");
                }
                if let Some(audit) = &outcome.audit {
                    out.push_str(",\"audit\":");
                    out.push_str(&audit.to_json());
                }
                out.push_str("}\n");
            }
            Response::Budget { dataset, budget } => {
                out.push_str("{\"ok\":true,\"dataset\":");
                wire::push_json_str(out, dataset);
                match budget {
                    Some((total, spent, remaining)) => {
                        out.push_str(",\"total\":");
                        wire::push_json_num(out, *total);
                        out.push_str(",\"spent\":");
                        wire::push_json_num(out, *spent);
                        out.push_str(",\"remaining\":");
                        wire::push_json_num(out, *remaining);
                        out.push_str("}\n");
                    }
                    None => {
                        out.push_str(",\"total\":null,\"spent\":null,\"remaining\":null}\n");
                    }
                }
            }
            Response::Audits { dataset, audits } => {
                out.push_str("{\"ok\":true,\"dataset\":");
                wire::push_json_str(out, dataset);
                out.push_str(",\"audits\":[");
                for (i, a) in audits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&a.to_json());
                }
                out.push_str("]}\n");
            }
            Response::Stats(reply) => {
                out.push_str("{\"ok\":true,\"sched\":");
                out.push_str(&reply.sched.to_json());
                out.push_str(",\"uptime_seconds\":");
                wire::push_json_num(out, reply.uptime_seconds);
                let _ = write!(out, ",\"seq\":{}}}", reply.seq);
                out.push('\n');
            }
            Response::Metrics(reply) => {
                out.push_str("{\"ok\":true,\"exposition\":");
                wire::push_json_str(out, &reply.exposition);
                out.push_str(",\"metrics\":");
                out.push_str(&reply.snapshot.to_json());
                out.push_str("}\n");
            }
            Response::Traces(traces) => {
                out.push_str("{\"ok\":true,\"traces\":[");
                for (i, t) in traces.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&t.to_json());
                }
                out.push_str("]}\n");
            }
            Response::Draining => out.push_str("{\"ok\":true,\"draining\":true}\n"),
            Response::Error { code, message } => {
                out.push_str("{\"ok\":false,\"code\":");
                wire::push_json_str(out, code.as_str());
                out.push_str(",\"error\":");
                wire::push_json_str(out, message);
                out.push_str("}\n");
            }
        }
    }

    /// Parses one reply object, discriminating on its fields (the line
    /// protocol is stateless — every reply shape is self-describing).
    ///
    /// # Errors
    ///
    /// A protocol-error message for shapes outside the closed set.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        match v.bool_of("ok") {
            Some(true) => {}
            Some(false) => {
                let code_str = v.str_of("code").unwrap_or("");
                let code = ErrorCode::parse(code_str)
                    .ok_or_else(|| format!("unknown error code '{code_str}'"))?;
                return Ok(Response::Error {
                    code,
                    message: v.str_of("error").unwrap_or("").to_string(),
                });
            }
            None => return Err("reply missing 'ok'".into()),
        }
        if v.bool_of("draining") == Some(true) {
            return Ok(Response::Draining);
        }
        let str_arr = |field: &str| -> Option<Vec<String>> {
            let arr = v.get(field)?.as_arr()?;
            Some(
                arr.iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect(),
            )
        };
        if let Some(names) = str_arr("datasets") {
            let info = v
                .get("info")
                .and_then(Json::as_arr)
                .ok_or("datasets reply missing 'info'")?
                .iter()
                .filter_map(|d| {
                    Some(DatasetInfo {
                        name: d.str_of("name")?.to_string(),
                        rows: d.get("rows").and_then(Json::as_u64)?,
                        columns: d
                            .get("columns")?
                            .as_arr()?
                            .iter()
                            .filter_map(|c| c.as_str().map(str::to_string))
                            .collect(),
                        resident_bytes: d.get("resident_bytes").and_then(Json::as_u64)?,
                    })
                })
                .collect();
            return Ok(Response::Datasets(DatasetsReply {
                names,
                info,
                available: str_arr("available").ok_or("datasets reply missing 'available'")?,
            }));
        }
        if let Some(dataset) = v.str_of("attached") {
            return Ok(Response::Attached(AttachOutcome {
                dataset: dataset.to_string(),
                rows: v.get("rows").and_then(Json::as_u64).unwrap_or(0),
                resident_bytes: v.get("resident_bytes").and_then(Json::as_u64).unwrap_or(0),
                reloaded: v.bool_of("reloaded").unwrap_or(false),
            }));
        }
        if let Some(dataset) = v.str_of("detached") {
            return Ok(Response::Detached {
                dataset: dataset.to_string(),
            });
        }
        if let Some(dataset) = v.str_of("ingested") {
            return Ok(Response::Ingested {
                dataset: dataset.to_string(),
                rows: v.get("rows").and_then(Json::as_u64).unwrap_or(0),
                columns: str_arr("columns").unwrap_or_default(),
                chunks: v.get("chunks").and_then(Json::as_u64).unwrap_or(0),
                bytes: v.get("bytes").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        if let Some(sched) = v.get("sched") {
            return Ok(Response::Stats(StatsReply {
                sched: SchedStats::from_json(sched)?,
                uptime_seconds: v
                    .num_of("uptime_seconds")
                    .ok_or("stats reply missing 'uptime_seconds'")?,
                seq: v
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or("stats reply missing 'seq'")?,
            }));
        }
        if let Some(metrics) = v.get("metrics") {
            let snapshot = RegistrySnapshot::from_json(metrics)
                .ok_or_else(|| "malformed metrics snapshot in reply".to_string())?;
            return Ok(Response::Metrics(MetricsReply {
                exposition: v.str_of("exposition").unwrap_or("").to_string(),
                snapshot,
            }));
        }
        if let Some(arr) = v.get("traces").and_then(Json::as_arr) {
            let traces = arr
                .iter()
                .map(|t| {
                    TraceRecord::from_json(t).ok_or_else(|| "malformed trace in reply".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Traces(traces));
        }
        if let Some(arr) = v.get("audits").and_then(Json::as_arr) {
            let audits = arr
                .iter()
                .map(|a| {
                    QueryAudit::from_json(a).ok_or_else(|| "malformed audit in reply".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Audits {
                dataset: v.str_of("dataset").unwrap_or("").to_string(),
                audits,
            });
        }
        if v.get("released").is_some() {
            // `json_num` writes non-finite floats as null; map them back
            // to NaN rather than inventing a finite value.
            let num_or_nan = |name: &str| match v.get(name) {
                Some(Json::Null) => Ok(f64::NAN),
                Some(field) => field
                    .as_f64()
                    .ok_or_else(|| format!("reply field '{name}' is not a number")),
                None => Err(format!("reply missing '{name}'")),
            };
            return Ok(Response::Released(Box::new(ReleaseOutcome {
                query_id: v.str_of("query_id").unwrap_or("").to_string(),
                released: num_or_nan("released")?,
                epsilon: num_or_nan("epsilon")?,
                noise_scale: num_or_nan("noise_scale")?,
                sample_size: v.get("sample_size").and_then(Json::as_u64).unwrap_or(0) as usize,
                budget_remaining: v.num_of("budget_remaining"),
                cached: match v.str_of("cache") {
                    Some("hit") => true,
                    Some("miss") => false,
                    _ => return Err("released reply missing 'cache'".into()),
                },
                prepare_us: v.get("prepare_us").and_then(Json::as_u64),
                audit: v.get("audit").and_then(QueryAudit::from_json),
            })));
        }
        if let Some(query_id) = v.str_of("query_id") {
            return Ok(Response::Prepared(PreparedInfo {
                query_id: query_id.to_string(),
                sample_size: v.get("sample_size").and_then(Json::as_u64).unwrap_or(0) as usize,
                cached: v.bool_of("cached").unwrap_or(false),
            }));
        }
        if let Some(total) = v.get("total") {
            let dataset = v.str_of("dataset").unwrap_or("").to_string();
            let budget = match (total.as_f64(), v.num_of("spent"), v.num_of("remaining")) {
                (Some(t), Some(s), Some(r)) => Some((t, s, r)),
                _ => None,
            };
            return Ok(Response::Budget { dataset, budget });
        }
        Ok(Response::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse_request(req: &Request) -> Request {
        let parsed = wire::parse(&req.to_line()).expect("request line parses");
        Request::from_json(&parsed).expect("request decodes")
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            let line = Response::Error {
                code,
                message: format!("m:{code}"),
            }
            .to_line();
            let parsed = wire::parse(line.trim()).expect("error line parses");
            match Response::from_json(&parsed).expect("error decodes") {
                Response::Error {
                    code: got, message, ..
                } => {
                    assert_eq!(got, code);
                    assert_eq!(message, format!("m:{code}"));
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn serve_error_codes_stay_inside_the_closed_set() {
        // Every ServeError variant maps into the shared enum — a new
        // variant without a wire spelling fails to compile, not at
        // runtime in a client.
        let errors = [
            ServeError::UnknownDataset("d".into()),
            ServeError::UnknownColumn {
                dataset: "d".into(),
                column: "c".into(),
            },
            ServeError::BadRequest("m".into()),
            ServeError::Busy,
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::BudgetExhausted {
                remaining: 0.1,
                requested: 0.2,
            },
            ServeError::Ledger("m".into()),
            ServeError::Pipeline("m".into()),
            ServeError::AdminDisabled,
            ServeError::Store("m".into()),
        ];
        for e in &errors {
            assert_eq!(ErrorCode::parse(e.code().as_str()), Some(e.code()));
        }
    }

    #[test]
    fn request_shapes_round_trip() {
        let requests = [
            Request::Ping,
            Request::Datasets,
            Request::Prepare {
                dataset: "people".into(),
                query: AggKind::Mean,
                column: "age".into(),
            },
            Request::Release {
                dataset: "da\"ta".into(),
                query: AggKind::Sum,
                column: "v".into(),
                epsilon: Some(0.25),
                audit: true,
                deadline_ms: Some(150),
            },
            Request::Release {
                dataset: "data".into(),
                query: AggKind::Count,
                column: String::new(),
                epsilon: None,
                audit: false,
                deadline_ms: None,
            },
            Request::Budget {
                dataset: "data".into(),
            },
            Request::Audit {
                dataset: "data".into(),
                last: Some(3),
            },
            Request::Stats,
            Request::Metrics,
            Request::Trace {
                id: Some("r-12".into()),
                last: None,
            },
            Request::Trace {
                id: None,
                last: Some(5),
            },
            Request::Ingest {
                path: "/data/people.csv".into(),
                dataset: Some("people".into()),
            },
            Request::Ingest {
                path: "people.csv".into(),
                dataset: None,
            },
            Request::Attach {
                dataset: "people".into(),
            },
            Request::Detach {
                dataset: "people".into(),
            },
            Request::Shutdown,
        ];
        for req in &requests {
            assert_eq!(&reparse_request(req), req, "{req:?}");
        }
    }

    fn reparse_response(resp: &Response) -> Response {
        let parsed = wire::parse(resp.to_line().trim()).expect("response line parses");
        Response::from_json(&parsed).expect("response decodes")
    }

    #[test]
    fn datasets_reply_round_trips_with_info_and_available() {
        let reply = DatasetsReply {
            names: vec!["people".into(), "taxi".into()],
            info: vec![DatasetInfo {
                name: "people".into(),
                rows: 1_000,
                columns: vec!["age".into(), "income".into()],
                resident_bytes: 16_000,
            }],
            available: vec!["census".into()],
        };
        match reparse_response(&Response::Datasets(reply.clone())) {
            Response::Datasets(got) => assert_eq!(got, reply),
            other => panic!("expected Datasets, got {other:?}"),
        }
        // `info` and `available` are part of the reply, not extras: the
        // bare-names shape is a decode error naming what is missing.
        for (line, missing) in [
            ("{\"ok\":true,\"datasets\":[\"d\"]}", "'info'"),
            (
                "{\"ok\":true,\"datasets\":[\"d\"],\"info\":[]}",
                "'available'",
            ),
        ] {
            let err = Response::from_json(&wire::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(missing), "{line}: {err}");
        }
    }

    #[test]
    fn store_admin_replies_round_trip() {
        let attached = Response::Attached(AttachOutcome {
            dataset: "people".into(),
            rows: 42,
            resident_bytes: 672,
            reloaded: true,
        });
        match reparse_response(&attached) {
            Response::Attached(got) => {
                assert_eq!(got.dataset, "people");
                assert_eq!(got.rows, 42);
                assert_eq!(got.resident_bytes, 672);
                assert!(got.reloaded);
            }
            other => panic!("expected Attached, got {other:?}"),
        }
        match reparse_response(&Response::Detached {
            dataset: "people".into(),
        }) {
            Response::Detached { dataset } => assert_eq!(dataset, "people"),
            other => panic!("expected Detached, got {other:?}"),
        }
        let ingested = Response::Ingested {
            dataset: "people".into(),
            rows: 42,
            columns: vec!["age".into()],
            chunks: 1,
            bytes: 500,
        };
        match reparse_response(&ingested) {
            Response::Ingested {
                dataset,
                rows,
                columns,
                chunks,
                bytes,
            } => {
                assert_eq!(dataset, "people");
                assert_eq!(rows, 42);
                assert_eq!(columns, vec!["age"]);
                assert_eq!(chunks, 1);
                assert_eq!(bytes, 500);
            }
            other => panic!("expected Ingested, got {other:?}"),
        }
    }

    #[test]
    fn release_cache_metadata_round_trips() {
        let outcome = |cached: bool, prepare_us: Option<u64>| {
            Response::Released(Box::new(ReleaseOutcome {
                query_id: "d/sum/v".into(),
                released: 1.5,
                epsilon: 0.1,
                noise_scale: 2.0,
                sample_size: 10,
                budget_remaining: None,
                cached,
                prepare_us,
                audit: None,
            }))
        };
        let miss = outcome(false, Some(1234));
        assert!(miss.to_line().contains("\"cache\":\"miss\""));
        match reparse_response(&miss) {
            Response::Released(out) => {
                assert!(!out.cached);
                assert_eq!(out.prepare_us, Some(1234));
            }
            other => panic!("expected Released, got {other:?}"),
        }
        let hit = outcome(true, None);
        assert!(hit.to_line().contains("\"cache\":\"hit\""));
        match reparse_response(&hit) {
            Response::Released(out) => {
                assert!(out.cached);
                assert_eq!(out.prepare_us, None);
            }
            other => panic!("expected Released, got {other:?}"),
        }
    }

    #[test]
    fn release_decodes_null_released_as_nan() {
        // Non-finite values (a degenerate MLE fit can produce them) go
        // over the wire as null; the decode side must hand back NaN, not
        // a protocol error or a fake finite number.
        let parsed = wire::parse(
            "{\"ok\":true,\"query_id\":\"d/sum/v\",\"released\":null,\"epsilon\":0.1,\
             \"noise_scale\":null,\"sample_size\":10,\"budget_remaining\":null,\
             \"cache\":\"hit\"}",
        )
        .unwrap();
        match Response::from_json(&parsed).unwrap() {
            Response::Released(out) => {
                assert!(out.released.is_nan());
                assert!(out.noise_scale.is_nan());
                assert_eq!(out.epsilon, 0.1);
                assert_eq!(out.budget_remaining, None);
            }
            other => panic!("expected Released, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_decode_errors() {
        for line in [
            "{\"op\":\"mystery\"}",
            "{\"op\":\"release\"}",
            "{\"op\":\"release\",\"query\":\"sum\"}",
            "{\"op\":\"release\",\"query\":\"median\",\"column\":\"v\"}",
        ] {
            let parsed = wire::parse(line).unwrap();
            assert!(Request::from_json(&parsed).is_err(), "{line}");
        }
        // A mistyped optional field is named, never ignored.
        for (op, field) in [
            ("release", r#""epsilon":"0.01""#),
            ("release", r#""epsilon":true"#),
            ("release", r#""deadline_ms":-1"#),
            ("release", r#""deadline_ms":1.5"#),
            ("release", r#""audit":"yes""#),
            ("audit", r#""last":"3""#),
            ("trace", r#""last":-2"#),
        ] {
            let line = format!(r#"{{"op":"{op}","query":"count",{field}}}"#);
            let name = field.split('"').nth(1).expect("a quoted name");
            let err = Request::from_json(&wire::parse(&line).unwrap()).unwrap_err();
            assert!(err.contains(&format!("'{name}'")), "{line}: {err}");
        }
        // Absent and null both mean "not given".
        let line = r#"{"op":"release","query":"count","epsilon":null,"deadline_ms":null}"#;
        let request = Request::from_json(&wire::parse(line).unwrap()).unwrap();
        assert!(matches!(
            request,
            Request::Release {
                epsilon: None,
                deadline_ms: None,
                ..
            }
        ));
    }

    #[test]
    fn stats_response_round_trips() {
        let reply = StatsReply {
            sched: SchedStats {
                queued: 2,
                peak_queued: 7,
                submitted: 100,
                completed: 98,
                prepares: 3,
                coalesced: 95,
                shed_deadline: 1,
                busy_rejected: 4,
                batches: 9,
                peak_batch: 12,
            },
            uptime_seconds: 12.5,
            seq: 42,
        };
        let line = Response::Stats(reply.clone()).to_line();
        let parsed = wire::parse(line.trim()).unwrap();
        match Response::from_json(&parsed).unwrap() {
            Response::Stats(got) => assert_eq!(got, reply),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn replies_missing_required_fields_are_rejected() {
        let sched = "\"sched\":{\"queued\":0,\"peak_queued\":0,\"submitted\":1,\
             \"completed\":1,\"prepares\":1,\"coalesced\":0,\"shed_deadline\":0,\
             \"busy_rejected\":0,\"batches\":1,\"peak_batch\":1}";
        let released = "\"query_id\":\"d/sum/v\",\"released\":1.5,\"epsilon\":0.1,\
             \"noise_scale\":2,\"sample_size\":10,\"budget_remaining\":null";
        for (line, missing) in [
            (format!("{{\"ok\":true,{sched}}}"), "'uptime_seconds'"),
            (
                format!("{{\"ok\":true,{sched},\"uptime_seconds\":1.5}}"),
                "'seq'",
            ),
            (format!("{{\"ok\":true,{released}}}"), "'cache'"),
        ] {
            let err = Response::from_json(&wire::parse(&line).unwrap()).unwrap_err();
            assert!(err.contains(missing), "{line}: {err}");
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        use crate::obs::Registry;
        let registry = Registry::new();
        registry
            .counter("upa_requests_total{op=\"release\"}")
            .add(3);
        registry
            .gauge("upa_budget_epsilon_remaining{dataset=\"d\"}")
            .set(0.5);
        registry.histogram("upa_release_latency_us").record(777);
        let reply = MetricsReply::new(registry.snapshot());
        let line = Response::Metrics(reply.clone()).to_line();
        let parsed = wire::parse(line.trim()).unwrap();
        match Response::from_json(&parsed).unwrap() {
            Response::Metrics(got) => {
                assert_eq!(got, reply);
                assert!(got.exposition.contains("upa_release_latency_us_count 1"));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn traces_response_round_trips() {
        use crate::obs::Trace;
        let t = Trace::new("r-9", "release", "data");
        t.set_query_id("data/sum/v");
        let now = std::time::Instant::now();
        t.span("queue_wait", now, now);
        let reply = vec![t.finish("ok")];
        let line = Response::Traces(reply.clone()).to_line();
        let parsed = wire::parse(line.trim()).unwrap();
        match Response::from_json(&parsed).unwrap() {
            Response::Traces(got) => assert_eq!(got, reply),
            other => panic!("expected Traces, got {other:?}"),
        }
    }
}
