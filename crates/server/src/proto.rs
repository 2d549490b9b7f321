//! The typed wire protocol: every request and reply the daemon speaks,
//! as closed enums with `to_line`/`from_json` codecs.
//!
//! Both ends share this module — the server parses [`Request`] and
//! prints [`Response`], the client prints [`Request`] and parses
//! [`Response`] — so a protocol change is a change to exactly one file,
//! and the error-code vocabulary ([`ErrorCode`]) cannot drift between
//! sides. A line is one JSON object terminated by `\n`: requests carry
//! `"op"`, replies carry `"ok"`.
//!
//! The protocol is one table. Each op name is spelled once, in the
//! request table behind [`Request::OPS`]; each reply variant is listed
//! once, in decode order, with the key that identifies it; each body
//! lists its wire fields once, and the encoder and the decoder are both
//! expanded from that list by the `upa-json` row codec, which every
//! nested record (audits, traces, metrics) shares. Every field the
//! encoder writes is required by the decoder unless its row says
//! otherwise: `[optional]` rows are left out when not given and read
//! back as not given when absent or `null`, and two request rows fall
//! back to a default in that case (`dataset` = `data`, `column` =
//! empty, for `count`).

use crate::obs::{RegistrySnapshot, TraceRecord};
use crate::state::{AggKind, AttachOutcome, DatasetInfo, ReleaseOutcome, ServeError};
use upa_core::QueryAudit;
use upa_json::{push_json_str, put, put_name, take, take_with, Body, Json, Via};

/// Declares the error codes once: each variant with its wire spelling.
macro_rules! error_codes {
    ($($(#[doc = $doc:literal])* $code:ident = $wire:literal,)*) => {
        /// The closed set of machine-readable error codes. The server
        /// derives them from [`ServeError::code`]; the client parses them
        /// back, so both sides agree on the vocabulary by construction.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ErrorCode {
            $($(#[doc = $doc])* $code,)*
        }

        impl ErrorCode {
            /// Every code, for exhaustive round-trip tests.
            pub const ALL: [ErrorCode; [$($wire),*].len()] = [$(ErrorCode::$code),*];

            /// The stable wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$code => $wire,)*
                }
            }
        }
    };
}

error_codes! {
    /// No dataset of that name is registered.
    UnknownDataset = "unknown_dataset",
    /// The dataset has no such numeric column.
    UnknownColumn = "unknown_column",
    /// The request was malformed.
    BadRequest = "bad_request",
    /// A capacity bound was hit (connection cap, or a dataset's full
    /// waiting line).
    Busy = "busy",
    /// The request's deadline expired before it was served.
    Deadline = "deadline",
    /// The server is draining for shutdown.
    ShuttingDown = "shutting_down",
    /// The dataset's budget cannot cover the requested ε.
    Budget = "budget",
    /// The ledger could not make the spend durable.
    Ledger = "ledger",
    /// The pipeline failed.
    Pipeline = "pipeline",
    /// An admin op arrived on a server without `--allow-admin`.
    Admin = "admin",
    /// A dataset-store operation failed.
    Store = "store",
}

impl ErrorCode {
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
        let mut out = String::from("{\"op\":");
        push_json_str(&mut out, self.op());
        self.put_fields(&mut out);
        out.push('}');
        out
    }

    /// Parses one request object; `column` is required for `sum`/`mean`.
    ///
    /// # Errors
    ///
    /// A `bad_request`-worthy message for unknown ops, missing fields,
    /// or a field present with the wrong type.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let request = Request::take_fields(v.str_of("op").unwrap_or(""), v)?;
        if let Request::Prepare { query, column, .. } | Request::Release { query, column, .. } =
            &request
        {
            if *query != AggKind::Count && column.is_empty() {
                return Err("'column' is required for sum/mean".into());
            }
        }
        Ok(request)
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
        let ok = !matches!(self, Response::Error { .. });
        out.push_str(if ok { "{\"ok\":true" } else { "{\"ok\":false" });
        self.put_fields(out);
        out.push_str("}\n");
    }

    /// Parses one reply object. The line protocol is stateless, so every
    /// reply names its variant: the first key of the reply table present
    /// in the object picks it, and a reply with none is a bare `Ok`.
    ///
    /// # Errors
    ///
    /// A protocol-error message for shapes outside the closed set,
    /// naming the missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        // `Error` heads the table: it is the one reply with "ok":false.
        let ok: bool = take(v, "ok")?;
        let (refusal, replies) = Response::KEYED.split_at(1);
        let keyed = if ok { replies } else { refusal };
        match keyed.iter().find(|(key, _)| v.get(key).is_some()) {
            Some((key, decode)) => decode(v).map_err(|e| format!("'{key}' reply: {e}")),
            None if ok => Ok(Response::Ok),
            None => Err("refusal missing 'code'".into()),
        }
    }
}

// The protocol's own kinds: the two closed string sets, and the rows
// spelled in a shape of their own.
upa_json::kinds! {
    AggKind: "count, sum or mean",
        |k, out| push_json_str(out, k.as_str()),
        |v| v.as_str()?.parse().ok();
    ErrorCode: "a known error code",
        |c, out| push_json_str(out, c.as_str()),
        |v| ErrorCode::parse(v.as_str()?);
}

/// A release's `cached` flag, spelled `hit`/`miss` on the wire.
struct Cache;

impl Via<bool> for Cache {
    fn put(out: &mut String, name: &str, hit: &bool) {
        put_name(out, name);
        out.push_str(if *hit { "\"hit\"" } else { "\"miss\"" });
    }
    fn take(v: &Json, name: &str) -> Result<bool, String> {
        take_with(v, name, |v| match v.as_str() {
            Some("hit") => Ok(true),
            Some("miss") => Ok(false),
            _ => Err("must be hit or miss".into()),
        })
    }
}

/// A budget as three rows of the reply, each `null` when the server is
/// unmetered.
struct Budget;

const BUDGET: [&str; 3] = ["total", "spent", "remaining"];

impl Via<Option<(f64, f64, f64)>> for Budget {
    fn put(out: &mut String, _: &str, budget: &Option<(f64, f64, f64)>) {
        let values = budget.map(|(total, spent, remaining)| [total, spent, remaining]);
        for (i, name) in BUDGET.into_iter().enumerate() {
            put(out, name, &values.map(|v| v[i]));
        }
    }
    fn take(v: &Json, _: &str) -> Result<Option<(f64, f64, f64)>, String> {
        let [total, spent, remaining] = BUDGET.map(|name| take::<Option<f64>>(v, name));
        match (total?, spent?, remaining?) {
            (Some(t), Some(s), Some(r)) => Ok(Some((t, s, r))),
            (None, None, None) => Ok(None),
            _ => Err(format!("{BUDGET:?} must be all numbers or all null")),
        }
    }
}

/// The counters' own table, [`SchedStats::counters`], is the body.
impl Body for SchedStats {
    fn put_fields(&self, out: &mut String) {
        for (name, n) in self.clone().counters() {
            put(out, name, n);
        }
    }
    fn take_fields(v: &Json) -> Result<Self, String> {
        let mut stats = SchedStats::default();
        for (name, n) in stats.counters() {
            *n = take(v, name)?;
        }
        Ok(stats)
    }
}

/// The local a row's value is bound to: the field's name, or the name
/// given after `:` for a tuple variant's payload.
macro_rules! binding {
    ($field:ident) => {
        $field
    };
    ($field:tt : $bind:ident) => {
        $bind
    };
}

/// The request table: each op's name and its body's rows. Expands to
/// [`Request::OPS`], [`Request::op`] and the body encoder and decoder.
macro_rules! requests {
    ($($op:literal => $variant:ident {
        $($field:ident $(= $default:literal)? $([$mode:ident])?),* $(,)?
    }),* $(,)?) => {
        impl Request {
            /// Every op name, in table order: the only spelling of each.
            pub const OPS: &'static [&'static str] = &[$($op),*];

            /// This request's op name.
            pub fn op(&self) -> &'static str {
                match self {
                    $(Request::$variant { .. } => $op,)*
                }
            }

            fn put_fields(&self, out: &mut String) {
                match self {
                    $(Request::$variant { $($field),* } => {
                        $(upa_json::put_row!(out, $field, stringify!($field) $(, $mode)?);)*
                    })*
                }
            }

            fn take_fields(op: &str, v: &Json) -> Result<Request, String> {
                Ok(match op {
                    $($op => Request::$variant {
                        $($field: upa_json::take_row!(
                            v, stringify!($field) $(, = $default)? $(, $mode)?
                        )),*
                    },)*
                    other => {
                        return Err(format!("unknown op '{other}' ({})", Request::OPS.join("|")))
                    }
                })
            }
        }
    };
}

/// The reply table: each keyed variant with its body's rows, in decode
/// order. Expands to the decode list and the body encoder; a variant
/// with no rows is written as its key with the value `true`.
macro_rules! replies {
    ($($key:literal => $variant:ident {
        $($field:tt $(: $bind:ident)? $(as $name:literal)? $([$($mode:tt)+])?),* $(,)?
    }),* $(,)?) => {
        impl Response {
            /// `(key, decoder)` per variant, in decode order.
            #[allow(unused_variables)] // a variant without rows never reads `v`
            const KEYED: &'static [(&'static str, ReplyDecoder)] = &[
                $(($key, |v| Ok(Response::$variant {
                    $($field: upa_json::take_row!(
                        v, upa_json::wire_name!($field $(as $name)?) $(, $($mode)+)?
                    )),*
                })),)*
            ];

            fn put_fields(&self, out: &mut String) {
                match self {
                    Response::Ok => {}
                    $(Response::$variant { $($field $(: $bind)?),* } => {
                        put_tag!(out, $key $(, $field)*);
                        $(upa_json::put_row!(
                            out,
                            binding!($field $(: $bind)?),
                            upa_json::wire_name!($field $(as $name)?)
                            $(, $($mode)+)?
                        );)*
                    })*
                }
            }
        }
    };
}

/// Reads one reply variant from its object.
type ReplyDecoder = fn(&Json) -> Result<Response, String>;

/// Writes `,"key":true` for a variant with no rows of its own.
macro_rules! put_tag {
    ($out:ident, $key:literal) => {
        put($out, $key, &true)
    };
    ($out:ident, $key:literal, $($field:tt),+) => {};
}

requests! {
    "ping" => Ping {},
    "datasets" => Datasets {},
    "prepare" => Prepare { dataset = "data", query, column = "" },
    "release" => Release {
        dataset = "data",
        query,
        column = "",
        epsilon [optional],
        audit [optional],
        deadline_ms [optional],
    },
    "budget" => Budget { dataset = "data" },
    "audit" => Audit { dataset = "data", last [optional] },
    "stats" => Stats {},
    "metrics" => Metrics {},
    "trace" => Trace { id [optional], last [optional] },
    "ingest" => Ingest { path, dataset [optional] },
    "attach" => Attach { dataset },
    "detach" => Detach { dataset },
    "shutdown" => Shutdown {},
}

replies! {
    "code" => Error { code, message as "error" },
    "draining" => Draining {},
    "datasets" => Datasets { 0: reply [flatten] },
    "attached" => Attached { 0: outcome [flatten] },
    "detached" => Detached { dataset as "detached" },
    "ingested" => Ingested { dataset as "ingested", rows, columns, chunks, bytes },
    "sched" => Stats { 0: reply [flatten] },
    "metrics" => Metrics { 0: reply [flatten] },
    "traces" => Traces { 0: traces as "traces" },
    "audits" => Audits { dataset, audits },
    "released" => Released { 0: outcome [flatten] },
    "query_id" => Prepared { 0: info [flatten] },
    "total" => Budget { dataset, budget [via Budget] },
}

upa_json::body! {
    DatasetsReply { names as "datasets", info, available }
    DatasetInfo { name, rows, columns, resident_bytes }
    AttachOutcome { dataset as "attached", rows, resident_bytes, reloaded }
    PreparedInfo { query_id, sample_size, cached }
    ReleaseOutcome {
        query_id,
        released,
        epsilon,
        noise_scale,
        sample_size,
        budget_remaining,
        cached as "cache" [via Cache],
        prepare_us [optional],
        audit [optional],
    }
    StatsReply { sched, uptime_seconds, seq }
    MetricsReply { exposition, snapshot as "metrics" }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

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

    /// An audit with one defect each, and the field its decode error
    /// must name: an engine counter that would read as 0, a range item
    /// that would be dropped, and a remaining budget that would read as
    /// "no accountant".
    fn broken_audits() -> [(String, &'static str); 4] {
        let audit = |engine: &str, range: &str, budget: &str| {
            format!(
                "{{\"query\":\"q\",\"epsilon\":0.1,{budget}\"sensitivity\":[2],\
                 \"range\":[{range}],\"clamped\":false,\"attack_detected\":false,\
                 \"removed_records\":0,\"sample_size\":10,\"group_size\":1,\
                 \"total_nanos\":5,\"spans\":[],\"engine\":{{\"stages\":1,\"tasks\":1,\
                 \"task_retries\":0,\"shuffles\":0,\"shuffle_records\":0,{engine}\
                 \"records_processed\":10}}}}"
            )
        };
        let (engine, range, budget) =
            ("\"shuffle_bytes\":0,", "[1,2]", "\"budget_remaining\":0.5,");
        // The well-formed audit decodes, so each defect below is the cause.
        let whole = wire::parse(&audit(engine, range, budget)).unwrap();
        assert!(QueryAudit::take_fields(&whole).is_ok());
        [
            (audit("", range, budget), "'shuffle_bytes'"),
            (audit(engine, "[1]", budget), "'range'"),
            (
                audit(engine, range, "\"budget_remaining\":\"x\","),
                "'budget_remaining'",
            ),
            (audit(engine, range, ""), "'budget_remaining'"),
        ]
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
            // Every field the encoder writes is required: none of these
            // decodes to an invented zero, a dropped item, "unmetered" or
            // a lost audit.
            ("{\"ok\":true,\"attached\":\"x\"}".into(), "'rows'"),
            ("{\"ok\":true,\"query_id\":\"q\"}".into(), "'sample_size'"),
            (
                "{\"ok\":true,\"datasets\":[\"d\"],\"available\":[],\
                 \"info\":[{\"name\":\"d\",\"rows\":1,\"columns\":[]}]}"
                    .into(),
                "'info'",
            ),
            (
                "{\"ok\":true,\"dataset\":\"d\",\"total\":1}".into(),
                "'spent'",
            ),
            (
                format!(
                    "{{\"ok\":true,{released},\"cache\":\"hit\",\"audit\":{{\"query\":\"q\"}}}}"
                ),
                "'audit'",
            ),
        ]
        .into_iter()
        .chain(broken_audits().into_iter().flat_map(|(audit, missing)| {
            [
                (
                    format!("{{\"ok\":true,\"dataset\":\"d\",\"audits\":[{audit}]}}"),
                    missing,
                ),
                (
                    format!("{{\"ok\":true,{released},\"cache\":\"hit\",\"audit\":{audit}}}"),
                    missing,
                ),
            ]
        })) {
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
