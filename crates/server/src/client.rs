//! Protocol client: one TCP connection, typed [`Request`]/[`Response`]
//! lines from [`crate::proto`].
//!
//! [`Client::builder`] sets connect/read timeouts and bounded
//! jittered-backoff retry on `busy` refusals (the server sheds load by refusing, so a polite
//! client backs off instead of hammering the accept queue).
//!
//! The client reconstructs [`QueryAudit`] values from the server's JSON
//! so remote audits render through the exact same
//! [`QueryAudit::render`] path as local ones — `upa-cli --stats` output
//! is byte-identical whether the query ran in-process or over the wire.

use crate::obs::TraceRecord;
use crate::proto::{
    DatasetsReply, ErrorCode, MetricsReply, PreparedInfo, Request, Response, StatsReply,
};
use crate::state::{AggKind, AttachOutcome, ReleaseOutcome};
use crate::wire;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use upa_core::QueryAudit;

/// The first `busy` retry's backoff ceiling; attempt `k` waits up to `2^k`
/// times this.
const RETRY_BASE: Duration = Duration::from_millis(50);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or transport failure.
    Io(io::Error),
    /// The server's reply could not be understood.
    Protocol(String),
    /// The server refused the request.
    Server {
        /// The stable error code (shared with the server through
        /// [`ErrorCode`]).
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server's error code, when the failure came from the server.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A dataset's budget as reported by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetReply {
    /// Total ε budget.
    pub total: f64,
    /// ε spent so far.
    pub spent: f64,
    /// ε remaining.
    pub remaining: f64,
}

/// Configures and opens a [`Client`]. Obtained from [`Client::builder`].
#[derive(Debug, Clone, Default)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    retry_busy: u32,
}

impl ClientBuilder {
    /// Bounds each TCP connect attempt.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds each reply read (an expired timeout surfaces as
    /// [`ClientError::Io`]).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Retries a request up to `attempts` extra times when the server
    /// answers `busy`, sleeping an exponentially growing, jittered
    /// backoff (starting from 50 ms) and
    /// reconnecting before each retry — admission-control refusals close
    /// the connection server-side.
    pub fn retry_busy(mut self, attempts: u32) -> Self {
        self.retry_busy = attempts;
        self
    }

    /// Opens the connection.
    ///
    /// # Errors
    ///
    /// Resolution or connection failures.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        // Seed the retry jitter from the wall clock — decorrelates the
        // backoff of clients started together.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9E37_79B9);
        let (reader, writer) = open_stream(&addrs, &self)?;
        Ok(Client {
            reader,
            writer,
            addrs,
            builder: self,
            jitter_state: seed,
        })
    }
}

fn open_stream(
    addrs: &[SocketAddr],
    builder: &ClientBuilder,
) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
    let mut last_err: Option<io::Error> = None;
    for addr in addrs {
        let attempt = match builder.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => {
                stream.set_read_timeout(builder.read_timeout)?;
                // Request/reply over one connection: Nagle would hold
                // each small request until the previous segment's
                // (delayed) ACK, stalling every exchange ~40ms.
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                return Ok((reader, stream));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(ClientError::Io(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")
    })))
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addrs: Vec<SocketAddr>,
    builder: ClientBuilder,
    jitter_state: u64,
}

impl Client {
    /// A builder for timeouts and `busy` retry policy.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = open_stream(&self.addrs, &self.builder)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// splitmix64 step for backoff jitter.
    fn next_jitter(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sends one typed request and decodes the typed reply, applying the
    /// builder's `busy` retry policy (full-jitter exponential backoff,
    /// reconnecting before each retry).
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors ([`Response::Error`] replies
    /// surface as [`ClientError::Server`]).
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.request_once(request) {
                Err(ClientError::Server {
                    code: ErrorCode::Busy,
                    ..
                }) if attempt < self.builder.retry_busy => {
                    attempt += 1;
                    let ceiling = RETRY_BASE.as_secs_f64() * f64::from(1u32 << attempt.min(16));
                    let delay = Duration::from_secs_f64(ceiling * self.next_jitter());
                    std::thread::sleep(delay);
                    self.reconnect()?;
                }
                outcome => return outcome,
            }
        }
    }

    fn request_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        // A refused connection (admission control) gets its error line
        // written at accept time and is then closed — writing this
        // request can hit a broken pipe while a perfectly good refusal
        // sits in the receive buffer. Try the read even if the write
        // failed and prefer whatever the server managed to say.
        // One write syscall per request (line + terminator together): a
        // split write means a second tiny TCP segment that Nagle holds
        // back until the first is ACKed.
        let mut line = request.to_line();
        line.push('\n');
        let written = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush());
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            read_outcome => {
                written?;
                read_outcome?;
                return Err(ClientError::Protocol(
                    "server closed the connection without replying".into(),
                ));
            }
        }
        let reply = wire::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparsable reply: {e}")))?;
        match Response::from_json(&reply).map_err(ClientError::Protocol)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    fn unexpected(request: &Request, response: &Response) -> ClientError {
        let op = request.op();
        ClientError::Protocol(format!("expected a {op} reply, got {response:?}"))
    }

    fn parse_kind(query: &str) -> Result<AggKind, ClientError> {
        query.parse().map_err(ClientError::Protocol)
    }

    /// Health check.
    ///
    /// # Errors
    ///
    /// Transport or server errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// The full catalog view: served dataset names, per-dataset detail,
    /// and on-disk datasets available to attach.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn datasets_info(&mut self) -> Result<DatasetsReply, ClientError> {
        match self.request(&Request::Datasets)? {
            Response::Datasets(reply) => Ok(reply),
            other => Err(Self::unexpected(&Request::Datasets, &other)),
        }
    }

    /// Attaches (or hot-reloads) a store dataset into serving. Admin op:
    /// the server must run with `--allow-admin`.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors (including `admin` when the
    /// server has admin ops disabled and `store` for catalog failures).
    pub fn attach(&mut self, dataset: &str) -> Result<AttachOutcome, ClientError> {
        let request = Request::Attach {
            dataset: dataset.to_string(),
        };
        match self.request(&request)? {
            Response::Attached(outcome) => Ok(outcome),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// Detaches a served dataset (its spent budget is retained for
    /// re-attach). Admin op: the server must run with `--allow-admin`.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn detach(&mut self, dataset: &str) -> Result<(), ClientError> {
        let request = Request::Detach {
            dataset: dataset.to_string(),
        };
        match self.request(&request)? {
            Response::Detached { .. } => Ok(()),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// Asks the server to ingest a CSV file from its local filesystem
    /// into the store. Admin op: the server must run with
    /// `--allow-admin`. Returns `(dataset, rows)`.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn ingest(
        &mut self,
        path: &str,
        dataset: Option<&str>,
    ) -> Result<(String, u64), ClientError> {
        let request = Request::Ingest {
            path: path.to_string(),
            dataset: dataset.map(str::to_string),
        };
        match self.request(&request)? {
            Response::Ingested { dataset, rows, .. } => Ok((dataset, rows)),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// Runs phases 1–3 server-side (or coalesces onto shared state).
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn prepare(
        &mut self,
        dataset: &str,
        query: &str,
        column: &str,
    ) -> Result<PreparedInfo, ClientError> {
        let request = Request::Prepare {
            dataset: dataset.to_string(),
            query: Self::parse_kind(query)?,
            column: column.to_string(),
        };
        match self.request(&request)? {
            Response::Prepared(info) => Ok(info),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// Releases one differentially private answer.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors (including `budget`
    /// refusals).
    pub fn release(
        &mut self,
        dataset: &str,
        query: &str,
        column: &str,
        epsilon: Option<f64>,
        want_audit: bool,
    ) -> Result<ReleaseOutcome, ClientError> {
        self.release_with_deadline(dataset, query, column, epsilon, want_audit, None)
    }

    /// Like [`Client::release`], but asks the server to shed the request
    /// with a `deadline` error if it cannot be served within
    /// `deadline_ms` of arrival (a shed request charges no budget).
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors (including `deadline`).
    pub fn release_with_deadline(
        &mut self,
        dataset: &str,
        query: &str,
        column: &str,
        epsilon: Option<f64>,
        want_audit: bool,
        deadline_ms: Option<u64>,
    ) -> Result<ReleaseOutcome, ClientError> {
        let request = Request::Release {
            dataset: dataset.to_string(),
            query: Self::parse_kind(query)?,
            column: column.to_string(),
            epsilon,
            audit: want_audit,
            deadline_ms,
        };
        match self.request(&request)? {
            Response::Released(outcome) => Ok(*outcome),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// The dataset's budget (`None` when the server is unmetered).
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn budget(&mut self, dataset: &str) -> Result<Option<BudgetReply>, ClientError> {
        let request = Request::Budget {
            dataset: dataset.to_string(),
        };
        match self.request(&request)? {
            Response::Budget { budget, .. } => {
                Ok(budget.map(|(total, spent, remaining)| BudgetReply {
                    total,
                    spent,
                    remaining,
                }))
            }
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// The most recent `last` audits of the dataset, oldest first.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn audits(
        &mut self,
        dataset: &str,
        last: Option<usize>,
    ) -> Result<Vec<QueryAudit>, ClientError> {
        let request = Request::Audit {
            dataset: dataset.to_string(),
            last: last.map(|n| n as u64),
        };
        match self.request(&request)? {
            Response::Audits { audits, .. } => Ok(audits),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// The server's admission counters, uptime, and snapshot sequence.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::unexpected(&Request::Stats, &other)),
        }
    }

    /// The server's metrics scrape: Prometheus-style text exposition
    /// plus the structured snapshot it was rendered from.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(reply) => Ok(reply),
            other => Err(Self::unexpected(&Request::Metrics, &other)),
        }
    }

    /// Finished request traces: the one with `id`, or the most recent
    /// `last` (default 1), oldest first.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn traces(
        &mut self,
        id: Option<&str>,
        last: Option<u64>,
    ) -> Result<Vec<TraceRecord>, ClientError> {
        let request = Request::Trace {
            id: id.map(str::to_string),
            last,
        };
        match self.request(&request)? {
            Response::Traces(traces) => Ok(traces),
            other => Err(Self::unexpected(&request, &other)),
        }
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_have_no_timeouts_and_no_retries() {
        let b = Client::builder();
        assert_eq!(b.retry_busy, 0);
        assert!(b.connect_timeout.is_none());
        assert!(b.read_timeout.is_none());
    }
}
