//! `upa-server` — a concurrent query-serving daemon for the UPA
//! pipeline with a crash-safe privacy-budget ledger.
//!
//! The library turns the single-process [`upa_core::Upa`] engine into a
//! long-running service, std-only (no async runtime, no serde — the
//! protocol is hand-rolled line-delimited JSON over `std::net` TCP):
//!
//! * [`server::Server`] — accept loop, thread-per-connection workers,
//!   graceful draining shutdown;
//! * [`state::ServerState`] — the shared serving state and the one
//!   request path every prepare and release takes on its connection
//!   thread: per-dataset engines and permits, a cross-connection LRU
//!   prepared-query cache with single-flight prepares (identical
//!   queries share one engine run, each still drawing its own noise),
//!   and lock-free sharded budget accounting (one shared
//!   [`upa_core::budget::BudgetAccountant`] per dataset);
//! * [`ledger::Ledger`] — the preallocated, checksummed,
//!   fsync-before-release spend log that makes budget accounting
//!   survive `SIGKILL`, fronted by the group-committing
//!   [`ledger::GroupCommitLedger`] so concurrent releases share one
//!   fsync;
//! * [`proto`] — the typed wire protocol: [`proto::Request`],
//!   [`proto::Response`], and the closed [`proto::ErrorCode`] set
//!   shared by both sides;
//! * [`obs`] — server-wide observability: the metrics registry
//!   (counters, gauges, log-linear latency histograms), per-request
//!   traces with engine-span grafting, and the structured JSON event
//!   log behind the `metrics`/`trace` wire ops;
//! * [`client::Client`] — the protocol client, with
//!   [`client::Client::builder`] for timeouts and jittered retry on
//!   `busy`;
//! * [`wire`] — the JSON reader/escape writer behind both ends (the
//!   `upa-json` crate, re-exported).
//!
//! * [`daemon`] — the one front door: the flag table, dataset loading,
//!   bind, the `upa-server listening on ADDR` announcement and run;
//! * [`mod@flags`] — the flag machinery of every command line, the daemon's
//!   and each `upa-cli` command's: tables, generated usage, the parse
//!   loop and the exit codes.
//!
//! The crate ships one binary, `upa-serverd`, used by the integration
//! tests (SIGKILL crash-recovery, saturation); `upa-cli serve` is an
//! alias of the same [`daemon::main`].

pub mod client;
pub mod daemon;
pub mod flags;
pub mod ledger;
pub mod obs;
pub mod proto;
pub mod server;
pub mod state;
pub mod wire;

pub use client::{BudgetReply, Client, ClientBuilder, ClientError};
pub use ledger::{GroupCommitLedger, Ledger, LedgerObs, SpendRecord};
pub use obs::{HistogramSnapshot, Obs, RegistrySnapshot, Trace, TraceRecord, TraceStore};
pub use proto::{
    DatasetsReply, ErrorCode, MetricsReply, PreparedInfo, Request, Response, SchedStats, StatsReply,
};
pub use server::{Server, ShutdownHandle};
pub use state::{
    AggKind, AttachOutcome, DatasetInfo, DatasetSpec, ReleaseFault, ReleaseOutcome, ServeError,
    ServerConfig, ServerState,
};
