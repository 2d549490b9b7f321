//! Shared serving state: datasets, engines, the prepared-query cache,
//! the budget ledger and admission control.
//!
//! One [`ServerState`] is shared (via `Arc`) by every connection thread.
//! Mutability is fine-grained so independent work proceeds concurrently:
//!
//! * each dataset owns its [`upa_core::Upa`] engine, whose own short
//!   critical section orders the RNG draws, RANGE ENFORCER and the audit
//!   ring; the scan and the sensitivity fit run outside it;
//! * the prepared-query cache is an LRU behind its own short-hold mutex,
//!   so a release on one dataset never waits on a prepare for another;
//! * budget accounting is **sharded and lock-free**: each dataset's
//!   spent-ε lives in a shared [`BudgetAccountant`] (CAS on the `f64`
//!   bit pattern), so concurrent releases on different — or the same —
//!   dataset reserve budget without any mutex;
//! * durability is the group-commit ledger's job
//!   ([`crate::ledger::GroupCommitLedger`]): a spend reserves
//!   atomically, submits its record, and blocks on the shared fsync. A
//!   failed fsync refunds the reservation, so an I/O failure never
//!   leaks accounted-but-lost budget.
//!
//! Every prepare and release runs on its caller's thread through one
//! function, `ServerState::serve`. A release with no deadline whose
//! prepared state is cached is drawn at once (the fast path); anything
//! else first holds one of its dataset's permits
//! ([`ServerConfig::max_inflight_prepares`], at most
//! [`ServerConfig::queue_capacity`] waiting), and its prepare is
//! single-flight per query and residency ([`ServerState::prepare`]).

use crate::ledger::{spent_by_dataset, GroupCommitLedger, Ledger, LedgerObs, SpendRecord};
use crate::obs::{Counter, Obs, Trace};
use crate::proto::{ErrorCode, PreparedInfo, Response, SchedStats};
use dataflow::columnar::{ColumnarBuf, ColumnarDataset};
use dataflow::partitioner::hash_key;
use dataflow::Context;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;
use upa_core::budget::BudgetAccountant;
use upa_core::domain::ColumnarEmpiricalSampler;
use upa_core::query::{half_of, HalfTotals, MapReduceQuery};
use upa_core::{PreparedQuery, QueryAudit, Upa, UpaConfig, UpaError};
use upa_store::{Catalog, IngestOptions, IngestReport, StoreError};

/// An in-memory dataset the server answers queries over: named numeric
/// columns plus the row count (so `count` works on column-less tables).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name, as addressed by the protocol's `dataset` field.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Numeric columns by name.
    pub columns: HashMap<String, Vec<f64>>,
}

impl DatasetSpec {
    /// A dataset from named numeric columns (all columns must share the
    /// row count).
    pub fn new(name: impl Into<String>, rows: usize, columns: HashMap<String, Vec<f64>>) -> Self {
        DatasetSpec {
            name: name.into(),
            rows,
            columns,
        }
    }

    /// A synthetic dataset of `rows` records with one column `v` holding
    /// `i % modulus` — enough surface for benchmarks and tests.
    pub fn synthetic(name: impl Into<String>, rows: usize, modulus: usize) -> Self {
        let m = modulus.max(1);
        let values: Vec<f64> = (0..rows).map(|i| (i % m) as f64).collect();
        DatasetSpec {
            name: name.into(),
            rows,
            columns: HashMap::from([("v".to_string(), values)]),
        }
    }

    /// A headered CSV file as a dataset named after the file's stem
    /// (`people.csv` → `people`); every column whose cells all parse as
    /// numbers is served, the rest are skipped.
    ///
    /// # Errors
    ///
    /// I/O and CSV-shape failures, or rows with no numeric column at all.
    pub fn from_csv(path: &Path) -> Result<DatasetSpec, String> {
        let shown = path.display();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
        let doc = upa_store::csv::parse(&text).map_err(|e| format!("{shown}: {e}"))?;
        let columns: HashMap<String, Vec<f64>> = doc
            .header
            .iter()
            .filter_map(|h| Some((h.clone(), doc.numeric_column(h).ok()?)))
            .collect();
        if columns.is_empty() && !doc.rows.is_empty() {
            return Err(format!("{shown}: no fully numeric column to serve"));
        }
        let name = path.file_stem().unwrap_or(path.as_os_str());
        Ok(DatasetSpec::new(
            name.to_string_lossy(),
            doc.rows.len(),
            columns,
        ))
    }
}

/// A synthetic dataset's text form, `NAME=ROWS[:MOD]` with `MOD`
/// defaulting to 97: the daemon's `--synthetic` value.
impl std::str::FromStr for DatasetSpec {
    type Err = String;
    fn from_str(spec: &str) -> Result<Self, String> {
        let (name, rest) = spec.split_once('=').ok_or("expected NAME=ROWS[:MOD]")?;
        let (rows, modulus) = rest.split_once(':').unwrap_or((rest, "97"));
        let rows = rows.parse().map_err(|e| format!("bad row count: {e}"))?;
        let modulus = modulus.parse().map_err(|e| format!("bad modulus: {e}"))?;
        Ok(DatasetSpec::synthetic(name, rows, modulus))
    }
}

/// The aggregate kinds the protocol serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Number of rows.
    Count,
    /// Sum of a column.
    Sum,
    /// Mean of a column.
    Mean,
}

impl AggKind {
    /// The protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Mean => "mean",
        }
    }
}

impl std::fmt::Display for AggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for AggKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "count" => Ok(AggKind::Count),
            "sum" => Ok(AggKind::Sum),
            "mean" => Ok(AggKind::Mean),
            other => Err(format!("unknown query '{other}' (count|sum|mean)")),
        }
    }
}

/// Builds the Map/Reduce decomposition of an aggregate over one numeric
/// column — the serving-side counterpart of the paper's Table I
/// operators. Every kind maps a record to `(x, 1)` under the half key
/// [`agg_half_key`], so `mean` finalizes without a second pass, `count`
/// reads the count, and all three take one column's [`agg_totals`] for
/// an exact remainder ([`MapReduceQuery::with_half_totals`]): a half's
/// remainder is then the correctly rounded exact sum of its unsampled
/// records, whatever the chunks, slabs or threads. The server and
/// `upa-cli` attach the totals of the column they release over; without
/// them the query folds its remainder.
pub fn build_agg_query(kind: AggKind) -> MapReduceQuery<f64, (f64, f64), f64> {
    MapReduceQuery::new(
        kind.as_str(),
        agg_half_key,
        |x: &f64| (*x, 1.0),
        |a: &(f64, f64), b: &(f64, f64)| (a.0 + b.0, a.1 + b.1),
        move |acc: Option<&(f64, f64)>| match (kind, acc) {
            (_, None) => 0.0,
            (AggKind::Count, Some((_, n))) => *n,
            (AggKind::Sum, Some((s, _))) => *s,
            (AggKind::Mean, Some((s, n))) => {
                if *n > 0.0 {
                    s / n
                } else {
                    0.0
                }
            }
        },
    )
}

/// The aggregates' half key: a value's bits, so a record's logical half
/// ([`half_of`] them) is a function of its content.
fn agg_half_key(x: &f64) -> u64 {
    x.to_bits()
}

/// The exact half totals of `values` under [`build_agg_query`].
pub fn agg_totals(values: &[f64]) -> HalfTotals {
    HalfTotals::of_values(values, agg_half_key)
}

/// [`agg_totals`] of a whole column, as one engine stage with a task per
/// chunk whose exact partials merge in any order.
pub fn column_totals(data: &ColumnarDataset) -> HalfTotals {
    let mut totals = HalfTotals::default();
    for part in data.aggregate_chunks("totals", agg_totals) {
        totals.merge(&part);
    }
    totals
}

/// Deterministic fault injection for the serving path, extending the
/// engine's [`dataflow::FaultInjector`] idea to the release protocol.
/// The injected failure is a worker panic (the thread dies, the
/// connection drops without a reply) at a precise point relative to the
/// ledger append — either side of the crash-safety boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleaseFault {
    /// Never fail.
    #[default]
    None,
    /// The `n`-th release attempt (0-based, across all connections) dies
    /// before its spend reaches the ledger: no spend, no result.
    BeforeLedger(usize),
    /// The `n`-th release attempt dies after its spend is fsync'd but
    /// before the result is delivered: a durable spend with no result —
    /// the fail-closed side the ledger's invariant permits.
    AfterLedger(usize),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Datasets to serve.
    pub datasets: Vec<DatasetSpec>,
    /// Total ε budget per dataset (`None` = unmetered; spends are still
    /// ledgered when a ledger path is set).
    pub budget: Option<f64>,
    /// Ledger path (`None` = no durability; spends live only in memory).
    pub ledger_path: Option<PathBuf>,
    /// Default per-release ε.
    pub epsilon: f64,
    /// UPA sample size `n`.
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Engine threads (0 = auto).
    pub threads: usize,
    /// Maximum concurrently served connections; excess connections are
    /// refused with a `busy` error (bounded accept backlog).
    pub max_connections: usize,
    /// Permits per dataset: how many cache-miss or deadline requests may
    /// prepare/release on one dataset at once; the rest wait.
    pub max_inflight_prepares: usize,
    /// How many requests may wait for one dataset's permits; one more is
    /// refused with `busy`.
    pub queue_capacity: usize,
    /// Prepared-query cache capacity; the least-recently-used entry is
    /// evicted on overflow. `0` means unbounded. A cached release with
    /// no deadline is served without a permit.
    pub cache_capacity: usize,
    /// Requests slower than this many milliseconds are logged at `warn`
    /// with their full trace (`None` disables slow-query logging).
    pub slow_query_ms: Option<u64>,
    /// Route the structured event log to stderr (the daemon turns this
    /// on; in-process embedders stay silent).
    pub log_stderr: bool,
    /// Serving-path fault injection (tests only).
    pub fault: ReleaseFault,
    /// Persistent dataset store directory (`None` = no store; only
    /// baked-in [`ServerConfig::datasets`] are served).
    pub store_path: Option<PathBuf>,
    /// Allow the `ingest`/`attach`/`detach` admin ops over the wire.
    pub allow_admin: bool,
    /// Store datasets to attach at startup (requires
    /// [`ServerConfig::store_path`]).
    pub attach: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            datasets: Vec::new(),
            budget: None,
            ledger_path: None,
            epsilon: 0.1,
            sample_size: 1000,
            seed: 0xDA7A,
            threads: 0,
            max_connections: 64,
            max_inflight_prepares: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            slow_query_ms: None,
            log_stderr: false,
            fault: ReleaseFault::None,
            store_path: None,
            allow_admin: false,
            attach: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// The engine configuration of a dataset seeded `seed`.
    fn upa_config(&self, seed: u64) -> UpaConfig {
        UpaConfig {
            epsilon: self.epsilon,
            sample_size: self.sample_size,
            seed,
            ..UpaConfig::default()
        }
    }

    /// Refuses a budget that is not finite and positive, an ε or sample
    /// size the engine would refuse at every prepare, a zero connection
    /// cap, permit count or queue capacity, and a dataset column whose
    /// length is not its row count.
    fn validate(&self) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        if let Some(budget) = self.budget.filter(|b| !(b.is_finite() && *b > 0.0)) {
            return Err(invalid(format!(
                "budget must be finite and positive, got {budget}"
            )));
        }
        self.upa_config(self.seed)
            .validate()
            .map_err(|e| invalid(e.to_string()))?;
        for (field, value) in [
            ("max_connections", self.max_connections),
            ("max_inflight_prepares", self.max_inflight_prepares),
            ("queue_capacity", self.queue_capacity),
        ] {
            if value == 0 {
                return Err(invalid(format!("{field} must be at least 1")));
            }
        }
        for spec in &self.datasets {
            if let Some((column, values)) = spec.columns.iter().find(|(_, v)| v.len() != spec.rows)
            {
                let (name, len, rows) = (&spec.name, values.len(), spec.rows);
                let msg = format!(
                    "dataset '{name}': column '{column}' has {len} values, expected {rows} rows"
                );
                return Err(invalid(msg));
            }
        }
        Ok(())
    }
}

/// Errors surfaced to protocol clients, each with a stable `code`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No dataset of that name is registered.
    UnknownDataset(String),
    /// The dataset has no such numeric column.
    UnknownColumn { dataset: String, column: String },
    /// The request was malformed.
    BadRequest(String),
    /// The server is at a capacity bound (connection cap, or as many
    /// requests as `queue_capacity` already wait for the dataset).
    Busy,
    /// The request's `deadline_ms` expired before it could be served;
    /// it was shed without charging any budget.
    DeadlineExceeded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The dataset's budget cannot cover the requested ε.
    BudgetExhausted { remaining: f64, requested: f64 },
    /// The ledger could not make the spend durable.
    Ledger(String),
    /// The pipeline failed.
    Pipeline(String),
    /// An admin op (`ingest`/`attach`/`detach`) arrived but the server
    /// was not started with `--allow-admin`.
    AdminDisabled,
    /// A dataset-store operation failed (no store configured, corrupt
    /// chunks, ingest I/O, …).
    Store(String),
}

impl ServeError {
    /// Stable machine-readable code, shared with the client through the
    /// closed [`ErrorCode`] enum.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::UnknownDataset(_) => ErrorCode::UnknownDataset,
            ServeError::UnknownColumn { .. } => ErrorCode::UnknownColumn,
            ServeError::BadRequest(_) => ErrorCode::BadRequest,
            ServeError::Busy => ErrorCode::Busy,
            ServeError::DeadlineExceeded => ErrorCode::Deadline,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::BudgetExhausted { .. } => ErrorCode::Budget,
            ServeError::Ledger(_) => ErrorCode::Ledger,
            ServeError::Pipeline(_) => ErrorCode::Pipeline,
            ServeError::AdminDisabled => ErrorCode::Admin,
            ServeError::Store(_) => ErrorCode::Store,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        match e {
            StoreError::NotFound(name) => ServeError::UnknownDataset(name),
            other => ServeError::Store(other.to_string()),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDataset(d) => write!(f, "unknown dataset '{d}'"),
            ServeError::UnknownColumn { dataset, column } => {
                write!(f, "dataset '{dataset}' has no numeric column '{column}'")
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Busy => write!(f, "server busy: at capacity (connection or queue limit)"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request could be served")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BudgetExhausted {
                remaining,
                requested,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            ServeError::Ledger(m) => write!(f, "ledger failure: {m}"),
            ServeError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            ServeError::AdminDisabled => {
                write!(f, "admin ops are disabled (start with --allow-admin)")
            }
            ServeError::Store(m) => write!(f, "store error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The serving aggregate's prepared state (phases 1–3 of Algorithm 1).
pub type PreparedAgg = PreparedQuery<f64, (f64, f64), f64>;

/// Cache and in-flight key: `(dataset, generation, aggregate, column)`.
/// The generation names the residency a prepare scans, so no caller of a
/// new residency joins a prepare of the old one, and one that finishes
/// after a reload or detach publishes under a key no lookup builds again.
type QueryKey = (String, u64, AggKind, String);

/// Source of [`DatasetState::generation`]s: unique per residency for
/// the life of the process.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

struct DatasetState {
    name: String,
    /// This residency's identity: every attach, reload included, and
    /// every startup dataset gets a fresh one.
    generation: u64,
    rows: usize,
    /// Every column as shared chunks and its exact half totals
    /// ([`column_totals`]). Catalog attaches hand over the store's chunk
    /// buffers untouched (the scan reads the very bytes the loader
    /// decoded); an in-memory [`DatasetSpec`] column is cut at startup
    /// into chunks of the ingest default's rows, as an ingest would cut
    /// it. Every aggregate maps a record to `(x, 1)`, so `count`, `sum`
    /// and `mean` over a column share its totals, and every prepare
    /// subtracts its sample from them. A dataset detached mid-query stays
    /// alive until its last in-flight release drops the handle.
    columns: HashMap<String, (ColumnarBuf, Arc<HalfTotals>)>,
    /// Bytes of `columns`: the values and one [`HalfTotals`] per column.
    resident_bytes: usize,
    upa: Upa,
    permits: Permits,
}

/// One dataset's bound on the requests past the fast path: how many
/// hold a permit and how many wait for one.
#[derive(Default)]
struct Permits {
    count: Mutex<PermitCount>,
    freed: Condvar,
}

#[derive(Default)]
struct PermitCount {
    held: usize,
    waiting: usize,
}

impl DatasetState {
    /// This residency's cache key for one query.
    fn key(&self, kind: AggKind, column: &str) -> QueryKey {
        (self.name.clone(), self.generation, kind, column.to_string())
    }

    /// A served dataset over `columns`, with its own engine seeded `seed`.
    /// Sums each column's half totals, a scan of every value.
    fn new(
        name: &str,
        rows: usize,
        columns: impl IntoIterator<Item = (String, ColumnarBuf)>,
        ctx: &Context,
        config: &ServerConfig,
        seed: u64,
    ) -> DatasetState {
        let columns: HashMap<_, _> = columns
            .into_iter()
            .map(|(name, buf)| {
                let totals = column_totals(&ColumnarDataset::new(ctx, buf.clone()));
                (name, (buf, Arc::new(totals)))
            })
            .collect();
        DatasetState {
            name: name.to_string(),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            rows,
            resident_bytes: columns.len() * (rows * 8 + std::mem::size_of::<HalfTotals>()),
            columns,
            upa: Upa::new(ctx.clone(), config.upa_config(seed)),
            permits: Permits::default(),
        }
    }
}

/// One served dataset's shape, as reported by the `datasets` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Column names, sorted.
    pub columns: Vec<String>,
    /// Bytes the dataset holds in memory: its column values and each
    /// column's exact half totals (about 1 KB per column).
    pub resident_bytes: u64,
}

/// The result of a successful `attach`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachOutcome {
    /// Dataset name.
    pub dataset: String,
    /// Row count of the freshly loaded data.
    pub rows: u64,
    /// Bytes now resident for this dataset.
    pub resident_bytes: u64,
    /// Whether this replaced an existing residency (a reload).
    pub reloaded: bool,
}

struct CacheEntry {
    prepared: Arc<PreparedAgg>,
    last_used: u64,
}

/// A prepare in flight. Every caller of its key and residency shares its
/// one engine run: `OnceLock::get_or_init` runs the first caller's
/// prepare and blocks the rest until it returns. A run that panics
/// leaves the cell empty, and a waiting or later caller runs its own.
#[derive(Default)]
struct Inflight {
    result: OnceLock<Result<Arc<PreparedAgg>, ServeError>>,
    /// Callers that took this slot, the one that ran it included.
    callers: AtomicU64,
}

#[derive(Default)]
struct Slots {
    ready: HashMap<QueryKey, CacheEntry>,
    inflight: HashMap<QueryKey, Arc<Inflight>>,
}

/// The LRU-bounded prepared-query cache and its in-flight slots. The
/// mutex guards only map lookups and recency stamps (nanoseconds of hold
/// time); the heavy engine work happens outside it.
struct PreparedCache {
    capacity: usize,
    clock: AtomicU64,
    slots: Mutex<Slots>,
    evictions: Arc<Counter>,
}

impl PreparedCache {
    fn new(capacity: usize, evictions: Arc<Counter>) -> PreparedCache {
        PreparedCache {
            capacity,
            clock: AtomicU64::new(0),
            slots: Mutex::new(Slots::default()),
            evictions,
        }
    }

    fn len(&self) -> usize {
        self.slots.lock().expect("cache poisoned").ready.len()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&self, key: &QueryKey) -> Option<Arc<PreparedAgg>> {
        self.touch(&mut self.slots.lock().expect("cache poisoned"), key)
    }

    fn touch(&self, slots: &mut Slots, key: &QueryKey) -> Option<Arc<PreparedAgg>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slots.ready.get_mut(key).map(|e| {
            e.last_used = stamp;
            Arc::clone(&e.prepared)
        })
    }

    /// `key`'s prepared state: cached, or from the one run of `prepare`
    /// that every concurrent caller of `key` shares. A success is cached
    /// and a failure is not, so the next caller runs again. When this
    /// caller ran `prepare`, also returns the run's group size: every
    /// caller that shared it, this one included.
    fn get_or_prepare(
        &self,
        key: QueryKey,
        prepare: impl FnOnce() -> Result<Arc<PreparedAgg>, ServeError>,
    ) -> (Result<Arc<PreparedAgg>, ServeError>, Option<u64>) {
        let slot = {
            let mut slots = self.slots.lock().expect("cache poisoned");
            if let Some(prepared) = self.touch(&mut slots, &key) {
                return (Ok(prepared), None);
            }
            let slot = Arc::clone(slots.inflight.entry(key.clone()).or_default());
            slot.callers.fetch_add(1, Ordering::Relaxed);
            slot
        };
        let mut ran = false;
        let result = slot.result.get_or_init(|| {
            ran = true;
            prepare()
        });
        if !ran {
            return (result.clone(), None);
        }
        // Cache the outcome and free the key in one critical section, so
        // a later caller finds the one or can open a fresh slot.
        let mut slots = self.slots.lock().expect("cache poisoned");
        slots.inflight.remove(&key);
        if let Ok(prepared) = result {
            self.insert(&mut slots, key, Arc::clone(prepared));
        }
        (result.clone(), Some(slot.callers.load(Ordering::Relaxed)))
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when the cache is full.
    fn insert(&self, slots: &mut Slots, key: QueryKey, prepared: Arc<PreparedAgg>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let entries = &mut slots.ready;
        if self.capacity > 0 && !entries.contains_key(&key) && entries.len() >= self.capacity {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
                self.evictions.inc();
            }
        }
        entries.insert(
            key,
            CacheEntry {
                prepared,
                last_used: stamp,
            },
        );
    }

    /// Drops every cached prepare for `dataset` — attach (the data may
    /// have changed on disk) and detach (the data is gone) both
    /// invalidate its entries. Lookups already miss them (their
    /// generation is gone); this frees their entries.
    fn purge_dataset(&self, dataset: &str) {
        self.slots
            .lock()
            .expect("cache poisoned")
            .ready
            .retain(|key, _| key.0 != dataset);
    }
}

/// The outcome of a successful release.
#[derive(Debug, Clone)]
pub struct ReleaseOutcome {
    /// Query identity (`dataset/kind/column`).
    pub query_id: String,
    /// The noisy value delivered to the analyst.
    pub released: f64,
    /// The ε charged.
    pub epsilon: f64,
    /// Laplace noise scale (`sensitivity / ε`).
    pub noise_scale: f64,
    /// Effective sample size of the preparation.
    pub sample_size: usize,
    /// Budget remaining after the charge (`None` when unmetered).
    pub budget_remaining: Option<f64>,
    /// Whether this release shared prepared state (the cache, or
    /// another caller's in-flight prepare) instead of running its own.
    pub cached: bool,
    /// Wall-clock microseconds of the cold prepare that backed this
    /// release (`None` on a cache hit).
    pub prepare_us: Option<u64>,
    /// The release's audit record, when the caller asked for it.
    pub audit: Option<QueryAudit>,
}

/// What a request asks of `ServerState::serve`.
pub(crate) enum Ask {
    /// Phases 1–3 only.
    Prepare,
    /// Phases 1–4 at this ε (the configured default when `None`).
    Release(Option<f64>),
}

/// How one request travels `ServerState::serve`.
#[derive(Default)]
pub(crate) struct RequestCtx<'a> {
    /// The request's trace, when the connection opened one.
    pub trace: Option<&'a Trace>,
    /// Past this instant the request is shed before any spend.
    pub deadline: Option<Instant>,
    /// Return the release's audit record.
    pub want_audit: bool,
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// A request admitted past the fast path. Dropping it counts the
/// request completed, whether served, refused, shed or panicked, and
/// gives back its permit once one was granted.
struct Ticket<'a> {
    state: &'a ServerState,
    permits: Option<&'a Permits>,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if let Some(permits) = self.permits {
            // A plain count is valid after any panic: recover it rather
            // than panic inside a drop.
            let mut count = permits.count.lock().unwrap_or_else(PoisonError::into_inner);
            count.held -= 1;
            permits.freed.notify_one();
        }
        self.state.counters().completed += 1;
    }
}

/// The shared state behind every connection thread.
pub struct ServerState {
    config: ServerConfig,
    ctx: Context,
    /// Served datasets. The `RwLock` is short-hold by construction:
    /// writers (attach/detach) only swap an `Arc` in or out — chunk
    /// loading happens before the lock — so in-flight releases on other
    /// datasets never stall behind an admin op.
    datasets: RwLock<HashMap<String, Arc<DatasetState>>>,
    prepared: PreparedCache,
    /// Per-dataset budget shards (empty when unmetered). Entries are
    /// *never removed*: a detach leaves its dataset's spent ε in place,
    /// so a detach/re-attach cycle cannot launder budget.
    budgets: RwLock<HashMap<String, Arc<BudgetAccountant>>>,
    /// The persistent store's live catalog (present only when a store
    /// path is configured).
    catalog: Option<Catalog>,
    /// Spent ε per dataset as replayed from the ledger at startup —
    /// consulted when a dataset attaches after startup, so its shard
    /// starts from the durable record rather than zero.
    replayed_spent: HashMap<String, f64>,
    /// The group-commit ledger (present only when a ledger path is set);
    /// internally synchronized, shared by every connection thread.
    ledger: Option<GroupCommitLedger>,
    release_seq: AtomicUsize,
    shutting_down: AtomicBool,
    active_connections: AtomicUsize,
    /// Counters of the requests past the fast path.
    sched: Mutex<SchedStats>,
    obs: Arc<Obs>,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("datasets", &self.dataset_names().len())
            .field("epsilon", &self.config.epsilon)
            .finish()
    }
}

impl ServerState {
    /// Builds the state: spins up the engine, loads datasets, opens and
    /// replays the ledger, seeds each metered dataset's budget shard.
    ///
    /// # Errors
    ///
    /// Ledger I/O or corruption errors; `InvalidInput` naming the field
    /// when the budget is not finite and positive, when ε or the sample
    /// size fails [`UpaConfig::validate`], or when a [`DatasetSpec`]
    /// column's length differs from its row count.
    pub fn new(mut config: ServerConfig) -> std::io::Result<ServerState> {
        config.validate()?;
        let ctx = if config.threads == 0 {
            Context::default()
        } else {
            Context::with_threads(config.threads)
        };
        let obs = Arc::new(Obs::new(config.slow_query_ms, config.log_stderr));
        let (ledger, replayed) = match &config.ledger_path {
            Some(path) => {
                let (ledger, records) = Ledger::open(path)?;
                let group = GroupCommitLedger::new(
                    ledger,
                    Some(LedgerObs {
                        fsyncs: Arc::clone(&obs.m.ledger_fsyncs),
                        batch_size: Arc::clone(&obs.m.ledger_batch_size),
                        commit_wait: Arc::clone(&obs.m.ledger_commit_wait),
                    }),
                );
                (Some(group), records)
            }
            None => (None, Vec::new()),
        };
        let spent = spent_by_dataset(&replayed);
        // In-memory columns are chunked as an ingest would chunk them, so
        // a column's totals run a task per chunk on every engine thread
        // (release bits do not depend on the chunk layout). The chunks are
        // then all the state serves from: each column's values are
        // consumed as they are chunked, so a column is held once, and the
        // kept specs hold only names and row counts.
        let chunk_rows = IngestOptions::default().chunk_rows;
        let mut datasets = HashMap::new();
        let mut budgets = HashMap::new();
        let mut specs = std::mem::take(&mut config.datasets);
        for (i, spec) in specs.iter_mut().enumerate() {
            let columns = spec.columns.iter_mut().map(|(name, values)| {
                let values = std::mem::take(values);
                (name.clone(), ColumnarBuf::from_values(values, chunk_rows))
            });
            let seed = config.seed.wrapping_add(i as u64);
            datasets.insert(
                spec.name.clone(),
                Arc::new(DatasetState::new(
                    &spec.name, spec.rows, columns, &ctx, &config, seed,
                )),
            );
            if let Some(total) = config.budget {
                let used = spent.get(&spec.name).copied().unwrap_or(0.0);
                let shard = BudgetAccountant::restore(total, used);
                budgets.insert(spec.name.clone(), Arc::new(shard));
            }
        }
        config.datasets = specs;
        let catalog = match &config.store_path {
            Some(root) => Some(
                Catalog::open(root, config.threads.max(2))
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let state = ServerState {
            ctx,
            datasets: RwLock::new(datasets),
            prepared: PreparedCache::new(config.cache_capacity, Arc::clone(&obs.m.cache_evictions)),
            budgets: RwLock::new(budgets),
            catalog,
            replayed_spent: spent,
            ledger,
            release_seq: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            sched: Mutex::default(),
            obs,
            config,
        };
        for name in state.config.attach.clone() {
            state
                .attach_dataset(&name)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        Ok(state)
    }

    /// The observability hub (metrics registry, trace ring, event log).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The engine context (shared by every dataset's `Upa`).
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// The active configuration. Its [`ServerConfig::datasets`] keep
    /// their names, row counts and column names but no column values:
    /// the state serves from the chunks [`ServerState::new`] made of them.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .datasets
            .read()
            .expect("datasets poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Every served dataset's shape, sorted by name.
    pub fn dataset_infos(&self) -> Vec<DatasetInfo> {
        let mut infos: Vec<DatasetInfo> = self
            .datasets
            .read()
            .expect("datasets poisoned")
            .values()
            .map(|ds| {
                let mut columns: Vec<String> = ds.columns.keys().cloned().collect();
                columns.sort_unstable();
                DatasetInfo {
                    name: ds.name.clone(),
                    rows: ds.rows as u64,
                    columns,
                    resident_bytes: ds.resident_bytes as u64,
                }
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// The live catalog, when a store is configured.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.as_ref()
    }

    /// Bytes held by the served datasets attached from the store: the
    /// sum of the figure their `attach` and `datasets` replies report.
    pub fn store_resident_bytes(&self) -> usize {
        let Some(catalog) = &self.catalog else {
            return 0;
        };
        let attached = catalog.attached();
        self.datasets
            .read()
            .expect("datasets poisoned")
            .values()
            .filter(|ds| attached.contains(&ds.name))
            .map(|ds| ds.resident_bytes)
            .sum()
    }

    /// Datasets published in the store but not currently served, sorted
    /// (empty without a store).
    pub fn available_datasets(&self) -> Vec<String> {
        let Some(catalog) = &self.catalog else {
            return Vec::new();
        };
        let served = self.datasets.read().expect("datasets poisoned");
        let mut names: Vec<String> = catalog
            .available()
            .unwrap_or_default()
            .into_iter()
            .filter(|n| !served.contains_key(n))
            .collect();
        drop(served);
        names.sort_unstable();
        names
    }

    // ---- store admin ops ------------------------------------------------

    fn require_catalog(&self) -> Result<&Catalog, ServeError> {
        self.catalog
            .as_ref()
            .ok_or_else(|| ServeError::Store("no store directory configured".into()))
    }

    /// Seeds a freshly attached dataset's engine deterministically from
    /// the configured seed and the dataset name (attach order must not
    /// change the noise stream). The name goes through the engine's own
    /// [`hash_key`], whose algorithm is part of this code base, so the
    /// seed — and every release it draws — cannot move with the toolchain.
    fn attach_seed(&self, name: &str) -> u64 {
        self.config.seed ^ hash_key(name)
    }

    /// Ensures a metered dataset has a budget shard, seeding its spent ε
    /// from the ledger replay. Existing shards — including those left by
    /// a detach — are kept untouched, so re-attaching never resets spend.
    fn ensure_budget(&self, name: &str) {
        if let Some(total) = self.config.budget {
            let mut budgets = self.budgets.write().expect("budgets poisoned");
            budgets.entry(name.to_string()).or_insert_with(|| {
                let used = self.replayed_spent.get(name).copied().unwrap_or(0.0);
                Arc::new(BudgetAccountant::restore(total, used))
            });
        }
    }

    /// Attaches (or reloads) a store dataset into the serving set. The
    /// chunk load and each column's half totals run before any lock is
    /// taken; the datasets write lock is held only for the map insert.
    /// The dataset's budget shard — with any spend from a previous
    /// residency or the ledger replay — survives the cycle.
    ///
    /// # Errors
    ///
    /// Unknown dataset, corrupt chunks, or no configured store.
    pub fn attach_dataset(&self, name: &str) -> Result<AttachOutcome, ServeError> {
        let catalog = self.require_catalog()?;
        let (resident, reloaded) = catalog.attach(name)?;
        let ds = Arc::new(DatasetState::new(
            name,
            resident.rows,
            resident.columns.iter().cloned(),
            &self.ctx,
            &self.config,
            self.attach_seed(name),
        ));
        let resident_bytes = ds.resident_bytes as u64;
        self.datasets
            .write()
            .expect("datasets poisoned")
            .insert(name.to_string(), ds);
        // Any cached prepare was computed over the previous data.
        self.prepared.purge_dataset(name);
        self.ensure_budget(name);
        Ok(AttachOutcome {
            dataset: name.to_string(),
            rows: resident.rows as u64,
            resident_bytes,
            reloaded,
        })
    }

    /// Removes a dataset from the serving set. In-flight releases finish
    /// on their `Arc`s; the budget shard stays, so spent ε survives a
    /// detach/re-attach cycle.
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn detach_dataset(&self, name: &str) -> Result<(), ServeError> {
        self.datasets
            .write()
            .expect("datasets poisoned")
            .remove(name)
            .ok_or_else(|| ServeError::UnknownDataset(name.to_string()))?;
        if let Some(catalog) = &self.catalog {
            let _ = catalog.detach(name);
        }
        self.prepared.purge_dataset(name);
        Ok(())
    }

    /// Ingests a server-local CSV file into the store (columns that
    /// parse fully as numbers; others are skipped). The dataset is
    /// published atomically but *not* attached — serving it is a
    /// separate, explicit `attach`.
    ///
    /// # Errors
    ///
    /// Missing store, unreadable file, CSV/ingest failures, or an
    /// existing dataset of the same name.
    pub fn ingest_csv_file(
        &self,
        path: &Path,
        dataset: Option<&str>,
    ) -> Result<IngestReport, ServeError> {
        let catalog = self.require_catalog()?;
        let name = match dataset {
            Some(name) => name.to_string(),
            None => path
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
                .ok_or_else(|| {
                    ServeError::BadRequest("cannot derive a dataset name from the path".into())
                })?,
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Store(format!("read {}: {e}", path.display())))?;
        Ok(catalog
            .store()
            .ingest_csv(&name, &text, &IngestOptions::default())?)
    }

    /// Number of cached prepared queries.
    pub fn prepared_len(&self) -> usize {
        self.prepared.len()
    }

    /// A snapshot of the counters of the requests past the fast path.
    pub fn sched_stats(&self) -> SchedStats {
        self.counters().clone()
    }

    /// The counters of the requests past the fast path. Every update is
    /// a plain field write, so a poisoned lock is recovered.
    fn counters(&self) -> MutexGuard<'_, SchedStats> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ---- shutdown & admission ------------------------------------------

    /// Flags the server as draining; new requests are refused.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Tries to admit a connection against the cap; the guard releases
    /// the slot on drop.
    pub fn admit_connection(self: &Arc<Self>) -> Result<ConnectionGuard, ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let prev = self.active_connections.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_connections {
            self.active_connections.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Busy);
        }
        Ok(ConnectionGuard {
            state: Arc::clone(self),
        })
    }

    /// Currently admitted connections.
    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::SeqCst)
    }

    // ---- query path -----------------------------------------------------

    /// Clones the dataset's `Arc` out under the read lock; callers keep
    /// working on it even if the dataset is detached meanwhile.
    fn dataset(&self, name: &str) -> Result<Arc<DatasetState>, ServeError> {
        self.datasets
            .read()
            .expect("datasets poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDataset(name.to_string()))
    }

    /// The chunks a query samples and the half totals it subtracts its
    /// sample from. A column-less `count` reads no column: it samples
    /// zeros, and its totals are known without a scan — every row in the
    /// half of `0.0`, summing to zero.
    fn column(
        &self,
        ds: &DatasetState,
        kind: AggKind,
        column: &str,
    ) -> Result<(ColumnarBuf, Arc<HalfTotals>), ServeError> {
        if kind == AggKind::Count && column.is_empty() {
            let mut records = [0; 2];
            records[half_of(agg_half_key(&0.0))] = ds.rows as u64;
            let totals = HalfTotals::of_zeros(records);
            return Ok((ColumnarBuf::zeros(ds.rows), Arc::new(totals)));
        }
        ds.columns
            .get(column)
            .cloned()
            .ok_or_else(|| ServeError::UnknownColumn {
                dataset: ds.name.clone(),
                column: column.to_string(),
            })
    }

    /// Canonical query identity.
    pub fn query_id(dataset: &str, kind: AggKind, column: &str) -> String {
        format!("{dataset}/{}/{column}", kind.as_str())
    }

    /// The cached prepared state for `(dataset, kind, column)` over the
    /// dataset's current residency, if any. A hit refreshes the entry's
    /// LRU recency.
    pub fn cached_prepared(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
    ) -> Option<Arc<PreparedAgg>> {
        self.prepared
            .get(&self.dataset(dataset).ok()?.key(kind, column))
    }

    /// Phases 1–3: prepares (or fetches from the shared cache) the query
    /// state. Returns `(prepared, query_id, shared)`, where `shared`
    /// means another caller's engine run supplied it. The cache is
    /// shared across connections, so repeated releases of the same query
    /// reuse the engine work regardless of which client asked first.
    ///
    /// Single-flight: concurrent callers of one query on one residency
    /// wait for a single engine run and share its `Arc`, or its error.
    /// A failed run is not cached; the next caller tries again.
    ///
    /// # Errors
    ///
    /// Unknown dataset/column, or a pipeline failure.
    pub fn prepare(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
    ) -> Result<(Arc<PreparedAgg>, String, bool), ServeError> {
        let ds = self.dataset(dataset)?;
        self.prepare_in(&ds, kind, column)
    }

    /// [`ServerState::prepare`] over the residency `ds`, which an attach
    /// or detach may replace while the scan runs: the run is keyed by
    /// `ds`'s generation, so only callers of that same residency join it
    /// or find its result in the cache.
    fn prepare_in(
        &self,
        ds: &DatasetState,
        kind: AggKind,
        column: &str,
    ) -> Result<(Arc<PreparedAgg>, String, bool), ServeError> {
        let query_id = Self::query_id(&ds.name, kind, column);
        let (result, group) = self
            .prepared
            .get_or_prepare(ds.key(kind, column), || self.run_prepare(ds, kind, column));
        let ok = u64::from(result.is_ok());
        let mut s = self.counters();
        match group {
            Some(size) => {
                s.batches += 1;
                s.peak_batch = s.peak_batch.max(size);
                s.prepares += ok;
            }
            None => s.coalesced += ok,
        }
        Ok((result?, query_id, group.is_none()))
    }

    /// One engine run of phases 1–3 over `ds`.
    fn run_prepare(
        &self,
        ds: &DatasetState,
        kind: AggKind,
        column: &str,
    ) -> Result<Arc<PreparedAgg>, ServeError> {
        // Phases 1–3 gather the sample from the shared buffers and take
        // it out of the column's half totals; the domain sampler resamples
        // straight from the same chunks.
        let (buf, totals) = self.column(ds, kind, column)?;
        let query = build_agg_query(kind).with_half_totals(totals);
        // The sampler needs a non-empty pool; refuse a zero-row dataset
        // with the engine's own error before building it.
        if buf.is_empty() {
            return Err(ServeError::Pipeline(UpaError::EmptyDataset.to_string()));
        }
        let data = ColumnarDataset::new(&self.ctx, buf.clone());
        let domain = ColumnarEmpiricalSampler::new(buf);
        ds.upa
            .prepare(&data, &query, &domain)
            .map(Arc::new)
            .map_err(|e| ServeError::Pipeline(e.to_string()))
    }

    /// Charges `epsilon` against `dataset`'s budget and makes the spend
    /// durable. This is the crash-safety boundary: once this returns
    /// `Ok`, the spend survives any crash; the caller may then (and only
    /// then) compute and deliver the noisy output.
    ///
    /// Lock-free: the budget check-and-reserve is one CAS on the
    /// dataset's [`BudgetAccountant`] shard; durability is a submission to
    /// the group-commit ledger, which blocks until the record — batched
    /// with every concurrent spend — survives one shared fsync. A
    /// refused reservation leaves no ledger trace; a failed fsync
    /// refunds the reservation, so an I/O failure never leaks
    /// accounted-but-lost budget.
    ///
    /// # Errors
    ///
    /// Budget exhaustion, or a ledger append/fsync failure (in which
    /// case nothing stays charged).
    pub fn spend(
        &self,
        dataset: &str,
        query_id: &str,
        epsilon: f64,
    ) -> Result<Option<f64>, ServeError> {
        // Clone the shard `Arc` out once; the budgets lock is never held
        // across the reserve, the ledger fsync, or the refund.
        let shard = self
            .budgets
            .read()
            .expect("budgets poisoned")
            .get(dataset)
            .cloned();
        let reserved =
            match &shard {
                Some(shard) => Some(shard.try_spend(epsilon).map_err(|remaining| {
                    ServeError::BudgetExhausted {
                        remaining,
                        requested: epsilon,
                    }
                })?),
                None => None,
            };
        if let Some(ledger) = &self.ledger {
            let submitted = ledger.submit(&SpendRecord {
                dataset: dataset.to_string(),
                query_id: query_id.to_string(),
                epsilon,
            });
            if let Err(msg) = submitted {
                if let Some(shard) = &shard {
                    shard.refund(epsilon);
                }
                return Err(ServeError::Ledger(msg));
            }
        }
        Ok(reserved)
    }

    /// The full release path for in-process embedding: prepare (or
    /// share), charge + fsync the spend, then draw the noisy output,
    /// exactly as a `release` request without a deadline is served.
    ///
    /// # Errors
    ///
    /// Any of [`ServerState::prepare`] / [`ServerState::spend`] errors,
    /// or a pipeline failure in the release phase.
    pub fn release(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
        epsilon: Option<f64>,
        want_audit: bool,
    ) -> Result<ReleaseOutcome, ServeError> {
        let ctx = RequestCtx {
            want_audit,
            ..RequestCtx::default()
        };
        let Response::Released(out) =
            self.serve(dataset, kind, column, Ask::Release(epsilon), &ctx)?
        else {
            unreachable!("a release is answered with a release");
        };
        Ok(*out)
    }

    /// Phase 4 against already-prepared state: charge + fsync the spend,
    /// then draw one fresh noisy output from `prepared`. Every caller
    /// sharing one `prepared` gets an independent Laplace draw, and the
    /// budget is charged once per call — per release, not per prepare.
    ///
    /// # Errors
    ///
    /// Bad ε, an unknown (e.g. since detached) dataset — refused before
    /// any charge — budget/ledger refusals, or a pipeline failure.
    pub fn release_prepared(
        &self,
        dataset: &str,
        query_id: &str,
        prepared: &Arc<PreparedAgg>,
        epsilon: Option<f64>,
        want_audit: bool,
    ) -> Result<ReleaseOutcome, ServeError> {
        let epsilon = self.epsilon(epsilon)?;
        let ctx = RequestCtx {
            want_audit,
            ..RequestCtx::default()
        };
        let ds = self.dataset(dataset)?;
        self.draw(&ds, query_id, prepared, epsilon, &ctx)
    }

    /// The ε a release charges: `epsilon`, or the configured default.
    fn epsilon(&self, epsilon: Option<f64>) -> Result<f64, ServeError> {
        let epsilon = epsilon.unwrap_or(self.config.epsilon);
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ServeError::BadRequest("epsilon must be positive".into()));
        }
        Ok(epsilon)
    }

    /// Serves one `prepare` or `release` request on the caller's thread.
    /// A cached release with no deadline is drawn at once (the fast
    /// path). Anything else holds one of the dataset's permits while it
    /// looks up or prepares its state, then spends and draws. A deadline
    /// bounds the wait for the permit and is checked again before the
    /// prepare and before the spend, so a shed request is never charged.
    ///
    /// # Errors
    ///
    /// Bad ε, unknown dataset/column, `busy`, `deadline`, or any
    /// prepare, spend or release failure.
    pub(crate) fn serve(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
        ask: Ask,
        ctx: &RequestCtx<'_>,
    ) -> Result<Response, ServeError> {
        let epsilon = match ask {
            Ask::Prepare => None,
            Ask::Release(epsilon) => Some(self.epsilon(epsilon)?),
        };
        let query_id = Self::query_id(dataset, kind, column);
        if let Some(t) = ctx.trace {
            t.set_query_id(&query_id);
        }
        let ds = self.dataset(dataset)?;
        let m = &self.obs.m;
        if let (Some(epsilon), None) = (epsilon, ctx.deadline) {
            if let Some(prepared) = self.prepared.get(&ds.key(kind, column)) {
                m.cache_hits.inc();
                m.fastpath_hits.inc();
                let out = self.draw(&ds, &query_id, &prepared, epsilon, ctx)?;
                return Ok(Response::Released(Box::new(out)));
            }
            m.cache_misses.inc();
        }
        let _ticket = self.admit(&ds, ctx)?;
        if expired(ctx.deadline) {
            return Err(self.shed());
        }
        let start = Instant::now();
        let (prepared, _, shared) = self.prepare_in(&ds, kind, column)?;
        let end = Instant::now();
        let (span, took) = if shared {
            ("coalesce_wait", &m.coalesce_wait)
        } else {
            ("engine_prepare", &m.engine_prepare)
        };
        took.record_duration(end - start);
        if let Some(t) = ctx.trace {
            t.span(span, start, end);
        }
        let Some(epsilon) = epsilon else {
            return Ok(Response::Prepared(PreparedInfo {
                query_id,
                sample_size: prepared.sample_size(),
                cached: shared,
            }));
        };
        if expired(ctx.deadline) {
            return Err(self.shed());
        }
        // Hold the dataset again before charging for it: a detach during
        // the wait or the prepare is refused here, with nothing spent.
        let ds = self.dataset(dataset)?;
        let mut out = self.draw(&ds, &query_id, &prepared, epsilon, ctx)?;
        out.cached = shared;
        out.prepare_us = (!shared).then(|| (end - start).as_micros() as u64);
        Ok(Response::Released(Box::new(out)))
    }

    /// Takes one of `ds`'s permits for a request past the fast path,
    /// waiting at most until the request's deadline. Refuses `busy` when
    /// every permit is held and `queue_capacity` requests already wait.
    fn admit<'a>(
        &'a self,
        ds: &'a DatasetState,
        ctx: &RequestCtx<'_>,
    ) -> Result<Ticket<'a>, ServeError> {
        let limit = self.config.max_inflight_prepares;
        let arrived = Instant::now();
        let mut count = ds.permits.count.lock().expect("permits poisoned");
        if count.held >= limit && count.waiting >= self.config.queue_capacity {
            self.counters().busy_rejected += 1;
            return Err(ServeError::Busy);
        }
        self.counters().submitted += 1;
        let mut ticket = Ticket {
            state: self,
            permits: None,
        };
        if count.held >= limit {
            count.waiting += 1;
            let mut s = self.counters();
            s.queued += 1;
            s.peak_queued = s.peak_queued.max(s.queued);
            drop(s);
            let full = |count: &mut PermitCount| count.held >= limit;
            let freed = &ds.permits.freed;
            count = match ctx.deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    freed
                        .wait_timeout_while(count, left, full)
                        .expect("permits poisoned")
                        .0
                }
                None => freed.wait_while(count, full).expect("permits poisoned"),
            };
            count.waiting -= 1;
            self.counters().queued -= 1;
        }
        if count.held < limit {
            count.held += 1;
            ticket.permits = Some(&ds.permits);
        }
        drop(count);
        let granted = Instant::now();
        self.obs.m.queue_wait.record_duration(granted - arrived);
        if let Some(t) = ctx.trace {
            t.span("queue_wait", arrived, granted);
        }
        match ticket.permits {
            Some(_) => Ok(ticket),
            // The deadline passed before a permit came free.
            None => Err(self.shed()),
        }
    }

    /// Counts a request shed for its deadline.
    fn shed(&self) -> ServeError {
        self.counters().shed_deadline += 1;
        ServeError::DeadlineExceeded
    }

    /// Phase 4: charge + fsync the spend, then one Laplace draw from
    /// `prepared` on `ds`'s engine. The ledger-fsync and noise-draw
    /// timings land in the metrics histograms always, and as spans on
    /// the request's trace when it has one, along with the engine's
    /// audit span tree rebased under `engine/`.
    fn draw(
        &self,
        ds: &DatasetState,
        query_id: &str,
        prepared: &PreparedAgg,
        epsilon: f64,
        ctx: &RequestCtx<'_>,
    ) -> Result<ReleaseOutcome, ServeError> {
        let trace = ctx.trace;
        let seq = self.release_seq.fetch_add(1, Ordering::SeqCst);
        // Fault points sit outside every lock so an injected panic kills
        // only this thread, never poisons shared state.
        if self.config.fault == ReleaseFault::BeforeLedger(seq) {
            panic!("injected fault: release {seq} dies before the ledger append");
        }
        let spend_start = Instant::now();
        let budget_remaining = self.spend(&ds.name, query_id, epsilon)?;
        if self.config.ledger_path.is_some() {
            // The spend is dominated by the ledger append + fsync; only
            // record it when a ledger is actually on the path.
            self.obs
                .m
                .ledger_fsync
                .record_duration(spend_start.elapsed());
            if let Some(t) = trace {
                t.span_since("ledger_fsync", spend_start);
            }
        }
        if self.config.fault == ReleaseFault::AfterLedger(seq) {
            panic!("injected fault: release {seq} dies after the ledger fsync");
        }

        let noise_start = Instant::now();
        // The server's accountant is authoritative (the engine's own
        // budget is unset), so the release stamps the remaining budget into
        // the audit before the ring that the `audit` op reads retains it.
        let (result, stored) = ds
            .upa
            .release_with(prepared, epsilon, |audit| {
                audit.budget_remaining = budget_remaining;
            })
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        self.obs.m.noise_draw.record_duration(noise_start.elapsed());
        if let Some(t) = trace {
            t.span_since("noise_draw", noise_start);
            // Graft the engine's view of this release under the server
            // trace, whether or not the client asked for the audit payload.
            t.graft_engine(stored.spans_rebased("engine"));
        }
        let audit = ctx.want_audit.then(|| QueryAudit::clone(&stored));
        Ok(ReleaseOutcome {
            query_id: query_id.to_string(),
            released: result.released,
            epsilon,
            noise_scale: result.max_sensitivity() / epsilon,
            sample_size: result.sample_size,
            budget_remaining,
            // A caller that ran its own (cold) prepare restamps these.
            cached: true,
            prepare_us: None,
            audit,
        })
    }

    /// The dataset's budget as `(total, spent, remaining)` (`None` when
    /// unmetered).
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn budget_of(&self, dataset: &str) -> Result<Option<(f64, f64, f64)>, ServeError> {
        self.dataset(dataset)?;
        Ok(self
            .budgets
            .read()
            .expect("budgets poisoned")
            .get(dataset)
            .map(|b| (b.total(), b.spent(), b.remaining())))
    }

    /// Every metered dataset's budget as `(name, total, spent,
    /// remaining)`, sorted by name — the `metrics` op's per-dataset
    /// ε-remaining gauges.
    pub fn budgets(&self) -> Vec<(String, f64, f64, f64)> {
        let mut out: Vec<_> = self
            .budgets
            .read()
            .expect("budgets poisoned")
            .iter()
            .map(|(name, b)| (name.clone(), b.total(), b.spent(), b.remaining()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Every served dataset's retained engine state as `(name, distinct
    /// enforcer signatures, retained audits)`, sorted by name — the
    /// `metrics` op's per-dataset `upa_enforcer_signatures` and
    /// `upa_audit_ring_entries` gauges. Takes each dataset's engine
    /// critical section in turn, which a release holds for its enforcer
    /// pass and noise draw and a prepare only for its sample draws, so a
    /// scrape never waits out a scan.
    pub fn retained(&self) -> Vec<(String, usize, usize)> {
        let datasets: Vec<Arc<DatasetState>> = self
            .datasets
            .read()
            .expect("datasets poisoned")
            .values()
            .cloned()
            .collect();
        let mut out: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let signatures = ds.upa.enforcer().distinct_len();
                (ds.name.clone(), signatures, ds.upa.audits().len())
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The dataset's most recent `last` audits, oldest first (at most the
    /// engine's retained ring).
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn audits_of(&self, dataset: &str, last: usize) -> Result<Vec<QueryAudit>, ServeError> {
        let audits = self.dataset(dataset)?.upa.audits();
        let skip = audits.len().saturating_sub(last);
        Ok(audits[skip..]
            .iter()
            .map(|a| QueryAudit::clone(a))
            .collect())
    }
}

/// RAII connection slot; frees the admission counter on drop.
#[derive(Debug)]
pub struct ConnectionGuard {
    state: Arc<ServerState>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.state.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    fn state_with(budget: Option<f64>, ledger: Option<PathBuf>) -> Arc<ServerState> {
        Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![DatasetSpec::synthetic("data", 2_000, 9)],
                budget,
                ledger_path: ledger,
                epsilon: 0.4,
                sample_size: 40,
                threads: 2,
                ..ServerConfig::default()
            })
            .unwrap(),
        )
    }

    fn temp_ledger(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("upa_state_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    type Run = (Result<Arc<PreparedAgg>, ServeError>, Option<u64>);

    /// Opens the in-flight run of `ds`'s `sum/v` on another thread and
    /// holds it open until the returned sender fires.
    fn hold_run(
        state: &Arc<ServerState>,
        ds: Arc<DatasetState>,
    ) -> (mpsc::Sender<()>, JoinHandle<Run>) {
        let (started, has_started) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let state = Arc::clone(state);
        let run = std::thread::spawn(move || {
            state
                .prepared
                .get_or_prepare(ds.key(AggKind::Sum, "v"), || {
                    started.send(()).unwrap();
                    released.recv().unwrap();
                    state.run_prepare(&ds, AggKind::Sum, "v")
                })
        });
        has_started.recv().unwrap();
        (release, run)
    }

    #[test]
    fn config_holds_no_column_values_after_startup() {
        let state = state_with(None, None);
        let spec = &state.config().datasets[0];
        assert_eq!((spec.name.as_str(), spec.rows), ("data", 2_000));
        assert_eq!(spec.columns.keys().collect::<Vec<_>>(), ["v"]);
        assert!(
            spec.columns
                .values()
                .all(|v| v.is_empty() && v.capacity() == 0),
            "a served column's values are held beside its chunks"
        );
        // The chunks alone serve the column.
        let info = &state.dataset_infos()[0];
        assert_eq!(
            (info.rows, info.columns.clone()),
            (2_000, vec!["v".to_string()])
        );
        assert!(state.prepare("data", AggKind::Mean, "v").is_ok());
    }

    #[test]
    fn prepare_caches_across_callers() {
        let state = state_with(None, None);
        let (_, id1, hit1) = state.prepare("data", AggKind::Sum, "v").unwrap();
        let (_, id2, hit2) = state.prepare("data", AggKind::Sum, "v").unwrap();
        assert_eq!(id1, "data/sum/v");
        assert_eq!(id1, id2);
        assert!(!hit1);
        assert!(hit2, "second prepare must be a cache hit");
        assert_eq!(state.prepared_len(), 1);
        // A different aggregate is a different cache entry.
        let (_, _, hit3) = state.prepare("data", AggKind::Mean, "v").unwrap();
        assert!(!hit3);
        assert_eq!(state.prepared_len(), 2);
    }

    #[test]
    fn release_charges_budget_and_persists() {
        let path = temp_ledger("charge");
        let state = state_with(Some(1.0), Some(path.clone()));
        let out = state
            .release("data", AggKind::Count, "", None, true)
            .unwrap();
        assert_eq!(out.query_id, "data/count/");
        assert_eq!(out.epsilon, 0.4);
        assert!((out.budget_remaining.unwrap() - 0.6).abs() < 1e-9);
        let audit = out.audit.expect("audit requested");
        assert_eq!(audit.query, "count");
        assert_eq!(audit.budget_remaining, Some(out.budget_remaining.unwrap()));

        // Restart against the same ledger: the spend survives.
        drop(state);
        let state2 = state_with(Some(1.0), Some(path.clone()));
        let (total, spent, remaining) = state2.budget_of("data").unwrap().unwrap();
        assert_eq!(total, 1.0);
        assert!((spent - 0.4).abs() < 1e-9);
        assert!((remaining - 0.6).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_zero_row_dataset_prepares_to_an_error() {
        let state = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![DatasetSpec::new(
                    "e",
                    0,
                    HashMap::from([("v".to_string(), vec![])]),
                )],
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        for kind in [AggKind::Count, AggKind::Sum, AggKind::Mean] {
            let column = if kind == AggKind::Count { "" } else { "v" };
            let err = state.prepare("e", kind, column).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Pipeline);
            assert!(err.to_string().contains("empty"), "{err}");
        }
        assert_eq!(state.prepared_len(), 0);

        // Callers joining a failing run all get its error; none is cached.
        let ds = state.dataset("e").unwrap();
        let key = ds.key(AggKind::Sum, "v");
        let (release, run) = hold_run(&state, ds);
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.prepare("e", AggKind::Sum, "v"))
            })
            .collect();
        let callers = || {
            state.prepared.slots.lock().unwrap().inflight[&key]
                .callers
                .load(Ordering::Relaxed)
        };
        while callers() < 5 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let (failed, group) = run.join().unwrap();
        let failed = failed.unwrap_err();
        assert_eq!(group, Some(5));
        for follower in followers {
            assert_eq!(follower.join().unwrap().unwrap_err(), failed);
        }
        let runs = state.sched_stats().batches;
        assert_eq!(state.prepare("e", AggKind::Sum, "v").unwrap_err(), failed);
        assert_eq!(state.sched_stats().batches, runs + 1);
    }

    #[test]
    fn release_after_detach_is_refused_before_any_charge() {
        let path = temp_ledger("detached");
        let state = state_with(Some(1.0), Some(path.clone()));
        let (prepared, query_id, _) = state.prepare("data", AggKind::Sum, "v").unwrap();
        state.detach_dataset("data").unwrap();
        let err = state
            .release_prepared("data", &query_id, &prepared, None, false)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnknownDataset);
        assert_eq!(state.budgets(), vec![("data".to_string(), 1.0, 0.0, 1.0)]);
        let contents = std::fs::read(&path).unwrap_or_default();
        assert!(
            Ledger::replay(&contents).unwrap().is_empty(),
            "no ledger record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn over_budget_release_is_refused_without_ledger_trace() {
        let path = temp_ledger("refuse");
        let state = state_with(Some(0.5), Some(path.clone()));
        assert!(state
            .release("data", AggKind::Sum, "v", None, false)
            .is_ok());
        let err = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Budget);
        // The refused spend left no ledger record.
        let contents = std::fs::read(&path).unwrap();
        assert_eq!(Ledger::replay(&contents).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_dataset_and_column_are_clean_errors() {
        let state = state_with(None, None);
        assert_eq!(
            state
                .release("nope", AggKind::Count, "", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownDataset
        );
        assert_eq!(
            state
                .release("data", AggKind::Sum, "wrong", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownColumn
        );
        assert_eq!(
            state
                .release("data", AggKind::Sum, "v", Some(-1.0), false)
                .unwrap_err()
                .code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn count_without_column_uses_row_count() {
        let state = state_with(None, None);
        let out = state
            .release("data", AggKind::Count, "", None, true)
            .unwrap();
        assert_eq!(out.sample_size, 40);
        let audit = out.audit.unwrap();
        assert_eq!(audit.query, "count");
    }

    #[test]
    fn releases_reuse_prepared_state_with_fresh_noise() {
        let state = state_with(Some(1.0), None);
        assert_eq!(state.prepared_len(), 0);
        let a = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap();
        assert_eq!(state.prepared_len(), 1, "first release prepares");
        let mid = state.ctx().metrics();
        let b = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap();
        let delta = state.ctx().metrics().since(&mid);
        assert_eq!(delta.stages, 0, "cached release must run no engine stages");
        assert_ne!(a.released, b.released, "fresh noise per release");
        // The cached release took the fast path, and both paid their ε.
        assert_eq!(state.obs().m.fastpath_hits.get(), 1);
        assert!((state.budget_of("data").unwrap().unwrap().1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn per_release_epsilon_override() {
        let state = state_with(Some(1.0), None);
        let out = state
            .release("data", AggKind::Count, "", Some(0.25), false)
            .unwrap();
        assert_eq!(out.epsilon, 0.25);
        assert!((out.budget_remaining.unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn release_prepared_draws_fresh_noise_per_caller() {
        let state = state_with(Some(2.0), None);
        let (prepared, query_id, _) = state.prepare("data", AggKind::Sum, "v").unwrap();
        let a = state
            .release_prepared("data", &query_id, &prepared, None, false)
            .unwrap();
        let b = state
            .release_prepared("data", &query_id, &prepared, None, false)
            .unwrap();
        assert_ne!(a.released, b.released, "independent draws");
        // Budget charged once per release, never per prepare.
        let (_, spent, _) = state.budget_of("data").unwrap().unwrap();
        assert!((spent - 0.8).abs() < 1e-9);
        assert_eq!(
            state
                .release_prepared("data", &query_id, &prepared, Some(f64::NAN), false)
                .unwrap_err()
                .code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn connection_admission_caps_and_releases() {
        let state = state_with(None, None);
        // Default cap is 64; tighten via a bespoke config.
        let tight = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                max_connections: 1,
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        let g1 = tight.admit_connection().unwrap();
        assert_eq!(
            tight.admit_connection().unwrap_err().code(),
            ErrorCode::Busy
        );
        drop(g1);
        let _g2 = tight.admit_connection().unwrap();
        tight.begin_shutdown();
        assert_eq!(
            tight.admit_connection().unwrap_err().code(),
            ErrorCode::ShuttingDown
        );
        drop(state);
    }

    #[test]
    fn lru_cache_evicts_the_coldest_entry_at_capacity() {
        let state = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![DatasetSpec::synthetic("data", 2_000, 9)],
                epsilon: 0.4,
                sample_size: 40,
                threads: 2,
                cache_capacity: 2,
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        state.prepare("data", AggKind::Sum, "v").unwrap();
        state.prepare("data", AggKind::Mean, "v").unwrap();
        assert_eq!(state.prepared_len(), 2);
        // Touch `sum` so `mean` is the LRU victim when `count` arrives.
        assert!(state.cached_prepared("data", AggKind::Sum, "v").is_some());
        state.prepare("data", AggKind::Count, "").unwrap();
        assert_eq!(state.prepared_len(), 2, "capacity bound holds");
        assert!(state.cached_prepared("data", AggKind::Sum, "v").is_some());
        assert!(
            state.cached_prepared("data", AggKind::Mean, "v").is_none(),
            "the least-recently-used entry was evicted"
        );
        assert_eq!(state.obs().m.cache_evictions.get(), 1);
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("upa_state_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn store_state(dir: &Path, budget: Option<f64>, ledger: Option<PathBuf>) -> Arc<ServerState> {
        Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                budget,
                ledger_path: ledger,
                epsilon: 0.25,
                sample_size: 40,
                threads: 2,
                store_path: Some(dir.to_path_buf()),
                allow_admin: true,
                ..ServerConfig::default()
            })
            .unwrap(),
        )
    }

    fn ingest_column(dir: &Path, name: &str, values: Vec<f64>) {
        let store = upa_store::Store::open(dir).unwrap();
        let columns = vec![("v".to_string(), values)];
        store
            .ingest(
                name,
                &columns,
                &IngestOptions {
                    overwrite: true,
                    ..IngestOptions::default()
                },
            )
            .unwrap();
    }

    #[test]
    fn attach_detach_cycle_preserves_spent_budget() {
        let dir = temp_store("cycle");
        ingest_column(&dir, "live", (0..100).map(|i| (i % 7) as f64).collect());
        let state = store_state(&dir, Some(1.0), None);
        assert_eq!(state.available_datasets(), vec!["live".to_string()]);
        assert!(state.dataset("live").is_err());

        let out = state.attach_dataset("live").unwrap();
        assert_eq!(out.rows, 100);
        assert!(!out.reloaded, "first attach is not a reload");
        assert!(state.dataset("live").is_ok());
        assert!(state.available_datasets().is_empty());

        state
            .release("live", AggKind::Sum, "v", None, false)
            .unwrap();
        let (_, spent, _) = state.budget_of("live").unwrap().unwrap();
        assert!((spent - 0.25).abs() < 1e-9);

        state.detach_dataset("live").unwrap();
        assert!(state.dataset("live").is_err());
        assert_eq!(
            state
                .release("live", AggKind::Sum, "v", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownDataset
        );
        // The budget shard outlives the residency.
        let shards = state.budgets();
        assert_eq!(shards.len(), 1);
        assert!(
            (shards[0].2 - 0.25).abs() < 1e-9,
            "spent ε kept while detached"
        );

        state.attach_dataset("live").unwrap();
        let (_, spent_after, _) = state.budget_of("live").unwrap().unwrap();
        assert!(
            (spent_after - 0.25).abs() < 1e-9,
            "spent ε unchanged across detach/re-attach"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn column_less_count_reads_no_column() {
        let state = state_with(None, None);
        let ds = state.dataset("data").unwrap();
        let bytes = state.dataset_infos()[0].resident_bytes;
        let before = state.ctx.metrics();
        let (zeros, _) = state.column(&ds, AggKind::Count, "").unwrap();
        assert_eq!(zeros.to_vec(), vec![0.0; ds.rows]);
        let scanned = state.ctx.metrics().since(&before).records_processed;
        assert_eq!(scanned, 0, "the totals are known without a scan");

        // Two engine runs through the served path release what two runs
        // that fold fresh zero columns release, under the same engine
        // seed; the served ones read only their samples.
        let reference = Upa::new(ds.upa.ctx().clone(), ds.upa.config().clone());
        for _ in 0..2 {
            let served = state.run_prepare(&ds, AggKind::Count, "").unwrap();
            let zeros = ColumnarBuf::zeros(ds.rows);
            let fresh = reference
                .prepare(
                    &ColumnarDataset::new(reference.ctx(), zeros.clone()),
                    &build_agg_query(AggKind::Count),
                    &ColumnarEmpiricalSampler::new(zeros),
                )
                .unwrap();
            let served = ds.upa.release(&served).unwrap();
            let fresh = reference.release(&fresh).unwrap();
            assert_eq!(served.released.to_bits(), fresh.released.to_bits());
            assert_eq!(served.raw.to_bits(), fresh.raw.to_bits());
            assert_eq!(served.range.bounds, fresh.range.bounds);
            let read = ds.upa.last_audit().unwrap().engine.records_processed;
            assert_eq!(read, served.sample_size as u64);
        }
        assert_eq!(
            state.dataset_infos()[0].resident_bytes,
            bytes,
            "a column-less count adds nothing resident"
        );
    }

    /// The column-less count's totals follow the one half rule: every row
    /// in the half of `0.0`, exactly as [`agg_totals`] of `rows` zeros
    /// puts them. A count's partition outputs are its halves' records.
    #[test]
    fn column_less_count_totals_are_the_totals_of_zeros() {
        let state = state_with(None, None);
        let ds = state.dataset("data").unwrap();
        let (zeros, served) = state.column(&ds, AggKind::Count, "").unwrap();
        let scanned = Arc::new(agg_totals(&zeros.to_vec()));
        let partition_outputs = |totals: Arc<HalfTotals>| {
            let upa = Upa::new(ds.upa.ctx().clone(), ds.upa.config().clone());
            let query = build_agg_query(AggKind::Count).with_half_totals(totals);
            let column = ColumnarDataset::new(upa.ctx(), zeros.clone());
            let domain = ColumnarEmpiricalSampler::new(zeros.clone());
            upa.run(&column, &query, &domain).unwrap();
            let signature = upa
                .enforcer()
                .last_signature()
                .unwrap()
                .partition_outputs
                .clone();
            signature.map(|h| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let want = partition_outputs(scanned);
        assert_eq!(partition_outputs(served), want);
        let mut records = [0.0; 2];
        records[half_of(0.0f64.to_bits())] = ds.rows as f64;
        assert_eq!(want, records.map(|r| vec![r.to_bits()]));
    }

    /// On an integer-valued column every query's halves are both
    /// informative, so count, mean and sum in turn are three different
    /// queries, not repeats; none is suppressed.
    #[test]
    fn an_integer_column_releases_count_mean_and_sum_clean() {
        let state = ServerState::new(ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", 2_000_000, 97)],
            epsilon: 0.1,
            sample_size: 1_000,
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        for kind in [AggKind::Count, AggKind::Mean, AggKind::Sum] {
            let out = state.release("data", kind, "v", None, true).unwrap();
            let audit = out.audit.unwrap();
            assert!(!audit.attack_detected, "{kind:?} reported an attack");
            assert_eq!(audit.removed_records, 0, "{kind:?} removed records");
        }
    }

    /// The degenerate case the half rule cannot help: a column with one
    /// distinct value has one informative half under any content key, so
    /// Algorithm 2 sees a second kind over it share a partition output
    /// with the first and separates it. This pins what it reports; what
    /// it should report belongs to the guarantee's definition.
    #[test]
    fn a_second_kind_on_a_constant_column_is_pinned() {
        let rows = 20_000;
        let state = ServerState::new(ServerConfig {
            datasets: vec![DatasetSpec::new(
                "constant",
                rows,
                HashMap::from([("v".to_string(), vec![7.0; rows])]),
            )],
            epsilon: 0.1,
            sample_size: 200,
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let report = |kind| {
            let audit = state
                .release("constant", kind, "v", None, true)
                .unwrap()
                .audit
                .unwrap();
            (audit.attack_detected, audit.removed_records, audit.clamped)
        };
        // (attack_detected, removed_records, clamped): the first kind is
        // clean, and each later one loses its whole sample.
        assert_eq!(report(AggKind::Count), (false, 0, false));
        assert_eq!(report(AggKind::Sum), (true, 200, true));
        assert_eq!(report(AggKind::Mean), (true, 200, false));
    }

    /// An attach sums every column's half totals: it charges the context
    /// each column's rows, and a count, sum or mean after it charges
    /// nothing and reports exactly its sample. A re-attach sums them
    /// again, over the new residency's columns.
    #[test]
    fn an_attach_sums_every_column_and_a_prepare_reads_only_its_sample() {
        let dir = temp_store("attach_totals");
        let rows = 2_500usize;
        let columns: Vec<(String, Vec<f64>)> = ["a", "b"]
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let values = (0..rows).map(|i| ((i * (c + 3)) % 13) as f64 * 0.5);
                (name.to_string(), values.collect())
            })
            .collect();
        upa_store::Store::open(&dir)
            .unwrap()
            .ingest("two", &columns, &IngestOptions::default())
            .unwrap();
        let state = store_state(&dir, None, None);
        for residency in 0..2 {
            let before = state.ctx.metrics();
            state.attach_dataset("two").unwrap();
            let charged = state.ctx.metrics().since(&before).records_processed;
            assert_eq!(charged, 2 * rows as u64, "residency {residency}: attach");
            let ds = state.dataset("two").unwrap();
            for column in ["a", "b"] {
                for kind in [AggKind::Count, AggKind::Sum, AggKind::Mean] {
                    let before = state.ctx.metrics();
                    let (prepared, _, _) = state.prepare("two", kind, column).unwrap();
                    let charged = state.ctx.metrics().since(&before).records_processed;
                    ds.upa.release(&prepared).unwrap();
                    let reported = ds.upa.last_audit().unwrap().engine.records_processed;
                    let n = prepared.sample_size() as u64;
                    assert_eq!((reported, charged), (n, 0), "{kind:?} over {column}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Count, sum and mean share one column's totals, summed once per
    /// residency by its attach: resident bytes count the column and its
    /// one [`HalfTotals`] from the attach on, and no prepare adds to them.
    #[test]
    fn a_columns_totals_are_filled_once_and_go_with_the_residency() {
        let dir = temp_store("totals");
        let rows = 3_000usize;
        ingest_column(
            &dir,
            "m",
            (0..rows).map(|i| (i % 11) as f64 * 0.1).collect(),
        );
        let state = store_state(&dir, None, None);
        let bytes = || state.dataset_infos()[0].resident_bytes;
        let resident = (rows * 8 + std::mem::size_of::<HalfTotals>()) as u64;
        for residency in 0..2 {
            let before = state.ctx.metrics();
            state.attach_dataset("m").unwrap();
            assert_eq!(
                bytes(),
                resident,
                "residency {residency} starts with totals"
            );
            for kind in [AggKind::Sum, AggKind::Mean, AggKind::Count] {
                state.prepare("m", kind, "v").unwrap();
                assert_eq!(bytes(), resident, "{kind:?}");
            }
            let charged = state.ctx.metrics().since(&before).records_processed;
            assert_eq!(charged, rows as u64, "residency {residency}: one fill");
            state.detach_dataset("m").unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every prepare reports only the records it reads, its sample, and
    /// charges the context nothing: the column's totals were summed when
    /// the state was built.
    #[test]
    fn a_prepare_after_the_fill_reads_only_its_sample() {
        let state = state_with(None, None);
        let ds = state.dataset("data").unwrap();
        let kinds = [AggKind::Sum, AggKind::Mean, AggKind::Count, AggKind::Sum];
        for (i, kind) in kinds.into_iter().enumerate() {
            let before = state.ctx.metrics();
            let prepared = state.run_prepare(&ds, kind, "v").unwrap();
            let charged = state.ctx.metrics().since(&before).records_processed;
            ds.upa.release(&prepared).unwrap();
            let reported = ds.upa.last_audit().unwrap().engine.records_processed;
            let n = prepared.sample_size() as u64;
            assert_eq!((reported, charged), (n, 0), "{kind:?}, prepare {i}");
        }
    }

    #[test]
    fn reattach_reloads_fresh_data_and_purges_prepared_cache() {
        let dir = temp_store("reload");
        ingest_column(&dir, "hot", vec![1.0; 50]);
        let state = store_state(&dir, None, None);
        state.attach_dataset("hot").unwrap();
        state.prepare("hot", AggKind::Sum, "v").unwrap();
        assert!(state.cached_prepared("hot", AggKind::Sum, "v").is_some());

        // Re-publish with different data, then hot-reload.
        ingest_column(&dir, "hot", vec![2.0; 80]);
        let out = state.attach_dataset("hot").unwrap();
        assert!(out.reloaded, "attach-when-attached is a reload");
        assert_eq!(out.rows, 80);
        assert!(
            state.cached_prepared("hot", AggKind::Sum, "v").is_none(),
            "stale prepared state must not survive a reload"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_prepare_that_outlives_its_residency_is_never_served() {
        let dir = temp_store("outlived");
        ingest_column(&dir, "hot", vec![1.0; 50]);
        let state = store_state(&dir, None, None);
        state.attach_dataset("hot").unwrap();

        // A cold prepare takes the residency; a reload with different
        // data swaps it out and purges the cache; only then does the
        // prepare publish.
        let old = state.dataset("hot").unwrap();
        ingest_column(&dir, "hot", vec![2.0; 80]);
        state.attach_dataset("hot").unwrap();
        let (stale, _, cached) = state.prepare_in(&old, AggKind::Sum, "v").unwrap();
        assert!(!cached);
        assert!(
            state.cached_prepared("hot", AggKind::Sum, "v").is_none(),
            "a prepare of the replaced data must not be served after the reload"
        );
        let (fresh, _, cached) = state.prepare("hot", AggKind::Sum, "v").unwrap();
        assert!(
            !cached,
            "the first prepare after the reload scans the new data"
        );
        assert!(!Arc::ptr_eq(&stale, &fresh));

        // The same race across a detach and a later re-attach.
        let old = state.dataset("hot").unwrap();
        state.detach_dataset("hot").unwrap();
        state.prepare_in(&old, AggKind::Mean, "v").unwrap();
        state.attach_dataset("hot").unwrap();
        assert!(state.cached_prepared("hot", AggKind::Mean, "v").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reload_never_joins_the_old_residencys_prepare() {
        let dir = temp_store("inflight_reload");
        ingest_column(&dir, "hot", vec![1.0; 50]);
        let state = store_state(&dir, None, None);
        state.attach_dataset("hot").unwrap();

        // A prepare of the old residency is still running when a reload
        // swaps the data in.
        let (release, old_run) = hold_run(&state, state.dataset("hot").unwrap());
        ingest_column(&dir, "hot", vec![2.0; 80]);
        state.attach_dataset("hot").unwrap();
        let (tx, rx) = mpsc::channel();
        let new_request = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || tx.send(state.prepare("hot", AggKind::Sum, "v")))
        };
        let fresh = rx.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        let stale = old_run.join().unwrap().0.unwrap();
        let _ = new_request.join().unwrap();
        let (fresh, _, shared) = fresh
            .expect("a request on the new residency waited on the old one's prepare")
            .unwrap();
        assert!(!shared, "the new residency runs its own prepare");
        assert!(!Arc::ptr_eq(&fresh, &stale));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_prepares_of_one_key_share_one_engine_run() {
        let state = ServerState::new(ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", 200_000, 97)],
            sample_size: 40,
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let barrier = std::sync::Barrier::new(8);
        let got: Vec<_> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        state.prepare("data", AggKind::Sum, "v").unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let stats = state.sched_stats();
        assert_eq!((stats.prepares, stats.coalesced), (1, 7), "{stats:?}");
        assert!(
            got.iter().all(|(p, _, _)| Arc::ptr_eq(p, &got[0].0)),
            "every caller holds the same prepared state"
        );
    }

    #[test]
    fn attach_errors_are_clean() {
        // No store configured: attach is a store error, not a panic.
        let state = state_with(None, None);
        assert_eq!(
            state.attach_dataset("anything").unwrap_err().code(),
            ErrorCode::Store
        );
        // Store configured but the dataset is not published.
        let dir = temp_store("missing");
        let state = store_state(&dir, None, None);
        assert_eq!(
            state.attach_dataset("ghost").unwrap_err().code(),
            ErrorCode::UnknownDataset
        );
        assert_eq!(
            state.detach_dataset("ghost").unwrap_err().code(),
            ErrorCode::UnknownDataset
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_replay_seeds_budgets_of_late_attached_datasets() {
        let dir = temp_store("replay");
        ingest_column(&dir, "late", (0..60).map(|i| i as f64).collect());
        let ledger_path = temp_ledger("late_attach");

        // First life: attach, spend, die.
        let state = store_state(&dir, Some(1.0), Some(ledger_path.clone()));
        state.attach_dataset("late").unwrap();
        state
            .release("late", AggKind::Count, "", None, false)
            .unwrap();
        drop(state);

        // Second life: the dataset is not attached at startup, but its
        // replayed spend must seed the shard on a later attach.
        let state2 = store_state(&dir, Some(1.0), Some(ledger_path.clone()));
        assert!(state2.dataset("late").is_err());
        state2.attach_dataset("late").unwrap();
        let (total, spent, remaining) = state2.budget_of("late").unwrap().unwrap();
        assert_eq!(total, 1.0);
        assert!(
            (spent - 0.25).abs() < 1e-9,
            "replayed spend survives restart"
        );
        assert!((remaining - 0.75).abs() < 1e-9);
        let _ = std::fs::remove_file(&ledger_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_attach_list_attaches_at_startup() {
        let dir = temp_store("startup");
        ingest_column(&dir, "boot", vec![3.0; 30]);
        let state = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                epsilon: 0.25,
                sample_size: 20,
                threads: 2,
                store_path: Some(dir.clone()),
                attach: vec!["boot".to_string()],
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        assert!(state.dataset("boot").is_ok());
        assert_eq!(state.dataset_infos()[0].rows, 30);
        // A bad startup attach is a constructor error, not a panic.
        let bad = ServerState::new(ServerConfig {
            datasets: vec![],
            store_path: Some(dir.clone()),
            attach: vec!["nope".to_string()],
            ..ServerConfig::default()
        });
        assert!(bad.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_seed_is_order_independent() {
        let dir = temp_store("seeds");
        ingest_column(&dir, "a", (0..40).map(|i| (i % 5) as f64).collect());
        ingest_column(&dir, "b", (0..40).map(|i| (i % 3) as f64).collect());

        let state_ab = store_state(&dir, None, None);
        state_ab.attach_dataset("a").unwrap();
        state_ab.attach_dataset("b").unwrap();
        let ab = state_ab
            .release("a", AggKind::Sum, "v", None, false)
            .unwrap();

        let state_ba = store_state(&dir, None, None);
        state_ba.attach_dataset("b").unwrap();
        state_ba.attach_dataset("a").unwrap();
        let ba = state_ba
            .release("a", AggKind::Sum, "v", None, false)
            .unwrap();

        assert_eq!(
            ab.released, ba.released,
            "attach order must not change a dataset's noise stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_csv_file_publishes_without_attaching() {
        let dir = temp_store("ingest");
        let csv = std::env::temp_dir().join(format!("upa_state_ingest_{}.csv", std::process::id()));
        std::fs::write(&csv, "v,label\n1.5,x\n2.5,y\n3.5,z\n").unwrap();
        let state = store_state(&dir, None, None);
        let report = state.ingest_csv_file(&csv, None).unwrap();
        // Name derives from the file stem; only numeric columns survive.
        assert!(report.dataset.starts_with("upa_state_ingest_"));
        assert_eq!(report.rows, 3);
        assert_eq!(report.columns, vec!["v".to_string()]);
        assert!(
            state.dataset(&report.dataset).is_err(),
            "ingest must not auto-attach"
        );
        assert_eq!(state.available_datasets(), vec![report.dataset.clone()]);

        // Explicit names and missing files are clean errors.
        assert_eq!(
            state
                .ingest_csv_file(Path::new("/nonexistent/x.csv"), Some("x"))
                .unwrap_err()
                .code(),
            ErrorCode::Store
        );
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_layout_never_reaches_a_release() {
        let dir = temp_store("columnar_bits");
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 101) as f64 - 17.0).collect();
        // Small chunks so the kernels cross many chunk boundaries.
        upa_store::Store::open(&dir)
            .unwrap()
            .ingest(
                "cols",
                &[("v".to_string(), values.clone())],
                &IngestOptions {
                    chunk_rows: 300,
                    overwrite: true,
                },
            )
            .unwrap();
        let make = |config: ServerConfig| {
            ServerState::new(ServerConfig {
                epsilon: 0.25,
                sample_size: 64,
                threads: 2,
                ..config
            })
            .unwrap()
        };
        let stored = make(ServerConfig {
            store_path: Some(dir.clone()),
            attach: vec!["cols".to_string()],
            ..ServerConfig::default()
        });
        // The same values as one in-memory chunk, under the same engine
        // seed the attach derived.
        let flat = make(ServerConfig {
            datasets: vec![DatasetSpec::new(
                "cols",
                values.len(),
                HashMap::from([("v".to_string(), values)]),
            )],
            seed: stored.attach_seed("cols"),
            ..ServerConfig::default()
        });
        for (kind, column) in [
            (AggKind::Sum, "v"),
            (AggKind::Mean, "v"),
            (AggKind::Count, ""),
        ] {
            let a = stored.release("cols", kind, column, None, true).unwrap();
            let b = flat.release("cols", kind, column, None, true).unwrap();
            assert_eq!(
                a.released.to_bits(),
                b.released.to_bits(),
                "{kind:?} release must not depend on the chunk layout"
            );
            assert!(!a.cached, "first release of a key is a cold prepare");
            assert!(a.prepare_us.is_some(), "cold releases report prepare time");
        }
        // The second release of a key is a cache hit with no prepare cost.
        let again = stored
            .release("cols", AggKind::Sum, "v", None, false)
            .unwrap();
        assert!(again.cached);
        assert_eq!(again.prepare_us, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_columns_must_match_the_row_count() {
        let err = ServerState::new(ServerConfig {
            datasets: vec![DatasetSpec::new(
                "ragged",
                10,
                HashMap::from([("short".to_string(), vec![1.0; 7])]),
            )],
            ..ServerConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        for needle in ["ragged", "short", "7", "10"] {
            assert!(msg.contains(needle), "'{msg}' does not name {needle}");
        }
    }

    #[test]
    fn from_csv_keeps_numeric_columns_only() {
        let dir = temp_store("csv");
        let path = dir.join("people.csv");
        std::fs::write(&path, "age,name,score\n31,ada,9.5\n44,lin,7.25\n").unwrap();
        let spec = DatasetSpec::from_csv(&path).unwrap();
        assert_eq!((spec.name.as_str(), spec.rows), ("people", 2));
        assert_eq!(spec.columns.len(), 2, "name is not numeric");
        assert_eq!(spec.columns["age"], vec![31.0, 44.0]);
        assert_eq!(spec.columns["score"], vec![9.5, 7.25]);
        std::fs::write(&path, "name\nada\n").unwrap();
        assert!(DatasetSpec::from_csv(&path).is_err(), "nothing to serve");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A NaN budget compares false against every charge, so a daemon
    /// that accepted it would report itself metered and never refuse.
    #[test]
    fn a_nan_budget_is_refused_at_startup() {
        let config = ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", 2_000, 9)],
            budget: Some(f64::NAN),
            sample_size: 40,
            threads: 2,
            ..ServerConfig::default()
        };
        match ServerState::new(config) {
            Err(err) => assert!(err.to_string().contains("budget"), "{err}"),
            Ok(state) => {
                let over = state.release("data", AggKind::Count, "", Some(1e9), false);
                panic!("a NaN budget started a daemon; a 1e9 release gave {over:?}");
            }
        }
    }

    #[test]
    fn startup_refuses_each_bad_budget_epsilon_and_sample_size() {
        type Row = (&'static str, fn(&mut ServerConfig));
        let rows: [Row; 11] = [
            ("budget", |c| c.budget = Some(f64::NAN)),
            ("budget", |c| c.budget = Some(f64::INFINITY)),
            ("budget", |c| c.budget = Some(0.0)),
            ("budget", |c| c.budget = Some(-1.0)),
            ("epsilon", |c| c.epsilon = 0.0),
            ("epsilon", |c| c.epsilon = -0.5),
            ("epsilon", |c| c.epsilon = f64::NAN),
            ("sample_size", |c| c.sample_size = 0),
            ("max_connections", |c| c.max_connections = 0),
            ("max_inflight", |c| c.max_inflight_prepares = 0),
            ("queue_capacity", |c| c.queue_capacity = 0),
        ];
        for (field, set) in rows {
            let mut config = ServerConfig::default();
            set(&mut config);
            let err = ServerState::new(config).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{field}");
            assert!(
                err.to_string().contains(field),
                "'{err}' does not name {field}"
            );
        }
        assert!(ServerState::new(ServerConfig {
            budget: Some(0.5),
            ..ServerConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn audits_of_returns_recent_releases() {
        let state = state_with(None, None);
        for _ in 0..3 {
            state
                .release("data", AggKind::Sum, "v", None, false)
                .unwrap();
        }
        let audits = state.audits_of("data", 2).unwrap();
        assert_eq!(audits.len(), 2);
        assert_eq!(audits[0].query, "sum");
        assert!(state.audits_of("missing", 1).is_err());
    }
}
