//! Engine metrics and the span/timer API.
//!
//! The paper's performance evaluation (Figures 2(b), 4(a), 4(b)) explains
//! UPA's overhead in terms of *extra shuffles* — RANGE ENFORCER exchanges
//! partition records between computers, and the paper's `joinDP` shuffles
//! twice where vanilla Spark shuffles once (this engine's `joinDP` shuffles
//! `other` once). To reproduce that analysis the engine
//! counts every stage, task, retry, shuffle record and shuffle byte, and
//! the benchmark harness reports them next to wall-clock numbers.
//!
//! On top of the flat counters, [`SpanRecorder`] provides nested,
//! named stage scopes ([`SpanScope`] RAII guards) with per-stage
//! wall-clock time and record counts. `upa-core` threads one recorder
//! through every phase of Algorithm 1 to build its per-query audits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, ignoring poison: a thread that panicked while holding it
/// must not stop later recording, and every update leaves the state
/// consistent, so a poisoned guard is safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared atomic counters, owned by a [`crate::Context`].
#[derive(Debug, Default)]
pub struct Metrics {
    stages: AtomicU64,
    tasks: AtomicU64,
    task_retries: AtomicU64,
    shuffles: AtomicU64,
    shuffle_records: AtomicU64,
    shuffle_bytes: AtomicU64,
    records_processed: AtomicU64,
    stage_nanos: Mutex<HashMap<String, u64>>,
}

impl Metrics {
    /// Creates a zeroed metrics registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    pub(crate) fn record_stage(&self, tasks: u64) {
        self.stages.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.task_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shuffle(&self, records: u64, bytes: u64) {
        self.shuffles.fetch_add(1, Ordering::Relaxed);
        self.shuffle_records.fetch_add(records, Ordering::Relaxed);
        self.shuffle_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_processed(&self, records: u64) {
        self.records_processed.fetch_add(records, Ordering::Relaxed);
    }

    pub(crate) fn record_stage_time(&self, name: &str, nanos: u64) {
        *lock(&self.stage_nanos).entry(name.to_string()).or_insert(0) += nanos;
    }

    /// Cumulative wall-clock nanoseconds per stage name — the basis of
    /// the paper's "time spent in shuffling" analysis (§VI-D reports more
    /// than 42.8% of execution time in shuffles for the local queries).
    pub fn stage_times(&self) -> HashMap<String, u64> {
        lock(&self.stage_nanos).clone()
    }

    /// Fraction of recorded stage time spent in shuffle stages
    /// (`shuffle-write`/`shuffle-read` plus the shuffle-consuming
    /// reducers, a join's fused chain `fused[join→…]` included), or 0
    /// when nothing was recorded.
    pub fn shuffle_time_share(&self) -> f64 {
        let times = lock(&self.stage_nanos);
        let total: u64 = times.values().sum();
        if total == 0 {
            return 0.0;
        }
        let shuffle: u64 = times
            .iter()
            .filter(|(name, _)| {
                name.starts_with("shuffle")
                    || name.as_str() == "reduce_by_key"
                    || name.as_str() == "join"
                    || name.starts_with("fused[join→")
            })
            .map(|(_, ns)| *ns)
            .sum();
        shuffle as f64 / total as f64
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: self.stages.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            task_retries: self.task_retries.load(Ordering::Relaxed),
            shuffles: self.shuffles.load(Ordering::Relaxed),
            shuffle_records: self.shuffle_records.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            records_processed: self.records_processed.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (used between benchmark runs).
    pub fn reset(&self) {
        self.stages.store(0, Ordering::Relaxed);
        self.tasks.store(0, Ordering::Relaxed);
        self.task_retries.store(0, Ordering::Relaxed);
        self.shuffles.store(0, Ordering::Relaxed);
        self.shuffle_records.store(0, Ordering::Relaxed);
        self.shuffle_bytes.store(0, Ordering::Relaxed);
        self.records_processed.store(0, Ordering::Relaxed);
        lock(&self.stage_nanos).clear();
    }
}

/// An immutable snapshot of [`Metrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Number of stages executed.
    pub stages: u64,
    /// Number of tasks launched (excluding retries).
    pub tasks: u64,
    /// Number of task retries triggered by fault injection.
    pub task_retries: u64,
    /// Number of shuffle operations.
    pub shuffles: u64,
    /// Total records moved across shuffles.
    pub shuffle_records: u64,
    /// Approximate bytes moved across shuffles (records × in-memory
    /// record size; heap payloads of variable-size records are not
    /// chased).
    pub shuffle_bytes: u64,
    /// Total records processed by narrow stages.
    pub records_processed: u64,
}

impl MetricsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    ///
    /// Counters are monotonic between resets, so each field saturates at
    /// zero rather than underflowing if a reset happened in between.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: self.stages.saturating_sub(earlier.stages),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            task_retries: self.task_retries.saturating_sub(earlier.task_retries),
            shuffles: self.shuffles.saturating_sub(earlier.shuffles),
            shuffle_records: self.shuffle_records.saturating_sub(earlier.shuffle_records),
            shuffle_bytes: self.shuffle_bytes.saturating_sub(earlier.shuffle_bytes),
            records_processed: self
                .records_processed
                .saturating_sub(earlier.records_processed),
        }
    }
}

// The wire rows of the engine counters and of one stage span: the one
// codec audits and request traces both carry.
upa_json::body! {
    MetricsSnapshot {
        stages,
        tasks,
        task_retries,
        shuffles,
        shuffle_records,
        shuffle_bytes,
        records_processed,
    }
    StageSpan { name, path, depth, nanos, records, calls }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stages={} tasks={} retries={} shuffles={} shuffle_records={} shuffle_bytes={} records={}",
            self.stages,
            self.tasks,
            self.task_retries,
            self.shuffles,
            self.shuffle_records,
            self.shuffle_bytes,
            self.records_processed
        )
    }
}

/// One named, possibly nested, timed stage recorded by a [`SpanRecorder`].
///
/// Spans accumulate: entering the same path twice adds to `nanos`,
/// `records` and `calls` rather than producing a second span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Leaf name, e.g. `"sample"`.
    pub name: String,
    /// Slash-separated path from the root scope, e.g. `"prepare/sample"`.
    pub path: String,
    /// Nesting depth (0 for root scopes).
    pub depth: usize,
    /// Cumulative wall-clock nanoseconds spent inside the span. Clamped
    /// to at least 1 per call so that a recorded stage is never reported
    /// with a zero timing.
    pub nanos: u64,
    /// Records attributed to the span via [`SpanScope::add_records`].
    pub records: u64,
    /// Number of times the span was entered.
    pub calls: u64,
}

impl StageSpan {
    /// The span re-rooted under `prefix`: its path gains a
    /// `prefix/` head and its depth shifts down one level. Used to
    /// graft an engine span tree into an enclosing trace (e.g. a
    /// server's per-request record) without colliding with the host's
    /// own span namespace.
    pub fn rebased(&self, prefix: &str) -> StageSpan {
        StageSpan {
            name: self.name.clone(),
            path: format!("{prefix}/{}", self.path),
            depth: self.depth + 1,
            nanos: self.nanos,
            records: self.records,
            calls: self.calls,
        }
    }
}

#[derive(Debug, Default)]
struct SpanState {
    /// Current path segments of open scopes.
    stack: Vec<String>,
    /// First-seen order of span paths.
    order: Vec<String>,
    spans: HashMap<String, StageSpan>,
}

impl SpanState {
    fn add(&mut self, path: &str, depth: usize, nanos: u64, records: u64, calls: u64) {
        if let Some(span) = self.spans.get_mut(path) {
            span.nanos += nanos;
            span.records += records;
            span.calls += calls;
            return;
        }
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        self.order.push(path.to_string());
        self.spans.insert(
            path.to_string(),
            StageSpan {
                name,
                path: path.to_string(),
                depth,
                nanos,
                records,
                calls,
            },
        );
    }
}

/// Records a tree of named, timed stage scopes.
///
/// Cheap to clone (all clones share state). Scopes are opened with
/// [`SpanRecorder::enter`] and closed when the returned [`SpanScope`]
/// guard drops; nesting follows lexical scope. The recorder itself is
/// thread-safe, but the open-scope *stack* is shared, so nested scopes
/// should be opened and closed from one thread at a time (UPA's driver
/// loop; engine tasks report records through their guard instead).
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    inner: Arc<Mutex<SpanState>>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Opens a nested scope named `name` under the currently open scopes.
    /// The scope closes (and its elapsed time is recorded) when the
    /// returned guard drops.
    pub fn enter(&self, name: &str) -> SpanScope {
        let (path, depth) = {
            let mut st = lock(&self.inner);
            let depth = st.stack.len();
            let path = if depth == 0 {
                name.to_string()
            } else {
                format!("{}/{}", st.stack.join("/"), name)
            };
            st.stack.push(name.to_string());
            (path, depth)
        };
        SpanScope {
            inner: Arc::clone(&self.inner),
            path,
            depth,
            records: 0,
            start: Instant::now(),
        }
    }

    /// Adds `records` to the innermost open scope (no-op when no scope
    /// is open).
    pub fn add_records(&self, records: u64) {
        let mut st = lock(&self.inner);
        if st.stack.is_empty() {
            return;
        }
        let path = st.stack.join("/");
        let depth = st.stack.len() - 1;
        // Attribute to the open span without counting an extra call.
        st.add(&path, depth, 0, records, 0);
    }

    /// All spans recorded so far, in completion order (a span is recorded
    /// when its scope closes, so children precede their parents).
    pub fn spans(&self) -> Vec<StageSpan> {
        let st = lock(&self.inner);
        st.order
            .iter()
            .filter_map(|p| st.spans.get(p).cloned())
            .collect()
    }

    /// Cumulative nanoseconds of the root (depth-0) spans.
    pub fn total_nanos(&self) -> u64 {
        lock(&self.inner)
            .spans
            .values()
            .filter(|s| s.depth == 0)
            .map(|s| s.nanos)
            .sum()
    }

    /// Nanoseconds recorded for the first span whose leaf name is `name`,
    /// or 0 when no such span exists.
    pub fn nanos_of(&self, name: &str) -> u64 {
        let st = lock(&self.inner);
        st.order
            .iter()
            .filter_map(|p| st.spans.get(p))
            .find(|s| s.name == name)
            .map(|s| s.nanos)
            .unwrap_or(0)
    }

    /// Discards every recorded span and closes all open scopes.
    pub fn clear(&self) {
        let mut st = lock(&self.inner);
        st.stack.clear();
        st.order.clear();
        st.spans.clear();
    }
}

/// RAII guard for one open span scope; records elapsed time on drop.
#[must_use = "a span scope records its time when dropped"]
#[derive(Debug)]
pub struct SpanScope {
    inner: Arc<Mutex<SpanState>>,
    path: String,
    depth: usize,
    records: u64,
    start: Instant,
}

impl SpanScope {
    /// Attributes `records` to this span (flushed when the guard drops).
    pub fn add_records(&mut self, records: u64) {
        self.records += records;
    }

    /// The slash-separated path of this scope.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let nanos = (self.start.elapsed().as_nanos() as u64).max(1);
        let mut st = lock(&self.inner);
        // Close this scope and any forgotten children (robust against
        // out-of-order drops).
        st.stack.truncate(self.depth);
        st.add(&self.path, self.depth, nanos, self.records, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_stage(4);
        m.record_stage(2);
        m.record_retry();
        m.record_shuffle(100, 800);
        m.record_processed(50);
        let s = m.snapshot();
        assert_eq!(s.stages, 2);
        assert_eq!(s.tasks, 6);
        assert_eq!(s.task_retries, 1);
        assert_eq!(s.shuffles, 1);
        assert_eq!(s.shuffle_records, 100);
        assert_eq!(s.shuffle_bytes, 800);
        assert_eq!(s.records_processed, 50);
    }

    #[test]
    fn since_computes_deltas() {
        let m = Metrics::new();
        m.record_stage(1);
        let before = m.snapshot();
        m.record_stage(3);
        m.record_shuffle(10, 40);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.stages, 1);
        assert_eq!(delta.tasks, 3);
        assert_eq!(delta.shuffles, 1);
        assert_eq!(delta.shuffle_records, 10);
        assert_eq!(delta.shuffle_bytes, 40);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let m = Metrics::new();
        m.record_stage(2);
        let before = m.snapshot();
        m.reset();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta, MetricsSnapshot::default());
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record_stage(1);
        m.record_shuffle(5, 20);
        m.record_stage_time("map", 100);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert!(m.stage_times().is_empty());
    }

    #[test]
    fn stage_times_accumulate_by_name() {
        let m = Metrics::new();
        m.record_stage_time("map", 100);
        m.record_stage_time("map", 50);
        m.record_stage_time("shuffle-write", 150);
        let times = m.stage_times();
        assert_eq!(times["map"], 150);
        assert_eq!(times["shuffle-write"], 150);
        assert!((m.shuffle_time_share() - 0.5).abs() < 1e-12);
    }

    /// A join's bucket work runs inside the chain it heads, so that
    /// chain's time is shuffle time; other fused chains' is not.
    #[test]
    fn fused_join_chain_counts_as_shuffle_time() {
        let m = Metrics::new();
        m.record_stage_time("fused[join→flat_map→map_partitions]", 300);
        m.record_stage_time("fused[map→filter]", 100);
        assert!((m.shuffle_time_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shuffle_share_of_empty_metrics_is_zero() {
        assert_eq!(Metrics::new().shuffle_time_share(), 0.0);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = MetricsSnapshot {
            stages: 1,
            tasks: 2,
            task_retries: 3,
            shuffles: 4,
            shuffle_records: 5,
            shuffle_bytes: 6,
            records_processed: 7,
        };
        let text = s.to_string();
        for field in [
            "stages=1",
            "tasks=2",
            "retries=3",
            "shuffles=4",
            "shuffle_bytes=6",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let rec = SpanRecorder::new();
        {
            let _outer = rec.enter("prepare");
            {
                let mut inner = rec.enter("sample");
                inner.add_records(10);
            }
            {
                let mut inner = rec.enter("sample");
                inner.add_records(5);
            }
            let _other = rec.enter("map");
        }
        let spans = rec.spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["prepare/sample", "prepare/map", "prepare"]);
        let sample = &spans[0];
        assert_eq!(sample.name, "sample");
        assert_eq!(sample.depth, 1);
        assert_eq!(sample.calls, 2);
        assert_eq!(sample.records, 15);
        assert!(sample.nanos >= 2, "two calls clamp to >= 1ns each");
        let prepare = spans.iter().find(|s| s.path == "prepare").unwrap();
        assert_eq!(prepare.depth, 0);
        assert!(prepare.nanos >= sample.nanos, "parent covers children");
    }

    #[test]
    fn recorder_level_records_hit_innermost_open_span() {
        let rec = SpanRecorder::new();
        {
            let _outer = rec.enter("release");
            {
                let _inner = rec.enter("noise");
                rec.add_records(3);
            }
        }
        assert_eq!(
            rec.spans()
                .iter()
                .find(|s| s.path == "release/noise")
                .unwrap()
                .records,
            3
        );
        rec.add_records(99); // no open scope: dropped
        assert!(rec.spans().iter().all(|s| s.records != 99));
    }

    #[test]
    fn total_nanos_counts_only_roots() {
        let rec = SpanRecorder::new();
        {
            let _a = rec.enter("a");
            let _b = rec.enter("b");
        }
        let spans = rec.spans();
        let root: u64 = spans.iter().filter(|s| s.depth == 0).map(|s| s.nanos).sum();
        assert_eq!(rec.total_nanos(), root);
        assert!(rec.nanos_of("b") >= 1);
        assert_eq!(rec.nanos_of("missing"), 0);
    }

    #[test]
    fn a_panic_while_recording_does_not_stop_later_recording() {
        let rec = SpanRecorder::new();
        let m = Arc::new(Metrics::new());
        let (r, m2) = (rec.clone(), Arc::clone(&m));
        let died = std::thread::spawn(move || {
            let _open = r.enter("doomed");
            // Panic with both locks held, as a failing update would.
            let _spans = r.inner.lock();
            let _times = m2.stage_nanos.lock();
            panic!("task failed mid-update");
        })
        .join();
        assert!(died.is_err());
        assert!(rec.inner.is_poisoned() && m.stage_nanos.is_poisoned());

        m.record_stage_time("map", 7);
        assert_eq!(m.stage_times()["map"], 7);
        {
            let mut after = rec.enter("after");
            after.add_records(2);
        }
        let spans = rec.spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["doomed", "after"], "the unwound scope closed too");
        assert_eq!((spans[1].depth, spans[1].records), (0, 2));
    }

    #[test]
    fn clear_discards_spans_and_open_scopes() {
        let rec = SpanRecorder::new();
        let guard = rec.enter("left-open");
        rec.clear();
        assert!(rec.spans().is_empty());
        drop(guard); // records into a fresh stack; must not panic
        assert_eq!(rec.spans().len(), 1);
    }
}
