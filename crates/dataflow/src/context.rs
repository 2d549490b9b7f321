//! Execution context: configuration, thread pool, metrics and the stage
//! scheduler with fault-injected retry.

use crate::dataset::Dataset;
use crate::fault::FaultInjector;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool::ThreadPool;
use crate::Data;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads in the shared pool.
    pub threads: usize,
    /// Default number of partitions for [`Context::parallelize_default`].
    pub default_partitions: usize,
    /// Number of reduce-side buckets used by shuffles.
    pub shuffle_partitions: usize,
    /// Fault injection for task attempts.
    pub fault: FaultInjector,
    /// Maximum retries per task before the job is aborted.
    pub max_task_retries: u32,
    /// Simulated per-record scan cost in nanoseconds, charged by every
    /// stage that touches records (map family, reduces, shuffle writes).
    ///
    /// The paper's vanilla-Spark baseline reads 114–133 GB from disk, so
    /// its per-record cost is I/O-dominated; this in-memory engine has no
    /// I/O at all, which would make "overhead relative to vanilla"
    /// meaningless for trivial queries. Setting a scan cost restores the
    /// paper's cost model: both vanilla and UPA pay it proportionally to
    /// the records they touch. Zero (the default) disables it.
    pub scan_cost_ns: u64,
    /// Whether `reduce_by_key` pre-reduces inside each map
    /// partition before shuffling (Spark's map-side combine). On by
    /// default; turning it off restores the naive every-record shuffle,
    /// which the equivalence tests use as a reference.
    pub map_side_combine: bool,
}

/// Busy-spins for roughly `records × ns` nanoseconds (one ALU-chained
/// iteration per nanosecond), simulating scan cost inside a task.
pub(crate) fn scan_delay(records: usize, ns: u64) {
    if ns == 0 || records == 0 {
        return;
    }
    let iters = records as u64 * ns;
    let mut x = 0u64;
    for i in 0..iters {
        x = x.wrapping_add(i ^ (x >> 3));
    }
    std::hint::black_box(x);
}

impl Default for Config {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Config {
            threads,
            default_partitions: threads,
            shuffle_partitions: threads,
            fault: FaultInjector::disabled(),
            max_task_retries: 4,
            scan_cost_ns: 0,
            map_side_combine: true,
        }
    }
}

/// The input count below which [`Context::par_map`] runs on the calling
/// thread: waking idle pool workers costs more than that much work.
///
/// Measured on 2 cores with 2 workers, medians of 201 calls each 200 µs
/// apart. Items of ~4 ns (one scalar merge and finalize, the served
/// neighbour outputs) took 44–53 µs pooled at 256–4,000 items, nearly all
/// of it the hand-off, and 1–11 µs inline; inline stayed faster at every
/// size up to 64,000. Items of ~15 ns took 58 µs at 4,000 inline against
/// 87 µs pooled, breaking even near 8,000; items of ~85 ns broke even
/// near 1,000. The heaviest caller below the crossover, KMeans' vector
/// neighbour outputs at n = 1,000 in the paper suite, measured even:
/// 0.67–0.97 ms inline against 0.85 ms pooled.
pub const PAR_MAP_INLINE_BELOW: usize = 4096;

struct Inner {
    pool: ThreadPool,
    metrics: Metrics,
    config: Config,
    stage_counter: AtomicU64,
}

/// Handle to the engine. Cheap to clone; all clones share the pool and the
/// metrics registry (like a `SparkContext`).
#[derive(Clone)]
pub struct Context {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("threads", &self.inner.config.threads)
            .field(
                "stages_run",
                &self.inner.stage_counter.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new(Config::default())
    }
}

impl Context {
    /// Creates a context with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `threads`, `default_partitions` or `shuffle_partitions`
    /// is zero.
    pub fn new(config: Config) -> Self {
        assert!(config.threads > 0, "config.threads must be positive");
        assert!(
            config.default_partitions > 0,
            "config.default_partitions must be positive"
        );
        assert!(
            config.shuffle_partitions > 0,
            "config.shuffle_partitions must be positive"
        );
        Context {
            inner: Arc::new(Inner {
                pool: ThreadPool::new(config.threads),
                metrics: Metrics::new(),
                config,
                stage_counter: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a context with `threads` workers and default settings.
    pub fn with_threads(threads: usize) -> Self {
        Context::new(Config {
            threads,
            default_partitions: threads,
            shuffle_partitions: threads,
            ..Config::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// Snapshot of the engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Resets the engine counters (benchmark harness helper).
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
    }

    /// Cumulative wall-clock nanoseconds per stage name.
    pub fn stage_times(&self) -> std::collections::HashMap<String, u64> {
        self.inner.metrics.stage_times()
    }

    /// Fraction of recorded stage time spent in shuffle-related stages
    /// (the paper's §VI-D breakdown).
    pub fn shuffle_time_share(&self) -> f64 {
        self.inner.metrics.shuffle_time_share()
    }

    /// Distributes `data` over `partitions` partitions, preserving order
    /// (record `i` lands in partition `i * partitions / len`).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Dataset<T> {
        assert!(partitions > 0, "partitions must be positive");
        let len = data.len();
        let mut parts: Vec<Arc<Vec<T>>> = Vec::with_capacity(partitions);
        if len == 0 {
            parts.push(Arc::new(Vec::new()));
        } else {
            let chunk = len.div_ceil(partitions);
            let mut it = data.into_iter();
            loop {
                let slab: Vec<T> = it.by_ref().take(chunk).collect();
                if slab.is_empty() {
                    break;
                }
                parts.push(Arc::new(slab));
            }
        }
        Dataset::from_parts(self.clone(), parts)
    }

    /// Distributes `data` over the configured default partition count.
    pub fn parallelize_default<T: Data>(&self, data: Vec<T>) -> Dataset<T> {
        self.parallelize(data, self.inner.config.default_partitions)
    }

    /// Runs a fused chain of narrow transforms as one stage: task `p`
    /// streams base partition `p` through every fused op, inside `f`,
    /// into whatever `f` makes of it — a freshly collected output
    /// partition, or an action's fold. Metrics charge only the base
    /// records — the whole point of fusion is that intermediate results
    /// are never materialised or re-scanned.
    pub(crate) fn run_fused<O: Send + 'static>(
        &self,
        name: &str,
        base_sizes: &Arc<Vec<usize>>,
        f: impl Fn(usize) -> O + Send + Sync + 'static,
    ) -> Vec<O> {
        let records: u64 = base_sizes.iter().map(|&n| n as u64).sum();
        self.inner.metrics.record_processed(records);
        let scan_ns = self.inner.config.scan_cost_ns;
        let sizes = Arc::clone(base_sizes);
        self.run_tasks(name, (0..sizes.len()).collect(), move |_i, p: usize| {
            scan_delay(sizes[p], scan_ns);
            f(p)
        })
    }

    /// The configured simulated scan cost (ns per record).
    pub(crate) fn scan_cost_ns(&self) -> u64 {
        self.inner.config.scan_cost_ns
    }

    /// Whether map-side combining is enabled for keyed reductions.
    pub(crate) fn map_side_combine(&self) -> bool {
        self.inner.config.map_side_combine
    }

    /// Runs one stage of arbitrary tasks with retry; the engine's core
    /// scheduling entry point. Returns outputs in input order.
    pub(crate) fn run_tasks<I, O, F>(&self, name: &str, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Clone + Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        let stage_id = self.inner.stage_counter.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.record_stage(inputs.len() as u64);
        let stage_start = std::time::Instant::now();
        let fault = self.inner.config.fault;
        let max_retries = self.inner.config.max_task_retries;
        let metrics = Arc::clone(&self.inner);
        let name = name.to_string();
        let name2 = name.clone();
        let task = Arc::new(move |i: usize, input: I| {
            let mut attempt: u32 = 0;
            loop {
                if !fault.should_fail(stage_id, i, attempt) {
                    return f(i, input);
                }
                metrics.metrics.record_retry();
                attempt += 1;
                if attempt > max_retries {
                    panic!(
                        "{}",
                        crate::DataflowError::TaskFailed {
                            stage: name.clone(),
                            task: i,
                        }
                    );
                }
            }
        });
        let outs = self.inner.pool.map_ordered(inputs, task);
        self.inner
            .metrics
            .record_stage_time(&name2, stage_start.elapsed().as_nanos() as u64);
        outs
    }

    /// Runs `f` over `inputs` and returns the outputs in input order,
    /// **without** recording a stage or touching any metrics counter.
    ///
    /// This is driver-side helper parallelism — e.g. UPA's phase-4
    /// neighbour finalizations and per-component MLE fits — not an engine
    /// stage: the observability counters keep meaning "work the dataflow
    /// graph ran", so a caller that only uses `par_map` still reports
    /// zero stages and zero shuffles.
    ///
    /// Fewer than [`PAR_MAP_INLINE_BELOW`] inputs (or a one-worker pool)
    /// run on the calling thread. More are split into at most one
    /// contiguous block per worker, one pool job each; `f` still sees each
    /// input's global index. The callers' items are ~10 ns of arithmetic,
    /// so one job and one reply per item would cost more in channel
    /// hand-offs than in work. Either way the outputs are the same values
    /// in the same order, and a panic in `f` reaches the calling thread.
    pub fn par_map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n < PAR_MAP_INLINE_BELOW || self.inner.pool.size() == 1 {
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let blocks = self.inner.pool.size().min(n);
        let mut items = inputs.into_iter();
        let mut start = 0;
        let mut parts: Vec<(usize, Vec<I>)> = Vec::with_capacity(blocks);
        for b in 0..blocks {
            // The first `n % blocks` blocks take one extra item.
            let len = n / blocks + usize::from(b < n % blocks);
            parts.push((start, items.by_ref().take(len).collect()));
            start += len;
        }
        let outs = self.inner.pool.map_ordered(
            parts,
            Arc::new(move |_b, (start, block): (usize, Vec<I>)| {
                block
                    .into_iter()
                    .enumerate()
                    .map(|(k, x)| f(start + k, x))
                    .collect::<Vec<O>>()
            }),
        );
        let mut out = Vec::with_capacity(n);
        for block in outs {
            out.extend(block);
        }
        out
    }

    /// Whether two handles share the same engine (pool + metrics).
    pub(crate) fn same_engine(&self, other: &Context) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn record_shuffle(&self, records: u64, bytes: u64) {
        self.inner.metrics.record_shuffle(records, bytes);
    }

    /// Charges `records` to the processed-records counter for a stage
    /// that does not go through [`Context::run_fused`] — the columnar
    /// kernels and `run_partitions` account their scans through this.
    pub(crate) fn record_processed_public(&self, records: u64) {
        self.inner.metrics.record_processed(records);
    }

    /// Records a logical record exchange performed outside the row
    /// shuffle machinery. The columnar reduce combines per-slab
    /// partials driver-side instead of routing them through
    /// `shuffle_by_key`, but it is still the same exchange the paper
    /// counts — this keeps the shuffle counters meaningful across both
    /// paths.
    pub fn record_logical_shuffle(&self, records: u64, bytes: u64) {
        self.inner.metrics.record_shuffle(records, bytes);
    }

    /// Number of reduce-side buckets shuffles use.
    pub(crate) fn shuffle_partitions(&self) -> usize {
        self.inner.config.shuffle_partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_runs_on_pool_without_metrics() {
        let ctx = Context::with_threads(4);
        let before = ctx.metrics();
        let out = ctx.par_map((0..32).collect::<Vec<u64>>(), |_i, x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<u64>>());
        let delta = ctx.metrics().since(&before);
        assert_eq!(delta.stages, 0, "par_map must not count as a stage");
        assert_eq!(delta.tasks, 0);
        assert_eq!(delta.records_processed, 0);
    }

    #[test]
    fn par_map_runs_small_inputs_on_the_calling_thread() {
        let ctx = Context::with_threads(2);
        let caller = std::thread::current().id();
        let small = ctx.par_map(vec![(); PAR_MAP_INLINE_BELOW - 1], |_i, ()| {
            std::thread::current().id()
        });
        assert!(small.iter().all(|&t| t == caller));
        let large = ctx.par_map(vec![(); PAR_MAP_INLINE_BELOW], |_i, ()| {
            std::thread::current().id()
        });
        assert!(large.iter().all(|&t| t != caller));
    }

    #[test]
    fn par_map_keeps_order_and_global_indices_across_blocks() {
        for threads in [1, 2, 4] {
            let ctx = Context::with_threads(threads);
            let big = PAR_MAP_INLINE_BELOW;
            let sizes = [
                0,
                1,
                threads - 1,
                threads,
                threads + 1,
                1001,
                big - 1,
                big,
                big + threads + 1,
            ];
            for n in sizes {
                let inputs: Vec<u64> = (0..n as u64).map(|x| x * 3 + 7).collect();
                let out = ctx.par_map(inputs.clone(), |i, x| (i, x));
                let expected: Vec<(usize, u64)> = inputs.into_iter().enumerate().collect();
                assert_eq!(out, expected, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn par_map_panic_reaches_caller_and_context_survives() {
        for threads in [1, 2, 4] {
            let ctx = Context::with_threads(threads);
            for n in [100, PAR_MAP_INLINE_BELOW + 100] {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.par_map((0..n as u32).collect::<Vec<u32>>(), |i, x| {
                        if i == 57 {
                            panic!("boom at {i}");
                        }
                        x
                    })
                }));
                let payload = result.expect_err("the item's panic must reach the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert_eq!(msg, "boom at 57", "threads={threads} n={n}");
            }
            let out = ctx.par_map((0..10).collect::<Vec<u32>>(), |_i, x| x + 1);
            assert_eq!(out, (1..11).collect::<Vec<u32>>(), "threads={threads}");
        }
    }

    #[test]
    fn parallelize_balances_partitions() {
        let ctx = Context::with_threads(4);
        let ds = ctx.parallelize((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(ds.num_partitions(), 3);
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallelize_empty_dataset() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(Vec::<i32>::new(), 4);
        assert_eq!(ds.len(), 0);
        assert!(ds.is_empty());
        assert_eq!(ds.collect(), Vec::<i32>::new());
    }

    #[test]
    fn parallelize_more_partitions_than_records() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(vec![1, 2], 8);
        assert_eq!(ds.collect(), vec![1, 2]);
        assert!(ds.num_partitions() <= 8);
    }

    #[test]
    #[should_panic(expected = "partitions must be positive")]
    fn zero_partitions_rejected() {
        let ctx = Context::with_threads(1);
        let _ = ctx.parallelize(vec![1], 0);
    }

    #[test]
    fn metrics_track_stages() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize((0..100).collect::<Vec<i32>>(), 4);
        ctx.reset_metrics();
        let _ = ds.map(|x| x + 1).collect();
        let m = ctx.metrics();
        assert_eq!(m.stages, 1);
        assert_eq!(m.tasks, 4);
        assert_eq!(m.records_processed, 100);
    }

    #[test]
    fn scan_cost_slows_stages_proportionally() {
        let data: Vec<i64> = (0..200_000).collect();
        let fast = Context::with_threads(2);
        let slow = Context::new(Config {
            threads: 2,
            scan_cost_ns: 500,
            ..Config::default()
        });
        let t0 = std::time::Instant::now();
        let a = fast.parallelize(data.clone(), 4).map(|x| x + 1).count();
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let b = slow.parallelize(data, 4).map(|x| x + 1).count();
        let slow_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(a, b, "scan cost must not change results");
        // 200k records × 500ns over two stages ≈ 100ms of injected work;
        // even with scheduling noise the slow run must clearly exceed the
        // fast one.
        assert!(
            slow_ms > fast_ms * 2.0,
            "scan cost had no effect ({fast_ms:.2}ms vs {slow_ms:.2}ms)"
        );
    }

    #[test]
    fn faults_are_retried_and_results_unchanged() {
        let mut config = Config {
            threads: 4,
            fault: FaultInjector::new(0.4, 99),
            max_task_retries: 16,
            ..Config::default()
        };
        config.default_partitions = 8;
        let faulty = Context::new(config);
        let clean = Context::with_threads(4);
        let data: Vec<i64> = (0..10_000).collect();
        let a = faulty
            .parallelize(data.clone(), 8)
            .map(|x| x * 3)
            .reduce(|a, b| a + b)
            .unwrap();
        let b = clean
            .parallelize(data, 8)
            .map(|x| x * 3)
            .reduce(|a, b| a + b)
            .unwrap();
        assert_eq!(a, b, "fault-injected run must match clean run");
        assert!(
            faulty.metrics().task_retries > 0,
            "expected some injected faults"
        );
    }

    #[test]
    fn exhausted_retries_abort_with_stage_name() {
        let config = Config {
            threads: 2,
            fault: FaultInjector::new(0.95, 1),
            max_task_retries: 0,
            ..Config::default()
        };
        let ctx = Context::new(config);
        let ds = ctx.parallelize((0..64).collect::<Vec<i32>>(), 16);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ds.map(|x| x + 1).collect()));
        assert!(result.is_err(), "95% failure with zero retries must abort");
    }
}
