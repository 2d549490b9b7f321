//! The partitioned, immutable dataset — the engine's RDD analogue.

use crate::context::Context;

/// Push-based executor for a fused chain of narrow transforms: called once
/// per base partition, it streams every output record into the sink.
pub(crate) type PendingRun<T> = Arc<dyn Fn(usize, &mut dyn FnMut(T)) + Send + Sync>;

/// One narrow transform step applied to a borrowed record: `(record,
/// sink)`. Emitting zero, one or many records covers `filter`, `map` and
/// `flat_map` respectively.
type StepFn<T, U> = dyn Fn(&T, &mut dyn FnMut(U)) + Send + Sync;

use crate::pair::Shuffled;
use crate::Data;
use std::sync::{Arc, OnceLock};

/// A chain of narrow transforms that has not executed yet. The chain
/// composes per-record closures over a base — a materialised dataset, or
/// the per-bucket output of a wide operator such as `join` — and runs as
/// a **single** pool stage (named `fused[map→filter→…]`, or
/// `fused[join→…]`) when the first wide operator or action forces it.
struct Pending<T> {
    /// Records the base scans per partition: drives the scan-cost model
    /// and the `records_processed` counter when the chain runs.
    base_sizes: Arc<Vec<usize>>,
    /// Operator names, base-first.
    ops: Vec<String>,
    run: PendingRun<T>,
}

impl<T> Pending<T> {
    /// Stage label: the bare operator name for single-op chains,
    /// `fused[a→b→…]` once two or more ops are chained.
    fn label(&self) -> String {
        if self.ops.len() == 1 {
            self.ops[0].clone()
        } else {
            format!("fused[{}]", self.ops.join("→"))
        }
    }
}

/// Shared state of a dataset: either already-materialised partitions or a
/// pending fused chain plus a cache slot filled on first materialisation,
/// and, for a pair dataset that a join has used, its shuffled buckets.
struct Inner<T> {
    num_parts: usize,
    pending: Option<Pending<T>>,
    parts: OnceLock<Arc<Vec<Arc<Vec<T>>>>>,
    len: OnceLock<usize>,
    shuffled: OnceLock<Arc<Shuffled<T>>>,
}

/// An immutable, partitioned, in-memory dataset.
///
/// Cloning is cheap (state is shared via `Arc`). Narrow transformations
/// (`map`, `filter`, `flat_map`, `map_partitions`)
/// are **lazy**: consecutive calls fuse into one pending chain that runs
/// as a single parallel stage — with no intermediate materialisation —
/// when the first wide operator or action needs the records. The result
/// is then cached, which doubles as Spark's memory cache: re-using a
/// `Dataset` re-uses its materialised partitions, the effect the paper
/// credits for Figure 4(b)'s flat sample-size scaling. A pair dataset
/// that a `join` or `lookup` has shuffled keeps its buckets and join
/// index the same way (see [`crate::pair`]), so it is shuffled at most
/// once; the cost is one shuffled copy of the records for as long as the
/// dataset lives.
///
/// ```
/// use dataflow::Context;
/// let ctx = Context::with_threads(2);
/// let ds = ctx.parallelize(vec![1, 2, 3, 4], 2);
/// assert_eq!(ds.filter(|x| x % 2 == 0).collect(), vec![2, 4]);
/// ```
pub struct Dataset<T> {
    ctx: Context,
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            ctx: self.ctx.clone(),
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Data> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("partitions", &self.num_partitions())
            .field("len", &self.inner.len.get().copied())
            .finish()
    }
}

impl<T: Data> Dataset<T> {
    pub(crate) fn from_parts(ctx: Context, partitions: Vec<Arc<Vec<T>>>) -> Self {
        let parts = Arc::new(partitions);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        Dataset {
            ctx,
            inner: Arc::new(Inner {
                num_parts: parts.len(),
                pending: None,
                parts: OnceLock::from(parts),
                len: OnceLock::from(len),
                shuffled: OnceLock::new(),
            }),
        }
    }

    fn from_pending(ctx: Context, pending: Pending<T>) -> Self {
        Dataset {
            ctx,
            inner: Arc::new(Inner {
                num_parts: pending.base_sizes.len(),
                pending: Some(pending),
                parts: OnceLock::new(),
                len: OnceLock::new(),
                shuffled: OnceLock::new(),
            }),
        }
    }

    /// A lazy dataset whose chain starts at `op`, which streams the
    /// records of partition `i` into its sink after scanning
    /// `base_sizes[i]` input records. A wide operator hands its
    /// per-bucket work over this way, so the narrow ops after it fuse
    /// into its stage and its output is never materialised.
    pub(crate) fn from_run(
        ctx: Context,
        op: &str,
        base_sizes: Vec<usize>,
        run: PendingRun<T>,
    ) -> Self {
        Dataset::from_pending(
            ctx,
            Pending {
                base_sizes: Arc::new(base_sizes),
                ops: vec![op.to_string()],
                run,
            },
        )
    }

    /// The pending chain, if this dataset is lazy and not yet forced.
    /// Once forced, the cached partitions are the cheaper base to chain
    /// from, so this returns `None`.
    fn unforced_pending(&self) -> Option<&Pending<T>> {
        match self.inner.pending.as_ref() {
            Some(p) if self.inner.parts.get().is_none() => Some(p),
            _ => None,
        }
    }

    /// Materialises (and caches) the partitions, running the pending
    /// fused chain as one stage if there is one.
    fn forced(&self) -> &Arc<Vec<Arc<Vec<T>>>> {
        self.inner.parts.get_or_init(|| {
            let p = self
                .inner
                .pending
                .as_ref()
                .expect("unmaterialised dataset must hold a pending chain");
            let run = Arc::clone(&p.run);
            Arc::new(self.ctx.run_fused(&p.label(), &p.base_sizes, move |i| {
                let mut out: Vec<T> = Vec::new();
                run(i, &mut |t| out.push(t));
                Arc::new(out)
            }))
        })
    }

    /// Folds each partition from `init()` with `step`, one partial per
    /// partition in partition order. On an unforced chain the fold runs
    /// inside the chain's own stage, under its label: the base records
    /// are charged once and the chain's output is never materialised.
    /// Otherwise a `name` stage folds the cached partitions.
    fn fold_partitions<A: Send + 'static>(
        &self,
        name: &str,
        init: impl Fn() -> A + Send + Sync + 'static,
        step: impl Fn(A, &T) -> A + Send + Sync + 'static,
    ) -> Vec<A> {
        if let Some(p) = self.unforced_pending() {
            let run = Arc::clone(&p.run);
            return self.ctx.run_fused(&p.label(), &p.base_sizes, move |i| {
                let mut acc = Some(init());
                run(i, &mut |t| acc = acc.take().map(|a| step(a, &t)));
                acc.expect("the fold always holds an accumulator")
            });
        }
        let scan_ns = self.ctx.scan_cost_ns();
        self.ctx.run_tasks(
            name,
            self.forced().to_vec(),
            move |_i, part: Arc<Vec<T>>| {
                crate::context::scan_delay(part.len(), scan_ns);
                part.iter().fold(init(), &step)
            },
        )
    }

    /// Chains one narrow per-record transform, fusing it with any pending
    /// chain instead of running a stage now.
    fn narrow<U: Data>(&self, op: &str, step: Arc<StepFn<T, U>>) -> Dataset<U> {
        let (run, base_sizes, mut ops) = match self.unforced_pending() {
            Some(p) => {
                let prev = Arc::clone(&p.run);
                let run: PendingRun<U> = Arc::new(move |i, sink| {
                    prev(i, &mut |t: T| step(&t, sink));
                });
                (run, Arc::clone(&p.base_sizes), p.ops.clone())
            }
            None => {
                let parts = Arc::clone(self.forced());
                let sizes = Arc::new(parts.iter().map(|p| p.len()).collect::<Vec<usize>>());
                let run: PendingRun<U> = Arc::new(move |i, sink| {
                    for t in parts[i].iter() {
                        step(t, sink);
                    }
                });
                (run, sizes, Vec::new())
            }
        };
        ops.push(op.to_string());
        Dataset::from_pending(
            self.ctx.clone(),
            Pending {
                base_sizes,
                ops,
                run,
            },
        )
    }

    /// The slot for this dataset's shuffled buckets, filled by its first
    /// join or lookup.
    pub(crate) fn shuffle_slot(&self) -> &OnceLock<Arc<Shuffled<T>>> {
        &self.inner.shuffled
    }

    /// The context this dataset belongs to.
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Number of partitions (known without forcing a pending chain).
    pub fn num_partitions(&self) -> usize {
        self.inner.num_parts
    }

    /// The underlying partitions (shared, read-only). Forces a pending
    /// chain.
    pub fn partitions(&self) -> &[Arc<Vec<T>>] {
        self.forced()
    }

    /// Total number of records. Computed once — eagerly for materialised
    /// datasets, at first call (forcing the chain) for lazy ones — and
    /// cached thereafter.
    pub fn len(&self) -> usize {
        *self
            .inner
            .len
            .get_or_init(|| self.forced().iter().map(|p| p.len()).sum())
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers all records into one vector, preserving partition order.
    pub fn collect(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for p in self.forced().iter() {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Applies `f` to every record (a narrow stage — Spark's `map`).
    /// Lazy: fuses with adjacent narrow transforms.
    pub fn map<U: Data>(&self, f: impl Fn(&T) -> U + Send + Sync + 'static) -> Dataset<U> {
        self.narrow("map", Arc::new(move |t, sink| sink(f(t))))
    }

    /// Keeps records satisfying `pred`. Lazy: fuses with adjacent narrow
    /// transforms.
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        self.narrow(
            "filter",
            Arc::new(move |t: &T, sink: &mut dyn FnMut(T)| {
                if pred(t) {
                    sink(t.clone());
                }
            }),
        )
    }

    /// Applies `f` and flattens the results. Lazy: fuses with adjacent
    /// narrow transforms.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(&T) -> I + Send + Sync + 'static) -> Dataset<U>
    where
        I: IntoIterator<Item = U>,
    {
        self.narrow(
            "flat_map",
            Arc::new(move |t: &T, sink: &mut dyn FnMut(U)| {
                for u in f(t) {
                    sink(u);
                }
            }),
        )
    }

    /// Runs `f` once per partition (Spark's `mapPartitions`). Lazy: fuses
    /// with adjacent narrow transforms (upstream records are buffered
    /// per-partition before `f` sees them, as its slice signature
    /// requires).
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let (run, base_sizes, mut ops) = match self.unforced_pending() {
            Some(p) => {
                let prev = Arc::clone(&p.run);
                let run: PendingRun<U> = Arc::new(move |i, sink| {
                    let mut buf: Vec<T> = Vec::new();
                    prev(i, &mut |t: T| buf.push(t));
                    for u in f(&buf) {
                        sink(u);
                    }
                });
                (run, Arc::clone(&p.base_sizes), p.ops.clone())
            }
            None => {
                let parts = Arc::clone(self.forced());
                let sizes = Arc::new(parts.iter().map(|p| p.len()).collect::<Vec<usize>>());
                let run: PendingRun<U> = Arc::new(move |i, sink| {
                    for u in f(&parts[i]) {
                        sink(u);
                    }
                });
                (run, sizes, Vec::new())
            }
        };
        ops.push("map_partitions".to_string());
        Dataset::from_pending(
            self.ctx.clone(),
            Pending {
                base_sizes,
                ops,
                run,
            },
        )
    }

    /// Pairs every record with a key (Spark's `keyBy`), enabling the pair
    /// operators in [`crate::pair::PairOps`].
    pub fn key_by<K: Data>(&self, f: impl Fn(&T) -> K + Send + Sync + 'static) -> Dataset<(K, T)> {
        self.map(move |t| (f(t), t.clone()))
    }

    /// Reduces the whole dataset with a **commutative, associative**
    /// function: partitions fold in parallel, then partial results combine.
    /// A pending chain folds in its own stage without materialising.
    /// Returns `None` for an empty dataset.
    ///
    /// Correctness under parallelism, re-partitioning and task retry
    /// requires `f` to be commutative and associative — the exact property
    /// UPA's union-preserving reduce exploits (paper §II-C).
    pub fn reduce(&self, f: impl Fn(&T, &T) -> T + Send + Sync + 'static) -> Option<T> {
        let f = Arc::new(f);
        let fold = Arc::clone(&f);
        self.fold_partitions(
            "reduce",
            || None,
            move |acc: Option<T>, t| match acc {
                None => Some(t.clone()),
                Some(a) => Some(fold(&a, t)),
            },
        )
        .into_iter()
        .flatten()
        .reduce(|a, b| f(&a, &b))
    }

    /// Runs one engine stage with a task per partition: `f(partition
    /// index, records)`, results in partition order — the row analogue
    /// of [`crate::ColumnarDataset::run_ranges`]. Forces a pending chain;
    /// record counters charge every record.
    pub fn run_partitions<A, F>(&self, name: &str, f: F) -> Vec<A>
    where
        A: Send + 'static,
        F: Fn(usize, &[T]) -> A + Send + Sync + 'static,
    {
        let scan_ns = self.ctx.scan_cost_ns();
        self.ctx.record_processed_public(self.len() as u64);
        self.ctx
            .run_tasks(name, self.forced().to_vec(), move |i, part: Arc<Vec<T>>| {
                crate::context::scan_delay(part.len(), scan_ns);
                f(i, &part)
            })
    }

    /// General aggregation: fold each partition from `zero` with `seq`,
    /// then combine partials with `comb` (Spark's `aggregate`). `comb`
    /// must be commutative and associative and `zero` its identity. A
    /// pending chain folds in its own stage without materialising.
    pub fn aggregate<A: Data>(
        &self,
        zero: A,
        seq: impl Fn(A, &T) -> A + Send + Sync + 'static,
        comb: impl Fn(A, A) -> A + Send + Sync + 'static,
    ) -> A {
        let z = zero.clone();
        self.fold_partitions("aggregate", move || z.clone(), seq)
            .into_iter()
            .fold(zero, comb)
    }

    /// Number of records, computed as a parallel aggregation.
    pub fn count(&self) -> u64 {
        self.aggregate(0u64, |acc, _| acc + 1, |a, b| a + b)
    }

    /// Concatenates two datasets (partitions of `other` follow `self`'s).
    ///
    /// # Panics
    ///
    /// Panics if the datasets belong to different contexts' pools — union
    /// requires a shared scheduler. (Contexts are compared by identity.)
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        assert!(
            self.ctx.same_engine(&other.ctx),
            "union requires datasets from the same context"
        );
        let mut parts: Vec<Arc<Vec<T>>> = self.forced().to_vec();
        parts.extend(other.forced().iter().cloned());
        Dataset::from_parts(self.ctx.clone(), parts)
    }

    /// The first `n` records in partition order (Spark's `take`).
    pub fn take(&self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n.min(self.len()));
        for p in self.forced().iter() {
            for t in p.iter() {
                if out.len() == n {
                    return out;
                }
                out.push(t.clone());
            }
        }
        out
    }

    /// Splits off the records at the given **sorted, distinct** global
    /// indices: returns the picked records and the dataset of the rest.
    /// This implements UPA's Partition-and-Sample split into `S` (sampled)
    /// and `S′` (remainder) while preserving the partition structure of the
    /// remainder.
    ///
    /// # Panics
    ///
    /// Panics if `sorted_indices` is not strictly increasing or contains an
    /// out-of-range index.
    pub fn split_indices(&self, sorted_indices: &[usize]) -> (Vec<T>, Dataset<T>) {
        assert!(
            sorted_indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = sorted_indices.last() {
            assert!(last < self.len(), "index {last} out of range");
        }
        let mut picked = Vec::with_capacity(sorted_indices.len());
        let mut rest_parts: Vec<Arc<Vec<T>>> = Vec::with_capacity(self.num_partitions());
        let mut cursor = 0; // position in sorted_indices
        let mut base = 0; // global index of the first record in this partition
        for part in self.forced().iter() {
            let end = base + part.len();
            // Indices that fall inside this partition.
            let start_cursor = cursor;
            while cursor < sorted_indices.len() && sorted_indices[cursor] < end {
                cursor += 1;
            }
            let local: &[usize] = &sorted_indices[start_cursor..cursor];
            if local.is_empty() {
                rest_parts.push(Arc::clone(part));
            } else {
                let mut rest = Vec::with_capacity(part.len() - local.len());
                let mut li = 0;
                for (offset, record) in part.iter().enumerate() {
                    if li < local.len() && local[li] - base == offset {
                        picked.push(record.clone());
                        li += 1;
                    } else {
                        rest.push(record.clone());
                    }
                }
                rest_parts.push(Arc::new(rest));
            }
            base = end;
        }
        let rest = Dataset::from_parts(self.ctx.clone(), rest_parts);
        (picked, rest)
    }
}

impl<T: Data + std::hash::Hash + Eq> Dataset<T> {
    /// Removes duplicate records (Spark's `distinct`). One shuffle: equal
    /// records co-locate by hash, then each bucket deduplicates.
    pub fn distinct(&self) -> Dataset<T> {
        use crate::pair::PairOps;
        self.map(|t| (t.clone(), ()))
            .reduce_by_key(|_, _| ())
            .keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::with_threads(4)
    }

    #[test]
    fn map_filter_flat_map_chain() {
        let ds = ctx().parallelize((1..=10).collect::<Vec<i64>>(), 3);
        let out = ds
            .map(|x| x * 10)
            .filter(|x| x % 20 == 0)
            .flat_map(|x| vec![*x, *x + 1])
            .collect();
        assert_eq!(out, vec![20, 21, 40, 41, 60, 61, 80, 81, 100, 101]);
    }

    #[test]
    fn fused_chain_runs_as_single_stage() {
        let c = ctx();
        let ds = c.parallelize((0..100).collect::<Vec<i64>>(), 4);
        c.reset_metrics();
        let chained = ds.map(|x| x + 1).filter(|x| x % 2 == 0).map(|x| x * 10);
        // Nothing has run yet: narrow transforms are lazy.
        assert_eq!(c.metrics().stages, 0);
        let out = chained.collect();
        let m = c.metrics();
        assert_eq!(m.stages, 1, "map→filter→map must fuse into one stage");
        assert_eq!(m.tasks, 4);
        assert_eq!(
            m.records_processed, 100,
            "only base records are scanned once"
        );
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn forced_chain_is_cached_not_rerun() {
        let c = ctx();
        let ds = c.parallelize((0..100).collect::<Vec<i64>>(), 4);
        let mapped = ds.map(|x| x + 1).filter(|x| x % 2 == 0);
        c.reset_metrics();
        let a = mapped.collect();
        let stages_after_first = c.metrics().stages;
        let b = mapped.collect();
        assert_eq!(a, b);
        assert_eq!(
            c.metrics().stages,
            stages_after_first,
            "second collect must reuse the cached materialisation"
        );
        assert_eq!(mapped.len(), 50);
        assert_eq!(c.metrics().stages, stages_after_first);
    }

    #[test]
    fn map_partitions_fuses_with_record_ops() {
        let c = ctx();
        let ds = c.parallelize((0..40).collect::<Vec<i64>>(), 4);
        c.reset_metrics();
        let out = ds
            .map(|x| x * 2)
            .map_partitions(|part| vec![part.iter().sum::<i64>()])
            .collect();
        let m = c.metrics();
        assert_eq!(m.stages, 1, "map→map_partitions must fuse into one stage");
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().sum::<i64>(), (0..40).map(|x| x * 2).sum::<i64>());
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let data: Vec<i64> = (1..=1000).collect();
        let ds = ctx().parallelize(data.clone(), 7);
        assert_eq!(ds.reduce(|a, b| a + b), Some(data.iter().sum()));
    }

    #[test]
    fn reduce_empty_is_none() {
        let ds = ctx().parallelize(Vec::<i64>::new(), 4);
        assert_eq!(ds.reduce(|a, b| a + b), None);
    }

    #[test]
    fn reduce_single_element() {
        let ds = ctx().parallelize(vec![42i64], 4);
        assert_eq!(ds.reduce(|a, b| a + b), Some(42));
    }

    #[test]
    fn aggregate_computes_mean_components() {
        let ds = ctx().parallelize((1..=100).map(|x| x as f64).collect::<Vec<f64>>(), 5);
        let (sum, n) = ds.aggregate(
            (0.0, 0u64),
            |(s, n), x| (s + x, n + 1),
            |(s1, n1), (s2, n2)| (s1 + s2, n1 + n2),
        );
        assert_eq!(n, 100);
        assert!((sum - 5050.0).abs() < 1e-9);
    }

    #[test]
    fn count_matches_len() {
        let ds = ctx().parallelize((0..123).collect::<Vec<i32>>(), 4);
        assert_eq!(ds.count(), 123);
        assert_eq!(ds.len(), 123);
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.collect(), vec![1, 2, 3, 4]);
        assert_eq!(u.num_partitions(), a.num_partitions() + b.num_partitions());
    }

    #[test]
    fn key_by_builds_pairs() {
        let ds = ctx().parallelize(vec![10, 21, 32], 2);
        let pairs = ds.key_by(|x| x % 10).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 21), (2, 32)]);
    }

    #[test]
    fn split_indices_partitions_the_data() {
        let ds = ctx().parallelize((0..20).collect::<Vec<i32>>(), 4);
        let (picked, rest) = ds.split_indices(&[0, 5, 6, 19]);
        assert_eq!(picked, vec![0, 5, 6, 19]);
        let mut remaining = rest.collect();
        remaining.sort_unstable();
        let expected: Vec<i32> = (0..20).filter(|x| ![0, 5, 6, 19].contains(x)).collect();
        assert_eq!(remaining, expected);
        // Partition structure of the remainder is preserved.
        assert_eq!(rest.num_partitions(), 4);
    }

    #[test]
    fn split_indices_empty_pick() {
        let ds = ctx().parallelize(vec![1, 2, 3], 2);
        let (picked, rest) = ds.split_indices(&[]);
        assert!(picked.is_empty());
        assert_eq!(rest.collect(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn split_indices_rejects_unsorted() {
        let ds = ctx().parallelize(vec![1, 2, 3], 1);
        let _ = ds.split_indices(&[2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_indices_rejects_out_of_range() {
        let ds = ctx().parallelize(vec![1, 2, 3], 1);
        let _ = ds.split_indices(&[5]);
    }

    #[test]
    fn fused_stage_is_named_after_its_operator_chain() {
        let c = ctx();
        let _ = c
            .parallelize(vec![1], 1)
            .map(|x| x + 1)
            .filter(|_| true)
            .collect();
        // A single narrow op keeps its plain name.
        let _ = c.parallelize(vec![1], 1).map(|x| x + 1).collect();
        let mut names: Vec<String> = c.stage_times().into_keys().collect();
        names.sort();
        assert_eq!(names, ["fused[map→filter]", "map"]);
    }

    #[test]
    fn datasets_are_cheap_to_clone_and_share_partitions() {
        let ds = ctx().parallelize((0..1000).collect::<Vec<i32>>(), 4);
        let clone = ds.clone();
        assert!(Arc::ptr_eq(&ds.partitions()[0], &clone.partitions()[0]));
    }

    #[test]
    fn take_returns_prefix() {
        let ds = ctx().parallelize((0..20).collect::<Vec<i32>>(), 4);
        assert_eq!(ds.take(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(ds.take(0), Vec::<i32>::new());
        assert_eq!(ds.take(100).len(), 20);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let ds = ctx().parallelize(vec![1, 2, 2, 3, 1, 3, 3], 3);
        let mut got = ds.distinct().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
