//! Queries as Map/Reduce decompositions.
//!
//! UPA requires only that a query be expressed as a **mapper** applied
//! independently per record, a **commutative and associative reducer**
//! over the mapped values, and a final output projection. That is exactly
//! the contract MapReduce frameworks already impose on user code to enable
//! parallelism and fault tolerance (paper §II-C) — which is the paper's key
//! observation.
//!
//! `f64` addition is commutative but not associative, so a reducer over
//! floats groups its terms one way or another, and the grouping reaches
//! the low bits. A query takes its remainder — the un-sampled records'
//! reduction, Algorithm 1 line 7 — in one of two ways:
//!
//! * by the **slab fold**, the grouping MapReduce itself applies and part
//!   of the release contract: per slab, one accumulator per logical half,
//!   each a left fold in record order that skips the sampled rows; the
//!   slab partials then left-fold per half in ascending slab order. Every
//!   query folds so by default: the paper suite, KMeans,
//!   LinearRegression and joinDP;
//! * **exactly** ([`MapReduceQuery::with_half_totals`]): a `(sum, count)`
//!   query is handed each half's exact total over its source
//!   ([`HalfTotals`], on [`upa_stats::ExactSum`]) and takes its sample
//!   back out of it, so its remainder is the correctly rounded exact sum
//!   of the un-sampled records, the same under any grouping, and a
//!   preparation reads only its sample. The served `count`, `sum` and
//!   `mean` remainder so; the totals are computed by whoever owns the
//!   column, not by the engine.

use crate::output::DpOutput;
use dataflow::Data;
use std::sync::Arc;
use upa_stats::ExactSum;

/// Shared handle to a query mapper `M : T → Acc`.
pub type MapFn<T, Acc> = Arc<dyn Fn(&T) -> Acc + Send + Sync>;
/// Shared handle to a commutative, associative reducer `R`.
pub type ReduceFn<Acc> = Arc<dyn Fn(&Acc, &Acc) -> Acc + Send + Sync>;
/// Shared handle to the output projection `finalize`.
pub type FinalizeFn<Acc, Out> = Arc<dyn Fn(Option<&Acc>) -> Out + Send + Sync>;
/// Shared handle to a stable half key (see [`MapReduceQuery::new`]).
pub type HalfKeyFn<T> = Arc<dyn Fn(&T) -> u64 + Send + Sync>;
/// Shared handle to a fused slice-fold kernel (see
/// [`MapReduceQuery::with_slice_fold`]). Arguments: the record run and
/// the slab's accumulators, one per logical half.
pub type SliceFoldFn<T, Acc> = Arc<dyn Fn(&[T], &mut [Option<Acc>; 2]) + Send + Sync>;

/// The logical half (0 or 1) of a record whose half key is `key`: the top
/// bit of splitmix64's finaliser. RANGE ENFORCER's two partitions
/// `x1`/`x2` (the paper's `D1`/`D2`) are taken by this one rule
/// everywhere. The finaliser mixes every key bit into the top one, so
/// keys that share their low bits — the bits of integer-valued `f64`s,
/// consecutive ids, a key's index — still fall into both halves.
pub fn half_of(key: u64) -> usize {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 63) as usize
}

/// Exact per-half totals of a source's records under a `(sum, count)`
/// query that maps every record to `(v, 1)`: for each logical half, the
/// exact sum of the `v`s ([`ExactSum`]) and the number of records.
///
/// The sum is exact, so it is associative, commutative and invertible:
/// the totals of a source do not depend on how its records are cut into
/// chunks, slabs or tasks, and taking the sampled records back out leaves
/// exactly the remainder's sum. So whoever holds the records sums them
/// however suits it ([`HalfTotals::of_values`] per slice, then
/// [`HalfTotals::merge`]) and hands the totals to the query.
#[derive(Clone, Debug, Default)]
pub struct HalfTotals {
    sums: [ExactSum; 2],
    records: [u64; 2],
}

impl HalfTotals {
    /// The totals of `records[h]` records per half that all map to
    /// `(0, 1)` — a COUNT that reads no column.
    pub fn of_zeros(records: [u64; 2]) -> Self {
        HalfTotals {
            sums: Default::default(),
            records,
        }
    }

    /// The totals of `values`, each mapped to `(v, 1)` and in half
    /// [`half_of`]`(half_key(v))`: one monomorphic loop of exact adds.
    pub fn of_values(values: &[f64], half_key: impl Fn(&f64) -> u64) -> Self {
        let mut totals = HalfTotals::default();
        for v in values {
            let h = half_of(half_key(v));
            totals.sums[h].add(*v);
            totals.records[h] += 1;
        }
        totals
    }

    /// Adds every record of `other`.
    pub fn merge(&mut self, other: &HalfTotals) {
        for h in 0..2 {
            self.sums[h].merge(&other.sums[h]);
            self.records[h] += other.records[h];
        }
    }

    /// Records in both halves.
    pub(crate) fn records(&self) -> u64 {
        self.records[0] + self.records[1]
    }

    /// The remainder of each half once the `sampled` records, each mapped
    /// to `(v, 1)` and in half `h`, are taken out: `R(M(S′))_h = T_h ⊖
    /// Σ_{s ∈ S_h} M(s)`, its sum rounded once, with its record count;
    /// `None` for a half with no record left.
    fn remainder(&self, sampled: impl Iterator<Item = (f64, usize)>) -> [Option<(f64, u64)>; 2] {
        let mut rest = self.clone();
        for (v, h) in sampled {
            rest.sums[h].sub(v);
            rest.records[h] -= 1;
        }
        let [a, b] = rest.sums;
        let [m, n] = rest.records;
        [(a, m), (b, n)].map(|(sum, n)| (n > 0).then(|| (sum.to_f64(), n)))
    }
}

/// A `(sum, count)` query's exact remainder: its source's
/// [`HalfTotals`] and how its accumulator reads as `(v, 1)`.
pub(crate) struct ExactRemainder<Acc> {
    pub(crate) totals: Arc<HalfTotals>,
    /// The `v` of a mapped record.
    pub(crate) value: fn(&Acc) -> f64,
    /// The accumulator of a sum over `n` records.
    pub(crate) from_sum: fn(f64, u64) -> Acc,
}

impl<Acc> ExactRemainder<Acc> {
    /// Each half's remainder: the totals less the sampled records
    /// `mapped_sampled`, in halves `halves`, rounded once.
    pub(crate) fn remainder(&self, mapped_sampled: &[Acc], halves: &[usize]) -> [Option<Acc>; 2] {
        let sampled = mapped_sampled.iter().map(self.value);
        self.totals
            .remainder(sampled.zip(halves.iter().copied()))
            .map(|half| half.map(|(sum, n)| (self.from_sum)(sum, n)))
    }
}

impl<Acc> Clone for ExactRemainder<Acc> {
    fn clone(&self) -> Self {
        ExactRemainder {
            totals: Arc::clone(&self.totals),
            value: self.value,
            from_sum: self.from_sum,
        }
    }
}

/// A query `f = finalize ∘ R ∘ M` over records of type `T`.
///
/// * `M : T → Acc` (the mapper, applied per record);
/// * `R : Acc × Acc → Acc` (the reducer — **must** be commutative and
///   associative; the engine and UPA both rely on it);
/// * `finalize : Option<Acc> → Out` (output projection — e.g. the model
///   update step of Linear Regression; receives `None` for an empty
///   dataset).
///
/// Cloning is cheap: the closures are shared through `Arc`s.
pub struct MapReduceQuery<T, Acc, Out> {
    name: String,
    map: MapFn<T, Acc>,
    reduce: ReduceFn<Acc>,
    finalize: FinalizeFn<Acc, Out>,
    half_key: HalfKeyFn<T>,
    slice_fold: Option<SliceFoldFn<T, Acc>>,
    exact: Option<ExactRemainder<Acc>>,
}

impl<T, Acc, Out> Clone for MapReduceQuery<T, Acc, Out> {
    fn clone(&self) -> Self {
        MapReduceQuery {
            name: self.name.clone(),
            map: Arc::clone(&self.map),
            reduce: Arc::clone(&self.reduce),
            finalize: Arc::clone(&self.finalize),
            half_key: Arc::clone(&self.half_key),
            slice_fold: self.slice_fold.clone(),
            exact: self.exact.clone(),
        }
    }
}

impl<T, Acc, Out> std::fmt::Debug for MapReduceQuery<T, Acc, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapReduceQuery")
            .field("name", &self.name)
            .finish()
    }
}

impl<T: Data, Acc: Data, Out: DpOutput> MapReduceQuery<T, Acc, Out> {
    /// Creates a query from its **stable half key** and its three
    /// components.
    ///
    /// The half key is a content-derived key; [`half_of`] of it assigns
    /// each record to one of RANGE ENFORCER's two logical dataset
    /// partitions `x1`/`x2` (the paper's `D1`/`D2`). The paper's enforcer
    /// compares a query's outputs on the two halves against previous
    /// queries to recognise a repeat on a *neighbouring* dataset. That
    /// comparison is only meaningful if a record keeps its half when
    /// other records are added or removed, so the key must depend on
    /// record **content** (a natural key such as `suppkey`, or the
    /// feature bits), not on physical position.
    pub fn new(
        name: impl Into<String>,
        half_key: impl Fn(&T) -> u64 + Send + Sync + 'static,
        map: impl Fn(&T) -> Acc + Send + Sync + 'static,
        reduce: impl Fn(&Acc, &Acc) -> Acc + Send + Sync + 'static,
        finalize: impl Fn(Option<&Acc>) -> Out + Send + Sync + 'static,
    ) -> Self {
        MapReduceQuery {
            name: name.into(),
            map: Arc::new(map),
            reduce: Arc::new(reduce),
            finalize: Arc::new(finalize),
            half_key: Arc::new(half_key),
            slice_fold: None,
            exact: None,
        }
    }

    /// The stable half key.
    pub fn half_key(&self) -> &HalfKeyFn<T> {
        &self.half_key
    }

    /// Attaches a **fused slice-fold kernel**: a monomorphic loop that
    /// folds an uninterrupted run of records into the slab's per-half
    /// accumulators in one call, instead of paying three dynamic
    /// dispatches (`half_key`, `map`, `reduce`) per record.
    ///
    /// [`crate::Upa::prepare`] calls [`MapReduceQuery::fold_run`] once
    /// per run between sampled rows, and the runs of one slab fold into
    /// the same accumulators in record order. A query without a kernel
    /// folds the same runs through the generic closures, so the kernel is
    /// purely an optimisation hook.
    ///
    /// **Contract:** `kernel(slice, halves)` must leave `halves` exactly
    /// as [`MapReduceQuery::fold_run_generic`] would: record `x`'s half
    /// `h` is [`half_of`]`(half_key(x))`, and `map(x)` folds into
    /// `halves[h]` with `reduce`, each half a left fold in record order.
    /// A kernel that disagrees silently changes released values, so pair
    /// every kernel with a bitwise equivalence test against the generic
    /// fold.
    pub fn with_slice_fold(
        mut self,
        kernel: impl Fn(&[T], &mut [Option<Acc>; 2]) + Send + Sync + 'static,
    ) -> Self {
        self.slice_fold = Some(Arc::new(kernel));
        self
    }

    /// The fused slice-fold kernel, if one is attached.
    pub fn slice_fold(&self) -> Option<&SliceFoldFn<T, Acc>> {
        self.slice_fold.as_ref()
    }

    /// The exact remainder, if the query has one.
    pub(crate) fn exact_remainder(&self) -> Option<&ExactRemainder<Acc>> {
        self.exact.as_ref()
    }

    /// Folds a record run through the generic closures — the reference
    /// semantics every [`MapReduceQuery::with_slice_fold`] kernel must
    /// reproduce bit for bit.
    pub fn fold_run_generic(&self, slice: &[T], halves: &mut [Option<Acc>; 2]) {
        for v in slice {
            let m = self.map(v);
            let acc = &mut halves[half_of((self.half_key)(v))];
            match acc {
                Some(a) => *a = self.reduce(a, &m),
                None => *acc = Some(m),
            }
        }
    }

    /// Folds a record run into `halves`, through the fused kernel when
    /// one is attached and the generic closures otherwise.
    pub fn fold_run(&self, slice: &[T], halves: &mut [Option<Acc>; 2]) {
        match &self.slice_fold {
            Some(kernel) => kernel(slice, halves),
            None => self.fold_run_generic(slice, halves),
        }
    }

    /// The query name (used in reports and benchmark output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies the mapper to one record.
    pub fn map(&self, record: &T) -> Acc {
        (self.map)(record)
    }

    /// Combines two accumulators with the reducer.
    pub fn reduce(&self, a: &Acc, b: &Acc) -> Acc {
        (self.reduce)(a, b)
    }

    /// Merges two optional partial reductions.
    pub fn merge_opt(&self, a: Option<Acc>, b: Option<Acc>) -> Option<Acc> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.reduce(&a, &b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Merges two optional partial reductions **by reference**, cloning
    /// only when a single side is present. The pipeline's prefix/suffix
    /// reuse calls this O(n) times per release, so avoiding an
    /// accumulator clone per merge matters for vector-valued queries
    /// (histograms, gradient accumulators).
    pub fn merge_ref(&self, a: Option<&Acc>, b: Option<&Acc>) -> Option<Acc> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.reduce(a, b)),
            (Some(a), None) => Some(a.clone()),
            (None, b) => b.cloned(),
        }
    }

    /// Projects a final reduction to the query output.
    pub fn finalize(&self, acc: Option<&Acc>) -> Out {
        (self.finalize)(acc)
    }

    /// Reduces a slice of accumulators left to right.
    pub fn reduce_all(&self, accs: &[Acc]) -> Option<Acc> {
        let mut it = accs.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |a, b| self.reduce(&a, b)))
    }

    /// Every prefix fold of `accs` onto `seed`, by reference:
    /// `folds[k] = seed ⊕ a₁ ⊕ … ⊕ a_k` for `k` in `0..=|accs|`, as a left
    /// fold with one `reduce` per step.
    pub(crate) fn prefix_folds<'a>(
        &self,
        seed: Option<Acc>,
        accs: impl IntoIterator<Item = &'a Acc>,
    ) -> Vec<Option<Acc>>
    where
        Acc: 'a,
    {
        let accs = accs.into_iter();
        let mut folds = Vec::with_capacity(accs.size_hint().0 + 1);
        folds.push(seed);
        for a in accs {
            let next = match folds.last().expect("seeded above") {
                Some(p) => self.reduce(p, a),
                None => a.clone(),
            };
            folds.push(Some(next));
        }
        folds
    }

    /// Evaluates the query sequentially over a record slice — the
    /// reference semantics used by tests and the brute-force ground truth.
    pub fn evaluate_slice(&self, records: &[T]) -> Out {
        let mut acc: Option<Acc> = None;
        for r in records {
            let m = self.map(r);
            acc = Some(match acc {
                Some(a) => self.reduce(&a, &m),
                None => m,
            });
        }
        self.finalize(acc.as_ref())
    }

    /// A shared handle to the mapper, for handing to engine stages.
    pub fn mapper(&self) -> MapFn<T, Acc> {
        Arc::clone(&self.map)
    }

    /// A shared handle to the reducer, for handing to engine stages.
    pub fn reducer(&self) -> ReduceFn<Acc> {
        Arc::clone(&self.reduce)
    }
}

impl<T: Data> MapReduceQuery<T, f64, f64> {
    /// Convenience constructor for scalar SUM-style queries: the reducer
    /// is `+` and the output is the sum itself (`0` for an empty input).
    /// Counting queries are sums of per-record indicator values.
    pub fn scalar_sum(
        name: impl Into<String>,
        half_key: impl Fn(&T) -> u64 + Send + Sync + 'static,
        map: impl Fn(&T) -> f64 + Send + Sync + 'static,
    ) -> Self {
        MapReduceQuery::new(
            name,
            half_key,
            map,
            |a, b| a + b,
            |acc| acc.copied().unwrap_or(0.0),
        )
    }
}

impl<T: Data, Out: DpOutput> MapReduceQuery<T, (f64, f64), Out> {
    /// Gives a `(sum, count)` query an **exact remainder**: the query
    /// must map every record to `(v, 1)`, `totals` must be the
    /// [`HalfTotals`] of the source it is prepared over, under the
    /// query's half key, and [`crate::Upa::prepare`] then reads each
    /// half's remainder from them instead of folding the remainder:
    /// `R(M(S′))_h = T_h ⊖ Σ_{s ∈ S_h} M(s)`, the exact sum of the half's
    /// unsampled records rounded once, and their count. That remainder
    /// does not depend on chunks, slabs, threads or fold order, and a
    /// preparation reads only its sample.
    pub fn with_half_totals(mut self, totals: Arc<HalfTotals>) -> Self {
        self.exact = Some(ExactRemainder {
            totals,
            value: |acc| acc.0,
            from_sum: |sum, n| (sum, n as f64),
        });
        self
    }
}

impl<T: Data> MapReduceQuery<T, Vec<f64>, Vec<f64>> {
    /// A histogram query: per-bucket sums as a vector output, so UPA
    /// infers a per-bucket sensitivity and adds per-bucket noise — the
    /// classic DP histogram, expressed as a Map/Reduce decomposition.
    /// `bucket_of` gives a record's bucket and the value it adds there
    /// (`1.0` for a count, the record's value for a per-key sum); records
    /// for which it returns `None` (or an out-of-range bucket) add to no
    /// bucket.
    pub fn histogram(
        name: impl Into<String>,
        half_key: impl Fn(&T) -> u64 + Send + Sync + 'static,
        bins: usize,
        bucket_of: impl Fn(&T) -> Option<(usize, f64)> + Send + Sync + 'static,
    ) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        MapReduceQuery::new(
            name,
            half_key,
            move |t: &T| {
                let mut sums = vec![0.0; bins];
                if let Some((b, v)) = bucket_of(t) {
                    if b < bins {
                        sums[b] = v;
                    }
                }
                sums
            },
            |a: &Vec<f64>, b: &Vec<f64>| a.iter().zip(b).map(|(x, y)| x + y).collect(),
            move |acc: Option<&Vec<f64>>| acc.cloned().unwrap_or_else(|| vec![0.0; bins]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sum_counts() {
        let q = MapReduceQuery::scalar_sum(
            "count_even",
            |x: &i64| *x as u64,
            |x: &i64| {
                if x % 2 == 0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let data: Vec<i64> = (0..10).collect();
        assert_eq!(q.evaluate_slice(&data), 5.0);
        assert_eq!(q.evaluate_slice(&[]), 0.0);
        assert_eq!(q.name(), "count_even");
    }

    #[test]
    fn vector_query_with_finalize() {
        // Mean vector: accumulate (sum, count), finalize divides.
        let q: MapReduceQuery<Vec<f64>, (Vec<f64>, u64), Vec<f64>> = MapReduceQuery::new(
            "mean_vec",
            |rec: &Vec<f64>| rec[0].to_bits(),
            |rec: &Vec<f64>| (rec.clone(), 1u64),
            |a, b| {
                (
                    a.0.iter().zip(b.0.iter()).map(|(x, y)| x + y).collect(),
                    a.1 + b.1,
                )
            },
            |acc| match acc {
                Some((sum, n)) => sum.iter().map(|s| s / *n as f64).collect(),
                None => Vec::new(),
            },
        );
        let data = vec![vec![1.0, 10.0], vec![3.0, 30.0]];
        assert_eq!(q.evaluate_slice(&data), vec![2.0, 20.0]);
    }

    #[test]
    fn merge_opt_handles_absence() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        assert_eq!(q.merge_opt(None, None), None);
        assert_eq!(q.merge_opt(Some(1.0), None), Some(1.0));
        assert_eq!(q.merge_opt(None, Some(2.0)), Some(2.0));
        assert_eq!(q.merge_opt(Some(1.0), Some(2.0)), Some(3.0));
    }

    #[test]
    fn merge_ref_matches_merge_opt() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        assert_eq!(q.merge_ref(None, None), None);
        assert_eq!(q.merge_ref(Some(&1.0), None), Some(1.0));
        assert_eq!(q.merge_ref(None, Some(&2.0)), Some(2.0));
        assert_eq!(q.merge_ref(Some(&1.0), Some(&2.0)), Some(3.0));
    }

    #[test]
    fn half_of_is_pinned() {
        // Each record's half decides which partition output it moves, so
        // a change to the mixer moves every release.
        let pinned = [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 0),
            (42, 1),
            (1.0f64.to_bits(), 0),
            (0.37f64.to_bits(), 1),
            (u64::MAX, 1),
        ];
        for (key, half) in pinned {
            assert_eq!(half_of(key), half, "key {key:#x}");
        }
    }

    #[test]
    fn half_of_fills_both_halves_of_integer_valued_keys() {
        // The raw bits of every integer-valued f64 below 2^52 end in a 0,
        // so their low bit alone would put all of them in one half.
        let mut records = [0usize; 2];
        for i in 0..100_000 {
            records[half_of((i as f64).to_bits())] += 1;
        }
        for n in records {
            assert!((45_000..=55_000).contains(&n), "{records:?}");
        }
        let mut column = [0usize; 2];
        for i in 0..2_000_000 {
            column[half_of(((i % 97) as f64).to_bits())] += 1;
        }
        assert!(column.iter().all(|&n| n > 0), "{column:?}");
    }

    #[test]
    fn fold_run_generic_routes_records_by_half() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let mut halves = [None, None];
        // 1.0 and 4.0 fall in half 0, 5.0 in half 1.
        q.fold_run_generic(&[1.0, 5.0, 4.0], &mut halves);
        assert_eq!(halves, [Some(5.0), Some(5.0)]);
        // A second run continues the same accumulators.
        q.fold_run_generic(&[0.37], &mut halves);
        assert_eq!(halves, [Some(5.0), Some(5.0 + 0.37)]);
    }

    #[test]
    fn reduce_all_matches_iterated_reduce() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        assert_eq!(q.reduce_all(&[1.0, 2.0, 3.0]), Some(6.0));
        assert_eq!(q.reduce_all(&[]), None);
    }

    #[test]
    fn clone_shares_closures() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let q2 = q.clone();
        assert_eq!(q2.evaluate_slice(&[1.0, 2.0]), 3.0);
        assert_eq!(q2.name(), "sum");
    }

    #[test]
    fn histogram_counts_buckets() {
        let q = MapReduceQuery::histogram(
            "ages",
            |age: &f64| age.to_bits(),
            3,
            |age: &f64| Some(((*age as usize) / 30, 1.0)),
        );
        let data = vec![5.0, 25.0, 35.0, 65.0, 95.0];
        // Buckets: [0,30) -> 2, [30,60) -> 1, [60,90) -> 1; 95 maps to
        // bucket 3 which is out of range and dropped.
        assert_eq!(q.evaluate_slice(&data), vec![2.0, 1.0, 1.0]);
        assert_eq!(q.evaluate_slice(&[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn histogram_none_counts_nowhere() {
        let q = MapReduceQuery::histogram(
            "opt",
            |x: &i64| *x as u64,
            2,
            |x: &i64| {
                if *x >= 0 {
                    Some((*x as usize % 2, 1.0))
                } else {
                    None
                }
            },
        );
        assert_eq!(q.evaluate_slice(&[-5, 0, 1, 2]), vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ =
            MapReduceQuery::histogram("bad", |x: &f64| x.to_bits(), 0, |_: &f64| Some((0, 1.0)));
    }
}
