//! `joinDP` — differentially private aggregation over joins (paper §V-C).
//!
//! Join queries take two inputs: the **protected** table (whose records
//! iDP protects) and another table. Removing one protected record can
//! remove *many* joined tuples (joins are one-to-many), so the influence
//! of each sampled record must be tracked through the join.
//!
//! UPA runs two rounds over `other`:
//!
//! 1. the *remainder* join — `S′ ⋈ other`, tagged with each protected
//!    record's logical half so RANGE ENFORCER's partition outputs survive
//!    the shuffle;
//! 2. the *differing* lookup — each sampled record and candidate addition
//!    looks its join key up in the buckets and join index that round 1
//!    left on `other` ([`PairOps::lookup`]); each record's matches fold
//!    into its influence.
//!
//! The paper's Spark `joinDP` runs round 2 as a second shuffle join, so it
//! shuffles `other` twice, and it blames that round for TPCH4/TPCH13's
//! overhead of more than 100% in Figure 2(b). Round 2 here moves and
//! scans nothing: its 2n records are at most 2·`sample_size`, whatever |x|
//! and |other|, and each costs one probe of `other`'s index. `other`
//! crosses a shuffle at most once over its lifetime, so a run on an
//! `other` that an earlier run or join has used shuffles only the sampled
//! remainder and the per-half reduce.
//!
//! The per-tuple function both filters (`None` drops the joined tuple —
//! the `Filter` of the SQL queries) and projects the joined tuple into an
//! accumulator, so arbitrary filtered aggregates over one join are
//! expressible. The multi-join queries (TPCH16/21) are not `joinDP` runs:
//! `upa-tpch` joins their other tables through its own lookup maps inside
//! a [`MapReduceQuery`].

use crate::domain::DomainSampler;
use crate::error::UpaError;
use crate::output::DpOutput;
use crate::pipeline::{Upa, UpaResult};
use crate::query::{half_of, MapReduceQuery, ReduceFn};
use dataflow::partitioner::hash_key;
use dataflow::{Data, Dataset, PairOps, SpanRecorder};
use std::hash::Hash;
use std::sync::Arc;

/// The logical half (0 or 1) of a protected record with join key `key`:
/// [`half_of`] the engine's seedless in-tree hash, so a key keeps its
/// half across runs and machines, and a Rust upgrade cannot re-split it.
fn logical_half<K: Hash>(key: &K) -> usize {
    half_of(hash_key(key))
}

/// Shared handle to a per-joined-tuple projection/filter.
pub type PerTupleFn<K, V, W, A> = Arc<dyn Fn(&K, &V, &W) -> Option<A> + Send + Sync>;

/// An aggregation over the tuples of `protected ⋈ other`.
pub struct JoinAggregate<K, V, W, A, Out> {
    name: String,
    per_tuple: PerTupleFn<K, V, W, A>,
    reduce: crate::query::ReduceFn<A>,
    finalize: crate::query::FinalizeFn<A, Out>,
}

impl<K, V, W, A, Out> Clone for JoinAggregate<K, V, W, A, Out> {
    fn clone(&self) -> Self {
        JoinAggregate {
            name: self.name.clone(),
            per_tuple: Arc::clone(&self.per_tuple),
            reduce: Arc::clone(&self.reduce),
            finalize: Arc::clone(&self.finalize),
        }
    }
}

impl<K, V, W, A, Out> std::fmt::Debug for JoinAggregate<K, V, W, A, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinAggregate")
            .field("name", &self.name)
            .finish()
    }
}

impl<K: Data, V: Data, W: Data, A: Data, Out: DpOutput> JoinAggregate<K, V, W, A, Out> {
    /// Creates a join aggregate. `per_tuple` returning `None` filters the
    /// joined tuple out; `reduce` must be commutative and associative.
    pub fn new(
        name: impl Into<String>,
        per_tuple: impl Fn(&K, &V, &W) -> Option<A> + Send + Sync + 'static,
        reduce: impl Fn(&A, &A) -> A + Send + Sync + 'static,
        finalize: impl Fn(Option<&A>) -> Out + Send + Sync + 'static,
    ) -> Self {
        JoinAggregate {
            name: name.into(),
            per_tuple: Arc::new(per_tuple),
            reduce: Arc::new(reduce),
            finalize: Arc::new(finalize),
        }
    }

    /// The aggregate's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<K: Data, V: Data, W: Data> JoinAggregate<K, V, W, f64, f64> {
    /// COUNT of joined tuples satisfying `predicate` — the query shape of
    /// the TPC-H count benchmarks.
    pub fn count(
        name: impl Into<String>,
        predicate: impl Fn(&K, &V, &W) -> bool + Send + Sync + 'static,
    ) -> Self {
        JoinAggregate::new(
            name,
            move |k, v, w| predicate(k, v, w).then_some(1.0),
            |a, b| a + b,
            |acc| acc.copied().unwrap_or(0.0),
        )
    }
}

/// Round 2 of `joinDP`: the influence of each of the `differing`
/// records, the left fold with `reduce` of `per_tuple` over its matches
/// in `other`, taken in `other`'s record order (partition by partition),
/// or `None` if no joined tuple survives `per_tuple`.
///
/// Each record looks its key up in `other`'s kept join index, which
/// lists a key's rows in that order, the order in which a shuffle join's
/// bucket lists them; so the bits equal a shuffle join's for any reducer.
fn differing_influences<K, V, W, A>(
    other: &Dataset<(K, W)>,
    differing: &[(K, V)],
    per_tuple: &PerTupleFn<K, V, W, A>,
    reduce: &ReduceFn<A>,
) -> Vec<Option<A>>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
    A: Data,
{
    differing
        .iter()
        .map(|(k, v)| {
            let mut acc: Option<A> = None;
            other.lookup(k, |w| {
                if let Some(a) = per_tuple(k, v, w) {
                    acc = Some(match acc.take() {
                        Some(prev) => reduce(&prev, &a),
                        None => a,
                    });
                }
            });
            acc
        })
        .collect()
}

impl Upa {
    /// Runs a join aggregate under iDP, protecting the records of
    /// `protected` (the paper's `joinDP`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Upa::run`].
    pub fn run_join<K, V, W, A, Out>(
        &self,
        protected: &Dataset<(K, V)>,
        other: &Dataset<(K, W)>,
        agg: &JoinAggregate<K, V, W, A, Out>,
        domain: &dyn DomainSampler<(K, V)>,
    ) -> Result<UpaResult<Out>, UpaError>
    where
        K: Data + Hash + Eq,
        V: Data,
        W: Data,
        A: Data,
        Out: DpOutput,
    {
        let spans = SpanRecorder::new();
        let engine_before = self.ctx().metrics();
        let prepare_scope = spans.enter("prepare");

        // ---- Phase 1: Partition & Sample --------------------------------
        let (floyd, domain_draws) = self.draw_sample(&spans, protected.len(), domain)?;
        let (sampled, remainder) = {
            let _scope = spans.enter("partition");
            protected.split_indices(&floyd.resolve())
        };
        let n = sampled.len();
        // Logical halves by the hash of the join key: content-defined, so
        // RANGE ENFORCER's partition fingerprints stay comparable across
        // neighbouring datasets.
        let (additions, sampled_halves) = {
            let _scope = spans.enter("sample");
            let halves: Vec<usize> = sampled.iter().map(|(k, _)| logical_half(k)).collect();
            (domain.materialise(domain_draws), halves)
        };

        // ---- Phase 2: tag maps (the join path's parallel map) ------------
        // Tag each protected record with its logical half before the
        // shuffle destroys partition identity; a differing record's index
        // (sampled records first, then additions) is its tag.
        let (tagged, differing) = {
            let mut scope = spans.enter("map");
            scope.add_records(remainder.len() as u64 + 2 * n as u64);
            let tagged =
                remainder.map(move |(k, v)| (k.clone(), (v.clone(), logical_half(k) as u8)));
            let mut differing = sampled;
            differing.extend(additions);
            (tagged, differing)
        };

        let reduce_scope = spans.enter("reduce");
        // ---- Round 1: remainder join (S′ ⋈ other) ------------------------
        let rem_half: [Option<Option<A>>; 2] = {
            let _scope = spans.enter("join_remainder");
            let joined = tagged.join(other);
            let per_tuple = Arc::clone(&agg.per_tuple);
            let reduce = Arc::clone(&agg.reduce);
            let half_accs = joined
                .flat_map(move |(k, ((v, h), w))| per_tuple(k, v, w).map(|a| (*h, a)))
                .reduce_by_key(move |a, b| reduce(a, b))
                .collect_as_map();
            [
                half_accs.get(&0).cloned().map(Some),
                half_accs.get(&1).cloned().map(Some),
            ]
        };

        // ---- Round 2: differing lookup (S ∪ additions) ⋈ other -----------
        let (mapped_sampled, mapped_additions) = {
            let _scope = spans.enter("join_differing");
            let mut mapped_sampled =
                differing_influences(other, &differing, &agg.per_tuple, &agg.reduce);
            let mapped_additions = mapped_sampled.split_off(n);
            (mapped_sampled, mapped_additions)
        };
        drop(reduce_scope);

        // ---- Phase 4: the fit and the release, as the scalar pipeline ----
        let reduce = Arc::clone(&agg.reduce);
        let finalize = Arc::clone(&agg.finalize);
        let state_query: MapReduceQuery<(K, V), Option<A>, Out> = MapReduceQuery::new(
            agg.name.clone(),
            |(k, _): &(K, V)| hash_key(k),
            |_rec: &(K, V)| None, // the mapper is not used past phase 2
            move |a: &Option<A>, b: &Option<A>| match (a, b) {
                (Some(a), Some(b)) => Some(reduce(a, b)),
                (Some(a), None) => Some(a.clone()),
                (None, b) => b.clone(),
            },
            move |acc: Option<&Option<A>>| finalize(acc.and_then(|o| o.as_ref())),
        );
        // The join rounds run their stages through the shared context, so
        // this delta also counts stages that concurrent queries ran on it.
        let engine = self.ctx().metrics().since(&engine_before);
        let prepared = self.fit(
            spans,
            prepare_scope,
            &state_query,
            mapped_sampled,
            &mapped_additions,
            sampled_halves,
            rem_half,
            engine,
        )?;
        self.release(&prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpaConfig;
    use crate::domain::EmpiricalSampler;
    use dataflow::Context;

    /// Builds a join workload: protected "orders" (key = customer id) and
    /// an "items" table with a skewed key distribution.
    type Workload = (Dataset<(u64, u64)>, Dataset<(u64, f64)>, Vec<(u64, u64)>);

    fn workload(ctx: &Context) -> Workload {
        let orders: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 50, i)).collect();
        let items: Vec<(u64, f64)> = (0..600u64).map(|i| (i % 30, i as f64)).collect();
        (
            ctx.parallelize(orders.clone(), 8),
            ctx.parallelize(items, 4),
            orders,
        )
    }

    fn upa(ctx: &Context, n: usize) -> Upa {
        Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: n,
                add_noise: false,
                ..UpaConfig::default()
            },
        )
    }

    #[test]
    fn join_count_matches_vanilla_join() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let domain = EmpiricalSampler::new(order_rows);
        let u = upa(&ctx, 64);
        let result = u.run_join(&orders, &items, &agg, &domain).unwrap();
        let vanilla = orders.join(&items).count() as f64;
        assert_eq!(result.raw, vanilla);
    }

    #[test]
    fn removal_outputs_reflect_join_fanout() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let domain = EmpiricalSampler::new(order_rows.clone());
        let u = upa(&ctx, 32);
        let result = u.run_join(&orders, &items, &agg, &domain).unwrap();
        // Every order key in 0..30 matches exactly 20 items; keys 30..50
        // match none. So each removal output is either raw or raw − 20.
        for &o in result.removal_outputs.iter() {
            let delta = result.raw - o;
            assert!(
                delta == 0.0 || delta == 20.0,
                "unexpected join influence {delta}"
            );
        }
        // Additions symmetric.
        for &o in result.addition_outputs.iter() {
            let delta = o - result.raw;
            assert!(delta == 0.0 || delta == 20.0);
        }
    }

    #[test]
    fn filter_predicate_limits_influence() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        // Count only tuples whose item value is below 30: per key in
        // 0..30 exactly one item (value = key) survives.
        let agg = JoinAggregate::count("filtered_join_count", |_, _, w| *w < 30.0);
        let domain = EmpiricalSampler::new(order_rows);
        let u = upa(&ctx, 32);
        let result = u.run_join(&orders, &items, &agg, &domain).unwrap();
        for &o in result.removal_outputs.iter() {
            let delta = result.raw - o;
            assert!(delta == 0.0 || delta == 1.0, "filter should cap influence");
        }
        assert!(result.max_sensitivity() < 21.0);
    }

    /// Round 1 is the only shuffle join, and `other` keeps the buckets it
    /// crossed it with: the first run moves the remainder, `other` once
    /// and the per-half reduce; a second run on the same `other` moves
    /// only the remainder and the per-half reduce; and a vanilla join
    /// after both moves nothing for an input already shuffled.
    #[test]
    fn join_dp_shuffles_other_once() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let domain = EmpiricalSampler::new(order_rows);
        let n = 32;
        let u = upa(&ctx, n);
        let remainder = (orders.len() - n) as u64;
        let buckets = ctx.config().shuffle_partitions as u64;
        let run = |moved_by_inputs: u64| {
            ctx.reset_metrics();
            let _ = u.run_join(&orders, &items, &agg, &domain).unwrap();
            let m = ctx.metrics();
            // The per-half reduce moves at most one record per half per
            // join bucket.
            let per_half = m.shuffle_records - moved_by_inputs;
            assert!(
                (1..=2 * buckets).contains(&per_half),
                "the per-half reduce moved {per_half} records"
            );
            m.shuffles
        };
        assert_eq!(run(remainder + items.len() as u64), 3, "first run");
        assert_eq!(run(remainder), 2, "second run on the same `other`");
        // `orders` itself was never shuffled, only its remainders.
        ctx.reset_metrics();
        let vanilla = orders.join(&items).count();
        let m = ctx.metrics();
        assert_eq!((m.shuffles, m.shuffle_records), (1, orders.len() as u64));
        ctx.reset_metrics();
        assert_eq!(orders.join(&items).count(), vanilla);
        let m = ctx.metrics();
        assert_eq!((m.shuffles, m.shuffle_records), (0, 0));
    }

    /// A pending `other` is forced and shuffled by round 1 and its buckets
    /// kept, so round 2's lookups move nothing more, and the release is
    /// the one on a materialised copy of it.
    #[test]
    fn pending_other_is_shuffled_once_per_run() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let domain = EmpiricalSampler::new(order_rows);
        let n = 32;
        let materialised = upa(&ctx, n)
            .run_join(&orders, &items, &agg, &domain)
            .unwrap();
        let pending = items.map(|kv| *kv);
        ctx.reset_metrics();
        let result = upa(&ctx, n)
            .run_join(&orders, &pending, &agg, &domain)
            .unwrap();
        let m = ctx.metrics();
        assert_eq!(m.shuffles, 3, "remainder, `other` and the per-half reduce");
        let inputs = (orders.len() - n + items.len()) as u64;
        assert!(m.shuffle_records > inputs);
        assert!(m.shuffle_records <= inputs + 2 * ctx.config().shuffle_partitions as u64);
        assert_eq!(result.raw, materialised.raw);
        assert_eq!(result.removal_outputs, materialised.removal_outputs);
        assert_eq!(result.addition_outputs, materialised.addition_outputs);
    }

    /// RANGE ENFORCER fingerprints the halves, so a key's half may change
    /// only by a deliberate edit of this table.
    #[test]
    fn logical_halves_are_pinned() {
        let halves: Vec<usize> = (0u64..16).map(|k| logical_half(&k)).collect();
        assert_eq!(halves, [0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn sum_aggregate_over_join() {
        let ctx = Context::with_threads(4);
        let orders: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 10, i)).collect();
        let items: Vec<(u64, f64)> = (0..100u64).map(|i| (i % 10, 2.0)).collect();
        let o = ctx.parallelize(orders.clone(), 4);
        let it = ctx.parallelize(items, 2);
        let agg: JoinAggregate<u64, u64, f64, f64, f64> = JoinAggregate::new(
            "join_sum",
            |_, _, w| Some(*w),
            |a, b| a + b,
            |acc| acc.copied().unwrap_or(0.0),
        );
        let domain = EmpiricalSampler::new(orders);
        let u = upa(&ctx, 16);
        let result = u.run_join(&o, &it, &agg, &domain).unwrap();
        // 500 orders × 10 matching items × 2.0 each.
        assert_eq!(result.raw, 500.0 * 10.0 * 2.0);
    }

    type Rows = Vec<(u8, f64)>;

    /// Each differing record's influence, by a nested loop: a left fold
    /// over `other`'s partitions in order and each partition's records in
    /// order.
    fn nested_loop_influences(
        differing: &Rows,
        other: &[Rows],
        per_tuple: &PerTupleFn<u8, f64, f64, f64>,
        reduce: &ReduceFn<f64>,
    ) -> Vec<Option<f64>> {
        differing
            .iter()
            .map(|(k, v)| {
                let mut acc: Option<f64> = None;
                for (k2, w) in other.iter().flatten() {
                    if k2 != k {
                        continue;
                    }
                    if let Some(a) = per_tuple(k, v, w) {
                        acc = Some(acc.map_or(a, |x| reduce(&x, &a)));
                    }
                }
                acc
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Round 2 folds each record's matches exactly as a nested loop
        /// over `other` in partition order does, bit for bit: with
        /// duplicate sampled keys, a sample and an addition on one key,
        /// addition keys absent from `other` (keys 6 and 7), empty
        /// `other` partitions, and every key collapsed to one.
        #[test]
        fn differing_influences_match_nested_loop_fold(
            differing in proptest::collection::vec((0u8..8, -10.0f64..10.0), 0..24),
            other in proptest::collection::vec((0u8..6, -3.0f64..3.0), 0..120),
            cuts in (0usize..120, 0usize..120),
        ) {
            // Not associative, so a fold in any other order moves the bits.
            let reduce: ReduceFn<f64> = Arc::new(|a, b| a * 0.75 + b);
            let per_tuple: PerTupleFn<u8, f64, f64, f64> =
                Arc::new(|_, v, w| (*w > -2.0).then(|| v * w + 0.1));
            let single = |rows: &Rows| -> Rows { rows.iter().map(|&(_, x)| (0, x)).collect() };
            let c = Context::with_threads(3);
            for (differing, other) in [
                (differing.clone(), other.clone()),
                (single(&differing), single(&other)),
            ] {
                // Three slices of `other`, an empty partition between the
                // first two.
                let (a, b) = (cuts.0.min(cuts.1).min(other.len()), cuts.0.max(cuts.1).min(other.len()));
                let parts = [
                    other[..a].to_vec(),
                    Vec::new(),
                    other[a..b].to_vec(),
                    other[b..].to_vec(),
                ];
                let ds = parts
                    .iter()
                    .map(|p| c.parallelize(p.clone(), 1))
                    .reduce(|x, y| x.union(&y))
                    .unwrap();
                let bits = |v: Vec<Option<f64>>| -> Vec<Option<u64>> {
                    v.into_iter().map(|x| x.map(f64::to_bits)).collect()
                };
                let want = nested_loop_influences(&differing, &parts, &per_tuple, &reduce);
                let got = differing_influences(&ds, &differing, &per_tuple, &reduce);
                proptest::prop_assert_eq!(bits(got), bits(want));
            }
        }
    }
}
