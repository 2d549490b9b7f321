//! `joinDP` — differentially private aggregation over joins (paper §V-C).
//!
//! Join queries take two inputs: the **protected** table (whose records
//! iDP protects) and another table. Removing one protected record can
//! remove *many* joined tuples (joins are one-to-many), so the influence
//! of each sampled record must be tracked through the join.
//!
//! Exactly as the paper describes, UPA performs **two rounds of join and
//! shuffle** where vanilla execution performs one:
//!
//! 1. the *remainder* join — `S′ ⋈ other`, tagged with each protected
//!    record's logical half so RANGE ENFORCER's partition outputs survive
//!    the shuffle;
//! 2. the *differing* join — the sampled records and the candidate
//!    additions, tagged with their sample index, joined against `other`;
//!    the per-index aggregation is each record's influence.
//!
//! This double shuffling is what makes TPCH4/TPCH13 exceed 100% overhead
//! in the paper's Figure 2(b), and the engine's shuffle counters show the
//! same 2× shuffle blow-up here.
//!
//! The per-tuple function both filters (`None` drops the joined tuple —
//! the `Filter` of the SQL queries) and projects the joined tuple into an
//! accumulator, so arbitrary filtered aggregates over one join are
//! expressible; multi-join queries (TPCH16/21) instead use broadcast
//! map-side joins via [`broadcast_map`] + [`MapReduceQuery`], the standard
//! Spark idiom when the non-protected side fits in memory.

use crate::domain::DomainSampler;
use crate::error::UpaError;
use crate::output::DpOutput;
use crate::pipeline::{Upa, UpaResult};
use crate::query::MapReduceQuery;
use dataflow::partitioner::hash_key;
use dataflow::{Data, Dataset, PairOps, SpanRecorder};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The logical half (0 or 1) of a protected record with join key `key`:
/// the low bit of the engine's seedless in-tree hash, so a key keeps its
/// half across runs and machines, and a Rust upgrade cannot re-split it.
fn logical_half<K: Hash>(key: &K) -> usize {
    (hash_key(key) % 2) as usize
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

/// Collects `other` into a broadcast hash table keyed by join key — the
/// map-side-join building block used by the multi-join TPC-H queries.
pub fn broadcast_map<K, W>(other: &Dataset<(K, W)>) -> Arc<HashMap<K, Vec<W>>>
where
    K: Data + Hash + Eq,
    W: Data,
{
    let mut table: HashMap<K, Vec<W>> = HashMap::new();
    for (k, w) in other.collect() {
        table.entry(k).or_default().push(w);
    }
    Arc::new(table)
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
        let (indices, additions) = self.draw_sample(&spans, protected.len(), domain)?;
        let n = indices.len();
        let (sampled, remainder) = {
            let _scope = spans.enter("partition");
            protected.split_indices(&indices)
        };
        // Logical halves by the hash of the join key: content-defined, so
        // RANGE ENFORCER's partition fingerprints stay comparable across
        // neighbouring datasets.
        let sampled_halves: Vec<usize> = {
            let _scope = spans.enter("sample");
            sampled.iter().map(|(k, _)| logical_half(k)).collect()
        };

        // ---- Phase 2: tag maps (the join path's parallel map) ------------
        // Tag each protected record with its logical half before the
        // shuffle destroys partition identity, and each differing record
        // with its sample index.
        let (tagged, tagged_sample) = {
            let mut scope = spans.enter("map");
            scope.add_records(remainder.len() as u64 + 2 * n as u64);
            let tagged =
                remainder.map(move |(k, v)| (k.clone(), (v.clone(), logical_half(k) as u8)));
            let mut tagged_sample: Vec<(K, (usize, V))> = Vec::with_capacity(2 * n);
            for (i, (k, v)) in sampled.iter().enumerate() {
                tagged_sample.push((k.clone(), (i, v.clone())));
            }
            for (i, (k, v)) in additions.iter().enumerate() {
                tagged_sample.push((k.clone(), (n + i, v.clone())));
            }
            (tagged, tagged_sample)
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

        // ---- Round 2: differing join (S ∪ additions) ⋈ other -------------
        // Index-tagged so each sampled record's influence (its joined
        // tuples' aggregate) is recovered after the shuffle.
        let (mapped_sampled, mapped_additions) = {
            let _scope = spans.enter("join_differing");
            let sample_ds = self.ctx().parallelize_default(tagged_sample);
            let per_tuple = Arc::clone(&agg.per_tuple);
            let reduce = Arc::clone(&agg.reduce);
            let influences: HashMap<usize, A> = sample_ds
                .join(other)
                .flat_map(move |(k, ((i, v), w))| per_tuple(k, v, w).map(|a| (*i, a)))
                .reduce_by_key(move |a, b| reduce(a, b))
                .collect_as_map();
            let mapped_sampled: Vec<Option<A>> =
                (0..n).map(|i| influences.get(&i).cloned()).collect();
            let mapped_additions: Vec<Option<A>> =
                (0..n).map(|i| influences.get(&(n + i)).cloned()).collect();
            (mapped_sampled, mapped_additions)
        };
        drop(reduce_scope);

        // ---- Phase 4: the fit and the release, as the scalar pipeline ----
        let reduce = Arc::clone(&agg.reduce);
        let finalize = Arc::clone(&agg.finalize);
        let state_query: MapReduceQuery<(K, V), Option<A>, Out> = MapReduceQuery::new(
            agg.name.clone(),
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

    #[test]
    fn join_dp_shuffles_twice_as_much_as_vanilla() {
        let ctx = Context::with_threads(4);
        let (orders, items, order_rows) = workload(&ctx);
        ctx.reset_metrics();
        let _ = orders.join(&items).count();
        let vanilla_shuffles = ctx.metrics().shuffles;
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let domain = EmpiricalSampler::new(order_rows);
        let u = upa(&ctx, 32);
        ctx.reset_metrics();
        let _ = u.run_join(&orders, &items, &agg, &domain).unwrap();
        let upa_shuffles = ctx.metrics().shuffles;
        assert!(
            upa_shuffles >= 2 * vanilla_shuffles,
            "joinDP must shuffle at least twice as much ({upa_shuffles} vs {vanilla_shuffles})"
        );
    }

    /// RANGE ENFORCER fingerprints the halves, so a key's half may change
    /// only by a deliberate edit of this table.
    #[test]
    fn logical_halves_are_pinned() {
        let halves: Vec<usize> = (0u64..16).map(|k| logical_half(&k)).collect();
        assert_eq!(halves, [0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn broadcast_map_groups_by_key() {
        let ctx = Context::with_threads(2);
        let ds = ctx.parallelize(vec![(1u32, "a"), (2, "b"), (1, "c")], 2);
        let table = broadcast_map(&ds);
        assert_eq!(table[&1].len(), 2);
        assert_eq!(table[&2], vec!["b"]);
        assert!(table.get(&3).is_none());
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
}
