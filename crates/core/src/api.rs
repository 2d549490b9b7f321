//! The paper's Table I operator API, as a thin Spark-style facade.
//!
//! The paper exposes UPA to Spark programs through DP-enabled,
//! Spark-compatible operators: `dpread` partitions and samples the input,
//! `dpobject` carries the map/reduce state of the sampled set `S` and the
//! remainder `S′`, and `mapDP`/`reduceDP` (plus the key-value variants)
//! mirror the RDD methods. This module provides the same vocabulary over
//! the [`crate::pipeline::Upa`] engine so that porting a query is a
//! rename, not a rewrite:
//!
//! | Paper (Table I)      | This crate                                  |
//! |----------------------|---------------------------------------------|
//! | `dpread[T](RDD[T])`  | [`DpSession::dpread`] (row or columnar)     |
//! | `mapDP`              | [`DpRead::map_dp`]                          |
//! | `reduceDP`           | [`DpObject::reduce_dp`]                     |
//! | `reduceByKeyDP`      | [`DpReadKv::reduce_by_key_dp`]              |
//! | `dpobjectKV` + `joinDP` | [`DpSession::dpread_kv`] + [`DpReadKv::join_dp`] |
//!
//! `dpread` takes the record-domain sampler up front — mirroring the
//! paper, where the domain `D` is a property of the protected table, not
//! of any particular reduction over it — so every terminal operator
//! (`reduce_dp`, `reduce_by_key_dp`, `join_dp`) needs only its
//! query-specific arguments. It takes the table's content-derived half
//! key beside it for the same reason (`dpread_kv` halves by the key).
//!
//! # Example
//!
//! ```
//! use dataflow::Context;
//! use upa_core::api::DpSession;
//! use upa_core::domain::EmpiricalSampler;
//! use upa_core::UpaConfig;
//!
//! let ctx = Context::with_threads(2);
//! let data: Vec<f64> = (0..3_000).map(|i| (i % 9) as f64).collect();
//! let ds = ctx.parallelize(data.clone(), 4);
//! let domain = EmpiricalSampler::new(data);
//!
//! let mut session = DpSession::new(ctx, UpaConfig { sample_size: 100, ..UpaConfig::default() });
//! let result = session
//!     .dpread(&ds, &domain, |x: &f64| x.to_bits())
//!     .map_dp("sum", |x: &f64| *x)
//!     .reduce_dp(|a, b| a + b)
//!     .unwrap();
//! assert!(result.sensitivity[0] > 0.0);
//! // Every successful release leaves an audit behind.
//! assert!(session.last_audit().is_some());
//! ```

use crate::audit::QueryAudit;
use crate::domain::DomainSampler;
use crate::error::UpaError;
use crate::join::JoinAggregate;
use crate::output::DpOutput;
use crate::pipeline::{Upa, UpaResult};
use crate::query::MapReduceQuery;
use crate::source::RecordSource;
use crate::UpaConfig;
use dataflow::{Context, Data, Dataset};
use std::hash::Hash;
use std::sync::Arc;

/// A UPA session: the `Upa` engine plus the Table I operator vocabulary.
#[derive(Debug)]
pub struct DpSession {
    upa: Upa,
}

impl DpSession {
    /// Creates a session over an engine context.
    pub fn new(ctx: Context, config: UpaConfig) -> Self {
        DpSession {
            upa: Upa::new(ctx, config),
        }
    }

    /// The underlying engine.
    pub fn upa(&self) -> &Upa {
        &self.upa
    }

    /// The audit of the most recent successful release (see
    /// [`Upa::last_audit`]).
    pub fn last_audit(&self) -> Option<Arc<QueryAudit>> {
        self.upa.last_audit()
    }

    /// Audits of the most recent successful releases through this
    /// session's engine, oldest first (a bounded ring, see
    /// [`Upa::audits`]).
    pub fn audits(&self) -> Vec<Arc<QueryAudit>> {
        self.upa.audits()
    }

    /// `dpread[T](RDD[T])`: marks a dataset — a row [`Dataset`] or a
    /// [`dataflow::ColumnarDataset`] — for DP processing, with `domain`
    /// sampling the record domain `D \ x` the paper's *added* neighbours
    /// are drawn from, and the records' half key ([`MapReduceQuery::new`]).
    /// Sampling itself happens lazily when the terminal `reduceDP` runs,
    /// so that the sample is fresh per query (as in Algorithm 1).
    pub fn dpread<'s, T: Data, S: RecordSource<T>>(
        &'s mut self,
        data: &'s S,
        domain: &'s dyn DomainSampler<T>,
        half_key: impl Fn(&T) -> u64 + Send + Sync + 'static,
    ) -> DpRead<'s, T, S> {
        DpRead {
            session: self,
            data,
            domain,
            half_key: Box::new(half_key),
        }
    }

    /// `dpobjectKV`: marks a key-value dataset (the protected side of a
    /// join) for DP processing, with `domain` sampling its record domain.
    pub fn dpread_kv<'s, K: Data, V: Data>(
        &'s mut self,
        data: &Dataset<(K, V)>,
        domain: &'s dyn DomainSampler<(K, V)>,
    ) -> DpReadKv<'s, K, V> {
        DpReadKv {
            session: self,
            data: data.clone(),
            domain,
        }
    }
}

/// The result of `dpread`: a dataset awaiting its `mapDP`.
pub struct DpRead<'s, T, S = Dataset<T>> {
    session: &'s mut DpSession,
    data: &'s S,
    domain: &'s dyn DomainSampler<T>,
    half_key: Box<dyn Fn(&T) -> u64 + Send + Sync>,
}

impl<'s, T: Data, S: RecordSource<T>> DpRead<'s, T, S> {
    /// `mapDP(T => U)`: attaches the mapper.
    pub fn map_dp<Acc: Data>(
        self,
        name: impl Into<String>,
        map: impl Fn(&T) -> Acc + Send + Sync + 'static,
    ) -> DpObject<'s, T, Acc, S> {
        DpObject {
            session: self.session,
            data: self.data,
            name: name.into(),
            map: Arc::new(map),
            domain: self.domain,
            half_key: self.half_key,
        }
    }
}

/// `dpobject[U]`: a mapped DP dataset awaiting its terminal reduce.
pub struct DpObject<'s, T, Acc, S = Dataset<T>> {
    session: &'s mut DpSession,
    data: &'s S,
    name: String,
    map: Arc<dyn Fn(&T) -> Acc + Send + Sync>,
    domain: &'s dyn DomainSampler<T>,
    half_key: Box<dyn Fn(&T) -> u64 + Send + Sync>,
}

impl<T: Data, Acc: Data, S: RecordSource<T>> DpObject<'_, T, Acc, S> {
    /// `reduceDP((T, T) => T)`: runs the full UPA pipeline and releases a
    /// noisy output. The accumulator itself must be the output (scalar
    /// reductions); use [`DpObject::reduce_dp_with`] when a final
    /// projection is needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Upa::run`].
    pub fn reduce_dp(
        self,
        reduce: impl Fn(&Acc, &Acc) -> Acc + Send + Sync + 'static,
    ) -> Result<UpaResult<Acc>, UpaError>
    where
        Acc: DpOutput,
    {
        self.reduce_dp_with(reduce, |acc: Option<&Acc>| {
            acc.cloned()
                .unwrap_or_else(|| Acc::from_components(vec![0.0]))
        })
    }

    /// `reduceDP` with an output projection (`finalize`), for queries
    /// whose released value is derived from the reduction (model updates,
    /// averages).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Upa::run`].
    pub fn reduce_dp_with<Out: DpOutput>(
        self,
        reduce: impl Fn(&Acc, &Acc) -> Acc + Send + Sync + 'static,
        finalize: impl Fn(Option<&Acc>) -> Out + Send + Sync + 'static,
    ) -> Result<UpaResult<Out>, UpaError> {
        let (key, map) = (self.half_key, self.map);
        let query = MapReduceQuery::new(self.name, key, move |t: &T| map(t), reduce, finalize);
        self.session.upa.run(self.data, &query, self.domain)
    }
}

/// The result of `dpread_kv`: a protected key-value dataset.
pub struct DpReadKv<'s, K, V> {
    session: &'s mut DpSession,
    data: Dataset<(K, V)>,
    domain: &'s dyn DomainSampler<(K, V)>,
}

impl<K, V> DpReadKv<'_, K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// `reduceByKeyDP((V, V) => V)`: releases one noisy aggregate per
    /// key, with per-key sensitivity inferred by UPA (the DP word-count /
    /// histogram workload). The key set is taken from the observed data
    /// (category labels are treated as public; only the aggregates are
    /// protected). Values are projected to `f64` by `value_of` and summed
    /// per key.
    ///
    /// Returns a [`KeyedResult`] pairing the sorted key order with the
    /// vector release: component `i` of the underlying result is the
    /// aggregate for key `i`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Upa::run`].
    pub fn reduce_by_key_dp(
        self,
        value_of: impl Fn(&V) -> f64 + Send + Sync + 'static,
    ) -> Result<KeyedResult<K>, UpaError>
    where
        K: std::hash::Hash + Ord,
    {
        // Public key domain: the distinct keys, in sorted order for
        // deterministic output components.
        let mut keys: Vec<K> = self.data.map(|(k, _)| k.clone()).distinct().collect();
        keys.sort();
        let index_of: std::collections::HashMap<K, usize> = keys
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        let bins = keys.len().max(1);
        let index_for_map = std::sync::Arc::new(index_of);
        let index_for_key = std::sync::Arc::clone(&index_for_map);
        let query = MapReduceQuery::histogram(
            "reduce_by_key_dp",
            move |(k, _v): &(K, V)| index_for_key.get(k).copied().unwrap_or(0) as u64,
            bins,
            move |(k, v): &(K, V)| index_for_map.get(k).map(|&i| (i, value_of(v))),
        );
        let result = self.session.upa.run(&self.data, &query, self.domain)?;
        Ok(KeyedResult { keys, result })
    }

    /// `joinDP(dpobjectKV[K, W])`: joins with another table and runs a
    /// join aggregate under iDP (see [`crate::join`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Upa::run_join`].
    pub fn join_dp<W, A, Out>(
        self,
        other: &Dataset<(K, W)>,
        agg: &JoinAggregate<K, V, W, A, Out>,
    ) -> Result<UpaResult<Out>, UpaError>
    where
        W: Data,
        A: Data,
        Out: DpOutput,
    {
        self.session
            .upa
            .run_join(&self.data, other, agg, self.domain)
    }
}

/// The release of a `reduceByKeyDP` query: per-key noisy aggregates,
/// addressable by key as well as by component index.
///
/// Keys are in sorted order; component `i` of the underlying
/// [`UpaResult`] (released value, sensitivity, range) belongs to
/// `keys()[i]`.
#[derive(Debug, Clone)]
pub struct KeyedResult<K> {
    keys: Vec<K>,
    result: UpaResult<Vec<f64>>,
}

impl<K: Ord> KeyedResult<K> {
    /// The released (noisy) aggregate for `key`, or `None` for a key that
    /// was not in the observed key set.
    pub fn get(&self, key: &K) -> Option<f64> {
        let i = self.keys.binary_search(key).ok()?;
        self.result.released.get(i).copied()
    }

    /// The keys, in sorted order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Iterates `(key, released aggregate)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, f64)> {
        self.keys.iter().zip(self.result.released.iter().copied())
    }

    /// The underlying vector release: raw/enforced/released values,
    /// per-component sensitivity and range.
    pub fn result(&self) -> &UpaResult<Vec<f64>> {
        &self.result
    }

    /// Consumes the wrapper, returning the key order and the underlying
    /// result.
    pub fn into_parts(self) -> (Vec<K>, UpaResult<Vec<f64>>) {
        (self.keys, self.result)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the key set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::EmpiricalSampler;

    fn session(n: usize) -> (Context, DpSession) {
        let ctx = Context::with_threads(2);
        let s = DpSession::new(
            ctx.clone(),
            UpaConfig {
                sample_size: n,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        (ctx, s)
    }

    #[test]
    fn table1_scalar_flow() {
        let (ctx, mut s) = session(50);
        let data: Vec<f64> = (0..1_000).map(|i| (i % 5) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let domain = EmpiricalSampler::new(data);
        let result = s
            .dpread(&ds, &domain, |x: &f64| x.to_bits())
            .map_dp("count", |_x: &f64| 1.0)
            .reduce_dp(|a, b| a + b)
            .unwrap();
        assert_eq!(result.raw, 1_000.0);
        let audit = s.last_audit().expect("release leaves an audit");
        assert_eq!(audit.query, "count");
        assert!(audit.stage_nanos("sample") > 0);
    }

    #[test]
    fn table1_finalized_flow() {
        let (ctx, mut s) = session(50);
        let data: Vec<f64> = (0..1_000).map(|i| (i % 5) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let domain = EmpiricalSampler::new(data);
        // Mean via (sum, count) accumulator.
        let result = s
            .dpread(&ds, &domain, |x: &f64| x.to_bits())
            .map_dp("mean", |x: &f64| vec![*x, 1.0])
            .reduce_dp_with(
                |a: &Vec<f64>, b: &Vec<f64>| vec![a[0] + b[0], a[1] + b[1]],
                |acc: Option<&Vec<f64>>| acc.map(|a| a[0] / a[1]).unwrap_or(0.0),
            )
            .unwrap();
        assert!((result.raw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dpread_takes_a_columnar_source() {
        use crate::domain::ColumnarEmpiricalSampler;
        use dataflow::columnar::{ColumnarBuf, ColumnarDataset};

        let (ctx, mut s) = session(50);
        let data: Vec<f64> = (0..1_000).map(|i| (i % 5) as f64).collect();
        let buf = ColumnarBuf::from_values(data.to_vec(), 64);
        let cds = ColumnarDataset::new(&ctx, buf.clone());
        let domain = ColumnarEmpiricalSampler::new(buf);
        let result = s
            .dpread(&cds, &domain, |x: &f64| x.to_bits())
            .map_dp("mean", |x: &f64| vec![*x, 1.0])
            .reduce_dp_with(
                |a: &Vec<f64>, b: &Vec<f64>| vec![a[0] + b[0], a[1] + b[1]],
                |acc: Option<&Vec<f64>>| acc.map(|a| a[0] / a[1]).unwrap_or(0.0),
            )
            .unwrap();
        assert!((result.raw - 2.0).abs() < 1e-9);
        let audit = s.last_audit().expect("columnar release leaves an audit");
        assert_eq!(audit.query, "mean");
        assert!(audit.stage_nanos("reduce") > 0);
    }

    #[test]
    fn table1_join_flow() {
        let (ctx, mut s) = session(20);
        let left: Vec<(u32, u32)> = (0..400).map(|i| (i % 8, i)).collect();
        let right: Vec<(u32, u32)> = (0..80).map(|i| (i % 8, i)).collect();
        let l = ctx.parallelize(left.clone(), 4);
        let r = ctx.parallelize(right, 2);
        let domain = EmpiricalSampler::new(left);
        let agg = JoinAggregate::count("join_count", |_, _, _| true);
        let result = s.dpread_kv(&l, &domain).join_dp(&r, &agg).unwrap();
        assert_eq!(result.raw, 400.0 * 10.0);
        let audit = s.last_audit().expect("join release leaves an audit");
        assert!(audit.stage_nanos("join_remainder") > 0);
        assert!(audit.stage_nanos("join_differing") > 0);
    }

    #[test]
    fn session_shares_enforcer_history_across_queries() {
        let (ctx, mut s) = session(20);
        let data: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let domain = EmpiricalSampler::new(data);
        let _ = s
            .dpread(&ds, &domain, |x: &f64| x.to_bits())
            .map_dp("count", |_x: &f64| 1.0)
            .reduce_dp(|a, b| a + b)
            .unwrap();
        let _ = s
            .dpread(&ds, &domain, |x: &f64| x.to_bits())
            .map_dp("count", |_x: &f64| 1.0)
            .reduce_dp(|a, b| a + b)
            .unwrap();
        assert_eq!(s.upa().enforcer().history_len(), 2);
        assert_eq!(s.audits().len(), 2);
    }

    #[test]
    fn table1_reduce_by_key_dp_flow() {
        let (ctx, mut s) = session(40);
        // Word-count-style workload over four keys.
        let pairs: Vec<(u8, f64)> = (0..2_000u32).map(|i| ((i % 4) as u8, 1.0)).collect();
        let ds = ctx.parallelize(pairs.clone(), 4);
        let domain = EmpiricalSampler::new(pairs);
        let keyed = s.dpread_kv(&ds, &domain).reduce_by_key_dp(|v| *v).unwrap();
        assert_eq!(keyed.keys(), &[0, 1, 2, 3]);
        assert_eq!(keyed.len(), 4);
        assert!(!keyed.is_empty());
        let result = keyed.result();
        assert_eq!(result.raw, vec![500.0; 4]);
        // Removing one record changes one key's count by 1.
        for s in &result.empirical_sensitivity {
            assert!((s - 1.0).abs() < 1e-9);
        }
        // The session helper disables noise, so the release is the
        // enforced value.
        assert_eq!(result.released, result.enforced);
        // Keyed access agrees with positional access.
        assert_eq!(keyed.get(&2), Some(result.released[2]));
        assert_eq!(keyed.get(&9), None);
        let collected: Vec<(u8, f64)> = keyed.iter().map(|(k, v)| (*k, v)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0].0, 0);
        let (keys, result) = keyed.into_parts();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        assert_eq!(result.raw, vec![500.0; 4]);
    }

    /// `reduce_by_key_dp`'s release with noise on, pinned: the Table I
    /// flow's unit values and a fractional value per record, each key's
    /// released, enforced and sensitivity bits.
    #[test]
    fn reduce_by_key_dp_release_bits_are_pinned() {
        let release = |value: fn(u32) -> f64| {
            let ctx = Context::with_threads(2);
            let mut s = DpSession::new(
                ctx.clone(),
                UpaConfig {
                    sample_size: 40,
                    epsilon: 0.5,
                    seed: 11,
                    ..UpaConfig::default()
                },
            );
            let pairs: Vec<(u8, f64)> = (0..2_000u32).map(|i| ((i % 4) as u8, value(i))).collect();
            let ds = ctx.parallelize(pairs.clone(), 4);
            let domain = EmpiricalSampler::new(pairs);
            let keyed = s.dpread_kv(&ds, &domain).reduce_by_key_dp(|v| *v).unwrap();
            let r = keyed.result();
            (0..4)
                .map(|k| {
                    [
                        r.released[k].to_bits(),
                        r.enforced[k].to_bits(),
                        r.sensitivity[k].to_bits(),
                    ]
                })
                .collect::<Vec<_>>()
        };
        let unit = release(|_| 1.0);
        let fractional = release(|i| f64::from(i % 7) * 0.25);
        let want_unit: Vec<[u64; 3]> = vec![
            [0x407f3868573813d6, 0x407f400000000000, 0x400384e6cbb9f800],
            [0x407f5107705f6553, 0x407f400000000000, 0x40005413b0904b80],
            [0x407f34d676baaa94, 0x407f400000000000, 0x4004cd6212e37b00],
            [0x407f7426f474172a, 0x407f400000000000, 0x40018eafdeed7400],
        ];
        let want_fractional: Vec<[u64; 3]> = vec![
            [0x407757714dfaed87, 0x4077600000000000, 0x4006000000000000],
            [0x40778507a1b0f15a, 0x40776c0000000000, 0x4008000000000000],
            [0x40776c31efd6432c, 0x4077780000000000, 0x4006000000000000],
            [0x4077a95936a254a8, 0x4077680000000000, 0x4006000000000000],
        ];
        assert_eq!(unit, want_unit, "unit: {unit:#018x?}");
        assert_eq!(
            fractional, want_fractional,
            "fractional: {fractional:#018x?}"
        );
    }
}
