//! Key-value (pair) operators: shuffle, `reduce_by_key` and `join` — the
//! wide dependencies of the engine.
//!
//! Every operator here moves data through an explicit two-phase shuffle
//! (map-side bucketing, reduce-side concatenation) that is counted by the
//! context's metrics. A dataset that `join` or `lookup` shuffles keeps its
//! buckets, and each bucket's build-side join index once a join or lookup
//! has probed it, for as long as the dataset lives: a later join of the
//! same dataset records no shuffle and no stage for that side, as Spark
//! skips a shuffle-map stage whose output already exists. The price is one
//! shuffled copy of every joined dataset's records while the dataset is
//! alive. `reduce_by_key` shuffles a fresh, map-side-combined dataset each
//! time and keeps nothing.
//!
//! The paper's Spark `joinDP` (§V-C) runs a shuffle join twice where
//! vanilla execution runs it once, and blames that for TPCH4/TPCH13's
//! overhead of more than 100% in Figure 2(b). UPA's `joinDP` here runs it
//! once: its second round looks its few sampled keys up in the other
//! side's kept join index instead (`upa_core::join`).
//!
//! Routing and every per-task table hash keys with the seedless
//! [`WordHasher`](crate::partitioner::WordHasher), and the tables keep keys
//! in order of first appearance, so an operator's output order is a
//! function of its input alone: the same job collects the same records in
//! the same order on every run. A seedless hash gives no protection against
//! keys crafted to collide. That is acceptable here because pair operators
//! run only on datasets the engine's callers build in process; the serving
//! daemon, which does read keys from the network, never calls them.

use crate::context::Context;
use crate::dataset::{Dataset, PendingRun};
use crate::partitioner::{hash_key, HashPartitioner};
use crate::Data;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// One reduce-side bucket of a shuffled pair dataset.
type Bucket<K, V> = Arc<Vec<(K, V)>>;

/// Hash-partitions a pair dataset into `buckets` reduce-side partitions.
/// One full shuffle: every record is moved and counted. A bucket holds its
/// records in input order.
fn shuffle_by_key<K: Data + Hash, V: Data>(
    ctx: &Context,
    ds: &Dataset<(K, V)>,
    buckets: usize,
) -> Vec<Bucket<K, V>> {
    let total: u64 = ds.len() as u64;
    // Approximate wire size: in-memory record size × records. Heap
    // payloads of variable-size records are not chased, matching how
    // Spark reports shuffle bytes from its serialised buffers.
    let bytes = total * std::mem::size_of::<(K, V)>() as u64;
    ctx.record_shuffle(total, bytes);
    let scan_ns = ctx.scan_cost_ns();
    // Map side: split each partition into per-bucket runs, each allocated
    // at its exact length from a first pass that routes every key once.
    let runs: Vec<Vec<Vec<(K, V)>>> = ctx.run_tasks(
        "shuffle-write",
        ds.partitions().to_vec(),
        move |_i, part: Arc<Vec<(K, V)>>| {
            crate::context::scan_delay(part.len(), scan_ns);
            let targets: Vec<usize> = part
                .iter()
                .map(|(k, _)| HashPartitioner.partition(k, buckets))
                .collect();
            let mut lens = vec![0usize; buckets];
            for &b in &targets {
                lens[b] += 1;
            }
            let mut runs: Vec<Vec<(K, V)>> = lens.into_iter().map(Vec::with_capacity).collect();
            for (kv, &b) in part.iter().zip(&targets) {
                runs[b].push(kv.clone());
            }
            runs
        },
    );
    // Reduce side: bucket `b` takes run `b` of every map output, in map
    // order, and moves them into one buffer of their summed length.
    let mut by_bucket: Vec<Vec<Vec<(K, V)>>> = (0..buckets)
        .map(|_| Vec::with_capacity(runs.len()))
        .collect();
    for map_out in runs {
        for (b, run) in map_out.into_iter().enumerate() {
            by_bucket[b].push(run);
        }
    }
    ctx.run_tasks(
        "shuffle-read",
        by_bucket,
        move |_i, runs: Vec<Vec<(K, V)>>| {
            let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
            for mut run in runs {
                merged.append(&mut run);
            }
            Arc::new(merged)
        },
    )
}

/// Dense ids `0, 1, 2, …` for the distinct keys one task meets, in order
/// of first appearance. An open-addressing table (linear probing, load
/// ≤ ½) of `u64` slots, each the low 32 hash bits above `id + 1`, with 0
/// marking an empty slot; the caller keeps the keys, and `is_key(id)` asks
/// it whether id's key equals the probed one. A probe starts at the low
/// hash bits, which the multiply-shift routing of [`HashPartitioner`]
/// leaves free, since every key in one bucket shares its high bits.
struct KeyIndex {
    slots: Vec<u64>,
    len: usize,
}

impl KeyIndex {
    fn new() -> Self {
        KeyIndex {
            slots: vec![0; 16],
            len: 0,
        }
    }

    /// `Ok` with the id of the key that hashes to `hash` and passes
    /// `is_key`, or `Err` with the fresh id (the number of keys so far)
    /// now assigned to it: the caller stores that key at that id.
    fn find_or_insert(
        &mut self,
        hash: u64,
        is_key: impl Fn(usize) -> bool,
    ) -> Result<usize, usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let pos = match self.probe(hash, is_key) {
            Ok(id) => return Ok(id),
            Err(pos) => pos,
        };
        let id = self.len;
        assert!(id < u32::MAX as usize, "2^32 - 1 distinct keys in one task");
        self.slots[pos] = (hash << 32) | (id as u64 + 1);
        self.len += 1;
        Err(id)
    }

    /// The id of the key that hashes to `hash` and passes `is_key`.
    fn find(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        self.probe(hash, is_key).ok()
    }

    /// `Ok` with the key's id, or `Err` with the empty slot that ends its
    /// probe sequence.
    fn probe(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let tag = hash as u32;
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(pos);
            }
            let id = (slot as u32 - 1) as usize;
            if (slot >> 32) as u32 == tag && is_key(id) {
                return Ok(id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the slots, re-placing each id by the hash bits it holds.
    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut pos = (slot >> 32) as usize & mask;
            while self.slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = slot;
        }
    }
}

/// Folds each key's values with `f`, keys in order of first appearance:
/// the table behind `reduce_by_key`.
fn reduce_pairs<'a, K, V>(
    pairs: impl IntoIterator<Item = &'a (K, V)>,
    f: &impl Fn(&V, &V) -> V,
) -> Vec<(K, V)>
where
    K: Hash + Eq + Clone + 'a,
    V: Clone + 'a,
{
    let mut index = KeyIndex::new();
    let mut entries: Vec<(K, V)> = Vec::new();
    for (k, v) in pairs {
        match index.find_or_insert(hash_key(k), |id| entries[id].0 == *k) {
            Ok(id) => entries[id].1 = f(&entries[id].1, v),
            Err(_) => entries.push((k.clone(), v.clone())),
        }
    }
    entries
}

/// End of a [`JoinIndex`] chain.
const END: usize = usize::MAX;

/// The build side of one bucket's hash join: one [`KeyIndex`] entry per
/// distinct key, with the key's first row, and one `next` link per row
/// that chains the key's rows in bucket order; no key gets a `Vec` of its
/// own. It stores row positions, not keys, so it is read together with
/// the rows it was built from.
struct JoinIndex {
    keys: KeyIndex,
    /// First row per distinct key.
    heads: Vec<usize>,
    next: Vec<usize>,
}

impl JoinIndex {
    fn build<K: Hash + Eq, V>(rows: &[(K, V)]) -> Self {
        let mut heads: Vec<usize> = Vec::new();
        let mut next = vec![END; rows.len()];
        let mut keys = KeyIndex::new();
        // Last to first, each row pushed onto the front of its key's
        // chain, so chains read in bucket order.
        for (at, (k, _)) in rows.iter().enumerate().rev() {
            match keys.find_or_insert(hash_key(k), |id| rows[heads[id]].0 == *k) {
                Ok(id) => {
                    next[at] = heads[id];
                    heads[id] = at;
                }
                Err(_) => heads.push(at),
            }
        }
        JoinIndex { keys, heads, next }
    }

    /// The values of `key` among `rows` (the rows the index was built
    /// from), in their order.
    fn matches<'a, K: Hash + Eq, V>(
        &'a self,
        rows: &'a [(K, V)],
        key: &K,
    ) -> impl Iterator<Item = &'a V> + 'a {
        let first = self
            .keys
            .find(hash_key(key), |id| rows[self.heads[id]].0 == *key)
            .map(|id| self.heads[id]);
        std::iter::successors(first, |&at| Some(self.next[at]).filter(|&n| n != END))
            .map(move |at| &rows[at].1)
    }
}

/// A pair dataset's reduce-side buckets, kept on the dataset after its
/// first shuffle, each with the join index its first probe builds.
pub(crate) struct Shuffled<T> {
    buckets: Vec<Arc<Vec<T>>>,
    indexes: Vec<OnceLock<JoinIndex>>,
}

impl<K: Hash + Eq, V> Shuffled<(K, V)> {
    fn new(buckets: Vec<Bucket<K, V>>) -> Self {
        let indexes = buckets.iter().map(|_| OnceLock::new()).collect();
        Shuffled { buckets, indexes }
    }

    /// Bucket `b`'s join index, built on its first use.
    fn index(&self, b: usize) -> &JoinIndex {
        self.indexes[b].get_or_init(|| JoinIndex::build(&self.buckets[b]))
    }
}

/// `ds` hash-partitioned into the context's shuffle buckets: shuffled on
/// its first call and kept on the dataset, so a later call moves nothing
/// and records no shuffle. A dataset of a context with another bucket
/// count is shuffled afresh and not kept.
fn shuffled<K: Data + Hash + Eq, V: Data>(
    ctx: &Context,
    ds: &Dataset<(K, V)>,
) -> Arc<Shuffled<(K, V)>> {
    let buckets = ctx.shuffle_partitions();
    let shuffle = || Arc::new(Shuffled::new(shuffle_by_key(ctx, ds, buckets)));
    let kept = ds.shuffle_slot().get_or_init(shuffle);
    if kept.buckets.len() == buckets {
        Arc::clone(kept)
    } else {
        shuffle()
    }
}

/// Pair-dataset operators, available on any `Dataset<(K, V)>`.
///
/// Output partition `b` is reduce-side bucket `b`. Within it,
/// `reduce_by_key` lists keys in order of first appearance in the input,
/// and `join` lists `self`'s records in input order, each followed by its
/// matches in `other`'s order.
///
/// This trait is sealed: it exists to attach methods, not to be
/// implemented downstream.
pub trait PairOps<K, V>: private::Sealed {
    /// Merges values per key with a commutative, associative function
    /// (Spark's `reduceByKey`). One shuffle, preceded by a map-side
    /// combine (unless disabled via `Config::map_side_combine`) that
    /// caps shuffle volume at one record per key per map partition.
    fn reduce_by_key(&self, f: impl Fn(&V, &V) -> V + Send + Sync + 'static) -> Dataset<(K, V)>;

    /// Inner hash join on the key (Spark's `join`). Shuffles each side
    /// now unless an earlier join or lookup already did; the per-bucket
    /// hash join is lazy, the base of a pending chain that the narrow ops
    /// after it fuse into (`fused[join→filter]`), so its joined tuples
    /// are never materialised on their own. It probes `other`'s kept join
    /// index, built by the first join that probes each bucket.
    fn join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))>;

    /// Visits the values of `key` in partition order: the rows a join
    /// with this dataset as `other` matches for `key` (Spark's `lookup`,
    /// as a visitor). Shares `join`'s kept buckets and index, so looking
    /// keys up in a dataset that a join has used moves and scans nothing;
    /// otherwise the first lookup shuffles the dataset and each bucket's
    /// first probe builds its index.
    fn lookup(&self, key: &K, visit: impl FnMut(&V));

    /// The keys, in partition order (narrow).
    fn keys(&self) -> Dataset<K>;

    /// The values, in partition order (narrow).
    fn values(&self) -> Dataset<V>;

    /// Collects into a `HashMap`, later duplicates of a key winning. This
    /// is the engine's "broadcast" primitive: UPA and the TPC-H queries
    /// build map-side join tables with it.
    fn collect_as_map(&self) -> HashMap<K, V>
    where
        K: Hash + Eq;
}

mod private {
    pub trait Sealed {}
    impl<K, V> Sealed for crate::dataset::Dataset<(K, V)> {}
}

impl<K: Data + Hash + Eq, V: Data> PairOps<K, V> for Dataset<(K, V)> {
    fn reduce_by_key(&self, f: impl Fn(&V, &V) -> V + Send + Sync + 'static) -> Dataset<(K, V)> {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        let f = Arc::new(f);
        // Map-side combine (Spark's combiner): pre-reduce per key inside
        // each map partition, so the shuffle moves at most one record per
        // (map partition, key) instead of every input record. The combine
        // is a narrow per-partition pass, so it fuses with any pending
        // upstream chain and adds no stage of its own.
        let pre = if ctx.map_side_combine() {
            let fc = Arc::clone(&f);
            self.map_partitions(move |part: &[(K, V)]| reduce_pairs(part, &*fc))
        } else {
            self.clone()
        };
        let shuffled = shuffle_by_key(&ctx, &pre, buckets);
        let parts = ctx.run_tasks(
            "reduce_by_key",
            shuffled,
            move |_i, part: Arc<Vec<(K, V)>>| Arc::new(reduce_pairs(part.iter(), &*f)),
        );
        Dataset::from_parts(ctx, parts)
    }

    fn join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))> {
        let ctx = self.ctx().clone();
        // Both sides hash-partition with the same function, so matching
        // keys land in the same bucket index.
        let left = shuffled(&ctx, self);
        let right = shuffled(&ctx, other);
        // A bucket's join scans its left side, and its right side too
        // while that side has no join index yet.
        let scanned = (0..left.buckets.len())
            .map(|b| match right.indexes[b].get() {
                Some(_) => left.buckets[b].len(),
                None => left.buckets[b].len() + right.buckets[b].len(),
            })
            .collect();
        // `self`'s rows in bucket order, each followed by its matches in
        // `other`'s.
        let run: PendingRun<(K, (V, W))> = Arc::new(move |b, sink| {
            let (rows, index) = (&right.buckets[b], right.index(b));
            for (k, v) in left.buckets[b].iter() {
                for w in index.matches(rows, k) {
                    sink((k.clone(), (v.clone(), w.clone())));
                }
            }
        });
        Dataset::from_run(ctx, "join", scanned, run)
    }

    fn lookup(&self, key: &K, visit: impl FnMut(&V)) {
        let shuffled = shuffled(self.ctx(), self);
        let b = HashPartitioner.partition(key, shuffled.buckets.len());
        let rows = &shuffled.buckets[b];
        shuffled.index(b).matches(rows, key).for_each(visit);
    }

    fn keys(&self) -> Dataset<K> {
        self.map(|(k, _)| k.clone())
    }

    fn values(&self) -> Dataset<V> {
        self.map(|(_, v)| v.clone())
    }

    fn collect_as_map(&self) -> HashMap<K, V>
    where
        K: Hash + Eq,
    {
        self.collect().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;

    fn ctx() -> Context {
        Context::with_threads(4)
    }

    #[test]
    fn reduce_by_key_sums_per_key() {
        let c = ctx();
        let ds = c.parallelize(
            vec![("a", 1), ("b", 10), ("a", 2), ("c", 100), ("b", 20)],
            3,
        );
        let mut out = ds.reduce_by_key(|x, y| x + y).collect();
        out.sort();
        assert_eq!(out, vec![("a", 3), ("b", 30), ("c", 100)]);
    }

    #[test]
    fn reduce_by_key_counts_one_shuffle_of_combined_records() {
        let c = ctx();
        let ds = c.parallelize(vec![(1, 1); 100], 4);
        c.reset_metrics();
        let out = ds.reduce_by_key(|a, b| a + b).collect();
        let m = c.metrics();
        assert_eq!(m.shuffles, 1);
        // Map-side combine collapses each partition's 25 copies of key 1
        // into one record, so only one record per map partition moves.
        assert_eq!(m.shuffle_records, 4);
        assert_eq!(out, vec![(1, 100)]);
    }

    #[test]
    fn reduce_by_key_without_combine_shuffles_every_record() {
        let c = Context::new(crate::Config {
            threads: 4,
            map_side_combine: false,
            ..crate::Config::default()
        });
        let ds = c.parallelize(vec![(1, 1); 100], 4);
        c.reset_metrics();
        let out = ds.reduce_by_key(|a, b| a + b).collect();
        let m = c.metrics();
        assert_eq!(m.shuffles, 1);
        assert_eq!(m.shuffle_records, 100);
        assert_eq!(out, vec![(1, 100)]);
    }

    #[test]
    fn combine_matches_naive_path() {
        let combined = ctx();
        let naive = Context::new(crate::Config {
            threads: 4,
            map_side_combine: false,
            ..crate::Config::default()
        });
        let data: Vec<(u32, i64)> = (0..1000).map(|i| (i % 17, i as i64)).collect();
        let mut a = combined
            .parallelize(data.clone(), 6)
            .reduce_by_key(|x, y| x + y)
            .collect();
        let mut b = naive
            .parallelize(data, 6)
            .reduce_by_key(|x, y| x + y)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn combine_fuses_with_upstream_narrow_chain() {
        let c = ctx();
        let ds = c.parallelize((0..200u32).collect::<Vec<u32>>(), 4);
        c.reset_metrics();
        let out = ds
            .map(|x| (x % 3, u64::from(*x)))
            .reduce_by_key(|a, b| a + b)
            .collect_as_map();
        let m = c.metrics();
        // map → combine fuse into one stage; the shuffle adds its
        // write/read pair and the reduce side one more.
        assert_eq!(m.stages, 4, "map+combine must not run separate stages");
        assert!(
            m.shuffle_records <= 3 * 4,
            "at most one record per key per map partition, got {}",
            m.shuffle_records
        );
        assert_eq!(out[&0], (0..200u64).filter(|x| x % 3 == 0).sum::<u64>());
    }

    /// The same job collects the same records in the same order: twice on
    /// one context, and once more on a second context.
    #[test]
    fn pair_operator_output_order_is_reproducible() {
        #[allow(clippy::type_complexity)]
        fn run(c: &Context) -> (Vec<(u64, f64)>, Vec<(u64, (f64, u32))>) {
            let pairs: Vec<(u64, f64)> = (0..20_000u64)
                .map(|i| ((i * 7_919) % 97, i as f64 * 0.5))
                .collect();
            let ds = c.parallelize(pairs, 4);
            let other = c.parallelize((0..300u32).map(|i| (u64::from(i % 131), i)).collect(), 3);
            (
                ds.reduce_by_key(|a, b| a + b).collect(),
                ds.join(&other).collect(),
            )
        }
        let c = ctx();
        let first = run(&c);
        assert_eq!(first.0.len(), 97);
        assert_eq!(run(&c), first, "second run on one context");
        assert_eq!(run(&ctx()), first, "run on a second context");
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let c = ctx();
        let left: Vec<(u32, i64)> = (0..200).map(|i| (i % 10, i as i64)).collect();
        let right: Vec<(u32, char)> = (0..30)
            .map(|i| (i % 15, (b'a' + (i % 26) as u8) as char))
            .collect();
        let l = c.parallelize(left.clone(), 5);
        let r = c.parallelize(right.clone(), 3);
        let mut got = l.join(&r).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut want: Vec<(u32, (i64, char))> = Vec::new();
        for (k1, v) in &left {
            for (k2, w) in &right {
                if k1 == k2 {
                    want.push((*k1, (*v, *w)));
                }
            }
        }
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn join_counts_two_shuffles() {
        let c = ctx();
        let l = c.parallelize(vec![(1, 1); 50], 2);
        let r = c.parallelize(vec![(1, 2); 30], 2);
        c.reset_metrics();
        let _ = l.join(&r).collect();
        let m = c.metrics();
        assert_eq!(m.shuffles, 2, "a join shuffles both inputs");
        assert_eq!(m.shuffle_records, 80);
    }

    /// A join of two datasets that an earlier join shuffled moves nothing
    /// and runs only its bucket stage, yet lists the same records in the
    /// same order.
    #[test]
    fn second_join_reuses_both_shuffles() {
        let c = ctx();
        let l = c.parallelize((0..500u32).map(|i| (i % 37, i)).collect(), 3);
        let r = c
            .parallelize((0..90u32).map(|i| (i % 41, f64::from(i))).collect(), 2)
            .map(|kv| *kv);
        c.reset_metrics();
        let first = l.join(&r).collect();
        assert_eq!(c.metrics().shuffles, 2);
        c.reset_metrics();
        let second = l.join(&r).collect();
        let m = c.metrics();
        assert_eq!((m.shuffles, m.shuffle_records, m.shuffle_bytes), (0, 0, 0));
        assert_eq!(m.stages, 1, "only the join's bucket stage runs");
        assert_eq!(second, first);
        // Joined the other way round, both sides are reused too.
        c.reset_metrics();
        assert_eq!(r.join(&l).count(), first.len() as u64);
        assert_eq!(c.metrics().shuffles, 0);
    }

    /// `lookup` visits a key's values in the order a join lists its
    /// matches, and shuffles a dataset no join has used exactly once.
    #[test]
    fn lookup_visits_join_matches_in_order() {
        let c = ctx();
        let r = c.parallelize((0..300u32).map(|i| (i % 13, i)).collect(), 4);
        c.reset_metrics();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for k in [5, 0, 99, 5] {
            r.lookup(&k, |&w| seen.push((k, w)));
        }
        let m = c.metrics();
        assert_eq!((m.shuffles, m.shuffle_records), (1, 300));
        let want: Vec<(u32, u32)> = [5, 0, 99, 5]
            .iter()
            .flat_map(|&k| {
                (0..300u32)
                    .filter(move |i| i % 13 == k)
                    .map(move |w| (k, w))
            })
            .collect();
        assert_eq!(seen, want);
        // A join probes the index the lookups built.
        let probes = c.parallelize(vec![(5u32, ()), (0, ()), (99, ()), (5, ())], 1);
        c.reset_metrics();
        assert_eq!(probes.join(&r).count(), seen.len() as u64);
        assert_eq!(c.metrics().shuffles, 1, "only `probes` is shuffled");
    }

    /// The join's bucket work, the narrow ops after it and the action
    /// that ends the chain run as one stage, and the shuffle-time share
    /// still counts it.
    #[test]
    fn join_fuses_with_following_narrow_ops() {
        let c = ctx();
        let l = c.parallelize((0..60u32).map(|i| (i % 7, i)).collect(), 3);
        let r = c.parallelize((0..20u32).map(|i| (i % 5, i)).collect(), 2);
        c.reset_metrics();
        let n = l.join(&r).filter(|(_, (v, w))| v > w).count();
        let want = (0..60u32)
            .flat_map(|v| (0..20u32).map(move |w| (v, w)))
            .filter(|(v, w)| v % 7 == w % 5 && v > w)
            .count();
        assert_eq!(n, want as u64);
        let mut names: Vec<String> = c.stage_times().into_keys().collect();
        names.sort();
        assert_eq!(
            names,
            ["fused[join→filter]", "shuffle-read", "shuffle-write"]
        );
        assert!(c.shuffle_time_share() > 0.0);
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let c = ctx();
        let l = c.parallelize(vec![(1, "a")], 1);
        let r = c.parallelize(vec![(2, "b")], 1);
        assert!(l.join(&r).is_empty());
    }

    #[test]
    fn keys_and_values() {
        let c = ctx();
        let ds = c.parallelize(vec![(1, 10), (2, 20)], 1);
        assert_eq!(ds.keys().collect(), vec![1, 2]);
        assert_eq!(ds.values().collect(), vec![10, 20]);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let c = ctx();
        let data: Vec<(u64, u64)> = (0..1000).map(|i| (i % 97, i)).collect();
        let ds = c.parallelize(data, 8);
        let a = shuffle_by_key(&c, &ds, 4);
        let b = shuffle_by_key(&c, &ds, 4);
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let c = ctx();
        let data: Vec<(u8, u32)> = (0..500u32).map(|i| ((i % 7) as u8, i)).collect();
        let ds = c.parallelize(data.clone(), 6);
        let shuffled = shuffle_by_key(&c, &ds, 3);
        let mut flat: Vec<(u8, u32)> = shuffled.iter().flat_map(|p| p.iter().cloned()).collect();
        flat.sort();
        let mut want = data;
        want.sort();
        assert_eq!(flat, want);
    }

    #[test]
    fn keys_colocate_in_one_bucket() {
        let c = ctx();
        let data: Vec<(u8, u32)> = (0..100u32).map(|i| ((i % 5) as u8, i)).collect();
        let ds = c.parallelize(data, 4);
        let shuffled = shuffle_by_key(&c, &ds, 3);
        // Every key must appear in exactly one bucket.
        for key in 0u8..5 {
            let holding: usize = shuffled
                .iter()
                .filter(|p| p.iter().any(|(k, _)| *k == key))
                .count();
            assert_eq!(holding, 1, "key {key} split across buckets");
        }
    }
}
