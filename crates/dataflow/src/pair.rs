//! Key-value (pair) operators: shuffle, `reduce_by_key`, `group_by_key`,
//! `join` — the wide dependencies of the engine.
//!
//! Every operator here moves data through an explicit two-phase shuffle
//! (map-side bucketing, reduce-side concatenation) that is counted by the
//! context's metrics. UPA's `joinDP` triggers this shuffle **twice** per
//! join where vanilla execution triggers it once (paper §V-C), which is the
//! mechanism behind the >100% overhead of TPCH4/TPCH13 in Figure 2(b).
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
use crate::dataset::Dataset;
use crate::lineage::Lineage;
use crate::partitioner::{hash_key, HashPartitioner, Partitioner, RangePartitioner};
use crate::Data;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One reduce-side bucket of a shuffled pair dataset.
type Bucket<K, V> = Arc<Vec<(K, V)>>;

/// Hash-partitions a pair dataset into `buckets` reduce-side partitions.
/// One full shuffle: every record is moved and counted.
pub(crate) fn shuffle_by_key<K: Data + Hash + Eq, V: Data>(
    ctx: &Context,
    ds: &Dataset<(K, V)>,
    buckets: usize,
) -> Vec<Bucket<K, V>> {
    shuffle_with(ctx, ds, buckets, Arc::new(HashPartitioner))
}

/// Shuffles a pair dataset into `buckets` reduce-side partitions using an
/// arbitrary [`Partitioner`]. One full shuffle: every record is moved and
/// counted. A bucket holds its records in input order.
pub(crate) fn shuffle_with<K: Data, V: Data, P: Partitioner<K> + 'static>(
    ctx: &Context,
    ds: &Dataset<(K, V)>,
    buckets: usize,
    partitioner: Arc<P>,
) -> Vec<Arc<Vec<(K, V)>>> {
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
                .map(|(k, _)| partitioner.partition(k, buckets))
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

/// One state per distinct key, in order of the key's first appearance:
/// the table behind `reduce_by_key`, `group_by_key` and `cogroup`.
struct Groups<K, S> {
    index: KeyIndex,
    entries: Vec<(K, S)>,
}

impl<K: Hash + Eq + Clone, S> Groups<K, S> {
    fn new() -> Self {
        Groups {
            index: KeyIndex::new(),
            entries: Vec::new(),
        }
    }

    /// Applies `merge` to `key`'s state, or starts it with `init` when
    /// `key` is new.
    fn upsert(&mut self, key: &K, init: impl FnOnce() -> S, merge: impl FnOnce(&mut S)) {
        let entries = &self.entries;
        match self
            .index
            .find_or_insert(hash_key(key), |id| entries[id].0 == *key)
        {
            Ok(id) => merge(&mut self.entries[id].1),
            Err(_) => self.entries.push((key.clone(), init())),
        }
    }
}

/// Folds each key's values with `f`, keys in order of first appearance.
fn reduce_pairs<'a, K, V>(
    pairs: impl IntoIterator<Item = &'a (K, V)>,
    f: &impl Fn(&V, &V) -> V,
) -> Vec<(K, V)>
where
    K: Hash + Eq + Clone + 'a,
    V: Clone + 'a,
{
    let mut groups = Groups::new();
    for (k, v) in pairs {
        groups.upsert(k, || v.clone(), |acc| *acc = f(acc, v));
    }
    groups.entries
}

/// Hash-joins one bucket pair: `left`'s rows in order, each followed by
/// its matches in `right`'s order, and, when `outer`, once with `None`
/// when it has none. `row` builds an output record from a left row and
/// its match.
///
/// The table over `right` holds one index entry per distinct key, with
/// the key's first row and row count, and one `next` link per row that
/// chains the key's rows in build order; no key gets a `Vec` of its own.
fn hash_join<K: Hash + Eq, V, W, O>(
    left: &[(K, V)],
    right: &[(K, W)],
    outer: bool,
    row: impl Fn(&K, &V, Option<&W>) -> O,
) -> Vec<O> {
    const END: usize = usize::MAX;
    // (first row, rows) per distinct key.
    let mut chains: Vec<(usize, usize)> = Vec::new();
    let mut next = vec![END; right.len()];
    let mut index = KeyIndex::new();
    // Last to first, each row pushed onto the front of its key's chain,
    // so chains read in build order.
    for (at, (k, _)) in right.iter().enumerate().rev() {
        match index.find_or_insert(hash_key(k), |id| right[chains[id].0].0 == *k) {
            Ok(id) => {
                next[at] = chains[id].0;
                chains[id] = (at, chains[id].1 + 1);
            }
            Err(_) => chains.push((at, 1)),
        }
    }
    let found: Vec<Option<(usize, usize)>> = left
        .iter()
        .map(|(k, _)| {
            let id = index.find(hash_key(k), |id| right[chains[id].0].0 == *k)?;
            Some(chains[id])
        })
        .collect();
    let unmatched = usize::from(outer);
    let mut out = Vec::with_capacity(found.iter().map(|c| c.map_or(unmatched, |c| c.1)).sum());
    for ((k, v), chain) in left.iter().zip(found) {
        match chain {
            Some((first, _)) => {
                let rows =
                    std::iter::successors(Some(first), |&at| Some(next[at]).filter(|&n| n != END));
                out.extend(rows.map(|at| row(k, v, Some(&right[at].1))));
            }
            None if outer => out.push(row(k, v, None)),
            None => {}
        }
    }
    out
}

/// Pair-dataset operators, available on any `Dataset<(K, V)>`.
///
/// Output partition `b` is reduce-side bucket `b`. Within it, the grouping
/// operators list keys in order of first appearance in the input (for
/// `cogroup`, `self` and then `other`), and the joins list `self`'s
/// records in input order, each followed by its matches in `other`'s
/// order.
///
/// This trait is sealed: it exists to attach methods, not to be
/// implemented downstream.
pub trait PairOps<K, V>: private::Sealed {
    /// Merges values per key with a commutative, associative function
    /// (Spark's `reduceByKey`). One shuffle, preceded by a map-side
    /// combine (unless disabled via `Config::map_side_combine`) that
    /// caps shuffle volume at one record per key per map partition.
    fn reduce_by_key(&self, f: impl Fn(&V, &V) -> V + Send + Sync + 'static) -> Dataset<(K, V)>;

    /// Groups all values per key (Spark's `groupByKey`). One shuffle.
    fn group_by_key(&self) -> Dataset<(K, Vec<V>)>;

    /// Inner hash join on the key (Spark's `join`). Shuffles both sides.
    fn join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))>;

    /// Left outer hash join: every left record appears once per match, or
    /// once with `None` when unmatched. Shuffles both sides.
    fn left_outer_join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, Option<W>))>;

    /// Groups both sides by key (Spark's `cogroup`). Shuffles both sides.
    #[allow(clippy::type_complexity)]
    fn cogroup<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (Vec<V>, Vec<W>))>;

    /// Globally sorts by key via range partitioning: output partitions
    /// are key-ordered and each partition is sorted (Spark's
    /// `sortByKey`). One shuffle.
    fn sort_by_key(&self) -> Dataset<(K, V)>
    where
        K: Ord;

    /// Number of records per key. One shuffle.
    fn count_by_key(&self) -> Dataset<(K, u64)>;

    /// Applies `f` to every value, keeping keys (narrow).
    fn map_values<U: Data>(&self, f: impl Fn(&V) -> U + Send + Sync + 'static) -> Dataset<(K, U)>;

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
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived("reduce_by_key", Arc::clone(pre.lineage())),
        )
    }

    fn group_by_key(&self) -> Dataset<(K, Vec<V>)> {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        let shuffled = shuffle_by_key(&ctx, self, buckets);
        let parts = ctx.run_tasks(
            "group_by_key",
            shuffled,
            move |_i, part: Arc<Vec<(K, V)>>| {
                let mut groups = Groups::new();
                for (k, v) in part.iter() {
                    groups.upsert(k, || vec![v.clone()], |vs| vs.push(v.clone()));
                }
                Arc::new(groups.entries)
            },
        );
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived("group_by_key", Arc::clone(self.lineage())),
        )
    }

    fn join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))> {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        // Both sides hash-partition with the same function, so matching
        // keys land in the same bucket index.
        let left = shuffle_by_key(&ctx, self, buckets);
        let right = shuffle_by_key(&ctx, other, buckets);
        let inputs: Vec<(Bucket<K, V>, Bucket<K, W>)> = left.into_iter().zip(right).collect();
        let parts = ctx.run_tasks(
            "join",
            inputs,
            move |_i, (l, r): (Bucket<K, V>, Bucket<K, W>)| {
                Arc::new(hash_join(&l, &r, false, |k, v, w| {
                    let w = w.expect("an inner join emits matched rows only");
                    (k.clone(), (v.clone(), w.clone()))
                }))
            },
        );
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived_multi(
                "join",
                vec![Arc::clone(self.lineage()), Arc::clone(other.lineage())],
            ),
        )
    }

    fn left_outer_join<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, Option<W>))> {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        let left = shuffle_by_key(&ctx, self, buckets);
        let right = shuffle_by_key(&ctx, other, buckets);
        let inputs: Vec<(Bucket<K, V>, Bucket<K, W>)> = left.into_iter().zip(right).collect();
        let parts = ctx.run_tasks(
            "left_outer_join",
            inputs,
            move |_i, (l, r): (Bucket<K, V>, Bucket<K, W>)| {
                Arc::new(hash_join(&l, &r, true, |k, v, w| {
                    (k.clone(), (v.clone(), w.cloned()))
                }))
            },
        );
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived_multi(
                "left_outer_join",
                vec![Arc::clone(self.lineage()), Arc::clone(other.lineage())],
            ),
        )
    }

    fn cogroup<W: Data>(&self, other: &Dataset<(K, W)>) -> Dataset<(K, (Vec<V>, Vec<W>))> {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        let left = shuffle_by_key(&ctx, self, buckets);
        let right = shuffle_by_key(&ctx, other, buckets);
        let inputs: Vec<(Bucket<K, V>, Bucket<K, W>)> = left.into_iter().zip(right).collect();
        let parts = ctx.run_tasks(
            "cogroup",
            inputs,
            move |_i, (l, r): (Bucket<K, V>, Bucket<K, W>)| {
                let mut groups = Groups::new();
                for (k, v) in l.iter() {
                    groups.upsert(k, || (vec![v.clone()], Vec::new()), |g| g.0.push(v.clone()));
                }
                for (k, w) in r.iter() {
                    groups.upsert(k, || (Vec::new(), vec![w.clone()]), |g| g.1.push(w.clone()));
                }
                Arc::new(groups.entries)
            },
        );
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived_multi(
                "cogroup",
                vec![Arc::clone(self.lineage()), Arc::clone(other.lineage())],
            ),
        )
    }

    fn sort_by_key(&self) -> Dataset<(K, V)>
    where
        K: Ord,
    {
        let ctx = self.ctx().clone();
        let buckets = ctx.shuffle_partitions();
        // Sample up to 32 keys per partition to build range boundaries.
        let sample: Vec<K> = self
            .map_partitions(|part| part.iter().take(32).map(|(k, _)| k.clone()).collect())
            .collect();
        let partitioner = Arc::new(RangePartitioner::from_sample(sample, buckets));
        let shuffled = shuffle_with(&ctx, self, buckets, partitioner);
        let parts = ctx.run_tasks(
            "sort_by_key",
            shuffled,
            move |_i, part: Arc<Vec<(K, V)>>| {
                let mut sorted: Vec<(K, V)> = part.to_vec();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Arc::new(sorted)
            },
        );
        Dataset::from_parts(
            ctx,
            parts,
            Lineage::derived("sort_by_key", Arc::clone(self.lineage())),
        )
    }

    fn count_by_key(&self) -> Dataset<(K, u64)> {
        self.map_values(|_| 1u64).reduce_by_key(|a, b| a + b)
    }

    fn map_values<U: Data>(&self, f: impl Fn(&V) -> U + Send + Sync + 'static) -> Dataset<(K, U)> {
        self.map(move |(k, v)| (k.clone(), f(v)))
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
        fn run(
            c: &Context,
        ) -> (
            Vec<(u64, f64)>,
            Vec<(u64, Vec<f64>)>,
            Vec<(u64, (Vec<f64>, Vec<u32>))>,
        ) {
            let pairs: Vec<(u64, f64)> = (0..20_000u64)
                .map(|i| ((i * 7_919) % 97, i as f64 * 0.5))
                .collect();
            let ds = c.parallelize(pairs, 4);
            let other = c.parallelize((0..300u32).map(|i| (u64::from(i % 131), i)).collect(), 3);
            (
                ds.reduce_by_key(|a, b| a + b).collect(),
                ds.group_by_key().collect(),
                ds.cogroup(&other).collect(),
            )
        }
        let c = ctx();
        let first = run(&c);
        assert_eq!(first.0.len(), 97);
        assert_eq!(run(&c), first, "second run on one context");
        assert_eq!(run(&ctx()), first, "run on a second context");
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let c = ctx();
        let ds = c.parallelize(vec![(1, "x"), (2, "y"), (1, "z")], 2);
        let grouped = ds.group_by_key().collect_as_map();
        let mut ones = grouped[&1].clone();
        ones.sort();
        assert_eq!(ones, vec!["x", "z"]);
        assert_eq!(grouped[&2], vec!["y"]);
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

    #[test]
    fn join_with_no_matches_is_empty() {
        let c = ctx();
        let l = c.parallelize(vec![(1, "a")], 1);
        let r = c.parallelize(vec![(2, "b")], 1);
        assert!(l.join(&r).is_empty());
    }

    #[test]
    fn count_by_key_matches_manual() {
        let c = ctx();
        let ds = c.parallelize(vec![("x", ()), ("y", ()), ("x", ()), ("x", ())], 2);
        let counts = ds.count_by_key().collect_as_map();
        assert_eq!(counts["x"], 3);
        assert_eq!(counts["y"], 1);
    }

    #[test]
    fn keys_values_map_values() {
        let c = ctx();
        let ds = c.parallelize(vec![(1, 10), (2, 20)], 1);
        assert_eq!(ds.keys().collect(), vec![1, 2]);
        assert_eq!(ds.values().collect(), vec![10, 20]);
        assert_eq!(ds.map_values(|v| v + 1).collect(), vec![(1, 11), (2, 21)]);
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

    #[test]
    fn left_outer_join_keeps_unmatched_left() {
        let c = ctx();
        let l = c.parallelize(vec![(1, "a"), (2, "b"), (3, "c")], 2);
        let r = c.parallelize(vec![(1, 10), (1, 11), (3, 30)], 2);
        let mut got = l.left_outer_join(&r).collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (1, ("a", Some(10))),
                (1, ("a", Some(11))),
                (2, ("b", None)),
                (3, ("c", Some(30))),
            ]
        );
    }

    #[test]
    fn cogroup_collects_both_sides() {
        let c = ctx();
        let l = c.parallelize(vec![(1, "x"), (2, "y"), (1, "z")], 2);
        let r = c.parallelize(vec![(1, 100), (3, 300)], 2);
        let grouped = l.cogroup(&r).collect_as_map();
        let (mut vs, ws) = grouped[&1].clone();
        vs.sort();
        assert_eq!(vs, vec!["x", "z"]);
        assert_eq!(ws, vec![100]);
        assert_eq!(grouped[&2], (vec!["y"], vec![]));
        assert_eq!(grouped[&3], (vec![], vec![300]));
    }

    #[test]
    fn sort_by_key_globally_orders() {
        let c = ctx();
        let data: Vec<(i64, u32)> = (0..2_000u32)
            .map(|i| (((i * 7919) % 997) as i64, i))
            .collect();
        let ds = c.parallelize(data.clone(), 8);
        let sorted = ds.sort_by_key().collect();
        assert_eq!(sorted.len(), data.len());
        // Keys are globally nondecreasing in partition order.
        for w in sorted.windows(2) {
            assert!(w[0].0 <= w[1].0, "not sorted: {:?} then {:?}", w[0], w[1]);
        }
        // Same multiset.
        let mut got = sorted;
        got.sort();
        let mut want = data;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_by_key_handles_duplicates_and_small_inputs() {
        let c = ctx();
        let ds = c.parallelize(vec![(5, 'a'), (5, 'b'), (1, 'c')], 2);
        let sorted = ds.sort_by_key().collect();
        assert_eq!(sorted[0].0, 1);
        assert_eq!(sorted.len(), 3);
        let empty = c.parallelize(Vec::<(i32, i32)>::new(), 2);
        assert!(empty.sort_by_key().is_empty());
    }
}
