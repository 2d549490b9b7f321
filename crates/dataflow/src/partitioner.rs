//! Partitioners: how shuffles route records to reduce-side buckets.
//!
//! Spark exposes the same abstraction (`HashPartitioner` /
//! `RangePartitioner`); here the hash partitioner drives the key-value
//! operators and the range partitioner drives `sort_by_key`.

use std::hash::{Hash, Hasher};

/// The engine's one key hasher: a multiply-rotate word state with a 64-bit
/// finaliser. It has no seed and is defined here rather than by std, so a
/// key hashes to the same value in every run and on every machine, and a
/// Rust upgrade cannot swap the algorithm; shuffle routing, pair-operator
/// tables and joinDP's logical halves all depend on that.
/// Being seedless, it offers no protection against keys crafted to
/// collide, so it hashes only keys that the engine's own inputs produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    state: u64,
}

/// Odd multiplier of the word state (2^64 / φ).
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(WORD_MUL);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // The tail's length sits in the byte that padding leaves zero,
            // so tails that differ only by trailing zeros stay distinct.
            word[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state through murmur3's `fmix64`, so every output bit depends
    /// on every input bit: routing reads the high bits, tables the low.
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The [`WordHasher`] hash of `key`.
pub fn hash_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = WordHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Routes a key to one of `buckets` reduce-side partitions.
pub trait Partitioner<K>: Send + Sync {
    /// The bucket for `key`; must be `< buckets`.
    fn partition(&self, key: &K, buckets: usize) -> usize;
}

/// Deterministic hash partitioning: the bucket is the high bits of
/// `hash_key(key) × buckets`, a multiply-shift in place of `% buckets`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, buckets: usize) -> usize {
        ((u128::from(hash_key(key)) * buckets as u128) >> 64) as usize
    }
}

/// Range partitioning over sorted boundary keys: bucket `i` receives keys
/// in `(boundary[i-1], boundary[i]]`. With `b` boundaries there are
/// `b + 1` buckets; the partitioner ignores the `buckets` argument beyond
/// asserting it is large enough.
#[derive(Debug, Clone)]
pub struct RangePartitioner<K> {
    boundaries: Vec<K>,
}

impl<K: Ord + Clone> RangePartitioner<K> {
    /// Builds a partitioner from **sorted, distinct** boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is not strictly increasing.
    pub fn new(boundaries: Vec<K>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        RangePartitioner { boundaries }
    }

    /// Builds boundaries by sampling `sample` (sorted internally) into
    /// `buckets − 1` quantile points.
    pub fn from_sample(mut sample: Vec<K>, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        sample.sort();
        sample.dedup();
        let mut boundaries = Vec::new();
        if !sample.is_empty() {
            for i in 1..buckets {
                let idx = i * sample.len() / buckets;
                if idx < sample.len() {
                    let candidate = sample[idx].clone();
                    if boundaries.last() != Some(&candidate) {
                        boundaries.push(candidate);
                    }
                }
            }
        }
        RangePartitioner { boundaries }
    }

    /// Number of buckets this partitioner produces.
    pub fn num_buckets(&self) -> usize {
        self.boundaries.len() + 1
    }
}

impl<K: Ord + Clone + Send + Sync> Partitioner<K> for RangePartitioner<K> {
    fn partition(&self, key: &K, buckets: usize) -> usize {
        debug_assert!(buckets >= self.num_buckets(), "not enough buckets");
        match self.boundaries.binary_search(key) {
            Ok(i) => i,
            Err(i) => i,
        }
        .min(buckets - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner;
        for k in 0u64..1_000 {
            let b = p.partition(&k, 7);
            assert!(b < 7);
            assert_eq!(b, p.partition(&k, 7));
        }
    }

    /// Every bucket holds within ±20 % of the mean for 8,000 keys of each
    /// kind: dense, strided (the low bits constant), random, and the
    /// multi-word keys a `String` or a tuple writes.
    #[test]
    fn hash_partitioner_balances_every_key_kind() {
        fn check<K: Hash>(kind: &str, keys: impl Iterator<Item = K> + Clone) {
            for buckets in [7usize, 8] {
                let mut counts = vec![0usize; buckets];
                for k in keys.clone() {
                    counts[HashPartitioner.partition(&k, buckets)] += 1;
                }
                let mean = 8_000.0 / buckets as f64;
                for &c in &counts {
                    assert!(
                        (c as f64 - mean).abs() <= 0.2 * mean,
                        "{kind} keys over {buckets} buckets: {counts:?}"
                    );
                }
            }
        }
        check("sequential", 0u64..8_000);
        check("stride-8", (0u64..8_000).map(|i| i * 8));
        check("stride-32", (0u64..8_000).map(|i| i * 32));
        let mut state = 7u64;
        let random: Vec<u64> = (0..8_000)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 27)
            })
            .collect();
        check("random", random.into_iter());
        check("String", (0..8_000).map(|i| format!("Customer#{i:09}")));
        check("(u64, u8)", (0u64..8_000).map(|i| (i / 4, (i % 4) as u8)));
    }

    /// Routing is part of every shuffle's output order: a change to the
    /// hash or to the bucket choice must edit this table on purpose.
    #[test]
    fn hash_partitioner_routing_is_pinned() {
        let u64s: Vec<usize> = (0u64..12)
            .map(|k| HashPartitioner.partition(&k, 8))
            .collect();
        assert_eq!(u64s, [0, 4, 6, 6, 3, 1, 1, 1, 1, 7, 4, 0]);
        let others = [
            HashPartitioner.partition(&u64::MAX, 8),
            HashPartitioner.partition(&"orders", 8),
            HashPartitioner.partition(&String::from("Customer#000000001"), 8),
            HashPartitioner.partition(&(42u64, 3u8), 8),
        ];
        assert_eq!(others, [6, 1, 6, 3]);
    }

    #[test]
    fn range_partitioner_orders_buckets() {
        let p = RangePartitioner::new(vec![10, 20, 30]);
        assert_eq!(p.num_buckets(), 4);
        assert_eq!(p.partition(&5, 4), 0);
        assert_eq!(p.partition(&10, 4), 0); // boundary inclusive left
        assert_eq!(p.partition(&15, 4), 1);
        assert_eq!(p.partition(&20, 4), 1);
        assert_eq!(p.partition(&25, 4), 2);
        assert_eq!(p.partition(&99, 4), 3);
        // Monotone: larger keys never land in smaller buckets.
        let mut prev = 0;
        for k in 0..100 {
            let b = p.partition(&k, 4);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn from_sample_builds_balanced_boundaries() {
        let sample: Vec<i64> = (0..1_000).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        assert_eq!(p.num_buckets(), 4);
        let mut counts = [0usize; 4];
        for k in 0i64..1_000 {
            counts[p.partition(&k, 4)] += 1;
        }
        for c in counts {
            assert!((150..400).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn from_sample_handles_tiny_samples() {
        let p = RangePartitioner::from_sample(vec![5, 5, 5], 8);
        assert!(p.num_buckets() <= 8);
        assert_eq!(p.partition(&1, 8), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_rejected() {
        let _ = RangePartitioner::new(vec![3, 1]);
    }
}
