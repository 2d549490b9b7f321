//! How shuffles route records to reduce-side buckets: Spark's
//! `HashPartitioner`, over the engine's one key hasher.

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

/// Deterministic hash partitioning: the bucket is the high bits of
/// `hash_key(key) × buckets`, a multiply-shift in place of `% buckets`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The bucket for `key`, one of `0..buckets`.
    pub fn partition<K: Hash>(&self, key: &K, buckets: usize) -> usize {
        ((u128::from(hash_key(key)) * buckets as u128) >> 64) as usize
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
}
