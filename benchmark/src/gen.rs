//! Seeded input generation: the program under test only ever sees what
//! these functions produce from `--seed`.

use crate::stats::fnv1a64;

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on stream `stream` (one stream per purpose,
    /// so adding a consumer never shifts another's draws).
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n` far below 2^32, so the multiply-shift bias
    /// is under 2^-32).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The exact aggregates of one generated column, which the correctness
/// checks compare medians of released values against. The values
/// themselves go to the store and are not kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Rows in the column.
    pub rows: usize,
    /// Exact sum, accumulated in row order.
    pub sum: f64,
}

impl Exact {
    /// Of `values`.
    pub fn of(values: &[f64]) -> Exact {
        Exact {
            rows: values.len(),
            sum: values.iter().sum(),
        }
    }

    /// Exact mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.rows as f64
    }
}

/// Generates `columns` named columns (`c0`, `c1`, …) of `rows` values,
/// column `j` uniform on `[0, 100·(j+1))` with full 53-bit mantissas: the
/// served queries split records into RANGE ENFORCER's two logical halves
/// by the lowest mantissa bit, which round numbers would leave all in one
/// half.
pub fn dataset(seed: u64, stream: u64, rows: usize, columns: usize) -> Vec<(String, Vec<f64>)> {
    (0..columns)
        .map(|j| {
            let mut rng = SplitMix64::new(seed, stream * 64 + j as u64);
            let width = 100.0 * (j + 1) as f64;
            let values = (0..rows).map(|_| rng.unit() * width).collect();
            (format!("c{j}"), values)
        })
        .collect()
}

/// How a client picks its next key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyChoice {
    /// Uniform over the keys.
    Uniform,
    /// Each of `clients` clients walks its own contiguous share of the
    /// keys in order, so no two clients ever ask for the same key.
    Cyclic {
        /// Number of clients the keys are shared out among.
        clients: usize,
    },
    /// Zipf with exponent `s`: every sequence holds each key exactly as
    /// often as its rank's probability says (largest remainders make up
    /// the total), in an order shuffled from the seed. Which key has
    /// which rank is a fixed stride over the keys, so the hot keys spread
    /// over datasets and aggregates the same way for every seed: the seed
    /// moves the order of the requests and the data, not the mix.
    Zipf {
        /// The exponent.
        s: f64,
    },
}

/// The key holding popularity rank `rank` (0 = hottest): a stride coprime
/// to `keys`, so consecutive ranks land on different columns and datasets.
fn key_of_rank(rank: usize, keys: usize) -> u32 {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let stride = [29, 31, 37, 41, 1]
        .into_iter()
        .find(|&m| gcd(m, keys) == 1)
        .expect("1 is coprime to everything");
    ((rank * stride) % keys) as u32
}

/// How often each rank appears among `ops` draws of Zipf(`s`) over `keys`
/// ranks: the floor of the expectation, plus one for the largest
/// remainders until the counts add up to `ops`.
fn zipf_counts(keys: usize, ops: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / total * ops as f64).collect();
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder.sort_by(|&a, &b| {
        (expected[b] - expected[b].floor()).total_cmp(&(expected[a] - expected[a].floor()))
    });
    let short = ops - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        counts[rank] += 1;
    }
    counts
}

/// The key index sequence of one client in one trial: `ops` draws from
/// `keys` keys. A pure function of its arguments.
pub fn key_sequence(
    seed: u64,
    trial: usize,
    client: usize,
    keys: usize,
    ops: usize,
    choice: KeyChoice,
) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed, 0x5E9 + (trial * 64 + client) as u64);
    match choice {
        KeyChoice::Uniform => (0..ops).map(|_| rng.below(keys) as u32).collect(),
        KeyChoice::Cyclic { clients } => {
            let share = keys / clients;
            (0..ops)
                .map(|i| (client * share + i % share) as u32)
                .collect()
        }
        KeyChoice::Zipf { s } => {
            let mut sequence: Vec<u32> = zipf_counts(keys, ops, s)
                .into_iter()
                .enumerate()
                .flat_map(|(rank, count)| std::iter::repeat_n(key_of_rank(rank, keys), count))
                .collect();
            for i in (1..sequence.len()).rev() {
                sequence.swap(i, rng.below(i + 1));
            }
            sequence
        }
    }
}

/// FNV-1a over every client's sequence in client order — reported as
/// `workload.sequence_fnv`, identical across runs of one seed.
pub fn sequence_fnv(sequences: &[Vec<u32>]) -> u64 {
    fnv1a64(
        sequences
            .iter()
            .flat_map(|s| s.iter().flat_map(|k| k.to_le_bytes())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_pure_functions_of_the_seed() {
        for choice in [
            KeyChoice::Uniform,
            KeyChoice::Cyclic { clients: 2 },
            KeyChoice::Zipf { s: 1.1 },
        ] {
            let a = key_sequence(7, 0, 1, 48, 500, choice);
            let b = key_sequence(7, 0, 1, 48, 500, choice);
            assert_eq!(a, b, "{choice:?}");
            assert_eq!(a.len(), 500);
            assert!(a.iter().all(|&k| k < 48));
            assert_eq!(sequence_fnv(std::slice::from_ref(&a)), sequence_fnv(&[b]));
            assert_ne!(a, key_sequence(7, 0, 0, 48, 500, choice), "{choice:?}");
            if choice != (KeyChoice::Cyclic { clients: 2 }) {
                assert_ne!(a, key_sequence(8, 0, 1, 48, 500, choice), "{choice:?}");
                assert_ne!(a, key_sequence(7, 1, 1, 48, 500, choice), "{choice:?}");
            }
        }
    }

    #[test]
    fn cyclic_clients_never_share_a_key() {
        let a = key_sequence(1, 0, 0, 16, 64, KeyChoice::Cyclic { clients: 2 });
        let b = key_sequence(1, 0, 1, 16, 64, KeyChoice::Cyclic { clients: 2 });
        assert_eq!(&a[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        assert_eq!(&b[..10], &[8, 9, 10, 11, 12, 13, 14, 15, 8, 9]);
        assert!(a.iter().all(|k| !b.contains(k)));
    }

    #[test]
    fn zipf_holds_every_key_exactly_as_often_as_its_rank_says() {
        let counts_of = |seq: &[u32]| {
            let mut counts = [0usize; 48];
            for &k in seq {
                counts[k as usize] += 1;
            }
            counts
        };
        let a = counts_of(&key_sequence(
            3,
            0,
            0,
            48,
            20_000,
            KeyChoice::Zipf { s: 1.1 },
        ));
        // The mix does not depend on seed, trial or client; the order does.
        assert_eq!(
            a,
            counts_of(&key_sequence(
                4,
                2,
                1,
                48,
                20_000,
                KeyChoice::Zipf { s: 1.1 }
            ))
        );
        let mut sorted = a;
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        // Rank 1 of Zipf(1.1, 48) carries 26.3 %, the top 16 79.7 %.
        assert!((0.262..0.264).contains(&(sorted[0] as f64 / 20_000.0)));
        let top16: usize = sorted[..16].iter().sum();
        assert!((0.796..0.798).contains(&(top16 as f64 / 20_000.0)));
        assert!(sorted[47] > 0);
        // The hottest keys are spread over the key space, not its start.
        assert_eq!(a[0], sorted[0]);
        assert_eq!(a[29], sorted[1]);
        assert_eq!(a[10], sorted[2]);
    }

    #[test]
    fn ranks_map_onto_all_keys() {
        for keys in [6, 16, 48, 29, 58] {
            let mut seen: Vec<u32> = (0..keys).map(|r| key_of_rank(r, keys)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..keys as u32).collect::<Vec<_>>(), "{keys} keys");
        }
        assert_eq!(zipf_counts(48, 1_000, 1.1).iter().sum::<usize>(), 1_000);
        assert_eq!(zipf_counts(3, 7, 0.0), vec![3, 2, 2]);
    }

    #[test]
    fn dataset_is_seeded_and_fills_both_halves() {
        let a = dataset(5, 0, 10_000, 2);
        assert_eq!(a, dataset(5, 0, 10_000, 2));
        assert_eq!((a[0].0.as_str(), a[1].0.as_str()), ("c0", "c1"));
        assert_ne!(a[0].1, a[1].1);
        assert_ne!(a[0].1, dataset(6, 0, 10_000, 2)[0].1);
        assert!(a[0].1.iter().all(|v| (0.0..100.0).contains(v)));
        assert!(a[1].1.iter().any(|v| *v >= 100.0));
        let exact = Exact::of(&a[0].1);
        assert_eq!(exact.rows, 10_000);
        assert!((exact.mean() - 50.0).abs() < 1.5);
        let odd = a[0].1.iter().filter(|v| v.to_bits() % 2 == 1).count();
        assert!(
            (4_000..6_000).contains(&odd),
            "{odd} of 10000 in the odd half"
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1, 2);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }
}
