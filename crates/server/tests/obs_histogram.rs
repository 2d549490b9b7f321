//! Property tests for the log-linear latency histogram: across many
//! random value distributions, every quantile estimate stays within one
//! bucket width of the exact sorted order statistic, and a `metrics`
//! reply's histograms decode only when a histogram could have written
//! them.
//!
//! The harness is a hand-rolled xorshift PRNG — deterministic, seeded
//! per case, and dependency-free.

use upa_server::obs::histogram::{bucket_width, Histogram, HistogramSnapshot, BUCKETS};
use upa_server::{wire, Response};

/// xorshift64*: tiny, seedable, good enough to vary distributions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A value in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Draws `n` values from one of several shapes — uniform at varying
/// magnitudes, exponential-ish (bit-width-uniform), bimodal, constant —
/// chosen by `case` so the suite covers qualitatively different tails.
fn sample(case: u64, n: usize, rng: &mut Rng) -> Vec<u64> {
    (0..n)
        .map(|_| match case % 4 {
            // Uniform over a magnitude that grows with the case index.
            0 => rng.below(10u64.saturating_pow((case % 12) as u32 + 1)),
            // Bit-width-uniform: heavy tail across ~50 binary scales
            // (capped at 2^50 so a few thousand draws can't overflow
            // the snapshot's u64 value sum).
            1 => rng.next() >> (14 + rng.below(50) as u32),
            // Bimodal: fast path near 100, slow path near 1e7.
            2 => {
                if rng.below(10) < 8 {
                    50 + rng.below(100)
                } else {
                    10_000_000 + rng.below(1_000_000)
                }
            }
            // Constant (degenerate distribution).
            _ => 42 * (case + 1),
        })
        .collect()
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn quantiles_stay_within_one_bucket_width_of_exact() {
    let quantiles = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
    for case in 0..64u64 {
        let mut rng = Rng(0x9E3779B97F4A7C15 ^ (case + 1));
        let n = 1 + rng.below(2_000) as usize;
        let values = sample(case, n, &mut rng);
        let snap = snapshot_of(&values);
        assert_eq!(snap.count, values.len() as u64, "case {case}");

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &quantiles {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            assert!(
                est.abs_diff(exact) <= bucket_width(exact),
                "case {case} q={q}: estimate {est} is more than one bucket \
                 width ({}) from exact {exact}",
                bucket_width(exact)
            );
        }
    }
}

/// A `metrics` reply comes off the network, so the histogram decoder
/// refuses what no histogram writes before `bucket_bounds` or `quantile`
/// sees it: an index outside the layout (from 1040 on,
/// `bucket_bounds` shifts past 63 bits), indices out of order, and a
/// count other than the bucket total.
#[test]
fn metrics_replies_with_impossible_buckets_are_decode_errors() {
    let reply = |count: u64, buckets: &str| {
        format!(
            "{{\"ok\":true,\"exposition\":\"\",\"metrics\":{{\"counters\":{{}},\
             \"gauges\":{{}},\"histograms\":{{\"h\":{{\"count\":{count},\"sum\":5,\
             \"p50\":0,\"p90\":0,\"p99\":0,\"max\":0,\"buckets\":{buckets}}}}}}}}}"
        )
    };
    let decode = |line: &str| Response::from_json(&wire::parse(line).expect("valid JSON"));
    assert!(decode(&reply(2, "[[3,1],[104,1]]")).is_ok());
    for (count, buckets, field) in [
        (1, format!("[[{BUCKETS},1]]"), "'buckets'"),
        (1, "[[1040,1]]".into(), "'buckets'"),
        (2, "[[104,1],[3,1]]".into(), "'buckets'"),
        (2, "[[3,1],[3,1]]".into(), "'buckets'"),
        (3, "[[3,1],[104,1]]".into(), "'count'"),
    ] {
        let line = reply(count, &buckets);
        match decode(&line) {
            Err(e) => assert!(e.contains(field), "{line}: {e}"),
            Ok(decoded) => panic!("{line} decoded to {decoded:?}"),
        }
    }
}
