//! A log-linear (HDR-style) latency histogram: lock-free recording into
//! a fixed array of atomic buckets, sparse snapshots, bounded quantile
//! error.
//!
//! # Bucket layout
//!
//! Values 0..16 get their own unit-width bucket. From 16 up, each
//! power-of-two range is split into 16 sub-buckets ([`SUB`] = 2^[`SUB_BITS`]),
//! so a bucket holding value `v` has width `2^(floor(log2 v) - 4)` —
//! every quantile estimate is within one bucket width (≈ 6.25% relative
//! error) of the exact order statistic. The whole `u64` range fits in
//! [`BUCKETS`] = 976 buckets, small enough to keep as a flat
//! `AtomicU64` array with no allocation or locking on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use upa_json::{put, take, Body, Json};

/// log2 of the sub-bucket count per power-of-two range.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range.
pub const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index holding `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let e = msb - SUB_BITS;
        (e as usize + 1) * SUB + ((v >> e) as usize - SUB)
    }
}

/// The inclusive `(low, high)` value range of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let e = (idx / SUB - 1) as u32;
        let lo = ((SUB + idx % SUB) as u64) << e;
        // `(1 << e) - 1` first: the top bucket's `lo + 2^e` is 2^64.
        (lo, lo + ((1u64 << e) - 1))
    }
}

/// The width of the bucket holding `v` (the quantile error bound at `v`).
pub fn bucket_width(v: u64) -> u64 {
    let (lo, hi) = bucket_bounds(bucket_index(v));
    hi - lo + 1
}

/// A concurrent log-linear histogram. `record` is wait-free (three
/// relaxed `fetch_add`s); `snapshot` walks the bucket array without
/// stopping writers, so a snapshot taken under concurrent recording is
/// a consistent-enough point-in-time view (counts may trail `sum` by
/// in-flight records, never the reverse by more than the racing calls).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.try_into().expect("BUCKETS-sized"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value (typically a latency in microseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
                count += c;
            }
        }
        HistogramSnapshot {
            // Derive count from the buckets so the snapshot is
            // internally consistent even when records race the walk.
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// A frozen histogram: sparse `(bucket, count)` pairs sorted by bucket
/// index, plus the value sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(index, count)`, sorted by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q·count)` value — within one bucket width
    /// of the exact sorted quantile. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_bounds(idx as usize).1;
            }
        }
        bucket_bounds(self.buckets.last().map_or(0, |&(i, _)| i as usize)).1
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .last()
            .map_or(0, |&(i, _)| bucket_bounds(i as usize).1)
    }
}

/// `p50`/`p90`/`p99`/`max` are derived for human-facing consumers: written,
/// never read back, so a decoded snapshot recomputes them from `buckets`.
impl Body for HistogramSnapshot {
    fn put_fields(&self, out: &mut String) {
        put(out, "count", &self.count);
        put(out, "sum", &self.sum);
        put(out, "p50", &self.quantile(0.5));
        put(out, "p90", &self.quantile(0.9));
        put(out, "p99", &self.quantile(0.99));
        put(out, "max", &self.max());
        put(out, "buckets", &self.buckets);
    }

    /// Refuses what no [`Histogram`] writes and what [`bucket_bounds`]
    /// and [`HistogramSnapshot::quantile`] assume away: an index outside `0..BUCKETS`, indices not strictly
    /// ascending, and a `count` other than the bucket total.
    fn take_fields(v: &Json) -> Result<Self, String> {
        let snapshot = HistogramSnapshot {
            count: take(v, "count")?,
            sum: take(v, "sum")?,
            buckets: take(v, "buckets")?,
        };
        let buckets = &snapshot.buckets;
        let ascending = buckets.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending || buckets.last().is_some_and(|&(i, _)| i as usize >= BUCKETS) {
            return Err(format!(
                "'buckets' must be ascending indices below {BUCKETS}"
            ));
        }
        let total = buckets
            .iter()
            .try_fold(0u64, |sum, &(_, c)| sum.checked_add(c));
        if total != Some(snapshot.count) {
            return Err("'count' must be the bucket total".into());
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert() {
        let mut prev = None;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            if let Some(p) = prev {
                assert!(idx >= p, "index must not decrease");
            }
            prev = Some(idx);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 15);
        assert_eq!(s.max(), 15);
        assert_eq!(s.mean(), 7.5);
    }

    #[test]
    fn quantile_tracks_within_a_bucket_width() {
        let h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * i % 50_000).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = s.quantile(q);
            assert!(
                est.abs_diff(exact) <= bucket_width(exact),
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let h = Histogram::new();
        for v in [3u64, 17, 900, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let parsed = crate::wire::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(HistogramSnapshot::take_fields(&parsed), Ok(s));
    }
}
