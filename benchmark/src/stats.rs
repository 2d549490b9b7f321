//! Order statistics, segment summaries and the FNV-1a hash behind
//! `workload.sequence_fnv`.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples
/// (the guide asks for at least ten behind a reported tail percentile).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Sorts ascending; `f64::total_cmp` so a stray NaN cannot panic a sort.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// One metric summarised over the independent trials of a run: the
/// reported value is the median, min/max show the spread inside the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trials {
    /// Median of the per-trial values — the metric's value.
    pub median: f64,
    /// Smallest trial value.
    pub min: f64,
    /// Largest trial value.
    pub max: f64,
    /// The per-trial values in run order.
    pub values: Vec<f64>,
}

/// Summarises per-trial values.
///
/// # Panics
///
/// If `values` is empty.
pub fn median_of_trials(values: Vec<f64>) -> Trials {
    Trials {
        median: median(&values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        values,
    }
}

/// FNV-1a over `bytes`, 64-bit.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The low 52 bits of a hash as an exactly representable `f64`, so an
/// identity check survives the trip through a JSON number.
pub fn hash_as_f64(h: u64) -> f64 {
    (h & ((1 << 52) - 1)) as f64
}

/// Relative difference of `b` from `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 99.0), 5.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(5, 99.0), 0);
        assert_eq!(samples_beyond(2_000, 50.0), 1_000);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trials_report_median_and_extremes() {
        let s = median_of_trials(vec![5.0, 1.0, 9.0, 3.0, 4.0]);
        assert_eq!((s.median, s.min, s.max), (4.0, 1.0, 9.0));
        assert_eq!(s.values.len(), 5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(*b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(*b"foobar"), 0x8594_4171_F739_67E8);
        let f = hash_as_f64(u64::MAX);
        assert_eq!(f as u64, (1 << 52) - 1);
    }

    #[test]
    fn rel_diff_is_signed_and_relative() {
        assert_eq!(rel_diff(10.0, 11.0), 0.1);
        assert_eq!(rel_diff(10.0, 9.0), -0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
