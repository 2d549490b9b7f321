//! Columnar zero-copy datasets: chunked `f64` column buffers handed
//! over from the store without per-record boxing, plus chunk-at-a-time
//! kernels for the narrow ops the UPA prepare pipeline needs.
//!
//! A [`ColumnarBuf`] is a column split into immutable, `Arc`-shared
//! chunks (the store's on-disk chunk layout, kept as-is in memory).
//! A [`ColumnarDataset`] binds a buffer to a [`Context`] and runs
//! kernels as real engine stages — one task per chunk, streaming tight
//! loops over contiguous slices — so stage/task/record counters, stage
//! timings and the simulated scan cost behave exactly as they do for
//! row datasets.
//!
//! Chunk statistics ([`ChunkStats`]: min/max over non-NaN values, value
//! count, NaN count) are computed at ingest and live in the store
//! manifest; an in-memory chunk is its values alone.

use crate::context::scan_delay;
use crate::Context;
use std::sync::{Arc, OnceLock};

/// Per-chunk value statistics, computed at ingest and persisted in the
/// store manifest.
///
/// `min`/`max` cover **non-NaN** values only; an empty or all-NaN chunk
/// has the empty range `min = +inf, max = -inf`. NaNs are counted
/// separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Smallest non-NaN value (`+inf` when none).
    pub min: f64,
    /// Largest non-NaN value (`-inf` when none).
    pub max: f64,
    /// Total values in the chunk (NaNs included).
    pub count: u64,
    /// How many of them are NaN.
    pub nan_count: u64,
}

impl ChunkStats {
    /// Scans `values` once, accumulating min/max over non-NaN entries.
    #[must_use]
    pub fn compute(values: &[f64]) -> ChunkStats {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut nan_count = 0u64;
        for &v in values {
            if v.is_nan() {
                nan_count += 1;
            } else {
                min = min.min(v);
                max = max.max(v);
            }
        }
        ChunkStats {
            min,
            max,
            count: values.len() as u64,
            nan_count,
        }
    }

    /// Merges two chunk ranges into one covering both.
    #[must_use]
    pub fn merge(&self, other: &ChunkStats) -> ChunkStats {
        ChunkStats {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            count: self.count + other.count,
            nan_count: self.nan_count + other.nan_count,
        }
    }
}

/// A column as immutable shared chunks (each a slice shared with
/// whoever loaded it) with a row index. Cloning is cheap (two `Arc`
/// bumps); the values are never copied.
#[derive(Debug, Clone)]
pub struct ColumnarBuf {
    chunks: Arc<Vec<Arc<[f64]>>>,
    index: Arc<RowIndex>,
}

/// Where each global row lives: the chunk prefix offsets and a table of
/// the chunk holding every `block`-th row. A row's block is one divide
/// away, and from the chunk holding the block's first row a short walk
/// reaches the row's chunk.
///
/// `block` is the shortest chunk but the last (empty ones skipped),
/// raised to the mean chunk size when shorter. In the layout an ingest or
/// [`ColumnarBuf::from_values`] makes — equal chunks and a short tail —
/// that is the chunk size, so a block meets at most two chunks and the
/// walk takes at most one step. A ragged layout's walk may take more
/// steps; the floor keeps its table at one entry per chunk or fewer.
#[derive(Debug)]
struct RowIndex {
    /// `offsets[i]` is the global row index where chunk `i` starts;
    /// one trailing entry holds the total length.
    offsets: Vec<usize>,
    block: usize,
    /// `block_chunk[b]`: the chunk holding row `b * block`.
    block_chunk: Vec<usize>,
}

impl RowIndex {
    fn new(chunks: &[Arc<[f64]>]) -> RowIndex {
        let mut offsets = Vec::with_capacity(chunks.len() + 1);
        offsets.push(0usize);
        for c in chunks {
            offsets.push(offsets.last().copied().unwrap_or(0) + c.len());
        }
        let len = offsets[chunks.len()];
        let shortest = chunks
            .iter()
            .take(chunks.len().saturating_sub(1))
            .map(|c| c.len())
            .filter(|&rows| rows > 0)
            .min()
            .unwrap_or(len);
        let block = shortest.max(len.div_ceil(chunks.len().max(1))).max(1);
        let mut chunk = 0usize;
        let block_chunk = (0..len.div_ceil(block))
            .map(|b| {
                while offsets[chunk + 1] <= b * block {
                    chunk += 1;
                }
                chunk
            })
            .collect();
        RowIndex {
            offsets,
            block,
            block_chunk,
        }
    }

    fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// `(chunk, offset-in-chunk)` of row `g`, which must be in bounds.
    fn locate(&self, g: usize) -> (usize, usize) {
        let mut chunk = self.block_chunk[g / self.block];
        while self.offsets[chunk + 1] <= g {
            chunk += 1;
        }
        (chunk, g - self.offsets[chunk])
    }
}

/// Rows in each shared chunk of [`ColumnarBuf::zeros`].
pub const ZERO_CHUNK_ROWS: usize = 4096;

impl ColumnarBuf {
    /// Builds a buffer over `chunks` (empty chunks are allowed).
    #[must_use]
    pub fn new(chunks: Vec<Arc<[f64]>>) -> ColumnarBuf {
        ColumnarBuf {
            index: Arc::new(RowIndex::new(&chunks)),
            chunks: Arc::new(chunks),
        }
    }

    /// Chunks a column into a buffer of `chunk_rows`-row chunks (the last
    /// one short) — the ingest shape, used by in-memory datasets and
    /// tests. The chunks are cut from the back and `values` shrinks past
    /// each one, so the column is held once plus one chunk, not twice.
    #[must_use]
    pub fn from_values(mut values: Vec<f64>, chunk_rows: usize) -> ColumnarBuf {
        let chunk_rows = chunk_rows.max(1);
        let mut chunks = Vec::with_capacity(values.len().div_ceil(chunk_rows));
        while !values.is_empty() {
            let start = (values.len() - 1) / chunk_rows * chunk_rows;
            chunks.push(Arc::from(&values[start..]));
            values.truncate(start);
            values.shrink_to_fit();
        }
        chunks.reverse();
        ColumnarBuf::new(chunks)
    }

    /// A buffer of `rows` zeros (the column the server samples a
    /// value-free COUNT from). Its full chunks share one process-wide
    /// block of [`ZERO_CHUNK_ROWS`] zeros, so it holds less than two
    /// blocks of values however many rows it has.
    #[must_use]
    pub fn zeros(rows: usize) -> ColumnarBuf {
        static FULL: OnceLock<Arc<[f64]>> = OnceLock::new();
        let full = FULL.get_or_init(|| Arc::from([0.0; ZERO_CHUNK_ROWS]));
        let mut chunks = vec![Arc::clone(full); rows / ZERO_CHUNK_ROWS];
        let tail = rows % ZERO_CHUNK_ROWS;
        if tail > 0 {
            chunks.push(Arc::from(vec![0.0; tail]));
        }
        ColumnarBuf::new(chunks)
    }

    /// Total rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the column holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of chunks.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk list.
    #[must_use]
    pub fn chunks(&self) -> &[Arc<[f64]>] {
        &self.chunks
    }

    /// The value at global row `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of bounds.
    #[must_use]
    pub fn value(&self, g: usize) -> f64 {
        let (chunk, off) = self.locate(g);
        self.chunks[chunk][off]
    }

    /// Maps a global row index to `(chunk, offset-in-chunk)`: one divide
    /// and, in an ingest layout, at most one step (see the row index).
    /// Empty chunks hold no row, so no row maps to one.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of bounds.
    #[must_use]
    pub fn locate(&self, g: usize) -> (usize, usize) {
        assert!(g < self.len(), "row {g} out of bounds ({})", self.len());
        self.index.locate(g)
    }

    /// The values at global `indices`, in their order. Every index is
    /// located before any value is read, so the reads — random over the
    /// whole column — run in a loop of nothing but independent loads,
    /// and many overlap.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn gather(&self, indices: &[usize]) -> Vec<f64> {
        let located: Vec<(usize, usize)> = indices.iter().map(|&g| self.locate(g)).collect();
        located
            .iter()
            .map(|&(chunk, off)| self.chunks[chunk][off])
            .collect()
    }

    /// [`ColumnarBuf::gather`] of ascending global indices — how the
    /// prepare pipeline materialises the sample S without touching the
    /// rest of the column.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly increasing or out of
    /// bounds.
    #[must_use]
    pub fn gather_sorted(&self, indices: &[usize]) -> Vec<f64> {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "gather indices must be strictly increasing"
        );
        self.gather(indices)
    }

    /// Calls `f` with each contiguous slice covering rows
    /// `[start, end)`, in row order. The caller sees at most one slice
    /// per chunk; empty intersections are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end` exceeds the length.
    pub fn for_each_slice_in(&self, start: usize, end: usize, mut f: impl FnMut(usize, &[f64])) {
        assert!(
            start <= end && end <= self.len(),
            "bad range {start}..{end}"
        );
        if start == end {
            return;
        }
        let (mut chunk, _) = self.locate(start);
        let offsets = &self.index.offsets;
        let mut at = start;
        while at < end {
            let chunk_start = offsets[chunk];
            let chunk_end = offsets[chunk + 1];
            if chunk_start < chunk_end {
                let lo = at - chunk_start;
                let hi = end.min(chunk_end) - chunk_start;
                f(at, &self.chunks[chunk][lo..hi]);
                at = end.min(chunk_end);
            }
            chunk += 1;
        }
    }

    /// Materialises the column as one flat vector (tests and
    /// benchmarks; no execution path calls this).
    #[must_use]
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for c in self.chunks.iter() {
            out.extend_from_slice(c);
        }
        out
    }
}

/// The slab boundaries [`Context::parallelize`] gives `len` records
/// over `partitions` partitions: consecutive ranges of
/// `len.div_ceil(partitions)` rows. The columnar reduce folds inside
/// these exact boundaries, so a column and the same values parallelized
/// as a row dataset accumulate floating point in the same order.
#[must_use]
pub fn slab_ranges(len: usize, partitions: usize) -> Vec<(usize, usize)> {
    assert!(partitions > 0, "partitions must be positive");
    if len == 0 {
        return vec![(0, 0)];
    }
    let slab = len.div_ceil(partitions);
    let mut out = Vec::with_capacity(partitions);
    let mut at = 0usize;
    while at < len {
        let end = (at + slab).min(len);
        out.push((at, end));
        at = end;
    }
    out
}

/// A columnar buffer bound to an engine context: kernels run as real
/// stages (one task per chunk or per slab) with the same metrics,
/// timing and scan-cost semantics as row stages.
#[derive(Debug, Clone)]
pub struct ColumnarDataset {
    ctx: Context,
    buf: ColumnarBuf,
}

impl ColumnarDataset {
    /// Binds `buf` to `ctx`.
    #[must_use]
    pub fn new(ctx: &Context, buf: ColumnarBuf) -> ColumnarDataset {
        ColumnarDataset {
            ctx: ctx.clone(),
            buf,
        }
    }

    /// The engine handle.
    #[must_use]
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The underlying buffer (cheap to clone).
    #[must_use]
    pub fn buf(&self) -> &ColumnarBuf {
        &self.buf
    }

    /// Total rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the dataset holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Aggregates chunk-at-a-time: one engine task per chunk folds its
    /// contiguous slice, and the partials come back in chunk order.
    /// The per-chunk fold is a tight loop over a `&[f64]` slice — the
    /// auto-vectorizable shape.
    pub fn aggregate_chunks<A, F>(&self, name: &str, fold: F) -> Vec<A>
    where
        A: Send + 'static,
        F: Fn(&[f64]) -> A + Send + Sync + 'static,
    {
        let buf = self.buf.clone();
        let scan_ns = self.ctx.scan_cost_ns();
        self.ctx.record_processed_public(self.buf.len() as u64);
        self.ctx.run_tasks(
            name,
            (0..buf.num_chunks()).collect(),
            move |_i, chunk: usize| {
                let values = &buf.chunks()[chunk];
                scan_delay(values.len(), scan_ns);
                fold(values)
            },
        )
    }

    /// Runs one engine stage with a task per row range: `f(range_index,
    /// buffer, start, end)`. Ranges are typically [`slab_ranges`] so the
    /// work mirrors a row dataset's partitioning; record counters charge
    /// the rows covered by the ranges.
    pub fn run_ranges<A, F>(&self, name: &str, ranges: Vec<(usize, usize)>, f: F) -> Vec<A>
    where
        A: Send + 'static,
        F: Fn(usize, &ColumnarBuf, usize, usize) -> A + Send + Sync + 'static,
    {
        let buf = self.buf.clone();
        let scan_ns = self.ctx.scan_cost_ns();
        let records: u64 = ranges.iter().map(|&(s, e)| (e - s) as u64).sum();
        self.ctx.record_processed_public(records);
        self.ctx
            .run_tasks(name, ranges, move |i, (start, end): (usize, usize)| {
                scan_delay(end - start, scan_ns);
                f(i, &buf, start, end)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(values: &[f64], chunk_rows: usize) -> ColumnarBuf {
        ColumnarBuf::from_values(values.to_vec(), chunk_rows)
    }

    #[test]
    fn stats_handle_nan_and_infinities() {
        let s = ChunkStats::compute(&[1.0, f64::NAN, -3.0, f64::INFINITY]);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, f64::INFINITY);
        assert_eq!(s.count, 4);
        assert_eq!(s.nan_count, 1);

        let empty = ChunkStats::compute(&[]);
        assert_eq!(empty.min, f64::INFINITY);
        assert_eq!(empty.max, f64::NEG_INFINITY);

        let all_nan = ChunkStats::compute(&[f64::NAN, f64::NAN]);
        assert_eq!(all_nan.nan_count, 2);
        assert_eq!(all_nan.min, f64::INFINITY);
    }

    /// A buffer of `0, 1, 2, …` cut into chunks of the given sizes.
    fn layout(sizes: &[usize]) -> ColumnarBuf {
        let mut next = 0.0;
        let chunks = sizes
            .iter()
            .map(|&rows| {
                let values: Vec<f64> = (0..rows)
                    .map(|_| {
                        next += 1.0;
                        next - 1.0
                    })
                    .collect();
                Arc::from(values)
            })
            .collect();
        ColumnarBuf::new(chunks)
    }

    #[test]
    fn locate_value_and_gather_cross_chunks() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let b = buf(&values, 7);
        assert_eq!(b.len(), 100);
        assert_eq!(b.num_chunks(), 15);
        for g in [0usize, 6, 7, 13, 99] {
            assert_eq!(b.value(g), g as f64);
        }
        assert_eq!(b.locate(7), (1, 0));
        let picked = b.gather_sorted(&[0, 6, 7, 50, 99]);
        assert_eq!(picked, vec![0.0, 6.0, 7.0, 50.0, 99.0]);

        // Every row of every layout reads what a flat vector holds there,
        // by `value`, `locate`, `gather` (in any order) and `gather_sorted`.
        let layouts = [
            ("uniform", layout(&[8, 8, 8, 8])),
            ("short tail", layout(&[8, 8, 8, 3])),
            ("ingest shape", buf(&values, 7)),
            ("empty chunks", layout(&[0, 5, 0, 0, 5, 3, 0, 9, 0])),
            ("ragged", layout(&[1, 30, 2, 2, 17, 1])),
            ("one chunk", layout(&[23])),
            ("zeros", ColumnarBuf::zeros(2 * ZERO_CHUNK_ROWS + 9)),
            ("few zeros", ColumnarBuf::zeros(5)),
        ];
        for (name, b) in &layouts {
            let flat = b.to_vec();
            assert_eq!(flat.len(), b.len(), "{name}");
            let all: Vec<usize> = (0..b.len()).collect();
            for &g in &all {
                let (chunk, off) = b.locate(g);
                assert_eq!(b.chunks()[chunk][off], flat[g], "{name} row {g}");
                assert_eq!(b.value(g).to_bits(), flat[g].to_bits(), "{name} row {g}");
            }
            assert_eq!(b.gather_sorted(&all), flat, "{name}");
            let scattered: Vec<usize> = all.iter().rev().step_by(3).copied().collect();
            let want: Vec<f64> = scattered.iter().map(|&g| flat[g]).collect();
            assert_eq!(b.gather(&scattered), want, "{name}");
        }
        // A non-zero column's values are their own rows, so the reads
        // above pin the row, not just a value that happens to match.
        assert_eq!(
            layouts[3].1.to_vec(),
            (0..22).map(f64::from).collect::<Vec<_>>()
        );
        assert_eq!(layouts[3].1.locate(5), (4, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn locate_rejects_rows_past_the_end() {
        let _ = buf(&[1.0, 2.0, 3.0], 2).locate(3);
    }

    #[test]
    fn slice_iteration_covers_ranges_exactly() {
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        let b = buf(&values, 6);
        let mut seen = Vec::new();
        b.for_each_slice_in(4, 17, |at, slice| {
            assert_eq!(slice[0], at as f64);
            seen.extend_from_slice(slice);
        });
        assert_eq!(seen, (4..17).map(f64::from).collect::<Vec<_>>());
        // Empty range yields nothing.
        b.for_each_slice_in(5, 5, |_, _| panic!("no slices expected"));
    }

    #[test]
    fn single_record_chunks_round_trip() {
        let values = vec![3.0, f64::NAN, -1.0];
        let b = buf(&values, 1);
        assert_eq!(b.num_chunks(), 3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&b.to_vec()), bits(&values));
    }

    #[test]
    fn slab_ranges_match_parallelize_boundaries() {
        let ctx = Context::with_threads(3);
        for len in [0usize, 1, 2, 9, 10, 100, 101] {
            for parts in [1usize, 2, 3, 7] {
                let ds = ctx.parallelize((0..len as i64).collect::<Vec<i64>>(), parts);
                let ranges = slab_ranges(len, parts);
                let sizes: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
                let actual: Vec<usize> = ds.partitions().iter().map(|p| p.len()).collect();
                assert_eq!(sizes, actual, "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn aggregate_chunks_runs_as_one_stage_with_metrics() {
        let ctx = Context::with_threads(2);
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let ds = ColumnarDataset::new(&ctx, buf(&values, 64));
        let before = ctx.metrics();
        let partials = ds.aggregate_chunks("columnar[sum]", |s| s.iter().sum::<f64>());
        let total: f64 = partials.iter().sum();
        assert_eq!(total, 999.0 * 1000.0 / 2.0);
        let delta = ctx.metrics().since(&before);
        assert_eq!(delta.stages, 1);
        assert_eq!(delta.tasks, 16);
        assert_eq!(delta.records_processed, 1000);
        assert_eq!(delta.shuffles, 0);
    }

    #[test]
    fn run_ranges_charges_covered_rows() {
        let ctx = Context::with_threads(2);
        let values: Vec<f64> = (0..50).map(f64::from).collect();
        let ds = ColumnarDataset::new(&ctx, buf(&values, 8));
        let before = ctx.metrics();
        let ranges = slab_ranges(50, 4);
        let sums = ds.run_ranges("columnar[ranges]", ranges.clone(), |_, b, s, e| {
            let mut acc = 0.0;
            b.for_each_slice_in(s, e, |_, slice| acc += slice.iter().sum::<f64>());
            acc
        });
        assert_eq!(sums.len(), ranges.len());
        assert_eq!(sums.iter().sum::<f64>(), 49.0 * 50.0 / 2.0);
        let delta = ctx.metrics().since(&before);
        assert_eq!(delta.stages, 1);
        assert_eq!(delta.records_processed, 50);
    }

    #[test]
    fn from_values_cuts_the_chunks_front_chunking_cuts() {
        let cases = [
            (0, 4),
            (1, 4),
            (7, 7),
            (8, 7),
            (13, 0),
            (1_000, 64),
            (1_024, 64),
        ];
        for (len, chunk_rows) in cases {
            let values: Vec<f64> = (0..len)
                .map(|i| {
                    if i % 9 == 4 {
                        f64::NAN
                    } else {
                        i as f64 * 0.5 - 3.0
                    }
                })
                .collect();
            let buf = ColumnarBuf::from_values(values.clone(), chunk_rows);
            let want: Vec<&[f64]> = values.chunks(chunk_rows.max(1)).collect();
            assert_eq!(buf.num_chunks(), want.len(), "{len} rows by {chunk_rows}");
            for (chunk, w) in buf.chunks().iter().zip(want) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(chunk), bits(w));
            }
        }
    }

    #[test]
    fn zeros_and_empty_buffers_behave() {
        let z = ColumnarBuf::zeros(4);
        assert_eq!(z.to_vec(), vec![0.0; 4]);
        let rows = 3 * ZERO_CHUNK_ROWS + 5;
        let (a, b) = (ColumnarBuf::zeros(rows), ColumnarBuf::zeros(rows));
        assert_eq!(a.len(), rows);
        assert_eq!(a.num_chunks(), 4);
        assert!(Arc::ptr_eq(&a.chunks()[0], &b.chunks()[2]));
        assert_eq!(a.gather_sorted(&[0, rows - 1]), vec![0.0; 2]);
        let empty = ColumnarBuf::new(Vec::new());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(slab_ranges(0, 4), vec![(0, 0)]);
    }
}
