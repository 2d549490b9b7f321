//! Where Algorithm 1 reads its records from.
//!
//! Phases 1–3 ([`crate::Upa::prepare`]) are written once over a
//! [`RecordSource`]: a record collection that can report its length,
//! hand out the records at sorted indices, and fold each of its
//! consecutive **slabs** as one engine task over plain slices. The row
//! engine's [`Dataset`] (slab = partition) and the store's
//! [`ColumnarDataset`] (slab = the range [`slab_ranges`] gives the
//! engine's default partition count) are the two sources; everything
//! that decides a release — sampling order, logical halves (taken from
//! each record's content by [`crate::query::half_of`], never from its
//! slab), and the remainder (per slab, one left fold in record order per
//! logical half, the slab partials left-folded ascending by slab; or, for
//! a query with [`crate::query::HalfTotals`], the exact totals less the
//! sample) — lives in the one caller, so it cannot differ between them.
//!
//! The trait is public only so it can bound public functions; the module
//! is private, so it cannot be named — or implemented — outside this
//! crate.

use dataflow::columnar::{slab_ranges, ColumnarDataset};
use dataflow::{Data, Dataset};

/// A record collection Algorithm 1's phases 1–3 can run over.
pub trait RecordSource<T: Data> {
    /// Total records.
    fn len(&self) -> usize;

    /// The records at strictly increasing global `indices`.
    fn gather_sorted(&self, indices: &[usize]) -> Vec<T>;

    /// Runs one engine stage with a task per slab, the slabs being
    /// consecutive global index ranges covering `0..len()`. Each task
    /// starts from `A::default()` and calls `f(acc, global_offset, run)`
    /// for the slab's contiguous record runs (possibly empty) in record
    /// order; the per-slab results come back in slab order. How a source
    /// cuts a slab into runs (one run per partition, one per chunk slice)
    /// is its own business: every run of a slab continues the same
    /// accumulator, so the caller's fold never sees the run layout.
    fn fold_slabs<A, F>(&self, name: &str, f: F) -> Vec<A>
    where
        A: Default + Send + 'static,
        F: Fn(&mut A, usize, &[T]) + Send + Sync + 'static;
}

impl<T: Data> RecordSource<T> for Dataset<T> {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn gather_sorted(&self, indices: &[usize]) -> Vec<T> {
        let mut out = Vec::with_capacity(indices.len());
        let mut parts = self.partitions().iter();
        let mut part: &[T] = &[];
        let mut base = 0usize;
        for &g in indices {
            while g >= base + part.len() {
                base += part.len();
                part = parts.next().expect("gather index out of bounds");
            }
            out.push(part[g - base].clone());
        }
        out
    }

    fn fold_slabs<A, F>(&self, name: &str, f: F) -> Vec<A>
    where
        A: Default + Send + 'static,
        F: Fn(&mut A, usize, &[T]) + Send + Sync + 'static,
    {
        let offsets: Vec<usize> = (self.partitions().iter())
            .scan(0, |start, p| {
                *start += p.len();
                Some(*start - p.len())
            })
            .collect();
        self.run_partitions(name, move |slab, records| {
            let mut acc = A::default();
            f(&mut acc, offsets[slab], records);
            acc
        })
    }
}

impl RecordSource<f64> for ColumnarDataset {
    fn len(&self) -> usize {
        ColumnarDataset::len(self)
    }

    fn gather_sorted(&self, indices: &[usize]) -> Vec<f64> {
        self.buf().gather_sorted(indices)
    }

    fn fold_slabs<A, F>(&self, name: &str, f: F) -> Vec<A>
    where
        A: Default + Send + 'static,
        F: Fn(&mut A, usize, &[f64]) + Send + Sync + 'static,
    {
        let bounds = slab_ranges(self.len(), self.context().config().default_partitions);
        self.run_ranges(name, bounds, move |_, buf, start, end| {
            let mut acc = A::default();
            buf.for_each_slice_in(start, end, |at, run| f(&mut acc, at, run));
            acc
        })
    }
}
