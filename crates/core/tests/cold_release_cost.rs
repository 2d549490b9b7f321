//! A cold release pays for its arithmetic and nothing else.
//!
//! The served shape — a column of `f64`s, each record mapped to `(x, 1)`,
//! with the column's exact half totals — is prepared and released the way
//! a server's cache miss does it. Two costs are counted:
//!
//! * RANGE ENFORCER's reduces. A release that removes `R` of its `n`
//!   sampled records must call the query's `reduce` O(n + R) times, not
//!   once per sampled record per removal. A half key that puts every
//!   record in one half (a column with one distinct value has one under
//!   any content key) leaves a repeated query unable to move the other
//!   half, so it removes the whole sample: the `R = n` case.
//! * Heap allocations. A prepare and its first release allocate the same
//!   number of times at n = 1000 as at n = 4000: nothing is allocated per
//!   sampled record or per neighbour output.
//!
//! Run with `--nocapture` to see the counts.

use dataflow::columnar::{ColumnarBuf, ColumnarDataset};
use dataflow::Context;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use upa_core::domain::ColumnarEmpiricalSampler;
use upa_core::query::{HalfTotals, MapReduceQuery};
use upa_core::{Upa, UpaConfig};

/// Counts every allocation the process makes.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests run one at a time, so neither's engine allocates while the
/// other counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// Rows in every test column.
const ROWS: usize = 200_000;

/// The served half key: a value's bits.
fn half_key(x: &f64) -> u64 {
    x.to_bits()
}

/// A half key that puts every record in half 0.
fn one_half(_: &f64) -> u64 {
    0
}

/// A column over `values`, chunked as an ingest chunks it.
struct Column {
    ds: ColumnarDataset,
    domain: ColumnarEmpiricalSampler,
    half_key: fn(&f64) -> u64,
    totals: Arc<HalfTotals>,
}

impl Column {
    fn new(ctx: &Context, values: &[f64], half_key: fn(&f64) -> u64) -> Self {
        let buf = ColumnarBuf::from_values(values.to_vec(), 65_536);
        Column {
            ds: ColumnarDataset::new(ctx, buf.clone()),
            domain: ColumnarEmpiricalSampler::new(buf),
            half_key,
            totals: Arc::new(HalfTotals::of_values(values, half_key)),
        }
    }

    /// The served sum over this column, counting its `reduce` calls in
    /// `reduces`.
    fn sum(&self, reduces: &Arc<AtomicUsize>) -> MapReduceQuery<f64, (f64, f64), f64> {
        let reduces = Arc::clone(reduces);
        MapReduceQuery::new(
            "sum",
            self.half_key,
            |x: &f64| (*x, 1.0),
            move |a: &(f64, f64), b: &(f64, f64)| {
                reduces.fetch_add(1, Ordering::Relaxed);
                (a.0 + b.0, a.1 + b.1)
            },
            |acc: Option<&(f64, f64)>| acc.map_or(0.0, |a| a.0),
        )
        .with_half_totals(Arc::clone(&self.totals))
    }
}

fn engine(ctx: &Context, sample_size: usize) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            ..UpaConfig::default()
        },
    )
}

/// Reduces per prepare and per release, each against `C · (n + R)`.
const C: usize = 8;

#[test]
fn enforcement_reduces_are_linear_in_sample_and_removals() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = Context::with_threads(2);
    let n = 1_000;
    let integers: Vec<f64> = (0..ROWS).map(|i| ((i * 37 + 5) % 101) as f64).collect();
    let fractions: Vec<f64> = integers.iter().map(|v| v * 0.37).collect();
    for (label, values, key, rounds) in [
        ("one_half", &integers, one_half as fn(&f64) -> u64, 2),
        ("fractional", &fractions, half_key, 6),
    ] {
        let column = Column::new(&ctx, values, key);
        let reduces = Arc::new(AtomicUsize::new(0));
        let query = column.sum(&reduces);
        let upa = engine(&ctx, n);
        let mut removed = 0;
        for round in 0..rounds {
            reduces.store(0, Ordering::Relaxed);
            let prepared = upa.prepare(&column.ds, &query, &column.domain).unwrap();
            let prepare_reduces = reduces.swap(0, Ordering::Relaxed);
            let r = upa
                .release(&prepared)
                .unwrap()
                .enforce_outcome
                .removed_records;
            let release_reduces = reduces.load(Ordering::Relaxed);
            println!(
                "{label} round {round}: n = {n}, R = {r}: prepare {prepare_reduces} reduces, \
                 release {release_reduces}"
            );
            assert!(prepare_reduces <= C * n, "{label} round {round}: prepare");
            assert!(
                release_reduces <= C * (n + r),
                "{label} round {round}: {release_reduces} reduces for R = {r}"
            );
            removed += r;
        }
        if label == "one_half" {
            // One half is empty, so the repeat removes the whole sample.
            assert_eq!(removed, n, "the one-half column's repeat is the R = n case");
        }
    }
}

/// Allocations of one served prepare and its first release on a fresh
/// engine; the fewest of three tries, so a stray allocation elsewhere in
/// the process cannot inflate it.
fn cold_release_allocations(ctx: &Context, column: &Column, n: usize) -> usize {
    let reduces = Arc::new(AtomicUsize::new(0));
    let query = column.sum(&reduces);
    (0..3)
        .map(|_| {
            let upa = engine(ctx, n);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let prepared = upa.prepare(&column.ds, &query, &column.domain).unwrap();
            let result = upa.release(&prepared).unwrap();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            drop((result, prepared));
            allocations
        })
        .min()
        .expect("three tries")
}

#[test]
fn cold_release_allocations_do_not_grow_with_the_sample() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = Context::with_threads(2);
    let values: Vec<f64> = (0..ROWS)
        .map(|i| ((i * 37 + 5) % 101) as f64 * 0.37)
        .collect();
    let column = Column::new(&ctx, &values, half_key);
    // Warm every lazily initialised process-wide structure first.
    cold_release_allocations(&ctx, &column, 10);
    let small = cold_release_allocations(&ctx, &column, 1_000);
    let large = cold_release_allocations(&ctx, &column, 4_000);
    println!("allocations per prepare and first release: n = 1000: {small}, n = 4000: {large}");
    assert!(
        small.abs_diff(large) <= 4,
        "allocations grow with the sample: {small} at n = 1000, {large} at n = 4000"
    );
}
