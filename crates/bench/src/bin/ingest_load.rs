//! Store ingest/load benchmark: is serving from columnar chunks
//! actually faster than re-parsing the CSV every start?
//!
//! Measures, over the same dataset:
//!
//! * `csv_parse_ms` — parsing the CSV text and extracting every numeric
//!   column (what a CSV-backed server pays per restart);
//! * `chunk_load_ms` — [`upa_store::Store::load`] with a thread pool
//!   (checksummed fixed-width chunks, parallel per-chunk decode);
//! * `cold_attach_ms` — a fresh [`upa_store::Catalog`] open + attach,
//!   i.e. the wire `attach` op's end-to-end cold latency;
//! * `ingest_ms` — the one-off cost of publishing the CSV into the
//!   store (crash-safe: per-file fsync + atomic rename).
//!
//! Writes `BENCH_STORE.json` (override with `UPA_BENCH_STORE_OUT`).
//! Scale with `UPA_BENCH_STORE_ROWS` (default 200000) and
//! `UPA_BENCH_STORE_COLS` (default 4); `UPA_BENCH_THREADS` sizes the
//! load pool. The headline number is `speedup` = csv/chunk — the store
//! earns its place when this is comfortably above 2x.

use upa_bench::report::{time_millis, write_bench_json};
use upa_store::{csv, Catalog, IngestOptions, Store};

fn read_env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic synthetic CSV: one monotone integer column (a
/// timestamp-like key, so chunk min/max statistics actually separate
/// the chunks) and the rest fractional, so the text is representative
/// (varied widths, decimal points) rather than best-case.
fn synth_csv(rows: usize, cols: usize) -> String {
    let mut text = String::with_capacity(rows * cols * 8);
    for c in 0..cols {
        if c > 0 {
            text.push(',');
        }
        text.push_str(&format!("c{c}"));
    }
    text.push('\n');
    let mut state = 0x9E37_79B9u64;
    for i in 0..rows {
        for c in 0..cols {
            if c > 0 {
                text.push(',');
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 33) as u32;
            if c == 0 {
                text.push_str(&format!("{i}"));
            } else {
                text.push_str(&format!("{}.{:03}", (i % 500), v % 1_000));
            }
        }
        text.push('\n');
    }
    text
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let rows = read_env("UPA_BENCH_STORE_ROWS", 200_000).max(1_000);
    let cols = read_env("UPA_BENCH_STORE_COLS", 4).max(1);
    let threads = read_env("UPA_BENCH_THREADS", 4).max(1);
    let iters = read_env("UPA_BENCH_STORE_ITERS", 5).max(1);

    println!("== Store ingest/load: columnar chunks vs CSV re-parse ==");
    println!("({rows} rows x {cols} columns, {threads} load threads, median of {iters})\n");

    let text = synth_csv(rows, cols);
    let csv_bytes = text.len();

    let root = std::env::temp_dir().join(format!("upa-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir bench store");
    let store = Store::open(&root).expect("open store");

    // One-off publish cost (fsyncs included).
    let (report, ingest_ms) = time_millis(|| {
        store
            .ingest_csv("bench", &text, &IngestOptions::default())
            .expect("ingest")
    });
    println!(
        "ingest: {} rows, {} chunks, {} bytes in {ingest_ms:.1} ms",
        report.rows, report.chunks, report.bytes
    );

    // What a CSV-backed server pays per restart: full parse + numeric
    // extraction of every column.
    let mut csv_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (loaded, ms) = time_millis(|| {
            let doc = csv::parse(&text).expect("parse");
            let columns: Vec<Vec<f64>> = doc
                .header
                .iter()
                .map(|h| doc.numeric_column(h).expect("numeric"))
                .collect();
            columns
        });
        assert_eq!(loaded.len(), cols);
        assert_eq!(loaded[0].len(), rows);
        csv_samples.push(ms);
    }
    let csv_parse_ms = median(&mut csv_samples);

    // What the store pays: parallel chunk decode + checksum verify.
    let pool = dataflow::pool::ThreadPool::new(threads);
    let mut load_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (loaded, ms) = time_millis(|| store.load("bench", Some(&pool)).expect("load"));
        assert_eq!(loaded.rows, rows);
        assert_eq!(loaded.columns.len(), cols);
        load_samples.push(ms);
    }
    let chunk_load_ms = median(&mut load_samples);

    // The wire `attach` op's cold path: fresh catalog, nothing resident.
    let mut attach_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let catalog = Catalog::open(&root, threads).expect("catalog");
        let (resident, ms) = time_millis(|| catalog.attach("bench").expect("attach"));
        assert_eq!(resident.0.rows, rows);
        attach_samples.push(ms);
    }
    let cold_attach_ms = median(&mut attach_samples);

    let loaded = store.load("bench", Some(&pool)).expect("load for scan");
    let (_, buf) = &loaded.columns[0];

    // Predicate pushdown over the monotone key column: chunk min/max
    // statistics discard whole chunks before any value is read. The
    // predicate selects the first ~10% of the keyspace.
    let pred = dataflow::columnar::RangePredicate {
        lo: 0.0,
        hi: (rows / 10) as f64,
    };
    let (kept, prune) = buf.prune(&pred);
    let prune_rate = prune.rate();
    assert!(
        kept.len() as u64 + prune.pruned_rows == rows as u64,
        "pruned and kept rows partition the column"
    );

    let speedup = csv_parse_ms / chunk_load_ms;
    println!("csv parse   : {csv_parse_ms:>9.1} ms  ({csv_bytes} bytes of text)");
    println!(
        "chunk load  : {chunk_load_ms:>9.1} ms  ({} bytes of chunks)",
        report.bytes
    );
    println!("cold attach : {cold_attach_ms:>9.1} ms");
    println!("speedup     : {speedup:>9.2}x  (chunk load vs csv re-parse)");
    if speedup < 2.0 {
        println!("WARNING: speedup below the 2x bar");
    }
    println!(
        "prune rate  : {:>9.1}%  ({} of {} chunks, {} rows never scanned)",
        prune_rate * 100.0,
        prune.pruned_chunks,
        prune.chunks,
        prune.pruned_rows
    );

    let body = format!(
        "{{\"rows\": {rows}, \"cols\": {cols}, \"threads\": {threads}, \"iters\": {iters}, \
         \"csv_bytes\": {csv_bytes}, \"chunk_bytes\": {}, \"chunks\": {}, \
         \"ingest_ms\": {ingest_ms:.3}, \"csv_parse_ms\": {csv_parse_ms:.3}, \
         \"chunk_load_ms\": {chunk_load_ms:.3}, \"cold_attach_ms\": {cold_attach_ms:.3}, \
         \"speedup\": {speedup:.3}, \
         \"prune\": {{\"rate\": {prune_rate:.4}, \"pruned_chunks\": {}, \"chunks\": {}, \
         \"pruned_rows\": {}}}}}",
        report.bytes, report.chunks, prune.pruned_chunks, prune.chunks, prune.pruned_rows
    );
    let path = write_bench_json("STORE", &body).expect("write BENCH_STORE.json");
    println!("\nwrote {}", path.display());

    let _ = std::fs::remove_dir_all(&root);
}
