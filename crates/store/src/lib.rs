//! `upa-store`: a persistent columnar dataset store with a live catalog.
//!
//! The serving daemon historically answered queries only over datasets
//! baked in at startup — synthetic columns or a one-shot CSV slurp.
//! This crate is the durable second half: datasets live on disk as
//! checksummed, fixed-width binary column chunks under a JSON manifest,
//! and an in-memory [`Catalog`] attaches, detaches and reloads them
//! without restarting the process that serves them.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   <dataset>/
//!     manifest.json        schema, row count, chunk list, format version
//!     c0-0.bin             column 0, chunk 0 (f64 LE + FNV-1a trailer)
//!     c0-1.bin             column 0, chunk 1
//!     c1-0.bin             column 1, chunk 0
//!   .tmp-<dataset>-<pid>/  an in-flight (or torn) ingest — never visible
//! ```
//!
//! Ingest is crash-safe the same way the server's budget ledger is
//! durable: everything is written into a temporary directory, fsync'd,
//! and published with one atomic `rename`. A process killed mid-ingest
//! leaves a `.tmp-*` directory that every reader ignores; the dataset
//! simply does not exist.
//!
//! The crate is std-only (plus the workspace's own `dataflow` pool for
//! parallel chunk loads) — no serde, no memmap, no external crates.

mod catalog;
mod chunk;
pub mod csv;
pub mod fnv;
mod manifest;
mod store;

pub use catalog::Catalog;
pub use chunk::{chunk_crc, decode_chunk, encode_chunk, ChunkError, CHUNK_FORMAT_VERSION};
pub use manifest::{ChunkMeta, ColumnMeta, Manifest, MANIFEST_FILE};
pub use store::{IngestOptions, IngestReport, LoadedDataset, Store, StoreError};
