//! The on-disk store: dataset directories under one root, published
//! atomically.
//!
//! Ingest writes every chunk and the manifest into a `.tmp-*` sibling
//! directory, fsyncs each file, then renames the directory into place
//! and fsyncs the root. Readers ([`Store::datasets`], [`Store::load`])
//! only ever see fully-published datasets — a `SIGKILL` anywhere inside
//! an ingest leaves a temp directory that is ignored (and swept by the
//! next successful ingest of any dataset).

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dataflow::columnar::{ChunkStats, ColumnarBuf};
use dataflow::pool::ThreadPool;
use upa_json::Body;

use crate::chunk::{chunk_crc, decode_chunk, encode_chunk, ChunkError};
use crate::csv::{self, CsvError};
use crate::manifest::{ChunkMeta, ColumnMeta, Manifest, MANIFEST_FILE, MANIFEST_FORMAT_VERSION};

/// Test hook: sleep this many milliseconds after writing each chunk
/// file, so a crash-safety test can land a `SIGKILL` mid-ingest.
const INGEST_DELAY_ENV: &str = "UPA_STORE_INGEST_DELAY_MS";

/// Store operation failures.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure; payload is `(context, error)`.
    Io(String, std::io::Error),
    /// A dataset, manifest or chunk failed validation; the store
    /// refuses to serve it.
    Corrupt(String),
    /// The named dataset is not in the store.
    NotFound(String),
    /// Ingest target already exists and `overwrite` was not set.
    Exists(String),
    /// A dataset name the filesystem layout cannot host.
    BadName(String),
    /// The ingested data had no usable numeric columns.
    NoNumericColumns,
    /// Ingest input columns disagree on row count.
    RaggedColumns,
    /// CSV parsing failed during [`Store::ingest_csv`].
    Csv(CsvError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(what, e) => write!(f, "{what}: {e}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
            StoreError::NotFound(name) => write!(f, "dataset '{name}' is not in the store"),
            StoreError::Exists(name) => {
                write!(
                    f,
                    "dataset '{name}' already exists (pass overwrite to replace)"
                )
            }
            StoreError::BadName(name) => write!(f, "'{name}' is not a valid dataset name"),
            StoreError::NoNumericColumns => write!(f, "input has no numeric columns"),
            StoreError::RaggedColumns => write!(f, "input columns differ in length"),
            StoreError::Csv(e) => write!(f, "csv: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CsvError> for StoreError {
    fn from(e: CsvError) -> Self {
        StoreError::Csv(e)
    }
}

fn io_ctx(what: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let what = what.into();
    move |e| StoreError::Io(what, e)
}

/// Knobs for one ingest.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Values per chunk file (default 65 536 — 512 KiB of payload).
    pub chunk_rows: usize,
    /// Replace an existing dataset of the same name.
    pub overwrite: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            chunk_rows: 65_536,
            overwrite: false,
        }
    }
}

/// What one successful ingest wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Dataset name as published.
    pub dataset: String,
    /// Rows per column.
    pub rows: u64,
    /// Column names kept (numeric ones, in input order).
    pub columns: Vec<String>,
    /// Chunk files written across all columns.
    pub chunks: usize,
    /// Bytes written (chunks plus manifest).
    pub bytes: u64,
}

/// A dataset pulled fully into memory, kept in its on-disk chunk
/// layout: each column is a [`ColumnarBuf`] of `Arc`-shared chunk
/// buffers (plus manifest statistics), so the serving stack can scan
/// columnar without ever re-materialising a flat `Vec<f64>`.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// Dataset name.
    pub name: String,
    /// Rows per column.
    pub rows: usize,
    /// Columns in manifest order; chunk buffers are shared so a catalog
    /// and a server can hold the same data without copying.
    pub columns: Vec<(String, ColumnarBuf)>,
}

impl LoadedDataset {
    /// Looks up one column's chunk buffer by name.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnarBuf> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A dataset store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if absent) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Root creation failures.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(io_ctx(format!("creating store root {}", root.display())))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dataset_dir(&self, name: &str) -> Result<PathBuf, StoreError> {
        validate_name(name)?;
        Ok(self.root.join(name))
    }

    /// Names of every published dataset, sorted. Temp directories and
    /// directories without a readable manifest are invisible.
    ///
    /// # Errors
    ///
    /// Root listing failures.
    pub fn datasets(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(io_ctx(format!(
            "listing store root {}",
            self.root.display()
        )))?;
        for entry in entries {
            let entry = entry.map_err(io_ctx("listing store root"))?;
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if validate_name(&name).is_err() {
                continue; // .tmp-* and anything else unpublishable
            }
            if !entry.path().join(MANIFEST_FILE).is_file() {
                continue;
            }
            names.push(name);
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Reads and validates one dataset's manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when absent, [`StoreError::Corrupt`]
    /// when present but invalid.
    pub fn manifest(&self, name: &str) -> Result<Manifest, StoreError> {
        let path = self.dataset_dir(name)?.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(name.to_string()))
            }
            Err(e) => return Err(StoreError::Io(format!("reading {}", path.display()), e)),
        };
        let manifest = Manifest::from_json(&text)
            .map_err(|e| StoreError::Corrupt(format!("dataset '{name}': {e}")))?;
        if manifest.dataset != name {
            return Err(StoreError::Corrupt(format!(
                "dataset '{name}': manifest names '{}'",
                manifest.dataset
            )));
        }
        Ok(manifest)
    }

    /// Ingests in-memory columns as a new dataset, crash-safely.
    ///
    /// All columns must share one length; at least one column is
    /// required. The dataset is invisible until the final rename.
    ///
    /// # Errors
    ///
    /// Validation failures ([`StoreError::Exists`],
    /// [`StoreError::RaggedColumns`], …) or I/O failures; on error the
    /// store is unchanged (a leftover temp directory at worst).
    pub fn ingest(
        &self,
        name: &str,
        columns: &[(String, Vec<f64>)],
        options: &IngestOptions,
    ) -> Result<IngestReport, StoreError> {
        let final_dir = self.dataset_dir(name)?;
        if columns.is_empty() {
            return Err(StoreError::NoNumericColumns);
        }
        let rows = columns[0].1.len();
        if columns.iter().any(|(_, v)| v.len() != rows) {
            return Err(StoreError::RaggedColumns);
        }
        if final_dir.exists() && !options.overwrite {
            return Err(StoreError::Exists(name.to_string()));
        }
        let chunk_rows = options.chunk_rows.max(1);
        let delay = std::env::var(INGEST_DELAY_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(std::time::Duration::from_millis);

        self.sweep_stale_temps();
        let tmp_dir = self
            .root
            .join(format!(".tmp-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp_dir);
        fs::create_dir_all(&tmp_dir).map_err(io_ctx(format!("creating {}", tmp_dir.display())))?;

        // Write chunks; fsync each before the manifest references it.
        let mut manifest_columns = Vec::with_capacity(columns.len());
        let mut chunk_count = 0usize;
        let mut bytes = 0u64;
        for (col_idx, (col_name, values)) in columns.iter().enumerate() {
            let mut chunks = Vec::new();
            for (chunk_idx, window) in values.chunks(chunk_rows).enumerate() {
                let file = format!("c{col_idx}-{chunk_idx}.bin");
                let encoded = encode_chunk(window);
                write_fsynced(&tmp_dir.join(&file), &encoded)?;
                bytes += encoded.len() as u64;
                chunk_count += 1;
                chunks.push(ChunkMeta {
                    file,
                    rows: window.len() as u64,
                    crc: chunk_crc(window),
                    stats: ChunkStats::compute(window),
                });
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
            }
            if chunks.is_empty() {
                // A zero-row dataset still needs one (empty) chunk per
                // column so load has something to verify.
                let file = format!("c{col_idx}-0.bin");
                let encoded = encode_chunk(&[]);
                write_fsynced(&tmp_dir.join(&file), &encoded)?;
                bytes += encoded.len() as u64;
                chunk_count += 1;
                chunks.push(ChunkMeta {
                    file,
                    rows: 0,
                    crc: chunk_crc(&[]),
                    stats: ChunkStats::compute(&[]),
                });
            }
            manifest_columns.push(ColumnMeta {
                name: col_name.clone(),
                chunks,
            });
        }
        let manifest = Manifest {
            format_version: MANIFEST_FORMAT_VERSION,
            dataset: name.to_string(),
            rows: rows as u64,
            columns: manifest_columns,
        };
        let manifest_text = manifest.to_json();
        write_fsynced(&tmp_dir.join(MANIFEST_FILE), manifest_text.as_bytes())?;
        bytes += manifest_text.len() as u64;

        // Publish: replace any previous version, one atomic rename, then
        // pin the directory entry itself.
        if options.overwrite && final_dir.exists() {
            fs::remove_dir_all(&final_dir)
                .map_err(io_ctx(format!("replacing {}", final_dir.display())))?;
        }
        fs::rename(&tmp_dir, &final_dir).map_err(io_ctx(format!(
            "publishing {} -> {}",
            tmp_dir.display(),
            final_dir.display()
        )))?;
        fsync_dir(&self.root)?;

        Ok(IngestReport {
            dataset: name.to_string(),
            rows: rows as u64,
            columns: columns.iter().map(|(n, _)| n.clone()).collect(),
            chunks: chunk_count,
            bytes,
        })
    }

    /// Parses CSV text and ingests every fully-numeric column.
    ///
    /// Columns with any non-numeric cell are skipped (names and labels
    /// ride along in real exports); if none remain the ingest fails
    /// with [`StoreError::NoNumericColumns`].
    ///
    /// # Errors
    ///
    /// CSV structure errors or any [`Store::ingest`] failure.
    pub fn ingest_csv(
        &self,
        name: &str,
        text: &str,
        options: &IngestOptions,
    ) -> Result<IngestReport, StoreError> {
        let doc = csv::parse(text)?;
        let mut columns = Vec::new();
        for col_name in &doc.header {
            if let Ok(values) = doc.numeric_column(col_name) {
                columns.push((col_name.clone(), values));
            }
        }
        if columns.is_empty() {
            return Err(StoreError::NoNumericColumns);
        }
        self.ingest(name, &columns, options)
    }

    /// Loads a dataset fully into memory, decoding chunks in parallel
    /// on `pool` when one is given.
    ///
    /// Every chunk's checksum is verified against both its own trailer
    /// and the manifest's recorded value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::Corrupt`] or I/O
    /// failures.
    pub fn load(&self, name: &str, pool: Option<&ThreadPool>) -> Result<LoadedDataset, StoreError> {
        let manifest = self.manifest(name)?;
        let dir = self.dataset_dir(name)?;

        // One job per chunk, tagged with its column index so columns
        // reassemble in order afterwards.
        let mut jobs: Vec<(usize, PathBuf, ChunkMeta)> = Vec::new();
        for (col_idx, col) in manifest.columns.iter().enumerate() {
            for chunk in &col.chunks {
                jobs.push((col_idx, dir.join(&chunk.file), chunk.clone()));
            }
        }
        let decoded: Vec<_> = match pool {
            Some(pool) if jobs.len() > 1 => {
                pool.map_ordered(jobs, Arc::new(|_, job| load_chunk_job(job)))
            }
            _ => jobs.into_iter().map(load_chunk_job).collect(),
        };

        // Jobs were pushed column-major and map_ordered preserves input
        // order, so chunks land back in manifest order per column.
        let mut columns: Vec<(String, Vec<Arc<[f64]>>)> = manifest
            .columns
            .iter()
            .map(|c| (c.name.clone(), Vec::new()))
            .collect();
        for outcome in decoded {
            let (col_idx, chunk) = outcome?;
            columns[col_idx].1.push(chunk);
        }
        let rows = usize::try_from(manifest.rows)
            .map_err(|_| StoreError::Corrupt(format!("dataset '{name}': rows overflow")))?;
        let columns: Vec<(String, ColumnarBuf)> = columns
            .into_iter()
            .map(|(n, chunks)| (n, ColumnarBuf::new(chunks)))
            .collect();
        for (col_name, buf) in &columns {
            if buf.len() != rows {
                return Err(StoreError::Corrupt(format!(
                    "dataset '{name}', column '{col_name}': loaded {} rows, manifest says {rows}",
                    buf.len()
                )));
            }
        }
        Ok(LoadedDataset {
            name: name.to_string(),
            rows,
            columns,
        })
    }

    /// Removes leftover `.tmp-*` directories from ingests that died
    /// before publishing. Only sweeps temps owned by dead processes is
    /// impossible to know portably, so this runs at the start of an
    /// ingest where a concurrent ingest into the same store is already
    /// undefined.
    fn sweep_stale_temps(&self) {
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
    }
}

fn load_chunk_job(job: (usize, PathBuf, ChunkMeta)) -> Result<(usize, Arc<[f64]>), StoreError> {
    let (col_idx, path, meta) = job;
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(io_ctx(format!("reading chunk {}", path.display())))?;
    let values = decode_chunk(&bytes)
        .map_err(|e: ChunkError| StoreError::Corrupt(format!("chunk {}: {e}", path.display())))?;
    if values.len() as u64 != meta.rows {
        return Err(StoreError::Corrupt(format!(
            "chunk {}: holds {} rows, manifest says {}",
            path.display(),
            values.len(),
            meta.rows
        )));
    }
    let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if trailer != meta.crc {
        return Err(StoreError::Corrupt(format!(
            "chunk {}: checksum {:#010x} does not match manifest {:#010x}",
            path.display(),
            trailer,
            meta.crc
        )));
    }
    Ok((col_idx, Arc::from(values)))
}

fn write_fsynced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = File::create(path).map_err(io_ctx(format!("creating {}", path.display())))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(io_ctx(format!("writing {}", path.display())))
}

/// Fsyncs a directory so a just-renamed entry survives power loss. Not
/// every platform supports opening a directory for sync; failures there
/// degrade durability, not atomicity, so they are ignored.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::BadName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("upa_store_tests")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_columns() -> Vec<(String, Vec<f64>)> {
        vec![
            ("age".into(), vec![41.0, 17.0, 29.0, 55.0, 30.0]),
            ("hours".into(), vec![40.0, 12.0, 38.0, 45.0, 40.0]),
        ]
    }

    #[test]
    fn ingest_then_load_round_trips() {
        let root = temp_root("round_trip");
        let store = Store::open(&root).unwrap();
        let report = store
            .ingest("adult", &sample_columns(), &IngestOptions::default())
            .unwrap();
        assert_eq!(report.rows, 5);
        assert_eq!(report.columns, vec!["age", "hours"]);
        assert_eq!(store.datasets().unwrap(), vec!["adult"]);

        let loaded = store.load("adult", None).unwrap();
        assert_eq!(loaded.rows, 5);
        assert_eq!(loaded.columns[0].0, "age");
        assert_eq!(
            loaded.columns[0].1.to_vec(),
            vec![41.0, 17.0, 29.0, 55.0, 30.0]
        );
        let stats = store.manifest("adult").unwrap().columns[0].stats();
        assert_eq!((stats.min, stats.max), (17.0, 55.0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn multi_chunk_datasets_reassemble_in_order() {
        let root = temp_root("multi_chunk");
        let store = Store::open(&root).unwrap();
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let columns = vec![("v".to_string(), values.clone())];
        let options = IngestOptions {
            chunk_rows: 64,
            overwrite: false,
        };
        let report = store.ingest("big", &columns, &options).unwrap();
        assert_eq!(report.chunks, 16); // ceil(1000 / 64)

        let pool = ThreadPool::new(4);
        let loaded = store.load("big", Some(&pool)).unwrap();
        assert_eq!(loaded.columns[0].1.to_vec(), values);
        assert_eq!(loaded.columns[0].1.num_chunks(), 16);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn refuses_overwrite_unless_asked() {
        let root = temp_root("overwrite");
        let store = Store::open(&root).unwrap();
        let options = IngestOptions::default();
        store.ingest("d", &sample_columns(), &options).unwrap();
        assert!(matches!(
            store.ingest("d", &sample_columns(), &options),
            Err(StoreError::Exists(_))
        ));
        let replace = IngestOptions {
            overwrite: true,
            ..IngestOptions::default()
        };
        let smaller = vec![("x".to_string(), vec![1.0])];
        store.ingest("d", &smaller, &replace).unwrap();
        assert_eq!(store.load("d", None).unwrap().rows, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_ingest_is_invisible() {
        let root = temp_root("torn");
        let store = Store::open(&root).unwrap();
        // Simulate a crash mid-ingest: a temp directory with real
        // content but no published rename.
        let tmp = root.join(".tmp-victim-12345");
        fs::create_dir_all(&tmp).unwrap();
        fs::write(tmp.join("c0-0.bin"), encode_chunk(&[1.0, 2.0])).unwrap();
        assert!(store.datasets().unwrap().is_empty());
        assert!(matches!(
            store.load("victim", None),
            Err(StoreError::NotFound(_))
        ));
        // The next ingest sweeps the debris.
        store
            .ingest("ok", &sample_columns(), &IngestOptions::default())
            .unwrap();
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_chunk_refuses_to_load() {
        let root = temp_root("corrupt");
        let store = Store::open(&root).unwrap();
        store
            .ingest("d", &sample_columns(), &IngestOptions::default())
            .unwrap();
        let chunk = root.join("d").join("c0-0.bin");
        let mut bytes = fs::read(&chunk).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&chunk, &bytes).unwrap();
        assert!(matches!(store.load("d", None), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chunk_swapped_between_columns_is_caught() {
        let root = temp_root("swap");
        let store = Store::open(&root).unwrap();
        store
            .ingest("d", &sample_columns(), &IngestOptions::default())
            .unwrap();
        // Both chunks are self-consistent; the manifest crc binding is
        // the only thing that notices the swap.
        let a = root.join("d").join("c0-0.bin");
        let b = root.join("d").join("c1-0.bin");
        let bytes_a = fs::read(&a).unwrap();
        let bytes_b = fs::read(&b).unwrap();
        fs::write(&a, &bytes_b).unwrap();
        fs::write(&b, &bytes_a).unwrap();
        assert!(matches!(store.load("d", None), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rejects_hostile_names_and_ragged_input() {
        let root = temp_root("names");
        let store = Store::open(&root).unwrap();
        let options = IngestOptions::default();
        for bad in ["", "..", "a/b", ".hidden", "x\\y"] {
            assert!(matches!(
                store.ingest(bad, &sample_columns(), &options),
                Err(StoreError::BadName(_))
            ));
        }
        let ragged = vec![
            ("a".to_string(), vec![1.0, 2.0]),
            ("b".to_string(), vec![1.0]),
        ];
        assert!(matches!(
            store.ingest("d", &ragged, &options),
            Err(StoreError::RaggedColumns)
        ));
        assert!(matches!(
            store.ingest("d", &[], &options),
            Err(StoreError::NoNumericColumns)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn ingest_csv_keeps_numeric_columns_only() {
        let root = temp_root("csv");
        let store = Store::open(&root).unwrap();
        let text = "age,name,hours\n41,alice,40\n17,bob,12\n";
        let report = store
            .ingest_csv("people", text, &IngestOptions::default())
            .unwrap();
        assert_eq!(report.columns, vec!["age", "hours"]);
        let loaded = store.load("people", None).unwrap();
        assert_eq!(loaded.rows, 2);
        assert!(matches!(
            store.ingest_csv("words", "a,b\nx,y\n", &IngestOptions::default()),
            Err(StoreError::NoNumericColumns)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_row_dataset_round_trips() {
        let root = temp_root("zero");
        let store = Store::open(&root).unwrap();
        let columns = vec![("v".to_string(), Vec::new())];
        store
            .ingest("empty", &columns, &IngestOptions::default())
            .unwrap();
        let loaded = store.load("empty", None).unwrap();
        assert_eq!(loaded.rows, 0);
        assert_eq!(loaded.columns.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }
}
