//! The `ingest` and `datasets` subcommands: publish CSV files into a
//! persistent columnar store, and list what a store (or a running
//! server) holds.
//!
//! ```text
//! upa-cli ingest people.csv --store ./store
//! upa-cli datasets --store ./store
//! upa-cli datasets --addr 127.0.0.1:7878
//! ```
//!
//! `ingest` writes through [`upa_store::Store::ingest_csv`]: fixed-width
//! checksummed column chunks published by one atomic rename, so a
//! crash mid-ingest leaves no visible dataset. `datasets` reads either
//! the on-disk manifests directly (`--store`) or a live server's
//! catalog view (`--addr`), which also distinguishes *served* from
//! merely *available* datasets.

use std::path::{Path, PathBuf};
use upa_server::flags::Command;
use upa_server::Client;
use upa_store::{IngestOptions, Store};

/// Parsed `ingest` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// CSV file to publish.
    pub input: String,
    /// Store directory.
    pub store: PathBuf,
    /// Dataset name (default: the input's file stem).
    pub name: Option<String>,
    /// Rows per column chunk.
    pub chunk_rows: usize,
    /// Replace an existing dataset of the same name.
    pub overwrite: bool,
}

impl Default for IngestArgs {
    fn default() -> Self {
        IngestArgs {
            input: String::new(),
            store: PathBuf::new(),
            name: None,
            chunk_rows: IngestOptions::default().chunk_rows,
            overwrite: false,
        }
    }
}

/// The `ingest` command's command line.
pub const INGEST: Command<IngestArgs> = Command {
    about: "publish a CSV file into a columnar store",
    synopsis: &["FILE.csv --store DIR [OPTIONS]"],
    detail: "Publishes a CSV file into the persistent columnar store at DIR. Every \
             fully numeric column is kept; other columns are skipped. The dataset \
             becomes visible atomically: a crash mid-ingest leaves nothing behind.",
    flags: upa_server::flags![
        "--input" "FILE.csv" set input: "The CSV file, also accepted as the one bare argument";
        "--store" "DIR" set store: "Store directory (required)";
        "--name" "NAME" some name: "Dataset name (the file's stem if absent)";
        "--chunk-rows" "N" value chunk_rows: "Rows per column chunk";
        "--overwrite" "" switch overwrite: "Replace an existing dataset of the same name";
    ],
    positional: |args, file| {
        let free = args.input.is_empty();
        if free {
            args.input = file.to_string();
        }
        free
    },
    check: |args| {
        if args.input.is_empty() {
            return Err("an input CSV file is required".into());
        }
        if args.store.as_os_str().is_empty() {
            return Err("--store is required".into());
        }
        Ok(())
    },
};

impl IngestArgs {
    /// Parses `ingest` flags as [`INGEST`] does; `--help` is an error
    /// carrying the usage.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<IngestArgs, String> {
        INGEST
            .parse(argv)?
            .ok_or_else(|| INGEST.usage("upa-cli ingest"))
    }
}

/// The `ingest` subcommand: parse the CSV, write chunks, publish
/// atomically. Returns the printable report.
///
/// # Errors
///
/// I/O, CSV, or store failures as printable messages.
pub fn run_ingest(args: &IngestArgs) -> Result<String, String> {
    let name = match &args.name {
        Some(name) => name.clone(),
        None => Path::new(&args.input)
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
            .ok_or_else(|| format!("cannot derive a dataset name from '{}'", args.input))?,
    };
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let store = Store::open(&args.store).map_err(|e| e.to_string())?;
    let report = store
        .ingest_csv(
            &name,
            &text,
            &IngestOptions {
                chunk_rows: args.chunk_rows,
                overwrite: args.overwrite,
            },
        )
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "ingested '{}' into {}\n  rows    : {}\n  columns : {}\n  chunks  : {}\n  bytes   : {}",
        report.dataset,
        args.store.display(),
        report.rows,
        report.columns.join(", "),
        report.chunks,
        report.bytes,
    ))
}

/// Parsed `datasets` arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetsArgs {
    /// Local store directory to list.
    pub store: Option<PathBuf>,
    /// Running daemon to ask instead.
    pub addr: Option<String>,
}

/// The `datasets` command's command line.
pub const DATASETS: Command<DatasetsArgs> = Command {
    about: "list the datasets of a store or a daemon",
    synopsis: &["--store DIR", "--addr HOST:PORT"],
    detail: "With --store, reads the manifests in the store directory. With --addr, \
             asks a running daemon for its catalog view: datasets served (with row \
             counts and resident bytes) and datasets in its store but not attached.",
    flags: upa_server::flags![
        "--store" "DIR" some store: "Store directory to list";
        "--addr" "HOST:PORT" some addr: "Daemon to ask instead";
    ],
    positional: |_, _| false,
    check: |args| {
        if args.store.is_none() == args.addr.is_none() {
            return Err("exactly one of --store or --addr is required".into());
        }
        Ok(())
    },
};

impl DatasetsArgs {
    /// Parses `datasets` flags as [`DATASETS`] does; `--help` is an
    /// error carrying the usage.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<DatasetsArgs, String> {
        DATASETS
            .parse(argv)?
            .ok_or_else(|| DATASETS.usage("upa-cli datasets"))
    }
}

/// Lists a local store directory's datasets from their manifests.
///
/// # Errors
///
/// Store-open or manifest failures as printable messages.
pub fn list_store(store_dir: &Path) -> Result<String, String> {
    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let names = store.datasets().map_err(|e| e.to_string())?;
    if names.is_empty() {
        return Ok(format!("no datasets in {}", store_dir.display()));
    }
    let mut out = format!("datasets in {}:\n", store_dir.display());
    for name in names {
        let manifest = store.manifest(&name).map_err(|e| e.to_string())?;
        out.push_str(&format!("  {name:<20} {:>10} rows\n", manifest.rows));
        for col in &manifest.columns {
            let s = col.stats();
            let range = if s.count > s.nan_count {
                let nan = if s.nan_count > 0 {
                    format!("   ({} NaN)", s.nan_count)
                } else {
                    String::new()
                };
                format!("range {} .. {}{nan}", s.min, s.max)
            } else {
                "range (no finite values)".to_string()
            };
            let chunks = col.chunks.len();
            let plural = if chunks == 1 { "chunk " } else { "chunks" };
            out.push_str(&format!(
                "      {:<16} {chunks:>6} {plural}   {range}\n",
                col.name,
            ));
        }
    }
    Ok(out.trim_end().to_string())
}

/// Lists a running daemon's catalog view: served and available datasets.
///
/// # Errors
///
/// Connection or protocol failures as printable messages.
pub fn list_remote(addr: &str) -> Result<String, String> {
    let mut client = Client::builder()
        .connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client.datasets_info().map_err(|e| e.to_string())?;
    let mut out = String::new();
    if reply.info.is_empty() {
        out.push_str("no datasets served\n");
    } else {
        out.push_str("served:\n");
        for info in &reply.info {
            out.push_str(&format!(
                "  {:<20} {:>10} rows   {:>12} bytes   columns: {}\n",
                info.name,
                info.rows,
                info.resident_bytes,
                info.columns.join(", "),
            ));
        }
    }
    if !reply.available.is_empty() {
        out.push_str(&format!(
            "available to attach: {}\n",
            reply.available.join(", ")
        ));
    }
    Ok(out.trim_end().to_string())
}

/// The `datasets` subcommand.
///
/// # Errors
///
/// Store or connection failures as printable messages.
pub fn run_datasets(args: &DatasetsArgs) -> Result<String, String> {
    match (&args.store, &args.addr) {
        (Some(dir), None) => list_store(dir),
        (None, Some(addr)) => list_remote(addr),
        _ => Err("exactly one of --store or --addr is required".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("upa_store_cmd_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_ingest_flags() {
        let a = IngestArgs::parse(argv(
            "people.csv --store ./s --name folks --chunk-rows 1024 --overwrite",
        ))
        .unwrap();
        assert_eq!(a.input, "people.csv");
        assert_eq!(a.store, PathBuf::from("./s"));
        assert_eq!(a.name.as_deref(), Some("folks"));
        assert_eq!(a.chunk_rows, 1024);
        assert!(a.overwrite);
        // --input also works, and both store and input are required.
        let b = IngestArgs::parse(argv("--input x.csv --store ./s")).unwrap();
        assert_eq!(b.input, "x.csv");
        assert!(IngestArgs::parse(argv("--store ./s")).is_err());
        assert!(IngestArgs::parse(argv("x.csv")).is_err());
    }

    #[test]
    fn parses_datasets_flags() {
        let a = DatasetsArgs::parse(argv("--store ./s")).unwrap();
        assert_eq!(a.store, Some(PathBuf::from("./s")));
        let b = DatasetsArgs::parse(argv("--addr 127.0.0.1:1")).unwrap();
        assert_eq!(b.addr.as_deref(), Some("127.0.0.1:1"));
        assert!(
            DatasetsArgs::parse(argv("")).is_err(),
            "one source required"
        );
        assert!(
            DatasetsArgs::parse(argv("--store ./s --addr x:1")).is_err(),
            "not both"
        );
    }

    #[test]
    fn ingest_then_list_round_trip() {
        let dir = temp_dir("roundtrip");
        let csv = dir.join("people.csv");
        std::fs::write(&csv, "age,name,score\n31,ada,9.5\n44,lin,7.25\n").unwrap();
        let args = IngestArgs {
            input: csv.to_string_lossy().into_owned(),
            store: dir.join("store"),
            ..IngestArgs::default()
        };
        let report = run_ingest(&args).unwrap();
        assert!(report.contains("ingested 'people'"));
        assert!(report.contains("rows    : 2"));
        assert!(
            report.contains("age, score"),
            "name column skipped: {report}"
        );

        let listing = list_store(&dir.join("store")).unwrap();
        assert!(listing.contains("people"));
        assert!(listing.contains("2 rows"));
        // Per-column chunk counts and ingest-time value ranges.
        assert!(listing.contains("age"), "{listing}");
        assert!(listing.contains("score"), "{listing}");
        assert!(listing.contains("1 chunk"), "{listing}");
        assert!(listing.contains("range 31 .. 44"), "{listing}");
        assert!(listing.contains("range 7.25 .. 9.5"), "{listing}");

        // Re-ingesting without --overwrite refuses; with it, replaces.
        assert!(run_ingest(&args).unwrap_err().contains("exists"));
        let again = IngestArgs {
            overwrite: true,
            ..args
        };
        assert!(run_ingest(&again).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_lists_cleanly() {
        let dir = temp_dir("empty");
        let listing = list_store(&dir).unwrap();
        assert!(listing.contains("no datasets"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
