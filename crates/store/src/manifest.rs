//! The per-dataset JSON manifest: schema, row count, chunk list and
//! format version. The manifest is the only name→file indirection in
//! the store — chunk files carry opaque generated names (`c0-1.bin`),
//! so hostile column names never touch the filesystem.
//!
//! # Chunk statistics
//!
//! Every chunk entry carries its ingest-time statistics (`min_bits`,
//! `max_bits`, `nan_count`): min/max over non-NaN values as f64 **bit
//! patterns in hex**, because JSON numbers can neither carry ±inf nor
//! round-trip a u64 bit pattern exactly. The stats value count is the
//! chunk's `rows`. There is one manifest version; any other is rejected.

use dataflow::columnar::ChunkStats;
use upa_json::{put, take, take_with, Body, Json, Via};

/// File name of the manifest inside a dataset directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The manifest schema version (chunk statistics included).
pub const MANIFEST_FORMAT_VERSION: u32 = 2;

/// One chunk of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// File name inside the dataset directory.
    pub file: String,
    /// Number of values in the chunk.
    pub rows: u64,
    /// The chunk file's FNV-1a trailer, repeated here so a chunk file
    /// swapped for another (self-consistent) one is still caught.
    pub crc: u32,
    /// Ingest-time value statistics.
    pub stats: ChunkStats,
}

/// One column and its chunk list, in row order.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name as ingested.
    pub name: String,
    /// Chunks concatenated in order reconstruct the column.
    pub chunks: Vec<ChunkMeta>,
}

impl ColumnMeta {
    /// The union of this column's chunk statistics.
    #[must_use]
    pub fn stats(&self) -> ChunkStats {
        self.chunks
            .iter()
            .fold(ChunkStats::compute(&[]), |acc, c| acc.merge(&c.stats))
    }
}

/// The dataset manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest schema version the dataset was written with.
    pub format_version: u32,
    /// Dataset name (matches the directory name).
    pub dataset: String,
    /// Total row count; every column's chunks sum to this.
    pub rows: u64,
    /// Columns in ingest order.
    pub columns: Vec<ColumnMeta>,
}

impl Manifest {
    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem:
    /// bad JSON, a missing or mistyped field, an unsupported format
    /// version, a chunk file name that could leave the dataset directory,
    /// per-column chunk rows that do not sum to the dataset row count, or
    /// a duplicate column name.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let doc = upa_json::parse(text).map_err(|e| format!("manifest is not JSON: {e}"))?;
        // The version first: another version's fields are not this one's.
        let version: u32 = take(&doc, "format_version")?;
        if version != MANIFEST_FORMAT_VERSION {
            return Err(format!(
                "unsupported manifest format version {version} \
                 (this build reads version {MANIFEST_FORMAT_VERSION})"
            ));
        }
        let manifest = Manifest::take_fields(&doc)?;
        for ColumnMeta { name, chunks } in &manifest.columns {
            let mut total = 0u64;
            for ChunkMeta { file, rows, .. } in chunks {
                if file.contains('/') || file.contains('\\') || file.starts_with('.') {
                    return Err(format!("column '{name}': suspicious chunk file '{file}'"));
                }
                total = total
                    .checked_add(*rows)
                    .ok_or_else(|| format!("column '{name}': chunk rows overflow"))?;
            }
            if total != manifest.rows {
                return Err(format!(
                    "column '{name}': chunks hold {total} rows, manifest says {}",
                    manifest.rows
                ));
            }
        }
        let mut names: Vec<&str> = manifest.columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate column name in manifest".into());
        }
        Ok(manifest)
    }

    /// Total bytes the dataset occupies once resident (values only).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.rows * 8 * self.columns.len() as u64
    }
}

// The manifest is a file of its own, so its line ends with a newline.
upa_json::body! {
    Manifest { format_version, dataset, rows, columns } + "\n"
    ColumnMeta { name, chunks }
}

/// The statistics' value count is the chunk's `rows`, not a row of its
/// own.
impl Body for ChunkMeta {
    fn put_fields(&self, out: &mut String) {
        put(out, "file", &self.file);
        put(out, "rows", &self.rows);
        put(out, "crc", &self.crc);
        HexBits::put(out, "min_bits", &self.stats.min);
        HexBits::put(out, "max_bits", &self.stats.max);
        put(out, "nan_count", &self.stats.nan_count);
    }
    fn take_fields(v: &Json) -> Result<Self, String> {
        let rows = take(v, "rows")?;
        Ok(ChunkMeta {
            file: take(v, "file")?,
            rows,
            crc: take(v, "crc")?,
            stats: ChunkStats {
                min: HexBits::take(v, "min_bits")?,
                max: HexBits::take(v, "max_bits")?,
                count: rows,
                nan_count: take(v, "nan_count")?,
            },
        })
    }
}

/// An f64 as a string of its 16-hex-digit bit pattern, so ±inf and exact
/// values survive the round trip.
struct HexBits;

impl Via<f64> for HexBits {
    fn put(out: &mut String, name: &str, x: &f64) {
        put(out, name, &format!("{:016x}", x.to_bits()));
    }
    fn take(v: &Json, name: &str) -> Result<f64, String> {
        take_with(v, name, |v| {
            v.as_str()
                .filter(|hex| hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(f64::from_bits)
                .ok_or_else(|| "must be 16 hex digits".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(min: f64, max: f64, count: u64, nan_count: u64) -> ChunkStats {
        ChunkStats {
            min,
            max,
            count,
            nan_count,
        }
    }

    fn sample() -> Manifest {
        Manifest {
            format_version: MANIFEST_FORMAT_VERSION,
            dataset: "adult".into(),
            rows: 5,
            columns: vec![
                ColumnMeta {
                    name: "age".into(),
                    chunks: vec![
                        ChunkMeta {
                            file: "c0-0.bin".into(),
                            rows: 3,
                            crc: 17,
                            stats: stats(17.0, 41.0, 3, 0),
                        },
                        ChunkMeta {
                            file: "c0-1.bin".into(),
                            rows: 2,
                            crc: 99,
                            stats: stats(30.0, 55.0, 2, 0),
                        },
                    ],
                },
                ColumnMeta {
                    name: "hours \"odd\" name".into(),
                    chunks: vec![ChunkMeta {
                        file: "c1-0.bin".into(),
                        rows: 5,
                        crc: 3,
                        stats: stats(12.0, 45.0, 5, 0),
                    }],
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn manifest_recorded_before_the_shared_codec_attaches_unchanged() {
        // Written by the build that still had the store's private JSON
        // module; on-disk datasets outlive the code that wrote them.
        let recorded = concat!(
            r#"{"format_version":2,"dataset":"adult \"x\"\n","rows":3,"columns":[{"name":"a\tge\\é","#,
            r#""chunks":[{"file":"c0-0.bin","rows":3,"crc":4000000000,"#,
            r#""min_bits":"fff0000000000000","max_bits":"4044c00000000000","nan_count":1}]}]}"#,
            "\n",
        );
        let m = Manifest::from_json(recorded).unwrap();
        assert_eq!(m.dataset, "adult \"x\"\n");
        assert_eq!(m.columns[0].name, "a\tge\\é");
        let chunk = &m.columns[0].chunks[0];
        assert_eq!(chunk.crc, 4_000_000_000);
        assert_eq!(chunk.stats, stats(f64::NEG_INFINITY, 41.5, 3, 1));
        assert_eq!(m.to_json(), recorded);
    }

    #[test]
    fn malformed_json_errors_carry_offset_and_echo() {
        let err = Manifest::from_json("{\"format_version\":2,!}").unwrap_err();
        assert!(
            err.starts_with("manifest is not JSON: invalid JSON at byte 20:"),
            "{err}"
        );
        assert!(err.contains("(near '"), "{err}");
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let mut m = sample();
        m.rows = 6;
        let err = Manifest::from_json(&m.to_json()).unwrap_err();
        assert!(err.contains("rows"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_duplicate_columns_and_bad_files() {
        let mut m = sample();
        m.columns[1].name = "age".into();
        assert!(Manifest::from_json(&m.to_json())
            .unwrap_err()
            .contains("duplicate"));

        let mut m = sample();
        m.columns[0].chunks[0].file = "../escape.bin".into();
        assert!(Manifest::from_json(&m.to_json())
            .unwrap_err()
            .contains("suspicious"));
    }

    #[test]
    fn rejects_future_version_and_garbage() {
        let text = sample()
            .to_json()
            .replace("\"format_version\":2", "\"format_version\":3");
        assert!(Manifest::from_json(&text).unwrap_err().contains("version"));
        let text = sample()
            .to_json()
            .replace("\"format_version\":2", "\"format_version\":0");
        assert!(Manifest::from_json(&text).unwrap_err().contains("version"));
        assert!(Manifest::from_json("not json").is_err());
    }

    #[test]
    fn stats_round_trip_nan_and_infinities_exactly() {
        let mut m = sample();
        m.rows = 3;
        m.columns = vec![ColumnMeta {
            name: "v".into(),
            chunks: vec![ChunkMeta {
                file: "c0-0.bin".into(),
                rows: 3,
                crc: 1,
                stats: stats(f64::NEG_INFINITY, f64::INFINITY, 3, 2),
            }],
        }];
        let back = Manifest::from_json(&m.to_json()).unwrap();
        let s = back.columns[0].chunks[0].stats;
        assert_eq!(s.min, f64::NEG_INFINITY);
        assert_eq!(s.max, f64::INFINITY);
        assert_eq!(s.nan_count, 2);
        assert_eq!(s.count, 3);

        // An all-NaN chunk has the empty range (+inf, -inf).
        let empty = ChunkStats::compute(&[f64::NAN]);
        m.columns[0].chunks[0].stats = ChunkStats { count: 3, ..empty };
        let back = Manifest::from_json(&m.to_json()).unwrap();
        let s = back.columns[0].chunks[0].stats;
        assert_eq!(s.min.to_bits(), f64::INFINITY.to_bits());
        assert_eq!(s.max.to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn v1_manifest_without_stats_is_rejected() {
        // The exact document a pre-stats build wrote: version 1, no
        // stats fields anywhere. No such store ever shipped.
        let text = concat!(
            "{\"format_version\":1,\"dataset\":\"old\",\"rows\":4,",
            "\"columns\":[{\"name\":\"v\",\"chunks\":[",
            "{\"file\":\"c0-0.bin\",\"rows\":4,\"crc\":123}]}]}\n"
        );
        let err = Manifest::from_json(text).unwrap_err();
        assert!(err.contains("version 1"), "unexpected error: {err}");
        // A current-version document must carry the stats fields too.
        let text = text.replace("\"format_version\":1", "\"format_version\":2");
        assert!(Manifest::from_json(&text).unwrap_err().contains("min_bits"));
    }

    #[test]
    fn column_stats_union_chunks() {
        let m = sample();
        let s = m.columns[0].stats();
        assert_eq!((s.min, s.max), (17.0, 55.0));
        assert_eq!(s.count, 5);
    }

    #[test]
    fn resident_bytes_counts_values() {
        assert_eq!(sample().resident_bytes(), 5 * 8 * 2);
    }
}
