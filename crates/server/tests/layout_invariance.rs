//! A served release does not depend on how its column is laid out or
//! scanned: the same values ingested with two chunk sizes and served on
//! engines of one and two threads (so over different slab counts) release
//! the same bits for `sum`, `mean` and `count`. Each half's remainder is
//! the correctly rounded exact sum of its un-sampled records, so no chunk,
//! slab or thread boundary reaches it.

use std::path::{Path, PathBuf};
use upa_server::{AggKind, ServerConfig, ServerState};
use upa_store::{IngestOptions, Store};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "upa_layout_invariance_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingest(dir: &Path, values: &[f64], chunk_rows: usize) {
    Store::open(dir)
        .unwrap()
        .ingest(
            "cols",
            &[("v".to_string(), values.to_vec())],
            &IngestOptions {
                chunk_rows,
                overwrite: false,
            },
        )
        .unwrap();
}

/// `[released, noise_scale, sensitivity, lo, hi]` of each aggregate's
/// first release.
fn release_bits(dir: &Path, threads: usize) -> Vec<[u64; 5]> {
    let state = ServerState::new(ServerConfig {
        epsilon: 0.3,
        sample_size: 50,
        threads,
        store_path: Some(dir.to_path_buf()),
        attach: vec!["cols".to_string()],
        ..ServerConfig::default()
    })
    .unwrap();
    [AggKind::Sum, AggKind::Mean, AggKind::Count]
        .into_iter()
        .map(|kind| {
            let out = state.release("cols", kind, "v", None, true).unwrap();
            let audit = out.audit.expect("audit requested");
            [
                out.released.to_bits(),
                out.noise_scale.to_bits(),
                audit.sensitivity[0].to_bits(),
                audit.range[0].0.to_bits(),
                audit.range[0].1.to_bits(),
            ]
        })
        .collect()
}

#[test]
fn chunk_size_and_thread_count_never_reach_a_release() {
    // Fractional values of both signs: a float fold of them depends on
    // its grouping in the low bits.
    let values: Vec<f64> = (0..20_000u32)
        .map(|i| (f64::from(i) * 0.7).sin() * 1e3)
        .collect();
    let (small, large) = (temp_store("small"), temp_store("large"));
    ingest(&small, &values, 300);
    ingest(&large, &values, 7_000);
    let reference = release_bits(&small, 1);
    for (dir, threads) in [(&small, 2), (&large, 1), (&large, 2)] {
        assert_eq!(
            release_bits(dir, threads),
            reference,
            "{} with {threads} threads released other bits",
            dir.display()
        );
    }
    let _ = std::fs::remove_dir_all(&small);
    let _ = std::fs::remove_dir_all(&large);
}
