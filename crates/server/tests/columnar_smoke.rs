//! Columnar serving smoke: the full ingest → attach → cold prepare →
//! release path against real `upa-serverd` daemons, one serving a store
//! dataset in its on-disk chunks and one serving the same values as an
//! in-memory `--synthetic` dataset (a single chunk). Under the same
//! engine seed the two must release the same bits — chunk layout never
//! reaches a release — and the wire metadata must show the cold prepare
//! (`cache: miss` with a timing) turning into cache hits on repeat
//! queries.

use dataflow::partitioner::hash_key;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use upa_server::Client;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upa_columnar_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

const SEED: u64 = 77;
const ROWS: usize = 140_000;
const MODULUS: usize = 101;

fn spawn_daemon(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args([
            "--port",
            "0",
            "--epsilon",
            "0.25",
            "--sample-size",
            "64",
            "--threads",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn upa-serverd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("upa-server listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn store_and_in_memory_daemons_release_identical_bits() {
    let root = temp_dir("bits");
    let store = root.join("store");
    std::fs::create_dir_all(&store).unwrap();
    let csv = root.join("metrics.csv");
    let mut text = String::from("v\n");
    for i in 0..ROWS {
        text.push_str(&format!("{}\n", i % MODULUS));
    }
    std::fs::write(&csv, text).unwrap();

    // Publish into the store (three default-sized chunks) and attach.
    let seed = SEED.to_string();
    let (mut col_child, col_addr) = spawn_daemon(&[
        "--allow-admin",
        "--seed",
        &seed,
        "--store",
        &store.to_string_lossy(),
    ]);
    let mut col = Client::builder()
        .connect(&col_addr)
        .expect("connect store daemon");
    let (_, rows) = col
        .ingest(&csv.to_string_lossy(), Some("metrics"))
        .expect("ingest");
    assert_eq!(rows, ROWS as u64);
    col.attach("metrics").expect("attach");

    // The same values in memory, under the engine seed the attach
    // derived (configured seed ^ `hash_key` of the dataset name).
    let attach_seed = (SEED ^ hash_key("metrics")).to_string();
    let synthetic = format!("metrics={ROWS}:{MODULUS}");
    let (mut row_child, row_addr) =
        spawn_daemon(&["--seed", &attach_seed, "--synthetic", &synthetic]);
    let mut row = Client::builder()
        .connect(&row_addr)
        .expect("connect in-memory daemon");

    for (kind, column) in [("sum", "v"), ("mean", "v"), ("count", "")] {
        let a = col
            .release("metrics", kind, column, None, false)
            .expect("store release");
        let b = row
            .release("metrics", kind, column, None, false)
            .expect("in-memory release");
        assert_eq!(
            a.released.to_bits(),
            b.released.to_bits(),
            "{kind} must release identical bits whatever the chunk layout"
        );
        assert_eq!(a.noise_scale.to_bits(), b.noise_scale.to_bits());
        assert!(!a.cached, "first {kind} release pays the cold prepare");
        assert!(
            a.prepare_us.is_some(),
            "cold releases report the prepare cost"
        );
    }

    // Repeat queries are served from prepared state on both daemons.
    let warm = col
        .release("metrics", "sum", "v", None, false)
        .expect("warm release");
    assert!(warm.cached, "repeat release is a cache hit");
    assert_eq!(warm.prepare_us, None, "cache hits report no prepare cost");

    let _ = col.shutdown();
    let _ = row.shutdown();
    let _ = col_child.wait();
    let _ = row_child.wait();
    let _ = std::fs::remove_dir_all(&root);
}
