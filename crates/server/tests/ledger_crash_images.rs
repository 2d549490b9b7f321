//! Crash images of the spend ledger.
//!
//! Per batch the ledger does one positional write at its logical end and
//! one `sync_data`, plus a write of zeros whenever the batch crosses the
//! end of the file. So every state a crash can leave is a file image that
//! can be built byte by byte: any prefix of the batch over the zero tail,
//! a later part of the batch over a still-zero earlier part, a grown or a
//! not-yet-grown extent, a ledger written before preallocation, a failed
//! batch and the shorter one after it. Reopening each image must give
//!
//! > the acknowledged records plus only the complete records of the torn
//! > batch — never fewer than acknowledged,
//!
//! leave nothing but zeros past the logical end, and take a clean write
//! and reopen afterwards. A complete, checksum-valid record after a hole
//! is the one image that must refuse, naming where the record starts.

use std::io::ErrorKind;
use std::path::PathBuf;
use upa_server::{Ledger, SpendRecord};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_ledger_crash_images");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spend(query_id: &str, epsilon: f64) -> SpendRecord {
    SpendRecord {
        dataset: "data".into(),
        query_id: query_id.into(),
        epsilon,
    }
}

/// The ledger lines of `records`, newline-terminated.
fn text(records: &[SpendRecord]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| (r.to_line() + "\n").into_bytes())
        .collect()
}

/// The history every image starts from: acknowledged, hence durable.
fn acknowledged() -> Vec<SpendRecord> {
    vec![
        spend("data/sum/v", 0.25),
        spend("data/count/", 0.125),
        spend("data/mean/v", 0.0625),
    ]
}

/// The batch in flight when the crash hits. Its middle record's id is
/// non-ASCII, so some prefixes end inside a character.
fn in_flight() -> Vec<SpendRecord> {
    vec![
        spend("data/sum/w", 0.1),
        spend("data/mean/été", 0.2),
        spend("data/count/", 0.3),
    ]
}

/// Where each record's line starts and where its JSON ends (newline
/// excluded) within `text(records)`.
fn spans(records: &[SpendRecord]) -> Vec<(usize, usize)> {
    let mut at = 0;
    records
        .iter()
        .map(|r| {
            let len = r.to_line().len();
            let span = (at, at + len);
            at += len + 1;
            span
        })
        .collect()
}

/// Writes each image, reopens it and checks the invariant.
struct Checker {
    path: PathBuf,
    images: usize,
}

impl Checker {
    fn new(tag: &str) -> Checker {
        Checker {
            path: temp_path(tag),
            images: 0,
        }
    }

    fn write(&self, image: &[u8]) {
        std::fs::write(&self.path, image).expect("write the image");
    }

    /// The file holds exactly `records` as lines, then only zeros.
    fn assert_clean(&self, records: &[SpendRecord], what: &str) {
        let bytes = std::fs::read(&self.path).expect("read back");
        let lines = text(records);
        assert!(
            bytes.starts_with(&lines),
            "{what}: the durable prefix is not exactly the replayed records"
        );
        assert!(
            bytes[lines.len()..].iter().all(|&b| b == 0),
            "{what}: a non-zero byte is left past the logical end"
        );
    }

    fn expect_opens(&mut self, what: &str, image: &[u8], expected: &[SpendRecord]) {
        self.write(image);
        let (mut ledger, replayed) =
            Ledger::open(&self.path).unwrap_or_else(|e| panic!("{what}: refused: {e}"));
        assert_eq!(replayed, expected, "{what}");
        self.assert_clean(expected, what);

        let next = spend("data/sum/after", 0.05);
        ledger
            .append(&next)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        drop(ledger);
        let mut all = expected.to_vec();
        all.push(next);
        let (_, replayed) =
            Ledger::open(&self.path).unwrap_or_else(|e| panic!("{what}: reopen refused: {e}"));
        assert_eq!(replayed, all, "{what}: after the next write");
        self.assert_clean(&all, what);
        self.images += 1;
    }

    fn expect_refused(&mut self, what: &str, image: &[u8], offset: usize) {
        self.write(image);
        let err = Ledger::open(&self.path).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(
            err.to_string()
                .contains(&format!("record at byte {offset} ")),
            "{what}: {err}"
        );
        // Refusing repairs nothing: the evidence stays as it was.
        assert_eq!(std::fs::read(&self.path).unwrap(), image, "{what}");
        self.images += 1;
    }
}

impl Drop for Checker {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[test]
fn every_crash_image_reopens_to_the_acknowledged_records() {
    let ack = acknowledged();
    let ack_text = text(&ack);
    let batch = in_flight();
    let batch_text = text(&batch);
    let batch_spans = spans(&batch);
    let mut check = Checker::new("images");

    // The preallocated file the writer itself leaves: the acknowledged
    // lines, then one extent's worth of zeros.
    let preallocated = {
        let (mut ledger, _) = Ledger::open(&check.path).unwrap();
        for r in &ack {
            ledger.append(r).unwrap();
        }
        drop(ledger);
        std::fs::read(&check.path).unwrap()
    };
    let extent = preallocated.len();
    assert!(preallocated.starts_with(&ack_text));
    assert!(preallocated[ack_text.len()..].iter().all(|&b| b == 0));
    assert!(extent > ack_text.len() + batch_text.len());

    // Every prefix of the batch at the logical end, over four tails:
    // the writer's own, one too short for the batch whose grown extent
    // did not land, the same with the extent landed, and none at all (a
    // ledger written before preallocation).
    let short = ack_text.len() + 10;
    let layouts = [
        ("preallocated", extent),
        ("extent not grown", short),
        ("extent grown", short + extent),
        ("no zero tail", ack_text.len()),
    ];
    let e_acute = batch_text
        .windows(2)
        .position(|w| w == "é".as_bytes())
        .unwrap();
    let mut inside_a_character = 0;
    for (layout, len) in layouts {
        for k in 0..=batch_text.len() {
            let mut image = ack_text.clone();
            image.extend_from_slice(&batch_text[..k]);
            image.resize(image.len().max(len), 0);
            let mut expected = ack.clone();
            expected.extend(
                batch
                    .iter()
                    .zip(&batch_spans)
                    .filter(|(_, &(_, json_end))| json_end <= k)
                    .map(|(r, _)| r.clone()),
            );
            inside_a_character += usize::from(k == e_acute + 1);
            check.expect_opens(&format!("{layout}, batch prefix {k}"), &image, &expected);
        }
    }
    assert_eq!(inside_a_character, layouts.len());

    // The batch's later part over its still-zero earlier part: a crash
    // that persisted a later sector first. A remnant holding no complete
    // record is zeroed; a complete record after the hole refuses.
    for split in 1..batch_text.len() {
        let mut image = ack_text.clone();
        image.resize(ack_text.len() + split, 0);
        image.extend_from_slice(&batch_text[split..]);
        image.resize(extent, 0);
        let what = format!("batch from byte {split} over zeros");
        match batch_spans.iter().find(|&&(start, _)| start >= split) {
            Some(&(start, _)) => check.expect_refused(&what, &image, ack_text.len() + start),
            None => check.expect_opens(&what, &image, &ack),
        }
    }

    // A failed batch whose bytes reached the disk before the crash: its
    // spends were refunded, and replaying them over-counts — the
    // fail-closed side. Then the shorter batch that followed it, which
    // zero-fills over the failed bytes so none of them replays.
    let failed = in_flight();
    let mut image = ack_text.clone();
    image.extend_from_slice(&text(&failed));
    image.resize(extent, 0);
    check.expect_opens(
        "a failed batch that reached the disk",
        &image,
        &[ack.clone(), failed.clone()].concat(),
    );
    let shorter = [spend("data/sum/w", 0.01)];
    let mut image = ack_text.clone();
    image.extend_from_slice(&text(&shorter));
    image.resize(ack_text.len() + text(&failed).len(), 0);
    image.resize(extent, 0);
    check.expect_opens(
        "a shorter batch after a failed one",
        &image,
        &[ack.clone(), shorter.to_vec()].concat(),
    );

    println!(
        "ledger crash images: {} checked ({inside_a_character} cut inside a character)",
        check.images
    );
}

#[test]
fn a_record_after_a_hole_is_refused_with_its_offset() {
    let mut check = Checker::new("hole");
    let history: Vec<SpendRecord> = (0..200)
        .map(|i| spend(&format!("data/sum/c{i}"), 0.001))
        .collect();
    let history_text = text(&history);
    assert!(history_text.len() > 3 * 4096);

    // A page of acknowledged history reads back as zeros. Taking the hole
    // for the logical end would forget every spend after it.
    let mut image = history_text.clone();
    image[4096..8192].fill(0);
    let after = spans(&history)
        .into_iter()
        .map(|(start, _)| start)
        .find(|&start| start >= 8192)
        .unwrap();
    check.expect_refused("a zeroed page inside history", &image, after);

    // A lone record past zeros, with nothing durable before it.
    let mut image = vec![0u8; 4096];
    image.extend_from_slice(&text(&history[..1]));
    check.expect_refused("a record after leading zeros", &image, 4096);

    println!("ledger crash images: {} checked (holes)", check.images);
}
