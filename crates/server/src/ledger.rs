//! The crash-safe budget ledger.
//!
//! Differential privacy's guarantee is only as durable as its budget
//! accounting: if a crash forgets a spend, the same budget can be charged
//! twice and the ε bound silently breaks. The ledger makes spends
//! *crash-safe* by writing a log of `(dataset, query_id, epsilon)`
//! records — one JSON object per line, each carrying an FNV-1a checksum
//! — and fsyncing **before** any noisy output leaves the process.
//!
//! The recovery invariant (asserted by the server's fault-injection and
//! SIGKILL tests, and by every crash image in `ledger_crash_images`):
//!
//! > **Every delivered release has a durable ledger record.** The
//! > converse may not hold: a crash between the fsync and the reply can
//! > leave a spend whose result was never delivered. That wastes budget
//! > but never leaks it — the fail-closed side of the tradeoff, chosen
//! > deliberately.
//!
//! # A preallocated file
//!
//! The file is not opened for appending. It is grown in whole 64 KiB
//! extents of *written* zero bytes, and each batch is written at a
//! tracked logical end inside them, so the `sync_data` on the release
//! path overwrites blocks the file already holds and never journals a
//! new file size. Only the batch that crosses the end of an extent pays
//! for growing it.
//!
//! The logical end is the first NUL byte: no ledger line can hold one,
//! because the JSON writer escapes every control character. A ledger
//! written before preallocation has no NULs, so it ends at its length
//! and replays as it always did; its first write grows it.
//!
//! # Replay
//!
//! On startup [`Ledger::open`] replays the log, and the server seeds
//! each metered dataset's budget shard
//! ([`upa_core::budget::BudgetAccountant`]) with that dataset's total from
//! [`spent_by_dataset`]. The bytes before the logical end are lines,
//! and the checksum lets replay tell the two failure shapes apart:
//!
//! * a **torn tail** — the final line is incomplete because the crash
//!   happened mid-write (possibly inside a multi-byte character); the
//!   spend never became durable, so its bytes are overwritten with zeros
//!   and serving continues;
//! * **corruption** — a complete line that fails to parse or whose
//!   checksum mismatches is not a crash artefact but real damage
//!   (bit rot, a concurrent writer); the ledger refuses to open, because
//!   guessing risks under-counting spends.
//!
//! Past the logical end the file should be zeros. Other bytes there are
//! the remnant of a batch that was never acknowledged (a crash persisted
//! a later sector of it but not an earlier one), and they are zeroed
//! too. The exception is a complete, checksum-valid record after the
//! hole: that is what a zeroed page inside acknowledged history looks
//! like, and treating the hole as the end would forget spends, so the
//! ledger refuses to open and names the record's offset. The cost is on
//! the fail-closed side: a power cut that persists a whole later record
//! of an unacknowledged batch before its earlier sectors also refuses.
//!
//! A final record that lacks only its newline is kept, and `open`
//! writes the newline before serving so the next batch cannot glue
//! onto it. Every repair is synced before the ledger is handed out.
//!
//! # Group commit
//!
//! A single release's durability costs one `fsync` (tens of µs to
//! milliseconds). Under concurrency that cost is shared, and the
//! submitting threads share it among themselves: each
//! [`GroupCommitLedger::submit`] queues its record under one mutex, and
//! a submitter that finds no commit in flight leads one. It takes the
//! whole queue, writes it with one positional write, fsyncs **once**,
//! hands every record of the batch that result and wakes the waiters. A
//! submitter whose record is still queued then leads the next batch, so
//! spends that arrive during an fsync share the one after it. No
//! `submit` returns before its batch's fsync, so the durability
//! invariant above is unchanged — the batch is either durable for
//! everyone or an error for everyone. A lone writer commits its own
//! record at once, on its own thread.

use crate::obs::{Counter, Histogram};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use upa_json::{parse, put, take, Body, Json};

/// One budget spend: dataset, query identity and the ε charged.
#[derive(Debug, Clone, PartialEq)]
pub struct SpendRecord {
    /// The dataset whose budget was charged.
    pub dataset: String,
    /// Identity of the released query (e.g. `data/mean/age`).
    pub query_id: String,
    /// The ε charged.
    pub epsilon: f64,
}

/// FNV-1a (32-bit) over the record's identity: dataset, query id, and
/// the exact bit pattern of ε. 32 bits so the checksum survives a JSON
/// round-trip through `f64` losslessly.
fn record_crc(dataset: &str, query_id: &str, epsilon: f64) -> u32 {
    let mut h = upa_store::fnv::Fnv32::new();
    h.eat(dataset.as_bytes());
    h.eat(&[0]);
    h.eat(query_id.as_bytes());
    h.eat(&[0]);
    h.eat(&epsilon.to_bits().to_le_bytes());
    h.finish()
}

/// `crc` is derived: written, and checked by [`SpendRecord::crc_matches`]
/// rather than read back.
impl Body for SpendRecord {
    fn put_fields(&self, out: &mut String) {
        put(out, "dataset", &self.dataset);
        put(out, "query_id", &self.query_id);
        put(out, "epsilon", &self.epsilon);
        put(
            out,
            "crc",
            &record_crc(&self.dataset, &self.query_id, self.epsilon),
        );
    }
    fn take_fields(v: &Json) -> Result<Self, String> {
        Ok(SpendRecord {
            dataset: take(v, "dataset")?,
            query_id: take(v, "query_id")?,
            epsilon: take(v, "epsilon")?,
        })
    }
}

impl SpendRecord {
    /// The record's ledger line (no trailing newline), checksum included.
    pub fn to_line(&self) -> String {
        self.to_json()
    }

    /// Whether the parsed line carries the record's checksum. A line
    /// without a `crc` field does not match: the writer always emits one,
    /// and accepting its absence would let a stripped field defeat the
    /// integrity check on the file that *is* the privacy budget.
    pub fn crc_matches(&self, v: &Json) -> bool {
        take(v, "crc") == Ok(record_crc(&self.dataset, &self.query_id, self.epsilon))
    }
}

/// How much the ledger file grows by when a batch would pass its end.
/// Growing writes real zeros: `set_len` would leave a hole that the hot
/// path then allocates block by block, journalling as it goes.
const EXTENT: u64 = 64 * 1024;

/// One extent of zeros, the bytes a growing write puts down.
static ZEROS: [u8; EXTENT as usize] = [0; EXTENT as usize];

/// The spend log: checksummed JSON lines written at a tracked logical
/// end inside a file of preallocated zeros.
#[derive(Debug)]
pub struct Ledger {
    file: File,
    /// The byte just past the last durable record: where the next batch
    /// is written.
    end: u64,
    /// The file length. Every byte past `end` is zero, except up to
    /// `stale`.
    allocated: u64,
    /// How far a failed batch's bytes may reach (not past `end` when no
    /// batch has failed). The next batch zero-fills up to it in the same
    /// write, so a refunded spend can never replay and half a line can
    /// never sit mid-file.
    stale: u64,
}

impl Ledger {
    /// Opens (creating if absent) the ledger at `path` and replays every
    /// durable spend.
    ///
    /// A torn final record (no terminating newline, fails to parse) and
    /// any non-zero bytes after the logical end are **zeroed** — the
    /// spend never became durable, and leaving its bytes in place would
    /// corrupt the next write. A final record that is complete but lacks
    /// its newline gets one. Both repairs are synced before this returns.
    /// A complete line that fails to parse, or whose checksum is missing
    /// or mismatched, is a hard error: that is damage, not a crash
    /// artefact. So is a checksum-valid record after a zeroed hole.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` for a corrupt line or a record
    /// after a hole.
    pub fn open(path: &Path) -> io::Result<(Ledger, Vec<SpendRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, durable_len) = Self::replay_durable(&bytes)?;
        // Non-zero bytes past the durable prefix are exactly what a
        // failed batch leaves behind, so they are cleared the same way:
        // by the next write, which here is the repair itself.
        let stale = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let unterminated = durable_len > 0 && bytes[durable_len - 1] != b'\n';
        let mut ledger = Ledger {
            file,
            end: durable_len as u64,
            allocated: bytes.len() as u64,
            stale: stale as u64,
        };
        if unterminated || stale > durable_len {
            // A final record that lacks only its newline gets it, or the
            // next batch would glue onto it.
            ledger.write_durable(vec![b'\n'; usize::from(unterminated)])?;
        }
        Ok((ledger, records))
    }

    /// Parses ledger contents into spend records (see [`Ledger::open`]
    /// for the torn-line and hole rules).
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first corrupt line, or the offset of a
    /// record after a hole.
    pub fn replay(contents: impl AsRef<[u8]>) -> io::Result<Vec<SpendRecord>> {
        Self::replay_durable(contents).map(|(records, _)| records)
    }

    /// [`Ledger::replay`] plus the byte length of the durable prefix —
    /// everything past it should be zero, and [`Ledger::open`] zeroes
    /// what is not.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first corrupt line, or the offset of a
    /// record after a hole.
    fn replay_durable(contents: impl AsRef<[u8]>) -> io::Result<(Vec<SpendRecord>, usize)> {
        let bytes = contents.as_ref();
        let logical_end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
        let replayed = replay_lines(&bytes[..logical_end])?;
        refuse_record_after_hole(bytes, logical_end)?;
        Ok(replayed)
    }

    /// Writes one spend and fsyncs it to disk. Only after this returns
    /// may the corresponding noisy output be released.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures; the caller must treat any error
    /// as "the spend is not durable" and refuse to release.
    pub fn append(&mut self, record: &SpendRecord) -> io::Result<()> {
        let mut line = record.to_line().into_bytes();
        line.push(b'\n');
        self.write_durable(line)
    }

    /// The one write path: `buf` goes down at the logical end in one
    /// positional write, then one `sync_data`, and `end` moves past it
    /// only once both succeed.
    fn write_durable(&mut self, mut buf: Vec<u8>) -> io::Result<()> {
        let len = buf.len() as u64;
        if self.stale > self.end + len {
            buf.resize((self.stale - self.end) as usize, 0);
        }
        let reach = self.end + buf.len() as u64;
        let written = self
            .grow_to(reach)
            .and_then(|()| self.file.write_all_at(&buf, self.end))
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => {
                self.end += len;
                self.stale = 0;
            }
            Err(_) => self.stale = self.stale.max(reach),
        }
        written
    }

    /// Grows the file by whole extents of written zeros until it holds
    /// `reach` bytes. The caller's `sync_data` makes them durable.
    fn grow_to(&mut self, reach: u64) -> io::Result<()> {
        while self.allocated < reach {
            self.file.write_all_at(&ZEROS, self.allocated)?;
            self.allocated += EXTENT;
        }
        Ok(())
    }
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Parses one ledger line into its record and whether the checksum
/// matches; `None` when the bytes are no record at all, or charge an ε
/// that is not finite and positive.
fn parse_line(line: &[u8]) -> Option<(SpendRecord, bool)> {
    let v = parse(std::str::from_utf8(line).ok()?).ok()?;
    let rec = SpendRecord::take_fields(&v).ok()?;
    if !(rec.epsilon.is_finite() && rec.epsilon > 0.0) {
        return None;
    }
    let crc_ok = rec.crc_matches(&v);
    Some((rec, crc_ok))
}

/// Replays the lines before the logical end and returns them with the
/// length of the durable prefix. A final line with no newline that does
/// not parse is a torn write and is left out of that prefix.
fn replay_lines(prefix: &[u8]) -> io::Result<(Vec<SpendRecord>, usize)> {
    let mut records = Vec::new();
    let mut durable_len = 0;
    let mut start = 0;
    let mut number = 0;
    for line in prefix.split(|&b| b == b'\n') {
        let terminated = start + line.len() < prefix.len();
        start += line.len() + usize::from(terminated);
        if line.is_empty() {
            continue;
        }
        number += 1;
        let shown = || String::from_utf8_lossy(line);
        match parse_line(line) {
            Some((rec, true)) => {
                records.push(rec);
                durable_len = start;
            }
            // A complete record whose checksum is absent or disagrees is
            // damage even at the tail: the writer only ever emits
            // matching checksums, torn or not.
            Some((_, false)) => {
                return Err(invalid_data(format!(
                    "ledger line {number} is missing or fails its checksum: {:?}",
                    shown()
                )))
            }
            // Torn final write: the crash happened mid-write, so the
            // spend never became durable. `open` zeroes it.
            None if !terminated => {}
            None => {
                return Err(invalid_data(format!(
                    "corrupt ledger line {number}: {:?}",
                    shown()
                )))
            }
        }
    }
    Ok((records, durable_len))
}

/// Refuses a complete, checksum-valid record anywhere after the hole
/// that starts at `hole`: it means the hole lies inside acknowledged
/// history, where taking it for the end would forget spends.
fn refuse_record_after_hole(bytes: &[u8], hole: usize) -> io::Result<()> {
    let mut offset = hole;
    for piece in bytes[hole..].split(|&b| b == 0 || b == b'\n') {
        if !piece.is_empty() && matches!(parse_line(piece), Some((_, true))) {
            return Err(invalid_data(format!(
                "ledger record at byte {offset} follows a zeroed hole at byte {hole}: {:?}",
                String::from_utf8_lossy(piece)
            )));
        }
        offset += piece.len() + 1;
    }
    Ok(())
}

/// Sums replayed spends per dataset: the spent ε each metered
/// dataset's budget shard ([`upa_core::budget::BudgetAccountant`]) starts from.
/// Summation follows ledger order, so the reconstructed total is
/// bit-identical to a serial accountant the spends were charged against
/// (concurrent charges may differ in the last ulps — commit order and
/// charge order need not agree).
pub fn spent_by_dataset(records: &[SpendRecord]) -> HashMap<String, f64> {
    let mut spent: HashMap<String, f64> = HashMap::new();
    for rec in records {
        *spent.entry(rec.dataset.clone()).or_insert(0.0) += rec.epsilon;
    }
    spent
}

// ---- group commit -------------------------------------------------------

/// Observability hooks for group commit (all optional — the ledger
/// works headless in tests and tools).
#[derive(Debug, Clone)]
pub struct LedgerObs {
    /// Total fsync calls — under group commit this grows strictly slower
    /// than the release count whenever batching happens.
    pub fsyncs: Arc<Counter>,
    /// Records per committed batch.
    pub batch_size: Arc<Histogram>,
    /// Time a submitter spent in [`GroupCommitLedger::submit`] (enqueue
    /// → durable).
    pub commit_wait: Arc<Histogram>,
}

/// What the submitters share, all under one mutex. While no commit is
/// in flight, `lines` holds exactly the records numbered `done..next`.
#[derive(Debug)]
struct Queue {
    /// The ledger, or `None` while a leader has it out to commit a batch.
    ledger: Option<Ledger>,
    /// The lines submitted since the last batch was taken, in order.
    lines: String,
    /// The number the next submitted record gets.
    next: u64,
    /// Every record numbered below this has its batch's result.
    done: u64,
    /// The error of each record whose batch failed, until its submitter
    /// takes it.
    failed: HashMap<u64, String>,
}

/// The group-committing front of a [`Ledger`]: many threads submit, and
/// the one that finds no commit in flight writes and fsyncs everything
/// queued so far for all of them.
#[derive(Debug)]
pub struct GroupCommitLedger {
    queue: Mutex<Queue>,
    committed: Condvar,
    obs: Option<LedgerObs>,
}

impl GroupCommitLedger {
    /// Takes ownership of an opened ledger.
    pub fn new(ledger: Ledger, obs: Option<LedgerObs>) -> GroupCommitLedger {
        GroupCommitLedger {
            queue: Mutex::new(Queue {
                ledger: Some(ledger),
                lines: String::new(),
                next: 0,
                done: 0,
                failed: HashMap::new(),
            }),
            committed: Condvar::new(),
            obs,
        }
    }

    /// [`GroupCommitLedger::new`] under the signature the benchmark
    /// harness calls; nothing lingers, so the window is ignored.
    pub fn spawn(ledger: Ledger, _window: Duration, obs: Option<LedgerObs>) -> GroupCommitLedger {
        Self::new(ledger, obs)
    }

    /// Submits one spend and blocks until it is durable (or its batch's
    /// shared fsync failed). On `Ok`, the record — and every record
    /// committed with it — is on disk.
    ///
    /// # Errors
    ///
    /// The committed batch's write/fsync failure, stringified (one
    /// `io::Error` cannot fan out to many waiters).
    pub fn submit(&self, record: &SpendRecord) -> Result<(), String> {
        let start = Instant::now();
        let mut line = record.to_line();
        line.push('\n');
        let mut queue = self.queue.lock().expect("ledger queue poisoned");
        let seq = queue.next;
        queue.next += 1;
        queue.lines.push_str(&line);
        while seq >= queue.done {
            let Some(mut ledger) = queue.ledger.take() else {
                queue = self.committed.wait(queue).expect("ledger queue poisoned");
                continue;
            };
            // Lead: take the whole queue, commit it without the lock, so
            // spends arriving meanwhile queue up for the next batch.
            let batch = queue.done..queue.next;
            let lines = std::mem::take(&mut queue.lines);
            drop(queue);
            let result = ledger.write_durable(lines.into_bytes());
            if let Some(obs) = &self.obs {
                obs.fsyncs.inc();
                obs.batch_size.record(batch.end - batch.start);
            }
            queue = self.queue.lock().expect("ledger queue poisoned");
            if let Err(e) = result {
                let e = e.to_string();
                queue.failed.extend(batch.clone().map(|s| (s, e.clone())));
            }
            queue.done = batch.end;
            queue.ledger = Some(ledger);
            self.committed.notify_all();
        }
        let result = queue.failed.remove(&seq).map_or(Ok(()), Err);
        drop(queue);
        if let Some(obs) = &self.obs {
            obs.commit_wait.record_duration(start.elapsed());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("upa_ledger_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{tag}_{}.jsonl", std::process::id()))
    }

    fn spend(query_id: &str, epsilon: f64) -> SpendRecord {
        SpendRecord {
            dataset: "d".into(),
            query_id: query_id.into(),
            epsilon,
        }
    }

    /// A hand-placed ledger line for dataset `d`, checksum included.
    fn line(query_id: &str, epsilon: f64) -> String {
        spend(query_id, epsilon).to_line()
    }

    #[test]
    fn append_then_reopen_replays_spends() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut ledger, initial) = Ledger::open(&path).unwrap();
        assert!(initial.is_empty());
        let recs = [
            SpendRecord {
                dataset: "data".into(),
                query_id: "data/sum/age".into(),
                epsilon: 0.4,
            },
            SpendRecord {
                dataset: "other \"x\"".into(),
                query_id: "other/count/".into(),
                epsilon: 0.1,
            },
        ];
        for r in &recs {
            ledger.append(r).unwrap();
        }
        drop(ledger);
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, recs);
        let spent = spent_by_dataset(&replayed);
        assert_eq!(spent["data"], 0.4);
        assert_eq!(spent["other \"x\""], 0.1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_discarded_and_truncated() {
        let path = temp_path("torn");
        let durable = line("q", 0.1) + "\n";
        // Query ids carry column names verbatim, so a write can also be
        // torn inside a multi-byte character.
        let accented = line("d/mean/été", 0.2);
        let cut = accented.find('é').unwrap() + 1;
        assert!(!accented.is_char_boundary(cut));
        let torn_writes = [
            &b"{\"dataset\":\"d\",\"query_id\":\"q\",\"eps"[..],
            &accented.as_bytes()[..cut],
        ];
        for torn in torn_writes {
            std::fs::write(&path, [durable.as_bytes(), torn].concat()).unwrap();
            let (mut ledger, replayed) = Ledger::open(&path).unwrap();
            assert_eq!(replayed.len(), 1, "torn tail ignored, durable spend kept");
            // The torn bytes are zeroed, so the next write lands on a
            // clean line boundary…
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[..durable.len()], durable.as_bytes());
            assert!(bytes[durable.len()..].iter().all(|&b| b == 0));
            ledger.append(&spend("q2", 0.2)).unwrap();
            drop(ledger);
            // …and a second replay sees both spends instead of a corrupt
            // splice.
            let (_, replayed) = Ledger::open(&path).unwrap();
            assert_eq!(replayed.len(), 2);
            assert_eq!(replayed[1].query_id, "q2");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = temp_path("corrupt");
        std::fs::write(&path, format!("not json at all\n{}\n", line("q", 0.1))).unwrap();
        let err = Ledger::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_positive_epsilon_is_rejected_as_corrupt() {
        let path = temp_path("negeps");
        std::fs::write(&path, format!("{}\n{}\n", line("q", -0.5), line("q", 0.1))).unwrap();
        assert!(Ledger::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_final_line_without_newline_is_kept() {
        let path = temp_path("nonl");
        std::fs::write(&path, line("q", 0.25)).unwrap();
        let (mut ledger, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, [spend("q", 0.25)]);
        // Without the newline `open` writes, this record would glue onto
        // the one before it and the next open would refuse the ledger.
        ledger.append(&spend("q2", 0.5)).unwrap();
        drop(ledger);
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, [spend("q", 0.25), spend("q2", 0.5)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_write_past_the_allocation_grows_by_whole_extents_of_zeros() {
        let path = temp_path("extent");
        let _ = std::fs::remove_file(&path);
        let (mut ledger, _) = Ledger::open(&path).unwrap();
        ledger.append(&spend("q", 0.1)).unwrap();
        let first = line("q", 0.1).len() as u64 + 1;
        assert_eq!((ledger.end, ledger.allocated), (first, EXTENT));
        // A batch that crosses the end of the extent grows the file by
        // exactly as many more extents as it needs.
        let big = SpendRecord {
            dataset: "d".into(),
            query_id: "x".repeat(2 * EXTENT as usize),
            epsilon: 0.2,
        };
        ledger.append(&big).unwrap();
        assert_eq!(ledger.allocated, 3 * EXTENT);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, 3 * EXTENT);
        assert!(bytes[ledger.end as usize..].iter().all(|&b| b == 0));
        drop(ledger);
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, [spend("q", 0.1), big]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_batch_is_zeroed_by_the_next_shorter_one() {
        let path = temp_path("failed_batch");
        let _ = std::fs::remove_file(&path);
        let (mut ledger, _) = Ledger::open(&path).unwrap();
        ledger.append(&spend("q", 0.1)).unwrap();
        let end = ledger.end;

        // A read-only handle makes the batch's write fail for real; its
        // bytes are then put where a write that failed only at the sync
        // would have left them.
        let writable = std::mem::replace(&mut ledger.file, File::open(&path).unwrap());
        let refunded = [spend("refunded-a", 0.3), spend("refunded-b", 0.3)];
        let failed: String = refunded.iter().map(|r| r.to_line() + "\n").collect();
        assert!(ledger.write_durable(failed.clone().into_bytes()).is_err());
        assert_eq!(ledger.end, end, "a failed write leaves the end alone");
        assert_eq!(ledger.stale, end + failed.len() as u64);
        writable.write_all_at(failed.as_bytes(), end).unwrap();
        ledger.file = writable;

        ledger.append(&spend("q2", 0.1)).unwrap();
        drop(ledger);
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, [spend("q", 0.1), spend("q2", 0.1)]);
        let bytes = std::fs::read(&path).unwrap();
        let durable = line("q", 0.1) + "\n" + &line("q2", 0.1) + "\n";
        assert_eq!(&bytes[..durable.len()], durable.as_bytes());
        assert!(bytes[durable.len()..].iter().all(|&b| b == 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_round_trips_and_crc_less_lines_are_rejected() {
        let rec = SpendRecord {
            dataset: "d".into(),
            query_id: "d/mean/v".into(),
            epsilon: 0.125,
        };
        let line = rec.to_line();
        assert!(line.contains("\"crc\":"), "{line}");
        let v = parse(&line).unwrap();
        let parsed = SpendRecord::take_fields(&v).unwrap();
        assert_eq!(parsed, rec);
        assert!(parsed.crc_matches(&v));
        // Stripping the field must not defeat the check: a complete
        // line without a crc is corruption, newline-terminated or not.
        let stripped = "{\"dataset\":\"d\",\"query_id\":\"q\",\"epsilon\":0.1}";
        for contents in [format!("{stripped}\n"), stripped.to_string()] {
            let err = Ledger::replay_durable(&contents).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    #[test]
    fn lines_recorded_before_the_shared_fnv_replay_unchanged() {
        // Written by the build whose ledger carried its own FNV-1a loop
        // and whose escapes came from the server's private JSON writer.
        // The file format is the budget: these must keep replaying, and
        // re-serialising must reproduce them byte for byte.
        let recorded = concat!(
            r#"{"dataset":"people \"2026\"","query_id":"people/mean/age\u0001é","epsilon":0.1,"crc":1326127645}"#,
            "\n",
            r#"{"dataset":"data","query_id":"data/count/","epsilon":0.30000000000000004,"crc":1195371715}"#,
            "\n",
            r#"{"dataset":"data","query_id":"data/sum/v","epsilon":0.0000001,"crc":3996590046}"#,
            "\n",
        );
        let (records, durable) = Ledger::replay_durable(recorded).unwrap();
        assert_eq!(durable, recorded.len());
        assert_eq!(records[0].dataset, "people \"2026\"");
        assert_eq!(records[0].query_id, "people/mean/age\u{1}é");
        assert_eq!(records[1].epsilon, 0.30000000000000004);
        assert_eq!(records[2].epsilon, 1e-7);
        let rewritten: String = records.iter().map(|r| r.to_line() + "\n").collect();
        assert_eq!(rewritten, recorded);
    }

    #[test]
    fn checksum_mismatch_is_corruption_even_at_the_tail() {
        let path = temp_path("crc_bad");
        let good = SpendRecord {
            dataset: "d".into(),
            query_id: "q".into(),
            epsilon: 0.1,
        }
        .to_line();
        // Flip the spend amount but keep the old checksum: a complete,
        // parseable line whose bytes were altered.
        let tampered = good.replace("\"epsilon\":0.1", "\"epsilon\":0.9");
        assert_ne!(good, tampered);
        std::fs::write(&path, format!("{tampered}\n")).unwrap();
        let err = Ledger::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        // Without a trailing newline the verdict is the same — a wrong
        // checksum is damage, never a torn append.
        std::fs::write(&path, &tampered).unwrap();
        assert!(Ledger::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_makes_every_submitted_spend_durable() {
        let path = temp_path("group");
        let _ = std::fs::remove_file(&path);
        let (ledger, _) = Ledger::open(&path).unwrap();
        let registry = crate::obs::Registry::new();
        let obs = LedgerObs {
            fsyncs: registry.counter("fsyncs"),
            batch_size: registry.histogram("batch"),
            commit_wait: registry.histogram("wait"),
        };
        let group = Arc::new(GroupCommitLedger::new(ledger, Some(obs.clone())));
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5;
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let group = Arc::clone(&group);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    group
                        .submit(&SpendRecord {
                            dataset: "d".into(),
                            query_id: format!("d/sum/{t}-{i}"),
                            epsilon: 0.01,
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let submitted = THREADS * PER_THREAD;
        assert!(obs.fsyncs.get() >= 1);
        assert!(
            obs.fsyncs.get() <= submitted as u64,
            "at most one fsync per record"
        );
        assert_eq!(obs.commit_wait.count(), submitted as u64);
        drop(group);
        // Every submit returned Ok, so every record is durable — and the
        // checksummed lines replay cleanly.
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), submitted);
        let spent = spent_by_dataset(&replayed);
        assert!((spent["d"] - 0.01 * submitted as f64).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_batch_fails_every_submitter_in_it() {
        let path = temp_path("group_failed");
        let _ = std::fs::remove_file(&path);
        let (ledger, _) = Ledger::open(&path).unwrap();
        let group = Arc::new(GroupCommitLedger::new(ledger, None));
        // Taking the ledger out is what a leader does: to the submitters
        // below a commit is in flight, so they queue and park. A
        // read-only handle makes their batch's write fail for real.
        let mut ledger = group.queue.lock().unwrap().ledger.take().unwrap();
        let writable = std::mem::replace(&mut ledger.file, File::open(&path).unwrap());
        const SUBMITTERS: usize = 4;
        let (tx, rx) = std::sync::mpsc::channel();
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (group, tx) = (Arc::clone(&group), tx.clone());
                std::thread::spawn(move || {
                    tx.send(group.submit(&spend(&format!("refused-{t}"), 0.3)))
                        .unwrap();
                })
            })
            .collect();
        while group.queue.lock().unwrap().next < SUBMITTERS as u64 {
            std::thread::yield_now();
        }
        // The commit "ends": one parked submitter leads a batch of all
        // four records, and every one of them must hear of its failure.
        group.queue.lock().unwrap().ledger = Some(ledger);
        group.committed.notify_all();
        for _ in 0..SUBMITTERS {
            let result = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a submitter of a failed batch stayed parked");
            assert!(result.is_err(), "a failed batch reported success");
        }
        for submitter in submitters {
            submitter.join().unwrap();
        }

        // The bytes a batch that failed only at its sync would have left.
        let failed = line("refused-0", 0.3) + "\n";
        writable.write_all_at(failed.as_bytes(), 0).unwrap();
        let mut queue = group.queue.lock().unwrap();
        queue.ledger.as_mut().unwrap().file = writable;
        drop(queue);
        group.submit(&spend("q", 0.1)).unwrap();
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed, [spend("q", 0.1)]);
        let bytes = std::fs::read(&path).unwrap();
        let durable = line("q", 0.1) + "\n";
        assert_eq!(&bytes[..durable.len()], durable.as_bytes());
        assert!(bytes[durable.len()..].iter().all(|&b| b == 0));
        let _ = std::fs::remove_file(&path);
    }
}
