//! The crash-safe budget ledger.
//!
//! Differential privacy's guarantee is only as durable as its budget
//! accounting: if a crash forgets a spend, the same budget can be charged
//! twice and the ε bound silently breaks. The ledger makes spends
//! *crash-safe* by writing an append-only log of
//! `(dataset, query_id, epsilon)` records — one JSON object per line,
//! each carrying an FNV-1a checksum — and fsyncing **before** any noisy
//! output leaves the process.
//!
//! The recovery invariant (asserted by the server's fault-injection and
//! SIGKILL tests):
//!
//! > **Every delivered release has a durable ledger record.** The
//! > converse may not hold: a crash between the fsync and the reply can
//! > leave a spend whose result was never delivered. That wastes budget
//! > but never leaks it — the fail-closed side of the tradeoff, chosen
//! > deliberately.
//!
//! On startup [`Ledger::open`] replays the log and the server restores
//! each dataset's [`upa_core::budget::BudgetAccountant`] via
//! [`upa_core::budget::BudgetAccountant::restore`]. The checksum lets
//! replay tell the two failure shapes apart:
//!
//! * a **torn tail** — the final line is incomplete because the crash
//!   happened mid-append; the spend never became durable, so the tail is
//!   truncated away and serving continues;
//! * **corruption** — a complete line that fails to parse or whose
//!   checksum mismatches is not a crash artefact but real damage
//!   (bit rot, truncation in the middle, a concurrent writer); the
//!   ledger refuses to open, because guessing risks under-counting
//!   spends.
//!
//! # Group commit
//!
//! A single release's durability costs one `fsync` (hundreds of µs to
//! milliseconds). Under concurrency that cost is shared:
//! [`GroupCommitLedger`] owns the file on a dedicated committer thread;
//! concurrent releases enqueue their records and block on a ticket while
//! the committer drains the queue, writes the whole batch with one
//! `write_all`, and fsyncs **once**. Every ticket resolves only after
//! the shared fsync, so the durability invariant above is unchanged —
//! the batch is either durable for everyone or an error for everyone. A
//! lone writer (no other submitter mid-enqueue) commits immediately; a
//! configurable commit window lets the committer linger briefly for
//! stragglers when the queue is hot.

use crate::obs::{Counter, Histogram};
use crate::wire::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

impl SpendRecord {
    /// Serialises the record as its ledger line (no trailing newline),
    /// checksum included.
    pub fn to_line(&self) -> String {
        format!(
            "{{\"dataset\":{},\"query_id\":{},\"epsilon\":{},\"crc\":{}}}",
            wire::json_str(&self.dataset),
            wire::json_str(&self.query_id),
            wire::json_num(self.epsilon),
            record_crc(&self.dataset, &self.query_id, self.epsilon)
        )
    }

    /// Parses a ledger line (the checksum is *not* verified here — see
    /// [`SpendRecord::crc_matches`]).
    pub fn from_json(v: &Json) -> Option<SpendRecord> {
        let epsilon = v.num_of("epsilon")?;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return None;
        }
        Some(SpendRecord {
            dataset: v.str_of("dataset")?.to_string(),
            query_id: v.str_of("query_id")?.to_string(),
            epsilon,
        })
    }

    /// Whether the parsed line carries the record's checksum. A line
    /// without a `crc` field does not match: the writer always emits one,
    /// and accepting its absence would let a stripped field defeat the
    /// integrity check on the file that *is* the privacy budget.
    pub fn crc_matches(&self, v: &Json) -> bool {
        v.num_of("crc")
            == Some(f64::from(record_crc(
                &self.dataset,
                &self.query_id,
                self.epsilon,
            )))
    }
}

/// The append-only spend log.
#[derive(Debug)]
pub struct Ledger {
    file: File,
    path: PathBuf,
}

impl Ledger {
    /// Opens (creating if absent) the ledger at `path` and replays every
    /// durable spend.
    ///
    /// A torn final append (no terminating newline, fails to parse) is
    /// **truncated away** — the spend never became durable, and leaving
    /// the torn bytes in place would corrupt the next append. A complete
    /// line that fails to parse, or whose checksum is missing or
    /// mismatched, is a hard error: that is damage, not a crash artefact.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` for a corrupt line.
    pub fn open(path: &Path) -> io::Result<(Ledger, Vec<SpendRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let mut contents = String::new();
        file.read_to_string(&mut contents)?;
        let (records, durable_len) = Self::replay_durable(&contents)?;
        if durable_len < contents.len() {
            // Drop the torn tail so the next append starts on a clean
            // line boundary instead of gluing onto half a record.
            file.set_len(durable_len as u64)?;
            file.sync_data()?;
        }
        Ok((
            Ledger {
                file,
                path: path.to_path_buf(),
            },
            records,
        ))
    }

    /// Parses ledger contents into spend records (see [`Ledger::open`]
    /// for the torn-line rule).
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first corrupt line.
    pub fn replay(contents: &str) -> io::Result<Vec<SpendRecord>> {
        Self::replay_durable(contents).map(|(records, _)| records)
    }

    /// [`Ledger::replay`] plus the byte length of the durable prefix —
    /// everything past it is a torn tail the caller should truncate.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first corrupt line.
    pub fn replay_durable(contents: &str) -> io::Result<(Vec<SpendRecord>, usize)> {
        let mut records = Vec::new();
        let mut durable_len = 0usize;
        let complete = contents.ends_with('\n');
        let lines: Vec<&str> = contents.split('\n').filter(|l| !l.is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let parsed = wire::parse(line)
                .ok()
                .map(|v| (SpendRecord::from_json(&v), v));
            match parsed {
                Some((Some(rec), v)) => {
                    if !rec.crc_matches(&v) {
                        // A complete record whose checksum is absent or
                        // disagrees is damage even at the tail: the writer
                        // only ever emits matching checksums, torn or not.
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "ledger line {} is missing or fails its checksum: {line:?}",
                                i + 1
                            ),
                        ));
                    }
                    records.push(rec);
                    durable_len = offset_after(contents, line, complete || !last);
                }
                _ if last && !complete => {
                    // Torn final append: the crash happened mid-write, so
                    // the spend never became durable. The caller truncates.
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt ledger line {}: {line:?}", i + 1),
                    ));
                }
            }
        }
        Ok((records, durable_len))
    }

    /// Appends one spend and fsyncs it to disk. Only after this returns
    /// may the corresponding noisy output be released.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures; the caller must treat any error
    /// as "the spend is not durable" and refuse to release.
    pub fn append(&mut self, record: &SpendRecord) -> io::Result<()> {
        let mut line = record.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The byte offset just past `line` within `contents` (+1 for its
/// newline when `with_newline`). `line` is a slice of `contents`, so
/// pointer arithmetic gives the exact position.
fn offset_after(contents: &str, line: &str, with_newline: bool) -> usize {
    let base = line.as_ptr() as usize - contents.as_ptr() as usize;
    base + line.len() + usize::from(with_newline)
}

/// Sums replayed spends per dataset, the shape
/// [`upa_core::budget::BudgetAccountant::restore`] consumes. Summation
/// follows ledger order, so the reconstructed total is bit-identical to
/// a serial accountant the spends were charged against (concurrent
/// charges may differ in the last ulps — commit order and charge order
/// need not agree).
pub fn spent_by_dataset(records: &[SpendRecord]) -> std::collections::HashMap<String, f64> {
    let mut spent: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for rec in records {
        *spent.entry(rec.dataset.clone()).or_insert(0.0) += rec.epsilon;
    }
    spent
}

// ---- group commit -------------------------------------------------------

/// Observability hooks for the committer (all optional — the ledger
/// works headless in tests and tools).
#[derive(Debug, Clone)]
pub struct LedgerObs {
    /// Total fsync calls — under group commit this grows strictly slower
    /// than the release count whenever batching happens.
    pub fsyncs: Arc<Counter>,
    /// Records per committed batch.
    pub batch_size: Arc<Histogram>,
    /// Time a submitter spent blocked on its ticket (enqueue → durable).
    pub commit_wait: Arc<Histogram>,
}

/// One submitter's rendezvous with the shared fsync.
#[derive(Debug)]
struct Ticket {
    state: Mutex<Option<Result<(), String>>>,
    done: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<(), String>) {
        *self.state.lock().expect("ticket poisoned") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<(), String> {
        let mut state = self.state.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.done.wait(state).expect("ticket poisoned");
        }
    }
}

#[derive(Debug)]
struct Pending {
    line: String,
    ticket: Arc<Ticket>,
}

#[derive(Debug)]
struct GroupShared {
    queue: Mutex<Vec<Pending>>,
    arrived: Condvar,
    /// Submitters past the entry gate but not yet enqueued — the
    /// committer's signal that lingering for the commit window will pay.
    submitters: AtomicUsize,
    window: Duration,
    shutdown: AtomicBool,
    obs: Option<LedgerObs>,
}

/// The group-committing front of a [`Ledger`]: many threads submit,
/// one committer thread batches writes and shares fsyncs.
#[derive(Debug)]
pub struct GroupCommitLedger {
    shared: Arc<GroupShared>,
    committer: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl GroupCommitLedger {
    /// Takes ownership of an opened ledger and spawns the committer.
    /// `window` bounds how long the committer lingers for stragglers
    /// once it has work; zero means "commit the instant the queue is
    /// non-empty" (batching then comes only from arrivals during the
    /// previous fsync).
    pub fn spawn(ledger: Ledger, window: Duration, obs: Option<LedgerObs>) -> GroupCommitLedger {
        let path = ledger.path.clone();
        let shared = Arc::new(GroupShared {
            queue: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            submitters: AtomicUsize::new(0),
            window,
            shutdown: AtomicBool::new(false),
            obs,
        });
        let thread_shared = Arc::clone(&shared);
        let committer = std::thread::Builder::new()
            .name("upa-ledger-commit".into())
            .spawn(move || committer_loop(thread_shared, ledger.file))
            .expect("spawn ledger committer");
        GroupCommitLedger {
            shared,
            committer: Some(committer),
            path,
        }
    }

    /// Submits one spend and blocks until it is durable (or the batch's
    /// shared fsync failed). On `Ok`, the record — and every record
    /// committed with it — is on disk.
    ///
    /// # Errors
    ///
    /// The committed batch's write/fsync failure, stringified (one
    /// `io::Error` cannot fan out to many waiters).
    pub fn submit(&self, record: &SpendRecord) -> Result<(), String> {
        let start = Instant::now();
        self.shared.submitters.fetch_add(1, Ordering::SeqCst);
        let mut line = record.to_line();
        line.push('\n');
        let ticket = Arc::new(Ticket::new());
        {
            let mut queue = self.shared.queue.lock().expect("ledger queue poisoned");
            queue.push(Pending {
                line,
                ticket: Arc::clone(&ticket),
            });
            self.shared.submitters.fetch_sub(1, Ordering::SeqCst);
            self.shared.arrived.notify_all();
        }
        let result = ticket.wait();
        if let Some(obs) = &self.shared.obs {
            obs.commit_wait.record_duration(start.elapsed());
        }
        result
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for GroupCommitLedger {
    fn drop(&mut self) {
        {
            // Flip the flag under the queue lock: the committer checks it
            // and starts waiting without releasing that lock in between,
            // so the wake-up below cannot fall into that gap and be lost.
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.arrived.notify_all();
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        // A submitter that raced the shutdown may have enqueued after the
        // committer's last drain; fail its ticket rather than strand it.
        let leftovers = std::mem::take(&mut *self.shared.queue.lock().expect("ledger queue"));
        for pending in leftovers {
            pending
                .ticket
                .resolve(Err("ledger shut down before commit".into()));
        }
    }
}

fn committer_loop(shared: Arc<GroupShared>, mut file: File) {
    let mut queue = shared.queue.lock().expect("ledger queue poisoned");
    loop {
        while queue.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            queue = shared.arrived.wait(queue).expect("ledger queue poisoned");
        }
        // Linger for stragglers up to the commit window — but only while
        // some submitter is demonstrably mid-enqueue. A lone writer pays
        // zero added latency.
        if !shared.window.is_zero() {
            let deadline = Instant::now() + shared.window;
            while shared.submitters.load(Ordering::SeqCst) > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = shared
                    .arrived
                    .wait_timeout(queue, deadline - now)
                    .expect("ledger queue poisoned");
                queue = guard;
            }
        }
        let batch = std::mem::take(&mut *queue);
        drop(queue);

        let result = commit_batch(&mut file, &batch).map_err(|e| e.to_string());
        if let Some(obs) = &shared.obs {
            obs.fsyncs.inc();
            obs.batch_size.record(batch.len() as u64);
        }
        for pending in batch {
            pending.ticket.resolve(result.clone());
        }
        queue = shared.queue.lock().expect("ledger queue poisoned");
    }
}

/// One `write_all` of the whole batch, one `sync_data` — the shared
/// fsync every ticket in the batch waits on.
fn commit_batch(file: &mut File, batch: &[Pending]) -> io::Result<()> {
    let total: usize = batch.iter().map(|p| p.line.len()).sum();
    let mut buf = String::with_capacity(total);
    for pending in batch {
        buf.push_str(&pending.line);
    }
    file.write_all(buf.as_bytes())?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("upa_ledger_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{tag}_{}.jsonl", std::process::id()))
    }

    /// A hand-placed ledger line for dataset `d`, checksum included.
    fn line(query_id: &str, epsilon: f64) -> String {
        SpendRecord {
            dataset: "d".into(),
            query_id: query_id.into(),
            epsilon,
        }
        .to_line()
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
        std::fs::write(
            &path,
            format!("{durable}{{\"dataset\":\"d\",\"query_id\":\"q\",\"eps"),
        )
        .unwrap();
        let (mut ledger, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "torn tail ignored, durable spend kept");
        // The torn bytes are gone, so the next append lands on a clean
        // line boundary…
        assert_eq!(std::fs::read_to_string(&path).unwrap(), durable);
        ledger
            .append(&SpendRecord {
                dataset: "d".into(),
                query_id: "q2".into(),
                epsilon: 0.2,
            })
            .unwrap();
        drop(ledger);
        // …and a second replay sees both spends instead of a corrupt
        // splice.
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].query_id, "q2");
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
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].epsilon, 0.25);
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
        let v = wire::parse(&line).unwrap();
        let parsed = SpendRecord::from_json(&v).unwrap();
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
        let group = Arc::new(GroupCommitLedger::spawn(
            ledger,
            Duration::from_micros(200),
            Some(obs.clone()),
        ));
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
        // Every ticket resolved Ok, so every record is durable — and the
        // checksummed lines replay cleanly.
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), submitted);
        let spent = spent_by_dataset(&replayed);
        assert!((spent["d"] - 0.01 * submitted as f64).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lone_writer_commits_without_waiting_out_the_window() {
        let path = temp_path("lone");
        let _ = std::fs::remove_file(&path);
        let (ledger, _) = Ledger::open(&path).unwrap();
        // A long window must not delay a lone writer: the committer only
        // lingers while another submitter is mid-enqueue.
        let group = GroupCommitLedger::spawn(ledger, Duration::from_secs(5), None);
        let start = Instant::now();
        group
            .submit(&SpendRecord {
                dataset: "d".into(),
                query_id: "q".into(),
                epsilon: 0.1,
            })
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "lone writer waited out the window: {:?}",
            start.elapsed()
        );
        drop(group);
        let (_, replayed) = Ledger::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
