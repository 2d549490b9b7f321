//! The scheduling layer between connection handlers and
//! [`ServerState`]: bounded per-dataset queues, request coalescing, and
//! deadline shedding.
//!
//! # Why a scheduler
//!
//! The v1 daemon ran every request inline on its connection thread,
//! bounded only by a global prepare semaphore, and refused *any*
//! over-cap work with a hard `busy`. That wastes exactly the structure
//! UPA creates: a prepare is expensive (2n neighbour evaluations) but
//! *shared* — every release of the same query can draw its noisy sample
//! from one prepared state. So instead of N identical concurrent
//! releases paying N prepares (or N−1 of them queueing on a semaphore
//! just to discover the cache), the scheduler single-flights the
//! prepare and lets the other N−1 requests coalesce onto it, exactly
//! like an inference server batching identical prompts.
//!
//! # Lifecycle of a request
//!
//! ```text
//! submit ──► per-dataset bounded queue ──► worker pops (round-robin
//!   │ full?                                 across datasets)
//!   └──► busy                                 │ deadline expired?
//!                                             ├──► shed (`deadline`)
//!                                             ▼
//!                             batch: drain same-query jobs from the queue
//!                                             │
//!                             single-flight prepare (leader runs the
//!                             engine; everyone else coalesces)
//!                                             │
//!                             per job: re-check deadline, then charge
//!                             budget + draw an independent noisy sample
//! ```
//!
//! Fairness: workers scan datasets round-robin from a moving cursor, so
//! a hot dataset saturating its own queue cannot starve the others.
//! Backpressure: each dataset's queue is bounded
//! ([`crate::state::ServerConfig::queue_capacity`]); `busy` is returned
//! only when a queue is truly full, never merely because workers are
//! occupied.
//!
//! # Panic containment
//!
//! A panic while serving a job (the fault-injection tests panic inside
//! the release path deliberately) must not kill a pool worker or strand
//! the submitting connection. Workers catch the panic, keep draining,
//! and re-raise it on the *submitter's* thread — preserving the v1
//! observable behaviour (connection drops without a reply) while the
//! pool stays healthy.

use crate::obs::Trace;
use crate::state::{AggKind, PreparedAgg, ReleaseOutcome, ServeError, ServerState};
use crate::wire::Json;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a queued job should do once prepared state is in hand.
#[derive(Debug, Clone)]
pub enum JobOp {
    /// Phases 1–3 only (warm the cache).
    Prepare,
    /// Phases 1–4: a full noisy release.
    Release {
        /// Per-release ε override.
        epsilon: Option<f64>,
        /// Ask for the release's audit record.
        want_audit: bool,
    },
}

/// A completed job's payload.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// The prepare's identity and whether it coalesced.
    Prepared {
        /// Query identity.
        query_id: String,
        /// Effective sample size of the prepared state.
        sample_size: usize,
        /// `true` when served from the cache or another caller's
        /// prepare.
        cached: bool,
    },
    /// A released noisy answer (boxed: the audit payload dwarfs the
    /// `Prepared` variant).
    Released(Box<ReleaseOutcome>),
}

/// A point-in-time snapshot of the scheduler's counters, exported over
/// the `stats` op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests currently queued across every dataset.
    pub queued: u64,
    /// High-water mark of `queued`.
    pub peak_queued: u64,
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests completed (served, errored, or shed).
    pub completed: u64,
    /// Engine prepares actually run.
    pub prepares: u64,
    /// Requests that obtained prepared state without running their own
    /// prepare (cache hits, batch members, in-flight waiters).
    pub coalesced: u64,
    /// Requests shed because their deadline expired in the queue.
    pub shed_deadline: u64,
    /// Requests refused because their dataset's queue was full.
    pub busy_rejected: u64,
    /// Same-query batches drained from a queue.
    pub batches: u64,
    /// Largest single batch (occupancy high-water mark).
    pub peak_batch: u64,
}

impl SchedStats {
    /// The fraction of prepared-state acquisitions that coalesced
    /// instead of running the engine (0 when nothing ran).
    pub fn coalesce_rate(&self) -> f64 {
        let total = self.prepares + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.coalesced as f64 / total as f64
        }
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queued\":{},\"peak_queued\":{},\"submitted\":{},\"completed\":{},\
             \"prepares\":{},\"coalesced\":{},\"shed_deadline\":{},\"busy_rejected\":{},\
             \"batches\":{},\"peak_batch\":{}}}",
            self.queued,
            self.peak_queued,
            self.submitted,
            self.completed,
            self.prepares,
            self.coalesced,
            self.shed_deadline,
            self.busy_rejected,
            self.batches,
            self.peak_batch
        )
    }

    /// Parses the [`SchedStats::to_json`] form.
    ///
    /// # Errors
    ///
    /// A message naming the missing counter.
    pub fn from_json(v: &Json) -> Result<SchedStats, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats reply missing '{name}'"))
        };
        Ok(SchedStats {
            queued: field("queued")?,
            peak_queued: field("peak_queued")?,
            submitted: field("submitted")?,
            completed: field("completed")?,
            prepares: field("prepares")?,
            coalesced: field("coalesced")?,
            shed_deadline: field("shed_deadline")?,
            busy_rejected: field("busy_rejected")?,
            batches: field("batches")?,
            peak_batch: field("peak_batch")?,
        })
    }
}

#[derive(Default)]
struct Counters {
    peak_queued: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    prepares: AtomicU64,
    coalesced: AtomicU64,
    shed_deadline: AtomicU64,
    busy_rejected: AtomicU64,
    batches: AtomicU64,
    peak_batch: AtomicU64,
}

enum SlotState {
    Pending,
    Done(Box<Result<JobOutput, ServeError>>),
    /// The serving worker panicked; the message re-raises on the
    /// submitter's thread.
    Panicked(String),
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<JobOutput, ServeError>) {
        *self.state.lock().expect("slot poisoned") = SlotState::Done(Box::new(result));
        self.cv.notify_all();
    }

    fn complete_panicked(&self, message: String) {
        *self.state.lock().expect("slot poisoned") = SlotState::Panicked(message);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<JobOutput, ServeError> {
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            match std::mem::replace(&mut *state, SlotState::Pending) {
                SlotState::Pending => state = self.cv.wait(state).expect("slot poisoned"),
                SlotState::Done(result) => return *result,
                SlotState::Panicked(message) => {
                    drop(state);
                    panic::panic_any(message);
                }
            }
        }
    }
}

struct Job {
    dataset: String,
    kind: AggKind,
    column: String,
    op: JobOp,
    deadline: Option<Instant>,
    /// When the job entered its queue — the start of its queue-wait span.
    enqueued: Instant,
    /// The submitting request's trace, when the connection opened one.
    trace: Option<Trace>,
    slot: Arc<Slot>,
}

impl Job {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    fn same_query(&self, other: &Job) -> bool {
        self.kind == other.kind && self.column == other.column
    }
}

struct QueueSet {
    queues: HashMap<String, VecDeque<Job>>,
    /// Sorted dataset names — the round-robin scan order.
    order: Vec<String>,
    /// Next dataset index to serve (fairness cursor).
    cursor: usize,
    /// Total queued jobs across datasets.
    queued: usize,
    shutdown: bool,
}

enum InflightState {
    Running,
    Done(Result<(Arc<PreparedAgg>, String), ServeError>),
}

/// One in-flight prepare other callers can coalesce onto.
struct Inflight {
    state: Mutex<InflightState>,
    cv: Condvar,
}

/// The scheduling core. Shared (via `Arc`) by the worker pool and every
/// connection handler; owned threads live in [`SchedulerHandle`].
pub struct Scheduler {
    state: Arc<ServerState>,
    queues: Mutex<QueueSet>,
    work_cv: Condvar,
    inflight: Mutex<HashMap<(String, AggKind, String), Arc<Inflight>>>,
    counters: Counters,
    capacity: usize,
}

/// Owns the worker pool; dropping (or [`SchedulerHandle::drain`])
/// finishes queued work and joins the workers.
pub struct SchedulerHandle {
    sched: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
}

impl SchedulerHandle {
    /// The shared scheduling core.
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(&self.sched)
    }

    /// Stops accepting new submissions, serves everything already
    /// queued, and joins the workers. Idempotent.
    pub fn drain(&mut self) {
        {
            let mut qs = self.sched.queues.lock().expect("queues poisoned");
            qs.shutdown = true;
        }
        self.sched.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for SchedulerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

impl Scheduler {
    /// Builds the per-dataset queues from `state`'s registered datasets
    /// and starts the worker pool (`max_inflight_prepares` workers,
    /// `queue_capacity` slots per dataset).
    pub fn start(state: Arc<ServerState>) -> SchedulerHandle {
        let workers = state.config().max_inflight_prepares.max(1);
        let capacity = state.config().queue_capacity.max(1);
        let order = state.dataset_names();
        let queues = order
            .iter()
            .map(|name| (name.clone(), VecDeque::new()))
            .collect();
        let sched = Arc::new(Scheduler {
            state,
            queues: Mutex::new(QueueSet {
                queues,
                order,
                cursor: 0,
                queued: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            capacity,
        });
        let workers = (0..workers)
            .map(|_| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || sched.worker_loop())
            })
            .collect();
        SchedulerHandle { sched, workers }
    }

    /// Enqueues one job and blocks until it completes (the submitting
    /// connection thread has nothing else to do). Fails fast — before
    /// consuming a queue slot — on malformed ε, unknown datasets, a full
    /// queue (`busy`) or a draining scheduler.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; `deadline` when the job expired in the queue.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that killed the job's serving worker, so the
    /// connection drops exactly as if the work had run inline.
    pub fn submit(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
        op: JobOp,
        deadline_ms: Option<u64>,
        trace: Option<Trace>,
    ) -> Result<JobOutput, ServeError> {
        if let JobOp::Release {
            epsilon: Some(eps), ..
        } = &op
        {
            if !(eps.is_finite() && *eps > 0.0) {
                return Err(ServeError::BadRequest("epsilon must be positive".into()));
            }
        }
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let slot = Slot::new();
        {
            let mut qs = self.queues.lock().expect("queues poisoned");
            if qs.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let capacity = self.capacity;
            if !qs.queues.contains_key(dataset) {
                // A dataset attached after startup has no queue yet —
                // create one on first use. Detached datasets keep their
                // (empty) queue: harmless, and a job racing a detach
                // fails at serve time with `unknown_dataset`.
                if !self.state.has_dataset(dataset) {
                    return Err(ServeError::UnknownDataset(dataset.to_string()));
                }
                qs.queues.insert(dataset.to_string(), VecDeque::new());
                qs.order.push(dataset.to_string());
            }
            let queue = qs.queues.get_mut(dataset).expect("queue just ensured");
            if queue.len() >= capacity {
                self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy);
            }
            queue.push_back(Job {
                dataset: dataset.to_string(),
                kind,
                column: column.to_string(),
                op,
                deadline,
                enqueued: Instant::now(),
                trace,
                slot: Arc::clone(&slot),
            });
            qs.queued += 1;
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters
                .peak_queued
                .fetch_max(qs.queued as u64, Ordering::Relaxed);
        }
        self.work_cv.notify_one();
        slot.wait()
    }

    /// A snapshot of the scheduler's counters.
    pub fn stats(&self) -> SchedStats {
        let queued = self.queues.lock().expect("queues poisoned").queued as u64;
        let c = &self.counters;
        SchedStats {
            queued,
            peak_queued: c.peak_queued.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            prepares: c.prepares.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            busy_rejected: c.busy_rejected.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            peak_batch: c.peak_batch.load(Ordering::Relaxed),
        }
    }

    // ---- worker side ----------------------------------------------------

    /// Records how long `job` sat in its queue, into the histogram and
    /// (when traced) the request's timeline. Called once per job at the
    /// moment it leaves a queue — via `next_job` or `take_batch`.
    fn note_dequeued(&self, job: &Job) {
        let now = Instant::now();
        let waited = now.checked_duration_since(job.enqueued).unwrap_or_default();
        self.state.obs().m.queue_wait.record_duration(waited);
        if let Some(t) = &job.trace {
            t.span("queue_wait", job.enqueued, now);
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.next_job() {
            self.note_dequeued(&job);
            if job.expired() {
                self.shed(job);
                continue;
            }
            let batch = self.take_batch(job);
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters
                .peak_batch
                .fetch_max(batch.len() as u64, Ordering::Relaxed);
            self.serve_batch(batch);
        }
    }

    /// Blocks for the next job, scanning datasets round-robin from the
    /// fairness cursor. Returns `None` once draining *and* empty.
    fn next_job(&self) -> Option<Job> {
        let mut qs = self.queues.lock().expect("queues poisoned");
        loop {
            let n = qs.order.len();
            for i in 0..n {
                let idx = (qs.cursor + i) % n;
                let name = qs.order[idx].clone();
                if let Some(job) = qs.queues.get_mut(&name).and_then(VecDeque::pop_front) {
                    qs.cursor = (idx + 1) % n;
                    qs.queued -= 1;
                    return Some(job);
                }
            }
            if qs.shutdown {
                return None;
            }
            qs = self.work_cv.wait(qs).expect("queues poisoned");
        }
    }

    /// Drains every queued job for the same `(kind, column)` on
    /// `first`'s dataset into one batch — they all share one prepare.
    fn take_batch(&self, first: Job) -> Vec<Job> {
        let mut batch = vec![first];
        {
            let mut qs = self.queues.lock().expect("queues poisoned");
            if let Some(queue) = qs.queues.get_mut(&batch[0].dataset) {
                let mut rest = VecDeque::with_capacity(queue.len());
                while let Some(job) = queue.pop_front() {
                    if batch[0].same_query(&job) {
                        batch.push(job);
                    } else {
                        rest.push_back(job);
                    }
                }
                *queue = rest;
                qs.queued -= batch.len() - 1;
            }
        }
        // The first job's dequeue was noted by `worker_loop`.
        for job in &batch[1..] {
            self.note_dequeued(job);
        }
        batch
    }

    fn shed(&self, job: Job) {
        self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        job.slot.complete(Err(ServeError::DeadlineExceeded));
    }

    fn serve_batch(&self, batch: Vec<Job>) {
        let lead = &batch[0];
        let prep_start = Instant::now();
        let prep = panic::catch_unwind(AssertUnwindSafe(|| {
            self.prepare_shared(&lead.dataset, lead.kind, &lead.column)
        }));
        let prep_end = Instant::now();
        let prep_dur = prep_end
            .checked_duration_since(prep_start)
            .unwrap_or_default();
        match prep {
            Err(payload) => {
                let message = panic_message(payload);
                for job in batch {
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    job.slot.complete_panicked(message.clone());
                }
            }
            Ok(Err(e)) => {
                for job in batch {
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    job.slot.complete(Err(e.clone()));
                }
            }
            Ok(Ok((prepared, query_id, ran_prepare))) => {
                let m = &self.state.obs().m;
                if ran_prepare {
                    m.engine_prepare.record_duration(prep_dur);
                }
                for (i, job) in batch.into_iter().enumerate() {
                    let leader_ran = ran_prepare && i == 0;
                    if !leader_ran {
                        self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                        m.coalesce_wait.record_duration(prep_dur);
                    }
                    if let Some(t) = &job.trace {
                        t.set_query_id(&query_id);
                        let name = if leader_ran {
                            "engine_prepare"
                        } else {
                            "coalesce_wait"
                        };
                        t.span(name, prep_start, prep_end);
                    }
                    if job.expired() {
                        // The prepare is shared state, not this job's
                        // cost — but its budget charge is, so an expired
                        // job is still shed before spending.
                        self.shed(job);
                        continue;
                    }
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match &job.op {
                        JobOp::Prepare => Ok(JobOutput::Prepared {
                            query_id: query_id.clone(),
                            sample_size: prepared.sample_size(),
                            cached: !leader_ran,
                        }),
                        JobOp::Release {
                            epsilon,
                            want_audit,
                        } => self
                            .state
                            .release_prepared_traced(
                                &job.dataset,
                                &query_id,
                                &prepared,
                                *epsilon,
                                *want_audit,
                                job.trace.as_ref(),
                            )
                            .map(|mut out| {
                                // Only the leader paid the cold prepare;
                                // coalesced followers shared its state.
                                out.cached = !leader_ran;
                                out.prepare_us = leader_ran.then_some(prep_dur.as_micros() as u64);
                                JobOutput::Released(Box::new(out))
                            }),
                    }));
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(result) => job.slot.complete(result),
                        Err(payload) => job.slot.complete_panicked(panic_message(payload)),
                    }
                }
            }
        }
    }

    /// Single-flight prepare: the first caller for a key runs the
    /// engine; concurrent callers (from other workers) wait on the
    /// in-flight entry and share its result. Returns `ran_prepare =
    /// true` only for the caller that actually ran the engine.
    fn prepare_shared(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
    ) -> Result<(Arc<PreparedAgg>, String, bool), ServeError> {
        let query_id = ServerState::query_id(dataset, kind, column);
        if let Some(p) = self.state.cached_prepared(dataset, kind, column) {
            return Ok((p, query_id, false));
        }
        let key = (dataset.to_string(), kind, column.to_string());
        let (entry, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight poisoned");
            // Re-check under the lock: a leader that just finished has
            // already populated the cache.
            if let Some(p) = self.state.cached_prepared(dataset, kind, column) {
                return Ok((p, query_id, false));
            }
            match inflight.get(&key) {
                Some(entry) => (Arc::clone(entry), false),
                None => {
                    let entry = Arc::new(Inflight {
                        state: Mutex::new(InflightState::Running),
                        cv: Condvar::new(),
                    });
                    inflight.insert(key.clone(), Arc::clone(&entry));
                    (entry, true)
                }
            }
        };
        if leader {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                self.state.prepare(dataset, kind, column)
            }));
            let shared = match &result {
                Ok(Ok((p, id, _))) => Ok((Arc::clone(p), id.clone())),
                Ok(Err(e)) => Err(e.clone()),
                Err(_) => Err(ServeError::Pipeline("prepare panicked".into())),
            };
            *entry.state.lock().expect("inflight poisoned") = InflightState::Done(shared);
            entry.cv.notify_all();
            // Remove *after* publishing: late arrivals now hit the cache
            // (on success) or start a fresh attempt (on failure).
            self.inflight
                .lock()
                .expect("inflight poisoned")
                .remove(&key);
            match result {
                Ok(Ok((p, id, cached))) => {
                    if !cached {
                        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok((p, id, !cached))
                }
                Ok(Err(e)) => Err(e),
                Err(payload) => panic::resume_unwind(payload),
            }
        } else {
            let mut state = entry.state.lock().expect("inflight poisoned");
            loop {
                match &*state {
                    InflightState::Running => {
                        state = entry.cv.wait(state).expect("inflight poisoned");
                    }
                    InflightState::Done(result) => {
                        return result.clone().map(|(p, id)| (p, id, false));
                    }
                }
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "scheduler worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{DatasetSpec, ServerConfig};

    fn sched_with(config: ServerConfig) -> (Arc<ServerState>, SchedulerHandle) {
        let state = Arc::new(ServerState::new(config).unwrap());
        let handle = Scheduler::start(Arc::clone(&state));
        (state, handle)
    }

    fn two_dataset_config() -> ServerConfig {
        ServerConfig {
            datasets: vec![
                DatasetSpec::synthetic("alpha", 1_500, 7),
                DatasetSpec::synthetic("beta", 1_500, 7),
            ],
            sample_size: 30,
            threads: 2,
            max_inflight_prepares: 2,
            queue_capacity: 4,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn submit_serves_prepare_and_release() {
        let (_state, handle) = sched_with(two_dataset_config());
        let sched = handle.scheduler();
        match sched
            .submit("alpha", AggKind::Sum, "v", JobOp::Prepare, None, None)
            .unwrap()
        {
            JobOutput::Prepared {
                query_id, cached, ..
            } => {
                assert_eq!(query_id, "alpha/sum/v");
                assert!(!cached, "first prepare runs the engine");
            }
            other => panic!("expected Prepared, got {other:?}"),
        }
        match sched
            .submit(
                "alpha",
                AggKind::Sum,
                "v",
                JobOp::Release {
                    epsilon: None,
                    want_audit: false,
                },
                None,
                None,
            )
            .unwrap()
        {
            JobOutput::Released(out) => assert_eq!(out.query_id, "alpha/sum/v"),
            other => panic!("expected Released, got {other:?}"),
        }
        let stats = sched.stats();
        assert_eq!(stats.prepares, 1);
        assert_eq!(stats.coalesced, 1, "the release coalesced onto the cache");
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn unknown_dataset_and_bad_epsilon_fail_before_queueing() {
        let (_state, handle) = sched_with(two_dataset_config());
        let sched = handle.scheduler();
        assert_eq!(
            sched
                .submit("nope", AggKind::Count, "", JobOp::Prepare, None, None)
                .unwrap_err()
                .code()
                .as_str(),
            "unknown_dataset"
        );
        assert_eq!(
            sched
                .submit(
                    "alpha",
                    AggKind::Count,
                    "",
                    JobOp::Release {
                        epsilon: Some(-2.0),
                        want_audit: false
                    },
                    None,
                    None,
                )
                .unwrap_err()
                .code()
                .as_str(),
            "bad_request"
        );
        assert_eq!(sched.stats().submitted, 0);
    }

    #[test]
    fn expired_deadline_is_shed_with_deadline_code() {
        let (_state, handle) = sched_with(two_dataset_config());
        let sched = handle.scheduler();
        // A zero deadline expires the moment a worker looks at it.
        let err = sched
            .submit(
                "alpha",
                AggKind::Sum,
                "v",
                JobOp::Release {
                    epsilon: None,
                    want_audit: false,
                },
                Some(0),
                None,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(err.code().as_str(), "deadline");
        let stats = sched.stats();
        assert_eq!(stats.shed_deadline, 1);
        // The shed request charged nothing and ran nothing.
        assert_eq!(stats.prepares, 0);
    }

    #[test]
    fn drain_completes_queued_work_then_refuses() {
        let (_state, mut handle) = sched_with(two_dataset_config());
        let sched = handle.scheduler();
        sched
            .submit("beta", AggKind::Mean, "v", JobOp::Prepare, None, None)
            .unwrap();
        handle.drain();
        assert_eq!(
            sched
                .submit("beta", AggKind::Mean, "v", JobOp::Prepare, None, None)
                .unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn round_robin_cursor_covers_all_datasets() {
        let (_state, handle) = sched_with(two_dataset_config());
        let sched = handle.scheduler();
        let mut threads = Vec::new();
        for name in ["alpha", "beta", "alpha", "beta"] {
            let sched = Arc::clone(&sched);
            threads.push(std::thread::spawn(move || {
                sched.submit(name, AggKind::Count, "", JobOp::Prepare, None, None)
            }));
        }
        for t in threads {
            t.join().unwrap().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 4);
        // One engine prepare per dataset, the duplicates coalesced.
        assert_eq!(stats.prepares, 2);
        assert_eq!(stats.coalesced, 2);
    }
}
