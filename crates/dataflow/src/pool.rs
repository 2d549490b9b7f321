//! A shared worker thread pool.
//!
//! The engine schedules one task per partition onto this pool, mirroring
//! Spark's executor model at laptop scale. Jobs are `'static` closures; the
//! higher-level [`crate::context::Context`] wraps partition data in `Arc`s
//! so that stage closures satisfy the bound without copying records.

use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool fed through one channel whose receiver the
/// workers share behind a mutex.
///
/// Dropping the pool closes the channel and joins every worker; any queued
/// jobs finish first (graceful drain), satisfying the "destructors never
/// fail / never block indefinitely" guidance because workers always exit
/// once the queue empties.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `size` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool size must be positive");
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("dataflow-worker-{i}"))
                    .spawn(move || loop {
                        // The guard drops at the end of this statement, so
                        // the job runs without holding the queue. Exit
                        // when the channel is closed and drained.
                        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok(job) = next else { break };
                        job();
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submits a job for execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool is live while not dropped")
            .send(Box::new(job))
            .expect("workers never close the receiver first");
    }

    /// Runs `f` over every input on the pool and returns the outputs in
    /// input order. Blocks until all tasks complete.
    ///
    /// This is the engine's core scheduling primitive: one task per input.
    /// If a task panics the panic is captured and re-raised on the calling
    /// thread (fail-fast, like Spark aborting a job on task failure).
    pub fn map_ordered<I, O, F>(&self, inputs: Vec<I>, f: Arc<F>) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        // Fast path: a single input runs inline, avoiding channel overhead
        // for the very common single-partition reduce finalisation.
        if n == 1 {
            let input = inputs.into_iter().next().expect("n == 1");
            return vec![f(0, input)];
        }
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<O>)>();
        for (i, input) in inputs.into_iter().enumerate() {
            let tx = tx.clone();
            let f = Arc::clone(&f);
            self.execute(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, input)));
                // The receiver may be gone if the caller already panicked;
                // ignore the send error in that case.
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, result) = rx.recv().expect("every task sends exactly once");
            match result {
                Ok(v) => slots[i] = Some(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker drain and exit.
        self.sender.take();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // The pool can be dropped *from* one of its own workers when a
            // task closure holds the last handle to the engine; joining
            // yourself is a guaranteed deadlock (EDEADLK), so that worker
            // is detached instead — it exits on its own once the closed
            // channel drains.
            if worker.thread().id() == me {
                continue;
            }
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_ordered_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map_ordered((0..100).collect(), Arc::new(|_i, x: i32| x * x));
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_ordered_empty_input() {
        let pool = ThreadPool::new(2);
        let out: Vec<i32> = pool.map_ordered(Vec::<i32>::new(), Arc::new(|_i, x: i32| x));
        assert!(out.is_empty());
    }

    #[test]
    fn map_ordered_single_input_runs_inline() {
        let pool = ThreadPool::new(2);
        let tid = std::thread::current().id();
        let out = pool.map_ordered(
            vec![5i32],
            Arc::new(move |_i, x: i32| {
                assert_eq!(std::thread::current().id(), tid);
                x + 1
            }),
        );
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn actually_runs_in_parallel() {
        let pool = ThreadPool::new(4);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&concurrent);
        let p = Arc::clone(&peak);
        pool.map_ordered(
            (0..8).collect::<Vec<i32>>(),
            Arc::new(move |_i, _x| {
                let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                c.fetch_sub(1, Ordering::SeqCst);
            }),
        );
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "expected at least two tasks in flight"
        );
    }

    #[test]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ordered(
                (0..4).collect::<Vec<i32>>(),
                Arc::new(|_i, x: i32| {
                    if x == 2 {
                        panic!("boom");
                    }
                    x
                }),
            );
        }));
        assert!(result.is_err());
        // Pool must remain usable after a task panic.
        let out = pool.map_ordered(vec![1, 2, 3], Arc::new(|_i, x: i32| x + 1));
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_size_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn drop_from_worker_thread_does_not_deadlock() {
        use std::sync::atomic::AtomicBool;
        // A task closure holding the last handle to the pool drops it from
        // a worker thread; the drop must detach that worker, not self-join.
        let done = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(ThreadPool::new(2));
        let held = Arc::clone(&pool);
        let flag = Arc::clone(&done);
        pool.execute(move || {
            // Let the main thread release its handle first so this one is
            // the last.
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
            flag.store(true, Ordering::SeqCst);
        });
        drop(pool);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !done.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never survived dropping the pool from itself"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(1);
            for _ in 0..16 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Pool dropped here; all 16 jobs must still run.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
