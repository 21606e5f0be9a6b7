//! Persistent worker pool over `std::sync::mpsc` bounded channels.
//!
//! Workers are spawned once and live until the pool is dropped; each
//! [`ExecPool::run`] call dispatches indexed jobs round-robin and collects
//! results keyed by job index, so the returned vector is in job order no
//! matter which worker ran which job. A panicking job is caught with
//! [`std::panic::catch_unwind`] and reported as [`PoolError::Panicked`]
//! instead of poisoning a `JoinHandle` or aborting the process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use stepping_metrics::{metric, start_timer, LogHistogram, MetricsRegistry};

/// Always-on pool phase metrics in the process-wide registry.
struct PoolMetrics {
    dispatch_ns: Arc<LogHistogram>,
    reduce_ns: Arc<LogHistogram>,
    run_ns: Arc<LogHistogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        PoolMetrics {
            dispatch_ns: registry.register_histogram(metric::EXEC_DISPATCH_NS),
            reduce_ns: registry.register_histogram(metric::EXEC_REDUCE_NS),
            run_ns: registry.register_histogram(metric::EXEC_POOL_RUN_NS),
        }
    })
}

/// A unit of work submitted to [`ExecPool::run`].
pub type Job<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// A dispatched task: a job already wired to its result channel.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Typed failure of a pool run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A job panicked; carries the stringified panic payload.
    Panicked(String),
    /// The pool's workers went away mid-run (should not happen in normal
    /// operation; indicates the process is tearing down).
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            PoolError::Disconnected => write!(f, "worker pool disconnected"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Queued tasks each worker channel may hold before `send` blocks; workers
/// never block on the result side, so dispatch always drains.
const WORKER_QUEUE: usize = 256;

/// A persistent pool of worker threads executing [`Job`]s.
///
/// With `threads <= 1` no threads are spawned at all: jobs run inline on the
/// calling thread, in index order — the sequential fallback. Results are
/// identical either way because jobs are self-contained and results are
/// collected by index.
pub struct ExecPool {
    senders: Vec<SyncSender<Task>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ExecPool {
    /// Spawns a pool of `threads` persistent workers (`threads <= 1` spawns
    /// none and runs jobs inline).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        if threads > 1 {
            for _ in 0..threads {
                let (tx, rx) = mpsc::sync_channel::<Task>(WORKER_QUEUE);
                handles.push(std::thread::spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task();
                    }
                }));
                senders.push(tx);
            }
        }
        ExecPool {
            senders,
            handles,
            threads,
        }
    }

    /// Number of workers this pool schedules onto (1 = inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `jobs` and returns their results in job-index order.
    ///
    /// Jobs are dispatched round-robin (`job i` → `worker i % threads`); the
    /// assignment affects scheduling only, never results, since each job is
    /// self-contained and the output vector is keyed by index.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Panicked`] if any job panicked (all results are
    /// still drained first, so the pool stays usable), or
    /// [`PoolError::Disconnected`] if the workers vanished mid-run.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Job<T>>) -> Result<Vec<T>, PoolError> {
        let n = jobs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let metrics = pool_metrics();
        let _run_timer = start_timer(&metrics.run_ns);
        if self.senders.is_empty() {
            // Inline sequential execution, index order.
            let mut out = Vec::with_capacity(n);
            let mut first_panic = None;
            for job in jobs {
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(v) => out.push(v),
                    Err(p) => {
                        first_panic.get_or_insert_with(|| panic_message(p.as_ref()));
                    }
                }
            }
            return match first_panic {
                None => Ok(out),
                Some(msg) => Err(PoolError::Panicked(msg)),
            };
        }
        let (tx, rx) = mpsc::sync_channel::<(usize, std::thread::Result<T>)>(n);
        let dispatch_timer = start_timer(&metrics.dispatch_ns);
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let task: Task = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                let _ = tx.send((i, result));
            });
            if self.senders[i % self.senders.len()].send(task).is_err() {
                return Err(PoolError::Disconnected);
            }
        }
        drop(tx);
        dispatch_timer.stop();
        let reduce_timer = start_timer(&metrics.reduce_ns);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic = None;
        for _ in 0..n {
            match rx.recv() {
                Ok((i, Ok(v))) => slots[i] = Some(v),
                Ok((_, Err(p))) => {
                    first_panic.get_or_insert_with(|| panic_message(p.as_ref()));
                }
                Err(_) => return Err(PoolError::Disconnected),
            }
        }
        reduce_timer.stop();
        if let Some(msg) = first_panic {
            return Err(PoolError::Panicked(msg));
        }
        // Every index was delivered exactly once above; an empty slot means a
        // worker dropped its result channel without sending.
        let out: Vec<T> = slots
            .into_iter()
            .map(|s| s.ok_or(PoolError::Disconnected))
            .collect::<Result<_, _>>()?;
        Ok(out)
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops; join so no thread
        // outlives the pool.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(pool: &ExecPool, n: usize) -> Vec<usize> {
        let jobs: Vec<Job<usize>> = (0..n)
            .map(|i| Box::new(move || i * i) as Job<usize>)
            .collect();
        pool.run(jobs).unwrap()
    }

    #[test]
    fn results_arrive_in_job_order() {
        for threads in [1usize, 2, 4] {
            let pool = ExecPool::new(threads);
            let got = squares(&pool, 37);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn pool_survives_across_runs() {
        let pool = ExecPool::new(3);
        for _ in 0..5 {
            assert_eq!(squares(&pool, 10), squares(&pool, 10));
        }
    }

    #[test]
    fn panic_is_reported_not_fatal() {
        for threads in [1usize, 3] {
            let pool = ExecPool::new(threads);
            let jobs: Vec<Job<u32>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("boom {}", 42)),
                Box::new(|| 3),
            ];
            match pool.run(jobs) {
                Err(PoolError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
                other => panic!("expected panic error, got {other:?}"),
            }
            // the pool is still usable afterwards
            assert_eq!(squares(&pool, 4), vec![0, 1, 4, 9]);
        }
    }

    #[test]
    fn empty_run_is_ok() {
        let pool = ExecPool::new(2);
        let got: Vec<u8> = pool.run(Vec::new()).unwrap();
        assert!(got.is_empty());
    }
}
