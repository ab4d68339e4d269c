//! A persistent worker pool shared by the engine's parallel paths.
//!
//! The seed engine spawned fresh OS threads per batch call via scoped
//! threads. Thread creation costs dwarf a lane block's work, so the
//! parallel paths now submit work to one process-wide pool of long-lived
//! workers ([`WorkerPool::global`]), mirroring how the physical CUs are
//! instantiated once at bitstream programming and then fed inputs.
//!
//! [`WorkerPool::scatter_scoped`] is the submission primitive: run a
//! batch of jobs that may borrow from the caller's stack, return results
//! in submission order — batch classification and the sharded mux
//! share borrowed slices across workers without cloning the engine or
//! copying sequences. While waiting, the submitting thread drains pending pool
//! jobs itself, so nested scatters cannot deadlock even when every
//! worker is busy.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// A job panicked on the pool.
///
/// [`WorkerPool::try_scatter_scoped`] surfaces this instead of
/// re-raising the panic, so callers can treat a poisoned job like any
/// other fallible operation. Only the *first* observed panic is
/// reported; every submitted job still runs to completion first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A submitted job panicked; its siblings were unaffected.
    JobPanicked {
        /// Submission index of the panicking job.
        index: usize,
        /// The panic payload, stringified where possible.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::JobPanicked { index, message } => {
                write!(f, "pool job {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Renders a panic payload for [`PoolError::JobPanicked`].
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A poisoned pool lock only means some thread panicked mid-operation;
/// the queue's invariants (a VecDeque and a bool) survive unwinding, so
/// keep going instead of cascading the panic to every other user.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

struct Queue {
    jobs: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    pending: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn push(&self, job: Job) {
        let mut state = relock(self.jobs.lock());
        state.pending.push_back(job);
        drop(state);
        self.available.notify_one();
    }

    /// Blocks until a job is available (workers) or the pool closes.
    fn pop_blocking(&self) -> Option<Job> {
        let mut state = relock(self.jobs.lock());
        loop {
            if let Some(job) = state.pending.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = relock(self.available.wait(state));
        }
    }

    /// Takes a job only if one is immediately available (helpers).
    fn try_pop(&self) -> Option<Job> {
        relock(self.jobs.lock()).pending.pop_front()
    }

    fn close(&self) {
        relock(self.jobs.lock()).closed = true;
        self.available.notify_all();
    }
}

/// A fixed-size pool of long-lived worker threads.
///
/// Most callers want the process-wide [`WorkerPool::global`]; constructing
/// private pools is supported for tests. A panicking job poisons only
/// itself: the submitter sees it as a [`PoolError`] (or a re-raised
/// panic from the infallible wrapper), sibling jobs run to completion,
/// and a worker thread killed by an escaped panic is respawned on the
/// next submission.
pub struct WorkerPool {
    queue: Arc<Queue>,
    threads: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Builds a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|worker| Self::spawn_worker(Arc::clone(&queue), worker))
            .collect();
        Self {
            queue,
            threads,
            workers: Mutex::new(workers),
        }
    }

    fn spawn_worker(queue: Arc<Queue>, worker: usize) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("csd-pool-{worker}"))
            .spawn(move || {
                while let Some(job) = queue.pop_blocking() {
                    // Scatter wrappers catch job panics and route them to
                    // the submitter; a panic that still escapes (e.g. a
                    // payload whose Drop panics) kills this thread, and
                    // `ensure_workers` replaces it on the next submission.
                    job();
                }
            })
            .expect("spawn pool worker")
    }

    /// Respawns any worker thread that died to an escaped panic.
    fn ensure_workers(&self) {
        let mut workers = relock(self.workers.lock());
        for (idx, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() {
                *slot = Self::spawn_worker(Arc::clone(&self.queue), idx);
            }
        }
    }

    /// Test-only: pushes a raw job with no panic-catching wrapper, so a
    /// panicking job kills its worker thread (the respawn path's prey).
    #[cfg(test)]
    fn push_raw(&self, job: Job) {
        self.queue.push(job);
    }

    /// Number of worker threads currently alive.
    pub fn alive_workers(&self) -> usize {
        relock(self.workers.lock())
            .iter()
            .filter(|w| !w.is_finished())
            .count()
    }

    /// The single process-wide pool, created on first use with one
    /// worker per core the machine makes available.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            WorkerPool::new(std::thread::available_parallelism().map_or(4, |n| n.get()))
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Drains `submitted` results off `result_rx`, helping run pool jobs
    /// while waiting.
    fn collect<R>(
        &self,
        submitted: usize,
        result_rx: &std::sync::mpsc::Receiver<(usize, std::thread::Result<R>)>,
    ) -> Result<Vec<R>, PoolError> {
        let mut slots: Vec<Option<R>> = (0..submitted).map(|_| None).collect();
        let mut received = 0usize;
        let mut first_error: Option<PoolError> = None;
        while received < submitted {
            match result_rx.recv_timeout(Duration::from_millis(1)) {
                Ok((index, Ok(value))) => {
                    slots[index] = Some(value);
                    received += 1;
                }
                Ok((index, Err(payload))) => {
                    received += 1;
                    if first_error.is_none() {
                        first_error = Some(PoolError::JobPanicked {
                            index,
                            message: payload_message(payload.as_ref()),
                        });
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Help: run one pending pool job (possibly our own).
                    if let Some(job) = self.queue.try_pop() {
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("result senders outlive their jobs")
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every index reported"))
            .collect())
    }

    /// Runs every job on the pool and returns their results in
    /// submission order. Jobs may borrow from the caller's stack frame
    /// (`'env`). The calling thread helps drain the pool while waiting,
    /// so scatters may nest arbitrarily without deadlocking.
    ///
    /// This is what lets the batch paths hand workers *references* to the
    /// engine and the input sequences instead of cloning an `Arc` handle
    /// and copying every sequence per chunk.
    ///
    /// # Panics
    ///
    /// Panics with the first observed job panic's message — but only
    /// after every submitted job has finished running, so borrowed data is
    /// never observed by a worker past this call's lifetime. Use
    /// [`try_scatter_scoped`](Self::try_scatter_scoped) to handle it as
    /// an error.
    pub fn scatter_scoped<'env, R: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Vec<R> {
        match self.try_scatter_scoped(jobs) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`scatter_scoped`](Self::scatter_scoped): a panicking
    /// job becomes a [`PoolError::JobPanicked`]. The scope barrier is
    /// unchanged — every job finishes before this returns, on the error
    /// path too.
    ///
    /// # Errors
    ///
    /// Returns the first observed job panic.
    #[allow(unsafe_code)] // one lifetime transmute, justified below.
    pub fn try_scatter_scoped<'env, R: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Result<Vec<R>, PoolError> {
        self.ensure_workers();
        let submitted = jobs.len();
        let done: Arc<(Mutex<usize>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
        let (result_tx, result_rx) = channel();
        // Declared after `result_rx` so it drops (and therefore waits for
        // every outstanding job) *before* the receiver frees any buffered
        // `R` values during an unwind.
        let guard = ScopeGuard {
            done: Arc::clone(&done),
            submitted,
            queue: Arc::clone(&self.queue),
        };
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = result_tx.clone();
            let done = Arc::clone(&done);
            let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // The submitter may already be unwinding; a dead channel
                // is fine then.
                let _ = tx.send((index, outcome));
                // Drop every capture that can reference `'env` *before*
                // signalling completion: once the counter says "done" the
                // submitting frame may return and invalidate the borrows.
                drop(tx);
                let (count, cvar) = &*done;
                *relock(count.lock()) += 1;
                cvar.notify_all();
            });
            // SAFETY: the queue's `Job` type requires `'static`, but this
            // wrapper only borrows data from the current stack frame
            // (`'env`). `guard` (declared above, dropped on every exit
            // path of this function including unwinds) blocks until the
            // completion counter reaches `submitted`, and each wrapper
            // increments that counter strictly after its last use of any
            // `'env` capture. Therefore no borrowed data is accessed
            // after this function returns, which is the invariant the
            // `'static` bound exists to enforce.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                    wrapper,
                )
            };
            self.queue.push(job);
        }
        drop(result_tx);

        let result = self.collect(submitted, &result_rx);
        drop(guard);
        result
    }
}

/// Blocks in `Drop` until every job of one `scatter_scoped` call has
/// signalled completion — the linchpin of that method's safety argument.
/// Runs on both the normal and the unwinding exit path.
struct ScopeGuard {
    done: Arc<(Mutex<usize>, Condvar)>,
    submitted: usize,
    queue: Arc<Queue>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let (count, cvar) = &*self.done;
        loop {
            let finished = relock(count.lock());
            if *finished >= self.submitted {
                return;
            }
            // Keep helping while we wait so a pool saturated with nested
            // scatters cannot deadlock against this barrier.
            let (finished, _) = cvar
                .wait_timeout(finished, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            if *finished >= self.submitted {
                return;
            }
            drop(finished);
            if let Some(job) = self.queue.try_pop() {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let results = pool.scatter_scoped(jobs);
        assert_eq!(results, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // One worker, two levels of scatter: only possible because the
        // submitting thread drains the queue while waiting.
        let pool = WorkerPool::new(1);
        let outer: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..3usize)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
                        .map(|j| Box::new(move || i * 10 + j) as Box<dyn FnOnce() -> usize + Send>)
                        .collect();
                    WorkerPool::global().scatter_scoped(inner).into_iter().sum()
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let sums = pool.scatter_scoped(outer);
        assert_eq!(sums, vec![6, 46, 86]);
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        let pool = WorkerPool::new(2);
        let boom: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(|| panic!("job failure")) as Box<dyn FnOnce() + Send>];
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.scatter_scoped(boom)));
        assert!(outcome.is_err(), "panic should reach the submitter");
        // The pool still works afterwards.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 7u32) as Box<dyn FnOnce() -> u32 + Send>];
        assert_eq!(pool.scatter_scoped(jobs), vec![7]);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().threads() >= 1);
    }

    #[test]
    fn empty_scatter_returns_empty() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(pool.scatter_scoped(jobs).is_empty());
    }

    #[test]
    fn scatter_scoped_borrows_from_the_stack() {
        let pool = WorkerPool::new(4);
        let data: Vec<usize> = (0..128).collect();
        let chunks: Vec<&[usize]> = data.chunks(16).collect();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = chunks
            .iter()
            .map(|chunk| Box::new(move || chunk.iter().sum::<usize>()) as _)
            .collect();
        let sums = pool.scatter_scoped(jobs);
        let expected: Vec<usize> = chunks.iter().map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn scatter_scoped_preserves_order_and_nests() {
        let pool = WorkerPool::new(1);
        let base = [1usize, 2, 3];
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..6usize)
            .map(|i| {
                let base = &base;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> usize + Send + '_>> =
                        base.iter().map(|&b| Box::new(move || b * i) as _).collect();
                    WorkerPool::global().scatter_scoped(inner).into_iter().sum()
                }) as _
            })
            .collect();
        let results = pool.scatter_scoped(jobs);
        assert_eq!(results, (0..6usize).map(|i| 6 * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_scoped_waits_out_all_jobs_on_panic() {
        let pool = WorkerPool::new(2);
        let flags: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = flags
            .iter()
            .enumerate()
            .map(|(i, flag)| {
                Box::new(move || {
                    flag.store(1, Ordering::SeqCst);
                    if i == 0 {
                        panic!("scoped job failure");
                    }
                    i
                }) as _
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.scatter_scoped(jobs)));
        assert!(outcome.is_err(), "panic should reach the submitter");
        // The scope barrier ran every job to completion before the panic
        // escaped, so every borrowed flag was touched exactly while valid.
        for flag in &flags {
            assert_eq!(flag.load(Ordering::SeqCst), 1);
        }
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 11u32) as Box<dyn FnOnce() -> u32 + Send>];
        assert_eq!(pool.scatter_scoped(jobs), vec![11]);
    }

    #[test]
    fn try_scatter_reports_the_panicking_job_without_unwinding() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("job {i} failure");
                    }
                    i * 2
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = pool.try_scatter_scoped(jobs).expect_err("job 3 panicked");
        let PoolError::JobPanicked { index, message } = err;
        assert_eq!(index, 3);
        assert!(message.contains("job 3 failure"), "{message}");
        // Siblings ran, the pool is intact.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 9u32) as Box<dyn FnOnce() -> u32 + Send>];
        assert_eq!(pool.try_scatter_scoped(jobs), Ok(vec![9]));
    }

    #[test]
    fn try_scatter_scoped_runs_every_job_before_reporting() {
        let pool = WorkerPool::new(2);
        let flags: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = flags
            .iter()
            .enumerate()
            .map(|(i, flag)| {
                Box::new(move || {
                    flag.store(1, Ordering::SeqCst);
                    assert!(i != 0, "scoped job failure");
                    i
                }) as _
            })
            .collect();
        let err = pool.try_scatter_scoped(jobs).expect_err("job 0 panicked");
        assert!(matches!(err, PoolError::JobPanicked { index: 0, .. }));
        for flag in &flags {
            assert_eq!(flag.load(Ordering::SeqCst), 1, "barrier ran every job");
        }
    }

    #[test]
    fn dead_worker_is_respawned_on_next_submission() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.alive_workers(), 2);
        // A raw job has no catch wrapper: its panic kills the worker.
        pool.push_raw(Box::new(|| panic!("worker killer")));
        for _ in 0..500 {
            if pool.alive_workers() < 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(pool.alive_workers() < 2, "the raw panic killed a worker");
        // The next scatter respawns it and still completes.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| Box::new(move || i * 3) as Box<dyn FnOnce() -> u32 + Send>)
            .collect();
        assert_eq!(
            pool.scatter_scoped(jobs),
            (0..8u32).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert_eq!(pool.alive_workers(), 2, "full strength restored");
    }

    #[test]
    fn zero_threads_still_yields_one_worker() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkerPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..50)
            .map(|_| {
                Box::new(|| {
                    COUNTER.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.scatter_scoped(jobs);
        assert_eq!(COUNTER.load(Ordering::SeqCst), 50);
    }
}
