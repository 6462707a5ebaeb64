//! The workspace's one partition rule and the persistent worker pool that
//! runs the partitions.
//!
//! Both execution engines — `cpl`'s plan executor and `wol-engine`'s clause
//! matcher and constraint checker — cut their work into contiguous
//! partitions and run them here. How many is a *policy* value threaded down
//! from the pipeline driver: a [`Parallelism`] is a thread budget (default:
//! the machine's available cores, overridable with the `WOL_THREADS`
//! environment variable, which the CI thread matrix uses to run the whole
//! suite single- and multi-threaded).
//!
//! ## The rule
//!
//! [`Parallelism::partitions`] is the only place a partition count is
//! decided: an input of `items` runs as **one** partition when the budget is
//! one thread or the input is smaller than the minimum (128 items, below
//! which a pool round costs more than it saves), and as `min(threads,
//! items)` contiguous partitions otherwise ([`chunk_ranges`]). Tests lower
//! the minimum with [`Parallelism::with_min_items`] to partition tiny,
//! hand-checkable inputs; results are identical either way. One partition
//! runs inline on the caller, so "sequential execution" is just the
//! one-partition case.
//!
//! Parallel execution is *deterministic*: the same inputs produce
//! bit-identical outputs at every budget. The engines partition by data, not
//! by scheduling, and reassemble results in input order; a Skolem identity is
//! a function of its key, so each partition mints through a factory of its
//! own and the factories fold into the caller's in partition order. The pool
//! only decides *where* a partition runs, never what it computes.
//!
//! ## The pool contract
//!
//! * A pool for a budget of `n` threads spawns `n - 1` long-lived workers
//!   that block on a shared job channel; a one-thread budget spawns none. A
//!   worker that fails to spawn leaves a smaller pool, never an error:
//!   the caller's participation alone guarantees progress.
//! * [`WorkerPool::scope`] runs a batch of closures to completion and
//!   returns their results **in submission order**. The calling thread runs
//!   queued jobs itself, so a scope entered from a pool job (query-level
//!   parallelism nesting operator-level parallelism) drains its own batch
//!   even when every worker is busy: `scope` cannot deadlock.
//! * A batch nobody could share — one job, or a pool without workers — runs
//!   on the caller with no lock or channel round.
//! * Jobs run outside the pool's locks under `catch_unwind`; the first panic
//!   by submission index is re-raised on the caller once the whole batch has
//!   finished — the propagate-on-join contract of [`std::thread::scope`],
//!   never a hang. Workers survive a panicking job. A poisoned lock is
//!   recovered, not escalated: nothing panics while holding one.
//! * [`WorkerPool::shared`] keeps one pool per thread count for the life of
//!   the process; dropping a pool closes the channel and joins its workers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Inputs smaller than this run as one partition: a pool round costs a few
/// microseconds, which fewer items do not repay.
const MIN_ITEMS: usize = 128;

/// A thread budget and the one partition rule over it. Always at least one
/// thread; one thread means fully sequential execution (no threads spawned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Parallelism {
    threads: usize,
    min_items: usize,
}

impl Parallelism {
    /// Exactly `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            min_items: MIN_ITEMS,
        }
    }

    /// Sequential execution: one worker, no threads spawned.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The same budget with another minimum partitioned input (clamped to at
    /// least one item). Tests lower it to partition tiny inputs.
    pub fn with_min_items(self, min_items: usize) -> Self {
        Parallelism {
            min_items: min_items.max(1),
            ..self
        }
    }

    /// The environment's parallelism: `WOL_THREADS` if set to an integer
    /// (see [`from_spec`](Self::from_spec)), otherwise the available cores.
    /// A set-but-unparsable `WOL_THREADS` falls back to the available cores
    /// and warns **once** per process on stderr, so a typo is not mistaken
    /// for the default.
    pub fn from_env() -> Self {
        match std::env::var("WOL_THREADS") {
            Ok(raw) => match Self::from_spec(&raw) {
                Some(parallelism) => parallelism,
                None => {
                    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                    WARN_ONCE.call_once(|| {
                        eprintln!(
                            "[wol] WOL_THREADS={raw:?} is not an integer; \
                             falling back to all available cores"
                        );
                    });
                    Self::available()
                }
            },
            Err(_) => Self::available(),
        }
    }

    /// Parse a `WOL_THREADS`-style specification: an integer, surrounded by
    /// optional whitespace. `0` clamps to sequential (matching
    /// [`Parallelism::new`]); anything unparsable — including an empty or
    /// all-whitespace string — is `None`. Split out of [`from_env`] so the
    /// parsing rules are unit-testable without racing on the process
    /// environment.
    ///
    /// [`from_env`]: Parallelism::from_env
    pub fn from_spec(raw: &str) -> Option<Self> {
        raw.trim().parse::<usize>().ok().map(Parallelism::new)
    }

    /// The machine's available cores, ignoring `WOL_THREADS`.
    pub fn available() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The number of worker threads.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// True when no threads would be spawned.
    pub fn is_sequential(self) -> bool {
        self.threads <= 1
    }

    /// How many partitions work over `items` inputs runs on — the one rule
    /// (see the module docs): 1 under a one-thread budget or below the
    /// minimum, `min(threads, items)` otherwise.
    pub fn partitions(self, items: usize) -> usize {
        if self.threads <= 1 || items < self.min_items {
            1
        } else {
            self.threads.min(items)
        }
    }
}

impl Default for Parallelism {
    /// The environment default ([`Parallelism::from_env`]).
    fn default() -> Self {
        Self::from_env()
    }
}

/// Split `n` items into at most `threads` contiguous, order-preserving index
/// ranges of near-equal length (the first `n % threads` ranges are one item
/// longer). Empty ranges are never emitted, so the result has
/// `min(threads, n)` entries; concatenating the ranges in order yields
/// `0..n`. Partitioning work this way keeps parallel results mergeable in
/// input order, which is what makes the executors deterministic.
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let workers = threads.max(1).min(n);
    if workers == 0 {
        return Vec::new();
    }
    let base = n / workers;
    let extra = n % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// A job as the executors submit it: a closure borrowing scope-local data.
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A type-erased ticket shipped to pool workers through the job channel.
type Ticket = Box<dyn FnOnce() + Send + 'static>;

/// Take a lock, recovering it if a thread panicked while holding it. No code
/// here panics under a lock, so the data behind a poisoned one is intact.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight [`WorkerPool::scope`] batch: the job queue, the result
/// slots, and the completion latch. Jobs are popped by whoever gets there
/// first (the calling thread or a pool worker), run outside every lock, and
/// their results land in the slot of their submission index, so result
/// order never depends on scheduling. The queue, the slots and the latch are
/// locked apart: one lock for all three measured 15–25 % slower on the
/// skewed-join load (wolbench `load_skew`, 2 vCPUs).
struct ScopeState<'env, T> {
    jobs: Mutex<VecDeque<(usize, Job<'env, T>)>>,
    results: Mutex<Vec<Option<std::thread::Result<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

impl<T: Send> ScopeState<'_, T> {
    /// Pop and run one job if any are queued; returns whether a job ran.
    /// Panics are caught into the job's result slot — the executing thread
    /// (pool worker or caller) always survives — and the latch counts the
    /// job as finished either way, so a panicking batch completes instead of
    /// hanging.
    fn run_one(&self) -> bool {
        let popped = lock(&self.jobs).pop_front();
        let Some((slot, job)) = popped else {
            return false;
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        if let Some(cell) = lock(&self.results).get_mut(slot) {
            *cell = Some(result);
        }
        let mut remaining = lock(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
        true
    }
}

/// A persistent pool of worker threads shared by the parallel executors.
/// See the module docs for the contract: submission-ordered results, caller
/// participation (no deadlocks, nesting allowed), panic propagation on join,
/// workers joined on drop.
pub struct WorkerPool {
    /// Job channel; `None` only during drop (closing it stops the workers).
    sender: Option<Sender<Ticket>>,
    workers: Vec<JoinHandle<()>>,
    /// Live worker-thread count, for lifecycle assertions: incremented as a
    /// worker starts, decremented as its loop exits.
    live: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// A pool sized for `parallelism`: `threads - 1` OS workers (the calling
    /// thread is the remaining unit of concurrency), so
    /// [`Parallelism::sequential`] spawns no threads at all.
    pub fn new(parallelism: Parallelism) -> Self {
        let (sender, receiver) = channel::<Ticket>();
        let receiver = Arc::new(Mutex::new(receiver));
        let live = Arc::new(AtomicUsize::new(0));
        let workers = (1..parallelism.threads())
            .filter_map(|i| {
                let (receiver, live) = (Arc::clone(&receiver), Arc::clone(&live));
                std::thread::Builder::new()
                    .name(format!("wol-worker-{i}"))
                    .spawn(move || serve(&receiver, &live))
                    .ok()
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            live,
        }
    }

    /// The process-wide shared pool for a thread count. Executors sharing a
    /// [`Parallelism`] share workers instead of spawning their own; the pool
    /// persists for the life of the process (idle workers block on the job
    /// channel and cost nothing).
    pub fn shared(parallelism: Parallelism) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<BTreeMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(BTreeMap::new()));
        Arc::clone(
            lock(pools)
                .entry(parallelism.threads())
                .or_insert_with(|| Arc::new(WorkerPool::new(parallelism))),
        )
    }

    /// The concurrency this pool provides (OS workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// The number of OS worker threads the pool spawned (`threads() - 1`).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A handle to the live worker-thread counter, for lifecycle tests: the
    /// count drops to zero once [`Drop`] has joined every worker.
    pub fn live_workers(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live)
    }

    /// Run a batch of jobs to completion and return their results **in
    /// submission order**. The calling thread executes queued jobs alongside
    /// the pool workers (see the module docs), then blocks until stragglers
    /// stolen by workers finish. If any job panicked, the first panic (by
    /// submission index — the one a sequential left-to-right run would have
    /// hit first) is re-raised here after the whole batch has completed.
    ///
    /// A batch nobody could share — a single job, or a pool without workers
    /// — runs left to right on the calling thread with no synchronisation
    /// round at all; a panic then propagates as it happens.
    pub fn scope<'env, T: Send + 'env>(&self, jobs: Vec<Job<'env, T>>) -> Vec<T> {
        let n = jobs.len();
        let sender = match &self.sender {
            Some(sender) if n > 1 && !self.workers.is_empty() => sender,
            _ => return jobs.into_iter().map(|job| job()).collect(),
        };
        let state = Arc::new(ScopeState {
            jobs: Mutex::new(jobs.into_iter().enumerate().collect()),
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        // Offer at most (jobs - 1) tickets to the workers — the caller will
        // run at least one job itself — capped at the worker count.
        let tickets = self.worker_count().min(n - 1);
        for _ in 0..tickets {
            let state = Arc::clone(&state);
            // SAFETY: the ticket borrows `'env` data only through the queued
            // jobs and their result slots. `scope` does not return until
            // `remaining` reaches zero, i.e. until every job has *finished
            // running* (panics included — `run_one` counts them), and it
            // moves every result out of its slot before returning. A ticket
            // that runs or is dropped after that pops nothing and drops no
            // `'env` value. So no `'env` borrow is used after `scope`
            // returns, which is the invariant the lifetime erasure needs.
            //
            // Each ticket *drains* the queue rather than running a
            // single job: with more jobs than workers (a wide query
            // stage), every worker keeps pulling until the batch is
            // empty instead of leaving the surplus to the caller.
            let ticket: Box<dyn FnOnce() + Send + 'env> =
                Box::new(move || while state.run_one() {});
            #[allow(unsafe_code)]
            let ticket: Ticket = unsafe { std::mem::transmute(ticket) };
            // A send error means the pool is mid-drop; impossible while
            // `&self` is alive, but harmless: the caller runs every job.
            let _ = sender.send(ticket);
        }
        // Caller participation: drain the queue, then wait for stragglers.
        while state.run_one() {}
        let mut remaining = lock(&state.remaining);
        while *remaining > 0 {
            remaining = state
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let results = std::mem::take(&mut *lock(&state.results));
        let mut values = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        // The latch counted every job, so every slot is filled.
        for result in results.into_iter().flatten() {
            match result {
                Ok(value) => values.push(value),
                Err(payload) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        debug_assert_eq!(values.len(), n, "a pool job left no result");
        values
    }
}

/// A worker's loop: run tickets until the pool closes the channel. The lock
/// is held only while receiving, so a running job never blocks the others.
fn serve(receiver: &Mutex<Receiver<Ticket>>, live: &AtomicUsize) {
    live.fetch_add(1, Ordering::SeqCst);
    loop {
        let ticket = lock(receiver).recv();
        match ticket {
            Ok(ticket) => ticket(),
            Err(_) => break, // channel closed: pool dropped
        }
    }
    live.fetch_sub(1, Ordering::SeqCst);
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a recv error.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            // Tickets catch their jobs' panics, so a worker cannot have
            // panicked; a join error would carry nothing to report.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reports() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert!(Parallelism::sequential().is_sequential());
        assert!(!Parallelism::new(2).is_sequential());
        assert!(Parallelism::available().threads() >= 1);
        assert!(Parallelism::from_env().threads() >= 1);
        assert!(Parallelism::default().threads() >= 1);
    }

    /// The `WOL_THREADS` parsing rules: integers (with surrounding
    /// whitespace) parse, `0` clamps to sequential, and garbage — including
    /// empty and all-whitespace strings — is rejected so `from_env` can warn
    /// and fall back instead of silently using all cores.
    #[test]
    fn thread_spec_parsing_accepts_integers_and_rejects_garbage() {
        assert_eq!(Parallelism::from_spec("4"), Some(Parallelism::new(4)));
        assert_eq!(Parallelism::from_spec(" 8\t"), Some(Parallelism::new(8)));
        // `0` is accepted and clamps to sequential, like `Parallelism::new`.
        assert_eq!(Parallelism::from_spec("0"), Some(Parallelism::sequential()));
        for garbage in ["", "  ", "four", "4.0", "-2", "8threads", "0x8"] {
            assert_eq!(
                Parallelism::from_spec(garbage),
                None,
                "`{garbage}` should not parse"
            );
        }
    }

    /// The one partition rule, as a table: a sequential budget, items
    /// below, at and above the minimum, fewer items than threads, and the
    /// test override.
    #[test]
    fn partitions_is_one_rule_over_budget_and_items() {
        let four = Parallelism::new(4);
        let low = four.with_min_items(1);
        for (budget, items, expected) in [
            (Parallelism::sequential(), 10_000, 1),
            (Parallelism::sequential().with_min_items(1), 10_000, 1),
            (four, 0, 1),
            (four, MIN_ITEMS - 1, 1),
            (four, MIN_ITEMS, 4),
            (four, 10_000, 4),
            (Parallelism::new(200), MIN_ITEMS, MIN_ITEMS),
            (low, 0, 1),
            (low, 1, 1),
            (low, 3, 3),
            (low, 9, 4),
            (four.with_min_items(0), 0, 1),
        ] {
            assert_eq!(
                budget.partitions(items),
                expected,
                "{budget:?} over {items} items"
            );
        }
        assert_eq!(low.threads(), 4);
        assert_ne!(low, four, "the override is part of the budget");
    }

    #[test]
    fn chunk_ranges_cover_exactly_in_order() {
        for n in 0..40usize {
            for threads in 1..10usize {
                let ranges = chunk_ranges(n, threads);
                assert_eq!(ranges.len(), threads.min(n));
                let mut expected = 0usize;
                for range in &ranges {
                    assert_eq!(range.start, expected);
                    assert!(!range.is_empty());
                    expected = range.end;
                }
                assert_eq!(expected, n);
                // Near-equal: lengths differ by at most one.
                if let (Some(max), Some(min)) = (
                    ranges.iter().map(|r| r.len()).max(),
                    ranges.iter().map(|r| r.len()).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    /// A sequential pool spawns no OS threads; scope still runs every job
    /// (on the caller) and returns results in submission order.
    #[test]
    fn sequential_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::new(Parallelism::sequential());
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.live_workers().load(Ordering::SeqCst), 0);
        let caller = std::thread::current().id();
        let jobs: Vec<Job<'_, (usize, std::thread::ThreadId)>> = (0..5usize)
            .map(|i| {
                Box::new(move || (i * i, std::thread::current().id()))
                    as Job<'_, (usize, std::thread::ThreadId)>
            })
            .collect();
        let results = pool.scope(jobs);
        for (i, (square, thread)) in results.iter().enumerate() {
            assert_eq!(*square, i * i);
            assert_eq!(*thread, caller, "sequential jobs must run on the caller");
        }
    }

    /// The inline rule: a single-job batch runs on the calling thread even on
    /// a pool that has workers to offer it to — no ticket is sent, so no
    /// worker can have picked it up.
    #[test]
    fn single_job_runs_on_the_calling_thread_of_a_multi_worker_pool() {
        let pool = WorkerPool::new(Parallelism::new(4));
        assert_eq!(pool.worker_count(), 3);
        let caller = std::thread::current().id();
        for _ in 0..200 {
            let ran_on = pool.scope(vec![
                Box::new(|| std::thread::current().id()) as Job<'_, std::thread::ThreadId>
            ]);
            assert_eq!(ran_on, vec![caller]);
        }
    }

    /// The pool is reused across many scope rounds (the whole point of
    /// persistence): results stay submission-ordered, borrowed data works,
    /// and the worker count never changes between rounds.
    #[test]
    fn pool_reuse_across_rounds_keeps_results_in_submission_order() {
        let pool = WorkerPool::new(Parallelism::new(4));
        assert_eq!(pool.worker_count(), 3);
        let data: Vec<usize> = (0..100).collect();
        for round in 0..50 {
            let results = pool.scope(
                data.iter()
                    .map(|&x| Box::new(move || x * 2 + round) as Job<'_, usize>)
                    .collect(),
            );
            let expected: Vec<usize> = data.iter().map(|&x| x * 2 + round).collect();
            assert_eq!(results, expected, "round {round} diverged");
            assert_eq!(pool.worker_count(), 3, "workers died between rounds");
        }
    }

    /// A panicking job propagates to the scope caller as a panic (never a
    /// hang), the non-panicking jobs of the same batch still complete, and
    /// the pool remains fully usable afterwards.
    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(Parallelism::new(4));
        let completed = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(
                (0..8usize)
                    .map(|i| {
                        let completed = &completed;
                        Box::new(move || {
                            if i == 3 {
                                panic!("job {i} exploded");
                            }
                            completed.fetch_add(1, Ordering::SeqCst);
                            i
                        }) as Job<'_, usize>
                    })
                    .collect(),
            )
        }));
        let payload = outcome.expect_err("the panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("job 3 exploded"), "got `{message}`");
        // Every other job of the batch ran to completion before the join.
        assert_eq!(completed.load(Ordering::SeqCst), 7);
        // The workers caught the panic and keep serving jobs.
        let results = pool.scope(
            (0..8usize)
                .map(|i| Box::new(move || i + 1) as Job<'_, usize>)
                .collect(),
        );
        assert_eq!(results, (1..9).collect::<Vec<_>>());
    }

    /// Dropping the pool joins every worker: the live-thread count falls to
    /// zero (no leaked threads, no hang).
    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(Parallelism::new(4));
        let live = pool.live_workers();
        // Give the workers a beat to register themselves, then verify they
        // are all alive before the drop.
        for _ in 0..100 {
            if live.load(Ordering::SeqCst) == 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(live.load(Ordering::SeqCst), 3);
        drop(pool);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "drop returned before every worker exited"
        );
    }

    /// A scope entered from inside a pool job (query-level parallelism
    /// nesting operator-level parallelism) completes even when the batch
    /// saturates every worker: the job's thread drains the nested scope
    /// itself.
    #[test]
    fn nested_scopes_cannot_deadlock() {
        let pool = Arc::new(WorkerPool::new(Parallelism::new(4)));
        let results = pool.scope(
            (0..8usize)
                .map(|i| {
                    let pool = Arc::clone(&pool);
                    Box::new(move || {
                        let inner = pool.scope(
                            (0..4usize)
                                .map(|j| Box::new(move || i * 10 + j) as Job<'_, usize>)
                                .collect(),
                        );
                        inner.into_iter().sum::<usize>()
                    }) as Job<'_, usize>
                })
                .collect(),
        );
        let expected: Vec<usize> = (0..8usize)
            .map(|i| (0..4usize).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(results, expected);
    }

    /// The shared registry hands out one pool per thread count and the same
    /// pool on repeated asks.
    #[test]
    fn shared_pools_are_cached_per_thread_count() {
        let a = WorkerPool::shared(Parallelism::new(3));
        let b = WorkerPool::shared(Parallelism::new(3));
        assert!(Arc::ptr_eq(&a, &b));
        let c = WorkerPool::shared(Parallelism::new(2));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.threads(), 3);
        assert_eq!(c.threads(), 2);
    }

    /// More jobs than workers queue and complete; fewer jobs than workers
    /// leave the idle workers blocked without disturbing the batch.
    #[test]
    fn job_counts_above_and_below_the_worker_count() {
        let pool = WorkerPool::new(Parallelism::new(3));
        let many: Vec<usize> = pool.scope(
            (0..64usize)
                .map(|i| Box::new(move || i) as Job<'_, usize>)
                .collect(),
        );
        assert_eq!(many, (0..64).collect::<Vec<_>>());
        let few: Vec<usize> = pool.scope(vec![Box::new(|| 42usize) as Job<'_, usize>]);
        assert_eq!(few, vec![42]);
        assert!(pool.scope(Vec::<Job<'_, usize>>::new()).is_empty());
    }

    /// A batch wider than the worker count is genuinely shared: tickets
    /// drain the queue (they are not one-shot), so with jobs long enough for
    /// the workers to wake up, more than one thread ends up executing them —
    /// the caller alone cannot have run the whole batch.
    #[test]
    fn wide_batches_are_drained_by_multiple_threads() {
        let pool = WorkerPool::new(Parallelism::new(4));
        let threads: Vec<std::thread::ThreadId> = pool.scope(
            (0..32usize)
                .map(|_| {
                    Box::new(|| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        std::thread::current().id()
                    }) as Job<'_, std::thread::ThreadId>
                })
                .collect(),
        );
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        assert!(
            distinct.len() > 1,
            "a 32-job batch on a 4-thread pool ran entirely on one thread"
        );
    }
}
