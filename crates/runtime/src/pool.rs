//! A persistent work-stealing worker pool.
//!
//! A fan-out that spawns a fresh `std::thread::scope` per call pays for
//! thread creation every time, tends to funnel results through one global
//! mutex and — because scoped workers cannot outlive the call — has to
//! serialize an inner fan-out (per-scenario, per-policy). This pool avoids
//! all three:
//!
//! * **persistent workers** — created once per worker count (see
//!   [`pool_for`]) and reused by every campaign, replication and benchmark
//!   of the process; idle workers park on a condition variable instead of
//!   exiting;
//! * **per-worker deques + stealing** — each worker owns a deque; it pushes
//!   and pops its own work LIFO (locality) and steals FIFO from siblings
//!   when empty, so an uneven fan-out (a slow scenario next to many fast
//!   ones) self-balances;
//! * **nesting** — a task may itself call [`Pool::run_indexed`] (or the
//!   free [`run_indexed`]): the worker *helps*, executing pool tasks while
//!   its inner scope drains, instead of deadlocking or spawning a second
//!   pool. Campaign cells, replications and per-policy evaluations can
//!   therefore fan out within each other.
//!
//! The pool is written entirely in safe Rust. The price is a `'static`
//! bound on the task closures (tasks capture their environment through
//! `Arc`, not borrows); the payoff is that nothing here can corrupt memory
//! no matter how the scheduling races. Results are always collected in
//! input-index order, so the output of a fan-out never depends on thread
//! interleaving, a contract the determinism test tier checks at 1/2/8
//! workers.
//!
//! Panics propagate: the first payload panicking inside a fan-out is
//! re-raised from [`Pool::run_indexed`] on the caller's thread, after every
//! task of that fan-out has finished (so no task is left running when the
//! caller unwinds).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// A unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Resolves a configured thread count: `0` means one worker per available
/// core, anything else is taken literally.
#[must_use]
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Locks a mutex, treating poisoning as ordinary contention. Pool locks
/// only guard queue manipulation (never user code), so a poisoned lock can
/// only come from a panic *between* queue operations, which none of the
/// critical sections can raise; recovering the guard is always sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State a worker parks on while the pool is idle.
struct SleepState {
    /// Bumped by every task injection; sleepers re-scan the queues whenever
    /// it moves, which makes the lost-wakeup race impossible (the bump and
    /// the notification happen under the same lock the sleeper holds).
    generation: u64,
    /// Set once by [`Pool::drop`]; workers exit at the next wakeup.
    shutdown: bool,
}

struct PoolShared {
    /// One deque per worker. Owners push/pop at the back; thieves (and
    /// injection) use the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    /// Round-robin cursor for external task injection.
    inject_cursor: AtomicUsize,
    /// Process-unique pool identity (`WORKER_CONTEXT` tags threads with it).
    id: usize,
}

impl PoolShared {
    /// Pushes a task and wakes a parked worker. `origin` is the worker
    /// index of the pushing thread, if it is one of this pool's workers.
    fn push(&self, task: Task, origin: Option<usize>) {
        match origin {
            Some(w) => lock(&self.queues[w]).push_back(task),
            None => {
                let w = self.inject_cursor.fetch_add(1, Ordering::Relaxed) % self.queues.len();
                lock(&self.queues[w]).push_front(task);
            }
        }
        let mut sleep = lock(&self.sleep);
        sleep.generation = sleep.generation.wrapping_add(1);
        drop(sleep);
        self.wake.notify_one();
    }

    /// Pops the calling worker's own queue (LIFO), falling back to stealing
    /// the oldest task of a sibling (FIFO). `me` is `None` for non-worker
    /// threads helping a scope drain, which go straight to stealing.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(w) = me {
            if let Some(task) = lock(&self.queues[w]).pop_back() {
                return Some(task);
            }
        }
        let start = me.unwrap_or(0);
        let n = self.queues.len();
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(task) = lock(&self.queues[victim]).pop_front() {
                if me.is_some() {
                    mcsched_obs::counter!("pool.steal").inc();
                }
                return Some(task);
            }
        }
        None
    }
}

thread_local! {
    /// `(pool id, worker index, pool handle)` of the current thread, when it
    /// is a pool worker. Lets nested fan-outs reuse the pool that is already
    /// running them instead of blocking one pool on another.
    static WORKER_CONTEXT: std::cell::RefCell<Option<(usize, usize, Arc<PoolShared>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Completion state of one fan-out call.
struct ScopeState {
    remaining: AtomicUsize,
    /// First panic payload raised by a task of the scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new(tasks: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Re-raises the first task panic on the caller, if any.
    fn rethrow(&self) {
        if let Some(payload) = lock(&self.panic).take() {
            resume_unwind(payload);
        }
    }
}

/// A fixed-size work-stealing pool. Most callers want the process-wide
/// pools of [`pool_for`] / [`run_indexed`] rather than owning one.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

impl Pool {
    /// Creates a pool with exactly `workers` worker threads (≥ 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(SleepState {
                generation: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            inject_cursor: AtomicUsize::new(0),
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcsched-worker-{}-{index}", shared.id))
                    .spawn(move || worker_main(&shared, index))
                    .expect("spawning a pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs `f(0..count)` on the pool and returns the results in input-index
    /// order, never in completion order — the output is independent of
    /// thread interleaving. The calling thread blocks until every index has
    /// finished; when the caller is itself a worker of this pool (a nested
    /// fan-out) it executes pool tasks while waiting instead of blocking a
    /// worker slot.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any `f(i)`, after all spawned tasks of
    /// this call have completed.
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        run_indexed_on(&self.shared, count, f)
    }

    /// Runs two closures, potentially in parallel: `b` is offered to the
    /// pool while `a` runs on the calling thread, mirroring a fork-join
    /// `join` at the two-task grain.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from either side; a panic in `a` is only raised
    /// after `b` has finished (no task is left running behind the unwind).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send + 'static,
        RA: Send,
        RB: Send + 'static,
    {
        let scope = Arc::new(ScopeState::new(1));
        let slot: Arc<Mutex<Option<RB>>> = Arc::new(Mutex::new(None));
        let origin = worker_index_on(&self.shared);
        {
            let scope = Arc::clone(&scope);
            let slot = Arc::clone(&slot);
            self.shared.push(
                Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(b)) {
                        Ok(value) => *lock(&slot) = Some(value),
                        Err(payload) => scope.record_panic(payload),
                    }
                    scope.complete_one();
                }),
                origin,
            );
        }
        let left = catch_unwind(AssertUnwindSafe(a));
        wait_for_scope(&self.shared, &scope, origin);
        match left {
            Ok(left) => {
                scope.rethrow();
                let right = lock(&slot)
                    .take()
                    .expect("join's right-hand task produced a value");
                (left, right)
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// `run_indexed` over an owned item vector: convenience for fan-outs
    /// whose closure needs the items by value.
    pub fn run_over<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + Sync + 'static,
        U: Send + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let items = Arc::new(items);
        self.run_indexed(items.len(), move |i| f(&items[i]))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut sleep = lock(&self.shared.sleep);
            sleep.shutdown = true;
            sleep.generation = sleep.generation.wrapping_add(1);
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a scope already aborted the
            // process (tasks catch their own panics); ignore join errors.
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: &Arc<PoolShared>, index: usize) {
    WORKER_CONTEXT.with(|ctx| {
        *ctx.borrow_mut() = Some((shared.id, index, Arc::clone(shared)));
    });
    mcsched_obs::set_thread_label(&format!("mcsched-worker-{}-{index}", shared.id));
    let mut seen_generation = u64::MAX; // force one scan before first park
    loop {
        while let Some(task) = shared.find_task(Some(index)) {
            run_task(task);
        }
        let mut sleep = lock(&shared.sleep);
        loop {
            if sleep.shutdown {
                return;
            }
            if sleep.generation != seen_generation {
                seen_generation = sleep.generation;
                break; // work may have arrived since the last scan
            }
            mcsched_obs::counter!("pool.park").inc();
            sleep = shared
                .wake
                .wait(sleep)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Executes one pool task. The `pool-task` obs span lives *inside* the
/// task closure (around the user function, before the completion signal),
/// not here: a guard dropped after `complete_one` could land its `End`
/// event behind a caller that already drained the trace.
fn run_task(task: Task) {
    mcsched_obs::counter!("pool.task").inc();
    task();
}

/// Worker index of the calling thread on `shared`, if it is one of its
/// workers.
fn worker_index_on(shared: &PoolShared) -> Option<usize> {
    WORKER_CONTEXT.with(|ctx| match &*ctx.borrow() {
        Some((id, index, _)) if *id == shared.id => Some(*index),
        _ => None,
    })
}

/// The pool currently executing the calling thread, if any.
fn current_pool() -> Option<Arc<PoolShared>> {
    WORKER_CONTEXT.with(|ctx| ctx.borrow().as_ref().map(|(_, _, pool)| Arc::clone(pool)))
}

fn run_indexed_on<T, F>(shared: &Arc<PoolShared>, count: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if count == 0 {
        return Vec::new();
    }
    let f = Arc::new(f);
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new((0..count).map(|_| Mutex::new(None)).collect());
    let scope = Arc::new(ScopeState::new(count));
    let origin = worker_index_on(shared);
    for index in 0..count {
        let f = Arc::clone(&f);
        let slots = Arc::clone(&slots);
        let scope = Arc::clone(&scope);
        shared.push(
            Box::new(move || {
                // The `pool-task` span closes *before* `complete_one`: a
                // caller that returns from the fan-out and drains the trace
                // must never observe a still-open task span.
                match catch_unwind(AssertUnwindSafe(|| {
                    let _span = mcsched_obs::span!("pool-task");
                    f(index)
                })) {
                    Ok(value) => *lock(&slots[index]) = Some(value),
                    Err(payload) => scope.record_panic(payload),
                }
                // Release this task's handles *before* signalling: once the
                // last task completes, the waiting caller must hold the only
                // remaining reference to the result slots.
                drop(f);
                drop(slots);
                scope.complete_one();
            }),
            origin,
        );
    }

    wait_for_scope(shared, &scope, origin);
    scope.rethrow();
    let slots = Arc::try_unwrap(slots).unwrap_or_else(|_| {
        unreachable!("all tasks completed, so no task still holds the result slots")
    });
    slots
        .into_iter()
        .map(|slot| {
            lock(&slot)
                .take()
                .expect("every index of a completed fan-out produced a value")
        })
        .collect()
}

/// Blocks until `scope` completes. A pool worker (`origin` is `Some`)
/// *helps* — it executes pool tasks while waiting, so nested fan-outs keep
/// the worker slot productive and a single-worker pool cannot deadlock on
/// its own sub-tasks. An external caller parks on the scope instead: not
/// helping keeps the pool's concurrency exactly at its configured worker
/// count, which is what `--threads` promises.
fn wait_for_scope(shared: &PoolShared, scope: &ScopeState, origin: Option<usize>) {
    if origin.is_some() {
        while !scope.is_done() {
            match shared.find_task(origin) {
                Some(task) => run_task(task),
                None => {
                    // The remaining tasks run on other workers; park briefly
                    // on the scope instead of spinning.
                    let done = lock(&scope.done);
                    if !*done {
                        let _ = scope
                            .done_cv
                            .wait_timeout(done, Duration::from_micros(200))
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    } else {
        let mut done = lock(&scope.done);
        while !*done {
            done = scope
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Process-wide pools, one per worker count, created on first use and kept
/// for the lifetime of the process (this is what makes the runtime
/// *persistent*: a campaign of 40 data points spawns threads once, not 40
/// times).
fn shared_pools() -> &'static Mutex<std::collections::HashMap<usize, &'static Pool>> {
    static POOLS: OnceLock<Mutex<std::collections::HashMap<usize, &'static Pool>>> =
        OnceLock::new();
    POOLS.get_or_init(|| Mutex::new(std::collections::HashMap::new()))
}

/// The process-wide pool with `resolve_threads(threads)` workers, creating
/// it on first use. Pools returned by this function live until process
/// exit.
pub fn pool_for(threads: usize) -> &'static Pool {
    let workers = resolve_threads(threads).max(1);
    let mut pools = lock(shared_pools());
    pools
        .entry(workers)
        .or_insert_with(|| Box::leak(Box::new(Pool::new(workers))))
}

/// Runs `f(0..count)` with at most `resolve_threads(threads)` workers
/// (`0` = one per core) and returns the results in input-index order. The
/// workers are persistent, tasks may nest (`f` may itself call
/// [`run_indexed`]), and closures capture their environment by `Arc`/value
/// (`'static`) rather than by borrow.
///
/// `threads <= 1` (after resolution) or `count <= 1` runs strictly
/// sequentially on the calling thread. A nested call from inside a pool
/// worker always reuses the pool that is running it, whatever `threads`
/// says: the outermost fan-out owns the concurrency budget. For that
/// reason the pool is sized by `threads` even when `count` is smaller —
/// an outer fan-out of two data points on eight threads leaves six workers
/// for the data points' own nested fan-outs to fill through stealing.
///
/// # Panics
///
/// Re-raises the first panic of any `f(i)` after the whole fan-out has
/// drained.
pub fn run_indexed<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if let Some(pool) = current_pool() {
        // Nested: stay on the pool that is executing us.
        return run_indexed_on(&pool, count, f);
    }
    let workers = resolve_threads(threads);
    if workers <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    pool_for(workers).run_indexed(count, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn results_are_in_input_order() {
        let out = run_indexed(4, 32, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_work_is_fine() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        let pool = Pool::new(2);
        let out: Vec<usize> = pool.run_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_strictly_sequentially() {
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let (i1, m1) = (Arc::clone(&inside), Arc::clone(&max_seen));
        run_indexed(1, 16, move |i| {
            let now = i1.fetch_add(1, Ordering::SeqCst) + 1;
            m1.fetch_max(now, Ordering::SeqCst);
            i1.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn thread_count_actually_provides_parallelism() {
        // Four tasks blocked on a barrier of four can only complete if four
        // workers run them concurrently; with fewer workers this would
        // deadlock (and the test would time out). Works because injection is
        // round-robin: each of the four workers receives exactly one task.
        let pool = Pool::new(4);
        let barrier = Arc::new(Barrier::new(4));
        let out = pool.run_indexed(4, move |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_count_never_exceeds_configuration() {
        let pool = Pool::new(2);
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let (i1, m1) = (Arc::clone(&inside), Arc::clone(&max_seen));
        pool.run_indexed(64, move |i| {
            let now = i1.fetch_add(1, Ordering::SeqCst) + 1;
            m1.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            i1.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn nested_fan_outs_share_the_pool_and_stay_ordered() {
        // depth-2 nesting: every outer task fans out again. The nested call
        // must reuse the same pool (helping, not blocking) and keep both
        // levels' results in index order.
        let pool = Pool::new(3);
        let out = pool.run_indexed(5, |i| {
            let inner = run_indexed(7, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..5).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn deeply_nested_single_worker_pool_does_not_deadlock() {
        // A one-worker pool running a task that fans out twice more can only
        // finish if the worker helps execute its own sub-tasks.
        let pool = Pool::new(1);
        let out = pool.run_indexed(2, |i| {
            run_indexed(1, 2, move |j| {
                run_indexed(1, 2, move |k| i * 100 + j * 10 + k)
                    .into_iter()
                    .sum::<usize>()
            })
            .into_iter()
            .sum::<usize>()
        });
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 22); // 0 + 1 + 10 + 11
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(8, |i| {
                if i == 5 {
                    panic!("task five exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("the fan-out must re-raise the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task five exploded"), "got `{message}`");
        // The pool survives the panic and keeps serving work.
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_panics_propagate_through_both_levels() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(3, |i| {
                run_indexed(2, 3, move |j| {
                    assert!(i + j < 3, "nested overflow");
                    i + j
                })
            })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.run_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn join_runs_both_sides() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| 21 * 2, || "right".len());
        assert_eq!(a, 42);
        assert_eq!(b, 5);
    }

    #[test]
    fn run_over_owns_its_items() {
        let pool = Pool::new(2);
        let squares = pool.run_over((0..10).collect::<Vec<i64>>(), |v| v * v);
        assert_eq!(squares, (0..10).map(|v| v * v).collect::<Vec<i64>>());
    }

    #[test]
    fn shared_pools_are_reused_across_calls() {
        let a: *const Pool = pool_for(2);
        let b: *const Pool = pool_for(2);
        assert!(std::ptr::eq(a, b), "same worker count, same pool");
        assert_eq!(pool_for(2).workers(), 2);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(3);
        let out = pool.run_indexed(9, |i| i + 1);
        assert_eq!(out.len(), 9);
        drop(pool); // must not hang
    }

    #[test]
    fn free_run_indexed_matches_sequential_reference() {
        let parallel = run_indexed(8, 100, |i| (i as f64).sqrt());
        let sequential: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(parallel, sequential);
    }
}
