//! Persistent worker pool with group topology.
//!
//! Grazelle "pins one software thread to each hardware thread" and gives
//! every thread "its own group (set of threads that share a NUMA node),
//! local thread ID within the group, and global thread ID" (§5). This pool
//! reproduces that topology. Physical pinning (`sched_setaffinity`) would
//! need `libc`, which is outside the allowed dependency set; since the
//! reproduction host has one socket and 2 vCPUs (DESIGN.md §4.2), there
//! is no NUMA node to pin to, so pinning is a no-op here and groups are
//! purely logical.
//!
//! `run` hands one closure to *every* worker — the paper's execution
//! model, where each phase is a SPMD region ended by a barrier — and blocks
//! until all workers return. The calling thread is worker 0: it runs share
//! 0 itself while the `n − 1` helper threads the pool spawned run shares
//! `1..n`, so a phase wakes only the helpers and a one-thread pool spawns
//! nothing and runs inline. Phases of one pool cannot nest or overlap.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of one worker inside a [`ThreadPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// Global thread id, `0..num_threads`.
    pub global_id: usize,
    /// Group (NUMA-node stand-in) this thread belongs to.
    pub group_id: usize,
    /// Thread id within its group.
    pub local_id: usize,
    /// Total threads in the pool.
    pub num_threads: usize,
    /// Total groups in the pool.
    pub num_groups: usize,
}

impl WorkerCtx {
    /// Number of threads in this worker's group.
    pub fn group_size(&self) -> usize {
        group_range(self.group_id, self.num_groups, self.num_threads).len()
    }
}

/// Global-thread-id range covered by `group`.
pub fn group_range(group: usize, num_groups: usize, num_threads: usize) -> std::ops::Range<usize> {
    let start = group * num_threads / num_groups;
    let end = (group + 1) * num_threads / num_groups;
    start..end
}

fn group_of(global_id: usize, num_groups: usize, num_threads: usize) -> usize {
    // Inverse of `group_range`'s balanced split.
    (global_id * num_groups + num_groups - 1) / num_threads.max(1)
}

fn worker_ctx(global_id: usize, num_groups: usize, num_threads: usize) -> WorkerCtx {
    let group_id = group_of(global_id, num_groups, num_threads);
    WorkerCtx {
        global_id,
        group_id,
        local_id: global_id - group_range(group_id, num_groups, num_threads).start,
        num_threads,
        num_groups,
    }
}

/// Type-erased job handed to the helpers. The pointer is only dereferenced
/// between a job's publication and the completion handshake inside
/// [`ThreadPool::run_result`], during which the underlying closure is kept
/// alive by `run_result`'s stack frame.
struct JobSlot {
    job: Mutex<Option<RawJob>>,
    epoch: AtomicUsize,
    cv: Condvar,
    remaining: AtomicUsize,
    done_mutex: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
    panicked: AtomicBool,
}

#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(&WorkerCtx) + Sync));
// SAFETY: the pointee is `Sync` and outlives every dereference (enforced by
// the completion handshake in `run`).
unsafe impl Send for RawJob {}
// SAFETY: same argument as `Send` — shared references only ever invoke the
// `Sync` pointee.
unsafe impl Sync for RawJob {}

/// At least one worker panicked during a [`ThreadPool::run_result`] phase.
///
/// The phase still completed on every worker and the pool remains usable;
/// the caller decides whether to retry the lost work or abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanicked;

impl std::fmt::Display for WorkerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a worker thread panicked during a pool phase")
    }
}

impl std::error::Error for WorkerPanicked {}

/// A fixed-size pool of persistent workers: the calling thread (worker 0)
/// and `num_threads − 1` helper threads.
pub struct ThreadPool {
    slot: Arc<JobSlot>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Set while a phase is open; a second `run_result` panics instead of
    /// resetting the handshake under the first one's helpers.
    phase_open: AtomicBool,
    num_threads: usize,
    num_groups: usize,
}

/// Closes the open phase on every exit from `run_result`, unwinding
/// included.
struct PhaseGuard<'a> {
    phase_open: &'a AtomicBool,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        // ATOMIC: barrier-publish — closes the phase; acquired by the next
        // phase's opening swap
        self.phase_open.store(false, Ordering::Release);
    }
}

impl ThreadPool {
    /// Creates a pool of `num_threads` workers split into `num_groups`
    /// logical groups. `num_groups` must not exceed `num_threads`. Worker 0
    /// is whichever thread calls `run`, so this spawns `num_threads − 1`
    /// helper threads, none for a one-thread pool.
    pub fn new(num_threads: usize, num_groups: usize) -> Self {
        // Before any worker exists: glibc fixes its arena cap at the first
        // arena it creates.
        crate::alloc::pin_large_block_policy();
        assert!(num_threads >= 1, "pool needs at least one thread");
        assert!(
            (1..=num_threads).contains(&num_groups),
            "need 1 <= groups <= threads"
        );
        let slot = Arc::new(JobSlot {
            job: Mutex::new(None),
            epoch: AtomicUsize::new(0),
            cv: Condvar::new(),
            remaining: AtomicUsize::new(0),
            done_mutex: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..num_threads)
            .map(|global_id| {
                let slot = Arc::clone(&slot);
                let ctx = worker_ctx(global_id, num_groups, num_threads);
                std::thread::Builder::new()
                    .name(format!("grazelle-worker-{global_id}"))
                    .spawn(move || worker_loop(slot, ctx))
                    .expect("spawn worker")
            })
            .collect();
        ThreadPool {
            slot,
            handles,
            phase_open: AtomicBool::new(false),
            num_threads,
            num_groups,
        }
    }

    /// Convenience: one group.
    pub fn single_group(num_threads: usize) -> Self {
        ThreadPool::new(num_threads, 1)
    }

    /// Number of workers, the calling thread included.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Number of logical groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Runs `f` once per worker — share 0 on the calling thread, shares
    /// `1..n` on the helpers — and blocks until all return.
    ///
    /// Panics (after all workers finished the phase) if any worker panicked,
    /// so engine bugs surface in tests instead of deadlocking. Resilient
    /// callers that want to *handle* worker panics instead should use
    /// [`ThreadPool::run_result`].
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx) + Sync,
    {
        // Keep the historical abort-on-panic contract (and its message,
        // which tests assert on) layered over the fallible primitive.
        assert!(
            self.run_result(f).is_ok(),
            "a worker thread panicked during ThreadPool::run"
        );
    }

    /// Runs `f` once per worker like [`ThreadPool::run`], blocks until all
    /// return, and reports whether any share panicked instead of
    /// re-raising.
    ///
    /// The phase always runs to completion on every worker (panics are
    /// caught per share: the caller's here, the helpers' in
    /// `worker_loop`), so the pool stays fully usable after an `Err` —
    /// this is what lets the resilient engine retry a poisoned chunk on a
    /// surviving thread rather than aborting the run.
    ///
    /// Panics if a phase of this pool is already open: a call from inside
    /// any share, or from a second thread while another phase runs.
    pub fn run_result<F>(&self, f: F) -> Result<(), WorkerPanicked>
    where
        F: Fn(&WorkerCtx) + Sync,
    {
        // ATOMIC: barrier-publish — opens the phase; acquires the previous
        // phase's close
        let already_open = self.phase_open.swap(true, Ordering::AcqRel);
        assert!(!already_open, "ThreadPool phases cannot nest or overlap");
        let _open = PhaseGuard {
            phase_open: &self.phase_open,
        };
        let slot = &*self.slot;
        let helpers = self.num_threads - 1;
        if helpers > 0 {
            // Erase the closure's lifetime; this frame keeps `f` alive until
            // the completion handshake below, and helpers never hold the
            // pointer across epochs.
            let wide: &(dyn Fn(&WorkerCtx) + Sync) = &f;
            // SAFETY: lifetime-erasing transmute of the job pointer; the
            // completion handshake below keeps `f` alive until every helper
            // has finished the epoch, so no dereference outlives it.
            let raw = RawJob(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(&WorkerCtx) + Sync),
                    *const (dyn Fn(&WorkerCtx) + Sync),
                >(wide as *const _)
            });
            let mut job = slot.job.lock().expect("job mutex poisoned");
            // ATOMIC: barrier-publish — arms the completion count before the
            // epoch Release below publishes the job
            slot.remaining.store(helpers, Ordering::Release);
            // ATOMIC: barrier-publish — pre-publish reset, ordered by the
            // epoch Release below
            slot.panicked.store(false, Ordering::Relaxed);
            *job = Some(raw);
            // ATOMIC: barrier-publish — publishes the job to worker epochs
            slot.epoch.fetch_add(1, Ordering::Release);
            slot.cv.notify_all();
        }
        // RECOVERY: a panic in the caller's share must not skip the
        // completion handshake below — the helpers are still dereferencing
        // `f`, which lives in this frame — and must leave the pool as
        // usable as a helper's panic does. It is reported as
        // `Err(WorkerPanicked)` once every helper has finished.
        let caller_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(&worker_ctx(0, self.num_groups, self.num_threads));
        }))
        .is_ok();
        if helpers > 0 {
            let mut guard = slot.done_mutex.lock().expect("done mutex poisoned");
            // ATOMIC: barrier-publish — acquires every helper's phase writes
            while slot.remaining.load(Ordering::Acquire) != 0 {
                guard = slot.done_cv.wait(guard).expect("done mutex poisoned");
            }
        }
        // ATOMIC: barrier-publish — acquires the panicking helper's record
        // (never set in a pool without helpers)
        if caller_ok && !slot.panicked.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(WorkerPanicked)
        }
    }

    /// Runs `f` on every worker and collects each worker's return value,
    /// ordered by global id.
    pub fn run_map<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + Default,
        F: Fn(&WorkerCtx) -> T + Sync,
    {
        let results: Vec<Mutex<T>> = (0..self.num_threads)
            .map(|_| Mutex::new(T::default()))
            .collect();
        self.run(|ctx| {
            *results[ctx.global_id]
                .lock()
                .expect("result mutex poisoned") = f(ctx);
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result mutex poisoned"))
            .collect()
    }

    /// Hands each worker *ownership* of one element of `tasks` (indexed by
    /// global id), runs `f` on it, and collects the results in global-id
    /// order.
    ///
    /// This is the scoped building block the parallel build pipeline uses to
    /// distribute disjoint `&mut` output slices across workers without any
    /// `unsafe`: each task moves *into* the phase through a one-shot
    /// `Mutex<Option<T>>` slot and the result moves back out the same way,
    /// so the borrow checker sees the whole exchange as ordinary owned data.
    ///
    /// Panics if `tasks.len() != self.num_threads()`.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&WorkerCtx, T) -> R + Sync,
    {
        assert_eq!(
            tasks.len(),
            self.num_threads,
            "run_tasks needs exactly one task per worker"
        );
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> =
            (0..self.num_threads).map(|_| Mutex::new(None)).collect();
        self.run(|ctx| {
            let task = slots[ctx.global_id]
                .lock()
                .expect("task mutex poisoned")
                .take()
                .expect("task slot already drained");
            let out = f(ctx, task);
            *results[ctx.global_id]
                .lock()
                .expect("result mutex poisoned") = Some(out);
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result mutex poisoned")
                    .expect("worker produced no result")
            })
            .collect()
    }

    /// [`ThreadPool::run_tasks`] with a cooperative cancellation flag on
    /// the batch: each worker polls `cancel` once at its task boundary —
    /// *before* invoking `f` — and skips the task when cancellation has
    /// been requested, yielding `None` in that slot.
    ///
    /// The phase handshake always completes (a cancelled batch is a
    /// fast no-op phase, not an abort), so the pool stays fully usable and
    /// the caller can tell exactly which tasks ran. Tasks already inside
    /// `f` when the flag is set run to completion — cancellation is only
    /// observed at the boundary, never mid-task.
    pub fn run_tasks_cancellable<T, R, F>(
        &self,
        tasks: Vec<T>,
        cancel: &crate::cancel::CancelFlag,
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        F: Fn(&WorkerCtx, T) -> R + Sync,
    {
        assert_eq!(
            tasks.len(),
            self.num_threads,
            "run_tasks_cancellable needs exactly one task per worker"
        );
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> =
            (0..self.num_threads).map(|_| Mutex::new(None)).collect();
        self.run(|ctx| {
            if cancel.is_cancelled() {
                return;
            }
            let task = slots[ctx.global_id]
                .lock()
                .expect("task mutex poisoned")
                .take()
                .expect("task slot already drained");
            let out = f(ctx, task);
            *results[ctx.global_id]
                .lock()
                .expect("result mutex poisoned") = Some(out);
        });
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result mutex poisoned"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // ATOMIC: barrier-publish — shutdown edge, acquired by worker loops
        self.slot.shutdown.store(true, Ordering::Release);
        {
            let _job = self.slot.job.lock().expect("job mutex poisoned");
            // ATOMIC: barrier-publish — wakes workers to observe shutdown
            self.slot.epoch.fetch_add(1, Ordering::Release);
            self.slot.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs `f` on every task of `tasks`, one share each, and returns the
/// results in task order: as a phase of `pool` when there are several
/// shares (then exactly one per worker, as [`ThreadPool::run_tasks`]
/// needs: share 0 on the calling thread, the rest on the helpers), on the
/// calling thread, in order, when `pool` is `None` or there is one share. Builders that take an optional pool make their one
/// "pool or inline" choice here, so a one-share build is the same code as
/// a several-share one.
pub fn run_shares<T, R, F>(pool: Option<&ThreadPool>, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match pool {
        Some(pool) if tasks.len() > 1 => pool.run_tasks(tasks, |_, task| f(task)),
        _ => tasks.into_iter().map(f).collect(),
    }
}

fn worker_loop(slot: Arc<JobSlot>, ctx: WorkerCtx) {
    let mut seen_epoch = 0usize;
    loop {
        // Wait for a new epoch.
        let raw = {
            let mut job = slot.job.lock().expect("job mutex poisoned");
            loop {
                // ATOMIC: barrier-publish — acquire side of the shutdown edge
                if slot.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // ATOMIC: barrier-publish — acquires the job published by run
                let epoch = slot.epoch.load(Ordering::Acquire);
                if epoch != seen_epoch {
                    seen_epoch = epoch;
                    match *job {
                        Some(raw) => break raw,
                        None => continue, // shutdown epoch bump
                    }
                }
                job = slot.cv.wait(job).expect("job mutex poisoned");
            }
        };
        // RECOVERY: a panicking job must not kill the worker thread — the
        // completion handshake below still has to run or `run_result` would
        // deadlock, and the pool must stay usable so the resilient engine
        // can retry the poisoned chunk on a surviving thread. The panic is
        // recorded in `slot.panicked` and surfaced as `Err(WorkerPanicked)`.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `run_result` keeps the closure alive until
            // `remaining` reaches zero, which happens only after this call
            // returns.
            let f = unsafe { &*raw.0 };
            f(&ctx);
        }));
        if result.is_err() {
            // ATOMIC: barrier-publish — publishes the panic record to run()
            slot.panicked.store(true, Ordering::Release);
        }
        // ATOMIC: barrier-publish — AcqRel: releases this worker's phase
        // writes and (on the last decrement) acquires every sibling's
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = slot.done_mutex.lock().expect("done mutex poisoned");
            slot.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_reaches_every_worker() {
        let pool = ThreadPool::single_group(4);
        let hits = AtomicU64::new(0);
        pool.run(|ctx| {
            hits.fetch_add(1 << (ctx.global_id * 8), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0x0101_0101);
    }

    #[test]
    fn run_borrows_stack_data() {
        let pool = ThreadPool::single_group(3);
        let data = [1u64, 2, 3];
        let total = AtomicU64::new(0);
        pool.run(|ctx| {
            total.fetch_add(data[ctx.global_id], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = ThreadPool::single_group(2);
        let counter = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn group_topology_is_balanced_and_covering() {
        for (threads, groups) in [(8, 4), (7, 3), (4, 4), (5, 1), (6, 4)] {
            let pool = ThreadPool::new(threads, groups);
            let ids = Mutex::new(vec![]);
            pool.run(|ctx| {
                ids.lock().unwrap().push(*ctx);
            });
            let mut ids = ids.into_inner().unwrap();
            ids.sort_by_key(|c| c.global_id);
            assert_eq!(ids.len(), threads);
            for ctx in &ids {
                assert!(ctx.group_id < groups, "{ctx:?}");
                let r = group_range(ctx.group_id, groups, threads);
                assert!(r.contains(&ctx.global_id), "{ctx:?} not in {r:?}");
                assert_eq!(ctx.local_id, ctx.global_id - r.start, "{ctx:?}");
                assert_eq!(ctx.group_size(), r.len());
            }
            // Groups tile the thread range.
            let covered: usize = (0..groups)
                .map(|g| group_range(g, groups, threads).len())
                .sum();
            assert_eq!(covered, threads);
        }
    }

    #[test]
    fn run_shares_runs_one_share_inline_and_several_on_the_pool() {
        let caller = std::thread::current().id();
        let on = |pool: Option<&ThreadPool>, shares: usize| {
            run_shares(pool, (0..shares).collect(), |i| {
                (i * 10, std::thread::current().id() == caller)
            })
        };
        let pool = ThreadPool::single_group(3);
        assert_eq!(on(None, 1), [(0, true)]);
        assert_eq!(on(None, 3), [(0, true), (10, true), (20, true)]);
        assert_eq!(on(Some(&pool), 1), [(0, true)]);
        assert_eq!(
            on(Some(&pool), 3),
            [(0, true), (10, false), (20, false)],
            "several shares run as a phase: share 0 on the caller, the rest \
             on the helpers, results in task order"
        );
        assert!(on(Some(&ThreadPool::single_group(1)), 1)[0].1);
    }

    #[test]
    fn share_zero_runs_on_the_caller_and_the_rest_on_helpers() {
        let caller = std::thread::current().id();
        let pool = ThreadPool::new(4, 2);
        let ids = pool.run_map(|_| Some(std::thread::current().id()));
        assert_eq!(ids[0], Some(caller));
        for (id, thread) in ids.iter().enumerate().skip(1) {
            assert_ne!(*thread, Some(caller), "share {id} ran on the caller");
        }
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4, "one thread per share");
    }

    #[test]
    fn a_pool_of_n_spawns_n_minus_one_helpers() {
        for (threads, groups) in [(1, 1), (2, 1), (3, 2), (8, 4)] {
            let pool = ThreadPool::new(threads, groups);
            assert_eq!(pool.handles.len(), threads - 1, "{threads} threads");
        }
    }

    #[test]
    fn a_one_thread_pool_runs_inline() {
        let caller = std::thread::current().id();
        let pool = ThreadPool::new(1, 1);
        let seen = Mutex::new(vec![]);
        for _ in 0..3 {
            pool.run(|ctx| {
                assert_eq!(*ctx, worker_ctx(0, 1, 1));
                seen.lock().unwrap().push(std::thread::current().id());
            });
        }
        assert_eq!(seen.into_inner().unwrap(), vec![caller; 3]);
        assert_eq!(
            pool.run_result(|_| panic!("inline share panics")),
            Err(WorkerPanicked)
        );
        assert_eq!(pool.run_result(|_| {}), Ok(()));
    }

    #[test]
    fn a_panicking_caller_share_waits_for_every_helper() {
        let pool = ThreadPool::single_group(3);
        let finished = AtomicU64::new(0);
        let res = pool.run_result(|ctx| {
            if ctx.global_id == 0 {
                panic!("caller share panics first");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            finished.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(res, Err(WorkerPanicked));
        // `run_result` returned only after both helpers' side effects.
        assert_eq!(finished.load(Ordering::Relaxed), 2);
        let c = AtomicU64::new(0);
        pool.run(|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 3);
    }

    /// Runs a phase whose share `inner` calls back into `pool`, records the
    /// inner call's panic message, and re-raises it.
    fn nest_from(pool: &ThreadPool, inner: usize) -> (Result<(), WorkerPanicked>, String) {
        let message = Mutex::new(String::new());
        let res = pool.run_result(|ctx| {
            if ctx.global_id != inner {
                return;
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(|_| {})))
                .expect_err("a nested phase must be refused");
            *message.lock().unwrap() = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            std::panic::resume_unwind(err);
        });
        (res, message.into_inner().unwrap())
    }

    #[test]
    fn a_nested_phase_panics_from_any_share_and_the_pool_survives() {
        let pool = ThreadPool::single_group(2);
        for inner in [0, 1] {
            let (res, message) = nest_from(&pool, inner);
            assert_eq!(res, Err(WorkerPanicked), "nested from share {inner}");
            assert!(
                message.contains("ThreadPool phases cannot nest or overlap"),
                "share {inner}: {message:?}"
            );
            let c = AtomicU64::new(0);
            pool.run(|_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                c.load(Ordering::Relaxed),
                2,
                "clean phase after share {inner}"
            );
        }
        let (res, _) = nest_from(&ThreadPool::new(1, 1), 0);
        assert_eq!(res, Err(WorkerPanicked), "nested inside an inline pool");
    }

    #[test]
    fn an_overlapping_phase_from_another_thread_panics() {
        let pool = ThreadPool::single_group(2);
        pool.run(|ctx| {
            if ctx.global_id != 0 {
                return;
            }
            // The outer phase is open for as long as share 0 runs.
            let overlap = std::thread::scope(|s| s.spawn(|| pool.run(|_| {})).join());
            assert!(overlap.is_err(), "a second thread's phase must be refused");
        });
        assert_eq!(pool.run_result(|_| {}), Ok(()));
    }

    #[test]
    fn run_map_collects_in_order() {
        let pool = ThreadPool::single_group(4);
        let squares = pool.run_map(|ctx| (ctx.global_id * ctx.global_id) as u64);
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn run_tasks_moves_disjoint_slices_to_workers() {
        let pool = ThreadPool::single_group(4);
        let mut out = vec![0u64; 8];
        let mut rest: &mut [u64] = &mut out;
        let mut tasks = Vec::new();
        for i in 0..4 {
            let (head, tail) = rest.split_at_mut(2);
            tasks.push((i as u64, head));
            rest = tail;
        }
        let lens = pool.run_tasks(tasks, |_, (tag, slice)| {
            for s in slice.iter_mut() {
                *s = tag + 1;
            }
            slice.len()
        });
        assert_eq!(lens, vec![2, 2, 2, 2]);
        assert_eq!(out, vec![1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "one task per worker")]
    fn run_tasks_rejects_wrong_task_count() {
        let pool = ThreadPool::single_group(2);
        pool.run_tasks(vec![1u64], |_, t| t);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::single_group(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.global_id == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool stays usable after a panic.
        let c = AtomicU64::new(0);
        pool.run(|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_result_reports_instead_of_panicking() {
        let pool = ThreadPool::single_group(3);
        let survivors = AtomicU64::new(0);
        let res = pool.run_result(|ctx| {
            if ctx.global_id == 0 {
                panic!("injected chunk panic");
            }
            survivors.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(res, Err(WorkerPanicked));
        // The phase completed on the surviving workers...
        assert_eq!(survivors.load(Ordering::Relaxed), 2);
        // ...and the pool is immediately reusable for the retry.
        assert_eq!(pool.run_result(|_| {}), Ok(()));
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn more_groups_than_threads_rejected() {
        ThreadPool::new(2, 3);
    }

    #[test]
    fn cancellable_batch_runs_fully_when_clear() {
        let pool = ThreadPool::single_group(3);
        let cancel = crate::cancel::CancelFlag::new();
        let out = pool.run_tasks_cancellable(vec![1u64, 2, 3], &cancel, |_, t| t * 10);
        assert_eq!(out, vec![Some(10), Some(20), Some(30)]);
    }

    #[test]
    fn cancelled_batch_skips_every_task_and_pool_survives() {
        let pool = ThreadPool::single_group(2);
        let cancel = crate::cancel::CancelFlag::new();
        cancel.cancel();
        let out = pool.run_tasks_cancellable(vec![1u64, 2], &cancel, |_, t| t);
        assert_eq!(out, vec![None, None]);
        // The handshake completed; the pool is immediately reusable.
        cancel.reset();
        let out = pool.run_tasks_cancellable(vec![7u64, 8], &cancel, |_, t| t);
        assert_eq!(out, vec![Some(7), Some(8)]);
    }

    #[test]
    fn a_cancelled_batch_skips_the_callers_share_too() {
        let caller = std::thread::current().id();
        let pool = ThreadPool::single_group(3);
        let cancel = crate::cancel::CancelFlag::new();
        let on_caller = |_: &WorkerCtx, t: u64| (t, std::thread::current().id() == caller);
        cancel.cancel();
        let out = pool.run_tasks_cancellable(vec![1u64, 2, 3], &cancel, on_caller);
        assert_eq!(out, vec![None, None, None]);
        cancel.reset();
        let out = pool.run_tasks_cancellable(vec![1u64, 2, 3], &cancel, on_caller);
        assert_eq!(
            out,
            vec![Some((1, true)), Some((2, false)), Some((3, false))]
        );
    }
}
