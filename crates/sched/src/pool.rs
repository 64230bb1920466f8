//! Persistent worker pool with group topology.
//!
//! Grazelle "pins one software thread to each hardware thread" and gives
//! every thread "its own group (set of threads that share a NUMA node),
//! local thread ID within the group, and global thread ID" (§5). This pool
//! reproduces that topology. Physical pinning (`sched_setaffinity`) would
//! need `libc`, which is outside the allowed dependency set; since the
//! reproduction host is single-core anyway (DESIGN.md §4.2), pinning is a
//! no-op here and groups are purely logical.
//!
//! `run` broadcasts one closure to *every* worker — the paper's execution
//! model, where each phase is a SPMD region ended by a barrier — and blocks
//! until all workers return.

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

/// Type-erased broadcast job. The pointer is only dereferenced between a
/// job's publication and the completion handshake inside [`ThreadPool::run`],
/// during which the underlying closure is kept alive by `run`'s stack frame.
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

/// A fixed-size pool of persistent worker threads.
pub struct ThreadPool {
    slot: Arc<JobSlot>,
    handles: Vec<std::thread::JoinHandle<()>>,
    num_threads: usize,
    num_groups: usize,
}

impl ThreadPool {
    /// Creates a pool of `num_threads` workers split into `num_groups`
    /// logical groups. `num_groups` must not exceed `num_threads`.
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
        let handles = (0..num_threads)
            .map(|global_id| {
                let slot = Arc::clone(&slot);
                let ctx = WorkerCtx {
                    global_id,
                    group_id: group_of(global_id, num_groups, num_threads),
                    local_id: global_id
                        - group_range(
                            group_of(global_id, num_groups, num_threads),
                            num_groups,
                            num_threads,
                        )
                        .start,
                    num_threads,
                    num_groups,
                };
                std::thread::Builder::new()
                    .name(format!("grazelle-worker-{global_id}"))
                    .spawn(move || worker_loop(slot, ctx))
                    .expect("spawn worker")
            })
            .collect();
        ThreadPool {
            slot,
            handles,
            num_threads,
            num_groups,
        }
    }

    /// Convenience: one group.
    pub fn single_group(num_threads: usize) -> Self {
        ThreadPool::new(num_threads, 1)
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Number of logical groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Broadcasts `f` to every worker and blocks until all return.
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

    /// Broadcasts `f` to every worker, blocks until all return, and reports
    /// whether any worker panicked instead of re-raising.
    ///
    /// The phase always runs to completion on every worker (panics are
    /// caught per-worker in `worker_loop`), so the pool stays fully usable
    /// after an `Err` — this is what lets the resilient engine retry a
    /// poisoned chunk on a surviving thread rather than aborting the run.
    pub fn run_result<F>(&self, f: F) -> Result<(), WorkerPanicked>
    where
        F: Fn(&WorkerCtx) + Sync,
    {
        let slot = &*self.slot;
        // Erase the closure's lifetime; `run` keeps `f` alive until the
        // completion handshake below, and workers never hold the pointer
        // across epochs.
        let wide: &(dyn Fn(&WorkerCtx) + Sync) = &f;
        // SAFETY: lifetime-erasing transmute of the job pointer; the
        // completion handshake below keeps `f` alive until every worker
        // has finished the epoch, so no dereference outlives it.
        let raw = RawJob(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(&WorkerCtx) + Sync),
                *const (dyn Fn(&WorkerCtx) + Sync),
            >(wide as *const _)
        });
        {
            let mut job = slot.job.lock().expect("job mutex poisoned");
            // ATOMIC: barrier-publish — arms the completion count before the
            // epoch Release below publishes the job
            slot.remaining.store(self.num_threads, Ordering::Release);
            // ATOMIC: barrier-publish — pre-publish reset, ordered by the
            // epoch Release below
            slot.panicked.store(false, Ordering::Relaxed);
            *job = Some(raw);
            // ATOMIC: barrier-publish — publishes the job to worker epochs
            slot.epoch.fetch_add(1, Ordering::Release);
            slot.cv.notify_all();
        }
        // Wait for completion.
        let mut guard = slot.done_mutex.lock().expect("done mutex poisoned");
        // ATOMIC: barrier-publish — acquires every worker's phase writes
        while slot.remaining.load(Ordering::Acquire) != 0 {
            guard = slot.done_cv.wait(guard).expect("done mutex poisoned");
        }
        drop(guard);
        // ATOMIC: barrier-publish — acquires the panicking worker's record
        if slot.panicked.load(Ordering::Acquire) {
            Err(WorkerPanicked)
        } else {
            Ok(())
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

    /// Like [`ThreadPool::run_map`] but without the `Default` bound: each
    /// worker's return value travels back through a one-shot slot instead of
    /// overwriting a default, so the result type only needs `Send`.
    pub fn run_map_with<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&WorkerCtx) -> R + Sync,
    {
        self.run_tasks(vec![(); self.num_threads], |ctx, ()| f(ctx))
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
    /// The broadcast handshake always completes (a cancelled batch is a
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
            // SAFETY: `run` keeps the closure alive until `remaining`
            // reaches zero, which happens only after this call returns.
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
    fn run_map_collects_in_order() {
        let pool = ThreadPool::single_group(4);
        let squares = pool.run_map(|ctx| (ctx.global_id * ctx.global_id) as u64);
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn run_map_with_collects_non_default_types() {
        // A result type with no `Default` impl — the reason the helper exists.
        struct NoDefault(u64);
        let pool = ThreadPool::single_group(4);
        let cubes = pool
            .run_map_with(|ctx| NoDefault((ctx.global_id * ctx.global_id * ctx.global_id) as u64));
        let cubes: Vec<u64> = cubes.into_iter().map(|n| n.0).collect();
        assert_eq!(cubes, vec![0, 1, 8, 27]);
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
}
