//! The scheduler-aware parallel-loop interface (paper §3, Figure 3).
//!
//! Where the traditional interface hands the runtime a single
//! `LoopIteration(index)` callback, the scheduler-aware interface lets the
//! application define how to execute *variably-sized chunks* of iterations:
//!
//! ```text
//!   StartChunk(chunkId, firstIterationIndex) -> thread-local state
//!   LoopIteration(state, iterationIndex)          (many times)
//!   FinishChunk(state, chunkId, lastIterationIndex)
//! ```
//!
//! The contract the interface exposes — and the property a pull engine
//! exploits — is that each chunk is a *contiguous* run of iterations
//! executed entirely by one thread. Within a chunk the application can keep
//! partial aggregates in thread-local state (registers, in the hot loop) and
//! spill only at chunk boundaries. The scheduler remains free to size,
//! order, and balance chunks dynamically; the only behavior ruled out is
//! randomizing iterations, "which would destroy locality" anyway (§3).

use crate::chunks::ChunkSource;
use crate::pool::{ThreadPool, WorkerCtx};

/// An application loop written against the scheduler-aware interface.
pub trait ChunkAware: Sync {
    /// Thread-local state carried across one chunk's iterations.
    type State;

    /// Called once when a thread begins a chunk; initializes thread-local
    /// state (paper Listing 3).
    fn start_chunk(&self, ctx: &WorkerCtx, chunk_id: usize, first_iteration: usize) -> Self::State;

    /// Called for every iteration in the chunk, in ascending order
    /// (paper Listing 4).
    fn loop_iteration(&self, ctx: &WorkerCtx, state: &mut Self::State, iteration: usize);

    /// Called once when the chunk's iterations are exhausted; typically
    /// saves the trailing partial aggregate into a merge buffer slot indexed
    /// by `chunk_id` (paper Listing 5).
    fn finish_chunk(
        &self,
        ctx: &WorkerCtx,
        state: Self::State,
        chunk_id: usize,
        last_iteration: usize,
    );
}

/// Drives a [`ChunkAware`] loop over `sched`'s iteration space on `pool`.
/// Works with any [`ChunkSource`], since the interface only relies on
/// chunks being contiguous and claimed exactly once.
///
/// The scheduler is *not* reset first (callers reuse one scheduler across
/// phases by resetting explicitly), and empty chunks are skipped without
/// invoking any callback.
pub fn parallel_for_aware<L: ChunkAware, S: ChunkSource + ?Sized>(
    pool: &ThreadPool,
    sched: &S,
    loop_: &L,
) {
    pool.run(|ctx| {
        while let Some(chunk) = sched.next_chunk_for(ctx.global_id) {
            if chunk.range.is_empty() {
                continue;
            }
            let first = chunk.range.start;
            let last = chunk.range.end - 1;
            let mut state = loop_.start_chunk(ctx, chunk.id, first);
            for i in chunk.range {
                loop_.loop_iteration(ctx, &mut state, i);
            }
            loop_.finish_chunk(ctx, state, chunk.id, last);
        }
    });
}

/// Closure-based adapter for simple scheduler-aware loops, mirroring how a
/// framework embeds the interface "without substantial impact on the graph
/// application writer" (§3).
pub struct ClosureLoop<S, FS, FI, FF>
where
    FS: Fn(&WorkerCtx, usize, usize) -> S + Sync,
    FI: Fn(&WorkerCtx, &mut S, usize) + Sync,
    FF: Fn(&WorkerCtx, S, usize, usize) + Sync,
{
    /// `start_chunk(ctx, chunk_id, first_iteration) -> state`.
    pub start: FS,
    /// `loop_iteration(ctx, &mut state, iteration)`.
    pub iteration: FI,
    /// `finish_chunk(ctx, state, chunk_id, last_iteration)`.
    pub finish: FF,
}

impl<S, FS, FI, FF> ChunkAware for ClosureLoop<S, FS, FI, FF>
where
    FS: Fn(&WorkerCtx, usize, usize) -> S + Sync,
    FI: Fn(&WorkerCtx, &mut S, usize) + Sync,
    FF: Fn(&WorkerCtx, S, usize, usize) + Sync,
{
    type State = S;

    fn start_chunk(&self, ctx: &WorkerCtx, chunk_id: usize, first_iteration: usize) -> S {
        (self.start)(ctx, chunk_id, first_iteration)
    }

    fn loop_iteration(&self, ctx: &WorkerCtx, state: &mut S, iteration: usize) {
        (self.iteration)(ctx, state, iteration)
    }

    fn finish_chunk(&self, ctx: &WorkerCtx, state: S, chunk_id: usize, last_iteration: usize) {
        (self.finish)(ctx, state, chunk_id, last_iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::ChunkScheduler;
    use crate::slots::SlotBuffer;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn chunks_are_contiguous_and_complete() {
        let pool = ThreadPool::single_group(4);
        let sched = ChunkScheduler::new(503, 17);
        let seen = Mutex::new(vec![]);
        let loop_ = ClosureLoop {
            start: |_: &WorkerCtx, chunk: usize, first: usize| (chunk, first, first),
            iteration: |_: &WorkerCtx, st: &mut (usize, usize, usize), i: usize| {
                // Iterations inside a chunk arrive in ascending order with
                // no gaps.
                assert_eq!(st.2, i, "gap inside chunk {}", st.0);
                st.2 = i + 1;
            },
            finish: |_: &WorkerCtx, st: (usize, usize, usize), chunk: usize, last: usize| {
                assert_eq!(st.0, chunk);
                assert_eq!(st.2, last + 1);
                seen.lock().unwrap().push((chunk, st.1, last));
            },
        };
        parallel_for_aware(&pool, &sched, &loop_);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), 17);
        // Chunks tile 0..503.
        assert_eq!(seen.first().unwrap().1, 0);
        assert_eq!(seen.last().unwrap().2, 502);
        for w in seen.windows(2) {
            assert_eq!(w[0].2 + 1, w[1].1, "chunks {w:?} not contiguous");
        }
    }

    /// The paper's motivating computation: flatten a nested loop
    /// (vertices × their elements) and aggregate per top-level vertex with
    /// thread-local state + a merge buffer, then verify against the
    /// sequential answer. This is the §3 pull-engine pattern in miniature.
    #[test]
    fn segmented_sum_via_merge_buffer_matches_sequential() {
        // 40 "vertices" each owning 13 "edges"; edge j of vertex v carries
        // value v*13 + j.
        const V: usize = 40;
        const D: usize = 13;
        let value = |i: usize| i as u64;
        let vertex_of = |i: usize| i / D;

        let pool = ThreadPool::single_group(4);
        let sched = ChunkScheduler::new(V * D, 11);
        let merge: SlotBuffer<(usize, u64)> = SlotBuffer::new(sched.num_chunks());
        let totals: Vec<AtomicUsize> = (0..V).map(|_| AtomicUsize::new(0)).collect();

        struct SegSum<'a> {
            merge: &'a SlotBuffer<(usize, u64)>,
            totals: &'a [AtomicUsize],
            value: fn(usize) -> u64,
            vertex_of: fn(usize) -> usize,
        }
        impl ChunkAware for SegSum<'_> {
            type State = (usize, u64); // (prev_dest, partial)
            fn start_chunk(&self, _: &WorkerCtx, _: usize, first: usize) -> Self::State {
                ((self.vertex_of)(first), 0)
            }
            fn loop_iteration(&self, _: &WorkerCtx, st: &mut Self::State, i: usize) {
                let v = (self.vertex_of)(i);
                if st.0 != v {
                    // Interior vertex boundary: safe unsynchronized store in
                    // the real engine; here an atomic stands in for the
                    // plain store so the test can share the array.
                    self.totals[st.0].fetch_add(st.1 as usize, Ordering::Relaxed);
                    *st = (v, 0);
                }
                st.1 += (self.value)(i);
            }
            fn finish_chunk(&self, _: &WorkerCtx, st: Self::State, chunk: usize, _: usize) {
                // SAFETY: the scheduler claims each chunk id exactly once,
                // so this thread is the slot's unique writer this round.
                unsafe { self.merge.write(chunk, st) };
            }
        }

        let loop_ = SegSum {
            merge: &merge,
            totals: &totals,
            value,
            vertex_of,
        };
        parallel_for_aware(&pool, &sched, &loop_);

        // Merge phase (sequential, like the paper's Listing 6).
        let mut merge = merge;
        let mut final_totals: Vec<u64> = totals
            .iter()
            .map(|a| a.load(Ordering::Relaxed) as u64)
            .collect();
        for (_chunk, (dest, partial)) in merge.drain() {
            final_totals[dest] += partial;
        }

        for (v, total) in final_totals.iter().enumerate() {
            let expect: u64 = (v * D..(v + 1) * D).map(value).sum();
            assert_eq!(*total, expect, "vertex {v}");
        }
    }

    #[test]
    fn empty_space_invokes_nothing() {
        let pool = ThreadPool::single_group(2);
        let sched = ChunkScheduler::new(0, 4);
        let calls = AtomicUsize::new(0);
        let loop_ = ClosureLoop {
            start: |_: &WorkerCtx, _: usize, _: usize| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
            iteration: |_: &WorkerCtx, _: &mut (), _: usize| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
            finish: |_: &WorkerCtx, _: (), _: usize, _: usize| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
        };
        parallel_for_aware(&pool, &sched, &loop_);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scheduler_reuse_across_phases() {
        let pool = ThreadPool::single_group(3);
        let sched = ChunkScheduler::new(90, 9);
        let count = AtomicUsize::new(0);
        let loop_ = ClosureLoop {
            start: |_: &WorkerCtx, _: usize, _: usize| (),
            iteration: |_: &WorkerCtx, _: &mut (), _: usize| {
                count.fetch_add(1, Ordering::Relaxed);
            },
            finish: |_: &WorkerCtx, _: (), _: usize, _: usize| {},
        };
        parallel_for_aware(&pool, &sched, &loop_);
        assert_eq!(count.load(Ordering::Relaxed), 90);
        sched.reset();
        parallel_for_aware(&pool, &sched, &loop_);
        assert_eq!(count.load(Ordering::Relaxed), 180);
    }
}
