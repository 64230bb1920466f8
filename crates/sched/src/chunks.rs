//! The dynamic chunk scheduler.
//!
//! The paper's Edge phase "is parallelized using a dynamic scheduler that
//! splits the edge vector array into equally-sized chunks and assigns chunks
//! to threads as they become available. Through experimentation we found
//! that creating 32n chunks, where n is the number of threads, achieved
//! near-ideal load balance" (§5).
//!
//! Chunks are contiguous and statically laid out (so a merge buffer can be
//! preallocated with one slot per chunk, §3 "Discussion"), but *assignment*
//! of chunks to threads is dynamic: a single atomic counter pops the next
//! unclaimed chunk. Static chunking of the iteration space with dynamic
//! assignment is exactly the combination the scheduler-aware interface
//! relies on — it guarantees chunks are contiguous runs of iterations
//! without restricting load balancing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper's default chunk-count multiplier (32·n chunks).
pub const DEFAULT_CHUNKS_PER_THREAD: usize = 32;

/// Anything that hands out statically laid out, contiguous chunks exactly
/// once per round. The scheduler-aware interface works against this
/// abstraction — the paper's §3 point that it "does not restrict the
/// behavior of the scheduler itself". The engine's implementation is the
/// central queue ([`ChunkScheduler`]); the `invariant-checks` tests
/// substitute deliberately broken ones through this trait.
pub trait ChunkSource: Sync {
    /// Claims the next chunk for `thread` (implementations may ignore the
    /// thread and serve a global queue). Every chunk id is handed out at
    /// most once between resets.
    fn next_chunk_for(&self, thread: usize) -> Option<Chunk>;

    /// Total number of chunks (merge-buffer slots needed).
    fn num_chunks(&self) -> usize;

    /// Total number of items covered.
    fn num_items(&self) -> usize;

    /// Rewinds for the next round.
    fn reset(&self);
}

/// One claimed chunk of the iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Dense chunk identifier, `0..num_chunks` — the merge-buffer slot.
    pub id: usize,
    /// Half-open iteration range covered by this chunk.
    pub range: std::ops::Range<usize>,
}

/// A resettable dynamic scheduler over `0..num_items`.
#[derive(Debug)]
pub struct ChunkScheduler {
    num_items: usize,
    num_chunks: usize,
    next: AtomicUsize,
}

impl ChunkScheduler {
    /// Splits `num_items` into `num_chunks` near-equal contiguous chunks.
    /// More chunks than items collapses to one chunk per item.
    pub fn new(num_items: usize, num_chunks: usize) -> Self {
        assert!(num_chunks >= 1, "need at least one chunk");
        ChunkScheduler {
            num_items,
            num_chunks: num_chunks.min(num_items.max(1)),
            next: AtomicUsize::new(0),
        }
    }

    /// The paper's default: 32 chunks per thread.
    pub fn with_default_granularity(num_items: usize, num_threads: usize) -> Self {
        ChunkScheduler::new(num_items, DEFAULT_CHUNKS_PER_THREAD * num_threads.max(1))
    }

    /// Splits into chunks of (at most) `chunk_size` items — the Figure 6
    /// granularity knob ("# vectors / chunk").
    pub fn with_chunk_size(num_items: usize, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        ChunkScheduler::new(num_items, num_items.div_ceil(chunk_size).max(1))
    }

    /// Total number of chunks (merge-buffer slots needed).
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Total number of items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The iteration range of chunk `id` (balanced split, deterministic).
    pub fn chunk_range(&self, id: usize) -> std::ops::Range<usize> {
        debug_assert!(id < self.num_chunks);
        let start = (id as u128 * self.num_items as u128 / self.num_chunks as u128) as usize;
        let end = ((id + 1) as u128 * self.num_items as u128 / self.num_chunks as u128) as usize;
        start..end
    }

    /// Claims the next unprocessed chunk, or `None` when the space is
    /// exhausted. Safe to call concurrently from any number of threads.
    pub fn next_chunk(&self) -> Option<Chunk> {
        // ATOMIC: relaxed-ticket — RMW atomicity alone makes each id unique
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if id < self.num_chunks {
            Some(Chunk {
                id,
                range: self.chunk_range(id),
            })
        } else {
            None
        }
    }

    /// Rewinds the scheduler for the next phase/iteration.
    pub fn reset(&self) {
        // ATOMIC: relaxed-ticket — round reset; claimants read with Relaxed
        // RMWs, so a Release here orders nothing (the pool's phase handshake
        // is what sequences reset-before-claim)
        self.next.store(0, Ordering::Relaxed);
    }
}

impl ChunkSource for ChunkScheduler {
    fn next_chunk_for(&self, _thread: usize) -> Option<Chunk> {
        self.next_chunk()
    }

    fn num_chunks(&self) -> usize {
        ChunkScheduler::num_chunks(self)
    }

    fn num_items(&self) -> usize {
        ChunkScheduler::num_items(self)
    }

    fn reset(&self) {
        ChunkScheduler::reset(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn chunks_tile_the_range() {
        for (items, chunks) in [(100, 7), (503, 17)] {
            let s = ChunkScheduler::new(items, chunks);
            let mut covered = vec![false; items];
            let mut last_end = 0;
            for id in 0..s.num_chunks() {
                let r = s.chunk_range(id);
                assert_eq!(r.start, last_end, "chunks must be contiguous");
                last_end = r.end;
                for i in r {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "{items} items / {chunks}");
        }
    }

    #[test]
    fn next_chunk_exhausts_exactly_once() {
        let s = ChunkScheduler::new(50, 5);
        // A reset round hands out every chunk again, like the first.
        for _round in 0..2 {
            let mut ids = vec![];
            while let Some(c) = s.next_chunk() {
                ids.push(c.id);
            }
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
            assert!(s.next_chunk().is_none());
            s.reset();
        }
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_complete() {
        let s = Arc::new(ChunkScheduler::new(1000, 64));
        let claimed: Arc<Vec<AtomicUsize>> =
            Arc::new((0..64).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let claimed = Arc::clone(&claimed);
                std::thread::spawn(move || {
                    while let Some(c) = s.next_chunk() {
                        claimed[c.id].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (id, c) in claimed.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {id} claim count");
        }
    }

    #[test]
    fn more_chunks_than_items_collapses() {
        let s = ChunkScheduler::new(3, 10);
        assert_eq!(s.num_chunks(), 3);
        let sizes: Vec<_> = (0..3).map(|i| s.chunk_range(i).len()).collect();
        assert_eq!(sizes, vec![1, 1, 1]);
    }

    #[test]
    fn empty_iteration_space() {
        let s = ChunkScheduler::new(0, 4);
        assert_eq!(s.num_chunks(), 1);
        let c = s.next_chunk().unwrap();
        assert_eq!(c.range, 0..0);
        assert!(s.next_chunk().is_none());
    }

    #[test]
    fn chunk_size_constructor() {
        let s = ChunkScheduler::with_chunk_size(1000, 100);
        assert_eq!(s.num_chunks(), 10);
        assert!(s.chunk_range(0).len() == 100);
        let s = ChunkScheduler::with_chunk_size(1001, 100);
        assert_eq!(s.num_chunks(), 11);
    }

    #[test]
    fn default_granularity_is_32n() {
        let s = ChunkScheduler::with_default_granularity(1 << 20, 4);
        assert_eq!(s.num_chunks(), 128);
    }
}
