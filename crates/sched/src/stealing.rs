//! Locality-first chunk scheduling with work stealing.
//!
//! The paper's scheduler-aware interface is designed to work under *any*
//! scheduler that keeps chunks contiguous: it "considerably improves the
//! performance of a fully-parallelized pull engine without restricting the
//! behavior of the scheduler itself" (§3), and its Discussion notes that
//! "statically chunking the iteration space does not prohibit the runtime
//! from dynamically assigning and rebalancing chunks across threads".
//!
//! [`LocalityScheduler`] is a second scheduler that exercises exactly that
//! freedom: the (statically laid out, contiguous) chunks are pre-assigned
//! to threads in contiguous runs, each thread drains its own run first
//! (locality: consecutive chunks touch consecutive edge-array regions),
//! and threads that finish early steal from the fullest remaining victim.
//! Chunk identifiers and geometry are identical to
//! [`ChunkScheduler`]'s, so the merge-buffer
//! discipline is untouched — only *assignment* changes, which is the
//! paper's point.

use crate::chunks::{Chunk, ChunkScheduler, ChunkSource};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-thread cursor over a contiguous run of chunk ids, padded to avoid
/// false sharing between thread cursors.
#[repr(align(64))]
struct Cursor {
    next: AtomicUsize,
    end: usize,
}

/// A locality-first, work-stealing assignment over statically laid out
/// chunks.
pub struct LocalityScheduler {
    /// Shared geometry (balanced chunk ranges, same as the central queue).
    geometry: ChunkScheduler,
    cursors: Vec<Cursor>,
}

impl LocalityScheduler {
    /// Splits `num_items` into `num_chunks` chunks and pre-assigns them to
    /// `num_threads` contiguous runs.
    pub fn new(num_items: usize, num_chunks: usize, num_threads: usize) -> Self {
        assert!(num_threads >= 1);
        let geometry = ChunkScheduler::new(num_items, num_chunks);
        let chunks = geometry.num_chunks();
        let cursors = (0..num_threads)
            .map(|t| {
                let start = t * chunks / num_threads;
                let end = (t + 1) * chunks / num_threads;
                Cursor {
                    next: AtomicUsize::new(start),
                    end,
                }
            })
            .collect();
        LocalityScheduler { geometry, cursors }
    }

    /// Number of pre-assigned threads.
    pub fn num_threads(&self) -> usize {
        self.cursors.len()
    }

    fn claim_from(&self, victim: usize) -> Option<Chunk> {
        let c = &self.cursors[victim];
        // ATOMIC: relaxed-ticket — per-cursor dispenser; RMW uniqueness only
        let id = c.next.fetch_add(1, Ordering::Relaxed);
        if id < c.end {
            Some(Chunk {
                id,
                range: self.geometry.chunk_range(id),
            })
        } else {
            // Over-claimed: park the cursor at `end` so remaining() stays
            // meaningful (fetch_add already advanced it past end; clamp).
            c.next.fetch_min(c.end, Ordering::Relaxed); // ATOMIC: relaxed-ticket
            None
        }
    }

    fn remaining(&self, victim: usize) -> usize {
        let c = &self.cursors[victim];
        // ATOMIC: relaxed-ticket — victim-selection heuristic; a stale read
        // only picks a worse victim, claim_from re-validates atomically
        c.end.saturating_sub(c.next.load(Ordering::Relaxed))
    }
}

impl ChunkSource for LocalityScheduler {
    fn next_chunk_for(&self, thread: usize) -> Option<Chunk> {
        let me = thread % self.cursors.len();
        // Local run first.
        if let Some(chunk) = self.claim_from(me) {
            return Some(chunk);
        }
        // Steal: pick the victim with the most remaining chunks (a cheap
        // scan — thread counts are small).
        loop {
            let victim = (0..self.cursors.len())
                .filter(|&v| v != me)
                .max_by_key(|&v| self.remaining(v))?;
            if self.remaining(victim) == 0 {
                return None;
            }
            if let Some(chunk) = self.claim_from(victim) {
                return Some(chunk);
            }
            // Lost the race for that victim's last chunk; rescan.
        }
    }

    fn num_chunks(&self) -> usize {
        self.geometry.num_chunks()
    }

    fn num_items(&self) -> usize {
        self.geometry.num_items()
    }

    fn reset(&self) {
        let chunks = self.geometry.num_chunks();
        let n = self.cursors.len();
        for (t, c) in self.cursors.iter().enumerate() {
            // ATOMIC: relaxed-ticket — round reset; claimants use Relaxed
            // RMWs, so Release would order nothing (the pool's phase
            // handshake sequences reset-before-claim)
            c.next.store(t * chunks / n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn single_thread_claims_everything_in_order() {
        let s = LocalityScheduler::new(100, 10, 1);
        let mut ids = vec![];
        while let Some(c) = s.next_chunk_for(0) {
            ids.push(c.id);
        }
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_are_claimed_exactly_once_across_threads() {
        let s = std::sync::Arc::new(LocalityScheduler::new(10_000, 128, 4));
        let claimed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                let claimed = std::sync::Arc::clone(&claimed);
                std::thread::spawn(move || {
                    while let Some(c) = s.next_chunk_for(t) {
                        claimed.lock().unwrap().push(c.id);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ids = claimed.lock().unwrap().clone();
        assert_eq!(ids.len(), 128);
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 128);
    }

    #[test]
    fn stealing_happens_when_one_thread_is_lazy() {
        // Thread 0 never claims; thread 1 must steal thread 0's run.
        let s = LocalityScheduler::new(64, 8, 2);
        let mut ids = vec![];
        while let Some(c) = s.next_chunk_for(1) {
            ids.push(c.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn locality_preference_claims_own_run_first() {
        let s = LocalityScheduler::new(80, 8, 2);
        // Thread 1's run is chunks 4..8; its first claims must come from it.
        for expect in 4..8 {
            assert_eq!(s.next_chunk_for(1).unwrap().id, expect);
        }
        // Then it steals from thread 0's untouched run.
        assert!(s.next_chunk_for(1).unwrap().id < 4);
    }

    #[test]
    fn reset_restores_all_runs() {
        let s = LocalityScheduler::new(50, 5, 2);
        while s.next_chunk_for(0).is_some() {}
        assert!(s.next_chunk_for(1).is_none());
        s.reset();
        let mut count = 0;
        while s.next_chunk_for(1).is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn geometry_matches_central_scheduler() {
        let central = ChunkScheduler::new(1000, 13);
        let local = LocalityScheduler::new(1000, 13, 3);
        assert_eq!(local.num_chunks(), central.num_chunks());
        for id in 0..central.num_chunks() {
            // Same chunk id → same iteration range under both schedulers.
            let mut found = None;
            local.reset();
            for t in 0..3 {
                while let Some(c) = local.next_chunk_for(t) {
                    if c.id == id {
                        found = Some(c.range.clone());
                    }
                }
            }
            assert_eq!(found.unwrap(), central.chunk_range(id));
        }
    }

    #[test]
    fn more_threads_than_chunks() {
        let s = LocalityScheduler::new(6, 2, 8);
        let mut total = 0;
        for t in 0..8 {
            while s.next_chunk_for(t).is_some() {
                total += 1;
            }
        }
        assert_eq!(total, 2);
    }
}
