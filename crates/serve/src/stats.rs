//! Server statistics: counters, a bounded latency reservoir, and the
//! plain-text rendering the health endpoint serves.
//!
//! Everything lives behind the server's stats mutex as plain integers —
//! no atomics, no sampling thread. Latency percentiles come from a
//! fixed-size ring of the most recent completions, so a long-running
//! server reports *recent* p50/p99, not the all-time mixture, and memory
//! stays bounded no matter how many queries it serves.

/// Completed-query latencies retained for percentile estimation.
const LATENCY_RING: usize = 4096;

/// Mutable counter state, owned by the server behind a mutex.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub admitted: u64,
    pub completed: u64,
    pub shed_queue: u64,
    pub shed_work: u64,
    pub shed_draining: u64,
    pub expired: u64,
    pub failed: u64,
    pub retries: u64,
    pub panics_absorbed: u64,
    pub degraded: u64,
    pub packed_runs: u64,
    pub packed_queries: u64,
    pub packed_bfs_queries: u64,
    pub packed_overlay_runs: u64,
    pub packed_pull_steps: u64,
    pub packed_push_steps: u64,
    pub updates_applied: u64,
    pub merges: u64,
    pub update_apply_ns: u64,
    pub merge_ns: u64,
    latencies_ns: Vec<u64>,
    next: usize,
}

impl StatsInner {
    /// Records one completed-query latency into the ring.
    pub fn record_latency(&mut self, ns: u64) {
        if self.latencies_ns.len() < LATENCY_RING {
            self.latencies_ns.push(ns);
        } else {
            self.latencies_ns[self.next] = ns;
            self.next = (self.next + 1) % LATENCY_RING;
        }
    }

    /// Immutable copy for reporting; `queue_depth` is sampled by the
    /// caller, which holds the queue lock.
    pub fn snapshot(&self, queue_depth: usize, queued_work: u64) -> StatsSnapshot {
        let mut lat = self.latencies_ns.clone();
        lat.sort_unstable();
        StatsSnapshot {
            queue_depth,
            queued_work,
            admitted: self.admitted,
            completed: self.completed,
            shed_queue: self.shed_queue,
            shed_work: self.shed_work,
            shed_draining: self.shed_draining,
            expired: self.expired,
            failed: self.failed,
            retries: self.retries,
            panics_absorbed: self.panics_absorbed,
            degraded: self.degraded,
            packed_runs: self.packed_runs,
            packed_queries: self.packed_queries,
            packed_bfs_queries: self.packed_bfs_queries,
            packed_overlay_runs: self.packed_overlay_runs,
            packed_pull_steps: self.packed_pull_steps,
            packed_push_steps: self.packed_push_steps,
            updates_applied: self.updates_applied,
            merges: self.merges,
            update_apply_ns: self.update_apply_ns,
            merge_ns: self.merge_ns,
            p50_latency_ns: percentile(&lat, 50),
            p99_latency_ns: percentile(&lat, 99),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// Definition: the p-th percentile is the smallest element such that at
/// least `p%` of the data is ≤ it — element at 1-based rank
/// `⌈p/100 · len⌉`. Boundary conventions, pinned by tests against a naive
/// reference: an empty slice reports 0, `p = 0` reports the minimum (rank
/// clamps up to 1), and `p ≥ 100` reports the maximum (rank clamps down to
/// `len`, which also makes out-of-range `p` safe instead of out-of-bounds).
pub(crate) fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64)
        .saturating_mul(p as u64)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64) as usize;
    sorted[rank - 1]
}

/// Point-in-time view of the server, safe to hand to any thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Estimated work queued right now, in edge-sweep units.
    pub queued_work: u64,
    /// Queries accepted past admission control.
    pub admitted: u64,
    /// Queries that completed with a result.
    pub completed: u64,
    /// Admissions refused on queue capacity.
    pub shed_queue: u64,
    /// Admissions refused on the work budget.
    pub shed_work: u64,
    /// Admissions refused because the server was draining.
    pub shed_draining: u64,
    /// Queries cancelled at an iteration boundary by their deadline.
    pub expired: u64,
    /// Queries that exhausted every attempt, including degraded.
    pub failed: u64,
    /// Retry attempts consumed across all queries.
    pub retries: u64,
    /// Executor panics absorbed by the retry loop.
    pub panics_absorbed: u64,
    /// Queries that fell back to the sequential-scalar degraded path.
    pub degraded: u64,
    /// Bit-parallel packed runs executed.
    pub packed_runs: u64,
    /// Queries answered by a packed run.
    pub packed_queries: u64,
    /// The BFS queries among `packed_queries`.
    pub packed_bfs_queries: u64,
    /// Packed runs that read an active insert overlay.
    pub packed_overlay_runs: u64,
    /// Bottom-up (pull) steps packed runs took.
    pub packed_pull_steps: u64,
    /// Top-down (push) steps packed runs took.
    pub packed_push_steps: u64,
    /// Update batches applied to the versioned graph.
    pub updates_applied: u64,
    /// Update batches that ended in a merge rebuild.
    pub merges: u64,
    /// Wall time spent applying update batches, merges included, ns.
    pub update_apply_ns: u64,
    /// The part of `update_apply_ns` spent in merges, ns.
    pub merge_ns: u64,
    /// Median completed-query latency (recent window), nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile completed-query latency (recent window), ns.
    pub p99_latency_ns: u64,
}

impl StatsSnapshot {
    /// Plain-text rendering — one `key: value` per line, stable order —
    /// what the health endpoint writes and the soak job archives.
    pub fn render(&self) -> String {
        format!(
            "grazelle-serve stats\n\
             queue_depth: {}\n\
             queued_work: {}\n\
             admitted: {}\n\
             completed: {}\n\
             shed_queue: {}\n\
             shed_work: {}\n\
             shed_draining: {}\n\
             expired: {}\n\
             failed: {}\n\
             retries: {}\n\
             panics_absorbed: {}\n\
             degraded: {}\n\
             packed_runs: {}\n\
             packed_queries: {}\n\
             packed_bfs_queries: {}\n\
             packed_overlay_runs: {}\n\
             packed_pull_steps: {}\n\
             packed_push_steps: {}\n\
             updates_applied: {}\n\
             merges: {}\n\
             update_apply_ns: {}\n\
             merge_ns: {}\n\
             p50_latency_us: {}\n\
             p99_latency_us: {}\n",
            self.queue_depth,
            self.queued_work,
            self.admitted,
            self.completed,
            self.shed_queue,
            self.shed_work,
            self.shed_draining,
            self.expired,
            self.failed,
            self.retries,
            self.panics_absorbed,
            self.degraded,
            self.packed_runs,
            self.packed_queries,
            self.packed_bfs_queries,
            self.packed_overlay_runs,
            self.packed_pull_steps,
            self.packed_push_steps,
            self.updates_applied,
            self.merges,
            self.update_apply_ns,
            self.merge_ns,
            self.p50_latency_ns / 1_000,
            self.p99_latency_ns / 1_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    /// Independent nearest-rank definition: the smallest element with at
    /// least `p%` of the data at or below it, found by scanning.
    fn naive_percentile(sorted: &[u64], p: u32) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let n = sorted.len();
        for (i, &x) in sorted.iter().enumerate() {
            // Share of the data at or below position i, in percent ×n.
            if (i + 1) * 100 >= p.min(100) as usize * n {
                return x;
            }
        }
        sorted[n - 1]
    }

    #[test]
    fn percentile_boundaries() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 0), 10, "p=0 reports the minimum");
        assert_eq!(percentile(&v, 100), 40, "p=100 reports the maximum");
        assert_eq!(percentile(&v, 200), 40, "out-of-range p clamps, no OOB");
        assert_eq!(percentile(&v, 1), 10, "tiny p rounds up to rank 1");
        assert_eq!(percentile(&[], 0), 0);
        assert_eq!(percentile(&[], 100), 0);
        assert_eq!(percentile(&[5], 0), 5);
        assert_eq!(percentile(&[5], 50), 5);
        assert_eq!(percentile(&[5], 100), 5);
        // Exact rank boundaries on a 2-element slice: p=50 must be the
        // first element (rank ⌈1⌉), p=51 the second (rank ⌈1.02⌉ = 2).
        assert_eq!(percentile(&[1, 2], 50), 1);
        assert_eq!(percentile(&[1, 2], 51), 2);
    }

    #[test]
    fn percentile_matches_naive_reference_on_random_windows() {
        // Deterministic xorshift64* windows of every small length plus
        // ring-sized ones; all p in 0..=100 must agree with the scanning
        // reference.
        let mut x = 0x243F6A8885A308D3u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let lengths = (1..=64).chain([1000, LATENCY_RING - 1, LATENCY_RING]);
        for len in lengths {
            let mut window: Vec<u64> = (0..len).map(|_| rand() % 1_000).collect();
            window.sort_unstable();
            for p in 0..=100 {
                assert_eq!(
                    percentile(&window, p),
                    naive_percentile(&window, p),
                    "len {len} p {p}"
                );
            }
        }
    }

    #[test]
    fn latency_ring_is_bounded_and_recent() {
        let mut s = StatsInner::default();
        for i in 0..(LATENCY_RING as u64 + 100) {
            s.record_latency(i);
        }
        assert_eq!(s.latencies_ns.len(), LATENCY_RING);
        // The oldest 100 samples were overwritten.
        assert!(!s.latencies_ns.contains(&0));
        assert!(s.latencies_ns.contains(&(LATENCY_RING as u64 + 99)));
    }

    #[test]
    fn render_lists_every_counter() {
        let mut s = StatsInner {
            admitted: 3,
            packed_bfs_queries: 7,
            packed_overlay_runs: 6,
            packed_pull_steps: 5,
            packed_push_steps: 4,
            update_apply_ns: 9_000,
            merge_ns: 8_000,
            ..StatsInner::default()
        };
        s.record_latency(2_000_000);
        let text = s.snapshot(1, 42).render();
        for key in [
            "queue_depth: 1",
            "queued_work: 42",
            "admitted: 3",
            "packed_bfs_queries: 7",
            "packed_overlay_runs: 6",
            "packed_pull_steps: 5",
            "packed_push_steps: 4",
            "update_apply_ns: 9000",
            "merge_ns: 8000",
            "p50_latency_us: 2000",
            "p99_latency_us: 2000",
        ] {
            assert!(text.contains(key), "missing {key:?} in:\n{text}");
        }
    }
}
