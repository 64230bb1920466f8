//! [`OnDemand`]: a structure built by the code that reads it, under the
//! set-up's cutover rule (DESIGN.md §12, "On-demand structures").

use crate::pool::ThreadPool;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Edge count below which a build runs on the calling thread even on a
/// multi-thread pool: below it the builders' fixed costs (per-worker
/// histograms, the broadcast handshakes) outweigh the split (~0.86× of one
/// thread at 2 threads on small inputs); well above it the pool wins.
pub const PAR_BUILD_CUTOVER_EDGES: u64 = 64 * 1024;

/// The one cutover rule of set-up: `pool` for a build over `cutover_edges`
/// edges or more, else none (one share on the calling thread). Builders
/// return the same structures either way.
pub fn build_pool(pool: &ThreadPool, edges: usize, cutover_edges: u64) -> Option<&ThreadPool> {
    (edges as u64 >= cutover_edges).then_some(pool)
}

/// A structure `T` built from `source` by its first reader, once for
/// every clone: [`OnDemand::get`] never builds, [`OnDemand::ready`] builds
/// if no earlier reader did. Builders give the same bits at any width, so
/// every reader sees the same structure, whoever came first. `ready` must
/// not be called from a worker of the pool it is given while the cell may
/// be empty (the worker would wait for itself): a reader that dispatches
/// readies the cell first and hands its workers the structure.
#[derive(Debug, Clone)]
pub struct OnDemand<S, T> {
    cell: Arc<Cell<S, T>>,
}

#[derive(Debug)]
struct Cell<S, T> {
    source: S,
    /// Edges the build reads, for the cutover.
    edges: usize,
    /// The structure and its build's wall time in ns.
    built: OnceLock<(T, u64)>,
}

impl<S, T> OnDemand<S, T> {
    /// An empty cell over `source`, whose build reads `edges` edges.
    pub fn new(source: S, edges: usize) -> Self {
        let built = OnceLock::new();
        let cell = Arc::new(Cell {
            source,
            edges,
            built,
        });
        OnDemand { cell }
    }

    /// A cell over `source` that already holds `value`.
    pub fn built(source: S, value: T) -> Self {
        let cell = Self::new(source, 0);
        cell.cell.built.get_or_init(|| (value, 0));
        cell
    }

    /// What the structure is built from.
    pub fn source(&self) -> &S {
        &self.cell.source
    }

    /// The structure, if built. Never builds.
    pub fn get(&self) -> Option<&T> {
        self.cell.built.get().map(|(value, _)| value)
    }

    /// Wall time, in ns, of the build this cell ran (at least 1); 0
    /// before it, and for a cell made holding its structure.
    pub fn build_ns(&self) -> u64 {
        self.cell.built.get().map_or(0, |&(_, ns)| ns)
    }

    /// The structure, built first by `build(source, pool)` if no earlier
    /// reader built it, with `pool` the reader's from
    /// [`PAR_BUILD_CUTOVER_EDGES`] edges up ([`build_pool`]), else `None`.
    /// Out of line: readers call [`OnDemand::get`] on their hot path.
    #[cold]
    #[inline(never)]
    pub fn ready(
        &self,
        pool: Option<&ThreadPool>,
        build: impl FnOnce(&S, Option<&ThreadPool>) -> T,
    ) -> &T {
        let cell = &*self.cell;
        let pool = pool.and_then(|p| build_pool(p, cell.edges, PAR_BUILD_CUTOVER_EDGES));
        let (value, _) = cell.built.get_or_init(|| {
            let t = Instant::now();
            let value = build(&cell.source, pool);
            (value, (t.elapsed().as_nanos() as u64).max(1))
        });
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Eight threads racing the first read — half through `ready` on a
    /// pool none of them works for, half on their own thread — run the
    /// build once: every thread sees the same structure, and so does a
    /// clone made before the race.
    #[test]
    fn racing_first_readers_build_once() {
        let pool = ThreadPool::single_group(2);
        for edges in [0, PAR_BUILD_CUTOVER_EDGES as usize] {
            let builds = AtomicUsize::new(0);
            let cell = OnDemand::new(vec![7u64; 3000], edges);
            let twin = cell.clone();
            assert!(twin.get().is_none() && twin.build_ns() == 0);
            let start = Barrier::new(8);
            let seen: Vec<usize> = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..8)
                    .map(|i| {
                        let (cell, start, pool, builds) = (cell.clone(), &start, &pool, &builds);
                        scope.spawn(move || {
                            start.wait();
                            let on = (i % 2 == 1).then_some(pool);
                            let built = cell.ready(on, |source, pool| {
                                builds.fetch_add(1, Ordering::Relaxed);
                                // The cutover: the pool only from its edge count up.
                                assert_eq!(pool.is_some(), on.is_some() && edges > 0);
                                source.iter().map(|x| x * 3).collect::<Vec<u64>>()
                            });
                            built.as_ptr() as usize
                        })
                    })
                    .collect();
                readers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(builds.load(Ordering::Relaxed), 1, "{edges} edges");
            assert!(seen.iter().all(|&p| p == seen[0]), "{seen:?}");
            let built = twin.get().expect("a clone sees the built value");
            assert_eq!(built.as_ptr() as usize, seen[0]);
            assert!(built.iter().all(|&x| x == 21));
            assert!(twin.build_ns() > 0);
        }
        let held = OnDemand::<(), u8>::built((), 5);
        assert_eq!((held.get(), held.build_ns()), (Some(&5), 0));
    }
}
