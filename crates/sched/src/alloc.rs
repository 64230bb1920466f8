//! Process-wide allocator policy for build-sized buffers.
//!
//! Loading and preparing a graph allocates and frees a handful of
//! edge-scale buffers (file bytes, edge list, CSR/CSC, Vector-Sparse) next
//! to many small ones. glibc's malloc adapts to that badly: the first
//! large block it frees raises its `mmap` threshold to that block's size
//! (up to 32 MiB), after which every later buffer lives in the `brk` heap,
//! where small live blocks (tcache entries, thread handles) split the free
//! space. Whether the next edge-scale request fits a hole or extends the
//! heap by its own size then depends on the exact layout, down to the
//! length of a path string, so repeated cold set-ups of one graph ended at
//! 114, 127, 140 or 154 MiB resident for ≈55 MiB of live structures.
//!
//! [`pin_large_block_policy`] fixes the two thresholds instead: blocks of
//! 4 MiB or more are always their own mapping, returned to the OS when
//! dropped, and the heap that holds everything smaller (per-run vertex
//! arrays included, so solves stay on warm memory) is not trimmed below
//! 64 MiB of slack. Resident memory then follows live memory, run after
//! run. The price is first-touch page faults on every large block, ≈10% of
//! a cold set-up on the benchmark host (DESIGN.md §19). [`WorkerFilled`]
//! lets a parallel builder take those faults on its workers, once.
//!
//! The pin also caps glibc at one malloc arena. By default each thread
//! that allocates under contention may get an arena of its own, which then
//! keeps the pages of the mid-sized blocks that thread freed (a parse
//! worker's growing edge vector, a fresh executor's replies), and which
//! threads got one varies run to run. glibc reads the cap when it first
//! creates an arena, so the pool pins before it spawns its workers.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::ffi::c_int;

    /// Blocks at least this large get their own mapping. Above any per-run
    /// vertex array of the graphs this repo runs at smoke or benchmark
    /// scale (1.2 MiB), below their edge-scale buffers.
    const LARGE_BLOCK_BYTES: c_int = 4 << 20;

    /// Free space the top of the heap may hold before it is given back.
    /// glibc's static default (128 KiB) would hand a vertex-sized array
    /// back on every free and fault it in again on the next run.
    const HEAP_TRIM_BYTES: c_int = 16 * LARGE_BLOCK_BYTES;

    /// Arenas every thread shares: one, the main one.
    const ARENAS: c_int = 1;

    // <malloc.h>
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    pub fn pin() {
        // SAFETY: `mallopt` takes two plain integers, locks the allocator
        // itself and only changes how *future* requests are served; every
        // value is in range for the parameter it sets. A refused call
        // (return 0) leaves glibc's adaptive defaults in place: memory
        // behaves as it did before this module existed, nothing breaks.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, LARGE_BLOCK_BYTES);
            mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_BYTES);
            mallopt(M_ARENA_MAX, ARENAS);
        }
    }
}

/// Pins the policy above, once per process; later calls return at once.
/// Called by [`ThreadPool::new`](crate::ThreadPool::new) before it spawns a
/// worker, by the path loaders of `grazelle_graph::io` and by
/// `grazelle_core::prepare_profiled*`, so any program that builds a graph
/// gets it before its first edge-scale buffer. A no-op where the system
/// allocator is not glibc's.
pub fn pin_large_block_policy() {
    static PINNED: Once = Once::new();
    PINNED.call_once(|| {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        glibc::pin();
    });
}

/// A vector the pool's workers write in place, each its own consecutive
/// range, front to back. The calling thread never touches the elements, so
/// a block big enough to be its own mapping is faulted in by the workers
/// that fill it, in parallel — not once by the caller's fill and again by
/// the workers' overwrite.
///
/// [`writers`](Self::writers) splits the length once;
/// [`into_vec`](Self::into_vec) returns the vector only if every writer
/// filled its whole range, and panics otherwise (what was written leaks,
/// nothing uninitialised is ever read).
pub struct WorkerFilled<T> {
    /// Empty, with capacity for every element until `into_vec`.
    vec: Vec<T>,
    len: usize,
    /// Elements in writers that filled their whole range.
    filled: AtomicUsize,
    split: bool,
}

/// One worker's range of a [`WorkerFilled`]; dropping it full counts it.
pub struct RangeWriter<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    len: usize,
    filled: &'a AtomicUsize,
}

impl<T> WorkerFilled<T> {
    /// Room for `len` elements, none written.
    pub fn new(len: usize) -> Self {
        WorkerFilled {
            vec: Vec::with_capacity(len),
            len,
            filled: AtomicUsize::new(0),
            split: false,
        }
    }

    /// Writers for consecutive ranges of the given lengths, which must sum
    /// to the length. Callable once.
    pub fn writers(&mut self, lens: impl IntoIterator<Item = usize>) -> Vec<RangeWriter<'_, T>> {
        assert!(!self.split, "a WorkerFilled splits once");
        self.split = true;
        let mut rest = &mut self.vec.spare_capacity_mut()[..self.len];
        let writers = lens
            .into_iter()
            .map(|len| {
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                RangeWriter {
                    slots,
                    len: 0,
                    filled: &self.filled,
                }
            })
            .collect();
        assert!(rest.is_empty(), "writer ranges must cover the vector");
        writers
    }

    /// The vector, every element written.
    pub fn into_vec(self) -> Vec<T> {
        let WorkerFilled {
            mut vec,
            len,
            filled,
            ..
        } = self;
        assert_eq!(filled.into_inner(), len, "a writer left its range short");
        // SAFETY: `len <= capacity`, and `writers` ran once and tiled
        // `0..len` with disjoint ranges; a writer adds its range length to
        // `filled` only when it drops having written every slot of the
        // range, at most once. So `filled == len` means every element is
        // initialised, and owning `vec` here means no writer is alive.
        unsafe { vec.set_len(len) };
        vec
    }
}

impl<T> RangeWriter<'_, T> {
    /// Writes the next element of the range; panics past its end.
    pub fn push(&mut self, value: T) {
        self.slots[self.len].write(value);
        self.len += 1;
    }
}

impl<T> Drop for RangeWriter<'_, T> {
    fn drop(&mut self) {
        if self.len == self.slots.len() {
            // ATOMIC: relaxed-reduce — full ranges summed across workers;
            // read once by `into_vec` after the pool's join
            self.filled.fetch_add(self.len, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod filled_tests {
    use super::*;
    use crate::ThreadPool;

    #[test]
    fn workers_fill_their_ranges_in_place() {
        for threads in [1, 2, 3] {
            let pool = ThreadPool::single_group(threads);
            let lens: Vec<usize> = (0..threads).map(|t| 5 * t + 1).collect();
            let total = lens.iter().sum();
            let mut out = WorkerFilled::new(total);
            let starts: Vec<usize> = lens
                .iter()
                .scan(0, |at, len| Some(std::mem::replace(at, *at + len)))
                .collect();
            let tasks: Vec<_> = out.writers(lens.clone()).into_iter().zip(starts).collect();
            pool.run_tasks(tasks, |_, (mut w, start)| {
                for i in 0..w.slots.len() {
                    w.push(start + i);
                }
            });
            assert_eq!(out.into_vec(), (0..total).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "left its range short")]
    fn a_short_range_is_refused() {
        let mut out = WorkerFilled::new(4);
        for (i, mut w) in out.writers([2, 2]).into_iter().enumerate() {
            w.push(i);
        }
        let _ = out.into_vec();
    }

    #[test]
    #[should_panic(expected = "splits once")]
    fn a_second_split_is_refused() {
        let mut out = WorkerFilled::<u8>::new(2);
        drop(out.writers([2]));
        drop(out.writers([2]));
    }
}

#[cfg(all(test, target_os = "linux", target_env = "gnu"))]
mod tests {
    use super::*;

    fn resident_mib() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
        let line = status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))
            .expect("VmRSS line");
        let kib: usize = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("VmRSS value");
        kib / 1024
    }

    /// Under glibc's adaptive default the first freed 16 MiB block raises
    /// the mmap threshold to 16 MiB, the second one is carved from the
    /// heap and stays resident after its drop. Pinned, both go back.
    #[test]
    fn a_dropped_large_block_leaves_the_resident_set() {
        const BLOCK: usize = 16 << 20;
        pin_large_block_policy();
        pin_large_block_policy();
        drop(std::hint::black_box(vec![1u8; BLOCK]));
        let block = std::hint::black_box(vec![1u8; BLOCK]);
        let live = resident_mib();
        drop(block);
        let after = resident_mib();
        assert!(
            after + BLOCK / (2 << 20) < live,
            "resident {live} MiB with the block, {after} MiB after dropping it"
        );
    }
}
