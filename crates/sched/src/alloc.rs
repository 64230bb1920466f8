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
//! run. The price is first-touch page faults on every large block (DESIGN.md
//! §19). [`WorkerFilled`] lets a parallel builder take those faults on its
//! workers, once, and it, [`zeroed`] and [`reserved`] advise a fresh large
//! block onto transparent huge pages, so a fault maps 2 MiB instead of
//! 4 KiB.
//!
//! The pin also caps glibc at one malloc arena. By default each thread
//! that allocates under contention may get an arena of its own, which then
//! keeps the pages of the mid-sized blocks that thread freed (a parse
//! worker's growing edge vector, a fresh executor's replies), and which
//! threads got one varies run to run. glibc reads the cap when it first
//! creates an arena, so the pool pins before it spawns its workers.

use std::alloc::Layout;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Blocks at least this large get their own mapping. Above any per-run
/// vertex array of the graphs this repo runs at smoke or benchmark scale
/// (1.2 MiB), below their edge-scale buffers.
const LARGE_BLOCK_BYTES: usize = 4 << 20;

/// The page size transparent huge pages come in on x86-64 and arm64.
const HUGE_PAGE_BYTES: usize = 2 << 20;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::ffi::{c_int, c_void};
    use std::ops::Range;

    /// Free space the top of the heap may hold before it is given back.
    /// glibc's static default (128 KiB) would hand a vertex-sized array
    /// back on every free and fault it in again on the next run.
    const HEAP_TRIM_BYTES: c_int = 16 * super::LARGE_BLOCK_BYTES as c_int;

    /// Arenas every thread shares: one, the main one.
    const ARENAS: c_int = 1;

    // <malloc.h>
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;

    // <sys/mman.h>
    #[cfg(not(miri))]
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
        #[cfg(not(miri))]
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub fn pin() {
        // SAFETY: `mallopt` takes two plain integers, locks the allocator
        // itself and only changes how *future* requests are served; every
        // value is in range for the parameter it sets. A refused call
        // (return 0) leaves glibc's adaptive defaults in place: memory
        // behaves as it did before this module existed, nothing breaks.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, super::LARGE_BLOCK_BYTES as c_int);
            mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_BYTES);
            mallopt(M_ARENA_MAX, ARENAS);
        }
    }

    /// Asks the kernel to back `pages` with huge pages when they fault in.
    pub fn advise_huge(pages: Range<usize>) {
        #[cfg(not(miri))]
        // SAFETY: `pages` is whole huge pages inside one live allocation
        // of the caller's, so the range is mapped and page-aligned.
        // `MADV_HUGEPAGE` changes no contents and no protection, only the
        // page size later faults may use. A refusal (`EINVAL` on a kernel
        // without transparent huge pages) leaves 4 KiB faults: ignored.
        unsafe {
            madvise(pages.start as *mut c_void, pages.len(), MADV_HUGEPAGE);
        }
        #[cfg(miri)]
        let _ = pages;
    }
}

/// The whole huge pages inside a block of `bytes` at `addr`, or `None` for
/// a block under the large-block line: such a block shares heap pages with
/// small ones, and one that large is its own mapping once the policy is
/// pinned.
fn huge_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
    if bytes < LARGE_BLOCK_BYTES {
        return None;
    }
    let start = addr.next_multiple_of(HUGE_PAGE_BYTES);
    let end = (addr + bytes) / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    (start < end).then_some(start..end)
}

/// Advises the huge pages inside a fresh block onto transparent huge
/// pages, before its first write: one fault then maps 2 MiB instead of
/// 4 KiB (≈2 µs per 4 KiB fault on the benchmark host). Where the kernel
/// runs THP as `never`, or the system is not Linux with glibc, it does
/// nothing.
fn advise_fresh<T>(block: *const T, len: usize) {
    if let Some(pages) = huge_interior(block as usize, len * std::mem::size_of::<T>()) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        glibc::advise_huge(pages);
        #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
        let _ = pages;
    }
}

/// `len` default elements of a type whose default is all-zero bits (the
/// integers and floats), fresh from the allocator: a block at or above the
/// large-block line is a new mapping nobody has written, and it is advised
/// onto huge pages before the caller's first write faults it in.
pub fn zeroed<T: Clone + Default>(len: usize) -> Vec<T> {
    let block = vec![T::default(); len];
    advise_fresh(block.as_ptr(), len);
    block
}

/// An empty vector with room for `cap` elements, in a fresh block: one at
/// or above the large-block line is advised onto huge pages before
/// anything is written. For a vector whose final length is known roughly
/// and fixed up front; pushed past `cap`, it grows as any vector does, into
/// a block nobody advised.
pub fn reserved<T>(cap: usize) -> Vec<T> {
    let block = Vec::with_capacity(cap);
    advise_fresh(block.as_ptr(), cap);
    block
}

/// A type whose all-zero bit pattern is a valid value, so a
/// [`ZeroedBlock`] of it may be read before anything is written.
///
/// # Safety
/// Every all-zero byte string of `size_of::<Self>()` bytes must be a valid
/// value of the type: no references, no niches (`NonZero*`, `bool` is
/// fine, enums only with a zero discriminant), no padding bytes.
// SAFETY: an obligation on implementors, stated above; each `unsafe impl`
// says why its type meets it.
pub unsafe trait Zeroable: Copy {}

/// The alignment `calloc` guarantees on x86-64 and arm64 glibc; the std
/// allocator zeroes blocks at most this aligned through it.
const CALLOC_ALIGN: usize = 16;

/// `len` all-zero elements in a fresh block, for a type aligned more
/// strictly than the allocator zeroes for free. What [`zeroed`] is for the
/// integers and floats: the allocator hands the block over zeroed, which at
/// or above the large-block line is a new mapping nobody has written, and
/// it is advised onto huge pages, so every page is faulted in by the
/// caller's first store to it — a parallel builder's worker's — and
/// written once. A `Vec` cannot hold such a block: the std allocator
/// zeroes a block aligned above 16 bytes (`calloc`'s) with a `memset` on the
/// calling thread, so the block is allocated at that alignment with the
/// slack to align its first element inside it.
pub struct ZeroedBlock<T: Zeroable> {
    /// The allocation: `layout.size()` bytes at `base`; nothing when the
    /// size is 0.
    base: NonNull<u8>,
    layout: Layout,
    /// The first element, `base` rounded up to `T`'s alignment.
    start: NonNull<T>,
    len: usize,
}

impl<T: Zeroable> ZeroedBlock<T> {
    /// `len` zeroed elements; see the type.
    pub fn new(len: usize) -> Self {
        let align = std::mem::align_of::<T>();
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("invariant: a block's byte size fits usize");
        if bytes == 0 {
            return ZeroedBlock {
                base: NonNull::dangling(),
                layout: Layout::new::<()>(),
                start: NonNull::dangling(),
                len,
            };
        }
        // Allocated at most `CALLOC_ALIGN`-aligned, so its first element
        // lies within `align - CALLOC_ALIGN` bytes of slack.
        let base_align = align.min(CALLOC_ALIGN);
        let layout = Layout::from_size_align(bytes + (align - base_align), base_align)
            .expect("invariant: a block's layout fits isize");
        // SAFETY: `layout` has a non-zero size (`bytes > 0`).
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        // By address: `align_offset` may decline to compute an offset.
        let addr = base.as_ptr().addr();
        let offset = addr.next_multiple_of(align) - addr;
        // SAFETY: `base` is `base_align`-aligned, so the offset to the
        // next `align` boundary is at most `align - base_align`, the slack
        // the layout added past `bytes`; the result is in the block.
        let start = unsafe { base.add(offset) }.cast::<T>();
        advise_fresh(start.as_ptr(), len);
        ZeroedBlock {
            base,
            layout,
            start,
            len,
        }
    }
}

impl<T: Zeroable> std::ops::Deref for ZeroedBlock<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `start` is aligned for `T` (dangling when `len` or the
        // size is 0) and `len` elements past it lie in the block, zeroed
        // at allocation — a valid `T` each, as `T: Zeroable` promises —
        // or written since through `deref_mut`.
        unsafe { std::slice::from_raw_parts(self.start.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> std::ops::DerefMut for ZeroedBlock<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.start.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Drop for ZeroedBlock<T> {
    fn drop(&mut self) {
        if self.layout.size() > 0 {
            // SAFETY: `base` was allocated with `layout` and is freed once;
            // `T: Copy` has no destructor to run first.
            unsafe { std::alloc::dealloc(self.base.as_ptr(), self.layout) };
        }
    }
}

impl<T: Zeroable + std::fmt::Debug> std::fmt::Debug for ZeroedBlock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// SAFETY: a `ZeroedBlock` owns its elements as a `Vec` does; sending it
// sends them.
unsafe impl<T: Zeroable + Send> Send for ZeroedBlock<T> {}
// SAFETY: `&ZeroedBlock` hands out only `&[T]`.
unsafe impl<T: Zeroable + Sync> Sync for ZeroedBlock<T> {}

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
/// the workers' overwrite — and onto huge pages (see [`zeroed`]).
///
/// [`writers`](Self::writers) splits the unwritten length once;
/// [`into_vec`](Self::into_vec) returns the vector only if every writer
/// filled its whole range, and panics otherwise (what was written leaks,
/// nothing uninitialised is ever read).
pub struct WorkerFilled<T> {
    /// The elements kept from [`extending`](Self::extending), with
    /// capacity for every element until `into_vec`.
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
    /// Room for `len` elements, none written, in a fresh block: one at or
    /// above the large-block line is advised onto huge pages.
    pub fn new(len: usize) -> Self {
        Self::extending(reserved(len), len)
    }

    /// `vec` grown to `len` elements: its own stay where they are, and the
    /// writers fill `vec.len()..len`, in capacity nobody has written.
    ///
    /// Not advised here: `vec` may be grown again, and glibc grows a large
    /// block in place (`mremap`) only while it is still one mapping, which
    /// advice on part of it would split. A `vec` with room for `len`
    /// already (a [`reserved`] one) keeps its block and its advice.
    pub fn extending(mut vec: Vec<T>, len: usize) -> Self {
        let kept = vec.len();
        assert!(kept <= len, "a WorkerFilled does not shrink its vector");
        vec.reserve_exact(len - kept);
        WorkerFilled {
            vec,
            len,
            filled: AtomicUsize::new(0),
            split: false,
        }
    }

    /// Writers for consecutive ranges of the given lengths, which must sum
    /// to the unwritten length. Callable once.
    pub fn writers(&mut self, lens: impl IntoIterator<Item = usize>) -> Vec<RangeWriter<'_, T>> {
        assert!(!self.split, "a WorkerFilled splits once");
        self.split = true;
        let unwritten = self.len - self.vec.len();
        let mut rest = &mut self.vec.spare_capacity_mut()[..unwritten];
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
        assert_eq!(
            filled.into_inner(),
            len - vec.len(),
            "a writer left its range short"
        );
        // SAFETY: `len <= capacity`, the elements below `vec.len()` were
        // initialised already, and `writers` ran once and tiled
        // `vec.len()..len` with disjoint ranges; a writer adds its range
        // length to `filled` only when it drops having written every slot
        // of the range, at most once. So `filled == len - vec.len()` means
        // every element is initialised, and owning `vec` here means no
        // writer is alive.
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

    /// Writes the next `values.len()` elements of the range, as one loop
    /// the compiler can turn into a copy; panics if they do not fit.
    pub fn extend<I: IntoIterator<Item = T, IntoIter: ExactSizeIterator>>(&mut self, values: I) {
        let values = values.into_iter();
        let free = &mut self.slots[self.len..];
        assert!(values.len() <= free.len(), "values past the range's end");
        // Counted, not taken from `len()`: only what was written counts.
        let mut written = 0;
        for (slot, value) in free.iter_mut().zip(values) {
            slot.write(value);
            written += 1;
        }
        self.len += written;
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
    fn extending_keeps_the_vector_and_fills_its_tail() {
        for threads in [1, 2, 3] {
            let pool = ThreadPool::single_group(threads);
            let mut kept = Vec::with_capacity(3);
            kept.extend([7u32, 8, 9]);
            let mut out = WorkerFilled::extending(kept, 3 + 4 * threads);
            let writers = out.writers(vec![4; threads]);
            pool.run_tasks(writers, |ctx, mut w| {
                let first = 10 * ctx.global_id as u32;
                w.push(first);
                w.extend(first + 1..first + 4);
            });
            let want: Vec<u32> = [7, 8, 9]
                .into_iter()
                .chain((0..threads as u32).flat_map(|t| 10 * t..10 * t + 4))
                .collect();
            assert_eq!(out.into_vec(), want, "{threads} threads");
        }
        let mut same = WorkerFilled::extending(vec![1u8, 2], 2);
        drop(same.writers([]));
        assert_eq!(same.into_vec(), [1, 2]);
    }

    #[test]
    #[should_panic(expected = "past the range's end")]
    fn an_extend_past_the_range_is_refused() {
        let mut out = WorkerFilled::new(3);
        out.writers([3])[0].extend([1u8, 2, 3, 4]);
    }

    /// Only whole huge pages of a block at or above the 4 MiB line are
    /// advised; a smaller block shares its pages with the heap.
    #[test]
    fn only_large_blocks_have_a_huge_interior() {
        const MIB: usize = 1 << 20;
        let base = 64 * HUGE_PAGE_BYTES;
        assert_eq!(huge_interior(base + 16, LARGE_BLOCK_BYTES - 1), None);
        assert_eq!(huge_interior(base, 3 * MIB), None);
        assert_eq!(huge_interior(base, 4 * MIB), Some(base..base + 4 * MIB));
        assert_eq!(
            huge_interior(base + 16, 8 * MIB),
            Some(base + 2 * MIB..base + 8 * MIB)
        );
        assert_eq!(
            huge_interior(base - 16, 5 * MIB),
            Some(base..base + 4 * MIB)
        );
    }

    /// Eight `u32`s aligned as one 256-bit vector, as an edge vector is.
    #[derive(Debug, Clone, Copy, PartialEq)]
    #[repr(align(32))]
    pub(super) struct Wide([u32; 8]);

    // SAFETY: eight `u32`s, no padding; all-zero is a valid value.
    unsafe impl Zeroable for Wide {}

    /// A zeroed block of a 32-aligned type reads zero, starts aligned at
    /// every length (the allocator hands out 16-aligned blocks), takes
    /// writes, and holds nothing at length 0.
    #[test]
    fn zeroed_blocks_are_aligned_zero_and_writable() {
        for len in [0, 1, 3, 1000, 200_000] {
            let mut block = ZeroedBlock::<Wide>::new(len);
            assert_eq!(block.len(), len);
            assert_eq!(block.as_ptr() as usize % 32, 0, "len {len}");
            assert!(block.iter().all(|w| *w == Wide([0; 8])), "len {len}");
            if let Some(last) = block.last_mut() {
                last.0[7] = 7;
            }
            let sevens: u32 = block.iter().map(|w| w.0[7]).sum();
            assert_eq!(sevens, u32::from(len > 0) * 7);
        }
    }

    #[test]
    #[should_panic(expected = "splits once")]
    fn a_second_split_is_refused() {
        let mut out = WorkerFilled::<u8>::new(2);
        drop(out.writers([2]));
        drop(out.writers([2]));
    }
}

#[cfg(all(test, target_os = "linux", target_env = "gnu", not(miri)))]
mod tests {
    use super::*;
    use crate::ThreadPool;

    fn resident_kib() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
        let line = status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))
            .expect("VmRSS line");
        line.split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("VmRSS value")
    }

    /// Whether the mapping holding `addr` carries the huge-page advice.
    fn advised(addr: usize) -> bool {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs is mounted");
        let mut inside = false;
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
                return flags.split_whitespace().any(|f| f == "hg");
            }
        }
        unreachable!("no mapping holds {addr:#x}");
    }

    /// Under glibc's adaptive default the first freed 16 MiB block raises
    /// the mmap threshold to 16 MiB, the second one is carved from the
    /// heap and stays resident after its drop. Pinned, both go back; so
    /// does a block the workers filled.
    #[test]
    fn a_dropped_large_block_leaves_the_resident_set() {
        const BLOCK: usize = 16 << 20;
        pin_large_block_policy();
        pin_large_block_policy();
        drop(std::hint::black_box(vec![1u8; BLOCK]));
        let block = std::hint::black_box(vec![1u8; BLOCK]);
        let live = resident_kib();
        drop(block);
        let after = resident_kib();
        assert!(
            after + BLOCK / 2048 < live,
            "resident {live} KiB with the block, {after} KiB after dropping it"
        );

        // An 8 MiB block two workers fill: resident by its size (±2 MiB,
        // a huge page either side) while it lives, gone after its drop.
        const FILLED: usize = 8 << 20;
        const SLACK_KIB: usize = 2 << 10;
        let pool = ThreadPool::single_group(2);
        let before = resident_kib();
        let mut out = WorkerFilled::<u8>::new(FILLED);
        pool.run_tasks(out.writers([FILLED / 2; 2]), |_, mut w| {
            w.extend(std::iter::repeat_n(1u8, FILLED / 2));
        });
        let block = std::hint::black_box(out.into_vec());
        let live = resident_kib();
        assert!(
            live.abs_diff(before + FILLED / 1024) <= SLACK_KIB,
            "resident {before} KiB before the block, {live} KiB with it"
        );
        drop(block);
        let after = resident_kib();
        assert!(
            after.abs_diff(before) <= SLACK_KIB,
            "resident {before} KiB before the block, {after} KiB after dropping it"
        );
    }

    /// A block at or above the line carries the huge-page advice on its
    /// interior before anything writes it; a smaller one never does.
    #[test]
    fn large_blocks_are_advised_and_small_ones_are_not() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            return; // a kernel without THP refuses the advice
        }
        pin_large_block_policy();
        let mut large = WorkerFilled::<u8>::new(8 << 20);
        let interior = large.vec.as_ptr() as usize + (4 << 20);
        assert!(advised(interior));
        drop(large.writers([8 << 20]));
        let zeroed_large = zeroed::<u64>(1 << 20);
        let interior = zeroed_large.as_ptr() as usize + (4 << 20);
        assert!(advised(interior));
        let small = zeroed::<u64>(3 << 17);
        let inside = small.as_ptr() as usize + (1 << 20);
        assert!(!advised(inside));
        let reserved_large = reserved::<u64>(1 << 20);
        let interior = reserved_large.as_ptr() as usize + (4 << 20);
        assert!(advised(interior));
        let reserved_small = reserved::<u64>(3 << 17);
        let inside = reserved_small.as_ptr() as usize + (1 << 20);
        assert!(!advised(inside));
        let block_large = ZeroedBlock::<super::filled_tests::Wide>::new(1 << 18);
        let interior = block_large.as_ptr() as usize + (4 << 20);
        assert!(advised(interior));
    }
}
