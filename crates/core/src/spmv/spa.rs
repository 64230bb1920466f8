//! True SpMSpV push: the SPA-bucketed atomic-free scatter (DESIGN.md §17).
//!
//! The engine's only Edge-Push. Listing 1's push resolves every edge with a
//! synchronized read-modify-write to an arbitrary destination — exactly the
//! regime (sparse frontiers, hub destinations) where atomic contention and
//! cache-line ping-pong dominate. This module is the sparse-accumulator
//! (SPA) formulation of the phase: a true SpMSpV in the GraphBLAS sense
//! (Yang et al., "Implementing Push-Pull Efficiently in GraphBLAS").
//!
//! Two passes, no atomics on the hot path:
//!
//! 1. **Scatter.** Each thread walks a *statically partitioned* contiguous
//!    slice of the frontier item space and appends each edge's
//!    `(dst, message)` pair into a thread-local bucket radix-partitioned by
//!    destination chunk (`dst / SPA_CHUNK_VERTICES`). Buckets are plain
//!    `Vec`s — no synchronization, no shared writes.
//! 2. **Merge.** Destination chunks are claimed from a shared scheduler;
//!    the claiming worker folds every thread's bucket for that chunk into
//!    the kernel accumulators *in fixed thread order* with plain (relaxed,
//!    non-RMW) stores. Chunks are disjoint by construction, so each
//!    accumulator cell has exactly one writer — the §3 exactly-once-write
//!    discipline, transplanted to the push direction.
//!
//! # Determinism argument
//!
//! The output is **bit-identical** at every thread count, for every
//! `EdgeKernel`, to one scan that folds each message in increasing source
//! order on one thread — which is what the inline path (`fold_inline`)
//! does:
//!
//! * The scatter partition is a function of `(items, num_threads)` only —
//!   thread `t` owns `t·items/T .. (t+1)·items/T` — and each thread scans
//!   its slice in increasing item order, so bucket entries are appended in
//!   increasing global source order within each thread, and thread `t`'s
//!   sources all precede thread `t+1`'s.
//! * The merge folds `rows[0][c], rows[1][c], …, rows[T−1][c]` in that
//!   fixed order, so the per-destination combine order is the single
//!   globally increasing source order — independent of `T`, of which
//!   worker claims which chunk, and of claim timing.
//! * The merge's `fold_into` replicates
//!   [`scatter_combine`](crate::spmv::scatter_combine)'s value semantics
//!   exactly (including `fetch_min_f64`/`fetch_max_f64`'s NaN behaviour),
//!   so a fold sequence produces the same bits as the same combine
//!   sequence through Listing 1's synchronized update.
//!
//! Destination chunking is a fixed geometry (`SPA_CHUNK_VERTICES`), never
//! a function of thread count, so the fold boundaries cannot drift with
//! parallelism either. Note the static source partition deliberately
//! ignores NUMA groups: determinism needs a total source order that does
//! not move with group geometry, and the merge is destination-partitioned
//! anyway, so group-local scatter would buy nothing.
//!
//! # Scratch reuse and the sequential fast path
//!
//! Like the pull side's merge buffer (§3 "Discussion": "the buffer is
//! preallocated once and reused across iterations"), the buckets live in a
//! caller-owned [`SpaScratch`] so their capacity warms up across
//! supersteps instead of being reallocated per phase. And because the
//! deterministic fold order is defined independently of the worker count,
//! a near-empty frontier (a road-graph BFS tail) can legally run the whole
//! phase inline on the calling thread, skipping the two pool phases
//! entirely. With one partition scanned in increasing order there is
//! nothing to merge: each message is folded as it is produced, which is
//! the fold order above, and only destination ids are kept as the touched
//! list. Both are pure cost optimizations: neither changes a single output
//! bit, and the inline cutoff is a function of the frontier alone, never
//! of thread count.

use crate::frontier::{BucketQueue, DenseBitmap, Frontier};
use crate::program::{AggOp, GraphProgram};
use crate::properties::PropertyArray;
use crate::spmv::EdgeKernel;
use crate::stats::Profiler;
use crate::trace::SpanClock;
use grazelle_sched::chunks::ChunkScheduler;
use grazelle_sched::pool::{ThreadPool, WorkerCtx};
use grazelle_vsparse::build::VectorSparse;
use std::sync::atomic::Ordering;

/// Destination-chunk width of the SPA radix partition. Fixed — never a
/// function of thread count — so the merge fold boundaries are part of the
/// deterministic output contract. 2048 vertices × 8 B accumulator = one
/// 16 KiB half-L1 tile per fold.
pub const SPA_CHUNK_VERTICES: usize = 2048;

/// Number of destination chunks for an `n`-vertex graph (≥ 1).
pub fn num_chunks(num_vertices: usize) -> usize {
    num_vertices.div_ceil(SPA_CHUNK_VERTICES).max(1)
}

/// Frontiers of at most this many active-source edge vectors run inline on
/// the calling thread at every pool width: the fold order is identical
/// either way (module doc), so this is cost only. The inline scan with its
/// direct fold costs ≈16–17 ns per message for SSSP and ≈40–45 ns for BFS,
/// whose scan also walks edges into converged destinations — ≈40–55 ns per
/// source on the road mesh, where a source owns one vector (traced 2-thread
/// supersteps on the 2-vCPU benchmark host, EXPERIMENTS.md; ≈30 and ≈65 ns
/// per message with the separate bucket fold and no prefetch). The pool
/// path pays two empty-phase round trips of ≈13–16 µs each when the
/// helpers ran a phase moments ago, as they have under the dense Vertex
/// phase (the caller runs share 0, so a phase wakes `T − 1` helpers;
/// medians of `cargo run --release -p grazelle-sched --example dispatch`,
/// 2 threads, same host; the broadcast pool that woke all `T` workers
/// read ≈35 µs when this cutoff was set). An unboundedly wide pool
/// therefore repays its wake-ups past `30 µs / 50–100 ns ≈ 300–600`
/// vectors; 512 stays the floor, unchanged since it was fitted to the
/// older figure, and `inline_vector_cutoff` scales it by `T/(T − 1)`,
/// the share of the inline time T threads actually save.
pub const SPA_SEQ_VECTOR_CUTOFF: usize = 512;

/// The same floor when the pool has been left parked — the driver's
/// sparse supersteps (DESIGN.md §18), which run reset-free and
/// Vertex-phase-inline and so never touch it. A round trip to helpers
/// parked for 5 ms costs ≈53–66 µs (the same example), four times the warm
/// figure. The floor was fitted when the broadcast pool woke every worker
/// and a parked broadcast cost ≈180 µs (traced: 2-thread steps of 12 k
/// edges took 550 µs wall for 366 µs of summed thread time), i.e.
/// `360 µs / 60–100 ns ≈ 3.6 k–6 k` vectors; at the new figure the
/// break-even is ≈1.2 k–2 k vectors, and the floor is left for a measured
/// retune.
pub const SPA_PARKED_VECTOR_CUTOFF: usize = 4096;

/// Scales an inline-cutoff floor (the size at which an unboundedly wide
/// pool repays its wake-ups) to a `threads`-wide pool: T threads save only
/// `(1 − 1/T)` of the inline time, so the break-even moves out by
/// `T/(T − 1)` — and to infinity at T = 1, where the pool has no
/// parallelism to sell.
pub(crate) fn scaled_inline_cutoff(floor: usize, threads: usize) -> usize {
    if threads <= 1 {
        usize::MAX
    } else {
        floor.saturating_mul(threads) / (threads - 1)
    }
}

/// The widest frontier (in edge vectors) a `threads`-wide pool leaves
/// inline: at T = 2, 1024 vectors warm and 8192 parked. The parked figure
/// is also the in-place drain's cutoff ([`drain_bucket`]).
pub(crate) fn inline_vector_cutoff(threads: usize, pool_parked: bool) -> usize {
    let floor = if pool_parked {
        SPA_PARKED_VECTOR_CUTOFF
    } else {
        SPA_SEQ_VECTOR_CUTOFF
    };
    scaled_inline_cutoff(floor, threads)
}

/// Thread-local buckets: `buckets[c]` holds one thread's `(dst, message)`
/// pairs for destination chunk `c`, in increasing source order.
type ChunkBuckets = Vec<Vec<(u32, f64)>>;

/// Caller-owned bucket storage for [`edge_push_spa`], reused across
/// supersteps so bucket capacity warms up instead of being reallocated
/// every phase (the push-side twin of the pull merge `SlotBuffer`).
/// Contents are scratch: each phase clears before filling, so a scratch
/// can be shared across kernels and even graphs.
///
/// Between one [`edge_push_spa`] and the next the scratch doubles as that
/// superstep's *touched list* (DESIGN.md §18): every destination the phase
/// folded a message into, grouped by destination chunk, duplicates
/// included. The pool path leaves it in its `(dst, message)` buckets; the
/// inline path folds at scan time and keeps destination ids only.
/// [`touched_in_chunk`](SpaScratch::touched_in_chunk) exposes either to the
/// sparse Vertex phase.
#[derive(Default)]
pub struct SpaScratch {
    rows: Vec<ChunkBuckets>,
    /// The inline path's touched list: destination ids per chunk.
    dsts: Vec<Vec<u32>>,
    /// True when the last phase ran inline, so `dsts` (not `rows`) holds
    /// its touched list.
    inline: bool,
    /// Entries of the last phase's touched list, across all chunks.
    entries: usize,
}

impl SpaScratch {
    /// Creates an empty scratch; buckets are allocated lazily on first use.
    pub fn new() -> Self {
        SpaScratch::default()
    }

    /// Length of the last phase's touched list (its `push_updates`).
    pub fn touched_len(&self) -> usize {
        self.entries
    }

    /// Destination chunks of the last phase's radix partition.
    pub fn touched_chunks(&self) -> usize {
        if self.inline {
            self.dsts.len()
        } else {
            self.rows.first().map_or(0, Vec::len)
        }
    }

    /// Entries of the last phase's touched list that fall in chunk `c`.
    pub fn chunk_len(&self, c: usize) -> usize {
        if self.inline {
            self.dsts[c].len()
        } else {
            self.rows.iter().map(|row| row[c].len()).sum()
        }
    }

    /// The destinations the last phase folded into chunk `c` — all inside
    /// `c·SPA_CHUNK_VERTICES..(c+1)·SPA_CHUNK_VERTICES`, so two chunks
    /// never share a vertex. A destination appears once per message.
    pub fn touched_in_chunk(&self, c: usize) -> impl Iterator<Item = u32> + '_ {
        let (rows, dsts): (&[ChunkBuckets], &[u32]) = if self.inline {
            (&[], &self.dsts[c])
        } else {
            (&self.rows, &[])
        };
        rows.iter()
            .flat_map(move |row| row[c].iter().map(|&(dst, _)| dst))
            .chain(dsts.iter().copied())
    }

    /// Takes the rows out, shaped to exactly `threads` rows of `chunks`
    /// buckets (existing bucket capacity is preserved where shapes match).
    fn take_rows(&mut self, threads: usize, chunks: usize) -> Vec<ChunkBuckets> {
        let mut rows = std::mem::take(&mut self.rows);
        rows.resize_with(threads, Vec::new);
        for row in &mut rows {
            row.resize_with(chunks, Vec::new);
        }
        rows
    }

    /// Returns the rows for reuse by the next superstep; `entries` is how
    /// many messages they hold.
    fn put_back(&mut self, rows: Vec<ChunkBuckets>, entries: usize) {
        self.rows = rows;
        self.inline = false;
        self.entries = entries;
    }

    /// Takes the inline path's destination lists out, one empty list per
    /// chunk.
    fn take_dsts(&mut self, chunks: usize) -> Vec<Vec<u32>> {
        let mut dsts = std::mem::take(&mut self.dsts);
        dsts.resize_with(chunks, Vec::new);
        for list in &mut dsts {
            list.clear();
        }
        dsts
    }

    /// Returns the inline path's touched list of `entries` destinations.
    fn put_back_dsts(&mut self, dsts: Vec<Vec<u32>>, entries: usize) {
        self.dsts = dsts;
        self.inline = true;
        self.entries = entries;
    }
}

/// True when the frontier's active sources cover at most `cutoff` edge
/// vectors. A structure of at most `cutoff` vectors fits whatever the
/// frontier, in O(1): a small overlay on a large graph never walks a bitmap
/// as wide as the graph. Otherwise the check scans with an early exit, so
/// it is O(cutoff) regardless of graph size. Dense frontiers over large
/// graphs bail out before scanning (the bitmap walk itself would cost more
/// than a pool phase); a list short enough that even the widest out-list per
/// source fits is accepted in O(1), leaving its index lines to the scan's
/// prefetch.
pub(crate) fn frontier_fits_inline(
    vss: &VectorSparse,
    frontier: &Frontier,
    n: usize,
    cutoff: usize,
) -> bool {
    if vss.num_vectors() <= cutoff {
        return true;
    }
    let mut vectors = 0usize;
    match frontier {
        Frontier::All { .. } => false,
        Frontier::Sparse { vertices, .. } => {
            // A source with out-edges owns at least one vector, and none owns
            // more than its share of the widest out-list.
            if vertices.len() > 2 * cutoff {
                return false;
            }
            let widest = (vss.max_degree() as usize).div_ceil(4);
            if vertices.len().saturating_mul(widest) <= cutoff {
                return true;
            }
            for &src in vertices.iter() {
                vectors += vss.vector_range(src).len();
                if vectors > cutoff {
                    return false;
                }
            }
            true
        }
        Frontier::Dense(bm) => {
            let words = n.div_ceil(64);
            if words > cutoff {
                return false;
            }
            for item in 0..words {
                // ATOMIC: relaxed-cell — frontier-bitmap snapshot;
                // the frontier is frozen during the Edge phase
                let mut bits = bm.words()[item].load(Ordering::Relaxed);
                while bits != 0 {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    vectors += vss.vector_range((item * 64 + tz as usize) as u32).len();
                    if vectors > cutoff {
                        return false;
                    }
                }
            }
            true
        }
    }
}

/// Non-atomic twin of [`crate::spmv::scatter_combine`]: folds one bucketed
/// message into the accumulator with plain loads/stores. Only sound when
/// the caller owns every destination it folds (the merge pass's
/// chunk-disjointness). Value semantics — including the NaN behaviour of
/// `fetch_min_f64`/`fetch_max_f64`, whose CAS keeps the current value only
/// when `cur <= v` (resp. `>=`) — are replicated exactly so the fold is
/// bit-compatible with `scatter_combine`.
fn fold_into(op: AggOp, write_intense: bool, accum: &PropertyArray, dst: usize, msg: f64) {
    if let Some(folded) = folded(op, write_intense, accum.get_f64(dst), msg) {
        // DISJOINT: spa-bucket-merge
        accum.set_f64(dst, folded);
    }
}

/// The value [`fold_into`] leaves in an accumulator holding `cur` after
/// folding `msg`; `None` when it keeps `cur` and writes nothing.
// The negated comparisons are load-bearing: `!(cur <= msg)` and `cur > msg`
// disagree exactly when `cur` is NaN, and the atomic CAS semantics being
// replicated are defined by the negated form.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn folded(op: AggOp, write_intense: bool, cur: f64, msg: f64) -> Option<f64> {
    match op {
        AggOp::Sum => Some(cur + msg),
        _ if write_intense => Some(op.combine(cur, msg)),
        // `!(cur <= msg)` — not `cur > msg` — so a NaN current value is
        // replaced, matching `fetch_min_f64`'s keep-only-if-`cur <= v`.
        AggOp::Min => (!(cur <= msg)).then_some(msg),
        AggOp::Max => (!(cur >= msg)).then_some(msg),
    }
}

/// Sparse-list items ahead of the scan at which a source's index entry is
/// prefetched: far enough for the line to arrive before
/// [`LINE_PREFETCH_DISTANCE`] reads it.
const INDEX_PREFETCH_DISTANCE: usize = 16;

/// Sparse-list items ahead of the scan at which a source's first edge
/// vector and weight vector are prefetched (their address is the index
/// entry fetched [`INDEX_PREFETCH_DISTANCE`] items ahead).
const LINE_PREFETCH_DISTANCE: usize = 8;

/// One push scan's view of the structure: the destinations it skips, the
/// weights its messages read and how it derives a message — from an
/// [`EdgeKernel`] for the Edge phase, from the program's live values for
/// the in-place drain.
struct Scan<'a, M> {
    vss: &'a VectorSparse,
    converged: Option<&'a DenseBitmap>,
    /// The structure's weights; `None` when the messages ignore them, so
    /// the scan neither loads nor prefetches a weight line.
    weights: Option<&'a [f64]>,
    /// `message(src, dst, weight)`.
    message: M,
}

/// The scan an Edge phase of `kernel` runs.
fn kernel_scan<'a, K: EdgeKernel>(
    vss: &'a VectorSparse,
    kernel: &'a K,
) -> Scan<'a, impl Fn(u32, u32, f64) -> f64 + Sync + 'a> {
    Scan {
        vss,
        converged: kernel.converged(),
        weights: vss.weight_vectors().filter(|_| kernel.needs_weights()),
        message: move |src, dst, w| kernel.message(src, dst, w),
    }
}

impl<M: Fn(u32, u32, f64) -> f64> Scan<'_, M> {
    /// Walks `src`'s out-vectors and calls `emit(dst, message)` for each
    /// live edge whose destination has not converged, in layout order. The
    /// converged set is read per edge, so a destination that converges
    /// during the scan is skipped from then on.
    #[inline(always)]
    fn source(&self, src: u32, emit: &mut impl FnMut(u32, f64)) {
        let vss = self.vss;
        // `src`'s weights, in lane order; its edge offset is read only
        // when the messages read them.
        let weights = self
            .weights
            .map(|ws| &ws[vss.edge_index()[src as usize] as usize..]);
        let lanes = vss.vectors()[vss.vector_range(src)]
            .iter()
            .flat_map(|ev| ev.valid_neighbors());
        for (k, dst) in lanes.enumerate() {
            let dst = dst as u32;
            if self.converged.is_some_and(|c| c.contains(dst)) {
                continue;
            }
            let w = weights.map_or(0.0, |ws| ws[k]);
            emit(dst, (self.message)(src, dst, w));
        }
    }

    /// Scatters the frontier item subrange `lo..hi` (one bitmap word per
    /// item for All/Dense, one active vertex per item for Sparse) in
    /// increasing item order. A sparse list is known in full before the
    /// scan starts, so its arm prefetches each source's Vector-Sparse lines
    /// a few items ahead (DESIGN.md §17, "Prefetch"), within the subrange —
    /// the weight line only when the messages read it.
    #[inline(always)]
    fn items(&self, frontier: &Frontier, lo: usize, hi: usize, emit: &mut impl FnMut(u32, f64)) {
        let vss = self.vss;
        let n = vss.num_vertices();
        match frontier {
            Frontier::All { .. } => {
                for src in (lo * 64)..(hi * 64).min(n) {
                    self.source(src as u32, emit);
                }
            }
            Frontier::Dense(bm) => {
                for item in lo..hi {
                    // ATOMIC: relaxed-cell — frontier-bitmap snapshot;
                    // the frontier is frozen during the Edge phase
                    let mut bits = bm.words()[item].load(Ordering::Relaxed);
                    while bits != 0 {
                        let tz = bits.trailing_zeros();
                        bits &= bits - 1;
                        self.source((item * 64 + tz as usize) as u32, emit);
                    }
                }
            }
            Frontier::Sparse { vertices, .. } => {
                let mine = &vertices[lo..hi];
                for (i, &src) in mine.iter().enumerate() {
                    if let Some(&ahead) = mine.get(i + INDEX_PREFETCH_DISTANCE) {
                        vss.prefetch_index(ahead);
                    }
                    if let Some(&ahead) = mine.get(i + LINE_PREFETCH_DISTANCE) {
                        if self.weights.is_some() {
                            vss.prefetch_vertex(ahead);
                        } else {
                            vss.prefetch_edges(ahead);
                        }
                    }
                    self.source(src, emit);
                }
            }
        }
    }
}

/// Length of a scan's item space over `frontier`: one item per listed
/// vertex, else one per 64-vertex bitmap word.
fn frontier_items(frontier: &Frontier, n: usize) -> usize {
    match frontier {
        Frontier::Sparse { vertices, .. } => vertices.len(),
        _ => n.div_ceil(64),
    }
}

/// What one [`drain_bucket`] did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Drained {
    /// Messages folded; each was followed by one `apply`.
    pub(crate) messages: u64,
    /// Applies that activated their destination, each filed into the queue.
    pub(crate) applies: u64,
}

/// The in-place drain (DESIGN.md §18): sends `bucket`, the lowest bucket
/// of a priority-ordered run ([`GraphProgram::bucket_width`]), on the
/// calling thread. The scan is the inline push scan with its prefetch; each
/// message is folded into its destination's accumulator, `apply` runs on
/// it at once and the accumulator goes back to the identity, and an
/// activated destination is filed into `queue` at its new priority. There
/// is no Vertex phase, no touched list and no next frontier: the caller
/// drains the next bucket from `queue`.
///
/// Sources are sent in ascending order and every message reads its
/// sender's current value, so a source improved earlier in the same drain
/// sends its improved value — the one-at-a-time schedule the contract
/// admits. Sound only for a program declaring
/// [`GraphProgram::identity_apply_is_noop`] as well (an untouched vertex
/// needs no apply), over all-identity accumulators, which it leaves so.
pub(crate) fn drain_bucket<P: GraphProgram>(
    vss: &VectorSparse,
    prog: &P,
    bucket: &Frontier,
    queue: &mut BucketQueue,
) -> Drained {
    let (values, accum) = (prog.edge_values(), prog.accumulators());
    let (op, write_intense, func) = (prog.op(), prog.write_intense(), prog.edge_func());
    let identity = op.identity();
    let scan = Scan {
        vss,
        converged: prog.converged(),
        weights: vss.weight_vectors().filter(|_| func.needs_weights()),
        message: |src: u32, _dst: u32, w: f64| func.apply(values.get_f64(src as usize), w),
    };
    let mut drained = Drained::default();
    let items = frontier_items(bucket, vss.num_vertices());
    // The accumulator holds the identity before every message, so the fold
    // is computed, not read: the store is all `apply` waits for, and it
    // forwards from the store buffer however far away its line is.
    let onto_identity = |msg| folded(op, write_intense, identity, msg).unwrap_or(identity);
    scan.items(bucket, 0, items, &mut |dst, msg| {
        // DISJOINT: sequential-merge — the drain runs on the calling thread
        // while no pool phase is open, so it is the only writer
        accum.set_f64(dst as usize, onto_identity(msg));
        if prog.apply(dst) {
            queue.file(dst, values.get_f64(dst as usize));
            drained.applies += 1;
        }
        // DISJOINT: sequential-merge — as above
        accum.set_f64(dst as usize, identity);
        drained.messages += 1;
    });
    drained
}

/// The inline path's whole Edge phase, on the calling thread: every active
/// source of `frontier` in increasing order, each message folded into the
/// kernel's accumulators as it is produced. That is the pooled path's fold
/// order (module doc), so not one output bit differs from it. `on_fold`
/// sees every destination folded into; returns the number of messages.
/// [`edge_push_spa`] runs it below its inline cutoff, and a contained run
/// redoes a panicked overlay fold with it.
pub(crate) fn fold_inline<K: EdgeKernel>(
    vss: &VectorSparse,
    kernel: &K,
    frontier: &Frontier,
    mut on_fold: impl FnMut(u32),
) -> u64 {
    let (accum, op, write_intense) = (kernel.accumulators(), kernel.op(), kernel.write_intense());
    let items = frontier_items(frontier, vss.num_vertices());
    let mut messages = 0u64;
    kernel_scan(vss, kernel).items(frontier, 0, items, &mut |dst, msg| {
        fold_into(op, write_intense, accum, dst as usize, msg);
        on_fold(dst);
        messages += 1;
    });
    messages
}

/// Runs one Edge-Push phase through the SPA scatter/merge pipeline — the
/// engine's only Edge-Push. It masks converged destinations, counts
/// `push_updates`, and gives the same accumulator bits at every thread
/// count (module-level argument), plus `spa_bucket_entries` /
/// `spa_chunks_touched` occupancy stats and merge-aware idle attribution.
/// `scratch` is the caller-owned bucket storage, reused across supersteps.
/// `pool_parked` is the caller's knowledge that nothing has woken the pool
/// since the previous superstep's Edge phase; it only moves the inline cutoff
/// ([`SPA_PARKED_VECTOR_CUTOFF`]), never a result bit. Returns the number
/// of threads that ran the phase: 1 on the inline fast path, else the pool
/// width.
pub fn edge_push_spa<K: EdgeKernel>(
    vss: &VectorSparse,
    kernel: &K,
    frontier: &Frontier,
    pool: &ThreadPool,
    prof: &Profiler,
    scratch: &mut SpaScratch,
    pool_parked: bool,
) -> u32 {
    let n = vss.num_vertices();
    let accum = kernel.accumulators();
    let op = kernel.op();
    let write_intense = kernel.write_intense();
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();
    let merge_before = prof.merge_ns_now();
    let chunks = num_chunks(n);

    // Folds chunk `c`: every row's bucket in fixed row order — the single
    // fold order the determinism contract pins.
    let fold_chunk = |c: usize, rows: &[ChunkBuckets], entries: &mut u64, touched: &mut u64| {
        let mut any = false;
        for row in rows {
            let bucket = &row[c];
            if !bucket.is_empty() {
                any = true;
                *entries += bucket.len() as u64;
            }
            for &(dst, msg) in bucket {
                fold_into(op, write_intense, accum, dst as usize, msg);
            }
        }
        if any {
            *touched += 1;
        }
    };

    // --- Sequential fast path: tiny frontiers skip the pool entirely. ---
    // Only the destination ids are kept, as the touched list.
    let cutoff = inline_vector_cutoff(pool.num_threads(), pool_parked);
    if frontier_fits_inline(vss, frontier, n, cutoff) {
        let mut dsts = scratch.take_dsts(chunks);
        let started = SpanClock::start();
        let updates = fold_inline(vss, kernel, frontier, |dst| {
            dsts[dst as usize / SPA_CHUNK_VERTICES].push(dst)
        });
        let touched = dsts.iter().filter(|list| !list.is_empty()).count() as u64;
        prof.work_ns
            .fetch_add(started.elapsed_ns(), Ordering::Relaxed); // ATOMIC: relaxed-counter
        prof.push_updates.fetch_add(updates, Ordering::Relaxed); // ATOMIC: relaxed-counter
        prof.spa_bucket_entries
            .fetch_add(updates, Ordering::Relaxed); // ATOMIC: relaxed-counter
        prof.spa_chunks_touched
            .fetch_add(touched, Ordering::Relaxed); // ATOMIC: relaxed-counter
        scratch.put_back_dsts(dsts, updates as usize);
        prof.finish_edge_phase_with_merge(wall.elapsed_ns(), 1, work_before, merge_before);
        return 1;
    }

    // --- Pass 1: scatter into thread-local chunk-partitioned buckets. ---
    // `rows[t][c]` holds scatter partition `t`'s messages for destination
    // chunk `c`, in increasing source order; `run_tasks` hands row `t` to
    // worker global id `t` and returns rows in that same order, which is
    // what the merge's fold order relies on. The frontier item space is
    // global (see the module doc for why groups are ignored here).
    let scan = kernel_scan(vss, kernel);
    let items = frontier_items(frontier, n);
    let tc = pool.num_threads();
    let scatter_worker = |ctx: &WorkerCtx, mut buckets: ChunkBuckets| -> ChunkBuckets {
        let started = SpanClock::start();
        let mut updates = 0u64;
        for bucket in buckets.iter_mut() {
            bucket.clear();
        }
        let t = ctx.global_id;
        // Static contiguous partition: thread t owns t·items/T..(t+1)·items/T.
        let (lo, hi) = (t * items / tc, (t + 1) * items / tc);
        scan.items(frontier, lo, hi, &mut |dst, msg| {
            buckets[dst as usize / SPA_CHUNK_VERTICES].push((dst, msg));
            updates += 1;
        });
        prof.work_ns
            .fetch_add(started.elapsed_ns(), Ordering::Relaxed); // ATOMIC: relaxed-counter
        prof.push_updates.fetch_add(updates, Ordering::Relaxed); // ATOMIC: relaxed-counter
        buckets
    };
    let rows = pool.run_tasks(scratch.take_rows(tc, chunks), scatter_worker);

    // --- Pass 2: chunk-parallel merge, fixed thread order per chunk. ---
    // Chunks are claimed dynamically (the claim order is irrelevant: chunks
    // are destination-disjoint and each fold is pure), but within a chunk
    // the rows fold in global thread order, giving every destination the
    // single increasing source order. An all-empty scatter (every
    // destination converged, say) skips the merge broadcast outright.
    let bucketed: usize = rows.iter().flatten().map(Vec::len).sum();
    if bucketed > 0 {
        let merge_sched = ChunkScheduler::new(chunks, chunks);
        let merge_worker = |_ctx: &WorkerCtx| {
            let started = SpanClock::start();
            let (mut entries, mut touched) = (0u64, 0u64);
            while let Some(chunk) = merge_sched.next_chunk() {
                for c in chunk.range {
                    fold_chunk(c, &rows, &mut entries, &mut touched);
                }
            }
            prof.merge_ns
                .fetch_add(started.elapsed_ns(), Ordering::Relaxed); // ATOMIC: relaxed-counter
            prof.spa_bucket_entries
                .fetch_add(entries, Ordering::Relaxed); // ATOMIC: relaxed-counter
            prof.spa_chunks_touched
                .fetch_add(touched, Ordering::Relaxed); // ATOMIC: relaxed-counter
        };
        pool.run(merge_worker);
    }
    scratch.put_back(rows, bucketed);
    prof.finish_edge_phase_with_merge(wall.elapsed_ns(), tc as u64, work_before, merge_before);
    tc as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::DenseBitmap;
    use crate::program::GraphProgram;
    use crate::spmv::{program_kernel, scatter_combine};
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::Kernels;

    struct SumProg {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
        op: AggOp,
    }
    impl GraphProgram for SumProg {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            self.op
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.vals
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, _v: u32) -> bool {
            false
        }
        fn uses_frontier(&self) -> bool {
            true
        }
    }

    fn graph() -> Graph {
        let mut el = EdgeList::new(150);
        for v in 1..150u32 {
            el.push(v, v / 2).unwrap(); // binary-tree-ish in-edges
            el.push(0, v).unwrap(); // hub fan-out
        }
        Graph::from_edgelist(&el).unwrap()
    }

    /// Rounding-sensitive edge values: 1/(v+1.5) sums are non-associative
    /// in f64, so a bit-equal result really does pin the combine order.
    fn prog(n: usize, op: AggOp) -> SumProg {
        let p = SumProg {
            vals: PropertyArray::new(n),
            acc: PropertyArray::filled_f64(n, op.identity()),
            n,
            op,
        };
        for v in 0..n {
            p.vals.set_f64(v, 1.0 / (v as f64 + 1.5));
        }
        p
    }

    fn bits(acc: &PropertyArray, n: usize) -> Vec<u64> {
        (0..n).map(|v| acc.get_f64(v).to_bits()).collect()
    }

    fn run_spa(g: &Graph, op: AggOp, frontier: &Frontier, threads: usize) -> (Vec<u64>, u64, u64) {
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let p = prog(n, op);
        let pool = ThreadPool::single_group(threads);
        let prof = Profiler::new();
        let kern = program_kernel(&p, &vss, Kernels::auto());
        let mut scratch = SpaScratch::new();
        edge_push_spa(&vss, &kern, frontier, &pool, &prof, &mut scratch, false);
        let s = prof.snapshot();
        (bits(&p.acc, n), s.push_updates, s.spa_bucket_entries)
    }

    /// The independent reference: a single-threaded atomic scatter, every
    /// active source's out-edges in increasing order through Listing 1's
    /// `scatter_combine`. Returns the accumulator bits and the message
    /// count.
    fn run_atomic(g: &Graph, op: AggOp, frontier: &Frontier) -> (Vec<u64>, u64) {
        let n = g.num_vertices();
        let p = prog(n, op);
        let mut updates = 0;
        for src in (0..n as u32).filter(|&v| frontier.contains(v)) {
            for &dst in g.out_neighbors(src) {
                scatter_combine(
                    op,
                    false,
                    &p.acc,
                    dst as usize,
                    p.vals.get_f64(src as usize),
                );
                updates += 1;
            }
        }
        (bits(&p.acc, n), updates)
    }

    #[test]
    fn spa_is_bit_identical_to_single_threaded_atomic_scatter() {
        let g = graph();
        let n = g.num_vertices();
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
            for frontier in [
                Frontier::all(n),
                Frontier::from_vertices(n, &[0, 3, 64, 65, 80, 149]),
                Frontier::sparse(n, &[0, 3, 64, 65, 80, 149]),
            ] {
                let (want, want_updates) = run_atomic(&g, op, &frontier);
                for threads in [1usize, 2, 3, 8] {
                    let (got, updates, entries) = run_spa(&g, op, &frontier, threads);
                    assert_eq!(got, want, "{op:?} x{threads} {frontier:?}");
                    assert_eq!(updates, want_updates, "{op:?} x{threads}: push_updates");
                    assert_eq!(entries, updates, "{op:?} x{threads}: bucket entries");
                }
            }
        }
    }

    #[test]
    fn spa_output_is_thread_count_invariant() {
        let g = graph();
        let n = g.num_vertices();
        let frontier = Frontier::all(n);
        let (base, ..) = run_spa(&g, AggOp::Sum, &frontier, 1);
        for threads in [2usize, 3, 4, 8] {
            let (got, ..) = run_spa(&g, AggOp::Sum, &frontier, threads);
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn spa_respects_sparse_frontier() {
        let g = graph();
        let n = g.num_vertices();
        let frontier = Frontier::sparse(n, &[0]); // only the hub
        let (_, updates, entries) = run_spa(&g, AggOp::Sum, &frontier, 2);
        assert_eq!(updates, g.out_degree(0) as u64);
        assert_eq!(entries, updates);
    }

    #[test]
    fn spa_empty_frontier_is_a_no_op() {
        let g = graph();
        let n = g.num_vertices();
        let frontier = Frontier::sparse(n, &[]);
        let (got, updates, entries) = run_spa(&g, AggOp::Sum, &frontier, 4);
        let p = prog(n, AggOp::Sum);
        assert_eq!(got, bits(&p.acc, n), "accumulators stay at identity");
        assert_eq!(updates, 0);
        assert_eq!(entries, 0);
    }

    #[test]
    fn spa_counts_touched_chunks() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let p = prog(n, AggOp::Sum);
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = program_kernel(&p, &vss, Kernels::auto());
        let mut scratch = SpaScratch::new();
        edge_push_spa(
            &vss,
            &kern,
            &Frontier::all(n),
            &pool,
            &prof,
            &mut scratch,
            false,
        );
        let s = prof.snapshot();
        // 150 vertices fit one 2048-wide destination chunk.
        assert_eq!(s.spa_chunks_touched, 1);
        assert_eq!(s.spa_bucket_entries, g.num_edges() as u64);
        // Occupancy stats never inflate the update total.
        assert_eq!(s.total_updates(), g.num_edges() as u64);
    }

    #[test]
    fn spa_skips_converged_destinations() {
        struct ConvProg {
            inner: SumProg,
            conv: DenseBitmap,
        }
        impl GraphProgram for ConvProg {
            fn num_vertices(&self) -> usize {
                self.inner.n
            }
            fn op(&self) -> AggOp {
                AggOp::Sum
            }
            fn edge_values(&self) -> &PropertyArray {
                &self.inner.vals
            }
            fn accumulators(&self) -> &PropertyArray {
                &self.inner.acc
            }
            fn apply(&self, _v: u32) -> bool {
                false
            }
            fn uses_frontier(&self) -> bool {
                true
            }
            fn converged(&self) -> Option<&DenseBitmap> {
                Some(&self.conv)
            }
        }
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let conv = DenseBitmap::new(n);
        conv.insert(1);
        let p = ConvProg {
            inner: prog(n, AggOp::Sum),
            conv,
        };
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = program_kernel(&p, &vss, Kernels::auto());
        let mut scratch = SpaScratch::new();
        edge_push_spa(
            &vss,
            &kern,
            &Frontier::all(n),
            &pool,
            &prof,
            &mut scratch,
            false,
        );
        assert_eq!(p.inner.acc.get_f64(1), 0.0, "converged dst updated");
    }

    /// A graph whose vector count exceeds the two-thread inline cutoff (the
    /// widest of any real pool), so an all-active frontier is guaranteed
    /// onto the parallel scatter/merge path at 2 and 8 threads (the
    /// 150-vertex fixture above runs inline; so does one thread, always).
    fn big_graph() -> Graph {
        let mut el = EdgeList::new(12_000);
        for v in 1..12_000u32 {
            el.push(v - 1, v).unwrap(); // chain across chunk boundaries
            if v % 3 == 0 {
                el.push(0, v).unwrap(); // hub fan-out
            }
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn parallel_path_is_bit_identical_and_scratch_reuse_is_clean() {
        let g = big_graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        assert!(
            vss.num_vectors() > inline_vector_cutoff(2, false),
            "fixture too small: the all-active frontier would run inline"
        );
        let frontier = Frontier::all(n);
        let (want, want_updates) = run_atomic(&g, AggOp::Sum, &frontier);
        for threads in [1usize, 2, 8] {
            let p = prog(n, AggOp::Sum);
            let pool = ThreadPool::single_group(threads);
            let kern = program_kernel(&p, &vss, Kernels::auto());
            let mut scratch = SpaScratch::new();
            // Two supersteps through ONE scratch: the second must not see
            // stale entries from the first (workers clear their buckets).
            for pass in 0..2 {
                p.acc.fill_range_f64(0..n, AggOp::Sum.identity());
                let prof = Profiler::new();
                edge_push_spa(&vss, &kern, &frontier, &pool, &prof, &mut scratch, false);
                assert_eq!(bits(&p.acc, n), want, "x{threads} pass {pass}");
                assert_eq!(
                    prof.snapshot().push_updates,
                    want_updates,
                    "x{threads} pass {pass}: updates"
                );
            }
        }
    }

    #[test]
    fn touched_list_is_every_folded_destination_grouped_by_chunk() {
        let g = big_graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let sources = [0u32, 5, 2047, 2048, 7000, 11_998];
        let mut want: Vec<u32> = sources
            .iter()
            .flat_map(|&s| g.out_neighbors(s).iter().copied())
            .collect();
        want.sort_unstable();
        // The hub makes the sparse frontier wide enough for the pool at 8
        // threads and narrow enough for inline at 1: both must agree.
        for threads in [1usize, 2, 8] {
            let p = prog(n, AggOp::Min);
            let pool = ThreadPool::single_group(threads);
            let prof = Profiler::new();
            let kern = program_kernel(&p, &vss, Kernels::auto());
            let mut scratch = SpaScratch::new();
            assert_eq!(scratch.touched_len(), 0, "fresh scratch touches nothing");
            let frontier = Frontier::sparse(n, &sources);
            edge_push_spa(&vss, &kern, &frontier, &pool, &prof, &mut scratch, false);
            assert_eq!(scratch.touched_chunks(), num_chunks(n));
            let mut got = Vec::new();
            for c in 0..scratch.touched_chunks() {
                let before = got.len();
                got.extend(scratch.touched_in_chunk(c));
                assert_eq!(
                    got.len() - before,
                    scratch.chunk_len(c),
                    "x{threads} chunk {c}"
                );
                assert!(
                    got[before..]
                        .iter()
                        .all(|&d| d as usize / SPA_CHUNK_VERTICES == c),
                    "x{threads}: chunk {c} holds a foreign destination"
                );
            }
            assert_eq!(got.len(), scratch.touched_len(), "x{threads}");
            assert_eq!(got.len() as u64, prof.snapshot().push_updates, "x{threads}");
            got.sort_unstable();
            assert_eq!(got, want, "x{threads}: one entry per message");
        }
    }

    /// A structure of at most `cutoff` vectors fits inline whatever the
    /// frontier — a bitmap wider than the cutoff, a list longer than twice
    /// it — so a tiny overlay's fold stays off the pool. A structure past
    /// the cutoff bails on both.
    #[test]
    fn small_structures_fit_inline_whatever_the_frontier() {
        let cutoff = 8;
        let n = 64 * 40; // 40 bitmap words
        let el = EdgeList::from_pairs(n, &[(0, 1), (5, 7), (2000, 3)]).unwrap();
        let small = VectorSparse::from_csr(Graph::from_edgelist(&el).unwrap().out_csr());
        assert!(small.num_vectors() <= cutoff && n.div_ceil(64) > cutoff);
        let big_g = big_graph();
        let big = VectorSparse::from_csr(big_g.out_csr());
        for (vss, n, fits) in [(&small, n, true), (&big, big_g.num_vertices(), false)] {
            let every: Vec<u32> = (0..n as u32).collect();
            let frontiers = [
                ("all", Frontier::all(n)),
                ("bitmap", Frontier::from_vertices(n, &every)),
                ("list", Frontier::sparse(n, &every)),
            ];
            for (what, frontier) in frontiers {
                let got = frontier_fits_inline(vss, &frontier, n, cutoff);
                assert_eq!(got, fits, "n={n}, every vertex as {what}");
            }
        }
    }

    #[test]
    fn inline_cutoff_shrinks_toward_its_floor_as_the_pool_widens() {
        for (parked, floor) in [
            (false, SPA_SEQ_VECTOR_CUTOFF),
            (true, SPA_PARKED_VECTOR_CUTOFF),
        ] {
            assert_eq!(
                inline_vector_cutoff(1, parked),
                usize::MAX,
                "one thread: always inline"
            );
            assert_eq!(inline_vector_cutoff(2, parked), 2 * floor);
            let mut prev = inline_vector_cutoff(2, parked);
            for threads in [3usize, 4, 8, 64, 1024] {
                let cut = inline_vector_cutoff(threads, parked);
                assert!(cut <= prev && cut >= floor, "x{threads}: {cut}");
                prev = cut;
            }
        }
    }

    /// The parked-pool hint moves the inline cutoff and nothing else: a
    /// frontier between the two cutoffs runs on the pool without it and
    /// inline with it, to the same bits and the same counters.
    #[test]
    fn parked_pool_hint_changes_the_path_not_the_result() {
        let g = big_graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let wave: Vec<u32> = (0..n as u32).step_by(4).collect();
        let frontier = Frontier::sparse(n, &wave);
        let vectors: usize = wave.iter().map(|&v| vss.vector_range(v).len()).sum();
        assert!(
            vectors > inline_vector_cutoff(2, false) && vectors <= inline_vector_cutoff(2, true),
            "fixture must sit between the cutoffs: {vectors} vectors"
        );
        let run = |parked: bool| {
            let p = prog(n, AggOp::Sum);
            let pool = ThreadPool::single_group(2);
            let prof = Profiler::new();
            let kern = program_kernel(&p, &vss, Kernels::auto());
            let mut scratch = SpaScratch::new();
            let ran = edge_push_spa(&vss, &kern, &frontier, &pool, &prof, &mut scratch, parked);
            let s = prof.snapshot();
            (bits(&p.acc, n), s.push_updates, s.spa_bucket_entries, ran)
        };
        let (pooled, parked) = (run(false), run(true));
        assert_eq!(pooled.3, 2, "without the hint: both workers scatter");
        assert_eq!(parked.3, 1, "with it: the inline path");
        assert_eq!(
            (&pooled.0, pooled.1, pooled.2),
            (&parked.0, parked.1, parked.2)
        );
    }

    #[test]
    fn fold_into_matches_atomic_min_max_nan_semantics() {
        // fetch_min_f64 keeps the current value only when `cur <= v`; a NaN
        // current value therefore gets replaced, and a NaN message wins.
        let a = PropertyArray::filled_f64(1, f64::NAN);
        fold_into(AggOp::Min, false, &a, 0, 3.0);
        assert_eq!(a.get_f64(0), 3.0, "NaN current is replaced");
        fold_into(AggOp::Min, false, &a, 0, f64::NAN);
        assert!(a.get_f64(0).is_nan(), "NaN message wins");
        let b = PropertyArray::filled_f64(1, f64::NAN);
        fold_into(AggOp::Max, false, &b, 0, -3.0);
        assert_eq!(b.get_f64(0), -3.0, "NaN current is replaced (max)");
    }
}
