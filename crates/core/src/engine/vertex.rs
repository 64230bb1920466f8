//! The Vertex (local update) phase.
//!
//! "The Vertex phase is statically scheduled by dividing the vertices into
//! equal-sized chunks, one chunk per thread. The work is sufficiently
//! regular that load balancing is not a problem" (§5). Each thread applies
//! the program's local update to its vertex range and records newly active
//! vertices into the next frontier's bitmap.
//!
//! Beyond the paper, [`sparse_vertex_phase`] is the same phase over only
//! the destinations a sparse SPA push touched (DESIGN.md §18), for programs
//! whose `apply` ignores an accumulator still at the identity.

use crate::frontier::DenseBitmap;
use crate::program::GraphProgram;
use crate::spmv::spa::{scaled_inline_cutoff, SpaScratch, SPA_CHUNK_VERTICES};
use crate::stats::Profiler;
use crate::trace::SpanClock;
use grazelle_graph::partition::partition_by_vertices;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resets the per-destination accumulators to the aggregation identity
/// (statically partitioned parallel fill). Runs before every Edge phase.
pub fn reset_accumulators<P: GraphProgram>(prog: &P, pool: &ThreadPool, prof: &Profiler) {
    let n = prog.num_vertices();
    let identity = prog.op().identity();
    let parts = partition_by_vertices(n, pool.num_threads());
    let started = SpanClock::start();
    pool.run(|ctx| {
        let r = &parts[ctx.global_id];
        // DISJOINT: thread-partition — `parts` tiles the vertex ids with one
        // disjoint range per thread; `ctx.global_id` selects this thread's own
        prog.accumulators()
            .fill_range_f64(r.start as usize..r.end as usize, identity);
    });
    // ATOMIC: relaxed-counter
    prof.write_ns
        .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
}

/// Runs one Vertex phase: each thread hands its whole vertex range to the
/// program's [`GraphProgram::apply_range`], which applies the local update,
/// inserts activated vertices into `next_frontier` (when tracking) and
/// counts them; returns the number of activated vertices.
pub fn vertex_phase<P: GraphProgram>(
    prog: &P,
    pool: &ThreadPool,
    next_frontier: Option<&DenseBitmap>,
    simd: SimdLevel,
    prof: &Profiler,
) -> usize {
    let n = prog.num_vertices();
    let parts = partition_by_vertices(n, pool.num_threads());
    let active_total = AtomicUsize::new(0);
    let started = SpanClock::start();
    pool.run(|ctx| {
        let r = &parts[ctx.global_id];
        let active = prog.apply_range(r.start..r.end, next_frontier, simd);
        // ATOMIC: relaxed-counter — per-thread totals; the pool join makes
        // the final sum exact before anyone reads it
        active_total.fetch_add(active, Ordering::Relaxed);
    });
    // ATOMIC: relaxed-counter
    prof.write_ns
        .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
    active_total.load(Ordering::Relaxed) // ATOMIC: relaxed-counter
}

/// Touched-list length at which an unboundedly wide pool repays its one
/// broadcast. The phase only runs on the driver's sparse path, where
/// the pool has been left parked, so a broadcast costs ≈180 µs (see
/// [`SPA_PARKED_VECTOR_CUTOFF`](crate::spmv::spa::SPA_PARKED_VECTOR_CUTOFF))
/// against ≈10 ns per entry walked inline (`apply` + identity store;
/// EXPERIMENTS.md). T threads save `(1 − 1/T)` of the walk, so the phase
/// goes to the pool past `SPARSE_VERTEX_INLINE_CUTOFF · T/(T − 1)` entries
/// — 32768 at T = 2 — and never at T = 1.
pub const SPARSE_VERTEX_INLINE_CUTOFF: usize = 16384;

/// What one [`sparse_vertex_phase`] produced.
pub struct SparseVertexRun {
    /// Activated vertices, strictly ascending — ready for
    /// [`Frontier::Sparse`](crate::frontier::Frontier::Sparse).
    pub activated: Vec<VertexId>,
    /// Threads that walked the list (1 on the inline path).
    pub parallelism: u32,
}

/// Applies the touched vertices of destination chunk `c`, returning each
/// accumulator to the identity as it goes — so the second visit of a
/// duplicate entry sees the identity and, by the program contract, does
/// nothing. Activations are marked in a chunk-local bitmap and appended in
/// ascending order, which keeps the output sorted without a sort (bucket
/// order is source order, not destination order).
fn apply_chunk<P: GraphProgram>(
    prog: &P,
    identity: f64,
    touched: &SpaScratch,
    c: usize,
    activated: &mut Vec<VertexId>,
) {
    if touched.chunk_len(c) == 0 {
        return;
    }
    let accum = prog.accumulators();
    let base = c * SPA_CHUNK_VERTICES;
    let mut marks = [0u64; SPA_CHUNK_VERTICES / 64];
    for v in touched.touched_in_chunk(c) {
        if prog.apply(v) {
            let local = v as usize - base;
            marks[local >> 6] |= 1 << (local & 63);
        }
        // DISJOINT: vertex-owned — `v` lies in destination chunk `c`, which
        // this worker alone walks (chunks tile the vertex ids and each is
        // handed to one worker), so no one else applies or resets it
        accum.set_f64(v as usize, identity);
    }
    for (w, &word) in marks.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            activated.push((base + w * 64 + bits.trailing_zeros() as usize) as VertexId);
            bits &= bits - 1;
        }
    }
}

/// Cuts the chunk space into `parts` contiguous ranges holding near-equal
/// shares of the touched entries; range `t` is `cuts[t]..cuts[t + 1]`.
fn balanced_chunk_cuts(touched: &SpaScratch, parts: usize) -> Vec<usize> {
    let chunks = touched.touched_chunks();
    let total = touched.touched_len();
    let mut cuts = vec![0; parts + 1];
    let (mut seen, mut t) = (0, 1);
    for c in 0..chunks {
        while t < parts && seen >= t * total / parts {
            cuts[t] = c;
            t += 1;
        }
        seen += touched.chunk_len(c);
    }
    for cut in &mut cuts[t..] {
        *cut = chunks;
    }
    cuts
}

/// Runs the Vertex phase over the touched list of the SPA push that just
/// finished (DESIGN.md §18) instead of over every vertex: `apply(v)` on
/// each destination that received a message, then the identity back into
/// `accumulators[v]`, so the accumulator array is all-identity again when
/// the phase returns and the next superstep needs no reset.
///
/// Sound only for programs declaring
/// [`GraphProgram::identity_apply_is_noop`] — the vertices skipped here are
/// exactly those whose accumulator still holds the identity — and only if
/// the accumulators were all-identity before the push and nothing but that
/// push wrote them since; both are the caller's to guarantee. Short lists
/// run inline; longer ones go to the pool, one contiguous range of
/// destination chunks per worker (chunks are disjoint, so one worker owns
/// every vertex it applies, and ranges in worker order stay ascending).
pub fn sparse_vertex_phase<P: GraphProgram>(
    prog: &P,
    pool: &ThreadPool,
    touched: &SpaScratch,
    prof: &Profiler,
) -> SparseVertexRun {
    let identity = prog.op().identity();
    let entries = touched.touched_len();
    let threads = pool.num_threads();
    let started = SpanClock::start();
    let inline = entries <= scaled_inline_cutoff(SPARSE_VERTEX_INLINE_CUTOFF, threads);
    let activated = if inline {
        let mut activated = Vec::new();
        for c in 0..touched.touched_chunks() {
            apply_chunk(prog, identity, touched, c, &mut activated);
        }
        activated
    } else {
        let cuts = balanced_chunk_cuts(touched, threads);
        pool.run_map(|ctx| {
            let mut mine = Vec::new();
            for c in cuts[ctx.global_id]..cuts[ctx.global_id + 1] {
                apply_chunk(prog, identity, touched, c, &mut mine);
            }
            mine
        })
        .concat()
    };
    // ATOMIC: relaxed-counter
    prof.write_ns
        .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
    // ATOMIC: relaxed-counter
    prof.vertex_touched
        .fetch_add(entries as u64, Ordering::Relaxed);
    SparseVertexRun {
        activated,
        parallelism: if inline { 1 } else { threads as u32 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AggOp;
    use crate::properties::PropertyArray;

    struct Halver {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl GraphProgram for Halver {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Min
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.vals
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, v: u32) -> bool {
            // Activate multiples of 3; write a marker value.
            self.vals.set_f64(v as usize, v as f64 * 2.0);
            v.is_multiple_of(3)
        }
        fn uses_frontier(&self) -> bool {
            true
        }
    }

    #[test]
    fn applies_every_vertex_and_collects_frontier() {
        let n = 101;
        let prog = Halver {
            vals: PropertyArray::new(n),
            acc: PropertyArray::new(n),
            n,
        };
        let pool = ThreadPool::single_group(4);
        let prof = Profiler::new();
        let next = DenseBitmap::new(n);
        let active = vertex_phase(&prog, &pool, Some(&next), SimdLevel::Scalar, &prof);
        let expect = (0..n as u32).filter(|v| v % 3 == 0).count();
        assert_eq!(active, expect);
        assert_eq!(next.count(), expect);
        for v in 0..n {
            assert_eq!(
                prog.vals.get_f64(v),
                v as f64 * 2.0,
                "vertex {v} not applied"
            );
        }
    }

    #[test]
    fn reset_fills_identity() {
        let n = 30;
        let prog = Halver {
            vals: PropertyArray::new(n),
            acc: PropertyArray::filled_f64(n, 42.0),
            n,
        };
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        reset_accumulators(&prog, &pool, &prof);
        for v in 0..n {
            assert_eq!(prog.acc.get_f64(v), f64::INFINITY); // Min identity
        }
    }

    #[test]
    fn no_frontier_tracking_still_counts() {
        let n = 20;
        let prog = Halver {
            vals: PropertyArray::new(n),
            acc: PropertyArray::new(n),
            n,
        };
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let active = vertex_phase(&prog, &pool, None, SimdLevel::Scalar, &prof);
        assert_eq!(active, (0..n as u32).filter(|v| v % 3 == 0).count());
    }

    use crate::frontier::Frontier;
    use crate::spmv::program_kernel;
    use crate::spmv::spa::edge_push_spa;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::Kernels;

    /// Min-label propagation honouring the identity contract: an
    /// accumulator still at +∞ never beats a label.
    struct MinLabel {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl MinLabel {
        fn new(n: usize) -> Self {
            let labels = PropertyArray::new(n);
            for v in 0..n {
                labels.set_f64(v, ((v * 7919) % n) as f64);
            }
            MinLabel {
                labels,
                acc: PropertyArray::filled_f64(n, f64::INFINITY),
                n,
            }
        }
    }
    impl GraphProgram for MinLabel {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Min
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.labels
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, v: u32) -> bool {
            let agg = self.acc.get_f64(v as usize);
            if agg < self.labels.get_f64(v as usize) {
                self.labels.set_f64(v as usize, agg);
                true
            } else {
                false
            }
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn identity_apply_is_noop(&self) -> bool {
            true
        }
    }

    /// `n` vertices, each with `fanout` out-edges spread over the whole id
    /// range, so every destination chunk is hit and every destination
    /// receives `fanout` messages (duplicate touched entries).
    fn chord_graph(n: usize, fanout: usize) -> Graph {
        let mut el = EdgeList::new(n);
        for v in 0..n {
            for k in 0..fanout {
                el.push(v as u32, ((v * 7 + k * 131 + 1) % n) as u32)
                    .unwrap();
            }
        }
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    /// One SPA push from `frontier` followed by either Vertex phase.
    /// Returns (label bits, activated vertices, accumulator bits, threads
    /// that ran the sparse phase).
    fn push_then_vertex(
        g: &Graph,
        frontier: &Frontier,
        threads: usize,
        sparse: bool,
    ) -> (Vec<u64>, Vec<u32>, Vec<u64>, u32) {
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = MinLabel::new(n);
        let pool = ThreadPool::single_group(threads);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vss, Kernels::auto());
        let mut scratch = SpaScratch::new();
        edge_push_spa(&vss, &kern, frontier, &pool, &prof, &mut scratch, false);
        let (activated, parallelism) = if sparse {
            let run = sparse_vertex_phase(&prog, &pool, &scratch, &prof);
            assert_eq!(
                prof.snapshot().vertex_touched,
                scratch.touched_len() as u64,
                "every touched entry is walked and counted"
            );
            (run.activated, run.parallelism)
        } else {
            let next = DenseBitmap::new(n);
            vertex_phase(&prog, &pool, Some(&next), SimdLevel::Scalar, &prof);
            (next.iter().collect(), threads as u32)
        };
        (
            prog.labels.to_vec_u64(),
            activated,
            prog.acc.to_vec_u64(),
            parallelism,
        )
    }

    #[test]
    fn sparse_phase_matches_the_dense_sweep_inline_and_on_the_pool() {
        let g = chord_graph(6000, 8);
        let n = g.num_vertices();
        assert!(n > 2 * SPA_CHUNK_VERTICES, "fixture must span chunks");
        let identity = f64::INFINITY.to_bits();
        let wave: Vec<u32> = (0..n as u32).step_by(97).collect();
        for threads in [1usize, 2, 8] {
            for (frontier, on_pool) in [
                (Frontier::sparse(n, &wave), false),
                // 48 k touched entries: past the inline cutoff of every
                // pool wider than one thread.
                (Frontier::all(n), threads > 1),
            ] {
                let (labels, activated, acc, parallelism) =
                    push_then_vertex(&g, &frontier, threads, true);
                let (want_labels, want_activated, ..) =
                    push_then_vertex(&g, &frontier, threads, false);
                assert_eq!(labels, want_labels, "x{threads} {frontier:?}: labels");
                assert_eq!(
                    activated, want_activated,
                    "x{threads} {frontier:?}: activation set, ascending"
                );
                assert!(!activated.is_empty(), "fixture must activate something");
                assert!(
                    acc.iter().all(|&b| b == identity),
                    "x{threads} {frontier:?}: accumulators back at the identity"
                );
                let want_par = if on_pool { threads as u32 } else { 1 };
                assert_eq!(parallelism, want_par, "x{threads} {frontier:?}");
            }
        }
    }

    #[test]
    fn sparse_phase_over_an_empty_touched_list_activates_nothing() {
        let g = chord_graph(300, 2);
        let frontier = Frontier::sparse(300, &[]);
        let (_, activated, acc, parallelism) = push_then_vertex(&g, &frontier, 4, true);
        assert!(activated.is_empty());
        assert_eq!(parallelism, 1);
        assert!(acc.iter().all(|&b| b == f64::INFINITY.to_bits()));
    }

    #[test]
    fn balanced_cuts_tile_the_chunk_space_in_order() {
        let g = chord_graph(9000, 4);
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = MinLabel::new(n);
        let pool = ThreadPool::single_group(2);
        let kern = program_kernel(&prog, &vss, Kernels::auto());
        let mut scratch = SpaScratch::new();
        // Only low-numbered sources scatter, so entries are skewed and an
        // even split of chunk indices would be unbalanced.
        let low: Vec<u32> = (0..1000).collect();
        let frontier = Frontier::sparse(n, &low);
        edge_push_spa(
            &vss,
            &kern,
            &frontier,
            &pool,
            &Profiler::new(),
            &mut scratch,
            false,
        );
        let chunks = scratch.touched_chunks();
        for parts in [1usize, 2, 3, 8, 64] {
            let cuts = balanced_chunk_cuts(&scratch, parts);
            assert_eq!(cuts.len(), parts + 1);
            assert_eq!((cuts[0], cuts[parts]), (0, chunks));
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            let share = scratch.touched_len().div_ceil(parts);
            let largest_chunk = (0..chunks).map(|c| scratch.chunk_len(c)).max().unwrap();
            for w in cuts.windows(2) {
                let held: usize = (w[0]..w[1]).map(|c| scratch.chunk_len(c)).sum();
                assert!(
                    held <= share + largest_chunk,
                    "range {w:?} holds {held} of {} entries over {parts} parts",
                    scratch.touched_len()
                );
            }
        }
    }
}
