//! 8-lane (512-bit) Edge-Pull — the engine-level instantiation of the
//! paper's AVX-512 sketch (§4: the format's "underlying ideas are
//! generalizable to … longer vectors").
//!
//! This variant runs the same scheduler-aware algorithm as
//! [`edge_pull`](crate::engine::pull::edge_pull) over a
//! [`VectorSparse<8>`] structure with the [`Kernels8`](grazelle_vsparse::simd::Kernels8) gather set. It
//! supports the unweighted edge function (`Value`) with any aggregation
//! operator — enough to drive PageRank/CC/BFS-shaped Edge phases for the
//! vector-width ablation. The trade it quantifies: half as many vectors
//! per edge set, but lower packing efficiency (paper Figure 9) and, on
//! many parts, slower 512-bit gathers.

use crate::engine::pull::{merge_fold, MergeEntry};
use crate::frontier::Frontier;
use crate::spmv::{frontier_lane_mask8, EdgeKernel};
use crate::stats::Profiler;
use crate::trace::SpanClock;
use grazelle_sched::chunks::ChunkScheduler;
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::active::ActiveVectorList;
use grazelle_vsparse::build::VectorSparse;
use std::ops::Range;

/// Runs one scheduler-aware Edge-Pull phase over an 8-lane structure.
///
/// When `active` is `Some`, the chunk loop runs over the compacted
/// active-vector space instead of the full edge array — the 8-lane
/// instantiation of the frontier-aware pull path (DESIGN.md §11). The
/// list must have been built from `vsd8.index()`.
///
/// Restrictions relative to the 4-lane engine: single group, unweighted
/// edge function (enforced by [`crate::spmv::SemiringKernel::for_structure8`]),
/// merge buffer allocated per call. The merge buffer and its sequential
/// fold are the 4-lane engine's.
pub fn edge_pull8<K: EdgeKernel>(
    vsd8: &VectorSparse<8>,
    kernel: &K,
    frontier: &Frontier,
    active: Option<&ActiveVectorList>,
    pool: &ThreadPool,
    num_chunks: usize,
    prof: &Profiler,
) {
    let accum = kernel.accumulators();
    let op = kernel.op();
    let conv = kernel.converged();
    let total = active.map_or(vsd8.num_vectors(), |a| a.total_vectors());
    let sched = ChunkScheduler::new(total, num_chunks);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(sched.num_chunks());
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        t.begin_phase(vsd8.num_vertices(), sched.num_chunks());
        if let Some(a) = active {
            t.restrict_to_active(
                a.ranges()
                    .iter()
                    .flat_map(|r| r.clone())
                    .map(|i| vsd8.vectors()[i].top_level_vertex() as usize),
            );
        }
    }

    pool.run(|_ctx| {
        let started = SpanClock::start();
        let mut direct_stores = 0u64;
        // One chunk over its ascending runs of real vector indices.
        let mut run_chunk = |chunk: usize, runs: &mut dyn Iterator<Item = Range<usize>>| {
            let mut indices = runs.flatten();
            let Some(first) = indices.next() else {
                return;
            };
            let mut prev_dest = vsd8.vectors()[first].top_level_vertex();
            let mut partial = op.identity();
            for i in std::iter::once(first).chain(indices) {
                let ev = &vsd8.vectors()[i];
                let dst = ev.top_level_vertex();
                if dst != prev_dest {
                    // DISJOINT: interior-owned — audited by the shadow write-tracker
                    accum.set_f64(prev_dest as usize, partial);
                    #[cfg(feature = "invariant-checks")]
                    if let Some(t) = prof.tracker.as_ref() {
                        t.record_interior_store(prev_dest as usize, _ctx.global_id);
                    }
                    direct_stores += 1;
                    prev_dest = dst;
                    partial = op.identity();
                }
                if let Some(c) = conv {
                    if c.contains(dst as u32) {
                        continue;
                    }
                }
                let mask = frontier_lane_mask8(frontier, ev);
                if mask == 0 {
                    continue;
                }
                // SAFETY: coverage validated at kernel construction.
                let contrib = unsafe { kernel.gather8(ev, i, mask) };
                partial = op.combine(partial, contrib);
            }
            #[cfg(feature = "invariant-checks")]
            if let Some(t) = prof.tracker.as_ref() {
                t.record_slot_claim(chunk, _ctx.global_id);
            }
            let entry = MergeEntry {
                dest: prev_dest,
                value: partial,
            };
            // SAFETY: unique chunk ownership via the scheduler.
            unsafe { merge.write(chunk, entry) };
        };
        while let Some(chunk) = sched.next_chunk() {
            // The chunk's own range over the full array, or its compacted
            // positions resolved back to real indices.
            match active {
                None => run_chunk(chunk.id, &mut std::iter::once(chunk.range)),
                Some(a) => run_chunk(chunk.id, &mut a.real_ranges(chunk.range)),
            }
        }
        prof.add(&prof.work_ns, started.elapsed_ns());
        prof.add(&prof.direct_stores, direct_stores);
    });
    prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);

    merge_fold(accum, op, &mut merge, prof);
    // Audit the §3 contract for this Edge phase (see `edge_pull`).
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        t.end_phase().assert_clean();
    }
    prof.add(&prof.vectors_processed, total as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pull::{edge_pull, EdgeSchedulers};
    use crate::program::{AggOp, GraphProgram};
    use crate::properties::PropertyArray;
    use crate::spmv::{program_kernel, SemiringKernel};
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::simd::{detect8, Kernels, Kernels8, Simd8Level};

    struct SumProg {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl GraphProgram for SumProg {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Sum
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
            false
        }
    }

    fn test_graph() -> Graph {
        let mut el = EdgeList::new(130);
        for v in 1..130u32 {
            el.push(v, 0).unwrap(); // hub spans multiple 8-lane vectors
            el.push(v, v - 1).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    fn run8(level: Simd8Level, chunks: usize, frontier: &Frontier) -> Vec<f64> {
        let g = test_graph();
        let vsd8 = VectorSparse::<8>::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::new(n),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        for v in 0..n {
            prog.vals.set_f64(v, (v % 9) as f64 + 1.0);
        }
        let pool = ThreadPool::single_group(3);
        let prof = Profiler::new();
        let kern = SemiringKernel::for_structure8(&prog, &vsd8, Kernels8::with_level(level));
        edge_pull8(&vsd8, &kern, frontier, None, &pool, chunks, &prof);
        prog.acc.to_vec_f64()
    }

    /// Destinations with at least one frontier-active in-neighbor, read
    /// straight off the 8-lane structure (what the drivers compute via
    /// `active_vector_list` on the 4-lane side).
    fn active_destinations(vsd8: &VectorSparse<8>, frontier: &Frontier) -> Vec<u64> {
        let mut dests: Vec<u64> = vsd8
            .vectors()
            .iter()
            .filter(|ev| {
                (0..8).any(|l| {
                    ev.neighbor(l)
                        .is_some_and(|src| frontier.contains(src as u32))
                })
            })
            .map(|ev| ev.top_level_vertex())
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    fn reference_4lane(frontier: &Frontier) -> Vec<f64> {
        let g = test_graph();
        let vsd = VectorSparse::<4>::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::new(n),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        for v in 0..n {
            prog.vals.set_f64(v, (v % 9) as f64 + 1.0);
        }
        let pool = ThreadPool::single_group(3);
        let scheds = EdgeSchedulers::single(vsd.num_vectors(), 7);
        let mut merge = SlotBuffer::new(scheds.total_chunks());
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            frontier,
            &pool,
            &scheds,
            None,
            &mut merge,
            crate::config::PullMode::SchedulerAware,
            None,
            &prof,
        );
        prog.acc.to_vec_f64()
    }

    #[test]
    fn eight_lane_matches_four_lane_all_frontier() {
        let n = test_graph().num_vertices();
        let want = reference_4lane(&Frontier::all(n));
        for level in [Simd8Level::Scalar, detect8()] {
            for chunks in [1usize, 5, 64] {
                let got = run8(level, chunks, &Frontier::all(n));
                for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{level:?}/{chunks} chunks v{v}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_lane_respects_frontier() {
        let n = test_graph().num_vertices();
        let active: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 0).collect();
        let frontier = Frontier::from_vertices(n, &active);
        let want = reference_4lane(&frontier);
        let got = run8(detect8(), 9, &frontier);
        assert_eq!(got.len(), want.len());
        for (v, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "v{v}: {a} vs {b}");
        }
    }

    #[test]
    fn eight_lane_writes_without_synchronization() {
        let g = test_graph();
        let vsd8 = VectorSparse::<8>::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = SemiringKernel::for_structure8(&prog, &vsd8, Kernels8::auto());
        edge_pull8(&vsd8, &kern, &Frontier::all(n), None, &pool, 8, &prof);
        let p = prof.snapshot();
        assert_eq!(p.atomic_updates, 0);
        assert!(p.direct_stores + p.merge_entries > 0);
    }

    #[test]
    fn eight_lane_compacted_matches_dense() {
        let g = test_graph();
        let vsd8 = VectorSparse::<8>::from_csr(g.in_csr());
        let n = g.num_vertices();
        for stride in [3usize, 7, 50] {
            let sources: Vec<u32> = (0..n as u32)
                .filter(|v| (*v as usize).is_multiple_of(stride))
                .collect();
            let frontier = Frontier::from_vertices(n, &sources);
            let list =
                ActiveVectorList::from_active(vsd8.index(), active_destinations(&vsd8, &frontier));
            for chunks in [1usize, 4, 16] {
                let mut results = Vec::new();
                for active in [None, Some(&list)] {
                    let prog = SumProg {
                        vals: PropertyArray::new(n),
                        acc: PropertyArray::filled_f64(n, 0.0),
                        n,
                    };
                    for v in 0..n {
                        prog.vals.set_f64(v, (v % 9) as f64 + 1.0);
                    }
                    let pool = ThreadPool::single_group(3);
                    let prof = Profiler::new();
                    let kern = SemiringKernel::for_structure8(&prog, &vsd8, Kernels8::auto());
                    edge_pull8(&vsd8, &kern, &frontier, active, &pool, chunks, &prof);
                    results.push(prog.acc.to_vec_f64());
                }
                assert_eq!(
                    results[0], results[1],
                    "stride {stride}, {chunks} chunks: compacted 8-lane pull diverged"
                );
            }
        }
    }

    #[test]
    fn eight_lane_compacted_handles_an_empty_active_set() {
        let g = test_graph();
        let vsd8 = VectorSparse::<8>::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let list = ActiveVectorList::from_active(vsd8.index(), std::iter::empty());
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = SemiringKernel::for_structure8(&prog, &vsd8, Kernels8::auto());
        edge_pull8(
            &vsd8,
            &kern,
            &Frontier::from_vertices(n, &[]),
            Some(&list),
            &pool,
            8,
            &prof,
        );
        assert!(prog.acc.to_vec_f64().iter().all(|&x| x == 0.0));
    }
}
