//! Edge-Push: the traditional-interface push engine.
//!
//! Push iterates *sources* (so it can skip inactive frontier entries
//! cheaply) and scatters updates to destinations with per-edge synchronized
//! read-modify-writes — the paper's Listing 1. Its outer loop uses the
//! traditional interface on purpose: updates go to arbitrary destinations,
//! so there is no chunk-local aggregation to exploit, and AVX2 offers no
//! atomic-update-scatter, so the inner loop stays scalar (§6.2).

use crate::config::ScatterMode;
use crate::frontier::Frontier;
use crate::spmv::spa::{edge_push_spa, SpaScratch};
use crate::spmv::{scatter_combine, EdgeKernel};
use crate::stats::Profiler;
use crate::trace::SpanClock;
use grazelle_sched::chunks::ChunkScheduler;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::Vss;
use std::sync::atomic::Ordering;

/// Runs one Edge-Push phase with the given scatter discipline: the
/// synchronized per-edge scatter ([`edge_push`]) or the SPA bucketed
/// pipeline ([`edge_push_spa`]). The drivers pass the *resolved* mode from
/// [`crate::direction::Decision::scatter`]; a raw [`ScatterMode::Auto`]
/// (from a direct caller bypassing the cost model) falls back to the
/// synchronized arm. `scratch` holds the SPA arm's reusable bucket storage
/// (ignored by the synchronized arm) — drivers keep one per execution.
/// `pool_parked` is forwarded to [`edge_push_spa`]: true only when the
/// caller knows nothing has woken the pool since the previous superstep's
/// Edge phase. Returns the number of threads that ran the phase.
#[allow(clippy::too_many_arguments)]
pub fn edge_push_with_mode<K: EdgeKernel>(
    vss: &Vss,
    kernel: &K,
    frontier: &Frontier,
    pool: &ThreadPool,
    prof: &Profiler,
    mode: ScatterMode,
    scratch: &mut SpaScratch,
    pool_parked: bool,
) -> u32 {
    match mode {
        ScatterMode::Spa => edge_push_spa(vss, kernel, frontier, pool, prof, scratch, pool_parked),
        ScatterMode::Atomic | ScatterMode::Auto => {
            edge_push(vss, kernel, frontier, pool, prof);
            pool.num_threads() as u32
        }
    }
}

/// Runs one Edge-Push phase over the active sources in `frontier`. The
/// kernel supplies the per-edge [`EdgeKernel::message`]; the scatter
/// discipline ([`scatter_combine`]) is shared with the traditional pull arm.
pub fn edge_push<K: EdgeKernel>(
    vss: &Vss,
    kernel: &K,
    frontier: &Frontier,
    pool: &ThreadPool,
    prof: &Profiler,
) {
    let n = vss.num_vertices();
    let accum = kernel.accumulators();
    let conv = kernel.converged();
    let op = kernel.op();
    let write_intense = kernel.write_intense();
    let weights = vss.weight_vectors();
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();

    // Group partitioning (the paper's NUMA placement, §5): each group owns
    // a contiguous, edge-balanced source-vertex range of the VSS array and
    // its threads claim work only from it.
    let groups = pool.num_groups();
    let parts = grazelle_graph::partition::partition_index(vss.index(), groups);

    // Work-item geometry depends on the frontier representation: one
    // bitmap word (64 sources, scanned with `tzcnt`) for All/Dense, one
    // slice of the vertex list for Sparse. The sparse path is what makes
    // near-empty frontiers O(|F|) instead of O(|V|/64).
    // `items[g]` is the per-group iteration space; for All/Dense it is a
    // word range, for Sparse a slice of the sorted active list.
    struct GroupSpace {
        sched: ChunkScheduler,
        // All/Dense: first word index. Sparse: first list index.
        base: usize,
    }
    let spaces: Vec<GroupSpace> = parts
        .iter()
        .enumerate()
        .map(|(g, p)| {
            let threads = grazelle_sched::pool::group_range(g, groups, pool.num_threads()).len();
            match frontier {
                Frontier::Sparse { vertices, .. } => {
                    let lo = vertices.partition_point(|&v| v < p.first_vertex);
                    let hi = vertices.partition_point(|&v| v < p.last_vertex);
                    GroupSpace {
                        sched: ChunkScheduler::with_default_granularity(hi - lo, threads),
                        base: lo,
                    }
                }
                _ => {
                    let first_word = (p.first_vertex as usize) / 64;
                    let end_word = if p.last_vertex == p.first_vertex {
                        first_word
                    } else {
                        (p.last_vertex as usize - 1) / 64 + 1
                    };
                    GroupSpace {
                        sched: ChunkScheduler::with_default_granularity(
                            end_word - first_word,
                            threads,
                        ),
                        base: first_word,
                    }
                }
            }
        })
        .collect();

    let process_source = |src: u32, updates: &mut u64| {
        for vi in vss.vector_range(src) {
            let ev = &vss.vectors()[vi];
            for lane in 0..4 {
                let Some(dst) = ev.neighbor(lane) else {
                    continue;
                };
                let dst = dst as u32;
                if let Some(c) = conv {
                    if c.contains(dst) {
                        continue;
                    }
                }
                let w = weights.map_or(0.0, |ws| ws[vi][lane]);
                let msg = kernel.message(src, dst, w);
                *updates += 1;
                scatter_combine(op, write_intense, accum, dst as usize, msg);
            }
        }
    };

    pool.run(|ctx| {
        let started = SpanClock::start();
        let mut updates = 0u64;
        let g = ctx.group_id.min(spaces.len() - 1);
        let space = &spaces[g];
        let part = &parts[g];
        while let Some(chunk) = space.sched.next_chunk() {
            for local in chunk.range {
                let item = space.base + local;
                match frontier {
                    Frontier::All { .. } => {
                        // Clip boundary words to the group's vertex range.
                        let first = (item * 64).max(part.first_vertex as usize);
                        let last = ((item + 1) * 64).min(n).min(part.last_vertex as usize);
                        for src in first..last {
                            process_source(src as u32, &mut updates);
                        }
                    }
                    Frontier::Dense(bm) => {
                        // ATOMIC: relaxed-cell — frontier-bitmap snapshot;
                        // the frontier is frozen during the Edge phase
                        let mut bits = bm.words()[item].load(Ordering::Relaxed);
                        while bits != 0 {
                            let tz = bits.trailing_zeros();
                            bits &= bits - 1;
                            let src = (item * 64 + tz as usize) as u32;
                            if src >= part.first_vertex && src < part.last_vertex {
                                process_source(src, &mut updates);
                            }
                        }
                    }
                    Frontier::Sparse { vertices, .. } => {
                        process_source(vertices[item], &mut updates);
                    }
                }
            }
        }
        // ATOMIC: relaxed-counter
        prof.work_ns
            .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
        prof.push_updates.fetch_add(updates, Ordering::Relaxed); // ATOMIC: relaxed-counter
    });
    prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AggOp, GraphProgram};
    use crate::properties::PropertyArray;
    use crate::spmv::program_kernel;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::Kernels;

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

    #[test]
    fn push_all_matches_pull_reference() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = SumProg {
            vals: PropertyArray::new(n),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        for v in 0..n {
            prog.vals.set_f64(v, (v % 7) as f64 + 1.0);
        }
        let pool = ThreadPool::single_group(4);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vss, Kernels::auto());
        edge_push(&vss, &kern, &Frontier::all(n), &pool, &prof);
        for v in 0..n as u32 {
            let expect: f64 = g
                .in_neighbors(v)
                .iter()
                .map(|&s| prog.vals.get_f64(s as usize))
                .sum();
            assert!(
                (prog.acc.get_f64(v as usize) - expect).abs() < 1e-9,
                "vertex {v}"
            );
        }
        let p = prof.snapshot();
        assert_eq!(p.push_updates, g.num_edges() as u64);
    }

    #[test]
    fn push_respects_sparse_frontier() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let frontier = Frontier::from_vertices(n, &[0]); // only the hub
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vss, Kernels::auto());
        edge_push(&vss, &kern, &frontier, &pool, &prof);
        // Only vertex 0's out-edges fired.
        let total: f64 = (0..n).map(|v| prog.acc.get_f64(v)).sum();
        assert_eq!(total, g.out_degree(0) as f64);
        assert_eq!(prof.snapshot().push_updates, g.out_degree(0) as u64);
    }

    #[test]
    fn push_group_partitioning_matches_single_group() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let active = [0u32, 3, 64, 65, 80, 149];
        let run = |groups: usize, frontier: Frontier| {
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::new(4, groups);
            let prof = Profiler::new();
            let kern = program_kernel(&prog, &vss, Kernels::auto());
            edge_push(&vss, &kern, &frontier, &pool, &prof);
            (prog.acc.to_vec_f64(), prof.snapshot().push_updates)
        };
        let make = |which: usize| -> Frontier {
            match which {
                0 => Frontier::all(n),
                1 => Frontier::from_vertices(n, &active),
                _ => Frontier::sparse(n, &active),
            }
        };
        for groups in [2usize, 3, 4] {
            for which in 0..3 {
                let (base_acc, base_updates) = run(1, make(which));
                let (acc, updates) = run(groups, make(which));
                assert_eq!(acc, base_acc, "groups={groups} frontier {which}");
                assert_eq!(updates, base_updates, "groups={groups} frontier {which}");
            }
        }
    }

    #[test]
    fn push_sparse_frontier_matches_dense() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let active = [0u32, 5, 17, 99, 140];
        let run = |frontier: Frontier| {
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::single_group(3);
            let prof = Profiler::new();
            let kern = program_kernel(&prog, &vss, Kernels::auto());
            edge_push(&vss, &kern, &frontier, &pool, &prof);
            (prog.acc.to_vec_f64(), prof.snapshot().push_updates)
        };
        let (dense_acc, dense_updates) = run(Frontier::from_vertices(n, &active));
        let (sparse_acc, sparse_updates) = run(Frontier::sparse(n, &active));
        assert_eq!(dense_acc, sparse_acc);
        assert_eq!(dense_updates, sparse_updates);
        let expect: u64 = active.iter().map(|&v| g.out_degree(v) as u64).sum();
        assert_eq!(sparse_updates, expect);
    }

    #[test]
    fn scatter_mode_dispatch_is_bit_identical_across_arms() {
        let g = graph();
        let n = g.num_vertices();
        let vss = VectorSparse::from_csr(g.out_csr());
        let run = |mode: ScatterMode, threads: usize| {
            let prog = SumProg {
                vals: PropertyArray::new(n),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            // Rounding-sensitive values so bit-equality pins combine order.
            for v in 0..n {
                prog.vals.set_f64(v, 1.0 / (v as f64 + 1.5));
            }
            let pool = ThreadPool::single_group(threads);
            let prof = Profiler::new();
            let kern = program_kernel(&prog, &vss, Kernels::auto());
            let mut scratch = SpaScratch::new();
            edge_push_with_mode(
                &vss,
                &kern,
                &Frontier::all(n),
                &pool,
                &prof,
                mode,
                &mut scratch,
                false,
            );
            let bits: Vec<u64> = (0..n).map(|v| prog.acc.get_f64(v).to_bits()).collect();
            (bits, prof.snapshot().push_updates)
        };
        let (want, want_updates) = run(ScatterMode::Atomic, 1);
        for threads in [1usize, 2, 8] {
            let (got, updates) = run(ScatterMode::Spa, threads);
            assert_eq!(got, want, "spa x{threads}");
            assert_eq!(updates, want_updates, "spa x{threads}: updates");
        }
    }

    #[test]
    fn push_skips_converged_destinations() {
        use crate::frontier::DenseBitmap;
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
        let prog = ConvProg {
            inner: SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            },
            conv,
        };
        let pool = ThreadPool::single_group(2);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vss, Kernels::auto());
        edge_push(&vss, &kern, &Frontier::all(n), &pool, &prof);
        assert_eq!(prog.inner.acc.get_f64(1), 0.0, "converged dst updated");
    }
}
