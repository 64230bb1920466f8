//! Triangle counting via the masked-SpMV core (DESIGN.md §16).
//!
//! The Edge phase runs [`IntersectKernel`]: for each edge `(u, v)` the
//! message is `|N(u) ∩ N(v)|` — a masked dot-product over sorted adjacency
//! lists — reduced with `Sum`. On a symmetric simple graph one phase leaves
//! `acc[v] = 2·t(v)` and the global count is `Σ_v acc[v] / 6`.
//!
//! Triangle counting is a single-superstep computation, so it bypasses the
//! hybrid run loop: [`counts_prepared`] drives the kernel-level Edge-phase
//! entry points directly, honoring the configuration's engine pin, pull
//! mode, and frontier-aware compaction — the same knobs the iterative
//! drivers expose — and [`counts_resilient`] runs the same phase through
//! the containment layer (chunk retry, watchdog, sequential degrade). All
//! messages are exact small integers, so every path is bit-identical.

use grazelle_core::config::{EngineConfig, PullMode};
use grazelle_core::direction::choose_scatter;
use grazelle_core::engine::hybrid::EngineKind;
use grazelle_core::engine::pull::{
    active_vector_list, edge_pull, Containment, EdgeSchedulers, MergeEntry, PullStatus,
};
use grazelle_core::engine::push::edge_push_with_mode;
use grazelle_core::engine::resilient::{EngineError, ResilienceContext};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::Frontier;
use grazelle_core::spmv::spa::SpaScratch;
use grazelle_core::spmv::{sorted_intersect_count, IntersectKernel};
use grazelle_core::stats::Profiler;
use grazelle_core::trace::Deadline;
use grazelle_graph::graph::Graph;
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;

/// Result of a triangle count: the global count plus the per-vertex
/// incidence counts `t(v)` (triangles through each vertex).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangleCounts {
    /// Global triangle count.
    pub total: u64,
    /// `t(v)` per vertex (each triangle appears at three vertices).
    pub per_vertex: Vec<u64>,
}

fn finish(kern: &IntersectKernel) -> TriangleCounts {
    let per_vertex: Vec<u64> = (0..kern.num_vertices())
        .map(|v| {
            let twice = kern.per_vertex().get_f64(v) as u64;
            debug_assert!(twice.is_multiple_of(2), "acc[v] must be 2·t(v)");
            twice / 2
        })
        .collect();
    TriangleCounts {
        total: kern.total_triangles(),
        per_vertex,
    }
}

/// One Edge phase over the prepared structures, honoring `cfg.force_engine`
/// (pull unless pinned to push — the intersect gathers are where the SIMD
/// masks pay), `cfg.pull_mode`, and `cfg.frontier_pull` (the compacted path
/// over an all-active frontier degenerates to the dense space and is gated
/// off unless forced via a seeded frontier in tests).
pub fn counts_prepared(
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> TriangleCounts {
    let kern = IntersectKernel::from_graph(g);
    let frontier = Frontier::all(pg.num_vertices);
    let prof = Profiler::new();
    let use_pull = !matches!(cfg.force_engine, Some(EngineKind::Push));
    if use_pull {
        let scheds = EdgeSchedulers::new(cfg, &pg.vsd, pool);
        let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
        edge_pull(
            &pg.vsd,
            &kern,
            &frontier,
            pool,
            &scheds,
            None,
            &mut merge,
            cfg.pull_mode,
            None,
            &prof,
        );
    } else {
        // Single superstep over an all-active frontier: every edge scatters,
        // so the scatter policy sees the full edge count (DESIGN.md §17).
        let mode = choose_scatter(
            cfg.scatter_mode,
            g.num_edges() as u64,
            pg.num_vertices,
            false,
        );
        let mut spa_scratch = SpaScratch::new();
        edge_push_with_mode(
            &pg.vss,
            &kern,
            &frontier,
            pool,
            &prof,
            mode,
            &mut spa_scratch,
            false,
        );
    }
    finish(&kern)
}

/// The compacted-pull arm: runs the Edge phase over the active-vector list
/// built from `seed` (the destinations that may receive messages). With a
/// full seed this must match [`counts_prepared`] bit-for-bit; a partial
/// seed computes the counts restricted to those destinations.
pub fn counts_compacted(
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    seed: &Frontier,
) -> TriangleCounts {
    assert_eq!(
        cfg.pull_mode,
        PullMode::SchedulerAware,
        "the compacted pull is a scheduler-aware path"
    );
    let kern = IntersectKernel::from_graph(g);
    let prof = Profiler::new();
    let active = active_vector_list(&pg.vsd, &pg.vss, seed, None);
    let scheds = EdgeSchedulers::compact(cfg, active.total_vectors(), pool);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
    edge_pull(
        &pg.vsd,
        &kern,
        seed,
        pool,
        &scheds,
        Some(&active),
        &mut merge,
        cfg.pull_mode,
        None,
        &prof,
    );
    finish(&kern)
}

/// The 8-lane (AVX-512 extension) arm: one Edge phase through
/// [`edge_pull8`](grazelle_core::engine::pull_wide::edge_pull8) over a
/// `VectorSparse<8>` encoding of the same in-orientation.
pub fn counts_wide(g: &Graph, pool: &ThreadPool, chunks: usize) -> TriangleCounts {
    use grazelle_core::engine::pull_wide::edge_pull8;
    use grazelle_vsparse::build::VectorSparse;
    let kern = IntersectKernel::from_graph(g);
    let vsd8 = VectorSparse::<8>::from_csr(g.in_csr());
    let prof = Profiler::new();
    let frontier = Frontier::all(g.num_vertices());
    edge_pull8(&vsd8, &kern, &frontier, None, pool, chunks.max(1), &prof);
    finish(&kern)
}

/// The resilient arm: the same single Edge phase through the containment
/// layer — chunk panics retry and degrade to the sequential scalar redo,
/// a blown watchdog surfaces as [`EngineError::Stalled`]. Bit-identical to
/// [`counts_prepared`] on any non-erroring path (integer messages).
pub fn counts_resilient(
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
) -> Result<TriangleCounts, EngineError> {
    let kern = IntersectKernel::from_graph(g);
    let frontier = Frontier::all(pg.num_vertices);
    let prof = Profiler::new();
    let scheds = EdgeSchedulers::new(cfg, &pg.vsd, pool);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
    let deadline = cfg.resilience.watchdog.map(Deadline::after);
    if let Some(inj) = rctx.injector {
        inj.set_iteration(0);
    }
    let contain = Containment {
        deadline,
        max_chunk_retries: cfg.resilience.max_chunk_retries,
        injector: rctx.injector,
    };
    // Containment implies the scheduler-aware interface, whatever
    // `cfg.pull_mode` says (chunk retry is only sound under it).
    let status = edge_pull(
        &pg.vsd,
        &kern,
        &frontier,
        pool,
        &scheds,
        None,
        &mut merge,
        PullMode::SchedulerAware,
        Some(&contain),
        &prof,
    );
    match status {
        PullStatus::Completed | PullStatus::Degraded => Ok(finish(&kern)),
        PullStatus::Stalled => Err(EngineError::Stalled { iteration: 0 }),
    }
}

/// Convenience entry point: global count on a fresh pool.
pub fn count(g: &Graph, cfg: &EngineConfig) -> u64 {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    counts_prepared(g, &pg, cfg, &pool).total
}

/// Sequential reference: the same adjacency intersection, driven directly
/// over the out-lists with no engine involved.
pub fn reference(g: &Graph) -> TriangleCounts {
    let n = g.num_vertices();
    // Sorted, deduplicated, loop-free adjacency (mirrors the kernel's).
    let adj: Vec<Vec<u32>> = (0..n as u32)
        .map(|v| {
            let mut a: Vec<u32> = g
                .out_neighbors(v)
                .iter()
                .copied()
                .filter(|&u| u != v)
                .collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();
    let mut per_vertex = vec![0u64; n];
    let mut sum = 0u64;
    for v in 0..n {
        let mut twice = 0u64;
        for &u in &adj[v] {
            twice += sorted_intersect_count(&adj[u as usize], &adj[v]);
        }
        per_vertex[v] = twice / 2;
        sum += twice;
    }
    TriangleCounts {
        total: sum / 6,
        per_vertex,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};

    fn symmetric_graph(pairs: &[(u32, u32)], n: usize) -> Graph {
        let mut el = EdgeList::from_pairs(n, pairs).unwrap();
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn one_triangle() {
        let g = symmetric_graph(&[(0, 1), (1, 2), (2, 0)], 3);
        let got = reference(&g);
        assert_eq!(got.total, 1);
        assert_eq!(got.per_vertex, vec![1, 1, 1]);
        assert_eq!(count(&g, &EngineConfig::new().with_threads(2)), 1);
    }

    #[test]
    fn clique_counts_are_binomial() {
        // K6: C(6,3) = 20 triangles, each vertex on C(5,2) = 10.
        let pairs: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b)))
            .collect();
        let g = symmetric_graph(&pairs, 6);
        let got = reference(&g);
        assert_eq!(got.total, 20);
        assert!(got.per_vertex.iter().all(|&t| t == 10));
        assert_eq!(count(&g, &EngineConfig::new().with_threads(2)), 20);
    }

    #[test]
    fn stars_and_bipartite_graphs_have_no_triangles() {
        let star: Vec<(u32, u32)> = (1..8u32).map(|v| (0, v)).collect();
        assert_eq!(count(&symmetric_graph(&star, 8), &EngineConfig::new()), 0);
        let bipartite: Vec<(u32, u32)> = (0..3u32)
            .flat_map(|a| (3..7u32).map(move |b| (a, b)))
            .collect();
        assert_eq!(
            count(&symmetric_graph(&bipartite, 7), &EngineConfig::new()),
            0
        );
    }

    #[test]
    fn self_loops_do_not_count() {
        let g = symmetric_graph(&[(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)], 3);
        assert_eq!(count(&g, &EngineConfig::new()), 1);
    }

    #[test]
    fn every_arm_matches_the_reference_on_rmat() {
        let mut el = rmat(&RmatConfig::graph500(9, 6.0, 21));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let want = reference(&g);
        assert!(want.total > 0, "rmat fixture must contain triangles");
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let base = EngineConfig::new().with_threads(threads);
            // TraditionalNoAtomic is the paper's deliberately unsynchronized
            // Fig 5/8 baseline: a destination whose edge vectors straddle a
            // chunk boundary is read-modify-written by two threads at once,
            // and a lost update is a lost triangle. It is exact only where
            // no second writer exists — one thread.
            let exact_modes: &[PullMode] = if threads == 1 {
                &[
                    PullMode::SchedulerAware,
                    PullMode::Traditional,
                    PullMode::TraditionalNoAtomic,
                ]
            } else {
                &[PullMode::SchedulerAware, PullMode::Traditional]
            };
            for &mode in exact_modes {
                let cfg = base.with_pull_mode(mode);
                assert_eq!(
                    counts_prepared(&g, &pg, &cfg, &pool),
                    want,
                    "pull/{mode:?}x{threads}"
                );
            }
            let cfg = base.with_force_engine(Some(EngineKind::Push));
            assert_eq!(
                counts_prepared(&g, &pg, &cfg, &pool),
                want,
                "push x{threads}"
            );
            let full = Frontier::all(g.num_vertices());
            assert_eq!(
                counts_compacted(&g, &pg, &base, &pool, &full),
                want,
                "compacted x{threads}"
            );
            assert_eq!(counts_wide(&g, &pool, 4 * threads), want, "wide x{threads}");
            let run = counts_resilient(&g, &pg, &base, &ResilienceContext::new(), &pool)
                .expect("clean resilient phase");
            assert_eq!(run, want, "resilient x{threads}");
        }
    }
}
