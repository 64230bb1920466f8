//! Single-Source Shortest-Paths (the paper's described extension).
//!
//! "Single-Source Shortest-Paths uses edge weights and initializes the
//! frontier to contain just a single vertex. It otherwise behaves the same
//! way as Connected Components, all the way down to the use of minimization
//! as its aggregation operator" (§6). The Edge phase is min-plus: each
//! in-edge proposes `dist[src] + weight`, aggregated with Min — the
//! [`MinPlus`](grazelle_vsparse::simd::MinPlus) reduction on the pull side.
//!
//! The operator is the paper's; the schedule is not. Sending every vertex
//! that improved (label correcting) relaxes an edge once per improvement of
//! its source — ≈15 times on a road mesh. [`Sssp`] declares a
//! [`GraphProgram::bucket_width`] of [`BUCKET_WIDTH_PER_MEAN_WEIGHT`] mean
//! edge weights, so a plain run ([`run_prepared`], `run_program*`) on a
//! weighted structure holds active vertices back in buckets that wide and
//! sends the lowest bucket only (Δ-stepping; DESIGN.md §18): within ≈1.2×
//! of Dijkstra's relaxations. A bucket small enough is drained in place on
//! the calling thread, each relaxation applied as it is made. The schedule
//! is off, and the run label-correcting as before, under fault containment
//! (`run_resilient*`, i.e. every served query), over a delta overlay, and
//! when the structure's mean weight is zero or the width not finite.
//! Distances are the same bits either way — monotone Min relaxation has one
//! fixpoint whichever vertices are sent first; iteration counts are not.
//!
//! Weights must be non-negative.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::Frontier;
use grazelle_core::program::{AggOp, EdgeFunc, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::Vss;

/// Bucket width of SSSP's priority schedule, in mean edge weights of the
/// structure being run: Δ-stepping's Δ. Narrow buckets send fewer vertices
/// twice but take more iterations; wide ones approach the label-correcting
/// schedule (every improved vertex, every superstep). On the road mesh
/// relaxations stay within 1.2× of Dijkstra's and the solve time is flat
/// across 4–16 (sweep in EXPERIMENTS.md "Work-efficient SSSP"), so this is
/// a constant, not a knob. It moves iteration counts, never results.
pub const BUCKET_WIDTH_PER_MEAN_WEIGHT: f64 = 8.0;

/// SSSP program state.
pub struct Sssp {
    n: usize,
    root: VertexId,
    /// Tentative distances (+∞ = unreached).
    dists: PropertyArray,
    /// Min-plus accumulators.
    acc: PropertyArray,
}

impl Sssp {
    /// SSSP from `root`.
    pub fn new(n: usize, root: VertexId) -> Self {
        assert!((root as usize) < n, "root out of range");
        let dists = PropertyArray::filled_f64(n, f64::INFINITY);
        dists.set_f64(root as usize, 0.0);
        Sssp {
            n,
            root,
            dists,
            acc: PropertyArray::new(n),
        }
    }

    /// Final distances (`None` = unreachable).
    pub fn distances(&self) -> Vec<Option<f64>> {
        (0..self.n)
            .map(|v| {
                let d = self.dists.get_f64(v);
                d.is_finite().then_some(d)
            })
            .collect()
    }
}

impl GraphProgram for Sssp {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Min
    }

    fn edge_func(&self) -> EdgeFunc {
        EdgeFunc::ValuePlusWeight
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.dists
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let old = self.dists.get_f64(v);
        let agg = self.acc.get_f64(v);
        if agg < old {
            self.dists.set_f64(v, agg);
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

    fn bucket_width(&self, structure: &Vss) -> Option<f64> {
        structure
            .mean_weight()
            .map(|mean| BUCKET_WIDTH_PER_MEAN_WEIGHT * mean)
            .filter(|width| *width > 0.0 && width.is_finite())
    }

    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &[self.root])
    }
}

/// Runs SSSP from `root`; the graph must be weighted with non-negative
/// weights.
pub fn run_prepared(
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    root: VertexId,
) -> (Vec<Option<f64>>, ExecutionStats) {
    let prog = Sssp::new(pg.num_vertices, root);
    let stats = run_program_on_pool(pg, &prog, cfg, pool);
    (prog.distances(), stats)
}

/// Convenience entry point.
pub fn run(g: &Graph, cfg: &EngineConfig, root: VertexId) -> Vec<Option<f64>> {
    assert!(g.is_weighted(), "SSSP requires a weighted graph");
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, cfg, &pool, root).0
}

/// Sequential Dijkstra reference.
pub fn reference(g: &Graph, root: VertexId) -> Vec<Option<f64>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Cand(f64, VertexId);
    impl Eq for Cand {}
    impl PartialOrd for Cand {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Cand {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&o.0).then(self.1.cmp(&o.1))
        }
    }
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut heap = BinaryHeap::from([Reverse(Cand(0.0, root))]);
    while let Some(Reverse(Cand(d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let ws = g.out_csr().neighbor_weights(v).expect("weighted graph");
        for (&t, &w) in g.out_neighbors(v).iter().zip(ws) {
            let nd = d + w;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse(Cand(nd, t)));
            }
        }
    }
    dist.into_iter()
        .map(|d| d.is_finite().then_some(d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_vsparse::simd::SimdLevel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn weighted_graph(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
        let mut el = EdgeList::new(n);
        for &(s, d, w) in edges {
            el.push_weighted(s, d, w).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn triangle_with_shortcut() {
        // 0 -> 1 (5), 0 -> 2 (1), 2 -> 1 (1): shortest 0->1 is 2 via 2.
        let g = weighted_graph(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]);
        let d = run(&g, &EngineConfig::new().with_threads(2), 0);
        assert_eq!(d, vec![Some(0.0), Some(2.0), Some(1.0)]);
    }

    #[test]
    fn unreachable_vertices_are_none() {
        let g = weighted_graph(4, &[(0, 1, 1.0)]);
        let d = run(&g, &EngineConfig::new().with_threads(1), 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 300;
        let mut el = EdgeList::new(n);
        for _ in 0..2000 {
            let s = rng.random_range(0..n) as u32;
            let d = rng.random_range(0..n) as u32;
            let w = (rng.random_range(1..100) as f64) / 10.0;
            el.push_weighted(s, d, w).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let want = reference(&g, 0);
        for simd in [SimdLevel::Scalar, grazelle_vsparse::simd::detect()] {
            for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
                let cfg = EngineConfig::new()
                    .with_threads(3)
                    .with_pull_mode(mode)
                    .with_simd(simd);
                let got = run(&g, &cfg, 0);
                assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert!((x - y).abs() < 1e-9, "v{i}: {x} vs {y}")
                        }
                        _ => panic!("v{i}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a weighted graph")]
    fn unweighted_graph_rejected() {
        let el = EdgeList::from_pairs(2, &[(0, 1)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        run(&g, &EngineConfig::new(), 0);
    }
}
