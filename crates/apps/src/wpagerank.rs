//! Weighted PageRank — the paper's Collaborative-Filtering access pattern.
//!
//! The paper omits Collaborative Filtering because it "is very similar to
//! PageRank in that it does not use the frontier, but differs as it uses
//! edge weights and supplies a different mathematical formula for updates
//! to property values. The use of edge weights adds additional transfers
//! but does not change the access pattern" (§6). This application is that
//! pattern: rank mass flows along edges **proportionally to edge weight**
//! (`w_uv / W_u` instead of `1 / outdeg(u)`), exercising the appended
//! weight vectors end-to-end through the
//! [`WeightedSum`](grazelle_vsparse::simd::WeightedSum) reduction of the
//! chunk walker.
//!
//! Weights must be positive.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::program::{AggOp, EdgeFunc, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Weighted PageRank program state.
pub struct WeightedPageRank {
    n: usize,
    damping: f64,
    ranks: PropertyArray,
    /// `rank[v] / W_v` — multiplied per lane by the raw edge weight.
    scaled: PropertyArray,
    acc: PropertyArray,
    /// `1 / W_v` (0.0 for vertices with no outgoing weight).
    inv_out_weight: Vec<f64>,
    base: AtomicU64,
}

impl WeightedPageRank {
    /// Initializes over a weighted graph's out-weight totals.
    pub fn new(g: &Graph, damping: f64) -> Self {
        assert!(g.is_weighted(), "weighted PageRank needs edge weights");
        let n = g.num_vertices();
        let inv_out_weight: Vec<f64> = (0..n as VertexId)
            .map(|v| {
                let total: f64 = g
                    .out_csr()
                    .neighbor_weights(v)
                    .map(|ws| ws.iter().sum())
                    .unwrap_or(0.0);
                assert!(total >= 0.0, "negative out-weight at {v}");
                if total > 0.0 {
                    1.0 / total
                } else {
                    0.0
                }
            })
            .collect();
        let init = 1.0 / n as f64;
        let ranks = PropertyArray::filled_f64(n, init);
        let scaled = PropertyArray::new(n);
        for (v, inv) in inv_out_weight.iter().enumerate() {
            scaled.set_f64(v, init * inv);
        }
        WeightedPageRank {
            n,
            damping,
            ranks,
            scaled,
            acc: PropertyArray::new(n),
            inv_out_weight,
            base: AtomicU64::new(0),
        }
    }

    /// Current ranks.
    pub fn ranks(&self) -> Vec<f64> {
        self.ranks.to_vec_f64()
    }

    /// Rank-conservation check (should be ~1.0).
    pub fn rank_sum(&self) -> f64 {
        (0..self.n).map(|v| self.ranks.get_f64(v)).sum()
    }
}

impl GraphProgram for WeightedPageRank {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Sum
    }

    fn edge_func(&self) -> EdgeFunc {
        EdgeFunc::ValueTimesWeight
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.scaled
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    fn uses_frontier(&self) -> bool {
        false
    }

    fn pre_iteration(&self, _iteration: usize) {
        let dangling: f64 = (0..self.n)
            .filter(|&v| self.inv_out_weight[v] == 0.0)
            .map(|v| self.ranks.get_f64(v))
            .sum();
        let base = (1.0 - self.damping) / self.n as f64 + self.damping * dangling / self.n as f64;
        self.base.store(base.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let base = f64::from_bits(self.base.load(Ordering::Relaxed));
        let rank = base + self.damping * self.acc.get_f64(v);
        self.ranks.set_f64(v, rank);
        self.scaled.set_f64(v, rank * self.inv_out_weight[v]);
        false
    }

    fn should_stop(&self, _iteration: usize, _active: usize) -> bool {
        false
    }
}

/// Runs `iterations` of weighted PageRank; returns final ranks.
pub fn run(g: &Graph, cfg: &EngineConfig, iterations: usize) -> Vec<f64> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, g, cfg, &pool, iterations).0
}

/// Pool-reusing variant.
pub fn run_prepared(
    pg: &PreparedGraph,
    g: &Graph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    iterations: usize,
) -> (Vec<f64>, ExecutionStats) {
    let mut local = *cfg;
    local.max_iterations = iterations;
    let prog = WeightedPageRank::new(g, crate::pagerank::DAMPING);
    let stats = run_program_on_pool(pg, &prog, &local, pool);
    (prog.ranks(), stats)
}

/// Sequential reference.
pub fn reference(g: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let out_weight: Vec<f64> = (0..n as VertexId)
        .map(|v| {
            g.out_csr()
                .neighbor_weights(v)
                .map(|ws| ws.iter().sum())
                .unwrap_or(0.0)
        })
        .collect();
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        let dangling: f64 = (0..n)
            .filter(|&v| out_weight[v] == 0.0)
            .map(|v| ranks[v])
            .sum();
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        for v in 0..n as VertexId {
            let ws = g.in_csr().neighbor_weights(v).unwrap();
            let sum: f64 = g
                .in_neighbors(v)
                .iter()
                .zip(ws)
                .map(|(&s, &w)| ranks[s as usize] / out_weight[s as usize] * w)
                .sum();
            next[v as usize] = base + damping * sum;
        }
        std::mem::swap(&mut ranks, &mut next);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::DAMPING;
    use grazelle_core::config::PullMode;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_vsparse::simd::SimdLevel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn weighted_random(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n);
        for _ in 0..m {
            let s = rng.random_range(0..n) as u32;
            let d = rng.random_range(0..n) as u32;
            let w = (rng.random_range(1..32) as f64) / 4.0;
            el.push_weighted(s, d, w).unwrap();
        }
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "v{i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference() {
        let g = weighted_random(200, 1500, 4);
        let cfg = EngineConfig::new().with_threads(3);
        let got = run(&g, &cfg, 12);
        let want = reference(&g, DAMPING, 12);
        assert_close(&got, &want, 1e-10);
    }

    #[test]
    fn rank_is_conserved() {
        let g = weighted_random(100, 600, 9);
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(2);
        let cfg = EngineConfig::new().with_threads(2);
        let prog = WeightedPageRank::new(&g, DAMPING);
        let mut local = cfg;
        local.max_iterations = 15;
        run_program_on_pool(&pg, &prog, &local, &pool);
        assert!((prog.rank_sum() - 1.0).abs() < 1e-9, "{}", prog.rank_sum());
    }

    #[test]
    fn uniform_weights_reduce_to_plain_pagerank() {
        // With every weight equal, w/W_u == 1/outdeg: ranks must coincide
        // with unweighted PageRank on the same topology.
        let mut el = EdgeList::new(6);
        for &(s, d) in &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0), (5, 0)] {
            el.push_weighted(s, d, 2.5).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let cfg = EngineConfig::new().with_threads(2);
        let weighted = run(&g, &cfg, 10);
        let plain = crate::pagerank::reference(&g, DAMPING, 10);
        assert_close(&weighted, &plain, 1e-12);
    }

    #[test]
    fn weight_skew_shifts_rank() {
        // 0 -> 1 (weight 9) and 0 -> 2 (weight 1): vertex 1 must outrank 2.
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 9.0).unwrap();
        el.push_weighted(0, 2, 1.0).unwrap();
        el.push_weighted(1, 0, 1.0).unwrap();
        el.push_weighted(2, 0, 1.0).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let ranks = run(&g, &EngineConfig::new().with_threads(1), 20);
        assert!(ranks[1] > 2.0 * ranks[2], "{ranks:?}");
    }

    #[test]
    fn engines_modes_and_simd_agree() {
        let g = weighted_random(150, 1000, 21);
        let want = reference(&g, DAMPING, 8);
        for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
            for simd in [SimdLevel::Scalar, grazelle_vsparse::simd::detect()] {
                let cfg = EngineConfig::new()
                    .with_threads(4)
                    .with_pull_mode(mode)
                    .with_simd(simd);
                assert_close(&run(&g, &cfg, 8), &want, 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs edge weights")]
    fn unweighted_rejected() {
        let el = EdgeList::from_pairs(2, &[(0, 1)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        WeightedPageRank::new(&g, DAMPING);
    }
}
