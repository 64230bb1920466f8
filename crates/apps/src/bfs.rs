//! Breadth-First Search.
//!
//! "Breadth-First Search is a completely frontier-driven application. In
//! addition to source vertex activation and deactivation, it also marks
//! vertices as converged immediately upon their visitation. Only a single
//! write operation is ever needed per vertex: the first identified
//! candidate to be a vertex's parent becomes its final value" (§6).
//!
//! The pull formulation aggregates candidate parents with Min over active
//! in-neighbors (ties broken toward the smallest id, which makes output
//! deterministic across engines and thread counts); visited vertices sit in
//! the converged set so both engines skip them as destinations.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::{DenseBitmap, Frontier};
use grazelle_core::program::{AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;

/// Breadth-First Search program state.
pub struct Bfs {
    n: usize,
    root: VertexId,
    /// Parent per vertex, +∞ while unvisited (ids fit f64 exactly: 48 bits).
    parents: PropertyArray,
    /// Candidate-parent accumulators (Min).
    acc: PropertyArray,
    /// The converged set: visited vertices ignore in-bound messages.
    visited: DenseBitmap,
    /// Source ids as f64 — what the Edge phase propagates.
    ids: PropertyArray,
}

impl Bfs {
    /// BFS from `root`.
    pub fn new(n: usize, root: VertexId) -> Self {
        assert!((root as usize) < n, "root out of range");
        let parents = PropertyArray::filled_f64(n, f64::INFINITY);
        parents.set_f64(root as usize, root as f64);
        let visited = DenseBitmap::new(n);
        visited.insert(root);
        let ids = PropertyArray::new(n);
        for v in 0..n {
            ids.set_f64(v, v as f64);
        }
        Bfs {
            n,
            root,
            parents,
            acc: PropertyArray::new(n),
            visited,
            ids,
        }
    }

    /// The BFS tree: `parent[v]`, `None` when unreachable. The root's
    /// parent is itself.
    pub fn parents(&self) -> Vec<Option<VertexId>> {
        (0..self.n)
            .map(|v| {
                let p = self.parents.get_f64(v);
                if p.is_finite() {
                    Some(p as VertexId)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Number of visited vertices.
    pub fn visited_count(&self) -> usize {
        self.visited.count()
    }
}

impl GraphProgram for Bfs {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Min
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.ids
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        if self.visited.contains(v) {
            return false;
        }
        let candidate = self.acc.get_f64(v as usize);
        if candidate.is_finite() {
            // The single write per vertex: first (minimum) candidate wins.
            self.parents.set_f64(v as usize, candidate);
            self.visited.insert(v);
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

    fn converged(&self) -> Option<&DenseBitmap> {
        Some(&self.visited)
    }

    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &[self.root])
    }
}

/// Runs BFS from `root` on a prepared graph.
pub fn run_prepared(
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    root: VertexId,
) -> (Vec<Option<VertexId>>, ExecutionStats) {
    let prog = Bfs::new(pg.num_vertices, root);
    let stats = run_program_on_pool(pg, &prog, cfg, pool);
    (prog.parents(), stats)
}

/// Convenience entry point.
pub fn run(g: &Graph, cfg: &EngineConfig, root: VertexId) -> Vec<Option<VertexId>> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, cfg, &pool, root).0
}

/// Sequential reference BFS returning per-vertex depth (`None` =
/// unreachable). Parents are tie-broken by engine, so tests validate the
/// *depths* the parent tree implies instead of exact parents.
pub fn reference_depths(g: &Graph, root: VertexId) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut depth = vec![None; n];
    depth[root as usize] = Some(0);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let d = depth[v as usize].unwrap();
        for &w in g.out_neighbors(v) {
            if depth[w as usize].is_none() {
                depth[w as usize] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    depth
}

/// Validates a parent array against a graph: every visited vertex's parent
/// must be a real in-neighbor at depth one less. Returns the depths implied
/// by the tree.
pub fn validate_parents(
    g: &Graph,
    root: VertexId,
    parents: &[Option<VertexId>],
) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut depth = vec![None; n];
    depth[root as usize] = Some(0u32);
    // Iteratively resolve depths (tree height ≤ n).
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if depth[v].is_some() || parents[v].is_none() {
                continue;
            }
            let p = parents[v].unwrap() as usize;
            if let Some(dp) = depth[p] {
                depth[v] = Some(dp + 1);
                changed = true;
            }
        }
    }
    for v in 0..n as VertexId {
        if v == root {
            assert_eq!(parents[v as usize], Some(root));
            continue;
        }
        if let Some(p) = parents[v as usize] {
            assert!(
                g.in_neighbors(v).contains(&p),
                "vertex {v}: claimed parent {p} is not an in-neighbor"
            );
            assert!(depth[v as usize].is_some(), "vertex {v}: parent cycle");
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_core::engine::hybrid::EngineKind;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};

    fn chain_with_branch() -> Graph {
        // 0 -> 1 -> 2 -> 3, plus 0 -> 4 -> 3, and unreachable 5.
        let el = EdgeList::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]).unwrap();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn finds_correct_depths_and_unreachable() {
        let g = chain_with_branch();
        let cfg = EngineConfig::new().with_threads(2);
        let parents = run(&g, &cfg, 0);
        let depths = validate_parents(&g, 0, &parents);
        let want = reference_depths(&g, 0);
        assert_eq!(depths, want);
        assert_eq!(parents[5], None);
    }

    #[test]
    fn single_vertex_root_only() {
        let el = EdgeList::from_pairs(3, &[]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let parents = run(&g, &EngineConfig::new().with_threads(1), 1);
        assert_eq!(parents, vec![None, Some(1), None]);
    }

    #[test]
    fn depths_match_reference_on_rmat() {
        let mut el = rmat(&RmatConfig::graph500(10, 8.0, 21));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let cfg = EngineConfig::new().with_threads(4);
        let parents = run(&g, &cfg, 0);
        let depths = validate_parents(&g, 0, &parents);
        assert_eq!(depths, reference_depths(&g, 0));
    }

    #[test]
    fn pull_and_push_heavy_configs_agree_on_depths() {
        let mut el = rmat(&RmatConfig::graph500(9, 6.0, 31));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::new(2, 1);
        for kind in [EngineKind::Pull, EngineKind::Push] {
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_force_engine(Some(kind));
            let (parents, stats) = run_prepared(&pg, &cfg, &pool, 0);
            assert!(
                stats.engine_trace.iter().all(|&k| k == kind),
                "{kind:?} run used another engine: {:?}",
                stats.engine_trace
            );
            let depths = validate_parents(&g, 0, &parents);
            assert_eq!(depths, reference_depths(&g, 0), "{kind:?}");
        }
    }

    #[test]
    fn bfs_from_nonzero_root() {
        let g = chain_with_branch();
        let parents = run(&g, &EngineConfig::new().with_threads(2), 4);
        let depths = validate_parents(&g, 4, &parents);
        assert_eq!(depths, reference_depths(&g, 4));
        assert_eq!(parents[0], None, "0 unreachable from 4");
    }

    #[test]
    fn deterministic_parents_across_modes_and_threads() {
        // Min tie-breaking makes parents (not just depths) deterministic.
        let mut el = rmat(&RmatConfig::graph500(9, 5.0, 13));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let base = run(&g, &EngineConfig::new().with_threads(1), 0);
        for threads in [2, 4] {
            for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_pull_mode(mode);
                assert_eq!(run(&g, &cfg, 0), base, "{threads} threads {mode:?}");
            }
        }
    }
}
