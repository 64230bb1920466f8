//! Reachability: BFS without parent recording.
//!
//! The minimal frontier-driven program — useful as a test fixture, as the
//! simplest worked example of the [`GraphProgram`] API, and as a probe for
//! frontier-handling overhead isolated from any per-vertex payload.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::run_program_on_pool;
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::{DenseBitmap, Frontier};
use grazelle_core::program::{AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;

/// Reachability program state.
pub struct Reachability {
    n: usize,
    root: VertexId,
    /// 1.0 once reached (what the Edge phase propagates with Max).
    reached_val: PropertyArray,
    acc: PropertyArray,
    visited: DenseBitmap,
}

impl Reachability {
    /// Reachability from `root`.
    pub fn new(n: usize, root: VertexId) -> Self {
        assert!((root as usize) < n);
        let reached_val = PropertyArray::filled_f64(n, 0.0);
        reached_val.set_f64(root as usize, 1.0);
        let visited = DenseBitmap::new(n);
        visited.insert(root);
        Reachability {
            n,
            root,
            reached_val,
            acc: PropertyArray::new(n),
            visited,
        }
    }

    /// The set of reached vertices.
    pub fn reached(&self) -> Vec<bool> {
        (0..self.n as VertexId)
            .map(|v| self.visited.contains(v))
            .collect()
    }
}

impl GraphProgram for Reachability {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Max
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.reached_val
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        if self.visited.contains(v) {
            return false;
        }
        if self.acc.get_f64(v as usize) >= 1.0 {
            self.visited.insert(v);
            self.reached_val.set_f64(v as usize, 1.0);
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

/// Runs reachability from `root`, returning the reached set.
pub fn run(g: &Graph, cfg: &EngineConfig, root: VertexId) -> Vec<bool> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    let prog = Reachability::new(pg.num_vertices, root);
    run_program_on_pool(&pg, &prog, cfg, &pool);
    prog.reached()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;

    #[test]
    fn reaches_exactly_the_descendants() {
        let el = EdgeList::from_pairs(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let r = run(&g, &EngineConfig::new().with_threads(2), 0);
        assert_eq!(r, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn agrees_with_bfs_visited_set() {
        let el = EdgeList::from_pairs(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (0, 6), (6, 2)])
            .unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let cfg = EngineConfig::new().with_threads(2);
        let r = run(&g, &cfg, 0);
        let bfs_parents = crate::bfs::run(&g, &cfg, 0);
        for v in 0..8 {
            assert_eq!(r[v], bfs_parents[v].is_some(), "vertex {v}");
        }
    }
}
