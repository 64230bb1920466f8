//! The Edge/Vertex phase implementations and the driver.
//!
//! * [`pull`] — Edge-Pull: inner-loop-parallel, vectorized, with all three
//!   interface modes (Traditional, Traditional-Nonatomic, Scheduler-Aware).
//! * [`push`] — Edge-Push: traditional interface, per-edge synchronized
//!   scatter (the paper's push engines are not vectorizable on AVX2 because
//!   there are no atomic-update-scatter instructions, §6.2).
//! * [`pull_wide`] — the 8-lane (AVX-512) Edge-Pull variant, the paper's
//!   sketched 512-bit extension.
//! * [`vertex`] — the statically scheduled Vertex (local update) phase.
//! * [`hybrid`] — the per-iteration engine selection and the one superstep
//!   loop behind every `run_program*` / `run_resilient*` entry point.
//! * [`resilient`] — the optional fault-containment argument of that loop:
//!   watchdog, chunk retry, divergence guard, checkpoint/restore (ISSUE 2).

pub mod hybrid;
pub mod pull;
pub mod pull_wide;
pub mod push;
pub mod resilient;
pub mod vertex;

use grazelle_graph::graph::Graph;
use grazelle_sched::ThreadPool;
use grazelle_vsparse::build::{Vsd, Vss};

/// A graph prepared for Grazelle: both Vector-Sparse orientations, built
/// once and shared by every run.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    /// Vector-Sparse-Destination: top-level vertex = destination, lanes =
    /// sources. The pull engine's structure.
    pub vsd: Vsd,
    /// Vector-Sparse-Source: top-level vertex = source, lanes =
    /// destinations. The push engine's structure.
    pub vss: Vss,
    /// Vertex count.
    pub num_vertices: usize,
    /// Edge count.
    pub num_edges: usize,
}

impl PreparedGraph {
    /// Builds both orientations from a [`Graph`].
    pub fn new(g: &Graph) -> Self {
        PreparedGraph {
            vsd: Vsd::from_csr(g.in_csr()),
            vss: Vss::from_csr(g.out_csr()),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
        }
    }

    /// Parallel [`PreparedGraph::new`]: both Vector-Sparse orientations are
    /// encoded on the pool, bit-identical to the sequential build.
    pub fn new_on_pool(g: &Graph, pool: &ThreadPool) -> Self {
        PreparedGraph {
            vsd: Vsd::from_csr_parallel(g.in_csr(), pool),
            vss: Vss::from_csr_parallel(g.out_csr(), pool),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;

    #[test]
    fn prepared_graph_has_both_orientations() {
        let el = EdgeList::from_pairs(4, &[(0, 1), (0, 2), (3, 1)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        assert_eq!(pg.num_vertices, 4);
        assert_eq!(pg.num_edges, 3);
        assert_eq!(pg.vsd.num_edges(), 3);
        assert_eq!(pg.vss.num_edges(), 3);
        // VSD groups by destination: vertex 1 has two in-edges.
        assert_eq!(pg.vsd.vector_range(1).len(), 1);
        assert_eq!(
            pg.vsd.vectors()[pg.vsd.vector_range(1).start].count_valid(),
            2
        );
        // VSS groups by source: vertex 0 has two out-edges.
        assert_eq!(
            pg.vss.vectors()[pg.vss.vector_range(0).start].count_valid(),
            2
        );
    }

    #[test]
    fn new_on_pool_matches_sequential() {
        let el = EdgeList::from_pairs(8, &[(0, 1), (0, 2), (3, 1), (5, 7), (7, 0)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let seq = PreparedGraph::new(&g);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::single_group(threads);
            let par = PreparedGraph::new_on_pool(&g, &pool);
            assert!(par.vsd.bit_identical(&seq.vsd), "{threads} threads (vsd)");
            assert!(par.vss.bit_identical(&seq.vss), "{threads} threads (vss)");
        }
    }
}
