//! The Edge/Vertex phase implementations and the driver.
//!
//! * [`pull`] — Edge-Pull: inner-loop-parallel, vectorized at the paper's
//!   4-lane width (the only pull width), with all three interface modes
//!   (Traditional, Traditional-Nonatomic, Scheduler-Aware).
//! * Edge-Push is [`crate::spmv::spa::edge_push_spa`]: a sparse accumulator
//!   that folds each destination's messages exactly once, without atomics
//!   (DESIGN.md §17). Listing 1's per-edge synchronized scatter survives
//!   only in the traditional pull interface.
//! * [`vertex`] — the statically scheduled Vertex (local update) phase.
//! * [`hybrid`] — the per-iteration engine selection and the one superstep
//!   loop behind every `run_program*` / `run_resilient*` entry point.
//! * [`resilient`] — the optional fault-containment argument of that loop:
//!   watchdog, chunk retry, divergence guard, checkpoint/restore (ISSUE 2).

pub mod hybrid;
pub mod pull;
pub mod resilient;
pub mod vertex;

use grazelle_graph::graph::Graph;
use grazelle_sched::ThreadPool;
use grazelle_vsparse::build::{Vsd, Vss};

/// A graph prepared for Grazelle: both Vector-Sparse orientations, shared
/// by every run. The pull structure (VSD) is encoded when the graph is
/// prepared: from the graph's in-edges when it holds them, and straight
/// from its out-edges (or the edge list, in [`crate::prepare_profiled`])
/// when they are deferred; a graph whose orientations wait on a VSD hands
/// that one back. On a symmetric graph ([`Graph::is_symmetric`]) the push
/// structure (VSS) is that same encoding, shared; on a directed one it is
/// deferred: the first run that can push encodes it, so a run that only
/// pulls never pays for it (DESIGN.md §12, "On-demand structures").
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    /// Vector-Sparse-Destination: top-level vertex = destination, lanes =
    /// sources. The pull engine's structure.
    pub vsd: Vsd,
    /// Vector-Sparse-Source: top-level vertex = source, lanes =
    /// destinations. The push engine's structure, possibly deferred
    /// ([`Vss::is_encoded`]).
    pub vss: Vss,
    /// Vertex count.
    pub num_vertices: usize,
    /// Edge count.
    pub num_edges: usize,
}

impl PreparedGraph {
    /// Prepares a [`Graph`] on the calling thread.
    pub fn new(g: &Graph) -> Self {
        Self::build(g, None)
    }

    /// The VSD, on `pool` or on the calling thread: the one the graph's
    /// orientations are rebuilt from, shared, when it was built over a VSD
    /// ([`Graph::edge_source`]); else through [`Vsd::encode`] over the
    /// in-edges when the graph holds them, and through
    /// [`Vsd::encode_transposed`] over the out-edges when only they are
    /// built, which leaves the in-edges deferred. A graph over another
    /// source has its in-edges built first. The VSS as
    /// [`PreparedGraph::with_vsd`] makes it.
    pub fn build(g: &Graph, pool: Option<&ThreadPool>) -> Self {
        let held = g
            .edge_source()
            .and_then(|s| s.as_any().downcast_ref::<Vsd>());
        let vsd = match (held, g.built_in_csr(), g.built_out_csr()) {
            (Some(vsd), _, _) => vsd.clone(),
            (None, Some(inn), _) => Vsd::encode(inn, pool),
            (None, None, Some(out)) => Vsd::encode_transposed(out, g.in_index(), pool),
            (None, None, None) => Vsd::encode(g.ready_in(pool), pool),
        };
        Self::with_vsd(g, vsd)
    }

    /// The prepared graph of `g` whose VSD is `vsd`. The VSS is a clone of
    /// the VSD, sharing the same arrays, on a symmetric graph, and
    /// [`Vss::deferred`] over a clone of the graph, sharing its edges and
    /// cells, on a directed one.
    pub fn with_vsd(g: &Graph, vsd: Vsd) -> Self {
        let vss = match g.is_symmetric() {
            true => Vss::from(vsd.clone()),
            false => Vss::deferred(g.clone()),
        };
        PreparedGraph {
            vsd,
            vss,
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::csr::Csr;
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

    /// A symmetric graph, weighted or not, is encoded once: the VSS
    /// shares the VSD's arrays and equals both separately encoded
    /// orientations at every width; a directed graph's VSS is deferred
    /// over the graph and, once read, a second encoding.
    #[test]
    fn a_symmetric_graph_is_encoded_once() {
        let sym = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 1), (1, 2), (4, 4)];
        let weighted = EdgeList::from_parts(
            5,
            sym.to_vec(),
            Some(vec![0.5, 0.5, f64::NAN, f64::NAN, -0.0, -0.0, 3.0]),
        )
        .unwrap();
        let cases = [
            (EdgeList::from_pairs(5, &sym).unwrap(), true),
            (weighted, true),
            (
                EdgeList::from_pairs(5, &[(0, 1), (1, 2), (4, 4)]).unwrap(),
                false,
            ),
        ];
        for (el, symmetric) in cases {
            let g = Graph::from_edgelist(&el).unwrap();
            assert_eq!(g.is_symmetric(), symmetric);
            let vsd = Vsd::from_csr(&Csr::from_edgelist_by_dst(&el));
            let vss = Vss::from_csr(&Csr::from_edgelist_by_src(&el));
            for threads in [None, Some(1), Some(2), Some(8)] {
                let pool = threads.map(ThreadPool::single_group);
                let pg = PreparedGraph::build(&g, pool.as_ref());
                assert_eq!(pg.vss.is_encoded(), symmetric, "{threads:?} threads");
                let shared = std::ptr::eq(pg.vsd.vectors(), pg.vss.vectors());
                assert_eq!(shared, symmetric, "{threads:?} threads");
                // The directed graph's in-degrees differ from its
                // out-degrees: its VSD came from the out-edges.
                assert_eq!(g.built_in_csr().is_some(), symmetric);
                assert!(pg.vsd.bit_identical(&vsd) && pg.vss.bit_identical(&vss));
            }
        }
    }

    #[test]
    fn build_on_a_pool_matches_sequential() {
        let el = EdgeList::from_pairs(8, &[(0, 1), (0, 2), (3, 1), (5, 7), (7, 0)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let seq = PreparedGraph::build(&g, None);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::single_group(threads);
            let par = PreparedGraph::build(&g, Some(&pool));
            assert!(par.vsd.bit_identical(&seq.vsd), "{threads} threads (vsd)");
            assert!(par.vss.bit_identical(&seq.vss), "{threads} threads (vss)");
        }
    }
}
