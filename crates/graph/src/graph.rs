//! The immutable, dual-orientation graph consumed by all engines.

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::types::{GraphError, VertexId};
use grazelle_sched::ThreadPool;

/// An immutable directed graph holding both edge groupings.
///
/// Like Grazelle (and Ligra/Polymer before it), every engine needs the edges
/// *grouped by source* (for push) and *grouped by destination* (for pull), so
/// the graph stores one [`Csr`] per orientation. Both are built once from the
/// same [`EdgeList`], neighbor-sorted so that layouts are deterministic.
#[derive(Debug, Clone)]
pub struct Graph {
    out: Csr,
    inn: Csr,
    name: String,
}

impl Graph {
    /// Builds a graph from an edge list. Duplicate edges are kept as-is;
    /// call [`EdgeList::sort_and_dedup`] first if you need simple graphs.
    pub fn from_edgelist(el: &EdgeList) -> Result<Self, GraphError> {
        if el.num_vertices() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut out = Csr::from_edgelist_by_src(el);
        let mut inn = Csr::from_edgelist_by_dst(el);
        out.sort_neighbors();
        inn.sort_neighbors();
        Ok(Graph {
            out,
            inn,
            name: String::new(),
        })
    }

    /// Parallel [`Graph::from_edgelist`]: both orientations are built with
    /// the parallel counting sort and neighbor-sorted on the pool. The
    /// result is bit-identical to the sequential build.
    pub fn from_edgelist_parallel(el: &EdgeList, pool: &ThreadPool) -> Result<Self, GraphError> {
        if el.num_vertices() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut out = Csr::from_edgelist_by_src_parallel(el, pool);
        let mut inn = Csr::from_edgelist_by_dst_parallel(el, pool);
        out.sort_neighbors_parallel(pool);
        inn.sort_neighbors_parallel(pool);
        Ok(Graph {
            out,
            inn,
            name: String::new(),
        })
    }

    /// Builds directly from pre-validated orientations. `out` and `inn` must
    /// describe the same edge multiset; this is checked cheaply (counts), not
    /// exhaustively.
    pub fn from_orientations(out: Csr, inn: Csr, name: &str) -> Result<Self, GraphError> {
        if out.num_vertices() != inn.num_vertices() {
            return Err(GraphError::MalformedIndex(format!(
                "orientation vertex counts disagree: {} vs {}",
                out.num_vertices(),
                inn.num_vertices()
            )));
        }
        if out.num_edges() != inn.num_edges() {
            return Err(GraphError::MalformedIndex(format!(
                "orientation edge counts disagree: {} vs {}",
                out.num_edges(),
                inn.num_edges()
            )));
        }
        Ok(Graph {
            out,
            inn,
            name: name.to_string(),
        })
    }

    /// This graph with `inserts` added and `deletes` removed, spliced into
    /// both orientations on `pool` — how a versioned graph merges an update
    /// batch without re-sorting its edges.
    ///
    /// Both edit lists are `(src, dst)` pairs sorted ascending; the in-edge
    /// side sorts their transposes itself. A delete drops *every* copy of
    /// its edge (a base with multi-edges loses them all) and naming an
    /// absent edge is a no-op; every insert adds one edge. Untouched
    /// adjacency lists are copied as whole runs, so the cost is the copy of
    /// both edge arrays plus the touched lists, and the result is
    /// bit-identical to [`Graph::from_edgelist`] over the edited edge set
    /// at any pool width. The name carries over.
    ///
    /// Edits carry no weights, so a weighted graph takes none.
    pub fn with_edits(
        &self,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
        pool: &ThreadPool,
    ) -> Result<Self, GraphError> {
        let n = self.num_vertices() as u64;
        if let Some(&(s, d)) = inserts
            .iter()
            .chain(deletes)
            .find(|&&(s, d)| u64::from(s.max(d)) >= n)
        {
            return Err(GraphError::VertexOutOfRange {
                vertex: u64::from(s.max(d)),
                num_vertices: n,
            });
        }
        assert!(
            inserts.is_sorted() && deletes.is_sorted(),
            "edits must be sorted by (src, dst)"
        );
        if self.is_weighted() {
            return Err(GraphError::Io(
                "edits carry no weights; a weighted graph cannot take them".into(),
            ));
        }
        // Two edge-scale arrays are about to be allocated.
        grazelle_sched::alloc::pin_large_block_policy();
        let transposed = |edits: &[(VertexId, VertexId)]| {
            let mut t: Vec<_> = edits.iter().map(|&(s, d)| (d, s)).collect();
            t.sort_unstable();
            t
        };
        let (tin, tdel) = (transposed(inserts), transposed(deletes));
        let [out, inn] = crate::csr::splice(
            [(&self.out, inserts, deletes), (&self.inn, &tin, &tdel)],
            pool,
        );
        Ok(Graph {
            out,
            inn,
            name: self.name.clone(),
        })
    }

    /// Attaches a human-readable name (used in experiment output).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The graph's name ("" when unset).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// True when edge weights are attached.
    pub fn is_weighted(&self) -> bool {
        self.out.weights().is_some()
    }

    /// Edges grouped by source (CSR) — the push engine's structure.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// Edges grouped by destination (CSC) — the pull engine's structure.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.inn
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.inn.degree(v)
    }

    /// Out-neighbors of `v`, sorted.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v`, sorted.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    /// Average degree |E| / |V|.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_vertices() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Graph {
        let el =
            EdgeList::from_pairs(4, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1)]).unwrap();
        Graph::from_edgelist(&el).unwrap().with_name("sample")
    }

    #[test]
    fn orientations_are_consistent() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        // Every out-edge (s,d) appears as an in-edge of d with source s.
        for s in 0..g.num_vertices() as VertexId {
            for &d in g.out_neighbors(s) {
                assert!(
                    g.in_neighbors(d).contains(&s),
                    "edge ({s},{d}) missing from CSC"
                );
            }
        }
        // Totals agree.
        let out_total: u32 = (0..4).map(|v| g.out_degree(v)).sum();
        let in_total: u32 = (0..4).map(|v| g.in_degree(v)).sum();
        assert_eq!(out_total, 6);
        assert_eq!(in_total, 6);
    }

    #[test]
    fn named() {
        assert_eq!(sample().name(), "sample");
    }

    #[test]
    fn empty_vertex_set_rejected() {
        let el = EdgeList::new(0);
        assert!(matches!(
            Graph::from_edgelist(&el),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn mismatched_orientations_rejected() {
        let el = EdgeList::from_pairs(3, &[(0, 1)]).unwrap();
        let el2 = EdgeList::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let out = Csr::from_edgelist_by_src(&el);
        let inn = Csr::from_edgelist_by_dst(&el2);
        assert!(Graph::from_orientations(out, inn, "bad").is_err());
    }

    #[test]
    fn avg_degree() {
        assert!((sample().avg_degree() - 1.5).abs() < 1e-12);
    }

    /// `base` spliced with `inserts` and `deletes` (unsorted, deletes may
    /// repeat) next to the cold build of the edited edge multiset, both
    /// orientations compared exactly.
    fn check_splice(
        n: usize,
        base: &[(u32, u32)],
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
        threads: usize,
    ) -> Result<(), String> {
        let g = Graph::from_edgelist(&EdgeList::from_pairs(n, base).unwrap())
            .unwrap()
            .with_name("g");
        let sorted = |edits: &[(u32, u32)]| {
            let mut e = edits.to_vec();
            e.sort_unstable();
            e
        };
        let pool = ThreadPool::single_group(threads);
        let spliced = g
            .with_edits(&sorted(inserts), &sorted(deletes), &pool)
            .map_err(|e| e.to_string())?;
        let kept = base.iter().filter(|e| !deletes.contains(e));
        let want: Vec<_> = kept.chain(inserts).copied().collect();
        let cold = Graph::from_edgelist(&EdgeList::from_pairs(n, &want).unwrap()).unwrap();
        let at = format!("{threads} threads, base {base:?} +{inserts:?} -{deletes:?}");
        if spliced.out_csr() != cold.out_csr() || spliced.in_csr() != cold.in_csr() {
            return Err(format!("spliced != cold at {at}"));
        }
        if spliced.name() != "g" {
            return Err(format!("name lost at {at}"));
        }
        Ok(())
    }

    #[test]
    fn splice_edge_cases_match_a_cold_build() {
        const LAST: u32 = 5;
        type Edges = &'static [(u32, u32)];
        let cases: [(Edges, Edges, Edges); 6] = [
            // No edits at all, on a base with a multi-edge.
            (&[(0, 1), (0, 1), (2, 3)], &[], &[]),
            // Every copy of a multi-edge goes; an absent delete is a no-op.
            (&[(0, 1), (0, 1), (0, 2), (3, 3)], &[], &[(0, 1), (4, 4)]),
            // Self-loops in and out; the first and the last vertex.
            (
                &[(0, 0), (LAST, LAST), (2, 0)],
                &[(0, LAST), (LAST, 0), (1, 1)],
                &[(0, 0), (LAST, LAST)],
            ),
            // Into empty lists, and emptying a list.
            (&[(1, 2)], &[(0, 3), (4, 0), (4, 1)], &[(1, 2)]),
            // An empty base.
            (&[], &[(3, 2), (2, 3)], &[(1, 1)]),
            // Inserts around and between surviving neighbours.
            (
                &[(2, 1), (2, 3), (2, 5)],
                &[(2, 0), (2, 2), (2, 4)],
                &[(2, 3), (2, 3)],
            ),
        ];
        for (base, inserts, deletes) in cases {
            for threads in [1, 2, 8] {
                check_splice(6, base, inserts, deletes, threads).unwrap();
            }
        }
    }

    #[test]
    fn splice_rejects_out_of_range_edits_and_weighted_bases() {
        let pool = ThreadPool::single_group(2);
        let g = sample();
        assert!(matches!(
            g.with_edits(&[(0, 4)], &[], &pool),
            Err(GraphError::VertexOutOfRange { vertex: 4, .. })
        ));
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 1.0).unwrap();
        let w = Graph::from_edgelist(&el).unwrap();
        assert!(w.with_edits(&[(1, 2)], &[], &pool).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The splice equals a cold build of the edited edge set: bases with
        /// multi-edges and self-loops, deletes of present and absent edges,
        /// inserts absent from the base (what `DeltaSegments::record`
        /// guarantees), at 1, 2 and 8 threads.
        #[test]
        fn prop_splice_equals_a_cold_build(
            n in 1usize..40,
            base in proptest::collection::vec((0u32..40, 0u32..40), 0..200),
            edits in proptest::collection::vec((0u32..40, 0u32..40, 0u8..3), 0..60),
            threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        ) {
            let clamp = |(s, d): (u32, u32)| (s % n as u32, d % n as u32);
            let base: Vec<_> = base.into_iter().map(clamp).collect();
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for (s, d, kind) in edits {
                let e = clamp((s, d));
                match kind {
                    0 if !base.contains(&e) => inserts.push(e),
                    1 => deletes.push(e),
                    _ => deletes.push(base.get(s as usize % base.len().max(1)).copied().unwrap_or(e)),
                }
            }
            // An edge both deleted and inserted is no longer "absent".
            inserts.retain(|e| !deletes.contains(e));
            prop_assert_eq!(check_splice(n, &base, &inserts, &deletes, threads), Ok(()));
        }
    }

    #[test]
    fn weighted_graph_carries_weights_in_both_orientations() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 1.0).unwrap();
        el.push_weighted(1, 2, 2.0).unwrap();
        el.push_weighted(0, 2, 3.0).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        assert!(g.is_weighted());
        assert!(g.out_csr().weights().is_some());
        assert!(g.in_csr().weights().is_some());
        // In-edges of vertex 2: from 0 (3.0) and 1 (2.0); neighbors sorted.
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_csr().neighbor_weights(2).unwrap(), &[3.0, 2.0]);
    }
}
