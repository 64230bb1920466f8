//! The immutable, dual-orientation graph consumed by all engines.

use crate::csr::{Csr, Grouped};
use crate::edgelist::EdgeList;
use crate::types::{EdgeId, GraphError, VertexId};
use grazelle_sched::{OnDemand, ThreadPool};
use std::any::Any;
use std::fmt::Debug;
use std::sync::Arc;

/// An immutable directed graph holding both edge groupings.
///
/// Like Grazelle (and Ligra/Polymer before it), every engine needs the edges
/// *grouped by source* (for push) and *grouped by destination* (for pull), so
/// the graph stores one [`Csr`] per orientation, neighbor-sorted so that
/// layouts are deterministic: the out-edges, built from the [`EdgeList`],
/// and the in-edges, their [`Csr::transpose`].
///
/// When the two orientations come out bit-identical — index, edges and
/// weight bit patterns — the graph keeps one copy: an undirected graph
/// (A = Aᵀ) with symmetric weights, multi-edges included, has its in-edges
/// equal to its out-edges. [`Graph::in_csr`] then reads the out-edge
/// structure and [`Graph::is_symmetric`] says so.
///
/// A graph built from an edge list counts its in-degrees first. When they
/// differ from its out-degrees it cannot be symmetric, and its in-edges
/// are an [`OnDemand`] cell over the counted in-index, which their first
/// reader ([`Graph::in_csr`], or [`Graph::ready_in`] on a pool) fills;
/// the in-degrees never build them. Equal degree sequences build the
/// in-edges at once and compare them with the out-edges. A graph whose
/// set-up proved it symmetric or not against its VSD
/// ([`Graph::from_checked`]) skips that compare, and a graph over an
/// [`EdgeSource`] ([`Graph::from_source`]) defers its out-edges the same
/// way, over the out-index, and rebuilds them from the source: one cell
/// serving both orientations when it is symmetric (DESIGN.md §12,
/// "On-demand structures"). The out-index is held either way, so the
/// out-degrees and the counts never build anything. Each orientation sits
/// behind an [`Arc`]: clones share the edges and the cells.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Vertex `v`'s out-edges are `out_index[v]..out_index[v + 1]`; a
    /// built out-edge structure shares this buffer.
    out_index: Arc<Vec<EdgeId>>,
    weighted: bool,
    out: OutEdges,
    inn: InEdges,
    name: String,
}

/// What a graph whose out-edges wait for their first reader rebuilds both
/// orientations from: every edge once, grouped by destination — the VSD,
/// held by a crate above this one, which takes it back through
/// [`EdgeSource::as_any`]. Any [`Grouped`] sequence grouped by destination
/// is one.
pub trait EdgeSource: Debug + Send + Sync {
    /// The in-edges over their vertex index `index`: the source's edges in
    /// order, each list a copy of one destination's.
    fn in_edges(&self, index: Arc<Vec<EdgeId>>, pool: Option<&ThreadPool>) -> Csr;

    /// The out-edges over their vertex index `index`: the source's stable
    /// transpose, through the transposing scatter
    /// ([`scatter_transposed`](crate::csr::scatter_transposed)).
    fn out_edges(&self, index: Arc<Vec<EdgeId>>, pool: Option<&ThreadPool>) -> Csr;

    /// True when the edges carry weights.
    fn is_weighted(&self) -> bool;

    /// The source itself, for the crate that made it to name its type.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Grouped + Debug + Send + Sync + 'static> EdgeSource for T {
    fn in_edges(&self, index: Arc<Vec<EdgeId>>, pool: Option<&ThreadPool>) -> Csr {
        Csr::copied(self, index, pool)
    }

    fn out_edges(&self, index: Arc<Vec<EdgeId>>, pool: Option<&ThreadPool>) -> Csr {
        Csr::transposed(self, index, pool)
    }

    fn is_weighted(&self) -> bool {
        self.weights().is_some()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Where a graph's out-edges are.
#[derive(Debug, Clone)]
enum OutEdges {
    /// Built with the graph.
    Built(Arc<Csr>),
    /// Rebuilt from the source by their first reader, over the out-index:
    /// the source's stable transpose, or on a symmetric graph a copy of
    /// its edges in order.
    Deferred(OnDemand<Arc<dyn EdgeSource>, Csr>),
}

/// Where a graph's in-edges are.
#[derive(Debug, Clone)]
enum InEdges {
    /// They equal the out-edges bit for bit: `out` serves both.
    Out,
    /// Built with the graph.
    Built(Arc<Csr>),
    /// Built by their first reader over the in-index counted at build:
    /// transposed from built out-edges, else copied from the source.
    Deferred(OnDemand<Arc<Vec<EdgeId>>, Csr>),
}

impl InEdges {
    /// The in-edges of a graph of `edges` edges proven `symmetric` or
    /// not: the out-edges, or a cell over their counted vertex `index`.
    fn proven(symmetric: bool, index: Arc<Vec<EdgeId>>, edges: usize) -> Self {
        match symmetric {
            true => InEdges::Out,
            false => InEdges::Deferred(OnDemand::new(index, edges)),
        }
    }
}

impl Graph {
    /// Builds a graph from an edge list. Duplicate edges are kept as-is;
    /// call [`EdgeList::sort_and_dedup`] first if you need simple graphs.
    pub fn from_edgelist(el: &EdgeList) -> Result<Self, GraphError> {
        Self::build(el, None)
    }

    /// The out-edges as [`Csr::build`] builds them, then
    /// [`Graph::from_out_csr`]; on `pool` or on the calling thread.
    fn build(el: &EdgeList, pool: Option<&ThreadPool>) -> Result<Self, GraphError> {
        if el.num_vertices() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(Self::from_out_csr(Csr::build(el, pool), pool))
    }

    /// The graph whose out-edges are `out`, its in-degrees counted on
    /// `pool` (or on the calling thread) into the in-edges' vertex index.
    /// If that differs from `out`'s, the in-edges are deferred to their
    /// first reader; otherwise they are transposed now and kept only if
    /// they differ from `out`. Either way the graph reads as the one
    /// [`Graph::from_edgelist`] builds over the same edges.
    pub fn from_out_csr(out: Csr, pool: Option<&ThreadPool>) -> Self {
        let in_index = out.transposed_index(pool);
        if *in_index != *out.index() {
            return Self::from_checked(out, in_index, false);
        }
        let inn = Csr::transposed(&out, in_index, pool);
        Self::assemble(out, inn, String::new())
    }

    /// The graph whose out-edges are `out` and whose in-edges' vertex index
    /// is `in_index`, its in-edges equal to `out` bit for bit exactly when
    /// `symmetric` says so (the caller proved it, as set-up does against
    /// the VSD): `out` then serves both orientations, and otherwise the
    /// in-edges wait for their first reader, which transposes `out` over
    /// `in_index`.
    pub fn from_checked(out: Csr, in_index: Arc<Vec<EdgeId>>, symmetric: bool) -> Self {
        assert_eq!(
            in_index.len(),
            out.index().len(),
            "one index entry per vertex"
        );
        debug_assert!(!symmetric || *in_index == *out.index());
        Graph {
            out_index: Arc::clone(out.shared_index()),
            weighted: out.weights().is_some(),
            inn: InEdges::proven(symmetric, in_index, out.num_edges()),
            out: OutEdges::Built(Arc::new(out)),
            name: String::new(),
        }
    }

    /// The graph whose edges `source` holds, grouped by destination, and
    /// whose out- and in-edges' vertex indexes are `out_index` and
    /// `in_index`: its orientations wait for their first reader, which
    /// rebuilds them from `source`. When `symmetric` — the caller proved
    /// the in-edges equal to the out-edges bit for bit, so the indexes are
    /// equal too — one cell serves both, a copy of `source`'s edges in
    /// order; otherwise the out-edges are their stable transpose and the
    /// in-edges that copy. The graph reads as the one
    /// [`Graph::from_edgelist`] builds over the same edges when `source`
    /// orders each destination's edges as its in-edges would be (by
    /// source, parallel edges in edge-list order).
    pub fn from_source(
        out_index: Arc<Vec<EdgeId>>,
        in_index: Arc<Vec<EdgeId>>,
        source: Arc<dyn EdgeSource>,
        symmetric: bool,
    ) -> Self {
        assert_eq!(
            in_index.len(),
            out_index.len(),
            "one index entry per vertex"
        );
        debug_assert!(!symmetric || in_index == out_index);
        let edges = *out_index.last().expect("index holds n + 1 entries") as usize;
        Graph {
            out_index,
            weighted: source.is_weighted(),
            out: OutEdges::Deferred(OnDemand::new(source, edges)),
            inn: InEdges::proven(symmetric, in_index, edges),
            name: String::new(),
        }
    }

    /// The one place a graph with both orientations built is put together:
    /// `inn` is dropped, and `out` serves both orientations, when the two
    /// are bit-identical.
    fn assemble(out: Csr, inn: Csr, name: String) -> Self {
        let inn = match out.bit_identical(&inn) {
            true => InEdges::Out,
            false => InEdges::Built(Arc::new(inn)),
        };
        Graph {
            out_index: Arc::clone(out.shared_index()),
            weighted: out.weights().is_some(),
            out: OutEdges::Built(Arc::new(out)),
            inn,
            name,
        }
    }

    /// Builds directly from pre-validated orientations. `out` and `inn` must
    /// describe the same edge multiset; this is checked cheaply (counts), not
    /// exhaustively. One copy is kept when they are bit-identical.
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
        Ok(Self::assemble(out, inn, name.to_string()))
    }

    /// This graph with `inserts` added and `deletes` removed, spliced into
    /// both orientations on `pool`, or on the calling thread without one —
    /// how a versioned graph merges an update batch without re-sorting its
    /// edges.
    ///
    /// Both edit lists are `(src, dst)` pairs sorted ascending; the in-edge
    /// side sorts their transposes itself. A delete drops *every* copy of
    /// its edge (a base with multi-edges loses them all) and naming an
    /// absent edge is a no-op; every insert adds one edge. Untouched
    /// adjacency lists are copied as whole runs, so the cost is the copy of
    /// both edge arrays plus the touched lists, and the result is
    /// bit-identical to [`Graph::from_edgelist`] over the edited edge set
    /// at any pool width, one copy kept when the result is symmetric. The
    /// name carries over.
    ///
    /// Deferred orientations are built first, on `pool`
    /// ([`Graph::ready_out`], [`Graph::ready_in`]).
    /// Edits carry no weights, so a weighted graph takes none.
    pub fn with_edits(
        &self,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
        pool: Option<&ThreadPool>,
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
            [
                (self.ready_out(pool), inserts, deletes),
                (self.ready_in(pool), &tin, &tdel),
            ],
            pool,
        );
        Ok(Self::assemble(out, inn, self.name.clone()))
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
        self.out_index.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        *self.out_index.last().expect("index holds n + 1 entries") as usize
    }

    /// True when edge weights are attached.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// True when the in-edges equal the out-edges bit for bit, weights
    /// included, so one [`Csr`] serves both orientations:
    /// `in_csr()` and `out_csr()` are then the same structure.
    pub fn is_symmetric(&self) -> bool {
        matches!(self.inn, InEdges::Out)
    }

    /// True when the graph left its in-edges to their first reader (built
    /// since or not): its in-degrees differ from its out-degrees, or its
    /// set-up proved it directed ([`Graph::from_checked`],
    /// [`Graph::from_source`]).
    pub fn in_edges_deferred(&self) -> bool {
        matches!(self.inn, InEdges::Deferred(_))
    }

    /// True when the graph left its out-edges to their first reader
    /// (built since or not): it was built over an [`EdgeSource`].
    pub fn out_edges_deferred(&self) -> bool {
        matches!(self.out, OutEdges::Deferred(_))
    }

    /// The source deferred out-edges are rebuilt from, if the graph was
    /// built over one ([`Graph::from_source`]).
    pub fn edge_source(&self) -> Option<&Arc<dyn EdgeSource>> {
        match &self.out {
            OutEdges::Built(_) => None,
            OutEdges::Deferred(cell) => Some(cell.source()),
        }
    }

    /// Edges grouped by source (CSR) — the push engine's structure.
    /// Deferred out-edges are built here, on the calling thread, if no
    /// earlier reader built them.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        self.ready_out(None)
    }

    /// [`Graph::out_csr`], building deferred out-edges on `pool` (under
    /// the set-up's cutover, [`OnDemand::ready`]) if no earlier reader
    /// did. Never from a worker of `pool` while they may be deferred.
    #[inline]
    pub fn ready_out(&self, pool: Option<&ThreadPool>) -> &Csr {
        match &self.out {
            OutEdges::Built(out) => out,
            OutEdges::Deferred(cell) => match cell.get() {
                Some(out) => out,
                None => cell.ready(pool, |source, pool| {
                    let index = Arc::clone(&self.out_index);
                    match self.inn {
                        // Symmetric: the in-edges, in the source's order, are these.
                        InEdges::Out => source.in_edges(index, pool),
                        _ => source.out_edges(index, pool),
                    }
                }),
            },
        }
    }

    /// The out-edges if they exist: built with the graph, or deferred and
    /// built since. Never builds them.
    #[inline]
    pub fn built_out_csr(&self) -> Option<&Csr> {
        match &self.out {
            OutEdges::Built(out) => Some(out),
            OutEdges::Deferred(cell) => cell.get(),
        }
    }

    /// The out-edges' vertex index (length `num_vertices + 1`): vertex
    /// `v`'s out-edges are `out_index()[v]..out_index()[v + 1]` of the
    /// out-edge array. Never builds deferred out-edges.
    #[inline]
    pub fn out_index(&self) -> &[EdgeId] {
        &self.out_index
    }

    /// Edges grouped by destination (CSC); the out-edge structure itself
    /// on a symmetric graph. Deferred in-edges are built here, on the
    /// calling thread, if no earlier reader built them.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        self.ready_in(None)
    }

    /// [`Graph::in_csr`], building deferred in-edges on `pool` (under the
    /// set-up's cutover, [`OnDemand::ready`]) if no earlier reader did.
    /// Never from a worker of `pool` while they may be deferred.
    #[inline]
    pub fn ready_in(&self, pool: Option<&ThreadPool>) -> &Csr {
        match &self.inn {
            InEdges::Out => self.ready_out(pool),
            InEdges::Built(inn) => inn,
            InEdges::Deferred(cell) => match cell.get() {
                Some(inn) => inn,
                None => cell.ready(pool, |index, pool| match &self.out {
                    OutEdges::Built(out) => Csr::transposed(&**out, Arc::clone(index), pool),
                    OutEdges::Deferred(cell) => cell.source().in_edges(Arc::clone(index), pool),
                }),
            },
        }
    }

    /// The in-edges if they exist: shared with the out-edges, built with
    /// the graph, or deferred and built since. Never builds them.
    #[inline]
    pub fn built_in_csr(&self) -> Option<&Csr> {
        match &self.inn {
            InEdges::Out => self.built_out_csr(),
            InEdges::Built(inn) => Some(inn),
            InEdges::Deferred(cell) => cell.get(),
        }
    }

    /// The in-edges' vertex index (length `num_vertices + 1`): vertex `v`'s
    /// in-edges are `in_index()[v]..in_index()[v + 1]` of the in-edge
    /// array. Never builds deferred in-edges.
    #[inline]
    pub fn in_index(&self) -> &[EdgeId] {
        self.shared_in_index()
    }

    /// [`Graph::in_index`] as the shared buffer it is, for a structure over
    /// the in-edges that keeps it without a copy (the VSD's edge index).
    #[inline]
    pub fn shared_in_index(&self) -> &Arc<Vec<EdgeId>> {
        match &self.inn {
            InEdges::Out => &self.out_index,
            InEdges::Built(inn) => inn.shared_index(),
            InEdges::Deferred(cell) => cell.source(),
        }
    }

    /// Out-degree of `v`, read from [`Graph::out_index`].
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.out_index[v as usize + 1] - self.out_index[v as usize]) as u32
    }

    /// In-degree of `v`, read from [`Graph::in_index`].
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        let index = self.in_index();
        (index[v as usize + 1] - index[v as usize]) as u32
    }

    /// Out-neighbors of `v`, sorted.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out_csr().neighbors(v)
    }

    /// In-neighbors of `v`, sorted.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_csr().neighbors(v)
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
    /// repeat) on a `threads`-wide pool, or on the calling thread at 0,
    /// next to the cold build of the edited edge multiset, both
    /// orientations compared exactly, one copy kept exactly when the cold
    /// build keeps one.
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
        let pool = (threads > 0).then(|| ThreadPool::single_group(threads));
        let spliced = g
            .with_edits(&sorted(inserts), &sorted(deletes), pool.as_ref())
            .map_err(|e| e.to_string())?;
        let kept = base.iter().filter(|e| !deletes.contains(e));
        let want: Vec<_> = kept.chain(inserts).copied().collect();
        let cold = Graph::from_edgelist(&EdgeList::from_pairs(n, &want).unwrap()).unwrap();
        let at = format!("{threads} threads, base {base:?} +{inserts:?} -{deletes:?}");
        if !spliced.out_csr().bit_identical(cold.out_csr())
            || !spliced.in_csr().bit_identical(cold.in_csr())
        {
            return Err(format!("spliced != cold at {at}"));
        }
        if spliced.is_symmetric() != cold.is_symmetric() {
            return Err(format!("sharing differs from the cold build at {at}"));
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
        let cases: [(Edges, Edges, Edges); 9] = [
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
            // A symmetric base with a multi-edge: a one-way insert
            // un-shares it, a symmetric pair keeps it shared, and deleting
            // one way of a pair un-shares it.
            (
                &[(0, 1), (1, 0), (1, 2), (2, 1), (1, 2), (2, 1)],
                &[(3, 4)],
                &[],
            ),
            (
                &[(0, 1), (1, 0), (1, 2), (2, 1)],
                &[(3, 4), (4, 3)],
                &[(1, 2), (2, 1)],
            ),
            (&[(0, 1), (1, 0), (5, 5)], &[], &[(0, 1)]),
        ];
        for (base, inserts, deletes) in cases {
            for threads in [0, 1, 2, 8] {
                check_splice(6, base, inserts, deletes, threads).unwrap();
            }
        }
        // A one-way edit of a shared base un-shares it; the pair's other
        // way shares it again.
        let pairs = [(0, 1), (1, 0), (1, 2), (2, 1)];
        let shared = Graph::from_edgelist(&EdgeList::from_pairs(6, &pairs).unwrap()).unwrap();
        assert!(shared.is_symmetric());
        let one_way = shared.with_edits(&[(3, 4)], &[], None).unwrap();
        assert!(!one_way.is_symmetric());
        assert!(one_way
            .with_edits(&[(4, 3)], &[], None)
            .unwrap()
            .is_symmetric());
    }

    #[test]
    fn splice_rejects_out_of_range_edits_and_weighted_bases() {
        let pool = ThreadPool::single_group(2);
        let g = sample();
        assert!(matches!(
            g.with_edits(&[(0, 4)], &[], Some(&pool)),
            Err(GraphError::VertexOutOfRange { vertex: 4, .. })
        ));
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 1.0).unwrap();
        let w = Graph::from_edgelist(&el).unwrap();
        assert!(w.with_edits(&[(1, 2)], &[], None).is_err());
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

    /// One structure serves both orientations exactly when they are
    /// bit-identical: a symmetric graph, weighted or not, multi-edges and
    /// self-loops included, at every pool width and through every
    /// constructor; a directed one, or a symmetric topology whose mirrored
    /// weights differ only in the sign of a zero or a NaN payload, keeps
    /// two. Either way both orientations read as the plain builds.
    #[test]
    fn one_copy_serves_both_orientations_exactly_when_they_are_equal() {
        let shares = |g: &Graph| std::ptr::eq(g.in_csr(), g.out_csr());
        let sym = [(0, 1), (1, 0), (1, 2), (2, 1), (1, 2), (2, 1), (3, 3)];
        let (nan, other_nan) = (f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1));
        // (name, pairs, weights, shared?)
        type Case<'a> = (&'a str, &'a [(u32, u32)], Option<Vec<f64>>, bool);
        let cases: [Case<'_>; 6] = [
            ("directed", &[(0, 1), (1, 2), (3, 3)], None, false),
            ("symmetric", &sym, None, true),
            (
                "weighted",
                &sym,
                Some(vec![1.0, 1.0, nan, nan, -0.0, -0.0, 7.0]),
                true,
            ),
            (
                "signed zero",
                &sym,
                Some(vec![1.0, 1.0, 2.0, 2.0, 0.0, -0.0, 7.0]),
                false,
            ),
            (
                "NaN payload",
                &sym,
                Some(vec![1.0, 1.0, nan, other_nan, 3.0, 3.0, 7.0]),
                false,
            ),
            (
                "weights one way",
                &[(0, 1), (1, 0)],
                Some(vec![1.0, 2.0]),
                false,
            ),
        ];
        for (name, pairs, weights, symmetric) in cases {
            let el = EdgeList::from_parts(4, pairs.to_vec(), weights).unwrap();
            let (by_src, by_dst) = (
                Csr::from_edgelist_by_src(&el),
                Csr::from_edgelist_by_dst(&el),
            );
            let parts = Graph::from_orientations(by_src.clone(), by_dst.clone(), name).unwrap();
            let built = [None, Some(1), Some(2), Some(8)].map(|threads| {
                let pool = threads.map(ThreadPool::single_group);
                Graph::build(&el, pool.as_ref()).unwrap()
            });
            for g in built.iter().chain([&parts]) {
                assert_eq!(
                    (g.is_symmetric(), shares(g)),
                    (symmetric, symmetric),
                    "{name}"
                );
                assert!(g.out_csr().bit_identical(&by_src), "{name}");
                assert!(g.in_csr().bit_identical(&by_dst), "{name}");
                for v in 0..4 {
                    assert_eq!(g.in_neighbors(v), by_dst.neighbors(v), "{name}");
                    assert_eq!(g.in_degree(v), by_dst.degree(v), "{name}");
                }
            }
        }
    }

    /// The orientations are shared, never copied: a clone reads the same
    /// structures, and the out-index the graph holds is the out-edge
    /// structure's own index.
    #[test]
    fn clones_share_the_orientations_and_the_out_index() {
        let g = sample();
        let twin = g.clone();
        assert!(std::ptr::eq(g.out_csr(), twin.out_csr()));
        assert!(std::ptr::eq(g.in_csr(), twin.in_csr()));
        assert_eq!(g.out_index().as_ptr(), g.out_csr().index().as_ptr());
        assert_eq!(twin.out_index().as_ptr(), g.out_index().as_ptr());
    }

    /// A graph whose in-degrees differ from its out-degrees defers its
    /// in-edges: the in-degrees and the in-index read without building
    /// them, and the first reader — on the calling thread, or through
    /// `ready_in` on a pool of any width — builds exactly the by-destination
    /// structure, NaN payloads and signed zeros included, over the in-index
    /// the graph counted (one buffer, not a copy). Clones share the cell,
    /// built or not.
    #[test]
    fn deferred_in_edges_wait_for_their_first_reader() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 3);
        let mut el = EdgeList::new(40);
        for s in 0..40u32 {
            for k in 0..(s % 7) {
                let w = [f64::NAN, payload, -0.0, f64::from(s) - f64::from(k) / 3.0]
                    [(s + k) as usize % 4];
                el.push_weighted(s, (s * 11 + k) % 37, w).unwrap();
            }
        }
        let want = Csr::from_edgelist_by_dst(&el);
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let g = Graph::build(&el, pool).unwrap();
            let twin = g.clone();
            assert!(g.in_edges_deferred() && !g.is_symmetric());
            assert_eq!(g.in_index(), want.index());
            for v in 0..40 {
                assert_eq!(g.in_degree(v), want.degree(v));
            }
            assert!(g.built_in_csr().is_none() && twin.built_in_csr().is_none());
            let built = match pool {
                Some(p) => g.ready_in(Some(p)),
                None => g.in_csr(),
            };
            assert!(
                built.bit_identical(&want),
                "{:?}",
                pool.map(ThreadPool::num_threads)
            );
            assert!(std::ptr::eq(twin.built_in_csr().unwrap(), built));
            assert!(std::ptr::eq(twin.in_csr(), g.in_csr()));
            assert_eq!(g.in_index().as_ptr(), g.in_csr().index().as_ptr());
        }
    }

    /// A graph over an edge source — here its own by-destination
    /// structure, which is grouped by destination as a VSD is — defers both
    /// orientations: the in- and out-degrees, the indexes, the counts and
    /// the weightedness read without building them; the first `out_csr()`
    /// (or `ready_out` on a pool of any width) builds exactly the
    /// by-source build of the list and the first `in_csr()` its transpose,
    /// NaN payloads, signed zeros and parallel edges in edge-list order
    /// included, each over its own index (one buffer, not a copy). Clones
    /// share both cells, built or not.
    #[test]
    fn deferred_out_edges_wait_for_their_first_reader() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 3);
        let mut el = EdgeList::new(40);
        for s in 0..40u32 {
            for k in 0..(s % 7) {
                let w = [f64::NAN, payload, -0.0, f64::from(s) - f64::from(k) / 3.0]
                    [(s + k) as usize % 4];
                el.push_weighted(s, (s * 11 + k) % 37, w).unwrap();
                // A parallel edge, weighted apart.
                if k == 2 {
                    el.push_weighted(s, (s * 11 + k) % 37, f64::from(k))
                        .unwrap();
                }
            }
        }
        let want_out = Csr::build(&el, None);
        let want_in = want_out.transpose(None);
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
            let g = Graph::from_source(
                Arc::new(want_out.index().to_vec()),
                Arc::new(want_in.index().to_vec()),
                Arc::new(want_in.clone()),
                false,
            );
            let twin = g.clone();
            assert!(g.out_edges_deferred() && g.in_edges_deferred() && !g.is_symmetric());
            assert_eq!(
                (g.num_vertices(), g.num_edges()),
                (40, want_out.num_edges())
            );
            assert!(g.is_weighted());
            assert_eq!(g.out_index(), want_out.index());
            assert_eq!(g.in_index(), want_in.index());
            for v in 0..40 {
                assert_eq!(g.out_degree(v), want_out.degree(v));
                assert_eq!(g.in_degree(v), want_in.degree(v));
            }
            assert!(
                g.built_out_csr().is_none() && g.built_in_csr().is_none(),
                "{at}"
            );
            let out = match pool {
                Some(p) => g.ready_out(Some(p)),
                None => g.out_csr(),
            };
            assert!(out.bit_identical(&want_out), "{at}");
            assert!(twin.built_in_csr().is_none(), "{at}");
            assert!(std::ptr::eq(twin.built_out_csr().unwrap(), out));
            let inn = match pool {
                Some(p) => g.ready_in(Some(p)),
                None => g.in_csr(),
            };
            assert!(inn.bit_identical(&want_in), "{at}");
            assert!(std::ptr::eq(twin.built_in_csr().unwrap(), inn));
            assert_eq!(g.out_index().as_ptr(), out.index().as_ptr());
            assert_eq!(g.in_index().as_ptr(), inn.index().as_ptr());
        }
    }

    /// A graph proven symmetric over an edge source — here its own
    /// structure, grouped by destination as a VSD is — keeps one cell for
    /// both orientations: the index, the degrees and the weightedness read
    /// without building it, and the first reader of either orientation
    /// (`out_csr`, `in_csr`, or `ready_out` / `ready_in` on a pool of any
    /// width) builds one structure, equal to both plain builds, NaN
    /// payloads, signed zeros and parallel edges included, over the graph's
    /// one index. It is a copy of the source's edges, not their transpose,
    /// which a source whose transpose differs shows. `from_checked` shares
    /// a built CSR the same way, or leaves a directed graph's in-edges to
    /// their first reader.
    #[test]
    fn a_symmetric_graph_over_a_source_builds_one_structure() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 3);
        let mut el = EdgeList::new(40);
        for s in 0..40u32 {
            for k in 0..(s % 5) {
                let d = (s * 11 + k) % 37;
                let w = [f64::NAN, payload, -0.0, f64::from(s + d)][(s + d) as usize % 4];
                for _ in 0..=(k % 2) {
                    el.push_weighted(s, d, w).unwrap();
                    el.push_weighted(d, s, w).unwrap();
                }
            }
        }
        let want = Csr::build(&el, None);
        assert!(
            want.bit_identical(&want.transpose(None)),
            "a symmetric list"
        );
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
            let index = Arc::new(want.index().to_vec());
            let g = Graph::from_source(Arc::clone(&index), index, Arc::new(want.clone()), true);
            let twin = g.clone();
            assert!(g.is_symmetric() && g.out_edges_deferred() && !g.in_edges_deferred());
            assert!(g.is_weighted());
            assert_eq!(g.in_index(), want.index());
            for v in 0..40 {
                assert_eq!(g.in_degree(v), want.degree(v));
            }
            assert!(g.built_out_csr().is_none() && g.built_in_csr().is_none());
            let one = match pool {
                Some(p) => g.ready_in(Some(p)),
                None => g.in_csr(),
            };
            assert!(one.bit_identical(&want), "{at}");
            assert!(std::ptr::eq(g.out_csr(), one), "{at}");
            assert!(std::ptr::eq(twin.built_out_csr().unwrap(), one), "{at}");
            assert_eq!(g.out_index().as_ptr(), one.index().as_ptr());
        }
        // A directed cycle read as symmetric: both orientations are its copy.
        let cycle = Csr::build(
            &EdgeList::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            None,
        );
        let index = Arc::new(cycle.index().to_vec());
        let g = Graph::from_source(Arc::clone(&index), index, Arc::new(cycle.clone()), true);
        assert!(g.out_csr().bit_identical(&cycle) && g.in_csr().bit_identical(&cycle));

        let index = Arc::new(want.index().to_vec());
        let g = Graph::from_checked(want.clone(), index, true);
        assert!(g.is_symmetric() && !g.out_edges_deferred());
        assert!(std::ptr::eq(g.built_in_csr().unwrap(), g.out_csr()));
        let g = Graph::from_checked(cycle.clone(), cycle.transposed_index(None), false);
        assert!(!g.is_symmetric() && g.in_edges_deferred() && g.built_in_csr().is_none());
        assert!(g.in_csr().bit_identical(&cycle.transpose(None)));
    }

    /// Equal degree sequences take the compare path: a directed cycle
    /// builds its in-edges with the graph and keeps them, a symmetric
    /// graph shares one structure, and neither defers.
    #[test]
    fn equal_degree_sequences_build_and_compare() {
        let cycle = EdgeList::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let sym = EdgeList::from_pairs(5, &[(0, 1), (1, 0), (3, 4), (4, 3)]).unwrap();
        for (el, symmetric) in [(cycle, false), (sym, true)] {
            for threads in [None, Some(1), Some(2), Some(8)] {
                let pool = threads.map(ThreadPool::single_group);
                let g = Graph::build(&el, pool.as_ref()).unwrap();
                assert!(!g.in_edges_deferred(), "{threads:?}");
                assert_eq!(g.is_symmetric(), symmetric, "{threads:?}");
                let held = g.built_in_csr().expect("built with the graph");
                assert!(held.bit_identical(&Csr::from_edgelist_by_dst(&el)));
                assert_eq!(std::ptr::eq(held, g.out_csr()), symmetric);
            }
        }
    }

    /// Parallel weighted edges of a symmetric graph keep their edge-list
    /// order, so the graph stays symmetric past the insertion sort's
    /// length: vertex 0's 80 out-edges hold 40 parallel edges to vertex 1,
    /// weighted 0 to 39, each mirrored at once, and 40 to vertex 2.
    #[test]
    fn parallel_weighted_edges_keep_a_symmetric_graph_symmetric() {
        let mut el = EdgeList::new(3);
        for i in 0..40 {
            for d in [1, 2] {
                el.push_weighted(0, d, f64::from(i)).unwrap();
                el.push_weighted(d, 0, f64::from(i)).unwrap();
            }
        }
        let in_order: Vec<f64> = (0..40).map(f64::from).collect();
        for threads in [None, Some(1), Some(2), Some(8)] {
            let pool = threads.map(ThreadPool::single_group);
            let g = Graph::build(&el, pool.as_ref()).unwrap();
            assert!(g.is_symmetric(), "{threads:?} threads");
            let ws = g.out_csr().neighbor_weights(0).unwrap();
            assert_eq!(&ws[..40], &in_order[..], "{threads:?} threads");
            assert_eq!(&ws[40..], &in_order[..], "{threads:?} threads");
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
