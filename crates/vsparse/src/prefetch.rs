//! Software prefetch of one vertex's Vector-Sparse lines.
//!
//! Vector-Sparse is laid out for streaming pull, where the hardware
//! prefetcher keeps up on its own. A sparse push instead visits a frontier
//! list of scattered vertices, each costing two or three dependent cache
//! misses (the index entries, then the first edge vector and its first
//! weight) — but the list is known a whole superstep ahead, so the scan can
//! ask for those lines a few vertices early and overlap the misses
//! (DESIGN.md §17, "Prefetch").

use crate::build::VectorSparse;
use grazelle_graph::types::VertexId;

impl VectorSparse {
    /// Asks for the line holding `v`'s index entry and, on a weighted
    /// structure, its edge index entry: the first stage of the pipeline,
    /// issued far enough ahead that the
    /// [`prefetch_vertex`](VectorSparse::prefetch_vertex) of the same vertex
    /// finds them cached. A no-op for an out-of-range `v` and on targets
    /// without a prefetch instruction.
    #[inline]
    pub fn prefetch_index(&self, v: VertexId) {
        if let Some(entry) = self.index().get(v as usize) {
            prefetch_line(entry);
        }
        if self.weight_vectors().is_some() {
            if let Some(entry) = self.edge_index().get(v as usize) {
                prefetch_line(entry);
            }
        }
    }

    /// Asks for the lines of `v`'s first edge vector and, on a weighted
    /// structure, its first weight. Reads `v`'s index entries to find them,
    /// so it should follow a [`prefetch_index`](VectorSparse::prefetch_index)
    /// of `v` by a few vertices. A no-op for a vertex without edges beyond
    /// the last vector and on targets without a prefetch instruction.
    #[inline]
    pub fn prefetch_vertex(&self, v: VertexId) {
        self.prefetch_edges(v);
        let first = self.edge_index().get(v as usize);
        if let Some(w) = first.and_then(|&e| self.weight_vectors()?.get(e as usize)) {
            prefetch_line(w);
        }
    }

    /// [`prefetch_vertex`](VectorSparse::prefetch_vertex) without the
    /// weight: for a scan whose messages do not read weights (BFS on a
    /// weighted structure), where that line would be fetched for nothing.
    #[inline]
    pub fn prefetch_edges(&self, v: VertexId) {
        let first = self.index().get(v as usize);
        if let Some(ev) = first.and_then(|&at| self.vectors().get(at as usize)) {
            prefetch_line(ev);
        }
    }
}

/// Hints the cache hierarchy to fetch the line holding `target` into L1.
#[inline(always)]
fn prefetch_line<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint with no architectural effect: it
    // never faults and writes nothing, and SSE is part of the x86-64
    // baseline. The address comes from a live reference besides.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((target as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

#[cfg(test)]
mod tests {
    use crate::build::VectorSparse;
    use grazelle_graph::csr::Csr;
    use grazelle_graph::edgelist::EdgeList;

    /// Prefetch is a hint: every vertex, the one past the end and a
    /// vertex without edges are all accepted without touching results.
    #[test]
    fn prefetch_accepts_every_vertex_and_changes_nothing() {
        let mut el = EdgeList::new(4);
        for (s, d, w) in [(0, 1, 2.0), (0, 2, 1.0), (2, 3, 5.0)] {
            el.push_weighted(s, d, w).unwrap();
        }
        let vs = VectorSparse::from_csr(&Csr::from_edgelist_by_src(&el));
        let before = vs.clone();
        for v in 0..6 {
            vs.prefetch_index(v);
            vs.prefetch_vertex(v);
            vs.prefetch_edges(v);
        }
        assert!(vs.bit_identical(&before));
    }
}
