//! Contiguous edge-array partitioning.
//!
//! Grazelle optimizes for NUMA by "dividing the edge vector array into
//! equally-sized pieces, plac\[ing\] each piece in locally-allocated memory on
//! each NUMA node, and generat\[ing\] a separate vertex index for each NUMA
//! node's piece" (§5). Because edges are grouped and sorted by top-level
//! vertex, each piece covers a contiguous *vertex* range as well. We
//! reproduce the partitioning logic exactly; physical NUMA placement is the
//! one thing this host cannot express (DESIGN.md §4.2), so partitions map to
//! *thread groups* instead.

use crate::csr::Csr;
use crate::types::VertexId;

/// One contiguous piece of an edge array, aligned to vertex boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePartition {
    /// First top-level vertex owned by this partition.
    pub first_vertex: VertexId,
    /// One past the last top-level vertex owned.
    pub last_vertex: VertexId,
    /// Half-open range into the flat edge array.
    pub edge_start: usize,
    pub edge_end: usize,
}

impl EdgePartition {
    /// Number of edges in the partition.
    pub fn num_edges(&self) -> usize {
        self.edge_end - self.edge_start
    }

    /// Number of top-level vertices in the partition.
    pub fn num_vertices(&self) -> usize {
        (self.last_vertex - self.first_vertex) as usize
    }

    /// Vertex range as a std range.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        self.first_vertex..self.last_vertex
    }
}

/// Splits a [`Csr`]'s edge array into `k` pieces of near-equal edge count,
/// each aligned to a top-level-vertex boundary. Every vertex belongs to
/// exactly one partition; empty trailing partitions are possible for tiny
/// graphs.
pub fn partition_by_edges(csr: &Csr, k: usize) -> Vec<EdgePartition> {
    partition_index(csr.index(), k)
}

/// [`partition_by_edges`] over any Compressed-Sparse-style vertex index
/// (`index.len() == num_vertices + 1`, monotone, `index[0] == 0`). Used
/// both for raw edge arrays and for Vector-Sparse *vector* arrays, whose
/// per-vertex index has the same shape — this is how Grazelle "divide\[s\]
/// the edge vector array into equally-sized pieces … and generate\[s\] a
/// separate vertex index for each NUMA node's piece" (§5).
pub fn partition_index(index: &[u64], k: usize) -> Vec<EdgePartition> {
    assert!(k >= 1, "need at least one partition");
    assert!(!index.is_empty() && index[0] == 0, "malformed index");
    let n = index.len() - 1;
    let m = *index.last().unwrap() as usize;
    let mut parts = Vec::with_capacity(k);
    let mut v = 0usize;
    for p in 0..k {
        let target_end = ((p + 1) as u128 * m as u128 / k as u128) as u64;
        let first_vertex = v as VertexId;
        let edge_start = index[v] as usize;
        // Advance until this partition's edge count reaches its share.
        // The last partition always absorbs the remainder.
        if p + 1 == k {
            v = n;
        } else {
            while v < n && index[v + 1] <= target_end {
                v += 1;
            }
            // Guarantee forward progress when a single vertex exceeds the
            // share (high-degree hubs).
            if (v as VertexId) == first_vertex && v < n {
                v += 1;
            }
        }
        parts.push(EdgePartition {
            first_vertex,
            last_vertex: v as VertexId,
            edge_start,
            edge_end: index[v] as usize,
        });
    }
    parts
}

/// One partition with its slice of an array (and of a second, optional
/// one): see [`split_by_parts`].
pub type PartSlices<'a, E, W> = (EdgePartition, &'a mut [E], Option<&'a mut [W]>);

/// `items` (and `weights`) cut into one contiguous slice per partition,
/// `part.num_edges()` long each and in order, handed out with the
/// partition: the disjoint output regions of a build that fills one
/// partition per share, through plain `split_at_mut`.
pub fn split_by_parts<'a, E, W>(
    parts: &[EdgePartition],
    mut items: &'a mut [E],
    mut weights: Option<&'a mut [W]>,
) -> Vec<PartSlices<'a, E, W>> {
    parts
        .iter()
        .map(|part| {
            let len = part.num_edges();
            let (head, tail) = std::mem::take(&mut items).split_at_mut(len);
            items = tail;
            let whead = weights.take().map(|w| {
                let (a, b) = w.split_at_mut(len);
                weights = Some(b);
                a
            });
            (*part, head, whead)
        })
        .collect()
}

/// Splits the vertex range `0..n` into `k` equal pieces (the paper's
/// statically-scheduled Vertex phase).
pub fn partition_by_vertices(n: usize, k: usize) -> Vec<std::ops::Range<VertexId>> {
    assert!(k >= 1);
    (0..k)
        .map(|p| {
            let start = (p as u128 * n as u128 / k as u128) as VertexId;
            let end = ((p + 1) as u128 * n as u128 / k as u128) as VertexId;
            start..end
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::gen::rmat::{rmat, RmatConfig};

    fn csr_of(pairs: &[(u32, u32)], n: usize) -> Csr {
        Csr::from_edgelist_by_src(&EdgeList::from_pairs(n, pairs).unwrap())
    }

    fn check_cover(csr: &Csr, parts: &[EdgePartition]) {
        assert_eq!(parts[0].first_vertex, 0);
        assert_eq!(parts[0].edge_start, 0);
        for w in parts.windows(2) {
            assert_eq!(w[0].last_vertex, w[1].first_vertex);
            assert_eq!(w[0].edge_end, w[1].edge_start);
        }
        assert_eq!(
            parts.last().unwrap().last_vertex as usize,
            csr.num_vertices()
        );
        assert_eq!(parts.last().unwrap().edge_end, csr.num_edges());
    }

    #[test]
    fn single_partition_covers_everything() {
        let csr = csr_of(&[(0, 1), (1, 2), (2, 0)], 3);
        let parts = partition_by_edges(&csr, 1);
        assert_eq!(parts.len(), 1);
        check_cover(&csr, &parts);
        assert_eq!(parts[0].num_edges(), 3);
    }

    #[test]
    fn partitions_tile_the_edge_array() {
        let el = rmat(&RmatConfig::graph500(10, 8.0, 13));
        let csr = Csr::from_edgelist_by_src(&el);
        for k in [2, 3, 4, 7, 16] {
            let parts = partition_by_edges(&csr, k);
            assert_eq!(parts.len(), k);
            check_cover(&csr, &parts);
        }
    }

    #[test]
    fn partitions_are_balanced_on_uniform_graph() {
        let pairs: Vec<_> = (0..1000u32).map(|v| (v, (v + 1) % 1000)).collect();
        let csr = csr_of(&pairs, 1000);
        let parts = partition_by_edges(&csr, 4);
        for p in &parts {
            assert_eq!(p.num_edges(), 250);
        }
    }

    #[test]
    fn hub_vertex_does_not_stall_partitioning() {
        // Vertex 0 owns nearly all edges; partitioning must still cover all
        // vertices and make progress.
        let mut pairs = vec![];
        for d in 1..100u32 {
            pairs.push((0, d));
        }
        pairs.push((50, 51));
        let csr = csr_of(&pairs, 100);
        let parts = partition_by_edges(&csr, 4);
        check_cover(&csr, &parts);
        assert!(parts[0].num_edges() >= 99);
    }

    #[test]
    fn vertex_partitioning_is_equal_and_covering() {
        let parts = partition_by_vertices(10, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], 0..3);
        assert_eq!(parts[1], 3..6);
        assert_eq!(parts[2], 6..10);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn partition_index_works_on_raw_indexes() {
        // A vector-array-style index: vertex 0 owns 2 vectors, 1 owns 0,
        // 2 owns 3, 3 owns 1.
        let index = [0u64, 2, 2, 5, 6];
        let parts = partition_index(&index, 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].edge_start, 0);
        assert_eq!(parts.last().unwrap().edge_end, 6);
        for w in parts.windows(2) {
            assert_eq!(w[0].edge_end, w[1].edge_start);
            assert_eq!(w[0].last_vertex, w[1].first_vertex);
        }
        let covered: usize = parts.iter().map(|p| p.num_vertices()).sum();
        assert_eq!(covered, 4);
    }

    #[test]
    fn more_partitions_than_vertices() {
        let csr = csr_of(&[(0, 1)], 2);
        let parts = partition_by_edges(&csr, 8);
        check_cover(&csr, &parts);
        let covered: usize = parts.iter().map(|p| p.num_vertices()).sum();
        assert_eq!(covered, 2);
    }
}
