//! The two-level Compressed-Sparse structure (paper Figure 2).
//!
//! One [`Csr`] instance represents either orientation: built over out-edges
//! it is Compressed-Sparse-Row (CSR), built over in-edges it is
//! Compressed-Sparse-Column (CSC). The *vertex index* holds each top-level
//! vertex's starting position in the flat edge array; one endpoint of every
//! edge is implied by index position, the other is stored in the edge array.

use crate::edgelist::EdgeList;
use crate::partition::{partition_index, EdgePartition};
use crate::types::{EdgeId, GraphError, VertexId};
use grazelle_sched::ThreadPool;

/// Compressed-Sparse adjacency: `index.len() == num_vertices + 1`,
/// `edges.len() == index[num_vertices]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    index: Vec<EdgeId>,
    edges: Vec<VertexId>,
    weights: Option<Vec<f64>>,
}

impl Csr {
    /// Builds a CSR grouped by **source** from an edge list (counting sort;
    /// O(|V| + |E|)). Neighbor order within a vertex follows the edge list.
    pub fn from_edgelist_by_src(el: &EdgeList) -> Self {
        Self::build(el, true)
    }

    /// Builds a CSC (grouped by **destination**) from an edge list. The
    /// stored endpoint of each edge is then the *source* vertex.
    pub fn from_edgelist_by_dst(el: &EdgeList) -> Self {
        Self::build(el, false)
    }

    fn build(el: &EdgeList, by_src: bool) -> Self {
        let n = el.num_vertices();
        let m = el.num_edges();
        let mut index = vec![0u64; n + 1];
        for &(s, d) in el.edges() {
            let key = if by_src { s } else { d };
            index[key as usize + 1] += 1;
        }
        for i in 0..n {
            index[i + 1] += index[i];
        }
        let mut cursor = index.clone();
        let mut edges = vec![0 as VertexId; m];
        let mut weights = el.weights().map(|_| vec![0.0f64; m]);
        for (i, &(s, d)) in el.edges().iter().enumerate() {
            let (key, other) = if by_src { (s, d) } else { (d, s) };
            let pos = cursor[key as usize] as usize;
            cursor[key as usize] += 1;
            edges[pos] = other;
            if let (Some(w_out), Some(w_in)) = (&mut weights, el.weights()) {
                w_out[pos] = w_in[i];
            }
        }
        Csr {
            index,
            edges,
            weights,
        }
    }

    /// Parallel [`Csr::from_edgelist_by_src`] on a [`ThreadPool`].
    /// Bit-identical to the sequential build: a counting sort whose scatter
    /// gives each thread a contiguous key range and scans the edge list in
    /// order, so within-vertex edge order is the edge-list order.
    pub fn from_edgelist_by_src_parallel(el: &EdgeList, pool: &ThreadPool) -> Self {
        Self::build_parallel(el, true, pool)
    }

    /// Parallel [`Csr::from_edgelist_by_dst`] on a [`ThreadPool`].
    pub fn from_edgelist_by_dst_parallel(el: &EdgeList, pool: &ThreadPool) -> Self {
        Self::build_parallel(el, false, pool)
    }

    /// Parallel counting sort. Three phases:
    ///
    /// 1. **Histogram** — each thread counts key degrees over a disjoint
    ///    edge sub-range into a thread-local histogram.
    /// 2. **Prefix merge** — one sequential pass sums the histograms into
    ///    the vertex index (identical to the sequential index by
    ///    commutativity of the per-key sums).
    /// 3. **Scatter** — the key space is split into per-thread ranges of
    ///    near-equal edge count ([`crate::partition::partition_index`]).
    ///    A key range `[a, b)` owns the *contiguous* output region
    ///    `index[a]..index[b]`, handed to its thread as a plain
    ///    `split_at_mut` slice — no aliasing, no `unsafe`. Each thread
    ///    scans the full edge list in order and writes only its own keys,
    ///    so within-vertex edge order is the edge-list order, exactly as in
    ///    the sequential scatter.
    fn build_parallel(el: &EdgeList, by_src: bool, pool: &ThreadPool) -> Self {
        let t = pool.num_threads();
        if t == 1 {
            return Self::build(el, by_src);
        }
        let n = el.num_vertices();
        let m = el.num_edges();
        let all = el.edges();
        let w_in = el.weights();
        // Phase 1: per-thread histograms over disjoint edge sub-ranges.
        let hists: Vec<Vec<u32>> = pool.run_map_with(|ctx| {
            let lo = m * ctx.global_id / t;
            let hi = m * (ctx.global_id + 1) / t;
            let mut h = vec![0u32; n];
            for &(s, d) in &all[lo..hi] {
                let key = if by_src { s } else { d };
                h[key as usize] += 1;
            }
            h
        });
        // Phase 2: sequential prefix-sum merge into the vertex index.
        let mut index = vec![0u64; n + 1];
        for v in 0..n {
            let deg: u64 = hists.iter().map(|h| h[v] as u64).sum();
            index[v + 1] = index[v] + deg;
        }
        drop(hists);
        // Phase 3: parallel scatter over disjoint destination key ranges.
        let parts = crate::partition::partition_index(&index, t);
        let mut edges = vec![0 as VertexId; m];
        let mut weights = w_in.map(|_| vec![0.0f64; m]);
        let mut tasks = Vec::with_capacity(t);
        {
            let mut erest: &mut [VertexId] = &mut edges;
            let mut wrest: Option<&mut [f64]> = weights.as_deref_mut();
            for p in &parts {
                let len = p.num_edges();
                let (ehead, etail) = erest.split_at_mut(len);
                erest = etail;
                let whead = match wrest.take() {
                    Some(w) => {
                        let (a, b) = w.split_at_mut(len);
                        wrest = Some(b);
                        Some(a)
                    }
                    None => None,
                };
                tasks.push((*p, ehead, whead));
            }
        }
        pool.run_tasks(tasks, |_, (part, eslice, mut wslice)| {
            let key_lo = part.first_vertex;
            let key_hi = part.last_vertex;
            if key_lo == key_hi {
                return;
            }
            let base = index[key_lo as usize];
            // Per-key write cursors, relative to this partition's slice.
            let mut cursor: Vec<usize> = index[key_lo as usize..key_hi as usize]
                .iter()
                .map(|&e| (e - base) as usize)
                .collect();
            for (i, &(s, d)) in all.iter().enumerate() {
                let (key, other) = if by_src { (s, d) } else { (d, s) };
                if key >= key_lo && key < key_hi {
                    let c = &mut cursor[(key - key_lo) as usize];
                    eslice[*c] = other;
                    if let Some(w_out) = wslice.as_mut() {
                        w_out[*c] = w_in.expect("weighted task without weights")[i];
                    }
                    *c += 1;
                }
            }
        });
        let built = Csr {
            index,
            edges,
            weights,
        };
        debug_assert_eq!(
            built,
            Self::build(el, by_src),
            "parallel CSR build diverged from sequential"
        );
        built
    }

    /// Constructs a CSR directly from raw parts, validating the index.
    pub fn from_parts(
        index: Vec<EdgeId>,
        edges: Vec<VertexId>,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, GraphError> {
        if index.is_empty() {
            return Err(GraphError::MalformedIndex("index is empty".into()));
        }
        if index[0] != 0 {
            return Err(GraphError::MalformedIndex(format!(
                "index[0] = {} (expected 0)",
                index[0]
            )));
        }
        for w in index.windows(2) {
            if w[1] < w[0] {
                return Err(GraphError::MalformedIndex(format!(
                    "index decreases: {} -> {}",
                    w[0], w[1]
                )));
            }
        }
        let last = *index.last().unwrap();
        if last != edges.len() as u64 {
            return Err(GraphError::MalformedIndex(format!(
                "index covers {last} edges but edge array has {}",
                edges.len()
            )));
        }
        if let Some(w) = &weights {
            if w.len() != edges.len() {
                return Err(GraphError::WeightLengthMismatch {
                    edges: edges.len(),
                    weights: w.len(),
                });
            }
        }
        let n = (index.len() - 1) as u64;
        if let Some(&bad) = edges.iter().find(|&&v| v as u64 >= n) {
            return Err(GraphError::VertexOutOfRange {
                vertex: bad as u64,
                num_vertices: n,
            });
        }
        Ok(Csr {
            index,
            edges,
            weights,
        })
    }

    /// Number of top-level vertices.
    pub fn num_vertices(&self) -> usize {
        self.index.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The vertex index array (length `num_vertices + 1`).
    pub fn index(&self) -> &[EdgeId] {
        &self.index
    }

    /// The flat edge (neighbor) array.
    pub fn edges(&self) -> &[VertexId] {
        &self.edges
    }

    /// Edge weights aligned with [`Csr::edges`], if present.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Degree of `v` under this orientation.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.index[v as usize + 1] - self.index[v as usize]) as u32
    }

    /// Degrees of all vertices.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .collect()
    }

    /// Half-open edge-array range owned by `v`.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.index[v as usize] as usize..self.index[v as usize + 1] as usize
    }

    /// Neighbors of `v` (the stored endpoints of its edges).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.edges[self.edge_range(v)]
    }

    /// Weights of `v`'s edges, if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f64]> {
        let r = self.edge_range(v);
        self.weights.as_ref().map(|w| &w[r])
    }

    /// Iterates `(top_level_vertex, stored_endpoint, edge_index)` over all
    /// edges in edge-array order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, usize)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.edge_range(v as VertexId)
                .map(move |e| (v as VertexId, self.edges[e], e))
        })
    }

    /// Sorts each vertex's neighbor list in place (weights permuted along).
    pub fn sort_neighbors(&mut self) {
        for v in 0..self.num_vertices() {
            let r = self.edge_range(v as VertexId);
            match &mut self.weights {
                None => self.edges[r].sort_unstable(),
                Some(w) => {
                    let mut pairs: Vec<(VertexId, f64)> = self.edges[r.clone()]
                        .iter()
                        .copied()
                        .zip(w[r.clone()].iter().copied())
                        .collect();
                    pairs.sort_unstable_by_key(|&(v, _)| v);
                    for (i, (nv, nw)) in pairs.into_iter().enumerate() {
                        self.edges[r.start + i] = nv;
                        w[r.start + i] = nw;
                    }
                }
            }
        }
    }

    /// Parallel [`Csr::sort_neighbors`]: vertex ranges of near-equal edge
    /// count are sorted concurrently. Each partition's edge (and weight)
    /// region is contiguous, so the distribution is a plain `split_at_mut`.
    /// `sort_unstable` is deterministic for a fixed input slice and every
    /// per-vertex slice is identical to the sequential call's, so the result
    /// is bit-identical to [`Csr::sort_neighbors`].
    pub fn sort_neighbors_parallel(&mut self, pool: &ThreadPool) {
        let t = pool.num_threads();
        if t == 1 {
            return self.sort_neighbors();
        }
        let parts = crate::partition::partition_index(&self.index, t);
        let index = &self.index;
        let weighted = self.weights.is_some();
        let mut tasks = Vec::with_capacity(t);
        {
            let mut erest: &mut [VertexId] = &mut self.edges;
            let mut wrest: Option<&mut [f64]> = self.weights.as_deref_mut();
            for p in &parts {
                let len = p.num_edges();
                let (ehead, etail) = erest.split_at_mut(len);
                erest = etail;
                let whead = match wrest.take() {
                    Some(w) => {
                        let (a, b) = w.split_at_mut(len);
                        wrest = Some(b);
                        Some(a)
                    }
                    None => None,
                };
                tasks.push((*p, ehead, whead));
            }
        }
        pool.run_tasks(tasks, |_, (part, eslice, mut wslice)| {
            if part.first_vertex == part.last_vertex {
                return;
            }
            let base = index[part.first_vertex as usize];
            for v in part.vertices() {
                let lo = (index[v as usize] - base) as usize;
                let hi = (index[v as usize + 1] - base) as usize;
                match (weighted, wslice.as_mut()) {
                    (false, _) => eslice[lo..hi].sort_unstable(),
                    (true, Some(w)) => {
                        let mut pairs: Vec<(VertexId, f64)> = eslice[lo..hi]
                            .iter()
                            .copied()
                            .zip(w[lo..hi].iter().copied())
                            .collect();
                        pairs.sort_unstable_by_key(|&(v, _)| v);
                        for (i, (nv, nw)) in pairs.into_iter().enumerate() {
                            eslice[lo + i] = nv;
                            w[lo + i] = nw;
                        }
                    }
                    (true, None) => unreachable!("weighted CSR lost its weight slice"),
                }
            }
        });
    }

    /// The vertex index of this structure after [`splice`]: the old index
    /// shifted in runs, with only the vertices an edit names re-counted.
    fn spliced_index(&self, inserts: Edits<'_>, deletes: Edits<'_>) -> Vec<u64> {
        fn shifted(ends: &[u64], shift: i64) -> impl Iterator<Item = u64> + '_ {
            ends.iter().map(move |&e| (e as i64 + shift) as u64)
        }
        let mut index = Vec::with_capacity(self.index.len());
        index.push(0u64);
        let mut shift = 0i64;
        // `index` holds the starts of every vertex up to `next`.
        let mut next = 0usize;
        for (v, vi, vd) in touched(inserts, deletes) {
            let v = v as usize;
            index.extend(shifted(&self.index[next + 1..=v], shift));
            let list = self.neighbors(v as VertexId);
            let mut len = 0;
            splice_list(list, vi, vd, |piece| len += piece.len());
            shift += len as i64 - list.len() as i64;
            index.extend(shifted(&self.index[v + 1..=v + 1], shift));
            next = v + 1;
        }
        index.extend(shifted(&self.index[next + 1..], shift));
        index
    }

    /// Writes the spliced edges of the vertices of `part` to `out`: every
    /// run of untouched vertices as one slice, and each touched list as the
    /// slices between its edits, found by binary search, with the inserted
    /// endpoints in between.
    fn fill_spliced(
        &self,
        part: EdgePartition,
        out: &mut [VertexId],
        inserts: Edits<'_>,
        deletes: Edits<'_>,
    ) {
        let [ins, del] = [inserts, deletes].map(|edits| {
            let lo = edits.partition_point(|e| e.0 < part.first_vertex);
            let hi = edits.partition_point(|e| e.0 < part.last_vertex);
            &edits[lo..hi]
        });
        let old = |from: VertexId, to: VertexId| {
            &self.edges[self.index[from as usize] as usize..self.index[to as usize] as usize]
        };
        let (mut pos, mut from) = (0usize, part.first_vertex);
        let mut put = |piece: &[VertexId]| {
            out[pos..pos + piece.len()].copy_from_slice(piece);
            pos += piece.len();
        };
        for (v, vi, vd) in touched(ins, del) {
            put(old(from, v));
            splice_list(self.neighbors(v), vi, vd, &mut put);
            from = v + 1;
        }
        put(old(from, part.last_vertex));
    }

    /// Returns the transposed structure: if `self` groups by source, the
    /// result groups by destination (and vice versa).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let m = self.num_edges();
        let mut index = vec![0u64; n + 1];
        for &t in &self.edges {
            index[t as usize + 1] += 1;
        }
        for i in 0..n {
            index[i + 1] += index[i];
        }
        let mut cursor = index.clone();
        let mut edges = vec![0 as VertexId; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0f64; m]);
        for v in 0..n {
            for e in self.edge_range(v as VertexId) {
                let t = self.edges[e] as usize;
                let pos = cursor[t] as usize;
                cursor[t] += 1;
                edges[pos] = v as VertexId;
                if let (Some(w_out), Some(w_in)) = (&mut weights, &self.weights) {
                    w_out[pos] = w_in[e];
                }
            }
        }
        Csr {
            index,
            edges,
            weights,
        }
    }
}

/// An edit list: `(top-level vertex, stored endpoint)` pairs, sorted.
pub(crate) type Edits<'a> = &'a [(VertexId, VertexId)];

/// Each neighbour-sorted, unweighted structure of `jobs` with its
/// `(top-level vertex, stored endpoint)` inserts added and every copy of
/// each of its deletes dropped, edits sorted ascending — what
/// [`Graph::with_edits`](crate::graph::Graph::with_edits) runs on both
/// orientations at once.
///
/// The new vertex indexes are computed on the calling thread. The edge
/// arrays are then written in one pool dispatch, each worker filling one
/// edge-balanced vertex range of every job's *new* index; a one-thread
/// pool's single range is filled on the calling thread. The result equals the counting-sort build plus
/// [`Csr::sort_neighbors`] over the same edge multiset, because a sorted
/// `u32` list is unique.
pub(crate) fn splice<const K: usize>(
    jobs: [(&Csr, Edits<'_>, Edits<'_>); K],
    pool: &ThreadPool,
) -> [Csr; K] {
    let threads = pool.num_threads();
    let indexes = jobs.map(|(csr, ins, del)| {
        debug_assert!(csr.weights.is_none(), "edits carry no weights");
        csr.spliced_index(ins, del)
    });
    // Zeroed, not filled: a block this size is its own mapping, so the
    // workers fault its pages in, not the calling thread.
    let mut edges = indexes.each_ref().map(|index| {
        vec![0 as VertexId; *index.last().expect("index holds n + 1 entries") as usize]
    });
    let mut tasks: Vec<Vec<_>> = (0..threads).map(|_| Vec::with_capacity(K)).collect();
    for (job, (index, edges)) in indexes.iter().zip(edges.iter_mut()).enumerate() {
        let mut rest: &mut [VertexId] = edges;
        for (task, part) in tasks.iter_mut().zip(partition_index(index, threads)) {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(part.num_edges());
            rest = tail;
            task.push((job, part, out));
        }
    }
    let fill = |pieces: Vec<(usize, EdgePartition, &mut [VertexId])>| {
        for (job, part, out) in pieces {
            let (csr, ins, del) = jobs[job];
            csr.fill_spliced(part, out, ins, del);
        }
    };
    if threads == 1 {
        tasks.into_iter().for_each(fill);
    } else {
        pool.run_tasks(tasks, |_, pieces| fill(pieces));
    }
    let mut edges = edges.into_iter();
    indexes.map(|index| Csr {
        index,
        edges: edges.next().expect("one edge array per index"),
        weights: None,
    })
}

/// Every vertex `ins` or `del` names, ascending, with its share of each.
fn touched<'a>(
    mut ins: Edits<'a>,
    mut del: Edits<'a>,
) -> impl Iterator<Item = (VertexId, Edits<'a>, Edits<'a>)> {
    std::iter::from_fn(move || {
        let v = ins
            .first()
            .into_iter()
            .chain(del.first())
            .map(|e| e.0)
            .min()?;
        let take = |edits: &mut Edits<'a>| {
            let (own, rest) = edits.split_at(edits.iter().take_while(|e| e.0 == v).count());
            *edits = rest;
            own
        };
        Some((v, take(&mut ins), take(&mut del)))
    })
}

/// Hands `sink`, in order, the pieces of the sorted `list` with the
/// endpoints of `added` merged in and every copy of each endpoint of `dead`
/// dropped (`added` and `dead` are one vertex's sorted edits): the runs of
/// `list` between edits, whole, and each added endpoint alone. A delete
/// goes before an insert of the same endpoint.
fn splice_list<'a>(
    list: &[VertexId],
    mut added: Edits<'a>,
    mut dead: Edits<'a>,
    mut sink: impl FnMut(&[VertexId]),
) {
    let mut rest = list;
    loop {
        let delete = dead
            .first()
            .is_some_and(|d| added.first().is_none_or(|a| d.1 <= a.1));
        let edits = if delete { &mut dead } else { &mut added };
        let Some((&(_, x), tail)) = edits.split_first() else {
            break;
        };
        *edits = tail;
        let (keep, from_x) = rest.split_at(rest.partition_point(|&y| y < x));
        sink(keep);
        rest = from_x;
        if delete {
            rest = &rest[rest.partition_point(|&y| y == x)..];
        } else {
            sink(&[x]);
        }
    }
    sink(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_el() -> EdgeList {
        // 0->{1,2}, 1->{2}, 3->{0,2}, 4->{}
        EdgeList::from_pairs(5, &[(0, 1), (0, 2), (1, 2), (3, 0), (3, 2)]).unwrap()
    }

    #[test]
    fn build_by_src_matches_figure2_shape() {
        let csr = Csr::from_edgelist_by_src(&sample_el());
        assert_eq!(csr.num_vertices(), 5);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.index(), &[0, 2, 3, 3, 5, 5]);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[] as &[VertexId]);
        assert_eq!(csr.neighbors(3), &[0, 2]);
        assert_eq!(csr.neighbors(4), &[] as &[VertexId]);
    }

    #[test]
    fn build_by_dst_groups_in_edges() {
        let csc = Csr::from_edgelist_by_dst(&sample_el());
        assert_eq!(csc.neighbors(2).len(), 3); // in-neighbors of 2: 0,1,3
        let mut nbrs = csc.neighbors(2).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, &[0, 1, 3]);
        assert_eq!(csc.degree(0), 1);
        assert_eq!(csc.degree(4), 0);
    }

    #[test]
    fn degrees_sum_to_edge_count() {
        let csr = Csr::from_edgelist_by_src(&sample_el());
        let total: u64 = csr.degrees().iter().map(|&d| d as u64).sum();
        assert_eq!(total, csr.num_edges() as u64);
    }

    #[test]
    fn transpose_of_transpose_is_identity_after_sort() {
        let mut csr = Csr::from_edgelist_by_src(&sample_el());
        csr.sort_neighbors();
        let mut back = csr.transpose().transpose();
        back.sort_neighbors();
        assert_eq!(csr, back);
    }

    #[test]
    fn transpose_matches_by_dst_build() {
        let el = sample_el();
        let mut a = Csr::from_edgelist_by_src(&el).transpose();
        let mut b = Csr::from_edgelist_by_dst(&el);
        a.sort_neighbors();
        b.sort_neighbors();
        assert_eq!(a, b);
    }

    #[test]
    fn weights_follow_edges_through_build_and_transpose() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10.0).unwrap();
        el.push_weighted(0, 2, 20.0).unwrap();
        el.push_weighted(2, 1, 30.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        assert_eq!(csr.neighbor_weights(0).unwrap(), &[10.0, 20.0]);
        assert_eq!(csr.neighbor_weights(2).unwrap(), &[30.0]);
        let csc = csr.transpose();
        // In-edges of 1: from 0 (w=10) and from 2 (w=30).
        let nbrs = csc.neighbors(1);
        let ws = csc.neighbor_weights(1).unwrap();
        let pairs: std::collections::HashMap<_, _> =
            nbrs.iter().copied().zip(ws.iter().copied()).collect();
        assert_eq!(pairs[&0], 10.0);
        assert_eq!(pairs[&2], 30.0);
    }

    #[test]
    fn from_parts_validation() {
        assert!(Csr::from_parts(vec![], vec![], None).is_err());
        assert!(Csr::from_parts(vec![1, 2], vec![0, 0], None).is_err()); // index[0] != 0
        assert!(Csr::from_parts(vec![0, 2, 1], vec![0, 0], None).is_err()); // decreasing
        assert!(Csr::from_parts(vec![0, 1], vec![0, 0], None).is_err()); // wrong coverage
        assert!(Csr::from_parts(vec![0, 1], vec![5], None).is_err()); // endpoint out of range
        assert!(Csr::from_parts(vec![0, 1], vec![0], Some(vec![1.0, 2.0])).is_err());
        assert!(Csr::from_parts(vec![0, 1], vec![0], Some(vec![1.0])).is_ok());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let el = sample_el();
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::single_group(threads);
            assert_eq!(
                Csr::from_edgelist_by_src_parallel(&el, &pool),
                Csr::from_edgelist_by_src(&el),
                "by_src at {threads} threads"
            );
            assert_eq!(
                Csr::from_edgelist_by_dst_parallel(&el, &pool),
                Csr::from_edgelist_by_dst(&el),
                "by_dst at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_build_carries_weights() {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 10.0).unwrap();
        el.push_weighted(3, 1, 20.0).unwrap();
        el.push_weighted(0, 2, 30.0).unwrap();
        el.push_weighted(3, 0, 40.0).unwrap();
        let pool = ThreadPool::single_group(3);
        assert_eq!(
            Csr::from_edgelist_by_src_parallel(&el, &pool),
            Csr::from_edgelist_by_src(&el)
        );
        assert_eq!(
            Csr::from_edgelist_by_dst_parallel(&el, &pool),
            Csr::from_edgelist_by_dst(&el)
        );
    }

    #[test]
    fn parallel_build_handles_empty_and_hub_shapes() {
        let pool = ThreadPool::single_group(4);
        // No edges at all.
        let empty = EdgeList::new(3);
        assert_eq!(
            Csr::from_edgelist_by_src_parallel(&empty, &pool),
            Csr::from_edgelist_by_src(&empty)
        );
        // One hub vertex owning every edge (stress for key-range balance).
        let mut pairs = vec![];
        for d in 1..50u32 {
            pairs.push((0, d));
        }
        let hub = EdgeList::from_pairs(50, &pairs).unwrap();
        assert_eq!(
            Csr::from_edgelist_by_src_parallel(&hub, &pool),
            Csr::from_edgelist_by_src(&hub)
        );
        assert_eq!(
            Csr::from_edgelist_by_dst_parallel(&hub, &pool),
            Csr::from_edgelist_by_dst(&hub)
        );
    }

    #[test]
    fn parallel_sort_neighbors_matches_sequential() {
        let mut el = EdgeList::new(6);
        el.push_weighted(0, 5, 1.0).unwrap();
        el.push_weighted(0, 2, 2.0).unwrap();
        el.push_weighted(0, 4, 3.0).unwrap();
        el.push_weighted(3, 1, 4.0).unwrap();
        el.push_weighted(3, 0, 5.0).unwrap();
        let pool = ThreadPool::single_group(3);
        let mut seq = Csr::from_edgelist_by_src(&el);
        let mut par = seq.clone();
        seq.sort_neighbors();
        par.sort_neighbors_parallel(&pool);
        assert_eq!(seq, par);
    }

    #[test]
    fn iter_edges_covers_all_in_order() {
        let csr = Csr::from_edgelist_by_src(&sample_el());
        let collected: Vec<_> = csr.iter_edges().collect();
        assert_eq!(
            collected,
            vec![(0, 1, 0), (0, 2, 1), (1, 2, 2), (3, 0, 3), (3, 2, 4)]
        );
    }

    #[test]
    fn empty_vertex_set_is_representable() {
        let el = EdgeList::new(1);
        let csr = Csr::from_edgelist_by_src(&el);
        assert_eq!(csr.num_vertices(), 1);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.neighbors(0), &[] as &[VertexId]);
    }
}
