//! The two-level Compressed-Sparse structure (paper Figure 2).
//!
//! One [`Csr`] instance represents either orientation: built over out-edges
//! it is Compressed-Sparse-Row (CSR), built over in-edges it is
//! Compressed-Sparse-Column (CSC). The *vertex index* holds each top-level
//! vertex's starting position in the flat edge array; one endpoint of every
//! edge is implied by index position, the other is stored in the edge array.

use crate::edgelist::EdgeList;
use crate::partition::{partition_index, split_by_parts, EdgePartition};
use crate::types::{EdgeId, GraphError, VertexId};
use grazelle_sched::alloc::{self, RangeWriter, WorkerFilled};
use grazelle_sched::{run_shares, ThreadPool};
use std::ops::Range;
use std::sync::Arc;

/// Compressed-Sparse adjacency: `index.len() == num_vertices + 1`,
/// `edges.len() == index[num_vertices]`. A transpose shares the index it
/// was built over ([`Csr::transposed_index`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    index: Arc<Vec<EdgeId>>,
    edges: Vec<VertexId>,
    weights: Option<Vec<f64>>,
}

impl Csr {
    /// Builds a CSR grouped by **source** from an edge list, each vertex's
    /// neighbours sorted as [`Csr::sort_neighbors`] sorts them, on the
    /// calling thread ([`Csr::build`]).
    pub fn from_edgelist_by_src(el: &EdgeList) -> Self {
        Self::build(el, None)
    }

    /// Builds a CSC (grouped by **destination**) from an edge list: the
    /// [`Csr::transpose`] of the by-source build. The stored endpoint of
    /// each edge is then the *source* vertex; each list is sorted as in
    /// [`Csr::from_edgelist_by_src`].
    pub fn from_edgelist_by_dst(el: &EdgeList) -> Self {
        Self::build(el, None).transpose(None)
    }

    /// [`Csr::from_edgelist_by_src`] on a [`ThreadPool`], bit-identical
    /// at any pool width.
    pub fn from_edgelist_by_src_parallel(el: &EdgeList, pool: &ThreadPool) -> Self {
        Self::build(el, Some(pool))
    }

    /// [`Csr::from_edgelist_by_dst`] on a [`ThreadPool`].
    pub fn from_edgelist_by_dst_parallel(el: &EdgeList, pool: &ThreadPool) -> Self {
        Self::build(el, Some(pool)).transpose(Some(pool))
    }

    /// The one builder of the out-edge orientation (edges grouped by
    /// source): one share per worker of `pool`, or one share on the
    /// calling thread without a pool. The result is the same at every
    /// width. The in-edge orientation is its [`Csr::transpose`].
    ///
    /// A list grouped by source is a column copy, in the one pass that
    /// checks its order and writes the index (the pass of
    /// [`SourceSorted::new`], which counts the in-degrees there instead);
    /// any other takes the counting sort. The lists are sorted afterwards
    /// unless the list is non-decreasing by (source, destination), which
    /// leaves them sorted already. The sort is stable, so parallel edges
    /// keep their edge-list order, with their weights, either way.
    pub fn build(el: &EdgeList, pool: Option<&ThreadPool>) -> Self {
        let built = Self::column_copy(el, pool).unwrap_or_else(|| Self::counting_sort(el, pool));
        debug_assert!(
            pool.is_none_or(|p| p.num_threads() == 1)
                || built.bit_identical(&Self::build(el, None)),
            "several-share CSR build diverged from the one-share build"
        );
        built
    }

    /// The transpose of this structure, each edge with its weight: the
    /// in-edges (CSC) of a CSR. One stable scatter in the order of the
    /// top-level vertices ([`scatter_transposed`]) puts every list of the
    /// result in ascending order, and parallel edges in this structure's
    /// list order, so it needs no sort; the result is the same at every
    /// width of `pool`.
    pub fn transpose(&self, pool: Option<&ThreadPool>) -> Self {
        Self::transposed(self, self.transposed_index(pool), pool)
    }

    /// The vertex index of [`Csr::transpose`]: how often each vertex is a
    /// stored endpoint, counted on `pool` — for a CSR, the in-degrees.
    pub fn transposed_index(&self, pool: Option<&ThreadPool>) -> Arc<Vec<EdgeId>> {
        let edges = &self.edges;
        counted_index(self.num_vertices(), edges.len(), pool, |e| edges[e])
    }

    /// The stable transpose of `seq`, each edge with its weight, over its
    /// vertex index `index` already counted: a CSR's in-edges, or a VSD's
    /// out-edges. One scatter in the order of `seq`'s top-level vertices
    /// ([`scatter_transposed`]) puts every list of the result in ascending
    /// order, and parallel edges in `seq`'s order, so it needs no sort.
    /// One share per worker of `pool` owns an edge-balanced range of the
    /// result's vertices, or one share runs on the calling thread; the
    /// result is the same at every width.
    pub(crate) fn transposed(
        seq: &impl Grouped,
        index: Arc<Vec<EdgeId>>,
        pool: Option<&ThreadPool>,
    ) -> Self {
        debug_assert_eq!(
            index.len(),
            seq.num_vertices() + 1,
            "one index entry per vertex"
        );
        let m = *index.last().expect("index holds n + 1 entries") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        let mut edges = alloc::zeroed::<VertexId>(m);
        let w_in = seq.weights();
        let mut weights = w_in.map(|_| alloc::zeroed::<f64>(m));
        let tasks = split_by_parts(&parts, &mut edges, weights.as_deref_mut());
        run_shares(pool, tasks, |(part, eslice, mut wslice)| {
            let first = part.first_vertex as usize;
            let base = index[first];
            // Per-vertex write cursors, relative to this share's slice.
            let mut cursor: Vec<usize> = index[first..part.last_vertex as usize]
                .iter()
                .map(|&e| (e - base) as usize)
                .collect();
            scatter_transposed(seq, part.vertices(), |d, s, e| {
                let c = &mut cursor[d as usize - first];
                eslice[*c] = s;
                if let (Some(w_out), Some(w_in)) = (wslice.as_deref_mut(), w_in) {
                    w_out[*c] = w_in[e];
                }
                *c += 1;
            });
        });
        let transposed = Csr {
            index,
            edges,
            weights,
        };
        debug_assert!(
            pool.is_none_or(|p| p.num_threads() == 1)
                || transposed.bit_identical(&Self::transposed(
                    seq,
                    Arc::clone(&transposed.index),
                    None
                )),
            "several-share transpose diverged from the one-share transpose"
        );
        transposed
    }

    /// The structure over `index` whose lists are `seq`'s own, in `seq`'s
    /// order, weights along: a VSD's in-edges, its valid lanes in order.
    /// One share per worker of `pool` copies an edge-balanced range of
    /// top-level vertices through [`WorkerFilled`] writers, which panic if
    /// `seq` and `index` disagree on a vertex's degree.
    pub(crate) fn copied(
        seq: &impl Grouped,
        index: Arc<Vec<EdgeId>>,
        pool: Option<&ThreadPool>,
    ) -> Self {
        debug_assert_eq!(
            index.len(),
            seq.num_vertices() + 1,
            "one index entry per vertex"
        );
        let m = *index.last().expect("index holds n + 1 entries") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        let lens = || parts.iter().map(EdgePartition::num_edges);
        let mut edges = WorkerFilled::new(m);
        let w_in = seq.weights();
        let mut weights = w_in.map(|_| WorkerFilled::new(m));
        let weight_writers: Vec<_> = match &mut weights {
            Some(w) => w.writers(lens()).into_iter().map(Some).collect(),
            None => lens().map(|_| None).collect(),
        };
        let tasks = parts
            .iter()
            .zip(edges.writers(lens()))
            .zip(weight_writers)
            .collect();
        run_shares(pool, tasks, |((part, mut e), mut w)| {
            seq.edges_of(part.vertices(), |_, s, at| {
                e.push(s);
                if let (Some(w), Some(w_in)) = (w.as_mut(), w_in) {
                    w.push(w_in[at]);
                }
            });
        });
        Csr {
            index,
            edges: edges.into_vec(),
            weights: weights.map(WorkerFilled::into_vec),
        }
    }

    /// The CSR of a list whose sources never decrease, or `None`: one
    /// share per worker of `pool` copies its share of the destination
    /// (and weight) column into [`WorkerFilled`] blocks in the pass that
    /// checks the order and writes the index, then each list is sorted
    /// unless the list is sorted by pair already.
    fn column_copy(el: &EdgeList, pool: Option<&ThreadPool>) -> Option<Self> {
        let (all, w_in) = (el.edges(), el.weights());
        let m = all.len();
        let mut edges = WorkerFilled::new(m);
        let mut weights = w_in.map(|_| WorkerFilled::new(m));
        let (e_out, w_out) = (&mut edges, &mut weights);
        let writers = move |shares: &[usize]| {
            // Moved in whole, so the writers borrow the blocks for the pass.
            let (e_out, w_out) = (e_out, w_out);
            let lens = || shares.windows(2).map(|w| w[1] - w[0]);
            let weight_writers: Vec<_> = match w_out {
                Some(w) => w.writers(lens()).into_iter().map(Some).collect(),
                None => lens().map(|_| None).collect(),
            };
            e_out
                .writers(lens())
                .into_iter()
                .zip(weight_writers)
                .collect()
        };
        let copy = |(e, w): &mut (RangeWriter<'_, VertexId>, Option<RangeWriter<'_, f64>>),
                    block: Range<usize>| {
            e.extend(all[block.clone()].iter().map(|&(_, d)| d));
            if let (Some(w), Some(w_in)) = (w.as_mut(), w_in) {
                w.extend(w_in[block].iter().copied());
            }
        };
        let (index, sorted, _) = source_pass(el, pool, writers, |w| w, copy)?;
        let mut csr = Csr {
            index,
            edges: edges.into_vec(),
            weights: weights.map(WorkerFilled::into_vec),
        };
        if !sorted {
            csr.sort_on(pool);
        }
        Some(csr)
    }

    /// The vertex index as the shared buffer it is, for a structure over
    /// the same edges that keeps it without a copy (a Vector-Sparse
    /// encoding's edge index).
    pub fn shared_index(&self) -> &Arc<Vec<EdgeId>> {
        &self.index
    }

    /// True when `self` and `other` are bit-for-bit the same structure:
    /// the index, the edges, and the weights by bit pattern, so NaN
    /// payloads and the sign of a zero count too (`==` on the structure
    /// compares weights as `f64`). A differing index stops it before the
    /// edges are read.
    pub fn bit_identical(&self, other: &Self) -> bool {
        let weights_eq = match (&self.weights, &other.weights) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .map(|w| w.to_bits())
                        .eq(b.iter().map(|w| w.to_bits()))
            }
            _ => false,
        };
        self.index == other.index && self.edges == other.edges && weights_eq
    }

    /// The counting sort of a list not grouped by source, one share per
    /// worker of `pool` (or one on the calling thread), then the list sort:
    ///
    /// 1. **Index** — each share counts source degrees over a disjoint
    ///    edge sub-range, and one pass sums the counts into the vertex
    ///    index ([`counted_index`]).
    /// 2. **Scatter** — the sources are split into per-share ranges of
    ///    near-equal edge count ([`crate::partition::partition_index`]).
    ///    A source range `[a, b)` owns the *contiguous* output region
    ///    `index[a]..index[b]`, handed to its share as a plain
    ///    `split_at_mut` slice — no aliasing, no `unsafe`. Each share scans
    ///    the full edge list in order and writes only its own sources, so
    ///    within-vertex edge order is the edge-list order at any width.
    fn counting_sort(el: &EdgeList, pool: Option<&ThreadPool>) -> Self {
        let m = el.num_edges();
        let all = el.edges();
        let w_in = el.weights();
        let index = counted_index(el.num_vertices(), m, pool, |i| all[i].0);
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        let mut edges = alloc::zeroed::<VertexId>(m);
        let mut weights = w_in.map(|_| alloc::zeroed::<f64>(m));
        let tasks = split_by_parts(&parts, &mut edges, weights.as_deref_mut());
        run_shares(pool, tasks, |(part, eslice, mut wslice)| {
            let (lo, hi) = (part.first_vertex, part.last_vertex);
            if lo == hi {
                return;
            }
            let base = index[lo as usize];
            // Per-source write cursors, relative to this partition's slice.
            let mut cursor: Vec<usize> = index[lo as usize..hi as usize]
                .iter()
                .map(|&e| (e - base) as usize)
                .collect();
            for (i, &(s, d)) in all.iter().enumerate() {
                if s >= lo && s < hi {
                    let c = &mut cursor[(s - lo) as usize];
                    eslice[*c] = d;
                    if let (Some(w_out), Some(w_in)) = (wslice.as_deref_mut(), w_in) {
                        w_out[*c] = w_in[i];
                    }
                    *c += 1;
                }
            }
        });
        let mut csr = Csr {
            index,
            edges,
            weights,
        };
        csr.sort_on(pool);
        csr
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
            index: Arc::new(index),
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
        self.sort_on(None);
    }

    /// [`Csr::sort_neighbors`] on a [`ThreadPool`], bit-identical at any
    /// pool width: every list is sorted by the same deterministic code.
    pub fn sort_neighbors_parallel(&mut self, pool: &ThreadPool) {
        self.sort_on(Some(pool));
    }

    /// The one list sort: vertex ranges of near-equal edge count, one per
    /// share (see [`Csr::build`]). Each range's edge (and weight) region is
    /// contiguous, so the distribution is a plain `split_at_mut`.
    fn sort_on(&mut self, pool: Option<&ThreadPool>) {
        let parts = partition_index(&self.index, pool.map_or(1, ThreadPool::num_threads));
        let tasks = split_by_parts(&parts, &mut self.edges, self.weights.as_deref_mut());
        let index = &self.index;
        run_shares(pool, tasks, |(part, eslice, wslice)| {
            sort_lists(index, part.vertices(), eslice, wslice);
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
}

/// A pair as one number whose order is the pair's: source in the high
/// half.
fn pair_key((s, d): (VertexId, VertexId)) -> u64 {
    (u64::from(s) << 32) | u64::from(d)
}

/// The vertex index over `n` vertices whose degrees are how often each
/// vertex is `key(i)` for `i` in `0..m`. Each share of `pool` (or the
/// calling thread alone) counts a disjoint sub-range of `0..m` into its own
/// histogram, and one pass on the calling thread sums them into the index
/// — the same index at any width, the per-vertex sums being commutative.
fn counted_index(
    n: usize,
    m: usize,
    pool: Option<&ThreadPool>,
    key: impl Fn(usize) -> VertexId + Sync,
) -> Arc<Vec<EdgeId>> {
    let t = pool.map_or(1, ThreadPool::num_threads);
    let counts: Vec<Vec<u32>> = run_shares(pool, (0..t).collect(), |i| {
        let mut h = vec![0u32; n];
        for at in m * i / t..m * (i + 1) / t {
            h[key(at) as usize] += 1;
        }
        h
    });
    summed_index(n, &counts)
}

/// The vertex index over `n` vertices whose degrees are the per-vertex
/// sums of the shares' histograms `counts`, summed on the calling thread.
fn summed_index(n: usize, counts: &[Vec<u32>]) -> Arc<Vec<EdgeId>> {
    let mut index = Vec::with_capacity(n + 1);
    let mut end = 0u64;
    index.push(end);
    for v in 0..n {
        end += counts.iter().map(|h| u64::from(h[v])).sum::<u64>();
        index.push(end);
    }
    Arc::new(index)
}

/// Edges grouped by a top-level vertex, groups in ascending order, each
/// edge once as `(top-level vertex, stored endpoint, position)` with its
/// weight at `weights()[position]`: a [`Csr`], an edge list whose sources
/// never decrease ([`SourceSorted`]), or a Vector-Sparse structure's valid
/// lanes. Every transposed build reads one through [`scatter_transposed`].
pub trait Grouped: Sync {
    /// Number of top-level vertices.
    fn num_vertices(&self) -> usize;

    /// Hands `put` every edge of the top-level vertices `tops`, in order.
    fn edges_of(&self, tops: Range<VertexId>, put: impl FnMut(VertexId, VertexId, usize));

    /// The edges of the top-level vertices `tops`, in order, as `(stored
    /// endpoint, position)`: one run read by a loop of its own, as the
    /// compare that proves a graph symmetric reads it beside the lanes.
    fn lists(&self, tops: Range<VertexId>) -> impl Iterator<Item = (VertexId, usize)> + '_;

    /// The edge weights by position, if weighted.
    fn weights(&self) -> Option<&[f64]>;
}

impl Grouped for Csr {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn edges_of(&self, tops: Range<VertexId>, mut put: impl FnMut(VertexId, VertexId, usize)) {
        let ends = &self.index[tops.start as usize..=tops.end as usize];
        for (v, ends) in (tops.start..).zip(ends.windows(2)) {
            let (lo, hi) = (ends[0] as usize, ends[1] as usize);
            for (e, &d) in (lo..).zip(&self.edges[lo..hi]) {
                put(v, d, e);
            }
        }
    }

    fn lists(&self, tops: Range<VertexId>) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        let r = self.index[tops.start as usize] as usize..self.index[tops.end as usize] as usize;
        self.edges[r.clone()].iter().copied().zip(r)
    }

    fn weights(&self) -> Option<&[f64]> {
        self.weights()
    }
}

/// An edge list whose sources never decrease, with its out- and in-index
/// counted: the by-source grouping without a copy of its columns. Set-up
/// encodes a sorted list's VSD from this straight.
#[derive(Debug)]
pub struct SourceSorted<'a> {
    el: &'a EdgeList,
    index: Arc<Vec<EdgeId>>,
    in_index: Arc<Vec<EdgeId>>,
}

impl<'a> SourceSorted<'a> {
    /// `el` with its out- and in-index, if its sources never decrease;
    /// else its CSR through the counting sort ([`Csr::build`]). Each worker
    /// of `pool` (or the calling thread alone) takes one share of the list
    /// and, in one pass, block by block, checks its order from the pair
    /// before it on, writes the index entries of the vertices its share
    /// reaches — vertex `v` starts where the source column first reaches
    /// `v` — and counts its destinations into its own histogram, which the
    /// calling thread sums into the in-index. A share that finds a source
    /// below the one before it stops: the list needs the sort.
    pub fn new(el: &'a EdgeList, pool: Option<&ThreadPool>) -> Result<Self, Csr> {
        let (n, all) = (el.num_vertices(), el.edges());
        let seeds = |shares: &[usize]| vec![(); shares.len() - 1];
        let histogram = |()| vec![0u32; n];
        let count = |h: &mut Vec<u32>, block: Range<usize>| {
            for &(_, d) in &all[block] {
                h[d as usize] += 1;
            }
        };
        let Some((index, _, counts)) = source_pass(el, pool, seeds, histogram, count) else {
            return Err(Csr::counting_sort(el, pool));
        };
        Ok(SourceSorted {
            el,
            index,
            in_index: summed_index(n, &counts),
        })
    }

    /// The out-index: vertex `v`'s edges are `index()[v]..index()[v + 1]`
    /// of the list.
    pub fn index(&self) -> &Arc<Vec<EdgeId>> {
        &self.index
    }

    /// The in-index, the destinations counted: [`Csr::transposed_index`]
    /// of the CSR, without the CSR.
    pub fn in_index(&self) -> &Arc<Vec<EdgeId>> {
        &self.in_index
    }
}

/// The one pass over a list that may be grouped by source: each worker of
/// `pool` (or the calling thread alone) takes one share of the list and,
/// block by block, checks its order from the pair before it on, writes the
/// index entries of the vertices its share reaches — vertex `v` starts
/// where the source column first reaches `v` — through [`WorkerFilled`]
/// writers, and hands the block, still in cache, to `sink` with the
/// share's own state. `seeds(shares)`, made on the calling thread once the
/// shares' first index entries are known to ascend, gives one seed per
/// share (the writers a copy fills), and `start` turns it into the state
/// on the share's own thread, so what a state allocates (a histogram) is
/// allocated there, where it is filled. Returns the
/// out-index, whether the list is non-decreasing by (source, destination)
/// too, and the states; `None` as soon as a share finds a source below the
/// one before it: the list needs the sort.
fn source_pass<S: Send, T: Send>(
    el: &EdgeList,
    pool: Option<&ThreadPool>,
    seeds: impl FnOnce(&[usize]) -> Vec<S>,
    start: impl Fn(S) -> T + Sync,
    sink: impl Fn(&mut T, Range<usize>) + Sync,
) -> Option<(Arc<Vec<EdgeId>>, bool, Vec<T>)> {
    const BLOCK: usize = 4096;
    let n = el.num_vertices();
    let all = el.edges();
    let m = all.len();
    let t = pool.map_or(1, ThreadPool::num_threads);
    let shares: Vec<usize> = (0..=t).map(|i| m * i / t).collect();
    // The first index entry of each share's vertices: one past the
    // source of the pair before the share. The last share ends the index.
    let entries: Vec<usize> = shares
        .iter()
        .enumerate()
        .map(|(i, &at)| match at.checked_sub(1) {
            _ if i == t => n + 1,
            Some(before) => all[before].0 as usize + 1,
            None => 0,
        })
        .collect();
    if !entries.is_sorted() {
        return None;
    }
    let mut index = WorkerFilled::new(n + 1);
    let lens = entries.windows(2).map(|w| w[1] - w[0]);
    let tasks = index
        .writers(lens)
        .into_iter()
        .zip(seeds(&shares))
        .enumerate()
        .collect();
    let fill = |(i, (mut ix, seed)): (usize, (RangeWriter<'_, EdgeId>, S))| {
        let mut state = start(seed);
        let range = shares[i]..shares[i + 1];
        let before = range.start.checked_sub(1).map(|at| all[at]);
        let mut last = before.map_or(0, pair_key);
        let mut pair_falls = false;
        let mut next = entries[i];
        let end = entries[i + 1];
        for start in range.clone().step_by(BLOCK) {
            let block = start..(start + BLOCK).min(range.end);
            for (at, &pair) in block.clone().zip(&all[block.clone()]) {
                let k = pair_key(pair);
                // A fall, or a source past the share's last: not grouped.
                if k >> 32 < last >> 32 || pair.0 as usize >= end {
                    return None;
                }
                pair_falls |= k < last;
                last = k;
                while next <= pair.0 as usize {
                    ix.push(at as EdgeId);
                    next += 1;
                }
            }
            sink(&mut state, block);
        }
        ix.extend(std::iter::repeat_n(m as EdgeId, end - next));
        Some((!pair_falls, state))
    };
    let mut sorted = true;
    let mut kept = Vec::with_capacity(t);
    for share in run_shares(pool, tasks, fill) {
        let (share_sorted, state) = share?;
        sorted &= share_sorted;
        kept.push(state);
    }
    Some((Arc::new(index.into_vec()), sorted, kept))
}

impl Grouped for SourceSorted<'_> {
    fn num_vertices(&self) -> usize {
        self.el.num_vertices()
    }

    fn edges_of(&self, tops: Range<VertexId>, mut put: impl FnMut(VertexId, VertexId, usize)) {
        let r = self.index[tops.start as usize] as usize..self.index[tops.end as usize] as usize;
        for (e, &(s, d)) in (r.start..).zip(&self.el.edges()[r]) {
            put(s, d, e);
        }
    }

    fn lists(&self, tops: Range<VertexId>) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        let r = self.index[tops.start as usize] as usize..self.index[tops.end as usize] as usize;
        self.el.edges()[r.clone()].iter().map(|&(_, d)| d).zip(r)
    }

    fn weights(&self) -> Option<&[f64]> {
        self.el.weights()
    }
}

/// The transposing scatter, the one loop of every transposed build: hands
/// `put` each edge of `seq` whose stored endpoint lies in `endpoints`, as
/// `(endpoint, top-level vertex, position)`, in `seq`'s order — the order
/// of each endpoint's list in the stable transpose. A share of a
/// transposed build owns one endpoint range and runs this over all of
/// `seq`, so the shares' output ranges are disjoint. [`Csr::transpose`]
/// and the deferred out-edges of a [`Graph`](crate::graph::Graph) store
/// vertex ids; the Vector-Sparse encoder of a transpose stores lanes.
pub fn scatter_transposed(
    seq: &impl Grouped,
    endpoints: Range<VertexId>,
    mut put: impl FnMut(VertexId, VertexId, usize),
) {
    if endpoints.is_empty() {
        return;
    }
    let span = endpoints.end - endpoints.start;
    seq.edges_of(0..seq.num_vertices() as VertexId, |v, d, e| {
        // One compare: an endpoint below the range wraps above it.
        if d.wrapping_sub(endpoints.start) < span {
            put(d, v, e);
        }
    });
}

/// Weighted lists at most this long are sorted in place by insertion.
const INSERTION_SORT_MAX: usize = 20;

/// Sorts the lists of `vertices`, whose edges (and weights) are `edges`
/// (and `weights`), starting at edge `index[vertices.start]`.
fn sort_lists(
    index: &[EdgeId],
    vertices: std::ops::Range<VertexId>,
    edges: &mut [VertexId],
    mut weights: Option<&mut [f64]>,
) {
    let base = index[vertices.start as usize];
    for v in vertices {
        let r = (index[v as usize] - base) as usize..(index[v as usize + 1] - base) as usize;
        match weights.as_deref_mut() {
            None => edges[r].sort_unstable(),
            Some(w) => sort_weighted(&mut edges[r.clone()], &mut w[r]),
        }
    }
}

/// Sorts one weighted list by neighbour, its weights moved along, stably:
/// parallel edges keep their order, so their weights do too. In place by
/// insertion up to [`INSERTION_SORT_MAX`] entries, by a stable sort of the
/// zipped pairs above.
fn sort_weighted(edges: &mut [VertexId], weights: &mut [f64]) {
    if edges.len() <= INSERTION_SORT_MAX {
        for i in 1..edges.len() {
            let (v, w) = (edges[i], weights[i]);
            let mut j = i;
            while j > 0 && v < edges[j - 1] {
                edges[j] = edges[j - 1];
                weights[j] = weights[j - 1];
                j -= 1;
            }
            edges[j] = v;
            weights[j] = w;
        }
        return;
    }
    let mut pairs: Vec<(VertexId, f64)> =
        edges.iter().copied().zip(weights.iter().copied()).collect();
    pairs.sort_by_key(|&(v, _)| v);
    for (i, (v, w)) in pairs.into_iter().enumerate() {
        edges[i] = v;
        weights[i] = w;
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
/// edge-balanced vertex range of every job's *new* index; without a pool,
/// or with a one-thread one, the single range is filled on the calling
/// thread. The result equals the counting-sort build plus
/// [`Csr::sort_neighbors`] over the same edge multiset, because a sorted
/// `u32` list is unique.
pub(crate) fn splice<const K: usize>(
    jobs: [(&Csr, Edits<'_>, Edits<'_>); K],
    pool: Option<&ThreadPool>,
) -> [Csr; K] {
    let threads = pool.map_or(1, ThreadPool::num_threads);
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
    run_shares(pool, tasks, fill);
    let mut edges = edges.into_iter();
    indexes.map(|index| Csr {
        index: Arc::new(index),
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
    fn weights_follow_edges_through_build_and_transpose() {
        // The transposed structure is the by-destination build.
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10.0).unwrap();
        el.push_weighted(0, 2, 20.0).unwrap();
        el.push_weighted(2, 1, 30.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        assert_eq!(csr.neighbor_weights(0).unwrap(), &[10.0, 20.0]);
        assert_eq!(csr.neighbor_weights(2).unwrap(), &[30.0]);
        let csc = Csr::from_edgelist_by_dst(&el);
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

    /// A NaN weight is valid input: the several-share build's debug
    /// self-check compares bit patterns, not `f64`s, so it neither trips
    /// on a NaN nor misses a zero whose sign differs.
    #[test]
    fn nan_weights_build_on_several_shares() {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 1.0).unwrap();
        el.push_weighted(1, 2, f64::NAN).unwrap();
        el.push_weighted(2, 3, -0.0).unwrap();
        el.push_weighted(3, 0, 2.0).unwrap();
        let pool = ThreadPool::single_group(2);
        let par = Csr::from_edgelist_by_src_parallel(&el, &pool);
        let seq = Csr::from_edgelist_by_src(&el);
        assert!(par.bit_identical(&seq));
        assert_ne!(par, seq, "`==` reads NaN as unequal to itself");
        let mut flipped = seq.clone();
        flipped.weights.as_mut().unwrap()[2] = 0.0;
        assert!(!flipped.bit_identical(&seq));
        let mut payload = seq.clone();
        payload.weights.as_mut().unwrap()[1] = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(!payload.bit_identical(&seq));
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

    /// The builders' contract, the plain way: each key's entries in
    /// edge-list order (a counting sort), then a stable sort of each list
    /// — by source for the CSR; for the CSC, a stable sort of the
    /// `(destination, source, weight bits)` entries by `(destination,
    /// source)`.
    fn reference(el: &EdgeList, by_src: bool) -> Csr {
        let mut lists = vec![Vec::new(); el.num_vertices()];
        for (i, &(s, d)) in el.edges().iter().enumerate() {
            let (key, other) = if by_src { (s, d) } else { (d, s) };
            lists[key as usize].push((other, el.weights().map_or(0.0, |w| w[i])));
        }
        let mut index = vec![0u64];
        for list in &mut lists {
            list.sort_by_key(|&(v, _)| v);
            index.push(index[index.len() - 1] + list.len() as u64);
        }
        let flat = lists.concat();
        Csr {
            index: Arc::new(index),
            edges: flat.iter().map(|&(v, _)| v).collect(),
            weights: el.weights().map(|_| flat.iter().map(|&(_, w)| w).collect()),
        }
    }

    /// An edge list of `n` vertices and `pairs`, weighted if `weights`
    /// holds bit patterns (taken in turn, so repeated pairs carry different
    /// weights and equal ones), put in the order `shape` names: by
    /// (source, destination), by source only, reverse, in two sorted
    /// halves (by source, then by pair: each worker's share at 2 threads is
    /// sorted, the whole list is not), or as generated.
    fn shaped(
        n: usize,
        mut pairs: Vec<(VertexId, VertexId)>,
        weights: &[u64],
        shape: u8,
    ) -> EdgeList {
        let mut weighted: Vec<((VertexId, VertexId), f64)> = pairs
            .drain(..)
            .enumerate()
            .map(|(i, p)| {
                let bits = weights.get(i % weights.len().max(1)).copied();
                (p, f64::from_bits(bits.unwrap_or(0)))
            })
            .collect();
        match shape {
            0 => weighted.sort_by_key(|&(p, _)| p),
            1 => weighted.sort_by_key(|&((s, _), _)| s),
            2 => weighted.sort_by_key(|&(p, _)| std::cmp::Reverse(p)),
            3 => {
                let half = weighted.len() / 2;
                weighted[..half].sort_by_key(|&((s, _), _)| s);
                weighted[half..].sort_by_key(|&(p, _)| p);
            }
            _ => {}
        }
        let (pairs, ws): (Vec<_>, Vec<_>) = weighted.into_iter().unzip();
        EdgeList::from_parts(n, pairs, (!weights.is_empty()).then_some(ws)).unwrap()
    }

    /// The CSR of `el` and its transpose, one share without a pool and one
    /// per worker on 1, 2 and 8 threads, each bit-identical to the
    /// reference of its orientation; the transposed index is the
    /// reference's too.
    fn check_both_orientations(el: &EdgeList) -> Result<(), String> {
        let (want_out, want_in) = (reference(el, true), reference(el, false));
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
            let out = Csr::build(el, pool);
            if !out.bit_identical(&want_out) {
                return Err(format!("CSR differs at {at}"));
            }
            if out.transposed_index(pool) != want_in.index {
                return Err(format!("transposed index differs at {at}"));
            }
            if !out.transpose(pool).bit_identical(&want_in) {
                return Err(format!("transpose differs at {at}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The builder and the transpose — one share without a pool, and
        /// one per worker on 1, 2 and 8 threads — return the reference of
        /// each orientation, bit for bit, on lists sorted by
        /// (source, destination), by source only, reverse-sorted, sorted by
        /// halves and unsorted, with repeated pairs, weighted and not,
        /// empty and on a single vertex. Weights are any bit pattern: NaN
        /// payloads, both zeros and both infinities among them, which the
        /// builds must carry bit for bit, parallel edges in edge-list order.
        #[test]
        fn prop_builders_match_a_counting_sort_and_a_stable_sort(
            n in 1usize..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..300),
            weights in proptest::collection::vec((proptest::prelude::any::<u64>(), 0u8..12), 0..6),
            shape in 0u8..5,
        ) {
            let pairs = raw.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)).collect();
            let special = [
                f64::NAN.to_bits(),
                f64::NAN.to_bits() | 0x8000_0000_0000_0001,
                0.0f64.to_bits(),
                (-0.0f64).to_bits(),
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ];
            let weights: Vec<u64> = weights
                .into_iter()
                .map(|(bits, pick)| special.get(usize::from(pick)).copied().unwrap_or(bits))
                .collect();
            let el = shaped(n, pairs, &weights, shape);
            proptest::prop_assert_eq!(check_both_orientations(&el), Ok(()));
        }

        /// In-place insertion sort of a short weighted list puts ties
        /// (repeated neighbours with different weights) exactly where
        /// `sort_unstable_by_key` on the zipped pairs puts them.
        #[test]
        fn prop_short_weighted_lists_sort_like_sort_unstable(
            list in proptest::collection::vec((0u32..6, 0u8..255), 0..=INSERTION_SORT_MAX),
        ) {
            let mut pairs: Vec<(VertexId, f64)> = list.iter().map(|&(v, w)| (v, f64::from(w))).collect();
            let (mut edges, mut weights): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
            sort_weighted(&mut edges, &mut weights);
            pairs.sort_unstable_by_key(|&(v, _)| v);
            let want: (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
            proptest::prop_assert_eq!((edges, weights), want);
        }

        /// A weighted list of any length sorts stably: repeated neighbours
        /// keep their weights in list order, below and above the insertion
        /// sort's length.
        #[test]
        fn prop_weighted_lists_sort_stably(
            list in proptest::collection::vec((0u32..6, 0u8..255), 0..4 * INSERTION_SORT_MAX),
        ) {
            let mut pairs: Vec<(VertexId, f64)> = list.iter().map(|&(v, w)| (v, f64::from(w))).collect();
            let (mut edges, mut weights): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
            sort_weighted(&mut edges, &mut weights);
            pairs.sort_by_key(|&(v, _)| v);
            let want: (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
            proptest::prop_assert_eq!((edges, weights), want);
        }
    }

    /// The transpose on the inputs that need care, against the reference
    /// at every width: NaN payloads and both zeros as weights, parallel
    /// edges (more of them than the insertion sort takes), an unsorted
    /// list, and isolated vertices, first and last among them.
    #[test]
    fn the_transpose_is_a_stable_sort_by_destination() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 7);
        let mut list = vec![(3, 1, 0.0), (1, 3, -0.0), (5, 1, payload), (1, 5, f64::NAN)];
        // Parallel edges 2 -> 4 and 4 -> 2, weighted by position.
        for i in 0..3 * INSERTION_SORT_MAX {
            let (s, d) = if i % 3 == 0 { (4, 2) } else { (2, 4) };
            list.push((s, d, i as f64 - 5.0));
        }
        list.extend([(5, 5, -0.0), (3, 2, 1.5), (1, 1, payload)]);
        let pairs: Vec<_> = list.iter().map(|&(s, d, _)| (s, d)).collect();
        let weights: Vec<_> = list.iter().map(|&(_, _, w)| w).collect();
        // Vertices 0 and 6 have no edges at all.
        let weighted = EdgeList::from_parts(7, pairs.clone(), Some(weights)).unwrap();
        let unweighted = EdgeList::from_pairs(7, &pairs).unwrap();
        for el in [weighted, unweighted] {
            check_both_orientations(&el).unwrap();
        }
    }

    /// Parallel weighted edges keep their edge-list order in the CSR at
    /// every width, in a list long enough to leave the insertion sort.
    #[test]
    fn parallel_weighted_edges_keep_edge_list_order() {
        let mut el = EdgeList::new(3);
        for i in 0..2 * INSERTION_SORT_MAX {
            el.push_weighted(0, 1 + (i % 2) as u32, i as f64).unwrap();
        }
        let want: Vec<f64> = (0..2 * INSERTION_SORT_MAX)
            .step_by(2)
            .chain((1..2 * INSERTION_SORT_MAX).step_by(2))
            .map(|i| i as f64)
            .collect();
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let csr = Csr::build(&el, pool);
            assert_eq!(csr.neighbor_weights(0).unwrap(), &want[..]);
        }
    }

    #[test]
    fn the_builders_take_the_zero_vertex_list() {
        let el = EdgeList::new(0);
        let pool = ThreadPool::single_group(2);
        for pool in [None, Some(&pool)] {
            let csr = Csr::build(&el, pool);
            assert_eq!(csr.index(), &[0]);
            assert_eq!(csr.transpose(pool).index(), &[0]);
        }
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
