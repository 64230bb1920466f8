//! The Vector-Sparse edge structure: vector array + per-vertex index.

use crate::format::{pack_lane, tlv_piece, LANES, TLV_SHIFT, VALID_BIT, VERTEX_MASK};
use crate::packing::vector_index;
use crate::vector::EdgeVector;
use grazelle_graph::csr::{scatter_transposed, Csr, Grouped};
use grazelle_graph::graph::Graph;
use grazelle_graph::partition::{partition_index, split_by_parts, EdgePartition};
use grazelle_graph::types::{EdgeId, VertexId, MAX_VSPARSE_VERTEX};
use grazelle_sched::alloc::{self, ZeroedBlock};
use grazelle_sched::{run_shares, OnDemand, ThreadPool};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A complete Vector-Sparse edge structure over one orientation.
///
/// * Built over a CSC (edges grouped by destination) this is
///   **Vector-Sparse-Destination (VSD)** — the pull engine's structure,
///   where the top-level vertex of each vector is the *destination* and the
///   lanes hold *sources*.
/// * Built over a CSR (grouped by source) this is **Vector-Sparse-Source
///   (VSS)** — the push engine's structure.
///
/// The vertex index maps each top-level vertex to its first vector, mirroring
/// Compressed-Sparse; the paper keeps it because frontier checks need to
/// locate a vertex's vectors even though the inner loop never consults it.
/// Beside it the structure keeps the orientation's edge index, shared with
/// the graph it was encoded from: a vertex's edges, and so its weights,
/// start there.
///
/// The arrays sit behind one [`Arc`], so `clone()` shares them instead of
/// copying: on a symmetric graph the VSD and the VSS are one encoding.
#[derive(Debug, Clone)]
pub struct VectorSparse {
    blocks: Arc<Blocks>,
}

/// The arrays of one encoding and what is derived from them.
#[derive(Debug)]
struct Blocks {
    /// Zeroed at allocation, so the encoders write each lane once.
    vectors: ZeroedBlock<EdgeVector>,
    /// One weight per edge, in lane order: vertex `v`'s from `edges[v]`,
    /// vector by vector, no padding. Present only for weighted graphs.
    weights: Option<Vec<f64>>,
    /// `index[v] .. index[v+1]` is vertex `v`'s vector range.
    index: Vec<u64>,
    /// `edges[v] .. edges[v+1]` are vertex `v`'s edge positions: the
    /// orientation's counted index, the graph's own buffer (the in-index
    /// for a VSD, the out-index for a VSS).
    edges: Arc<Vec<EdgeId>>,
    /// [`mean_weight`](VectorSparse::mean_weight), summed on first use. A
    /// function of `weights` and `edges` alone, so `bit_identical` ignores
    /// it.
    mean_weight: OnceLock<Option<f64>>,
    /// [`degrees`](VectorSparse::degrees) and their maximum, counted on
    /// first use. A function of `edges` alone, so `bit_identical` ignores it
    /// too.
    degrees: OnceLock<(Vec<u32>, u32)>,
}

/// Vector-Sparse-Destination: the pull structure.
pub type Vsd = VectorSparse;

/// Vector-Sparse-Source: the push structure, an [`OnDemand`] cell over the
/// graph whose out-edges it is encoded from (a clone, sharing the graph's
/// edges and cells), or holding an eager encoding. A run that only pulls
/// never reads it, so a directed graph's set-up leaves it empty (DESIGN.md
/// §12, "On-demand structures"). It derefs to the encoding, encoding on the
/// calling thread; [`Vss::ready`] encodes on a pool, never to be called
/// from one of that pool's workers.
#[derive(Debug, Clone)]
pub struct Vss(OnDemand<Option<Graph>, VectorSparse>);

impl Vss {
    /// Encodes `csr` now, on the calling thread.
    pub fn from_csr(csr: &Csr) -> Self {
        Vss::from(VectorSparse::from_csr(csr))
    }

    /// Encodes `csr` now, on `pool`.
    pub fn from_csr_parallel(csr: &Csr, pool: &ThreadPool) -> Self {
        Vss::from(VectorSparse::from_csr_parallel(csr, pool))
    }

    /// The push structure of `g`, encoded by its first reader from `g`'s
    /// out-edges, which it readies first if they are deferred
    /// ([`Graph::ready_out`]).
    pub fn deferred(g: Graph) -> Self {
        let edges = g.num_edges();
        Vss(OnDemand::new(Some(g), edges))
    }

    /// The encoding, encoded first on `pool` (under the set-up's cutover,
    /// [`OnDemand::ready`]) or on the calling thread without one, if no
    /// earlier reader did. Must not be called from a worker of `pool` while
    /// the handle may still be empty.
    pub fn ready(&self, pool: Option<&ThreadPool>) -> &VectorSparse {
        match self.0.get() {
            Some(vs) => vs,
            None => self.0.ready(pool, |g, pool| {
                let g = g.as_ref().expect("an empty handle holds its graph");
                VectorSparse::encode(g.ready_out(pool), pool)
            }),
        }
    }

    /// True when the encoding exists: built eagerly, or deferred and read.
    pub fn is_encoded(&self) -> bool {
        self.0.get().is_some()
    }

    /// Wall time, in ns, of the encode a first reader ran; 0 before it
    /// and for an eager encoding.
    pub fn encode_ns(&self) -> u64 {
        self.0.build_ns()
    }
}

/// An encoding the caller already holds, such as a symmetric graph's VSD,
/// whose arrays the VSS then shares.
impl From<VectorSparse> for Vss {
    fn from(vs: VectorSparse) -> Self {
        Vss(OnDemand::built(None, vs))
    }
}

impl std::ops::Deref for Vss {
    type Target = VectorSparse;

    /// [`Vss::ready`] on the calling thread.
    fn deref(&self) -> &VectorSparse {
        self.ready(None)
    }
}

/// Panics unless a graph of `n` vertices fits the lanes' 27-bit vertex
/// field; set-up refuses such a graph with a typed error before this
/// (`GraphError::TooManyVertices`).
fn assert_vertices_fit(n: usize) {
    assert!(
        n as u64 <= MAX_VSPARSE_VERTEX + 1,
        "{n} vertices exceed the Vector-Sparse limit of {}",
        MAX_VSPARSE_VERTEX + 1
    );
}

/// One share of an encode: its top-level vertices with their vectors and,
/// on a weighted structure, their weights.
type Share<'a> = (EdgePartition, &'a mut [EdgeVector], Option<&'a mut [f64]>);

/// `vectors` and `weights` cut at the vertex boundaries of `parts`
/// (partitions of the vector index): the vectors by vector count, the
/// weights at the same vertices' edge positions `edges`.
fn shares<'a>(
    parts: &[EdgePartition],
    edges: &[EdgeId],
    vectors: &'a mut [EdgeVector],
    weights: Option<&'a mut [f64]>,
) -> Vec<Share<'a>> {
    let weights: Vec<Option<&mut [f64]>> = match weights {
        Some(w) => {
            let by_edges: Vec<EdgePartition> = parts
                .iter()
                .map(|p| EdgePartition {
                    edge_start: edges[p.first_vertex as usize] as usize,
                    edge_end: edges[p.last_vertex as usize] as usize,
                    ..*p
                })
                .collect();
            split_by_parts::<_, ()>(&by_edges, w, None)
                .into_iter()
                .map(|(_, w, _)| Some(w))
                .collect()
        }
        None => parts.iter().map(|_| None).collect(),
    };
    split_by_parts::<_, ()>(parts, vectors, None)
        .into_iter()
        .zip(weights)
        .map(|((part, v, _), w)| (part, v, w))
        .collect()
}

impl VectorSparse {
    /// Builds the structure from one Compressed-Sparse orientation, on the
    /// calling thread. Each top-level vertex's edges are padded to a
    /// multiple of eight lanes; degree-0 vertices occupy no vectors.
    pub fn from_csr(csr: &Csr) -> Self {
        Self::encode(csr, None)
    }

    /// [`VectorSparse::from_csr`] on a [`ThreadPool`], bit-identical at
    /// any pool width.
    pub fn from_csr_parallel(csr: &Csr, pool: &ThreadPool) -> Self {
        Self::encode(csr, Some(pool))
    }

    /// The one encoder of a grouped structure: one share per worker of
    /// `pool`, or one share on the calling thread without a pool.
    ///
    /// Each share owns a contiguous vertex partition, balanced by vector
    /// count ([`partition_index`]), and packs it straight into its range of
    /// the vector array, eight edges to a vector, then copies its edges'
    /// weights, which keep the CSR's order. The arrays are zeroed blocks
    /// nobody has written, so every vector is written once, by the share
    /// that owns it, which faults its pages in; the output is the same at
    /// every width. The structure keeps `csr`'s vertex index as its edge
    /// index, shared.
    pub fn encode(csr: &Csr, pool: Option<&ThreadPool>) -> Self {
        assert_vertices_fit(csr.num_vertices());
        let edges = Arc::clone(csr.shared_index());
        let index = vector_index(&edges, LANES);
        let num_vectors = *index.last().expect("vector index is never empty") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        let mut vectors = ZeroedBlock::new(num_vectors);
        let mut weights = csr.weights().map(|_| alloc::zeroed::<f64>(csr.num_edges()));
        let tasks = shares(&parts, &edges, &mut vectors, weights.as_deref_mut());
        run_shares(pool, tasks, |(part, vslice, wslice)| {
            let mut out = vslice.iter_mut();
            for v in part.vertices() {
                for (chunk, slot) in csr.neighbors(v).chunks(LANES).zip(out.by_ref()) {
                    let mut ev = EdgeVector::padding(v);
                    for (i, &nb) in chunk.iter().enumerate() {
                        ev.set_lane(i, pack_lane(true, tlv_piece(v, i), nb));
                    }
                    *slot = ev;
                }
            }
            if let (Some(w_out), Some(w_in)) = (wslice, csr.weights()) {
                let first = edges[part.first_vertex as usize] as usize;
                w_out.copy_from_slice(&w_in[first..first + w_out.len()]);
            }
        });
        let built = Self::assemble(vectors, weights, index, edges);
        debug_assert!(
            pool.is_none_or(|p| p.num_threads() == 1)
                || built.bit_identical(&Self::encode(csr, None)),
            "several-share Vector-Sparse encode diverged from the one-share encode"
        );
        built
    }

    /// The encoding of the stable transpose of `seq`, whose vertex index is
    /// `in_index`, straight from `seq`: bit for bit what
    /// [`VectorSparse::encode`] gives over the transposed structure,
    /// without it. Over a CSR, or a list grouped by source, this is the
    /// VSD. The structure keeps `in_index` as its edge index, shared.
    ///
    /// Each share (one per worker of `pool`, or one on the calling thread)
    /// owns a range of top-level vertices balanced by vectors. It runs the
    /// transposing scatter ([`scatter_transposed`]) over all of `seq` and
    /// stores each of its edges into the next lane of its top-level vertex
    /// — valid bit, the lane's piece of the vertex id, the stored endpoint
    /// — and its weight into the vertex's next weight, through
    /// `split_at_mut` slices of the arrays. Then it writes the padding
    /// lanes of each of its vertices' last vectors. The arrays are zeroed
    /// blocks nobody has written, so every lane is written once, and the
    /// share that owns a page faults it in. The scatter hands each vertex
    /// its edges in its transposed list's order, so the lanes are the ones
    /// [`VectorSparse::encode`] fills, at any width.
    pub fn encode_transposed(
        seq: &impl Grouped,
        in_index: &Arc<Vec<EdgeId>>,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let n = seq.num_vertices();
        assert_vertices_fit(n);
        assert_eq!(in_index.len(), n + 1, "one index entry per vertex");
        let index = vector_index(in_index, LANES);
        let num_vectors = *index.last().expect("vector index is never empty") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        let mut vectors = ZeroedBlock::new(num_vectors);
        let w_in = seq.weights();
        let m = *in_index.last().expect("index holds n + 1 entries") as usize;
        let mut weights = w_in.map(|_| alloc::zeroed::<f64>(m));
        let tasks = shares(&parts, in_index, &mut vectors, weights.as_deref_mut());
        run_shares(pool, tasks, |(part, vslice, mut wslice)| {
            let first = part.first_vertex as usize;
            let tops = first..part.last_vertex as usize;
            let (vbase, ebase) = (index[first] as usize, in_index[first] as usize);
            // Per-vertex lane cursors, counted from this share's first
            // lane, and on a weighted structure weight cursors, counted
            // from its first edge.
            let mut lane_at: Vec<usize> = index[tops.clone()]
                .iter()
                .map(|&at| at as usize * LANES - vbase * LANES)
                .collect();
            let mut weight_at: Vec<usize> = match wslice {
                Some(_) => in_index[tops.clone()]
                    .iter()
                    .map(|&e| e as usize - ebase)
                    .collect(),
                None => Vec::new(),
            };
            scatter_transposed(seq, part.vertices(), |d, s, e| {
                let local = d as usize - first;
                let c = &mut lane_at[local];
                let (at, lane) = (*c / LANES, *c % LANES);
                vslice[at].set_lane(lane, pack_lane(true, tlv_piece(d, lane), s));
                *c += 1;
                if let (Some(w_out), Some(w_in)) = (wslice.as_deref_mut(), w_in) {
                    let wc = &mut weight_at[local];
                    w_out[*wc] = w_in[e];
                    *wc += 1;
                }
            });
            // Each cursor now stands at its vertex's first padding lane.
            for (d, &c) in (part.first_vertex..).zip(&lane_at) {
                if c % LANES != 0 {
                    let last = &mut vslice[c / LANES];
                    for lane in c % LANES..LANES {
                        last.set_lane(lane, tlv_piece(d, lane) << TLV_SHIFT);
                    }
                }
            }
        });
        let built = Self::assemble(vectors, weights, index, Arc::clone(in_index));
        debug_assert!(
            pool.is_none_or(|p| p.num_threads() == 1)
                || built.bit_identical(&Self::encode_transposed(seq, in_index, None)),
            "several-share transposed encode diverged from the one-share encode"
        );
        built
    }

    fn assemble(
        vectors: ZeroedBlock<EdgeVector>,
        weights: Option<Vec<f64>>,
        index: Vec<u64>,
        edges: Arc<Vec<EdgeId>>,
    ) -> Self {
        VectorSparse {
            blocks: Arc::new(Blocks {
                vectors,
                weights,
                index,
                edges,
                mean_weight: OnceLock::new(),
                degrees: OnceLock::new(),
            }),
        }
    }

    /// True when every top-level vertex's valid lanes, in order, weight
    /// bits along, are `seq`'s edges of that vertex sorted stably by
    /// stored endpoint, `index` being `seq`'s vertex index: this is the
    /// encoding of the structure `seq` sorts into. For a VSD and its
    /// graph's out-edges — a CSR, or a list grouped by source — that is
    /// the proof that the graph is symmetric, its in-edges equal to its
    /// out-edges bit for bit, NaN payloads and the sign of a zero included.
    ///
    /// One share per worker of `pool` (or one on the calling thread) owns
    /// a range of vertices balanced by vectors and reads its edges as one
    /// run ([`Grouped::lists`]) beside its vectors, `index` saying how many
    /// belong to each vertex. A share whose run differs is compared again
    /// vertex by vertex, a vertex whose edges are not sorted through a
    /// stable sort of them, and stops at the first vertex that differs.
    pub fn encodes_sorted(
        &self,
        seq: &impl Grouped,
        index: &[EdgeId],
        pool: Option<&ThreadPool>,
    ) -> bool {
        let w_in = seq.weights();
        if seq.num_vertices() != self.num_vertices()
            || index.len() != self.num_vertices() + 1
            || index.last().is_none_or(|&m| m as usize != self.num_edges())
            || w_in.is_some() != self.blocks.weights.is_some()
        {
            return false;
        }
        let share = |part: EdgePartition| {
            let tops = part.vertices();
            self.lanes_hold(tops.clone(), index, w_in, seq.lists(tops.clone())) || {
                let mut by_endpoint: Vec<(VertexId, usize)> = Vec::new();
                tops.clone().all(|v| {
                    self.lanes_hold(v..v + 1, index, w_in, seq.lists(v..v + 1)) || {
                        by_endpoint.clear();
                        by_endpoint.extend(seq.lists(v..v + 1));
                        // Already sorted: the compare above was the one.
                        !by_endpoint.is_sorted_by_key(|&(d, _)| d) && {
                            by_endpoint.sort_by_key(|&(d, _)| d);
                            let sorted = by_endpoint.iter().copied();
                            self.lanes_hold(v..v + 1, index, w_in, sorted)
                        }
                    }
                })
            }
        };
        let parts = partition_index(&self.blocks.index, pool.map_or(1, ThreadPool::num_threads));
        run_shares(pool, parts, share).into_iter().all(|same| same)
    }

    /// True when the valid lanes of the top-level vertices `tops`, in
    /// layout order, are `edges` — `(endpoint, position)`, weights at
    /// `w_in`, `index[v + 1] - index[v]` of them for vertex `v` — weight
    /// bits along, and no edge is left over. Each vector is xor-ed with
    /// its edges eight lanes at a time, so an edge costs no branch of its
    /// own.
    fn lanes_hold(
        &self,
        tops: Range<VertexId>,
        index: &[EdgeId],
        w_in: Option<&[f64]>,
        mut edges: impl Iterator<Item = (VertexId, usize)>,
    ) -> bool {
        let b = &*self.blocks;
        // Bits set where a lane, or a weight, differs from its edge's.
        let (mut diff, mut weight_diff) = (0u32, 0u64);
        for v in tops {
            let v = v as usize;
            let degree = index[v + 1] - index[v];
            if b.edges[v + 1] - b.edges[v] != degree {
                return false;
            }
            let (mut at, mut own) = (b.index[v] as usize, b.edges[v] as usize);
            let mut left = degree as usize;
            while left > 0 {
                // The next `valid` edges, then padding, which masks to 0
                // (as does an edge missing).
                let valid = left.min(LANES);
                let mut want = [0u32; LANES];
                for (i, (d, e)) in (0..valid).zip(edges.by_ref()) {
                    want[i] = VALID_BIT | d;
                    if let (Some(lw), Some(w)) = (&b.weights, w_in) {
                        weight_diff |= lw[own + i].to_bits() ^ w[e].to_bits();
                    }
                }
                for (lane, want) in b.vectors[at].lanes().iter().zip(want) {
                    diff |= (lane & (VALID_BIT | VERTEX_MASK)) ^ want;
                }
                (at, own, left) = (at + 1, own + valid, left - valid);
            }
        }
        diff == 0 && weight_diff == 0 && edges.next().is_none()
    }

    /// True when `self` and `other` are bit-for-bit the same structure
    /// (at once when they share their arrays). Weights are compared by bit
    /// pattern, so NaN payloads count too.
    pub fn bit_identical(&self, other: &Self) -> bool {
        let (this, other) = (&*self.blocks, &*other.blocks);
        if std::ptr::eq(this, other) {
            return true;
        }
        let weights_eq = match (&this.weights, &other.weights) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .map(|w| w.to_bits())
                        .eq(b.iter().map(|w| w.to_bits()))
            }
            _ => false,
        };
        *this.vectors == *other.vectors
            && this.index == other.index
            && this.edges == other.edges
            && weights_eq
    }

    /// Number of top-level vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.blocks.edges.len() - 1
    }

    /// Number of (valid) edges represented.
    #[inline]
    pub fn num_edges(&self) -> usize {
        *self
            .blocks
            .edges
            .last()
            .expect("edge index holds n + 1 entries") as usize
    }

    /// Number of edge vectors, including padding lanes.
    #[inline]
    pub fn num_vectors(&self) -> usize {
        self.blocks.vectors.len()
    }

    /// The flat vector array.
    #[inline]
    pub fn vectors(&self) -> &[EdgeVector] {
        &self.blocks.vectors
    }

    /// The edge weights, one per edge in lane order (vertex `v`'s from
    /// [`edge_index`](VectorSparse::edge_index)`[v]`, no padding), if the
    /// graph is weighted.
    #[inline]
    pub fn weight_vectors(&self) -> Option<&[f64]> {
        self.blocks.weights.as_deref()
    }

    /// The edge index (length `num_vertices + 1`): vertex `v`'s edges are
    /// positions `edge_index()[v]..edge_index()[v + 1]`, in lane order.
    #[inline]
    pub fn edge_index(&self) -> &[EdgeId] {
        &self.blocks.edges
    }

    /// The edge position of vector `at`'s first lane: its top-level
    /// vertex's first edge plus eight per earlier vector of that vertex
    /// (every vector of a vertex but its last is full). A weighted walk of
    /// a run starting at `at` reads its weights from here; `num_vectors()`
    /// maps to `num_edges()`.
    #[inline]
    pub fn edge_position(&self, at: usize) -> usize {
        let Some(ev) = self.blocks.vectors.get(at) else {
            return self.num_edges();
        };
        let v = ev.top_level_vertex() as usize;
        self.blocks.edges[v] as usize + (at - self.blocks.index[v] as usize) * LANES
    }

    /// Mean edge weight; `None` for an unweighted or edgeless structure.
    /// One pass over the weights on the first call, O(1) after it. Edge
    /// `r` of each vertex is summed into partial `r mod 4`, vertex by
    /// vertex, and the partials added in order: the sums the paper's
    /// four-lane weight vectors gave, so equal structures report equal
    /// bits, and the same bits as that layout.
    pub fn mean_weight(&self) -> Option<f64> {
        *self.blocks.mean_weight.get_or_init(|| {
            let m = self.num_edges();
            let weights = self.blocks.weights.as_ref().filter(|_| m > 0)?;
            let mut lanes = [0.0f64; 4];
            for ends in self.blocks.edges.windows(2) {
                let of_vertex = &weights[ends[0] as usize..ends[1] as usize];
                for quad in of_vertex.chunks(4) {
                    for (sum, x) in lanes.iter_mut().zip(quad) {
                        *sum += x;
                    }
                }
            }
            Some(lanes.iter().sum::<f64>() / m as f64)
        })
    }

    /// Valid lanes per top-level vertex: out-degrees over a VSS, in-degrees
    /// over a VSD. One O(V) pass over the edge index on the first call and
    /// a shared slice after it: the direction model's per-superstep
    /// frontier cost reads this table from every run on the structure.
    pub fn degrees(&self) -> &[u32] {
        &self.degree_table().0
    }

    /// The largest entry of [`degrees`](VectorSparse::degrees) (0 for an
    /// edgeless structure), counted in the same pass and cached beside it:
    /// `|F| · (max_degree + 1)` bounds a frontier's push cost in O(1).
    pub fn max_degree(&self) -> u32 {
        self.degree_table().1
    }

    fn degree_table(&self) -> &(Vec<u32>, u32) {
        self.blocks.degrees.get_or_init(|| {
            let degrees: Vec<u32> = self
                .blocks
                .edges
                .windows(2)
                .map(|w| (w[1] - w[0]) as u32)
                .collect();
            let max = degrees.iter().copied().max().unwrap_or(0);
            (degrees, max)
        })
    }

    /// The vertex index (length `num_vertices + 1`).
    #[inline]
    pub fn index(&self) -> &[u64] {
        &self.blocks.index
    }

    /// Vector range owned by top-level vertex `v` (used for frontier checks;
    /// the streaming inner loop never needs it).
    #[inline]
    pub fn vector_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.blocks.index[v as usize] as usize..self.blocks.index[v as usize + 1] as usize
    }

    /// Iterates `(top_level_vertex, &vector, vector_position)` over the
    /// whole edge array in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &EdgeVector, usize)> + '_ {
        self.blocks
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (v.top_level_vertex(), v, i))
    }

    /// Expands the structure back to `(tlv, neighbor)` edge pairs — the
    /// inverse of construction, used by tests and format converters.
    pub fn expand_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for v in self.blocks.vectors.iter() {
            let tlv = v.top_level_vertex() as VertexId;
            for nb in v.valid_neighbors() {
                out.push((tlv, nb as VertexId));
            }
        }
        out
    }

    /// Average packing efficiency: valid lanes / total lanes (Figure 9's
    /// metric, measured on the built structure).
    pub fn packing_efficiency(&self) -> f64 {
        if self.blocks.vectors.is_empty() {
            return 1.0;
        }
        self.num_edges() as f64 / (self.blocks.vectors.len() * LANES) as f64
    }
}

/// A Vector-Sparse structure's valid lanes, grouped by top-level vertex in
/// layout order; a lane's position is its edge's position in the edge
/// index, where its weight is. Over a VSD this is a graph's in-edges in
/// order, which its deferred orientations are rebuilt from
/// ([`EdgeSource`](grazelle_graph::graph::EdgeSource)).
impl Grouped for VectorSparse {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn edges_of(
        &self,
        tops: std::ops::Range<VertexId>,
        mut put: impl FnMut(VertexId, VertexId, usize),
    ) {
        for v in tops {
            let mut e = self.blocks.edges[v as usize] as usize;
            for vector in &self.blocks.vectors[self.vector_range(v)] {
                for nb in vector.valid_neighbors() {
                    put(v, nb as VertexId, e);
                    e += 1;
                }
            }
        }
    }

    fn lists(&self, tops: Range<VertexId>) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        let index = &self.blocks.index;
        let range = index[tops.start as usize] as usize..index[tops.end as usize] as usize;
        let first = self.blocks.edges[tops.start as usize] as usize;
        self.blocks.vectors[range]
            .iter()
            .flat_map(|vector| vector.valid_neighbors().map(|nb| nb as VertexId))
            .zip(first..)
    }

    fn weights(&self) -> Option<&[f64]> {
        self.blocks.weights.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{lane_is_valid, lane_vertex};
    use grazelle_graph::csr::SourceSorted;
    use grazelle_graph::edgelist::EdgeList;
    use proptest::prelude::*;

    fn csr_of(n: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut el = EdgeList::from_pairs(n, pairs).unwrap();
        let _ = &mut el;
        Csr::from_edgelist_by_src(&el)
    }

    #[test]
    fn build_pads_to_lane_multiple() {
        // Degree 11 vertex -> 2 vectors, degree 1 -> 1.
        let mut pairs = vec![];
        for d in 1..=11u32 {
            pairs.push((0, d));
        }
        pairs.push((1, 0));
        let vs = VectorSparse::from_csr(&csr_of(12, &pairs));
        assert_eq!(vs.num_vectors(), 3);
        assert_eq!(vs.num_edges(), 12);
        assert_eq!(vs.vector_range(0), 0..2);
        assert_eq!(vs.vector_range(1), 2..3);
        assert_eq!(vs.vector_range(2), 3..3); // degree-0 vertex
        assert_eq!(vs.vectors()[0].count_valid(), 8);
        assert_eq!(vs.vectors()[1].count_valid(), 3);
        assert_eq!(vs.vectors()[2].count_valid(), 1);
        // Edge positions of each vector's first lane.
        assert_eq!(
            vs.edge_index(),
            &[0, 11, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12]
        );
        let firsts: Vec<usize> = (0..=3).map(|at| vs.edge_position(at)).collect();
        assert_eq!(firsts, vec![0, 8, 11, 12]);
    }

    #[test]
    fn expand_matches_csr() {
        let pairs = &[(0, 1), (0, 2), (1, 0), (3, 2), (3, 1), (3, 0)];
        let csr = csr_of(4, pairs);
        let vs = VectorSparse::from_csr(&csr);
        let mut expanded = vs.expand_edges();
        expanded.sort_unstable();
        let mut expected: Vec<_> = csr.iter_edges().map(|(v, t, _)| (v, t)).collect();
        expected.sort_unstable();
        assert_eq!(expanded, expected);
    }

    #[test]
    fn packing_efficiency_examples() {
        // One degree-8 vertex: perfectly packed.
        let full: Vec<_> = (1..=8u32).map(|d| (0, d)).collect();
        let vs = VectorSparse::from_csr(&csr_of(9, &full));
        assert_eq!(vs.packing_efficiency(), 1.0);
        // One degree-2 vertex: 25%.
        let vs = VectorSparse::from_csr(&csr_of(3, &[(0, 1), (0, 2)]));
        assert_eq!(vs.packing_efficiency(), 0.25);
    }

    #[test]
    fn weighted_structure_keeps_weights_lane_aligned() {
        let mut el = EdgeList::new(3);
        for d in 0..10 {
            el.push_weighted(0, d % 3, 1.5 + f64::from(d)).unwrap();
        }
        el.push_weighted(2, 0, 9.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        let vs = VectorSparse::from_csr(&csr);
        // One weight per edge, in lane order, no padding: vertex 2's
        // weight follows vertex 0's ten.
        let w = vs.weight_vectors().unwrap();
        assert_eq!(w, csr.weights().unwrap());
        assert_eq!(w.len(), 11);
        assert_eq!(vs.num_vectors(), 3);
        assert_eq!(vs.edge_position(2), 10);
        assert_eq!(w[vs.edge_position(2)], 9.0);
        assert!(
            std::ptr::eq(vs.edge_index(), csr.index()),
            "the index is shared"
        );
    }

    #[test]
    fn mean_weight_skips_padding_and_is_absent_without_weights() {
        let mut el = EdgeList::new(7);
        for (d, w) in [(1, 1.5), (2, 2.5), (3, 0.25), (4, 8.0), (5, 0.75)] {
            el.push_weighted(0, d, w).unwrap();
        }
        el.push_weighted(6, 0, 5.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        let vs = VectorSparse::from_csr(&csr);
        // 6 edges over 2 vectors: most lanes are padding.
        assert_eq!(vs.num_vectors(), 2);
        assert_eq!(vs.mean_weight(), Some(3.0));
        assert_eq!(vs.clone().mean_weight(), Some(3.0), "clones carry it");
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::from_csr_parallel(&csr, &pool);
        assert_eq!(par.mean_weight(), Some(3.0));
        assert!(par.bit_identical(&VectorSparse::from_csr(&csr)));
        assert_eq!(
            VectorSparse::from_csr(&csr_of(3, &[(0, 1)])).mean_weight(),
            None
        );
        let edgeless =
            Csr::from_edgelist_by_src(&EdgeList::from_parts(2, vec![], Some(vec![])).unwrap());
        assert_eq!(VectorSparse::from_csr(&edgeless).mean_weight(), None);
    }

    #[test]
    fn degrees_count_valid_lanes_per_vertex() {
        // Degrees 0, 1, 7, 8, 9 and 19: below, at and above a lane
        // multiple.
        let mut pairs = vec![];
        for (v, deg) in [(1u32, 1u32), (2, 7), (3, 8), (4, 9), (6, 19)] {
            pairs.extend((0..deg).map(|d| (v, 7 + d)));
        }
        let csr = csr_of(26, &pairs);
        let vs = VectorSparse::from_csr(&csr);
        assert_eq!(vs.degrees(), csr.degrees());
        assert_eq!(vs.max_degree(), 19);
        // Built once: later calls and other readers see the same table.
        assert!(std::ptr::eq(vs.degrees(), vs.degrees()));
        // Not part of the structure's identity.
        assert!(vs.bit_identical(&VectorSparse::from_csr(&csr)));
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::from_csr_parallel(&csr, &pool);
        assert_eq!(par.degrees(), csr.degrees());
        let empty = VectorSparse::from_csr(&csr_of(0, &[]));
        assert!(empty.degrees().is_empty());
        assert_eq!(empty.max_degree(), 0);
    }

    #[test]
    fn iter_yields_layout_order() {
        let vs = VectorSparse::from_csr(&csr_of(3, &[(0, 1), (2, 0)]));
        let tlvs: Vec<u64> = vs.iter().map(|(t, _, _)| t).collect();
        assert_eq!(tlvs, vec![0, 2]);
    }

    #[test]
    fn wide_lane_build() {
        // Eight lanes to a vector: a degree-10 vertex takes two vectors,
        // where the paper's four-lane vectors took three.
        let pairs: Vec<_> = (1..=10u32).map(|d| (0, d)).collect();
        let csr = csr_of(11, &pairs);
        let vs = VectorSparse::from_csr(&csr);
        assert_eq!(vs.num_vectors(), 2);
        assert_eq!(vs.num_edges(), 10);
        assert_eq!(vector_index(csr.index(), 4)[1], 3);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let pairs: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|s| (0..(s % 9)).map(move |k| (s, (s * 7 + k) % 40)))
            .collect();
        let csr = csr_of(40, &pairs);
        let seq = VectorSparse::from_csr(&csr);
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::single_group(threads);
            let par = VectorSparse::from_csr_parallel(&csr, &pool);
            assert!(par.bit_identical(&seq), "diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_build_carries_weights() {
        let mut el = EdgeList::new(16);
        for s in 0..16u32 {
            for k in 0..(s % 5) {
                el.push_weighted(s, (s + k + 1) % 16, s as f64 + k as f64 / 8.0)
                    .unwrap();
            }
        }
        let csr = Csr::from_edgelist_by_src(&el);
        let seq = VectorSparse::from_csr(&csr);
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::from_csr_parallel(&csr, &pool);
        assert!(par.bit_identical(&seq));
        assert_eq!(par.weight_vectors().unwrap(), seq.weight_vectors().unwrap());
    }

    #[test]
    fn parallel_build_handles_degenerate_shapes() {
        let pool = ThreadPool::single_group(4);
        // Empty graph.
        let empty = csr_of(5, &[]);
        assert!(VectorSparse::from_csr_parallel(&empty, &pool)
            .bit_identical(&VectorSparse::from_csr(&empty)));
        // One hub owning every edge: fewer busy partitions than workers.
        let hub: Vec<(u32, u32)> = (1..30u32).map(|d| (0, d)).collect();
        let csr = csr_of(30, &hub);
        assert!(VectorSparse::from_csr_parallel(&csr, &pool)
            .bit_identical(&VectorSparse::from_csr(&csr)));
    }

    /// A deferred VSS is encoded by its first reader — a deref on the
    /// calling thread or `ready` on a pool of any width — into exactly the
    /// eager encoding, NaN payloads and signed zeros in the weights
    /// included, over a graph with built out-edges and over one whose
    /// out-edges wait for their first reader, which it readies in the
    /// graph itself; clones share the one encoding.
    #[test]
    fn a_deferred_vss_encodes_like_an_eager_one() {
        let mut el = EdgeList::new(40);
        for s in 0..40u32 {
            for k in 0..(s % 7) {
                let w = match (s + k) % 4 {
                    0 => f64::NAN,
                    1 => f64::from_bits(f64::NAN.to_bits() | 5),
                    2 => -0.0,
                    _ => s as f64 - k as f64 / 3.0,
                };
                el.push_weighted(s, (s * 11 + k) % 40, w).unwrap();
            }
        }
        let csr = Csr::from_edgelist_by_src(&el);
        let in_index = csr.transposed_index(None);
        let vsd = Vsd::encode_transposed(&csr, &in_index, None);
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        let eager = Vss::from_csr(&csr);
        assert!(eager.is_encoded());
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let built = Graph::from_out_csr(csr.clone(), None);
            let sourced = Graph::from_source(
                Arc::new(csr.index().to_vec()),
                Arc::clone(&in_index),
                Arc::new(vsd.clone()),
                false,
            );
            for g in [built, sourced] {
                let vss = Vss::deferred(g.clone());
                let twin = vss.clone();
                assert!(!vss.is_encoded() && !twin.is_encoded());
                let got = match pool {
                    Some(p) => vss.ready(Some(p)),
                    None => &*vss,
                };
                let at = format!("{:?} threads", pool.map(|p| p.num_threads()));
                assert!(got.bit_identical(&eager), "{at}");
                assert!(twin.is_encoded(), "clones share the cell");
                assert!(std::ptr::eq(twin.vectors(), vss.vectors()));
                assert!(g.built_out_csr().unwrap().bit_identical(&csr), "{at}");
                assert!(g.in_csr().bit_identical(&csr.transpose(None)), "{at}");
                let at_width =
                    pool.map_or_else(|| Vss::from_csr(&csr), |p| Vss::from_csr_parallel(&csr, p));
                assert!(vss.bit_identical(&at_width));
            }
        }
    }

    /// `seq`'s edges of `tops` as `(endpoint, position)`, from `lists`.
    fn listed(seq: &impl Grouped, tops: Range<VertexId>) -> Vec<(VertexId, usize)> {
        seq.lists(tops).collect()
    }

    /// The same, from `edges_of`.
    fn called(seq: &impl Grouped, tops: Range<VertexId>) -> Vec<(VertexId, usize)> {
        let mut all = Vec::new();
        seq.edges_of(tops, |_, d, e| all.push((d, e)));
        all
    }

    /// `encodes_sorted` against the structure it proves, at every width:
    /// a symmetric graph's VSD encodes its CSR and its list sorted by pair
    /// or by source only (each list then sorted stably, weights along,
    /// parallel edges included), and not a list with an edge too many or
    /// too few, another weight bit, or no weights; a directed cycle's VSD,
    /// whose degrees agree, does not encode its CSR. `Grouped::lists`
    /// hands a range's edges as `edges_of` does, for every grouping.
    #[test]
    fn encodes_sorted_proves_the_vsd_is_the_sorted_out_edges() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 9);
        let mut pairs = Vec::new();
        for s in 0..30u32 {
            for k in 0..(s % 7) {
                let d = (s * 13 + k) % 30;
                let w = [f64::NAN, payload, -0.0, f64::from(s + d)][(s + d + k) as usize % 4];
                pairs.extend([((s, d), w), ((d, s), w)]);
            }
        }
        // By source only, each source's edges in reverse.
        pairs.sort_by_key(|&((s, d), _)| (s, std::cmp::Reverse(d)));
        let list = |pairs: &[((u32, u32), f64)], weighted: bool| {
            let (p, w): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
            EdgeList::from_parts(30, p, weighted.then_some(w)).unwrap()
        };
        let el = list(&pairs, true);
        let csr = Csr::build(&el, None);
        assert!(csr.bit_identical(&csr.transpose(None)), "symmetric");
        let vsd = Vsd::encode(&csr.transpose(None), None);
        let pools = [1, 2, 8].map(ThreadPool::single_group);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
            let sorted = SourceSorted::new(&el, pool).unwrap();
            assert!(vsd.encodes_sorted(&csr, csr.index(), pool), "{at}");
            assert!(vsd.encodes_sorted(&sorted, sorted.index(), pool), "{at}");
            for tops in [0..30, 0..1, 7..19, 29..30, 12..12] {
                assert_eq!(listed(&csr, tops.clone()), called(&csr, tops.clone()));
                assert_eq!(listed(&sorted, tops.clone()), called(&sorted, tops.clone()));
                assert_eq!(listed(&vsd, tops.clone()), called(&vsd, tops.clone()));
            }
            // One edge more, one less, one weight bit apart, no weights.
            let (mut more, mut less, mut flipped) = (pairs.clone(), pairs.clone(), pairs.clone());
            more.insert(0, ((0, 5), 1.0));
            less.remove(0);
            flipped[3].1 = f64::from_bits(flipped[3].1.to_bits() ^ 1);
            for (bad, weighted) in [
                (&more, true),
                (&less, true),
                (&flipped, true),
                (&pairs, false),
            ] {
                let el = list(bad, weighted);
                let sorted = SourceSorted::new(&el, pool).unwrap();
                assert!(!vsd.encodes_sorted(&sorted, sorted.index(), pool), "{at}");
            }
        }
        let cycle = Csr::build(
            &EdgeList::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
            None,
        );
        let index = cycle.index();
        assert!(!Vsd::encode(&cycle.transpose(None), None).encodes_sorted(&cycle, index, None));
        assert!(Vsd::encode(&cycle, None).encodes_sorted(&cycle, index, None));
    }

    /// A CSR of vertices of degree 0 to 8 and one `hub`, then `extra`, the
    /// list rotated by `seed` so the hub lands anywhere; neighbours and
    /// weights (negative ones too) drawn from `seed`.
    fn random_csr(hub: u32, extra: &[u32], seed: u64, weighted: bool) -> Csr {
        let mut degrees: Vec<u32> = (0..=8).chain([hub]).chain(extra.iter().copied()).collect();
        let turn = (seed % degrees.len() as u64) as usize;
        degrees.rotate_left(turn);
        let n = degrees.len() as u64;
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let index: Vec<u64> = std::iter::once(0)
            .chain(degrees.iter().scan(0u64, |at, &d| {
                *at += u64::from(d);
                Some(*at)
            }))
            .collect();
        let m = *index.last().unwrap() as usize;
        let edges = (0..m).map(|_| (next() % n) as VertexId).collect();
        let weights = weighted.then(|| (0..m).map(|_| next() as f64 / 64.0 - 1e6).collect());
        Csr::from_parts(index, edges, weights).unwrap()
    }

    /// `vs` against the plain reading of its contract over `csr`: the
    /// edges in CSR order, `ceil(deg/8)` vectors per vertex, each carrying
    /// its vertex in every lane's piece (padding lanes included), the CSR's
    /// index as the edge index and each vertex's weights its CSR weights.
    fn check_against_csr(vs: &VectorSparse, csr: &Csr) -> Result<(), TestCaseError> {
        let edges: Vec<_> = csr.iter_edges().map(|(v, t, _)| (v, t)).collect();
        prop_assert_eq!(vs.expand_edges(), edges);
        prop_assert_eq!(vs.index(), vector_index(csr.index(), LANES));
        prop_assert_eq!(vs.edge_index(), csr.index());
        prop_assert_eq!(
            (vs.num_vertices(), vs.num_edges()),
            (csr.num_vertices(), csr.num_edges())
        );
        for v in 0..csr.num_vertices() as VertexId {
            let range = vs.vector_range(v);
            for i in range.clone() {
                for (k, &lane) in vs.vectors()[i].lanes().iter().enumerate() {
                    prop_assert_eq!(crate::format::lane_piece(lane), tlv_piece(v, k));
                    prop_assert!(lane_is_valid(lane) || lane_vertex(lane) == 0);
                }
                prop_assert_eq!(
                    vs.edge_position(i),
                    csr.edge_range(v).start + (i - range.start) * LANES
                );
            }
            match (vs.weight_vectors(), csr.neighbor_weights(v)) {
                (None, None) => {}
                (Some(all), Some(want)) => {
                    let got: Vec<u64> =
                        all[csr.edge_range(v)].iter().map(|w| w.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|w| w.to_bits()).collect();
                    prop_assert_eq!(got, want, "weights of {}", v);
                }
                _ => prop_assert!(false, "weightedness differs"),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The encoder, one share without a pool and one per worker on 1,
        /// 2 and 8 threads, matches the plain reading of the format:
        /// degree-0 vertices, every degree residue mod 8, a hub, weighted
        /// and not.
        #[test]
        fn prop_encoder_matches_the_plain_reading(
            hub in 33u32..160,
            extra in proptest::collection::vec(0u32..20, 0..40),
            seed in any::<u64>(),
            weighted in any::<bool>(),
        ) {
            let csr = random_csr(hub, &extra, seed, weighted);
            let pools = [1, 2, 8].map(ThreadPool::single_group);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                check_against_csr(&VectorSparse::encode(&csr, pool), &csr)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The encoding of a transpose straight from the out-edges equals
        /// the encoding of the transposed structure, bit for bit, weight
        /// included, one share without a pool and one per worker on 1, 2
        /// and 8 threads: degree-0 vertices, every degree residue, a hub,
        /// weighted and not.
        #[test]
        fn prop_encode_transposed_equals_the_encoded_transpose(
            hub in 33u32..160,
            extra in proptest::collection::vec(0u32..20, 0..40),
            seed in any::<u64>(),
            weighted in any::<bool>(),
        ) {
            let out = random_csr(hub, &extra, seed, weighted);
            let inn = out.transpose(None);
            let want = VectorSparse::encode(&inn, None);
            let pools = [1, 2, 8].map(ThreadPool::single_group);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let in_index = out.transposed_index(pool);
                let got = VectorSparse::encode_transposed(&out, &in_index, pool);
                prop_assert!(got.bit_identical(&want), "{:?} threads", pool.map(ThreadPool::num_threads));
                check_against_csr(&got, &inn)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The VSD encoded straight from an edge list whose sources never
        /// decrease equals the encoding of its CSC, bit for bit, weight
        /// included, one share without a pool and one per worker on 1, 2
        /// and 8 threads: lists sorted by pair and by
        /// source only (parallel edges, and a source's other edges, in
        /// generation order), weights with NaN payloads and both zeros,
        /// isolated vertices past the endpoints drawn.
        #[test]
        fn prop_encode_from_a_sorted_list_equals_the_encoded_csc(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..300),
            weights in proptest::collection::vec((any::<u64>(), 0u8..8), 0..5),
            by_pair in any::<bool>(),
        ) {
            let special = [
                f64::NAN.to_bits(),
                f64::NAN.to_bits() | 0x8000_0000_0000_0007,
                0.0f64.to_bits(),
                (-0.0f64).to_bits(),
            ];
            let bits: Vec<u64> = weights
                .iter()
                .map(|&(b, pick)| special.get(usize::from(pick)).copied().unwrap_or(b))
                .collect();
            let mut list: Vec<((u32, u32), f64)> = raw
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| {
                    let w = bits.get(i % bits.len().max(1)).map_or(0.0, |&b| f64::from_bits(b));
                    ((s % n as u32, d % n as u32), w)
                })
                .collect();
            match by_pair {
                true => list.sort_by_key(|&(p, _)| p),
                false => list.sort_by_key(|&((s, _), _)| s),
            }
            let (pairs, ws): (Vec<_>, Vec<_>) = list.into_iter().unzip();
            let el = EdgeList::from_parts(n, pairs, (!bits.is_empty()).then_some(ws)).unwrap();
            let csc = Csr::build(&el, None).transpose(None);
            let want = VectorSparse::encode(&csc, None);
            let pools = [1, 2, 8].map(ThreadPool::single_group);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
                let sorted = SourceSorted::new(&el, pool).expect("sorted by source");
                let in_index = sorted.in_index();
                prop_assert_eq!(&in_index[..], csc.index(), "{}", at);
                let got = VectorSparse::encode_transposed(&sorted, in_index, pool);
                prop_assert!(got.bit_identical(&want), "{}", at);
                check_against_csr(&got, &csc)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Construction followed by expansion is lossless for any graph.
        #[test]
        fn prop_roundtrip_through_vectors(
            edges in proptest::collection::vec((0u32..64, 0u32..64), 0..400),
        ) {
            let mut el = EdgeList::from_pairs(64, &edges).unwrap();
            el.sort_and_dedup();
            let csr = Csr::from_edgelist_by_src(&el);
            let vs = VectorSparse::from_csr(&csr);
            prop_assert_eq!(vs.num_edges(), csr.num_edges());
            let mut expanded = vs.expand_edges();
            expanded.sort_unstable();
            prop_assert_eq!(&expanded[..], el.edges());
            // Index is consistent: every vector of v carries TLV v.
            for v in 0..64u32 {
                for i in vs.vector_range(v) {
                    prop_assert_eq!(vs.vectors()[i].top_level_vertex(), v as u64);
                }
            }
        }

        /// Eight-lane vectors never take more bytes than the paper's four
        /// 64-bit lanes did: per vertex `ceil(d/8)` vectors of 32 bytes
        /// against `ceil(d/4)`, counted from the degrees, and at least
        /// half as many.
        #[test]
        fn prop_roundtrip_wide_lanes(
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..300),
        ) {
            let mut el = EdgeList::from_pairs(48, &edges).unwrap();
            el.sort_and_dedup();
            let csr = Csr::from_edgelist_by_src(&el);
            let vs = VectorSparse::from_csr(&csr);
            let mut expanded = vs.expand_edges();
            expanded.sort_unstable();
            prop_assert_eq!(&expanded[..], el.edges());
            let four_lane = *vector_index(csr.index(), 4).last().unwrap();
            prop_assert!(vs.num_vectors() as u64 <= four_lane);
            prop_assert!(2 * vs.num_vectors() as u64 >= four_lane);
        }

        /// Packing efficiency from the built structure equals the analytic
        /// prediction from degrees alone.
        #[test]
        fn prop_packing_matches_analytic(
            edges in proptest::collection::vec((0u32..32, 0u32..32), 1..200),
        ) {
            let mut el = EdgeList::from_pairs(32, &edges).unwrap();
            el.sort_and_dedup();
            let csr = Csr::from_edgelist_by_src(&el);
            let vs = VectorSparse::from_csr(&csr);
            let analytic = crate::packing::packing_efficiency(&csr.degrees(), LANES);
            prop_assert!((vs.packing_efficiency() - analytic).abs() < 1e-12);
        }
    }
}
