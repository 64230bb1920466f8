//! The Vector-Sparse edge structure: vector array + per-vertex index.

use crate::format::{pack_lane, tlv_piece_bits, VALID_BIT, VERTEX_MASK};
use crate::vector::EdgeVector;
use grazelle_graph::csr::{scatter_transposed, Csr, Grouped};
use grazelle_graph::graph::Graph;
use grazelle_graph::partition::{partition_index, split_by_parts, EdgePartition};
use grazelle_graph::types::{EdgeId, VertexId};
use grazelle_sched::alloc::WorkerFilled;
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
///
/// The arrays sit behind one [`Arc`], so `clone()` shares them instead of
/// copying: on a symmetric graph the VSD and the VSS are one encoding.
#[derive(Debug, Clone)]
pub struct VectorSparse<const N: usize = 4> {
    blocks: Arc<Blocks<N>>,
}

/// The arrays of one encoding and what is derived from them.
#[derive(Debug)]
struct Blocks<const N: usize> {
    vectors: Vec<EdgeVector<N>>,
    /// Per-vector weight lanes, index-aligned with `vectors`; padding lanes
    /// carry 0.0. Present only for weighted graphs ("edge weights …
    /// supported by appending a weight vector to each edge vector", §4).
    weights: Option<Vec<[f64; N]>>,
    /// `index[v] .. index[v+1]` is vertex `v`'s vector range.
    index: Vec<u64>,
    num_vertices: usize,
    num_edges: usize,
    /// [`mean_weight`](VectorSparse::mean_weight), summed on first use. A
    /// function of `weights` and `num_edges` alone, so `bit_identical`
    /// ignores it.
    mean_weight: OnceLock<Option<f64>>,
    /// [`degrees`](VectorSparse::degrees) and their maximum, counted on
    /// first use. A function of `vectors` and `index` alone, so
    /// `bit_identical` ignores it too.
    degrees: OnceLock<(Vec<u32>, u32)>,
}

/// Vector-Sparse-Destination with the paper's 4-lane (256-bit) vectors.
pub type Vsd = VectorSparse<4>;

/// Vector-Sparse-Source with the paper's 4-lane (256-bit) vectors: the
/// push structure, an [`OnDemand`] cell over the graph whose out-edges it
/// is encoded from (a clone, sharing the graph's edges and cells), or
/// holding an eager encoding. A run that only pulls never reads it, so a
/// directed graph's set-up leaves it empty (DESIGN.md §12, "On-demand
/// structures"). It derefs to the encoding, encoding on the calling
/// thread; [`Vss::ready`] encodes on a pool, never to be called from one
/// of that pool's workers.
#[derive(Debug, Clone)]
pub struct Vss(OnDemand<Option<Graph>, VectorSparse<4>>);

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
    pub fn ready(&self, pool: Option<&ThreadPool>) -> &VectorSparse<4> {
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
impl From<VectorSparse<4>> for Vss {
    fn from(vs: VectorSparse<4>) -> Self {
        Vss(OnDemand::built(None, vs))
    }
}

impl std::ops::Deref for Vss {
    type Target = VectorSparse<4>;

    /// [`Vss::ready`] on the calling thread.
    fn deref(&self) -> &VectorSparse<4> {
        self.ready(None)
    }
}

impl<const N: usize> VectorSparse<N> {
    /// Builds the structure from one Compressed-Sparse orientation, on the
    /// calling thread. Each top-level vertex's edges are padded to a
    /// multiple of `N` lanes; degree-0 vertices occupy no vectors.
    pub fn from_csr(csr: &Csr) -> Self {
        Self::encode(csr, None)
    }

    /// [`VectorSparse::from_csr`] on a [`ThreadPool`], bit-identical at
    /// any pool width.
    pub fn from_csr_parallel(csr: &Csr, pool: &ThreadPool) -> Self {
        Self::encode(csr, Some(pool))
    }

    /// The one encoder: one share per worker of `pool`, or one share on
    /// the calling thread without a pool.
    ///
    /// The vertex index is a prefix sum over `ceil(deg/N)`, so every vertex's
    /// vector output range is known up front and ranges are disjoint. Each
    /// share packs a contiguous vertex partition (balanced by vector count
    /// via [`partition_index`]) straight into its range of the output
    /// arrays — lane fill and TLV piece distribution in [`EdgeVector::new`],
    /// weight-lane zero padding in the per-chunk copy — so the output is the
    /// same at every width. The arrays are [`WorkerFilled`]: nothing writes
    /// them before the shares do, so their pages are faulted in once, by
    /// the thread that fills them.
    pub fn encode(csr: &Csr, pool: Option<&ThreadPool>) -> Self {
        let n = csr.num_vertices();
        assert!(
            (n as u64) <= VERTEX_MASK,
            "vertex ids must fit the 48-bit fields"
        );
        let index = crate::packing::vector_index(&csr.degrees(), N);
        let num_vectors = *index.last().expect("vector index is never empty") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        // `partition_index` ranges count vectors here, not edges.
        let lens = || parts.iter().map(|p| p.num_edges());
        let mut vectors = WorkerFilled::new(num_vectors);
        let mut weights = csr.weights().map(|_| WorkerFilled::new(num_vectors));
        let weight_writers = match &mut weights {
            Some(w) => w.writers(lens()).into_iter().map(Some).collect(),
            None => lens().map(|_| None).collect::<Vec<_>>(),
        };
        let tasks: Vec<_> = parts
            .iter()
            .zip(vectors.writers(lens()))
            .zip(weight_writers)
            .collect();
        run_shares(pool, tasks, |((part, mut vout), mut wout)| {
            let mut lane_buf = [0u64; N];
            for v in part.vertices() {
                let nbrs = csr.neighbors(v);
                let ws = csr.neighbor_weights(v);
                for (ci, chunk) in nbrs.chunks(N).enumerate() {
                    for (i, &nb) in chunk.iter().enumerate() {
                        lane_buf[i] = nb as u64;
                    }
                    vout.push(EdgeVector::new(v as u64, &lane_buf[..chunk.len()]));
                    if let (Some(wout), Some(win)) = (wout.as_mut(), ws) {
                        let mut weight_buf = [0.0f64; N];
                        let start = ci * N;
                        weight_buf[..chunk.len()].copy_from_slice(&win[start..start + chunk.len()]);
                        wout.push(weight_buf);
                    }
                }
            }
        });
        // The filled blocks move into the `Arc` as they are; an
        // `Arc<[T]>` would copy each one.
        let built = VectorSparse {
            blocks: Arc::new(Blocks {
                vectors: vectors.into_vec(),
                weights: weights.map(WorkerFilled::into_vec),
                index,
                num_vertices: n,
                num_edges: csr.num_edges(),
                mean_weight: OnceLock::new(),
                degrees: OnceLock::new(),
            }),
        };
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
    /// VSD.
    ///
    /// Each share (one per worker of `pool`, or one on the calling thread)
    /// owns a range of top-level vertices balanced by vectors, in two
    /// passes. First it writes its range as padding vectors
    /// (`EdgeVector::new(v, &[])`, weight lanes 0.0) through
    /// [`WorkerFilled`] writers, so it faults its own pages in. Then it
    /// runs the transposing scatter ([`scatter_transposed`]) over all of
    /// `seq` and stores each of its edges whole into the next lane of its
    /// top-level vertex — valid bit, the lane's piece of the vertex id, the
    /// stored endpoint — through a `split_at_mut` slice of the array. The
    /// scatter hands each vertex its edges in its transposed list's order,
    /// so the lanes are the ones [`VectorSparse::encode`] fills, at any
    /// width.
    pub fn encode_transposed(
        seq: &impl Grouped,
        in_index: &[EdgeId],
        pool: Option<&ThreadPool>,
    ) -> Self {
        let n = seq.num_vertices();
        assert!(
            (n as u64) <= VERTEX_MASK,
            "vertex ids must fit the 48-bit fields"
        );
        assert_eq!(in_index.len(), n + 1, "one index entry per vertex");
        let degrees: Vec<u32> = in_index.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let index = crate::packing::vector_index(&degrees, N);
        let num_vectors = *index.last().expect("vector index is never empty") as usize;
        let parts = partition_index(&index, pool.map_or(1, ThreadPool::num_threads));
        // `partition_index` ranges count vectors here, not edges.
        let lens = || parts.iter().map(|p| p.num_edges());
        let vector_range = |v: VertexId| (index[v as usize + 1] - index[v as usize]) as usize;
        let mut vectors = WorkerFilled::new(num_vectors);
        let mut weights = seq.weights().map(|_| WorkerFilled::new(num_vectors));
        let weight_writers = match &mut weights {
            Some(w) => w.writers(lens()).into_iter().map(Some).collect(),
            None => lens().map(|_| None).collect::<Vec<_>>(),
        };
        let tasks: Vec<_> = parts
            .iter()
            .zip(vectors.writers(lens()))
            .zip(weight_writers)
            .collect();
        run_shares(pool, tasks, |((part, mut vout), mut wout)| {
            for v in part.vertices() {
                let len = vector_range(v);
                vout.extend(std::iter::repeat_n(EdgeVector::new(v as u64, &[]), len));
                if let Some(wout) = wout.as_mut() {
                    wout.extend(std::iter::repeat_n([0.0; N], len));
                }
            }
        });
        let mut vectors = vectors.into_vec();
        let mut weights = weights.map(WorkerFilled::into_vec);
        let bits = tlv_piece_bits(N);
        let w_in = seq.weights();
        let tasks = split_by_parts(&parts, &mut vectors, weights.as_deref_mut());
        run_shares(pool, tasks, |(part, vslice, mut wslice)| {
            let first = part.first_vertex as usize;
            let base = index[first] as usize * N;
            // Per-vertex lane cursors, counted from this share's first lane.
            let mut cursor: Vec<usize> = index[first..part.last_vertex as usize]
                .iter()
                .map(|&at| at as usize * N - base)
                .collect();
            scatter_transposed(seq, part.vertices(), |d, s, e| {
                let c = &mut cursor[d as usize - first];
                let (at, lane) = (*c / N, *c % N);
                let piece = (u64::from(d) >> (bits as usize * lane)) & ((1u64 << bits) - 1);
                vslice[at].set_lane(lane, pack_lane(true, piece, bits, u64::from(s)));
                if let (Some(w_out), Some(w_in)) = (wslice.as_deref_mut(), w_in) {
                    w_out[at][lane] = w_in[e];
                }
                *c += 1;
            });
        });
        let built = VectorSparse {
            blocks: Arc::new(Blocks {
                vectors,
                weights,
                index,
                num_vertices: n,
                num_edges: *in_index.last().expect("index holds n + 1 entries") as usize,
                mean_weight: OnceLock::new(),
                degrees: OnceLock::new(),
            }),
        };
        debug_assert!(
            pool.is_none_or(|p| p.num_threads() == 1)
                || built.bit_identical(&Self::encode_transposed(seq, in_index, None)),
            "several-share transposed encode diverged from the one-share encode"
        );
        built
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
    /// its edges `N` lanes at a time, so an edge costs no branch of its
    /// own.
    fn lanes_hold(
        &self,
        tops: Range<VertexId>,
        index: &[EdgeId],
        w_in: Option<&[f64]>,
        mut edges: impl Iterator<Item = (VertexId, usize)>,
    ) -> bool {
        let (vectors, vector_index) = (&self.blocks.vectors, &self.blocks.index);
        // Bits set where a lane differs from its edge.
        let mut diff = 0u64;
        // Vector `at` holds the next `valid` edges, then padding, which
        // masks to 0 (as does an edge missing).
        let mut vector = |at: usize, valid: usize| {
            let mut want = [0u64; N];
            for (i, (d, e)) in (0..valid).zip(edges.by_ref()) {
                want[i] = VALID_BIT | u64::from(d);
                if let (Some(lw), Some(w)) = (&self.blocks.weights, w_in) {
                    diff |= lw[at][i].to_bits() ^ w[e].to_bits();
                }
            }
            for (lane, want) in vectors[at].lanes().iter().zip(want) {
                diff |= (lane & (VALID_BIT | VERTEX_MASK)) ^ want;
            }
        };
        for v in tops {
            let v = v as usize;
            let degree = (index[v + 1] - index[v]) as usize;
            let at = vector_index[v] as usize;
            if vector_index[v + 1] as usize - at != degree.div_ceil(N) {
                return false;
            }
            for k in 0..degree / N {
                vector(at + k, N);
            }
            if !degree.is_multiple_of(N) {
                vector(at + degree / N, degree % N);
            }
        }
        diff == 0 && edges.next().is_none()
    }

    /// True when `self` and `other` are bit-for-bit the same structure
    /// (at once when they share their arrays). Weight lanes are compared
    /// by bit pattern, so NaN payloads count too.
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
                        .flatten()
                        .map(|w| w.to_bits())
                        .eq(b.iter().flatten().map(|w| w.to_bits()))
            }
            _ => false,
        };
        this.vectors == other.vectors
            && this.index == other.index
            && this.num_vertices == other.num_vertices
            && this.num_edges == other.num_edges
            && weights_eq
    }

    /// Number of top-level vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.blocks.num_vertices
    }

    /// Number of (valid) edges represented.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.blocks.num_edges
    }

    /// Number of edge vectors, including padding lanes.
    #[inline]
    pub fn num_vectors(&self) -> usize {
        self.blocks.vectors.len()
    }

    /// The flat vector array.
    #[inline]
    pub fn vectors(&self) -> &[EdgeVector<N>] {
        &self.blocks.vectors
    }

    /// Per-vector weight lanes, if the graph is weighted.
    #[inline]
    pub fn weight_vectors(&self) -> Option<&[[f64; N]]> {
        self.blocks.weights.as_deref()
    }

    /// Mean edge weight; `None` for an unweighted or edgeless structure.
    /// One pass over the weight lanes on the first call (padding lanes hold
    /// 0.0 and add nothing), O(1) after it; the lane-wise partial sums are
    /// taken in layout order, so equal structures report equal bits.
    pub fn mean_weight(&self) -> Option<f64> {
        *self.blocks.mean_weight.get_or_init(|| {
            let weights = self
                .blocks
                .weights
                .as_ref()
                .filter(|_| self.blocks.num_edges > 0)?;
            let mut lanes = [0.0f64; N];
            for w in weights {
                for (sum, x) in lanes.iter_mut().zip(w) {
                    *sum += x;
                }
            }
            Some(lanes.iter().sum::<f64>() / self.blocks.num_edges as f64)
        })
    }

    /// Valid lanes per top-level vertex: out-degrees over a VSS, in-degrees
    /// over a VSD. One O(V) pass on the first call — every vector of a
    /// vertex but its last is full by construction, so the index and the
    /// last vector's valid count decide it — and a shared slice after it:
    /// the direction model's per-superstep frontier cost reads this table
    /// from every run on the structure.
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
                .index
                .windows(2)
                .map(|w| match (w[1] - w[0]) as usize {
                    0 => 0,
                    len => {
                        let last = &self.blocks.vectors[w[1] as usize - 1];
                        ((len - 1) * N) as u32 + last.count_valid()
                    }
                })
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, &EdgeVector<N>, usize)> + '_ {
        self.blocks
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (v.top_level_vertex(), v, i))
    }

    /// Expands the structure back to `(tlv, neighbor)` edge pairs — the
    /// inverse of construction, used by tests and format converters.
    pub fn expand_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.blocks.num_edges);
        for v in &self.blocks.vectors {
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
        self.blocks.num_edges as f64 / (self.blocks.vectors.len() * N) as f64
    }
}

/// A Vector-Sparse structure's valid lanes, grouped by top-level vertex in
/// layout order; a lane's position is its index in the flat lane array,
/// and the flattened weight lanes are the weights. Over a VSD this is a
/// graph's in-edges in order, which its deferred orientations are rebuilt
/// from ([`EdgeSource`](grazelle_graph::graph::EdgeSource)).
impl<const N: usize> Grouped for VectorSparse<N> {
    fn num_vertices(&self) -> usize {
        self.blocks.num_vertices
    }

    fn edges_of(
        &self,
        tops: std::ops::Range<VertexId>,
        mut put: impl FnMut(VertexId, VertexId, usize),
    ) {
        for v in tops {
            let range = self.vector_range(v);
            for (at, vector) in (range.start..).zip(&self.blocks.vectors[range]) {
                for lane in 0..N {
                    if let Some(nb) = vector.neighbor(lane) {
                        put(v, nb as VertexId, at * N + lane);
                    }
                }
            }
        }
    }

    fn lists(&self, tops: Range<VertexId>) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        let index = &self.blocks.index;
        let range = index[tops.start as usize] as usize..index[tops.end as usize] as usize;
        (range.clone())
            .zip(&self.blocks.vectors[range])
            .flat_map(|(at, vector)| {
                (0..N).filter_map(move |lane| {
                    let nb = vector.neighbor(lane)?;
                    Some((nb as VertexId, at * N + lane))
                })
            })
    }

    fn weights(&self) -> Option<&[f64]> {
        self.blocks
            .weights
            .as_deref()
            .map(<[[f64; N]]>::as_flattened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Degree 7 vertex -> 2 vectors (paper's example), degree 1 -> 1.
        let mut pairs = vec![];
        for d in 1..=7u32 {
            pairs.push((0, d));
        }
        pairs.push((1, 0));
        let vs = VectorSparse::<4>::from_csr(&csr_of(8, &pairs));
        assert_eq!(vs.num_vectors(), 3);
        assert_eq!(vs.num_edges(), 8);
        assert_eq!(vs.vector_range(0), 0..2);
        assert_eq!(vs.vector_range(1), 2..3);
        assert_eq!(vs.vector_range(2), 3..3); // degree-0 vertex
        assert_eq!(vs.vectors()[0].count_valid(), 4);
        assert_eq!(vs.vectors()[1].count_valid(), 3);
        assert_eq!(vs.vectors()[2].count_valid(), 1);
    }

    #[test]
    fn expand_matches_csr() {
        let pairs = &[(0, 1), (0, 2), (1, 0), (3, 2), (3, 1), (3, 0)];
        let csr = csr_of(4, pairs);
        let vs = VectorSparse::<4>::from_csr(&csr);
        let mut expanded = vs.expand_edges();
        expanded.sort_unstable();
        let mut expected: Vec<_> = csr.iter_edges().map(|(v, t, _)| (v, t)).collect();
        expected.sort_unstable();
        assert_eq!(expanded, expected);
    }

    #[test]
    fn packing_efficiency_examples() {
        // One degree-4 vertex: perfectly packed.
        let full: Vec<_> = (1..=4u32).map(|d| (0, d)).collect();
        let vs = VectorSparse::<4>::from_csr(&csr_of(5, &full));
        assert_eq!(vs.packing_efficiency(), 1.0);
        // One degree-1 vertex: 25%.
        let vs = VectorSparse::<4>::from_csr(&csr_of(2, &[(0, 1)]));
        assert_eq!(vs.packing_efficiency(), 0.25);
    }

    #[test]
    fn weighted_structure_keeps_weights_lane_aligned() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 1.5).unwrap();
        el.push_weighted(0, 2, 2.5).unwrap();
        el.push_weighted(2, 0, 9.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        let vs = VectorSparse::<4>::from_csr(&csr);
        let w = vs.weight_vectors().unwrap();
        assert_eq!(w.len(), vs.num_vectors());
        assert_eq!(w[0][..2], [1.5, 2.5]);
        assert_eq!(w[0][2..], [0.0, 0.0]); // padding lanes zeroed
        assert_eq!(w[1][0], 9.0);
    }

    #[test]
    fn mean_weight_skips_padding_and_is_absent_without_weights() {
        let mut el = EdgeList::new(7);
        for (d, w) in [(1, 1.5), (2, 2.5), (3, 0.25), (4, 8.0), (5, 0.75)] {
            el.push_weighted(0, d, w).unwrap();
        }
        el.push_weighted(6, 0, 5.0).unwrap();
        let csr = Csr::from_edgelist_by_src(&el);
        let vs = VectorSparse::<4>::from_csr(&csr);
        // 6 edges over 3 vectors: half the lanes are padding.
        assert_eq!(vs.num_vectors(), 3);
        assert_eq!(vs.mean_weight(), Some(3.0));
        assert_eq!(vs.clone().mean_weight(), Some(3.0), "clones carry it");
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::<4>::from_csr_parallel(&csr, &pool);
        assert_eq!(par.mean_weight(), Some(3.0));
        assert!(par.bit_identical(&VectorSparse::<4>::from_csr(&csr)));
        assert_eq!(
            VectorSparse::<4>::from_csr(&csr_of(3, &[(0, 1)])).mean_weight(),
            None
        );
        let edgeless =
            Csr::from_edgelist_by_src(&EdgeList::from_parts(2, vec![], Some(vec![])).unwrap());
        assert_eq!(VectorSparse::<4>::from_csr(&edgeless).mean_weight(), None);
    }

    #[test]
    fn degrees_count_valid_lanes_per_vertex() {
        // Degrees 0, 1, N − 1, N, N + 1 and 2N + 3, at both lane widths.
        let mut pairs = vec![];
        for (v, deg) in [(1u32, 1u32), (2, 3), (3, 4), (4, 5), (6, 11)] {
            pairs.extend((0..deg).map(|d| (v, 7 + d)));
        }
        let csr = csr_of(18, &pairs);
        let vs = VectorSparse::<4>::from_csr(&csr);
        assert_eq!(vs.degrees(), csr.degrees());
        assert_eq!(VectorSparse::<8>::from_csr(&csr).degrees(), csr.degrees());
        assert_eq!(vs.max_degree(), 11);
        assert_eq!(VectorSparse::<8>::from_csr(&csr).max_degree(), 11);
        // Built once: later calls and other readers see the same table.
        assert!(std::ptr::eq(vs.degrees(), vs.degrees()));
        // Not part of the structure's identity.
        assert!(vs.bit_identical(&VectorSparse::<4>::from_csr(&csr)));
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::<4>::from_csr_parallel(&csr, &pool);
        assert_eq!(par.degrees(), csr.degrees());
        let empty = VectorSparse::<4>::from_csr(&csr_of(0, &[]));
        assert!(empty.degrees().is_empty());
        assert_eq!(empty.max_degree(), 0);
    }

    #[test]
    fn iter_yields_layout_order() {
        let vs = VectorSparse::<4>::from_csr(&csr_of(3, &[(0, 1), (2, 0)]));
        let tlvs: Vec<u64> = vs.iter().map(|(t, _, _)| t).collect();
        assert_eq!(tlvs, vec![0, 2]);
    }

    #[test]
    fn wide_lane_build() {
        let pairs: Vec<_> = (1..=10u32).map(|d| (0, d)).collect();
        let vs8 = VectorSparse::<8>::from_csr(&csr_of(11, &pairs));
        assert_eq!(vs8.num_vectors(), 2);
        assert_eq!(vs8.num_edges(), 10);
        let vs16 = VectorSparse::<16>::from_csr(&csr_of(11, &pairs));
        assert_eq!(vs16.num_vectors(), 1);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let pairs: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|s| (0..(s % 9)).map(move |k| (s, (s * 7 + k) % 40)))
            .collect();
        let csr = csr_of(40, &pairs);
        let seq = VectorSparse::<4>::from_csr(&csr);
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::single_group(threads);
            let par = VectorSparse::<4>::from_csr_parallel(&csr, &pool);
            assert!(par.bit_identical(&seq), "diverged at {threads} threads");
        }
        // Wide lanes too.
        let seq8 = VectorSparse::<8>::from_csr(&csr);
        let pool = ThreadPool::single_group(4);
        assert!(VectorSparse::<8>::from_csr_parallel(&csr, &pool).bit_identical(&seq8));
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
        let seq = VectorSparse::<4>::from_csr(&csr);
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::<4>::from_csr_parallel(&csr, &pool);
        assert!(par.bit_identical(&seq));
        assert_eq!(par.weight_vectors().unwrap(), seq.weight_vectors().unwrap());
    }

    #[test]
    fn parallel_build_handles_degenerate_shapes() {
        let pool = ThreadPool::single_group(4);
        // Empty graph.
        let empty = csr_of(5, &[]);
        assert!(VectorSparse::<4>::from_csr_parallel(&empty, &pool)
            .bit_identical(&VectorSparse::<4>::from_csr(&empty)));
        // One hub owning every edge: fewer busy partitions than workers.
        let hub: Vec<(u32, u32)> = (1..30u32).map(|d| (0, d)).collect();
        let csr = csr_of(30, &hub);
        assert!(VectorSparse::<4>::from_csr_parallel(&csr, &pool)
            .bit_identical(&VectorSparse::<4>::from_csr(&csr)));
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
    /// edges in CSR order, `ceil(deg/N)` vectors per vertex, each carrying
    /// its vertex, and each vertex's weight lanes its CSR weights followed
    /// by 0.0 padding.
    fn check_against_csr<const N: usize>(
        vs: &VectorSparse<N>,
        csr: &Csr,
    ) -> Result<(), TestCaseError> {
        let edges: Vec<_> = csr.iter_edges().map(|(v, t, _)| (v, t)).collect();
        prop_assert_eq!(vs.expand_edges(), edges);
        prop_assert_eq!(vs.index(), crate::packing::vector_index(&csr.degrees(), N));
        prop_assert_eq!(
            (vs.num_vertices(), vs.num_edges()),
            (csr.num_vertices(), csr.num_edges())
        );
        for v in 0..csr.num_vertices() as VertexId {
            let range = vs.vector_range(v);
            for i in range.clone() {
                prop_assert_eq!(vs.vectors()[i].top_level_vertex(), u64::from(v));
            }
            match (vs.weight_vectors(), csr.neighbor_weights(v)) {
                (None, None) => {}
                (Some(lanes), Some(want)) => {
                    let got: Vec<u64> =
                        lanes[range].iter().flatten().map(|w| w.to_bits()).collect();
                    let mut want: Vec<u64> = want.iter().map(|w| w.to_bits()).collect();
                    want.resize(got.len(), 0.0f64.to_bits());
                    prop_assert_eq!(got, want, "weight lanes of {}", v);
                }
                _ => prop_assert!(false, "weightedness differs"),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The encoder, one share without a pool and one per worker on 1,
        /// 2 and 8 threads, at 4 and 8 lanes, matches the plain reading of
        /// the format: degree-0 vertices, every degree residue mod 4 and 8,
        /// a hub, weighted and not.
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
                check_against_csr(&VectorSparse::<4>::encode(&csr, pool), &csr)?;
                check_against_csr(&VectorSparse::<8>::encode(&csr, pool), &csr)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The encoding of a transpose straight from the out-edges equals
        /// the encoding of the transposed structure, bit for bit, weight
        /// lanes included, one share without a pool and one per worker on
        /// 1, 2 and 8 threads, at 4 and 8 lanes: degree-0 vertices, every
        /// degree residue, a hub, weighted and not.
        #[test]
        fn prop_encode_transposed_equals_the_encoded_transpose(
            hub in 33u32..160,
            extra in proptest::collection::vec(0u32..20, 0..40),
            seed in any::<u64>(),
            weighted in any::<bool>(),
        ) {
            let out = random_csr(hub, &extra, seed, weighted);
            let inn = out.transpose(None);
            let want4 = VectorSparse::<4>::encode(&inn, None);
            let want8 = VectorSparse::<8>::encode(&inn, None);
            let pools = [1, 2, 8].map(ThreadPool::single_group);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let in_index = out.transposed_index(pool);
                let got4 = VectorSparse::<4>::encode_transposed(&out, &in_index, pool);
                let got8 = VectorSparse::<8>::encode_transposed(&out, &in_index, pool);
                prop_assert!(got4.bit_identical(&want4), "{:?} threads", pool.map(ThreadPool::num_threads));
                prop_assert!(got8.bit_identical(&want8), "{:?} threads", pool.map(ThreadPool::num_threads));
                check_against_csr(&got4, &inn)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The VSD encoded straight from an edge list whose sources never
        /// decrease equals the encoding of its CSC, bit for bit, weight
        /// lanes included, one share without a pool and one per worker on
        /// 1, 2 and 8 threads, at 4 and 8 lanes: lists sorted by pair and by
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
            let want4 = VectorSparse::<4>::encode(&csc, None);
            let want8 = VectorSparse::<8>::encode(&csc, None);
            let pools = [1, 2, 8].map(ThreadPool::single_group);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let at = format!("{:?} threads", pool.map(ThreadPool::num_threads));
                let sorted = SourceSorted::new(&el, pool).expect("sorted by source");
                let in_index = sorted.in_index();
                prop_assert_eq!(&in_index[..], csc.index(), "{}", at);
                let got4 = VectorSparse::<4>::encode_transposed(&sorted, in_index, pool);
                let got8 = VectorSparse::<8>::encode_transposed(&sorted, in_index, pool);
                prop_assert!(got4.bit_identical(&want4), "{}", at);
                prop_assert!(got8.bit_identical(&want8), "{}", at);
                check_against_csr(&got4, &csc)?;
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
            let vs = VectorSparse::<4>::from_csr(&csr);
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

        /// Wide-lane builds are equally lossless (8 and 16 lanes).
        #[test]
        fn prop_roundtrip_wide_lanes(
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..300),
        ) {
            let mut el = EdgeList::from_pairs(48, &edges).unwrap();
            el.sort_and_dedup();
            let csr = Csr::from_edgelist_by_src(&el);
            let vs8 = VectorSparse::<8>::from_csr(&csr);
            let vs16 = VectorSparse::<16>::from_csr(&csr);
            for (label, expanded) in [("8", vs8.expand_edges()), ("16", vs16.expand_edges())] {
                let mut expanded = expanded;
                expanded.sort_unstable();
                prop_assert_eq!(&expanded[..], el.edges(), "{} lanes", label);
            }
            // Wider lanes never need more vectors.
            let vs4 = VectorSparse::<4>::from_csr(&csr);
            prop_assert!(vs8.num_vectors() <= vs4.num_vectors());
            prop_assert!(vs16.num_vectors() <= vs8.num_vectors());
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
            let vs = VectorSparse::<4>::from_csr(&csr);
            let analytic = crate::packing::packing_efficiency(&csr.degrees(), 4);
            prop_assert!((vs.packing_efficiency() - analytic).abs() < 1e-12);
        }
    }
}
