//! The Vector-Sparse edge structure: vector array + per-vertex index.

use crate::format::VERTEX_MASK;
use crate::vector::EdgeVector;
use grazelle_graph::csr::Csr;
use grazelle_graph::partition::partition_index;
use grazelle_graph::types::VertexId;
use grazelle_sched::alloc::WorkerFilled;
use grazelle_sched::ThreadPool;
use std::sync::OnceLock;

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
#[derive(Debug, Clone)]
pub struct VectorSparse<const N: usize = 4> {
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
    /// [`degrees`](VectorSparse::degrees), counted on first use. A function
    /// of `vectors` and `index` alone, so `bit_identical` ignores it too.
    degrees: OnceLock<Vec<u32>>,
}

/// Vector-Sparse-Destination with the paper's 4-lane (256-bit) vectors.
pub type Vsd = VectorSparse<4>;
/// Vector-Sparse-Source with the paper's 4-lane (256-bit) vectors.
pub type Vss = VectorSparse<4>;

impl<const N: usize> VectorSparse<N> {
    /// Builds the structure from one Compressed-Sparse orientation. Each
    /// top-level vertex's edges are padded to a multiple of `N` lanes;
    /// degree-0 vertices occupy no vectors.
    pub fn from_csr(csr: &Csr) -> Self {
        let n = csr.num_vertices();
        assert!(
            (n as u64) <= VERTEX_MASK,
            "vertex ids must fit the 48-bit fields"
        );
        let mut index = Vec::with_capacity(n + 1);
        index.push(0u64);
        let mut num_vectors = 0u64;
        for v in 0..n {
            let deg = csr.degree(v as VertexId) as u64;
            num_vectors += deg.div_ceil(N as u64);
            index.push(num_vectors);
        }
        let mut vectors = Vec::with_capacity(num_vectors as usize);
        let mut weights = csr
            .weights()
            .map(|_| Vec::with_capacity(num_vectors as usize));
        let mut lane_buf = [0u64; N];
        for v in 0..n {
            let nbrs = csr.neighbors(v as VertexId);
            let ws = csr.neighbor_weights(v as VertexId);
            for (ci, chunk) in nbrs.chunks(N).enumerate() {
                for (i, &nb) in chunk.iter().enumerate() {
                    lane_buf[i] = nb as u64;
                }
                vectors.push(EdgeVector::new(v as u64, &lane_buf[..chunk.len()]));
                if let (Some(wout), Some(win)) = (&mut weights, ws) {
                    let mut weight_buf = [0.0f64; N];
                    let start = ci * N;
                    weight_buf[..chunk.len()].copy_from_slice(&win[start..start + chunk.len()]);
                    wout.push(weight_buf);
                }
            }
        }
        VectorSparse {
            vectors,
            weights,
            index,
            num_vertices: n,
            num_edges: csr.num_edges(),
            mean_weight: OnceLock::new(),
            degrees: OnceLock::new(),
        }
    }

    /// Parallel [`VectorSparse::from_csr`] on a [`ThreadPool`], bit-identical
    /// to the sequential build.
    ///
    /// The vertex index is a prefix sum over `ceil(deg/N)`, so every vertex's
    /// vector output range is known up front and ranges are disjoint. Workers
    /// therefore pack contiguous vertex partitions (balanced by vector count
    /// via [`partition_index`]) straight into their ranges of the output
    /// arrays — lane fill, TLV piece distribution, and weight-lane zero
    /// padding all happen inside [`EdgeVector::new`] / the per-chunk copy
    /// exactly as in the sequential path, so outputs match bit for bit. The
    /// arrays are [`WorkerFilled`]: nothing writes them before the workers
    /// do, so their pages are faulted in once, on the workers.
    pub fn from_csr_parallel(csr: &Csr, pool: &ThreadPool) -> Self {
        let t = pool.num_threads();
        if t == 1 {
            return Self::from_csr(csr);
        }
        let n = csr.num_vertices();
        assert!(
            (n as u64) <= VERTEX_MASK,
            "vertex ids must fit the 48-bit fields"
        );
        let index = crate::packing::vector_index(&csr.degrees(), N);
        let num_vectors = *index.last().expect("vector index is never empty") as usize;
        let parts = partition_index(&index, t);
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
        pool.run_tasks(tasks, |_, ((part, mut vout), mut wout)| {
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
        let vectors = vectors.into_vec();
        let weights = weights.map(WorkerFilled::into_vec);
        let built = VectorSparse {
            vectors,
            weights,
            index,
            num_vertices: n,
            num_edges: csr.num_edges(),
            mean_weight: OnceLock::new(),
            degrees: OnceLock::new(),
        };
        debug_assert!(
            built.bit_identical(&Self::from_csr(csr)),
            "parallel Vector-Sparse build diverged from sequential"
        );
        built
    }

    /// True when `self` and `other` are bit-for-bit the same structure.
    /// Weight lanes are compared by bit pattern, so NaN payloads count too.
    pub fn bit_identical(&self, other: &Self) -> bool {
        let weights_eq = match (&self.weights, &other.weights) {
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
        self.vectors == other.vectors
            && self.index == other.index
            && self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && weights_eq
    }

    /// Number of top-level vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (valid) edges represented.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of edge vectors, including padding lanes.
    #[inline]
    pub fn num_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// The flat vector array.
    #[inline]
    pub fn vectors(&self) -> &[EdgeVector<N>] {
        &self.vectors
    }

    /// Per-vector weight lanes, if the graph is weighted.
    #[inline]
    pub fn weight_vectors(&self) -> Option<&[[f64; N]]> {
        self.weights.as_deref()
    }

    /// Mean edge weight; `None` for an unweighted or edgeless structure.
    /// One pass over the weight lanes on the first call (padding lanes hold
    /// 0.0 and add nothing), O(1) after it; the lane-wise partial sums are
    /// taken in layout order, so equal structures report equal bits.
    pub fn mean_weight(&self) -> Option<f64> {
        *self.mean_weight.get_or_init(|| {
            let weights = self.weights.as_ref().filter(|_| self.num_edges > 0)?;
            let mut lanes = [0.0f64; N];
            for w in weights {
                for (sum, x) in lanes.iter_mut().zip(w) {
                    *sum += x;
                }
            }
            Some(lanes.iter().sum::<f64>() / self.num_edges as f64)
        })
    }

    /// Valid lanes per top-level vertex: out-degrees over a VSS, in-degrees
    /// over a VSD. One O(V) pass on the first call — every vector of a
    /// vertex but its last is full by construction, so the index and the
    /// last vector's valid count decide it — and a shared slice after it:
    /// the direction model's per-superstep frontier cost reads this table
    /// from every run on the structure.
    pub fn degrees(&self) -> &[u32] {
        self.degrees.get_or_init(|| {
            self.index
                .windows(2)
                .map(|w| match (w[1] - w[0]) as usize {
                    0 => 0,
                    len => {
                        let last = &self.vectors[w[1] as usize - 1];
                        ((len - 1) * N) as u32 + last.count_valid()
                    }
                })
                .collect()
        })
    }

    /// The vertex index (length `num_vertices + 1`).
    #[inline]
    pub fn index(&self) -> &[u64] {
        &self.index
    }

    /// Vector range owned by top-level vertex `v` (used for frontier checks;
    /// the streaming inner loop never needs it).
    #[inline]
    pub fn vector_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.index[v as usize] as usize..self.index[v as usize + 1] as usize
    }

    /// Iterates `(top_level_vertex, &vector, vector_position)` over the
    /// whole edge array in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &EdgeVector<N>, usize)> + '_ {
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (v.top_level_vertex(), v, i))
    }

    /// Expands the structure back to `(tlv, neighbor)` edge pairs — the
    /// inverse of construction, used by tests and format converters.
    pub fn expand_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for v in &self.vectors {
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
        if self.vectors.is_empty() {
            return 1.0;
        }
        self.num_edges as f64 / (self.vectors.len() * N) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Built once: later calls and other readers see the same table.
        assert!(std::ptr::eq(vs.degrees(), vs.degrees()));
        // Not part of the structure's identity.
        assert!(vs.bit_identical(&VectorSparse::<4>::from_csr(&csr)));
        let pool = ThreadPool::single_group(3);
        let par = VectorSparse::<4>::from_csr_parallel(&csr, &pool);
        assert_eq!(par.degrees(), csr.degrees());
        assert!(VectorSparse::<4>::from_csr(&csr_of(0, &[]))
            .degrees()
            .is_empty());
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
