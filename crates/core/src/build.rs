//! Profiled build driver for the load → CSR/CSC → Vector-Sparse pipeline.
//!
//! [`prepare_profiled`] builds the structures `Graph::from_edgelist` +
//! `PreparedGraph::new` build, in three phases (out-edges, in-edges,
//! Vector-Sparse), but on a [`ThreadPool`], with an [`Instant`] read
//! around each phase, and leaving every orientation it can to its first
//! reader, returning a [`BuildProfile`] alongside the structures. Each
//! phase is the one builder of its structure; on a one-thread pool, or
//! below the cutover ([`build_pool`]), it runs as one share on the
//! calling thread, so the profile doubles as the one-thread baseline for
//! the `build-throughput` experiment. Parse time and input bytes are the
//! caller's to stamp — only the caller knows whether the edge list came
//! from a file, a generator, or a wire.

use crate::engine::PreparedGraph;
use crate::stats::BuildProfile;
use grazelle_graph::csr::{Grouped, SourceSorted};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::{EdgeId, GraphError, MAX_VSPARSE_VERTEX};
use grazelle_sched::{build_pool, ThreadPool, PAR_BUILD_CUTOVER_EDGES};
use grazelle_vsparse::build::Vsd;
use std::sync::Arc;
use std::time::Instant;

/// Builds the graph and the prepared graph from an edge list on `pool`,
/// timing each phase. Bit-identical to `Graph::from_edgelist` +
/// `PreparedGraph::new` at any thread count, with orientations and push
/// structure deferred as the list allows. One route for every list:
///
/// 1. `csr_ns`: group the edges by source — the list itself when its
///    sources never decrease ([`SourceSorted::new`], the one pass that
///    counts its out-index and in-index), else the counting-sort CSR.
/// 2. `csc_ns`: the in-index — counted already for a sorted list (≈ 0),
///    counted over the CSR otherwise.
/// 3. `vsparse_ns`: the VSD, encoded straight from the grouping
///    ([`Vsd::encode_transposed`]), then the proof of symmetry against it
///    (equal indexes, and every valid lane and weight bit equal to the
///    grouped edges,
///    [`encodes_sorted`](grazelle_vsparse::build::VectorSparse::encodes_sorted)).
///
/// A sorted list leaves no CSR or CSC behind ([`Graph::from_source`]):
/// a symmetric graph's one orientation, a directed graph's two, wait for
/// their first reader, which rebuilds them from the VSD. An unsorted list
/// keeps its CSR as the out-edges ([`Graph::from_checked`]), serving the
/// in-edges too when the graph is symmetric, its in-edges otherwise
/// waiting for their first reader. A symmetric graph's VSS is its VSD,
/// shared; a directed graph's waits for the first run that can push.
///
/// Inputs smaller than [`PAR_BUILD_CUTOVER_EDGES`] build on the calling
/// thread regardless of pool width (see
/// [`prepare_profiled_with_cutover`] to override the threshold); the
/// profile's `threads` field reports the width actually used and
/// `par_cutover` the threshold in effect.
///
/// The returned profile has `csr_ns`, `csc_ns`, `vsparse_ns`, `edges`,
/// `threads`, and `par_cutover` filled in; `parse_ns` and `input_bytes`
/// stay zero for the caller to set.
pub fn prepare_profiled(
    el: &EdgeList,
    pool: &ThreadPool,
) -> Result<(Graph, PreparedGraph, BuildProfile), GraphError> {
    prepare_profiled_with_cutover(el, pool, PAR_BUILD_CUTOVER_EDGES)
}

/// [`prepare_profiled`] with an explicit cutover: inputs with fewer than
/// `cutover_edges` edges build on the calling thread even on a
/// multi-thread pool (0 disables the cutover, always building at pool
/// width — what the `build-throughput` experiment uses so each arm
/// measures the pool path itself).
pub fn prepare_profiled_with_cutover(
    el: &EdgeList,
    pool: &ThreadPool,
    cutover_edges: u64,
) -> Result<(Graph, PreparedGraph, BuildProfile), GraphError> {
    if el.num_vertices() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let limit = MAX_VSPARSE_VERTEX + 1;
    if el.num_vertices() as u64 > limit {
        return Err(GraphError::TooManyVertices {
            vertices: el.num_vertices() as u64,
            limit,
        });
    }
    // Edge-scale structures are about to be allocated; an edge list
    // that came from a generator or the wire has not been through a loader.
    grazelle_sched::alloc::pin_large_block_policy();
    let pool = build_pool(pool, el.num_edges(), cutover_edges);
    let mut profile = BuildProfile {
        edges: el.num_edges() as u64,
        threads: pool.map_or(1, ThreadPool::num_threads),
        par_cutover: cutover_edges,
        ..BuildProfile::default()
    };

    let t = Instant::now();
    let grouped = SourceSorted::new(el, pool);
    profile.csr_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let in_index = match &grouped {
        Ok(list) => Arc::clone(list.in_index()),
        Err(out) => out.transposed_index(pool),
    };
    profile.csc_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let (g, vsd) = match grouped {
        Ok(list) => {
            let (vsd, symmetric) = encode(&list, list.index(), &in_index, pool);
            let source = Arc::new(vsd.clone());
            let out_index = Arc::clone(list.index());
            let g = Graph::from_source(out_index, in_index, source, symmetric);
            (g, vsd)
        }
        Err(out) => {
            let (vsd, symmetric) = encode(&out, out.index(), &in_index, pool);
            (Graph::from_checked(out, in_index, symmetric), vsd)
        }
    };
    let pg = PreparedGraph::with_vsd(&g, vsd);
    profile.vsparse_ns = t.elapsed().as_nanos() as u64;

    Ok((g, pg, profile))
}

/// The VSD of the edges `grouped` holds by source over `out_index`, whose
/// in-index is `in_index`, and whether the graph is symmetric: its indexes
/// equal and the VSD's lanes its sorted out-lists.
fn encode(
    grouped: &impl Grouped,
    out_index: &[EdgeId],
    in_index: &Arc<Vec<EdgeId>>,
    pool: Option<&ThreadPool>,
) -> (Vsd, bool) {
    let vsd = Vsd::encode_transposed(grouped, in_index, pool);
    let symmetric = out_index == &in_index[..] && vsd.encodes_sorted(grouped, out_index, pool);
    (vsd, symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::VersionedGraph;
    use grazelle_graph::delta::UpdateBatch;
    use grazelle_vsparse::build::VectorSparse;

    #[test]
    fn profiled_build_matches_plain_build() {
        let el = EdgeList::from_pairs(
            16,
            &(0..16u32)
                .flat_map(|s| (0..(s % 4)).map(move |k| (s, (s + k + 3) % 16)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let plain_g = Graph::from_edgelist(&el).unwrap();
        let plain_pg = PreparedGraph::new(&plain_g);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::single_group(threads);
            // Cutover disabled: every arm exercises the pool-width path.
            let (g, pg, profile) = prepare_profiled_with_cutover(&el, &pool, 0).unwrap();
            assert_eq!(g.out_csr(), plain_g.out_csr(), "{threads} threads");
            assert_eq!(g.in_csr(), plain_g.in_csr(), "{threads} threads");
            assert!(pg.vsd.bit_identical(&plain_pg.vsd), "{threads} threads");
            assert!(pg.vss.bit_identical(&plain_pg.vss), "{threads} threads");
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.par_cutover, 0);
            assert_eq!(profile.edges, el.num_edges() as u64);
            assert_eq!(profile.parse_ns, 0);
            assert_eq!(profile.input_bytes, 0);
        }
    }

    /// `plain` and a built `g`, `pg` hold the same structures, bit for bit.
    fn assert_same(g: &Graph, pg: &PreparedGraph, plain: &(Graph, PreparedGraph), ctx: &str) {
        assert!(g.out_csr().bit_identical(plain.0.out_csr()), "{ctx}: CSR");
        assert!(g.in_csr().bit_identical(plain.0.in_csr()), "{ctx}: CSC");
        assert!(pg.vsd.bit_identical(&plain.1.vsd), "{ctx}: VSD");
        assert!(pg.vss.bit_identical(&plain.1.vss), "{ctx}: VSS");
    }

    fn plain_build(el: &EdgeList) -> (Graph, PreparedGraph) {
        let g = Graph::from_edgelist(el).unwrap();
        let pg = PreparedGraph::new(&g);
        (g, pg)
    }

    /// `m` distinct pairs over 512 vertices, none on the ring `v -> v + 1`,
    /// in a scrambled order (so both orientations take the counting sort).
    fn off_ring_pairs(m: usize) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = (0..512u32)
            .flat_map(|s| (0..512u32).map(move |d| (s, d)))
            .filter(|&(s, d)| d != (s + 1) % 512)
            .take(m)
            .collect();
        let len = pairs.len();
        for i in 0..len {
            pairs.swap(i, (i * 7919 + 13) % len);
        }
        pairs
    }

    /// The size-adaptive cutover: one edge below [`PAR_BUILD_CUTOVER_EDGES`]
    /// a wide pool builds on the calling thread, at it the build takes the
    /// pool's width (and says so in the profile), a threshold of 0 forces
    /// the pool on a small input, and an overlay refresh that crosses the
    /// cutover splices on the pool — every side bit-identical to the plain
    /// build.
    #[test]
    fn small_inputs_cut_over_to_the_sequential_path() {
        let small = EdgeList::from_pairs(
            32,
            &(0..32u32)
                .flat_map(|s| (0..(s % 5)).map(move |k| (s, (s + k + 1) % 32)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let cut = PAR_BUILD_CUTOVER_EDGES as usize;
        let below = EdgeList::from_pairs(512, &off_ring_pairs(cut - 1)).unwrap();
        let at = EdgeList::from_pairs(512, &off_ring_pairs(cut)).unwrap();
        let plain = [&small, &below, &at].map(plain_build);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            for (el, plain, width) in [(&below, &plain[1], 1), (&at, &plain[2], threads)] {
                let (g, pg, profile) = prepare_profiled(el, &pool).unwrap();
                let ctx = format!("{} edges, {threads} threads", el.num_edges());
                assert_eq!(profile.threads, width, "{ctx}");
                assert_eq!(profile.par_cutover, PAR_BUILD_CUTOVER_EDGES);
                assert_same(&g, &pg, plain, &ctx);
            }
            // Threshold 0: the small input builds at pool width.
            let (g, pg, profile) = prepare_profiled_with_cutover(&small, &pool, 0).unwrap();
            assert_eq!(profile.threads, threads);
            assert_same(&g, &pg, &plain[0], "small input, cutover 0");

            // An overlay one edge short of the cutover, then one at it.
            let ring: Vec<(u32, u32)> = (0..512u32).map(|v| (v, (v + 1) % 512)).collect();
            let base = Graph::from_edgelist(&EdgeList::from_pairs(512, &ring).unwrap()).unwrap();
            let mut vg = VersionedGraph::from_graph(base).with_merge_fraction(f64::INFINITY);
            let inserts = off_ring_pairs(cut);
            for batch in [&inserts[..cut - 1], &inserts[cut - 1..]] {
                let report = vg
                    .apply_batch(&UpdateBatch::from_inserts(batch), &pool)
                    .unwrap();
                assert!(!report.merged);
            }
            let view = vg.view(&pool);
            let (g, pg) = (view.delta_graph.unwrap(), view.delta_pg.unwrap());
            let ctx = format!("overlay refresh across the cutover, {threads} threads");
            assert_same(g, pg, &plain[2], &ctx);
        }
    }

    /// `edges` over `n` vertices, weighted if `weights` holds a seed (four
    /// values in turn — a NaN and a negative zero among them — so repeated
    /// pairs carry equal and different ones),
    /// in the order `shape` names: by (source, destination), by source
    /// only, reverse, in two sorted halves (by source, then by pair), or as
    /// generated.
    fn shaped(n: usize, edges: Vec<(u32, u32)>, weights: &[u8], shape: u8) -> EdgeList {
        let mut list: Vec<((u32, u32), f64)> = edges
            .into_iter()
            .enumerate()
            .map(|(i, (s, d))| {
                let w = weights.first().map_or(0, |&w| usize::from(w) + i);
                (
                    (s % n as u32, d % n as u32),
                    [1.0, f64::NAN, -0.0, 3.0][w % 4],
                )
            })
            .collect();
        match shape {
            0 => list.sort_by_key(|&(p, _)| p),
            1 => list.sort_by_key(|&((s, _), _)| s),
            2 => list.sort_by_key(|&(p, _)| std::cmp::Reverse(p)),
            3 => {
                let half = list.len() / 2;
                list[..half].sort_by_key(|&((s, _), _)| s);
                list[half..].sort_by_key(|&(p, _)| p);
            }
            _ => {}
        }
        let (pairs, ws): (Vec<_>, Vec<_>) = list.into_iter().unzip();
        EdgeList::from_parts(n, pairs, (!weights.is_empty()).then_some(ws)).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `prepare_profiled` (pool side and calling-thread side of the
        /// cutover, 1/2/8 threads) builds exactly what the plain
        /// `Graph::from_edgelist` + `PreparedGraph::new` does, on sorted,
        /// source-sorted, reverse, half-sorted and unsorted lists with
        /// repeated pairs, weighted and not, edgeless and single-vertex
        /// ones included. A directed graph's VSS comes out deferred and,
        /// read on the calling thread or readied on the pool, equals the
        /// eager encoding at that width, bit for bit. A list sorted by
        /// source leaves no orientation built; any other leaves its CSR,
        /// and a directed graph's CSC waits. Preparing the graph again
        /// hands back the VSD its orientations wait on, and otherwise
        /// encodes the same one.
        #[test]
        fn prop_prepare_profiled_matches_the_plain_build(
            n in 1usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..300),
            weights in proptest::collection::vec(0u8..255, 0..2),
            shape in 0u8..5,
        ) {
            let el = shaped(n, edges, &weights, shape);
            let plain_g = Graph::from_edgelist(&el).unwrap();
            let plain_pg = PreparedGraph::new(&plain_g);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                for cutover in [0, PAR_BUILD_CUTOVER_EDGES] {
                    let (g, pg, _) = prepare_profiled_with_cutover(&el, &pool, cutover).unwrap();
                    let symmetric = plain_g.is_symmetric();
                    let by_source = el.edges().windows(2).all(|w| w[0].0 <= w[1].0);
                    proptest::prop_assert_eq!(g.is_symmetric(), symmetric);
                    proptest::prop_assert_eq!(g.in_edges_deferred(), !symmetric);
                    proptest::prop_assert_eq!(g.out_edges_deferred(), by_source);
                    proptest::prop_assert_eq!(g.built_out_csr().is_none(), by_source);
                    proptest::prop_assert_eq!(g.built_in_csr().is_none(), by_source || !symmetric);
                    // Prepared again, with no orientation built yet.
                    let again = PreparedGraph::build(&g, Some(&pool));
                    proptest::prop_assert!(again.vsd.bit_identical(&plain_pg.vsd));
                    let shared = std::ptr::eq(again.vsd.vectors(), pg.vsd.vectors());
                    proptest::prop_assert_eq!(shared, by_source);
                    proptest::prop_assert!(g.out_csr().bit_identical(plain_g.out_csr()));
                    proptest::prop_assert!(g.in_csr().bit_identical(plain_g.in_csr()));
                    proptest::prop_assert!(pg.vsd.bit_identical(&plain_pg.vsd), "{} threads", threads);
                    proptest::prop_assert_eq!(pg.vss.is_encoded(), g.is_symmetric());
                    // Readied on the set-up's pool (under its own cutover),
                    // or read on the calling thread, against the eager
                    // encoding at the set-up's width.
                    let width = build_pool(&pool, el.num_edges(), cutover);
                    let vss = match cutover {
                        0 => pg.vss.ready(width),
                        _ => &*pg.vss,
                    };
                    proptest::prop_assert!(vss.bit_identical(&VectorSparse::encode(g.out_csr(), width)));
                    proptest::prop_assert!(pg.vss.bit_identical(&plain_pg.vss), "{} threads", threads);
                }
            }
        }
    }

    /// Each kind of list the one set-up route tells apart, over `n`
    /// vertices from the pairs `base`: symmetric (every pair both ways,
    /// at one weight), directed (`base` as is), equal degree sequences but
    /// asymmetric (symmetric plus the directed cycle over every vertex),
    /// and symmetric edges plus one mirrored pair whose two weights
    /// differ: by value, by the sign of a zero, or by a NaN payload.
    /// Weighted or not, in the order `order` names: by pair, by source
    /// only, or shuffled. Also whether the graph must come out symmetric,
    /// where the kind decides it.
    fn kind_list(
        n: usize,
        base: &[(u32, u32)],
        kind: u8,
        order: u8,
        weighted: bool,
    ) -> (EdgeList, Option<bool>) {
        let clamp = |v: u32| v % n as u32;
        // No +0.0 and no NaN with a payload: the mirrored pairs' second
        // weights appear nowhere else.
        let pool = [1.0, f64::NAN, -0.0, 3.0, 0.5];
        let mut list: Vec<((u32, u32), f64)> = Vec::new();
        for &(s, d) in base {
            // One weight per unordered pair, so parallel edges carry equal
            // ones and their order cannot tell the two ways apart.
            let (s, d) = (clamp(s), clamp(d));
            let w = pool[(s + d + s * d) as usize % pool.len()];
            list.push(((s, d), w));
            if kind != 1 {
                list.push(((d, s), w));
            }
        }
        let last = n as u32 - 1;
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let mirrored = [(7.0, 8.0), (0.0, -0.0), (f64::NAN, payload)];
        let symmetric = match kind {
            0 => Some(true),
            1 => None,
            2 => {
                list.extend((0..n as u32).map(|v| ((v, (v + 1) % n as u32), 2.0)));
                // Over two vertices the cycle is a mirrored pair, whose
                // weight may sit apart from the pair's others either way.
                (n != 2 || !weighted).then_some(n < 3)
            }
            _ => {
                let (there, back) = mirrored[usize::from(kind - 3)];
                list.extend([((0, last), there), ((last, 0), back)]);
                Some(!weighted || n < 2)
            }
        };
        // A fixed shuffle, then the order asked for.
        let len = list.len();
        for i in 0..len {
            list.swap(i, (i * 7919 + 13) % len);
        }
        match order {
            0 => list.sort_by_key(|&(p, _)| p),
            1 => list.sort_by_key(|&((s, _), _)| s),
            _ => {}
        }
        let (pairs, ws): (Vec<_>, Vec<_>) = list.into_iter().unzip();
        let el = EdgeList::from_parts(n, pairs, weighted.then_some(ws)).unwrap();
        (el, symmetric)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The one set-up route against `Graph::from_edgelist` +
        /// `PreparedGraph::new`, at 1, 2 and 8 threads, on lists sorted by
        /// pair, by source only and not at all, of every kind
        /// [`kind_list`] makes, weighted and not: CSR, CSC, VSD and VSS
        /// bit-identical and `is_symmetric` the same (and what the kind
        /// decides). A list sorted by source holds no CSR or CSC after
        /// set-up, a symmetric graph builds one structure for both
        /// orientations, and preparing the graph again shares the one VSD.
        #[test]
        fn prop_the_one_route_proves_symmetry_against_the_vsd(
            n in 1usize..20,
            base in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            kind in 0u8..6,
            order in 0u8..3,
            weighted in proptest::prelude::any::<bool>(),
        ) {
            let (el, symmetric) = kind_list(n, &base, kind, order, weighted);
            let by_source = el.edges().windows(2).all(|w| w[0].0 <= w[1].0);
            let plain = plain_build(&el);
            if let Some(symmetric) = symmetric {
                proptest::prop_assert_eq!(plain.0.is_symmetric(), symmetric, "kind {}", kind);
            }
            for threads in [1, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                let (g, pg, _) = prepare_profiled_with_cutover(&el, &pool, 0).unwrap();
                let ctx = format!("kind {kind}, order {order}, {threads} threads");
                proptest::prop_assert_eq!(g.is_symmetric(), plain.0.is_symmetric(), "{}", ctx);
                proptest::prop_assert_eq!(g.built_out_csr().is_none(), by_source, "{}", ctx);
                if by_source {
                    proptest::prop_assert!(g.built_in_csr().is_none(), "{}", ctx);
                }
                let again = PreparedGraph::build(&g, Some(&pool));
                proptest::prop_assert_eq!(
                    std::ptr::eq(again.vsd.vectors(), pg.vsd.vectors()),
                    by_source,
                    "{}", ctx
                );
                assert_same(&g, &pg, &plain, &ctx);
                proptest::prop_assert_eq!(
                    std::ptr::eq(g.out_csr(), g.in_csr()),
                    g.is_symmetric(),
                    "{}", ctx
                );
            }
        }
    }

    #[test]
    fn empty_vertex_set_rejected() {
        let pool = ThreadPool::single_group(2);
        assert!(matches!(
            prepare_profiled(&EdgeList::new(0), &pool),
            Err(GraphError::EmptyGraph)
        ));
    }

    /// One vertex past what the lanes' 27-bit vertex field can name is a
    /// typed error naming the count and the limit, returned before any
    /// structure is allocated (the list itself holds no per-vertex array).
    #[test]
    fn a_vertex_count_past_the_lane_field_is_refused() {
        let pool = ThreadPool::single_group(2);
        let n = (1usize << 27) + 1;
        let mut el = EdgeList::new(n);
        el.push(0, n as u32 - 1).unwrap();
        let err = prepare_profiled(&el, &pool).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooManyVertices {
                vertices: n as u64,
                limit: 1 << 27,
            }
        );
        assert!(err.to_string().contains("134217729 vertices"), "{err}");
        assert!(err.to_string().contains("limit of 134217728"), "{err}");
    }
}
