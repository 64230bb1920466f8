//! Profiled build driver for the load → CSR/CSC → Vector-Sparse pipeline.
//!
//! [`prepare_profiled`] runs the same three structure-building phases as
//! `Graph::from_edgelist` + `PreparedGraph::new`, but on a [`ThreadPool`]
//! and with an [`Instant`] read around each phase, returning a
//! [`BuildProfile`] alongside the structures. On a one-thread pool every
//! phase takes its sequential path, so the profile doubles as the
//! sequential baseline for the `build-throughput` experiment. Parse time
//! and input bytes are the caller's to stamp — only the caller knows
//! whether the edge list came from a file, a generator, or a wire.

use crate::engine::PreparedGraph;
use crate::stats::BuildProfile;
use grazelle_graph::csr::Csr;
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::GraphError;
use grazelle_sched::ThreadPool;
use std::time::Instant;

/// Default edge count below which the whole pipeline takes the sequential
/// path even on a multi-thread pool. Below this size the parallel counting
/// sort's fixed costs (per-worker histogram allocation, the broadcast
/// handshakes) outweigh the work split — measured at ~0.86× versus
/// sequential at 2 threads on small inputs — while well above it the
/// parallel path wins cleanly. 64Ki edges puts the crossover comfortably
/// on the winning side at every pool width we ship.
pub const PAR_BUILD_CUTOVER_EDGES: u64 = 64 * 1024;

/// Builds both CSR orientations and both Vector-Sparse structures from an
/// edge list on `pool`, timing each phase. Bit-identical to the sequential
/// `Graph::from_edgelist` + `PreparedGraph::new` path at any thread count.
///
/// Inputs smaller than [`PAR_BUILD_CUTOVER_EDGES`] take the sequential
/// path regardless of pool width (see
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

/// [`prepare_profiled`] with an explicit sequential/parallel cutover:
/// inputs with fewer than `cutover_edges` edges build sequentially even on
/// a multi-thread pool (0 disables the cutover, always taking the
/// pool-width path — what the `build-throughput` experiment uses so each
/// arm measures the parallel pipeline itself).
pub fn prepare_profiled_with_cutover(
    el: &EdgeList,
    pool: &ThreadPool,
    cutover_edges: u64,
) -> Result<(Graph, PreparedGraph, BuildProfile), GraphError> {
    if el.num_vertices() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    // Four edge-scale structures are about to be allocated; an edge list
    // that came from a generator or the wire has not been through a loader.
    grazelle_sched::alloc::pin_large_block_policy();
    // The *_parallel builders fall back to the sequential code on a
    // one-thread pool, so both sides of the cutover share one code path;
    // the cutover only decides which width the phases run at.
    let parallel = pool.num_threads() > 1 && el.num_edges() as u64 >= cutover_edges;
    let mut profile = BuildProfile {
        edges: el.num_edges() as u64,
        threads: if parallel { pool.num_threads() } else { 1 },
        par_cutover: cutover_edges,
        ..BuildProfile::default()
    };

    // Both builders return neighbour-sorted lists.
    let t = Instant::now();
    let out = if parallel {
        Csr::from_edgelist_by_src_parallel(el, pool)
    } else {
        Csr::from_edgelist_by_src(el)
    };
    profile.csr_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let inn = if parallel {
        Csr::from_edgelist_by_dst_parallel(el, pool)
    } else {
        Csr::from_edgelist_by_dst(el)
    };
    profile.csc_ns = t.elapsed().as_nanos() as u64;

    let g = Graph::from_orientations(out, inn, "")?;

    let t = Instant::now();
    let pg = if parallel {
        PreparedGraph::new_on_pool(&g, pool)
    } else {
        PreparedGraph::new(&g)
    };
    profile.vsparse_ns = t.elapsed().as_nanos() as u64;

    Ok((g, pg, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The size-adaptive cutover: a small input on a wide pool builds
    /// sequentially (and says so in the profile), a threshold of 0 forces
    /// the parallel path, and both sides stay bit-identical to the plain
    /// sequential build.
    #[test]
    fn small_inputs_cut_over_to_the_sequential_path() {
        let el = EdgeList::from_pairs(
            32,
            &(0..32u32)
                .flat_map(|s| (0..(s % 5)).map(move |k| (s, (s + k + 1) % 32)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let plain_g = Graph::from_edgelist(&el).unwrap();
        let plain_pg = PreparedGraph::new(&plain_g);
        let pool = ThreadPool::single_group(4);

        // Default threshold: far above this input, so the build is
        // sequential despite the 4-thread pool.
        let (g, pg, profile) = prepare_profiled(&el, &pool).unwrap();
        assert_eq!(
            profile.threads, 1,
            "small input must take the sequential path"
        );
        assert_eq!(profile.par_cutover, PAR_BUILD_CUTOVER_EDGES);
        assert_eq!(g.out_csr(), plain_g.out_csr());
        assert!(pg.vsd.bit_identical(&plain_pg.vsd));

        // Threshold 0: the same input builds at pool width, bit-identical.
        let (g2, pg2, profile2) = prepare_profiled_with_cutover(&el, &pool, 0).unwrap();
        assert_eq!(profile2.threads, 4);
        assert_eq!(g2.out_csr(), plain_g.out_csr());
        assert!(pg2.vsd.bit_identical(&plain_pg.vsd));
        assert!(pg2.vss.bit_identical(&plain_pg.vss));
    }

    /// `edges` over `n` vertices, weighted if `weights` holds a seed (four
    /// values in turn, so repeated pairs carry equal and different ones),
    /// in the order `shape` names: by (source, destination), by source
    /// only, reverse, in two sorted halves (by source, then by pair), or as
    /// generated.
    fn shaped(n: usize, edges: Vec<(u32, u32)>, weights: &[u8], shape: u8) -> EdgeList {
        let mut list: Vec<((u32, u32), f64)> = edges
            .into_iter()
            .enumerate()
            .map(|(i, (s, d))| {
                let w = weights.first().map_or(0, |&w| usize::from(w) + i);
                ((s % n as u32, d % n as u32), (w % 4) as f64)
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

        /// `prepare_profiled` (pool width and sequential side of the
        /// cutover, 1/2/8 threads) builds exactly what the plain
        /// `Graph::from_edgelist` + `PreparedGraph::new` does, on sorted,
        /// source-sorted, reverse, half-sorted and unsorted lists with
        /// repeated pairs, weighted and not, edgeless and single-vertex
        /// ones included.
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
                    let bits = |g: &Graph| -> Vec<Vec<u64>> {
                        [g.out_csr(), g.in_csr()]
                            .iter()
                            .map(|c| c.weights().unwrap_or(&[]).iter().map(|w| w.to_bits()).collect())
                            .collect()
                    };
                    proptest::prop_assert_eq!(g.out_csr(), plain_g.out_csr());
                    proptest::prop_assert_eq!(g.in_csr(), plain_g.in_csr());
                    proptest::prop_assert_eq!(bits(&g), bits(&plain_g));
                    proptest::prop_assert!(pg.vsd.bit_identical(&plain_pg.vsd), "{} threads", threads);
                    proptest::prop_assert!(pg.vss.bit_identical(&plain_pg.vss), "{} threads", threads);
                }
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
}
