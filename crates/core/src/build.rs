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

    let t = Instant::now();
    let mut out = if parallel {
        Csr::from_edgelist_by_src_parallel(el, pool)
    } else {
        Csr::from_edgelist_by_src(el)
    };
    if parallel {
        out.sort_neighbors_parallel(pool);
    } else {
        out.sort_neighbors();
    }
    profile.csr_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let mut inn = if parallel {
        Csr::from_edgelist_by_dst_parallel(el, pool)
    } else {
        Csr::from_edgelist_by_dst(el)
    };
    if parallel {
        inn.sort_neighbors_parallel(pool);
    } else {
        inn.sort_neighbors();
    }
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

    #[test]
    fn empty_vertex_set_rejected() {
        let pool = ThreadPool::single_group(2);
        assert!(matches!(
            prepare_profiled(&EdgeList::new(0), &pool),
            Err(GraphError::EmptyGraph)
        ));
    }
}
