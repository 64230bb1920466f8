//! Invariants of the scheduler-aware interface — the paper's §3 claims,
//! checked mechanically rather than by timing:
//!
//! 1. zero synchronized updates in scheduler-aware mode;
//! 2. shared-memory write traffic bounded by |V| + #chunks (vs per-vector
//!    traffic for the traditional interface);
//! 3. results identical across any chunk granularity and thread count;
//! 4. the merge buffer is exercised (chunk-boundary vertices) whenever
//!    chunks split vertices.

use grazelle::core::config::{EngineConfig, Granularity, PullMode};
use grazelle::core::engine::hybrid::run_program_on_pool;
use grazelle::core::engine::PreparedGraph;
use grazelle::graph::edgelist::EdgeList;
use grazelle::prelude::*;
use grazelle_apps::pagerank::{self, PageRank};
use grazelle_sched::pool::ThreadPool;
use proptest::prelude::*;

fn standin() -> (Graph, PreparedGraph) {
    let g = Dataset::Uk2007.build_scaled(-6); // most skewed: hubs span chunks
    let pg = PreparedGraph::new(&g);
    (g, pg)
}

#[test]
fn scheduler_aware_never_synchronizes() {
    let (g, pg) = standin();
    let pool = ThreadPool::single_group(4);
    for gran in [10usize, 100, 1000] {
        let cfg = EngineConfig::new()
            .with_threads(4)
            .with_granularity(Granularity::VectorsPerChunk(gran))
            .with_max_iterations(3);
        let prog = PageRank::new(&g, pagerank::DAMPING);
        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(stats.profile.atomic_updates, 0, "granularity {gran}");
        assert_eq!(stats.profile.nonatomic_updates, 0, "granularity {gran}");
    }
}

#[test]
fn write_traffic_is_bounded_by_vertices_plus_chunks() {
    let (g, pg) = standin();
    let pool = ThreadPool::single_group(4);
    let iters = 3u64;
    let gran = 50usize;
    let chunks = pg.vsd.num_vectors().div_ceil(gran);
    let cfg = EngineConfig::new()
        .with_threads(4)
        .with_granularity(Granularity::VectorsPerChunk(gran))
        .with_max_iterations(iters as usize);
    let prog = PageRank::new(&g, pagerank::DAMPING);
    let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
    let per_iter_writes = (stats.profile.direct_stores + stats.profile.merge_entries) / iters;
    assert!(
        per_iter_writes <= (g.num_vertices() + chunks) as u64,
        "writes/iter {per_iter_writes} exceeds |V|+chunks {}",
        g.num_vertices() + chunks
    );
    // And the traditional interface pays per *vector*:
    let cfg_t = cfg.with_pull_mode(PullMode::Traditional);
    let prog_t = PageRank::new(&g, pagerank::DAMPING);
    let stats_t = run_program_on_pool(&pg, &prog_t, &cfg_t, &pool);
    let trad_per_iter = stats_t.profile.atomic_updates / iters;
    assert!(
        trad_per_iter > per_iter_writes,
        "traditional {trad_per_iter} should exceed scheduler-aware {per_iter_writes}"
    );
}

#[test]
fn merge_buffer_handles_hub_spanning_chunks() {
    // One hub with in-degree 8192 and chunk size 8 vectors: the hub's 1024
    // eight-lane vectors span ~128 chunks, all but one contributing via
    // merge entries.
    let n = 8300;
    let mut el = EdgeList::new(n);
    for s in 1..=8192u32 {
        el.push(s, 0).unwrap();
    }
    el.push(0, 8299).unwrap(); // give the hub an out-edge too
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    let pool = ThreadPool::single_group(4);
    let cfg = EngineConfig::new()
        .with_threads(4)
        .with_granularity(Granularity::VectorsPerChunk(8))
        .with_max_iterations(1);
    let prog = PageRank::new(&g, pagerank::DAMPING);
    let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
    assert!(
        stats.profile.merge_entries >= 100,
        "expected many merge entries for the spanning hub, got {}",
        stats.profile.merge_entries
    );
    // The hub's rank must equal the exact sum of all 8192 contributions.
    let want = pagerank::reference(&g, pagerank::DAMPING, 1);
    let got = prog.ranks();
    assert!(
        (got[0] - want[0]).abs() < 1e-12,
        "hub rank {} vs reference {}",
        got[0],
        want[0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// PageRank output is invariant (to floating-point re-association,
    /// which chunk grouping legitimately changes) across granularities and
    /// thread counts in scheduler-aware mode.
    #[test]
    fn prop_results_invariant_under_chunking(
        gran in 1usize..64,
        threads in 1usize..5,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..250),
    ) {
        let mut el = EdgeList::from_pairs(40, &edges).unwrap();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);

        let run = |gran: usize, threads: usize| {
            let pool = ThreadPool::single_group(threads);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_granularity(Granularity::VectorsPerChunk(gran))
                .with_max_iterations(4);
            let prog = PageRank::new(&g, pagerank::DAMPING);
            run_program_on_pool(&pg, &prog, &cfg, &pool);
            prog.ranks()
        };
        let baseline = run(1, 1);
        let variant = run(gran, threads);
        for (v, (a, b)) in baseline.iter().zip(&variant).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-12,
                "vertex {}: {} vs {} (gran {}, threads {})", v, a, b, gran, threads
            );
        }
    }
}
