//! Edge-case regression suite: degenerate and boundary-shaped inputs that
//! historically break engines — the empty graph, a single vertex, graphs
//! with no edges at all, self-loops, and vertex counts and degrees
//! straddling the 4-lane vector width and its multiples. Every driver
//! (pull, push, hybrid, resilient) and the single-phase 4-lane Edge-Pull
//! must handle each shape and agree with the sequential references.

use grazelle::core::config::{EngineConfig, Granularity, ResilienceConfig};
use grazelle::core::engine::hybrid::{run_program_on_pool, EngineKind};
use grazelle::core::engine::pull::{edge_pull, EdgeSchedulers};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::program::AggOp;
use grazelle::core::properties::PropertyArray;
use grazelle::core::spmv::program_kernel;
use grazelle::core::stats::Profiler;
use grazelle::core::{
    run_resilient_on_pool, GraphProgram, PullMode, ResilienceContext, RunOutcome,
};
use grazelle::graph::edgelist::EdgeList;
use grazelle::prelude::*;
use grazelle_apps::{bfs, cc, labelprop, triangle, Bfs, ConnectedComponents, LabelProp};
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::simd::Kernels;
use proptest::prelude::*;

fn graph_from(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut el = EdgeList::from_pairs(n, pairs).unwrap();
    el.symmetrize();
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// BFS and CC fixed points hold ∞/identity at unreachable vertices, which
/// the divergence guard would misread on these mostly-disconnected shapes.
fn no_guard() -> ResilienceConfig {
    ResilienceConfig {
        divergence_guard: false,
        ..ResilienceConfig::new()
    }
}

/// Runs CC, label propagation, and triangle counting (always) and BFS
/// (when the graph has a vertex for the root) through every driver and
/// checks the references.
fn check_every_engine(g: &Graph, label: &str) {
    let n = g.num_vertices();
    let pg = PreparedGraph::new(g);
    let want_cc = cc::reference_undirected(g);
    let want_lp = labelprop::reference(g);
    let want_tc = triangle::reference(g);
    let configs = [
        ("pull", Some(EngineKind::Pull)),
        // The bucketed atomic-free scatter (DESIGN.md §17) must survive the
        // degenerate shapes: empty frontiers after the first superstep on
        // isolated vertices, single-hub stars, lane-straddling counts.
        ("push", Some(EngineKind::Push)),
        ("hybrid", None),
    ];
    for threads in [1usize, 2] {
        let pool = ThreadPool::single_group(threads);
        for (cname, kind) in configs {
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_force_engine(kind);
            let prog = ConnectedComponents::new(n);
            run_program_on_pool(&pg, &prog, &cfg, &pool);
            assert_eq!(prog.labels(), want_cc, "{label}/{cname}x{threads}: CC");
            let prog = LabelProp::new(g);
            run_program_on_pool(&pg, &prog, &cfg, &pool);
            assert_eq!(prog.labels(), want_lp, "{label}/{cname}x{threads}: LP");
            assert_eq!(
                triangle::counts_prepared(g, &pg, &cfg, &pool),
                want_tc,
                "{label}/{cname}x{threads}: TC"
            );
            if n > 0 {
                let root = 0u32;
                let prog = Bfs::new(n, root);
                run_program_on_pool(&pg, &prog, &cfg, &pool);
                assert_eq!(
                    bfs::validate_parents(g, root, &prog.parents()),
                    bfs::reference_depths(g, root),
                    "{label}/{cname}x{threads}: BFS"
                );
            }
        }
        // The resilient driver must come back clean on the same shapes.
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_resilience(no_guard());
        let prog = ConnectedComponents::new(n);
        let run = run_resilient_on_pool(&pg, &prog, &cfg, &ResilienceContext::new(), &pool)
            .unwrap_or_else(|e| panic!("{label}/resilient-x{threads}: {e:?}"));
        assert_eq!(
            run.outcome,
            RunOutcome::Clean,
            "{label}/resilient-x{threads}"
        );
        assert_eq!(prog.labels(), want_cc, "{label}/resilient-x{threads}: CC");
        let prog = LabelProp::new(g);
        run_resilient_on_pool(&pg, &prog, &cfg, &ResilienceContext::new(), &pool)
            .unwrap_or_else(|e| panic!("{label}/resilient-lp-x{threads}: {e:?}"));
        assert_eq!(prog.labels(), want_lp, "{label}/resilient-x{threads}: LP");
        let got = triangle::counts_resilient(g, &pg, &cfg, &ResilienceContext::new(), &pool)
            .unwrap_or_else(|e| panic!("{label}/resilient-tc-x{threads}: {e:?}"));
        assert_eq!(got, want_tc, "{label}/resilient-x{threads}: TC");
    }
}

#[test]
fn empty_graph_is_rejected_at_construction() {
    // The zero-vertex graph is rejected up front with a typed error —
    // engines never see it. Pin that contract so a silent acceptance
    // (and the downstream div-by-zero frontier densities) can't sneak in.
    use grazelle::graph::types::GraphError;
    let el = EdgeList::new(0);
    assert!(matches!(
        Graph::from_edgelist(&el),
        Err(GraphError::EmptyGraph)
    ));
}

#[test]
fn single_vertex_no_edges() {
    check_every_engine(&graph_from(1, &[]), "single-vertex");
}

#[test]
fn single_vertex_self_loop() {
    check_every_engine(&graph_from(1, &[(0, 0)]), "single-vertex-loop");
}

#[test]
fn all_vertices_isolated() {
    check_every_engine(&graph_from(37, &[]), "all-isolated");
}

#[test]
fn self_loops_everywhere() {
    // Every vertex carries a self-loop; a sparse chain connects a few.
    let mut pairs: Vec<(u32, u32)> = (0..19u32).map(|v| (v, v)).collect();
    pairs.extend([(0, 1), (1, 2), (5, 6)]);
    check_every_engine(&graph_from(19, &pairs), "self-loops");
}

#[test]
fn clique_straddling_lane_widths() {
    // Complete graphs on both sides of one and two 4-lane vectors per
    // destination: the densest possible intersections, every vertex in
    // C(n−1, 2) triangles.
    for n in [3usize, 5, 9, 17] {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
            .collect();
        let g = graph_from(n, &pairs);
        let want = (n * (n - 1) * (n - 2) / 6) as u64;
        assert_eq!(triangle::reference(&g).total, want, "K{n} reference");
        check_every_engine(&g, &format!("clique-n={n}"));
    }
}

#[test]
fn stars_have_no_triangles() {
    // A star is triangle-free no matter how many leaves; the hub's huge
    // adjacency still intersects every leaf's singleton list to nothing.
    for leaves in [1usize, 7, 31, 64] {
        let pairs: Vec<(u32, u32)> = (1..=leaves as u32).map(|v| (0, v)).collect();
        let g = graph_from(leaves + 1, &pairs);
        assert_eq!(triangle::reference(&g).total, 0, "star-{leaves}");
        check_every_engine(&g, &format!("star-{leaves}"));
    }
}

#[test]
fn complete_bipartite_graphs_have_no_triangles() {
    // K_{a,b} is triangle-free (odd cycles need an odd part); the dense
    // cross-adjacency exercises long intersections that must all miss.
    for (a, b) in [(2usize, 3usize), (4, 4), (3, 9)] {
        let pairs: Vec<(u32, u32)> = (0..a as u32)
            .flat_map(|u| (a as u32..(a + b) as u32).map(move |v| (u, v)))
            .collect();
        let g = graph_from(a + b, &pairs);
        assert_eq!(triangle::reference(&g).total, 0, "K{a},{b}");
        check_every_engine(&g, &format!("bipartite-{a}x{b}"));
    }
}

#[test]
fn vertex_counts_straddle_lane_widths() {
    // Not a multiple of the 4-lane width, on both sides of one, two and
    // more vectors, including a high-degree hub that spans many vectors.
    for n in [2usize, 3, 5, 7, 9, 15, 17, 63, 65] {
        let pairs: Vec<(u32, u32)> = (1..n as u32).flat_map(|v| [(v, 0), (v, v - 1)]).collect();
        check_every_engine(&graph_from(n, &pairs), &format!("n={n}"));
    }
}

#[test]
fn spa_scatter_spans_multiple_destination_chunks() {
    // Every other shape in this suite fits inside one 2048-vertex SPA
    // destination chunk, so the radix partition and the chunk-parallel
    // merge are degenerate there. A 5000-vertex chain with a hub spans
    // three chunks and forces cross-chunk bucketing; forced push must
    // still reach the references' fixed points exactly.
    let n = 5000usize;
    let mut pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    pairs.extend((1..n as u32).step_by(7).map(|v| (0, v)));
    let g = graph_from(n, &pairs);
    let pg = PreparedGraph::new(&g);
    let want_cc = cc::reference_undirected(&g);
    let want_bfs = bfs::reference_depths(&g, 0);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_force_engine(Some(EngineKind::Push));
        let prog = ConnectedComponents::new(n);
        run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(prog.labels(), want_cc, "multi-chunk-spa-x{threads}: CC");
        let prog = Bfs::new(n, 0);
        run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(
            bfs::validate_parents(&g, 0, &prog.parents()),
            want_bfs,
            "multi-chunk-spa-x{threads}: BFS"
        );
    }
}

/// A frontier-masked fold program for single-phase pull checks: dyadic
/// values, so `Sum` is exact in any association order and every driver must
/// agree with the reference bit for bit.
struct FoldProg {
    op: AggOp,
    vals: PropertyArray,
    acc: PropertyArray,
}

impl FoldProg {
    fn new(n: usize, op: AggOp) -> Self {
        let vals = PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, ((v * 7) % 11) as f64 * 1.25 + 0.5);
        }
        FoldProg {
            op,
            vals,
            acc: PropertyArray::new(n),
        }
    }
}

impl GraphProgram for FoldProg {
    fn num_vertices(&self) -> usize {
        self.vals.len()
    }
    fn op(&self) -> AggOp {
        self.op
    }
    fn edge_values(&self) -> &PropertyArray {
        &self.vals
    }
    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }
    fn apply(&self, _v: u32) -> bool {
        false
    }
    fn uses_frontier(&self) -> bool {
        true
    }
}

/// One Edge-Pull phase of the chunk-fused kernel through the plain,
/// resilient, compacted and degraded-scalar drivers, at both SIMD levels,
/// over chunkings from one chunk to one vector per chunk — against a
/// per-vertex fold of the in-neighbors.
fn check_fused_pull(g: &Graph, label: &str) {
    use grazelle::core::engine::pull::{active_vector_list, Containment, PullStatus};
    use grazelle::core::faults::{ExecFaultPlan, ExecInjector};
    use grazelle_vsparse::simd::{detect, SimdLevel};

    let n = g.num_vertices();
    let vsd = VectorSparse::from_csr(g.in_csr());
    let vss = VectorSparse::from_csr(g.out_csr());
    let nv = vsd.num_vectors();
    let pool = ThreadPool::single_group(2);
    let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
    let frontiers = [Frontier::all(n), Frontier::from_vertices(n, &evens)];
    for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
        for frontier in &frontiers {
            let prog = FoldProg::new(n, op);
            let want: Vec<u64> = (0..n as u32)
                .map(|v| {
                    g.in_neighbors(v)
                        .iter()
                        .filter(|&&s| frontier.contains(s))
                        .fold(op.identity(), |a, &s| {
                            op.combine(a, prog.vals.get_f64(s as usize))
                        })
                        .to_bits()
                })
                .collect();
            let check = |arm: &str| {
                assert_eq!(
                    prog.acc.to_vec_u64(),
                    want,
                    "{label}/{op:?}/{frontier:?}: {arm}"
                );
                prog.acc.fill_f64(op.identity());
            };
            prog.acc.fill_f64(op.identity());
            for level in [SimdLevel::Scalar, detect()] {
                let kern = program_kernel(&prog, &vsd, Kernels::with_level(level));
                for chunks in [1, 2, 3, nv.max(1)] {
                    let arm = format!("{level:?} x{chunks}");
                    let scheds = EdgeSchedulers::single(nv, chunks);
                    let mut merge = SlotBuffer::new(scheds.total_chunks());
                    let prof = Profiler::new();
                    edge_pull(
                        &vsd,
                        &kern,
                        frontier,
                        &pool,
                        &scheds,
                        None,
                        &mut merge,
                        PullMode::SchedulerAware,
                        None,
                        &prof,
                    );
                    check(&format!("plain {arm}"));

                    // Resilient: clean, then with chunk 0 failing past the
                    // retry budget, which degrades to the scalar pass.
                    for (fail, want_status) in [
                        (false, PullStatus::Completed),
                        (nv > 0, PullStatus::Degraded),
                    ] {
                        let plan = if fail {
                            ExecFaultPlan::clean().with_chunk_panic(0, 0, 10)
                        } else {
                            ExecFaultPlan::clean()
                        };
                        let inj = ExecInjector::new(plan);
                        inj.set_iteration(0);
                        scheds.reset();
                        let status = edge_pull(
                            &vsd,
                            &kern,
                            frontier,
                            &pool,
                            &scheds,
                            None,
                            &mut merge,
                            PullMode::SchedulerAware,
                            Some(&Containment {
                                deadline: None,
                                max_chunk_retries: 1,
                                injector: Some(&inj),
                            }),
                            &Profiler::new(),
                        );
                        if fail {
                            assert_eq!(status, want_status, "{label}: {arm}");
                        }
                        check(&format!("resilient {arm} fail={fail}"));
                    }
                    scheds.reset();
                }
                let active = active_vector_list(&vsd, &vss, frontier, None);
                for per_chunk in [1usize, 3, 1 << 20] {
                    let cfg = EngineConfig::new()
                        .with_threads(2)
                        .with_granularity(Granularity::VectorsPerChunk(per_chunk));
                    let mut merge = SlotBuffer::new(1);
                    edge_pull(
                        &vsd,
                        &kern,
                        frontier,
                        &pool,
                        &EdgeSchedulers::compact(&cfg, active.total_vectors(), &pool),
                        Some(&active),
                        &mut merge,
                        PullMode::SchedulerAware,
                        None,
                        &Profiler::new(),
                    );
                    check(&format!("compact {level:?} /{per_chunk}"));
                }
            }
        }
    }
}

#[test]
fn fused_pull_kernel_handles_degenerate_shapes() {
    let directed = |n: usize, pairs: &[(u32, u32)]| {
        Graph::from_edgelist(&EdgeList::from_pairs(n, pairs).unwrap()).unwrap()
    };
    check_fused_pull(&directed(5, &[]), "edgeless");
    check_fused_pull(&directed(1, &[]), "single-vertex");
    check_fused_pull(&directed(1, &[(0, 0)]), "single-vertex-loop");
    check_fused_pull(&directed(3, &[(0, 0), (1, 1), (2, 1)]), "self-loops");

    // In-degrees on both sides of the lane width: 3, 4, 5, 8 and 9 sources
    // for destinations 0..5, so runs end on full, one-short and one-over
    // vectors back to back.
    let mut pairs = Vec::new();
    for (dst, deg) in [3u32, 4, 5, 8, 9].into_iter().enumerate() {
        pairs.extend((0..deg).map(|s| (12 - s, dst as u32)));
    }
    check_fused_pull(&directed(13, &pairs), "lane-straddling-degrees");

    // A 41-source hub between two light destinations: every chunking above
    // one chunk cuts the hub's 11-vector run, so its aggregate is assembled
    // from a chunk's trailing partial, whole-chunk partials and a resumed
    // head through the merge buffer.
    let mut pairs = vec![(5, 0), (6, 0)];
    pairs.extend((2..43).map(|s| (s, 1)));
    pairs.extend([(0, 2), (1, 2), (7, 2)]);
    check_fused_pull(&directed(43, &pairs), "hub-straddles-chunks");
}

/// A chain, a 3000-leaf fan-out, a fan-in, and another chain: BFS/SSSP
/// from vertex 0 run ~200 one-vertex supersteps, two supersteps whose
/// touched lists (3000 entries each, the second all duplicates of one
/// destination) are far past V/4, then ~200 one-vertex supersteps again.
fn chain_fan_chain() -> (Graph, usize) {
    let (hub, first_leaf, sink, n) = (199u32, 200u32, 3200u32, 3400usize);
    let mut el = EdgeList::new(n);
    let mut link = |a: u32, b: u32| {
        let w = ((a as u64 * 31 + b as u64) % 8 + 1) as f64 / 4.0;
        el.push_weighted(a, b, w).unwrap();
        el.push_weighted(b, a, w).unwrap();
    };
    for v in 0..hub {
        link(v, v + 1);
    }
    for leaf in first_leaf..sink {
        link(hub, leaf);
        link(leaf, sink);
    }
    for v in sink..n as u32 - 1 {
        link(v, v + 1);
    }
    (Graph::from_edgelist(&el).unwrap(), n)
}

/// Switch-over cases of the sparse Vertex phase (DESIGN.md §18), pinned on
/// a shape that forces each one, with the trace checked superstep by
/// superstep: the touched list crossing the dense fallback and coming back,
/// clean accumulators lost to the dense sweep and regained, and the empty
/// touched list of the final superstep. Forced push keeps BFS and SSSP on
/// supersteps; the default configuration drains every bucket of this shape
/// in place instead, to the same bits and, for BFS, the same iteration
/// count.
#[test]
fn sparse_vertex_phase_switch_overs() {
    use grazelle_apps::{sssp, Sssp};
    let (g, n) = chain_fan_chain();
    let pg = PreparedGraph::new(&g);
    let want_bfs = bfs::reference_depths(&g, 0);
    let want_sssp = sssp::reference(&g, 0);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let drained = EngineConfig::new().with_threads(threads).with_trace(true);
        let prog = Sssp::new(n, 0);
        let stats = run_program_on_pool(&pg, &prog, &drained, &pool);
        assert_eq!(prog.distances(), want_sssp, "drained x{threads}: SSSP");
        assert_eq!(stats.profile.drained_buckets, stats.iterations as u64);
        let prog = Bfs::new(n, 0);
        let drained_bfs = run_program_on_pool(&pg, &prog, &drained, &pool);
        assert_eq!(
            prog.parents(),
            bfs::reference_parents(&g, 0),
            "drained x{threads}"
        );
        assert!(drained_bfs
            .records
            .iter()
            .all(|r| r.drained && r.vertex_touched == 0));
        let tag = format!("push x{threads}");
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_force_engine(Some(EngineKind::Push))
            .with_trace(true);
        let prog = Sssp::new(n, 0);
        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(prog.distances(), want_sssp, "{tag}: SSSP");
        assert!(
            stats.profile.acc_resets_skipped > 300,
            "{tag}: SSSP chains go sparse"
        );

        let prog = Bfs::new(n, 0);
        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(
            bfs::validate_parents(&g, 0, &prog.parents()),
            want_bfs,
            "{tag}: BFS"
        );
        let recs = &stats.records;
        assert_eq!(recs.len(), stats.iterations);
        assert_eq!(
            stats.iterations, drained_bfs.iterations,
            "{tag}: one per level"
        );
        assert_eq!(stats.profile.drained_buckets, 0, "{tag}");
        // Supersteps 0..199 walk the first chain, 199 fans out, 200 fans
        // in, 201.. walk the second chain.
        assert!(!recs[0].acc_reset_skipped, "{tag}: first superstep resets");
        for r in &recs[1..199] {
            assert!(
                r.acc_reset_skipped && r.vertex_touched > 0,
                "{tag}: chain step {}",
                r.iteration
            );
        }
        for fan in [199usize, 200] {
            let r = &recs[fan];
            assert_eq!(r.vertex_touched, 0, "{tag}: superstep {fan} falls back");
            assert_eq!(r.engine, EngineKind::Push, "{tag}");
            assert_eq!(r.spa_bucket_entries, 3000, "{tag}");
        }
        assert!(
            recs[199].acc_reset_skipped,
            "{tag}: 198 left the accumulators clean"
        );
        assert!(
            !recs[200].acc_reset_skipped,
            "{tag}: dense Vertex phase dirtied them"
        );
        assert!(
            !recs[201].acc_reset_skipped,
            "{tag}: still dirty from the dense sweep"
        );
        // From here every push fits the sparse phase, so every later
        // superstep finds clean accumulators.
        for r in &recs[201..] {
            assert_eq!(r.engine, EngineKind::Push, "{tag}");
            assert!(r.vertex_touched > 0 || r.spa_bucket_entries == 0, "{tag}");
        }
        assert!(
            recs[202..].iter().all(|r| r.acc_reset_skipped),
            "{tag}: clean accumulators regained"
        );
        // Final superstep: the last chain vertex has only a visited
        // neighbour, so the SPA push buckets nothing and the sparse phase
        // walks an empty list.
        let last = recs.last().unwrap();
        assert_eq!(
            (last.spa_bucket_entries, last.vertex_touched),
            (0, 0),
            "{tag}"
        );
        assert!(!stats.hit_iteration_cap, "{tag}");
    }
}

/// A non-empty delta overlay folds extra messages into the accumulators
/// after the base phase — destinations the SPA touched list does not hold —
/// so it must disable the sparse Vertex phase for the run; an overlay with
/// no edges must not.
#[test]
fn delta_overlay_disables_the_sparse_vertex_phase() {
    use grazelle::core::engine::hybrid::run_program_overlay_on_pool;
    let n = 1000usize;
    let chain: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let base = graph_from(n, &chain);
    let shortcut = graph_from(n, &[(0, 600)]);
    let nothing = graph_from(n, &[]);
    let mut merged_pairs = chain.clone();
    merged_pairs.push((0, 600));
    let merged = graph_from(n, &merged_pairs);
    let (pg, dpg, epg) = (
        PreparedGraph::new(&base),
        PreparedGraph::new(&shortcut),
        PreparedGraph::new(&nothing),
    );
    for threads in [1usize, 2] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new().with_threads(threads).with_trace(true);

        let prog = Bfs::new(n, 0);
        let stats = run_program_overlay_on_pool(&pg, Some(&dpg), &prog, &cfg, &pool);
        assert_eq!(
            bfs::validate_parents(&merged, 0, &prog.parents()),
            bfs::reference_depths(&merged, 0),
            "x{threads}: overlay BFS sees the shortcut"
        );
        assert!(
            stats.push_iterations > 100,
            "x{threads}: the chain still pushes"
        );
        for r in &stats.records {
            assert_eq!(r.vertex_touched, 0, "x{threads} iteration {}", r.iteration);
            assert!(!r.acc_reset_skipped, "x{threads} iteration {}", r.iteration);
        }

        let prog = Bfs::new(n, 0);
        let stats = run_program_overlay_on_pool(&pg, Some(&epg), &prog, &cfg, &pool);
        assert_eq!(
            bfs::validate_parents(&base, 0, &prog.parents()),
            bfs::reference_depths(&base, 0),
            "x{threads}: empty overlay"
        );
        assert!(
            stats.profile.acc_resets_skipped > 900,
            "x{threads}: an edgeless overlay leaves the sparse path on"
        );
    }
}

/// The default cap of 1000 supersteps silently truncated BFS on any graph
/// of larger diameter. Both drivers now report it.
#[test]
fn iteration_cap_is_reported_by_both_drivers() {
    let n = 1500usize;
    let chain: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let g = graph_from(n, &chain);
    let pg = PreparedGraph::new(&g);
    let pool = ThreadPool::single_group(2);
    let capped = EngineConfig::new()
        .with_threads(2)
        .with_resilience(no_guard());
    assert_eq!(
        capped.max_iterations, 1000,
        "the default this test is about"
    );
    let lifted = capped.with_max_iterations(n + 1);

    let visited = |prog: &Bfs| prog.parents().iter().filter(|p| p.is_some()).count();
    let prog = Bfs::new(n, 0);
    let stats = run_program_on_pool(&pg, &prog, &capped, &pool);
    assert!(stats.hit_iteration_cap);
    assert_eq!(
        (stats.iterations, visited(&prog)),
        (1000, 1001),
        "truncated"
    );
    let prog = Bfs::new(n, 0);
    let run = run_resilient_on_pool(&pg, &prog, &capped, &ResilienceContext::new(), &pool).unwrap();
    assert!(run.stats.hit_iteration_cap);
    assert_eq!(visited(&prog), 1001);

    let prog = Bfs::new(n, 0);
    let stats = run_program_on_pool(&pg, &prog, &lifted, &pool);
    assert!(!stats.hit_iteration_cap);
    assert_eq!(visited(&prog), n);
    let prog = Bfs::new(n, 0);
    let run = run_resilient_on_pool(&pg, &prog, &lifted, &ResilienceContext::new(), &pool).unwrap();
    assert!(!run.stats.hit_iteration_cap);
    assert_eq!(visited(&prog), n);
}

fn weighted_graph(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut el = EdgeList::new(n);
    for &(s, d, w) in edges {
        el.push_weighted(s, d, w).unwrap();
    }
    Graph::from_edgelist(&el).unwrap()
}

/// SSSP from `root` at 1, 2 and 8 threads — drained in place (the
/// default) and on forced-push supersteps — checked against Dijkstra;
/// iteration counts and engine choices must not depend on the thread
/// count, and the default drains every bucket of these small graphs.
/// Returns the 2-thread forced-push run's traced stats.
fn sssp_on_every_arm(
    g: &Graph,
    root: u32,
    cap: usize,
    label: &str,
) -> grazelle::core::engine::hybrid::ExecutionStats {
    use grazelle_apps::{sssp, Sssp};
    let pg = PreparedGraph::new(g);
    let want = sssp::reference(g, root);
    let mut kept = None;
    let arms = [("drained", None), ("push", Some(EngineKind::Push))];
    for (arm, forced) in arms {
        let mut first: Option<(usize, Vec<EngineKind>)> = None;
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(cap)
                .with_force_engine(forced)
                .with_trace(true);
            let prog = Sssp::new(g.num_vertices(), root);
            let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
            let tag = format!("{label}/{arm}x{threads}");
            if !stats.hit_iteration_cap {
                assert_eq!(prog.distances(), want, "{tag}");
            }
            let shape = (stats.iterations, stats.engine_trace.clone());
            assert_eq!(&shape, first.get_or_insert(shape.clone()), "{tag}");
            let drained = if arm == "drained" {
                stats.profile.bucket_steps
            } else {
                0
            };
            assert_eq!(stats.profile.drained_buckets, drained, "{tag}");
            if arm == "push" && threads == 2 {
                kept = Some(stats);
            }
        }
    }
    kept.expect("the 2-thread push arm ran")
}

/// Degenerate inputs of the priority schedule (DESIGN.md §18): each must
/// end, on Dijkstra's distances, whether or not the schedule can run.
#[test]
fn priority_schedule_degenerate_weights() {
    // A zero-weight cycle beside real weights: the cycle's vertices keep
    // re-filing into the bucket being drained, which never advances on
    // their account — and must still empty.
    let g = weighted_graph(
        6,
        &[
            (0, 1, 0.0),
            (1, 2, 0.0),
            (2, 0, 0.0),
            (2, 3, 4.0),
            (3, 4, 0.0),
            (4, 3, 0.0),
            (4, 5, 2.0),
        ],
    );
    let stats = sssp_on_every_arm(&g, 0, 100, "zero-weight cycle");
    assert!(!stats.hit_iteration_cap);
    assert_eq!(stats.profile.bucket_steps, stats.iterations as u64);

    // Nothing but zero weights: a zero mean sizes no bucket, so the run
    // keeps the label-correcting schedule.
    let g = weighted_graph(4, &[(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 0, 0.0)]);
    let stats = sssp_on_every_arm(&g, 0, 100, "all zero");
    assert!(!stats.hit_iteration_cap);
    assert_eq!(stats.profile.bucket_steps, 0, "zero mean: schedule off");

    // All-equal weights: distance is 2.5 × depth, a bucket is 8 levels.
    let ring: Vec<(u32, u32, f64)> = (0..40u32).map(|v| (v, (v + 1) % 40, 2.5)).collect();
    let stats = sssp_on_every_arm(&weighted_graph(40, &ring), 7, 100, "equal weights");
    assert_eq!(stats.iterations, 40);
    let buckets: Vec<u32> = stats.records.iter().filter_map(|r| r.bucket).collect();
    assert_eq!(buckets.len(), 40, "every superstep is scheduled");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    assert_eq!((buckets[0], buckets[39]), (0, 4));

    // An isolated root has nothing to send: one superstep, nothing waiting.
    let g = weighted_graph(3, &[(1, 2, 1.0)]);
    let stats = sssp_on_every_arm(&g, 0, 100, "isolated root");
    assert_eq!((stats.iterations, stats.hit_iteration_cap), (1, false));
    assert_eq!(stats.records[0].held_back, 0);

    // One enormous weight drags the mean — and the bucket width — up with
    // it (an index is at most E / 8, so only the queue's own unit test can
    // saturate one): every light edge lands in bucket 0.
    let mut edges: Vec<(u32, u32, f64)> = (0..30u32).map(|v| (v, v + 1, 0.125)).collect();
    edges.push((0, 31, f64::MAX / 4.0));
    edges.push((31, 30, 1.0));
    let stats = sssp_on_every_arm(&weighted_graph(32, &edges), 0, 100, "huge weight");
    assert!(!stats.hit_iteration_cap);
    let last = stats.records.last().unwrap();
    assert_eq!(last.bucket, Some(4), "31 waits alone in bucket E/8 = 4");
    assert!(stats.records[1..30].iter().all(|r| r.held_back == 1));

    // Weights whose sum overflows have no usable mean: schedule off, and
    // `MAX + MAX` is no distance, for Dijkstra and the engine alike.
    let g = weighted_graph(3, &[(0, 1, f64::MAX), (1, 2, f64::MAX)]);
    let stats = sssp_on_every_arm(&g, 0, 100, "overflowing mean");
    assert_eq!(stats.profile.bucket_steps, 0);
}

/// The in-place drain hands a bucket that outgrows its cutoff back to
/// supersteps and takes the tail again. BFS and SSSP start from a leaf of a
/// 80 000-leaf star whose last leaf starts a 100-vertex chain: the hub's
/// bucket (10 000 eight-lane out-vectors) and the leaves' (≈80 000) are past
/// the cutoff of any pool wider than one thread (8192 vectors at two threads),
/// so they run as supersteps, while the first leaf and the chain drain. At
/// one thread every bucket drains. Results match the references at every
/// width, and BFS runs one iteration per level either way.
#[test]
fn the_drain_hands_wide_buckets_to_supersteps_and_takes_the_tail_back() {
    use grazelle_apps::{sssp, Sssp};
    let (leaves, chain) = (80_000u32, 100u32);
    let n = (1 + leaves + chain) as usize;
    let mut el = EdgeList::new(n);
    let mut link = |a: u32, b: u32| {
        el.push_weighted(a, b, 1.0).unwrap();
        el.push_weighted(b, a, 1.0).unwrap();
    };
    for leaf in 1..=leaves {
        link(0, leaf);
    }
    for v in leaves..leaves + chain {
        link(v, v + 1);
    }
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    let root = 1u32;
    let want_parents = bfs::reference_parents(&g, root);
    let want_dists = sssp::reference(&g, root);
    let mut bfs_iterations = None;
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_max_iterations(n + 1)
            .with_trace(true);
        let prog = Bfs::new(n, root);
        let bfs_stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(prog.parents(), want_parents, "x{threads}: BFS");
        assert_eq!(
            bfs_stats.iterations,
            *bfs_iterations.get_or_insert(bfs_stats.iterations),
            "x{threads}: one iteration per level"
        );
        let prog = Sssp::new(n, root);
        let sssp_stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
        assert_eq!(prog.distances(), want_dists, "x{threads}: SSSP");
        for (app, stats) in [("bfs", &bfs_stats), ("sssp", &sssp_stats)] {
            let drained: Vec<bool> = stats.records.iter().map(|r| r.drained).collect();
            let tag = format!("{app} x{threads}: {drained:?}");
            assert_eq!(stats.records.len(), stats.iterations, "{tag}");
            if threads == 1 {
                assert!(drained.iter().all(|&d| d), "{tag}");
                continue;
            }
            // Drained, then the hub's and the leaves' supersteps, then
            // drained to the end of the chain.
            let handed_back = drained.iter().position(|&d| !d).expect("a superstep ran");
            let took_back = handed_back + 2;
            assert!(handed_back >= 1, "{tag}");
            assert!(!drained[handed_back + 1], "{tag}");
            assert!(drained[took_back..].iter().all(|&d| d), "{tag}");
            assert!(drained.len() - took_back >= chain as usize - 1, "{tag}");
            for r in &stats.records[handed_back..took_back] {
                assert_eq!((r.drain_messages, r.drain_applies), (0, 0), "{tag}");
                assert!(r.updates > 0, "{tag}: the superstep did the sending");
            }
        }
    }
}

/// An unweighted structure cannot run SSSP at all; the schedule's look at
/// the mean weight must not get in before the kernel's own refusal.
#[test]
#[should_panic(expected = "edge function needs weights")]
fn sssp_on_an_unweighted_structure_is_still_refused() {
    let g = graph_from(3, &[(0, 1), (1, 2)]);
    let pg = PreparedGraph::new(&g);
    assert_eq!(pg.vss.mean_weight(), None);
    let cfg = EngineConfig::new().with_threads(1);
    grazelle_apps::sssp::run_prepared(&pg, &cfg, &ThreadPool::single_group(1), 0);
}

/// A bucket wider than V/4: the root's 3000-leaf fan-out overflows the
/// sparse Vertex phase, so the dense sweep runs and the schedule bins from
/// its bitmap — 2700 light leaves drained as a bitmap frontier, 300 heavy
/// ones held back until their bucket comes up.
#[test]
fn priority_schedule_bins_from_the_bitmap_after_a_dense_vertex_phase() {
    let (leaves, sink) = (3000u32, 3001u32);
    let mut edges = Vec::new();
    for leaf in 1..=leaves {
        let w = if leaf % 10 == 0 { 100.0 } else { 1.0 };
        edges.push((0, leaf, w));
        edges.push((leaf, sink, 1.0));
    }
    let g = weighted_graph(3002, &edges);
    let stats = sssp_on_every_arm(&g, 0, 100, "fan");
    assert!(!stats.hit_iteration_cap);
    let recs = &stats.records;
    assert_eq!((recs[0].bucket, recs[0].held_back), (Some(0), 0));
    assert_eq!(
        recs[0].vertex_touched, 0,
        "3000 touched entries > V/4: dense Vertex phase"
    );
    assert_eq!((recs[1].bucket, recs[1].held_back), (Some(0), 300));
    assert!(!recs[1].sparse_repr, "2700 vertices stay a bitmap");
    assert_eq!((recs[1].frontier_density * 3002.0).round(), 2700.0);
    let heavy = recs
        .iter()
        .find(|r| r.bucket.is_some_and(|b| b > 0))
        .expect("the heavy leaves' bucket is drained");
    assert_eq!((heavy.frontier_density * 3002.0).round(), 300.0);
    assert_eq!(heavy.held_back, 0);
    assert_eq!(
        stats.profile.held_back,
        recs.iter().map(|r| r.held_back).sum()
    );
}

/// The cap firing mid-schedule: the run is truncated, says so, and the
/// last superstep still had a vertex waiting in a later bucket.
#[test]
fn priority_schedule_hits_the_cap_with_vertices_waiting() {
    let n = 300u32;
    let mut edges: Vec<(u32, u32, f64)> = (0..n - 2).map(|v| (v, v + 1, 1.0)).collect();
    edges.push((0, n - 1, 5000.0));
    let g = weighted_graph(n as usize, &edges);
    let stats = sssp_on_every_arm(&g, 0, 50, "capped chain");
    assert!(stats.hit_iteration_cap);
    assert_eq!(stats.iterations, 50);
    let last = stats.records.last().unwrap();
    assert_eq!(last.held_back, 1, "the far end of the heavy edge waits");
    let stats = sssp_on_every_arm(&g, 0, n as usize + 1, "uncapped chain");
    assert!(!stats.hit_iteration_cap);
    assert_eq!(stats.records.last().unwrap().held_back, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: random graphs dense with self-loops and isolated tails
    /// never break engine agreement at any vertex count near the lane
    /// boundaries.
    #[test]
    fn prop_loops_and_ragged_sizes(
        n in 1usize..33,
        pairs in proptest::collection::vec((0u32..33, 0u32..33), 0..80),
        loops in proptest::collection::vec(0u32..33, 0..16),
    ) {
        let mut edges: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|&(s, d)| (s as usize) < n && (d as usize) < n)
            .collect();
        edges.extend(
            loops
                .into_iter()
                .filter(|&v| (v as usize) < n)
                .map(|v| (v, v)),
        );
        check_every_engine(&graph_from(n, &edges), &format!("random-n={n}"));
    }
}
