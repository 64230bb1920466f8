//! Differential fixed-point suite (DESIGN.md §8): every execution
//! configuration — push vs pull (scalar and SIMD), hybrid selection, the
//! resilient driver, both chunk schedulers, sparse and dense frontier
//! representations, and the frontier-aware compacted pull — must agree on
//! the fixed point of every application, on random graphs drawn from three
//! structurally different families (R-MAT skew, partial mesh, Erdős–Rényi).
//!
//! PageRank is compared within 1e-9 (summation order legitimately differs
//! between engines); CC, BFS, and SSSP fixed points are compared exactly —
//! their Min aggregation is order-insensitive, so any difference is a bug.
//!
//! Replay: the vendored proptest has no shrinking. A failure prints its
//! case number; rerunning the test deterministically regenerates the same
//! inputs for that case (`proptest::case_rng(test_name, case)`), which is
//! this suite's substitute for a shrunken minimal example.

use grazelle::core::config::{EngineConfig, ResilienceConfig, ScatterMode, SchedKind};
use grazelle::core::engine::hybrid::{run_program_on_pool, EngineKind, ExecutionStats};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::{
    run_program_overlay_on_pool, run_resilient_on_pool, run_resilient_overlay_on_pool,
    GraphProgram, ResilienceContext, RunOutcome, VersionedGraph,
};
use grazelle::graph::delta::UpdateBatch;
use grazelle::graph::edgelist::EdgeList;
use grazelle::graph::gen::{erdos_renyi, grid_mesh, rmat, RmatConfig};
use grazelle::prelude::*;
use grazelle_apps::{
    bfs, cc, kcore, labelprop, pagerank, sssp, triangle, Bfs, ConnectedComponents, IncrementalBfs,
    IncrementalCc, IncrementalPageRank, KCore, LabelProp, PageRank, Sssp,
};
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use proptest::prelude::*;
use std::sync::Arc;

const PR_ITERS: usize = 20;

/// One random graph per (family, seed): symmetrized so CC's undirected
/// reference applies and BFS/SSSP reach non-trivial fractions.
fn family_graph(family: u8, seed: u64) -> Graph {
    let mut el = match family % 3 {
        0 => rmat(&RmatConfig::graph500(6, 4.0, seed)),
        1 => grid_mesh(9, 9, 0.85, seed),
        _ => erdos_renyi(96, 320, seed, true),
    };
    el.symmetrize();
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// Larger members of the same three families for the sparse-Vertex-phase
/// arm: it needs touched lists well under V/4, which the 64–96-vertex
/// graphs above almost never give it.
fn sparse_family_graph(family: u8, seed: u64) -> Graph {
    let mut el = match family % 3 {
        0 => rmat(&RmatConfig::graph500(10, 3.0, seed)),
        1 => grid_mesh(40, 40, 0.7, seed),
        _ => erdos_renyi(1200, 2400, seed, true),
    };
    el.symmetrize();
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// The same structure with deterministic per-direction weights. Weights
/// are exact binary fractions so min-plus sums carry no rounding and the
/// SSSP comparison can be exact.
fn weighted_copy(g: &Graph) -> Graph {
    weighted_copy_by(g, |v, d| ((v as u64 * 31 + d as u64) % 16 + 1) as f64 / 4.0)
}

/// The same structure with weights that are neither binary fractions nor
/// regular: `k / 7`, `1 ≤ k ≤ 64`, `k` hashed from the edge and `seed`.
/// Every path sum rounds, which is the case the priority schedule's
/// bit-identity argument has to cover (`fl(d + w)` is monotone in `d`, so
/// the fixpoint is still unique), and a mesh gets road-like weights, on
/// which label-correcting re-relaxes.
fn rounding_weighted_copy(g: &Graph, seed: u64) -> Graph {
    weighted_copy_by(g, |v, d| {
        let mut z = (seed ^ ((v as u64) << 32 | d as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        ((z >> 40) % 64 + 1) as f64 / 7.0
    })
}

fn weighted_copy_by(g: &Graph, weight: impl Fn(u32, u32) -> f64) -> Graph {
    let mut el = EdgeList::new(g.num_vertices());
    for v in 0..g.num_vertices() as u32 {
        for &d in g.out_neighbors(v) {
            el.push_weighted(v, d, weight(v, d)).unwrap();
        }
    }
    Graph::from_edgelist(&el).unwrap()
}

/// The configuration matrix: engine pin × thread count, plus one arm each
/// for scalar SIMD, the locality-stealing scheduler, the dense-only
/// frontier representation, and disabled frontier-aware pull. The
/// resilient driver is flagged so the runner routes through it.
fn arms() -> Vec<(String, EngineConfig, bool)> {
    let mut v = Vec::new();
    for threads in [1usize, 2, 8] {
        for kind in [Some(EngineKind::Pull), Some(EngineKind::Push), None] {
            let name = match kind {
                Some(k) => format!("{k:?}x{threads}"),
                None => format!("hybrid-x{threads}"),
            };
            v.push((
                name,
                EngineConfig::new()
                    .with_threads(threads)
                    .with_force_engine(kind),
                false,
            ));
        }
    }
    // SPA bit-identity arms (DESIGN.md §17): the atomic-free bucketed
    // scatter must land on the same fixed point as every other engine,
    // at every thread count, for all seven kernels.
    for threads in [1usize, 2, 8] {
        v.push((
            format!("push-spa-x{threads}"),
            EngineConfig::new()
                .with_threads(threads)
                .with_force_engine(Some(EngineKind::Push))
                .with_scatter_mode(ScatterMode::Spa),
            false,
        ));
    }
    let pull2 = EngineConfig::new()
        .with_threads(2)
        .with_force_engine(Some(EngineKind::Pull));
    v.push((
        "pull-scalar".into(),
        pull2.with_simd(SimdLevel::Scalar),
        false,
    ));
    v.push((
        "pull-stealing".into(),
        pull2.with_sched_kind(SchedKind::LocalityStealing),
        false,
    ));
    v.push((
        "hybrid-dense-frontier".into(),
        EngineConfig::new()
            .with_threads(2)
            .with_sparse_frontier(false),
        false,
    ));
    v.push((
        "pull-no-frontier-pull".into(),
        pull2.with_frontier_pull(false),
        false,
    ));
    v.push((
        "resilient".into(),
        EngineConfig::new()
            .with_threads(2)
            .with_resilience(no_guard()),
        true,
    ));
    v
}

/// BFS and SSSP fixed points legitimately hold ∞ at unreachable vertices,
/// which the divergence guard would flag — resilient arms run without it.
fn no_guard() -> ResilienceConfig {
    ResilienceConfig {
        divergence_guard: false,
        ..ResilienceConfig::new()
    }
}

/// Runs `prog` under `cfg` through the requested driver; resilient runs
/// must come back clean.
fn drive<P: grazelle::core::GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    resilient: bool,
    name: &str,
) {
    if resilient {
        let run = run_resilient_on_pool(pg, prog, cfg, &ResilienceContext::new(), pool)
            .unwrap_or_else(|e| panic!("{name}: resilient run failed: {e:?}"));
        assert_eq!(run.outcome, RunOutcome::Clean, "{name}");
    } else {
        run_program_on_pool(pg, prog, cfg, pool);
    }
}

fn check_all_arms(g: &Graph, root: u32) {
    let gw = weighted_copy(g);
    let n = g.num_vertices();
    let pg = PreparedGraph::new(g);
    let pgw = PreparedGraph::new(&gw);

    let want_cc = cc::reference_undirected(g);
    let want_bfs = bfs::reference_depths(g, root);
    let want_sssp = sssp::reference(&gw, root);
    let want_pr = pagerank::reference(g, pagerank::DAMPING, PR_ITERS);
    let want_kcore = kcore::reference(g);
    let want_lp = labelprop::reference(g);
    let want_tc = triangle::reference(g);

    for (name, cfg, resilient) in arms() {
        let pool = ThreadPool::single_group(cfg.threads);

        let prog = ConnectedComponents::new(n);
        drive(&pg, &prog, &cfg, &pool, resilient, &name);
        assert_eq!(prog.labels(), want_cc, "{name}: CC labels");

        let prog = Bfs::new(n, root);
        drive(&pg, &prog, &cfg, &pool, resilient, &name);
        assert_eq!(
            bfs::validate_parents(g, root, &prog.parents()),
            want_bfs,
            "{name}: BFS depths"
        );

        let prog = Sssp::new(n, root);
        drive(&pgw, &prog, &cfg, &pool, resilient, &name);
        assert_eq!(prog.distances(), want_sssp, "{name}: SSSP distances");

        let prog = PageRank::new(g, pagerank::DAMPING);
        let mut c = cfg;
        c.max_iterations = PR_ITERS;
        drive(&pg, &prog, &c, &pool, resilient, &name);
        let ranks = prog.ranks();
        assert_eq!(ranks.len(), want_pr.len());
        for (v, (a, b)) in ranks.iter().zip(&want_pr).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{name}: PageRank vertex {v}: {a} vs {b}"
            );
        }

        let prog = KCore::new(g);
        let mut c = cfg;
        // Peeling: one iteration per round plus one per threshold bump.
        c.max_iterations = 2 * n + 64;
        drive(&pg, &prog, &c, &pool, resilient, &name);
        assert_eq!(prog.coreness(), want_kcore, "{name}: coreness");

        let prog = LabelProp::new(g);
        drive(&pg, &prog, &cfg, &pool, resilient, &name);
        assert_eq!(prog.labels(), want_lp, "{name}: LP labels");

        // Triangle counting is a single-superstep kernel computation, not
        // a GraphProgram: route it through the matching driver directly.
        let got_tc = if resilient {
            triangle::counts_resilient(g, &pg, &cfg, &ResilienceContext::new(), &pool)
                .unwrap_or_else(|e| panic!("{name}: triangle resilient run: {e:?}"))
        } else {
            triangle::counts_prepared(g, &pg, &cfg, &pool)
        };
        assert_eq!(got_tc, want_tc, "{name}: triangles");
    }
}

/// Seeded symmetric insert pairs absent from `g` — update-stream fodder.
fn fresh_sym_edges(g: &Graph, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let n = g.num_vertices() as u32;
    let mut out = Vec::new();
    let mut x = seed | 1;
    let mut tries = 0;
    while out.len() < 2 * count && tries < 50_000 {
        tries += 1;
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 33) as u32 % n;
        let v = (x >> 11) as u32 % n;
        if u == v || g.out_neighbors(u).contains(&v) || out.contains(&(u, v)) {
            continue;
        }
        out.push((u, v));
        out.push((v, u));
    }
    out
}

/// Seeded symmetric delete pairs present in `g` (both directions).
fn existing_sym_edges(g: &Graph, count: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    'outer: for u in 0..g.num_vertices() as u32 {
        for &v in g.out_neighbors(u) {
            if v > u {
                out.push((u, v));
                out.push((v, u));
                if out.len() >= 2 * count {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Rebuilds the versioned graph's merged edge set as a plain graph, the
/// substrate for every cold-recompute reference.
fn merged_plain(vg: &VersionedGraph) -> Graph {
    let view = vg.view();
    let mut el = EdgeList::new(view.num_vertices());
    for u in 0..view.num_vertices() as u32 {
        for v in view.out_neighbors(u) {
            el.push(u, v).unwrap();
        }
    }
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// One program through the plain entry point and through the contained one
/// with every mechanism off: the containment argument alone must change
/// nothing — same persistent arrays bit for bit, same supersteps, same
/// engine per superstep. (The transient accumulators are excluded: a sparse
/// Vertex phase, which only the plain run takes, leaves them at the
/// identity.)
///
/// Re-pinned by ISSUE 19: a program declaring
/// [`GraphProgram::priority_ordered`] (SSSP) runs the bucketed schedule on
/// the plain side only, so for it the arrays must still match bit for bit
/// but the superstep count and engine trace legitimately differ and are
/// not compared.
fn assert_containment_off_is_plain<P: GraphProgram>(
    what: &str,
    mk: impl Fn() -> P,
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) {
    fn persistent_bits<P: GraphProgram>(prog: &P) -> Vec<Vec<u64>> {
        let acc = prog.accumulators();
        let kept = prog
            .checkpoint_arrays()
            .into_iter()
            .filter(|a| !std::ptr::eq(*a, acc));
        kept.chain([prog.edge_values()])
            .map(|a| a.to_vec_u64())
            .collect()
    }
    let plain = mk();
    let stats = run_program_overlay_on_pool(pg, delta, &plain, cfg, pool);
    let contained = mk();
    let run =
        run_resilient_overlay_on_pool(pg, delta, &contained, cfg, &ResilienceContext::new(), pool)
            .unwrap_or_else(|e| panic!("{what}: contained run failed: {e:?}"));
    assert_eq!(run.outcome, RunOutcome::Clean, "{what}");
    assert_eq!(run.resumed_from, None, "{what}");
    assert_eq!(
        persistent_bits(&contained),
        persistent_bits(&plain),
        "{what}: arrays"
    );
    if !plain.priority_ordered() {
        assert_eq!(run.stats.iterations, stats.iterations, "{what}: supersteps");
        assert_eq!(
            run.stats.engine_trace, stats.engine_trace,
            "{what}: engines"
        );
    }
    assert_eq!(
        run.stats.hit_iteration_cap, stats.hit_iteration_cap,
        "{what}: cap"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: there is one driver. `run_resilient_overlay_on_pool` with
    /// the guard, the watchdog and checkpointing off and an empty context
    /// is `run_program_overlay_on_pool`, for every iterative kernel, graph
    /// family and thread count, with and without a delta overlay.
    #[test]
    fn prop_containment_off_is_the_plain_run(
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
    ) {
        let off = ResilienceConfig {
            watchdog: None,
            divergence_guard: false,
            checkpoint_every: 0,
            ..ResilienceConfig::new()
        };
        for family in 0..3u8 {
            let g = family_graph(family, seed);
            let gw = weighted_copy(&g);
            let n = g.num_vertices();
            let root = root_pick % n as u32;
            // One inserted edge per destination: PageRank's overlay fold
            // sums floats with synchronized adds, whose order across
            // threads is free — a single addend per accumulator has none.
            let mut used = std::collections::HashSet::new();
            let fresh: Vec<(u32, u32)> = fresh_sym_edges(&g, 8, seed)
                .chunks(2)
                .filter(|pair| used.insert(pair[0].0) & used.insert(pair[0].1))
                .flatten()
                .copied()
                .collect();
            prop_assert!(!fresh.is_empty());
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                let pgw = PreparedGraph::new_on_pool(&gw, &pool);
                let pg = PreparedGraph::new_on_pool(&g, &pool);
                let mut vg = VersionedGraph::new(Arc::new(g.clone()), Arc::new(pg));
                for overlay in [false, true] {
                    let cfg = EngineConfig::new().with_threads(threads).with_resilience(off);
                    let what =
                        |k: &str| format!("{k}/family {family}/x{threads}/overlay={overlay}");
                    if overlay {
                        vg.apply_batch(&UpdateBatch::from_inserts(&fresh), &pool).unwrap();
                        prop_assert!(vg.view().delta_pg.is_some_and(|d| d.num_edges > 0));
                    } else {
                        // Overlays carry no weights, so SSSP has no overlay arm.
                        assert_containment_off_is_plain(
                            &what("sssp"), || Sssp::new(n, root), &pgw, None, &cfg, &pool,
                        );
                    }
                    let (pg, delta) = (vg.view().pg, vg.view().delta_pg);
                    assert_containment_off_is_plain(
                        &what("bfs"), || Bfs::new(n, root), pg, delta, &cfg, &pool,
                    );
                    assert_containment_off_is_plain(
                        &what("cc"), || ConnectedComponents::new(n), pg, delta, &cfg, &pool,
                    );
                    assert_containment_off_is_plain(
                        &what("labelprop"), || LabelProp::new(&g), pg, delta, &cfg, &pool,
                    );
                    let pr = cfg.with_max_iterations(PR_ITERS);
                    assert_containment_off_is_plain(
                        &what("pagerank"), || PageRank::new(&g, pagerank::DAMPING), pg, delta, &pr, &pool,
                    );
                    // Peeling: one iteration per round plus one per threshold bump.
                    let peel = cfg.with_max_iterations(2 * n + 64);
                    assert_containment_off_is_plain(
                        &what("kcore"), || KCore::new(&g), pg, delta, &peel, &pool,
                    );
                }
            }
        }
    }

    /// Property: every arm of the configuration matrix reaches the same
    /// fixed point as the sequential references, on every graph family.
    #[test]
    fn prop_every_configuration_agrees_on_the_fixed_point(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
    ) {
        let g = family_graph(family, seed);
        let root = root_pick % g.num_vertices() as u32;
        check_all_arms(&g, root);
    }

    /// Property: the frontier-aware compacted pull is bit-identical to the
    /// full-array pull on the frontier-driven applications, across thread
    /// counts and both drivers. Min aggregation is order-insensitive, so
    /// "bit-identical" here is exact equality of the full result vectors.
    #[test]
    fn prop_frontier_aware_pull_is_bit_identical(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let g = family_graph(family, seed);
        let gw = weighted_copy(&g);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pg = PreparedGraph::new(&g);
        let pgw = PreparedGraph::new(&gw);
        let pool = ThreadPool::single_group(threads);
        let pinned = EngineConfig::new()
            .with_threads(threads)
            .with_force_engine(Some(EngineKind::Pull))
            .with_resilience(no_guard());

        for resilient in [false, true] {
            let mut labels = Vec::new();
            let mut depths = Vec::new();
            let mut dists = Vec::new();
            let mut communities = Vec::new();
            for frontier_pull in [false, true] {
                let cfg = pinned.with_frontier_pull(frontier_pull);
                let name = format!("frontier_pull={frontier_pull}/resilient={resilient}");

                let prog = ConnectedComponents::new(n);
                drive(&pg, &prog, &cfg, &pool, resilient, &name);
                labels.push(prog.labels());

                let prog = Bfs::new(n, root);
                drive(&pg, &prog, &cfg, &pool, resilient, &name);
                depths.push(prog.parents());

                let prog = Sssp::new(n, root);
                drive(&pgw, &prog, &cfg, &pool, resilient, &name);
                dists.push(prog.distances());

                let prog = LabelProp::new(&g);
                drive(&pg, &prog, &cfg, &pool, resilient, &name);
                communities.push(prog.labels());
            }
            prop_assert_eq!(&labels[0], &labels[1], "CC, resilient={}", resilient);
            prop_assert_eq!(&depths[0], &depths[1], "BFS, resilient={}", resilient);
            prop_assert_eq!(&dists[0], &dists[1], "SSSP, resilient={}", resilient);
            prop_assert_eq!(
                &communities[0], &communities[1],
                "LP, resilient={}", resilient
            );
        }

        // Triangle counting's compacted-vs-dense agreement: one Edge phase
        // over the explicit active-vector list vs the full vector space.
        let dense = grazelle_apps::triangle::counts_prepared(&g, &pg, &pinned, &pool);
        let compact = grazelle_apps::triangle::counts_compacted(
            &g,
            &pg,
            &pinned,
            &pool,
            &Frontier::all(n),
        );
        prop_assert_eq!(&dense, &compact, "TC compacted vs dense x{}", threads);
        prop_assert_eq!(dense, grazelle_apps::triangle::reference(&g));
    }

    /// Property: the cost-model direction switch is an optimization, never
    /// a semantic choice — hybrid output is bit-identical to forced-pull
    /// and forced-push under either direction policy, and every recorded
    /// iteration's engine choice is explained by the costs in its trace
    /// record (DESIGN.md §16).
    #[test]
    fn prop_direction_switch_is_output_invariant(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        use grazelle::core::config::DirectionPolicy;
        use grazelle::core::direction::ALPHA;

        let g = family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(threads);

        let mut outputs: Vec<(Vec<u32>, Vec<Option<u32>>)> = Vec::new();
        let policies = [
            ("cost-model", DirectionPolicy::CostModel, None),
            ("density-gate", DirectionPolicy::DensityGate, None),
            ("forced-pull", DirectionPolicy::CostModel, Some(EngineKind::Pull)),
            ("forced-push", DirectionPolicy::CostModel, Some(EngineKind::Push)),
        ];
        for (pname, policy, force) in policies {
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_direction_policy(policy)
                .with_force_engine(force)
                .with_trace(true);

            let prog = ConnectedComponents::new(n);
            let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
            let labels = prog.labels();

            let bprog = Bfs::new(n, root);
            run_program_on_pool(&pg, &bprog, &cfg, &pool);
            let parents = bprog.parents();

            prop_assert!(!stats.records.is_empty(), "{}: trace empty", pname);
            for (i, rec) in stats.records.iter().enumerate() {
                if let Some(kind) = force {
                    prop_assert_eq!(rec.engine, kind, "{} iter {}", pname, i);
                } else if policy == DirectionPolicy::CostModel {
                    // The recorded costs must explain the recorded choice.
                    let pull_wins =
                        ALPHA.saturating_mul(rec.dir_frontier_edges) >= rec.dir_unvisited_edges;
                    prop_assert_eq!(
                        rec.engine == EngineKind::Pull,
                        pull_wins,
                        "{} iter {}: engine {:?} vs costs {}·{} >= {}",
                        pname, i, rec.engine, ALPHA,
                        rec.dir_frontier_edges, rec.dir_unvisited_edges
                    );
                }
            }
            outputs.push((labels, parents));
        }
        for (i, (labels, parents)) in outputs.iter().enumerate().skip(1) {
            prop_assert_eq!(&outputs[0].0, labels, "CC: {} diverged", policies[i].0);
            prop_assert_eq!(&outputs[0].1, parents, "BFS: {} diverged", policies[i].0);
        }
    }

    /// Property: the sparse Vertex phase (DESIGN.md §18) changes nothing
    /// observable. The hybrid driver — which walks only the SPA touched
    /// list on its sparse push supersteps, with either frontier
    /// representation downstream — must produce the same bits and the same
    /// superstep count as forced pull and as the resilient driver, both of
    /// which always run the dense Vertex phase.
    ///
    /// Re-pinned by ISSUE 19: SSSP declares `priority_ordered`, so its
    /// plain arms run the bucketed schedule and the resilient arm does not.
    /// Its bits are still compared across all four arms; its superstep
    /// count only among the three plain ones.
    #[test]
    fn prop_sparse_vertex_phase_is_bit_identical(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let g = sparse_family_graph(family, seed);
        let gw = weighted_copy(&g);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pg = PreparedGraph::new(&g);
        let pgw = PreparedGraph::new(&gw);
        let pool = ThreadPool::single_group(threads);
        let base = EngineConfig::new()
            .with_threads(threads)
            .with_max_iterations(n + 1)
            .with_resilience(no_guard())
            .with_trace(true);
        // (name, config, resilient driver?, may take the sparse path?)
        let arms = [
            ("hybrid", base, false, true),
            ("hybrid-bitmap-frontier", base.with_sparse_frontier(false), false, true),
            ("forced-pull", base.with_force_engine(Some(EngineKind::Pull)), false, false),
            ("resilient", base, true, false),
        ];

        // One closure per kernel: run it under an arm, return its output
        // bits and the run's stats.
        type Run<'a> = Box<dyn Fn(&EngineConfig, bool) -> (Vec<u64>, ExecutionStats) + 'a>;
        fn go<P: grazelle::core::GraphProgram>(
            pg: &PreparedGraph,
            prog: &P,
            cfg: &EngineConfig,
            pool: &ThreadPool,
            resilient: bool,
        ) -> ExecutionStats {
            if resilient {
                let run = run_resilient_on_pool(pg, prog, cfg, &ResilienceContext::new(), pool)
                    .expect("resilient run");
                assert_eq!(run.outcome, RunOutcome::Clean);
                run.stats
            } else {
                run_program_on_pool(pg, prog, cfg, pool)
            }
        }
        let kernels: [(&str, Run); 4] = [
            ("bfs", Box::new(|cfg, res| {
                let prog = Bfs::new(n, root);
                let stats = go(&pg, &prog, cfg, &pool, res);
                (prog.parents().iter().map(|p| p.map_or(u64::MAX, u64::from)).collect(), stats)
            })),
            ("sssp", Box::new(|cfg, res| {
                let prog = Sssp::new(n, root);
                let stats = go(&pgw, &prog, cfg, &pool, res);
                (prog.distances().iter().map(|d| d.map_or(u64::MAX, f64::to_bits)).collect(), stats)
            })),
            ("cc", Box::new(|cfg, res| {
                let prog = ConnectedComponents::new(n);
                let stats = go(&pg, &prog, cfg, &pool, res);
                (prog.labels().iter().map(|&l| u64::from(l)).collect(), stats)
            })),
            ("labelprop", Box::new(|cfg, res| {
                let prog = LabelProp::new(&g);
                let stats = go(&pg, &prog, cfg, &pool, res);
                (prog.labels().iter().map(|&l| u64::from(l)).collect(), stats)
            })),
        ];

        for (kname, run) in &kernels {
            let mut reference: Option<(Vec<u64>, usize)> = None;
            for (aname, cfg, resilient, may_go_sparse) in &arms {
                let (bits, stats) = run(cfg, *resilient);
                prop_assert!(!stats.hit_iteration_cap, "{}/{} x{}", kname, aname, threads);
                let went_sparse = stats.profile.acc_resets_skipped > 0
                    || stats.profile.vertex_touched > 0;
                if *may_go_sparse {
                    // A traversal from one root starts sparse on every
                    // family; CC and LP start all-active and may finish
                    // before their frontier ever thins out.
                    if matches!(*kname, "bfs" | "sssp") && stats.iterations > 3 {
                        prop_assert!(went_sparse, "{}/{} x{}: never went sparse", kname, aname, threads);
                    }
                } else {
                    prop_assert!(!went_sparse, "{}/{} x{}: dense arm went sparse", kname, aname, threads);
                    for r in &stats.records {
                        prop_assert_eq!(r.vertex_touched, 0);
                        prop_assert!(!r.acc_reset_skipped);
                    }
                }
                match &reference {
                    None => reference = Some((bits, stats.iterations)),
                    Some((want, iters)) => {
                        prop_assert_eq!(&bits, want, "{}/{} x{}: output", kname, aname, threads);
                        let other_schedule = *resilient && *kname == "sssp";
                        if !other_schedule {
                            prop_assert_eq!(
                                stats.iterations, *iters,
                                "{}/{} x{}: supersteps", kname, aname, threads
                            );
                        }
                    }
                }
            }
        }
    }

    /// Property: the priority schedule (DESIGN.md §18) is a schedule, not a
    /// semantic choice. SSSP distances are the same bits under the bucketed
    /// plain run (list or bitmap frontiers, hybrid or forced pull), under
    /// the contained run that keeps the label-correcting schedule, and from
    /// Dijkstra — with weights whose sums round. The bucketed superstep
    /// count depends on neither the thread count nor the engine, and on a
    /// mesh the schedule is what it claims to be: fewer relaxations.
    #[test]
    fn prop_priority_schedule_is_bit_identical(
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
    ) {
        let off = ResilienceConfig {
            watchdog: None,
            divergence_guard: false,
            checkpoint_every: 0,
            ..ResilienceConfig::new()
        };
        for family in 0..3u8 {
            let g = rounding_weighted_copy(&sparse_family_graph(family, seed), seed);
            let n = g.num_vertices();
            let root = root_pick % n as u32;
            let pg = PreparedGraph::new(&g);
            let want: Vec<u64> = sssp::reference(&g, root)
                .iter()
                .map(|d| d.map_or(u64::MAX, f64::to_bits))
                .collect();
            let base = EngineConfig::new()
                .with_max_iterations(2 * n)
                .with_resilience(off);
            // (name, config, contained?)
            let arms = [
                ("hybrid", base, false),
                ("hybrid-bitmap-frontier", base.with_sparse_frontier(false), false),
                ("forced-pull", base.with_force_engine(Some(EngineKind::Pull)), false),
                ("contained", base, true),
            ];
            // Supersteps per arm at the first thread count, and relaxations
            // of the push-only runs (where `push_updates` covers every
            // superstep) on either schedule.
            let mut supersteps = [None; 4];
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                for (i, (aname, cfg, contained)) in arms.iter().enumerate() {
                    let cfg = cfg.with_threads(threads);
                    let prog = Sssp::new(n, root);
                    let stats = if *contained {
                        run_resilient_on_pool(&pg, &prog, &cfg, &ResilienceContext::new(), &pool)
                            .expect("contained run")
                            .stats
                    } else {
                        run_program_on_pool(&pg, &prog, &cfg, &pool)
                    };
                    let what = format!("family {family}/{aname}/x{threads}");
                    prop_assert!(!stats.hit_iteration_cap, "{}", what);
                    let bits: Vec<u64> = prog
                        .distances()
                        .iter()
                        .map(|d| d.map_or(u64::MAX, f64::to_bits))
                        .collect();
                    prop_assert_eq!(&bits, &want, "{}: distances", what);
                    prop_assert_eq!(
                        stats.profile.bucket_steps,
                        if *contained { 0 } else { stats.iterations as u64 },
                        "{}: which schedule ran", what
                    );
                    let first = *supersteps[i].get_or_insert(stats.iterations);
                    prop_assert_eq!(stats.iterations, first, "{}: supersteps vs x1", what);
                    if !*contained {
                        prop_assert_eq!(
                            Some(stats.iterations), supersteps[0],
                            "{}: supersteps vs hybrid", what
                        );
                    }
                }
            }
            if family == 1 {
                let pool = ThreadPool::single_group(2);
                let push = base.with_threads(2).with_force_engine(Some(EngineKind::Push));
                let bucketed = run_program_on_pool(&pg, &Sssp::new(n, root), &push, &pool);
                let label_correcting = run_resilient_on_pool(
                    &pg, &Sssp::new(n, root), &push, &ResilienceContext::new(), &pool,
                ).expect("contained run").stats;
                prop_assert!(
                    bucketed.profile.push_updates <= label_correcting.profile.push_updates,
                    "mesh: {} relaxations bucketed vs {} label-correcting",
                    bucketed.profile.push_updates, label_correcting.profile.push_updates
                );
            }
        }
    }

    /// Property: over an update stream, incrementally-maintained results
    /// stay bit-identical to cold recompute on the merged edge set —
    /// BFS parents and CC labels exactly, PageRank within 1e-9 — across
    /// thread counts and graph families. Two insert-only rounds exercise
    /// the warm frontier-seeded path; a delete-heavy round must force the
    /// full-recompute fallback and still agree after the cold re-run.
    #[test]
    fn prop_update_streams_match_cold_recompute(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let g = family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pool = ThreadPool::single_group(threads);
        let mut cfg = EngineConfig::new().with_threads(threads);
        cfg.max_iterations = 500; // let PageRank's tolerance terminate

        let pg = PreparedGraph::new_on_pool(&g, &pool);
        let mut vg = VersionedGraph::new(Arc::new(g), Arc::new(pg));
        let mut ibfs = IncrementalBfs::cold(&vg.view(), root, &cfg, &pool);
        let mut icc = IncrementalCc::cold(&vg.view(), &cfg, &pool);
        let mut ipr =
            IncrementalPageRank::cold(&vg.view(), pagerank::DAMPING, 1e-12, &cfg, &pool);

        for round in 0..2u64 {
            let cur = merged_plain(&vg);
            let fresh = fresh_sym_edges(&cur, 8, seed ^ (round + 1));
            let report = vg
                .apply_batch(&UpdateBatch::from_inserts(&fresh), &pool)
                .unwrap();
            prop_assert!(!report.full_recompute, "insert-only batch stays warm");
            ibfs.update(&vg.view(), &report.record.inserted, &cfg, &pool);
            icc.update(&vg.view(), &report.record.inserted, &cfg, &pool);
            ipr.update(&vg.view(), &cfg, &pool);

            let merged = merged_plain(&vg);
            let mpg = PreparedGraph::new_on_pool(&merged, &pool);
            let (cold_parents, _) = bfs::run_prepared(&mpg, &cfg, &pool, root);
            prop_assert_eq!(
                ibfs.parents(), &cold_parents[..],
                "BFS x{} round {}", threads, round
            );
            let (cold_labels, _) = cc::run_prepared(&mpg, &cfg, &pool, false);
            prop_assert_eq!(
                icc.labels(), &cold_labels[..],
                "CC x{} round {}", threads, round
            );
            let mvg = VersionedGraph::new(Arc::new(merged), Arc::new(mpg));
            let cold_pr =
                IncrementalPageRank::cold(&mvg.view(), pagerank::DAMPING, 1e-12, &cfg, &pool);
            for (v, (a, b)) in ipr.ranks().iter().zip(cold_pr.ranks()).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-9,
                    "PR x{} round {} vertex {}: {} vs {}", threads, round, v, a, b
                );
            }
        }

        // Delete-heavy batch: tombstones cannot be overlaid, so the handle
        // must merge immediately and demand a full recompute.
        let doomed = existing_sym_edges(vg.base(), 6);
        prop_assert!(!doomed.is_empty());
        let mut batch = UpdateBatch::new();
        for &(u, v) in &doomed {
            batch.delete(u, v);
        }
        let report = vg.apply_batch(&batch, &pool).unwrap();
        prop_assert!(report.full_recompute, "deletions force the fallback");
        prop_assert!(report.merged, "deletions merge immediately");
        prop_assert!(!vg.delta_active(), "no overlay survives a merge");

        ibfs = IncrementalBfs::cold(&vg.view(), root, &cfg, &pool);
        icc = IncrementalCc::cold(&vg.view(), &cfg, &pool);
        ipr = IncrementalPageRank::cold(&vg.view(), pagerank::DAMPING, 1e-12, &cfg, &pool);
        let merged = merged_plain(&vg);
        let mpg = PreparedGraph::new_on_pool(&merged, &pool);
        let (cold_parents, _) = bfs::run_prepared(&mpg, &cfg, &pool, root);
        prop_assert_eq!(ibfs.parents(), &cold_parents[..], "BFS after deletes");
        let (cold_labels, _) = cc::run_prepared(&mpg, &cfg, &pool, false);
        prop_assert_eq!(icc.labels(), &cold_labels[..], "CC after deletes");
        prop_assert_eq!(
            icc.labels(),
            &cc::reference_undirected(&merged)[..],
            "CC vs sequential reference after deletes"
        );
        let mvg = VersionedGraph::new(Arc::new(merged), Arc::new(mpg));
        let cold_pr =
            IncrementalPageRank::cold(&mvg.view(), pagerank::DAMPING, 1e-12, &cfg, &pool);
        for (v, (a, b)) in ipr.ranks().iter().zip(cold_pr.ranks()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-9,
                "PR after deletes vertex {}: {} vs {}", v, a, b
            );
        }
    }
}
