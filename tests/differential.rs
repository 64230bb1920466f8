//! Differential fixed-point suite (DESIGN.md §8): every execution
//! configuration — push vs pull (scalar and SIMD), hybrid selection, the
//! resilient driver, the SPA scatter, and the frontier-aware compacted pull
//! — must agree on the fixed point of every application, on random graphs
//! drawn from three structurally different families (R-MAT skew, partial
//! mesh, Erdős–Rényi).
//!
//! PageRank is compared within 1e-9 (summation order legitimately differs
//! between engines); CC, BFS, and SSSP fixed points are compared exactly —
//! their Min aggregation is order-insensitive, so any difference is a bug.
//!
//! Replay: the vendored proptest has no shrinking. A failure prints its
//! case number; rerunning the test deterministically regenerates the same
//! inputs for that case (`proptest::case_rng(test_name, case)`), which is
//! this suite's substitute for a shrunken minimal example.

use grazelle::core::config::{EngineConfig, Granularity, ResilienceConfig};
use grazelle::core::engine::hybrid::{run_program_on_pool, EngineKind, ExecutionStats};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::trace::IterationRecord;
use grazelle::core::{
    prepare_profiled_with_cutover, run_program_overlay_on_pool, run_resilient_on_pool,
    run_resilient_overlay_on_pool, GraphProgram, ResilienceContext, RunOutcome, VersionedGraph,
};
use grazelle::graph::csr::Csr;
use grazelle::graph::delta::UpdateBatch;
use grazelle::graph::edgelist::EdgeList;
use grazelle::graph::gen::{erdos_renyi, grid_mesh, rmat, RmatConfig};
use grazelle::prelude::*;
use grazelle_apps::{
    bfs, cc, kcore, labelprop, multi_source_reach, pagerank, sssp, triangle, Bfs,
    ConnectedComponents, KCore, LabelProp, LaneReply, PageRank, Reachability, Sssp, MAX_LANES,
};
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::{Vsd, Vss};
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
/// for scalar SIMD and disabled frontier-aware pull. The resilient driver
/// is flagged so the runner routes through it.
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
    let pull2 = EngineConfig::new()
        .with_threads(2)
        .with_force_engine(Some(EngineKind::Pull));
    v.push((
        "pull-scalar".into(),
        pull2.with_simd(SimdLevel::Scalar),
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

/// Which frontier representations a set of traced runs entered: a
/// superstep that started from a vertex list, and a sparse Vertex phase
/// whose next superstep started from a bitmap. Hybrid runs must show both,
/// so the sparse Vertex phase and the bucket queue stay covered on either
/// side of the list cutoff.
#[derive(Debug, Default)]
struct Representations {
    list: bool,
    bitmap_after_sparse_vertex: bool,
}

impl Representations {
    fn note(&mut self, records: &[IterationRecord]) {
        self.list |= records.iter().any(|r| r.sparse_repr);
        self.bitmap_after_sparse_vertex |= records
            .windows(2)
            .any(|w| w[0].vertex_touched > 0 && !w[1].sparse_repr);
    }

    fn both(&self) -> bool {
        self.list && self.bitmap_after_sparse_vertex
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
    let (base, overlay) = vg.layers();
    let mut el = EdgeList::new(vg.num_vertices());
    for u in 0..vg.num_vertices() as u32 {
        for &v in base.out_neighbors(u) {
            el.push(u, v).unwrap();
        }
        for &v in overlay.map_or(&[][..], |d| d.out_neighbors(u)) {
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
/// A program declaring a [`GraphProgram::bucket_width`] (SSSP, BFS) runs
/// the bucketed schedule, with its in-place drain, on the plain side only,
/// so for it the arrays must still match bit for bit but the iteration
/// count and engine trace legitimately differ and are not compared.
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
    if plain.bucket_width(&pg.vss).is_none() {
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
            let fresh = fresh_sym_edges(&g, 8, seed);
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
                        prop_assert!(vg.view(&pool).delta_pg.is_some_and(|d| d.num_edges > 0));
                    } else {
                        // Overlays carry no weights, so SSSP has no overlay arm.
                        assert_containment_off_is_plain(
                            &what("sssp"), || Sssp::new(n, root), &pgw, None, &cfg, &pool,
                        );
                    }
                    let (pg, delta) = (vg.view(&pool).pg, vg.view(&pool).delta_pg);
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

    /// Property: every BFS path computes the min-parent tree of the
    /// sequential reference, parent for parent — drained in place (the
    /// default), on supersteps (forced push, forced pull), contained, and over an insert overlay, plain and contained —
    /// at 1, 2 and 8 threads; after a delete batch, whose merge leaves no
    /// overlay, BFS and CC on the merged base match their references.
    #[test]
    fn prop_bfs_is_the_min_parent_tree_on_every_path(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
    ) {
        let g = sparse_family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let want = bfs::reference_parents(&g, root);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let base = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(n + 1)
                .with_resilience(no_guard());
            let pg = PreparedGraph::new_on_pool(&g, &pool);
            let arms = [
                ("drain", base, false),
                ("push", base.with_force_engine(Some(EngineKind::Push)), false),
                ("pull", base.with_force_engine(Some(EngineKind::Pull)), false),
                ("contained", base, true),
            ];
            for (aname, cfg, contained) in arms {
                let prog = Bfs::new(n, root);
                drive(&pg, &prog, &cfg, &pool, contained, aname);
                prop_assert_eq!(prog.parents(), want.clone(), "{} x{}", aname, threads);
            }
            let mut vg = VersionedGraph::new(Arc::new(g.clone()), Arc::new(pg));
            let fresh = fresh_sym_edges(&g, 16, seed);
            vg.apply_batch(&UpdateBatch::from_inserts(&fresh), &pool).unwrap();
            let (view, merged) = (vg.view(&pool), merged_plain(&vg));
            prop_assert!(view.delta_pg.is_some_and(|d| d.num_edges > 0));
            let want = bfs::reference_parents(&merged, root);
            let prog = Bfs::new(n, root);
            run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, &base, &pool);
            prop_assert_eq!(prog.parents(), want.clone(), "overlay x{}", threads);
            let prog = Bfs::new(n, root);
            run_resilient_overlay_on_pool(
                view.pg, view.delta_pg, &prog, &base, &ResilienceContext::new(), &pool,
            ).expect("contained overlay run");
            prop_assert_eq!(prog.parents(), want, "contained overlay x{}", threads);
            // A delete cannot be overlaid: the batch merges at once, no
            // overlay survives the merge, and cold runs on the merged base
            // give the sequential references.
            let doomed = existing_sym_edges(vg.base(), 6);
            prop_assert!(!doomed.is_empty());
            let mut batch = UpdateBatch::new();
            for &(u, v) in &doomed {
                batch.delete(u, v);
            }
            let report = vg.apply_batch(&batch, &pool).unwrap();
            prop_assert!(report.merged, "deletes merge at once x{}", threads);
            prop_assert!(!vg.delta_active(), "an overlay survived the merge x{}", threads);
            let view = vg.view(&pool);
            prop_assert!(view.delta_pg.is_none());
            let prog = Bfs::new(n, root);
            run_program_on_pool(view.pg, &prog, &base, &pool);
            prop_assert_eq!(
                prog.parents(), bfs::reference_parents(view.graph, root),
                "BFS after deletes x{}", threads
            );
            let prog = ConnectedComponents::new(n);
            run_program_on_pool(view.pg, &prog, &base, &pool);
            prop_assert_eq!(
                prog.labels(), cc::reference_undirected(view.graph),
                "CC after deletes x{}", threads
            );
        }
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
    /// and forced-push, and every recorded iteration's engine choice is
    /// explained by the costs in its trace record (DESIGN.md §16).
    #[test]
    fn prop_direction_switch_is_output_invariant(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..64,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        use grazelle::core::direction::ALPHA;

        let g = family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(threads);

        let mut outputs: Vec<(Vec<u32>, Vec<Option<u32>>)> = Vec::new();
        let policies = [
            ("cost-model", None),
            ("forced-pull", Some(EngineKind::Pull)),
            ("forced-push", Some(EngineKind::Push)),
        ];
        for (pname, force) in policies {
            let cfg = EngineConfig::new()
                .with_threads(threads)
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
                } else {
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
    /// observable. Forced push — which walks only the SPA touched list on
    /// its sparse supersteps, with either frontier representation
    /// downstream — must produce the same bits and the same superstep count
    /// as forced pull and as the resilient driver, both of which always run
    /// the dense Vertex phase. Over each case's three families its runs must
    /// enter both representations. Forced push keeps BFS and SSSP on
    /// supersteps; the default arm drains their buckets in place instead,
    /// to the same bits, and runs the hybrid's sparse supersteps for CC and
    /// label propagation.
    ///
    /// BFS and SSSP declare a bucket width, so their plain arms run the
    /// bucketed schedule and the resilient arm does not. Their bits are
    /// compared across all arms; BFS runs one iteration per level on every
    /// schedule, SSSP's superstep count is compared among the plain
    /// superstep arms only.
    #[test]
    fn prop_sparse_vertex_phase_is_bit_identical(
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
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
        let pool = ThreadPool::single_group(threads);
        let mut entered = Representations::default();
        for family in 0..3u8 {
            let g = sparse_family_graph(family, seed);
            let gw = weighted_copy(&g);
            let n = g.num_vertices();
            let root = root_pick % n as u32;
            let pg = PreparedGraph::new(&g);
            let pgw = PreparedGraph::new(&gw);
            let base = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(n + 1)
                .with_resilience(no_guard())
                .with_trace(true);
            // (name, config, resilient driver?, may take the sparse path?)
            let arms = [
                ("push", base.with_force_engine(Some(EngineKind::Push)), false, true),
                ("forced-pull", base.with_force_engine(Some(EngineKind::Pull)), false, false),
                ("resilient", base, true, false),
                ("default", base, false, true),
            ];
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
                    let what = format!("family {family}/{kname}/{aname} x{threads}");
                    let (bits, stats) = run(cfg, *resilient);
                    prop_assert!(!stats.hit_iteration_cap, "{}", what);
                    let went_sparse = stats.profile.acc_resets_skipped > 0
                        || stats.profile.vertex_touched > 0;
                    if *aname == "push" {
                        entered.note(&stats.records);
                    }
                    if *may_go_sparse {
                        // A traversal from one root starts sparse on every
                        // family; CC and LP start all-active and may finish
                        // before their frontier ever thins out.
                        if matches!(*kname, "bfs" | "sssp") && stats.iterations > 3 {
                            prop_assert!(went_sparse, "{}: never went sparse", what);
                        }
                    } else {
                        prop_assert!(!went_sparse, "{}: dense arm went sparse", what);
                        for r in &stats.records {
                            prop_assert_eq!(r.vertex_touched, 0);
                            prop_assert!(!r.acc_reset_skipped);
                        }
                    }
                    match &reference {
                        None => reference = Some((bits, stats.iterations)),
                        Some((want, iters)) => {
                            prop_assert_eq!(&bits, want, "{}: output", what);
                            let other_schedule =
                                (*resilient || *aname == "default") && *kname == "sssp";
                            if !other_schedule {
                                prop_assert_eq!(stats.iterations, *iters, "{}: supersteps", what);
                            }
                        }
                    }
                }
            }
        }
        prop_assert!(entered.both(), "x{}: {:?}", threads, entered);
    }

    /// Property: the priority schedule (DESIGN.md §18) is a schedule, not a
    /// semantic choice. SSSP distances are the same bits whether each
    /// bucket is drained in place (the default) or run as a superstep (a
    /// pinned engine), under the contained run that keeps
    /// the label-correcting schedule, and from Dijkstra — with weights whose
    /// sums round — at 1, 2 and 8 threads. On graphs this small every bucket
    /// fits the drain's cutoff, so the drained run drains every bucket, and
    /// both frontier representations; the superstep arms enter both too.
    /// Iteration counts depend on neither the thread count nor, among the
    /// superstep arms, the engine; and on a mesh the schedule is what it
    /// claims to be: fewer relaxations, drained or not.
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
        let mut entered = Representations::default();
        // Drained buckets seen as a list and as a bitmap.
        let mut drained_from = (false, false);
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
                .with_resilience(off)
                .with_trace(true);
            // (name, config, contained?)
            let arms = [
                ("drain", base, false),
                ("forced-push", base.with_force_engine(Some(EngineKind::Push)), false),
                ("forced-pull", base.with_force_engine(Some(EngineKind::Pull)), false),
                ("contained", base, true),
            ];
            // Iterations per arm at the first thread count.
            let mut iterations = [None; 4];
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
                    prop_assert_eq!(
                        stats.profile.drained_buckets,
                        if *aname == "drain" { stats.iterations as u64 } else { 0 },
                        "{}: drained buckets", what
                    );
                    match *aname {
                        "drain" => {
                            for r in &stats.records {
                                prop_assert!(r.drained && r.vertex_touched == 0, "{}", what);
                                let flag = if r.sparse_repr { &mut drained_from.0 } else { &mut drained_from.1 };
                                *flag = true;
                            }
                            prop_assert_eq!(
                                stats.profile.drain_messages, stats.profile.push_updates,
                                "{}: every relaxation was drained", what
                            );
                        }
                        "forced-push" => entered.note(&stats.records),
                        _ => {}
                    }
                    let first = *iterations[i].get_or_insert(stats.iterations);
                    prop_assert_eq!(stats.iterations, first, "{}: iterations vs x1", what);
                    if *aname == "forced-pull" {
                        prop_assert_eq!(
                            Some(stats.iterations), iterations[1],
                            "{}: supersteps vs forced push", what
                        );
                    }
                }
            }
            if family == 1 {
                let pool = ThreadPool::single_group(2);
                let push = base.with_threads(2).with_force_engine(Some(EngineKind::Push));
                let bucketed = run_program_on_pool(&pg, &Sssp::new(n, root), &push, &pool);
                let drained = run_program_on_pool(&pg, &Sssp::new(n, root), &base.with_threads(2), &pool);
                let label_correcting = run_resilient_on_pool(
                    &pg, &Sssp::new(n, root), &push, &ResilienceContext::new(), &pool,
                ).expect("contained run").stats;
                for (arm, relaxed) in [("bucketed", bucketed.profile.push_updates), ("drained", drained.profile.push_updates)] {
                    prop_assert!(
                        relaxed <= label_correcting.profile.push_updates,
                        "mesh: {} relaxations {} vs {} label-correcting",
                        arm, relaxed, label_correcting.profile.push_updates
                    );
                }
            }
        }
        prop_assert!(entered.both(), "{:?}", entered);
        prop_assert_eq!(drained_from, (true, true), "drained from a list, from a bitmap");
    }
}

/// Rounding-sensitive Sum flood for the fold-order test below: every
/// activated vertex sends its value, and a vertex that received anything
/// takes a third of the sum and activates, for a fixed number of
/// supersteps. Values start at `1 / (v + 1.5)`, so a destination fed by
/// several sources in one superstep gets a sum whose bits depend on the
/// order the messages were added in; `digest` folds the bits of every sum
/// a vertex received, so a difference in any superstep survives to the
/// end (later sums of near-equal values can round it away in `vals`). A
/// zero accumulator (the identity) is a no-op, as the sparse Vertex phase
/// requires.
struct SumFlood {
    vals: grazelle::core::properties::PropertyArray,
    acc: grazelle::core::properties::PropertyArray,
    digest: grazelle::core::properties::PropertyArray,
    seeds: Vec<u32>,
    supersteps: usize,
}

impl SumFlood {
    fn new(n: usize, seeds: Vec<u32>, supersteps: usize) -> Self {
        let vals = grazelle::core::properties::PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, 1.0 / (v as f64 + 1.5));
        }
        SumFlood {
            vals,
            acc: grazelle::core::properties::PropertyArray::new(n),
            digest: grazelle::core::properties::PropertyArray::new(n),
            seeds,
            supersteps,
        }
    }
}

impl GraphProgram for SumFlood {
    fn num_vertices(&self) -> usize {
        self.vals.len()
    }
    fn op(&self) -> grazelle::core::program::AggOp {
        grazelle::core::program::AggOp::Sum
    }
    fn edge_values(&self) -> &grazelle::core::properties::PropertyArray {
        &self.vals
    }
    fn accumulators(&self) -> &grazelle::core::properties::PropertyArray {
        &self.acc
    }
    fn apply(&self, v: u32) -> bool {
        let sum = self.acc.get_f64(v as usize);
        if sum == 0.0 {
            return false;
        }
        self.vals.set_f64(v as usize, sum / 3.0);
        let d = self.digest.get_u64(v as usize);
        self.digest
            .set_u64(v as usize, d.rotate_left(7) ^ sum.to_bits());
        true
    }
    fn uses_frontier(&self) -> bool {
        true
    }
    fn identity_apply_is_noop(&self) -> bool {
        true
    }
    fn initial_frontier(&self) -> grazelle::core::Frontier {
        grazelle::core::Frontier::from_vertices(self.num_vertices(), &self.seeds)
    }
    fn should_stop(&self, iteration: usize, active: usize) -> bool {
        active == 0 || iteration + 1 >= self.supersteps
    }
}

/// The inline SPA path folds each message as it is scanned; the pooled
/// path buckets first and folds per destination chunk in thread order
/// (DESIGN.md §17). Both must give every destination the same fold order.
/// On a mesh, a chain and a star, BFS, SSSP (rounding weights), CC and a
/// rounding-sensitive Sum flood run with the engine pinned to push at 1
/// thread (every phase inline — the reference) and at 2 and 8 threads (wide
/// frontiers pooled, narrow ones inline): same bits, and the same
/// iteration, push-step and SPA-step counts. Hybrid runs at 1/2/8 threads
/// pin the same counts for the default configuration.
#[test]
fn inline_direct_fold_matches_pooled_scatter() {
    let sym = |mut el: EdgeList| {
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    };
    let chain = {
        // 1100 one-vector vertices: CC's all-active first superstep is
        // past the two-thread pooled cutoff of 1024 vectors.
        let mut el = EdgeList::new(1100);
        for v in 0..1099u32 {
            el.push(v, v + 1).unwrap();
        }
        sym(el)
    };
    let star = {
        // Hub 0 and 3000 leaves: a frontier of every leaf is 3000
        // vectors, past the pooled cutoff of any pool wider than one.
        let mut el = EdgeList::new(3001);
        for leaf in 1..3001u32 {
            el.push(0, leaf).unwrap();
        }
        sym(el)
    };
    // (name, graph, traversal root, Sum seeds). Two seeds two apart share
    // a destination and grow a frontier small enough for the vertex-list
    // representation, so its scan meets several sources per destination
    // too; the star's every-third-leaf seeding sends a thousand messages
    // to the hub in one wide superstep.
    let mesh_mid = 24 * 48 + 24;
    let shapes = [
        (
            "mesh",
            sym(grid_mesh(48, 48, 1.0, 7)),
            0u32,
            vec![mesh_mid, mesh_mid + 2],
        ),
        ("chain", chain, 550, vec![550, 552]),
        ("star", star, 17, (1..3001).step_by(3).collect()),
    ];
    // (name, threads, forced push?)
    let arms = [
        ("push", 1usize, true),
        ("push", 2, true),
        ("push", 8, true),
        ("hybrid", 1, false),
        ("hybrid", 2, false),
        ("hybrid", 8, false),
    ];
    for (shape, g, root, sum_seeds) in &shapes {
        let n = g.num_vertices();
        let gw = rounding_weighted_copy(g, 11);
        let pg = PreparedGraph::new(g);
        let pgw = PreparedGraph::new(&gw);
        let kernels = ["bfs", "sssp", "cc", "sum"];
        let mut inline_and_pooled = [(false, false); 2];
        for kname in kernels {
            // Output bits and counts of the first arm of each kind,
            // compared against the rest.
            let mut forced: Option<(Vec<u64>, usize, usize)> = None;
            let mut spa_steps: Option<usize> = None;
            let mut hybrid: Option<(Vec<u64>, usize, usize, usize)> = None;
            for (aname, threads, push) in arms {
                // Pull sums in a different order; the Sum flood is pinned
                // to the push arms.
                if kname == "sum" && !push {
                    continue;
                }
                let what = format!("{shape}/{kname}/{aname}x{threads}");
                let pool = ThreadPool::single_group(threads);
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_force_engine(push.then_some(EngineKind::Push))
                    .with_max_iterations(2 * n)
                    .with_trace(true);
                let (bits, stats) = match kname {
                    "bfs" => {
                        let prog = Bfs::new(n, *root);
                        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
                        let parents = prog.parents();
                        (
                            parents
                                .iter()
                                .map(|p| p.map_or(u64::MAX, u64::from))
                                .collect(),
                            stats,
                        )
                    }
                    "sssp" => {
                        let prog = Sssp::new(n, *root);
                        let stats = run_program_on_pool(&pgw, &prog, &cfg, &pool);
                        let dist = prog.distances();
                        (
                            dist.iter()
                                .map(|d| d.map_or(u64::MAX, f64::to_bits))
                                .collect(),
                            stats,
                        )
                    }
                    "cc" => {
                        let prog = ConnectedComponents::new(n);
                        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
                        (prog.labels().iter().map(|&l| u64::from(l)).collect(), stats)
                    }
                    _ => {
                        let prog = SumFlood::new(n, sum_seeds.clone(), 6);
                        let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
                        (prog.digest.to_vec_u64(), stats)
                    }
                };
                assert!(!stats.hit_iteration_cap, "{what}");
                let spa: usize = stats
                    .records
                    .iter()
                    .filter(|r| r.engine == EngineKind::Push && r.spa_bucket_entries > 0)
                    .count();
                if push && threads > 1 {
                    for r in stats.records.iter().filter(|r| r.spa_bucket_entries > 0) {
                        let slot = &mut inline_and_pooled[usize::from(threads == 8)];
                        slot.0 |= r.edge_parallelism == 1;
                        slot.1 |= r.edge_parallelism > 1;
                    }
                }
                let counts = (stats.iterations, stats.push_iterations);
                if push {
                    let (want, iters, pushes) =
                        forced.get_or_insert_with(|| (bits.clone(), counts.0, counts.1));
                    assert_eq!(&bits, want, "{what}: output vs push x1");
                    assert_eq!(counts, (*iters, *pushes), "{what}: supersteps");
                    assert_eq!(spa, *spa_steps.get_or_insert(spa), "{what}: SPA steps");
                } else {
                    let want = forced.as_ref().map(|f| &f.0).unwrap();
                    // SSSP's schedule and Sum's order are push-only pins;
                    // the Min fixed points agree across engines.
                    assert_eq!(&bits, want, "{what}: output vs forced push");
                    let h = hybrid.get_or_insert_with(|| (bits.clone(), counts.0, counts.1, spa));
                    assert_eq!((counts.0, counts.1, spa), (h.1, h.2, h.3), "{what}: counts");
                }
            }
        }
        // The matrix really straddles the cutoff: at 2 and at 8 threads
        // some SPA phase ran inline and some on the pool.
        for (i, &(inline, pooled)) in inline_and_pooled.iter().enumerate() {
            assert!(
                inline && pooled,
                "{shape}: x{}: inline {inline}, pooled {pooled}",
                [2, 8][i]
            );
        }
    }
}

/// A symmetric graph keeps one structure for both orientations and
/// encodes it once, the VSS sharing the VSD's arrays. On the three graph
/// families, unweighted and with symmetric rounding weights, that shared
/// encoding must run exactly like a VSD and a VSS encoded apart: at 1, 2
/// and 8 threads, the same BFS parents, SSSP distances, CC labels and
/// PageRank bits, and packed Reach+BFS replies over the shared structure
/// equal to the single-source programs on the separate encodings.
#[test]
fn a_shared_encoding_runs_like_two_separate_ones() {
    let apart = |g: &Graph| PreparedGraph {
        vsd: Vsd::from_csr(g.in_csr()),
        vss: Vss::from_csr(g.out_csr()),
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
    };
    for family in 0..3u8 {
        let g = sparse_family_graph(family, 21);
        let gw = weighted_copy_by(&g, |v, d| {
            let (lo, hi) = (v.min(d) as u64, v.max(d) as u64);
            ((lo * 131 + hi * 7) % 64 + 1) as f64 / 7.0
        });
        let n = g.num_vertices();
        assert!(g.is_symmetric() && gw.is_symmetric(), "family {family}");
        let shared = [PreparedGraph::new(&g), PreparedGraph::new(&gw)];
        let separate = [apart(&g), apart(&gw)];
        for pg in &shared {
            assert!(std::ptr::eq(pg.vsd.vectors(), pg.vss.vectors()));
        }
        for pg in &separate {
            assert!(!std::ptr::eq(pg.vsd.vectors(), pg.vss.vectors()));
        }
        // 64 roots, the first 4 BFS lanes, as the server packs them.
        let roots: Vec<u32> = (0..MAX_LANES).map(|i| ((i * 37 + 5) % n) as u32).collect();
        let bfs_lanes = 4;
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_granularity(Granularity::VectorsPerChunk(64))
                .with_max_iterations(2 * n);
            let outputs = |[pg, pgw]: [&PreparedGraph; 2]| -> Vec<Vec<u64>> {
                let bfs = Bfs::new(n, roots[0]);
                run_program_on_pool(pg, &bfs, &cfg, &pool);
                let sssp = Sssp::new(n, roots[0]);
                run_program_on_pool(pgw, &sssp, &cfg, &pool);
                let cc = ConnectedComponents::new(n);
                run_program_on_pool(pg, &cc, &cfg, &pool);
                let pr = PageRank::new(&g, pagerank::DAMPING);
                run_program_on_pool(pg, &pr, &cfg.with_max_iterations(PR_ITERS), &pool);
                vec![
                    bfs.parents()
                        .iter()
                        .map(|p| p.map_or(u64::MAX, u64::from))
                        .collect(),
                    sssp.distances()
                        .iter()
                        .map(|d| d.map_or(u64::MAX, f64::to_bits))
                        .collect(),
                    cc.labels().iter().map(|&l| u64::from(l)).collect(),
                    pr.ranks().iter().map(|r| r.to_bits()).collect(),
                ]
            };
            let what = format!("family {family}, {threads} threads");
            let want = outputs([&separate[0], &separate[1]]);
            assert_eq!(outputs([&shared[0], &shared[1]]), want, "{what}");
            let packed = multi_source_reach(&g, None, &roots, bfs_lanes, &pool, None).unwrap();
            let replies: Vec<LaneReply> = packed.replies().collect();
            for (lane, &root) in roots.iter().enumerate() {
                let single = if lane < bfs_lanes {
                    let prog = Bfs::new(n, root);
                    run_program_on_pool(&separate[0], &prog, &cfg, &pool);
                    LaneReply::Parents(prog.parents())
                } else {
                    let prog = Reachability::new(n, root);
                    run_program_on_pool(&separate[0], &prog, &cfg, &pool);
                    LaneReply::Reached(prog.reached())
                };
                assert_eq!(replies[lane], single, "{what}, lane {lane}");
            }
        }
    }
}

/// Directed members of the three families, none its own transpose: R-MAT
/// and Erdős–Rényi as generated, the mesh with each lattice edge kept from
/// the lower id up only.
fn directed_family_graph(family: u8, seed: u64) -> Graph {
    let mut el = match family % 3 {
        0 => rmat(&RmatConfig::graph500(10, 3.0, seed)),
        1 => {
            let mesh = grid_mesh(40, 40, 0.7, seed);
            let up: Vec<_> = mesh
                .edges()
                .iter()
                .filter(|(s, d)| s < d)
                .copied()
                .collect();
            EdgeList::from_pairs(mesh.num_vertices(), &up).unwrap()
        }
        _ => erdos_renyi(1200, 2400, seed, false),
    };
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// The vertex with the most out-edges (the lowest such id).
fn widest_source(g: &Graph) -> u32 {
    let n = g.num_vertices() as u32;
    (0..n).max_by_key(|&v| (g.out_degree(v), n - v)).unwrap()
}

/// A directed graph's push structure is deferred at set-up and encoded by
/// the first run that can push. On directed members of the three families,
/// at 1, 2 and 8 threads, each program runs on a fresh deferred
/// preparation (so the run is the one that encodes) and on an eager
/// struct-literal one: BFS parents, SSSP distances, CC labels, k-core
/// coreness and PageRank ranks come out the same bits. The frontier
/// programs leave the VSS encoded; PageRank leaves it deferred.
#[test]
fn a_deferred_push_structure_runs_like_an_eager_one() {
    let eager = |g: &Graph| PreparedGraph {
        vsd: Vsd::from_csr(g.in_csr()),
        vss: Vss::from_csr(g.out_csr()),
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
    };
    for family in 0..3u8 {
        let g = directed_family_graph(family, 23);
        let gw = weighted_copy_by(&g, |v, d| {
            ((v as u64 * 131 + d as u64 * 7) % 64 + 1) as f64 / 7.0
        });
        assert!(!g.is_symmetric() && !gw.is_symmetric(), "family {family}");
        let (n, root) = (g.num_vertices(), widest_source(&g));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_granularity(Granularity::VectorsPerChunk(64))
                .with_max_iterations(2 * n);
            let what = format!("family {family}, {threads} threads");
            // Each output with whether the run left the VSS encoded.
            let outputs = |prepare: &dyn Fn(&Graph) -> PreparedGraph| -> Vec<(Vec<u64>, bool)> {
                let pg = prepare(&g);
                let (parents, _) = bfs::run_prepared(&pg, &cfg, &pool, root);
                let bfs = parents
                    .iter()
                    .map(|p| p.map_or(u64::MAX, u64::from))
                    .collect();
                let bfs = (bfs, pg.vss.is_encoded());
                let pgw = prepare(&gw);
                let (dist, _) = sssp::run_prepared(&pgw, &cfg, &pool, root);
                let sssp = dist
                    .iter()
                    .map(|d| d.map_or(u64::MAX, f64::to_bits))
                    .collect();
                let sssp = (sssp, pgw.vss.is_encoded());
                let pg = prepare(&g);
                let (labels, _) = cc::run_prepared(&pg, &cfg, &pool, false);
                let cc = (
                    labels.iter().map(|&l| u64::from(l)).collect(),
                    pg.vss.is_encoded(),
                );
                let pg = prepare(&g);
                let (core, _) = kcore::run_prepared(&pg, &g, &cfg, &pool);
                let kcore = (
                    core.iter().map(|&c| u64::from(c)).collect(),
                    pg.vss.is_encoded(),
                );
                let pg = prepare(&g);
                let (ranks, stats) = pagerank::run_prepared(&pg, &g, &cfg, &pool, PR_ITERS);
                assert_eq!(stats.push_iterations, 0, "{what}");
                let pr = (
                    ranks.iter().map(|r| r.to_bits()).collect(),
                    pg.vss.is_encoded(),
                );
                vec![bfs, sssp, cc, kcore, pr]
            };
            let (deferred, eager) = (outputs(&PreparedGraph::new), outputs(&eager));
            for (i, ((got, encoded), (want, _))) in deferred.iter().zip(&eager).enumerate() {
                let app = ["bfs", "sssp", "cc", "kcore", "pagerank"][i];
                assert_eq!(got, want, "{what}: {app}");
                assert_eq!(*encoded, app != "pagerank", "{what}: {app}");
            }
        }
    }
}

/// A directed graph whose in-degrees differ from its out-degrees defers
/// its in-edges at set-up, and its VSD is encoded straight from the
/// out-edges; through `prepare_profiled` from a list sorted by source it
/// defers its out-edges too, and its VSD is encoded straight from the
/// list. On directed members of the three families, at 1, 2 and 8
/// threads, each program runs on a fresh graph and preparation of each
/// kind, and on an eager struct-literal preparation encoded from both
/// built orientations: BFS parents, SSSP distances, CC labels, k-core
/// coreness and PageRank ranks come out the same bits. No run builds the
/// deferred in-edges; deferred out-edges are built exactly when the push
/// structure is encoded, so PageRank builds neither.
#[test]
fn deferred_in_edges_run_like_eager_ones() {
    // The graph's edges as a list sorted by source, weights along.
    let listed = |g: &Graph| {
        let out = g.out_csr();
        let pairs = out.iter_edges().map(|(s, d, _)| (s, d)).collect();
        EdgeList::from_parts(g.num_vertices(), pairs, out.weights().map(<[f64]>::to_vec)).unwrap()
    };
    for family in 0..3u8 {
        let g = directed_family_graph(family, 29);
        let gw = weighted_copy_by(&g, |v, d| {
            ((v as u64 * 131 + d as u64 * 7) % 64 + 1) as f64 / 7.0
        });
        let (n, root) = (g.num_vertices(), widest_source(&g));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_granularity(Granularity::VectorsPerChunk(64))
                .with_max_iterations(2 * n);
            // 0: eager struct literal; 1: in-edges deferred; 2: both deferred.
            let outputs = |kind: u8| -> Vec<Vec<u64>> {
                let what = format!("family {family}, {threads} threads, kind {kind}");
                let prepare = |g: &Graph| {
                    let (g, pg) = match kind {
                        2 => {
                            let el = listed(g);
                            let (g, pg, _) = prepare_profiled_with_cutover(&el, &pool, 0).unwrap();
                            assert!(g.out_edges_deferred() && g.built_out_csr().is_none());
                            (g, pg)
                        }
                        _ => {
                            let g = Graph::from_out_csr(g.out_csr().clone(), None);
                            let pg = match kind {
                                0 => PreparedGraph {
                                    vsd: Vsd::from_csr(g.in_csr()),
                                    vss: Vss::from_csr(g.out_csr()),
                                    num_vertices: g.num_vertices(),
                                    num_edges: g.num_edges(),
                                },
                                _ => PreparedGraph::new_on_pool(&g, &pool),
                            };
                            (g, pg)
                        }
                    };
                    if kind > 0 {
                        assert!(
                            g.in_edges_deferred() && g.built_in_csr().is_none(),
                            "{what}"
                        );
                    }
                    (g, pg)
                };
                let unbuilt = |g: &Graph, pg: &PreparedGraph, app: &str| {
                    if kind > 0 {
                        assert!(g.built_in_csr().is_none(), "{what}: {app}");
                    }
                    if kind == 2 {
                        let encoded = pg.vss.is_encoded();
                        assert_eq!(g.built_out_csr().is_some(), encoded, "{what}: {app}");
                        assert_eq!(encoded, app != "pagerank", "{what}: {app}");
                    }
                };
                let (dg, pg) = prepare(&g);
                let (parents, _) = bfs::run_prepared(&pg, &cfg, &pool, root);
                unbuilt(&dg, &pg, "bfs");
                let bfs = parents
                    .iter()
                    .map(|p| p.map_or(u64::MAX, u64::from))
                    .collect();
                let (dgw, pgw) = prepare(&gw);
                let (dist, _) = sssp::run_prepared(&pgw, &cfg, &pool, root);
                unbuilt(&dgw, &pgw, "sssp");
                let sssp = dist
                    .iter()
                    .map(|d| d.map_or(u64::MAX, f64::to_bits))
                    .collect();
                let (dg, pg) = prepare(&g);
                let (labels, _) = cc::run_prepared(&pg, &cfg, &pool, false);
                unbuilt(&dg, &pg, "cc");
                let cc = labels.iter().map(|&l| u64::from(l)).collect();
                let (dg, pg) = prepare(&g);
                let (core, _) = kcore::run_prepared(&pg, &dg, &cfg, &pool);
                unbuilt(&dg, &pg, "kcore");
                let kcore = core.iter().map(|&c| u64::from(c)).collect();
                let (dg, pg) = prepare(&g);
                let (ranks, _) = pagerank::run_prepared(&pg, &dg, &cfg, &pool, PR_ITERS);
                unbuilt(&dg, &pg, "pagerank");
                let pr = ranks.iter().map(|r| r.to_bits()).collect();
                vec![bfs, sssp, cc, kcore, pr]
            };
            let want = outputs(0);
            for kind in [1, 2] {
                for (i, (got, want)) in outputs(kind).iter().zip(&want).enumerate() {
                    let app = ["bfs", "sssp", "cc", "kcore", "pagerank"][i];
                    assert_eq!(
                        got, want,
                        "family {family}, {threads} threads, kind {kind}: {app}"
                    );
                }
            }
        }
    }
}

/// The set-up a user runs, `prepare_profiled`, on a directed R-MAT above
/// the pool cutover: PageRank pulls every superstep and never encodes the
/// push structure nor builds either orientation, at 1, 2 and 8 threads. BFS, SSSP and CC each encode it
/// once, on first run: a second run, and a run on a clone of the prepared
/// graph, read the same encoding, which equals the eager one.
#[test]
fn pagerank_never_encodes_the_push_structure_and_traversals_encode_it_once() {
    let el = rmat(&RmatConfig::graph500(13, 16.0, 3));
    let pairs = el.num_edges() as u64;
    assert!(pairs >= grazelle::core::PAR_BUILD_CUTOVER_EDGES);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new().with_threads(threads);
        let (g, pg, _) = grazelle::core::build::prepare_profiled(&el, &pool).unwrap();
        assert!(!g.is_symmetric());
        let (_, stats) = pagerank::run_prepared(&pg, &g, &cfg, &pool, 5);
        assert_eq!(stats.push_iterations, 0);
        assert!(
            !pg.vss.is_encoded(),
            "{threads} threads: PageRank encoded the VSS"
        );
        // Nor did it build the in-edges or, the list being sorted by
        // source, the out-edges; the first `in_neighbors` builds the
        // former, once for the graph and its clones.
        assert!(g.built_in_csr().is_none(), "{threads} threads");
        assert!(g.built_out_csr().is_none(), "{threads} threads");
        let twin = g.clone();
        let hub = widest_source(&g);
        let first = g.in_neighbors(hub).as_ptr();
        assert_eq!(
            twin.built_in_csr().map(|c| c.edges().as_ptr()),
            Some(g.in_csr().edges().as_ptr())
        );
        assert_eq!(twin.in_neighbors(hub).as_ptr(), first);
        assert!(g.in_csr().bit_identical(&Csr::from_edgelist_by_dst(&el)));

        let gw = weighted_copy(&g);
        let eager = [Vss::from_csr(g.out_csr()), Vss::from_csr(gw.out_csr())];
        let root = widest_source(&g);
        type Run<'a> = &'a dyn Fn(&PreparedGraph);
        let runs: [(&str, bool, Run<'_>); 3] = [
            ("bfs", false, &|pg| {
                drop(bfs::run_prepared(pg, &cfg, &pool, root))
            }),
            ("sssp", true, &|pg| {
                drop(sssp::run_prepared(pg, &cfg, &pool, root))
            }),
            ("cc", false, &|pg| {
                drop(cc::run_prepared(pg, &cfg, &pool, false))
            }),
        ];
        for (app, weighted, run) in runs {
            let what = format!("{app}, {threads} threads");
            let pg = PreparedGraph::new_on_pool(if weighted { &gw } else { &g }, &pool);
            let twin = pg.clone();
            assert!(!pg.vss.is_encoded(), "{what}");
            run(&pg);
            assert!(pg.vss.is_encoded() && twin.vss.is_encoded(), "{what}");
            let first = pg.vss.vectors().as_ptr();
            run(&pg);
            run(&twin);
            assert_eq!(pg.vss.vectors().as_ptr(), first, "{what}: encoded again");
            assert_eq!(twin.vss.vectors().as_ptr(), first, "{what}: encoded again");
            assert!(
                pg.vss.bit_identical(&eager[usize::from(weighted)]),
                "{what}"
            );
        }
    }
}

/// PageRank over an insert overlay that sends many messages to each
/// destination: the overlay fold goes through the SPA, so the ranks are the
/// same bits at 1, 2 and 8 threads, plain and contained. The chunk geometry
/// is pinned, so the base pull's fold order does not move with the thread
/// count either. The overlay's 1200 one-vector sources are past the inline
/// cutoff of a two- and an eight-thread pool, so there the pooled
/// scatter/merge folds it.
#[test]
fn overlay_pagerank_is_bit_identical_across_thread_counts() {
    let mut el = rmat(&RmatConfig::graph500(12, 4.0, 5));
    el.symmetrize();
    el.sort_and_dedup();
    let g = Graph::from_edgelist(&el).unwrap();
    // 300 new in-edges into each of four hubs, from distinct sources.
    let mut inserts: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|hub| {
            let g = &g;
            (4 + hub * 1000..)
                .filter(move |&u| !g.out_neighbors(u).contains(&hub))
                .take(300)
                .map(move |u| (u, hub))
        })
        .collect();
    inserts.sort_unstable();
    let mut vg = VersionedGraph::new(Arc::new(g.clone()), Arc::new(PreparedGraph::new(&g)));
    vg.apply_batch(
        &UpdateBatch::from_inserts(&inserts),
        &ThreadPool::single_group(1),
    )
    .unwrap();
    let view = vg.view(&ThreadPool::single_group(1));
    let delta = view.delta_pg.expect("the inserts stay an overlay");
    assert_eq!(delta.num_edges, inserts.len());
    let off = ResilienceConfig {
        watchdog: None,
        divergence_guard: false,
        checkpoint_every: 0,
        ..ResilienceConfig::new()
    };
    let mut want: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_granularity(Granularity::VectorsPerChunk(64))
            .with_max_iterations(PR_ITERS)
            .with_resilience(off);
        for contained in [false, true] {
            let prog = PageRank::new(&g, pagerank::DAMPING);
            if contained {
                let rctx = ResilienceContext::new();
                run_resilient_overlay_on_pool(view.pg, Some(delta), &prog, &cfg, &rctx, &pool)
                    .expect("contained run");
            } else {
                run_program_overlay_on_pool(view.pg, Some(delta), &prog, &cfg, &pool);
            }
            let bits: Vec<u64> = prog.ranks().iter().map(|r| r.to_bits()).collect();
            let what = format!("x{threads} contained={contained}");
            assert_eq!(&bits, want.get_or_insert_with(|| bits.clone()), "{what}");
        }
    }
}
