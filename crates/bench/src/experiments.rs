//! One function per paper table/figure (see DESIGN.md §3 for the index).
//!
//! Every function returns renderable [`Table`]s so the `repro` binary and
//! the Criterion benches share one implementation. Methodology knobs come
//! from the environment: `GRAZELLE_SCALE_SHIFT` (workload size),
//! `GRAZELLE_THREADS` (worker threads), `GRAZELLE_REPEATS` (median-of-N
//! timing).

use crate::report::{fmt_duration, fmt_pct, fmt_speedup, median, Table};
use crate::schema::{log_run, RunRecord};
use crate::workloads::{pagerank_iterations, workload, workload_symmetric, Workload};
use grazelle_apps::bfs::Bfs;
use grazelle_apps::cc::ConnectedComponents;
use grazelle_apps::pagerank::{self, PageRank};
use grazelle_baselines::{GraphMatEngine, LigraConfig, LigraEngine, PolymerEngine, XStreamEngine};
use grazelle_core::config::{EngineConfig, Granularity, PullMode};
use grazelle_core::engine::hybrid::{run_program_on_pool, EngineKind, ExecutionStats};
use grazelle_core::program::GraphProgram;
use grazelle_graph::gen::datasets::Dataset;
use grazelle_graph::gen::rmat::{rmat, RmatConfig};
use grazelle_graph::stats::GraphSummary;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::packing::{packing_efficiency, space_overhead};
use grazelle_vsparse::simd::SimdLevel;
use std::time::Duration;

/// Worker threads used by the experiments (env `GRAZELLE_THREADS`).
pub fn threads() -> usize {
    std::env::var("GRAZELLE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(2)
        })
        .max(1)
}

/// Timing repeats; the median is reported (env `GRAZELLE_REPEATS`).
pub fn repeats() -> usize {
    std::env::var("GRAZELLE_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1)
}

fn base_config() -> EngineConfig {
    EngineConfig::new().with_threads(threads())
}

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..repeats()).map(|_| f()).collect();
    median(&mut samples)
}

/// Runs PageRank and returns (per-iteration seconds, stats). Every
/// sample is logged to the run log under `pr:<abbr>` for the `--json`
/// documents; samples from different configs of one experiment share
/// the label and are medianed together by the gate.
fn time_pagerank(w: &Workload, cfg: &EngineConfig, pool: &ThreadPool) -> (f64, ExecutionStats) {
    let iters = pagerank_iterations(w.dataset);
    let mut last_stats = None;
    let label = format!("pr:{}", w.dataset.abbr());
    let secs = median_secs(|| {
        let prog = PageRank::new(&w.graph, pagerank::DAMPING);
        let mut c = *cfg;
        c.max_iterations = iters;
        let stats = run_program_on_pool(&w.prepared, &prog, &c, pool);
        let t = stats.wall.as_secs_f64() / iters.max(1) as f64;
        log_run(RunRecord::from_stats(&label, t, &stats));
        last_stats = Some(stats);
        t
    });
    (secs, last_stats.unwrap())
}

/// Runs CC to convergence and returns total seconds.
fn time_cc(w: &Workload, cfg: &EngineConfig, pool: &ThreadPool, write_intense: bool) -> f64 {
    let label = format!(
        "{}:{}",
        if write_intense { "cc-w" } else { "cc" },
        w.dataset.abbr()
    );
    median_secs(|| {
        let prog = if write_intense {
            ConnectedComponents::write_intense_variant(w.graph.num_vertices())
        } else {
            ConnectedComponents::new(w.graph.num_vertices())
        };
        let stats = run_program_on_pool(&w.prepared, &prog, cfg, pool);
        let t = stats.wall.as_secs_f64();
        log_run(RunRecord::from_stats(&label, t, &stats));
        t
    })
}

/// Runs BFS from vertex 0 and returns total seconds.
fn time_bfs(w: &Workload, cfg: &EngineConfig, pool: &ThreadPool) -> f64 {
    let label = format!("bfs:{}", w.dataset.abbr());
    median_secs(|| {
        let prog = Bfs::new(w.graph.num_vertices(), 0);
        let stats = run_program_on_pool(&w.prepared, &prog, cfg, pool);
        let t = stats.wall.as_secs_f64();
        log_run(RunRecord::from_stats(&label, t, &stats));
        t
    })
}

/// Sampling policy recorded in each experiment's JSON document: how the
/// reported numbers were reduced from raw repeats.
pub fn sampling_policy(name: &str) -> &'static str {
    match name {
        "resilience-overhead"
        | "recorder-overhead"
        | "gate"
        | "build-throughput"
        | "build-large"
        | "serve-latency" => "best-of-N",
        _ => "median-of-N",
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Dataset inventory (paper Table 1, measured over the stand-ins).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 — dataset stand-ins (seeded synthetic, DESIGN.md §4.1)",
        &[
            "abbr",
            "name",
            "|V|",
            "|E|",
            "avg deg",
            "max in",
            "in-deg CV",
        ],
    );
    t.note(&format!(
        "scale shift {} relative to nominal stand-in size",
        crate::workloads::scale_shift()
    ));
    for ds in Dataset::all() {
        let w = workload(ds);
        let s = GraphSummary::of(&w.graph);
        t.row(vec![
            ds.abbr().into(),
            s.name,
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            format!("{:.2}", s.avg_degree),
            s.in_degrees.max.to_string(),
            format!("{:.2}", s.in_degrees.cv),
        ]);
    }
    t
}

/// Suggested PageRank iteration counts (paper Table 2), as adopted by this
/// harness (scaled ~16×, preserving the relative weighting).
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2 — suggested PageRank iteration counts",
        &[
            "graph",
            "paper (vertex bench)",
            "paper (all others)",
            "harness default",
        ],
    );
    t.note("harness values scale the paper's 'all others' column by ~1/16 for laptop-sized runs");
    let paper: [(Dataset, u32, u32); 6] = [
        (Dataset::CitPatents, 1024, 1024),
        (Dataset::DimacsUsa, 256, 256),
        (Dataset::LiveJournal, 1024, 256),
        (Dataset::Twitter2010, 64, 16),
        (Dataset::Friendster, 64, 16),
        (Dataset::Uk2007, 32, 16),
    ];
    for (ds, vtx, others) in paper {
        t.row(vec![
            ds.abbr().into(),
            vtx.to_string(),
            others.to_string(),
            pagerank_iterations(ds).to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Ligra loop-parallelization configurations on the twitter-2010 stand-in
/// (paper Figure 1): speedup of each configuration over PushS.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "Figure 1 — Ligra-like loop parallelization, twitter-2010 stand-in",
        &[
            "app",
            "PushS",
            "PushP",
            "PushP+PullS",
            "PushP+PullP",
            "+PullP-NoSync",
        ],
    );
    t.note("speedup over PushS; >1 is faster. NoSync may produce wrong output (by design)");
    let configs = [
        LigraConfig::push_s(),
        LigraConfig::push_p(),
        LigraConfig::hybrid_pull_s(),
        LigraConfig::hybrid_pull_p(),
        LigraConfig::hybrid_pull_p_nosync(),
    ];
    let pool = ThreadPool::single_group(threads());

    // PageRank (directed stand-in).
    let w = workload(Dataset::Twitter2010);
    let engine = LigraEngine::new(&w.graph);
    let iters = pagerank_iterations(Dataset::Twitter2010);
    let pr_times: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            median_secs(|| {
                let prog = PageRank::new(&w.graph, pagerank::DAMPING);
                let stats = engine.run(&w.graph, &prog, &pool, cfg, iters);
                stats.wall.as_secs_f64()
            })
        })
        .collect();

    // CC and BFS (symmetric stand-in).
    let ws = workload_symmetric(Dataset::Twitter2010);
    let engine_s = LigraEngine::new(&ws.graph);
    let cc_times: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            median_secs(|| {
                let prog = ConnectedComponents::new(ws.graph.num_vertices());
                engine_s
                    .run(&ws.graph, &prog, &pool, cfg, 1000)
                    .wall
                    .as_secs_f64()
            })
        })
        .collect();
    let bfs_times: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            median_secs(|| {
                let prog = Bfs::new(ws.graph.num_vertices(), 0);
                engine_s
                    .run(&ws.graph, &prog, &pool, cfg, 1000)
                    .wall
                    .as_secs_f64()
            })
        })
        .collect();

    for (app, times) in [
        ("PageRank", pr_times),
        ("ConnectedComponents", cc_times),
        ("BFS", bfs_times),
    ] {
        let base = times[0];
        let mut row = vec![app.to_string()];
        row.extend(times.iter().map(|&x| fmt_speedup(base / x)));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 5a / 5b
// ---------------------------------------------------------------------------

const FIG5_MODES: [(PullMode, &str); 3] = [
    (PullMode::Traditional, "Traditional"),
    (PullMode::TraditionalNoAtomic, "Trad-Nonatomic"),
    (PullMode::SchedulerAware, "Scheduler-Aware"),
];

fn fig5_config(mode: PullMode) -> EngineConfig {
    base_config()
        .with_pull_mode(mode)
        .with_granularity(Granularity::VectorsPerChunk(1000))
}

/// Scheduler awareness on PageRank (paper Figure 5a): execution time of
/// each interface relative to Traditional. Lower is better.
pub fn fig5a() -> Table {
    let mut t = Table::new(
        "Figure 5a — PageRank, scheduler awareness (rel. exec time vs Traditional)",
        &[
            "graph",
            "Traditional",
            "Trad-Nonatomic",
            "Scheduler-Aware",
            "SA speedup",
        ],
    );
    t.note("granularity fixed at 1,000 edge vectors per chunk (paper setting)");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload(ds);
        let times: Vec<f64> = FIG5_MODES
            .iter()
            .map(|&(mode, _)| time_pagerank(w, &fig5_config(mode), &pool).0)
            .collect();
        let base = times[0];
        t.row(vec![
            ds.abbr().into(),
            "1.00".into(),
            format!("{:.2}", times[1] / base),
            format!("{:.2}", times[2] / base),
            fmt_speedup(base / times[2]),
        ]);
    }
    t
}

/// Execution-time profile per interface (paper Figure 5b):
/// work/merge/write/idle fractions from the in-process profiler.
pub fn fig5b() -> Table {
    let mut t = Table::new(
        "Figure 5b — PageRank execution profile per interface",
        &["graph", "interface", "work", "merge", "write", "idle"],
    );
    t.note("instrumented timers replace the paper's perf traces (DESIGN.md §4.5)");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload(ds);
        for &(mode, name) in &FIG5_MODES {
            let (_, stats) = time_pagerank(w, &fig5_config(mode), &pool);
            let (work, merge, write, idle) = stats.profile.fractions();
            t.row(vec![
                ds.abbr().into(),
                name.into(),
                fmt_pct(work),
                fmt_pct(merge),
                fmt_pct(write),
                fmt_pct(idle),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Sensitivity of PageRank to chunk size (paper Figure 6). Execution time
/// relative to Traditional at the smallest granularity, per graph.
pub fn fig6() -> Table {
    let mut t = Table::new(
        "Figure 6 — PageRank sensitivity to scheduling granularity",
        &["graph", "vectors/chunk", "Traditional", "Scheduler-Aware"],
    );
    t.note("relative to Traditional at the smallest granularity of each graph; lower is better");
    let pool = ThreadPool::single_group(threads());
    for ds in [Dataset::DimacsUsa, Dataset::Twitter2010, Dataset::Uk2007] {
        let w = workload(ds);
        // uk-2007's granularities are 10x the others' (paper note).
        let mult = if ds == Dataset::Uk2007 { 10 } else { 1 };
        let grans: Vec<usize> = [100, 300, 1000, 3000, 10000]
            .iter()
            .map(|g| g * mult)
            .collect();
        let mut base = None;
        for g in grans {
            let cfg_t = base_config()
                .with_pull_mode(PullMode::Traditional)
                .with_granularity(Granularity::VectorsPerChunk(g));
            let cfg_sa = base_config()
                .with_pull_mode(PullMode::SchedulerAware)
                .with_granularity(Granularity::VectorsPerChunk(g));
            let tt = time_pagerank(w, &cfg_t, &pool).0;
            let ts = time_pagerank(w, &cfg_sa, &pool).0;
            let b = *base.get_or_insert(tt);
            t.row(vec![
                ds.abbr().into(),
                g.to_string(),
                format!("{:.2}", tt / b),
                format!("{:.2}", ts / b),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Multi-core scaling (paper Figure 7): PageRank performance relative to
/// the traditional interface with one thread.
pub fn fig7() -> Table {
    let mut t = Table::new(
        "Figure 7 — PageRank multi-core scaling (perf rel. Traditional @ 1 thread)",
        &["graph", "threads", "Traditional", "Scheduler-Aware"],
    );
    t.note("HARDWARE-GATED on this host (single core): absolute scaling is flat; the Traditional-vs-SA contrast remains valid (DESIGN.md §4.2)");
    let max_threads = threads().max(4);
    let sweep: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|&n| n <= max_threads * 2)
        .collect();
    for ds in [Dataset::DimacsUsa, Dataset::Twitter2010, Dataset::Uk2007] {
        let w = workload(ds);
        let gran = if ds == Dataset::Uk2007 { 50000 } else { 5000 };
        let mut base = None;
        for &n in &sweep {
            let pool = ThreadPool::single_group(n);
            let cfg_t = base_config()
                .with_threads(n)
                .with_pull_mode(PullMode::Traditional)
                .with_granularity(Granularity::VectorsPerChunk(gran));
            let cfg_sa = cfg_t.with_pull_mode(PullMode::SchedulerAware);
            let tt = time_pagerank(w, &cfg_t, &pool).0;
            let ts = time_pagerank(w, &cfg_sa, &pool).0;
            let b = *base.get_or_insert(tt);
            t.row(vec![
                ds.abbr().into(),
                n.to_string(),
                fmt_speedup(b / tt),
                fmt_speedup(b / ts),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Scheduler awareness on Connected Components (paper Figure 8):
/// write-intense (8a) and standard (8b) variants at Grazelle's default
/// granularity. Relative execution time; lower is better.
pub fn fig8() -> Vec<Table> {
    let pool = ThreadPool::single_group(threads());
    let mut tables = Vec::new();
    for (write_intense, title) in [
        (true, "Figure 8a — Connected Components (write-intense)"),
        (false, "Figure 8b — Connected Components (standard)"),
    ] {
        let mut t = Table::new(
            title,
            &["graph", "Traditional", "Trad-Nonatomic", "Scheduler-Aware"],
        );
        t.note("relative exec time vs Traditional; default 32n-chunk granularity");
        for ds in Dataset::all() {
            let w = workload_symmetric(ds);
            let times: Vec<f64> = FIG5_MODES
                .iter()
                .map(|&(mode, _)| {
                    let cfg = base_config().with_pull_mode(mode);
                    time_cc(w, &cfg, &pool, write_intense)
                })
                .collect();
            let base = times[0];
            t.row(vec![
                ds.abbr().into(),
                "1.00".into(),
                format!("{:.2}", times[1] / base),
                format!("{:.2}", times[2] / base),
            ]);
        }
        tables.push(t);
    }
    tables
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// Packing efficiency on the real-graph stand-ins (paper Figure 9a).
pub fn fig9a() -> Table {
    let mut t = Table::new(
        "Figure 9a — Vector-Sparse packing efficiency (real-graph stand-ins)",
        &["graph", "4-lane", "8-lane", "16-lane", "space overhead (4)"],
    );
    t.note("VSD orientation (in-degrees); analytic, validated against built structures by property tests");
    for ds in Dataset::all() {
        let w = workload(ds);
        let degs = w.graph.in_csr().degrees();
        t.row(vec![
            ds.abbr().into(),
            fmt_pct(packing_efficiency(&degs, 4)),
            fmt_pct(packing_efficiency(&degs, 8)),
            fmt_pct(packing_efficiency(&degs, 16)),
            format!("{:.2}x", space_overhead(&degs, 4)),
        ]);
    }
    t
}

/// Packing efficiency across a synthetic R-MAT sweep (paper Figure 9b:
/// 30 graphs over average degree).
pub fn fig9b() -> Table {
    let mut t = Table::new(
        "Figure 9b — packing efficiency, synthetic R-MAT sweep (30 graphs)",
        &["log2(avg deg)", "seed", "4-lane", "8-lane", "16-lane"],
    );
    t.note("R-MAT scale 11, edge factors 2^0..2^9, 3 seeds each");
    for log_ef in 0..10u32 {
        for seed in 0..3u64 {
            let cfg = RmatConfig {
                simplify: false,
                ..RmatConfig::graph500(11, (1u64 << log_ef) as f64, 1000 + seed)
            };
            let el = rmat(&cfg);
            let degs = el.in_degrees();
            t.row(vec![
                log_ef.to_string(),
                seed.to_string(),
                fmt_pct(packing_efficiency(&degs, 4)),
                fmt_pct(packing_efficiency(&degs, 8)),
                fmt_pct(packing_efficiency(&degs, 16)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Per-phase vectorization speedup for PageRank (paper Figure 10a).
pub fn fig10a() -> Table {
    let mut t = Table::new(
        "Figure 10a — vectorization speedup by phase (PageRank)",
        &["graph", "Edge-Pull", "Edge-Push", "Vertex"],
    );
    t.note("scalar kernels vs AVX2 kernels; Edge-Push is expected ~1x (no atomic-scatter instructions), Vertex ~1x when memory-bound");
    let pool = ThreadPool::single_group(threads());
    let best = grazelle_vsparse::simd::detect();
    for ds in Dataset::all() {
        let w = workload(ds);
        // Edge-Pull and Vertex times come from the phase profiler of a
        // pull-pinned run; Edge-Push from a push-pinned run.
        let phase_times = |simd: SimdLevel| -> (f64, f64, f64) {
            let pull_cfg = base_config()
                .with_simd(simd)
                .with_force_engine(Some(EngineKind::Pull));
            let (_, pull_stats) = time_pagerank(w, &pull_cfg, &pool);
            let push_cfg = base_config()
                .with_simd(simd)
                .with_force_engine(Some(EngineKind::Push));
            let (_, push_stats) = time_pagerank(w, &push_cfg, &pool);
            (
                pull_stats.profile.edge_wall.as_secs_f64(),
                push_stats.profile.edge_wall.as_secs_f64(),
                pull_stats.profile.write.as_secs_f64(),
            )
        };
        let (pull_s, push_s, vert_s) = phase_times(SimdLevel::Scalar);
        let (pull_v, push_v, vert_v) = phase_times(best);
        t.row(vec![
            ds.abbr().into(),
            fmt_speedup(pull_s / pull_v),
            fmt_speedup(push_s / push_v),
            fmt_speedup(vert_s / vert_v),
        ]);
    }
    t
}

/// End-to-end vectorization speedup per application (paper Figure 10b).
pub fn fig10b() -> Table {
    let mut t = Table::new(
        "Figure 10b — end-to-end vectorization speedup by application",
        &["graph", "PR", "CC", "BFS"],
    );
    t.note("scalar vs AVX2; benefit tracks how much each app uses Edge-Pull");
    let pool = ThreadPool::single_group(threads());
    let best = grazelle_vsparse::simd::detect();
    for ds in Dataset::all() {
        let w = workload(ds);
        let ws = workload_symmetric(ds);
        let pr = |simd| time_pagerank(w, &base_config().with_simd(simd), &pool).0;
        let cc = |simd| time_cc(ws, &base_config().with_simd(simd), &pool, false);
        let bfs = |simd| time_bfs(ws, &base_config().with_simd(simd), &pool);
        t.row(vec![
            ds.abbr().into(),
            fmt_speedup(pr(SimdLevel::Scalar) / pr(best)),
            fmt_speedup(cc(SimdLevel::Scalar) / cc(best)),
            fmt_speedup(bfs(SimdLevel::Scalar) / bfs(best)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 11 / 12 / 13
// ---------------------------------------------------------------------------

fn group_pool(sockets: usize) -> (ThreadPool, usize) {
    // Socket stand-in: `sockets` logical groups, 2 threads per group.
    let threads = sockets * 2;
    (ThreadPool::new(threads, sockets), threads)
}

/// PageRank per-iteration time across frameworks (paper Figure 11).
pub fn fig11(sockets: usize) -> Table {
    let mut t = Table::new(
        &format!("Figure 11 — PageRank per-iteration time, {sockets} socket-group(s)"),
        &[
            "graph",
            "Grazelle-Pull",
            "Grazelle-Push",
            "Ligra-Pull",
            "Ligra-Push",
            "Polymer",
            "GraphMat",
            "X-Stream",
        ],
    );
    t.note("lower is better; socket = logical thread group of 2 (DESIGN.md §4.2)");
    let (pool, nthreads) = group_pool(sockets);
    for ds in Dataset::all() {
        let w = workload(ds);
        let iters = pagerank_iterations(ds);
        let cfg = base_config().with_threads(nthreads).with_groups(sockets);

        let gz_pull = time_pagerank(w, &cfg.with_force_engine(Some(EngineKind::Pull)), &pool).0;
        let gz_push = time_pagerank(w, &cfg.with_force_engine(Some(EngineKind::Push)), &pool).0;

        let ligra = LigraEngine::new(&w.graph);
        let ligra_time = |lcfg: &LigraConfig| {
            median_secs(|| {
                let prog = PageRank::new(&w.graph, pagerank::DAMPING);
                ligra
                    .run(&w.graph, &prog, &pool, lcfg, iters)
                    .wall
                    .as_secs_f64()
            }) / iters as f64
        };
        let ligra_pull = ligra_time(&LigraConfig::hybrid_pull_s());
        let ligra_push = ligra_time(&LigraConfig::push_p());

        let polymer = PolymerEngine::new(&w.graph, sockets);
        let polymer_t = median_secs(|| {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            polymer
                .run(&w.graph, &prog, &pool, iters)
                .wall
                .as_secs_f64()
        }) / iters as f64;

        let graphmat_t = median_secs(|| {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            GraphMatEngine::new()
                .run(&w.graph, &prog, &pool, iters)
                .wall
                .as_secs_f64()
        }) / iters as f64;

        let xs = XStreamEngine::new(&w.graph);
        let xstream_t = median_secs(|| {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            xs.run(&prog, &pool, iters).wall.as_secs_f64()
        }) / iters as f64;

        t.row(vec![
            ds.abbr().into(),
            fmt_duration(Duration::from_secs_f64(gz_pull)),
            fmt_duration(Duration::from_secs_f64(gz_push)),
            fmt_duration(Duration::from_secs_f64(ligra_pull)),
            fmt_duration(Duration::from_secs_f64(ligra_push)),
            fmt_duration(Duration::from_secs_f64(polymer_t)),
            fmt_duration(Duration::from_secs_f64(graphmat_t)),
            fmt_duration(Duration::from_secs_f64(xstream_t)),
        ]);
    }
    t
}

/// Shared body for Figures 12 (CC) and 13 (BFS): total execution time
/// across frameworks on the symmetric stand-ins.
fn framework_totals(
    title: &str,
    sockets: usize,
    run_app: impl Fn(&Workload, &ThreadPool, FrameworkArm) -> f64,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "graph",
            "Grazelle",
            "Ligra",
            "Ligra-Dense",
            "Polymer",
            "GraphMat",
            "X-Stream",
        ],
    );
    t.note("total time to convergence; lower is better");
    let (pool, _) = group_pool(sockets);
    for ds in Dataset::all() {
        let w = workload_symmetric(ds);
        let mut row = vec![ds.abbr().to_string()];
        for arm in [
            FrameworkArm::Grazelle,
            FrameworkArm::Ligra,
            FrameworkArm::LigraDense,
            FrameworkArm::Polymer(sockets),
            FrameworkArm::GraphMat,
            FrameworkArm::XStream,
        ] {
            let secs = run_app(w, &pool, arm);
            row.push(fmt_duration(Duration::from_secs_f64(secs)));
        }
        t.row(row);
    }
    t
}

/// One column of the Figure 12/13 comparisons.
#[derive(Clone, Copy)]
pub enum FrameworkArm {
    Grazelle,
    Ligra,
    LigraDense,
    Polymer(usize),
    GraphMat,
    XStream,
}

fn run_framework<P: GraphProgram>(
    w: &Workload,
    pool: &ThreadPool,
    arm: FrameworkArm,
    make: impl Fn() -> P,
) -> f64 {
    const MAX_ITERS: usize = 10_000;
    median_secs(|| match arm {
        FrameworkArm::Grazelle => {
            let prog = make();
            let cfg = EngineConfig::new()
                .with_threads(pool.num_threads())
                .with_groups(pool.num_groups());
            run_program_on_pool(&w.prepared, &prog, &cfg, pool)
                .wall
                .as_secs_f64()
        }
        FrameworkArm::Ligra | FrameworkArm::LigraDense => {
            let prog = make();
            let engine = LigraEngine::new(&w.graph);
            let lcfg = if matches!(arm, FrameworkArm::LigraDense) {
                LigraConfig::dense()
            } else {
                LigraConfig::standard()
            };
            engine
                .run(&w.graph, &prog, pool, &lcfg, MAX_ITERS)
                .wall
                .as_secs_f64()
        }
        FrameworkArm::Polymer(groups) => {
            let prog = make();
            let engine = PolymerEngine::new(&w.graph, groups);
            engine
                .run(&w.graph, &prog, pool, MAX_ITERS)
                .wall
                .as_secs_f64()
        }
        FrameworkArm::GraphMat => {
            let prog = make();
            GraphMatEngine::new()
                .run(&w.graph, &prog, pool, MAX_ITERS)
                .wall
                .as_secs_f64()
        }
        FrameworkArm::XStream => {
            let prog = make();
            let engine = XStreamEngine::new(&w.graph);
            engine.run(&prog, pool, MAX_ITERS).wall.as_secs_f64()
        }
    })
}

/// Connected Components across frameworks (paper Figure 12).
pub fn fig12(sockets: usize) -> Table {
    framework_totals(
        &format!("Figure 12 — Connected Components total time, {sockets} socket-group(s)"),
        sockets,
        |w, pool, arm| {
            run_framework(w, pool, arm, || {
                ConnectedComponents::new(w.graph.num_vertices())
            })
        },
    )
}

/// Breadth-First Search across frameworks (paper Figure 13).
pub fn fig13(sockets: usize) -> Table {
    framework_totals(
        &format!("Figure 13 — Breadth-First Search total time, {sockets} socket-group(s)"),
        sockets,
        |w, pool, arm| run_framework(w, pool, arm, || Bfs::new(w.graph.num_vertices(), 0)),
    )
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// Chunk-count multiplier ablation: the paper's 32·n default vs 4·n / 128·n.
pub fn ablate_chunks() -> Table {
    let mut t = Table::new(
        "Ablation — chunks-per-thread multiplier (PageRank, scheduler-aware)",
        &["graph", "4n", "32n (paper)", "128n"],
    );
    t.note("per-iteration time relative to 32n; the paper found 32n near-ideal");
    let pool = ThreadPool::single_group(threads());
    for ds in [Dataset::DimacsUsa, Dataset::Twitter2010, Dataset::Uk2007] {
        let w = workload(ds);
        let time_mult = |mult: usize| {
            let chunks = mult * threads();
            let per = w.prepared.vsd.num_vectors().div_ceil(chunks).max(1);
            let cfg = base_config().with_granularity(Granularity::VectorsPerChunk(per));
            time_pagerank(w, &cfg, &pool).0
        };
        let t4 = time_mult(4);
        let t32 = time_mult(32);
        let t128 = time_mult(128);
        t.row(vec![
            ds.abbr().into(),
            format!("{:.2}", t4 / t32),
            "1.00".into(),
            format!("{:.2}", t128 / t32),
        ]);
    }
    t
}

/// Merge-pass cost ablation: what fraction of Edge-phase time the
/// sequential merge actually takes (justifying the paper's choice not to
/// parallelize it).
pub fn ablate_merge() -> Table {
    let mut t = Table::new(
        "Ablation — sequential merge-pass cost (PageRank, scheduler-aware)",
        &[
            "graph",
            "merge entries",
            "merge time",
            "edge-phase wall",
            "merge fraction",
        ],
    );
    t.note("paper §3: the final merge \"executes sequentially … because it is extremely fast\"");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload(ds);
        let (_, stats) = time_pagerank(w, &base_config(), &pool);
        let p = stats.profile;
        let frac = if p.edge_wall.as_nanos() == 0 {
            0.0
        } else {
            p.merge.as_secs_f64() / (p.edge_wall.as_secs_f64() + p.merge.as_secs_f64())
        };
        t.row(vec![
            ds.abbr().into(),
            p.merge_entries.to_string(),
            fmt_duration(p.merge),
            fmt_duration(p.edge_wall),
            fmt_pct(frac),
        ]);
    }
    t
}

/// Vector-width ablation: packing efficiency, space overhead, and measured
/// masked-gather throughput per lane count. 4-lane uses the AVX2 kernels
/// (the paper's configuration); 8-lane uses the AVX-512F kernels — the
/// paper's sketched "longer vectors" extension, implemented here.
pub fn ablate_width() -> Table {
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::{detect8, AllActive, Carry, Kernels, Kernels8, Run, Sum};
    let mut t = Table::new(
        "Ablation — vector width (VSD packing, space, gather-sum throughput)",
        &[
            "graph",
            "eff 4",
            "eff 8",
            "eff 16",
            "ovh 4",
            "ovh 8",
            "4-lane Medge/s",
            "8-lane Medge/s",
        ],
    );
    t.note(&format!(
        "4-lane = AVX2 kernels; 8-lane = AVX-512 extension (detected: {:?})",
        detect8()
    ));
    for ds in Dataset::all() {
        let w = workload(ds);
        let degs = w.graph.in_csr().degrees();
        let vsd4 = &w.prepared.vsd;
        let vsd8 = VectorSparse::<8>::from_csr(w.graph.in_csr());
        let values: Vec<f64> = (0..w.graph.num_vertices()).map(|i| i as f64).collect();
        let k4 = Kernels::auto();
        let k8 = Kernels8::auto();
        let edges = w.graph.num_edges() as f64;
        let rate4 = {
            let secs = median_secs(|| {
                let started = std::time::Instant::now();
                let run = Run::unweighted(&values, vsd4.vectors());
                let mut carry = Carry::new(run.vectors[0].top_level_vertex(), 0.0);
                let mut acc = 0.0;
                // SAFETY: `values` covers every vertex id in the VSD.
                unsafe { k4.walk::<Sum, _, _>(run, AllActive, &mut carry, &mut |_, v| acc += v) };
                std::hint::black_box(acc + carry.reduce(|a, b| a + b));
                started.elapsed().as_secs_f64()
            });
            edges / secs / 1e6
        };
        let rate8 = {
            let secs = median_secs(|| {
                let started = std::time::Instant::now();
                let mut acc = 0.0;
                for ev in vsd8.vectors() {
                    // SAFETY: as above.
                    acc += unsafe { k8.gather_sum_raw(&values, ev, 0xFF) };
                }
                std::hint::black_box(acc);
                started.elapsed().as_secs_f64()
            });
            edges / secs / 1e6
        };
        t.row(vec![
            ds.abbr().into(),
            fmt_pct(packing_efficiency(&degs, 4)),
            fmt_pct(packing_efficiency(&degs, 8)),
            fmt_pct(packing_efficiency(&degs, 16)),
            format!("{:.2}x", space_overhead(&degs, 4)),
            format!("{:.2}x", space_overhead(&degs, 8)),
            format!("{rate4:.1}"),
            format!("{rate8:.1}"),
        ]);
    }
    t
}

/// Scheduler-kind ablation: the same scheduler-aware pull engine under the
/// central chunk queue vs the locality-first stealing assignment — the §3
/// claim that the interface "does not restrict the behavior of the
/// scheduler itself", demonstrated with two schedulers.
pub fn ablate_sched() -> Table {
    use grazelle_core::config::SchedKind;
    let mut t = Table::new(
        "Ablation — chunk scheduler kind (PageRank, scheduler-aware)",
        &[
            "graph",
            "central ms/iter",
            "stealing ms/iter",
            "stealing speedup",
        ],
    );
    t.note("identical chunk geometry; only assignment differs (results are bit-identical)");
    let pool = ThreadPool::single_group(threads());
    for ds in [Dataset::DimacsUsa, Dataset::Twitter2010, Dataset::Uk2007] {
        let w = workload(ds);
        let central = time_pagerank(w, &base_config().with_sched_kind(SchedKind::Central), &pool).0;
        let stealing = time_pagerank(
            w,
            &base_config().with_sched_kind(SchedKind::LocalityStealing),
            &pool,
        )
        .0;
        t.row(vec![
            ds.abbr().into(),
            format!("{:.3}", central * 1e3),
            format!("{:.3}", stealing * 1e3),
            fmt_speedup(central / stealing),
        ]);
    }
    t
}

/// Vertex-ordering locality ablation: the data-layout lever from the
/// paper's Related Work discussion (§3). Same graph, three labelings, the
/// full scheduler-aware vectorized engine.
pub fn ablate_order() -> Table {
    use grazelle_graph::reorder::{bfs_order, by_degree, mean_edge_span};
    let mut t = Table::new(
        "Ablation — vertex ordering (PageRank per-iteration time)",
        &[
            "graph",
            "ordering",
            "mean edge span",
            "ms/iter",
            "vs natural",
        ],
    );
    t.note("relabelings change memory locality only; results permute exactly");
    let pool = ThreadPool::single_group(threads());
    for ds in [Dataset::Twitter2010, Dataset::Uk2007] {
        let w = workload(ds);
        let natural = w.graph.clone();
        let (deg, _) = by_degree(&natural);
        let (bfs, _) = bfs_order(&natural, 0);
        let mut base = None;
        for (name, g) in [("natural", &natural), ("by-degree", &deg), ("bfs", &bfs)] {
            let pg = grazelle_core::engine::PreparedGraph::new(g);
            let iters = pagerank_iterations(ds);
            let secs = median_secs(|| {
                let prog = PageRank::new(g, pagerank::DAMPING);
                let cfg = base_config().with_max_iterations(iters);
                let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
                stats.wall.as_secs_f64() / iters as f64
            });
            let b = *base.get_or_insert(secs);
            t.row(vec![
                ds.abbr().into(),
                name.into(),
                format!("{:.0}", mean_edge_span(g)),
                format!("{:.3}", secs * 1e3),
                format!("{:.2}", secs / b),
            ]);
        }
    }
    t
}

/// Engine-level vector-width ablation: one scheduler-aware Edge-Pull sum
/// phase through the 4-lane (AVX2) engine vs the 8-lane (AVX-512)
/// extension engine.
pub fn ablate_wide_engine() -> Table {
    use grazelle_core::engine::pull::{edge_pull, EdgeSchedulers};
    use grazelle_core::engine::pull_wide::edge_pull8;
    use grazelle_core::frontier::Frontier;
    use grazelle_core::program::AggOp;
    use grazelle_core::properties::PropertyArray;
    use grazelle_core::spmv::{program_kernel, SemiringKernel};
    use grazelle_core::stats::Profiler;
    use grazelle_sched::slots::SlotBuffer;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::{Kernels, Kernels8};

    struct SumProg {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl GraphProgram for SumProg {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Sum
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
            false
        }
    }

    let mut t = Table::new(
        "Ablation — Edge-Pull engine width: 4-lane (AVX2) vs 8-lane (AVX-512)",
        &["graph", "4-lane ms", "8-lane ms", "8-lane speedup"],
    );
    t.note("one scheduler-aware sum phase over all in-edges; identical results asserted");
    let pool = ThreadPool::single_group(threads());
    let chunks = 32 * threads();
    for ds in Dataset::all() {
        let w = workload(ds);
        let n = w.graph.num_vertices();
        let make_prog = || {
            let prog = SumProg {
                vals: PropertyArray::new(n),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            for v in 0..n {
                prog.vals.set_f64(v, (v % 13) as f64);
            }
            prog
        };
        let frontier = Frontier::all(n);

        let prog4 = make_prog();
        let kern4 = program_kernel(&prog4, &w.prepared.vsd, Kernels::auto());
        let scheds = EdgeSchedulers::single(w.prepared.vsd.num_vectors(), chunks);
        let t4 = median_secs(|| {
            prog4.acc.fill_f64(0.0);
            scheds.reset();
            let mut merge = SlotBuffer::new(scheds.total_chunks());
            let prof = Profiler::new();
            let started = std::time::Instant::now();
            edge_pull(
                &w.prepared.vsd,
                &kern4,
                &frontier,
                &pool,
                &scheds,
                None,
                &mut merge,
                PullMode::SchedulerAware,
                None,
                &prof,
            );
            started.elapsed().as_secs_f64()
        });

        let vsd8 = VectorSparse::<8>::from_csr(w.graph.in_csr());
        let prog8 = make_prog();
        let kern8 = SemiringKernel::for_structure8(&prog8, &vsd8, Kernels8::auto());
        let t8 = median_secs(|| {
            prog8.acc.fill_f64(0.0);
            let prof = Profiler::new();
            let started = std::time::Instant::now();
            edge_pull8(&vsd8, &kern8, &frontier, None, &pool, chunks, &prof);
            started.elapsed().as_secs_f64()
        });

        // Same answer from both engines (integer-valued sums: exact).
        for v in 0..n {
            assert_eq!(
                prog4.acc.get_f64(v),
                prog8.acc.get_f64(v),
                "width mismatch at v{v} on {ds:?}"
            );
        }

        t.row(vec![
            ds.abbr().into(),
            format!("{:.3}", t4 * 1e3),
            format!("{:.3}", t8 * 1e3),
            fmt_speedup(t4 / t8),
        ]);
    }
    t
}

/// Sparse-frontier extension ablation (the paper's stated future work,
/// §5): BFS total time with the sparse representation on vs off — the
/// Grazelle-side answer to the Figure 13 gap against Ligra.
pub fn ablate_sparse() -> Table {
    let mut t = Table::new(
        "Ablation — sparse frontier representation (BFS, Grazelle)",
        &["graph", "dense-only", "sparse switching", "speedup"],
    );
    t.note("extension beyond the paper: near-empty frontiers become sorted vertex lists");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload_symmetric(ds);
        let dense = time_bfs(w, &base_config().with_sparse_frontier(false), &pool);
        let sparse = time_bfs(w, &base_config().with_sparse_frontier(true), &pool);
        t.row(vec![
            ds.abbr().into(),
            fmt_duration(Duration::from_secs_f64(dense)),
            fmt_duration(Duration::from_secs_f64(sparse)),
            fmt_speedup(dense / sparse),
        ]);
    }
    t
}

/// Frontier-aware Edge-Pull ablation (DESIGN.md §11): BFS with the engine
/// pinned to pull, so every sparse iteration contrasts the full-array scan
/// against the compacted active-vector path with nothing else varying.
pub fn ablate_pull_frontier() -> Table {
    let mut t = Table::new(
        "Ablation — frontier-aware Edge-Pull (BFS, engine pinned to pull)",
        &["graph", "full-array pull", "frontier-aware pull", "speedup"],
    );
    t.note("extension beyond the paper: sparse pull iterations compact the Vector-Sparse index");
    t.note("into a per-iteration active-vector list instead of scanning every edge vector");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload_symmetric(ds);
        let pinned = base_config().with_force_engine(Some(EngineKind::Pull));
        let dense = time_bfs(w, &pinned.with_frontier_pull(false), &pool);
        let aware = time_bfs(w, &pinned.with_frontier_pull(true), &pool);
        t.row(vec![
            ds.abbr().into(),
            fmt_duration(Duration::from_secs_f64(dense)),
            fmt_duration(Duration::from_secs_f64(aware)),
            fmt_speedup(dense / aware),
        ]);
    }
    t
}

/// SPA push-scatter ablation (DESIGN.md §17): BFS and SSSP with the
/// engine pinned to push, timing the Edge phase under each scatter
/// discipline — the synchronized atomic scatter, the bucketed atomic-free
/// SPA, and the cost-model `Auto` resolution — at 1/2/8 worker threads.
/// Fixed points are asserted bit-identical across arms before timing
/// (the SPA merge's determinism contract).
pub fn ablate_push_spa() -> Table {
    use grazelle_apps::sssp::Sssp;
    use grazelle_core::config::ScatterMode;

    let mut t = Table::new(
        "Ablation — SPA push scatter (engine pinned to push, DESIGN.md §17)",
        &[
            "app:graph",
            "threads",
            "atomic ms",
            "spa ms",
            "auto ms",
            "spa speedup",
        ],
    );
    t.note("columns time the Edge phase only (scatter + merge wall), summed over supersteps");
    t.note("auto resolves per iteration via the direction cost model's scatter estimate");
    t.note("thread counts are pinned by the experiment (1/2/8), not GRAZELLE_THREADS");
    t.note("every arm's fixed point asserted bit-identical to the atomic arm before timing");
    let modes = [
        ("atomic", ScatterMode::Atomic),
        ("spa", ScatterMode::Spa),
        ("auto", ScatterMode::Auto),
    ];
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);

        // BFS: long-tail sparse frontiers on the road grid, hub-contended
        // mid-phase frontiers on the twitter skew — the regimes where the
        // push direction is chosen and the scatter discipline matters.
        for ds in [Dataset::DimacsUsa, Dataset::Twitter2010] {
            let w = workload_symmetric(ds);
            let n = w.graph.num_vertices();
            let mut want: Option<Vec<Option<u32>>> = None;
            let mut arm_ms = Vec::new();
            for (mode_name, mode) in modes {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_force_engine(Some(EngineKind::Push))
                    .with_scatter_mode(mode);
                let label = format!("spa:{mode_name}:bfs:{}:x{threads}", ds.abbr());
                let secs = median_secs(|| {
                    let prog = Bfs::new(n, 0);
                    let stats = run_program_on_pool(&w.prepared, &prog, &cfg, &pool);
                    let parents = prog.parents();
                    match &want {
                        None => want = Some(parents),
                        Some(w) => {
                            assert_eq!(w, &parents, "{mode_name} BFS arm diverged on {}", ds.abbr())
                        }
                    }
                    let push_secs = stats.profile.edge_wall.as_secs_f64();
                    log_run(RunRecord::from_stats(&label, push_secs, &stats));
                    push_secs
                });
                arm_ms.push(secs * 1e3);
            }
            t.row(vec![
                format!("bfs:{}", ds.abbr()),
                threads.to_string(),
                format!("{:.3}", arm_ms[0]),
                format!("{:.3}", arm_ms[1]),
                format!("{:.3}", arm_ms[2]),
                fmt_speedup(arm_ms[0] / arm_ms[1]),
            ]);
        }

        // SSSP: min-plus relaxations over exact binary-fraction weights —
        // more supersteps than BFS on the same structure, with repeated
        // re-relaxation of the same destinations (Min fold traffic).
        {
            let ds = Dataset::DimacsUsa;
            let w = crate::workloads::workload_weighted(ds);
            let n = w.graph.num_vertices();
            let mut want: Option<Vec<Option<f64>>> = None;
            let mut arm_ms = Vec::new();
            for (mode_name, mode) in modes {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_force_engine(Some(EngineKind::Push))
                    .with_scatter_mode(mode);
                let label = format!("spa:{mode_name}:sssp:{}:x{threads}", ds.abbr());
                let secs = median_secs(|| {
                    let prog = Sssp::new(n, 0);
                    let stats = run_program_on_pool(&w.prepared, &prog, &cfg, &pool);
                    let dists = prog.distances();
                    match &want {
                        None => want = Some(dists),
                        Some(w) => {
                            assert_eq!(w, &dists, "{mode_name} SSSP arm diverged on {}", ds.abbr())
                        }
                    }
                    let push_secs = stats.profile.edge_wall.as_secs_f64();
                    log_run(RunRecord::from_stats(&label, push_secs, &stats));
                    push_secs
                });
                arm_ms.push(secs * 1e3);
            }
            t.row(vec![
                format!("sssp:{}", ds.abbr()),
                threads.to_string(),
                format!("{:.3}", arm_ms[0]),
                format!("{:.3}", arm_ms[1]),
                format!("{:.3}", arm_ms[2]),
                fmt_speedup(arm_ms[0] / arm_ms[1]),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Resilience (ISSUE 2, DESIGN.md §9)
// ---------------------------------------------------------------------------

/// Clean-input overhead of the resilient execution path: PageRank through
/// `run_program_on_pool` vs `run_resilient_on_pool` with the watchdog and
/// divergence guard armed. The acceptance bar is ≤3% — the containment
/// machinery must be passive when nothing goes wrong.
pub fn resilience_overhead() -> Table {
    use grazelle_core::{run_resilient_on_pool, ResilienceContext, RunOutcome};
    let mut t = Table::new(
        "Resilience — clean-input overhead (PageRank, watchdog + divergence guard armed)",
        &["graph", "hybrid ms/iter", "resilient ms/iter", "overhead"],
    );
    t.note("acceptance: ≤3% overhead; every run must report RunOutcome::Clean with zero counters");
    t.note("≥16 iterations per run so one-time setup amortizes as in run-to-convergence use");
    t.note(
        "arms timed in back-to-back pairs; overhead compares best-of-N (host noise only adds time)",
    );
    let pool = ThreadPool::single_group(threads());
    let mut ratios: Vec<f64> = Vec::new();
    for ds in Dataset::all() {
        let w = workload(ds);
        let iters = pagerank_iterations(ds).max(48);
        let time_base = || {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            let mut c = base_config();
            c.max_iterations = iters;
            let stats = run_program_on_pool(&w.prepared, &prog, &c, &pool);
            stats.wall.as_secs_f64() / iters as f64
        };
        let time_resilient = || {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            let cfg = base_config()
                .with_max_iterations(iters)
                .with_watchdog(Some(Duration::from_secs(300)));
            let run =
                run_resilient_on_pool(&w.prepared, &prog, &cfg, &ResilienceContext::new(), &pool)
                    .expect("clean run must complete");
            assert_eq!(run.outcome, RunOutcome::Clean, "{ds:?}");
            assert!(run.stats.profile.resilience_clean(), "{ds:?}");
            run.stats.wall.as_secs_f64() / iters as f64
        };
        let (_, _) = (time_base(), time_resilient()); // warmup pair, discarded
        let mut base = f64::INFINITY;
        let mut resilient = f64::INFINITY;
        for _ in 0..repeats() {
            base = base.min(time_base());
            resilient = resilient.min(time_resilient());
        }
        let ratio = resilient / base;
        t.row(vec![
            ds.abbr().into(),
            format!("{:.3}", base * 1e3),
            format!("{:.3}", resilient * 1e3),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
        ]);
        ratios.push(ratio);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        format!("{:+.1}%", (geomean - 1.0) * 100.0),
    ]);
    t
}

/// Flight-recorder cost (DESIGN.md §10): PageRank with tracing off vs
/// on, paired back-to-back arms, best-of-N. The off arm *is* the
/// disabled path the ≤1% acceptance bar applies to — its only per-
/// superstep cost is one `is_enabled()` branch, bounded above by the
/// measured enabled-path overhead reported here (density + two
/// snapshots per superstep, shrinking with graph size).
pub fn recorder_overhead() -> Table {
    let mut t = Table::new(
        "Flight recorder — tracing overhead (PageRank, trace off vs on)",
        &["graph", "off ms/iter", "on ms/iter", "overhead"],
    );
    t.note("off arm = production default (disabled path, acceptance ≤1% vs no recorder at all)");
    t.note("overhead column = cost of turning tracing ON, an upper bound on the disabled branch");
    t.note(
        "arms timed in back-to-back pairs; overhead compares best-of-N (host noise only adds time)",
    );
    let pool = ThreadPool::single_group(threads());
    let mut ratios: Vec<f64> = Vec::new();
    for ds in Dataset::all() {
        let w = workload(ds);
        let iters = pagerank_iterations(ds).max(48);
        let time_arm = |trace: bool| {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            let cfg = base_config().with_max_iterations(iters).with_trace(trace);
            let stats = run_program_on_pool(&w.prepared, &prog, &cfg, &pool);
            if trace {
                assert_eq!(stats.records.len(), stats.iterations, "{ds:?}");
            } else {
                assert!(stats.records.is_empty(), "{ds:?}");
            }
            let secs = stats.wall.as_secs_f64() / iters as f64;
            let label = format!("rec-{}:pr:{}", if trace { "on" } else { "off" }, ds.abbr());
            log_run(RunRecord::from_stats(&label, secs, &stats));
            secs
        };
        let (_, _) = (time_arm(false), time_arm(true)); // warmup pair, discarded
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        for _ in 0..repeats() {
            off = off.min(time_arm(false));
            on = on.min(time_arm(true));
        }
        let ratio = on / off;
        t.row(vec![
            ds.abbr().into(),
            format!("{:.3}", off * 1e3),
            format!("{:.3}", on * 1e3),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
        ]);
        ratios.push(ratio);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        format!("{:+.1}%", (geomean - 1.0) * 100.0),
    ]);
    t
}

/// Perf-gate workload (DESIGN.md §10): PageRank through the resilient
/// path on three graphs, best-of-N, every sample logged so the JSON
/// document carries enough samples for the gate to median. The env knob
/// `GRAZELLE_GATE_STALL_MS` injects a deterministic superstep stall per
/// repeat — the CI regression drill proving the gate trips on a real
/// slowdown (the watchdog stays off so the stall slows, never kills).
pub fn gate() -> Table {
    use grazelle_core::{run_resilient_on_pool, ExecFaultPlan, ExecInjector, ResilienceContext};
    let mut t = Table::new(
        "Perf gate — PageRank via the resilient path (best-of-N)",
        &["graph", "ms/iter", "iterations", "events"],
    );
    let stall_ms: u64 = std::env::var("GRAZELLE_GATE_STALL_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    t.note(&format!(
        "GRAZELLE_GATE_STALL_MS={stall_ms} (0 = clean; >0 injects a per-repeat superstep stall)"
    ));
    let pool = ThreadPool::single_group(threads());
    for ds in [
        Dataset::CitPatents,
        Dataset::LiveJournal,
        Dataset::Twitter2010,
    ] {
        let w = workload(ds);
        let iters = pagerank_iterations(ds).max(24);
        let label = format!("gate:pr:{}", ds.abbr());
        let mut best = f64::INFINITY;
        let mut best_stats = None;
        {
            // Warmup run (not logged): pages the workload in so the first
            // timed repeat isn't polluted by cold caches.
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            let cfg = base_config().with_max_iterations(iters);
            run_program_on_pool(&w.prepared, &prog, &cfg, &pool);
        }
        for _ in 0..repeats().max(3) {
            let prog = PageRank::new(&w.graph, pagerank::DAMPING);
            let cfg = base_config().with_max_iterations(iters);
            let plan = if stall_ms > 0 {
                ExecFaultPlan::clean().with_stall(1, Duration::from_millis(stall_ms))
            } else {
                ExecFaultPlan::clean()
            };
            let inj = ExecInjector::new(plan);
            let rctx = ResilienceContext::new().with_injector(&inj);
            let run = run_resilient_on_pool(&w.prepared, &prog, &cfg, &rctx, &pool)
                .expect("gate run must complete");
            let secs = run.stats.wall.as_secs_f64() / iters as f64;
            log_run(RunRecord::from_stats(&label, secs, &run.stats));
            if secs < best {
                best = secs;
                best_stats = Some(run.stats);
            }
        }
        let s = best_stats.expect("at least two repeats ran");
        let p = &s.profile;
        t.row(vec![
            ds.abbr().into(),
            format!("{:.3}", best * 1e3),
            s.iterations.to_string(),
            if p.resilience_clean() {
                "clean".into()
            } else {
                format!(
                    "retries={} degraded={} rollbacks={}",
                    p.chunk_retries, p.degraded_iterations, p.divergence_rollbacks
                )
            },
        ]);
    }
    t
}

/// Fault-scenario matrix: each fault class injected into a PageRank run,
/// reporting how the resilience layer disposed of it and what the
/// counters recorded. Deterministic (seeded plans, no wall-clock
/// randomness): the same table reproduces bit-for-bit.
pub fn resilience_faults() -> Table {
    use grazelle_core::{
        run_resilient_on_pool, EngineError, ExecFaultPlan, ExecInjector, ResilienceContext,
    };
    let mut t = Table::new(
        "Resilience — injected-fault disposition (PageRank, twitter-2010 stand-in)",
        &[
            "scenario",
            "disposition",
            "retries",
            "panics",
            "degraded",
            "rollbacks",
        ],
    );
    t.note("every fault recovers (result matches the clean run) or fails typed; zero hangs");
    let pool = ThreadPool::single_group(threads());
    let w = workload(Dataset::Twitter2010);
    let iters = pagerank_iterations(Dataset::Twitter2010).max(6);
    let cfg = base_config()
        .with_max_iterations(iters)
        .with_watchdog(Some(Duration::from_millis(250)));

    let clean_ranks = {
        let prog = PageRank::new(&w.graph, pagerank::DAMPING);
        run_resilient_on_pool(&w.prepared, &prog, &cfg, &ResilienceContext::new(), &pool)
            .expect("clean run");
        prog.ranks()
    };

    let scenarios: [(&str, ExecFaultPlan); 4] = [
        (
            "chunk panic ×2 (within budget)",
            ExecFaultPlan::clean().with_chunk_panic(1, 0, 2),
        ),
        (
            "chunk panic ×100 (degrade)",
            ExecFaultPlan::clean().with_chunk_panic(1, 0, 100),
        ),
        (
            "NaN poison (rollback)",
            ExecFaultPlan::clean().with_poison(2, 1),
        ),
        (
            "superstep stall (watchdog)",
            ExecFaultPlan::clean().with_stall(1, Duration::from_millis(600)),
        ),
    ];
    for (name, plan) in scenarios {
        let inj = ExecInjector::new(plan);
        let rctx = ResilienceContext::new().with_injector(&inj);
        let prog = PageRank::new(&w.graph, pagerank::DAMPING);
        match run_resilient_on_pool(&w.prepared, &prog, &cfg, &rctx, &pool) {
            Ok(run) => {
                let exact = prog.ranks() == clean_ranks;
                let close = prog
                    .ranks()
                    .iter()
                    .zip(&clean_ranks)
                    .all(|(a, b)| (a - b).abs() < 1e-12);
                let p = run.stats.profile;
                t.row(vec![
                    name.into(),
                    format!(
                        "{:?}, result {}",
                        run.outcome,
                        if exact {
                            "bit-identical"
                        } else if close {
                            "within 1e-12"
                        } else {
                            "DIVERGED"
                        }
                    ),
                    p.chunk_retries.to_string(),
                    p.chunk_panics.to_string(),
                    p.degraded_iterations.to_string(),
                    p.divergence_rollbacks.to_string(),
                ]);
            }
            Err(EngineError::Stalled { iteration }) => {
                t.row(vec![
                    name.into(),
                    format!("typed error: Stalled at iteration {iteration}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    name.into(),
                    format!("typed error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    t
}

/// Write-traffic accounting: the mechanical core of the paper's claim,
/// independent of timing noise — shared-memory update counts per interface.
pub fn write_traffic() -> Table {
    let mut t = Table::new(
        "Write traffic — Edge-phase shared-memory updates per interface (PageRank, 1 iteration-normalized)",
        &["graph", "edges", "Trad atomics", "NoAtomic writes", "SA direct stores", "SA merge entries"],
    );
    t.note("scheduler awareness bounds writes by |V| + #chunks instead of #vectors");
    let pool = ThreadPool::single_group(threads());
    for ds in Dataset::all() {
        let w = workload(ds);
        let iters = pagerank_iterations(ds) as u64;
        let get = |mode: PullMode| {
            let (_, stats) = time_pagerank(w, &fig5_config(mode), &pool);
            stats.profile
        };
        let trad = get(PullMode::Traditional);
        let na = get(PullMode::TraditionalNoAtomic);
        let sa = get(PullMode::SchedulerAware);
        t.row(vec![
            ds.abbr().into(),
            w.graph.num_edges().to_string(),
            (trad.atomic_updates / iters).to_string(),
            (na.nonatomic_updates / iters).to_string(),
            (sa.direct_stores / iters).to_string(),
            (sa.merge_entries / iters).to_string(),
        ]);
    }
    t
}

/// Build-pipeline throughput (ISSUE 5): chunked text parse + parallel
/// counting-sort CSR/CSC + parallel Vector-Sparse encoding at 1/2/8 build
/// threads on the largest stand-in, each arm asserted bit-identical to the
/// sequential pipeline. The speedup column is the tentpole's acceptance
/// number (≥2.5× at 8 threads on 8+ physical cores; a 1-core CI box will
/// legitimately report ~1×).
pub fn build_throughput() -> Table {
    use grazelle_core::build::prepare_profiled_with_cutover;
    use grazelle_core::stats::BuildProfile;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::io::parse_text_edgelist_parallel;
    use std::fmt::Write as _;
    use std::time::Instant;

    let mut t = Table::new(
        "Build throughput — parallel load -> CSR/CSC -> Vector-Sparse",
        &[
            "threads",
            "parse ms",
            "csr ms",
            "csc ms",
            "vsparse ms",
            "total ms",
            "MB/s",
            "Medges/s",
            "speedup",
        ],
    );
    // Friendster is the largest stand-in at every scale shift.
    let ds = Dataset::Friendster;
    let w = workload(ds);
    t.note(&format!(
        "input: {} ({} vertices, {} edges) rendered to text and re-ingested end to end",
        w.graph.name(),
        w.graph.num_vertices(),
        w.graph.num_edges()
    ));
    t.note("best-of-N; every parallel arm asserted bit-identical to the sequential build");

    // Render the graph to the text edge-list format so the parse phase is
    // part of every arm, then keep the sequential pipeline's output as the
    // identity reference.
    let mut reference = EdgeList::with_capacity(w.graph.num_vertices(), w.graph.num_edges());
    let mut text = String::with_capacity(w.graph.num_edges() * 12);
    for v in 0..w.graph.num_vertices() as u32 {
        for &d in w.graph.out_neighbors(v) {
            reference.push(v, d).unwrap();
            writeln!(text, "{v} {d}").unwrap();
        }
    }
    let bytes = text.as_bytes();
    let seq_pool = ThreadPool::single_group(1);
    // Cutover 0 disables the size-adaptive sequential fallback: each arm
    // measures the parallel pipeline itself, even at smoke scale.
    let (seq_graph, seq_prepared, _) = prepare_profiled_with_cutover(&reference, &seq_pool, 0)
        .expect("sequential reference build");

    let run_arm = |pool: &ThreadPool| -> BuildProfile {
        let t0 = Instant::now();
        let parsed = parse_text_edgelist_parallel(bytes, pool).expect("parse");
        let parse_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(parsed.edges(), reference.edges(), "parallel parse diverged");
        assert_eq!(parsed.num_vertices(), reference.num_vertices());
        let (graph, prepared, mut profile) =
            prepare_profiled_with_cutover(&parsed, pool, 0).expect("parallel build");
        assert_eq!(graph.out_csr(), seq_graph.out_csr(), "CSR diverged");
        assert_eq!(graph.in_csr(), seq_graph.in_csr(), "CSC diverged");
        assert!(
            prepared.vsd.bit_identical(&seq_prepared.vsd),
            "VSD diverged"
        );
        assert!(
            prepared.vss.bit_identical(&seq_prepared.vss),
            "VSS diverged"
        );
        profile.parse_ns = parse_ns;
        profile.input_bytes = bytes.len() as u64;
        profile
    };

    let mut base_secs = None;
    for arm_threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(arm_threads);
        run_arm(&pool); // warmup, discarded
        let mut best: Option<BuildProfile> = None;
        for _ in 0..repeats() {
            let p = run_arm(&pool);
            log_run(RunRecord::from_build(
                &format!("build:{arm_threads}"),
                p.total_ns() as f64 / 1e9,
                &p,
            ));
            if best.is_none_or(|b| p.total_ns() < b.total_ns()) {
                best = Some(p);
            }
        }
        let p = best.expect("repeats >= 1");
        let secs = p.total_ns() as f64 / 1e9;
        let base = *base_secs.get_or_insert(secs);
        t.row(vec![
            arm_threads.to_string(),
            format!("{:.3}", p.parse_ns as f64 / 1e6),
            format!("{:.3}", p.csr_ns as f64 / 1e6),
            format!("{:.3}", p.csc_ns as f64 / 1e6),
            format!("{:.3}", p.vsparse_ns as f64 / 1e6),
            format!("{:.3}", p.total_ns() as f64 / 1e6),
            format!("{:.1}", p.bytes_per_sec() / 1e6),
            format!("{:.2}", p.edges_per_sec() / 1e6),
            fmt_speedup(base / secs),
        ]);
    }
    t
}

/// Serve-layer latency (ISSUE 7): the same query stream timed directly
/// against `run_resilient_on_pool` (via [`grazelle_serve::single_shot`])
/// and through the serving layer's admission/deadline/retry machinery,
/// plus a reachability pair showing what batch formation buys. The
/// served-vs-direct overhead row is the tentpole's acceptance number
/// (≤3% on the clean path).
pub fn serve_latency() -> Table {
    use grazelle_core::ResilienceContext;
    use grazelle_serve::{single_shot, Query, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Instant;

    /// Nearest-rank percentile over an already-sorted latency vector.
    fn pctl(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Best-of-N over whole streams, one warmup discarded; every repeat
    /// logged under `label` for the perf gate. Returns the best stream's
    /// (total seconds, sorted per-query latencies).
    fn measure(label: &str, stream: &mut dyn FnMut(&mut Vec<u64>) -> f64) -> (f64, Vec<u64>) {
        let mut scratch = Vec::new();
        stream(&mut scratch); // warmup, discarded
        let mut best_secs = f64::INFINITY;
        let mut best_lat: Vec<u64> = Vec::new();
        for _ in 0..repeats() {
            let secs = stream(&mut scratch);
            log_run(RunRecord::from_secs(label, secs));
            if secs < best_secs {
                best_secs = secs;
                best_lat = scratch.clone();
            }
        }
        best_lat.sort_unstable();
        (best_secs, best_lat)
    }

    const QUERIES: usize = 48;
    let mut t = Table::new(
        "Serve latency — direct vs served query streams (clean path)",
        &["arm", "queries", "p50 us", "p99 us", "QPS", "vs baseline"],
    );
    t.note("acceptance: served/direct BFS stream overhead ≤3% on the clean path");
    t.note("best-of-N over whole streams; percentiles from the best stream");
    t.note("reach arms share a baseline: sequential served vs 64-wide packed");

    let ds = Dataset::Friendster;
    let w = workload(ds);
    let n = w.graph.num_vertices();
    t.note(&format!(
        "input: {} ({} vertices, {} edges), {QUERIES} queries per stream",
        w.graph.name(),
        n,
        w.graph.num_edges()
    ));
    let graph = Arc::new(w.graph.clone());
    let pg = Arc::new(w.prepared.clone());
    let roots: Vec<u32> = (0..QUERIES).map(|i| ((i * 97 + 1) % n) as u32).collect();

    let pool = ThreadPool::single_group(threads());
    let ecfg = base_config();
    let server = Server::start(
        Arc::clone(&graph),
        Arc::clone(&pg),
        ServeConfig::new()
            .with_engine(ecfg)
            .with_queue_capacity(2 * QUERIES),
    );

    // Each arm runs one whole query stream and returns (total secs,
    // per-query latencies in ns). Closed loop except the packed arm,
    // which submits the full stream up front so batch formation can pack.
    let mut run_direct = |lat: &mut Vec<u64>| -> f64 {
        lat.clear();
        let t0 = Instant::now();
        for &r in &roots {
            let q0 = Instant::now();
            let res = single_shot(
                &graph,
                &pg,
                &ecfg,
                &ResilienceContext::new(),
                &pool,
                Query::Bfs { root: r },
            )
            .expect("clean direct run");
            std::hint::black_box(&res);
            lat.push(q0.elapsed().as_nanos() as u64);
        }
        t0.elapsed().as_secs_f64()
    };
    let run_served = |q: fn(u32) -> Query, lat: &mut Vec<u64>| -> f64 {
        lat.clear();
        let t0 = Instant::now();
        for &r in &roots {
            let q0 = Instant::now();
            let res = server
                .submit(q(r))
                .expect("admitted")
                .wait()
                .expect("clean served run");
            std::hint::black_box(&res);
            lat.push(q0.elapsed().as_nanos() as u64);
        }
        t0.elapsed().as_secs_f64()
    };
    let mut run_packed = |lat: &mut Vec<u64>| -> f64 {
        lat.clear();
        // A short plug query holds the executor while the reach stream
        // queues, so batch formation sees the whole stream at once even
        // on graphs small enough to drain one query per submit.
        let plug = server
            .submit(Query::PageRank { iterations: 4 })
            .expect("admitted");
        let t0 = Instant::now();
        let tickets: Vec<_> = roots
            .iter()
            .map(|&r| server.submit(Query::Reach { root: r }).expect("admitted"))
            .collect();
        for tk in tickets {
            let res = tk.wait().expect("clean packed run");
            std::hint::black_box(&res);
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        let secs = t0.elapsed().as_secs_f64();
        plug.wait().expect("clean plug run");
        secs
    };

    let (direct_s, direct_l) = measure("serve:bfs:direct", &mut run_direct);
    let mut served_bfs = |lat: &mut Vec<u64>| run_served(|r| Query::Bfs { root: r }, lat);
    let (served_s, served_l) = measure("serve:bfs:served", &mut served_bfs);
    let mut served_reach = |lat: &mut Vec<u64>| run_served(|r| Query::Reach { root: r }, lat);
    let (seq_s, seq_l) = measure("serve:reach:seq", &mut served_reach);
    let (packed_s, packed_l) = measure("serve:reach:packed", &mut run_packed);
    let snap = server.stats();
    assert_eq!(snap.failed, 0, "clean streams must not fail");
    assert_eq!(snap.expired, 0, "no deadlines were set");
    assert!(snap.packed_runs > 0, "reach stream must actually pack");
    drop(server);

    let mut row = |arm: &str, secs: f64, lat: &[u64], baseline: Option<f64>| {
        t.row(vec![
            arm.into(),
            QUERIES.to_string(),
            format!("{:.1}", pctl(lat, 50.0) as f64 / 1e3),
            format!("{:.1}", pctl(lat, 99.0) as f64 / 1e3),
            format!("{:.0}", QUERIES as f64 / secs),
            match baseline {
                Some(base) => format!("{:+.1}%", (secs / base - 1.0) * 100.0),
                None => "baseline".into(),
            },
        ]);
    };
    row("bfs direct", direct_s, &direct_l, None);
    row("bfs served", served_s, &served_l, Some(direct_s));
    row("reach served x1", seq_s, &seq_l, None);
    row("reach packed x64", packed_s, &packed_l, Some(seq_s));
    t
}

/// Seeded symmetric insert pairs absent from `g`: the update-stream batch
/// for the `incremental-updates` experiment. Returns both directions of
/// each pair; endpoint membership is checked against the sorted CSR rows.
fn fresh_insert_batch(
    g: &grazelle_graph::graph::Graph,
    pairs: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    use std::collections::HashSet;
    let n = g.num_vertices() as u64;
    let mut x = seed | 1;
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(pairs);
    let mut out = Vec::with_capacity(2 * pairs);
    let mut tries = 0usize;
    while seen.len() < pairs && tries < 64 * pairs + 10_000 {
        tries += 1;
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((x >> 33) % n) as u32;
        let v = ((x >> 11) % n) as u32;
        if u == v || g.out_neighbors(u).binary_search(&v).is_ok() {
            continue;
        }
        if seen.insert((u.min(v), u.max(v))) {
            out.push((u, v));
            out.push((v, u));
        }
    }
    out
}

/// Incremental maintenance over an update stream (ISSUE 8): a ~1%-of-edges
/// insert-only batch applied as a versioned delta overlay with warm,
/// frontier-seeded re-runs, timed against the cold alternative — merge
/// the batch into the base (CSR/CSC splice, Vector-Sparse re-encode) and
/// recompute from scratch. Warm results are asserted bit-identical to the
/// cold recompute before anything is timed.
pub fn incremental_updates() -> Table {
    use grazelle_apps::{IncrementalBfs, IncrementalCc, IncrementalPageRank};
    use grazelle_core::engine::PreparedGraph;
    use grazelle_core::incremental::VersionedGraph;
    use grazelle_graph::delta::UpdateBatch;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use std::sync::Arc;
    use std::time::Instant;

    let ds = Dataset::LiveJournal;
    let w = workload_symmetric(ds);
    let n = w.graph.num_vertices();
    let pool = ThreadPool::single_group(threads());
    let mut cfg = base_config();
    cfg.max_iterations = 200; // PageRank terminates on tolerance below this
    const PR_TOL: f64 = 1e-8;

    let pairs = (w.graph.num_edges() / 200).max(1); // both directions ≈ 1%
    let batch = fresh_insert_batch(&w.graph, pairs, 0x5eed_cafe);
    let ub = UpdateBatch::from_inserts(&batch);

    let mut t = Table::new(
        "Incremental updates — warm maintenance vs cold rebuild+recompute",
        &["app", "batch edges", "cold ms", "warm ms", "speedup"],
    );
    t.note(&format!(
        "input: {} ({} vertices, {} edges), insert-only batch of {} edges (~1%)",
        w.graph.name(),
        n,
        w.graph.num_edges(),
        batch.len()
    ));
    t.note("cold = same batch applied merge-always: CSR/CSC splice + Vector-Sparse re-encode + recompute from scratch");
    t.note("warm = delta-overlay apply + violation-seeded re-run of the maintained result");
    t.note("warm beats cold ~2-3x for BFS and ~3.5-5x for CC at the default smoke scale (scale_shift -2); a merge splices sorted edits instead of rebuilding, so the cold arm is no longer dominated by its rebuild");
    t.note("pagerank is power-iteration-bound: warm start saves the rebuild and head iterations only (~1x, reported for completeness)");

    // The merged edge list, for the pre-timing bit-identity check only —
    // both timed arms pay their own merge/overlay costs via apply_batch.
    let mut mel = EdgeList::with_capacity(n, w.graph.num_edges() + batch.len());
    for v in 0..n as u32 {
        for &d in w.graph.out_neighbors(v) {
            mel.push(v, d).unwrap();
        }
    }
    for &(u, v) in &batch {
        mel.push(u, v).unwrap();
    }
    mel.sort_and_dedup();

    let base_g = Arc::new(w.graph.clone());
    let base_pg = Arc::new(w.prepared.clone());

    // One warm pass asserted bit-identical to cold before timing anything.
    {
        let mg = Graph::from_edgelist(&mel).expect("merged graph");
        let mpg = PreparedGraph::new_on_pool(&mg, &pool);
        let mut vg = VersionedGraph::new(Arc::clone(&base_g), Arc::clone(&base_pg));
        let mut ibfs = IncrementalBfs::cold(&vg.view(), 0, &cfg, &pool);
        let mut icc = IncrementalCc::cold(&vg.view(), &cfg, &pool);
        let report = vg.apply_batch(&ub, &pool).expect("insert batch applies");
        assert!(!report.full_recompute, "insert-only batch must stay warm");
        ibfs.update(&vg.view(), &report.record.inserted, &cfg, &pool);
        icc.update(&vg.view(), &report.record.inserted, &cfg, &pool);
        let (cold_parents, _) = grazelle_apps::bfs::run_prepared(&mpg, &cfg, &pool, 0);
        assert_eq!(ibfs.parents(), &cold_parents[..], "warm BFS diverged");
        let (cold_labels, _) = grazelle_apps::cc::run_prepared(&mpg, &cfg, &pool, false);
        assert_eq!(icc.labels(), &cold_labels[..], "warm CC diverged");
    }

    for app in ["bfs", "cc", "pagerank"] {
        let cold_label = format!("incr:cold:{app}");
        let cold_secs = median_secs(|| {
            // Merge fraction 0 forces the merge path on every batch: what
            // a non-incremental engine does with the same update stream.
            let mut vg = VersionedGraph::new(Arc::clone(&base_g), Arc::clone(&base_pg))
                .with_merge_fraction(0.0);
            let t0 = Instant::now();
            let report = vg.apply_batch(&ub, &pool).expect("insert batch applies");
            assert!(report.merged, "merge fraction 0 must merge every batch");
            match app {
                "bfs" => {
                    let (p, _) =
                        grazelle_apps::bfs::run_prepared(vg.base_prepared(), &cfg, &pool, 0);
                    std::hint::black_box(&p);
                }
                "cc" => {
                    let (l, _) =
                        grazelle_apps::cc::run_prepared(vg.base_prepared(), &cfg, &pool, false);
                    std::hint::black_box(&l);
                }
                _ => {
                    let pr = IncrementalPageRank::cold(
                        &vg.view(),
                        pagerank::DAMPING,
                        PR_TOL,
                        &cfg,
                        &pool,
                    );
                    std::hint::black_box(pr.ranks());
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            log_run(RunRecord::from_secs(&cold_label, secs));
            secs
        });

        let warm_label = format!("incr:warm:{app}");
        let warm_secs = median_secs(|| {
            // The maintained pre-update result is the steady state a
            // long-lived engine already holds — built cold, untimed.
            let mut vg = VersionedGraph::new(Arc::clone(&base_g), Arc::clone(&base_pg));
            let secs = match app {
                "bfs" => {
                    let mut inc = IncrementalBfs::cold(&vg.view(), 0, &cfg, &pool);
                    let t0 = Instant::now();
                    let report = vg.apply_batch(&ub, &pool).expect("insert batch applies");
                    inc.update(&vg.view(), &report.record.inserted, &cfg, &pool);
                    std::hint::black_box(inc.parents());
                    t0.elapsed().as_secs_f64()
                }
                "cc" => {
                    let mut inc = IncrementalCc::cold(&vg.view(), &cfg, &pool);
                    let t0 = Instant::now();
                    let report = vg.apply_batch(&ub, &pool).expect("insert batch applies");
                    inc.update(&vg.view(), &report.record.inserted, &cfg, &pool);
                    std::hint::black_box(inc.labels());
                    t0.elapsed().as_secs_f64()
                }
                _ => {
                    let mut inc = IncrementalPageRank::cold(
                        &vg.view(),
                        pagerank::DAMPING,
                        PR_TOL,
                        &cfg,
                        &pool,
                    );
                    let t0 = Instant::now();
                    vg.apply_batch(&ub, &pool).expect("insert batch applies");
                    inc.update(&vg.view(), &cfg, &pool);
                    std::hint::black_box(inc.ranks());
                    t0.elapsed().as_secs_f64()
                }
            };
            log_run(RunRecord::from_secs(&warm_label, secs));
            secs
        });

        t.row(vec![
            app.into(),
            batch.len().to_string(),
            format!("{:.3}", cold_secs * 1e3),
            format!("{:.3}", warm_secs * 1e3),
            fmt_speedup(cold_secs / warm_secs),
        ]);
    }
    t
}

/// Large-scale parallel-build bench (nightly, opt-in — not part of `all`):
/// an R-MAT graph at `GRAZELLE_BUILD_SCALE` (default 22, ~64M directed
/// edges) built end to end by the counting-sort CSR/CSC + Vector-Sparse
/// pipeline sequentially and at `threads()` build threads, every parallel
/// arm identity-checked against the sequential one. With
/// `GRAZELLE_BUILD_ASSERT_SPEEDUP` set (the nightly job does), a parallel
/// speedup below 1.5× fails the run — the guard that the parallel build
/// pipeline stays genuinely parallel at scale.
pub fn build_large() -> Table {
    use grazelle_core::build::prepare_profiled_with_cutover;
    use grazelle_core::engine::PreparedGraph;
    use grazelle_core::stats::BuildProfile;
    use std::time::Instant;

    let scale: u32 = std::env::var("GRAZELLE_BUILD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(22);
    let gen0 = Instant::now();
    let el = rmat(&RmatConfig::graph500(scale, 16.0, 7));
    let mut t = Table::new(
        "Large-scale build — sequential vs parallel pipeline",
        &[
            "threads",
            "csr ms",
            "csc ms",
            "vsparse ms",
            "total ms",
            "Medges/s",
            "speedup",
        ],
    );
    t.note(&format!(
        "R-MAT scale {scale}: {} vertices, {} directed edges (generated in {:.1}s)",
        1u64 << scale,
        el.edges().len(),
        gen0.elapsed().as_secs_f64()
    ));
    t.note("best-of-N; parallel arms asserted bit-identical to the sequential build");

    let mut reference: Option<(grazelle_graph::graph::Graph, PreparedGraph)> = None;
    let mut base_secs = None;
    let mut par_speedup = 1.0f64;
    for arm_threads in [1usize, threads().max(2)] {
        let pool = ThreadPool::single_group(arm_threads);
        let mut best: Option<BuildProfile> = None;
        for _ in 0..repeats() {
            // Cutover 0 pins the parallel pipeline on, whatever the scale.
            let (g, p, profile) = prepare_profiled_with_cutover(&el, &pool, 0).expect("build");
            match &reference {
                None => reference = Some((g, p)),
                Some((rg, rp)) => {
                    assert_eq!(g.out_csr(), rg.out_csr(), "CSR diverged at x{arm_threads}");
                    assert_eq!(g.in_csr(), rg.in_csr(), "CSC diverged at x{arm_threads}");
                    assert!(
                        p.vsd.bit_identical(&rp.vsd),
                        "VSD diverged at x{arm_threads}"
                    );
                    assert!(
                        p.vss.bit_identical(&rp.vss),
                        "VSS diverged at x{arm_threads}"
                    );
                }
            }
            log_run(RunRecord::from_build(
                &format!("build-large:{arm_threads}"),
                profile.total_ns() as f64 / 1e9,
                &profile,
            ));
            if best.is_none_or(|b| profile.total_ns() < b.total_ns()) {
                best = Some(profile);
            }
        }
        let p = best.expect("repeats >= 1");
        let secs = p.total_ns() as f64 / 1e9;
        let base = *base_secs.get_or_insert(secs);
        if arm_threads > 1 {
            par_speedup = base / secs;
        }
        t.row(vec![
            arm_threads.to_string(),
            format!("{:.1}", p.csr_ns as f64 / 1e6),
            format!("{:.1}", p.csc_ns as f64 / 1e6),
            format!("{:.1}", p.vsparse_ns as f64 / 1e6),
            format!("{:.1}", p.total_ns() as f64 / 1e6),
            format!("{:.2}", p.edges_per_sec() / 1e6),
            fmt_speedup(base / secs),
        ]);
    }
    if std::env::var("GRAZELLE_BUILD_ASSERT_SPEEDUP").is_ok() {
        assert!(
            par_speedup >= 1.5,
            "parallel build speedup {par_speedup:.2}x below the 1.5x guard"
        );
    }
    t
}

/// Triangle counting through the masked-SpMV intersect kernel
/// (DESIGN.md §16): one Edge phase per arm — scheduler-aware pull, push,
/// and the resilient pull — on symmetrized stand-ins, every arm asserted
/// bit-identical to the sequential reference before timing.
pub fn triangle_count() -> Table {
    use grazelle_apps::triangle;
    use grazelle_core::engine::resilient::ResilienceContext;

    let mut t = Table::new(
        "Triangle counting — masked dot-product over the intersect kernel",
        &["graph", "triangles", "pull ms", "push ms", "resilient ms"],
    );
    t.note("symmetrized stand-ins; one Edge phase per arm, acc[v] = 2·t(v), total = Σ/6");
    t.note("all arms integer-exact and asserted equal to the sequential reference");
    let pool = ThreadPool::single_group(threads());
    let cfg = base_config();
    for ds in [Dataset::CitPatents, Dataset::LiveJournal] {
        let w = workload_symmetric(ds);
        let want = triangle::reference(&w.graph);

        let pull_label = format!("tc:pull:{}", ds.abbr());
        let pull_secs = median_secs(|| {
            let t0 = std::time::Instant::now();
            let got = triangle::counts_prepared(&w.graph, &w.prepared, &cfg, &pool);
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(got, want, "pull arm diverged on {}", ds.abbr());
            log_run(RunRecord::from_secs(&pull_label, secs));
            secs
        });

        let push_label = format!("tc:push:{}", ds.abbr());
        let push_cfg = cfg.with_force_engine(Some(EngineKind::Push));
        let push_secs = median_secs(|| {
            let t0 = std::time::Instant::now();
            let got = triangle::counts_prepared(&w.graph, &w.prepared, &push_cfg, &pool);
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(got, want, "push arm diverged on {}", ds.abbr());
            log_run(RunRecord::from_secs(&push_label, secs));
            secs
        });

        let res_label = format!("tc:resilient:{}", ds.abbr());
        let res_secs = median_secs(|| {
            let t0 = std::time::Instant::now();
            let got = triangle::counts_resilient(
                &w.graph,
                &w.prepared,
                &cfg,
                &ResilienceContext::new(),
                &pool,
            )
            .expect("clean resilient phase");
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(got, want, "resilient arm diverged on {}", ds.abbr());
            log_run(RunRecord::from_secs(&res_label, secs));
            secs
        });

        t.row(vec![
            ds.abbr().into(),
            want.total.to_string(),
            format!("{:.3}", pull_secs * 1e3),
            format!("{:.3}", push_secs * 1e3),
            format!("{:.3}", res_secs * 1e3),
        ]);
    }
    t
}

/// Label-propagation community detection (deterministic Max lattice
/// ascent, DESIGN.md §16): full convergence through the hybrid driver and
/// both pinned engines on symmetrized stand-ins, labels asserted
/// bit-identical to the exact-integer sequential reference.
pub fn labelprop() -> Table {
    use grazelle_apps::labelprop;

    let mut t = Table::new(
        "Label propagation — packed-key Max lattice ascent to convergence",
        &[
            "graph",
            "communities",
            "iters",
            "hybrid ms",
            "pull ms",
            "push ms",
        ],
    );
    t.note("keys pack score·2^34 + rank·2^17 + label; per-hop decay is the propagation cutoff");
    t.note("every arm asserted label-identical to the exact-integer sequential reference");
    let pool = ThreadPool::single_group(threads());
    for ds in [Dataset::CitPatents, Dataset::LiveJournal] {
        let w = workload_symmetric(ds);
        let want = labelprop::reference(&w.graph);
        let communities = {
            let mut s: Vec<u32> = want.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };

        let mut iters = 0usize;
        let mut arm_ms = Vec::new();
        for (arm, kind) in [
            ("hybrid", None),
            ("pull", Some(EngineKind::Pull)),
            ("push", Some(EngineKind::Push)),
        ] {
            let cfg = base_config().with_force_engine(kind);
            let label = format!("lp:{arm}:{}", ds.abbr());
            let secs = median_secs(|| {
                let (labels, stats) = labelprop::run_prepared(&w.prepared, &w.graph, &cfg, &pool);
                assert_eq!(labels, want, "{arm} arm diverged on {}", ds.abbr());
                if arm == "hybrid" {
                    iters = stats.iterations;
                }
                let secs = stats.wall.as_secs_f64();
                log_run(RunRecord::from_stats(&label, secs, &stats));
                secs
            });
            arm_ms.push(secs * 1e3);
        }

        t.row(vec![
            ds.abbr().into(),
            communities.to_string(),
            iters.to_string(),
            format!("{:.3}", arm_ms[0]),
            format!("{:.3}", arm_ms[1]),
            format!("{:.3}", arm_ms[2]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    //! Smoke tests at a tiny scale: every experiment must produce a
    //! well-formed table. (Timing *values* are validated by EXPERIMENTS.md
    //! runs, not asserted here — CI boxes are too noisy.)
    use super::*;

    fn tiny_env() {
        // Shrink everything so the whole matrix runs in seconds.
        std::env::set_var("GRAZELLE_SCALE_SHIFT", "-7");
        std::env::set_var("GRAZELLE_REPEATS", "1");
        std::env::set_var("GRAZELLE_THREADS", "2");
    }

    #[test]
    fn table1_has_six_rows() {
        tiny_env();
        let t = table1();
        assert_eq!(t.rows.len(), 6);
        assert!(t.render().contains("uk-2007"));
    }

    #[test]
    fn fig9a_efficiencies_ordered_by_width() {
        tiny_env();
        let t = fig9a();
        for row in &t.rows {
            let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
            let e4 = parse(&row[1]);
            let e8 = parse(&row[2]);
            let e16 = parse(&row[3]);
            assert!(e4 >= e8 && e8 >= e16, "row {row:?}");
        }
    }

    #[test]
    fn fig9b_has_thirty_graphs() {
        tiny_env();
        let t = fig9b();
        assert_eq!(t.rows.len(), 30);
    }

    #[test]
    fn fig5a_smoke() {
        tiny_env();
        let t = fig5a();
        assert_eq!(t.rows.len(), 6);
        // Traditional column is the 1.00 baseline by construction.
        for row in &t.rows {
            assert_eq!(row[1], "1.00");
        }
    }

    #[test]
    fn ablations_produce_wellformed_tables() {
        tiny_env();
        assert_eq!(ablate_sparse().rows.len(), 6);
        assert_eq!(ablate_wide_engine().rows.len(), 6);
        assert_eq!(ablate_pull_frontier().rows.len(), 6);
        let order = ablate_order();
        assert_eq!(order.rows.len(), 6); // 2 graphs x 3 orderings
                                         // Natural-ordering rows are the 1.00 baseline.
        for row in order.rows.iter().filter(|r| r[1] == "natural") {
            assert_eq!(row[4], "1.00");
        }
        let width = ablate_width();
        assert_eq!(width.rows.len(), 6);
    }

    #[test]
    fn ablate_push_spa_covers_the_arm_matrix() {
        tiny_env();
        let t = ablate_push_spa();
        // (2 BFS graphs + 1 SSSP graph) × 3 thread counts; the divergence
        // asserts inside the experiment are the real check — arms must be
        // bit-identical before any timing is reported.
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            assert!(["1", "2", "8"].contains(&row[1].as_str()), "row {row:?}");
        }
    }

    #[test]
    fn write_traffic_shows_sa_reduction() {
        tiny_env();
        let t = write_traffic();
        for row in &t.rows {
            let edges: u64 = row[1].parse().unwrap();
            let trad: u64 = row[2].parse().unwrap();
            let sa_direct: u64 = row[4].parse().unwrap();
            let sa_merge: u64 = row[5].parse().unwrap();
            assert!(trad > 0, "{row:?}");
            assert!(
                sa_direct + sa_merge <= trad.max(1) || edges < 64,
                "SA traffic should not exceed traditional: {row:?}"
            );
        }
    }

    #[test]
    fn resilience_overhead_reports_all_datasets() {
        tiny_env();
        let t = resilience_overhead();
        assert_eq!(t.rows.len(), 7); // six graphs + geomean
                                     // The function itself asserts RunOutcome::Clean + zero counters;
                                     // here we only check the table is well-formed.
        for row in &t.rows {
            assert!(row[3].ends_with('%'), "{row:?}");
        }
    }

    #[test]
    fn recorder_overhead_reports_all_datasets_and_geomean() {
        tiny_env();
        crate::schema::drain_runs();
        let t = recorder_overhead();
        assert_eq!(t.rows.len(), 7); // six graphs + geomean
        let runs = crate::schema::drain_runs();
        assert!(runs.iter().any(|r| r.label.starts_with("rec-on:pr:")));
        assert!(runs.iter().any(|r| r.label.starts_with("rec-off:pr:")));
        // The traced arm's flight recorder actually recorded supersteps.
        assert!(runs
            .iter()
            .filter(|r| r.label.starts_with("rec-on:"))
            .all(|r| r.trace_records == r.iterations));
    }

    #[test]
    fn gate_logs_gateable_samples() {
        tiny_env();
        crate::schema::drain_runs();
        let t = gate();
        assert_eq!(t.rows.len(), 3);
        let runs = crate::schema::drain_runs();
        // best-of-N with repeats >= 2: at least two samples per label.
        for ds in ["C", "L", "T"] {
            let label = format!("gate:pr:{ds}");
            assert!(
                runs.iter().filter(|r| r.label == label).count() >= 2,
                "{label} missing from {runs:?}"
            );
        }
        // Clean runs: no resilience events recorded.
        assert!(runs.iter().all(|r| r.retries == 0 && r.rollbacks == 0));
    }

    #[test]
    fn build_throughput_logs_identical_arms() {
        tiny_env();
        crate::schema::drain_runs();
        let t = build_throughput();
        assert_eq!(t.rows.len(), 3); // 1, 2, 8 build threads
        assert_eq!(t.rows[0][0], "1");
        assert_eq!(t.rows[0][8], "1.00x"); // the 1-thread arm is its own baseline
        let runs = crate::schema::drain_runs();
        for threads in ["1", "2", "8"] {
            let label = format!("build:{threads}");
            let arm: Vec<_> = runs.iter().filter(|r| r.label == label).collect();
            assert!(!arm.is_empty(), "{label} missing");
            for r in arm {
                let b = r.build.expect("build runs carry the breakdown");
                assert_eq!(b.threads.to_string(), *threads);
                assert!(b.edges > 0 && b.input_bytes > 0);
                assert!(r.secs > 0.0);
            }
        }
    }

    #[test]
    fn serve_latency_logs_all_four_arms() {
        tiny_env();
        crate::schema::drain_runs();
        let t = serve_latency();
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0][0], "bfs direct");
        assert_eq!(t.rows[0][5], "baseline");
        let runs = crate::schema::drain_runs();
        for label in [
            "serve:bfs:direct",
            "serve:bfs:served",
            "serve:reach:seq",
            "serve:reach:packed",
        ] {
            let arm: Vec<_> = runs.iter().filter(|r| r.label == label).collect();
            assert!(!arm.is_empty(), "{label} missing");
            assert!(arm.iter().all(|r| r.secs > 0.0 && r.build.is_none()));
        }
    }

    #[test]
    fn incremental_updates_logs_both_arms_per_app() {
        tiny_env();
        crate::schema::drain_runs();
        let t = incremental_updates();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "bfs");
        assert_eq!(t.rows[1][0], "cc");
        assert_eq!(t.rows[2][0], "pagerank");
        let runs = crate::schema::drain_runs();
        for app in ["bfs", "cc", "pagerank"] {
            for arm in ["cold", "warm"] {
                let label = format!("incr:{arm}:{app}");
                let hits: Vec<_> = runs.iter().filter(|r| r.label == label).collect();
                assert!(!hits.is_empty(), "{label} missing");
                assert!(hits.iter().all(|r| r.secs > 0.0 && r.build.is_none()));
            }
        }
    }

    #[test]
    fn triangle_count_logs_every_arm() {
        tiny_env();
        crate::schema::drain_runs();
        let t = triangle_count();
        assert_eq!(t.rows.len(), 2);
        let runs = crate::schema::drain_runs();
        for arm in ["pull", "push", "resilient"] {
            for abbr in ["C", "L"] {
                let label = format!("tc:{arm}:{abbr}");
                assert!(
                    runs.iter().any(|r| r.label == label && r.secs > 0.0),
                    "{label} missing"
                );
            }
        }
    }

    #[test]
    fn labelprop_logs_every_arm() {
        tiny_env();
        crate::schema::drain_runs();
        let t = labelprop();
        assert_eq!(t.rows.len(), 2);
        // Converged runs take at least one superstep.
        for row in &t.rows {
            assert!(row[2].parse::<usize>().unwrap() >= 1, "{row:?}");
        }
        let runs = crate::schema::drain_runs();
        for arm in ["hybrid", "pull", "push"] {
            for abbr in ["C", "L"] {
                let label = format!("lp:{arm}:{abbr}");
                assert!(
                    runs.iter().any(|r| r.label == label && r.secs > 0.0),
                    "{label} missing"
                );
            }
        }
    }

    #[test]
    fn build_large_smoke_runs_at_tiny_scale() {
        tiny_env();
        // Shrink the opt-in nightly arm to seconds; the speedup guard
        // stays off (no GRAZELLE_BUILD_ASSERT_SPEEDUP) — a tiny graph on
        // a loaded CI box cannot promise parallel wins.
        std::env::set_var("GRAZELLE_BUILD_SCALE", "10");
        crate::schema::drain_runs();
        let t = build_large();
        assert_eq!(t.rows.len(), 2); // sequential + parallel
        assert_eq!(t.rows[0][0], "1");
        assert_eq!(t.rows[0][6], "1.00x");
        let runs = crate::schema::drain_runs();
        assert!(runs
            .iter()
            .any(|r| r.label.starts_with("build-large:") && r.build.is_some()));
    }

    #[test]
    fn sampling_policy_matches_experiment_reduction() {
        assert_eq!(sampling_policy("gate"), "best-of-N");
        assert_eq!(sampling_policy("build-throughput"), "best-of-N");
        assert_eq!(sampling_policy("build-large"), "best-of-N");
        assert_eq!(sampling_policy("serve-latency"), "best-of-N");
        assert_eq!(sampling_policy("recorder-overhead"), "best-of-N");
        assert_eq!(sampling_policy("resilience-overhead"), "best-of-N");
        assert_eq!(sampling_policy("fig5a"), "median-of-N");
        assert_eq!(sampling_policy("incremental-updates"), "median-of-N");
        assert_eq!(sampling_policy("table1"), "median-of-N");
    }

    #[test]
    fn resilience_faults_dispositions_are_typed() {
        tiny_env();
        let t = resilience_faults();
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert!(
                row[1].contains("bit-identical")
                    || row[1].contains("within 1e-12")
                    || row[1].contains("typed error"),
                "undisposed fault: {row:?}"
            );
            assert!(!row[1].contains("DIVERGED"), "{row:?}");
        }
        // The stall scenario must surface as a typed watchdog error.
        assert!(t.rows[3][1].contains("Stalled"), "{:?}", t.rows[3]);
    }
}
