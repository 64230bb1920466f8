//! One function per paper table/figure (see DESIGN.md §3 for the index).
//!
//! Every function returns renderable [`Table`]s for the `repro` binary,
//! the one harness of the paper's evaluation. Methodology knobs come from
//! the environment: `GRAZELLE_SCALE_SHIFT` (workload size),
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
use grazelle_vsparse::simd::scalar::combine;
use grazelle_vsparse::simd::{AllActive, Carry, Kernels, Min, Reduction, Run, SimdLevel, Sum};
use std::time::{Duration, Instant};

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
/// the label.
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    t.note(&format!("HARDWARE-GATED: this host runs {cores} hardware threads, so scaling is flat past {cores}; the Traditional-vs-SA contrast remains valid (DESIGN.md §4.2)"));
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

/// Per-phase vectorization speedup for PageRank (paper Figure 10a), and
/// the speedup of the chunk walker alone.
pub fn fig10a() -> Table {
    let mut t = Table::new(
        "Figure 10a — vectorization speedup by phase (PageRank)",
        &[
            "graph",
            "Edge-Pull",
            "Edge-Push",
            "Vertex",
            "walk Sum",
            "walk Min",
        ],
    );
    t.note("scalar kernels vs AVX2 kernels; Edge-Push is expected ~1x (no atomic-scatter instructions), Vertex ~1x when memory-bound");
    t.note("walk = one Kernels::walk pass over the VSD, no engine around it; per-pass samples in the JSON as walk-<reduction>-<level>:<graph>");
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
        let walk_sum =
            time_walk::<Sum>(w, SimdLevel::Scalar, "sum") / time_walk::<Sum>(w, best, "sum");
        let walk_min =
            time_walk::<Min>(w, SimdLevel::Scalar, "min") / time_walk::<Min>(w, best, "min");
        t.row(vec![
            ds.abbr().into(),
            fmt_speedup(pull_s / pull_v),
            fmt_speedup(push_s / push_v),
            fmt_speedup(vert_s / vert_v),
            fmt_speedup(walk_sum),
            fmt_speedup(walk_min),
        ]);
    }
    t
}

/// Seconds per [`Kernels::walk`] pass of `R` over `w`'s VSD at `level`,
/// every aggregate folded by `R` in the sink. A sample times back-to-back
/// passes for at least 1 ms and is logged per pass as
/// `walk-<name>-<level>:<graph>`; the median is returned.
fn time_walk<R: Reduction>(w: &Workload, level: SimdLevel, name: &str) -> f64 {
    let values: Vec<f64> = (0..w.graph.num_vertices()).map(|i| i as f64).collect();
    let run = Run::unweighted(&values, w.prepared.vsd.vectors());
    let first = run.vectors.first().map_or(0, |v| v.top_level_vertex());
    let kernels = Kernels::with_level(level);
    let pass = || {
        let mut carry = Carry::new(first, R::IDENTITY);
        let mut acc = R::IDENTITY;
        // SAFETY: `values` holds one entry per vertex of the graph the VSD
        // was built from, so it covers every valid lane's neighbor id.
        unsafe {
            kernels.walk::<R, _, _>(run, AllActive, &mut carry, &mut |_, v| {
                acc = combine::<R>(acc, v)
            })
        };
        std::hint::black_box(combine::<R>(acc, carry.reduce(combine::<R>)));
    };
    let timed = |passes: u32| {
        let t0 = Instant::now();
        (0..passes).for_each(|_| pass());
        t0.elapsed()
    };
    let mut passes = 1;
    while timed(passes) < Duration::from_millis(1) {
        passes *= 2;
    }
    let label = format!(
        "walk-{name}-{}:{}",
        format!("{level:?}").to_lowercase(),
        w.dataset.abbr()
    );
    median_secs(|| {
        let secs = timed(passes).as_secs_f64() / f64::from(passes);
        log_run(RunRecord::from_secs(&label, secs));
        secs
    })
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
    t.note("vsparse: the VSD of the set-up plus the push structure it defers, encoded in the arm");
    t.note("csc: the in-degree count of the set-up plus the CSC it defers, built in the arm");
    t.note("csr: the out-index count of the set-up plus the CSR it defers, built in the arm");

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
        // A directed graph's set-up leaves its push structure to the first
        // push; the column keeps counting both encodings, so the arm
        // encodes it here, on its pool (from the cutover up), timed.
        let t0 = Instant::now();
        prepared.vss.ready(Some(pool));
        profile.vsparse_ns += t0.elapsed().as_nanos() as u64;
        // So does a CSC whose degrees differ from the CSR's: the set-up
        // counts the in-degrees and leaves the CSC to its first reader.
        // The `csc` column keeps counting a CSC, so the arm builds it, and
        // the `csr` column a CSR, which a directed graph from a sorted
        // list leaves to its first reader too.
        let t0 = Instant::now();
        graph.ready_in(Some(pool));
        profile.csc_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        graph.ready_out(Some(pool));
        profile.csr_ns += t0.elapsed().as_nanos() as u64;
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

/// Serve-layer latency: the same query streams timed directly against
/// `run_resilient_on_pool` (via [`grazelle_serve::single_shot`]) and
/// through the serving layer's admission/deadline/retry machinery, plus a
/// reachability pair showing what batch formation buys. A served CC runs
/// `single_shot` too, so the CC pair is the serving overhead (≤3% on the
/// clean path); a served BFS or lone Reach runs as a one-lane
/// `multi_source_reach` sweep, so the BFS pair compares two kernels.
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
    /// logged under `label` for the `--json` document. Returns the best
    /// stream's (total seconds, sorted per-query latencies) and the arm's
    /// own spread, the slowest logged stream over the fastest.
    fn measure(label: &str, stream: &mut dyn FnMut(&mut Vec<u64>) -> f64) -> (f64, Vec<u64>, f64) {
        let mut scratch = Vec::new();
        stream(&mut scratch); // warmup, discarded
        let (mut best_secs, mut worst_secs) = (f64::INFINITY, 0.0f64);
        let mut best_lat: Vec<u64> = Vec::new();
        for _ in 0..repeats() {
            let secs = stream(&mut scratch);
            log_run(RunRecord::from_secs(label, secs));
            worst_secs = worst_secs.max(secs);
            if secs < best_secs {
                best_secs = secs;
                best_lat = scratch.clone();
            }
        }
        best_lat.sort_unstable();
        (best_secs, best_lat, worst_secs / best_secs)
    }

    const QUERIES: usize = 48;
    let mut t = Table::new(
        "Serve latency — direct vs served query streams (clean path)",
        &["arm", "queries", "p50 us", "p99 us", "QPS", "vs baseline"],
    );
    t.note("acceptance: served/direct CC stream overhead ≤3% on the clean path (both single_shot)");
    t.note("cc served: unresolved while the direct arm's own spread (max/min stream) exceeds 3%");
    t.note("bfs: direct runs single_shot, served a one-lane packed sweep");
    t.note("best-of-N over whole streams; percentiles from the best stream");
    t.note("reach arms share a baseline: one-lane sweeps (x1) vs 64-wide packs");

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
    let run_direct = |q: fn(u32) -> Query, lat: &mut Vec<u64>| -> f64 {
        lat.clear();
        let t0 = Instant::now();
        for &r in &roots {
            let q0 = Instant::now();
            let res = single_shot(&graph, &pg, &ecfg, &ResilienceContext::new(), &pool, q(r))
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

    let mut direct_cc = |lat: &mut Vec<u64>| run_direct(|_| Query::Cc, lat);
    let (cc_direct_s, cc_direct_l, cc_spread) = measure("serve:cc:direct", &mut direct_cc);
    let mut served_cc = |lat: &mut Vec<u64>| run_served(|_| Query::Cc, lat);
    let (cc_served_s, cc_served_l, _) = measure("serve:cc:served", &mut served_cc);
    let mut direct_bfs = |lat: &mut Vec<u64>| run_direct(|r| Query::Bfs { root: r }, lat);
    let (direct_s, direct_l, _) = measure("serve:bfs:direct", &mut direct_bfs);
    let mut served_bfs = |lat: &mut Vec<u64>| run_served(|r| Query::Bfs { root: r }, lat);
    let (served_s, served_l, _) = measure("serve:bfs:served", &mut served_bfs);
    let mut served_reach = |lat: &mut Vec<u64>| run_served(|r| Query::Reach { root: r }, lat);
    let (seq_s, seq_l, _) = measure("serve:reach:seq", &mut served_reach);
    let (packed_s, packed_l, _) = measure("serve:reach:packed", &mut run_packed);
    let snap = server.stats();
    assert_eq!(snap.failed, 0, "clean streams must not fail");
    assert_eq!(snap.expired, 0, "no deadlines were set");
    assert!(snap.packed_runs > 0, "reach stream must actually pack");
    assert_eq!(
        snap.reach_lookups, 0,
        "a directed input keeps every reach on the sweep"
    );
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
    row("cc direct", cc_direct_s, &cc_direct_l, None);
    row("cc served", cc_served_s, &cc_served_l, Some(cc_direct_s));
    row("bfs direct", direct_s, &direct_l, None);
    row("bfs served", served_s, &served_l, Some(direct_s));
    row("reach served x1", seq_s, &seq_l, None);
    row("reach packed x64", packed_s, &packed_l, Some(seq_s));
    // Within the direct arm's own noise a served/direct difference says
    // nothing about the serving layer.
    let spread = (cc_spread - 1.0) * 100.0;
    let verdict = if spread > 3.0 { ", unresolved" } else { "" };
    t.rows[1][5] += &format!(" (direct spread {spread:.1}%{verdict})");
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
    t.note("csr / csc / vsparse: the deferred CSR, CSC and push structure are built in the arm");

    let mut reference: Option<(grazelle_graph::graph::Graph, PreparedGraph)> = None;
    let mut base_secs = None;
    let mut par_speedup = 1.0f64;
    for arm_threads in [1usize, threads().max(2)] {
        let pool = ThreadPool::single_group(arm_threads);
        let mut best: Option<BuildProfile> = None;
        for _ in 0..repeats() {
            // Cutover 0 pins the parallel pipeline on, whatever the scale.
            let (g, p, mut profile) = prepare_profiled_with_cutover(&el, &pool, 0).expect("build");
            // The deferred push structure, timed into `vsparse` as in
            // `build_throughput` (at this scale, on the pool).
            let t0 = Instant::now();
            p.vss.ready(Some(&pool));
            profile.vsparse_ns += t0.elapsed().as_nanos() as u64;
            // The deferred CSC and CSR, timed into `csc` and `csr` likewise.
            let t0 = Instant::now();
            g.ready_in(Some(&pool));
            profile.csc_ns += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            g.ready_out(Some(&pool));
            profile.csr_ns += t0.elapsed().as_nanos() as u64;
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
    fn fig10a_smoke() {
        tiny_env();
        let t = fig10a();
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            for cell in &row[4..6] {
                let x: f64 = cell.strip_suffix('x').unwrap().parse().unwrap();
                assert!(x.is_finite() && x > 0.0, "{row:?}");
            }
        }
    }

    #[test]
    fn ablations_produce_wellformed_tables() {
        tiny_env();
        assert_eq!(ablate_pull_frontier().rows.len(), 6);
        let order = ablate_order();
        assert_eq!(order.rows.len(), 6); // 2 graphs x 3 orderings
                                         // Natural-ordering rows are the 1.00 baseline.
        for row in order.rows.iter().filter(|r| r[1] == "natural") {
            assert_eq!(row[4], "1.00");
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
    fn serve_latency_logs_every_arm() {
        tiny_env();
        crate::schema::drain_runs();
        let t = serve_latency();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.rows[0][0], "cc direct");
        assert_eq!(t.rows[0][5], "baseline");
        assert!(t.rows[1][5].contains("direct spread"), "{:?}", t.rows[1]);
        assert_eq!(t.rows[2][0], "bfs direct");
        let runs = crate::schema::drain_runs();
        for label in [
            "serve:cc:direct",
            "serve:cc:served",
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
        assert_eq!(sampling_policy("build-throughput"), "best-of-N");
        assert_eq!(sampling_policy("build-large"), "best-of-N");
        assert_eq!(sampling_policy("serve-latency"), "best-of-N");
        assert_eq!(sampling_policy("recorder-overhead"), "best-of-N");
        assert_eq!(sampling_policy("resilience-overhead"), "best-of-N");
        assert_eq!(sampling_policy("fig5a"), "median-of-N");
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
