//! The four workloads: what one *solve* is, how its output is checked, and
//! which layer metrics it feeds. `README.md` records why each was chosen.

use crate::host;
use crate::inputs::{generate, Inputs, Request, Sizes, Workload};
use crate::report::{Outcome, Samples, QUIET_QUANTILE};
use crate::setup::{self, engine_config, serve_config, Built};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, quantile, tail};
use grazelle_apps::pagerank::{self, DAMPING};
use grazelle_apps::{bfs, cc, sssp};
use grazelle_core::engine::hybrid::{EngineKind, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{prepare_profiled, EngineConfig, ResilienceContext};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::io::write_text_edgelist;
use grazelle_graph::types::VertexId;
use grazelle_sched::ThreadPool;
use grazelle_serve::{single_shot, Query, QueryResult, ServeConfig, Server, StatsSnapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one run is carried out.
#[derive(Debug, Clone)]
pub struct RunParams {
    pub seed: u64,
    /// How long the solve loop measures.
    pub seconds: f64,
    /// The traced run: spans, `EngineConfig::trace`, layer probes.
    pub trace: bool,
    pub threads: usize,
    /// Cold set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Solves discarded before timing starts.
    pub warmups: usize,
    /// Where the run's input file goes.
    pub dir: PathBuf,
}

/// Solves timed per run at the least, however short `seconds` is.
const MIN_SOLVES: usize = 3;
/// Empty pool round trips timed for `sched.dispatch_us`.
const DISPATCH_ROUND_TRIPS: usize = 10_000;
/// Lanes of one packed reachability run.
const PACK_LANES: f64 = 64.0;

/// Operations checked so far.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one checked operation; returns whether it passed.
    fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// Runs one workload once and returns its outcome and trace.
pub fn run(
    workload: Workload,
    sizes: &Sizes,
    p: &RunParams,
) -> Result<(Outcome, Vec<Span>), String> {
    let mut t = Tracer::new(p.trace);
    let mut s = Samples::default();
    let mut ops = Ops::default();
    let (notes, _) = t.timed("run", |t| {
        run_inner(workload, sizes, p, t, &mut s, &mut ops)
    });
    let notes = notes?;
    if p.trace {
        s.push("trace_coverage_frac", spans::coverage(t.spans()));
    }
    let outcome = Outcome {
        traced: p.trace,
        attempted: ops.attempted,
        failed: ops.failed,
        samples: s,
        notes,
    };
    Ok((outcome, t.spans().to_vec()))
}

fn run_inner(
    workload: Workload,
    sizes: &Sizes,
    p: &RunParams,
    t: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) -> Result<Vec<String>, String> {
    let path = p.dir.join(format!("{}-{}.txt", workload.name(), p.seed));
    let (inputs, written) = t.span("bench.generate", |_| {
        let mut inputs = generate(workload, sizes, p.seed);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        write_text_edgelist(&inputs.edges, file).map_err(|e| e.to_string())?;
        // Only the file goes on: the programs see the generated input, and
        // the generator's copy does not count towards their memory.
        let written = std::mem::take(&mut inputs.edges).num_edges();
        Ok::<_, String>((inputs, written))
    })?;
    if let Some(mb) = host::peak_rss_mb() {
        s.push("host.gen_rss_mb", mb);
    }

    let built = setup::repeated(&path, p.threads, p.setups, workload.is_serve(), t, s)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let _ = std::fs::remove_file(&path);
    if built.graph.num_edges() != written {
        return Err(format!(
            "loaded {} edges, wrote {written}",
            built.graph.num_edges()
        ));
    }
    let mut notes = vec![
        format!("input_checksum={:016x}", inputs.checksum),
        format!(
            "vertices={} edges={} weighted={}",
            built.graph.num_vertices(),
            built.graph.num_edges(),
            built.graph.is_weighted()
        ),
        format!("setups={} warmups={}", p.setups.max(1), p.warmups),
    ];
    if p.trace {
        push_structure_metrics(&built.pg, s);
    }

    match workload {
        Workload::PrSkewDense => pagerank_solves(&built, sizes, p, t, s, ops),
        Workload::TravMeshSparse => traversal_solves(&built, &inputs.roots, p, t, s, ops),
        Workload::ServeReachMix | Workload::ServeUpdateMix => {
            serve_solves(workload, &built, &inputs, sizes, p, t, s, ops)?
        }
    }
    notes.push(format!(
        "solves_timed={} ops_attempted={} ops_failed={}",
        s.get("solve_s").len(),
        ops.attempted,
        ops.failed
    ));
    if s.get("solve_s").is_empty() {
        return Err("no solve completed correctly".to_string());
    }
    Ok(notes)
}

/// Exact, from array lengths: packing efficiency of the pull structure and
/// bytes of Vector-Sparse storage (both orientations, vectors, weights and
/// vertex index) per edge.
fn push_structure_metrics(pg: &PreparedGraph, s: &mut Samples) {
    let vector_bytes = |vectors: usize, weighted: bool, index: usize| {
        vectors * 32 * if weighted { 2 } else { 1 } + index * 8
    };
    let bytes = vector_bytes(
        pg.vsd.num_vectors(),
        pg.vsd.weight_vectors().is_some(),
        pg.vsd.index().len(),
    ) + vector_bytes(
        pg.vss.num_vectors(),
        pg.vss.weight_vectors().is_some(),
        pg.vss.index().len(),
    );
    s.push("vsparse.packing_eff", pg.vsd.packing_efficiency());
    s.push(
        "vsparse.bytes_per_edge",
        bytes as f64 / pg.num_edges.max(1) as f64,
    );
}

/// The timed solves of one run, in seconds each.
#[derive(Debug, Default)]
struct Solves {
    plain: Vec<f64>,
    /// Traced run only: the solves that had `EngineConfig::trace` on.
    instrumented: Vec<f64>,
}

/// Records what the solves measured: one `solve_s` sample per plain solve,
/// and the traced run's overhead by the same estimator `solve_s` uses.
fn report_solves(solves: &Solves, s: &mut Samples) {
    s.extend("solve_s", solves.plain.iter().copied());
    if !solves.plain.is_empty() && !solves.instrumented.is_empty() {
        let overhead = quantile(&solves.instrumented, QUIET_QUANTILE) / s.value("solve_s") - 1.0;
        s.push("trace_overhead_frac", overhead);
    }
}

/// Warm-ups, then solves until `seconds` have passed. `solve` returns the
/// solve's time, or `None` when its output was wrong (such a solve is not
/// timed). In the traced run every other solve is *instrumented*
/// (`EngineConfig::trace` on); `solve_s` always comes from the plain ones.
fn solve_loop(
    p: &RunParams,
    t: &mut Tracer,
    s: &mut Samples,
    mut solve: impl FnMut(&mut Tracer, &mut Samples, bool) -> Option<f64>,
) -> Solves {
    for _ in 0..p.warmups {
        t.span("warmup", |t| solve(t, &mut Samples::default(), false));
    }
    let mut solves = Solves::default();
    let mut plain = 0;
    let start = Instant::now();
    let mut id = 0u32;
    while start.elapsed().as_secs_f64() < p.seconds || plain < MIN_SOLVES {
        let instrument = p.trace && id % 2 == 1;
        t.set_solve(Some(id));
        let secs = t.span("solve", |t| solve(t, s, instrument));
        id += 1;
        match secs {
            Some(secs) if instrument => solves.instrumented.push(secs),
            Some(secs) => solves.plain.push(secs),
            None => {}
        }
        plain += usize::from(!instrument);
        // A workload that keeps failing must still end.
        if id as usize >= 4 * MIN_SOLVES && solves.plain.is_empty() {
            break;
        }
    }
    t.set_solve(None);
    solves
}

/// Engine totals of one solve, from the `ExecutionStats` of its runs.
#[derive(Debug, Default)]
struct EngineTotals {
    wall: Duration,
    supersteps: usize,
    pull: usize,
    push: usize,
    compact: usize,
    spa: usize,
    shares_ns: [u64; 5],
}

impl EngineTotals {
    fn add(&mut self, stats: &ExecutionStats) {
        self.wall += stats.wall;
        self.supersteps += stats.iterations;
        self.pull += stats.pull_iterations;
        self.push += stats.push_iterations;
        for r in &stats.records {
            self.compact += usize::from(r.pull_compacted);
            self.spa += usize::from(r.engine == EngineKind::Push && r.spa_bucket_entries > 0);
            for (sum, ns) in self.shares_ns.iter_mut().zip([
                r.edge_wall_ns,
                r.work_ns,
                r.merge_ns,
                r.write_ns,
                r.idle_ns,
            ]) {
                *sum += ns;
            }
        }
    }

    /// Pushes the `core.*` samples of one solve. Timings come from plain
    /// solves; the two counts only `records` carry from instrumented ones,
    /// where the program-reported shares also go onto the open span.
    fn push(&self, edges: usize, instrumented: bool, t: &mut Tracer, s: &mut Samples) {
        if instrumented {
            s.push("core.compact_steps", self.compact as f64);
            s.push("core.spa_steps", self.spa as f64);
            for (key, ns) in ["edge_wall_ns", "work_ns", "merge_ns", "write_ns", "idle_ns"]
                .into_iter()
                .zip(self.shares_ns)
            {
                t.count(key, ns as f64);
            }
            t.count("pull_steps", self.pull as f64);
            t.count("push_steps", self.push as f64);
            t.count("compact_steps", self.compact as f64);
            t.count("spa_steps", self.spa as f64);
            return;
        }
        let wall_ns = self.wall.as_secs_f64() * 1e9;
        let edge_visits = (self.supersteps * edges).max(1) as f64;
        s.push("core.ns_per_edge", wall_ns / edge_visits);
        s.push("core.medges_per_s", edge_visits / wall_ns * 1e3);
        s.push(
            "core.us_per_superstep",
            wall_ns / 1e3 / self.supersteps.max(1) as f64,
        );
        s.push("core.supersteps", self.supersteps as f64);
        s.push("core.pull_steps", self.pull as f64);
        s.push("core.push_steps", self.push as f64);
    }
}

/// The probes the layer metrics are ratios to, on the run's own pool.
fn host_probes(built: &Built, working_set_bytes: usize, t: &mut Tracer, s: &mut Samples) -> f64 {
    t.span("sched.dispatch_probe", |_| {
        s.push(
            "sched.dispatch_us",
            host::dispatch_us(&built.pool, DISPATCH_ROUND_TRIPS),
        );
    });
    t.span("host.triad_probe", |_| {
        let gbs = host::triad_gb_per_s(&built.pool, working_set_bytes, 5);
        s.push("host.triad_gb_per_s", gbs);
        gbs
    })
}

/// `core.speedup_vs_1t`: the same solve on a one-thread pool.
fn one_thread_speedup(
    repeats: usize,
    t: &mut Tracer,
    s: &mut Samples,
    mut solve: impl FnMut(&mut Tracer, &EngineConfig, &ThreadPool) -> f64,
    cfg: &EngineConfig,
) {
    t.span("core.one_thread", |t| {
        let pool = ThreadPool::single_group(1);
        let cfg = cfg.with_threads(1);
        let secs: Vec<f64> = (0..repeats).map(|_| solve(t, &cfg, &pool)).collect();
        let speedup = quantile(&secs, QUIET_QUANTILE) / s.value("solve_s");
        s.push("core.speedup_vs_1t", speedup);
    });
}

// ---------------------------------------------------------------------------
// pr-skew-dense
// ---------------------------------------------------------------------------

/// Ranks agree with the sequential reference to 1e-9 relative (summation
/// order differs between the SIMD pull and the reference) and sum to 1.
fn ranks_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs() + 1e-15)
        && (got.iter().sum::<f64>() - 1.0).abs() < 1e-6
}

fn pagerank_solves(
    built: &Built,
    sizes: &Sizes,
    p: &RunParams,
    t: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) {
    let (g, pg) = (&*built.graph, &*built.pg);
    let iterations = sizes.pr_iterations;
    let cfg = engine_config(p.threads, g.num_vertices());
    let want = t.span("bench.reference", |_| {
        pagerank::reference(g, DAMPING, iterations)
    });
    let solve = |t: &mut Tracer, cfg: &EngineConfig, pool: &ThreadPool| {
        let ((ranks, stats), d) = t.timed("apps.pagerank", |_| {
            pagerank::run_prepared(pg, g, cfg, pool, iterations)
        });
        let ok = t.span("bench.verify", |_| ranks_match(&ranks, &want))
            && stats.iterations == iterations;
        (d, stats, ok)
    };
    let solves = solve_loop(p, t, s, |t, s, instrument| {
        let (d, stats, ok) = solve(t, &cfg.with_trace(instrument), &built.pool);
        if !ops.check(ok) {
            return None;
        }
        let mut totals = EngineTotals::default();
        totals.add(&stats);
        totals.push(g.num_edges(), instrument, t, s);
        if !instrument {
            s.push("apps.self_s", d.saturating_sub(stats.wall).as_secs_f64());
        }
        Some(d.as_secs_f64())
    });
    report_solves(&solves, s);
    if let Some(mb) = host::peak_rss_mb() {
        s.push("peak_rss_mb", mb);
    }
    if p.trace {
        // Computed, not measured: one pull iteration streams the VSD
        // vectors, gathers one 8-byte contribution per edge, and the Vertex
        // phase touches five 8-byte arrays per vertex.
        let bytes_per_iteration =
            pg.vsd.num_vectors() * 32 + g.num_edges() * 8 + g.num_vertices() * 8 * 5;
        let triad = host_probes(built, bytes_per_iteration, t, s);
        let achieved_gb_per_s =
            bytes_per_iteration as f64 / (s.value("core.us_per_superstep") * 1e3);
        s.push("core.frac_of_triad_bw", achieved_gb_per_s / triad);
        one_thread_speedup(
            3,
            t,
            s,
            |t, cfg, pool| solve(t, cfg, pool).0.as_secs_f64(),
            &cfg,
        );
    }
}

// ---------------------------------------------------------------------------
// trav-mesh-sparse
// ---------------------------------------------------------------------------

/// A parent array is a valid BFS tree from `root` exactly when the visited
/// set is the reachable set and every parent is an in-neighbour one level
/// up. Which of several such parents is chosen is the engine's tie-break,
/// so the check does not depend on it.
fn bfs_tree_valid(
    g: &Graph,
    root: VertexId,
    parents: &[Option<VertexId>],
    depth: &[Option<u32>],
) -> bool {
    parents.len() == depth.len()
        && (0..parents.len()).all(|v| match (parents[v], depth[v]) {
            (None, None) => true,
            (Some(p), Some(0)) => v == root as usize && p == root,
            (Some(p), Some(d)) => {
                depth[p as usize] == Some(d - 1) && g.in_neighbors(v as VertexId).contains(&p)
            }
            _ => false,
        })
}

fn traversal_solves(
    built: &Built,
    roots: &[VertexId],
    p: &RunParams,
    t: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) {
    let (g, pg) = (&*built.graph, &*built.pg);
    let cfg = engine_config(p.threads, g.num_vertices());
    let want: Vec<_> = t.span("bench.reference", |_| {
        roots
            .iter()
            .map(|&r| (bfs::reference_depths(g, r), sssp::reference(g, r)))
            .collect()
    });
    // One solve: BFS then SSSP from each root. Returns the time summed over
    // the runs (checks sit between them, outside it).
    let solve = |t: &mut Tracer, cfg: &EngineConfig, pool: &ThreadPool, ops: &mut Ops| {
        let mut totals = EngineTotals::default();
        let mut secs = 0.0;
        let mut self_secs = 0.0;
        let mut ok = true;
        for (&root, (depths, dists)) in roots.iter().zip(&want) {
            let ((parents, stats), d) =
                t.timed("apps.bfs", |_| bfs::run_prepared(pg, cfg, pool, root));
            totals.add(&stats);
            secs += d.as_secs_f64();
            self_secs += d.saturating_sub(stats.wall).as_secs_f64();
            ok &= ops.check(
                stats.iterations < cfg.max_iterations
                    && t.span("bench.verify", |_| {
                        bfs_tree_valid(g, root, &parents, depths)
                    }),
            );
            let ((got, stats), d) =
                t.timed("apps.sssp", |_| sssp::run_prepared(pg, cfg, pool, root));
            totals.add(&stats);
            secs += d.as_secs_f64();
            self_secs += d.saturating_sub(stats.wall).as_secs_f64();
            ok &= ops.check(stats.iterations < cfg.max_iterations && got == *dists);
        }
        (secs, self_secs, totals, ok)
    };
    let solves = solve_loop(p, t, s, |t, s, instrument| {
        let (secs, self_secs, totals, ok) = solve(t, &cfg.with_trace(instrument), &built.pool, ops);
        if !ok {
            return None;
        }
        totals.push(g.num_edges(), instrument, t, s);
        if !instrument {
            s.push("apps.self_s", self_secs);
        }
        Some(secs)
    });
    report_solves(&solves, s);
    if let Some(mb) = host::peak_rss_mb() {
        s.push("peak_rss_mb", mb);
    }
    if p.trace {
        let working_set =
            (pg.vsd.num_vectors() + pg.vss.num_vectors()) * 64 + g.num_vertices() * 8 * 5;
        host_probes(built, working_set, t, s);
        let mut scratch = Ops::default();
        one_thread_speedup(
            1,
            t,
            s,
            |t, cfg, pool| solve(t, cfg, pool, &mut scratch).0,
            &cfg,
        );
    }
}

// ---------------------------------------------------------------------------
// serve-reach-mix, serve-update-mix
// ---------------------------------------------------------------------------

/// Order-sensitive digest of a reply, taken as it arrives so the client
/// holds no result past its reply (the served path promises bit-identity
/// with `single_shot`, so equal digests are the check).
fn digest(r: &QueryResult) -> u64 {
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    match r {
        QueryResult::Reached(v) => v.chunks(8).fold(1, |h, c| {
            fold(h, c.iter().fold(0, |w, &b| w << 8 | u64::from(b)))
        }),
        QueryResult::Parents(v) => v
            .iter()
            .fold(2, |h, p| fold(h, p.map_or(u64::MAX, u64::from))),
        QueryResult::Updated {
            version,
            inserted,
            deleted,
            merged,
        } => [
            *version,
            *inserted as u64,
            *deleted as u64,
            u64::from(*merged),
        ]
        .into_iter()
        .fold(3, fold),
        other => unreachable!("the mix never asks for {}", other.describe()),
    }
}

/// One closed-loop stream: a single client keeps `window` tickets
/// outstanding, waiting for the oldest before submitting the next.
struct Stream {
    /// First submit to last reply.
    secs: f64,
    /// Digest per request; `None` for a shed, expired or failed one.
    digests: Vec<Option<u64>>,
    submit_us: Vec<f64>,
    stats: StatsSnapshot,
}

fn run_stream(
    built: &Built,
    cfg: ServeConfig,
    requests: &[Request],
    window: usize,
    t: &mut Tracer,
) -> Stream {
    let server = t.span("serve.start", |_| {
        Server::start(Arc::clone(&built.graph), Arc::clone(&built.pg), cfg)
    });
    let mut digests = vec![None; requests.len()];
    let mut submit_us = Vec::with_capacity(requests.len());
    let ((), d) = t.timed("serve.stream", |_| {
        let mut pending = VecDeque::with_capacity(window);
        let mut settle = |(i, ticket): (usize, grazelle_serve::Ticket)| {
            digests[i] = ticket.wait().ok().as_ref().map(digest);
        };
        for (i, r) in requests.iter().enumerate() {
            if pending.len() == window {
                settle(pending.pop_front().expect("window is full"));
            }
            let t0 = Instant::now();
            let ticket = match r {
                Request::Query(q) => server.submit(*q),
                Request::Update(b) => server.submit_update(b.clone()),
            };
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Ok(ticket) = ticket {
                pending.push_back((i, ticket));
            }
        }
        pending.into_iter().for_each(settle);
    });
    let stats = t.span("serve.stop", |_| server.drain());
    Stream {
        secs: d.as_secs_f64(),
        digests,
        submit_us,
        stats,
    }
}

/// Window-1 closed loop: what one interactive caller sees per query.
/// Returns submit→reply seconds and the reply digests.
fn latency_pass(server: &Server, queries: &[Query]) -> (Vec<f64>, Vec<Option<u64>>) {
    queries
        .iter()
        .map(|&q| {
            let t0 = Instant::now();
            let reply = server.submit(q).ok().and_then(|ticket| ticket.wait().ok());
            (t0.elapsed().as_secs_f64(), reply.as_ref().map(digest))
        })
        .unzip()
}

/// Computes the expected digest of each request by replaying a stream
/// against cold structures: queries through `single_shot` on the version
/// current at their position, and after each update batch a rebuild from
/// the edge set it leaves. `direct_secs` sums the `single_shot` time of the
/// queries (`serve.direct_exec_s`).
struct Reference<'a> {
    pool: &'a ThreadPool,
    cfg: EngineConfig,
    graph: Arc<Graph>,
    pg: Arc<PreparedGraph>,
    version: u64,
    /// `(version, is_bfs, root)` → digest of queries already answered.
    seen: BTreeMap<(u64, bool, VertexId), u64>,
    /// Component of each vertex of a symmetric base graph, where
    /// "reachable from r" is "in r's component": a sequential reference for
    /// `Reach` ten times cheaper than a thousand `single_shot` runs. The
    /// untraced `serve-reach-mix` run uses it; the traced run pays for the
    /// full `single_shot` pass, which `serve.direct_exec_s` needs anyway.
    components: Option<Vec<u32>>,
    direct_secs: f64,
    /// `single_shot` BFS trees that a sequential BFS does not confirm.
    invalid_trees: u64,
}

/// Component label of every vertex of a graph whose out- and in-adjacency
/// coincide; `None` for a directed graph.
fn symmetric_components(g: &Graph) -> Option<Vec<u32>> {
    let symmetric =
        g.out_csr().index() == g.in_csr().index() && g.out_csr().edges() == g.in_csr().edges();
    symmetric.then(|| cc::reference_undirected(g))
}

impl<'a> Reference<'a> {
    fn new(built: &'a Built, cfg: EngineConfig, reach_by_components: bool) -> Self {
        Reference {
            pool: &built.pool,
            cfg,
            graph: Arc::clone(&built.graph),
            pg: Arc::clone(&built.pg),
            version: 0,
            seen: BTreeMap::new(),
            components: reach_by_components
                .then(|| symmetric_components(&built.graph))
                .flatten(),
            direct_secs: 0.0,
            invalid_trees: 0,
        }
    }

    fn query(&mut self, q: Query) -> Result<u64, String> {
        let key = match q {
            Query::Bfs { root } => (self.version, true, root),
            Query::Reach { root } => (self.version, false, root),
            other => unreachable!("the mix never asks for {}", other.name()),
        };
        if let Some(&d) = self.seen.get(&key) {
            return Ok(d);
        }
        let d = match (q, &self.components) {
            (Query::Reach { root }, Some(label)) => {
                let component = label[root as usize];
                digest(&QueryResult::Reached(
                    label.iter().map(|&l| l == component).collect(),
                ))
            }
            _ => {
                let t0 = Instant::now();
                let r = single_shot(
                    &self.graph,
                    &self.pg,
                    &self.cfg,
                    &ResilienceContext::new(),
                    self.pool,
                    q,
                )
                .map_err(|e| format!("reference {}: {e}", q.name()))?;
                self.direct_secs += t0.elapsed().as_secs_f64();
                if let (Query::Bfs { root }, QueryResult::Parents(parents)) = (q, &r) {
                    let depth = bfs::reference_depths(&self.graph, root);
                    self.invalid_trees +=
                        u64::from(!bfs_tree_valid(&self.graph, root, parents, &depth));
                }
                digest(&r)
            }
        };
        self.seen.insert(key, d);
        Ok(d)
    }

    /// Applies `batch` to the edge set and rebuilds cold.
    fn update(&mut self, batch: &grazelle_graph::delta::UpdateBatch) -> Result<u64, String> {
        let deletes: BTreeSet<_> = batch.deletes().iter().copied().collect();
        let mut edges: Vec<(VertexId, VertexId)> = self
            .graph
            .out_csr()
            .iter_edges()
            .map(|(s, d, _)| (s, d))
            .filter(|e| !deletes.contains(e))
            .collect();
        edges.extend_from_slice(batch.inserts());
        let el = EdgeList::from_parts(self.graph.num_vertices(), edges, None)
            .map_err(|e| e.to_string())?;
        let (g, pg, _) = prepare_profiled(&el, self.pool).map_err(|e| e.to_string())?;
        (self.graph, self.pg) = (Arc::new(g), Arc::new(pg));
        self.components = None;
        self.version += 1;
        Ok(digest(&QueryResult::Updated {
            version: self.version,
            inserted: batch.inserts().len(),
            deleted: batch.deletes().len(),
            // Deletes force the merge rebuild; the insert batches here stay
            // far below the merge fraction.
            merged: !batch.deletes().is_empty(),
        }))
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_solves(
    workload: Workload,
    built: &Built,
    inputs: &Inputs,
    sizes: &Sizes,
    p: &RunParams,
    t: &mut Tracer,
    s: &mut Samples,
    ops: &mut Ops,
) -> Result<(), String> {
    let engine = engine_config(p.threads, built.graph.num_vertices());
    let requests = &inputs.requests;
    // Replies are checked after the timed phase, against digests the
    // streams left behind; a stream with a wrong reply is then dropped
    // from the timings.
    let mut streams: Vec<(bool, Stream)> = Vec::new();
    solve_loop(p, t, s, |t, _, instrument| {
        let cfg = serve_config(engine.with_trace(instrument));
        let stream = run_stream(built, cfg, requests, sizes.window, t);
        let secs = stream.secs;
        streams.push((instrument, stream));
        Some(secs)
    });
    // The warm-up streams came first; like every warm-up they are dropped.
    streams.drain(..p.warmups.min(streams.len()));
    if let Some(mb) = host::peak_rss_mb() {
        s.push("peak_rss_mb", mb);
    }

    let mut reference = Reference::new(built, engine, !p.trace);
    let want: Vec<u64> = t.span("bench.reference", |_| {
        requests
            .iter()
            .map(|r| match r {
                Request::Query(q) => reference.query(*q),
                Request::Update(b) => reference.update(b),
            })
            .collect::<Result<_, _>>()
    })?;
    let direct_secs = reference.direct_secs;
    for _ in 0..reference.invalid_trees {
        ops.check(false);
    }
    let mut verified = Solves::default();
    t.span("bench.verify", |_| {
        for (instrument, stream) in &streams {
            let wrong = stream
                .digests
                .iter()
                .zip(&want)
                .filter(|&(got, want)| !ops.check(*got == Some(*want)))
                .count();
            if wrong == 0 {
                let side = if *instrument {
                    &mut verified.instrumented
                } else {
                    &mut verified.plain
                };
                side.push(stream.secs);
            }
        }
    });
    report_solves(&verified, s);

    if !p.trace {
        return Ok(());
    }
    s.push("serve.direct_exec_s", direct_secs);
    s.push("serve.speedup_vs_direct", direct_secs / s.value("solve_s"));
    for (instrument, stream) in &streams {
        let st = &stream.stats;
        s.extend(
            "serve.shed",
            [(st.shed_queue + st.shed_work + st.shed_draining) as f64],
        );
        s.push("serve.expired", st.expired as f64);
        s.push("serve.failed", st.failed as f64);
        s.push("serve.retries", st.retries as f64);
        s.push("serve.degraded", st.degraded as f64);
        if *instrument {
            continue;
        }
        s.extend("serve.submit_us", stream.submit_us.iter().copied());
        s.push("serve.merges", st.merges as f64);
        if st.packed_runs > 0 {
            s.push(
                "serve.pack_occupancy",
                st.packed_queries as f64 / (st.packed_runs as f64 * PACK_LANES),
            );
        }
    }
    drop(streams);

    // What one interactive caller sees, and what an update costs alone.
    let mut base_reference = Reference::new(built, engine, false);
    let want: Vec<u64> = t.span("bench.reference", |_| {
        inputs
            .latency_queries
            .iter()
            .map(|&q| base_reference.query(q))
            .collect::<Result<_, _>>()
    })?;
    t.span("serve.latency_probe", |t| {
        let server = t.span("serve.start", |_| {
            Server::start(
                Arc::clone(&built.graph),
                Arc::clone(&built.pg),
                serve_config(engine),
            )
        });
        let passes = if workload == Workload::ServeReachMix {
            2
        } else {
            1
        };
        let mut plain = Vec::new();
        for _ in 0..passes {
            let (secs, digests) = latency_pass(&server, &inputs.latency_queries);
            for ((secs, got), want) in secs.into_iter().zip(digests).zip(&want) {
                if ops.check(got == Some(*want)) {
                    plain.push(secs);
                }
            }
        }
        if let Some((_, tail)) = tail(&plain) {
            s.push("serve.query_tail_s", tail);
        }
        let plain_p50 = median(&plain);
        s.extend("serve.query_p50_s", plain);
        let mut first = true;
        for r in requests {
            let Request::Update(b) = r else { continue };
            let t0 = Instant::now();
            let applied = server
                .submit_update(b.clone())
                .ok()
                .and_then(|tk| tk.wait().ok());
            if ops.check(applied.is_some()) {
                s.push("serve.update_apply_s", t0.elapsed().as_secs_f64());
            }
            if std::mem::take(&mut first) {
                // With the first batch's overlay active, the same pass.
                let (secs, digests) = latency_pass(&server, &inputs.latency_queries);
                let ok: Vec<f64> = secs
                    .into_iter()
                    .zip(digests)
                    .filter(|(_, d)| ops.check(d.is_some()))
                    .map(|(secs, _)| secs)
                    .collect();
                s.push("serve.overlay_query_slowdown", median(&ok) / plain_p50);
            }
        }
        t.span("serve.stop", |_| drop(server));
    });
    let working_set = (built.pg.vsd.num_vectors() + built.pg.vss.num_vectors()) * 32
        + built.graph.num_vertices() * 8 * 5;
    host_probes(built, working_set, t, s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::{Kind, METRICS};

    fn params(trace: bool, dir: &str) -> RunParams {
        let dir = std::env::temp_dir().join(format!(
            "grazelle-benchmark-test-{}-{dir}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        RunParams {
            seed: 7,
            seconds: 0.05,
            trace,
            threads: 2,
            setups: 2,
            warmups: 1,
            dir,
        }
    }

    /// Every workload × every metric named in `BENCHMARK.json` appears in
    /// the output of the matching kind of run, nothing fails, and the exact
    /// counts repeat.
    #[test]
    fn every_workload_reports_every_metric_of_benchmark_json() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string()),
            "BENCHMARK.json workloads"
        );
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let registered: Vec<_> = METRICS
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| m.name)
                .collect();
            assert_eq!(names(key), registered, "BENCHMARK.json {key}");
            for m in manifest.get(key).and_then(Json::as_arr).unwrap() {
                let def = METRICS
                    .iter()
                    .find(|d| Some(d.name) == m.get("name").and_then(Json::as_str))
                    .unwrap();
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(def.better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }

        let sizes = Sizes::tiny();
        for w in Workload::ALL {
            let mut exact = Vec::new();
            for (trace, key) in [
                (false, "end_to_end"),
                (true, "per_layer"),
                (true, "per_layer"),
            ] {
                let p = params(trace, w.name());
                let (outcome, spans) = run(w, &sizes, &p).unwrap();
                std::fs::remove_dir_all(&p.dir).unwrap();
                assert_eq!(outcome.failed, 0, "{} trace={trace}", w.name());
                assert!(outcome.attempted >= 1);
                let line = Json::parse(&outcome.result_line()).unwrap();
                let got: Vec<&str> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(got, names(key), "{} trace={trace}", w.name());
                if !trace {
                    assert!(spans.is_empty());
                    for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
                        if m.name != "peak_rss_mb" || host::peak_rss_mb().is_some() {
                            assert!(
                                outcome.samples.value(m.name) > 0.0,
                                "{} {}",
                                w.name(),
                                m.name
                            );
                        }
                    }
                    continue;
                }
                let coverage = outcome.samples.value("trace_coverage_frac");
                assert!(
                    coverage > 0.9 && coverage <= 1.0,
                    "{} coverage {coverage}",
                    w.name()
                );
                assert!(spans.iter().any(|s| s.name == "setup"));
                exact.push(
                    [
                        "core.supersteps",
                        "core.pull_steps",
                        "core.push_steps",
                        "vsparse.packing_eff",
                        "vsparse.bytes_per_edge",
                    ]
                    .map(|m| outcome.samples.value(m).to_bits()),
                );
            }
            assert_eq!(exact[0], exact[1], "{} exact counts", w.name());
        }
    }

    #[test]
    fn a_wrong_output_is_a_failed_operation() {
        let mut ops = Ops::default();
        assert!(ops.check(true));
        assert!(!ops.check(false));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert!(ranks_match(&[0.5, 0.5], &[0.5, 0.5]));
        assert!(!ranks_match(&[0.5, 0.5], &[0.5, 0.4]));
        assert!(!ranks_match(&[0.5], &[0.5, 0.5]));
        let a = digest(&QueryResult::Reached(vec![true, false, true]));
        let b = digest(&QueryResult::Reached(vec![true, true, false]));
        assert_ne!(a, b);
        assert_ne!(
            digest(&QueryResult::Parents(vec![Some(0), None])),
            digest(&QueryResult::Parents(vec![None, Some(0)]))
        );
    }

    /// A traversal that stops at the iteration cap, and a parent array that
    /// is not a BFS tree, both count as failed.
    #[test]
    fn truncated_or_invalid_traversals_fail_the_check() {
        let el = EdgeList::from_pairs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(1);
        let depth = bfs::reference_depths(&g, 0);
        let capped = engine_config(1, 1);
        let (parents, stats) = bfs::run_prepared(&pg, &capped, &pool, 0);
        assert!(stats.iterations >= capped.max_iterations);
        assert!(!bfs_tree_valid(&g, 0, &parents, &depth));
        let full = engine_config(1, g.num_vertices());
        let (parents, stats) = bfs::run_prepared(&pg, &full, &pool, 0);
        assert!(stats.iterations < full.max_iterations);
        assert!(bfs_tree_valid(&g, 0, &parents, &depth));
        let mut wrong = parents.clone();
        wrong[3] = Some(0);
        assert!(!bfs_tree_valid(&g, 0, &wrong, &depth));
    }
}
