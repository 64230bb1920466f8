//! `grazelle` — command-line runner mirroring the original artifact's
//! interface (paper Appendix A.5.2).
//!
//! ```text
//! grazelle [options]
//!   -i <path>           input graph (.bin = binary format, .mtx = Matrix
//!                       Market, else text "src dst [weight]" lines)
//!   --synth <name>      use a Table-1 stand-in instead of a file:
//!                       cit-patents | dimacs-usa | livejournal |
//!                       twitter-2010 | friendster | uk-2007
//!   --scale <shift>     stand-in scale shift (default 0 = nominal)
//!   -a <app>            pr | cc | bfs | sssp | reach | kcore  (default: pr)
//!   -n <threads>        worker threads (artifact -n)
//!   -u <groups>         NUMA-stand-in groups (artifact -u takes node ids;
//!                       here a count)
//!   -N <iterations>     PageRank iterations (artifact -N, default 16); for
//!                       bfs | sssp | cc | reach the superstep cap (default
//!                       V + 1; reaching it truncates the result)
//!   -s <granularity>    edge vectors per chunk (artifact -s; default 32n
//!                       chunks)
//!   -r <vertex>         root for bfs/sssp/reach (default 0)
//!   -o <path>           write per-vertex results (artifact -o)
//!   --pull-mode <m>     aware | traditional | nonatomic
//!   --simd <s>          auto | avx2 | scalar
//!   --engine <e>        hybrid | pull | push
//!   --symmetrize        add reverse edges (for cc on directed inputs)
//!   --build-threads <n> threads for the load -> CSR/CSC -> Vector-Sparse
//!                       build pipeline (default: the -n worker count);
//!                       output is bit-identical at any thread count
//!   --timing            print per-phase build timings (parse, csr, csc,
//!                       vsparse) with parse-bytes/s and edges/s, and
//!                       whether one structure serves both orientations
//!                       (else the push structure waits for a push), and
//!                       which orientations wait for their first reader
//!   --trace             record and print a per-iteration flight-recorder
//!                       table (engine choice, frontier density, phase
//!                       times, resilience events)
//!   -h, --help          this text
//! ```

use grazelle::core::build::prepare_profiled;
use grazelle::core::config::{EngineConfig, Granularity, PullMode};
use grazelle::core::engine::hybrid::{run_program_on_pool, EngineKind, ExecutionStats};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::stats::BuildProfile;
use grazelle::graph::io;
use grazelle::prelude::*;
use grazelle_apps::{bfs, cc, pagerank, reach, sssp};
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use std::io::Write;
use std::process::exit;

#[derive(Debug)]
struct Options {
    input: Option<String>,
    synth: Option<Dataset>,
    scale: i32,
    app: String,
    threads: usize,
    groups: usize,
    iterations: Option<usize>,
    granularity: Option<usize>,
    root: u32,
    output: Option<String>,
    pull_mode: PullMode,
    simd: Option<SimdLevel>,
    engine: Option<EngineKind>,
    symmetrize: bool,
    build_threads: Option<usize>,
    timing: bool,
    trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            input: None,
            synth: None,
            scale: 0,
            app: "pr".into(),
            threads: std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(1),
            groups: 1,
            iterations: None,
            granularity: None,
            root: 0,
            output: None,
            pull_mode: PullMode::SchedulerAware,
            simd: None,
            engine: None,
            symmetrize: false,
            build_threads: None,
            timing: false,
            trace: false,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    // The module doc is the usage text (minus the code-fence markers).
    let doc = include_str!("grazelle.rs");
    for line in doc.lines().skip(3) {
        let Some(stripped) = line.strip_prefix("//!") else {
            break;
        };
        let text = stripped.strip_prefix(' ').unwrap_or(stripped);
        if text.starts_with("```") {
            continue;
        }
        eprintln!("{text}");
    }
    exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_args() -> Options {
    let mut o = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let next = |it: &mut std::slice::Iter<String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "-i" => o.input = Some(next(&mut it, "-i")),
            "--synth" => {
                let name = next(&mut it, "--synth");
                o.synth = Some(match name.as_str() {
                    "cit-patents" | "C" => Dataset::CitPatents,
                    "dimacs-usa" | "D" => Dataset::DimacsUsa,
                    "livejournal" | "L" => Dataset::LiveJournal,
                    "twitter-2010" | "T" => Dataset::Twitter2010,
                    "friendster" | "F" => Dataset::Friendster,
                    "uk-2007" | "U" => Dataset::Uk2007,
                    other => usage(&format!("unknown stand-in '{other}'")),
                });
            }
            "--scale" => {
                o.scale = next(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| usage("--scale needs an integer"))
            }
            "-a" => o.app = next(&mut it, "-a"),
            "-n" => {
                o.threads = next(&mut it, "-n")
                    .parse()
                    .unwrap_or_else(|_| usage("-n needs a number"))
            }
            "-u" => {
                o.groups = next(&mut it, "-u")
                    .parse()
                    .unwrap_or_else(|_| usage("-u needs a number"))
            }
            "-N" => {
                o.iterations = Some(
                    next(&mut it, "-N")
                        .parse()
                        .unwrap_or_else(|_| usage("-N needs a number")),
                )
            }
            "-s" => {
                o.granularity = Some(
                    next(&mut it, "-s")
                        .parse()
                        .unwrap_or_else(|_| usage("-s needs a number")),
                )
            }
            "-r" => {
                o.root = next(&mut it, "-r")
                    .parse()
                    .unwrap_or_else(|_| usage("-r needs a vertex id"))
            }
            "-o" => o.output = Some(next(&mut it, "-o")),
            "--pull-mode" => {
                o.pull_mode = match next(&mut it, "--pull-mode").as_str() {
                    "aware" | "scheduler-aware" => PullMode::SchedulerAware,
                    "traditional" => PullMode::Traditional,
                    "nonatomic" => PullMode::TraditionalNoAtomic,
                    other => usage(&format!("unknown pull mode '{other}'")),
                }
            }
            "--simd" => {
                o.simd = match next(&mut it, "--simd").as_str() {
                    "auto" => None,
                    "avx2" => Some(SimdLevel::Avx2),
                    "scalar" => Some(SimdLevel::Scalar),
                    other => usage(&format!("unknown simd level '{other}'")),
                }
            }
            "--engine" => {
                o.engine = match next(&mut it, "--engine").as_str() {
                    "hybrid" => None,
                    "pull" => Some(EngineKind::Pull),
                    "push" => Some(EngineKind::Push),
                    other => usage(&format!("unknown engine '{other}'")),
                }
            }
            "--symmetrize" => o.symmetrize = true,
            "--build-threads" => {
                o.build_threads = Some(
                    next(&mut it, "--build-threads")
                        .parse()
                        .unwrap_or_else(|_| usage("--build-threads needs a number")),
                )
            }
            "--timing" => o.timing = true,
            "--trace" => o.trace = true,
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown option '{other}'")),
        }
    }
    o
}

/// Loads the input and builds every structure on `build_pool`, timing each
/// pipeline phase. The parallel load/build paths are bit-identical to the
/// sequential ones, so `--build-threads` never changes results.
fn load_and_prepare(o: &Options, build_pool: &ThreadPool) -> (Graph, PreparedGraph, BuildProfile) {
    let mut el = match (&o.input, &o.synth) {
        (Some(path), None) => {
            let input_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let t = std::time::Instant::now();
            let opts = io::LoadOptions::default();
            let el = if path.ends_with(".bin") {
                io::load_binary(path, &opts)
            } else if path.ends_with(".mtx") {
                io::load_matrix_market(path, &opts, Some(build_pool))
            } else {
                io::load_text(path, &opts, Some(build_pool))
            };
            let parse_ns = t.elapsed().as_nanos() as u64;
            let el = el.unwrap_or_else(|e| {
                eprintln!("error: cannot load '{path}': {e}");
                exit(1);
            });
            (el, parse_ns, input_bytes)
        }
        (None, Some(ds)) => {
            // Synthesized stand-ins never touch a parser; only the
            // Vector-Sparse encoding is re-run (and timed) here.
            let graph = maybe_symmetrize(ds.build_scaled(o.scale), o.symmetrize);
            let t = std::time::Instant::now();
            let prepared = PreparedGraph::build(&graph, Some(build_pool));
            let profile = BuildProfile {
                vsparse_ns: t.elapsed().as_nanos() as u64,
                edges: graph.num_edges() as u64,
                threads: build_pool.num_threads(),
                ..BuildProfile::default()
            };
            return (graph, prepared, profile);
        }
        (None, None) => usage("need -i <path> or --synth <name>"),
        (Some(_), Some(_)) => usage("-i and --synth are mutually exclusive"),
    };
    let (ref mut edges, parse_ns, input_bytes) = el;
    if o.symmetrize {
        edges.symmetrize();
        edges.sort_and_dedup();
    }
    let (graph, prepared, mut profile) = prepare_profiled(edges, build_pool).unwrap_or_else(|e| {
        eprintln!("error: invalid graph: {e}");
        exit(1);
    });
    profile.parse_ns = parse_ns;
    profile.input_bytes = input_bytes;
    (graph, prepared, profile)
}

/// The `--timing` build-phase table, with how many orientations the
/// graph stores: one when its in-edges equal its out-edges bit for bit,
/// which is also why `vsparse` then ran one encode; with two, `vsparse`
/// is the pull structure alone, and the push structure is encoded by the
/// first run that can push. `vsparse` includes the compare that proved
/// which. From a list sorted by source, set-up encoded the pull structure
/// from the list and left the orientations to their first reader, and
/// `csr` timed the one pass that counted both indexes; from an unsorted
/// one it built the out-edges, and a directed graph's in-edges wait.
fn print_build_timing(p: &BuildProfile, graph: &Graph) {
    println!("\nBuild Timing ({} thread(s)):", p.threads);
    let waiting = match (graph.out_edges_deferred(), graph.in_edges_deferred()) {
        (true, _) => "out- and in-edges on first read, ",
        (false, true) => "in-edges on first read, ",
        (false, false) => "",
    };
    match (graph.is_symmetric(), graph.out_edges_deferred()) {
        (true, true) => println!("  orientations  1 (in = out, on first read)"),
        (true, false) => println!("  orientations  1 (in = out)"),
        (false, _) => println!("  orientations  2 ({waiting}push structure on first push)"),
    }
    println!("  parse     {:>10.3} ms", p.parse_ns as f64 / 1e6);
    println!("  csr       {:>10.3} ms", p.csr_ns as f64 / 1e6);
    println!("  csc       {:>10.3} ms", p.csc_ns as f64 / 1e6);
    println!("  vsparse   {:>10.3} ms", p.vsparse_ns as f64 / 1e6);
    println!("  total     {:>10.3} ms", p.total_ns() as f64 / 1e6);
    if p.input_bytes > 0 {
        println!("  parse throughput:  {:.1} MB/s", p.bytes_per_sec() / 1e6);
    }
    println!(
        "  build throughput:  {:.2} Medges/s",
        p.edges_per_sec() / 1e6
    );
}

fn maybe_symmetrize(g: Graph, yes: bool) -> Graph {
    if !yes {
        return g;
    }
    let mut el =
        grazelle::graph::edgelist::EdgeList::with_capacity(g.num_vertices(), g.num_edges() * 2);
    for v in 0..g.num_vertices() as u32 {
        for &d in g.out_neighbors(v) {
            el.push(v, d).unwrap();
        }
    }
    el.symmetrize();
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap().with_name(g.name())
}

/// Prints the run summary. `convergence_driven` is false for PageRank,
/// whose iteration count *is* the cap; everything else is expected to stop
/// on its own, so reaching the cap means a truncated result.
fn print_stats(stats: &ExecutionStats, convergence_driven: bool) {
    if convergence_driven && stats.hit_iteration_cap {
        eprintln!(
            "warning: stopped at the iteration cap ({} supersteps) before converging; \
             the result is truncated",
            stats.iterations
        );
    }
    println!("Iterations Executed:      {}", stats.iterations);
    println!(
        "Engine Selection:         {} pull / {} push",
        stats.pull_iterations, stats.push_iterations
    );
    println!(
        "Running Time:             {:.3} ms",
        stats.wall.as_secs_f64() * 1e3
    );
    if stats.iterations > 0 {
        println!(
            "Per-Iteration Time:       {:.3} ms",
            stats.per_iteration().as_secs_f64() * 1e3
        );
    }
    let p = &stats.profile;
    println!(
        "Edge-Phase Updates:       {} atomic, {} nonatomic, {} direct, {} merged, {} pushed",
        p.atomic_updates, p.nonatomic_updates, p.direct_stores, p.merge_entries, p.push_updates
    );
    print_trace(stats);
}

/// The `--trace` flight-recorder table: one row per executed superstep.
fn print_trace(stats: &ExecutionStats) {
    if stats.records.is_empty() {
        return;
    }
    println!(
        "\n{:>5} {:>6} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>5} {:>6} {:>7} {:>5} events",
        "iter",
        "engine",
        "density",
        "repr",
        "work_ms",
        "merge_ms",
        "write_ms",
        "idle_ms",
        "decide_us",
        "resched_us",
        "updates",
        "touched",
        "reset",
        "bucket",
        "held",
        "par"
    );
    for r in &stats.records {
        let mut events = String::new();
        if r.retries > 0 {
            events.push_str(&format!("retries={} ", r.retries));
        }
        if r.degraded {
            events.push_str("degraded ");
        }
        if r.rolled_back {
            events.push_str("rolled-back ");
        }
        if events.is_empty() {
            events.push('-');
        }
        println!(
            "{:>5} {:>6} {:>8.4} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.1} {:>10.1} {:>10} {:>8} {:>5} {:>6} {:>7} {:>5} {}",
            r.iteration,
            // A bucket drained in place (DESIGN.md §18) is a push with no
            // superstep around it.
            match r.engine {
                EngineKind::Pull => "pull",
                EngineKind::Push if r.drained => "drain",
                EngineKind::Push => "push",
            },
            r.frontier_density,
            if r.sparse_repr { "sparse" } else { "dense" },
            r.work_ns as f64 / 1e6,
            r.merge_ns as f64 / 1e6,
            r.write_ns as f64 / 1e6,
            r.idle_ns as f64 / 1e6,
            // Driver bookkeeping outside the phases: the direction model
            // and the priority schedule's file-and-drain.
            r.decide_ns as f64 / 1e3,
            r.reschedule_ns as f64 / 1e3,
            r.updates,
            // Sparse Vertex phase (DESIGN.md §18): entries it walked (`-` =
            // dense sweep) and whether this superstep's reset was skipped.
            if r.vertex_touched > 0 {
                r.vertex_touched.to_string()
            } else {
                "-".into()
            },
            if r.acc_reset_skipped { "skip" } else { "full" },
            // Priority schedule (DESIGN.md §18): the bucket this superstep's
            // frontier was drained from and the active vertices held back
            // behind it (`-` = not scheduled: every active vertex is sent).
            r.bucket.map_or("-".into(), |b| b.to_string()),
            r.bucket.map_or("-".into(), |_| r.held_back.to_string()),
            r.edge_parallelism,
            events.trim_end()
        );
    }
}

fn write_output<T: std::fmt::Display>(path: &str, values: impl Iterator<Item = T>) {
    let f = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("error: cannot write '{path}': {e}");
        exit(1);
    });
    let mut w = std::io::BufWriter::new(f);
    for (v, x) in values.enumerate() {
        writeln!(w, "{v} {x}").unwrap();
    }
}

fn main() {
    let o = parse_args();
    let build_pool = ThreadPool::single_group(o.build_threads.unwrap_or(o.threads).max(1));
    let (graph, prepared, build_profile) = load_and_prepare(&o, &build_pool);
    drop(build_pool);
    println!(
        "Graph:                    {} ({} vertices, {} edges{})",
        if graph.name().is_empty() {
            "<file>"
        } else {
            graph.name()
        },
        graph.num_vertices(),
        graph.num_edges(),
        if graph.is_weighted() {
            ", weighted"
        } else {
            ""
        }
    );

    let mut cfg = EngineConfig::new()
        .with_threads(o.threads)
        .with_groups(o.groups)
        .with_pull_mode(o.pull_mode)
        .with_force_engine(o.engine)
        .with_trace(o.trace);
    if let Some(simd) = o.simd {
        cfg = cfg.with_simd(simd);
    }
    if let Some(g) = o.granularity {
        cfg = cfg.with_granularity(Granularity::VectorsPerChunk(g));
    }
    println!(
        "Engine:                   {} threads, {} group(s), {:?}, {:?}",
        cfg.threads, cfg.groups, cfg.pull_mode, cfg.simd
    );
    if o.timing {
        print_build_timing(&build_profile, &graph);
    }

    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    let n = graph.num_vertices();
    if matches!(o.app.as_str(), "bfs" | "sssp" | "reach") && o.root as usize >= n {
        eprintln!("error: root {} out of range ({} vertices)", o.root, n);
        exit(1);
    }

    // These stop on their own, after a number of supersteps that grows
    // with the graph's diameter (SSSP's bucketed schedule: up to about twice
    // it), so their cap is a safety net sized to the graph unless `-N` sets
    // one — the library default of 1000 truncates a road network.
    if matches!(o.app.as_str(), "bfs" | "sssp" | "cc" | "reach") {
        cfg.max_iterations = o.iterations.unwrap_or(n + 1);
    }

    match o.app.as_str() {
        "pr" | "pagerank" => {
            cfg.max_iterations = o.iterations.unwrap_or(16);
            let prog = pagerank::PageRank::new(&graph, pagerank::DAMPING);
            let stats = run_program_on_pool(&prepared, &prog, &cfg, &pool);
            print_stats(&stats, false);
            println!("PageRank Sum:             {:.9}", prog.rank_sum());
            if let Some(path) = &o.output {
                write_output(path, prog.ranks().into_iter());
            }
        }
        "cc" => {
            let prog = cc::ConnectedComponents::new(n);
            let stats = run_program_on_pool(&prepared, &prog, &cfg, &pool);
            print_stats(&stats, true);
            let labels = prog.labels();
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            println!("Components Found:         {}", uniq.len());
            if let Some(path) = &o.output {
                write_output(path, labels.into_iter());
            }
        }
        "bfs" => {
            let prog = bfs::Bfs::new(n, o.root);
            let stats = run_program_on_pool(&prepared, &prog, &cfg, &pool);
            print_stats(&stats, true);
            println!("Vertices Visited:         {}", prog.visited_count());
            if let Some(path) = &o.output {
                write_output(
                    path,
                    prog.parents()
                        .into_iter()
                        .map(|p| p.map_or(-1i64, |v| v as i64)),
                );
            }
        }
        "sssp" => {
            if !graph.is_weighted() {
                eprintln!("error: sssp needs a weighted input (text lines 'src dst weight')");
                exit(1);
            }
            let prog = sssp::Sssp::new(n, o.root);
            let stats = run_program_on_pool(&prepared, &prog, &cfg, &pool);
            print_stats(&stats, true);
            let d = prog.distances();
            println!(
                "Vertices Reached:         {}",
                d.iter().filter(|x| x.is_some()).count()
            );
            if let Some(path) = &o.output {
                write_output(
                    path,
                    d.into_iter()
                        .map(|x| x.map_or("inf".to_string(), |d| format!("{d}"))),
                );
            }
        }
        "kcore" => {
            let (coreness, stats) =
                grazelle_apps::kcore::run_prepared(&prepared, &graph, &cfg, &pool);
            print_stats(&stats, true);
            println!(
                "Degeneracy (max core):    {}",
                coreness.iter().max().unwrap_or(&0)
            );
            if let Some(path) = &o.output {
                write_output(path, coreness.into_iter());
            }
        }
        "reach" => {
            let prog = reach::Reachability::new(n, o.root);
            let stats = run_program_on_pool(&prepared, &prog, &cfg, &pool);
            print_stats(&stats, true);
            let r = prog.reached();
            println!(
                "Vertices Reached:         {}",
                r.iter().filter(|&&x| x).count()
            );
            if let Some(path) = &o.output {
                write_output(path, r.into_iter().map(|x| x as u8));
            }
        }
        other => usage(&format!("unknown application '{other}'")),
    }
}
