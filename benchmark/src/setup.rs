//! Set-up: the path a user pays before the first solve — text edge-list
//! file → parsed edge list → CSR/CSC → Vector-Sparse (→ a started server).

use crate::report::Samples;
use crate::spans::Tracer;
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{prepare_profiled, EngineConfig};
use grazelle_graph::csr::Csr;
use grazelle_graph::graph::Graph;
use grazelle_graph::io::{load_text_parallel, parse_text_edgelist_parallel};
use grazelle_graph::types::GraphError;
use grazelle_sched::ThreadPool;
use grazelle_serve::{ServeConfig, Server};
use grazelle_vsparse::build::{Vsd, Vss};
use std::path::Path;
use std::sync::Arc;

/// The loaded structures and the pool they were built on.
pub struct Built {
    pub pool: ThreadPool,
    pub graph: Arc<Graph>,
    pub pg: Arc<PreparedGraph>,
}

/// Threads every pool of a run uses: the default of `EngineConfig::new()`,
/// `min(nproc, 4)`.
pub fn default_threads() -> usize {
    EngineConfig::new().threads
}

/// The engine configuration of every solve: the defaults, with the thread
/// count pinned to the run's and the iteration cap lifted to one more than
/// any traversal of `num_vertices` vertices can need (the default cap of
/// 1000 silently truncates traversals of wide meshes). A run that reaches
/// this cap did not converge and is counted as failed.
pub fn engine_config(threads: usize, num_vertices: usize) -> EngineConfig {
    EngineConfig::new()
        .with_threads(threads)
        .with_max_iterations(num_vertices + 1)
}

/// The serving configuration: the defaults over [`engine_config`].
pub fn serve_config(engine: EngineConfig) -> ServeConfig {
    ServeConfig::new().with_engine(engine)
}

/// One cold set-up through the calls a user makes: `load_text_parallel`
/// then `prepare_profiled`.
fn build_plain(path: &Path, threads: usize) -> Result<Built, GraphError> {
    let pool = ThreadPool::single_group(threads);
    let el = load_text_parallel(path, &pool)?;
    let (graph, pg, _) = prepare_profiled(&el, &pool)?;
    Ok(Built {
        pool,
        graph: Arc::new(graph),
        pg: Arc::new(pg),
    })
}

/// The same set-up taken apart into the public calls `load_text_parallel`
/// and `prepare_profiled` make, with a span around each, for the traced
/// run. Every benchmark input is above `PAR_BUILD_CUTOVER_EDGES`, so both
/// take the pool-width path.
fn build_layered(
    path: &Path,
    threads: usize,
    t: &mut Tracer,
    s: &mut Samples,
) -> Result<Built, GraphError> {
    let pool = ThreadPool::single_group(threads);
    let bytes = t.span("graph.read_file", |_| std::fs::read(path))?;
    let (el, parse) = t.timed("graph.parse", |_| {
        parse_text_edgelist_parallel(&bytes, &pool)
    });
    let el = el?;
    s.push("graph.parse_s", parse.as_secs_f64());
    s.push(
        "graph.parse_mb_per_s",
        bytes.len() as f64 / 1e6 / parse.as_secs_f64(),
    );
    drop(bytes);
    let (out, csr) = t.timed("graph.csr", |_| {
        let mut c = Csr::from_edgelist_by_src_parallel(&el, &pool);
        c.sort_neighbors_parallel(&pool);
        c
    });
    s.push("graph.csr_s", csr.as_secs_f64());
    let (inn, csc) = t.timed("graph.csc", |_| {
        let mut c = Csr::from_edgelist_by_dst_parallel(&el, &pool);
        c.sort_neighbors_parallel(&pool);
        c
    });
    s.push("graph.csc_s", csc.as_secs_f64());
    drop(el);
    let graph = Graph::from_orientations(out, inn, "")?;
    let ((vsd, vss), encode) = t.timed("vsparse.encode", |_| {
        (
            Vsd::from_csr_parallel(graph.in_csr(), &pool),
            Vss::from_csr_parallel(graph.out_csr(), &pool),
        )
    });
    s.push("vsparse.encode_s", encode.as_secs_f64());
    let pg = PreparedGraph {
        vsd,
        vss,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
    };
    Ok(Built {
        pool,
        graph: Arc::new(graph),
        pg: Arc::new(pg),
    })
}

/// Runs `repeats` cold set-ups — the previous structures are dropped
/// before each — pushing one `setup_s` sample per repeat, and keeps the
/// last for the solves. Serve workloads (`serve`) also start a server
/// inside the timed span; it is stopped outside it.
pub fn repeated(
    path: &Path,
    threads: usize,
    repeats: usize,
    serve: bool,
    t: &mut Tracer,
    s: &mut Samples,
) -> Result<Built, GraphError> {
    let mut built = None;
    for i in 0..repeats.max(1) {
        drop(built.take());
        t.set_solve(Some(i as u32));
        let mut server = None;
        let (b, d) = t.timed("setup", |t| {
            let b = if t.enabled() {
                build_layered(path, threads, t, s)?
            } else {
                build_plain(path, threads)?
            };
            if serve {
                server = Some(t.span("serve.start", |_| {
                    let cfg = serve_config(engine_config(threads, b.graph.num_vertices()));
                    Server::start(Arc::clone(&b.graph), Arc::clone(&b.pg), cfg)
                }));
            }
            Ok::<_, GraphError>(b)
        });
        if let Some(server) = server {
            t.span("serve.stop", |_| drop(server));
        }
        s.push("setup_s", d.as_secs_f64());
        built = Some(b?);
    }
    t.set_solve(None);
    Ok(built.expect("at least one set-up ran"))
}
