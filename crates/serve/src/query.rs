//! Query vocabulary, typed dispositions, and the single-shot reference
//! execution path.
//!
//! Every query the server completes must be bit-identical to running the
//! same query alone through the resilient engine — so [`single_shot`] *is*
//! that reference path, and the server calls it for its own execution.
//! There is no second implementation to drift.

use grazelle_apps::pagerank::DAMPING;
use grazelle_apps::{
    triangle, Bfs, ConnectedComponents, KCore, LabelProp, LaneReply, PageRank, Reachability, Sssp,
};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::incremental::GraphView;
use grazelle_core::{run_resilient_overlay_on_pool, EngineConfig, EngineError, ResilienceContext};
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;

/// A query the server accepts. Per-query parameters only — engine
/// configuration is server-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// BFS parent tree from `root`.
    Bfs {
        /// Search root.
        root: VertexId,
    },
    /// Single-source shortest paths from `root` (weighted graphs only).
    Sssp {
        /// Search root.
        root: VertexId,
    },
    /// Connected components labelling.
    Cc,
    /// `iterations` rounds of PageRank at the paper's damping factor.
    PageRank {
        /// Power iterations to run.
        iterations: usize,
    },
    /// k-core decomposition (coreness per vertex).
    KCore,
    /// Reachable set from `root`.
    Reach {
        /// Search root.
        root: VertexId,
    },
    /// Deterministic label-propagation community detection (packed-key
    /// Max lattice ascent, DESIGN.md §16).
    LabelProp,
    /// Triangle count (global + per-vertex) via the masked intersect
    /// kernel. Computed over the base snapshot: pending overlay inserts
    /// are reflected after the next merge rebuild (intersection messages
    /// read base adjacency, unlike the per-edge programs above).
    Triangles,
}

impl Query {
    /// Program name, for stats and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::Sssp { .. } => "sssp",
            Query::Cc => "cc",
            Query::PageRank { .. } => "pagerank",
            Query::KCore => "kcore",
            Query::Reach { .. } => "reach",
            Query::LabelProp => "labelprop",
            Query::Triangles => "triangles",
        }
    }

    /// Whether the server may pack this query into one bit-parallel run
    /// with up to 63 other Reach and BFS queries
    /// ([`multi_source_reach`](grazelle_apps::multi::multi_source_reach)):
    /// a BFS lane returns the same parent tree as running alone, over the
    /// same base-plus-overlay version.
    pub fn packable(&self) -> bool {
        matches!(self, Query::Reach { .. } | Query::Bfs { .. })
    }

    /// Deterministic admission-control work estimate, in edge-sweep units:
    /// roughly how many times the query will traverse the edge set. Used
    /// against [`ServeConfig::work_budget`](crate::server::ServeConfig) to
    /// shed load before the queue fills with expensive work.
    pub fn estimated_work(&self, g: &Graph) -> u64 {
        self.estimated_work_for_edges(g.num_edges() as u64)
    }

    /// [`Query::estimated_work`] from an edge count directly — what the
    /// server uses once the graph is versioned and the live edge count is
    /// a counter rather than a `Graph` borrow. Saturating throughout: a
    /// pathological `iterations` must shed as "too much work", never wrap
    /// into a small estimate (or panic the caller in debug builds).
    pub fn estimated_work_for_edges(&self, e: u64) -> u64 {
        match self {
            Query::Reach { .. } => e,
            Query::Bfs { .. } => e,
            Query::Cc | Query::Sssp { .. } => e.saturating_mul(2),
            Query::PageRank { iterations } => e.saturating_mul((*iterations as u64).max(1)),
            // Peeling re-sweeps per threshold bump; budget it generously.
            Query::KCore => e.saturating_mul(8),
            // Floods until every seed's score is spent — a handful of
            // sweeps on community-structured graphs.
            Query::LabelProp => e.saturating_mul(4),
            // One superstep, but each edge pays an adjacency intersection
            // rather than one gather.
            Query::Triangles => e.saturating_mul(8),
        }
    }
}

/// Result payload of a completed query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// BFS: per-vertex parent (`None` = unreached).
    Parents(Vec<Option<VertexId>>),
    /// SSSP: per-vertex distance (`None` = unreached).
    Distances(Vec<Option<f64>>),
    /// CC: per-vertex component label.
    Labels(Vec<u32>),
    /// PageRank: per-vertex rank.
    Ranks(Vec<f64>),
    /// k-core: per-vertex coreness.
    Coreness(Vec<u32>),
    /// Reachability: per-vertex reached bit.
    Reached(Vec<bool>),
    /// Label propagation: per-vertex community label (a seed vertex id).
    Communities(Vec<u32>),
    /// Triangle counting: global count plus per-vertex incidence.
    Triangles {
        /// Global triangle count.
        total: u64,
        /// `t(v)` per vertex.
        per_vertex: Vec<u64>,
    },
    /// Update batch applied to the versioned graph.
    Updated {
        /// Graph version after the batch.
        version: u64,
        /// Edges effectively inserted (duplicates ignored).
        inserted: usize,
        /// Edges effectively deleted (absent edges ignored).
        deleted: usize,
        /// Whether the batch ended in a merge rebuild.
        merged: bool,
    },
}

impl From<LaneReply> for QueryResult {
    fn from(reply: LaneReply) -> Self {
        match reply {
            LaneReply::Reached(reached) => QueryResult::Reached(reached),
            LaneReply::Parents(parents) => QueryResult::Parents(parents),
        }
    }
}

impl QueryResult {
    /// Short shape summary for logs (`"parents[64]"`).
    pub fn describe(&self) -> String {
        match self {
            QueryResult::Parents(v) => format!("parents[{}]", v.len()),
            QueryResult::Distances(v) => format!("distances[{}]", v.len()),
            QueryResult::Labels(v) => format!("labels[{}]", v.len()),
            QueryResult::Ranks(v) => format!("ranks[{}]", v.len()),
            QueryResult::Coreness(v) => format!("coreness[{}]", v.len()),
            QueryResult::Reached(v) => {
                format!("reached[{}]", v.iter().filter(|&&r| r).count())
            }
            QueryResult::Communities(v) => format!("communities[{}]", v.len()),
            QueryResult::Triangles { total, per_vertex } => {
                format!("triangles[{total} over {}]", per_vertex.len())
            }
            QueryResult::Updated {
                version,
                inserted,
                deleted,
                merged,
            } => {
                format!(
                    "updated[v{version}: +{inserted} -{deleted}{}]",
                    if *merged { " merged" } else { "" }
                )
            }
        }
    }
}

/// Typed disposition of a query that did not complete. The server never
/// panics a caller and never kills itself — every failure mode is one of
/// these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission refused: accepting the query would exceed the queue
    /// capacity or the queued-work budget. The caller should back off.
    Overloaded {
        /// Queue depth at refusal.
        queue_depth: usize,
        /// Estimated work already queued, in edge-sweep units.
        queued_work: u64,
    },
    /// The query's deadline passed; the run was cancelled cooperatively at
    /// an iteration boundary (`iteration` is where cancellation was
    /// observed — 0 when the deadline had already passed at execution
    /// start).
    Expired {
        /// Iteration boundary where the cancellation was observed.
        iteration: usize,
    },
    /// Every attempt — including the degraded sequential fallback —
    /// failed. `last` describes the final failure.
    Failed {
        /// Attempts consumed (retries + degraded fallback).
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
    /// The server is draining and admits nothing new.
    Draining,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                queued_work,
            } => write!(
                f,
                "overloaded: queue depth {queue_depth}, queued work {queued_work}"
            ),
            ServeError::Expired { iteration } => {
                write!(
                    f,
                    "deadline expired; cancelled before iteration {iteration}"
                )
            }
            ServeError::Failed { attempts, last } => {
                write!(f, "failed after {attempts} attempts: {last}")
            }
            ServeError::Draining => write!(f, "server is draining"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Executes `query` once through the resilient engine on `pool` — the
/// reference the server's completed results are bit-identical to, because
/// the server itself calls this (through [`single_shot_view`] once the
/// graph is versioned).
pub fn single_shot(
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
    query: Query,
) -> Result<QueryResult, EngineError> {
    let out: Vec<u32> = (0..g.num_vertices() as VertexId)
        .map(|v| g.out_degree(v))
        .collect();
    let inn: Vec<u32> = (0..g.num_vertices() as VertexId)
        .map(|v| g.in_degree(v))
        .collect();
    single_shot_view(&GraphView::plain(g, pg, &out, &inn), cfg, rctx, pool, query)
}

/// [`single_shot`] over a versioned graph's view: the base structures plus
/// the pending-insert overlay. With no overlay this is exactly the plain
/// path (the overlay engine entry points degenerate to the originals);
/// with an overlay, BFS/CC/Reach/SSSP/KCore stay bit-identical to a cold
/// run on the merged graph (min/max fixpoints are edge-order independent)
/// while PageRank agrees to within floating-point summation order.
pub fn single_shot_view(
    view: &GraphView<'_>,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
    query: Query,
) -> Result<QueryResult, EngineError> {
    let n = view.pg.num_vertices;
    let pg = view.pg;
    let delta = view.delta_pg;
    match query {
        Query::Bfs { root } => {
            let prog = Bfs::new(n, root);
            run_resilient_overlay_on_pool(pg, delta, &prog, cfg, rctx, pool)?;
            Ok(QueryResult::Parents(prog.parents()))
        }
        Query::Sssp { root } => {
            let prog = Sssp::new(n, root);
            run_resilient_overlay_on_pool(pg, delta, &prog, cfg, rctx, pool)?;
            Ok(QueryResult::Distances(prog.distances()))
        }
        Query::Cc => {
            let prog = ConnectedComponents::new(n);
            run_resilient_overlay_on_pool(pg, delta, &prog, cfg, rctx, pool)?;
            Ok(QueryResult::Labels(prog.labels()))
        }
        Query::PageRank { iterations } => {
            let mut local = *cfg;
            local.max_iterations = iterations;
            let prog = PageRank::with_out_degrees(view.out_degrees, DAMPING);
            run_resilient_overlay_on_pool(pg, delta, &prog, &local, rctx, pool)?;
            Ok(QueryResult::Ranks(prog.ranks()))
        }
        Query::KCore => {
            let mut local = *cfg;
            // Matches `kcore::run_prepared`: peeling is bounded by one
            // iteration per round plus one per threshold bump.
            local.max_iterations = 2 * n + 64;
            let prog = KCore::with_in_degrees(view.in_degrees);
            run_resilient_overlay_on_pool(pg, delta, &prog, &local, rctx, pool)?;
            Ok(QueryResult::Coreness(prog.coreness()))
        }
        Query::Reach { root } => {
            let prog = Reachability::new(n, root);
            run_resilient_overlay_on_pool(pg, delta, &prog, cfg, rctx, pool)?;
            Ok(QueryResult::Reached(prog.reached()))
        }
        Query::LabelProp => {
            let mut local = *cfg;
            // Propagation distance is bounded by the largest seed score,
            // itself bounded by the vertex count.
            local.max_iterations = n + 1;
            let prog = LabelProp::with_out_degrees(view.out_degrees);
            run_resilient_overlay_on_pool(pg, delta, &prog, &local, rctx, pool)?;
            Ok(QueryResult::Communities(prog.labels()))
        }
        Query::Triangles => {
            // Kernel-level single superstep over the base snapshot (see
            // the variant's doc for the overlay caveat).
            let counts = triangle::counts_resilient(view.graph, pg, cfg, rctx, pool)?;
            Ok(QueryResult::Triangles {
                total: counts.total,
                per_vertex: counts.per_vertex,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;

    fn small() -> (Graph, PreparedGraph) {
        let el = EdgeList::from_pairs(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (0, 6)]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        (g, pg)
    }

    #[test]
    fn single_shot_matches_the_plain_app_entry_points() {
        let (g, pg) = small();
        let cfg = EngineConfig::new().with_threads(2);
        let pool = ThreadPool::single_group(2);
        let rctx = ResilienceContext::new();

        let r = single_shot(&g, &pg, &cfg, &rctx, &pool, Query::Bfs { root: 0 }).unwrap();
        assert_eq!(
            r,
            QueryResult::Parents(grazelle_apps::bfs::run(&g, &cfg, 0))
        );
        let r = single_shot(&g, &pg, &cfg, &rctx, &pool, Query::Cc).unwrap();
        assert_eq!(r, QueryResult::Labels(grazelle_apps::cc::run(&g, &cfg)));
        let r = single_shot(&g, &pg, &cfg, &rctx, &pool, Query::Reach { root: 0 }).unwrap();
        assert_eq!(
            r,
            QueryResult::Reached(grazelle_apps::reach::run(&g, &cfg, 0))
        );
        let r = single_shot(
            &g,
            &pg,
            &cfg,
            &rctx,
            &pool,
            Query::PageRank { iterations: 5 },
        )
        .unwrap();
        assert_eq!(
            r,
            QueryResult::Ranks(grazelle_apps::pagerank::run(&g, &cfg, 5))
        );
        let r = single_shot(&g, &pg, &cfg, &rctx, &pool, Query::LabelProp).unwrap();
        assert_eq!(
            r,
            QueryResult::Communities(grazelle_apps::labelprop::run(&g, &cfg))
        );
        let want = grazelle_apps::triangle::reference(&g);
        let r = single_shot(&g, &pg, &cfg, &rctx, &pool, Query::Triangles).unwrap();
        assert_eq!(
            r,
            QueryResult::Triangles {
                total: want.total,
                per_vertex: want.per_vertex,
            }
        );
    }

    #[test]
    fn work_estimates_scale_with_the_program() {
        let (g, _) = small();
        let e = g.num_edges() as u64;
        assert_eq!(Query::Reach { root: 0 }.estimated_work(&g), e);
        assert_eq!(
            Query::PageRank { iterations: 10 }.estimated_work(&g),
            10 * e
        );
        assert!(Query::KCore.estimated_work(&g) > Query::Cc.estimated_work(&g));
        assert!(Query::Triangles.estimated_work(&g) > Query::LabelProp.estimated_work(&g));
        assert_eq!(Query::LabelProp.estimated_work(&g), 4 * e);
    }

    #[test]
    fn work_estimates_saturate_instead_of_wrapping() {
        let (g, _) = small();
        // A pathological iteration count must clamp to u64::MAX (and be
        // shed by any finite budget), not wrap into a tiny estimate.
        let q = Query::PageRank {
            iterations: usize::MAX,
        };
        assert_eq!(q.estimated_work(&g), u64::MAX);
        assert_eq!(Query::Cc.estimated_work_for_edges(u64::MAX), u64::MAX);
        assert_eq!(
            Query::KCore.estimated_work_for_edges(u64::MAX / 2),
            u64::MAX
        );
    }

    #[test]
    fn reach_and_bfs_are_packable() {
        assert!(Query::Reach { root: 0 }.packable());
        assert!(Query::Bfs { root: 0 }.packable());
        assert!(!Query::Sssp { root: 0 }.packable());
        assert!(!Query::Cc.packable());
        assert!(!Query::PageRank { iterations: 1 }.packable());
    }

    #[test]
    fn errors_render() {
        let s = ServeError::Overloaded {
            queue_depth: 9,
            queued_work: 77,
        }
        .to_string();
        assert!(s.contains("overloaded") && s.contains('9'));
        assert!(ServeError::Draining.to_string().contains("draining"));
        assert!(ServeError::Expired { iteration: 3 }
            .to_string()
            .contains('3'));
    }
}
