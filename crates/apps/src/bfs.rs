//! Breadth-First Search.
//!
//! "Breadth-First Search is a completely frontier-driven application. In
//! addition to source vertex activation and deactivation, it also marks
//! vertices as converged immediately upon their visitation. Only a single
//! write operation is ever needed per vertex: the first identified
//! candidate to be a vertex's parent becomes its final value" (§6).
//!
//! The tree computed is the *min-parent* BFS tree: every reached vertex at
//! depth `d` takes the smallest-id in-neighbour at depth `d − 1` as its
//! parent, whatever the engine, thread count or schedule. Each vertex holds
//! one lexicographic key, `depth·2^32 + parent`, and offers its
//! out-neighbours `(depth + 1)·2^32 + itself` (its edge value); the Edge
//! phase aggregates offers with Min and `apply` keeps a smaller key. The
//! min-parent tree is the unique fixpoint of that relaxation. Keys and
//! offers stay integers below 2^53, so f64 carries them exactly (`apply`
//! asserts it: depths up to 2^21 − 2).
//!
//! Visited vertices sit in the converged set, so both engines skip them as
//! destinations. That mask blocks a later, smaller key, so the first
//! `apply` that activates a vertex must be its last: true when every
//! vertex of one depth is sent before any of the next, all at once or one
//! at a time in ascending id order. [`Bfs`] declares a
//! [`GraphProgram::bucket_width`] of one level ([`LEVEL`]) and a plain run
//! is scheduled that way: one bucket per level, tiny buckets drained in
//! place on the calling thread (DESIGN.md §18). Contained and overlay runs
//! are level-synchronous supersteps, which satisfy the same condition. The
//! iteration count is the same either way: one per level, plus the last.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::{DenseBitmap, Frontier};
use grazelle_core::program::{AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::Vss;

/// One level of a key: the depth field sits above 32 bits of vertex id.
pub const LEVEL: f64 = (1u64 << 32) as f64;

/// Deepest level whose offer, `(depth + 1)·2^32 + v`, stays below 2^53,
/// where f64 holds every integer exactly.
const MAX_DEPTH: u64 = (1 << 21) - 1;

/// What an unvisited vertex offers: never sent (only visited vertices are
/// ever in a frontier), and finite so the divergence guard's finite-iterate
/// check holds for the edge values.
const NO_OFFER: f64 = f64::MAX;

/// Breadth-First Search program state.
pub struct Bfs {
    n: usize,
    root: VertexId,
    /// `depth·2^32 + parent` per vertex, +∞ while unvisited.
    keys: PropertyArray,
    /// What each vertex offers its out-neighbours, `(depth + 1)·2^32 + v`
    /// (the edge values; [`NO_OFFER`] while unvisited).
    offers: PropertyArray,
    /// Min accumulators over the offers received.
    acc: PropertyArray,
    /// The converged set: visited vertices ignore in-bound messages.
    visited: DenseBitmap,
}

impl Bfs {
    /// BFS from `root`.
    pub fn new(n: usize, root: VertexId) -> Self {
        assert!((root as usize) < n, "root out of range");
        let keys = PropertyArray::filled_f64(n, f64::INFINITY);
        keys.set_f64(root as usize, root as f64);
        let offers = PropertyArray::filled_f64(n, NO_OFFER);
        offers.set_f64(root as usize, LEVEL + root as f64);
        let visited = DenseBitmap::new(n);
        visited.insert(root);
        Bfs {
            n,
            root,
            keys,
            offers,
            acc: PropertyArray::new(n),
            visited,
        }
    }

    /// The BFS tree: `parent[v]`, `None` when unreachable. The root's
    /// parent is itself.
    pub fn parents(&self) -> Vec<Option<VertexId>> {
        (0..self.n)
            .map(|v| {
                let key = self.keys.get_f64(v);
                // The parent is the key's low 32 bits.
                key.is_finite().then_some(key as u64 as VertexId)
            })
            .collect()
    }

    /// Number of visited vertices.
    pub fn visited_count(&self) -> usize {
        self.visited.count()
    }
}

impl GraphProgram for Bfs {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Min
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.offers
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        vec![&self.offers, &self.acc, &self.keys]
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let candidate = self.acc.get_f64(v);
        if candidate < self.keys.get_f64(v) {
            // An integer below 2^53, so the cast is exact.
            let depth = candidate as u64 >> 32;
            assert!(depth < MAX_DEPTH, "BFS depth {depth} overflows its key");
            self.keys.set_f64(v, candidate);
            self.offers
                .set_f64(v, ((depth + 1) << 32 | v as u64) as f64);
            self.visited.insert(v as VertexId);
            true
        } else {
            false
        }
    }

    fn uses_frontier(&self) -> bool {
        true
    }

    fn identity_apply_is_noop(&self) -> bool {
        true
    }

    fn bucket_width(&self, _structure: &Vss) -> Option<f64> {
        Some(LEVEL)
    }

    fn converged(&self) -> Option<&DenseBitmap> {
        Some(&self.visited)
    }

    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &[self.root])
    }
}

/// Runs BFS from `root` on a prepared graph.
pub fn run_prepared(
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    root: VertexId,
) -> (Vec<Option<VertexId>>, ExecutionStats) {
    let prog = Bfs::new(pg.num_vertices, root);
    let stats = run_program_on_pool(pg, &prog, cfg, pool);
    (prog.parents(), stats)
}

/// Convenience entry point.
pub fn run(g: &Graph, cfg: &EngineConfig, root: VertexId) -> Vec<Option<VertexId>> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, cfg, &pool, root).0
}

/// Sequential reference BFS returning per-vertex depth (`None` =
/// unreachable).
pub fn reference_depths(g: &Graph, root: VertexId) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut depth = vec![None; n];
    depth[root as usize] = Some(0);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let d = depth[v as usize].unwrap();
        for &w in g.out_neighbors(v) {
            if depth[w as usize].is_none() {
                depth[w as usize] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    depth
}

/// Sequential reference BFS tree: the min-parent tree every engine path
/// computes, `parent[v]` the smallest-id in-neighbour one level above `v`
/// (`None` = unreachable; the root's parent is itself).
pub fn reference_parents(g: &Graph, root: VertexId) -> Vec<Option<VertexId>> {
    let depth = reference_depths(g, root);
    (0..g.num_vertices() as VertexId)
        .map(|v| match depth[v as usize]? {
            0 => Some(root),
            d => g
                .in_neighbors(v)
                .iter()
                .copied()
                .filter(|&u| depth[u as usize] == Some(d - 1))
                .min(),
        })
        .collect()
}

/// Validates a parent array against a graph: every visited vertex's parent
/// must be a real in-neighbor at depth one less. Returns the depths implied
/// by the tree.
pub fn validate_parents(
    g: &Graph,
    root: VertexId,
    parents: &[Option<VertexId>],
) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut depth = vec![None; n];
    depth[root as usize] = Some(0u32);
    // Iteratively resolve depths (tree height ≤ n).
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if depth[v].is_some() || parents[v].is_none() {
                continue;
            }
            let p = parents[v].unwrap() as usize;
            if let Some(dp) = depth[p] {
                depth[v] = Some(dp + 1);
                changed = true;
            }
        }
    }
    for v in 0..n as VertexId {
        if v == root {
            assert_eq!(parents[v as usize], Some(root));
            continue;
        }
        if let Some(p) = parents[v as usize] {
            assert!(
                g.in_neighbors(v).contains(&p),
                "vertex {v}: claimed parent {p} is not an in-neighbor"
            );
            assert!(depth[v as usize].is_some(), "vertex {v}: parent cycle");
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_core::engine::hybrid::EngineKind;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};

    fn chain_with_branch() -> Graph {
        // 0 -> 1 -> 2 -> 3, plus 0 -> 4 -> 3, and unreachable 5.
        let el = EdgeList::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]).unwrap();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn finds_correct_depths_and_unreachable() {
        let g = chain_with_branch();
        let cfg = EngineConfig::new().with_threads(2);
        let parents = run(&g, &cfg, 0);
        let depths = validate_parents(&g, 0, &parents);
        let want = reference_depths(&g, 0);
        assert_eq!(depths, want);
        assert_eq!(parents[5], None);
    }

    #[test]
    fn keys_are_depth_then_parent_and_offers_one_level_up() {
        let prog = Bfs::new(8, 3);
        assert_eq!(prog.keys.get_f64(3), 3.0, "depth 0, parent itself");
        assert_eq!(prog.offers.get_f64(3), LEVEL + 3.0);
        let pg = PreparedGraph::new(&chain_with_branch());
        assert_eq!(prog.bucket_width(&pg.vss), Some(LEVEL), "weighted or not");
        // Vertex 5 hears from 3 (depth 1 via 3): it keeps the key, offers
        // depth 2 with itself as parent, and joins the converged set.
        prog.acc.set_f64(5, LEVEL + 3.0);
        assert!(prog.apply(5));
        assert_eq!(prog.keys.get_f64(5), LEVEL + 3.0);
        assert_eq!(prog.offers.get_f64(5), 2.0 * LEVEL + 5.0);
        assert!(prog.visited.contains(5));
        // A larger key changes nothing; a smaller one would win.
        prog.acc.set_f64(5, LEVEL + 4.0);
        assert!(!prog.apply(5));
        prog.acc.set_f64(5, LEVEL + 1.0);
        assert!(prog.apply(5));
        assert_eq!(prog.parents()[5], Some(1));
        assert_eq!(prog.parents()[0], None);
    }

    #[test]
    #[should_panic(expected = "overflows its key")]
    fn a_depth_past_the_exact_range_is_refused() {
        let prog = Bfs::new(2, 0);
        prog.acc.set_f64(1, ((1u64 << 21) - 1) as f64 * LEVEL);
        prog.apply(1);
    }

    #[test]
    fn single_vertex_root_only() {
        let el = EdgeList::from_pairs(3, &[]).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let parents = run(&g, &EngineConfig::new().with_threads(1), 1);
        assert_eq!(parents, vec![None, Some(1), None]);
    }

    #[test]
    fn depths_match_reference_on_rmat() {
        let mut el = rmat(&RmatConfig::graph500(10, 8.0, 21));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let cfg = EngineConfig::new().with_threads(4);
        let parents = run(&g, &cfg, 0);
        let depths = validate_parents(&g, 0, &parents);
        assert_eq!(depths, reference_depths(&g, 0));
    }

    #[test]
    fn pull_and_push_heavy_configs_agree_on_depths() {
        let mut el = rmat(&RmatConfig::graph500(9, 6.0, 31));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::new(2, 1);
        for kind in [EngineKind::Pull, EngineKind::Push] {
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_force_engine(Some(kind));
            let (parents, stats) = run_prepared(&pg, &cfg, &pool, 0);
            assert!(
                stats.engine_trace.iter().all(|&k| k == kind),
                "{kind:?} run used another engine: {:?}",
                stats.engine_trace
            );
            let depths = validate_parents(&g, 0, &parents);
            assert_eq!(depths, reference_depths(&g, 0), "{kind:?}");
        }
    }

    #[test]
    fn bfs_from_nonzero_root() {
        let g = chain_with_branch();
        let parents = run(&g, &EngineConfig::new().with_threads(2), 4);
        let depths = validate_parents(&g, 4, &parents);
        assert_eq!(depths, reference_depths(&g, 4));
        assert_eq!(parents[0], None, "0 unreachable from 4");
    }

    #[test]
    fn deterministic_parents_across_modes_and_threads() {
        // Min tie-breaking makes parents (not just depths) deterministic.
        let mut el = rmat(&RmatConfig::graph500(9, 5.0, 13));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let base = run(&g, &EngineConfig::new().with_threads(1), 0);
        assert_eq!(base, reference_parents(&g, 0), "the min-parent tree");
        for threads in [2, 4] {
            for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_pull_mode(mode);
                assert_eq!(run(&g, &cfg, 0), base, "{threads} threads {mode:?}");
            }
        }
    }
}
