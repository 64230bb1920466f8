//! Incremental result maintenance over graph update streams.
//!
//! On an insert-only update batch the engine does not recompute from
//! scratch: each application keeps its converged state, seeds the frontier
//! with only the endpoints of the changed edges, and re-runs the existing
//! frontier-aware Edge phases (base structure + pending-insert overlay, via
//! [`run_program_overlay_on_pool`]) to fixpoint. Deletions break the
//! monotonicity these warm re-runs rely on, so the versioned graph merges
//! them immediately and reports `full_recompute` — callers then fall back
//! to the cold paths in this module.
//!
//! Why the warm re-runs are exact:
//!
//! * **Connected Components** — min-label propagation has a unique least
//!   fixpoint and is self-stabilizing: warm labels are pointwise ≥ the new
//!   fixpoint (inserting edges can only lower labels), and every vertex
//!   whose value can improve is reached transitively from the seeded
//!   endpoints. The warm run is therefore *bit-identical* to a cold run.
//! * **BFS** — depths are a min-propagation fixpoint under the unit-depth
//!   program ([`UnitBfs`]); insert-only batches can only lower depths, so
//!   the warm depth re-run is exact for the same reason as CC. Parents are
//!   then re-derived only over the affected set from the deterministic
//!   tie-break rule the cold engine implements (`parent(v)` = smallest-id
//!   merged in-neighbor at `depth(v) − 1`), which makes the full parent
//!   array bit-identical to a cold [`crate::bfs::Bfs`] run on the merged
//!   graph.
//! * **PageRank** — not a monotone fixpoint, so exactness is replaced by
//!   tolerance: warm ranks seed the power iteration near the new fixpoint
//!   and both the warm and cold arms terminate on the same L1 residual
//!   tolerance, agreeing to within the tolerance's accuracy.

use crate::cc::ConnectedComponents;
use crate::pagerank::PageRank;
use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::run_program_overlay_on_pool;
use grazelle_core::frontier::Frontier;
use grazelle_core::incremental::GraphView;
use grazelle_core::program::{AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;

/// Unit-depth BFS as a min-propagation program.
///
/// [`Bfs`](crate::bfs::Bfs) marks vertices converged on first visitation — correct for cold
/// runs, but a warm re-run must let an inserted edge *improve* an
/// already-visited vertex's depth. `UnitBfs` drops the converged set and
/// propagates depths directly: `dist` holds the depth, `msg = dist + 1` is
/// what out-edges carry, and `apply` keeps the minimum. A cold `UnitBfs`
/// run computes exactly [`crate::bfs::reference_depths`].
pub struct UnitBfs {
    n: usize,
    /// Depth per vertex (+∞ unreachable).
    dist: PropertyArray,
    /// `dist + 1` — the Edge-phase message (+∞ while unreachable).
    msg: PropertyArray,
    /// Min accumulators.
    acc: PropertyArray,
    /// Initial frontier contents.
    seed: Vec<VertexId>,
}

impl UnitBfs {
    /// Cold start from `root`.
    pub fn cold(n: usize, root: VertexId) -> Self {
        assert!((root as usize) < n, "root out of range");
        let dist = PropertyArray::filled_f64(n, f64::INFINITY);
        let msg = PropertyArray::filled_f64(n, f64::INFINITY);
        dist.set_f64(root as usize, 0.0);
        msg.set_f64(root as usize, 1.0);
        UnitBfs {
            n,
            dist,
            msg,
            acc: PropertyArray::new(n),
            seed: vec![root],
        }
    }

    /// Warm start from prior depths, seeding only `seed` (the finite-depth
    /// tails of inserted edges).
    pub fn warm(depths: &[f64], seed: Vec<VertexId>) -> Self {
        let n = depths.len();
        let dist = PropertyArray::new(n);
        let msg = PropertyArray::new(n);
        for (v, &d) in depths.iter().enumerate() {
            dist.set_f64(v, d);
            msg.set_f64(
                v,
                if d.is_finite() {
                    d + 1.0
                } else {
                    f64::INFINITY
                },
            );
        }
        UnitBfs {
            n,
            dist,
            msg,
            acc: PropertyArray::new(n),
            seed,
        }
    }

    /// Depths after the run (+∞ unreachable).
    pub fn depths(&self) -> Vec<f64> {
        self.dist.to_vec_f64()
    }
}

impl GraphProgram for UnitBfs {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Min
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.msg
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let vu = v as usize;
        let cand = self.acc.get_f64(vu);
        if cand < self.dist.get_f64(vu) {
            self.dist.set_f64(vu, cand);
            self.msg.set_f64(vu, cand + 1.0);
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

    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &self.seed)
    }

    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        vec![&self.dist, &self.msg, &self.acc]
    }
}

/// `parent(v)` under the cold engine's deterministic tie-break: the
/// smallest-id merged in-neighbor one level up. The root parents itself;
/// unreachable vertices have no parent.
fn derive_parent(
    view: &GraphView<'_>,
    depths: &[f64],
    root: VertexId,
    v: VertexId,
) -> Option<VertexId> {
    if v == root {
        return Some(root);
    }
    let d = depths[v as usize];
    if !d.is_finite() {
        return None;
    }
    view.in_neighbors(v)
        .filter(|&u| depths[u as usize] == d - 1.0)
        .min()
}

/// Incrementally maintained BFS tree (depths + deterministic parents).
pub struct IncrementalBfs {
    root: VertexId,
    depths: Vec<f64>,
    parents: Vec<Option<VertexId>>,
}

impl IncrementalBfs {
    /// Cold run over the current view (overlay-aware).
    pub fn cold(
        view: &GraphView<'_>,
        root: VertexId,
        cfg: &EngineConfig,
        pool: &ThreadPool,
    ) -> Self {
        let prog = UnitBfs::cold(view.num_vertices(), root);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
        let depths = prog.depths();
        let parents = (0..view.num_vertices() as VertexId)
            .map(|v| derive_parent(view, &depths, root, v))
            .collect();
        IncrementalBfs {
            root,
            depths,
            parents,
        }
    }

    /// Warm re-run after an insert-only batch: seed the frontier with the
    /// finite-depth tails of `inserted`, reconverge depths, then re-derive
    /// parents only where they can have changed — depth-changed vertices,
    /// their out-neighbors (their parent may have moved up), and heads of
    /// inserted edges (a new in-neighbor can win the tie-break).
    pub fn update(
        &mut self,
        view: &GraphView<'_>,
        inserted: &[(VertexId, VertexId)],
        cfg: &EngineConfig,
        pool: &ThreadPool,
    ) {
        if inserted.is_empty() {
            return;
        }
        // The old depths are a fixpoint over the old edge set: every old
        // edge already satisfies depth[v] ≤ depth[u] + 1, so an improvement
        // cascade can only start at an inserted edge that violates it.
        // Seeding just those tails keeps the re-run proportional to the
        // perturbation, not the batch.
        let mut seed: Vec<VertexId> = inserted
            .iter()
            .filter(|&&(u, v)| {
                let du = self.depths[u as usize];
                du.is_finite() && self.depths[v as usize] > du + 1.0
            })
            .map(|&(u, _)| u)
            .collect();
        seed.sort_unstable();
        seed.dedup();
        let new = if seed.is_empty() {
            // No depth can change; only parent tie-breaks at the heads of
            // inserted edges remain to re-derive below.
            self.depths.clone()
        } else {
            let prog = UnitBfs::warm(&self.depths, seed);
            run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
            prog.depths()
        };

        let mut affected: Vec<VertexId> = Vec::new();
        for v in 0..view.num_vertices() as VertexId {
            if new[v as usize] != self.depths[v as usize] {
                affected.push(v);
                affected.extend(view.out_neighbors(v));
            }
        }
        affected.extend(inserted.iter().map(|&(_, v)| v));
        affected.sort_unstable();
        affected.dedup();
        for v in affected {
            self.parents[v as usize] = derive_parent(view, &new, self.root, v);
        }
        self.depths = new;
    }

    /// The BFS tree, bit-identical to a cold [`crate::bfs::Bfs`] run on
    /// the merged graph.
    pub fn parents(&self) -> &[Option<VertexId>] {
        &self.parents
    }

    /// Depths (`None` = unreachable).
    pub fn depths(&self) -> Vec<Option<u32>> {
        self.depths
            .iter()
            .map(|&d| if d.is_finite() { Some(d as u32) } else { None })
            .collect()
    }

    /// The root this tree grows from.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

/// Incrementally maintained Connected Components labels.
pub struct IncrementalCc {
    labels: Vec<u32>,
}

impl IncrementalCc {
    /// Cold run over the current view (overlay-aware).
    pub fn cold(view: &GraphView<'_>, cfg: &EngineConfig, pool: &ThreadPool) -> Self {
        let prog = ConnectedComponents::new(view.num_vertices());
        run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
        IncrementalCc {
            labels: prog.labels(),
        }
    }

    /// Warm re-run after an insert-only batch: keep the converged labels
    /// and seed only the endpoints of inserted edges.
    pub fn update(
        &mut self,
        view: &GraphView<'_>,
        inserted: &[(VertexId, VertexId)],
        cfg: &EngineConfig,
        pool: &ThreadPool,
    ) {
        if inserted.is_empty() {
            return;
        }
        // Same violation filter as BFS: the old labels are a fixpoint over
        // the old edges, so only an inserted edge joining two *different*
        // label classes can start a propagation cascade. Within-component
        // inserts (the vast majority on a well-connected graph) are free.
        let mut seed: Vec<VertexId> = inserted
            .iter()
            .filter(|&&(u, v)| self.labels[u as usize] != self.labels[v as usize])
            .flat_map(|&(u, v)| [u, v])
            .collect();
        seed.sort_unstable();
        seed.dedup();
        if seed.is_empty() {
            return;
        }
        let prog = ConnectedComponents::new(view.num_vertices())
            .with_warm_labels(&self.labels)
            .with_seed_frontier(&seed);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
        self.labels = prog.labels();
    }

    /// Component labels, bit-identical to a cold run on the merged graph.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }
}

/// Incrementally maintained PageRank (tolerance-terminated).
pub struct IncrementalPageRank {
    ranks: Vec<f64>,
    damping: f64,
    tolerance: f64,
}

impl IncrementalPageRank {
    /// Cold tolerance-terminated run over the current view.
    pub fn cold(
        view: &GraphView<'_>,
        damping: f64,
        tolerance: f64,
        cfg: &EngineConfig,
        pool: &ThreadPool,
    ) -> Self {
        let prog = PageRank::with_out_degrees(view.out_degrees, damping).with_tolerance(tolerance);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
        IncrementalPageRank {
            ranks: prog.ranks(),
            damping,
            tolerance,
        }
    }

    /// Warm re-run after a batch: prior ranks seed the power iteration over
    /// the merged out-degrees; terminates on the same tolerance as cold.
    pub fn update(&mut self, view: &GraphView<'_>, cfg: &EngineConfig, pool: &ThreadPool) {
        let prog = PageRank::with_out_degrees(view.out_degrees, self.damping)
            .with_warm_ranks(&self.ranks)
            .with_tolerance(self.tolerance);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &prog, cfg, pool);
        self.ranks = prog.ranks();
    }

    /// Current ranks (within the tolerance of a cold converged run).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs, cc, pagerank};
    use grazelle_core::engine::PreparedGraph;
    use grazelle_core::incremental::VersionedGraph;
    use grazelle_graph::delta::UpdateBatch;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};
    use grazelle_graph::graph::Graph;
    use std::sync::Arc;

    fn sym_rmat(scale: u32, density: f64, seed: u64) -> Graph {
        let mut el = rmat(&RmatConfig::graph500(scale, density, seed));
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    /// Symmetric insert pairs not present in `g`, picked deterministically.
    fn fresh_sym_edges(g: &Graph, count: usize) -> Vec<(u32, u32)> {
        let n = g.num_vertices() as u32;
        let mut out = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        while out.len() < 2 * count {
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

    fn versioned(g: &Graph, pool: &ThreadPool) -> VersionedGraph {
        let pg = PreparedGraph::new_on_pool(g, pool);
        VersionedGraph::new(Arc::new(g.clone()), Arc::new(pg))
    }

    fn merged_graph(vg: &VersionedGraph, pool: &ThreadPool) -> Graph {
        // Rebuild from the merged neighbor view for cold-recompute arms.
        let view = vg.view(pool);
        let mut el = EdgeList::new(view.num_vertices());
        for u in 0..view.num_vertices() as u32 {
            for v in view.out_neighbors(u) {
                el.push(u, v).unwrap();
            }
        }
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn unit_bfs_cold_matches_reference_depths() {
        let g = sym_rmat(9, 4.0, 17);
        let pool = ThreadPool::single_group(2);
        let vg = versioned(&g, &pool);
        let cfg = EngineConfig::new().with_threads(2);
        let inc = IncrementalBfs::cold(&vg.view(&pool), 0, &cfg, &pool);
        assert_eq!(inc.depths(), bfs::reference_depths(&g, 0));
    }

    #[test]
    fn incremental_bfs_is_bit_identical_to_cold_on_merged_graph() {
        let g = sym_rmat(9, 3.0, 23);
        let pool = ThreadPool::single_group(2);
        let mut vg = versioned(&g, &pool);
        let cfg = EngineConfig::new().with_threads(2);
        let mut inc = IncrementalBfs::cold(&vg.view(&pool), 0, &cfg, &pool);

        let batch = fresh_sym_edges(&g, 12);
        let report = vg
            .apply_batch(&UpdateBatch::from_inserts(&batch), &pool)
            .unwrap();
        assert!(!report.full_recompute);
        inc.update(&vg.view(&pool), &report.record.inserted, &cfg, &pool);

        let merged = merged_graph(&vg, &pool);
        let mpg = PreparedGraph::new(&merged);
        let (cold_parents, _) = bfs::run_prepared(&mpg, &cfg, &pool, 0);
        assert_eq!(inc.parents(), &cold_parents[..]);
    }

    #[test]
    fn incremental_cc_is_bit_identical_to_cold_on_merged_graph() {
        let g = sym_rmat(9, 2.0, 5); // sparse => many components to merge
        let pool = ThreadPool::single_group(2);
        let mut vg = versioned(&g, &pool);
        let cfg = EngineConfig::new().with_threads(2);
        let mut inc = IncrementalCc::cold(&vg.view(&pool), &cfg, &pool);

        let batch = fresh_sym_edges(&g, 16);
        let report = vg
            .apply_batch(&UpdateBatch::from_inserts(&batch), &pool)
            .unwrap();
        inc.update(&vg.view(&pool), &report.record.inserted, &cfg, &pool);

        let merged = merged_graph(&vg, &pool);
        assert_eq!(inc.labels(), &cc::reference_undirected(&merged)[..]);
        let mpg = PreparedGraph::new(&merged);
        let (cold, _) = cc::run_prepared(&mpg, &cfg, &pool, false);
        assert_eq!(inc.labels(), &cold[..]);
    }

    #[test]
    fn incremental_pagerank_tracks_cold_within_tolerance() {
        let g = sym_rmat(8, 4.0, 9);
        let pool = ThreadPool::single_group(2);
        let mut vg = versioned(&g, &pool);
        let mut cfg = EngineConfig::new().with_threads(2);
        cfg.max_iterations = 500;
        let mut inc =
            IncrementalPageRank::cold(&vg.view(&pool), pagerank::DAMPING, 1e-12, &cfg, &pool);

        let batch = fresh_sym_edges(&g, 10);
        vg.apply_batch(&UpdateBatch::from_inserts(&batch), &pool)
            .unwrap();
        inc.update(&vg.view(&pool), &cfg, &pool);

        let merged = merged_graph(&vg, &pool);
        let mvg = versioned(&merged, &pool);
        let cold =
            IncrementalPageRank::cold(&mvg.view(&pool), pagerank::DAMPING, 1e-12, &cfg, &pool);
        for (a, b) in inc.ranks().iter().zip(cold.ranks()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn update_after_threshold_merge_still_tracks() {
        // Force a merge mid-stream; warm updates must keep matching cold.
        let g = sym_rmat(8, 3.0, 41);
        let pool = ThreadPool::single_group(2);
        let mut vg = versioned(&g, &pool).with_merge_fraction(0.001);
        let cfg = EngineConfig::new().with_threads(2);
        let mut inc = IncrementalCc::cold(&vg.view(&pool), &cfg, &pool);

        for round in 0..3 {
            let batch = fresh_sym_edges(vg.base(), 4 + round);
            let report = vg
                .apply_batch(&UpdateBatch::from_inserts(&batch), &pool)
                .unwrap();
            assert!(report.merged, "tiny threshold must merge every batch");
            inc.update(&vg.view(&pool), &report.record.inserted, &cfg, &pool);
        }
        assert_eq!(inc.labels(), &cc::reference_undirected(vg.base())[..]);
    }
}
