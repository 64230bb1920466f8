//! The versioned graph handle: base + delta overlay + merge policy.
//!
//! [`VersionedGraph`] owns an immutable base [`Graph`]/[`PreparedGraph`]
//! pair plus the [`DeltaSegments`] recorded on top of it, and keeps a
//! second, small prepared graph built over the pending inserts — the
//! overlay the engine drivers fold in after each base Edge phase
//! (`run_program_overlay_on_pool`, `run_resilient_overlay_on_pool`).
//!
//! Policy, all in [`apply_batch`](VersionedGraph::apply_batch):
//!
//! * **Inserts** accumulate in the overlay. Prior results stay valid and
//!   incrementally maintainable (min/max propagation is monotone under edge
//!   insertion; PageRank warm-starts).
//! * **Deletes** force an immediate merge — tombstoned edges cannot be
//!   filtered out of a pull or push phase per-edge — and flag
//!   `full_recompute`: deletions can invalidate monotone results, so the
//!   safe fallback is a cold rerun on the merged graph.
//! * **Threshold merge**: once pending inserts exceed
//!   [`merge_fraction`](VersionedGraph::with_merge_fraction) of the base
//!   edge count, the overlay is folded into the base. A threshold merge
//!   changes no logical edge, so prior results remain valid.
//!
//! Neither a merge nor an overlay refresh rebuilds from an edge list. A
//! merge splices the sorted pending inserts and tombstones into the base,
//! and a refresh splices the batch's new inserts into the old overlay
//! ([`Graph::with_edits`]). Both copy every untouched adjacency list as one
//! slice, then encode Vector-Sparse from the result.
//!
//! Pending deltas persist through the `GRZCKPT1` checkpoint container
//! ([`save_pending`](VersionedGraph::save_pending)): each edge packs into
//! one `u64` array slot and the batch version rides in the iteration field.
//! A serving node restarts with restore-then-replay —
//! [`with_pending_replayed`](VersionedGraph::with_pending_replayed) rebuilds
//! the overlay from the persisted inserts against the same base.

use crate::build::PAR_BUILD_CUTOVER_EDGES;
use crate::checkpoint::Checkpoint;
use crate::engine::PreparedGraph;
use crate::frontier::Frontier;
use crate::properties::PropertyArray;
use grazelle_graph::delta::{DeltaRecord, DeltaSegments, UpdateBatch};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::{GraphError, VertexId};
use grazelle_sched::pool::ThreadPool;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Default pending-insert fraction of the base edge count that triggers a
/// merge rebuild. A quarter keeps the overlay's extra push phase well below
/// the base Edge phase while amortizing rebuilds over many batches.
pub const DEFAULT_MERGE_FRACTION: f64 = 0.25;

/// What one [`VersionedGraph::apply_batch`] call did.
#[derive(Debug, Clone, Default)]
pub struct ApplyReport {
    /// Version after the batch (one tick per batch).
    pub version: u64,
    /// The effective (deduplicated) updates.
    pub record: DeltaRecord,
    /// Whether the batch ended in a merge rebuild (deletes always; inserts
    /// when the pending overlay crossed the threshold).
    pub merged: bool,
    /// Whether prior results are invalidated (deletes only). Incremental
    /// maintenance must fall back to a cold recompute when set.
    pub full_recompute: bool,
    /// Wall time of the merge, splice and Vector-Sparse encode together
    /// (0 without one).
    pub merge_ns: u64,
}

/// A borrowed, read-only view of the current graph version: the base pair,
/// the optional prepared overlay, and merged degree arrays. What the
/// engine drivers and per-app seeding rules consume.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    /// Base graph (structure queries, weights).
    pub graph: &'a Graph,
    /// Base prepared structures (VSD + VSS).
    pub pg: &'a PreparedGraph,
    /// Overlay of pending inserts, if any.
    pub delta_graph: Option<&'a Graph>,
    /// Prepared overlay, if any — what the delta Edge phase consumes.
    pub delta_pg: Option<&'a PreparedGraph>,
    /// Merged out-degrees (base + pending inserts).
    pub out_degrees: &'a [u32],
    /// Merged in-degrees (base + pending inserts).
    pub in_degrees: &'a [u32],
}

impl<'a> GraphView<'a> {
    /// A view of a plain, unversioned graph (no overlay, degrees from the
    /// base CSRs). For callers that need a `GraphView` but have no handle.
    pub fn plain(
        graph: &'a Graph,
        pg: &'a PreparedGraph,
        out_deg: &'a [u32],
        in_deg: &'a [u32],
    ) -> Self {
        GraphView {
            graph,
            pg,
            delta_graph: None,
            delta_pg: None,
            out_degrees: out_deg,
            in_degrees: in_deg,
        }
    }

    /// Shared vertex count.
    pub fn num_vertices(&self) -> usize {
        self.pg.num_vertices
    }

    /// Logical edge count: base plus pending inserts.
    pub fn num_edges(&self) -> usize {
        self.pg.num_edges + self.delta_pg.map_or(0, |d| d.num_edges)
    }

    /// Whether an overlay with at least one edge is active.
    pub fn has_delta(&self) -> bool {
        self.delta_pg.is_some_and(|d| d.num_edges > 0)
    }

    /// Merged out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degrees[v as usize]
    }

    /// Merged in-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_degrees[v as usize]
    }

    /// Iterates `v`'s merged in-neighbors: base CSC order, then overlay.
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        self.graph.in_neighbors(v).iter().copied().chain(
            self.delta_graph
                .into_iter()
                .flat_map(move |d| d.in_neighbors(v).iter().copied()),
        )
    }

    /// Iterates `v`'s merged out-neighbors: base CSR order, then overlay.
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        self.graph.out_neighbors(v).iter().copied().chain(
            self.delta_graph
                .into_iter()
                .flat_map(move |d| d.out_neighbors(v).iter().copied()),
        )
    }
}

/// The versioned graph handle (see the module docs for the policy).
pub struct VersionedGraph {
    base: Arc<Graph>,
    base_pg: Arc<PreparedGraph>,
    delta: DeltaSegments,
    delta_graph: Option<(Arc<Graph>, Arc<PreparedGraph>)>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    merge_fraction: f64,
}

impl VersionedGraph {
    /// Wraps an existing base pair at version 0 with the default merge
    /// policy.
    pub fn new(base: Arc<Graph>, base_pg: Arc<PreparedGraph>) -> Self {
        let n = base.num_vertices();
        let out_deg = (0..n as VertexId).map(|v| base.out_degree(v)).collect();
        let in_deg = (0..n as VertexId).map(|v| base.in_degree(v)).collect();
        VersionedGraph {
            base,
            base_pg,
            delta: DeltaSegments::new(n),
            delta_graph: None,
            out_deg,
            in_deg,
            merge_fraction: DEFAULT_MERGE_FRACTION,
        }
    }

    /// Builds the base pair from a graph (prepares structures on `pool`).
    pub fn from_graph(g: Graph, pool: &ThreadPool) -> Self {
        let pg = if pool.num_threads() > 1 {
            PreparedGraph::new_on_pool(&g, pool)
        } else {
            PreparedGraph::new(&g)
        };
        VersionedGraph::new(Arc::new(g), Arc::new(pg))
    }

    /// Overrides the pending-insert fraction that triggers a merge.
    pub fn with_merge_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction >= 0.0, "merge fraction must be non-negative");
        self.merge_fraction = fraction;
        self
    }

    /// Current version (one tick per applied batch; merges do not tick).
    pub fn version(&self) -> u64 {
        self.delta.version()
    }

    /// Vertex count (fixed across versions).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Logical edge count: base plus pending inserts.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.delta.pending_len()
    }

    /// Whether pending inserts are overlaid on the base right now.
    pub fn delta_active(&self) -> bool {
        self.delta_graph
            .as_ref()
            .is_some_and(|(g, _)| g.num_edges() > 0)
    }

    /// The current base graph (changes identity on merge).
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// The current base prepared structures.
    pub fn base_prepared(&self) -> &Arc<PreparedGraph> {
        &self.base_pg
    }

    /// A borrowed view of this version for the engine drivers.
    pub fn view(&self) -> GraphView<'_> {
        GraphView {
            graph: &self.base,
            pg: &self.base_pg,
            delta_graph: self.delta_graph.as_ref().map(|(g, _)| g.as_ref()),
            delta_pg: self.delta_graph.as_ref().map(|(_, pg)| pg.as_ref()),
            out_degrees: &self.out_deg,
            in_degrees: &self.in_deg,
        }
    }

    /// Applies one update batch: records it into the delta segments,
    /// refreshes the overlay (or merges — deletes always, inserts past the
    /// threshold), and updates the merged degree arrays. Rejected batches
    /// (endpoint out of range, weighted base) change nothing.
    pub fn apply_batch(
        &mut self,
        batch: &UpdateBatch,
        pool: &ThreadPool,
    ) -> Result<ApplyReport, GraphError> {
        let record = self.delta.record(&self.base, batch)?;
        for &(u, v) in &record.inserted {
            self.out_deg[u as usize] += 1;
            self.in_deg[v as usize] += 1;
        }
        for &(u, v) in &record.deleted {
            self.out_deg[u as usize] -= 1;
            self.in_deg[v as usize] -= 1;
        }
        let mut report = ApplyReport {
            version: self.delta.version(),
            record,
            merged: false,
            full_recompute: false,
            merge_ns: 0,
        };
        let deletes = !self.delta.tombstones().is_empty();
        if deletes
            || self.delta.pending_len() as f64 > self.merge_fraction * self.base.num_edges() as f64
        {
            let t = Instant::now();
            self.merge(pool)?;
            report.merged = true;
            report.full_recompute = deletes;
            report.merge_ns = t.elapsed().as_nanos() as u64;
        } else {
            // No tombstone is left, so an edge the batch both deleted and
            // inserted is where it was; every other insert is new to the
            // overlay.
            let mut deleted = report.record.deleted.clone();
            deleted.sort_unstable();
            let mut fresh: Vec<_> = report
                .record
                .inserted
                .iter()
                .filter(|e| deleted.binary_search(e).is_err())
                .copied()
                .collect();
            if !fresh.is_empty() {
                fresh.sort_unstable();
                let empty;
                let old = match &self.delta_graph {
                    Some((g, _)) => g.as_ref(),
                    None => {
                        empty = Graph::from_edgelist(&EdgeList::new(self.num_vertices()))?;
                        &empty
                    }
                };
                let overlay = old.with_edits(&fresh, &[], pool)?;
                let pg = prepare(&overlay, pool);
                self.delta_graph = Some((Arc::new(overlay), Arc::new(pg)));
            }
        }
        Ok(report)
    }

    /// Splices every pending insert and tombstone into the base, re-encodes
    /// it, then clears the delta. The logical edge set is unchanged.
    fn merge(&mut self, pool: &ThreadPool) -> Result<(), GraphError> {
        let g = self.base.with_edits(
            &self.delta.sorted_pending(),
            &self.delta.sorted_tombstones(),
            pool,
        )?;
        self.base_pg = Arc::new(prepare(&g, pool));
        self.base = Arc::new(g);
        self.delta.clear();
        self.delta_graph = None;
        // Degrees were maintained incrementally and the merge changes no
        // logical edge — but re-derive from the spliced CSRs so a drift bug
        // cannot outlive a merge.
        self.out_deg = self.base.out_csr().degrees();
        self.in_deg = self.base.in_csr().degrees();
        Ok(())
    }

    /// Persists the pending (unmerged) inserts as a `GRZCKPT1`
    /// checkpoint: one `u64` per edge (`src` in the high 32 bits), version
    /// in the iteration field. Tombstones never persist — deletes merge
    /// before `apply_batch` returns.
    pub fn save_pending<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        let pending = self.delta.sorted_pending();
        let arr = PropertyArray::new(pending.len());
        for (i, &(u, v)) in pending.iter().enumerate() {
            arr.set_u64(i, ((u as u64) << 32) | v as u64);
        }
        let ck = Checkpoint::capture(
            self.version() as usize,
            &[&arr],
            &Frontier::empty(self.num_vertices().max(1)),
        );
        ck.save(path)
    }

    /// Restore-then-replay: wraps `base`/`base_pg` (the pre-crash base) and
    /// replays the pending deltas persisted by
    /// [`save_pending`](Self::save_pending), restoring the overlay and the
    /// version counter.
    pub fn with_pending_replayed<P: AsRef<Path>>(
        base: Arc<Graph>,
        base_pg: Arc<PreparedGraph>,
        path: P,
        pool: &ThreadPool,
    ) -> Result<Self, GraphError> {
        let ck = Checkpoint::load(path)?;
        let [packed] = ck.arrays.as_slice() else {
            return Err(GraphError::Io(format!(
                "pending-delta checkpoint must hold exactly 1 array, found {}",
                ck.arrays.len()
            )));
        };
        let edges: Vec<(VertexId, VertexId)> = packed
            .iter()
            .map(|&bits| ((bits >> 32) as VertexId, bits as VertexId))
            .collect();
        let mut vg = VersionedGraph::new(base, base_pg);
        vg.apply_batch(&UpdateBatch::from_inserts(&edges), pool)?;
        vg.delta.set_version(ck.iteration as u64);
        Ok(vg)
    }
}

/// Vector-Sparse for a spliced graph: on the pool from
/// [`PAR_BUILD_CUTOVER_EDGES`] edges up, sequentially below, where the
/// pool's handshakes cost more than they split (bit-identical either way).
fn prepare(g: &Graph, pool: &ThreadPool) -> PreparedGraph {
    if g.num_edges() as u64 >= PAR_BUILD_CUTOVER_EDGES {
        PreparedGraph::new_on_pool(g, pool)
    } else {
        PreparedGraph::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::hybrid::run_program_overlay_on_pool;
    use crate::program::{AggOp, GraphProgram};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Min-label propagation (CC-like), the simplest frontier program.
    struct MinLabel {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl MinLabel {
        fn new(n: usize) -> Self {
            let labels = PropertyArray::new(n);
            for v in 0..n {
                labels.set_f64(v, v as f64);
            }
            MinLabel {
                labels,
                acc: PropertyArray::new(n),
                n,
            }
        }
    }
    impl GraphProgram for MinLabel {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Min
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.labels
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, v: u32) -> bool {
            let old = self.labels.get_f64(v as usize);
            let agg = self.acc.get_f64(v as usize);
            if agg < old {
                self.labels.set_f64(v as usize, agg);
                true
            } else {
                false
            }
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            Frontier::all(self.n)
        }
    }

    fn ring(n: u32) -> Graph {
        let mut el = EdgeList::new(n as usize);
        for v in 0..n {
            el.push(v, (v + 1) % n).unwrap();
            el.push((v + 1) % n, v).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    fn vg_over(g: Graph) -> (VersionedGraph, ThreadPool) {
        let pool = ThreadPool::single_group(2);
        (VersionedGraph::from_graph(g, &pool), pool)
    }

    #[test]
    fn overlay_run_matches_cold_run_on_merged_graph() {
        // Two disjoint 8-rings; the batch bridges them.
        let mut el = EdgeList::new(16);
        for r in [0u32, 8] {
            for v in 0..8 {
                el.push(r + v, r + (v + 1) % 8).unwrap();
                el.push(r + (v + 1) % 8, r + v).unwrap();
            }
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let (mut vg, pool) = vg_over(g);
        let report = vg
            .apply_batch(&UpdateBatch::from_inserts(&[(3, 11), (11, 3)]), &pool)
            .unwrap();
        assert!(!report.merged);
        assert!(vg.delta_active());
        assert_eq!(vg.num_edges(), 34);

        let cfg = EngineConfig::new().with_threads(2);
        let view = vg.view();
        let overlay = MinLabel::new(16);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &overlay, &cfg, &pool);

        let merged = vg
            .base
            .with_edits(&vg.delta.sorted_pending(), &[], &pool)
            .unwrap();
        let mpg = PreparedGraph::new(&merged);
        let cold = MinLabel::new(16);
        run_program_overlay_on_pool(&mpg, None, &cold, &cfg, &pool);

        assert_eq!(overlay.labels.to_vec_f64(), cold.labels.to_vec_f64());
        assert!(overlay.labels.to_vec_f64().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn deletes_force_merge_and_full_recompute() {
        let (mut vg, pool) = vg_over(ring(8));
        let report = vg
            .apply_batch(UpdateBatch::new().delete(0, 1).insert(2, 5), &pool)
            .unwrap();
        assert!(report.merged);
        assert!(report.full_recompute);
        assert!(!vg.delta_active());
        assert_eq!(vg.num_edges(), 16); // 16 - 1 + 1
        assert_eq!(vg.base().out_neighbors(0), &[7]);
        assert!(vg.base().out_neighbors(2).contains(&5));
        assert_eq!(vg.version(), 1);
    }

    #[test]
    fn threshold_merge_folds_the_overlay_in() {
        let (vg, pool) = vg_over(ring(8));
        let mut vgt = vg.with_merge_fraction(0.1);
        // 16 base edges * 0.1 = 1.6: the second insert crosses it.
        let r1 = vgt
            .apply_batch(&UpdateBatch::from_inserts(&[(0, 2)]), &pool)
            .unwrap();
        assert!(!r1.merged);
        assert!(vgt.delta_active());
        let r2 = vgt
            .apply_batch(&UpdateBatch::from_inserts(&[(0, 3)]), &pool)
            .unwrap();
        assert!(r2.merged);
        assert!(!r2.full_recompute, "insert-only merge keeps results valid");
        assert!(!vgt.delta_active());
        assert_eq!(vgt.num_edges(), 18);
        assert!(vgt.base().out_neighbors(0).contains(&2));
    }

    #[test]
    fn degrees_track_the_merged_view() {
        let (mut vg, pool) = vg_over(ring(8));
        assert_eq!(vg.view().out_degree(0), 2);
        vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 4), (5, 0)]), &pool)
            .unwrap();
        let view = vg.view();
        assert_eq!(view.out_degree(0), 3);
        assert_eq!(view.in_degree(0), 3);
        assert_eq!(view.in_degree(4), 3);
        let mut outn: Vec<u32> = view.out_neighbors(0).collect();
        outn.sort_unstable();
        assert_eq!(outn, vec![1, 4, 7]);
        let mut inn: Vec<u32> = view.in_neighbors(4).collect();
        inn.sort_unstable();
        assert_eq!(inn, vec![0, 3, 5]);
    }

    #[test]
    fn pending_deltas_roundtrip_through_grzckpt1() {
        let dir = std::env::temp_dir().join(format!("grz-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pending.ckpt");

        let (mut vg, pool) = vg_over(ring(8));
        vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 4)]), &pool)
            .unwrap();
        vg.apply_batch(&UpdateBatch::from_inserts(&[(2, 6)]), &pool)
            .unwrap();
        vg.save_pending(&path).unwrap();

        // Restart: same base, replayed overlay.
        let restored = VersionedGraph::with_pending_replayed(
            Arc::new(ring(8)),
            Arc::new(PreparedGraph::new(&ring(8))),
            &path,
            &pool,
        )
        .unwrap();
        assert_eq!(restored.version(), 2);
        assert_eq!(restored.num_edges(), vg.num_edges());
        assert!(restored.delta_active());
        assert_eq!(restored.delta.sorted_pending(), vec![(0, 4), (2, 6)]);
        std::fs::remove_file(&path).ok();
    }

    /// Cold build of an edge set over `n` vertices.
    fn cold(n: usize, edges: &BTreeSet<(u32, u32)>) -> (Graph, PreparedGraph) {
        let pairs: Vec<_> = edges.iter().copied().collect();
        let g = Graph::from_edgelist(&EdgeList::from_pairs(n, &pairs).unwrap()).unwrap();
        let pg = PreparedGraph::new(&g);
        (g, pg)
    }

    /// Whether `(g, pg)` is exactly the cold build of `edges`.
    fn is_cold_build(g: &Graph, pg: &PreparedGraph, edges: &BTreeSet<(u32, u32)>) -> bool {
        let (cg, cpg) = cold(g.num_vertices(), edges);
        g.out_csr() == cg.out_csr()
            && g.in_csr() == cg.in_csr()
            && pg.vsd.bit_identical(&cpg.vsd)
            && pg.vss.bit_identical(&cpg.vss)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After every batch of a random stream of insert-only and deleting
        /// batches, the base is the cold build of the edges it holds, the
        /// overlay the cold build of the rest of the logical edge set, and
        /// degrees and version follow — through overlay refreshes, delete
        /// merges and threshold merges, at 1, 2 and 8 threads.
        #[test]
        fn prop_spliced_versions_equal_cold_builds(
            n in 1usize..24,
            base in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
            batches in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 0..12)),
                1..8,
            ),
            fraction in prop_oneof![Just(DEFAULT_MERGE_FRACTION), Just(0.05)],
            threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        ) {
            let clamp = |s: u32, d: u32| (s % n as u32, d % n as u32);
            let mut logical: BTreeSet<_> = base.iter().map(|&(s, d)| clamp(s, d)).collect();
            let (g, pg) = cold(n, &logical);
            let pool = ThreadPool::single_group(threads);
            let mut vg = VersionedGraph::new(Arc::new(g), Arc::new(pg)).with_merge_fraction(fraction);
            let mut in_base = logical.clone();
            for (version, (deleting, edits)) in batches.into_iter().enumerate() {
                let mut batch = UpdateBatch::new();
                for (s, d, delete) in edits {
                    let e = clamp(s, d);
                    if deleting && delete {
                        batch.delete(e.0, e.1);
                    } else {
                        batch.insert(e.0, e.1);
                    }
                }
                // Deletes first, then inserts, as `DeltaSegments::record`.
                for e in batch.deletes() {
                    logical.remove(e);
                }
                logical.extend(batch.inserts().iter().copied());
                let report = vg.apply_batch(&batch, &pool).unwrap();
                if report.merged {
                    in_base = logical.clone();
                }
                // A delete the same batch re-inserted leaves no tombstone.
                let lost = report.record.deleted.iter().any(|e| !logical.contains(e));
                prop_assert_eq!(report.full_recompute, lost);
                prop_assert!(report.merged || !lost);
                prop_assert_eq!(vg.version(), version as u64 + 1);
                prop_assert_eq!(vg.num_edges(), logical.len());
                let view = vg.view();
                prop_assert!(is_cold_build(view.graph, view.pg, &in_base));
                let pending: BTreeSet<_> = logical.difference(&in_base).copied().collect();
                match (view.delta_graph, view.delta_pg) {
                    (Some(g), Some(pg)) => prop_assert!(is_cold_build(g, pg, &pending)),
                    (None, None) => prop_assert!(pending.is_empty()),
                    _ => prop_assert!(false, "overlay graph without its structures"),
                }
                let (merged, _) = cold(n, &logical);
                prop_assert_eq!(view.out_degrees, &merged.out_csr().degrees()[..]);
                prop_assert_eq!(view.in_degrees, &merged.in_csr().degrees()[..]);
            }
        }
    }

    #[test]
    fn replacing_a_pending_insert_keeps_the_overlay() {
        let (mut vg, pool) = vg_over(ring(8));
        vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 4), (6, 2)]), &pool)
            .unwrap();
        let before = vg.view().delta_graph.unwrap().out_csr().clone();
        let report = vg
            .apply_batch(UpdateBatch::new().delete(0, 4).insert(0, 4), &pool)
            .unwrap();
        assert!(!report.merged, "the delete was cancelled in the batch");
        assert_eq!(vg.view().delta_graph.unwrap().out_csr(), &before);
        assert_eq!(vg.num_edges(), 18);
        assert_eq!(vg.view().out_degree(0), 3);
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let (mut vg, pool) = vg_over(ring(4));
        let before = vg.view().out_degrees.to_vec();
        let err = vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 9)]), &pool);
        assert!(err.is_err());
        assert_eq!(vg.version(), 0);
        assert_eq!(vg.view().out_degrees, &before[..]);
        assert!(!vg.delta_active());
    }
}
