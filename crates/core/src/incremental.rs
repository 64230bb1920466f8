//! The versioned graph handle: base + delta overlay + merge policy.
//!
//! [`VersionedGraph`] owns an immutable base [`Graph`] plus the
//! [`DeltaSegments`] recorded on top of it, and keeps a second, small graph
//! over the pending inserts — the overlay the engine drivers fold in after
//! each base Edge phase (`run_program_overlay_on_pool`,
//! `run_resilient_overlay_on_pool`). Each layer is one [`OnDemand`] cell
//! over its graph, holding the layer's [`PreparedGraph`] once an engine
//! read encoded it (see below).
//!
//! Policy, all in [`apply_batch`](VersionedGraph::apply_batch):
//!
//! * **Inserts** accumulate in the overlay.
//! * **Deletes** force an immediate merge: tombstoned edges cannot be
//!   filtered out of a pull or push phase per-edge.
//! * **Threshold merge**: once pending inserts exceed a quarter
//!   (`DEFAULT_MERGE_FRACTION`) of the base edge count, the overlay is
//!   folded into the base. A threshold merge changes no logical edge.
//!
//! Neither a merge nor an overlay refresh rebuilds from an edge list, and
//! neither encodes. A merge splices the sorted pending inserts and
//! tombstones into the base, and a refresh splices the batch's new inserts
//! into the old overlay ([`Graph::with_edits`]); both copy every untouched
//! adjacency list as one slice. A version's Vector-Sparse is encoded once,
//! on the caller's pool, by its first [`view`](VersionedGraph::view);
//! readers of CSR/CSC alone ([`layers`](VersionedGraph::layers)) never pay
//! for it.
//!
//! A version also keeps a [`ComponentMemo`]: on an undirected version
//! (symmetric base, no active overlay) the vertices reachable from a root
//! are its connected component, so the reached sets of the traversals
//! served on the version label its components as they are met. The memo is
//! the version's own: every applied batch starts it empty, and it lives
//! beside the base, never in the shared [`Graph`] / [`PreparedGraph`].
//!
//! Pending deltas persist through the `GRZCKPT1` checkpoint container
//! ([`save_pending`](VersionedGraph::save_pending)): each edge packs into
//! one `u64` array slot and the batch version rides in the iteration field.
//! A serving node restarts with restore-then-replay —
//! [`with_pending_replayed`](VersionedGraph::with_pending_replayed) rebuilds
//! the overlay from the persisted inserts against the same base.

use crate::checkpoint::Checkpoint;
use crate::engine::PreparedGraph;
use crate::frontier::Frontier;
use crate::properties::PropertyArray;
use grazelle_graph::delta::{DeltaRecord, DeltaSegments, UpdateBatch};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::{GraphError, VertexId};
use grazelle_sched::{build_pool, OnDemand, ThreadPool, PAR_BUILD_CUTOVER_EDGES};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Default pending-insert fraction of the base edge count that triggers a
/// merge rebuild. A quarter keeps the overlay's extra push phase well below
/// the base Edge phase while amortizing rebuilds over many batches.
pub(crate) const DEFAULT_MERGE_FRACTION: f64 = 0.25;

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
    /// Wall time of the merge's CSR/CSC splice (0 without one). The
    /// Vector-Sparse encode waits for the version's first engine read.
    pub merge_ns: u64,
}

/// A borrowed, read-only view of the current graph version: the base pair,
/// the optional prepared overlay, and merged degree arrays. What the
/// engine drivers and the served queries consume.
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
}

/// Component label of a vertex no recorded traversal has reached.
const UNSEEN: u32 = u32::MAX;

/// The connected components of one undirected version, learned from the
/// reached sets of completed traversals
/// ([`record`](ComponentMemo::record)); a component is either recorded
/// whole or not at all, so a recorded root answers reachability without a
/// traversal ([`reached`](ComponentMemo::reached)).
#[derive(Debug, Default)]
pub struct ComponentMemo {
    /// Component of each vertex, [`UNSEEN`] until a recorded traversal
    /// reached it; empty until the first record.
    labels: Vec<u32>,
    /// Components recorded so far.
    components: u32,
    /// The reached set of the component looked up last, so repeated roots
    /// in one component (the giant one, mostly) cost a copy, not a scan.
    last: Option<(u32, Vec<bool>)>,
}

impl ComponentMemo {
    /// The recorded component of `v`, if any.
    fn component(&self, v: VertexId) -> Option<u32> {
        self.labels
            .get(v as usize)
            .copied()
            .filter(|&c| c != UNSEEN)
    }

    /// Records the reached sets of a completed traversal from `roots`:
    /// bit *i* of `masks[v]` says `v` was reached from `roots[i]`. Each
    /// root whose component is not recorded yet labels its reached set as
    /// one new component; roots that share a component share it. Returns
    /// the number of new components. Sound only when the traversal ran on
    /// an undirected graph, where a reached set is a whole component.
    pub fn record(&mut self, roots: &[VertexId], masks: &[u64]) -> usize {
        assert!(roots.len() <= 64, "one mask bit per root");
        // Lanes whose root neither a recorded component nor an earlier new
        // lane holds: their reached sets are new, pairwise disjoint
        // components.
        let mut fresh = 0u64;
        let mut label = [UNSEEN; 64];
        for (lane, &r) in roots.iter().enumerate() {
            if self.component(r).is_none() && masks[r as usize] & fresh == 0 {
                fresh |= 1 << lane;
                label[lane] = self.components;
                self.components += 1;
            }
        }
        if fresh == 0 {
            return 0;
        }
        if self.labels.is_empty() {
            self.labels = vec![UNSEEN; masks.len()];
        }
        for (slot, &m) in self.labels.iter_mut().zip(masks) {
            if m & fresh != 0 {
                *slot = label[(m & fresh).trailing_zeros() as usize];
            }
        }
        fresh.count_ones() as usize
    }

    /// The reached set of `root` (its component, one flag per vertex), or
    /// `None` when its component is not recorded.
    pub fn reached(&mut self, root: VertexId) -> Option<Vec<bool>> {
        let c = self.component(root)?;
        if self.last.as_ref().is_none_or(|(last, _)| *last != c) {
            let set = self.labels.iter().map(|&l| l == c).collect();
            self.last = Some((c, set));
        }
        self.last.as_ref().map(|(_, set)| set.clone())
    }
}

/// One layer of a version: its graph, and the Vector-Sparse of it that the
/// layer's first engine read encodes ([`prepared`]).
type Layer = OnDemand<Arc<Graph>, Arc<PreparedGraph>>;

/// A layer over `g`, not encoded yet.
fn layer(g: Graph) -> Layer {
    let edges = g.num_edges();
    OnDemand::new(Arc::new(g), edges)
}

/// `layer`'s Vector-Sparse, encoded on `pool` if no earlier read did.
fn prepared<'a>(layer: &'a Layer, pool: &ThreadPool) -> &'a Arc<PreparedGraph> {
    match layer.get() {
        Some(pg) => pg,
        None => layer.ready(Some(pool), |g, pool| {
            Arc::new(PreparedGraph::build(g, pool))
        }),
    }
}

/// The versioned graph handle (see the module docs for the policy).
pub struct VersionedGraph {
    base: Layer,
    /// This version's components, met so far; see
    /// [`components`](VersionedGraph::components).
    components: ComponentMemo,
    delta: DeltaSegments,
    /// The overlay of pending inserts.
    delta_graph: Option<Layer>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    merge_fraction: f64,
}

impl VersionedGraph {
    /// Wraps an existing base pair at version 0 with the default merge
    /// policy.
    pub fn new(base: Arc<Graph>, base_pg: Arc<PreparedGraph>) -> Self {
        VersionedGraph::over(OnDemand::built(base, base_pg))
    }

    /// Wraps a graph at version 0; its structures wait for the first read.
    pub fn from_graph(g: Graph) -> Self {
        VersionedGraph::over(layer(g))
    }

    fn over(base: Layer) -> Self {
        let g = base.source();
        let n = g.num_vertices();
        let out_deg = (0..n as VertexId).map(|v| g.out_degree(v)).collect();
        let in_deg = (0..n as VertexId).map(|v| g.in_degree(v)).collect();
        VersionedGraph {
            base,
            components: ComponentMemo::default(),
            delta: DeltaSegments::new(n),
            delta_graph: None,
            out_deg,
            in_deg,
            merge_fraction: DEFAULT_MERGE_FRACTION,
        }
    }

    /// Overrides the pending-insert fraction that triggers a merge.
    #[cfg(test)]
    pub(crate) fn with_merge_fraction(mut self, fraction: f64) -> Self {
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
        self.base().num_vertices()
    }

    /// Logical edge count: base plus pending inserts.
    pub fn num_edges(&self) -> usize {
        self.base().num_edges() + self.delta.pending_len()
    }

    /// Whether pending inserts are overlaid on the base right now.
    pub fn delta_active(&self) -> bool {
        self.layers().1.is_some_and(|g| g.num_edges() > 0)
    }

    /// The current base graph (changes identity on merge).
    pub fn base(&self) -> &Arc<Graph> {
        self.base.source()
    }

    /// A borrowed view of this version for the engine drivers, encoding
    /// whatever structures of it no earlier read did, on `pool`.
    pub fn view(&self, pool: &ThreadPool) -> GraphView<'_> {
        let (graph, delta_graph) = self.layers();
        GraphView {
            graph,
            pg: prepared(&self.base, pool),
            delta_graph,
            delta_pg: self.delta_graph.as_ref().map(|d| &**prepared(d, pool)),
            out_degrees: &self.out_deg,
            in_degrees: &self.in_deg,
        }
    }

    /// The base graph and the insert overlay, if any: CSR/CSC only, so
    /// this never encodes.
    pub fn layers(&self) -> (&Graph, Option<&Graph>) {
        let overlay = self.delta_graph.as_ref().map(|d| &**d.source());
        (self.base(), overlay)
    }

    /// Wall time, in ns, of the Vector-Sparse encodes this version's layers
    /// and their push structures ran so far ([`OnDemand::build_ns`]).
    pub fn encode_ns(&self) -> u64 {
        std::iter::once(&self.base)
            .chain(&self.delta_graph)
            .map(|l| l.build_ns() + l.get().map_or(0, |pg| pg.vss.encode_ns()))
            .sum()
    }

    /// This version's component memo, while the version is undirected: a
    /// symmetric base ([`Graph::is_symmetric`]) and no active overlay.
    /// `None` otherwise, so nothing records or answers from it then.
    pub fn components(&mut self) -> Option<&mut ComponentMemo> {
        (self.base().is_symmetric() && !self.delta_active()).then_some(&mut self.components)
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
        let record = self.delta.record(self.base.source(), batch)?;
        // A new version: what the old one's traversals found says nothing
        // about it.
        self.components = ComponentMemo::default();
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
            merge_ns: 0,
        };
        if !self.delta.tombstones().is_empty()
            || self.delta.pending_len() as f64
                > self.merge_fraction * self.base().num_edges() as f64
        {
            let t = Instant::now();
            self.merge(pool)?;
            report.merged = true;
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
                let old = match self.layers().1 {
                    Some(g) => g,
                    None => {
                        empty = Graph::from_edgelist(&EdgeList::new(self.num_vertices()))?;
                        &empty
                    }
                };
                let edges = old.num_edges() + fresh.len();
                let pool = build_pool(pool, edges, PAR_BUILD_CUTOVER_EDGES);
                let overlay = old.with_edits(&fresh, &[], pool)?;
                self.delta_graph = Some(layer(overlay));
            }
        }
        Ok(report)
    }

    /// Splices every pending insert and tombstone into the base, then
    /// clears the delta. The logical edge set is unchanged.
    fn merge(&mut self, pool: &ThreadPool) -> Result<(), GraphError> {
        let g = self.base().with_edits(
            &self.delta.sorted_pending(),
            &self.delta.sorted_tombstones(),
            Some(pool),
        )?;
        self.base = layer(g);
        self.delta.clear();
        self.delta_graph = None;
        // Degrees were maintained incrementally and the merge changes no
        // logical edge — but re-derive from the spliced CSRs so a drift bug
        // cannot outlive a merge.
        self.out_deg = self.base().out_csr().degrees();
        self.in_deg = self.base().in_csr().degrees();
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
        (VersionedGraph::from_graph(g), ThreadPool::single_group(2))
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
        let view = vg.view(&pool);
        let overlay = MinLabel::new(16);
        run_program_overlay_on_pool(view.pg, view.delta_pg, &overlay, &cfg, &pool);

        let merged = vg
            .base()
            .with_edits(&vg.delta.sorted_pending(), &[], Some(&pool))
            .unwrap();
        let mpg = PreparedGraph::new(&merged);
        let cold = MinLabel::new(16);
        run_program_overlay_on_pool(&mpg, None, &cold, &cfg, &pool);

        assert_eq!(overlay.labels.to_vec_f64(), cold.labels.to_vec_f64());
        assert!(overlay.labels.to_vec_f64().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn deletes_merge_at_once_and_leave_no_overlay() {
        let (mut vg, pool) = vg_over(ring(8));
        let report = vg
            .apply_batch(UpdateBatch::new().delete(0, 1).insert(2, 5), &pool)
            .unwrap();
        assert!(report.merged);
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
        assert!(!vgt.delta_active());
        assert_eq!(vgt.num_edges(), 18);
        assert!(vgt.base().out_neighbors(0).contains(&2));
    }

    #[test]
    fn degrees_track_the_merged_view() {
        let (mut vg, pool) = vg_over(ring(8));
        assert_eq!(vg.view(&pool).out_degrees[0], 2);
        vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 4), (5, 0)]), &pool)
            .unwrap();
        let view = vg.view(&pool);
        assert_eq!(view.out_degrees[0], 3);
        assert_eq!(view.in_degrees[0], 3);
        assert_eq!(view.in_degrees[4], 3);
        let overlay = view.delta_graph.expect("the inserts wait in the overlay");
        assert_eq!(overlay.out_neighbors(0), &[4]);
        assert_eq!(overlay.in_neighbors(4), &[0]);
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

    /// Whether every layer of `vg` holds its Vector-Sparse.
    fn encoded(vg: &VersionedGraph) -> bool {
        std::iter::once(&vg.base)
            .chain(&vg.delta_graph)
            .all(|l| l.get().is_some())
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
            let mut pending = BTreeSet::new();
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
                prop_assert!(report.merged || !lost);
                prop_assert_eq!(vg.version(), version as u64 + 1);
                prop_assert_eq!(vg.num_edges(), logical.len());
                // A splice leaves its layer unencoded until the first read.
                let was = std::mem::replace(&mut pending, logical.difference(&in_base).copied().collect());
                prop_assert_eq!(encoded(&vg), !report.merged && was == pending);
                let view = vg.view(&pool);
                prop_assert!(encoded(&vg));
                let again = vg.view(&pool);
                prop_assert!(std::ptr::eq(view.pg, again.pg), "a second read re-encoded the base");
                prop_assert_eq!(view.delta_pg.map(|d| d as *const _), again.delta_pg.map(|d| d as *const _));
                prop_assert!(is_cold_build(view.graph, view.pg, &in_base));
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
        let before = vg.layers().1.unwrap().out_csr().clone();
        let report = vg
            .apply_batch(UpdateBatch::new().delete(0, 4).insert(0, 4), &pool)
            .unwrap();
        assert!(!report.merged, "the delete was cancelled in the batch");
        assert_eq!(vg.layers().1.unwrap().out_csr(), &before);
        assert_eq!(vg.num_edges(), 18);
        assert_eq!(vg.view(&pool).out_degrees[0], 3);
    }

    /// Two lanes in one component share its label; the memo answers only
    /// on an undirected version and starts empty on every new version.
    #[test]
    fn component_memo_belongs_to_one_undirected_version() {
        // Components {0..3} (a ring) and {4, 5}; 6 is isolated.
        let mut el = EdgeList::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)] {
            el.push(u, v).unwrap();
            el.push(v, u).unwrap();
        }
        let (mut vg, pool) = vg_over(Graph::from_edgelist(&el).unwrap());
        let reach = |roots: &[u32]| -> Vec<u64> {
            let mut masks = vec![0u64; 7];
            for (lane, &r) in roots.iter().enumerate() {
                for v in 0..7u32 {
                    let c = |x: u32| {
                        if x < 4 {
                            0
                        } else if x < 6 {
                            1
                        } else {
                            x
                        }
                    };
                    if c(v) == c(r) {
                        masks[v as usize] |= 1 << lane;
                    }
                }
            }
            masks
        };
        let memo = vg.components().expect("a symmetric base without overlay");
        assert_eq!(memo.reached(2), None);
        assert_eq!(memo.record(&[1, 3, 5], &reach(&[1, 3, 5])), 2);
        assert_eq!(memo.record(&[0, 6], &reach(&[0, 6])), 1, "0 is known");
        let ring: Vec<bool> = (0..7).map(|v| v < 4).collect();
        assert_eq!(memo.reached(2), Some(ring.clone()));
        assert_eq!(memo.reached(0), Some(ring));
        assert_eq!(memo.reached(6), Some((0..7).map(|v| v == 6).collect()));
        assert_eq!(memo.component(4), memo.component(5));
        assert_ne!(memo.component(4), memo.component(0));

        vg.apply_batch(&UpdateBatch::from_inserts(&[(6, 0)]), &pool)
            .unwrap();
        assert!(vg.components().is_none(), "an overlay is active");
        vg.apply_batch(UpdateBatch::new().delete(6, 0), &pool)
            .unwrap();
        let memo = vg.components().expect("the merge left the ring symmetric");
        assert_eq!(memo.component(0), None, "a new version starts empty");

        let (mut directed, _) =
            vg_over(Graph::from_edgelist(&EdgeList::from_pairs(3, &[(0, 1)]).unwrap()).unwrap());
        assert!(directed.components().is_none());
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let (mut vg, pool) = vg_over(ring(4));
        let before = vg.view(&pool).out_degrees.to_vec();
        let err = vg.apply_batch(&UpdateBatch::from_inserts(&[(0, 9)]), &pool);
        assert!(err.is_err());
        assert_eq!(vg.version(), 0);
        assert_eq!(vg.view(&pool).out_degrees, &before[..]);
        assert!(!vg.delta_active());
    }
}
