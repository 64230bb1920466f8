//! Append-only delta segments over an immutable base graph.
//!
//! The Grazelle structures ([`Csr`](crate::csr::Csr), Vector-Sparse) are
//! built once and never mutated — every read path depends on that. Updates
//! therefore live *beside* the base: an [`UpdateBatch`] describes one round
//! of edge inserts and deletes, and [`DeltaSegments`] accumulates batches as
//! a set of pending inserts plus a tombstone set for deleted edges.
//! The engines consume the pending inserts as a second (small) prepared
//! graph overlaid on the base; tombstones cannot be overlaid (a pull or push
//! phase has no cheap per-edge filter), so deletions force a merge — a new
//! base spliced from the old one by [`Graph::with_edits`] with the sorted
//! views [`DeltaSegments::sorted_pending`] and
//! [`DeltaSegments::sorted_tombstones`].
//!
//! This module is pure structure: it knows nothing about prepared graphs or
//! engines. The versioned handle that owns the base/delta pair and decides
//! when to merge lives in `grazelle-core`.

use crate::graph::Graph;
use crate::types::{GraphError, VertexId};
use std::collections::HashSet;

/// One round of edge updates, applied atomically: all inserts and deletes
/// in a batch become visible at a single new version.
///
/// Batches are unweighted — weighted graphs keep their static build path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// A batch of inserts only — the common streaming case.
    pub fn from_inserts(edges: &[(VertexId, VertexId)]) -> Self {
        UpdateBatch {
            inserts: edges.to_vec(),
            deletes: Vec::new(),
        }
    }

    /// Queues an edge insertion.
    pub fn insert(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.inserts.push((src, dst));
        self
    }

    /// Queues an edge deletion.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.deletes.push((src, dst));
        self
    }

    /// Queued insertions, in submission order.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// Queued deletions, in submission order.
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Whether the batch carries no updates at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total queued updates (inserts + deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// What one [`DeltaSegments::record`] call actually changed, after
/// deduplication against the base and the pending segments. Carries the
/// effective edges themselves: incremental result maintenance seeds its
/// frontier from exactly these endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Inserts that took effect (absent from base and pending).
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Deletes that took effect (present in base or pending).
    pub deleted: Vec<(VertexId, VertexId)>,
    /// Updates ignored as no-ops (duplicate inserts, deletes of absent
    /// edges).
    pub ignored: usize,
}

/// Accumulated, versioned edge updates over one immutable base graph.
///
/// Inserts join the pending set; deletes become tombstones. A tombstone
/// names every copy of a matching base edge; a deleted pending insert
/// simply leaves the pending set (it is tombstoned too, which a merge
/// treats as the no-op delete of an edge the base lacks). The structure
/// never mutates the base — a merge hands the two sorted views to
/// [`Graph::with_edits`].
#[derive(Debug, Clone)]
pub struct DeltaSegments {
    num_vertices: usize,
    /// Deleted edges, deduplicated, in deletion order.
    tombstones: Vec<(VertexId, VertexId)>,
    /// The pending inserts: absent from the base, each once.
    pending_set: HashSet<(VertexId, VertexId)>,
    /// Fast membership for tombstones (mirrors `tombstones`).
    tombstone_set: HashSet<(VertexId, VertexId)>,
    /// Monotone version counter: one tick per recorded batch.
    version: u64,
}

impl DeltaSegments {
    /// Empty delta over a graph with `num_vertices` vertices, at version 0.
    pub fn new(num_vertices: usize) -> Self {
        DeltaSegments {
            num_vertices,
            tombstones: Vec::new(),
            pending_set: HashSet::new(),
            tombstone_set: HashSet::new(),
            version: 0,
        }
    }

    /// Current version: the number of batches recorded since creation (or
    /// since the seed version passed to [`set_version`](Self::set_version)).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Re-seeds the version counter (used when replaying persisted deltas
    /// so the restored handle reports the pre-crash version).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Vertex-set size the delta validates endpoints against.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Pending (not yet merged) inserted edges, sorted by `(src, dst)` —
    /// the insert side of a merge, and what the overlay holds.
    pub fn sorted_pending(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<_> = self.pending_set.iter().copied().collect();
        edges.sort_unstable();
        edges
    }

    /// Number of pending inserted edges.
    pub fn pending_len(&self) -> usize {
        self.pending_set.len()
    }

    /// Pending tombstones (deleted edges awaiting a merge).
    pub fn tombstones(&self) -> &[(VertexId, VertexId)] {
        &self.tombstones
    }

    /// [`tombstones`](Self::tombstones) sorted by `(src, dst)` — the delete
    /// side of a merge.
    pub fn sorted_tombstones(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = self.tombstones.clone();
        edges.sort_unstable();
        edges
    }

    /// Whether nothing is pending (no inserts, no tombstones).
    pub fn is_empty(&self) -> bool {
        self.pending_set.is_empty() && self.tombstones.is_empty()
    }

    /// Records one batch against `base`, deduplicating: an insert is a no-op
    /// when the edge already exists (in the base and not tombstoned, or
    /// pending); a delete is a no-op when it does not. Deleting a
    /// pending insert tombstones it; re-inserting a tombstoned base edge
    /// clears the tombstone. Every endpoint must be `< num_vertices` and the
    /// base must be unweighted — violations reject the whole batch before
    /// anything is recorded.
    pub fn record(&mut self, base: &Graph, batch: &UpdateBatch) -> Result<DeltaRecord, GraphError> {
        if base.is_weighted() {
            return Err(GraphError::Io(
                "delta updates require an unweighted base graph".into(),
            ));
        }
        debug_assert_eq!(base.num_vertices(), self.num_vertices);
        for &(u, v) in batch.inserts().iter().chain(batch.deletes()) {
            if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.max(v) as u64,
                    num_vertices: self.num_vertices as u64,
                });
            }
        }

        let in_base =
            |e: &(VertexId, VertexId)| base.out_neighbors(e.0).binary_search(&e.1).is_ok();
        let mut rec = DeltaRecord::default();
        // Deletes first: a delete+insert of the same edge within one batch
        // nets out to the edge being present, matching submission order for
        // the common "replace" idiom.
        for e in batch.deletes() {
            if self.pending_set.remove(e) {
                // Deleting a not-yet-merged insert: it leaves the pending
                // set, and its tombstone forces the merge.
                self.tombstone_set.insert(*e);
                self.tombstones.push(*e);
                rec.deleted.push(*e);
            } else if in_base(e) && self.tombstone_set.insert(*e) {
                self.tombstones.push(*e);
                rec.deleted.push(*e);
            } else {
                rec.ignored += 1;
            }
        }
        for e in batch.inserts() {
            if self.tombstone_set.remove(e) {
                // Re-insert of a tombstoned edge: clear the tombstone, and
                // a pending insert is pending again.
                self.tombstones.retain(|t| t != e);
                if !in_base(e) {
                    self.pending_set.insert(*e);
                }
                rec.inserted.push(*e);
            } else if in_base(e) || !self.pending_set.insert(*e) {
                rec.ignored += 1;
            } else {
                rec.inserted.push(*e);
            }
        }
        self.version += 1;
        Ok(rec)
    }

    /// Drops all pending inserts and tombstones after a merge; the version
    /// counter keeps running.
    pub fn clear(&mut self) {
        self.tombstones.clear();
        self.pending_set.clear();
        self.tombstone_set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use grazelle_sched::ThreadPool;

    fn base() -> Graph {
        let el = EdgeList::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]).unwrap();
        Graph::from_edgelist(&el).unwrap()
    }

    /// The base a merge of `d` into `g` would produce.
    fn merged(d: &DeltaSegments, g: &Graph) -> Graph {
        let pool = ThreadPool::single_group(2);
        g.with_edits(&d.sorted_pending(), &d.sorted_tombstones(), &pool)
            .unwrap()
    }

    /// `g`'s edges in `(src, dst)` order.
    fn edges(g: &Graph) -> Vec<(VertexId, VertexId)> {
        g.out_csr().iter_edges().map(|(s, d, _)| (s, d)).collect()
    }

    #[test]
    fn inserts_dedup_against_base_and_pending() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        let rec = d
            .record(
                &g,
                UpdateBatch::new()
                    .insert(0, 2)
                    .insert(0, 1) // already in base
                    .insert(0, 2), // duplicate within the batch
            )
            .unwrap();
        assert_eq!(rec.inserted.len(), 1);
        assert_eq!(rec.ignored, 2);
        assert_eq!(d.pending_len(), 1);
        assert_eq!(d.version(), 1);
        // Second batch re-inserting the same edge is a no-op too.
        let rec = d.record(&g, &UpdateBatch::from_inserts(&[(0, 2)])).unwrap();
        assert_eq!(rec.inserted.len(), 0);
        assert_eq!(rec.ignored, 1);
        assert_eq!(d.version(), 2);
    }

    #[test]
    fn deletes_tombstone_base_edges_and_pending_inserts() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        d.record(&g, &UpdateBatch::from_inserts(&[(3, 4)])).unwrap();
        let rec = d
            .record(
                &g,
                UpdateBatch::new()
                    .delete(0, 1) // base edge
                    .delete(3, 4) // pending insert
                    .delete(5, 0), // absent
            )
            .unwrap();
        assert_eq!(rec.deleted.len(), 2);
        assert_eq!(rec.ignored, 1);
        assert_eq!(edges(&merged(&d, &g)), vec![(1, 2), (2, 3), (4, 5)]);
        // The overlay must be empty: the one pending insert died.
        assert!(d.sorted_pending().is_empty());
        assert_eq!(d.sorted_tombstones(), vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn reinsert_clears_a_tombstone() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        d.record(&g, UpdateBatch::new().delete(0, 1)).unwrap();
        assert_eq!(d.tombstones().len(), 1);
        let rec = d.record(&g, &UpdateBatch::from_inserts(&[(0, 1)])).unwrap();
        assert_eq!(rec.inserted.len(), 1);
        assert!(d.tombstones().is_empty());
        assert!(d.sorted_pending().is_empty(), "a base edge is not pending");
        assert_eq!(edges(&merged(&d, &g)), vec![(0, 1), (1, 2), (2, 3), (4, 5)]);
    }

    #[test]
    fn delete_then_insert_in_one_batch_leaves_edge_present() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        d.record(&g, UpdateBatch::new().delete(0, 1).insert(0, 1))
            .unwrap();
        assert_eq!(edges(&merged(&d, &g)), vec![(0, 1), (1, 2), (2, 3), (4, 5)]);
    }

    #[test]
    fn out_of_range_endpoint_rejects_the_whole_batch() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        let err = d.record(&g, UpdateBatch::new().insert(0, 3).insert(0, 6));
        assert!(matches!(err, Err(GraphError::VertexOutOfRange { .. })));
        assert_eq!(d.pending_len(), 0, "nothing recorded on rejection");
        assert_eq!(d.version(), 0);
    }

    #[test]
    fn weighted_base_is_rejected() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 2.5).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let mut d = DeltaSegments::new(3);
        assert!(d.record(&g, &UpdateBatch::from_inserts(&[(1, 2)])).is_err());
    }

    #[test]
    fn sorted_views_splice_into_a_new_base() {
        let g = base();
        let mut d = DeltaSegments::new(6);
        d.record(
            &g,
            UpdateBatch::new().insert(5, 0).insert(0, 4).delete(2, 3),
        )
        .unwrap();
        assert_eq!(d.sorted_pending(), vec![(0, 4), (5, 0)]);
        let merged = merged(&d, &g);
        assert_eq!(
            merged.out_csr(),
            Graph::from_edgelist(
                &EdgeList::from_pairs(6, &[(0, 1), (0, 4), (1, 2), (4, 5), (5, 0)]).unwrap()
            )
            .unwrap()
            .out_csr()
        );
        assert_eq!(merged.num_edges(), 5);
        assert_eq!(merged.out_neighbors(5), &[0]);
        assert_eq!(merged.out_neighbors(2), &[] as &[VertexId]);
        // And the delta can keep recording against the new base once
        // cleared — the merge handshake the versioned handle performs.
        d.clear();
        assert!(d.is_empty());
        let rec = d
            .record(&merged, &UpdateBatch::from_inserts(&[(2, 3)]))
            .unwrap();
        assert_eq!(rec.inserted.len(), 1);
    }
}
