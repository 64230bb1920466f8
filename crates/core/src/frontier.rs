//! The dense bit-mask frontier (paper §5, "Frontier Tracking").
//!
//! "Grazelle represents the frontier densely as a bit-mask containing one
//! bit per vertex indexed by vertex identifier. … 1 billion vertices would
//! only require 125 MB, and the `tzcnt` instruction enables searching
//! through 64 vertices with just a single instruction."
//!
//! [`DenseBitmap`] is that structure: one `AtomicU64` per 64 vertices, set
//! with relaxed RMWs during the Vertex phase, scanned with
//! `u64::trailing_zeros` (which compiles to `tzcnt`) during the Edge phase.
//! [`Frontier`] adds the *all-active* fast path used by applications like
//! PageRank that cannot use a frontier at all. [`BucketQueue`] holds back
//! the active vertices a priority-ordered run (DESIGN.md §18) has not
//! reached yet.

use grazelle_graph::types::VertexId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity atomic bit set over vertex identifiers.
pub struct DenseBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl DenseBitmap {
    /// An empty bitmap over `len` vertices.
    pub fn new(len: usize) -> Self {
        DenseBitmap {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Capacity in vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let v = v as usize;
        debug_assert!(v < self.len);
        // ATOMIC: relaxed-cell — membership test; bit published across
        // phases by the barrier, not by this load
        self.words[v >> 6].load(Ordering::Relaxed) & (1 << (v & 63)) != 0
    }

    /// Inserts `v` (atomic; callable concurrently from the Vertex phase).
    #[inline]
    pub fn insert(&self, v: VertexId) {
        let v = v as usize;
        debug_assert!(v < self.len);
        // ATOMIC: relaxed-reduce — concurrent bit-set; RMW atomicity only
        self.words[v >> 6].fetch_or(1 << (v & 63), Ordering::Relaxed);
    }

    /// Removes `v`.
    #[inline]
    pub fn remove(&self, v: VertexId) {
        let v = v as usize;
        debug_assert!(v < self.len);
        // ATOMIC: relaxed-reduce — concurrent bit-clear; RMW atomicity only
        self.words[v >> 6].fetch_and(!(1 << (v & 63)), Ordering::Relaxed);
    }

    /// Clears all bits.
    pub fn clear(&self) {
        for w in &self.words {
            // ATOMIC: relaxed-cell — bulk clear under exclusive phase access
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Sets all bits (tail bits beyond `len` stay clear so counts stay
    /// exact).
    pub fn set_all(&self) {
        let full_words = self.len / 64;
        for w in &self.words[..full_words] {
            // ATOMIC: relaxed-cell — bulk fill under exclusive phase access
            w.store(u64::MAX, Ordering::Relaxed);
        }
        let tail = self.len % 64;
        if tail > 0 {
            // ATOMIC: relaxed-cell — bulk fill under exclusive phase access
            self.words[full_words].store((1u64 << tail) - 1, Ordering::Relaxed);
        }
    }

    /// Number of set bits (popcount scan).
    pub fn count(&self) -> usize {
        self.words
            .iter()
            // ATOMIC: relaxed-cell — popcount snapshot between phases
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates set bits in ascending order using trailing-zero scans — the
    /// paper's `tzcnt` search, 64 vertices per word test.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            // ATOMIC: relaxed-cell — word snapshot; scan runs between phases
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((wi * 64 + tz as usize) as VertexId)
                }
            })
        })
    }

    /// Word-granular view for group-partitioned scans.
    pub fn words(&self) -> &[AtomicU64] {
        &self.words
    }

    /// Copies `other` into `self` (same capacity required).
    pub fn copy_from(&self, other: &DenseBitmap) {
        assert_eq!(self.len, other.len);
        for (d, s) in self.words.iter().zip(&other.words) {
            // ATOMIC: relaxed-cell — copy under exclusive phase access
            d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for DenseBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseBitmap(len={}, count={})", self.len, self.count())
    }
}

/// A frontier: every vertex (PageRank-style, no tracking possible), a dense
/// bit-mask subset, or a sparse sorted vertex list.
///
/// The sparse representation is the paper's stated future work ("other
/// engines support dynamically switching between sparse and dense
/// representations for frontiers … we quantify the impact of this
/// implementation issue in §6.3 but otherwise leave it to future work",
/// §5) — implemented here because Figure 13 shows it is exactly what BFS
/// needs. The hybrid driver switches representations per iteration based
/// on occupancy (see [`crate::config::EngineConfig::sparse_threshold`]).
pub enum Frontier {
    /// Every vertex is active.
    All { len: usize },
    /// The bit-mask subset.
    Dense(DenseBitmap),
    /// A sorted list of the active vertices (near-empty frontiers).
    Sparse {
        /// Total vertex count the frontier ranges over.
        len: usize,
        /// Active vertices, strictly ascending.
        vertices: Vec<VertexId>,
    },
}

impl Frontier {
    /// All-active frontier over `len` vertices.
    pub fn all(len: usize) -> Self {
        Frontier::All { len }
    }

    /// Empty dense frontier over `len` vertices.
    pub fn empty(len: usize) -> Self {
        Frontier::Dense(DenseBitmap::new(len))
    }

    /// Dense frontier containing exactly `vs`.
    pub fn from_vertices(len: usize, vs: &[VertexId]) -> Self {
        // Built in plain words: nobody shares the bitmap yet, so the
        // per-vertex atomic RMW of `insert` would buy nothing.
        let mut words = vec![0u64; len.div_ceil(64)];
        for &v in vs {
            assert!((v as usize) < len, "vertex {v} out of range");
            words[v as usize >> 6] |= 1 << (v & 63);
        }
        Frontier::Dense(DenseBitmap {
            words: words.into_iter().map(AtomicU64::new).collect(),
            len,
        })
    }

    /// Sparse frontier containing exactly `vs` (deduplicated and sorted).
    pub fn sparse(len: usize, vs: &[VertexId]) -> Self {
        let mut vertices = vs.to_vec();
        vertices.sort_unstable();
        vertices.dedup();
        if let Some(&max) = vertices.last() {
            assert!((max as usize) < len, "vertex {max} out of range");
        }
        Frontier::Sparse { len, vertices }
    }

    /// Converts a dense bitmap frontier into the sparse list representation
    /// (used by the driver when occupancy drops below the threshold).
    pub fn to_sparse(self) -> Frontier {
        match self {
            Frontier::Dense(bm) => Frontier::Sparse {
                len: bm.len(),
                vertices: bm.iter().collect(),
            },
            other => other,
        }
    }

    /// Capacity in vertices.
    pub fn len(&self) -> usize {
        match self {
            Frontier::All { len } => *len,
            Frontier::Dense(bm) => bm.len(),
            Frontier::Sparse { len, .. } => *len,
        }
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test. O(1) for All/Dense, O(log |F|) for Sparse — which
    /// is why the pull engine (per-lane membership checks) only ever sees
    /// All or Dense frontiers from the driver.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            Frontier::All { .. } => true,
            Frontier::Dense(bm) => bm.contains(v),
            Frontier::Sparse { vertices, .. } => vertices.binary_search(&v).is_ok(),
        }
    }

    /// Number of active vertices.
    pub fn count(&self) -> usize {
        match self {
            Frontier::All { len } => *len,
            Frontier::Dense(bm) => bm.count(),
            Frontier::Sparse { vertices, .. } => vertices.len(),
        }
    }

    /// The sparse vertex list, if this frontier is sparse.
    pub fn as_sparse(&self) -> Option<&[VertexId]> {
        match self {
            Frontier::Sparse { vertices, .. } => Some(vertices),
            _ => None,
        }
    }

    /// Active fraction (the engine-selection signal for hybrid frameworks).
    pub fn density(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count() as f64 / self.len() as f64
        }
    }

    /// True for the all-active fast path.
    pub fn is_all(&self) -> bool {
        matches!(self, Frontier::All { .. })
    }

    /// The dense bitmap, if this frontier is dense.
    pub fn as_dense(&self) -> Option<&DenseBitmap> {
        match self {
            Frontier::Dense(bm) => Some(bm),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Frontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frontier::All { len } => write!(f, "Frontier::All(len={len})"),
            Frontier::Dense(bm) => write!(f, "Frontier::{bm:?}"),
            Frontier::Sparse { len, vertices } => {
                write!(f, "Frontier::Sparse(len={len}, count={})", vertices.len())
            }
        }
    }
}

/// The pending active vertices of a priority-ordered run, binned by
/// `⌊priority / width⌋` (Δ-stepping's buckets; DESIGN.md §18). The driver
/// files every Vertex phase's activations here and starts the next
/// superstep from the lowest non-empty bucket only.
///
/// Invariant: a pending vertex sits in the bucket of the priority it was
/// last filed with. `slot` is the authority; a bucket's list may still hold
/// an entry for a vertex that has since been re-filed elsewhere, which
/// [`drain_lowest`](Self::drain_lowest) drops when it gets there. Contents
/// depend only on the sequence of `file` calls, never on thread counts.
#[derive(Debug)]
pub struct BucketQueue {
    width: f64,
    /// Bucket each vertex is pending in ([`Self::IDLE`] = not pending).
    slot: Vec<u32>,
    /// Entries per bucket in filing order; no vertex is listed twice in one
    /// bucket while it is pending there.
    buckets: BTreeMap<u32, Vec<VertexId>>,
    pending: usize,
    /// Index of the bucket drained last (0 before the first drain).
    last_drained: u32,
}

impl BucketQueue {
    const IDLE: u32 = u32::MAX;

    /// An empty queue over `num_vertices` vertices with buckets `width`
    /// wide; `width` must be positive and finite.
    pub fn new(num_vertices: usize, width: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "bucket width must be positive and finite, got {width}"
        );
        BucketQueue {
            width,
            slot: vec![Self::IDLE; num_vertices],
            buckets: BTreeMap::new(),
            pending: 0,
            last_drained: 0,
        }
    }

    /// The bucket a priority falls in. Negative and NaN priorities land in
    /// bucket 0 and everything from `(u32::MAX − 1) · width` up shares the
    /// last bucket: order inside a bucket is not relied on, so a saturated
    /// index costs re-relaxations, never correctness.
    pub fn bucket_of(&self, priority: f64) -> u32 {
        // `as` saturates (and maps NaN to 0); `IDLE` stays reserved.
        ((priority / self.width) as u32).min(Self::IDLE - 1)
    }

    /// Makes `v` pending at `priority`, moving it if it was pending in
    /// another bucket and doing nothing if it already sits in the right one.
    pub fn file(&mut self, v: VertexId, priority: f64) {
        let bucket = self.bucket_of(priority);
        let slot = &mut self.slot[v as usize];
        if *slot == bucket {
            return;
        }
        if *slot == Self::IDLE {
            self.pending += 1;
        }
        *slot = bucket;
        self.buckets.entry(bucket).or_default().push(v);
    }

    /// [`file`](Self::file) for every vertex of `activated`, in ascending
    /// order, at `priority(v)`.
    pub fn file_all(&mut self, activated: &Frontier, priority: impl Fn(VertexId) -> f64) {
        match activated {
            Frontier::All { len } => (0..*len as VertexId).for_each(|v| self.file(v, priority(v))),
            Frontier::Dense(bm) => bm.iter().for_each(|v| self.file(v, priority(v))),
            Frontier::Sparse { vertices, .. } => {
                vertices.iter().for_each(|&v| self.file(v, priority(v)))
            }
        }
    }

    /// Vertices filed and not yet drained.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The bucket the last non-empty [`drain_lowest`](Self::drain_lowest)
    /// emptied; 0 before the first.
    pub fn last_drained(&self) -> u32 {
        self.last_drained
    }

    /// Removes the lowest bucket that still holds a pending vertex and
    /// returns its vertices in ascending order; `None` when nothing is
    /// pending. A drained vertex filed again — even into the same bucket —
    /// is pending again.
    pub fn drain_lowest(&mut self) -> Option<Vec<VertexId>> {
        while let Some((bucket, mut vertices)) = self.buckets.pop_first() {
            vertices.retain(|&v| {
                let slot = &mut self.slot[v as usize];
                let live = *slot == bucket;
                if live {
                    *slot = Self::IDLE;
                }
                live
            });
            if !vertices.is_empty() {
                self.pending -= vertices.len();
                self.last_drained = bucket;
                vertices.sort_unstable();
                return Some(vertices);
            }
        }
        debug_assert_eq!(self.pending, 0, "a pending vertex is in no bucket");
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let bm = DenseBitmap::new(130);
        assert!(!bm.contains(0));
        bm.insert(0);
        bm.insert(63);
        bm.insert(64);
        bm.insert(129);
        assert!(bm.contains(0) && bm.contains(63) && bm.contains(64) && bm.contains(129));
        assert_eq!(bm.count(), 4);
        bm.remove(64);
        assert!(!bm.contains(64));
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let bm = DenseBitmap::new(200);
        let vs = [5u32, 0, 199, 64, 63, 100];
        for &v in &vs {
            bm.insert(v);
        }
        let got: Vec<_> = bm.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 100, 199]);
    }

    #[test]
    fn set_all_respects_capacity() {
        let bm = DenseBitmap::new(70);
        bm.set_all();
        assert_eq!(bm.count(), 70);
        assert_eq!(bm.iter().count(), 70);
        bm.clear();
        assert_eq!(bm.count(), 0);
    }

    #[test]
    fn set_all_on_word_boundary() {
        let bm = DenseBitmap::new(128);
        bm.set_all();
        assert_eq!(bm.count(), 128);
    }

    #[test]
    fn copy_from() {
        let a = DenseBitmap::new(100);
        a.insert(3);
        a.insert(99);
        let b = DenseBitmap::new(100);
        b.insert(50);
        b.copy_from(&a);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 99]);
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let bm = std::sync::Arc::new(DenseBitmap::new(4096));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let bm = std::sync::Arc::clone(&bm);
                std::thread::spawn(move || {
                    for v in (t..4096).step_by(4) {
                        bm.insert(v as VertexId);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bm.count(), 4096);
    }

    #[test]
    fn frontier_all_fast_path() {
        let f = Frontier::all(10);
        assert!(f.is_all());
        assert!(f.contains(7));
        assert_eq!(f.count(), 10);
        assert_eq!(f.density(), 1.0);
        assert!(f.as_dense().is_none());
    }

    #[test]
    fn frontier_from_vertices() {
        let f = Frontier::from_vertices(100, &[1, 2, 3]);
        assert_eq!(f.count(), 3);
        assert!((f.density() - 0.03).abs() < 1e-12);
        assert!(f.contains(2));
        assert!(!f.contains(4));
        assert!(!f.is_all());
    }

    #[test]
    fn empty_frontier() {
        let f = Frontier::empty(10);
        assert_eq!(f.count(), 0);
        assert_eq!(f.density(), 0.0);
    }

    #[test]
    fn sparse_frontier_semantics() {
        let f = Frontier::sparse(100, &[7, 3, 7, 99]);
        assert_eq!(f.count(), 3);
        assert_eq!(f.as_sparse().unwrap(), &[3, 7, 99]);
        assert!(f.contains(3) && f.contains(7) && f.contains(99));
        assert!(!f.contains(4));
        assert!(!f.is_all());
        assert!(f.as_dense().is_none());
    }

    #[test]
    fn dense_to_sparse_conversion() {
        let f = Frontier::from_vertices(200, &[0, 64, 150]);
        let s = f.to_sparse();
        assert_eq!(s.as_sparse().unwrap(), &[0, 64, 150]);
        assert_eq!(s.len(), 200);
        // All and Sparse pass through unchanged.
        assert!(Frontier::all(5).to_sparse().is_all());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_out_of_range_rejected() {
        Frontier::sparse(5, &[5]);
    }

    #[test]
    fn bucket_queue_drains_lowest_first_in_ascending_order() {
        let mut q = BucketQueue::new(10, 2.0);
        assert_eq!(q.drain_lowest(), None, "nothing filed, nothing to run");
        for (v, p) in [(7, 5.5), (3, 0.5), (9, 1.9), (1, 4.0), (0, 0.0)] {
            q.file(v, p);
        }
        assert_eq!(q.pending(), 5);
        assert_eq!(
            (q.drain_lowest(), q.last_drained()),
            (Some(vec![0, 3, 9]), 0)
        );
        assert_eq!(q.pending(), 2);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![1, 7]), 2));
        assert_eq!((q.pending(), q.drain_lowest()), (0, None));
    }

    #[test]
    fn bucket_queue_files_a_vertex_once_per_bucket() {
        let mut q = BucketQueue::new(4, 1.0);
        q.file(2, 3.9);
        q.file(2, 3.1); // improved, same bucket
        q.file(2, 3.1);
        assert_eq!(q.pending(), 1);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![2]), 3));
        assert_eq!(q.drain_lowest(), None);
    }

    #[test]
    fn bucket_queue_drops_the_entry_a_vertex_left_behind() {
        let mut q = BucketQueue::new(4, 1.0);
        q.file(1, 5.5);
        q.file(3, 5.0);
        q.file(1, 2.5); // improved into an earlier bucket
        assert_eq!(q.pending(), 2, "moving is not a second activation");
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![1]), 2));
        assert_eq!(
            (q.drain_lowest(), q.last_drained()),
            (Some(vec![3]), 5),
            "stale 1 dropped"
        );
        // A bucket holding nothing but stale entries is skipped, not
        // returned empty.
        q.file(0, 9.0);
        q.file(0, 1.0);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![0]), 1));
        assert_eq!((q.pending(), q.drain_lowest()), (0, None));
        // There and back again: two entries in bucket 7, one vertex.
        q.file(2, 7.0);
        q.file(2, 4.0);
        q.file(2, 7.5);
        assert_eq!(q.pending(), 1);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![2]), 7));
        assert_eq!(q.drain_lowest(), None);
    }

    #[test]
    fn bucket_queue_refiles_into_the_bucket_just_drained() {
        let mut q = BucketQueue::new(4, 4.0);
        q.file(0, 0.0);
        q.file(1, 5.0);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![0]), 0));
        // Sending 0 improved 2 and, through a zero-weight cycle, 0 itself.
        q.file(2, 1.0);
        q.file(0, 0.0);
        assert_eq!(q.pending(), 3);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![0, 2]), 0));
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![1]), 1));
    }

    #[test]
    fn bucket_queue_index_saturates() {
        let mut q = BucketQueue::new(5, 1e-300);
        assert_eq!(q.bucket_of(-1.0), 0);
        assert_eq!(q.bucket_of(f64::NAN), 0);
        let top = q.bucket_of(f64::INFINITY);
        assert_eq!(top, u32::MAX - 1, "the idle mark stays out of reach");
        assert_eq!(q.bucket_of(1.0), top);
        q.file(4, 1.0);
        q.file(2, f64::MAX);
        q.file(3, 0.0);
        assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![3]), 0));
        assert_eq!(
            (q.drain_lowest(), q.last_drained()),
            (Some(vec![2, 4]), top)
        );
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn bucket_queue_rejects_a_zero_width() {
        BucketQueue::new(3, 0.0);
    }

    #[test]
    fn bucket_queue_files_every_frontier_representation_alike() {
        let list = [1u32, 4, 6];
        for frontier in [
            Frontier::from_vertices(8, &list),
            Frontier::sparse(8, &list),
        ] {
            let mut q = BucketQueue::new(8, 10.0);
            q.file_all(&frontier, |v| v as f64 * 3.0);
            assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![1]), 0));
            assert_eq!((q.drain_lowest(), q.last_drained()), (Some(vec![4, 6]), 1));
        }
        let mut q = BucketQueue::new(3, 1.0);
        q.file_all(&Frontier::all(3), |_| 0.5);
        assert_eq!(
            (q.drain_lowest(), q.last_drained()),
            (Some(vec![0, 1, 2]), 0)
        );
    }

    proptest! {
        /// Whatever is filed comes out exactly once per activation, lowest
        /// bucket first, each drain ascending — against a map-based model.
        #[test]
        fn prop_bucket_queue_matches_a_model(
            ops in proptest::collection::vec((0u32..40, 0u32..12, any::<bool>()), 0..200),
        ) {
            let mut q = BucketQueue::new(40, 1.0);
            let mut model: std::collections::BTreeMap<u32, u32> = Default::default();
            for (v, bucket, drain) in ops {
                q.file(v, bucket as f64 + 0.5);
                model.insert(v, bucket);
                prop_assert_eq!(q.pending(), model.len());
                if drain {
                    let lowest = *model.values().min().unwrap();
                    let want: Vec<u32> =
                        model.iter().filter(|(_, &b)| b == lowest).map(|(&v, _)| v).collect();
                    model.retain(|_, b| *b != lowest);
                    prop_assert_eq!((q.drain_lowest(), q.last_drained()), (Some(want), lowest));
                }
            }
        }

        /// Sparse and dense representations of the same active set agree
        /// on every query the engines issue.
        #[test]
        fn prop_sparse_matches_dense(
            actives in proptest::collection::btree_set(0u32..300, 0..100),
        ) {
            let list: Vec<u32> = actives.iter().copied().collect();
            let dense = Frontier::from_vertices(300, &list);
            let sparse = Frontier::sparse(300, &list);
            prop_assert_eq!(dense.count(), sparse.count());
            prop_assert!((dense.density() - sparse.density()).abs() < 1e-15);
            for v in 0..300u32 {
                prop_assert_eq!(dense.contains(v), sparse.contains(v), "v{}", v);
            }
            // Conversion of the dense form yields the same list.
            let converted = dense.to_sparse();
            prop_assert_eq!(converted.as_sparse().unwrap(), &list[..]);
        }

        #[test]
        fn prop_bitmap_matches_hashset(
            ops in proptest::collection::vec((0u32..500, any::<bool>()), 0..300),
        ) {
            let bm = DenseBitmap::new(500);
            let mut set = std::collections::BTreeSet::new();
            for (v, insert) in ops {
                if insert {
                    bm.insert(v);
                    set.insert(v);
                } else {
                    bm.remove(v);
                    set.remove(&v);
                }
            }
            prop_assert_eq!(bm.count(), set.len());
            prop_assert_eq!(bm.iter().collect::<Vec<_>>(), set.iter().copied().collect::<Vec<_>>());
            for v in 0..500u32 {
                prop_assert_eq!(bm.contains(v), set.contains(&v));
            }
        }
    }
}
