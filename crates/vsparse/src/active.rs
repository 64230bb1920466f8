//! Per-iteration *active vector list*: a compacted view of the Vector-Sparse
//! edge array that covers only the vectors whose top-level vertex is active.
//!
//! The frontier-aware Edge-Pull path (DESIGN.md §11) builds one of these per
//! superstep when the active-destination density is low, then runs the
//! scheduler-aware chunk loop over *compacted positions* `0..total_vectors()`
//! instead of the full `0..num_vectors()` array. Because every range covers
//! whole per-vertex vector runs (`index[v]..index[v + 1]`), any contiguous
//! slice of compacted positions still hands out contiguous destination runs,
//! which is what keeps the §3 exactly-once-write + merge-buffer contract
//! intact over the indirect iteration space.

use core::ops::Range;

/// Sorted, coalesced ranges of real vector indices for the active
/// destinations of one iteration, addressable by compacted position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveVectorList {
    /// Disjoint, ascending ranges into the real vector array. Adjacent
    /// per-vertex runs are coalesced, so consecutive active destinations
    /// usually share one range.
    ranges: Vec<Range<usize>>,
    /// `prefix[i]` is the compacted position of `ranges[i].start`;
    /// `prefix[ranges.len()]` is the total compacted length.
    prefix: Vec<usize>,
    /// How many active destinations contributed at least one vector.
    active_vertices: usize,
}

impl ActiveVectorList {
    /// Builds the list from the per-vertex vector index (`index[v]..index
    /// [v + 1]` is vertex `v`'s run) and the active vertices in ascending
    /// order. Degree-0 vertices occupy zero vectors and are skipped.
    pub fn from_active(index: &[u64], active: impl IntoIterator<Item = u64>) -> Self {
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut prefix = vec![0usize];
        let mut active_vertices = 0usize;
        let mut prev: Option<u64> = None;
        for v in active {
            if let Some(p) = prev {
                assert!(v > p, "active vertices must be strictly ascending");
            }
            prev = Some(v);
            let start = index[v as usize] as usize;
            let end = index[v as usize + 1] as usize;
            if start == end {
                continue;
            }
            active_vertices += 1;
            match ranges.last_mut() {
                Some(last) if last.end == start => last.end = end,
                _ => {
                    ranges.push(start..end);
                    prefix.push(*prefix.last().unwrap());
                }
            }
            let total = prefix.last().unwrap() + (end - start);
            *prefix.last_mut().unwrap() = total;
        }
        Self {
            ranges,
            prefix,
            active_vertices,
        }
    }

    /// Total number of vectors in the compacted iteration space.
    #[inline]
    pub fn total_vectors(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    /// True when no active destination has any in-edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total_vectors() == 0
    }

    /// The coalesced real-index ranges, ascending and disjoint.
    #[inline]
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// How many active destinations contributed at least one vector.
    #[inline]
    pub fn active_vertices(&self) -> usize {
        self.active_vertices
    }

    /// Iterates the real vector indices behind a slice of compacted
    /// positions. `pos` must lie within `0..total_vectors()`.
    pub fn real_indices(&self, pos: Range<usize>) -> RealIndices<'_> {
        let (ri, cur) = self.locate(&pos);
        RealIndices {
            list: self,
            range_idx: ri,
            cur,
            remaining: pos.len(),
        }
    }

    /// The same indices as [`real_indices`](Self::real_indices), as the
    /// maximal contiguous runs they form (ascending, disjoint, non-empty) —
    /// what a chunk-granular kernel walks one slice at a time.
    pub fn real_ranges(&self, pos: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let (first, mut cur) = self.locate(&pos);
        let mut remaining = pos.len();
        self.ranges[first..].iter().map_while(move |r| {
            if remaining == 0 {
                return None;
            }
            let start = cur.max(r.start);
            let end = r.end.min(start + remaining);
            remaining -= end - start;
            cur = 0;
            Some(start..end)
        })
    }

    /// The range holding compacted position `pos.start` and that position's
    /// real index (0 for an empty `pos`). Panics when `pos` is out of bounds.
    fn locate(&self, pos: &Range<usize>) -> (usize, usize) {
        assert!(
            pos.start <= pos.end && pos.end <= self.total_vectors(),
            "compacted position range {pos:?} out of bounds (total {})",
            self.total_vectors()
        );
        // partition_point gives the first prefix entry > pos.start; the
        // range containing pos.start is the one before it.
        let ri = self
            .prefix
            .partition_point(|&p| p <= pos.start)
            .saturating_sub(1);
        let cur = if pos.is_empty() {
            0
        } else {
            self.ranges[ri].start + (pos.start - self.prefix[ri])
        };
        (ri, cur)
    }
}

/// Iterator over real vector indices for a compacted-position slice.
/// Yielded indices are strictly ascending.
#[derive(Debug, Clone)]
pub struct RealIndices<'a> {
    list: &'a ActiveVectorList,
    range_idx: usize,
    cur: usize,
    remaining: usize,
}

impl Iterator for RealIndices<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        while self.cur >= self.list.ranges[self.range_idx].end {
            self.range_idx += 1;
            self.cur = self.list.ranges[self.range_idx].start;
        }
        let idx = self.cur;
        self.cur += 1;
        self.remaining -= 1;
        Some(idx)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RealIndices<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// index for 6 vertices: v0 -> [0,2), v1 -> [2,2) (degree 0),
    /// v2 -> [2,5), v3 -> [5,6), v4 -> [6,9), v5 -> [9,9) (degree 0).
    const INDEX: [u64; 7] = [0, 2, 2, 5, 6, 9, 9];

    #[test]
    fn empty_active_set_is_empty() {
        let list = ActiveVectorList::from_active(&INDEX, []);
        assert!(list.is_empty());
        assert_eq!(list.total_vectors(), 0);
        assert_eq!(list.active_vertices(), 0);
        assert_eq!(list.ranges(), &[]);
        assert_eq!(list.real_indices(0..0).count(), 0);
    }

    #[test]
    fn degree_zero_vertices_are_skipped() {
        let list = ActiveVectorList::from_active(&INDEX, [1, 5]);
        assert!(list.is_empty());
        assert_eq!(list.active_vertices(), 0);
    }

    #[test]
    fn adjacent_runs_coalesce() {
        // v2 ends at 5 where v3 starts, so they share one range.
        let list = ActiveVectorList::from_active(&INDEX, [2, 3]);
        assert_eq!(list.ranges(), std::slice::from_ref(&(2..6)));
        assert_eq!(list.total_vectors(), 4);
        assert_eq!(list.active_vertices(), 2);
        let real: Vec<usize> = list.real_indices(0..4).collect();
        assert_eq!(real, vec![2, 3, 4, 5]);
    }

    #[test]
    fn gaps_produce_separate_ranges() {
        let list = ActiveVectorList::from_active(&INDEX, [0, 3, 4]);
        assert_eq!(list.ranges(), &[0..2, 5..9]);
        assert_eq!(list.total_vectors(), 6);
        let real: Vec<usize> = list.real_indices(0..6).collect();
        assert_eq!(real, vec![0, 1, 5, 6, 7, 8]);
    }

    #[test]
    fn sub_slices_cross_range_gaps() {
        let list = ActiveVectorList::from_active(&INDEX, [0, 3, 4]);
        // Compacted positions: 0->0, 1->1, 2->5, 3->6, 4->7, 5->8.
        assert_eq!(list.real_indices(1..4).collect::<Vec<_>>(), vec![1, 5, 6]);
        assert_eq!(
            list.real_indices(2..2).collect::<Vec<_>>(),
            Vec::<usize>::new()
        );
        assert_eq!(list.real_indices(5..6).collect::<Vec<_>>(), vec![8]);
        assert_eq!(list.real_indices(0..1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn every_slice_matches_the_full_enumeration() {
        let list = ActiveVectorList::from_active(&INDEX, [0, 2, 4]);
        let full: Vec<usize> = list.real_indices(0..list.total_vectors()).collect();
        assert_eq!(full, vec![0, 1, 2, 3, 4, 6, 7, 8]);
        let n = list.total_vectors();
        for s in 0..=n {
            for e in s..=n {
                let got: Vec<usize> = list.real_indices(s..e).collect();
                assert_eq!(got, full[s..e].to_vec(), "slice {s}..{e}");
                let runs: Vec<Range<usize>> = list.real_ranges(s..e).collect();
                assert!(runs.iter().all(|r| !r.is_empty()), "slice {s}..{e}");
                assert!(
                    runs.windows(2).all(|w| w[0].end < w[1].start),
                    "runs of {s}..{e} must be maximal and ascending: {runs:?}"
                );
                let flat: Vec<usize> = runs.into_iter().flatten().collect();
                assert_eq!(flat, got, "ranges of slice {s}..{e}");
            }
        }
    }

    #[test]
    fn exact_size_iterator_reports_remaining() {
        let list = ActiveVectorList::from_active(&INDEX, [0, 3, 4]);
        let mut it = list.real_indices(1..5);
        assert_eq!(it.len(), 4);
        it.next();
        assert_eq!(it.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let list = ActiveVectorList::from_active(&INDEX, [0]);
        let _ = list.real_indices(0..3);
    }
}
