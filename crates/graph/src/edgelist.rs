//! Unordered edge container used while constructing graphs.

use crate::types::{GraphError, VertexId};

/// A mutable list of directed edges, optionally weighted.
///
/// This is the interchange format between generators, file loaders, and the
/// [`Csr`](crate::Csr) builder. Edges are stored as `(src, dst)` pairs in
/// insertion order; weights, when present, are kept index-aligned with the
/// edge array through every transformation.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<f64>>,
}

impl EdgeList {
    /// Creates an empty list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Creates an empty list with capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
            weights: None,
        }
    }

    /// Builds a list from a slice of `(src, dst)` pairs.
    ///
    /// `num_vertices` must cover every endpoint.
    pub fn from_pairs(
        num_vertices: usize,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        let mut el = EdgeList::with_capacity(num_vertices, pairs.len());
        for &(s, d) in pairs {
            el.push(s, d)?;
        }
        Ok(el)
    }

    /// Number of vertices in the vertex set (fixed at construction or grown
    /// via [`EdgeList::grow_vertices`]).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The raw edge array.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// The weight array, if this list is weighted.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// True when a weight is stored for every edge.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Enlarges the vertex set. Shrinking is not permitted.
    pub fn grow_vertices(&mut self, num_vertices: usize) {
        assert!(
            num_vertices >= self.num_vertices,
            "vertex set may only grow"
        );
        self.num_vertices = num_vertices;
    }

    /// Appends an unweighted edge.
    ///
    /// Fails if either endpoint is out of range, or if the list already
    /// carries weights (mixing weighted and unweighted edges would leave
    /// holes in the weight array).
    pub fn push(&mut self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        if let Some(w) = &self.weights {
            return Err(GraphError::WeightLengthMismatch {
                edges: self.edges.len() + 1,
                weights: w.len(),
            });
        }
        self.check_endpoint(src)?;
        self.check_endpoint(dst)?;
        self.edges.push((src, dst));
        Ok(())
    }

    /// Appends a weighted edge. The first weighted push on an empty list
    /// switches the list to weighted mode; afterwards every push must be
    /// weighted.
    pub fn push_weighted(
        &mut self,
        src: VertexId,
        dst: VertexId,
        weight: f64,
    ) -> Result<(), GraphError> {
        self.check_endpoint(src)?;
        self.check_endpoint(dst)?;
        match &mut self.weights {
            Some(w) => {
                if w.len() != self.edges.len() {
                    return Err(GraphError::WeightLengthMismatch {
                        edges: self.edges.len(),
                        weights: w.len(),
                    });
                }
                w.push(weight);
            }
            None => {
                if !self.edges.is_empty() {
                    return Err(GraphError::WeightLengthMismatch {
                        edges: self.edges.len(),
                        weights: 0,
                    });
                }
                self.weights = Some(vec![weight]);
            }
        }
        self.edges.push((src, dst));
        Ok(())
    }

    fn check_endpoint(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v as u64,
                num_vertices: self.num_vertices as u64,
            })
        }
    }

    /// Removes self-loops (`src == dst`), keeping weights aligned.
    pub fn remove_self_loops(&mut self) {
        match &mut self.weights {
            Some(w) => {
                let mut keep = 0usize;
                for i in 0..self.edges.len() {
                    if self.edges[i].0 != self.edges[i].1 {
                        self.edges[keep] = self.edges[i];
                        w[keep] = w[i];
                        keep += 1;
                    }
                }
                self.edges.truncate(keep);
                w.truncate(keep);
            }
            None => self.edges.retain(|&(s, d)| s != d),
        }
    }

    /// Sorts edges by `(src, dst)` and removes duplicate pairs. For weighted
    /// lists the *first* weight (in the sorted order) of each duplicate group
    /// is kept.
    pub fn sort_and_dedup(&mut self) {
        match self.weights.take() {
            Some(w) => {
                let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
                order.sort_unstable_by_key(|&i| self.edges[i as usize]);
                let mut edges = Vec::with_capacity(self.edges.len());
                let mut weights = Vec::with_capacity(w.len());
                for &i in &order {
                    let e = self.edges[i as usize];
                    if edges.last() != Some(&e) {
                        edges.push(e);
                        weights.push(w[i as usize]);
                    }
                }
                self.edges = edges;
                self.weights = Some(weights);
            }
            None => {
                self.edges.sort_unstable();
                self.edges.dedup();
            }
        }
    }

    /// Adds the reverse of every edge, making the graph symmetric.
    /// Weighted lists mirror the weight onto the reverse edge.
    pub fn symmetrize(&mut self) {
        let m = self.edges.len();
        self.edges.reserve(m);
        if let Some(w) = &mut self.weights {
            w.reserve(m);
            for i in 0..m {
                let (s, d) = self.edges[i];
                let wt = w[i];
                self.edges.push((d, s));
                w.push(wt);
            }
        } else {
            for i in 0..m {
                let (s, d) = self.edges[i];
                self.edges.push((d, s));
            }
        }
    }

    /// Out-degree of every vertex, computed in one pass.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &(s, _) in &self.edges {
            deg[s as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex, computed in one pass.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &(_, d) in &self.edges {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Consumes the list, returning `(num_vertices, edges, weights)`.
    pub fn into_parts(self) -> (usize, Vec<(VertexId, VertexId)>, Option<Vec<f64>>) {
        (self.num_vertices, self.edges, self.weights)
    }

    /// Inverse of [`EdgeList::into_parts`]: assembles a list from already
    /// built arrays in one shot instead of pushing edge by edge. This is how
    /// the parallel loaders hand over their concatenated per-chunk vectors
    /// without a second O(|E|) re-push pass. Every endpoint and the weight
    /// alignment are validated.
    pub fn from_parts(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId)>,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, GraphError> {
        if let Some(w) = &weights {
            if w.len() != edges.len() {
                return Err(GraphError::WeightLengthMismatch {
                    edges: edges.len(),
                    weights: w.len(),
                });
            }
        }
        if let Some(&(s, d)) = edges
            .iter()
            .find(|&&(s, d)| s as usize >= num_vertices || d as usize >= num_vertices)
        {
            return Err(GraphError::VertexOutOfRange {
                vertex: s.max(d) as u64,
                num_vertices: num_vertices as u64,
            });
        }
        Ok(EdgeList {
            num_vertices,
            edges,
            weights,
        })
    }

    /// [`EdgeList::from_parts`] for arrays whose checks a loader has made
    /// while parsing them: `num_vertices` is one past the largest endpoint
    /// it read (0 without edges), and the weights, if any, are aligned.
    /// Skips the pass over every edge that would re-check the endpoints.
    pub(crate) fn from_parsed(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId)>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == edges.len()));
        debug_assert!(edges
            .iter()
            .all(|&(s, d)| (s.max(d) as usize) < num_vertices));
        EdgeList {
            num_vertices,
            edges,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        let mut el = EdgeList::new(5);
        for &(s, d) in &[(0, 1), (0, 2), (1, 2), (3, 0), (3, 3), (4, 1)] {
            el.push(s, d).unwrap();
        }
        el
    }

    #[test]
    fn push_and_count() {
        let el = sample();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.num_edges(), 6);
        assert!(!el.is_weighted());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut el = EdgeList::new(3);
        assert!(matches!(
            el.push(0, 3),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            el.push(7, 0),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn self_loop_removal_unweighted() {
        let mut el = sample();
        el.remove_self_loops();
        assert_eq!(el.num_edges(), 5);
        assert!(el.edges().iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn self_loop_removal_weighted_keeps_alignment() {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 1.0).unwrap();
        el.push_weighted(2, 2, 9.0).unwrap();
        el.push_weighted(1, 3, 3.0).unwrap();
        el.remove_self_loops();
        assert_eq!(el.edges(), &[(0, 1), (1, 3)]);
        assert_eq!(el.weights().unwrap(), &[1.0, 3.0]);
    }

    #[test]
    fn sort_and_dedup_unweighted() {
        let mut el = EdgeList::new(3);
        for &(s, d) in &[(2, 1), (0, 1), (2, 1), (0, 0), (0, 1)] {
            el.push(s, d).unwrap();
        }
        el.sort_and_dedup();
        assert_eq!(el.edges(), &[(0, 0), (0, 1), (2, 1)]);
    }

    #[test]
    fn sort_and_dedup_weighted_keeps_first() {
        let mut el = EdgeList::new(3);
        el.push_weighted(2, 1, 5.0).unwrap();
        el.push_weighted(0, 1, 1.0).unwrap();
        el.push_weighted(2, 1, 7.0).unwrap();
        el.sort_and_dedup();
        assert_eq!(el.edges(), &[(0, 1), (2, 1)]);
        // First weight in sorted (stable-by-index) order is kept for (2,1):
        // index order among duplicates is preserved by the sort key, so 5.0.
        assert_eq!(el.weights().unwrap(), &[1.0, 5.0]);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut el = sample();
        let m = el.num_edges();
        el.symmetrize();
        assert_eq!(el.num_edges(), 2 * m);
        // Every original edge's reverse must now exist.
        let set: std::collections::HashSet<_> = el.edges().iter().copied().collect();
        for &(s, d) in sample().edges() {
            assert!(set.contains(&(d, s)));
        }
    }

    #[test]
    fn symmetrize_mirrors_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 2.5).unwrap();
        el.push_weighted(1, 2, 4.5).unwrap();
        el.symmetrize();
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (1, 0), (2, 1)]);
        assert_eq!(el.weights().unwrap(), &[2.5, 4.5, 2.5, 4.5]);
    }

    #[test]
    fn degrees() {
        let el = sample();
        assert_eq!(el.out_degrees(), vec![2, 1, 0, 2, 1]);
        assert_eq!(el.in_degrees(), vec![1, 2, 2, 1, 0]);
    }

    #[test]
    fn mixing_weighted_and_unweighted_fails() {
        let mut el = EdgeList::new(2);
        el.push(0, 1).unwrap();
        assert!(el.push_weighted(1, 0, 1.0).is_err());

        let mut el = EdgeList::new(2);
        el.push_weighted(0, 1, 1.0).unwrap();
        assert!(el.push(1, 0).is_err());
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let el = sample();
        let (n, edges, weights) = el.clone().into_parts();
        let back = EdgeList::from_parts(n, edges, weights).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
        // Out-of-range endpoint reported as the larger offender.
        assert!(matches!(
            EdgeList::from_parts(2, vec![(0, 5)], None),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
        // Misaligned weights rejected.
        assert!(matches!(
            EdgeList::from_parts(2, vec![(0, 1)], Some(vec![1.0, 2.0])),
            Err(GraphError::WeightLengthMismatch { .. })
        ));
    }

    #[test]
    fn grow_vertices_allows_new_endpoints() {
        let mut el = EdgeList::new(2);
        assert!(el.push(0, 1).is_ok());
        assert!(el.push(0, 2).is_err());
        el.grow_vertices(3);
        assert!(el.push(0, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "vertex set may only grow")]
    fn shrinking_vertices_panics() {
        let mut el = EdgeList::new(3);
        el.grow_vertices(2);
    }
}
