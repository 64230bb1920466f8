//! The GAS-style programming model (paper §5).
//!
//! Grazelle's model "is based on Gather-Apply-Scatter and
//! edgeMap/vertexMap": an application supplies a commutative, associative
//! aggregation operator for the Edge phase and a per-vertex local update for
//! the Vertex phase. The engine owns scheduling, vectorization, frontiers,
//! and merging; per §3 the only scheduler-awareness burden on the
//! application writer is providing the aggregation identity
//! (`initialValue()`), which here falls out of [`AggOp`].

use crate::frontier::{DenseBitmap, Frontier};
use crate::properties::PropertyArray;
use grazelle_graph::types::VertexId;
use grazelle_vsparse::build::Vss;
use grazelle_vsparse::simd::SimdLevel;
use std::ops::Range;

/// The commutative + associative aggregation operator applied to in-bound
/// messages at each destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Summation (PageRank). Every message changes the accumulator, so this
    /// is the most write-intense operator and the one scheduler awareness
    /// helps most (§3 "Benefits").
    Sum,
    /// Minimization (Connected Components, SSSP). No-op writes can be
    /// skipped, reducing — but not eliminating — the benefit.
    Min,
    /// Maximization (e.g. widest-path style programs).
    Max,
}

impl AggOp {
    /// The operator identity — the paper's `initialValue()`.
    #[inline]
    pub fn identity(&self) -> f64 {
        match self {
            AggOp::Sum => 0.0,
            AggOp::Min => f64::INFINITY,
            AggOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combines two aggregates — the paper's `compute()`.
    #[inline]
    pub fn combine(&self, a: f64, b: f64) -> f64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}

/// How a message value is derived from the source vertex's edge value and
/// the edge weight. Kept as an enum (not a closure) so the Edge phase can
/// dispatch to the matching SIMD kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFunc {
    /// `message = edge_values[src]` (unweighted propagation).
    Value,
    /// `message = edge_values[src] * weight` (weighted sums, e.g.
    /// Collaborative-Filtering-style kernels).
    ValueTimesWeight,
    /// `message = edge_values[src] + weight` (min-plus, SSSP).
    ValuePlusWeight,
    /// `message = edge_values[src] - 2^34` (hop attenuation over packed
    /// integer keys, label propagation). The constant is the stride of the
    /// score field in the apps' `score·2^34 + rank·2^17 + label` packing:
    /// subtracting it knocks one hop off the score while leaving the
    /// tie-break rank and label intact. Exact for packed keys < 2^52.
    ValueHopDecay,
}

/// The score-field stride used by [`EdgeFunc::ValueHopDecay`].
pub const HOP_DECAY: f64 = (1u64 << 34) as f64;

impl EdgeFunc {
    /// Scalar evaluation (the per-edge semantics the SIMD kernels match).
    #[inline]
    pub fn apply(&self, value: f64, weight: f64) -> f64 {
        match self {
            EdgeFunc::Value => value,
            EdgeFunc::ValueTimesWeight => value * weight,
            EdgeFunc::ValuePlusWeight => value + weight,
            EdgeFunc::ValueHopDecay => value - HOP_DECAY,
        }
    }

    /// Whether this function reads edge weights.
    pub fn needs_weights(&self) -> bool {
        matches!(self, EdgeFunc::ValueTimesWeight | EdgeFunc::ValuePlusWeight)
    }
}

/// The scalar body of [`GraphProgram::apply_range`]: one
/// [`GraphProgram::apply`] per vertex of `range`, activations inserted into
/// `next_frontier` and counted.
pub fn apply_each<P: GraphProgram + ?Sized>(
    prog: &P,
    range: Range<VertexId>,
    next_frontier: Option<&DenseBitmap>,
) -> usize {
    let mut active = 0;
    for v in range {
        if prog.apply(v) {
            active += 1;
            if let Some(f) = next_frontier {
                f.insert(v);
            }
        }
    }
    active
}

/// A synchronous graph application.
///
/// State (property arrays, converged sets, globals) is owned by the
/// implementor; the engine only sees the pieces it schedules around.
pub trait GraphProgram: Sync {
    /// Number of vertices this program's arrays cover.
    fn num_vertices(&self) -> usize;

    /// Aggregation operator for the Edge phase.
    fn op(&self) -> AggOp;

    /// Message derivation (default: plain value propagation).
    fn edge_func(&self) -> EdgeFunc {
        EdgeFunc::Value
    }

    /// The array the Edge phase *reads*, indexed by source vertex.
    fn edge_values(&self) -> &PropertyArray;

    /// The per-destination accumulators the Edge phase *writes*. The driver
    /// resets them to the operator identity before every Edge phase.
    fn accumulators(&self) -> &PropertyArray;

    /// Every property array that must be captured to checkpoint and later
    /// resume this program at an iteration boundary. The default covers the
    /// two arrays the engine itself touches; programs with additional state
    /// (e.g. PageRank's rank vector) override this to include it. Order
    /// must be deterministic — restore writes the arrays back positionally.
    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        vec![self.edge_values(), self.accumulators()]
    }

    /// Local update for `v` after the Edge phase. Returns `true` when `v`
    /// should join the next frontier (its externally visible value changed).
    fn apply(&self, v: VertexId) -> bool;

    /// The Vertex phase over `range`, a contiguous run of vertices the
    /// calling thread owns for the whole phase: applies the local update to
    /// each, inserts the activated ones into `next_frontier` (when the run
    /// tracks one) and returns how many were activated. The default loops
    /// [`GraphProgram::apply`] whatever `simd` says; applications with a
    /// profitable vector Vertex kernel (PageRank, Connected Components)
    /// override it to run the whole range inside one `#[target_feature]`
    /// function when `simd` allows.
    fn apply_range(
        &self,
        range: Range<VertexId>,
        next_frontier: Option<&DenseBitmap>,
        _simd: SimdLevel,
    ) -> usize {
        apply_each(self, range, next_frontier)
    }

    /// Program contract (DESIGN.md §18): `true` declares that whenever
    /// `accumulators()[v]` holds the operator identity, `apply(v)` returns
    /// `false` and leaves every [`checkpoint_arrays`](Self::checkpoint_arrays)
    /// cell bit-unchanged — at every state the run can reach, including
    /// after `pre_iteration`/`should_stop` moved any global. A vertex no
    /// message reached then needs no Vertex-phase visit, so the hybrid
    /// driver may apply only the destinations a sparse push touched. The
    /// default `false` keeps the full sweep; a program whose update depends
    /// on anything besides the aggregate (k-core's moving threshold) must
    /// leave it `false`.
    fn identity_apply_is_noop(&self) -> bool {
        false
    }

    /// Program contract (DESIGN.md §18): `Some(Δ)` declares the program
    /// priority-ordered with buckets `Δ` wide on `structure` (the push
    /// structure of the run); `None`, the default, leaves the run
    /// unordered. `Some(Δ)` promises, for Δ positive and finite:
    ///
    /// * `edge_values()[v]` is `v`'s priority, lower first, and a message is
    ///   never below its sender's priority (non-negative weights), so an
    ///   activation never lands in a bucket below its sender's;
    /// * the final bits of every [`checkpoint_arrays`](Self::checkpoint_arrays)
    ///   entry except the transient accumulators are the same under every
    ///   *lowest-bucket-first* schedule: each step sends only vertices of
    ///   the lowest pending bucket `⌊edge_values()[v] / Δ⌋`, either all of
    ///   them at once (a superstep) or one at a time in ascending id order
    ///   with each message folded and applied as it arrives (the in-place
    ///   drain), and the vertices of later buckets wait, for any number of
    ///   steps.
    ///
    /// The hybrid driver may then start each step from the lowest
    /// [`BucketQueue`](crate::frontier::BucketQueue) bucket only, drain tiny
    /// buckets in place, and hand [`should_stop`](Self::should_stop) the
    /// number of vertices still waiting, which must not end the run while
    /// that number is non-zero (`invariant-checks` builds assert it).
    /// Iteration counts change; results do not. SSSP (monotone Min
    /// relaxation, one fixpoint in *any* drain order) returns 8 mean edge
    /// weights; BFS, whose converged set masks a later, smaller key, returns
    /// one level of its `(depth, parent)` key.
    fn bucket_width(&self, _structure: &Vss) -> Option<f64> {
        None
    }

    /// Whether this application tracks a frontier at all. `false` (e.g.
    /// PageRank) means every vertex is active every iteration.
    fn uses_frontier(&self) -> bool;

    /// Write-intense mode (Figure 8a): under the traditional interface, the
    /// engine performs the shared-memory update unconditionally instead of
    /// letting selective operators (Min/Max) skip no-op writes.
    fn write_intense(&self) -> bool {
        false
    }

    /// Destinations that must ignore all in-bound messages (Breadth-First
    /// Search's visited set: "vertices are placed into this set immediately
    /// upon visitation", §2).
    ///
    /// Contract: a vertex joins the set only in an [`apply`](Self::apply)
    /// call that returns `true`, so the set grows by at most the Vertex
    /// phase's activation count per superstep. The driver bounds the set's
    /// size that way instead of recounting it every superstep (DESIGN.md
    /// §16); `invariant-checks` builds audit the bound.
    fn converged(&self) -> Option<&DenseBitmap> {
        None
    }

    /// The frontier for iteration 0.
    fn initial_frontier(&self) -> Frontier {
        if self.uses_frontier() {
            Frontier::empty(self.num_vertices())
        } else {
            Frontier::all(self.num_vertices())
        }
    }

    /// Hook invoked (single-threaded) before each Edge phase — Grazelle's
    /// "global variables" facility; PageRank uses it to fold dangling-vertex
    /// mass into the per-iteration base rank.
    fn pre_iteration(&self, _iteration: usize) {}

    /// Termination test, called after each Vertex phase with the number of
    /// vertices activated for the next iteration — under a
    /// [`bucket_width`](Self::bucket_width), the number waiting to be sent,
    /// the next step's share included.
    fn should_stop(&self, _iteration: usize, active: usize) -> bool {
        self.uses_frontier() && active == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_are_neutral() {
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max] {
            for v in [-3.5, 0.0, 7.25] {
                assert_eq!(op.combine(op.identity(), v), v, "{op:?} identity");
                assert_eq!(op.combine(v, op.identity()), v, "{op:?} identity (sym)");
            }
        }
    }

    #[test]
    fn combine_semantics() {
        assert_eq!(AggOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(AggOp::Min.combine(2.0, 3.0), 2.0);
        assert_eq!(AggOp::Max.combine(2.0, 3.0), 3.0);
    }

    #[test]
    fn edge_funcs() {
        assert_eq!(EdgeFunc::Value.apply(2.0, 9.0), 2.0);
        assert_eq!(EdgeFunc::ValueTimesWeight.apply(2.0, 9.0), 18.0);
        assert_eq!(EdgeFunc::ValuePlusWeight.apply(2.0, 9.0), 11.0);
        assert_eq!(
            EdgeFunc::ValueHopDecay.apply(3.0 * HOP_DECAY + 17.0, 9.0),
            2.0 * HOP_DECAY + 17.0
        );
        assert!(!EdgeFunc::Value.needs_weights());
        assert!(EdgeFunc::ValueTimesWeight.needs_weights());
        assert!(EdgeFunc::ValuePlusWeight.needs_weights());
        assert!(!EdgeFunc::ValueHopDecay.needs_weights());
    }

    struct Dummy {
        vals: PropertyArray,
        acc: PropertyArray,
    }
    impl GraphProgram for Dummy {
        fn num_vertices(&self) -> usize {
            8
        }
        fn op(&self) -> AggOp {
            AggOp::Sum
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.vals
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, v: VertexId) -> bool {
            v.is_multiple_of(2)
        }
        fn uses_frontier(&self) -> bool {
            true
        }
    }

    #[test]
    fn default_range_apply_matches_scalar() {
        let d = Dummy {
            vals: PropertyArray::new(8),
            acc: PropertyArray::new(8),
        };
        let next = DenseBitmap::new(8);
        assert_eq!(d.apply_range(1..7, Some(&next), SimdLevel::Avx2), 3);
        assert_eq!(next.iter().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(d.apply_range(0..8, None, SimdLevel::Scalar), 4);
        assert_eq!(d.apply_range(3..3, Some(&next), SimdLevel::Scalar), 0);
        assert_eq!(
            next.count(),
            3,
            "an untracked or empty range inserts nothing"
        );
    }

    #[test]
    fn default_frontier_and_stop() {
        let d = Dummy {
            vals: PropertyArray::new(8),
            acc: PropertyArray::new(8),
        };
        assert_eq!(d.initial_frontier().count(), 0);
        assert!(d.should_stop(3, 0));
        assert!(!d.should_stop(3, 1));
    }
}
