//! The masked generalized-SpMV core (DESIGN.md §16).
//!
//! Every Edge phase in this engine — pull over VSD, push over VSS, the
//! compacted frontier-aware pull, and their resilient twins — computes
//! the same algebraic object: a frontier-masked matrix-vector product over
//! a semiring-like `(combine, reduce)` pair,
//! `acc[dst] ⊕= ⨁_{src ∈ N(dst) ∩ F} message(src, dst, w)`. The engine
//! modules used to each re-implement that inner loop against
//! [`GraphProgram`] directly; they now route through one [`EdgeKernel`]
//! abstraction:
//!
//! * [`SemiringKernel`] — the classic GAS kernels: `message` is an
//!   [`EdgeFunc`] over the source's edge value, the reduction is an
//!   [`AggOp`], and a pull run dispatches *once* on `(op, func, level)` to
//!   the matching monomorphic gather-reduce walker of
//!   [`grazelle_vsparse::simd`].
//! * [`IntersectKernel`] — the masked *dot-product* kernel used by triangle
//!   counting: `message(src, dst) = |N(src) ∩ N(dst)|` over sorted
//!   adjacency, reduced with `Sum`.
//!
//! The pull-side kernel boundary is the *contiguous run of edge vectors*
//! ([`EdgeKernel::pull_run`]): the kernel owns the masked aggregation of a
//! run — lane-wise partials, frontier and converged-set predication,
//! destination-transition detection — and hands each finished destination's
//! aggregate to the engine's sink. Scheduling, the §3 exactly-once-write
//! discipline (what the sink does with an interior destination, the
//! merge-buffer slot for a chunk's trailing partial) and the shadow
//! write-tracker audit all stay in the engine modules and are untouched by
//! the choice of kernel — which is precisely what lets a new workload reuse
//! the whole machinery by implementing this one trait.

use crate::frontier::{DenseBitmap, Frontier};
use crate::program::{AggOp, EdgeFunc, GraphProgram};
use crate::properties::PropertyArray;
use grazelle_vsparse::build::{VectorSparse, Vsd};
use grazelle_vsparse::simd::{
    self, ActiveBitmap, ActiveList, AllActive, Carry, Kernels, Reduction, Run, SimdLevel,
};
use std::ops::Range;

pub mod spa;

/// One Edge-phase kernel: the semiring-style combine/reduce pair plus the
/// masked pull runs the engines drive.
///
/// # Safety contract
///
/// `pull_run` is `unsafe` with the same contract as the SIMD walkers it
/// wraps: every valid lane of the vectors it is handed must hold a vertex
/// id within the kernel's backing arrays, i.e. the structure must be the
/// one the kernel was built for. Implementations validate coverage at
/// construction time against that structure.
pub trait EdgeKernel: Sync {
    /// The commutative + associative reduction applied at each destination.
    fn op(&self) -> AggOp;

    /// The per-destination accumulators the Edge phase writes. The driver
    /// resets them to the operator identity before every Edge phase.
    fn accumulators(&self) -> &PropertyArray;

    /// Destinations that must ignore all in-bound messages.
    fn converged(&self) -> Option<&DenseBitmap> {
        None
    }

    /// Write-intense mode (Figure 8a): the traditional scatter performs the
    /// shared-memory update unconditionally instead of letting selective
    /// operators skip no-op writes.
    fn write_intense(&self) -> bool {
        false
    }

    /// The SIMD level this kernel's pull runs were configured for.
    fn simd(&self) -> SimdLevel {
        SimdLevel::Scalar
    }

    /// Whether [`message`](Self::message) reads its `weight` argument. A
    /// push scan over a weighted structure loads (and prefetches) a weight
    /// vector per source only when it does; otherwise it passes 0.0.
    fn needs_weights(&self) -> bool {
        true
    }

    /// Masked gather-reduce of the contiguous run `range` of `vsd`'s
    /// vectors at SIMD level `simd`: folds `message(src, dst)` of every
    /// lane whose source is in `frontier` and whose destination has not
    /// converged into `carry`'s lane-wise partials, calling
    /// `sink(dst, aggregate)` for each destination the run moves past. On
    /// return `carry` holds the run's last destination and its partial, so
    /// a chunk spanning several runs threads one `carry` through them.
    ///
    /// The default walks edge by edge through [`EdgeKernel::message`].
    ///
    /// # Safety
    /// `vsd` must be the structure the kernel validated at construction
    /// (see the trait-level contract).
    #[inline]
    unsafe fn pull_run<S: FnMut(u64, f64)>(
        &self,
        _simd: SimdLevel,
        vsd: &Vsd,
        range: Range<usize>,
        frontier: &Frontier,
        carry: &mut Carry,
        sink: &mut S,
    ) {
        per_edge_run(self, vsd, range, frontier, carry, sink);
    }

    /// Scalar per-edge message — the push/scatter and sequential-redo twin
    /// of the pull runs. `weight` is the edge's weight (0.0 on unweighted
    /// structures).
    fn message(&self, src: u32, dst: u32, weight: f64) -> f64;
}

/// [`EdgeKernel::pull_run`] for kernels with no vector form: one
/// [`EdgeKernel::message`] per enabled lane, lane `i` folded into partial
/// `i mod 4`, the partials the SIMD walkers keep.
fn per_edge_run<K: EdgeKernel + ?Sized, S: FnMut(u64, f64)>(
    kernel: &K,
    vsd: &Vsd,
    range: Range<usize>,
    frontier: &Frontier,
    carry: &mut Carry,
    sink: &mut S,
) {
    let op = kernel.op();
    let weights = vsd.weight_vectors();
    let converged = |dst: u64| kernel.converged().is_some_and(|c| c.contains(dst as u32));
    let mut skip = converged(carry.dest);
    // The edge position of the next vector's first lane.
    let mut e = vsd.edge_position(range.start);
    for ev in &vsd.vectors()[range] {
        let dst = ev.top_level_vertex();
        if dst != carry.dest {
            sink(carry.dest, carry.reduce(|a, b| op.combine(a, b)));
            *carry = Carry::new(dst, op.identity());
            skip = converged(dst);
        }
        let first = e;
        e += ev.count_valid() as usize;
        if skip {
            continue;
        }
        for (lane, src) in ev.valid_neighbors().enumerate() {
            if frontier.contains(src as u32) {
                let w = weights.map_or(0.0, |ws| ws[first + lane]);
                carry.fold_lane(
                    lane % 4,
                    kernel.message(src as u32, dst as u32, w),
                    |a, b| op.combine(a, b),
                );
            }
        }
    }
}

/// The traditional-interface scatter: combines `msg` into `accum[dst]` with
/// the synchronization discipline the operator demands. `Sum` must use the
/// wait-free atomic add; selective operators (`Min`/`Max`) skip no-op
/// updates unless `write_intense` forces the unconditional CAS combine.
/// This is Listing 1's synchronization, kept for the traditional pull arms
/// (Figure 8's write traffic); the push phase folds through the SPA instead
/// (`spa::fold_into` replicates these value semantics without atomics).
#[inline]
pub fn scatter_combine(
    op: AggOp,
    write_intense: bool,
    accum: &PropertyArray,
    dst: usize,
    msg: f64,
) {
    match op {
        AggOp::Sum => accum.fetch_add_f64(dst, msg),
        _ if write_intense => {
            accum.fetch_combine_f64(dst, msg, |a, b| op.combine(a, b));
        }
        AggOp::Min => {
            accum.fetch_min_f64(dst, msg);
        }
        AggOp::Max => {
            accum.fetch_max_f64(dst, msg);
        }
    }
}

/// The GAS semiring kernel: `(AggOp, EdgeFunc)` over a program's edge-value
/// array, dispatching each masked gather to the matching SIMD kernel. This
/// is the kernel every [`GraphProgram`] runs as; the drivers construct it
/// once per Edge phase via [`program_kernel`].
pub struct SemiringKernel<'a> {
    op: AggOp,
    func: EdgeFunc,
    values: &'a [f64],
    accum: &'a PropertyArray,
    conv: Option<&'a DenseBitmap>,
    write_intense: bool,
    weights: Option<&'a [f64]>,
    kernels: Kernels,
}

impl<'a> SemiringKernel<'a> {
    /// Builds the kernel for `prog` over a structure, validating the
    /// coverage invariants the unsafe gathers rely on: the edge-value and
    /// accumulator arrays must cover every vertex, and weighted edge
    /// functions require the structure's weight vectors.
    pub fn for_structure<P: GraphProgram>(
        prog: &'a P,
        structure: &'a VectorSparse,
        kernels: Kernels,
    ) -> Self {
        assert!(
            prog.edge_values().len() >= structure.num_vertices(),
            "edge_values must cover every vertex"
        );
        assert!(
            prog.accumulators().len() >= structure.num_vertices(),
            "accumulators must cover every vertex"
        );
        let weights = structure.weight_vectors();
        if prog.edge_func().needs_weights() {
            assert!(weights.is_some(), "edge function needs weights");
        }
        SemiringKernel {
            op: prog.op(),
            func: prog.edge_func(),
            values: prog.edge_values().as_f64_slice(),
            accum: prog.accumulators(),
            conv: prog.converged(),
            write_intense: prog.write_intense(),
            weights,
            kernels,
        }
    }
}

/// Convenience constructor used by the drivers and tests: the semiring
/// kernel of `prog` over `structure` (see
/// [`SemiringKernel::for_structure`]).
pub fn program_kernel<'a, P: GraphProgram>(
    prog: &'a P,
    structure: &'a VectorSparse,
    kernels: Kernels,
) -> SemiringKernel<'a> {
    SemiringKernel::for_structure(prog, structure, kernels)
}

/// Resolves the frontier representation to its [`simd::LaneFilter`] and runs
/// the walker for reduction `R` — the last runtime branch before the
/// monomorphic loop.
///
/// # Safety
/// Same contract as [`Kernels::walk`]: every valid lane's id indexes within
/// `run.values` and within a dense frontier's bitmap.
#[inline]
unsafe fn walk_frontier<R: Reduction, S: FnMut(u64, f64)>(
    level: SimdLevel,
    run: Run<'_>,
    frontier: &Frontier,
    carry: &mut Carry,
    sink: &mut S,
) {
    let k = Kernels::with_level(level);
    // SAFETY: forwarded caller contract, the same in every arm.
    unsafe {
        match frontier {
            Frontier::All { .. } => k.walk::<R, _, S>(run, AllActive, carry, sink),
            Frontier::Dense(bm) => k.walk::<R, _, S>(run, ActiveBitmap(bm.words()), carry, sink),
            // A pull superstep whose frontier is under the list cutoff
            // (`direction::FRONTIER_LIST_OCCUPANCY`): every forced-pull
            // run's tail, or a late pull the cost model picks.
            Frontier::Sparse { vertices, .. } => {
                k.walk::<R, _, S>(run, ActiveList(vertices), carry, sink)
            }
        }
    }
}

impl EdgeKernel for SemiringKernel<'_> {
    #[inline]
    fn op(&self) -> AggOp {
        self.op
    }

    #[inline]
    fn accumulators(&self) -> &PropertyArray {
        self.accum
    }

    #[inline]
    fn converged(&self) -> Option<&DenseBitmap> {
        self.conv
    }

    #[inline]
    fn write_intense(&self) -> bool {
        self.write_intense
    }

    #[inline]
    fn simd(&self) -> SimdLevel {
        self.kernels.level()
    }

    #[inline]
    fn needs_weights(&self) -> bool {
        self.func.needs_weights()
    }

    // SAFETY: forwarded caller contract — `vsd` is the structure whose ids
    // (and weight vectors, when the function is weighted) were validated
    // against `values` at construction.
    #[inline]
    unsafe fn pull_run<S: FnMut(u64, f64)>(
        &self,
        simd: SimdLevel,
        vsd: &Vsd,
        range: Range<usize>,
        frontier: &Frontier,
        carry: &mut Carry,
        sink: &mut S,
    ) {
        assert!(
            frontier.len() >= vsd.num_vertices(),
            "frontier must cover every vertex of the structure"
        );
        let weights = match self.weights {
            Some(ws) if self.func.needs_weights() => &ws[vsd.edge_position(range.start)..],
            _ => &[],
        };
        let run = Run {
            values: self.values,
            vectors: &vsd.vectors()[range.clone()],
            weights,
            converged: self.conv.map(DenseBitmap::words),
        };
        // SAFETY: forwarded caller contract, the same in every arm.
        unsafe {
            match (self.op, self.func) {
                (AggOp::Sum, EdgeFunc::Value) => {
                    walk_frontier::<simd::Sum, S>(simd, run, frontier, carry, sink)
                }
                (AggOp::Min, EdgeFunc::Value) => {
                    walk_frontier::<simd::Min, S>(simd, run, frontier, carry, sink)
                }
                (AggOp::Max, EdgeFunc::Value) => {
                    walk_frontier::<simd::Max, S>(simd, run, frontier, carry, sink)
                }
                (AggOp::Sum, EdgeFunc::ValueTimesWeight) => {
                    walk_frontier::<simd::WeightedSum, S>(simd, run, frontier, carry, sink)
                }
                (AggOp::Min, EdgeFunc::ValuePlusWeight) => {
                    walk_frontier::<simd::MinPlus, S>(simd, run, frontier, carry, sink)
                }
                // Remaining combinations have no fused walker.
                _ => per_edge_run(self, vsd, range, frontier, carry, sink),
            }
        }
    }

    #[inline]
    fn message(&self, src: u32, _dst: u32, weight: f64) -> f64 {
        self.func.apply(self.values[src as usize], weight)
    }
}

/// Number of elements shared by two strictly ascending slices (the masked
/// dot-product of two sparse indicator vectors). Linear merge scan.
#[inline]
pub fn sorted_intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// The triangle-counting kernel: a masked dot-product over sorted adjacency.
///
/// For each edge `(src, dst)` the message is `|N(src) ∩ N(dst)|`, reduced
/// with `Sum` — so after one Edge phase over a *symmetric* graph,
/// `acc[v] = Σ_{u ∈ N(v)} |N(u) ∩ N(v)| = 2·t(v)` (each triangle through
/// `v` is found once via each of its two other corners), and the global
/// count is `Σ_v acc[v] / 6`. All messages are exact small integers, so
/// every engine path — scheduler-aware, traditional atomic, push, compact,
/// degraded scalar — produces bit-identical accumulators.
///
/// Self-loops are dropped at construction and `src == dst` lanes message 0,
/// matching the simple-graph convention of triangle counting.
pub struct IntersectKernel {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    accum: PropertyArray,
}

impl IntersectKernel {
    /// Builds the kernel's sorted, deduplicated, self-loop-free adjacency
    /// from the graph's out-orientation. Triangle semantics require the
    /// graph to be symmetric (each undirected edge present in both
    /// directions); the caller owns that invariant.
    pub fn from_graph(g: &grazelle_graph::graph::Graph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(g.num_edges());
        offsets.push(0);
        let mut scratch: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            scratch.clear();
            scratch.extend(g.out_neighbors(v).iter().copied().filter(|&u| u != v));
            scratch.sort_unstable();
            scratch.dedup();
            neighbors.extend_from_slice(&scratch);
            offsets.push(neighbors.len());
        }
        IntersectKernel {
            offsets,
            neighbors,
            accum: PropertyArray::filled_f64(n, 0.0),
        }
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn adjacency(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Per-vertex accumulators (`2·t(v)` after one Edge phase).
    pub fn per_vertex(&self) -> &PropertyArray {
        &self.accum
    }

    /// The global triangle count from the accumulated per-vertex counts.
    pub fn total_triangles(&self) -> u64 {
        let sum: f64 = (0..self.num_vertices())
            .map(|v| self.accum.get_f64(v))
            .sum();
        let sum = sum as u64;
        debug_assert!(sum.is_multiple_of(6), "per-vertex triangle sum must be 6T");
        sum / 6
    }
}

impl EdgeKernel for IntersectKernel {
    #[inline]
    fn op(&self) -> AggOp {
        AggOp::Sum
    }

    #[inline]
    fn accumulators(&self) -> &PropertyArray {
        &self.accum
    }

    #[inline]
    fn needs_weights(&self) -> bool {
        false
    }

    #[inline]
    fn message(&self, src: u32, dst: u32, _weight: f64) -> f64 {
        if src == dst {
            0.0
        } else {
            sorted_intersect_count(self.adjacency(src), self.adjacency(dst)) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::simd::SimdLevel;

    #[test]
    fn sorted_intersect_counts() {
        assert_eq!(sorted_intersect_count(&[], &[]), 0);
        assert_eq!(sorted_intersect_count(&[1, 2, 3], &[]), 0);
        assert_eq!(sorted_intersect_count(&[1, 3, 5], &[2, 4, 6]), 0);
        assert_eq!(sorted_intersect_count(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(sorted_intersect_count(&[7], &[7]), 1);
    }

    #[test]
    fn scatter_combine_disciplines() {
        let acc = PropertyArray::filled_f64(4, 0.0);
        scatter_combine(AggOp::Sum, false, &acc, 0, 2.5);
        scatter_combine(AggOp::Sum, false, &acc, 0, 1.5);
        assert_eq!(acc.get_f64(0), 4.0);
        let acc = PropertyArray::filled_f64(4, f64::INFINITY);
        scatter_combine(AggOp::Min, false, &acc, 1, 3.0);
        scatter_combine(AggOp::Min, false, &acc, 1, 7.0);
        assert_eq!(acc.get_f64(1), 3.0);
        let acc = PropertyArray::filled_f64(4, f64::NEG_INFINITY);
        scatter_combine(AggOp::Max, true, &acc, 2, -1.0);
        scatter_combine(AggOp::Max, true, &acc, 2, -5.0);
        assert_eq!(acc.get_f64(2), -1.0);
    }

    fn symmetric(pairs: &[(u32, u32)], n: usize) -> Graph {
        let mut el = EdgeList::new(n);
        for &(a, b) in pairs {
            el.push(a, b).unwrap();
            el.push(b, a).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn intersect_kernel_counts_one_triangle() {
        // Triangle 0-1-2 plus a pendant 2-3.
        let g = symmetric(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let k = IntersectKernel::from_graph(&g);
        // Per-edge messages via the scalar path: 2t(v) at each corner.
        for v in 0..4u32 {
            let mut acc = 0.0;
            for &u in k.adjacency(v) {
                acc += k.message(u, v, 0.0);
            }
            let expect = if v < 3 { 2.0 } else { 0.0 };
            assert_eq!(acc, expect, "vertex {v}");
        }
    }

    #[test]
    fn intersect_kernel_drops_self_loops() {
        let mut el = EdgeList::new(3);
        el.push(0, 0).unwrap();
        el.push(0, 1).unwrap();
        el.push(1, 0).unwrap();
        let g = Graph::from_edgelist(&el).unwrap();
        let k = IntersectKernel::from_graph(&g);
        assert_eq!(k.adjacency(0), &[1]);
        assert_eq!(k.message(0, 0, 0.0), 0.0);
    }

    struct MiniProg {
        vals: PropertyArray,
        acc: PropertyArray,
    }
    impl GraphProgram for MiniProg {
        fn num_vertices(&self) -> usize {
            self.vals.len()
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
        fn apply(&self, _v: u32) -> bool {
            false
        }
        fn uses_frontier(&self) -> bool {
            false
        }
    }

    /// Every `(dst, aggregate)` a kernel's pull run produces over the whole
    /// structure, trailing destination included.
    fn pull_all<K: EdgeKernel>(kern: &K, vsd: &Vsd, frontier: &Frontier) -> Vec<(u64, f64)> {
        let op = kern.op();
        let mut carry = Carry::new(vsd.vectors()[0].top_level_vertex(), op.identity());
        let mut out = Vec::new();
        // SAFETY: `vsd` is the structure `kern` was built over.
        unsafe {
            kern.pull_run(
                kern.simd(),
                vsd,
                0..vsd.num_vectors(),
                frontier,
                &mut carry,
                &mut |d, v| out.push((d, v)),
            );
        }
        out.push((carry.dest, carry.reduce(|a, b| op.combine(a, b))));
        out
    }

    #[test]
    fn semiring_pull_run_matches_scalar_messages() {
        let g = symmetric(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let prog = MiniProg {
            vals: PropertyArray::filled_f64(4, 0.0),
            acc: PropertyArray::filled_f64(4, 0.0),
        };
        for v in 0..4 {
            prog.vals.set_f64(v, (v as f64) + 0.5);
        }
        let odd = Frontier::from_vertices(4, &[1, 3]);
        for level in [SimdLevel::Scalar, simd::detect()] {
            let kern = program_kernel(&prog, &vsd, Kernels::with_level(level));
            for frontier in [Frontier::all(4), Frontier::sparse(4, &[1, 3])] {
                let want: Vec<(u64, f64)> = (0..4u32)
                    .map(|dst| {
                        let sum = g
                            .in_neighbors(dst)
                            .iter()
                            .filter(|&&s| frontier.contains(s))
                            .map(|&s| kern.message(s, dst, 0.0))
                            .sum();
                        (dst as u64, sum)
                    })
                    .collect();
                assert_eq!(pull_all(&kern, &vsd, &frontier), want, "{level:?}");
                if !frontier.is_all() {
                    assert_eq!(pull_all(&kern, &vsd, &odd), want, "{level:?} dense");
                }
            }
        }
    }

    #[test]
    fn intersect_kernel_pulls_through_the_per_edge_default() {
        let g = symmetric(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let k = IntersectKernel::from_graph(&g);
        let got = pull_all(&k, &vsd, &Frontier::all(4));
        assert_eq!(got, vec![(0, 2.0), (1, 2.0), (2, 2.0), (3, 0.0)]);
    }
}
