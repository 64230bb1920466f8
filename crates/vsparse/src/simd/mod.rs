//! SIMD kernels over edge vectors, with runtime dispatch.
//!
//! The paper's vectorized pull loop (§4, Listing 7) is a single-level loop
//! over edge vectors that issues one `vgatherqpd` per vector, predicated on
//! the per-lane valid bits, keeps a *vector* accumulator, and reduces it
//! only when the embedded top-level-vertex id changes. The 4-lane kernel
//! boundary is therefore the *run of vectors*, not the vector:
//! [`Kernels::walk`] drives one contiguous [`Run`] through a walker that is
//! monomorphic in
//!
//! * the [`Reduction`] — [`Sum`] (PageRank), [`Min`] / [`Max`] (Connected
//!   Components, widest path), [`WeightedSum`] (Collaborative-Filtering
//!   style) and [`MinPlus`] (Single-Source Shortest-Paths), and
//! * the [`LaneFilter`] that folds frontier membership into the gather
//!   predication — [`AllActive`], [`ActiveBitmap`] or [`ActiveList`],
//!
//! and hands every finished destination's `(dest, aggregate)` to an inlined
//! sink. Partials stay lane-wise across all of a destination's vectors
//! ([`Carry`]), so a run may start or stop mid-destination.
//!
//! Dispatch is chosen once via [`detect`]: AVX2 `_mm256_mask_i64gather_pd`
//! when available — the paper's instruction — otherwise a scalar twin
//! ([`scalar`]) that keeps the same four lane accumulators and combines in
//! the same order, so both levels produce bit-identical aggregates; the
//! scalar twin also serves as the "non-vectorized" arm of Figure 10.
//!
//! The 8-lane [`Kernels8`] set keeps the per-vector boundary; it backs the
//! vector-width ablation only.

pub mod scalar;
pub mod scalar8;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

use crate::vector::EdgeVector;
use grazelle_graph::types::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which kernel implementation a [`Kernels`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loop (also the Figure 10 baseline).
    Scalar,
    /// 256-bit AVX2 with hardware masked gathers.
    Avx2,
}

/// Detects the best level supported by the running CPU.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// How a reduction folds a message into a lane accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// `acc + x`.
    Add,
    /// `x` when `x < acc`, else `acc` (what `vminpd x, acc` computes).
    Min,
    /// `x` when `x > acc`, else `acc` (what `vmaxpd x, acc` computes).
    Max,
}

/// How a message is derived from the gathered source value and the lane's
/// edge weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// The gathered value itself.
    Value,
    /// `value * weight`.
    TimesWeight,
    /// `value + weight`.
    PlusWeight,
}

/// A gather-reduce the walkers are specialised for at compile time. The
/// implementors are zero-sized; [`scalar`] and [`avx2`] each read the two
/// constants in one `match` that folds away per instantiation, which keeps
/// the scalar and vector formulas side by side in their own files.
pub trait Reduction {
    /// The lane-wise fold.
    const COMBINE: Combine;
    /// The per-lane message.
    const MESSAGE: Message;
    /// The fold's identity: what disabled lanes gather and where partials
    /// start.
    const IDENTITY: f64 = match Self::COMBINE {
        Combine::Add => 0.0,
        Combine::Min => f64::INFINITY,
        Combine::Max => f64::NEG_INFINITY,
    };
    /// Whether [`Run::weights`] is read.
    const WEIGHTED: bool = !matches!(Self::MESSAGE, Message::Value);
}

/// `Σ values[src]` — PageRank-style summation.
pub struct Sum;
/// `min values[src]` — Connected Components, Breadth-First Search.
pub struct Min;
/// `max values[src]` — widest-path style selection.
pub struct Max;
/// `Σ values[src] · w` — weighted aggregation over the appended weight
/// vectors. Padding weight lanes are 0.0 by construction.
pub struct WeightedSum;
/// `min (values[src] + w)` — the min-plus kernel of Single-Source
/// Shortest-Paths. Weight lanes must be finite (padding lanes are 0.0).
pub struct MinPlus;

impl Reduction for Sum {
    const COMBINE: Combine = Combine::Add;
    const MESSAGE: Message = Message::Value;
}
impl Reduction for Min {
    const COMBINE: Combine = Combine::Min;
    const MESSAGE: Message = Message::Value;
}
impl Reduction for Max {
    const COMBINE: Combine = Combine::Max;
    const MESSAGE: Message = Message::Value;
}
impl Reduction for WeightedSum {
    const COMBINE: Combine = Combine::Add;
    const MESSAGE: Message = Message::TimesWeight;
}
impl Reduction for MinPlus {
    const COMBINE: Combine = Combine::Min;
    const MESSAGE: Message = Message::PlusWeight;
}

/// Tests bit `v` of a bitmap stored as 64-bit words.
#[inline]
fn bitmap_contains(words: &[AtomicU64], v: u64) -> bool {
    // ATOMIC: relaxed-cell — the Edge phase only reads bitmaps the previous
    // Vertex phase finished writing; the phase barrier publishes them
    words[(v >> 6) as usize].load(Ordering::Relaxed) & (1 << (v & 63)) != 0
}

/// Which *source* vertices take part in a gather: a valid lane is enabled
/// only if its neighbor passes the filter (the frontier mask of §5).
pub trait LaneFilter: Copy {
    /// Every source passes, so a lane's valid bit alone is its gather mask.
    const ALL: bool = false;

    /// Whether source `src` is active.
    fn contains(&self, src: u64) -> bool;

    /// The filter's bitmap words when it is one, so the AVX2 walker can
    /// test four lanes with one gather instead of four scalar probes.
    #[inline]
    fn bitmap(&self) -> Option<&[AtomicU64]> {
        None
    }
}

/// Every source is active (frontier-less programs, all-active frontiers).
#[derive(Debug, Clone, Copy)]
pub struct AllActive;

impl LaneFilter for AllActive {
    const ALL: bool = true;
    #[inline]
    fn contains(&self, _src: u64) -> bool {
        true
    }
}

/// Sources whose bit is set in a dense bitmap (one bit per vertex).
#[derive(Debug, Clone, Copy)]
pub struct ActiveBitmap<'a>(pub &'a [AtomicU64]);

impl LaneFilter for ActiveBitmap<'_> {
    #[inline]
    fn contains(&self, src: u64) -> bool {
        bitmap_contains(self.0, src)
    }
    #[inline]
    fn bitmap(&self) -> Option<&[AtomicU64]> {
        Some(self.0)
    }
}

/// Sources present in a strictly ascending vertex list (O(log n) per lane;
/// the drivers only pull over occupied frontiers, which stay dense).
#[derive(Debug, Clone, Copy)]
pub struct ActiveList<'a>(pub &'a [VertexId]);

impl LaneFilter for ActiveList<'_> {
    #[inline]
    fn contains(&self, src: u64) -> bool {
        VertexId::try_from(src).is_ok_and(|v| self.0.binary_search(&v).is_ok())
    }
}

/// One contiguous run of edge vectors and the arrays its gathers read.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Per-vertex values, indexed by a lane's neighbor id.
    pub values: &'a [f64],
    /// The vectors to walk, in array order.
    pub vectors: &'a [EdgeVector<4>],
    /// Per-vector weight lanes, parallel to `vectors`; read only by
    /// [`Reduction::WEIGHTED`] reductions and may be empty otherwise.
    pub weights: &'a [[f64; 4]],
    /// Bitmap of destinations that ignore every message. Tested once per
    /// destination; such a destination's aggregate is the identity.
    pub converged: Option<&'a [AtomicU64]>,
}

impl<'a> Run<'a> {
    /// A run with no weight vectors and no converged set.
    pub fn unweighted(values: &'a [f64], vectors: &'a [EdgeVector<4>]) -> Self {
        Run {
            values,
            vectors,
            weights: &[],
            converged: None,
        }
    }
}

/// The walkers' state between runs: the destination being aggregated and
/// its four lane-wise partials. A chunk that resumes mid-destination, or
/// whose vectors arrive as several disjoint runs, threads one `Carry`
/// through every call and reads the trailing aggregate off it at the end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Carry {
    /// The top-level vertex the partials belong to.
    pub dest: u64,
    lanes: [f64; 4],
}

impl Carry {
    /// Starts aggregating `dest` from `identity`.
    #[inline]
    pub fn new(dest: u64, identity: f64) -> Self {
        Carry {
            dest,
            lanes: [identity; 4],
        }
    }

    /// Folds `x` into lane `i`'s partial — for kernels that derive their
    /// messages edge by edge rather than through [`Kernels::walk`].
    #[inline]
    pub fn fold_lane(&mut self, i: usize, x: f64, combine: impl Fn(f64, f64) -> f64) {
        self.lanes[i] = combine(self.lanes[i], x);
    }

    /// Folds the four lane partials as `(l0 ⊕ l2) ⊕ (l1 ⊕ l3)` — the order
    /// of a 256→128→64-bit horizontal reduction, used by both levels.
    #[inline]
    pub fn reduce(&self, combine: impl Fn(f64, f64) -> f64) -> f64 {
        let [l0, l1, l2, l3] = self.lanes;
        combine(combine(l0, l2), combine(l1, l3))
    }

    /// The destination's TLV pieces in lane position, for the AVX2 walker's
    /// one-compare transition test.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn tlv_field(&self) -> [u64; 4] {
        crate::format::encode_tlv::<4>(self.dest).map(|piece| piece << crate::format::TLV_SHIFT)
    }
}

/// The dispatched 4-lane gather-reduce walker.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    level: SimdLevel,
}

impl Kernels {
    /// Kernels at an explicit level (used by the Figure 10 comparison).
    pub fn with_level(level: SimdLevel) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(level == SimdLevel::Scalar, "AVX2 kernels require x86_64");
        Kernels { level }
    }

    /// Kernels at the best detected level.
    pub fn auto() -> Self {
        Kernels { level: detect() }
    }

    /// The dispatched level.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Walks `run`, folding every enabled lane's message into `carry` and
    /// calling `sink(dest, aggregate)` each time the top-level vertex
    /// changes — so after the call `carry` holds the run's last destination
    /// and its partial, and every earlier destination has been handed over
    /// exactly once, in array order. A lane is enabled when its valid bit is
    /// set, its neighbor passes `filter`, and its destination is not in
    /// [`Run::converged`].
    ///
    /// # Safety
    /// Every valid lane of `run.vectors` must hold a neighbor id
    /// `< run.values.len()` that `filter` covers (a bitmap of at least that
    /// many bits). Vectors built by
    /// [`VectorSparse::from_csr`](crate::build::VectorSparse::from_csr)
    /// satisfy this whenever both cover `num_vertices()`. Invalid lanes are
    /// never dereferenced (that is the point of predication).
    #[inline]
    pub unsafe fn walk<R: Reduction, F: LaneFilter, S: FnMut(u64, f64)>(
        &self,
        run: Run<'_>,
        filter: F,
        carry: &mut Carry,
        sink: &mut S,
    ) {
        assert!(
            !R::WEIGHTED || run.weights.len() == run.vectors.len(),
            "weighted reduction needs one weight vector per edge vector"
        );
        match self.level {
            // SAFETY: forwarded caller contract.
            SimdLevel::Scalar => unsafe { scalar::walk::<R, F, S>(run, filter, carry, sink) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: forwarded caller contract; `level` is only `Avx2`
            // when the CPU reported it or the caller asked for it by name.
            SimdLevel::Avx2 => unsafe { avx2::walk::<R, F, S>(run, filter, carry, sink) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => unreachable!(),
        }
    }

    /// Bounds-checked [`Kernels::walk`]: asserts the safety contract over
    /// every valid lane first (examples, tests, one-off probes).
    pub fn walk_checked<R: Reduction, F: LaneFilter, S: FnMut(u64, f64)>(
        &self,
        run: Run<'_>,
        filter: F,
        carry: &mut Carry,
        sink: &mut S,
    ) {
        let covered = filter
            .bitmap()
            .map_or(run.values.len(), |w| run.values.len().min(w.len() * 64));
        for ev in run.vectors {
            for n in ev.valid_neighbors() {
                assert!(
                    (n as usize) < covered,
                    "neighbor {n} out of bounds ({covered} values covered)"
                );
            }
        }
        // SAFETY: every valid lane id was just checked against `values`
        // and the filter's bitmap.
        unsafe { self.walk::<R, F, S>(run, filter, carry, sink) }
    }
}

impl Default for Kernels {
    fn default() -> Self {
        Kernels::auto()
    }
}

/// Which 8-lane (512-bit) kernel implementation a [`Kernels8`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simd8Level {
    /// Portable scalar loop over the 8 lanes.
    Scalar,
    /// 512-bit AVX-512F with mask-register-predicated gathers.
    Avx512,
}

/// Detects the best 8-lane level supported by the running CPU.
pub fn detect8() -> Simd8Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Simd8Level::Avx512;
        }
    }
    Simd8Level::Scalar
}

/// Dispatched gather-reduce kernels over 8-lane edge vectors — the paper's
/// AVX-512 extension (§4, "longer vectors"). Same safety contract as
/// [`Kernels`], with 8-bit lane masks.
#[derive(Debug, Clone, Copy)]
pub struct Kernels8 {
    level: Simd8Level,
}

impl Kernels8 {
    /// Kernels at an explicit level.
    pub fn with_level(level: Simd8Level) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(
            level == Simd8Level::Scalar,
            "AVX-512 kernels require x86_64"
        );
        Kernels8 { level }
    }

    /// Kernels at the best detected level.
    pub fn auto() -> Self {
        Kernels8 { level: detect8() }
    }

    /// The dispatched level.
    pub fn level(&self) -> Simd8Level {
        self.level
    }

    /// Sum of `values[neighbor]` over enabled lanes.
    ///
    /// # Safety
    /// Every enabled lane must hold a neighbor id `< values.len()`.
    #[inline]
    pub unsafe fn gather_sum_raw(
        &self,
        values: &[f64],
        ev: &EdgeVector<8>,
        extra_mask: u32,
    ) -> f64 {
        match self.level {
            Simd8Level::Scalar => scalar8::gather_sum(values, ev, extra_mask),
            #[cfg(target_arch = "x86_64")]
            Simd8Level::Avx512 => avx512::gather_sum(values, ev, extra_mask),
            #[cfg(not(target_arch = "x86_64"))]
            Simd8Level::Avx512 => unreachable!(),
        }
    }

    /// Minimum over enabled lanes (+∞ identity).
    ///
    /// # Safety
    /// Every enabled lane must hold a neighbor id `< values.len()`.
    #[inline]
    pub unsafe fn gather_min_raw(
        &self,
        values: &[f64],
        ev: &EdgeVector<8>,
        extra_mask: u32,
    ) -> f64 {
        match self.level {
            Simd8Level::Scalar => scalar8::gather_min(values, ev, extra_mask),
            #[cfg(target_arch = "x86_64")]
            Simd8Level::Avx512 => avx512::gather_min(values, ev, extra_mask),
            #[cfg(not(target_arch = "x86_64"))]
            Simd8Level::Avx512 => unreachable!(),
        }
    }

    /// Maximum over enabled lanes (−∞ identity).
    ///
    /// # Safety
    /// Every enabled lane must hold a neighbor id `< values.len()`.
    #[inline]
    pub unsafe fn gather_max_raw(
        &self,
        values: &[f64],
        ev: &EdgeVector<8>,
        extra_mask: u32,
    ) -> f64 {
        match self.level {
            Simd8Level::Scalar => scalar8::gather_max(values, ev, extra_mask),
            #[cfg(target_arch = "x86_64")]
            Simd8Level::Avx512 => avx512::gather_max(values, ev, extra_mask),
            #[cfg(not(target_arch = "x86_64"))]
            Simd8Level::Avx512 => unreachable!(),
        }
    }

    /// Bounds-checked [`Kernels8::gather_sum_raw`].
    pub fn gather_sum(&self, values: &[f64], ev: &EdgeVector<8>, extra_mask: u32) -> f64 {
        Self::check(values, ev);
        // SAFETY: check() just asserted every lane id is within `values`.
        unsafe { self.gather_sum_raw(values, ev, extra_mask) }
    }

    /// Bounds-checked [`Kernels8::gather_min_raw`].
    pub fn gather_min(&self, values: &[f64], ev: &EdgeVector<8>, extra_mask: u32) -> f64 {
        Self::check(values, ev);
        // SAFETY: check() just asserted every lane id is within `values`.
        unsafe { self.gather_min_raw(values, ev, extra_mask) }
    }

    /// Bounds-checked [`Kernels8::gather_max_raw`].
    pub fn gather_max(&self, values: &[f64], ev: &EdgeVector<8>, extra_mask: u32) -> f64 {
        Self::check(values, ev);
        // SAFETY: check() just asserted every lane id is within `values`.
        unsafe { self.gather_max_raw(values, ev, extra_mask) }
    }

    fn check(values: &[f64], ev: &EdgeVector<8>) {
        for i in 0..8 {
            if let Some(n) = ev.neighbor(i) {
                assert!(
                    (n as usize) < values.len(),
                    "lane {i} neighbor {n} out of bounds ({} values)",
                    values.len()
                );
            }
        }
    }
}

impl Default for Kernels8 {
    fn default() -> Self {
        Kernels8::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<f64> {
        (0..16).map(|i| i as f64 * 1.5).collect()
    }

    fn levels() -> Vec<Kernels> {
        let mut ks = vec![Kernels::with_level(SimdLevel::Scalar)];
        if detect() == SimdLevel::Avx2 {
            ks.push(Kernels::with_level(SimdLevel::Avx2));
        }
        ks
    }

    /// Walks `vectors` from a fresh carry on their first destination and
    /// returns every `(dest, aggregate)` pair, the trailing one included.
    fn aggregates<R: Reduction, F: LaneFilter>(
        k: Kernels,
        run: Run<'_>,
        filter: F,
    ) -> Vec<(u64, f64)> {
        let mut carry = Carry::new(run.vectors[0].top_level_vertex(), R::IDENTITY);
        let mut out = Vec::new();
        k.walk_checked::<R, F, _>(run, filter, &mut carry, &mut |d, v| out.push((d, v)));
        out.push((carry.dest, carry.reduce(scalar::combine::<R>)));
        out
    }

    #[test]
    fn detection_runs() {
        assert_eq!(Kernels::auto().level(), detect());
    }

    #[test]
    fn sum_keeps_one_partial_across_a_destinations_vectors() {
        let v = values();
        // Degree-7 vertex 3 (the paper's worked example), then vertex 4.
        let vectors = [
            EdgeVector::<4>::new(3, &[1, 2, 3, 4]),
            EdgeVector::<4>::new(3, &[5, 6, 7]),
            EdgeVector::<4>::new(4, &[8]),
        ];
        for k in levels() {
            let got = aggregates::<Sum, _>(k, Run::unweighted(&v, &vectors), AllActive);
            assert_eq!(got, vec![(3, 28.0 * 1.5), (4, 12.0)], "{:?}", k.level());
        }
    }

    #[test]
    fn filters_mask_sources_and_identities_survive_empty_vectors() {
        let v = values();
        let vectors = [
            EdgeVector::<4>::new(0, &[1, 2, 3, 4]),
            EdgeVector::<4>::new(1, &[]),
            EdgeVector::<4>::new(2, &[9, 10]),
        ];
        let odd = [AtomicU64::new(0xAAAA)];
        let list: Vec<VertexId> = vec![1, 3, 9];
        for k in levels() {
            let run = Run::unweighted(&v, &vectors);
            let by_bitmap = aggregates::<Sum, _>(k, run, ActiveBitmap(&odd));
            let by_list = aggregates::<Sum, _>(k, run, ActiveList(&list));
            let want = vec![(0, 1.5 + 4.5), (1, 0.0), (2, 13.5)];
            assert_eq!(by_bitmap, want, "{:?}", k.level());
            assert_eq!(by_list, want, "{:?}", k.level());
            let mins = aggregates::<Min, _>(k, run, ActiveBitmap(&odd));
            assert_eq!(mins, vec![(0, 1.5), (1, f64::INFINITY), (2, 13.5)]);
            let maxs = aggregates::<Max, _>(k, run, AllActive);
            assert_eq!(maxs, vec![(0, 6.0), (1, f64::NEG_INFINITY), (2, 15.0)]);
        }
    }

    #[test]
    fn weighted_reductions_read_the_parallel_weight_vectors() {
        let v = values();
        let vectors = [
            EdgeVector::<4>::new(5, &[2, 4]),
            EdgeVector::<4>::new(6, &[1, 2, 3]),
        ];
        let weights = [[10.0, 100.0, 0.0, 0.0], [5.0, 0.25, 1.0, 0.0]];
        let run = Run {
            weights: &weights,
            ..Run::unweighted(&v, &vectors)
        };
        for k in levels() {
            let sums = aggregates::<WeightedSum, _>(k, run, AllActive);
            assert_eq!(sums, vec![(5, 30.0 + 600.0), (6, 7.5 + 0.75 + 4.5)]);
            let mins = aggregates::<MinPlus, _>(k, run, AllActive);
            assert_eq!(mins, vec![(5, 13.0), (6, 3.25)]);
        }
    }

    #[test]
    fn converged_destinations_aggregate_the_identity() {
        let v = values();
        let vectors = [
            EdgeVector::<4>::new(0, &[1, 2]),
            EdgeVector::<4>::new(1, &[3]),
            EdgeVector::<4>::new(1, &[4]),
            EdgeVector::<4>::new(2, &[5]),
        ];
        let conv = [AtomicU64::new(0b010)];
        let run = Run {
            converged: Some(&conv),
            ..Run::unweighted(&v, &vectors)
        };
        for k in levels() {
            let got = aggregates::<Sum, _>(k, run, AllActive);
            assert_eq!(got, vec![(0, 4.5), (1, 0.0), (2, 7.5)], "{:?}", k.level());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn checked_walk_catches_overrun() {
        let v = values();
        let vectors = [EdgeVector::<4>::new(0, &[100])];
        aggregates::<Sum, _>(
            Kernels::with_level(SimdLevel::Scalar),
            Run::unweighted(&v, &vectors),
            AllActive,
        );
    }

    #[test]
    #[should_panic(expected = "one weight vector per edge vector")]
    fn weighted_walk_refuses_missing_weights() {
        let v = values();
        let vectors = [EdgeVector::<4>::new(0, &[1])];
        aggregates::<MinPlus, _>(
            Kernels::with_level(SimdLevel::Scalar),
            Run::unweighted(&v, &vectors),
            AllActive,
        );
    }
}
