//! SIMD kernels over edge vectors, with runtime dispatch.
//!
//! The paper's vectorized pull loop (§4, Listing 7) is a single-level loop
//! over edge vectors that issues masked gathers predicated on the per-lane
//! valid bits, keeps a *vector* accumulator, and reduces it only when the
//! embedded top-level-vertex id changes. The kernel boundary is therefore
//! the *run of vectors*, not the vector:
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
//! An edge vector holds eight 32-bit lanes; the accumulator holds four
//! `f64` partials. Each vector's two 4-lane halves fold into the same four
//! partials, low half first, so edge `r` of a destination lands in partial
//! `r mod 4`, in edge order — the order the paper's four 64-bit lanes gave
//! — and a destination's aggregate is `(p0 ⊕ p2) ⊕ (p1 ⊕ p3)`.
//!
//! Dispatch is chosen once via [`detect`]: AVX2 `_mm256_mask_i32gather_pd`
//! (two per vector, one per half) when available, otherwise a scalar twin
//! ([`scalar`]) that keeps the same four lane accumulators and combines in
//! the same order, so both levels produce bit-identical aggregates; the
//! scalar twin also serves as the "non-vectorized" arm of Figure 10.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

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
/// `Σ values[src] · w` — weighted aggregation over the edge weights.
pub struct WeightedSum;
/// `min (values[src] + w)` — the min-plus kernel of Single-Source
/// Shortest-Paths.
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

/// The weights of a vector with `valid` valid lanes, `at` weights into a
/// run's: bounds-checked, so the walkers read only the run's own weights.
#[inline]
fn vector_weights(weights: &[f64], at: usize, valid: usize) -> &[f64] {
    weights
        .get(at..at + valid)
        .expect("weighted reduction needs one weight per valid lane")
}

/// Which *source* vertices take part in a gather: a valid lane is enabled
/// only if its neighbor passes the filter (the frontier mask of §5).
pub trait LaneFilter: Copy {
    /// Every source passes, so a lane's valid bit alone is its gather mask.
    const ALL: bool = false;

    /// Whether source `src` is active.
    fn contains(&self, src: u64) -> bool;

    /// The filter's bitmap words when it is one, so the AVX2 walker can
    /// test eight lanes with one gather instead of eight scalar probes.
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

/// Sources present in a strictly ascending vertex list (O(log n) per lane).
/// A pull over a near-empty frontier, which the driver keeps as a list,
/// filters through this: every forced-pull run's tail takes it.
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
    pub vectors: &'a [EdgeVector],
    /// The edge weights from the run's first lane on, one per valid lane
    /// in lane order (the structure's weights from
    /// [`VectorSparse::edge_position`](crate::build::VectorSparse::edge_position)
    /// of the run's first vector); the walkers advance through it by each
    /// vector's valid count. Read only by [`Reduction::WEIGHTED`]
    /// reductions and may be empty otherwise.
    pub weights: &'a [f64],
    /// Bitmap of destinations that ignore every message. Tested once per
    /// destination; such a destination's aggregate is the identity.
    pub converged: Option<&'a [AtomicU64]>,
}

impl<'a> Run<'a> {
    /// A run with no weight vectors and no converged set.
    pub fn unweighted(values: &'a [f64], vectors: &'a [EdgeVector]) -> Self {
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

    /// The destination's TLV pieces in lane position: what a vector's
    /// lanes masked by [`TLV_FIELD`](crate::format::TLV_FIELD) are when
    /// they belong to it, for the walkers' transition test.
    #[inline]
    fn tlv_field(&self) -> [u32; crate::format::LANES] {
        *EdgeVector::new(self.dest, &[]).lanes()
    }
}

/// The dispatched gather-reduce walker.
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
    /// A weighted reduction reads one weight per valid lane from
    /// [`Run::weights`]; a run whose weights run out panics.
    ///
    /// # Safety
    /// Every valid lane of `run.vectors` must hold a neighbor id
    /// `< run.values.len()` that `filter` covers (a bitmap of at least that
    /// many bits), and the valid lanes of every vector must be a prefix of
    /// it. Vectors built by
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
            let valid = ev.valid_mask();
            assert!(valid & (valid + 1) == 0, "valid lanes must be a prefix");
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Degree-11 vertex 3 across two vectors, then vertex 4.
        let vectors = [
            EdgeVector::new(3, &[1, 2, 3, 4, 5, 6, 7, 8]),
            EdgeVector::new(3, &[9, 10, 11]),
            EdgeVector::new(4, &[8]),
        ];
        for k in levels() {
            let got = aggregates::<Sum, _>(k, Run::unweighted(&v, &vectors), AllActive);
            assert_eq!(got, vec![(3, 66.0 * 1.5), (4, 12.0)], "{:?}", k.level());
        }
    }

    #[test]
    fn filters_mask_sources_and_identities_survive_empty_vectors() {
        let v = values();
        let vectors = [
            EdgeVector::new(0, &[1, 2, 3, 4, 5, 6]),
            EdgeVector::new(1, &[]),
            EdgeVector::new(2, &[9, 10]),
        ];
        let odd = [AtomicU64::new(0xAAAA)];
        let list: Vec<VertexId> = vec![1, 3, 5, 9];
        for k in levels() {
            let run = Run::unweighted(&v, &vectors);
            let by_bitmap = aggregates::<Sum, _>(k, run, ActiveBitmap(&odd));
            let by_list = aggregates::<Sum, _>(k, run, ActiveList(&list));
            let want = vec![(0, 1.5 + 4.5 + 7.5), (1, 0.0), (2, 13.5)];
            assert_eq!(by_bitmap, want, "{:?}", k.level());
            assert_eq!(by_list, want, "{:?}", k.level());
            let mins = aggregates::<Min, _>(k, run, ActiveBitmap(&odd));
            assert_eq!(mins, vec![(0, 1.5), (1, f64::INFINITY), (2, 13.5)]);
            let maxs = aggregates::<Max, _>(k, run, AllActive);
            assert_eq!(maxs, vec![(0, 9.0), (1, f64::NEG_INFINITY), (2, 15.0)]);
        }
    }

    #[test]
    fn weighted_reductions_read_the_parallel_weight_vectors() {
        let v = values();
        let vectors = [
            EdgeVector::new(5, &[2, 4]),
            EdgeVector::new(6, &[1, 2, 3, 1, 1]),
        ];
        // One weight per valid lane, no padding.
        let weights = [10.0, 100.0, 5.0, 0.25, 1.0, 2.0, 4.0];
        let run = Run {
            weights: &weights,
            ..Run::unweighted(&v, &vectors)
        };
        for k in levels() {
            let sums = aggregates::<WeightedSum, _>(k, run, AllActive);
            assert_eq!(
                sums,
                vec![(5, 30.0 + 600.0), (6, 7.5 + 0.75 + 4.5 + 3.0 + 6.0)]
            );
            let mins = aggregates::<MinPlus, _>(k, run, AllActive);
            assert_eq!(mins, vec![(5, 13.0), (6, 3.25)]);
            // A run starting at the second vector starts at its weights.
            let tail = Run {
                vectors: &vectors[1..],
                weights: &weights[2..],
                ..run
            };
            assert_eq!(
                aggregates::<MinPlus, _>(k, tail, AllActive),
                vec![(6, 3.25)]
            );
        }
    }

    #[test]
    fn converged_destinations_aggregate_the_identity() {
        let v = values();
        let vectors = [
            EdgeVector::new(0, &[1, 2]),
            EdgeVector::new(1, &[3]),
            EdgeVector::new(1, &[4]),
            EdgeVector::new(2, &[5]),
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
        let vectors = [EdgeVector::new(0, &[100])];
        aggregates::<Sum, _>(
            Kernels::with_level(SimdLevel::Scalar),
            Run::unweighted(&v, &vectors),
            AllActive,
        );
    }

    #[test]
    #[should_panic(expected = "one weight per valid lane")]
    fn weighted_walk_refuses_missing_weights() {
        let v = values();
        let vectors = [EdgeVector::new(0, &[1])];
        aggregates::<MinPlus, _>(
            Kernels::with_level(SimdLevel::Scalar),
            Run::unweighted(&v, &vectors),
            AllActive,
        );
    }

    /// Source ids of the fold-order proptest.
    const SOURCES: u64 = 40;

    /// Destinations in the builder's layout: `(dest, sources)` each, its
    /// `ceil(d/8)` vectors (full but the last) and compact weights.
    struct Layout {
        dests: Vec<(u64, Vec<u64>)>,
        vectors: Vec<EdgeVector>,
        weights: Vec<f64>,
    }

    fn layout(base: u64, shape: &[(u64, Vec<u64>)], weights: &[f64]) -> Layout {
        let mut out = Layout {
            dests: Vec::new(),
            vectors: Vec::new(),
            weights: Vec::new(),
        };
        let mut dest = base;
        for (gap, sources) in shape {
            dest += gap;
            for chunk in sources.chunks(crate::format::LANES) {
                out.vectors.push(EdgeVector::new(dest, chunk));
            }
            for _ in sources {
                out.weights.push(weights[out.weights.len() % weights.len()]);
            }
            out.dests.push((dest, sources.clone()));
            dest += 1;
        }
        out
    }

    /// An aggregate's bits, every NaN as one: a NaN result carries no
    /// guaranteed sign or payload (the compiler may swap the operands of
    /// an addition, and the hardware's default NaN is negative), while
    /// every other bit pattern, both zeros included, must match.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// The fold order spelled out: edge `r` of each destination, in edge
    /// order, into partial `r mod 4`, reduced as `(p0 ⊕ p2) ⊕ (p1 ⊕ p3)`;
    /// one aggregate per destination with vectors.
    fn reference<R: Reduction>(
        l: &Layout,
        values: &[f64],
        active: impl Fn(u64) -> bool,
        converged: impl Fn(u64) -> bool,
        message: impl Fn(f64, f64) -> f64,
    ) -> Vec<(u64, u64)> {
        let mut w = l.weights.iter();
        let mut out = Vec::new();
        for (dest, sources) in &l.dests {
            let mut p = [R::IDENTITY; 4];
            for (r, &src) in sources.iter().enumerate() {
                let weight = *w.next().unwrap();
                if active(src) && !converged(*dest) {
                    p[r % 4] =
                        scalar::combine::<R>(p[r % 4], message(values[src as usize], weight));
                }
            }
            let c = scalar::combine::<R>;
            if !sources.is_empty() {
                out.push((*dest, bits(c(c(p[0], p[2]), c(p[1], p[3])))));
            }
        }
        out
    }

    /// One walk at `k` over `l` cut at vector `split`, a carry threaded
    /// through both pieces, the second piece's weights starting at its
    /// first vector's first lane.
    fn walked<R: Reduction, F: LaneFilter>(
        k: Kernels,
        l: &Layout,
        values: &[f64],
        filter: F,
        converged: Option<&[AtomicU64]>,
        split: usize,
    ) -> Vec<(u64, u64)> {
        let Some(first) = l.vectors.first() else {
            return Vec::new();
        };
        let mut carry = Carry::new(first.top_level_vertex(), R::IDENTITY);
        let mut out = Vec::new();
        let split = split % (l.vectors.len() + 1);
        let lanes_before: usize = l.vectors[..split]
            .iter()
            .map(|v| v.count_valid() as usize)
            .sum();
        for (vectors, weights) in [
            (&l.vectors[..split], &l.weights[..]),
            (&l.vectors[split..], &l.weights[lanes_before..]),
        ] {
            let run = Run {
                values,
                vectors,
                weights,
                converged,
            };
            k.walk_checked::<R, F, _>(run, filter, &mut carry, &mut |d, v| out.push((d, bits(v))));
        }
        out.push((carry.dest, bits(carry.reduce(scalar::combine::<R>))));
        out
    }

    /// Every level against the reference, under all three filters.
    #[allow(clippy::too_many_arguments)]
    fn check<R: Reduction>(
        l: &Layout,
        values: &[f64],
        bitmap: &[AtomicU64],
        list: &[VertexId],
        converged: Option<&[AtomicU64]>,
        split: usize,
        message: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Result<(), TestCaseError> {
        let conv = |d: u64| converged.is_some_and(|c| bitmap_contains(c, d));
        let all = reference::<R>(l, values, |_| true, conv, message);
        let by_bitmap = reference::<R>(l, values, |s| bitmap_contains(bitmap, s), conv, message);
        let by_list = reference::<R>(l, values, |s| list.contains(&(s as u32)), conv, message);
        for k in levels() {
            let at = format!("{:?}", k.level());
            let walked_all = walked::<R, _>(k, l, values, AllActive, converged, split);
            prop_assert_eq!(walked_all, all.clone(), "{} all", at);
            let walked_bitmap =
                walked::<R, _>(k, l, values, ActiveBitmap(bitmap), converged, split);
            prop_assert_eq!(walked_bitmap, by_bitmap.clone(), "{} bitmap", at);
            let walked_list = walked::<R, _>(k, l, values, ActiveList(list), converged, split);
            prop_assert_eq!(walked_list, by_list.clone(), "{} list", at);
        }
        Ok(())
    }

    /// Values and weights drawn from `bits`, a draw below 8 picking one of
    /// −0.0, 0.0, NaN, ±∞ and three small numbers.
    fn special(pick: u8, bits: u64) -> f64 {
        match pick {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1.0,
            6 => -2.5,
            7 => 0.1,
            _ => (bits % 100_000) as f64 / 7.0 - 5000.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The walkers keep the fold order of the paper's four-lane
        /// vectors: at both levels, for all five reductions and all three
        /// filters, every aggregate's bits equal a fold of edge `r` of each
        /// destination into partial `r mod 4` in edge order, reduced as
        /// `(p0 ⊕ p2) ⊕ (p1 ⊕ p3)`. Degrees 0 to 20 (so `d mod 8` in 1..4,
        /// an upper half all padding, too), values and weights including
        /// −0.0, NaN and ±∞, destinations with high TLV pieces, a
        /// converged set, and runs cut mid-destination whose weights start
        /// at their first vector's first lane.
        #[test]
        fn prop_walk_folds_edge_r_into_partial_r_mod_4(
            high in any::<bool>(),
            shape in proptest::collection::vec(
                (0u64..4, proptest::collection::vec(0u64..SOURCES, 0..=20)),
                1..8,
            ),
            values in proptest::collection::vec((0u8..12, any::<u64>()), SOURCES as usize),
            weights in proptest::collection::vec((0u8..12, any::<u64>()), 1..24),
            bitmap_bits: u64,
            list in proptest::collection::vec(0u32..SOURCES as u32, 0..12),
            converged_bits: u64,
            split in 0usize..40,
        ) {
            let base = if high { u64::from(crate::format::VERTEX_MASK) - 40 } else { 0 };
            let weights: Vec<f64> = weights.iter().map(|&(p, b)| special(p, b)).collect();
            let l = layout(base, &shape, &weights);
            let values: Vec<f64> = values.iter().map(|&(p, b)| special(p, b)).collect();
            let bitmap = [AtomicU64::new(bitmap_bits)];
            let mut list = list;
            list.sort_unstable();
            list.dedup();
            // A converged bitmap covers the low destinations only.
            let conv = [AtomicU64::new(converged_bits)];
            let converged = (!high).then_some(&conv[..]);
            check::<Sum>(&l, &values, &bitmap, &list, converged, split, |v, _| v)?;
            check::<Min>(&l, &values, &bitmap, &list, converged, split, |v, _| v)?;
            check::<Max>(&l, &values, &bitmap, &list, converged, split, |v, _| v)?;
            check::<WeightedSum>(&l, &values, &bitmap, &list, converged, split, |v, w| v * w)?;
            check::<MinPlus>(&l, &values, &bitmap, &list, converged, split, |v, w| v + w)?;
        }
    }
}
