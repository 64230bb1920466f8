//! Equivalence suite for the chunk-granular gather-reduce walker
//! (`simd::Kernels::walk`): over random vector runs — destination
//! transitions, padding lanes, all-invalid vectors, ids that use every TLV
//! piece — the AVX2 and scalar instantiations must agree *bitwise* for all
//! five reductions, with and without a dense source filter and a converged
//! set, whether a run is walked whole, resumed mid-destination, or cut into
//! one-vector chunks; and both must match a plain per-edge fold.

use grazelle_vsparse::simd::{
    detect, scalar, ActiveBitmap, AllActive, Carry, Kernels, LaneFilter, Max, Min, MinPlus,
    Reduction, Run, SimdLevel, Sum, WeightedSum,
};
use grazelle_vsparse::vector::EdgeVector;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source-vertex id space of the generated runs.
const SOURCES: usize = 96;

/// Deterministic splitmix64, so array contents depend only on the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Finite, positive, non-dyadic values: sums depend on association order,
/// so a walker that folds in a different order fails the bitwise checks.
fn random_values(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| 0.1 + (splitmix(&mut s) % 100_000) as f64 / 7.0)
        .collect()
}

fn random_bitmap(bits: usize, seed: u64) -> Vec<AtomicU64> {
    let mut s = seed;
    (0..bits.div_ceil(64))
        .map(|_| AtomicU64::new(splitmix(&mut s)))
        .collect()
}

fn bit(words: &[AtomicU64], v: u64) -> bool {
    words[(v >> 6) as usize].load(Ordering::Relaxed) & (1 << (v & 63)) != 0
}

/// A generated run: vectors in array order, their weights (one per valid
/// lane, in lane order), and the destination ids in first-appearance order.
struct Fixture {
    vectors: Vec<EdgeVector>,
    weights: Vec<f64>,
    dests: Vec<u64>,
}

impl Fixture {
    /// The weights of the vectors before vector `at`.
    fn lanes_before(&self, at: usize) -> usize {
        self.vectors[..at]
            .iter()
            .map(|v| v.count_valid() as usize)
            .sum()
    }
}

/// `shape[d]` lists destination `d`'s vectors as neighbor lists of 0..=8
/// ids. Destination ids ascend from `base` with the generated gaps, so
/// high TLV pieces are exercised as well as low ones.
fn fixture(base: u64, shape: &[(u64, Vec<Vec<u64>>)], seed: u64) -> Fixture {
    let mut s = seed ^ 0x5eed;
    let mut f = Fixture {
        vectors: Vec::new(),
        weights: Vec::new(),
        dests: Vec::new(),
    };
    let mut dest = base;
    for (gap, vecs) in shape {
        dest += 1 + gap;
        f.dests.push(dest);
        for nbrs in vecs {
            f.vectors.push(EdgeVector::new(dest, nbrs));
            for _ in nbrs {
                f.weights
                    .push((splitmix(&mut s) % 1000) as f64 / 9.0 - 40.0);
            }
        }
    }
    f
}

/// Every `(dest, aggregate)` of one walk over the run cut at `cuts` into
/// consecutive pieces, with a single carry threaded through them.
fn walk_pieces<R: Reduction, F: LaneFilter>(
    k: Kernels,
    run: Run<'_>,
    cuts: &[usize],
    filter: F,
) -> Vec<(u64, u64)> {
    let mut carry = Carry::new(run.vectors[0].top_level_vertex(), R::IDENTITY);
    let mut out = Vec::new();
    let ends = cuts.iter().copied().chain([run.vectors.len()]);
    let starts = [0].into_iter().chain(cuts.iter().copied());
    let mut weights = run.weights;
    for (start, end) in starts.zip(ends) {
        let piece = Run {
            vectors: &run.vectors[start..end],
            weights: if R::WEIGHTED { weights } else { &[] },
            ..run
        };
        let lanes: usize = piece.vectors.iter().map(|v| v.count_valid() as usize).sum();
        weights = &weights[lanes..];
        k.walk_checked::<R, F, _>(piece, filter, &mut carry, &mut |d, v| {
            out.push((d, v.to_bits()))
        });
    }
    out.push((carry.dest, carry.reduce(scalar::combine::<R>).to_bits()));
    out
}

/// The per-edge reference: one scalar accumulator per destination, edges
/// folded in array order.
fn per_edge<R: Reduction>(
    f: &Fixture,
    values: &[f64],
    active: Option<&[AtomicU64]>,
    converged: Option<&[AtomicU64]>,
    message: impl Fn(f64, f64) -> f64,
) -> Vec<(u64, f64)> {
    f.dests
        .iter()
        .map(|&d| {
            let mut acc = R::IDENTITY;
            let mut weights = f.weights.iter();
            for ev in &f.vectors {
                let mine: Vec<f64> = weights
                    .by_ref()
                    .take(ev.count_valid() as usize)
                    .copied()
                    .collect();
                if ev.top_level_vertex() != d || converged.is_some_and(|c| bit(c, d)) {
                    continue;
                }
                for (src, w) in ev.valid_neighbors().zip(mine) {
                    if active.is_none_or(|a| bit(a, src)) {
                        let m = message(values[src as usize], w);
                        acc = scalar::combine::<R>(acc, m);
                    }
                }
            }
            (d, acc)
        })
        .collect()
}

/// Checks one reduction under one (filter, converged) arm.
fn check<R: Reduction>(
    f: &Fixture,
    values: &[f64],
    active: Option<&[AtomicU64]>,
    converged: Option<&[AtomicU64]>,
    split: usize,
    message: impl Fn(f64, f64) -> f64,
) {
    let run = Run {
        values,
        vectors: &f.vectors,
        weights: &f.weights,
        converged,
    };
    let n = f.vectors.len();
    let split = split % (n + 1);
    let walk = |k: Kernels, run: Run<'_>, cuts: &[usize]| match active {
        None => walk_pieces::<R, _>(k, run, cuts, AllActive),
        Some(a) => walk_pieces::<R, _>(k, run, cuts, ActiveBitmap(a)),
    };
    let scalar_k = Kernels::with_level(SimdLevel::Scalar);
    let reference = walk(scalar_k, run, &[]);

    // Resuming mid-run (usually mid-destination) changes nothing.
    prop_assert_eq!(&walk(scalar_k, run, &[split]), &reference, "scalar resumed");

    // Against the per-edge fold: selections exactly, sums to rounding.
    let want = per_edge::<R>(f, values, active, converged, &message);
    prop_assert_eq!(reference.len(), want.len());
    for (&(d, got), &(wd, w)) in reference.iter().zip(&want) {
        prop_assert_eq!(d, wd);
        let got = f64::from_bits(got);
        if matches!(R::COMBINE, grazelle_vsparse::simd::Combine::Add) {
            prop_assert!(
                (got - w).abs() <= 1e-12 * w.abs().max(1.0),
                "dest {d}: {got} vs per-edge {w}"
            );
        } else {
            prop_assert_eq!(got.to_bits(), w.to_bits(), "dest {}", d);
        }
    }

    if detect() != SimdLevel::Avx2 {
        return;
    }
    let avx2_k = Kernels::with_level(SimdLevel::Avx2);
    prop_assert_eq!(&walk(avx2_k, run, &[]), &reference, "avx2 whole run");
    prop_assert_eq!(&walk(avx2_k, run, &[split]), &reference, "avx2 resumed");
    // One-vector chunks, each from a fresh carry (what the traditional
    // pull arms do): per-vector aggregates agree bitwise across levels.
    for i in 0..n {
        let one = Run {
            vectors: &f.vectors[i..=i],
            weights: &f.weights[f.lanes_before(i)..],
            ..run
        };
        prop_assert_eq!(
            walk(avx2_k, one, &[]),
            walk(scalar_k, one, &[]),
            "vector {}",
            i
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_avx2_scalar_and_per_edge_agree(
        base in prop_oneof![0u64..4, 0u64..4, (1u64 << 20)..(1u64 << 21), (1u64 << 27) - 50_000..(1u64 << 27) - 45_000],
        shape in proptest::collection::vec(
            (
                0u64..5000,
                proptest::collection::vec(
                    proptest::collection::vec(0u64..SOURCES as u64, 0..=8),
                    1..5,
                ),
            ),
            1..9,
        ),
        seed in 0u64..1_000_000,
        split in 0usize..64,
    ) {
        let f = fixture(base, &shape, seed);
        let values = random_values(SOURCES, seed);
        let active = random_bitmap(SOURCES, seed ^ 0xf00d);
        let last_dest = *f.dests.last().unwrap() as usize;
        // A converged bitmap must cover the destination ids, which sit far
        // above the source ids; cover only what the high bases need.
        let conv_bits = if last_dest < (1 << 20) { last_dest + 1 } else { 0 };
        let converged = random_bitmap(conv_bits, seed ^ 0xc0de);
        let conv_arms: &[Option<&[AtomicU64]>] = if conv_bits == 0 {
            &[None]
        } else {
            &[None, Some(&converged)]
        };
        for act in [None, Some(&active[..])] {
            for &conv in conv_arms {
                check::<Sum>(&f, &values, act, conv, split, |v, _| v);
                check::<Min>(&f, &values, act, conv, split, |v, _| v);
                check::<Max>(&f, &values, act, conv, split, |v, _| v);
                check::<WeightedSum>(&f, &values, act, conv, split, |v, w| v * w);
                check::<MinPlus>(&f, &values, act, conv, split, |v, w| v + w);
            }
        }
    }
}
