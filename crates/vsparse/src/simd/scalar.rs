//! Scalar twin of the AVX2 walker.
//!
//! Semantics are lane-for-lane identical to [`super::avx2`]: four lane
//! accumulators per destination, lane `i` of each eight-lane vector folding
//! into accumulator `i mod 4`, low half first, the same `combine` operand
//! order, the same `(l0 ⊕ l2) ⊕ (l1 ⊕ l3)` fold — so the two produce
//! bit-identical aggregates. This doubles as the portable fallback and as the
//! "non-vectorized" Edge-Pull arm of the Figure 10 comparison ("we disable
//! vectorization by replacing vectorized code, such as the `vgatherqpd`
//! instruction, with versions that process a single edge at a time", §6.2).

use super::{bitmap_contains, vector_weights, Carry, Combine, LaneFilter, Message, Reduction, Run};
use crate::format::{lane_is_valid, lane_vertex, TLV_FIELD};

/// `acc ⊕ x`. The operand order is part of the AVX2 ≡ scalar contract:
/// `Min`/`Max` keep `acc` unless `x` strictly beats it, exactly what
/// `vminpd x, acc` / `vmaxpd x, acc` return — including for NaN and ±0.0.
#[inline(always)]
pub fn combine<R: Reduction>(acc: f64, x: f64) -> f64 {
    match R::COMBINE {
        Combine::Add => acc + x,
        Combine::Min => {
            if x < acc {
                x
            } else {
                acc
            }
        }
        Combine::Max => {
            if x > acc {
                x
            } else {
                acc
            }
        }
    }
}

/// The message a lane contributes.
#[inline(always)]
fn message<R: Reduction>(value: f64, weight: f64) -> f64 {
    match R::MESSAGE {
        Message::Value => value,
        Message::TimesWeight => value * weight,
        Message::PlusWeight => value + weight,
    }
}

/// Scalar instantiation of [`super::Kernels::walk`].
///
/// # Safety
/// Every valid lane of `run.vectors` must hold a neighbor id
/// `< run.values.len()`, and the valid lanes of every vector must be a
/// prefix of it (see [`super::Kernels::walk`]).
pub unsafe fn walk<R: Reduction, F: LaneFilter, S: FnMut(u64, f64)>(
    run: Run<'_>,
    filter: F,
    carry: &mut Carry,
    sink: &mut S,
) {
    let converged = |dest: u64| run.converged.is_some_and(|c| bitmap_contains(c, dest));
    let mut skip = converged(carry.dest);
    let mut field = carry.tlv_field();
    // The weights of the vectors walked so far.
    let mut weights_at = 0;
    for ev in run.vectors {
        // A new destination shows as a new TLV field; only then is the
        // vertex id reassembled from it.
        let pieces = ev.lanes().map(|lane| lane & TLV_FIELD);
        if pieces != field {
            field = pieces;
            let dest = ev.top_level_vertex();
            sink(carry.dest, carry.reduce(combine::<R>));
            *carry = Carry::new(dest, R::IDENTITY);
            skip = converged(dest);
        }
        let weights = if R::WEIGHTED {
            let valid = ev.count_valid() as usize;
            weights_at += valid;
            vector_weights(run.weights, weights_at - valid, valid)
        } else {
            &[]
        };
        if skip {
            continue;
        }
        for (i, &lane) in ev.lanes().iter().enumerate() {
            let src = lane_vertex(lane);
            if !lane_is_valid(lane) || !filter.contains(u64::from(src)) {
                continue;
            }
            debug_assert!((src as usize) < run.values.len());
            // SAFETY: valid lanes are in bounds (this function's contract).
            let value = unsafe { *run.values.get_unchecked(src as usize) };
            let weight = if R::WEIGHTED { weights[i] } else { 0.0 };
            carry.fold_lane(i % 4, message::<R>(value, weight), combine::<R>);
        }
    }
}
