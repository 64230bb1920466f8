//! AVX2 walker (`std::arch` port of the paper's x86 assembly, Listing 7).
//!
//! The central instruction is `_mm256_mask_i64gather_pd` (`vgatherqpd`),
//! whose per-lane predication consumes the *sign bit* of each 64-bit mask
//! lane. Vector-Sparse places the valid bit exactly there, so an edge vector
//! is its own gather mask once the frontier filter has been AND-ed in. Lane
//! indices are the low 48 bits, isolated with one vector AND — no
//! unpacking, no bounds checks (paper §4). The whole run executes inside one
//! `#[target_feature]` function: the accumulator is a `__m256d` that lives
//! across all of a destination's vectors and is reduced horizontally only
//! when the TLV-piece field of a vector differs from the previous one.

#![cfg(target_arch = "x86_64")]

use super::{bitmap_contains, Carry, Combine, LaneFilter, Message, Reduction, Run};
use crate::format::{TLV_SHIFT, VALID_BIT, VERTEX_MASK};
use std::arch::x86_64::*;
use std::sync::atomic::AtomicU64;

/// The 12-bit TLV piece of every lane, in place.
const TLV_FIELD: i64 = (((1u64 << crate::format::tlv_piece_bits(4)) - 1) << TLV_SHIFT) as i64;

/// Vector twin of [`super::scalar::combine`], same operand order.
#[inline]
#[target_feature(enable = "avx2")]
fn combine<R: Reduction>(acc: __m256d, x: __m256d) -> __m256d {
    match R::COMBINE {
        Combine::Add => _mm256_add_pd(acc, x),
        Combine::Min => _mm256_min_pd(x, acc),
        Combine::Max => _mm256_max_pd(x, acc),
    }
}

/// `(l0 ⊕ l2) ⊕ (l1 ⊕ l3)`, the order of [`Carry::reduce`].
#[inline]
#[target_feature(enable = "avx2")]
fn reduce<R: Reduction>(v: __m256d) -> f64 {
    let halves = combine::<R>(v, _mm256_permute2f128_pd::<1>(v, v));
    let pairs = combine::<R>(halves, _mm256_permute_pd::<0b0101>(halves));
    _mm256_cvtsd_f64(pairs)
}

/// Sign-bit mask of the lanes whose neighbor's bit is set in `words`: one
/// masked gather of the four bitmap words, each shifted so the neighbor's
/// bit lands in the sign position.
///
/// # Safety
/// Every lane whose sign bit is set in `lanes` must index a bit within
/// `words`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitmap_mask(words: &[AtomicU64], lanes: __m256i, idx: __m256i) -> __m256i {
    let word_idx = _mm256_srli_epi64::<6>(idx);
    // SAFETY: only sign-bit lanes are dereferenced, and the caller
    // guarantees those index within `words`; `AtomicU64` has the layout of
    // `i64`, and nothing writes the bitmap during an Edge phase.
    let gathered = unsafe {
        _mm256_mask_i64gather_epi64::<8>(
            _mm256_setzero_si256(),
            words.as_ptr().cast::<i64>(),
            word_idx,
            lanes,
        )
    };
    let bit = _mm256_and_si256(idx, _mm256_set1_epi64x(63));
    let to_sign = _mm256_sub_epi64(_mm256_set1_epi64x(63), bit);
    _mm256_and_si256(lanes, _mm256_sllv_epi64(gathered, to_sign))
}

/// Sign-bit mask of the valid lanes whose neighbor passes `filter`, for
/// filters with no vector form (four scalar probes).
#[inline]
#[target_feature(enable = "avx2")]
fn probed_mask<F: LaneFilter>(filter: F, lanes: __m256i) -> __m256i {
    let mut raw = [0u64; 4];
    // SAFETY: `raw` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_si256(raw.as_mut_ptr().cast(), lanes) };
    let sign = |lane: u64| {
        let on = lane & VALID_BIT != 0 && filter.contains(lane & VERTEX_MASK);
        (on as i64) << 63
    };
    _mm256_set_epi64x(sign(raw[3]), sign(raw[2]), sign(raw[1]), sign(raw[0]))
}

/// AVX2 instantiation of [`super::Kernels::walk`].
///
/// # Safety
/// AVX2 must be available (callers dispatch via [`super::detect`]); every
/// valid lane of `run.vectors` must hold a neighbor id `< run.values.len()`
/// that also indexes within the filter's bitmap, if it has one (see
/// [`super::Kernels::walk`]).
#[target_feature(enable = "avx2")]
pub unsafe fn walk<R: Reduction, F: LaneFilter, S: FnMut(u64, f64)>(
    run: Run<'_>,
    filter: F,
    carry: &mut Carry,
    sink: &mut S,
) {
    let converged = |dest: u64| run.converged.is_some_and(|c| bitmap_contains(c, dest));
    let identity = _mm256_set1_pd(R::IDENTITY);
    let tlv_field = _mm256_set1_epi64x(TLV_FIELD);
    let vertex_mask = _mm256_set1_epi64x(VERTEX_MASK as i64);

    let mut dest = carry.dest;
    let mut skip = converged(dest);
    // SAFETY: both are 32 readable bytes; the loads are unaligned.
    let (mut acc, mut prev_field) = unsafe {
        (
            _mm256_loadu_pd(carry.lanes.as_ptr()),
            _mm256_loadu_si256(carry.tlv_field().as_ptr().cast()),
        )
    };
    for (k, ev) in run.vectors.iter().enumerate() {
        // SAFETY: `EdgeVector<4>` is 32 bytes, 32-byte aligned.
        let lanes = unsafe { _mm256_load_si256(ev.lanes().as_ptr().cast()) };
        let field = _mm256_and_si256(lanes, tlv_field);
        if _mm256_movemask_epi8(_mm256_cmpeq_epi64(field, prev_field)) != -1 {
            sink(dest, reduce::<R>(acc));
            acc = identity;
            prev_field = field;
            dest = ev.top_level_vertex();
            skip = converged(dest);
        }
        if skip {
            continue;
        }
        let idx = _mm256_and_si256(lanes, vertex_mask);
        let mask = if F::ALL {
            lanes
        } else {
            let mask = match filter.bitmap() {
                // SAFETY: valid lanes index within the bitmap (contract).
                Some(words) => unsafe { bitmap_mask(words, lanes, idx) },
                None => probed_mask(filter, lanes),
            };
            if _mm256_movemask_pd(_mm256_castsi256_pd(mask)) == 0 {
                continue;
            }
            mask
        };
        // SAFETY: vgatherqpd dereferences values + idx only on lanes whose
        // mask sign bit is set — a subset of the valid lanes, which the
        // caller guarantees are in bounds. Disabled lanes yield the identity.
        let gathered = unsafe {
            _mm256_mask_i64gather_pd::<8>(
                identity,
                run.values.as_ptr(),
                idx,
                _mm256_castsi256_pd(mask),
            )
        };
        let msg = if R::WEIGHTED {
            // SAFETY: `weights[k]` is a bounds-checked `[f64; 4]`; the load
            // is unaligned.
            let w = unsafe { _mm256_loadu_pd(run.weights[k].as_ptr()) };
            match R::MESSAGE {
                Message::Value => gathered,
                Message::TimesWeight => _mm256_mul_pd(gathered, w),
                Message::PlusWeight => _mm256_add_pd(gathered, w),
            }
        } else {
            gathered
        };
        acc = combine::<R>(acc, msg);
    }
    carry.dest = dest;
    // SAFETY: `carry.lanes` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_pd(carry.lanes.as_mut_ptr(), acc) };
}
