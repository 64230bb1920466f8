//! AVX2 walker (`std::arch` port of the paper's x86 assembly, Listing 7).
//!
//! The central instruction is a masked gather whose per-lane predication
//! consumes the *sign bit* of each mask lane. Vector-Sparse places the
//! valid bit exactly there, so an edge vector is its own gather mask once
//! the frontier filter has been AND-ed in. An edge vector is eight 32-bit
//! lanes; each 4-lane half is sign-extended to four 64-bit predicate lanes
//! (`vpmovsxdq`, the valid bit becoming the 64-bit sign) and gathers four
//! `f64`s with its 27-bit lane indices (`_mm256_mask_i32gather_pd`,
//! `vgatherdpd`) — no unpacking, no bounds checks (paper §4). The whole run
//! executes inside one `#[target_feature]` function: the accumulator is a
//! `__m256d` of four partials that lives across all of a destination's
//! vectors, both halves of every vector folding into it, low half first;
//! it is reduced horizontally only when the TLV-piece field of a vector
//! differs from the previous one (one `vpcmpeqd`).

#![cfg(target_arch = "x86_64")]

use super::{bitmap_contains, vector_weights, Carry, Combine, LaneFilter, Message, Reduction, Run};
use crate::format::{Lane, LANES, TLV_FIELD, TLV_SHIFT, VALID_BIT, VERTEX_MASK};
use std::arch::x86_64::*;
use std::sync::atomic::AtomicU64;

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

/// The top-level vertex whose pieces `field` holds in place (a vector's
/// lanes masked to their TLV pieces): each lane's piece shifted to its
/// place in the id, OR-ed across the lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn top_level_vertex(field: __m256i) -> u64 {
    let pieces = _mm256_srli_epi32::<{ TLV_SHIFT as i32 }>(field);
    let placed = _mm256_sllv_epi32(pieces, _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28));
    let quad = _mm_or_si128(
        _mm256_castsi256_si128(placed),
        _mm256_extracti128_si256::<1>(placed),
    );
    let pair = _mm_or_si128(quad, _mm_shuffle_epi32::<0b01_00_11_10>(quad));
    let one = _mm_or_si128(pair, _mm_shuffle_epi32::<0b10_11_00_01>(pair));
    u64::from(_mm_cvtsi128_si32(one) as u32)
}

/// Sign-bit mask of the lanes whose neighbor's bit is set in `words`: one
/// masked gather of the eight bitmap words, read as 32-bit words, each
/// shifted so the neighbor's bit lands in the sign position.
///
/// # Safety
/// Every lane whose sign bit is set in `lanes` must index a bit within
/// `words`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitmap_mask(words: &[AtomicU64], lanes: __m256i, idx: __m256i) -> __m256i {
    let word_idx = _mm256_srli_epi32::<5>(idx);
    // SAFETY: only sign-bit lanes are dereferenced, and the caller
    // guarantees those index a bit within `words`, so their 32-bit word
    // `idx / 32` lies within its `2 · words.len()` halves: `AtomicU64` has
    // the layout of `u64`, whose low half comes first on x86-64, so bit
    // `idx` of the bitmap is bit `idx % 32` of that word. Nothing writes
    // the bitmap during an Edge phase.
    let gathered = unsafe {
        _mm256_mask_i32gather_epi32::<4>(
            _mm256_setzero_si256(),
            words.as_ptr().cast::<i32>(),
            word_idx,
            lanes,
        )
    };
    let bit = _mm256_and_si256(idx, _mm256_set1_epi32(31));
    let to_sign = _mm256_sub_epi32(_mm256_set1_epi32(31), bit);
    _mm256_and_si256(lanes, _mm256_sllv_epi32(gathered, to_sign))
}

/// Sign-bit mask of the valid lanes whose neighbor passes `filter`, for
/// filters with no vector form (eight scalar probes).
#[inline]
#[target_feature(enable = "avx2")]
fn probed_mask<F: LaneFilter>(filter: F, lanes: __m256i) -> __m256i {
    let mut raw = [0 as Lane; LANES];
    // SAFETY: `raw` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_si256(raw.as_mut_ptr().cast(), lanes) };
    let sign = |lane: Lane| {
        let on = lane & VALID_BIT != 0 && filter.contains(u64::from(lane & VERTEX_MASK));
        ((on as u32) << 31) as i32
    };
    let [l0, l1, l2, l3, l4, l5, l6, l7] = raw.map(sign);
    _mm256_setr_epi32(l0, l1, l2, l3, l4, l5, l6, l7)
}

/// Folds one 4-lane half into `acc`: gathers `values` at the half's
/// indices on the lanes whose 32-bit `mask` sign bit is set (the identity
/// elsewhere) and, for a weighted reduction, loads the same lanes' weights
/// from `weights`.
///
/// # Safety
/// Every lane enabled in `mask` must hold an index `< values.len()` in
/// `idx`, and, for a weighted reduction, its weight at `weights + lane`
/// must be readable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold_half<R: Reduction>(
    acc: __m256d,
    identity: __m256d,
    values: &[f64],
    idx: __m128i,
    mask: __m128i,
    weights: *const f64,
) -> __m256d {
    let mask = _mm256_cvtepi32_epi64(mask);
    // SAFETY: vgatherdpd dereferences `values + idx` only on lanes whose
    // mask sign bit is set, which the caller guarantees are in bounds;
    // the 27-bit indices times 8 stay below 2^31, so the signed 32-bit
    // index arithmetic does not wrap. Disabled lanes yield the identity.
    let gathered = unsafe {
        _mm256_mask_i32gather_pd::<8>(identity, values.as_ptr(), idx, _mm256_castsi256_pd(mask))
    };
    let msg = if R::WEIGHTED {
        // SAFETY: vmaskmovpd reads only the lanes whose mask sign bit is
        // set, which the caller guarantees are readable, and never faults
        // on the others; disabled lanes read 0.0, whose message is a
        // no-op on the identity.
        let w = unsafe { _mm256_maskload_pd(weights, mask) };
        match R::MESSAGE {
            Message::Value => gathered,
            Message::TimesWeight => _mm256_mul_pd(gathered, w),
            Message::PlusWeight => _mm256_add_pd(gathered, w),
        }
    } else {
        gathered
    };
    combine::<R>(acc, msg)
}

/// AVX2 instantiation of [`super::Kernels::walk`].
///
/// # Safety
/// AVX2 must be available (callers dispatch via [`super::detect`]); every
/// valid lane of `run.vectors` must hold a neighbor id `< run.values.len()`
/// that also indexes within the filter's bitmap, if it has one, and the
/// valid lanes of every vector must be a prefix of it (see
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
    let tlv_field = _mm256_set1_epi32(TLV_FIELD as i32);
    let vertex_mask = _mm256_set1_epi32(VERTEX_MASK as i32);

    let mut dest = carry.dest;
    let mut skip = converged(dest);
    // The weights of the vectors walked so far.
    let mut weights_at = 0;
    // SAFETY: both are 32 readable bytes; the loads are unaligned.
    let (mut acc, mut prev_field) = unsafe {
        (
            _mm256_loadu_pd(carry.lanes.as_ptr()),
            _mm256_loadu_si256(carry.tlv_field().as_ptr().cast()),
        )
    };
    for ev in run.vectors {
        // SAFETY: `EdgeVector` is 32 bytes, 32-byte aligned.
        let lanes = unsafe { _mm256_load_si256(ev.lanes().as_ptr().cast()) };
        let field = _mm256_and_si256(lanes, tlv_field);
        if _mm256_movemask_epi8(_mm256_cmpeq_epi32(field, prev_field)) != -1 {
            sink(dest, reduce::<R>(acc));
            acc = identity;
            prev_field = field;
            dest = top_level_vertex(field);
            skip = converged(dest);
        }
        // This vector's weights, one per valid lane: bounds-checked here,
        // so the masked loads below read inside the run's weights.
        let weights = if R::WEIGHTED {
            let valid = _mm256_movemask_ps(_mm256_castsi256_ps(lanes)).count_ones() as usize;
            let mine = vector_weights(run.weights, weights_at, valid);
            weights_at += valid;
            mine.as_ptr()
        } else {
            std::ptr::null()
        };
        if skip {
            continue;
        }
        let idx = _mm256_and_si256(lanes, vertex_mask);
        let mask = if F::ALL {
            lanes
        } else {
            match filter.bitmap() {
                // SAFETY: valid lanes index within the bitmap (contract).
                Some(words) => unsafe { bitmap_mask(words, lanes, idx) },
                None => probed_mask(filter, lanes),
            }
        };
        let enabled = _mm256_movemask_ps(_mm256_castsi256_ps(mask));
        // Without a filter the low half holds the vector's first lane,
        // valid in every vector the builder writes; in any other, an empty
        // predicate gathers the identity, whose fold is a no-op.
        if F::ALL || enabled & 0xF != 0 {
            // SAFETY: enabled lanes are valid lanes, whose indices are in
            // bounds (contract); valid lanes are a prefix, so the low
            // half's enabled lanes have their weights at `weights + lane`
            // within this vector's.
            acc = unsafe {
                fold_half::<R>(
                    acc,
                    identity,
                    run.values,
                    _mm256_castsi256_si128(idx),
                    _mm256_castsi256_si128(mask),
                    weights,
                )
            };
        }
        if enabled >> 4 != 0 {
            // SAFETY: as above; an enabled high lane `4 + i` is valid, so
            // this vector has more than `4 + i` weights and the one at
            // `weights + 4 + i` is its own.
            acc = unsafe {
                fold_half::<R>(
                    acc,
                    identity,
                    run.values,
                    _mm256_extracti128_si256::<1>(idx),
                    _mm256_extracti128_si256::<1>(mask),
                    weights.wrapping_add(4),
                )
            };
        }
    }
    carry.dest = dest;
    // SAFETY: `carry.lanes` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_pd(carry.lanes.as_mut_ptr(), acc) };
}
