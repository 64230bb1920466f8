//! Bit-level lane encoding: Figure 4's fields in a 32-bit lane, eight
//! lanes to a 256-bit vector.

use grazelle_graph::types::MAX_VSPARSE_VERTEX;

/// One 32-bit Vector-Sparse lane.
pub type Lane = u32;

/// Lanes per edge vector: eight 32-bit lanes fill one 256-bit AVX vector.
pub const LANES: usize = 8;

/// Number of bits used for vertex identifiers (both the individual neighbor
/// and the reassembled top-level vertex id).
pub const VERTEX_BITS: u32 = 27;

/// Mask selecting the individual vertex id (bits 26..0).
pub const VERTEX_MASK: u32 = (1u32 << VERTEX_BITS) - 1;

/// The valid bit occupies the sign-bit position so a lane vector doubles as
/// an AVX gather predication mask.
pub const VALID_BIT: u32 = 1u32 << 31;

/// Bit offset of the top-level-vertex piece within a lane.
pub const TLV_SHIFT: u32 = VERTEX_BITS;

/// Width of each lane's piece of the top-level vertex id: eight 4-bit
/// pieces hold a 27-bit id.
pub const TLV_PIECE_BITS: u32 = 4;

/// Mask of a TLV piece once shifted down.
const PIECE_MASK: u32 = (1u32 << TLV_PIECE_BITS) - 1;

/// Mask of a lane's TLV piece in place: a vector's lanes masked by it are
/// its top-level vertex's field, which the walkers compare to detect a new
/// destination.
pub const TLV_FIELD: Lane = PIECE_MASK << TLV_SHIFT;

// Compile-time checks of the `valid | tlv-piece | vertex` layout: the same
// contract `cargo xtask lint` enforces textually, enforced here by the
// compiler so any drift fails the build.
const _: () = assert!(VERTEX_BITS == 27, "vertex ids take 27 bits");
const _: () = assert!(
    VALID_BIT == 1u32 << 31,
    "valid bit must sit in the sign position (gather predication)"
);
const _: () = assert!(
    TLV_SHIFT == VERTEX_BITS && TLV_PIECE_BITS == 4,
    "a 4-bit TLV piece sits right above the vertex id"
);
const _: () = assert!(
    TLV_SHIFT + TLV_PIECE_BITS < 32,
    "the TLV piece stays below the valid bit"
);
const _: () = assert!(
    LANES as u32 * TLV_PIECE_BITS >= VERTEX_BITS,
    "the pieces of one vector hold a whole vertex id"
);
const _: () = assert!(VERTEX_MASK as u64 == MAX_VSPARSE_VERTEX);
const _: () = assert!(VALID_BIT & VERTEX_MASK == 0, "fields must not overlap");

/// Packs one lane from its fields. `tlv_piece` must fit in
/// [`TLV_PIECE_BITS`] bits (callers take it from [`encode_tlv`]) and
/// `vertex` in [`VERTEX_BITS`].
#[inline]
pub fn pack_lane(valid: bool, tlv_piece: u32, vertex: u32) -> Lane {
    debug_assert!(vertex <= VERTEX_MASK, "vertex id exceeds 27 bits");
    debug_assert!(tlv_piece <= PIECE_MASK, "TLV piece exceeds its field");
    ((valid as u32) << 31) | (tlv_piece << TLV_SHIFT) | (vertex & VERTEX_MASK)
}

/// Unpacks a lane into `(valid, tlv_piece, vertex)`.
#[inline]
pub fn unpack_lane(lane: Lane) -> (bool, u32, u32) {
    (lane_is_valid(lane), lane_piece(lane), lane_vertex(lane))
}

/// True when the lane's valid bit is set.
#[inline]
pub fn lane_is_valid(lane: Lane) -> bool {
    lane & VALID_BIT != 0
}

/// The individual (neighbor) vertex id of a lane.
#[inline]
pub fn lane_vertex(lane: Lane) -> u32 {
    lane & VERTEX_MASK
}

/// The lane's piece of the top-level vertex id.
#[inline]
pub fn lane_piece(lane: Lane) -> u32 {
    (lane >> TLV_SHIFT) & PIECE_MASK
}

/// Lane `i`'s piece of the top-level vertex `tlv`: bits
/// `[4i, 4i + 4)`.
#[inline]
pub fn tlv_piece(tlv: u32, i: usize) -> u32 {
    (tlv >> (TLV_PIECE_BITS as usize * i)) & PIECE_MASK
}

/// Splits a 27-bit top-level vertex id into [`LANES`] pieces, lane `i`
/// receiving bits `[4i, 4i + 4)`.
pub fn encode_tlv(tlv: u32) -> [u32; LANES] {
    assert!(tlv <= VERTEX_MASK, "top-level vertex id exceeds 27 bits");
    std::array::from_fn(|i| tlv_piece(tlv, i))
}

/// Reassembles a top-level vertex id from its lanes.
#[inline]
pub fn decode_tlv(lanes: &[Lane; LANES]) -> u32 {
    let mut tlv = 0u32;
    for (i, &lane) in lanes.iter().enumerate() {
        tlv |= lane_piece(lane) << (TLV_PIECE_BITS as usize * i);
    }
    tlv
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn piece_widths() {
        assert_eq!(TLV_PIECE_BITS, 4);
        assert!(LANES as u32 * TLV_PIECE_BITS >= VERTEX_BITS);
        assert_eq!(
            TLV_SHIFT + TLV_PIECE_BITS,
            31,
            "the piece ends below the valid bit"
        );
    }

    #[test]
    fn valid_bit_is_sign_bit() {
        let lane = pack_lane(true, 0, 0);
        assert_eq!(lane, 1u32 << 31);
        assert!((lane as i32) < 0, "gather masks test the sign bit");
        let lane = pack_lane(false, 0, 0);
        assert!((lane as i32) >= 0);
    }

    #[test]
    fn pack_unpack_example() {
        let lane = pack_lane(true, 0xA, 0x0765_4321);
        assert_eq!(unpack_lane(lane), (true, 0xA, 0x0765_4321));
        assert_eq!(lane, 0x8000_0000 | (0xA << 27) | 0x0765_4321);
    }

    #[test]
    fn tlv_roundtrip_8_lanes() {
        for tlv in [0, 1, 0x0123_4567, VERTEX_MASK] {
            let pieces = encode_tlv(tlv);
            let lanes: [Lane; LANES] =
                std::array::from_fn(|i| pack_lane(i % 2 == 0, pieces[i], i as u32));
            assert_eq!(decode_tlv(&lanes), tlv);
            // The top piece holds the id's bits 28..32, always 0.
            assert_eq!(pieces[LANES - 1], 0);
        }
    }

    #[test]
    fn fields_do_not_interfere() {
        // All-ones vertex with zero TLV must not leak into the TLV field.
        let lane = pack_lane(false, 0, VERTEX_MASK);
        assert_eq!(unpack_lane(lane), (false, 0, VERTEX_MASK));
        // All-ones piece must not leak into the valid bit or the vertex.
        let lane = pack_lane(false, 0xF, 0);
        assert_eq!(unpack_lane(lane), (false, 0xF, 0));
    }

    proptest! {
        #[test]
        fn prop_lane_roundtrip(valid: bool, piece in 0u32..16, vertex in 0u32..=VERTEX_MASK) {
            let lane = pack_lane(valid, piece, vertex);
            prop_assert_eq!(unpack_lane(lane), (valid, piece, vertex));
            prop_assert_eq!(lane_is_valid(lane), valid);
            prop_assert_eq!(lane_vertex(lane), vertex);
        }

        #[test]
        fn prop_tlv_roundtrip(tlv in 0u32..=VERTEX_MASK, vertex in 0u32..=VERTEX_MASK) {
            let pieces = encode_tlv(tlv);
            let lanes: [Lane; LANES] = std::array::from_fn(|i| pack_lane(true, pieces[i], vertex));
            prop_assert_eq!(decode_tlv(&lanes), tlv);
            // Neighbor ids survive alongside the TLV encoding.
            for lane in lanes {
                prop_assert_eq!(lane_vertex(lane), vertex);
            }
        }

        /// TLV piece reassembly across id widths: an id of every bit
        /// length up to 27, split into 4-bit pieces and packed alongside
        /// adversarial valid bits and max-boundary neighbor ids, must
        /// reassemble exactly.
        #[test]
        fn prop_tlv_reassembly_across_widths(
            bits in 0u32..=VERTEX_BITS,
            raw in any::<u32>(),
            valid_bits: u8,
            vertex in 0u32..=VERTEX_MASK,
        ) {
            let tlv = raw & ((1u64 << bits) - 1) as u32;
            let pieces = encode_tlv(tlv);
            let lanes: [Lane; LANES] = std::array::from_fn(|i| {
                pack_lane(valid_bits & (1 << i) != 0, pieces[i], vertex)
            });
            prop_assert_eq!(decode_tlv(&lanes), tlv);
        }
    }

    #[test]
    fn max_vertex_id_boundary() {
        // The 27-bit ceiling: the all-ones id, the top single bit, and one
        // below the ceiling all pack and unpack without leaking into the
        // TLV or valid fields, at every piece value.
        for vertex in [VERTEX_MASK, VERTEX_MASK - 1, 1u32 << 26] {
            for piece in [0, 1, 0xF] {
                let lane = pack_lane(true, piece, vertex);
                assert_eq!(unpack_lane(lane), (true, piece, vertex));
                let lane = pack_lane(false, piece, vertex);
                assert_eq!(unpack_lane(lane), (false, piece, vertex));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 27 bits")]
    fn an_id_past_27_bits_has_no_encoding() {
        encode_tlv(VERTEX_MASK + 1);
    }
}
