//! One aligned edge vector of eight 32-bit lanes.

use crate::format::{
    decode_tlv, lane_is_valid, lane_vertex, pack_lane, tlv_piece, Lane, LANES, TLV_SHIFT,
    VERTEX_MASK,
};

/// A Vector-Sparse edge vector: eight 32-bit lanes, exactly one 256-bit
/// AVX vector.
///
/// The `#[repr(align)]` keeps every vector load aligned, which is the first
/// of the two vectorization obstacles the format removes (the second —
/// bounds checks — is removed by the per-lane valid bits). The valid lanes
/// of a vector are always a prefix of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct EdgeVector {
    lanes: [Lane; LANES],
}

// SAFETY: `EdgeVector` is eight `u32`s and padding-free; the all-zero bit
// pattern is a valid value of it (eight invalid lanes of vertex 0, the
// padding vector of top-level vertex 0).
unsafe impl grazelle_sched::alloc::Zeroable for EdgeVector {}

impl EdgeVector {
    /// Builds a vector for top-level vertex `tlv` holding up to eight
    /// neighbors; missing lanes are marked invalid (padding).
    pub fn new(tlv: u64, neighbors: &[u64]) -> Self {
        assert!(
            neighbors.len() <= LANES,
            "too many neighbors for one vector"
        );
        assert!(
            tlv <= u64::from(VERTEX_MASK),
            "top-level vertex id exceeds 27 bits"
        );
        let mut ev = EdgeVector::padding(tlv as u32);
        for (i, &v) in neighbors.iter().enumerate() {
            assert!(v <= u64::from(VERTEX_MASK), "vertex id exceeds 27 bits");
            ev.set_lane(i, pack_lane(true, tlv_piece(tlv as u32, i), v as u32));
        }
        ev
    }

    /// A vector of top-level vertex `tlv` whose lanes are all padding.
    #[inline]
    pub(crate) fn padding(tlv: u32) -> Self {
        EdgeVector {
            lanes: std::array::from_fn(|i| tlv_piece(tlv, i) << TLV_SHIFT),
        }
    }

    /// Raw lane access.
    #[inline]
    pub fn lanes(&self) -> &[Lane; LANES] {
        &self.lanes
    }

    /// Overwrites lane `i` whole: the encoder of a transpose stores each
    /// edge's lane, then each padding lane, into its top-level vertex's
    /// vectors.
    #[inline]
    pub(crate) fn set_lane(&mut self, i: usize, lane: Lane) {
        self.lanes[i] = lane;
    }

    /// The top-level vertex this vector belongs to, reassembled from the
    /// per-lane pieces without touching the vertex index.
    #[inline]
    pub fn top_level_vertex(&self) -> u64 {
        u64::from(decode_tlv(&self.lanes))
    }

    /// Per-lane validity as a bitmask (bit `i` = lane `i` valid).
    #[inline]
    pub fn valid_mask(&self) -> u32 {
        let mut m = 0u32;
        for (i, &lane) in self.lanes.iter().enumerate() {
            m |= (lane_is_valid(lane) as u32) << i;
        }
        m
    }

    /// Number of valid edges in this vector (1..=8 for vectors produced by
    /// the builder; the format itself permits 0).
    #[inline]
    pub fn count_valid(&self) -> u32 {
        self.valid_mask().count_ones()
    }

    /// The neighbor stored in lane `i`, if that lane is valid.
    #[inline]
    pub fn neighbor(&self, i: usize) -> Option<u64> {
        let lane = self.lanes[i];
        lane_is_valid(lane).then(|| u64::from(lane_vertex(lane)))
    }

    /// The neighbor id in lane `i` regardless of validity (padding lanes
    /// decode as vertex 0 — exactly what a predicated gather would touch if
    /// it were not masked).
    #[inline]
    pub fn neighbor_unchecked(&self, i: usize) -> u64 {
        u64::from(lane_vertex(self.lanes[i]))
    }

    /// Iterates the valid neighbors in lane order: the lanes up to the
    /// first invalid one, since the valid lanes are a prefix.
    pub fn valid_neighbors(&self) -> impl Iterator<Item = u64> + '_ {
        self.lanes
            .iter()
            .take_while(|&&lane| lane_is_valid(lane))
            .map(|&lane| u64::from(lane_vertex(lane)))
    }
}

impl Default for EdgeVector {
    fn default() -> Self {
        EdgeVector::padding(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAX: u64 = VERTEX_MASK as u64;

    #[test]
    fn eight_lane_vector_is_256_bits_and_aligned() {
        assert_eq!(std::mem::size_of::<EdgeVector>(), 32);
        assert_eq!(std::mem::align_of::<EdgeVector>(), 32);
        assert_eq!(
            EdgeVector::default().lanes(),
            &[0; LANES],
            "all-zero is padding"
        );
    }

    #[test]
    fn full_vector() {
        let v = EdgeVector::new(42, &[10, 20, 30, 40, 50, 60, 70, 80]);
        assert_eq!(v.top_level_vertex(), 42);
        assert_eq!(v.valid_mask(), 0xFF);
        assert_eq!(v.count_valid(), 8);
        assert_eq!(
            v.valid_neighbors().collect::<Vec<_>>(),
            vec![10, 20, 30, 40, 50, 60, 70, 80]
        );
    }

    #[test]
    fn padded_vector() {
        // A degree-11 vertex occupies two vectors: 8 valid, then 3 valid
        // and 5 invalid.
        let second = EdgeVector::new(7, &[50, 60, 70]);
        assert_eq!(second.valid_mask(), 0b0111);
        assert_eq!(second.count_valid(), 3);
        assert_eq!(second.neighbor(3), None);
        assert_eq!(second.neighbor_unchecked(7), 0);
        assert_eq!(second.top_level_vertex(), 7);
    }

    #[test]
    fn empty_vector_decodes() {
        let v = EdgeVector::new(99, &[]);
        assert_eq!(v.count_valid(), 0);
        assert_eq!(v.top_level_vertex(), 99);
        assert_eq!(v, EdgeVector::padding(99));
    }

    #[test]
    #[should_panic(expected = "too many neighbors")]
    fn overfull_vector_panics() {
        EdgeVector::new(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn wide_vectors_work() {
        // The widest ids the lane holds, as the vertex and every neighbor.
        let nbrs: Vec<u64> = (0..6).map(|i| MAX - i).collect();
        let v = EdgeVector::new(MAX, &nbrs);
        assert_eq!(v.top_level_vertex(), MAX);
        assert_eq!(v.count_valid(), 6);
        assert_eq!(v.valid_neighbors().collect::<Vec<_>>(), nbrs);
    }

    proptest! {
        #[test]
        fn prop_vector_roundtrip(
            tlv in 0u64..=MAX,
            nbrs in proptest::collection::vec(0u64..=MAX, 0..=8),
        ) {
            let v = EdgeVector::new(tlv, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), tlv);
            prop_assert_eq!(v.count_valid() as usize, nbrs.len());
            prop_assert_eq!(v.valid_neighbors().collect::<Vec<_>>(), nbrs);
        }

        /// Invalid-lane predication through pack→unpack: padding lanes
        /// must read as invalid via every accessor, decode to neighbor 0
        /// (the address a masked gather would have touched), and keep
        /// their sign bit clear so hardware predication skips them — even
        /// with max-boundary ids in the valid lanes.
        #[test]
        fn prop_invalid_lane_predication(
            tlv in 0u64..=MAX,
            nbrs in proptest::collection::vec(0u64..=MAX, 0..=8),
        ) {
            let v = EdgeVector::new(tlv, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), tlv);
            prop_assert_eq!(v.valid_mask(), (1u32 << nbrs.len()) - 1);
            for i in 0..LANES {
                let lane = v.lanes()[i];
                if i < nbrs.len() {
                    prop_assert!((lane as i32) < 0, "valid lane {} must gather", i);
                    prop_assert_eq!(v.neighbor(i), Some(nbrs[i]));
                    prop_assert_eq!(v.neighbor_unchecked(i), nbrs[i]);
                } else {
                    prop_assert!((lane as i32) >= 0, "padding lane {} must be masked off", i);
                    prop_assert_eq!(v.neighbor(i), None);
                    prop_assert_eq!(v.neighbor_unchecked(i), 0);
                }
            }
        }

        /// 27-bit ceiling in every field at once: the all-ones id as both
        /// the TLV and every neighbor, at partial fill, survives the
        /// round-trip without the fields bleeding into each other.
        #[test]
        fn prop_max_id_boundary(fill in 0usize..=8) {
            let nbrs = vec![MAX; fill];
            let v = EdgeVector::new(MAX, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), MAX);
            prop_assert_eq!(v.valid_neighbors().collect::<Vec<_>>(), nbrs);
            for i in fill..LANES {
                prop_assert_eq!(v.neighbor_unchecked(i), 0);
            }
        }
    }
}
