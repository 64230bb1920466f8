//! One aligned edge vector of `N` 64-bit lanes (paper Figure 4).

use crate::format::{
    decode_tlv, encode_tlv, lane_is_valid, lane_vertex, pack_lane, tlv_piece_bits, Lane,
};

/// An `N`-lane Vector-Sparse edge vector.
///
/// For `N = 4` this is exactly one 256-bit AVX vector; the `#[repr(align)]`
/// keeps every vector load aligned, which is the first of the two
/// vectorization obstacles the format removes (the second — bounds checks —
/// is removed by the per-lane valid bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct EdgeVector<const N: usize = 4> {
    lanes: [Lane; N],
}

impl<const N: usize> EdgeVector<N> {
    /// Builds a vector for top-level vertex `tlv` holding up to `N`
    /// neighbors; missing lanes are marked invalid (padding).
    pub fn new(tlv: u64, neighbors: &[u64]) -> Self {
        assert!(neighbors.len() <= N, "too many neighbors for one vector");
        let pieces = encode_tlv::<N>(tlv);
        let bits = tlv_piece_bits(N);
        let lanes = std::array::from_fn(|i| {
            let (valid, vertex) = match neighbors.get(i) {
                Some(&v) => (true, v),
                None => (false, 0),
            };
            pack_lane(valid, pieces[i], bits, vertex)
        });
        EdgeVector { lanes }
    }

    /// Raw lane access.
    #[inline]
    pub fn lanes(&self) -> &[Lane; N] {
        &self.lanes
    }

    /// Overwrites lane `i` whole: the encoder of a transpose stores each
    /// edge's lane into a padding vector of its top-level vertex.
    #[inline]
    pub(crate) fn set_lane(&mut self, i: usize, lane: Lane) {
        self.lanes[i] = lane;
    }

    /// The top-level vertex this vector belongs to, reassembled from the
    /// per-lane pieces without touching the vertex index.
    #[inline]
    pub fn top_level_vertex(&self) -> u64 {
        decode_tlv(&self.lanes)
    }

    /// Per-lane validity as a bitmask (bit `i` = lane `i` valid).
    #[inline]
    pub fn valid_mask(&self) -> u32 {
        let mut m = 0u32;
        for i in 0..N {
            m |= (lane_is_valid(self.lanes[i]) as u32) << i;
        }
        m
    }

    /// Number of valid edges in this vector (1..=N for vectors produced by
    /// the builder; the format itself permits 0).
    #[inline]
    pub fn count_valid(&self) -> u32 {
        self.valid_mask().count_ones()
    }

    /// The neighbor stored in lane `i`, if that lane is valid.
    #[inline]
    pub fn neighbor(&self, i: usize) -> Option<u64> {
        if lane_is_valid(self.lanes[i]) {
            Some(lane_vertex(self.lanes[i]))
        } else {
            None
        }
    }

    /// The neighbor id in lane `i` regardless of validity (padding lanes
    /// decode as vertex 0 — exactly what a predicated gather would touch if
    /// it were not masked).
    #[inline]
    pub fn neighbor_unchecked(&self, i: usize) -> u64 {
        lane_vertex(self.lanes[i])
    }

    /// Iterates the valid neighbors in lane order.
    pub fn valid_neighbors(&self) -> impl Iterator<Item = u64> + '_ {
        (0..N).filter_map(move |i| self.neighbor(i))
    }
}

impl<const N: usize> Default for EdgeVector<N> {
    fn default() -> Self {
        EdgeVector::new(0, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn four_lane_vector_is_256_bits_and_aligned() {
        assert_eq!(std::mem::size_of::<EdgeVector<4>>(), 32);
        assert_eq!(std::mem::align_of::<EdgeVector<4>>(), 32);
    }

    #[test]
    fn full_vector() {
        let v = EdgeVector::<4>::new(42, &[10, 20, 30, 40]);
        assert_eq!(v.top_level_vertex(), 42);
        assert_eq!(v.valid_mask(), 0b1111);
        assert_eq!(v.count_valid(), 4);
        assert_eq!(
            v.valid_neighbors().collect::<Vec<_>>(),
            vec![10, 20, 30, 40]
        );
    }

    #[test]
    fn padded_vector() {
        // Degree-7 vertex occupies two vectors: 4 valid + 3 valid, 1 invalid
        // (the paper's worked example).
        let second = EdgeVector::<4>::new(7, &[50, 60, 70]);
        assert_eq!(second.valid_mask(), 0b0111);
        assert_eq!(second.count_valid(), 3);
        assert_eq!(second.neighbor(3), None);
        assert_eq!(second.neighbor_unchecked(3), 0);
        assert_eq!(second.top_level_vertex(), 7);
    }

    #[test]
    fn empty_vector_decodes() {
        let v = EdgeVector::<4>::new(99, &[]);
        assert_eq!(v.count_valid(), 0);
        assert_eq!(v.top_level_vertex(), 99);
    }

    #[test]
    #[should_panic(expected = "too many neighbors")]
    fn overfull_vector_panics() {
        EdgeVector::<4>::new(0, &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn wide_vectors_work() {
        let nbrs: Vec<u64> = (0..6).collect();
        let v8 = EdgeVector::<8>::new(123_456, &nbrs);
        assert_eq!(v8.top_level_vertex(), 123_456);
        assert_eq!(v8.count_valid(), 6);
        let v16 = EdgeVector::<16>::new(1 << 40, &nbrs);
        assert_eq!(v16.top_level_vertex(), 1 << 40);
    }

    proptest! {
        #[test]
        fn prop_vector_roundtrip(
            tlv in 0u64..(1 << 48),
            nbrs in proptest::collection::vec(0u64..(1 << 48), 0..=4),
        ) {
            let v = EdgeVector::<4>::new(tlv, &nbrs);
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
            tlv in 0u64..(1 << 48),
            nbrs in proptest::collection::vec(0u64..(1 << 48), 0..=8),
        ) {
            let v = EdgeVector::<8>::new(tlv, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), tlv);
            prop_assert_eq!(v.valid_mask(), (1u32 << nbrs.len()) - 1);
            for i in 0..8 {
                let lane = v.lanes()[i];
                if i < nbrs.len() {
                    prop_assert!((lane as i64) < 0, "valid lane {} must gather", i);
                    prop_assert_eq!(v.neighbor(i), Some(nbrs[i]));
                    prop_assert_eq!(v.neighbor_unchecked(i), nbrs[i]);
                } else {
                    prop_assert!((lane as i64) >= 0, "padding lane {} must be masked off", i);
                    prop_assert_eq!(v.neighbor(i), None);
                    prop_assert_eq!(v.neighbor_unchecked(i), 0);
                }
            }
        }

        /// 48-bit ceiling in every field at once: the all-ones id as both
        /// the TLV and every neighbor, at partial fill, survives the
        /// round-trip without the fields bleeding into each other.
        #[test]
        fn prop_max_id_boundary(fill in 0usize..=8) {
            let max = (1u64 << 48) - 1;
            let nbrs = vec![max; fill];
            let v = EdgeVector::<8>::new(max, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), max);
            prop_assert_eq!(v.valid_neighbors().collect::<Vec<_>>(), nbrs);
            for i in fill..8 {
                prop_assert_eq!(v.neighbor_unchecked(i), 0);
            }
        }

        /// The widest (16-lane) vectors carry 3-bit TLV pieces — the
        /// tightest reassembly — and must round-trip the same way.
        #[test]
        fn prop_sixteen_lane_roundtrip(
            tlv in 0u64..(1 << 48),
            nbrs in proptest::collection::vec(0u64..(1 << 48), 0..=16),
        ) {
            let v = EdgeVector::<16>::new(tlv, &nbrs);
            prop_assert_eq!(v.top_level_vertex(), tlv);
            prop_assert_eq!(v.count_valid() as usize, nbrs.len());
            prop_assert_eq!(v.valid_neighbors().collect::<Vec<_>>(), nbrs);
        }
    }
}
