//! Packing-efficiency analytics (paper §6.2, Figure 9).
//!
//! Packing efficiency is the fraction of valid lanes across all edge
//! vectors. It depends only on the degree sequence and the lane count, so
//! it can be computed analytically without materializing the structure —
//! which is how the Figure 9b sweep over 30 synthetic graphs stays cheap.

/// Analytic packing efficiency for a degree sequence and `lanes`-wide
/// vectors: `Σ deg / Σ (⌈deg/lanes⌉ · lanes)`. Degree-0 vertices occupy no
/// vectors and do not count. Returns 1.0 for an edgeless graph (no padding
/// exists to waste).
pub fn packing_efficiency(degrees: &[u32], lanes: usize) -> f64 {
    assert!(lanes >= 1);
    let mut valid = 0u64;
    let mut total = 0u64;
    for &d in degrees {
        valid += d as u64;
        total += (d as u64).div_ceil(lanes as u64) * lanes as u64;
    }
    if total == 0 {
        1.0
    } else {
        valid as f64 / total as f64
    }
}

/// Prefix-sum vector index of an orientation whose edge index is `edges`
/// (vertex `v`'s edges are `edges[v] .. edges[v+1]`): `index[v] ..
/// index[v+1]` is vertex `v`'s vector range in a `lanes`-wide
/// Vector-Sparse layout (`index.last()` is the total vector count).
/// Because the index is a prefix sum, every vertex's output range is known
/// before a single vector is written and the ranges are pairwise disjoint
/// — this is what lets the parallel encoder pack vertex partitions into
/// preallocated storage without any coordination.
pub fn vector_index(edges: &[u64], lanes: usize) -> Vec<u64> {
    assert!(lanes >= 1);
    let mut index = Vec::with_capacity(edges.len());
    index.push(0u64);
    let mut total = 0u64;
    for w in edges.windows(2) {
        total += (w[1] - w[0]).div_ceil(lanes as u64);
        index.push(total);
    }
    index
}

/// Space overhead factor of Vector-Sparse relative to Compressed-Sparse for
/// the same degree sequence (ignoring the shared vertex index): the ratio of
/// padded lanes to edges. 1.0 means no overhead.
pub fn space_overhead(degrees: &[u32], lanes: usize) -> f64 {
    let eff = packing_efficiency(degrees, lanes);
    if eff == 0.0 {
        1.0
    } else {
        1.0 / eff
    }
}

/// Per-vector histogram of valid-lane counts (1..=lanes); slot `k-1` counts
/// vectors with exactly `k` valid lanes. Useful when reporting Figure 9
/// numbers in more detail than the paper's single average.
pub fn valid_lane_histogram(degrees: &[u32], lanes: usize) -> Vec<u64> {
    assert!(lanes >= 1);
    let mut hist = vec![0u64; lanes];
    for &d in degrees {
        let d = d as usize;
        if d == 0 {
            continue;
        }
        hist[lanes - 1] += (d / lanes) as u64;
        let rem = d % lanes;
        if rem > 0 {
            hist[rem - 1] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_packing() {
        assert_eq!(packing_efficiency(&[4, 8, 12], 4), 1.0);
    }

    #[test]
    fn quarter_packing() {
        assert_eq!(packing_efficiency(&[1, 1, 1], 4), 0.25);
    }

    #[test]
    fn paper_range_for_single_vector() {
        // "For a 4-element vector, it ranges from 25% ... to 100%".
        assert_eq!(packing_efficiency(&[1], 4), 0.25);
        assert_eq!(packing_efficiency(&[4], 4), 1.0);
    }

    #[test]
    fn zero_degree_vertices_do_not_dilute() {
        assert_eq!(packing_efficiency(&[0, 0, 4], 4), 1.0);
        assert_eq!(packing_efficiency(&[0, 0, 0], 4), 1.0);
    }

    #[test]
    fn efficiency_drops_with_wider_vectors() {
        // The paper's observation: "packing efficiency drops with wider
        // vectors" for fixed degrees.
        let degrees: Vec<u32> = (1..100).collect();
        let e4 = packing_efficiency(&degrees, 4);
        let e8 = packing_efficiency(&degrees, 8);
        let e16 = packing_efficiency(&degrees, 16);
        assert!(e4 >= e8 && e8 >= e16 && e4 > e16, "{e4} {e8} {e16}");
    }

    #[test]
    fn high_degree_graphs_pack_well() {
        // avg degree >= 25 => high efficiency with 4 lanes (paper: "well
        // over 90%" on real distributions). The uniform worst case at
        // degree 25 is exactly 25/28 ≈ 89.3%; a realistic mixture does
        // better because full vectors dominate.
        let uniform = vec![25u32; 1000];
        assert!((packing_efficiency(&uniform, 4) - 25.0 / 28.0).abs() < 1e-12);
        let mixed: Vec<u32> = (0..1000).map(|i| 20 + (i % 11)).collect();
        assert!(packing_efficiency(&mixed, 4) > 0.88);
    }

    #[test]
    fn vector_index_prefix_sums() {
        // degrees [0, 7, 2, 4] at 4 lanes -> [0, 0, 2, 3, 4].
        assert_eq!(vector_index(&[0, 0, 7, 9, 13], 4), vec![0, 0, 2, 3, 4]);
        assert_eq!(vector_index(&[0, 0, 7, 9, 13], 8), vec![0, 0, 1, 2, 3]);
        assert_eq!(vector_index(&[0], 4), vec![0]);
    }

    #[test]
    fn overhead_is_reciprocal() {
        let degrees = [1u32, 2, 3];
        let eff = packing_efficiency(&degrees, 4);
        assert!((space_overhead(&degrees, 4) - 1.0 / eff).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_vectors() {
        // degree 7 -> one full vector + one 3-valid; degree 2 -> one 2-valid.
        let h = valid_lane_histogram(&[7, 2], 4);
        assert_eq!(h, vec![0, 1, 1, 1]);
        // Histogram reconstructs both edge and vector counts.
        let edges: u64 = h.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
        assert_eq!(edges, 9);
        let vectors: u64 = h.iter().sum();
        assert_eq!(vectors, 3);
    }

    proptest! {
        #[test]
        fn prop_efficiency_bounds(
            degrees in proptest::collection::vec(0u32..500, 1..200),
            lanes in prop_oneof![Just(4usize), Just(8), Just(16)],
        ) {
            let e = packing_efficiency(&degrees, lanes);
            prop_assert!(e > 0.0 && e <= 1.0);
            // Lower bound 1/lanes holds whenever any edge exists.
            if degrees.iter().any(|&d| d > 0) {
                prop_assert!(e >= 1.0 / lanes as f64 - 1e-12);
            }
        }

        #[test]
        fn prop_histogram_consistent_with_efficiency(
            degrees in proptest::collection::vec(0u32..100, 1..100),
        ) {
            let h = valid_lane_histogram(&degrees, 4);
            let edges: u64 = h.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
            let vectors: u64 = h.iter().sum();
            let expect_edges: u64 = degrees.iter().map(|&d| d as u64).sum();
            prop_assert_eq!(edges, expect_edges);
            if vectors > 0 {
                let eff = edges as f64 / (vectors * 4) as f64;
                prop_assert!((eff - packing_efficiency(&degrees, 4)).abs() < 1e-12);
            }
        }
    }
}
