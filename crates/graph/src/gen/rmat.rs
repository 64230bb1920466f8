//! R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos,
//! SDM '04) — the generator the paper uses for its synthetic suite (§6.2,
//! Figure 9b, via X-Stream's bundled copy).

use crate::edgelist::EdgeList;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters for one R-MAT instance.
///
/// Each edge is placed by `scale` recursive quadrant choices over the
/// adjacency matrix with probabilities `(a, b, c, d)`, `a + b + c + d = 1`.
/// Larger `a` concentrates edges in a shrinking corner, producing heavier
/// degree skew; `a = b = c = d = 0.25` degenerates to Erdős–Rényi.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges generated per vertex (average out-degree before dedup).
    pub edge_factor: f64,
    /// Quadrant probabilities.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// RNG seed; identical configs produce identical graphs.
    pub seed: u64,
    /// Shuffle vertex identifiers so degree does not correlate with id.
    pub permute: bool,
    /// Drop duplicate edges and self-loops after generation.
    pub simplify: bool,
}

impl RmatConfig {
    /// Graph500-style defaults: `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.
    pub fn graph500(scale: u32, edge_factor: f64, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            permute: true,
            simplify: true,
        }
    }

    /// Derived `d` probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Number of vertices this configuration will generate.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edge placements attempted (pre-dedup).
    pub fn num_edge_attempts(&self) -> usize {
        (self.num_vertices() as f64 * self.edge_factor).round() as usize
    }
}

/// Generates an R-MAT edge list.
///
/// Noise is injected into the quadrant probabilities at each recursion level
/// (±10%, renormalized), as recommended by the R-MAT authors to avoid
/// staircase artifacts in the degree distribution.
pub fn rmat(cfg: &RmatConfig) -> EdgeList {
    assert!(cfg.scale >= 1 && cfg.scale <= 30, "scale out of range");
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && cfg.d() >= 0.0,
        "quadrant probabilities must be non-negative with a > 0"
    );
    let n = cfg.num_vertices();
    let attempts = cfg.num_edge_attempts();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut el = EdgeList::with_capacity(n, attempts);

    for _ in 0..attempts {
        let (src, dst) = place_edge(cfg, &mut rng);
        el.push(src, dst).expect("generator stays in range");
    }

    if cfg.permute {
        permute_vertices(&mut el, cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    }
    if cfg.simplify {
        el.remove_self_loops();
        el.sort_and_dedup();
    }
    el
}

fn place_edge(cfg: &RmatConfig, rng: &mut StdRng) -> (VertexId, VertexId) {
    let mut row = 0u64;
    let mut col = 0u64;
    for level in 0..cfg.scale {
        // Per-level multiplicative noise in [0.9, 1.1], then renormalize.
        let na = cfg.a * (0.9 + 0.2 * rng.random::<f64>());
        let nb = cfg.b * (0.9 + 0.2 * rng.random::<f64>());
        let nc = cfg.c * (0.9 + 0.2 * rng.random::<f64>());
        let nd = cfg.d() * (0.9 + 0.2 * rng.random::<f64>());
        let total = na + nb + nc + nd;
        let r = rng.random::<f64>() * total;
        let half = 1u64 << (cfg.scale - 1 - level);
        if r < na {
            // top-left: nothing to add
        } else if r < na + nb {
            col += half;
        } else if r < na + nb + nc {
            row += half;
        } else {
            row += half;
            col += half;
        }
    }
    (row as VertexId, col as VertexId)
}

/// Applies a seeded random relabeling of vertex ids, in place: the list is
/// the generator's largest buffer, and a relabelled copy beside it doubled
/// the generator's memory high-water mark.
fn permute_vertices(el: &mut EdgeList, seed: u64) {
    let n = el.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    let (nv, mut edges, weights) = std::mem::take(el).into_parts();
    for (s, d) in &mut edges {
        (*s, *d) = (perm[*s as usize], perm[*d as usize]);
    }
    *el = EdgeList::from_parts(nv, edges, weights).expect("a permutation stays in range");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = RmatConfig::graph500(8, 4.0, 42);
        let a = rmat(&cfg);
        let b = rmat(&cfg);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat(&RmatConfig::graph500(8, 4.0, 1));
        let b = rmat(&RmatConfig::graph500(8, 4.0, 2));
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn respects_scale_and_edge_factor() {
        let cfg = RmatConfig {
            simplify: false,
            permute: false,
            ..RmatConfig::graph500(10, 8.0, 7)
        };
        let el = rmat(&cfg);
        assert_eq!(el.num_vertices(), 1024);
        assert_eq!(el.num_edges(), 8192);
    }

    #[test]
    fn simplify_removes_loops_and_duplicates() {
        let el = rmat(&RmatConfig::graph500(8, 16.0, 3));
        assert!(el.edges().iter().all(|&(s, d)| s != d));
        let mut sorted = el.edges().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), el.num_edges());
    }

    #[test]
    fn skewed_config_produces_heavier_max_degree_than_uniform() {
        let skewed = rmat(&RmatConfig {
            a: 0.65,
            b: 0.15,
            c: 0.15,
            ..RmatConfig::graph500(12, 8.0, 11)
        });
        let uniform = rmat(&RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            ..RmatConfig::graph500(12, 8.0, 11)
        });
        let max_skew = *skewed.in_degrees().iter().max().unwrap();
        let max_unif = *uniform.in_degrees().iter().max().unwrap();
        assert!(
            max_skew > 2 * max_unif,
            "skewed max in-degree {max_skew} not > 2x uniform {max_unif}"
        );
    }

    #[test]
    fn permutation_decorrelates_degree_from_id() {
        // Without permutation, R-MAT's hub is vertex 0 (all-'a' path).
        let raw = rmat(&RmatConfig {
            permute: false,
            simplify: false,
            ..RmatConfig::graph500(10, 16.0, 5)
        });
        let deg = raw.out_degrees();
        let argmax = deg.iter().enumerate().max_by_key(|(_, &d)| d).unwrap().0;
        assert!(argmax < 16, "unpermuted hub should sit at a tiny id");
    }
}
