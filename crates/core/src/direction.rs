//! The Edge-phase direction model (DESIGN.md §16).
//!
//! Each iteration the driver must pick pull or push and decide whether a
//! pull iteration runs over the compacted active-vector list. Both follow
//! the cost-model switch from the direction-optimizing BFS literature
//! (Beamer et al.; Yang et al., "Implementing Push-Pull Efficiently in
//! GraphBLAS"; Besta et al., "To Push or To Pull" — PAPERS.md):
//!
//! * **push cost** ≈ `frontier_edges = Σ_{v∈F} outdeg(v) + |F|` — the edges
//!   a scatter pass actually traverses (exact out-degree sum for small
//!   frontiers, `|F|·m/n` beyond [`DEGREE_SCAN_CAP`]).
//! * **pull cost** ≈ `unvisited_edges = m·(n − |converged|)/n` — the
//!   in-edges a gather pass scans, discounted by destinations that already
//!   ignore messages.
//! * pull wins when `ALPHA · frontier_edges ≥ unvisited_edges`
//!   (Beamer's α = 14; on a uniform-degree graph this reduces to a
//!   `density ≥ 1/14 ≈ 0.07` gate, the paper's "sufficiently large part of
//!   the graph is in the frontier", §2).
//!
//! Compaction gates on the *expected active-destination fraction*
//! `1 − (1−d)^(m/n)` — the probability a destination has at least one
//! frontier in-neighbor — rather than raw frontier density: a sparse
//! frontier on a dense graph still activates almost every destination,
//! making compaction pure overhead.
//!
//! Under the priority schedule (DESIGN.md §18) the frontier a superstep
//! starts from is one drained bucket, so `frontier_edges` is that bucket's
//! out-edges, not those of every vertex that improved. That is what stops
//! [`ALPHA`] = 14 — ≈3× too eager for pull on the road mesh — from choosing
//! a 1.2 ms pull over a 0.4 ms push for SSSP's former ≈12 k-edge wavefronts:
//! a bucket's few hundred edges are never within 1/14 of the graph.
//!
//! Every input is a pure function of the iteration's frontier/converged
//! state, so the decision is deterministic and thread-count independent —
//! which is what keeps hybrid runs bit-identical to forced-pull and
//! forced-push runs at any thread count (the differential suite's
//! invariant).

use crate::config::EngineConfig;
use crate::engine::hybrid::EngineKind;
use crate::frontier::Frontier;

/// Beamer's α: pull amortizes once the frontier would scatter more than
/// `1/α` of the unvisited in-edges.
pub const ALPHA: u64 = 14;

/// The sparse Vertex phase (DESIGN.md §18) runs only while the touched
/// list holds at most `V / this` entries: each entry is one random-access
/// `apply` plus an identity store (≈10 ns), against ≈2 ns per vertex for
/// the sequential reset + dense sweep it replaces, so past a quarter of V
/// the dense sweep is the cheaper Vertex phase.
pub const SPARSE_VERTEX_TOUCHED_DIVISOR: u64 = 4;

/// True when a touched list of `touched` entries is short enough for the
/// sparse Vertex phase.
pub fn sparse_vertex_fits(touched: u64, num_vertices: usize) -> bool {
    touched.saturating_mul(SPARSE_VERTEX_TOUCHED_DIVISOR) <= num_vertices as u64
}

/// Occupancy at or below which the driver hands the next superstep its
/// frontier as a sorted vertex list ([`Frontier::Sparse`]) rather than a
/// bitmap. Just under 1/64: such a list has fewer entries than the bitmap
/// has 64-bit words, so walking it never costs more than the word scan it
/// replaces, and it takes at most half the bitmap's bytes.
pub const FRONTIER_LIST_OCCUPANCY: f64 = 0.015;

/// True when a frontier of `active` vertices goes to the next superstep as
/// a list ([`FRONTIER_LIST_OCCUPANCY`]).
pub fn frontier_fits_list(active: usize, num_vertices: usize) -> bool {
    (active as f64) <= FRONTIER_LIST_OCCUPANCY * num_vertices as f64
}

/// Frontiers larger than this are costed with the average-degree
/// approximation instead of an exact out-degree sum, bounding the
/// per-iteration decision cost.
pub const DEGREE_SCAN_CAP: usize = 8192;

/// Compact the pull iteration space when the expected active-destination
/// fraction is below this.
pub const COMPACT_ACTIVE_FRACTION: f64 = 0.6;

/// What the model decided for one iteration, plus the costs it compared —
/// recorded into the iteration trace so a run's direction choices are
/// auditable after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Run the Edge phase as pull (gather) rather than push (scatter).
    pub use_pull: bool,
    /// Hint: a pull iteration should run over the compacted active-vector
    /// list. The driver still owns the structural preconditions
    /// (scheduler-aware mode, feature toggle, post-build bail).
    pub compact: bool,
    /// Estimated edges a push pass would traverse (Σ out-degrees + |F|).
    pub frontier_edges: u64,
    /// Estimated in-edges a pull pass would scan (m scaled by the
    /// unconverged fraction).
    pub unvisited_edges: u64,
}

/// Σ out-degrees over the frontier plus |F| (the push pass's work):
/// exact when the frontier is enumerable within [`DEGREE_SCAN_CAP`] and a
/// degree table is supplied, otherwise `|F|·m/n + |F|`.
fn frontier_out_edges(
    frontier: &Frontier,
    out_degrees: Option<&[u32]>,
    num_edges: usize,
    num_vertices: usize,
) -> u64 {
    let count = frontier.count() as u64;
    if let (Some(deg), false) = (out_degrees, frontier.is_all()) {
        if (count as usize) <= DEGREE_SCAN_CAP {
            let sum: u64 = match frontier {
                Frontier::All { .. } => unreachable!(),
                Frontier::Dense(bm) => bm.iter().map(|v| deg[v as usize] as u64).sum(),
                Frontier::Sparse { vertices, .. } => {
                    vertices.iter().map(|&v| deg[v as usize] as u64).sum()
                }
            };
            return sum + count;
        }
    }
    if frontier.is_all() {
        return num_edges as u64 + count;
    }
    let avg = if num_vertices == 0 {
        0
    } else {
        (num_edges as u128 * count as u128 / num_vertices as u128) as u64
    };
    avg + count
}

/// In-edges a pull pass would scan: `m` scaled by the unconverged
/// fraction of the `num_vertices` destinations. Decreasing in `converged`,
/// so an upper bound on the converged count gives a lower bound here.
fn unvisited_edges(num_edges: usize, num_vertices: usize, converged: usize) -> u64 {
    let unconverged = num_vertices.saturating_sub(converged);
    if num_vertices == 0 {
        0
    } else {
        (num_edges as u128 * unconverged as u128 / num_vertices as u128) as u64
    }
}

/// The compaction hint of a pull iteration at frontier `density`: the
/// expected active-destination fraction is below
/// [`COMPACT_ACTIVE_FRACTION`].
fn compact_hint(density: Option<f64>, num_edges: usize, num_vertices: usize) -> bool {
    density.is_some_and(|d| {
        let avg_in = num_edges as f64 / num_vertices.max(1) as f64;
        1.0 - (1.0 - d).powf(avg_in) < COMPACT_ACTIVE_FRACTION
    })
}

/// Decides the Edge-phase direction and compaction for one iteration.
///
/// `density` is `None` for frontier-less (or all-active) iterations, which
/// always pull — mirroring the drivers' long-standing convention.
/// `converged` is the size of the destination set already ignoring
/// messages. `out_degrees` (the push structure's cached
/// [`degrees`](grazelle_vsparse::build::VectorSparse::degrees)) enables the exact
/// small-frontier cost; without it the average-degree approximation is
/// used. Forced engines ([`EngineConfig::force_engine`]) override the
/// direction but the costs are still computed and reported for the trace.
pub fn decide(
    cfg: &EngineConfig,
    density: Option<f64>,
    frontier: &Frontier,
    out_degrees: Option<&[u32]>,
    num_edges: usize,
    num_vertices: usize,
    converged: usize,
) -> Decision {
    let m = num_edges as u64;
    let (frontier_edges, unvisited_edges) = match density {
        None => (m, m),
        Some(_) => {
            let fe = frontier_out_edges(frontier, out_degrees, num_edges, num_vertices);
            (fe, unvisited_edges(num_edges, num_vertices, converged))
        }
    };
    let use_pull = match cfg.force_engine {
        Some(kind) => kind == EngineKind::Pull,
        None => density.is_none() || ALPHA.saturating_mul(frontier_edges) >= unvisited_edges,
    };
    Decision {
        use_pull,
        compact: compact_hint(density, num_edges, num_vertices),
        frontier_edges,
        unvisited_edges,
    }
}

/// [`decide`] in O(1) beyond `frontier.count()`, for the tiny frontiers of
/// a sparse traversal, where the exact inputs — an out-degree sum over a
/// scattered frontier and a popcount of the whole converged bitmap — cost
/// more than the rest of the superstep's bookkeeping. It bounds both:
/// `frontier_edges ≤ |F| · (max_out_degree + 1)` and, given
/// `converged_at_most` ≥ the converged count, `unvisited_edges` from below.
/// When those bounds already settle the direction — push,
/// `ALPHA · fe_bound < ue_bound` — it returns that decision, which then
/// equals [`decide`]'s in `use_pull` and `compact`; its reported
/// `frontier_edges` / `unvisited_edges` are the bounds. Otherwise it
/// returns `None` and the caller takes the exact path. Inputs are frontier
/// state only, like [`decide`]'s.
pub fn decide_within_bounds(
    cfg: &EngineConfig,
    density: Option<f64>,
    frontier: &Frontier,
    max_out_degree: u32,
    num_edges: usize,
    num_vertices: usize,
    converged_at_most: usize,
) -> Option<Decision> {
    if density.is_none() || frontier.is_all() || cfg.force_engine.is_some() {
        return None;
    }
    let count = frontier.count() as u64;
    // Past the scan cap `decide` itself uses the O(1) average-degree cost.
    let frontier_edges = if (count as usize) <= DEGREE_SCAN_CAP {
        count.saturating_mul(max_out_degree as u64 + 1)
    } else {
        frontier_out_edges(frontier, None, num_edges, num_vertices)
    };
    let unvisited_edges = unvisited_edges(num_edges, num_vertices, converged_at_most);
    if ALPHA.saturating_mul(frontier_edges) >= unvisited_edges {
        return None;
    }
    Some(Decision {
        use_pull: false,
        compact: compact_hint(density, num_edges, num_vertices),
        frontier_edges,
        unvisited_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;

    fn chain(n: usize) -> Graph {
        let mut el = EdgeList::new(n);
        for v in 0..(n - 1) as u32 {
            el.push(v, v + 1).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn frontier_less_iterations_pull() {
        let cfg = EngineConfig::new();
        let d = decide(&cfg, None, &Frontier::all(100), None, 500, 100, 0);
        assert!(d.use_pull);
        assert!(!d.compact);
        assert_eq!(d.frontier_edges, 500);
        assert_eq!(d.unvisited_edges, 500);
    }

    #[test]
    fn cost_model_pushes_sparse_and_pulls_dense_frontiers() {
        let g = chain(1000);
        let vss = VectorSparse::from_csr(g.out_csr());
        let deg = vss.degrees();
        let cfg = EngineConfig::new();
        let m = g.num_edges();
        // One active vertex: 1 out-edge + 1 ≪ 999 unvisited edges → push.
        let f = Frontier::from_vertices(1000, &[5]);
        let d = decide(&cfg, Some(f.density()), &f, Some(deg), m, 1000, 0);
        assert!(!d.use_pull);
        assert_eq!(d.frontier_edges, 2);
        assert_eq!(d.unvisited_edges, m as u64);
        // Most vertices active: 14·fe dwarfs m → pull.
        let dense: Vec<u32> = (0..900).collect();
        let f = Frontier::from_vertices(1000, &dense);
        let d = decide(&cfg, Some(f.density()), &f, Some(deg), m, 1000, 0);
        assert!(d.use_pull);
    }

    #[test]
    fn cost_model_matches_legacy_gate_on_uniform_degree() {
        // On a uniform-degree graph the α = 14 switch reduces to a density
        // threshold near the legacy 0.07 default: check both sides.
        let n = 1400usize;
        let m = n * 10; // avg degree 10
        let deg = vec![10u32; n];
        let cfg = EngineConfig::new();
        let below: Vec<u32> = (0..(n as u32) / 20).collect(); // d = 0.05
        let f = Frontier::from_vertices(n, &below);
        assert!(!decide(&cfg, Some(f.density()), &f, Some(&deg), m, n, 0).use_pull);
        let above: Vec<u32> = (0..(n as u32) / 10).collect(); // d = 0.10
        let f = Frontier::from_vertices(n, &above);
        assert!(decide(&cfg, Some(f.density()), &f, Some(&deg), m, n, 0).use_pull);
    }

    #[test]
    fn converged_destinations_shrink_the_pull_cost() {
        let cfg = EngineConfig::new();
        let f = Frontier::from_vertices(100, &[0, 1, 2]);
        let full = decide(&cfg, Some(f.density()), &f, None, 1000, 100, 0);
        let half = decide(&cfg, Some(f.density()), &f, None, 1000, 100, 50);
        assert_eq!(full.unvisited_edges, 1000);
        assert_eq!(half.unvisited_edges, 500);
        // Same frontier, cheaper pull: the model may flip to pull.
        assert!(half.unvisited_edges < full.unvisited_edges);
    }

    #[test]
    fn forced_engines_override_but_costs_still_report() {
        let base = EngineConfig::new();
        let f = Frontier::from_vertices(100, &[7]);
        let d = decide(
            &base.with_force_engine(Some(EngineKind::Pull)),
            Some(f.density()),
            &f,
            None,
            10_000,
            100,
            0,
        );
        assert!(d.use_pull, "forced pull");
        assert!(d.frontier_edges > 0 && d.unvisited_edges > 0);
        let d = decide(
            &base.with_force_engine(Some(EngineKind::Push)),
            Some(0.99),
            &Frontier::from_vertices(100, &(0..99).collect::<Vec<_>>()),
            None,
            100,
            100,
            0,
        );
        assert!(!d.use_pull, "forced push");
    }

    #[test]
    fn compaction_gates_on_expected_active_fraction() {
        let cfg = EngineConfig::new();
        let f = Frontier::from_vertices(1000, &[0]);
        // Sparse frontier, sparse graph (avg degree 1): few active
        // destinations → compact.
        let d = decide(&cfg, Some(0.001), &f, None, 1000, 1000, 0);
        assert!(d.compact);
        // Same density on a dense graph (avg degree 500): nearly every
        // destination has a frontier in-neighbor → dense pull.
        let d = decide(&cfg, Some(0.01), &f, None, 500_000, 1000, 0);
        assert!(!d.compact);
    }

    #[test]
    fn exact_and_approximate_frontier_costs_agree_on_uniform_degree() {
        let n = 100usize;
        let deg = vec![7u32; n];
        let m = 700;
        let vs: Vec<u32> = (0..50).collect();
        let f = Frontier::from_vertices(n, &vs);
        let exact = frontier_out_edges(&f, Some(&deg), m, n);
        let approx = frontier_out_edges(&f, None, m, n);
        assert_eq!(exact, 50 * 7 + 50);
        assert_eq!(approx, 50 * 7 + 50);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The bounded path answers only when the bounds settle the
        /// decision, and then agrees with the exact model on every field the
        /// driver acts on, whatever the degrees, the frontier and the slack
        /// in the converged bound.
        #[test]
        fn prop_bounded_decision_is_the_exact_one(
            degrees in proptest::collection::vec(0u32..12, 1..3000),
            picks in proptest::collection::vec(0usize..3000, 0..40),
            converged_frac in 0usize..100,
            slack in 0usize..400,
            as_list in proptest::prelude::any::<bool>(),
        ) {
            let n = degrees.len();
            let m: usize = degrees.iter().map(|&d| d as usize).sum();
            let mut vs: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            vs.sort_unstable();
            vs.dedup();
            let f = if as_list { Frontier::sparse(n, &vs) } else { Frontier::from_vertices(n, &vs) };
            let cfg = EngineConfig::new();
            let converged = n * converged_frac / 100;
            let max = degrees.iter().copied().max().unwrap_or(0);
            let exact = decide(&cfg, Some(f.density()), &f, Some(&degrees), m, n, converged);
            let bounded = decide_within_bounds(
                &cfg, Some(f.density()), &f, max, m, n, converged + slack,
            );
            if let Some(b) = bounded {
                proptest::prop_assert_eq!(
                    (b.use_pull, b.compact),
                    (exact.use_pull, exact.compact)
                );
                proptest::prop_assert!(b.frontier_edges >= exact.frontier_edges);
                proptest::prop_assert!(b.unvisited_edges <= exact.unvisited_edges);
            }
        }
    }

    #[test]
    fn bounded_decision_answers_tiny_frontiers_and_defers_otherwise() {
        let g = chain(1000);
        let vss = VectorSparse::from_csr(g.out_csr());
        let (deg, max) = (vss.degrees(), vss.max_degree());
        let m = g.num_edges();
        let cfg = EngineConfig::new();
        let f = Frontier::sparse(1000, &[5, 9]);
        let d = Some(f.density());
        let b = decide_within_bounds(&cfg, d, &f, max, m, 1000, 0).expect("tiny frontier");
        assert!(!b.use_pull);
        assert_eq!(b.frontier_edges, 2 * (max as u64 + 1));
        assert!(!decide(&cfg, d, &f, Some(deg), m, 1000, 0).use_pull);
        // A converged bound near V leaves pull possible: the exact path.
        assert!(decide_within_bounds(&cfg, d, &f, max, m, 1000, 999).is_none());
        // Forced engines and frontier-less iterations always take the exact
        // path.
        let forced = cfg.with_force_engine(Some(EngineKind::Push));
        assert!(decide_within_bounds(&forced, d, &f, max, m, 1000, 0).is_none());
        assert!(decide_within_bounds(&cfg, None, &f, max, m, 1000, 0).is_none());
    }

    #[test]
    fn decision_is_a_pure_function_of_iteration_state() {
        // Thread-count independence falls out of the signature (no thread
        // inputs); determinism is re-checked by calling twice.
        let cfg = EngineConfig::new().with_threads(8);
        let f = Frontier::from_vertices(64, &[1, 5, 9]);
        let a = decide(&cfg, Some(f.density()), &f, None, 256, 64, 3);
        let b = decide(
            &cfg.with_threads(1),
            Some(f.density()),
            &f,
            None,
            256,
            64,
            3,
        );
        assert_eq!(a, b);
    }
}
