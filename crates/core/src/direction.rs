//! The Edge-phase direction model (DESIGN.md §16).
//!
//! Each iteration the driver must pick pull or push and decide whether a
//! pull iteration runs over the compacted active-vector list. Both
//! decisions used to be fixed density gates (0.07 for direction, 0.35 for
//! compaction); this module puts them behind
//! [`DirectionPolicy`], adding the cost-model switch from the
//! direction-optimizing BFS literature (Beamer et al.; Yang et al.,
//! "Implementing Push-Pull Efficiently in GraphBLAS"; Besta et al., "To
//! Push or To Pull" — PAPERS.md):
//!
//! * **push cost** ≈ `frontier_edges = Σ_{v∈F} outdeg(v) + |F|` — the edges
//!   a scatter pass actually traverses (exact out-degree sum for small
//!   frontiers, `|F|·m/n` beyond [`DEGREE_SCAN_CAP`]).
//! * **pull cost** ≈ `unvisited_edges = m·(n − |converged|)/n` — the
//!   in-edges a gather pass scans, discounted by destinations that already
//!   ignore messages.
//! * pull wins when `ALPHA · frontier_edges ≥ unvisited_edges`
//!   (Beamer's α = 14; on a uniform-degree graph this reduces to the old
//!   `density ≥ 1/14 ≈ 0.07` gate, so default behavior is continuous with
//!   the legacy threshold).
//!
//! Compaction under the cost model gates on the *expected
//! active-destination fraction* `1 − (1−d)^(m/n)` — the probability a
//! destination has at least one frontier in-neighbor — rather than raw
//! frontier density: a sparse frontier on a dense graph still activates
//! almost every destination, making compaction pure overhead.
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

use crate::config::{DirectionPolicy, EngineConfig, ScatterMode};
use crate::engine::hybrid::EngineKind;
use crate::frontier::Frontier;

/// Beamer's α: pull amortizes once the frontier would scatter more than
/// `1/α` of the unvisited in-edges.
pub const ALPHA: u64 = 14;

/// Relative per-edge cost of the synchronized scatter: every edge is a
/// contended read-modify-write to an arbitrary destination (Listing 1).
pub const PUSH_ATOMIC_EDGE_COST: u64 = 4;

/// Relative per-edge cost of the SPA scatter: one bucket append plus one
/// plain-store fold — no atomics, no ping-pong (DESIGN.md §17).
pub const PUSH_SPA_EDGE_COST: u64 = 2;

/// Fixed per-destination-chunk cost of the SPA pipeline: the scatter
/// side's bucket clear plus the merge pass's per-chunk claim and row
/// walk. Charged per [`crate::spmv::spa::num_chunks`] chunk, so SPA only
/// wins once `frontier_edges` amortizes the chunk overhead. (Bucket
/// *allocation* is no longer charged here: buckets persist across
/// supersteps in the caller-owned [`crate::spmv::spa::SpaScratch`].)
pub const SPA_CHUNK_SETUP_COST: u64 = 24;

/// Frontiers whose out-edge estimate is at or below this always choose
/// SPA under `Auto`: they are guaranteed to fit the SPA sequential inline
/// path (≤ [`crate::spmv::spa::SPA_SEQ_VECTOR_CUTOFF`] edge vectors — a
/// source's vectors never outnumber its edges), which skips the thread
/// pool entirely, while the synchronized scatter always pays a full
/// broadcast barrier. Below this size the barrier dominates the phase.
pub const SPA_INLINE_EDGE_CUTOFF: u64 = crate::spmv::spa::SPA_SEQ_VECTOR_CUTOFF as u64;

/// The sparse Vertex phase (DESIGN.md §18) runs only while the touched
/// list holds at most `V / this` entries: each entry is one random-access
/// `apply` plus an identity store (≈10 ns), against ≈2 ns per vertex for
/// the sequential reset + dense sweep it replaces, so past a quarter of V
/// the dense sweep is the cheaper Vertex phase.
pub const SPARSE_VERTEX_TOUCHED_DIVISOR: u64 = 4;

/// True when a touched list of `touched` entries is short enough for the
/// sparse Vertex phase. The driver tests the phase's actual list;
/// [`choose_scatter`] tests `frontier_edges`, an upper bound on it.
pub fn sparse_vertex_fits(touched: u64, num_vertices: usize) -> bool {
    touched.saturating_mul(SPARSE_VERTEX_TOUCHED_DIVISOR) <= num_vertices as u64
}

/// Bucket width of the priority schedule (DESIGN.md §18), in mean edge
/// weights of the structure being run: Δ-stepping's Δ. Narrow buckets send
/// fewer vertices twice but take more supersteps; wide ones approach the
/// label-correcting schedule (every improved vertex, every superstep). On
/// the road mesh relaxations stay within 1.2× of Dijkstra's and the solve
/// time is flat across 4–16 (sweep in EXPERIMENTS.md "Work-efficient
/// SSSP"), so this is a constant, not a knob. It moves superstep counts,
/// never results.
pub const BUCKET_WIDTH_PER_MEAN_WEIGHT: f64 = 8.0;

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
    /// The scatter discipline a push iteration should use — always
    /// resolved (never [`ScatterMode::Auto`]); see [`choose_scatter`].
    /// Reported even when the iteration pulls, for trace continuity.
    pub scatter: ScatterMode,
}

/// Resolves the configured [`ScatterMode`] for one push iteration.
/// `Atomic` and `Spa` pass through; `Auto` picks SPA outright for
/// near-empty frontiers (≤ [`SPA_INLINE_EDGE_CUTOFF`] estimated edges,
/// where SPA's inline path skips the pool broadcast the synchronized
/// scatter always pays) and, when `sparse_vertex` says the run may take the
/// sparse Vertex phase, for every frontier whose touched list can fit it
/// ([`sparse_vertex_fits`]): only SPA leaves a touched list, and the
/// synchronized arm would bring back the O(V) reset and sweep that cost
/// more than any scatter at these sizes. Otherwise it compares the modeled
/// scatter costs
/// — `frontier_edges · PUSH_SPA_EDGE_COST + chunks · SPA_CHUNK_SETUP_COST`
/// against `frontier_edges · PUSH_ATOMIC_EDGE_COST` — so SPA is chosen
/// exactly when `frontier_edges` amortizes its bucket setup (with the
/// default constants, `fe > 12 · chunks`). Inputs are the iteration's
/// frontier state only — no thread counts — preserving the module-level
/// purity invariant.
pub fn choose_scatter(
    mode: ScatterMode,
    frontier_edges: u64,
    num_vertices: usize,
    sparse_vertex: bool,
) -> ScatterMode {
    match mode {
        ScatterMode::Atomic | ScatterMode::Spa => mode,
        ScatterMode::Auto => {
            if frontier_edges <= SPA_INLINE_EDGE_CUTOFF
                || (sparse_vertex && sparse_vertex_fits(frontier_edges, num_vertices))
            {
                return ScatterMode::Spa;
            }
            let chunks = crate::spmv::spa::num_chunks(num_vertices) as u64;
            let spa = frontier_edges
                .saturating_mul(PUSH_SPA_EDGE_COST)
                .saturating_add(chunks.saturating_mul(SPA_CHUNK_SETUP_COST));
            let atomic = frontier_edges.saturating_mul(PUSH_ATOMIC_EDGE_COST);
            if spa < atomic {
                ScatterMode::Spa
            } else {
                ScatterMode::Atomic
            }
        }
    }
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
/// `sparse_vertex` is the run-level half of the sparse Vertex phase's
/// eligibility (program opted in, no delta overlay, no fault containment),
/// computed once by the driver; it only steers [`choose_scatter`].
#[allow(clippy::too_many_arguments)]
pub fn decide(
    cfg: &EngineConfig,
    density: Option<f64>,
    frontier: &Frontier,
    out_degrees: Option<&[u32]>,
    num_edges: usize,
    num_vertices: usize,
    converged: usize,
    sparse_vertex: bool,
) -> Decision {
    let m = num_edges as u64;
    let (frontier_edges, unvisited_edges) = match density {
        None => (m, m),
        Some(_) => {
            let fe = frontier_out_edges(frontier, out_degrees, num_edges, num_vertices);
            let unconverged = num_vertices.saturating_sub(converged);
            let ue = if num_vertices == 0 {
                0
            } else {
                (num_edges as u128 * unconverged as u128 / num_vertices as u128) as u64
            };
            (fe, ue)
        }
    };
    let use_pull = match cfg.force_engine {
        Some(EngineKind::Pull) => true,
        Some(EngineKind::Push) => false,
        None => match (cfg.direction_policy, density) {
            (_, None) => true,
            (DirectionPolicy::DensityGate, Some(d)) => d >= cfg.pull_threshold,
            (DirectionPolicy::CostModel, Some(_)) => {
                ALPHA.saturating_mul(frontier_edges) >= unvisited_edges
            }
        },
    };
    let compact = match density {
        None => false,
        Some(d) => match cfg.direction_policy {
            DirectionPolicy::DensityGate => d <= cfg.frontier_pull_threshold,
            DirectionPolicy::CostModel => {
                let avg_in = num_edges as f64 / num_vertices.max(1) as f64;
                1.0 - (1.0 - d).powf(avg_in) < COMPACT_ACTIVE_FRACTION
            }
        },
    };
    Decision {
        use_pull,
        compact,
        frontier_edges,
        unvisited_edges,
        scatter: choose_scatter(
            cfg.scatter_mode,
            frontier_edges,
            num_vertices,
            sparse_vertex,
        ),
    }
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
        let d = decide(&cfg, None, &Frontier::all(100), None, 500, 100, 0, false);
        assert!(d.use_pull);
        assert!(!d.compact);
        assert_eq!(d.frontier_edges, 500);
        assert_eq!(d.unvisited_edges, 500);
    }

    #[test]
    fn cost_model_pushes_sparse_and_pulls_dense_frontiers() {
        let g = chain(1000);
        let vss = VectorSparse::<4>::from_csr(g.out_csr());
        let deg = vss.degrees();
        let cfg = EngineConfig::new();
        let m = g.num_edges();
        // One active vertex: 1 out-edge + 1 ≪ 999 unvisited edges → push.
        let f = Frontier::from_vertices(1000, &[5]);
        let d = decide(&cfg, Some(f.density()), &f, Some(deg), m, 1000, 0, false);
        assert!(!d.use_pull);
        assert_eq!(d.frontier_edges, 2);
        assert_eq!(d.unvisited_edges, m as u64);
        // Most vertices active: 14·fe dwarfs m → pull.
        let dense: Vec<u32> = (0..900).collect();
        let f = Frontier::from_vertices(1000, &dense);
        let d = decide(&cfg, Some(f.density()), &f, Some(deg), m, 1000, 0, false);
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
        assert!(!decide(&cfg, Some(f.density()), &f, Some(&deg), m, n, 0, false).use_pull);
        let above: Vec<u32> = (0..(n as u32) / 10).collect(); // d = 0.10
        let f = Frontier::from_vertices(n, &above);
        assert!(decide(&cfg, Some(f.density()), &f, Some(&deg), m, n, 0, false).use_pull);
    }

    #[test]
    fn converged_destinations_shrink_the_pull_cost() {
        let cfg = EngineConfig::new();
        let f = Frontier::from_vertices(100, &[0, 1, 2]);
        let full = decide(&cfg, Some(f.density()), &f, None, 1000, 100, 0, false);
        let half = decide(&cfg, Some(f.density()), &f, None, 1000, 100, 50, false);
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
            false,
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
            false,
        );
        assert!(!d.use_pull, "forced push");
    }

    #[test]
    fn density_gate_reproduces_legacy_thresholds() {
        let cfg = EngineConfig::new().with_direction_policy(DirectionPolicy::DensityGate);
        let f = Frontier::from_vertices(100, &[0]);
        let d = decide(&cfg, Some(0.05), &f, None, 1000, 100, 0, false);
        assert!(!d.use_pull, "below pull_threshold");
        assert!(d.compact, "below frontier_pull_threshold");
        let d = decide(&cfg, Some(0.5), &f, None, 1000, 100, 0, false);
        assert!(d.use_pull, "above pull_threshold");
        assert!(!d.compact, "above frontier_pull_threshold");
    }

    #[test]
    fn compaction_gates_on_expected_active_fraction() {
        let cfg = EngineConfig::new();
        let f = Frontier::from_vertices(1000, &[0]);
        // Sparse frontier, sparse graph (avg degree 1): few active
        // destinations → compact.
        let d = decide(&cfg, Some(0.001), &f, None, 1000, 1000, 0, false);
        assert!(d.compact);
        // Same density on a dense graph (avg degree 500): nearly every
        // destination has a frontier in-neighbor → dense pull.
        let d = decide(&cfg, Some(0.01), &f, None, 500_000, 1000, 0, false);
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

    #[test]
    fn auto_scatter_amortizes_bucket_setup() {
        // Pick n so the amortization bar sits well above the inline
        // cutoff, keeping the two regimes distinguishable.
        let n = 2_000_000usize;
        let chunks = crate::spmv::spa::num_chunks(n) as u64;
        let bar = chunks * SPA_CHUNK_SETUP_COST / (PUSH_ATOMIC_EDGE_COST - PUSH_SPA_EDGE_COST);
        assert!(bar > SPA_INLINE_EDGE_CUTOFF);
        // Near-empty frontiers take SPA outright: the inline path skips
        // the pool broadcast the synchronized scatter always pays.
        assert_eq!(
            choose_scatter(ScatterMode::Auto, SPA_INLINE_EDGE_CUTOFF, n, false),
            ScatterMode::Spa
        );
        // Past the inline cutoff the chunk-overhead amortization decides:
        // SPA wins iff fe·2 + chunks·24 < fe·4, i.e. fe > 12·chunks.
        assert_eq!(
            choose_scatter(ScatterMode::Auto, SPA_INLINE_EDGE_CUTOFF + 1, n, false),
            ScatterMode::Atomic
        );
        assert_eq!(
            choose_scatter(ScatterMode::Auto, bar, n, false),
            ScatterMode::Atomic
        );
        assert_eq!(
            choose_scatter(ScatterMode::Auto, bar + 1, n, false),
            ScatterMode::Spa
        );
    }

    /// A run eligible for the sparse Vertex phase takes SPA across the whole
    /// gap the cost comparison leaves to the synchronized arm, up to the
    /// touched-list bound; past it the comparison decides again.
    #[test]
    fn auto_scatter_keeps_spa_while_the_sparse_vertex_phase_fits() {
        let n = 2_000_000usize;
        let gap = SPA_INLINE_EDGE_CUTOFF + 1;
        assert_eq!(
            choose_scatter(ScatterMode::Auto, gap, n, false),
            ScatterMode::Atomic
        );
        assert_eq!(
            choose_scatter(ScatterMode::Auto, gap, n, true),
            ScatterMode::Spa
        );
        // On a graph small enough that the gap lies past V/4 the sparse
        // Vertex phase cannot run, so eligibility changes nothing.
        let small = 4 * SPA_INLINE_EDGE_CUTOFF as usize;
        assert!(!sparse_vertex_fits(gap, small));
        assert_eq!(
            choose_scatter(ScatterMode::Auto, gap, small, true),
            choose_scatter(ScatterMode::Auto, gap, small, false)
        );
        // Pinned modes ignore eligibility.
        assert_eq!(
            choose_scatter(ScatterMode::Atomic, gap, n, true),
            ScatterMode::Atomic
        );
    }

    #[test]
    fn pinned_scatter_modes_pass_through() {
        for fe in [0u64, 96, 1_000_000] {
            assert_eq!(
                choose_scatter(ScatterMode::Atomic, fe, 100, false),
                ScatterMode::Atomic
            );
            assert_eq!(
                choose_scatter(ScatterMode::Spa, fe, 100, false),
                ScatterMode::Spa
            );
        }
    }

    #[test]
    fn decide_resolves_auto_and_never_reports_it() {
        let cfg = EngineConfig::new(); // scatter_mode defaults to Auto
        let f = Frontier::from_vertices(1000, &[5]);
        let d = decide(&cfg, Some(f.density()), &f, None, 1000, 1000, 0, false);
        assert_ne!(d.scatter, ScatterMode::Auto);
        // A pinned mode flows straight into the decision.
        let cfg = cfg.with_scatter_mode(ScatterMode::Spa);
        let d = decide(&cfg, Some(f.density()), &f, None, 1000, 1000, 0, false);
        assert_eq!(d.scatter, ScatterMode::Spa);
    }

    #[test]
    fn decision_is_a_pure_function_of_iteration_state() {
        // Thread-count independence falls out of the signature (no thread
        // inputs); determinism is re-checked by calling twice.
        let cfg = EngineConfig::new().with_threads(8);
        let f = Frontier::from_vertices(64, &[1, 5, 9]);
        let a = decide(&cfg, Some(f.density()), &f, None, 256, 64, 3, false);
        let b = decide(
            &cfg.with_threads(1),
            Some(f.density()),
            &f,
            None,
            256,
            64,
            3,
            false,
        );
        assert_eq!(a, b);
    }
}
