//! PageRank.
//!
//! The paper's peak-throughput application: "PageRank does not use the
//! frontier and uses summation as its aggregation operator, so vertex
//! property values are updated every iteration" (§6). The pull formulation
//! gathers `rank[src] / outdeg[src]` over in-neighbors; the Vertex phase
//! applies the damped update and refreshes the per-vertex contribution.
//! Dangling-vertex mass is redistributed uniformly through Grazelle's
//! global-variable facility (the `pre_iteration` hook), keeping the
//! artifact's "PageRank Sum" check at 1.0.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::DenseBitmap;
use grazelle_core::program::{apply_each, AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default damping factor.
pub const DAMPING: f64 = 0.85;

/// PageRank program state.
pub struct PageRank {
    n: usize,
    damping: f64,
    /// Current rank per vertex.
    ranks: PropertyArray,
    /// `rank[v] / outdeg[v]` — what the Edge phase gathers.
    contribs: PropertyArray,
    /// Per-destination sums.
    acc: PropertyArray,
    /// `1 / outdeg[v]` (0.0 for dangling vertices), for the Vertex phase.
    inv_outdeg: Vec<f64>,
    /// The vertices with no out-edges, ascending — whose rank mass
    /// `pre_iteration` redistributes every superstep.
    dangling: Vec<VertexId>,
    /// Per-iteration base rank `(1-d)/n + d·dangling/n` (f64 bits).
    base: AtomicU64,
    /// Use the AVX2 Vertex-phase kernel when the run's SIMD level allows.
    use_avx2: bool,
    /// Convergence tolerance on the L1 rank residual; `None` = fixed
    /// iteration count (the artifact's `-N` behavior).
    tolerance: Option<f64>,
    /// L1 residual accumulated by the current iteration's Vertex phase
    /// (f64 bits, CAS-accumulated — one update per vertex, so cheap).
    residual: AtomicU64,
}

impl PageRank {
    /// Initializes PageRank over a graph's out-degrees with uniform ranks.
    pub fn new(g: &Graph, damping: f64) -> Self {
        let out: Vec<u32> = (0..g.num_vertices() as VertexId)
            .map(|v| g.out_degree(v))
            .collect();
        PageRank::with_out_degrees(&out, damping)
    }

    /// Initializes PageRank from an explicit out-degree array — what a
    /// versioned graph supplies (base degrees merged with pending-insert
    /// degrees), where the base CSR alone would be stale.
    pub fn with_out_degrees(out_degrees: &[u32], damping: f64) -> Self {
        let n = out_degrees.len();
        let init = 1.0 / n as f64;
        let ranks = PropertyArray::filled_f64(n, init);
        let contribs = PropertyArray::new(n);
        let inv_outdeg: Vec<f64> = out_degrees
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
            .collect();
        for (v, inv) in inv_outdeg.iter().enumerate() {
            contribs.set_f64(v, init * inv);
        }
        let dangling = (0..n as VertexId)
            .filter(|&v| out_degrees[v as usize] == 0)
            .collect();
        PageRank {
            n,
            damping,
            ranks,
            contribs,
            acc: PropertyArray::new(n),
            inv_outdeg,
            dangling,
            base: AtomicU64::new(0),
            use_avx2: grazelle_vsparse::simd::detect() == SimdLevel::Avx2,
            tolerance: None,
            residual: AtomicU64::new(0),
        }
    }

    /// Warm-starts from a prior run's ranks (incremental maintenance over
    /// update streams): seeds the power iteration near the new fixpoint so
    /// a tolerance-terminated rerun converges in far fewer iterations.
    /// Contributions are refreshed from the current out-degrees.
    pub fn with_warm_ranks(self, ranks: &[f64]) -> Self {
        assert_eq!(ranks.len(), self.n, "warm ranks must cover every vertex");
        for (v, &r) in ranks.iter().enumerate() {
            self.ranks.set_f64(v, r);
            self.contribs.set_f64(v, r * self.inv_outdeg[v]);
        }
        self
    }

    /// Switches to tolerance-based termination: the run stops once the L1
    /// rank residual `Σ|r_new − r_old|` of an iteration drops below `tol`.
    /// Residual tracking disables the AVX2 Vertex kernel (it needs the
    /// per-vertex old/new difference).
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tolerance = Some(tol);
        self.use_avx2 = false;
        self
    }

    /// The last completed iteration's L1 residual.
    pub fn residual(&self) -> f64 {
        f64::from_bits(self.residual.load(Ordering::Relaxed))
    }

    fn add_residual(&self, delta: f64) {
        // Grazelle-style global variable: produced during the Vertex
        // phase, consumed at the iteration boundary.
        let cell = &self.residual;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current ranks.
    pub fn ranks(&self) -> Vec<f64> {
        self.ranks.to_vec_f64()
    }

    /// The artifact's "PageRank Sum" correctness check — "should always
    /// show a value very close to 1.0".
    pub fn rank_sum(&self) -> f64 {
        (0..self.n).map(|v| self.ranks.get_f64(v)).sum()
    }

    #[inline]
    fn base_value(&self) -> f64 {
        f64::from_bits(self.base.load(Ordering::Relaxed))
    }
}

impl GraphProgram for PageRank {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Sum
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.contribs
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    fn uses_frontier(&self) -> bool {
        false
    }

    fn pre_iteration(&self, _iteration: usize) {
        // Grazelle-style global variable: dangling mass produced by the
        // previous Vertex phase, consumed by this iteration's updates.
        // Summed in ascending vertex order, so the value does not depend on
        // how the list was built.
        let dangling: f64 = self
            .dangling
            .iter()
            .map(|&v| self.ranks.get_f64(v as usize))
            .sum();
        let base = (1.0 - self.damping) / self.n as f64 + self.damping * dangling / self.n as f64;
        self.base.store(base.to_bits(), Ordering::Relaxed);
        self.residual.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let rank = self.base_value() + self.damping * self.acc.get_f64(v);
        if self.tolerance.is_some() {
            self.add_residual((rank - self.ranks.get_f64(v)).abs());
        }
        self.ranks.set_f64(v, rank);
        self.contribs.set_f64(v, rank * self.inv_outdeg[v]);
        false
    }

    #[cfg(target_arch = "x86_64")]
    fn apply_range(
        &self,
        range: Range<VertexId>,
        next_frontier: Option<&DenseBitmap>,
        simd: SimdLevel,
    ) -> usize {
        if simd != SimdLevel::Avx2 || !self.use_avx2 {
            return apply_each(self, range, next_frontier);
        }
        // SAFETY: `use_avx2` was set from runtime feature detection, and
        // the Vertex phase hands each thread a range it owns exclusively.
        unsafe { self.apply_range_avx2(range) };
        0 // PageRank never activates: it has no frontier
    }

    fn should_stop(&self, _iteration: usize, _active: usize) -> bool {
        match self.tolerance {
            // Fixed iteration count, like the artifact's -N flag.
            None => false,
            Some(tol) => self.residual() < tol,
        }
    }

    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        // `ranks` must be included: `pre_iteration` re-derives the dangling
        // mass (and `apply` the residual) from it, so restoring contribs
        // and accumulators alone would not reproduce the run. `base` and
        // `residual` are recomputed every iteration and need no snapshot.
        vec![&self.ranks, &self.contribs, &self.acc]
    }
}

#[cfg(target_arch = "x86_64")]
impl PageRank {
    /// AVX2 Vertex-phase kernel: `rank = base + d·acc`, `contrib = rank /
    /// outdeg`, four vertices per step over the whole range inside one
    /// feature function (the Figure 10a "Vertex" arm), scalar tail.
    ///
    /// # Safety
    /// AVX2 must be available (runtime-detected by the caller) and the
    /// caller must own `range` exclusively for the current Vertex phase.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_range_avx2(&self, range: Range<VertexId>) {
        use std::arch::x86_64::*;
        let base = _mm256_set1_pd(self.base_value());
        let d = _mm256_set1_pd(self.damping);
        let acc = self.acc.as_f64_slice();
        let (mut v, end) = (range.start as usize, range.end as usize);
        while v + 4 <= end {
            // SAFETY: loads read bounds-checked 4-lane subslices; stores go
            // through the atomic cells' raw storage, and the Vertex phase
            // statically partitions vertices, so these lanes are exclusively
            // ours this phase (same discipline as PropertyArray::set_f64).
            unsafe {
                let sums = _mm256_loadu_pd(acc[v..v + 4].as_ptr());
                let rank = _mm256_add_pd(base, _mm256_mul_pd(d, sums));
                let inv = _mm256_loadu_pd(self.inv_outdeg[v..v + 4].as_ptr());
                _mm256_storeu_pd(self.ranks.f64_window_ptr(v, 4), rank);
                _mm256_storeu_pd(self.contribs.f64_window_ptr(v, 4), _mm256_mul_pd(rank, inv));
            }
            v += 4;
        }
        for v in v..end {
            self.apply(v as VertexId);
        }
    }
}

/// Runs `iterations` of PageRank on a prepared graph with an existing pool;
/// returns final ranks.
pub fn run_prepared(
    pg: &PreparedGraph,
    g: &Graph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    iterations: usize,
) -> (Vec<f64>, ExecutionStats) {
    let mut local = *cfg;
    local.max_iterations = iterations;
    let prog = PageRank::new(g, DAMPING);
    let stats = run_program_on_pool(pg, &prog, &local, pool);
    (prog.ranks(), stats)
}

/// Convenience entry point: prepares the graph, runs `iterations`, returns
/// final ranks.
pub fn run(g: &Graph, cfg: &EngineConfig, iterations: usize) -> Vec<f64> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, g, cfg, &pool, iterations).0
}

/// Sequential reference implementation (tests and EXPERIMENTS.md baselines).
pub fn reference(g: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        let dangling: f64 = (0..n as VertexId)
            .filter(|&v| g.out_degree(v) == 0)
            .map(|v| ranks[v as usize])
            .sum();
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        for v in 0..n as VertexId {
            let sum: f64 = g
                .in_neighbors(v)
                .iter()
                .map(|&s| ranks[s as usize] / g.out_degree(s) as f64)
                .sum();
            next[v as usize] = base + damping * sum;
        }
        std::mem::swap(&mut ranks, &mut next);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::datasets::Dataset;
    use grazelle_vsparse::simd::SimdLevel;

    fn tiny_graph() -> Graph {
        // 0 -> 1 -> 2 -> 0 cycle plus dangling 3 <- 0.
        let el = EdgeList::from_pairs(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        Graph::from_edgelist(&el).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_on_tiny_graph() {
        let g = tiny_graph();
        let cfg = EngineConfig::new().with_threads(2);
        let got = run(&g, &cfg, 20);
        let want = reference(&g, DAMPING, 20);
        assert_close(&got, &want, 1e-12);
    }

    #[test]
    fn rank_sum_is_one_with_dangling_vertices() {
        let g = tiny_graph();
        let prog = PageRank::new(&g, DAMPING);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(2).with_max_iterations(15);
        grazelle_core::engine::hybrid::run_program(&pg, &prog, &cfg);
        assert!(
            (prog.rank_sum() - 1.0).abs() < 1e-9,
            "rank sum {}",
            prog.rank_sum()
        );
    }

    #[test]
    fn matches_reference_on_scale_free_graph() {
        let g = Dataset::LiveJournal.build_scaled(-6);
        let cfg = EngineConfig::new().with_threads(3);
        let got = run(&g, &cfg, 10);
        let want = reference(&g, DAMPING, 10);
        assert_close(&got, &want, 1e-9);
    }

    #[test]
    fn all_pull_modes_and_simd_levels_agree() {
        let g = Dataset::CitPatents.build_scaled(-6);
        let reference_run = run(
            &g,
            &EngineConfig::new()
                .with_threads(1)
                .with_pull_mode(PullMode::SchedulerAware)
                .with_simd(SimdLevel::Scalar),
            8,
        );
        for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
            for simd in [SimdLevel::Scalar, grazelle_vsparse::simd::detect()] {
                let cfg = EngineConfig::new()
                    .with_threads(4)
                    .with_pull_mode(mode)
                    .with_simd(simd);
                let got = run(&g, &cfg, 8);
                assert_close(&got, &reference_run, 1e-9);
            }
        }
    }

    #[test]
    fn nonatomic_single_thread_agrees() {
        let g = tiny_graph();
        let cfg = EngineConfig::new()
            .with_threads(1)
            .with_pull_mode(PullMode::TraditionalNoAtomic);
        assert_close(&run(&g, &cfg, 10), &reference(&g, DAMPING, 10), 1e-12);
    }

    #[test]
    fn zero_iterations_returns_uniform() {
        let g = tiny_graph();
        let cfg = EngineConfig::new().with_threads(1);
        let ranks = run(&g, &cfg, 0);
        assert_close(&ranks, &[0.25; 4], 1e-15);
    }

    #[test]
    fn tolerance_termination_converges_early_and_accurately() {
        let g = Dataset::LiveJournal.build_scaled(-6);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(2).with_max_iterations(500);
        let prog = PageRank::new(&g, DAMPING).with_tolerance(1e-10);
        let stats = grazelle_core::engine::hybrid::run_program(&pg, &prog, &cfg);
        assert!(
            stats.iterations < 500,
            "should converge before the cap, took {}",
            stats.iterations
        );
        assert!(prog.residual() < 1e-10);
        // Converged ranks match a long fixed-iteration reference closely.
        let want = reference(&g, DAMPING, 200);
        for (a, b) in prog.ranks().iter().zip(&want) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!((prog.rank_sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tighter_tolerance_takes_more_iterations() {
        let g = tiny_graph();
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new()
            .with_threads(1)
            .with_max_iterations(1000);
        let iters = |tol: f64| {
            let prog = PageRank::new(&g, DAMPING).with_tolerance(tol);
            grazelle_core::engine::hybrid::run_program(&pg, &prog, &cfg).iterations
        };
        assert!(iters(1e-12) > iters(1e-3));
    }

    /// PageRank with the O(V) `pre_iteration` this module used to have: the
    /// dangling mass re-derived by filtering every vertex's `inv_outdeg`.
    struct FilteredDangling(PageRank);

    impl GraphProgram for FilteredDangling {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn op(&self) -> AggOp {
            self.0.op()
        }
        fn edge_values(&self) -> &PropertyArray {
            self.0.edge_values()
        }
        fn accumulators(&self) -> &PropertyArray {
            self.0.accumulators()
        }
        fn uses_frontier(&self) -> bool {
            false
        }
        fn pre_iteration(&self, _iteration: usize) {
            let p = &self.0;
            let dangling: f64 = (0..p.n)
                .filter(|&v| p.inv_outdeg[v] == 0.0)
                .map(|v| p.ranks.get_f64(v))
                .sum();
            let base = (1.0 - p.damping) / p.n as f64 + p.damping * dangling / p.n as f64;
            p.base.store(base.to_bits(), Ordering::Relaxed);
        }
        fn apply(&self, v: VertexId) -> bool {
            self.0.apply(v)
        }
        fn apply_range(
            &self,
            range: Range<VertexId>,
            next_frontier: Option<&DenseBitmap>,
            simd: SimdLevel,
        ) -> usize {
            self.0.apply_range(range, next_frontier, simd)
        }
    }

    #[test]
    fn dangling_list_gives_bit_identical_ranks() {
        use grazelle_graph::gen::rmat::{rmat, RmatConfig};
        let skewed = Graph::from_edgelist(&rmat(&RmatConfig::graph500(11, 6.0, 9))).unwrap();
        for (g, iterations) in [(tiny_graph(), 25), (skewed, 12)] {
            let dangling = (0..g.num_vertices() as VertexId)
                .filter(|&v| g.out_degree(v) == 0)
                .count();
            assert!(dangling > 0, "fixture must have dangling vertices");
            let pg = PreparedGraph::new(&g);
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_max_iterations(iterations);
            let listed = PageRank::new(&g, DAMPING);
            let filtered = FilteredDangling(PageRank::new(&g, DAMPING));
            grazelle_core::engine::hybrid::run_program(&pg, &listed, &cfg);
            grazelle_core::engine::hybrid::run_program(&pg, &filtered, &cfg);
            let bits = |r: Vec<f64>| r.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(listed.ranks()), bits(filtered.0.ranks()));
        }
    }

    #[test]
    fn scheduler_aware_does_not_synchronize_for_pagerank() {
        let g = Dataset::CitPatents.build_scaled(-7);
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(4);
        let cfg = EngineConfig::new().with_threads(4);
        let (_, stats) = run_prepared(&pg, &g, &cfg, &pool, 5);
        assert_eq!(stats.profile.atomic_updates, 0);
        assert!(stats.profile.direct_stores > 0);
        assert_eq!(stats.pull_iterations, 5, "PageRank always pulls");
    }
}
