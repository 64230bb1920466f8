//! End-to-end runs under the shadow write-tracker (`invariant-checks`).
//!
//! `cargo test --features invariant-checks` compiles the tracker into the
//! engine: the driver (plain or contained) audits the §3
//! exactly-once-write contract after every scheduler-aware Edge phase,
//! checks at the end of the run that none went unaudited, and panics on
//! any violation, so simply running the applications here *is* the
//! assertion. The property test
//! additionally drives the pull engine directly over random CSR graphs at
//! 1/2/8 threads and verifies the tracker was engaged, not bypassed.

#![cfg(feature = "invariant-checks")]

use grazelle::core::config::{EngineConfig, Granularity, PullMode};
use grazelle::core::engine::pull::{edge_pull, EdgeSchedulers, MergeEntry};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::frontier::Frontier;
use grazelle::core::program::{AggOp, GraphProgram};
use grazelle::core::properties::PropertyArray;
use grazelle::core::spmv::program_kernel;
use grazelle::core::stats::Profiler;
use grazelle::graph::edgelist::EdgeList;
use grazelle::prelude::*;
use grazelle_apps::{cc, pagerank};
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::build::VectorSparse;
use grazelle_vsparse::simd::Kernels;
use proptest::prelude::*;

/// PageRank end-to-end under the tracker: zero violations at every thread
/// count, and the ranks still match the sequential reference.
#[test]
fn pagerank_runs_clean_under_tracker() {
    let g = Dataset::Twitter2010.build_scaled(-5);
    let want = pagerank::reference(&g, pagerank::DAMPING, 5);
    for threads in [1usize, 2, 8] {
        let cfg = EngineConfig::new().with_threads(threads);
        let ranks = pagerank::run(&g, &cfg, 5);
        for (v, (a, b)) in ranks.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "threads {threads} vertex {v}");
        }
    }
}

/// Connected Components end-to-end under the tracker, including the
/// write-intense variant that stresses the Vertex phase.
#[test]
fn cc_runs_clean_under_tracker() {
    let g = {
        let base = Dataset::Uk2007.build_scaled(-5);
        let mut el = EdgeList::with_capacity(base.num_vertices(), base.num_edges() * 2);
        for v in 0..base.num_vertices() as u32 {
            for &d in base.out_neighbors(v) {
                el.push(v, d).expect("in-range vertex id");
            }
        }
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).expect("valid edge list")
    };
    let want = cc::reference_undirected(&g);
    for threads in [1usize, 2, 8] {
        let cfg = EngineConfig::new().with_threads(threads);
        let labels = cc::run(&g, &cfg);
        assert_eq!(labels, want, "threads {threads}");
    }
}

/// A contained clean run is audited like a plain one: every pull phase —
/// dense at first, compacted once the frontier thins — closes its tracker
/// phase, and the driver's end-of-run count (`phases_checked` = pull phases
/// that completed in parallel) holds with containment on.
#[test]
fn contained_cc_runs_clean_under_tracker() {
    use grazelle::core::{run_resilient_on_pool, EngineKind, ResilienceContext, RunOutcome};
    let g = Dataset::Uk2007.build_scaled(-5);
    let pg = PreparedGraph::new(&g);
    for threads in [1usize, 2, 8] {
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_force_engine(Some(EngineKind::Pull))
            .with_trace(true);
        let pool = ThreadPool::single_group(threads);
        let plain = cc::ConnectedComponents::new(g.num_vertices());
        grazelle::core::engine::hybrid::run_program_on_pool(&pg, &plain, &cfg, &pool);
        let prog = cc::ConnectedComponents::new(g.num_vertices());
        let run = run_resilient_on_pool(&pg, &prog, &cfg, &ResilienceContext::new(), &pool)
            .expect("clean contained run");
        assert_eq!(run.outcome, RunOutcome::Clean, "threads {threads}");
        assert_eq!(prog.labels(), plain.labels(), "threads {threads}");
        assert!(
            run.stats.records.iter().any(|r| r.pull_compacted),
            "threads {threads}: the restricted (compacted) audit never ran"
        );
    }
}

struct SumProg {
    vals: PropertyArray,
    acc: PropertyArray,
    n: usize,
}
impl GraphProgram for SumProg {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn op(&self) -> AggOp {
        AggOp::Sum
    }
    fn edge_values(&self) -> &PropertyArray {
        &self.vals
    }
    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }
    fn apply(&self, _v: u32) -> bool {
        false
    }
    fn uses_frontier(&self) -> bool {
        false
    }
}

/// Min-label flood that *falsely* declares `identity_apply_is_noop`: from
/// the third superstep on, the last vertex activates itself whether or not
/// a message reached it.
struct FalseDeclaration {
    labels: PropertyArray,
    acc: PropertyArray,
    n: usize,
    supersteps: std::sync::atomic::AtomicUsize,
}
impl GraphProgram for FalseDeclaration {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn op(&self) -> AggOp {
        AggOp::Min
    }
    fn edge_values(&self) -> &PropertyArray {
        &self.labels
    }
    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }
    fn pre_iteration(&self, iteration: usize) {
        self.supersteps
            .store(iteration, std::sync::atomic::Ordering::Relaxed);
    }
    fn apply(&self, v: u32) -> bool {
        let v = v as usize;
        let agg = self.acc.get_f64(v);
        if agg < self.labels.get_f64(v) {
            self.labels.set_f64(v, agg);
            return true;
        }
        v == self.n - 1 && self.supersteps.load(std::sync::atomic::Ordering::Relaxed) >= 3
    }
    fn uses_frontier(&self) -> bool {
        true
    }
    fn identity_apply_is_noop(&self) -> bool {
        true
    }
    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &[0])
    }
}

/// The sparse Vertex phase's shadow audit is live: a program whose `apply`
/// breaks the contract it declares is caught at the first superstep where
/// the dense sweep would have activated a vertex the sparse one skipped.
#[test]
#[should_panic(expected = "identity_apply_is_noop() is declared but does not hold")]
fn false_contract_declaration_is_caught_by_the_shadow_sweep() {
    let n = 64usize;
    let mut el = EdgeList::new(n);
    for v in 0..n as u32 - 1 {
        el.push(v, v + 1).expect("in-range vertex id");
    }
    let g = Graph::from_edgelist(&el).expect("valid edge list");
    let pg = PreparedGraph::new(&g);
    let labels = PropertyArray::filled_f64(n, f64::INFINITY);
    labels.set_f64(0, 0.0);
    let prog = FalseDeclaration {
        labels,
        acc: PropertyArray::new(n),
        n,
        supersteps: std::sync::atomic::AtomicUsize::new(0),
    };
    grazelle::core::run_program(&pg, &prog, &EngineConfig::new().with_threads(1));
}

/// SSSP that declares the run over after its third superstep, whatever is
/// still waiting — which a declared bucket width forbids.
struct StopsEarly(grazelle_apps::Sssp);
impl GraphProgram for StopsEarly {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn op(&self) -> AggOp {
        self.0.op()
    }
    fn edge_func(&self) -> grazelle::core::program::EdgeFunc {
        self.0.edge_func()
    }
    fn edge_values(&self) -> &PropertyArray {
        self.0.edge_values()
    }
    fn accumulators(&self) -> &PropertyArray {
        self.0.accumulators()
    }
    fn apply(&self, v: u32) -> bool {
        self.0.apply(v)
    }
    fn uses_frontier(&self) -> bool {
        true
    }
    fn identity_apply_is_noop(&self) -> bool {
        true
    }
    fn bucket_width(&self, structure: &grazelle_vsparse::build::Vss) -> Option<f64> {
        self.0.bucket_width(structure)
    }
    fn initial_frontier(&self) -> Frontier {
        self.0.initial_frontier()
    }
    fn should_stop(&self, iteration: usize, active: usize) -> bool {
        iteration >= 2 || active == 0
    }
}

/// The end-of-run audit of the priority schedule is live: a run that ends
/// of its own accord with a vertex still in a bucket is caught.
#[test]
#[should_panic(expected = "the priority schedule stopped with vertices still waiting")]
fn stopping_with_vertices_waiting_is_caught_by_the_schedule_audit() {
    let n = 16usize;
    let mut el = EdgeList::new(n);
    for v in 0..n as u32 - 1 {
        el.push_weighted(v, v + 1, 1.0).expect("in-range vertex id");
    }
    let g = Graph::from_edgelist(&el).expect("valid edge list");
    let pg = PreparedGraph::new(&g);
    let prog = StopsEarly(grazelle_apps::Sssp::new(n, 0));
    grazelle::core::run_program(&pg, &prog, &EngineConfig::new().with_threads(1));
}

/// The drain audit's positive side: BFS and SSSP runs that drain buckets
/// in place (every bucket at one thread; at two, all but the wide ones) are
/// re-run with supersteps under the audit and end on the same bits.
#[test]
fn drained_runs_reach_the_superstep_fixpoint_under_audit() {
    use grazelle_apps::{bfs, sssp};
    let mut el = grazelle::graph::gen::grid_mesh(40, 40, 0.8, 3);
    el.symmetrize();
    el.sort_and_dedup();
    let (n, edges, _) = el.into_parts();
    let weights = edges
        .iter()
        .map(|&(s, d)| ((s * 7 + d) % 13 + 1) as f64 / 8.0)
        .collect();
    let g = Graph::from_edgelist(&EdgeList::from_parts(n, edges, Some(weights)).unwrap()).unwrap();
    let pg = PreparedGraph::new(&g);
    for threads in [1usize, 2] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_max_iterations(n + 1);
        let (parents, stats) = bfs::run_prepared(&pg, &cfg, &pool, 0);
        assert_eq!(parents, bfs::reference_parents(&g, 0), "x{threads}");
        assert!(stats.profile.drained_buckets > 0, "x{threads}: BFS drained");
        let (dists, stats) = sssp::run_prepared(&pg, &cfg, &pool, 0);
        assert_eq!(dists, sssp::reference(&g, 0), "x{threads}");
        assert!(
            stats.profile.drained_buckets > 0,
            "x{threads}: SSSP drained"
        );
    }
}

/// A program that declares a bucket width but is no relaxation: it keeps
/// the largest *sum* of messages a vertex received in one step, so the
/// drain, which applies each message alone, ends elsewhere than the
/// superstep run, which sums a step's messages first.
struct LargestBatch {
    ones: PropertyArray,
    acc: PropertyArray,
    largest: PropertyArray,
}
impl GraphProgram for LargestBatch {
    fn num_vertices(&self) -> usize {
        self.ones.len()
    }
    fn op(&self) -> AggOp {
        AggOp::Sum
    }
    fn edge_values(&self) -> &PropertyArray {
        &self.ones
    }
    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }
    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        vec![&self.ones, &self.acc, &self.largest]
    }
    fn apply(&self, v: u32) -> bool {
        let (batch, largest) = (
            self.acc.get_f64(v as usize),
            self.largest.get_f64(v as usize),
        );
        if batch > largest {
            self.largest.set_f64(v as usize, batch);
        }
        batch > 0.0 && largest == 0.0
    }
    fn uses_frontier(&self) -> bool {
        true
    }
    fn identity_apply_is_noop(&self) -> bool {
        true
    }
    fn bucket_width(&self, _structure: &grazelle_vsparse::build::Vss) -> Option<f64> {
        Some(1.0)
    }
    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.num_vertices(), &[0])
    }
}

/// The drain audit is live: a run whose drained fixpoint differs from the
/// superstep run's is caught at its end.
#[test]
#[should_panic(expected = "the in-place drain ended on another fixpoint than the superstep run")]
fn a_drain_that_moves_the_fixpoint_is_caught_by_the_superstep_rerun() {
    // 0 -> {1, 2, 3} -> 4: a superstep hands 4 a batch of three messages,
    // the drain three batches of one.
    let pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)];
    let g = Graph::from_edgelist(&EdgeList::from_pairs(5, &pairs).unwrap()).unwrap();
    let pg = PreparedGraph::new(&g);
    let prog = LargestBatch {
        ones: PropertyArray::filled_f64(5, 1.0),
        acc: PropertyArray::new(5),
        largest: PropertyArray::new(5),
    };
    grazelle::core::run_program(&pg, &prog, &EngineConfig::new().with_threads(1));
}

/// BFS-style flood whose converged set breaks its contract: at the fourth
/// superstep half the vertices join it in `pre_iteration`, without an
/// activation.
struct SilentConvergence {
    ids: PropertyArray,
    acc: PropertyArray,
    visited: grazelle::core::frontier::DenseBitmap,
    n: usize,
}
impl GraphProgram for SilentConvergence {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn op(&self) -> AggOp {
        AggOp::Min
    }
    fn edge_values(&self) -> &PropertyArray {
        &self.ids
    }
    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }
    fn pre_iteration(&self, iteration: usize) {
        if iteration == 3 {
            for v in self.n as u32 / 2..self.n as u32 {
                self.visited.insert(v);
            }
        }
    }
    fn apply(&self, v: u32) -> bool {
        if self.visited.contains(v) || !self.acc.get_f64(v as usize).is_finite() {
            return false;
        }
        self.visited.insert(v);
        true
    }
    fn uses_frontier(&self) -> bool {
        true
    }
    fn identity_apply_is_noop(&self) -> bool {
        true
    }
    fn converged(&self) -> Option<&grazelle::core::frontier::DenseBitmap> {
        Some(&self.visited)
    }
    fn initial_frontier(&self) -> Frontier {
        Frontier::from_vertices(self.n, &[0])
    }
}

/// The audit of the driver's converged bound is live: a converged set that
/// grows without activations is caught at the superstep it happens.
#[test]
#[should_panic(expected = "the converged set grew without activations")]
fn silent_convergence_is_caught_by_the_bound_audit() {
    let n = 64usize;
    let mut el = EdgeList::new(n);
    for v in 0..n as u32 - 1 {
        el.push(v, v + 1).expect("in-range vertex id");
    }
    let g = Graph::from_edgelist(&el).expect("valid edge list");
    let pg = PreparedGraph::new(&g);
    let ids = PropertyArray::new(n);
    for v in 0..n {
        ids.set_f64(v, v as f64);
    }
    let visited = grazelle::core::frontier::DenseBitmap::new(n);
    visited.insert(0);
    let prog = SilentConvergence {
        ids,
        acc: PropertyArray::new(n),
        visited,
        n,
    };
    grazelle::core::run_program(&pg, &prog, &EngineConfig::new().with_threads(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tracker stays silent on the real `aware` scheduler for random
    /// CSR graphs across 1/2/8 threads and arbitrary chunking — and it
    /// demonstrably audited the phase (`phases_checked` advanced).
    #[test]
    fn prop_tracker_silent_on_real_scheduler(
        edges in proptest::collection::vec((0u32..48, 0u32..48), 1..300),
        gran in 1usize..40,
    ) {
        let mut el = EdgeList::from_pairs(48, &edges).expect("ids in range");
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).expect("valid edge list");
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        for threads in [1usize, 2, 8] {
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::single_group(threads);
            let chunks = vsd.num_vectors().div_ceil(gran).max(1);
            let scheds = EdgeSchedulers::single(vsd.num_vectors(), chunks);
            let mut merge: SlotBuffer<MergeEntry> =
                SlotBuffer::new(scheds.total_chunks());
            let prof = Profiler::with_tracker();
            let kern = program_kernel(&prog, &vsd, Kernels::auto());
            // Panics internally on any §3 contract violation.
            edge_pull(
                &vsd,
                &kern,
                &Frontier::all(n),
                &pool,
                &scheds,
                None,
                &mut merge,
                PullMode::SchedulerAware,
                None,
                &prof,
            );
            let t = prof.tracker.as_ref().expect("tracker installed");
            prop_assert_eq!(t.phases_checked(), 1);
            // In-degree sums must still be exact.
            for v in 0..n as u32 {
                let want = g.in_neighbors(v).len() as f64;
                prop_assert!(
                    (prog.acc.get_f64(v as usize) - want).abs() < 1e-9,
                    "threads {} vertex {}", threads, v
                );
            }
        }
    }

    /// The full hybrid driver (engine switching, frontiers, granularities)
    /// also runs clean: `run_program` audits every scheduler-aware phase.
    #[test]
    fn prop_hybrid_driver_silent_on_random_graphs(
        edges in proptest::collection::vec((0u32..32, 0u32..32), 1..200),
        gran in 1usize..32,
        threads in 1usize..5,
    ) {
        let mut el = EdgeList::from_pairs(32, &edges).expect("ids in range");
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).expect("valid edge list");
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_granularity(Granularity::VectorsPerChunk(gran))
            .with_max_iterations(4);
        let prog = pagerank::PageRank::new(&g, pagerank::DAMPING);
        let pool = ThreadPool::single_group(threads);
        grazelle::core::engine::hybrid::run_program_on_pool(&pg, &prog, &cfg, &pool);
    }
}
