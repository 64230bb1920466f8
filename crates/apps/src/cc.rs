//! Connected Components via label propagation.
//!
//! "Connected Components uses the frontier to activate and deactivate
//! source vertices, thus exhibiting the most common type of frontier
//! utilization. Its aggregation operator is minimization, which sometimes
//! allows it to skip memory write operations" (§6). Labels start at the
//! vertex id and flood to the component minimum.
//!
//! The [`write-intense`](ConnectedComponents::write_intense_variant)
//! variant reproduces Figure 8a's modified version that "unconditionally
//! writes values to vertex properties, even if the value to be written is
//! equal to the value already present".
//!
//! Label propagation computes components of the *directed* edge relation as
//! given; for weakly connected components of a directed graph, symmetrize
//! the edge list first (as the paper's symmetric inputs effectively are).

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::{DenseBitmap, Frontier};
use grazelle_core::program::{apply_each, AggOp, GraphProgram};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use std::ops::Range;

/// Connected Components program state.
pub struct ConnectedComponents {
    n: usize,
    labels: PropertyArray,
    acc: PropertyArray,
    write_intense: bool,
    use_avx2: bool,
}

impl ConnectedComponents {
    /// Standard version: labels initialized to vertex ids.
    pub fn new(n: usize) -> Self {
        let labels = PropertyArray::new(n);
        for v in 0..n {
            labels.set_f64(v, v as f64);
        }
        ConnectedComponents {
            n,
            labels,
            acc: PropertyArray::new(n),
            write_intense: false,
            use_avx2: grazelle_vsparse::simd::detect() == SimdLevel::Avx2,
        }
    }

    /// The Figure 8a write-intense variant.
    pub fn write_intense_variant(n: usize) -> Self {
        ConnectedComponents {
            write_intense: true,
            ..ConnectedComponents::new(n)
        }
    }

    /// Final component labels (component = minimum vertex id reachable).
    pub fn labels(&self) -> Vec<u32> {
        (0..self.n).map(|v| self.labels.get_f64(v) as u32).collect()
    }
}

impl GraphProgram for ConnectedComponents {
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

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let old = self.labels.get_f64(v);
        let agg = self.acc.get_f64(v);
        if self.write_intense {
            // Unconditional write, activity still tracked by comparison.
            let new = old.min(agg);
            self.labels.set_f64(v, new);
            new < old
        } else if agg < old {
            self.labels.set_f64(v, agg);
            true
        } else {
            false
        }
    }

    /// Vectorized local update (the Figure 10a "Vertex" pattern applied to
    /// minimization) when the run's SIMD level allows; the write-intense
    /// variant keeps its unconditional-store semantics on the scalar path.
    #[cfg(target_arch = "x86_64")]
    fn apply_range(
        &self,
        range: Range<VertexId>,
        next_frontier: Option<&DenseBitmap>,
        simd: SimdLevel,
    ) -> usize {
        if simd != SimdLevel::Avx2 || !self.use_avx2 || self.write_intense {
            return apply_each(self, range, next_frontier);
        }
        // SAFETY: gated on runtime AVX2 detection, and the Vertex phase
        // hands each thread a range it owns exclusively.
        unsafe { self.apply_range_avx2(range, next_frontier) }
    }

    fn uses_frontier(&self) -> bool {
        true
    }

    fn identity_apply_is_noop(&self) -> bool {
        // Holds in write-intense mode too: `old.min(+∞)` stores `old` back.
        true
    }

    fn write_intense(&self) -> bool {
        self.write_intense
    }

    fn initial_frontier(&self) -> Frontier {
        Frontier::all(self.n)
    }

    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        // Labels plus accumulators are the complete mutable state; listed
        // explicitly (matching the trait default) so checkpoint coverage is
        // audited here rather than inherited by accident.
        vec![&self.labels, &self.acc]
    }
}

#[cfg(target_arch = "x86_64")]
impl ConnectedComponents {
    /// AVX2 Vertex-phase kernel: fold min aggregates into labels, four
    /// vertices per step over the whole range inside one feature function,
    /// the changed lanes of each step going into `next_frontier`; scalar
    /// tail. Returns the number of changed vertices.
    ///
    /// # Safety
    /// AVX2 must be available (runtime-detected by the caller) and the
    /// caller must own `range` exclusively for the current Vertex phase.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_range_avx2(
        &self,
        range: Range<VertexId>,
        next_frontier: Option<&DenseBitmap>,
    ) -> usize {
        use std::arch::x86_64::*;
        let labels = self.labels.as_f64_slice();
        let acc = self.acc.as_f64_slice();
        let mut active = 0;
        let (mut v, end) = (range.start as usize, range.end as usize);
        while v + 4 <= end {
            // SAFETY: loads read bounds-checked 4-lane subslices; the store
            // goes through the atomic cells' raw storage, and the Vertex
            // phase partitions vertices statically, so these lanes are
            // exclusively ours.
            let mask = unsafe {
                let old = _mm256_loadu_pd(labels[v..v + 4].as_ptr());
                let agg = _mm256_loadu_pd(acc[v..v + 4].as_ptr());
                // Changed lanes: agg strictly below old. (Min aggregates are
                // never NaN: identities are ±inf and labels are finite ids.)
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(agg, old);
                let mask = _mm256_movemask_pd(lt) as u32;
                if mask != 0 {
                    _mm256_storeu_pd(self.labels.f64_window_ptr(v, 4), _mm256_min_pd(agg, old));
                }
                mask
            };
            active += mask.count_ones() as usize;
            if let Some(f) = next_frontier {
                let mut bits = mask;
                while bits != 0 {
                    f.insert((v as u32) + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            v += 4;
        }
        active + apply_each(self, v as VertexId..range.end, next_frontier)
    }
}

/// Runs Connected Components to convergence on a prepared graph.
pub fn run_prepared(
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    write_intense: bool,
) -> (Vec<u32>, ExecutionStats) {
    let prog = if write_intense {
        ConnectedComponents::write_intense_variant(pg.num_vertices)
    } else {
        ConnectedComponents::new(pg.num_vertices)
    };
    let stats = run_program_on_pool(pg, &prog, cfg, pool);
    (prog.labels(), stats)
}

/// Convenience entry point.
pub fn run(g: &Graph, cfg: &EngineConfig) -> Vec<u32> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, cfg, &pool, false).0
}

/// Sequential reference: union-find over the edge list (treats edges as
/// undirected, so compare against symmetrized inputs).
pub fn reference_undirected(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for s in 0..n as u32 {
        for &d in g.out_neighbors(s) {
            let (a, b) = (find(&mut parent, s), find(&mut parent, d));
            if a != b {
                let (lo, hi) = (a.min(b), a.max(b));
                parent[hi as usize] = lo;
            }
        }
    }
    // Compress to component minimum.
    let mut label = vec![0u32; n];
    for v in 0..n as u32 {
        label[v as usize] = find(&mut parent, v);
    }
    // Union-by-min above does not guarantee the root is the min; fix up.
    let mut min_of_root = std::collections::HashMap::new();
    for v in 0..n as u32 {
        let r = label[v as usize];
        let e = min_of_root.entry(r).or_insert(v);
        *e = (*e).min(v);
    }
    label.iter().map(|r| min_of_root[r]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};

    fn symmetric_graph(pairs: &[(u32, u32)], n: usize) -> Graph {
        let mut el = EdgeList::from_pairs(n, pairs).unwrap();
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn two_components() {
        let g = symmetric_graph(&[(0, 1), (1, 2), (3, 4)], 5);
        let cfg = EngineConfig::new().with_threads(2);
        let labels = run(&g, &cfg);
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = symmetric_graph(&[(0, 1)], 4);
        let labels = run(&g, &EngineConfig::new().with_threads(1));
        assert_eq!(labels, vec![0, 0, 2, 3]);
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let mut el = rmat(&RmatConfig::graph500(10, 3.0, 77));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let cfg = EngineConfig::new().with_threads(4);
        let got = run(&g, &cfg);
        let want = reference_undirected(&g);
        assert_eq!(got, want);
    }

    #[test]
    fn write_intense_variant_gives_same_answer() {
        let mut el = rmat(&RmatConfig::graph500(9, 4.0, 5));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(3);
        let cfg = EngineConfig::new().with_threads(3);
        let (std_labels, _) = run_prepared(&pg, &cfg, &pool, false);
        let (wi_labels, _) = run_prepared(&pg, &cfg, &pool, true);
        assert_eq!(std_labels, wi_labels);
    }

    #[test]
    fn write_intense_traditional_issues_more_atomics() {
        let mut el = rmat(&RmatConfig::graph500(9, 6.0, 8));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(2);
        let cfg = EngineConfig::new()
            .with_threads(2)
            .with_pull_mode(PullMode::Traditional);
        let (_, std_stats) = run_prepared(&pg, &cfg, &pool, false);
        let (_, wi_stats) = run_prepared(&pg, &cfg, &pool, true);
        // Both use the traditional interface; counters must show atomics.
        assert!(std_stats.profile.atomic_updates > 0);
        assert!(wi_stats.profile.atomic_updates > 0);
    }

    #[test]
    fn simd_vertex_phase_matches_scalar() {
        use grazelle_vsparse::simd::SimdLevel;
        let mut el = rmat(&RmatConfig::graph500(10, 4.0, 42));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::single_group(3);
        let run = |simd: SimdLevel| {
            let prog = ConnectedComponents::new(g.num_vertices());
            let cfg = EngineConfig::new().with_threads(3).with_simd(simd);
            grazelle_core::engine::hybrid::run_program_on_pool(&pg, &prog, &cfg, &pool);
            prog.labels()
        };
        let scalar = run(SimdLevel::Scalar);
        let simd = run(grazelle_vsparse::simd::detect());
        assert_eq!(scalar, simd);
        assert_eq!(scalar, reference_undirected(&g));
    }

    #[test]
    fn apply_range_avx2_matches_scalar_applies() {
        // Direct unit check of the AVX2 range kernel against scalar apply:
        // two full blocks plus a scalar tail, starting off a block boundary.
        use grazelle_vsparse::simd::detect;
        let n = 11;
        let run = |prog: ConnectedComponents, simd: SimdLevel| {
            for v in 0..n {
                // Aggregates improve every vertex not divisible by 3.
                let agg = if v % 3 == 0 { f64::INFINITY } else { 0.5 };
                prog.acc.set_f64(v, agg);
            }
            let next = DenseBitmap::new(n);
            let active = prog.apply_range(1..n as VertexId, Some(&next), simd);
            (active, next.iter().collect::<Vec<_>>(), prog.labels())
        };
        let scalar = run(ConnectedComponents::new(n), SimdLevel::Scalar);
        assert_eq!(run(ConnectedComponents::new(n), detect()), scalar);
        assert_eq!(scalar.0, 7);
        assert_eq!(scalar.1, vec![1, 2, 4, 5, 7, 8, 10]);
        assert_eq!(scalar.2, vec![0, 0, 0, 3, 0, 0, 6, 0, 0, 9, 0]);
    }

    #[test]
    fn all_modes_agree() {
        let g = symmetric_graph(&[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (8, 9)], 10);
        let want = reference_undirected(&g);
        for mode in [PullMode::SchedulerAware, PullMode::Traditional] {
            let cfg = EngineConfig::new().with_threads(4).with_pull_mode(mode);
            assert_eq!(run(&g, &cfg), want, "{mode:?}");
        }
    }
}
