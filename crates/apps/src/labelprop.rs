//! Label-propagation community detection over packed integer keys.
//!
//! Classic label propagation is non-deterministic (ties broken by visit
//! order). This variant is a *monotone lattice ascent* that every engine
//! path reproduces bit-for-bit: each vertex carries a packed key
//!
//! ```text
//! key(v) = score·2^34 + rank·2^17 + label      (three 17-bit fields)
//! ```
//!
//! initialized to `score = min(deg(v), 2^17−1)`, `rank = 2^17−1−v`
//! (ties prefer the lower vertex id), `label = v`. The Edge phase sends
//! `key(u) − 2^34` ([`EdgeFunc::ValueHopDecay`] — one hop costs one score
//! point) and reduces with `Max`; the Vertex phase adopts any strictly
//! larger incoming key. Labels therefore flood outward from high-degree
//! seeds, reaching exactly the vertices within `score` hops that no
//! stronger seed claims first. Keys only increase and are bounded, so the
//! run converges; all values are exact integers below 2^52, so Max over
//! f64 is exact and order-insensitive — bit-identical across pull, push,
//! compacted, 8-lane, and degraded scalar paths at any thread count.

use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, ExecutionStats};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::frontier::Frontier;
use grazelle_core::program::{AggOp, EdgeFunc, GraphProgram, HOP_DECAY};
use grazelle_core::properties::PropertyArray;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;

/// Field width of the packed key's three components.
const FIELD_BITS: u32 = 17;
/// Maximum value of one packed field.
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;
/// Largest supported vertex count: ids and ranks must fit one field.
pub const MAX_VERTICES: usize = 1 << FIELD_BITS;

#[inline]
fn pack(score: u64, rank: u64, label: u64) -> f64 {
    debug_assert!(score <= FIELD_MAX && rank <= FIELD_MAX && label <= FIELD_MAX);
    ((score << (2 * FIELD_BITS)) | (rank << FIELD_BITS) | label) as f64
}

#[inline]
fn unpack_label(key: f64) -> u32 {
    (key as u64 & FIELD_MAX) as u32
}

/// Label-propagation program state.
pub struct LabelProp {
    n: usize,
    keys: PropertyArray,
    acc: PropertyArray,
}

impl LabelProp {
    /// Initializes every vertex as its own community seed with strength
    /// `min(deg(v), 2^17−1)`.
    pub fn new(g: &Graph) -> Self {
        let degrees: Vec<u32> = (0..g.num_vertices() as u32)
            .map(|v| g.out_neighbors(v).len() as u32)
            .collect();
        Self::with_out_degrees(&degrees)
    }

    /// [`LabelProp::new`] from an out-degree table directly — what the
    /// serving layer uses once the graph is versioned and the merged
    /// degrees live in the [`GraphView`](grazelle_core::incremental::GraphView).
    pub fn with_out_degrees(out_degrees: &[u32]) -> Self {
        let n = out_degrees.len();
        assert!(
            n <= MAX_VERTICES,
            "label propagation packs vertex ids into {FIELD_BITS}-bit fields \
             (≤ {MAX_VERTICES} vertices)"
        );
        let keys = PropertyArray::new(n);
        for (v, &d) in out_degrees.iter().enumerate() {
            let deg = (d as u64).min(FIELD_MAX);
            keys.set_f64(v, pack(deg, FIELD_MAX - v as u64, v as u64));
        }
        LabelProp {
            n,
            keys,
            acc: PropertyArray::new(n),
        }
    }

    /// Final community labels (the seed vertex id each vertex adopted).
    pub fn labels(&self) -> Vec<u32> {
        (0..self.n)
            .map(|v| unpack_label(self.keys.get_f64(v)))
            .collect()
    }
}

impl GraphProgram for LabelProp {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn op(&self) -> AggOp {
        AggOp::Max
    }

    fn edge_func(&self) -> EdgeFunc {
        EdgeFunc::ValueHopDecay
    }

    fn edge_values(&self) -> &PropertyArray {
        &self.keys
    }

    fn accumulators(&self) -> &PropertyArray {
        &self.acc
    }

    #[inline]
    fn apply(&self, v: VertexId) -> bool {
        let v = v as usize;
        let agg = self.acc.get_f64(v);
        // A seed with zero remaining score sends a negative key, which can
        // never beat the receiver's own (non-negative) key — decay is the
        // propagation cutoff, no special-casing needed.
        if agg > self.keys.get_f64(v) {
            self.keys.set_f64(v, agg);
            true
        } else {
            false
        }
    }

    fn uses_frontier(&self) -> bool {
        true
    }

    fn identity_apply_is_noop(&self) -> bool {
        true
    }

    fn initial_frontier(&self) -> Frontier {
        Frontier::all(self.n)
    }

    fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
        vec![&self.keys, &self.acc]
    }
}

/// Runs label propagation to convergence on a prepared graph.
pub fn run_prepared(
    pg: &PreparedGraph,
    g: &Graph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> (Vec<u32>, ExecutionStats) {
    let prog = LabelProp::new(g);
    let stats = run_program_on_pool(pg, &prog, cfg, pool);
    (prog.labels(), stats)
}

/// Convenience entry point.
pub fn run(g: &Graph, cfg: &EngineConfig) -> Vec<u32> {
    let pg = PreparedGraph::new(g);
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_prepared(&pg, g, cfg, &pool).0
}

/// Sequential reference: the same synchronous lattice ascent in exact
/// integer arithmetic (`i64` keys; the engine's f64 arithmetic is exact on
/// these magnitudes, so the two agree bit-for-bit after unpacking).
pub fn reference(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    assert!(n <= MAX_VERTICES);
    let hop = HOP_DECAY as i64;
    let mut keys: Vec<i64> = (0..n)
        .map(|v| {
            let deg = (g.out_neighbors(v as u32).len() as u64).min(FIELD_MAX);
            pack(deg, FIELD_MAX - v as u64, v as u64) as i64
        })
        .collect();
    loop {
        let mut changed = false;
        let next: Vec<i64> = (0..n as u32)
            .map(|v| {
                let best = g
                    .in_neighbors(v)
                    .iter()
                    .map(|&u| keys[u as usize] - hop)
                    .max()
                    .unwrap_or(i64::MIN);
                keys[v as usize].max(best)
            })
            .collect();
        for (k, nk) in keys.iter_mut().zip(&next) {
            changed |= *k != *nk;
            *k = *nk;
        }
        if !changed {
            return keys
                .iter()
                .map(|&k| (k as u64 & FIELD_MAX) as u32)
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::PullMode;
    use grazelle_core::engine::hybrid::EngineKind;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};

    fn symmetric_graph(pairs: &[(u32, u32)], n: usize) -> Graph {
        let mut el = EdgeList::from_pairs(n, pairs).unwrap();
        el.symmetrize();
        el.sort_and_dedup();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn packing_round_trips() {
        let k = pack(3, FIELD_MAX, 131071);
        assert_eq!(unpack_label(k), 131071);
        assert_eq!(unpack_label(pack(0, 0, 0)), 0);
        // One hop of decay moves exactly one score point.
        assert_eq!(pack(3, 7, 9) - HOP_DECAY, pack(2, 7, 9));
    }

    #[test]
    fn hub_claims_its_neighborhood() {
        // A 5-star: the hub (vertex 0, degree 5) outranks every leaf seed,
        // so the whole star adopts label 0.
        let pairs: Vec<(u32, u32)> = (1..6u32).map(|v| (0, v)).collect();
        let g = symmetric_graph(&pairs, 6);
        let labels = run(&g, &EngineConfig::new().with_threads(2));
        assert_eq!(labels, vec![0; 6]);
        assert_eq!(labels, reference(&g));
    }

    #[test]
    fn two_hubs_split_a_barbell() {
        // Two 4-stars joined by a bridge: each hub keeps its own side.
        let mut pairs: Vec<(u32, u32)> = (1..5u32).map(|v| (0, v)).collect();
        pairs.extend((6..10u32).map(|v| (5, v)));
        pairs.push((4, 6));
        let g = symmetric_graph(&pairs, 10);
        let labels = run(&g, &EngineConfig::new().with_threads(2));
        assert_eq!(labels, reference(&g));
        // Hubs 0 and 5 must each have claimed their own star's leaves.
        assert_eq!(labels[0], 0);
        assert_eq!(labels[5], 5);
        for (v, &l) in labels.iter().enumerate().take(4).skip(1) {
            assert_eq!(l, 0, "left leaf {v}");
        }
        for (v, &l) in labels.iter().enumerate().take(10).skip(7) {
            assert_eq!(l, 5, "right leaf {v}");
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = symmetric_graph(&[(0, 1)], 4);
        let labels = run(&g, &EngineConfig::new().with_threads(1));
        assert_eq!(labels[2], 2);
        assert_eq!(labels[3], 3);
        assert_eq!(labels, reference(&g));
    }

    #[test]
    fn all_engines_and_thread_counts_agree_with_the_reference() {
        let mut el = rmat(&RmatConfig::graph500(9, 6.0, 33));
        el.symmetrize();
        el.sort_and_dedup();
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let want = reference(&g);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            for (name, kind) in [
                ("pull", Some(EngineKind::Pull)),
                ("push", Some(EngineKind::Push)),
                ("hybrid", None),
            ] {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_force_engine(kind);
                let (labels, _) = run_prepared(&pg, &g, &cfg, &pool);
                assert_eq!(labels, want, "{name}x{threads}");
            }
            for mode in [PullMode::Traditional, PullMode::TraditionalNoAtomic] {
                let cfg = EngineConfig::new()
                    .with_threads(if mode == PullMode::TraditionalNoAtomic {
                        1
                    } else {
                        threads
                    })
                    .with_pull_mode(mode);
                let (labels, _) = run_prepared(&pg, &g, &cfg, &pool);
                assert_eq!(labels, want, "{mode:?}x{threads}");
            }
        }
    }
}
