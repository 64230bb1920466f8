//! Multi-source bit-parallel reachability — the serving layer's batch
//! packing kernel.
//!
//! Up to 64 same-program reachability queries are packed into one run: each
//! vertex carries a `u64` whose bit *i* means "reachable from source *i*",
//! and one frontier-synchronous sweep propagates all lanes at once with
//! bitwise OR (the MS-BFS idea). One traversal of the edge set thus answers
//! the whole batch, instead of 64 separate traversals.
//!
//! The sweep is direction-optimising, and its default direction is the
//! paper's: **pull**. A pull step walks destinations in edge-balanced
//! chunks ([`partition_by_edges`] over the in-edges, 32 per thread) claimed
//! from the dynamic [`ChunkScheduler`] — the scheduler-aware
//! loop shape, without a merge buffer, because a chunk here is a run of
//! whole vertices and a destination never straddles two. The worker that
//! owns a destination ORs its in-neighbours' masks with plain relaxed loads
//! and commits one relaxed store; no read-modify-write touches a mask. It
//! skips a destination, and leaves a neighbour list early, as soon as the
//! mask holds every *live* lane — every lane some vertex gained in the
//! previous step, the only lanes anything can still gain in this one (all
//! lanes at the start, so this is the "output already saturated" exit of
//! Yang et al., PAPERS.md, and it keeps working when a source sits in a
//! small component and no mask can ever be full). A **push** step is kept
//! for frontiers whose out-edges are under 1/[`ALPHA`] of the graph — the
//! first step or two and the tail — where scanning every destination would
//! cost more than scattering a few masks; it tests before it writes, so
//! only edges that carry a new bit pay for a `fetch_or`.
//!
//! Within a step a reader may observe a mask another worker just widened.
//! That only *accelerates* propagation, never corrupts it, because masks
//! grow monotonically and the loop runs to the unique reachability
//! fixpoint. The result is therefore exactly the per-source reachable set,
//! identical to 64 single-source [`crate::reach`] runs, at every thread
//! count and under every step order; only the *number* of steps may vary
//! with timing once two threads run.
//!
//! Cancellation is cooperative at iteration boundaries, matching the
//! resilient engine driver's contract: a cancelled sweep returns `None`
//! and leaves nothing the caller can observe torn.

use grazelle_core::direction::ALPHA;
use grazelle_core::frontier::DenseBitmap;
use grazelle_graph::graph::Graph;
use grazelle_graph::partition::partition_by_edges;
use grazelle_graph::types::VertexId;
use grazelle_sched::cancel::CancelFlag;
use grazelle_sched::chunks::{ChunkScheduler, DEFAULT_CHUNKS_PER_THREAD};
use grazelle_sched::pool::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Most sources one packed run can carry (one bit lane per source).
pub const MAX_LANES: usize = 64;

/// Vertices [`MultiReach::into_reached`] unpacks per block: 4 KiB of masks,
/// which stay in L1 while every lane reads them.
const UNPACK_BLOCK: usize = 512;

/// Result of a packed multi-source reachability run.
#[derive(Debug)]
pub struct MultiReach {
    masks: Vec<u64>,
    lanes: usize,
    /// Steps the sweep ran, the last (which found nothing new) included:
    /// `pull_iterations + push_iterations`.
    pub iterations: usize,
    /// Steps that ran bottom-up. With two or more threads a step may read
    /// masks written earlier in the same step, so the step counts — never
    /// the masks — can differ from run to run.
    pub pull_iterations: usize,
    /// Steps that ran top-down.
    pub push_iterations: usize,
}

impl MultiReach {
    /// Number of packed source lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Per-vertex reachability masks (bit *i* = reachable from source *i*).
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// The reached set of lane `lane`, in the same shape as
    /// [`crate::reach::Reachability::reached`]. One pass over every mask
    /// per call: to unpack a whole run use [`MultiReach::into_reached`].
    pub fn reached(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let bit = 1u64 << lane;
        self.masks.iter().map(|m| m & bit != 0).collect()
    }

    /// The reached set of every lane, in lane order, from one walk over the
    /// masks: each block is unpacked into all lanes while it is in cache.
    pub fn into_reached(self) -> Vec<Vec<bool>> {
        let mut out: Vec<Vec<bool>> = (0..self.lanes)
            .map(|_| vec![false; self.masks.len()])
            .collect();
        for (block, masks) in self.masks.chunks(UNPACK_BLOCK).enumerate() {
            let start = block * UNPACK_BLOCK;
            // Eight lanes at a time: narrow their byte of every mask once,
            // then each lane is a byte-to-byte test the compiler vectorises
            // sixteen wide.
            for (group, lanes) in out.chunks_mut(8).enumerate() {
                let mut bytes = [0u8; UNPACK_BLOCK];
                for (b, m) in bytes.iter_mut().zip(masks) {
                    *b = (m >> (8 * group)) as u8;
                }
                for (lane, reached) in lanes.iter_mut().enumerate() {
                    for (r, b) in reached[start..].iter_mut().zip(&bytes[..masks.len()]) {
                        *r = b & (1 << lane) != 0;
                    }
                }
            }
        }
        out
    }
}

/// The direction of one step of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Pull,
    Push,
}

/// Runs packed reachability for `sources` (≤ [`MAX_LANES`]) over `g` on
/// `pool`. Returns `None` iff `cancel` was observed set at an iteration
/// boundary.
pub fn multi_source_reach(
    g: &Graph,
    sources: &[VertexId],
    pool: &ThreadPool,
    cancel: Option<&CancelFlag>,
) -> Option<MultiReach> {
    sweep(g, sources, pool, cancel, None)
}

/// [`multi_source_reach`] with every step forced to `forced` when it is
/// `Some` — the tests' way to show the masks do not depend on the direction.
fn sweep(
    g: &Graph,
    sources: &[VertexId],
    pool: &ThreadPool,
    cancel: Option<&CancelFlag>,
    forced: Option<Step>,
) -> Option<MultiReach> {
    let n = g.num_vertices();
    let m = g.num_edges() as u64;
    let lanes = sources.len();
    assert!(
        lanes <= MAX_LANES,
        "at most {MAX_LANES} sources per packed run, got {lanes}"
    );
    // Masks are atomics because workers read them while another worker may
    // be writing: a pull step stores only to destinations of the chunk it
    // claimed (one owner per vertex), a push step ORs into arbitrary
    // destinations. Every access is relaxed — OR is commutative, masks only
    // grow, a stale read delays a bit by at most one step, and the pool's
    // handshake between steps publishes everything.
    let masks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut frontier = DenseBitmap::new(n);
    let mut next = DenseBitmap::new(n);
    // Out-edges of the frontier: what a push step would traverse.
    let mut frontier_edges = 0u64;
    for (lane, &s) in sources.iter().enumerate() {
        assert!((s as usize) < n, "source {s} out of range");
        masks[s as usize].fetch_or(1 << lane, Ordering::Relaxed);
        if !frontier.contains(s) {
            frontier.insert(s);
            frontier_edges += u64::from(g.out_degree(s));
        }
    }
    // Lanes some vertex gained in the previous step. Along every edge u → v
    // the bits `mask[u] & !mask[v]` are bits u gained in that step (older
    // ones were pulled or pushed across when u gained them), so no vertex
    // can gain a lane outside this set, and a mask that covers it is done
    // for this step. Zero means the fixpoint.
    let mut live = match lanes {
        0 => 0,
        _ => u64::MAX >> (MAX_LANES - lanes),
    };

    // Pull chunks: edge-balanced runs of whole destinations, one claim each.
    let chunks = partition_by_edges(g.in_csr(), DEFAULT_CHUNKS_PER_THREAD * pool.num_threads());
    let claims = ChunkScheduler::new(chunks.len(), chunks.len());
    // Push ranges: equal runs of frontier words.
    let words_per_thread = frontier.words().len().div_ceil(pool.num_threads());

    let (mut pull_iterations, mut push_iterations) = (0usize, 0usize);
    while live != 0 {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        // Reachability adds at least one new (vertex, lane) bit per step
        // that does not end the loop, so n * lanes bounds those; anything
        // past that is a logic error, not convergence.
        assert!(
            pull_iterations + push_iterations <= n * lanes,
            "multi-source sweep failed to converge"
        );
        let step = forced.unwrap_or(if frontier_edges.saturating_mul(ALPHA) < m {
            Step::Push
        } else {
            Step::Pull
        });
        next.clear();
        let per_thread: Vec<(u64, u64)> = match step {
            Step::Pull => {
                pull_iterations += 1;
                claims.reset();
                pool.run_map(|_| {
                    let (mut gained, mut edges) = (0u64, 0u64);
                    while let Some(claim) = claims.next_chunk() {
                        for v in chunks[claim.id].vertices() {
                            let old = masks[v as usize].load(Ordering::Relaxed);
                            if live & !old == 0 {
                                continue;
                            }
                            let mut acc = old;
                            for &u in g.in_neighbors(v) {
                                acc |= masks[u as usize].load(Ordering::Relaxed);
                                if live & !acc == 0 {
                                    break;
                                }
                            }
                            if acc == old {
                                continue;
                            }
                            masks[v as usize].store(acc, Ordering::Relaxed);
                            gained |= acc & !old;
                            edges += u64::from(g.out_degree(v));
                            next.insert(v);
                        }
                    }
                    (gained, edges)
                })
            }
            Step::Push => {
                push_iterations += 1;
                pool.run_map(|ctx| {
                    let (mut gained, mut edges) = (0u64, 0u64);
                    let words = frontier.words();
                    let lo = (ctx.global_id * words_per_thread).min(words.len());
                    let hi = (lo + words_per_thread).min(words.len());
                    for (w, word) in words[lo..hi].iter().enumerate() {
                        let mut bits = word.load(Ordering::Relaxed);
                        while bits != 0 {
                            let v = (lo + w) << 6 | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let mask = masks[v].load(Ordering::Relaxed);
                            for &d in g.out_neighbors(v as VertexId) {
                                let d = d as usize;
                                let old = masks[d].load(Ordering::Relaxed);
                                if old | mask == old {
                                    continue;
                                }
                                let old = masks[d].fetch_or(mask, Ordering::Relaxed);
                                gained |= mask & !old;
                                // Whoever sets the frontier bit counts the
                                // vertex's out-edges, so each is counted once.
                                let bit = 1u64 << (d & 63);
                                if next.words()[d >> 6].fetch_or(bit, Ordering::Relaxed) & bit == 0
                                {
                                    edges += u64::from(g.out_degree(d as VertexId));
                                }
                            }
                        }
                    }
                    (gained, edges)
                })
            }
        };
        live = per_thread.iter().fold(0, |all, (gained, _)| all | gained);
        frontier_edges = per_thread.iter().map(|(_, edges)| edges).sum();
        std::mem::swap(&mut frontier, &mut next);
    }

    Some(MultiReach {
        masks: masks.into_iter().map(|m| m.into_inner()).collect(),
        lanes,
        iterations: pull_iterations + push_iterations,
        pull_iterations,
        push_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_core::config::EngineConfig;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::gen::grid::grid_mesh;
    use grazelle_graph::gen::rmat::{rmat, RmatConfig};
    use proptest::prelude::*;

    /// Every step policy: the cost model, and each direction forced.
    const POLICIES: [Option<Step>; 3] = [None, Some(Step::Pull), Some(Step::Push)];

    fn web_graph(n: usize) -> Graph {
        // Deterministic scale-free-ish digraph: chains plus skip links.
        let mut el = EdgeList::new(n);
        for v in 0..n as u32 {
            if (v as usize) + 1 < n {
                el.push(v, v + 1).unwrap();
            }
            if v % 3 == 0 {
                el.push(v, (v * 7 + 2) % n as u32).unwrap();
            }
            if v % 5 == 0 {
                el.push((v * 3 + 1) % n as u32, v).unwrap();
            }
        }
        Graph::from_edgelist(&el).unwrap()
    }

    fn graph_of(n: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Graph {
        let mut el = EdgeList::new(n);
        for (s, d) in pairs {
            el.push(s, d).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    /// The shapes that take the sweep through each of its regimes.
    fn shapes() -> Vec<(&'static str, Graph)> {
        let chain = |lo: u32, hi: u32| (lo..hi).map(|v| (v, v + 1));
        vec![
            // Directed and skewed: reachability differs per source, and the
            // hybrid switches direction on it. 1024 vertices, two unpack blocks.
            (
                "rmat",
                Graph::from_edgelist(&rmat(&RmatConfig::graph500(10, 8.0, 7))).unwrap(),
            ),
            // High diameter, low degree; 576 vertices end in a partial block.
            (
                "mesh",
                Graph::from_edgelist(&grid_mesh(24, 24, 0.8, 3)).unwrap(),
            ),
            // One out-edge per frontier: the hybrid never leaves push.
            ("chain", graph_of(200, chain(0, 199))),
            // The hub holds every lane after one step and its leaves after two.
            (
                "star",
                graph_of(300, (1..300).flat_map(|v| [(0, v), (v, 0)])),
            ),
            // Two chains and isolated vertices: no mask is ever full.
            (
                "disconnected",
                graph_of(150, chain(0, 59).chain(chain(70, 129))),
            ),
        ]
    }

    /// 64 roots spread over the vertex set, the second a duplicate of the
    /// first so two lanes must come out equal.
    fn roots_of(n: usize) -> Vec<u32> {
        let mut roots: Vec<u32> = (0..MAX_LANES).map(|i| ((i * 37 + 5) % n) as u32).collect();
        roots[1] = roots[0];
        roots
    }

    #[test]
    fn packed_masks_match_independent_single_source_runs() {
        let cfg = EngineConfig::new().with_threads(2);
        for (name, g) in shapes() {
            let roots = roots_of(g.num_vertices());
            let single: Vec<Vec<bool>> = roots
                .iter()
                .map(|&r| crate::reach::run(&g, &cfg, r))
                .collect();
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                for lanes in [0usize, 1, 2, 63, 64] {
                    let hybrid = sweep(&g, &roots[..lanes], &pool, None, None).unwrap();
                    for forced in POLICIES {
                        let at = format!("{name} threads={threads} lanes={lanes} {forced:?}");
                        let mr = sweep(&g, &roots[..lanes], &pool, None, forced).unwrap();
                        assert_eq!(mr.lanes(), lanes, "{at}");
                        assert_eq!(mr.masks(), hybrid.masks(), "{at}");
                        assert_eq!(
                            mr.iterations,
                            mr.pull_iterations + mr.push_iterations,
                            "{at}"
                        );
                        match forced {
                            Some(Step::Pull) => assert_eq!(mr.push_iterations, 0, "{at}"),
                            Some(Step::Push) => assert_eq!(mr.pull_iterations, 0, "{at}"),
                            None => {}
                        }
                        if let Some(last) = lanes.checked_sub(1) {
                            assert_eq!(mr.reached(last), single[last], "{at}");
                        }
                        assert_eq!(mr.into_reached(), single[..lanes], "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_cost_model_pushes_a_chain_and_pulls_a_star() {
        let pool = ThreadPool::single_group(2);
        let shapes = shapes();
        let graph = |name: &str| &shapes.iter().find(|(n, _)| *n == name).unwrap().1;
        let chain = multi_source_reach(graph("chain"), &[0, 100], &pool, None).unwrap();
        assert_eq!(chain.pull_iterations, 0, "one edge per frontier never pays");
        assert_eq!(
            chain.push_iterations, 200,
            "199 hops and the empty last step"
        );
        let star = multi_source_reach(graph("star"), &roots_of(300), &pool, None).unwrap();
        assert!(
            star.pull_iterations > 0,
            "64 leaves' worth of hub edges pull"
        );
    }

    /// Sequential per-source reference: plain BFS over the out-edges.
    fn reachable_from(g: &Graph, root: u32) -> Vec<bool> {
        let mut seen = vec![false; g.num_vertices()];
        let mut stack = vec![root];
        seen[root as usize] = true;
        while let Some(v) = stack.pop() {
            for &d in g.out_neighbors(v) {
                if !std::mem::replace(&mut seen[d as usize], true) {
                    stack.push(d);
                }
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_packed_equals_single_under_every_step_policy(
            n in 1usize..48,
            raw_edges in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
            raw_roots in proptest::collection::vec(0u32..48, 0..=64),
            threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        ) {
            let g = graph_of(n, raw_edges.iter().map(|&(s, d)| (s % n as u32, d % n as u32)));
            let roots: Vec<u32> = raw_roots.iter().map(|r| r % n as u32).collect();
            let want: Vec<Vec<bool>> = roots.iter().map(|&r| reachable_from(&g, r)).collect();
            let pool = ThreadPool::single_group(threads);
            for forced in POLICIES {
                let mr = sweep(&g, &roots, &pool, None, forced).unwrap();
                prop_assert_eq!(mr.into_reached(), want.clone(), "{:?}", forced);
            }
        }
    }

    #[test]
    fn cancellation_returns_none_and_pool_survives() {
        let g = web_graph(64);
        let pool = ThreadPool::single_group(2);
        let cancel = CancelFlag::new();
        cancel.cancel();
        for forced in POLICIES {
            assert!(sweep(&g, &[0, 1], &pool, Some(&cancel), forced).is_none());
        }
        cancel.reset();
        let resumed = multi_source_reach(&g, &[0, 1], &pool, Some(&cancel)).unwrap();
        let fresh = multi_source_reach(&g, &[0, 1], &pool, None).unwrap();
        assert_eq!(resumed.masks(), fresh.masks());
    }

    #[test]
    fn empty_source_list_is_trivially_done() {
        let g = web_graph(16);
        let pool = ThreadPool::single_group(1);
        let mr = multi_source_reach(&g, &[], &pool, None).unwrap();
        assert_eq!(mr.lanes(), 0);
        assert_eq!(mr.iterations, 0);
        assert!(mr.masks().iter().all(|&m| m == 0));
        assert!(mr.into_reached().is_empty());
    }
}
