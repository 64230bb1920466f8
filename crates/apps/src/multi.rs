//! Multi-source bit-parallel traversal — the serving layer's batch packing
//! kernel.
//!
//! Up to 64 reachability and BFS queries are packed into one run: each
//! vertex carries a `u64` whose bit *i* means "reached from source *i*",
//! and one frontier-synchronous sweep propagates every lane at once with
//! bitwise OR (the MS-BFS idea). One traversal of the edge set thus answers
//! the whole pack, instead of 64 separate traversals.
//!
//! **The graph** is a base plus an optional insert overlay over the same
//! vertex set — the pending inserts of a
//! [`VersionedGraph`](grazelle_core::incremental::VersionedGraph) — and
//! every adjacency list the sweep reads is the concatenation of the two.
//! Masks only grow, so inserts need nothing more; deletes force a merge
//! rebuild before any run can see them, so there are no tombstones to
//! filter.
//!
//! **Direction.** The default is the paper's: **pull**. A pull step walks
//! destinations in edge-balanced chunks ([`partition_by_edges`] over the
//! base in-edges, 32 per thread) claimed from the dynamic
//! [`ChunkScheduler`] — the scheduler-aware loop shape, without a merge
//! buffer, because a chunk here is a run of whole vertices and a
//! destination never straddles two. The worker that owns a destination ORs
//! what its in-neighbours offer with plain relaxed loads and commits one
//! relaxed store; no read-modify-write touches a mask. It skips a
//! destination, and leaves its in-lists early, as soon as it holds every
//! *live* lane it lacks — the lanes some vertex gained in the previous
//! step, the only ones anything can gain in this one (all lanes at the
//! start, so this is the "output already saturated" exit of Yang et al.,
//! PAPERS.md, and it keeps working when a source sits in a small component
//! and no mask can ever be full). Lanes are **pushed** instead while their
//! frontier's out-edges are under 1/[`ALPHA`] of the graph — the first step
//! or two and the tail — where scanning every destination would cost more
//! than scattering a few masks. That bound keeps a push step small, so it
//! runs on the calling thread, sources in increasing order, and writes
//! with plain loads and stores too. BFS lanes take the test on their own
//! frontier, so one step may pull the reachability lanes and push the BFS
//! lanes: a destination's scan cannot stop early while it lacks a BFS lane
//! whose frontier is still far away.
//!
//! **Two read rules, one loop.** A reachability lane reads a neighbour's
//! mask in place: a mask another worker widened earlier in the same step
//! only speeds propagation towards the unique reachability fixpoint, never
//! corrupts it, because masks grow monotonically. A BFS lane must advance
//! exactly one level per step, so beside the masks sits a second,
//! double-buffered word per vertex holding the BFS lanes it gained in the
//! previous step, and a BFS lane reads only that word, never one written in
//! the same step. The rule is a per-lane mask AND inside the one gather
//! loop, which is compiled twice — with and without BFS lanes in the
//! destination's need — so a walk that needs only reachability lanes stays
//! the bare OR-and-exit loop. Reading the gained word loses nothing: along
//! every edge `u → v`, whatever `u` held before the previous step `v`
//! already holds, because `v` pulled (or `u` pushed) it the step `u`
//! gained it. Using the
//! level-synchronous rule for every lane made a 53-lane reachability pack
//! 4× slower (EXPERIMENTS.md "Packing over the overlay, and packed BFS"),
//! so reachability lanes keep the in-place read and the second word holds
//! BFS lanes only — a pack without one allocates none.
//!
//! **Parent lanes.** The first `bfs` lanes also return a BFS tree. Being
//! the low lanes, they fit a byte while there are at most eight, so the
//! gained words are bytes then and `u64` only beyond. A vertex `v` that
//! gains BFS lane *b* at step *k* is at depth *k*, and its parent is the
//! smallest in-neighbour whose previous-step gained word has *b* — the
//! smallest vertex at depth *k − 1* with an edge to `v`. In-lists are
//! sorted (every [`Graph`] builder sorts them), so a pull step's first such
//! `u` in the base list is the base's minimum, and with an overlay the
//! parent is the smaller of the first hits in the two lists. A push step
//! takes its sources in increasing order, each through both its out-lists,
//! so the first to give `v` lane *b* is that smallest vertex. Either way
//! the parent is exactly the one [`crate::bfs`] picks — its Min aggregation
//! over the in-neighbours on the frontier, at the discovery level ("the
//! first identified candidate … becomes its final value", §6) — so every
//! BFS lane is bit-identical to `bfs::run` on the merged graph, and every
//! other lane to `reach::run`, at every thread count and under every step
//! order; only the *number* of steps may vary with timing once two
//! threads run. Parents live in one `u32` array per BFS lane, each slot
//! written only by the thread that owns its vertex in the step.
//!
//! Cancellation is cooperative at iteration boundaries, matching the
//! resilient engine driver's contract: a cancelled sweep returns `None`
//! and leaves nothing the caller can observe torn.

use grazelle_core::direction::ALPHA;
use grazelle_core::frontier::DenseBitmap;
use grazelle_graph::csr::Csr;
use grazelle_graph::graph::Graph;
use grazelle_graph::partition::partition_by_edges;
use grazelle_graph::types::VertexId;
use grazelle_sched::cancel::CancelFlag;
use grazelle_sched::chunks::{ChunkScheduler, DEFAULT_CHUNKS_PER_THREAD};
use grazelle_sched::pool::ThreadPool;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Most sources one packed run can carry (one bit lane per source).
pub const MAX_LANES: usize = 64;

/// Lanes whose replies [`MultiReach::replies`] unpacks together: one byte
/// of every mask.
const GROUP: usize = 8;

/// Parent slot of a vertex its BFS lane has not reached.
const UNREACHED: VertexId = VertexId::MAX;

/// The mask of lanes `0..k`.
fn low_lanes(k: usize) -> u64 {
    match k {
        0 => 0,
        _ => u64::MAX >> (MAX_LANES - k),
    }
}

/// Result of a packed multi-source run.
#[derive(Debug)]
pub struct MultiReach {
    masks: Vec<u64>,
    lanes: usize,
    /// Lanes `0..bfs` are BFS lanes.
    bfs: usize,
    /// One `n`-long parent array per BFS lane, in lane order.
    parents: Vec<VertexId>,
    /// Steps the sweep ran, the last (which found nothing new) included.
    /// With two or more threads a step may read masks written earlier in
    /// the same step, so the step counts — never the replies — can differ
    /// from run to run.
    pub iterations: usize,
    /// Steps that pulled some lanes. A step may pull some lanes and push
    /// the rest, so `pull_iterations + push_iterations ≥ iterations`.
    pub pull_iterations: usize,
    /// Steps that pushed some lanes.
    pub push_iterations: usize,
}

/// One lane's answer, in the shape its single-source program returns.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneReply {
    /// A reachability lane: [`crate::reach::Reachability::reached`].
    Reached(Vec<bool>),
    /// A BFS lane: [`crate::bfs::Bfs::parents`].
    Parents(Vec<Option<VertexId>>),
}

impl MultiReach {
    /// Number of packed source lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Per-vertex reachability masks (bit *i* = reached from source *i*).
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// The reached set of lane `lane`, in the same shape as
    /// [`crate::reach::Reachability::reached`]; a test accessor — one pass
    /// over every mask per call.
    pub fn reached(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let bit = 1u64 << lane;
        self.masks.iter().map(|m| m & bit != 0).collect()
    }

    /// The BFS tree of lane `lane` (`None` for a reachability lane), in the
    /// same shape as [`crate::bfs::Bfs::parents`].
    pub fn parents(&self, lane: usize) -> Option<Vec<Option<VertexId>>> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        if lane >= self.bfs {
            return None;
        }
        let n = self.masks.len();
        let tree = &self.parents[lane * n..(lane + 1) * n];
        Some(
            tree.iter()
                .map(|&p| (p != UNREACHED).then_some(p))
                .collect(),
        )
    }

    /// Every lane's reply, in lane order, unpacked one 8-lane group at a
    /// time: at most eight replies exist before the caller takes them.
    pub fn replies(&self) -> impl Iterator<Item = LaneReply> + '_ {
        (0..self.lanes.div_ceil(GROUP)).flat_map(move |group| self.group_replies(group))
    }

    /// Replies of lanes `8·group ..`: the group's byte of every mask is
    /// narrowed once, then each reachability lane is a byte test the
    /// compiler vectorises.
    fn group_replies(&self, group: usize) -> Vec<LaneReply> {
        let lanes = GROUP * group..self.lanes.min(GROUP * (group + 1));
        let bytes: Vec<u8> = if lanes.end <= self.bfs {
            Vec::new()
        } else {
            self.masks
                .iter()
                .map(|m| (m >> (GROUP * group)) as u8)
                .collect()
        };
        lanes
            .map(|lane| match self.parents(lane) {
                Some(tree) => LaneReply::Parents(tree),
                None => {
                    let bit = 1u8 << (lane % GROUP);
                    LaneReply::Reached(bytes.iter().map(|b| b & bit != 0).collect())
                }
            })
            .collect()
    }
}

/// The graph a sweep reads: a base and an optional insert overlay over the
/// same vertex set, every adjacency list the concatenation of the two.
/// The edge structures are read once, when the sweep starts, by their one
/// reader, which readies them on the sweep's pool ([`Graph::ready_out`],
/// [`Graph::ready_in`]): the steps read two lists per vertex, never the
/// graph's cells, and the out-degrees from the graphs' indexes.
#[derive(Clone, Copy)]
struct Layers<'a> {
    base: &'a Graph,
    overlay: Option<&'a Graph>,
    base_csr: &'a Csr,
    overlay_csr: Option<&'a Csr>,
    base_csc: &'a Csr,
    overlay_csc: Option<&'a Csr>,
}

impl<'a> Layers<'a> {
    fn new(base: &'a Graph, overlay: Option<&'a Graph>, pool: &ThreadPool) -> Self {
        Layers {
            base,
            overlay,
            base_csr: base.ready_out(Some(pool)),
            overlay_csr: overlay.map(|o| o.ready_out(Some(pool))),
            base_csc: base.ready_in(Some(pool)),
            overlay_csc: overlay.map(|o| o.ready_in(Some(pool))),
        }
    }

    fn overlay_in(&self, v: VertexId) -> &'a [VertexId] {
        self.overlay_csc.map_or(&[][..], |o| o.neighbors(v))
    }

    fn out_lists(&self, v: VertexId) -> [&'a [VertexId]; 2] {
        let overlay = self.overlay_csr.map_or(&[][..], |o| o.neighbors(v));
        [self.base_csr.neighbors(v), overlay]
    }

    fn out_degree(&self, v: VertexId) -> u64 {
        u64::from(self.base.out_degree(v) + self.overlay.map_or(0, |o| o.out_degree(v)))
    }
}

/// A vertex's word of BFS lanes, its bits the lanes' own (BFS lanes are
/// the low lanes): `AtomicU8` for packs of at most eight, `AtomicU64`
/// beyond. `Default` is the empty word.
trait LevelWord: Default + Sync {
    fn get(&self) -> u64;
    fn set(&self, bits: u64);
}

macro_rules! level_word {
    ($($atomic:ty: $int:ty),*) => {$(
        impl LevelWord for $atomic {
            fn get(&self) -> u64 {
                u64::from(self.load(Ordering::Relaxed))
            }
            fn set(&self, bits: u64) {
                self.store(bits as $int, Ordering::Relaxed)
            }
        }
    )*};
}

level_word!(AtomicU8: u8, AtomicU64: u64);

/// What a step's walk over an in-list reads and writes besides the gained
/// words: the masks, and the parent arrays of the BFS lanes.
struct Walk<'a> {
    g: Layers<'a>,
    masks: &'a [AtomicU64],
    /// The BFS lanes' bits.
    tree: u64,
    /// One `n`-long parent array per BFS lane, in lane order.
    parents: &'a [AtomicU32],
}

impl Walk<'_> {
    /// `v`'s parent slot in BFS lane `lane`.
    fn parent(&self, lane: u32, v: VertexId) -> &AtomicU32 {
        &self.parents[lane as usize * self.masks.len() + v as usize]
    }

    /// Offers `u` as `v`'s parent in each BFS lane of `bits`; the smaller id
    /// wins. Only the thread that owns `v` in the current step calls it.
    fn adopt(&self, v: VertexId, mut bits: u64, u: VertexId) {
        while bits != 0 {
            let slot = self.parent(bits.trailing_zeros(), v);
            bits &= bits - 1;
            if u < slot.load(Ordering::Relaxed) {
                slot.store(u, Ordering::Relaxed);
            }
        }
    }

    /// The lanes of `need` that `v`'s in-neighbours offer — a reachability
    /// lane whatever a neighbour holds now, a BFS lane only if it gained it
    /// in the previous step (`gained`) — adopting for each BFS lane the
    /// smallest such in-neighbour: the smaller of its first hit in each
    /// sorted list. The base list stops once it has seen every needed lane;
    /// the overlay list once it has too and its ids can no longer beat the
    /// largest parent the base adopted. `BFS` is whether `need` holds a BFS
    /// lane: without one the walk compiles to the bare OR-and-exit loop.
    #[inline(always)]
    fn gather<const BFS: bool, W: LevelWord>(&self, v: VertexId, need: u64, gained: &[W]) -> u64 {
        let masks = self.masks;
        let (bfs, reach) = match BFS {
            true => (need & self.tree, need & !self.tree),
            false => (0, need),
        };
        let offer = |u: VertexId| {
            let u = u as usize;
            let now = match reach {
                0 => 0,
                _ => masks[u].load(Ordering::Relaxed),
            };
            match BFS {
                true => now & reach | gained[u].get() & bfs,
                false => now,
            }
        };
        let (mut acc, mut beat) = (0u64, 0);
        for &u in self.g.base_csc.neighbors(v) {
            let bits = offer(u);
            if BFS && bits & bfs & !acc != 0 {
                self.adopt(v, bits & bfs & !acc, u);
                beat = u;
            }
            acc |= bits;
            if need & !acc == 0 {
                break;
            }
        }
        for &u in self.g.overlay_in(v) {
            if need & !acc == 0 && u >= beat {
                break;
            }
            let bits = offer(u);
            acc |= bits;
            if BFS {
                self.adopt(v, bits & bfs, u);
            }
        }
        acc & need
    }

    /// [`Walk::gather`] for a `need` holding a BFS lane, kept out of line:
    /// inlined beside the reachability-only walk it made that loop ≈15%
    /// slower.
    #[inline(never)]
    fn gather_bfs<W: LevelWord>(&self, v: VertexId, need: u64, gained: &[W]) -> u64 {
        self.gather::<true, W>(v, need, gained)
    }
}

/// Runs the packed traversal for `sources` (≤ [`MAX_LANES`]) over `base`
/// plus the insert `overlay` on `pool`: lane *i* answers reachability from
/// `sources[i]`, and the first `bfs` sources also return a BFS tree.
/// Returns `None` iff `cancel` was observed set at an iteration boundary.
pub fn multi_source_reach(
    base: &Graph,
    overlay: Option<&Graph>,
    sources: &[VertexId],
    bfs: usize,
    pool: &ThreadPool,
    cancel: Option<&CancelFlag>,
) -> Option<MultiReach> {
    sweep(base, overlay, sources, bfs, pool, cancel, None)
}

/// [`multi_source_reach`] with every step pulling the live lanes of
/// `forced` and pushing the rest when it is `Some` — the tests' way to show
/// the replies do not depend on the direction.
fn sweep(
    base: &Graph,
    overlay: Option<&Graph>,
    sources: &[VertexId],
    bfs: usize,
    pool: &ThreadPool,
    cancel: Option<&CancelFlag>,
    forced: Option<u64>,
) -> Option<MultiReach> {
    match bfs {
        0..=GROUP => sweep_with::<AtomicU8>(base, overlay, sources, bfs, pool, cancel, forced),
        _ => sweep_with::<AtomicU64>(base, overlay, sources, bfs, pool, cancel, forced),
    }
}

/// [`sweep`] with the BFS lanes' gained words of type `W`.
fn sweep_with<W: LevelWord>(
    base: &Graph,
    overlay: Option<&Graph>,
    sources: &[VertexId],
    bfs: usize,
    pool: &ThreadPool,
    cancel: Option<&CancelFlag>,
    forced: Option<u64>,
) -> Option<MultiReach> {
    let g = Layers::new(base, overlay, pool);
    let n = base.num_vertices();
    if let Some(o) = overlay {
        assert_eq!(
            o.num_vertices(),
            n,
            "the overlay must share the base's vertices"
        );
    }
    let m = (base.num_edges() + overlay.map_or(0, Graph::num_edges)) as u64;
    let lanes = sources.len();
    assert!(
        lanes <= MAX_LANES,
        "at most {MAX_LANES} sources per packed run, got {lanes}"
    );
    assert!(bfs <= lanes, "{bfs} BFS lanes of the {lanes} packed");
    let (all, tree) = (low_lanes(lanes), low_lanes(bfs));

    // Every word is an atomic because workers read words another worker
    // may be writing: a pull step stores only to destinations of the chunk
    // it claimed (one owner per vertex), and the pool's handshake between
    // steps publishes everything a step reads. Every access is relaxed.
    let masks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // The BFS lanes each vertex gained in the previous step (what a BFS lane
    // reads) and in this one; empty when no lane wants a tree.
    let bfs_words = if bfs == 0 { 0 } else { n };
    let zeroed = || -> Vec<W> { (0..bfs_words).map(|_| W::default()).collect() };
    let (mut gained, mut gaining) = (zeroed(), zeroed());
    let parents: Vec<AtomicU32> = (0..bfs * n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let walk = Walk {
        g,
        masks: &masks,
        tree,
        parents: &parents,
    };
    let mut frontier = DenseBitmap::new(n);
    let mut next = DenseBitmap::new(n);
    // Out-edges of the frontier, and of the part of it that gained BFS
    // lanes: what pushing all lanes, or the BFS lanes, would traverse.
    let mut frontier_edges = [0u64; 2];
    for (lane, &s) in sources.iter().enumerate() {
        assert!((s as usize) < n, "source {s} out of range");
        let bit = 1u64 << lane;
        masks[s as usize].fetch_or(bit, Ordering::Relaxed);
        if !frontier.contains(s) {
            frontier.insert(s);
            frontier_edges[0] += g.out_degree(s);
        }
        if lane < bfs {
            walk.parent(lane as u32, s).store(s, Ordering::Relaxed);
            let was = gained[s as usize].get();
            if was == 0 {
                frontier_edges[1] += g.out_degree(s);
            }
            gained[s as usize].set(was | bit);
        }
    }
    // Lanes some vertex gained in the previous step. Along every edge u → v
    // the bits `mask[u] & !mask[v]` are bits u gained in that step (older
    // ones reached v when u gained them), so no vertex can gain a lane
    // outside this set. Zero means the fixpoint.
    let mut live = all;

    // Pull chunks: edge-balanced runs of whole destinations, one claim each.
    let chunks = partition_by_edges(g.base_csc, DEFAULT_CHUNKS_PER_THREAD * pool.num_threads());
    let claims = ChunkScheduler::new(chunks.len(), chunks.len());

    let (mut iterations, mut pull_iterations, mut push_iterations) = (0usize, 0, 0);
    while live != 0 {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        // Each step that does not end the loop adds at least one new
        // (vertex, lane) bit, so n * lanes bounds those; anything past that
        // is a logic error, not convergence.
        assert!(
            iterations <= n * lanes,
            "multi-source sweep failed to converge"
        );
        iterations += 1;
        // The live lanes this step pulls; it pushes the rest. Lanes pull
        // once pushing the frontier would cost more than the scan (the cost
        // model's ALPHA test), BFS lanes on their own frontier: a
        // destination's scan cannot stop early while it lacks a BFS lane
        // whose frontier is still far away, so BFS lanes keep pushing while
        // that frontier is small even when reachability lanes already pull.
        let pulls = |edges: u64| edges.saturating_mul(ALPHA) >= m;
        let pulled = live
            & forced.unwrap_or(match (pulls(frontier_edges[0]), pulls(frontier_edges[1])) {
                (false, _) => 0,
                (true, false) => !tree,
                (true, true) => u64::MAX,
            });
        let pushed = live & !pulled;
        // `next` and `gaining` still hold the step before last.
        next.clear();
        gaining.iter_mut().for_each(|w| *w = W::default());
        let (gained_r, gaining_r) = (&gained[..], &gaining[..]);
        let mut per_thread: Vec<(u64, [u64; 2])> = Vec::new();
        if pulled != 0 {
            pull_iterations += 1;
            claims.reset();
            per_thread.extend(pool.run_map(|_| {
                let (mut got_all, mut edges) = (0u64, [0u64; 2]);
                while let Some(claim) = claims.next_chunk() {
                    for v in chunks[claim.id].vertices() {
                        let old = masks[v as usize].load(Ordering::Relaxed);
                        let need = pulled & !old;
                        if need == 0 {
                            continue;
                        }
                        let got = match need & tree {
                            0 => walk.gather::<false, W>(v, need, gained_r),
                            _ => walk.gather_bfs(v, need, gained_r),
                        };
                        if got == 0 {
                            continue;
                        }
                        masks[v as usize].store(old | got, Ordering::Relaxed);
                        next.insert(v);
                        got_all |= got;
                        edges[0] += g.out_degree(v);
                        if got & tree != 0 {
                            gaining_r[v as usize].set(got & tree);
                            edges[1] += g.out_degree(v);
                        }
                    }
                }
                (got_all, edges)
            }));
        }
        if pushed != 0 {
            // On the calling thread, in increasing source order: the first
            // pusher to give `d` a BFS lane is its smallest in-neighbour one
            // level up, its parent. Nothing else writes, so every update is
            // a plain load and store.
            push_iterations += 1;
            let (mut got_all, mut edges) = (0u64, [0u64; 2]);
            for u in frontier.iter() {
                let mut bits = masks[u as usize].load(Ordering::Relaxed) & pushed & !tree;
                if pushed & tree != 0 {
                    bits |= gained_r[u as usize].get() & pushed;
                }
                if bits == 0 {
                    continue;
                }
                for list in g.out_lists(u) {
                    for &d in list {
                        let di = d as usize;
                        let old = masks[di].load(Ordering::Relaxed);
                        let got = bits & !old;
                        if got == 0 {
                            continue;
                        }
                        masks[di].store(old | got, Ordering::Relaxed);
                        got_all |= got;
                        // Whoever first puts `d` on the next frontier, or
                        // first gives it a BFS lane, counts its out-edges.
                        let (word, bit) = (&next.words()[di >> 6], 1u64 << (di & 63));
                        let was = word.load(Ordering::Relaxed);
                        if was & bit == 0 {
                            word.store(was | bit, Ordering::Relaxed);
                            edges[0] += g.out_degree(d);
                        }
                        if got & tree != 0 {
                            let was = gaining_r[di].get();
                            if was == 0 {
                                edges[1] += g.out_degree(d);
                            }
                            gaining_r[di].set(was | got & tree);
                            walk.adopt(d, got & tree, u);
                        }
                    }
                }
            }
            per_thread.push((got_all, edges));
        }
        live = per_thread.iter().fold(0, |all, (got, _)| all | got);
        frontier_edges = per_thread.iter().fold([0, 0], |all, (_, edges)| {
            [all[0] + edges[0], all[1] + edges[1]]
        });
        std::mem::swap(&mut frontier, &mut next);
        std::mem::swap(&mut gained, &mut gaining);
    }

    Some(MultiReach {
        masks: masks.into_iter().map(AtomicU64::into_inner).collect(),
        lanes,
        bfs,
        parents: parents.into_iter().map(AtomicU32::into_inner).collect(),
        iterations,
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

    /// Every step policy: the cost model, every lane pulled, every lane
    /// pushed.
    const POLICIES: [Option<u64>; 3] = [None, Some(u64::MAX), Some(0)];

    /// (lanes, BFS lanes) of the packs checked against single runs: every
    /// pack of two or more lanes but the all-BFS one mixes both kinds, the
    /// duplicate root of lanes 0, 1 and 2 lands in both at two lanes, and
    /// the gained words are bytes up to 8 BFS lanes and `u64` from 9.
    const PACKS: [(usize, usize); 8] = [
        (0, 0),
        (1, 1),
        (2, 1),
        (9, 8),
        (9, 9),
        (63, 32),
        (64, 8),
        (64, 64),
    ];

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

    /// `g`'s edges dealt deterministically into a base and an insert
    /// overlay, about one in four to the overlay.
    fn split(g: &Graph) -> (Graph, Graph) {
        let edges: Vec<(u32, u32)> = g.out_csr().iter_edges().map(|(s, d, _)| (s, d)).collect();
        let to_overlay = |&&(s, d): &&(u32, u32)| (s.wrapping_mul(7) ^ d.wrapping_mul(3)) % 4 == 0;
        let n = g.num_vertices();
        (
            graph_of(n, edges.iter().filter(|e| !to_overlay(e)).copied()),
            graph_of(n, edges.iter().filter(to_overlay).copied()),
        )
    }

    /// The shapes that take the sweep through each of its regimes.
    fn shapes() -> Vec<(&'static str, Graph)> {
        let chain = |lo: u32, hi: u32| (lo..hi).map(|v| (v, v + 1));
        vec![
            // Directed and skewed: reachability differs per source, and the
            // hybrid switches direction on it.
            (
                "rmat",
                Graph::from_edgelist(&rmat(&RmatConfig::graph500(10, 8.0, 7))).unwrap(),
            ),
            // High diameter, low degree.
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

    /// 64 roots spread over the vertex set, the second and third duplicates
    /// of the first so lanes must come out equal.
    fn roots_of(n: usize) -> Vec<u32> {
        let mut roots: Vec<u32> = (0..MAX_LANES).map(|i| ((i * 37 + 5) % n) as u32).collect();
        roots[1] = roots[0];
        roots[2] = roots[0];
        roots
    }

    #[test]
    fn packed_masks_match_independent_single_source_runs() {
        let cfg = EngineConfig::new().with_threads(2);
        for (name, g) in shapes() {
            let roots = roots_of(g.num_vertices());
            let reach: Vec<Vec<bool>> = roots
                .iter()
                .map(|&r| crate::reach::run(&g, &cfg, r))
                .collect();
            let trees: Vec<_> = roots
                .iter()
                .map(|&r| crate::bfs::run(&g, &cfg, r))
                .collect();
            let (base, overlay) = split(&g);
            for (lanes, bfs) in PACKS {
                let want: Vec<LaneReply> = (0..lanes)
                    .map(|lane| match lane < bfs {
                        true => LaneReply::Parents(trees[lane].clone()),
                        false => LaneReply::Reached(reach[lane].clone()),
                    })
                    .collect();
                let mut steps = None;
                for threads in [1usize, 2, 8] {
                    let pool = ThreadPool::single_group(threads);
                    for (layers, base, overlay) in
                        [("plain", &g, None), ("overlay", &base, Some(&overlay))]
                    {
                        for forced in POLICIES {
                            let at = format!(
                                "{name} {layers} threads={threads} lanes={lanes} bfs={bfs} {forced:?}"
                            );
                            let mr =
                                sweep(base, overlay, &roots[..lanes], bfs, &pool, None, forced)
                                    .unwrap();
                            assert_eq!(mr.lanes(), lanes, "{at}");
                            // A step may pull some lanes and push others.
                            let (pulls, pushes) = (mr.pull_iterations, mr.push_iterations);
                            assert!(pulls.max(pushes) <= mr.iterations, "{at}");
                            assert!(mr.iterations <= pulls + pushes, "{at}");
                            match forced {
                                Some(0) => assert_eq!(pulls, 0, "{at}"),
                                Some(_) => assert_eq!(pushes, 0, "{at}"),
                                None => {}
                            }
                            if bfs == lanes {
                                // Level-synchronous lanes: one step per level
                                // plus the empty last one, whatever the
                                // direction, threads or layering.
                                let want = *steps.get_or_insert(mr.iterations);
                                assert_eq!(mr.iterations, want, "{at}");
                            }
                            if let Some(last) = lanes.checked_sub(1) {
                                assert_eq!(mr.reached(last), reach[last], "{at}");
                            }
                            assert_eq!(mr.replies().collect::<Vec<_>>(), want, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_overlay_parent_smaller_than_the_base_first_hit_wins() {
        // 0 reaches 3 and 5 in one hop; 8 and 9 are two hops out through
        // either. 9's smaller parent, 3, is an overlay edge; 8's, 3 again,
        // a base edge the overlay's 5 must not displace. 4 is never reached,
        // so its edge to 9 is never a candidate.
        let base_edges = [(0, 3), (0, 5), (5, 9), (3, 8), (4, 9), (9, 1)];
        let overlay_edges = [(3, 9), (5, 8)];
        let base = graph_of(10, base_edges);
        let overlay = graph_of(10, overlay_edges);
        let merged = graph_of(10, base_edges.into_iter().chain(overlay_edges));
        let cfg = EngineConfig::new().with_threads(2);
        let tree = crate::bfs::run(&merged, &cfg, 0);
        assert_eq!((tree[8], tree[9], tree[1]), (Some(3), Some(3), Some(9)));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            for forced in POLICIES {
                let mr = sweep(&base, Some(&overlay), &[0, 0], 1, &pool, None, forced).unwrap();
                assert_eq!(mr.parents(0).as_ref(), Some(&tree), "{threads} {forced:?}");
                assert_eq!(mr.parents(1), None);
                assert_eq!(mr.reached(1), crate::reach::run(&merged, &cfg, 0));
            }
        }
    }

    #[test]
    fn a_smaller_pusher_through_its_overlay_wins_over_a_larger_one_through_its_base() {
        // 0 reaches 2 and 5 in one hop, and both have an edge to 7: 5's in
        // the base, 2's only in the overlay. A push that took every base
        // list before any overlay list would hand 7 to 5.
        let base_edges = [(0, 2), (0, 5), (5, 7), (7, 1)];
        let overlay_edges = [(2, 7)];
        let base = graph_of(8, base_edges);
        let overlay = graph_of(8, overlay_edges);
        let merged = graph_of(8, base_edges.into_iter().chain(overlay_edges));
        let tree = crate::bfs::run(&merged, &EngineConfig::new().with_threads(2), 0);
        assert_eq!((tree[7], tree[1]), (Some(2), Some(7)));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::single_group(threads);
            // One BFS lane (byte words) and nine (`u64` words).
            for bfs in [1, 9] {
                for forced in POLICIES {
                    let mr = sweep(&base, Some(&overlay), &[0; 10], bfs, &pool, None, forced);
                    let mr = mr.unwrap();
                    for lane in 0..bfs {
                        let at = format!("{threads} bfs={bfs} lane={lane} {forced:?}");
                        assert_eq!(mr.parents(lane).as_ref(), Some(&tree), "{at}");
                    }
                    assert_eq!(mr.parents(bfs), None);
                }
            }
        }
    }

    #[test]
    fn the_cost_model_pushes_a_chain_and_pulls_a_star() {
        let pool = ThreadPool::single_group(2);
        let shapes = shapes();
        let graph = |name: &str| &shapes.iter().find(|(n, _)| *n == name).unwrap().1;
        let chain = multi_source_reach(graph("chain"), None, &[100, 0], 1, &pool, None).unwrap();
        assert_eq!(chain.pull_iterations, 0, "one edge per frontier never pays");
        assert_eq!(
            chain.push_iterations, 200,
            "199 hops and the empty last step"
        );
        let star = multi_source_reach(graph("star"), None, &roots_of(300), 0, &pool, None).unwrap();
        assert!(
            star.pull_iterations > 0,
            "64 leaves' worth of hub edges pull"
        );
    }

    /// Sequential reference for one lane over `edges`: the BFS tree whose
    /// parent is the smallest vertex one level up with an edge in — the
    /// root its own parent, `None` where unreached.
    fn min_parent_bfs(n: usize, edges: &[(u32, u32)], root: u32) -> Vec<Option<u32>> {
        let mut depth = vec![usize::MAX; n];
        depth[root as usize] = 0;
        let mut level = 0;
        let mut grew = true;
        while grew {
            grew = false;
            for &(s, d) in edges {
                if depth[s as usize] == level && depth[d as usize] == usize::MAX {
                    depth[d as usize] = level + 1;
                    grew = true;
                }
            }
            level += 1;
        }
        (0..n)
            .map(|v| match depth[v] {
                0 => Some(root),
                usize::MAX => None,
                dv => edges
                    .iter()
                    .filter(|&&(s, d)| d as usize == v && depth[s as usize] == dv - 1)
                    .map(|&(s, _)| s)
                    .min(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_packed_equals_single_under_every_step_policy(
            n in 1usize..48,
            raw_edges in proptest::collection::vec((0u32..48, 0u32..48, any::<bool>()), 0..160),
            raw_roots in proptest::collection::vec(0u32..48, 0..=64),
            raw_bfs in 0usize..=64,
            threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        ) {
            let edges: Vec<(u32, u32, bool)> = raw_edges
                .iter()
                .map(|&(s, d, o)| (s % n as u32, d % n as u32, o))
                .collect();
            let layer = |overlay: bool| {
                graph_of(n, edges.iter().filter(|e| e.2 == overlay).map(|&(s, d, _)| (s, d)))
            };
            let (base, overlay) = (layer(false), layer(true));
            let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
            let roots: Vec<u32> = raw_roots.iter().map(|r| r % n as u32).collect();
            let bfs = raw_bfs.min(roots.len());
            let want: Vec<LaneReply> = roots
                .iter()
                .enumerate()
                .map(|(lane, &r)| {
                    let tree = min_parent_bfs(n, &pairs, r);
                    match lane < bfs {
                        true => LaneReply::Parents(tree),
                        false => LaneReply::Reached(tree.iter().map(Option::is_some).collect()),
                    }
                })
                .collect();
            let pool = ThreadPool::single_group(threads);
            for forced in POLICIES {
                let mr = sweep(&base, Some(&overlay), &roots, bfs, &pool, None, forced).unwrap();
                prop_assert_eq!(mr.replies().collect::<Vec<_>>(), want.clone(), "{:?}", forced);
            }
        }
    }

    #[test]
    fn cancellation_returns_none_and_pool_survives() {
        let g = web_graph(64);
        let (base, overlay) = split(&g);
        let pool = ThreadPool::single_group(2);
        let cancel = CancelFlag::new();
        cancel.cancel();
        for forced in POLICIES {
            assert!(sweep(
                &base,
                Some(&overlay),
                &[1, 0],
                1,
                &pool,
                Some(&cancel),
                forced
            )
            .is_none());
        }
        cancel.reset();
        let resumed =
            multi_source_reach(&base, Some(&overlay), &[1, 0], 1, &pool, Some(&cancel)).unwrap();
        let fresh = multi_source_reach(&g, None, &[1, 0], 1, &pool, None).unwrap();
        assert_eq!(resumed.masks(), fresh.masks());
        assert_eq!(resumed.parents(0), fresh.parents(0));
        let cfg = EngineConfig::new().with_threads(2);
        assert_eq!(fresh.parents(0), Some(crate::bfs::run(&g, &cfg, 1)));
    }

    #[test]
    fn empty_source_list_is_trivially_done() {
        let g = web_graph(16);
        let pool = ThreadPool::single_group(1);
        let mr = multi_source_reach(&g, None, &[], 0, &pool, None).unwrap();
        assert_eq!(mr.lanes(), 0);
        assert_eq!(mr.iterations, 0);
        assert!(mr.masks().iter().all(|&m| m == 0));
        assert!(mr.replies().next().is_none());
    }
}
