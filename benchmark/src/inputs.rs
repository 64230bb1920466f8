//! Seeded input generation. Everything a program under test sees — the
//! edge-list text file, roots, the order of queries and the update batches
//! — is made here from `--seed`; the crates receive only these inputs.

use crate::rng::{mix, Rng};
use grazelle_apps::cc::reference_undirected;
use grazelle_graph::delta::UpdateBatch;
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::gen::grid::grid_mesh;
use grazelle_graph::gen::rmat::{rmat, RmatConfig};
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_serve::Query;

/// The four workloads; names are fixed by `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrSkewDense,
    TravMeshSparse,
    ServeReachMix,
    ServeUpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PrSkewDense,
        Workload::TravMeshSparse,
        Workload::ServeReachMix,
        Workload::ServeUpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrSkewDense => "pr-skew-dense",
            Workload::TravMeshSparse => "trav-mesh-sparse",
            Workload::ServeReachMix => "serve-reach-mix",
            Workload::ServeUpdateMix => "serve-update-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeReachMix | Workload::ServeUpdateMix)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark's definition; the tests
/// run the same code on [`Sizes::tiny`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `pr-skew-dense`: twitter-like R-MAT scale and edge factor.
    pub pr_scale: u32,
    pub pr_edge_factor: f64,
    /// PageRank iterations per solve.
    pub pr_iterations: usize,
    /// `trav-mesh-sparse`: side of the square partial mesh, and how many
    /// roots one solve traverses from (BFS and SSSP each).
    pub mesh_side: usize,
    pub mesh_roots: usize,
    /// Serve workloads: livejournal-like symmetrised R-MAT.
    pub serve_scale: u32,
    pub serve_edge_factor: f64,
    /// Requests per stream (= one solve) of each serve workload.
    pub reach_stream: usize,
    pub update_stream: usize,
    /// Tickets the one client keeps outstanding.
    pub window: usize,
    /// Queries of the window-1 latency pass.
    pub latency_queries: usize,
}

/// Every `UPDATE_EVERY`-th request of `serve-update-mix` is an update.
pub const UPDATE_EVERY: usize = 16;
const UPDATE_PHASE: usize = 8;
/// Share of the base edges one update batch touches.
const UPDATE_FRACTION: f64 = 0.001;
/// Lattice edges kept by the road-style mesh (average directed degree
/// near dimacs-usa's 2.44).
const MESH_KEEP: f64 = 0.61;

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            pr_scale: 17,
            pr_edge_factor: 35.0,
            pr_iterations: 16,
            mesh_side: 384,
            mesh_roots: 4,
            serve_scale: 16,
            serve_edge_factor: 14.4,
            reach_stream: 1024,
            update_stream: 192,
            window: 64,
            latency_queries: 128,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            pr_scale: 8,
            pr_edge_factor: 8.0,
            pr_iterations: 4,
            mesh_side: 12,
            mesh_roots: 2,
            serve_scale: 7,
            serve_edge_factor: 6.0,
            reach_stream: 80,
            update_stream: 48,
            window: 8,
            latency_queries: 8,
        }
    }
}

/// One request of a serve stream.
#[derive(Debug, Clone)]
pub enum Request {
    Query(Query),
    Update(UpdateBatch),
}

/// The generated inputs of one workload for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub edges: EdgeList,
    /// Traversal roots (`trav-mesh-sparse`).
    pub roots: Vec<VertexId>,
    /// The request stream (serve workloads).
    pub requests: Vec<Request>,
    /// The window-1 latency pass (serve workloads).
    pub latency_queries: Vec<Query>,
    /// Digest of all of the above: same seed, same digest.
    pub checksum: u64,
}

pub fn generate(workload: Workload, sizes: &Sizes, seed: u64) -> Inputs {
    let graph_seed = Rng::stream(seed, "graph").next_u64();
    let mut inputs = match workload {
        Workload::PrSkewDense => Inputs {
            edges: rmat(&RmatConfig::graph500(
                sizes.pr_scale,
                sizes.pr_edge_factor,
                graph_seed,
            )),
            roots: Vec::new(),
            requests: Vec::new(),
            latency_queries: Vec::new(),
            checksum: 0,
        },
        Workload::TravMeshSparse => {
            let edges = weighted_mesh(sizes.mesh_side, graph_seed);
            let roots = giant_component_roots(&edges, sizes.mesh_roots, seed);
            Inputs {
                edges,
                roots,
                requests: Vec::new(),
                latency_queries: Vec::new(),
                checksum: 0,
            }
        }
        Workload::ServeReachMix | Workload::ServeUpdateMix => {
            let edges = symmetric_rmat(sizes.serve_scale, sizes.serve_edge_factor, graph_seed);
            let sources = non_isolated(&edges);
            let mut mix = QueryMix {
                rng: Rng::stream(seed, "queries"),
                sources: &sources,
                drawn: 0,
                bfs_slot: 0,
            };
            let mut query = || mix.next();
            let requests = if workload == Workload::ServeReachMix {
                (0..sizes.reach_stream)
                    .map(|_| Request::Query(query()))
                    .collect()
            } else {
                update_stream(&edges, sizes.update_stream, seed, &mut query)
            };
            let latency_queries = (0..sizes.latency_queries).map(|_| query()).collect();
            Inputs {
                edges,
                roots: Vec::new(),
                requests,
                latency_queries,
                checksum: 0,
            }
        }
    };
    inputs.checksum = checksum(&inputs);
    inputs
}

/// Road-style partial mesh with symmetric weights that are exact binary
/// fractions (k/16, 1 ≤ k ≤ 64), so path sums are exact in any order and
/// SSSP output can be compared bit for bit with Dijkstra's.
fn weighted_mesh(side: usize, seed: u64) -> EdgeList {
    let (n, edges, _) = grid_mesh(side, side, MESH_KEEP, seed).into_parts();
    let weights = edges
        .iter()
        .map(|&(s, d)| {
            let (lo, hi) = (s.min(d) as u64, s.max(d) as u64);
            (1 + mix(seed ^ (lo << 32 | hi)) % 64) as f64 / 16.0
        })
        .collect();
    EdgeList::from_parts(n, edges, Some(weights)).expect("mesh endpoints are in range")
}

/// Livejournal-like R-MAT made symmetric: friendship edges go both ways,
/// which also gives the low-diameter giant component traversals switch
/// direction on.
fn symmetric_rmat(scale: u32, edge_factor: f64, seed: u64) -> EdgeList {
    let mut cfg = RmatConfig::graph500(scale, edge_factor, seed);
    cfg.simplify = false;
    let mut el = rmat(&cfg);
    el.symmetrize();
    el.remove_self_loops();
    el.sort_and_dedup();
    el
}

fn non_isolated(edges: &EdgeList) -> Vec<VertexId> {
    edges
        .out_degrees()
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d > 0)
        .map(|(v, _)| v as VertexId)
        .collect()
}

/// The query mix: 15/16 packable `Reach`, 1/16 `Bfs`, from roots that have
/// out-edges. The share is exact — one `Bfs` at a seeded place in every
/// sixteen queries — because a `Bfs` costs several times a packed `Reach`,
/// and a share left to chance would move `solve_s` more from seed to seed
/// than any change to the code.
struct QueryMix<'a> {
    rng: Rng,
    sources: &'a [VertexId],
    drawn: usize,
    bfs_slot: usize,
}

impl QueryMix<'_> {
    fn next(&mut self) -> Query {
        if self.drawn.is_multiple_of(16) {
            self.bfs_slot = self.rng.below(16);
        }
        let root = self.sources[self.rng.below(self.sources.len())];
        self.drawn += 1;
        if (self.drawn - 1) % 16 == self.bfs_slot {
            Query::Bfs { root }
        } else {
            Query::Reach { root }
        }
    }
}

/// `trav-mesh-sparse` roots: distinct seeded vertices of the largest
/// component, so every traversal covers most of the mesh.
fn giant_component_roots(edges: &EdgeList, count: usize, seed: u64) -> Vec<VertexId> {
    let g = Graph::from_edgelist(edges).expect("non-empty mesh");
    let label = reference_undirected(&g);
    let mut size = vec![0u32; label.len()];
    for &l in &label {
        size[l as usize] += 1;
    }
    let giant = (0..label.len() as u32)
        .max_by_key(|&l| size[l as usize])
        .expect("non-empty mesh");
    let members: Vec<VertexId> = (0..label.len() as u32)
        .filter(|&v| label[v as usize] == giant)
        .collect();
    let mut rng = Rng::stream(seed, "roots");
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count.min(members.len()) {
        let r = members[rng.below(members.len())];
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    roots
}

/// The `serve-update-mix` stream: queries with an update batch at every
/// sixteenth position. Batches insert edges the base does not have; the
/// second-to-last batch instead deletes base edges, which forces the merge
/// rebuild. Queries follow the last update, so the final version is read.
fn update_stream(
    edges: &EdgeList,
    len: usize,
    seed: u64,
    query: &mut impl FnMut() -> Query,
) -> Vec<Request> {
    let base = edges.edges();
    // The loader sizes the vertex set to the largest endpoint in the file,
    // so update endpoints stay below it.
    let n = base
        .iter()
        .map(|&(s, d)| s.max(d))
        .max()
        .map_or(1, |m| m as usize + 1);
    let batch = ((base.len() as f64 * UPDATE_FRACTION).round() as usize).max(1);
    let updates = (0..len)
        .filter(|i| i % UPDATE_EVERY == UPDATE_PHASE)
        .count();
    let mut rng = Rng::stream(seed, "updates");
    let mut inserted = std::collections::BTreeSet::new();
    let mut deleted = std::collections::BTreeSet::new();
    let mut nth = 0;
    (0..len)
        .map(|i| {
            if i % UPDATE_EVERY != UPDATE_PHASE {
                return Request::Query(query());
            }
            nth += 1;
            let mut b = UpdateBatch::new();
            if nth + 1 == updates {
                while b.len() < batch.min(base.len()) {
                    let e = base[rng.below(base.len())];
                    if deleted.insert(e) {
                        b.delete(e.0, e.1);
                    }
                }
            } else {
                while b.len() < batch {
                    let e = (rng.below(n) as VertexId, rng.below(n) as VertexId);
                    if e.0 != e.1 && base.binary_search(&e).is_err() && inserted.insert(e) {
                        b.insert(e.0, e.1);
                    }
                }
            }
            Request::Update(b)
        })
        .collect()
}

fn checksum(inputs: &Inputs) -> u64 {
    let mut h = mix(inputs.edges.num_vertices() as u64);
    let mut fold = |x: u64| h = mix(h ^ x).wrapping_add(h.rotate_left(17));
    for &(s, d) in inputs.edges.edges() {
        fold((s as u64) << 32 | d as u64);
    }
    for &w in inputs.edges.weights().unwrap_or(&[]) {
        fold(w.to_bits());
    }
    for &r in &inputs.roots {
        fold(r as u64);
    }
    let fold_query = |q: &Query, fold: &mut dyn FnMut(u64)| match *q {
        Query::Bfs { root } => fold(1 << 40 | root as u64),
        Query::Reach { root } => fold(2 << 40 | root as u64),
        _ => unreachable!("the mix draws only Bfs and Reach"),
    };
    for r in &inputs.requests {
        match r {
            Request::Query(q) => fold_query(q, &mut fold),
            Request::Update(b) => {
                for &(s, d) in b.inserts() {
                    fold(3 << 40 ^ (s as u64) << 20 ^ d as u64);
                }
                for &(s, d) in b.deletes() {
                    fold(4 << 40 ^ (s as u64) << 20 ^ d as u64);
                }
            }
        }
    }
    for q in &inputs.latency_queries {
        fold_query(q, &mut fold);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        let sizes = Sizes::tiny();
        for w in Workload::ALL {
            let a = generate(w, &sizes, 11);
            let b = generate(w, &sizes, 11);
            let c = generate(w, &sizes, 12);
            assert_eq!(a.checksum, b.checksum, "{}", w.name());
            assert_eq!(a.edges.edges(), b.edges.edges(), "{}", w.name());
            assert_ne!(a.checksum, c.checksum, "{}", w.name());
            assert_ne!(a.edges.edges(), c.edges.edges(), "{}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn mesh_weights_are_symmetric_binary_fractions_and_roots_are_connected() {
        let inp = generate(Workload::TravMeshSparse, &Sizes::tiny(), 3);
        let w = inp.edges.weights().expect("weighted");
        let find = |s, d| {
            let i = inp
                .edges
                .edges()
                .iter()
                .position(|&e| e == (s, d))
                .expect("reverse edge");
            w[i]
        };
        for (&(s, d), &wt) in inp.edges.edges().iter().zip(w) {
            assert_eq!((wt * 16.0).fract(), 0.0);
            assert!((1.0 / 16.0..=4.0).contains(&wt));
            assert_eq!(find(d, s), wt);
        }
        assert_eq!(inp.roots.len(), 2);
        assert_ne!(inp.roots[0], inp.roots[1]);
    }

    #[test]
    fn update_stream_has_fresh_inserts_one_delete_batch_and_trailing_queries() {
        let sizes = Sizes::tiny();
        let inp = generate(Workload::ServeUpdateMix, &sizes, 5);
        assert_eq!(inp.requests.len(), sizes.update_stream);
        let base = inp.edges.edges();
        let updates: Vec<&UpdateBatch> = inp
            .requests
            .iter()
            .filter_map(|r| match r {
                Request::Update(b) => Some(b),
                Request::Query(_) => None,
            })
            .collect();
        assert_eq!(updates.len(), sizes.update_stream / UPDATE_EVERY);
        for (i, b) in updates.iter().enumerate() {
            if i + 2 == updates.len() {
                assert!(b.inserts().is_empty() && !b.deletes().is_empty());
                assert!(b.deletes().iter().all(|e| base.binary_search(e).is_ok()));
            } else {
                assert!(b.deletes().is_empty() && !b.inserts().is_empty());
                assert!(b.inserts().iter().all(|e| base.binary_search(e).is_err()));
            }
        }
        assert!(matches!(inp.requests.last(), Some(Request::Query(_))));
        assert_eq!(inp.latency_queries.len(), sizes.latency_queries);

        // The Bfs share is exact: one in every sixteen queries drawn.
        let reach = generate(Workload::ServeReachMix, &sizes, 5);
        let bfs = |r: &&Request| matches!(r, Request::Query(Query::Bfs { .. }));
        assert_eq!(
            reach.requests.iter().filter(bfs).count(),
            sizes.reach_stream / 16
        );
    }
}
