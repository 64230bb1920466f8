//! Contract tests for [`GraphProgram::identity_apply_is_noop`] (DESIGN.md
//! §18). The sparse Vertex phase skips every vertex whose accumulator still
//! holds the operator identity, which is sound only if `apply` would have
//! done nothing there. Each program that declares the contract is driven to
//! an arbitrary reachable state (a run cut off after a random number of
//! supersteps), every accumulator is put at the identity, and `apply` is
//! called on every vertex: it must return `false` and leave every
//! checkpoint array — and the converged set — bit-unchanged.
//!
//! k-core is the negative case: its threshold `k` moves between rounds, so
//! an untouched vertex can still be peeled. It must not declare the
//! contract, and must still match its reference through the hybrid driver
//! without ever entering the sparse path.
//!
//! [`GraphProgram::priority_ordered`] is the second contract: the result
//! does not depend on which active vertices are sent first. SSSP is run by
//! hand with a random part of every active set held back and must still
//! land on Dijkstra's distances; BFS is the negative case, pinned by a
//! four-vertex diamond whose parents change when one vertex waits.

use grazelle::core::config::EngineConfig;
use grazelle::core::engine::hybrid::{run_program_on_pool, EngineKind};
use grazelle::core::engine::PreparedGraph;
use grazelle::core::GraphProgram;
use grazelle::graph::edgelist::EdgeList;
use grazelle::graph::gen::{erdos_renyi, grid_mesh, rmat, RmatConfig};
use grazelle::prelude::*;
use grazelle_apps::{
    kcore, sssp, Bfs, ConnectedComponents, KCore, LabelProp, Reachability, Sssp, UnitBfs,
};
use grazelle_sched::pool::ThreadPool;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Symmetrized random graph from one of three families, with weights that
/// are exact binary fractions (SSSP needs them; the others ignore them).
fn family_graph(family: u8, seed: u64) -> Graph {
    let mut el = match family % 3 {
        0 => rmat(&RmatConfig::graph500(7, 4.0, seed)),
        1 => grid_mesh(12, 12, 0.8, seed),
        _ => erdos_renyi(150, 400, seed, true),
    };
    el.symmetrize();
    el.sort_and_dedup();
    let (n, edges, _) = el.into_parts();
    let weights = edges
        .iter()
        .map(|&(s, d)| ((s.min(d) as u64 * 31 + s.max(d) as u64) % 16 + 1) as f64 / 4.0)
        .collect();
    let el = EdgeList::from_parts(n, edges, Some(weights)).unwrap();
    Graph::from_edgelist(&el).unwrap()
}

fn state_bits<P: GraphProgram>(prog: &P) -> (Vec<Vec<u64>>, Option<usize>) {
    (
        prog.checkpoint_arrays()
            .iter()
            .map(|a| a.to_vec_u64())
            .collect(),
        prog.converged().map(|c| c.count()),
    )
}

/// Drives `prog` for `supersteps` supersteps (pull only, so the state is
/// reached without the path under test), then checks the contract at that
/// state over every vertex.
fn check_contract<P: GraphProgram>(pg: &PreparedGraph, prog: &P, supersteps: usize, name: &str) {
    assert!(
        prog.identity_apply_is_noop(),
        "{name} must declare the contract"
    );
    let pool = ThreadPool::single_group(2);
    let cfg = EngineConfig::new()
        .with_threads(2)
        .with_max_iterations(supersteps)
        .with_force_engine(Some(EngineKind::Pull));
    run_program_on_pool(pg, prog, &cfg, &pool);

    let identity = prog.op().identity();
    for v in 0..prog.num_vertices() {
        prog.accumulators().set_f64(v, identity);
    }
    let before = state_bits(prog);
    for v in 0..prog.num_vertices() as u32 {
        assert!(
            !prog.apply(v),
            "{name} after {supersteps} supersteps: apply({v}) activated on an identity accumulator"
        );
    }
    assert!(
        state_bits(prog) == before,
        "{name} after {supersteps} supersteps: apply on identity accumulators changed state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_declared_programs_ignore_identity_accumulators(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
        supersteps in 0usize..14,
    ) {
        let g = family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let pg = PreparedGraph::new(&g);

        check_contract(&pg, &Bfs::new(n, root), supersteps, "bfs");
        check_contract(&pg, &Sssp::new(n, root), supersteps, "sssp");
        check_contract(&pg, &ConnectedComponents::new(n), supersteps, "cc");
        check_contract(
            &pg,
            &ConnectedComponents::write_intense_variant(n),
            supersteps,
            "cc-write-intense",
        );
        check_contract(&pg, &Reachability::new(n, root), supersteps, "reach");
        check_contract(&pg, &LabelProp::new(&g), supersteps, "labelprop");
        check_contract(&pg, &UnitBfs::cold(n, root), supersteps, "incremental-bfs");
        // A warm start from arbitrary (even inconsistent) prior depths is a
        // state the incremental path can hand the engine.
        let depths: Vec<f64> = (0..n)
            .map(|v| if (v as u64 ^ seed).is_multiple_of(3) { f64::INFINITY } else { (v % 7) as f64 })
            .collect();
        check_contract(
            &pg,
            &UnitBfs::warm(&depths, vec![root]),
            supersteps,
            "incremental-bfs-warm",
        );
    }
}

#[test]
fn kcore_does_not_declare_the_contract_and_never_goes_sparse() {
    // Vertex 40 is isolated: peeled in round k = 1 with no message ever
    // reaching it — `apply` acting on an identity accumulator, which is
    // exactly what the contract forbids.
    let mut el = grid_mesh(6, 6, 1.0, 7);
    el.symmetrize();
    el.sort_and_dedup();
    let (_, edges, _) = el.into_parts();
    let g = Graph::from_edgelist(&EdgeList::from_parts(41, edges, None).unwrap()).unwrap();
    let prog = KCore::new(&g);
    assert!(!prog.identity_apply_is_noop());
    prog.accumulators().set_f64(40, prog.op().identity());
    assert!(prog.apply(40), "k-core peels an untouched isolated vertex");

    let want = kcore::reference(&g);
    let pg = PreparedGraph::new(&g);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let cfg = EngineConfig::new().with_threads(threads).with_trace(true);
        let (coreness, stats) = kcore::run_prepared(&pg, &g, &cfg, &pool);
        assert_eq!(coreness, want, "x{threads}");
        assert!(!stats.hit_iteration_cap, "x{threads}");
        assert!(stats.push_iterations > 0, "x{threads}: peeling rounds push");
        for r in &stats.records {
            assert_eq!(r.vertex_touched, 0, "x{threads} iteration {}", r.iteration);
            assert!(!r.acc_reset_skipped, "x{threads} iteration {}", r.iteration);
        }
    }
}

/// The superstep loop by hand over `g`'s out-edges, with a schedule the
/// engine never produces: of the vertices waiting to send, `pick` chooses
/// which go this superstep (at least one); the rest keep waiting. Returns
/// the number of supersteps.
fn run_holding_back<P: GraphProgram>(
    g: &Graph,
    prog: &P,
    mut pick: impl FnMut(&[u32]) -> Vec<u32>,
) -> usize {
    let n = g.num_vertices() as u32;
    let first = prog.initial_frontier();
    let mut waiting: BTreeSet<u32> = (0..n).filter(|&v| first.contains(v)).collect();
    let (acc, values) = (prog.accumulators(), prog.edge_values());
    let mut supersteps = 0;
    while !waiting.is_empty() {
        let sent = pick(&waiting.iter().copied().collect::<Vec<_>>());
        assert!(!sent.is_empty());
        for v in 0..n as usize {
            acc.set_f64(v, prog.op().identity());
        }
        for &u in &sent {
            assert!(waiting.remove(&u), "{u} was not waiting");
            let weights = g.out_csr().neighbor_weights(u);
            for (i, &v) in g.out_neighbors(u).iter().enumerate() {
                if prog.converged().is_some_and(|c| c.contains(v)) {
                    continue;
                }
                let w = weights.map_or(0.0, |ws| ws[i]);
                let msg = prog.edge_func().apply(values.get_f64(u as usize), w);
                acc.set_f64(v as usize, prog.op().combine(acc.get_f64(v as usize), msg));
            }
        }
        waiting.extend((0..n).filter(|&v| prog.apply(v)));
        supersteps += 1;
        assert!(supersteps <= 64 * n as usize, "no fixpoint in sight");
    }
    supersteps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Sssp` declares `priority_ordered`: whichever part of the active set
    /// is sent first — not just the lowest bucket — the run ends on the
    /// reference distances, bit for bit.
    #[test]
    fn prop_sssp_reaches_its_fixpoint_in_any_drain_order(
        family in 0u8..3,
        seed in 0u64..1_000_000,
        root_pick in 0u32..4096,
        order in 0u64..u64::MAX,
    ) {
        let g = family_graph(family, seed);
        let n = g.num_vertices();
        let root = root_pick % n as u32;
        let prog = Sssp::new(n, root);
        prop_assert!(prog.priority_ordered());
        let mut x = order | 1;
        let supersteps = run_holding_back(&g, &prog, |waiting| {
            // xorshift: each waiting vertex goes with probability 1/2; one
            // of them always does.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let forced = waiting[(x >> 32) as usize % waiting.len()];
            waiting
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v == forced || (x >> (i % 61)) & 1 == 1)
                .map(|(_, &v)| v)
                .collect()
        });
        prop_assert_eq!(prog.distances(), sssp::reference(&g, root), "after {} supersteps", supersteps);
    }
}

#[test]
fn bfs_parents_depend_on_the_drain_order_so_it_does_not_declare() {
    // 0 -> {1, 2} -> 3: both 1 and 2 offer themselves as 3's parent.
    let el = EdgeList::from_pairs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let g = Graph::from_edgelist(&el).unwrap();
    let parents_when = |pick: &dyn Fn(&[u32]) -> Vec<u32>| {
        let prog = Bfs::new(4, 0);
        assert!(!prog.priority_ordered());
        run_holding_back(&g, &prog, pick);
        prog.parents()
    };
    // Everything sent at once — the engine's schedule: the smaller id wins.
    assert_eq!(
        parents_when(&|waiting| waiting.to_vec()),
        vec![Some(0), Some(0), Some(0), Some(1)]
    );
    // Hold 1 back one superstep: 2 claims 3 first and a visited vertex
    // never takes another parent.
    assert_eq!(
        parents_when(&|waiting| vec![*waiting.last().unwrap()]),
        vec![Some(0), Some(0), Some(0), Some(2)]
    );
}
