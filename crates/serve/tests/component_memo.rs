//! The component memo across versions: on an undirected version (symmetric
//! base, no active overlay) a Reach whose component an earlier sweep met is
//! answered from the memo; on every other version, and on a version the
//! memo has not seen yet, it sweeps.
//!
//! Random symmetric graphs with several components and isolated vertices
//! serve windowed Reach/BFS streams across four kinds of version: plain
//! symmetric, a symmetric-pair insert overlay, a one-directional insert
//! overlay, and the symmetric base a merging delete leaves. Every reply
//! equals `single_shot_view` on its version, `reach_lookups` stands still
//! while an overlaid version is current, the memo starts empty on each new
//! version, and the component a lone BFS records is bit for bit the Reach
//! reply from its root — at 1, 2 and 8 executor threads.

use grazelle_core::engine::PreparedGraph;
use grazelle_core::{EngineConfig, ResilienceContext, VersionedGraph};
use grazelle_graph::delta::UpdateBatch;
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_serve::query::single_shot_view;
use grazelle_serve::{Query, QueryResult, ServeConfig, Server};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Edges join vertices of one class (`v % CLASSES`) only, so a graph has at
/// least this many components once every class holds a vertex.
const CLASSES: u32 = 3;

/// An edge inside class 0 that no generated graph holds.
const PAIR: (u32, u32) = (0, CLASSES);

/// The symmetric closure of `pairs` folded into their first endpoint's
/// class over `n` vertices, without the edge [`PAIR`] (the stream inserts
/// it); vertices no pair touches stay isolated.
fn symmetric_graph(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let n32 = n as u32;
    let mut el = EdgeList::new(n);
    for &(s, d) in pairs {
        let s = s % n32;
        // d % n moved into s's class: within its block of CLASSES
        // vertices, or the block below when that passes n.
        let d = (d % n32) / CLASSES * CLASSES + s % CLASSES;
        let d = if d >= n32 { d - CLASSES } else { d };
        if s != d && (s.min(d), s.max(d)) != PAIR {
            el.push(s, d).unwrap();
            el.push(d, s).unwrap();
        }
    }
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

/// The server under test beside a reference version that takes the same
/// batches; replies are checked against `single_shot_view` on it.
struct Harness {
    server: Server,
    reference: VersionedGraph,
    pool: ThreadPool,
    cfg: EngineConfig,
}

impl Harness {
    fn expected(&self, q: Query) -> QueryResult {
        let view = self.reference.view(&self.pool);
        single_shot_view(&view, &self.cfg, &ResilienceContext::new(), &self.pool, q).unwrap()
    }

    fn lookups(&self) -> u64 {
        self.server.stats().reach_lookups
    }

    fn update(&mut self, batch: UpdateBatch) {
        self.reference.apply_batch(&batch, &self.pool).unwrap();
        self.server.submit_update(batch).unwrap().wait().unwrap();
    }

    /// Submits `q` alone (nothing else is queued) and checks its reply.
    fn lone(&self, q: Query) -> QueryResult {
        let served = self.server.submit(q).unwrap().wait().unwrap();
        assert_eq!(served, self.expected(q), "lone {q:?}");
        served
    }

    /// Keeps `window` queries outstanding over `queries`, checking every
    /// reply.
    fn stream(&self, queries: &[Query], window: usize) {
        let mut outstanding = VecDeque::new();
        let check = |(q, t): (Query, grazelle_serve::Ticket)| {
            assert_eq!(t.wait().unwrap(), self.expected(q), "{q:?}");
        };
        for &q in queries {
            if outstanding.len() == window {
                check(outstanding.pop_front().unwrap());
            }
            outstanding.push_back((q, self.server.submit(q).unwrap()));
        }
        outstanding.into_iter().for_each(check);
    }

    /// On a version the memo has not seen: a Reach from `known` (a root
    /// the previous version, if any, recorded) sweeps, a lone BFS records another
    /// component, and Reaches from both roots are then lookups whose
    /// replies equal the single-shot Reach — for the BFS root, the
    /// component its lane recorded.
    fn probe_fresh_version(&self, known: VertexId) {
        let before = self.lookups();
        let QueryResult::Reached(reached) = self.lone(Query::Reach { root: known }) else {
            unreachable!("a Reach replies with its reached set");
        };
        assert_eq!(self.lookups(), before, "the memo starts empty");
        let other = reached
            .iter()
            .position(|&r| !r)
            .expect("several components") as VertexId;
        let runs = self.server.stats().packed_runs;
        self.lone(Query::Bfs { root: other });
        assert_eq!(
            self.server.stats().packed_runs,
            runs + 1,
            "a lone BFS sweeps"
        );
        self.lone(Query::Reach { root: other });
        assert_eq!(
            self.lookups(),
            before + 1,
            "the BFS lane recorded its component"
        );
        self.lone(Query::Reach { root: known });
        assert_eq!(self.lookups(), before + 2);
    }

    /// Serves `queries` on the current version. On an undirected one the
    /// memo starts empty and fills ([`Harness::probe_fresh_version`]); on a
    /// directed or overlaid one no Reach is a lookup.
    fn serve_version(&self, queries: &[Query], window: usize) {
        let undirected = self.reference.base().is_symmetric() && !self.reference.delta_active();
        let before = self.lookups();
        if undirected {
            self.probe_fresh_version(0);
        }
        self.stream(queries, window);
        if !undirected {
            assert_eq!(
                self.lookups(),
                before,
                "a directed or overlaid version has no memo"
            );
        }
    }
}

fn queries(picks: &[(bool, u32)], n: usize) -> Vec<Query> {
    picks
        .iter()
        .map(|&(bfs, r)| {
            let root = r % n as u32;
            if bfs {
                Query::Bfs { root }
            } else {
                Query::Reach { root }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reach_lookups_follow_the_undirected_versions(
        n in 6usize..40,
        pairs in proptest::collection::vec((0u32..40, 0u32..40), 12..60),
        picks in proptest::collection::vec((any::<bool>(), 0u32..40), 4..40),
        window in 1usize..9,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let g = Arc::new(symmetric_graph(n, &pairs));
        prop_assert!(g.is_symmetric());
        let pg = Arc::new(PreparedGraph::new(&g));
        let cfg = EngineConfig::new().with_threads(threads);
        let mut h = Harness {
            server: Server::start(Arc::clone(&g), Arc::clone(&pg), ServeConfig::new().with_engine(cfg)),
            reference: VersionedGraph::new(g, pg),
            pool: ThreadPool::single_group(threads),
            cfg,
        };
        let stream = queries(&picks, n);

        // Plain symmetric version 0.
        h.serve_version(&stream, window);

        // A symmetric pair inside class 0: the logical graph stays
        // undirected, but an overlay is active (unless the base is so small
        // that two inserts cross the merge threshold).
        let mut pair = UpdateBatch::new();
        pair.insert(PAIR.0, PAIR.1).insert(PAIR.1, PAIR.0);
        h.update(pair);
        h.serve_version(&stream, window);

        // One edge across classes, one way only.
        let oneway = (1, 2);
        let mut batch = UpdateBatch::new();
        batch.insert(oneway.0, oneway.1);
        h.update(batch);
        prop_assert!(!h.reference.base().is_symmetric() || h.reference.delta_active());
        h.serve_version(&stream, window);

        // Deleting it merges: the base is symmetric again, the memo empty.
        let mut batch = UpdateBatch::new();
        batch.delete(oneway.0, oneway.1);
        h.update(batch);
        prop_assert!(h.reference.base().is_symmetric() && !h.reference.delta_active());
        h.serve_version(&stream, window);

        // A merging delete of both directions of the pair: another plain
        // symmetric version.
        let mut batch = UpdateBatch::new();
        batch.delete(PAIR.0, PAIR.1).delete(PAIR.1, PAIR.0);
        h.update(batch);
        prop_assert!(h.reference.base().is_symmetric() && !h.reference.delta_active());
        h.serve_version(&stream, window);

        let snap = h.server.drain();
        prop_assert_eq!(snap.failed + snap.expired, 0);
        prop_assert!(snap.reach_lookups >= 6);
    }
}
