//! Deterministic fault-injected soak for the serving layer (ISSUE 7).
//!
//! Three waves of mixed queries run through a server whose fault plan
//! injects admission stalls, per-query panics (both recoverable and
//! budget-exhausting), and a deadline storm — at 1, 2, and 8 executor
//! threads. The assertions are the serving layer's contract:
//!
//! * the process never exits or hangs (the test itself completing is the
//!   proof — every ticket is waited with a finite outcome);
//! * the admission queue stays bounded throughout;
//! * every query that completes returns results **bit-identical** to a
//!   single-shot `run_resilient` execution of the same query;
//! * shed/expired/failed queries carry typed `ServeError`s, and the
//!   drain-time counters match the fault plan exactly.
//!
//! A fourth soak queues a wave of Reach and BFS queries behind a plug so it
//! packs, and injects panics and a deadline storm into pack members: they
//! leave the pack one by one, and the counters still match the plan.
//!
//! When `GRAZELLE_SOAK_STATS_DIR` is set, each server's final stats
//! rendering is written there (`soak-<threads>.txt`,
//! `packed-wave-<threads>.txt`) for CI artifacts.

use grazelle_core::engine::PreparedGraph;
use grazelle_core::faults::{ServeFaultPlan, ServeInjector};
use grazelle_core::{EngineConfig, ResilienceContext};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::faults::RetryPolicy;
use grazelle_graph::graph::Graph;
use grazelle_sched::pool::ThreadPool;
use grazelle_serve::{single_shot, Query, ServeConfig, ServeError, Server};
use std::sync::Arc;
use std::time::Duration;

const WAVES: usize = 3;
const WAVE_LEN: usize = 16;
const QUEUE_CAP: usize = 64;

/// Deterministic weighted ring-with-chords digraph: connected, small
/// diameter, enough irregularity that BFS/SSSP/CC/Reach all do real work
/// (weights so SSSP's min-plus edge function has something to add).
fn soak_graph(n: usize) -> (Arc<Graph>, Arc<PreparedGraph>) {
    let mut el = EdgeList::new(n);
    let w = |s: u32, d: u32| ((s * 13 + d * 7) % 10 + 1) as f64;
    for v in 0..n as u32 {
        let d = (v + 1) % n as u32;
        el.push_weighted(v, d, w(v, d)).unwrap();
        if v % 3 == 0 {
            let d = (v * 7 + 2) % n as u32;
            el.push_weighted(v, d, w(v, d)).unwrap();
        }
        if v % 5 == 0 {
            let s = (v * 11 + 3) % n as u32;
            el.push_weighted(s, v, w(s, v)).unwrap();
        }
    }
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    (Arc::new(g), Arc::new(pg))
}

/// The query at admission sequence `seq`. PageRank is deliberately kept
/// off every fault-plan seq so no floating-point query ever takes the
/// degraded (1-thread scalar) path — integer/min-plus results are
/// thread-count invariant, which keeps the bit-identity check exact.
fn stream_query(seq: usize) -> Query {
    match seq % WAVE_LEN {
        0 => Query::Bfs { root: 1 },
        1 => Query::Cc,
        2 => Query::Reach { root: 2 },
        3 => Query::Reach { root: 5 },
        4 => Query::Sssp { root: 0 },
        5 => Query::Bfs { root: 7 },
        6 => Query::Reach { root: 9 },
        7 => Query::Cc,
        8 => Query::Bfs { root: 11 },
        9 => Query::Reach { root: 13 },
        10 => Query::Sssp { root: 3 },
        11 => Query::Bfs { root: 17 },
        12 => Query::PageRank { iterations: 6 },
        13 => Query::Reach { root: 19 },
        14 => Query::Cc,
        15 => Query::Bfs { root: 23 },
        _ => unreachable!(),
    }
}

/// One full soak at `threads` executor threads. Returns the final stats
/// rendering for the CI artifact.
fn soak_at(threads: usize) -> String {
    let (g, pg) = soak_graph(600);
    // seq 0  (Bfs):  2 panics — recovers on the normal pool.
    // seq 8  (Bfs):  3 panics — recovers only on the degraded attempt.
    // seq 24 (Bfs):  4 panics — exhausts the whole ladder, typed Failed.
    // seqs 32..35:   deadline storm — expired at iteration 0.
    let plan = ServeFaultPlan::clean()
        .with_admission_stall(5, Duration::from_millis(1))
        .with_admission_stall(21, Duration::from_micros(500))
        .with_query_panic(0, 2)
        .with_query_panic(8, 3)
        .with_query_panic(24, 4)
        .with_deadline_storm(32, 3);
    let cfg = ServeConfig::new()
        .with_engine(EngineConfig::new().with_threads(threads))
        .with_queue_capacity(QUEUE_CAP)
        .with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(200),
        })
        .with_seed(0x50AC * threads as u64 + 1);
    let server = Server::start_with_faults(
        Arc::clone(&g),
        Arc::clone(&pg),
        cfg,
        Some(Arc::new(ServeInjector::new(plan))),
        None,
    );

    let ref_pool = ThreadPool::single_group(threads);
    let ref_cfg = EngineConfig::new().with_threads(threads);
    for wave in 0..WAVES {
        assert!(
            server.queue_depth() <= QUEUE_CAP,
            "queue depth must stay bounded"
        );
        let tickets: Vec<_> = (0..WAVE_LEN)
            .map(|i| {
                let seq = wave * WAVE_LEN + i;
                let t = server
                    .submit(stream_query(seq))
                    .expect("waves fit the queue, nothing sheds");
                assert_eq!(t.seq(), seq, "admission order is the fault-plan key");
                t
            })
            .collect();
        assert!(server.queue_depth() <= QUEUE_CAP);
        for t in tickets {
            let seq = t.seq();
            match t.wait() {
                Ok(served) => {
                    // Bit-identity: the served result must equal a fresh
                    // single-shot run of the same query.
                    let direct = single_shot(
                        &g,
                        &pg,
                        &ref_cfg,
                        &ResilienceContext::new(),
                        &ref_pool,
                        stream_query(seq),
                    )
                    .expect("reference run is clean");
                    assert_eq!(served, direct, "seq {seq} diverged from single-shot");
                }
                Err(ServeError::Failed { attempts, .. }) => {
                    assert_eq!(seq, 24, "only seq 24 exhausts its retry budget");
                    assert_eq!(attempts, 4, "2 retries + degraded = 4 attempts");
                }
                Err(ServeError::Expired { .. }) => {
                    assert!(
                        (32..35).contains(&seq),
                        "only the storm span expires, got seq {seq}"
                    );
                }
                Err(other) => panic!("seq {seq}: unexpected disposition {other}"),
            }
        }
    }

    let snap = server.drain();
    assert_eq!(snap.admitted, (WAVES * WAVE_LEN) as u64);
    assert_eq!(snap.completed, (WAVES * WAVE_LEN) as u64 - 4);
    assert_eq!(snap.failed, 1, "seq 24");
    assert_eq!(snap.expired, 3, "storm seqs 32..35");
    assert_eq!(snap.shed_queue + snap.shed_work + snap.shed_draining, 0);
    assert_eq!(snap.panics_absorbed, 2 + 3 + 4);
    assert_eq!(snap.retries, 2 + 3 + 3, "non-final failed attempts");
    assert_eq!(snap.degraded, 2, "seqs 8 and 24 reach the degraded rung");
    assert_eq!(snap.queue_depth, 0, "drain leaves nothing queued");
    snap.render()
}

/// Member `seq` of the packed wave: every third a BFS query, the rest
/// Reach, from roots spread over the graph.
fn wave_query(seq: usize) -> Query {
    let root = (seq * 37 % 600) as u32;
    match seq % 3 {
        0 => Query::Bfs { root },
        _ => Query::Reach { root },
    }
}

/// A wave that packs: seq 0 (a Cc query) panics once and parks the executor
/// in its retry backoff while seqs 1..=16, Reach and BFS mixed, queue up
/// behind it. Two BFS members panic and one BFS and one Reach member sit in
/// a deadline storm; those leave the pack, and every disposition and
/// counter is what running each member alone would give.
fn packed_wave_at(threads: usize) -> String {
    let (g, pg) = soak_graph(600);
    // seq 3 (Bfs): 1 panic  — completes on attempt 1, alone.
    // seq 6 (Bfs): 3 panics — completes only on the degraded attempt.
    // seqs 9, 10:  deadline storm — expired at iteration 0.
    let plan = ServeFaultPlan::clean()
        .with_query_panic(0, 1)
        .with_query_panic(3, 1)
        .with_query_panic(6, 3)
        .with_deadline_storm(9, 2);
    let cfg = ServeConfig::new()
        .with_engine(EngineConfig::new().with_threads(threads))
        .with_queue_capacity(QUEUE_CAP)
        .with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(40),
        });
    let server = Server::start_with_faults(
        Arc::clone(&g),
        Arc::clone(&pg),
        cfg,
        Some(Arc::new(ServeInjector::new(plan))),
        None,
    );
    let plug = server.submit(Query::Cc).unwrap();
    let tickets: Vec<_> = (1..=16)
        .map(|seq| server.submit(wave_query(seq)).unwrap())
        .collect();
    plug.wait().expect("the plug recovers");
    let ref_pool = ThreadPool::single_group(threads);
    let ref_cfg = EngineConfig::new().with_threads(threads);
    for t in tickets {
        let seq = t.seq();
        match t.wait() {
            Ok(served) => {
                let direct = single_shot(
                    &g,
                    &pg,
                    &ref_cfg,
                    &ResilienceContext::new(),
                    &ref_pool,
                    wave_query(seq),
                )
                .expect("reference run is clean");
                assert_eq!(served, direct, "seq {seq} diverged from single-shot");
            }
            Err(ServeError::Expired { iteration }) => {
                assert!((9..11).contains(&seq), "only the storm expires, got {seq}");
                assert_eq!(iteration, 0);
            }
            Err(other) => panic!("seq {seq}: unexpected disposition {other}"),
        }
    }
    let snap = server.drain();
    assert_eq!(snap.completed, 1 + 16 - 2);
    assert_eq!((snap.expired, snap.failed), (2, 0));
    assert_eq!(snap.panics_absorbed, 1 + 1 + 3);
    assert_eq!(snap.retries, 1 + 1 + 3, "a pack panic spends attempt 0");
    assert_eq!(snap.degraded, 1, "seq 6");
    assert!(
        snap.packed_runs >= 1,
        "the wave queued behind the plug packs"
    );
    assert!(snap.packed_bfs_queries >= 1);
    snap.render()
}

#[test]
fn packs_with_bfs_members_fall_back_member_by_member() {
    for threads in [1, 2, 8] {
        let stats = packed_wave_at(threads);
        write_stats_artifact(&format!("packed-wave-{threads}"), &stats);
    }
}

fn write_stats_artifact(name: &str, rendering: &str) {
    if let Ok(dir) = std::env::var("GRAZELLE_SOAK_STATS_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create stats dir");
        std::fs::write(dir.join(format!("{name}.txt")), rendering).expect("write stats artifact");
    }
}

#[test]
fn soak_single_thread() {
    let stats = soak_at(1);
    write_stats_artifact("soak-1", &stats);
}

#[test]
fn soak_two_threads() {
    let stats = soak_at(2);
    write_stats_artifact("soak-2", &stats);
}

#[test]
fn soak_eight_threads() {
    let stats = soak_at(8);
    write_stats_artifact("soak-8", &stats);
}
