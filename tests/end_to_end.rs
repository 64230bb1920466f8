//! End-to-end integration: generation → serialization → preparation →
//! every application on the Grazelle engine, checked against references.

use grazelle::core::config::{EngineConfig, PullMode};
use grazelle::core::engine::hybrid::run_program_on_pool;
use grazelle::core::engine::PreparedGraph;
use grazelle::graph::edgelist::EdgeList;
use grazelle::graph::io;
use grazelle::prelude::*;
use grazelle_apps::{bfs, cc, pagerank, sssp};
use grazelle_sched::pool::ThreadPool;

fn symmetric_standin(ds: Dataset) -> Graph {
    let base = ds.build_scaled(-5);
    let mut el = EdgeList::with_capacity(base.num_vertices(), base.num_edges() * 2);
    for v in 0..base.num_vertices() as u32 {
        for &d in base.out_neighbors(v) {
            el.push(v, d).unwrap();
        }
    }
    el.symmetrize();
    el.sort_and_dedup();
    Graph::from_edgelist(&el).unwrap()
}

#[test]
fn pipeline_generate_serialize_reload_run() {
    // Generate.
    let g = Dataset::CitPatents.build_scaled(-5);
    // Serialize to the binary format and reload.
    let mut el = EdgeList::with_capacity(g.num_vertices(), g.num_edges());
    for v in 0..g.num_vertices() as u32 {
        for &d in g.out_neighbors(v) {
            el.push(v, d).unwrap();
        }
    }
    let bytes = io::encode_binary(&el);
    let (el, _) = io::read_binary(&bytes[..], &io::LoadOptions::default()).unwrap();
    let reloaded = Graph::from_edgelist(&el).unwrap();
    assert_eq!(reloaded.num_edges(), g.num_edges());
    // PageRank on original and reloaded graphs must agree exactly.
    let cfg = EngineConfig::new().with_threads(2);
    let a = pagerank::run(&g, &cfg, 5);
    let b = pagerank::run(&reloaded, &cfg, 5);
    assert_eq!(a, b);
}

#[test]
fn all_applications_on_all_datasets() {
    let cfg = EngineConfig::new().with_threads(3);
    for ds in Dataset::all() {
        let g = symmetric_standin(ds);
        let pg = PreparedGraph::new(&g);
        let pool = ThreadPool::new(cfg.threads, cfg.groups);

        // PageRank: rank sum 1, matches reference.
        let (ranks, _) = pagerank::run_prepared(&pg, &g, &cfg, &pool, 5);
        let want = pagerank::reference(&g, pagerank::DAMPING, 5);
        for (i, (a, b)) in ranks.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "{ds:?} PR v{i}");
        }
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{ds:?} sum");

        // CC: matches union-find.
        let (labels, _) = cc::run_prepared(&pg, &cfg, &pool, false);
        assert_eq!(labels, cc::reference_undirected(&g), "{ds:?} CC");

        // BFS: depths match reference.
        let (parents, _) = bfs::run_prepared(&pg, &cfg, &pool, 0);
        let depths = bfs::validate_parents(&g, 0, &parents);
        assert_eq!(depths, bfs::reference_depths(&g, 0), "{ds:?} BFS");
    }
}

#[test]
fn weighted_pipeline_sssp() {
    // A weighted ring with shortcuts: text-format roundtrip, then SSSP.
    let mut el = EdgeList::new(50);
    for v in 0..50u32 {
        el.push_weighted(v, (v + 1) % 50, 1.0).unwrap();
    }
    el.push_weighted(0, 25, 3.5).unwrap();
    let mut buf = Vec::new();
    io::write_text_edgelist(&el, &mut buf).unwrap();
    let (reloaded, _) = io::read_text_edgelist(&buf[..], &io::LoadOptions::default()).unwrap();
    let g = Graph::from_edgelist(&reloaded).unwrap();
    let cfg = EngineConfig::new().with_threads(2);
    let got = sssp::run(&g, &cfg, 0);
    let want = sssp::reference(&g, 0);
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            _ => panic!("{a:?} vs {b:?}"),
        }
    }
    // Distance to 25 goes through the shortcut.
    assert_eq!(got[25], Some(3.5));
}

#[test]
fn frontier_driven_program_traces_engine_switches() {
    // On a path graph BFS shrinks the frontier to one vertex per level:
    // after the first levels the driver must use the push engine.
    const N: usize = 4000;
    let mut el = EdgeList::new(N);
    for v in 0..(N - 1) as u32 {
        el.push(v, v + 1).unwrap();
        el.push(v + 1, v).unwrap();
    }
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    let pool = ThreadPool::single_group(2);
    // A path needs one iteration per level — raise the safety cap.
    let cfg = EngineConfig::new()
        .with_threads(2)
        .with_max_iterations(2 * N);
    let prog = grazelle_apps::Bfs::new(N, 0);
    let stats = run_program_on_pool(&pg, &prog, &cfg, &pool);
    assert!(stats.push_iterations > stats.pull_iterations);
    assert_eq!(prog.visited_count(), N);
}

#[test]
fn pull_modes_agree_on_every_app_single_threaded() {
    let g = symmetric_standin(Dataset::LiveJournal);
    let modes = [
        PullMode::SchedulerAware,
        PullMode::Traditional,
        PullMode::TraditionalNoAtomic, // 1 thread: race-free
    ];
    let results: Vec<_> = modes
        .iter()
        .map(|&m| {
            let cfg = EngineConfig::new().with_threads(1).with_pull_mode(m);
            let pr = pagerank::run(&g, &cfg, 4);
            let cc = cc::run(&g, &cfg);
            let bfs = bfs::run(&g, &cfg, 0);
            (pr, cc, bfs)
        })
        .collect();
    for (m, r) in modes.iter().zip(&results).skip(1) {
        // PageRank: the interfaces group floating-point sums differently
        // (chunk partials vs per-vector accumulation), so compare within
        // rounding tolerance; CC labels and BFS parents are integer-valued
        // minima and must match exactly.
        for (v, (a, b)) in results[0].0.iter().zip(&r.0).enumerate() {
            assert!((a - b).abs() < 1e-12, "{m:?} PR v{v}: {a} vs {b}");
        }
        assert_eq!(results[0].1, r.1, "{m:?} CC");
        assert_eq!(results[0].2, r.2, "{m:?} BFS");
    }
}
