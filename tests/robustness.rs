//! Failure injection and hostile-input robustness.

use grazelle::core::config::EngineConfig;
use grazelle::core::engine::hybrid::run_program_on_pool;
use grazelle::core::engine::PreparedGraph;
use grazelle::core::frontier::Frontier;
use grazelle::core::program::{AggOp, GraphProgram};
use grazelle::core::properties::PropertyArray;
use grazelle::graph::edgelist::EdgeList;
use grazelle::graph::io;
use grazelle::prelude::*;
use grazelle_sched::pool::ThreadPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A program whose `apply` panics at one vertex after a few iterations.
struct PanicBomb {
    n: usize,
    vals: PropertyArray,
    acc: PropertyArray,
    applies: AtomicUsize,
    fuse: usize,
}

impl GraphProgram for PanicBomb {
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
        if self.applies.fetch_add(1, Ordering::Relaxed) == self.fuse {
            panic!("injected application fault");
        }
        false
    }
    fn uses_frontier(&self) -> bool {
        false
    }
}

#[test]
fn application_panic_propagates_and_pool_survives() {
    let el = EdgeList::from_pairs(32, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    let pool = ThreadPool::single_group(2);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(10);

    let bomb = PanicBomb {
        n: 32,
        vals: PropertyArray::new(32),
        acc: PropertyArray::new(32),
        applies: AtomicUsize::new(0),
        fuse: 40, // second iteration's vertex phase
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_program_on_pool(&pg, &bomb, &cfg, &pool);
    }));
    assert!(result.is_err(), "fault must surface, not hang");

    // The pool must remain usable for a healthy program afterwards.
    let healthy = PanicBomb {
        n: 32,
        vals: PropertyArray::new(32),
        acc: PropertyArray::new(32),
        applies: AtomicUsize::new(0),
        fuse: usize::MAX,
    };
    let stats = run_program_on_pool(&pg, &healthy, &cfg, &pool);
    assert_eq!(stats.iterations, 10);
}

#[test]
fn mismatched_program_and_graph_rejected() {
    let el = EdgeList::from_pairs(8, &[(0, 1)]).unwrap();
    let g = Graph::from_edgelist(&el).unwrap();
    let pg = PreparedGraph::new(&g);
    let wrong = PanicBomb {
        n: 4, // graph has 8 vertices
        vals: PropertyArray::new(4),
        acc: PropertyArray::new(4),
        applies: AtomicUsize::new(0),
        fuse: usize::MAX,
    };
    let cfg = EngineConfig::new().with_threads(1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        grazelle::core::engine::hybrid::run_program(&pg, &wrong, &cfg);
    }));
    assert!(result.is_err());
}

#[test]
fn sssp_root_out_of_range_rejected() {
    let result = std::panic::catch_unwind(|| grazelle_apps::Sssp::new(3, 3));
    assert!(result.is_err());
    let result = std::panic::catch_unwind(|| grazelle_apps::Bfs::new(3, 7));
    assert!(result.is_err());
}

#[test]
fn empty_and_degenerate_graphs_run_everywhere() {
    // Edgeless graph: every application degenerates gracefully.
    let el = EdgeList::new(5);
    let g = Graph::from_edgelist(&el).unwrap();
    let cfg = EngineConfig::new().with_threads(2);
    let ranks = grazelle_apps::pagerank::run(&g, &cfg, 3);
    assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let labels = grazelle_apps::cc::run(&g, &cfg);
    assert_eq!(labels, vec![0, 1, 2, 3, 4]);
    let parents = grazelle_apps::bfs::run(&g, &cfg, 2);
    assert_eq!(parents.iter().filter(|p| p.is_some()).count(), 1);

    // Single-vertex graph with a self-loop.
    let mut el = EdgeList::new(1);
    el.push(0, 0).unwrap();
    let g = Graph::from_edgelist(&el).unwrap();
    let ranks = grazelle_apps::pagerank::run(&g, &cfg, 5);
    assert!((ranks[0] - 1.0).abs() < 1e-12);
}

#[test]
fn frontier_all_and_dense_full_are_interchangeable() {
    let base = Dataset::CitPatents.build_scaled(-7);
    let pg = PreparedGraph::new(&base);
    let n = base.num_vertices();
    // A CC-like program with explicit Dense(full) initial frontier must
    // match the All frontier exactly.
    struct MinProg {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
        dense_init: bool,
    }
    impl GraphProgram for MinProg {
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
        fn apply(&self, v: u32) -> bool {
            let old = self.labels.get_f64(v as usize);
            let agg = self.acc.get_f64(v as usize);
            if agg < old {
                self.labels.set_f64(v as usize, agg);
                true
            } else {
                false
            }
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            if self.dense_init {
                let all: Vec<u32> = (0..self.n as u32).collect();
                Frontier::from_vertices(self.n, &all)
            } else {
                Frontier::all(self.n)
            }
        }
    }
    let run = |dense_init: bool| {
        let prog = MinProg {
            labels: PropertyArray::new(n),
            acc: PropertyArray::new(n),
            n,
            dense_init,
        };
        for v in 0..n {
            prog.labels.set_f64(v, v as f64);
        }
        let cfg = EngineConfig::new().with_threads(2);
        run_program_on_pool(&pg, &prog, &cfg, &ThreadPool::single_group(2));
        prog.labels.to_vec_f64()
    };
    assert_eq!(run(true), run(false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary graph decoding never panics on arbitrary bytes — it returns
    /// a structured error instead.
    #[test]
    fn prop_binary_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = io::read_binary(&bytes[..], &io::LoadOptions::default());
    }

    /// Ditto for text and Matrix Market parsing on arbitrary ASCII.
    #[test]
    fn prop_text_parsers_never_panic(s in "[ -~\n]{0,256}") {
        let opts = io::LoadOptions::default();
        let _ = io::read_text_edgelist(s.as_bytes(), &opts);
        let _ = io::read_matrix_market(s.as_bytes(), &opts);
    }

    /// Decoding a valid encoding prefixed/suffixed with junk fails cleanly
    /// or roundtrips — never UB, never panic.
    #[test]
    fn prop_binary_decode_tolerates_truncation(
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..20),
        cut in 0usize..200,
    ) {
        let el = EdgeList::from_pairs(16, &edges).unwrap();
        let bytes = io::encode_binary(&el);
        let cut = cut.min(bytes.len());
        let _ = io::read_binary(&bytes[..cut], &io::LoadOptions::default());
    }
}
