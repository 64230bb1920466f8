//! # Grazelle (Rust reproduction)
//!
//! A from-scratch Rust reproduction of *Making Pull-Based Graph Processing
//! Performant* (Grossman, Litz, Kozyrakis — PPoPP 2018). This facade crate
//! re-exports the whole workspace:
//!
//! * [`graph`] — graph substrate (CSR/CSC, generators, I/O).
//! * [`vsparse`] — the Vector-Sparse format and SIMD kernels (paper §4).
//! * [`sched`] — thread pool, barriers, and both the traditional and the
//!   scheduler-aware parallel-loop interfaces (paper §3).
//! * [`core`] — the hybrid engine: Edge-Pull, Edge-Push, Vertex phases,
//!   frontier, and the GAS-style programming model (paper §5).
//! * [`apps`] — PageRank, Connected Components, BFS, SSSP.
//! * [`baselines`] — Ligra-like, Polymer-like, GraphMat-like and
//!   X-Stream-like engine patterns used by the paper's comparison figures.
//!
//! ## Quickstart
//!
//! ```
//! use grazelle::prelude::*;
//!
//! // A tiny synthetic scale-free graph.
//! let graph = Dataset::LiveJournal.build_scaled(-6);
//! // Run 10 PageRank iterations on the hybrid engine.
//! let config = EngineConfig::default();
//! let ranks = grazelle::apps::pagerank::run(&graph, &config, 10);
//! assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6);
//! ```
//!
//! ## Updating the graph
//!
//! Batched inserts/deletes go through a versioned delta overlay
//! (DESIGN.md §15). Inserts wait in a small overlay graph that the engine
//! folds in after each base Edge phase; a delete merges at once:
//!
//! ```
//! use grazelle::prelude::*;
//! use grazelle::apps::Bfs;
//! use grazelle::core::engine::hybrid::run_program_overlay_on_pool;
//! use grazelle::sched::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(2, 1);
//! let mut vg = VersionedGraph::from_graph(Dataset::LiveJournal.build_scaled(-6));
//! let cfg = EngineConfig::default();
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert(7, 93).insert(93, 7);
//! let report = vg.apply_batch(&batch, &pool).unwrap();
//! assert!(!report.merged && vg.delta_active());
//!
//! let view = vg.view(&pool);
//! let bfs = Bfs::new(view.num_vertices(), 7);
//! run_program_overlay_on_pool(view.pg, view.delta_pg, &bfs, &cfg, &pool);
//! assert_eq!(bfs.parents()[93], Some(7));
//! ```

pub use grazelle_apps as apps;
pub use grazelle_baselines as baselines;
pub use grazelle_core as core;
pub use grazelle_graph as graph;
pub use grazelle_sched as sched;
pub use grazelle_vsparse as vsparse;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use grazelle_core::config::EngineConfig;
    pub use grazelle_core::frontier::Frontier;
    pub use grazelle_core::incremental::VersionedGraph;
    pub use grazelle_graph::delta::UpdateBatch;
    pub use grazelle_graph::gen::datasets::Dataset;
    pub use grazelle_graph::prelude::*;
    pub use grazelle_vsparse::{ActiveVectorList, VectorSparse, Vsd, Vss};
}
