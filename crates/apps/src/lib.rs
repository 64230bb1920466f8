//! Graph applications on Grazelle.
//!
//! The paper evaluates three applications chosen for their diverse memory
//! and frontier behavior (§6):
//!
//! * [`pagerank`] — no frontier, summation aggregation: every vertex is
//!   written every iteration, so it measures peak edge-processing
//!   throughput and benefits most from scheduler awareness.
//! * [`cc`] — Connected Components: frontier-driven label propagation with
//!   minimization (which can skip no-op writes); includes the paper's
//!   write-intense variant (Figure 8a).
//! * [`bfs`] — Breadth-First Search: completely frontier-driven, one write
//!   per vertex ever, the stress test for frontier handling.
//!
//! Two more are provided as the extensions the paper describes but omits
//! for space (§6, "We omit other applications…"):
//!
//! * [`sssp`] — Single-Source Shortest-Paths: "uses edge weights and
//!   initializes the frontier to contain just a single vertex \[but\]
//!   otherwise behaves the same way as Connected Components".
//! * [`reach`] — reachability (BFS without parent recording), a minimal
//!   frontier-only program useful for testing and as API documentation.

//! * [`wpagerank`] — weighted PageRank, the Collaborative-Filtering access
//!   pattern ("uses edge weights and supplies a different mathematical
//!   formula … but does not change the access pattern").
//! * [`kcore`] — k-core decomposition, a beyond-the-paper application with
//!   a moving-threshold peeling structure.
//! * [`multi`] — bit-parallel multi-source reachability and BFS (MS-BFS
//!   style) over a base plus an insert overlay, the packing kernel behind
//!   the serving layer's batch formation.
//! * [`triangle`] — triangle counting via the masked-SpMV intersect kernel
//!   (DESIGN.md §16), a single-superstep computation driven through every
//!   engine path: pull, push, compacted, and resilient.
//! * [`labelprop`] — deterministic label-propagation community detection:
//!   a monotone Max lattice ascent over packed integer keys with per-hop
//!   score decay ([`grazelle_core::program::EdgeFunc::ValueHopDecay`]).

pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod labelprop;
pub mod multi;
pub mod pagerank;
pub mod reach;
pub mod sssp;
pub mod triangle;
pub mod wpagerank;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use kcore::KCore;
pub use labelprop::LabelProp;
pub use multi::{multi_source_reach, LaneReply, MultiReach, MAX_LANES};
pub use pagerank::PageRank;
pub use reach::Reachability;
pub use sssp::Sssp;
pub use triangle::TriangleCounts;
pub use wpagerank::WeightedPageRank;
