//! The Grazelle framework core (paper §5).
//!
//! Grazelle is a hybrid graph-processing framework: it contains a pull-based
//! engine (Edge-Pull) parallelized with the scheduler-aware interface and
//! vectorized with Vector-Sparse, a push-based engine (Edge-Push) folding
//! through a sparse accumulator, and a driver that selects between them each
//! iteration based on frontier occupancy. Execution follows the synchronous
//! two-phase model: an **Edge** phase (message exchange) and a **Vertex**
//! phase (local update), each terminated by a thread barrier.
//!
//! Module map:
//!
//! * [`properties`] — 64-bit vertex property arrays with both the relaxed
//!   (plain-store) access the scheduler-aware engine needs and the
//!   compare-and-swap combinators the traditional/push paths need.
//! * [`frontier`] — the dense bit-mask frontier ("1 billion vertices would
//!   only require 125 MB", searched with `tzcnt`-style word scans).
//! * [`program`] — the GAS / edgeMap-vertexMap-style programming model.
//! * [`spmv`] — the masked generalized-SpMV core: the [`spmv::EdgeKernel`]
//!   semiring abstraction every engine's Edge-phase inner loop runs over
//!   (DESIGN.md §16).
//! * [`direction`] — the per-iteration pull/push and compaction cost model
//!   the driver consults once per superstep.
//! * [`engine`] — Edge-Pull, Edge-Push, Vertex phases and the driver: one
//!   superstep loop, with fault containment as an optional argument.
//! * [`build`] — the profiled load → CSR/CSC → Vector-Sparse build driver
//!   (per-phase timings on any thread count, ISSUE 5).
//! * [`config`] — engine configuration (threads, groups, scheduling
//!   granularity, pull interface mode, SIMD level).
//! * [`stats`] — per-phase execution statistics, including the Figure 5b
//!   work/merge/write/idle decomposition.
//! * [`trace`] — the flight recorder: per-superstep [`IterationRecord`]s
//!   in a preallocated ring buffer, plus the span-clock/deadline helpers
//!   that own every engine timing syscall (ISSUE 3).
//! * [`checkpoint`] — checksummed checkpoint/restore of program state at
//!   iteration boundaries.
//! * [`faults`] — the deterministic execution-fault injector driving the
//!   resilience harness (ISSUE 2).

pub mod build;
pub mod checkpoint;
pub mod config;
pub mod direction;
pub mod engine;
pub mod faults;
pub mod frontier;
pub mod incremental;
pub mod program;
pub mod properties;
pub mod spmv;
pub mod stats;
pub mod trace;

pub use build::{prepare_profiled, prepare_profiled_with_cutover};
pub use checkpoint::{Checkpoint, FrontierSnapshot};
pub use config::{EngineConfig, Granularity, PullMode, ResilienceConfig};
pub use direction::{decide, Decision};
pub use engine::hybrid::{run_program, run_program_overlay_on_pool, EngineKind, ExecutionStats};
pub use engine::pull::{active_vector_list, edge_pull};
pub use engine::resilient::{
    run_resilient, run_resilient_on_pool, run_resilient_overlay_on_pool, EngineError,
    ResilienceContext, ResilientRun, RunOutcome,
};
pub use faults::{ExecFaultPlan, ExecInjector, FaultPlan, ServeFaultPlan, ServeInjector};
pub use frontier::{DenseBitmap, Frontier};
pub use grazelle_sched::cancel::CancelFlag;
pub use grazelle_sched::PAR_BUILD_CUTOVER_EDGES;
pub use incremental::{ApplyReport, ComponentMemo, GraphView, VersionedGraph};
pub use program::{AggOp, EdgeFunc, GraphProgram, HOP_DECAY};
pub use properties::PropertyArray;
pub use spmv::{
    program_kernel, scatter_combine, sorted_intersect_count, EdgeKernel, IntersectKernel,
    SemiringKernel,
};
pub use stats::BuildProfile;
pub use trace::{Deadline, FlightRecorder, IterationRecord, SpanClock};
