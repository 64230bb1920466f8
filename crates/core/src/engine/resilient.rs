//! The fault-tolerant run loop (ISSUE 2, DESIGN.md §9).
//!
//! [`run_resilient`] mirrors the hybrid driver's iteration structure —
//! Edge phase → barrier → Vertex phase → barrier — and layers four
//! containment mechanisms on top:
//!
//! * **Watchdog** — every superstep runs against a cooperative deadline
//!   ([`ResilienceConfig::watchdog`]); a blown deadline ends the run with
//!   [`EngineError::Stalled`] instead of hanging the caller.
//! * **Chunk retry / degrade** — a worker panic during Edge-Pull is
//!   contained to its chunk and retried on the driver thread
//!   ([`edge_pull_resilient`]); when the retry budget runs out the phase is
//!   redone on the sequential scalar path and the iteration is counted in
//!   [`Profiler::degraded_iterations`](crate::stats::Profiler).
//! * **Divergence guard** — after each Vertex phase the program's
//!   persistent arrays are scanned for poison values (fused into the
//!   snapshot copy); on detection the iteration is
//!   rolled back to the in-memory last-good snapshot and re-run once. A
//!   second consecutive divergence stops the run at the last finite
//!   iterate with [`RunOutcome::DivergedRecovered`].
//! * **Checkpoint/restore** — at a configured cadence the program state is
//!   written (checksummed, atomically) to [`ResilienceContext::checkpoint_path`];
//!   a later run finding a valid checkpoint there resumes from it, and —
//!   because the engine is deterministic given fixed chunk geometry —
//!   reproduces the uninterrupted run bit-for-bit when resumed at the
//!   same thread/group count (chunk geometry fixes the float combine
//!   order; a different geometry still converges but may differ in the
//!   last bits).
//!
//! Fault *injection* (tests, benches) arrives through
//! [`ResilienceContext::injector`]; a `None` injector makes every
//! mechanism passive and nearly free.

use crate::checkpoint::{Checkpoint, FrontierSnapshot};
use crate::config::EngineConfig;
use crate::engine::hybrid::{EngineKind, ExecutionStats};
use crate::engine::pull::{
    edge_pull_resilient, scalar_pull_pass, EdgeSchedulers, MergeEntry, PullStatus,
};
use crate::engine::push::{edge_push, edge_push_with_mode};
use crate::engine::vertex::{reset_accumulators, vertex_phase};
use crate::engine::PreparedGraph;
use crate::faults::ExecInjector;
use crate::frontier::{DenseBitmap, Frontier};
use crate::program::GraphProgram;
use crate::spmv::spa::SpaScratch;
use crate::spmv::{program_kernel, EdgeKernel};
use crate::stats::Profiler;
use crate::trace::{Deadline, FlightRecorder, IterationRecord, SpanClock};
use grazelle_graph::types::GraphError;
use grazelle_sched::cancel::CancelFlag;
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::build::Vss;
use grazelle_vsparse::simd::Kernels;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::Ordering;

/// Typed failure of a resilient run. Every injected fault either recovers
/// or surfaces as one of these — never a hang, never an abort.
#[derive(Debug)]
pub enum EngineError {
    /// A superstep exceeded the watchdog deadline.
    Stalled {
        /// The iteration whose superstep blew the deadline.
        iteration: usize,
    },
    /// The run observed [`ResilienceContext::cancel`] at an iteration
    /// boundary and stopped cooperatively. Program arrays hold the state
    /// of the last *completed* iteration — nothing is torn — and the pool
    /// remains fully usable; the serving layer maps this to its `Expired`
    /// disposition.
    Cancelled {
        /// The iteration that was about to run when cancellation was
        /// observed.
        iteration: usize,
    },
    /// Checkpoint machinery failed (save I/O error, or a restore shape
    /// mismatch during a divergence rollback).
    Checkpoint(GraphError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Stalled { iteration } => {
                write!(f, "superstep {iteration} exceeded the watchdog deadline")
            }
            EngineError::Cancelled { iteration } => {
                write!(
                    f,
                    "run cancelled cooperatively before iteration {iteration}"
                )
            }
            EngineError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Checkpoint(e) => Some(e),
            EngineError::Stalled { .. } | EngineError::Cancelled { .. } => None,
        }
    }
}

/// Non-`Copy` resilience inputs, passed alongside the (`Copy`)
/// [`EngineConfig`]: where checkpoints live and which faults to inject.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResilienceContext<'a> {
    /// Checkpoint file. `None` disables checkpointing and restore even when
    /// [`ResilienceConfig::checkpoint_every`](crate::config::ResilienceConfig)
    /// is non-zero. A valid checkpoint already at this path resumes the run.
    pub checkpoint_path: Option<&'a Path>,
    /// Deterministic execution-fault injector; `None` injects nothing.
    pub injector: Option<&'a ExecInjector>,
    /// Cooperative cancellation: the run loop polls this flag at every
    /// iteration boundary and returns [`EngineError::Cancelled`] when it is
    /// set, leaving program state at the last completed iteration. `None`
    /// makes the run uncancellable (the historical behaviour).
    pub cancel: Option<&'a CancelFlag>,
}

impl<'a> ResilienceContext<'a> {
    /// No checkpointing, no injection.
    pub fn new() -> Self {
        ResilienceContext::default()
    }

    /// Builder: checkpoint location.
    pub fn with_checkpoint_path(mut self, path: &'a Path) -> Self {
        self.checkpoint_path = Some(path);
        self
    }

    /// Builder: fault injector.
    pub fn with_injector(mut self, injector: &'a ExecInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Builder: cooperative cancellation flag.
    pub fn with_cancel(mut self, cancel: &'a CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// How much the resilience layer had to do during a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No corrective action of any kind — what every clean-input run must
    /// report (EXPERIMENTS.md asserts this).
    Clean,
    /// The run completed correctly but the layer intervened: chunk retries,
    /// a degraded iteration, a divergence rollback that then re-ran
    /// successfully, or a checkpoint resume.
    Recovered,
    /// The divergence guard fired on consecutive attempts of the same
    /// iteration; the run stopped early at the last finite iterate.
    DivergedRecovered,
}

/// Result of a completed (non-erroring) resilient run.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The same statistics the hybrid driver reports. `iterations` counts
    /// completed iterations in absolute terms — it includes iterations
    /// skipped by a checkpoint resume; `engine_trace` records every Edge
    /// phase *executed* by this process, including rollback re-runs.
    pub stats: ExecutionStats,
    /// What the resilience layer had to do.
    pub outcome: RunOutcome,
    /// `Some(k)` when the run resumed from a checkpoint taken after `k`
    /// completed iterations.
    pub resumed_from: Option<usize>,
}

/// Reference implementation of the divergence predicate: the externally
/// visible iterate (`edge_values`) must stay finite; the remaining
/// *persistent* checkpoint arrays are scanned for NaN, because Min/Max
/// accumulators legitimately hold ±∞ identities. The transient accumulator
/// array is exempt unless it doubles as the iterate: poison there either
/// propagates into an applied array during the Vertex phase (caught here)
/// or is erased by the next `reset_accumulators` (harmless by
/// construction). The run loop uses the equivalent fused copy-and-scan in
/// [`RollbackSlot::capture_arrays_and_scan`]; tests assert the two agree.
#[cfg(test)]
fn diverged<P: GraphProgram>(prog: &P) -> bool {
    if prog
        .edge_values()
        .as_f64_slice()
        .iter()
        .any(|v| !v.is_finite())
    {
        return true;
    }
    let ev = prog.edge_values().as_f64_slice().as_ptr();
    let acc = prog.accumulators().as_f64_slice().as_ptr();
    prog.checkpoint_arrays().iter().any(|a| {
        let s = a.as_f64_slice();
        !std::ptr::eq(s.as_ptr(), acc)
            && !std::ptr::eq(s.as_ptr(), ev)
            && s.iter().any(|v| v.is_nan())
    })
}

/// Reusable buffers for the divergence guard's last-good snapshot.
///
/// The guard needs a copy of the complete program state every iteration;
/// allocating one per iteration (as `Checkpoint::capture` does) would
/// dominate clean-run cost, breaking the ≤3% overhead budget. Instead two
/// slots double-buffer the state, and the post-iteration poison scan is
/// fused into the copy so each array is swept exactly once per iteration
/// with zero steady-state allocation.
struct RollbackSlot {
    /// Raw bits per checkpoint array, in `checkpoint_arrays` order.
    arrays: Vec<Vec<u64>>,
    /// `edge_values` bits when that array is *outside* the program's
    /// checkpoint set (empty otherwise — the positional copy in `arrays`
    /// already covers it). Captured unconditionally so a rollback can
    /// always repair a poisoned live iterate, whatever the program
    /// chose to checkpoint.
    edge_values: Vec<u64>,
    /// Frontier the snapshotted state re-enters the loop with.
    frontier: FrontierSnapshot,
}

impl RollbackSlot {
    /// Allocates a slot holding the current program state (the only
    /// eagerly allocating snapshot; `empty` + the first fused capture
    /// cover the scratch side).
    fn capture<P: GraphProgram>(prog: &P, frontier: &Frontier) -> Self {
        let mut slot = RollbackSlot::empty();
        let _ = slot.capture_arrays_and_scan(prog);
        slot.set_frontier(frontier);
        slot
    }

    /// A shell with no buffers; the first fused capture sizes it.
    fn empty() -> Self {
        RollbackSlot {
            arrays: Vec::new(),
            edge_values: Vec::new(),
            frontier: FrontierSnapshot::All { len: 0 },
        }
    }

    /// Fused snapshot + poison scan: copies every checkpoint array into
    /// this slot's buffers while checking for divergence — non-finite in
    /// `edge_values`, NaN anywhere else (Min/Max identities are ±∞). The
    /// per-array loops carry no early exit (the copy must complete
    /// regardless), which keeps them straight-line and vectorizable.
    ///
    /// The transient accumulator array is neither copied nor scanned: the
    /// run loop calls `reset_accumulators` at the top of every iteration,
    /// so a rolled-back re-run never reads its previous contents, and
    /// accumulator poison either propagates into a persistent array during
    /// the Vertex phase (caught here) or is erased by that reset
    /// (harmless). It loses the exemption when it doubles as the iterate.
    ///
    /// Returns `true` when the state is poisoned; the slot then holds the
    /// poisoned copy and must not be promoted to last-good.
    fn capture_arrays_and_scan<P: GraphProgram>(&mut self, prog: &P) -> bool {
        let arrays = prog.checkpoint_arrays();
        let ev = prog.edge_values().as_f64_slice().as_ptr();
        let acc = prog.accumulators().as_f64_slice().as_ptr();
        if self.arrays.len() != arrays.len() {
            self.arrays = vec![Vec::new(); arrays.len()];
        }
        let mut bad = false;
        let mut saw_edge_values = false;
        for (dst, src) in self.arrays.iter_mut().zip(&arrays) {
            let s = src.as_f64_slice();
            let finite_required = std::ptr::eq(s.as_ptr(), ev);
            saw_edge_values |= finite_required;
            let mut arr_bad = false;
            if std::ptr::eq(s.as_ptr(), acc) {
                // Never copied: an empty buffer marks "not captured" for
                // `restore_into`.
                dst.clear();
                if finite_required {
                    arr_bad = s.iter().fold(false, |b, &v| b | !v.is_finite());
                }
            } else {
                dst.resize(s.len(), 0);
                if finite_required {
                    for (d, &v) in dst.iter_mut().zip(s) {
                        arr_bad |= !v.is_finite();
                        *d = v.to_bits();
                    }
                } else {
                    for (d, &v) in dst.iter_mut().zip(s) {
                        arr_bad |= v.is_nan();
                        *d = v.to_bits();
                    }
                }
            }
            bad |= arr_bad;
        }
        if !saw_edge_values {
            // `edge_values` is outside the checkpoint set — capture and
            // scan it here anyway (same fused copy), so `restore_into` can
            // repair a poisoned iterate instead of rolling back a state
            // that is still poisoned.
            let s = prog.edge_values().as_f64_slice();
            self.edge_values.resize(s.len(), 0);
            for (d, &v) in self.edge_values.iter_mut().zip(s) {
                bad |= !v.is_finite();
                *d = v.to_bits();
            }
        } else {
            self.edge_values.clear();
        }
        bad
    }

    /// Records the post-update frontier the snapshotted state re-enters
    /// the loop with, reusing the dense words buffer when shapes match.
    fn set_frontier(&mut self, frontier: &Frontier) {
        match (&mut self.frontier, frontier) {
            (FrontierSnapshot::Dense { len, words }, Frontier::Dense(bm))
                if words.len() == bm.words().len() =>
            {
                *len = bm.len();
                for (w, cell) in words.iter_mut().zip(bm.words()) {
                    // ATOMIC: relaxed-cell — frontier snapshot between phases
                    *w = cell.load(Ordering::Relaxed);
                }
            }
            _ => self.frontier = FrontierSnapshot::capture(frontier),
        }
    }

    /// Writes the snapshot back into the live arrays and returns the
    /// frontier it was taken with. Rollback-only path; lengths match by
    /// construction (both sides come from the same program's
    /// `checkpoint_arrays`). Scan-only arrays (empty buffers — the
    /// accumulators) are skipped: `reset_accumulators` rebuilds them
    /// before the re-run reads anything.
    fn restore_into<P: GraphProgram>(&self, prog: &P) -> Frontier {
        for (bits, target) in self.arrays.iter().zip(&prog.checkpoint_arrays()) {
            if bits.len() == target.len() {
                target.load_u64(bits);
            }
        }
        let ev = prog.edge_values();
        if self.edge_values.len() == ev.len() {
            ev.load_u64(&self.edge_values);
        }
        self.frontier.restore()
    }
}

/// Runs `prog` to completion with the full containment layer. See the
/// module docs for semantics; resilience knobs come from
/// `cfg.resilience`, checkpoint location and fault injection from `rctx`.
/// Sequential redo half of the delta phase's panic containment: combines
/// every frontier-active delta edge into the accumulators, single-threaded,
/// with the same per-edge semantics as `edge_push` (converged destinations
/// skipped, operator-specific synchronized combine — the atomics are
/// uncontended here but keep the exact update path).
fn sequential_delta_push<K: EdgeKernel>(vss: &Vss, kernel: &K, frontier: &Frontier) {
    let acc = kernel.accumulators();
    let conv = kernel.converged();
    let op = kernel.op();
    let weights = vss.weight_vectors();
    for src in 0..vss.num_vertices() as u32 {
        if !frontier.contains(src) {
            continue;
        }
        for vi in vss.vector_range(src) {
            let ev = &vss.vectors()[vi];
            for lane in 0..4 {
                let Some(dst) = ev.neighbor(lane) else {
                    continue;
                };
                let dst = dst as u32;
                if conv.is_some_and(|c| c.contains(dst)) {
                    continue;
                }
                let w = weights.map_or(0.0, |ws| ws[vi][lane]);
                let msg = kernel.message(src, dst, w);
                // DISJOINT: sequential-merge — degrade-path redo, single-threaded
                acc.fetch_combine_f64(dst as usize, msg, |a, b| op.combine(a, b));
            }
        }
    }
}

pub fn run_resilient<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
) -> Result<ResilientRun, EngineError> {
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_resilient_on_pool(pg, prog, cfg, rctx, &pool)
}

/// [`run_resilient`] on a caller-provided thread pool — the entry point
/// benches use so pool construction does not pollute the overhead
/// comparison against `run_program_on_pool`.
pub fn run_resilient_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
) -> Result<ResilientRun, EngineError> {
    run_resilient_overlay_on_pool(pg, None, prog, cfg, rctx, pool)
}

/// [`run_resilient_on_pool`] over a versioned graph: `delta` is the
/// prepared overlay of pending edge inserts (same vertex set as `pg`).
///
/// Mirrors `run_program_overlay_on_pool`: after the base Edge phase, the
/// delta edges fold into the accumulators with a combining Edge-Push pass
/// over the delta's VSS — strictly second, because the scheduler-aware pull
/// direct-stores interior destinations. The delta pass keeps the resilient
/// containment contract: a panicked delta push discards the whole Edge
/// phase and recomputes it sequentially (base scalar pull + sequential
/// delta push), exactly like the base push's own recovery.
pub fn run_resilient_overlay_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
) -> Result<ResilientRun, EngineError> {
    assert_eq!(
        prog.num_vertices(),
        pg.num_vertices,
        "program arrays must match the graph"
    );
    if let Some(d) = delta {
        assert_eq!(
            d.num_vertices, pg.num_vertices,
            "delta must cover the base vertex set"
        );
    }
    let delta = delta.filter(|d| d.num_edges > 0);
    // The Edge-Push panic fallback calls `scalar_pull_pass` directly, whose
    // unsafe vertex-indexed reads rely on these bounds — enforce them here
    // (as `edge_pull_resilient` does on the pull path) so every path into
    // that pass is covered.
    assert!(
        prog.edge_values().len() >= pg.vsd.num_vertices(),
        "edge_values must cover every vertex"
    );
    assert!(
        prog.accumulators().len() >= pg.vsd.num_vertices(),
        "accumulators must cover every vertex"
    );
    let res = cfg.resilience;
    let scheds = EdgeSchedulers::new(cfg, &pg.vsd, pool);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
    // SPA bucket storage, reused across supersteps (DESIGN.md §17). Safe
    // across panic containment: workers clear their buckets at scatter
    // start, so a discarded phase cannot leak stale entries into the redo.
    let mut spa_scratch = SpaScratch::new();
    let kernels = Kernels::with_level(cfg.simd);
    // One masked-SpMV kernel per run, shared by every Edge-phase path —
    // parallel pull/push and their sequential degrade redos alike
    // (DESIGN.md §16).
    let kern = program_kernel(prog, &pg.vsd, kernels);
    // Out-degree table for the direction model; built lazily on the first
    // iteration that computes a density.
    let mut out_degrees: Option<Vec<u32>> = None;
    #[cfg(feature = "invariant-checks")]
    let prof = Profiler::with_tracker();
    #[cfg(not(feature = "invariant-checks"))]
    let prof = Profiler::new();

    let mut frontier = prog.initial_frontier();
    let mut start_iter = 0usize;
    let mut resumed_from = None;
    if let Some(path) = rctx.checkpoint_path {
        if path.exists() {
            // A corrupt or mismatched checkpoint is not fatal: the format
            // layer rejects it (checksum/shape) and the run starts fresh.
            if let Ok(ck) = Checkpoint::load(path) {
                if ck.restore_into(&prog.checkpoint_arrays()).is_ok() {
                    start_iter = ck.iteration;
                    frontier = ck.frontier.restore();
                    resumed_from = Some(ck.iteration);
                    prof.checkpoint_restores.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                }
            }
        }
    }

    let mut pull_iterations = 0usize;
    let mut push_iterations = 0usize;
    let mut engine_trace = Vec::new();
    let mut iterations = start_iter;
    let mut rollbacks_this_iter = 0u32;
    let mut diverged_stop = false;
    let mut program_stopped = false;
    // Divergence-guard state: a double-buffered last-good snapshot.
    // `last_good` always holds the state at the start of the iteration
    // being run; `scratch` receives the fused copy-and-scan of each
    // iteration's result and the two swap when the scan comes back clean.
    let mut last_good = res
        .divergence_guard
        .then(|| RollbackSlot::capture(prog, &frontier));
    let mut scratch = res.divergence_guard.then(RollbackSlot::empty);
    let mut recorder = if cfg.trace {
        FlightRecorder::new()
    } else {
        FlightRecorder::disabled()
    };
    let start = SpanClock::start();

    let mut iter = start_iter;
    while iter < cfg.max_iterations {
        // Cooperative cancellation is observed only here, at the iteration
        // boundary: every array holds the state of the last completed
        // iteration, so a cancelled query leaves nothing torn and the pool
        // needs no cleanup.
        if rctx.cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(EngineError::Cancelled { iteration: iter });
        }
        let deadline = res.watchdog.map(Deadline::after);
        if let Some(inj) = rctx.injector {
            inj.set_iteration(iter);
        }
        prog.pre_iteration(iter);
        // One density computation per superstep, shared by engine
        // selection, the frontier-aware pull gate, and the trace (same
        // discipline as the hybrid driver): `None` when selection
        // short-circuits to pull (frontier-less programs, all-active).
        let density = (prog.uses_frontier() && !frontier.is_all()).then(|| frontier.density());
        // Disabled-recorder cost per executed superstep: this one branch
        // (and the matching one at record-push time).
        let snap_before = recorder.is_enabled().then(|| prof.snapshot());
        let sparse_repr = matches!(frontier, Frontier::Sparse { .. });
        reset_accumulators(prog, pool, &prof);

        // Direction choice (DESIGN.md §16): one shared [`Decision`] feeds
        // engine selection, the compaction gate, and the trace — the same
        // model as the hybrid driver.
        if density.is_some()
            && cfg.direction_policy == crate::config::DirectionPolicy::CostModel
            && out_degrees.is_none()
        {
            out_degrees = Some(crate::direction::out_degree_table(&pg.vss));
        }
        let converged = prog.converged().map_or(0, |c| c.count());
        let decision = crate::direction::decide(
            cfg,
            density,
            &frontier,
            out_degrees.as_deref(),
            pg.num_edges,
            pg.num_vertices,
            converged,
            // This driver always runs the dense Vertex phase: its rollback
            // snapshot and chunk retry assume a full sweep.
            false,
        );
        let use_pull = decision.use_pull;
        // Threads that actually executed the Edge phase (1 when it
        // degraded to the sequential scalar redo) — recorded per superstep.
        let mut edge_parallelism = pool.num_threads() as u32;
        // Active-vector count when the frontier-aware compacted pull ran.
        let mut compacted: Option<u64> = None;
        if use_pull {
            // Frontier-aware pull (DESIGN.md §11), same gate as the hybrid
            // driver; the compacted phase keeps the dense resilient path's
            // containment (chunk retry, watchdog, sequential degrade).
            let active = (cfg.frontier_pull
                && cfg.pull_mode == crate::config::PullMode::SchedulerAware
                && decision.compact)
                .then(|| {
                    crate::engine::pull::active_vector_list(
                        &pg.vsd,
                        &pg.vss,
                        &frontier,
                        prog.converged(),
                    )
                })
                .filter(|a| a.total_vectors() * 10 < pg.vsd.num_vectors() * 6);
            let status = if let Some(a) = &active {
                compacted = Some(a.total_vectors() as u64);
                crate::engine::pull::edge_pull_compact_resilient(
                    &pg.vsd,
                    &kern,
                    &frontier,
                    a,
                    pool,
                    cfg,
                    &mut merge,
                    &prof,
                    deadline,
                    rctx.injector,
                )
            } else {
                scheds.reset();
                edge_pull_resilient(
                    &pg.vsd,
                    &kern,
                    &frontier,
                    pool,
                    &scheds,
                    &mut merge,
                    &prof,
                    deadline,
                    res.max_chunk_retries,
                    rctx.injector,
                )
            };
            match status {
                PullStatus::Completed => {}
                PullStatus::Degraded => {
                    // The degrade redo is a full-array sequential pass, so
                    // the record must not claim the compacted path ran.
                    edge_parallelism = 1;
                    compacted = None;
                }
                PullStatus::Stalled => return Err(EngineError::Stalled { iteration: iter }),
            }
            pull_iterations += 1;
            engine_trace.push(EngineKind::Pull);
        } else {
            // RECOVERY: Edge-Push scatters with non-idempotent synchronized
            // read-modify-writes, so a panicked push phase cannot be
            // partially retried. Containment instead discards the phase —
            // reset the accumulators and recompute the identical aggregate
            // with one sequential frontier-masked pull pass (for any
            // frontier, push-from-active-sources and pull-masked-to-active-
            // sources produce the same per-destination aggregate).
            // Scatter discipline from the shared decision (DESIGN.md §17).
            // Containment is identical for both arms: a panic anywhere in
            // the SPA scatter/merge pipeline (like one in the synchronized
            // scatter) discards the phase wholesale and redoes it below.
            let pushed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                edge_push_with_mode(
                    &pg.vss,
                    &kern,
                    &frontier,
                    pool,
                    &prof,
                    decision.scatter,
                    &mut spa_scratch,
                    // The reset and dense Vertex phase of every superstep
                    // keep this driver's pool warm.
                    false,
                )
            }));
            if let Ok(ran) = pushed {
                edge_parallelism = ran;
            } else {
                prof.chunk_panics.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                prof.degraded_iterations.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                edge_parallelism = 1;
                // DISJOINT: sequential-merge — degrade-path reset, single-threaded
                prog.accumulators()
                    .fill_range_f64(0..pg.num_vertices, prog.op().identity());
                // The panicked push phase never reached its own wall/idle
                // accounting (the panic unwound through the pool before it);
                // the sequential redo charges its own wall at effective
                // parallelism 1, so the degraded iteration reports no
                // phantom idle threads.
                let wall = SpanClock::start();
                let work_before = prof.work_ns_now();
                let done = scalar_pull_pass(&pg.vsd, &kern, &frontier, deadline, &prof);
                prof.finish_edge_phase(wall.elapsed_ns(), 1, work_before);
                if !done {
                    return Err(EngineError::Stalled { iteration: iter });
                }
            }
            push_iterations += 1;
            engine_trace.push(EngineKind::Push);
        }
        // Delta phase: combine pending-insert edges after the base phase.
        if let Some(d) = delta {
            // RECOVERY: like the base push, the delta push's synchronized
            // read-modify-writes cannot be partially retried — a panic
            // discards the whole Edge phase (base aggregate included, since
            // the partial delta commits polluted it) and recomputes it
            // sequentially: scalar base pull, then a single-threaded delta
            // push. Both redo passes combine from a reset accumulator, so
            // the result is the same per-destination aggregate.
            let pushed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                edge_push(&d.vss, &kern, &frontier, pool, &prof);
            }));
            if pushed.is_err() {
                prof.chunk_panics.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                prof.degraded_iterations.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                edge_parallelism = 1;
                compacted = None;
                // DISJOINT: sequential-merge — degrade-path reset, single-threaded
                prog.accumulators()
                    .fill_range_f64(0..pg.num_vertices, prog.op().identity());
                let wall = SpanClock::start();
                let work_before = prof.work_ns_now();
                let done = scalar_pull_pass(&pg.vsd, &kern, &frontier, deadline, &prof);
                sequential_delta_push(&d.vss, &kern, &frontier);
                prof.finish_edge_phase(wall.elapsed_ns(), 1, work_before);
                if !done {
                    return Err(EngineError::Stalled { iteration: iter });
                }
            }
        }
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(EngineError::Stalled { iteration: iter });
        }

        // Injected NaN poison lands between the phases, exactly where a
        // corrupted Edge-phase result would sit.
        if let Some(inj) = rctx.injector {
            if let Some(v) = inj.poison_target() {
                // DISJOINT: sequential-merge — fault injection between phases,
                // single-threaded
                prog.accumulators().set_f64(v, f64::NAN);
            }
        }

        let mut next = prog
            .uses_frontier()
            .then(|| DenseBitmap::new(pg.num_vertices));
        // Threads that actually executed the Vertex phase (1 on the
        // sequential panic-recovery fallback below) — recorded per superstep.
        let mut vertex_parallelism = pool.num_threads() as u32;
        // RECOVERY: the Vertex phase's local update reads the (intact)
        // accumulators and overwrites the vertex properties — for the
        // supported programs `apply` is idempotent on *values*, so the
        // phase can be re-run sequentially into a fresh frontier bitmap
        // (the partially filled one is discarded). Its *return value* is
        // not idempotent, though: a vertex whose update committed before
        // the panic reports "unchanged" on re-run and would silently drop
        // out of the rebuilt frontier. So either the properties are rolled
        // back to their pre-phase state first (the divergence guard's
        // last-good snapshot was taken before this phase touched them, and
        // the Edge phase only writes accumulators, which `restore_into`
        // skips), making the re-run's activation bits exact, or — with the
        // guard off — activation is rebuilt conservatively: any vertex
        // whose aggregate differs from the operator identity may have
        // changed this phase. The superset is safe for the supported
        // frontier programs (idempotent Min/Max propagation): extra active
        // sources re-contribute values their neighbors have already
        // absorbed, and the over-count only delays `should_stop` by at
        // most one no-op iteration.
        let applied = std::panic::catch_unwind(AssertUnwindSafe(|| {
            vertex_phase(prog, pool, next.as_ref(), cfg.simd, &prof)
        }));
        let active = match applied {
            Ok(a) => a,
            Err(_) => {
                vertex_parallelism = 1;
                prof.chunk_panics.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                prof.degraded_iterations.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                let fresh = prog
                    .uses_frontier()
                    .then(|| DenseBitmap::new(pg.num_vertices));
                let mut active = 0usize;
                if let Some(lg) = last_good.as_ref() {
                    // Roll back the partial commits (keeps the current
                    // frontier; the snapshot's copy is the same one), then
                    // re-apply for exact values and activation bits.
                    let _ = lg.restore_into(prog);
                    for v in 0..pg.num_vertices as u32 {
                        if prog.apply(v) {
                            active += 1;
                            if let Some(f) = fresh.as_ref() {
                                f.insert(v);
                            }
                        }
                    }
                } else {
                    let identity = prog.op().identity().to_bits();
                    let acc = prog.accumulators();
                    for v in 0..pg.num_vertices as u32 {
                        let changed = prog.apply(v);
                        if changed || acc.get_f64(v as usize).to_bits() != identity {
                            active += 1;
                            if let Some(f) = fresh.as_ref() {
                                f.insert(v);
                            }
                        }
                    }
                }
                next = fresh;
                active
            }
        };
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(EngineError::Stalled { iteration: iter });
        }

        let engine = if use_pull {
            EngineKind::Pull
        } else {
            EngineKind::Push
        };
        if let (Some(lg), Some(sc)) = (last_good.as_mut(), scratch.as_mut()) {
            if sc.capture_arrays_and_scan(prog) {
                prof.divergence_rollbacks.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
                rollbacks_this_iter += 1;
                frontier = lg.restore_into(prog);
                // A rolled-back execution is still an executed superstep:
                // record it (the re-run contributes a second record with
                // the same `iteration`, so trace length = iterations +
                // rollbacks, matching `engine_trace`).
                if let Some(before) = snap_before.as_ref() {
                    let mut rec = IterationRecord::from_snapshots(
                        iter as u32,
                        engine,
                        density.unwrap_or(1.0),
                        cfg.pull_threshold,
                        sparse_repr,
                        before,
                        &prof.snapshot(),
                        edge_parallelism,
                        vertex_parallelism,
                        true,
                    );
                    if let Some(av) = compacted {
                        rec.pull_compacted = true;
                        rec.active_vectors = av;
                    }
                    rec.dir_frontier_edges = decision.frontier_edges;
                    rec.dir_unvisited_edges = decision.unvisited_edges;
                    rec.scatter_mode = (!use_pull).then_some(decision.scatter);
                    recorder.push(rec);
                }
                if rollbacks_this_iter >= 2 {
                    // Persistent divergence: stop at the last finite
                    // iterate.
                    diverged_stop = true;
                    break;
                }
                continue; // re-run the same iteration
            }
            // Clean: the scratch copy becomes the new last-good snapshot
            // (its frontier is filled in below, after the update).
            std::mem::swap(lg, sc);
        }
        rollbacks_this_iter = 0;

        if let Some(nb) = next {
            let dense = Frontier::Dense(nb);
            frontier = if cfg.sparse_frontier
                && (active as f64) <= cfg.sparse_threshold * pg.num_vertices as f64
            {
                dense.to_sparse()
            } else {
                dense
            };
        }
        if let Some(lg) = last_good.as_mut() {
            lg.set_frontier(&frontier);
        }
        iterations = iter + 1;
        if let Some(before) = snap_before.as_ref() {
            let mut rec = IterationRecord::from_snapshots(
                iter as u32,
                engine,
                density.unwrap_or(1.0),
                cfg.pull_threshold,
                sparse_repr,
                before,
                &prof.snapshot(),
                edge_parallelism,
                vertex_parallelism,
                false,
            );
            if let Some(av) = compacted {
                rec.pull_compacted = true;
                rec.active_vectors = av;
            }
            rec.dir_frontier_edges = decision.frontier_edges;
            rec.dir_unvisited_edges = decision.unvisited_edges;
            rec.scatter_mode = (!use_pull).then_some(decision.scatter);
            recorder.push(rec);
        }

        if res.checkpoint_every > 0 && (iter + 1).is_multiple_of(res.checkpoint_every) {
            if let Some(path) = rctx.checkpoint_path {
                Checkpoint::capture(iter + 1, &prog.checkpoint_arrays(), &frontier)
                    .save(path)
                    .map_err(EngineError::Checkpoint)?;
                prof.checkpoints_written.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
            }
        }

        program_stopped = prog.should_stop(iter, active);
        iter += 1;
        if program_stopped {
            break;
        }
    }

    let profile = prof.snapshot();
    let outcome = if diverged_stop {
        RunOutcome::DivergedRecovered
    } else if !profile.resilience_clean() || profile.checkpoint_restores > 0 {
        RunOutcome::Recovered
    } else {
        RunOutcome::Clean
    };
    Ok(ResilientRun {
        stats: ExecutionStats {
            iterations,
            pull_iterations,
            push_iterations,
            wall: start.elapsed(),
            profile,
            engine_trace,
            records: recorder.into_records(),
            hit_iteration_cap: !program_stopped && !diverged_stop,
        },
        outcome,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::program::AggOp;
    use crate::properties::PropertyArray;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;

    /// The hybrid driver's label-propagation test program, reused here so
    /// the resilient loop is exercised through engine switching too.
    struct MinLabel {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl MinLabel {
        fn new(n: usize) -> Self {
            let labels = PropertyArray::new(n);
            for v in 0..n {
                labels.set_f64(v, v as f64);
            }
            MinLabel {
                labels,
                acc: PropertyArray::new(n),
                n,
            }
        }
    }
    impl GraphProgram for MinLabel {
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
            Frontier::all(self.n)
        }
    }

    fn chain(n: usize) -> Graph {
        let mut el = EdgeList::new(n);
        for v in 0..(n - 1) as u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    /// [`MinLabel`] whose `apply` panics exactly once at `target` — by then
    /// the vertices before it in the worker's range have already committed,
    /// reproducing a mid-Vertex-phase worker death with partial updates.
    struct PanickyMinLabel {
        inner: MinLabel,
        target: u32,
        armed: std::sync::atomic::AtomicBool,
    }
    impl PanickyMinLabel {
        fn new(n: usize, target: u32) -> Self {
            PanickyMinLabel {
                inner: MinLabel::new(n),
                target,
                armed: std::sync::atomic::AtomicBool::new(true),
            }
        }
    }
    impl GraphProgram for PanickyMinLabel {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn op(&self) -> AggOp {
            self.inner.op()
        }
        fn edge_values(&self) -> &PropertyArray {
            self.inner.edge_values()
        }
        fn accumulators(&self) -> &PropertyArray {
            self.inner.accumulators()
        }
        fn apply(&self, v: u32) -> bool {
            if v == self.target && self.armed.swap(false, Ordering::AcqRel) {
                panic!("injected vertex-phase panic at {v}");
            }
            self.inner.apply(v)
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            self.inner.initial_frontier()
        }
    }

    /// A vertex-phase panic leaves the committed prefix's updates in place;
    /// the fallback must not drop those vertices from the rebuilt frontier
    /// (their `apply` re-run reports "unchanged"), or min-label propagation
    /// from the committed half silently stops. With the divergence guard on
    /// the recovery restores the pre-phase properties and re-applies, so
    /// the result must match the hybrid driver bit-for-bit.
    #[test]
    fn vertex_panic_with_guard_restores_and_matches_hybrid() {
        let g = chain(120);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(1);

        let hybrid = MinLabel::new(120);
        crate::engine::hybrid::run_program(&pg, &hybrid, &cfg);

        let prog = PanickyMinLabel::new(120, 60);
        let run = run_resilient(&pg, &prog, &cfg, &ResilienceContext::new()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(prog.inner.labels.to_vec_f64(), hybrid.labels.to_vec_f64());
    }

    /// Same scenario with the divergence guard (and thus the last-good
    /// snapshot) disabled: recovery falls back to conservative activation —
    /// every vertex with a non-identity aggregate joins the frontier — and
    /// the run must still converge to the hybrid driver's labels.
    #[test]
    fn vertex_panic_without_guard_converges_conservatively() {
        let g = chain(120);
        let pg = PreparedGraph::new(&g);
        let mut cfg = EngineConfig::new().with_threads(1);
        cfg.resilience.divergence_guard = false;

        let hybrid = MinLabel::new(120);
        crate::engine::hybrid::run_program(&pg, &hybrid, &cfg);

        let prog = PanickyMinLabel::new(120, 60);
        let run = run_resilient(&pg, &prog, &cfg, &ResilienceContext::new()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(prog.inner.labels.to_vec_f64(), hybrid.labels.to_vec_f64());
    }

    /// Frontier-less sum propagation whose `checkpoint_arrays` deliberately
    /// *excludes* the iterate, exercising the unconditional `edge_values`
    /// capture in [`RollbackSlot`].
    struct SumProg {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl SumProg {
        fn new(n: usize) -> Self {
            SumProg {
                labels: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::new(n),
                n,
            }
        }
    }
    impl GraphProgram for SumProg {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Sum
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.labels
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn checkpoint_arrays(&self) -> Vec<&PropertyArray> {
            vec![&self.acc]
        }
        fn apply(&self, v: u32) -> bool {
            self.labels
                .set_f64(v as usize, self.acc.get_f64(v as usize));
            false
        }
        fn uses_frontier(&self) -> bool {
            false
        }
    }

    /// Injected NaN poison propagates into an iterate that sits outside
    /// the program's checkpoint set. The rollback must still repair it
    /// (the slot captures `edge_values` unconditionally) and the re-run
    /// must reproduce the clean run bit-for-bit — not break out with
    /// `DivergedRecovered` while the live iterate is still NaN.
    #[test]
    fn rollback_repairs_iterate_outside_checkpoint_set() {
        use crate::faults::{ExecFaultPlan, ExecInjector};

        let g = chain(16);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(1).with_max_iterations(4);

        let clean = SumProg::new(16);
        run_resilient(&pg, &clean, &cfg, &ResilienceContext::new()).unwrap();

        let prog = SumProg::new(16);
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_poison(1, 3));
        let rctx = ResilienceContext::new().with_injector(&inj);
        let run = run_resilient(&pg, &prog, &cfg, &rctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(run.stats.profile.divergence_rollbacks, 1);
        assert!(prog.labels.to_vec_f64().iter().all(|v| v.is_finite()));
        assert_eq!(prog.labels.to_vec_f64(), clean.labels.to_vec_f64());
    }

    /// The flight recorder on the resilient path: every *executed*
    /// superstep — including the one the divergence guard rolled back —
    /// yields a record, so the trace length is `iterations + rollbacks`
    /// and matches `engine_trace` exactly, at every thread count.
    #[test]
    fn flight_recorder_traces_rollback_reruns_at_every_thread_count() {
        use crate::faults::{ExecFaultPlan, ExecInjector};
        let g = chain(16);
        let pg = PreparedGraph::new(&g);
        for threads in [1usize, 2, 8] {
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(4)
                .with_trace(true);
            let prog = SumProg::new(16);
            let inj = ExecInjector::new(ExecFaultPlan::clean().with_poison(1, 3));
            let rctx = ResilienceContext::new().with_injector(&inj);
            let run = run_resilient(&pg, &prog, &cfg, &rctx).unwrap();
            let rollbacks = run.stats.profile.divergence_rollbacks as usize;
            assert_eq!(rollbacks, 1, "threads={threads}");
            assert_eq!(
                run.stats.records.len(),
                run.stats.iterations + rollbacks,
                "threads={threads}: trace length must be iterations + rollbacks"
            );
            assert_eq!(run.stats.records.len(), run.stats.engine_trace.len());
            let rolled: Vec<_> = run.stats.records.iter().filter(|r| r.rolled_back).collect();
            assert_eq!(rolled.len(), rollbacks, "threads={threads}");
            assert!(rolled.iter().all(|r| r.has_resilience_event()));
            // The re-run repeats the rolled-back execution's iteration
            // index: it appears twice in the trace.
            for r in &rolled {
                let repeats = run
                    .stats
                    .records
                    .iter()
                    .filter(|x| x.iteration == r.iteration)
                    .count();
                assert_eq!(repeats, 2, "threads={threads} iter={}", r.iteration);
            }
        }
    }

    /// A chunk panic that exhausts the retry budget degrades the Edge phase
    /// to the sequential scalar redo. The record must say so — and, the
    /// profiler-accounting bugfix, the degraded iteration must charge idle
    /// from its *effective* parallelism (1), not the configured thread
    /// count: idle can never exceed the phase's own wall time, where the
    /// old accounting reported ~`threads − 1` extra walls of phantom idle.
    #[test]
    fn degraded_iteration_reports_effective_parallelism_and_no_phantom_idle() {
        use crate::faults::{ExecFaultPlan, ExecInjector};
        let g = chain(64);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new()
            .with_threads(4)
            .with_max_iterations(1)
            .with_trace(true);
        let prog = SumProg::new(64);
        // Fail chunk 0 more times than the retry budget allows.
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(0, 0, 10));
        let rctx = ResilienceContext::new().with_injector(&inj);
        let run = run_resilient(&pg, &prog, &cfg, &rctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(run.stats.profile.degraded_iterations, 1);
        let rec = &run.stats.records[0];
        assert!(rec.degraded, "record must flag the degraded superstep");
        assert!(rec.has_resilience_event());
        assert_eq!(rec.edge_parallelism, 1, "degraded phase runs on one thread");
        assert!(rec.retries > 0, "the retry budget was spent first");
        assert!(
            rec.idle_ns <= rec.edge_wall_ns,
            "idle from effective parallelism 1 is bounded by the phase wall \
             (got idle={}ns wall={}ns)",
            rec.idle_ns,
            rec.edge_wall_ns
        );
        // Same bound at the aggregate level: the whole run executed every
        // Edge phase at parallelism 1, so total idle cannot exceed total
        // edge wall (the old `threads × wall − work` accounting would
        // report roughly 3 extra walls of idle here).
        assert!(run.stats.profile.idle <= run.stats.profile.edge_wall);
    }

    /// [`MinLabel`] that requests cooperative cancellation from inside
    /// `pre_iteration` at a chosen iteration — the flag is then observed
    /// at the *next* iteration boundary.
    struct CancellingMinLabel {
        inner: MinLabel,
        cancel_at: usize,
        flag: std::sync::Arc<CancelFlag>,
    }
    impl GraphProgram for CancellingMinLabel {
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn op(&self) -> AggOp {
            self.inner.op()
        }
        fn edge_values(&self) -> &PropertyArray {
            self.inner.edge_values()
        }
        fn accumulators(&self) -> &PropertyArray {
            self.inner.accumulators()
        }
        fn apply(&self, v: u32) -> bool {
            self.inner.apply(v)
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            self.inner.initial_frontier()
        }
        fn pre_iteration(&self, iter: usize) {
            if iter == self.cancel_at {
                self.flag.cancel();
            }
        }
    }

    /// A pre-set cancel flag stops the run before any iteration executes;
    /// a flag raised mid-run is honoured at the next iteration boundary,
    /// leaving the arrays finite and the pool reusable.
    #[test]
    fn cancellation_is_observed_at_iteration_boundaries() {
        let g = chain(64);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(2);
        let pool = ThreadPool::new(cfg.threads, cfg.groups);

        // Pre-cancelled: no iteration runs at all.
        let flag = CancelFlag::new();
        flag.cancel();
        let prog = MinLabel::new(64);
        let rctx = ResilienceContext::new().with_cancel(&flag);
        match run_resilient_on_pool(&pg, &prog, &cfg, &rctx, &pool) {
            Err(EngineError::Cancelled { iteration }) => assert_eq!(iteration, 0),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // No iteration ran: the labels are untouched.
        assert_eq!(prog.labels.get_f64(63), 63.0);

        // Raised during iteration 2: observed at the boundary before
        // iteration 3.
        let flag = std::sync::Arc::new(CancelFlag::new());
        let prog = CancellingMinLabel {
            inner: MinLabel::new(64),
            cancel_at: 2,
            flag: flag.clone(),
        };
        let rctx = ResilienceContext::new().with_cancel(&flag);
        match run_resilient_on_pool(&pg, &prog, &cfg, &rctx, &pool) {
            Err(EngineError::Cancelled { iteration }) => assert_eq!(iteration, 3),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(prog.inner.labels.to_vec_f64().iter().all(|v| v.is_finite()));

        // The pool is unaffected: the same program re-runs to completion
        // after the flag resets.
        flag.reset();
        let fresh = MinLabel::new(64);
        let run = run_resilient_on_pool(
            &pg,
            &fresh,
            &cfg,
            &ResilienceContext::new().with_cancel(&flag),
            &pool,
        )
        .unwrap();
        assert_eq!(run.outcome, RunOutcome::Clean);
    }

    #[test]
    fn clean_run_matches_hybrid_driver_and_reports_clean() {
        let g = chain(120);
        let pg = PreparedGraph::new(&g);
        let cfg = EngineConfig::new().with_threads(2);

        let hybrid = MinLabel::new(120);
        crate::engine::hybrid::run_program(&pg, &hybrid, &cfg);

        let prog = MinLabel::new(120);
        let run = run_resilient(&pg, &prog, &cfg, &ResilienceContext::new()).unwrap();
        assert_eq!(run.outcome, RunOutcome::Clean);
        assert_eq!(run.resumed_from, None);
        assert!(run.stats.profile.resilience_clean());
        assert_eq!(prog.labels.to_vec_f64(), hybrid.labels.to_vec_f64());
        assert_eq!(run.stats.iterations, run.stats.engine_trace.len());
        assert!(!run.stats.hit_iteration_cap, "converged well under the cap");

        // The same flood cut off below the chain length is flagged, and
        // agrees with the hybrid driver on what the truncated state is.
        let capped = cfg.with_max_iterations(40);
        let prog = MinLabel::new(120);
        let run = run_resilient(&pg, &prog, &capped, &ResilienceContext::new()).unwrap();
        assert_eq!(run.stats.iterations, 40);
        assert!(run.stats.hit_iteration_cap);
        let hybrid = MinLabel::new(120);
        let stats = crate::engine::hybrid::run_program(&pg, &hybrid, &capped);
        assert!(stats.hit_iteration_cap);
        assert_eq!(prog.labels.to_vec_f64(), hybrid.labels.to_vec_f64());
    }

    #[test]
    fn spa_scatter_matches_atomic_on_the_resilient_path() {
        use crate::config::ScatterMode;
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let run = |mode: ScatterMode, threads: usize| {
            let prog = MinLabel::new(400);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(2000)
                .with_scatter_mode(mode)
                .with_trace(true);
            let r = run_resilient(&pg, &prog, &cfg, &ResilienceContext::new()).unwrap();
            assert_eq!(r.outcome, RunOutcome::Clean);
            (prog.labels.to_vec_f64(), r.stats)
        };
        for threads in [1usize, 2, 8] {
            let (atomic_labels, atomic_stats) = run(ScatterMode::Atomic, threads);
            let (spa_labels, spa_stats) = run(ScatterMode::Spa, threads);
            assert_eq!(atomic_labels, spa_labels, "threads={threads}");
            assert_eq!(atomic_stats.engine_trace, spa_stats.engine_trace);
            assert!(spa_stats.push_iterations >= 1, "sparse tail should push");
            // Push records report the pinned (resolved) mode; pull none.
            for r in &spa_stats.records {
                match r.engine {
                    EngineKind::Pull => assert!(r.scatter_mode.is_none()),
                    EngineKind::Push => {
                        assert_eq!(r.scatter_mode, Some(ScatterMode::Spa));
                        assert_eq!(r.spa_bucket_entries, r.updates);
                    }
                }
            }
            assert!(spa_stats.profile.spa_bucket_entries > 0);
        }
    }

    #[test]
    fn frontier_aware_pull_matches_dense_on_the_resilient_path() {
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let run = |frontier_pull: bool| {
            let prog = MinLabel::new(400);
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_max_iterations(2000)
                .with_force_engine(Some(EngineKind::Pull))
                .with_frontier_pull(frontier_pull)
                .with_trace(true);
            let r = run_resilient(&pg, &prog, &cfg, &ResilienceContext::new()).unwrap();
            assert_eq!(r.outcome, RunOutcome::Clean);
            (prog.labels.to_vec_f64(), r.stats)
        };
        let (compact_labels, compact_stats) = run(true);
        let (dense_labels, dense_stats) = run(false);
        assert_eq!(compact_labels, dense_labels);
        assert_eq!(compact_stats.iterations, dense_stats.iterations);
        assert!(
            compact_stats.records.iter().any(|r| r.pull_compacted),
            "compacted path never engaged on the resilient driver"
        );
        assert!(dense_stats.records.iter().all(|r| !r.pull_compacted));
    }

    #[test]
    fn compacted_resilient_pull_survives_injected_chunk_panics() {
        use crate::faults::{ExecFaultPlan, ExecInjector};
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let reference = MinLabel::new(400);
        let base = EngineConfig::new()
            .with_threads(2)
            .with_max_iterations(2000)
            .with_force_engine(Some(EngineKind::Pull))
            .with_trace(true);
        run_resilient(&pg, &reference, &base, &ResilienceContext::new()).unwrap();

        let prog = MinLabel::new(400);
        // Panic a chunk in a late iteration, where the shrunken frontier
        // guarantees the compacted path is the one containing the fault.
        // MinLabel on a bidirectional chain keeps ~(n - k) vertices active
        // at iteration k, so the compaction gate opens only past k ≈ 250
        // (cost model: expected active-destination fraction < 0.6);
        // iteration 300 sits comfortably on the compacted side.
        let plan = ExecFaultPlan::clean().with_chunk_panic(300, 0, 1);
        let inj = ExecInjector::new(plan);
        let rctx = ResilienceContext::new().with_injector(&inj);
        let run = run_resilient(&pg, &prog, &base, &rctx).unwrap();
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(prog.labels.to_vec_f64(), reference.labels.to_vec_f64());
        let faulted = run
            .stats
            .records
            .iter()
            .find(|r| r.retries > 0)
            .expect("the injected panic must surface as a retry");
        assert!(
            faulted.pull_compacted,
            "iteration 300 of the 400-chain must be compacted"
        );
    }

    #[test]
    fn divergence_guard_detects_nan_and_inf() {
        let prog = MinLabel::new(8);
        // The fused copy-and-scan must agree with the reference predicate
        // at every probe point.
        let mut slot = RollbackSlot::capture(&prog, &Frontier::all(8));
        let both = |prog: &MinLabel, slot: &mut RollbackSlot| {
            let reference = diverged(prog);
            assert_eq!(slot.capture_arrays_and_scan(prog), reference);
            reference
        };
        assert!(!both(&prog, &mut slot));
        prog.acc.set_f64(3, f64::NAN); // transient accumulator: exempt
        assert!(!both(&prog, &mut slot));
        prog.acc.set_f64(3, f64::INFINITY); // Min identity: legitimate
        assert!(!both(&prog, &mut slot));
        prog.labels.set_f64(0, f64::INFINITY); // iterate must stay finite
        assert!(both(&prog, &mut slot));
        prog.labels.set_f64(0, f64::NAN); // iterate NaN likewise
        assert!(both(&prog, &mut slot));
    }

    #[test]
    fn rollback_slot_round_trips_state_and_frontier() {
        let prog = MinLabel::new(8);
        let f = Frontier::Dense(DenseBitmap::new(8));
        if let Frontier::Dense(bm) = &f {
            bm.insert(2);
            bm.insert(5);
        }
        let slot = RollbackSlot::capture(&prog, &f);
        // Clobber the live state, then restore.
        for v in 0..8 {
            prog.labels.set_f64(v, -1.0);
            prog.acc.set_f64(v, f64::NAN);
        }
        let restored = slot.restore_into(&prog);
        for v in 0..8 {
            assert_eq!(prog.labels.get_f64(v), v as f64);
            // Accumulators are scan-only (never copied): the engine's
            // `reset_accumulators` rebuilds them before any re-run read,
            // so restore leaves them untouched.
            assert!(prog.acc.get_f64(v).is_nan());
        }
        match restored {
            Frontier::Dense(bm) => {
                for v in 0..8u32 {
                    assert_eq!(bm.contains(v), v == 2 || v == 5, "vertex {v}");
                }
            }
            other => panic!("expected dense frontier, got {other:?}"),
        }
    }
}
