//! Fault containment for the run loop (ISSUE 2, DESIGN.md §9).
//!
//! There is one superstep loop (`engine::hybrid`); the `run_resilient*`
//! entry points here run it with a [`ResilienceContext`], which layers four
//! containment mechanisms onto it:
//!
//! * **Watchdog** — every superstep runs against a cooperative deadline
//!   ([`ResilienceConfig::watchdog`](crate::config::ResilienceConfig)); a
//!   blown deadline ends the run with [`EngineError::Stalled`] instead of
//!   hanging the caller.
//! * **Chunk retry / degrade** — a worker panic during Edge-Pull is
//!   contained to its chunk and retried on the driver thread
//!   ([`edge_pull`](crate::engine::pull::edge_pull) with a `Containment`);
//!   when the retry budget runs out the phase is redone on the sequential
//!   scalar path and the iteration is counted in
//!   [`Profiler::degraded_iterations`](crate::stats::Profiler). Push,
//!   overlay-fold and Vertex phases are contained whole and redone
//!   sequentially.
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

use crate::checkpoint::FrontierSnapshot;
use crate::config::EngineConfig;
use crate::engine::hybrid::ExecutionStats;
use crate::engine::PreparedGraph;
use crate::faults::ExecInjector;
use crate::frontier::Frontier;
use crate::program::GraphProgram;
use grazelle_graph::types::GraphError;
use grazelle_sched::cancel::CancelFlag;
use grazelle_sched::pool::ThreadPool;
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
    /// The same statistics a plain run reports. `iterations` counts
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
pub(super) struct RollbackSlot {
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
    pub(super) fn capture<P: GraphProgram>(prog: &P, frontier: &Frontier) -> Self {
        let mut slot = RollbackSlot::empty();
        let _ = slot.capture_arrays_and_scan(prog);
        slot.set_frontier(frontier);
        slot
    }

    /// A shell with no buffers; the first fused capture sizes it.
    pub(super) fn empty() -> Self {
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
    pub(super) fn capture_arrays_and_scan<P: GraphProgram>(&mut self, prog: &P) -> bool {
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
    pub(super) fn set_frontier(&mut self, frontier: &Frontier) {
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
    pub(super) fn restore_into<P: GraphProgram>(&self, prog: &P) -> Frontier {
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

/// Runs `prog` to completion with the full containment layer, on a freshly
/// created pool. See the module docs for semantics; resilience knobs come
/// from `cfg.resilience`, checkpoint location, cancellation and fault
/// injection from `rctx`.
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
/// prepared overlay of pending edge inserts (same vertex set as `pg`),
/// folded in after each base Edge phase exactly as in
/// [`run_program_overlay_on_pool`](crate::engine::hybrid::run_program_overlay_on_pool).
/// The fold keeps the containment contract: a panicked delta push discards
/// the whole Edge phase and recomputes it sequentially (base scalar pull +
/// the SPA's inline fold of the overlay), exactly like the base push's own
/// recovery.
pub fn run_resilient_overlay_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
    pool: &ThreadPool,
) -> Result<ResilientRun, EngineError> {
    crate::engine::hybrid::drive(pg, delta, prog, cfg, pool, Some(rctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::hybrid::EngineKind;
    use crate::frontier::DenseBitmap;
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

    /// Chunk faults through the whole driver, once per iteration space: a
    /// chunk that panics once is retried and the superstep completes on the
    /// path it started on; one that exhausts the retry budget degrades the
    /// Edge phase to the sequential scalar redo. The record must say so —
    /// never claiming the compacted path for the full-array redo — and must
    /// charge idle from the phase's *effective* parallelism (1), not the
    /// configured thread count: idle can never exceed the phase's own wall
    /// time, where an earlier accounting reported ~`threads − 1` extra
    /// walls of phantom idle.
    #[test]
    fn chunk_faults_are_contained_on_both_iteration_spaces() {
        use crate::faults::{ExecFaultPlan, ExecInjector};
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let threads = 4;
        // MinLabel on a bidirectional chain keeps ~(n - k) vertices active
        // at iteration k, so the compaction gate opens only past k ≈ 250
        // (cost model: expected active-destination fraction < 0.6);
        // iteration 300 sits comfortably on the compacted side.
        let faulty_iteration = 300;
        for compact in [false, true] {
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(2000)
                .with_force_engine(Some(EngineKind::Pull))
                .with_frontier_pull(compact)
                .with_trace(true);
            let reference = MinLabel::new(400);
            run_resilient(&pg, &reference, &cfg, &ResilienceContext::new()).unwrap();

            for (failures, degrades) in [(1, false), (10, true)] {
                let what = format!("compact={compact} failures={failures}");
                let prog = MinLabel::new(400);
                let plan = ExecFaultPlan::clean().with_chunk_panic(faulty_iteration, 0, failures);
                let inj = ExecInjector::new(plan);
                let rctx = ResilienceContext::new().with_injector(&inj);
                let run = run_resilient(&pg, &prog, &cfg, &rctx).unwrap();
                assert_eq!(run.outcome, RunOutcome::Recovered, "{what}");
                assert_eq!(
                    prog.labels.to_vec_f64(),
                    reference.labels.to_vec_f64(),
                    "{what}"
                );
                assert_eq!(
                    run.stats.profile.degraded_iterations,
                    u64::from(degrades),
                    "{what}"
                );
                let faulted: Vec<_> = run.stats.records.iter().filter(|r| r.retries > 0).collect();
                assert_eq!(faulted.len(), 1, "{what}: one superstep saw the fault");
                let rec = faulted[0];
                assert_eq!(rec.iteration as usize, faulty_iteration, "{what}");
                assert!(rec.has_resilience_event(), "{what}");
                assert_eq!(rec.degraded, degrades, "{what}");
                if degrades {
                    assert!(!rec.pull_compacted, "{what}: the redo is a full-array pass");
                    assert_eq!(rec.edge_parallelism, 1, "{what}");
                    assert!(
                        rec.idle_ns <= rec.edge_wall_ns,
                        "{what}: idle from effective parallelism 1 is bounded by the \
                         phase wall (got idle={}ns wall={}ns)",
                        rec.idle_ns,
                        rec.edge_wall_ns
                    );
                } else {
                    assert_eq!(rec.pull_compacted, compact, "{what}");
                    assert_eq!(rec.edge_parallelism, threads as u32, "{what}");
                }
            }
        }
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
