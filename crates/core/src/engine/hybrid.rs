//! The driver: per-iteration engine selection and the one superstep loop.
//!
//! "A hybrid framework contains one engine of each type and, for each
//! iteration, selects which to use based on the state of the frontier. Such
//! a framework generally selects its pull engine whenever a sufficiently
//! large part of the graph is contained in the frontier" (§2). The driver
//! also owns the synchronous iteration structure: Edge phase → barrier →
//! Vertex phase → barrier, repeated until convergence. Fault containment
//! ([`resilient`](crate::engine::resilient), DESIGN.md §9) is an optional
//! argument of that loop, not a second loop.

use crate::checkpoint::Checkpoint;
use crate::config::{EngineConfig, PullMode};
use crate::engine::pull::{
    active_vector_list, edge_pull, sequential_edge_redo, Containment, EdgeSchedulers, MergeEntry,
    PullStatus,
};
use crate::engine::resilient::{
    EngineError, ResilienceContext, ResilientRun, RollbackSlot, RunOutcome,
};
use crate::engine::vertex::{reset_accumulators, sparse_vertex_phase, vertex_phase};
use crate::engine::PreparedGraph;
use crate::frontier::{BucketQueue, DenseBitmap, Frontier};
use crate::program::GraphProgram;
use crate::spmv::program_kernel;
use crate::spmv::spa::{
    drain_bucket, edge_push_spa, fold_inline, frontier_fits_inline, inline_vector_cutoff,
    SpaScratch,
};
use crate::stats::{PhaseProfile, Profiler};
use crate::trace::{Deadline, FlightRecorder, IterationRecord, SpanClock};
use grazelle_graph::types::VertexId;
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::simd::Kernels;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// Which engine executed an Edge phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Edge-Pull (destination-grouped, scheduler-aware capable).
    Pull,
    /// Edge-Push (source-grouped, frontier-friendly).
    Push,
}

/// Summary of one program run.
#[derive(Debug, Clone)]
pub struct ExecutionStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Iterations that selected Edge-Pull.
    pub pull_iterations: usize,
    /// Iterations that selected Edge-Push.
    pub push_iterations: usize,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Aggregated phase profile (Figure 5b decomposition + write traffic).
    pub profile: PhaseProfile,
    /// Engine selected per iteration (index = iteration).
    pub engine_trace: Vec<EngineKind>,
    /// Flight-recorder trace: one [`IterationRecord`] per executed
    /// superstep, oldest first. Empty unless
    /// [`EngineConfig::trace`](crate::config::EngineConfig::trace) is set.
    /// On the resilient path rolled-back executions are recorded too, so
    /// the trace length is `iterations + rollbacks`.
    pub records: Vec<IterationRecord>,
    /// True when the run left the driver loop because
    /// [`EngineConfig::max_iterations`](crate::config::EngineConfig::max_iterations)
    /// supersteps had run, not because the program's `should_stop` said so:
    /// the result of a convergence-driven program (BFS on a graph whose
    /// diameter exceeds the cap) is then truncated. Fixed-iteration programs
    /// (PageRank without a tolerance) end this way by design.
    pub hit_iteration_cap: bool,
}

impl ExecutionStats {
    /// Wall time per iteration.
    pub fn per_iteration(&self) -> Duration {
        if self.iterations == 0 {
            Duration::ZERO
        } else {
            self.wall / self.iterations as u32
        }
    }
}

/// Runs `prog` to completion on a freshly created pool.
pub fn run_program<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> ExecutionStats {
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_program_on_pool(pg, prog, cfg, &pool)
}

/// Runs `prog` to completion on an existing pool (benchmarks reuse pools to
/// avoid re-measuring thread spawns).
pub fn run_program_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> ExecutionStats {
    run_program_overlay_on_pool(pg, None, prog, cfg, pool)
}

/// [`run_program_on_pool`] over a versioned graph: `delta` holds the
/// prepared overlay of pending edge inserts (same vertex set as `pg`).
///
/// Each superstep runs the base Edge phase as usual, then folds the delta
/// edges in with an SPA Edge-Push pass over the delta's VSS. The order
/// matters: the scheduler-aware pull writes interior destinations with
/// *direct stores*, so the delta contribution must land strictly after the
/// base phase — and must itself combine, never overwrite, which the SPA's
/// fold does: it reads each accumulator and combines into it, one writer
/// per destination chunk. Base and delta edge sets are disjoint (the delta
/// layer deduplicates inserts against the base), so for Min/Max/Sum the two
/// phases together produce exactly the aggregate a merged rebuild would.
pub fn run_program_overlay_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> ExecutionStats {
    match drive(pg, delta, prog, cfg, pool, None) {
        Ok(run) => run.stats,
        Err(e) => unreachable!("a run without containment has no failure path: {e}"),
    }
}

/// The superstep loop behind every `run_program*` and `run_resilient*`
/// entry point. `contain` switches on the fault-containment layer that
/// [`resilient`](crate::engine::resilient) describes, configured by
/// `cfg.resilience`. `None` is the plain run: no snapshot is taken, no
/// deadline is polled, a worker panic propagates to the caller, and the
/// result is always `Ok` with [`RunOutcome::Clean`].
pub(super) fn drive<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    contain: Option<&ResilienceContext<'_>>,
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
    let overlay = delta.filter(|d| d.num_edges > 0);
    // The degrade paths call `scalar_pull_pass`, whose unsafe vertex-indexed
    // reads rely on these bounds — enforce them here so every path into
    // that pass is covered.
    assert!(
        prog.edge_values().len() >= pg.vsd.num_vertices(),
        "edge_values must cover every vertex"
    );
    assert!(
        prog.accumulators().len() >= pg.vsd.num_vertices(),
        "accumulators must cover every vertex"
    );
    // The push structure's one reader (DESIGN.md §12, "On-demand
    // structures"): a run that can push, and an overlay's fold, read the
    // VSS, so it is encoded here, on the run's pool, before any worker
    // could read it. A run that only pulls (PageRank) leaves it empty.
    if prog.uses_frontier() || cfg.force_engine == Some(EngineKind::Push) {
        pg.vss.ready(Some(pool));
    }
    if let Some(d) = overlay {
        d.vss.ready(Some(pool));
    }
    let res = cfg.resilience;
    let contained = contain.is_some();
    let injector = contain.and_then(|c| c.injector);
    let scheds = EdgeSchedulers::new(cfg, &pg.vsd, pool);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
    // SPA bucket storage, reused across supersteps (DESIGN.md §17) the same
    // way `merge` persists the pull side's slot buffers. Safe across panic
    // containment: workers clear their buckets at scatter start, so a
    // discarded phase cannot leak stale entries into the redo.
    let mut spa_scratch = SpaScratch::new();
    // One masked-SpMV kernel per run (DESIGN.md §16): a struct of borrows
    // over the program's arrays and the structure's weight vectors. The same
    // kernel serves pull (gathers), push (messages) and their sequential
    // degrade redos — all read `edge_values[src]`, which the Vertex phase
    // updates in place.
    let kern = program_kernel(prog, &pg.vsd, Kernels::with_level(cfg.simd));
    // Under `invariant-checks` every run is audited: the pull engine records
    // interior stores, slot claims, and merge folds into the tracker and
    // asserts the §3 exactly-once-write contract after each Edge phase.
    #[cfg(feature = "invariant-checks")]
    let prof = Profiler::with_tracker();
    #[cfg(not(feature = "invariant-checks"))]
    let prof = Profiler::new();

    let mut frontier = prog.initial_frontier();
    let mut iter = 0usize;
    let mut resumed_from = None;
    if let Some(path) = contain.and_then(|c| c.checkpoint_path) {
        if path.exists() {
            // A corrupt or mismatched checkpoint is not fatal: the format
            // layer rejects it (checksum/shape) and the run starts fresh.
            if let Ok(ck) = Checkpoint::load(path) {
                if ck.restore_into(&prog.checkpoint_arrays()).is_ok() {
                    iter = ck.iteration;
                    frontier = ck.frontier.restore();
                    resumed_from = Some(ck.iteration);
                    prof.add(&prof.checkpoint_restores, 1);
                }
            }
        }
    }

    // Run-level half of the sparse Vertex phase's eligibility (DESIGN.md
    // §18): the program's contract, a frontier to rebuild, no overlay fold
    // writing accumulators the touched list does not cover, and no
    // containment — the rollback snapshot and the Vertex-phase panic redo
    // assume a full sweep.
    let sparse_vertex =
        !contained && prog.uses_frontier() && prog.identity_apply_is_noop() && overlay.is_none();
    // Representation switch (sparse-frontier extension): near-empty
    // frontiers become sorted vertex lists so the next push iteration
    // is O(|F|) instead of an O(|V|/64) bitmap scan.
    let as_list = |active: usize| crate::direction::frontier_fits_list(active, pg.num_vertices);
    // A frontier of `vertices` (ascending) in the representation its size
    // calls for.
    let list_or_bitmap = |vertices: Vec<VertexId>| {
        if as_list(vertices.len()) {
            Frontier::Sparse {
                len: pg.num_vertices,
                vertices,
            }
        } else {
            Frontier::from_vertices(pg.num_vertices, &vertices)
        }
    };
    // Priority schedule (DESIGN.md §18): more, narrower supersteps only pay
    // where a superstep costs its own work, so it shares the sparse Vertex
    // phase's run-level eligibility and asks nothing more than the
    // program's bucket width on this structure.
    let mut queue = sparse_vertex
        .then(|| prog.bucket_width(&pg.vss))
        .flatten()
        .map(|width| BucketQueue::new(pg.num_vertices, width));
    if let Some(q) = queue.as_mut() {
        frontier = reschedule(q, &frontier, prog, list_or_bitmap);
    }
    // In-place drain (DESIGN.md §18): on the schedule, a bucket that fits
    // the parked-pool inline cutoff is sent on the calling thread with no
    // superstep around it. It is the default policy's choice: a pinned
    // engine is a comparator arm and keeps its supersteps.
    let drain_cutoff = (queue.is_some() && cfg.force_engine.is_none())
        .then(|| inline_vector_cutoff(pool.num_threads(), true));
    #[cfg(feature = "invariant-checks")]
    let start_state = drain_cutoff.map(|_| ProgramState::capture(prog));
    // Driver-tracked invariant: every accumulator holds the identity. Only
    // a sparse Vertex phase establishes it; any other superstep clears it.
    let mut acc_clean = false;
    // Upper bound on the converged set's size: the last exact count plus
    // every activation since (the set grows only through activating
    // `apply` calls — the `GraphProgram::converged` contract). `None`
    // until the first count; a program without the set has exactly 0.
    let mut converged_bound = prog.converged().is_none().then_some(0usize);
    let mut pull_iterations = 0usize;
    let mut push_iterations = 0usize;
    // Scheduler-aware pull phases that completed in parallel: the ones the
    // `invariant-checks` tracker closes (a degraded or stalled phase leaves
    // its tracker phase open by design).
    let mut audited_pulls = 0usize;
    let mut engine_trace = Vec::new();
    let mut rollbacks_this_iter = 0u32;
    let mut diverged_stop = false;
    let mut program_stopped = false;
    // Divergence-guard state: a double-buffered last-good snapshot.
    // `last_good` always holds the state at the start of the iteration
    // being run; `scratch` receives the fused copy-and-scan of each
    // iteration's result and the two swap when the scan comes back clean.
    let guard = contained && res.divergence_guard;
    let mut last_good = guard.then(|| RollbackSlot::capture(prog, &frontier));
    let mut scratch = guard.then(RollbackSlot::empty);
    let mut recorder = if cfg.trace {
        FlightRecorder::new()
    } else {
        FlightRecorder::disabled()
    };
    let start = SpanClock::start();

    while iter < cfg.max_iterations {
        // Cooperative cancellation is observed only here, at the iteration
        // boundary: every array holds the state of the last completed
        // iteration, so a cancelled query leaves nothing torn and the pool
        // needs no cleanup.
        if contain.is_some_and(|c| c.cancel.is_some_and(|f| f.is_cancelled())) {
            return Err(EngineError::Cancelled { iteration: iter });
        }
        let stalled = EngineError::Stalled { iteration: iter };
        let deadline = contain.and(res.watchdog).map(Deadline::after);
        let pull_containment = contain.map(|_| Containment {
            deadline,
            max_chunk_retries: res.max_chunk_retries,
            injector,
        });
        if let Some(inj) = injector {
            inj.set_iteration(iter);
        }
        prog.pre_iteration(iter);
        // One density computation per superstep, shared by engine
        // selection, the frontier-aware pull gate, and the trace — so the
        // three can never disagree and tracing cannot perturb selection.
        // `None` for frontier-less programs (PageRank) and all-active
        // frontiers, where selection short-circuits to pull.
        let density = (prog.uses_frontier() && !frontier.is_all()).then(|| frontier.density());
        // Disabled-recorder cost per executed superstep: this one branch
        // (and the matching one at record time).
        let snap_before = recorder.is_enabled().then(|| prof.snapshot());
        let sparse_repr = matches!(frontier, Frontier::Sparse { .. });
        // On the priority schedule: the bucket this superstep's frontier
        // was drained from and the active vertices held back behind it.
        let scheduled = queue
            .as_ref()
            .map(|q| (q.last_drained(), q.pending() as u64));
        if let Some((_, held_back)) = scheduled {
            prof.add(&prof.bucket_steps, 1);
            prof.add(&prof.held_back, held_back);
        }
        if acc_clean {
            #[cfg(feature = "invariant-checks")]
            assert_accumulators_identity(prog, iter);
            prof.add(&prof.acc_resets_skipped, 1);
        } else {
            reset_accumulators(prog, pool, &prof);
        }

        // A drained bucket is one iteration: one scan on the calling thread
        // folds and applies every message, then the next bucket comes off
        // the queue. Only a plain run has a queue, so there is nothing to
        // snapshot, poll or checkpoint here.
        let fits = |cut| frontier_fits_inline(&pg.vss, &frontier, pg.num_vertices, cut);
        if let Some(q) = queue.as_mut().filter(|_| drain_cutoff.is_some_and(fits)) {
            let (clock, work_before) = (SpanClock::start(), prof.work_ns_now());
            let drained = drain_bucket(&pg.vss, prog, &frontier, q);
            let ns = clock.elapsed_ns();
            prof.add(&prof.work_ns, ns);
            prof.finish_edge_phase(ns, 1, work_before);
            prof.add(&prof.drained_buckets, 1);
            prof.add(&prof.drain_messages, drained.messages);
            prof.add(&prof.drain_applies, drained.applies);
            prof.add(&prof.push_updates, drained.messages);
            acc_clean = true;
            push_iterations += 1;
            engine_trace.push(EngineKind::Push);
            if let Some(bound) = converged_bound.as_mut() {
                *bound += drained.applies as usize;
            }
            let reschedule_clock = SpanClock::start();
            frontier = list_or_bitmap(q.drain_lowest().unwrap_or_default());
            let active = frontier.count() + q.pending();
            prof.add(&prof.reschedule_ns, reschedule_clock.elapsed_ns());
            if let Some(before) = snap_before.as_ref() {
                let mut rec = IterationRecord::from_snapshots(
                    iter as u32,
                    EngineKind::Push,
                    density.unwrap_or(1.0),
                    sparse_repr,
                    before,
                    &prof.snapshot(),
                    1,
                    1,
                    false,
                );
                if let Some((bucket, held_back)) = scheduled {
                    rec.bucket = Some(bucket);
                    rec.held_back = held_back;
                }
                recorder.push(rec);
            }
            program_stopped = prog.should_stop(iter, active);
            iter += 1;
            if program_stopped {
                break;
            }
            continue;
        }

        // Direction choice (DESIGN.md §16): one shared [`Decision`] feeds
        // engine selection, the compaction gate, and the trace.
        // The frontier-cost paths read the out-degree table cached on the
        // push structure; a run that never computes a density (PageRank)
        // never causes it to be built. The bounded path settles tiny
        // frontiers in O(|F|) at most; the exact one also counts the
        // converged set, which refreshes the bound.
        let decide_clock = SpanClock::start();
        let out_degrees = density.is_some().then(|| pg.vss.degrees());
        let bounded = out_degrees
            .zip(converged_bound)
            .and_then(|(_, converged_at_most)| {
                crate::direction::decide_within_bounds(
                    cfg,
                    density,
                    &frontier,
                    pg.vss.max_degree(),
                    pg.num_edges,
                    pg.num_vertices,
                    converged_at_most,
                )
            });
        let exact = |converged: usize| {
            crate::direction::decide(
                cfg,
                density,
                &frontier,
                out_degrees,
                pg.num_edges,
                pg.num_vertices,
                converged,
            )
        };
        let decision = bounded.unwrap_or_else(|| {
            let converged = prog.converged().map_or(0, |c| c.count());
            converged_bound = Some(converged);
            exact(converged)
        });
        prof.add(&prof.decide_ns, decide_clock.elapsed_ns());
        #[cfg(feature = "invariant-checks")]
        assert_bounded_decision_is_exact(prog, converged_bound, bounded, &exact, iter);
        let use_pull = decision.use_pull;
        let engine = if use_pull {
            pull_iterations += 1;
            EngineKind::Pull
        } else {
            push_iterations += 1;
            EngineKind::Push
        };
        engine_trace.push(engine);
        // Threads that actually executed the Edge phase (1 when the SPA
        // push ran inline or the phase degraded to the sequential redo) —
        // recorded per superstep.
        let mut edge_parallelism = pool.num_threads() as u32;
        // Active-vector count when the frontier-aware compacted pull ran.
        let mut compacted: Option<u64> = None;
        // Sequential redo of a panicked push or overlay phase; `then` folds
        // the overlay. False when the watchdog expired mid-redo.
        let redo_edge_phase = |then: &dyn Fn()| {
            prof.add(&prof.chunk_panics, 1);
            // The panicked phase never reached its own wall/idle
            // accounting (the panic unwound through the pool before it), so
            // the redo charges its own wall.
            let (wall, work) = (SpanClock::start(), prof.work_ns_now());
            sequential_edge_redo(&pg.vsd, &kern, &frontier, deadline, &prof, wall, work, then)
        };
        if use_pull {
            // Frontier-aware pull (DESIGN.md §11): when the direction model
            // expects few active destinations, compact the iteration space
            // to the vectors of destinations that can actually receive
            // messages. Bail out to the dense pass when the compacted space
            // isn't materially smaller (≥ 60% of the full array).
            let active = (cfg.frontier_pull
                && cfg.pull_mode == PullMode::SchedulerAware
                && decision.compact)
                .then(|| active_vector_list(&pg.vsd, &pg.vss, &frontier, prog.converged()))
                .filter(|a| a.total_vectors() * 10 < pg.vsd.num_vectors() * 6);
            let compact_scheds = active
                .as_ref()
                .map(|a| EdgeSchedulers::compact(cfg, a.total_vectors(), pool));
            scheds.reset();
            compacted = active.as_ref().map(|a| a.total_vectors() as u64);
            // A contained run pulls scheduler-aware whatever
            // `cfg.pull_mode` says: chunk retry is only sound under that
            // interface's write discipline.
            let mode = if contained {
                PullMode::SchedulerAware
            } else {
                cfg.pull_mode
            };
            let status = edge_pull(
                &pg.vsd,
                &kern,
                &frontier,
                pool,
                compact_scheds.as_ref().unwrap_or(&scheds),
                active.as_ref(),
                &mut merge,
                mode,
                pull_containment.as_ref(),
                &prof,
            );
            match status {
                PullStatus::Completed => {
                    audited_pulls += usize::from(mode == PullMode::SchedulerAware)
                }
                PullStatus::Degraded => {
                    // The degrade redo is a full-array sequential pass, so
                    // the record must not claim the compacted path ran.
                    edge_parallelism = 1;
                    compacted = None;
                }
                PullStatus::Stalled => return Err(stalled),
            }
        } else {
            let push = || {
                edge_push_spa(
                    &pg.vss,
                    &kern,
                    &frontier,
                    pool,
                    &prof,
                    &mut spa_scratch,
                    // A superstep that skipped its reset follows a sparse
                    // Vertex phase: nothing has woken the pool since the
                    // previous Edge phase at the latest.
                    acc_clean,
                )
            };
            // The SPA's folds are non-idempotent read-modify-writes (a Sum
            // folded twice counts twice), so a panicked push phase cannot be
            // partially retried. Containment instead discards the phase — a
            // panic anywhere in the scatter/merge pipeline — and recomputes
            // the identical aggregate sequentially.
            edge_parallelism = match whole_phase(contained, push) {
                Some(ran) => ran,
                None => {
                    if !redo_edge_phase(&|| {}) {
                        return Err(stalled);
                    }
                    1
                }
            };
        }
        // Delta phase (see `run_program_overlay_on_pool` for why it comes
        // second and pushes). The base kernel serves here too: `message`
        // only reads the program arrays, never the base structure. The base
        // phase has returned, so the fold's one writer per destination chunk
        // combines into finished base aggregates. No sparse Vertex phase
        // follows an overlay run's superstep, so the scratch's touched list
        // may be overwritten.
        if let Some(d) = overlay {
            let fold = || {
                edge_push_spa(
                    &d.vss,
                    &kern,
                    &frontier,
                    pool,
                    &prof,
                    &mut spa_scratch,
                    false,
                )
            };
            // Like the base push, the fold cannot be partially retried — a
            // panic discards the whole Edge phase (base aggregate included,
            // since the partial fold polluted it) and recomputes it
            // sequentially: scalar base pull, then the SPA's inline fold of
            // the overlay. Both redo passes combine from a reset
            // accumulator, so the result is the same per-destination
            // aggregate.
            match whole_phase(contained, fold) {
                Some(ran) => edge_parallelism = edge_parallelism.max(ran),
                None => {
                    edge_parallelism = 1;
                    compacted = None;
                    if !redo_edge_phase(&|| {
                        fold_inline(&d.vss, &kern, &frontier, |_| {});
                    }) {
                        return Err(stalled);
                    }
                }
            }
        }
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(stalled);
        }

        // Injected NaN poison lands between the phases, exactly where a
        // corrupted Edge-phase result would sit.
        if let Some(v) = injector.and_then(|inj| inj.poison_target()) {
            // DISJOINT: sequential-merge — fault injection between phases,
            // single-threaded
            prog.accumulators().set_f64(v, f64::NAN);
        }

        // Sparse Vertex phase (DESIGN.md §18): an SPA push over clean
        // accumulators wrote exactly the touched list, so a program whose
        // `apply` ignores identity accumulators needs no other vertex
        // visited — and resetting each one as it is applied leaves the
        // whole array clean for the next superstep.
        let go_sparse = sparse_vertex
            && !use_pull
            && crate::direction::sparse_vertex_fits(
                spa_scratch.touched_len() as u64,
                pg.num_vertices,
            );
        acc_clean = go_sparse;
        // Threads that actually executed the Vertex phase (1 on the
        // sequential panic redo) — recorded per superstep.
        let mut vertex_parallelism = pool.num_threads() as u32;
        // The Vertex phase's activation count and, for frontier programs,
        // the frontier the next superstep starts from.
        let (mut active, mut next_frontier) = if go_sparse {
            let run = sparse_vertex_phase(prog, pool, &spa_scratch, &prof);
            #[cfg(feature = "invariant-checks")]
            assert_dense_sweep_adds_nothing(prog, iter);
            vertex_parallelism = run.parallelism;
            (run.activated.len(), Some(list_or_bitmap(run.activated)))
        } else {
            let bitmap = || {
                prog.uses_frontier()
                    .then(|| DenseBitmap::new(pg.num_vertices))
            };
            let mut next = bitmap();
            let sweep = || vertex_phase(prog, pool, next.as_ref(), cfg.simd, &prof);
            let active = match whole_phase(contained, sweep) {
                Some(active) => active,
                // A panicked sweep leaves partial commits and a partial
                // bitmap: redo it sequentially into a fresh one.
                None => {
                    vertex_parallelism = 1;
                    prof.add(&prof.chunk_panics, 1);
                    prof.add(&prof.degraded_iterations, 1);
                    next = bitmap();
                    vertex_phase_redo(prog, last_good.as_ref(), next.as_ref())
                }
            };
            let next = next.map(|bm| {
                let dense = Frontier::Dense(bm);
                if as_list(active) {
                    dense.to_sparse()
                } else {
                    dense
                }
            });
            (active, next)
        };
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(stalled);
        }
        if let Some(bound) = converged_bound.as_mut() {
            *bound += active;
        }
        // On the priority schedule the activations join the vertices held
        // back earlier, the next superstep starts from the lowest bucket of
        // the lot, and `should_stop` sees everything still waiting.
        if let (Some(q), Some(next)) = (queue.as_mut(), next_frontier.as_mut()) {
            let reschedule_clock = SpanClock::start();
            *next = reschedule(q, next, prog, list_or_bitmap);
            active = next.count() + q.pending();
            prof.add(&prof.reschedule_ns, reschedule_clock.elapsed_ns());
        }

        // One record per *executed* superstep, assembled from the selection
        // state above. The trace reports the same density selection used
        // (1.0 for the short-circuit cases — the value
        // `Frontier::density()` returns for all-active frontiers).
        let mut record = |rolled_back: bool| {
            let Some(before) = snap_before.as_ref() else {
                return;
            };
            let mut rec = IterationRecord::from_snapshots(
                iter as u32,
                engine,
                density.unwrap_or(1.0),
                sparse_repr,
                before,
                &prof.snapshot(),
                edge_parallelism,
                vertex_parallelism,
                rolled_back,
            );
            if let Some(av) = compacted {
                rec.pull_compacted = true;
                rec.active_vectors = av;
            }
            rec.dir_frontier_edges = decision.frontier_edges;
            rec.dir_unvisited_edges = decision.unvisited_edges;
            if let Some((bucket, held_back)) = scheduled {
                rec.bucket = Some(bucket);
                rec.held_back = held_back;
            }
            recorder.push(rec);
        };
        if let (Some(lg), Some(sc)) = (last_good.as_mut(), scratch.as_mut()) {
            if sc.capture_arrays_and_scan(prog) {
                prof.add(&prof.divergence_rollbacks, 1);
                rollbacks_this_iter += 1;
                frontier = lg.restore_into(prog);
                // A rolled-back execution is still an executed superstep:
                // record it (the re-run contributes a second record with
                // the same `iteration`, so trace length = iterations +
                // rollbacks, matching `engine_trace`).
                record(true);
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

        if let Some(next) = next_frontier {
            frontier = next;
        }
        if let Some(lg) = last_good.as_mut() {
            lg.set_frontier(&frontier);
        }
        record(false);

        if let Some(path) = contain.and_then(|c| c.checkpoint_path) {
            if res.checkpoint_every > 0 && (iter + 1).is_multiple_of(res.checkpoint_every) {
                Checkpoint::capture(iter + 1, &prog.checkpoint_arrays(), &frontier)
                    .save(path)
                    .map_err(EngineError::Checkpoint)?;
                prof.add(&prof.checkpoints_written, 1);
            }
        }

        program_stopped = prog.should_stop(iter, active);
        iter += 1;
        if program_stopped {
            break;
        }
    }

    // A run that stopped of its own accord has sent every vertex it
    // activated: nothing may be left waiting in a bucket.
    #[cfg(feature = "invariant-checks")]
    if let Some(q) = queue.as_mut().filter(|_| program_stopped) {
        assert_eq!(
            (frontier.count(), q.drain_lowest()),
            (0, None),
            "the priority schedule stopped with vertices still waiting"
        );
    }
    #[cfg(feature = "invariant-checks")]
    if let Some(start) =
        start_state.filter(|_| program_stopped && prof.snapshot().drained_buckets > 0)
    {
        assert_drain_reaches_the_superstep_fixpoint(pg, prog, cfg, pool, start);
    }

    // A mismatch means an Edge phase ran unaudited (a weaving bug, not a
    // scheduling one).
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        assert_eq!(
            t.phases_checked() as usize,
            audited_pulls,
            "every scheduler-aware Edge phase must be audited"
        );
    }
    #[cfg(not(feature = "invariant-checks"))]
    let _ = audited_pulls;

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
            // Completed supersteps in absolute terms: `iter` starts at a
            // resumed checkpoint's iteration and a rolled-back execution
            // does not advance it.
            iterations: iter,
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

/// One step of the priority schedule (DESIGN.md §18): files `activated` by
/// the program's current values and drains the lowest bucket of everything
/// now waiting as the next superstep's frontier, built by `list_or_bitmap`
/// (empty when nothing is waiting).
fn reschedule<P: GraphProgram>(
    queue: &mut BucketQueue,
    activated: &Frontier,
    prog: &P,
    list_or_bitmap: impl Fn(Vec<VertexId>) -> Frontier,
) -> Frontier {
    let values = prog.edge_values();
    queue.file_all(activated, |v| values.get_f64(v as usize));
    list_or_bitmap(queue.drain_lowest().unwrap_or_default())
}

/// Runs one whole phase (push, overlay fold or Vertex sweep): as is without
/// containment — a worker panic is then the caller's to see — else catching
/// it as `None`, for the caller's sequential redo.
fn whole_phase<T>(contained: bool, phase: impl FnOnce() -> T) -> Option<T> {
    if !contained {
        return Some(phase());
    }
    // RECOVERY: none of the three phases can be retried in part, so each
    // caller discards what the panicked phase wrote and recomputes it
    // sequentially from intact inputs; the call sites say why that is sound.
    std::panic::catch_unwind(AssertUnwindSafe(phase)).ok()
}

/// Sequential redo of a Vertex phase whose worker panicked; returns the
/// activation count and fills `fresh` (the partially filled bitmap is
/// discarded by the caller).
///
/// RECOVERY: the Vertex phase's local update reads the (intact)
/// accumulators and overwrites the vertex properties — for the supported
/// programs `apply` is idempotent on *values*, so the phase can be re-run
/// sequentially into a fresh frontier bitmap. Its *return value* is not
/// idempotent, though: a vertex whose update committed before the panic
/// reports "unchanged" on re-run and would silently drop out of the
/// rebuilt frontier. So either the properties are rolled back to their
/// pre-phase state first (the divergence guard's last-good snapshot was
/// taken before this phase touched them, and the Edge phase only writes
/// accumulators, which `restore_into` skips), making the re-run's
/// activation bits exact, or — with the guard off — activation is rebuilt
/// conservatively: any vertex whose aggregate differs from the operator
/// identity may have changed this phase. The superset is safe for the
/// supported frontier programs (idempotent Min/Max propagation): extra
/// active sources re-contribute values their neighbors have already
/// absorbed, and the over-count only delays `should_stop` by at most one
/// no-op iteration.
fn vertex_phase_redo<P: GraphProgram>(
    prog: &P,
    last_good: Option<&RollbackSlot>,
    fresh: Option<&DenseBitmap>,
) -> usize {
    // Roll back the partial commits (keeps the current frontier; the
    // snapshot's copy is the same one), then re-apply for exact values and
    // activation bits.
    let exact = last_good.map(|lg| lg.restore_into(prog)).is_some();
    let identity = prog.op().identity().to_bits();
    let acc = prog.accumulators();
    let mut active = 0usize;
    for v in 0..prog.num_vertices() as u32 {
        let changed = prog.apply(v);
        if changed || (!exact && acc.get_f64(v as usize).to_bits() != identity) {
            active += 1;
            if let Some(f) = fresh {
                f.insert(v);
            }
        }
    }
    active
}

/// `invariant-checks` audit of the bounded direction path: the converged
/// bound really is at least the converged count, and a decision the bounds
/// settled is the one the exact model makes in every field the driver acts
/// on.
#[cfg(feature = "invariant-checks")]
fn assert_bounded_decision_is_exact<P: GraphProgram>(
    prog: &P,
    converged_bound: Option<usize>,
    bounded: Option<crate::direction::Decision>,
    exact: &dyn Fn(usize) -> crate::direction::Decision,
    iter: usize,
) {
    let converged = prog.converged().map_or(0, |c| c.count());
    if let Some(bound) = converged_bound {
        assert!(
            bound >= converged,
            "iteration {iter}: converged bound {bound} is below the count {converged} \
             — the converged set grew without activations"
        );
    }
    if let Some(b) = bounded {
        let e = exact(converged);
        assert_eq!(
            (b.use_pull, b.compact),
            (e.use_pull, e.compact),
            "iteration {iter}: the bounded decision differs from the exact one"
        );
    }
}

/// `invariant-checks` snapshot of what a run can change in a program: the
/// checkpoint arrays and edge values except the transient accumulators,
/// and the converged set.
#[cfg(feature = "invariant-checks")]
#[derive(PartialEq)]
struct ProgramState {
    arrays: Vec<Vec<u64>>,
    converged: Option<Vec<VertexId>>,
}

#[cfg(feature = "invariant-checks")]
impl ProgramState {
    fn arrays<P: GraphProgram>(prog: &P) -> Vec<&crate::properties::PropertyArray> {
        let acc = prog.accumulators();
        prog.checkpoint_arrays()
            .into_iter()
            .chain([prog.edge_values()])
            .filter(|a| !std::ptr::eq(*a, acc))
            .collect()
    }

    fn capture<P: GraphProgram>(prog: &P) -> Self {
        ProgramState {
            arrays: Self::arrays(prog).iter().map(|a| a.to_vec_u64()).collect(),
            converged: prog.converged().map(|c| c.iter().collect()),
        }
    }

    fn restore<P: GraphProgram>(&self, prog: &P) {
        for (bits, target) in self.arrays.iter().zip(Self::arrays(prog)) {
            target.load_u64(bits);
        }
        if let (Some(set), Some(c)) = (self.converged.as_ref(), prog.converged()) {
            c.clear();
            set.iter().for_each(|&v| c.insert(v));
        }
    }
}

/// `invariant-checks` audit of the in-place drain: a run that drained
/// buckets and stopped of its own accord is re-run from its starting state
/// with the drain off (a forced push keeps every superstep) and must end on
/// the same bits; the drained state is then put back.
#[cfg(feature = "invariant-checks")]
fn assert_drain_reaches_the_superstep_fixpoint<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    start: ProgramState,
) {
    let drained = ProgramState::capture(prog);
    start.restore(prog);
    let supersteps = cfg
        .with_force_engine(Some(EngineKind::Push))
        .with_trace(false);
    let run = drive(pg, None, prog, &supersteps, pool, None)
        .unwrap_or_else(|e| unreachable!("a run without containment has no failure path: {e}"));
    if !run.stats.hit_iteration_cap {
        assert!(
            ProgramState::capture(prog) == drained,
            "the in-place drain ended on another fixpoint than the superstep run"
        );
    }
    drained.restore(prog);
}

/// `invariant-checks` audit of `acc_clean`: a superstep about to skip its
/// reset really does start from all-identity accumulators.
#[cfg(feature = "invariant-checks")]
fn assert_accumulators_identity<P: GraphProgram>(prog: &P, iter: usize) {
    let identity = prog.op().identity().to_bits();
    for (v, cell) in prog.accumulators().to_vec_u64().into_iter().enumerate() {
        assert_eq!(
            cell, identity,
            "iteration {iter}: reset skipped but accumulator {v} is not the identity"
        );
    }
}

/// `invariant-checks` shadow of the dense Vertex phase, run right after a
/// sparse one: the dense sweep would additionally `apply` every vertex
/// whose accumulator still holds the identity, which is now all of them.
/// Its activation set equals the sparse phase's exactly when none of those
/// calls activates or writes anything — the program contract, checked here
/// at this reachable state over every vertex.
#[cfg(feature = "invariant-checks")]
fn assert_dense_sweep_adds_nothing<P: GraphProgram>(prog: &P, iter: usize) {
    assert_accumulators_identity(prog, iter);
    let snapshot = |prog: &P| -> Vec<Vec<u64>> {
        prog.checkpoint_arrays()
            .iter()
            .map(|a| a.to_vec_u64())
            .collect()
    };
    let before = snapshot(prog);
    for v in 0..prog.num_vertices() as u32 {
        assert!(
            !prog.apply(v),
            "iteration {iter}: apply({v}) activated on an identity accumulator \
             — identity_apply_is_noop() is declared but does not hold"
        );
    }
    assert!(
        snapshot(prog) == before,
        "iteration {iter}: apply on identity accumulators changed program state \
         — identity_apply_is_noop() is declared but does not hold"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PullMode;
    use crate::program::AggOp;
    use crate::properties::PropertyArray;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;

    /// Minimal label-propagation program (Connected-Components-like) used
    /// to exercise the full driver loop including engine switching.
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
        fn identity_apply_is_noop(&self) -> bool {
            true // an accumulator at +∞ never beats a label
        }
        fn initial_frontier(&self) -> Frontier {
            Frontier::all(self.n)
        }
    }

    /// [`MinLabel`] without the contract declaration: same program, but the
    /// driver must keep the dense Vertex phase for it.
    struct Undeclared(MinLabel);
    impl GraphProgram for Undeclared {
        fn num_vertices(&self) -> usize {
            self.0.n
        }
        fn op(&self) -> AggOp {
            AggOp::Min
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.0.labels
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.0.acc
        }
        fn apply(&self, v: u32) -> bool {
            self.0.apply(v)
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            Frontier::all(self.0.n)
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

    fn two_cycles() -> Graph {
        // Two directed cycles: 0..5 and 5..12 (labels converge to 0 and 5).
        let mut el = EdgeList::new(12);
        for v in 0..5u32 {
            el.push(v, (v + 1) % 5).unwrap();
            el.push((v + 1) % 5, v).unwrap();
        }
        for v in 5..12u32 {
            let next = if v == 11 { 5 } else { v + 1 };
            el.push(v, next).unwrap();
            el.push(next, v).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn driver_converges_to_component_minima() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(12);
        let cfg = EngineConfig::new().with_threads(2);
        let stats = run_program(&pg, &prog, &cfg);
        for v in 0..5 {
            assert_eq!(prog.labels.get_f64(v), 0.0, "vertex {v}");
        }
        for v in 5..12 {
            assert_eq!(prog.labels.get_f64(v), 5.0, "vertex {v}");
        }
        assert!(stats.iterations > 1);
        assert!(stats.iterations < cfg.max_iterations, "must converge early");
        assert_eq!(stats.engine_trace.len(), stats.iterations);
    }

    #[test]
    fn all_three_pull_modes_agree() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let run = |mode| {
            let prog = MinLabel::new(12);
            // Single thread so NoAtomic has no races and must agree too.
            let cfg = EngineConfig::new().with_threads(1).with_pull_mode(mode);
            run_program(&pg, &prog, &cfg);
            prog.labels.to_vec_f64()
        };
        let sa = run(PullMode::SchedulerAware);
        let tr = run(PullMode::Traditional);
        let na = run(PullMode::TraditionalNoAtomic);
        assert_eq!(sa, tr);
        assert_eq!(sa, na);
    }

    #[test]
    fn driver_switches_to_push_for_sparse_frontiers() {
        // Label propagation from full frontier shrinks it; late iterations
        // must select the push engine.
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.pull_iterations >= 1, "dense start should pull");
        assert!(stats.push_iterations >= 1, "sparse tail should push");
        assert_eq!(
            stats.iterations,
            stats.pull_iterations + stats.push_iterations
        );
        // Chain of 300: min label must flood the whole chain.
        for v in 0..300 {
            assert_eq!(prog.labels.get_f64(v), 0.0);
        }
    }

    #[test]
    fn group_counts_do_not_change_results() {
        // NUMA-group partitioning of both Edge phases must be purely a
        // scheduling concern: labels identical across group counts.
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let run = |groups: usize| {
            let prog = MinLabel::new(12);
            let cfg = EngineConfig::new().with_threads(4).with_groups(groups);
            run_program(&pg, &prog, &cfg);
            prog.labels.to_vec_f64()
        };
        let base = run(1);
        for groups in [2, 3, 4] {
            assert_eq!(run(groups), base, "groups={groups}");
        }
    }

    /// Every recorded selection is explained by the recorded cost inputs:
    /// pull iff `ALPHA · frontier_edges ≥ unvisited_edges` (DESIGN.md §16).
    fn assert_costs_explain_selection(records: &[IterationRecord]) {
        for r in records {
            assert!(r.dir_unvisited_edges > 0, "iteration {}", r.iteration);
            let pull_cheap = crate::direction::ALPHA.saturating_mul(r.dir_frontier_edges)
                >= r.dir_unvisited_edges;
            let pulled = r.engine == EngineKind::Pull;
            assert_eq!(pulled, pull_cheap, "iteration {}", r.iteration);
        }
    }

    #[test]
    fn flight_recorder_off_by_default_and_mirrors_trace_when_on() {
        let g = chain(300);
        let pg = PreparedGraph::new(&g);

        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.records.is_empty(), "recorder must default off");

        let prog = MinLabel::new(300);
        let cfg = cfg.with_trace(true);
        let stats = run_program(&pg, &prog, &cfg);
        assert_eq!(stats.records.len(), stats.iterations);
        assert_eq!(stats.records.len(), stats.engine_trace.len());
        for (i, (r, k)) in stats.records.iter().zip(&stats.engine_trace).enumerate() {
            assert_eq!(r.iteration as usize, i);
            assert_eq!(r.engine, *k, "iteration {i}");
            assert!((0.0..=1.0).contains(&r.frontier_density), "iteration {i}");
            assert!(
                !r.has_resilience_event(),
                "hybrid path records no resilience events"
            );
            // What ran, not the pool width: the whole 598-edge graph is
            // under the SPA inline cutoff, so every push is sequential.
            let push = r.engine == EngineKind::Push;
            assert_eq!(
                r.edge_parallelism,
                if push { 1 } else { 2 },
                "iteration {i}"
            );
            if push {
                assert_eq!(r.spa_bucket_entries, r.updates, "iteration {i}");
            }
        }
        // Selection must be explainable from the recorded inputs.
        assert_costs_explain_selection(&stats.records);
        // The long chain's single-wave tail must have entered the sparse
        // representation at least once.
        assert!(stats.records.iter().any(|r| r.sparse_repr));
        // Phase deltas are per-superstep: they must sum to (at most) the
        // aggregate profile, and some superstep must have done edge work.
        let wall_sum: u64 = stats.records.iter().map(|r| r.edge_wall_ns).sum();
        assert!(wall_sum <= stats.profile.edge_wall.as_nanos() as u64);
        assert!(stats.records.iter().any(|r| r.edge_wall_ns > 0));
    }

    #[test]
    fn frontier_aware_pull_matches_dense_pull_exactly() {
        // Force pull for every iteration so the sparse tail exercises the
        // compacted path, then compare against the dense-only arm.
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let run = |frontier_pull: bool, threads: usize| {
            let prog = MinLabel::new(400);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(2000)
                .with_force_engine(Some(EngineKind::Pull))
                .with_frontier_pull(frontier_pull)
                .with_trace(true);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        for threads in [1, 2, 4] {
            let (compact_labels, compact_stats) = run(true, threads);
            let (dense_labels, dense_stats) = run(false, threads);
            assert_eq!(compact_labels, dense_labels, "threads={threads}");
            assert_eq!(compact_stats.iterations, dense_stats.iterations);
            // The long chain's shrinking frontier must actually have taken
            // the compacted path (and never with frontier_pull off).
            assert!(
                compact_stats.records.iter().any(|r| r.pull_compacted),
                "threads={threads}: compacted path never engaged"
            );
            assert!(dense_stats.records.iter().all(|r| !r.pull_compacted));
            // Both arms keep pulling once the frontier is a list, so their
            // pulls walk `Frontier::Sparse` through the `ActiveList` lane
            // filter, compacted and dense.
            for stats in [&compact_stats, &dense_stats] {
                assert!(
                    stats
                        .records
                        .iter()
                        .any(|r| r.engine == EngineKind::Pull && r.sparse_repr),
                    "threads={threads}: no pull over a list frontier"
                );
            }
        }
    }

    #[test]
    fn compacted_records_report_active_vectors_and_gate_density() {
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(400);
        let cfg = EngineConfig::new()
            .with_threads(2)
            .with_max_iterations(2000)
            .with_trace(true);
        let stats = run_program(&pg, &prog, &cfg);
        let full = pg.vsd.num_vectors() as u64;
        assert!(stats.records.iter().any(|r| r.pull_compacted));
        assert_costs_explain_selection(&stats.records);
        let avg_in = pg.num_edges as f64 / pg.num_vertices as f64;
        for r in &stats.records {
            if r.pull_compacted {
                // The model's compaction gate: few expected active
                // destinations at the recorded density.
                let active_frac = 1.0 - (1.0 - r.frontier_density).powf(avg_in);
                assert!(active_frac < crate::direction::COMPACT_ACTIVE_FRACTION);
                assert!(r.active_vectors > 0, "iteration {}", r.iteration);
                assert!(r.active_vectors < full, "iteration {}", r.iteration);
                // The record's vector count is the compacted space's.
                assert_eq!(r.vectors, r.active_vectors);
            } else {
                assert_eq!(r.active_vectors, 0);
            }
        }
    }

    /// Satellite fix pin: selection and trace must consume one shared
    /// density value, so enabling the recorder can never change which
    /// engine (or pull path) a superstep selects.
    #[test]
    fn tracing_does_not_change_engine_selection() {
        let g = chain(300);
        let pg = PreparedGraph::new(&g);
        let run = |trace: bool| {
            let prog = MinLabel::new(300);
            let cfg = EngineConfig::new().with_threads(2).with_trace(trace);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        let (labels_on, stats_on) = run(true);
        let (labels_off, stats_off) = run(false);
        assert_eq!(labels_on, labels_off);
        assert_eq!(stats_on.iterations, stats_off.iterations);
        assert_eq!(stats_on.engine_trace, stats_off.engine_trace);
        // And the recorded costs explain every recorded selection — i.e.
        // the trace reports the values the selection actually used.
        assert_costs_explain_selection(&stats_on.records);
    }

    /// The cost-model switch: every recorded selection must be explainable
    /// from the recorded cost inputs, and the sparse tail of a chain must
    /// still flip to push.
    #[test]
    fn cost_model_selection_is_explained_by_recorded_costs() {
        let g = chain(300);
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2).with_trace(true);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.pull_iterations >= 1, "dense start should pull");
        assert!(stats.push_iterations >= 1, "sparse tail should push");
        assert_costs_explain_selection(&stats.records);
        for v in 0..300 {
            assert_eq!(prog.labels.get_f64(v), 0.0);
        }
    }

    /// An overlay fold records the threads that ran, not the pool width: on
    /// a chain and an overlay both under the SPA inline cutoff, a superstep
    /// whose base phase pushed inline records one thread and one whose base
    /// phase pulled records the pool's two — the fold ran inline in both.
    #[test]
    fn overlay_fold_records_the_threads_that_ran() {
        let g = chain(300);
        let pg = PreparedGraph::new(&g);
        let shortcut = EdgeList::from_pairs(300, &[(0, 150), (150, 0)]).unwrap();
        let overlay = PreparedGraph::new(&Graph::from_edgelist(&shortcut).unwrap());
        let pool = ThreadPool::new(2, 1);
        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2).with_trace(true);
        let stats = run_program_overlay_on_pool(&pg, Some(&overlay), &prog, &cfg, &pool);
        assert!(prog.labels.to_vec_f64().iter().all(|&l| l == 0.0));
        assert!(stats.pull_iterations >= 1 && stats.push_iterations >= 1);
        for r in &stats.records {
            let ran = if r.engine == EngineKind::Push { 1 } else { 2 };
            assert_eq!(r.edge_parallelism, ran, "iteration {}", r.iteration);
        }
    }

    #[test]
    fn max_iterations_caps_runaway_programs() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        struct NeverStop(MinLabel);
        impl GraphProgram for NeverStop {
            fn num_vertices(&self) -> usize {
                self.0.num_vertices()
            }
            fn op(&self) -> AggOp {
                AggOp::Min
            }
            fn edge_values(&self) -> &PropertyArray {
                self.0.edge_values()
            }
            fn accumulators(&self) -> &PropertyArray {
                self.0.accumulators()
            }
            fn apply(&self, v: u32) -> bool {
                self.0.apply(v);
                true // always "active"
            }
            fn uses_frontier(&self) -> bool {
                true
            }
            fn initial_frontier(&self) -> Frontier {
                Frontier::all(self.0.n)
            }
        }
        let prog = NeverStop(MinLabel::new(12));
        let cfg = EngineConfig::new().with_threads(1).with_max_iterations(5);
        let stats = run_program(&pg, &prog, &cfg);
        assert_eq!(stats.iterations, 5);
        assert!(stats.hit_iteration_cap);
    }

    /// A run cut off by `max_iterations` must say so: label 0 needs one
    /// superstep per hop to cross a chain, so a cap below the chain length
    /// leaves the far end unconverged — silently, before this flag.
    #[test]
    fn truncation_by_the_iteration_cap_is_reported() {
        let g = chain(400);
        let pg = PreparedGraph::new(&g);
        let run = |cap: usize| {
            let prog = MinLabel::new(400);
            let cfg = EngineConfig::new().with_threads(2).with_max_iterations(cap);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        let (labels, stats) = run(100);
        assert_eq!(stats.iterations, 100);
        assert!(stats.hit_iteration_cap, "capped run must be flagged");
        assert_ne!(labels[399], 0.0, "the cap really did truncate the flood");
        let (labels, stats) = run(1000);
        assert!(stats.iterations < 1000);
        assert!(
            !stats.hit_iteration_cap,
            "converged run must not be flagged"
        );
        assert!(labels.iter().all(|&l| l == 0.0));
        // Converging on exactly the last permitted superstep is convergence.
        let (_, exact) = run(stats.iterations);
        assert!(!exact.hit_iteration_cap);
    }

    /// The sparse Vertex phase (DESIGN.md §18) through the full driver: a
    /// program that declares the contract takes it on the chain's sparse
    /// tail, the trace says so, and nothing observable differs from the
    /// same program run without the declaration.
    #[test]
    fn sparse_vertex_phase_is_taken_traced_and_output_invariant() {
        let n = 1500;
        let g = chain(n);
        let pg = PreparedGraph::new(&g);
        for threads in [1usize, 2] {
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(2 * n)
                .with_trace(true);
            let declared = MinLabel::new(n);
            let sparse = run_program(&pg, &declared, &cfg);
            let undeclared = Undeclared(MinLabel::new(n));
            let dense = run_program(&pg, &undeclared, &cfg);
            assert_eq!(
                declared.labels.to_vec_u64(),
                undeclared.0.labels.to_vec_u64(),
                "x{threads}"
            );
            assert_eq!(sparse.iterations, dense.iterations, "x{threads}");
            assert_eq!(sparse.engine_trace, dense.engine_trace, "x{threads}");

            for r in &dense.records {
                assert_eq!(r.vertex_touched, 0, "undeclared: iteration {}", r.iteration);
                assert!(
                    !r.acc_reset_skipped,
                    "undeclared: iteration {}",
                    r.iteration
                );
            }
            assert_eq!(dense.profile.acc_resets_skipped, 0);

            let recs = &sparse.records;
            assert!(
                !recs[0].acc_reset_skipped,
                "the first superstep always resets"
            );
            for (i, r) in recs.iter().enumerate() {
                if r.vertex_touched > 0 {
                    assert_eq!(r.engine, EngineKind::Push, "iteration {i}");
                    assert_eq!(r.vertex_touched, r.spa_bucket_entries, "iteration {i}");
                    // One chain vertex per wavefront: the SPA push runs
                    // inline, and the record must say so.
                    assert_eq!(r.edge_parallelism, 1, "x{threads} iteration {i}");
                    if let Some(next) = recs.get(i + 1) {
                        assert!(next.acc_reset_skipped, "iteration {}", i + 1);
                    }
                }
                if r.engine == EngineKind::Pull {
                    assert_eq!(r.edge_parallelism, threads as u32, "iteration {i}");
                    assert_eq!(r.vertex_touched, 0, "iteration {i}");
                    if let Some(next) = recs.get(i + 1) {
                        assert!(!next.acc_reset_skipped, "pull dirties: iteration {}", i + 1);
                    }
                }
            }
            let skipped = recs.iter().filter(|r| r.acc_reset_skipped).count() as u64;
            assert_eq!(sparse.profile.acc_resets_skipped, skipped);
            // The model only pushes once the frontier's out-edges are under
            // m/14 — far below V/4 here — so every push superstep fits the
            // sparse phase, and all but the first find clean accumulators.
            let touched_steps = recs.iter().filter(|r| r.vertex_touched > 0).count();
            assert!(sparse.push_iterations > 10, "fixture must have a push tail");
            assert_eq!(touched_steps, sparse.push_iterations, "x{threads}");
            assert_eq!(skipped as usize, sparse.push_iterations - 1, "x{threads}");
            assert_eq!(
                sparse.profile.vertex_touched,
                recs.iter().map(|r| r.vertex_touched).sum::<u64>()
            );
        }
    }
}
