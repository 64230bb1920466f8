//! Edge-Pull: the inner-loop-parallel, vectorized pull engine.
//!
//! This is where both of the paper's contributions meet. The iteration
//! space is the VSD edge-vector array — a *single-level* loop over vectors
//! (paper Listing 7) in which outer-loop (destination) transitions are
//! detected from the vectors' embedded top-level-vertex ids. Three interface
//! modes parallelize that loop:
//!
//! * [`PullMode::Traditional`] — each vector's aggregate is combined into
//!   the destination's shared accumulator with a CAS loop. One synchronized
//!   shared-memory update per iteration; the paper's baseline.
//! * [`PullMode::TraditionalNoAtomic`] — same traffic, no synchronization
//!   (racy by design; isolates write-traffic cost from synchronization
//!   cost, as in Figures 5 and 8).
//! * [`PullMode::SchedulerAware`] — the paper's contribution: partial
//!   aggregates live in chunk-local state; interior destination transitions
//!   issue one plain store; the chunk's trailing partial goes to the merge
//!   buffer slot owned by the chunk; a sequential merge pass folds the
//!   buffer afterwards. Zero synchronization.

use crate::config::PullMode;
use crate::faults::ExecInjector;
use crate::frontier::Frontier;
use crate::program::AggOp;
use crate::properties::PropertyArray;
use crate::spmv::{scatter_combine, EdgeKernel};
use crate::stats::Profiler;
use crate::trace::{Deadline, SpanClock};
use grazelle_sched::chunks::{ChunkScheduler, ChunkSource};
use grazelle_sched::pool::{ThreadPool, WorkerCtx};
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::active::ActiveVectorList;
use grazelle_vsparse::build::{Vsd, Vss};
use grazelle_vsparse::simd::{Carry, SimdLevel};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// One merge-buffer slot: the chunk's last destination and its
/// partially-aggregated value (paper Listing 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEntry {
    /// `lastDest`.
    pub dest: u64,
    /// `lastValue`.
    pub value: f64,
}

/// The scheduler-aware pull loop (paper Listings 3–5), generic over the
/// Edge-phase kernel: the loop owns scheduling and the §3 write discipline;
/// the kernel owns the masked aggregation of each contiguous vector run and
/// its destination transitions ([`EdgeKernel::pull_run`]).
struct AwarePull<'a, K: EdgeKernel> {
    vsd: &'a Vsd,
    kernel: &'a K,
    frontier: &'a Frontier,
    merge: &'a SlotBuffer<MergeEntry>,
    prof: &'a Profiler,
    // Cached kernel facets — hoisted out of the per-chunk path.
    op: AggOp,
    accum: &'a PropertyArray,
    simd: SimdLevel,
}

impl<'a, K: EdgeKernel> AwarePull<'a, K> {
    fn new(
        vsd: &'a Vsd,
        kernel: &'a K,
        frontier: &'a Frontier,
        merge: &'a SlotBuffer<MergeEntry>,
        prof: &'a Profiler,
    ) -> Self {
        AwarePull {
            vsd,
            kernel,
            frontier,
            merge,
            prof,
            op: kernel.op(),
            accum: kernel.accumulators(),
            simd: kernel.simd(),
        }
    }
}

/// Chunk-local state: the paper's TLS variables (`lastDest` and its partial
/// live in `carry`) plus instrumentation.
struct AwareState {
    carry: Carry,
    direct_stores: u64,
    started: SpanClock,
    /// Interior-store audit records, buffered until the chunk *commits* in
    /// `finish_chunk`. A chunk abandoned mid-flight (worker panic on the
    /// resilient path) drops its state and therefore its records, so the
    /// retry that re-executes it reports each interior store exactly once.
    #[cfg(feature = "invariant-checks")]
    interior_stores: Vec<usize>,
}

impl<K: EdgeKernel> AwarePull<'_, K> {
    /// `StartChunk` (paper Listing 3): `first` is the chunk's first vector.
    fn start_chunk(&self, first: usize) -> AwareState {
        AwareState {
            carry: Carry::new(
                self.vsd.vectors()[first].top_level_vertex(),
                self.op.identity(),
            ),
            direct_stores: 0,
            started: SpanClock::start(),
            #[cfg(feature = "invariant-checks")]
            interior_stores: Vec::new(),
        }
    }

    /// The chunk's `LoopIteration`s over one contiguous run of vectors
    /// (paper Listing 4), fused into a single kernel call whose sink is the
    /// interior-transition store.
    #[inline]
    fn run_vectors(&self, st: &mut AwareState, range: std::ops::Range<usize>) {
        let accum = self.accum;
        let direct_stores = &mut st.direct_stores;
        #[cfg(feature = "invariant-checks")]
        let (audited, interior_stores) = (self.prof.tracker.is_some(), &mut st.interior_stores);
        let mut store_interior = |dest: u64, partial: f64| {
            // Interior transition: this chunk owns the finished
            // destination's trailing vectors, so an unsynchronized store is
            // safe (paper Listing 4). Accumulators were reset to the
            // identity, so the store *is* the combine.
            // DISJOINT: interior-owned — audited by the shadow write-tracker
            accum.set_f64(dest as usize, partial);
            #[cfg(feature = "invariant-checks")]
            if audited {
                interior_stores.push(dest as usize);
            }
            *direct_stores += 1;
        };
        // SAFETY: the kernel validated coverage of this structure's vertex
        // ids at construction (see the `EdgeKernel` safety contract).
        unsafe {
            self.kernel.pull_run(
                self.simd,
                self.vsd,
                range,
                self.frontier,
                &mut st.carry,
                &mut store_interior,
            )
        };
    }

    /// `FinishChunk` (paper Listing 5): the trailing partial goes to the
    /// merge-buffer slot the chunk owns.
    fn finish_chunk(&self, _ctx: &WorkerCtx, st: AwareState, chunk: usize) {
        #[cfg(feature = "invariant-checks")]
        if let Some(t) = self.prof.tracker.as_ref() {
            // The chunk commits: flush the buffered interior-store records
            // and claim the merge slot in one place, so an abandoned chunk
            // contributes nothing to the audit.
            for &v in &st.interior_stores {
                t.record_interior_store(v, _ctx.global_id);
            }
            t.record_slot_claim(chunk, _ctx.global_id);
        }
        let op = self.op;
        // SAFETY: the chunk scheduler hands out each chunk id exactly once,
        // so this thread is slot `chunk`'s unique writer this round.
        unsafe {
            self.merge.write(
                chunk,
                MergeEntry {
                    dest: st.carry.dest,
                    value: st.carry.reduce(|a, b| op.combine(a, b)),
                },
            )
        };
        self.prof.add(&self.prof.work_ns, st.started.elapsed_ns());
        self.prof.add(&self.prof.direct_stores, st.direct_stores);
    }

    /// Processes one chunk end-to-end through the scheduler-aware
    /// interface. `gid` is the chunk's globally unique id (= merge-buffer
    /// slot); `range` is its run of VSD vector indices, or — with an
    /// `active` list (frontier-aware path, DESIGN.md §11) — of *compacted
    /// positions*, which the list resolves to ascending runs of real
    /// indices. Every active destination's vector run is contiguous in the
    /// compacted space, so the §3 transition logic is unchanged: a gap
    /// between runs is just another destination transition, which the
    /// carried state detects.
    fn run_chunk(
        &self,
        ctx: &WorkerCtx,
        gid: usize,
        active: Option<&ActiveVectorList>,
        range: std::ops::Range<usize>,
    ) {
        match active {
            None => self.walk(ctx, gid, std::iter::once(range)),
            Some(a) => self.walk(ctx, gid, a.real_ranges(range)),
        }
    }

    #[inline]
    fn walk(
        &self,
        ctx: &WorkerCtx,
        gid: usize,
        mut runs: impl Iterator<Item = std::ops::Range<usize>>,
    ) {
        let Some(first) = runs.next() else {
            return;
        };
        let mut state = self.start_chunk(first.start);
        self.run_vectors(&mut state, first);
        for run in runs {
            self.run_vectors(&mut state, run);
        }
        self.finish_chunk(ctx, state, gid);
    }
}

/// Per-group Edge-phase schedulers: the paper's NUMA partitioning of the
/// edge vector array (§5). The VSD vector array is split into one
/// contiguous, vertex-aligned piece per thread group (NUMA-node stand-in,
/// DESIGN.md §4.2); each group's threads claim chunks only from their own
/// piece. Chunk identifiers are globally unique so the merge buffer keeps
/// one slot per chunk across all groups.
pub struct EdgeSchedulers {
    parts: Vec<grazelle_graph::partition::EdgePartition>,
    scheds: Vec<Box<dyn ChunkSource + Send + Sync>>,
    chunk_offsets: Vec<usize>,
    total_chunks: usize,
}

/// An unpartitioned iteration space of `items` vectors.
fn one_piece(items: usize) -> grazelle_graph::partition::EdgePartition {
    grazelle_graph::partition::EdgePartition {
        first_vertex: 0,
        last_vertex: 0, // vertex bounds unused by the pull driver
        edge_start: 0,
        edge_end: items,
    }
}

impl EdgeSchedulers {
    /// Partitions `vsd`'s vector array for `pool`'s group topology using
    /// `cfg`'s granularity (32 chunks per thread by default, per group) and
    /// `cfg`'s scheduler kind (central queue or locality-first stealing).
    pub fn new(cfg: &crate::config::EngineConfig, vsd: &Vsd, pool: &ThreadPool) -> Self {
        use grazelle_graph::partition::partition_index;
        use grazelle_sched::pool::group_range;
        let groups = pool.num_groups();
        let parts = partition_index(vsd.index(), groups);
        let threads = |g| group_range(g, groups, pool.num_threads()).len().max(1);
        Self::over(cfg, parts, threads)
    }

    /// One shared scheduler over a compacted (indirect) iteration space of
    /// `total` positions (DESIGN.md §11), honouring the config's
    /// granularity and scheduler kind. The compacted space is not
    /// NUMA-partitioned: every worker claims from the one piece.
    pub fn compact(cfg: &crate::config::EngineConfig, total: usize, pool: &ThreadPool) -> Self {
        Self::over(cfg, vec![one_piece(total)], |_| pool.num_threads())
    }

    /// One scheduler per piece; `threads(g)` is how many workers claim
    /// from piece `g`.
    fn over(
        cfg: &crate::config::EngineConfig,
        parts: Vec<grazelle_graph::partition::EdgePartition>,
        threads: impl Fn(usize) -> usize,
    ) -> Self {
        use grazelle_sched::stealing::LocalityScheduler;
        let mut scheds: Vec<Box<dyn ChunkSource + Send + Sync>> = Vec::with_capacity(parts.len());
        let mut chunk_offsets = Vec::with_capacity(parts.len());
        let mut total = 0usize;
        for (g, p) in parts.iter().enumerate() {
            let items = p.num_edges(); // vectors in this piece
            let threads = threads(g);
            let chunks = match cfg.granularity {
                crate::config::Granularity::Default32n => {
                    grazelle_sched::chunks::DEFAULT_CHUNKS_PER_THREAD * threads
                }
                crate::config::Granularity::VectorsPerChunk(c) => items.div_ceil(c.max(1)).max(1),
            };
            let sched: Box<dyn ChunkSource + Send + Sync> = match cfg.sched_kind {
                crate::config::SchedKind::Central => Box::new(ChunkScheduler::new(items, chunks)),
                crate::config::SchedKind::LocalityStealing => {
                    Box::new(LocalityScheduler::new(items, chunks, threads))
                }
            };
            chunk_offsets.push(total);
            total += sched.num_chunks();
            scheds.push(sched);
        }
        EdgeSchedulers {
            parts,
            scheds,
            chunk_offsets,
            total_chunks: total,
        }
    }

    /// Single-group scheduler with an explicit chunk count (tests and
    /// direct engine users).
    pub fn single(num_vectors: usize, num_chunks: usize) -> Self {
        let sched = ChunkScheduler::new(num_vectors, num_chunks);
        EdgeSchedulers {
            parts: vec![one_piece(num_vectors)],
            chunk_offsets: vec![0],
            total_chunks: sched.num_chunks(),
            scheds: vec![Box::new(sched)],
        }
    }

    /// Total chunks across all groups (merge-buffer slots needed).
    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Total vectors covered.
    pub fn num_items(&self) -> usize {
        self.parts.last().map_or(0, |p| p.edge_end)
    }

    /// Rewinds every group's scheduler for the next phase.
    pub fn reset(&self) {
        for s in &self.scheds {
            s.reset();
        }
    }

    /// What `ctx`'s worker claims chunks from: its piece's scheduler, the
    /// piece's first item, its first chunk id, and the thread id the
    /// scheduler knows the worker by — its id within the group when each
    /// group has a piece, its global id when all share one.
    #[inline]
    fn claim_for(
        &self,
        ctx: &WorkerCtx,
    ) -> (&(dyn ChunkSource + Send + Sync), usize, usize, usize) {
        let g = ctx.group_id.min(self.scheds.len() - 1);
        let thread = if self.scheds.len() == 1 {
            ctx.global_id
        } else {
            ctx.local_id
        };
        (
            &*self.scheds[g],
            self.parts[g].edge_start,
            self.chunk_offsets[g],
            thread,
        )
    }
}

/// Fault containment for one Edge-Pull phase (DESIGN.md §9). Passing
/// `None` to [`edge_pull`] is the plain phase: worker panics propagate and
/// nothing polls a deadline.
#[derive(Debug, Clone, Copy)]
pub struct Containment<'a> {
    /// Cooperative watchdog: workers test it between chunks, so a blown
    /// deadline is detected at the next chunk boundary (or after the pool
    /// joins) rather than preempting a stuck thread mid-chunk.
    pub deadline: Option<Deadline>,
    /// How often a chunk whose worker panicked is retried on the driver
    /// thread before the phase degrades to the sequential scalar pass.
    pub max_chunk_retries: u32,
    /// Deterministic fault injector; `None` injects nothing.
    pub injector: Option<&'a ExecInjector>,
}

/// Outcome of an Edge-Pull phase; always [`PullStatus::Completed`] without
/// [`Containment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullStatus {
    /// The phase completed through the parallel path (possibly after
    /// per-chunk retries); accumulators are valid.
    Completed,
    /// The watchdog deadline expired. The phase was abandoned, the merge
    /// buffer cleared, and the accumulators hold partial garbage — the
    /// driver must surface `EngineError::Stalled`, not continue.
    Stalled,
    /// The chunk-retry budget was exhausted; the phase was re-executed from
    /// scratch on the sequential scalar path. Accumulators are valid.
    Degraded,
}

/// Runs one Edge-Pull phase.
///
/// `scheds` hands out the iteration space: freshly
/// [`reset`](EdgeSchedulers::reset) schedulers over `0..vsd.num_vectors()`,
/// or — with an `active` list — [`EdgeSchedulers::compact`] over its
/// compacted positions (frontier-aware pull, DESIGN.md §11, scheduler-aware
/// mode only). The compacted phase is bit-identical to the full-array one:
/// destinations outside the list have no frontier-active in-neighbors, so
/// the dense pass would store only the operator identity they already hold.
/// `merge` is grown to one slot per chunk (only used in scheduler-aware
/// mode).
///
/// `contain` adds per-chunk panic isolation and retry, the cooperative
/// watchdog, and the sequential degrade path. It requires the
/// scheduler-aware interface — chunk retry is only sound under its write
/// discipline: a chunk that dies mid-flight has made no commitment other
/// than idempotent interior stores (plain overwrites of destinations it
/// exclusively owns), and its merge-buffer slot is written only at commit
/// time in `finish_chunk`, so re-executing the chunk on any surviving
/// thread reproduces the lost work exactly (DESIGN.md §9).
#[allow(clippy::too_many_arguments)]
pub fn edge_pull<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    pool: &ThreadPool,
    scheds: &EdgeSchedulers,
    active: Option<&ActiveVectorList>,
    merge: &mut SlotBuffer<MergeEntry>,
    mode: PullMode,
    contain: Option<&Containment<'_>>,
    prof: &Profiler,
) -> PullStatus {
    let items = active.map_or(vsd.num_vectors(), |a| a.total_vectors());
    assert_eq!(scheds.num_items(), items, "scheduler/VSD mismatch");
    let op = kernel.op();
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();

    if mode != PullMode::SchedulerAware {
        assert!(
            active.is_none() && contain.is_none(),
            "compaction and containment need the scheduler-aware interface"
        );
        let accum = kernel.accumulators();
        let identity = op.identity().to_bits();
        let simd = kernel.simd();
        let write_intense = kernel.write_intense();
        pool.run(|ctx| {
            let started = SpanClock::start();
            let mut updates = 0u64;
            let (sched, base, _, thread) = scheds.claim_for(ctx);
            while let Some(chunk) = sched.next_chunk_for(thread) {
                for i in base + chunk.range.start..base + chunk.range.end {
                    // The same kernel on a one-vector run: nothing is
                    // kept across vectors, so each one costs a
                    // shared-memory update (what Figures 5/8 measure).
                    let dst = vsd.vectors()[i].top_level_vertex();
                    let mut carry = Carry::new(dst, op.identity());
                    // SAFETY: coverage validated at kernel construction.
                    unsafe {
                        kernel.pull_run(simd, vsd, i..i + 1, frontier, &mut carry, &mut |_, _| {})
                    };
                    let contrib = carry.reduce(|a, b| op.combine(a, b));
                    if contrib.to_bits() == identity {
                        // No enabled lane (converged destination or no
                        // active source): nothing to scatter.
                        continue;
                    }
                    updates += 1;
                    if mode == PullMode::Traditional {
                        scatter_combine(op, write_intense, accum, dst as usize, contrib)
                    } else {
                        accum.combine_nonatomic_f64(dst as usize, contrib, |a, b| op.combine(a, b));
                    }
                }
            }
            prof.add(&prof.work_ns, started.elapsed_ns());
            let counter = if mode == PullMode::Traditional {
                &prof.atomic_updates
            } else {
                &prof.nonatomic_updates
            };
            prof.add(counter, updates);
        });
        prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);
        prof.add(&prof.vectors_processed, items as u64);
        return PullStatus::Completed;
    }

    merge.ensure_len(scheds.total_chunks());
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        // On the Stalled/Degraded exits below this phase is simply left
        // open and never asserted; the next `begin_phase` discards it.
        t.begin_phase(vsd.num_vertices(), scheds.total_chunks());
        if let Some(a) = active {
            // The audit then catches any interior store outside the
            // compacted subset.
            t.restrict_to_active(
                a.ranges()
                    .iter()
                    .flat_map(|r| r.clone())
                    .map(|i| vsd.vectors()[i].top_level_vertex() as usize),
            );
        }
    }
    let injector = contain.and_then(|c| c.injector);
    let deadline = contain.and_then(|c| c.deadline);
    // A deadline that has passed stays passed, so every test below is of
    // the same fact: a worker that sees it just returns.
    let expired = || deadline.is_some_and(|dl| dl.expired());

    // What the parallel portion concluded, in the vocabulary of the result;
    // the `&mut` merge-buffer operations (clear/fold) happen after it, once
    // the shared borrows held by the chunk processor are gone.
    let verdict = {
        let loop_ = AwarePull::new(vsd, kernel, frontier, merge, prof);
        let attempt = |ctx: &WorkerCtx, gid: usize, range: &std::ops::Range<usize>| {
            // RECOVERY: a chunk that panics mid-flight has written nothing
            // another thread depends on — its merge slot is only claimed at
            // commit time in `finish_chunk`, and any interior stores it
            // issued are plain overwrites of destinations it exclusively
            // owns. Its range (dense or compacted) identifies the work
            // exactly and a retry starts from `start_chunk` state, so a
            // clean attempt fully reproduces the lost work and one that
            // panics again still commits nothing. Catching keeps the worker
            // alive to drain the rest of the queue; the failed chunk is
            // queued for the driver thread to retry.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = injector {
                    inj.maybe_panic_chunk(gid);
                }
                loop_.run_chunk(ctx, gid, active, range.clone());
            }));
            if outcome.is_err() {
                prof.add(&prof.chunk_panics, 1);
            }
            outcome.is_ok()
        };
        let failed: Mutex<Vec<(usize, std::ops::Range<usize>)>> = Mutex::new(Vec::new());
        // Group-partitioned drive: each worker claims chunks from its own
        // group's piece of the iteration space, processing them through the
        // scheduler-aware interface (paper Figure 3).
        let worker = |ctx: &WorkerCtx| {
            if let Some(inj) = injector {
                inj.maybe_stall(ctx.global_id);
            }
            let (sched, base, id_base, thread) = scheds.claim_for(ctx);
            while !expired() {
                let Some(chunk) = sched.next_chunk_for(thread) else {
                    break;
                };
                if chunk.range.is_empty() {
                    continue;
                }
                let range = base + chunk.range.start..base + chunk.range.end;
                let gid = id_base + chunk.id;
                if contain.is_none() {
                    loop_.run_chunk(ctx, gid, active, range);
                } else if !attempt(ctx, gid, &range) {
                    let mut failed = failed.lock().expect("failed-chunk list lock poisoned");
                    failed.push((gid, range));
                }
            }
        };
        // A worker that dies outside the per-chunk containment (e.g. in the
        // scheduler itself) leaves unknowable unclaimed chunks, so a
        // contained phase goes straight to the degrade path, which redoes
        // the whole phase; a plain one re-raises.
        let mut exhausted = match contain {
            None => {
                pool.run(worker);
                false
            }
            Some(_) => pool.run_result(worker).is_err(),
        };
        // Retry failed chunks on this (surviving) thread, in order.
        let failed = failed
            .into_inner()
            .expect("failed-chunk list lock poisoned");
        let retry_ctx = WorkerCtx {
            global_id: 0,
            group_id: 0,
            local_id: 0,
            num_threads: pool.num_threads(),
            num_groups: pool.num_groups(),
        };
        for (gid, range) in &failed {
            let mut attempts = 0;
            while !exhausted && !expired() {
                if attempts >= contain.map_or(0, |c| c.max_chunk_retries) {
                    exhausted = true;
                    break;
                }
                attempts += 1;
                prof.add(&prof.chunk_retries, 1);
                if attempt(&retry_ctx, *gid, range) {
                    break;
                }
            }
        }
        if expired() {
            PullStatus::Stalled
        } else if exhausted {
            PullStatus::Degraded
        } else {
            PullStatus::Completed
        }
    };

    match verdict {
        PullStatus::Stalled => merge.clear(),
        PullStatus::Degraded => {
            // Discard all partial state and redo the phase sequentially
            // over the *full* array — one plain store per destination, no
            // merge buffer, no other threads, trivially exactly-once, and
            // bit-identical to a compacted pass too (inactive destinations
            // aggregate a zero lane mask, i.e. the identity they hold). The
            // abandoned parallel attempt's imbalance is absorbed into the
            // redo's wall, which is the honest reading (no thread was
            // waiting during the scalar redo).
            merge.clear();
            let done = sequential_edge_redo(
                vsd,
                kernel,
                frontier,
                deadline,
                prof,
                wall,
                work_before,
                || {},
            );
            prof.add(&prof.vectors_processed, vsd.num_vectors() as u64);
            if !done {
                return PullStatus::Stalled;
            }
        }
        PullStatus::Completed => {
            prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);
            merge_fold(kernel.accumulators(), op, merge, prof);
            // Audit the §3 contract for this Edge phase: interior
            // destinations stored exactly once, slots claimed by one thread,
            // boundary partials folded exactly once — even after panics and
            // retries (abandoned chunks recorded nothing, retried chunks
            // recorded exactly once).
            #[cfg(feature = "invariant-checks")]
            if let Some(t) = prof.tracker.as_ref() {
                t.end_phase().assert_clean();
            }
            prof.add(&prof.vectors_processed, items as u64);
        }
    }
    verdict
}

/// Builds the per-iteration active vector list for the frontier-aware pull
/// path (DESIGN.md §11): a destination is *active* when at least one of its
/// in-neighbors is in the frontier (found by scanning the frontier-active
/// sources' out-edges in the VSS orientation) and it has not converged.
/// O(sum of active sources' out-degrees + |V|/64), independent of the full
/// edge array.
pub fn active_vector_list(
    vsd: &Vsd,
    vss: &Vss,
    frontier: &Frontier,
    converged: Option<&crate::frontier::DenseBitmap>,
) -> ActiveVectorList {
    let n = vsd.num_vertices();
    let mut dest_bits = vec![0u64; n.div_ceil(64)];
    let mut mark_out_neighbors = |s: u32| {
        for i in vss.vector_range(s) {
            for nb in vss.vectors()[i].valid_neighbors() {
                dest_bits[nb as usize / 64] |= 1 << (nb % 64);
            }
        }
    };
    match frontier {
        Frontier::All { .. } => dest_bits.fill(!0),
        Frontier::Dense(bm) => bm.iter().for_each(&mut mark_out_neighbors),
        Frontier::Sparse { vertices, .. } => {
            vertices.iter().copied().for_each(&mut mark_out_neighbors)
        }
    }
    if let Some(c) = converged {
        for (w, cw) in dest_bits.iter_mut().zip(c.words()) {
            // ATOMIC: relaxed-cell — converged-bitmap snapshot between phases
            *w &= !cw.load(Ordering::Relaxed);
        }
    }
    let active = dest_bits.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as u64;
            w &= w - 1;
            Some(wi as u64 * 64 + bit)
        })
        .filter(|&v| v < n as u64)
    });
    ActiveVectorList::from_active(vsd.index(), active)
}

/// The sequential merge pass (paper Listing 6): folds every boundary
/// partial in the merge buffer into its destination accumulator. "Executes
/// sequentially in our implementation because it is extremely fast."
pub(super) fn merge_fold(
    accum: &PropertyArray,
    op: AggOp,
    merge: &mut SlotBuffer<MergeEntry>,
    prof: &Profiler,
) {
    let merge_start = SpanClock::start();
    let identity = op.identity();
    let mut entries = 0u64;
    for (_chunk, e) in merge.drain() {
        #[cfg(feature = "invariant-checks")]
        if let Some(t) = prof.tracker.as_ref() {
            t.record_fold(_chunk);
        }
        if e.value != identity || (op == AggOp::Sum && e.value.to_bits() != 0) {
            let cur = accum.get_f64(e.dest as usize);
            // DISJOINT: sequential-merge — the fold runs single-threaded
            accum.set_f64(e.dest as usize, op.combine(cur, e.value));
            entries += 1;
        }
    }
    prof.add(&prof.merge_entries, entries);
    prof.add(&prof.merge_ns, merge_start.elapsed_ns());
}

/// The degrade path of every contained Edge phase (pull, push or overlay
/// fold): counts the degraded iteration, discards whatever the failed
/// parallel attempt left in the accumulators, and recomputes the base
/// aggregate with [`scalar_pull_pass`] — for any frontier,
/// push-from-active-sources and pull-masked-to-active-sources produce the
/// same per-destination aggregate. `then` runs after the pass (the overlay
/// fold's sequential redo). The phase's wall is charged from `wall` at
/// effective parallelism 1, so a degraded iteration reports no phantom idle
/// threads. Returns `false` if `deadline` expired mid-pass.
#[allow(clippy::too_many_arguments)]
pub(super) fn sequential_edge_redo<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    deadline: Option<Deadline>,
    prof: &Profiler,
    wall: SpanClock,
    work_before: u64,
    then: impl FnOnce(),
) -> bool {
    prof.add(&prof.degraded_iterations, 1);
    // DISJOINT: sequential-merge — degrade-path reset, single-threaded
    kernel
        .accumulators()
        .fill_range_f64(0..vsd.num_vertices(), kernel.op().identity());
    let done = scalar_pull_pass(vsd, kernel, frontier, deadline, prof);
    then();
    prof.finish_edge_phase(wall.elapsed_ns(), 1, work_before);
    done
}

/// Vectors the degrade path walks between two deadline polls.
const SCALAR_PASS_SLICE: usize = 4096;

/// The degrade path: one sequential pass over the whole VSD array through
/// the kernel's *scalar* pull run, writing each destination's aggregate
/// with a single plain store. Used when the parallel path cannot make
/// progress (retry budget exhausted) and as the Edge-Push fallback.
/// Accumulators must hold the operator identity on entry. Returns `false`
/// if `deadline` expired mid-pass (polled every [`SCALAR_PASS_SLICE`]
/// vectors). The pass's time counts as Edge-phase *work* (at parallelism
/// 1); the caller owns the phase's wall/idle accounting.
pub(crate) fn scalar_pull_pass<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    deadline: Option<Deadline>,
    prof: &Profiler,
) -> bool {
    let vectors = vsd.vectors();
    if vectors.is_empty() {
        return true;
    }
    let started = SpanClock::start();
    let op = kernel.op();
    let accum = kernel.accumulators();
    let mut carry = Carry::new(vectors[0].top_level_vertex(), op.identity());
    let mut store = |dest: u64, aggregate: f64| {
        // DISJOINT: sequential-merge — scalar pass, single-threaded
        accum.set_f64(dest as usize, aggregate);
    };
    let mut done = true;
    for slice in (0..vectors.len()).step_by(SCALAR_PASS_SLICE) {
        if deadline.is_some_and(|dl| dl.expired()) {
            done = false;
            break;
        }
        let end = (slice + SCALAR_PASS_SLICE).min(vectors.len());
        // SAFETY: coverage validated at kernel construction.
        unsafe {
            kernel.pull_run(
                SimdLevel::Scalar,
                vsd,
                slice..end,
                frontier,
                &mut carry,
                &mut store,
            )
        };
    }
    if done {
        store(carry.dest, carry.reduce(|a, b| op.combine(a, b)));
    }
    prof.add(&prof.work_ns, started.elapsed_ns());
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ExecFaultPlan;
    use crate::frontier::DenseBitmap;
    use crate::program::GraphProgram;
    use crate::spmv::program_kernel;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::{Kernels, SimdLevel};

    struct SumProg {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl GraphProgram for SumProg {
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
            false
        }
        fn uses_frontier(&self) -> bool {
            false
        }
    }

    fn star_plus_chain(n: usize) -> Graph {
        // Vertex 0 receives an edge from every other vertex (hub), plus a
        // chain i -> i+1 to create many distinct destinations.
        let mut el = EdgeList::new(n);
        for v in 1..n as u32 {
            el.push(v, 0).unwrap();
        }
        for v in 0..(n - 1) as u32 {
            el.push(v, v + 1).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    fn expected_in_sums(g: &Graph, vals: &[f64]) -> Vec<f64> {
        (0..g.num_vertices() as u32)
            .map(|v| g.in_neighbors(v).iter().map(|&s| vals[s as usize]).sum())
            .collect()
    }

    fn run_mode(mode: PullMode, simd: SimdLevel, threads: usize, chunks: usize) {
        let g = star_plus_chain(97);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let vals = PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, (v % 13) as f64 + 0.5);
        }
        let prog = SumProg {
            vals,
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(threads);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), chunks);
        let mut merge = SlotBuffer::new(sched.total_chunks());
        let prof = Profiler::new();
        let frontier = Frontier::all(n);
        let kern = program_kernel(&prog, &vsd, Kernels::with_level(simd));
        edge_pull(
            &vsd, &kern, &frontier, &pool, &sched, None, &mut merge, mode, None, &prof,
        );
        let expect = expected_in_sums(&g, &prog.vals.to_vec_f64());
        for (v, want) in expect.iter().enumerate() {
            assert!(
                (prog.acc.get_f64(v) - want).abs() < 1e-9,
                "{mode:?}/{simd:?} vertex {v}: got {} want {}",
                prog.acc.get_f64(v),
                want
            );
        }
    }

    #[test]
    fn scheduler_aware_scalar_matches_reference() {
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 4, 13);
    }

    #[test]
    fn scheduler_aware_simd_matches_reference() {
        run_mode(
            PullMode::SchedulerAware,
            grazelle_vsparse::simd::detect(),
            3,
            7,
        );
    }

    #[test]
    fn traditional_matches_reference() {
        run_mode(PullMode::Traditional, SimdLevel::Scalar, 4, 13);
    }

    #[test]
    fn traditional_single_thread_nonatomic_matches_reference() {
        // With one thread there are no races, so nonatomic must be exact.
        run_mode(PullMode::TraditionalNoAtomic, SimdLevel::Scalar, 1, 13);
    }

    #[test]
    fn single_chunk_and_chunk_per_vector_both_work() {
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 2, 1);
        let g = star_plus_chain(50);
        let vecs = VectorSparse::<4>::from_csr(g.in_csr()).num_vectors();
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 2, vecs);
    }

    #[test]
    fn scheduler_aware_performs_no_synchronized_updates() {
        let g = star_plus_chain(200);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(4);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 16);
        let mut merge = SlotBuffer::new(16);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::with_level(SimdLevel::Scalar));
        edge_pull(
            &vsd,
            &kern,
            &Frontier::all(n),
            &pool,
            &sched,
            None,
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        let p = prof.snapshot();
        assert_eq!(p.atomic_updates, 0, "scheduler-aware must not synchronize");
        assert_eq!(p.nonatomic_updates, 0);
        assert!(p.direct_stores > 0, "interior transitions expected");
        assert!(p.merge_entries > 0, "chunk boundaries expected");
        // Shared-memory writes bounded by vertices + chunks, far below the
        // per-vector traffic of the traditional interface.
        assert!(p.direct_stores + p.merge_entries <= (n + 16) as u64);
    }

    #[test]
    fn frontier_masks_inactive_sources() {
        let g = star_plus_chain(64);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        // Only even vertices active.
        let active: Vec<u32> = (0..n as u32).filter(|v| v % 2 == 0).collect();
        let frontier = Frontier::from_vertices(n, &active);
        let pool = ThreadPool::single_group(2);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 5);
        let mut merge = SlotBuffer::new(5);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            &pool,
            &sched,
            None,
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        for v in 0..n as u32 {
            let expect: f64 = g.in_neighbors(v).iter().filter(|&&s| s % 2 == 0).count() as f64;
            assert_eq!(prog.acc.get_f64(v as usize), expect, "vertex {v}");
        }
    }

    /// Weave checks for the `invariant-checks` shadow tracker: the real
    /// scheduler is silent; deliberately broken chunk sources are caught.
    #[cfg(feature = "invariant-checks")]
    mod tracker_weave {
        use super::*;
        use grazelle_sched::chunks::Chunk;
        use std::sync::atomic::AtomicUsize;

        /// Broken scheduler: hands out `dups` chunks covering the *entire*
        /// iteration space, so every interior destination is stored once
        /// per claimed chunk. With distinct ids the merge buffer stays
        /// happy (distinct slots) — only the tracker can see the bug.
        struct OverlappingSource {
            next: AtomicUsize,
            items: usize,
            dups: usize,
            same_id: bool,
        }
        impl ChunkSource for OverlappingSource {
            fn next_chunk_for(&self, _thread: usize) -> Option<Chunk> {
                let n = self.next.fetch_add(1, Ordering::Relaxed);
                (n < self.dups).then_some(Chunk {
                    id: if self.same_id { 0 } else { n },
                    range: 0..self.items,
                })
            }
            fn num_chunks(&self) -> usize {
                self.dups
            }
            fn num_items(&self) -> usize {
                self.items
            }
            fn reset(&self) {
                self.next.store(0, Ordering::Relaxed);
            }
        }

        fn broken_scheds(items: usize, same_id: bool) -> EdgeSchedulers {
            EdgeSchedulers {
                parts: vec![grazelle_graph::partition::EdgePartition {
                    first_vertex: 0,
                    last_vertex: 0,
                    edge_start: 0,
                    edge_end: items,
                }],
                scheds: vec![Box::new(OverlappingSource {
                    next: AtomicUsize::new(0),
                    items,
                    dups: 2,
                    same_id,
                })],
                chunk_offsets: vec![0],
                total_chunks: 2,
            }
        }

        fn run_with(scheds: &EdgeSchedulers, prof: &Profiler) {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let n = g.num_vertices();
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::single_group(2);
            let mut merge = SlotBuffer::new(scheds.total_chunks());
            let kern = program_kernel(&prog, &vsd, Kernels::with_level(SimdLevel::Scalar));
            edge_pull(
                &vsd,
                &kern,
                &Frontier::all(n),
                &pool,
                scheds,
                None,
                &mut merge,
                PullMode::SchedulerAware,
                None,
                prof,
            );
        }

        #[test]
        fn tracker_is_silent_and_engaged_on_the_real_scheduler() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = EdgeSchedulers::single(vsd.num_vectors(), 9);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
            let t = prof.tracker.as_ref().expect("tracker installed");
            assert_eq!(t.phases_checked(), 1, "the Edge phase must be audited");
        }

        /// A scheduler that hands the same iteration range out twice under
        /// *distinct* chunk ids double-stores every interior destination.
        /// The merge buffer cannot see this; the tracker must.
        #[test]
        #[should_panic(expected = "exactly-once-write contract violated")]
        fn overlapping_chunk_ranges_trip_the_tracker() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = broken_scheds(vsd.num_vectors(), false);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
        }

        /// A kernel whose pull run hands every finished destination to the
        /// engine's sink twice. The sink is where the fused path performs
        /// (and records) the interior store, so the audit must see both.
        struct EchoingKernel<'a>(crate::spmv::SemiringKernel<'a>);
        impl EdgeKernel for EchoingKernel<'_> {
            fn op(&self) -> AggOp {
                self.0.op()
            }
            fn accumulators(&self) -> &PropertyArray {
                self.0.accumulators()
            }
            // SAFETY: forwarded caller contract.
            unsafe fn pull_run<S: FnMut(u64, f64)>(
                &self,
                simd: SimdLevel,
                vsd: &Vsd,
                range: std::ops::Range<usize>,
                frontier: &Frontier,
                carry: &mut Carry,
                sink: &mut S,
            ) {
                let mut twice = |dest: u64, aggregate: f64| {
                    sink(dest, aggregate);
                    sink(dest, aggregate);
                };
                // SAFETY: forwarded caller contract.
                unsafe {
                    self.0
                        .pull_run(simd, vsd, range, frontier, carry, &mut twice)
                }
            }
            // SAFETY: never dereferences anything.
            unsafe fn gather8(
                &self,
                _ev: &grazelle_vsparse::vector::EdgeVector<8>,
                _vector_index: usize,
                _mask: u32,
            ) -> f64 {
                unreachable!("4-lane test kernel")
            }
            fn message(&self, src: u32, dst: u32, weight: f64) -> f64 {
                self.0.message(src, dst, weight)
            }
        }

        /// The fused path's interior stores happen inside the kernel's
        /// sink; a destination stored twice there must trip the audit just
        /// as a double store in the old per-vector loop did.
        #[test]
        #[should_panic(expected = "exactly-once-write contract violated")]
        fn double_interior_store_in_the_sink_trips_the_tracker() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let n = g.num_vertices();
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::single_group(2);
            let scheds = EdgeSchedulers::single(vsd.num_vectors(), 9);
            let mut merge = SlotBuffer::new(scheds.total_chunks());
            let kern = EchoingKernel(program_kernel(&prog, &vsd, Kernels::auto()));
            edge_pull(
                &vsd,
                &kern,
                &Frontier::all(n),
                &pool,
                &scheds,
                None,
                &mut merge,
                PullMode::SchedulerAware,
                None,
                &Profiler::with_tracker(),
            );
        }

        /// A scheduler that hands the same chunk *id* to two claimants hits
        /// the merge buffer's write-once guard inside a worker; the pool
        /// re-raises the panic.
        #[test]
        #[should_panic(expected = "worker thread panicked")]
        fn duplicate_chunk_id_trips_the_slot_guard() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = broken_scheds(vsd.num_vectors(), true);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
        }
    }

    /// Runs the dense scheduler-aware pull and the compacted frontier-aware
    /// pull on the same program state and asserts bit-identical
    /// accumulators.
    fn assert_compact_matches_dense(n: usize, frontier: &Frontier, threads: usize) {
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let vals = PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, (v % 17) as f64 + 0.25);
        }
        let mk = |vals: &PropertyArray| {
            let copy = PropertyArray::new(n);
            for v in 0..n {
                copy.set_f64(v, vals.get_f64(v));
            }
            SumProg {
                vals: copy,
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            }
        };
        let pool = ThreadPool::single_group(threads);
        let cfg = crate::config::EngineConfig::new().with_threads(threads);

        let dense = mk(&vals);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 11);
        let mut merge = SlotBuffer::new(sched.total_chunks());
        let prof = Profiler::new();
        let kern = program_kernel(&dense, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            frontier,
            &pool,
            &sched,
            None,
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );

        let compact = mk(&vals);
        let active = active_vector_list(&vsd, &vss, frontier, None);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::new();
        let kern = program_kernel(&compact, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            frontier,
            &pool,
            &EdgeSchedulers::compact(&cfg, active.total_vectors(), &pool),
            Some(&active),
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        for v in 0..n {
            assert_eq!(
                dense.acc.get_f64(v).to_bits(),
                compact.acc.get_f64(v).to_bits(),
                "vertex {v} diverges between dense and compact pull"
            );
        }
    }

    #[test]
    fn compact_pull_is_bit_identical_to_dense_pull() {
        let n = 97;
        let sparse: Vec<u32> = (0..n as u32).filter(|v| v % 7 == 0).collect();
        assert_compact_matches_dense(n, &Frontier::from_vertices(n, &sparse), 4);
        assert_compact_matches_dense(n, &Frontier::sparse(n, &sparse), 2);
        assert_compact_matches_dense(n, &Frontier::all(n), 3);
        assert_compact_matches_dense(n, &Frontier::from_vertices(n, &[5]), 1);
    }

    #[test]
    fn compact_pull_handles_an_empty_active_set() {
        let n = 32;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let frontier = Frontier::empty(n);
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        assert!(active.is_empty());
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            &pool,
            &EdgeSchedulers::compact(&cfg, active.total_vectors(), &pool),
            Some(&active),
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        for v in 0..n {
            assert_eq!(prog.acc.get_f64(v), 0.0, "vertex {v} written");
        }
    }

    #[test]
    fn active_vector_list_covers_exactly_the_reachable_destinations() {
        let n = 60;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        // Only vertex 3 active: its out-edges are 3 -> 0 (hub) and 3 -> 4.
        let frontier = Frontier::from_vertices(n, &[3]);
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        assert_eq!(active.active_vertices(), 2);
        let expect: usize = vsd.vector_range(0).len() + vsd.vector_range(4).len();
        assert_eq!(active.total_vectors(), expect);
        // Converged destinations drop out of the list.
        let conv = DenseBitmap::new(n);
        conv.insert(0);
        let pruned = active_vector_list(&vsd, &vss, &frontier, Some(&conv));
        assert_eq!(pruned.active_vertices(), 1);
        assert_eq!(pruned.total_vectors(), vsd.vector_range(4).len());
    }

    /// Containment over both iteration spaces from one body: a clean
    /// contained phase, a chunk panic that is retried, a chunk that
    /// exhausts the retry budget (sequential degrade) and an expired
    /// watchdog, each over the dense array and over the compacted list.
    /// Every non-stalled outcome is bit-identical to the plain dense phase.
    #[test]
    fn containment_covers_both_iteration_spaces() {
        let n = 97;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let actives: Vec<u32> = (0..n as u32).filter(|v| v % 5 == 0).collect();
        let frontier = Frontier::from_vertices(n, &actives);
        let mk = || SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);
        let dense = EdgeSchedulers::single(vsd.num_vectors(), 9);

        let reference = mk();
        let mut merge = SlotBuffer::new(dense.total_chunks());
        let kern = program_kernel(&reference, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            &pool,
            &dense,
            None,
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &Profiler::new(),
        );

        let active = active_vector_list(&vsd, &vss, &frontier, None);
        let compact = EdgeSchedulers::compact(&cfg, active.total_vectors(), &pool);
        let expired = Deadline::after(std::time::Duration::ZERO);
        for (space, scheds, list) in [
            ("dense", &dense, None),
            ("compact", &compact, Some(&active)),
        ] {
            for (what, plan, deadline, want) in [
                ("clean", ExecFaultPlan::clean(), None, PullStatus::Completed),
                (
                    "retry",
                    ExecFaultPlan::clean().with_chunk_panic(0, 0, 1),
                    None,
                    PullStatus::Completed,
                ),
                (
                    "degrade",
                    ExecFaultPlan::clean().with_chunk_panic(0, 0, 10),
                    None,
                    PullStatus::Degraded,
                ),
                (
                    "watchdog",
                    ExecFaultPlan::clean(),
                    Some(expired),
                    PullStatus::Stalled,
                ),
            ] {
                let prog = mk();
                let inj = ExecInjector::new(plan);
                inj.set_iteration(0);
                scheds.reset();
                let mut merge = SlotBuffer::new(1);
                let prof = Profiler::new();
                let kern = program_kernel(&prog, &vsd, Kernels::auto());
                let status = edge_pull(
                    &vsd,
                    &kern,
                    &frontier,
                    &pool,
                    scheds,
                    list,
                    &mut merge,
                    PullMode::SchedulerAware,
                    Some(&Containment {
                        deadline,
                        max_chunk_retries: cfg.resilience.max_chunk_retries,
                        injector: Some(&inj),
                    }),
                    &prof,
                );
                assert_eq!(status, want, "{space}/{what}");
                assert_eq!(
                    merge.drain().count(),
                    0,
                    "{space}/{what}: merge buffer left full"
                );
                let p = prof.snapshot();
                assert_eq!(
                    p.chunk_retries > 0,
                    what == "retry" || what == "degrade",
                    "{space}/{what}"
                );
                assert_eq!(
                    p.degraded_iterations,
                    u64::from(what == "degrade"),
                    "{space}/{what}"
                );
                if status == PullStatus::Stalled {
                    continue; // accumulators hold partial garbage by contract
                }
                // A degraded phase walked the full array, whatever space it
                // started on.
                let walked = if status == PullStatus::Degraded {
                    vsd.num_vectors()
                } else {
                    scheds.num_items()
                };
                assert_eq!(p.vectors_processed, walked as u64, "{space}/{what}");
                assert_eq!(
                    prog.acc.to_vec_u64(),
                    reference.acc.to_vec_u64(),
                    "{space}/{what}"
                );
            }
        }
    }

    #[cfg(feature = "invariant-checks")]
    #[test]
    fn compact_pull_is_audited_with_the_active_subset_restriction() {
        let n = 80;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let actives: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 0).collect();
        let frontier = Frontier::from_vertices(n, &actives);
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::with_tracker();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            &pool,
            &EdgeSchedulers::compact(&cfg, active.total_vectors(), &pool),
            Some(&active),
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        let t = prof.tracker.as_ref().expect("tracker installed");
        assert_eq!(t.phases_checked(), 1, "the compacted phase must be audited");
    }

    #[test]
    fn converged_destinations_receive_nothing() {
        let g = star_plus_chain(40);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        struct ConvProg {
            inner: SumProg,
            conv: DenseBitmap,
        }
        impl GraphProgram for ConvProg {
            fn num_vertices(&self) -> usize {
                self.inner.n
            }
            fn op(&self) -> AggOp {
                AggOp::Sum
            }
            fn edge_values(&self) -> &PropertyArray {
                &self.inner.vals
            }
            fn accumulators(&self) -> &PropertyArray {
                &self.inner.acc
            }
            fn apply(&self, _v: u32) -> bool {
                false
            }
            fn uses_frontier(&self) -> bool {
                false
            }
            fn converged(&self) -> Option<&DenseBitmap> {
                Some(&self.conv)
            }
        }
        let conv = DenseBitmap::new(n);
        conv.insert(0); // the hub: normally receives n-1 messages
        let prog = ConvProg {
            inner: SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            },
            conv,
        };
        let pool = ThreadPool::single_group(2);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 4);
        let mut merge = SlotBuffer::new(4);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &Frontier::all(n),
            &pool,
            &sched,
            None,
            &mut merge,
            PullMode::SchedulerAware,
            None,
            &prof,
        );
        assert_eq!(prog.inner.acc.get_f64(0), 0.0, "converged hub got data");
        assert_eq!(prog.inner.acc.get_f64(1), 1.0); // chain edge 0 -> 1
    }
}
