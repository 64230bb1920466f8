//! Execution statistics and the Figure 5b phase profile.
//!
//! The paper generated its execution-time breakdown with `perf` traces;
//! this reproduction instruments the engine directly (DESIGN.md §4.5). The
//! decomposition mirrors Figure 5b's categories:
//!
//! * **work** — time threads spend executing Edge-phase chunks,
//! * **merge** — the sequential merge-buffer fold (scheduler-aware only),
//! * **write** — the Vertex phase (local updates / final writes),
//! * **idle** — Edge-phase wall time not covered by work (load imbalance /
//!   barrier waits), charged per phase from that phase's *effective*
//!   parallelism: a phase that ran on one thread (the §9 degraded scalar
//!   path) contributes `wall × 1 − work ≈ 0`, not `wall × threads − work`.
//!
//! Write-traffic counters additionally separate the three update
//! disciplines so tests can assert the paper's central claim mechanically:
//! the scheduler-aware engine performs *zero* synchronized updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Thread-safe accumulation of one run's timing and traffic counters.
///
/// Under the `invariant-checks` feature the profiler can additionally carry
/// a `grazelle_sched::invariants::WriteTracker`: the pull
/// engines record every interior store, merge-slot claim, and merge fold
/// into it and audit the §3 exactly-once-write contract after each Edge
/// phase. The field rides on the profiler because the profiler is already
/// threaded through every engine entry point.
#[derive(Debug, Default)]
pub struct Profiler {
    /// Shadow write-tracker (engaged when `Some`; see
    /// [`Profiler::with_tracker`]).
    #[cfg(feature = "invariant-checks")]
    pub tracker: Option<grazelle_sched::invariants::WriteTracker>,
    /// Summed per-thread time inside Edge-phase chunk processing (ns).
    pub work_ns: AtomicU64,
    /// Sequential merge-pass time (ns).
    pub merge_ns: AtomicU64,
    /// Vertex-phase wall time (ns).
    pub write_ns: AtomicU64,
    /// Edge-phase wall time (ns).
    pub edge_wall_ns: AtomicU64,
    /// Edge-phase idle time (ns): per phase, `wall × effective parallelism
    /// − work accrued during the phase` (see
    /// [`finish_edge_phase`](Profiler::finish_edge_phase)).
    pub idle_ns: AtomicU64,
    /// Synchronized (CAS-loop) accumulator updates.
    pub atomic_updates: AtomicU64,
    /// Unsynchronized read-modify-write updates (Traditional-Nonatomic).
    pub nonatomic_updates: AtomicU64,
    /// Direct stores at interior vertex transitions (scheduler-aware).
    pub direct_stores: AtomicU64,
    /// Merge-buffer entries folded by the merge pass.
    pub merge_entries: AtomicU64,
    /// Edge vectors processed across all Edge phases.
    pub vectors_processed: AtomicU64,
    /// Edge-Push per-edge updates.
    pub push_updates: AtomicU64,
    /// Messages appended to SPA scatter buckets (DESIGN.md §17). Every
    /// bucketed message is also counted in `push_updates` (the two tallies
    /// are equal for an SPA phase), so this tracks bucket occupancy, not
    /// additional write traffic — it stays out of
    /// [`PhaseProfile::total_updates`].
    pub spa_bucket_entries: AtomicU64,
    /// Destination chunks whose SPA buckets held at least one message.
    pub spa_chunks_touched: AtomicU64,
    /// Touched-list entries walked by sparse Vertex phases (DESIGN.md §18);
    /// supersteps that ran the dense sweep add nothing.
    pub vertex_touched: AtomicU64,
    /// Supersteps that skipped the accumulator reset because the previous
    /// sparse Vertex phase left every accumulator at the identity.
    pub acc_resets_skipped: AtomicU64,
    /// Supersteps whose frontier was one bucket of the priority schedule
    /// (DESIGN.md §18).
    pub bucket_steps: AtomicU64,
    /// Active vertices held back in later buckets, summed over those
    /// supersteps.
    pub held_back: AtomicU64,
    /// Chunks re-executed after their worker panicked (resilient path).
    pub chunk_retries: AtomicU64,
    /// Worker panics observed and contained by the resilient path.
    pub chunk_panics: AtomicU64,
    /// Iterations that fell back to the scalar single-thread path after the
    /// chunk-retry budget was exhausted (`DegradedMode`).
    pub degraded_iterations: AtomicU64,
    /// Checkpoints written during the run.
    pub checkpoints_written: AtomicU64,
    /// Runs resumed from an on-disk checkpoint (0 or 1 per run).
    pub checkpoint_restores: AtomicU64,
    /// Iterations rolled back to the last-good iterate by the NaN/Inf
    /// divergence guard.
    pub divergence_rollbacks: AtomicU64,
}

impl Profiler {
    /// Fresh, zeroed profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Fresh profiler with the shadow write-tracker engaged: every
    /// scheduler-aware Edge phase driven with this profiler is audited
    /// against the §3 exactly-once-write contract and panics on violation.
    #[cfg(feature = "invariant-checks")]
    pub fn with_tracker() -> Self {
        Profiler {
            tracker: Some(grazelle_sched::invariants::WriteTracker::new()),
            ..Profiler::default()
        }
    }

    /// Relaxed add onto one of this profiler's counters.
    #[inline]
    pub fn add(&self, counter: &AtomicU64, v: u64) {
        // ATOMIC: relaxed-counter — profiler accumulation, observational
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// The current Edge-phase work total (ns). Phase drivers read this
    /// before fanning out so [`finish_edge_phase`](Profiler::finish_edge_phase)
    /// can attribute idle from the phase's own work delta.
    #[inline]
    pub fn work_ns_now(&self) -> u64 {
        // ATOMIC: relaxed-counter — observational snapshot
        self.work_ns.load(Ordering::Relaxed)
    }

    /// The current merge-pass time total (ns); the SPA push phase reads it
    /// before fanning out, mirroring [`work_ns_now`](Profiler::work_ns_now).
    #[inline]
    pub fn merge_ns_now(&self) -> u64 {
        // ATOMIC: relaxed-counter — observational snapshot
        self.merge_ns.load(Ordering::Relaxed)
    }

    /// Closes one Edge phase: adds its wall time and charges idle as
    /// `wall × parallelism − (work accrued since work_before_ns)`.
    ///
    /// `parallelism` is the phase's *effective* thread count — the pool
    /// width for a parallel phase, 1 for the sequential degraded/retry
    /// paths. Charging from effective parallelism (rather than the
    /// configured thread count, as an earlier revision did) keeps a
    /// degraded iteration from reporting `threads − 1` phantom idle
    /// threads in the Figure 5b decomposition.
    pub fn finish_edge_phase(&self, wall_ns: u64, parallelism: u64, work_before_ns: u64) {
        // ATOMIC: relaxed-counter — phase accounting
        self.edge_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        // ATOMIC: relaxed-counter — idle attribution arithmetic only
        let work_delta = self
            .work_ns
            .load(Ordering::Relaxed)
            .saturating_sub(work_before_ns);
        let idle = (wall_ns * parallelism.max(1)).saturating_sub(work_delta);
        // ATOMIC: relaxed-counter — phase accounting
        self.idle_ns.fetch_add(idle, Ordering::Relaxed);
    }

    /// [`finish_edge_phase`](Profiler::finish_edge_phase) for phases with a
    /// parallel merge pass (the SPA push): idle is `wall × parallelism −
    /// (work + merge accrued during the phase)`. Without the merge term the
    /// merge pass — accounted to `merge_ns`, the Figure 5b merge bar, like
    /// the pull engine's boundary fold — would be double-charged as idle,
    /// the push-side twin of the PR 3 idle-inflation bug.
    pub fn finish_edge_phase_with_merge(
        &self,
        wall_ns: u64,
        parallelism: u64,
        work_before_ns: u64,
        merge_before_ns: u64,
    ) {
        // ATOMIC: relaxed-counter — phase accounting
        self.edge_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        // ATOMIC: relaxed-counter — idle attribution arithmetic only
        let work_delta = self
            .work_ns
            .load(Ordering::Relaxed)
            .saturating_sub(work_before_ns);
        // ATOMIC: relaxed-counter — idle attribution arithmetic only
        let merge_delta = self
            .merge_ns
            .load(Ordering::Relaxed)
            .saturating_sub(merge_before_ns);
        let idle = (wall_ns * parallelism.max(1)).saturating_sub(work_delta + merge_delta);
        // ATOMIC: relaxed-counter — phase accounting
        self.idle_ns.fetch_add(idle, Ordering::Relaxed);
    }

    /// Snapshot into a plain [`PhaseProfile`].
    pub fn snapshot(&self) -> PhaseProfile {
        PhaseProfile {
            work: Duration::from_nanos(self.work_ns.load(Ordering::Relaxed)), // ATOMIC: relaxed-counter
            merge: Duration::from_nanos(self.merge_ns.load(Ordering::Relaxed)), // ATOMIC: relaxed-counter
            write: Duration::from_nanos(self.write_ns.load(Ordering::Relaxed)), // ATOMIC: relaxed-counter
            idle: Duration::from_nanos(self.idle_ns.load(Ordering::Relaxed)), // ATOMIC: relaxed-counter
            edge_wall: Duration::from_nanos(self.edge_wall_ns.load(Ordering::Relaxed)), // ATOMIC: relaxed-counter
            atomic_updates: self.atomic_updates.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            nonatomic_updates: self.nonatomic_updates.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            direct_stores: self.direct_stores.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            merge_entries: self.merge_entries.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            vectors_processed: self.vectors_processed.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            push_updates: self.push_updates.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            spa_bucket_entries: self.spa_bucket_entries.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            spa_chunks_touched: self.spa_chunks_touched.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            vertex_touched: self.vertex_touched.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            acc_resets_skipped: self.acc_resets_skipped.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            bucket_steps: self.bucket_steps.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            held_back: self.held_back.load(Ordering::Relaxed),       // ATOMIC: relaxed-counter
            chunk_retries: self.chunk_retries.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            chunk_panics: self.chunk_panics.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            degraded_iterations: self.degraded_iterations.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            checkpoint_restores: self.checkpoint_restores.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
            divergence_rollbacks: self.divergence_rollbacks.load(Ordering::Relaxed), // ATOMIC: relaxed-counter
        }
    }
}

/// A plain, copyable profile snapshot (Figure 5b's bars plus traffic
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    pub work: Duration,
    pub merge: Duration,
    pub write: Duration,
    pub idle: Duration,
    pub edge_wall: Duration,
    pub atomic_updates: u64,
    pub nonatomic_updates: u64,
    pub direct_stores: u64,
    pub merge_entries: u64,
    pub vectors_processed: u64,
    pub push_updates: u64,
    pub spa_bucket_entries: u64,
    pub spa_chunks_touched: u64,
    pub vertex_touched: u64,
    pub acc_resets_skipped: u64,
    pub bucket_steps: u64,
    pub held_back: u64,
    pub chunk_retries: u64,
    pub chunk_panics: u64,
    pub degraded_iterations: u64,
    pub checkpoints_written: u64,
    pub checkpoint_restores: u64,
    pub divergence_rollbacks: u64,
}

impl PhaseProfile {
    /// Total profiled time (the denominator of Figure 5b's percentages).
    pub fn total(&self) -> Duration {
        self.work + self.merge + self.write + self.idle
    }

    /// Fraction of total time in each category `(work, merge, write, idle)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.work.as_secs_f64() / t,
            self.merge.as_secs_f64() / t,
            self.write.as_secs_f64() / t,
            self.idle.as_secs_f64() / t,
        )
    }

    /// Total shared-memory Edge-phase updates under any discipline.
    pub fn total_updates(&self) -> u64 {
        self.atomic_updates
            + self.nonatomic_updates
            + self.direct_stores
            + self.merge_entries
            + self.push_updates
    }

    /// True when the resilience layer took no corrective action — what
    /// EXPERIMENTS.md asserts for every clean-input run.
    pub fn resilience_clean(&self) -> bool {
        self.chunk_retries == 0
            && self.chunk_panics == 0
            && self.degraded_iterations == 0
            && self.divergence_rollbacks == 0
    }
}

/// Wall-time decomposition of the load → CSR/CSC → Vector-Sparse build
/// pipeline, one figure per phase.
///
/// The engine profilers above cover *runs*; this covers *ingestion*. It is
/// plain copyable data: the build drivers (CLI `--timing`, the
/// `build-throughput` experiment) stamp the phase durations with their own
/// `Instant` reads and derive throughput from the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildProfile {
    /// Text / Matrix-Market / binary parse time (ns); 0 for synthesized
    /// graphs, which never touch a parser.
    pub parse_ns: u64,
    /// By-source counting sort + neighbor sort (the push CSR) (ns).
    pub csr_ns: u64,
    /// By-destination counting sort + neighbor sort (the pull CSC) (ns).
    pub csc_ns: u64,
    /// Vector-Sparse encoding for both orientations (VSD + VSS) (ns).
    pub vsparse_ns: u64,
    /// Input bytes fed to the parser (0 when nothing was read).
    pub input_bytes: u64,
    /// Edges in the built graph.
    pub edges: u64,
    /// Build threads actually used (1 = sequential path, whether from a
    /// one-thread pool or the size-adaptive cutover).
    pub threads: usize,
    /// The sequential/parallel cutover threshold (edges) in effect for
    /// this build: inputs below it build sequentially regardless of pool
    /// width. 0 = cutover disabled (pool width always used).
    pub par_cutover: u64,
}

impl BuildProfile {
    /// Whole-pipeline build time (ns).
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.csr_ns + self.csc_ns + self.vsparse_ns
    }

    /// Parse throughput in bytes/s (0.0 when nothing was parsed).
    pub fn bytes_per_sec(&self) -> f64 {
        if self.parse_ns == 0 {
            0.0
        } else {
            self.input_bytes as f64 / (self.parse_ns as f64 / 1e9)
        }
    }

    /// End-to-end build throughput in edges/s (0.0 for an instant build).
    pub fn edges_per_sec(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.edges as f64 / (total as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let p = Profiler::new();
        p.add(&p.atomic_updates, 5);
        p.add(&p.direct_stores, 3);
        p.add(&p.work_ns, 1_000);
        p.finish_edge_phase(2_000, 2, 0);
        let s = p.snapshot();
        assert_eq!(s.atomic_updates, 5);
        assert_eq!(s.direct_stores, 3);
        assert_eq!(s.work, Duration::from_nanos(1_000));
        assert_eq!(s.edge_wall, Duration::from_nanos(2_000));
        // idle = 2 threads * 2000ns wall - 1000ns work.
        assert_eq!(s.idle, Duration::from_nanos(3_000));
    }

    #[test]
    fn idle_uses_effective_parallelism() {
        // A sequential (degraded) phase charges idle from parallelism 1,
        // so a phase whose work covers its wall reports ~zero idle no
        // matter how many threads the pool was configured with.
        let p = Profiler::new();
        p.add(&p.work_ns, 1_900);
        p.finish_edge_phase(2_000, 1, 0);
        assert_eq!(p.snapshot().idle, Duration::from_nanos(100));

        // A later parallel phase on the same profiler charges from its own
        // work delta, not the run total.
        p.add(&p.work_ns, 3_000);
        p.finish_edge_phase(1_000, 4, 1_900);
        // idle += 4 * 1000 - 3000 = 1000.
        assert_eq!(p.snapshot().idle, Duration::from_nanos(1_100));
    }

    #[test]
    fn merge_aware_phase_close_does_not_charge_merge_as_idle() {
        // An SPA push phase: 2 threads, 2000ns wall, 1500ns scatter work,
        // 1800ns merge folding. The merge-aware close charges idle =
        // 2×2000 − (1500 + 1800) = 700, where the plain close would
        // misreport the whole merge pass as 2500ns of idle.
        let p = Profiler::new();
        p.add(&p.work_ns, 1_500);
        p.add(&p.merge_ns, 1_800);
        p.finish_edge_phase_with_merge(2_000, 2, 0, 0);
        let s = p.snapshot();
        assert_eq!(s.idle, Duration::from_nanos(700));
        assert_eq!(s.edge_wall, Duration::from_nanos(2_000));

        // A later phase on the same profiler charges from its own deltas.
        p.add(&p.work_ns, 800);
        p.add(&p.merge_ns, 100);
        p.finish_edge_phase_with_merge(1_000, 1, 1_500, 1_800);
        // idle += 1 × 1000 − (800 + 100) = 100.
        assert_eq!(p.snapshot().idle, Duration::from_nanos(800));
    }

    #[test]
    fn merge_aware_idle_saturates_at_zero() {
        let p = Profiler::new();
        p.add(&p.work_ns, 1_000);
        p.add(&p.merge_ns, 5_000);
        p.finish_edge_phase_with_merge(2_000, 2, 0, 0);
        assert_eq!(p.snapshot().idle, Duration::ZERO);
    }

    #[test]
    fn spa_counters_stay_out_of_total_updates() {
        // The bucketed messages are already counted in `push_updates`;
        // counting the bucket-occupancy stats again would double-report
        // the phase's write traffic in the trace `updates` field.
        let s = PhaseProfile {
            push_updates: 10,
            spa_bucket_entries: 10,
            spa_chunks_touched: 3,
            ..Default::default()
        };
        assert_eq!(s.total_updates(), 10);
    }

    #[test]
    fn idle_saturates_at_zero() {
        let p = Profiler::new();
        p.add(&p.work_ns, 10_000);
        p.finish_edge_phase(2_000, 1, 0);
        assert_eq!(p.snapshot().idle, Duration::ZERO);
    }

    #[test]
    fn fractions_sum_to_one() {
        let s = PhaseProfile {
            work: Duration::from_nanos(600),
            merge: Duration::from_nanos(100),
            write: Duration::from_nanos(200),
            idle: Duration::from_nanos(100),
            ..Default::default()
        };
        let (w, m, wr, i) = s.fractions();
        assert!((w + m + wr + i - 1.0).abs() < 1e-12);
        assert!((w - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_fractions_are_zero() {
        let s = PhaseProfile::default();
        assert_eq!(s.fractions(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(s.total_updates(), 0);
    }

    #[test]
    fn build_profile_throughputs() {
        let b = BuildProfile {
            parse_ns: 500_000_000, // 0.5 s
            csr_ns: 200_000_000,
            csc_ns: 200_000_000,
            vsparse_ns: 100_000_000,
            input_bytes: 1_000_000,
            edges: 2_000_000,
            threads: 8,
            par_cutover: 0,
        };
        assert_eq!(b.total_ns(), 1_000_000_000);
        assert!((b.bytes_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((b.edges_per_sec() - 2_000_000.0).abs() < 1e-6);
        // Degenerate profiles report zero rather than dividing by zero.
        let z = BuildProfile::default();
        assert_eq!(z.bytes_per_sec(), 0.0);
        assert_eq!(z.edges_per_sec(), 0.0);
    }
}
