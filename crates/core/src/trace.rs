//! Flight-recorder telemetry (ISSUE 3, DESIGN.md §10).
//!
//! The engine's quantitative story — per-iteration engine selection, the
//! Figure 5b phase decomposition, write traffic, and the §9 resilience
//! events — is captured here as one [`IterationRecord`] per executed
//! superstep, pushed into a preallocated ring buffer
//! ([`FlightRecorder`]). The driver (`engine::hybrid`) assembles each
//! record from [`Profiler`] counter
//! deltas between supersteps, so the engine hot loops are untouched: when
//! recording is disabled the per-iteration cost is a single branch and the
//! per-phase cost is zero.
//!
//! This module is also the *only* place the core crate reads the monotonic
//! clock for engine timing. The engine modules are forbidden (by `cargo
//! xtask lint`) from calling `Instant::now()` directly; they use
//! [`SpanClock`] for phase timing and [`Deadline`] for the §9 watchdog, so
//! every timing syscall on the hot path is auditable in one file.
//!
//! [`Profiler`]: crate::stats::Profiler

use crate::config::ScatterMode;
use crate::engine::hybrid::EngineKind;
use crate::stats::PhaseProfile;
use std::time::{Duration, Instant};

/// Monotonic span timer: the engine-facing face of `Instant`.
///
/// Phases start a clock, do their work, and hand the elapsed time to the
/// profiler. Keeping the `Instant::now()` call here (instead of inline in
/// the engines) keeps timing syscalls off the inner loops and gives the
/// lint pass a single allowed location.
#[derive(Debug, Clone, Copy)]
pub struct SpanClock {
    started: Instant,
}

impl SpanClock {
    /// Starts a span.
    #[inline]
    pub fn start() -> Self {
        SpanClock {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`start`](SpanClock::start).
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed nanoseconds (the profiler's unit).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// A cooperative watchdog deadline (§9). Engines test `expired()` between
/// chunks; only this module touches the clock.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    #[inline]
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// True once the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Everything recorded about one executed superstep.
///
/// Rolled-back iterations are recorded once per *execution*: a superstep
/// that runs, diverges, and re-runs contributes two records with the same
/// `iteration` index, so a run's trace length is `iterations + rollbacks`
/// (DESIGN.md §9/§10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Logical iteration index (repeats when a rollback re-runs it).
    pub iteration: u32,
    /// Engine the driver selected for the Edge phase.
    pub engine: EngineKind,
    /// Frontier density at selection time (1.0 for frontier-less programs).
    pub frontier_density: f64,
    /// The density threshold the selection compared against.
    pub pull_threshold: f64,
    /// True when the frontier entered the iteration in the sparse
    /// (vertex-list) representation rather than the dense bitmap.
    pub sparse_repr: bool,
    /// Edge-phase summed thread work this superstep (ns delta).
    pub work_ns: u64,
    /// Merge-pass time this superstep (ns delta).
    pub merge_ns: u64,
    /// Vertex-phase (+ accumulator reset) time this superstep (ns delta).
    pub write_ns: u64,
    /// Edge-phase wall time this superstep (ns delta).
    pub edge_wall_ns: u64,
    /// Idle time charged this superstep (ns delta; see
    /// [`Profiler::finish_edge_phase`](crate::stats::Profiler::finish_edge_phase)).
    pub idle_ns: u64,
    /// Shared-memory Edge-phase updates this superstep (all disciplines).
    pub updates: u64,
    /// Edge vectors processed this superstep.
    pub vectors: u64,
    /// Threads that actually executed the Edge phase (1 when the phase
    /// degraded to the sequential scalar path).
    pub edge_parallelism: u32,
    /// Threads that actually executed the Vertex phase (1 on the
    /// sequential panic-recovery fallback).
    pub vertex_parallelism: u32,
    /// §9 event: chunk retries performed this superstep.
    pub retries: u32,
    /// §9 event: the Edge or Vertex phase fell back to a sequential
    /// degraded pass this superstep.
    pub degraded: bool,
    /// §9 event: the divergence guard rolled this execution back (the next
    /// record re-runs the same `iteration`).
    pub rolled_back: bool,
    /// True when the Edge-Pull phase ran over the compacted active vector
    /// list (frontier-aware pull, DESIGN.md §11) instead of the full array.
    pub pull_compacted: bool,
    /// Size of the compacted iteration space (edge vectors) when
    /// `pull_compacted`; 0 otherwise.
    pub active_vectors: u64,
    /// Direction-model input: estimated edges a push pass would traverse
    /// this iteration (Σ frontier out-degrees + |F|; DESIGN.md §16).
    pub dir_frontier_edges: u64,
    /// Direction-model input: estimated in-edges a pull pass would scan
    /// (total edges scaled by the unconverged fraction).
    pub dir_unvisited_edges: u64,
    /// Scatter discipline the push phase used this superstep (DESIGN.md
    /// §17); `None` for pull iterations. Always a resolved mode, never
    /// [`ScatterMode::Auto`].
    pub scatter_mode: Option<ScatterMode>,
    /// SPA bucket entries merged this superstep (ns-free occupancy stat;
    /// equals the phase's `push_updates` when the SPA arm ran, 0 otherwise).
    pub spa_bucket_entries: u64,
    /// Destination chunks with at least one SPA bucket entry this superstep.
    pub spa_chunks_touched: u64,
    /// Touched-list entries the sparse Vertex phase walked this superstep
    /// (DESIGN.md §18); 0 when the dense sweep ran (or the list was empty).
    pub vertex_touched: u64,
    /// True when this superstep skipped the accumulator reset: the previous
    /// sparse Vertex phase left every accumulator at the identity.
    pub acc_reset_skipped: bool,
    /// Bucket of the priority schedule this superstep's frontier was
    /// drained from (DESIGN.md §18); `None` off the schedule.
    pub bucket: Option<u32>,
    /// Active vertices held back in later buckets while this superstep ran.
    pub held_back: u64,
}

impl IterationRecord {
    /// True when any §9 resilience mechanism acted during this superstep.
    pub fn has_resilience_event(&self) -> bool {
        self.retries > 0 || self.degraded || self.rolled_back
    }

    /// Computes the counter deltas between two profiler snapshots taken at
    /// the superstep's boundaries. Selection metadata and parallelism are
    /// the driver's to fill in.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshots(
        iteration: u32,
        engine: EngineKind,
        frontier_density: f64,
        pull_threshold: f64,
        sparse_repr: bool,
        before: &PhaseProfile,
        after: &PhaseProfile,
        edge_parallelism: u32,
        vertex_parallelism: u32,
        rolled_back: bool,
    ) -> Self {
        let d = |a: Duration, b: Duration| a.saturating_sub(b).as_nanos() as u64;
        IterationRecord {
            iteration,
            engine,
            frontier_density,
            pull_threshold,
            sparse_repr,
            work_ns: d(after.work, before.work),
            merge_ns: d(after.merge, before.merge),
            write_ns: d(after.write, before.write),
            edge_wall_ns: d(after.edge_wall, before.edge_wall),
            idle_ns: d(after.idle, before.idle),
            updates: after.total_updates() - before.total_updates(),
            vectors: after.vectors_processed - before.vectors_processed,
            edge_parallelism,
            vertex_parallelism,
            retries: (after.chunk_retries - before.chunk_retries) as u32,
            degraded: after.degraded_iterations > before.degraded_iterations,
            rolled_back,
            // Frontier-aware pull and direction-model metadata are the
            // driver's to fill in after assembly (selection state, not a
            // profiler delta).
            pull_compacted: false,
            active_vectors: 0,
            dir_frontier_edges: 0,
            dir_unvisited_edges: 0,
            scatter_mode: None,
            spa_bucket_entries: after.spa_bucket_entries - before.spa_bucket_entries,
            spa_chunks_touched: after.spa_chunks_touched - before.spa_chunks_touched,
            vertex_touched: after.vertex_touched - before.vertex_touched,
            acc_reset_skipped: after.acc_resets_skipped > before.acc_resets_skipped,
            bucket: None,
            held_back: 0,
        }
    }
}

/// Default ring capacity: enough for every experiment in the repro matrix
/// while bounding memory for unbounded convergence loops.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A preallocated ring buffer of [`IterationRecord`]s.
///
/// Disabled recorders ([`FlightRecorder::disabled`]) allocate nothing and
/// make every operation a cheap early-out, so the recorder can be threaded
/// unconditionally through the drivers with no compile-time gate.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<IterationRecord>,
    cap: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Total records ever pushed (≥ `buf.len()`).
    total: u64,
}

impl FlightRecorder {
    /// An enabled recorder with the default capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled recorder holding the last `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// A recorder that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        FlightRecorder {
            buf: Vec::new(),
            cap: 0,
            next: 0,
            total: 0,
        }
    }

    /// The driver's per-iteration gate: snapshot diffing and record
    /// assembly are skipped entirely when this is false.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cap != 0
    }

    /// Pushes a record, overwriting the oldest once the ring is full.
    /// No-op when disabled.
    pub fn push(&mut self, rec: IterationRecord) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Records pushed but since overwritten.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Consumes the recorder, returning the retained records oldest-first.
    pub fn into_records(mut self) -> Vec<IterationRecord> {
        if self.next > 0 {
            self.buf.rotate_left(self.next);
        }
        self.buf
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32) -> IterationRecord {
        IterationRecord {
            iteration: i,
            engine: EngineKind::Pull,
            frontier_density: 1.0,
            pull_threshold: 0.07,
            sparse_repr: false,
            work_ns: 0,
            merge_ns: 0,
            write_ns: 0,
            edge_wall_ns: 0,
            idle_ns: 0,
            updates: 0,
            vectors: 0,
            edge_parallelism: 1,
            vertex_parallelism: 1,
            retries: 0,
            degraded: false,
            rolled_back: false,
            pull_compacted: false,
            active_vectors: 0,
            dir_frontier_edges: 0,
            dir_unvisited_edges: 0,
            scatter_mode: None,
            spa_bucket_entries: 0,
            spa_chunks_touched: 0,
            vertex_touched: 0,
            acc_reset_skipped: false,
            bucket: None,
            held_back: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut r = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            r.push(rec(i));
        }
        assert_eq!(r.dropped(), 2);
        let got: Vec<u32> = r.into_records().iter().map(|x| x.iteration).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = FlightRecorder::with_capacity(10);
        for i in 0..4 {
            r.push(rec(i));
        }
        assert_eq!(r.dropped(), 0);
        let got: Vec<u32> = r.into_records().iter().map(|x| x.iteration).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.push(rec(0));
        assert_eq!(r.dropped(), 0);
        assert!(r.into_records().is_empty());
    }

    #[test]
    fn snapshot_delta_assembly() {
        use std::time::Duration;
        let before = PhaseProfile {
            work: Duration::from_nanos(100),
            edge_wall: Duration::from_nanos(50),
            direct_stores: 10,
            vectors_processed: 5,
            chunk_retries: 1,
            ..Default::default()
        };
        let after = PhaseProfile {
            work: Duration::from_nanos(300),
            edge_wall: Duration::from_nanos(150),
            direct_stores: 25,
            vectors_processed: 15,
            chunk_retries: 3,
            degraded_iterations: 1,
            vertex_touched: 40,
            acc_resets_skipped: 1,
            ..Default::default()
        };
        let r = IterationRecord::from_snapshots(
            7,
            EngineKind::Pull,
            0.5,
            0.07,
            false,
            &before,
            &after,
            4,
            4,
            false,
        );
        assert_eq!(r.iteration, 7);
        assert_eq!(r.work_ns, 200);
        assert_eq!(r.edge_wall_ns, 100);
        assert_eq!(r.updates, 15);
        assert_eq!(r.vectors, 10);
        assert_eq!(r.retries, 2);
        assert!(r.degraded);
        assert!(r.has_resilience_event());
        assert_eq!(r.vertex_touched, 40);
        assert!(r.acc_reset_skipped);
    }

    #[test]
    fn span_clock_and_deadline() {
        let c = SpanClock::start();
        let d = Deadline::after(Duration::from_millis(1));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.elapsed_ns() > 0);
        assert!(d.expired());
    }
}
