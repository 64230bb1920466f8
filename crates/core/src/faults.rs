//! Deterministic execution-fault injection for the resilience layer.
//!
//! The I/O half of the fault model lives in
//! [`grazelle_graph::faults`]; this module covers
//! the execution half: worker panics pinned to a specific `(iteration,
//! chunk)`, an injected superstep stall for the watchdog to catch, and a
//! NaN poisoned into an accumulator for the divergence guard to catch.
//! [`FaultPlan`] is the umbrella both halves hang off — a plain seeded
//! value with no wall-clock or ambient randomness, so any failure a test
//! or bench provokes is replayable byte-for-byte.
//!
//! This module deliberately sits *outside* `engine/`: the injector is the
//! one place in the core crate allowed to `panic!` on purpose, and the
//! hot-path lint (`cargo xtask lint`) bans panics under
//! `crates/core/src/engine/`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::time::Duration;

pub use grazelle_graph::faults::IoFaultPlan;

/// Panic the worker processing `chunk` during `iteration`, for the first
/// `failures` attempts (attempt `failures` succeeds — or never, if
/// `failures` exceeds the retry budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPanicFault {
    /// Engine iteration (0-based) the fault is armed in.
    pub iteration: usize,
    /// Chunk id (global, as numbered by the Edge-Pull scheduler set).
    pub chunk: usize,
    /// How many consecutive attempts at this chunk panic before one
    /// succeeds.
    pub failures: u32,
}

/// Make worker 0 sleep through `iteration`, exceeding the watchdog
/// deadline so the run ends in `EngineError::Stalled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFault {
    /// Engine iteration (0-based) the stall is armed in.
    pub iteration: usize,
    /// How long the stalling worker sleeps. Pick comfortably past the
    /// configured watchdog deadline.
    pub sleep: Duration,
}

/// Overwrite one accumulator with NaN after the Edge phase of `iteration`,
/// so the following Vertex phase propagates it into the vertex properties
/// and the divergence guard must recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NanFault {
    /// Engine iteration (0-based) the poison lands in.
    pub iteration: usize,
    /// Vertex whose accumulator is poisoned.
    pub vertex: usize,
}

/// The execution half of a [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecFaultPlan {
    /// Chunk-pinned worker panics.
    pub chunk_panics: Vec<ChunkPanicFault>,
    /// At most one injected stall.
    pub stall: Option<StallFault>,
    /// At most one injected NaN poison.
    pub poison: Option<NanFault>,
}

impl ExecFaultPlan {
    /// A plan that injects nothing.
    pub fn clean() -> Self {
        ExecFaultPlan::default()
    }

    /// Builder: add a chunk-panic fault.
    pub fn with_chunk_panic(mut self, iteration: usize, chunk: usize, failures: u32) -> Self {
        self.chunk_panics.push(ChunkPanicFault {
            iteration,
            chunk,
            failures,
        });
        self
    }

    /// Builder: arm a stall.
    pub fn with_stall(mut self, iteration: usize, sleep: Duration) -> Self {
        self.stall = Some(StallFault { iteration, sleep });
        self
    }

    /// Builder: arm a NaN poison.
    pub fn with_poison(mut self, iteration: usize, vertex: usize) -> Self {
        self.poison = Some(NanFault { iteration, vertex });
        self
    }
}

/// Stall the serving layer's admission path for `stall` before query
/// `query` (0-based admission sequence number) is enqueued, simulating a
/// slow client or a blocked accept loop. The bounded queue must keep
/// shedding correctly underneath it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStallFault {
    /// Admission sequence number the stall is armed for.
    pub query: usize,
    /// How long admission sleeps before enqueueing that query.
    pub stall: Duration,
}

/// Panic the executor while it processes query `query`, for the first
/// `failures` attempts — the serving layer's retry loop must absorb the
/// panics (attempt `failures` succeeds) or give up with a typed error,
/// never killing the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPanicFault {
    /// Admission sequence number of the doomed query.
    pub query: usize,
    /// Consecutive attempts that panic before one succeeds.
    pub failures: u32,
}

/// Collapse the deadlines of `queries` consecutive queries (starting at
/// admission sequence `from_query`) to zero, so each is cancelled at its
/// first iteration boundary — a deterministic deadline storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineStormFault {
    /// First admission sequence number in the storm.
    pub from_query: usize,
    /// How many consecutive queries the storm covers.
    pub queries: usize,
}

/// The serving-layer half of a [`FaultPlan`]: faults injected around the
/// server loop rather than inside the engine. Like the execution half,
/// everything is pinned to deterministic coordinates (admission sequence
/// numbers), so a soak run replays byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeFaultPlan {
    /// Admission-path stalls.
    pub admission_stalls: Vec<AdmissionStallFault>,
    /// Per-query executor panics.
    pub query_panics: Vec<QueryPanicFault>,
    /// At most one deadline storm.
    pub deadline_storm: Option<DeadlineStormFault>,
}

impl ServeFaultPlan {
    /// A plan that injects nothing.
    pub fn clean() -> Self {
        ServeFaultPlan::default()
    }

    /// Builder: stall admission before `query` for `stall`.
    pub fn with_admission_stall(mut self, query: usize, stall: Duration) -> Self {
        self.admission_stalls
            .push(AdmissionStallFault { query, stall });
        self
    }

    /// Builder: panic the executor on `query` for `failures` attempts.
    pub fn with_query_panic(mut self, query: usize, failures: u32) -> Self {
        self.query_panics.push(QueryPanicFault { query, failures });
        self
    }

    /// Builder: arm a deadline storm over `queries` queries starting at
    /// `from_query`.
    pub fn with_deadline_storm(mut self, from_query: usize, queries: usize) -> Self {
        self.deadline_storm = Some(DeadlineStormFault {
            from_query,
            queries,
        });
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_clean(&self) -> bool {
        self.admission_stalls.is_empty()
            && self.query_panics.is_empty()
            && self.deadline_storm.is_none()
    }
}

/// Runtime driver for a [`ServeFaultPlan`]: tracks per-query panic
/// attempts so injected failures fire exactly where the plan says. Shared
/// by reference between the admission path and the executor.
#[derive(Debug)]
pub struct ServeInjector {
    plan: ServeFaultPlan,
    /// Attempt counter per `query_panics` entry, index-aligned.
    attempts: Vec<AtomicU32>,
}

impl ServeInjector {
    /// Arms `plan`.
    pub fn new(plan: ServeFaultPlan) -> Self {
        let attempts = plan
            .query_panics
            .iter()
            .map(|_| AtomicU32::new(0))
            .collect();
        ServeInjector { plan, attempts }
    }

    /// Called by the admission path before enqueueing admission sequence
    /// `seq`; returns how long to stall, if a stall is armed there.
    pub fn admission_stall(&self, seq: usize) -> Option<Duration> {
        self.plan
            .admission_stalls
            .iter()
            .find(|f| f.query == seq)
            .map(|f| f.stall)
    }

    /// Called by the executor as it starts an attempt at admission
    /// sequence `seq`. Panics while the armed fault still has failures
    /// left to deliver.
    pub fn maybe_panic_query(&self, seq: usize) {
        for (fault, attempts) in self.plan.query_panics.iter().zip(&self.attempts) {
            if fault.query == seq {
                // ATOMIC: acqrel-handoff — each attempt index is handed out
                // once, ordered with the panic it provokes
                let prior = attempts.fetch_add(1, Ordering::AcqRel);
                if prior < fault.failures {
                    panic!("injected query panic: query {seq}, attempt {prior}");
                }
            }
        }
    }

    /// Whether the deadline storm covers admission sequence `seq` (the
    /// serving layer then treats the query's deadline as already expired).
    pub fn storm_deadline(&self, seq: usize) -> bool {
        self.plan
            .deadline_storm
            .is_some_and(|s| seq >= s.from_query && seq < s.from_query + s.queries)
    }
}

/// The full deterministic fault plan: a seed (threaded into the I/O
/// adapter's error-kind choice and the serving layer's retry jitter), the
/// ingestion faults, the execution faults, and the serving-layer faults.
/// Everything the harness injects anywhere descends from one of these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the I/O adapter's deterministic choices.
    pub seed: u64,
    /// Ingestion faults (truncation, bit-flips, transient errors).
    pub io: IoFaultPlan,
    /// Execution faults (chunk panics, stall, NaN poison).
    pub exec: ExecFaultPlan,
    /// Serving-layer faults (admission stalls, query panics, deadline
    /// storms).
    pub serve: ServeFaultPlan,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn clean() -> Self {
        FaultPlan::default()
    }
}

/// Runtime driver for an [`ExecFaultPlan`]: tracks the current iteration
/// and per-fault attempt counts so injected failures fire exactly where
/// the plan says and nowhere else. Shared by reference across workers.
#[derive(Debug)]
pub struct ExecInjector {
    plan: ExecFaultPlan,
    iteration: AtomicUsize,
    /// Attempt counter per `chunk_panics` entry, index-aligned.
    attempts: Vec<AtomicU32>,
    stall_fired: AtomicBool,
    poison_fired: AtomicBool,
}

impl ExecInjector {
    /// Arms `plan`.
    pub fn new(plan: ExecFaultPlan) -> Self {
        let attempts = plan
            .chunk_panics
            .iter()
            .map(|_| AtomicU32::new(0))
            .collect();
        ExecInjector {
            plan,
            iteration: AtomicUsize::new(0),
            attempts,
            stall_fired: AtomicBool::new(false),
            poison_fired: AtomicBool::new(false),
        }
    }

    /// The driver announces each iteration before its Edge phase.
    pub fn set_iteration(&self, iteration: usize) {
        // ATOMIC: barrier-publish — publishes the iteration to worker probes
        self.iteration.store(iteration, Ordering::Release);
    }

    /// Called by the resilient Edge phase as a worker picks up `chunk`.
    /// Panics while the armed fault still has failures left to deliver.
    pub fn maybe_panic_chunk(&self, chunk: usize) {
        // ATOMIC: barrier-publish — acquire side of the iteration edge
        let iteration = self.iteration.load(Ordering::Acquire);
        for (fault, attempts) in self.plan.chunk_panics.iter().zip(&self.attempts) {
            if fault.iteration == iteration && fault.chunk == chunk {
                // ATOMIC: acqrel-handoff — each attempt index is handed out
                // once, ordered with the panic it provokes
                let prior = attempts.fetch_add(1, Ordering::AcqRel);
                if prior < fault.failures {
                    panic!(
                        "injected chunk panic: iteration {iteration}, chunk {chunk}, \
                         attempt {prior}"
                    );
                }
            }
        }
    }

    /// Called by the resilient Edge phase on every worker as it enters the
    /// phase; worker 0 sleeps through an armed stall (once).
    pub fn maybe_stall(&self, worker_id: usize) {
        if worker_id != 0 {
            return;
        }
        if let Some(stall) = self.plan.stall {
            // ATOMIC: acqrel-handoff — one-shot stall latch; iteration read
            // is the acquire side of the barrier-publish edge above
            if stall.iteration == self.iteration.load(Ordering::Acquire)
                && !self.stall_fired.swap(true, Ordering::AcqRel)
            {
                std::thread::sleep(stall.sleep);
            }
        }
    }

    /// Called by the driver between the Edge and Vertex phases; returns the
    /// vertex whose accumulator should be overwritten with NaN, once.
    pub fn poison_target(&self) -> Option<usize> {
        let poison = self.plan.poison?;
        // ATOMIC: acqrel-handoff — one-shot poison latch; iteration read is
        // the acquire side of the barrier-publish edge above
        if poison.iteration == self.iteration.load(Ordering::Acquire)
            && !self.poison_fired.swap(true, Ordering::AcqRel)
        {
            Some(poison.vertex)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_panic_fires_exactly_failures_times() {
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(1, 3, 2));
        inj.set_iteration(1);
        for attempt in 0..2 {
            let r = std::panic::catch_unwind(|| inj.maybe_panic_chunk(3));
            assert!(r.is_err(), "attempt {attempt} should panic");
        }
        // Third attempt succeeds.
        inj.maybe_panic_chunk(3);
        // Other chunks and other iterations are untouched.
        inj.maybe_panic_chunk(2);
        inj.set_iteration(0);
        inj.maybe_panic_chunk(3);
    }

    #[test]
    fn wrong_iteration_never_fires() {
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(5, 0, 10));
        inj.set_iteration(4);
        inj.maybe_panic_chunk(0);
    }

    #[test]
    fn poison_fires_once() {
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_poison(2, 7));
        inj.set_iteration(1);
        assert_eq!(inj.poison_target(), None);
        inj.set_iteration(2);
        assert_eq!(inj.poison_target(), Some(7));
        assert_eq!(inj.poison_target(), None, "poison must fire once");
    }

    #[test]
    fn stall_only_hits_worker_zero_once() {
        let inj = ExecInjector::new(ExecFaultPlan::clean().with_stall(0, Duration::from_millis(1)));
        inj.set_iteration(0);
        let t0 = std::time::Instant::now();
        inj.maybe_stall(1); // not worker 0: no sleep
        inj.maybe_stall(0); // sleeps ~1ms
        inj.maybe_stall(0); // already fired: no sleep
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert!(inj.stall_fired.load(Ordering::Relaxed));
    }

    #[test]
    fn clean_plan_is_inert() {
        let inj = ExecInjector::new(ExecFaultPlan::clean());
        inj.set_iteration(0);
        inj.maybe_panic_chunk(0);
        inj.maybe_stall(0);
        assert_eq!(inj.poison_target(), None);
    }

    #[test]
    fn query_panic_fires_exactly_failures_times() {
        let inj = ServeInjector::new(ServeFaultPlan::clean().with_query_panic(3, 2));
        for attempt in 0..2 {
            let r = std::panic::catch_unwind(|| inj.maybe_panic_query(3));
            assert!(r.is_err(), "attempt {attempt} should panic");
        }
        inj.maybe_panic_query(3); // third attempt succeeds
        inj.maybe_panic_query(2); // other queries untouched
    }

    #[test]
    fn admission_stall_and_storm_are_pinned_to_their_queries() {
        let plan = ServeFaultPlan::clean()
            .with_admission_stall(1, Duration::from_millis(5))
            .with_deadline_storm(4, 3);
        assert!(!plan.is_clean());
        let inj = ServeInjector::new(plan);
        assert_eq!(inj.admission_stall(0), None);
        assert_eq!(inj.admission_stall(1), Some(Duration::from_millis(5)));
        for seq in 0..10 {
            assert_eq!(inj.storm_deadline(seq), (4..7).contains(&seq), "seq {seq}");
        }
    }

    #[test]
    fn clean_serve_plan_is_inert() {
        let plan = ServeFaultPlan::clean();
        assert!(plan.is_clean());
        let inj = ServeInjector::new(plan);
        inj.maybe_panic_query(0);
        assert_eq!(inj.admission_stall(0), None);
        assert!(!inj.storm_deadline(0));
    }
}
