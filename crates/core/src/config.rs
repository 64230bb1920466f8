//! Engine configuration.

use grazelle_vsparse::simd::SimdLevel;
use std::time::Duration;

/// Resilience knobs for the fault-tolerant execution path
/// (`engine::resilient`). All fields are plain data so [`EngineConfig`]
/// stays `Copy`; non-`Copy` resilience inputs (checkpoint path, fault plan)
/// travel separately via `ResilienceContext`.
///
/// A contained run always pulls through the scheduler-aware interface,
/// whatever [`EngineConfig::pull_mode`] says: chunk retry is only sound
/// under that interface's write discipline (a chunk that dies mid-flight
/// has committed nothing but idempotent stores to destinations it owns),
/// which the traditional interface's per-vector shared updates do not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Per-superstep watchdog: an Edge or Vertex phase exceeding this
    /// deadline ends the run with `EngineError::Stalled` instead of
    /// hanging. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Scan float vertex properties for NaN/±Inf after every iteration and
    /// roll back to the last-good iterate instead of diverging.
    pub divergence_guard: bool,
    /// Write a checkpoint every N completed iterations (0 disables
    /// checkpointing). Restore happens automatically when a valid
    /// checkpoint exists at the configured path.
    pub checkpoint_every: usize,
    /// How many times a chunk whose worker panicked is retried on a
    /// surviving thread before the run degrades to the scalar
    /// single-thread path.
    pub max_chunk_retries: u32,
}

impl ResilienceConfig {
    /// Defaults: watchdog off, divergence guard on, checkpoints off,
    /// 3 chunk retries before degrading.
    pub fn new() -> Self {
        ResilienceConfig {
            watchdog: None,
            divergence_guard: true,
            checkpoint_every: 0,
            max_chunk_retries: 3,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::new()
    }
}

/// Scheduling granularity for the Edge phase's dynamic chunk scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// The paper's default: create 32·n chunks for n threads (§5).
    Default32n,
    /// A fixed number of edge vectors per chunk — the Figure 6 knob and the
    /// `-s` command-line option of the original artifact.
    VectorsPerChunk(usize),
}

/// Which interface parallelizes the pull engine's inner loop (§3, §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullMode {
    /// Stateless loop body; one synchronized (CAS) shared-memory update per
    /// inner-loop iteration. The paper's baseline.
    Traditional,
    /// Stateless loop body; unsynchronized read-modify-write updates.
    /// Races can drop updates — included, as in the paper, purely to
    /// isolate the cost of synchronization from the cost of write traffic.
    TraditionalNoAtomic,
    /// The paper's first contribution: thread-local aggregation across each
    /// chunk, direct stores at interior vertex transitions, merge buffer at
    /// chunk boundaries, zero synchronization.
    SchedulerAware,
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads (the artifact's `-n`).
    pub threads: usize,
    /// Logical groups standing in for NUMA nodes (the artifact's `-u`).
    pub groups: usize,
    /// Edge-phase scheduling granularity (the artifact's `-s`).
    pub granularity: Granularity,
    /// Pull-engine inner-loop interface. Plain runs only: a contained run
    /// (`run_resilient*`) always uses [`PullMode::SchedulerAware`], see
    /// [`ResilienceConfig`].
    pub pull_mode: PullMode,
    /// SIMD level for Edge-Pull gathers and the Vertex phase.
    pub simd: SimdLevel,
    /// Hard iteration cap: the artifact's `-N` for PageRank. For
    /// convergence-driven applications (BFS, SSSP, CC, Reach) it is a safety
    /// net, not a tuning value — when it fires the result is truncated and
    /// [`ExecutionStats::hit_iteration_cap`](crate::engine::hybrid::ExecutionStats::hit_iteration_cap)
    /// says so. Their superstep count grows with the graph's diameter
    /// (SSSP's priority schedule takes up to about twice it), so callers on
    /// high-diameter graphs size it to the graph, e.g. `V + 1`.
    pub max_iterations: usize,
    /// Overrides the direction model (DESIGN.md §16): `Some(kind)` pins
    /// every Edge phase to one engine. Used by the Figure 11 per-engine
    /// comparisons (Grazelle-Pull vs Grazelle-Push).
    pub force_engine: Option<crate::engine::hybrid::EngineKind>,
    /// Enable the frontier-aware Edge-Pull path (DESIGN.md §11): when the
    /// direction model expects few active destinations in a pull iteration,
    /// the engine compacts the Vector-Sparse index into a per-iteration
    /// active vector list and runs the scheduler-aware chunk loop over that
    /// compacted space instead of the full edge array. Results are
    /// bit-identical to the dense pull.
    pub frontier_pull: bool,
    /// Enable the flight recorder: one
    /// [`IterationRecord`](crate::trace::IterationRecord) per executed
    /// superstep in the run's [`ExecutionStats`](crate::ExecutionStats).
    /// Off by default; the disabled path costs one branch per iteration
    /// (measured by the `recorder-overhead` bench, DESIGN.md §10).
    pub trace: bool,
    /// Fault-tolerance knobs for the resilient execution path. Inert (and
    /// free) unless one of the `run_resilient*` entry points is used.
    pub resilience: ResilienceConfig,
}

impl EngineConfig {
    /// A small-machine default: up to 4 threads, one group, paper-default
    /// granularity, scheduler-aware + best SIMD.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get().min(4))
            .unwrap_or(1);
        EngineConfig {
            threads,
            groups: 1,
            granularity: Granularity::Default32n,
            pull_mode: PullMode::SchedulerAware,
            simd: grazelle_vsparse::simd::detect(),
            max_iterations: 1000,
            force_engine: None,
            frontier_pull: true,
            trace: false,
            resilience: ResilienceConfig::new(),
        }
    }

    /// Builder-style flight-recorder toggle.
    pub fn with_trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builder-style resilience configuration.
    pub fn with_resilience(mut self, r: ResilienceConfig) -> Self {
        self.resilience = r;
        self
    }

    /// Builder-style watchdog deadline.
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.resilience.watchdog = deadline;
        self
    }

    /// Builder-style checkpoint cadence (0 disables).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.resilience.checkpoint_every = every;
        self
    }

    /// Builder-style frontier-aware pull toggle (the ablation's dense-only
    /// arm disables it).
    pub fn with_frontier_pull(mut self, enabled: bool) -> Self {
        self.frontier_pull = enabled;
        self
    }

    /// Builder-style engine pin.
    pub fn with_force_engine(mut self, kind: Option<crate::engine::hybrid::EngineKind>) -> Self {
        self.force_engine = kind;
        self
    }

    /// Builder-style thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.groups = self.groups.min(self.threads);
        self
    }

    /// Builder-style group count.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups.clamp(1, self.threads);
        self
    }

    /// Builder-style granularity.
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style pull mode.
    pub fn with_pull_mode(mut self, m: PullMode) -> Self {
        self.pull_mode = m;
        self
    }

    /// Builder-style SIMD level.
    pub fn with_simd(mut self, s: SimdLevel) -> Self {
        self.simd = s;
        self
    }

    /// Builder-style iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Builds the chunk scheduler this configuration implies for an Edge
    /// phase over `num_vectors` edge vectors.
    pub fn edge_scheduler(&self, num_vectors: usize) -> grazelle_sched::ChunkScheduler {
        match self.granularity {
            Granularity::Default32n => {
                grazelle_sched::ChunkScheduler::with_default_granularity(num_vectors, self.threads)
            }
            Granularity::VectorsPerChunk(c) => {
                grazelle_sched::ChunkScheduler::with_chunk_size(num_vectors, c)
            }
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = EngineConfig::default();
        assert!(c.threads >= 1);
        assert!(c.groups >= 1 && c.groups <= c.threads);
        assert_eq!(c.pull_mode, PullMode::SchedulerAware);
    }

    #[test]
    fn builders_clamp() {
        let c = EngineConfig::new().with_threads(2).with_groups(5);
        assert_eq!(c.groups, 2);
        let c = EngineConfig::new().with_threads(0);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn edge_scheduler_granularity() {
        let c = EngineConfig::new()
            .with_threads(2)
            .with_granularity(Granularity::VectorsPerChunk(100));
        let s = c.edge_scheduler(1000);
        assert_eq!(s.num_chunks(), 10);
        let c = c.with_granularity(Granularity::Default32n);
        let s = c.edge_scheduler(100_000);
        assert_eq!(s.num_chunks(), 64);
    }
}
