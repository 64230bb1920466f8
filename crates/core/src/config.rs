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

/// Which chunk-assignment scheduler drives the Edge-Pull phase. Both keep
/// chunks statically laid out and contiguous (the scheduler-aware
/// interface's only requirement, §3); they differ in *assignment*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// One shared atomic queue per group (the default; simplest, what the
    /// reproduction measures everywhere unless stated).
    Central,
    /// Locality-first pre-assignment with work stealing
    /// ([`LocalityScheduler`](grazelle_sched::stealing::LocalityScheduler)):
    /// each thread drains its own contiguous run of chunks, then steals.
    LocalityStealing,
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

/// How the hybrid driver picks the Edge-phase direction (pull vs push) and
/// whether a pull iteration runs over the compacted active-vector list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// The cost-model switch (DESIGN.md §16, after Beamer's
    /// direction-optimizing BFS and the Yang/Besta push-pull analyses):
    /// compare the frontier's expected scatter work (Σ out-degrees + |F|)
    /// against the expected unvisited in-edges, and compact based on the
    /// expected active-destination fraction rather than raw frontier
    /// density. The default.
    CostModel,
    /// The legacy fixed-threshold gates: pull when frontier density ≥
    /// [`EngineConfig::pull_threshold`], compact when density ≤
    /// [`EngineConfig::frontier_pull_threshold`]. Kept for the ablation
    /// experiments and as an escape hatch.
    DensityGate,
}

/// How an Edge-Push phase resolves its scatter writes (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterMode {
    /// The paper's Listing 1 scatter: one synchronized read-modify-write
    /// per edge to an arbitrary destination. Always correct; contends on
    /// hub destinations.
    Atomic,
    /// The true-SpMSpV sparse accumulator: thread-local buckets
    /// radix-partitioned by destination chunk, folded by a deterministic
    /// chunk-parallel merge — no atomics on the hot path, bit-identical
    /// to a single-threaded synchronized scatter.
    Spa,
    /// Let the direction cost model pick per iteration from the frontier's
    /// estimated scatter work ([`choose_scatter`](crate::direction::choose_scatter)).
    /// The default.
    Auto,
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
    /// Frontier density at or above which the hybrid driver selects the
    /// pull engine ("selects its pull engine whenever a sufficiently large
    /// part of the graph is contained in the frontier", §2).
    pub pull_threshold: f64,
    /// Hard iteration cap: the artifact's `-N` for PageRank. For
    /// convergence-driven applications (BFS, SSSP, CC, Reach) it is a safety
    /// net, not a tuning value — when it fires the result is truncated and
    /// [`ExecutionStats::hit_iteration_cap`](crate::engine::hybrid::ExecutionStats::hit_iteration_cap)
    /// says so. Their superstep count grows with the graph's diameter
    /// (SSSP's priority schedule takes up to about twice it), so callers on
    /// high-diameter graphs size it to the graph, e.g. `V + 1`.
    pub max_iterations: usize,
    /// Overrides hybrid engine selection: `Some(kind)` pins every Edge
    /// phase to one engine. Used by the Figure 11 per-engine comparisons
    /// (Grazelle-Pull vs Grazelle-Push).
    pub force_engine: Option<crate::engine::hybrid::EngineKind>,
    /// Enable the sparse frontier representation — the paper's stated
    /// future work (§5), implemented here. When on, the driver converts
    /// the next-iteration frontier from the dense bitmap to a sorted
    /// vertex list whenever occupancy falls to `sparse_threshold` or
    /// below, making push iterations O(|F|) instead of O(|V|/64).
    pub sparse_frontier: bool,
    /// Occupancy at or below which the frontier goes sparse.
    pub sparse_threshold: f64,
    /// Chunk-assignment scheduler for Edge-Pull.
    pub sched_kind: SchedKind,
    /// Enable the frontier-aware Edge-Pull path (DESIGN.md §11): when a
    /// pull iteration's active-destination density is at or below
    /// `frontier_pull_threshold`, the engine compacts the Vector-Sparse
    /// index into a per-iteration active vector list and runs the
    /// scheduler-aware chunk loop over that compacted space instead of the
    /// full edge array. Results are bit-identical to the dense pull.
    pub frontier_pull: bool,
    /// Frontier density at or below which a pull iteration uses the
    /// compacted active-vector path.
    pub frontier_pull_threshold: f64,
    /// How the driver decides pull-vs-push and compaction each iteration
    /// (see [`DirectionPolicy`]). The fixed density thresholds above are
    /// only consulted under [`DirectionPolicy::DensityGate`].
    pub direction_policy: DirectionPolicy,
    /// How Edge-Push phases resolve their scatter writes (see
    /// [`ScatterMode`]). `Auto` defers to the direction cost model each
    /// iteration; `Atomic`/`Spa` pin the discipline for ablations.
    pub scatter_mode: ScatterMode,
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
            pull_threshold: 0.07,
            max_iterations: 1000,
            force_engine: None,
            sparse_frontier: true,
            sparse_threshold: 0.015,
            sched_kind: SchedKind::Central,
            frontier_pull: true,
            frontier_pull_threshold: 0.35,
            direction_policy: DirectionPolicy::CostModel,
            scatter_mode: ScatterMode::Auto,
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

    /// Builder-style scheduler selection.
    pub fn with_sched_kind(mut self, kind: SchedKind) -> Self {
        self.sched_kind = kind;
        self
    }

    /// Builder-style sparse-frontier toggle (the Ligra-Dense-style
    /// comparison arm disables it).
    pub fn with_sparse_frontier(mut self, enabled: bool) -> Self {
        self.sparse_frontier = enabled;
        self
    }

    /// Builder-style frontier-aware pull toggle (the ablation's dense-only
    /// arm disables it).
    pub fn with_frontier_pull(mut self, enabled: bool) -> Self {
        self.frontier_pull = enabled;
        self
    }

    /// Builder-style frontier-aware pull density threshold.
    pub fn with_frontier_pull_threshold(mut self, t: f64) -> Self {
        self.frontier_pull_threshold = t;
        self
    }

    /// Builder-style direction-policy selection.
    pub fn with_direction_policy(mut self, p: DirectionPolicy) -> Self {
        self.direction_policy = p;
        self
    }

    /// Builder-style scatter-mode selection.
    pub fn with_scatter_mode(mut self, m: ScatterMode) -> Self {
        self.scatter_mode = m;
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
