//! Threading runtime for the Grazelle reproduction.
//!
//! The paper manages threads "by direct invocation of pthreads functions"
//! and parallelizes its Edge phase with "a dynamic scheduler that splits the
//! edge vector array into equally-sized chunks and assigns chunks to threads
//! as they become available" (§5). This crate is that runtime:
//!
//! * [`pool::ThreadPool`] — persistent workers with group (NUMA-node
//!   stand-in) topology; [`pool::run_shares`] runs a set-up builder's
//!   shares on an optional pool, inline when there is one share.
//! * [`ondemand::OnDemand`] — a structure built by its first reader.
//! * [`barrier::SpinBarrier`] — sense-reversing phase barrier.
//! * [`chunks::ChunkScheduler`] — the dynamic chunk queue (default 32·n
//!   chunks, the paper's empirically chosen granularity). The
//!   **scheduler-aware interface** over it — `StartChunk` /
//!   `LoopIteration` / `FinishChunk` (paper Figure 3) — is the engine's
//!   Edge-Pull chunk loop (`grazelle_core::engine::pull`), not a type here.
//! * [`traditional`] — the conventional `parallel_for` whose body sees only
//!   the iteration index (the interface the paper shows is insufficient).
//! * [`slots::SlotBuffer`] — the per-chunk merge buffer written without
//!   synchronization because every chunk id is owned by exactly one thread.
//! * [`cancel::CancelFlag`] — the cooperative cancellation signal task
//!   batches ([`pool::ThreadPool::run_tasks_cancellable`]) and the
//!   resilient engine driver poll at their safe points.
//! * [`alloc`] — the process-wide allocator policy for build-sized buffers,
//!   pinned by the loaders and `prepare*` so resident memory follows live
//!   memory instead of the allocator's layout luck.
//! * `invariants` (feature `invariant-checks`) — the shadow write-tracker
//!   auditing the §3 exactly-once-write contract after each Edge phase.

pub mod alloc;
pub mod barrier;
pub mod cancel;
pub mod chunks;
#[cfg(feature = "invariant-checks")]
pub mod invariants;
pub mod ondemand;
pub mod pool;
pub mod slots;
pub mod traditional;

pub use barrier::SpinBarrier;
pub use cancel::CancelFlag;
pub use chunks::{Chunk, ChunkScheduler, ChunkSource};
pub use ondemand::{build_pool, OnDemand, PAR_BUILD_CUTOVER_EDGES};
pub use pool::{run_shares, ThreadPool, WorkerCtx};
pub use slots::SlotBuffer;
pub use traditional::parallel_for;
