//! The Grazelle serving layer: long-running, batched, overload-safe query
//! execution over one loaded graph (DESIGN.md §14).
//!
//! A [`Server`] loads nothing itself — it is started over an already-built
//! [`Graph`](grazelle_graph::graph::Graph) +
//! [`PreparedGraph`](grazelle_core::engine::PreparedGraph) and executes
//! [`Query`]s against them on the grazelle-sched pool, with the
//! robustness properties a serving process needs and a one-shot run does
//! not:
//!
//! * **Bounded admission** — a capacity-limited queue plus an
//!   estimated-work budget; load beyond either is shed *immediately* with
//!   a typed [`ServeError::Overloaded`], never buffered without bound.
//! * **Batch formation** — up to 64 reachability and BFS queries pack into
//!   one bit-parallel [`multi_source_reach`](grazelle_apps::multi) run over
//!   the current version, insert overlay included: one direction-optimising
//!   sweep (pull by default) answering the whole batch.
//! * **Deadlines** — per-query, enforced by cooperative cancellation at
//!   engine iteration boundaries ([`ServeError::Expired`]); nothing is
//!   killed mid-iteration, the pool is never poisoned.
//! * **Containment** — transient failures (including executor panics)
//!   retry with deterministic jittered backoff under ingestion's
//!   [`RetryPolicy`](grazelle_graph::faults::RetryPolicy) vocabulary,
//!   then degrade to a sequential-scalar attempt, then report
//!   [`ServeError::Failed`]. The server process survives everything the
//!   fault plan can express.
//! * **Graceful lifecycle** — [`Server::drain`] stops admission, finishes
//!   or expires in-flight work, and writes a final `GRZCKPT1`-anchored
//!   stats snapshot; [`StatsEndpoint`] serves plain-text health/stats over
//!   TCP throughout.
//!
//! Fault injection is first-class: a
//! [`ServeFaultPlan`](grazelle_core::faults::ServeFaultPlan) pins
//! admission stalls, per-query panics, and deadline storms to admission
//! sequence numbers, so a soak run replays deterministically.
//!
//! Completed queries are **bit-identical** to single-shot
//! [`run_resilient`](grazelle_core::run_resilient) executions of the same
//! query: the server's executor calls the same [`single_shot`] path the
//! tests compare against.

pub mod endpoint;
pub mod query;
pub mod server;
pub mod stats;

pub use endpoint::StatsEndpoint;
pub use query::{single_shot, Query, QueryResult, ServeError};
pub use server::{QueryOutcome, ServeConfig, Server, StatsHandle, Ticket};
pub use stats::StatsSnapshot;
