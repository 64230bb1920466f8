//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! Experiment logic lives in [`experiments`], one function per table or
//! figure; the `repro` binary prints them as paper-style tables and
//! writes them as `BENCH_<experiment>.json`. [`workloads`] owns the
//! Table-1 stand-in graphs and the artifact's suggested PageRank
//! iteration counts (Table 2); [`report`] renders aligned text tables.

pub mod experiments;
pub mod json;
pub mod report;
pub mod schema;
pub mod workloads;
