//! Machine-readable experiment output: the `BENCH_<experiment>.json`
//! document schema (DESIGN.md §10) plus the process-wide run log the
//! timing helpers feed.
//!
//! Document shape (schema version [`SCHEMA_VERSION`]):
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "schema_minor": 1,
//!   "experiment": "fig5a",
//!   "policy": "median-of-N",
//!   "config": { "scale_shift": -2, "threads": 4, "repeats": 3 },
//!   "tables": [ { "title", "notes", "headers", "rows" } ],
//!   "runs":   [ { "label", "secs", "iterations", ...,
//!                 "profile": { "work_ns", ..., "rollbacks" } } ]
//! }
//! ```
//!
//! The gate (`repro perf-gate`) reads `runs[].secs` keyed by `label`;
//! everything else is for humans and dashboards. Bump [`SCHEMA_VERSION`]
//! on any field rename/removal — the golden-file test guards the bump.

use crate::json::Json;
use crate::report::Table;
use grazelle_core::engine::hybrid::ExecutionStats;
use std::path::Path;
use std::sync::Mutex;

/// Version stamp written into every document. Bump on incompatible
/// change (field rename/removal or semantic change of `secs`).
pub const SCHEMA_VERSION: u64 = 1;

/// Additive-change counter under [`SCHEMA_VERSION`]. Bump when new fields
/// appear that old readers may ignore (the gate only rejects on a major
/// mismatch). Minor 1: optional per-run `build` object with the ingestion
/// phase breakdown (ISSUE 5). Minor 2: `build.par_cutover` (the
/// sequential/parallel build threshold in effect) and the `serve-latency`
/// experiment's `serve-latency/*` run labels. Minor 3: the
/// `incremental-updates` experiment's `incr:{cold,warm}:*` run labels and
/// the opt-in `build-large` experiment's `build-large:*` labels. Minor 4:
/// the `triangle-count` (`tc:{pull,push,resilient}:*`) and `labelprop`
/// (`lp:{hybrid,pull,push}:*`) experiments' run labels. Minor 5: the
/// `ablate-push-spa` experiment's `spa:{atomic,spa,auto}:{bfs,sssp}:*`
/// labels, whose `secs` is the push Edge-phase wall (not end-to-end).
/// Minor 6: `profile.vertex_touched` / `profile.acc_resets_skipped`, the
/// sparse Vertex phase's per-run totals (DESIGN.md §18). Minor 7:
/// `profile.bucket_steps` / `profile.held_back`, the priority schedule's
/// (supersteps run from one bucket; active vertices held back, summed over
/// them).
pub const SCHEMA_MINOR: u64 = 7;

/// The load → CSR/CSC → Vector-Sparse phase breakdown attached to runs of
/// build experiments (`build-throughput`). Mirrors
/// [`grazelle_core::stats::BuildProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildRecord {
    pub parse_ns: u64,
    pub csr_ns: u64,
    pub csc_ns: u64,
    pub vsparse_ns: u64,
    pub input_bytes: u64,
    pub edges: u64,
    pub threads: u64,
    /// Sequential/parallel cutover threshold in effect (0 = disabled).
    pub par_cutover: u64,
}

impl BuildRecord {
    /// Copies a [`BuildProfile`](grazelle_core::stats::BuildProfile).
    pub fn from_profile(p: &grazelle_core::stats::BuildProfile) -> BuildRecord {
        BuildRecord {
            parse_ns: p.parse_ns,
            csr_ns: p.csr_ns,
            csc_ns: p.csc_ns,
            vsparse_ns: p.vsparse_ns,
            input_bytes: p.input_bytes,
            edges: p.edges,
            threads: p.threads as u64,
            par_cutover: p.par_cutover,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("parse_ns", Json::Num(self.parse_ns as f64)),
            ("csr_ns", Json::Num(self.csr_ns as f64)),
            ("csc_ns", Json::Num(self.csc_ns as f64)),
            ("vsparse_ns", Json::Num(self.vsparse_ns as f64)),
            ("input_bytes", Json::Num(self.input_bytes as f64)),
            ("edges", Json::Num(self.edges as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("par_cutover", Json::Num(self.par_cutover as f64)),
        ])
    }
}

/// One timed run: the measurement plus its phase-profile summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Stable key the perf gate compares on, e.g. `"pr:T"` or `"gate:pr"`.
    pub label: String,
    /// The reported measurement (per-iteration or total seconds,
    /// whichever the experiment's table reports).
    pub secs: f64,
    /// Supersteps executed.
    pub iterations: u64,
    /// Iterations that selected Edge-Pull.
    pub pull_iterations: u64,
    /// Iterations that selected Edge-Push.
    pub push_iterations: u64,
    /// Flight-recorder records captured (0 when tracing was off).
    pub trace_records: u64,
    /// Figure 5b phase decomposition, nanoseconds.
    pub work_ns: u64,
    pub merge_ns: u64,
    pub write_ns: u64,
    pub idle_ns: u64,
    pub edge_wall_ns: u64,
    /// Total shared-memory value updates across interfaces.
    pub updates: u64,
    /// §9 resilience events observed during the run.
    pub retries: u64,
    pub degraded: u64,
    pub rollbacks: u64,
    /// Touched-list entries walked by sparse Vertex phases (DESIGN.md §18).
    pub vertex_touched: u64,
    /// Supersteps that skipped the accumulator reset.
    pub acc_resets_skipped: u64,
    /// Supersteps whose frontier was one bucket of the priority schedule.
    pub bucket_steps: u64,
    /// Active vertices held back in later buckets, summed over those.
    pub held_back: u64,
    /// Ingestion phase breakdown — `Some` only for build experiments
    /// (schema minor 1, additive).
    pub build: Option<BuildRecord>,
}

impl RunRecord {
    /// Builds a record from an engine run.
    pub fn from_stats(label: &str, secs: f64, stats: &ExecutionStats) -> RunRecord {
        let p = &stats.profile;
        RunRecord {
            label: label.to_string(),
            secs,
            iterations: stats.iterations as u64,
            pull_iterations: stats.pull_iterations as u64,
            push_iterations: stats.push_iterations as u64,
            trace_records: stats.records.len() as u64,
            work_ns: p.work.as_nanos() as u64,
            merge_ns: p.merge.as_nanos() as u64,
            write_ns: p.write.as_nanos() as u64,
            idle_ns: p.idle.as_nanos() as u64,
            edge_wall_ns: p.edge_wall.as_nanos() as u64,
            updates: p.total_updates(),
            retries: p.chunk_retries,
            degraded: p.degraded_iterations,
            rollbacks: p.divergence_rollbacks,
            vertex_touched: p.vertex_touched,
            acc_resets_skipped: p.acc_resets_skipped,
            bucket_steps: p.bucket_steps,
            held_back: p.held_back,
            build: None,
        }
    }

    /// Builds a record for one timed build-pipeline run (no engine stats).
    pub fn from_build(
        label: &str,
        secs: f64,
        profile: &grazelle_core::stats::BuildProfile,
    ) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            secs,
            iterations: 0,
            pull_iterations: 0,
            push_iterations: 0,
            trace_records: 0,
            work_ns: 0,
            merge_ns: 0,
            write_ns: 0,
            idle_ns: 0,
            edge_wall_ns: 0,
            updates: 0,
            retries: 0,
            degraded: 0,
            rollbacks: 0,
            vertex_touched: 0,
            acc_resets_skipped: 0,
            bucket_steps: 0,
            held_back: 0,
            build: Some(BuildRecord::from_profile(profile)),
        }
    }

    /// Builds a bare timing record (no engine stats, no build breakdown) —
    /// what the serve-latency experiment logs per query stream.
    pub fn from_secs(label: &str, secs: f64) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            secs,
            iterations: 0,
            pull_iterations: 0,
            push_iterations: 0,
            trace_records: 0,
            work_ns: 0,
            merge_ns: 0,
            write_ns: 0,
            idle_ns: 0,
            edge_wall_ns: 0,
            updates: 0,
            retries: 0,
            degraded: 0,
            rollbacks: 0,
            vertex_touched: 0,
            acc_resets_skipped: 0,
            bucket_steps: 0,
            held_back: 0,
            build: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("label", Json::str(&self.label)),
            ("secs", Json::Num(self.secs)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("pull_iterations", Json::Num(self.pull_iterations as f64)),
            ("push_iterations", Json::Num(self.push_iterations as f64)),
            ("trace_records", Json::Num(self.trace_records as f64)),
            (
                "profile",
                Json::obj(vec![
                    ("work_ns", Json::Num(self.work_ns as f64)),
                    ("merge_ns", Json::Num(self.merge_ns as f64)),
                    ("write_ns", Json::Num(self.write_ns as f64)),
                    ("idle_ns", Json::Num(self.idle_ns as f64)),
                    ("edge_wall_ns", Json::Num(self.edge_wall_ns as f64)),
                    ("updates", Json::Num(self.updates as f64)),
                    ("retries", Json::Num(self.retries as f64)),
                    ("degraded", Json::Num(self.degraded as f64)),
                    ("rollbacks", Json::Num(self.rollbacks as f64)),
                    ("vertex_touched", Json::Num(self.vertex_touched as f64)),
                    (
                        "acc_resets_skipped",
                        Json::Num(self.acc_resets_skipped as f64),
                    ),
                    ("bucket_steps", Json::Num(self.bucket_steps as f64)),
                    ("held_back", Json::Num(self.held_back as f64)),
                ]),
            ),
        ];
        if let Some(build) = self.build {
            fields.push(("build", build.to_json()));
        }
        Json::obj(fields)
    }
}

/// Process-wide run log. Timing helpers append; `drain_runs` empties it
/// into the experiment document being assembled.
static RUN_LOG: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());

/// Appends a run to the log (called by the bench timing helpers).
pub fn log_run(record: RunRecord) {
    RUN_LOG.lock().expect("run log poisoned").push(record);
}

/// Removes and returns everything logged since the previous drain.
pub fn drain_runs() -> Vec<RunRecord> {
    std::mem::take(&mut *RUN_LOG.lock().expect("run log poisoned"))
}

fn table_to_json(t: &Table) -> Json {
    Json::obj(vec![
        ("title", Json::str(&t.title)),
        (
            "notes",
            Json::Arr(t.notes.iter().map(|n| Json::str(n)).collect()),
        ),
        (
            "headers",
            Json::Arr(t.headers.iter().map(|h| Json::str(h)).collect()),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|c| Json::str(c)).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Assembles one experiment's document.
pub fn experiment_doc(
    experiment: &str,
    policy: &str,
    scale_shift: i32,
    threads: usize,
    repeats: usize,
    tables: &[Table],
    runs: &[RunRecord],
) -> Json {
    Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("schema_minor", Json::Num(SCHEMA_MINOR as f64)),
        ("experiment", Json::str(experiment)),
        ("policy", Json::str(policy)),
        (
            "config",
            Json::obj(vec![
                ("scale_shift", Json::Num(scale_shift as f64)),
                ("threads", Json::Num(threads as f64)),
                ("repeats", Json::Num(repeats as f64)),
            ]),
        ),
        (
            "tables",
            Json::Arr(tables.iter().map(table_to_json).collect()),
        ),
        (
            "runs",
            Json::Arr(runs.iter().map(|r| r.to_json()).collect()),
        ),
    ])
}

/// Writes `BENCH_<experiment>.json` under `dir` (created if missing).
/// Returns the path written.
pub fn write_experiment(dir: &Path, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let name = doc
        .get("experiment")
        .and_then(|e| e.as_str())
        .expect("experiment_doc sets the name");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

/// Parses a run's `secs` measurements out of a document, keyed by label.
/// Duplicate labels keep every sample (the gate medians over them).
pub fn runs_by_label(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(runs) = doc.get("runs").and_then(|r| r.as_arr()) {
        for run in runs {
            if let (Some(label), Some(secs)) = (
                run.get("label").and_then(|l| l.as_str()),
                run.get("secs").and_then(|s| s.as_f64()),
            ) {
                out.push((label.to_string(), secs));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(label: &str, secs: f64) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            secs,
            iterations: 8,
            pull_iterations: 6,
            push_iterations: 2,
            trace_records: 0,
            work_ns: 1000,
            merge_ns: 200,
            write_ns: 300,
            idle_ns: 50,
            edge_wall_ns: 1300,
            updates: 4096,
            retries: 0,
            degraded: 0,
            rollbacks: 0,
            vertex_touched: 0,
            acc_resets_skipped: 0,
            bucket_steps: 0,
            held_back: 0,
            build: None,
        }
    }

    #[test]
    fn run_log_drains_in_order() {
        drain_runs();
        log_run(sample_record("a", 1.0));
        log_run(sample_record("b", 2.0));
        let runs = drain_runs();
        assert_eq!(
            runs.iter().map(|r| r.label.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(drain_runs().is_empty());
    }

    #[test]
    fn document_round_trips_and_keys_runs() {
        let mut t = Table::new("demo", &["graph", "time"]);
        t.note("a note");
        t.row(vec!["C".into(), "1.0ms".into()]);
        let runs = [sample_record("pr:C", 0.25), sample_record("pr:C", 0.35)];
        let doc = experiment_doc("demo", "median-of-N", -2, 4, 3, &[t], &runs);
        let parsed = crate::json::Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.get("schema_version").unwrap().as_f64(),
            Some(SCHEMA_VERSION as f64)
        );
        let by_label = runs_by_label(&parsed);
        assert_eq!(by_label.len(), 2);
        assert_eq!(by_label[0], ("pr:C".to_string(), 0.25));
    }

    #[test]
    fn build_records_serialize_additively() {
        let profile = grazelle_core::stats::BuildProfile {
            parse_ns: 10,
            csr_ns: 20,
            csc_ns: 30,
            vsparse_ns: 40,
            input_bytes: 1024,
            edges: 99,
            threads: 8,
            par_cutover: 65536,
        };
        let rec = RunRecord::from_build("build:8", 0.0001, &profile);
        let doc = experiment_doc("build-throughput", "best-of-N", 0, 8, 3, &[], &[rec]);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(
            parsed.get("schema_minor").unwrap().as_f64(),
            Some(SCHEMA_MINOR as f64)
        );
        let run = &parsed.get("runs").unwrap().as_arr().unwrap()[0];
        let build = run.get("build").unwrap();
        assert_eq!(build.get("parse_ns").unwrap().as_f64(), Some(10.0));
        assert_eq!(build.get("threads").unwrap().as_f64(), Some(8.0));
        assert_eq!(build.get("par_cutover").unwrap().as_f64(), Some(65536.0));
        // Engine runs stay build-less: the key is simply absent.
        let plain = sample_record("pr:C", 0.5).to_json();
        assert!(plain.get("build").is_none());
        // The gate's label extraction still sees build runs.
        assert_eq!(
            runs_by_label(&parsed),
            vec![("build:8".to_string(), 0.0001)]
        );
    }

    #[test]
    fn write_experiment_names_file_after_experiment() {
        let dir = std::env::temp_dir().join(format!(
            "grazelle-schema-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let doc = experiment_doc("fig5a", "median-of-N", -2, 2, 1, &[], &[]);
        let path = write_experiment(&dir, &doc).unwrap();
        assert!(path.ends_with("BENCH_fig5a.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
