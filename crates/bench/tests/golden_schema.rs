//! Golden-file guard for the `BENCH_<experiment>.json` schema
//! (DESIGN.md §10). The committed document under `tests/testdata/` pins
//! both the renderer's byte output and the schema version: any change to
//! the document shape fails here until [`SCHEMA_VERSION`] is bumped and
//! the golden file regenerated with `GOLDEN_REGEN=1 cargo test -p
//! grazelle-bench --test golden_schema`.

use grazelle_bench::json::Json;
use grazelle_bench::report::Table;
use grazelle_bench::schema::{
    experiment_doc, runs_by_label, RunRecord, SCHEMA_MINOR, SCHEMA_VERSION,
};

const GOLDEN: &str = include_str!("testdata/BENCH_golden.json");

/// A deterministic document exercising every schema field: a table with
/// notes, duplicate run labels, resilience events, and an escaped title.
fn golden_doc() -> Json {
    let mut t = Table::new(
        "Golden — PageRank \"gate\" drill (µs-scale)",
        &["graph", "ms/iter", "events"],
    );
    t.note("fixed synthetic numbers; nothing here was measured");
    t.row(vec!["C".into(), "1.250".into(), "clean".into()]);
    t.row(vec![
        "T".into(),
        "4.125".into(),
        "retries=2 degraded=1 rollbacks=1".into(),
    ]);
    let runs = vec![
        RunRecord {
            label: "gate:pr:C".into(),
            secs: 0.00125,
            iterations: 16,
            pull_iterations: 16,
            push_iterations: 0,
            trace_records: 0,
            work_ns: 1_200_000,
            merge_ns: 80_000,
            write_ns: 40_000,
            idle_ns: 15_000,
            edge_wall_ns: 1_350_000,
            updates: 65_536,
            retries: 0,
            degraded: 0,
            rollbacks: 0,
            vertex_touched: 0,
            acc_resets_skipped: 0,
            bucket_steps: 0,
            held_back: 0,
            build: None,
        },
        RunRecord {
            label: "gate:pr:C".into(),
            secs: 0.00131,
            iterations: 16,
            pull_iterations: 16,
            push_iterations: 0,
            trace_records: 0,
            work_ns: 1_260_000,
            merge_ns: 82_000,
            write_ns: 41_000,
            idle_ns: 16_000,
            edge_wall_ns: 1_410_000,
            updates: 65_536,
            retries: 0,
            degraded: 0,
            rollbacks: 0,
            vertex_touched: 0,
            acc_resets_skipped: 0,
            bucket_steps: 0,
            held_back: 0,
            build: None,
        },
        RunRecord {
            label: "gate:pr:T".into(),
            secs: 0.004125,
            iterations: 17,
            pull_iterations: 12,
            push_iterations: 5,
            trace_records: 18,
            work_ns: 3_900_000,
            merge_ns: 210_000,
            write_ns: 130_000,
            idle_ns: 55_000,
            edge_wall_ns: 4_300_000,
            updates: 262_144,
            retries: 2,
            degraded: 1,
            rollbacks: 1,
            // Schema minor 6: five push supersteps, four of them after a
            // sparse Vertex phase.
            vertex_touched: 9_216,
            acc_resets_skipped: 4,
            // Schema minor 7: three of them on the priority schedule.
            bucket_steps: 3,
            held_back: 57,
            build: None,
        },
        // Schema minor 1: a build-pipeline run with the ingestion
        // breakdown attached (ISSUE 5).
        RunRecord::from_build(
            "build:8",
            0.0425,
            &grazelle_core::stats::BuildProfile {
                parse_ns: 30_000_000,
                csr_ns: 5_000_000,
                csc_ns: 5_200_000,
                vsparse_ns: 2_300_000,
                input_bytes: 12_582_912,
                edges: 1_048_576,
                threads: 8,
                par_cutover: 65_536,
            },
        ),
    ];
    experiment_doc("golden", "best-of-N", -2, 4, 3, &[t], &runs)
}

fn regen_if_requested(doc: &Json) {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/testdata/BENCH_golden.json"
        );
        std::fs::write(path, doc.render()).expect("regen golden");
    }
}

#[test]
fn renderer_output_matches_golden_bytes() {
    let doc = golden_doc();
    regen_if_requested(&doc);
    assert_eq!(
        doc.render(),
        GOLDEN,
        "BENCH document output drifted from the golden file.\n\
         If the schema changed intentionally: bump SCHEMA_VERSION in \
         schema.rs and regenerate with GOLDEN_REGEN=1."
    );
}

#[test]
fn golden_round_trips_through_the_parser() {
    assert_eq!(Json::parse(GOLDEN).expect("golden parses"), golden_doc());
}

#[test]
fn golden_schema_version_matches_code() {
    // The bump guard: raising SCHEMA_VERSION in code without
    // regenerating the golden file fails here, and vice versa.
    let parsed = Json::parse(GOLDEN).unwrap();
    assert_eq!(
        parsed.get("schema_version").and_then(|v| v.as_f64()),
        Some(SCHEMA_VERSION as f64)
    );
}

#[test]
fn golden_schema_minor_matches_code() {
    let parsed = Json::parse(GOLDEN).unwrap();
    assert_eq!(
        parsed.get("schema_minor").and_then(|v| v.as_f64()),
        Some(SCHEMA_MINOR as f64)
    );
}

#[test]
fn golden_build_run_carries_breakdown() {
    let parsed = Json::parse(GOLDEN).unwrap();
    let run = &parsed.get("runs").unwrap().as_arr().unwrap()[3];
    assert_eq!(run.get("label").unwrap().as_str(), Some("build:8"));
    let build = run.get("build").expect("build object present");
    for key in [
        "parse_ns",
        "csr_ns",
        "csc_ns",
        "vsparse_ns",
        "input_bytes",
        "edges",
        "threads",
        "par_cutover",
    ] {
        assert!(build.get(key).is_some(), "missing build '{key}'");
    }
    // Engine runs must stay build-less.
    assert!(parsed.get("runs").unwrap().as_arr().unwrap()[0]
        .get("build")
        .is_none());
}

#[test]
fn golden_runs_key_for_the_gate() {
    let parsed = Json::parse(GOLDEN).unwrap();
    let runs = runs_by_label(&parsed);
    assert_eq!(runs.len(), 4);
    assert_eq!(
        runs.iter().filter(|(l, _)| l == "gate:pr:C").count(),
        2,
        "duplicate labels must survive extraction (the gate medians them)"
    );
}

#[test]
fn golden_preserves_required_fields() {
    let parsed = Json::parse(GOLDEN).unwrap();
    for key in [
        "schema_version",
        "experiment",
        "policy",
        "config",
        "tables",
        "runs",
    ] {
        assert!(parsed.get(key).is_some(), "missing top-level '{key}'");
    }
    let run = &parsed.get("runs").unwrap().as_arr().unwrap()[2];
    let profile = run.get("profile").unwrap();
    for key in [
        "work_ns",
        "merge_ns",
        "write_ns",
        "idle_ns",
        "edge_wall_ns",
        "updates",
        "retries",
        "degraded",
        "rollbacks",
        "vertex_touched",
        "acc_resets_skipped",
        "bucket_steps",
        "held_back",
    ] {
        assert!(profile.get(key).is_some(), "missing profile '{key}'");
    }
    assert_eq!(
        profile.get("acc_resets_skipped").unwrap().as_f64(),
        Some(4.0)
    );
    assert_eq!(run.get("trace_records").unwrap().as_f64(), Some(18.0));
}
