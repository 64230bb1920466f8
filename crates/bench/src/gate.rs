//! Perf-regression gate: compares a freshly generated `BENCH_*.json`
//! directory against a committed baseline (DESIGN.md §10).
//!
//! Comparison model: for each experiment present in *both* trees, take
//! every run label present in both documents, median the samples per
//! label, and form the ratio `current / baseline`. The experiment's
//! score is the geometric mean of its label ratios; it regresses when
//! the score exceeds `1 + tolerance`. Per-label ratios are reported but
//! only the geomean gates — single labels are too noisy at smoke scale.
//!
//! Experiments present in the baseline but missing from the current run
//! (or vice versa) are reported as structural findings and fail the
//! gate: a silently dropped experiment must not read as "no regression".

use crate::json::Json;
use crate::report::median;
use crate::schema::{runs_by_label, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::path::Path;

/// Default headroom before a geomean slowdown counts as a regression.
/// Smoke-scale CI boxes are noisy; 25% still catches the 2× injected
/// stall by an order of magnitude.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One experiment's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentVerdict {
    pub experiment: String,
    /// Geomean of per-label current/baseline ratios (1.0 = unchanged).
    pub geomean: f64,
    /// Per-label ratios, sorted by label.
    pub ratios: Vec<(String, f64)>,
    pub regressed: bool,
}

/// The whole gate run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    pub verdicts: Vec<ExperimentVerdict>,
    /// Experiments in the baseline with no current counterpart.
    pub missing_current: Vec<String>,
    /// Experiments in the current tree with no baseline counterpart
    /// (informational: new experiments don't fail the gate).
    pub missing_baseline: Vec<String>,
    /// Parse/schema problems, one message each.
    pub errors: Vec<String>,
}

impl GateReport {
    /// True when nothing regressed and nothing went structurally wrong.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
            && self.missing_current.is_empty()
            && self.verdicts.iter().all(|v| !v.regressed)
    }

    /// Renders a human-readable summary.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# perf gate — tolerance {:+.0}% on per-experiment geomean\n",
            tolerance * 100.0
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "{} {:<24} geomean {:+.1}%\n",
                if v.regressed { "FAIL" } else { "ok  " },
                v.experiment,
                (v.geomean - 1.0) * 100.0
            ));
            for (label, ratio) in &v.ratios {
                out.push_str(&format!(
                    "       {:<20} {:+.1}%\n",
                    label,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
        for name in &self.missing_current {
            out.push_str(&format!("FAIL {name:<24} missing from current run\n"));
        }
        for name in &self.missing_baseline {
            out.push_str(&format!("new  {name:<24} no baseline (not gated)\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("FAIL {e}\n"));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }
}

/// Loads every `BENCH_*.json` under `dir`, keyed by experiment name.
/// Schema-version mismatches and parse failures land in `errors`.
fn load_dir(dir: &Path, errors: &mut Vec<String>) -> BTreeMap<String, Json> {
    let mut out = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("cannot read {}: {e}", dir.display()));
            return out;
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("cannot read {}: {e}", path.display()));
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                errors.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        let version = doc.get("schema_version").and_then(|v| v.as_f64());
        if version != Some(SCHEMA_VERSION as f64) {
            errors.push(format!(
                "{}: schema_version {version:?} != {SCHEMA_VERSION}",
                path.display()
            ));
            continue;
        }
        match doc.get("experiment").and_then(|e| e.as_str()) {
            Some(exp) => {
                out.insert(exp.to_string(), doc);
            }
            None => errors.push(format!("{}: no experiment name", path.display())),
        }
    }
    out
}

/// Medians duplicate labels into one sample per label.
fn label_medians(doc: &Json) -> BTreeMap<String, f64> {
    let mut grouped: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (label, secs) in runs_by_label(doc) {
        grouped.entry(label).or_default().push(secs);
    }
    grouped
        .into_iter()
        .map(|(label, mut samples)| {
            let m = median(&mut samples);
            (label, m)
        })
        .collect()
}

/// Compares two documents for the same experiment.
fn compare_experiment(
    name: &str,
    baseline: &Json,
    current: &Json,
    tolerance: f64,
) -> ExperimentVerdict {
    let base = label_medians(baseline);
    let cur = label_medians(current);
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (label, b) in &base {
        if let Some(c) = cur.get(label) {
            if *b > 0.0 && *c > 0.0 {
                ratios.push((label.clone(), c / b));
            }
        }
    }
    let geomean = if ratios.is_empty() {
        1.0
    } else {
        (ratios.iter().map(|(_, r)| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    };
    ExperimentVerdict {
        experiment: name.to_string(),
        geomean,
        ratios,
        regressed: geomean > 1.0 + tolerance,
    }
}

/// Runs the gate over two `BENCH_*.json` directories.
pub fn compare_dirs(baseline_dir: &Path, current_dir: &Path, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let baseline = load_dir(baseline_dir, &mut report.errors);
    let current = load_dir(current_dir, &mut report.errors);
    for (name, base_doc) in &baseline {
        match current.get(name) {
            Some(cur_doc) => report
                .verdicts
                .push(compare_experiment(name, base_doc, cur_doc, tolerance)),
            None => report.missing_current.push(name.clone()),
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            report.missing_baseline.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{experiment_doc, write_experiment, RunRecord};

    fn record(label: &str, secs: f64) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            secs,
            iterations: 4,
            pull_iterations: 4,
            push_iterations: 0,
            trace_records: 0,
            work_ns: 100,
            merge_ns: 10,
            write_ns: 10,
            idle_ns: 0,
            edge_wall_ns: 120,
            updates: 64,
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

    fn write_doc(dir: &Path, name: &str, runs: &[RunRecord]) {
        let doc = experiment_doc(name, "best-of-N", -2, 2, 1, &[], runs);
        write_experiment(dir, &doc).unwrap();
    }

    fn temp_pair(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "grazelle-gate-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let (b, c) = (root.join("base"), root.join("cur"));
        (b, c)
    }

    #[test]
    fn clean_run_passes_and_slowdown_fails() {
        let (base, cur) = temp_pair("ratio");
        write_doc(&base, "gate", &[record("gate:pr", 0.100)]);
        // Within tolerance: +10% on a 25% gate.
        write_doc(&cur, "gate", &[record("gate:pr", 0.110)]);
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{}", report.render(DEFAULT_TOLERANCE));

        // 2× slowdown: far outside tolerance.
        write_doc(&cur, "gate", &[record("gate:pr", 0.200)]);
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.verdicts[0].regressed);
        assert!(report.render(DEFAULT_TOLERANCE).contains("FAIL gate"));
        std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }

    #[test]
    fn duplicate_labels_median_before_comparing() {
        let (base, cur) = temp_pair("median");
        write_doc(&base, "gate", &[record("g", 0.1), record("g", 0.1)]);
        // Current medians to 0.1 despite one wild outlier sample.
        write_doc(
            &cur,
            "gate",
            &[record("g", 0.1), record("g", 0.1), record("g", 5.0)],
        );
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{}", report.render(DEFAULT_TOLERANCE));
        std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_experiment_fails_structurally() {
        let (base, cur) = temp_pair("missing");
        write_doc(&base, "fig5a", &[record("pr:T", 0.1)]);
        write_doc(&base, "gate", &[record("gate:pr", 0.1)]);
        write_doc(&cur, "gate", &[record("gate:pr", 0.1)]);
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert_eq!(report.missing_current, ["fig5a"]);
        // New current-only experiments are informational, not failures.
        write_doc(&cur, "fig5a", &[record("pr:T", 0.1)]);
        write_doc(&cur, "brand-new", &[record("x", 0.1)]);
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{}", report.render(DEFAULT_TOLERANCE));
        assert_eq!(report.missing_baseline, ["brand-new"]);
        std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let (base, cur) = temp_pair("schema");
        write_doc(&base, "gate", &[record("g", 0.1)]);
        std::fs::create_dir_all(&cur).unwrap();
        std::fs::write(
            cur.join("BENCH_gate.json"),
            "{\"schema_version\": 999, \"experiment\": \"gate\", \"runs\": []}\n",
        )
        .unwrap();
        let report = compare_dirs(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.errors.iter().any(|e| e.contains("schema_version")));
        std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }
}
