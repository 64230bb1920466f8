//! The concurrency-soundness analyzer (`cargo xtask analyze`).
//!
//! Two static passes over the workspace, built on the same channel-split
//! tokenizer as the lints (DESIGN.md §13):
//!
//! * [`atomics`] — the atomic-ordering protocol audit: every `Ordering::*`
//!   site in `crates/sched` and `crates/core` must carry a machine-checked
//!   `// ATOMIC: <role>` annotation from the protocol table, use only the
//!   orderings the role admits, and (for paired roles) have both sides of
//!   its publication edge.
//! * [`disjoint`] — the chunk-disjoint write dataflow pass: every
//!   unsynchronized write to shared engine storage must index through the
//!   scheduler's chunk grant or carry a `// DISJOINT: <category>`
//!   justification from the declared table.
//!
//! Findings are deterministic: sorted by path, line, pass, kind, and
//! message, with exact duplicates removed, so CI diffs are stable and the
//! `--json` artifact (`ANALYZE_report.json`) is byte-reproducible for a
//! given tree.

pub mod atomics;
pub mod disjoint;
pub mod protocol;
pub mod stmt;

use crate::lint::{self, source::SourceFile};
use std::fmt;
use std::path::{Path, PathBuf};

/// Name of the JSON artifact `cargo xtask analyze --json` emits, next to
/// the `BENCH_*.json` files `repro --json` writes.
pub const REPORT_FILENAME: &str = "ANALYZE_report.json";

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    AtomicProtocol,
    ChunkDisjoint,
}

impl Pass {
    /// Kebab name used in display output and the JSON artifact.
    pub fn name(&self) -> &'static str {
        match self {
            Pass::AtomicProtocol => "atomic-protocol",
            Pass::ChunkDisjoint => "chunk-disjoint",
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number of the offending statement's first line.
    pub line: usize,
    /// The pass that fired.
    pub pass: Pass,
    /// Stable finding class (e.g. `missing-annotation`,
    /// `unproven-chunk-write`); fixtures assert on these.
    pub kind: &'static str,
    /// Human-readable explanation quoting the violated contract.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file.display(),
            self.line,
            self.pass.name(),
            self.kind,
            self.message
        )
    }
}

/// The analyzer's result: findings plus the coverage statistics the
/// summary line and JSON artifact report.
#[derive(Debug)]
pub struct Report {
    /// Sorted, deduplicated findings.
    pub findings: Vec<Finding>,
    /// Rust files the walker fed to the passes.
    pub files_scanned: usize,
    /// Atomic-pass coverage.
    pub atomics: atomics::AtomicStats,
    /// Disjointness-pass coverage.
    pub disjoint: disjoint::DisjointStats,
}

impl Report {
    /// One-line human summary printed after the findings.
    pub fn summary_line(&self) -> String {
        let verdict = if self.findings.is_empty() {
            "workspace clean".to_string()
        } else {
            format!("{} finding(s)", self.findings.len())
        };
        format!(
            "xtask analyze: {verdict} — {} file(s); atomics: {}/{} sites annotated; \
             disjoint: {} sink(s), {} proven, {} annotated",
            self.files_scanned,
            self.atomics.annotated,
            self.atomics.sites,
            self.disjoint.sinks,
            self.disjoint.proven,
            self.disjoint.annotated,
        )
    }

    /// Deterministic JSON artifact (hand-rolled: the tree builds offline,
    /// so no serde). Key order is fixed and findings are pre-sorted, so
    /// the output is byte-stable for a given tree.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"grazelle-analyze-v1\",\n");
        s.push_str(&format!(
            "  \"clean\": {},\n  \"files_scanned\": {},\n",
            self.findings.is_empty(),
            self.files_scanned
        ));
        s.push_str(&format!(
            "  \"atomics\": {{ \"sites\": {}, \"annotated\": {} }},\n",
            self.atomics.sites, self.atomics.annotated
        ));
        s.push_str(&format!(
            "  \"disjoint\": {{ \"sinks\": {}, \"proven\": {}, \"annotated\": {} }},\n",
            self.disjoint.sinks, self.disjoint.proven, self.disjoint.annotated
        ));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{ \"file\": \"{}\", \"line\": {}, \"pass\": \"{}\", \
                 \"kind\": \"{}\", \"message\": \"{}\" }}",
                json_escape(&f.file.display().to_string()),
                f.line,
                f.pass.name(),
                f.kind,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The first annotation token after a marker: lowercase kebab word
/// (`relaxed-counter`, `interior-owned`); free-text rationale may follow.
pub(crate) fn marker_token(text: &str) -> String {
    text.trim_start()
        .chars()
        .take_while(|c| c.is_ascii_lowercase() || *c == '-')
        .collect()
}

/// Runs both passes over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for rel in lint::rust_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(analyze_sources(&files))
}

/// Runs both passes over already-parsed sources. The fixture tests drive
/// this directly with virtual in-scope paths, so the seeded violations
/// never have to live at real workspace paths.
pub fn analyze_sources(files: &[SourceFile]) -> Report {
    let mut findings = Vec::new();
    let atomics = atomics::check(files, &mut findings);
    let disjoint = disjoint::check(files, &mut findings);
    findings.sort_by(|a, b| {
        (
            a.file.to_string_lossy(),
            a.line,
            a.pass.name(),
            a.kind,
            &a.message,
        )
            .cmp(&(
                b.file.to_string_lossy(),
                b.line,
                b.pass.name(),
                b.kind,
                &b.message,
            ))
    });
    findings.dedup();
    Report {
        findings,
        files_scanned: files.len(),
        atomics,
        disjoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn marker_token_stops_at_rationale() {
        assert_eq!(
            marker_token(" relaxed-counter — per-phase"),
            "relaxed-counter"
        );
        assert_eq!(marker_token("interior-owned, audited"), "interior-owned");
    }

    #[test]
    fn clean_report_json_shape() {
        let r = Report {
            findings: Vec::new(),
            files_scanned: 3,
            atomics: atomics::AtomicStats {
                sites: 2,
                annotated: 2,
            },
            disjoint: disjoint::DisjointStats {
                sinks: 1,
                proven: 1,
                annotated: 0,
            },
        };
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"grazelle-analyze-v1\""));
        assert!(j.contains("\"clean\": true"));
        assert!(j.contains("\"findings\": []"));
    }

    #[test]
    fn findings_sort_and_dedup() {
        let f = |file: &str, line: usize| Finding {
            file: PathBuf::from(file),
            line,
            pass: Pass::AtomicProtocol,
            kind: "missing-annotation",
            message: "m".to_string(),
        };
        let files = Vec::new();
        let mut r = analyze_sources(&files);
        r.findings = vec![f("b.rs", 2), f("a.rs", 9), f("a.rs", 9), f("a.rs", 1)];
        r.findings.sort_by_key(|a| (a.file.clone(), a.line));
        r.findings.dedup();
        assert_eq!(r.findings.len(), 3);
        assert_eq!(r.findings[0].file, PathBuf::from("a.rs"));
        assert_eq!(r.findings[0].line, 1);
    }

    /// The analyzer's equivalent of `lint::tests::workspace_is_clean`: the
    /// tree must stay free of protocol and disjointness findings, so every
    /// new atomic site or shared-slice write has to carry its justification
    /// before it lands.
    #[test]
    fn workspace_passes_analysis() {
        let report = run(&crate::workspace_root()).expect("workspace readable");
        assert!(
            report.findings.is_empty(),
            "cargo xtask analyze found problems:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.atomics.sites, report.atomics.annotated);
    }
}
