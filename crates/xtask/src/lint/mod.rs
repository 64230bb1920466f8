//! The soundness lint pass: file walking, rule dispatch, reporting.

pub mod rules;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// The rules the pass enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without a `SAFETY:` justification.
    SafetyComment,
    /// Raw-pointer arithmetic or `transmute` outside the allowlist.
    PointerAllowlist,
    /// `unwrap()` / `panic!` in an engine or scheduler hot path.
    HotPathPanic,
    /// Vector-Sparse lane-encoding constants diverge from the lane layout.
    LaneEncoding,
    /// `catch_unwind` without a `RECOVERY:` justification.
    RecoveryComment,
    /// Direct `Instant::now()` in an engine module instead of the
    /// flight recorder's span helpers.
    EngineClock,
    /// `unsafe` anywhere in the parallel ingestion/build pipeline, whose
    /// correctness argument is that it is 100% safe Rust.
    ParallelBuildSafe,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::SafetyComment => "safety-comment",
            Rule::PointerAllowlist => "pointer-allowlist",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::LaneEncoding => "lane-encoding",
            Rule::RecoveryComment => "recovery-comment",
            Rule::EngineClock => "engine-clock",
            Rule::ParallelBuildSafe => "parallel-build-safe",
        };
        f.write_str(name)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Runs every rule over the workspace rooted at `root`; returns findings
/// fully ordered (path, line, rule, message) with exact duplicates
/// removed, so repeated runs and CI logs are byte-identical.
pub fn run(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for rel in rust_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let file = SourceFile::parse(&rel, &text);
        violations.extend(rules::safety_comments(&file));
        violations.extend(rules::pointer_allowlist(&file));
        violations.extend(rules::hot_path_panics(&file));
        violations.extend(rules::recovery_comments(&file));
        violations.extend(rules::engine_clock(&file));
        violations.extend(rules::parallel_build_safe(&file));
    }
    violations.extend(rules::lane_encoding(root)?);
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule.to_string(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.to_string(),
            &b.message,
        ))
    });
    violations.dedup();
    Ok(violations)
}

/// Collects every tracked `.rs` file under `root` (relative paths),
/// skipping build output and VCS metadata.
pub fn rust_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds the analyzer's seeded *negative* examples —
            // deliberate violations that must never fail the real-tree
            // gates.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint gate itself: the real workspace must be clean, so any new
    /// unsafe block without a SAFETY comment (etc.) fails `cargo test`
    /// as well as `cargo xtask lint`.
    #[test]
    fn workspace_is_clean() {
        let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        root.pop();
        root.pop();
        let violations = run(&root).expect("lint walk failed");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn walker_finds_rust_sources() {
        let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        root.pop();
        root.pop();
        let files = rust_sources(&root).expect("walk failed");
        let as_str: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        assert!(as_str.iter().any(|p| p.ends_with("format.rs")));
        assert!(as_str.iter().any(|p| p.contains("xtask")));
        assert!(!as_str.iter().any(|p| p.contains("target/")));
    }
}
