//! Workspace analysis tasks.
//!
//! `cargo xtask lint` runs the soundness lint pass over the workspace:
//!
//! 1. **SAFETY audit** — every `unsafe` block and `unsafe impl` must carry
//!    a `// SAFETY:` justification; every `unsafe fn` must document its
//!    contract (`# Safety` doc section or a `SAFETY:` comment).
//! 2. **Pointer allowlist** — raw-pointer arithmetic and `transmute` are
//!    confined to the SIMD kernels and the scheduler's slot/pool internals.
//! 3. **Hot-path panic audit** — no `unwrap()` / `panic!` in the engine or
//!    scheduler hot paths outside test code; invariants use
//!    `expect("<invariant>")` or error propagation instead.
//! 4. **Lane-encoding constants** — the Vector-Sparse lane layout constants
//!    must match Figure 4's fields in a 32-bit lane:
//!    `valid(1) | tlv-piece(4) | vertex(27)`, eight lanes to a vector.
//!
//! `cargo xtask analyze` runs the concurrency-soundness analyzer
//! (DESIGN.md §13):
//!
//! 1. **Atomic-protocol audit** — every `Ordering::*` site in
//!    `crates/sched` and `crates/core` must carry a machine-checked
//!    `// ATOMIC: <role>` annotation from the protocol table, with the
//!    orderings the role admits and release/acquire pairing per field.
//! 2. **Chunk-disjointness pass** — writes to shared property/merge-buffer
//!    storage inside scheduler-chunk closures must index through the
//!    chunk's handed-out range or carry a `// DISJOINT: <category>`
//!    justification from the declared table.
//!
//! `--json` additionally emits a deterministic `ANALYZE_report.json`
//! artifact next to the BENCH JSONs.
//!
//! Exit status is non-zero when any rule or pass fires, so CI can gate on
//! both commands.

use std::process::ExitCode;
use xtask::{analyze, lint, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("analyze") => run_analyze(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command: {other}");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask lint");
    eprintln!("       cargo xtask analyze [--json [DIR]]");
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    match lint::run(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_analyze(args: &[String]) -> ExitCode {
    let mut json_dir = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                // Optional directory operand; defaults to the current dir.
                let dir = match it.peek() {
                    Some(d) if !d.starts_with("--") => it.next().expect("peeked operand").clone(),
                    _ => ".".to_string(),
                };
                json_dir = Some(dir);
            }
            other => {
                eprintln!("unknown analyze option: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let report = match analyze::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!("{}", report.summary_line());
    if let Some(dir) = json_dir {
        let path = std::path::Path::new(&dir).join(analyze::REPORT_FILENAME);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("xtask analyze: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("xtask analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
