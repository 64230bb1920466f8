//! `repro` — regenerates the paper's tables and figures on stdout.
//!
//! ```text
//! cargo run --release -p grazelle-bench --bin repro -- <experiment>... | all
//! cargo run --release -p grazelle-bench --bin repro -- perf-gate [options]
//!
//! experiments:
//!   table1 table2 fig1 fig5a fig5b fig6 fig7 fig8 fig9a fig9b fig10a
//!   fig10b fig11 fig12 fig13 ablate-chunks ablate-merge ablate-order
//!   ablate-pull-frontier write-traffic
//!   resilience-overhead resilience-faults recorder-overhead gate
//!   build-throughput serve-latency triangle-count labelprop
//!
//! opt-in (named explicitly, never part of `all` — minutes of runtime):
//!   build-large
//!
//! options:
//!   --sockets N     socket-group count for fig11/12/13 (default 1)
//!   --json DIR      also write one BENCH_<experiment>.json per experiment
//!
//! perf-gate options:
//!   --baseline DIR  committed baseline documents (default baselines/bench)
//!   --current DIR   freshly generated documents (default out/bench)
//!   --tolerance X   allowed geomean slowdown fraction (default 0.25)
//!
//! environment:
//!   GRAZELLE_SCALE_SHIFT    workload scale (default -2; 0 = nominal)
//!   GRAZELLE_THREADS        worker threads (default: min(4, cores))
//!   GRAZELLE_REPEATS        median-of-N timing (default 3)
//!   GRAZELLE_GATE_STALL_MS  injected stall for the `gate` experiment
//! ```
//!
//! The doc header above is asserted against `ALL` by a test — keep the
//! experiment list here in sync when adding experiments.

use grazelle_bench::experiments as exp;
use grazelle_bench::gate::{compare_dirs, DEFAULT_TOLERANCE};
use grazelle_bench::report::Table;
use grazelle_bench::schema::{drain_runs, experiment_doc, write_experiment};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("perf-gate") {
        perf_gate(&args[1..]);
        return;
    }
    let mut sockets = 1usize;
    let mut json_dir: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sockets" => {
                sockets = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--sockets needs a number"));
            }
            "--json" => {
                json_dir = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--json needs a directory")),
                ));
            }
            "-h" | "--help" => usage(""),
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        usage("no experiment named");
    }
    if names.iter().any(|n| n == "all") {
        names = ALL.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "# Grazelle reproduction — scale_shift={} threads={} repeats={}",
        grazelle_bench::workloads::scale_shift(),
        exp::threads(),
        exp::repeats()
    );
    for name in &names {
        let started = Instant::now();
        drain_runs(); // drop anything a previous experiment left behind
        let tables = run(name, sockets);
        for t in &tables {
            println!();
            print!("{}", t.render());
        }
        if let Some(dir) = &json_dir {
            let doc = experiment_doc(
                name,
                exp::sampling_policy(name),
                grazelle_bench::workloads::scale_shift(),
                exp::threads(),
                exp::repeats(),
                &tables,
                &drain_runs(),
            );
            match write_experiment(dir, &doc) {
                Ok(path) => eprintln!("[wrote {}]", path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        eprintln!("[{name} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
}

/// Diffs two BENCH_*.json directories; exits non-zero on regression.
fn perf_gate(args: &[String]) {
    let mut baseline = PathBuf::from("baselines/bench");
    let mut current = PathBuf::from("out/bench");
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--baseline needs a directory")),
                );
            }
            "--current" => {
                current = PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--current needs a directory")),
                );
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--tolerance needs a fraction, e.g. 0.25"));
            }
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown perf-gate option '{other}'")),
        }
    }
    let report = compare_dirs(&baseline, &current, tolerance);
    print!("{}", report.render(tolerance));
    if !report.passed() {
        std::process::exit(1);
    }
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "fig13",
    "ablate-chunks",
    "ablate-merge",
    "ablate-order",
    "ablate-pull-frontier",
    "write-traffic",
    "resilience-overhead",
    "resilience-faults",
    "recorder-overhead",
    "gate",
    "build-throughput",
    "serve-latency",
    "triangle-count",
    "labelprop",
];

fn run(name: &str, sockets: usize) -> Vec<Table> {
    match name {
        "table1" => vec![exp::table1()],
        "table2" => vec![exp::table2()],
        "fig1" => vec![exp::fig1()],
        "fig5a" => vec![exp::fig5a()],
        "fig5b" => vec![exp::fig5b()],
        "fig6" => vec![exp::fig6()],
        "fig7" => vec![exp::fig7()],
        "fig8" => exp::fig8(),
        "fig9a" => vec![exp::fig9a()],
        "fig9b" => vec![exp::fig9b()],
        "fig10a" => vec![exp::fig10a()],
        "fig10b" => vec![exp::fig10b()],
        "fig11" => vec![exp::fig11(sockets)],
        "fig12" => vec![exp::fig12(sockets)],
        "fig13" => vec![exp::fig13(sockets)],
        "ablate-chunks" => vec![exp::ablate_chunks()],
        "ablate-merge" => vec![exp::ablate_merge()],
        "ablate-order" => vec![exp::ablate_order()],
        "ablate-pull-frontier" => vec![exp::ablate_pull_frontier()],
        "write-traffic" => vec![exp::write_traffic()],
        "resilience-overhead" => vec![exp::resilience_overhead()],
        "resilience-faults" => vec![exp::resilience_faults()],
        "recorder-overhead" => vec![exp::recorder_overhead()],
        "gate" => vec![exp::gate()],
        "build-throughput" => vec![exp::build_throughput()],
        "build-large" => vec![exp::build_large()],
        "serve-latency" => vec![exp::serve_latency()],
        "triangle-count" => vec![exp::triangle_count()],
        "labelprop" => vec![exp::labelprop()],
        other => usage(&format!("unknown experiment '{other}'")),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: repro [--sockets N] [--json DIR] <experiment>... | all");
    eprintln!("       repro perf-gate [--baseline DIR] [--current DIR] [--tolerance X]");
    eprintln!("experiments: {}", ALL.join(" "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::ALL;

    /// The module doc header drifted from `ALL` once (it omitted table2
    /// and four ablations); this pins the two together permanently.
    #[test]
    fn doc_header_names_every_experiment() {
        let source = include_str!("repro.rs");
        let header: String = source
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        for name in ALL {
            assert!(
                header.split_whitespace().any(|word| word == *name),
                "doc header omits experiment '{name}'"
            );
        }
    }

    /// DESIGN.md §3 maps every paper experiment to the command that
    /// regenerates it; it once pointed at bench targets that no longer
    /// existed. Every `repro <name>` there must be in `ALL` (a trailing `*`
    /// matches a prefix), and `repro` is the only harness it may name.
    #[test]
    fn design_index_names_live_experiments() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
        let design = std::fs::read_to_string(&path).expect("DESIGN.md is readable");
        let index = design
            .split("\n## 3.")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has a §3");
        let mut named = 0;
        for row in index.lines().filter(|l| l.starts_with('|')) {
            assert!(
                !row.contains("benches/"),
                "DESIGN.md §3 names a bench target: {row}"
            );
            let regenerated_by = row.trim_end_matches('|').rsplit('|').next().unwrap_or("");
            let commands = regenerated_by.split('`').skip(1).step_by(2);
            for name in commands.filter_map(|c| c.strip_prefix("repro ")) {
                for name in name.split_whitespace() {
                    let live = match name.strip_suffix('*') {
                        Some(prefix) => ALL.iter().any(|e| e.starts_with(prefix)),
                        None => ALL.contains(&name),
                    };
                    assert!(live, "DESIGN.md §3 names `repro {name}`, not in ALL");
                    named += 1;
                }
            }
        }
        assert!(named > 0, "no `repro <name>` found in DESIGN.md §3");
    }

    /// `repro perf-gate` fails when a baseline experiment is missing from
    /// the current run, and `repro all` runs only `ALL`: a committed
    /// baseline whose experiment is gone could never be compared again.
    #[test]
    fn every_committed_baseline_names_an_experiment() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/bench");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("baselines/bench is readable") {
            let file = entry.expect("a directory entry").file_name();
            let file = file.to_string_lossy();
            let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            else {
                continue;
            };
            assert!(
                ALL.contains(&name),
                "baselines/bench/{file} names no experiment in ALL"
            );
            seen += 1;
        }
        assert!(seen > 0, "no BENCH_*.json under {}", dir.display());
    }

    #[test]
    fn all_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate experiment '{name}'");
        }
    }
}
