//! `repro` — regenerates the paper's tables and figures on stdout.
//!
//! ```text
//! cargo run --release -p grazelle-bench --bin repro -- <experiment>... | all
//!
//! experiments:
//!   table1 table2 fig1 fig5a fig5b fig6 fig7 fig8 fig9a fig9b fig10a
//!   fig10b fig11 fig12 fig13 ablate-chunks ablate-merge ablate-order
//!   ablate-pull-frontier write-traffic
//!   resilience-overhead resilience-faults recorder-overhead
//!   build-throughput serve-latency triangle-count labelprop
//!
//! opt-in (named explicitly, never part of `all` — minutes of runtime):
//!   build-large
//!
//! options:
//!   --sockets N     socket-group count for fig11/12/13 (default 1)
//!   --json DIR      also write one BENCH_<experiment>.json per experiment
//!
//! environment:
//!   GRAZELLE_SCALE_SHIFT    workload scale (default -2; 0 = nominal)
//!   GRAZELLE_THREADS        worker threads (default: min(4, cores))
//!   GRAZELLE_REPEATS        median-of-N timing (default 3)
//!   GRAZELLE_BUILD_SCALE    build-large R-MAT scale (default 22)
//!   GRAZELLE_BUILD_ASSERT_SPEEDUP
//!                           set: build-large fails below a 1.5x speedup
//! ```
//!
//! The doc header above is asserted against `ALL` by a test — keep the
//! experiment list here in sync when adding experiments.

use grazelle_bench::experiments as exp;
use grazelle_bench::report::Table;
use grazelle_bench::schema::{drain_runs, experiment_doc, write_experiment};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    eprintln!("experiments: {}", ALL.join(" "));
    eprintln!("opt-in (never part of all): build-large");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::ALL;

    /// The module doc header drifted from `ALL` once (it omitted table2
    /// and four ablations), and from the environment knobs once (it named
    /// three of five); this pins them together permanently.
    #[test]
    fn doc_header_names_every_experiment() {
        let source = include_str!("repro.rs");
        let header: String = source
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        let words: Vec<&str> = header.split_whitespace().collect();
        for name in ALL {
            assert!(words.contains(name), "doc header omits experiment '{name}'");
        }
        // Every knob repro's own code reads, `scale_shift` included.
        let readers = [
            source,
            include_str!("../experiments.rs"),
            include_str!("../workloads.rs"),
        ];
        let prefix = "GRAZELLE_";
        let mut knobs = 0;
        for text in readers {
            for (at, _) in text.match_indices(prefix) {
                let rest = &text[at + prefix.len()..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                    .unwrap_or(rest.len());
                if len == 0 {
                    continue;
                }
                let knob = &text[at..at + prefix.len() + len];
                knobs += 1;
                assert!(
                    words.contains(&knob),
                    "doc header omits environment variable '{knob}'"
                );
            }
        }
        assert!(knobs >= 5, "found only {knobs} knob reads");
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

    /// An unknown name only fails when someone runs the command, so a
    /// README or CI line naming a deleted experiment goes unnoticed. Every
    /// `repro` invocation in README.md (fenced or inline code) and in the
    /// workflow files must name, past `--`, `--json DIR` and `--sockets N`,
    /// only `all`, experiments in `ALL` and the doc header's opt-in ones.
    #[test]
    fn readme_and_ci_name_live_experiments() {
        let opt_in: Vec<&str> = include_str!("repro.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//!").trim())
            .skip_while(|l| !l.starts_with("opt-in"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .flat_map(str::split_whitespace)
            .collect();
        assert!(!opt_in.is_empty(), "doc header lists no opt-in experiment");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("README.md")];
        let workflows = std::fs::read_dir(root.join(".github/workflows")).expect("workflows");
        for entry in workflows {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "yml") {
                files.push(path);
            }
        }
        let mut named = 0;
        for path in &files {
            let text = std::fs::read_to_string(path).expect("readable");
            let markdown = path.extension().is_some_and(|e| e == "md");
            let mut fenced = false;
            for line in text.lines() {
                if markdown && line.trim_start().starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                // Markdown prose: only the inline code spans are commands.
                let prose = usize::from(markdown && !fenced);
                for span in line.split('`').skip(prose).step_by(1 + prose) {
                    let mut words = span.split_whitespace();
                    while let Some(word) = words.next() {
                        if word != "repro" && !word.ends_with("/repro") {
                            continue;
                        }
                        while let Some(arg) = words.next() {
                            match arg {
                                "--" => {}
                                "--json" | "--sockets" => {
                                    words.next();
                                }
                                "|" | "&&" | ";" | "\\" | ">" => break,
                                _ if arg.starts_with('#') => break,
                                name => {
                                    assert!(
                                        name == "all"
                                            || ALL.contains(&name)
                                            || opt_in.contains(&name),
                                        "{} names `repro {name}`, not an experiment: {line}",
                                        path.display()
                                    );
                                    named += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            named > 0,
            "no `repro <name>` found in README.md or the workflows"
        );
    }

    #[test]
    fn all_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate experiment '{name}'");
        }
    }
}
