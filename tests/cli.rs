//! Integration tests for the `grazelle` command-line runner, exercised as
//! a real subprocess (the artifact's workflow, Appendix A.5.2).

use std::process::Command;

fn grazelle() -> Command {
    Command::new(env!("CARGO_BIN_EXE_grazelle"))
}

fn run_ok(args: &[&str]) -> String {
    let out = grazelle().args(args).output().expect("spawn grazelle");
    assert!(
        out.status.success(),
        "grazelle {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn pagerank_on_standin_reports_sum_one() {
    let out = run_ok(&[
        "--synth",
        "cit-patents",
        "--scale",
        "-6",
        "-a",
        "pr",
        "-N",
        "8",
    ]);
    assert!(out.contains("Running Time:"), "{out}");
    let sum_line = out
        .lines()
        .find(|l| l.starts_with("PageRank Sum:"))
        .expect("sum line");
    let sum: f64 = sum_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!((sum - 1.0).abs() < 1e-6, "{sum_line}");
}

#[test]
fn cc_counts_components_on_symmetrized_standin() {
    let out = run_ok(&[
        "--synth",
        "livejournal",
        "--scale",
        "-6",
        "--symmetrize",
        "-a",
        "cc",
    ]);
    let comp_line = out
        .lines()
        .find(|l| l.starts_with("Components Found:"))
        .expect("components line");
    let comps: usize = comp_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(comps >= 1);
}

#[test]
fn bfs_from_file_writes_parent_output() {
    let dir = std::env::temp_dir();
    let graph_path = dir.join("grazelle_cli_test.el");
    let out_path = dir.join("grazelle_cli_test.parents");
    std::fs::write(&graph_path, "0 1\n1 2\n2 3\n0 4\n").unwrap();
    let out = run_ok(&[
        "-i",
        graph_path.to_str().unwrap(),
        "-a",
        "bfs",
        "-r",
        "0",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.contains("Vertices Visited:         5"), "{out}");
    let parents = std::fs::read_to_string(&out_path).unwrap();
    let lines: Vec<&str> = parents.lines().collect();
    assert_eq!(lines.len(), 5);
    assert_eq!(lines[0], "0 0"); // root's parent is itself
    assert_eq!(lines[1], "1 0");
    assert_eq!(lines[4], "4 0");
    std::fs::remove_file(&graph_path).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn sssp_on_weighted_text_input() {
    let dir = std::env::temp_dir();
    let graph_path = dir.join("grazelle_cli_weighted.el");
    std::fs::write(&graph_path, "0 1 5.0\n0 2 1.0\n2 1 1.5\n").unwrap();
    let out = run_ok(&["-i", graph_path.to_str().unwrap(), "-a", "sssp", "-r", "0"]);
    assert!(out.contains("Vertices Reached:         3"), "{out}");
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn kcore_reports_degeneracy() {
    let dir = std::env::temp_dir();
    let path = dir.join("grazelle_cli_kcore.el");
    // 4-clique (coreness 3), symmetrized by the flag.
    std::fs::write(&path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
    let out = run_ok(&["-i", path.to_str().unwrap(), "--symmetrize", "-a", "kcore"]);
    assert!(out.contains("Degeneracy (max core):    3"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn matrix_market_input_loads() {
    let dir = std::env::temp_dir();
    let path = dir.join("grazelle_cli_test.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    .unwrap();
    let out = run_ok(&["-i", path.to_str().unwrap(), "-a", "cc"]);
    assert!(out.contains("Components Found:         1"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_and_mode_flags_are_accepted() {
    for extra in [
        ["--engine", "pull"],
        ["--engine", "push"],
        ["--pull-mode", "traditional"],
        ["--simd", "scalar"],
        ["--sched", "stealing"],
        ["--sched", "central"],
    ] {
        let mut args = vec![
            "--synth",
            "dimacs-usa",
            "--scale",
            "-6",
            "-a",
            "pr",
            "-N",
            "2",
        ];
        args.extend(extra);
        run_ok(&args);
    }
}

#[test]
fn sparse_frontier_flag_is_accepted_and_preserves_bfs() {
    let dir = std::env::temp_dir();
    let graph_path = dir.join("grazelle_cli_sparse.el");
    std::fs::write(&graph_path, "0 1\n1 2\n2 3\n3 4\n").unwrap();
    let a = run_ok(&["-i", graph_path.to_str().unwrap(), "-a", "bfs", "-r", "0"]);
    let b = run_ok(&[
        "-i",
        graph_path.to_str().unwrap(),
        "-a",
        "bfs",
        "-r",
        "0",
        "--no-sparse-frontier",
    ]);
    let visited = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("Vertices Visited:"))
            .unwrap()
            .to_string()
    };
    assert_eq!(visited(&a), visited(&b));
    std::fs::remove_file(&graph_path).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["-a", "unknown-app", "--synth", "dimacs-usa"],
        vec!["--synth", "not-a-graph"],
        vec!["-i", "/nonexistent/file.el", "-a", "pr"],
        vec![], // no input at all
    ] {
        let out = grazelle().args(&args).output().unwrap();
        assert!(!out.status.success(), "expected failure for {args:?}");
    }
}

#[test]
fn sssp_rejects_unweighted_input() {
    let out = grazelle()
        .args(["--synth", "dimacs-usa", "--scale", "-6", "-a", "sssp"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("weighted"));
}

/// A cap below the graph's diameter truncates BFS; the runner must say so
/// instead of printing a partial count as if it were the answer — and must
/// stay quiet for PageRank, whose iteration count is the cap by design.
/// Without `-N` the convergence-driven apps get a cap of V + 1, so the same
/// chain runs to its end.
#[test]
fn iteration_cap_truncation_is_warned_about() {
    let graph_path = std::env::temp_dir().join("grazelle_cli_cap_chain.el");
    let chain: String = (0..1200).map(|v| format!("{v} {}\n", v + 1)).collect();
    std::fs::write(&graph_path, chain).unwrap();
    let path = graph_path.to_str().unwrap();

    let out = grazelle()
        .args(["-i", path, "-a", "bfs", "-r", "0"])
        .output()
        .expect("spawn grazelle");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Vertices Visited:         1201"),
        "{stdout}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("iteration cap"),
        "the default cap of V + 1 must not fire"
    );

    let out = grazelle()
        .args(["-i", path, "-a", "bfs", "-r", "0", "-N", "1000"])
        .output()
        .expect("spawn grazelle");
    assert!(out.status.success());
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        stdout.contains("Iterations Executed:      1000"),
        "{stdout}"
    );
    assert!(stderr.contains("iteration cap"), "stderr: {stderr}");

    let out = grazelle()
        .args(["-i", path, "-a", "pr", "-N", "4"])
        .output()
        .expect("spawn grazelle");
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("iteration cap"),
        "PageRank runs to its iteration count by design"
    );
    let _ = std::fs::remove_file(&graph_path);
}
