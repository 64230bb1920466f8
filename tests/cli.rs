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
    let path = path.to_str().unwrap();
    let out = run_ok(&["-i", path, "--symmetrize", "-a", "kcore", "--timing"]);
    assert!(out.contains("Degeneracy (max core):    3"), "{out}");
    // Symmetrized (and so sorted), one structure serves both orientations,
    // rebuilt from the pull structure by its first reader; as read, two.
    assert!(
        out.contains("orientations  1 (in = out, on first read)\n"),
        "{out}"
    );
    let out = run_ok(&["-i", path, "-a", "kcore", "--timing"]);
    assert!(
        out.contains(
            "orientations  2 (out- and in-edges on first read, push structure on first push)\n"
        ),
        "{out}"
    );
    // The same clique symmetric as read but unsorted keeps its CSR as the one
    // structure.
    std::fs::write(
        path,
        "1 0\n0 1\n0 2\n2 0\n0 3\n3 0\n1 2\n2 1\n1 3\n3 1\n2 3\n3 2\n",
    )
    .unwrap();
    let out = run_ok(&["-i", path, "-a", "kcore", "--timing"]);
    assert!(out.contains("Degeneracy (max core):    3"), "{out}");
    assert!(out.contains("orientations  1 (in = out)\n"), "{out}");
    std::fs::remove_file(path).ok();
}

/// A directed input keeps two orientations, and its set-up encodes the
/// pull structure alone: the timing table says the push structure waits
/// for the first run that can push and the in-edges for their first
/// reader — and the out-edges too when the list is sorted by source; runs
/// that pull only and runs that push both finish. A directed cycle, whose
/// degrees agree, is told from a symmetric graph by the compare against
/// the pull structure, and waits the same way.
#[test]
fn a_directed_input_defers_its_push_structure() {
    let cycle = std::env::temp_dir().join("grazelle_cli_cycle.el");
    for (list, waiting) in [
        ("0 1\n1 2\n2 0\n", "out- and in-edges"),
        ("1 2\n0 1\n2 0\n", "in-edges"),
    ] {
        std::fs::write(&cycle, list).unwrap();
        let out = run_ok(&["-i", cycle.to_str().unwrap(), "-a", "pr", "--timing"]);
        let line =
            format!("  orientations  2 ({waiting} on first read, push structure on first push)\n");
        assert!(out.contains(&line), "{out}");
    }
    std::fs::remove_file(&cycle).ok();
    let sorted = "0 1\n1 2\n2 0\n2 3\n3 4\n";
    let unsorted = "2 3\n0 1\n1 2\n2 0\n3 4\n";
    for (list, waiting) in [(sorted, "out- and in-edges"), (unsorted, "in-edges")] {
        let path = std::env::temp_dir().join("grazelle_cli_directed.el");
        std::fs::write(&path, list).unwrap();
        let path = path.to_str().unwrap();
        let line =
            format!("  orientations  2 ({waiting} on first read, push structure on first push)\n");
        let out = run_ok(&["-i", path, "-a", "pr", "-N", "4", "--timing"]);
        assert!(out.contains(&line), "{out}");
        assert!(
            out.contains("PageRank Sum:             1.000000000"),
            "{out}"
        );
        let out = run_ok(&["-i", path, "-a", "bfs", "--engine", "push", "--timing"]);
        assert!(out.contains(&line), "{out}");
        assert!(out.contains("Vertices Visited:         5"), "{out}");
        std::fs::remove_file(path).ok();
    }
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
fn binary_input_loads() {
    use grazelle::graph::edgelist::EdgeList;
    use grazelle::graph::io;
    let pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)];
    let el = EdgeList::from_pairs(5, &pairs).unwrap();
    let dir = std::env::temp_dir();
    let text = dir.join(format!("grazelle_cli_{}.el", std::process::id()));
    let bin = dir.join(format!("grazelle_cli_{}.bin", std::process::id()));
    io::write_text_edgelist(&el, std::fs::File::create(&text).unwrap()).unwrap();
    io::save_binary(&el, &bin).unwrap();
    let components = |path: &std::path::Path| {
        let out = run_ok(&["-i", path.to_str().unwrap(), "-a", "cc"]);
        let line = out.lines().find(|l| l.starts_with("Components Found:"));
        line.expect("components line").to_string()
    };
    let want = components(&text);
    assert!(want.ends_with(" 2"), "{want}");
    assert_eq!(components(&bin), want);

    // One flipped payload byte: the checksum refuses the file.
    let mut bytes = std::fs::read(&bin).unwrap();
    bytes[30] ^= 0x01;
    std::fs::write(&bin, bytes).unwrap();
    let out = grazelle()
        .args(["-i", bin.to_str().unwrap(), "-a", "cc"])
        .output()
        .expect("spawn grazelle");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a corrupt file loaded: {stderr}");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    std::fs::remove_file(&text).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn text_input_keeps_isolated_trailing_vertices() {
    use grazelle::graph::edgelist::EdgeList;
    use grazelle::graph::io;
    // Vertex 5 has no edge: only the text file's header names it.
    let pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)];
    let el = EdgeList::from_pairs(6, &pairs).unwrap();
    let dir = std::env::temp_dir();
    let text = dir.join(format!("grazelle_cli_isolated_{}.txt", std::process::id()));
    let bin = dir.join(format!("grazelle_cli_isolated_{}.bin", std::process::id()));
    io::write_text_edgelist(&el, std::fs::File::create(&text).unwrap()).unwrap();
    io::save_binary(&el, &bin).unwrap();
    for path in [&text, &bin] {
        for threads in ["1", "2"] {
            let out = run_ok(&["-i", path.to_str().unwrap(), "-a", "cc", "-n", threads]);
            assert!(
                out.contains("Components Found:         3"),
                "{} at {threads} threads: {out}",
                path.display()
            );
        }
    }
    std::fs::remove_file(&text).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn engine_and_mode_flags_are_accepted() {
    for extra in [
        ["--engine", "pull"],
        ["--engine", "push"],
        ["--pull-mode", "traditional"],
        ["--simd", "scalar"],
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
    // Flags the runner no longer has are usage errors, not silently ignored.
    for args in [
        ["--synth", "dimacs-usa", "--sched", "stealing"].as_slice(),
        &["--synth", "dimacs-usa", "--no-sparse-frontier"],
    ] {
        let out = grazelle().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
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
