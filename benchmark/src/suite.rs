//! The whole benchmark in one command: every workload, each run in its own
//! child process (so `peak_rss_mb` is that workload's alone), several seeds
//! untraced, then one traced run at a third of the measuring time.

use crate::host::HostInfo;
use crate::inputs::Workload;
use crate::json::Json;
use crate::report::{Kind, MetricDef, METRICS};
use crate::setup::default_threads;
use crate::stats::{median, quartiles, spread};
use std::process::{Command, ExitCode};

/// Runs this executable on one workload and returns the parsed result line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<&str>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.args(["--spans", path]);
    }
    // `output` waits for the child; its standard error passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}",
            workload.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("{} seed {seed}: bad result line: {e}", workload.name()))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(
    seed: u64,
    runs: usize,
    seconds: f64,
    out: Option<&str>,
    trace_file: Option<&str>,
) -> Result<ExitCode, String> {
    let host = HostInfo::probe();
    let traced_seconds = (seconds / 3.0).max(1.0);
    println!(
        "# seed: {seed}..{}  runs/workload: {runs} untraced x {seconds}s + 1 traced x {traced_seconds:.1}s",
        seed + runs.max(1) as u64 - 1
    );
    println!(
        "# commit: {}  nproc: {}  threads: {}  cpu: {}  caches: {}",
        host.git_commit,
        host.nproc,
        default_threads(),
        host.cpu_model,
        host.caches.join(" ")
    );
    if let Some(path) = trace_file {
        // Children append their spans; start from an empty file.
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }

    let mut any_failed = false;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut tally = |r: &Json| {
            attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        let mut values: Vec<(&MetricDef, Vec<f64>)> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::EndToEnd)
            .map(|m| (m, Vec::new()))
            .collect();
        for k in 0..runs.max(1) as u64 {
            let r = child(w, seed + k, seconds, false, None)?;
            tally(&r);
            for (m, v) in &mut values {
                v.push(
                    metric_value(&r, m.name)
                        .ok_or_else(|| format!("{}: no {}", w.name(), m.name))?,
                );
            }
        }
        let traced = child(w, seed, traced_seconds, true, trace_file)?;
        tally(&traced);
        any_failed |= failed > 0.0;

        println!(
            "\n== {} ==  ops_attempted={attempted} ops_failed={failed}",
            w.name()
        );
        println!(
            "{:<30} {:>9} {:>12} {:>12} {:>12} {:>8} {:>4}",
            "end-to-end metric", "unit", "median", "q1", "q3", "spread", "n"
        );
        for (m, v) in &values {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<30} {:>9} {:>12.6} {q1:>12.6} {q3:>12.6} {:>7.2}% {:>4}",
                m.name,
                m.unit,
                median(v),
                spread(v).unwrap_or(f64::NAN) * 100.0,
                v.len()
            );
        }
        println!(
            "{:<30} {:>9} {:>12}   (traced run)",
            "layer metric", "unit", "value"
        );
        let layers: Vec<(&str, &str, f64)> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::PerLayer)
            .map(|m| (m.name, m.unit, metric_value(&traced, m.name).unwrap_or(0.0)))
            .collect();
        for (name, unit, v) in &layers {
            println!("{name:<30} {unit:>9} {v:>12.6}");
        }

        workloads.push((
            w.name(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::obj(values.iter().map(|(m, v)| {
                        (
                            m.name,
                            Json::obj([("unit", Json::str(m.unit)), ("values", Json::nums(v))]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(layers.iter().map(|&(name, unit, v)| {
                        (
                            name,
                            Json::obj([("unit", Json::str(unit)), ("value", Json::Num(v))]),
                        )
                    })),
                ),
            ]),
        ));
    }

    if let Some(path) = out {
        let doc = Json::obj([
            (
                "header",
                Json::obj([
                    ("seed", Json::Num(seed as f64)),
                    ("runs", Json::Num(runs.max(1) as f64)),
                    ("seconds", Json::Num(seconds)),
                    ("traced_seconds", Json::Num(traced_seconds)),
                    ("commit", Json::str(host.git_commit)),
                    ("nproc", Json::Num(host.nproc as f64)),
                    ("threads", Json::Num(default_threads() as f64)),
                    ("cpu", Json::str(host.cpu_model)),
                    (
                        "caches",
                        Json::Arr(host.caches.into_iter().map(Json::Str).collect()),
                    ),
                ]),
            ),
            ("workloads", Json::obj(workloads)),
        ]);
        std::fs::write(path, doc.to_line() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
