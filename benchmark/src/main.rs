//! The repo benchmark. `README.md` beside this crate defines every metric
//! and workload; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! grazelle-benchmark run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! grazelle-benchmark run [--seed N] [--runs K] [--seconds S] [--out FILE] [--trace FILE]
//! grazelle-benchmark compare A.json B.json
//! ```

mod compare;
mod host;
mod inputs;
mod json;
mod report;
mod rng;
mod setup;
mod spans;
mod stats;
mod suite;
mod workloads;

use inputs::{Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunParams;

/// Cold set-ups per run, by workload: enough that the median rides over
/// the bimodal Vector-Sparse phase, few enough that the largest input's
/// share of a run stays near the solve loop's.
fn setups_for(w: Workload) -> usize {
    match w {
        Workload::PrSkewDense => 7,
        Workload::TravMeshSparse => 15,
        Workload::ServeReachMix | Workload::ServeUpdateMix => 9,
    }
}

const WARMUPS: usize = 2;
const USAGE: &str = "usage:
  grazelle-benchmark run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
  grazelle-benchmark run [--seed N] [--runs K] [--seconds S] [--out FILE] [--trace FILE]
  grazelle-benchmark compare A.json B.json
workloads: pr-skew-dense trav-mesh-sparse serve-reach-mix serve-update-mix";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| {
            if f.get("workload").is_some() {
                run_one(&f)
            } else {
                suite::run(
                    f.num("seed", 1)?,
                    f.num("runs", 10)?,
                    f.num("seconds", 10.0)?,
                    f.get("out"),
                    f.get("trace"),
                )
            }
        }),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("grazelle-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload, one seed: prints the header, every metric of the run, and
/// the result object as the last line of standard output.
fn run_one(f: &Flags) -> Result<ExitCode, String> {
    let name = f.get("workload").expect("checked by the caller");
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed: u64 = f.num("seed", 1)?;
    let seconds: f64 = f.num("seconds", 10.0)?;
    let trace = match f.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => {
            return Err(format!(
                "--trace takes 0 or 1 with --workload, got {other:?}"
            ))
        }
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }

    // The run's files stay inside the working directory (the checkout).
    let dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let params = RunParams {
        seed,
        seconds,
        trace,
        threads: setup::default_threads(),
        setups: setups_for(workload),
        warmups: WARMUPS,
        dir: dir.clone(),
    };
    let host = host::HostInfo::probe();
    println!(
        "# workload: {name}  seed: {seed}  seconds: {seconds}  trace: {}",
        u8::from(trace)
    );
    println!(
        "# commit: {}  nproc: {}  threads: {}  cpu: {}  caches: {}",
        host.git_commit,
        host.nproc,
        params.threads,
        host.cpu_model,
        host.caches.join(" ")
    );
    let result = workloads::run(workload, &Sizes::full(), &params);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp"); // only when no other run is using it
    let (outcome, spans) = result?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    print!("{}", outcome.table());
    if trace {
        println!("# self time by span name (traced run)");
        for (name, n, total, own) in spans::by_name(&spans) {
            println!("#   {name:<24} n={n:<6} total={total:>10.4}s self={own:>10.4}s");
        }
    }
    if let Some(path) = f.get("spans") {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(spans::to_json_lines(name, &spans).as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}
