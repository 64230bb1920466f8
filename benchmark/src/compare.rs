//! `compare A.json B.json`: per workload × end-to-end metric, both medians
//! and quartiles, the ratio with its base, and a verdict against the
//! metric's bound. Two sets of one commit must come out `within bound`
//! everywhere (the repeatability criterion); later issues compare commits.

use crate::json::Json;
use crate::report::{Kind, METRICS};
use crate::stats::{median, quartiles, spread};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Beyond,
    /// The spread of either side is wider than the bound, so the medians
    /// cannot resolve a change of that size.
    Unresolved,
}

/// `a` is the base. Every end-to-end metric is lower-is-better, so B is
/// worse by `median(b) / median(a) − 1`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    let ratio = median(b) / median(a);
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let v = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if ratio - 1.0 > bound {
        Verdict::Beyond
    } else {
        Verdict::Within
    };
    (ratio, v)
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{a_path}: no workloads"))?;
    println!("base A = {a_path}, B = {b_path}; ratio = median(B) / median(A), lower is better");
    println!(
        "{:<18} {:<12} {:>11} {:>23} {:>11} {:>23} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "ratio", "bound"
    );
    let mut beyond = false;
    for (workload, _) in workloads {
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let va = values(&a, workload, m.name)
                .ok_or_else(|| format!("{a_path}: {workload} has no {}", m.name))?;
            let vb = values(&b, workload, m.name)
                .ok_or_else(|| format!("{b_path}: {workload} has no {}", m.name))?;
            let (ratio, v) = verdict(&va, &vb, bound);
            beyond |= v == Verdict::Beyond;
            let q = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("{q1:.5}..{q3:.5}"))
            };
            println!(
                "{workload:<18} {:<12} {:>11.5} {:>23} {:>11.5} {:>23} {ratio:>7.4} {:>5.0}%  {}",
                m.name,
                median(&va),
                q(&va),
                median(&vb),
                q(&vb),
                bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Beyond => "beyond bound",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    Ok(if beyond {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 1.00, 0.99, 1.03];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        let noisy = [0.7, 1.0, 1.4, 0.8, 1.3];
        assert_eq!(verdict(&base, &same, 0.10).1, Verdict::Within);
        assert_eq!(verdict(&base, &slower, 0.10).1, Verdict::Beyond);
        assert_eq!(verdict(&base, &faster, 0.10).1, Verdict::Within);
        assert_eq!(verdict(&base, &noisy, 0.10).1, Verdict::Unresolved);
        assert!((verdict(&base, &slower, 0.10).0 - 1.2).abs() < 1e-12);
    }

    #[test]
    fn reads_the_values_a_suite_file_holds() {
        let doc = Json::parse(
            r#"{"workloads": {"w": {"end_to_end": {"solve_s": {"unit": "s", "values": [1.5, 2.5]}}}}}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "solve_s"), Some(vec![1.5, 2.5]));
        assert_eq!(values(&doc, "w", "setup_s"), None);
    }
}
