//! The metric registry and the run report: every metric the benchmark
//! prints is named here once, with its unit, direction and how a run's
//! samples reduce to the one value a run reports.

use crate::json::Json;
use crate::stats::{median, quantile, tail};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; reported by the untraced run and
    /// bounded in `BENCHMARK.json`.
    EndToEnd,
    /// One module's share; reported by the traced run.
    PerLayer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Median of the run's samples (timings, and counts that repeat
    /// exactly per solve).
    Median,
    /// Lower decile of the run's samples: the time on an undisturbed host
    /// (see [`QUIET_QUANTILE`]).
    Quiet,
    /// Sum over the run (failure counters: one is too many).
    Sum,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    pub kind: Kind,
    pub reduce: Reduce,
    /// End-to-end only: the share of the base median by which the metric
    /// may get worse before `compare` calls it a regression.
    pub bound: Option<f64>,
}

/// The quantile of repeated timings taken as "the time on an undisturbed
/// host". Other tenants of the host only ever add time, in bursts of seconds:
/// over same-seed runs of `pr-skew-dense` the median of a run's ≈80 solves
/// ranged over 17% from run to run, the lower decile over 3%.
pub const QUIET_QUANTILE: f64 = 0.10;

const fn e2e(name: &'static str, unit: &'static str, reduce: Reduce, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        kind: Kind::EndToEnd,
        reduce,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        reduce: Reduce::Median,
        bound: None,
    }
}

const fn failures(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: "lower",
        kind: Kind::PerLayer,
        reduce: Reduce::Sum,
        bound: None,
    }
}

/// Every metric, in report order. `BENCHMARK.json` lists the same names
/// (a test holds the two together); `README.md` defines each.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", Reduce::Median, 0.25),
    e2e("solve_s", "s", Reduce::Quiet, 0.25),
    e2e("peak_rss_mb", "MiB", Reduce::Median, 0.10),
    layer("graph.parse_s", "s", "lower"),
    layer("graph.parse_mb_per_s", "MB/s", "higher"),
    layer("graph.csr_s", "s", "lower"),
    layer("graph.csc_s", "s", "lower"),
    layer("vsparse.encode_s", "s", "lower"),
    layer("vsparse.packing_eff", "ratio", "higher"),
    layer("vsparse.bytes_per_edge", "B/edge", "lower"),
    layer("sched.dispatch_us", "us", "lower"),
    layer("core.medges_per_s", "Medges/s", "higher"),
    layer("core.ns_per_edge", "ns", "lower"),
    layer("core.frac_of_triad_bw", "ratio", "higher"),
    layer("core.speedup_vs_1t", "ratio", "higher"),
    layer("core.us_per_superstep", "us", "lower"),
    layer("core.supersteps", "count", "lower"),
    layer("core.pull_steps", "count", "lower"),
    layer("core.push_steps", "count", "lower"),
    layer("core.compact_steps", "count", "lower"),
    layer("core.spa_steps", "count", "lower"),
    layer("apps.self_s", "s", "lower"),
    layer("serve.query_p50_s", "s", "lower"),
    layer("serve.query_tail_s", "s", "lower"),
    layer("serve.direct_exec_s", "s", "lower"),
    layer("serve.speedup_vs_direct", "ratio", "higher"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.pack_occupancy", "ratio", "higher"),
    layer("serve.update_apply_s", "s", "lower"),
    layer("serve.merges", "count", "lower"),
    layer("serve.overlay_query_slowdown", "ratio", "lower"),
    failures("serve.shed"),
    failures("serve.expired"),
    failures("serve.failed"),
    failures("serve.retries"),
    failures("serve.degraded"),
    layer("host.triad_gb_per_s", "GB/s", "higher"),
    layer("host.gen_rss_mb", "MiB", "lower"),
    layer("trace_overhead_frac", "ratio", "lower"),
    layer("trace_coverage_frac", "ratio", "higher"),
];

/// Samples gathered during one run, by metric name.
#[derive(Debug, Default)]
pub struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.push(name, v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v)
    }

    /// The value a run reports for `name`: its samples reduced the way
    /// the registry says; 0 where the workload never exercises the layer.
    pub fn value(&self, name: &str) -> f64 {
        let s = self.get(name);
        match METRICS.iter().find(|m| m.name == name).map(|m| m.reduce) {
            Some(Reduce::Quiet) => quantile(s, QUIET_QUANTILE),
            // `+ 0.0`: an empty f64 sum is -0.0.
            Some(Reduce::Sum) => s.iter().sum::<f64>() + 0.0,
            _ => median(s),
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub traced: bool,
    /// Operations (program runs, queries, updates) whose output was checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong output; they are
    /// excluded from timings.
    pub failed: u64,
    pub samples: Samples,
    /// Free-form facts for the header: sizes, counts used, checksum.
    pub notes: Vec<String>,
}

impl Outcome {
    fn kind(&self) -> Kind {
        if self.traced {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        }
    }

    /// The contract line: the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = METRICS.iter().filter(|m| m.kind == self.kind()).map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(self.samples.value(m.name))),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// Every metric of this run by name: unit, value, the highest
    /// percentile with at least ten samples beyond it, and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<30} {:>9} {:>7} {:>14} {:>20} {:>7}\n",
            "metric", "unit", "better", "value", "tail", "samples"
        );
        for m in METRICS.iter().filter(|m| m.kind == self.kind()) {
            let s = self.samples.get(m.name);
            let tail = tail(s).map_or("-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
            out.push_str(&format!(
                "{:<30} {:>9} {:>7} {:>14.6} {:>20} {:>7}\n",
                m.name,
                m.unit,
                m.better,
                self.samples.value(m.name),
                tail,
                s.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&m.better));
        }
    }

    #[test]
    fn result_line_carries_exactly_the_kind_asked_for() {
        let mut samples = Samples::default();
        samples.extend("solve_s", [0.25, 0.75, 0.5]);
        samples.extend("serve.failed", [1.0, 2.0]);
        samples.extend("setup_s", [1.0, 2.0, 4.0]);
        let mut o = Outcome {
            traced: false,
            attempted: 3,
            failed: 0,
            samples,
            notes: Vec::new(),
        };
        let line = Json::parse(&o.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["setup_s", "solve_s", "peak_rss_mb"]
        );
        // solve_s is the lower decile of [0.25, 0.5, 0.75], setup_s a median.
        assert_eq!(metrics[1].1.get("value"), Some(&Json::Num(0.3)));
        assert_eq!(metrics[0].1.get("value"), Some(&Json::Num(2.0)));
        o.traced = true;
        o.failed = 1;
        let line = Json::parse(&o.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let metrics = line.get("metrics").unwrap();
        assert!(metrics.get("solve_s").is_none());
        assert_eq!(
            metrics.get("serve.failed").and_then(|m| m.get("value")),
            Some(&Json::Num(3.0))
        );
        assert!(o.table().contains("serve.failed"));
    }
}
