//! The benchmark's from-outside trace: spans taken on the benchmark's own
//! clock around each public call into the crates, kept in memory and
//! written when the run ends. Only the measuring thread records, so a
//! plain stack gives each span its parent.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace.
    pub parent: Option<usize>,
    /// Which solve (or set-up repeat) of the run this belongs to.
    pub solve: Option<u32>,
    /// Counts attached at the same boundary (program-reported shares and
    /// per-superstep engine choices, in the traced run).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Disabled (the untraced run) it records nothing and
/// [`Tracer::timed`] is one pair of clock reads around the call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    solve: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            solve: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from here on with a solve id.
    pub fn set_solve(&mut self, solve: Option<u32>) {
        self.solve = solve;
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                solve: self.solve,
                counts: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_ns = (end - self.epoch).as_nanos() as u64;
            self.stack.pop();
        }
        (out, end - start)
    }

    /// [`Tracer::timed`] without the duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, f).0
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (children of one parent never overlap here,
/// since one thread records them).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals `(name, spans, total_s, self_s)`, largest self time
/// first.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, &o) in spans.iter().zip(&own) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(row) => row,
            None => {
                rows.push((s.name, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.duration_ns() as f64 * 1e-9;
        row.3 += o as f64 * 1e-9;
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Share of the root span's duration that its direct children cover: the
/// "top-level spans sum to the traced wall time" check.
pub fn coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().position(|s| s.parent.is_none()) else {
        return 0.0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::duration_ns)
        .sum();
    covered as f64 / spans[root].duration_ns().max(1) as f64
}

/// One JSON object per span, one per line.
pub fn to_json_lines(workload: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::new();
    for (i, (s, o)) in spans.iter().zip(&own).enumerate() {
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{o},\"parent\":{},\"solve\":{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.solve.map_or("null".to_string(), |p| p.to_string()),
        );
        if !s.counts.is_empty() {
            out.push_str(",\"counts\":{");
            for (k, (key, v)) in s.counts.iter().enumerate() {
                let _ = write!(out, "{}\"{key}\":{v}", if k > 0 { "," } else { "" });
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            solve: None,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 0, 40, Some(0)),
            span("parse", 5, 25, Some(1)),
            span("solve", 40, 99, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![1, 20, 20, 59]);
        assert!((coverage(&spans) - 0.99).abs() < 1e-12);
        let rows = by_name(&spans);
        assert_eq!(rows[0].0, "solve");
        assert_eq!(rows.iter().map(|r| r.1).sum::<usize>(), 4);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_solve(Some(3));
        let (v, d) = t.timed("outer", |t| {
            t.span("inner", |t| t.count("edges", 7.0));
            42
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].solve, Some(3));
        assert_eq!(spans[1].counts, vec![("edges", 7.0)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(d.as_nanos() as u64 >= spans[0].duration_ns().saturating_sub(1000));
        assert!(to_json_lines("w", spans).lines().count() == 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
