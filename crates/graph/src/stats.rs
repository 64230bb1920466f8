//! Degree statistics.
//!
//! These feed Table 1 of EXPERIMENTS.md (dataset inventory) and supply the
//! degree arrays consumed by the packing-efficiency analysis (Figure 9).

use crate::graph::Graph;
use crate::types::VertexId;

/// Summary statistics over a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    pub min: u32,
    pub max: u32,
    pub mean: f64,
    pub median: u32,
    /// 99th-percentile degree.
    pub p99: u32,
    /// Fraction of vertices with degree zero.
    pub zero_fraction: f64,
    /// Coefficient of variation (stddev / mean); a cheap skew proxy — ~0 for
    /// meshes, >1 for scale-free graphs.
    pub cv: f64,
}

impl DegreeStats {
    /// Computes statistics from a degree array.
    pub fn from_degrees(degrees: &[u32]) -> DegreeStats {
        assert!(!degrees.is_empty(), "empty degree array");
        let n = degrees.len();
        let mut sorted = degrees.to_vec();
        sorted.sort_unstable();
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();
        let mean = total as f64 / n as f64;
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let zero = degrees.iter().filter(|&&d| d == 0).count();
        DegreeStats {
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            median: sorted[n / 2],
            p99: sorted[((n as f64 * 0.99) as usize).min(n - 1)],
            zero_fraction: zero as f64 / n as f64,
            cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }

    /// Renders the statistics as a JSON object (hand-rolled; see
    /// [`GraphSummary::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"min\":{},\"max\":{},\"mean\":{},\"median\":{},\"p99\":{},\
             \"zero_fraction\":{},\"cv\":{}}}",
            self.min, self.max, self.mean, self.median, self.p99, self.zero_fraction, self.cv
        )
    }
}

/// Full dataset-inventory row (Table 1 of EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct GraphSummary {
    pub name: String,
    pub num_vertices: usize,
    pub num_edges: usize,
    pub avg_degree: f64,
    pub out_degrees: DegreeStats,
    pub in_degrees: DegreeStats,
}

impl GraphSummary {
    /// Summarizes a graph.
    pub fn of(g: &Graph) -> GraphSummary {
        GraphSummary {
            name: g.name().to_string(),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            avg_degree: g.avg_degree(),
            out_degrees: DegreeStats::from_degrees(
                &(0..g.num_vertices() as VertexId)
                    .map(|v| g.out_degree(v))
                    .collect::<Vec<_>>(),
            ),
            in_degrees: DegreeStats::from_degrees(
                &(0..g.num_vertices() as VertexId)
                    .map(|v| g.in_degree(v))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Renders the row as a JSON object (hand-rolled: the offline build has
    /// no serde; names containing `"` or `\` are escaped).
    pub fn to_json(&self) -> String {
        let escaped: String = self
            .name
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect();
        format!(
            "{{\"name\":\"{}\",\"num_vertices\":{},\"num_edges\":{},\"avg_degree\":{},\
             \"out_degrees\":{},\"in_degrees\":{}}}",
            escaped,
            self.num_vertices,
            self.num_edges,
            self.avg_degree,
            self.out_degrees.to_json(),
            self.in_degrees.to_json()
        )
    }
}

/// Histogram of `log2(degree+1)` buckets — the shape plotted in degree
/// distribution figures.
pub fn log2_degree_histogram(degrees: &[u32]) -> Vec<usize> {
    let mut hist = vec![0usize; 33];
    for &d in degrees {
        let bucket = 63 - (d as u64 + 1).leading_zeros() as usize;
        hist[bucket.min(32)] += 1;
    }
    while hist.len() > 1 && *hist.last().unwrap() == 0 {
        hist.pop();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    #[test]
    fn stats_of_constant_sequence() {
        let s = DegreeStats::from_degrees(&[3, 3, 3, 3]);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 3);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3);
        assert_eq!(s.p99, 3);
        assert_eq!(s.zero_fraction, 0.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn stats_of_skewed_sequence() {
        let mut deg = vec![1u32; 99];
        deg.push(1000);
        let s = DegreeStats::from_degrees(&deg);
        assert_eq!(s.max, 1000);
        assert_eq!(s.median, 1);
        assert!(s.cv > 5.0, "cv {} should flag skew", s.cv);
    }

    #[test]
    fn zero_fraction() {
        let s = DegreeStats::from_degrees(&[0, 0, 1, 1]);
        assert_eq!(s.zero_fraction, 0.5);
    }

    #[test]
    fn summary_of_graph() {
        let el = EdgeList::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let g = crate::graph::Graph::from_edgelist(&el)
            .unwrap()
            .with_name("tri");
        let s = GraphSummary::of(&g);
        assert_eq!(s.name, "tri");
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.out_degrees.max, 2);
        assert_eq!(s.in_degrees.max, 2);
    }

    #[test]
    fn histogram_buckets() {
        // degrees 0,1,3,7 -> log2(d+1) buckets 0,1,2,3
        let h = log2_degree_histogram(&[0, 1, 3, 7]);
        assert_eq!(h, vec![1, 1, 1, 1]);
    }

    #[test]
    fn histogram_trims_trailing_zeros() {
        let h = log2_degree_histogram(&[0, 0]);
        assert_eq!(h, vec![2]);
    }

    #[test]
    #[should_panic(expected = "empty degree array")]
    fn empty_degrees_panic() {
        DegreeStats::from_degrees(&[]);
    }

    #[test]
    fn stats_serialize_to_json() {
        let el = EdgeList::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let g = crate::graph::Graph::from_edgelist(&el)
            .unwrap()
            .with_name("tri\"x");
        let json = GraphSummary::of(&g).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"tri\\\"x\""), "{json}");
        assert!(json.contains("\"num_vertices\":3"));
        assert!(json.contains("\"out_degrees\":{\"min\":"));
    }
}
