//! Benchmark workloads: the Table-1 stand-in graphs at a configurable
//! scale, and the artifact's Table-2 PageRank iteration counts.

use grazelle_core::engine::PreparedGraph;
use grazelle_graph::gen::datasets::Dataset;
use grazelle_graph::graph::Graph;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Default scale shift applied to every stand-in (DESIGN.md §4.1): −2
/// quarters the vertex count so the full experiment matrix runs in minutes
/// on a small machine. Override with the `GRAZELLE_SCALE_SHIFT` environment
/// variable (0 = the stand-ins' nominal size).
pub const DEFAULT_SCALE_SHIFT: i32 = -2;

/// The scale shift in effect (environment override or default).
pub fn scale_shift() -> i32 {
    std::env::var("GRAZELLE_SCALE_SHIFT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE_SHIFT)
}

/// The artifact's suggested PageRank iteration counts (Table 2, "All
/// Others" column), scaled down ~16× to keep the experiment matrix fast
/// while preserving the relative weighting across graphs.
pub fn pagerank_iterations(ds: Dataset) -> usize {
    match ds {
        Dataset::CitPatents => 64,
        Dataset::DimacsUsa => 16,
        Dataset::LiveJournal => 16,
        Dataset::Twitter2010 => 4,
        Dataset::Friendster => 4,
        Dataset::Uk2007 => 4,
    }
}

/// A cached workload: the graph plus its prepared Vector-Sparse forms.
pub struct Workload {
    pub dataset: Dataset,
    pub graph: Graph,
    pub prepared: PreparedGraph,
}

impl Workload {
    fn build(dataset: Dataset, shift: i32) -> Self {
        let graph = dataset.build_scaled(shift);
        let prepared = PreparedGraph::new(&graph);
        Workload {
            dataset,
            graph,
            prepared,
        }
    }
}

type Cache = Mutex<HashMap<(Dataset, i32), &'static Workload>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the cached workload for `dataset` at the ambient scale shift,
/// building (and leaking — the process is a benchmark) on first use.
pub fn workload(dataset: Dataset) -> &'static Workload {
    workload_at(dataset, scale_shift())
}

/// Returns the cached workload at an explicit scale shift.
fn workload_at(dataset: Dataset, shift: i32) -> &'static Workload {
    let mut cache = cache().lock().unwrap();
    cache
        .entry((dataset, shift))
        .or_insert_with(|| Box::leak(Box::new(Workload::build(dataset, shift))))
}

/// A symmetrized (undirected) version of a stand-in, used by Connected
/// Components experiments (weak components need both directions).
pub fn workload_symmetric(dataset: Dataset) -> &'static Workload {
    static SYM: OnceLock<Mutex<HashMap<(Dataset, i32), &'static Workload>>> = OnceLock::new();
    let shift = scale_shift();
    let mut cache = SYM
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    cache.entry((dataset, shift)).or_insert_with(|| {
        let base = dataset.build_scaled(shift);
        let mut el = grazelle_graph::edgelist::EdgeList::with_capacity(
            base.num_vertices(),
            base.num_edges() * 2,
        );
        for v in 0..base.num_vertices() as u32 {
            for &d in base.out_neighbors(v) {
                el.push(v, d).unwrap();
            }
        }
        el.symmetrize();
        el.sort_and_dedup();
        let graph = Graph::from_edgelist(&el)
            .unwrap()
            .with_name(&format!("{}-sym", dataset.name()));
        let prepared = PreparedGraph::new(&graph);
        Box::leak(Box::new(Workload {
            dataset,
            graph,
            prepared,
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_cache_returns_same_instance() {
        let a = workload_at(Dataset::CitPatents, -6) as *const Workload;
        let b = workload_at(Dataset::CitPatents, -6) as *const Workload;
        assert_eq!(a, b);
    }

    #[test]
    fn different_scales_differ() {
        let a = workload_at(Dataset::CitPatents, -6);
        let b = workload_at(Dataset::CitPatents, -7);
        assert!(a.graph.num_vertices() > b.graph.num_vertices());
    }

    #[test]
    fn iteration_counts_follow_table2_ordering() {
        // Smaller graphs get more iterations, like the artifact's Table 2.
        assert!(
            pagerank_iterations(Dataset::CitPatents) > pagerank_iterations(Dataset::Twitter2010)
        );
        assert_eq!(
            pagerank_iterations(Dataset::Twitter2010),
            pagerank_iterations(Dataset::Uk2007)
        );
    }
}
