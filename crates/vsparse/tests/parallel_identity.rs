//! Bit-identity proptest suite for the parallel ingestion pipeline: at 1,
//! 2, and 8 build threads, the chunked text parse, the counting-sort
//! CSR/CSC and the Vector-Sparse encoding must agree *exactly* with their
//! one-thread builds (the same builders as one share without a pool),
//! across uniform, power-law (R-MAT), and grid graph families, weighted
//! and unweighted.

use grazelle_graph::csr::Csr;
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::gen::rmat::{rmat, RmatConfig};
use grazelle_graph::io::{parse_text_edgelist, parse_text_edgelist_parallel};
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::VectorSparse;
use proptest::prelude::*;
use std::fmt::Write as _;

const THREAD_ARMS: [usize; 3] = [1, 2, 8];

#[derive(Debug, Clone, Copy)]
enum Family {
    Uniform,
    PowerLaw,
    Grid,
}

/// Deterministic splitmix64 — the test's own RNG so edge sets depend only
/// on the proptest-chosen seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One graph instance of a family: (num_vertices, directed edge pairs).
fn family_edges(family: Family, size: usize, seed: u64) -> (usize, Vec<(u32, u32)>) {
    match family {
        Family::Uniform => {
            let n = size.max(2);
            let m = n * 4;
            let mut s = seed;
            let edges = (0..m)
                .map(|_| {
                    let a = (splitmix(&mut s) % n as u64) as u32;
                    let b = (splitmix(&mut s) % n as u64) as u32;
                    (a, b)
                })
                .collect();
            (n, edges)
        }
        Family::PowerLaw => {
            let scale = (size.max(4) as f64).log2().ceil() as u32;
            let el = rmat(&RmatConfig {
                scale: scale.clamp(2, 10),
                edge_factor: 6.0,
                a: 0.57,
                b: 0.19,
                c: 0.19,
                seed,
                permute: false,
                simplify: false,
            });
            (el.num_vertices(), el.edges().to_vec())
        }
        Family::Grid => {
            let k = (size as f64).sqrt().ceil().max(2.0) as u32;
            let n = (k * k) as usize;
            let mut edges = Vec::new();
            for r in 0..k {
                for c in 0..k {
                    let v = r * k + c;
                    if c + 1 < k {
                        edges.push((v, v + 1));
                    }
                    if r + 1 < k {
                        edges.push((v, v + k));
                    }
                }
            }
            (n, edges)
        }
    }
}

/// Deterministic weights, including negative and sub-normal-ish values so
/// bitwise comparison has something to bite on.
fn weights_for(edges: &[(u32, u32)], seed: u64) -> Vec<f64> {
    let mut s = seed ^ 0xdead_beef;
    edges
        .iter()
        .map(|_| {
            let bits = splitmix(&mut s);
            // Map to a finite, parse-round-trippable decimal.
            ((bits % 2_000_001) as f64 - 1_000_000.0) / 128.0
        })
        .collect()
}

/// Renders the text edge-list format the parsers ingest.
fn render_text(edges: &[(u32, u32)], weights: Option<&[f64]>) -> String {
    let mut out = String::with_capacity(edges.len() * 16);
    for (i, &(s, d)) in edges.iter().enumerate() {
        match weights {
            Some(w) => writeln!(out, "{s} {d} {}", w[i]).unwrap(),
            None => writeln!(out, "{s} {d}").unwrap(),
        }
    }
    out
}

fn assert_edgelist_identical(a: &EdgeList, b: &EdgeList, ctx: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{ctx}: vertex counts");
    assert_eq!(a.edges(), b.edges(), "{ctx}: edge arrays");
    match (a.weights(), b.weights()) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert!(
                x.iter()
                    .map(|w| w.to_bits())
                    .eq(y.iter().map(|w| w.to_bits())),
                "{ctx}: weight bits"
            );
        }
        _ => panic!("{ctx}: weight presence differs"),
    }
}

fn check_all_layers(family: Family, size: usize, seed: u64, weighted: bool) {
    let (n, edges) = family_edges(family, size, seed);
    let weights = weighted.then(|| weights_for(&edges, seed));
    let el = EdgeList::from_parts(n, edges.clone(), weights.clone()).unwrap();
    let text = render_text(&edges, weights.as_deref());

    let seq_parse = parse_text_edgelist(text.as_bytes(), None).unwrap();
    let mut seq_out = Csr::from_edgelist_by_src(&el);
    let mut seq_in = Csr::from_edgelist_by_dst(&el);
    seq_out.sort_neighbors();
    seq_in.sort_neighbors();
    let seq_vs4 = VectorSparse::<4>::from_csr(&seq_in);
    let seq_vs8 = VectorSparse::<8>::from_csr(&seq_in);

    for threads in THREAD_ARMS {
        let ctx = format!("{family:?} size={size} seed={seed} weighted={weighted} t={threads}");
        let pool = ThreadPool::single_group(threads);

        let par_parse = parse_text_edgelist_parallel(text.as_bytes(), &pool).unwrap();
        assert_edgelist_identical(&par_parse, &seq_parse, &ctx);

        let mut par_out = Csr::from_edgelist_by_src_parallel(&el, &pool);
        let mut par_in = Csr::from_edgelist_by_dst_parallel(&el, &pool);
        par_out.sort_neighbors_parallel(&pool);
        par_in.sort_neighbors_parallel(&pool);
        assert_eq!(par_out, seq_out, "{ctx}: CSR");
        assert_eq!(par_in, seq_in, "{ctx}: CSC");

        let par_vs4 = VectorSparse::<4>::from_csr_parallel(&par_in, &pool);
        let par_vs8 = VectorSparse::<8>::from_csr_parallel(&par_in, &pool);
        assert!(par_vs4.bit_identical(&seq_vs4), "{ctx}: VS<4>");
        assert!(par_vs8.bit_identical(&seq_vs8), "{ctx}: VS<8>");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_uniform_family_identical(
        size in 2usize..200,
        seed in any::<u64>(),
        weighted in any::<bool>(),
    ) {
        check_all_layers(Family::Uniform, size, seed, weighted);
    }

    #[test]
    fn prop_power_law_family_identical(
        size in 8usize..512,
        seed in any::<u64>(),
        weighted in any::<bool>(),
    ) {
        check_all_layers(Family::PowerLaw, size, seed, weighted);
    }

    #[test]
    fn prop_grid_family_identical(
        size in 4usize..256,
        seed in any::<u64>(),
        weighted in any::<bool>(),
    ) {
        check_all_layers(Family::Grid, size, seed, weighted);
    }
}

/// Deterministic corner shapes that proptest shrinkers rarely land on:
/// single vertex, single edge, one hub, and an edgeless span of vertices.
#[test]
fn corner_shapes_identical_at_every_thread_count() {
    let shapes: &[(usize, Vec<(u32, u32)>)] = &[
        (1, vec![]),
        (1, vec![(0, 0)]),
        (2, vec![(0, 1)]),
        (64, vec![]),
        (33, (1..33u32).map(|d| (0, d)).collect()),
        (33, (1..33u32).map(|s| (s, 0)).collect()),
    ];
    for (n, edges) in shapes {
        for weighted in [false, true] {
            let weights = weighted.then(|| weights_for(edges, 7));
            let el = EdgeList::from_parts(*n, edges.clone(), weights.clone()).unwrap();
            let text = render_text(edges, weights.as_deref());
            let seq = parse_text_edgelist(text.as_bytes(), None).unwrap();
            let seq_csr = Csr::from_edgelist_by_src(&el);
            let seq_vs = VectorSparse::<4>::from_csr(&seq_csr);
            for threads in THREAD_ARMS {
                let pool = ThreadPool::single_group(threads);
                let ctx = format!("n={n} m={} weighted={weighted} t={threads}", edges.len());
                let par = parse_text_edgelist_parallel(text.as_bytes(), &pool).unwrap();
                assert_edgelist_identical(&par, &seq, &ctx);
                let par_csr = Csr::from_edgelist_by_src_parallel(&el, &pool);
                assert_eq!(par_csr, seq_csr, "{ctx}");
                let par_vs = VectorSparse::<4>::from_csr_parallel(&par_csr, &pool);
                assert!(par_vs.bit_identical(&seq_vs), "{ctx}");
            }
        }
    }
}
