//! Microbenchmarks of the ingestion pipeline (ISSUE 5): text edge-list
//! parsing, counting-sort CSR construction, and Vector-Sparse encoding,
//! each in its sequential form and on a multi-thread pool.
//!
//! `cargo bench -p grazelle-bench --bench build_pipeline`

use criterion::{criterion_group, criterion_main, Criterion};
use grazelle_graph::csr::Csr;
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::gen::rmat::{rmat, RmatConfig};
use grazelle_graph::io::{parse_text_edgelist, parse_text_edgelist_parallel};
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::build::VectorSparse;
use std::fmt::Write as _;
use std::hint::black_box;

/// A mid-size power-law workload: big enough that per-edge costs dominate,
/// small enough that a full `cargo bench` pass stays fast.
fn workload() -> EdgeList {
    rmat(&RmatConfig {
        scale: 13,
        edge_factor: 8.0,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed: 42,
        permute: false,
        simplify: false,
    })
}

fn render_text(el: &EdgeList) -> String {
    let mut out = String::with_capacity(el.num_edges() * 12);
    for &(s, d) in el.edges() {
        writeln!(out, "{s} {d}").unwrap();
    }
    out
}

fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("build/parse");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    g.sample_size(10);
    let text = render_text(&workload());
    let bytes = text.as_bytes();
    g.bench_function("text-sequential", |b| {
        b.iter(|| black_box(parse_text_edgelist(black_box(bytes), None).unwrap()))
    });
    for threads in [2usize, 4] {
        let pool = ThreadPool::single_group(threads);
        g.bench_function(format!("text-parallel/{threads}-threads"), |b| {
            b.iter(|| black_box(parse_text_edgelist_parallel(black_box(bytes), &pool).unwrap()))
        });
    }
    g.finish();
}

fn bench_csr(c: &mut Criterion) {
    let mut g = c.benchmark_group("build/csr");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    g.sample_size(10);
    let el = workload();
    g.bench_function("counting-sort-sequential", |b| {
        b.iter(|| black_box(Csr::from_edgelist_by_src(black_box(&el))))
    });
    for threads in [2usize, 4] {
        let pool = ThreadPool::single_group(threads);
        g.bench_function(format!("counting-sort-parallel/{threads}-threads"), |b| {
            b.iter(|| black_box(Csr::from_edgelist_by_src_parallel(black_box(&el), &pool)))
        });
    }
    g.finish();
}

fn bench_vsparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("build/vsparse");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    g.sample_size(10);
    let el = workload();
    let mut csr = Csr::from_edgelist_by_src(&el);
    csr.sort_neighbors();
    g.bench_function("encode-sequential", |b| {
        b.iter(|| black_box(VectorSparse::<4>::from_csr(black_box(&csr))))
    });
    for threads in [2usize, 4] {
        let pool = ThreadPool::single_group(threads);
        g.bench_function(format!("encode-parallel/{threads}-threads"), |b| {
            b.iter(|| black_box(VectorSparse::<4>::from_csr_parallel(black_box(&csr), &pool)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parse, bench_csr, bench_vsparse);
criterion_main!(benches);
