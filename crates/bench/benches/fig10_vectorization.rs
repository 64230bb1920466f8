//! Figure 10 — vectorization: the chunk-granular gather-reduce walker the
//! engine runs (scalar vs AVX2) and the end-to-end Edge-Pull phase at both
//! SIMD levels.
//!
//! `cargo bench -p grazelle-bench --bench fig10_vectorization`

use criterion::{criterion_group, criterion_main, Criterion};
use grazelle_apps::pagerank::{self, PageRank};
use grazelle_bench::workloads::workload_at;
use grazelle_core::config::EngineConfig;
use grazelle_core::engine::hybrid::{run_program_on_pool, EngineKind};
use grazelle_graph::gen::datasets::Dataset;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::{detect, AllActive, Carry, Kernels, Min, Run, SimdLevel, Sum};
use std::hint::black_box;

const BENCH_SCALE: i32 = -5;

fn bench_kernels(c: &mut Criterion) {
    let w = workload_at(Dataset::Twitter2010, BENCH_SCALE);
    let vsd = &w.prepared.vsd;
    let values: Vec<f64> = (0..w.graph.num_vertices()).map(|i| i as f64).collect();
    let mut g = c.benchmark_group("fig10/gather-kernels/twitter");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    g.sample_size(20);
    let levels = if detect() == SimdLevel::Avx2 {
        vec![("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
    } else {
        vec![("scalar", SimdLevel::Scalar)]
    };
    let run = Run::unweighted(&values, vsd.vectors());
    let first = run.vectors[0].top_level_vertex();
    for (name, level) in levels {
        let k = Kernels::with_level(level);
        // The engine's own kernel: one walk over the whole array, every
        // destination's aggregate handed to a sink.
        g.bench_function(format!("gather-sum/{name}"), |b| {
            b.iter(|| {
                let mut carry = Carry::new(first, 0.0);
                let mut total = 0.0;
                // SAFETY: values covers vsd's vertex ids.
                unsafe { k.walk::<Sum, _, _>(run, AllActive, &mut carry, &mut |_, v| total += v) };
                black_box(total + carry.reduce(|a, b| a + b))
            })
        });
        g.bench_function(format!("gather-min/{name}"), |b| {
            b.iter(|| {
                let mut carry = Carry::new(first, f64::INFINITY);
                let mut m = f64::INFINITY;
                // SAFETY: values covers vsd's vertex ids.
                unsafe {
                    k.walk::<Min, _, _>(run, AllActive, &mut carry, &mut |_, v| m = m.min(v))
                };
                black_box(m.min(carry.reduce(f64::min)))
            })
        });
    }
    g.finish();
}

fn bench_edge_pull(c: &mut Criterion) {
    let w = workload_at(Dataset::Twitter2010, BENCH_SCALE);
    let pool = ThreadPool::single_group(2);
    let mut g = c.benchmark_group("fig10/edge-pull/twitter");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(1));
    g.sample_size(10);
    let levels = if detect() == SimdLevel::Avx2 {
        vec![("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
    } else {
        vec![("scalar", SimdLevel::Scalar)]
    };
    for (name, level) in levels {
        let cfg = EngineConfig::new()
            .with_threads(2)
            .with_simd(level)
            .with_force_engine(Some(EngineKind::Pull))
            .with_max_iterations(2);
        g.bench_function(format!("pagerank/{name}"), |b| {
            b.iter(|| {
                let prog = PageRank::new(&w.graph, pagerank::DAMPING);
                black_box(run_program_on_pool(&w.prepared, &prog, &cfg, &pool));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_edge_pull);
criterion_main!(benches);
