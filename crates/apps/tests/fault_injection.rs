//! End-to-end fault-injection harness (ISSUE 2 acceptance scenarios).
//!
//! Every fault class the resilience layer claims to handle is provoked
//! here through the real applications and the public API only:
//!
//! * ingestion faults — truncation, bit-flip, transient I/O, budget —
//!   against the checksummed binary graph format and the streamed text
//!   reader, plus a parallel-parse arm proving the per-worker text loader
//!   keeps the hardened-ingestion semantics (budget, typed errors) at
//!   every thread count;
//! * execution faults — chunk panic within and beyond the retry budget,
//!   superstep stall, NaN poison — against PageRank and Connected
//!   Components through `run_resilient`.
//!
//! The contract under test: a fault either **recovers** (results match the
//! clean run, counters record the intervention) or **fails typed**
//! (`GraphError` / `EngineError`) — never a hang, never a silent wrong
//! answer. All injection is plan-driven and seeded; nothing here depends
//! on wall-clock randomness.

use grazelle_apps::cc::ConnectedComponents;
use grazelle_apps::pagerank::{PageRank, DAMPING};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{
    run_resilient, run_resilient_on_pool, EngineConfig, EngineError, ExecFaultPlan, ExecInjector,
    ResilienceContext, RunOutcome,
};
use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::faults::{FaultyReader, IoFaultPlan, RetryPolicy};
use grazelle_graph::gen::rmat::{rmat, RmatConfig};
use grazelle_graph::graph::Graph;
use grazelle_graph::io::{self, LoadOptions};
use grazelle_graph::types::GraphError;
use grazelle_sched::pool::ThreadPool;
use std::path::PathBuf;
use std::time::Duration;

fn scale_free_edgelist() -> EdgeList {
    let mut el = rmat(&RmatConfig::graph500(9, 6.0, 42));
    el.symmetrize();
    el.sort_and_dedup();
    el
}

fn scale_free_graph() -> Graph {
    Graph::from_edgelist(&scale_free_edgelist()).unwrap()
}

/// Unique scratch path per test; tests may run concurrently in one process.
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("grazelle_fi_{}_{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn pagerank_resilient(
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    rctx: &ResilienceContext<'_>,
) -> (Vec<f64>, grazelle_core::ResilientRun) {
    let prog = PageRank::new(g, DAMPING);
    let run = run_resilient(pg, &prog, cfg, rctx).expect("run should complete");
    (prog.ranks(), run)
}

// ---------------------------------------------------------------- ingestion

#[test]
fn ingestion_bitflip_fails_typed() {
    let el = scale_free_edgelist();
    let path = scratch("bitflip.bin");
    io::save_binary(&el, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match io::load_binary(&path, &LoadOptions::default()) {
        Err(GraphError::ChecksumMismatch { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("bit-flip must be caught by the checksum, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ingestion_truncation_fails_typed_at_every_length() {
    let el = scale_free_edgelist();
    let full = io::encode_binary(&el);
    // Every strict prefix must produce a typed error, never a panic or a
    // silently short edge list.
    for cut in [0, 1, 8, 24, full.len() / 2, full.len() - 1] {
        let err = io::read_binary(&full[..cut], &LoadOptions::default()).unwrap_err();
        assert!(
            matches!(err, GraphError::Io(_) | GraphError::ChecksumMismatch { .. }),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn ingestion_transient_errors_absorbed_by_retry() {
    let el = scale_free_edgelist();
    let bytes = io::encode_binary(&el);
    let plan = IoFaultPlan::clean().with_seed(7).with_transient_errors(3);
    let reader = FaultyReader::new(bytes.as_slice(), plan);
    let (decoded, stats) = io::read_binary(reader, &LoadOptions::default()).unwrap();
    assert_eq!(decoded.num_edges(), el.num_edges());
    assert!(stats.retries >= 3, "retries absorbed: {}", stats.retries);

    // With retry disabled the same plan surfaces the transient error.
    let reader = FaultyReader::new(
        bytes.as_slice(),
        IoFaultPlan::clean().with_seed(7).with_transient_errors(3),
    );
    let opts = LoadOptions::default().with_retry(RetryPolicy::NONE);
    assert!(matches!(
        io::read_binary(reader, &opts),
        Err(GraphError::Io(_))
    ));
}

#[test]
fn ingestion_text_transient_errors_absorbed_by_retry() {
    // The text arm of the test above: the streamed text reader retries
    // every block read per `RetryPolicy`, and what it absorbs leaves the
    // result equal to the per-worker file loads at every thread count.
    let el = scale_free_edgelist();
    let mut text = Vec::new();
    io::write_text_edgelist(&el, &mut text).unwrap();
    let path = scratch("transient.txt");
    std::fs::write(&path, &text).unwrap();
    let plan = || IoFaultPlan::clean().with_seed(7).with_transient_errors(3);
    let reader = FaultyReader::new(text.as_slice(), plan());
    let (streamed, stats) = io::read_text_edgelist(reader, &LoadOptions::default()).unwrap();
    assert!(stats.retries >= 3, "retries absorbed: {}", stats.retries);
    assert_eq!(streamed.edges(), el.edges());

    // With retry disabled the same plan surfaces the transient error,
    // typed, whatever pool the caller holds.
    let opts = LoadOptions::default().with_retry(RetryPolicy::NONE);
    let reader = FaultyReader::new(text.as_slice(), plan());
    let Err(GraphError::Io(msg)) = io::read_text_edgelist(reader, &opts) else {
        panic!("a transient error with retries off must fail typed");
    };
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let loaded = io::load_text(&path, &opts, Some(&pool)).unwrap();
        assert_eq!(loaded.edges(), streamed.edges(), "t={threads}");
        assert_eq!(
            loaded.num_vertices(),
            streamed.num_vertices(),
            "t={threads}"
        );
        // Each worker of the pool streams its own faulty reader.
        let errs = pool.run_tasks(vec![(); threads], |_, ()| {
            io::read_text_edgelist(FaultyReader::new(text.as_slice(), plan()), &opts).map(|_| ())
        });
        for e in errs {
            assert!(
                matches!(&e, Err(GraphError::Io(m)) if *m == msg),
                "t={threads}: {e:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ingestion_budget_rejects_before_allocation() {
    let el = scale_free_edgelist();
    let path = scratch("budget.bin");
    io::save_binary(&el, &path).unwrap();
    let opts = LoadOptions::default().with_max_bytes(64);
    assert!(matches!(
        io::load_binary(&path, &opts),
        Err(GraphError::BudgetExceeded { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------- ingestion: parallel-parse parity
//
// The parallel text loader (ISSUE 5) shares the hardened read path with the
// sequential one — byte budget checked before the read, retrying reader —
// and its chunked parse must surface the *same* typed error at the *same*
// absolute line no matter how many threads split the buffer.

#[test]
fn ingestion_parallel_text_load_matches_sequential() {
    let el = scale_free_edgelist();
    // Attach deterministic weights so weight bits are part of the parity
    // check, not just topology.
    let weights: Vec<f64> = (0..el.num_edges())
        .map(|i| (i as f64 - 7.0) / 32.0)
        .collect();
    let el = EdgeList::from_parts(el.num_vertices(), el.edges().to_vec(), Some(weights)).unwrap();
    let path = scratch("parallel_text.txt");
    let file = std::fs::File::create(&path).unwrap();
    io::write_text_edgelist(&el, file).unwrap();

    let seq = io::load_text(&path, &LoadOptions::default(), None).unwrap();
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let par = io::load_text_parallel(&path, &pool).unwrap();
        assert_eq!(par.num_vertices(), seq.num_vertices(), "t={threads}");
        assert_eq!(par.edges(), seq.edges(), "t={threads}");
        let (pw, sw) = (par.weights().unwrap(), seq.weights().unwrap());
        assert!(
            pw.iter()
                .map(|w| w.to_bits())
                .eq(sw.iter().map(|w| w.to_bits())),
            "t={threads}: weight bits diverged"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ingestion_parallel_budget_rejects_like_sequential() {
    let el = scale_free_edgelist();
    let path = scratch("parallel_budget.txt");
    let file = std::fs::File::create(&path).unwrap();
    io::write_text_edgelist(&el, file).unwrap();
    let opts = LoadOptions::default().with_max_bytes(64);

    let seq = io::load_text(&path, &opts, None);
    let Err(GraphError::BudgetExceeded { required, budget }) = seq else {
        panic!("sequential loader accepted an over-budget file: {seq:?}");
    };
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        match io::load_text(&path, &opts, Some(&pool)) {
            Err(GraphError::BudgetExceeded {
                required: r,
                budget: b,
            }) => {
                assert_eq!((r, b), (required, budget), "t={threads}");
            }
            other => panic!("t={threads}: expected BudgetExceeded, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ingestion_parallel_parse_error_is_chunk_count_independent() {
    // Corrupt a line in the middle of the file: every thread count must
    // report the sequential scan's error, verbatim, because the earliest
    // absolute line wins during chunk merge.
    let el = scale_free_edgelist();
    let path = scratch("parallel_corrupt.txt");
    let file = std::fs::File::create(&path).unwrap();
    io::write_text_edgelist(&el, file).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let mid = lines.len() / 2;
    lines[mid] = "this is not an edge";
    std::fs::write(&path, lines.join("\n")).unwrap();

    let seq_err =
        io::load_text(&path, &LoadOptions::default(), None).expect_err("corrupt line must fail");
    assert!(matches!(seq_err, GraphError::Io(_)), "typed: {seq_err:?}");
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::single_group(threads);
        let par_err = io::load_text_parallel(&path, &pool).expect_err("corrupt line must fail");
        assert_eq!(
            par_err.to_string(),
            seq_err.to_string(),
            "t={threads}: error must not depend on chunking"
        );
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------- execution

#[test]
fn clean_run_matches_hybrid_with_zero_interventions() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(20);

    let hybrid = PageRank::new(&g, DAMPING);
    grazelle_core::run_program(&pg, &hybrid, &cfg);

    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());
    assert_eq!(
        ranks,
        hybrid.ranks(),
        "resilient path must be bit-identical"
    );
    assert_eq!(run.outcome, RunOutcome::Clean);
    assert!(run.stats.profile.resilience_clean());
    assert_eq!(run.stats.profile.checkpoints_written, 0);
    assert_eq!(run.stats.profile.checkpoint_restores, 0);
}

#[test]
fn chunk_panic_within_budget_recovers_bit_identical() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(12);
    let (clean, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());

    // Chunk 0 of iteration 1 fails twice, succeeding on the third attempt —
    // inside the default budget of 3 retries.
    let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(1, 0, 2));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &rctx);

    assert_eq!(ranks, clean, "retried chunk must reproduce the lost work");
    assert_eq!(run.outcome, RunOutcome::Recovered);
    assert_eq!(run.stats.profile.chunk_panics, 2);
    assert!(run.stats.profile.chunk_retries >= 1);
    assert_eq!(run.stats.profile.degraded_iterations, 0);
}

#[test]
fn chunk_panic_beyond_budget_degrades_and_still_converges() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(12);
    let (clean, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());

    // 100 failures can never be retried through: the iteration must degrade
    // to the sequential scalar path and still produce a correct result.
    let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(1, 0, 100));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &rctx);

    assert_eq!(run.outcome, RunOutcome::Recovered);
    assert!(run.stats.profile.degraded_iterations >= 1);
    // The scalar path folds partial sums in a different order than the
    // chunked parallel path, so equality is to rounding, not bits.
    for (a, b) in ranks.iter().zip(&clean) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let sum: f64 = ranks.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "rank sum {sum}");
}

#[test]
fn chunk_panic_in_cc_degrades_exactly() {
    // Min-aggregation is order-independent in floating point, so even the
    // degraded scalar path must match the clean run bit-for-bit.
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2);

    let clean = ConnectedComponents::new(g.num_vertices());
    run_resilient(&pg, &clean, &cfg, &ResilienceContext::new()).unwrap();

    let inj = ExecInjector::new(ExecFaultPlan::clean().with_chunk_panic(0, 1, 100));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let prog = ConnectedComponents::new(g.num_vertices());
    let run = run_resilient(&pg, &prog, &cfg, &rctx).unwrap();

    assert_eq!(prog.labels(), clean.labels());
    assert_eq!(run.outcome, RunOutcome::Recovered);
    assert!(run.stats.profile.degraded_iterations >= 1);
}

#[test]
fn stall_fails_typed_instead_of_hanging() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new()
        .with_threads(2)
        .with_max_iterations(12)
        .with_watchdog(Some(Duration::from_millis(50)));

    let inj = ExecInjector::new(ExecFaultPlan::clean().with_stall(1, Duration::from_millis(400)));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let prog = PageRank::new(&g, DAMPING);
    let t0 = std::time::Instant::now();
    let err = run_resilient(&pg, &prog, &cfg, &rctx).unwrap_err();
    match err {
        EngineError::Stalled { iteration } => assert_eq!(iteration, 1),
        other => panic!("expected Stalled, got {other:?}"),
    }
    // Bounded: the stalled worker wakes after 400ms and the run ends; well
    // under the multi-second territory that would indicate a real hang.
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn stall_on_the_calling_worker_fails_typed_and_the_pool_runs_on() {
    // Worker 0, the thread the stall sleeps, is the thread that calls the
    // pool: the watchdog must still end the run typed, and the same pool
    // must then run the next query clean.
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(12);
    let (clean, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());
    let pool = ThreadPool::new(cfg.threads, cfg.groups);

    let watched = cfg.with_watchdog(Some(Duration::from_millis(50)));
    let inj = ExecInjector::new(ExecFaultPlan::clean().with_stall(1, Duration::from_millis(200)));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let t0 = std::time::Instant::now();
    let err = run_resilient_on_pool(&pg, &PageRank::new(&g, DAMPING), &watched, &rctx, &pool)
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Stalled { iteration: 1 }),
        "expected Stalled at iteration 1, got {err:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(200),
        "the stall slept"
    );

    let next = PageRank::new(&g, DAMPING);
    let run = run_resilient_on_pool(&pg, &next, &cfg, &ResilienceContext::new(), &pool).unwrap();
    assert_eq!(run.outcome, RunOutcome::Clean);
    assert_eq!(next.ranks(), clean);
}

#[test]
fn watchdog_stays_silent_on_healthy_runs() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    // A generous deadline over a fast graph: the watchdog must not trip.
    let cfg = EngineConfig::new()
        .with_threads(2)
        .with_max_iterations(10)
        .with_watchdog(Some(Duration::from_secs(30)));
    let (_, run) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());
    assert_eq!(run.outcome, RunOutcome::Clean);
}

#[test]
fn nan_poison_rolls_back_and_recovers_bit_identical() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(12);
    let (clean, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());

    let inj = ExecInjector::new(ExecFaultPlan::clean().with_poison(2, 1));
    let rctx = ResilienceContext::new().with_injector(&inj);
    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &rctx);

    assert!(ranks.iter().all(|r| r.is_finite()), "no NaN may survive");
    assert_eq!(
        ranks, clean,
        "rollback + re-run must reproduce the clean run"
    );
    assert_eq!(run.outcome, RunOutcome::Recovered);
    assert!(run.stats.profile.divergence_rollbacks >= 1);
    // Exactly one extra Edge phase: the re-run of the poisoned iteration.
    assert_eq!(run.stats.engine_trace.len(), run.stats.iterations + 1);
}

// ---------------------------------------------------- checkpoint / restore

#[test]
fn kill_and_resume_pagerank_is_bit_identical_at_1_2_8_threads() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    for threads in [1usize, 2, 8] {
        let path = scratch(&format!("pr_resume_{threads}.ckpt"));

        let cfg = EngineConfig::new()
            .with_threads(threads)
            .with_max_iterations(20);
        let (uninterrupted, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());

        // "Kill" after 10 iterations, checkpointing every 4 — the survivor
        // on disk holds iteration 8.
        let kill_cfg = cfg.with_max_iterations(10).with_checkpoint_every(4);
        let rctx = ResilienceContext::new().with_checkpoint_path(&path);
        let (_, killed) = pagerank_resilient(&g, &pg, &kill_cfg, &rctx);
        assert_eq!(killed.stats.profile.checkpoints_written, 2);
        assert_eq!(killed.resumed_from, None);

        // Resume from disk and run to the full 20 iterations.
        let resume_cfg = cfg.with_checkpoint_every(4);
        let (resumed, run) = pagerank_resilient(&g, &pg, &resume_cfg, &rctx);
        assert_eq!(run.resumed_from, Some(8), "threads={threads}");
        assert_eq!(run.outcome, RunOutcome::Recovered);
        assert_eq!(run.stats.profile.checkpoint_restores, 1);
        assert_eq!(run.stats.iterations, 20);
        assert_eq!(
            resumed, uninterrupted,
            "threads={threads}: resume must be bit-identical"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn kill_and_resume_cc_is_bit_identical() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2);

    let clean = ConnectedComponents::new(g.num_vertices());
    let full = run_resilient(&pg, &clean, &cfg, &ResilienceContext::new()).unwrap();
    assert!(
        full.stats.iterations >= 4,
        "need enough iterations to interrupt, got {}",
        full.stats.iterations
    );

    let path = scratch("cc_resume.ckpt");
    let kill_cfg = cfg.with_max_iterations(2).with_checkpoint_every(2);
    let rctx = ResilienceContext::new().with_checkpoint_path(&path);
    let killed = ConnectedComponents::new(g.num_vertices());
    run_resilient(&pg, &killed, &kill_cfg, &rctx).unwrap();

    // Resume restores labels, accumulators, and the (possibly sparse)
    // frontier, then label-propagates to convergence.
    let resume_cfg = cfg.with_checkpoint_every(2);
    let prog = ConnectedComponents::new(g.num_vertices());
    let run = run_resilient(&pg, &prog, &resume_cfg, &rctx).unwrap();
    assert_eq!(run.resumed_from, Some(2));
    assert_eq!(prog.labels(), clean.labels());
    assert_eq!(run.stats.iterations, full.stats.iterations);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoint_is_rejected_and_run_starts_fresh() {
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new().with_threads(2).with_max_iterations(10);
    let (clean, _) = pagerank_resilient(&g, &pg, &cfg, &ResilienceContext::new());

    let path = scratch("corrupt.ckpt");
    // Plant garbage where a checkpoint would be: the run must not trust it.
    std::fs::write(&path, b"GRZCKPT1 definitely not a valid checkpoint").unwrap();
    let rctx = ResilienceContext::new().with_checkpoint_path(&path);
    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &rctx);
    assert_eq!(run.resumed_from, None);
    assert_eq!(ranks, clean);
    let _ = std::fs::remove_file(&path);
}

// ------------------------------------------------------------- composition

#[test]
fn combined_faults_in_one_run_all_recover() {
    // One plan, three fault classes in one run: a retried chunk panic, a
    // NaN poison, plus checkpointing — the mechanisms must compose.
    let g = scale_free_graph();
    let pg = PreparedGraph::new(&g);
    let cfg = EngineConfig::new()
        .with_threads(2)
        .with_max_iterations(12)
        .with_checkpoint_every(5);
    let (clean, _) = pagerank_resilient(
        &g,
        &pg,
        &EngineConfig::new().with_threads(2).with_max_iterations(12),
        &ResilienceContext::new(),
    );

    let path = scratch("combined.ckpt");
    let inj = ExecInjector::new(
        ExecFaultPlan::clean()
            .with_chunk_panic(1, 0, 1)
            .with_poison(3, 2),
    );
    let rctx = ResilienceContext::new()
        .with_checkpoint_path(&path)
        .with_injector(&inj);
    let (ranks, run) = pagerank_resilient(&g, &pg, &cfg, &rctx);

    assert_eq!(ranks, clean);
    assert_eq!(run.outcome, RunOutcome::Recovered);
    assert!(run.stats.profile.chunk_panics >= 1);
    assert!(run.stats.profile.divergence_rollbacks >= 1);
    assert_eq!(run.stats.profile.checkpoints_written, 2);
    let _ = std::fs::remove_file(&path);
}
