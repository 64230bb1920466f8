//! The server: bounded admission, batch formation, deadline enforcement,
//! retry-with-backoff, graceful degradation, and drain.
//!
//! # Threading model
//!
//! Three kinds of thread touch a [`Server`]:
//!
//! * **Callers** run admission control inside [`Server::submit`] on their
//!   own thread: sequence assignment, load shedding, enqueue, condvar
//!   notify. A refused query never blocks — it returns a typed
//!   [`ServeError`] immediately.
//! * **One executor thread** owns both engine pools (the configured-width
//!   pool and the 1-thread scalar degraded pool). It dequeues, packs
//!   Reach and BFS queries into bit-parallel runs, and executes everything
//!   through [`single_shot`](crate::query::single_shot) / [`multi_source_reach`] so completed results
//!   are bit-identical to standalone runs. Executor panics (injected or
//!   otherwise) are caught per attempt; the thread never dies with queries
//!   outstanding.
//! * **One monitor thread** wakes every 200µs and sets the in-flight run's
//!   [`CancelFlag`] once its deadline passes. The engine observes the flag
//!   at the next iteration boundary and returns
//!   [`EngineError::Cancelled`], which the executor reports as
//!   [`ServeError::Expired`]. Nothing is ever killed mid-iteration.
//!
//! All shared state sits behind two mutexes (queue, stats) plus two
//! cooperative flags (draining, monitor-stop). The flags are
//! relaxed-ordering by design: observing either late only delays the
//! reaction, it never corrupts state, because every data handoff goes
//! through the mutexes.

use crate::query::{single_shot_view, Query, QueryResult, ServeError};
use crate::stats::{StatsInner, StatsSnapshot};
use grazelle_apps::multi::{multi_source_reach, MAX_LANES};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{
    CancelFlag, Checkpoint, EngineConfig, EngineError, ExecInjector, Frontier, PropertyArray,
    ResilienceContext, ServeInjector, SpanClock, VersionedGraph,
};
use grazelle_graph::delta::UpdateBatch;
use grazelle_graph::faults::RetryPolicy;
use grazelle_graph::graph::Graph;
use grazelle_sched::pool::ThreadPool;
use grazelle_vsparse::simd::SimdLevel;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the deadline monitor polls the in-flight run.
const MONITOR_TICK: Duration = Duration::from_micros(200);

/// How long the executor sleeps on an empty queue before rechecking the
/// drain flag.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Server configuration. Engine settings apply to every query; admission
/// and retry knobs govern the serving layer itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queued (admitted, not yet executing) queries; admissions
    /// beyond it are shed with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum estimated work (edge-sweep units, see
    /// [`Query::estimated_work`]) the queue may hold; `u64::MAX` disables
    /// the budget.
    pub work_budget: u64,
    /// Deadline applied by [`Server::submit`]; `None` = no deadline. The
    /// clock starts at admission, so queue wait counts against it.
    pub default_deadline: Option<Duration>,
    /// Retry budget and base backoff for transient failures, shared with
    /// ingestion's retry vocabulary.
    pub retry: RetryPolicy,
    /// Engine configuration for normal (non-degraded) execution.
    pub engine: EngineConfig,
    /// Pack Reach and BFS queries into bit-parallel runs.
    pub pack: bool,
    /// Most queries per packed run (clamped to [`MAX_LANES`]).
    pub pack_window: usize,
    /// Seed for the deterministic retry-backoff jitter.
    pub seed: u64,
    /// Where drain writes its final `GRZCKPT1` stats snapshot; `None`
    /// skips the snapshot.
    pub snapshot_path: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults: 128-deep queue, unbounded work budget, no deadline,
    /// ingestion's default retry policy, packing on.
    pub fn new() -> Self {
        ServeConfig {
            queue_capacity: 128,
            work_budget: u64::MAX,
            default_deadline: None,
            retry: RetryPolicy::DEFAULT,
            engine: EngineConfig::new(),
            pack: true,
            pack_window: MAX_LANES,
            seed: 0x5EED_CAFE,
            snapshot_path: None,
        }
    }

    /// Builder: queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Builder: queued-work budget.
    pub fn with_work_budget(mut self, budget: u64) -> Self {
        self.work_budget = budget;
        self
    }

    /// Builder: default per-query deadline.
    pub fn with_default_deadline(mut self, d: Option<Duration>) -> Self {
        self.default_deadline = d;
        self
    }

    /// Builder: retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: packing toggle.
    pub fn with_pack(mut self, pack: bool) -> Self {
        self.pack = pack;
        self
    }

    /// Builder: jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: drain snapshot location.
    pub fn with_snapshot_path(mut self, path: Option<PathBuf>) -> Self {
        self.snapshot_path = path;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// What a [`Ticket`] resolves to.
pub type QueryOutcome = Result<QueryResult, ServeError>;

/// An admitted query's handle: wait on it for the outcome.
#[derive(Debug)]
pub struct Ticket {
    seq: usize,
    rx: mpsc::Receiver<QueryOutcome>,
}

impl Ticket {
    /// Admission sequence number (what fault plans pin to).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Blocks until the query is disposed. A vanished executor (cannot
    /// happen short of process death) reports as a failure, not a panic.
    pub fn wait(self) -> QueryOutcome {
        self.rx.recv().unwrap_or(Err(ServeError::Failed {
            attempts: 0,
            last: "executor disappeared".to_string(),
        }))
    }
}

/// What a caller submitted: a read query, or an update batch to apply to
/// the versioned graph between runs.
enum Request {
    Query(Query),
    Update(UpdateBatch),
}

impl Request {
    fn packable(&self) -> bool {
        matches!(self, Request::Query(q) if q.packable())
    }
}

/// One admitted request waiting for the executor.
struct Pending {
    seq: usize,
    request: Request,
    /// Relative deadline; the absolute expiry is `admitted + deadline`.
    deadline: Option<Duration>,
    admitted: Instant,
    clock: SpanClock,
    /// Work actually charged against the queue budget at admission (can be
    /// less than the raw estimate when the saturating charge clipped at
    /// `u64::MAX`); the dequeue decrement reverses exactly this amount, so
    /// the budget can neither drift nor underflow.
    work: u64,
    tx: mpsc::Sender<QueryOutcome>,
}

/// Queue state under the admission mutex.
#[derive(Default)]
struct QueueState {
    deque: VecDeque<Pending>,
    queued_work: u64,
    next_seq: usize,
}

/// The in-flight run the deadline monitor watches.
struct CurrentRun {
    cancel: Arc<CancelFlag>,
    expires: Option<Instant>,
}

/// State shared by callers, the executor, and the monitor.
struct Shared {
    cfg: ServeConfig,
    /// The versioned graph: base + pending-insert overlay + merge policy.
    /// Only the executor thread takes this lock during execution; callers
    /// never touch it (admission reads the atomics below instead), so
    /// queries and updates serialize on the executor, not on admission.
    versioned: Mutex<VersionedGraph>,
    /// Live logical edge count, mirrored out of the versioned graph so
    /// admission work estimates need no graph lock.
    edge_count: AtomicU64,
    queue: Mutex<QueueState>,
    cv: Condvar,
    stats: Mutex<StatsInner>,
    current: Mutex<Option<CurrentRun>>,
    draining: AtomicBool,
    monitor_stop: AtomicBool,
    serve_faults: Option<Arc<ServeInjector>>,
    exec_faults: Option<Arc<ExecInjector>>,
}

impl Shared {
    /// The versioned graph, tolerating a poisoned lock: an absorbed panic
    /// during a read-only query run leaves the graph intact, so poisoning
    /// is cleared rather than cascaded into executor death.
    fn graph_state(&self) -> MutexGuard<'_, VersionedGraph> {
        self.versioned
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (depth, work) = {
            let q = self.queue.lock().unwrap();
            (q.deque.len(), q.queued_work)
        };
        self.stats.lock().unwrap().snapshot(depth, work)
    }
}

/// Cloneable read-only stats access, safe to hand to the health endpoint.
#[derive(Clone)]
pub struct StatsHandle {
    shared: Arc<Shared>,
}

impl StatsHandle {
    /// Current server statistics.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }
}

/// The serving layer: loads nothing itself — it executes queries against
/// the graph it was started with. See the module docs for the threading
/// model.
pub struct Server {
    shared: Arc<Shared>,
    executor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `graph`/`pg` with no fault injection.
    pub fn start(graph: Arc<Graph>, pg: Arc<PreparedGraph>, cfg: ServeConfig) -> Server {
        Server::start_with_faults(graph, pg, cfg, None, None)
    }

    /// Starts a server with deterministic fault injection: `serve_faults`
    /// drives admission stalls / query panics / deadline storms,
    /// `exec_faults` is threaded into every engine run's
    /// [`ResilienceContext`].
    pub fn start_with_faults(
        graph: Arc<Graph>,
        pg: Arc<PreparedGraph>,
        mut cfg: ServeConfig,
        serve_faults: Option<Arc<ServeInjector>>,
        exec_faults: Option<Arc<ExecInjector>>,
    ) -> Server {
        cfg.pack_window = cfg.pack_window.clamp(1, MAX_LANES);
        let edge_count = AtomicU64::new(graph.num_edges() as u64);
        let shared = Arc::new(Shared {
            cfg,
            versioned: Mutex::new(VersionedGraph::new(graph, pg)),
            edge_count,
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            stats: Mutex::new(StatsInner::default()),
            current: Mutex::new(None),
            draining: AtomicBool::new(false),
            monitor_stop: AtomicBool::new(false),
            serve_faults,
            exec_faults,
        });
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("grazelle-serve-exec".to_string())
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("grazelle-serve-mon".to_string())
                .spawn(move || monitor_loop(&shared))
                .expect("spawn monitor")
        };
        Server {
            shared,
            executor: Some(executor),
            monitor: Some(monitor),
        }
    }

    /// Submits `query` under the configured default deadline.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(query, self.shared.cfg.default_deadline)
    }

    /// Submits `query` with an explicit deadline (`None` = none). The
    /// admission sequence number is consumed even when the query is shed,
    /// so fault plans pinned to sequence numbers replay deterministically
    /// regardless of disposition.
    pub fn submit_with_deadline(
        &self,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        // ATOMIC: relaxed-counter — admission estimate; a stale count only
        // mis-sizes one shed decision by the in-flight batch's edges
        let edges = self.shared.edge_count.load(Ordering::Relaxed);
        let work = query.estimated_work_for_edges(edges);
        self.submit_request(Request::Query(query), deadline, work)
    }

    /// Submits an update batch. The executor applies it to the versioned
    /// graph in admission order — queries admitted before it run against
    /// the old version, queries after it against the new one. Resolves to
    /// [`QueryResult::Updated`]. Updates carry no deadline: once admitted,
    /// an update is never dropped (queries sequenced after it may already
    /// have observed its edges).
    pub fn submit_update(&self, batch: UpdateBatch) -> Result<Ticket, ServeError> {
        // Insert-only batches cost roughly their own size (overlay rebuild);
        // any delete forces a full merge rebuild, so budget an edge sweep.
        let work = if batch.deletes().is_empty() {
            (batch.len() as u64).max(1)
        } else {
            // ATOMIC: relaxed-counter — admission work estimate only
            self.shared.edge_count.load(Ordering::Relaxed)
        };
        self.submit_request(Request::Update(batch), None, work)
    }

    fn submit_request(
        &self,
        request: Request,
        deadline: Option<Duration>,
        work: u64,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let seq = {
            let mut q = shared.queue.lock().unwrap();
            let seq = q.next_seq;
            q.next_seq += 1;
            seq
        };
        if let Some(stall) = shared
            .serve_faults
            .as_deref()
            .and_then(|f| f.admission_stall(seq))
        {
            // Injected slow client / blocked accept loop: the sleep happens
            // on the caller's thread, outside every lock, so the bounded
            // queue keeps shedding correctly underneath it.
            std::thread::sleep(stall);
        }
        // ATOMIC: relaxed-flag — drain latch; a late observation only
        // admits one more query into a queue the drain will still empty
        if shared.draining.load(Ordering::Relaxed) {
            shared.stats.lock().unwrap().shed_draining += 1;
            return Err(ServeError::Draining);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = shared.queue.lock().unwrap();
            if q.deque.len() >= shared.cfg.queue_capacity {
                let err = ServeError::Overloaded {
                    queue_depth: q.deque.len(),
                    queued_work: q.queued_work,
                };
                drop(q);
                shared.stats.lock().unwrap().shed_queue += 1;
                return Err(err);
            }
            // Saturating charge: the admission check and the stored total
            // use the same clipped sum, and the pending entry remembers the
            // delta actually applied, so the dequeue decrement reverses the
            // charge exactly — no overflow on admit, no drift after.
            let charged_total = q.queued_work.saturating_add(work);
            if charged_total > shared.cfg.work_budget {
                let err = ServeError::Overloaded {
                    queue_depth: q.deque.len(),
                    queued_work: q.queued_work,
                };
                drop(q);
                shared.stats.lock().unwrap().shed_work += 1;
                return Err(err);
            }
            let charged = charged_total - q.queued_work;
            q.queued_work = charged_total;
            q.deque.push_back(Pending {
                seq,
                request,
                deadline,
                admitted: Instant::now(),
                clock: SpanClock::start(),
                work: charged,
                tx,
            });
        }
        shared.stats.lock().unwrap().admitted += 1;
        shared.cv.notify_all();
        Ok(Ticket { seq, rx })
    }

    /// Current queue depth (queries admitted but not yet executing).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().deque.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Cloneable stats access for the health endpoint.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops admitting queries. In-flight and queued work still completes
    /// (or expires); call [`Server::drain`] to wait for it.
    pub fn begin_drain(&self) {
        // ATOMIC: relaxed-flag — drain latch, observed by submitters and
        // the executor's empty-queue check
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
    }

    /// Graceful shutdown: stop admitting, let queued queries finish or
    /// expire, write the final `GRZCKPT1` stats snapshot (if configured),
    /// and return the closing statistics.
    pub fn drain(mut self) -> StatsSnapshot {
        self.begin_drain();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
        // ATOMIC: relaxed-flag — monitor stop latch
        self.shared.monitor_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let snap = self.shared.snapshot();
        if let Some(path) = &self.shared.cfg.snapshot_path {
            if let Err(e) = write_snapshot(&snap, path) {
                eprintln!("grazelle-serve: final snapshot failed: {e}");
            }
        }
        snap
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
        // ATOMIC: relaxed-flag — monitor stop latch
        self.shared.monitor_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

/// Persists the closing stats as a `GRZCKPT1` checkpoint: counters become
/// one f64 property array, so the snapshot round-trips through the same
/// checksummed, fsync-hardened format as engine checkpoints.
fn write_snapshot(snap: &StatsSnapshot, path: &std::path::Path) -> Result<(), String> {
    let fields = snapshot_fields(snap);
    let arr = PropertyArray::new(fields.len());
    for (i, v) in fields.iter().enumerate() {
        arr.set_f64(i, *v as f64);
    }
    let frontier = Frontier::from_vertices(fields.len(), &[]);
    let ck = Checkpoint::capture(snap.completed as usize, &[&arr], &frontier);
    ck.save(path).map_err(|e| e.to_string())
}

/// The counters [`write_snapshot`] persists, in file order.
fn snapshot_fields(snap: &StatsSnapshot) -> [u64; 17] {
    [
        snap.admitted,
        snap.completed,
        snap.shed_queue + snap.shed_work + snap.shed_draining,
        snap.expired,
        snap.failed,
        snap.retries,
        snap.degraded,
        snap.packed_runs,
        snap.packed_queries,
        snap.packed_bfs_queries,
        snap.packed_overlay_runs,
        snap.updates_applied,
        snap.merges,
        snap.update_apply_ns,
        snap.merge_ns,
        snap.p50_latency_ns,
        snap.p99_latency_ns,
    ]
}

/// Deadline monitor: cancels the registered in-flight run once its expiry
/// passes. Polling (rather than a timed wakeup per query) keeps the
/// protocol trivial — worst case a run gets one extra 200µs of grace.
fn monitor_loop(shared: &Shared) {
    // ATOMIC: relaxed-flag — monitor stop latch; a late observation only
    // delays thread exit by one tick
    while !shared.monitor_stop.load(Ordering::Relaxed) {
        {
            let cur = shared.current.lock().unwrap();
            if let Some(run) = cur.as_ref() {
                if run.expires.is_some_and(|t| Instant::now() >= t) {
                    run.cancel.cancel();
                }
            }
        }
        std::thread::sleep(MONITOR_TICK);
    }
}

/// The executor: dequeue → pack → execute → dispose, until drained.
fn executor_loop(shared: &Shared) {
    let pool = ThreadPool::new(shared.cfg.engine.threads, shared.cfg.engine.groups);
    // The degraded path: one thread, scalar kernels. Same results — the
    // engine is bit-identical across widths and SIMD levels — at the
    // lowest-risk operating point.
    let degraded_pool = ThreadPool::single_group(1);
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.deque.is_empty() {
                    break;
                }
                // ATOMIC: relaxed-flag — drain latch; pairs with the
                // notify in begin_drain via the condvar timeout
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                q = shared.cv.wait_timeout(q, IDLE_WAIT).unwrap().0;
            }
            form_batch(shared, &mut q)
        };
        match batch {
            Batch::Single(p) => match p.request {
                Request::Update(_) => apply_update(shared, &pool, p),
                Request::Query(_) => execute_single(shared, &pool, &degraded_pool, p, None),
            },
            Batch::Packed(members) => execute_packed(shared, &pool, &degraded_pool, members),
        }
    }
}

/// What the executor pulled off the queue this round.
enum Batch {
    Single(Pending),
    Packed(Vec<Pending>),
}

/// Forms the next batch under the queue lock: if the head is packable and
/// packing is on, pull every packable query (up to the window, up to the
/// next update) out of the queue — later non-packable queries keep their
/// order. An active insert overlay does not matter: the pack reads it.
fn form_batch(shared: &Shared, q: &mut QueueState) -> Batch {
    let head_packs = q.deque.front().is_some_and(|p| p.request.packable());
    if !(shared.cfg.pack && head_packs) {
        let p = q.deque.pop_front().expect("checked non-empty");
        q.queued_work = q.queued_work.saturating_sub(p.work);
        return Batch::Single(p);
    }
    let mut members = Vec::new();
    let mut i = 0;
    while i < q.deque.len() && members.len() < shared.cfg.pack_window {
        // A queued update is a version barrier: queries admitted after it
        // must observe its edges, so nothing packs across it.
        if matches!(q.deque[i].request, Request::Update(_)) {
            break;
        }
        if q.deque[i].request.packable() {
            let p = q.deque.remove(i).expect("index in bounds");
            q.queued_work = q.queued_work.saturating_sub(p.work);
            members.push(p);
        } else {
            i += 1;
        }
    }
    if members.len() == 1 {
        Batch::Single(members.pop().expect("one member"))
    } else {
        Batch::Packed(members)
    }
}

/// The query's absolute expiry, folding in an injected deadline storm
/// (which collapses the deadline to "already passed").
fn effective_expiry(shared: &Shared, p: &Pending) -> Option<Instant> {
    let stormed = shared
        .serve_faults
        .as_deref()
        .is_some_and(|f| f.storm_deadline(p.seq));
    if stormed {
        Some(p.admitted)
    } else {
        p.deadline.map(|d| p.admitted + d)
    }
}

/// Registers `cancel`/`expires` as the run the monitor watches, runs `f`,
/// unregisters. Pre-sets the flag when the expiry has already passed, so
/// an already-late query deterministically observes cancellation at
/// iteration 0 instead of racing the monitor.
fn with_monitored_run<R>(
    shared: &Shared,
    cancel: &Arc<CancelFlag>,
    expires: Option<Instant>,
    f: impl FnOnce() -> R,
) -> R {
    if expires.is_some_and(|t| Instant::now() >= t) {
        cancel.cancel();
    }
    *shared.current.lock().unwrap() = Some(CurrentRun {
        cancel: Arc::clone(cancel),
        expires,
    });
    let r = f();
    *shared.current.lock().unwrap() = None;
    r
}

/// xorshift64* step — the deterministic jitter source.
fn xorshift(mut x: u64) -> u64 {
    x |= 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Linear backoff with deterministic jitter: attempt `k` (1-based) sleeps
/// `k * backoff + jitter`, jitter < backoff/2, derived from
/// (seed, seq, attempt) alone so a soak run replays byte-for-byte.
fn backoff_sleep(shared: &Shared, seq: usize, attempt: u32) {
    let base = shared.cfg.retry.backoff;
    if base.is_zero() {
        return;
    }
    let j = xorshift(shared.cfg.seed ^ (seq as u64) << 17 ^ attempt as u64);
    let jitter_ns = j % (base.as_nanos() as u64 / 2).max(1);
    std::thread::sleep(base * (attempt + 1) + Duration::from_nanos(jitter_ns));
}

/// Disposes `p` with `outcome`, updating counters. Send failures (caller
/// dropped the ticket) are fine — the disposition still counts.
fn dispose(shared: &Shared, p: &Pending, outcome: QueryOutcome) {
    let mut stats = shared.stats.lock().unwrap();
    match &outcome {
        Ok(_) => {
            stats.completed += 1;
            stats.record_latency(p.clock.elapsed_ns());
        }
        Err(ServeError::Expired { .. }) => stats.expired += 1,
        Err(ServeError::Failed { .. }) => stats.failed += 1,
        Err(_) => {}
    }
    drop(stats);
    let _ = p.tx.send(outcome);
}

/// The payload of a panic the executor caught.
type Panic = Box<dyn std::any::Any + Send>;

/// Executes one query with the full containment ladder: up to
/// `1 + max_retries` attempts on the configured pool, then one final
/// attempt on the sequential-scalar degraded path. Deadline expiry at any
/// point reports `Expired`; exhausting the ladder reports `Failed`. The
/// executor thread survives everything. `spent` is a panic a pack already
/// caught for this query: it is the outcome of attempt 0.
fn execute_single(
    shared: &Shared,
    pool: &ThreadPool,
    degraded_pool: &ThreadPool,
    p: Pending,
    mut spent: Option<Panic>,
) {
    let Request::Query(query) = p.request else {
        unreachable!("updates are dispatched to apply_update");
    };
    let expires = effective_expiry(shared, &p);
    let cancel = Arc::new(CancelFlag::new());
    let max_retries = shared.cfg.retry.max_retries;
    let mut last;
    for attempt in 0..=(max_retries + 1) {
        let degraded_attempt = attempt == max_retries + 1;
        let (cfg, run_pool) = if degraded_attempt {
            shared.stats.lock().unwrap().degraded += 1;
            (
                shared
                    .cfg
                    .engine
                    .with_threads(1)
                    .with_simd(SimdLevel::Scalar),
                degraded_pool,
            )
        } else {
            (shared.cfg.engine, pool)
        };
        let result = match spent.take() {
            Some(panic) => Err(panic),
            None => with_monitored_run(shared, &cancel, expires, || {
                // RECOVERY: a panic crossing this boundary leaves no shared
                // state behind — injected query panics fire before the
                // engine starts, engine worker panics are absorbed inside
                // `run_resilient` (§9) and surface as `EngineError`, and
                // every attempt allocates its own property arrays inside
                // `single_shot` over the immutable graph. The attempt's
                // outputs are discarded wholesale and the retry ladder
                // re-runs from scratch on intact inputs.
                panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = shared.serve_faults.as_deref() {
                        f.maybe_panic_query(p.seq);
                    }
                    let mut rctx = ResilienceContext::new().with_cancel(&cancel);
                    if let Some(x) = shared.exec_faults.as_deref() {
                        rctx = rctx.with_injector(x);
                    }
                    let vg = shared.graph_state();
                    single_shot_view(&vg.view(), &cfg, &rctx, run_pool, query)
                }))
            }),
        };
        match result {
            Ok(Ok(res)) => {
                dispose(shared, &p, Ok(res));
                return;
            }
            Ok(Err(EngineError::Cancelled { iteration })) => {
                dispose(shared, &p, Err(ServeError::Expired { iteration }));
                return;
            }
            Ok(Err(e)) => last = e.to_string(),
            Err(_) => {
                shared.stats.lock().unwrap().panics_absorbed += 1;
                last = "executor panic (absorbed)".to_string();
            }
        }
        if degraded_attempt {
            dispose(
                shared,
                &p,
                Err(ServeError::Failed {
                    attempts: attempt + 1,
                    last,
                }),
            );
            return;
        }
        // A deadline that lapsed during the failed attempt means the retry
        // would be cancelled at iteration 0 anyway; report it now.
        if expires.is_some_and(|t| Instant::now() >= t) {
            dispose(shared, &p, Err(ServeError::Expired { iteration: 0 }));
            return;
        }
        shared.stats.lock().unwrap().retries += 1;
        backoff_sleep(shared, p.seq, attempt);
    }
    unreachable!("loop always disposes");
}

/// Applies one update batch to the versioned graph, between engine runs.
/// The executor thread is the only mutator, so queries admitted before the
/// update ran against the old version and queries after it will see the
/// new one. A rejected batch (endpoint out of range, weighted base)
/// changes nothing and reports `Failed`; there is no retry ladder —
/// validation is deterministic, so retrying cannot change the outcome.
fn apply_update(shared: &Shared, pool: &ThreadPool, p: Pending) {
    let Request::Update(batch) = &p.request else {
        unreachable!("queries are dispatched to execute_single");
    };
    let mut vg = shared.graph_state();
    let t = Instant::now();
    let result = vg.apply_batch(batch, pool);
    let apply_ns = t.elapsed().as_nanos() as u64;
    let edges = vg.num_edges() as u64;
    drop(vg);
    // ATOMIC: relaxed-counter — admission estimate mirror
    shared.edge_count.store(edges, Ordering::Relaxed);
    match result {
        Ok(report) => {
            let mut stats = shared.stats.lock().unwrap();
            stats.updates_applied += 1;
            stats.update_apply_ns += apply_ns;
            if report.merged {
                stats.merges += 1;
                stats.merge_ns += report.merge_ns;
            }
            drop(stats);
            dispose(
                shared,
                &p,
                Ok(QueryResult::Updated {
                    version: report.version,
                    inserted: report.record.inserted.len(),
                    deleted: report.record.deleted.len(),
                    merged: report.merged,
                }),
            );
        }
        Err(e) => {
            dispose(
                shared,
                &p,
                Err(ServeError::Failed {
                    attempts: 1,
                    last: format!("update rejected: {e}"),
                }),
            );
        }
    }
}

/// Executes a packed batch of Reach and BFS queries as one bit-parallel run
/// over the current version, insert overlay included. A member already
/// past its deadline never enters the pack, and one whose injected panic
/// fires leaves it with attempt 0 spent, so every member's disposition and
/// counters are what running alone would give. Cancellation uses the
/// earliest member deadline; on cancellation or a panic in the run,
/// survivors fall back to the individual path.
fn execute_packed(
    shared: &Shared,
    pool: &ThreadPool,
    degraded_pool: &ThreadPool,
    members: Vec<Pending>,
) {
    let now = Instant::now();
    let (mut live, mut evicted) = (Vec::new(), Vec::new());
    for p in members {
        if effective_expiry(shared, &p).is_some_and(|t| now >= t) {
            dispose(shared, &p, Err(ServeError::Expired { iteration: 0 }));
            continue;
        }
        let Some(f) = shared.serve_faults.as_deref() else {
            live.push(p);
            continue;
        };
        // RECOVERY: an injected member panic fires before the traversal and
        // touches no state; the member resumes its retry ladder alone at
        // attempt 1, on the same intact inputs.
        match panic::catch_unwind(AssertUnwindSafe(|| f.maybe_panic_query(p.seq))) {
            Ok(()) => live.push(p),
            Err(spent) => evicted.push((p, spent)),
        }
    }
    match live.len() {
        0 => {}
        1 => {
            let p = live.pop().expect("one member");
            execute_single(shared, pool, degraded_pool, p, None);
        }
        _ => run_pack(shared, pool, degraded_pool, live),
    }
    for (p, spent) in evicted {
        execute_single(shared, pool, degraded_pool, p, Some(spent));
    }
}

/// The bit-parallel run behind [`execute_packed`], for two or more members
/// that are neither expired nor injected to panic.
fn run_pack(shared: &Shared, pool: &ThreadPool, degraded_pool: &ThreadPool, live: Vec<Pending>) {
    let mut bfs_lanes = 0u64;
    let roots: Vec<_> = live
        .iter()
        .enumerate()
        .map(|(lane, p)| match p.request {
            Request::Query(Query::Reach { root }) => root,
            Request::Query(Query::Bfs { root }) => {
                bfs_lanes |= 1 << lane;
                root
            }
            _ => unreachable!("only Reach and Bfs pack"),
        })
        .collect();
    let expires = live
        .iter()
        .filter_map(|p| effective_expiry(shared, p))
        .min();
    let cancel = Arc::new(CancelFlag::new());
    let result = with_monitored_run(shared, &cancel, expires, || {
        // RECOVERY: the packed run's masks, frontiers and parent arrays
        // are owned by `multi_source_reach` and die with the unwind; the
        // graph is immutable during the run. On catch, every member falls
        // back to the individual path and re-runs from intact inputs.
        panic::catch_unwind(AssertUnwindSafe(|| {
            let vg = shared.graph_state();
            let view = vg.view();
            let mr = multi_source_reach(
                view.graph,
                view.delta_graph,
                &roots,
                bfs_lanes,
                pool,
                Some(&cancel),
            );
            mr.map(|mr| (mr, view.has_delta()))
        }))
    });
    match result {
        Ok(Some((mr, overlay))) => {
            let mut stats = shared.stats.lock().unwrap();
            stats.packed_runs += 1;
            stats.packed_queries += live.len() as u64;
            stats.packed_bfs_queries += u64::from(bfs_lanes.count_ones());
            stats.packed_overlay_runs += u64::from(overlay);
            stats.packed_pull_steps += mr.pull_iterations as u64;
            stats.packed_push_steps += mr.push_iterations as u64;
            drop(stats);
            for (p, reply) in live.iter().zip(mr.replies()) {
                dispose(shared, p, Ok(reply.into()));
            }
        }
        Ok(None) | Err(_) => {
            if result.is_err() {
                shared.stats.lock().unwrap().panics_absorbed += 1;
            }
            // Pack attempt died (deadline hit the batch, or the run
            // panicked): expired members report, survivors run alone.
            for p in live {
                execute_single(shared, pool, degraded_pool, p, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::single_shot;
    use grazelle_core::faults::ServeFaultPlan;
    use grazelle_graph::edgelist::EdgeList;

    fn serve_graph(n: usize) -> (Arc<Graph>, Arc<PreparedGraph>) {
        let mut el = EdgeList::new(n);
        for v in 0..n as u32 {
            if (v as usize) + 1 < n {
                el.push(v, v + 1).unwrap();
            }
            if v % 3 == 0 {
                el.push(v, (v * 7 + 2) % n as u32).unwrap();
            }
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        (Arc::new(g), Arc::new(pg))
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_micros(50),
        }
    }

    fn base_cfg() -> ServeConfig {
        ServeConfig::new()
            .with_engine(EngineConfig::new().with_threads(2))
            .with_retry(quick_retry())
    }

    #[test]
    fn completed_queries_match_single_shot() {
        let (g, pg) = serve_graph(64);
        let server = Server::start(Arc::clone(&g), Arc::clone(&pg), base_cfg());
        let t1 = server.submit(Query::Bfs { root: 0 }).unwrap();
        let t2 = server.submit(Query::Cc).unwrap();
        let t3 = server.submit(Query::PageRank { iterations: 4 }).unwrap();
        let cfg = EngineConfig::new().with_threads(2);
        let rctx = ResilienceContext::new();
        let pool = ThreadPool::single_group(2);
        for (t, q) in [
            (t1, Query::Bfs { root: 0 }),
            (t2, Query::Cc),
            (t3, Query::PageRank { iterations: 4 }),
        ] {
            let served = t.wait().expect("clean run completes");
            let direct = single_shot(&g, &pg, &cfg, &rctx, &pool, q).unwrap();
            assert_eq!(served, direct, "{}", q.name());
        }
        let snap = server.drain();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed + snap.expired, 0);
    }

    #[test]
    fn draining_server_sheds_with_typed_error() {
        let (g, pg) = serve_graph(16);
        let server = Server::start(g, pg, base_cfg());
        server.begin_drain();
        match server.submit(Query::Cc) {
            Err(ServeError::Draining) => {}
            other => panic!("expected Draining, got {other:?}"),
        }
        let snap = server.drain();
        assert_eq!(snap.shed_draining, 1);
        assert_eq!(snap.admitted, 0);
    }

    #[test]
    fn queue_overflow_sheds_overloaded() {
        let (g, pg) = serve_graph(32);
        // Occupy the executor: query 0 panics twice with a long backoff,
        // so subsequent admissions pile into the 1-deep queue.
        let faults = Arc::new(ServeInjector::new(
            ServeFaultPlan::clean().with_query_panic(0, 2),
        ));
        let cfg = base_cfg().with_queue_capacity(1).with_retry(RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(60),
        });
        let server = Server::start_with_faults(g, pg, cfg, Some(faults), None);
        let t0 = server.submit(Query::Cc).unwrap();
        // Give the executor time to dequeue query 0 and hit the first
        // injected panic (it then sleeps ≥60ms in backoff).
        std::thread::sleep(Duration::from_millis(20));
        let t1 = server.submit(Query::Cc).unwrap();
        let mut shed = 0;
        let mut tickets = vec![t0, t1];
        for _ in 0..4 {
            match server.submit(Query::Cc) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed >= 1, "1-deep queue must shed under a busy executor");
        for t in tickets {
            t.wait().expect("queued queries complete after recovery");
        }
        let snap = server.drain();
        assert!(snap.shed_queue >= 1);
        assert_eq!(snap.panics_absorbed, 2);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn work_budget_sheds_expensive_queries() {
        let (g, pg) = serve_graph(32);
        let edges = g.num_edges() as u64;
        // Budget fits one CC (2·edges) but not two.
        let faults = Arc::new(ServeInjector::new(
            ServeFaultPlan::clean().with_query_panic(0, 1),
        ));
        let cfg = base_cfg()
            .with_work_budget(3 * edges)
            .with_retry(RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_millis(60),
            });
        let server = Server::start_with_faults(g, pg, cfg, Some(faults), None);
        let t0 = server.submit(Query::Cc).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let t1 = server.submit(Query::Cc).unwrap();
        match server.submit(Query::Cc) {
            Err(ServeError::Overloaded { queued_work, .. }) => {
                assert_eq!(queued_work, 2 * edges);
            }
            other => panic!("expected work-budget shed, got {other:?}"),
        }
        t0.wait().unwrap();
        t1.wait().unwrap();
        assert_eq!(server.stats().shed_work, 1);
        drop(server);
    }

    #[test]
    fn zero_deadline_expires_at_iteration_zero() {
        let (g, pg) = serve_graph(64);
        let server = Server::start(g, pg, base_cfg());
        let t = server
            .submit_with_deadline(Query::Bfs { root: 0 }, Some(Duration::ZERO))
            .unwrap();
        match t.wait() {
            Err(ServeError::Expired { iteration }) => assert_eq!(iteration, 0),
            other => panic!("expected Expired, got {other:?}"),
        }
        let snap = server.drain();
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn deadline_storm_fault_expires_exactly_its_span() {
        let (g, pg) = serve_graph(64);
        let faults = Arc::new(ServeInjector::new(
            ServeFaultPlan::clean().with_deadline_storm(1, 2),
        ));
        let server = Server::start_with_faults(g, pg, base_cfg(), Some(faults), None);
        let outcomes: Vec<_> = (0..4)
            .map(|i| server.submit(Query::Bfs { root: i }).unwrap())
            .map(|t| t.wait())
            .collect();
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(ServeError::Expired { .. })));
        assert!(matches!(outcomes[2], Err(ServeError::Expired { .. })));
        assert!(outcomes[3].is_ok());
        let snap = server.drain();
        assert_eq!(snap.expired, 2);
        assert_eq!(snap.completed, 2);
    }

    #[test]
    fn retry_ladder_degrades_then_fails_typed() {
        let (g, pg) = serve_graph(32);
        // max_retries=1 → attempts: normal, normal, degraded. 3 injected
        // failures exhaust the ladder → Failed. Query 1 fails twice →
        // the degraded attempt completes it.
        let faults = Arc::new(ServeInjector::new(
            ServeFaultPlan::clean()
                .with_query_panic(0, 3)
                .with_query_panic(1, 2),
        ));
        let cfg = base_cfg().with_retry(RetryPolicy {
            max_retries: 1,
            backoff: Duration::from_micros(10),
        });
        let server = Server::start_with_faults(g, pg, cfg, Some(faults), None);
        let t0 = server.submit(Query::Cc).unwrap();
        match t0.wait() {
            Err(ServeError::Failed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected Failed, got {other:?}"),
        }
        let t1 = server.submit(Query::Cc).unwrap();
        t1.wait().expect("degraded path completes query 1");
        let snap = server.drain();
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.degraded, 2);
        assert_eq!(snap.panics_absorbed, 5);
    }

    #[test]
    fn reach_queries_pack_into_one_bit_parallel_run() {
        let (g, pg) = serve_graph(96);
        let (cfg, faults) = plugged(0);
        let server = Server::start_with_faults(Arc::clone(&g), Arc::clone(&pg), cfg, faults, None);
        let t0 = server.submit(Query::Cc).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let roots = [0u32, 7, 40, 95];
        let tickets: Vec<_> = roots
            .iter()
            .map(|&r| server.submit(Query::Reach { root: r }).unwrap())
            .collect();
        t0.wait().unwrap();
        let ecfg = EngineConfig::new().with_threads(2);
        for (t, &root) in tickets.into_iter().zip(&roots) {
            let served = t.wait().expect("packed reach completes");
            let direct = grazelle_apps::reach::run(&g, &ecfg, root);
            assert_eq!(served, QueryResult::Reached(direct), "root {root}");
        }
        let snap = server.drain();
        assert_eq!(snap.packed_runs, 1);
        assert_eq!(snap.packed_queries, 4);
        assert_eq!(snap.packed_bfs_queries + snap.packed_overlay_runs, 0);
        assert!(snap.packed_pull_steps + snap.packed_push_steps > 0);
    }

    /// Configuration and faults under which the query at admission
    /// `plug_seq` panics once and parks the executor in a 60 ms retry
    /// backoff, so the queries submitted behind it queue up and pack.
    fn plugged(plug_seq: usize) -> (ServeConfig, Option<Arc<ServeInjector>>) {
        let faults = ServeInjector::new(ServeFaultPlan::clean().with_query_panic(plug_seq, 1));
        let cfg = base_cfg().with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(60),
        });
        (cfg, Some(Arc::new(faults)))
    }

    #[test]
    fn drain_writes_a_grzckpt1_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "grz-serve-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("final.ckpt");
        let (g, pg) = serve_graph(32);
        // Seq 0 leaves an overlay; seq 1 plugs the executor while a Reach and
        // a BFS query queue up, so every packed counter has something to
        // carry through the file.
        let (cfg, faults) = plugged(1);
        let cfg = cfg.with_snapshot_path(Some(path.clone()));
        let server = Server::start_with_faults(g, pg, cfg, faults, None);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 20);
        server.submit_update(batch).unwrap().wait().unwrap();
        let plug = server.submit(Query::Cc).unwrap();
        let packed =
            [Query::Reach { root: 0 }, Query::Bfs { root: 3 }].map(|q| server.submit(q).unwrap());
        plug.wait().unwrap();
        for t in packed {
            t.wait().unwrap();
        }
        // A delete merges, so the update timings carry a merge share.
        let mut batch = UpdateBatch::new();
        batch.delete(0, 20);
        server.submit_update(batch).unwrap().wait().unwrap();
        let snap = server.drain();
        assert_eq!(snap.completed, 5);
        assert_eq!((snap.packed_bfs_queries, snap.packed_overlay_runs), (1, 1));
        assert_eq!((snap.updates_applied, snap.merges), (2, 1));
        assert!(0 < snap.merge_ns && snap.merge_ns < snap.update_apply_ns);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"GRZCKPT1");
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.iteration, 5);
        let stored: Vec<u64> = ck.arrays[0]
            .iter()
            .map(|&bits| f64::from_bits(bits) as u64)
            .collect();
        assert_eq!(stored, snapshot_fields(&snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_handle_snapshots_without_the_server() {
        let (g, pg) = serve_graph(16);
        let server = Server::start(g, pg, base_cfg());
        let handle = server.stats_handle();
        server.submit(Query::Cc).unwrap().wait().unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.completed, 1);
        assert!(snap.p50_latency_ns > 0);
        drop(server);
    }

    #[test]
    fn updates_apply_between_queries_and_version_results() {
        // Two disjoint symmetric chains (0..=31 and 32..=63); the update
        // bridges them, so CC's answer must change across the version
        // boundary and match a cold recompute on the merged edge set.
        let n = 64usize;
        let chains = |el: &mut EdgeList| {
            for v in 0..n as u32 - 1 {
                if v + 1 != 32 {
                    el.push(v, v + 1).unwrap();
                    el.push(v + 1, v).unwrap();
                }
            }
        };
        let mut el = EdgeList::new(n);
        chains(&mut el);
        el.sort_and_dedup();
        let g = Arc::new(Graph::from_edgelist(&el).unwrap());
        let pg = Arc::new(PreparedGraph::new(&g));
        let server = Server::start(Arc::clone(&g), Arc::clone(&pg), base_cfg());

        let before = server.submit(Query::Cc).unwrap().wait().unwrap();
        let QueryResult::Labels(labels) = &before else {
            panic!("expected component labels, got {before:?}");
        };
        assert_ne!(labels[33], labels[3], "chains start disjoint");

        let mut batch = UpdateBatch::new();
        batch.insert(31, 32).insert(32, 31);
        let applied = server.submit_update(batch).unwrap().wait().unwrap();
        assert_eq!(
            applied,
            QueryResult::Updated {
                version: 1,
                inserted: 2,
                deleted: 0,
                merged: false,
            }
        );

        // Cold recompute over the merged edge set is the reference for
        // every query answered after the version boundary.
        let mut mel = EdgeList::new(n);
        chains(&mut mel);
        mel.push(31, 32).unwrap();
        mel.push(32, 31).unwrap();
        mel.sort_and_dedup();
        let mg = Graph::from_edgelist(&mel).unwrap();
        let mpg = PreparedGraph::new(&mg);
        let cfg = EngineConfig::new().with_threads(2);
        let rctx = ResilienceContext::new();
        let pool = ThreadPool::single_group(2);
        for q in [Query::Cc, Query::Bfs { root: 0 }] {
            let served = server.submit(q).unwrap().wait().unwrap();
            let direct = single_shot(&mg, &mpg, &cfg, &rctx, &pool, q).unwrap();
            assert_eq!(served, direct, "{} after update", q.name());
        }
        let QueryResult::Labels(after) = server.submit(Query::Cc).unwrap().wait().unwrap() else {
            panic!("expected component labels");
        };
        assert_eq!(after[33], after[3], "bridge merged the components");

        let snap = server.drain();
        assert_eq!(snap.updates_applied, 1);
        assert_eq!(snap.merges, 0, "a 2-edge batch stays below the threshold");
        assert_eq!(snap.failed + snap.expired, 0);
    }

    #[test]
    fn reach_and_bfs_pack_over_an_active_overlay() {
        let (g, pg) = serve_graph(96);
        // Seq 0 is the update; query 1 plugs the executor so the Reach and
        // BFS queries pile up behind it and pack over the overlay.
        let (cfg, faults) = plugged(1);
        let server = Server::start_with_faults(Arc::clone(&g), Arc::clone(&pg), cfg, faults, None);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 95).insert(95, 3);
        server.submit_update(batch).unwrap().wait().unwrap();

        let t0 = server.submit(Query::Cc).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let queries = [
            Query::Reach { root: 0 },
            Query::Bfs { root: 0 },
            Query::Reach { root: 7 },
            Query::Reach { root: 40 },
            Query::Bfs { root: 95 },
            Query::Reach { root: 95 },
        ];
        let tickets = queries.map(|q| server.submit(q).unwrap());
        t0.wait().unwrap();

        // Merged-graph reference: serve_graph's edges plus the two inserts.
        let mut mel = EdgeList::new(96);
        for v in 0..96u32 {
            if (v as usize) + 1 < 96 {
                mel.push(v, v + 1).unwrap();
            }
            if v % 3 == 0 {
                mel.push(v, (v * 7 + 2) % 96).unwrap();
            }
        }
        mel.push(0, 95).unwrap();
        mel.push(95, 3).unwrap();
        mel.sort_and_dedup();
        let mg = Graph::from_edgelist(&mel).unwrap();
        let mpg = PreparedGraph::new(&mg);
        let ecfg = EngineConfig::new().with_threads(2);
        let pool = ThreadPool::single_group(2);
        for (t, q) in tickets.into_iter().zip(queries) {
            let served = t.wait().expect("packs over the overlay");
            let direct = single_shot(&mg, &mpg, &ecfg, &ResilienceContext::new(), &pool, q);
            assert_eq!(served, direct.unwrap(), "{q:?}");
        }
        let snap = server.drain();
        assert!(snap.packed_runs >= 1);
        assert_eq!(snap.packed_overlay_runs, snap.packed_runs);
        assert_eq!((snap.packed_queries, snap.packed_bfs_queries), (6, 2));
        assert_eq!(snap.updates_applied, 1);
    }

    #[test]
    fn packing_on_and_off_reply_alike_across_inserts_and_a_merging_delete() {
        let (g, pg) = serve_graph(96);
        enum Entry {
            Ask(Query),
            Apply(UpdateBatch),
        }
        let mut stream = Vec::new();
        for segment in 0..6u32 {
            stream.extend((0..8u32).map(|i| {
                let root = (segment * 13 + i * 11) % 96;
                Entry::Ask(match i % 3 {
                    0 => Query::Bfs { root },
                    _ => Query::Reach { root },
                })
            }));
            let mut batch = UpdateBatch::new();
            match segment {
                0 => batch.insert(95, 10).insert(50, 2),
                1 => batch.insert(7, 90).insert(90, 0),
                // Deletes force the merge; the inserts after it splice into
                // a fresh overlay over the spliced base.
                2 => batch.delete(0, 1).delete(40, 41).delete(90, 0),
                3 => batch.insert(0, 60).insert(60, 1),
                4 => batch.insert(41, 95).insert(33, 80).insert(40, 41),
                _ => continue,
            };
            stream.push(Entry::Apply(batch));
        }
        let serve = |pack: bool| {
            let (cfg, faults) = plugged(0);
            let cfg = cfg.with_pack(pack);
            let server =
                Server::start_with_faults(Arc::clone(&g), Arc::clone(&pg), cfg, faults, None);
            let plug = server.submit(Query::Cc).unwrap();
            let tickets: Vec<_> = stream
                .iter()
                .map(|entry| match entry {
                    Entry::Ask(q) => server.submit(*q).unwrap(),
                    Entry::Apply(b) => server.submit_update(b.clone()).unwrap(),
                })
                .collect();
            plug.wait().unwrap();
            let replies: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            (replies, server.drain())
        };
        let (packed, on) = serve(true);
        let (single, off) = serve(false);
        assert!(packed.iter().all(Result::is_ok));
        assert_eq!(packed, single);
        assert_eq!(off.packed_runs, 0);
        assert!(on.packed_overlay_runs >= 1 && on.packed_bfs_queries >= 1);
        assert_eq!((on.merges, off.merges), (1, 1));

        // The last segment reads the whole stream's edits: a cold build of
        // the edited edge set answers it alike.
        let mut edges: Vec<(u32, u32)> = g.out_csr().iter_edges().map(|(s, d, _)| (s, d)).collect();
        for entry in &stream {
            if let Entry::Apply(b) = entry {
                edges.retain(|e| !b.deletes().contains(e));
                edges.extend_from_slice(b.inserts());
            }
        }
        let cold = Graph::from_edgelist(&EdgeList::from_pairs(96, &edges).unwrap()).unwrap();
        let cold_pg = PreparedGraph::new(&cold);
        let ecfg = EngineConfig::new().with_threads(2);
        let pool = ThreadPool::single_group(2);
        let tail = stream.len() - 8;
        for (entry, served) in stream[tail..].iter().zip(&packed[tail..]) {
            let Entry::Ask(q) = entry else {
                unreachable!("the last segment only asks")
            };
            let direct = single_shot(&cold, &cold_pg, &ecfg, &ResilienceContext::new(), &pool, *q);
            assert_eq!(served.as_ref().ok(), direct.ok().as_ref(), "{q:?}");
        }
    }

    #[test]
    fn degree_table_is_shared_across_runs_and_rebuilt_by_a_merge() {
        let (g, pg) = serve_graph(64);
        let server = Server::start(Arc::clone(&g), Arc::clone(&pg), base_cfg());
        let bfs = |root| {
            let reply = server.submit(Query::Bfs { root }).unwrap().wait();
            reply.expect("bfs completes");
        };
        bfs(0);
        let table = pg.vss.degrees();
        for v in 0..64u32 {
            assert_eq!(table[v as usize], g.out_degree(v), "v{v}");
        }
        bfs(9);
        assert!(
            std::ptr::eq(table, pg.vss.degrees()),
            "a second run on the same prepared graph reads the first run's table"
        );

        // A delete forces the merge rebuild: new structure, new table.
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1).insert(5, 50);
        let reply = server.submit_update(batch).unwrap().wait().unwrap();
        assert!(matches!(reply, QueryResult::Updated { merged: true, .. }));
        bfs(0);
        let vg = server.shared.graph_state();
        let (merged, merged_pg) = (Arc::clone(vg.base()), Arc::clone(vg.base_prepared()));
        drop(vg);
        assert!(!Arc::ptr_eq(&merged_pg, &pg));
        for v in 0..64u32 {
            assert_eq!(
                merged_pg.vss.degrees()[v as usize],
                merged.out_degree(v),
                "v{v}"
            );
        }
        assert_eq!(merged_pg.vss.degrees()[0] + 1, table[0]);
        assert_eq!(merged_pg.vss.degrees()[5], table[5] + 1);
        server.drain();
    }

    #[test]
    fn saturated_work_estimates_cannot_corrupt_budget_accounting() {
        // Regression for the admission-accounting bug: with the budget
        // disabled (u64::MAX), a pathological estimate used to overflow the
        // unchecked `queued_work += work` charge (debug panic / release
        // wrap), and the post-completion decrement then drifted the counter
        // permanently. Admission must saturate, charge only the delta, and
        // drain back to exactly zero.
        let (g, pg) = serve_graph(32);
        let faults = Arc::new(ServeInjector::new(
            ServeFaultPlan::clean().with_query_panic(0, 1),
        ));
        let cfg = base_cfg().with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(60),
        });
        let server = Server::start_with_faults(g, pg, cfg, Some(faults), None);
        let t0 = server.submit(Query::Cc).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // edges × usize::MAX iterations saturates the estimate to u64::MAX;
        // the zero deadline guarantees it expires at iteration 0 instead of
        // actually running.
        let t1 = server
            .submit_with_deadline(
                Query::PageRank {
                    iterations: usize::MAX,
                },
                Some(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(
            server.stats().queued_work,
            u64::MAX,
            "charge saturates at the ceiling instead of wrapping"
        );
        // Admitting more work at the ceiling charges a delta of zero —
        // and must not shed, because the budget is disabled.
        let t2 = server.submit(Query::Cc).unwrap();
        t0.wait().unwrap();
        assert!(matches!(t1.wait(), Err(ServeError::Expired { .. })));
        t2.wait().unwrap();
        let snap = server.drain();
        assert_eq!(
            snap.queued_work, 0,
            "decrements match the charged amounts exactly — no drift"
        );
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.shed_work, 0);
    }
}
