//! The plan server: queue → workers → degradation ladder → caches.
//!
//! [`PlanServer`] is a long-running planning service. [`submit`] enqueues a
//! request behind a cost-budget admission gate (typed
//! [`Rejected::Saturated`] shedding) and returns a [`Ticket`]; a pool of
//! worker threads takes requests off the queue one at a time, so an idle
//! worker always picks up the oldest waiting request. Per-instance warm
//! state is carried by the [`ContextLru`]. Each request runs through:
//!
//! 1. **deadline check** — a request whose budget expired while queued
//!    returns a typed [`ServeError::DeadlineExpired`] without touching the
//!    planner;
//! 2. **memo cache** — solves are keyed by the versioned
//!    [`memo_key`]`(instance_hash, config_fingerprint)` with single-flight
//!    deduplication ([`MemoCache`]): one oracle-checked solve is served to
//!    every concurrent waiter. With a [`MemoStore`] passed to
//!    [`PlanServer::start_with`], a second, persistent tier sits
//!    underneath: memo leaders consult the store of [`PlanArtifact`]s
//!    before solving, and a
//!    stored artifact is served **only** after its verification
//!    certificate re-verifies against the requester's instance
//!    ([`PlanArtifact::verify`]) — then promoted into the in-memory memo.
//!    Fresh non-degraded solves are certified and written back, so the
//!    store survives restarts. A plan is certified at most once, and
//!    certifying runs no oracle: the certificate is sealed from the gate
//!    replay the [`ServedPlan`] carries (the ladder's own, or the store
//!    re-verification's). The [`CertifiedPlan`] lives on its memo entry,
//!    and the socket front end and the store share it
//!    ([`PlanServer::certify`]);
//! 3. **the ladder** — cache misses run
//!    [`plan_resilient_ctx`] under the request's remaining budget mapped
//!    onto `pipeline_budget`, so a tight deadline degrades the solve
//!    (PDW → greedy → DAWO) instead of failing it, and the served plan
//!    keeps the gate's [`OracleReplay`](pathdriver_wash::OracleReplay).
//!    Deadline-degraded plans are served to their requester but *not*
//!    memoized — the memo stays canonical;
//! 4. **repair routing** — a [`ServeRequest::Repair`] against a known
//!    instance goes through that instance's [`RepairSession`]
//!    (delta-scoped cache invalidation) instead of a cold solve. Sessions
//!    own an evolving copy of the instance: repairs accumulate, while
//!    plain solves keep addressing the *original* instance.
//!
//! Every decision about time reads the injectable [`Clock`]; every panic
//! in a worker (or injected through the test [`Hook`]) is caught per
//! request and surfaced as a typed [`ServeError::WorkerPanic`] — the
//! server stays up, mirroring `try_par_map_ctx`'s guarantees.
//!
//! [`submit`]: PlanServer::submit
//! [`MemoCache`]: crate::cache::MemoCache
//! [`ContextLru`]: crate::cache::ContextLru
//! [`plan_resilient_ctx`]: pathdriver_wash::plan_resilient_ctx
//! [`RepairSession`]: pathdriver_wash::RepairSession

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathdriver_wash::{
    chip_hash, config_fingerprint, instance_hash, memo_key, plan_resilient_ctx, ContextParts,
    PdwConfig, PlanArtifact, PlanContext, PlanDelta, PlanOutcome, RepairSession, RungRejection,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;

use crate::cache::{CertifiedPlan, ContextCheckout, ContextLru, MemoCache, MemoClaim, ServedPlan};
use crate::clock::{Clock, WallClock};
use crate::store::MemoStore;

/// A planning instance as the server sees it: the benchmark + synthesis
/// with both canonical hashes and the admission-control cost precomputed.
#[derive(Debug, Clone)]
pub struct Instance {
    bench: Benchmark,
    synthesis: Synthesis,
    chip_hash: u64,
    instance_hash: u64,
    cost: u64,
}

impl Instance {
    /// Wraps an instance, computing its canonical hashes and cost (the
    /// base schedule's task count — a cheap proxy for solve effort).
    pub fn new(bench: Benchmark, synthesis: Synthesis) -> Self {
        let chip = chip_hash(&synthesis.chip);
        let inst = instance_hash(&bench, &synthesis);
        let cost = synthesis.schedule.tasks().count() as u64 + 1;
        Instance {
            bench,
            synthesis,
            chip_hash: chip,
            instance_hash: inst,
            cost,
        }
    }

    /// The benchmark.
    pub fn bench(&self) -> &Benchmark {
        &self.bench
    }

    /// The synthesized chip + base schedule.
    pub fn synthesis(&self) -> &Synthesis {
        &self.synthesis
    }

    /// Canonical hash of the chip (the context-LRU key).
    pub fn chip_hash(&self) -> u64 {
        self.chip_hash
    }

    /// Canonical hash of the full instance (the memo-cache key component).
    pub fn instance_hash(&self) -> u64 {
        self.instance_hash
    }

    /// The admission-control cost estimate.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// What a request asks the server to do.
#[derive(Clone)]
pub enum ServeRequest {
    /// Plan the instance (or serve it from the memo cache).
    Solve {
        /// The instance to plan.
        instance: Arc<Instance>,
    },
    /// Apply a delta to the instance's repair session and serve the
    /// repaired plan.
    Repair {
        /// The base instance whose session the delta targets.
        instance: Arc<Instance>,
        /// The change to apply.
        delta: PlanDelta,
    },
}

impl ServeRequest {
    /// The instance the request targets.
    pub fn instance(&self) -> &Arc<Instance> {
        match self {
            ServeRequest::Solve { instance } | ServeRequest::Repair { instance, .. } => instance,
        }
    }
}

/// Why a request was refused *admission* (before ever being queued).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The queue's cost budget is exhausted: admitting this request would
    /// push the queued cost past the configured budget.
    Saturated {
        /// Cost already queued.
        queued_cost: u64,
        /// This request's cost.
        cost: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Saturated {
                queued_cost,
                cost,
                budget,
            } => write!(
                f,
                "saturated: queued cost {queued_cost} + request cost {cost} exceeds budget {budget}"
            ),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Why an *admitted* request could not be served.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request's deadline expired (in queue, or waiting on a memo
    /// leader) before a plan could be served.
    DeadlineExpired {
        /// How long the request had been waiting when it expired.
        waited: Duration,
    },
    /// The worker processing the request panicked; the panic was caught
    /// and the server kept running.
    WorkerPanic(String),
    /// Every rung of the degradation ladder was rejected.
    Unservable(String),
    /// The repair delta was malformed for its session (unknown op/port,
    /// off-grid fault).
    RejectedDelta(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExpired { waited } => {
                write!(f, "deadline expired after waiting {:?}", waited)
            }
            ServeError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::Unservable(msg) => write!(f, "no ladder rung served: {msg}"),
            ServeError::RejectedDelta(msg) => write!(f, "repair delta rejected: {msg}"),
        }
    }
}

/// A successfully served plan.
#[derive(Debug, Clone)]
pub struct Served {
    /// The verified plan (shared with the memo cache on hits).
    pub plan: Arc<ServedPlan>,
    /// `true` when the plan came straight from the memo cache.
    pub memo_hit: bool,
    /// `true` when the plan came from a repair session.
    pub repaired: bool,
    /// `true` when the plan was degraded by this request's deadline (such
    /// plans are served but never memoized).
    pub degraded: bool,
    /// Wall time spent *processing* this request, seconds (real clock —
    /// a measurement, not a control input).
    pub service_s: f64,
}

/// What a request resolves to once admitted.
pub type Response = Result<Served, ServeError>;

/// A completion callback registered with [`Ticket::on_complete`].
type OnComplete = Box<dyn FnOnce(Response) + Send>;

#[derive(Default)]
struct SlotState {
    response: Option<Response>,
    latency: Option<Duration>,
    on_complete: Option<OnComplete>,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl Slot {
    fn complete(&self, response: Response, latency: Duration) {
        let on_complete = {
            let mut state = self.state.lock().unwrap();
            state.response = Some(response.clone());
            state.latency = Some(latency);
            state.on_complete.take()
        };
        self.done.notify_all();
        if let Some(callback) = on_complete {
            callback(response);
        }
    }
}

/// A handle to an admitted request's eventual response.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl Ticket {
    /// The server-assigned request id (stable across the hooks and logs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response is ready.
    pub fn wait(&self) -> Response {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(response) = &state.response {
                return response.clone();
            }
            state = self.slot.done.wait(state).unwrap();
        }
    }

    /// Runs `callback` with the response once it is ready — on the serve
    /// worker that completes the request, or right here if it already
    /// completed — instead of parking a thread in [`wait`](Self::wait).
    /// The callback runs on a worker, so it must not block.
    pub fn on_complete(self, callback: impl FnOnce(Response) + Send + 'static) {
        let mut state = self.slot.state.lock().unwrap();
        match &state.response {
            Some(response) => {
                let response = response.clone();
                drop(state);
                callback(response);
            }
            None => state.on_complete = Some(Box::new(callback)),
        }
    }

    /// The response if it is already ready.
    pub fn try_response(&self) -> Option<Response> {
        self.slot.state.lock().unwrap().response.clone()
    }

    /// Queue-to-completion latency on the server's clock, once completed.
    pub fn latency(&self) -> Option<Duration> {
        self.slot.state.lock().unwrap().latency
    }
}

/// Where the chaos hook fires during request processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookPoint {
    /// Right after a worker takes the request off the queue.
    Dequeue,
    /// Right after the request became the memo leader, before the solve.
    Solve,
}

/// A test hook called at [`HookPoint`]s with the request id. Panicking in
/// the hook simulates a worker crash at that point.
pub type Hook = Arc<dyn Fn(HookPoint, u64) + Send + Sync>;

/// Server configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue (min 1).
    pub workers: usize,
    /// Admission budget: total estimated cost allowed in the queue at
    /// once. `u64::MAX` disables shedding.
    pub queue_cost_budget: u64,
    /// Warm-context LRU capacity (entries; 0 disables).
    pub context_lru: usize,
    /// Planner configuration for every solve (the memo key includes its
    /// [`config_fingerprint`]).
    pub planner: PdwConfig,
    /// Deadline applied to requests submitted without an explicit budget.
    pub default_budget: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cost_budget: u64::MAX,
            context_lru: 8,
            planner: PdwConfig {
                ilp: false,
                threads: 1,
                ..PdwConfig::default()
            },
            default_budget: None,
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests shed at admission ([`Rejected::Saturated`]).
    pub shed: u64,
    /// Requests served a plan.
    pub served: u64,
    /// Degradation-ladder runs (memo leaders + initial session plans).
    pub solves: u64,
    /// Repair-session repairs performed.
    pub repairs: u64,
    /// Solves served straight from the memo cache.
    pub memo_hits: u64,
    /// Worker panics caught and surfaced as typed errors.
    pub worker_panics: u64,
    /// Requests that expired before a plan could be served.
    pub deadline_expired: u64,
    /// Requests whose every ladder rung was rejected.
    pub unservable: u64,
    /// Malformed repair deltas rejected by their session.
    pub rejected_deltas: u64,
    /// Context-LRU checkouts that served full warm parts.
    pub lru_warm_hits: u64,
    /// Context-LRU checkouts that served only a scratch pool.
    pub lru_pool_hits: u64,
    /// Context-LRU checkouts that found nothing.
    pub lru_misses: u64,
    /// Context-LRU entries evicted over capacity.
    pub lru_evictions: u64,
    /// Solves served from the persistent memo store after their
    /// certificate re-verified against the requester's instance.
    pub persist_hits: u64,
    /// Persisted artifacts rejected at serve time (certificate failed
    /// re-verification, or fingerprint mismatch); a fresh solve replaced
    /// them.
    pub persist_rejected: u64,
    /// Live entries in the persistent memo store (0 without one).
    pub persist_entries: u64,
    /// Appends to the persistent memo store that failed; those entries
    /// serve this process but may not survive a restart.
    pub persist_write_failures: u64,
    /// Certified artifacts built ([`PlanServer::certify`]): at most one
    /// per memo entry, plus one per deadline-degraded plan sent out.
    pub certifications: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    solves: AtomicU64,
    repairs: AtomicU64,
    memo_hits: AtomicU64,
    worker_panics: AtomicU64,
    deadline_expired: AtomicU64,
    unservable: AtomicU64,
    rejected_deltas: AtomicU64,
    persist_hits: AtomicU64,
    persist_rejected: AtomicU64,
    persist_write_failures: AtomicU64,
    certifications: AtomicU64,
}

struct QueuedRequest {
    id: u64,
    request: ServeRequest,
    submitted_at: Duration,
    deadline_at: Option<Duration>,
    cost: u64,
    slot: Arc<Slot>,
}

struct QueueState {
    deque: VecDeque<QueuedRequest>,
    queued_cost: u64,
    open: bool,
    paused: bool,
}

struct Inner {
    cfg: ServeConfig,
    config_fp: u64,
    clock: Arc<dyn Clock>,
    hook: Option<Hook>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    memo: MemoCache,
    store: Option<Arc<dyn MemoStore>>,
    contexts: Mutex<ContextLru>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<RepairSession>>>>,
    next_id: AtomicU64,
    counters: Counters,
}

/// The long-running plan server: queue → workers → degradation ladder →
/// caches (see the crate docs).
pub struct PlanServer {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl PlanServer {
    /// Starts the server with the production wall clock, no hooks and a
    /// memory-only memo.
    pub fn start(cfg: ServeConfig) -> Self {
        Self::start_with(cfg, Arc::new(WallClock::new()), None, None)
    }

    /// Starts the server with an injected clock, an optional chaos hook —
    /// the deterministic-test entry point — and an optional persistent
    /// memo `store` under the in-memory memo (for example a
    /// [`FileMemoStore`](crate::FileMemoStore): an append-only log of
    /// certified [`PlanArtifact`] frames whose entries survive restarts
    /// and are served only after certificate re-verification).
    pub fn start_with(
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        hook: Option<Hook>,
        store: Option<Arc<dyn MemoStore>>,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            config_fp: config_fingerprint(&cfg.planner),
            contexts: Mutex::new(ContextLru::new(cfg.context_lru)),
            cfg,
            clock,
            hook,
            store,
            queue: Mutex::new(QueueState {
                deque: VecDeque::new(),
                queued_cost: 0,
                open: true,
                paused: false,
            }),
            queue_cv: Condvar::new(),
            memo: MemoCache::new(),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            counters: Counters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pdw-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        PlanServer {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The server's clock (the one every deadline decision reads).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The fingerprint of the server's planner configuration — half of
    /// every memo key, and the value a networked client's request config
    /// must match ([`crate::net`]).
    pub fn config_fingerprint(&self) -> u64 {
        self.inner.config_fp
    }

    /// Submits a request under the config's default budget.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, Rejected> {
        self.submit_with_budget(request, None)
    }

    /// Submits a request with an explicit deadline budget (`None` falls
    /// back to [`ServeConfig::default_budget`]). Admission is checked
    /// here: a full queue sheds with [`Rejected::Saturated`], a shut-down
    /// server with [`Rejected::ShuttingDown`].
    pub fn submit_with_budget(
        &self,
        request: ServeRequest,
        budget: Option<Duration>,
    ) -> Result<Ticket, Rejected> {
        let inner = &self.inner;
        let cost = request.instance().cost;
        let mut q = inner.queue.lock().unwrap();
        if !q.open {
            return Err(Rejected::ShuttingDown);
        }
        if q.queued_cost.saturating_add(cost) > inner.cfg.queue_cost_budget {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Saturated {
                queued_cost: q.queued_cost,
                cost,
                budget: inner.cfg.queue_cost_budget,
            });
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let now = inner.clock.now();
        let budget = budget.or(inner.cfg.default_budget);
        let slot = Arc::new(Slot::default());
        q.deque.push_back(QueuedRequest {
            id,
            request,
            submitted_at: now,
            deadline_at: budget.map(|b| now + b),
            cost,
            slot: Arc::clone(&slot),
        });
        q.queued_cost += cost;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        inner.queue_cv.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Pauses the workers: admitted requests stay queued until
    /// [`resume`](Self::resume). Tests use this to build up precise queue
    /// states before letting the workers run.
    pub fn pause(&self) {
        self.inner.queue.lock().unwrap().paused = true;
        self.inner.queue_cv.notify_all();
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        self.inner.queue.lock().unwrap().paused = false;
        self.inner.queue_cv.notify_all();
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().unwrap().deque.len()
    }

    /// A snapshot of every counter.
    pub fn stats(&self) -> ServeStats {
        let c = &self.inner.counters;
        let l = self.inner.contexts.lock().unwrap().counters();
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            repairs: c.repairs.load(Ordering::Relaxed),
            memo_hits: c.memo_hits.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            unservable: c.unservable.load(Ordering::Relaxed),
            rejected_deltas: c.rejected_deltas.load(Ordering::Relaxed),
            lru_warm_hits: l.warm_hits,
            lru_pool_hits: l.pool_hits,
            lru_misses: l.misses,
            lru_evictions: l.evictions,
            persist_hits: c.persist_hits.load(Ordering::Relaxed),
            persist_rejected: c.persist_rejected.load(Ordering::Relaxed),
            persist_entries: self.inner.store.as_ref().map_or(0, |s| s.len() as u64),
            persist_write_failures: c.persist_write_failures.load(Ordering::Relaxed),
            certifications: c.certifications.load(Ordering::Relaxed),
        }
    }

    /// The memoized plan for `instance_hash` under this server's config,
    /// if one is ready *and* already certified — a lookup that never
    /// queues, never waits on a leader, and never certifies, so a caller
    /// holding only the memo key can serve the cached artifact bytes.
    /// A hit counts as served and as a memo hit.
    pub fn certified_hit(&self, instance_hash: u64) -> Option<Arc<ServedPlan>> {
        let key = memo_key(instance_hash, self.inner.config_fp);
        let plan = self.inner.memo.peek(key)?;
        plan.certified()?;
        let c = &self.inner.counters;
        c.served.fetch_add(1, Ordering::Relaxed);
        c.memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// `plan`'s certified artifact for `instance` (the instance it was
    /// served for), built on first use and shared from then on.
    pub fn certify<'p>(&self, instance: &Instance, plan: &'p ServedPlan) -> &'p CertifiedPlan {
        self.inner.certify(instance, plan)
    }

    /// The current state of `instance`'s repair session, if one exists:
    /// the mutated synthesis plus the last plan it served. Repaired plans
    /// must be verified against *this* synthesis, not the original one —
    /// the session's instance evolves with every delta.
    pub fn repair_state(
        &self,
        instance: &Instance,
    ) -> Option<(Synthesis, Option<pathdriver_wash::WashResult>)> {
        let key = memo_key(instance.instance_hash, self.inner.config_fp);
        let session = self.inner.sessions.lock().unwrap().get(&key).cloned()?;
        let s = session.lock().unwrap();
        Some((
            s.synthesis().clone(),
            s.last().and_then(|o| o.served.clone()),
        ))
    }

    /// Stops admitting, drains the queue, and joins every worker. Every
    /// already-admitted ticket still completes. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.open = false;
            q.paused = false;
        }
        self.inner.queue_cv.notify_all();
        let handles: Vec<_> = self.handles.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(req) = inner.next_request() {
        // One panic isolation boundary per request: a crash (real or
        // injected) poisons neither the queue nor the worker.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| inner.process(&req)));
        let response = match outcome {
            Ok(response) => response,
            Err(payload) => {
                inner.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::WorkerPanic(panic_message(payload)))
            }
        };
        if response.is_ok() {
            inner.counters.served.fetch_add(1, Ordering::Relaxed);
        }
        let latency = inner.clock.now().saturating_sub(req.submitted_at);
        req.slot.complete(response, latency);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Inner {
    /// Blocks for the oldest queued request; `None` once the queue is
    /// closed and drained.
    fn next_request(&self) -> Option<QueuedRequest> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if !q.open && q.deque.is_empty() {
                return None;
            }
            if !q.paused {
                if let Some(req) = q.deque.pop_front() {
                    q.queued_cost -= req.cost;
                    return Some(req);
                }
            }
            q = self.queue_cv.wait(q).unwrap();
        }
    }

    fn process(&self, req: &QueuedRequest) -> Response {
        if let Some(hook) = &self.hook {
            hook(HookPoint::Dequeue, req.id);
        }
        let now = self.clock.now();
        if let Some(deadline) = req.deadline_at {
            if now >= deadline {
                self.counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExpired {
                    waited: now.saturating_sub(req.submitted_at),
                });
            }
        }
        match &req.request {
            ServeRequest::Solve { instance } => self.solve(req, instance),
            ServeRequest::Repair { instance, delta } => self.repair(req, instance, delta),
        }
    }

    fn solve(&self, req: &QueuedRequest, instance: &Arc<Instance>) -> Response {
        let t = Instant::now();
        let key = memo_key(instance.instance_hash, self.config_fp);
        let clock = &self.clock;
        let give_up = || req.deadline_at.is_some_and(|d| clock.now() >= d);
        let lead = match self.memo.claim(key, give_up) {
            MemoClaim::Hit(plan) => {
                self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Served {
                    plan,
                    memo_hit: true,
                    repaired: false,
                    degraded: false,
                    service_s: t.elapsed().as_secs_f64(),
                });
            }
            MemoClaim::Expired => {
                self.counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExpired {
                    waited: self.clock.now().saturating_sub(req.submitted_at),
                });
            }
            MemoClaim::Lead(lead) => lead,
        };
        // This request is the leader: it pays for the solve; everyone
        // queued behind the in-flight marker is served the result. A
        // panic from here on drops the guard, which un-claims the key.
        if let Some(hook) = &self.hook {
            hook(HookPoint::Solve, req.id);
        }
        // Persistent tier: a stored artifact is served only after its
        // certificate re-verifies against *this* requester's concrete
        // instance — a stale, corrupt, or mismatched artifact is rejected
        // and replaced by the fresh solve below.
        if let Some(store) = &self.store {
            if let Some(artifact) = store.get(key) {
                let verified = if artifact.config_fingerprint == self.config_fp {
                    artifact
                        .verify_hashed(instance.instance_hash, &instance.bench, &instance.synthesis)
                        .ok()
                } else {
                    None
                };
                if let Some(replay) = verified {
                    self.counters.persist_hits.fetch_add(1, Ordering::Relaxed);
                    // The stored artifact was just re-verified: it is the
                    // entry's certified artifact, shared with the store.
                    let plan = Arc::new(ServedPlan::new(
                        artifact.result.clone(),
                        artifact.rung,
                        replay,
                    ));
                    plan.certify_with(|| artifact);
                    // Promote into the in-memory memo: later requests hit
                    // without touching the store again.
                    lead.fulfill(Arc::clone(&plan));
                    return Ok(Served {
                        plan,
                        memo_hit: true,
                        repaired: false,
                        degraded: false,
                        service_s: t.elapsed().as_secs_f64(),
                    });
                }
                self.counters
                    .persist_rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let checkout = self
            .contexts
            .lock()
            .unwrap()
            .checkout(instance.chip_hash, instance.instance_hash);
        let parts = match checkout {
            ContextCheckout::Warm(parts) | ContextCheckout::PoolOnly(parts) => parts,
            ContextCheckout::Cold => ContextParts::default(),
        };
        // Map the remaining per-request budget onto the ladder's pipeline
        // budget (never loosening the config's own bound).
        let remaining = req.deadline_at.map(|d| d.saturating_sub(self.clock.now()));
        let configured = self.cfg.planner.pipeline_budget;
        let tightened = match (remaining, configured) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(r), Some(b)) => r < b,
        };
        let solve_cfg = PdwConfig {
            pipeline_budget: match (remaining, configured) {
                (None, b) => b,
                (Some(r), None) => Some(r),
                (Some(r), Some(b)) => Some(r.min(b)),
            },
            ..self.cfg.planner.clone()
        };
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        let mut ctx = PlanContext::from_parts(&instance.bench, &instance.synthesis, parts);
        let outcome = plan_resilient_ctx(&mut ctx, &solve_cfg);
        self.contexts.lock().unwrap().store(
            instance.chip_hash,
            instance.instance_hash,
            ctx.into_parts(),
        );
        match outcome.served {
            Some(result) => {
                let deadline_marked = result.pipeline.deadline_expired
                    || outcome
                        .attempts
                        .iter()
                        .any(|a| matches!(a.rejection, Some(RungRejection::DeadlineExpired)));
                // Only this request's own deadline makes a plan
                // "degraded"; a budget baked into the server config is
                // part of the memo key and memoizes normally.
                let degraded = tightened && deadline_marked;
                let rung = outcome.rung.expect("served implies a rung");
                let replay = outcome.replay.expect("served implies a replay");
                let plan = Arc::new(ServedPlan::new(result, rung, replay));
                if degraded {
                    lead.abandon();
                } else {
                    lead.fulfill(Arc::clone(&plan));
                    // Persisting mirrors memoization: degraded plans are
                    // served to their requester but never durable.
                    if let Some(store) = &self.store {
                        let artifact = Arc::clone(self.certify(instance, &plan).artifact());
                        if store.put(key, artifact).is_err() {
                            self.counters
                                .persist_write_failures
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(Served {
                    plan,
                    memo_hit: false,
                    repaired: false,
                    degraded,
                    service_s: t.elapsed().as_secs_f64(),
                })
            }
            None => {
                lead.abandon();
                self.counters.unservable.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Unservable(rejection_summary(&outcome)))
            }
        }
    }

    /// The plan's certified artifact, sealed from the gate replay the plan
    /// carries — certification runs no oracle of its own.
    fn certify<'p>(&self, instance: &Instance, plan: &'p ServedPlan) -> &'p CertifiedPlan {
        plan.certify_with(|| {
            self.counters.certifications.fetch_add(1, Ordering::Relaxed);
            Arc::new(PlanArtifact::sealed(
                instance.instance_hash,
                self.config_fp,
                plan.rung,
                &instance.synthesis.chip,
                plan.result.clone(),
                plan.replay(),
            ))
        })
    }

    fn repair(&self, req: &QueuedRequest, instance: &Arc<Instance>, delta: &PlanDelta) -> Response {
        let t = Instant::now();
        let key = memo_key(instance.instance_hash, self.config_fp);
        let session = {
            let mut sessions = self.sessions.lock().unwrap();
            Arc::clone(sessions.entry(key).or_insert_with(|| {
                Arc::new(Mutex::new(RepairSession::new(
                    instance.bench.clone(),
                    instance.synthesis.clone(),
                    self.cfg.planner.clone(),
                )))
            }))
        };
        let mut s = session.lock().unwrap();
        if s.last().is_none() {
            // First touch of this session: pay the initial plan so the
            // repair has a prior to freeze against.
            self.counters.solves.fetch_add(1, Ordering::Relaxed);
            let initial = s.plan();
            if !initial.is_served() {
                self.counters.unservable.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Unservable(rejection_summary(&initial)));
            }
        }
        self.counters.repairs.fetch_add(1, Ordering::Relaxed);
        let outcome = s.repair(delta);
        drop(s);
        let _ = req; // deadlines are only enforced at dequeue for repairs
        match outcome.served {
            Some(result) => Ok(Served {
                plan: Arc::new(ServedPlan::new(
                    result,
                    outcome.rung.expect("served implies a rung"),
                    outcome.replay.expect("served implies a replay"),
                )),
                memo_hit: false,
                repaired: true,
                degraded: false,
                service_s: t.elapsed().as_secs_f64(),
            }),
            None => {
                let malformed = outcome.attempts.len() == 1
                    && matches!(
                        &outcome.attempts[0].rejection,
                        Some(RungRejection::PlannerError(msg)) if msg.starts_with("rejected delta")
                    );
                let summary = rejection_summary(&outcome);
                if malformed {
                    self.counters
                        .rejected_deltas
                        .fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::RejectedDelta(summary))
                } else {
                    self.counters.unservable.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Unservable(summary))
                }
            }
        }
    }
}

fn rejection_summary(outcome: &PlanOutcome) -> String {
    outcome
        .attempts
        .iter()
        .map(|a| {
            let why = a
                .rejection
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "served".to_string());
            format!("{}: {why}", a.rung)
        })
        .collect::<Vec<_>>()
        .join("; ")
}
