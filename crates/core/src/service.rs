//! The sampling service: typed requests and responses over a **persistent**,
//! multi-tenant worker pool with one FIFO queue.
//!
//! The paper observes that witness generation is "embarrassingly parallel".
//! [`SamplerService`] is the workspace's one parallel batch engine, checked
//! against the serial reference [`crate::WitnessSampler::sample_batch`] and
//! shaped so the sampler can sit behind an RPC boundary:
//!
//! * **Persistent pool.** A [`WorkerPool`] spawns its workers once and
//!   serves any number of prepared samplers: [`WorkerPool::serve`] wraps a
//!   prototype in a cheap [`SamplerService`] handle, and every request
//!   carries its handle's prototype to the workers. Each worker keeps a
//!   private clone of the last prototype it ran and clones again only when
//!   an item of a different prototype arrives — the clone is cheap because
//!   the heavyweight immutable state (sampling set, hash family, enumerated
//!   witness lists) is [`Arc`]-shared inside the samplers, while the
//!   per-worker incremental solver is private. [`SamplerService::try_new`]
//!   spawns a pool of its own and serves one prototype on it.
//! * **One queue.** A request's sample indices are pushed, in order, onto
//!   one FIFO shared by every worker, and a worker that finishes an item
//!   pops the next one from the front. Per-sample cost is highly variable —
//!   a cell that needs `BSAT` retries is roughly an order of magnitude
//!   dearer than one accepted at the first width — but no item is ever
//!   bound to a worker, so an expensive run of indices spreads over every
//!   free worker by itself. One scheduler lock guards the queue: at
//!   per-sample granularity (milliseconds of solver work per item) it is
//!   nowhere near the critical path.
//! * **Typed messages, no admission control.** Work arrives as a
//!   [`SampleRequest`] and leaves as a [`SampleResponse`].
//!   [`SamplerService::submit`] admits every request at once and never
//!   blocks or refuses. A caller that takes requests from untrusted peers
//!   bounds them itself — the network daemon caps its requests in flight,
//!   which also caps the outcome boards the pool holds for them.
//! * **Abandoned requests cost nothing.** Dropping a [`ResponseHandle`]
//!   before its request completes abandons the request: items no worker has
//!   started yet complete as typed [`OutcomeKind::Interrupted`] outcomes
//!   without touching the solver, so a client that walks away does not keep
//!   the pool (or a pool shutdown) busy.
//! * **One timing point.** Samplers only count work; the pool stamps each
//!   outcome's scheduling fields of [`SampleStats`]: `wall_time` around the
//!   `sample` call (not around a cache-miss clone) and `queue_wait` from
//!   submission to execution start.
//!
//! # Determinism contract
//!
//! Sample `i` of a request seeded with `master_seed` draws **all** of its
//! randomness from the dedicated stream derived from `(master_seed, i)` —
//! the same rule as the serial reference
//! [`crate::WitnessSampler::sample_batch`] — and every sampler in this crate
//! picks its witness from a canonically ordered cell. The projected witness
//! at position `i` is therefore a pure function of the prepared state,
//! `master_seed` and `i`: it does not depend on the worker count, on which
//! worker ran the item, or on what other requests were interleaved through
//! the pool. A request's outcome sequence is **bit-identical** to
//! `sample_batch(count, master_seed)` on a clone of the prototype, per
//! request, at any worker count.
//!
//! Three scope notes. First, the guarantee as stated covers each witness's
//! *projection* onto the sampling set — the part of a model on which
//! distinctness, uniformity and the Theorem 1 envelope are defined. The
//! *completion* of the remaining variables is pinned down too whenever the
//! sampling set functionally determines them (the independent-support
//! setting the sampler is meant for, and true of every bundled circuit
//! benchmark); for a sampling set that genuinely under-determines the
//! formula, different worker counts may complete the non-sampling variables
//! differently, since the completion comes from a worker solver's heuristic
//! state.
//!
//! Second, per-`BSAT` budgets must never fire (the default unlimited
//! [`unigen_satsolver::Budget`] trivially satisfies this): a wall-clock or
//! conflict cutoff triggers depending on accumulated per-worker solver
//! state, which is exactly the state workers do not share. A budget that
//! does fire does not *silently* diverge, though — the affected samples
//! complete as typed [`OutcomeKind::Interrupted`] outcomes, so the
//! guarantee narrows to the successfully completed indices (and
//! deterministically injected faults absorbed by the recovery ladder keep
//! the sequence bit-identical; see [`crate::FaultPlan`]).
//!
//! Third, a [`SampleRequest::budget`] deadline, once expired, makes workers
//! complete the request's not-yet-started samples as typed
//! [`OutcomeKind::Interrupted`] outcomes when they reach them. *Which*
//! samples get cut depends on wall-clock timing, but every outcome that
//! does complete as a witness is still the deterministic witness for its
//! index — interruption narrows the guarantee to the completed samples
//! instead of voiding it. Requests whose budget never fires are unaffected.
//!
//! # Robustness
//!
//! A sampler panic does not take the pool down: the panic is caught, the
//! worker discards its clone and retries the same item on a fresh clone of
//! the item's prototype and on the same per-index RNG stream — so an
//! absorbed panic leaves the response bit-identical to an undisturbed run.
//! Each item is retried at most [`ServiceConfig::max_respawns`] times; then
//! it completes as [`OutcomeKind::Faulted`] and the worker goes on to the
//! next item. A prototype that always panics therefore faults its own
//! requests and no one else's, and the pool never loses a worker. A
//! request's outcome board is allocated before the scheduler lock is taken,
//! so a `count` too large to allocate panics in its caller and leaves the
//! shared scheduler usable. The [`ServiceHealth`] snapshot
//! ([`WorkerPool::health`]) reports respawns, panics, retries, and queue
//! depth; chaos schedules are injected with
//! [`crate::FaultPlan::panic_worker_at`].
//!
//! # Example
//!
//! ```
//! use unigen::{SampleRequest, SamplerService, ServiceConfig, UniGen, UniGenConfig};
//! use unigen_cnf::{CnfFormula, Lit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
//!
//! let sampler = UniGen::new(&f, UniGenConfig::default().with_epsilon(6.0))?;
//! let service = SamplerService::try_new(sampler, ServiceConfig::default().with_workers(2))?;
//!
//! // Streaming: outcomes arrive as index-ordered prefixes complete.
//! let handle = service.submit(SampleRequest::new(4, 0xdac2014));
//! for outcome in handle {
//!     assert!(outcome.witness.is_some());
//! }
//!
//! // Round trip: collect everything plus aggregate statistics.
//! let response = service.submit(SampleRequest::new(4, 0xdac2014)).wait();
//! assert_eq!(response.outcomes.len(), 4);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conc::atomic::{AtomicBool, AtomicU64, Ordering};
use conc::sync::{Condvar, Mutex, MutexGuard};
use conc::thread::JoinHandle;

use crate::error::ServiceConfigError;
use crate::fault::FaultPlan;
use crate::sampler::{
    failed_outcome, stream_for_index, OutcomeKind, SampleOutcome, SampleStats, WitnessSampler,
};

/// Shape of a [`WorkerPool`]'s worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads. Must be at least 1:
    /// [`WorkerPool::try_new`] rejects zero with
    /// [`ServiceConfigError::ZeroWorkers`]. Defaults to the machine's
    /// available parallelism.
    pub workers: usize,
    /// How many times one work item may be retried on a fresh clone of its
    /// prototype after a sampler panic before it completes as
    /// [`OutcomeKind::Faulted`] (see the module docs' *Robustness* section).
    pub max_respawns: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: conc::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            max_respawns: 2,
        }
    }
}

impl ServiceConfig {
    /// Returns a copy with an explicit worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns a copy with an explicit per-item respawn budget.
    pub fn with_max_respawns(mut self, max_respawns: usize) -> Self {
        self.max_respawns = max_respawns;
        self
    }

    /// Checks the configuration, returning the typed error
    /// [`WorkerPool::try_new`] propagates.
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.workers == 0 {
            return Err(ServiceConfigError::ZeroWorkers);
        }
        Ok(())
    }
}

/// One batch of work submitted to a [`SamplerService`].
///
/// A request is a pure value: re-submitting an identical request (same
/// `count` and `master_seed`, budget never firing) reproduces the identical
/// witness sequence, which is what makes retries over an RPC boundary
/// idempotent.
///
/// There is no per-request certify switch: certification is a property of
/// the *prepared sampler* ([`crate::UniGenConfig::certify`]), so a service
/// built from a certified prototype verifies proofs in every worker
/// independently (each clone forks the solver's proof stream together with
/// its checker). A cell whose proof fails to check comes back as a
/// [`crate::OutcomeKind::Faulted`] outcome in the response, and the
/// per-outcome [`crate::SampleStats`] carry the `proof_bytes` /
/// `cert_checks` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRequest {
    /// Number of witnesses requested.
    pub count: usize,
    /// Seed of the request's per-index RNG streams: sample `i` draws from
    /// the stream derived from `(master_seed, i)`.
    pub master_seed: u64,
    /// Optional soft wall-clock budget for the whole request, measured from
    /// submission. Expiry is observed **lazily, at item start**: when a
    /// worker picks up a work item past the deadline it completes it as a
    /// typed [`OutcomeKind::Interrupted`] outcome without touching the
    /// solver; items already running are finished normally. The budget
    /// therefore bounds the *solver work* spent on an expired request, not
    /// the response latency — a request stuck behind long-running items
    /// still waits for a worker to reach (and then instantly
    /// interrupt-complete) its items.
    ///
    /// Interruption is distinguishable, and therefore recoverable: *which*
    /// indices get cut depends on wall-clock timing, but an `Interrupted`
    /// outcome says nothing about its witness (unlike the definite
    /// [`OutcomeKind::Bottom`]), and every index that did complete holds
    /// exactly the witness the fault-free run would hold. Re-submitting the
    /// same request with a roomier budget fills in the cut indices with
    /// those same deterministic witnesses. `None`, the default, never fires.
    pub budget: Option<Duration>,
}

impl SampleRequest {
    /// A request for `count` witnesses seeded with `master_seed`, with no
    /// request budget.
    pub fn new(count: usize, master_seed: u64) -> Self {
        SampleRequest {
            count,
            master_seed,
            budget: None,
        }
    }

    /// Returns a copy of this request with a soft wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// The completed result of a [`SampleRequest`].
#[derive(Debug, Clone)]
pub struct SampleResponse {
    /// The request this response answers.
    pub request: SampleRequest,
    /// One outcome per requested sample, in index order — bit-identical (on
    /// the projected witnesses) to
    /// [`crate::WitnessSampler::sample_batch`]`(count, master_seed)` on a
    /// clone of the service's prototype, at any worker count.
    pub outcomes: Vec<SampleOutcome>,
    /// Every outcome's statistics folded together with
    /// [`SampleStats::accumulate`] — including the pool-stamped `wall_time`
    /// and `queue_wait`.
    pub aggregate_stats: SampleStats,
    /// Wall-clock time from submission to the last outcome's completion.
    pub round_trip: Duration,
}

impl SampleResponse {
    /// Number of outcomes that produced a witness.
    pub fn successes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_success()).count()
    }
}

/// A prepared sampler as the pool sees it: something a worker can fork its
/// private clone from, whatever the sampler family.
trait Prototype: Send + Sync {
    fn fork(&self) -> Box<dyn WitnessSampler>;
}

impl<S: WitnessSampler + Clone + Send + Sync + 'static> Prototype for S {
    fn fork(&self) -> Box<dyn WitnessSampler> {
        Box::new(self.clone())
    }
}

/// Per-request completion board: the index-ordered outcome slots plus the
/// bookkeeping the streaming iterator blocks on.
struct Board {
    slots: Vec<Option<SampleOutcome>>,
    completed: usize,
    finished_at: Option<Instant>,
}

/// Shared state of one in-flight request.
struct RequestState {
    request: SampleRequest,
    /// The prepared sampler every item of this request runs on.
    prototype: Arc<dyn Prototype>,
    submitted_at: Instant,
    deadline: Option<Instant>,
    /// Set when the request's [`ResponseHandle`] is dropped: nobody reads
    /// the outcomes any more, so unstarted items skip the solver. The flag
    /// publishes no other data (a worker that reads it late runs one more
    /// sample), so its accesses are `Relaxed`.
    abandoned: AtomicBool,
    board: Mutex<Board>,
    ready: Condvar,
}

/// One unit of schedulable work: sample `index` of `request`.
struct Item {
    request: Arc<RequestState>,
    index: usize,
}

/// The scheduler proper: the one FIFO of items plus the count of admitted
/// requests, behind one lock.
struct Sched {
    queue: VecDeque<Item>,
    in_flight: usize,
    shutdown: bool,
}

/// State shared between the pool's handles and its workers.
struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here for items; submitters notify.
    work_available: Condvar,
    /// Per-item respawn budget (see [`ServiceConfig::max_respawns`]).
    max_respawns: usize,
    /// The installed chaos schedule, if any: consulted per item for the
    /// worker-panic primitive and surfaced through [`ServiceHealth`].
    fault_plan: Option<Arc<FaultPlan>>,
    /// Lifetime count of caught sampler panics, pool-wide.
    worker_panics: AtomicU64,
    /// Lifetime count of sampler respawns from a prototype, pool-wide.
    respawns: AtomicU64,
    /// Lifetime count of item retries (each respawn retries its item once).
    item_retries: AtomicU64,
    /// Items executed per worker (index = worker id), lifetime.
    worker_items: Vec<AtomicU64>,
}

/// A point-in-time health snapshot of a [`WorkerPool`], taken with
/// [`WorkerPool::health`].
///
/// The lifetime counters are monotone; the queue fields describe the
/// instant of the snapshot. A healthy undisturbed pool reports zeros
/// everywhere but `configured_workers` once the queue drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceHealth {
    /// Worker threads the pool was configured with (and runs: a worker
    /// never leaves the pool).
    pub configured_workers: usize,
    /// Lifetime count of caught sampler panics.
    pub worker_panics: u64,
    /// Lifetime count of sampler respawns from a prototype.
    pub respawns: u64,
    /// Lifetime count of item-level retries (one per respawn).
    pub item_retries: u64,
    /// Faults injected so far by the installed [`FaultPlan`] (0 when none
    /// is installed).
    pub faults_injected: u64,
    /// Admitted-but-not-yet-completed requests at snapshot time.
    pub pending_requests: usize,
    /// Work items waiting in the queue at snapshot time.
    pub queued_items: usize,
}

/// Locks `mutex`. Poisoning means a panic inside one of the pool's short
/// critical sections (sampler panics are caught outside them), after which
/// the scheduler's bookkeeping cannot be trusted.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => panic!("a sampler service lock was poisoned"),
    }
}

/// Waits on `condvar`, with [`lock`]'s treatment of poisoning.
fn wait_on<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match condvar.wait(guard) {
        Ok(guard) => guard,
        Err(_) => panic!("a sampler service lock was poisoned"),
    }
}

/// A persistent pool of worker threads that samples for any number of
/// prepared prototypes, each reached through a [`SamplerService`] handle
/// from [`WorkerPool::serve`].
///
/// See the [module documentation](self) for the design and the determinism
/// contract. Clones share the pool. Dropping the last clone (including the
/// ones inside its services) completes every admitted request, then stops
/// and joins the workers; outstanding [`ResponseHandle`]s remain usable
/// after the drop.
#[derive(Clone)]
pub struct WorkerPool {
    threads: Arc<Threads>,
}

/// The pool's join handles; dropping it shuts the pool down. Workers hold
/// only [`Shared`], so they never keep their own pool alive.
struct Threads {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool, rejecting an invalid [`ServiceConfig`] with a typed
    /// [`ServiceConfigError`].
    pub fn try_new(config: ServiceConfig) -> Result<Self, ServiceConfigError> {
        Self::try_with_fault_plan(config, None)
    }

    /// [`WorkerPool::try_new`] with a chaos-testing [`FaultPlan`]
    /// installed: the plan's worker-panic primitive is consulted before
    /// every item, and its counters feed [`WorkerPool::health`]. The plan
    /// does **not** reach into the samplers here — install it on the
    /// prototype too ([`crate::UniGen::install_fault_plan`]) to fault the
    /// solver layer with the same schedule and counters.
    pub fn try_with_fault_plan(
        config: ServiceConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, ServiceConfigError> {
        config.validate()?;
        let workers = config.workers;
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            max_respawns: config.max_respawns,
            fault_plan,
            worker_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            item_retries: AtomicU64::new(0),
            worker_items: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                conc::thread::spawn(move || run_worker(shared, me))
            })
            .collect();
        Ok(WorkerPool {
            threads: Arc::new(Threads { shared, handles }),
        })
    }

    /// Serves `prototype` on this pool. The prototype is retained (behind
    /// an [`Arc`]) for as long as the returned handle or any of its
    /// requests lives; workers clone it on demand (see the module docs'
    /// *Persistent pool*).
    pub fn serve<S>(&self, prototype: S) -> SamplerService
    where
        S: WitnessSampler + Clone + Send + Sync + 'static,
    {
        SamplerService {
            pool: self.clone(),
            prototype: Arc::new(prototype),
        }
    }

    fn shared(&self) -> &Shared {
        &self.threads.shared
    }

    /// Returns the number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.handles.len()
    }

    /// Lifetime count of work items executed per worker (indexed by worker
    /// id). Under skewed per-sample cost the *item* counts are legitimately
    /// unbalanced — fast workers execute more items; that is the scheduler
    /// doing its job.
    pub fn worker_items(&self) -> Vec<u64> {
        self.shared()
            .worker_items
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Takes a point-in-time [`ServiceHealth`] snapshot: pool size,
    /// respawn/panic/retry counters, injected-fault count, and queue depth.
    pub fn health(&self) -> ServiceHealth {
        let shared = self.shared();
        let sched = lock(&shared.sched);
        ServiceHealth {
            configured_workers: self.workers(),
            worker_panics: shared.worker_panics.load(Ordering::Relaxed),
            respawns: shared.respawns.load(Ordering::Relaxed),
            item_retries: shared.item_retries.load(Ordering::Relaxed),
            faults_injected: shared
                .fault_plan
                .as_ref()
                .map(|plan| plan.faults_injected())
                .unwrap_or(0),
            pending_requests: sched.in_flight,
            queued_items: sched.queue.len(),
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        lock(&self.shared.sched).shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.handles.drain(..) {
            // When the pool is torn down by an unwinding thread (a failed
            // test assertion, or a model-checker abort), a second panic here
            // would escalate to a process abort and mask the original
            // failure; the join itself still happened either way.
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("a sampler service worker panicked");
            }
        }
    }
}

/// A long-lived sampling service: one prepared prototype served on a
/// [`WorkerPool`], answering typed [`SampleRequest`]s with index-ordered,
/// bit-deterministic [`SampleResponse`]s.
///
/// The handle itself is cheap — a pool reference plus the prototype's
/// [`Arc`] — and any number of services can share one pool (see
/// [`WorkerPool::serve`]). See the [module documentation](self) for the
/// design and the determinism contract.
pub struct SamplerService {
    pool: WorkerPool,
    prototype: Arc<dyn Prototype>,
}

impl std::fmt::Debug for SamplerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerService")
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

impl SamplerService {
    /// Spawns a pool of its own and serves `prototype` on it, rejecting an
    /// invalid [`ServiceConfig`] with a typed [`ServiceConfigError`].
    pub fn try_new<S>(prototype: S, config: ServiceConfig) -> Result<Self, ServiceConfigError>
    where
        S: WitnessSampler + Clone + Send + Sync + 'static,
    {
        Ok(WorkerPool::try_new(config)?.serve(prototype))
    }

    /// The pool this service runs on: worker count, scheduler counters and
    /// [`ServiceHealth`] are pool-wide.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Admits a request at once — the pool never blocks or refuses a
    /// submitter — and returns a streaming [`ResponseHandle`]. The request's
    /// indices join the back of the pool's one queue, in order.
    pub fn submit(&self, request: SampleRequest) -> ResponseHandle {
        // Allocate the board before taking the scheduler lock: a `count`
        // too large to allocate then panics here, in the caller, instead of
        // poisoning the scheduler every prototype on the pool shares.
        let slots = vec![None; request.count];
        let now = Instant::now();
        let state = Arc::new(RequestState {
            request,
            prototype: Arc::clone(&self.prototype),
            submitted_at: now,
            deadline: request.budget.map(|b| now + b),
            abandoned: AtomicBool::new(false),
            board: Mutex::new(Board {
                slots,
                completed: 0,
                finished_at: (request.count == 0).then_some(now),
            }),
            ready: Condvar::new(),
        });
        if request.count > 0 {
            // An empty request has nothing to schedule and is never pending.
            let shared = self.pool.shared();
            let mut sched = lock(&shared.sched);
            sched.in_flight += 1;
            sched.queue.extend((0..request.count).map(|index| Item {
                request: Arc::clone(&state),
                index,
            }));
            drop(sched);
            shared.work_available.notify_all();
        }
        ResponseHandle { state, cursor: 0 }
    }

    /// Drops this handle. The pool stops — after completing every admitted
    /// request — when its last handle goes, which for a service from
    /// [`SamplerService::try_new`] is this one; explicit at call sites that
    /// want the drain to be visible.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// A worker's one-slot clone cache: the prototype it last ran and its
/// private clone of it. Holding the prototype's [`Arc`] keeps its address
/// from being reused, so [`Arc::ptr_eq`] identifies it exactly.
type CachedClone = Option<(Arc<dyn Prototype>, Box<dyn WitnessSampler>)>;

/// The worker loop: pop the front of the queue, or sleep until work arrives
/// (or exit once shutdown is flagged and the queue is dry — so a dropped
/// pool always drains the requests it admitted).
fn run_worker(shared: Arc<Shared>, me: usize) {
    let mut cached: CachedClone = None;
    loop {
        let mut sched = lock(&shared.sched);
        let item = loop {
            if let Some(item) = sched.queue.pop_front() {
                break item;
            }
            if sched.shutdown {
                return;
            }
            sched = wait_on(&shared.work_available, sched);
        };
        drop(sched);

        shared.worker_items[me].fetch_add(1, Ordering::Relaxed);
        let outcome = execute(&mut cached, &shared, &item, me);
        post_outcome(&shared, &item, outcome);
    }
}

/// Runs one work item on this worker's clone of the item's prototype,
/// cloning it first on a cache miss. A panicking sampler (or clone) is
/// caught and the item retried on a fresh clone — the retry re-derives the
/// same per-index RNG stream, so an absorbed panic leaves the outcome
/// bit-identical to an undisturbed run — at most `max_respawns` times,
/// after which the item completes as `Faulted`.
fn execute(cached: &mut CachedClone, shared: &Shared, item: &Item, me: usize) -> SampleOutcome {
    let state = &item.request;
    let mut retries = 0usize;
    loop {
        let started = Instant::now();
        let scheduling = SampleStats {
            queue_wait: started.duration_since(state.submitted_at),
            retries,
            ..SampleStats::default()
        };
        if state.abandoned.load(Ordering::Relaxed)
            || state.deadline.is_some_and(|deadline| started >= deadline)
        {
            // Nobody reads this request any more, or its budget expired
            // while this item was queued: complete the item as a typed
            // interruption without touching the solver (see
            // `SampleRequest::budget` for the recoverability semantics).
            return SampleOutcome::interrupted(scheduling);
        }
        // A panicked clone is discarded below, so unwind-safety is moot.
        let plan = shared.fault_plan.as_deref();
        let run = std::panic::AssertUnwindSafe(|| {
            if plan.is_some_and(|plan| plan.should_panic_worker(me, item.index)) {
                panic!("injected worker panic (worker {me}, item {})", item.index);
            }
            let sampler = match &mut *cached {
                Some((prototype, sampler)) if Arc::ptr_eq(prototype, &state.prototype) => sampler,
                slot => {
                    &mut slot
                        .insert((Arc::clone(&state.prototype), state.prototype.fork()))
                        .1
                }
            };
            let mut rng = stream_for_index(state.request.master_seed, item.index);
            // The one timing point of a sample: around `sample` only, so a
            // cache-miss clone is not charged to the sample.
            let sampling = Instant::now();
            let mut outcome = sampler.sample(&mut rng);
            outcome.stats.wall_time = sampling.elapsed();
            outcome
        });
        match std::panic::catch_unwind(run) {
            Ok(mut outcome) => {
                outcome.stats.queue_wait = scheduling.queue_wait;
                outcome.stats.retries += retries;
                return outcome;
            }
            Err(_payload) => {
                *cached = None;
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                if retries == shared.max_respawns {
                    return failed_outcome(OutcomeKind::Faulted, scheduling);
                }
                retries += 1;
                shared.respawns.fetch_add(1, Ordering::Relaxed);
                shared.item_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Posts one outcome to its request's board and, on the last one, takes the
/// request off the pending count.
fn post_outcome(shared: &Shared, item: &Item, outcome: SampleOutcome) {
    let state = &item.request;
    let mut board = lock(&state.board);
    debug_assert!(board.slots[item.index].is_none(), "index scheduled twice");
    board.slots[item.index] = Some(outcome);
    board.completed += 1;
    if board.completed == state.request.count {
        board.finished_at = Some(Instant::now());
        // Decrement the pending count while the board lock is still held,
        // so a caller returning from `wait` never sees its own request as
        // pending in `health()`. The board → sched nesting here is the only
        // place the two locks nest, so the ordering is globally consistent.
        lock(&shared.sched).in_flight -= 1;
    }
    state.ready.notify_all();
}

/// A streaming handle to one in-flight request.
///
/// The handle is a blocking iterator over the request's outcomes **in index
/// order**: `next` returns outcome `i` as soon as the completed prefix
/// reaches it. Streaming changes *when* the caller sees each outcome, never
/// *what* the outcome is — the sequence streamed out is the same
/// bit-identical (on projected witnesses) sequence
/// [`SampleResponse::outcomes`] would hold, prefix by prefix, so a consumer
/// that stops early has consumed exactly a prefix of the deterministic
/// reference sequence. [`ResponseHandle::wait`] collects the whole response
/// at once (including any outcomes already streamed).
///
/// The handle owns its slice of the request state, prototype included: it
/// keeps working after its service and pool are dropped (a dropped pool
/// drains admitted requests first). Dropping the handle before the request
/// completes abandons it: items no worker has started yet complete as
/// [`OutcomeKind::Interrupted`] without running the sampler.
#[derive(Debug)]
#[must_use = "dropping the handle abandons the request and discards its outcomes"]
pub struct ResponseHandle {
    state: Arc<RequestState>,
    cursor: usize,
}

impl std::fmt::Debug for RequestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestState")
            .field("request", &self.request)
            .finish()
    }
}

impl ResponseHandle {
    /// The request this handle answers.
    pub fn request(&self) -> SampleRequest {
        self.state.request
    }

    /// Blocks until the whole request has completed and returns the full
    /// [`SampleResponse`] — including outcomes that were already streamed
    /// through the iterator.
    pub fn wait(self) -> SampleResponse {
        let mut board = lock(&self.state.board);
        let finished_at = loop {
            if let Some(finished_at) = board.finished_at {
                break finished_at;
            }
            board = wait_on(&self.state.ready, board);
        };
        // Take, don't clone: `wait` consumes the only handle and every
        // worker is done with a finished board, so the slots can be moved
        // out without doubling peak memory on large responses.
        let outcomes: Vec<SampleOutcome> = board.slots.drain(..).flatten().collect();
        drop(board);
        debug_assert_eq!(outcomes.len(), self.state.request.count);
        let mut aggregate_stats = SampleStats::default();
        for outcome in &outcomes {
            aggregate_stats.accumulate(&outcome.stats);
        }
        SampleResponse {
            request: self.state.request,
            outcomes,
            aggregate_stats,
            round_trip: finished_at.duration_since(self.state.submitted_at),
        }
    }
}

impl Drop for ResponseHandle {
    /// Abandons the request. A no-op for a request that already completed.
    fn drop(&mut self) {
        self.state.abandoned.store(true, Ordering::Relaxed);
    }
}

impl Iterator for ResponseHandle {
    type Item = SampleOutcome;

    /// Blocks until outcome `cursor` completes, then returns it; `None` once
    /// the request is exhausted.
    fn next(&mut self) -> Option<SampleOutcome> {
        if self.cursor >= self.state.request.count {
            return None;
        }
        let mut board = lock(&self.state.board);
        loop {
            if let Some(outcome) = &board.slots[self.cursor] {
                self.cursor += 1;
                return Some(outcome.clone());
            }
            board = wait_on(&self.state.ready, board);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    use rand::RngCore;
    use unigen_cnf::{CnfFormula, Lit, Var, XorClause};

    use crate::config::UniGenConfig;
    use crate::unigen::UniGen;

    fn formula_with_count(bits: usize, extra: usize) -> CnfFormula {
        let mut f = CnfFormula::new(bits + extra);
        for i in 0..extra {
            f.add_xor_clause(XorClause::new(
                [Var::new(i % bits), Var::new(bits + i)],
                false,
            ))
            .unwrap();
        }
        f.set_sampling_set((0..bits).map(Var::new)).unwrap();
        f
    }

    fn witnesses_of(outcomes: &[SampleOutcome]) -> Vec<Option<Vec<bool>>> {
        outcomes
            .iter()
            .map(|o| o.witness.as_ref().map(|w| w.values().to_vec()))
            .collect()
    }

    #[test]
    fn service_reproduces_sample_batch_at_any_worker_count() {
        use crate::WitnessSampler;
        let f = formula_with_count(10, 3);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(12, 0xabc);
        for workers in [1usize, 2, 3, 5, 8] {
            let service = SamplerService::try_new(
                prepared.clone(),
                ServiceConfig::default().with_workers(workers),
            )
            .unwrap();
            let response = service.submit(SampleRequest::new(12, 0xabc)).wait();
            assert_eq!(
                witnesses_of(&response.outcomes),
                witnesses_of(&serial),
                "workers = {workers} diverged from the serial reference"
            );
            assert_eq!(response.request.count, 12);
        }
    }

    #[test]
    fn empty_request_completes_immediately_without_a_queue_slot() {
        let f = formula_with_count(3, 0);
        let service = SamplerService::try_new(
            UniGen::new(&f, UniGenConfig::default()).unwrap(),
            ServiceConfig::default().with_workers(2),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(0, 1)).wait();
        assert!(response.outcomes.is_empty());
        assert_eq!(service.pool().health().pending_requests, 0);
    }

    #[test]
    fn iterator_streams_the_index_ordered_prefix() {
        use crate::WitnessSampler;
        let f = formula_with_count(8, 2);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(9, 7);
        let service =
            SamplerService::try_new(prepared, ServiceConfig::default().with_workers(3)).unwrap();
        let streamed: Vec<SampleOutcome> = service.submit(SampleRequest::new(9, 7)).collect();
        assert_eq!(witnesses_of(&streamed), witnesses_of(&serial));
    }

    #[test]
    fn aggregate_stats_accumulates_every_outcome() {
        let f = formula_with_count(9, 1);
        let service = SamplerService::try_new(
            UniGen::new(&f, UniGenConfig::default()).unwrap(),
            ServiceConfig::default().with_workers(2),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(6, 3)).wait();
        let mut expected = SampleStats::default();
        for outcome in &response.outcomes {
            expected.accumulate(&outcome.stats);
        }
        assert_eq!(response.aggregate_stats, expected);
        assert!(response.aggregate_stats.bsat_calls >= 1);
        assert!(response.round_trip >= response.outcomes[0].stats.queue_wait);
    }

    /// A sampler that sleeps in `sample` and reads no clock of its own.
    #[derive(Clone)]
    struct Sleepy(Duration);

    impl WitnessSampler for Sleepy {
        fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
            std::thread::sleep(self.0);
            SampleOutcome::bottom(SampleStats::default())
        }
        fn name(&self) -> &'static str {
            "Sleepy"
        }
    }

    /// The pool is the one place a sample is timed: its outcomes carry at
    /// least the time spent in `sample`, while a bare serial batch of the
    /// same sampler reports no time at all.
    #[test]
    fn the_pool_stamps_wall_time_and_serial_sampling_leaves_it_zero() {
        use crate::WitnessSampler;
        let nap = Duration::from_millis(2);
        let service =
            SamplerService::try_new(Sleepy(nap), ServiceConfig::default().with_workers(2)).unwrap();
        let response = service.submit(SampleRequest::new(4, 1)).wait();
        assert!(
            response.outcomes.iter().all(|o| o.stats.wall_time >= nap),
            "{:?}",
            response.outcomes
        );
        assert!(response.aggregate_stats.wall_time >= 4 * nap);
        assert!(Sleepy(nap)
            .sample_batch(4, 1)
            .iter()
            .all(|o| o.stats.wall_time.is_zero()));
    }

    #[test]
    fn expired_request_budget_yields_typed_interrupted_outcomes() {
        let f = formula_with_count(9, 1);
        let service = SamplerService::try_new(
            UniGen::new(&f, UniGenConfig::default()).unwrap(),
            ServiceConfig::default().with_workers(2),
        )
        .unwrap();
        // A zero budget is already expired when the first item starts: every
        // outcome is a typed interruption, distinguishable from a genuine ⊥.
        let response = service
            .submit(SampleRequest::new(5, 3).with_budget(Duration::ZERO))
            .wait();
        assert_eq!(response.outcomes.len(), 5);
        assert!(response
            .outcomes
            .iter()
            .all(|o| !o.is_success() && o.kind == OutcomeKind::Interrupted));
        assert_eq!(response.aggregate_stats.bsat_calls, 0);
    }

    /// A synthetic sampler whose per-index cost is adversarially skewed: the
    /// RNG streams listed in `expensive` (in the test, the whole first
    /// static chunk of the batch) burn a spin-loop, everything else is free.
    /// Each worker clone registers a counter of the expensive items it ran,
    /// so the test can assert the skew was spread across workers.
    struct SkewedSampler {
        expensive: Arc<HashSet<u64>>,
        spin: Duration,
        ran_expensive: Arc<AtomicUsize>,
        registry: Arc<Mutex<Vec<Arc<AtomicUsize>>>>,
    }

    impl SkewedSampler {
        fn new(expensive: HashSet<u64>, spin: Duration) -> Self {
            SkewedSampler {
                expensive: Arc::new(expensive),
                spin,
                ran_expensive: Arc::new(AtomicUsize::new(0)),
                registry: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Clone for SkewedSampler {
        fn clone(&self) -> Self {
            let counter = Arc::new(AtomicUsize::new(0));
            self.registry.lock().unwrap().push(Arc::clone(&counter));
            SkewedSampler {
                expensive: Arc::clone(&self.expensive),
                spin: self.spin,
                ran_expensive: counter,
                registry: Arc::clone(&self.registry),
            }
        }
    }

    impl WitnessSampler for SkewedSampler {
        fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
            if self.expensive.contains(&rng.next_u64()) {
                self.ran_expensive.fetch_add(1, Ordering::Relaxed);
                let end = Instant::now() + self.spin;
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
            }
            SampleOutcome::bottom(SampleStats::default())
        }

        fn name(&self) -> &'static str {
            "Skewed"
        }
    }

    /// One-queue fairness: with every expensive sample at the front of the
    /// batch, the workers must share the skew instead of letting one of
    /// them serialise it (which is what a static partition into contiguous
    /// per-worker chunks did). (The name predates the one-queue pool, whose
    /// workers all pop the same FIFO; there is no stealing left.)
    #[test]
    fn stealing_spreads_an_adversarially_skewed_chunk() {
        const COUNT: usize = 64;
        const EXPENSIVE: usize = 16;
        const WORKERS: usize = 4;
        let seed = 0x5eed;
        // With 4 workers and 64 samples a static partition's first chunk is
        // indices 0..16 — make exactly those expensive. The sampler only
        // sees the RNG stream, so identify an index by its stream's first
        // draw (streams are disjoint by the SplitMix64 mix).
        let expensive: HashSet<u64> = (0..EXPENSIVE)
            .map(|i| stream_for_index(seed, i).next_u64())
            .collect();
        assert_eq!(
            expensive.len(),
            EXPENSIVE,
            "stream collision in the test setup"
        );
        let prototype = SkewedSampler::new(expensive, Duration::from_millis(3));
        let registry = Arc::clone(&prototype.registry);

        let service =
            SamplerService::try_new(prototype, ServiceConfig::default().with_workers(WORKERS))
                .unwrap();
        let response = service.submit(SampleRequest::new(COUNT, seed)).wait();
        assert_eq!(response.outcomes.len(), COUNT);
        let pool = service.pool();
        assert_eq!(pool.worker_items().iter().sum::<u64>(), COUNT as u64);

        // Fairness: no single worker ran the lion's share of the expensive
        // prefix (static chunking pins all 16 to worker 0).
        let per_worker: Vec<usize> = registry
            .lock()
            .unwrap()
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert_eq!(per_worker.len(), WORKERS);
        assert_eq!(per_worker.iter().sum::<usize>(), EXPENSIVE);
        let max = per_worker.iter().copied().max().unwrap();
        assert!(
            max <= EXPENSIVE - 4,
            "expensive items stayed serialised on one worker: {per_worker:?}"
        );
    }

    /// A sampler whose every `sample` call panics.
    #[derive(Clone)]
    struct Panicky;

    impl WitnessSampler for Panicky {
        fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
            panic!("sampler exploded");
        }
        fn name(&self) -> &'static str {
            "Panicky"
        }
    }

    #[test]
    fn panicking_sampler_never_strands_clients_and_shutdown_does_not_hang() {
        let service = SamplerService::try_new(
            Panicky,
            ServiceConfig::default()
                .with_workers(1)
                .with_max_respawns(1),
        )
        .unwrap();
        // Each item panics, is retried once on a fresh clone, panics again
        // and completes as Faulted; the worker stays in the pool and moves
        // on to the next item. wait() must return, not hang.
        let response = service.submit(SampleRequest::new(3, 1)).wait();
        assert_eq!(response.outcomes.len(), 3);
        assert!(response
            .outcomes
            .iter()
            .all(|o| o.kind == OutcomeKind::Faulted && o.stats.retries == 1));
        // The request left the pending count, and a later request gets the same
        // per-item treatment from the same, still-whole pool.
        assert_eq!(service.pool().health().pending_requests, 0);
        let response = service.submit(SampleRequest::new(2, 9)).wait();
        assert_eq!(response.outcomes.len(), 2);
        assert!(response
            .outcomes
            .iter()
            .all(|o| !o.is_success() && o.kind == OutcomeKind::Faulted));
        // The health snapshot records the carnage: two panics per item.
        let health = service.pool().health();
        assert_eq!(health.configured_workers, 1);
        assert_eq!(health.worker_panics, 10);
        assert_eq!(health.respawns, 5);
        let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            service.shutdown();
        }));
        assert!(
            teardown.is_ok(),
            "shutdown after faulted items must not panic or hang"
        );
    }

    /// An always-panicking prototype faults only its own items: a healthy
    /// prototype sharing the pool keeps streaming bit-identical batches.
    #[test]
    fn panicking_prototype_does_not_starve_a_healthy_one_on_the_same_pool() {
        use crate::WitnessSampler;
        let f = formula_with_count(9, 2);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(8, 21);
        let pool = WorkerPool::try_new(
            ServiceConfig::default()
                .with_workers(2)
                .with_max_respawns(1),
        )
        .unwrap();
        let doomed = pool.serve(Panicky);
        let healthy = pool.serve(prepared);
        for round in 0..3 {
            let faulted = doomed.submit(SampleRequest::new(4, round));
            let streamed: Vec<SampleOutcome> = healthy.submit(SampleRequest::new(8, 21)).collect();
            assert_eq!(witnesses_of(&streamed), witnesses_of(&serial));
            assert!(faulted
                .wait()
                .outcomes
                .iter()
                .all(|o| o.kind == OutcomeKind::Faulted));
        }
        assert_eq!(pool.health().configured_workers, 2);
        assert_eq!(pool.health().worker_panics, 3 * 4 * 2);
    }

    /// Two prototypes of different formulas, submitted interleaved through
    /// one pool: each request reproduces its own prototype's serial batch,
    /// whatever its workers ran (and cached) before.
    #[test]
    fn two_prototypes_interleaved_on_one_pool_reproduce_their_serial_batches() {
        use crate::WitnessSampler;
        let a = UniGen::new(&formula_with_count(9, 2), UniGenConfig::default()).unwrap();
        let b = UniGen::new(&formula_with_count(7, 3), UniGenConfig::default()).unwrap();
        let serial_a = a.clone().sample_batch(7, 5);
        let serial_b = b.clone().sample_batch(6, 5);
        let pool = WorkerPool::try_new(ServiceConfig::default().with_workers(3)).unwrap();
        let (service_a, service_b) = (pool.serve(a), pool.serve(b));
        let handles: Vec<(ResponseHandle, &Vec<SampleOutcome>)> = (0..3)
            .flat_map(|_| {
                [
                    (service_a.submit(SampleRequest::new(7, 5)), &serial_a),
                    (service_b.submit(SampleRequest::new(6, 5)), &serial_b),
                ]
            })
            .collect();
        for (handle, serial) in handles {
            assert_eq!(witnesses_of(&handle.wait().outcomes), witnesses_of(serial));
        }
    }

    /// Two *certified* prototypes alternating on a one-worker pool: the
    /// worker runs the requests in submission order, so each request after
    /// the first re-clones its prototype (solver, proof stream and checker)
    /// on a cache miss. Every cell must still check, and each stream must
    /// equal its serial batch.
    #[test]
    fn certified_prototypes_recloned_on_every_switch_keep_checking_their_proofs() {
        use crate::{PreparedMode, WitnessSampler};
        let config = UniGenConfig::default().with_certify(true);
        let a = UniGen::new(&formula_with_count(9, 2), config.clone()).unwrap();
        let b = UniGen::new(&formula_with_count(8, 3), config).unwrap();
        for prototype in [&a, &b] {
            assert!(matches!(
                prototype.prepared_mode(),
                PreparedMode::Hashed { .. }
            ));
        }
        let serial_a = a.clone().sample_batch(4, 17);
        let serial_b = b.clone().sample_batch(3, 17);
        let pool = WorkerPool::try_new(ServiceConfig::default().with_workers(1)).unwrap();
        let (service_a, service_b) = (pool.serve(a), pool.serve(b));
        let handles: Vec<(ResponseHandle, &Vec<SampleOutcome>)> = (0..3)
            .flat_map(|_| {
                [
                    (service_a.submit(SampleRequest::new(4, 17)), &serial_a),
                    (service_b.submit(SampleRequest::new(3, 17)), &serial_b),
                ]
            })
            .collect();
        for (handle, serial) in handles {
            let outcomes = handle.wait().outcomes;
            assert!(outcomes.iter().all(|o| o.kind != OutcomeKind::Faulted));
            assert!(outcomes.iter().all(|o| o.stats.cert_checks > 0));
            assert_eq!(witnesses_of(&outcomes), witnesses_of(serial));
        }
    }

    /// Regression: a `count` too large to allocate panics in the caller
    /// before the scheduler lock is taken, so the pool keeps answering
    /// (it used to poison the scheduler and fail every later call).
    #[test]
    fn oversized_count_panics_only_its_caller() {
        let f = formula_with_count(6, 1);
        let service = SamplerService::try_new(
            UniGen::new(&f, UniGenConfig::default()).unwrap(),
            ServiceConfig::default().with_workers(2),
        )
        .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(service.submit(SampleRequest::new(usize::MAX, 1)))
        }));
        assert!(caught.is_err(), "an unallocatable board must panic");
        let response = service.submit(SampleRequest::new(3, 2)).wait();
        assert_eq!(response.outcomes.len(), 3);
        assert_eq!(service.pool().health().pending_requests, 0);
    }

    #[test]
    fn zero_workers_is_rejected_with_a_typed_error() {
        let f = formula_with_count(3, 0);
        let sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let err =
            SamplerService::try_new(sampler.clone(), ServiceConfig::default().with_workers(0))
                .expect_err("zero workers must be rejected");
        assert_eq!(err, ServiceConfigError::ZeroWorkers);
        // One worker is the smallest valid pool.
        let service = SamplerService::try_new(sampler, ServiceConfig::default().with_workers(1))
            .expect("one worker is valid");
        assert_eq!(service.pool().health().configured_workers, 1);
    }

    #[test]
    fn injected_worker_panic_respawns_and_reproduces_the_batch() {
        use crate::WitnessSampler;
        let f = formula_with_count(10, 3);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(8, 0xfee1);
        // Worker 0 is scheduled to panic exactly once, on item 3. A single
        // worker keeps the schedule deterministic: with more workers another
        // worker could pop the item, and the panic would never fire.
        let plan = Arc::new(FaultPlan::seeded(0x9).panic_worker_at(0, 3));
        let service = WorkerPool::try_with_fault_plan(
            ServiceConfig::default().with_workers(1),
            Some(Arc::clone(&plan)),
        )
        .unwrap()
        .serve(prepared);
        let response = service.submit(SampleRequest::new(8, 0xfee1)).wait();
        // The respawned sampler re-derived item 3's stream, so the batch is
        // bit-identical to the undisturbed serial reference.
        assert_eq!(witnesses_of(&response.outcomes), witnesses_of(&serial));
        let health = service.pool().health();
        assert_eq!(health.worker_panics, 1);
        assert_eq!(health.respawns, 1);
        assert_eq!(health.item_retries, 1);
        assert_eq!(health.faults_injected, 1);
        assert_eq!(plan.faults_injected(), 1);
        // The retried item carries its retry count in the per-sample stats.
        assert_eq!(response.aggregate_stats.retries, 1);
    }

    #[test]
    fn one_fault_plan_reaches_the_sampler_and_the_service() {
        // Wide enough (~2^10 · 0.75 witnesses) that UniGen prepares in
        // hashed mode and actually issues BSAT calls the plan can fail.
        let mut f = CnfFormula::new(10);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let plan = Arc::new(FaultPlan::seeded(7).fail_nth_bsat(1));
        let mut prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        prepared.install_fault_plan(Arc::clone(&plan));
        let service = WorkerPool::try_with_fault_plan(
            ServiceConfig::default().with_workers(1),
            Some(Arc::clone(&plan)),
        )
        .unwrap()
        .serve(prepared);
        let response = service.submit(SampleRequest::new(4, 3)).wait();
        assert_eq!(response.outcomes.len(), 4);
        // The solver-level fault fired and was absorbed by the recovery
        // ladder; the service health surfaces it because both layers share
        // the one plan.
        assert_eq!(plan.faults_injected(), 1);
        assert_eq!(service.pool().health().faults_injected, 1);
        assert!(response.aggregate_stats.retries >= 1);
    }

    #[test]
    fn handle_survives_service_drop() {
        use crate::WitnessSampler;
        let f = formula_with_count(6, 1);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(6, 11);
        let service =
            SamplerService::try_new(prepared, ServiceConfig::default().with_workers(2)).unwrap();
        let handle = service.submit(SampleRequest::new(6, 11));
        // Dropping the service drains the admitted request before joining.
        service.shutdown();
        let response = handle.wait();
        assert_eq!(witnesses_of(&response.outcomes), witnesses_of(&serial));
    }

    #[test]
    fn concurrent_interleaved_requests_stay_per_request_deterministic() {
        use crate::WitnessSampler;
        let f = formula_with_count(9, 2);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial_a = prepared.clone().sample_batch(7, 100);
        let serial_b = prepared.clone().sample_batch(5, 200);
        let serial_c = prepared.clone().sample_batch(9, 300);
        let service =
            SamplerService::try_new(prepared, ServiceConfig::default().with_workers(3)).unwrap();
        // Submit everything before collecting anything: the three requests
        // interleave arbitrarily across the pool.
        let ha = service.submit(SampleRequest::new(7, 100));
        let hb = service.submit(SampleRequest::new(5, 200));
        let hc = service.submit(SampleRequest::new(9, 300));
        assert_eq!(witnesses_of(&hc.wait().outcomes), witnesses_of(&serial_c));
        assert_eq!(witnesses_of(&ha.wait().outcomes), witnesses_of(&serial_a));
        assert_eq!(witnesses_of(&hb.wait().outcomes), witnesses_of(&serial_b));
    }
}
