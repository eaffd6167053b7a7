//! The sampling service: typed requests and responses over a **persistent**
//! work-stealing worker pool.
//!
//! The paper observes that witness generation is "embarrassingly parallel".
//! [`SamplerService`] is the workspace's one parallel batch engine, checked
//! against the serial reference [`crate::WitnessSampler::sample_batch`] and
//! shaped so the sampler can sit behind an RPC boundary:
//!
//! * **Persistent pool.** A [`SamplerService`] spawns its workers once, at
//!   construction, and each worker clones the prepared sampler exactly once
//!   — the clone is cheap because the heavyweight immutable state (sampling
//!   set, hash family, enumerated witness lists) is [`Arc`]-shared inside
//!   the samplers, while the per-worker incremental solver is private.
//!   Requests then flow through the same pool for the service's whole
//!   lifetime; nothing is re-cloned or re-spawned per batch.
//! * **Work stealing.** Each request's sample indices are dealt into
//!   per-worker deques in contiguous chunks, but an idle worker *steals*
//!   from the back of the busiest other deque instead of going to sleep.
//!   Per-sample cost is highly variable — a cell that needs `BSAT` retries
//!   is roughly an order of magnitude dearer than one accepted at the first
//!   width — and without stealing one unlucky chunk serialises the whole
//!   batch; stealing absorbs the skew. (The deques are arbitrated by one scheduler lock
//!   rather than a lock-free Chase–Lev deque: the workspace is dependency
//!   free, and at per-sample granularity — milliseconds of solver work per
//!   item — the lock is nowhere near the critical path.)
//! * **Typed messages and backpressure.** Work arrives as a
//!   [`SampleRequest`] and leaves as a [`SampleResponse`]; the number of
//!   in-flight requests is bounded by [`ServiceConfig::queue_capacity`],
//!   with a blocking [`SamplerService::submit`] and a non-blocking
//!   [`SamplerService::try_submit`] that hands a rejected request back to
//!   the caller for a free idempotent retry.
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
//! worker ran the item, on whether the item was stolen, or on what other
//! requests were interleaved through the pool. A request's outcome sequence
//! is **bit-identical** to `sample_batch(count, master_seed)` on a clone of
//! the prototype, per request, at any worker count.
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
//! A worker whose sampler panics does not take the pool down: the panic is
//! caught, the worker **respawns** its sampler from the retained prototype
//! (bounded by [`ServiceConfig::max_respawns`] per worker) and retries the
//! same item on the same per-index RNG stream — so an absorbed panic leaves
//! the response bit-identical to an undisturbed run. A worker that exhausts
//! its respawn budget completes its item as [`OutcomeKind::Faulted`] and
//! leaves the pool cleanly; if the *last* worker leaves, queued and future
//! items complete as `Faulted` immediately, so no handle, submitter, or
//! [`SamplerService::shutdown`] call ever hangs on a dead pool. The
//! [`ServiceHealth`] snapshot ([`SamplerService::health`]) reports alive
//! workers, respawns, panics, retries, and queue depth; chaos schedules are
//! injected with [`crate::FaultPlan::panic_worker_at`].
//!
//! # Example
//!
//! ```
//! use unigen::{SamplerBuilder, SamplerService, SampleRequest, ServiceConfig};
//! use unigen_cnf::{CnfFormula, Lit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
//!
//! let service = SamplerBuilder::unigen(&f)
//!     .epsilon(6.0)
//!     .into_service(ServiceConfig::default().with_workers(2))?;
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

use crate::error::{ServiceConfigError, TrySubmitError};
use crate::fault::FaultPlan;
use crate::sampler::{
    failed_outcome, stream_for_index, OutcomeKind, SampleOutcome, SampleStats, WitnessSampler,
};

/// Shape of a [`SamplerService`]'s worker pool and request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads. Must be at least 1:
    /// [`SamplerService::try_new`] rejects zero with
    /// [`ServiceConfigError::ZeroWorkers`]. Defaults to the machine's
    /// available parallelism.
    pub workers: usize,
    /// Maximum number of admitted-but-not-yet-completed requests (clamped to
    /// at least 1). [`SamplerService::submit`] blocks while the queue is at
    /// capacity; [`SamplerService::try_submit`] returns the request back.
    pub queue_capacity: usize,
    /// How many times each worker may replace a panicked sampler with a
    /// fresh clone of the prototype before giving up and leaving the pool
    /// (see the module docs' *Robustness* section).
    pub max_respawns: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: conc::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 16,
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

    /// Returns a copy with an explicit request-queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Returns a copy with an explicit per-worker respawn budget.
    pub fn with_max_respawns(mut self, max_respawns: usize) -> Self {
        self.max_respawns = max_respawns;
        self
    }

    /// Checks the configuration, returning the typed error
    /// [`SamplerService::try_new`] propagates.
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
/// `cert_checks` / `cert_time` counters.
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
    /// [`SampleStats::accumulate`] — including the scheduler-side `steals`
    /// and `queue_wait` counters.
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
    submitted_at: Instant,
    deadline: Option<Instant>,
    board: Mutex<Board>,
    ready: Condvar,
}

/// One unit of schedulable work: sample `index` of `request`.
struct Item {
    request: Arc<RequestState>,
    index: usize,
}

/// The scheduler proper: per-worker deques plus admission accounting, all
/// behind one lock (see the module docs for why that is enough here).
struct Sched {
    deques: Vec<VecDeque<Item>>,
    in_flight: usize,
    shutdown: bool,
    /// Workers still running their loop. A worker that exhausts its respawn
    /// budget leaves the pool cleanly; when the *last* one leaves, the
    /// queued items are completed as `Faulted` so no handle or submitter
    /// ever blocks on a dead pool.
    alive: usize,
}

/// State shared between the service handle and its workers.
struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here for items; submitters notify.
    work_available: Condvar,
    /// Submitters wait here for queue capacity; completing workers notify.
    admission: Condvar,
    queue_capacity: usize,
    /// Per-worker respawn budget (see [`ServiceConfig::max_respawns`]).
    max_respawns: usize,
    /// The installed chaos schedule, if any: consulted per item for the
    /// worker-panic primitive and surfaced through [`ServiceHealth`].
    fault_plan: Option<Arc<FaultPlan>>,
    /// Lifetime count of stolen items, service-wide.
    steals: AtomicU64,
    /// Lifetime count of caught worker panics, service-wide.
    worker_panics: AtomicU64,
    /// Lifetime count of sampler respawns from the prototype, service-wide.
    respawns: AtomicU64,
    /// Lifetime count of item retries (each respawn retries its item once).
    item_retries: AtomicU64,
    /// Items executed per worker (index = worker id), lifetime.
    worker_items: Vec<AtomicU64>,
    /// Stolen items executed per worker (index = worker id), lifetime.
    worker_steals: Vec<AtomicU64>,
    /// When set, [`post_outcome`] releases the backpressure slot *after*
    /// publishing the finished board instead of inside the board critical
    /// section — deliberately re-introducing the `try_submit` race fixed in
    /// the backpressure rework, so the model checker can demonstrate it
    /// finds the bug. See [`SamplerService::debug_reintroduce_slot_release_race`].
    racy_slot_release: AtomicBool,
}

/// A point-in-time health snapshot of a [`SamplerService`], taken with
/// [`SamplerService::health`].
///
/// The lifetime counters are monotone; the pool and queue fields describe
/// the instant of the snapshot. A healthy undisturbed service reports
/// `alive_workers == configured_workers` and zeros everywhere else once the
/// queue drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceHealth {
    /// Worker threads the service was configured with.
    pub configured_workers: usize,
    /// Workers currently alive (configured minus those that exhausted their
    /// respawn budget and left the pool).
    pub alive_workers: usize,
    /// Lifetime count of caught worker panics.
    pub worker_panics: u64,
    /// Lifetime count of sampler respawns from the retained prototype.
    pub respawns: u64,
    /// Lifetime count of item-level retries (one per respawn).
    pub item_retries: u64,
    /// Faults injected so far by the installed [`FaultPlan`] (0 when none
    /// is installed).
    pub faults_injected: u64,
    /// Admitted-but-not-yet-completed requests at snapshot time.
    pub pending_requests: usize,
    /// Work items sitting in the per-worker deques at snapshot time.
    pub queued_items: usize,
}

impl ServiceHealth {
    /// `true` when every configured worker is still alive.
    pub fn at_full_strength(&self) -> bool {
        self.alive_workers == self.configured_workers
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a sampler service worker panicked")
}

/// A long-lived sampling service: a persistent pool of worker threads, each
/// owning one clone of a prepared sampler, scheduling per-sample work items
/// through work-stealing deques and answering typed [`SampleRequest`]s with
/// index-ordered, bit-deterministic [`SampleResponse`]s.
///
/// See the [module documentation](self) for the design and the determinism
/// contract. Dropping the service completes every admitted request, then
/// stops and joins the workers; outstanding [`ResponseHandle`]s remain
/// usable after the drop.
pub struct SamplerService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SamplerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("steals", &self.steals())
            .finish()
    }
}

impl SamplerService {
    /// Spawns a service over `prototype`, rejecting an invalid
    /// [`ServiceConfig`] with a typed [`ServiceConfigError`].
    ///
    /// Each of the `config.workers` threads clones the prepared prototype
    /// exactly once at spawn — the one-off cost the persistent pool design
    /// amortises over every subsequent request. The prototype itself is
    /// retained (behind an [`Arc`]) so a worker whose sampler panics can
    /// respawn a fresh clone (see the module docs' *Robustness* section).
    pub fn try_new<S>(prototype: S, config: ServiceConfig) -> Result<Self, ServiceConfigError>
    where
        S: WitnessSampler + Clone + Send + Sync + 'static,
    {
        Self::try_with_fault_plan(prototype, config, None)
    }

    /// [`SamplerService::try_new`] with a chaos-testing [`FaultPlan`]
    /// installed: the plan's worker-panic primitive is consulted before
    /// every item, and its counters feed [`SamplerService::health`]. The
    /// plan does **not** reach into the samplers here — install it on the
    /// prototype (e.g. [`crate::SamplerBuilder::fault_plan`]) before
    /// constructing the service to fault the solver layer too.
    pub fn try_with_fault_plan<S>(
        prototype: S,
        config: ServiceConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, ServiceConfigError>
    where
        S: WitnessSampler + Clone + Send + Sync + 'static,
    {
        config.validate()?;
        let workers = config.workers;
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                in_flight: 0,
                shutdown: false,
                alive: workers,
            }),
            work_available: Condvar::new(),
            admission: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            max_respawns: config.max_respawns,
            fault_plan,
            steals: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            item_retries: AtomicU64::new(0),
            worker_items: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            racy_slot_release: AtomicBool::new(false),
        });
        // One retained prototype for the whole pool: each worker clones its
        // private sampler (own incremental solver) from it at spawn, and
        // again after a caught panic (bounded by `max_respawns`).
        let prototype = Arc::new(prototype);
        let handles = (0..workers)
            .map(|me| {
                let prototype = Arc::clone(&prototype);
                let shared = Arc::clone(&shared);
                conc::thread::spawn(move || run_worker(prototype, shared, me))
            })
            .collect();
        Ok(SamplerService {
            shared,
            workers: handles,
        })
    }

    /// Submits a request, blocking while the bounded request queue is at
    /// capacity, and returns a streaming [`ResponseHandle`].
    pub fn submit(&self, request: SampleRequest) -> ResponseHandle {
        let mut sched = lock(&self.shared.sched);
        while sched.in_flight >= self.shared.queue_capacity {
            sched = self
                .shared
                .admission
                .wait(sched)
                .expect("a sampler service worker panicked");
        }
        self.admit(sched, request)
    }

    /// Submits a request without blocking: if the bounded request queue is
    /// at capacity, the request is handed back inside
    /// [`TrySubmitError::QueueFull`] for the caller to retry — idempotently,
    /// thanks to the determinism contract.
    pub fn try_submit(&self, request: SampleRequest) -> Result<ResponseHandle, TrySubmitError> {
        let sched = lock(&self.shared.sched);
        if sched.in_flight >= self.shared.queue_capacity {
            return Err(TrySubmitError::QueueFull { request });
        }
        Ok(self.admit(sched, request))
    }

    /// Admits `request` under the scheduler lock: deals its indices into the
    /// per-worker deques in contiguous chunks (the same initial shape as the
    /// old static partition — stealing, not the deal, is what absorbs skew)
    /// and wakes the pool.
    fn admit(&self, mut sched: MutexGuard<'_, Sched>, request: SampleRequest) -> ResponseHandle {
        let now = Instant::now();
        // A dead pool (every worker exhausted its respawn budget) runs
        // nothing: the request completes immediately as all-`Faulted`
        // instead of queueing forever. [`SamplerService::health`] shows how
        // the pool got here.
        let dead_pool = sched.alive == 0;
        let complete_now = request.count == 0 || dead_pool;
        let state = Arc::new(RequestState {
            request,
            submitted_at: now,
            deadline: request.budget.map(|b| now + b),
            board: Mutex::new(Board {
                slots: if dead_pool {
                    vec![Some(SampleOutcome::faulted(SampleStats::default())); request.count]
                } else {
                    vec![None; request.count]
                },
                completed: if dead_pool { request.count } else { 0 },
                finished_at: complete_now.then_some(now),
            }),
            ready: Condvar::new(),
        });
        if complete_now {
            // Nothing to schedule; the request never occupies a queue slot.
            return ResponseHandle { state, cursor: 0 };
        }
        sched.in_flight += 1;
        let workers = sched.deques.len();
        let chunk = request.count.div_ceil(workers);
        for index in 0..request.count {
            sched.deques[index / chunk].push_back(Item {
                request: Arc::clone(&state),
                index,
            });
        }
        drop(sched);
        self.shared.work_available.notify_all();
        ResponseHandle { state, cursor: 0 }
    }

    /// Returns the number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Returns the request-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Returns the number of admitted-but-not-yet-completed requests.
    pub fn pending_requests(&self) -> usize {
        lock(&self.shared.sched).in_flight
    }

    /// Lifetime count of work items an idle worker stole from another
    /// worker's deque.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Lifetime count of work items executed per worker (indexed by worker
    /// id). Under skewed per-sample cost the *item* counts are legitimately
    /// unbalanced — fast workers execute more items; that is the scheduler
    /// doing its job.
    pub fn worker_items(&self) -> Vec<u64> {
        self.shared
            .worker_items
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Lifetime count of *stolen* items executed per worker (indexed by
    /// worker id).
    pub fn worker_steals(&self) -> Vec<u64> {
        self.shared
            .worker_steals
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Takes a point-in-time [`ServiceHealth`] snapshot: pool strength,
    /// respawn/panic/retry counters, injected-fault count, and queue depth.
    pub fn health(&self) -> ServiceHealth {
        let sched = lock(&self.shared.sched);
        ServiceHealth {
            configured_workers: self.workers.len(),
            alive_workers: sched.alive,
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
            item_retries: self.shared.item_retries.load(Ordering::Relaxed),
            faults_injected: self
                .shared
                .fault_plan
                .as_ref()
                .map(|plan| plan.faults_injected())
                .unwrap_or(0),
            pending_requests: sched.in_flight,
            queued_items: sched.deques.iter().map(VecDeque::len).sum(),
        }
    }

    /// Completes every admitted request, then stops and joins the workers.
    /// Equivalent to dropping the service, but explicit at call sites that
    /// want the drain to be visible.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Test-only regression hook: re-introduces the `try_submit`
    /// backpressure race that was fixed by moving the queue-slot release
    /// into the board critical section of [`post_outcome`]. With the flag
    /// set, a completing worker publishes the finished board (waking
    /// `wait()`ers) *before* decrementing `in_flight`, so a caller that
    /// observed completion can still get a spurious
    /// [`TrySubmitError::QueueFull`].
    ///
    /// Exists so the model-checked protocol tests can prove the checker
    /// actually finds this class of bug (`#[cfg(test)]` would not be
    /// visible from integration tests, hence `#[doc(hidden)]`). Never call
    /// this outside a test.
    #[doc(hidden)]
    pub fn debug_reintroduce_slot_release_race(&self) {
        self.shared.racy_slot_release.store(true, Ordering::Relaxed);
    }
}

impl Drop for SamplerService {
    fn drop(&mut self) {
        lock(&self.shared.sched).shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let result = handle.join();
            // When the service is torn down by an unwinding thread (a failed
            // test assertion, or a model-checker abort), a second panic here
            // would escalate to a process abort and mask the original
            // failure; the join itself still happened either way.
            if !std::thread::panicking() {
                result.expect("a sampler service worker panicked");
            }
        }
    }
}

/// The worker loop: pop the own deque from the front; failing that, steal
/// from the back of the longest other deque; failing that, sleep until work
/// arrives (or exit once shutdown is flagged and every deque is dry — so a
/// dropped service always drains the requests it admitted).
///
/// A caught sampler panic respawns this worker's sampler from the retained
/// prototype and retries the item on its re-derived RNG stream — up to
/// `max_respawns` times over the worker's lifetime, after which the item
/// completes as `Faulted` and the worker leaves the pool for good (see
/// [`leave_pool`]).
fn run_worker<S>(prototype: Arc<S>, shared: Arc<Shared>, me: usize)
where
    S: WitnessSampler + Clone,
{
    let mut sampler = (*prototype).clone();
    let mut respawns_left = shared.max_respawns;
    loop {
        let mut sched = lock(&shared.sched);
        let (item, stolen) = loop {
            if let Some(item) = sched.deques[me].pop_front() {
                break (item, false);
            }
            let victim = (0..sched.deques.len())
                .filter(|&w| w != me)
                .max_by_key(|&w| sched.deques[w].len());
            if let Some(victim) = victim {
                if let Some(item) = sched.deques[victim].pop_back() {
                    break (item, true);
                }
            }
            if sched.shutdown {
                return;
            }
            sched = shared
                .work_available
                .wait(sched)
                .expect("a sampler service submitter panicked");
        };
        drop(sched);

        shared.worker_items[me].fetch_add(1, Ordering::Relaxed);
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            shared.worker_steals[me].fetch_add(1, Ordering::Relaxed);
        }

        let mut retries = 0usize;
        let mut pending = Some(item);
        while let Some(item) = pending.take() {
            match execute(&mut sampler, &shared, item, stolen, me, retries) {
                None => {}
                Some(item) => {
                    shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                    if respawns_left == 0 {
                        // Respawn budget exhausted: complete the item as
                        // Faulted and leave the pool cleanly, so drop/join
                        // (and hence shutdown) never hangs or re-panics.
                        let queue_wait = Instant::now().duration_since(item.request.submitted_at);
                        post_outcome(
                            &shared,
                            &item,
                            failed_outcome(
                                OutcomeKind::Faulted,
                                SampleStats {
                                    queue_wait,
                                    steals: usize::from(stolen),
                                    retries,
                                    ..SampleStats::default()
                                },
                            ),
                        );
                        leave_pool(&shared);
                        return;
                    }
                    respawns_left -= 1;
                    shared.respawns.fetch_add(1, Ordering::Relaxed);
                    shared.item_retries.fetch_add(1, Ordering::Relaxed);
                    sampler = (*prototype).clone();
                    retries += 1;
                    pending = Some(item);
                }
            }
        }
    }
}

/// Runs one work item on this worker's sampler and posts the outcome to the
/// request's board. A panicking sampler is caught and the item handed back
/// (not posted) so [`run_worker`] can respawn the sampler and retry it —
/// the retry re-derives the same per-index RNG stream, so an absorbed panic
/// leaves the outcome bit-identical to an undisturbed run.
fn execute<S: WitnessSampler>(
    sampler: &mut S,
    shared: &Shared,
    item: Item,
    stolen: bool,
    me: usize,
    retries: usize,
) -> Option<Item> {
    let state = &item.request;
    let started = Instant::now();
    let queue_wait = started.duration_since(state.submitted_at);
    let outcome = if state.deadline.is_some_and(|deadline| started >= deadline) {
        // The request budget expired while this item was queued: complete it
        // as a typed interruption without touching the solver (see
        // `SampleRequest::budget` for the recoverability semantics).
        SampleOutcome::interrupted(SampleStats {
            queue_wait,
            steals: usize::from(stolen),
            retries,
            ..SampleStats::default()
        })
    } else {
        // The sampler is this worker's private state and is replaced from
        // the prototype if it panics, so unwind-safety is moot.
        let plan = shared.fault_plan.as_deref();
        let master_seed = state.request.master_seed;
        let index = item.index;
        let run = std::panic::AssertUnwindSafe(|| {
            if plan.is_some_and(|plan| plan.should_panic_worker(me, index)) {
                panic!("injected worker panic (worker {me}, item {index})");
            }
            let mut rng = stream_for_index(master_seed, index);
            sampler.sample(&mut rng)
        });
        match std::panic::catch_unwind(run) {
            Ok(mut outcome) => {
                outcome.stats.queue_wait = queue_wait;
                outcome.stats.steals = usize::from(stolen);
                outcome.stats.retries += retries;
                outcome
            }
            Err(_payload) => return Some(item),
        }
    };
    post_outcome(shared, &item, outcome);
    None
}

/// Posts one outcome to its request's board and, on the last one, releases
/// the request's queue slot.
fn post_outcome(shared: &Shared, item: &Item, outcome: SampleOutcome) {
    let state = &item.request;
    let mut board = lock(&state.board);
    debug_assert!(board.slots[item.index].is_none(), "index scheduled twice");
    board.slots[item.index] = Some(outcome);
    board.completed += 1;
    let complete = board.completed == state.request.count;
    let racy = complete && shared.racy_slot_release.load(Ordering::Relaxed);
    if complete {
        board.finished_at = Some(Instant::now());
        if !racy {
            // Release the queue slot while the board lock is still held: a
            // client that returns from `wait` may immediately retry a
            // rejected request (the documented backpressure idiom), so the
            // slot must be observably free by the time the finished board is
            // visible. The board → sched nesting here is the only place the
            // two locks nest, so the ordering is globally consistent.
            let mut sched = lock(&shared.sched);
            sched.in_flight -= 1;
            drop(sched);
        }
    }
    state.ready.notify_all();
    drop(board);
    if racy {
        // Deliberately broken ordering, enabled only by
        // `debug_reintroduce_slot_release_race`: the finished board is
        // already visible, so a `wait()`er can race ahead of this decrement
        // and observe a spuriously full queue.
        let mut sched = lock(&shared.sched);
        sched.in_flight -= 1;
        drop(sched);
    }
    if complete {
        shared.admission.notify_all();
    }
}

/// A worker whose respawn budget is exhausted leaves the pool: its current
/// item has already been completed as `Faulted`; if it was the *last* alive
/// worker, every queued item is completed as `Faulted` too (no one is left
/// to run them), so handles and submitters never hang on a dead pool. The
/// worker thread then returns normally — teardown joins it without
/// re-raising anything, so `shutdown` after total pool death cannot hang or
/// panic.
fn leave_pool(shared: &Shared) {
    let orphans: Vec<Item> = {
        let mut sched = lock(&shared.sched);
        sched.alive -= 1;
        if sched.alive == 0 {
            sched.deques.iter_mut().flat_map(|d| d.drain(..)).collect()
        } else {
            Vec::new()
        }
    };
    for item in orphans {
        let queue_wait = Instant::now().duration_since(item.request.submitted_at);
        post_outcome(
            shared,
            &item,
            SampleOutcome::faulted(SampleStats {
                queue_wait,
                ..SampleStats::default()
            }),
        );
    }
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
/// The handle owns its slice of the request state: it keeps working after
/// the service is dropped (a dropped service drains admitted requests
/// first).
#[derive(Debug)]
#[must_use = "dropping the handle discards the request's outcomes"]
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

    /// Number of outcomes completed so far (not necessarily a prefix — the
    /// iterator, by contrast, only releases the completed *prefix*).
    pub fn completed(&self) -> usize {
        lock(&self.state.board).completed
    }

    /// Non-blocking variant of the iterator step: returns the next
    /// index-ordered outcome if it has already completed, `None` otherwise
    /// (or when the request is exhausted).
    pub fn try_next(&mut self) -> Option<SampleOutcome> {
        if self.cursor >= self.state.request.count {
            return None;
        }
        let board = lock(&self.state.board);
        let outcome = board.slots[self.cursor].clone();
        if outcome.is_some() {
            self.cursor += 1;
        }
        outcome
    }

    /// Blocks until the whole request has completed and returns the full
    /// [`SampleResponse`] — including outcomes that were already streamed
    /// through the iterator.
    pub fn wait(self) -> SampleResponse {
        let mut board = lock(&self.state.board);
        while board.finished_at.is_none() {
            board = self
                .state
                .ready
                .wait(board)
                .expect("a sampler service worker panicked");
        }
        // Take, don't clone: `wait` consumes the only handle and every
        // worker is done with a finished board, so the slots can be moved
        // out without doubling peak memory on large responses.
        let outcomes: Vec<SampleOutcome> = board
            .slots
            .drain(..)
            .map(|slot| slot.expect("finished request has empty slots"))
            .collect();
        let finished_at = board.finished_at.expect("checked above");
        drop(board);
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
            board = self
                .state
                .ready
                .wait(board)
                .expect("a sampler service worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    use rand::RngCore;
    use unigen_cnf::{CnfFormula, Var, XorClause};

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
            ServiceConfig::default()
                .with_workers(2)
                .with_queue_capacity(1),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(0, 1)).wait();
        assert!(response.outcomes.is_empty());
        assert_eq!(service.pending_requests(), 0);
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

    /// Work-stealing fairness: with every expensive sample concentrated in
    /// the first worker's chunk, idle workers must steal the skew away
    /// instead of letting one deque serialise the batch (which is exactly
    /// what the old static partition did).
    #[test]
    fn stealing_spreads_an_adversarially_skewed_chunk() {
        const COUNT: usize = 64;
        const EXPENSIVE: usize = 16;
        const WORKERS: usize = 4;
        let seed = 0x5eed;
        // With 4 workers and 64 samples the first contiguous chunk is
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

        let service = SamplerService::try_new(
            prototype,
            ServiceConfig::default()
                .with_workers(WORKERS)
                .with_queue_capacity(1),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(COUNT, seed)).wait();
        assert_eq!(response.outcomes.len(), COUNT);

        // The scheduler stole, and the per-sample counters surfaced it.
        let steals = response.aggregate_stats.steals;
        assert!(steals >= 4, "only {steals} items were stolen");
        assert_eq!(service.steals(), steals as u64);
        assert_eq!(service.worker_steals().iter().sum::<u64>(), steals as u64);
        assert_eq!(service.worker_items().iter().sum::<u64>(), COUNT as u64);

        // Fairness: no single worker ran the lion's share of the expensive
        // chunk (static chunking pins all 16 to worker 0).
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

    #[test]
    fn try_submit_backpressure_hands_the_request_back() {
        // A gated sampler: every sample blocks until the test opens the gate,
        // so the queue-full window is deterministic, not timing-dependent.
        #[derive(Clone)]
        struct Gated {
            gate: Arc<(Mutex<bool>, Condvar)>,
        }
        impl WitnessSampler for Gated {
            fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
                let (lock, condvar) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = condvar.wait(open).unwrap();
                }
                SampleOutcome::bottom(SampleStats::default())
            }
            fn name(&self) -> &'static str {
                "Gated"
            }
        }

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let service = SamplerService::try_new(
            Gated {
                gate: Arc::clone(&gate),
            },
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        let first = service.submit(SampleRequest::new(2, 1));
        // The queue (capacity 1) now holds the blocked request: a second
        // submission must be rejected and returned verbatim.
        let rejected = service.try_submit(SampleRequest::new(3, 2));
        match rejected {
            Err(TrySubmitError::QueueFull { request }) => {
                assert_eq!(request, SampleRequest::new(3, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Open the gate; the first request drains and capacity frees up.
        {
            let (lock, condvar) = &*gate;
            *lock.lock().unwrap() = true;
            condvar.notify_all();
        }
        let response = first.wait();
        assert_eq!(response.outcomes.len(), 2);
        let retried = service.try_submit(SampleRequest::new(3, 2));
        assert!(retried.is_ok(), "capacity did not free after completion");
        assert_eq!(retried.unwrap().wait().outcomes.len(), 3);
    }

    #[test]
    fn panicking_sampler_never_strands_clients_and_shutdown_does_not_hang() {
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

        let service = SamplerService::try_new(
            Panicky,
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_max_respawns(1),
        )
        .unwrap();
        // The single worker panics on item 0, respawns once, panics again,
        // completes the item as Faulted, and — being the last alive worker —
        // drains items 1 and 2 as Faulted too. wait() must return, not hang.
        let response = service.submit(SampleRequest::new(3, 1)).wait();
        assert_eq!(response.outcomes.len(), 3);
        assert!(response
            .outcomes
            .iter()
            .all(|o| !o.is_success() && o.kind == OutcomeKind::Faulted));
        // The queue slot was released and the dead pool answers later
        // requests immediately with all-Faulted responses.
        assert_eq!(service.pending_requests(), 0);
        let response = service.submit(SampleRequest::new(2, 9)).wait();
        assert_eq!(response.outcomes.len(), 2);
        assert!(response
            .outcomes
            .iter()
            .all(|o| !o.is_success() && o.kind == OutcomeKind::Faulted));
        // The health snapshot records the carnage.
        let health = service.health();
        assert_eq!(health.alive_workers, 0);
        assert!(!health.at_full_strength());
        assert_eq!(health.worker_panics, 2);
        assert_eq!(health.respawns, 1);
        // Satellite regression: shutting down a service whose entire pool
        // died must return cleanly — no hang, no re-raised panic at join.
        let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            service.shutdown();
        }));
        assert!(
            teardown.is_ok(),
            "shutdown after total pool death must not panic or hang"
        );
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
        assert_eq!(service.health().configured_workers, 1);
    }

    #[test]
    fn injected_worker_panic_respawns_and_reproduces_the_batch() {
        use crate::WitnessSampler;
        let f = formula_with_count(10, 3);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(8, 0xfee1);
        // Worker 0 is scheduled to panic exactly once, on item 3. A single
        // worker keeps the schedule deterministic: with more workers the
        // item could be stolen and executed elsewhere, and the panic would
        // never fire.
        let plan = Arc::new(FaultPlan::seeded(0x9).panic_worker_at(0, 3));
        let service = SamplerService::try_with_fault_plan(
            prepared,
            ServiceConfig::default().with_workers(1),
            Some(Arc::clone(&plan)),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(8, 0xfee1)).wait();
        // The respawned sampler re-derived item 3's stream, so the batch is
        // bit-identical to the undisturbed serial reference.
        assert_eq!(witnesses_of(&response.outcomes), witnesses_of(&serial));
        let health = service.health();
        assert_eq!(health.worker_panics, 1);
        assert_eq!(health.respawns, 1);
        assert_eq!(health.item_retries, 1);
        assert_eq!(health.faults_injected, 1);
        assert_eq!(health.alive_workers, 1);
        assert!(health.at_full_strength());
        assert_eq!(plan.faults_injected(), 1);
        // The retried item carries its retry count in the per-sample stats.
        assert_eq!(response.aggregate_stats.retries, 1);
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
        let service = SamplerService::try_new(
            prepared,
            ServiceConfig::default()
                .with_workers(3)
                .with_queue_capacity(8),
        )
        .unwrap();
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
