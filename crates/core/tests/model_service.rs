//! Model-checked protocol tests for the work-stealing sampler service.
//!
//! Every test in this file runs the *real* `SamplerService` — not a model of
//! it — under `conc`'s controlled scheduler, which explores distinct thread
//! interleavings up to a preemption bound with sleep-set pruning. A clean
//! report means every explored schedule upheld the protocol invariant; the
//! `*_race_is_found` test proves the exploration has teeth by re-introducing
//! a historical bug and asserting the checker rediscovers it.
//!
//! Budgets come from `conc::model::Config::from_env()` so CI can widen the
//! search with `CONC_SCHEDULES` / `CONC_PREEMPTIONS` without code changes.

use std::sync::Arc;

use conc::atomic::{AtomicUsize, Ordering};
use conc::model::{check, Config, FailureKind, Report};
use rand::RngCore;

use unigen::{
    OutcomeKind, SampleOutcome, SampleRequest, SampleStats, SamplerService, ServiceConfig,
    WitnessSampler, WorkerPool,
};

/// A sampler that immediately returns the paper's `⊥` — the cheapest
/// possible work item, so schedules differ only in scheduler behavior.
#[derive(Clone)]
struct Stub;

impl WitnessSampler for Stub {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
        SampleOutcome::bottom(SampleStats::default())
    }
    fn name(&self) -> &'static str {
        "Stub"
    }
}

/// A second cheap sampler whose outcomes are distinguishable from
/// [`Stub`]'s, so a test can tell which prototype ran an item.
#[derive(Clone)]
struct OtherStub;

impl WitnessSampler for OtherStub {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
        SampleOutcome::interrupted(SampleStats::default())
    }
    fn name(&self) -> &'static str {
        "OtherStub"
    }
}

/// A sampler that panics on its first `fail_first` calls (counted across
/// clones — the counter lives behind an `Arc`), then succeeds forever.
#[derive(Clone)]
struct FlakyFirst {
    calls: Arc<AtomicUsize>,
    fail_first: usize,
}

impl FlakyFirst {
    fn new(fail_first: usize) -> Self {
        FlakyFirst {
            calls: Arc::new(AtomicUsize::new(0)),
            fail_first,
        }
    }
}

impl WitnessSampler for FlakyFirst {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
        if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
            panic!("injected sampler fault");
        }
        SampleOutcome::bottom(SampleStats::default())
    }
    fn name(&self) -> &'static str {
        "FlakyFirst"
    }
}

/// A sampler that always panics — every item it gets ends `Faulted`.
#[derive(Clone)]
struct AlwaysPanics;

impl WitnessSampler for AlwaysPanics {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> SampleOutcome {
        panic!("injected sampler fault");
    }
    fn name(&self) -> &'static str {
        "AlwaysPanics"
    }
}

fn protocol_config() -> Config {
    Config::from_env()
}

/// The acceptance floor: either the bounded schedule tree was exhausted, or
/// the checker explored at least 1000 distinct schedules (clamped to the
/// configured budget so a deliberately tiny `CONC_SCHEDULES` still runs).
fn assert_explored(cfg: &Config, report: &Report) {
    let floor = cfg.max_schedules.min(1000);
    assert!(
        report.complete || report.distinct_schedules >= floor,
        "exploration stopped early: {report}"
    );
}

/// Protocol: a caller that returns from `wait()` can immediately
/// `try_submit` a follow-up request — completion must release the queue
/// slot before the finished board becomes visible.
fn backpressure_round_trip_body() {
    let service = SamplerService::try_new(
        Stub,
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    )
    .unwrap();
    let handle = service.submit(SampleRequest::new(1, 7));
    let response = handle.wait();
    assert_eq!(response.outcomes.len(), 1);
    // The documented backpressure idiom: completion observed, so the slot
    // must be free. This is exactly the invariant the pre-fix ordering
    // violated.
    service
        .try_submit(SampleRequest::new(1, 8))
        .expect("slot must be free once wait() has returned")
        .wait();
}

/// The fixed slot-release ordering upholds the backpressure protocol on
/// every explored schedule.
#[test]
fn backpressure_slot_accounting_is_clean() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), backpressure_round_trip_body);
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Re-introduce the historical bug (slot released *after* the finished
/// board is published) and assert the checker finds the spurious
/// `QueueFull` within budget — the checker has teeth.
#[test]
fn reintroduced_backpressure_race_is_found() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = SamplerService::try_new(
            Stub,
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        service.pool().debug_reintroduce_slot_release_race();
        let response = service.submit(SampleRequest::new(1, 7)).wait();
        assert_eq!(response.outcomes.len(), 1);
        service
            .try_submit(SampleRequest::new(1, 8))
            .expect("slot must be free once wait() has returned")
            .wait();
    });
    let failure = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("the re-introduced race went undetected: {report}"));
    assert!(
        matches!(&failure.kind, FailureKind::Panic(msg) if msg.contains("slot must be free")),
        "unexpected failure class: {report}"
    );
}

/// Satellite regression for the board → sched critical section: the only
/// place the two service locks nest is the completion path, and the
/// nesting is acyclic on every explored schedule. A `LockOrderCycle`
/// failure (or an empty edge set — meaning the nesting silently moved)
/// fails the test, pinning the shape of the PR 7 fix.
#[test]
fn board_sched_lock_nesting_is_acyclic_and_observed() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), backpressure_round_trip_body);
    assert!(report.failure.is_none(), "{report}");
    let service_edges: Vec<_> = report
        .lock_order_edges
        .iter()
        .filter(|(held, acquired)| held.contains("service.rs") && acquired.contains("service.rs"))
        .collect();
    assert!(
        !service_edges.is_empty(),
        "expected the board → sched nesting to be observed; edges: {:?}",
        report.lock_order_edges
    );
    // One nesting direction only: a lock class never appears on both sides
    // of a service-internal edge pair (that would be an AB-BA hazard even
    // if no single schedule completed the cycle).
    for (held, acquired) in &service_edges {
        assert!(
            !service_edges
                .iter()
                .any(|(h, a)| h == acquired && a == held),
            "both nesting directions observed between {held} and {acquired}"
        );
    }
}

/// Protocol: with two workers and a deliberately unbalanced deal, stealing
/// and completion never lose or duplicate an item — every index completes
/// exactly once on every explored schedule.
#[test]
fn steal_vs_completion_never_loses_items() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service =
            SamplerService::try_new(Stub, ServiceConfig::default().with_workers(2)).unwrap();
        let response = service.submit(SampleRequest::new(4, 11)).wait();
        assert_eq!(response.outcomes.len(), 4);
        assert!(
            response
                .outcomes
                .iter()
                .all(|o| o.kind == OutcomeKind::Bottom),
            "an item was dropped or faulted"
        );
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol: a worker panic respawns the sampler from the retained
/// prototype and retries the item, so the caller still sees the item's
/// real outcome — on every explored schedule.
#[test]
fn worker_panic_respawn_retries_item() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = SamplerService::try_new(
            FlakyFirst::new(1),
            ServiceConfig::default()
                .with_workers(1)
                .with_max_respawns(1),
        )
        .unwrap();
        let response = service.submit(SampleRequest::new(1, 3)).wait();
        assert_eq!(response.outcomes[0].kind, OutcomeKind::Bottom);
        let health = service.pool().health();
        assert_eq!(health.worker_panics, 1);
        assert_eq!(health.respawns, 1);
        assert_eq!(health.item_retries, 1);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol: dropping the service while a handle is still waiting drains
/// the admitted request first — the waiter always completes, on every
/// explored schedule.
#[test]
fn drop_while_handle_waiting_completes_request() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service =
            SamplerService::try_new(Stub, ServiceConfig::default().with_workers(1)).unwrap();
        let handle = service.submit(SampleRequest::new(1, 5));
        let waiter = conc::thread::spawn(move || handle.wait());
        drop(service);
        let response = waiter.join().expect("waiter must not panic");
        assert_eq!(response.outcomes.len(), 1);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol: dropping a `ResponseHandle` mid-stream while workers still
/// post outcomes never deadlocks or panics — outcomes land on a board
/// whose only other owner is the worker side, and teardown drains
/// normally.
#[test]
fn handle_dropped_mid_stream_is_clean() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service =
            SamplerService::try_new(Stub, ServiceConfig::default().with_workers(1)).unwrap();
        let mut handle = service.submit(SampleRequest::new(2, 9));
        // Consume at most one outcome, then abandon the stream while the
        // worker may still be posting the second.
        let _ = handle.try_next();
        drop(handle);
        drop(service);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol: an item whose prototype keeps panicking past the per-item
/// respawn budget completes as `Faulted` (no waiter hangs), the worker
/// stays in the pool and serves the next prototype's items, and shutdown
/// joins cleanly — on every explored schedule.
#[test]
fn shutdown_after_every_retry_faults_is_clean() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let pool = WorkerPool::try_new(
            ServiceConfig::default()
                .with_workers(1)
                .with_max_respawns(0),
        )
        .unwrap();
        let doomed = pool.serve(AlwaysPanics).submit(SampleRequest::new(2, 13));
        let healthy = pool.serve(Stub).submit(SampleRequest::new(1, 14));
        assert!(
            doomed
                .wait()
                .outcomes
                .iter()
                .all(|o| o.kind == OutcomeKind::Faulted),
            "an item past its respawn budget must fault"
        );
        assert_eq!(healthy.wait().outcomes[0].kind, OutcomeKind::Bottom);
        assert_eq!(pool.health().worker_panics, 2);
        drop(pool);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol: one pool serves two prototypes on two workers. The workers'
/// one-slot clone caches must run every item on a clone of *its own*
/// request's prototype, and dropping a service handle (as a registry
/// eviction does) while its request is in flight must not cut that
/// request — on every explored schedule.
#[test]
fn two_prototypes_share_a_pool_and_an_evicted_handle_finishes_its_request() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let pool = WorkerPool::try_new(ServiceConfig::default().with_workers(2)).unwrap();
        let kept = pool.serve(Stub);
        let evicted = pool.serve(OtherStub);
        let in_flight = evicted.submit(SampleRequest::new(2, 1));
        drop(evicted);
        let other = kept.submit(SampleRequest::new(2, 2));
        let kinds = |handle: unigen::ResponseHandle| -> Vec<OutcomeKind> {
            handle.wait().outcomes.iter().map(|o| o.kind).collect()
        };
        assert_eq!(kinds(in_flight), [OutcomeKind::Interrupted; 2]);
        assert_eq!(kinds(other), [OutcomeKind::Bottom; 2]);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}
