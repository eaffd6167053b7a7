//! Model-checked protocol tests for the connection layer.
//!
//! These run the *real* `crates/net` connection code — [`Outbound`],
//! [`ConnRequests`], [`run_request`] — against a real `SamplerService`
//! under `conc`'s controlled scheduler, exploring distinct thread
//! interleavings up to a preemption bound. The three protocols pinned
//! here are exactly the ones the daemon's accept→dispatch→writer
//! pipeline depends on:
//!
//! 1. the write-buffer drain condvar never loses a wakeup (a blocked
//!    drainer always resumes once the event loop pops),
//! 2. the lock order across dispatch and writer is acyclic, and the
//!    connection waker is invoked *outside* the outbound lock,
//! 3. a client disconnect mid-stream releases the in-flight request
//!    entry and the service queue slot.
//!
//! Budgets come from `conc::model::Config::from_env()` so CI can widen
//! the search with `CONC_SCHEDULES` / `CONC_PREEMPTIONS`.

use std::sync::Arc;

use conc::atomic::AtomicU64;
use conc::model::{check, Config, Report};
use conc::sync::{Condvar, Mutex};
use rand::RngCore;

use unigen::{
    SampleOutcome, SampleRequest, SampleStats, SamplerService, ServiceConfig, WitnessSampler,
};
use unigen_net::conn::{run_request, ConnRequests, Outbound, RequestEnd, RequestJob};

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

fn protocol_config() -> Config {
    Config::from_env()
}

/// The acceptance floor: either the bounded schedule tree was exhausted,
/// or the checker explored at least 1000 distinct schedules (clamped to
/// the configured budget so a deliberately tiny `CONC_SCHEDULES` still
/// runs).
fn assert_explored(cfg: &Config, report: &Report) {
    let floor = cfg.max_schedules.min(1000);
    assert!(
        report.complete || report.distinct_schedules >= floor,
        "exploration stopped early: {report}"
    );
}

/// The event loop's wake pipe, modeled as a counting condvar: the
/// connection waker raises it, the writer blocks on it. Spin-free, so
/// the controlled scheduler never hits its livelock guard.
struct WakeSignal {
    pending: Mutex<usize>,
    bell: Condvar,
}

impl WakeSignal {
    fn new() -> WakeSignal {
        WakeSignal {
            pending: Mutex::new(0),
            bell: Condvar::new(),
        }
    }

    /// The waker side (called by `Outbound` after every enqueue/close).
    fn raise(&self) {
        match self.pending.lock() {
            Ok(mut pending) => {
                *pending += 1;
                self.bell.notify_one();
            }
            Err(_) => panic!("wake mutex poisoned"),
        }
    }

    /// The writer side: block until at least one raise since the last
    /// acknowledge, then consume them all.
    fn await_raise(&self) {
        let mut pending = match self.pending.lock() {
            Ok(guard) => guard,
            Err(_) => panic!("wake mutex poisoned"),
        };
        while *pending == 0 {
            pending = match self.bell.wait(pending) {
                Ok(guard) => guard,
                Err(_) => panic!("wake mutex poisoned"),
            };
        }
        *pending = 0;
    }
}

fn job(id: u64, count: usize, master_seed: u64) -> RequestJob {
    RequestJob {
        id,
        request: SampleRequest::new(count, master_seed),
        fingerprint: 0xfeed,
        sampling_set: Vec::new(),
    }
}

/// Protocol 1: producers blocked on the `space` condvar always resume.
/// A tiny capacity forces every frame after the first to block until
/// the consumer pops; a lost wakeup would leave the producer parked
/// forever and surface as a deadlock/stall failure on that schedule.
#[test]
fn outbound_drain_condvar_never_loses_a_wakeup() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let wake = Arc::new(WakeSignal::new());
        let outbound = {
            let wake = Arc::clone(&wake);
            Arc::new(Outbound::new(1, Box::new(move || wake.raise())))
        };
        let producer = {
            let outbound = Arc::clone(&outbound);
            conc::thread::spawn(move || {
                for payload in 0..3u8 {
                    outbound
                        .send(vec![payload; 4])
                        .expect("buffer never closes in this test");
                }
            })
        };
        let mut received = 0usize;
        while received < 3 {
            wake.await_raise();
            while let Some(frame) = outbound.pop() {
                assert_eq!(frame, vec![received as u8; 4], "frames drain in order");
                received += 1;
            }
        }
        producer.join().expect("producer exits cleanly");
        assert_eq!(outbound.queued_bytes(), 0);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}

/// Protocol 2: the full dispatch→writer pipeline (real service, real
/// outbound, real request table) holds its locks acyclically, and the
/// connection waker runs *outside* the outbound lock — the discipline
/// that keeps the event loop's wake mutex out of any cycle with
/// connection state.
#[test]
fn dispatch_writer_lock_order_is_acyclic_and_waker_runs_unlocked() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = SamplerService::try_new(
            Stub,
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        let wake = Arc::new(WakeSignal::new());
        let outbound = {
            let wake = Arc::clone(&wake);
            // The production waker writes the event loop's wake pipe;
            // here it raises a condvar behind its own mutex. Any scheme
            // that invoked it while holding the outbound lock would
            // show up as a held→acquired edge below.
            Arc::new(Outbound::new(16, Box::new(move || wake.raise())))
        };
        let requests = ConnRequests::new();
        let cancel = requests.begin(1).expect("fresh id");
        let retries = Arc::new(AtomicU64::new(0));
        let drainer = {
            let outbound = Arc::clone(&outbound);
            let retries = Arc::clone(&retries);
            conc::thread::spawn(move || {
                run_request(&service, job(1, 2, 5), &outbound, &cancel, &retries, 4)
            })
        };
        // Writer role: the stream is StreamBegin + 2 chunks + Done —
        // drain exactly those four frames, waiting on the wake signal
        // between batches just like the event loop waits on its pipe.
        let mut frames = 0usize;
        while frames < 4 {
            wake.await_raise();
            while outbound.pop().is_some() {
                frames += 1;
            }
        }
        let end = drainer.join().expect("drainer exits cleanly");
        assert_eq!(end, RequestEnd::Completed { successes: 0 });
        assert_eq!(frames, 4, "the full stream reaches the writer");
        requests.finish(1);
    });
    assert!(report.failure.is_none(), "{report}");
    // No AB-BA hazard anywhere in the explored pipeline: a lock class
    // pair never appears in both nesting directions.
    for (held, acquired) in &report.lock_order_edges {
        assert!(
            !report
                .lock_order_edges
                .iter()
                .any(|(h, a)| h == acquired && a == held),
            "both nesting directions observed between {held} and {acquired}; \
             edges: {:?}",
            report.lock_order_edges
        );
    }
    // The waker-outside-the-lock discipline: no edge from connection
    // state into anything else while the outbound mutex is held.
    for (held, acquired) in &report.lock_order_edges {
        assert!(
            !held.contains("net/src/conn.rs"),
            "outbound lock held across another acquisition ({held} -> {acquired}); \
             the waker must run outside the lock"
        );
    }
    assert_explored(&cfg, &report);
}

/// Protocol 3: a client disconnect mid-stream (outbound closed, cancel
/// flags raised) ends the drainer promptly, clears the in-flight table,
/// and releases the service queue slot — a fresh blocking submit
/// completes on every explored schedule.
#[test]
fn disconnect_mid_stream_frees_the_service_slot() {
    let cfg = protocol_config();
    let report = check(cfg.clone(), || {
        let service = Arc::new(
            SamplerService::try_new(
                Stub,
                ServiceConfig::default()
                    .with_workers(1)
                    .with_queue_capacity(1),
            )
            .unwrap(),
        );
        let outbound = Arc::new(Outbound::new(1, Box::new(|| {})));
        let requests = Arc::new(ConnRequests::new());
        let cancel = requests.begin(1).expect("fresh id");
        let retries = Arc::new(AtomicU64::new(0));
        let drainer = {
            let service = Arc::clone(&service);
            let outbound = Arc::clone(&outbound);
            let requests = Arc::clone(&requests);
            let retries = Arc::clone(&retries);
            conc::thread::spawn(move || {
                let end = run_request(&service, job(1, 3, 9), &outbound, &cancel, &retries, 4);
                requests.finish(1);
                end
            })
        };
        // The "event loop" observes the hangup: close the buffer and
        // raise every cancel flag, exactly what `disconnect` does.
        outbound.close();
        requests.cancel_all();
        let end = drainer.join().expect("drainer exits cleanly");
        assert!(
            matches!(
                end,
                RequestEnd::Disconnected | RequestEnd::Cancelled | RequestEnd::Completed { .. }
            ),
            "unexpected request end: {end:?}"
        );
        assert_eq!(
            requests.active(),
            0,
            "disconnect clears the in-flight table"
        );
        // The released slot: a fresh blocking submit must complete (a
        // leaked slot would deadlock this schedule and fail the check).
        let response = service.submit(SampleRequest::new(1, 13)).wait();
        assert_eq!(response.outcomes.len(), 1);
    });
    assert!(report.failure.is_none(), "{report}");
    assert_explored(&cfg, &report);
}
