//! End-to-end coverage of the service-oriented sampling API: typed
//! request/response messages, streaming handles,
//! bounded queueing with backpressure, and — for **every** sampler family —
//! the bit-identical-to-`sample_batch` determinism contract at 1, 2 and 8
//! workers.

use proptest::prelude::*;

use rand::RngCore;

use unigen::{
    SampleOutcome, SampleRequest, SampleStats, SamplerService, ServiceConfig, TrySubmitError,
    UniGen, UniGenConfig, UniWit, UniWitConfig, UniformSampler, WitnessSampler, XorSamplePrime,
    XorSamplePrimeConfig,
};
use unigen_cnf::{CnfFormula, Var, XorClause};

/// A formula with `2^bits` witnesses over a `bits`-variable sampling set plus
/// `extra` dependent (Tseitin-style) variables.
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

fn witness_sequence(outcomes: &[SampleOutcome]) -> Vec<Option<Vec<bool>>> {
    outcomes
        .iter()
        .map(|o| o.witness.as_ref().map(|w| w.values().to_vec()))
        .collect()
}

/// Checks that `prepared` served at 1, 2 and 8 workers is bit-identical to
/// its serial `sample_batch`.
fn assert_service_matches_serial<S>(prepared: S, count: usize, master_seed: u64)
where
    S: WitnessSampler + Clone + Send + Sync + 'static,
{
    let serial = prepared.clone().sample_batch(count, master_seed);
    for workers in [1usize, 2, 8] {
        let service = SamplerService::try_new(
            prepared.clone(),
            ServiceConfig::default().with_workers(workers),
        )
        .unwrap();
        let response = service
            .submit(SampleRequest::new(count, master_seed))
            .wait();
        assert_eq!(
            witness_sequence(&response.outcomes),
            witness_sequence(&serial),
            "{} diverged from its serial reference at {} workers",
            prepared.name(),
            workers
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance criterion: for every sampler family, the service output is
    /// bit-identical to `WitnessSampler::sample_batch` at 1, 2 and 8
    /// workers.
    #[test]
    fn every_family_is_bit_identical_through_the_service(
        count in 1usize..9,
        master_seed in 0u64..1_000_000,
    ) {
        let f = formula_with_count(6, 2);
        assert_service_matches_serial(
            UniGen::new(&f, UniGenConfig::default()).unwrap(),
            count,
            master_seed,
        );
        assert_service_matches_serial(
            UniWit::new(&f, UniWitConfig::default()).unwrap(),
            count,
            master_seed,
        );
        let config = XorSamplePrimeConfig {
            num_constraints: 2,
            ..Default::default()
        };
        assert_service_matches_serial(
            XorSamplePrime::new(&f, config).unwrap(),
            count,
            master_seed,
        );
        assert_service_matches_serial(
            UniformSampler::with_witnesses(&f, &f.sampling_set_or_all()).unwrap(),
            count,
            master_seed,
        );
    }
}

/// Bounded queueing: `try_submit` rejects with the request handed back once
/// the queue is at capacity, and capacity frees as requests complete. The
/// blocking window is made deterministic with a gated sampler rather than
/// timing.
#[test]
fn bounded_queue_backpressure_round_trip() {
    use conc::sync::{Condvar, Mutex};
    use std::sync::Arc;

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
            .with_workers(2)
            .with_queue_capacity(2),
    )
    .unwrap();
    let first = service.submit(SampleRequest::new(3, 1));
    let second = service.submit(SampleRequest::new(3, 2));
    let rejected = service.try_submit(SampleRequest::new(3, 3));
    match rejected {
        Err(TrySubmitError::QueueFull { request }) => {
            // The rejected request comes back verbatim: the idempotent-retry
            // token for an RPC front end.
            assert_eq!(request, SampleRequest::new(3, 3));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    {
        let (lock, condvar) = &*gate;
        *lock.lock().unwrap() = true;
        condvar.notify_all();
    }
    assert_eq!(first.wait().outcomes.len(), 3);
    assert_eq!(second.wait().outcomes.len(), 3);
    let retried = service.try_submit(SampleRequest::new(3, 3)).unwrap();
    assert_eq!(retried.wait().outcomes.len(), 3);
}

/// Regression (handle lifecycle audit): a `ResponseHandle` dropped
/// mid-stream — while workers are still blocked *executing* that request's
/// items — must not wedge or panic the service. The request's board simply
/// loses its reader; workers keep posting outcomes into it and release the
/// queue slot on completion, so the service stays usable and drains cleanly
/// on drop.
#[test]
fn handle_dropped_mid_stream_leaves_service_usable() {
    use conc::sync::{Condvar, Mutex};
    use std::sync::Arc;

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
            .with_workers(2)
            .with_queue_capacity(1),
    )
    .unwrap();
    let mut abandoned = service.submit(SampleRequest::new(4, 1));
    // The workers are (or will shortly be) parked inside `sample` on the
    // closed gate; the stream has produced nothing yet.
    assert_eq!(abandoned.completed(), 0);
    assert!(abandoned.try_next().is_none());
    drop(abandoned);
    {
        let (lock, condvar) = &*gate;
        *lock.lock().unwrap() = true;
        condvar.notify_all();
    }
    // The orphaned request still completes and frees its queue slot, so a
    // follow-up submission is admitted and answered in full.
    let follow_up = service.submit(SampleRequest::new(3, 2)).wait();
    assert_eq!(follow_up.outcomes.len(), 3);
    service.shutdown();
}

/// `SampleResponse::aggregate_stats` is exactly the `accumulate` fold of the
/// per-outcome statistics, scheduler counters included.
#[test]
fn aggregate_stats_is_the_accumulate_fold() {
    let f = formula_with_count(7, 2);
    let service = SamplerService::try_new(
        UniGen::new(&f, UniGenConfig::default()).unwrap(),
        ServiceConfig::default().with_workers(3),
    )
    .unwrap();
    let response = service.submit(SampleRequest::new(10, 5)).wait();
    let mut folded = SampleStats::default();
    for outcome in &response.outcomes {
        folded.accumulate(&outcome.stats);
    }
    assert_eq!(response.aggregate_stats, folded);
    // Real solver work flowed through the pool and was accounted.
    assert!(response.aggregate_stats.bsat_calls >= 10);
    assert!(response.round_trip.as_nanos() > 0);
}
