//! The parallel batch engine's determinism contract, checked end to end: a
//! `SamplerService` request for `(n, seed)` must reproduce the serial
//! `WitnessSampler::sample_batch` witness sequence bit for bit at every
//! worker count, and the witnesses flowing through the parallel path must
//! stay (almost) uniform.

use std::collections::HashMap;

use proptest::prelude::*;

use unigen::{
    PreparedMode, SampleOutcome, SampleRequest, SampleStats, SamplerService, ServiceConfig, UniGen,
    UniGenConfig, UniWit, UniWitConfig, WitnessSampler,
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

/// Projects a batch down to the part the contract speaks about: the witness
/// value vectors, in batch order.
fn witness_sequence(outcomes: &[SampleOutcome]) -> Vec<Option<Vec<bool>>> {
    outcomes
        .iter()
        .map(|o| o.witness.as_ref().map(|w| w.values().to_vec()))
        .collect()
}

/// Runs one `(count, master_seed)` request on a fresh `workers`-thread
/// service over `prepared` and returns its outcomes.
fn service_batch<S>(
    prepared: &S,
    workers: usize,
    count: usize,
    master_seed: u64,
) -> Vec<SampleOutcome>
where
    S: WitnessSampler + Clone + Send + Sync + 'static,
{
    SamplerService::try_new(
        prepared.clone(),
        ServiceConfig::default().with_workers(workers),
    )
    .unwrap()
    .submit(SampleRequest::new(count, master_seed))
    .wait()
    .outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random formula shapes, batch sizes and master seeds, worker
    /// counts 1, 2 and 8 all reproduce the serial witness sequence exactly —
    /// the identity holds in both prepared modes (enumerated and hashed).
    #[test]
    fn parallel_batches_equal_serial_batches(
        bits in 3usize..8,
        extra in 0usize..4,
        count in 1usize..10,
        master_seed in 0u64..1_000_000,
    ) {
        let f = formula_with_count(bits, extra);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(count, master_seed);
        for workers in [1usize, 2, 8] {
            let batch = service_batch(&prepared, workers, count, master_seed);
            prop_assert_eq!(
                witness_sequence(&batch),
                witness_sequence(&serial),
                "workers = {} diverged from the serial reference",
                workers
            );
        }
    }

    /// The contract is not UniGen-specific: UniWit's per-sample width search
    /// rides the same per-index streams and canonical cell ordering.
    #[test]
    fn uniwit_parallel_batches_equal_serial_batches(
        bits in 4usize..9,
        count in 1usize..8,
        master_seed in 0u64..1_000_000,
    ) {
        let mut f = CnfFormula::new(bits);
        f.add_clause([Var::new(0).positive(), Var::new(1).positive()]).unwrap();
        let prepared = UniWit::new(&f, UniWitConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(count, master_seed);
        for workers in [1usize, 2, 8] {
            prop_assert_eq!(
                witness_sequence(&service_batch(&prepared, workers, count, master_seed)),
                witness_sequence(&serial),
                "workers = {} diverged from the serial reference",
                workers
            );
        }
    }

    /// The service path honours the same contract under *concurrent
    /// interleaved* requests: two requests with distinct master seeds and
    /// different counts, submitted before either is collected, each
    /// reproduce their own `sample_batch` reference bit for bit — at 1, 2
    /// and 8 workers, through the pool's one queue, on one
    /// persistent pool per worker count. The response's aggregate statistics
    /// must equal folding the outcomes with `SampleStats::accumulate`.
    #[test]
    fn service_requests_reproduce_sample_batch(
        bits in 3usize..8,
        extra in 0usize..4,
        count in 1usize..10,
        master_seed in 0u64..1_000_000,
        seed_gap in 1u64..1_000,
    ) {
        let f = formula_with_count(bits, extra);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let seed_b = master_seed.wrapping_add(seed_gap);
        let serial_a = prepared.clone().sample_batch(count, master_seed);
        let serial_b = prepared.clone().sample_batch(count + 2, seed_b);
        for workers in [1usize, 2, 8] {
            let service = SamplerService::try_new(
                prepared.clone(),
                ServiceConfig::default().with_workers(workers),
            )
            .unwrap();
            // Interleave: both requests live in the pool at once.
            let handle_a = service.submit(SampleRequest::new(count, master_seed));
            let handle_b = service.submit(SampleRequest::new(count + 2, seed_b));
            let response_b = handle_b.wait();
            let response_a = handle_a.wait();
            prop_assert_eq!(
                witness_sequence(&response_a.outcomes),
                witness_sequence(&serial_a),
                "request A diverged at {} workers",
                workers
            );
            prop_assert_eq!(
                witness_sequence(&response_b.outcomes),
                witness_sequence(&serial_b),
                "request B diverged at {} workers",
                workers
            );
            let mut folded = SampleStats::default();
            for outcome in &response_a.outcomes {
                folded.accumulate(&outcome.stats);
            }
            prop_assert_eq!(response_a.aggregate_stats, folded);
        }
    }

    /// Streaming changes *when* outcomes are seen, never *what* they are: a
    /// consumer that takes the first k outcomes off the iterator has
    /// consumed exactly a prefix of the deterministic reference sequence.
    #[test]
    fn streamed_prefixes_are_prefixes_of_the_reference(
        bits in 3usize..7,
        count in 2usize..9,
        master_seed in 0u64..1_000_000,
    ) {
        let f = formula_with_count(bits, 1);
        let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let serial = prepared.clone().sample_batch(count, master_seed);
        let service = SamplerService::try_new(
            prepared,
            ServiceConfig::default().with_workers(3),
        )
        .unwrap();
        let prefix_len = count / 2;
        let mut handle = service.submit(SampleRequest::new(count, master_seed));
        let prefix: Vec<SampleOutcome> = handle.by_ref().take(prefix_len).collect();
        prop_assert_eq!(
            witness_sequence(&prefix),
            witness_sequence(&serial[..prefix_len])
        );
        // Collecting the rest afterwards completes the same sequence.
        let response = handle.wait();
        prop_assert_eq!(
            witness_sequence(&response.outcomes),
            witness_sequence(&serial)
        );
    }
}

/// Witnesses produced through the parallel path stay almost uniform: a
/// chi-square smoke test over a hashed-mode formula (2^6 = 64 witnesses,
/// just above hiThresh = 62 for ε = 6, so every sample runs the real
/// hash-and-enumerate pipeline on a worker solver).
#[test]
fn parallel_path_is_almost_uniform_chi_square() {
    let f = formula_with_count(6, 2);
    let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
    assert!(
        matches!(prepared.prepared_mode(), PreparedMode::Hashed { .. }),
        "the smoke test must exercise the hashed pipeline"
    );
    let sampling = f.sampling_set().unwrap().to_vec();

    let batch = service_batch(&prepared, 8, 1200, 0x5eed);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut successes = 0u64;
    for outcome in &batch {
        if let Some(witness) = &outcome.witness {
            assert!(f.evaluate(witness), "non-witness escaped the pipeline");
            *counts
                .entry(witness.project(&sampling).as_index())
                .or_insert(0) += 1;
            successes += 1;
        }
    }
    // Theorem 1: success probability ≥ 0.62; empirically close to 1.
    assert!(
        successes >= 700,
        "only {successes}/1200 parallel samples succeeded"
    );
    assert_eq!(counts.len(), 64, "not every witness was reachable");

    // Chi-square statistic against the uniform distribution over 64 cells.
    // 63 degrees of freedom put the 99.9th percentile near 104; UniGen is
    // (1+ε)-almost-uniform rather than exactly uniform, so allow a further
    // cushion — far below the statistic of a genuinely skewed sampler, and
    // deterministic anyway because every seed above is fixed.
    let expected = successes as f64 / 64.0;
    let chi2: f64 = counts
        .values()
        .map(|&observed| {
            let d = observed as f64 - expected;
            d * d / expected
        })
        .sum();
    eprintln!("chi-square statistic: {chi2:.1} over 63 degrees of freedom");
    assert!(
        chi2 < 160.0,
        "chi-square statistic {chi2:.1} is far from uniform"
    );
}

/// The partitioning edge cases: an empty request, and more workers than
/// samples, at every worker count the proptests use.
#[test]
fn parallel_batch_edge_cases() {
    let f = formula_with_count(4, 1);
    let prepared = UniGen::new(&f, UniGenConfig::default()).unwrap();
    let serial = prepared.clone().sample_batch(3, 9);
    for workers in [1usize, 2, 3, 8] {
        assert!(service_batch(&prepared, workers, 0, 3).is_empty());
        let batch = service_batch(&prepared, workers, 3, 9);
        assert_eq!(batch.len(), 3);
        assert_eq!(witness_sequence(&batch), witness_sequence(&serial));
    }
}
