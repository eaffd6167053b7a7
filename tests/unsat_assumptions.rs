//! Unsat-under-assumptions regressions, driven by the sgen hard-unsat
//! family: guarded cells that are unsatisfiable must leave the persistent
//! solver fully consistent once their guard is retired, and the sampler
//! layer must answer requests on unsat formulas with typed errors (UniGen
//! preparation) or clean ⊥ outcomes (UniWit/XorSample' sampling) without
//! wedging a service worker.

use std::collections::BTreeSet;

use unigen::{
    SampleRequest, SamplerError, SamplerService, ServiceConfig, UniGen, UniGenConfig, UniWit,
    UniWitConfig, WitnessSampler, XorSamplePrime, XorSamplePrimeConfig,
};
use unigen_cnf::{CnfFormula, Var};
use unigen_instgen::{InstanceGenerator, SgenConfig};
use unigen_satsolver::{enumerate_cell, Budget, SolveResult, Solver};

fn sgen(blocks: usize, unsat: bool, seed: u64) -> CnfFormula {
    SgenConfig { blocks, unsat }.generate(seed)
}

fn witness_set(
    solver: &mut Solver,
    sampling_set: &[Var],
    bound: usize,
) -> (BTreeSet<Vec<bool>>, bool) {
    let outcome = enumerate_cell(solver, sampling_set, &[], bound, &Budget::new());
    let set = outcome
        .witnesses
        .iter()
        .map(|w| sampling_set.iter().map(|v| w.values()[v.index()]).collect())
        .collect();
    (set, outcome.is_exhaustive())
}

/// A guarded overlay of hard-unsat clauses on a satisfiable base yields
/// Unsat under the guard's assumption, and retiring the guard restores the
/// solver exactly: same witness set as before, balanced guard accounting.
#[test]
fn guarded_unsat_overlay_leaves_the_persistent_solver_consistent() {
    // Both variants at the same block count share a variable range, so the
    // unsat clauses overlay the sat base directly.
    let base = sgen(2, false, 11);
    let overlay = sgen(2, true, 12);
    assert_eq!(base.num_vars(), overlay.num_vars());
    let sampling_set = base.sampling_set_or_all();

    let mut solver = Solver::from_formula(&base);
    let (before, exhaustive) = witness_set(&mut solver, &sampling_set, 512);
    assert!(exhaustive, "the sat base must enumerate exhaustively");
    assert!(!before.is_empty());

    let guard = solver.new_guard();
    for clause in overlay.clauses() {
        solver.add_clause_under(clause.clone(), guard);
    }
    assert!(
        matches!(
            solver.solve_under_assumptions(&[guard.assumption()]),
            SolveResult::Unsat
        ),
        "the guarded hard-unsat overlay must refute under its assumption"
    );
    // Without the assumption, the base formula is still satisfiable.
    assert!(matches!(solver.solve(), SolveResult::Sat(_)));
    solver.retire_guard(guard);

    let (after, exhaustive) = witness_set(&mut solver, &sampling_set, 512);
    assert!(exhaustive);
    assert_eq!(
        before, after,
        "retired unsat overlay changed the base witness set"
    );
    let stats = solver.stats();
    assert_eq!(stats.guards_created, stats.guards_retired, "guard leak");
}

/// Repeated guarded cells directly on a hard-unsat base: every cell is
/// exhaustively empty, the solver survives an arbitrary number of them, and
/// guard accounting stays balanced throughout.
#[test]
fn repeated_unsat_cells_keep_the_solver_reusable() {
    let formula = sgen(2, true, 5);
    let sampling_set = formula.sampling_set_or_all();
    let mut solver = Solver::from_formula(&formula);
    for round in 0..8 {
        let outcome = enumerate_cell(&mut solver, &sampling_set, &[], 16, &Budget::new());
        assert!(
            outcome.is_exhaustive() && outcome.is_empty(),
            "round {round}: unsat base must enumerate exhaustively empty"
        );
    }
    let stats = solver.stats();
    assert_eq!(stats.guards_created, stats.guards_retired);
    assert!(stats.solve_calls >= 8);
}

/// UniGen preparation on an unsat formula fails with the typed
/// `Unsatisfiable` error.
#[test]
fn unigen_preparation_reports_unsatisfiable() {
    let formula = sgen(2, true, 3);
    assert!(matches!(
        UniGen::new(&formula, UniGenConfig::default()),
        Err(SamplerError::Unsatisfiable)
    ));
}

/// UniWit and XorSample' prepare on unsat input (their width scan is
/// per-sample) and answer every request with ⊥ — and through the service,
/// a follow-up request still completes, proving no worker wedged.
#[test]
fn service_answers_unsat_requests_with_clean_bottoms() {
    let formula = sgen(2, true, 7);

    let uniwit = UniWit::new(&formula, UniWitConfig::default()).expect("UniWit prepares on unsat");
    let serial = uniwit.clone().sample_batch(6, 0x5eed);
    assert!(serial.iter().all(|o| o.witness.is_none()));

    let service = SamplerService::try_new(
        uniwit,
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(4),
    )
    .unwrap();
    for round in 0u64..3 {
        let response = service.submit(SampleRequest::new(6, 0x5eed + round)).wait();
        assert_eq!(response.outcomes.len(), 6, "round {round} lost outcomes");
        assert_eq!(response.successes(), 0, "round {round} found a witness");
        assert!(response.outcomes.iter().all(|o| o.witness.is_none()));
    }

    let xorsample = XorSamplePrime::new(&formula, XorSamplePrimeConfig::default())
        .expect("XorSample' prepares on unsat");
    let batch = xorsample.clone().sample_batch(4, 1);
    assert!(batch.iter().all(|o| o.witness.is_none()));
}
