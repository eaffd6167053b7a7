//! Degenerate-certificate coverage: the edges where proof logging could
//! plausibly emit nothing, emit garbage, or claim too much.
//!
//! * An **empty cell** (the first `BSAT` call is immediately Unsat) must
//!   still produce a complete certificate: zero witnesses backed by a
//!   checked refutation of the cell.
//! * An **unsatisfiable base formula** must yield the same typed
//!   [`SamplerError::Unsatisfiable`] through both preparation entry points
//!   with certification on — the refutation is proof-checked in passing,
//!   never surfaced as a certification failure.
//! * An **interrupted** enumeration must never be certifiable as
//!   exhaustive: the stream checks as far as it goes, and
//!   [`unigen_cert::Report::require_complete`] returns the typed
//!   [`CheckError::CertIncomplete`] — a bogus exhaustion proof is the one
//!   thing the checker exists to make impossible.

use unigen::{cert_formula, SamplerError, UniGen, UniGenConfig};
use unigen_cert::{CheckError, Checker};
use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
use unigen_satsolver::{enumerate_cell, Budget, KnownWitnesses, ProofLog, Solver, SolverConfig};

fn proof_solver(f: &CnfFormula) -> Solver {
    Solver::from_formula_with_config(
        f,
        SolverConfig {
            proof: Some(ProofLog::new()),
            ..SolverConfig::default()
        },
    )
}

#[test]
fn an_empty_cell_certifies_as_zero_witnesses_with_a_refutation() {
    // The formula is satisfiable, but the cell's two xor rows contradict
    // each other (x1 = 1 and x1 = 0): the first solve under the guard is
    // immediately Unsat and the witness list is empty.
    let mut f = CnfFormula::new(2);
    f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
        .unwrap();
    let sampling = f.sampling_set_or_all();
    let mut solver = proof_solver(&f);
    let xors = vec![
        XorClause::new([Var::from_dimacs(1)], true),
        XorClause::new([Var::from_dimacs(1)], false),
    ];
    let outcome = enumerate_cell(
        &mut solver,
        &sampling,
        &xors,
        8,
        &Budget::new(),
        &KnownWitnesses::new(),
    );
    assert!(outcome.is_exhaustive());
    assert!(outcome.is_empty());

    let bytes = solver.proof_bytes().expect("proof sink installed").to_vec();
    let report = Checker::check(&cert_formula(&f), &bytes).expect("the empty cell checks");
    report.require_complete().expect("the cell closed properly");
    assert_eq!(report.cells.len(), 1);
    assert!(report.cells[0].exhaustive());
    assert!(report.cells[0].witnesses.is_empty());
}

#[test]
fn unsat_base_formula_is_typed_through_both_prepare_entry_points() {
    let mut f = CnfFormula::new(2);
    f.add_clause([Lit::from_dimacs(1)]).unwrap();
    f.add_clause([Lit::from_dimacs(-1)]).unwrap();

    let config = UniGenConfig::default().with_certify(true);
    match UniGen::new(&f, config.clone()) {
        Err(SamplerError::Unsatisfiable) => {}
        other => panic!("UniGen::new: expected Unsatisfiable, got {other:?}"),
    }
    match UniGen::with_sampling_set(&f, &[Var::from_dimacs(1)], config) {
        Err(SamplerError::Unsatisfiable) => {}
        other => panic!("with_sampling_set: expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn an_unsat_preparation_stream_checks_as_a_refutation() {
    // The same degenerate input, certified at the solver layer: the
    // enumeration of the preparation cell refutes the base formula, and
    // the checker's report says so in as many words.
    let mut f = CnfFormula::new(2);
    f.add_clause([Lit::from_dimacs(1)]).unwrap();
    f.add_clause([Lit::from_dimacs(-1)]).unwrap();
    let sampling = f.sampling_set_or_all();
    let mut solver = proof_solver(&f);
    let outcome = enumerate_cell(
        &mut solver,
        &sampling,
        &[],
        8,
        &Budget::new(),
        &KnownWitnesses::new(),
    );
    assert!(outcome.is_exhaustive() && outcome.is_empty());

    let bytes = solver.proof_bytes().expect("proof sink installed").to_vec();
    let report = Checker::check(&cert_formula(&f), &bytes).expect("the refutation checks");
    report.require_complete().expect("the cell closed properly");
}

#[test]
fn an_interrupted_enumeration_is_typed_incomplete_never_exhaustive() {
    // A conflict budget of zero interrupts the first solve call inside the
    // cell: whatever was logged up to that point must check, and the cell
    // certificate must be *typed* incomplete rather than silently (or
    // bogusly) exhaustive.
    let mut f = CnfFormula::new(3);
    f.add_clause([
        Lit::from_dimacs(1),
        Lit::from_dimacs(2),
        Lit::from_dimacs(3),
    ])
    .unwrap();
    let sampling = f.sampling_set_or_all();
    let mut solver = proof_solver(&f);
    let budget = Budget::new().with_step_limit(0);
    let outcome = enumerate_cell(
        &mut solver,
        &sampling,
        &[],
        8,
        &budget,
        &KnownWitnesses::new(),
    );
    assert!(
        outcome.interrupted.is_some(),
        "a zero step budget interrupts the first solve: {outcome:?}"
    );
    assert!(!outcome.is_exhaustive());

    let bytes = solver.proof_bytes().expect("proof sink installed").to_vec();
    let report =
        Checker::check(&cert_formula(&f), &bytes).expect("the interrupted prefix still checks");
    let err = report
        .require_complete()
        .expect_err("an interrupted cell is not a complete certificate");
    assert!(
        matches!(err, CheckError::CertIncomplete { .. }),
        "expected the typed CertIncomplete, got {err:?}"
    );
    assert!(
        report.cells.iter().all(|c| !c.exhaustive()),
        "an interrupted cell must never certify as exhaustive: {report:?}"
    );
}
