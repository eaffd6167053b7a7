//! Adversarial proof-mutation tests: the `unigen-cert` checker must accept
//! a solver-produced proof stream verbatim and reject every seeded
//! mutation of it — a checker that accepts a doctored certificate is worse
//! than no checker, because it launders the very verdicts it exists to
//! audit.
//!
//! Mutations are spliced at step granularity using
//! [`unigen_cert::step_spans`] (drop a step, swap two steps, truncate at a
//! step boundary) or at byte granularity inside a step (corrupt one
//! literal). Step kinds are identified by their leading tag byte — the
//! binary format encodes tags as single-byte varints, so `bytes[offset]`
//! *is* the tag.

use unigen::cert_formula;
use unigen_cert::{step_spans, CheckError, Checker, Rule};
use unigen_cnf::{CnfFormula, Lit, Model, Var, XorClause};
use unigen_satsolver::{enumerate_cell, Budget, KnownWitnesses, ProofLog, Solver, SolverConfig};

/// Step tags of the binary proof format (see `unigen_satsolver::proof`).
const TAG_AXIOM: u8 = 6;
const TAG_CELL_BEGIN: u8 = 8;
const TAG_WITNESS: u8 = 9;
const TAG_BLOCK: u8 = 10;
const TAG_UNSAT_UNDER: u8 = 11;

/// A satisfiable formula with an xor-hashed cell that enumerates
/// exhaustively: the stream then contains axioms, xor rows, witnesses,
/// blocking clauses, and the residue refutation — every step kind the
/// mutations below target.
fn certified_stream() -> (unigen_cert::Formula, Vec<u8>) {
    let mut f = CnfFormula::new(4);
    f.add_clause([
        Lit::from_dimacs(1),
        Lit::from_dimacs(2),
        Lit::from_dimacs(3),
    ])
    .unwrap();
    f.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(4)])
        .unwrap();
    f.set_sampling_set([
        Var::from_dimacs(1),
        Var::from_dimacs(2),
        Var::from_dimacs(3),
    ])
    .unwrap();
    let sampling = f.sampling_set_or_all();

    let mut solver = Solver::from_formula_with_config(
        &f,
        SolverConfig {
            proof: Some(ProofLog::new()),
            ..SolverConfig::default()
        },
    );
    let xors = vec![XorClause::from_dimacs([1, 2], true)];
    let outcome = enumerate_cell(
        &mut solver,
        &sampling,
        &xors,
        64,
        &Budget::new(),
        &KnownWitnesses::new(),
    );
    assert!(outcome.is_exhaustive(), "the cell must enumerate fully");
    assert!(!outcome.witnesses.is_empty(), "the cell must be non-empty");

    let bytes = solver.proof_bytes().expect("proof sink installed").to_vec();
    (cert_formula(&f), bytes)
}

/// Returns the spans whose step has the given tag byte.
fn spans_of(bytes: &[u8], spans: &[(usize, usize)], tag: u8) -> Vec<(usize, usize)> {
    spans
        .iter()
        .copied()
        .filter(|&(off, _)| bytes[off] == tag)
        .collect()
}

/// Rebuilds a stream from `spans` with the steps at indices `a` and `b`
/// exchanged.
fn swap_steps(bytes: &[u8], spans: &[(usize, usize)], a: usize, b: usize) -> Vec<u8> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.swap(a, b);
    let mut out = Vec::with_capacity(bytes.len());
    for i in order {
        let (off, len) = spans[i];
        out.extend_from_slice(&bytes[off..off + len]);
    }
    out
}

fn splice_out(bytes: &[u8], span: (usize, usize)) -> Vec<u8> {
    let mut out = bytes[..span.0].to_vec();
    out.extend_from_slice(&bytes[span.0 + span.1..]);
    out
}

#[test]
fn the_unmutated_stream_is_accepted_and_complete() {
    let (f, bytes) = certified_stream();
    let report = Checker::check(&f, &bytes).expect("the original stream checks");
    report.require_complete().expect("every cell closed");
    assert_eq!(report.cells.len(), 1);
    assert!(report.cells[0].exhaustive());
}

#[test]
fn dropping_a_witness_step_is_rejected() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let witnesses = spans_of(&bytes, &spans, TAG_WITNESS);
    assert!(!witnesses.is_empty());
    // The orphaned blocking clause no longer matches a pending witness.
    let mutated = splice_out(&bytes, witnesses[0]);
    Checker::check(&f, &mutated).expect_err("a dropped witness must be caught");
}

#[test]
fn dropping_the_unsat_verdict_makes_exhaustion_bogus() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let verdicts = spans_of(&bytes, &spans, TAG_UNSAT_UNDER);
    assert!(!verdicts.is_empty());
    let mutated = splice_out(&bytes, verdicts[0]);
    let err = Checker::check(&f, &mutated).expect_err("exhaustion now lacks its refutation");
    assert!(
        matches!(&err, CheckError::Rejected { .. }),
        "expected a rejected step, got {err:?}"
    );
}

#[test]
fn corrupting_a_blocking_literal_is_rejected() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let blocks = spans_of(&bytes, &spans, TAG_BLOCK);
    assert!(!blocks.is_empty());
    // The last byte of a block step is its final zigzag literal (all vars
    // here fit single-byte varints); xor 1 flips that literal's sign, so
    // the clause is no longer the negated projection of its witness.
    let (off, len) = blocks[0];
    let mut mutated = bytes.clone();
    mutated[off + len - 1] ^= 1;
    Checker::check(&f, &mutated).expect_err("a corrupted blocking literal must be caught");
}

#[test]
fn corrupting_an_axiom_literal_is_rejected() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let axioms = spans_of(&bytes, &spans, TAG_AXIOM);
    assert!(!axioms.is_empty(), "base clauses are logged as axioms");
    let (off, len) = axioms[0];
    let mut mutated = bytes.clone();
    mutated[off + len - 1] ^= 1;
    Checker::check(&f, &mutated).expect_err("the clause is no longer in the base formula");
}

#[test]
fn permuting_witness_and_block_is_rejected() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let witness_idx = spans
        .iter()
        .position(|&(off, _)| bytes[off] == TAG_WITNESS)
        .unwrap();
    let block_idx = spans
        .iter()
        .position(|&(off, _)| bytes[off] == TAG_BLOCK)
        .unwrap();
    let mutated = swap_steps(&bytes, &spans, witness_idx, block_idx);
    Checker::check(&f, &mutated).expect_err("a block may not precede its witness");
}

#[test]
fn permuting_cell_begin_into_the_cell_is_rejected() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let begin_idx = spans
        .iter()
        .position(|&(off, _)| bytes[off] == TAG_CELL_BEGIN)
        .unwrap();
    let witness_idx = spans
        .iter()
        .position(|&(off, _)| bytes[off] == TAG_WITNESS)
        .unwrap();
    assert!(begin_idx < witness_idx);
    let mutated = swap_steps(&bytes, &spans, begin_idx, witness_idx);
    Checker::check(&f, &mutated).expect_err("a witness outside its cell must be caught");
}

#[test]
fn truncating_the_residue_proof_never_claims_exhaustion() {
    let (f, bytes) = certified_stream();
    let spans = step_spans(&bytes).unwrap();
    let verdicts = spans_of(&bytes, &spans, TAG_UNSAT_UNDER);
    let cut = verdicts[0].0;

    // Truncation at a step boundary leaves a well-formed stream whose cell
    // never closes: the verified prefix is usable, but the typed
    // incompleteness error forbids treating it as an exhaustive cell.
    let report = Checker::check(&f, &bytes[..cut]).expect("the prefix itself is valid");
    let err = report
        .require_complete()
        .expect_err("an unclosed cell is incomplete");
    assert!(
        matches!(err, CheckError::CertIncomplete { .. }),
        "expected CertIncomplete, got {err:?}"
    );
    assert!(
        report.cells.iter().all(|c| !c.exhaustive()),
        "no truncated cell may claim exhaustion"
    );

    // Truncation inside a step is flagged as such.
    let err = Checker::check(&f, &bytes[..cut + 1]).expect_err("a torn step cannot check");
    assert!(
        matches!(err, CheckError::Truncated { .. }),
        "expected Truncated, got {err:?}"
    );
}

/// A formula over four sampling variables with 14 witnesses: `x1 ∨ x2 ∨
/// x3`, and `x4` free.
fn replay_formula() -> CnfFormula {
    let mut f = CnfFormula::new(4);
    f.add_clause([
        Lit::from_dimacs(1),
        Lit::from_dimacs(2),
        Lit::from_dimacs(3),
    ])
    .unwrap();
    f
}

fn proof_solver(f: &CnfFormula) -> Solver {
    Solver::from_formula_with_config(
        f,
        SolverConfig {
            proof: Some(ProofLog::new()),
            ..SolverConfig::default()
        },
    )
}

/// The rule a rejected stream broke.
fn rejected_rule(err: &CheckError) -> Option<Rule> {
    match err {
        CheckError::Rejected { rule, .. } => Some(*rule),
        _ => None,
    }
}

#[test]
fn replayed_cells_pass_the_independent_checker() {
    let f = replay_formula();
    let sampling: Vec<Var> = (0..4).map(Var::new).collect();
    let layers = [
        vec![XorClause::from_dimacs([1, 4], true)],
        vec![XorClause::from_dimacs([2, 4], false)],
        vec![
            XorClause::from_dimacs([1, 2], true),
            XorClause::from_dimacs([3, 4], false),
        ],
        vec![],
    ];
    let mut solver = proof_solver(&f);
    let mut reference = Solver::from_formula(&f);
    let mut known = KnownWitnesses::new();
    let mut replayed = 0;
    for layer in &layers {
        let cell = enumerate_cell(&mut solver, &sampling, layer, 64, &Budget::new(), &known);
        let searched = enumerate_cell(
            &mut reference,
            &sampling,
            layer,
            64,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert!(cell.is_exhaustive() && searched.is_exhaustive());
        let set = |o: &unigen_satsolver::EnumerationOutcome| {
            let mut s: Vec<_> = o.witnesses.iter().map(|w| w.project(&sampling)).collect();
            s.sort_by_key(|p| p.as_index());
            s
        };
        assert_eq!(set(&cell), set(&searched));
        replayed += cell.replayed;
        known.extend(cell.found());
    }
    assert!(replayed > 0, "no cell replayed a known witness");

    let bytes = solver.proof_bytes().expect("proof sink installed").to_vec();
    let report = Checker::check(&cert_formula(&f), &bytes).expect("the replayed stream checks");
    report.require_complete().expect("every cell closed");
    assert_eq!(report.cells.len(), layers.len());
    assert!(report.cells.iter().all(|c| c.exhaustive()));
    // The last cell is the whole formula, every witness of it replayed.
    assert_eq!(report.cells[3].witnesses.len(), 14);
}

#[test]
fn a_replayed_non_witness_is_rejected() {
    let f = replay_formula();
    let sampling: Vec<Var> = (0..4).map(Var::new).collect();
    let row = vec![XorClause::from_dimacs([1, 4], true)];

    // A known "witness" that satisfies the cell's row but falsifies the
    // base clause x1 ∨ x2 ∨ x3: the replay counts it without a solve, and
    // the checker's semantic witness check refuses it.
    let mut known = KnownWitnesses::new();
    known.push(&Model::new(vec![false, false, false, true]));
    let mut solver = proof_solver(&f);
    let cell = enumerate_cell(&mut solver, &sampling, &row, 64, &Budget::new(), &known);
    assert_eq!(cell.replayed, 1);
    let bytes = solver.proof_bytes().unwrap().to_vec();
    let err = Checker::check(&cert_formula(&f), &bytes).expect_err("a non-witness was replayed");
    assert_eq!(rejected_rule(&err), Some(Rule::BadWitness), "{err:?}");

    // A replayed witness whose logged model is moved off the cell's row:
    // flipping x4 keeps x1 ∨ x2 ∨ x3 true but breaks x1 ⊕ x4 = 1.
    let mut known = KnownWitnesses::new();
    known.push(&Model::new(vec![true, false, false, false]));
    let mut solver = proof_solver(&f);
    let cell = enumerate_cell(&mut solver, &sampling, &row, 64, &Budget::new(), &known);
    assert_eq!(cell.replayed, 1);
    let bytes = solver.proof_bytes().unwrap().to_vec();
    Checker::check(&cert_formula(&f), &bytes).expect("the honest replay checks");
    let spans = step_spans(&bytes).unwrap();
    // The cell's first witness step is the replayed one; its payload is
    // the tag, the variable count, then the bits LSB first.
    let (off, _) = spans_of(&bytes, &spans, TAG_WITNESS)[0];
    assert_eq!(bytes[off + 2] & 0b1111, 0b0001);
    let mut mutated = bytes.clone();
    mutated[off + 2] ^= 0b1000;
    let err = Checker::check(&cert_formula(&f), &mutated).expect_err("the row is violated");
    assert_eq!(rejected_rule(&err), Some(Rule::BadWitness), "{err:?}");
}
