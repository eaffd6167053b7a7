//! Equivalence of the incremental guard-scoped solver against a fresh
//! scratch solver: for random base formulas and random sequences of XOR hash
//! layers, solving/enumerating each layer on one persistent solver (via
//! guards and assumptions) must agree exactly with building a throwaway
//! solver per layer — the property the samplers' correctness rests on.
//! A solver shrunk with `Solver::shrink_to_fit` (which also drops its watch
//! lists until its next use) must keep finding exactly the witnesses its
//! unshrunk twin finds, and so must every clone of it.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::SeedableRng;

use unigen::{cert_formula, UniGen, UniGenConfig, WitnessSampler};
use unigen_cert::Checker;
use unigen_circuit::benchmarks::{iscas_like, login_like, sorter};
use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{
    bounded_solutions, enumerate_cell, Budget, GaussMode, SolveResult, Solver, SolverConfig,
};

/// Strategy producing small random formulas with both clause kinds.
fn small_formula() -> impl Strategy<Value = CnfFormula> {
    let num_vars = 3usize..8;
    num_vars.prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, proptest::bool::ANY), 1..4);
        let clauses = proptest::collection::vec(clause, 0..10);
        (Just(n), clauses).prop_map(|(n, clauses)| {
            let mut f = CnfFormula::new(n);
            for clause in clauses {
                let lits: Vec<Lit> = clause
                    .into_iter()
                    .map(|(v, sign)| Var::new(v).lit(sign))
                    .collect();
                f.add_clause(lits).unwrap();
            }
            f
        })
    })
}

/// Strategy producing a sequence of random XOR hash layers over `n` vars.
fn hash_layers(n: usize) -> impl Strategy<Value = Vec<Vec<XorClause>>> {
    let xor = (proptest::collection::vec(0..n, 1..4), proptest::bool::ANY);
    let layer = proptest::collection::vec(xor, 1..4);
    proptest::collection::vec(layer, 1..5).prop_map(|layers| {
        layers
            .into_iter()
            .map(|layer| {
                layer
                    .into_iter()
                    .map(|(vars, rhs)| {
                        XorClause::new(vars.into_iter().map(Var::new).collect::<Vec<_>>(), rhs)
                    })
                    .collect()
            })
            .collect()
    })
}

/// Formula together with a layer sequence.
fn formula_with_layers() -> impl Strategy<Value = (CnfFormula, Vec<Vec<XorClause>>)> {
    small_formula().prop_flat_map(|f| {
        let n = f.num_vars();
        (Just(f), hash_layers(n))
    })
}

fn projections(models: &[unigen_cnf::Model], vars: &[Var]) -> HashSet<Vec<bool>> {
    models
        .iter()
        .map(|m| vars.iter().map(|&v| m.value(v)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `enumerate_cell` on one persistent solver yields, for every layer of
    /// a random sequence, exactly the model set a scratch solver finds for
    /// the conjoined formula — and the persistent solver is unharmed by all
    /// the layers that came before.
    #[test]
    fn guarded_cells_match_scratch_enumeration(
        (formula, layers) in formula_with_layers()
    ) {
        let all_vars: Vec<Var> = (0..formula.num_vars()).map(Var::new).collect();
        let budget = Budget::new();
        let mut persistent = Solver::from_formula(&formula);
        for layer in &layers {
            let cell = enumerate_cell(&mut persistent, &all_vars, layer, 1 << 12, &budget);
            prop_assert!(cell.is_exhaustive());

            let mut hashed = formula.clone();
            for xor in layer {
                hashed.add_xor_clause(xor.clone()).unwrap();
            }
            let mut scratch = Solver::from_formula(&hashed);
            let reference = bounded_solutions(&mut scratch, &all_vars, 1 << 12, &budget);
            prop_assert!(reference.is_exhaustive());

            prop_assert_eq!(
                projections(&cell.witnesses, &all_vars),
                projections(&reference.witnesses, &all_vars)
            );
            for w in &cell.witnesses {
                prop_assert!(hashed.evaluate(w));
            }
        }
        // After every guard has been retired the base formula's model set is
        // fully intact.
        let base = enumerate_cell(&mut persistent, &all_vars, &[], 1 << 12, &budget);
        let brute = formula.enumerate_models_brute_force();
        prop_assert_eq!(base.len(), brute.len());
    }

    /// Gauss–Jordan-on and Gauss–Jordan-off enumeration produce identical
    /// witness sets for every cell of a random layer sequence — including
    /// degenerate rows (duplicate variables cancel to empty/unit rows) and
    /// guard retire/re-add cycles over the same variables (`enumerate_cell`
    /// cycles one guard per layer) — and both agree with a scratch solver
    /// on the conjoined formula.
    #[test]
    fn gauss_on_and_off_enumerate_identical_cells(
        (formula, layers) in formula_with_layers()
    ) {
        let all_vars: Vec<Var> = (0..formula.num_vars()).map(Var::new).collect();
        let budget = Budget::new();
        let on = SolverConfig {
            gauss: GaussMode::On,
            ..SolverConfig::default()
        };
        let off = SolverConfig {
            gauss: GaussMode::Off,
            ..SolverConfig::default()
        };
        let mut gauss_solver = Solver::from_formula_with_config(&formula, on);
        let mut watched_solver = Solver::from_formula_with_config(&formula, off);
        for layer in &layers {
            let gauss_cell =
                enumerate_cell(&mut gauss_solver, &all_vars, layer, 1 << 12, &budget);
            let watched_cell =
                enumerate_cell(&mut watched_solver, &all_vars, layer, 1 << 12, &budget);
            prop_assert!(gauss_cell.is_exhaustive());
            prop_assert!(watched_cell.is_exhaustive());
            prop_assert_eq!(
                projections(&gauss_cell.witnesses, &all_vars),
                projections(&watched_cell.witnesses, &all_vars)
            );

            let mut hashed = formula.clone();
            let mut layer_unsat = false;
            for xor in layer {
                layer_unsat |= xor.is_trivially_false();
                hashed.add_xor_clause(xor.clone()).unwrap();
            }
            let reference = if layer_unsat {
                HashSet::new()
            } else {
                let mut scratch = Solver::from_formula(&hashed);
                let outcome = bounded_solutions(&mut scratch, &all_vars, 1 << 12, &budget);
                prop_assert!(outcome.is_exhaustive());
                projections(&outcome.witnesses, &all_vars)
            };
            prop_assert_eq!(projections(&gauss_cell.witnesses, &all_vars), reference);
            for w in &gauss_cell.witnesses {
                prop_assert!(hashed.evaluate(w));
            }
        }
        // Both persistent solvers end the run unharmed.
        let brute = formula.enumerate_models_brute_force().len();
        for solver in [&mut gauss_solver, &mut watched_solver] {
            let base = enumerate_cell(solver, &all_vars, &[], 1 << 12, &budget);
            prop_assert_eq!(base.len(), brute);
        }
    }

    /// Solving under assumptions agrees with a scratch solver that has the
    /// assumptions added as unit clauses, and never poisons the solver.
    #[test]
    fn assumptions_match_scratch_units(
        formula in small_formula(),
        pattern in proptest::collection::vec((0usize..8, proptest::bool::ANY), 1..4)
    ) {
        let assumptions: Vec<Lit> = {
            let mut seen = HashSet::new();
            pattern
                .into_iter()
                .map(|(v, sign)| Var::new(v % formula.num_vars()).lit(sign))
                .filter(|l| seen.insert(l.var()))
                .collect()
        };
        let mut incremental = Solver::from_formula(&formula);
        let result = incremental.solve_under_assumptions(&assumptions);

        let mut with_units = formula.clone();
        for &a in &assumptions {
            with_units.add_clause([a]).unwrap();
        }
        let mut scratch = Solver::from_formula(&with_units);
        let reference = scratch.solve();

        match (&result, &reference) {
            (SolveResult::Sat(model), SolveResult::Sat(_)) => {
                prop_assert!(with_units.evaluate(model));
                for &a in &assumptions {
                    prop_assert!(model.lit_value(a));
                }
            }
            (SolveResult::Unsat, SolveResult::Unsat) => {}
            other => prop_assert!(false, "verdicts diverge: {other:?}"),
        }
        // Unsat-under-assumptions must not poison the incremental solver:
        // it still agrees with brute force on the bare formula.
        let brute_sat = !formula.enumerate_models_brute_force().is_empty();
        prop_assert_eq!(incremental.solve().is_sat(), brute_sat);
    }
}

/// A prepared sampler keeps a shrunk solver, so shrinking must not change
/// what it finds: after a run of hashed cells, a solver and its shrunk twin
/// enumerate the same next cell (the same witnesses on the sampling set; the
/// compaction rebuilds the watch lists, so the order may differ), and
/// shrinking itself counts as no search. The shrunk solver is frozen (it
/// holds no watch lists), so the cell is enumerated three ways: on the
/// unshrunk twin, on the frozen solver itself, and on a clone of the frozen
/// solver, as a service worker takes it; the last two are thawed by their
/// first solve.
#[test]
fn shrunk_solver_enumerates_the_next_cell_like_its_twin() {
    // Each formula with the narrowest width whose cells drain below the bound.
    let benches = [
        (iscas_like("s526-like", 14, 180, 5, 0x0526), 3),
        (login_like("login3x6-like", 3, 6, 0x1061), 8),
        (sorter("sort4x4-like", 4, 4, 6, 0x5047), 3),
    ];
    for (bench, base_width) in benches {
        let sampling = bench.formula.sampling_set().unwrap().to_vec();
        let family = XorHashFamily::new(sampling.clone());
        let cell = |solver: &mut Solver, rng: &mut rand::rngs::StdRng| {
            let width = base_width + (rand::Rng::gen::<u8>(rng) % 3) as usize;
            let rows = family.sample(width, rng).to_xor_clauses();
            enumerate_cell(solver, &sampling, &rows, 128, &Budget::new())
        };
        let projected = |outcome: &unigen_satsolver::EnumerationOutcome| {
            outcome
                .witnesses
                .iter()
                .map(|w| w.project(&sampling).values().to_vec())
                .collect::<HashSet<_>>()
        };
        for gauss in [GaussMode::Off, GaussMode::On] {
            let config = SolverConfig {
                gauss,
                ..SolverConfig::default()
            };
            let mut solver = Solver::from_formula_with_config(&bench.formula, config);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5412);
            let mut drained = 0;
            for cells in 1..=12 {
                cell(&mut solver, &mut rng);
                let mut shrunk = solver.clone();
                shrunk.shrink_to_fit();
                assert_eq!(shrunk.stats(), solver.stats());
                let mut twin = solver.clone();
                let mut worker = shrunk.clone();
                let expected = cell(&mut twin, &mut rng.clone());
                let context = format!("{} ({gauss:?}) after {cells} cells", bench.name);
                for (who, got) in [
                    ("the shrunk solver", cell(&mut shrunk, &mut rng.clone())),
                    (
                        "a clone of the shrunk solver",
                        cell(&mut worker, &mut rng.clone()),
                    ),
                ] {
                    assert_eq!(
                        got.bound_reached, expected.bound_reached,
                        "{context}: {who}"
                    );
                    if !expected.bound_reached {
                        assert_eq!(
                            projected(&got),
                            projected(&expected),
                            "{context}: {who}: witnesses differ"
                        );
                    }
                }
                drained += usize::from(!expected.bound_reached);
            }
            assert!(drained >= 6, "{}: too few cells drained", bench.name);
            assert!(
                solver.stats().guarded_learned_retired + solver.stats().deleted_clauses > 0,
                "{}: the cells left no deleted clauses to collect",
                bench.name
            );
        }
    }
}

/// A certified prototype is frozen like any other: a worker clone thaws it
/// by its first solve, samples, and the clone's whole proof stream (the
/// prototype's preparation, then the clone's cells) still checks end to end
/// with the independent checker.
#[test]
fn a_thawed_clone_of_a_certified_prototype_keeps_a_checking_proof() {
    let bench = iscas_like("s526-like", 14, 180, 5, 0x0526);
    let prototype =
        UniGen::new(&bench.formula, UniGenConfig::default().with_certify(true)).unwrap();
    let mut worker = prototype.clone();
    let outcomes = worker.sample_batch(4, 0x5eed);
    assert!(outcomes.iter().any(|o| o.witness.is_some()));
    assert!(worker.cert_error().is_none());
    let formula = cert_formula(&bench.formula);
    let bytes = worker.proof_bytes().unwrap().to_vec();
    let report = Checker::check(&formula, &bytes).unwrap();
    report.require_complete().unwrap();
    let mut prototype = prototype;
    let prepared = prototype.proof_bytes().unwrap().len();
    assert!(bytes.len() > prepared, "sampling logged no proof steps");
}
