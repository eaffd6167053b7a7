//! Equivalence of the incremental guard-scoped solver against a fresh
//! scratch solver: for random base formulas and random sequences of XOR hash
//! layers, solving/enumerating each layer on one persistent solver (via
//! guards and assumptions) must agree exactly with building a throwaway
//! solver per layer — the property the samplers' correctness rests on.

use std::collections::HashSet;

use proptest::prelude::*;

use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
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
