//! Regression tests for degenerate xor constraints under activation guards.
//!
//! `XorClause::new` normalises rows (sorts, cancels duplicate variables), so
//! a hash row drawn from `H_xor` can legitimately arrive as the empty
//! constraint (all-zero coefficient row) or as a unit (single coefficient).
//! Under a guard `g` the semantics are `g ∨ (xor)`:
//!
//! * empty with rhs = 1 (`0 = 1`) must become the **unit clause `g`** — the
//!   guarded layer is unsatisfiable, the solver is not;
//! * a unit row `v = b` must become the **binary clause `g ∨ v^b`** — the
//!   value is forced only while the guard is assumed.
//!
//! Both must hold on every route a guarded xor can take into the solver:
//! the watched-variable engine and the Gauss–Jordan matrix path.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unigen_cnf::{dimacs, Var, XorClause};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{
    bounded_solutions, enumerate_cell, Budget, GaussMode, KnownWitnesses, Solver, SolverConfig,
};

fn config(gauss: GaussMode) -> SolverConfig {
    // On builds a matrix for every guarded layer, however small; Off
    // keeps every row on the watched engine.
    SolverConfig {
        gauss,
        ..SolverConfig::default()
    }
}

fn both_modes() -> [SolverConfig; 2] {
    [config(GaussMode::Off), config(GaussMode::On)]
}

#[test]
fn guarded_empty_unsat_xor_is_unit_guard_not_global_unsat() {
    for cfg in both_modes() {
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, cfg.clone());
        let guard = solver.new_guard();
        // All-zero coefficient row with target ⊕ constant = 1: `0 = 1`.
        solver.add_xor_under(XorClause::new([], true), guard);
        assert!(
            solver
                .solve_under_assumptions(&[guard.assumption()])
                .is_unsat(),
            "the guarded layer is unsatisfiable ({cfg:?})"
        );
        assert!(
            solver.is_consistent(),
            "an unsatisfiable layer must not poison the solver ({cfg:?})"
        );
        assert!(solver.solve().is_sat(), "base formula unharmed ({cfg:?})");
        solver.retire_guard(guard);
        assert!(solver.solve().is_sat());
    }
}

#[test]
fn guarded_empty_tautological_xor_is_dropped() {
    for cfg in both_modes() {
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, cfg);
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::new([], false), guard);
        let cell = {
            let sampling: Vec<Var> = (0..2).map(Var::new).collect();
            let mut models = HashSet::new();
            loop {
                match solver.solve_under_assumptions(&[guard.assumption()]) {
                    unigen_satsolver::SolveResult::Sat(m) => {
                        let blocking: Vec<_> = m.to_lits().iter().map(|&l| !l).collect();
                        solver.add_clause_under(unigen_cnf::Clause::new(blocking), guard);
                        models.insert(sampling.iter().map(|&v| m.value(v)).collect::<Vec<_>>());
                    }
                    unigen_satsolver::SolveResult::Unsat => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            models
        };
        assert_eq!(cell.len(), 3, "0 = 0 must not constrain anything");
        solver.retire_guard(guard);
    }
}

#[test]
fn guarded_unit_xor_is_a_binary_clause_not_an_unconditional_unit() {
    for cfg in both_modes() {
        let f = dimacs::parse("p cnf 2 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, cfg.clone());
        let guard = solver.new_guard();
        // Single-coefficient row: x1 = 1, guarded.
        solver.add_xor_under(XorClause::from_dimacs([1], true), guard);

        // Under the guard the unit binds…
        let model = solver
            .solve_under_assumptions(&[guard.assumption()])
            .model()
            .cloned()
            .expect("satisfiable under the guard");
        assert!(model.value(Var::from_dimacs(1)), "unit binds in-cell");

        // …but without the assumption both polarities of x1 remain
        // reachable: the constraint is `g ∨ x1`, not the unit `x1`.
        for polarity in [true, false] {
            let assumption = Var::from_dimacs(1).lit(polarity);
            assert!(
                solver.solve_under_assumptions(&[assumption]).is_sat(),
                "x1 = {polarity} must stay reachable outside the cell ({cfg:?})"
            );
        }
        solver.retire_guard(guard);
        assert!(solver
            .solve_under_assumptions(&[Var::from_dimacs(1).negative()])
            .is_sat());
    }
}

/// Draws hash layers from `XorHashFamily` with adversarial seeds until the
/// layer contains a degenerate row of the requested kind, then checks the
/// guarded cell against a scratch enumeration of the conjoined formula.
fn degenerate_layer_roundtrip(want_empty: bool) {
    let f = dimacs::parse("p cnf 3 1\n1 2 3 0\n").unwrap();
    let sampling: Vec<Var> = (0..3).map(Var::new).collect();
    let family = XorHashFamily::new(sampling.clone());

    let mut found = 0usize;
    for seed in 0..500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = family.sample(2, &mut rng).to_xor_clauses();
        let hit = layer.iter().any(|xor| {
            if want_empty {
                xor.is_empty()
            } else {
                xor.len() == 1
            }
        });
        if !hit {
            continue;
        }
        found += 1;

        for cfg in both_modes() {
            let mut solver = Solver::from_formula_with_config(&f, cfg.clone());
            let cell = enumerate_cell(
                &mut solver,
                &sampling,
                &layer,
                1 << 8,
                &Budget::new(),
                &KnownWitnesses::new(),
            );
            assert!(cell.is_exhaustive());
            assert!(
                solver.is_consistent(),
                "degenerate hash layer poisoned the solver (seed {seed}, {cfg:?})"
            );

            // Reference: a throwaway solver over the conjoined formula.
            let mut hashed = f.clone();
            let mut layer_unsat = false;
            for xor in &layer {
                if hashed.add_xor_clause(xor.clone()).is_err() || xor.is_trivially_false() {
                    layer_unsat = true;
                }
            }
            let reference: HashSet<Vec<bool>> = if layer_unsat {
                HashSet::new()
            } else {
                let mut scratch = Solver::from_formula(&hashed);
                bounded_solutions(&mut scratch, &sampling, 1 << 8, &Budget::new())
                    .witnesses
                    .iter()
                    .map(|m| sampling.iter().map(|&v| m.value(v)).collect())
                    .collect()
            };
            let got: HashSet<Vec<bool>> = cell
                .witnesses
                .iter()
                .map(|m| sampling.iter().map(|&v| m.value(v)).collect())
                .collect();
            assert_eq!(got, reference, "seed {seed}, {cfg:?}");

            // The solver survives the degenerate layer: the base formula's
            // 7 models are all still reachable afterwards.
            let after = enumerate_cell(
                &mut solver,
                &sampling,
                &[],
                1 << 8,
                &Budget::new(),
                &KnownWitnesses::new(),
            );
            assert_eq!(after.len(), 7, "seed {seed}, {cfg:?}");
        }
        if found >= 5 {
            return;
        }
    }
    assert!(
        found > 0,
        "no adversarial draw found; widen the seed search"
    );
}

#[test]
fn all_zero_coefficient_hash_rows_roundtrip() {
    degenerate_layer_roundtrip(true);
}

#[test]
fn single_coefficient_hash_rows_roundtrip() {
    degenerate_layer_roundtrip(false);
}
