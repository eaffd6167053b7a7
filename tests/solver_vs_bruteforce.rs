//! Cross-validation of the SAT solver and the bounded enumerator against
//! brute-force evaluation on random CNF+XOR formulas.

use proptest::prelude::*;

use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
use unigen_satsolver::{bounded_solutions, Budget, SolveResult, Solver};

/// Strategy producing small random formulas with both clause kinds.
fn small_formula() -> impl Strategy<Value = CnfFormula> {
    let num_vars = 3usize..9;
    num_vars.prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, proptest::bool::ANY), 1..4);
        let clauses = proptest::collection::vec(clause, 0..12);
        let xor = (proptest::collection::vec(0..n, 1..4), proptest::bool::ANY);
        let xors = proptest::collection::vec(xor, 0..4);
        (Just(n), clauses, xors).prop_map(|(n, clauses, xors)| {
            let mut f = CnfFormula::new(n);
            for clause in clauses {
                let lits: Vec<Lit> = clause
                    .into_iter()
                    .map(|(v, sign)| Var::new(v).lit(sign))
                    .collect();
                f.add_clause(lits).unwrap();
            }
            for (vars, rhs) in xors {
                let vars: Vec<Var> = vars.into_iter().map(Var::new).collect();
                f.add_xor_clause(XorClause::new(vars, rhs)).unwrap();
            }
            f
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The solver's SAT/UNSAT verdict agrees with brute force, and any model
    /// it returns really satisfies the formula.
    #[test]
    fn solver_verdict_matches_brute_force(formula in small_formula()) {
        let brute = formula.enumerate_models_brute_force();
        let mut solver = Solver::from_formula(&formula);
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(formula.evaluate(&model));
                prop_assert!(!brute.is_empty());
            }
            SolveResult::Unsat => prop_assert!(brute.is_empty()),
            SolveResult::Interrupted(_) => {
                prop_assert!(false, "unlimited budget must not time out")
            }
        }
    }

    /// Bounded enumeration over the full support finds exactly the
    /// brute-force model count.
    #[test]
    fn enumeration_counts_match_brute_force(formula in small_formula()) {
        let brute = formula.enumerate_models_brute_force();
        let all_vars: Vec<Var> = (0..formula.num_vars()).map(Var::new).collect();
        let outcome = bounded_solutions(
            &mut Solver::from_formula(&formula),
            &all_vars,
            brute.len() + 5,
            &Budget::new(),
        );
        prop_assert_eq!(outcome.len(), brute.len());
        prop_assert!(outcome.is_exhaustive());
        for witness in &outcome.witnesses {
            prop_assert!(formula.evaluate(witness));
        }
    }

    /// Enumeration projected on a subset of the variables finds exactly the
    /// number of distinct projections of the brute-force models.
    #[test]
    fn projected_enumeration_matches_brute_force(formula in small_formula(), split in 1usize..4) {
        let k = split.min(formula.num_vars() - 1).max(1);
        let sampling: Vec<Var> = (0..k).map(Var::new).collect();
        let brute = formula.enumerate_models_brute_force();
        let distinct: std::collections::HashSet<_> =
            brute.iter().map(|m| m.project(&sampling)).collect();
        let outcome = bounded_solutions(
            &mut Solver::from_formula(&formula),
            &sampling,
            brute.len() + 5,
            &Budget::new(),
        );
        prop_assert_eq!(outcome.len(), distinct.len());
    }
}

#[test]
fn solver_handles_xor_heavy_formula() {
    // A dense xor system with a unique solution: x_i ⊕ x_{i+1} = 1 plus x_1 = 1.
    let n = 24;
    let mut f = CnfFormula::new(n);
    f.add_xor_clause(XorClause::new([Var::new(0)], true))
        .unwrap();
    for i in 0..n - 1 {
        f.add_xor_clause(XorClause::new([Var::new(i), Var::new(i + 1)], true))
            .unwrap();
    }
    let mut solver = Solver::from_formula(&f);
    let model = solver.solve().model().cloned().expect("satisfiable");
    for i in 0..n {
        assert_eq!(model.value(Var::new(i)), i % 2 == 0);
    }
}

#[test]
fn solver_agrees_with_itself_across_seeds() {
    // Different decision orders must not change the verdict. The solver's
    // tie-breaking seed is fixed, so each rotation of the variable
    // numbering stands in for a seed: it renames the same formula and
    // changes which variable the noisy initial activities favour.
    let verdicts: Vec<bool> = (0..5)
        .map(|rotation| {
            let var = |i: usize| Var::new((i + rotation) % 12);
            let mut f = CnfFormula::new(12);
            for i in 0..11 {
                f.add_clause([
                    Lit::new(var(i), i % 2 == 0),
                    Lit::new(var(i + 1), i % 3 == 0),
                ])
                .unwrap();
            }
            f.add_xor_clause(XorClause::new((0..12).map(var), true))
                .unwrap();
            Solver::from_formula(&f).solve().is_sat()
        })
        .collect();
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
}
