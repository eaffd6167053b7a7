//! Independent-support checking.
//!
//! The paper assumes the sampling set `S` is an *independent support* of `F`:
//! no two witnesses of `F` differ only outside `S` (equivalently, the values
//! of `S` determine the values of all other variables in every witness). The
//! benchmark providers supplied such sets; our circuit substrate produces
//! them by construction (the primary inputs of a Tseitin encoding).
//!
//! This module provides a solver-based verification of the property — the
//! classical Padoa-style self-composition check — so that tests and users can
//! validate sampling sets instead of trusting them. Deciding whether a
//! *given* set is an independent support is co-NP-complete; the check below
//! issues a single SAT call on a formula roughly twice the size of `F`, which
//! is perfectly affordable at the scale of this repository's benchmarks.

use unigen_cnf::{Clause, CnfFormula, Lit, Var};

use crate::budget::Budget;
use crate::solver::{SolveResult, Solver};

/// Result of an independent-support check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupportCheck {
    /// The candidate set is an independent support.
    Independent,
    /// The candidate set is not an independent support; the two witnesses
    /// returned agree on the candidate set but differ elsewhere.
    Dependent {
        /// Variable (outside the candidate set) on which the two witnesses
        /// disagree.
        witness_var: Var,
    },
    /// The check could not be completed within the given budget.
    Unknown,
}

/// Checks whether `candidate` is an independent support of `formula`.
///
/// The check builds the self-composition `F(X) ∧ F(X') ∧ (S = S') ∧ (X ≠ X')`
/// and asks the solver for a witness: the candidate is an independent support
/// iff the composition is unsatisfiable.
///
/// # Errors
///
/// This function does not return errors; an exhausted budget is reported as
/// [`SupportCheck::Unknown`].
///
/// # Panics
///
/// Panics if `candidate` mentions a variable outside the formula's range.
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
/// use unigen_satsolver::support::{verify_independent_support, SupportCheck};
/// use unigen_satsolver::Budget;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // x3 = x1 ⊕ x2, so {x1, x2} is an independent support.
/// let mut f = CnfFormula::new(3);
/// f.add_xor_clause(XorClause::from_dimacs([1, 2, 3], false))?;
/// let s = [Var::from_dimacs(1), Var::from_dimacs(2)];
/// assert_eq!(
///     verify_independent_support(&f, &s, &Budget::new()),
///     SupportCheck::Independent
/// );
/// # Ok(())
/// # }
/// ```
pub fn verify_independent_support(
    formula: &CnfFormula,
    candidate: &[Var],
    budget: &Budget,
) -> SupportCheck {
    let n = formula.num_vars();
    for &v in candidate {
        assert!(
            v.index() < n,
            "candidate variable {v} outside the formula's range"
        );
    }
    let in_candidate: Vec<bool> = {
        let mut mask = vec![false; n];
        for &v in candidate {
            mask[v.index()] = true;
        }
        mask
    };

    // Build F(X) ∧ F(X') with X' = variables n..2n, plus selector variables
    // d_v (one per non-candidate variable v) meaning "v and v' differ".
    let shift = |lit: Lit| -> Lit { Lit::new(Var::new(lit.var().index() + n), lit.is_positive()) };

    let mut composed = CnfFormula::new(2 * n);
    for clause in formula.clauses() {
        composed
            .push_clause(clause.clone())
            .expect("original clause is within range");
        composed
            .push_clause(Clause::new(clause.iter().map(|&l| shift(l))))
            .expect("shifted clause is within range");
    }
    for xor in formula.xor_clauses() {
        composed
            .add_xor_clause(xor.clone())
            .expect("original xor is within range");
        composed
            .add_xor_clause(unigen_cnf::XorClause::new(
                xor.vars().iter().map(|&v| Var::new(v.index() + n)),
                xor.rhs(),
            ))
            .expect("shifted xor is within range");
    }
    // Equality on the candidate set: v ↔ v'.
    for &v in candidate {
        let v2 = Var::new(v.index() + n);
        composed
            .add_clause([v.negative(), v2.positive()])
            .expect("in range");
        composed
            .add_clause([v.positive(), v2.negative()])
            .expect("in range");
    }
    // Difference selectors for non-candidate variables:
    //   d_v → (v ⊕ v'), encoded as (¬d_v ∨ v ∨ v') ∧ (¬d_v ∨ ¬v ∨ ¬v').
    let mut selectors = Vec::new();
    let mut selector_vars: Vec<(Var, Var)> = Vec::new();
    for (i, &is_candidate) in in_candidate.iter().enumerate() {
        if is_candidate {
            continue;
        }
        let v = Var::new(i);
        let v2 = Var::new(i + n);
        let d = composed.new_var();
        composed
            .add_clause([d.negative(), v.positive(), v2.positive()])
            .expect("in range");
        composed
            .add_clause([d.negative(), v.negative(), v2.negative()])
            .expect("in range");
        selectors.push(d.positive());
        selector_vars.push((d, v));
    }
    if selectors.is_empty() {
        // Every variable is in the candidate set; trivially independent.
        return SupportCheck::Independent;
    }
    // At least one non-candidate variable differs.
    composed
        .add_clause(selectors.clone())
        .expect("selector clause is within range");

    let mut solver = Solver::from_formula(&composed);
    match solver.solve_with_budget(budget) {
        SolveResult::Unsat => SupportCheck::Independent,
        SolveResult::Sat(model) => {
            let witness_var = selector_vars
                .iter()
                .find(|(d, _)| model.value(*d))
                .map(|&(_, v)| v)
                .unwrap_or_else(|| {
                    // The disjunction forces at least one selector to be true,
                    // but the selector may be true without the variables
                    // differing only if the solver chose so; fall back to an
                    // explicit scan.
                    selector_vars
                        .iter()
                        .map(|&(_, v)| v)
                        .find(|&v| model.value(v) != model.value(Var::new(v.index() + n)))
                        .expect("some non-candidate variable differs")
                });
            SupportCheck::Dependent { witness_var }
        }
        SolveResult::Interrupted(_) => SupportCheck::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::XorClause;

    #[test]
    fn tseitin_style_definition_gives_independent_support() {
        // x3 ↔ (x1 ∧ x2): {x1, x2} is independent.
        let mut f = CnfFormula::new(3);
        f.add_clause([Lit::from_dimacs(-3), Lit::from_dimacs(1)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(-3), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([
            Lit::from_dimacs(3),
            Lit::from_dimacs(-1),
            Lit::from_dimacs(-2),
        ])
        .unwrap();
        let s = [Var::from_dimacs(1), Var::from_dimacs(2)];
        assert_eq!(
            verify_independent_support(&f, &s, &Budget::new()),
            SupportCheck::Independent
        );
    }

    #[test]
    fn free_variable_breaks_independence() {
        // x1 ∨ x2 with candidate {x1}: x2 is unconstrained, so two witnesses
        // can agree on x1 and differ on x2.
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let s = [Var::from_dimacs(1)];
        match verify_independent_support(&f, &s, &Budget::new()) {
            SupportCheck::Dependent { witness_var } => {
                assert_eq!(witness_var, Var::from_dimacs(2));
            }
            other => panic!("expected Dependent, got {other:?}"),
        }
    }

    #[test]
    fn full_support_is_trivially_independent() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let s = [Var::from_dimacs(1), Var::from_dimacs(2)];
        assert_eq!(
            verify_independent_support(&f, &s, &Budget::new()),
            SupportCheck::Independent
        );
    }

    #[test]
    fn paper_example_from_section_two() {
        // (a ∨ ¬b) ∧ (¬a ∨ b) has independent supports {a}, {b} and {a, b}.
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(-2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(2)])
            .unwrap();
        for s in [vec![Var::from_dimacs(1)], vec![Var::from_dimacs(2)]] {
            assert_eq!(
                verify_independent_support(&f, &s, &Budget::new()),
                SupportCheck::Independent
            );
        }
    }

    #[test]
    fn xor_definitions_are_recognised() {
        // x3 = x1 ⊕ x2 and x4 = x1 ⊕ x3: {x1, x2} determines everything.
        let mut f = CnfFormula::new(4);
        f.add_xor_clause(XorClause::from_dimacs([1, 2, 3], false))
            .unwrap();
        f.add_xor_clause(XorClause::from_dimacs([1, 3, 4], false))
            .unwrap();
        let s = [Var::from_dimacs(1), Var::from_dimacs(2)];
        assert_eq!(
            verify_independent_support(&f, &s, &Budget::new()),
            SupportCheck::Independent
        );
        // But {x1} alone is not enough.
        assert!(matches!(
            verify_independent_support(&f, &[Var::from_dimacs(1)], &Budget::new()),
            SupportCheck::Dependent { .. }
        ));
    }
}
