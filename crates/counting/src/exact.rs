//! Exact model counting (`#SAT`) with component decomposition and caching.
//!
//! This is the sharpSAT stand-in used by the ideal uniform sampler US and by
//! the tests that validate ApproxMC and the Theorem 1 envelope. It is a
//! textbook counting DPLL:
//!
//! 1. unit-propagate; a conflict contributes 0 models,
//! 2. drop satisfied clauses and falsified literals,
//! 3. split the residual formula into connected components (clauses sharing
//!    no variable are independent, so their counts multiply),
//! 4. memoise each component's count in a cache keyed by its residual
//!    clauses,
//! 5. otherwise branch on the most frequent variable and add the two counts.
//!
//! Free variables (variables of the original formula that no residual clause
//! mentions) each double the count. Counts are carried as `u128` and overflow
//! is reported as an error rather than silently wrapping.

use std::collections::{BTreeSet, HashMap};

use unigen_cnf::{CnfFormula, Lit, Var};

use crate::error::CountingError;

/// Exact model counter.
///
/// The counter is stateless between [`ExactCounter::count`] calls except for
/// tuning knobs; create one and reuse it freely.
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit};
/// use unigen_counting::ExactCounter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // (x1 ∨ x2) ∧ (¬x1 ∨ x3): 2 free combinations of (x1,x2) times constraints…
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])?;
/// f.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(3)])?;
/// assert_eq!(ExactCounter::new().count(&f)?, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactCounter {
    /// Maximum xor length accepted when expanding xor constraints to CNF.
    max_xor_expansion: usize,
}

/// A residual clause: the literals not yet falsified, none of them satisfied.
type Residual = Vec<Lit>;

impl ExactCounter {
    /// Creates a counter with default settings.
    pub fn new() -> Self {
        ExactCounter {
            max_xor_expansion: 16,
        }
    }

    /// Counts the models of `formula` over its full variable range.
    ///
    /// # Errors
    ///
    /// * [`CountingError::XorTooLong`] if the formula contains an xor
    ///   constraint longer than the expansion limit (16 variables),
    /// * [`CountingError::Overflow`] if the count exceeds `u128`.
    pub fn count(&self, formula: &CnfFormula) -> Result<u128, CountingError> {
        for xor in formula.xor_clauses() {
            if xor.len() > self.max_xor_expansion {
                return Err(CountingError::XorTooLong { len: xor.len() });
            }
        }
        let expanded = formula.expand_xor_to_cnf();

        // Variables actually mentioned by clauses; the rest are free.
        let mut mentioned: BTreeSet<Var> = BTreeSet::new();
        let mut clauses: Vec<Residual> = Vec::with_capacity(expanded.num_clauses());
        for clause in expanded.clauses() {
            if clause.is_tautology() {
                continue;
            }
            if clause.is_empty() {
                return Ok(0);
            }
            for &lit in clause.iter() {
                mentioned.insert(lit.var());
            }
            clauses.push(clause.lits().to_vec());
        }
        let free_vars = formula.num_vars() - mentioned.len();

        let mut cache: HashMap<Vec<Residual>, u128> = HashMap::new();
        let constrained = self.count_clauses(clauses, &mut cache)?;
        shift_left(constrained, free_vars as u32)
    }

    /// Counts the assignments to `vars(clauses)` (the variables mentioned by
    /// the residual set) that satisfy every clause.
    ///
    /// The invariant maintained throughout the recursion is that the count
    /// returned by this function is always relative to exactly the variables
    /// the input clauses mention; callers account for variables that their
    /// own reduction step removed from scope.
    fn count_clauses(
        &self,
        clauses: Vec<Residual>,
        cache: &mut HashMap<Vec<Residual>, u128>,
    ) -> Result<u128, CountingError> {
        let vars_before = component_vars(&clauses);

        // Unit propagation on the residual set. Forced variables have exactly
        // one admissible value and contribute a factor of 1; variables that
        // merely *vanish* (every clause mentioning them became satisfied)
        // are unconstrained and contribute a factor of 2 each.
        let (clauses, forced) = match propagate_units(clauses) {
            None => return Ok(0),
            Some(result) => result,
        };
        let vars_after = component_vars(&clauses);
        let vanished = vars_before.len() - vars_after.len() - forced;
        let free_factor_bits = vanished as u32;

        if clauses.is_empty() {
            return shift_left(1, free_factor_bits);
        }

        // Component decomposition: clause sets over disjoint variables are
        // independent, so their counts multiply.
        let components = split_components(&clauses);
        let mut product: u128 = 1;
        for component in components {
            let count = self.count_component(component, cache)?;
            if count == 0 {
                return Ok(0);
            }
            product = product.checked_mul(count).ok_or(CountingError::Overflow)?;
        }
        shift_left(product, free_factor_bits)
    }

    fn count_component(
        &self,
        mut component: Vec<Residual>,
        cache: &mut HashMap<Vec<Residual>, u128>,
    ) -> Result<u128, CountingError> {
        component.sort();
        if let Some(&cached) = cache.get(&component) {
            return Ok(cached);
        }

        // Branch on the most frequent variable of the component. One
        // without a variable holds only empty clauses, which no assignment
        // satisfies.
        let Some(var) = most_frequent_var(&component) else {
            return Ok(0);
        };
        let before = component_vars(&component);
        let mut total: u128 = 0;
        for value in [false, true] {
            match assign(&component, var, value) {
                None => {}
                Some(reduced) => {
                    // Variables of the component that disappear entirely when
                    // `var` is assigned are unconstrained in this branch, so
                    // each doubles the branch's count. (`before` includes
                    // `var` itself, which is assigned, not free.)
                    let after = component_vars(&reduced);
                    let sub = self.count_clauses(reduced, cache)?;
                    let vanished = before.len() - after.len() - 1;
                    let contribution = shift_left(sub, vanished as u32)?;
                    total = total
                        .checked_add(contribution)
                        .ok_or(CountingError::Overflow)?;
                }
            }
        }
        cache.insert(component, total);
        Ok(total)
    }
}

fn shift_left(value: u128, bits: u32) -> Result<u128, CountingError> {
    value
        .checked_shl(bits)
        .filter(|shifted| bits == 0 || *shifted >> bits == value)
        .ok_or(CountingError::Overflow)
}

/// Applies unit propagation to a residual clause set. Returns `None` on
/// conflict, otherwise the reduced set together with the number of variables
/// eliminated by propagation.
fn propagate_units(mut clauses: Vec<Residual>) -> Option<(Vec<Residual>, usize)> {
    let mut eliminated = 0usize;
    loop {
        let unit = clauses.iter().find(|c| c.len() == 1).map(|c| c[0]);
        let Some(unit) = unit else {
            return Some((clauses, eliminated));
        };
        eliminated += 1;
        let mut next: Vec<Residual> = Vec::with_capacity(clauses.len());
        for clause in clauses.drain(..) {
            if clause.contains(&unit) {
                continue; // satisfied
            }
            let reduced: Residual = clause.into_iter().filter(|&l| l != !unit).collect();
            if reduced.is_empty() {
                return None; // conflict
            }
            next.push(reduced);
        }
        clauses = next;
    }
}

/// Assigns `var := value` in a residual clause set without propagation.
/// Returns `None` if the assignment immediately falsifies a clause.
fn assign(clauses: &[Residual], var: Var, value: bool) -> Option<Vec<Residual>> {
    let true_lit = var.lit(value);
    let false_lit = !true_lit;
    let mut out = Vec::with_capacity(clauses.len());
    for clause in clauses {
        if clause.contains(&true_lit) {
            continue;
        }
        let reduced: Residual = clause.iter().copied().filter(|&l| l != false_lit).collect();
        if reduced.is_empty() {
            return None;
        }
        out.push(reduced);
    }
    Some(out)
}

/// Returns the set of variables mentioned by a clause set.
fn component_vars(clauses: &[Residual]) -> BTreeSet<Var> {
    clauses
        .iter()
        .flat_map(|c| c.iter().map(|l| l.var()))
        .collect()
}

/// Returns the variable occurring in the largest number of clauses, or
/// `None` when the clauses mention no variable.
fn most_frequent_var(clauses: &[Residual]) -> Option<Var> {
    let mut counts: HashMap<Var, usize> = HashMap::new();
    for clause in clauses {
        for lit in clause {
            *counts.entry(lit.var()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

/// Splits a clause set into connected components (clauses sharing a variable
/// belong to the same component).
fn split_components(clauses: &[Residual]) -> Vec<Vec<Residual>> {
    let n = clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut owner: HashMap<Var, usize> = HashMap::new();
    for (i, clause) in clauses.iter().enumerate() {
        for lit in clause {
            match owner.get(&lit.var()) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(lit.var(), i);
                }
            }
        }
    }

    let mut groups: HashMap<usize, Vec<Residual>> = HashMap::new();
    for (i, clause) in clauses.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(clause.clone());
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::XorClause;

    fn brute_force(formula: &CnfFormula) -> u128 {
        formula.enumerate_models_brute_force().len() as u128
    }

    #[test]
    fn a_component_without_variables_has_no_model() {
        assert_eq!(most_frequent_var(&[]), None);
        assert_eq!(most_frequent_var(&[Vec::new()]), None);
        let count = ExactCounter::new().count_component(vec![Vec::new()], &mut HashMap::new());
        assert_eq!(count.unwrap(), 0);
    }

    #[test]
    fn empty_formula_counts_all_assignments() {
        let f = CnfFormula::new(5);
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 32);
    }

    #[test]
    fn unsat_formula_counts_zero() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 0);
    }

    #[test]
    fn single_clause() {
        let mut f = CnfFormula::new(3);
        f.add_clause([
            Lit::from_dimacs(1),
            Lit::from_dimacs(2),
            Lit::from_dimacs(3),
        ])
        .unwrap();
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 7);
    }

    #[test]
    fn independent_components_multiply() {
        // (x1 ∨ x2) and (x3 ∨ x4) are independent: 3 * 3 = 9.
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(3), Lit::from_dimacs(4)])
            .unwrap();
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 9);
    }

    #[test]
    fn free_variables_double_the_count() {
        // One clause over x1, x2 plus two unmentioned variables.
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 3 * 4);
    }

    #[test]
    fn xor_constraints_are_expanded() {
        let mut f = CnfFormula::new(3);
        f.add_xor_clause(XorClause::from_dimacs([1, 2, 3], true))
            .unwrap();
        // Half of the 8 assignments have odd parity.
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 4);
    }

    #[test]
    fn long_xor_is_rejected() {
        let mut f = CnfFormula::new(20);
        f.add_xor_clause(XorClause::from_dimacs(1..=20, true))
            .unwrap();
        assert!(matches!(
            ExactCounter::new().count(&f),
            Err(CountingError::XorTooLong { len: 20 })
        ));
    }

    #[test]
    fn matches_brute_force_on_structured_formulas() {
        // A few structured cases with known interactions.
        let mut f = CnfFormula::new(6);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(-2), Lit::from_dimacs(3)])
            .unwrap();
        f.add_clause([
            Lit::from_dimacs(-3),
            Lit::from_dimacs(4),
            Lit::from_dimacs(-5),
        ])
        .unwrap();
        f.add_xor_clause(XorClause::from_dimacs([5, 6], true))
            .unwrap();
        assert_eq!(ExactCounter::new().count(&f).unwrap(), brute_force(&f));
    }

    #[test]
    fn matches_brute_force_on_pseudo_random_formulas() {
        // Deterministic pseudo-random 3-CNF instances, cross-checked against
        // brute force.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..25 {
            let num_vars = 6 + (next() % 5) as usize; // 6..10
            let num_clauses = 4 + (next() % 12) as usize;
            let mut f = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let v = (next() % num_vars as u64) as usize;
                    let sign = next() % 2 == 0;
                    lits.push(Var::new(v).lit(sign));
                }
                f.add_clause(lits).unwrap();
            }
            assert_eq!(
                ExactCounter::new().count(&f).unwrap(),
                brute_force(&f),
                "mismatch on formula: {f}"
            );
        }
    }

    #[test]
    fn xor_chain_has_expected_count() {
        // x1 ⊕ x2 = 0, x2 ⊕ x3 = 0, …: all variables equal, so 2 models.
        let mut f = CnfFormula::new(8);
        for i in 1..8 {
            f.add_xor_clause(XorClause::from_dimacs([i, i + 1], false))
                .unwrap();
        }
        assert_eq!(ExactCounter::new().count(&f).unwrap(), 2);
    }
}
