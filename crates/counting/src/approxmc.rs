//! ApproxMC — the hashing-based approximate model counter (CP 2013).
//!
//! UniGen invokes `ApproxModelCounter(F, 0.8, 0.8)` once per formula (line 9
//! of Algorithm 1) to obtain an estimate `C` of `|R_F|` with
//! `Pr[C/1.8 ≤ |R_F| ≤ 1.8·C] ≥ 0.8`, from which the candidate hash widths
//! `{q−3,…,q}` are derived. The counter implemented here follows the CP 2013
//! construction:
//!
//! * `ApproxMCCore`: add `i` random xor constraints from `H_xor(|S|, i, 3)`
//!   for increasing `i` until the surviving cell has between 1 and `pivot`
//!   witnesses (found with `BSAT`), then report `cell · 2^i`;
//! * outer loop: repeat the core `t` times with fresh randomness and return
//!   the **median** of the successful estimates.
//!
//! The paper's experiments explicitly *disable* leap-frogging (starting the
//! core's search for `i` at the previous success) because it voids the CP'13
//! guarantee; every core run here starts its search at `i = 1`.
//!
//! Every `BSAT` call of a count runs under its own guard on one incremental
//! solver. UniGen counts on its persistent solver
//! ([`ApproxMc::count_on_solver`]), passing the witnesses line 4 of
//! Algorithm 1 already enumerated, so the base case is skipped when they
//! exceed the pivot. [`ApproxMc::count`] and
//! [`ApproxMc::count_with_sampling_set`] build a solver of their own.

use rand::Rng;

use unigen_cnf::{CnfFormula, Var};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{enumerate_cell, Budget, Solver};

use crate::error::CountingError;

/// Configuration of [`ApproxMc`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxMcConfig {
    /// Tolerance ε: the estimate is within a factor `1 + ε` of the true count
    /// (with the configured confidence). UniGen calls the counter with 0.8.
    pub tolerance: f64,
    /// Desired confidence `1 − δ`. UniGen calls the counter with 0.8.
    pub confidence: f64,
    /// Override for the number of core iterations. When `None`, the CP 2013
    /// formula `⌈35·log2(3/δ)⌉` is used; the laptop-scale experiments in this
    /// repository override it because the full formula costs hundreds of
    /// `BSAT` sweeps per formula.
    pub iterations: Option<usize>,
}

impl Default for ApproxMcConfig {
    fn default() -> Self {
        ApproxMcConfig {
            tolerance: 0.8,
            confidence: 0.8,
            iterations: Some(9),
        }
    }
}

impl ApproxMcConfig {
    /// The cell-size threshold ("pivot") from the CP 2013 analysis:
    /// `2·e^{3/2}·(1 + 1/ε)²`, rounded up.
    pub fn pivot(&self) -> u64 {
        let e_three_half = std::f64::consts::E.powf(1.5);
        (2.0 * e_three_half * (1.0 + 1.0 / self.tolerance).powi(2)).ceil() as u64
    }

    /// Number of core iterations actually used.
    pub fn num_iterations(&self) -> usize {
        match self.iterations {
            Some(n) => n.max(1),
            None => {
                let delta = (1.0 - self.confidence).max(1e-9);
                (35.0 * (3.0 / delta).log2()).ceil() as usize
            }
        }
    }
}

/// Result of an [`ApproxMc::count`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxMcResult {
    /// The median estimate of `|R_F|`.
    pub estimate: u128,
    /// The per-iteration estimates that went into the median.
    pub iteration_estimates: Vec<u128>,
    /// Number of core iterations that failed to find a usable cell.
    pub failed_iterations: usize,
    /// Total number of `BSAT` (bounded enumeration) calls issued.
    pub bsat_calls: usize,
}

/// The approximate model counter.
///
/// See the crate-level documentation for the role it plays in UniGen and
/// [`ApproxMcConfig`] for the knobs.
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit};
/// use unigen_counting::{ApproxMc, ApproxMcConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
/// let result = ApproxMc::new(ApproxMcConfig::default()).count(&f, 7)?;
/// // The true count is 7; with tolerance 0.8 the estimate must fall in [3, 13]
/// // with high probability (and for counts below the pivot it is exact).
/// assert_eq!(result.estimate, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxMc {
    config: ApproxMcConfig,
}

impl ApproxMc {
    /// Creates a counter with the given configuration.
    pub fn new(config: ApproxMcConfig) -> Self {
        ApproxMc { config }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &ApproxMcConfig {
        &self.config
    }

    /// Estimates `|R_F|`, hashing over the formula's sampling set (or its
    /// full support when no sampling set is declared), using `seed` for all
    /// randomness.
    ///
    /// # Errors
    ///
    /// [`CountingError::NoEstimate`] if every core iteration fails.
    pub fn count(&self, formula: &CnfFormula, seed: u64) -> Result<ApproxMcResult, CountingError> {
        let sampling_set = formula.sampling_set_or_all();
        self.count_with_sampling_set(formula, &sampling_set, seed)
    }

    /// Estimates `|R_F|`, hashing over an explicit sampling set, on a solver
    /// of its own with an unlimited per-call budget.
    ///
    /// # Errors
    ///
    /// See [`ApproxMc::count`].
    ///
    /// # Panics
    ///
    /// Panics if `sampling_set` is empty.
    pub fn count_with_sampling_set(
        &self,
        formula: &CnfFormula,
        sampling_set: &[Var],
        seed: u64,
    ) -> Result<ApproxMcResult, CountingError> {
        let mut solver = Solver::from_formula(formula);
        self.count_on_solver(&mut solver, sampling_set, 0, &Budget::new(), seed)
    }

    /// Estimates `|R_F|` on `solver`, which holds the formula `F`, with
    /// `budget` for every `BSAT` call. The solver keeps only what it learns
    /// about `F` itself.
    ///
    /// `seen` is how many distinct witnesses of `F`, projected on
    /// `sampling_set`, the caller already enumerated. Above the pivot the
    /// base case cannot succeed and is skipped. It draws no randomness, so
    /// skipping it changes only `bsat_calls` unless `budget` fires.
    ///
    /// # Errors
    ///
    /// * [`CountingError::BudgetExhausted`] if the base case cannot complete
    ///   within `budget`,
    /// * [`CountingError::NoEstimate`] if every core iteration fails.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_set` is empty.
    pub fn count_on_solver(
        &self,
        solver: &mut Solver,
        sampling_set: &[Var],
        seen: usize,
        budget: &Budget,
        seed: u64,
    ) -> Result<ApproxMcResult, CountingError> {
        assert!(!sampling_set.is_empty(), "sampling set must be non-empty");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pivot = self.config.pivot();
        let mut bsat_calls = 0usize;

        // Base case: if the formula has at most `pivot` witnesses, count them
        // exactly by enumeration (this is also what makes the estimate exact
        // for small formulas, a property the doc-test above relies on).
        if seen <= pivot as usize {
            let outcome = enumerate_cell(solver, sampling_set, &[], pivot as usize + 1, budget);
            bsat_calls += 1;
            if outcome.interrupted.is_some() {
                return Err(CountingError::BudgetExhausted);
            }
            if outcome.len() <= pivot as usize {
                return Ok(ApproxMcResult {
                    estimate: outcome.len() as u128,
                    iteration_estimates: vec![outcome.len() as u128],
                    failed_iterations: 0,
                    bsat_calls,
                });
            }
        }

        let family = XorHashFamily::new(sampling_set.to_vec());
        let iterations = self.config.num_iterations();
        let mut estimates: Vec<u128> = Vec::with_capacity(iterations);
        let mut failed = 0usize;

        for _ in 0..iterations {
            match self.core(
                solver,
                sampling_set,
                &family,
                budget,
                &mut rng,
                &mut bsat_calls,
            ) {
                Some((cell, width)) => {
                    let estimate = (cell as u128) << width.min(127);
                    estimates.push(estimate);
                }
                None => failed += 1,
            }
        }

        if estimates.is_empty() {
            return Err(CountingError::NoEstimate);
        }
        estimates.sort_unstable();
        let estimate = estimates[estimates.len() / 2];
        Ok(ApproxMcResult {
            estimate,
            iteration_estimates: estimates,
            failed_iterations: failed,
            bsat_calls,
        })
    }

    /// One `ApproxMCCore` run: find a hash width whose random cell holds
    /// between 1 and `pivot` witnesses, trying widths `1..=|S|` in order.
    /// Returns the cell size and the width.
    fn core<R: Rng + ?Sized>(
        &self,
        solver: &mut Solver,
        sampling_set: &[Var],
        family: &XorHashFamily,
        budget: &Budget,
        rng: &mut R,
        bsat_calls: &mut usize,
    ) -> Option<(usize, usize)> {
        let pivot = self.config.pivot() as usize;
        for width in 1..=sampling_set.len() {
            let hash = family.sample(width, rng);
            let outcome = enumerate_cell(
                solver,
                sampling_set,
                &hash.to_xor_clauses(),
                pivot + 1,
                budget,
            );
            *bsat_calls += 1;
            if outcome.interrupted.is_some() {
                // Treat a timed-out cell like a failed iteration, as the
                // paper's experiments do for BSAT timeouts.
                return None;
            }
            let cell = outcome.len();
            if cell >= 1 && cell <= pivot {
                return Some((cell, width));
            }
            // An empty cell means we overshot (too many constraints); the
            // CP'13 core reports failure for this iteration.
            if cell == 0 {
                return None;
            }
        }
        None
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::{Lit, XorClause};
    use unigen_counting_test_support::formula_with_count;

    /// Tiny helper module so the tests can build formulas with a known count.
    mod unigen_counting_test_support {
        use super::*;

        /// Builds a formula over `bits + extra` variables with exactly
        /// `2^bits` models: the first `bits` variables are free, each
        /// remaining variable is forced equal to one of them via an xor.
        pub fn formula_with_count(bits: usize, extra: usize) -> CnfFormula {
            let mut f = CnfFormula::new(bits + extra);
            for i in 0..extra {
                let free = Var::new(i % bits);
                let dependent = Var::new(bits + i);
                f.add_xor_clause(XorClause::new([free, dependent], false))
                    .unwrap();
            }
            f.set_sampling_set((0..bits).map(Var::new)).unwrap();
            f
        }
    }

    #[test]
    fn pivot_matches_cp13_formula() {
        let config = ApproxMcConfig {
            tolerance: 0.8,
            ..ApproxMcConfig::default()
        };
        // 2 e^{1.5} (1 + 1/0.8)^2 = 2 · 4.4817 · 5.0625 ≈ 45.4 → 46.
        assert_eq!(config.pivot(), 46);
    }

    #[test]
    fn iteration_formula_kicks_in_without_override() {
        let config = ApproxMcConfig {
            confidence: 0.8,
            iterations: None,
            ..ApproxMcConfig::default()
        };
        // 35 · log2(3 / 0.2) = 35 · 3.9069 ≈ 136.7 → 137.
        assert_eq!(config.num_iterations(), 137);
    }

    #[test]
    fn small_formulas_are_counted_exactly() {
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(3), Lit::from_dimacs(4)])
            .unwrap();
        // 9 models < pivot, so the estimate is exact.
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 1)
            .unwrap();
        assert_eq!(result.estimate, 9);
        assert_eq!(result.bsat_calls, 1);
    }

    #[test]
    fn unsat_formula_counts_zero() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 2)
            .unwrap();
        assert_eq!(result.estimate, 0);
    }

    #[test]
    fn estimate_is_within_tolerance_for_structured_formula() {
        // 2^10 = 1024 models over a 10-variable sampling set, plus 6
        // dependent variables.
        let f = formula_with_count(10, 6);
        let config = ApproxMcConfig::default();
        let result = ApproxMc::new(config.clone()).count(&f, 3).unwrap();
        let truth = 1024f64;
        let ratio = result.estimate as f64 / truth;
        let factor = 1.0 + config.tolerance;
        assert!(
            ratio >= 1.0 / factor && ratio <= factor,
            "estimate {} outside tolerance of true count {truth}",
            result.estimate
        );
    }

    #[test]
    fn hashing_respects_sampling_set() {
        let f = formula_with_count(8, 4);
        let sampling = f.sampling_set().unwrap().to_vec();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count_with_sampling_set(&f, &sampling, 11)
            .unwrap();
        assert!(
            result.estimate >= 128,
            "estimate {} far too small",
            result.estimate
        );
        assert!(
            result.estimate <= 2048,
            "estimate {} far too large",
            result.estimate
        );
    }

    #[test]
    fn counting_constructs_exactly_one_solver() {
        let f = formula_with_count(10, 6);
        let before = Solver::constructions_on_thread();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 7)
            .unwrap();
        assert!(result.bsat_calls > 1, "expected many BSAT calls");
        assert_eq!(
            Solver::constructions_on_thread() - before,
            1,
            "every BSAT cell must reuse the one incremental solver"
        );
    }
}
