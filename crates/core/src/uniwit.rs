//! UniWit — the CAV 2013 near-uniform generator used as the paper's main
//! comparison point.
//!
//! UniWit shares the hashing skeleton with UniGen but differs in the two ways
//! the paper identifies as the sources of its scalability limits:
//!
//! 1. **it hashes over the full support `X`**, so every xor clause has
//!    expected length `|X|/2` regardless of how small the independent
//!    support is, and
//! 2. **it has no amortisable preparation phase**: every sample performs its
//!    own sequential search for a hash width whose cell is small enough
//!    (the paper's experiments disable the guarantee-voiding "leap-frogging"
//!    shortcut, and so does this implementation).
//!
//! Its guarantee is correspondingly weaker: near-uniformity (a lower bound on
//! each witness's probability) with success probability ≥ 0.125.
//!
//! The cell-size window used here is the `[1, pivot]` acceptance test of the
//! CAV 2013 algorithm with the pivot expression shared with ApproxMC; the
//! exact constant does not affect the structural comparison (xor length and
//! per-sample search cost), which is what Tables 1 and 2 measure.

use std::sync::Arc;

use rand::{Rng, RngCore};

use unigen_cnf::{CnfFormula, Var};
use unigen_counting::ApproxMcConfig;
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{Budget, KnownWitnesses, Solver};

use crate::error::SamplerError;
use crate::sampler::{
    enumerate_charged, failed_outcome, OutcomeKind, SampleOutcome, SampleStats, WitnessSampler,
};

/// Configuration of [`UniWit`]. The accepted cell size is ApproxMC's
/// pivot ([`ApproxMcConfig::pivot`] at the default tolerance), and the
/// width search runs up to `|X|`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UniWitConfig {
    /// Budget for each underlying solver call (the per-`BSAT` timeout of the
    /// paper's experiments).
    pub bsat_budget: Budget,
}

/// The UniWit near-uniform witness generator.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use unigen::{UniWit, UniWitConfig, WitnessSampler};
/// use unigen_cnf::{CnfFormula, Lit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
/// let mut sampler = UniWit::new(&f, UniWitConfig::default())?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let outcome = sampler.sample(&mut rng);
/// assert!(outcome.witness.map(|w| f.evaluate(&w)).unwrap_or(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UniWit {
    /// The full support `X`, shared cheaply with every parallel worker clone.
    support: Arc<[Var]>,
    family: XorHashFamily,
    config: UniWitConfig,
    /// The one incremental solver reused across samples; each hash layer and
    /// each `BSAT`'s blocking clauses live under a per-cell guard.
    solver: Solver,
}

impl UniWit {
    /// Creates a UniWit sampler for `formula`.
    ///
    /// # Errors
    ///
    /// Returns [`SamplerError::EmptySamplingSet`] if the formula has no
    /// variables.
    pub fn new(formula: &CnfFormula, config: UniWitConfig) -> Result<Self, SamplerError> {
        if formula.num_vars() == 0 {
            return Err(SamplerError::EmptySamplingSet);
        }
        // UniWit hashes over the full support, not the independent support —
        // this is precisely the difference the paper's comparison isolates.
        let support: Vec<Var> = (0..formula.num_vars()).map(Var::new).collect();
        Ok(UniWit {
            family: XorHashFamily::new(support.clone()),
            support: support.into(),
            config,
            solver: Solver::from_formula(formula),
        })
    }

    /// Returns the support used for hashing and blocking (always the full
    /// variable range).
    pub fn support(&self) -> &[Var] {
        &self.support
    }
}

impl WitnessSampler for UniWit {
    fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
        let mut stats = SampleStats::default();
        // Largest cell size accepted when searching for a hash width.
        let pivot = ApproxMcConfig::default().pivot() as usize;

        // First check whether the formula itself already has few enough
        // witnesses (the degenerate case every hashing sampler handles
        // first). Guard-scoped, so the blocking clauses vanish afterwards.
        let base = enumerate_charged(
            &mut self.solver,
            &self.support,
            &[],
            pivot + 1,
            &self.config.bsat_budget,
            &KnownWitnesses::new(),
            &mut stats,
        );
        if base.interrupted.is_some() {
            // An interrupted probe says nothing about the formula's size;
            // fall through to the width search rather than misreading the
            // partial enumeration as "small".
            stats.interrupted_cells += 1;
        } else if base.len() <= pivot {
            if base.is_empty() {
                // The formula is unsatisfiable: a *definite* ⊥.
                return SampleOutcome::bottom(stats);
            }
            // Canonical order first: the accepted enumeration here is
            // exhaustive, so sorting makes the uniform pick independent
            // of solver heuristic state (the parallel determinism
            // contract).
            let mut cell = base.witnesses;
            crate::sampler::sort_witnesses_canonically(&mut cell, &self.support);
            let witness = cell[rng.gen_range(0..cell.len())].clone();
            return SampleOutcome::of_witness(witness, stats);
        }

        // Sequential search over hash widths, afresh for every sample.
        let mut failure = OutcomeKind::Bottom;
        for width in 1..=self.support.len() {
            let hash = self.family.sample(width, rng);
            let clauses = hash.to_xor_clauses();
            stats.xor_clauses_added += clauses.len();
            stats.xor_vars_total += clauses.iter().map(|c| c.len()).sum::<usize>();

            let outcome = enumerate_charged(
                &mut self.solver,
                &self.support,
                &clauses,
                pivot + 1,
                &self.config.bsat_budget,
                &KnownWitnesses::new(),
                &mut stats,
            );
            if let Some(reason) = outcome.interrupted {
                // An interrupted BSAT call fails this sample, as in the
                // paper's UniWit runs that produced "—" table entries — but
                // it is reported as *interrupted* (or faulted), not as the
                // definite ⊥ it used to be conflated with.
                stats.interrupted_cells += 1;
                failure = reason.into();
                break;
            }
            let size = outcome.len();
            if size >= 1 && size <= pivot {
                // First accepted width ends the search (audited against the
                // UniGen overshoot bug: this loop already returns here rather
                // than scanning on and overwriting the accepted cell).
                let mut cell = outcome.witnesses;
                crate::sampler::sort_witnesses_canonically(&mut cell, &self.support);
                let witness = cell[rng.gen_range(0..size)].clone();
                return SampleOutcome::of_witness(witness, stats);
            }
            if size == 0 {
                // Overshot: the cell is empty, give up on this sample.
                break;
            }
        }

        failed_outcome(failure, stats)
    }

    fn name(&self) -> &'static str {
        "UniWit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unigen_cnf::{Lit, XorClause};

    fn formula_with_count(bits: usize, extra: usize) -> CnfFormula {
        let mut f = CnfFormula::new(bits + extra);
        for i in 0..extra {
            f.add_xor_clause(XorClause::new(
                [Var::new(i % bits), Var::new(bits + i)],
                false,
            ))
            .unwrap();
        }
        f.set_sampling_set((0..bits).map(Var::new)).unwrap();
        f
    }

    #[test]
    fn produces_valid_witnesses() {
        let f = formula_with_count(8, 4);
        let mut sampler = UniWit::new(&f, UniWitConfig::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut successes = 0;
        for _ in 0..10 {
            if let Some(w) = sampler.sample(&mut rng).witness {
                assert!(f.evaluate(&w));
                successes += 1;
            }
        }
        assert!(successes >= 2, "UniWit succeeded only {successes}/10 times");
    }

    #[test]
    fn hashes_over_the_full_support() {
        let f = formula_with_count(4, 20);
        let mut sampler = UniWit::new(&f, UniWitConfig::default()).unwrap();
        assert_eq!(sampler.support().len(), 24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut stats = SampleStats::default();
        for _ in 0..5 {
            stats.accumulate(&sampler.sample(&mut rng).stats);
        }
        if stats.xor_clauses_added > 0 {
            // Expected xor length is |X|/2 = 12, versus 2 when hashing over
            // the 4-variable independent support.
            assert!(stats.average_xor_length() > 6.0);
        }
    }

    #[test]
    fn small_formulas_short_circuit_without_hashing() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let mut sampler = UniWit::new(&f, UniWitConfig::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let outcome = sampler.sample(&mut rng);
        assert!(outcome.is_success());
        assert_eq!(outcome.stats.xor_clauses_added, 0);
    }

    #[test]
    fn unsat_formula_reports_failure_not_panic() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        let mut sampler = UniWit::new(&f, UniWitConfig::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert!(!sampler.sample(&mut rng).is_success());
    }

    #[test]
    fn empty_formula_is_rejected() {
        let f = CnfFormula::new(0);
        assert!(matches!(
            UniWit::new(&f, UniWitConfig::default()),
            Err(SamplerError::EmptySamplingSet)
        ));
    }

    #[test]
    fn budget_interruption_is_typed_not_bottom() {
        // A step limit of zero interrupts every BSAT call immediately. The
        // sampler must report the sample as *interrupted*, not as the
        // definite ⊥ the pre-typed code returned for both conditions.
        let f = formula_with_count(8, 4);
        let config = UniWitConfig {
            bsat_budget: Budget::new().with_step_limit(0),
        };
        let mut sampler = UniWit::new(&f, config).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let outcome = sampler.sample(&mut rng);
        assert_eq!(outcome.kind, OutcomeKind::Interrupted);
        assert!(outcome.witness.is_none());
        // Both the base probe and the first width's call were interrupted.
        assert_eq!(outcome.stats.interrupted_cells, 2);
    }
}
