//! XORSample′ — the NIPS 2007 near-uniform sampler that requires a
//! user-supplied hash width.
//!
//! XORSample′ predates both UniWit and UniGen and illustrates the usability
//! problem the later systems solve: the number of xor constraints `m` must be
//! supplied by the user and should be close to `log2 |R_F|`, a quantity the
//! user rarely knows. With a good `m` the sampler is near-uniform; with a bad
//! one it either fails constantly (cells are usually empty) or degenerates
//! towards the solver's default solution order (cells are huge). The paper
//! leaves it out of Table 1 because UniWit dominates it; it is kept here for
//! the ablation benchmarks and for completeness of the historical lineage.

use std::sync::Arc;

use rand::{Rng, RngCore};

use unigen_cnf::{CnfFormula, Var};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{Budget, Solver};

use crate::error::SamplerError;
use crate::sampler::{
    enumerate_charged, failed_outcome, SampleOutcome, SampleStats, WitnessSampler,
};

/// Upper bound on the number of witnesses enumerated from the surviving cell
/// before giving up (protects against a hopelessly small `num_constraints`).
const CELL_CAP: usize = 256;

/// Configuration of [`XorSamplePrime`].
#[derive(Debug, Clone, PartialEq)]
pub struct XorSamplePrimeConfig {
    /// Number of xor constraints to add — the "difficult-to-estimate input
    /// parameter" the paper refers to. Should be close to `log2 |R_F|`.
    pub num_constraints: usize,
    /// Budget for each underlying solver call.
    pub bsat_budget: Budget,
}

impl Default for XorSamplePrimeConfig {
    fn default() -> Self {
        XorSamplePrimeConfig {
            num_constraints: 8,
            bsat_budget: Budget::new(),
        }
    }
}

/// The XORSample′ witness generator.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use unigen::{WitnessSampler, XorSamplePrime, XorSamplePrimeConfig};
/// use unigen_cnf::{CnfFormula, Lit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(6);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])?;
/// let config = XorSamplePrimeConfig { num_constraints: 2, ..Default::default() };
/// let mut sampler = XorSamplePrime::new(&f, config)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// // With a sensible `num_constraints` most attempts succeed.
/// let outcome = sampler.sample(&mut rng);
/// if let Some(w) = outcome.witness {
///     assert!(f.evaluate(&w));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct XorSamplePrime {
    /// The full support `X`, shared cheaply with every parallel worker clone.
    support: Arc<[Var]>,
    family: XorHashFamily,
    config: XorSamplePrimeConfig,
    /// The one incremental solver reused across samples (hash layers and
    /// blocking clauses are guard-scoped per sample).
    solver: Solver,
}

impl XorSamplePrime {
    /// Creates an XORSample′ sampler for `formula`.
    ///
    /// # Errors
    ///
    /// Returns [`SamplerError::EmptySamplingSet`] if the formula has no
    /// variables.
    pub fn new(formula: &CnfFormula, config: XorSamplePrimeConfig) -> Result<Self, SamplerError> {
        if formula.num_vars() == 0 {
            return Err(SamplerError::EmptySamplingSet);
        }
        let support: Vec<Var> = (0..formula.num_vars()).map(Var::new).collect();
        Ok(XorSamplePrime {
            family: XorHashFamily::new(support.clone()),
            support: support.into(),
            config,
            solver: Solver::from_formula(formula),
        })
    }
}

impl WitnessSampler for XorSamplePrime {
    fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
        let mut stats = SampleStats::default();

        // Audit note (first-acceptance / empty-window): XORSample′ tries a
        // single user-supplied width, so there is no scan to overshoot; the
        // width itself is clamped into the representable range `1..=|X|`
        // here, so the window can never be silently empty.
        let width = self.config.num_constraints.max(1).min(self.support.len());
        let hash = self.family.sample(width, rng);
        let clauses = hash.to_xor_clauses();
        stats.xor_clauses_added += clauses.len();
        stats.xor_vars_total += clauses.iter().map(|c| c.len()).sum::<usize>();

        let outcome = enumerate_charged(
            &mut self.solver,
            &self.support,
            &clauses,
            CELL_CAP + 1,
            &self.config.bsat_budget,
            &mut stats,
        );

        // An interruption fails the sample but is reported as such: unlike
        // an empty or oversized cell it says nothing about whether the
        // chosen width was sensible.
        if let Some(reason) = outcome.interrupted {
            stats.interrupted_cells += 1;
            return failed_outcome(reason.into(), stats);
        }
        // Empty and oversized cells are definite ⊥ outcomes: without an
        // estimate of |R_F| there is no way to tell whether the chosen width
        // was sensible.
        if outcome.is_empty() || outcome.len() > CELL_CAP {
            return SampleOutcome::bottom(stats);
        }
        // Canonical order first, so the uniform pick is independent of solver
        // heuristic state (the parallel determinism contract).
        let mut cell = outcome.witnesses;
        crate::sampler::sort_witnesses_canonically(&mut cell, &self.support);
        let witness = cell[rng.gen_range(0..cell.len())].clone();
        SampleOutcome::of_witness(witness, stats)
    }

    fn name(&self) -> &'static str {
        "XORSample'"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unigen_cnf::Lit;

    fn wide_formula(bits: usize) -> CnfFormula {
        let mut f = CnfFormula::new(bits);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f
    }

    #[test]
    fn reasonable_width_produces_witnesses() {
        let f = wide_formula(10);
        let config = XorSamplePrimeConfig {
            num_constraints: 4,
            ..Default::default()
        };
        let mut sampler = XorSamplePrime::new(&f, config).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let successes = (0..10)
            .filter(|_| {
                let outcome = sampler.sample(&mut rng);
                outcome
                    .witness
                    .map(|w| {
                        assert!(f.evaluate(&w));
                        true
                    })
                    .unwrap_or(false)
            })
            .count();
        assert!(successes >= 5, "only {successes}/10 succeeded");
    }

    #[test]
    fn excessive_width_mostly_fails() {
        // 10 constraints over a space of ~2^10·0.75 witnesses leaves cells
        // empty most of the time — the classic mis-parameterisation.
        let f = wide_formula(10);
        let config = XorSamplePrimeConfig {
            num_constraints: 10,
            ..Default::default()
        };
        let mut sampler = XorSamplePrime::new(&f, config).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let successes = (0..10)
            .filter(|_| sampler.sample(&mut rng).is_success())
            .count();
        assert!(successes <= 8, "an oversized width should fail regularly");
    }

    #[test]
    fn empty_formula_is_rejected() {
        let f = CnfFormula::new(0);
        assert!(XorSamplePrime::new(&f, XorSamplePrimeConfig::default()).is_err());
    }
}
