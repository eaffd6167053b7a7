//! US — the ideal uniform sampler used as the reference in the Figure 1
//! uniformity study.
//!
//! The paper describes US as follows: "Given a CNF formula F, US first
//! determines |R_F| using an exact model counter (such as sharpSAT). To mimic
//! generating a random witness, US simply generates a random number i in
//! {1 … |R_F|}." That is exactly what this module does, with the workspace's
//! own exact counter in place of sharpSAT. For small formulas the sampler can
//! additionally *materialise* the witness list so that it satisfies the
//! common [`WitnessSampler`] interface and can be plugged into the same
//! harness as UniGen.

use std::sync::Arc;

use rand::{Rng, RngCore};

use unigen_cnf::{CnfFormula, Model, Var};
use unigen_counting::ExactCounter;
use unigen_satsolver::{bounded_solutions, Budget, Solver};

use crate::error::SamplerError;
use crate::sampler::{SampleOutcome, SampleStats, WitnessSampler};

/// The ideal uniform sampler.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use unigen::UniformSampler;
/// use unigen_cnf::{CnfFormula, Lit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
/// let sampler = UniformSampler::new(&f)?;
/// assert_eq!(sampler.count(), 7);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let index = sampler.sample_index(&mut rng);
/// assert!(index < 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UniformSampler {
    count: u128,
    /// Materialised witnesses in canonical (projection) order, shared via
    /// [`Arc`] so parallel worker clones do not copy the list.
    witnesses: Option<Arc<[Model]>>,
}

impl UniformSampler {
    /// Creates the sampler by counting `|R_F|` exactly.
    ///
    /// # Errors
    ///
    /// * [`SamplerError::Unsatisfiable`] if the formula has no witnesses,
    /// * [`SamplerError::Counting`] if the exact counter cannot handle the
    ///   formula (for example an xor constraint longer than its expansion
    ///   limit).
    pub fn new(formula: &CnfFormula) -> Result<Self, SamplerError> {
        let count = ExactCounter::new().count(formula)?;
        if count == 0 {
            return Err(SamplerError::Unsatisfiable);
        }
        Ok(UniformSampler {
            count,
            witnesses: None,
        })
    }

    /// Creates the sampler *and* materialises every witness (projected on
    /// `sampling_set`), so that [`WitnessSampler::sample`] can return
    /// concrete models. Only appropriate for formulas whose witness count is
    /// comfortably enumerable.
    ///
    /// # Errors
    ///
    /// * the same errors as [`UniformSampler::new`], plus
    /// * [`SamplerError::PreparationBudgetExhausted`] if enumeration of all
    ///   witnesses does not finish.
    pub fn with_witnesses(
        formula: &CnfFormula,
        sampling_set: &[Var],
    ) -> Result<Self, SamplerError> {
        let mut sampler = UniformSampler::new(formula)?;
        let mut solver = Solver::from_formula(formula);
        let count = sampler.count;
        let limit = usize::try_from(count).map_err(|_| SamplerError::PreparationBudgetExhausted)?;
        let outcome = bounded_solutions(&mut solver, sampling_set, limit + 1, &Budget::new());
        if outcome.len() as u128 != count {
            // The exact counter counts total assignments; if the sampling set
            // is not an independent support the projected enumeration can
            // disagree. Treat that as a preparation failure rather than
            // silently sampling from the wrong space.
            return Err(SamplerError::PreparationBudgetExhausted);
        }
        // Canonical order (audit note: US has no width scan to overshoot,
        // but its uniform pick must be enumeration-order independent for the
        // same reason as the hashing samplers' cell picks).
        let mut witnesses = outcome.witnesses;
        crate::sampler::sort_witnesses_canonically(&mut witnesses, sampling_set);
        sampler.witnesses = Some(witnesses.into());
        Ok(sampler)
    }

    /// Returns the exact witness count `|R_F|`.
    pub fn count(&self) -> u128 {
        self.count
    }

    /// Draws a uniformly random witness index in `0 .. |R_F|`.
    pub fn sample_index(&self, rng: &mut dyn RngCore) -> u128 {
        // `gen_range` on u128 is supported by the `rand` crate directly.
        rng.gen_range(0..self.count)
    }

    /// Returns the materialised witnesses, if [`UniformSampler::with_witnesses`]
    /// was used.
    pub fn witnesses(&self) -> Option<&[Model]> {
        self.witnesses.as_deref()
    }
}

impl WitnessSampler for UniformSampler {
    /// Returns a uniformly chosen witness, or a [`SampleOutcome::faulted`]
    /// outcome if the sampler was built with [`UniformSampler::new`] (no
    /// materialised witnesses); use [`UniformSampler::with_witnesses`] when
    /// concrete models are required.
    fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
        let Some(witnesses) = self.witnesses.as_ref() else {
            return SampleOutcome::faulted(SampleStats::default());
        };
        let index = rng.gen_range(0..witnesses.len());
        SampleOutcome::of_witness(witnesses[index].clone(), SampleStats::default())
    }

    fn name(&self) -> &'static str {
        "US"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OutcomeKind;
    use rand::SeedableRng;
    use unigen_cnf::Lit;

    fn or_formula() -> CnfFormula {
        let mut f = CnfFormula::new(3);
        f.add_clause([
            Lit::from_dimacs(1),
            Lit::from_dimacs(2),
            Lit::from_dimacs(3),
        ])
        .unwrap();
        f
    }

    #[test]
    fn count_matches_brute_force() {
        let f = or_formula();
        let sampler = UniformSampler::new(&f).unwrap();
        assert_eq!(sampler.count(), 7);
    }

    #[test]
    fn indices_are_in_range_and_spread_out() {
        let f = or_formula();
        let sampler = UniformSampler::new(&f).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let index = sampler.sample_index(&mut rng);
            assert!(index < 7);
            seen.insert(index);
        }
        assert_eq!(seen.len(), 7, "200 draws should hit all 7 indices");
    }

    #[test]
    fn unsat_formula_is_rejected() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        assert!(matches!(
            UniformSampler::new(&f),
            Err(SamplerError::Unsatisfiable)
        ));
    }

    #[test]
    fn materialised_witnesses_enable_model_sampling() {
        let f = or_formula();
        let vars: Vec<Var> = (0..3).map(Var::new).collect();
        let mut sampler = UniformSampler::with_witnesses(&f, &vars).unwrap();
        assert_eq!(sampler.witnesses().unwrap().len(), 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let outcome = sampler.sample(&mut rng);
            assert!(f.evaluate(&outcome.witness.unwrap()));
        }
    }

    #[test]
    fn model_sampling_without_witnesses_is_faulted() {
        let f = or_formula();
        let mut sampler = UniformSampler::new(&f).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let outcome = sampler.sample(&mut rng);
        assert_eq!(outcome.kind, OutcomeKind::Faulted);
        assert!(outcome.witness.is_none());
    }
}
