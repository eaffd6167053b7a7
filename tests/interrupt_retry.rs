//! Property: interrupting a hash-cell enumeration and retrying it on the
//! **same** persistent solver converges to exactly the witness set an
//! uninterrupted enumeration finds — across the adversarial `instgen`
//! families, XOR layer widths 1–3, and both Gauss-engine modes.
//!
//! The retry loop starts with a 1-step budget (guaranteed to interrupt on
//! any non-trivial cell) and doubles it until the call completes, so every
//! case exercises the interrupt → consistent-solver → retry path several
//! times before the final, authoritative call. The solver's activation-guard
//! counters must balance afterwards: an interrupted `enumerate_cell` may not
//! leak its cell guard.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use unigen_hashing::XorHashFamily;
use unigen_instgen::strategy::{scale_free, sgen_sat, Instance};
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig};
use unigen_satsolver::{enumerate_cell, Budget, GaussMode, KnownWitnesses, Solver, SolverConfig};

const BOUND: usize = 64;

fn solver_for(formula: &unigen_cnf::CnfFormula, gauss: GaussMode) -> Solver {
    Solver::from_formula_with_config(
        formula,
        SolverConfig {
            gauss,
            ..SolverConfig::default()
        },
    )
}

/// Projects an enumeration outcome to the comparable facts: the distinct
/// witness set on the sampling set plus the exhaustive verdict.
fn digest(
    outcome: &unigen_satsolver::EnumerationOutcome,
    sampling_set: &[unigen_cnf::Var],
) -> (BTreeSet<Vec<bool>>, bool) {
    let set = outcome
        .witnesses
        .iter()
        .map(|w| {
            sampling_set
                .iter()
                .map(|v| w.values()[v.index()])
                .collect::<Vec<bool>>()
        })
        .collect();
    (set, outcome.is_exhaustive())
}

/// Drives one (formula, width, gauss) case and returns an error description
/// on the first violated invariant.
fn check_case(
    formula: &unigen_cnf::CnfFormula,
    width: usize,
    gauss: GaussMode,
    seed: u64,
) -> Result<(), String> {
    let sampling_set = formula.sampling_set_or_all();
    let width = width.min(sampling_set.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let xors = XorHashFamily::new(sampling_set.clone())
        .sample(width, &mut rng)
        .to_xor_clauses();

    // The uninterrupted reference, from a pristine solver.
    let mut reference_solver = solver_for(formula, gauss);
    let reference = enumerate_cell(
        &mut reference_solver,
        &sampling_set,
        &xors,
        BOUND,
        &Budget::new(),
        &KnownWitnesses::new(),
    );
    if reference.interrupted.is_some() {
        return Err("unlimited budget must not interrupt".to_string());
    }

    // The interrupt-retry lane: same cell, same solver, budget doubling
    // from 1 step until the call runs to completion.
    let mut retried_solver = solver_for(formula, gauss);
    let mut step_limit = 1u64;
    let mut interruptions = 0usize;
    let final_outcome = loop {
        let outcome = enumerate_cell(
            &mut retried_solver,
            &sampling_set,
            &xors,
            BOUND,
            &Budget::new().with_step_limit(step_limit),
            &KnownWitnesses::new(),
        );
        if outcome.interrupted.is_none() {
            break outcome;
        }
        interruptions += 1;
        if interruptions > 60 {
            return Err(format!(
                "cell still interrupted after {interruptions} doublings \
                 (step limit {step_limit})"
            ));
        }
        step_limit *= 2;
    };

    // The comparison follows the workspace determinism contract: an
    // exhaustive cell's witness set is solver-state independent, so it must
    // match exactly; a bound-reached cell legally returns any bound-sized
    // subset in search order, so only the count and verdict are comparable.
    let (final_set, final_exhaustive) = digest(&final_outcome, &sampling_set);
    let (reference_set, reference_exhaustive) = digest(&reference, &sampling_set);
    let agree = final_exhaustive == reference_exhaustive
        && final_set.len() == reference_set.len()
        && (!reference_exhaustive || final_set == reference_set);
    if !agree {
        return Err(format!(
            "after {interruptions} interruptions the retried enumeration \
             found {} witnesses (exhaustive: {}) but the uninterrupted \
             reference found {} (exhaustive: {})",
            final_outcome.len(),
            final_outcome.is_exhaustive(),
            reference.len(),
            reference.is_exhaustive(),
        ));
    }
    let stats = retried_solver.stats();
    if stats.guards_created != stats.guards_retired {
        return Err(format!(
            "interrupted enumerations leaked guards: {} created, {} retired",
            stats.guards_created, stats.guards_retired
        ));
    }
    Ok(())
}

fn instances() -> impl Strategy<Value = Instance<ScaleFreeConfig>> {
    scale_free(6usize..12, 1.5f64..3.5, 0u32..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Widths 1–3, Gauss on and off, over scale-free instances.
    #[test]
    fn interrupted_enumeration_retries_to_the_uninterrupted_witness_set(
        instance in instances(),
        width in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        for gauss in [GaussMode::On, GaussMode::Off] {
            if let Err(divergence) =
                check_case(&instance.formula, width, gauss, seed)
            {
                prop_assert!(
                    false,
                    "{} seed {:#x} width {} gauss {:?}: {}",
                    instance.config.name(),
                    instance.seed,
                    width,
                    gauss,
                    divergence
                );
            }
        }
    }

    /// The sgen-sat family drives the same property through block-structured
    /// counting constraints (a very different propagation profile).
    #[test]
    fn interrupt_retry_holds_on_sgen_blocks(
        instance in sgen_sat(1usize..3),
        width in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        for gauss in [GaussMode::On, GaussMode::Off] {
            if let Err(divergence) =
                check_case(&instance.formula, width, gauss, seed)
            {
                prop_assert!(
                    false,
                    "{} seed {:#x} width {} gauss {:?}: {}",
                    instance.config.name(),
                    instance.seed,
                    width,
                    gauss,
                    divergence
                );
            }
        }
    }
}

/// 2^7 = 128 witnesses over the sampling set {x1…x7}, each free variable
/// copied into a dependent one.
fn formula_with_128_witnesses() -> unigen_cnf::CnfFormula {
    use unigen_cnf::{Var, XorClause};
    let mut f = unigen_cnf::CnfFormula::new(12);
    for i in 0..5 {
        f.add_xor_clause(XorClause::new([Var::new(i), Var::new(7 + i)], false))
            .unwrap();
    }
    f.set_sampling_set((0..7).map(Var::new)).unwrap();
    f
}

/// A sampler's attempt to prove its known-witness list complete is one
/// more enumeration under the per-call budget. On this formula a 150-step
/// limit lets preparation and almost every sampling cell finish but cuts
/// the attempt's final refutation of the whole formula short: nothing is
/// published, and the cells go on being searched.
#[test]
fn an_interrupted_completeness_attempt_publishes_nothing() {
    use unigen::{UniGen, UniGenConfig, WitnessSampler};

    let f = formula_with_128_witnesses();
    let run = |budget: Budget| {
        let config = UniGenConfig::default().with_bsat_budget(budget);
        let prototype = UniGen::new(&f, config).unwrap();
        let mut sampler = prototype.clone();
        let outcomes = sampler.sample_batch(100, 7);
        let bsat_calls: u64 = outcomes.iter().map(|o| o.stats.bsat_calls as u64).sum();
        let guards =
            sampler.solver_stats().guards_created - prototype.solver_stats().guards_created;
        let valid = outcomes
            .iter()
            .filter(|o| o.witness.as_ref().is_some_and(|w| f.evaluate(w)))
            .count();
        let witnesses = outcomes.iter().filter(|o| o.witness.is_some()).count();
        assert_eq!(valid, witnesses, "every witness satisfies the formula");
        (sampler.proven_witness_count(), guards, bsat_calls, valid)
    };

    let (published, guards, bsat_calls, valid) = run(Budget::new().with_step_limit(150));
    assert_eq!(published, None);
    // While nothing is published, every cell and every attempt takes one
    // guard, and nothing else does.
    assert!(guards > bsat_calls, "no completeness attempt ran");
    assert!(valid >= 90, "only {valid}/100 samples yielded a witness");

    // Without the cut, the same run proves the list complete.
    let (published, ..) = run(Budget::new());
    assert_eq!(published, Some(128));
}
