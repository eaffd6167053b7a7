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
