//! The differential fuzz harness: for a generated instance, the solver
//! stack is run three independent ways over the same sequence of XOR hash
//! cells — a persistent incremental solver with the Gauss engine forced
//! **on**, a persistent incremental solver with it forced **off**, and
//! scratch enumeration from a fresh solver per cell — and the results must
//! agree exactly: same projected witness *sets*, same exhaustive/Unsat
//! verdicts, same counts. Small instances are additionally checked against
//! a brute-force oracle, and `SolverStats` invariants (guard bookkeeping,
//! solve-call accounting) are asserted on both persistent solvers.
//!
//! The Gauss-on lane additionally runs with proof logging enabled, and the
//! stream is verified cell-by-cell with the independent [`unigen_cert`]
//! checker: every exhausted cell must carry a checked refutation of its
//! blocked residue, and the checker's per-cell verdicts must agree with the
//! enumeration outcomes the harness observed. That lane also replays the
//! witnesses of the case's earlier cells into each cell
//! ([`KnownWitnesses`]), so its proof checks replayed witnesses and its
//! exhaustive cells must still equal the Gauss-off lane's searched sets.
//!
//! [`service_case`] covers the sampler layer: batch determinism through
//! [`SamplerService`] against the serial [`WitnessSampler::sample_batch`]
//! reference, a typed [`SamplerError::Unsatisfiable`] from UniGen
//! preparation on unsat inputs, and clean all-⊥ outcomes (never a wedged
//! worker) when UniWit samples an unsat instance.
//!
//! Everything is driven by a single `u64` seed, so a failure report's seed
//! plus the instance name is a complete reproduction recipe.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unigen::{
    cert_formula, SampleOutcome, SampleRequest, SamplerError, SamplerService, ServiceConfig,
    UniGen, UniGenConfig, UniWit, UniWitConfig, WitnessSampler,
};
use unigen_cert::Checker;
use unigen_cnf::{CnfFormula, Model, Var, XorClause};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{
    enumerate_cell, Budget, GaussMode, KnownWitnesses, ProofLog, Solver, SolverConfig,
};

/// Knobs for [`differential_case`]. The defaults keep a debug-mode case in
/// the low milliseconds on the instance sizes the fuzz tests use.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Widest XOR layer to draw (the harness also always runs the empty
    /// layer, i.e. plain `BSAT` over the base formula).
    pub max_width: usize,
    /// Hash cells drawn per width.
    pub cells_per_width: usize,
    /// Enumeration bound (`BSAT`'s cutoff) per cell.
    pub bound: usize,
    /// Brute-force-oracle cutoff: cells on formulas with at most this many
    /// variables are also checked against exhaustive model enumeration.
    pub oracle_max_vars: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_width: 3,
            cells_per_width: 2,
            bound: 16,
            oracle_max_vars: 12,
        }
    }
}

/// What one differential case observed; `divergence` is `None` when all
/// modes agreed and every invariant held.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Instance name (from [`crate::InstanceGenerator::name`]).
    pub name: String,
    /// The case seed — with the name, the full reproduction recipe.
    pub seed: u64,
    /// Hash cells checked (including the empty layers).
    pub cells: usize,
    /// Cells that were exhaustively empty (Unsat under the layer).
    pub unsat_cells: usize,
    /// Witnesses seen across all cells in the Gauss-on mode.
    pub witnesses: usize,
    /// Proof steps the independent checker verified on the Gauss-on lane.
    pub certified_steps: u64,
    /// Human-readable description of the first disagreement, if any.
    pub divergence: Option<String>,
}

/// One cell result reduced to what the modes must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CellDigest {
    witnesses: BTreeSet<Vec<bool>>,
    exhaustive: bool,
}

fn digest(outcome: &unigen_satsolver::EnumerationOutcome, sampling_set: &[Var]) -> CellDigest {
    CellDigest {
        witnesses: outcome
            .witnesses
            .iter()
            .map(|w| project(w, sampling_set))
            .collect(),
        exhaustive: outcome.is_exhaustive(),
    }
}

fn project(model: &Model, sampling_set: &[Var]) -> Vec<bool> {
    sampling_set
        .iter()
        .map(|v| model.values()[v.index()])
        .collect()
}

/// Runs the three-way differential check on `formula`. All randomness (which
/// XOR layers are drawn) comes from `seed`; the same `(formula, seed,
/// config)` triple always checks the same cells.
pub fn differential_case(
    name: &str,
    formula: &CnfFormula,
    seed: u64,
    config: &FuzzConfig,
) -> CaseReport {
    let sampling_set = formula.sampling_set_or_all();
    let mut rng = StdRng::seed_from_u64(seed);
    let family = XorHashFamily::new(sampling_set.clone());

    // The cell schedule: the empty layer first (plain BSAT), then
    // `cells_per_width` cells at each width, then the empty layer again —
    // a persistent solver that has seen hashed cells must still answer the
    // base query identically (no residue from retired guards).
    let mut layers: Vec<Vec<XorClause>> = vec![Vec::new()];
    let max_width = config.max_width.min(sampling_set.len());
    for width in 1..=max_width {
        for _ in 0..config.cells_per_width {
            layers.push(family.sample(width, &mut rng).to_xor_clauses());
        }
    }
    layers.push(Vec::new());

    // The Gauss-on lane records a proof stream, verified incrementally by
    // the independent checker as a fourth differential dimension: logging
    // must not perturb enumeration, and every step must check.
    let mut gauss_on = Solver::from_formula_with_config(
        formula,
        SolverConfig {
            gauss: GaussMode::On,
            proof: Some(ProofLog::new()),
            ..SolverConfig::default()
        },
    );
    let mut checker = Checker::new(&cert_formula(formula));
    let mut watermark = 0usize;
    let mut gauss_off = Solver::from_formula_with_config(
        formula,
        SolverConfig {
            gauss: GaussMode::Off,
            ..SolverConfig::default()
        },
    );

    let budget = Budget::new();
    let mut report = CaseReport {
        name: name.to_string(),
        seed,
        cells: layers.len(),
        unsat_cells: 0,
        witnesses: 0,
        certified_steps: 0,
        divergence: None,
    };
    let mut empty_layer_digests: Vec<CellDigest> = Vec::new();
    // The Gauss-on lane replays every witness its earlier cells found, as
    // ApproxMC and the sampler do; the Gauss-off lane searches every cell
    // from scratch, so the two lanes also check replay against search.
    let mut known = KnownWitnesses::new();

    for (cell_index, xors) in layers.iter().enumerate() {
        let on_outcome = enumerate_cell(
            &mut gauss_on,
            &sampling_set,
            xors,
            config.bound,
            &budget,
            &known,
        );
        known.extend(on_outcome.found());
        let off_outcome = enumerate_cell(
            &mut gauss_off,
            &sampling_set,
            xors,
            config.bound,
            &budget,
            &KnownWitnesses::new(),
        );

        // Certify the cell's proof-stream suffix before anything else: a
        // rejected step localises the failure to this cell.
        let bytes = match gauss_on.proof_bytes() {
            Some(bytes) => bytes.to_vec(),
            None => {
                report.divergence = Some(format!(
                    "cell {cell_index}: the gauss-on lane lost its proof sink"
                ));
                return report;
            }
        };
        if let Err(err) = checker.feed(&bytes[watermark..]) {
            report.divergence = Some(format!(
                "cell {cell_index} ({} xors): proof certification failed: {err}",
                xors.len()
            ));
            return report;
        }
        watermark = bytes.len();

        // Scratch: a fresh default-config solver over the formula with the
        // cell's XORs baked in as base constraints.
        let mut hashed = formula.clone();
        for xor in xors {
            if hashed.add_xor_clause(xor.clone()).is_err() {
                report.divergence = Some(format!(
                    "cell {cell_index}: hash layer produced an out-of-range xor"
                ));
                return report;
            }
        }
        let mut scratch_solver = Solver::from_formula(&hashed);
        let scratch_outcome = unigen_satsolver::bounded_solutions(
            &mut scratch_solver,
            &sampling_set,
            config.bound,
            &budget,
        );

        // Every mode's witnesses must actually satisfy the hashed formula.
        for (mode, outcome) in [
            ("gauss-on", &on_outcome),
            ("gauss-off", &off_outcome),
            ("scratch", &scratch_outcome),
        ] {
            if let Some(bad) = outcome.witnesses.iter().find(|w| !hashed.evaluate(w)) {
                report.divergence = Some(format!(
                    "cell {cell_index} ({} xors): {mode} returned a non-witness \
                     (projection {:?})",
                    xors.len(),
                    project(bad, &sampling_set)
                ));
                return report;
            }
        }

        let on = digest(&on_outcome, &sampling_set);
        let off = digest(&off_outcome, &sampling_set);
        let scratch = digest(&scratch_outcome, &sampling_set);

        // All modes must agree on the semantic facts: the exhaustive/Unsat
        // verdict and the distinct-witness count. The witness *sets* must
        // match exactly when the cell was exhaustive; a bound-reached cell
        // legally returns any `bound`-sized subset, in search order, so
        // only the count (== bound) is comparable there.
        for (mode, got) in [("gauss-off", &off), ("scratch", &scratch)] {
            let agree = got.exhaustive == on.exhaustive
                && got.witnesses.len() == on.witnesses.len()
                && (!on.exhaustive || got.witnesses == on.witnesses);
            if !agree {
                report.divergence = Some(format!(
                    "cell {cell_index} ({} xors): {mode} disagrees with gauss-on: \
                     {} vs {} witnesses, exhaustive {} vs {}",
                    xors.len(),
                    got.witnesses.len(),
                    on.witnesses.len(),
                    got.exhaustive,
                    on.exhaustive
                ));
                return report;
            }
        }

        // Brute-force oracle on small instances: when the cell was
        // exhaustive, its witness set must be exactly the projected models
        // of the hashed formula.
        if formula.num_vars() <= config.oracle_max_vars && on.exhaustive {
            let expected: BTreeSet<Vec<bool>> = hashed
                .enumerate_models_brute_force()
                .iter()
                .map(|m| project(m, &sampling_set))
                .collect();
            if expected != on.witnesses {
                report.divergence = Some(format!(
                    "cell {cell_index}: brute-force oracle found {} projected models, \
                     solver enumerated {}",
                    expected.len(),
                    on.witnesses.len()
                ));
                return report;
            }
        }

        if xors.is_empty() {
            empty_layer_digests.push(on.clone());
        }
        if on.exhaustive && on.witnesses.is_empty() {
            report.unsat_cells += 1;
        }
        report.witnesses += on.witnesses.len();
    }

    // The empty layer before and after the hashed cells must agree: retired
    // guards may not leave residue in the persistent solvers. (As above,
    // identical sets are only required when the enumeration was
    // exhaustive; a bound-reached base query may return a different
    // subset once the clause database has evolved.)
    let residue_free = empty_layer_digests[0].exhaustive == empty_layer_digests[1].exhaustive
        && empty_layer_digests[0].witnesses.len() == empty_layer_digests[1].witnesses.len()
        && (!empty_layer_digests[0].exhaustive
            || empty_layer_digests[0].witnesses == empty_layer_digests[1].witnesses);
    if !residue_free {
        report.divergence = Some(format!(
            "base-formula enumeration changed after {} hashed cells: \
             {} vs {} witnesses",
            report.cells - 2,
            empty_layer_digests[0].witnesses.len(),
            empty_layer_digests[1].witnesses.len()
        ));
        return report;
    }

    // SolverStats invariants on both persistent solvers.
    for (mode, solver) in [("gauss-on", &gauss_on), ("gauss-off", &gauss_off)] {
        let stats = solver.stats();
        if stats.guards_created != stats.guards_retired {
            report.divergence = Some(format!(
                "{mode}: guard leak — {} created, {} retired",
                stats.guards_created, stats.guards_retired
            ));
            return report;
        }
        if stats.solve_calls < report.cells as u64 {
            report.divergence = Some(format!(
                "{mode}: only {} solve calls across {} cells",
                stats.solve_calls, report.cells
            ));
            return report;
        }
    }

    // Close out the proof check and cross-check the checker's independent
    // per-cell verdicts against what the harness itself observed on the
    // Gauss-on lane. (The budget here is never interrupted, so every cell
    // certificate must be complete.)
    let cert = match checker.finish() {
        Ok(cert) => cert,
        Err(err) => {
            report.divergence = Some(format!("proof stream failed final checking: {err}"));
            return report;
        }
    };
    if let Err(err) = cert.require_complete() {
        report.divergence = Some(format!("proof certificate incomplete: {err}"));
        return report;
    }
    report.certified_steps = cert.steps;
    let certified_witnesses: usize = cert.cells.iter().map(|c| c.witnesses.len()).sum();
    let certified_empty = cert
        .cells
        .iter()
        .filter(|c| c.exhaustive() && c.witnesses.is_empty())
        .count();
    if cert.cells.len() != report.cells
        || certified_witnesses != report.witnesses
        || certified_empty != report.unsat_cells
    {
        report.divergence = Some(format!(
            "certificate disagrees with the enumeration outcomes: \
             {} cells / {} witnesses / {} empty certified, but \
             {} / {} / {} observed",
            cert.cells.len(),
            certified_witnesses,
            certified_empty,
            report.cells,
            report.witnesses,
            report.unsat_cells
        ));
        return report;
    }

    report
}

/// Cross-checks the sampler layer on `formula`, returning a divergence
/// description or `None`.
///
/// On satisfiable input: a 2-worker [`SamplerService`] must reproduce the
/// serial `sample_batch` witness sequence for the same request, twice (the
/// second submission proving the pool survived the first), and a serial
/// lane prepared with [`UniGenConfig::certify`] must reproduce it as well
/// with every proof step verified (logging must not perturb sampling). On
/// unsatisfiable input: UniGen preparation must fail with the typed
/// [`SamplerError::Unsatisfiable`] — certified or not — while UniWit must
/// build, answer every sample with a clean ⊥ outcome, and leave the
/// service pool alive for a follow-up request.
pub fn service_case(name: &str, formula: &CnfFormula, seed: u64) -> Option<String> {
    let count = 4;
    match UniGen::new(formula, UniGenConfig::default()) {
        Ok(prepared) => {
            let serial = prepared.clone().sample_batch(count, seed);

            // The certified lane: identical witnesses, verified proofs.
            let mut certified =
                match UniGen::new(formula, UniGenConfig::default().with_certify(true)) {
                    Ok(p) => p,
                    Err(e) => {
                        return Some(format!(
                            "{name} seed {seed:#x}: certified preparation failed with {e:?} \
                             where uncertified preparation succeeded"
                        ));
                    }
                };
            let certified_batch = certified.sample_batch(count, seed);
            if let Some(err) = certified.cert_error() {
                return Some(format!(
                    "{name} seed {seed:#x}: certification rejected the sampler's \
                     proof stream: {err}"
                ));
            }
            if witness_sequence(&certified_batch) != witness_sequence(&serial) {
                return Some(format!(
                    "{name} seed {seed:#x}: the certified lane diverged from the \
                     uncertified sample_batch reference"
                ));
            }
            if certified.certified_steps().unwrap_or(0) == 0 {
                return Some(format!(
                    "{name} seed {seed:#x}: the certified lane verified zero proof steps"
                ));
            }
            let service =
                match SamplerService::try_new(prepared, ServiceConfig::default().with_workers(2)) {
                    Ok(service) => service,
                    Err(e) => return Some(format!("{name} seed {seed:#x}: service refused: {e}")),
                };
            for round in 0..2 {
                let response = service.submit(SampleRequest::new(count, seed)).wait();
                if witness_sequence(&response.outcomes) != witness_sequence(&serial) {
                    return Some(format!(
                        "{name} seed {seed:#x}: service round {round} diverged from \
                         the serial sample_batch reference"
                    ));
                }
            }
            None
        }
        Err(SamplerError::Unsatisfiable) => {
            // Certified preparation must reach the same typed verdict: the
            // refutation is proof-checked, never reported as a cert failure.
            match UniGen::new(formula, UniGenConfig::default().with_certify(true)) {
                Err(SamplerError::Unsatisfiable) => {}
                other => {
                    return Some(format!(
                        "{name} seed {seed:#x}: certified preparation of an unsat \
                         instance returned {:?} instead of Unsatisfiable",
                        other.map(|_| "a prepared sampler")
                    ));
                }
            }
            let prepared = match UniWit::new(formula, UniWitConfig::default()) {
                Ok(p) => p,
                Err(e) => {
                    return Some(format!(
                        "{name} seed {seed:#x}: UniWit refused an unsat formula \
                         with {e:?} instead of preparing a ⊥-producing sampler"
                    ));
                }
            };
            let service =
                match SamplerService::try_new(prepared, ServiceConfig::default().with_workers(2)) {
                    Ok(service) => service,
                    Err(e) => return Some(format!("{name} seed {seed:#x}: service refused: {e}")),
                };
            for round in 0..2 {
                let response = service
                    .submit(SampleRequest::new(count, seed.wrapping_add(round)))
                    .wait();
                if response.outcomes.len() != count {
                    return Some(format!(
                        "{name} seed {seed:#x}: unsat request round {round} returned \
                         {} of {count} outcomes",
                        response.outcomes.len()
                    ));
                }
                if let Some(witness) = response.outcomes.iter().find_map(|o| o.witness.as_ref()) {
                    return Some(format!(
                        "{name} seed {seed:#x}: unsat instance produced a witness \
                         over {} vars instead of ⊥",
                        witness.values().len()
                    ));
                }
            }
            None
        }
        Err(other) => Some(format!(
            "{name} seed {seed:#x}: UniGen preparation failed with {other:?}"
        )),
    }
}

fn witness_sequence(outcomes: &[SampleOutcome]) -> Vec<Option<Vec<bool>>> {
    outcomes
        .iter()
        .map(|o| o.witness.as_ref().map(|w| w.values().to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceGenerator, ScaleFreeConfig, SgenConfig};

    #[test]
    fn differential_case_passes_on_a_small_sat_instance() {
        let config = ScaleFreeConfig {
            num_vars: 10,
            num_clauses: 25,
            clause_len: 3,
            exponent_quarters: 3,
        };
        let formula = config.generate(1);
        let report = differential_case(&config.name(), &formula, 1, &FuzzConfig::default());
        assert_eq!(report.divergence, None, "{report:?}");
        assert!(report.cells >= 2);
        assert!(
            report.certified_steps > 0,
            "the gauss-on lane's proof stream was checked: {report:?}"
        );
    }

    #[test]
    fn differential_case_passes_on_a_hard_unsat_instance() {
        let config = SgenConfig {
            blocks: 2,
            unsat: true,
        };
        let formula = config.generate(3);
        let report = differential_case(&config.name(), &formula, 3, &FuzzConfig::default());
        assert_eq!(report.divergence, None, "{report:?}");
        assert_eq!(
            report.unsat_cells, report.cells,
            "every cell of an unsat formula is exhaustively empty"
        );
        assert_eq!(report.witnesses, 0);
        assert!(
            report.certified_steps > 0,
            "every empty cell carries a checked refutation: {report:?}"
        );
    }

    #[test]
    fn service_case_passes_on_both_verdicts() {
        let sat = ScaleFreeConfig {
            num_vars: 8,
            num_clauses: 16,
            clause_len: 3,
            exponent_quarters: 2,
        };
        assert_eq!(service_case(&sat.name(), &sat.generate(2), 2), None);
        let unsat = SgenConfig {
            blocks: 1,
            unsat: true,
        };
        assert_eq!(service_case(&unsat.name(), &unsat.generate(2), 2), None);
    }
}
