//! Output checks. They run after the timed phase, untimed, and a failure
//! fails the run rather than moving a metric.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use unigen_cnf::{Lit, Var};
use unigen_net::wire::{self, WireOutcomeKind};
use unigen_satsolver::{SolveResult, Solver};

use crate::gen::Formula;
use crate::wireconn::Exchange;

/// Check one answered exchange against the request it answers: the echoed
/// fingerprint and sampling set, one chunk per index in order, and a
/// `Done.successes` that matches the witness chunks.
pub fn check_stream(formula: &Formula, count: u64, ex: &Exchange) -> Result<(), String> {
    if ex.fingerprint != Some(formula.fingerprint) {
        return Err(format!(
            "{}: fingerprint {:?}, expected {:016x}",
            formula.name, ex.fingerprint, formula.fingerprint
        ));
    }
    if ex.sampling_set != formula.sampling_set {
        return Err(format!("{}: sampling set differs", formula.name));
    }
    if ex.chunks.len() as u64 != count {
        return Err(format!(
            "{}: {} chunks for count {count}",
            formula.name,
            ex.chunks.len()
        ));
    }
    for (i, (index, kind, bits)) in ex.chunks.iter().enumerate() {
        if *index != i as u64 {
            return Err(format!("{}: chunk {i} carries index {index}", formula.name));
        }
        if *kind == WireOutcomeKind::Witness
            && wire::unpack_bits(bits, formula.sampling_set.len()).is_none()
        {
            return Err(format!("{}: chunk {i} has a corrupt payload", formula.name));
        }
    }
    if ex.successes != ex.witnesses() {
        return Err(format!(
            "{}: Done reports {} successes for {} witness chunks",
            formula.name,
            ex.successes,
            ex.witnesses()
        ));
    }
    Ok(())
}

/// Collects received projected witnesses per formula and checks that
/// each extends to a model of its formula (one solve under assumptions
/// per distinct witness).
#[derive(Default)]
pub struct WitnessCheck {
    pending: HashMap<u64, (Arc<Formula>, HashSet<Vec<u8>>)>,
}

impl WitnessCheck {
    /// Queue the witnesses of `ex` (answering a request about `formula`).
    pub fn add(&mut self, formula: &Arc<Formula>, ex: &Exchange) {
        let entry = self
            .pending
            .entry(formula.fingerprint)
            .or_insert_with(|| (Arc::clone(formula), HashSet::new()));
        for (_, kind, bits) in &ex.chunks {
            if *kind == WireOutcomeKind::Witness {
                entry.1.insert(bits.clone());
            }
        }
    }

    /// Run every check; returns the number of distinct witnesses checked.
    pub fn run(self) -> Result<usize, String> {
        let mut checked = 0;
        for (formula, witnesses) in self.pending.into_values() {
            let mut solver = Solver::from_formula(&formula.cnf);
            for bits in witnesses {
                let values = wire::unpack_bits(&bits, formula.sampling_set.len())
                    .ok_or_else(|| format!("{}: corrupt witness payload", formula.name))?;
                let assumptions: Vec<Lit> = formula
                    .sampling_set
                    .iter()
                    .zip(values)
                    .map(|(&v, value)| Lit::new(Var::new(v as usize), value))
                    .collect();
                match solver.solve_under_assumptions(&assumptions) {
                    SolveResult::Sat(_) => checked += 1,
                    other => {
                        return Err(format!(
                            "{}: a received witness does not extend to a model ({other:?})",
                            formula.name
                        ))
                    }
                }
            }
        }
        Ok(checked)
    }
}
