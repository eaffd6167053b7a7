//! Online certification of the sampler's solver reasoning.
//!
//! When [`crate::UniGenConfig::certify`] is on, the persistent solver runs
//! with a DRAT-style proof sink installed (see `unigen_satsolver::proof`),
//! and every cell enumeration is re-checked *as it happens* by an
//! independent [`unigen_cert::Checker`] — the offline checker crate that
//! shares no code with the solver. A cell whose proof fails to check is
//! reported as [`crate::OutcomeKind::Faulted`] instead of being trusted.
//!
//! The [`cert_formula`] converter is also what offline tooling
//! (`xtask certify`, the fuzz harness) uses to hand the checker the same
//! base formula the solver was built from.

use unigen_cnf::CnfFormula;
use unigen_satsolver::Solver;

use crate::sampler::SampleStats;

/// Converts a [`CnfFormula`] into the dependency-free representation the
/// [`unigen_cert`] checker verifies proofs against.
///
/// Clause literals map to signed DIMACS integers and xor constraints to
/// 1-based variable lists with their parity — exactly the view of the
/// formula the solver logs its `Axiom` and `XorRow` steps in.
pub fn cert_formula(formula: &CnfFormula) -> unigen_cert::Formula {
    let mut out = unigen_cert::Formula::new(formula.num_vars());
    let mut lits: Vec<i64> = Vec::new();
    for clause in formula.clauses() {
        lits.clear();
        lits.extend(clause.iter().map(|l| l.to_dimacs()));
        out.add_clause(&lits);
    }
    let mut vars: Vec<u64> = Vec::new();
    for xor in formula.xor_clauses() {
        vars.clear();
        vars.extend(xor.vars().iter().map(|v| v.to_dimacs() as u64));
        out.add_xor(&vars, xor.rhs());
    }
    out
}

/// The sampler-side incremental certification state: an independent checker
/// plus a watermark into the solver's proof stream.
///
/// Cloning a solver forks its proof stream; cloning the certifier forks the
/// checker at the same point, so a prepared sampler cloned for a parallel
/// worker keeps stream and checker consistent on both sides.
#[derive(Debug, Clone)]
pub(crate) struct Certifier {
    /// The base formula, kept so the checker can be rebuilt from scratch
    /// when the degradation ladder replaces the solver (and its stream)
    /// with the pristine snapshot.
    formula: unigen_cert::Formula,
    checker: unigen_cert::Checker,
    /// Bytes of the solver's proof stream already fed to the checker.
    watermark: usize,
}

impl Certifier {
    pub(crate) fn new(formula: &CnfFormula) -> Self {
        let formula = cert_formula(formula);
        let checker = unigen_cert::Checker::new(&formula);
        Certifier {
            formula,
            checker,
            watermark: 0,
        }
    }

    /// Feeds every proof byte the solver has logged since the last call into
    /// the checker, folding the byte/check counters into `stats` when given.
    /// Check time is not split out: it is part of the sample's `wall_time`,
    /// which the worker pool stamps around the whole `sample` call.
    ///
    /// # Errors
    ///
    /// Propagates the checker's [`unigen_cert::CheckError`] verbatim: the
    /// solver claimed something the independent checker could not verify.
    pub(crate) fn absorb(
        &mut self,
        solver: &mut Solver,
        stats: Option<&mut SampleStats>,
    ) -> Result<(), unigen_cert::CheckError> {
        let Some(bytes) = solver.proof_bytes() else {
            return Ok(());
        };
        let fresh = &bytes[self.watermark.min(bytes.len())..];
        let fed = fresh.len();
        let result = self.checker.feed(fresh);
        self.watermark += fed;
        if let Some(stats) = stats {
            stats.proof_bytes += fed;
            stats.cert_checks += 1;
        }
        result
    }

    /// Discards all checker state: called when the solver is rebuilt from
    /// its pristine snapshot, whose (cloned) proof stream diverges from the
    /// stream the checker has consumed so far. The next [`Certifier::absorb`]
    /// re-verifies the new stream from its beginning.
    pub(crate) fn reset(&mut self) {
        self.checker = unigen_cert::Checker::new(&self.formula);
        self.watermark = 0;
    }

    /// Number of proof-stream steps verified so far.
    pub(crate) fn steps(&self) -> u64 {
        self.checker.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::{Lit, Var, XorClause};

    #[test]
    fn converter_preserves_clauses_and_xors() {
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(-3)])
            .unwrap();
        f.add_xor_clause(XorClause::new([Var::new(0), Var::new(3)], true))
            .unwrap();
        let cert = cert_formula(&f);
        assert_eq!(cert.num_vars(), 4);
        assert_eq!(cert.num_clauses(), 1);
        assert_eq!(cert.num_xors(), 1);
    }

    #[test]
    fn absorb_without_a_proof_sink_is_a_no_op() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let mut solver = Solver::from_formula(&f);
        let mut cert = Certifier::new(&f);
        let mut stats = SampleStats::default();
        cert.absorb(&mut solver, Some(&mut stats)).unwrap();
        assert_eq!(cert.steps(), 0);
        assert_eq!(stats.proof_bytes, 0);
        assert_eq!(stats.cert_checks, 0);
    }
}
