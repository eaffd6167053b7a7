//! The UniGen algorithm (Algorithm 1 of the paper).

use std::sync::Arc;

use rand::{Rng, RngCore};

use unigen_cnf::{CnfFormula, Model, Var, XorClause};
use unigen_counting::{ApproxMc, ApproxMcConfig};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{
    enumerate_cell, EnumerationOutcome, FaultHook, GaussMode, InterruptReason, ProofLog, Solver,
    SolverConfig, SolverStats,
};

use crate::certify::Certifier;
use crate::config::UniGenConfig;
use crate::error::SamplerError;
use crate::fault::FaultPlan;
use crate::kappa_pivot::{compute_kappa_pivot, KappaPivot};
use crate::sampler::{
    enumerate_charged, failed_outcome, OutcomeKind, SampleOutcome, SampleStats, WitnessSampler,
};

/// How many times a failed (budget-exhausted) `BSAT` call on line 16 is
/// retried with fresh randomness without advancing the hash width — the
/// paper repeats lines 14–16 when a call times out.
const BSAT_RETRIES: usize = 2;

/// What the one-off preparation phase (lines 1–11 of Algorithm 1) concluded
/// about the formula.
#[derive(Debug, Clone)]
pub enum PreparedMode {
    /// The formula has at most `hiThresh` witnesses (lines 5–7): they are all
    /// stored and sampling reduces to a uniform pick among them.
    Enumerated {
        /// Every witness of the formula (distinct on the sampling set), in
        /// canonical (projection) order. Shared via [`Arc`] so cloning a
        /// prepared sampler for a parallel worker does not copy the list.
        witnesses: Arc<[Model]>,
    },
    /// The general case (lines 9–11): an approximate count `C` fixed the
    /// candidate hash widths `{q−3,…,q}`.
    Hashed {
        /// The approximate model count returned by `ApproxMC(F, 0.8, 0.8)`.
        approx_count: u128,
        /// The upper end of the candidate hash-width window.
        q: usize,
    },
}

/// The UniGen almost-uniform witness generator.
///
/// Construction runs the *preparation* phase of Algorithm 1 (lines 1–11):
/// computing κ and pivot, probing whether the formula is small enough to
/// enumerate outright, and otherwise obtaining the approximate count that
/// pins down the candidate hash widths. Every subsequent [`UniGen::sample`]
/// call only runs the cheap per-witness part (lines 12–22), which is what
/// lets the cost of preparation be amortised over many samples — the
/// guarantee-preserving replacement for UniWit's "leap-frogging" discussed in
/// Section 4.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct UniGen {
    /// The sampling set `S`, shared cheaply with every parallel worker clone.
    sampling_set: Arc<[Var]>,
    config: UniGenConfig,
    kappa_pivot: KappaPivot,
    family: XorHashFamily,
    mode: PreparedMode,
    /// The one incremental solver reused for every `BSAT` call this sampler
    /// ever issues: hash layers and blocking clauses are guard-scoped per
    /// cell, while base-formula learned clauses and activities persist.
    solver: Solver,
    /// The installed chaos-testing schedule, if any; doubles as the solver's
    /// fault hook. `None` (the default) costs one pointer test per solve.
    fault_plan: Option<Arc<FaultPlan>>,
    /// A pristine post-preparation snapshot of the solver, kept only while a
    /// fault plan is installed: the last rung of the degradation ladder
    /// rebuilds the working solver from it when retries keep faulting.
    pristine: Option<Box<Solver>>,
    /// Online certification state ([`UniGenConfig::certify`]): the
    /// independent proof checker plus its watermark into the solver's proof
    /// stream. `None` when certify mode is off.
    certifier: Option<Certifier>,
    /// The first certification failure observed while sampling, kept for
    /// diagnosis (the failing cell itself is reported as
    /// [`OutcomeKind::Faulted`]).
    cert_error: Option<unigen_cert::CheckError>,
}

impl UniGen {
    /// Prepares a UniGen sampler for `formula`, using the formula's declared
    /// sampling set (or its full support when none is declared).
    ///
    /// # Errors
    ///
    /// * [`SamplerError::EpsilonTooSmall`] if `config.epsilon ≤ 1.71`,
    /// * [`SamplerError::EmptySamplingSet`] if the formula has no variables,
    /// * [`SamplerError::Unsatisfiable`] if the formula has no witnesses,
    /// * [`SamplerError::Counting`] / [`SamplerError::PreparationBudgetExhausted`]
    ///   if the preparation phase cannot complete.
    pub fn new(formula: &CnfFormula, config: UniGenConfig) -> Result<Self, SamplerError> {
        let sampling_set = formula.sampling_set_or_all();
        Self::with_sampling_set(formula, &sampling_set, config)
    }

    /// Prepares a UniGen sampler with an explicit sampling set `S`.
    ///
    /// The theoretical guarantee requires `S` to be an independent support of
    /// the formula (which can be checked with
    /// [`unigen_satsolver::support::verify_independent_support`]); passing
    /// the full support is always sound but sacrifices the short-xor
    /// advantage.
    ///
    /// # Errors
    ///
    /// See [`UniGen::new`].
    pub fn with_sampling_set(
        formula: &CnfFormula,
        sampling_set: &[Var],
        config: UniGenConfig,
    ) -> Result<Self, SamplerError> {
        if sampling_set.is_empty() {
            return Err(SamplerError::EmptySamplingSet);
        }
        let kappa_pivot = compute_kappa_pivot(config.epsilon)?;
        let hi_count = kappa_pivot.hi_thresh_count();

        // The single solver instance for this sampler's lifetime. Certify
        // mode installs the proof sink before the formula is loaded, so the
        // stream opens with the axioms the checker validates against.
        let mut solver = if config.certify {
            let solver_config = SolverConfig {
                proof: Some(ProofLog::new()),
                ..SolverConfig::default()
            };
            Solver::from_formula_with_config(formula, solver_config)
        } else {
            Solver::from_formula(formula)
        };
        let mut certifier = config.certify.then(|| Certifier::new(formula));

        // Line 4: Y ← BSAT(F, hiThresh). (The bound is hiThresh + 1 so that a
        // result of exactly hiThresh witnesses can be told apart from "more
        // than hiThresh".) Run under a guard so the blocking clauses vanish
        // and the solver enters the sampling phase pristine.
        let outcome = enumerate_cell(
            &mut solver,
            sampling_set,
            &[],
            hi_count + 1,
            &config.bsat_budget,
        );
        // The preparation cell's proof is checked before its outcome is
        // acted on — even an empty cell (unsatisfiable formula) must carry a
        // verified refutation, never an unchecked claim.
        if let Some(certifier) = certifier.as_mut() {
            if let Err(err) = certifier.absorb(&mut solver, None) {
                return Err(SamplerError::CertificationFailed {
                    detail: err.to_string(),
                });
            }
        }
        if outcome.interrupted.is_some() {
            return Err(SamplerError::PreparationBudgetExhausted);
        }
        if outcome.is_empty() {
            return Err(SamplerError::Unsatisfiable);
        }

        let family = XorHashFamily::new(sampling_set.to_vec());

        let mode = if outcome.len() <= hi_count {
            // Lines 5–7: the easy case. Canonical order makes the uniform
            // pick in `sample` independent of the enumeration order.
            let mut witnesses = outcome.witnesses;
            crate::sampler::sort_witnesses_canonically(&mut witnesses, sampling_set);
            PreparedMode::Enumerated {
                witnesses: witnesses.into(),
            }
        } else {
            // Lines 9–11: approximate count and candidate hash widths.
            // ApproxMC's BSAT calls are preparation calls like line 4's,
            // so they run under the same per-call budget.
            let approxmc = ApproxMcConfig {
                budget: config.bsat_budget,
                ..config.approxmc.clone()
            };
            let approx = ApproxMc::new(approxmc).count_with_sampling_set(
                formula,
                sampling_set,
                config.seed,
            )?;
            let count = approx.estimate.max(1) as f64;
            let q = (count.log2() + 1.8f64.log2() - (kappa_pivot.pivot as f64).log2()).ceil();
            let q = q.max(1.0) as usize;
            PreparedMode::Hashed {
                approx_count: approx.estimate,
                q,
            }
        };

        Ok(UniGen {
            sampling_set: sampling_set.into(),
            config,
            kappa_pivot,
            family,
            mode,
            solver,
            fault_plan: None,
            pristine: None,
            certifier,
            cert_error: None,
        })
    }

    /// Installs a seeded chaos-testing [`FaultPlan`]: the plan becomes the
    /// persistent solver's fault hook, and a pristine snapshot of the solver
    /// is kept so the degradation ladder can rebuild it from scratch if an
    /// injected fault survives a retry. Installing a plan changes *which*
    /// `BSAT` attempts run, but whenever the ladder's retries succeed the
    /// projected witness sequence is bit-identical to the fault-free run
    /// (the retry reuses the already-drawn hash, consuming no randomness).
    pub fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.solver
            .set_fault_hook(Some(plan.clone() as Arc<dyn FaultHook>));
        self.pristine = Some(Box::new(self.solver.clone()));
        self.fault_plan = Some(plan);
    }

    /// Returns the κ/pivot pair computed from the tolerance.
    pub fn kappa_pivot(&self) -> KappaPivot {
        self.kappa_pivot
    }

    /// Returns what the preparation phase concluded.
    pub fn prepared_mode(&self) -> &PreparedMode {
        &self.mode
    }

    /// Returns the sampling set in use.
    pub fn sampling_set(&self) -> &[Var] {
        &self.sampling_set
    }

    /// Returns the configuration.
    pub fn config(&self) -> &UniGenConfig {
        &self.config
    }

    /// Returns the statistics of the persistent incremental solver, including
    /// the guard lifecycle counters (guarded learned clauses retired at the
    /// end of each cell versus base-formula learned clauses retained).
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// The raw DRAT-style proof stream the persistent solver has logged so
    /// far, or `None` when certify mode ([`UniGenConfig::certify`]) is off.
    /// Offline tooling (`xtask certify`) re-checks a dumped stream against
    /// [`crate::cert_formula`] of the input formula.
    pub fn proof_bytes(&mut self) -> Option<&[u8]> {
        self.solver.proof_bytes()
    }

    /// The first certification failure observed while sampling, if any (the
    /// cell it occurred in was reported as [`OutcomeKind::Faulted`]).
    pub fn cert_error(&self) -> Option<&unigen_cert::CheckError> {
        self.cert_error.as_ref()
    }

    /// Number of proof steps the online checker has verified, or `None`
    /// when certify mode is off.
    pub fn certified_steps(&self) -> Option<u64> {
        self.certifier.as_ref().map(Certifier::steps)
    }

    /// Feeds every proof byte logged since the last check into the online
    /// checker (a no-op when certify mode is off).
    fn certify_progress(&mut self, stats: &mut SampleStats) -> Result<(), unigen_cert::CheckError> {
        match self.certifier.as_mut() {
            Some(certifier) => certifier.absorb(&mut self.solver, Some(stats)),
            None => Ok(()),
        }
    }

    /// The per-sample part of Algorithm 1 in the general (hashed) case:
    /// lines 12–22.
    fn sample_hashed(&mut self, q: usize, rng: &mut dyn RngCore) -> SampleOutcome {
        let (witnesses, stats, failure) = self.collect_cell(q, rng);
        match witnesses {
            Some(cell) if !cell.is_empty() => {
                let index = rng.gen_range(0..cell.len());
                SampleOutcome::of_witness(cell[index].clone(), stats)
            }
            _ => failed_outcome(failure, stats),
        }
    }

    /// One cell enumeration behind the graceful-degradation ladder.
    ///
    /// A *fresh* cell is announced to the fault plan (so "fail the Nth BSAT
    /// call" counts whole cells, not underlying solves); the ladder's
    /// retries are deliberately not announced and therefore run fault-free.
    /// The rungs, in order:
    ///
    /// 1. `GaussPoisoned` — retry the same cell with Gauss elimination off,
    ///    then restore the mode (`degradations += 1`);
    /// 2. `FaultInjected` — retry the same cell as-is (`retries += 1`);
    /// 3. still faulted — rebuild the solver from the pristine snapshot and
    ///    retry once more (`degradations += 1`).
    ///
    /// Every rung reuses the already-drawn hash, so no randomness is
    /// consumed: when a retry succeeds the enumerated cell — and hence the
    /// projected witness sequence — is bit-identical to the fault-free run.
    fn enumerate_with_ladder(
        &mut self,
        clauses: &[XorClause],
        bound: usize,
        stats: &mut SampleStats,
    ) -> EnumerationOutcome {
        if let Some(plan) = &self.fault_plan {
            plan.begin_bsat();
        }
        let run = |solver: &mut Solver, stats: &mut SampleStats| {
            let budget = &self.config.bsat_budget;
            enumerate_charged(solver, &self.sampling_set, clauses, bound, budget, stats)
        };
        let mut outcome = run(&mut self.solver, stats);
        if outcome.interrupted == Some(InterruptReason::GaussPoisoned) {
            stats.faults_injected += 1;
            stats.degradations += 1;
            let saved = self.solver.gauss_mode();
            self.solver.set_gauss_mode(GaussMode::Off);
            outcome = run(&mut self.solver, stats);
            self.solver.set_gauss_mode(saved);
        }
        if outcome.interrupted == Some(InterruptReason::FaultInjected) {
            stats.faults_injected += 1;
            stats.retries += 1;
            outcome = run(&mut self.solver, stats);
        }
        if matches!(outcome.interrupted, Some(reason) if reason.is_fault()) {
            if let Some(pristine) = &self.pristine {
                stats.faults_injected += 1;
                stats.degradations += 1;
                self.solver = (**pristine).clone();
                // The rebuilt solver's proof stream is a fork taken at the
                // snapshot point; the checker has consumed bytes beyond it
                // from the discarded stream, so it restarts from scratch.
                if let Some(certifier) = self.certifier.as_mut() {
                    certifier.reset();
                }
                outcome = run(&mut self.solver, stats);
            }
        }
        outcome
    }

    /// Runs lines 12–17 of Algorithm 1: searches the candidate hash widths
    /// for a cell whose size lies in `[loThresh, hiThresh]` and returns its
    /// witnesses (or `None` on failure), together with the work statistics
    /// and — when no cell was accepted — the [`OutcomeKind`] the failure
    /// should be reported as (`Bottom` when every width genuinely missed the
    /// threshold window, `Interrupted`/`Faulted` when the scan gave up on an
    /// interruption the retry bound could not absorb).
    ///
    /// Per lines 12–17, the scan stops at the *first* accepted width: once a
    /// cell lands in `[loThresh, hiThresh]` no further width is tried and no
    /// further `BSAT` call is issued. The returned cell is sorted into the
    /// canonical (projection) order so the caller's uniform pick depends only
    /// on the cell and the RNG, not on solver heuristic state.
    pub(crate) fn collect_cell(
        &mut self,
        q: usize,
        rng: &mut dyn RngCore,
    ) -> (Option<Vec<Model>>, SampleStats, OutcomeKind) {
        let mut stats = SampleStats::default();
        let lo = self.kappa_pivot.lo_thresh();
        let hi_count = self.kappa_pivot.hi_thresh_count();
        let max_width = self.sampling_set.len();

        // i ranges over {q−3, …, q}, clamped to the representable widths
        // 1..=|S|. When the whole window lies above |S| (an over-estimated
        // approximate count can produce q > |S| + 3), fall back to the finest
        // representable widths instead of silently running zero iterations.
        let end = q.min(max_width).max(1);
        let mut start = q.saturating_sub(3).max(1);
        if start > end {
            start = end.saturating_sub(3).max(1);
            stats.width_window_clamped += 1;
        }
        let mut chosen: Option<Vec<Model>> = None;
        let mut failure = OutcomeKind::Bottom;
        'widths: for width in start..=end {
            let mut attempts = 0usize;
            loop {
                let hash = self.family.sample(width, rng);
                let clauses = hash.to_xor_clauses();
                stats.xor_clauses_added += clauses.len();
                stats.xor_vars_total += clauses.iter().map(|c| c.len()).sum::<usize>();

                // One guarded cell on the persistent solver: the hash layer
                // and the enumeration's blocking clauses are retired when
                // the call returns, so no fresh solver is ever built here.
                let outcome = self.enumerate_with_ladder(&clauses, hi_count + 1, &mut stats);

                // Certify mode: the cell's proof steps must check before
                // its outcome is trusted. A failed check voids the cell —
                // the sample is reported as faulted, never as a witness or
                // a confident ⊥.
                if let Err(err) = self.certify_progress(&mut stats) {
                    self.cert_error.get_or_insert(err);
                    failure = OutcomeKind::Faulted;
                    break 'widths;
                }

                if let Some(reason) = outcome.interrupted {
                    // A budget fired (or a fault survived the whole ladder):
                    // the call says nothing about the cell. Paper: repeat
                    // lines 14–16 with fresh randomness without advancing i
                    // (bounded here by `BSAT_RETRIES`).
                    stats.interrupted_cells += 1;
                    attempts += 1;
                    if attempts > BSAT_RETRIES {
                        failure = reason.into();
                        break 'widths;
                    }
                    continue;
                }

                let size = outcome.len();
                if size as f64 >= lo && size <= hi_count {
                    // Line 17: the first accepted width ends the scan. (An
                    // earlier version of this loop kept scanning, overwrote
                    // the accepted cell with later widths' cells and paid for
                    // their BSAT calls — a conformance bug against lines
                    // 12–17 that the regression tests below pin down.)
                    chosen = Some(outcome.witnesses);
                    break 'widths;
                }
                continue 'widths;
            }
        }

        if let Some(cell) = chosen.as_mut() {
            crate::sampler::sort_witnesses_canonically(cell, &self.sampling_set);
        }
        (chosen, stats, failure)
    }
}

impl WitnessSampler for UniGen {
    fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
        match &self.mode {
            PreparedMode::Enumerated { witnesses } => {
                let index = rng.gen_range(0..witnesses.len());
                SampleOutcome::of_witness(witnesses[index].clone(), SampleStats::default())
            }
            PreparedMode::Hashed { q, .. } => {
                let q = *q;
                self.sample_hashed(q, rng)
            }
        }
    }

    fn name(&self) -> &'static str {
        "UniGen"
    }
}

/// Builds a deterministic RNG for the unit tests below.
#[cfg(test)]
pub(crate) fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use unigen_cnf::{Lit, XorClause};
    use unigen_satsolver::Budget;

    /// A formula with `2^bits` witnesses over a `bits`-variable sampling set
    /// plus `extra` Tseitin-style dependent variables.
    fn formula_with_count(bits: usize, extra: usize) -> CnfFormula {
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

    #[test]
    fn small_formula_uses_enumerated_mode() {
        // 8 witnesses < hiThresh (62 for ε = 6).
        let f = formula_with_count(3, 2);
        let sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        match sampler.prepared_mode() {
            PreparedMode::Enumerated { witnesses } => assert_eq!(witnesses.len(), 8),
            other => panic!("expected Enumerated, got {other:?}"),
        }
    }

    #[test]
    fn large_formula_uses_hashed_mode() {
        // 2^12 witnesses > hiThresh.
        let f = formula_with_count(12, 4);
        let sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        match sampler.prepared_mode() {
            PreparedMode::Hashed { approx_count, q } => {
                assert!(*approx_count >= 1024, "count {approx_count} far too small");
                assert!(*q >= 3, "q = {q}");
            }
            other => panic!("expected Hashed, got {other:?}"),
        }
    }

    /// ApproxMC's `BSAT` calls run under `bsat_budget` like line 4's. On
    /// 16 free variables a two-conflict budget lets line 4's enumeration
    /// finish but interrupts every ApproxMC cell, so preparation fails as a
    /// counting error. ApproxMC used to run unlimited here and succeed.
    #[test]
    fn approxmc_runs_under_the_bsat_budget() {
        let f = formula_with_count(16, 0);
        let budget = Budget::new().with_conflict_limit(2);
        let config = UniGenConfig::default().with_bsat_budget(budget);
        match UniGen::new(&f, config) {
            Err(SamplerError::Counting(_)) => {}
            Err(other) => panic!("expected a counting error, got {other}"),
            Ok(_) => panic!("ApproxMC ignored the BSAT budget"),
        }
        assert!(UniGen::new(&f, UniGenConfig::default()).is_ok());
    }

    #[test]
    fn unsatisfiable_formula_is_rejected() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        assert!(matches!(
            UniGen::new(&f, UniGenConfig::default()),
            Err(SamplerError::Unsatisfiable)
        ));
    }

    #[test]
    fn too_small_epsilon_is_rejected() {
        let f = formula_with_count(3, 0);
        let config = UniGenConfig::default().with_epsilon(1.5);
        assert!(matches!(
            UniGen::new(&f, config),
            Err(SamplerError::EpsilonTooSmall { .. })
        ));
    }

    #[test]
    fn samples_are_valid_witnesses() {
        let f = formula_with_count(10, 5);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut rng = seeded_rng(7);
        let mut successes = 0;
        for _ in 0..20 {
            let outcome = sampler.sample(&mut rng);
            if let Some(witness) = &outcome.witness {
                assert!(f.evaluate(witness), "returned non-witness");
                successes += 1;
            }
        }
        // Theorem 1 guarantees ≥ 0.62 success probability; empirically it is
        // close to 1, so requiring at least half of 20 attempts is safe.
        assert!(successes >= 10, "only {successes}/20 samples succeeded");
    }

    #[test]
    fn xor_length_tracks_the_sampling_set() {
        let f = formula_with_count(12, 30);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut rng = seeded_rng(11);
        let mut stats = SampleStats::default();
        for _ in 0..5 {
            stats.accumulate(&sampler.sample(&mut rng).stats);
        }
        let avg = stats.average_xor_length();
        // Hashing over S (12 variables) gives xors of expected length 6, far
        // below the 21 expected when hashing over the full 42-variable
        // support.
        assert!(avg > 2.0 && avg < 12.0, "average xor length {avg}");
    }

    #[test]
    fn enumerated_mode_is_exactly_uniform_empirically() {
        let f = formula_with_count(3, 1);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut rng = seeded_rng(3);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let sampling = f.sampling_set().unwrap().to_vec();
        let draws = 4000;
        for _ in 0..draws {
            let witness = sampler.sample(&mut rng).witness.unwrap();
            *counts
                .entry(witness.project(&sampling).as_index())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 8);
        for (&key, &count) in &counts {
            let expected = draws as f64 / 8.0;
            assert!(
                (count as f64 - expected).abs() < expected * 0.3,
                "witness {key} sampled {count} times, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn sampling_constructs_no_additional_solvers() {
        let f = formula_with_count(12, 4);
        let before = Solver::constructions_on_thread();
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let during_prep = Solver::constructions_on_thread() - before;
        // One persistent solver for UniGen itself plus one inside the single
        // ApproxMC preparation call.
        assert!(
            during_prep <= 2,
            "preparation built {during_prep} solvers, expected at most 2"
        );
        assert!(matches!(
            sampler.prepared_mode(),
            PreparedMode::Hashed { .. }
        ));
        let mut rng = seeded_rng(13);
        for _ in 0..5 {
            let _ = sampler.sample(&mut rng);
        }
        assert_eq!(
            Solver::constructions_on_thread() - before,
            during_prep,
            "the per-cell loop must reuse the persistent solver"
        );
        // The guard lifecycle ran: one guard per attempted cell, all retired.
        let stats = sampler.solver_stats();
        assert!(stats.guards_created >= 5);
        assert_eq!(stats.guards_created, stats.guards_retired);
    }

    #[test]
    fn width_scan_stops_at_first_accepted_width() {
        // 2^6 = 64 witnesses over a 6-variable sampling set. Any width-1
        // hash whose row is non-degenerate splits the space into two cells
        // of exactly 32 witnesses — inside [loThresh ≈ 25.9, hiThresh = 62]
        // for ε = 6 — so the scan must accept at the *first* width and issue
        // exactly one BSAT call. The pre-fix loop kept scanning: it issued
        // one call per remaining width and overwrote the accepted cell.
        let f = formula_with_count(6, 0);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut rng = seeded_rng(17);
        let mut first_width_accepts = 0;
        for _ in 0..10 {
            let (cell, stats, _) = sampler.collect_cell(2, &mut rng);
            if let Some(cell) = cell {
                if cell.len() == 32 {
                    first_width_accepts += 1;
                    assert_eq!(
                        stats.bsat_calls, 1,
                        "the scan issued BSAT calls after the first accepted width"
                    );
                }
            }
        }
        // Degenerate (all-zero) hash rows are a 1-in-64 event per draw; with
        // this seed the common case must dominate.
        assert!(
            first_width_accepts >= 8,
            "only {first_width_accepts}/10 scans accepted at the first width"
        );
    }

    #[test]
    fn accepted_cell_is_in_canonical_order() {
        let f = formula_with_count(6, 0);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let sampling = sampler.sampling_set().to_vec();
        let mut rng = seeded_rng(19);
        let mut checked = 0;
        for _ in 0..5 {
            if let (Some(cell), _, _) = sampler.collect_cell(2, &mut rng) {
                let indices: Vec<u64> = cell
                    .iter()
                    .map(|w| w.project(&sampling).as_index())
                    .collect();
                assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no cell was ever accepted");
    }

    #[test]
    fn oversized_q_clamps_the_width_window() {
        let f = formula_with_count(6, 0);
        let mut sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut rng = seeded_rng(5);
        // q far beyond |S| + 3: the window {q−3, …, q} contains no
        // representable width, so before the clamp the loop body never ran
        // and the scan reported ⊥ with zero solver work.
        let (_, stats, _) = sampler.collect_cell(64, &mut rng);
        assert_eq!(stats.width_window_clamped, 1);
        assert!(
            stats.bsat_calls >= 1,
            "a clamped window must still issue solver work"
        );
        // The ordinary window is untouched by the clamp accounting.
        let (_, stats, _) = sampler.collect_cell(2, &mut rng);
        assert_eq!(stats.width_window_clamped, 0);
    }

    #[test]
    fn enumerated_witnesses_are_in_canonical_order() {
        let f = formula_with_count(3, 2);
        let sampler = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let sampling = sampler.sampling_set().to_vec();
        match sampler.prepared_mode() {
            PreparedMode::Enumerated { witnesses } => {
                let indices: Vec<u64> = witnesses
                    .iter()
                    .map(|w| w.project(&sampling).as_index())
                    .collect();
                assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
            }
            other => panic!("expected Enumerated, got {other:?}"),
        }
    }

    #[test]
    fn explicit_sampling_set_overrides_formula_metadata() {
        let mut f = formula_with_count(4, 2);
        f.set_sampling_set(Vec::<Var>::new()).unwrap(); // clear
        let sampling: Vec<Var> = (0..4).map(Var::new).collect();
        let sampler = UniGen::with_sampling_set(&f, &sampling, UniGenConfig::default()).unwrap();
        assert_eq!(sampler.sampling_set(), sampling.as_slice());
    }

    /// Folds a batch's stats into one accumulator.
    fn total_stats(outcomes: &[SampleOutcome]) -> SampleStats {
        let mut acc = SampleStats::default();
        for outcome in outcomes {
            acc.accumulate(&outcome.stats);
        }
        acc
    }

    #[test]
    fn injected_bsat_fault_is_retried_to_a_bit_identical_batch() {
        let f = formula_with_count(10, 4);
        let mut clean = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut chaotic = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let plan = Arc::new(FaultPlan::seeded(9).fail_nth_bsat(1));
        chaotic.install_fault_plan(plan.clone());

        let reference = clean.sample_batch(4, 0xabc);
        let faulted = chaotic.sample_batch(4, 0xabc);
        let witnesses =
            |outs: &[SampleOutcome]| outs.iter().map(|o| o.witness.clone()).collect::<Vec<_>>();
        assert_eq!(
            witnesses(&reference),
            witnesses(&faulted),
            "a retried fault must reproduce the fault-free witness sequence"
        );
        assert_eq!(plan.faults_injected(), 1);

        let total = total_stats(&faulted);
        assert_eq!(total.retries, 1);
        assert_eq!(total.faults_injected, 1);
        let clean_total = total_stats(&reference);
        assert_eq!(clean_total.faults_injected, 0);
        assert_eq!(clean_total.retries, 0);
        // The faulted attempt itself costs exactly one extra BSAT call.
        assert_eq!(total.bsat_calls, clean_total.bsat_calls + 1);
        // Guard accounting stays balanced across the injected fault.
        let stats = chaotic.solver_stats();
        assert_eq!(stats.guards_created, stats.guards_retired);
    }

    #[test]
    fn poisoned_gauss_seal_degrades_to_gauss_off_and_recovers() {
        let f = formula_with_count(10, 4);
        let mut clean = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut chaotic = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let plan = Arc::new(FaultPlan::seeded(4).poison_nth_gauss_seal(1));
        chaotic.install_fault_plan(plan.clone());

        let reference = clean.sample_batch(3, 77);
        let degraded = chaotic.sample_batch(3, 77);
        let witnesses =
            |outs: &[SampleOutcome]| outs.iter().map(|o| o.witness.clone()).collect::<Vec<_>>();
        assert_eq!(
            witnesses(&reference),
            witnesses(&degraded),
            "the Gauss-off retry must enumerate the same cell"
        );
        assert_eq!(plan.faults_injected(), 1);

        let total = total_stats(&degraded);
        assert_eq!(total.degradations, 1);
        assert_eq!(total.faults_injected, 1);
        assert_eq!(total_stats(&reference).degradations, 0);
        let stats = chaotic.solver_stats();
        assert_eq!(stats.guards_created, stats.guards_retired);
    }

    #[test]
    fn certified_sampling_checks_every_cell_and_matches_uncertified_output() {
        let f = formula_with_count(10, 4);
        let mut plain = UniGen::new(&f, UniGenConfig::default()).unwrap();
        let mut certified = UniGen::new(&f, UniGenConfig::default().with_certify(true)).unwrap();
        assert!(certified.certified_steps().unwrap_or(0) > 0);

        let reference = plain.sample_batch(6, 0x5eed);
        let checked = certified.sample_batch(6, 0x5eed);
        let witnesses =
            |outs: &[SampleOutcome]| outs.iter().map(|o| o.witness.clone()).collect::<Vec<_>>();
        // Certification observes the run; it must not perturb the witnesses.
        assert_eq!(witnesses(&reference), witnesses(&checked));
        assert!(certified.cert_error().is_none());

        let total = {
            let mut acc = SampleStats::default();
            for o in &checked {
                acc.accumulate(&o.stats);
            }
            acc
        };
        assert!(total.cert_checks >= total.bsat_calls.min(1));
        assert!(total.proof_bytes > 0);
        // The stream the checker consumed is exactly the solver's log.
        assert!(certified.proof_bytes().is_some_and(|b| !b.is_empty()));
        assert!(plain.proof_bytes().is_none());
    }

    #[test]
    fn certified_enumerated_mode_verifies_the_preparation_cell() {
        let f = formula_with_count(3, 2);
        let mut sampler = UniGen::new(&f, UniGenConfig::default().with_certify(true)).unwrap();
        match sampler.prepared_mode() {
            PreparedMode::Enumerated { witnesses } => assert_eq!(witnesses.len(), 8),
            other => panic!("expected Enumerated, got {other:?}"),
        }
        // The whole preparation enumeration was proof-checked.
        assert!(sampler.certified_steps().unwrap() > 0);
        assert!(sampler.cert_error().is_none());
        // The independent offline checker accepts the same stream end to end.
        let formula = crate::certify::cert_formula(&f);
        let bytes = sampler.proof_bytes().unwrap().to_vec();
        let report = unigen_cert::Checker::check(&formula, &bytes).unwrap();
        report.require_complete().unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].exhaustive());
        assert_eq!(report.cells[0].witnesses.len(), 8);
    }

    #[test]
    fn certified_unsat_formula_still_carries_a_checked_refutation() {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        assert!(matches!(
            UniGen::new(&f, UniGenConfig::default().with_certify(true)),
            Err(SamplerError::Unsatisfiable)
        ));
    }

    #[test]
    fn certified_fault_recovery_resets_the_checker_with_the_solver() {
        let f = formula_with_count(10, 4);
        let config = UniGenConfig::default().with_certify(true);
        let mut clean = UniGen::new(&f, config.clone()).unwrap();
        let mut chaotic = UniGen::new(&f, config).unwrap();
        let plan = Arc::new(FaultPlan::seeded(9).fail_nth_bsat(1));
        chaotic.install_fault_plan(plan.clone());

        let reference = clean.sample_batch(4, 0xabc);
        let faulted = chaotic.sample_batch(4, 0xabc);
        let witnesses =
            |outs: &[SampleOutcome]| outs.iter().map(|o| o.witness.clone()).collect::<Vec<_>>();
        assert_eq!(witnesses(&reference), witnesses(&faulted));
        assert_eq!(plan.faults_injected(), 1);
        assert!(chaotic.cert_error().is_none(), "{:?}", chaotic.cert_error());
    }

    #[test]
    fn empty_sampling_set_is_rejected() {
        let f = formula_with_count(3, 0);
        assert!(matches!(
            UniGen::with_sampling_set(&f, &[], UniGenConfig::default()),
            Err(SamplerError::EmptySamplingSet)
        ));
    }
}
