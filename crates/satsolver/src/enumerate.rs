//! Bounded witness enumeration — the paper's `BSAT(F, N)` primitive — on top
//! of the incremental solver.
//!
//! `BSAT(F, N)` returns `min(|R_F|, N)` *distinct* witnesses of `F`. UniGen
//! calls it on `F ∧ (h(x_1 … x_|S|) = α)` with `N = hiThresh`, and relies on
//! one crucial CryptoMiniSAT-era optimisation described in the paper's
//! "Implementation issues" paragraph: because the sampling set `S` determines
//! every satisfying assignment, **blocking clauses can be restricted to the
//! variables in `S`**, which keeps them short and cheap.
//!
//! Distinctness is therefore defined on the projection onto the sampling
//! set: two witnesses that agree on `S` count as the same witness.
//!
//! The enumerator *borrows* its solver, so one solver instance can serve the
//! whole sequence of `BSAT` calls a sampling run issues. When driven under a
//! [`Guard`] (see [`Enumerator::under_guard`] and [`enumerate_cell`]), the
//! per-cell state — hash xors, blocking clauses, and every learned clause
//! derived from them — is removed when the guard is retired, while learned
//! clauses about the base formula, variable activities, and saved phases all
//! survive into the next cell. This amortisation across hash cells is where
//! the incremental interface earns its keep.
//!
//! # Replaying known witnesses
//!
//! Every cell asks a question about a *set*: the witnesses of `F` that
//! satisfy the cell's rows, capped at a bound. A witness the caller already
//! holds is a member of every later cell whose rows it satisfies, so
//! [`enumerate_cell`] takes a [`KnownWitnesses`] list and, before it
//! searches, evaluates each known witness on the cell's rows. Each one that
//! satisfies them is counted without a solve: it is logged as the usual
//! `Witness` and `Block` proof steps and blocked at decision level zero
//! under the cell's guard. The solver then searches only for the rest, up
//! to the same bound. A drained cell is still exactly the cell's set and a
//! capped cell still reports `bound` witnesses, so which witnesses a cell
//! holds (drained) or how many (capped) does not depend on the list; only
//! the search work does. In certify mode the checker validates each
//! replayed model against every active clause and row, so a list entry that
//! is not a witness of the cell fails the check.
//!
//! A list that holds *every* witness of `F` answers a cell with no solver
//! at all: [`KnownWitnesses::cell`] filters it through the cell's rows and
//! returns the drained set, or reports the cap, exactly as
//! [`enumerate_cell`] would. A caller proves its list complete with one
//! [`enumerate_cell`] over the bare formula, the list replayed: when that
//! drains, the list and what it found are all of `F`'s witnesses. Such a
//! cell logs no proof step, so a certifying caller keeps searching.

use unigen_cnf::{Lit, Model, Var, XorClause};

use crate::budget::Budget;
use crate::fault::InterruptReason;
use crate::proof::close;
use crate::solver::{Guard, SolveResult, Solver};

/// Outcome of a bounded enumeration call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumerationOutcome {
    /// The witnesses found, each distinct on the sampling set.
    pub witnesses: Vec<Model>,
    /// How many of `witnesses`, at the front, were replayed from a
    /// [`KnownWitnesses`] list rather than found by search.
    pub replayed: usize,
    /// `true` if enumeration stopped because the bound was reached (there may
    /// be more witnesses).
    pub bound_reached: bool,
    /// Why the enumeration was interrupted (budget or injected fault), if
    /// it was; `None` when the call ran to completion (bound reached or
    /// cell drained). The witnesses found so far are still returned,
    /// mirroring how the paper's experiments treat `BSAT` timeouts, and the
    /// solver was left consistent, so the same call may simply be retried.
    pub interrupted: Option<InterruptReason>,
}

impl EnumerationOutcome {
    /// Returns the number of witnesses found.
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// Returns `true` if no witness was found.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// Returns `true` if the enumeration is exact, i.e. it neither hit the
    /// bound nor was interrupted, so `witnesses` is the complete list of
    /// solutions (projected on the sampling set).
    pub fn is_exhaustive(&self) -> bool {
        !self.bound_reached && self.interrupted.is_none()
    }

    /// The witnesses the search found, after the replayed ones.
    pub fn found(&self) -> &[Model] {
        &self.witnesses[self.replayed..]
    }
}

/// Witnesses of a formula that the caller already holds, which
/// [`enumerate_cell`] replays into each cell whose rows they satisfy
/// instead of searching for them again (see the module docs).
///
/// Each witness is a full model over the formula's base variables, stored
/// bit-packed at `⌈num_vars / 64⌉` words. An empty list costs no heap.
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit, Var};
/// use unigen_satsolver::{enumerate_cell, Budget, KnownWitnesses, Solver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
/// let sampling: Vec<Var> = (0..3).map(Var::new).collect();
/// let mut solver = Solver::from_formula(&f);
///
/// let first = enumerate_cell(&mut solver, &sampling, &[], 3, &Budget::new(), &KnownWitnesses::new());
/// let mut known = KnownWitnesses::new();
/// known.extend(first.found());
/// // The three known witnesses are replayed; search finds the other four.
/// let all = enumerate_cell(&mut solver, &sampling, &[], 100, &Budget::new(), &known);
/// assert_eq!((all.len(), all.replayed, all.found().len()), (7, 3, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KnownWitnesses {
    /// Variables per witness: the length of the first model pushed.
    num_vars: usize,
    /// The witnesses back to back; variable `v` of a witness is bit `v % 64`
    /// of its word `v / 64`.
    words: Vec<u64>,
}

impl KnownWitnesses {
    /// An empty list.
    pub fn new() -> Self {
        KnownWitnesses::default()
    }

    /// Number of witnesses held.
    pub fn len(&self) -> usize {
        self.words.len().checked_div(self.stride()).unwrap_or(0)
    }

    /// `true` if no witness is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the list holds, spare capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
    }

    /// Adds `model`, a full model of the formula over its base variables.
    /// It must differ on the sampling set from every witness already held,
    /// as the witnesses one [`enumerate_cell`] run finds do from each other
    /// and from the ones it replayed.
    ///
    /// # Panics
    ///
    /// Panics if `model` covers a different number of variables than the
    /// first witness pushed.
    pub fn push(&mut self, model: &Model) {
        if self.words.is_empty() {
            self.num_vars = model.len();
        }
        assert_eq!(
            model.len(),
            self.num_vars,
            "every known witness covers the same variables"
        );
        let start = self.words.len();
        self.words.resize(start + self.stride(), 0);
        for (i, &value) in model.values().iter().enumerate() {
            self.words[start + i / 64] |= u64::from(value) << (i % 64);
        }
    }

    fn stride(&self) -> usize {
        self.num_vars.div_ceil(64)
    }

    /// The cell that `xors` cuts out of the formula's witnesses, as
    /// [`enumerate_cell`] with `bound` reports it, for a list that holds
    /// every witness of the formula: `Some` with the whole cell, in list
    /// order, when fewer than `bound` held witnesses satisfy every row, as
    /// a call that drains the cell; `None` when `bound` or more do, as a
    /// call that stops at `bound`, and then no model is built.
    pub fn cell(&self, xors: &[XorClause], bound: usize) -> Option<Vec<Model>> {
        let cell: Vec<&[u64]> = self.satisfying(xors).take(bound).collect();
        (cell.len() < bound).then(|| cell.into_iter().map(|w| self.model(w)).collect())
    }

    /// The held witnesses that satisfy every row of `xors`, as models.
    fn matching<'a>(&'a self, xors: &'a [XorClause]) -> impl Iterator<Item = Model> + 'a {
        self.satisfying(xors).map(|words| self.model(words))
    }

    /// The model one held witness's `words` encode.
    fn model(&self, words: &[u64]) -> Model {
        (0..self.num_vars)
            .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// The words of each held witness that satisfies every row of `xors`.
    /// A row over a variable the witnesses do not cover matches none.
    fn satisfying<'a>(&'a self, xors: &'a [XorClause]) -> impl Iterator<Item = &'a [u64]> + 'a {
        let num_vars = self.num_vars;
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1 == 1;
        self.words
            .chunks_exact(self.stride().max(1))
            .filter(move |words| {
                xors.iter().all(|xor| {
                    let mut parity = false;
                    for v in xor.vars() {
                        if v.index() >= num_vars {
                            return false;
                        }
                        parity ^= bit(words, v.index());
                    }
                    parity == xor.rhs()
                })
            })
    }
}

/// Pushes each model in turn (see [`KnownWitnesses::push`]).
impl<'a> Extend<&'a Model> for KnownWitnesses {
    fn extend<I: IntoIterator<Item = &'a Model>>(&mut self, models: I) {
        for model in models {
            self.push(model);
        }
    }
}

/// Incremental bounded enumerator borrowing a [`Solver`].
///
/// The enumerator adds one blocking clause (restricted to the sampling set)
/// per witness produced. It can be driven one witness at a time via
/// [`Enumerator::next_witness`] or drained via [`Enumerator::run`].
///
/// Created with [`Enumerator::new`], the blocking clauses are permanent;
/// created with [`Enumerator::under_guard`], every solve call assumes the
/// guard and the blocking clauses are attached to it, so they vanish when
/// the caller retires the guard — the pattern used for hash-cell `BSAT`
/// calls (see [`enumerate_cell`]).
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit, Var};
/// use unigen_satsolver::{Enumerator, Solver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // x1 ∨ x2 over sampling set {x1, x2} has 3 witnesses.
/// let mut f = CnfFormula::new(2);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])?;
/// let sampling: Vec<Var> = vec![Var::from_dimacs(1), Var::from_dimacs(2)];
///
/// let mut solver = Solver::from_formula(&f);
/// let mut enumerator = Enumerator::new(&mut solver, sampling);
/// let outcome = enumerator.run(10, &Default::default());
/// assert_eq!(outcome.len(), 3);
/// assert!(outcome.is_exhaustive());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Enumerator<'s> {
    solver: &'s mut Solver,
    sampling_set: Vec<Var>,
    guard: Option<Guard>,
    exhausted: bool,
    /// A satisfying trail from the previous witness is still in place, so
    /// the next solve can continue from the blocking clause's backjump point
    /// instead of re-descending from level zero.
    warm: bool,
    /// A `CellBegin` proof step was emitted (certify mode) and its matching
    /// `CellClose` has not been; the close is emitted on drop.
    cell_open: bool,
    /// The most recent [`Enumerator::run`] stopped at its bound, so a
    /// non-exhausted close records `BoundReached` rather than `Interrupted`.
    bound_hit: bool,
}

impl<'s> Enumerator<'s> {
    /// Creates an enumerator over `solver`, treating `sampling_set` as the
    /// projection on which witnesses must be distinct. Blocking clauses are
    /// added permanently.
    ///
    /// # Panics
    ///
    /// Panics if the sampling set is empty.
    pub fn new(solver: &'s mut Solver, sampling_set: Vec<Var>) -> Self {
        Enumerator::with_guard(solver, sampling_set, None)
    }

    /// Creates an enumerator that solves under `guard`'s assumption and
    /// scopes its blocking clauses to the guard, so the enumeration leaves no
    /// trace once the guard is retired.
    ///
    /// # Panics
    ///
    /// Panics if the sampling set is empty.
    pub fn under_guard(solver: &'s mut Solver, sampling_set: Vec<Var>, guard: Guard) -> Self {
        Enumerator::with_guard(solver, sampling_set, Some(guard))
    }

    fn with_guard(solver: &'s mut Solver, sampling_set: Vec<Var>, guard: Option<Guard>) -> Self {
        assert!(
            !sampling_set.is_empty(),
            "enumeration requires a non-empty sampling set"
        );
        let mut cell_open = false;
        {
            let guard_var = guard.map(|g| g.var());
            let sampling = &sampling_set;
            solver.with_proof(|p| {
                p.cell_begin(guard_var, sampling);
                cell_open = true;
            });
        }
        Enumerator {
            solver,
            sampling_set,
            guard,
            exhausted: false,
            warm: false,
            cell_open,
            bound_hit: false,
        }
    }

    /// Returns a reference to the underlying solver (for statistics).
    pub fn solver(&self) -> &Solver {
        self.solver
    }

    /// Produces the next witness (distinct on the sampling set from all
    /// previously produced ones), or `None` if none remains or the call was
    /// interrupted.
    ///
    /// The second component of the pair is the typed interruption reason
    /// when the underlying solve was interrupted (so `None` does not mean
    /// "no more witnesses"); the call may be retried.
    pub fn next_witness(&mut self, budget: &Budget) -> (Option<Model>, Option<InterruptReason>) {
        if self.exhausted {
            return (None, None);
        }
        let assumptions: Vec<_> = self.guard.iter().map(|g| g.assumption()).collect();
        match self
            .solver
            .solve_for_enumeration(&assumptions, budget, self.warm, true)
        {
            SolveResult::Sat(model) => {
                // The full model is logged (the checker evaluates the base
                // formula's clauses, which range over all base variables);
                // the certificate's witness *identity* is its projection
                // onto the cell's sampling set.
                self.solver.with_proof(|p| p.witness(model.values()));
                // The satisfying trail is still in place: install the
                // blocking clause with a conflict-style backjump and keep
                // the descent below it for the next witness.
                let blocking = self.blocking_clause(&model);
                self.solver.block_and_continue(blocking);
                self.warm = true;
                (Some(model), None)
            }
            SolveResult::Unsat => {
                // The solver has already logged the cell's verdict (the
                // `UnsatUnder` step is emitted at the solve choke point):
                // the blocked residue is unsatisfiable, checkable by RUP.
                self.exhausted = true;
                self.warm = false;
                (None, None)
            }
            SolveResult::Interrupted(reason) => {
                // The solver unwound to level zero; a retry re-descends
                // cold but the already-installed blocking clauses keep the
                // witness sequence aligned with an uninterrupted run.
                self.warm = false;
                (None, Some(reason))
            }
        }
    }

    /// The clause that blocks `model`'s projection on the sampling set,
    /// weakened with the guard's disable literal when there is a guard.
    fn blocking_clause(&self, model: &Model) -> Vec<Lit> {
        let projection = model.project(&self.sampling_set);
        let mut blocking: Vec<_> = projection.to_lits().iter().map(|&l| !l).collect();
        if let Some(guard) = self.guard {
            blocking.push(guard.disable_lit());
        }
        blocking
    }

    /// Counts `model`, a witness the caller already holds, without a
    /// solve: logs it like a found witness and blocks it at decision level
    /// zero. Must precede the first search of the enumeration.
    fn replay(&mut self, model: &Model) {
        debug_assert!(!self.warm && !self.exhausted, "replay after a search");
        self.solver.with_proof(|p| p.witness(model.values()));
        let blocking = self.blocking_clause(model);
        self.solver.block_at_root(blocking);
    }

    /// Enumerates up to `bound` witnesses, spending at most `budget` per
    /// underlying solver call.
    pub fn run(&mut self, bound: usize, budget: &Budget) -> EnumerationOutcome {
        let mut witnesses = Vec::new();
        let mut interrupted = None;
        while witnesses.len() < bound {
            match self.next_witness(budget) {
                (Some(model), _) => witnesses.push(model),
                (None, Some(reason)) => {
                    interrupted = Some(reason);
                    break;
                }
                (None, None) => break,
            }
        }
        let bound_reached = witnesses.len() >= bound && !self.exhausted;
        if bound_reached {
            self.bound_hit = true;
        }
        EnumerationOutcome {
            witnesses,
            replayed: 0,
            bound_reached,
            interrupted,
        }
    }
}

impl Drop for Enumerator<'_> {
    fn drop(&mut self) {
        if self.cell_open {
            // Only a cell whose `UnsatUnder` verdict was logged may close
            // as `Exhausted`; anything else is explicitly non-exhaustive,
            // so an interrupted enumeration can never masquerade as a
            // complete one in the certificate.
            let reason = if self.exhausted {
                close::EXHAUSTED
            } else if self.bound_hit {
                close::BOUND_REACHED
            } else {
                close::INTERRUPTED
            };
            self.solver.with_proof(|p| p.cell_close(reason));
            self.cell_open = false;
        }
        // A warm (mid-enumeration) trail must not leak into whatever the
        // caller does with the solver next.
        self.solver.end_enumeration();
    }
}

/// The paper's `BSAT(F, N)`: returns up to `bound` witnesses of the formula
/// loaded into `solver`, distinct on `sampling_set`, within `budget` per
/// solver call.
///
/// The blocking clauses stay in the solver afterwards; use
/// [`enumerate_cell`] when the enumeration must leave the solver unchanged.
pub fn bounded_solutions(
    solver: &mut Solver,
    sampling_set: &[Var],
    bound: usize,
    budget: &Budget,
) -> EnumerationOutcome {
    let mut enumerator = Enumerator::new(solver, sampling_set.to_vec());
    enumerator.run(bound, budget)
}

/// One complete hash-cell `BSAT` call against a persistent solver: installs
/// `xors` under a fresh guard, enumerates up to `bound` witnesses distinct on
/// `sampling_set`, then retires the guard so the solver is ready for the next
/// cell with all its base-formula knowledge intact.
///
/// This is the primitive every sampler and counter loop in the workspace is
/// built on; passing an empty `xors` slice gives a side-effect-free `BSAT`
/// over the bare formula (used by preparation phases).
///
/// The first `bound` witnesses of `known` that satisfy every row of `xors`
/// are replayed into the cell before the search: they are counted, logged
/// and blocked without a solve, and lead
/// [`EnumerationOutcome::witnesses`]. Every entry of `known` must be a
/// witness of the formula loaded into `solver`, and the list must hold
/// each projection on `sampling_set` at most once; pass an empty list to
/// search for every witness.
pub fn enumerate_cell(
    solver: &mut Solver,
    sampling_set: &[Var],
    xors: &[XorClause],
    bound: usize,
    budget: &Budget,
    known: &KnownWitnesses,
) -> EnumerationOutcome {
    let guard = solver.new_guard();
    for xor in xors {
        solver.add_xor_under(xor.clone(), guard);
    }
    let outcome = {
        let mut enumerator = Enumerator::under_guard(solver, sampling_set.to_vec(), guard);
        let mut replayed: Vec<Model> = known.matching(xors).take(bound).collect();
        for model in &replayed {
            enumerator.replay(model);
        }
        let mut outcome = enumerator.run(bound - replayed.len(), budget);
        outcome.replayed = replayed.len();
        replayed.append(&mut outcome.witnesses);
        outcome.witnesses = replayed;
        outcome
    };
    solver.retire_guard(guard);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use unigen_cnf::{dimacs, CnfFormula, Lit, XorClause};

    fn all_vars(n: usize) -> Vec<Var> {
        (0..n).map(Var::new).collect()
    }

    #[test]
    fn enumerates_exactly_all_models() {
        // x1 ∨ x2 ∨ x3 has 7 models.
        let f = dimacs::parse("p cnf 3 1\n1 2 3 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let outcome = bounded_solutions(&mut solver, &all_vars(3), 100, &Budget::new());
        assert_eq!(outcome.len(), 7);
        assert!(outcome.is_exhaustive());
        for w in &outcome.witnesses {
            assert!(f.evaluate(w));
        }
    }

    #[test]
    fn respects_the_bound() {
        let f = dimacs::parse("p cnf 4 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let outcome = bounded_solutions(&mut solver, &all_vars(4), 5, &Budget::new());
        assert_eq!(outcome.len(), 5);
        assert!(outcome.bound_reached);
        assert!(!outcome.is_exhaustive());
    }

    #[test]
    fn witnesses_are_distinct_on_sampling_set() {
        // x3 is forced equal to x1 ⊕ x2; sampling set {x1, x2} yields 4
        // distinct projected witnesses even though x3 varies with them.
        let mut f = CnfFormula::new(3);
        f.add_xor_clause(XorClause::from_dimacs([1, 2, 3], false))
            .unwrap();
        let sampling = vec![Var::from_dimacs(1), Var::from_dimacs(2)];
        let mut solver = Solver::from_formula(&f);
        let outcome = bounded_solutions(&mut solver, &sampling, 100, &Budget::new());
        assert_eq!(outcome.len(), 4);
        let projections: HashSet<_> = outcome
            .witnesses
            .iter()
            .map(|m| m.project(&sampling))
            .collect();
        assert_eq!(projections.len(), 4);
    }

    #[test]
    fn unsat_formula_yields_no_witnesses() {
        let f = dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let outcome = bounded_solutions(&mut solver, &all_vars(1), 10, &Budget::new());
        assert!(outcome.is_empty());
        assert!(outcome.is_exhaustive());
    }

    #[test]
    fn incremental_driving_matches_batch() {
        let f = dimacs::parse("p cnf 3 2\n1 2 0\n-1 3 0\n").unwrap();
        let mut batch_solver = Solver::from_formula(&f);
        let batch = bounded_solutions(&mut batch_solver, &all_vars(3), 100, &Budget::new());

        let mut solver = Solver::from_formula(&f);
        let mut enumerator = Enumerator::new(&mut solver, all_vars(3));
        let mut count = 0;
        while let (Some(_), _) = enumerator.next_witness(&Budget::new()) {
            count += 1;
        }
        assert_eq!(count, batch.len());
    }

    #[test]
    #[should_panic]
    fn empty_sampling_set_panics() {
        let f = dimacs::parse("p cnf 1 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let _ = Enumerator::new(&mut solver, Vec::new());
    }

    #[test]
    fn enumeration_with_xor_constraints() {
        // Exactly the style of query UniGen issues: CNF plus hash xors.
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_xor_clause(XorClause::from_dimacs([1, 3], true))
            .unwrap();
        f.add_xor_clause(XorClause::from_dimacs([2, 4], false))
            .unwrap();
        let brute = f.enumerate_models_brute_force();
        let mut solver = Solver::from_formula(&f);
        let outcome = bounded_solutions(&mut solver, &all_vars(4), 100, &Budget::new());
        assert_eq!(outcome.len(), brute.len());
    }

    #[test]
    fn enumerate_cell_leaves_the_solver_reusable() {
        // x1 ∨ x2 ∨ x3 has 7 models; each hash halves the space.
        let f = dimacs::parse("p cnf 3 1\n1 2 3 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let sampling = all_vars(3);

        let base = enumerate_cell(
            &mut solver,
            &sampling,
            &[],
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert_eq!(base.len(), 7);

        // A cell carved by a hash constraint…
        let xors = vec![XorClause::from_dimacs([1, 2], true)];
        let cell = enumerate_cell(
            &mut solver,
            &sampling,
            &xors,
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert!(cell.is_exhaustive());
        for w in &cell.witnesses {
            assert!(f.evaluate(w));
            assert!(w.value(Var::from_dimacs(1)) ^ w.value(Var::from_dimacs(2)));
        }

        // …leaves no residue: the full model set is still reachable.
        let again = enumerate_cell(
            &mut solver,
            &sampling,
            &[],
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert_eq!(again.len(), 7);
        // And the opposite cell plus this cell partition the space.
        let other = enumerate_cell(
            &mut solver,
            &sampling,
            &[XorClause::from_dimacs([1, 2], false)],
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert_eq!(cell.len() + other.len(), 7);
    }

    #[test]
    fn enumerate_cell_agrees_across_gauss_modes() {
        use crate::config::{GaussMode, SolverConfig};

        // A cell wide enough for cross-row reasoning to matter: the layer's
        // rows overlap pairwise, so the matrix path and the watched path
        // take genuinely different propagation routes to the same set.
        let mut f = CnfFormula::new(5);
        f.add_clause([
            Lit::from_dimacs(1),
            Lit::from_dimacs(2),
            Lit::from_dimacs(5),
        ])
        .unwrap();
        f.add_clause([Lit::from_dimacs(-3), Lit::from_dimacs(4)])
            .unwrap();
        let sampling = all_vars(5);
        let layer = vec![
            XorClause::from_dimacs([1, 2, 3], true),
            XorClause::from_dimacs([2, 3, 4], false),
            XorClause::from_dimacs([1, 4, 5], true),
        ];
        let mut sets = Vec::new();
        for gauss in [GaussMode::Off, GaussMode::Auto, GaussMode::On] {
            let config = SolverConfig {
                gauss,
                ..SolverConfig::default()
            };
            let mut solver = Solver::from_formula_with_config(&f, config);
            let cell = enumerate_cell(
                &mut solver,
                &sampling,
                &layer,
                100,
                &Budget::new(),
                &KnownWitnesses::new(),
            );
            assert!(cell.is_exhaustive());
            for w in &cell.witnesses {
                assert!(f.evaluate(w));
                for xor in &layer {
                    assert!(xor.evaluate(w));
                }
            }
            let set: HashSet<_> = cell
                .witnesses
                .iter()
                .map(|w| w.project(&sampling))
                .collect();
            // The guard cycle left no residue in any mode.
            let base = enumerate_cell(
                &mut solver,
                &sampling,
                &[],
                100,
                &Budget::new(),
                &KnownWitnesses::new(),
            );
            assert_eq!(base.len(), 21, "base model count in mode {gauss:?}");
            sets.push(set);
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }

    #[test]
    fn interrupted_enumeration_resumes_to_the_same_witness_set() {
        // The fault-tolerance contract: a step-limited enumeration that is
        // interrupted mid-cell can simply keep retrying (with an escalating
        // limit, so it terminates) and ends up with exactly the witness set
        // of an uninterrupted run — the blocking clauses installed before
        // each interruption survive, so nothing is re-enumerated.
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_xor_clause(XorClause::from_dimacs([3, 4], true))
            .unwrap();
        let sampling = all_vars(4);

        let mut reference_solver = Solver::from_formula(&f);
        let reference = enumerate_cell(
            &mut reference_solver,
            &sampling,
            &[XorClause::from_dimacs([1, 4], false)],
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert!(reference.is_exhaustive());

        let mut solver = Solver::from_formula(&f);
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 4], false), guard);
        let mut witnesses = Vec::new();
        let mut interruptions = 0;
        {
            let mut enumerator = Enumerator::under_guard(&mut solver, sampling.clone(), guard);
            let mut steps = 1u64;
            loop {
                match enumerator.next_witness(&Budget::new().with_step_limit(steps)) {
                    (Some(model), _) => witnesses.push(model),
                    (None, Some(reason)) => {
                        assert_eq!(reason, InterruptReason::StepLimit);
                        interruptions += 1;
                        steps *= 2;
                    }
                    (None, None) => break,
                }
            }
        }
        solver.retire_guard(guard);
        assert!(interruptions > 0, "the schedule never interrupted");

        let got: HashSet<_> = witnesses.iter().map(|w| w.project(&sampling)).collect();
        let want: HashSet<_> = reference
            .witnesses
            .iter()
            .map(|w| w.project(&sampling))
            .collect();
        assert_eq!(got, want);
        // Guard accounting balanced, no residue left behind.
        assert_eq!(solver.stats().guards_created, solver.stats().guards_retired);
        let base = enumerate_cell(
            &mut solver,
            &sampling,
            &[],
            100,
            &Budget::new(),
            &KnownWitnesses::new(),
        );
        assert_eq!(base.len(), 6);
    }

    #[test]
    fn enumerate_cell_matches_scratch_enumeration() {
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(-2), Lit::from_dimacs(3)])
            .unwrap();
        let sampling = all_vars(4);
        let layers = [
            vec![XorClause::from_dimacs([1, 2, 3], true)],
            vec![
                XorClause::from_dimacs([1, 4], false),
                XorClause::from_dimacs([2, 3], true),
            ],
            vec![XorClause::from_dimacs([3], true)],
        ];
        let mut incremental = Solver::from_formula(&f);
        for layer in &layers {
            let cell = enumerate_cell(
                &mut incremental,
                &sampling,
                layer,
                100,
                &Budget::new(),
                &KnownWitnesses::new(),
            );

            let mut hashed = f.clone();
            for xor in layer {
                hashed.add_xor_clause(xor.clone()).unwrap();
            }
            let mut scratch = Solver::from_formula(&hashed);
            let reference = bounded_solutions(&mut scratch, &sampling, 100, &Budget::new());

            let got: HashSet<_> = cell
                .witnesses
                .iter()
                .map(|w| w.project(&sampling))
                .collect();
            let want: HashSet<_> = reference
                .witnesses
                .iter()
                .map(|w| w.project(&sampling))
                .collect();
            assert_eq!(got, want);
        }
    }

    fn projections(witnesses: &[Model], sampling: &[Var]) -> HashSet<Vec<bool>> {
        witnesses
            .iter()
            .map(|w| w.project(sampling).values().to_vec())
            .collect()
    }

    /// Replay changes what a cell costs, never what it holds: every case
    /// gives the capped size of a search without replay, and the same
    /// projected set whenever the cell drains.
    fn replay_matches_search(gauss: crate::config::GaussMode) {
        use crate::config::SolverConfig;

        // 6 sampling variables, 42 witnesses; the cell keeps about a
        // quarter of them.
        let mut f = CnfFormula::new(6);
        f.add_clause([
            Lit::from_dimacs(1),
            Lit::from_dimacs(2),
            Lit::from_dimacs(3),
        ])
        .unwrap();
        f.add_clause([Lit::from_dimacs(-4), Lit::from_dimacs(5)])
            .unwrap();
        let sampling = all_vars(6);
        let layer = vec![
            XorClause::from_dimacs([1, 2, 4], true),
            XorClause::from_dimacs([3, 5, 6], false),
        ];
        let config = SolverConfig {
            gauss,
            ..SolverConfig::default()
        };
        let solver = || Solver::from_formula_with_config(&f, config.clone());
        let none = KnownWitnesses::new();
        let mut reference = solver();
        let cell = enumerate_cell(
            &mut reference,
            &sampling,
            &layer,
            100,
            &Budget::new(),
            &none,
        );
        assert!(cell.is_exhaustive());
        let size = cell.len();
        assert!(size >= 6, "cell of {size}");
        // Witnesses of the opposite cell violate the first row.
        let other = enumerate_cell(
            &mut reference,
            &sampling,
            &[XorClause::from_dimacs([1, 2, 4], false)],
            100,
            &Budget::new(),
            &none,
        );

        let list = |models: &[&[Model]]| {
            let mut known = KnownWitnesses::new();
            known.extend(models.iter().flat_map(|m| m.iter()));
            known
        };
        let half = &cell.witnesses[..size / 2];
        // (case, known list, bound, witnesses it must replay)
        let cases = [
            ("no known witnesses", none.clone(), 100, 0),
            ("a subset of the cell", list(&[half]), 100, size / 2),
            (
                "other cells' witnesses",
                list(&[&other.witnesses, half]),
                100,
                size / 2,
            ),
            (
                "more matches than the bound",
                list(&[&cell.witnesses]),
                size / 2,
                size / 2,
            ),
        ];
        for (case, known, bound, replayed) in cases {
            let searched = enumerate_cell(
                &mut solver(),
                &sampling,
                &layer,
                bound,
                &Budget::new(),
                &none,
            );
            let mut replaying = solver();
            let got = enumerate_cell(
                &mut replaying,
                &sampling,
                &layer,
                bound,
                &Budget::new(),
                &known,
            );
            assert_eq!(got.len(), searched.len(), "{case}: capped size");
            assert_eq!(got.bound_reached, searched.bound_reached, "{case}");
            assert_eq!(got.replayed, replayed, "{case}: replayed");
            if searched.is_exhaustive() {
                assert!(got.is_exhaustive(), "{case}");
                assert_eq!(
                    projections(&got.witnesses, &sampling),
                    projections(&searched.witnesses, &sampling),
                    "{case}: drained set"
                );
            }
            assert_eq!(
                projections(&got.witnesses, &sampling).len(),
                got.len(),
                "{case}"
            );
            for w in &got.witnesses {
                assert!(
                    f.evaluate(w) && layer.iter().all(|x| x.evaluate(w)),
                    "{case}"
                );
            }
            let stats = replaying.stats();
            assert_eq!(stats.guards_created, 1, "{case}: one guard per call");
            assert_eq!(stats.guards_created, stats.guards_retired, "{case}");
            if replayed == bound {
                assert_eq!(
                    stats.solve_calls, 0,
                    "{case}: the replay alone filled the bound"
                );
            }
        }
    }

    #[test]
    fn replay_matches_search_without_gauss() {
        replay_matches_search(crate::config::GaussMode::Off);
    }

    #[test]
    fn replay_matches_search_with_gauss() {
        replay_matches_search(crate::config::GaussMode::On);
    }

    #[test]
    fn known_witnesses_pack_models_across_words() {
        // 130 variables span three words; the rows probe each word.
        let model = |seed: usize| Model::new((0..130).map(|i| (i * 7 + seed) % 3 == 0).collect());
        let mut known = KnownWitnesses::new();
        assert!(known.is_empty());
        for seed in 0..3 {
            known.push(&model(seed));
        }
        assert_eq!(known.len(), 3);
        assert_eq!(known.words.len(), 3 * 3);
        let all: Vec<Model> = known.matching(&[]).collect();
        assert_eq!(all, vec![model(0), model(1), model(2)]);
        let rows = [XorClause::new(
            [Var::new(0), Var::new(64), Var::new(129)],
            true,
        )];
        let expected: Vec<Model> = (0..3).map(model).filter(|m| rows[0].evaluate(m)).collect();
        assert!(!expected.is_empty() && expected.len() < 3);
        assert_eq!(known.matching(&rows).collect::<Vec<_>>(), expected);
        // A row past the witnesses' variables matches none.
        let beyond = [XorClause::new([Var::new(130)], false)];
        assert_eq!(known.matching(&beyond).count(), 0);
    }
}
