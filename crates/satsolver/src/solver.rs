//! The CDCL search loop, with incremental solving under assumptions and
//! assumption-guarded constraint layers.
//!
//! # Models
//!
//! The search reports a model as soon as the trail holds every variable
//! (guards included), before it asks the decision heap for a branch. The
//! heap drops assigned variables lazily, so asking it would pop each one
//! left in it, only for the next backjump to push the unassigned ones back.
//! An enumerated cell finds one model per blocking clause, so that drain
//! would cost a heap pop per variable per witness.
//!
//! # Frozen watch lists
//!
//! [`Solver::shrink_to_fit`] drops the watch lists of both propagation
//! engines: a prepared prototype is kept and cloned, not searched. Every
//! entry point that propagates or edits constraints (solving, adding a
//! clause or an xor, opening or retiring a guard, garbage collection) first
//! thaws them, rebuilding the clause watches in clause order and each xor's
//! from its stored watch pair. Rebuilt lists may order their entries
//! differently from the lists that were dropped, but they watch the same
//! literals, so a thawed solver finds the same cells.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unigen_cnf::{Clause, CnfFormula, Lit, Model, Var, XorClause};

use std::sync::Arc;

use crate::budget::Budget;
use crate::clause_db::{ClauseDb, ClauseRef, Watcher};
use crate::config::{
    GaussMode, SolverConfig, CLAUSE_DECAY, DEFAULT_POLARITY, GAUSS_AUTO_THRESHOLD,
    LEARNED_CLAUSE_GROWTH, LEARNED_CLAUSE_LIMIT, RESTART_INTERVAL, SEED, VAR_DECAY,
};
use crate::decide::Vsids;
use crate::fault::{FaultHook, FaultSite, InterruptReason};
use crate::gauss::{BuildOutcome, GaussEngine, GaussResult};
use crate::proof::ProofLog;
use crate::restart::LubyRestarts;
use crate::stats::SolverStats;
use crate::xor_engine::{AddXor, XorEngine, XorPropagation, XorRef, XorState};

thread_local! {
    static CONSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Largest LBD a learned clause may have and still survive a guard
/// retirement (glucose-style "core" clauses; binary clauses always survive).
const RETAINED_LBD_LIMIT: u32 = 4;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula (together with all clauses added so far) is unsatisfiable.
    Unsat,
    /// The call was interrupted — by a fired [`Budget`] limit or an
    /// injected [`FaultHook`] — before a definite answer was reached;
    /// corresponds to a `BSAT` timeout in the paper's experiments.
    ///
    /// The solver is left at decision level zero with its trail, guards
    /// and learned-clause state consistent, so the caller may simply
    /// retry the call (the `interruption_leaves_*` tests pin this).
    Interrupted(InterruptReason),
}

impl SolveResult {
    /// Returns the model if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Returns `true` if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Returns the interruption reason, if the call was interrupted.
    pub fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self {
            SolveResult::Interrupted(reason) => Some(*reason),
            _ => None,
        }
    }

    /// Returns `true` if the call was interrupted (budget or fault).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, SolveResult::Interrupted(_))
    }
}

/// Handle to an *activation guard*: a fresh solver-internal variable `g` that
/// gates a layer of constraints added with [`Solver::add_xor_under`] /
/// [`Solver::add_clause_under`].
///
/// The guarded constraints are enabled by solving under the assumption `¬g`
/// ([`Guard::assumption`]) and permanently disabled by
/// [`Solver::retire_guard`], which asserts `g` at the top level and removes
/// every clause that mentions the guard. Learned clauses whose derivation
/// used a guarded constraint contain `g` (the guard is falsified at an
/// assumption decision level, never at level zero), so they are exactly the
/// clauses removed at retirement — everything the solver learned about the
/// base formula survives from one cell to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard(Var);

impl Guard {
    /// The guard's activation variable.
    pub fn var(&self) -> Var {
        self.0
    }

    /// The literal to assume (via [`Solver::solve_under_assumptions`]) while
    /// the guarded constraint layer should be active.
    pub fn assumption(&self) -> Lit {
        self.0.negative()
    }

    /// The literal whose truth disables the guarded layer (asserted by
    /// [`Solver::retire_guard`]).
    pub fn disable_lit(&self) -> Lit {
        self.0.positive()
    }
}

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Branching decision (or an assumption).
    Decision,
    /// Implied by a CNF clause.
    Clause(ClauseRef),
    /// Implied by an xor constraint.
    Xor(XorRef),
    /// Implied by a Gauss–Jordan matrix row; the antecedents were stored
    /// eagerly in the gauss engine, keyed by the implied variable.
    Gauss,
    /// Asserted at level zero with no recorded antecedent (top-level unit).
    Unit,
}

/// The source of a conflict discovered during propagation.
#[derive(Debug, Clone, Copy)]
enum ConflictSource {
    Clause(ClauseRef),
    Xor(XorRef),
    /// Conflict found by a Gauss–Jordan matrix; the clause literals were
    /// stored eagerly in the gauss engine.
    Gauss,
}

/// A conflict-driven clause-learning SAT solver with native xor support and
/// an incremental interface (assumptions + guarded constraint layers).
///
/// See the crate-level documentation for an overview and an example. The
/// solver is deterministic for a given input formula (its tie-breaking
/// noise comes from a fixed seed), which keeps every experiment in this
/// repository reproducible.
///
/// The solver is `Clone + Send`: every field is owned plain data (the clause
/// arena, the xor engine, the trail, VSIDS state — no `Rc`, no interior
/// mutability, no shared handles), so a prepared solver can be duplicated
/// for a parallel sampler worker and moved to its thread. Keeping it that
/// way is load-bearing for `unigen::SamplerService`; the
/// `solver_is_send_sync_clone` test pins the property at compile time.
#[derive(Debug, Clone)]
pub struct Solver {
    num_vars: usize,
    /// Variables belonging to the problem itself (guard variables allocated
    /// by [`Solver::new_guard`] live above this range and are excluded from
    /// extracted models).
    num_base_vars: usize,
    clauses: ClauseDb,
    xors: XorEngine,
    /// Current partial assignment, indexed by variable.
    assign: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason for each variable's assignment.
    reason: Vec<Reason>,
    /// Assignment trail in chronological order.
    trail: Vec<Lit>,
    /// Start index in `trail` of each decision level.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    vsids: Vsids,
    restarts: LubyRestarts,
    config: SolverConfig,
    /// False once a top-level conflict has been derived.
    ok: bool,
    stats: SolverStats,
    learned_limit: f64,
    /// Scratch space for conflict analysis.
    seen: Vec<bool>,
    /// Marks guard variables (indexed by variable).
    is_guard: Vec<bool>,
    /// Clauses mentioning each guard variable, deleted wholesale when the
    /// guard is retired.
    guarded_clauses: HashMap<u32, Vec<ClauseRef>>,
    /// Reusable buffer for xor propagation results.
    xor_scratch: Vec<XorPropagation>,
    /// Reusable marker buffer for clause minimisation.
    minimise_marked: Vec<bool>,
    /// Gauss–Jordan matrices over guarded xor layers.
    gauss: GaussEngine,
    /// Reusable buffer for gauss propagation results.
    gauss_scratch: Vec<GaussResult>,
    /// Guarded rows routed to the watched engine while their layer was
    /// below the Auto threshold (paired with their proof-stream ids, 0 when
    /// certify mode is off), remembered so a later batch that pushes the
    /// layer over the threshold can promote the *whole* layer into the
    /// matrix (the watched copies stay installed — redundant propagation
    /// is sound — so the matrix never reasons over a partial layer).
    watched_guard_rows: HashMap<u32, Vec<(XorClause, u64)>>,
    /// `true` while [`Solver::shrink_to_fit`] has dropped both engines'
    /// watch lists; [`Solver::thaw`] rebuilds them.
    frozen: bool,
}

impl Solver {
    /// Creates an empty solver over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Solver::with_config(num_vars, SolverConfig::default())
    }

    /// Creates an empty solver with an explicit configuration.
    pub fn with_config(num_vars: usize, config: SolverConfig) -> Self {
        CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        let mut rng = StdRng::seed_from_u64(SEED);
        let noise: Vec<f64> = (0..num_vars).map(|_| rng.gen_range(0.0..1e-6)).collect();
        let mut solver = Solver {
            num_vars,
            num_base_vars: num_vars,
            clauses: ClauseDb::new(num_vars, CLAUSE_DECAY),
            xors: XorEngine::new(num_vars),
            assign: vec![None; num_vars],
            level: vec![0; num_vars],
            reason: vec![Reason::Unit; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            vsids: Vsids::new(num_vars, VAR_DECAY, DEFAULT_POLARITY, &noise),
            restarts: LubyRestarts::new(RESTART_INTERVAL),
            learned_limit: LEARNED_CLAUSE_LIMIT as f64,
            config,
            ok: true,
            stats: SolverStats::default(),
            seen: vec![false; num_vars],
            is_guard: vec![false; num_vars],
            guarded_clauses: HashMap::new(),
            xor_scratch: Vec::new(),
            minimise_marked: vec![false; num_vars],
            gauss: GaussEngine::default(),
            gauss_scratch: Vec::new(),
            watched_guard_rows: HashMap::new(),
            frozen: false,
        };
        solver.gauss.set_tracking(solver.config.proof.is_some());
        solver
    }

    /// Builds a solver pre-loaded with all clauses and xor constraints of a
    /// formula.
    pub fn from_formula(formula: &CnfFormula) -> Self {
        Solver::from_formula_with_config(formula, SolverConfig::default())
    }

    /// Builds a solver pre-loaded with a formula, using an explicit
    /// configuration.
    pub fn from_formula_with_config(formula: &CnfFormula, config: SolverConfig) -> Self {
        let mut solver = Solver::with_config(formula.num_vars(), config);
        for clause in formula.clauses() {
            solver.add_clause(clause.clone());
        }
        for xor in formula.xor_clauses() {
            solver.add_xor_clause(xor.clone());
        }
        solver
    }

    /// Number of `Solver` values constructed on the current thread since it
    /// started.
    ///
    /// This exists so tests can assert that the samplers reuse one
    /// incremental solver per top-level call instead of rebuilding one per
    /// hash cell (cloning a solver does not count as a construction).
    pub fn constructions_on_thread() -> u64 {
        CONSTRUCTIONS.with(|c| c.get())
    }

    /// Returns the number of variables known to the solver (including guard
    /// variables).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of *base* (problem) variables; extracted models
    /// cover exactly this range. Guard variables allocated by
    /// [`Solver::new_guard`] are excluded.
    pub fn num_base_vars(&self) -> usize {
        self.num_base_vars
    }

    /// Returns the accumulated search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Installs (or, with `None`, removes) the injectable fault oracle.
    /// The hook is shared by reference, so one oracle can count calls
    /// across every clone of a prepared solver.
    pub fn set_fault_hook(&mut self, hook: Option<Arc<dyn FaultHook>>) {
        self.config.fault_hook = hook;
    }

    /// Runs `f` against the proof sink, if one is installed, after flushing
    /// any Gauss row derivations recorded since the last step — their
    /// `XorDerive` steps must precede whatever `f` writes, which may depend
    /// on the derived rows. A no-op single `Option` test when certify mode
    /// is off.
    pub(crate) fn with_proof(&mut self, f: impl FnOnce(&mut ProofLog)) {
        let Some(proof) = self.config.proof.as_mut() else {
            return;
        };
        if self.gauss.has_derives() {
            for d in self.gauss.take_derives() {
                proof.xor_derive(d.guard, &d.vars, d.rhs, &d.from);
            }
        }
        f(proof);
        self.stats.proof_steps = proof.steps();
        self.stats.proof_bytes = proof.len() as u64;
    }

    /// The proof stream recorded so far, or `None` when certify mode is off
    /// (no [`SolverConfig::proof`] sink installed). Takes `&mut self` so
    /// pending Gauss derivations can be flushed into the stream first.
    pub fn proof_bytes(&mut self) -> Option<&[u8]> {
        self.with_proof(|_| {});
        self.config.proof.as_ref().map(|p| p.bytes())
    }

    /// Returns the current Gauss–Jordan policy for guarded xor layers.
    pub fn gauss_mode(&self) -> GaussMode {
        self.config.gauss
    }

    /// Changes the Gauss–Jordan policy for layers added (or sealed) from
    /// now on; already-built matrices are unaffected. The samplers'
    /// degradation ladder uses this to retry a cell with
    /// [`GaussMode::Off`] after a poisoned seal.
    pub fn set_gauss_mode(&mut self, mode: GaussMode) {
        self.config.gauss = mode;
    }

    /// Returns `false` if a top-level conflict has already been derived (any
    /// further `solve` call will return `Unsat`).
    ///
    /// An `Unsat` answer from [`Solver::solve_under_assumptions`] does *not*
    /// make the solver inconsistent; only base-level unsatisfiability does.
    pub fn is_consistent(&self) -> bool {
        self.ok
    }

    /// Grows the variable range to at least `num_vars` base variables.
    ///
    /// # Panics
    ///
    /// Panics if guard variables have already been allocated and the new
    /// base range would span them: base variables are positional in
    /// extracted models, so they must all sit below every guard. Add base
    /// variables before creating guards (every sampler in the workspace
    /// loads the formula first and allocates guards per cell afterwards).
    pub fn ensure_vars(&mut self, num_vars: usize) {
        assert!(
            num_vars <= self.num_base_vars || self.num_base_vars == self.num_vars,
            "cannot widen the base variable range past existing guard variables"
        );
        self.thaw();
        self.grow_storage(num_vars);
        self.num_base_vars = self.num_base_vars.max(num_vars);
    }

    /// Grows the backing storage without widening the base-variable range
    /// (used for guard variables).
    fn grow_storage(&mut self, num_vars: usize) {
        if num_vars <= self.num_vars {
            return;
        }
        let old = self.num_vars;
        self.num_vars = num_vars;
        self.assign.resize(num_vars, None);
        self.level.resize(num_vars, 0);
        self.reason.resize(num_vars, Reason::Unit);
        self.seen.resize(num_vars, false);
        self.is_guard.resize(num_vars, false);
        self.minimise_marked.resize(num_vars, false);
        self.clauses.grow_to(num_vars);
        self.xors.grow_to(num_vars);
        let mut rng = StdRng::seed_from_u64(SEED ^ num_vars as u64);
        let noise: Vec<f64> = (old..num_vars).map(|_| rng.gen_range(0.0..1e-6)).collect();
        self.vsids.grow_to(num_vars, &noise);
    }

    /// Grows storage to cover every literal of `lits`, widening the base
    /// range only for non-guard variables.
    fn ensure_clause_vars(&mut self, lits: &[Lit]) {
        let mut overall = 0usize;
        let mut base = 0usize;
        for &l in lits {
            let n = l.var().index() + 1;
            overall = overall.max(n);
            if n > self.num_vars || !self.is_guard[l.var().index()] {
                base = base.max(n);
            }
        }
        assert!(
            base <= self.num_base_vars || self.num_base_vars == self.num_vars,
            "cannot widen the base variable range past existing guard variables"
        );
        self.grow_storage(overall);
        self.num_base_vars = self.num_base_vars.max(base);
    }

    /// Allocates a fresh activation guard.
    ///
    /// The guard variable is excluded from extracted models. Constraints are
    /// attached to the guard with [`Solver::add_xor_under`] and
    /// [`Solver::add_clause_under`]; they take effect only while
    /// [`Guard::assumption`] is assumed and are removed for good by
    /// [`Solver::retire_guard`].
    pub fn new_guard(&mut self) -> Guard {
        self.thaw();
        self.backtrack_to(0);
        let index = self.num_vars;
        self.grow_storage(index + 1);
        self.is_guard[index] = true;
        self.stats.guards_created += 1;
        let var = Var::new(index);
        self.with_proof(|p| p.new_guard(var));
        Guard(var)
    }

    /// Adds a CNF clause. May be called between `solve` calls (the solver is
    /// first unwound to decision level zero).
    ///
    /// Tautological clauses are ignored; the empty clause makes the solver
    /// permanently inconsistent.
    pub fn add_clause(&mut self, clause: Clause) {
        if clause.is_tautology() {
            return;
        }
        let lits: Vec<Lit> = clause.iter().copied().collect();
        // Logged with the caller's original literals: `add_clause_lits` may
        // strip level-zero-false literals, but the logged (weaker) clause
        // is UP-equivalent under the units that justified the stripping.
        self.with_proof(|p| p.axiom(&lits));
        self.add_clause_lits(lits);
    }

    /// Adds a CNF clause under a guard: the clause is weakened with the
    /// guard's disable literal, so it binds only while the guard is assumed
    /// and disappears when the guard is retired. This is how the enumerator
    /// scopes its per-cell blocking clauses.
    pub fn add_clause_under(&mut self, clause: Clause, guard: Guard) {
        if clause.is_tautology() {
            return;
        }
        let mut lits: Vec<Lit> = clause.iter().copied().collect();
        if !lits.contains(&guard.disable_lit()) {
            lits.push(guard.disable_lit());
        }
        self.with_proof(|p| p.guarded_clause(&lits));
        self.add_clause_lits(lits);
    }

    fn add_clause_lits(&mut self, clause: Vec<Lit>) {
        self.thaw();
        self.ensure_clause_vars(&clause);
        self.backtrack_to(0);
        if !self.ok {
            return;
        }
        // Remove literals already false at level zero and drop the clause if
        // any literal is already true at level zero.
        let mut lits: Vec<Lit> = Vec::with_capacity(clause.len());
        for &lit in &clause {
            match self.lit_value(lit) {
                Some(true) => return,
                Some(false) => {}
                None => lits.push(lit),
            }
        }
        match lits.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.enqueue(lits[0], Reason::Unit);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let cref = self.clauses.add_clause(&lits, false, 0);
                self.register_guarded(cref, &lits);
            }
        }
    }

    /// Records `cref` against every guard variable it mentions, so retiring
    /// the guard can delete it.
    fn register_guarded(&mut self, cref: ClauseRef, lits: &[Lit]) {
        for &l in lits {
            let i = l.var().index();
            if self.is_guard[i] {
                self.guarded_clauses.entry(i as u32).or_default().push(cref);
            }
        }
    }

    /// Adds an xor constraint. May be called between `solve` calls.
    pub fn add_xor_clause(&mut self, xor: XorClause) {
        self.add_xor_with_guard(xor, None);
    }

    /// Adds an xor constraint under a guard: the constraint represents
    /// `g ∨ (xor)` and so is active only while [`Guard::assumption`] is
    /// assumed. Retiring the guard removes the constraint (and every learned
    /// clause derived from it).
    pub fn add_xor_under(&mut self, xor: XorClause, guard: Guard) {
        self.add_xor_with_guard(xor, Some(guard));
    }

    fn add_xor_with_guard(&mut self, xor: XorClause, guard: Option<Guard>) {
        self.thaw();
        if let Some(max) = xor.max_var() {
            self.ensure_vars(max.index() + 1);
        }
        self.backtrack_to(0);
        if !self.ok {
            return;
        }
        let guard_lit = guard.map(|g| g.disable_lit());
        // Every row is logged once, at add time, whatever propagation path
        // it takes below: the checker derives the row's CNF expansion
        // itself, so watched propagation, matrix implications (via the
        // derives recorded at scan time), and the degenerate unit/empty
        // cases all check against the same logged row.
        let mut xor_id = 0u64;
        if self.config.proof.is_some() {
            let guard_var = guard.map(|g| g.var());
            self.with_proof(|p| xor_id = p.xor_row(guard_var, &xor));
        }
        // Non-degenerate guarded rows are deferred: the gauss engine
        // collects a guard's whole layer and decides at the next solve
        // (the *seal* point) whether it becomes a Gauss–Jordan matrix or
        // falls back to watched propagation. Degenerate rows (empty/unit
        // after normalisation) combine with the guard immediately below.
        if let Some(g) = guard_lit {
            if xor.len() >= 2 && self.config.gauss != GaussMode::Off {
                self.gauss.push_pending(g.var().index() as u32, xor, xor_id);
                return;
            }
        }
        self.install_watched_xor(&xor, guard_lit);
    }

    /// Adds an xor constraint to the watched-variable engine, resolving
    /// degenerate rows against the guard: an empty unsatisfiable row under
    /// a guard is the unit clause `g` (the guarded layer is unsatisfiable,
    /// not the solver), and a unit row under a guard is the binary clause
    /// `g ∨ lit`.
    fn install_watched_xor(&mut self, xor: &XorClause, guard_lit: Option<Lit>) {
        match self.xors.add(xor, guard_lit) {
            AddXor::Tautology => {}
            AddXor::Unsatisfiable => match guard_lit {
                // `g ∨ ⊥` is the unit clause `g`: the guarded layer is
                // unsatisfiable, so solving under the guard's assumption
                // reports Unsat while the solver stays consistent.
                Some(g) => self.assert_level_zero(g, Reason::Unit),
                None => self.ok = false,
            },
            AddXor::Unit(var, value) => match guard_lit {
                // `g ∨ lit` is an ordinary guarded binary clause.
                Some(g) => self.add_clause_lits(vec![var.lit(value), g]),
                None => match self.value(var) {
                    Some(current) if current != value => self.ok = false,
                    Some(_) => {}
                    None => {
                        self.enqueue(var.lit(value), Reason::Unit);
                        if self.propagate().is_some() {
                            self.ok = false;
                        }
                    }
                },
            },
            AddXor::Stored(xref) => {
                // Some variables may already be assigned at level zero: move
                // the watches onto unassigned variables and resolve any
                // implication or violation the level-zero trail produces.
                let state = {
                    let assign = &self.assign;
                    self.xors.position_watches(xref, |v| assign[v.index()]);
                    self.xors.probe(xref, |v| assign[v.index()])
                };
                match (state, guard_lit) {
                    (XorState::Open | XorState::Satisfied, _) => {}
                    (XorState::Implied(lit), None) => match self.lit_value(lit) {
                        Some(true) => {}
                        Some(false) => self.ok = false,
                        None => {
                            self.enqueue(lit, Reason::Xor(xref));
                            if self.propagate().is_some() {
                                self.ok = false;
                            }
                        }
                    },
                    // Guard unassigned: `g ∨ …` still has two free literals;
                    // the guard-activation event will fire the implication.
                    (XorState::Implied(_), Some(_)) => {}
                    (XorState::Violated, None) => self.ok = false,
                    // All variables assigned against the parity: `g ∨ lits`
                    // is unit on the guard.
                    (XorState::Violated, Some(g)) => {
                        self.assert_level_zero(g, Reason::Xor(xref));
                    }
                }
            }
        }
    }

    /// Enqueues a literal at level zero (if not already satisfied) and
    /// propagates, recording inconsistency.
    fn assert_level_zero(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.decision_level(), 0);
        match self.lit_value(lit) {
            Some(true) => {}
            Some(false) => self.ok = false,
            None => {
                self.enqueue(lit, reason);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
        }
    }

    /// Compiles every pending guarded xor layer: layers at or above the
    /// configured row threshold become Gauss–Jordan matrices, smaller ones
    /// fall back to watched-variable propagation. Any level-zero
    /// consequence (a jointly unsatisfiable layer reduces to the unit
    /// clause `g`; rows violated by level-zero units imply `g`) is asserted
    /// here, before search begins.
    ///
    /// Returns `true` if an injected fault poisoned the seal: no pending
    /// layer was consumed (they all stay pending), so a retry — typically
    /// after switching to [`GaussMode::Off`] — sees the same layers.
    fn seal_gauss_layers(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.gauss.has_pending() {
            return false;
        }
        if let Some(hook) = &self.config.fault_hook {
            if hook.trip(FaultSite::GaussSeal) {
                return true;
            }
        }
        for (key, rows) in self.gauss.take_pending() {
            if !self.ok {
                return false;
            }
            let guard_lit = Var::new(key as usize).positive();
            // The Auto threshold judges the guard's whole layer — matrix
            // rows from earlier solves, rows previously routed to the
            // watched engine, and this batch. A guard with a matrix keeps
            // extending it, and crossing the threshold late promotes the
            // earlier watched rows into the matrix, so the matrix never
            // reasons over a partial layer.
            let existing = self.gauss.matrix_rows(key);
            let watched = self.watched_guard_rows.get(&key).map_or(0, Vec::len);
            let use_matrix = match self.config.gauss {
                GaussMode::On => true,
                GaussMode::Auto => {
                    existing > 0 || rows.len() + existing + watched >= GAUSS_AUTO_THRESHOLD
                }
                GaussMode::Off => false,
            };
            if !use_matrix {
                for (xor, _) in &rows {
                    if !self.ok {
                        return false;
                    }
                    self.install_watched_xor(xor, Some(guard_lit));
                }
                if self.config.gauss == GaussMode::Auto {
                    self.watched_guard_rows.entry(key).or_default().extend(rows);
                }
                continue;
            }
            let mut rows = rows;
            if let Some(promoted) = self.watched_guard_rows.remove(&key) {
                // Earlier sub-threshold batches live in the watched engine;
                // give the matrix the whole layer (the duplicated watched
                // propagation is sound).
                rows.extend(promoted);
            }
            let outcome = {
                let assign = &self.assign;
                self.gauss
                    .build(key, guard_lit, &rows, |v| assign[v.index()])
            };
            match outcome {
                BuildOutcome::LayerUnsat => {
                    // The rows combine to `0 = 1`: the guarded layer
                    // contributes exactly the unit clause `g`.
                    self.assert_level_zero(guard_lit, Reason::Unit);
                }
                BuildOutcome::Built { added, fresh } => {
                    if fresh {
                        self.stats.gauss_matrices += 1;
                    }
                    self.stats.gauss_rows += added as u64;
                    if added == 0 {
                        continue;
                    }
                    // Level-zero units may already satisfy or violate rows.
                    let mut results = std::mem::take(&mut self.gauss_scratch);
                    results.clear();
                    {
                        let assign = &self.assign;
                        self.gauss
                            .scan_matrix(key, &|v: Var| assign[v.index()], &mut results);
                    }
                    if self.apply_gauss_results(&mut results).is_some() {
                        self.ok = false;
                    }
                    self.gauss_scratch = results;
                }
            }
        }
        self.stats.gauss_row_ops = self.gauss.row_ops;
        false
    }

    /// Enqueues the implications a gauss scan produced (storing their
    /// reasons for conflict analysis) and converts violated implications
    /// into conflicts. Returns the conflict source, if any.
    fn apply_gauss_results(&mut self, results: &mut Vec<GaussResult>) -> Option<ConflictSource> {
        let mut conflict = None;
        for result in results.drain(..) {
            if conflict.is_some() {
                break;
            }
            match result {
                GaussResult::Implied { lit, reason } => match self.lit_value(lit) {
                    Some(true) => {}
                    Some(false) => {
                        // The row forces `lit`, which is already false: the
                        // entailed clause `reason ∨ lit` is the conflict.
                        let mut lits = reason;
                        lits.push(lit);
                        self.gauss.set_conflict(lits);
                        self.stats.gauss_conflicts += 1;
                        conflict = Some(ConflictSource::Gauss);
                    }
                    None => {
                        self.stats.gauss_propagations += 1;
                        self.gauss.store_reason(lit.var(), reason);
                        self.enqueue(lit, Reason::Gauss);
                    }
                },
                GaussResult::Conflict => {
                    self.stats.gauss_conflicts += 1;
                    conflict = Some(ConflictSource::Gauss);
                }
            }
        }
        conflict
    }

    /// Retires a guard: deletes every clause and xor constraint attached to
    /// it (including learned clauses whose derivation depended on the guarded
    /// layer — they all mention the guard literal) and asserts the guard's
    /// disable literal at the top level. The guard must not be used again.
    pub fn retire_guard(&mut self, guard: Guard) {
        self.thaw();
        self.backtrack_to(0);
        debug_assert!(self.is_guard[guard.var().index()], "retiring a non-guard");
        self.stats.guards_retired += 1;
        // One step covers the wholesale deletion: the checker drops every
        // clause mentioning the guard itself and installs the unit `g`.
        let guard_var = guard.var();
        self.with_proof(|p| p.retire_guard(guard_var));
        let key = guard.var().index() as u32;
        let mut retired_learned = 0u64;
        if let Some(list) = self.guarded_clauses.remove(&key) {
            let mut deleted: Vec<ClauseRef> = Vec::with_capacity(list.len());
            for cref in list {
                if !self.clauses.is_deleted(cref) {
                    if self.clauses.is_learned(cref) {
                        retired_learned += 1;
                    }
                    self.clauses.delete(cref);
                    deleted.push(cref);
                }
            }
            // Drop the dead watch entries now instead of letting propagation
            // stumble over them until the next garbage collection.
            self.clauses.sweep_deleted_watchers(&deleted);
        }
        self.xors.retire(guard.var());
        self.gauss.retire(guard.var());
        self.watched_guard_rows
            .remove(&(guard.var().index() as u32));
        self.stats.guarded_learned_retired += retired_learned;
        // Keep only the glucose-style core of the remaining learned clauses:
        // across hash cells, high-LBD clauses cost more propagation work
        // than their pruning is worth, so a retirement is the natural point
        // to shed them. (Level-zero reasons are never dereferenced, so no
        // lock set is needed here.)
        let trimmed = self.clauses.trim_learned(RETAINED_LBD_LIMIT);
        self.log_deletions(&trimmed);
        self.stats.deleted_clauses += trimmed.len() as u64;
        self.stats.learned_clauses = self.clauses.num_learned() as u64;
        self.stats.learned_retained = self.stats.learned_clauses;
        if self.ok {
            // `¬g` can never be implied (no clause contains it), so this
            // either asserts a fresh unit or is a no-op.
            self.assert_level_zero(guard.disable_lit(), Reason::Unit);
        }
        self.maybe_collect_garbage();
    }

    /// Installs a blocking clause while a satisfying trail from
    /// [`Solver::solve_for_enumeration`] (with `keep_trail_on_sat`) is still
    /// in place: instead of unwinding to level zero and re-descending, the
    /// solver backjumps just far enough to unassign the clause's
    /// deepest-level literal — exactly the conflict-driven assertion scheme,
    /// applied to enumeration. Every literal of `lits` must be false under
    /// the current total assignment.
    pub(crate) fn block_and_continue(&mut self, mut lits: Vec<Lit>) {
        if !self.ok {
            return;
        }
        self.with_proof(|p| p.block(&lits));
        debug_assert!(lits.iter().all(|&l| self.lit_value(l) == Some(false)));
        let level_of = |s: &Self, l: Lit| s.level[l.var().index()];
        // The first deepest literal.
        let mut first = 0;
        for i in 1..lits.len() {
            if level_of(self, lits[i]) > level_of(self, lits[first]) {
                first = i;
            }
        }
        let max_level = lits.get(first).map_or(0, |&l| level_of(self, l));
        if max_level == 0 || lits.len() < 2 {
            // Everything is forced at the top level: the cell is a single
            // (projected) witness. The ordinary add path handles the
            // resulting unit/empty clause.
            self.add_clause_lits(lits);
            return;
        }
        // Position the deepest literal first and the next-deepest second
        // (the watched pair after the backjump).
        lits.swap(0, first);
        let mut second = 1;
        for i in 2..lits.len() {
            if level_of(self, lits[i]) > level_of(self, lits[second]) {
                second = i;
            }
        }
        lits.swap(1, second);
        let second_level = level_of(self, lits[1]);
        self.backtrack_to(max_level - 1);
        let cref = self.clauses.add_clause(&lits, false, 0);
        self.register_guarded(cref, &lits);
        if second_level < max_level {
            // Exactly one literal was at the deepest level: after the
            // backjump the clause is unit on it, as in conflict analysis.
            debug_assert!(self.lit_value(lits[0]).is_none());
            self.enqueue(lits[0], Reason::Clause(cref));
        }
        // Otherwise two literals were unassigned by the backjump and the
        // clause is watched normally.
    }

    /// Unwinds any in-progress enumeration (used when an enumerator is
    /// dropped mid-cell, so the solver is back at level zero for whatever
    /// comes next).
    pub(crate) fn end_enumeration(&mut self) {
        self.backtrack_to(0);
    }

    /// Compacts the clause arena when enough of it is tombstoned.
    fn maybe_collect_garbage(&mut self) {
        if self.clauses.should_collect() {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena. Only legal at decision level zero, where
    /// no clause reference is ever dereferenced as a reason.
    fn collect_garbage(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.thaw();
        // Level-zero assignments never have their reasons inspected; null
        // them so no stale ClauseRef survives the compaction.
        for i in 0..self.trail.len() {
            let var = self.trail[i].var();
            self.reason[var.index()] = Reason::Unit;
        }
        let remap = self.clauses.collect_garbage();
        for list in self.guarded_clauses.values_mut() {
            *list = list
                .iter()
                .filter_map(|cref| remap.get(cref).copied())
                .collect();
        }
    }

    /// Drops the solver's slack: collects the deleted clauses out of the
    /// arena, freezes the watch lists of both propagation engines (drops
    /// them until the next entry point that needs them rebuilds them), then
    /// replaces the solver with its clone, whose vectors hold no spare
    /// capacity. Meant for a prepared solver about to be kept for a long
    /// time and cloned: the kept prototype holds its constraints and no
    /// watch lists, and each clone rebuilds its own on its first solve.
    pub fn shrink_to_fit(&mut self) {
        self.backtrack_to(0);
        self.collect_garbage();
        self.clauses.freeze_watches();
        self.xors.freeze_watches();
        self.frozen = true;
        *self = self.clone();
    }

    /// Rebuilds the watch lists [`Solver::shrink_to_fit`] dropped; a no-op
    /// unless the solver is frozen. Called first by every entry point that
    /// propagates or edits constraints.
    fn thaw(&mut self) {
        if self.frozen {
            self.frozen = false;
            self.clauses.thaw_watches(self.num_vars);
            self.xors.thaw_watches(self.num_vars);
        }
    }

    /// Solves the current formula with an unlimited budget.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_budget(&Budget::new())
    }

    /// Solves the current formula, giving up (with
    /// [`SolveResult::Interrupted`] carrying the typed reason) when the
    /// budget is exhausted. The solver stays consistent and the call can
    /// be retried.
    pub fn solve_with_budget(&mut self, budget: &Budget) -> SolveResult {
        self.solve_under_assumptions_with_budget(&[], budget)
    }

    /// Solves under the given assumptions with an unlimited budget.
    ///
    /// See [`Solver::solve_under_assumptions_with_budget`].
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_under_assumptions_with_budget(assumptions, &Budget::new())
    }

    /// Solves the formula under the given assumptions: the assumptions are
    /// installed as pseudo-decisions at the first decision levels (one level
    /// per assumption, in order), so conflict analysis treats them exactly
    /// like decisions and every learned clause that depends on an assumption
    /// contains its negation.
    ///
    /// Returns `Unsat` when the formula is unsatisfiable *under the
    /// assumptions*; this does not make the solver inconsistent unless the
    /// formula is unsatisfiable outright. The assumptions are released before
    /// returning (the solver is always left at decision level zero).
    ///
    /// # Panics
    ///
    /// Panics if an assumption mentions a variable unknown to the solver.
    pub fn solve_under_assumptions_with_budget(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
    ) -> SolveResult {
        self.solve_for_enumeration(assumptions, budget, false, false)
    }

    /// The solve entry point shared with the enumerator.
    ///
    /// With `warm`, the search resumes from the current (mid-enumeration)
    /// trail instead of unwinding to level zero first — the caller has just
    /// installed a blocking clause via [`Solver::block_and_continue`] and the
    /// descent below the backjump point is still valid. With
    /// `keep_trail_on_sat`, a `Sat` return leaves the satisfying trail in
    /// place so the next blocking clause can backjump instead of restarting.
    pub(crate) fn solve_for_enumeration(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        warm: bool,
        keep_trail_on_sat: bool,
    ) -> SolveResult {
        let result = self.solve_for_enumeration_inner(assumptions, budget, warm, keep_trail_on_sat);
        if matches!(result, SolveResult::Unsat) {
            // Every Unsat answer — base-formula contradiction, exhausted
            // search, or a falsified assumption — is certified here, at the
            // single choke point all solve entry points route through: the
            // clause of negated assumptions is RUP over the steps logged so
            // far (the empty clause when there are no assumptions).
            self.with_proof(|p| p.unsat_under(assumptions));
        }
        result
    }

    fn solve_for_enumeration_inner(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        warm: bool,
        keep_trail_on_sat: bool,
    ) -> SolveResult {
        self.stats.solve_calls += 1;
        self.thaw();
        if !warm {
            self.backtrack_to(0);
            self.restarts.reset();
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars,
                "assumption over an unknown variable"
            );
        }
        if let Some(hook) = &self.config.fault_hook {
            if hook.trip(FaultSite::SolveStart) {
                self.backtrack_to(0);
                return SolveResult::Interrupted(InterruptReason::FaultInjected);
            }
        }
        if self.decision_level() == 0 {
            if self.seal_gauss_layers() {
                return SolveResult::Interrupted(InterruptReason::GaussPoisoned);
            }
            if !self.ok {
                return SolveResult::Unsat;
            }
            if self.propagate().is_some() {
                self.ok = false;
                return SolveResult::Unsat;
            }
            self.maybe_collect_garbage();
        }

        let mut meter = budget.start();
        meter.set_conflict_baseline(self.stats.conflicts);
        meter.set_step_baseline(self.stats.propagations + self.stats.decisions);
        let mut restart_limit = self.restarts.next_limit();
        let mut conflicts_this_period: u64 = 0;

        loop {
            if let Some(reason) = meter.exhausted(
                self.stats.conflicts,
                self.stats.propagations + self.stats.decisions,
            ) {
                self.backtrack_to(0);
                return SolveResult::Interrupted(reason);
            }
            if let Some(hook) = &self.config.fault_hook {
                if hook.trip(FaultSite::SearchStep) {
                    self.backtrack_to(0);
                    return SolveResult::Interrupted(InterruptReason::FaultInjected);
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_period += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, backtrack_level, lbd) = self.analyze(conflict);
                self.backtrack_to(backtrack_level);
                self.attach_learnt(learnt, lbd);
                self.vsids.decay();
                self.clauses.decay_clauses();
                if self.clauses.num_learned() as f64 > self.learned_limit {
                    self.reduce_learned();
                }
                continue;
            }
            if conflicts_this_period >= restart_limit {
                conflicts_this_period = 0;
                restart_limit = self.restarts.next_limit();
                self.stats.restarts += 1;
                self.backtrack_to(0);
                continue;
            }
            // (Re-)establish pending assumptions as pseudo-decisions, one
            // decision level each.
            if (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.lit_value(a) {
                    Some(true) => {
                        // Already satisfied: open an empty level so every
                        // assumption keeps a fixed decision level.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        // The formula (plus earlier assumptions) falsifies
                        // this assumption: UNSAT under assumptions, while
                        // the solver itself stays consistent.
                        self.backtrack_to(0);
                        return SolveResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, Reason::Decision);
                    }
                }
                continue;
            }
            // A full trail is a model. Checking its length first spares the
            // heap: asked instead, it would pop every assigned variable still
            // in it before reporting that none is left.
            let next = if self.trail.len() == self.num_vars {
                None
            } else {
                self.pick_branch_variable()
            };
            match next {
                None => {
                    // All variables assigned: model found.
                    let model = self.extract_model();
                    if !keep_trail_on_sat {
                        self.backtrack_to(0);
                    }
                    return SolveResult::Sat(model);
                }
                Some(var) => {
                    self.stats.decisions += 1;
                    let phase = self.vsids.saved_phase(var);
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(var.lit(phase), Reason::Decision);
                }
            }
        }
    }

    /// Returns the current value of a variable (meaningful mid-search or at
    /// level zero between calls).
    pub fn value(&self, var: Var) -> Option<bool> {
        self.assign[var.index()]
    }

    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var().index()].map(|v| lit.evaluate(v))
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn extract_model(&self) -> Model {
        let assigned = &self.assign[..self.num_base_vars];
        assert!(
            assigned.iter().all(Option::is_some),
            "model extraction requires a total assignment"
        );
        Model::new(assigned.iter().map(|&v| v == Some(true)).collect())
    }

    fn pick_branch_variable(&mut self) -> Option<Var> {
        let assign = &self.assign;
        self.vsids.pop_unassigned(|v| assign[v.index()].is_some())
    }

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert!(
            self.lit_value(lit).is_none(),
            "enqueueing an assigned literal"
        );
        let var = lit.var();
        self.assign[var.index()] = Some(lit.is_positive());
        self.level[var.index()] = self.decision_level();
        self.reason[var.index()] = reason;
        self.trail.push(lit);
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let lit = self.trail[i];
            let var = lit.var();
            self.vsids.save_phase(var, lit.is_positive());
            self.assign[var.index()] = None;
            self.reason[var.index()] = Reason::Unit;
            self.vsids.insert(var);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.qhead.min(target);
    }

    /// Unit propagation over CNF clauses and xor constraints. Returns the
    /// conflicting constraint, if any.
    fn propagate(&mut self) -> Option<ConflictSource> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            if let Some(conflict) = self.propagate_clauses(lit) {
                return Some(conflict);
            }
            if let Some(conflict) = self.propagate_xors(lit.var()) {
                return Some(conflict);
            }
            if let Some(conflict) = self.propagate_gauss(lit.var()) {
                return Some(conflict);
            }
        }
        None
    }

    /// Propagates through CNF clauses watching `¬lit` (which just became
    /// false), using the standard two-pointer copy-back walk: entries are
    /// visited exactly once, satisfied clauses are skipped via their blocker
    /// literal without touching clause memory, and moved or deleted watchers
    /// are dropped in place.
    fn propagate_clauses(&mut self, lit: Lit) -> Option<ConflictSource> {
        let false_lit = !lit;
        let mut watchers = std::mem::take(self.clauses.watchers_mut(false_lit));
        let mut conflict = None;
        let mut i = 0;
        let mut j = 0;
        while i < watchers.len() {
            let watcher = watchers[i];
            i += 1;
            // Blocker check: if some other literal of the clause is already
            // true, the clause is satisfied — keep the watch, skip the rest.
            if self.lit_value(watcher.blocker) == Some(true) {
                watchers[j] = watcher;
                j += 1;
                continue;
            }
            let cref = watcher.cref;
            if self.clauses.is_deleted(cref) {
                continue; // drop the watcher
            }
            // Ensure the false literal is at position 1.
            if self.clauses.lit_at(cref, 0) == false_lit {
                self.clauses.swap_lits(cref, 0, 1);
            }
            debug_assert_eq!(self.clauses.lit_at(cref, 1), false_lit);
            // If the other watched literal is already true, keep watching
            // (and remember it as the new blocker).
            let first = self.clauses.lit_at(cref, 0);
            if first != watcher.blocker && self.lit_value(first) == Some(true) {
                watchers[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                continue;
            }
            // Look for a new literal to watch.
            let len = self.clauses.len(cref);
            let mut moved = false;
            for pos in 2..len {
                let candidate = self.clauses.lit_at(cref, pos);
                if self.lit_value(candidate) != Some(false) {
                    self.clauses.swap_lits(cref, 1, pos);
                    self.clauses.watchers_mut(candidate).push(Watcher {
                        cref,
                        blocker: first,
                    });
                    moved = true;
                    break;
                }
            }
            if moved {
                continue; // the watch left `false_lit`'s list
            }
            // Clause is unit or conflicting; keep the watch either way.
            watchers[j] = Watcher {
                cref,
                blocker: first,
            };
            j += 1;
            if self.lit_value(first) == Some(false) {
                conflict = Some(ConflictSource::Clause(cref));
                // Copy back the unprocessed suffix and stop; the caller
                // backtracks past the current level, so the remaining
                // watchers keep a valid watch.
                while i < watchers.len() {
                    watchers[j] = watchers[i];
                    j += 1;
                    i += 1;
                }
                break;
            }
            self.enqueue(first, Reason::Clause(cref));
        }
        watchers.truncate(j);
        *self.clauses.watchers_mut(false_lit) = watchers;
        conflict
    }

    /// Propagates through xor constraints watching the just-assigned
    /// variable.
    fn propagate_xors(&mut self, var: Var) -> Option<ConflictSource> {
        let mut results = std::mem::take(&mut self.xor_scratch);
        results.clear();
        {
            let assign = &self.assign;
            self.xors
                .on_assign(var, |v| assign[v.index()], &mut results);
        }
        let mut conflict = None;
        for result in results.drain(..) {
            if conflict.is_some() {
                break;
            }
            match result {
                XorPropagation::Implied { lit, xref } => match self.lit_value(lit) {
                    Some(true) => {}
                    Some(false) => conflict = Some(ConflictSource::Xor(xref)),
                    None => {
                        self.stats.xor_propagations += 1;
                        self.enqueue(lit, Reason::Xor(xref));
                    }
                },
                XorPropagation::Conflict { xref } => {
                    conflict = Some(ConflictSource::Xor(xref));
                }
            }
        }
        self.xor_scratch = results;
        conflict
    }

    /// Propagates through the Gauss–Jordan matrices touched by the
    /// just-assigned variable (re-pivoting rows whose basic variable it
    /// was), including guard-activation events.
    fn propagate_gauss(&mut self, var: Var) -> Option<ConflictSource> {
        if !self.gauss.watches(var) {
            return None;
        }
        let mut results = std::mem::take(&mut self.gauss_scratch);
        results.clear();
        {
            let assign = &self.assign;
            self.gauss
                .on_assign(var, |v| assign[v.index()], &mut results);
        }
        let conflict = self.apply_gauss_results(&mut results);
        self.gauss_scratch = results;
        self.stats.gauss_row_ops = self.gauss.row_ops;
        conflict
    }

    /// Returns the antecedent literals of `lit` (the other literals of its
    /// reason constraint, all currently false).
    fn reason_lits(&mut self, lit: Lit) -> Vec<Lit> {
        match self.reason[lit.var().index()] {
            Reason::Decision | Reason::Unit => Vec::new(),
            Reason::Clause(cref) => {
                self.clauses.bump_clause(cref);
                self.clauses.iter_lits(cref).filter(|&l| l != lit).collect()
            }
            Reason::Xor(xref) => {
                let assign = &self.assign;
                self.xors.reason_lits(xref, lit, |v| assign[v.index()])
            }
            Reason::Gauss => self.gauss.reason_for(lit.var()).to_vec(),
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's LBD.
    fn analyze(&mut self, conflict: ConflictSource) -> (Vec<Lit>, u32, u32) {
        let current_level = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter: u32 = 0;
        let mut to_clear: Vec<Var> = Vec::new();

        let mut current_lits: Vec<Lit> = match conflict {
            ConflictSource::Clause(cref) => {
                self.clauses.bump_clause(cref);
                self.clauses.iter_lits(cref).collect()
            }
            ConflictSource::Xor(xref) => {
                let assign = &self.assign;
                self.xors.conflict_lits(xref, |v| assign[v.index()])
            }
            ConflictSource::Gauss => self.gauss.conflict_lits(),
        };

        let mut index = self.trail.len();
        let uip: Lit;

        loop {
            for &q in &current_lits {
                let var = q.var();
                if self.seen[var.index()] || self.level[var.index()] == 0 {
                    continue;
                }
                self.seen[var.index()] = true;
                to_clear.push(var);
                self.vsids.bump(var);
                if self.level[var.index()] >= current_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }

            // Find the next trail literal that participates in the conflict.
            loop {
                debug_assert!(index > 0, "conflict analysis ran off the trail");
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                uip = p;
                break;
            }
            current_lits = self.reason_lits(p);
        }

        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(!uip);
        clause.extend(learnt);

        // Clause minimisation: drop literals whose reason is entirely covered
        // by other literals of the clause (cheap, non-recursive check).
        let minimised = self.minimise(clause);

        for var in to_clear {
            self.seen[var.index()] = false;
        }

        // Compute the backtrack level and place the literal with the highest
        // level (other than the asserting one) at position 1.
        let mut clause = minimised;
        let (backtrack_level, lbd) = if clause.len() == 1 {
            (0, 1)
        } else {
            let mut max_pos = 1;
            for i in 2..clause.len() {
                if self.level[clause[i].var().index()] > self.level[clause[max_pos].var().index()] {
                    max_pos = i;
                }
            }
            clause.swap(1, max_pos);
            let bt = self.level[clause[1].var().index()];
            let mut levels: Vec<u32> = clause.iter().map(|l| self.level[l.var().index()]).collect();
            levels.sort_unstable();
            levels.dedup();
            (bt, levels.len() as u32)
        };

        (clause, backtrack_level, lbd)
    }

    /// Removes redundant literals from a learnt clause: a literal is
    /// redundant if every antecedent of its variable is already present in
    /// the clause (local / non-recursive minimisation). Uses a persistent
    /// marker buffer instead of allocating one per conflict.
    fn minimise(&mut self, clause: Vec<Lit>) -> Vec<Lit> {
        for &lit in &clause {
            self.minimise_marked[lit.var().index()] = true;
        }
        let mut result = Vec::with_capacity(clause.len());
        for (i, &lit) in clause.iter().enumerate() {
            if i == 0 {
                result.push(lit);
                continue;
            }
            let redundant = match self.reason[lit.var().index()] {
                Reason::Decision | Reason::Unit => false,
                _ => {
                    let antecedents = self.reason_lits(!lit);
                    !antecedents.is_empty()
                        && antecedents.iter().all(|a| {
                            self.level[a.var().index()] == 0
                                || self.minimise_marked[a.var().index()]
                        })
                }
            };
            if !redundant {
                result.push(lit);
            }
        }
        for &lit in &clause {
            self.minimise_marked[lit.var().index()] = false;
        }
        result
    }

    fn attach_learnt(&mut self, clause: Vec<Lit>, lbd: u32) {
        // Logged exactly as stored (learned clauses are never stripped), so
        // a later deletion finds the clause by its literals.
        self.with_proof(|p| p.learned(&clause));
        self.stats.learned_clauses = self.clauses.num_learned() as u64;
        match clause.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                debug_assert_eq!(self.decision_level(), 0);
                if self.lit_value(clause[0]) == Some(false) {
                    self.ok = false;
                } else if self.lit_value(clause[0]).is_none() {
                    self.enqueue(clause[0], Reason::Unit);
                }
            }
            _ => {
                let asserting = clause[0];
                let cref = self.clauses.add_clause(&clause, true, lbd);
                self.register_guarded(cref, &clause);
                self.stats.learned_clauses = self.clauses.num_learned() as u64;
                debug_assert!(self.lit_value(asserting).is_none());
                self.enqueue(asserting, Reason::Clause(cref));
            }
        }
    }

    fn reduce_learned(&mut self) {
        let reason = &self.reason;
        let trail = &self.trail;
        let locked: HashSet<ClauseRef> = trail
            .iter()
            .filter_map(|l| match reason[l.var().index()] {
                Reason::Clause(cref) => Some(cref),
                _ => None,
            })
            .collect();
        let deleted = self.clauses.reduce(|cref| locked.contains(&cref));
        self.log_deletions(&deleted);
        self.stats.deleted_clauses += deleted.len() as u64;
        self.stats.learned_clauses = self.clauses.num_learned() as u64;
        self.learned_limit *= LEARNED_CLAUSE_GROWTH;
    }

    /// Logs a `Delete` step for each just-tombstoned clause (their literals
    /// stay readable until the next garbage collection).
    fn log_deletions(&mut self, crefs: &[ClauseRef]) {
        if self.config.proof.is_none() {
            return;
        }
        for &cref in crefs {
            let lits: Vec<Lit> = self.clauses.iter_lits(cref).collect();
            self.with_proof(|p| p.delete(&lits));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::dimacs;

    fn solve_text(text: &str) -> (CnfFormula, SolveResult) {
        let formula = dimacs::parse(text).expect("valid DIMACS");
        let mut solver = Solver::from_formula(&formula);
        let result = solver.solve();
        (formula, result)
    }

    #[test]
    fn solver_is_send_sync_clone() {
        // The parallel batch engine clones a prepared solver per worker and
        // moves the clone to the worker's thread. If a future change slips
        // an `Rc`, a raw pointer, or a `RefCell` into the solver (or any of
        // its components), this stops compiling rather than failing at a
        // distance.
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<Solver>();
    }

    #[test]
    fn trivial_sat() {
        let (f, result) = solve_text("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let model = result.model().expect("satisfiable");
        assert!(f.evaluate(model));
    }

    #[test]
    fn trivial_unsat() {
        let (_, result) = solve_text("p cnf 1 2\n1 0\n-1 0\n");
        assert!(result.is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let (_, result) = solve_text("p cnf 3 0\n");
        assert!(result.is_sat());
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p1h1, p2h1; both pigeons must be placed, hole holds at most one.
        let (_, result) = solve_text("p cnf 2 3\n1 0\n2 0\n-1 -2 0\n");
        assert!(result.is_unsat());
    }

    #[test]
    fn pigeonhole_php_4_3_is_unsat() {
        // 4 pigeons, 3 holes. Variables p_{i,j} = 3*(i-1)+j for i in 1..=4, j in 1..=3.
        let mut f = CnfFormula::new(12);
        let var = |i: usize, j: usize| Lit::from_dimacs((3 * (i - 1) + j) as i64);
        for i in 1..=4 {
            f.add_clause([var(i, 1), var(i, 2), var(i, 3)]).unwrap();
        }
        for j in 1..=3 {
            for i1 in 1..=4 {
                for i2 in (i1 + 1)..=4 {
                    f.add_clause([!var(i1, j), !var(i2, j)]).unwrap();
                }
            }
        }
        let mut solver = Solver::from_formula(&f);
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn xor_only_formula() {
        let (f, result) = solve_text("p cnf 3 2\nx 1 2 3 0\nx 1 2 0\n");
        let model = result.model().expect("satisfiable");
        assert!(f.evaluate(model));
    }

    #[test]
    fn contradictory_xors_are_unsat() {
        // x1 ⊕ x2 = 1 and x1 ⊕ x2 = 0.
        let (_, result) = solve_text("p cnf 2 2\nx 1 2 0\nx -1 2 0\n");
        assert!(result.is_unsat());
    }

    #[test]
    fn mixed_cnf_and_xor() {
        let (f, result) = solve_text("p cnf 4 4\n1 2 0\n-1 3 0\nx 1 2 3 4 0\n-4 0\n");
        let model = result.model().expect("satisfiable");
        assert!(f.evaluate(model));
    }

    #[test]
    fn xor_chain_forces_unique_solution() {
        // x1 = 1, x1⊕x2 = 1, x2⊕x3 = 1, x3⊕x4 = 1 forces 1,0,1,0.
        let text = "p cnf 4 4\nx 1 0\nx 1 2 0\nx 2 3 0\nx 3 4 0\n";
        let (f, result) = solve_text(text);
        let model = result.model().expect("satisfiable");
        assert!(f.evaluate(model));
        assert_eq!(model.values(), &[true, false, true, false]);
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // x1 ∨ x2 has three models.
        let formula = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula(&formula);
        let mut found = Vec::new();
        loop {
            match solver.solve() {
                SolveResult::Sat(model) => {
                    found.push(model.clone());
                    let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                    solver.add_clause(Clause::new(blocking));
                }
                SolveResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn budget_exhaustion_returns_typed_interruption() {
        // A formula hard enough to need more than zero conflicts.
        let mut f = CnfFormula::new(20);
        // Random-ish xor system plus clauses: just ensure >0 conflicts needed.
        for i in 1..=17 {
            f.add_xor_clause(XorClause::from_dimacs([i, i + 1, i + 2], i % 2 == 0))
                .unwrap();
        }
        for i in 1..=18 {
            f.add_clause([
                Lit::from_dimacs(i as i64),
                Lit::from_dimacs(-(i as i64 + 1)),
            ])
            .unwrap();
        }
        let mut solver = Solver::from_formula(&f);
        let budget = Budget::new().with_conflict_limit(0);
        let result = solver.solve_with_budget(&budget);
        // A zero-conflict budget fires on the first loop check, with the
        // typed reason; the solver must stay consistent and retryable.
        assert_eq!(
            result.interrupt_reason(),
            Some(InterruptReason::ConflictLimit)
        );
        assert!(solver.is_consistent());
        let follow_up = solver.solve();
        assert!(matches!(
            follow_up,
            SolveResult::Sat(_) | SolveResult::Unsat
        ));
    }

    #[test]
    fn step_limit_interrupts_at_the_same_point_everywhere() {
        let f = dimacs::parse("p cnf 6 4\n1 2 3 0\n-1 4 0\n-2 5 0\nx 4 5 6 0\n").unwrap();
        let budget = Budget::new().with_step_limit(1);
        let run = || {
            let mut solver = Solver::from_formula_with_config(&f, SolverConfig::default());
            let result = solver.solve_with_budget(&budget);
            let steps = solver.stats().propagations + solver.stats().decisions;
            (result, steps, solver)
        };
        let (r1, s1, mut solver) = run();
        let (r2, s2, _) = run();
        assert_eq!(r1.interrupt_reason(), Some(InterruptReason::StepLimit));
        assert_eq!(r1, r2);
        assert_eq!(s1, s2, "step metering must be host-independent");
        // The interrupted solver retries to completion.
        let model = solver.solve().model().cloned().expect("satisfiable");
        assert!(f.evaluate(&model));
    }

    /// A hook that trips a fixed number of times at one site, then goes
    /// quiet — the smallest deterministic fault schedule.
    #[derive(Debug)]
    struct TripTimes {
        site: FaultSite,
        remaining: std::sync::atomic::AtomicU64,
    }

    impl TripTimes {
        fn new(site: FaultSite, times: u64) -> Arc<Self> {
            Arc::new(TripTimes {
                site,
                remaining: std::sync::atomic::AtomicU64::new(times),
            })
        }
    }

    impl FaultHook for TripTimes {
        fn trip(&self, site: FaultSite) -> bool {
            use std::sync::atomic::Ordering;
            if site != self.site {
                return false;
            }
            self.remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        }
    }

    #[test]
    fn injected_solve_start_fault_is_retryable() {
        let f = dimacs::parse("p cnf 3 2\n1 2 0\n-1 3 0\n").unwrap();
        let mut baseline = Solver::from_formula(&f);
        let expected = baseline.solve().model().cloned().expect("satisfiable");

        let mut solver = Solver::from_formula(&f);
        solver.set_fault_hook(Some(TripTimes::new(FaultSite::SolveStart, 1)));
        assert_eq!(
            solver.solve().interrupt_reason(),
            Some(InterruptReason::FaultInjected)
        );
        assert!(solver.is_consistent());
        // The retry is bit-identical to the fault-free run.
        let model = solver.solve().model().cloned().expect("satisfiable");
        assert_eq!(model, expected);
    }

    #[test]
    fn poisoned_gauss_seal_keeps_the_layer_pending() {
        let f = dimacs::parse("p cnf 4 1\n1 2 3 4 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        solver.set_fault_hook(Some(TripTimes::new(FaultSite::GaussSeal, 1)));
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], true), guard);
        let poisoned = solver.solve_under_assumptions(&[guard.assumption()]);
        assert_eq!(
            poisoned.interrupt_reason(),
            Some(InterruptReason::GaussPoisoned)
        );
        // Nothing was consumed: the retry seals and solves the same layer.
        let retried = solver.solve_under_assumptions(&[guard.assumption()]);
        let model = retried.model().expect("cell is satisfiable");
        assert!(model.value(Var::from_dimacs(1)) != model.value(Var::from_dimacs(2)));
        assert!(model.value(Var::from_dimacs(2)) != model.value(Var::from_dimacs(3)));
        solver.retire_guard(guard);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.stats().guards_created, solver.stats().guards_retired);
    }

    #[test]
    fn interrupted_enumeration_keeps_guard_accounting_balanced() {
        // Hammer one persistent solver with injected faults across several
        // guarded cells; every interruption is retried, and at the end the
        // guard books must balance and the solver must still solve.
        let f = dimacs::parse("p cnf 4 2\n1 2 0\n3 4 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let hook = TripTimes::new(FaultSite::SearchStep, 3);
        solver.set_fault_hook(Some(hook));
        for parity in [false, true] {
            let guard = solver.new_guard();
            solver.add_xor_under(XorClause::from_dimacs([1, 3], parity), guard);
            let mut result = solver.solve_under_assumptions(&[guard.assumption()]);
            let mut retries = 0;
            while result.is_interrupted() {
                retries += 1;
                assert!(retries <= 4, "fault schedule must drain");
                result = solver.solve_under_assumptions(&[guard.assumption()]);
            }
            assert!(result.is_sat() || result.is_unsat());
            solver.retire_guard(guard);
        }
        assert_eq!(solver.stats().guards_created, solver.stats().guards_retired);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn solver_is_reusable_after_unsat_subset_removed() {
        // Adding clauses one by one; once UNSAT, stays UNSAT.
        let mut solver = Solver::new(2);
        solver.add_clause(Clause::from_dimacs([1]));
        assert!(solver.solve().is_sat());
        solver.add_clause(Clause::from_dimacs([-1]));
        assert!(solver.solve().is_unsat());
        assert!(solver.solve().is_unsat());
        assert!(!solver.is_consistent());
    }

    #[test]
    fn stats_are_populated() {
        let (_, _) = solve_text("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let formula = dimacs::parse("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").unwrap();
        let mut solver = Solver::from_formula(&formula);
        let _ = solver.solve();
        assert!(solver.stats().solve_calls >= 1);
    }

    #[test]
    fn unique_solution_long_implication_chain() {
        // Implication chain x1 -> x2 -> ... -> x30, plus x1 asserted.
        let mut f = CnfFormula::new(30);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        for i in 1..30 {
            f.add_clause([
                Lit::from_dimacs(-(i as i64)),
                Lit::from_dimacs(i as i64 + 1),
            ])
            .unwrap();
        }
        let mut solver = Solver::from_formula(&f);
        let model = solver.solve().model().cloned().expect("satisfiable");
        assert!(model.values().iter().all(|&b| b));
    }

    #[test]
    fn assumptions_restrict_without_poisoning() {
        // x1 ∨ x2, solved under every assumption combination.
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let a1 = Lit::from_dimacs(-1);
        let a2 = Lit::from_dimacs(-2);
        let result = solver.solve_under_assumptions(&[a1]);
        let model = result.model().expect("sat under ¬x1");
        assert!(!model.value(Var::from_dimacs(1)));
        assert!(model.value(Var::from_dimacs(2)));
        // Both assumptions together contradict the clause…
        assert!(solver.solve_under_assumptions(&[a1, a2]).is_unsat());
        // …but the solver itself stays consistent and solvable.
        assert!(solver.is_consistent());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn assumptions_already_implied_are_harmless() {
        let f = dimacs::parse("p cnf 2 2\n1 0\n-1 2 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        // x1 and x2 are forced at level zero; assuming them must still work.
        let result = solver.solve_under_assumptions(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
        assert!(result.is_sat());
        // Assuming the negation of a forced literal is Unsat but consistent.
        assert!(solver
            .solve_under_assumptions(&[Lit::from_dimacs(-2)])
            .is_unsat());
        assert!(solver.is_consistent());
    }

    #[test]
    fn guarded_xor_layer_lifecycle() {
        // Free formula over 3 variables; hash layers carve it into cells.
        let f = dimacs::parse("p cnf 3 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);

        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], false), guard);

        let mut cell = Vec::new();
        loop {
            match solver.solve_under_assumptions(&[guard.assumption()]) {
                SolveResult::Sat(model) => {
                    // Models cover only the base variables.
                    assert_eq!(model.len(), 3);
                    assert!(model.value(Var::from_dimacs(1)) ^ model.value(Var::from_dimacs(2)));
                    assert_eq!(
                        model.value(Var::from_dimacs(2)),
                        model.value(Var::from_dimacs(3))
                    );
                    let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                    solver.add_clause_under(Clause::new(blocking), guard);
                    cell.push(model);
                }
                SolveResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // x1⊕x2=1, x2⊕x3=0 has exactly 2 solutions over 3 variables.
        assert_eq!(cell.len(), 2);

        // Retiring the guard removes the hash layer *and* its blocking
        // clauses: the full space of 8 assignments is visible again.
        solver.retire_guard(guard);
        assert!(solver.is_consistent());
        let guard2 = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1], true), guard2);
        let mut second_cell = 0;
        loop {
            match solver.solve_under_assumptions(&[guard2.assumption()]) {
                SolveResult::Sat(model) => {
                    assert!(model.value(Var::from_dimacs(1)));
                    let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                    solver.add_clause_under(Clause::new(blocking), guard2);
                    second_cell += 1;
                }
                SolveResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // x1 = 1 leaves 4 of the 8 assignments.
        assert_eq!(second_cell, 4);
        solver.retire_guard(guard2);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.stats().guards_created, 2);
        assert_eq!(solver.stats().guards_retired, 2);
    }

    #[test]
    fn unsatisfiable_guarded_layer_stays_scoped() {
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let guard = solver.new_guard();
        // Contradictory layer: x1⊕x2 = 1 and x1⊕x2 = 0.
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([1, 2], false), guard);
        assert!(solver
            .solve_under_assumptions(&[guard.assumption()])
            .is_unsat());
        assert!(solver.is_consistent());
        solver.retire_guard(guard);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn guard_variables_do_not_leak_into_models() {
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let mut solver = Solver::from_formula(&f);
        let g = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1], true), g);
        assert_eq!(solver.num_base_vars(), 2);
        assert_eq!(solver.num_vars(), 3);
        let model = solver
            .solve_under_assumptions(&[g.assumption()])
            .model()
            .cloned()
            .expect("satisfiable");
        assert_eq!(model.len(), 2);
        assert!(f.evaluate(&model));
    }

    #[test]
    #[should_panic(expected = "past existing guard variables")]
    fn base_growth_past_guards_is_rejected() {
        let mut solver = Solver::new(2);
        let _guard = solver.new_guard();
        // Widening the base range would make models span the guard variable.
        solver.ensure_vars(4);
    }

    fn gauss_on_config() -> SolverConfig {
        SolverConfig {
            gauss: GaussMode::On,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn gauss_layer_lifecycle_builds_and_retires_matrices() {
        let f = dimacs::parse("p cnf 3 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, gauss_on_config());
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], false), guard);

        let mut cell = Vec::new();
        loop {
            match solver.solve_under_assumptions(&[guard.assumption()]) {
                SolveResult::Sat(model) => {
                    assert!(model.value(Var::from_dimacs(1)) ^ model.value(Var::from_dimacs(2)));
                    assert_eq!(
                        model.value(Var::from_dimacs(2)),
                        model.value(Var::from_dimacs(3))
                    );
                    let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                    solver.add_clause_under(Clause::new(blocking), guard);
                    cell.push(model);
                }
                SolveResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cell.len(), 2);
        assert_eq!(solver.stats().gauss_matrices, 1);
        assert_eq!(solver.stats().gauss_rows, 2);
        assert!(solver.stats().gauss_propagations > 0);
        assert_eq!(solver.gauss.num_matrices(), 1);

        // Retirement drops the matrix and the full space reopens.
        solver.retire_guard(guard);
        assert_eq!(solver.gauss.num_matrices(), 0);
        assert!(solver.is_consistent());
        let guard2 = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], false), guard2);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], true), guard2);
        let mut second = 0;
        loop {
            match solver.solve_under_assumptions(&[guard2.assumption()]) {
                SolveResult::Sat(model) => {
                    let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                    solver.add_clause_under(Clause::new(blocking), guard2);
                    second += 1;
                }
                SolveResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(second, 2);
    }

    #[test]
    fn gauss_layer_extended_across_solves_merges_into_one_matrix() {
        // Rows arriving in separate batches (with a solve in between) must
        // extend the guard's existing matrix, not build a second one or
        // fall back to the watched engine — and the stats must count one
        // matrix with the union of its rows.
        let f = dimacs::parse("p cnf 4 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, gauss_on_config());
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], false), guard);
        assert!(solver
            .solve_under_assumptions(&[guard.assumption()])
            .is_sat());
        // Second batch under the same guard: together with the first rows
        // it pins a single solution on x1..x4.
        solver.add_xor_under(XorClause::from_dimacs([3, 4], true), guard);
        solver.add_xor_under(XorClause::from_dimacs([1], true), guard);
        let model = solver
            .solve_under_assumptions(&[guard.assumption()])
            .model()
            .cloned()
            .expect("satisfiable");
        // x1 = 1, x1⊕x2 = 1 → x2 = 0, x2⊕x3 = 0 → x3 = 0, x3⊕x4 = 1 → x4 = 1.
        assert_eq!(model.values(), &[true, false, false, true]);
        assert_eq!(solver.stats().gauss_matrices, 1, "one matrix per guard");
        // The unit row became a guarded binary clause, the other three
        // merged into the guard's single matrix.
        assert_eq!(solver.stats().gauss_rows, 3);
        assert_eq!(solver.gauss.num_matrices(), 1);
        solver.retire_guard(guard);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn gauss_auto_threshold_counts_the_whole_layer() {
        // Two one-row batches under the same guard: each batch alone is
        // below the Auto threshold, but the layer as a whole is not, so the
        // second seal must compile a matrix rather than leaving the layer
        // permanently on the watched engine.
        let f = dimacs::parse("p cnf 3 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, SolverConfig::default());
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], true), guard);
        assert!(solver
            .solve_under_assumptions(&[guard.assumption()])
            .is_sat());
        assert_eq!(solver.stats().gauss_matrices, 0, "one row stays watched");
        solver.add_xor_under(XorClause::from_dimacs([2, 3], false), guard);
        assert!(solver
            .solve_under_assumptions(&[guard.assumption()])
            .is_sat());
        assert_eq!(
            solver.stats().gauss_matrices,
            1,
            "the two-row layer crosses the threshold"
        );
        solver.retire_guard(guard);
    }

    #[test]
    fn gauss_detects_cross_row_unsat_layer_as_unit_guard() {
        // x1⊕x2 = 0, x2⊕x3 = 0, x1⊕x3 = 1 sums to 0 = 1: no single row is
        // ever violated, only the combination. The matrix build reduces the
        // layer to the unit clause `g`.
        let f = dimacs::parse("p cnf 3 1\n1 2 3 0\n").unwrap();
        let mut solver = Solver::from_formula_with_config(&f, gauss_on_config());
        let guard = solver.new_guard();
        solver.add_xor_under(XorClause::from_dimacs([1, 2], false), guard);
        solver.add_xor_under(XorClause::from_dimacs([2, 3], false), guard);
        solver.add_xor_under(XorClause::from_dimacs([1, 3], true), guard);
        assert!(solver
            .solve_under_assumptions(&[guard.assumption()])
            .is_unsat());
        assert!(solver.is_consistent(), "layer UNSAT must stay scoped");
        solver.retire_guard(guard);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn gauss_and_watched_modes_enumerate_identical_cells() {
        let f = dimacs::parse("p cnf 4 2\n1 2 0\n-2 3 4 0\n").unwrap();
        let layers: Vec<Vec<XorClause>> = vec![
            vec![
                XorClause::from_dimacs([1, 2, 3], true),
                XorClause::from_dimacs([2, 4], false),
            ],
            vec![
                XorClause::from_dimacs([1, 4], true),
                XorClause::from_dimacs([1, 2, 3, 4], false),
                XorClause::from_dimacs([3, 4], true),
            ],
        ];
        let off = SolverConfig {
            gauss: GaussMode::Off,
            ..SolverConfig::default()
        };
        let mut gauss_solver = Solver::from_formula_with_config(&f, gauss_on_config());
        let mut watched_solver = Solver::from_formula_with_config(&f, off);
        for layer in &layers {
            let mut sets = Vec::new();
            for solver in [&mut gauss_solver, &mut watched_solver] {
                let guard = solver.new_guard();
                for xor in layer {
                    solver.add_xor_under(xor.clone(), guard);
                }
                let mut models = std::collections::BTreeSet::new();
                loop {
                    match solver.solve_under_assumptions(&[guard.assumption()]) {
                        SolveResult::Sat(model) => {
                            let blocking: Vec<Lit> = model.to_lits().iter().map(|&l| !l).collect();
                            solver.add_clause_under(Clause::new(blocking), guard);
                            models.insert(model.values().to_vec());
                        }
                        SolveResult::Unsat => break,
                        other => panic!("unexpected {other:?}"),
                    }
                }
                solver.retire_guard(guard);
                sets.push(models);
            }
            assert_eq!(sets[0], sets[1], "gauss and watched modes disagree");
        }
        assert!(gauss_solver.stats().gauss_matrices >= 2);
        assert_eq!(watched_solver.stats().gauss_matrices, 0);
    }

    #[test]
    fn construction_counter_counts_fresh_solvers_only() {
        let before = Solver::constructions_on_thread();
        let f = dimacs::parse("p cnf 2 1\n1 2 0\n").unwrap();
        let solver = Solver::from_formula(&f);
        let _clone = solver.clone();
        assert_eq!(Solver::constructions_on_thread(), before + 1);
    }
}
