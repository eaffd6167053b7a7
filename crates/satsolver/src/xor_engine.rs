//! Watched-variable propagation for xor constraints, with optional
//! activation guards.
//!
//! Each xor constraint `v_1 ⊕ … ⊕ v_k = rhs` watches two of its variables.
//! When a watched variable is assigned, the engine tries to move the watch to
//! another unassigned variable; if none exists the constraint has at most one
//! unassigned variable left, so it either implies a value for that variable
//! or — if everything is assigned — is checked for consistency.
//!
//! Because xor constraints are polarity-symmetric, watch lists are indexed by
//! *variable*, not by literal. Reason and conflict clauses are generated
//! lazily from the current assignment (the disjunction of the falsified
//! literals of the other variables), which lets xor constraints participate
//! in standard first-UIP conflict analysis without being expanded to CNF.
//!
//! # Guards
//!
//! A constraint may carry a *guard literal* `g`, in which case it represents
//! the clause set of `g ∨ (v_1 ⊕ … ⊕ v_k = rhs)`: the constraint is **active**
//! while `g` is false (the solver assumes `¬g`), **dormant** while `g` is
//! true, and **pending** while `g` is unassigned. Reason and conflict clauses
//! of an active guarded constraint include `g`, so learned clauses derived
//! from it are automatically tagged with the guard and become satisfied (and
//! removable) once the guard is retired by asserting `g`. This is what lets
//! one solver instance serve every hash cell of a sampling run without ever
//! unlearning base-formula knowledge.
//!
//! # Watch lists and freezing
//!
//! A constraint's watch state is its stored `watch` pair; the per-variable
//! lists only index it. A list may hold stale entries (a constraint whose
//! watch has moved on, or a retired one), which `on_assign` drops as it
//! walks the list, compacting it in place. So the lists can be thrown away
//! and rebuilt from the stored pairs plus each guard at any quiet point:
//! [`XorEngine::freeze_watches`] drops them for a prepared solver that is
//! kept only to be cloned, and [`XorEngine::thaw_watches`] rebuilds them,
//! in constraint order, before the solver next propagates or adds a
//! constraint. A frozen engine must not be used in between.

use std::collections::HashMap;

use unigen_cnf::{Lit, Var, XorClause};

/// Index of an xor constraint inside the [`XorEngine`].
pub(crate) type XorRef = u32;

/// Outcome of propagating an assignment through the xor constraints that
/// watch the assigned variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum XorPropagation {
    /// The constraint forces `lit` to be true (for a guarded constraint this
    /// can be the guard literal itself, when the parity is already violated).
    Implied {
        /// The implied literal.
        lit: Lit,
        /// The constraint that implies it.
        xref: XorRef,
    },
    /// The constraint is violated by the current (total on its variables)
    /// assignment.
    Conflict {
        /// The violated constraint.
        xref: XorRef,
    },
}

/// Assignment-state of one constraint's parity part (guard not considered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum XorState {
    /// Two or more variables are unassigned.
    Open,
    /// Exactly one variable is unassigned; the literal makes the parity hold.
    Implied(Lit),
    /// All variables are assigned and the parity holds.
    Satisfied,
    /// All variables are assigned and the parity is violated.
    Violated,
}

/// A stored xor constraint.
#[derive(Debug, Clone)]
pub(crate) struct StoredXor {
    vars: Vec<Var>,
    rhs: bool,
    /// Indices (into `vars`) of the two watched variables.
    watch: [usize; 2],
    /// Guard literal: the constraint is active only while this is false.
    guard: Option<Lit>,
    /// Retired constraints are skipped and their slot is reused.
    retired: bool,
}

/// The xor constraint store plus per-variable watch lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct XorEngine {
    xors: Vec<StoredXor>,
    /// `watches[var.index()]` lists the constraints watching `var` (including
    /// guard variables, which are watched permanently).
    watches: Vec<Vec<XorRef>>,
    /// Constraints indexed by their guard variable, for retirement.
    by_guard: HashMap<u32, Vec<XorRef>>,
    /// Slots of retired constraints, reused by subsequent `add` calls.
    free: Vec<XorRef>,
}

/// Result of adding an xor constraint to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AddXor {
    /// Constraint stored and watched normally.
    Stored(XorRef),
    /// The constraint reduces to a unit assignment `var = value`.
    Unit(Var, bool),
    /// The constraint is trivially satisfied (empty, rhs = 0).
    Tautology,
    /// The constraint is trivially unsatisfiable (empty, rhs = 1).
    Unsatisfiable,
}

impl XorEngine {
    pub(crate) fn new(num_vars: usize) -> Self {
        XorEngine {
            xors: Vec::new(),
            watches: vec![Vec::new(); num_vars],
            by_guard: HashMap::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        if self.watches.len() < num_vars {
            self.watches.resize(num_vars, Vec::new());
        }
    }

    /// Adds a normalised xor constraint, optionally guarded by `guard` (a
    /// literal whose truth disables the constraint). Degenerate constraints
    /// are reported to the caller, who decides how to combine them with the
    /// guard.
    pub(crate) fn add(&mut self, xor: &XorClause, guard: Option<Lit>) -> AddXor {
        match xor.len() {
            0 => {
                if xor.rhs() {
                    AddXor::Unsatisfiable
                } else {
                    AddXor::Tautology
                }
            }
            1 => AddXor::Unit(xor.vars()[0], xor.rhs()),
            _ => {
                let vars = xor.vars().to_vec();
                debug_assert!(
                    guard.map_or(true, |g| !vars.contains(&g.var())),
                    "guard variable must not occur in the constraint"
                );
                // Callers may introduce variables (fresh guards in
                // particular) beyond the construction-time bound; grow the
                // watch lists rather than indexing past them.
                let needed = vars
                    .iter()
                    .map(|v| v.index())
                    .chain(guard.map(|g| g.var().index()))
                    .max()
                    .map_or(0, |max| max + 1);
                self.grow_to(needed);
                let stored = StoredXor {
                    vars,
                    rhs: xor.rhs(),
                    watch: [0, 1],
                    guard,
                    retired: false,
                };
                let xref = match self.free.pop() {
                    Some(slot) => {
                        self.xors[slot as usize] = stored;
                        slot
                    }
                    None => {
                        self.xors.push(stored);
                        (self.xors.len() - 1) as XorRef
                    }
                };
                let xor = &self.xors[xref as usize];
                self.watches[xor.vars[0].index()].push(xref);
                self.watches[xor.vars[1].index()].push(xref);
                if let Some(g) = guard {
                    self.watches[g.var().index()].push(xref);
                    self.by_guard
                        .entry(g.var().index() as u32)
                        .or_default()
                        .push(xref);
                }
                AddXor::Stored(xref)
            }
        }
    }

    /// Moves both watches of `xref` onto unassigned variables where possible
    /// (called right after `add` when some variables are already assigned, so
    /// the two-watch invariant holds from the start).
    pub(crate) fn position_watches<F>(&mut self, xref: XorRef, value_of: F)
    where
        F: Fn(Var) -> Option<bool>,
    {
        let xor = &mut self.xors[xref as usize];
        let mut unassigned = xor
            .vars
            .iter()
            .enumerate()
            .filter(|&(_, &v)| value_of(v).is_none())
            .map(|(i, _)| i);
        let first = unassigned.next();
        let second = unassigned.next();
        let new_watch = match (first, second) {
            (Some(a), Some(b)) => [a, b],
            (Some(a), None) => [a, if a == 0 { 1 } else { 0 }],
            _ => return,
        };
        let old_watch = xor.watch;
        if (old_watch[0] == new_watch[0] && old_watch[1] == new_watch[1])
            || (old_watch[0] == new_watch[1] && old_watch[1] == new_watch[0])
        {
            return;
        }
        let old_vars = [xor.vars[old_watch[0]], xor.vars[old_watch[1]]];
        let new_vars = [xor.vars[new_watch[0]], xor.vars[new_watch[1]]];
        xor.watch = new_watch;
        for v in old_vars {
            self.watches[v.index()].retain(|&x| x != xref);
        }
        for v in new_vars {
            self.watches[v.index()].push(xref);
        }
    }

    /// Examines the parity part of a constraint under the current assignment
    /// (the guard is *not* consulted).
    pub(crate) fn probe<F>(&self, xref: XorRef, value_of: F) -> XorState
    where
        F: Fn(Var) -> Option<bool>,
    {
        let xor = &self.xors[xref as usize];
        let mut parity = false;
        let mut unassigned: Option<Var> = None;
        for &v in &xor.vars {
            match value_of(v) {
                Some(value) => parity ^= value,
                None => {
                    if unassigned.is_some() {
                        return XorState::Open;
                    }
                    unassigned = Some(v);
                }
            }
        }
        match unassigned {
            Some(v) => XorState::Implied(v.lit(xor.rhs ^ parity)),
            None if parity == xor.rhs => XorState::Satisfied,
            None => XorState::Violated,
        }
    }

    /// Drops every watch list, the outer vector included.
    pub(crate) fn freeze_watches(&mut self) {
        self.watches = Vec::new();
    }

    /// Rebuilds the watch lists over `num_vars` variables from each live
    /// constraint's stored watch pair and guard.
    pub(crate) fn thaw_watches(&mut self, num_vars: usize) {
        for list in &mut self.watches {
            list.clear();
        }
        self.watches.resize(num_vars, Vec::new());
        for (xref, xor) in self.xors.iter().enumerate() {
            if xor.retired {
                continue;
            }
            let watched = xor.watch.iter().map(|&i| xor.vars[i]);
            for v in watched.chain(xor.guard.map(|g| g.var())) {
                self.watches[v.index()].push(xref as XorRef);
            }
        }
    }

    /// Processes the assignment of `var`, updating watches and reporting any
    /// implication or conflict discovered.
    ///
    /// `value_of` must report the current partial assignment. At most one
    /// implication/conflict is returned per call per constraint; the caller
    /// enqueues implied literals and calls back in for subsequently assigned
    /// variables, exactly as with CNF watch lists.
    pub(crate) fn on_assign<F>(&mut self, var: Var, value_of: F, results: &mut Vec<XorPropagation>)
    where
        F: Fn(Var) -> Option<bool>,
    {
        // Walk the list with the two-pointer copy-back of the clause
        // engine: entries that stay are compacted to the front, and moved or
        // stale ones are dropped. A watch only ever moves to an unassigned
        // variable other than `var`, so nothing is pushed onto `var`'s own
        // list meanwhile, and the compacted list goes back as it is.
        let mut watching = std::mem::take(&mut self.watches[var.index()]);
        let mut kept = 0;
        for i in 0..watching.len() {
            let xref = watching[i];
            if self.visit(xref, var, &value_of, results) {
                watching[kept] = xref;
                kept += 1;
            }
        }
        watching.truncate(kept);
        debug_assert!(self.watches[var.index()].is_empty());
        self.watches[var.index()] = watching;
    }

    /// Handles one entry of `var`'s watch list after `var` was assigned.
    /// Returns whether the entry stays on the list.
    fn visit<F>(
        &mut self,
        xref: XorRef,
        var: Var,
        value_of: &F,
        results: &mut Vec<XorPropagation>,
    ) -> bool
    where
        F: Fn(Var) -> Option<bool>,
    {
        let xor = &mut self.xors[xref as usize];
        if xor.retired {
            // Stale entry for a retired constraint; drop it.
            return false;
        }
        // A guard's watch is permanent: its assignment may just have
        // activated the constraint, which is then probed as it stands.
        let guard_event = xor.guard.is_some_and(|g| g.var() == var);
        if !guard_event {
            // Which watch slot does `var` occupy?
            let slot = if xor.vars[xor.watch[0]] == var {
                0
            } else if xor.vars[xor.watch[1]] == var {
                1
            } else {
                // Stale entry (watch was moved elsewhere); drop it.
                return false;
            };
            let other = xor.watch[1 - slot];
            // Try to move this watch to an unassigned, unwatched variable.
            let replacement = xor
                .vars
                .iter()
                .enumerate()
                .find(|&(i, &v)| i != other && i != xor.watch[slot] && value_of(v).is_none())
                .map(|(i, _)| i);
            if let Some(new_index) = replacement {
                xor.watch[slot] = new_index;
                let new_var = xor.vars[new_index];
                self.watches[new_var.index()].push(xref);
                // The watch has moved away from `var`.
                return false;
            }
            // No replacement: every variable except possibly the other
            // watched one is assigned. Keep watching `var` so the
            // constraint is revisited after backtracking.
        }
        // How the guard gates the outcome: `None` ≡ unguarded (always
        // active), else the guard literal and its value.
        let gate = xor
            .guard
            .map(|g| (g, value_of(g.var()).map(|v| g.evaluate(v))));
        let active = matches!(gate, None | Some((_, Some(false))));
        if guard_event && !active {
            // The guard was asserted: the constraint is dormant.
            return true;
        }
        match self.probe(xref, value_of) {
            XorState::Implied(lit) if active => {
                results.push(XorPropagation::Implied { lit, xref });
            }
            XorState::Violated if active => {
                results.push(XorPropagation::Conflict { xref });
            }
            // Guard unassigned: the clause `g ∨ lits` is unit on the guard,
            // so the guard is implied.
            XorState::Violated => {
                if let Some((g, None)) = gate {
                    results.push(XorPropagation::Implied { lit: g, xref });
                }
            }
            // Open, satisfied, or an implication the unassigned or true
            // guard still blocks (`g ∨ …` keeps two non-false literals).
            _ => {}
        }
        true
    }

    /// Returns the reason literals for `implied` being forced by constraint
    /// `xref`: the falsified literals of every other variable of the
    /// constraint, plus the (falsified) guard literal if the constraint is
    /// guarded. Together with `implied` they form a clause entailed by the
    /// (guarded) constraint under the current assignment.
    ///
    /// When `implied` *is* the guard literal, the reason is the falsified
    /// literal of every constraint variable.
    pub(crate) fn reason_lits<F>(&self, xref: XorRef, implied: Lit, value_of: F) -> Vec<Lit>
    where
        F: Fn(Var) -> Option<bool>,
    {
        let xor = &self.xors[xref as usize];
        if xor.guard == Some(implied) {
            return falsified(xor.vars.iter().copied(), &value_of);
        }
        let others = xor.vars.iter().copied().filter(|&v| v != implied.var());
        let mut lits = falsified(others, &value_of);
        if let Some(g) = xor.guard {
            debug_assert_eq!(
                value_of(g.var()).map(|v| g.evaluate(v)),
                Some(false),
                "a guarded constraint only implies literals while active"
            );
            lits.push(g);
        }
        lits
    }

    /// Returns the conflict literals for a violated constraint: the falsified
    /// literals of *all* of its variables, plus the (falsified) guard literal
    /// if the constraint is guarded.
    pub(crate) fn conflict_lits<F>(&self, xref: XorRef, value_of: F) -> Vec<Lit>
    where
        F: Fn(Var) -> Option<bool>,
    {
        let xor = &self.xors[xref as usize];
        let mut lits = falsified(xor.vars.iter().copied(), &value_of);
        if let Some(g) = xor.guard {
            lits.push(g);
        }
        lits
    }

    /// Retires every constraint guarded by `guard_var`: the constraints stop
    /// propagating, their memory is released, and their slots are reused by
    /// later `add` calls. Returns the number of constraints retired.
    ///
    /// Watch entries of the retired constraints are purged exhaustively: a
    /// slot handed back out by a later `add` must never be resolved through
    /// a stale entry left behind for its previous occupant. An entry for a
    /// constraint is only ever pushed onto the lists of the constraint's
    /// own variables and its guard (see `add`, `position_watches` and
    /// `on_assign`), so sweeping exactly those lists covers every possible
    /// stale entry — including ones whose watch slot no longer points at
    /// them — without walking the whole engine.
    pub(crate) fn retire(&mut self, guard_var: Var) -> usize {
        let Some(refs) = self.by_guard.remove(&(guard_var.index() as u32)) else {
            return 0;
        };
        for &xref in &refs {
            let xor = &mut self.xors[xref as usize];
            debug_assert!(!xor.retired, "constraint retired twice");
            xor.retired = true;
            for v in std::mem::take(&mut xor.vars) {
                self.watches[v.index()].retain(|&x| x != xref);
            }
        }
        self.watches[guard_var.index()].retain(|x| !refs.contains(x));
        self.free.extend(refs.iter().copied());
        refs.len()
    }
}

/// The literal of each of `vars` that the current assignment falsifies.
/// Every variable must be assigned.
fn falsified<F>(vars: impl Iterator<Item = Var>, value_of: &F) -> Vec<Lit>
where
    F: Fn(Var) -> Option<bool>,
{
    vars.filter_map(|v| {
        let value = value_of(v);
        debug_assert!(
            value.is_some(),
            "reason and conflict variables must be assigned"
        );
        value.map(|value| v.lit(!value))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn value_fn(map: &HashMap<Var, bool>) -> impl Fn(Var) -> Option<bool> + '_ {
        move |v| map.get(&v).copied()
    }

    #[test]
    fn add_classifies_degenerate_constraints() {
        let mut engine = XorEngine::new(4);
        assert_eq!(
            engine.add(&XorClause::new([], false), None),
            AddXor::Tautology
        );
        assert_eq!(
            engine.add(&XorClause::new([], true), None),
            AddXor::Unsatisfiable
        );
        assert_eq!(
            engine.add(&XorClause::new([Var::new(2)], true), None),
            AddXor::Unit(Var::new(2), true)
        );
        assert!(matches!(
            engine.add(&XorClause::from_dimacs([1, 2], true), None),
            AddXor::Stored(_)
        ));
    }

    #[test]
    fn watch_moves_to_unassigned_variable() {
        let mut engine = XorEngine::new(4);
        engine.add(&XorClause::from_dimacs([1, 2, 3], true), None);
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        assert!(
            results.is_empty(),
            "two unassigned vars remain, no implication"
        );
    }

    #[test]
    fn propagates_last_unassigned_variable() {
        let mut engine = XorEngine::new(4);
        engine.add(&XorClause::from_dimacs([1, 2, 3], true), None);
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        results.clear();

        assigned.insert(Var::from_dimacs(3), true);
        engine.on_assign(Var::from_dimacs(3), value_fn(&assigned), &mut results);
        // x1 ⊕ x2 ⊕ x3 = 1 with x1 = x3 = 1 forces x2 = 1.
        assert_eq!(results.len(), 1);
        match &results[0] {
            XorPropagation::Implied { lit, .. } => {
                assert_eq!(*lit, Var::from_dimacs(2).positive());
            }
            other => panic!("expected implication, got {other:?}"),
        }
    }

    #[test]
    fn detects_conflict_when_fully_assigned() {
        let mut engine = XorEngine::new(3);
        engine.add(&XorClause::from_dimacs([1, 2], true), None);
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        results.clear();
        // Now assign x2 = 1 (violating x1 ⊕ x2 = 1).
        assigned.insert(Var::from_dimacs(2), true);
        engine.on_assign(Var::from_dimacs(2), value_fn(&assigned), &mut results);
        assert!(matches!(results[0], XorPropagation::Conflict { .. }));
    }

    #[test]
    fn reason_lits_are_falsified_other_literals() {
        let mut engine = XorEngine::new(4);
        let xref = match engine.add(&XorClause::from_dimacs([1, 2, 3], false), None) {
            AddXor::Stored(xref) => xref,
            other => panic!("unexpected {other:?}"),
        };
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        assigned.insert(Var::from_dimacs(3), false);
        // x1 ⊕ x2 ⊕ x3 = 0 with x1=1, x3=0 forces x2=1.
        let implied = Var::from_dimacs(2).positive();
        let reason = engine.reason_lits(xref, implied, value_fn(&assigned));
        // Reason literals: ¬x1 (false) and x3 (false) — both currently false.
        assert_eq!(reason.len(), 2);
        assert!(reason.contains(&Var::from_dimacs(1).negative()));
        assert!(reason.contains(&Var::from_dimacs(3).positive()));
    }

    #[test]
    fn conflict_lits_cover_every_variable() {
        let mut engine = XorEngine::new(3);
        let xref = match engine.add(&XorClause::from_dimacs([1, 2], true), None) {
            AddXor::Stored(xref) => xref,
            other => panic!("unexpected {other:?}"),
        };
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), false);
        assigned.insert(Var::from_dimacs(2), false);
        let lits = engine.conflict_lits(xref, value_fn(&assigned));
        assert_eq!(lits.len(), 2);
        // Both variables are false, so the falsified literals are positive.
        assert!(lits.contains(&Var::from_dimacs(1).positive()));
        assert!(lits.contains(&Var::from_dimacs(2).positive()));
    }

    #[test]
    fn dormant_guarded_constraint_does_not_propagate() {
        let mut engine = XorEngine::new(4);
        let guard = Var::new(3).positive();
        engine.add(&XorClause::from_dimacs([1, 2], true), Some(guard));
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        // Guard unassigned: x2 would be implied were the constraint active,
        // but the clause g ∨ … still has two non-false literals.
        assert!(results.is_empty());
    }

    #[test]
    fn activating_a_guard_fires_pending_implications() {
        let mut engine = XorEngine::new(4);
        let guard = Var::new(3).positive();
        let xref = match engine.add(&XorClause::from_dimacs([1, 2], true), Some(guard)) {
            AddXor::Stored(xref) => xref,
            other => panic!("unexpected {other:?}"),
        };
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
        // Assume ¬g: the constraint activates and implies x2 = 0.
        assigned.insert(Var::new(3), false);
        engine.on_assign(Var::new(3), value_fn(&assigned), &mut results);
        assert_eq!(
            results,
            vec![XorPropagation::Implied {
                lit: Var::from_dimacs(2).negative(),
                xref
            }]
        );
        // The reason for the implication includes the guard literal.
        let reason = engine.reason_lits(xref, Var::from_dimacs(2).negative(), value_fn(&assigned));
        assert!(reason.contains(&guard));
    }

    #[test]
    fn violated_guarded_constraint_implies_its_guard() {
        let mut engine = XorEngine::new(4);
        let guard = Var::new(3).positive();
        let xref = match engine.add(&XorClause::from_dimacs([1, 2], true), Some(guard)) {
            AddXor::Stored(xref) => xref,
            other => panic!("unexpected {other:?}"),
        };
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        results.clear();
        // x1 = x2 = 1 violates the parity; with g unassigned the clause
        // g ∨ lits is unit on the guard.
        assigned.insert(Var::from_dimacs(2), true);
        engine.on_assign(Var::from_dimacs(2), value_fn(&assigned), &mut results);
        assert_eq!(results, vec![XorPropagation::Implied { lit: guard, xref }]);
        let reason = engine.reason_lits(xref, guard, value_fn(&assigned));
        assert_eq!(reason.len(), 2);
    }

    #[test]
    fn retirement_silences_and_reuses_slots() {
        let mut engine = XorEngine::new(5);
        let guard = Var::new(4).positive();
        let xref = match engine.add(&XorClause::from_dimacs([1, 2, 3], true), Some(guard)) {
            AddXor::Stored(xref) => xref,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(engine.retire(Var::new(4)), 1);
        // Retired constraints no longer propagate.
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        assigned.insert(Var::from_dimacs(2), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        engine.on_assign(Var::from_dimacs(2), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
        // The slot is reused by the next add.
        let reused = match engine.add(&XorClause::from_dimacs([1, 2], false), None) {
            AddXor::Stored(x) => x,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reused, xref);
    }

    #[test]
    fn slot_reuse_after_watch_moves_does_not_inherit_stale_watches() {
        // Regression test: drive a guarded constraint's watches around the
        // variable set, retire it, and reuse its slot for a constraint over
        // the *same* variables. No watch entry of the old constraint may
        // survive to fire (or double-fire) against the new occupant.
        let mut engine = XorEngine::new(6);
        let guard = Var::new(5).positive();
        let xref = match engine.add(&XorClause::from_dimacs([1, 2, 3, 4], true), Some(guard)) {
            AddXor::Stored(x) => x,
            other => panic!("unexpected {other:?}"),
        };
        // Move one watch off x1 by assigning it.
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        assert!(results.is_empty());

        // Retire (with the moved watches still in place) and re-add over
        // the same variables, reusing the slot.
        assert_eq!(engine.retire(Var::new(5)), 1);
        let reused = match engine.add(&XorClause::from_dimacs([1, 2], false), None) {
            AddXor::Stored(x) => x,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reused, xref, "slot must be reused");

        // Unassign everything and drive the new constraint: x1 = 1 forces
        // x2 = 1 (parity 0). The old 4-variable constraint must contribute
        // nothing — in particular no event from x3/x4 watch lists.
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        assert_eq!(
            results,
            vec![XorPropagation::Implied {
                lit: Var::from_dimacs(2).positive(),
                xref: reused
            }]
        );
        results.clear();
        assigned.insert(Var::from_dimacs(3), false);
        assigned.insert(Var::from_dimacs(4), false);
        engine.on_assign(Var::from_dimacs(3), value_fn(&assigned), &mut results);
        engine.on_assign(Var::from_dimacs(4), value_fn(&assigned), &mut results);
        assert!(results.is_empty(), "stale refs fired: {results:?}");
    }

    #[test]
    fn add_grows_watch_lists_for_variables_beyond_construction_bound() {
        // Regression test: a guard variable allocated mid-run can exceed the
        // engine's construction-time variable count; `add` must grow the
        // watch lists instead of indexing out of bounds.
        let mut engine = XorEngine::new(2);
        let guard = Var::new(7).positive();
        let xref = match engine.add(&XorClause::from_dimacs([1, 2], true), Some(guard)) {
            AddXor::Stored(x) => x,
            other => panic!("unexpected {other:?}"),
        };
        // Activating the guard propagates through the grown lists.
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(1), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
        assigned.insert(Var::new(7), false);
        engine.on_assign(Var::new(7), value_fn(&assigned), &mut results);
        assert_eq!(
            results,
            vec![XorPropagation::Implied {
                lit: Var::from_dimacs(2).negative(),
                xref
            }]
        );
        // Retirement across the grown range works too.
        assert_eq!(engine.retire(Var::new(7)), 1);
    }

    #[test]
    fn add_grows_watch_lists_for_constraint_variables_too() {
        let mut engine = XorEngine::new(1);
        assert!(matches!(
            engine.add(&XorClause::from_dimacs([5, 9], true), None),
            AddXor::Stored(_)
        ));
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(5), false);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(5), value_fn(&assigned), &mut results);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn position_watches_prefers_unassigned_variables() {
        let mut engine = XorEngine::new(5);
        let xref = match engine.add(&XorClause::from_dimacs([1, 2, 3, 4], true), None) {
            AddXor::Stored(x) => x,
            other => panic!("unexpected {other:?}"),
        };
        let mut assigned = HashMap::new();
        assigned.insert(Var::from_dimacs(1), true);
        assigned.insert(Var::from_dimacs(2), false);
        engine.position_watches(xref, value_fn(&assigned));
        // Watches moved off the assigned vars 1 and 2 onto 3 and 4: assigning
        // 3 now triggers an event that finds no replacement and implies 4.
        assigned.insert(Var::from_dimacs(3), false);
        let mut results = Vec::new();
        engine.on_assign(Var::from_dimacs(3), value_fn(&assigned), &mut results);
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0],
            XorPropagation::Implied { lit, .. } if lit.var() == Var::from_dimacs(4)
        ));
    }
}
