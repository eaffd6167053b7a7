//! Gauss–Jordan elimination over guarded xor layers.
//!
//! The watched-variable engine in [`crate::xor_engine`] propagates each xor
//! constraint in isolation: it discovers an implied literal or a conflict
//! only when a *single* row has at most one unassigned variable left. Random
//! hash layers, however, routinely entail units and conflicts through
//! *combinations* of rows (`x⊕y = 0` and `x⊕y⊕z = 1` imply `z` long before
//! either row is unit on its own). CryptoMiniSAT — the solver behind the
//! experiments of the UniGen paper (DAC 2014) and its CAV 2013 predecessor —
//! recovers those through Gaussian elimination; this module brings the same
//! capability to the guarded hash layers here.
//!
//! # Data structure
//!
//! One dense bit matrix per activation guard, built from the guard's xor
//! rows when the layer is *sealed* (first solve after the rows were added).
//! Columns are the variables occurring in the layer — for a hash layer that
//! is a subset of the sampling set — packed into `u64` words; each row also
//! carries its parity bit. The matrix is kept in **reduced row-echelon
//! form**: every row owns a *basic* column that occurs in no other row.
//!
//! # Propagation (the "simplex way")
//!
//! Following Han & Jiang (CAV 2012) and CryptoMiniSAT's `EGaussian`, the
//! matrix reacts to variable assignments:
//!
//! * when a row's **basic** variable is assigned, the row re-pivots onto one
//!   of its unassigned columns and that column is eliminated from every
//!   other row (actual row xors — this is where cross-row reasoning
//!   happens dynamically);
//! * every row with at most one unassigned variable then yields an implied
//!   literal, a conflict, or — when the guard is still unassigned — an
//!   implication of the guard itself (the clause `g ∨ row` is unit on `g`).
//!
//! Because each not-fully-assigned row keeps a *distinct unassigned* basic
//! variable, any unit or conflicting linear combination of two or more rows
//! would contain at least two unassigned variables — so checking rows
//! individually is complete: the matrix propagates everything Gauss–Jordan
//! elimination under the current assignment could derive.
//!
//! # Why backtracking needs no undo hook
//!
//! Row operations are equivalence transformations of the linear system and
//! are valid under *any* assignment, so the matrix is never rolled back.
//! The basic-column bookkeeping is conservative: a basic variable that was
//! assigned (and could not be replaced because its row was fully assigned)
//! becomes a valid pivot again the moment backtracking unassigns it. The
//! only per-assignment state — implication *reasons* — is captured eagerly
//! as literal vectors at propagation time, exactly because later row
//! operations may rewrite the row that justified an earlier implication.
//! Reasons are keyed by the implied variable and stay valid until the
//! variable leaves the trail, after which they are overwritten by the next
//! implication of that variable.
//!
//! # Dispatch
//!
//! The solver hands every propagated literal to [`GaussEngine::on_assign`],
//! and on most of them no matrix has anything to do. A dense flag, one byte
//! per variable, is set exactly while some matrix has the variable as a
//! column or as its guard; `build` and `drop_matrix` keep it so by
//! recomputing it from the column and matrix maps for every variable they
//! touch. An unflagged literal costs one indexed load, and only a flagged
//! one reaches the maps.

use std::collections::{HashMap, HashSet};

use unigen_cnf::{Lit, Var, XorClause};

/// A guard's key: the index of its activation variable.
pub(crate) type GuardKey = u32;

/// Outcome of compiling a layer's rows into a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildOutcome {
    /// The matrix is installed and may propagate.
    Built {
        /// Number of (non-redundant) rows this call added to the matrix.
        added: usize,
        /// `true` if this call created the matrix (as opposed to merging
        /// more rows into an existing one) — the stats count each matrix
        /// once.
        fresh: bool,
    },
    /// The rows are jointly unsatisfiable (some combination reduces to
    /// `0 = 1`): the caller must assert the guard's disable literal — the
    /// guarded layer contributes exactly the unit clause `g`.
    LayerUnsat,
}

/// One propagation event discovered by a matrix scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GaussResult {
    /// Some row forces `lit`; `reason` holds the antecedent literals (all
    /// currently false). `lit` may be the guard's disable literal when a
    /// row is violated while the guard is still unassigned. The solver
    /// stores the reason (via [`GaussEngine::store_reason`]) only for the
    /// implication it actually enqueues, so a later event can never
    /// clobber the justification of an assignment already on the trail.
    Implied {
        /// The implied literal.
        lit: Lit,
        /// The antecedent literals justifying `lit`.
        reason: Vec<Lit>,
    },
    /// A row of an *active* guard is violated by the current assignment;
    /// the conflict clause was stored and is retrieved with
    /// [`GaussEngine::conflict_lits`].
    Conflict,
}

/// A row the matrix derived as a GF(2) sum of two or more original xor
/// rows, recorded for proof logging: implication/conflict *reasons* come
/// from the **reduced** rows, which are linear combinations of the logged
/// originals and therefore not RUP-checkable over their expansions alone.
/// Each derive names the exact original row ids whose sum it is, so the
/// checker can verify the combination symbolically and install the derived
/// row's expansion before any clause that depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowDerive {
    /// The guard variable owning the matrix.
    pub(crate) guard: Var,
    /// Variables of the derived row (empty for the `0 = 1` layer-unsat
    /// combination).
    pub(crate) vars: Vec<Var>,
    /// Parity of the derived row.
    pub(crate) rhs: bool,
    /// Proof-stream ids of the original rows summed.
    pub(crate) from: Vec<u64>,
}

/// One row: column bitset plus parity, owning one basic column.
#[derive(Debug, Clone)]
struct Row {
    bits: Vec<u64>,
    rhs: bool,
    /// Column index of this row's basic variable.
    basic: usize,
    /// Provenance bitset over the matrix's inserted originals: bit `i` set
    /// means original `origin_ids[i]` participates in the GF(2) sum that
    /// produced this row. Maintained by every row operation alongside
    /// `bits`/`rhs`, so combo ↔ row content stays 1:1. Empty when proof
    /// tracking is off.
    combo: Vec<u64>,
}

impl Row {
    fn get(&self, col: usize) -> bool {
        self.bits[col / 64] >> (col % 64) & 1 != 0
    }

    fn xor_in(&mut self, other: &Row) {
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w ^= o;
        }
        self.rhs ^= other.rhs;
        for (w, o) in self.combo.iter_mut().zip(&other.combo) {
            *w ^= o;
        }
    }

    /// Iterates the set columns of the row.
    fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Per-guard dense matrix in reduced row-echelon form.
#[derive(Debug, Clone)]
struct GaussMatrix {
    /// The guard's disable literal `g`; the layer is active while `g` is
    /// false.
    guard: Lit,
    /// Column index → variable.
    cols: Vec<Var>,
    /// Variable index → column index.
    col_of: HashMap<u32, usize>,
    words: usize,
    rows: Vec<Row>,
    /// Proof-stream id of each original row inserted into this matrix, in
    /// insertion order (combo bit `i` ↔ `origin_ids[i]`). Empty when proof
    /// tracking is off.
    origin_ids: Vec<u64>,
    /// Width of every row's `combo` bitset, in words.
    combo_words: usize,
}

/// What a row looks like under the current partial assignment.
struct RowState {
    unassigned: usize,
    /// Some unassigned column of the row (meaningful when `unassigned == 1`).
    unassigned_col: usize,
    /// Parity of the assigned variables' values.
    parity: bool,
}

impl GaussMatrix {
    fn new(guard: Lit) -> Self {
        GaussMatrix {
            guard,
            cols: Vec::new(),
            col_of: HashMap::new(),
            words: 0,
            rows: Vec::new(),
            origin_ids: Vec::new(),
            combo_words: 0,
        }
    }

    /// Registers `var` as a column, growing every row's bitset as needed.
    /// Returns the column index and whether the column is new.
    fn intern_col(&mut self, var: Var) -> (usize, bool) {
        if let Some(&c) = self.col_of.get(&(var.index() as u32)) {
            return (c, false);
        }
        let c = self.cols.len();
        self.cols.push(var);
        self.col_of.insert(var.index() as u32, c);
        let words = c / 64 + 1;
        if words > self.words {
            self.words = words;
            for row in &mut self.rows {
                row.bits.resize(words, 0);
            }
        }
        (c, true)
    }

    /// Reduces a fresh xor row against the matrix and inserts it, keeping
    /// the reduced row-echelon invariant. Returns the variables of any
    /// newly created columns, `Ok(false)` if the row was redundant,
    /// `Ok(true)` if it was inserted, and `Err(from)` if it reduced to
    /// `0 = 1` (the layer is unsatisfiable) — `from` names the proof ids of
    /// the original rows whose sum is the contradiction (empty when proof
    /// tracking is off).
    ///
    /// `origin` is the row's proof-stream id (0 = tracking off).
    /// `row_ops` counts the elimination xors performed.
    fn insert_row(
        &mut self,
        xor: &XorClause,
        origin: u64,
        value_of: impl Fn(Var) -> Option<bool>,
        new_cols: &mut Vec<Var>,
        row_ops: &mut u64,
    ) -> Result<bool, Vec<u64>> {
        for &v in xor.vars() {
            let (_, fresh) = self.intern_col(v);
            if fresh {
                new_cols.push(v);
            }
        }
        let mut combo = Vec::new();
        if origin != 0 {
            self.origin_ids.push(origin);
            let words = self.origin_ids.len().div_ceil(64);
            if words > self.combo_words {
                self.combo_words = words;
                for row in &mut self.rows {
                    row.combo.resize(words, 0);
                }
            }
            combo = vec![0; self.combo_words];
            let bit = self.origin_ids.len() - 1;
            combo[bit / 64] |= 1 << (bit % 64);
        }
        let mut row = Row {
            bits: vec![0; self.words],
            rhs: xor.rhs(),
            basic: 0,
            combo,
        };
        for &v in xor.vars() {
            let c = self.col_of[&(v.index() as u32)];
            row.bits[c / 64] ^= 1 << (c % 64);
        }
        // Eliminate existing basic columns from the new row.
        for existing in &self.rows {
            if row.get(existing.basic) {
                row.xor_in(existing);
                *row_ops += 1;
            }
        }
        let Some(first) = row.cols().next() else {
            // A zero row: redundant, or `0 = 1`.
            return if row.rhs {
                Err(self.origins_of(&row.combo))
            } else {
                Ok(false)
            };
        };
        // Pick a basic column, preferring an unassigned variable so the
        // row starts out obeying the propagation invariant.
        let basic = row
            .cols()
            .find(|&c| value_of(self.cols[c]).is_none())
            .unwrap_or(first);
        row.basic = basic;
        // Jordan step: clear the new basic column from every other row.
        for existing in &mut self.rows {
            if existing.get(basic) {
                existing.xor_in(&row);
                *row_ops += 1;
            }
        }
        self.rows.push(row);
        Ok(true)
    }

    /// Re-pivots any row whose basic column is `col` (whose variable was
    /// just assigned) onto an unassigned column, eliminating that column
    /// from all other rows. Indices of rows modified by the elimination
    /// (including the pivot row) are appended to `modified`.
    fn repivot_on_assign(
        &mut self,
        col: usize,
        value_of: impl Fn(Var) -> Option<bool>,
        row_ops: &mut u64,
        modified: &mut Vec<usize>,
    ) {
        let Some(r) = self.rows.iter().position(|row| row.basic == col) else {
            return;
        };
        let Some(new_basic) = self.rows[r]
            .cols()
            .find(|&c| value_of(self.cols[c]).is_none())
        else {
            // Fully assigned row: it stays as-is and becomes a valid pivot
            // row again once backtracking unassigns its basic variable.
            return;
        };
        self.rows[r].basic = new_basic;
        modified.push(r);
        let pivot = self.rows[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != r && row.get(new_basic) {
                row.xor_in(&pivot);
                *row_ops += 1;
                modified.push(i);
            }
        }
    }

    fn state_of(&self, row: &Row, value_of: &impl Fn(Var) -> Option<bool>) -> RowState {
        let mut state = RowState {
            unassigned: 0,
            unassigned_col: 0,
            parity: false,
        };
        for c in row.cols() {
            match value_of(self.cols[c]) {
                Some(v) => state.parity ^= v,
                None => {
                    state.unassigned += 1;
                    state.unassigned_col = c;
                }
            }
        }
        state
    }

    /// The proof-stream ids named by a combo bitset, in insertion order.
    fn origins_of(&self, combo: &[u64]) -> Vec<u64> {
        let mut ids = Vec::new();
        for (wi, &word) in combo.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                ids.push(self.origin_ids[wi * 64 + bit]);
            }
        }
        ids
    }

    /// The falsified literals of the row's assigned variables (the reason
    /// side of an implication or conflict derived from the row).
    fn falsified_lits(&self, row: &Row, value_of: &impl Fn(Var) -> Option<bool>) -> Vec<Lit> {
        row.cols()
            .filter_map(|c| {
                let v = self.cols[c];
                value_of(v).map(|value| v.lit(!value))
            })
            .collect()
    }
}

/// The per-guard Gauss–Jordan matrices plus the bookkeeping that connects
/// them to the solver: pending (not yet sealed) layers, variable→matrix
/// dispatch, eagerly stored implication reasons, and the last conflict.
#[derive(Debug, Clone, Default)]
pub(crate) struct GaussEngine {
    /// Rows added under a guard but not yet compiled (sealed at the next
    /// solve), paired with their proof-stream ids (0 = tracking off).
    /// Insertion-ordered so sealing is deterministic.
    pending: Vec<(GuardKey, Vec<(XorClause, u64)>)>,
    matrices: HashMap<GuardKey, GaussMatrix>,
    /// Variable index → guards whose matrix has the variable as a column.
    touching: HashMap<u32, Vec<GuardKey>>,
    /// Variable index → whether some matrix has the variable as a column
    /// (a key of `touching`) or as its guard (a key of `matrices`). Grown
    /// on demand; a variable past the end is unflagged.
    flagged: Vec<bool>,
    /// Antecedent literals of the most recent implication of each variable.
    reasons: HashMap<u32, Vec<Lit>>,
    /// Conflict literals of the most recent conflict.
    conflict: Vec<Lit>,
    /// Reusable buffer of affected row indices (avoids an allocation per
    /// propagated literal on the hot path).
    affected_scratch: Vec<usize>,
    /// Number of row xors performed (build, insert and re-pivot combined).
    pub(crate) row_ops: u64,
    /// `true` when the solver has a proof sink installed: rows that fire
    /// implications or conflicts enqueue [`RowDerive`] provenance records.
    tracking: bool,
    /// Derives awaiting proof logging; drained by the solver before it
    /// writes any step that may depend on them.
    derives: Vec<RowDerive>,
    /// Combos already logged, per matrix — a derived row may fire many
    /// times across solves but its derivation only needs logging once.
    logged_derives: HashMap<GuardKey, HashSet<Vec<u64>>>,
}

impl GaussEngine {
    /// Queues a row for `guard`; it becomes part of the guard's matrix when
    /// the layer is sealed. `origin` is the row's proof-stream id (0 when
    /// proof tracking is off).
    pub(crate) fn push_pending(&mut self, guard: GuardKey, xor: XorClause, origin: u64) {
        match self.pending.iter_mut().find(|(g, _)| *g == guard) {
            Some((_, rows)) => rows.push((xor, origin)),
            None => self.pending.push((guard, vec![(xor, origin)])),
        }
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(crate) fn take_pending(&mut self) -> Vec<(GuardKey, Vec<(XorClause, u64)>)> {
        std::mem::take(&mut self.pending)
    }

    /// Enables provenance tracking (proof sink installed on the solver).
    pub(crate) fn set_tracking(&mut self, on: bool) {
        self.tracking = on;
    }

    /// Drains the derives recorded since the last call.
    pub(crate) fn take_derives(&mut self) -> Vec<RowDerive> {
        std::mem::take(&mut self.derives)
    }

    /// `true` when derives await logging (fast path for the solver's
    /// logging helper).
    pub(crate) fn has_derives(&self) -> bool {
        !self.derives.is_empty()
    }

    /// `true` while some matrix has `var` as a column or as its guard: the
    /// only variables whose assignment [`GaussEngine::on_assign`] acts on.
    pub(crate) fn watches(&self, var: Var) -> bool {
        self.flagged.get(var.index()) == Some(&true)
    }

    /// Recomputes `var`'s flag from the column and matrix maps.
    fn reflag(&mut self, var: usize) {
        let key = var as GuardKey;
        let on = self.touching.contains_key(&key) || self.matrices.contains_key(&key);
        if on && self.flagged.len() <= var {
            self.flagged.resize(var + 1, false);
        }
        if let Some(flag) = self.flagged.get_mut(var) {
            *flag = on;
        }
    }

    /// Number of matrices currently installed.
    #[cfg(test)]
    pub(crate) fn num_matrices(&self) -> usize {
        self.matrices.len()
    }

    /// Compiles `rows` into a matrix for `guard` (merging into an existing
    /// matrix if the guard already has one — rows can arrive across several
    /// solve calls).
    pub(crate) fn build(
        &mut self,
        guard: GuardKey,
        guard_lit: Lit,
        rows: &[(XorClause, u64)],
        value_of: impl Fn(Var) -> Option<bool>,
    ) -> BuildOutcome {
        let fresh = !self.matrices.contains_key(&guard);
        let matrix = self
            .matrices
            .entry(guard)
            .or_insert_with(|| GaussMatrix::new(guard_lit));
        let rows_before = matrix.rows.len();
        let mut new_cols = Vec::new();
        let mut unsat = false;
        for (xor, origin) in rows {
            match matrix.insert_row(xor, *origin, &value_of, &mut new_cols, &mut self.row_ops) {
                Ok(_) => {}
                Err(from) => {
                    // The contradiction `0 = 1` is the sum of the named
                    // originals; record the derivation (a singleton is the
                    // original itself — already logged as a row).
                    if self.tracking && from.len() > 1 {
                        self.derives.push(RowDerive {
                            guard: guard_lit.var(),
                            vars: Vec::new(),
                            rhs: true,
                            from,
                        });
                    }
                    unsat = true;
                    break;
                }
            }
        }
        if unsat {
            self.drop_matrix(guard);
            return BuildOutcome::LayerUnsat;
        }
        let total = matrix.rows.len();
        for v in new_cols {
            self.touching
                .entry(v.index() as u32)
                .or_default()
                .push(guard);
            self.reflag(v.index());
        }
        self.reflag(guard as usize);
        if total == 0 {
            // Every row was redundant: nothing to watch, drop the shell.
            self.drop_matrix(guard);
        }
        BuildOutcome::Built {
            added: total - rows_before,
            fresh: fresh && total > 0,
        }
    }

    /// Number of rows in the guard's installed matrix (zero if none).
    pub(crate) fn matrix_rows(&self, guard: GuardKey) -> usize {
        self.matrices.get(&guard).map(|m| m.rows.len()).unwrap_or(0)
    }

    fn drop_matrix(&mut self, guard: GuardKey) {
        self.logged_derives.remove(&guard);
        if let Some(matrix) = self.matrices.remove(&guard) {
            // The columns include any a failed merge interned but never
            // listed in `touching`; recomputing (not clearing) their flags
            // keeps them set for the other matrices that share them.
            for v in &matrix.cols {
                if let Some(list) = self.touching.get_mut(&(v.index() as u32)) {
                    list.retain(|&g| g != guard);
                    if list.is_empty() {
                        self.touching.remove(&(v.index() as u32));
                    }
                }
                self.reflag(v.index());
            }
            self.reflag(guard as usize);
        }
    }

    /// Removes the guard's matrix and any pending rows. Returns the number
    /// of matrix rows dropped.
    pub(crate) fn retire(&mut self, guard_var: Var) -> usize {
        let key = guard_var.index() as GuardKey;
        self.pending.retain(|(g, _)| *g != key);
        let rows = self.matrices.get(&key).map(|m| m.rows.len()).unwrap_or(0);
        self.drop_matrix(key);
        rows
    }

    /// Records the antecedents of an implication the solver enqueued; they
    /// stay retrievable (via [`GaussEngine::reason_for`]) until the
    /// variable is implied again, which can only happen after backtracking
    /// unassigned it.
    pub(crate) fn store_reason(&mut self, var: Var, reason: Vec<Lit>) {
        self.reasons.insert(var.index() as u32, reason);
    }

    /// The antecedent literals stored for the most recent implication of
    /// `var` (all currently false).
    pub(crate) fn reason_for(&self, var: Var) -> &[Lit] {
        let reason = self.reasons.get(&(var.index() as u32));
        debug_assert!(
            reason.is_some(),
            "gauss reason queried for a variable it never implied"
        );
        reason.map_or(&[][..], Vec::as_slice)
    }

    /// Stores an explicit conflict clause (used by the solver when an
    /// implied literal turns out to be already false).
    pub(crate) fn set_conflict(&mut self, lits: Vec<Lit>) {
        self.conflict = lits;
    }

    /// The literals of the most recent conflict (all currently false).
    pub(crate) fn conflict_lits(&self) -> Vec<Lit> {
        self.conflict.clone()
    }

    /// Reacts to the assignment of `var`: re-pivots matrices whose basic
    /// variable it is, then scans affected matrices for implications and
    /// conflicts. `var` may also be a guard variable, in which case the
    /// layer's pending implications fire on activation. Returns at once
    /// for a variable no matrix [watches](GaussEngine::watches).
    pub(crate) fn on_assign(
        &mut self,
        var: Var,
        value_of: impl Fn(Var) -> Option<bool>,
        results: &mut Vec<GaussResult>,
    ) {
        if !self.watches(var) {
            return;
        }
        // Guard event: the matrix (if any) may just have become active.
        let key = var.index() as GuardKey;
        if self.matrices.contains_key(&key) {
            self.scan_matrix(key, &value_of, results);
        }
        // Take (rather than clone) the touching list and the affected-rows
        // buffer: this runs for nearly every propagated literal of a hashed
        // solve, so the loop must not allocate. Nothing inside the loop
        // mutates `touching`, so the list is restored verbatim below.
        let Some(entry) = self.touching.get_mut(&key) else {
            return;
        };
        let guards = std::mem::take(entry);
        let mut affected = std::mem::take(&mut self.affected_scratch);
        for &guard in &guards {
            // Only rows whose contents or column set this assignment could
            // have changed need a state check: rows containing the assigned
            // column, plus rows rewritten by the re-pivot elimination
            // (which may have gained or lost the column in the process).
            // `affected` stays tiny (≤ the layer's row count), so the
            // linear dedup below beats any set structure.
            affected.clear();
            let Some(matrix) = self.matrices.get_mut(&guard) else {
                continue;
            };
            let Some(&col) = matrix.col_of.get(&key) else {
                continue;
            };
            matrix.repivot_on_assign(col, &value_of, &mut self.row_ops, &mut affected);
            for (i, row) in matrix.rows.iter().enumerate() {
                if row.get(col) && !affected.contains(&i) {
                    affected.push(i);
                }
            }
            self.scan_rows(guard, Some(&affected), &value_of, results);
            if matches!(results.last(), Some(GaussResult::Conflict)) {
                break;
            }
        }
        self.affected_scratch = affected;
        self.touching.insert(key, guards);
    }

    /// Scans every row of one matrix under the current assignment, pushing
    /// implications (and at most one conflict, which terminates the scan).
    /// Used on guard activation and at seal time, where any row may fire.
    pub(crate) fn scan_matrix(
        &mut self,
        guard: GuardKey,
        value_of: &impl Fn(Var) -> Option<bool>,
        results: &mut Vec<GaussResult>,
    ) {
        self.scan_rows(guard, None, value_of, results);
    }

    /// Scans the given rows (all of them for `None`) of one matrix under
    /// the current assignment, pushing implications (and at most one
    /// conflict, which terminates the scan).
    fn scan_rows(
        &mut self,
        guard: GuardKey,
        rows: Option<&[usize]>,
        value_of: &impl Fn(Var) -> Option<bool>,
        results: &mut Vec<GaussResult>,
    ) {
        let Some(matrix) = self.matrices.get(&guard) else {
            return;
        };
        let g = matrix.guard;
        // None: the guard is unassigned (layer pending). Some(true): the
        // guard is satisfied (layer dormant). Some(false): layer active.
        let guard_value = value_of(g.var()).map(|v| g.evaluate(v));
        if guard_value == Some(true) {
            return; // dormant: `g ∨ row` is satisfied outright
        }
        let active = guard_value == Some(false);
        // Any row that fires came from the *reduced* matrix; record its
        // derivation from the logged originals so the proof checker can
        // reproduce the implication (singleton combos are the originals
        // themselves, and each distinct combination is logged only once).
        let mut logged = self
            .tracking
            .then(|| self.logged_derives.entry(guard).or_default());
        let derives = &mut self.derives;
        let mut note_derive = |row: &Row| {
            let Some(logged) = logged.as_deref_mut() else {
                return;
            };
            let popcount: u32 = row.combo.iter().map(|w| w.count_ones()).sum();
            if popcount > 1 && logged.insert(row.combo.clone()) {
                derives.push(RowDerive {
                    guard: g.var(),
                    vars: row.cols().map(|c| matrix.cols[c]).collect(),
                    rhs: row.rhs,
                    from: matrix.origins_of(&row.combo),
                });
            }
        };
        let mut conflict: Option<Vec<Lit>> = None;
        let mut indices = 0..matrix.rows.len();
        let mut listed = rows.map(|r| r.iter().copied());
        let mut next = || match listed.as_mut() {
            Some(iter) => iter.next(),
            None => indices.next(),
        };
        while let Some(index) = next() {
            let row = &matrix.rows[index];
            let state = matrix.state_of(row, value_of);
            match state.unassigned {
                0 if state.parity != row.rhs => {
                    note_derive(row);
                    let mut lits = matrix.falsified_lits(row, value_of);
                    if active {
                        lits.push(g);
                        conflict = Some(lits);
                        break;
                    }
                    // Guard unassigned: `g ∨ row` is unit on the guard.
                    results.push(GaussResult::Implied {
                        lit: g,
                        reason: lits,
                    });
                }
                1 if active => {
                    note_derive(row);
                    let v = matrix.cols[state.unassigned_col];
                    let lit = v.lit(row.rhs ^ state.parity);
                    let mut lits = matrix.falsified_lits(row, value_of);
                    lits.push(g);
                    results.push(GaussResult::Implied { lit, reason: lits });
                }
                _ => {}
            }
        }
        if let Some(lits) = conflict {
            self.conflict = lits;
            results.push(GaussResult::Conflict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    fn value_fn(map: &Map<Var, bool>) -> impl Fn(Var) -> Option<bool> + '_ {
        move |v| map.get(&v).copied()
    }

    fn xor(vars: &[usize], rhs: bool) -> XorClause {
        XorClause::new(vars.iter().map(|&i| Var::new(i)).collect::<Vec<_>>(), rhs)
    }

    fn guard_var() -> Var {
        Var::new(9)
    }

    fn guard_lit() -> Lit {
        guard_var().positive()
    }

    fn implied_lits(results: &[GaussResult]) -> Vec<Lit> {
        results
            .iter()
            .map(|r| match r {
                GaussResult::Implied { lit, .. } => *lit,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn build(engine: &mut GaussEngine, rows: &[XorClause]) -> BuildOutcome {
        let assigned: Map<Var, bool> = Map::new();
        let rows: Vec<(XorClause, u64)> = rows.iter().map(|x| (x.clone(), 0)).collect();
        engine.build(9, guard_lit(), &rows, value_fn(&assigned))
    }

    #[test]
    fn contradictory_rows_reduce_to_layer_unsat() {
        let mut engine = GaussEngine::default();
        // x0⊕x1 = 0, x1⊕x2 = 1, x0⊕x2 = 0 sums to 0 = 1.
        let outcome = build(
            &mut engine,
            &[xor(&[0, 1], false), xor(&[1, 2], true), xor(&[0, 2], false)],
        );
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        assert_eq!(engine.num_matrices(), 0);
    }

    #[test]
    fn redundant_rows_are_dropped() {
        let mut engine = GaussEngine::default();
        let outcome = build(
            &mut engine,
            &[xor(&[0, 1], true), xor(&[1, 2], false), xor(&[0, 2], true)],
        );
        assert_eq!(
            outcome,
            BuildOutcome::Built {
                added: 2,
                fresh: true
            }
        );
    }

    #[test]
    fn cross_row_implication_is_found() {
        let mut engine = GaussEngine::default();
        // x0⊕x1 = 0 and x0⊕x1⊕x2 = 1 together force x2 = 1 with *no*
        // assignment at all — the reduction digests it, and activation
        // (assigning ¬g) fires the implication.
        let outcome = build(&mut engine, &[xor(&[0, 1], false), xor(&[0, 1, 2], true)]);
        assert_eq!(
            outcome,
            BuildOutcome::Built {
                added: 2,
                fresh: true
            }
        );
        let mut assigned = Map::new();
        assigned.insert(guard_var(), false); // ¬g: layer active
        let mut results = Vec::new();
        engine.on_assign(guard_var(), value_fn(&assigned), &mut results);
        assert_eq!(implied_lits(&results), vec![Var::new(2).positive()]);
        match &results[0] {
            GaussResult::Implied { reason, .. } => assert!(reason.contains(&guard_lit())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn violated_rows_imply_the_guard_while_unassigned() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Map::new();
        assigned.insert(Var::new(0), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), value_fn(&assigned), &mut results);
        assert!(results.is_empty(), "guard unassigned, row still open");
        assigned.insert(Var::new(1), true); // parity now violated
        engine.on_assign(Var::new(1), value_fn(&assigned), &mut results);
        assert_eq!(implied_lits(&results), vec![guard_lit()]);
        // The reason is the falsified row, without the guard itself.
        match &results[0] {
            GaussResult::Implied { reason, .. } => {
                assert_eq!(reason.len(), 2);
                assert!(!reason.contains(&guard_lit()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn active_violated_row_is_a_conflict_with_guard_in_the_clause() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Map::new();
        assigned.insert(guard_var(), false);
        assigned.insert(Var::new(0), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), value_fn(&assigned), &mut results);
        results.clear();
        assigned.insert(Var::new(1), true);
        engine.on_assign(Var::new(1), value_fn(&assigned), &mut results);
        assert_eq!(results, vec![GaussResult::Conflict]);
        let lits = engine.conflict_lits();
        assert_eq!(lits.len(), 3);
        assert!(lits.contains(&guard_lit()));
    }

    #[test]
    fn dormant_matrix_is_silent() {
        let mut engine = GaussEngine::default();
        build(&mut engine, &[xor(&[0, 1], true)]);
        let mut assigned = Map::new();
        assigned.insert(guard_var(), true); // g: layer dormant
        assigned.insert(Var::new(0), true);
        assigned.insert(Var::new(1), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(0), value_fn(&assigned), &mut results);
        engine.on_assign(Var::new(1), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
    }

    #[test]
    fn repivot_keeps_propagating_after_basic_assignment() {
        let mut engine = GaussEngine::default();
        // Two rows over four variables.
        build(
            &mut engine,
            &[xor(&[0, 1, 2], false), xor(&[1, 2, 3], true)],
        );
        let mut assigned = Map::new();
        assigned.insert(guard_var(), false);
        let mut results = Vec::new();
        engine.on_assign(guard_var(), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
        // Assign both basics' candidates one by one; whatever the internal
        // pivots are, after x0 and x1 the system x2 = x0⊕x1, x3 = ¬(x1⊕x2)
        // must imply the rest.
        assigned.insert(Var::new(0), true);
        engine.on_assign(Var::new(0), value_fn(&assigned), &mut results);
        assigned.insert(Var::new(1), true);
        engine.on_assign(Var::new(1), value_fn(&assigned), &mut results);
        // x0⊕x1⊕x2 = 0 with x0 = x1 = 1 forces x2 = 0; then x1⊕x2⊕x3 = 1
        // forces x3 = 0.
        assert!(implied_lits(&results).contains(&Var::new(2).negative()));
    }

    #[test]
    fn tracked_cross_row_implication_records_its_derivation() {
        let mut engine = GaussEngine::default();
        engine.set_tracking(true);
        let assigned: Map<Var, bool> = Map::new();
        let rows = vec![(xor(&[0, 1], false), 7), (xor(&[0, 1, 2], true), 8)];
        engine.build(9, guard_lit(), &rows, value_fn(&assigned));
        let mut assigned = Map::new();
        assigned.insert(guard_var(), false);
        let mut results = Vec::new();
        engine.on_assign(guard_var(), value_fn(&assigned), &mut results);
        assert_eq!(implied_lits(&results), vec![Var::new(2).positive()]);
        let derives = engine.take_derives();
        assert_eq!(derives.len(), 1);
        assert_eq!(derives[0].guard, guard_var());
        assert_eq!(derives[0].vars, vec![Var::new(2)]);
        assert!(derives[0].rhs);
        assert_eq!(derives[0].from, vec![7, 8]);
        // The same combination firing again is not re-logged.
        engine.on_assign(guard_var(), value_fn(&assigned), &mut results);
        assert!(!engine.has_derives());
    }

    #[test]
    fn tracked_layer_unsat_records_the_contradiction() {
        let mut engine = GaussEngine::default();
        engine.set_tracking(true);
        let assigned: Map<Var, bool> = Map::new();
        let rows = vec![
            (xor(&[0, 1], false), 3),
            (xor(&[1, 2], true), 4),
            (xor(&[0, 2], false), 5),
        ];
        let outcome = engine.build(9, guard_lit(), &rows, value_fn(&assigned));
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        let derives = engine.take_derives();
        assert_eq!(derives.len(), 1);
        assert_eq!(derives[0].guard, guard_var());
        assert!(derives[0].vars.is_empty());
        assert!(derives[0].rhs);
        assert_eq!(derives[0].from, vec![3, 4, 5]);
    }

    fn flagged(engine: &GaussEngine) -> Vec<usize> {
        (0..16).filter(|&i| engine.watches(Var::new(i))).collect()
    }

    #[test]
    fn watch_flags_follow_build_layer_unsat_drop_and_retire() {
        let mut engine = GaussEngine::default();
        let none: Map<Var, bool> = Map::new();
        let rows = |xs: &[XorClause]| xs.iter().map(|x| (x.clone(), 0)).collect::<Vec<_>>();
        let other = Var::new(8).positive();
        engine.build(8, other, &rows(&[xor(&[2, 3], true)]), value_fn(&none));
        build(&mut engine, &[xor(&[0, 1], false)]);
        assert_eq!(flagged(&engine), vec![0, 1, 2, 3, 8, 9]);
        // Merging x1⊕x2 = 1 and x0⊕x2 = 0 into guard 9's x0⊕x1 = 0 sums to
        // 0 = 1. The layer is dropped with the column x2 the merge interned,
        // which guard 8's matrix still has.
        let outcome = engine.build(
            9,
            guard_lit(),
            &rows(&[xor(&[1, 2], true), xor(&[0, 2], false)]),
            value_fn(&none),
        );
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        assert_eq!(flagged(&engine), vec![2, 3, 8]);
        // x2 still reaches guard 8's matrix: active, x2 = 1 forces x3 = 0.
        let mut assigned = Map::new();
        assigned.insert(other.var(), false);
        assigned.insert(Var::new(2), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(2), value_fn(&assigned), &mut results);
        assert_eq!(implied_lits(&results), vec![Var::new(3).negative()]);
        assert_eq!(engine.retire(other.var()), 1);
        assert!(flagged(&engine).is_empty());
        // A fresh layer that is unsatisfiable on its own leaves no flag.
        let outcome = build(
            &mut engine,
            &[xor(&[0, 1], false), xor(&[1, 2], true), xor(&[0, 2], false)],
        );
        assert_eq!(outcome, BuildOutcome::LayerUnsat);
        assert!(flagged(&engine).is_empty());
    }

    #[test]
    fn a_shared_column_stays_flagged_until_both_matrices_are_gone() {
        let mut engine = GaussEngine::default();
        let none: Map<Var, bool> = Map::new();
        let other = Var::new(8).positive();
        engine.build(8, other, &[(xor(&[2, 3], true), 0)], value_fn(&none));
        build(&mut engine, &[xor(&[2, 4], false)]);
        assert_eq!(flagged(&engine), vec![2, 3, 4, 8, 9]);
        assert_eq!(engine.retire(guard_var()), 1);
        assert_eq!(flagged(&engine), vec![2, 3, 8]);
        assert_eq!(engine.retire(other.var()), 1);
        assert!(flagged(&engine).is_empty());
        // Unflagged literals return before any map is consulted.
        let mut assigned = Map::new();
        assigned.insert(Var::new(2), true);
        let mut results = Vec::new();
        engine.on_assign(Var::new(2), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
    }

    /// A ten-variable formula with a few hundred models.
    fn ten_var_formula() -> unigen_cnf::CnfFormula {
        let n = 10;
        let mut f = unigen_cnf::CnfFormula::new(n);
        for i in 0..n {
            f.add_clause([
                Var::new(i).positive(),
                Var::new((i + 1) % n).negative(),
                Var::new((i + 3) % n).positive(),
            ])
            .unwrap();
        }
        f
    }

    fn sorted_cell(outcome: &crate::enumerate::EnumerationOutcome) -> Vec<Vec<bool>> {
        assert!(outcome.is_exhaustive());
        let mut cell: Vec<Vec<bool>> = outcome
            .witnesses
            .iter()
            .map(|w| w.values().to_vec())
            .collect();
        cell.sort();
        cell
    }

    /// Rows that sum to `0 = 1` over x0, x1, x2.
    fn contradiction() -> Vec<XorClause> {
        vec![xor(&[0, 1], false), xor(&[1, 2], true), xor(&[0, 2], false)]
    }

    /// Eight hash cells on one solver, every guard retired before the next
    /// is opened, with an unsatisfiable layer every third cell.
    fn cells_after_retirements(gauss: crate::config::GaussMode) -> Vec<Vec<Vec<bool>>> {
        use crate::budget::Budget;
        use crate::config::SolverConfig;
        use crate::solver::Solver;
        let f = ten_var_formula();
        let config = SolverConfig {
            gauss,
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_formula_with_config(&f, config);
        let sampling: Vec<Var> = (0..10).map(Var::new).collect();
        let mut state = 0x5eed_u64;
        let mut cells = Vec::new();
        for layer in 0..8 {
            let rows = if layer % 3 == 1 {
                contradiction()
            } else {
                (0..3)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let mask = (state >> 33) | 0b11 << (layer % 9);
                        let vars: Vec<usize> = (0..10).filter(|&i| mask >> i & 1 == 1).collect();
                        xor(&vars, state >> 63 == 1)
                    })
                    .collect()
            };
            let outcome = crate::enumerate::enumerate_cell(
                &mut solver,
                &sampling,
                &rows,
                1024,
                &Budget::new(),
            );
            cells.push(sorted_cell(&outcome));
        }
        cells
    }

    #[test]
    fn gauss_cells_match_watched_cells_across_retire_and_rebuild() {
        use crate::config::GaussMode;
        let watched = cells_after_retirements(GaussMode::Off);
        assert!(watched.iter().filter(|cell| !cell.is_empty()).count() >= 4);
        assert_eq!(cells_after_retirements(GaussMode::On), watched);
    }

    /// A live layer over exactly the columns of [`contradiction`]: with
    /// those columns unwatched, its matrix would never propagate.
    fn live_rows() -> Vec<XorClause> {
        vec![xor(&[0, 1], true), xor(&[1, 2], false)]
    }

    /// Seals an unsatisfiable layer next to a live one that shares its
    /// columns, then enumerates the live layer.
    fn cell_beside_a_dropped_layer(gauss: crate::config::GaussMode) -> Vec<Vec<bool>> {
        use crate::budget::Budget;
        use crate::config::SolverConfig;
        use crate::enumerate::Enumerator;
        use crate::solver::Solver;
        let config = SolverConfig {
            gauss,
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_formula_with_config(&ten_var_formula(), config);
        let live = solver.new_guard();
        for row in live_rows() {
            solver.add_xor_under(row, live);
        }
        let dropped = solver.new_guard();
        for row in contradiction() {
            solver.add_xor_under(row, dropped);
        }
        assert!(solver
            .solve_under_assumptions(&[dropped.assumption()])
            .is_unsat());
        let sampling: Vec<Var> = (0..10).map(Var::new).collect();
        let outcome =
            Enumerator::under_guard(&mut solver, sampling, live).run(1024, &Budget::new());
        sorted_cell(&outcome)
    }

    #[test]
    fn a_dropped_layer_leaves_the_shared_columns_of_a_live_one_watched() {
        use crate::config::GaussMode;
        let f = ten_var_formula();
        let rows = live_rows();
        let expected: Vec<Vec<bool>> = (0u32..1 << 10)
            .map(|bits| (0..10).map(|i| bits >> i & 1 == 1).collect::<Vec<bool>>())
            .filter(|values| {
                let model = unigen_cnf::Model::new(values.clone());
                f.evaluate(&model) && rows.iter().all(|row| row.evaluate(&model))
            })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(cell_beside_a_dropped_layer(GaussMode::Off), expected);
        assert_eq!(cell_beside_a_dropped_layer(GaussMode::On), expected);
    }

    #[test]
    fn retire_drops_matrix_and_pending() {
        let mut engine = GaussEngine::default();
        engine.push_pending(9, xor(&[0, 1], true), 0);
        assert!(engine.has_pending());
        build(&mut engine, &[xor(&[2, 3], false)]);
        assert_eq!(engine.retire(Var::new(9)), 1);
        assert!(!engine.has_pending());
        assert_eq!(engine.num_matrices(), 0);
        let mut assigned = Map::new();
        assigned.insert(Var::new(2), true);
        assigned.insert(Var::new(3), false);
        let mut results = Vec::new();
        engine.on_assign(Var::new(2), value_fn(&assigned), &mut results);
        assert!(results.is_empty());
    }
}
