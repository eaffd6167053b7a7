//! Clause storage, watch lists and learned-clause bookkeeping.
//!
//! Clauses live in a single flat `u32` arena (a 3-word header followed by the
//! literal codes inline), so walking a clause during propagation touches one
//! contiguous cache line instead of chasing a `Vec<Lit>` pointer per clause.
//! Watch lists store a *blocker literal* next to each clause reference; when
//! the blocker is already true the clause is satisfied and propagation skips
//! the clause memory entirely (the MiniSat 2.2 optimisation).
//!
//! Deletion is a tombstone flag; the arena is compacted by
//! [`ClauseDb::collect_garbage`], which the solver only invokes at decision
//! level zero (between `solve` calls) so that no live [`ClauseRef`] other
//! than the remapped watch lists survives compaction.
//!
//! # Freezing
//!
//! The watch lists are derived data: at decision level zero, after a
//! garbage collection, they are exactly what `ClauseDb::rebuild_watches`
//! makes of the arena (each live clause watched by its first two literals,
//! in clause order). A prepared solver that is kept only to be cloned
//! therefore drops them ([`ClauseDb::freeze_watches`]) and rebuilds them
//! when it is next used ([`ClauseDb::thaw_watches`]). While frozen, the
//! database must not be propagated over or have clauses added or deleted:
//! the solver thaws it first at each of its entry points.

use std::collections::HashMap;

use unigen_cnf::Lit;

/// Index of a clause inside the [`ClauseDb`] arena: the word offset of its
/// header.
pub(crate) type ClauseRef = u32;

/// One watch-list entry: the watched clause plus a *blocker* literal (some
/// other literal of the clause, usually the other watched one). If the
/// blocker is true the clause is satisfied and need not be dereferenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Watcher {
    pub cref: ClauseRef,
    pub blocker: Lit,
}

/// Arena layout: `[len, flags|lbd, activity(f32 bits), lit0, lit1, …]`.
const HEADER_WORDS: usize = 3;
const FLAG_LEARNED: u32 = 1 << 31;
const FLAG_DELETED: u32 = 1 << 30;
const LBD_MASK: u32 = FLAG_DELETED - 1;

const CLAUSE_RESCALE_THRESHOLD: f64 = 1e20;

/// Arena of clauses plus per-literal watch lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseDb {
    /// The flat literal arena.
    arena: Vec<u32>,
    /// Header offsets of every clause ever added (compacted with the arena).
    headers: Vec<ClauseRef>,
    /// `watches[lit.code()]` lists the clauses currently watching `lit`.
    watches: Vec<Vec<Watcher>>,
    clause_increment: f64,
    clause_decay: f64,
    num_learned: usize,
    /// Words occupied by tombstoned clauses, reclaimed by `collect_garbage`.
    wasted: usize,
}

impl ClauseDb {
    pub(crate) fn new(num_vars: usize, clause_decay: f64) -> Self {
        ClauseDb {
            arena: Vec::new(),
            headers: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            clause_increment: 1.0,
            clause_decay,
            num_learned: 0,
            wasted: 0,
        }
    }

    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        if self.watches.len() < num_vars * 2 {
            self.watches.resize(num_vars * 2, Vec::new());
        }
    }

    /// Adds a clause with at least two literals and registers its watches
    /// (each watching literal uses the other as its blocker).
    ///
    /// The caller is responsible for handling empty and unit clauses.
    pub(crate) fn add_clause(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> ClauseRef {
        debug_assert!(
            lits.len() >= 2,
            "watched clauses need at least two literals"
        );
        let cref = self.arena.len() as ClauseRef;
        let flags = if learned { FLAG_LEARNED } else { 0 };
        self.arena.push(lits.len() as u32);
        self.arena.push(flags | lbd.min(LBD_MASK));
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        self.headers.push(cref);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learned {
            self.num_learned += 1;
        }
        cref
    }

    #[inline]
    pub(crate) fn len(&self, cref: ClauseRef) -> usize {
        self.arena[cref as usize] as usize
    }

    #[inline]
    fn lits_start(cref: ClauseRef) -> usize {
        cref as usize + HEADER_WORDS
    }

    #[inline]
    pub(crate) fn lit_at(&self, cref: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(cref));
        Lit::from_code(self.arena[Self::lits_start(cref) + i] as usize)
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, cref: ClauseRef, i: usize, j: usize) {
        let start = Self::lits_start(cref);
        self.arena.swap(start + i, start + j);
    }

    /// Iterates over the literals of a clause.
    pub(crate) fn iter_lits(&self, cref: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = Self::lits_start(cref);
        let end = start + self.len(cref);
        self.arena[start..end]
            .iter()
            .map(|&code| Lit::from_code(code as usize))
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref as usize + 1] & FLAG_DELETED != 0
    }

    #[inline]
    pub(crate) fn is_learned(&self, cref: ClauseRef) -> bool {
        self.arena[cref as usize + 1] & FLAG_LEARNED != 0
    }

    #[inline]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref as usize + 1] & LBD_MASK
    }

    #[inline]
    fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.arena[cref as usize + 2])
    }

    #[inline]
    fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.arena[cref as usize + 2] = activity.to_bits();
    }

    /// Tombstones a clause. The watch lists drop the entry lazily; the arena
    /// space is reclaimed by the next `collect_garbage`.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        if self.is_deleted(cref) {
            return;
        }
        if self.is_learned(cref) {
            self.num_learned -= 1;
        }
        self.arena[cref as usize + 1] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.len(cref);
    }

    #[inline]
    pub(crate) fn watchers_mut(&mut self, lit: Lit) -> &mut Vec<Watcher> {
        &mut self.watches[lit.code()]
    }

    /// Returns the number of learned, non-deleted clauses.
    pub(crate) fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Bumps the activity of a learned clause.
    pub(crate) fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.is_learned(cref) {
            return;
        }
        let bumped = (self.activity(cref) as f64 + self.clause_increment) as f32;
        self.set_activity(cref, bumped);
        if bumped as f64 > CLAUSE_RESCALE_THRESHOLD {
            self.rescale_activities();
        }
    }

    /// Applies the clause-activity decay (called once per conflict). The
    /// increment is rescaled eagerly so it always fits the f32 activities.
    pub(crate) fn decay_clauses(&mut self) {
        self.clause_increment /= self.clause_decay;
        if self.clause_increment > CLAUSE_RESCALE_THRESHOLD {
            self.rescale_activities();
        }
    }

    fn rescale_activities(&mut self) {
        for i in 0..self.headers.len() {
            let c = self.headers[i];
            if self.is_learned(c) {
                let scaled = self.activity(c) * 1e-20;
                self.set_activity(c, scaled);
            }
        }
        self.clause_increment *= 1e-20;
    }

    /// Deletes roughly half of the learned clauses, preferring clauses with
    /// high LBD and low activity. Clauses for which `is_locked` returns true
    /// (currently acting as a reason) and binary clauses are kept.
    ///
    /// Returns the deleted clause references (their literals stay readable
    /// until the next garbage collection, so the caller can proof-log the
    /// deletions). Watch lists are rebuilt; clause references stay valid
    /// (deletion is a tombstone until the next level-zero garbage
    /// collection).
    pub(crate) fn reduce<F>(&mut self, is_locked: F) -> Vec<ClauseRef>
    where
        F: Fn(ClauseRef) -> bool,
    {
        let mut candidates: Vec<ClauseRef> = self
            .headers
            .iter()
            .copied()
            .filter(|&cref| {
                self.is_learned(cref)
                    && !self.is_deleted(cref)
                    && self.len(cref) > 2
                    && !is_locked(cref)
            })
            .collect();
        // Worst clauses first: high LBD, then low activity.
        candidates.sort_by(|&a, &b| {
            self.lbd(b).cmp(&self.lbd(a)).then(
                self.activity(a)
                    .partial_cmp(&self.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = candidates.len() / 2;
        for &cref in candidates.iter().take(to_delete) {
            self.delete(cref);
        }
        if to_delete > 0 {
            self.rebuild_watches();
        }
        candidates.truncate(to_delete);
        candidates
    }

    /// Drops every watch list, the outer vector included.
    pub(crate) fn freeze_watches(&mut self) {
        self.watches = Vec::new();
    }

    /// Rebuilds the watch lists of a frozen database over `num_vars`
    /// variables, as the last garbage collection left them.
    pub(crate) fn thaw_watches(&mut self, num_vars: usize) {
        self.watches.resize(num_vars * 2, Vec::new());
        self.rebuild_watches();
    }

    /// Watches every live clause by its first two literals, in clause
    /// order.
    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for i in 0..self.headers.len() {
            let cref = self.headers[i];
            if self.is_deleted(cref) {
                continue;
            }
            let first = self.lit_at(cref, 0);
            let second = self.lit_at(cref, 1);
            self.watches[first.code()].push(Watcher {
                cref,
                blocker: second,
            });
            self.watches[second.code()].push(Watcher {
                cref,
                blocker: first,
            });
        }
    }

    /// Removes the watch-list entries of the given (just-deleted) clauses by
    /// sweeping each affected literal's list once. Keeps propagation from
    /// cache-missing into tombstoned clauses between garbage collections.
    pub(crate) fn sweep_deleted_watchers(&mut self, crefs: &[ClauseRef]) {
        let mut codes: Vec<usize> = Vec::with_capacity(crefs.len() * 2);
        for &cref in crefs {
            codes.push(self.lit_at(cref, 0).code());
            codes.push(self.lit_at(cref, 1).code());
        }
        codes.sort_unstable();
        codes.dedup();
        for code in codes {
            let arena = &self.arena;
            self.watches[code].retain(|w| arena[w.cref as usize + 1] & FLAG_DELETED == 0);
        }
    }

    /// Deletes every learned clause whose LBD exceeds `max_lbd` (binary
    /// clauses always survive), sweeping the affected watch lists. Returns
    /// the deleted clause references (still readable for proof logging).
    ///
    /// Used when a guard is retired: only glucose-style "core" clauses are
    /// worth carrying into the next hash cell — the long-tail ballast costs
    /// more in propagation work than it saves in conflicts.
    pub(crate) fn trim_learned(&mut self, max_lbd: u32) -> Vec<ClauseRef> {
        let victims: Vec<ClauseRef> = self
            .headers
            .iter()
            .copied()
            .filter(|&cref| {
                self.is_learned(cref)
                    && !self.is_deleted(cref)
                    && self.len(cref) > 2
                    && self.lbd(cref) > max_lbd
            })
            .collect();
        for &cref in &victims {
            self.delete(cref);
        }
        self.sweep_deleted_watchers(&victims);
        victims
    }

    /// Returns `true` when enough of the arena is tombstoned that compaction
    /// pays for itself (more dead words than live ones, so the copy cost is
    /// amortised against the space reclaimed).
    pub(crate) fn should_collect(&self) -> bool {
        self.wasted > 4096 && self.wasted * 2 > self.arena.len()
    }

    /// Compacts the arena, dropping tombstoned clauses, and returns the
    /// mapping from old to new clause references for every surviving clause.
    ///
    /// The caller must hold no [`ClauseRef`] across this call other than
    /// through the returned map (the solver only collects at decision level
    /// zero, where no clause acts as a reason that is ever dereferenced).
    pub(crate) fn collect_garbage(&mut self) -> HashMap<ClauseRef, ClauseRef> {
        let mut remap = HashMap::with_capacity(self.headers.len());
        let mut new_arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut new_headers = Vec::with_capacity(self.headers.len());
        for &cref in &self.headers {
            if self.is_deleted(cref) {
                continue;
            }
            let start = cref as usize;
            let end = Self::lits_start(cref) + self.len(cref);
            let new_cref = new_arena.len() as ClauseRef;
            new_arena.extend_from_slice(&self.arena[start..end]);
            new_headers.push(new_cref);
            remap.insert(cref, new_cref);
        }
        self.arena = new_arena;
        self.headers = new_headers;
        self.wasted = 0;
        self.rebuild_watches();
        remap
    }

    /// Iterates over the references of all non-deleted clauses.
    #[cfg(test)]
    pub(crate) fn active_crefs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers
            .iter()
            .copied()
            .filter(|&cref| !self.is_deleted(cref))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn watches(db: &mut ClauseDb, l: Lit) -> Vec<ClauseRef> {
        db.watchers_mut(l).iter().map(|w| w.cref).collect()
    }

    #[test]
    fn add_clause_registers_two_watches_with_blockers() {
        let mut db = ClauseDb::new(3, 0.999);
        let cref = db.add_clause(&[lit(1), lit(-2), lit(3)], false, 0);
        assert!(watches(&mut db, lit(1)).contains(&cref));
        assert!(watches(&mut db, lit(-2)).contains(&cref));
        assert!(watches(&mut db, lit(3)).is_empty());
        // Each watcher's blocker is the *other* watched literal.
        assert_eq!(db.watchers_mut(lit(1))[0].blocker, lit(-2));
        assert_eq!(db.watchers_mut(lit(-2))[0].blocker, lit(1));
    }

    #[test]
    fn arena_roundtrips_literals_and_metadata() {
        let mut db = ClauseDb::new(4, 0.999);
        let a = db.add_clause(&[lit(1), lit(2), lit(-3)], false, 0);
        let b = db.add_clause(&[lit(-1), lit(4)], true, 7);
        assert_eq!(db.len(a), 3);
        assert_eq!(db.len(b), 2);
        assert_eq!(
            db.iter_lits(a).collect::<Vec<_>>(),
            vec![lit(1), lit(2), lit(-3)]
        );
        assert!(!db.is_learned(a) && db.is_learned(b));
        assert_eq!(db.lbd(b), 7);
        db.swap_lits(a, 0, 2);
        assert_eq!(db.lit_at(a, 0), lit(-3));
        assert_eq!(db.lit_at(a, 2), lit(1));
    }

    #[test]
    fn reduce_deletes_half_of_removable_learned_clauses() {
        let mut db = ClauseDb::new(10, 0.999);
        for i in 0..8 {
            let a = Var::new(i).positive();
            let b = Var::new(i + 1).negative();
            let c = Var::new((i + 2) % 10).positive();
            db.add_clause(&[a, b, c], true, (i as u32) + 2);
        }
        assert_eq!(db.num_learned(), 8);
        let deleted = db.reduce(|_| false);
        assert_eq!(deleted.len(), 4);
        assert_eq!(db.num_learned(), 4);
        // The surviving clauses should be the ones with the lowest LBD.
        let surviving_lbds: Vec<u32> = db
            .active_crefs()
            .filter(|&c| db.is_learned(c))
            .map(|c| db.lbd(c))
            .collect();
        assert!(surviving_lbds.iter().all(|&l| l <= 5));
    }

    #[test]
    fn locked_clauses_survive_reduction() {
        let mut db = ClauseDb::new(10, 0.999);
        let mut refs = Vec::new();
        for i in 0..4 {
            let a = Var::new(i).positive();
            let b = Var::new(i + 1).negative();
            let c = Var::new(i + 2).positive();
            refs.push(db.add_clause(&[a, b, c], true, 10));
        }
        let locked = refs[0];
        db.reduce(|cref| cref == locked);
        assert!(!db.is_deleted(locked));
    }

    #[test]
    fn binary_learned_clauses_are_never_deleted() {
        let mut db = ClauseDb::new(10, 0.999);
        for i in 0..4 {
            let a = Var::new(i).positive();
            let b = Var::new(i + 1).negative();
            db.add_clause(&[a, b], true, 10);
        }
        assert!(db.reduce(|_| false).is_empty());
    }

    #[test]
    fn clause_activity_bump_and_rescale() {
        let mut db = ClauseDb::new(4, 0.5);
        let cref = db.add_clause(&[lit(1), lit(2), lit(3)], true, 3);
        for _ in 0..200 {
            db.decay_clauses();
        }
        db.bump_clause(cref);
        assert!(db.activity(cref) > 0.0);
        assert!(db.activity(cref).is_finite());
    }

    #[test]
    fn bumping_original_clause_is_a_noop() {
        let mut db = ClauseDb::new(4, 0.999);
        let cref = db.add_clause(&[lit(1), lit(2)], false, 0);
        db.bump_clause(cref);
        assert_eq!(db.activity(cref), 0.0);
    }

    #[test]
    fn garbage_collection_compacts_and_remaps() {
        let mut db = ClauseDb::new(6, 0.999);
        let a = db.add_clause(&[lit(1), lit(2), lit(3)], false, 0);
        let b = db.add_clause(&[lit(-1), lit(-2)], false, 0);
        let c = db.add_clause(&[lit(4), lit(5), lit(6)], true, 2);
        db.delete(b);
        let remap = db.collect_garbage();
        assert_eq!(remap.len(), 2);
        let new_a = remap[&a];
        let new_c = remap[&c];
        assert!(!remap.contains_key(&b));
        assert_eq!(
            db.iter_lits(new_a).collect::<Vec<_>>(),
            vec![lit(1), lit(2), lit(3)]
        );
        assert_eq!(
            db.iter_lits(new_c).collect::<Vec<_>>(),
            vec![lit(4), lit(5), lit(6)]
        );
        assert!(db.is_learned(new_c));
        // Watches were rebuilt against the new references.
        assert!(watches(&mut db, lit(1)).contains(&new_a));
        assert!(watches(&mut db, lit(-1)).is_empty());
        assert_eq!(db.num_learned(), 1);
    }

    #[test]
    fn should_collect_tracks_waste() {
        let mut db = ClauseDb::new(4, 0.999);
        assert!(!db.should_collect());
        let mut refs = Vec::new();
        for _ in 0..900 {
            refs.push(db.add_clause(&[lit(1), lit(2), lit(3)], true, 2));
        }
        for &r in &refs {
            db.delete(r);
        }
        assert!(db.should_collect());
        db.collect_garbage();
        assert!(!db.should_collect());
    }
}
