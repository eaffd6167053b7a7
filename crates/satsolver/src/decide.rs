//! VSIDS decision heuristic with phase saving.
//!
//! The heap drops assigned variables lazily: a variable leaves it only when
//! it is popped, and [`Vsids::pop_unassigned`] discards the assigned ones it
//! meets on the way to the first unassigned one. Every unassigned variable
//! is always in the heap, so the pick is the most active unassigned
//! variable, however many assigned ones are left in it. The solver checks
//! for a model by the trail's length and does not ask the heap once every
//! variable is assigned: that question would pop everything left in the
//! heap, for the next backjump to push the unassigned ones back.

use unigen_cnf::Var;

/// An indexed max-heap over variable activities (the classic MiniSat
/// `OrderHeap`), plus the exponential VSIDS bumping machinery.
#[derive(Debug, Clone)]
pub(crate) struct Vsids {
    /// Activity score per variable.
    activity: Vec<f64>,
    /// Heap of variable indices ordered by activity (max at the root).
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    position: Vec<usize>,
    /// Current bump increment.
    increment: f64,
    /// Multiplicative decay (applied by growing the increment).
    decay: f64,
    /// Saved phase per variable (used for polarity selection).
    phase: Vec<bool>,
    /// Phase given to variables added by [`Vsids::grow_to`].
    default_phase: bool,
}

const ABSENT: usize = usize::MAX;
const RESCALE_THRESHOLD: f64 = 1e100;

impl Vsids {
    /// Creates the heuristic state for `num_vars` variables.
    ///
    /// `noise` provides a small deterministic perturbation of the initial
    /// activities so that different seeds explore different trees; pass an
    /// empty slice for fully uniform initial activities.
    pub(crate) fn new(num_vars: usize, decay: f64, default_phase: bool, noise: &[f64]) -> Self {
        let mut vsids = Vsids {
            activity: (0..num_vars)
                .map(|i| noise.get(i).copied().unwrap_or(0.0))
                .collect(),
            heap: Vec::with_capacity(num_vars),
            position: vec![ABSENT; num_vars],
            increment: 1.0,
            decay,
            phase: vec![default_phase; num_vars],
            default_phase,
        };
        for i in 0..num_vars {
            vsids.insert(Var::new(i));
        }
        vsids
    }

    /// Extends the heuristic to cover `num_vars` variables, keeping the
    /// activities and saved phases of the existing ones (essential for
    /// incremental solving, where guard variables are added between cells and
    /// the accumulated activity profile must survive).
    ///
    /// `noise` perturbs the initial activities of the *new* variables
    /// (indexed from 0 for the first added variable).
    pub(crate) fn grow_to(&mut self, num_vars: usize, noise: &[f64]) {
        let old = self.activity.len();
        if num_vars <= old {
            return;
        }
        for i in old..num_vars {
            self.activity
                .push(noise.get(i - old).copied().unwrap_or(0.0) * self.increment);
            self.position.push(ABSENT);
            self.phase.push(self.default_phase);
            self.insert(Var::new(i));
        }
    }

    /// Returns the saved phase of `var`.
    pub(crate) fn saved_phase(&self, var: Var) -> bool {
        self.phase[var.index()]
    }

    /// Saves the phase of `var` (called when the trail is unwound).
    pub(crate) fn save_phase(&mut self, var: Var, value: bool) {
        self.phase[var.index()] = value;
    }

    /// Increases the activity of `var` (called for every variable involved in
    /// a conflict).
    pub(crate) fn bump(&mut self, var: Var) {
        let i = var.index();
        self.activity[i] += self.increment;
        if self.activity[i] > RESCALE_THRESHOLD {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.increment *= 1e-100;
        }
        if self.position[i] != ABSENT {
            self.sift_up(self.position[i]);
        }
    }

    /// Applies the activity decay (called once per conflict).
    pub(crate) fn decay(&mut self) {
        self.increment /= self.decay;
    }

    /// Reinserts `var` into the heap (called when the trail is unwound).
    pub(crate) fn insert(&mut self, var: Var) {
        let i = var.index();
        if self.position[i] != ABSENT {
            return;
        }
        self.position[i] = self.heap.len();
        self.heap.push(i as u32);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the unassigned variable with the highest activity,
    /// skipping (and dropping) variables for which `is_assigned` returns
    /// true. Returns `None` when every variable is assigned.
    pub(crate) fn pop_unassigned<F>(&mut self, is_assigned: F) -> Option<Var>
    where
        F: Fn(Var) -> bool,
    {
        while let Some(var) = self.pop_top() {
            if !is_assigned(var) {
                return Some(var);
            }
        }
        None
    }

    /// Removes and returns the variable with the highest activity, or
    /// `None` when the heap is empty.
    fn pop_top(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop()?;
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0);
        }
        Some(Var::new(top as usize))
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.activity[self.heap[pos] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut largest = pos;
            if left < self.heap.len()
                && self.activity[self.heap[left] as usize]
                    > self.activity[self.heap[largest] as usize]
            {
                largest = left;
            }
            if right < self.heap.len()
                && self.activity[self.heap[right] as usize]
                    > self.activity[self.heap[largest] as usize]
            {
                largest = right;
            }
            if largest == pos {
                break;
            }
            self.swap(pos, largest);
            pos = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = a;
        self.position[self.heap[b] as usize] = b;
    }

    #[cfg(test)]
    fn heap_invariant_holds(&self) -> bool {
        (1..self.heap.len()).all(|i| {
            let parent = (i - 1) / 2;
            self.activity[self.heap[parent] as usize] >= self.activity[self.heap[i] as usize]
        }) && self
            .heap
            .iter()
            .enumerate()
            .all(|(pos, &v)| self.position[v as usize] == pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_highest_activity_first() {
        let mut vsids = Vsids::new(4, 0.95, false, &[]);
        vsids.bump(Var::new(2));
        vsids.bump(Var::new(2));
        vsids.bump(Var::new(1));
        assert!(vsids.heap_invariant_holds());
        let first = vsids.pop_unassigned(|_| false).unwrap();
        assert_eq!(first, Var::new(2));
        let second = vsids.pop_unassigned(|_| false).unwrap();
        assert_eq!(second, Var::new(1));
    }

    #[test]
    fn skips_assigned_variables() {
        let mut vsids = Vsids::new(3, 0.95, false, &[]);
        vsids.bump(Var::new(0));
        let picked = vsids.pop_unassigned(|v| v == Var::new(0)).unwrap();
        assert_ne!(picked, Var::new(0));
    }

    #[test]
    fn returns_none_when_all_assigned() {
        let mut vsids = Vsids::new(2, 0.95, false, &[]);
        assert!(vsids.pop_unassigned(|_| true).is_none());
    }

    #[test]
    fn reinsertion_is_idempotent() {
        let mut vsids = Vsids::new(2, 0.95, false, &[]);
        let v = vsids.pop_unassigned(|_| false).unwrap();
        vsids.insert(v);
        vsids.insert(v);
        assert!(vsids.heap_invariant_holds());
        // Both variables must still be retrievable exactly once each.
        let a = vsids.pop_unassigned(|_| false).unwrap();
        let b = vsids.pop_unassigned(|_| false).unwrap();
        assert_ne!(a, b);
        assert!(vsids.pop_unassigned(|_| false).is_none());
    }

    #[test]
    fn phase_saving_roundtrip() {
        let mut vsids = Vsids::new(2, 0.95, true, &[]);
        assert!(vsids.saved_phase(Var::new(0)));
        vsids.save_phase(Var::new(0), false);
        assert!(!vsids.saved_phase(Var::new(0)));
    }

    #[test]
    fn rescaling_preserves_order() {
        let mut vsids = Vsids::new(3, 0.5, false, &[]);
        // Push the increment just past the rescale threshold (2^340 ≈ 2e102),
        // so the first bump triggers a rescale.
        for _ in 0..340 {
            vsids.decay();
        }
        vsids.bump(Var::new(1));
        vsids.bump(Var::new(2));
        vsids.bump(Var::new(2));
        assert!(vsids.heap_invariant_holds());
        assert_eq!(vsids.pop_unassigned(|_| false).unwrap(), Var::new(2));
    }

    #[test]
    fn grow_to_preserves_existing_activity() {
        let mut vsids = Vsids::new(2, 0.95, false, &[]);
        vsids.bump(Var::new(1));
        vsids.grow_to(4, &[]);
        assert!(vsids.heap_invariant_holds());
        // The bumped old variable still wins over the fresh ones.
        assert_eq!(vsids.pop_unassigned(|_| false).unwrap(), Var::new(1));
        vsids.save_phase(Var::new(3), true);
        assert!(vsids.saved_phase(Var::new(3)));
        // All four variables are present exactly once.
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = vsids.pop_unassigned(|_| false) {
            seen.insert(v);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn initial_noise_breaks_ties() {
        let mut vsids = Vsids::new(3, 0.95, false, &[0.0, 0.5, 0.25]);
        assert_eq!(vsids.pop_unassigned(|_| false).unwrap(), Var::new(1));
        assert_eq!(vsids.pop_unassigned(|_| false).unwrap(), Var::new(2));
    }
}
