//! ApproxMC — the hashing-based approximate model counter (CP 2013), with
//! the logarithmic search of ApproxMC2 (IJCAI 2016).
//!
//! UniGen invokes `ApproxModelCounter(F, 0.8, 0.8)` once per formula (line 9
//! of Algorithm 1) to obtain an estimate `C` of `|R_F|`, from which the
//! candidate hash widths `{q−3,…,q}` are derived. CP'13 proves
//! `Pr[C/1.8 ≤ |R_F| ≤ 1.8·C] ≥ 0.8` for `⌈35·log2(3/δ)⌉` = 137 core
//! iterations at δ = 0.2. The default here runs 9 ([`ApproxMcConfig`]), so
//! the proved bound does not apply as such: what 9 iterations achieve was
//! measured instead, by `tests/approxmc_oracle.rs`, where 150 of 150
//! estimates fell in `[C/1.8, 1.8·C]` around exact counts. The counter
//! implemented here:
//!
//! * core: draw **one** hash `h` of `|S|` rows from `H_xor(|S|, |S|, 3)`;
//!   the cell at width `m` is the set of witnesses satisfying the first `m`
//!   rows. Find the smallest `m` whose cell holds at most `pivot` witnesses
//!   (counted with `BSAT`) and report `cell · 2^m`;
//! * outer loop: repeat the core `t` times with fresh randomness and return
//!   the **median** of the successful estimates.
//!
//! The cells are nested: `cell_{m+1} ⊆ cell_m`, because width `m + 1` adds
//! one row to width `m`'s constraints. So "the cell at `m` exceeds the
//! pivot" is monotone in `m`, and the smallest small width is a function of
//! the draw alone. The core finds it with ApproxMC2's LogSATSearch: it
//! starts at the previous iteration's width, steps by one within 3 of it,
//! otherwise doubles, then bisects between the largest width known big and
//! the smallest known small. Where the search starts changes how many
//! `BSAT` calls it makes, never the width it returns, so every estimate
//! is the one a scan of the widths `1, 2, …` over the same draw gives, and
//! ApproxMC2 proves the `(ε, δ)` guarantee for that estimate. The
//! leap-frogging the paper's experiments disable is different: it drew a
//! fresh hash per width, so where it started changed the estimate.
//!
//! Every `BSAT` call of a count runs under its own guard on one incremental
//! solver. UniGen counts on its persistent solver
//! ([`ApproxMc::count_on_solver`]), passing the witnesses line 4 of
//! Algorithm 1 already enumerated, so the base case is skipped when they
//! exceed the pivot. [`ApproxMc::count`] and
//! [`ApproxMc::count_with_sampling_set`] build a solver of their own.
//!
//! **Replay.** A count keeps every witness it has seen, line 4's and each
//! cell's, in one bit-packed list, and every later cell replays the ones
//! that satisfy its rows instead of searching for them
//! ([`unigen_satsolver::KnownWitnesses`]). A cell's size, capped at
//! `pivot + 1`, is the same with or without the list, so the estimates and
//! the `BSAT` calls are too; the search work falls. Across nested widths
//! and across iterations the same few witnesses keep landing in the small
//! cells, which is where the replay pays. The list lives as long as the
//! count.

use rand::SeedableRng;

use unigen_cnf::{CnfFormula, Model, Var, XorClause};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{enumerate_cell, Budget, KnownWitnesses, Solver};

use crate::error::CountingError;

/// Configuration of [`ApproxMc`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxMcConfig {
    /// Tolerance ε: the estimate is within a factor `1 + ε` of the true count
    /// (with the configured confidence). UniGen calls the counter with 0.8.
    pub tolerance: f64,
    /// Desired confidence `1 − δ`. UniGen calls the counter with 0.8.
    pub confidence: f64,
    /// Override for the number of core iterations. When `None`, the CP 2013
    /// formula `⌈35·log2(3/δ)⌉` is used (137 at δ = 0.2), which is what its
    /// proved bound assumes. The default overrides it with 9, because the
    /// full formula costs hundreds of `BSAT` sweeps per formula; the bound
    /// of 9 iterations is measured (`tests/approxmc_oracle.rs`), not proved.
    pub iterations: Option<usize>,
}

impl Default for ApproxMcConfig {
    fn default() -> Self {
        ApproxMcConfig {
            tolerance: 0.8,
            confidence: 0.8,
            iterations: Some(9),
        }
    }
}

impl ApproxMcConfig {
    /// The cell-size threshold ("pivot") from the CP 2013 analysis:
    /// `2·e^{3/2}·(1 + 1/ε)²`, rounded up.
    pub fn pivot(&self) -> u64 {
        let e_three_half = std::f64::consts::E.powf(1.5);
        (2.0 * e_three_half * (1.0 + 1.0 / self.tolerance).powi(2)).ceil() as u64
    }

    /// Number of core iterations actually used.
    pub fn num_iterations(&self) -> usize {
        match self.iterations {
            Some(n) => n.max(1),
            None => {
                let delta = (1.0 - self.confidence).max(1e-9);
                (35.0 * (3.0 / delta).log2()).ceil() as usize
            }
        }
    }
}

/// Result of an [`ApproxMc::count`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxMcResult {
    /// The median estimate of `|R_F|`.
    pub estimate: u128,
    /// The per-iteration estimates that went into the median.
    pub iteration_estimates: Vec<u128>,
    /// Number of core iterations that failed to find a usable cell.
    pub failed_iterations: usize,
    /// Total number of `BSAT` (bounded enumeration) calls issued.
    pub bsat_calls: usize,
}

/// The approximate model counter.
///
/// See the crate-level documentation for the role it plays in UniGen and
/// [`ApproxMcConfig`] for the knobs.
///
/// # Example
///
/// ```
/// use unigen_cnf::{CnfFormula, Lit};
/// use unigen_counting::{ApproxMc, ApproxMcConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = CnfFormula::new(3);
/// f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
/// let result = ApproxMc::new(ApproxMcConfig::default()).count(&f, 7)?;
/// // The true count is 7; with tolerance 0.8 the estimate must fall in [3, 13]
/// // with high probability (and for counts below the pivot it is exact).
/// assert_eq!(result.estimate, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxMc {
    config: ApproxMcConfig,
}

impl ApproxMc {
    /// Creates a counter with the given configuration.
    pub fn new(config: ApproxMcConfig) -> Self {
        ApproxMc { config }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &ApproxMcConfig {
        &self.config
    }

    /// Estimates `|R_F|`, hashing over the formula's sampling set (or its
    /// full support when no sampling set is declared), using `seed` for all
    /// randomness.
    ///
    /// # Errors
    ///
    /// [`CountingError::NoEstimate`] if every core iteration fails.
    pub fn count(&self, formula: &CnfFormula, seed: u64) -> Result<ApproxMcResult, CountingError> {
        let sampling_set = formula.sampling_set_or_all();
        self.count_with_sampling_set(formula, &sampling_set, seed)
    }

    /// Estimates `|R_F|`, hashing over an explicit sampling set, on a solver
    /// of its own with an unlimited per-call budget.
    ///
    /// # Errors
    ///
    /// See [`ApproxMc::count`].
    ///
    /// # Panics
    ///
    /// Panics if `sampling_set` is empty.
    pub fn count_with_sampling_set(
        &self,
        formula: &CnfFormula,
        sampling_set: &[Var],
        seed: u64,
    ) -> Result<ApproxMcResult, CountingError> {
        let mut solver = Solver::from_formula(formula);
        self.count_on_solver(&mut solver, sampling_set, &[], &Budget::new(), seed)
    }

    /// Estimates `|R_F|` on `solver`, which holds the formula `F`, with
    /// `budget` for every `BSAT` call. The solver keeps only what it learns
    /// about `F` itself.
    ///
    /// `witnesses` are distinct witnesses of `F`, projected on
    /// `sampling_set`, that the caller already enumerated (UniGen passes
    /// line 4's). Above the pivot the base case cannot succeed and is
    /// skipped. It draws no randomness, so skipping it changes only
    /// `bsat_calls` unless `budget` fires. Every cell replays the known
    /// witnesses that satisfy its rows instead of searching for them (see
    /// [`enumerate_cell`]), and the witnesses each cell's search finds join
    /// the list for every later cell of the count. The list is dropped when
    /// the count returns. Replay changes no cell's capped size, so it
    /// changes no estimate and no `bsat_calls`, only the search work.
    ///
    /// # Errors
    ///
    /// * [`CountingError::BudgetExhausted`] if the base case cannot complete
    ///   within `budget`,
    /// * [`CountingError::NoEstimate`] if every core iteration fails.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_set` is empty.
    pub fn count_on_solver(
        &self,
        solver: &mut Solver,
        sampling_set: &[Var],
        witnesses: &[Model],
        budget: &Budget,
        seed: u64,
    ) -> Result<ApproxMcResult, CountingError> {
        assert!(!sampling_set.is_empty(), "sampling set must be non-empty");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pivot = self.config.pivot() as usize;
        let mut bsat_calls = 0usize;
        let mut known = KnownWitnesses::new();
        known.extend(witnesses);

        // Base case: if the formula has at most `pivot` witnesses, count them
        // exactly by enumeration (this is also what makes the estimate exact
        // for small formulas, a property the doc-test above relies on).
        if known.len() <= pivot {
            let outcome = enumerate_cell(solver, sampling_set, &[], pivot + 1, budget, &known);
            bsat_calls += 1;
            if outcome.interrupted.is_some() {
                return Err(CountingError::BudgetExhausted);
            }
            if outcome.len() <= pivot {
                return Ok(ApproxMcResult {
                    estimate: outcome.len() as u128,
                    iteration_estimates: vec![outcome.len() as u128],
                    failed_iterations: 0,
                    bsat_calls,
                });
            }
            known.extend(outcome.found());
        }

        let n = sampling_set.len();
        let family = XorHashFamily::new(sampling_set.to_vec());
        let iterations = self.config.num_iterations();
        let mut estimates: Vec<u128> = Vec::with_capacity(iterations);
        let mut failed = 0usize;
        // ApproxMC2 starts the first search at width 1 (`prevNumCells = 2`).
        let mut start = 1;
        // One `BSAT` call: the size of the cell cut by `rows`, capped at
        // `pivot + 1`, or `None` when `budget` interrupts it. A timed-out
        // cell fails the iteration, as the paper's experiments treat BSAT
        // timeouts.
        let mut cell = |rows: &[XorClause]| {
            bsat_calls += 1;
            let outcome = enumerate_cell(solver, sampling_set, rows, pivot + 1, budget, &known);
            known.extend(outcome.found());
            outcome.interrupted.is_none().then(|| outcome.len())
        };

        for _ in 0..iterations {
            let rows = family.sample(n, &mut rng).to_xor_clauses();
            match log_sat_search(n, pivot, start, |m| cell(&rows[..m])) {
                Some((size, width)) => {
                    start = width;
                    if size == 0 {
                        // The first small cell is empty: like CP'13's core,
                        // this iteration reports no estimate.
                        failed += 1;
                    } else {
                        estimates.push((size as u128) << width.min(127));
                    }
                }
                None => failed += 1,
            }
        }

        if estimates.is_empty() {
            return Err(CountingError::NoEstimate);
        }
        estimates.sort_unstable();
        let estimate = estimates[estimates.len() / 2];
        Ok(ApproxMcResult {
            estimate,
            iteration_estimates: estimates,
            failed_iterations: failed,
            bsat_calls,
        })
    }
}

/// ApproxMC2's LogSATSearch: the smallest width `m` in `1..=n` whose
/// nested cell holds at most `pivot` witnesses, with that cell's size, or
/// `None` when no width does or `cell` is interrupted. `cell(m)` is the
/// size of the cell at width `m`, capped above `pivot`; it must not grow
/// with `m`. The search starts at `start`, steps by one within 3 of it,
/// otherwise doubles, then bisects; it calls `cell` at most once per width.
fn log_sat_search(
    n: usize,
    pivot: usize,
    start: usize,
    mut cell: impl FnMut(usize) -> Option<usize>,
) -> Option<(usize, usize)> {
    // `lo` is the largest width known big (width 0, F itself, is big: the
    // base case ruled it out) and `hi` the smallest known small, with
    // `n + 1` standing for "none yet". Every probe lies strictly between.
    let (mut lo, mut hi, mut hi_cell) = (0, n + 1, 0);
    let mut m = start.clamp(1, n);
    loop {
        let size = cell(m)?;
        let big = size > pivot;
        if big {
            lo = m;
        } else {
            hi = m;
            hi_cell = size;
        }
        if hi == lo + 1 {
            return (hi <= n).then_some((hi_cell, hi));
        }
        let near = m.abs_diff(start) < 3;
        m = match (big, near) {
            (true, true) => m + 1,
            (false, true) => m - 1,
            (true, false) if 2 * m < hi => 2 * m,
            _ => (lo + hi) / 2,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::Lit;
    use unigen_counting_test_support::formula_with_count;

    /// Tiny helper module so the tests can build formulas with a known count.
    mod unigen_counting_test_support {
        use super::*;

        /// Builds a formula over `bits + extra` variables with exactly
        /// `2^bits` models: the first `bits` variables are free, each
        /// remaining variable is forced equal to one of them via an xor.
        pub fn formula_with_count(bits: usize, extra: usize) -> CnfFormula {
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
    }

    #[test]
    fn pivot_matches_cp13_formula() {
        let config = ApproxMcConfig {
            tolerance: 0.8,
            ..ApproxMcConfig::default()
        };
        // 2 e^{1.5} (1 + 1/0.8)^2 = 2 · 4.4817 · 5.0625 ≈ 45.4 → 46.
        assert_eq!(config.pivot(), 46);
    }

    #[test]
    fn iteration_formula_kicks_in_without_override() {
        let config = ApproxMcConfig {
            confidence: 0.8,
            iterations: None,
            ..ApproxMcConfig::default()
        };
        // 35 · log2(3 / 0.2) = 35 · 3.9069 ≈ 136.7 → 137.
        assert_eq!(config.num_iterations(), 137);
    }

    #[test]
    fn small_formulas_are_counted_exactly() {
        let mut f = CnfFormula::new(4);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        f.add_clause([Lit::from_dimacs(3), Lit::from_dimacs(4)])
            .unwrap();
        // 9 models < pivot, so the estimate is exact.
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 1)
            .unwrap();
        assert_eq!(result.estimate, 9);
        assert_eq!(result.bsat_calls, 1);
    }

    #[test]
    fn unsat_formula_counts_zero() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 2)
            .unwrap();
        assert_eq!(result.estimate, 0);
    }

    #[test]
    fn estimate_is_within_tolerance_for_structured_formula() {
        // 2^10 = 1024 models over a 10-variable sampling set, plus 6
        // dependent variables.
        let f = formula_with_count(10, 6);
        let config = ApproxMcConfig::default();
        let result = ApproxMc::new(config.clone()).count(&f, 3).unwrap();
        let truth = 1024f64;
        let ratio = result.estimate as f64 / truth;
        let factor = 1.0 + config.tolerance;
        assert!(
            ratio >= 1.0 / factor && ratio <= factor,
            "estimate {} outside tolerance of true count {truth}",
            result.estimate
        );
    }

    #[test]
    fn hashing_respects_sampling_set() {
        let f = formula_with_count(8, 4);
        let sampling = f.sampling_set().unwrap().to_vec();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count_with_sampling_set(&f, &sampling, 11)
            .unwrap();
        assert!(
            result.estimate >= 128,
            "estimate {} far too small",
            result.estimate
        );
        assert!(
            result.estimate <= 2048,
            "estimate {} far too large",
            result.estimate
        );
    }

    #[test]
    fn counting_constructs_exactly_one_solver() {
        let f = formula_with_count(10, 6);
        let before = Solver::constructions_on_thread();
        let result = ApproxMc::new(ApproxMcConfig::default())
            .count(&f, 7)
            .unwrap();
        assert!(result.bsat_calls > 1, "expected many BSAT calls");
        assert_eq!(
            Solver::constructions_on_thread() - before,
            1,
            "every BSAT cell must reuse the one incremental solver"
        );
    }

    /// The CP'13 width scan, kept as the reference the search must agree
    /// with: the first width `1, 2, …` whose cell holds at most `pivot`.
    fn linear_scan(
        n: usize,
        pivot: usize,
        mut cell: impl FnMut(usize) -> Option<usize>,
    ) -> Option<(usize, usize)> {
        for m in 1..=n {
            let size = cell(m)?;
            if size <= pivot {
                return Some((size, m));
            }
        }
        None
    }

    #[test]
    fn search_matches_the_scan_on_every_monotone_cell_profile() {
        let pivot = 46usize;
        for n in 1..=24 {
            // `answer == n + 1`: every width is big.
            for answer in 1..=n + 1 {
                let size = |m: usize| {
                    if m < answer {
                        pivot + 1
                    } else {
                        pivot.saturating_sub(m - answer)
                    }
                };
                let expected = linear_scan(n, pivot, |m| Some(size(m)));
                for start in 1..=n {
                    let mut probed = vec![false; n + 1];
                    let found = log_sat_search(n, pivot, start, |m| {
                        assert!(!probed[m], "width {m} probed twice (n {n}, start {start})");
                        probed[m] = true;
                        Some(size(m))
                    });
                    assert_eq!(found, expected, "n {n}, answer {answer}, start {start}");
                }
            }
        }
        // An interrupted cell ends the search with no width.
        assert_eq!(log_sat_search(8, pivot, 1, |_| None), None);
    }

    /// Runs `search` over the nested rows of one draw on `f`, counting its
    /// `BSAT` calls.
    fn search_one_draw(
        f: &CnfFormula,
        rows: &[XorClause],
        search: impl FnOnce(&mut dyn FnMut(usize) -> Option<usize>) -> Option<(usize, usize)>,
    ) -> (Option<(usize, usize)>, usize) {
        let sampling = f.sampling_set().unwrap().to_vec();
        let bound = ApproxMcConfig::default().pivot() as usize + 1;
        let mut solver = Solver::from_formula(f);
        let mut calls = 0;
        let found = search(&mut |m| {
            calls += 1;
            let outcome = enumerate_cell(
                &mut solver,
                &sampling,
                &rows[..m],
                bound,
                &Budget::new(),
                &KnownWitnesses::new(),
            );
            Some(outcome.len())
        });
        (found, calls)
    }

    #[test]
    fn search_returns_the_scan_answer_from_any_start() {
        let pivot = ApproxMcConfig::default().pivot() as usize;
        for (bits, extra) in [(9, 3), (12, 4), (15, 2)] {
            let f = formula_with_count(bits, extra);
            let family = XorHashFamily::new(f.sampling_set().unwrap().to_vec());
            for seed in 0..4 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let rows = family.sample(bits, &mut rng).to_xor_clauses();
                let (scan, scan_calls) =
                    search_one_draw(&f, &rows, |cell| linear_scan(bits, pivot, cell));
                let (_, answer) = scan.expect("a 2^bits formula has a small cell");
                for start in [1, answer, bits] {
                    let (found, calls) =
                        search_one_draw(&f, &rows, |cell| log_sat_search(bits, pivot, start, cell));
                    assert_eq!(found, scan, "2^{bits}, seed {seed}, start {start}");
                    if start == answer {
                        assert!(calls <= scan_calls.min(2), "{calls} calls from the answer");
                    }
                }
            }
        }
    }

    #[test]
    fn a_count_issues_fewer_calls_than_the_scan_for_the_same_estimates() {
        let config = ApproxMcConfig::default();
        let pivot = config.pivot() as usize;
        let bits = 16;
        let f = formula_with_count(bits, 4);
        let result = ApproxMc::new(config.clone()).count(&f, 5).unwrap();
        // The count's own draws, replayed through the CP'13 scan.
        let family = XorHashFamily::new(f.sampling_set().unwrap().to_vec());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut scan_estimates = Vec::new();
        let mut scan_calls = 1; // the base case
        for _ in 0..config.num_iterations() {
            let rows = family.sample(bits, &mut rng).to_xor_clauses();
            let (found, calls) = search_one_draw(&f, &rows, |cell| linear_scan(bits, pivot, cell));
            scan_calls += calls;
            let (cell, width) = found.unwrap();
            scan_estimates.push((cell as u128) << width);
        }
        scan_estimates.sort_unstable();
        assert_eq!(result.iteration_estimates, scan_estimates);
        assert!(result.bsat_calls < scan_calls);
        // Pinned, base case included: a return to the scan fails here.
        assert_eq!((result.bsat_calls, scan_calls), (26, 100));
    }
}
