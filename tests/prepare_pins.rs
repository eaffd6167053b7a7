//! Pins UniGen's preparation against the standalone approximate counter.
//!
//! `UniGen::new` runs line 4 of Algorithm 1 and ApproxMC on one persistent
//! solver, and ApproxMC skips its base case when line 4 already enumerated
//! more than `pivot` witnesses. The base case draws no randomness and a
//! cell's size under a bound does not depend on solver state, so the
//! prepared `approx_count` and `q` must equal what a standalone
//! `ApproxMc::count_with_sampling_set` on a fresh solver gives for the same
//! seed, and the shared count must issue exactly one `BSAT` call fewer when
//! the base case was skipped, and the same number otherwise.

use unigen::{compute_kappa_pivot, PreparedMode, UniGen, UniGenConfig};
use unigen_circuit::benchmarks::{iscas_like, login_like, long_chain, parity_chain, sorter};
use unigen_cnf::{CnfFormula, Var, XorClause};
use unigen_counting::ApproxMc;

/// `2^bits` witnesses over a `bits`-variable sampling set plus `extra`
/// dependent variables.
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

/// The serving benchmark's login3x6-like resident, one formula of each of
/// its cold-circuit families, and formulas with a known count. The other
/// resident, llreverse-like, takes about 25 s per prepare in a debug build,
/// so it is pinned once, at the default ε its workload runs at.
fn corpus() -> Vec<(String, CnfFormula)> {
    let mut corpus: Vec<(String, CnfFormula)> = [
        login_like("login3x6-like", 3, 6, 0x1061),
        parity_chain("parity", 16, 4, 5, 0x0c01),
        iscas_like("iscas", 14, 180, 5, 0x0c02),
        login_like("login", 3, 6, 0x0c03),
        sorter("sorter", 4, 4, 6, 0x0c04),
    ]
    .into_iter()
    .map(|bench| (bench.name, bench.formula))
    .collect();
    for (bits, extra) in [(6, 0), (7, 3), (10, 4), (12, 6)] {
        corpus.push((
            format!("count-2^{bits}+{extra}"),
            formula_with_count(bits, extra),
        ));
    }
    corpus
}

/// The upper end of the hash-width window for an approximate count, as
/// line 10 of Algorithm 1 derives it.
fn q_of(count: u128, pivot: u64) -> usize {
    let count = count.max(1) as f64;
    let q = (count.log2() + 1.8f64.log2() - (pivot as f64).log2()).ceil();
    q.max(1.0) as usize
}

/// Prepares every formula at `epsilon` and checks it against the standalone
/// count. Returns how many formulas took the hashed path.
fn pin_prepares(epsilon: f64, corpus: Vec<(String, CnfFormula)>) -> usize {
    let config = UniGenConfig::default().with_epsilon(epsilon);
    let kappa_pivot = compute_kappa_pivot(epsilon).unwrap();
    let counter = ApproxMc::new(config.approxmc.clone());
    let pivot = counter.config().pivot() as usize;
    let mut hashed = 0;
    for (name, formula) in corpus {
        let sampler = UniGen::new(&formula, config.clone()).unwrap();
        let PreparedMode::Hashed { approx_count, q } = *sampler.prepared_mode() else {
            continue;
        };
        hashed += 1;
        let standalone = counter
            .count_with_sampling_set(&formula, &formula.sampling_set_or_all(), config.seed)
            .unwrap();
        assert_eq!(
            approx_count, standalone.estimate,
            "{name} at ε = {epsilon}: shared-solver count differs from the standalone one"
        );
        assert_eq!(
            q,
            q_of(standalone.estimate, kappa_pivot.pivot),
            "{name} at ε = {epsilon}: q does not follow from the standalone count"
        );

        // Every BSAT call opens one guard on the persistent solver: line 4's
        // call, then each of ApproxMC's.
        let shared_calls = sampler.solver_stats().guards_created as usize - 1;
        // A hashed prepare means line 4 filled its bound of hiThresh + 1.
        let seen = kappa_pivot.hi_thresh_count() + 1;
        let skipped = usize::from(seen > pivot);
        assert_eq!(
            standalone.bsat_calls,
            shared_calls + skipped,
            "{name} at ε = {epsilon}: line 4 saw {seen} witnesses against pivot {pivot}"
        );
    }
    hashed
}

#[test]
fn default_epsilon_skips_the_base_case_and_keeps_every_count() {
    // hiThresh = 62: line 4 sees 63 witnesses, well above the pivot of 46.
    assert_eq!(pin_prepares(6.0, corpus()), 9);
}

#[test]
fn llreverse_like_resident_keeps_its_count() {
    let chain = long_chain("llreverse-like", 12, 60, 5, 0x11ef);
    assert_eq!(pin_prepares(6.0, vec![(chain.name, chain.formula)]), 1);
}

#[test]
fn seen_one_above_the_pivot_skips_the_base_case() {
    // hiThresh = 46: line 4 sees exactly pivot + 1 = 47 witnesses.
    assert_eq!(compute_kappa_pivot(30.0).unwrap().hi_thresh_count(), 46);
    assert!(pin_prepares(30.0, corpus()) >= 8);
}

#[test]
fn seen_at_the_pivot_still_runs_the_base_case() {
    // hiThresh = 45: line 4 sees exactly pivot = 46 witnesses, too few to
    // rule the base case out, so it runs on the shared solver.
    assert_eq!(compute_kappa_pivot(50.0).unwrap().hi_thresh_count(), 45);
    assert!(pin_prepares(50.0, corpus()) >= 8);
}
