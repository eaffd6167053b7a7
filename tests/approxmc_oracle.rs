//! ApproxMC against the exact counter: the `(1.8, 0.8)` guarantee UniGen's
//! Lemma 3 relies on, measured at 10³–10⁴ witnesses.
//!
//! Each formula's true count `C` comes from the in-tree `ExactCounter`.
//! ApproxMC runs with its default configuration over many seeds, and a
//! one-sided binomial test checks that the rate of estimates inside
//! `[C/1.8, 1.8·C]` is consistent with at least 0.8. The default
//! configuration runs `iterations: Some(9)` core iterations, not the 137
//! that CP'13's `⌈35·log2(3/δ)⌉` gives at δ = 0.2, so the test measures the
//! rate that 9 iterations achieve rather than assuming the proved bound.

use rand::{Rng, SeedableRng};

use unigen_circuit::benchmarks::parity_chain;
use unigen_cnf::{CnfFormula, Var, XorClause};
use unigen_counting::{ApproxMc, ApproxMcConfig, ExactCounter};

/// Seeds per formula.
const SEEDS: u64 = 30;

/// Significance of the one-sided test: the test fails only if a rate of
/// 0.8 would give as few in-band estimates with probability below this.
const ALPHA: f64 = 1e-3;

/// A random 3-CNF over `n` variables with `m` clauses.
fn random_3cnf(n: usize, m: usize, seed: u64) -> CnfFormula {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut f = CnfFormula::new(n);
    for _ in 0..m {
        let mut vars: Vec<usize> = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.gen_range(0..n);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        f.add_clause(vars.into_iter().map(|v| Var::new(v).lit(rng.gen())))
            .unwrap();
    }
    f
}

/// `2^bits` witnesses over a `bits`-variable sampling set; each of the
/// `extra` dependent variables is the xor of two sampling-set variables.
fn xor_dependent(bits: usize, extra: usize) -> CnfFormula {
    let mut f = CnfFormula::new(bits + extra);
    for i in 0..extra {
        f.add_xor_clause(XorClause::new(
            [
                Var::new(i % bits),
                Var::new((i + 5) % bits),
                Var::new(bits + i),
            ],
            false,
        ))
        .unwrap();
    }
    f.set_sampling_set((0..bits).map(Var::new)).unwrap();
    f
}

/// Formulas whose count over all variables equals their count projected on
/// the sampling set (none declared, or one that determines the rest), so
/// the exact counter's `C` is what ApproxMC estimates.
fn corpus() -> Vec<(String, CnfFormula)> {
    vec![
        ("random-3cnf-16x24".to_string(), random_3cnf(16, 24, 0x0a11)),
        ("random-3cnf-18x40".to_string(), random_3cnf(18, 40, 0x0a12)),
        ("random-3cnf-20x44".to_string(), random_3cnf(20, 44, 0x0a13)),
        ("xor-2^12".to_string(), xor_dependent(12, 6)),
        {
            let b = parity_chain("case-15x3", 15, 3, 4, 0x0115);
            (b.name, b.formula)
        },
    ]
}

/// `Pr[X ≤ k]` for `X ~ Binomial(n, p)`.
fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    let mut pmf = (1.0 - p).powi(n as i32); // Pr[X = 0]
    let mut cdf = pmf;
    for i in 1..=k {
        pmf *= (n - i + 1) as f64 / i as f64 * p / (1.0 - p);
        cdf += pmf;
    }
    cdf.min(1.0)
}

#[test]
fn binomial_cdf_matches_hand_values() {
    assert!((binomial_cdf(0, 2, 0.5) - 0.25).abs() < 1e-12);
    assert!((binomial_cdf(1, 2, 0.5) - 0.75).abs() < 1e-12);
    assert!((binomial_cdf(3, 3, 0.8) - 1.0).abs() < 1e-12);
    // Pr[Bin(10, 0.8) ≤ 5] = 0.0327935…
    assert!((binomial_cdf(5, 10, 0.8) - 0.032_793_5).abs() < 1e-6);
}

#[test]
fn approxmc_lands_in_the_band_at_least_eight_times_in_ten() {
    let config = ApproxMcConfig::default();
    let factor = 1.0 + config.tolerance;
    let counter = ApproxMc::new(config);
    let (mut trials, mut hits) = (0u64, 0u64);
    for (name, formula) in corpus() {
        let exact = ExactCounter::new().count(&formula).unwrap();
        assert!(
            (1_000..=10_000).contains(&exact),
            "{name}: {exact} witnesses, outside the oracle's 10³–10⁴ range"
        );
        let mut in_band = 0;
        for seed in 0..SEEDS {
            let estimate = counter.count(&formula, seed).unwrap().estimate as f64;
            let ratio = estimate / exact as f64;
            if ratio >= 1.0 / factor && ratio <= factor {
                in_band += 1;
            }
        }
        eprintln!("{name}: C = {exact}, {in_band}/{SEEDS} estimates in band");
        trials += SEEDS;
        hits += in_band;
    }
    let p_value = binomial_cdf(hits, trials, 0.8);
    eprintln!(
        "in band: {hits}/{trials} = {:.3}; Pr[Bin({trials}, 0.8) ≤ {hits}] = {p_value:.3e}",
        hits as f64 / trials as f64
    );
    assert!(
        p_value >= ALPHA,
        "{hits}/{trials} in band: a rate of 0.8 would give so few with probability {p_value:.2e}"
    );
}
