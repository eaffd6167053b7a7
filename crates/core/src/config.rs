//! Sampler configuration.
//!
//! [`UniGenConfig`] is what [`crate::UniGen::new`] and
//! [`crate::UniGen::with_sampling_set`] take —
//! `UniGen::new(&f, UniGenConfig::default().with_epsilon(6.0))?`. The other
//! families' configs ([`crate::UniWitConfig`], [`crate::XorSamplePrimeConfig`])
//! live next to their samplers; each config holds only the options its
//! family has, so a misapplied option does not compile.

use unigen_counting::ApproxMcConfig;
use unigen_satsolver::Budget;

/// Configuration of [`crate::UniGen`].
///
/// The defaults mirror the paper's experimental setup scaled to a laptop:
/// tolerance ε = 6 (the value used for every row of Tables 1 and 2),
/// `ApproxMC(F, 0.8, 0.8)` for the one-off count, and a generous per-`BSAT`
/// budget standing in for the 2 500-second per-call timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct UniGenConfig {
    /// Tolerance ε (> 1.71). Smaller values give stronger uniformity but
    /// larger cells and therefore more expensive `BSAT` calls.
    pub epsilon: f64,
    /// Seed for every random choice the sampler's *preparation* makes (the
    /// per-sample randomness comes from the RNG passed to `sample`).
    pub seed: u64,
    /// Budget for each underlying solver call, the preparation's included:
    /// line 4's enumeration and every `BSAT` call of ApproxMC.
    pub bsat_budget: Budget,
    /// Configuration of the approximate model counter used in line 9. Its
    /// `budget` is not consulted: ApproxMC runs under
    /// [`UniGenConfig::bsat_budget`].
    pub approxmc: ApproxMcConfig,
    /// Certified enumeration: when `true` the persistent solver logs a
    /// DRAT-style proof of every cell enumeration and an independent
    /// [`unigen_cert`] checker verifies it online. A cell whose proof fails
    /// to check is reported as [`crate::OutcomeKind::Faulted`] rather than
    /// trusted; a failure during preparation surfaces as
    /// [`crate::SamplerError::CertificationFailed`]. Off by default — the
    /// solver's proof hooks are a single pointer test when disabled, but
    /// logging and checking cost real time and memory when enabled.
    pub certify: bool,
}

impl Default for UniGenConfig {
    fn default() -> Self {
        UniGenConfig {
            epsilon: 6.0,
            seed: 0xdac2_0140,
            bsat_budget: Budget::new(),
            approxmc: ApproxMcConfig::default(),
            certify: false,
        }
    }
}

impl UniGenConfig {
    /// Returns a copy of this configuration with a different tolerance.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy of this configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy of this configuration with a per-call solver budget.
    pub fn with_bsat_budget(mut self, budget: Budget) -> Self {
        self.bsat_budget = budget;
        self
    }

    /// Returns a copy of this configuration with certified enumeration
    /// switched on or off (see [`UniGenConfig::certify`]).
    pub fn with_certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let config = UniGenConfig::default();
        assert_eq!(config.epsilon, 6.0);
        assert!(config.bsat_budget.is_unlimited());
        assert_eq!(config.approxmc.tolerance, 0.8);
        assert_eq!(config.approxmc.confidence, 0.8);
        assert!(!config.certify);
    }

    #[test]
    fn builder_style_setters() {
        let config = UniGenConfig::default()
            .with_epsilon(8.0)
            .with_seed(42)
            .with_bsat_budget(Budget::new().with_conflict_limit(10))
            .with_certify(true);
        assert_eq!(config.epsilon, 8.0);
        assert_eq!(config.seed, 42);
        assert_eq!(config.bsat_budget.conflict_limit(), Some(10));
        assert!(config.certify);
    }
}
