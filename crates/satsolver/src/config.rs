//! Solver configuration.

use std::sync::Arc;

use crate::fault::FaultHook;
use crate::proof::ProofLog;

/// How the solver propagates *guarded* xor layers (hash cells).
///
/// Unguarded xor constraints always use the watched-variable engine; this
/// knob only controls whether a guard's rows are additionally compiled into
/// a per-guard Gauss–Jordan matrix (see [`crate::Solver::add_xor_under`]),
/// which discovers implications and conflicts entailed by *combinations*
/// of rows at the cost of dense row arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaussMode {
    /// Never build matrices; every xor uses watched-variable propagation.
    Off,
    /// Build a matrix for every guarded layer, regardless of size.
    On,
    /// Build a matrix only for layers with at least two rows — wide hash
    /// layers are where cross-row reasoning pays for itself, while
    /// single-row layers stay on the cheaper watched engine.
    #[default]
    Auto,
}

/// Base number of conflicts between Luby restarts.
pub(crate) const RESTART_INTERVAL: u64 = 100;
/// Multiplicative decay applied to variable activities after each conflict
/// (VSIDS).
pub(crate) const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to learned-clause activities after each
/// conflict.
pub(crate) const CLAUSE_DECAY: f64 = 0.999;
/// Initial number of learned clauses tolerated before the first
/// clause-database reduction.
pub(crate) const LEARNED_CLAUSE_LIMIT: usize = 4000;
/// Growth factor applied to the learned-clause limit after each reduction.
pub(crate) const LEARNED_CLAUSE_GROWTH: f64 = 1.3;
/// Polarity assigned to a variable the first time it is decided (phase
/// saving takes over afterwards).
pub(crate) const DEFAULT_POLARITY: bool = false;
/// Seed of the tie-breaking noise injected into initial variable
/// activities; two solvers given the same formula explore the same search
/// tree.
pub(crate) const SEED: u64 = 0x5eed_cafe;
/// Minimum number of rows a guarded layer needs before [`GaussMode::Auto`]
/// compiles it into a matrix.
pub(crate) const GAUSS_AUTO_THRESHOLD: usize = 2;

const _: () = assert!(VAR_DECAY > 0.0 && VAR_DECAY < 1.0);
const _: () = assert!(CLAUSE_DECAY > 0.0 && CLAUSE_DECAY < 1.0);
const _: () = assert!(RESTART_INTERVAL > 0);
const _: () = assert!(LEARNED_CLAUSE_GROWTH > 1.0);
const _: () = assert!(GAUSS_AUTO_THRESHOLD >= 1);

/// Per-solver settings that callers vary: the Gauss–Jordan policy, fault
/// injection and certify mode.
///
/// The CDCL search parameters (restart interval, activity decays,
/// learned-clause limits, default polarity, the tie-breaking seed and the
/// Auto threshold) are MiniSat-style folklore values fixed as constants:
/// every experiment in this repository uses them.
///
/// # Example
///
/// ```
/// use unigen_satsolver::{GaussMode, SolverConfig};
/// let config = SolverConfig {
///     gauss: GaussMode::Off,
///     ..SolverConfig::default()
/// };
/// assert_eq!(config.gauss, GaussMode::Off);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Gauss–Jordan elimination policy for guarded xor layers.
    pub gauss: GaussMode,
    /// Injectable fault oracle consulted at solve/search/seal boundaries
    /// (see [`FaultHook`]); `None` — the default — costs one pointer test
    /// per search-loop iteration and injects nothing.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
    /// DRAT-style proof sink enabling *certify mode*: when `Some`, the
    /// solver records every learned clause, deletion, xor-row expansion,
    /// Gauss derivation, guard lifecycle event, and enumeration step into
    /// the in-memory [`ProofLog`], so each Unsat / exhaustive-cell verdict
    /// can be re-validated offline by the independent `unigen-cert`
    /// checker. `None` — the default — costs one `Option` test per logging
    /// site and records nothing (the same zero-cost discipline as
    /// [`SolverConfig::fault_hook`]). Install the sink at construction
    /// time; retrieve the stream via `Solver::proof_bytes`.
    pub proof: Option<ProofLog>,
}

// `Arc<dyn FaultHook>` has no structural equality; two configs are equal
// when they share the same hook instance (or both have none) — identity is
// the right notion for an injected oracle with internal counters.
impl PartialEq for SolverConfig {
    fn eq(&self, other: &Self) -> bool {
        let hooks_equal = match (&self.fault_hook, &other.fault_hook) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        hooks_equal
            // Proof logs diverge by construction (each solver's stream is
            // its own); configs agree when certify mode is on in both.
            && self.proof.is_some() == other.proof.is_some()
            && self.gauss == other.gauss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        // The range checks on the search constants are compile-time
        // assertions next to their definitions.
        let c = SolverConfig::default();
        assert_eq!(c.gauss, GaussMode::Auto);
        assert!(c.fault_hook.is_none());
        assert!(c.proof.is_none());
    }

    #[test]
    fn proof_compares_by_presence() {
        let on = SolverConfig {
            proof: Some(ProofLog::new()),
            ..SolverConfig::default()
        };
        assert_eq!(on, on.clone());
        assert_ne!(on, SolverConfig::default());
    }

    #[test]
    fn fault_hooks_compare_by_identity() {
        use crate::fault::FaultSite;

        #[derive(Debug)]
        struct Never;
        impl FaultHook for Never {
            fn trip(&self, _site: FaultSite) -> bool {
                false
            }
        }

        let hook: Arc<dyn FaultHook> = Arc::new(Never);
        let a = SolverConfig {
            fault_hook: Some(Arc::clone(&hook)),
            ..SolverConfig::default()
        };
        let b = a.clone();
        assert_eq!(a, b);
        let c = SolverConfig {
            fault_hook: Some(Arc::new(Never)),
            ..SolverConfig::default()
        };
        assert_ne!(a, c);
        assert_ne!(a, SolverConfig::default());
    }
}
