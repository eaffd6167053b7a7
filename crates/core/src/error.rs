//! Errors reported by the samplers and the service.
//!
//! A sampler's constructor (`UniGen::new`, `UniWit::new`,
//! `XorSamplePrime::new`, `UniformSampler::with_witnesses`) returns a
//! [`SamplerError`], and [`crate::SamplerService::try_new`] returns a
//! [`ServiceConfigError`]. Either means the sampler could never have
//! produced a witness: the formula, the config or the service config must
//! change. Submitting a request cannot fail: the pool admits every request.
//!
//! An unsuccessful *sample* (the paper's `⊥`) is neither: it is an ordinary
//! outcome, reported through [`crate::SampleOutcome::witness`] being `None`.

use std::fmt;

use unigen_counting::CountingError;

/// Errors that can occur while constructing or preparing a sampler.
///
/// Note that an *unsuccessful sample* (the paper's `⊥` outcome) is not an
/// error: probabilistic generators are allowed to fail occasionally, and the
/// failure is reported through [`crate::SampleOutcome::witness`] being
/// `None`. Errors are reserved for conditions that make sampling impossible
/// or meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SamplerError {
    /// The tolerance ε is at or below the theoretical minimum of 1.71 for
    /// which `ComputeKappaPivot` has a solution (Algorithm 2).
    EpsilonTooSmall {
        /// The rejected tolerance.
        epsilon_milli: u64,
    },
    /// The formula has no witnesses at all.
    Unsatisfiable,
    /// The formula (or the caller) declared an empty sampling set.
    EmptySamplingSet,
    /// The approximate model counter failed (line 9 of Algorithm 1).
    Counting(CountingError),
    /// The initial bounded enumeration (line 4 of Algorithm 1) exceeded its
    /// budget, so the sampler could not be prepared.
    PreparationBudgetExhausted,
    /// Certified enumeration was requested and the preparation phase's proof
    /// failed to check: the solver claimed something the independent
    /// [`unigen_cert`] checker could not verify. The rendered
    /// [`unigen_cert::CheckError`] is carried as text (the error type itself
    /// lives in the checker crate, which this crate must not leak into its
    /// stable error surface).
    CertificationFailed {
        /// The checker's rejection, rendered.
        detail: String,
    },
}

impl fmt::Display for SamplerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerError::EpsilonTooSmall { epsilon_milli } => write!(
                f,
                "tolerance {:.3} is not above the minimum of 1.71 required by ComputeKappaPivot",
                *epsilon_milli as f64 / 1000.0
            ),
            SamplerError::Unsatisfiable => write!(f, "the formula has no witnesses"),
            SamplerError::EmptySamplingSet => write!(f, "the sampling set is empty"),
            SamplerError::Counting(err) => write!(f, "model counting failed: {err}"),
            SamplerError::PreparationBudgetExhausted => {
                write!(f, "the preparation phase exhausted its budget")
            }
            SamplerError::CertificationFailed { detail } => {
                write!(f, "proof certification failed during preparation: {detail}")
            }
        }
    }
}

impl std::error::Error for SamplerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplerError::Counting(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CountingError> for SamplerError {
    fn from(err: CountingError) -> Self {
        SamplerError::Counting(err)
    }
}

impl SamplerError {
    /// Convenience constructor carrying the rejected ε (stored in
    /// thousandths to keep the error type `Eq`).
    pub fn epsilon_too_small(epsilon: f64) -> Self {
        SamplerError::EpsilonTooSmall {
            epsilon_milli: (epsilon * 1000.0).round().max(0.0) as u64,
        }
    }
}

/// Rejection returned by [`crate::SamplerService::try_new`] when a
/// [`crate::service::ServiceConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceConfigError {
    /// The configuration asked for a pool of zero workers; a service with
    /// no workers could never answer a request.
    ZeroWorkers,
}

impl fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceConfigError::ZeroWorkers => {
                write!(f, "a sampler service requires at least one worker")
            }
        }
    }
}

impl std::error::Error for ServiceConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_error_reports_value() {
        let err = SamplerError::epsilon_too_small(1.5);
        assert!(err.to_string().contains("1.500"));
    }

    #[test]
    fn counting_errors_convert_and_chain() {
        use std::error::Error;
        let err: SamplerError = CountingError::NoEstimate.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("counting"));
    }
}
