//! UniGen — almost-uniform generation of SAT witnesses (DAC 2014), rebuilt in
//! Rust together with every baseline the paper measures against.
//!
//! Constrained-random verification needs *random enough* stimuli: given a
//! constraint `F` over circuit inputs, every solution should be (almost)
//! equally likely to be generated, because bugs are not known to hide in any
//! particular corner. [`UniGen`] provides that guarantee: for a tolerance
//! `ε > 1.71` and an independent support `S` of `F`, every witness `y` is
//! produced with probability within a `(1 + ε)` factor of uniform
//! (Theorem 1), with success probability at least 0.62, while hashing only
//! over `S` keeps the xor constraints short enough to scale.
//!
//! The crate also contains the comparison points used in the paper's
//! evaluation:
//!
//! * [`UniWit`] — the CAV 2013 near-uniform generator (full-support hashing,
//!   per-sample search for the hash width),
//! * [`XorSamplePrime`] — the NIPS 2007 sampler that needs a user-supplied
//!   hash width,
//! * [`UniformSampler`] — the ideal sampler "US" used in the Figure 1
//!   uniformity study (exact count + uniform index draw),
//! * [`stats`] — count-of-count histograms and distance measures for the
//!   uniformity comparison.
//!
//! Each family is prepared by its typed constructor ([`UniGen::new`] with a
//! [`UniGenConfig`], [`UniWit::new`], [`XorSamplePrime::new`],
//! [`UniformSampler::with_witnesses`]), so an option a family does not have
//! is a compile error rather than a runtime one.
//!
//! For high-volume generation the crate exposes a **service API**: a
//! [`SamplerService`] over any prepared sampler answers typed
//! [`SampleRequest`]s over a persistent one-queue worker pool with a
//! bit-identical-at-any-worker-count determinism contract — the paper's
//! "embarrassingly parallel" observation made concrete and shaped for an
//! RPC boundary. See
//! [`WitnessSampler::sample_batch`] for the serial reference semantics and
//! the [`service`] module docs for the contract.
//!
//! With [`UniGenConfig::certify`] the persistent solver additionally logs a
//! DRAT-style proof of every cell enumeration, verified online by the
//! independent `unigen-cert` checker (and offline via `cargo xtask certify`
//! over a dumped stream); see [`cert_formula`] and the `unigen-cert` crate
//! docs for the certificate semantics.
//!
//! ```
//! use unigen::{SampleRequest, SamplerService, ServiceConfig, UniGen, UniGenConfig};
//! use unigen_cnf::{CnfFormula, Lit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
//! let sampler = UniGen::new(&f, UniGenConfig::default().with_epsilon(6.0))?;
//! let service = SamplerService::try_new(sampler, ServiceConfig::default().with_workers(2))?;
//! let response = service.submit(SampleRequest::new(8, 0xdac2014)).wait();
//! assert_eq!(response.outcomes.len(), 8);
//! # Ok(())
//! # }
//! ```
//!
//! # Quick start
//!
//! ```
//! use rand::SeedableRng;
//! use unigen::{UniGen, UniGenConfig, WitnessSampler};
//! use unigen_cnf::{CnfFormula, Lit, Var, XorClause};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // x3 = x1 ⊕ x2, x4 = x1 ∨ x2; the inputs {x1, x2} form an independent
//! // support. (Real workloads get F and S from a CRV front end; see the
//! // `unigen-circuit` crate.)
//! let mut f = CnfFormula::new(4);
//! f.add_xor_clause(XorClause::from_dimacs([1, 2, 3], false))?;
//! f.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(4)])?;
//! f.add_clause([Lit::from_dimacs(-2), Lit::from_dimacs(4)])?;
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(-4)])?;
//! f.set_sampling_set([Var::from_dimacs(1), Var::from_dimacs(2)])?;
//!
//! let mut sampler = UniGen::new(&f, UniGenConfig::default())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = sampler.sample(&mut rng);
//! let witness = outcome.witness.expect("the formula is satisfiable");
//! assert!(f.evaluate(&witness));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod config;
mod error;
mod fault;
mod kappa_pivot;
mod sampler;
pub mod service;
mod unigen;
mod uniwit;
mod us;
mod xorsample;

pub mod stats;

pub use certify::cert_formula;
pub use config::UniGenConfig;
pub use error::{SamplerError, ServiceConfigError};
pub use fault::FaultPlan;
pub use kappa_pivot::{compute_kappa_pivot, KappaPivot};
pub use sampler::{stream_for_index, OutcomeKind, SampleOutcome, SampleStats, WitnessSampler};
pub use service::{
    ResponseHandle, SampleRequest, SampleResponse, SamplerService, ServiceConfig, ServiceHealth,
    WorkerPool,
};
pub use unigen::{PreparedMode, UniGen};
pub use uniwit::{UniWit, UniWitConfig};
pub use us::UniformSampler;
pub use xorsample::{XorSamplePrime, XorSamplePrimeConfig};
