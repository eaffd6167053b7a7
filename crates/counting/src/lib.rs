//! Model counters for the UniGen reproduction.
//!
//! **Paper map:** provides the `ApproxModelCounter(F, S, 0.8, 0.8)` call on
//! line 9 of Algorithm 1 in *Balancing Scalability and Uniformity in SAT
//! Witness Generator* (DAC 2014); the counter itself is the ApproxMC
//! algorithm of Chakraborty, Meel and Vardi (CP 2013). The exact counter
//! backs the ideal sampler US in the Figure 1 uniformity study.
//!
//! UniGen needs one counting primitive (line 9 of Algorithm 1): an
//! **approximate model counter** with tolerance 0.8 and confidence 0.8, used
//! once per formula to centre the narrow window `{q−3,…,q}` of candidate
//! hash widths. The uniformity study (Figure 1) additionally needs an
//! **exact** count of `|R_F|` for the ideal sampler US. This crate provides
//! both, built on the workspace's own SAT solver:
//!
//! * [`ExactCounter`] — a DPLL-style `#SAT` procedure with unit propagation,
//!   connected-component decomposition and component caching (a compact
//!   sharpSAT stand-in, adequate for the instance sizes the exact count is
//!   ever needed for),
//! * [`ApproxMc`] — the hashing-based approximate counter of Chakraborty,
//!   Meel and Vardi (CP 2013), the `ApproxModelCounter` the paper invokes;
//!   leap-frogging is **disabled** exactly as in the paper's experiments.
//!
//! # Example
//!
//! ```
//! use unigen_cnf::{CnfFormula, Lit};
//! use unigen_counting::{ApproxMc, ApproxMcConfig, ExactCounter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // x1 ∨ x2 over two variables has exactly 3 models.
//! let mut f = CnfFormula::new(2);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])?;
//!
//! let exact = ExactCounter::new().count(&f)?;
//! assert_eq!(exact, 3);
//!
//! let approx = ApproxMc::new(ApproxMcConfig::default()).count(&f, 42)?;
//! assert!(approx.estimate >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approxmc;
mod error;
mod exact;

pub use approxmc::{ApproxMc, ApproxMcConfig, ApproxMcResult};
pub use error::CountingError;
pub use exact::ExactCounter;
