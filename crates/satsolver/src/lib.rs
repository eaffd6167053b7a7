//! An incremental CDCL SAT solver with native xor-constraint support and
//! bounded witness enumeration, standing in for CryptoMiniSAT in the UniGen
//! reproduction.
//!
//! **Paper map:** implements the `BSAT(F ∧ (h(y) = α), hiThresh, S)`
//! primitive that Algorithm 1 of *Balancing Scalability and Uniformity in
//! SAT Witness Generator* (DAC 2014) invokes on lines 10 and 17, including
//! the sampling-set-projected blocking clauses that make enumerated
//! witnesses distinct on `S` (Section 2), and the per-invocation budgets the
//! paper's experiments impose (Section 4).
//!
//! The paper's algorithm needs exactly two services from its SAT back end:
//!
//! 1. solving CNF formulas conjoined with random **xor constraints** drawn
//!    from the hash family `H_xor(|S|, m, 3)`, and
//! 2. `BSAT(F, N)` — enumerating up to `N` witnesses that are **distinct on
//!    the sampling set** `S`, using blocking clauses restricted to `S`.
//!
//! Both services are issued *many times against the same base formula*: a
//! sampling run solves `F` under a long sequence of different hash layers.
//! This crate therefore exposes an **incremental interface** so that one
//! [`Solver`] survives the whole sequence:
//!
//! * [`Solver::solve_under_assumptions`] solves with a set of assumption
//!   literals installed as the first decision levels (the MiniSat
//!   discipline), so an `Unsat` answer under assumptions leaves the solver
//!   consistent and reusable;
//! * [`Solver::new_guard`] allocates an *activation guard* `g`;
//!   [`Solver::add_xor_under`] / [`Solver::add_clause_under`] attach a hash
//!   layer (and the enumerator's blocking clauses) to it, representing
//!   `g ∨ constraint`. The layer is enabled by assuming
//!   [`Guard::assumption`] (`¬g`) and removed for good by
//!   [`Solver::retire_guard`], which asserts `g` and deletes every clause
//!   mentioning the guard.
//!
//! # What survives a cell, and why it is sound
//!
//! While a guard is active, `¬g` is a pseudo-decision, so `g` is falsified
//! at a decision level ≥ 1 — never at level zero. First-UIP conflict
//! analysis keeps every falsified literal above level zero, so **any learned
//! clause whose derivation touched a guarded constraint contains `g`** and
//! is thereby tagged with its cell. Retiring the guard deletes exactly those
//! clauses (and satisfies any straggler by asserting `g`). Everything else —
//! learned clauses over base-formula variables, VSIDS activities, saved
//! phases, and the clause arena's watch lists — carries over to the next
//! cell, which is where the incremental interface gets its speedup
//! (measured in `BENCH_incremental.json` at the repository root).
//!
//! The crate provides:
//!
//! * [`Solver`] — a conflict-driven clause-learning solver with two-watched
//!   literals over a flat clause arena (blocker literals skip satisfied
//!   clauses without touching clause memory), first-UIP clause learning,
//!   VSIDS decisions with phase saving, Luby restarts, LBD-based
//!   learned-clause reduction, a watched-variable propagation engine for
//!   (optionally guarded) xor constraints with lazily generated reason
//!   clauses, and per-guard Gauss–Jordan matrices ([`SolverConfig::gauss`])
//!   that recover implications and conflicts entailed by *combinations* of a
//!   hash layer's xor rows,
//! * [`enumerate::bounded_solutions`] (the paper's `BSAT`),
//!   [`enumerate::Enumerator`] for incremental enumeration with
//!   sampling-set-restricted blocking clauses, and
//!   [`enumerate::enumerate_cell`] — the guard-scoped hash-cell `BSAT` every
//!   sampler loop in the workspace is built on,
//! * [`Budget`] — per-call conflict/time budgets emulating the paper's
//!   per-`BSAT`-invocation timeouts.
//!
//! # Example
//!
//! ```
//! use unigen_cnf::{CnfFormula, Lit, XorClause};
//! use unigen_satsolver::{Solver, SolveResult};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])?;
//!
//! let mut solver = Solver::from_formula(&f);
//!
//! // One persistent solver, many hash cells:
//! let guard = solver.new_guard();
//! solver.add_xor_under(XorClause::from_dimacs([1, 2, 3], true), guard);
//! match solver.solve_under_assumptions(&[guard.assumption()]) {
//!     SolveResult::Sat(model) => assert!(f.evaluate(&model)),
//!     SolveResult::Unsat => {} // cell is empty; the solver stays usable
//!     other => panic!("unexpected {other:?}"),
//! }
//! solver.retire_guard(guard); // drop the hash layer, keep what was learned
//! assert!(solver.solve().is_sat());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause_db;
mod config;
mod decide;
mod fault;
mod gauss;
mod restart;
mod solver;
mod stats;
mod xor_engine;

pub mod enumerate;
pub mod proof;
pub mod support;

pub use budget::Budget;
pub use config::{GaussMode, SolverConfig};
pub use enumerate::{
    bounded_solutions, enumerate_cell, EnumerationOutcome, Enumerator, KnownWitnesses,
};
pub use fault::{FaultHook, FaultSite, InterruptReason};
pub use proof::ProofLog;
pub use solver::{Guard, SolveResult, Solver};
pub use stats::SolverStats;
