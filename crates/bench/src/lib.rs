//! Benchmark harness for regenerating the paper's tables and figure.
//!
//! The binaries in this crate print laptop-scale versions of the paper's
//! evaluation artefacts:
//!
//! * `table1` — runtime/success/xor-length comparison of UniGen vs UniWit
//!   over one representative instance per family (Table 1),
//! * `table2` — the extended comparison (Table 2 in the appendix),
//! * `figure1` — the count-of-counts uniformity comparison of UniGen against
//!   the ideal sampler US (Figure 1), plus summary distances,
//!
//! and three gate binaries, `bench_incremental`, `bench_parallel` and
//! `bench_prepare`, measure against the committed `BENCH_*.json` baselines.
//! The [`harness`] module holds the shared measurement and formatting code
//! and the incremental solver benchmark, the [`parallel`] module the
//! thread-scaling throughput benchmark, the [`prepare`] module the prepare
//! benchmark, and the [`gate`] module the one gate policy all three use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gate;
pub mod harness;
pub mod parallel;
pub mod prepare;
