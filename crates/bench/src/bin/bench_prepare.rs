//! Prepare benchmark: times `UniGen::new` on each instance of a fixed
//! corpus against an interleaved reference kernel and emits the
//! machine-readable `BENCH_prepare.json` baseline.
//!
//! ```text
//! bench_prepare [--check BASELINE | --out PATH]
//! ```
//!
//! The gate number is the geometric mean of reference time over prepare
//! time (see [`unigen_bench::prepare`]); `--check` also fails if any
//! instance's `BSAT` calls, ApproxMC estimate or `q` differs from the
//! baseline's. The policy (best of three, the 15% floor,
//! the flags) is [`unigen_bench::gate`]'s.

use std::process::ExitCode;

use unigen_bench::gate;
use unigen_bench::prepare::{prepare_bench_suite, run_prepare_bench, PrepareReport};

fn full() -> PrepareReport {
    run_prepare_bench(&prepare_bench_suite())
}

fn main() -> ExitCode {
    gate::main(full, None)
}
