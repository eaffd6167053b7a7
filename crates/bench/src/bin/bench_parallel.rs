//! Thread-scaling throughput benchmark for the deterministic parallel batch
//! engine, emitting the machine-readable `BENCH_parallel.json` baseline.
//!
//! ```text
//! bench_parallel [--check BASELINE | --out PATH]
//! ```
//!
//! The gate number is parallel efficiency at the max thread count: pool
//! samples/sec over the same run's serial samples/sec, a host-portable
//! ratio. Serial equivalence (identical witness sequence at every thread
//! count) is checked on every run; when the baseline was recorded on a host
//! with a different CPU count, `--check` skips only the numeric half. The
//! policy (best of three, the 15% floor, the flags) is
//! [`unigen_bench::gate`]'s.

use std::process::ExitCode;

use unigen_bench::gate;
use unigen_bench::parallel::{
    parallel_bench_suite, run_parallel_bench, ParallelBenchConfig, ParallelReport,
};

fn full() -> ParallelReport {
    run_parallel_bench(&parallel_bench_suite(), &ParallelBenchConfig::default())
}

fn main() -> ExitCode {
    gate::main(full, None)
}
