//! Incremental-vs-scratch `BSAT` benchmark: measures how much the persistent
//! guard-scoped solver saves over rebuilding a solver per hash cell — with a
//! Gauss–Jordan on/off ablation of the incremental mode — and emits the
//! machine-readable `BENCH_incremental.json` perf baseline.
//!
//! ```text
//! bench_incremental [--smoke | --check BASELINE | --out PATH]
//! ```
//!
//! The gate number is the geometric-mean speedup of the incremental path
//! over scratch; `--check` also fails if any instance's per-mode witness
//! count differs from the baseline's, and `--smoke` if the incremental path
//! is slower than scratch on one tiny instance. The policy (best of three,
//! the 15% floor, the flags) is [`unigen_bench::gate`]'s.

use std::process::ExitCode;

use unigen_bench::gate;
use unigen_bench::harness::{
    incremental_bench_suite, run_incremental_bench, IncrementalBenchConfig, IncrementalReport,
};
use unigen_circuit::benchmarks;

fn full() -> IncrementalReport {
    run_incremental_bench(
        &incremental_bench_suite(),
        &IncrementalBenchConfig::default(),
    )
}

/// A single small instance in the representative regime (constrained
/// circuit, small cells relative to clause mass), where rebuilding a solver
/// per cell visibly costs; the incremental path must win.
fn smoke() -> IncrementalReport {
    let suite = vec![benchmarks::iscas_like("smoke", 14, 180, 11, 0x0526)];
    let config = IncrementalBenchConfig {
        cells_per_width: 3,
        width_window: 3,
        bound: 32,
        seed: 0xdac2014,
    };
    run_incremental_bench(&suite, &config)
}

fn main() -> ExitCode {
    gate::main(full, Some(smoke))
}
