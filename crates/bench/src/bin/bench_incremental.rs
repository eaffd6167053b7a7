//! Incremental-vs-scratch `BSAT` benchmark: measures how much the persistent
//! guard-scoped solver saves over rebuilding a solver per hash cell — with a
//! Gauss–Jordan on/off ablation of the incremental mode — and emits the
//! machine-readable `BENCH_incremental.json` perf baseline.
//!
//! ```text
//! bench_incremental [--smoke] [--check BASELINE] [--tolerance FRAC] [--out PATH]
//!
//!   --smoke           run one tiny instance and exit non-zero if the
//!                     incremental path is slower than scratch or the modes
//!                     disagree (CI gate)
//!   --check BASELINE  re-run the full suite (best of three) and exit
//!                     non-zero if the geometric-mean speedup regressed more
//!                     than the tolerance below the committed baseline, or
//!                     if any instance's per-mode witness count differs
//!                     from the baseline's
//!   --tolerance FRAC  allowed relative regression for --check [default: 0.15]
//!   --out PATH        where to write the JSON report [default: BENCH_incremental.json]
//! ```

use std::process::ExitCode;

use unigen_bench::harness::{
    incremental_bench_suite, parse_baseline_geomean, parse_baseline_witnesses,
    render_incremental_json, run_incremental_bench, IncrementalBenchConfig, IncrementalReport,
};
use unigen_circuit::benchmarks;

fn report_is_sound(report: &IncrementalReport) -> bool {
    report.instances.iter().all(|i| i.witnesses_match())
}

fn print_summary(report: &IncrementalReport) {
    eprintln!(
        "{:<20} {:>6} {:>9} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "instance",
        "cells",
        "witnesses",
        "scratch(s)",
        "increm.(s)",
        "nogauss(s)",
        "speedup",
        "conf/call",
        "ng-conf"
    );
    for i in &report.instances {
        eprintln!(
            "{:<20} {:>6} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>7.2}x {:>10.1} {:>10.1}",
            i.name,
            i.cells,
            i.incremental.witnesses,
            i.scratch.seconds,
            i.incremental.seconds,
            i.incremental_nogauss.seconds,
            i.speedup(),
            i.incremental.conflicts_per_call,
            i.incremental_nogauss.conflicts_per_call
        );
    }
    eprintln!(
        "geometric-mean speedup: {:.2}x",
        report.geometric_mean_speedup()
    );
}

/// Runs the full suite `runs` times and keeps the fastest (by geometric-mean
/// speedup) sound report; witness-set agreement is checked on every run.
fn best_of(runs: usize) -> Result<IncrementalReport, String> {
    let suite = incremental_bench_suite();
    let config = IncrementalBenchConfig::default();
    let mut best: Option<IncrementalReport> = None;
    for _ in 0..runs {
        let report = run_incremental_bench(&suite, &config);
        if !report_is_sound(&report) {
            print_summary(&report);
            return Err("incremental and scratch enumerations disagree".into());
        }
        let better = best
            .as_ref()
            .map(|b| report.geometric_mean_speedup() > b.geometric_mean_speedup())
            .unwrap_or(true);
        if better {
            best = Some(report);
        }
    }
    Ok(best.expect("at least one run"))
}

/// The perf-trajectory gate: compares a fresh best-of-three run against the
/// committed baseline and fails on a regression beyond the tolerance, or on
/// any witness count that differs from the baseline's. The three modes
/// agreeing within one run cannot catch an enumeration bug they share; the
/// committed counts can.
fn check_against(baseline_path: &str, tolerance: f64) -> ExitCode {
    let baseline_json = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(baseline) = parse_baseline_geomean(&baseline_json) else {
        eprintln!("error: no geometric_mean_speedup in {baseline_path}");
        return ExitCode::FAILURE;
    };
    let Some(baseline_witnesses) = parse_baseline_witnesses(&baseline_json) else {
        eprintln!("error: no per-instance witness counts in {baseline_path}");
        return ExitCode::FAILURE;
    };
    let report = match best_of(3) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    print_summary(&report);
    let witnesses = report.witness_counts();
    if witnesses != baseline_witnesses {
        eprintln!(
            "error: witness counts (scratch, incremental, no-Gauss) differ from {baseline_path}:\n  \
             baseline {baseline_witnesses:?}\n  current  {witnesses:?}"
        );
        return ExitCode::FAILURE;
    }
    let current = report.geometric_mean_speedup();
    let floor = baseline * (1.0 - tolerance);
    eprintln!(
        "perf trajectory: current {current:.3}x vs baseline {baseline:.3}x (floor {floor:.3}x)"
    );
    if current < floor {
        eprintln!(
            "error: geometric-mean speedup regressed more than {:.0}% below the committed baseline",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_incremental.json".to_string());
    let tolerance = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);
    if let Some(baseline) = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
    {
        return check_against(baseline, tolerance);
    }

    if smoke {
        // A single small instance in the representative regime (constrained
        // circuit, small cells relative to clause mass), where rebuilding a
        // solver per cell visibly costs; the incremental path must win.
        let suite = vec![benchmarks::iscas_like("smoke", 14, 180, 11, 0x0526)];
        let config = IncrementalBenchConfig {
            cells_per_width: 3,
            width_window: 3,
            bound: 32,
            seed: 0xdac2014,
        };
        // Witness-set equality is deterministic and checked on every run;
        // the wall-clock half of the gate takes the best of three runs so a
        // scheduler stall on a shared CI runner cannot fail an unrelated
        // change.
        let mut best: Option<IncrementalReport> = None;
        for _ in 0..3 {
            let report = run_incremental_bench(&suite, &config);
            if !report_is_sound(&report) {
                print_summary(&report);
                eprintln!("error: incremental and scratch enumerations disagree");
                return ExitCode::FAILURE;
            }
            let better = best
                .as_ref()
                .map(|b| report.geometric_mean_speedup() > b.geometric_mean_speedup())
                .unwrap_or(true);
            if better {
                best = Some(report);
            }
        }
        let report = best.expect("three runs happened");
        print_summary(&report);
        if report.geometric_mean_speedup() < 1.0 {
            eprintln!("error: incremental path is slower than scratch on the smoke instance");
            return ExitCode::FAILURE;
        }
        println!("{}", render_incremental_json(&report));
        return ExitCode::SUCCESS;
    }

    let report = run_incremental_bench(
        &incremental_bench_suite(),
        &IncrementalBenchConfig::default(),
    );
    print_summary(&report);
    if !report_is_sound(&report) {
        eprintln!("error: incremental and scratch enumerations disagree");
        return ExitCode::FAILURE;
    }
    let json = render_incremental_json(&report);
    match std::fs::write(&out_path, &json) {
        Ok(()) => {
            eprintln!("wrote {out_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
