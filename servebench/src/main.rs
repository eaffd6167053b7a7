//! Layered serving benchmark for the UniGen sampler daemon.
//!
//! Starts the real `unigen_cli serve` daemon on a unix socket with two
//! resident table-1 formulas, drives one closed-loop workload from this
//! process over the binary wire protocol, checks every output, and prints
//! the metrics; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! bash servebench/run.sh --workload <cold_circuits|warm_stream|small_requests|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `BENCHMARK.json` for both lists). Exit status: 0 when every
//! output check passed, 1 when one failed (the result line then says
//! `"correct": false`), 2 when the run could not complete (no result
//! line).

mod bench;
mod check;
mod daemon;
mod gen;
mod replay;
mod stats;
mod trace;
mod wireconn;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use bench::{Host, Outcome, Setup};
use gen::{Residents, Workload, ALL_WORKLOADS};
use stats::result_line;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
}

const USAGE: &str = "usage: servebench --daemon <unigen_cli> --workload <cold_circuits|warm_stream|small_requests|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    ALL_WORKLOADS.to_vec()
                } else {
                    vec![Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workloads: workloads.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        daemon: daemon.ok_or_else(|| missing("--daemon"))?,
    })
}

/// The commit, from git when this is a git checkout; otherwise an FNV-1a
/// digest of the sources the benchmark builds.
fn commit() -> String {
    let git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "servebench/src", "Cargo.lock", "Cargo.toml"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(fs::read(&file).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("source-fnv1a-{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            if entry.file_name() != "target" {
                collect_files(&entry.path(), out);
            }
        }
    }
}

fn run(args: &Args) -> Result<Vec<(Workload, Outcome)>, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Host {
        nproc,
        jobs: nproc,
        commit: commit(),
    };
    // Everything the run writes stays under the working directory (the
    // checkout root); relative paths keep the socket path short.
    let base = PathBuf::from(".servebench");
    let run_dir = base.join(format!("run-{}", std::process::id()));
    fs::create_dir_all(&run_dir).map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let residents = Residents::build();
    let mut resident_files = Vec::new();
    for formula in residents.all() {
        let path = run_dir.join(format!("{}.cnf", formula.name));
        fs::write(&path, &formula.dimacs)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        resident_files.push(path);
    }
    let setup = Setup {
        daemon: &args.daemon,
        run_dir: &run_dir,
        trace_dir: &base,
        host: &host,
        residents: &residents,
        resident_files: &resident_files,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut outcomes = Vec::new();
    let mut result = Ok(());
    // Workloads never run at once.
    for &workload in &args.workloads {
        println!(
            "# workload={} seed={} seconds={} trace={} nproc={} jobs={} commit={}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host.nproc,
            host.jobs,
            host.commit
        );
        let outcome = if args.trace {
            setup.run_traced(workload)
        } else {
            setup.run_untraced(workload)
        };
        match outcome {
            Ok(outcome) => outcomes.push((workload, outcome)),
            Err(err) => {
                result = Err(format!("{}: {err}", workload.name()));
                break;
            }
        }
    }
    let _ = fs::remove_dir_all(&run_dir);
    // Keeps the directory when a traced run left its spans there.
    let _ = fs::remove_dir(&base);
    result.map(|()| outcomes)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcomes = match run(&args) {
        Ok(outcomes) => outcomes,
        Err(err) => {
            eprintln!("servebench: {err}");
            return ExitCode::from(2);
        }
    };
    let catalogue: &[stats::MetricDef] = if args.trace {
        &stats::PER_LAYER
    } else {
        &stats::END_TO_END
    };
    let single = outcomes.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for (workload, outcome) in &outcomes {
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", workload.name())
        };
        print!("{}", outcome.report.table(&prefix));
        println!(
            "# {} requests: sent={} succeeded={} failed={}",
            workload.name(),
            outcome.attempted,
            outcome.attempted - outcome.failed,
            outcome.failed
        );
        for problem in &outcome.problems {
            println!("# CHECK FAILED ({}): {problem}", workload.name());
        }
        let missing = outcome.report.missing(catalogue);
        if !missing.is_empty() {
            println!(
                "# CHECK FAILED ({}): metrics not measured: {missing:?}",
                workload.name()
            );
            correct = false;
        }
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        outcome.report.json_metrics(&prefix, &mut metrics);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
