//! The one gate policy behind the committed `BENCH_*.json` baselines.
//!
//! Each gate binary (`bench_incremental`, `bench_parallel`) supplies how to
//! run its suite once and a report type implementing [`GateReport`]; this
//! module owns everything else — the command line, best-of-three with a
//! soundness check on every run, reading the baseline number by its key,
//! the floor `baseline × (1 − TOLERANCE)`, the verdict lines and writing the
//! JSON.
//!
//! ```text
//! <gate> [--smoke | --check BASELINE | --out PATH]
//!
//!   (no flag)         run the full suite (best of three) and write the
//!                     report to the committed baseline file
//!   --out PATH        the same, written to PATH instead
//!   --check BASELINE  run the full suite (best of three) and exit non-zero
//!                     if the gate number fell below the floor, or if the
//!                     report's own checks against the baseline fail
//!   --smoke           run the report's tiny instance (best of three), exit
//!                     non-zero if the gate number is below 1.0, and print
//!                     the JSON to stdout (only where the report has one)
//! ```
//!
//! Soundness (the modes agreeing on their witnesses) is checked on **every**
//! run; it is the correctness half of the gate and is never
//! best-of-three'd away.
//!
//! The JSON is hand-rolled and read back with [`baseline_number`]; the
//! workspace deliberately has no JSON dependency.

use std::process::ExitCode;

/// Allowed relative regression of the gate number below its committed
/// baseline.
pub const TOLERANCE: f64 = 0.15;

/// Runs per measurement; the best score is kept, so a scheduler stall on a
/// shared runner cannot fail an unrelated change.
pub const RUNS: usize = 3;

/// The least `--smoke` score: the gated path must not be slower than the
/// reference it is measured against.
pub const SMOKE_FLOOR: f64 = 1.0;

/// What a report tells the gate, beyond its gate number, when compared
/// with a committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Comparison {
    /// The gate number is comparable: apply the floor.
    Numeric,
    /// The baseline's number does not transfer to this host; the numeric
    /// half is skipped, for the given reason.
    SkipNumeric(String),
}

/// A report the gate can measure, check and write.
pub trait GateReport {
    /// The committed baseline file, and the default `--out`.
    const FILE: &'static str;
    /// Top-level JSON key of the gate number.
    const KEY: &'static str;

    /// The gate number; higher is better.
    fn score(&self) -> f64;

    /// Why this run is unsound, if it is.
    fn unsound(&self) -> Option<&'static str>;

    /// The report's own checks against the committed baseline document,
    /// run before the floor.
    ///
    /// # Errors
    ///
    /// Returns the failure message when the run disagrees with the baseline
    /// on something that is not a timing.
    fn compare(&self, baseline_json: &str) -> Result<Comparison, String>;

    /// The human-readable summary table.
    fn summary(&self) -> String;

    /// The machine-readable JSON document.
    fn render_json(&self) -> String;
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Regenerate the baseline at this path.
    Regenerate(String),
    /// Check against the baseline at this path.
    Check(String),
    /// Run the tiny instance and print the JSON.
    Smoke,
}

/// Parses a gate binary's arguments (without the program name).
///
/// # Errors
///
/// Returns the usage text for anything but no flag, `--out PATH`,
/// `--check PATH` or (when the report has a smoke instance) `--smoke`.
pub fn parse_args(args: &[String], file: &str, has_smoke: bool) -> Result<Mode, String> {
    match args {
        [] => Ok(Mode::Regenerate(file.to_string())),
        [flag, path] if flag == "--out" => Ok(Mode::Regenerate(path.clone())),
        [flag, path] if flag == "--check" => Ok(Mode::Check(path.clone())),
        [flag] if flag == "--smoke" && has_smoke => Ok(Mode::Smoke),
        _ => {
            let smoke = if has_smoke { "--smoke | " } else { "" };
            Err(format!(
                "usage: [{smoke}--check BASELINE | --out PATH] (writes {file} by default)"
            ))
        }
    }
}

/// Runs `run` [`RUNS`] times and keeps the report with the best score.
///
/// # Errors
///
/// Fails on the first unsound run, after printing its summary.
pub fn best_of<R: GateReport>(mut run: impl FnMut() -> R) -> Result<R, String> {
    let mut best: Option<R> = None;
    for _ in 0..RUNS {
        let report = run();
        if let Some(reason) = report.unsound() {
            eprintln!("{}", report.summary());
            return Err(reason.to_string());
        }
        if best.as_ref().map_or(true, |b| report.score() > b.score()) {
            best = Some(report);
        }
    }
    Ok(best.expect("RUNS is at least one"))
}

/// The least passing gate number for a committed `baseline`.
pub fn floor(baseline: f64) -> f64 {
    baseline * (1.0 - TOLERANCE)
}

/// The `--check` gate: best of [`RUNS`] runs, the report's own checks
/// against `baseline_json`, then the floor on the gate number.
///
/// # Errors
///
/// Returns the failure message; on success, the verdict line.
pub fn check<R: GateReport>(baseline_json: &str, run: impl FnMut() -> R) -> Result<String, String> {
    let baseline = baseline_number(baseline_json, R::KEY)
        .ok_or_else(|| format!("no {} in the baseline", R::KEY))?;
    let report = best_of(run)?;
    eprintln!("{}", report.summary());
    if let Comparison::SkipNumeric(reason) = report.compare(baseline_json)? {
        return Ok(format!("note: {reason}"));
    }
    let current = report.score();
    let floor = floor(baseline);
    let verdict = format!(
        "{}: current {current:.3} vs baseline {baseline:.3} (floor {floor:.3})",
        R::KEY
    );
    if current < floor {
        return Err(format!(
            "{verdict}: regressed more than {:.0}% below the committed baseline",
            TOLERANCE * 100.0
        ));
    }
    Ok(verdict)
}

/// The whole gate binary: parses the arguments and runs the chosen mode.
/// `full` runs the committed suite once; `smoke`, where the report has one,
/// runs its tiny instance once.
pub fn main<R: GateReport>(full: fn() -> R, smoke: Option<fn() -> R>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args, R::FILE, smoke.is_some()).and_then(|mode| match mode {
        Mode::Check(path) => std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|json| check(&json, full)),
        Mode::Smoke => {
            let report = best_of(smoke.expect("--smoke parses only with a smoke run"))?;
            eprintln!("{}", report.summary());
            if report.score() < SMOKE_FLOOR {
                return Err(format!(
                    "{} below {SMOKE_FLOOR} on the smoke instance",
                    R::KEY
                ));
            }
            println!("{}", report.render_json());
            Ok(format!("smoke {}: {:.3}", R::KEY, report.score()))
        }
        Mode::Regenerate(path) => {
            let report = best_of(full)?;
            eprintln!("{}", report.summary());
            std::fs::write(&path, report.render_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("wrote {path}"))
        }
    });
    match result {
        Ok(verdict) => {
            eprintln!("{verdict}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Geometric mean of the positive, finite values (`0.0` when there are
/// none).
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .filter(|v| *v > 0.0 && v.is_finite())
        .fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

/// The host rule for a gate number that depends on the machine: it is
/// compared only when the baseline's `host_cpus` matches `host_cpus` (or
/// the baseline records none). Otherwise the numeric half is skipped; the
/// report's own checks have already run.
pub fn same_host(baseline_json: &str, host_cpus: usize) -> Comparison {
    match baseline_number(baseline_json, "host_cpus") {
        Some(cpus) if cpus as usize != host_cpus => Comparison::SkipNumeric(format!(
            "baseline was recorded on a {cpus}-cpu host, this host has {host_cpus}; \
             skipping the numeric comparison (the work and determinism checks still ran) — \
             regenerate the baseline on this hardware to re-arm the numeric gate"
        )),
        _ => Comparison::Numeric,
    }
}

/// Formats a number for the hand-rolled JSON with `decimals` decimals. A
/// non-finite value (say, a ratio over a zero denominator) would render as
/// the invalid JSON token `inf`; it is written as `null` instead so the
/// document stays machine-readable.
pub fn json_number(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Reads the number stored under the top-level `key` of a previously
/// written `BENCH_*.json` document.
pub fn baseline_number(json: &str, key: &str) -> Option<f64> {
    let key = format!("\"{key}\":");
    let start = json.find(&key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose score and soundness a test fixes.
    #[derive(Debug, Clone)]
    struct Fixed {
        score: f64,
        sound: bool,
    }

    impl GateReport for Fixed {
        const FILE: &'static str = "BENCH_fixed.json";
        const KEY: &'static str = "score";

        fn score(&self) -> f64 {
            self.score
        }

        fn unsound(&self) -> Option<&'static str> {
            (!self.sound).then_some("modes disagree")
        }

        fn compare(&self, _baseline_json: &str) -> Result<Comparison, String> {
            Ok(Comparison::Numeric)
        }

        fn summary(&self) -> String {
            format!("score {}", self.score)
        }

        fn render_json(&self) -> String {
            format!("{{\"score\": {}}}\n", json_number(self.score, 3))
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |list: &[&str]| parse_args(&args(list), "BENCH_x.json", true);
        assert_eq!(parse(&[]), Ok(Mode::Regenerate("BENCH_x.json".into())));
        assert_eq!(parse(&["--out", "p"]), Ok(Mode::Regenerate("p".into())));
        assert_eq!(parse(&["--check", "p"]), Ok(Mode::Check("p".into())));
        assert_eq!(parse(&["--smoke"]), Ok(Mode::Smoke));
        for rejected in [
            &["--chek", "BENCH_x.json"][..],
            &["--check"],
            &["--tolerance", "0.2"],
            &["--check", "p", "--tolerance", "0.2"],
            &["--out"],
        ] {
            let usage = parse(rejected).expect_err("rejected");
            assert!(usage.starts_with("usage:"), "{usage}");
        }
        assert!(parse_args(&args(&["--smoke"]), "BENCH_x.json", false).is_err());
    }

    #[test]
    fn the_floor_is_inclusive() {
        let baseline = "{\"score\": 2.000,\n";
        let at = floor(2.0);
        assert!(check(baseline, || Fixed {
            score: at,
            sound: true
        })
        .is_ok());
        let below = at - 1e-6;
        let err = check(baseline, || Fixed {
            score: below,
            sound: true,
        })
        .unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(check("{}", || Fixed {
            score: 9.0,
            sound: true
        })
        .is_err());
    }

    #[test]
    fn every_run_must_be_sound_and_the_best_is_kept() {
        let mut scores = [1.0, 3.0, 2.0].into_iter();
        let best = best_of(|| Fixed {
            score: scores.next().unwrap(),
            sound: true,
        })
        .unwrap();
        assert_eq!(best.score, 3.0);
        let mut runs = 0;
        let err = best_of(|| {
            runs += 1;
            Fixed {
                score: 9.0,
                sound: runs < 2,
            }
        })
        .unwrap_err();
        assert_eq!(err, "modes disagree");
        assert_eq!(runs, 2, "best_of stops at the first unsound run");
    }

    #[test]
    fn geomean_ignores_non_positive_values() {
        assert_eq!(geomean([].into_iter()), 0.0);
        let g = geomean([2.0, 8.0].into_iter());
        assert!((g - 4.0).abs() < 1e-9);
        let g = geomean([4.0, 0.0, f64::INFINITY].into_iter());
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn numbers_round_trip_through_the_json() {
        assert_eq!(json_number(2.5, 3), "2.500");
        assert_eq!(json_number(2.5, 6), "2.500000");
        assert_eq!(json_number(f64::NEG_INFINITY, 6), "null");
        let json = Fixed {
            score: 1.25,
            sound: true,
        }
        .render_json();
        assert_eq!(baseline_number(&json, "score"), Some(1.25));
        assert_eq!(baseline_number(&json, "missing"), None);
    }
}
