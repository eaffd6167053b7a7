//! The prepare benchmark: one `UniGen::new` (line 4 of Algorithm 1 plus
//! ApproxMC, on one solver) per instance on a fixed corpus — the
//! measurement behind `BENCH_prepare.json` and the CI gate on it.
//!
//! Each prepare is timed between two runs of a fixed reference kernel
//! ([`reference_kernel`]), and the gate number is the geometric mean, over
//! the instances, of the reference's time divided by the prepare's: how
//! many prepares fit in one reference run. A host that runs slower for a
//! while slows the reference beside it, so the drift between runs minutes
//! apart (raw prepares per second moved by up to 20 % at an unchanged
//! commit) cancels out of the ratio, while a slower prepare still lowers
//! it. The raw geometric mean of prepares per second is reported beside
//! it, ungated.
//!
//! Next to each time the report records the deterministic work of the
//! prepare: its `BSAT` calls (one guard each on the prepared solver, line
//! 4's included), the ApproxMC estimate, the hash-width window's upper end
//! `q`, and the solver's propagations and conflicts. `--check` pins the
//! calls, the estimate and `q` of every instance exactly, so a change that
//! moves any of them must regenerate the baseline and say so. The ratio
//! still depends on the kind of CPU, so the numeric half is compared only
//! on a host with the baseline's CPU count (see
//! [`crate::gate::same_host`]).

use std::hint::black_box;
use std::time::Instant;

use unigen::{PreparedMode, UniGen, UniGenConfig};
use unigen_circuit::benchmarks::{self, Benchmark};

use crate::gate::{geomean, json_number, same_host, Comparison, GateReport};

/// One timed prepare.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareInstance {
    /// Benchmark instance name.
    pub name: String,
    /// Number of CNF variables.
    pub num_vars: usize,
    /// Sampling-set size.
    pub sampling_set_size: usize,
    /// Wall-clock seconds of the fastest `UniGen::new`.
    pub seconds: f64,
    /// Wall-clock seconds of the fastest [`reference_kernel`] run around
    /// the prepares.
    pub reference_seconds: f64,
    /// `BSAT` calls of the prepare: line 4's and ApproxMC's.
    pub bsat_calls: u64,
    /// Propagations of the prepared solver.
    pub propagations: u64,
    /// Conflicts of the prepared solver.
    pub conflicts: u64,
    /// The ApproxMC estimate and `q`, or `None` when the prepare failed or
    /// enumerated the formula instead of hashing it.
    pub hashed: Option<(u128, usize)>,
}

/// One run of the prepare suite.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareReport {
    /// CPUs of the measuring host.
    pub host_cpus: usize,
    /// One entry per corpus instance, in corpus order.
    pub instances: Vec<PrepareInstance>,
}

/// The committed corpus: every `table1_suite` row that hashes (all but
/// squaring8-like, which has 4 witnesses and is enumerated), then one
/// formula of each `cold_circuits` family at the seeds `tests/prepare_pins.rs`
/// pins.
pub fn prepare_bench_suite() -> Vec<Benchmark> {
    benchmarks::table1_suite()
        .into_iter()
        .filter(|b| b.name != "squaring8-like")
        .chain([
            benchmarks::parity_chain("cold-parity", 16, 4, 5, 0x0c01),
            benchmarks::iscas_like("cold-iscas", 14, 180, 5, 0x0c02),
            benchmarks::login_like("cold-login", 3, 6, 0x0c03),
            benchmarks::sorter("cold-sorter", 4, 4, 6, 0x0c04),
        ])
        .collect()
}

/// Steps of [`reference_kernel`]: about 7 ms on a 2-vCPU host, as long as
/// a small prepare.
const REFERENCE_STEPS: u64 = 1 << 20;

/// Prepares of each instance per run. Each is timed between reference
/// runs, and the fastest prepare and the fastest reference run are kept,
/// so a stall on a shared host that hits one of them is dropped.
const REPEATS: usize = 3;

/// The yardstick prepares are timed against: a fixed pseudo-random walk of
/// reads, data-dependent branches and writes over a 256 KiB table, close
/// to how a solver touches its clause arena. It uses nothing from the
/// workspace, so no change to the code under test can speed it up.
pub fn reference_kernel() -> u64 {
    const WORDS: usize = 1 << 15;
    let mut table = vec![0u64; WORDS];
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & (WORDS - 1);
        if table[slot] & 1 == 0 {
            table[slot] = table[slot].wrapping_add(x | 1);
        } else {
            table[slot] ^= x >> 3;
        }
        acc = acc.wrapping_add(table[(slot ^ acc as usize) & (WORDS - 1)]);
    }
    acc
}

/// Wall-clock seconds of one [`reference_kernel`] run.
fn time_reference() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel());
    start.elapsed().as_secs_f64()
}

/// Prepares every instance `REPEATS` times, at the default
/// configuration, each prepare between two timed runs of
/// [`reference_kernel`], and keeps the fastest of each.
pub fn run_prepare_bench(suite: &[Benchmark]) -> PrepareReport {
    let instances = suite
        .iter()
        .map(|bench| {
            let mut reference_seconds = time_reference();
            let mut seconds = f64::INFINITY;
            let mut prepared = None;
            for _ in 0..REPEATS {
                let start = Instant::now();
                let sampler = UniGen::new(&bench.formula, UniGenConfig::default());
                seconds = seconds.min(start.elapsed().as_secs_f64());
                reference_seconds = reference_seconds.min(time_reference());
                prepared = Some(sampler);
            }
            let prepared = prepared.expect("REPEATS is at least one");
            let (stats, hashed) = match &prepared {
                Ok(sampler) => (
                    *sampler.solver_stats(),
                    match *sampler.prepared_mode() {
                        PreparedMode::Hashed { approx_count, q } => Some((approx_count, q)),
                        PreparedMode::Enumerated { .. } => None,
                    },
                ),
                Err(_) => (Default::default(), None),
            };
            PrepareInstance {
                name: bench.name.clone(),
                num_vars: bench.formula.num_vars(),
                sampling_set_size: bench.formula.sampling_set_or_all().len(),
                seconds,
                reference_seconds,
                bsat_calls: stats.guards_created,
                propagations: stats.propagations,
                conflicts: stats.conflicts,
                hashed,
            }
        })
        .collect();
    PrepareReport {
        host_cpus: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        instances,
    }
}

impl PrepareReport {
    /// Geometric mean of prepares per second, reported beside the gate
    /// number.
    pub fn prepares_per_second(&self) -> f64 {
        geomean(self.instances.iter().map(|i| 1.0 / i.seconds))
    }

    /// Each instance's pinned work: name, `BSAT` calls, estimate and `q`.
    fn pins(&self) -> Vec<(String, u64, u128, usize)> {
        self.instances
            .iter()
            .map(|i| {
                let (estimate, q) = i.hashed.unwrap_or_default();
                (i.name.clone(), i.bsat_calls, estimate, q)
            })
            .collect()
    }
}

impl GateReport for PrepareReport {
    const FILE: &'static str = "BENCH_prepare.json";
    const KEY: &'static str = "geomean_prepares_per_reference";

    fn score(&self) -> f64 {
        geomean(
            self.instances
                .iter()
                .map(|i| i.reference_seconds / i.seconds),
        )
    }

    fn unsound(&self) -> Option<&'static str> {
        self.instances
            .iter()
            .any(|i| i.hashed.is_none())
            .then_some("a corpus instance failed to prepare or did not hash")
    }

    /// The work pins, then the host rule for the times.
    fn compare(&self, baseline_json: &str) -> Result<Comparison, String> {
        let baseline = parse_baseline_pins(baseline_json)
            .ok_or("no per-instance bsat_calls/estimate/q in the baseline")?;
        let current = self.pins();
        if current != baseline {
            return Err(format!(
                "prepare work (name, bsat_calls, estimate, q) differs from the baseline:\n  \
                 baseline {baseline:?}\n  current  {current:?}"
            ));
        }
        Ok(same_host(baseline_json, self.host_cpus))
    }

    fn summary(&self) -> String {
        let mut out = format!(
            "{:<18} {:>6} {:>4} {:>10} {:>8} {:>6} {:>9} {:>3} {:>13} {:>9}\n",
            "instance",
            "vars",
            "|S|",
            "prepare(s)",
            "ref(s)",
            "bsat",
            "estimate",
            "q",
            "propagations",
            "conflicts"
        );
        for i in &self.instances {
            let (estimate, q) = i.hashed.unwrap_or_default();
            out.push_str(&format!(
                "{:<18} {:>6} {:>4} {:>10.3} {:>8.4} {:>6} {:>9} {:>3} {:>13} {:>9}\n",
                i.name,
                i.num_vars,
                i.sampling_set_size,
                i.seconds,
                i.reference_seconds,
                i.bsat_calls,
                estimate,
                q,
                i.propagations,
                i.conflicts
            ));
        }
        out.push_str(&format!(
            "geomean prepares per reference run: {:.3} (ungated: {:.3} prepares/s)",
            self.score(),
            self.prepares_per_second()
        ));
        out
    }

    fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"prepare\",\n");
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        out.push_str(&format!(
            "  \"{}\": {},\n  \"geomean_prepares_per_second\": {},\n  \"instances\": [\n",
            Self::KEY,
            json_number(self.score(), 3),
            json_number(self.prepares_per_second(), 3)
        ));
        for (n, i) in self.instances.iter().enumerate() {
            let (estimate, q) = i.hashed.unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"num_vars\": {}, \"sampling_set\": {}, \"seconds\": {}, \
                 \"reference_seconds\": {}, \"bsat_calls\": {}, \"estimate\": {estimate}, \
                 \"q\": {q}, \"propagations\": {}, \"conflicts\": {}}}{}\n",
                i.name,
                i.num_vars,
                i.sampling_set_size,
                json_number(i.seconds, 6),
                json_number(i.reference_seconds, 6),
                i.bsat_calls,
                i.propagations,
                i.conflicts,
                if n + 1 < self.instances.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Reads each instance's `(name, bsat_calls, estimate, q)` back from a
/// `BENCH_prepare.json` document, in file order.
pub fn parse_baseline_pins(json: &str) -> Option<Vec<(String, u64, u128, usize)>> {
    let field = |row: &str, key: &str| -> Option<u128> {
        let key = format!("\"{key}\": ");
        let rest = &row[row.find(&key)? + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let mut rows = Vec::new();
    for row in json.split("{\"name\": \"").skip(1) {
        let name = &row[..row.find('"')?];
        rows.push((
            name.to_string(),
            u64::try_from(field(row, "bsat_calls")?).ok()?,
            field(row, "estimate")?,
            usize::try_from(field(row, "q")?).ok()?,
        ));
    }
    (!rows.is_empty()).then_some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::baseline_number;

    fn report(calls: u64, hashed: Option<(u128, usize)>) -> PrepareReport {
        PrepareReport {
            host_cpus: 2,
            instances: vec![PrepareInstance {
                name: "demo".into(),
                num_vars: 10,
                sampling_set_size: 4,
                seconds: 0.25,
                reference_seconds: 0.5,
                bsat_calls: calls,
                propagations: 100,
                conflicts: 3,
                hashed,
            }],
        }
    }

    #[test]
    fn the_json_round_trips_its_pins_and_score() {
        let r = report(24, Some((1312, 6)));
        let json = r.render_json();
        assert_eq!(
            parse_baseline_pins(&json),
            Some(vec![("demo".to_string(), 24, 1312, 6)])
        );
        assert_eq!(baseline_number(&json, PrepareReport::KEY), Some(2.0));
        assert_eq!(
            baseline_number(&json, "geomean_prepares_per_second"),
            Some(4.0)
        );
        assert_eq!(baseline_number(&json, "host_cpus"), Some(2.0));
        assert_eq!(r.compare(&json), Ok(Comparison::Numeric));
    }

    #[test]
    fn moved_work_fails_the_comparison() {
        let json = report(24, Some((1312, 6))).render_json();
        for moved in [report(25, Some((1312, 6))), report(24, Some((1248, 6)))] {
            let err = moved.compare(&json).unwrap_err();
            assert!(err.contains("differs from the baseline"), "{err}");
        }
        assert!(report(24, None).unsound().is_some());
        assert!(report(24, Some((1, 1))).compare("{}").is_err());
    }
}
