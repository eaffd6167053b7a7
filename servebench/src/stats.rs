//! Percentiles, the tail rule, the metric catalogue and the result line.

use std::fmt::Write as _;

/// Percentiles the tail rule chooses from.
pub const TAIL_GRID: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = rank(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Integer arithmetic in tenths of a percent: 99.9 % of 10 000 must be
    // exactly rank 9 990, which `f64` rounding would overshoot.
    let tenths = (pct * 10.0).round() as usize;
    let r = (tenths * n).div_ceil(1000);
    Some(r.clamp(1, n))
}

/// The highest percentile of [`TAIL_GRID`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not (fewer than 20 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_GRID
        .iter()
        .rev()
        .copied()
        .find(|&pct| rank(n, pct).is_some_and(|r| n - r >= TAIL_MIN_BEYOND))
}

/// A latency distribution summarised as median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// Percentile reported as the tail: the workload's fixed level, or
    /// the lower level the sample supports when it is too small for it.
    pub tail_pct: f64,
}

/// Summarise `values` with the tail at `wanted_pct`, lowered to what the
/// sample supports. With fewer than 20 samples the tail is the maximum.
pub fn summarize(values: &[f64], wanted_pct: f64) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0)?;
    let tail_pct = tail_level(sorted.len()).map_or(100.0, |pct| pct.min(wanted_pct));
    Some(Summary {
        n: sorted.len(),
        p50,
        tail: percentile(&sorted, tail_pct)?,
        tail_pct,
    })
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's declaration: name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 10] = [
    def("setup_s", "s", Better::Lower),
    def("ttfw_p50_s", "s", Better::Lower),
    def("ttfw_tail_s", "s", Better::Lower),
    def("latency_p50_s", "s", Better::Lower),
    def("latency_tail_s", "s", Better::Lower),
    def("witnesses_per_s", "1/s", Better::Higher),
    def("answered_frac", "frac", Better::Higher),
    def("witness_yield", "frac", Better::Higher),
    def("rss_mb", "MB", Better::Lower),
    def("cpu_ms_per_witness", "ms", Better::Lower),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [MetricDef; 23] = [
    def("wire.encode_us", "us", Better::Lower),
    def("wire.decode_us", "us", Better::Lower),
    def("wire.bytes_per_witness", "B", Better::Lower),
    def("server.overhead_p50_s", "s", Better::Lower),
    def("server.overhead_tail_s", "s", Better::Lower),
    def("server.threads_peak", "count", Better::Lower),
    def("registry.services", "count", Better::Lower),
    def("cnf.parse_s", "s", Better::Lower),
    def("approxmc.s", "s", Better::Lower),
    def("approxmc.bsat_calls", "count", Better::Lower),
    def("prepare.self_s", "s", Better::Lower),
    def("service.spawn_s", "s", Better::Lower),
    def("service.queue_wait_s_per_witness", "s", Better::Lower),
    def("service.steals_per_request", "count", Better::Lower),
    def("service.busy_frac", "frac", Better::Higher),
    def("sample.s_per_witness", "s", Better::Lower),
    def("sample.bsat_calls_per_witness", "count", Better::Lower),
    def("solver.propagations_per_bsat", "count", Better::Lower),
    def("solver.conflicts_per_bsat", "count", Better::Lower),
    def("solver.gauss_row_ops_per_bsat", "count", Better::Lower),
    def("cert.overhead_ratio", "ratio", Better::Lower),
    def("trace.overhead_frac", "frac", Better::Lower),
    def("path.unattributed_frac", "frac", Better::Lower),
];

/// True when `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a valid unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Which metric.
    pub def: MetricDef,
    /// The measurement.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// How it was measured, when that is not obvious from the name.
    pub note: String,
}

/// The values of one run, in catalogue order.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured values.
    pub values: Vec<Value>,
}

impl Report {
    /// Record `name` (which must be in `catalogue`).
    pub fn put(
        &mut self,
        catalogue: &[MetricDef],
        name: &str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        let def = *catalogue
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.push(Value {
            def,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Names of catalogue metrics this report lacks.
    pub fn missing(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|d| !self.values.iter().any(|v| v.def.name == d.name))
            .map(|d| d.name)
            .collect()
    }

    /// Human-readable table, one metric per line, `# `-prefixed.
    pub fn table(&self, prefix: &str) -> String {
        let mut out = String::new();
        for v in &self.values {
            let better = match v.def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let _ = writeln!(
                out,
                "# {prefix}{:<36} {:>14.6} {:<6} ({better} is better) n={:<6} {}",
                v.def.name, v.value, v.def.unit, v.samples, v.note
            );
        }
        out
    }

    /// The `metrics` object of the result line, names prefixed.
    pub fn json_metrics(&self, prefix: &str, out: &mut Vec<String>) {
        for v in &self.values {
            out.push(format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.def.name,
                json_number(v.value),
                v.def.unit
            ));
        }
    }
}

/// A finite JSON number with all its digits (non-finite values become 0,
/// which the caller has already flagged as a failed check).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(1), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(39), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(99), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        for n in 0..2500 {
            if let Some(pct) = tail_level(n) {
                let r = rank(n, pct).unwrap();
                assert!(n - r >= TAIL_MIN_BEYOND, "n={n} pct={pct}");
            }
        }
    }

    #[test]
    fn summary_lowers_tail_to_what_small_samples_support() {
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&values, 99.0).unwrap();
        assert_eq!((s.n, s.tail_pct, s.p50, s.tail), (50, 75.0, 25.0, 38.0));
        let s = summarize(&values, 50.0).unwrap();
        assert_eq!(s.tail_pct, 50.0);
        // Too few samples for any percentile: the tail is the maximum.
        let s = summarize(&[3.0, 1.0, 2.0], 90.0).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
        assert_eq!(summarize(&[], 90.0), None);
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(def.name), "bad name {}", def.name);
            assert!(valid_unit(def.unit), "bad unit {}", def.unit);
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("μs"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to servebench/");
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                def.name, def.unit
            );
            assert!(
                text.contains(&needle),
                "BENCHMARK.json direction for {}",
                def.name
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.put(&END_TO_END, "setup_s", 2.25, 3, "");
        let mut metrics = Vec::new();
        report.json_metrics("", &mut metrics);
        let line = result_line(true, 10, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 2.25, \"unit\": \"s\"}}}"
        );
    }
}
