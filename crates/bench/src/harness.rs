//! Shared measurement and table-formatting code for the harness binaries.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use unigen::{SampleStats, UniGen, UniGenConfig, UniWit, UniWitConfig, WitnessSampler};
use unigen_circuit::benchmarks::{self, Benchmark};
use unigen_cnf::{CnfFormula, Var, XorClause};
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{enumerate_cell, Budget, GaussMode, Solver, SolverConfig};

/// Aggregate statistics for one sampler on one benchmark — one half of a
/// table row.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerSummary {
    /// Number of samples attempted.
    pub attempts: usize,
    /// Number of samples that produced a witness.
    pub successes: usize,
    /// Average wall-clock time per attempted sample (including preparation
    /// amortised over the attempts, reported separately below).
    pub avg_sample_time: Duration,
    /// Time spent in the sampler's one-off preparation phase.
    pub preparation_time: Duration,
    /// Average xor-clause length over all hash draws.
    pub avg_xor_length: f64,
    /// `true` if the sampler could not even be constructed (corresponds to a
    /// "—" entry in the paper's tables).
    pub failed_to_prepare: bool,
}

impl SamplerSummary {
    /// Observed success probability ("Succ Prob" column).
    pub fn success_probability(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// A summary representing a sampler that failed to prepare within its
    /// budget (a "—" table entry).
    pub fn unavailable() -> Self {
        SamplerSummary {
            attempts: 0,
            successes: 0,
            avg_sample_time: Duration::ZERO,
            preparation_time: Duration::ZERO,
            avg_xor_length: 0.0,
            failed_to_prepare: true,
        }
    }
}

/// One row of Table 1 / Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Number of CNF variables ("|X|").
    pub num_vars: usize,
    /// Sampling-set size ("|S|").
    pub sampling_set_size: usize,
    /// UniGen's results.
    pub unigen: SamplerSummary,
    /// UniWit's results.
    pub uniwit: SamplerSummary,
}

/// Knobs for a table run, kept deliberately small so the harness finishes on
/// a laptop; raise the sample counts to approach the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRunConfig {
    /// Number of witnesses requested from UniGen per benchmark.
    pub unigen_samples: usize,
    /// Number of witnesses requested from UniWit per benchmark.
    pub uniwit_samples: usize,
    /// Per-solver-call budget for UniGen.
    pub unigen_budget: Budget,
    /// Per-solver-call budget for UniWit (UniWit needs one: its full-support
    /// xors regularly blow up, which is the paper's point).
    pub uniwit_budget: Budget,
    /// Seed for all randomness in the run.
    pub seed: u64,
}

impl Default for TableRunConfig {
    fn default() -> Self {
        TableRunConfig {
            unigen_samples: 20,
            uniwit_samples: 5,
            unigen_budget: Budget::new().with_time_limit(Duration::from_secs(20)),
            uniwit_budget: Budget::new().with_time_limit(Duration::from_secs(5)),
            seed: 0xdac2014,
        }
    }
}

impl TableRunConfig {
    /// Reads overrides from environment variables (`UNIGEN_SAMPLES`,
    /// `UNIWIT_SAMPLES`, `HARNESS_SEED`), falling back to the defaults.
    pub fn from_env() -> Self {
        let mut config = TableRunConfig::default();
        if let Some(n) = read_env_usize("UNIGEN_SAMPLES") {
            config.unigen_samples = n;
        }
        if let Some(n) = read_env_usize("UNIWIT_SAMPLES") {
            config.uniwit_samples = n;
        }
        if let Some(n) = read_env_usize("HARNESS_SEED") {
            config.seed = n as u64;
        }
        config
    }
}

fn read_env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Runs a sampler `count` times and aggregates the outcome statistics.
/// Samplers do not time themselves, so the loop's own wall-clock time is
/// the totals' `wall_time`.
pub fn measure_sampler<S: WitnessSampler>(
    sampler: &mut S,
    count: usize,
    rng: &mut StdRng,
) -> (usize, SampleStats) {
    let mut totals = SampleStats::default();
    let mut successes = 0usize;
    let started = Instant::now();
    for _ in 0..count {
        let outcome = sampler.sample(rng);
        if outcome.is_success() {
            successes += 1;
        }
        totals.accumulate(&outcome.stats);
    }
    totals.wall_time = started.elapsed();
    (successes, totals)
}

/// Measures UniGen on one benchmark.
pub fn measure_unigen(benchmark: &Benchmark, run: &TableRunConfig) -> SamplerSummary {
    let config = UniGenConfig::default()
        .with_seed(run.seed)
        .with_bsat_budget(run.unigen_budget);
    let prep_start = Instant::now();
    let sampler = UniGen::new(&benchmark.formula, config);
    let preparation_time = prep_start.elapsed();
    let mut sampler = match sampler {
        Ok(sampler) => sampler,
        Err(_) => return SamplerSummary::unavailable(),
    };
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x1111);
    let (successes, stats) = measure_sampler(&mut sampler, run.unigen_samples, &mut rng);
    SamplerSummary {
        attempts: run.unigen_samples,
        successes,
        avg_sample_time: average_duration(stats.wall_time, run.unigen_samples),
        preparation_time,
        avg_xor_length: stats.average_xor_length(),
        failed_to_prepare: false,
    }
}

/// Measures UniWit on one benchmark.
pub fn measure_uniwit(benchmark: &Benchmark, run: &TableRunConfig) -> SamplerSummary {
    let config = UniWitConfig {
        bsat_budget: run.uniwit_budget,
    };
    let prep_start = Instant::now();
    let sampler = UniWit::new(&benchmark.formula, config);
    let preparation_time = prep_start.elapsed();
    let mut sampler = match sampler {
        Ok(sampler) => sampler,
        Err(_) => return SamplerSummary::unavailable(),
    };
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x2222);
    let (successes, stats) = measure_sampler(&mut sampler, run.uniwit_samples, &mut rng);
    SamplerSummary {
        attempts: run.uniwit_samples,
        successes,
        avg_sample_time: average_duration(stats.wall_time, run.uniwit_samples),
        preparation_time,
        avg_xor_length: stats.average_xor_length(),
        failed_to_prepare: false,
    }
}

fn average_duration(total: Duration, count: usize) -> Duration {
    if count == 0 {
        Duration::ZERO
    } else {
        total / count as u32
    }
}

/// Runs the full comparison over a suite of benchmarks.
pub fn run_table(suite: &[Benchmark], run: &TableRunConfig) -> Vec<TableRow> {
    suite
        .iter()
        .map(|benchmark| TableRow {
            name: benchmark.name.clone(),
            num_vars: benchmark.num_vars(),
            sampling_set_size: benchmark.sampling_set_size(),
            unigen: measure_unigen(benchmark, run),
            uniwit: measure_uniwit(benchmark, run),
        })
        .collect()
}

/// Formats a duration as seconds with millisecond resolution.
pub fn format_seconds(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

fn summary_cells(summary: &SamplerSummary) -> (String, String, String) {
    if summary.failed_to_prepare || summary.attempts == 0 {
        ("-".into(), "-".into(), "-".into())
    } else {
        (
            format!("{:.2}", summary.success_probability()),
            format_seconds(summary.avg_sample_time),
            format!("{:.1}", summary.avg_xor_length),
        )
    }
}

/// Renders the table in the layout of the paper's Table 1 / Table 2.
pub fn render_table(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>7} {:>5} | {:>9} {:>12} {:>8} | {:>9} {:>12} {:>8}\n",
        "Benchmark",
        "|X|",
        "|S|",
        "UG succ",
        "UG time(s)",
        "UG xlen",
        "UW succ",
        "UW time(s)",
        "UW xlen"
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for row in rows {
        let (ug_succ, ug_time, ug_xlen) = summary_cells(&row.unigen);
        let (uw_succ, uw_time, uw_xlen) = summary_cells(&row.uniwit);
        out.push_str(&format!(
            "{:<20} {:>7} {:>5} | {:>9} {:>12} {:>8} | {:>9} {:>12} {:>8}\n",
            row.name,
            row.num_vars,
            row.sampling_set_size,
            ug_succ,
            ug_time,
            ug_xlen,
            uw_succ,
            uw_time,
            uw_xlen
        ));
    }
    out
}

/// Renders the rows as CSV (one header line plus one line per row), for
/// post-processing or plotting.
pub fn render_csv(rows: &[TableRow]) -> String {
    let mut out = String::from(
        "benchmark,num_vars,sampling_set,unigen_succ_prob,unigen_avg_time_s,unigen_avg_xor_len,unigen_prep_s,uniwit_succ_prob,uniwit_avg_time_s,uniwit_avg_xor_len\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.6},{:.2},{:.6},{:.4},{:.6},{:.2}\n",
            row.name,
            row.num_vars,
            row.sampling_set_size,
            row.unigen.success_probability(),
            row.unigen.avg_sample_time.as_secs_f64(),
            row.unigen.avg_xor_length,
            row.unigen.preparation_time.as_secs_f64(),
            row.uniwit.success_probability(),
            row.uniwit.avg_sample_time.as_secs_f64(),
            row.uniwit.avg_xor_length,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Incremental-vs-scratch BSAT benchmark (`BENCH_incremental.json`)
// ---------------------------------------------------------------------------

/// Aggregate solver-work measurements of one enumeration mode over a fixed
/// sequence of hash cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLoopMeasurement {
    /// Total wall-clock time for the whole cell sequence.
    pub seconds: f64,
    /// Wall-clock time per cell (≈ per sample, since UniGen issues roughly
    /// one accepted cell per sample).
    pub seconds_per_cell: f64,
    /// Unit propagations per `BSAT` call.
    pub propagations_per_call: f64,
    /// Conflicts per `BSAT` call.
    pub conflicts_per_call: f64,
    /// Total witnesses enumerated (sanity check across modes).
    pub witnesses: usize,
    /// Order-independent fingerprint of every (projected) witness of every
    /// cell, so the modes are compared on the actual witness *sets*, not
    /// just their sizes.
    pub witness_fingerprint: u64,
}

/// One instance's incremental-vs-scratch comparison, with a Gauss–Jordan
/// on/off ablation of the incremental mode.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalComparison {
    /// Benchmark instance name.
    pub name: String,
    /// Number of CNF variables.
    pub num_vars: usize,
    /// Sampling-set size.
    pub sampling_set_size: usize,
    /// Number of hash cells enumerated (identical layers in all modes).
    pub cells: usize,
    /// Rebuilding a fresh solver per cell (the pre-incremental behaviour).
    pub scratch: CellLoopMeasurement,
    /// One persistent solver with guard-scoped cells (the default
    /// configuration, i.e. Gauss–Jordan auto-enabled on wide layers).
    pub incremental: CellLoopMeasurement,
    /// The same persistent-solver loop with Gauss–Jordan forced off
    /// (watched-variable xor propagation only) — the ablation column.
    pub incremental_nogauss: CellLoopMeasurement,
}

impl IncrementalComparison {
    /// Scratch time divided by incremental time (> 1 means the incremental
    /// path is faster).
    pub fn speedup(&self) -> f64 {
        if self.incremental.seconds > 0.0 {
            self.scratch.seconds / self.incremental.seconds
        } else {
            f64::INFINITY
        }
    }

    /// Scratch time divided by the gauss-off incremental time.
    pub fn nogauss_speedup(&self) -> f64 {
        if self.incremental_nogauss.seconds > 0.0 {
            self.scratch.seconds / self.incremental_nogauss.seconds
        } else {
            f64::INFINITY
        }
    }

    /// Gauss-off conflicts per call divided by gauss-on conflicts per call
    /// (> 1 means the matrix propagation avoided conflicts).
    pub fn gauss_conflict_reduction(&self) -> f64 {
        if self.incremental.conflicts_per_call > 0.0 {
            self.incremental_nogauss.conflicts_per_call / self.incremental.conflicts_per_call
        } else {
            f64::INFINITY
        }
    }

    /// `true` when all modes enumerated identical witness *sets* per cell
    /// (they solve the same deterministic cell sequence, so anything else is
    /// a solver bug).
    pub fn witnesses_match(&self) -> bool {
        self.scratch.witnesses == self.incremental.witnesses
            && self.scratch.witness_fingerprint == self.incremental.witness_fingerprint
            && self.scratch.witnesses == self.incremental_nogauss.witnesses
            && self.scratch.witness_fingerprint == self.incremental_nogauss.witness_fingerprint
    }
}

/// Parameters of an incremental-vs-scratch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalBenchConfig {
    /// Hash layers drawn per width of the probed operating window.
    pub cells_per_width: usize,
    /// Number of widths in the operating window (UniGen works `{q−3…q}`,
    /// i.e. a window of 4).
    pub width_window: usize,
    /// Enumeration bound per cell (the paper's `hiThresh`-style cap).
    pub bound: usize,
    /// Seed for the hash draws.
    pub seed: u64,
}

impl Default for IncrementalBenchConfig {
    fn default() -> Self {
        IncrementalBenchConfig {
            cells_per_width: 6,
            width_window: 4,
            bound: 47,
            seed: 0xdac2014,
        }
    }
}

/// The full report emitted as `BENCH_incremental.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalReport {
    /// The run parameters.
    pub config: IncrementalBenchConfig,
    /// Per-instance comparisons.
    pub instances: Vec<IncrementalComparison>,
}

impl IncrementalReport {
    /// Each instance's witness counts per mode — scratch, incremental,
    /// incremental without Gauss — in the order
    /// [`parse_baseline_witnesses`] reads them back.
    pub fn witness_counts(&self) -> Vec<(String, [usize; 3])> {
        self.instances
            .iter()
            .map(|i| {
                let counts = [
                    i.scratch.witnesses,
                    i.incremental.witnesses,
                    i.incremental_nogauss.witnesses,
                ];
                (i.name.clone(), counts)
            })
            .collect()
    }

    /// Geometric mean of the per-instance speedups.
    pub fn geometric_mean_speedup(&self) -> f64 {
        if self.instances.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.instances.iter().map(|i| i.speedup().ln()).sum();
        (log_sum / self.instances.len() as f64).exp()
    }
}

/// The instances used for the committed perf baseline: one representative of
/// each structurally distinct family, sized so the whole comparison runs in
/// seconds.
pub fn incremental_bench_suite() -> Vec<Benchmark> {
    vec![
        benchmarks::parity_chain("case121-like", 16, 4, 12, 0x0121),
        benchmarks::iscas_like("s526-like", 14, 180, 11, 0x0526),
        benchmarks::squaring("squaring8-like", 8, 6, 0x0808),
        benchmarks::squaring("squaring10-like", 10, 8, 0x0a10),
        benchmarks::long_chain("llreverse-like", 12, 60, 5, 0x11ef),
        benchmarks::sorter("sort4x4-like", 4, 4, 6, 0x5047),
        benchmarks::login_like("login3x6-like", 3, 6, 0x1061),
    ]
    .into_iter()
    .chain(crate::corpus::incremental_corpus_rows())
    .collect()
}

/// Finds the instance's *operating width*: the smallest hash width whose
/// random cell fits within the enumeration bound. UniGen's per-sample loop
/// only ever works the window `{q−3…q}` around this width (Algorithm 1,
/// lines 12–17), so the timed workload is drawn there — cells much wider or
/// narrower never recur in a real sampling run.
fn probe_operating_width(
    benchmark: &Benchmark,
    family: &XorHashFamily,
    bound: usize,
    rng: &mut StdRng,
) -> usize {
    let sampling = benchmark.formula.sampling_set_or_all();
    let mut solver = Solver::from_formula(&benchmark.formula);
    for width in 1..=sampling.len() {
        let layer = family.sample(width, rng).to_xor_clauses();
        let outcome = enumerate_cell(&mut solver, &sampling, &layer, bound + 1, &Budget::new());
        if outcome.len() <= bound {
            return width;
        }
    }
    sampling.len()
}

/// Draws the deterministic hash-layer sequence both modes will enumerate:
/// `cells_per_width` cells at each width of the 4-wide UniGen window ending
/// at `max_width` (already clamped by the caller).
fn draw_layers(
    family: &XorHashFamily,
    sampling_len: usize,
    operating_width: usize,
    config: &IncrementalBenchConfig,
    rng: &mut StdRng,
) -> Vec<Vec<XorClause>> {
    let hi = operating_width.min(sampling_len).max(1) + 1;
    let lo = hi.saturating_sub(config.width_window).max(1);
    let mut layers = Vec::new();
    for width in lo..=hi.min(sampling_len) {
        for _ in 0..config.cells_per_width {
            layers.push(family.sample(width, rng).to_xor_clauses());
        }
    }
    layers
}

/// Folds one cell's outcome into an order-independent fingerprint: the cell
/// index and witness count always contribute; the projected witnesses
/// themselves contribute only when the cell was enumerated exhaustively —
/// on a bound-capped cell the two modes legitimately pick different
/// (equally valid) subsets, so only the count is comparable there.
fn fold_cell(
    acc: u64,
    cell_index: usize,
    witnesses: &[unigen_cnf::Model],
    exhaustive: bool,
    sampling: &[Var],
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut acc = acc;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    (cell_index, witnesses.len(), exhaustive).hash(&mut hasher);
    acc ^= hasher.finish();
    if exhaustive {
        for model in witnesses {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            cell_index.hash(&mut hasher);
            for &v in sampling {
                model.value(v).hash(&mut hasher);
            }
            acc ^= hasher.finish();
        }
    }
    acc
}

/// One persistent-solver pass over the deterministic layer sequence, with
/// the given solver configuration (the gauss on/off ablation knob).
fn measure_guarded_loop(
    formula: &CnfFormula,
    sampling: &[Var],
    layers: &[Vec<XorClause>],
    bound: usize,
    budget: &Budget,
    solver_config: SolverConfig,
) -> CellLoopMeasurement {
    let calls = layers.len().max(1) as f64;
    let started = Instant::now();
    let mut solver = Solver::from_formula_with_config(formula, solver_config);
    let mut witnesses = 0usize;
    let mut fingerprint = 0u64;
    for (cell_index, layer) in layers.iter().enumerate() {
        let outcome = enumerate_cell(&mut solver, sampling, layer, bound, budget);
        witnesses += outcome.len();
        fingerprint = fold_cell(
            fingerprint,
            cell_index,
            &outcome.witnesses,
            outcome.is_exhaustive(),
            sampling,
        );
    }
    let seconds = started.elapsed().as_secs_f64();
    CellLoopMeasurement {
        seconds,
        seconds_per_cell: seconds / calls,
        propagations_per_call: solver.stats().propagations as f64 / calls,
        conflicts_per_call: solver.stats().conflicts as f64 / calls,
        witnesses,
        witness_fingerprint: fingerprint,
    }
}

/// Runs the incremental-vs-scratch comparison on one instance.
pub fn measure_incremental_comparison(
    benchmark: &Benchmark,
    config: &IncrementalBenchConfig,
) -> IncrementalComparison {
    let formula = &benchmark.formula;
    let sampling = formula.sampling_set_or_all();
    let family = XorHashFamily::new(sampling.clone());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let operating_width = probe_operating_width(benchmark, &family, config.bound, &mut rng);
    let layers = draw_layers(&family, sampling.len(), operating_width, config, &mut rng);
    let budget = Budget::new();
    let calls = layers.len().max(1) as f64;

    // Incremental: one solver, guard-scoped cells — once with the default
    // configuration (Gauss–Jordan auto) and once with the matrices off.
    let incremental = measure_guarded_loop(
        formula,
        &sampling,
        &layers,
        config.bound,
        &budget,
        SolverConfig::default(),
    );
    let incremental_nogauss = measure_guarded_loop(
        formula,
        &sampling,
        &layers,
        config.bound,
        &budget,
        SolverConfig {
            gauss: GaussMode::Off,
            ..SolverConfig::default()
        },
    );

    // Scratch: the seed codebase's behaviour, reproduced exactly — clone the
    // formula, rebuild a solver for every cell, and solve cold (from level
    // zero) for every witness, blocking with a plain added clause.
    let started = Instant::now();
    let mut scratch_witnesses = 0usize;
    let mut scratch_fingerprint = 0u64;
    let mut scratch_propagations = 0u64;
    let mut scratch_conflicts = 0u64;
    for (cell_index, layer) in layers.iter().enumerate() {
        let mut hashed = formula.clone();
        for xor in layer {
            hashed
                .add_xor_clause(xor.clone())
                .expect("hash clauses stay within the variable range");
        }
        let mut fresh = Solver::from_formula(&hashed);
        let mut cell_witnesses: Vec<unigen_cnf::Model> = Vec::new();
        let mut exhausted = false;
        while cell_witnesses.len() < config.bound {
            match fresh.solve_with_budget(&budget) {
                unigen_satsolver::SolveResult::Sat(model) => {
                    let blocking: Vec<unigen_cnf::Lit> = model
                        .project(&sampling)
                        .to_lits()
                        .iter()
                        .map(|&l| !l)
                        .collect();
                    fresh.add_clause(unigen_cnf::Clause::new(blocking));
                    cell_witnesses.push(model);
                }
                unigen_satsolver::SolveResult::Unsat => {
                    exhausted = true;
                    break;
                }
                unigen_satsolver::SolveResult::Unknown
                | unigen_satsolver::SolveResult::Interrupted(_) => break,
            }
        }
        scratch_witnesses += cell_witnesses.len();
        scratch_fingerprint = fold_cell(
            scratch_fingerprint,
            cell_index,
            &cell_witnesses,
            exhausted,
            &sampling,
        );
        scratch_propagations += fresh.stats().propagations;
        scratch_conflicts += fresh.stats().conflicts;
    }
    let scratch_seconds = started.elapsed().as_secs_f64();
    let scratch = CellLoopMeasurement {
        seconds: scratch_seconds,
        seconds_per_cell: scratch_seconds / calls,
        propagations_per_call: scratch_propagations as f64 / calls,
        conflicts_per_call: scratch_conflicts as f64 / calls,
        witnesses: scratch_witnesses,
        witness_fingerprint: scratch_fingerprint,
    };

    IncrementalComparison {
        name: benchmark.name.clone(),
        num_vars: benchmark.num_vars(),
        sampling_set_size: benchmark.sampling_set_size(),
        cells: layers.len(),
        scratch,
        incremental,
        incremental_nogauss,
    }
}

/// Runs the comparison over a suite.
pub fn run_incremental_bench(
    suite: &[Benchmark],
    config: &IncrementalBenchConfig,
) -> IncrementalReport {
    IncrementalReport {
        config: *config,
        instances: suite
            .iter()
            .map(|b| measure_incremental_comparison(b, config))
            .collect(),
    }
}

/// Formats a ratio for the hand-rolled JSON: division by a zero denominator
/// yields `f64::INFINITY` (e.g. zero conflicts in the gauss-on loop), which
/// `{:.3}` would render as the invalid JSON token `inf` — emit `null`
/// instead so the document stays machine-readable.
fn json_ratio(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

fn json_measurement(m: &CellLoopMeasurement) -> String {
    format!(
        "{{\"seconds\": {:.6}, \"seconds_per_cell\": {:.6}, \"propagations_per_call\": {:.1}, \"conflicts_per_call\": {:.1}, \"witnesses\": {}}}",
        m.seconds, m.seconds_per_cell, m.propagations_per_call, m.conflicts_per_call, m.witnesses
    )
}

/// Renders the report as the machine-readable `BENCH_incremental.json`
/// document (hand-rolled JSON; instance names are plain ASCII).
pub fn render_incremental_json(report: &IncrementalReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"incremental_vs_scratch_bsat\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"cells_per_width\": {}, \"width_window\": {}, \"bound\": {}, \"seed\": {}}},\n",
        report.config.cells_per_width,
        report.config.width_window,
        report.config.bound,
        report.config.seed
    ));
    out.push_str(&format!(
        "  \"geometric_mean_speedup\": {},\n",
        json_ratio(report.geometric_mean_speedup())
    ));
    out.push_str("  \"instances\": [\n");
    for (i, instance) in report.instances.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"num_vars\": {}, \"sampling_set\": {}, \"cells\": {}, \"speedup\": {}, \"nogauss_speedup\": {}, \"gauss_conflict_reduction\": {}, \"witnesses_match\": {},\n",
            instance.name,
            instance.num_vars,
            instance.sampling_set_size,
            instance.cells,
            json_ratio(instance.speedup()),
            json_ratio(instance.nogauss_speedup()),
            json_ratio(instance.gauss_conflict_reduction()),
            instance.witnesses_match()
        ));
        out.push_str(&format!(
            "     \"scratch\": {},\n     \"incremental\": {},\n     \"incremental_nogauss\": {}}}{}\n",
            json_measurement(&instance.scratch),
            json_measurement(&instance.incremental),
            json_measurement(&instance.incremental_nogauss),
            if i + 1 < report.instances.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the committed `geometric_mean_speedup` from a previously written
/// `BENCH_incremental.json` document (the perf-trajectory baseline the CI
/// gate compares against). Hand-rolled to match the hand-rolled writer; the
/// workspace deliberately has no JSON dependency.
pub fn parse_baseline_geomean(json: &str) -> Option<f64> {
    let key = "\"geometric_mean_speedup\":";
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts each instance's per-mode `witnesses` counts — scratch,
/// incremental, incremental without Gauss — from a previously written
/// `BENCH_incremental.json` document, in file order. A count is a pure
/// function of formula, seeded hash and bound, independent of solver
/// heuristics, so the perf gate pins it against the baseline too.
pub fn parse_baseline_witnesses(json: &str) -> Option<Vec<(String, [usize; 3])>> {
    let key = "\"witnesses\":";
    let mut rows = Vec::new();
    for row in json.split("{\"name\": \"").skip(1) {
        let name = &row[..row.find('"')?];
        let mut counts = [0; 3];
        for (count, mode) in counts.iter_mut().zip([
            "\"scratch\":",
            "\"incremental\":",
            "\"incremental_nogauss\":",
        ]) {
            let rest = &row[row.find(mode)?..];
            let rest = rest[rest.find(key)? + key.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            *count = rest[..end].parse().ok()?;
        }
        rows.push((name.to_string(), counts));
    }
    (!rows.is_empty()).then_some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_circuit::benchmarks;

    #[test]
    fn summary_probability_handles_zero_attempts() {
        assert_eq!(SamplerSummary::unavailable().success_probability(), 0.0);
    }

    #[test]
    fn table_row_rendering_contains_benchmark_names() {
        let rows = vec![TableRow {
            name: "demo".into(),
            num_vars: 100,
            sampling_set_size: 10,
            unigen: SamplerSummary {
                attempts: 4,
                successes: 4,
                avg_sample_time: Duration::from_millis(12),
                preparation_time: Duration::from_millis(100),
                avg_xor_length: 5.0,
                failed_to_prepare: false,
            },
            uniwit: SamplerSummary::unavailable(),
        }];
        let text = render_table(&rows);
        assert!(text.contains("demo"));
        assert!(text.contains("1.00"));
        assert!(text.contains('-'));
        let csv = render_csv(&rows);
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("demo,100,10"));
    }

    #[test]
    fn measuring_a_tiny_benchmark_end_to_end() {
        // A small instance keeps this unit test fast while exercising the
        // full measurement path.
        let benchmark = benchmarks::parity_chain("harness-smoke", 8, 2, 2, 3);
        let run = TableRunConfig {
            unigen_samples: 3,
            uniwit_samples: 2,
            ..TableRunConfig::default()
        };
        let row = &run_table(std::slice::from_ref(&benchmark), &run)[0];
        assert_eq!(row.name, "harness-smoke");
        assert!(row.unigen.attempts == 3);
        assert!(row.unigen.successes >= 1);
    }

    #[test]
    fn env_overrides_are_optional() {
        let config = TableRunConfig::from_env();
        assert!(config.unigen_samples > 0);
    }

    #[test]
    fn incremental_comparison_modes_agree_on_witness_counts() {
        let benchmark = benchmarks::parity_chain("inc-smoke", 8, 2, 2, 3);
        let config = IncrementalBenchConfig {
            cells_per_width: 1,
            width_window: 3,
            bound: 16,
            seed: 9,
        };
        let comparison = measure_incremental_comparison(&benchmark, &config);
        assert!(comparison.witnesses_match(), "{comparison:?}");
        assert!(comparison.cells >= 1 && comparison.cells <= 3);
        assert!(comparison.incremental.seconds >= 0.0);
    }

    #[test]
    fn incremental_json_is_well_formed_enough() {
        let benchmark = benchmarks::parity_chain("inc-json", 8, 2, 2, 4);
        let config = IncrementalBenchConfig {
            cells_per_width: 1,
            width_window: 2,
            bound: 8,
            seed: 5,
        };
        let report = run_incremental_bench(std::slice::from_ref(&benchmark), &config);
        let json = render_incremental_json(&report);
        assert!(json.contains("\"incremental_vs_scratch_bsat\""));
        assert!(json.contains("\"inc-json\""));
        assert!(json.contains("geometric_mean_speedup"));
        assert!(json.contains("\"incremental_nogauss\""));
        assert!(json.contains("\"gauss_conflict_reduction\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        // The perf gate reads its baseline back out of exactly this format.
        let geomean = parse_baseline_geomean(&json).expect("geomean parses back");
        assert!((geomean - report.geometric_mean_speedup()).abs() < 0.001);
        let witnesses = parse_baseline_witnesses(&json).expect("witness counts parse back");
        assert_eq!(witnesses, report.witness_counts());
        assert_eq!(parse_baseline_witnesses("{}"), None);
        assert_eq!(
            parse_baseline_witnesses("{\"name\": \"a\", \"scratch\": {\"witnesses\": 3}}"),
            None,
            "a row missing a mode is rejected"
        );
    }

    #[test]
    fn infinite_ratios_render_as_null_not_inf() {
        assert_eq!(json_ratio(2.5), "2.500");
        assert_eq!(json_ratio(f64::INFINITY), "null");
        assert_eq!(json_ratio(f64::NAN), "null");

        // A gauss-on loop with zero conflicts (the matrices' best case)
        // must not corrupt the machine-readable report.
        let perfect = CellLoopMeasurement {
            seconds: 0.5,
            seconds_per_cell: 0.05,
            propagations_per_call: 10.0,
            conflicts_per_call: 0.0,
            witnesses: 4,
            witness_fingerprint: 1,
        };
        let report = IncrementalReport {
            config: IncrementalBenchConfig::default(),
            instances: vec![IncrementalComparison {
                name: "zero-conflicts".into(),
                num_vars: 4,
                sampling_set_size: 4,
                cells: 1,
                scratch: CellLoopMeasurement {
                    conflicts_per_call: 7.0,
                    ..perfect
                },
                incremental: perfect,
                incremental_nogauss: CellLoopMeasurement {
                    conflicts_per_call: 7.0,
                    ..perfect
                },
            }],
        };
        let json = render_incremental_json(&report);
        assert!(json.contains("\"gauss_conflict_reduction\": null"));
        assert!(!json.contains("inf"), "invalid JSON token in {json}");
    }

    #[test]
    fn baseline_geomean_parsing_is_robust() {
        assert_eq!(
            parse_baseline_geomean("{\"geometric_mean_speedup\": 2.337,\n"),
            Some(2.337)
        );
        assert_eq!(
            parse_baseline_geomean("{ \"geometric_mean_speedup\":1.0}"),
            Some(1.0)
        );
        assert_eq!(parse_baseline_geomean("{}"), None);
        assert_eq!(
            parse_baseline_geomean("\"geometric_mean_speedup\": x"),
            None
        );
    }
}
