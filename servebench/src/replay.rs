//! Traced in-process replay: every request of a traced wire phase runs
//! again through `dimacs::parse` → `ApproxMc` → `UniGen::new` →
//! `SamplerService::try_new` → `sample_batch`, with a span around each
//! call, and each wire stream is checked bit-for-bit against the replay.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use unigen::service::ServiceConfig;
use unigen::{OutcomeKind, PreparedMode, SamplerService, UniGen, UniGenConfig, WitnessSampler};
use unigen_cnf::{dimacs, Var};
use unigen_counting::ApproxMc;
use unigen_net::server::default_spec;
use unigen_net::wire::{self, WireOutcomeKind};

use crate::gen::{Formula, Planned, Reference};
use crate::trace::SpanLog;
use crate::wireconn::Exchange;

/// Totals of one replay.
#[derive(Debug, Default, Clone)]
pub struct ReplayTotals {
    /// Requests replayed / requests in the phase.
    pub replayed: usize,
    /// Requests in the phase.
    pub total: usize,
    /// Request bodies parsed (inline requests).
    pub parses: usize,
    /// Seconds in `parse` + `to_dimacs_string` + `wire::fingerprint`.
    pub parse_s: f64,
    /// Formulas prepared.
    pub prepares: usize,
    /// Seconds in `ApproxMc::count_with_sampling_set` (hashed formulas;
    /// the same deterministic call `UniGen::new` makes).
    pub approxmc_s: f64,
    /// BSAT calls of those counts.
    pub approxmc_bsat: u64,
    /// Seconds in `UniGen::new` (ApproxMC included).
    pub unigen_new_s: f64,
    /// Seconds in `SamplerService::try_new`.
    pub spawn_s: f64,
    /// Outcomes sampled.
    pub outcomes: u64,
    /// Seconds in `sample_batch`.
    pub sample_s: f64,
    /// BSAT calls while sampling.
    pub sample_bsat: u64,
    /// Solver propagation, conflict and Gauss row-op deltas while sampling.
    pub propagations: u64,
    /// See `propagations`.
    pub conflicts: u64,
    /// See `propagations`.
    pub gauss_row_ops: u64,
}

fn wire_kind(kind: OutcomeKind) -> WireOutcomeKind {
    match kind {
        OutcomeKind::Witness => WireOutcomeKind::Witness,
        OutcomeKind::Bottom => WireOutcomeKind::Bottom,
        OutcomeKind::Interrupted => WireOutcomeKind::Interrupted,
        OutcomeKind::Faulted => WireOutcomeKind::Faulted,
    }
}

/// The prepare configuration the daemon uses for the default wire spec.
pub fn prepare_config() -> UniGenConfig {
    UniGenConfig {
        seed: default_spec().prepare_seed,
        ..UniGenConfig::default()
    }
}

/// Replay `records` in order until `budget` runs out, keeping prepared
/// samplers for later requests when `keep_prepared` (formulas that are
/// named again). Returns the totals, or `Err` when a wire stream differs
/// from the in-process batch.
pub fn replay(
    records: &[(Planned, Exchange)],
    keep_prepared: bool,
    jobs: usize,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<ReplayTotals, String> {
    let started = Instant::now();
    let mut totals = ReplayTotals {
        total: records.len(),
        ..ReplayTotals::default()
    };
    let mut prepared: HashMap<u64, UniGen> = HashMap::new();
    for (i, (planned, ex)) in records.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let request = i as u64;
        let root = Some(log.open("replay.request", None, request));
        let formula: &Formula = &planned.formula;
        if planned.reference == Reference::Inline {
            let (fp, took) = log.time("cnf.parse", root, request, || {
                let cnf = dimacs::parse(&formula.dimacs).map_err(|e| e.to_string())?;
                let canonical = dimacs::to_dimacs_string(&cnf);
                Ok::<u64, String>(wire::fingerprint(canonical.as_bytes(), &default_spec()))
            });
            if fp? != formula.fingerprint {
                return Err(format!("{}: fingerprint differs on re-parse", formula.name));
            }
            totals.parses += 1;
            totals.parse_s += took.as_secs_f64();
        }
        let ug = match prepared.entry(formula.fingerprint) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert(prepare(formula, jobs, log, root, request, &mut totals)?)
            }
        };
        let before = *ug.solver_stats();
        let count = usize::try_from(planned.count).map_err(|e| e.to_string())?;
        let (outcomes, took) = log.time("sample_batch", root, request, || {
            ug.sample_batch(count, planned.master_seed)
        });
        let after = *ug.solver_stats();
        totals.sample_s += took.as_secs_f64();
        totals.outcomes += outcomes.len() as u64;
        totals.sample_bsat += outcomes
            .iter()
            .map(|o| o.stats.bsat_calls as u64)
            .sum::<u64>();
        totals.propagations += after.propagations - before.propagations;
        totals.conflicts += after.conflicts - before.conflicts;
        totals.gauss_row_ops += after.gauss_row_ops - before.gauss_row_ops;
        if let Some(root) = root {
            log.close(root);
        }
        if ex.answered() {
            compare(formula, &outcomes, ex)?;
        }
        totals.replayed += 1;
        if !keep_prepared {
            prepared.remove(&formula.fingerprint);
        }
    }
    Ok(totals)
}

/// Prepare `formula` as the daemon does, timing `UniGen::new`, the
/// identical ApproxMC call it makes (hashed formulas only) and the
/// service spawn.
fn prepare(
    formula: &Formula,
    jobs: usize,
    log: &mut SpanLog,
    root: Option<usize>,
    request: u64,
    totals: &mut ReplayTotals,
) -> Result<UniGen, String> {
    let config = prepare_config();
    let (ug, took) = log.time("unigen.new", root, request, || {
        UniGen::new(&formula.cnf, config.clone())
    });
    let ug = ug.map_err(|e| format!("{}: prepare failed: {e}", formula.name))?;
    totals.unigen_new_s += took.as_secs_f64();
    if matches!(ug.prepared_mode(), PreparedMode::Hashed { .. }) {
        let (count, took) = log.time("approxmc", root, request, || {
            ApproxMc::new(config.approxmc.clone()).count_with_sampling_set(
                &formula.cnf,
                ug.sampling_set(),
                config.seed,
            )
        });
        let count = count.map_err(|e| format!("{}: ApproxMC: {e}", formula.name))?;
        totals.approxmc_s += took.as_secs_f64();
        totals.approxmc_bsat += count.bsat_calls as u64;
    }
    let (service, took) = log.time("service.spawn", root, request, || {
        SamplerService::try_new(ug.clone(), ServiceConfig::default().with_workers(jobs))
    });
    service
        .map_err(|e| format!("service spawn: {e}"))?
        .shutdown();
    totals.spawn_s += took.as_secs_f64();
    totals.prepares += 1;
    Ok(ug)
}

/// The wire stream must equal the in-process batch: same kind at every
/// index, same projected witness bits.
fn compare(
    formula: &Formula,
    outcomes: &[unigen::SampleOutcome],
    ex: &Exchange,
) -> Result<(), String> {
    if outcomes.len() != ex.chunks.len() {
        return Err(format!(
            "{}: wire stream length differs from sample_batch",
            formula.name
        ));
    }
    let set: Vec<Var> = formula
        .sampling_set
        .iter()
        .map(|&v| Var::new(v as usize))
        .collect();
    for (i, (outcome, (_, kind, bits))) in outcomes.iter().zip(&ex.chunks).enumerate() {
        let expected_bits = match &outcome.witness {
            Some(model) => wire::pack_bits(model.project(&set).values()),
            None => Vec::new(),
        };
        if wire_kind(outcome.kind) != *kind || expected_bits != *bits {
            return Err(format!(
                "{}: wire outcome {i} differs from in-process sample_batch",
                formula.name
            ));
        }
    }
    Ok(())
}

/// Certification overhead on `formula`: `sample_batch` time with
/// `certify` on over off, on the same batch.
pub fn cert_overhead(formula: &Formula, count: usize, master_seed: u64) -> Result<f64, String> {
    let timed = |certify: bool| -> Result<f64, String> {
        let config = UniGenConfig {
            certify,
            ..prepare_config()
        };
        let mut ug = UniGen::new(&formula.cnf, config).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let outcomes = ug.sample_batch(count, master_seed);
        let took = started.elapsed().as_secs_f64();
        if outcomes.iter().any(|o| o.kind == OutcomeKind::Faulted) {
            return Err(format!(
                "{}: a certified cell failed its check",
                formula.name
            ));
        }
        Ok(took)
    };
    let plain = timed(false)?;
    let certified = timed(true)?;
    Ok(certified / plain)
}
