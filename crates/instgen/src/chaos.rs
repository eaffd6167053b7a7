//! The chaos differential harness: deterministic fault injection layered
//! over the adversarial instance corpus.
//!
//! Where [`crate::fuzz`] cross-checks *undisturbed* solver and sampler
//! stacks, this module drives the same stacks through a seeded
//! [`FaultPlan`] and checks the graceful-degradation contract:
//!
//! * **Replay equivalence** — two runs under bit-identical fault schedules
//!   observe the same injected-fault count and produce the same witness
//!   sequence (the plan is deterministic, not merely random).
//! * **Absorption** — every fault the recovery ladder absorbs (failed
//!   `BSAT` calls, poisoned Gauss seals, a panicking service worker) leaves
//!   the emitted witness sequence **bit-identical** to the fault-free
//!   reference, because retries reuse the already-drawn hash layers and the
//!   per-index RNG streams are re-derived, never advanced.
//! * **Accounting** — the persistent solver's guard counters stay balanced
//!   under injection (no leaked activation guards), and the service's
//!   [`ServiceHealth`] reflects exactly the scheduled worker panics and
//!   respawns.
//!
//! Every lane runs with [`unigen::UniGenConfig::certify`] enabled, so the
//! independent proof checker rides along through the injected faults: a
//! ladder retry or pristine rebuild that desynchronised the proof stream
//! from the checker would surface as a certification error (and a ⊥
//! witness) here.
//!
//! Everything is driven by one `u64` seed, mirroring
//! [`crate::fuzz::differential_case`]: a failure report's name + seed is a
//! complete reproduction recipe.

use std::sync::Arc;

use unigen::{
    FaultPlan, SampleOutcome, SampleRequest, SampleStats, SamplerError, ServiceConfig,
    ServiceHealth, UniGen, UniGenConfig, WitnessSampler, WorkerPool,
};
use unigen_cnf::CnfFormula;

/// What one chaos case observed; `divergence` is `None` when every
/// robustness invariant held.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Instance name (from [`crate::InstanceGenerator::name`]).
    pub name: String,
    /// The case seed — with the name, the full reproduction recipe.
    pub seed: u64,
    /// Human-readable description of the injected schedule.
    pub schedule: String,
    /// Solver-level faults the plan injected (per serial lane).
    pub faults_injected: u64,
    /// Ladder retries observed in the faulted lane's sample stats.
    pub retries: usize,
    /// Ladder degradations (Gauss-off fallbacks, pristine rebuilds).
    pub degradations: usize,
    /// Worker respawns performed by the service lane.
    pub service_respawns: u64,
    /// Human-readable description of the first violated invariant, if any.
    pub divergence: Option<String>,
}

/// SplitMix64 mixing step — the schedule derivation, kept independent of the
/// vendored RNG shim so chaos schedules never drift with shim changes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds the case's solver-level fault schedule. Calling this twice with
/// the same seed yields two *independent* plans with bit-identical
/// schedules — which is exactly what the replay-equivalence check needs
/// (a plan's counters are stateful, so lanes must not share one).
fn build_plan(seed: u64) -> (String, FaultPlan) {
    let s = splitmix64(seed ^ 0xc0a5);
    match s % 4 {
        0 => {
            let n = 1 + s % 3;
            (
                format!("fail-bsat-{n}"),
                FaultPlan::seeded(seed).fail_nth_bsat(n),
            )
        }
        1 => {
            let permille = (100 + s % 300) as u16;
            (
                format!("exhaust-permille-{permille}"),
                FaultPlan::seeded(seed).exhaust_with_permille(permille),
            )
        }
        2 => {
            let n = 1 + s % 2;
            (
                format!("poison-gauss-seal-{n}"),
                FaultPlan::seeded(seed).poison_nth_gauss_seal(n),
            )
        }
        _ => {
            let n = 1 + s % 2;
            (
                format!("fail-bsat-{n}+poison-gauss-seal-1"),
                FaultPlan::seeded(seed)
                    .fail_nth_bsat(n)
                    .poison_nth_gauss_seal(1),
            )
        }
    }
}

fn witness_sequence(outcomes: &[SampleOutcome]) -> Vec<Option<Vec<bool>>> {
    outcomes
        .iter()
        .map(|o| o.witness.as_ref().map(|w| w.values().to_vec()))
        .collect()
}

fn total_stats(outcomes: &[SampleOutcome]) -> SampleStats {
    let mut total = SampleStats::default();
    for outcome in outcomes {
        total.accumulate(&outcome.stats);
    }
    total
}

/// Runs the chaos differential check on `formula` with the per-case batch
/// size `count`. Unsatisfiable instances verify the typed preparation error
/// and return early — there is no sampling stack to fault.
pub fn chaos_case(name: &str, formula: &CnfFormula, seed: u64, count: usize) -> ChaosReport {
    let mut report = ChaosReport {
        name: name.to_string(),
        seed,
        schedule: String::new(),
        faults_injected: 0,
        retries: 0,
        degradations: 0,
        service_respawns: 0,
        divergence: None,
    };

    let prepared = match UniGen::new(formula, UniGenConfig::default().with_certify(true)) {
        Ok(prepared) => prepared,
        Err(SamplerError::Unsatisfiable) => {
            report.schedule = "unsat-instance (no sampling stack to fault)".to_string();
            return report;
        }
        Err(other) => {
            report.divergence = Some(format!("UniGen preparation failed with {other:?}"));
            return report;
        }
    };

    // The fault-free reference lane.
    let mut reference_lane = prepared.clone();
    let reference = reference_lane.sample_batch(count, seed);
    if let Some(err) = reference_lane.cert_error() {
        report.divergence = Some(format!(
            "certification rejected the fault-free reference lane: {err}"
        ));
        return report;
    }

    // Two serial faulted lanes under bit-identical schedules: each must be
    // bit-identical to the reference (the ladder absorbs every injected
    // fault) and to each other (replay equivalence on the fault counts).
    let mut lane_faults = [0u64; 2];
    for (lane, lane_fault) in lane_faults.iter_mut().enumerate() {
        let (schedule, plan) = build_plan(seed);
        report.schedule = schedule;
        let plan = Arc::new(plan);
        let mut faulted = prepared.clone();
        faulted.install_fault_plan(Arc::clone(&plan));
        let batch = faulted.sample_batch(count, seed);

        if let Some(err) = faulted.cert_error() {
            report.divergence = Some(format!(
                "lane {lane} under schedule `{}`: certification rejected the \
                 faulted lane's proof stream: {err}",
                report.schedule
            ));
            return report;
        }
        if witness_sequence(&batch) != witness_sequence(&reference) {
            report.divergence = Some(format!(
                "lane {lane} under schedule `{}` diverged from the fault-free \
                 witness sequence",
                report.schedule
            ));
            return report;
        }
        let stats = faulted.solver_stats();
        if stats.guards_created != stats.guards_retired {
            report.divergence = Some(format!(
                "lane {lane} under schedule `{}` leaked guards: {} created, {} retired",
                report.schedule, stats.guards_created, stats.guards_retired
            ));
            return report;
        }
        *lane_fault = plan.faults_injected();
        let totals = total_stats(&batch);
        report.faults_injected = plan.faults_injected();
        report.retries = totals.retries;
        report.degradations = totals.degradations;
        // Every injected fault must have been observed and absorbed by the
        // ladder: a fault with no matching retry/degradation would mean a
        // silently swallowed injection.
        if (totals.retries + totals.degradations) < totals.faults_injected {
            report.divergence = Some(format!(
                "lane {lane} under schedule `{}`: {} faults observed but only \
                 {} retries + {} degradations",
                report.schedule, totals.faults_injected, totals.retries, totals.degradations
            ));
            return report;
        }
    }
    if lane_faults[0] != lane_faults[1] {
        report.divergence = Some(format!(
            "replay divergence under schedule `{}`: lane 0 injected {} faults, \
             lane 1 injected {}",
            report.schedule, lane_faults[0], lane_faults[1]
        ));
        return report;
    }

    // The service lane: a scheduled one-shot worker panic mid-batch. One
    // worker keeps the schedule deterministic (with more, another worker
    // could pop the item, and the plan targets worker 0 only).
    let panic_item = (splitmix64(seed ^ 0x7a71c) % count as u64) as usize;
    let plan = Arc::new(FaultPlan::seeded(seed).panic_worker_at(0, panic_item));
    let service = match WorkerPool::try_with_fault_plan(
        ServiceConfig::default().with_workers(1),
        Some(Arc::clone(&plan)),
    ) {
        Ok(pool) => pool.serve(prepared),
        Err(err) => {
            report.divergence = Some(format!("service construction failed: {err}"));
            return report;
        }
    };
    let response = service.submit(SampleRequest::new(count, seed)).wait();
    if witness_sequence(&response.outcomes) != witness_sequence(&reference) {
        report.divergence = Some(format!(
            "service lane (worker 0 panics at item {panic_item}) diverged from \
             the fault-free witness sequence"
        ));
        return report;
    }
    let health: ServiceHealth = service.pool().health();
    if health.worker_panics != 1 || health.respawns != 1 {
        report.divergence = Some(format!(
            "service lane health after a scheduled panic at item {panic_item}: \
             panics={} respawns={} (expected 1/1)",
            health.worker_panics, health.respawns
        ));
        return report;
    }
    report.service_respawns = health.respawns;
    service.shutdown();

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceGenerator, ScaleFreeConfig, SgenConfig};

    #[test]
    fn chaos_case_passes_on_a_small_sat_instance() {
        let config = ScaleFreeConfig {
            num_vars: 10,
            num_clauses: 25,
            clause_len: 3,
            exponent_quarters: 3,
        };
        let formula = config.generate(1);
        let report = chaos_case(&config.name(), &formula, 1, 4);
        assert_eq!(report.divergence, None, "{report:?}");
        assert_eq!(report.service_respawns, 1);
    }

    #[test]
    fn chaos_case_short_circuits_on_unsat() {
        let config = SgenConfig {
            blocks: 1,
            unsat: true,
        };
        let formula = config.generate(3);
        let report = chaos_case(&config.name(), &formula, 3, 4);
        assert_eq!(report.divergence, None, "{report:?}");
        assert!(report.schedule.contains("unsat"));
    }

    #[test]
    fn schedules_are_seed_deterministic_and_cover_all_kinds() {
        let (a, _) = build_plan(7);
        let (b, _) = build_plan(7);
        assert_eq!(a, b, "same seed must derive the same schedule");
        let kinds: std::collections::BTreeSet<String> = (0..32)
            .map(|seed| {
                let (schedule, _) = build_plan(seed);
                schedule
                    .split(['-', '+'])
                    .next()
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        assert!(kinds.len() >= 3, "32 seeds only covered {kinds:?}");
    }
}
