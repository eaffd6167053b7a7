//! The common sampler interface and per-sample bookkeeping.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use unigen_cnf::{Model, Var, XorClause};
use unigen_satsolver::{
    enumerate_cell, Budget, EnumerationOutcome, InterruptReason, KnownWitnesses, Solver,
};

/// Statistics describing the work a single sample cost.
///
/// These are the quantities the paper's tables report per benchmark: the
/// average generation time, the average xor-clause length, and (implicitly,
/// through the success probability) how often the generator returns `⊥`.
///
/// Samplers only *count*: every field a sampler fills is a deterministic
/// tally of work (solver calls, xor clauses, retries, proof bytes). The
/// scheduling fields — `wall_time` and `queue_wait` — are stamped
/// by the [`crate::WorkerPool`] around each work item, so they are zero on
/// an outcome from a bare [`WitnessSampler::sample`] or
/// [`WitnessSampler::sample_batch`] call; a caller that wants the time of a
/// serial call measures it itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleStats {
    /// Number of bounded-enumeration (`BSAT`) calls issued.
    pub bsat_calls: usize,
    /// Number of xor clauses added across all hash draws of this sample.
    pub xor_clauses_added: usize,
    /// Total number of variables across those xor clauses (so the average
    /// xor length is `xor_vars_total / xor_clauses_added`).
    pub xor_vars_total: usize,
    /// Wall-clock time the worker spent in this sample's
    /// [`WitnessSampler::sample`] call (not in cloning the prototype first).
    /// Only the [`crate::WorkerPool`] sets this; serial sampling leaves it
    /// zero.
    pub wall_time: Duration,
    /// Unit propagations the solver performed for this sample (CNF + xor).
    pub solver_propagations: u64,
    /// Conflicts the solver hit for this sample.
    pub solver_conflicts: u64,
    /// Number of times the candidate hash-width window `{q−3, …, q}` had to
    /// be clamped because it fell entirely outside the representable widths
    /// `1..=|S|` (an over-estimated approximate count can push `q` past
    /// `|S| + 3`). Without the clamp the width loop would silently run zero
    /// iterations and report `⊥` with no solver work at all.
    pub width_window_clamped: usize,
    /// Time this sample's work item spent queued in the service scheduler
    /// between request submission and execution start. Only the
    /// [`crate::WorkerPool`] sets this; serial sampling leaves it zero.
    pub queue_wait: Duration,
    /// Number of cell enumerations that were *interrupted* (budget fired or
    /// fault injected) while producing this sample. Distinct from a genuine
    /// `⊥`: an interrupted cell says nothing about the cell's content,
    /// which is why the samplers no longer conflate the two.
    pub interrupted_cells: usize,
    /// Number of times an interrupted or faulted call was retried while
    /// producing this sample (cell-level retries in the samplers plus
    /// item-level retries in the service).
    pub retries: usize,
    /// Number of times the degradation ladder stepped down while producing
    /// this sample (Gauss-poisoned cell retried Gauss-off, or the
    /// incremental solver rebuilt from its pristine snapshot).
    pub degradations: usize,
    /// Number of injected faults observed while producing this sample.
    /// Zero unless a [`crate::FaultPlan`] (or custom hook) is installed.
    pub faults_injected: usize,
    /// Proof-stream bytes logged by the solver and fed to the independent
    /// checker while producing this sample. Zero unless certified
    /// enumeration ([`crate::UniGenConfig::certify`]) is on.
    pub proof_bytes: usize,
    /// Number of incremental certification checks run while producing this
    /// sample (one per cell enumeration when certify mode is on).
    pub cert_checks: usize,
}

impl SampleStats {
    /// Average xor-clause length used while producing this sample (the
    /// "Avg XOR len" column), or 0 if no xor clause was added.
    pub fn average_xor_length(&self) -> f64 {
        if self.xor_clauses_added == 0 {
            0.0
        } else {
            self.xor_vars_total as f64 / self.xor_clauses_added as f64
        }
    }

    /// Accumulates another sample's statistics into this one (used by the
    /// harness when averaging over many samples).
    pub fn accumulate(&mut self, other: &SampleStats) {
        self.bsat_calls += other.bsat_calls;
        self.xor_clauses_added += other.xor_clauses_added;
        self.xor_vars_total += other.xor_vars_total;
        self.wall_time += other.wall_time;
        self.solver_propagations += other.solver_propagations;
        self.solver_conflicts += other.solver_conflicts;
        self.width_window_clamped += other.width_window_clamped;
        self.queue_wait += other.queue_wait;
        self.interrupted_cells += other.interrupted_cells;
        self.retries += other.retries;
        self.degradations += other.degradations;
        self.faults_injected += other.faults_injected;
        self.proof_bytes += other.proof_bytes;
        self.cert_checks += other.cert_checks;
    }
}

/// Prints `name=value` for every non-zero field, separated by spaces (and
/// nothing at all for an all-zero record), in declaration order; durations
/// use their `Debug` form.
impl std::fmt::Display for SampleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters: [(&str, u64); 12] = [
            ("bsat_calls", self.bsat_calls as u64),
            ("xor_clauses_added", self.xor_clauses_added as u64),
            ("xor_vars_total", self.xor_vars_total as u64),
            ("solver_propagations", self.solver_propagations),
            ("solver_conflicts", self.solver_conflicts),
            ("width_window_clamped", self.width_window_clamped as u64),
            ("interrupted_cells", self.interrupted_cells as u64),
            ("retries", self.retries as u64),
            ("degradations", self.degradations as u64),
            ("faults_injected", self.faults_injected as u64),
            ("proof_bytes", self.proof_bytes as u64),
            ("cert_checks", self.cert_checks as u64),
        ];
        let times = [
            ("wall_time", self.wall_time),
            ("queue_wait", self.queue_wait),
        ];
        let mut separator = "";
        for (name, value) in counters.into_iter().filter(|&(_, v)| v > 0) {
            write!(f, "{separator}{name}={value}")?;
            separator = " ";
        }
        for (name, value) in times.into_iter().filter(|(_, v)| !v.is_zero()) {
            write!(f, "{separator}{name}={value:?}")?;
            separator = " ";
        }
        Ok(())
    }
}

/// Runs one `BSAT` cell enumeration ([`enumerate_cell`]) on `solver`,
/// replaying `known` into it, and charges the solver work it cost to
/// `stats`: one `bsat_calls`, plus the propagations and conflicts the call
/// added to the solver's counters.
pub(crate) fn enumerate_charged(
    solver: &mut Solver,
    sampling_set: &[Var],
    clauses: &[XorClause],
    bound: usize,
    budget: &Budget,
    known: &KnownWitnesses,
    stats: &mut SampleStats,
) -> EnumerationOutcome {
    let before = *solver.stats();
    let outcome = enumerate_cell(solver, sampling_set, clauses, bound, budget, known);
    let after = solver.stats();
    stats.solver_propagations += after.propagations - before.propagations;
    stats.solver_conflicts += after.conflicts - before.conflicts;
    stats.bsat_calls += 1;
    outcome
}

/// Returns the dedicated RNG stream for sample `index` of a batch seeded
/// with `master_seed` — the stream-derivation rule shared by the serial
/// [`WitnessSampler::sample_batch`] reference, [`crate::SamplerService`] and
/// any caller that samples one index at a time, such as the serial CLI.
///
/// The pair is mixed through a SplitMix64 finalizer rather than a plain
/// `master_seed ^ index`: XOR alone maps batches with nearby master seeds to
/// the *same set* of streams in permuted order (e.g. seeds 0 and 1 over
/// indices `0..16` both yield streams seeded `{0, …, 15}`), silently
/// correlating supposedly independent batches. The determinism contract only
/// needs this to be a pure function of `(master_seed, index)`, which the mix
/// preserves.
pub fn stream_for_index(master_seed: u64, index: usize) -> StdRng {
    let mut z = master_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Sorts a cell's witnesses into the canonical order: ascending by their
/// projection onto the sampling set.
///
/// An exhaustively enumerated cell is a *set* determined entirely by the
/// formula and the hash, but the order in which the solver discovers its
/// members depends on heuristic state (activities, saved phases) accumulated
/// over earlier calls. Every sampler in this crate picks a uniform witness by
/// index, so sorting first makes the picked witness a function of the cell
/// and the RNG alone — the property the deterministic parallel batch engine
/// ([`crate::SamplerService`]) relies on to produce bit-identical output
/// regardless of how samples are scheduled across worker solvers.
pub(crate) fn sort_witnesses_canonically(witnesses: &mut [Model], sampling_set: &[Var]) {
    // Comparing from the *last* sampling-set variable down makes the
    // lexicographic order coincide with ascending numeric order of
    // `Projection::as_index` (which treats the first variable as the
    // least-significant bit), for sampling sets of any width.
    witnesses.sort_by_cached_key(|w| {
        sampling_set
            .iter()
            .rev()
            .map(|&v| w.value(v))
            .collect::<Vec<bool>>()
    });
}

/// What kind of result one sampling attempt produced.
///
/// Before this type existed a budget-interrupted cell and a genuine `⊥`
/// were both reported as "no witness"; the paper's `⊥` is a *definite*
/// answer (the pivot/threshold test failed), while an interruption says
/// nothing about the cell at all. Keeping the two (plus outright faults)
/// apart is what lets the service retry the right outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutcomeKind {
    /// A witness was produced.
    Witness,
    /// The paper's `⊥`: the attempt completed and definitively failed
    /// (empty cell, pivot exceeded, threshold missed).
    #[default]
    Bottom,
    /// The attempt was interrupted by a fired budget before completing;
    /// retrying with a larger budget may succeed.
    Interrupted,
    /// The attempt was lost to a fault (injected or a worker panic) that
    /// the recovery ladder could not absorb.
    Faulted,
}

impl std::fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutcomeKind::Witness => "witness",
            OutcomeKind::Bottom => "bottom",
            OutcomeKind::Interrupted => "interrupted",
            OutcomeKind::Faulted => "faulted",
        })
    }
}

/// The failure kind of a sample whose solver call was interrupted: an
/// injected or unrecovered fault is [`OutcomeKind::Faulted`], a fired
/// budget [`OutcomeKind::Interrupted`].
impl From<InterruptReason> for OutcomeKind {
    fn from(reason: InterruptReason) -> Self {
        if reason.is_fault() {
            OutcomeKind::Faulted
        } else {
            OutcomeKind::Interrupted
        }
    }
}

/// The result of one sampling attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleOutcome {
    /// The generated witness, or `None` for every non-witness kind.
    pub witness: Option<Model>,
    /// What the attempt cost.
    pub stats: SampleStats,
    /// What kind of result this is; `Witness` if and only if `witness` is
    /// `Some` (use the constructors to keep the invariant).
    pub kind: OutcomeKind,
}

impl SampleOutcome {
    /// A successful outcome carrying `model`.
    pub fn of_witness(model: Model, stats: SampleStats) -> Self {
        SampleOutcome {
            witness: Some(model),
            stats,
            kind: OutcomeKind::Witness,
        }
    }

    /// The paper's `⊥`: a definite failure.
    pub fn bottom(stats: SampleStats) -> Self {
        SampleOutcome {
            witness: None,
            stats,
            kind: OutcomeKind::Bottom,
        }
    }

    /// A budget-interrupted attempt (retryable).
    pub fn interrupted(stats: SampleStats) -> Self {
        SampleOutcome {
            witness: None,
            stats,
            kind: OutcomeKind::Interrupted,
        }
    }

    /// An attempt lost to an unabsorbed fault.
    pub fn faulted(stats: SampleStats) -> Self {
        SampleOutcome {
            witness: None,
            stats,
            kind: OutcomeKind::Faulted,
        }
    }

    /// Returns `true` if a witness was produced.
    pub fn is_success(&self) -> bool {
        self.witness.is_some()
    }
}

/// Builds the witness-less outcome matching a failure `kind` (anything
/// other than `Interrupted`/`Faulted` is reported as the paper's `⊥`).
pub(crate) fn failed_outcome(kind: OutcomeKind, stats: SampleStats) -> SampleOutcome {
    match kind {
        OutcomeKind::Interrupted => SampleOutcome::interrupted(stats),
        OutcomeKind::Faulted => SampleOutcome::faulted(stats),
        _ => SampleOutcome::bottom(stats),
    }
}

/// Common interface implemented by every witness generator in this crate
/// (UniGen, UniWit, XORSample′ and the ideal sampler US).
///
/// A sampler is created per formula, may perform arbitrary preparation work
/// in its constructor, and is then asked for witnesses one at a time. All
/// per-sample randomness comes from the `rng` argument so experiments can be
/// made reproducible and so UniGen and US can share one random source in the
/// uniformity study, as the paper does.
pub trait WitnessSampler {
    /// Produces one witness (or reports failure).
    fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome;

    /// Produces `count` witnesses, sample `i` drawing all of its randomness
    /// from a dedicated stream derived (via a SplitMix64 mix) from
    /// `(master_seed, i)`.
    ///
    /// This is the serial reference implementation of the batch API: because
    /// each sample owns an RNG stream derived from its *index* (not from
    /// however many draws earlier samples consumed), the witness at position
    /// `i` is a function of the sampler's prepared state, `master_seed` and
    /// `i` alone. [`crate::SamplerService`] exploits exactly this to fan the
    /// index range out over a pool of worker solvers while reproducing this
    /// method's output bit for bit, at any worker count.
    ///
    /// The determinism contract requires per-`BSAT` budgets that never
    /// trigger (the default unlimited [`unigen_satsolver::Budget`]): a
    /// wall-clock or conflict cutoff fires depending on accumulated solver
    /// state, which workers do not share. UniGen's witness cache is more
    /// such state: each worker's clone replays the witnesses its own
    /// earlier cells found, and once any clone of the prototype proves its
    /// list complete, every clone answers cells from that list without a
    /// search. So how much search a cell needs, and hence whether a budget
    /// fires in it, depends on which samples ran before. Without a budget,
    /// a cell holds the same witnesses whatever the cache held.
    fn sample_batch(&mut self, count: usize, master_seed: u64) -> Vec<SampleOutcome> {
        (0..count)
            .map(|index| {
                let mut rng = stream_for_index(master_seed, index);
                self.sample(&mut rng)
            })
            .collect()
    }

    /// A short human-readable name used by the benchmark harness ("UniGen",
    /// "UniWit", …).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_xor_length_handles_zero_division() {
        let stats = SampleStats::default();
        assert_eq!(stats.average_xor_length(), 0.0);
        let stats = SampleStats {
            xor_clauses_added: 4,
            xor_vars_total: 36,
            ..SampleStats::default()
        };
        assert_eq!(stats.average_xor_length(), 9.0);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SampleStats {
            bsat_calls: 1,
            xor_clauses_added: 2,
            xor_vars_total: 10,
            wall_time: Duration::from_millis(5),
            solver_propagations: 100,
            solver_conflicts: 1,
            width_window_clamped: 1,
            queue_wait: Duration::from_millis(2),
            interrupted_cells: 1,
            retries: 2,
            degradations: 0,
            faults_injected: 1,
            proof_bytes: 100,
            cert_checks: 1,
        };
        let b = SampleStats {
            bsat_calls: 3,
            xor_clauses_added: 4,
            xor_vars_total: 6,
            wall_time: Duration::from_millis(7),
            solver_propagations: 11,
            solver_conflicts: 2,
            width_window_clamped: 0,
            queue_wait: Duration::from_millis(3),
            interrupted_cells: 2,
            retries: 1,
            degradations: 1,
            faults_injected: 2,
            proof_bytes: 11,
            cert_checks: 2,
        };
        a.accumulate(&b);
        assert_eq!(a.bsat_calls, 4);
        assert_eq!(a.xor_clauses_added, 6);
        assert_eq!(a.xor_vars_total, 16);
        assert_eq!(a.wall_time, Duration::from_millis(12));
        assert_eq!(a.solver_propagations, 111);
        assert_eq!(a.solver_conflicts, 3);
        assert_eq!(a.width_window_clamped, 1);
        assert_eq!(a.queue_wait, Duration::from_millis(5));
        assert_eq!(a.interrupted_cells, 3);
        assert_eq!(a.retries, 3);
        assert_eq!(a.degradations, 1);
        assert_eq!(a.faults_injected, 3);
        assert_eq!(a.proof_bytes, 111);
        assert_eq!(a.cert_checks, 3);
    }

    #[test]
    fn display_prints_only_nonzero_fields() {
        assert_eq!(SampleStats::default().to_string(), "");
        let stats = SampleStats {
            bsat_calls: 2,
            retries: 1,
            queue_wait: Duration::from_millis(3),
            ..SampleStats::default()
        };
        assert_eq!(stats.to_string(), "bsat_calls=2 retries=1 queue_wait=3ms");
    }

    #[test]
    fn canonical_sort_orders_by_sampling_set_projection() {
        let sampling = [Var::new(0), Var::new(2)];
        let mut witnesses = vec![
            Model::new(vec![true, false, true]),   // projection (T, T)
            Model::new(vec![false, true, true]),   // projection (F, T)
            Model::new(vec![true, true, false]),   // projection (T, F)
            Model::new(vec![false, false, false]), // projection (F, F)
        ];
        sort_witnesses_canonically(&mut witnesses, &sampling);
        // Ascending numeric order of the projection index: Var(0) is the
        // least-significant bit, Var(2) the most-significant one.
        let indices: Vec<u64> = witnesses
            .iter()
            .map(|w| w.project(&sampling).as_index())
            .collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_sample_batch_derives_one_stream_per_index() {
        /// A fake sampler that records the first `u32` drawn from each
        /// per-sample RNG stream, so the test can pin the stream-derivation
        /// rule the parallel engine depends on.
        struct StreamRecorder {
            first_draws: Vec<u32>,
        }
        impl WitnessSampler for StreamRecorder {
            fn sample(&mut self, rng: &mut dyn RngCore) -> SampleOutcome {
                self.first_draws.push(rng.next_u32());
                SampleOutcome::bottom(SampleStats::default())
            }
            fn name(&self) -> &'static str {
                "StreamRecorder"
            }
        }

        let master = 0xfeed_beef;
        let mut sampler = StreamRecorder {
            first_draws: Vec::new(),
        };
        let outcomes = sampler.sample_batch(4, master);
        assert_eq!(outcomes.len(), 4);
        let expected: Vec<u32> = (0..4usize)
            .map(|i| stream_for_index(master, i).next_u32())
            .collect();
        assert_eq!(sampler.first_draws, expected);
    }

    #[test]
    fn nearby_master_seeds_use_disjoint_stream_sets() {
        // A plain `master_seed ^ index` derivation would make seeds 0 and 1
        // draw the same 16 streams in permuted order, correlating the two
        // batches completely; the SplitMix64 mix must keep them apart.
        let draws = |seed: u64| -> std::collections::HashSet<u64> {
            (0..16usize)
                .map(|i| stream_for_index(seed, i).next_u64())
                .collect()
        };
        let a = draws(0);
        let b = draws(1);
        assert!(a.is_disjoint(&b), "seeds 0 and 1 share RNG streams");
    }

    #[test]
    fn outcome_success_reflects_witness_presence() {
        let success = SampleOutcome::of_witness(Model::new(vec![true]), SampleStats::default());
        let failure = SampleOutcome::bottom(SampleStats::default());
        assert!(success.is_success());
        assert_eq!(success.kind, OutcomeKind::Witness);
        assert!(!failure.is_success());
        assert_eq!(failure.kind, OutcomeKind::Bottom);
        assert_eq!(
            SampleOutcome::interrupted(SampleStats::default()).kind,
            OutcomeKind::Interrupted
        );
        assert_eq!(
            SampleOutcome::faulted(SampleStats::default()).kind,
            OutcomeKind::Faulted
        );
    }
}
