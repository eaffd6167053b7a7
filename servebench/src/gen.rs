//! Workload definitions and seeded input generation.
//!
//! Every input the daemon sees is generated here from the workload seed:
//! the two resident formulas (fixed table-1 rows), the cold formulas of
//! `cold_circuits` (generator seeds derived from the workload seed), and
//! every request's master seed. The daemon receives only DIMACS text and
//! request frames built from these.
//!
//! Steadiness rules, each applied by the code that runs a workload:
//!
//! 1. The daemon and this load generator are prebuilt release binaries
//!    (`run.sh` builds both before anything is timed); nothing runs
//!    `cargo run` inside timing.
//! 2. Readiness is detected by retrying the connect until the `HelloAck`
//!    arrives, never by sleep-polling the socket file (`daemon.rs`).
//! 3. One untimed warm-up request precedes each timed phase; on
//!    `warm_stream` it is also how the resident's fingerprint is learnt.
//! 4. Workloads never run at once: `--workload all` runs them one after
//!    another, each against its own daemon.
//! 5. nproc, `--jobs` and the commit are printed with every result.

use std::collections::HashSet;
use std::sync::Arc;

use unigen_circuit::benchmarks::{iscas_like, login_like, long_chain, parity_chain, sorter};
use unigen_cnf::{dimacs, CnfFormula};
use unigen_net::server::default_spec;
use unigen_net::wire;

/// One formula the benchmark sends: its DIMACS text plus everything the
/// client needs to check a response against it.
#[derive(Debug)]
pub struct Formula {
    /// Human-readable name (generator family and seed).
    pub name: String,
    /// DIMACS text sent inline and given to the daemon as a file.
    pub dimacs: String,
    /// The parsed formula, for output checks and the in-process replay.
    pub cnf: CnfFormula,
    /// Sampling set as 0-based variable indices, in projection order.
    pub sampling_set: Vec<u32>,
    /// Registry fingerprint the daemon computes for this text under the
    /// default spec.
    pub fingerprint: u64,
}

impl Formula {
    /// Canonicalise `cnf` the way the daemon does and fingerprint it.
    pub fn new(name: String, cnf: &CnfFormula) -> Formula {
        let dimacs = dimacs::to_dimacs_string(cnf);
        let cnf = dimacs::parse(&dimacs).expect("generated DIMACS parses");
        let canonical = dimacs::to_dimacs_string(&cnf);
        let fingerprint = wire::fingerprint(canonical.as_bytes(), &default_spec());
        let sampling_set = cnf
            .sampling_set_or_all()
            .iter()
            .map(|v| u32::try_from(v.index()).expect("variable index fits u32"))
            .collect();
        Formula {
            name,
            dimacs,
            cnf,
            sampling_set,
            fingerprint,
        }
    }
}

/// The two formulas every daemon prepares before it binds (table-1 rows).
#[derive(Clone)]
pub struct Residents {
    /// `long_chain("llreverse-like", 12, 60, 5, 0x11ef)`: 3 652 variables,
    /// Gauss-light; the `warm_stream` target.
    pub chain: Arc<Formula>,
    /// `login_like("login3x6-like", 3, 6, 0x1061)`: Gauss-heavy (q = 10);
    /// the `small_requests` target.
    pub login: Arc<Formula>,
}

impl Residents {
    /// Build both residents (deterministic, seed-independent).
    pub fn build() -> Residents {
        let chain = long_chain("llreverse-like", 12, 60, 5, 0x11ef);
        let login = login_like("login3x6-like", 3, 6, 0x1061);
        Residents {
            chain: Arc::new(Formula::new(chain.name, &chain.formula)),
            login: Arc::new(Formula::new(login.name, &login.formula)),
        }
    }

    /// Both residents, in the order they are given to the daemon.
    pub fn all(&self) -> [&Arc<Formula>; 2] {
        [&self.chain, &self.login]
    }
}

/// The three workloads. All are closed loops: a simulator blocks on its
/// stimulus, so each connection sends its next request only after the
/// previous one completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection sends inline DIMACS for formulas the registry has
    /// never seen (rotating `parity_chain`, `iscas_like`, `login_like`,
    /// `sorter`), `count = 4` each. Every request pays parse, ApproxMC,
    /// `UniGen::new`, service spawn and a registry insert: prepare
    /// dominates here, and the other two workloads bypass it.
    ColdCircuits,
    /// Two connections request single witnesses from resident
    /// llreverse-like by fingerprint, keeping both service workers busy.
    /// Steady state is the sample layer on a 3 652-variable Gauss-light
    /// formula; parse and prepare are bypassed. One witness per request:
    /// per-witness time here is bimodal (about 35 % of witnesses take one
    /// BSAT call, 0.13 s; the rest two or three, 0.25 s or more), so the
    /// p50 needs as many requests as possible. With one connection the
    /// p50 fell into either mode from seed to seed (0.16–0.26 s); with
    /// 2-witness batches on two connections the closed loops phase-locked
    /// on the two workers (latency p50 0.38 vs 0.45 s on the same seed).
    WarmStream,
    /// Two connections send `count = 1` requests with the login3x6-like
    /// DIMACS inline, as `unigen_cli client` does. Each request
    /// re-parses, hits the registry, spawns a request thread and streams
    /// one chunk on a Gauss-heavy formula, so the per-request server path
    /// is a visible share of latency: the contrast to `warm_stream`.
    SmallRequests,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL_WORKLOADS: [Workload; 3] = [
    Workload::ColdCircuits,
    Workload::WarmStream,
    Workload::SmallRequests,
];

impl Workload {
    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as used on the command line and in
    /// `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCircuits => "cold_circuits",
            Workload::WarmStream => "warm_stream",
            Workload::SmallRequests => "small_requests",
        }
    }

    /// Client connections driving the closed loop (at most nproc).
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::ColdCircuits => 1,
            Workload::WarmStream | Workload::SmallRequests => nproc.clamp(1, 2),
        }
    }

    /// Witnesses per request.
    pub fn count(self) -> u64 {
        match self {
            Workload::ColdCircuits => 4,
            Workload::WarmStream | Workload::SmallRequests => 1,
        }
    }

    /// Percentile reported as the tail: the highest percentile of
    /// [`crate::stats::TAIL_GRID`] that this workload's typical sample
    /// count (on a 2-CPU host at 25 s) leaves at least ten samples beyond,
    /// except on `small_requests`. Its ~7 000 requests support p99.9, but
    /// on a shared 2-vCPU host the top 1 % of a 6 ms request is host
    /// stalls: p99 ranged 13–31 ms over ten seeds while p50 moved 12 %,
    /// so it reports p95. Fixing the level per workload keeps a run-to-run
    /// change in sample count from changing which percentile is compared.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ColdCircuits | Workload::WarmStream => 90.0,
            Workload::SmallRequests => 95.0,
        }
    }

    /// Registry capacity the daemon needs: the two residents, the warm-up
    /// formula, and at most 40 cold formulas per timed second.
    pub fn max_formulas(self, seconds: u64) -> u64 {
        match self {
            Workload::ColdCircuits => 3 + 40 * seconds.max(1),
            Workload::WarmStream | Workload::SmallRequests => 3,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Workload::ColdCircuits => 0xc01d,
            Workload::WarmStream => 0x3a53,
            Workload::SmallRequests => 0x5e11,
        }
    }
}

/// SplitMix64 finaliser.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    splitmix64(seed ^ splitmix64(label))
}

/// How a request names its formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Inline DIMACS text.
    Inline,
    /// The fingerprint learnt from the warm-up request.
    Fingerprint,
}

/// One planned request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The formula the request is about.
    pub formula: Arc<Formula>,
    /// Inline text or fingerprint.
    pub reference: Reference,
    /// Witnesses requested.
    pub count: u64,
    /// Master seed of the request's per-index streams.
    pub master_seed: u64,
}

/// The deterministic request sequence of one connection.
pub struct Plan {
    workload: Workload,
    stream: u64,
    next: u64,
    residents: Residents,
    cold: Option<ColdSource>,
}

impl Plan {
    /// The request sequence of connection `conn` (the warm-up uses
    /// `conn = connections`, a stream no timed connection uses).
    pub fn new(workload: Workload, seed: u64, conn: usize, residents: &Residents) -> Plan {
        let stream = derive(derive(seed, workload.tag()), conn as u64);
        let cold = (workload == Workload::ColdCircuits).then(|| ColdSource::new(seed, residents));
        Plan {
            workload,
            stream,
            next: 0,
            residents: residents.clone(),
            cold,
        }
    }

    /// The warm-up request: same shape as the workload's requests, drawn
    /// from a stream of its own (a cold formula outside the timed ones on
    /// `cold_circuits`; an inline request for the target resident
    /// otherwise, which teaches the client its fingerprint).
    pub fn warmup(workload: Workload, seed: u64, residents: &Residents) -> Planned {
        let master_seed = derive(derive(seed, workload.tag()), u64::MAX);
        match workload {
            Workload::ColdCircuits => {
                let mut source = ColdSource::new(derive(seed, 0x3a73), residents);
                Planned {
                    formula: source.next_formula(),
                    reference: Reference::Inline,
                    count: workload.count(),
                    master_seed,
                }
            }
            Workload::WarmStream => Planned {
                formula: Arc::clone(&residents.chain),
                reference: Reference::Inline,
                count: 1,
                master_seed,
            },
            Workload::SmallRequests => Planned {
                formula: Arc::clone(&residents.login),
                reference: Reference::Inline,
                count: 1,
                master_seed,
            },
        }
    }

    /// The next request of this connection.
    pub fn next_request(&mut self) -> Planned {
        let master_seed = derive(self.stream, self.next);
        self.next += 1;
        let count = self.workload.count();
        match self.workload {
            Workload::ColdCircuits => Planned {
                formula: self
                    .cold
                    .as_mut()
                    .expect("cold plans own a cold source")
                    .next_formula(),
                reference: Reference::Inline,
                count,
                master_seed,
            },
            Workload::WarmStream => Planned {
                formula: Arc::clone(&self.residents.chain),
                reference: Reference::Fingerprint,
                count,
                master_seed,
            },
            Workload::SmallRequests => Planned {
                formula: Arc::clone(&self.residents.login),
                reference: Reference::Inline,
                count,
                master_seed,
            },
        }
    }
}

/// Cold formulas: the four generator families in rotation, at table-1
/// sizes, each with a generator seed derived from the workload seed. A
/// formula whose fingerprint was already produced (or is a resident's) is
/// skipped, so every cold request really is a registry miss.
pub struct ColdSource {
    seed: u64,
    index: u64,
    seen: HashSet<u64>,
}

impl ColdSource {
    /// A fresh source for workload seed `seed`.
    pub fn new(seed: u64, residents: &Residents) -> ColdSource {
        ColdSource {
            seed: derive(seed, 0xc01d_f00d),
            index: 0,
            seen: residents.all().iter().map(|f| f.fingerprint).collect(),
        }
    }

    /// The next cold formula.
    pub fn next_formula(&mut self) -> Arc<Formula> {
        loop {
            let family = self.index % 4;
            let gen_seed = derive(self.seed, self.index);
            self.index += 1;
            let bench = match family {
                0 => parity_chain("parity", 16, 4, 5, gen_seed),
                1 => iscas_like("iscas", 14, 180, 5, gen_seed),
                2 => login_like("login", 3, 6, gen_seed),
                _ => sorter("sorter", 4, 4, 6, gen_seed),
            };
            let name = format!("{}-{gen_seed:016x}", bench.name);
            let formula = Formula::new(name, &bench.formula);
            if self.seen.insert(formula.fingerprint) {
                return Arc::new(formula);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(workload: Workload, seed: u64, n: usize) -> Vec<(String, u64)> {
        let residents = Residents::build();
        let mut plan = Plan::new(workload, seed, 0, &residents);
        (0..n)
            .map(|_| {
                let r = plan.next_request();
                (r.formula.dimacs.clone(), r.master_seed)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_same_bytes_and_master_seeds() {
        for workload in ALL_WORKLOADS {
            assert_eq!(requests(workload, 7, 6), requests(workload, 7, 6));
        }
    }

    #[test]
    fn different_seed_gives_different_cold_formulas_and_seeds() {
        let a = requests(Workload::ColdCircuits, 1, 8);
        let b = requests(Workload::ColdCircuits, 2, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.0, y.0, "cold formula repeated across seeds");
            assert_ne!(x.1, y.1, "master seed repeated across seeds");
        }
        let w1 = requests(Workload::WarmStream, 1, 4);
        let w2 = requests(Workload::WarmStream, 2, 4);
        assert_ne!(w1, w2);
    }

    #[test]
    fn connections_draw_distinct_master_seeds() {
        let residents = Residents::build();
        let mut a = Plan::new(Workload::SmallRequests, 3, 0, &residents);
        let mut b = Plan::new(Workload::SmallRequests, 3, 1, &residents);
        assert_ne!(a.next_request().master_seed, b.next_request().master_seed);
    }

    #[test]
    fn cold_formulas_never_collide_with_residents_or_each_other() {
        let residents = Residents::build();
        let resident_fps: HashSet<u64> = residents.all().iter().map(|f| f.fingerprint).collect();
        assert_eq!(resident_fps.len(), 2);
        let mut seen = HashSet::new();
        for seed in 0..3 {
            let mut source = ColdSource::new(seed, &residents);
            for _ in 0..24 {
                let formula = source.next_formula();
                assert!(!resident_fps.contains(&formula.fingerprint));
                assert!(seen.insert(formula.fingerprint), "cold formula repeated");
            }
        }
        // The warm-up formula comes from its own stream.
        let warm = Plan::warmup(Workload::ColdCircuits, 0, &residents);
        assert!(!resident_fps.contains(&warm.formula.fingerprint));
    }

    #[test]
    fn residents_are_the_table1_rows() {
        let residents = Residents::build();
        assert_eq!(residents.chain.cnf.num_vars(), 3652);
        assert_eq!(residents.login.sampling_set.len(), 18);
    }
}
