//! Pins the witness streams UniGen draws, so a solver change that is meant
//! to be faster and nothing else cannot quietly change what is sampled.
//!
//! Every stream here depends on the formula and the seed alone. Line 4 and
//! ApproxMC only ever ask whether a cell holds more than `hiThresh` (or
//! `pivot`) witnesses, a drained cell is a set, and the sampler sorts each
//! cell canonically before it picks. So which witnesses a cell holds is
//! fixed by the hash, whatever order the solver finds them in, and the
//! search heuristics (decision order, watch-list order, Gauss–Jordan or not)
//! are free to change. A solver change that is not meant to change what is
//! sampled must keep every row below.
//!
//! Each row is the prepared `(estimate, q)` and an FNV-1a digest of the
//! projected `sample_batch(16, seed)` stream: one byte for each outcome's
//! kind, then the witness's bits on the sampling set.

use unigen::{OutcomeKind, PreparedMode, UniGen, UniGenConfig, WitnessSampler};
use unigen_circuit::benchmarks::{iscas_like, login_like, parity_chain, sorter, Benchmark};
use unigen_instgen::fnv1a;

const SEED: u64 = 2014;
const COUNT: usize = 16;

/// `(name, estimate, q, digest)` as recorded.
const PINS: [(&str, u128, usize, u64); 8] = [
    ("case121-like", 1248, 6, 0x67f3_1e5b_e846_6929),
    ("s526-like", 720, 6, 0x70b9_8e36_5401_935b),
    ("sort4x4-like", 432, 5, 0xad22_db19_a6c6_473e),
    ("login3x6-like", 15872, 10, 0x1cb3_6127_f5e3_c076),
    ("parity", 1600, 7, 0x37bf_d398_7e89_295b),
    ("iscas", 448, 5, 0x946c_f1bb_ab98_db27),
    ("login", 800, 6, 0x79ce_9d7d_2d95_3e43),
    ("sorter", 416, 5, 0x2117_cc6d_11e6_4fee),
];

/// Four table-1 rows small enough for a debug build, then one formula of
/// each family the serving benchmark's `cold_circuits` workload rotates
/// through.
fn corpus() -> Vec<Benchmark> {
    vec![
        parity_chain("case121-like", 16, 4, 5, 0x0121),
        iscas_like("s526-like", 14, 180, 5, 0x0526),
        sorter("sort4x4-like", 4, 4, 6, 0x5047),
        login_like("login3x6-like", 3, 6, 0x1061),
        parity_chain("parity", 16, 4, 5, 0x0c01),
        iscas_like("iscas", 14, 180, 5, 0x0c02),
        login_like("login", 3, 6, 0x0c03),
        sorter("sorter", 4, 4, 6, 0x0c04),
    ]
}

/// The prepared count and window, and the digest of the sampled stream.
fn stream_of(bench: &Benchmark) -> (u128, usize, u64) {
    let mut sampler = UniGen::new(&bench.formula, UniGenConfig::default()).unwrap();
    let (estimate, q) = match *sampler.prepared_mode() {
        PreparedMode::Hashed { approx_count, q } => (approx_count, q),
        PreparedMode::Enumerated { ref witnesses } => (witnesses.len() as u128, 0),
    };
    let sampling_set = sampler.sampling_set().to_vec();
    let mut bytes = Vec::new();
    for outcome in sampler.sample_batch(COUNT, SEED) {
        bytes.push(match outcome.kind {
            OutcomeKind::Witness => b'w',
            OutcomeKind::Bottom => b'b',
            OutcomeKind::Interrupted => b'i',
            OutcomeKind::Faulted => b'f',
        });
        if let Some(witness) = &outcome.witness {
            let projection = witness.project(&sampling_set);
            bytes.extend(projection.values().iter().map(|&bit| b'0' + u8::from(bit)));
        }
    }
    (estimate, q, fnv1a(&bytes))
}

#[test]
fn sampled_streams_match_their_recorded_digests() {
    let actual: Vec<(String, u128, usize, u64)> = corpus()
        .iter()
        .map(|bench| {
            let (estimate, q, digest) = stream_of(bench);
            (bench.name.clone(), estimate, q, digest)
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, estimate, q, digest)| {
            format!("    (\"{name}\", {estimate}, {q}, 0x{digest:016x}),\n")
        })
        .collect();
    for ((name, estimate, q, digest), pin) in actual.iter().zip(PINS) {
        assert_eq!(
            (name.as_str(), *estimate, *q, *digest),
            pin,
            "{name}: the stream moved; every row now reads\n{listing}"
        );
    }
}
