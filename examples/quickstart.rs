//! Quickstart: sample almost-uniform witnesses of a CNF constraint through
//! the service API.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds a small constraint the way a constrained-random
//! verification front end would — a circuit whose inputs are the stimulus
//! bits — then prepares UniGen with its typed constructor [`UniGen::new`],
//! submits one typed [`SampleRequest`] to a [`SamplerService`],
//! streams the witnesses as their index-ordered prefix completes, and
//! finishes with the response's aggregate statistics (no hand-rolled
//! accumulation loop: [`unigen::SampleResponse::aggregate_stats`] already
//! folds every outcome with `SampleStats::accumulate`).

use unigen::{PreparedMode, SampleRequest, SamplerService, ServiceConfig, UniGen, UniGenConfig};
use unigen_circuit::{tseitin, CircuitBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-bit adder with a constraint on its sum: "generate operand pairs
    // whose low four sum bits spell 0b1010".
    let mut builder = CircuitBuilder::new("quickstart");
    let a = builder.input_word("a", 8);
    let b = builder.input_word("b", 8);
    let sum = builder.add(&a, &b);
    builder.output_word("sum", &sum);
    let circuit = builder.finish();

    let mut encoding = tseitin::encode(&circuit);
    for (bit, value) in [(0, false), (1, true), (2, false), (3, true)] {
        encoding.assert_node(sum.bit(bit), value);
    }
    let formula = encoding.into_formula();

    println!(
        "constraint: {} variables, {} clauses, {} xor clauses, sampling set of {}",
        formula.num_vars(),
        formula.num_clauses(),
        formula.num_xor_clauses(),
        formula.sampling_set_or_all().len()
    );

    // Prepare UniGen once (tolerance ε = 6, the paper's setting) …
    let config = UniGenConfig::default().with_epsilon(6.0).with_seed(42);
    let sampler = UniGen::new(&formula, config)?;
    match sampler.prepared_mode() {
        PreparedMode::Enumerated { witnesses } => {
            println!(
                "preparation: formula is small, {} witnesses enumerated",
                witnesses.len()
            );
        }
        PreparedMode::Hashed { approx_count, q } => {
            println!(
                "preparation: ApproxMC estimate |R_F| ≈ {approx_count}, hash widths {{{}..{q}}}",
                q.saturating_sub(3)
            );
        }
    }

    // … spawn the persistent service (workers clone the prepared sampler
    // once, here) and stream one request's witnesses as they complete.
    let service = SamplerService::try_new(sampler, ServiceConfig::default().with_workers(2))?;
    let sampling_set = formula.sampling_set_or_all();
    let mut handle = service.submit(SampleRequest::new(5, 42));
    for (i, outcome) in handle.by_ref().enumerate() {
        match outcome.witness {
            Some(witness) => {
                let stimulus = witness.project(&sampling_set);
                let a_value: u64 = (0..8).fold(0, |acc, bit| {
                    acc | (u64::from(stimulus.values()[bit]) << bit)
                });
                let b_value: u64 = (0..8).fold(0, |acc, bit| {
                    acc | (u64::from(stimulus.values()[8 + bit]) << bit)
                });
                println!(
                    "witness {i}: a = {a_value:3}, b = {b_value:3}, (a+b) & 0xF = {:#06b}  [{} BSAT calls, avg xor length {:.1}]",
                    (a_value + b_value) & 0xF,
                    outcome.stats.bsat_calls,
                    outcome.stats.average_xor_length()
                );
            }
            None => println!("witness {i}: ⊥ (the generator is allowed to fail occasionally)"),
        }
    }

    // The full response is still available after streaming, with the
    // aggregate statistics pre-folded.
    let response = handle.wait();
    println!(
        "request round trip: {:?} for {} witnesses ({} BSAT calls, {} stolen work items, total queue wait {:?})",
        response.round_trip,
        response.successes(),
        response.aggregate_stats.bsat_calls,
        response.aggregate_stats.steals,
        response.aggregate_stats.queue_wait
    );
    Ok(())
}
