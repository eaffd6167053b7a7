//! Constrained-random verification testbench.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example crv_testbench
//! ```
//!
//! This is the workflow from the paper's introduction, end to end:
//!
//! 1. a design under test (a small comparator/accumulator datapath),
//! 2. an *input constraint* written by a verification engineer ("the request
//!    is only valid when the two operand fields are in range and not equal"),
//! 3. UniGen generating almost-uniform stimuli satisfying the constraint,
//! 4. the simulator applying those stimuli and a coverage report showing how
//!    evenly the constrained input space was exercised.

use std::collections::HashMap;

use unigen::{SampleRequest, SamplerService, ServiceConfig, UniGen, UniGenConfig};
use unigen_circuit::{tseitin, CircuitBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------
    // 1. The design under test: compares two 5-bit fields.
    // ---------------------------------------------------------------
    let mut builder = CircuitBuilder::new("dut_constraints");
    let field_a = builder.input_word("a", 5);
    let field_b = builder.input_word("b", 5);

    // 2. The environment constraints (what a verification engineer would
    //    declare): both fields below 24, fields not equal, and their xor has
    //    odd parity (a made-up protocol rule that couples the fields).
    let limit = builder.constant_word(24, 5);
    let a_ok = builder.less_than(&field_a, &limit);
    let b_ok = builder.less_than(&field_b, &limit);
    let equal = builder.equals(&field_a, &field_b);
    let distinct = builder.not(equal);
    let xor_bits: Vec<_> = (0..5)
        .map(|i| builder.xor(field_a.bit(i), field_b.bit(i)))
        .collect();
    let parity = builder.xor_many(&xor_bits);
    let both_ok = builder.and(a_ok, b_ok);
    let legal = builder.and(both_ok, distinct);
    let valid = builder.and(legal, parity);
    builder.output("valid", valid);
    let circuit = builder.finish();

    let mut encoding = tseitin::encode(&circuit);
    encoding.assert_node(valid, true);
    let formula = encoding.into_formula();
    let sampling_set = formula.sampling_set_or_all();

    println!(
        "constraint model: |X| = {}, |S| = {} (the 10 stimulus bits)",
        formula.num_vars(),
        sampling_set.len()
    );

    // ---------------------------------------------------------------
    // 3. Constrained-random stimulus generation: UniGen through the
    //    service API. `UniGen::new` prepares the sampler once; the service
    //    answers one typed request for the whole regression run, and the
    //    response carries the aggregate cost statistics pre-folded (no
    //    hand-rolled accumulation loop in the testbench).
    // ---------------------------------------------------------------
    let sampler = UniGen::new(&formula, UniGenConfig::default().with_seed(7))?;
    let service = SamplerService::try_new(sampler, ServiceConfig::default().with_workers(2))?;
    let num_tests = 200;
    let response = service.submit(SampleRequest::new(num_tests, 7)).wait();
    let generated = response.successes();
    let mut bucket_hits: HashMap<(u64, u64), u32> = HashMap::new();

    for outcome in &response.outcomes {
        let Some(witness) = &outcome.witness else {
            continue;
        };
        let stimulus = witness.project(&sampling_set);
        let a: u64 = (0..5).fold(0, |acc, i| acc | (u64::from(stimulus.values()[i]) << i));
        let b: u64 = (0..5).fold(0, |acc, i| acc | (u64::from(stimulus.values()[5 + i]) << i));

        // 4. Drive the DUT with the generated stimulus (re-simulation) and
        //    check that the constraint really holds — the testbench's checker.
        let mut inputs = Vec::with_capacity(10);
        for i in 0..5 {
            inputs.push(a & (1 << i) != 0);
        }
        for i in 0..5 {
            inputs.push(b & (1 << i) != 0);
        }
        let sim = circuit.simulate(&inputs);
        assert!(sim.output("valid"), "UniGen produced an illegal stimulus");

        // Coverage bucket: which quadrant of the (a, b) space was hit.
        *bucket_hits.entry((a / 8, b / 8)).or_insert(0) += 1;
    }

    println!("generated {generated} legal stimuli out of {num_tests} requested");
    println!(
        "generation cost: {} BSAT calls, avg xor length {:.1}, round trip {:?}",
        response.aggregate_stats.bsat_calls,
        response.aggregate_stats.average_xor_length(),
        response.round_trip
    );
    println!("coverage of (a/8, b/8) buckets (each bucket is an 8×8 sub-square):");
    let mut buckets: Vec<_> = bucket_hits.iter().collect();
    buckets.sort();
    for ((qa, qb), hits) in buckets {
        println!("  bucket ({qa}, {qb}): {hits} stimuli");
    }
    println!(
        "distinct buckets exercised: {} (uniform stimuli spread the tests across the legal space)",
        bucket_hits.len()
    );
    Ok(())
}
