//! Criterion bench behind Table 1: per-witness generation cost of UniGen vs
//! UniWit on representative instances.
//!
//! The paper's Table 1 reports the average time to generate one witness.
//! This bench measures exactly that quantity — UniGen is timed *after* its
//! one-off preparation (which is what the table's amortised numbers mean),
//! UniWit has no preparation to amortise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use unigen::{UniGen, UniGenConfig, UniWit, UniWitConfig, WitnessSampler};
use unigen_circuit::benchmarks::{self, Benchmark};
use unigen_satsolver::Budget;

fn bench_instances() -> Vec<Benchmark> {
    vec![
        benchmarks::parity_chain("case121-small", 12, 3, 4, 0x0121),
        benchmarks::squaring("squaring6-small", 6, 4, 0x0808),
        benchmarks::long_chain("llreverse-small", 10, 30, 4, 0x11ef),
    ]
}

fn per_witness_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_per_witness");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));

    for benchmark in bench_instances() {
        // UniGen: prepare once outside the measurement, then time samples.
        let config = UniGenConfig::default()
            .with_bsat_budget(Budget::new().with_time_limit(Duration::from_secs(10)));
        if let Ok(mut sampler) = UniGen::new(&benchmark.formula, config) {
            let mut rng = StdRng::seed_from_u64(1);
            group.bench_with_input(
                BenchmarkId::new("unigen", &benchmark.name),
                &benchmark,
                |b, _| b.iter(|| sampler.sample(&mut rng)),
            );
        }

        // UniWit: every sample carries the full search cost.
        let config = UniWitConfig {
            bsat_budget: Budget::new().with_time_limit(Duration::from_secs(10)),
        };
        if let Ok(mut sampler) = UniWit::new(&benchmark.formula, config) {
            let mut rng = StdRng::seed_from_u64(2);
            group.bench_with_input(
                BenchmarkId::new("uniwit", &benchmark.name),
                &benchmark,
                |b, _| b.iter(|| sampler.sample(&mut rng)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, per_witness_cost);
criterion_main!(benches);
