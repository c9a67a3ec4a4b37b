//! Classical-solver benches: the exact branch-and-bound engines and the
//! randomised heuristics on a fixed mid-size instance.

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_heuristics::{AnytimeHeuristic, GeneticAlgorithm, Greedy, HillClimbing};
use mqo_milp::{bb_mqo, bb_qubo, MqoBbConfig, QuboBbConfig};
use mqo_workload::generic::{self, RandomWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn instance(queries: usize) -> MqoProblem {
    generic::generate(
        &RandomWorkloadConfig {
            queries,
            plans_per_query: 3,
            savings_per_query: 3.0,
            ..RandomWorkloadConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(7),
    )
}

fn bench_solvers(c: &mut Criterion) {
    let small = instance(12);
    let mid = instance(40);

    let mut g = c.benchmark_group("solvers");
    g.sample_size(10);

    g.bench_function("bb_mqo_exact_12q", |b| {
        b.iter(|| bb_mqo::solve(&small, &MqoBbConfig::default()))
    });
    g.bench_function("bb_qubo_exact_12q", |b| {
        let mapping = LogicalMapping::with_default_epsilon(&small);
        b.iter(|| bb_qubo::solve(mapping.qubo(), &QuboBbConfig::default()))
    });
    g.bench_function("greedy_40q", |b| b.iter(|| Greedy::construct(&mid)));
    g.bench_function("hill_climb_burst_40q", |b| {
        b.iter(|| HillClimbing.run(&mid, Duration::from_millis(2), 1))
    });
    g.bench_function("ga50_burst_40q", |b| {
        let ga = GeneticAlgorithm::with_population(50);
        b.iter(|| ga.run(&mid, Duration::from_millis(2), 1))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers
}
criterion_main!(benches);
