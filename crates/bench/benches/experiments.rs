//! Miniature end-to-end versions of every table/figure computation, so that
//! `cargo bench` exercises each experiment path:
//!
//! * `table1_lin_mqo`   — Table 1's measurement (LIN-MQO to optimality);
//! * `fig4_5_competitors` — one Figure 4/5 cell: all six competitors on a
//!   toy instance with millisecond budgets;
//! * `fig6_speedup`     — the Figure 6 statistic over a precomputed batch;
//! * `fig7_capacity`    — the Figure 7 closed-form sweep;
//! * `fig1_3_topology`  — graph construction, TRIAD embedding + verify.

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_bench::algorithms::{run_all, CompetitorConfig};
use mqo_bench::harness::{quantum_speedup, run_class};
use mqo_chimera::capacity;
use mqo_chimera::embedding::triad;
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::ids::VarId;
use mqo_milp::{bb_mqo, MqoBbConfig};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn fast_cfg() -> CompetitorConfig {
    CompetitorConfig {
        classical_budget: Duration::from_millis(20),
        qa_reads: 20,
        qa_gauges: 2,
        seed: 3,
        ..CompetitorConfig::default()
    }
}

fn bench_experiments(c: &mut Criterion) {
    let graph = ChimeraGraph::new(2, 2);
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    g.bench_function("table1_lin_mqo", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
            .expect("benchmark machine hosts the paper class");
        b.iter(|| bb_mqo::solve(&inst.problem, &MqoBbConfig::default()))
    });

    g.bench_function("fig4_5_competitors", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
            .expect("benchmark machine hosts the paper class");
        let cfg = fast_cfg();
        b.iter(|| run_all(&inst, &graph, &cfg))
    });

    g.bench_function("fig6_speedup", |b| {
        let class = run_class(&graph, 2, 1, &fast_cfg());
        let first_read = Duration::from_secs_f64(376e-6);
        b.iter(|| quantum_speedup(&class.instances[0], first_read))
    });

    g.bench_function("fig7_capacity", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for budget in [1152usize, 2304, 4608] {
                for plans in 2..=20 {
                    total += capacity::max_queries(budget, plans);
                }
            }
            total
        })
    });

    g.bench_function("fig1_3_topology", |b| {
        b.iter(|| {
            let g2 = ChimeraGraph::new(3, 3);
            let e = triad::triad(&g2, 0, 0, 12).unwrap();
            let pairs: Vec<(VarId, VarId)> = (0..12)
                .flat_map(|i| ((i + 1)..12).map(move |j| (VarId::new(i), VarId::new(j))))
                .collect();
            e.verify(&g2, pairs).unwrap();
            e.qubits_used()
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_experiments
}
criterion_main!(benches);
