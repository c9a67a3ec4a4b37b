//! Cross-crate integration: Algorithm 1 end to end on generated paper
//! workloads, compared against the exact classical solver.

use mqo::prelude::*;
use mqo_annealer::exact::ExactSampler;
use mqo_milp::{bb_mqo, MqoBbConfig, StopReason};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn device(reads: usize) -> QuantumAnnealer<PathIntegralQmcSampler> {
    QuantumAnnealer::new(
        DeviceConfig {
            num_reads: reads,
            num_gauges: reads.div_ceil(10).max(1),
            ..DeviceConfig::default()
        },
        PathIntegralQmcSampler::default(),
    )
}

#[test]
fn quantum_pipeline_matches_exact_solver_on_paper_workloads() {
    // 3×3 machine, the four paper classes, one instance each.
    let graph = ChimeraGraph::new(3, 3);
    for plans in [2usize, 3, 4, 5] {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + plans as u64);
        let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(plans), &mut rng)
            .expect("benchmark machine hosts the paper class");

        let exact = bb_mqo::solve(&inst.problem, &MqoBbConfig::default());
        assert_eq!(exact.stop, StopReason::Optimal, "plans={plans}");
        let optimum = exact.best.1;

        let solver = QuantumMqoSolver::new(graph.clone(), device(150));
        let out = solver
            .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), 7)
            .expect("paper instances embed");
        // Tiny instances have optima of a few cost units, so assert an
        // absolute near-optimality gap (one saving unit ≈ 1–2).
        let gap = out.best.1 - optimum;
        assert!(
            (-1e-9..=2.0 + 1e-9).contains(&gap),
            "plans={plans}: QA {:.2} vs optimum {optimum:.2} (gap {gap:.2})",
            out.best.1,
        );
        assert!(inst.problem.validate_selection(&out.best.0).is_ok());
        assert_eq!(out.reads, 150);
    }
}

#[test]
fn exact_sampler_pipeline_is_provably_optimal_on_tiny_instances() {
    // With the brute-force sampler and zero noise, Algorithm 1 is exact:
    // the full logical→physical→anneal→decode loop returns the optimum.
    let graph = ChimeraGraph::new(1, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
        .expect("benchmark machine hosts the paper class");
    let solver = QuantumMqoSolver::new(
        graph.clone(),
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 3,
                num_gauges: 1,
                control_error: mqo_annealer::ControlErrorModel::NONE,
                ..DeviceConfig::default()
            },
            ExactSampler,
        ),
    );
    let out = solver
        .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), 0)
        .unwrap();
    let (_, optimum) = inst.problem.brute_force_optimum();
    assert_eq!(out.best.1, optimum);
    assert_eq!(out.repaired_reads, 0);
    assert_eq!(out.broken_chain_reads, 0);
}

#[test]
fn device_time_and_wall_time_are_separate_axes() {
    // A full QA run's trace must live on the microsecond device-time axis
    // even though the simulation takes far longer in wall time.
    let graph = ChimeraGraph::new(2, 2);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(3), &mut rng)
        .expect("benchmark machine hosts the paper class");
    let solver = QuantumMqoSolver::new(graph.clone(), device(100));
    let out = solver
        .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), 1)
        .unwrap();
    let last = out.trace.points().last().unwrap();
    assert!(
        last.elapsed <= Duration::from_millis(38),
        "100 reads cost at most 37.6 ms of device time, got {:?}",
        last.elapsed
    );
}

#[test]
fn broken_qubits_shrink_capacity_but_pipeline_still_works() {
    let mut graph = ChimeraGraph::new(3, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    graph.break_random_qubits(12, &mut rng);
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(4), &mut rng)
        .expect("benchmark machine hosts the paper class");
    assert!(inst.problem.num_queries() < 9, "defects must cost capacity");
    let solver = QuantumMqoSolver::new(graph.clone(), device(200));
    let out = solver
        .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), 5)
        .unwrap();
    let exact = bb_mqo::solve(&inst.problem, &MqoBbConfig::default());
    let optimum = exact.best.1;
    assert!(out.best.1 <= optimum * 1.05 + 1e-9);
}

#[test]
fn pipeline_rejects_problems_that_do_not_fit() {
    let graph = ChimeraGraph::new(1, 1);
    let mut b = MqoProblem::builder();
    for _ in 0..8 {
        b.add_query(&[1.0, 2.0]);
    }
    let problem = b.build().unwrap();
    let solver = QuantumMqoSolver::new(graph, device(10));
    assert!(solver.solve(&problem, 0).is_err());
}

#[test]
fn the_paper_machine_hosts_clique_solves_and_decomposed_solves() {
    // The defective D-Wave 2X the harness binaries run against: its dead
    // qubits break the TRIAD K48 (and every clique of 12 or more plans at
    // origin (0, 0)), yet a K16 places elsewhere.
    let graph = ChimeraGraph::dwave_2x_as_used_in_paper(&mut ChaCha8Rng::seed_from_u64(0xD_2016));
    let solver = QuantumMqoSolver::new(
        graph,
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 20,
                num_gauges: 2,
                ..DeviceConfig::default()
            },
            SimulatedAnnealingSampler::default(),
        ),
    );
    let capacity = solver.max_clique();
    assert!((16..48).contains(&capacity), "capacity {capacity}");

    let workload = |queries, seed| {
        mqo_workload::generic::generate(
            &mqo_workload::generic::RandomWorkloadConfig {
                queries,
                plans_per_query: 4,
                ..Default::default()
            },
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
    };
    let clique = workload(4, 1);
    assert_eq!(clique.num_plans(), 16);
    let out = solver.solve(&clique, 3).expect("a K16 places on the chip");
    assert!(clique.validate_selection(&out.best.0).is_ok());

    let large = workload(24, 2);
    let greedy = large.selection_cost(&Greedy::construct(&large));
    let out = solver
        .solve_decomposed(&large, &DecompositionConfig::default(), 5)
        .expect("blocks sized to the placeable clique embed");
    assert!(large.validate_selection(&out.best.0).is_ok());
    assert!(out.best.1 <= greedy + 1e-9);
}
