//! Cross-solver agreement: every optimiser in the workspace, exact or
//! heuristic, measured against brute force on the same instances.

use mqo::prelude::*;
use mqo_core::logical::LogicalMapping;
use mqo_heuristics::HeuristicOutcome;
use mqo_milp::{bb_mqo, bb_qubo, MqoBbConfig, QuboBbConfig, StopReason};
use mqo_workload::generic::{self, RandomWorkloadConfig};
use mqo_workload::relational::{self, RelationalConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn instances() -> Vec<MqoProblem> {
    let mut out = Vec::new();
    for seed in 0..6u64 {
        out.push(generic::generate(
            &RandomWorkloadConfig {
                queries: 6,
                plans_per_query: 3,
                savings_per_query: 3.0,
                ..RandomWorkloadConfig::default()
            },
            &mut ChaCha8Rng::seed_from_u64(seed),
        ));
    }
    out.push(
        relational::generate(
            &RelationalConfig {
                num_tables: 6,
                num_queries: 6,
                tables_per_query: (2, 3),
                plans_per_query: 2,
                ..RelationalConfig::default()
            },
            &mut ChaCha8Rng::seed_from_u64(99),
        )
        .problem,
    );
    out
}

#[test]
fn exact_solvers_agree_with_brute_force_across_generators() {
    for (i, problem) in instances().iter().enumerate() {
        let (_, optimum) = problem.brute_force_optimum();

        let mqo = bb_mqo::solve(problem, &MqoBbConfig::default());
        assert_eq!(mqo.stop, StopReason::Optimal, "instance {i}");
        assert!((mqo.best.1 - optimum).abs() < 1e-9, "instance {i}: bb_mqo");

        let mapping = LogicalMapping::with_default_epsilon(problem);
        let qub = bb_qubo::solve(mapping.qubo(), &QuboBbConfig::default());
        assert_eq!(qub.stop, StopReason::Optimal, "instance {i}");
        let (x, _) = qub.best;
        let sel = mapping
            .decode_strict(&x)
            .expect("QUBO optimum decodes to a valid selection");
        assert!(
            (problem.selection_cost(&sel) - optimum).abs() < 1e-9,
            "instance {i}: bb_qubo decoded"
        );
    }
}

#[test]
fn heuristics_never_beat_the_optimum_and_stay_valid() {
    let heuristics: Vec<Box<dyn AnytimeHeuristic>> = vec![
        Box::new(Greedy),
        Box::new(HillClimbing),
        Box::new(GeneticAlgorithm::with_population(50)),
        Box::new(GeneticAlgorithm::with_population(200)),
    ];
    for (i, problem) in instances().iter().enumerate() {
        let (_, optimum) = problem.brute_force_optimum();
        for h in &heuristics {
            let out: HeuristicOutcome = h.run(problem, Duration::from_millis(40), 11);
            assert!(
                out.best.1 >= optimum - 1e-9,
                "instance {i}: {} reported {} below optimum {optimum}",
                h.name(),
                out.best.1
            );
            assert!(
                problem.validate_selection(&out.best.0).is_ok(),
                "instance {i}: {} invalid selection",
                h.name()
            );
            assert!(
                (problem.selection_cost(&out.best.0) - out.best.1).abs() < 1e-9,
                "instance {i}: {} misreported its cost",
                h.name()
            );
        }
    }
}

#[test]
fn hill_climbing_and_ga_reach_the_optimum_given_time_on_small_instances() {
    for (i, problem) in instances().iter().enumerate() {
        let (_, optimum) = problem.brute_force_optimum();
        let climb = HillClimbing.run(problem, Duration::from_millis(150), 5);
        assert!(
            (climb.best.1 - optimum).abs() < 1e-9,
            "instance {i}: CLIMB got {} vs {optimum}",
            climb.best.1
        );
        let ga = GeneticAlgorithm::with_population(50).run(problem, Duration::from_millis(300), 5);
        assert!(
            (ga.best.1 - optimum) <= 0.05 * optimum.abs() + 1e-9,
            "instance {i}: GA(50) got {} vs {optimum}",
            ga.best.1
        );
    }
}

#[test]
fn traces_are_consistent_between_solvers() {
    // Every solver's final trace value must equal its reported best cost.
    let problem = &instances()[0];
    let mqo = bb_mqo::solve(problem, &MqoBbConfig::default());
    assert_eq!(mqo.trace.best(), Some(mqo.best.1));
    let climb = HillClimbing.run(problem, Duration::from_millis(30), 0);
    assert_eq!(climb.trace.best(), Some(climb.best.1));
}
