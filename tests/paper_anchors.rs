//! The paper's own numbers, held as tests.
//!
//! * Example 1 (Section 4, the quickstart): two queries whose expensive
//!   plans share a result worth 5 solve to cost 2 on the simulated
//!   D-Wave 2X through Algorithm 1.
//! * Figure 7's 1152-qubit row: the clustered embedding hosts 576/288/144/144
//!   queries of 2/3/4/5 plans on the intact 12×12 Chimera graph, and the
//!   counts EXPERIMENTS.md states for the paper's machine (55 broken qubits,
//!   defect seed `0xD2016`).
//! * Table 1's hardness ordering: at `--small` scale, the 2-plan class is by
//!   far the hardest for the MQO branch and bound, counted in explored nodes
//!   so the test is deterministic.

use mqo::milp::bb_mqo::{self, MqoBbConfig, StopReason};
use mqo::prelude::*;
use mqo::workload::paper::{self, PaperWorkloadConfig};
use mqo_chimera::embedding::clustered::layout_uniform;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Queries of `plans` plans each that the clustered layout places on `graph`.
fn clustered_capacity(graph: &ChimeraGraph, plans: usize) -> usize {
    let layout = layout_uniform(graph, usize::MAX, plans).expect("layout");
    layout.verify(graph).expect("a valid clustered layout");
    layout.num_clusters
}

#[test]
fn example_1_solves_to_cost_2_through_algorithm_1() {
    // q1 has plans costing {2, 4}, q2 has plans {3, 1}; the expensive plans
    // p2 and p3 share an intermediate result worth 5.
    let mut builder = MqoProblem::builder();
    let q1 = builder.add_query(&[2.0, 4.0]);
    let q2 = builder.add_query(&[3.0, 1.0]);
    let p2 = builder.plans_of(q1)[1];
    let p3 = builder.plans_of(q2)[0];
    builder.add_saving(p2, p3, 5.0).unwrap();
    let problem = builder.build().unwrap();

    // The quickstart's solver: the D-Wave 2X, 100 reads in 10 gauges.
    let solver = QuantumMqoSolver::new(
        ChimeraGraph::dwave_2x(),
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 100,
                num_gauges: 10,
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        ),
    );
    let outcome = solver.solve(&problem, 7).expect("Example 1 embeds");
    let (selection, cost) = &outcome.best;
    assert_eq!(*cost, 2.0, "4 + 3 - 5");
    assert_eq!(selection.plan_of(q1), p2);
    assert_eq!(selection.plan_of(q2), p3);
}

#[test]
fn figure_7_capacity_of_the_intact_dwave_2x() {
    let graph = ChimeraGraph::dwave_2x();
    assert_eq!(graph.num_qubits(), 1152);
    let capacity: Vec<usize> = (2..=5)
        .map(|plans| clustered_capacity(&graph, plans))
        .collect();
    assert_eq!(capacity, [576, 288, 144, 144]);
}

#[test]
fn capacity_of_the_paper_machine_matches_experiments_md() {
    let graph = ChimeraGraph::dwave_2x_as_used_in_paper(&mut ChaCha8Rng::seed_from_u64(0xD2016));
    assert_eq!(graph.num_working_qubits(), 1097);
    let capacity: Vec<usize> = (2..=5)
        .map(|plans| clustered_capacity(&graph, plans))
        .collect();
    assert_eq!(capacity, [527, 241, 142, 97]);
}

/// The harness's `--small` machine: the 4×4 Chimera graph with 6 qubits
/// broken at the paper machine's defect seed.
fn small_machine() -> ChimeraGraph {
    let mut graph = ChimeraGraph::new(4, 4);
    graph.break_random_qubits(6, &mut ChaCha8Rng::seed_from_u64(0xD2016));
    graph
}

#[test]
fn table_1_two_plan_instances_are_hardest_for_branch_and_bound() {
    let graph = small_machine();
    // (queries, nodes) per class of 2–5 plans per query, instance seed 0.
    let explored: Vec<(usize, u64)> = (2..=5)
        .map(|plans| {
            let config = PaperWorkloadConfig::paper_class(plans);
            let problem = paper::generate(&graph, &config, &mut ChaCha8Rng::seed_from_u64(0))
                .expect("a paper-class instance")
                .problem;
            let outcome = bb_mqo::solve(&problem, &MqoBbConfig::default());
            assert_eq!(outcome.stop, StopReason::Optimal, "{plans} plans");
            (problem.num_queries(), outcome.nodes)
        })
        .collect();
    let nodes: Vec<u64> = explored.iter().map(|&(_, nodes)| nodes).collect();
    for (plans, &other) in (3..=5).zip(&nodes[1..]) {
        assert!(
            nodes[0] > 10 * other,
            "2 plans: {} nodes, {plans} plans: {other}",
            nodes[0]
        );
    }
    assert_eq!(explored, [(59, 104_791), (27, 92), (16, 72), (11, 7)]);
}
