//! The paper's own numbers, held as tests.
//!
//! * Example 1 (Section 4, the quickstart): two queries whose expensive
//!   plans share a result worth 5 solve to cost 2 on the simulated
//!   D-Wave 2X through Algorithm 1.
//! * Figure 7's 1152-qubit row: the clustered embedding hosts 576/288/144/144
//!   queries of 2/3/4/5 plans on the intact 12×12 Chimera graph, and the
//!   counts EXPERIMENTS.md states for the paper's machine (55 broken qubits,
//!   defect seed `0xD2016`).

use mqo::prelude::*;
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
