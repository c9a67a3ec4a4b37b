//! The offline pipeline and the serving engine share one annealer embedding
//! policy: a TRIAD clique where one places, otherwise the heuristic seeded
//! by the QUBO's structure hash. An offline `solve` therefore answers what
//! the engine serves for the same request, whether the engine searched for
//! the embedding or found it in its cache.

use mqo::prelude::*;
use mqo_service::{Backend, EngineConfig, Metrics, SolveEngine, SolveRequest};
use std::sync::Arc;

/// Five two-plan queries with chained savings: 10 plans, over the TRIAD
/// bound of 2×2 cells (K8), so only the heuristic embeds them.
fn chain() -> MqoProblem {
    let mut b = MqoProblem::builder();
    let mut prev = None;
    for _ in 0..5 {
        let q = b.add_query(&[2.0, 3.0]);
        let plans = b.plans_of(q);
        if let Some(p) = prev {
            b.add_saving(p, plans[0], 1.5).unwrap();
        }
        prev = Some(plans[1]);
    }
    b.build().unwrap()
}

#[test]
fn offline_solve_equals_the_served_answer_cold_and_cached() {
    let graph = ChimeraGraph::new(2, 2);
    let device = DeviceConfig {
        num_reads: 50,
        num_gauges: 5,
        ..DeviceConfig::default()
    };
    let problem = chain();
    let solver = QuantumMqoSolver::new(
        graph.clone(),
        QuantumAnnealer::new(device, SimulatedAnnealingSampler::default()),
    );
    assert!(solver.place_clique(problem.num_plans()).is_none());
    let offline = solver
        .solve(&problem, 7)
        .expect("the heuristic embeds a 10-plan chain on 2×2 cells");
    let selection: Vec<u32> = offline.best.0.plans().iter().map(|p| p.0).collect();

    let mut config = EngineConfig::new(graph);
    config.device.num_reads = 50;
    config.device.num_gauges = 5;
    let engine = SolveEngine::new(config, Arc::new(Metrics::default()));
    let req = SolveRequest::new(problem, 7);
    for cached in [false, true] {
        let served = engine.solve(&req).expect("the engine serves the chain");
        assert_eq!(
            (served.backend, served.cache_hit),
            (Backend::Annealer, cached)
        );
        assert_eq!(served.selection, selection);
        assert_eq!(served.cost.to_bits(), offline.best.1.to_bits());
        assert_eq!(served.reads, offline.reads);
        assert_eq!(served.qubits_used, offline.qubits_used);
    }
}
