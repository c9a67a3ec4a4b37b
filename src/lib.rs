#![warn(missing_docs)]

//! # mqo — Multiple Query Optimization on a (simulated) adiabatic quantum annealer
//!
//! A from-scratch Rust reproduction of *Multiple Query Optimization on the
//! D-Wave 2X Adiabatic Quantum Computer* (Trummer & Koch, PVLDB 9(9), 2016).
//!
//! The workspace implements the paper's entire pipeline (Algorithm 1) plus
//! every substrate its evaluation depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`mqo_core`] | MQO problem model, QUBO/Ising formalisms, logical mapping (Section 4), anytime traces |
//! | [`mqo_chimera`] | Chimera topology, TRIAD/clustered embeddings, physical mapping (Section 5), capacity analysis (Section 6) |
//! | [`mqo_annealer`] | simulated D-Wave 2X: SA / path-integral-QMC samplers, gauges, control-error noise, read protocol & timing |
//! | [`mqo_milp`] | branch-and-bound with combinatorial bounds: the ILP baselines LIN-MQO and LIN-QUB |
//! | [`mqo_heuristics`] | hill climbing, the paper-configured genetic algorithm, greedy |
//! | [`mqo_workload`] | the paper's generator, generic random instances, a relational join batch |
//!
//! This facade crate re-exports them and adds [`pipeline::QuantumMqoSolver`],
//! the assembled Algorithm 1. See `examples/quickstart.rs` for a guided tour
//! and `crates/bench` for the harness regenerating every table and figure of
//! the paper's evaluation.
//!
//! ```
//! use mqo::prelude::*;
//!
//! // Example 1 from the paper.
//! let mut b = MqoProblem::builder();
//! let q1 = b.add_query(&[2.0, 4.0]);
//! let q2 = b.add_query(&[3.0, 1.0]);
//! let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
//! b.add_saving(p2, p3, 5.0).unwrap();
//! let problem = b.build().unwrap();
//!
//! // Solve it on the simulated annealer...
//! let solver = QuantumMqoSolver::new(
//!     ChimeraGraph::new(2, 2),
//!     QuantumAnnealer::new(
//!         DeviceConfig { num_reads: 30, num_gauges: 3, ..DeviceConfig::default() },
//!         SimulatedAnnealingSampler::default(),
//!     ),
//! );
//! let quantum = solver.solve(&problem, 7).unwrap();
//! assert_eq!(quantum.best.1, 2.0);
//!
//! // ...and classically, for comparison.
//! let classical = mqo::milp::bb_mqo::solve(&problem, &Default::default());
//! assert_eq!(classical.best.1, 2.0);
//! ```

pub use mqo_annealer as annealer;
pub use mqo_chimera as chimera;
pub use mqo_core as core;
pub use mqo_heuristics as heuristics;
pub use mqo_milp as milp;
pub use mqo_workload as workload;

pub mod decomposition;
pub mod pipeline;

/// One-stop imports for the common pipeline types.
pub mod prelude {
    pub use crate::decomposition::{DecompositionConfig, DecompositionOutcome};
    pub use crate::pipeline::{
        PipelineError, QuantumMqoOutcome, QuantumMqoSolver, ResilienceConfig,
    };
    pub use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
    pub use mqo_annealer::sa::SimulatedAnnealingSampler;
    pub use mqo_annealer::sqa::PathIntegralQmcSampler;
    pub use mqo_chimera::graph::ChimeraGraph;
    pub use mqo_core::problem::MqoProblem;
    pub use mqo_core::solution::Selection;
    pub use mqo_core::trace::Trace;
    pub use mqo_heuristics::{AnytimeHeuristic, GeneticAlgorithm, Greedy, HillClimbing};
}
