//! Quickstart: Example 1 from the paper, end to end.
//!
//! Builds the four-plan MQO instance of Section 4, shows the logical QUBO
//! it maps to, solves it on the simulated quantum annealer (Algorithm 1)
//! and with the exact classical solver, and verifies both agree.
//!
//! Run with: `cargo run --release --example quickstart`

use mqo::prelude::*;
use mqo_core::logical::LogicalMapping;
use mqo_milp::{bb_mqo, MqoBbConfig};

fn main() {
    // ── 1. The MQO instance ────────────────────────────────────────────
    // Two queries; q1 has plans costing {2, 4}, q2 has plans {3, 1}.
    // The expensive plans p2 and p3 can share an intermediate result
    // worth 5 cost units.
    let mut builder = MqoProblem::builder();
    let q1 = builder.add_query(&[2.0, 4.0]);
    let q2 = builder.add_query(&[3.0, 1.0]);
    let p2 = builder.plans_of(q1)[1];
    let p3 = builder.plans_of(q2)[0];
    builder.add_saving(p2, p3, 5.0).unwrap();
    let problem = builder.build().unwrap();
    println!(
        "instance: {} queries, {} plans, {} sharing pair(s)",
        problem.num_queries(),
        problem.num_plans(),
        problem.num_savings()
    );

    // ── 2. The logical mapping (Section 4) ─────────────────────────────
    let mapping = LogicalMapping::with_default_epsilon(&problem);
    println!(
        "logical mapping: wL = {}, wM = {} (paper: 4.25 and 9.5)",
        mapping.w_l(),
        mapping.w_m()
    );
    println!(
        "QUBO: {} variables, {} quadratic terms",
        mapping.qubo().num_vars(),
        mapping.qubo().num_quadratic()
    );

    // ── 3. Algorithm 1 on the simulated D-Wave 2X ──────────────────────
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
    let quantum = solver.solve(&problem, 7).expect("embeds trivially");
    let (q_selection, q_cost) = &quantum.best;
    println!(
        "quantum annealer: cost {q_cost} after {} reads \
         ({} repaired, {} broken-chain), {} qubits",
        quantum.reads, quantum.repaired_reads, quantum.broken_chain_reads, quantum.qubits_used
    );

    // ── 4. The exact classical answer ──────────────────────────────────
    let classical = bb_mqo::solve(&problem, &MqoBbConfig::default());
    let (c_selection, c_cost) = classical.best;
    println!("branch & bound:  cost {c_cost} ({:?})", classical.stop);

    assert_eq!(*q_cost, c_cost, "both solvers find the optimum");
    assert_eq!(q_selection, &c_selection);
    println!(
        "optimal selection: q1 → plan {}, q2 → plan {} (executes p2 ⧺ p3, \
         paying 4 + 3 − 5 = 2)",
        c_selection.plan_of(q1).index(),
        c_selection.plan_of(q2).index()
    );
}
