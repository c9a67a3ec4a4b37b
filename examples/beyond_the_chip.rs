//! Beyond the chip: solving MQO instances *larger than the annealer* as a
//! series of QUBO subproblems — the extension the paper's conclusion
//! announces as future work — plus the footnote-4 task-model reduction.
//!
//! Run with: `cargo run --release --example beyond_the_chip`

use mqo::decomposition::DecompositionConfig;
use mqo::prelude::*;
use mqo_chimera::embedding::triad;
use mqo_core::tasks::{TaskId, TaskModel};
use mqo_heuristics::Greedy;
use mqo_milp::{bb_mqo, MqoBbConfig};
use mqo_workload::generic::{self, RandomWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // ── 1. An instance that cannot fit the device as one QUBO ──────────
    // A 4×4 Chimera patch hosts K16 cliques at most; 60 queries × 3 plans
    // = 180 logical variables are far beyond that.
    let graph = ChimeraGraph::new(4, 4);
    let problem = generic::generate(
        &RandomWorkloadConfig {
            queries: 60,
            plans_per_query: 3,
            savings_per_query: 4.0,
            ..RandomWorkloadConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(7),
    );
    println!(
        "instance: {} queries × 3 plans = {} variables; device capacity: K{}",
        problem.num_queries(),
        problem.num_plans(),
        triad::max_clique(&graph)
    );

    let solver = QuantumMqoSolver::new(
        graph,
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 100,
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        ),
    );
    assert!(
        solver.solve(&problem, 0).is_err(),
        "monolithic embedding must fail"
    );

    // ── 2. Series-of-QUBOs decomposition ────────────────────────────────
    let out = solver
        .solve_decomposed(
            &problem,
            &DecompositionConfig {
                rounds: 4,
                ..DecompositionConfig::default()
            },
            0,
        )
        .unwrap();
    let greedy_cost = problem.selection_cost(&Greedy::construct(&problem));
    let exact = bb_mqo::solve(
        &problem,
        &MqoBbConfig {
            deadline: Some(std::time::Duration::from_secs(5)),
            ..MqoBbConfig::default()
        },
    );
    let optimum = exact.best.1;
    println!("\nseries-of-QUBOs decomposition:");
    println!("  blocks solved      : {}", out.blocks_solved);
    println!("  blocks improved    : {}", out.blocks_improved);
    println!(
        "  total device time  : {:.1} ms",
        out.device_time.as_secs_f64() * 1e3
    );
    println!("  greedy start       : {greedy_cost:.1}");
    println!(
        "  decomposed result  : {:.1}  ({:+.2}% vs exact {:.1}, {:?})",
        out.best.1,
        (out.best.1 - optimum) / optimum.abs().max(1e-9) * 100.0,
        optimum,
        exact.stop
    );

    // ── 3. Footnote 4: the task-based MQO model ─────────────────────────
    // Three queries whose plans are sets of tasks; shared tasks are paid
    // once. The reduction introduces helper queries so the pairwise model
    // (and therefore the whole annealer pipeline) applies unchanged.
    let t = TaskId;
    let model = TaskModel {
        task_costs: vec![6.0, 4.0, 3.0, 5.0],
        queries: vec![
            vec![vec![t(0)], vec![t(1), t(2)]],
            vec![vec![t(1)], vec![t(3)]],
            vec![vec![t(2), t(3)], vec![t(0)]],
        ],
    };
    let reduction = model.to_mqo().unwrap();
    println!(
        "\ntask model: {} tasks, {} queries → reduced problem with {} queries / {} plans",
        model.task_costs.len(),
        model.queries.len(),
        reduction.problem.num_queries(),
        reduction.problem.num_plans()
    );
    let (selection, cost) = reduction.problem.brute_force_optimum();
    let choice = reduction.project(&selection);
    println!(
        "optimal task-model choice: {choice:?} with true task cost {} (reduced cost {cost})",
        model.execution_cost(&choice)
    );
    assert_eq!(model.execution_cost(&choice), cost);

    // The reduced problem is a perfectly ordinary MQO instance: run it
    // through the annealer too.
    let small = QuantumMqoSolver::new(
        ChimeraGraph::new(4, 4), // the reduction needs a K14 clique
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 100,
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        ),
    );
    let qa = small.solve(&reduction.problem, 5).unwrap();
    println!(
        "annealer agrees: cost {} in {} reads ({} qubits)",
        qa.best.1, qa.reads, qa.qubits_used
    );
}
