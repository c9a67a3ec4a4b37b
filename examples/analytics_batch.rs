//! A database-shaped scenario: optimising a batch of analytic join queries
//! with shared left-deep subexpressions — the workload class the MQO
//! literature (and the paper's introduction, via systems like SharedDB)
//! motivates.
//!
//! The example generates a synthetic star-ish schema and a batch of join
//! queries, derives alternative join orders and their sharing opportunities,
//! and then compares the quantum-annealer pipeline against greedy, hill
//! climbing, and the exact branch-and-bound.
//!
//! Run with: `cargo run --release --example analytics_batch`

use mqo::prelude::*;
use mqo_milp::{bb_mqo, MqoBbConfig};
use mqo_workload::relational::{self, RelationalConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn main() {
    // ── 1. The batch ────────────────────────────────────────────────────
    let config = RelationalConfig {
        num_tables: 8,
        num_queries: 10,
        tables_per_query: (2, 4),
        plans_per_query: 3,
        ..RelationalConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2016);
    let batch = relational::generate(&config, &mut rng);

    println!("catalog:");
    for t in &batch.tables {
        println!("  {:>4}: {:>9.0} rows", t.name, t.rows);
    }
    println!(
        "\nbatch of {} queries; alternative plans:",
        batch.queries.len()
    );
    for p in batch.problem.plans() {
        println!("  [{:>2}] {}", p.index(), batch.describe_plan(p));
    }
    println!(
        "\n{} sharing opportunities (common join prefixes), e.g.:",
        batch.problem.num_savings()
    );
    for &(p1, p2, s) in batch.problem.savings().iter().take(3) {
        println!(
            "  plans {} & {} share work worth {s:.1}",
            p1.index(),
            p2.index()
        );
    }

    // ── 2. Classical optimisers ─────────────────────────────────────────
    let problem = &batch.problem;
    let greedy = Greedy.run(problem, Duration::from_millis(1), 0);
    let climb = HillClimbing.run(problem, Duration::from_millis(100), 0);
    let exact = bb_mqo::solve(problem, &MqoBbConfig::default());
    let (best_sel, optimal) = exact.best.clone();

    println!("\noptimiser comparison:");
    println!("  greedy construction : {:>8.1}", greedy.best.1);
    println!("  hill climbing (0.1s): {:>8.1}", climb.best.1);
    println!(
        "  branch & bound      : {:>8.1} ({:?}, {} nodes)",
        optimal, exact.stop, exact.nodes
    );

    // ── 3. The quantum annealer ─────────────────────────────────────────
    // The batch is small enough to embed as one global TRIAD clique, so
    // arbitrary sharing structure is representable.
    let solver = QuantumMqoSolver::new(
        ChimeraGraph::dwave_2x(),
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: 200,
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        ),
    );
    match solver.solve(problem, 99) {
        Ok(out) => {
            println!(
                "  quantum annealer    : {:>8.1} ({} reads, {} qubits, device time {:.1} ms)",
                out.best.1,
                out.reads,
                out.qubits_used,
                out.trace
                    .points()
                    .last()
                    .map_or(0.0, |p| p.elapsed.as_secs_f64() * 1e3)
            );
            let overhead = (out.best.1 - optimal) / optimal.abs().max(1e-9);
            println!("    → {:.2}% above the proved optimum", overhead * 100.0);
        }
        Err(e) => println!("  quantum annealer    : not embeddable ({e})"),
    }

    // ── 4. What the optimal batch plan looks like ───────────────────────
    println!("\noptimal batch execution plan (cost {optimal:.1}):");
    for q in problem.queries() {
        println!("  {}", batch.describe_plan(best_sel.plan_of(q)));
    }
    let no_sharing: f64 = problem
        .queries()
        .map(|q| {
            problem
                .plans_of(q)
                .map(|p| problem.plan_cost(p))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    println!(
        "\nwithout work sharing the batch would cost at least {no_sharing:.1}; \
         MQO saves {:.1}%",
        (1.0 - optimal / no_sharing) * 100.0
    );
}
