//! Regenerates Figure 6: average quantum speedup per test-case class as a
//! function of qubits-per-variable.
//!
//! Following the paper, the speedup of one instance is the time the *best*
//! classical competitor needs to match the solution quality QA reaches
//! after its **first annealing run** (376 µs of device time), divided by
//! that first run's duration. When no classical competitor matches within
//! budget, the instance contributes a lower bound `budget / 376 µs` and
//! the class is marked with `≥`.
//!
//! Usage: `cargo run --release -p mqo-bench --bin speedup [-- --full ...]`

use mqo_bench::algorithms::CompetitorConfig;
use mqo_bench::cli::HarnessOptions;
use mqo_bench::harness::{paper_machine, quantum_speedup, run_class, small_machine};
use mqo_bench::report::write_result_file;
use mqo_workload::paper::PAPER_CLASSES;
use std::fmt::Write as _;
use std::time::Duration;

fn main() {
    let opts = HarnessOptions::from_env();
    let graph = if opts.small {
        small_machine()
    } else {
        paper_machine()
    };
    let cfg = CompetitorConfig {
        classical_budget: opts.budget,
        qa_reads: opts.reads,
        seed: opts.seed,
        threads: opts.threads,
        ..CompetitorConfig::default()
    };
    let first_read = Duration::from_secs_f64(376e-6);

    let mut md = String::from(
        "# Figure 6: average quantum speedup vs qubits per variable\n\n\
         | class | qubits/variable | avg speedup | bounded instances |\n\
         |---|---|---|---|\n",
    );
    let mut csv = String::from("plans,queries,qubits_per_variable,avg_speedup,lower_bound_only\n");

    for plans in PAPER_CLASSES {
        if opts.plans_filter.is_some_and(|p| p != plans) {
            continue;
        }
        eprintln!("running class with {plans} plans/query...");
        let class = run_class(&graph, plans, opts.instances, &cfg);
        let mut speedups = Vec::new();
        let mut bounded = 0usize;
        for inst in &class.instances {
            match quantum_speedup(inst, first_read) {
                Some(s) => speedups.push(s),
                None => {
                    // Classical never matched QA's first read: lower bound.
                    bounded += 1;
                    speedups.push(opts.budget.as_secs_f64() / first_read.as_secs_f64());
                }
            }
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        let marker = if bounded > 0 { "≥ " } else { "" };
        let _ = writeln!(
            md,
            "| {} | {:.2} | {marker}{avg:.0}× | {bounded}/{} |",
            class.label(),
            class.qubits_per_variable,
            class.instances.len()
        );
        let _ = writeln!(
            csv,
            "{},{},{:.4},{avg:.2},{}",
            plans,
            class.queries,
            class.qubits_per_variable,
            bounded > 0
        );
    }

    md.push_str(
        "\nPaper shape: speedups of ~10³–10⁴ at 1 qubit/variable (2-plan class), \
         decreasing as more qubits are needed per variable.\n",
    );
    println!("{md}");
    if let Some(p) = write_result_file(&opts.out_dir, "figure6.md", &md) {
        eprintln!("wrote {}", p.display());
    }
    if let Some(p) = write_result_file(&opts.out_dir, "figure6.csv", &csv) {
        eprintln!("wrote {}", p.display());
    }
}
