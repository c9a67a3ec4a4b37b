//! Regenerates Figures 4 and 5: solution cost as a function of optimization
//! time for all six competitors (LIN-MQO, LIN-QUB, QA, CLIMB, GA(50),
//! GA(200)) on the paper's test-case classes.
//!
//! Costs are normalised per instance as `(cost − best_known)/best_known`
//! where `best_known` is the best value any competitor reached, so 0 means
//! "matched the best-known solution" — the textual analogue of the paper's
//! scaled-cost axis. QA time is simulated device time (376 µs per read);
//! classical times are wall-clock, exactly the comparison the paper makes.
//!
//! Usage:
//!   cargo run --release -p mqo-bench --bin anytime            # all classes, fast
//!   cargo run --release -p mqo-bench --bin anytime -- --plans 2 --full
//!     (537×2 = Figure 4; 108×5 = Figure 5 via --plans 5)

use mqo_bench::algorithms::CompetitorConfig;
use mqo_bench::cli::HarnessOptions;
use mqo_bench::harness::{
    cross_check_class, paper_machine, quantum_speedup, run_class, small_machine,
};
use mqo_bench::report::{
    chain_csv, chain_table, checkpoint_csv, checkpoint_table, checkpoints_up_to, write_result_file,
};
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
    let checkpoints = checkpoints_up_to(opts.budget);
    let mut classes = Vec::new();
    let mut audit_md = String::from(
        "\n## Cross-check: recorded costs vs proven optima\n\n\
         | class | audited | unproven | violations |\n|---|---|---|---|\n",
    );
    let mut audit_failures = 0usize;

    let mut md = String::from("# Figures 4 & 5: cost vs optimization time\n\n");
    let mut csv = String::new();
    // Figure 6 falls out of the same runs: collect it here too.
    let first_read = Duration::from_secs_f64(376e-6);
    let mut fig6 = String::from(
        "\n## Figure 6 (from the same runs): average quantum speedup\n\n\
         | class | qubits/variable | avg speedup | lower-bound instances |\n|---|---|---|---|\n",
    );
    for plans in PAPER_CLASSES {
        if opts.plans_filter.is_some_and(|p| p != plans) {
            continue;
        }
        eprintln!(
            "running class with {plans} plans/query ({} instances, {:?} budget)...",
            opts.instances, opts.budget
        );
        let class = run_class(&graph, plans, opts.instances, &cfg);
        let table = checkpoint_table(&class, &checkpoints);
        println!("{table}");
        md.push_str(&table);
        md.push('\n');
        let c = checkpoint_csv(&class, &checkpoints);
        if csv.is_empty() {
            csv = c;
        } else {
            // Skip the repeated header.
            csv.push_str(c.split_once('\n').map(|x| x.1).unwrap_or(""));
        }

        let mut speedups = Vec::new();
        let mut bounded = 0usize;
        for inst in &class.instances {
            match quantum_speedup(inst, first_read) {
                Some(s) => speedups.push(s),
                None => {
                    bounded += 1;
                    speedups.push(opts.budget.as_secs_f64() / first_read.as_secs_f64());
                }
            }
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        let _ = writeln!(
            fig6,
            "| {} | {:.2} | {}{avg:.0}× | {bounded}/{} |",
            class.label(),
            class.qubits_per_variable,
            if bounded > 0 { "≥ " } else { "" },
            class.instances.len()
        );
        if opts.cross_check {
            let audit = cross_check_class(&graph, &class, opts.budget);
            for v in &audit.violations {
                eprintln!("cross-check violation [{}]: {v}", class.label());
            }
            audit_failures += audit.violations.len();
            let _ = writeln!(
                audit_md,
                "| {} | {} | {} | {} |",
                class.label(),
                audit.audited,
                audit.skipped_unproven,
                audit.violations.len()
            );
        }
        classes.push(class);
    }
    if opts.cross_check {
        md.push_str(&audit_md);
        println!("{audit_md}");
    }
    md.push_str(&fig6);
    println!("{fig6}");
    md.push_str(
        "\nReading guide (paper shapes): QA sits at (near-)zero from its first \
         checkpoint; LIN-MQO needs seconds to reach zero and LIN-QUB trails it; \
         CLIMB leads the randomised pack early, the GAs catch up late.\n",
    );
    if let Some(p) = write_result_file(&opts.out_dir, "figures4_5.md", &md) {
        eprintln!("wrote {}", p.display());
    }
    if let Some(p) = write_result_file(&opts.out_dir, "figures4_5.csv", &csv) {
        eprintln!("wrote {}", p.display());
    }
    // Chain-break and repair accounting of the QA track.
    println!("{}", chain_table(&classes));
    if let Some(p) = write_result_file(&opts.out_dir, "chains.csv", &chain_csv(&classes)) {
        eprintln!("wrote {}", p.display());
    }
    if audit_failures > 0 {
        eprintln!("cross-check failed: {audit_failures} costs undercut a proven optimum");
        std::process::exit(3);
    }
}
