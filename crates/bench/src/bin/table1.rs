//! Regenerates Table 1: milliseconds until LIN-MQO finds the optimal
//! solution, per test-case class (min / median / max over instances).
//!
//! The paper's times come from a commercial ILP solver; ours from the
//! in-repo branch-and-bound, so absolute numbers differ while the ordering
//! across classes (537-query instances are orders of magnitude harder than
//! 108-query ones) is the reproduced shape. A run is counted as "optimal
//! found" at the moment the incumbent last improved, provided the search
//! subsequently *proved* optimality; unproved runs are reported separately.
//!
//! Usage: `cargo run --release -p mqo-bench --bin table1 [-- --full --small ...]`

use mqo_annealer::parallel::{parallel_map_with, resolve_threads};
use mqo_bench::algorithms::CompetitorConfig;
use mqo_bench::cli::HarnessOptions;
use mqo_bench::harness::{paper_machine, small_machine};
use mqo_bench::report::{min_median_max, write_result_file};
use mqo_milp::{bb_mqo, MqoBbConfig, StopReason};
use mqo_workload::paper::{self, PaperWorkloadConfig, PAPER_CLASSES};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

fn main() {
    let opts = HarnessOptions::from_env();
    let graph = if opts.small {
        small_machine()
    } else {
        paper_machine()
    };
    let cfg = CompetitorConfig {
        classical_budget: opts.budget,
        seed: opts.seed,
        ..CompetitorConfig::default()
    };

    let mut md = String::from(
        "# Table 1: ms until LIN-MQO finds the optimal solution\n\n\
         | # Queries | Plans | Minimum | Median | Maximum | proved optimal |\n\
         |---|---|---|---|---|---|\n",
    );
    let mut csv = String::from("queries,plans,instance_seed,ms_to_best,proved\n");

    for plans in PAPER_CLASSES {
        if opts.plans_filter.is_some_and(|p| p != plans) {
            continue;
        }
        let workload = PaperWorkloadConfig::paper_class(plans);
        // Instances are independent: fan them out, each on its own derived
        // seed; reporting below replays them in index order. Time-to-best
        // is wall-clock, so concurrent solves on a loaded machine can read
        // slower than serial ones.
        let solved = parallel_map_with(
            opts.instances,
            resolve_threads(opts.threads),
            || (),
            |_, i| {
                let seed = cfg.seed.wrapping_add(1000 * i as u64 + 17);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let inst = match paper::generate(&graph, &workload, &mut rng) {
                    Ok(inst) => inst,
                    Err(e) => return Err(format!("class {plans}, seed {seed}: {e}")),
                };
                let out = bb_mqo::solve(
                    &inst.problem,
                    &MqoBbConfig {
                        deadline: Some(cfg.classical_budget),
                        ..MqoBbConfig::default()
                    },
                );
                Ok((seed, inst.problem.num_queries(), out))
            },
        );
        let mut times_ms = Vec::new();
        let mut proved = 0usize;
        let mut queries = 0usize;
        for (i, solved) in solved.into_iter().enumerate() {
            let (seed, inst_queries, out) = match solved {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot generate instance: {e}");
                    std::process::exit(2);
                }
            };
            queries = inst_queries;
            let best = out.best.1;
            let t = out
                .trace
                .time_to_reach(best)
                .expect("bb_mqo records every incumbent in its trace");
            let is_proved = out.stop == StopReason::Optimal;
            if is_proved {
                proved += 1;
                times_ms.push(t.as_secs_f64() * 1e3);
            }
            let _ = writeln!(
                csv,
                "{queries},{plans},{seed},{:.3},{is_proved}",
                t.as_secs_f64() * 1e3
            );
            eprintln!(
                "class {plans} plans, instance {i}: best {best:.1} after {:.1} ms \
                 ({}; {} nodes)",
                t.as_secs_f64() * 1e3,
                if is_proved {
                    "proved optimal"
                } else {
                    "budget hit"
                },
                out.nodes
            );
        }
        match min_median_max(times_ms) {
            Some((min, med, max)) => {
                let _ = writeln!(
                    md,
                    "| {queries} | {plans} | {min:.1} | {med:.1} | {max:.1} | {proved}/{} |",
                    opts.instances
                );
            }
            None => {
                let _ = writeln!(
                    md,
                    "| {queries} | {plans} | — | — | — | {proved}/{} (none proved in budget) |",
                    opts.instances
                );
            }
        }
    }

    md.push_str(
        "\nPaper reference (CPLEX-class solver): 537q → 9261/25205/34570 ms; \
         253q → 129/178/206 ms; 140q → 45/128/241 ms; 108q → 47/48/51 ms.\n",
    );
    println!("{md}");
    if let Some(p) = write_result_file(&opts.out_dir, "table1.md", &md) {
        eprintln!("wrote {}", p.display());
    }
    if let Some(p) = write_result_file(&opts.out_dir, "table1.csv", &csv) {
        eprintln!("wrote {}", p.display());
    }
}
