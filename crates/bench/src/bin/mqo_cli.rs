//! `mqo-cli` — generate, inspect, and solve MQO instance files.
//!
//! ```text
//! mqo_cli generate --kind paper|random|relational [--plans L] [--queries N] [--seed S] --out FILE
//! mqo_cli info INSTANCE.json
//! mqo_cli solve INSTANCE.json --algo qa|bb|qubo-bb|climb|ga|greedy|decomposed
//!          [--budget-ms MS] [--reads N] [--seed S] [--threads N] [--graph RxC]
//! ```
//!
//! Instances are the serde JSON form of [`mqo_core::MqoProblem`]; solutions
//! are printed as JSON `{cost, plans}` on stdout, diagnostics on stderr.
//! A flag the subcommand does not list above is an error (exit 2).

use mqo::decomposition::DecompositionConfig;
use mqo::prelude::*;
use mqo_annealer::sqa::PathIntegralQmcSampler;
use mqo_milp::{bb_mqo, bb_qubo, MqoBbConfig, QuboBbConfig};
use mqo_workload::generic::{self, RandomWorkloadConfig};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use mqo_workload::relational::{self, RelationalConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mqo_cli generate --kind paper|random|relational [--plans L] [--queries N] \
         [--seed S] [--graph RxC] --out FILE\n  mqo_cli info FILE\n  mqo_cli solve FILE \
         --algo qa|bb|qubo-bb|climb|ga|greedy|decomposed [--budget-ms MS] \
         [--reads N] [--seed S] [--threads N] [--graph RxC]"
    );
    std::process::exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

struct Args {
    positional: Vec<String>,
    /// `(name, value)` pairs in command-line order; the last one wins.
    flags: Vec<(String, String)>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().unwrap_or_else(|| usage());
            flags.push((name.to_string(), value));
        } else {
            positional.push(a);
        }
    }
    Args { positional, flags }
}

fn parse_graph(spec: &str) -> ChimeraGraph {
    let (r, c) = spec.split_once('x').unwrap_or_else(|| usage());
    let rows = r.parse().unwrap_or_else(|_| usage());
    let cols = c.parse().unwrap_or_else(|_| usage());
    ChimeraGraph::new(rows, cols)
}

fn main() {
    let args = parse_args();
    let (run, accepted): (fn(&Args), &[&str]) = match args.positional.first().map(String::as_str) {
        Some("generate") => (
            generate,
            &["kind", "plans", "queries", "seed", "graph", "out"],
        ),
        Some("info") => (info, &[]),
        Some("solve") => (
            solve,
            &["algo", "budget-ms", "reads", "seed", "threads", "graph"],
        ),
        _ => usage(),
    };
    if let Some((name, _)) = args
        .flags
        .iter()
        .find(|(name, _)| !accepted.contains(&name.as_str()))
    {
        fail(format!("unknown flag --{name}"));
    }
    run(&args);
}

fn flag<'a>(args: &'a Args, name: &str) -> Option<&'a str> {
    args.flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, value)| value.as_str())
}

fn num_flag<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default)
}

fn generate(args: &Args) {
    let seed: u64 = num_flag(args, "seed", 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let problem = match flag(args, "kind").unwrap_or_else(|| usage()) {
        "paper" => {
            let graph = flag(args, "graph").map_or_else(ChimeraGraph::dwave_2x, parse_graph);
            let plans = num_flag(args, "plans", 2);
            let queries = num_flag(args, "queries", usize::MAX);
            let cfg = PaperWorkloadConfig {
                max_queries: queries,
                ..PaperWorkloadConfig::paper_class(plans)
            };
            paper::generate(&graph, &cfg, &mut rng)
                .unwrap_or_else(|e| fail(e))
                .problem
        }
        "random" => generic::generate(
            &RandomWorkloadConfig {
                queries: num_flag(args, "queries", 20),
                plans_per_query: num_flag(args, "plans", 3),
                ..RandomWorkloadConfig::default()
            },
            &mut rng,
        ),
        "relational" => {
            relational::generate(
                &RelationalConfig {
                    num_queries: num_flag(args, "queries", 12),
                    plans_per_query: num_flag(args, "plans", 3),
                    ..RelationalConfig::default()
                },
                &mut rng,
            )
            .problem
        }
        _ => usage(),
    };
    let json = serde_json::to_string_pretty(&problem)
        .unwrap_or_else(|e| fail(format!("cannot serialise the instance: {e}")));
    match flag(args, "out") {
        Some(path) => {
            std::fs::write(path, json)
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            eprintln!(
                "wrote {} ({} queries, {} plans, {} savings)",
                path,
                problem.num_queries(),
                problem.num_plans(),
                problem.num_savings()
            );
        }
        None => println!("{json}"),
    }
}

fn load(args: &Args) -> MqoProblem {
    let path = args.positional.get(1).unwrap_or_else(|| usage());
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    serde_json::from_str(&data)
        .unwrap_or_else(|e| fail(format!("{path} is not valid MqoProblem JSON: {e}")))
}

fn info(args: &Args) {
    let p = load(args);
    println!("queries      : {}", p.num_queries());
    println!("plans        : {}", p.num_plans());
    println!("savings pairs: {}", p.num_savings());
    println!("max plan cost: {}", p.max_plan_cost());
    println!("max Σsavings : {}", p.max_savings_sum());
    let mapping = mqo_core::logical::LogicalMapping::with_default_epsilon(&p);
    println!(
        "QUBO         : {} vars, {} quadratic terms, wL={}, wM={}",
        mapping.qubo().num_vars(),
        mapping.qubo().num_quadratic(),
        mapping.w_l(),
        mapping.w_m()
    );
}

fn solve(args: &Args) {
    let problem = load(args);
    let seed: u64 = num_flag(args, "seed", 0);
    let budget = Duration::from_millis(num_flag(args, "budget-ms", 2000));
    let reads = num_flag(args, "reads", 1000);
    let threads = num_flag(args, "threads", 0);
    let graph = flag(args, "graph").map_or_else(ChimeraGraph::dwave_2x, parse_graph);
    let device = || {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                threads,
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        )
    };

    let algo = flag(args, "algo").unwrap_or("bb");
    let (selection, cost) = match algo {
        "qa" | "decomposed" => {
            let solver = QuantumMqoSolver::new(graph, device());
            let best = match algo {
                "qa" => solver.solve(&problem, seed).map(|out| out.best),
                _ => {
                    let out = solver
                        .solve_decomposed(&problem, &DecompositionConfig::default(), seed)
                        .unwrap_or_else(|e| fail(e));
                    eprintln!(
                        "decomposed: {} blocks, {} improved, {:.1} ms device time",
                        out.blocks_solved,
                        out.blocks_improved,
                        out.device_time.as_secs_f64() * 1e3
                    );
                    Ok(out.best)
                }
            };
            best.unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1)
            })
        }
        "bb" => {
            let out = bb_mqo::solve(
                &problem,
                &MqoBbConfig {
                    deadline: Some(budget),
                    ..MqoBbConfig::default()
                },
            );
            eprintln!(
                "bb: {:?}, {} nodes, root bound {:.3}",
                out.stop, out.nodes, out.root_bound
            );
            out.best
        }
        "qubo-bb" => {
            let mapping = mqo_core::logical::LogicalMapping::with_default_epsilon(&problem);
            let out = bb_qubo::solve(
                mapping.qubo(),
                &QuboBbConfig {
                    deadline: Some(budget),
                    ..QuboBbConfig::default()
                },
            );
            eprintln!("qubo-bb: {:?}, {} nodes", out.stop, out.nodes);
            let (x, _) = out.best;
            let (sel, _) = mapping.decode_with_repair(&problem, &x);
            let cost = problem.selection_cost(&sel);
            (sel, cost)
        }
        "climb" => HillClimbing.run(&problem, budget, seed).best,
        "ga" => {
            GeneticAlgorithm::with_population(50)
                .run(&problem, budget, seed)
                .best
        }
        "greedy" => Greedy.run(&problem, budget, seed).best,
        other => fail(format!("unknown algorithm {other}")),
    };

    problem
        .validate_selection(&selection)
        .unwrap_or_else(|e| fail(format!("solver returned an invalid selection: {e:?}")));
    let plans: Vec<u32> = selection.plans().iter().map(|p| p.0).collect();
    println!(
        "{}",
        serde_json::json!({ "algorithm": algo, "cost": cost, "plans": plans })
    );
}
