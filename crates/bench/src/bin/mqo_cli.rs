//! `mqo-cli` — generate, inspect, and solve MQO instance files.
//!
//! ```text
//! mqo_cli generate --kind paper|random|relational [--plans L] [--queries N] [--seed S] --out FILE
//! mqo_cli info INSTANCE.json
//! mqo_cli solve INSTANCE.json --algo qa|qa-sparse|bb|qubo-bb|climb|ga|greedy|decomposed
//!          [--budget-ms MS] [--reads N] [--seed S] [--threads N] [--graph RxC]
//! ```
//!
//! Instances are the serde JSON form of [`mqo_core::MqoProblem`]; solutions
//! are printed as JSON `{cost, plans}` on stdout, diagnostics on stderr.

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
         --algo qa|qa-sparse|bb|qubo-bb|climb|ga|greedy|decomposed [--budget-ms MS] \
         [--reads N] [--seed S] [--threads N] [--graph RxC] [--fault-rate R]"
    );
    std::process::exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().unwrap_or_else(|| usage());
            flags.insert(name.to_string(), value);
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
    match args.positional.first().map(String::as_str) {
        Some("generate") => generate(&args),
        Some("info") => info(&args),
        Some("solve") => solve(&args),
        _ => usage(),
    }
}

fn flag<'a>(args: &'a Args, name: &str) -> Option<&'a str> {
    args.flags.get(name).map(String::as_str)
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
    let fault_rate: f64 = num_flag(args, "fault-rate", 0.0);
    if !(0.0..=1.0).contains(&fault_rate) {
        fail("--fault-rate must be in [0, 1]");
    }
    let graph = flag(args, "graph").map_or_else(ChimeraGraph::dwave_2x, parse_graph);
    let device = || {
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                threads,
                faults: FaultConfig::uniform(fault_rate),
                ..DeviceConfig::default()
            },
            PathIntegralQmcSampler::default(),
        )
    };

    let algo = flag(args, "algo").unwrap_or("bb");
    let (selection, cost) = match algo {
        "qa" | "qa-sparse" | "decomposed" => {
            let solver = QuantumMqoSolver::new(graph, device());
            let out = match algo {
                "qa" => solver.solve(&problem, seed),
                "qa-sparse" => solver.solve_sparse(&problem, seed, 16),
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
                    Ok(mqo::pipeline::QuantumMqoOutcome {
                        best: out.best,
                        trace: out.trace,
                        device_time_us: out.device_time.as_secs_f64() * 1e6,
                        reads: 0,
                        repaired_reads: 0,
                        broken_chain_reads: 0,
                        qubits_used: 0,
                        faults: FaultEvents::default(),
                        retries: 0,
                        reembeds: 0,
                        fallback: false,
                        chain_breaks: Default::default(),
                        integrity: Default::default(),
                        repair_descent_moves: 0,
                    })
                }
            };
            let out = out.unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1)
            });
            out.best
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
                .unwrap_or_else(|| fail("branch-and-bound produced no incumbent within budget"))
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
            let (x, _) = out
                .best
                .unwrap_or_else(|| fail("QUBO branch-and-bound produced no incumbent"));
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
        _ => usage(),
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
