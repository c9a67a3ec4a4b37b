//! Device-model calibration and ablation: how control-error noise, sweep
//! count, and the sampler back-end (classical SA vs path-integral QMC)
//! affect QA solution quality.
//!
//! The paper reports two calibration anchors for the real D-Wave 2X
//! (537-query class): the first annealing run lands within ~1.5% of the
//! run's own final solution, and the final solution within ~0.4% of the true
//! optimum. This binary sweeps the device-model knobs and prints the same
//! two statistics so the defaults in `DeviceConfig` can be pinned to the
//! hardware's observed behaviour.
//!
//! The reference is LIN-MQO's optimum when its 30 s run proves one;
//! otherwise it is the best known cost, the lower of LIN-MQO's incumbent
//! and a CLIMB run of the same budget. Each row also reports host wall time
//! per read, which simulated device time (376 µs per read) hides.
//!
//! Usage: `cargo run --release -p mqo-bench --bin calibrate [-- --small --plans 2]`

use mqo::pipeline::QuantumMqoSolver;
use mqo_annealer::behavioral::{BehavioralConfig, BehavioralSampler};
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::noise::ControlErrorModel;
use mqo_annealer::sa::{SaConfig, SimulatedAnnealingSampler};
use mqo_annealer::sqa::{PathIntegralQmcSampler, SqaConfig};
use mqo_bench::cli::HarnessOptions;
use mqo_bench::harness::{paper_machine, small_machine};
use mqo_bench::report::write_result_file;
use mqo_heuristics::{AnytimeHeuristic, HillClimbing};
use mqo_milp::{bb_mqo, MqoBbConfig, StopReason};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

struct Calibration {
    first_read_overhead: f64,
    final_overhead: f64,
    broken_chain_fraction: f64,
    host_ms_per_read: f64,
}

impl Calibration {
    fn row(&self, back_end: &str, setting: impl std::fmt::Display, noise: f64) -> String {
        format!(
            "| {back_end} | {setting} | {noise} | {:+.2}% | {:+.2}% | {:.1}% | {:.3} |\n",
            self.first_read_overhead * 100.0,
            self.final_overhead * 100.0,
            self.broken_chain_fraction * 100.0,
            self.host_ms_per_read
        )
    }
}

fn measure(
    inst: &paper::PaperInstance,
    graph: &mqo_chimera::graph::ChimeraGraph,
    reference: f64,
    device: QuantumAnnealer<impl mqo_annealer::sampler::Sampler>,
    seed: u64,
) -> Calibration {
    let solver = QuantumMqoSolver::new(graph.clone(), device);
    let started = Instant::now();
    let out = solver
        .solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), seed)
        .unwrap_or_else(|e| fail(e));
    let host_ms_per_read = started.elapsed().as_secs_f64() * 1e3 / out.reads as f64;
    let first = out
        .trace
        .value_at(Duration::from_secs_f64(376e-6))
        .expect("first read recorded");
    let last = out.trace.best().expect("non-empty trace");
    Calibration {
        first_read_overhead: (first - reference) / reference.abs().max(1e-9),
        final_overhead: (last - reference) / reference.abs().max(1e-9),
        broken_chain_fraction: out.broken_chain_reads as f64 / out.reads as f64,
        host_ms_per_read,
    }
}

fn main() {
    let opts = HarnessOptions::from_env();
    let graph = if opts.small {
        small_machine()
    } else {
        paper_machine()
    };
    let plans = opts.plans_filter.unwrap_or(2);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(17));
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(plans), &mut rng)
        .unwrap_or_else(|e| fail(e));
    eprintln!(
        "instance: {} queries x {plans} plans, {} savings",
        inst.problem.num_queries(),
        inst.problem.num_savings()
    );

    // Reference: the proved optimum, else the best cost either solver finds.
    let budget = Duration::from_secs(30).max(opts.budget);
    let exact = bb_mqo::solve(
        &inst.problem,
        &MqoBbConfig {
            deadline: Some(budget),
            ..MqoBbConfig::default()
        },
    );
    let incumbent = exact.best.1;
    let (reference, label) = if exact.stop == StopReason::Optimal {
        (incumbent, "optimum, proved by LIN-MQO")
    } else {
        let climb = HillClimbing.run(&inst.problem, budget, opts.seed).best.1;
        (
            incumbent.min(climb),
            "best known, lower of LIN-MQO's incumbent and CLIMB",
        )
    };
    eprintln!("reference cost {reference:.1} ({label})");

    let mut md = format!(
        "# Device-model calibration (paper anchors: first read ≈ +1.5%, final ≈ +0.4%)\n\n\
         Overheads are relative to cost {reference:.1} ({label}, {} s budget).\n\n\
         | back-end | sweeps/slices | noise σ | first-read overhead | final overhead | broken-chain reads | host ms/read |\n\
         |---|---|---|---|---|---|---|\n",
        budget.as_secs()
    );

    let reads = opts.reads.min(1000);
    for &noise in &[0.0, 0.005, 0.01, 0.02, 0.05] {
        for &sweeps in &[32usize, 128, 512] {
            let device = QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: reads,
                    control_error: ControlErrorModel::new(noise),
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::new(SaConfig {
                    sweeps,
                    ..SaConfig::default()
                }),
            );
            let c = measure(&inst, &graph, reference, device, opts.seed);
            md += &c.row("SA", sweeps, noise);
        }
    }

    // PIQMC back-end, for the sampler ablation and default calibration.
    for &slices in &[8usize, 16] {
        for &sweeps in &[64usize, 128, 256] {
            for &noise in &[0.0, 0.01, 0.02] {
                let device = QuantumAnnealer::new(
                    DeviceConfig {
                        num_reads: reads.min(200), // PIQMC is slices× more expensive
                        control_error: ControlErrorModel::new(noise),
                        ..DeviceConfig::default()
                    },
                    PathIntegralQmcSampler::new(SqaConfig {
                        slices,
                        sweeps,
                        ..SqaConfig::default()
                    }),
                );
                let c = measure(&inst, &graph, reference, device, opts.seed);
                md += &c.row("PIQMC", format!("{slices}x{sweeps}"), noise);
            }
        }
    }

    // Behavioural back-end (the full-scale default) across noise levels.
    for &noise in &[0.0, 0.0025, 0.005, 0.01] {
        for &sweeps in &[4usize, 8, 16] {
            let device = QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: reads,
                    control_error: ControlErrorModel::new(noise),
                    ..DeviceConfig::default()
                },
                BehavioralSampler::new(BehavioralConfig {
                    read_sweeps: sweeps,
                    ..BehavioralConfig::default()
                }),
            );
            let c = measure(&inst, &graph, reference, device, opts.seed);
            md += &c.row("behavioural", sweeps, noise);
        }
    }

    println!("{md}");
    if let Some(p) = write_result_file(&opts.out_dir, "calibration.md", &md) {
        eprintln!("wrote {}", p.display());
    }
}
