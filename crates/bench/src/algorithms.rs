//! The six competitors of the paper's evaluation (Section 7.1), each wrapped
//! to produce a comparable cost-over-time [`Trace`]:
//!
//! * `LIN-MQO` — branch-and-bound on the direct MQO formulation (wall time);
//! * `LIN-QUB` — branch-and-bound on the QUBO derived from the instance
//!   (wall time; trace values are energies shifted back by the constant
//!   offset, so valid incumbents read as true MQO costs and invalid interim
//!   incumbents carry their penalty surcharge, which is exactly the
//!   handicap the paper attributes to the QUBO detour);
//! * `QA` — Algorithm 1 on the simulated annealer (simulated device time);
//! * `CLIMB`, `GA(50)`, `GA(200)` — the randomised heuristics (wall time).

use mqo::pipeline::{QuantumMqoOutcome, QuantumMqoSolver};
use mqo_annealer::behavioral::{BehavioralConfig, BehavioralSampler};
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_core::trace::Trace;
use mqo_heuristics::{AnytimeHeuristic, GeneticAlgorithm, HillClimbing};
use mqo_milp::{bb_mqo, bb_qubo, MqoBbConfig, QuboBbConfig, StopReason};
use mqo_workload::paper::PaperInstance;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One competitor's result on one instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoRun {
    /// Figure label (`LIN-MQO`, `QA`, …).
    pub name: String,
    /// Best-so-far cost over time (wall time for classical algorithms,
    /// simulated device time for `QA`).
    pub trace: Trace,
    /// Whether an exact solver proved optimality within budget.
    pub proved_optimal: bool,
    /// Chain-break and repair accounting — `Some` only for the `QA` track.
    #[serde(default)]
    pub resilience: Option<ResilienceSummary>,
}

/// Flattened chain-break and repair counters of one QA run, sized for CSV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSummary {
    /// Reads of the device run.
    pub reads: usize,
    /// Reads with at least one broken chain.
    pub broken_chain_reads: usize,
    /// Reads whose decoded selection needed repair.
    pub repaired_reads: usize,
    /// Reads whose decoded selection was feasible as sampled.
    #[serde(default)]
    pub verified_clean_reads: usize,
    /// Greedy-descent moves spent polishing repaired reads.
    #[serde(default)]
    pub repair_descent_moves: usize,
    /// Broken chains resolved by a strict majority vote.
    #[serde(default)]
    pub chain_majority_repairs: usize,
    /// Even-length chain ties resolved by the pinned rule.
    #[serde(default)]
    pub chain_tie_breaks: usize,
    /// Mean per-read-per-chain break rate.
    pub chain_break_rate: f64,
    /// Break rate of the worst single chain.
    pub max_chain_break_rate: f64,
}

impl ResilienceSummary {
    /// Flattens a pipeline outcome into the CSV-ready counters.
    pub fn from_outcome(out: &QuantumMqoOutcome) -> Self {
        ResilienceSummary {
            reads: out.reads,
            broken_chain_reads: out.broken_chain_reads,
            repaired_reads: out.repaired_reads,
            verified_clean_reads: out.integrity.verified_clean,
            repair_descent_moves: out.repair_descent_moves,
            chain_majority_repairs: out.chain_breaks.majority_repairs,
            chain_tie_breaks: out.chain_breaks.tie_breaks,
            chain_break_rate: out.chain_breaks.break_rate(),
            max_chain_break_rate: out.chain_breaks.max_chain_break_rate(),
        }
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct CompetitorConfig {
    /// Wall-clock budget for each classical algorithm.
    pub classical_budget: Duration,
    /// Annealing reads for the QA track (paper: 1000).
    pub qa_reads: usize,
    /// Gauge batches (paper: 10).
    pub qa_gauges: usize,
    /// Relative control-error noise of the device model.
    pub qa_noise: f64,
    /// Thermal-equilibration sweeps per read of the behavioural back-end.
    pub qa_sweeps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for device reads and harness instances
    /// (`0` = available parallelism). Device results are identical at any
    /// value; classical competitors are timed on the wall clock, so heavy
    /// oversubscription can stretch their traces.
    pub threads: usize,
}

impl Default for CompetitorConfig {
    fn default() -> Self {
        CompetitorConfig {
            classical_budget: Duration::from_secs(2),
            qa_reads: 1000,
            qa_gauges: 10,
            qa_noise: 0.0025,
            qa_sweeps: 8,
            seed: 0,
            threads: 0,
        }
    }
}

/// LIN-MQO: exact anytime B&B on the MQO formulation.
pub fn run_lin_mqo(problem: &MqoProblem, cfg: &CompetitorConfig) -> AlgoRun {
    let out = bb_mqo::solve(
        problem,
        &MqoBbConfig {
            deadline: Some(cfg.classical_budget),
            ..MqoBbConfig::default()
        },
    );
    AlgoRun {
        name: "LIN-MQO".to_string(),
        trace: out.trace,
        proved_optimal: out.stop == StopReason::Optimal,
        resilience: None,
    }
}

/// LIN-QUB: exact anytime B&B on the QUBO reformulation.
pub fn run_lin_qub(problem: &MqoProblem, cfg: &CompetitorConfig) -> AlgoRun {
    let mapping = LogicalMapping::with_default_epsilon(problem);
    let out = bb_qubo::solve(
        mapping.qubo(),
        &QuboBbConfig {
            deadline: Some(cfg.classical_budget),
            ..QuboBbConfig::default()
        },
    );
    // Shift energies back to the MQO cost scale.
    let mut trace = Trace::new();
    for p in out.trace.points() {
        trace.record(p.elapsed, p.value - mapping.energy_offset());
    }
    AlgoRun {
        name: "LIN-QUB".to_string(),
        trace,
        proved_optimal: out.stop == StopReason::Optimal,
        resilience: None,
    }
}

/// QA: Algorithm 1 on the simulated D-Wave 2X with the calibrated
/// behavioural back-end — the physics back-ends (PIQMC, SA) reproduce
/// hardware behaviour only at small scale and are kept for the sampler
/// ablation (see the `calibrate` binary and DESIGN.md). Reuses
/// the instance's own clustered embedding; panics if the instance does not
/// embed (the paper generator guarantees it does).
pub fn run_qa(instance: &PaperInstance, graph: &ChimeraGraph, cfg: &CompetitorConfig) -> AlgoRun {
    let device = QuantumAnnealer::new(
        DeviceConfig {
            num_reads: cfg.qa_reads,
            num_gauges: cfg.qa_gauges,
            control_error: mqo_annealer::noise::ControlErrorModel::new(cfg.qa_noise),
            threads: cfg.threads,
            ..DeviceConfig::default()
        },
        BehavioralSampler::new(BehavioralConfig {
            read_sweeps: cfg.qa_sweeps,
            ..BehavioralConfig::default()
        }),
    );
    let solver = QuantumMqoSolver::new(graph.clone(), device);
    let out = solver
        .solve_with_embedding(
            &instance.problem,
            instance.layout.embedding.clone(),
            cfg.seed,
        )
        .expect("paper instances embed on their own graph");
    AlgoRun {
        name: "QA".to_string(),
        resilience: Some(ResilienceSummary::from_outcome(&out)),
        trace: out.trace,
        proved_optimal: false,
    }
}

/// CLIMB / GA(50) / GA(200).
pub fn run_heuristic(
    problem: &MqoProblem,
    heuristic: &dyn AnytimeHeuristic,
    cfg: &CompetitorConfig,
) -> AlgoRun {
    let out = heuristic.run(problem, cfg.classical_budget, cfg.seed);
    AlgoRun {
        name: heuristic.name(),
        trace: out.trace,
        proved_optimal: false,
        resilience: None,
    }
}

/// Runs all six competitors of Figures 4 and 5 on one instance.
pub fn run_all(
    instance: &PaperInstance,
    graph: &ChimeraGraph,
    cfg: &CompetitorConfig,
) -> Vec<AlgoRun> {
    let p = &instance.problem;
    vec![
        run_lin_mqo(p, cfg),
        run_lin_qub(p, cfg),
        run_qa(instance, graph, cfg),
        run_heuristic(p, &HillClimbing, cfg),
        run_heuristic(p, &GeneticAlgorithm::with_population(50), cfg),
        run_heuristic(p, &GeneticAlgorithm::with_population(200), cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_workload::paper::{self, PaperWorkloadConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_instance() -> (PaperInstance, ChimeraGraph) {
        let graph = ChimeraGraph::new(2, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
            .expect("toy graph hosts the paper class");
        (inst, graph)
    }

    fn fast_cfg() -> CompetitorConfig {
        CompetitorConfig {
            classical_budget: Duration::from_millis(60),
            qa_reads: 60,
            qa_gauges: 6,
            seed: 1,
            ..CompetitorConfig::default()
        }
    }

    #[test]
    fn all_six_competitors_produce_traces_with_consistent_costs() {
        let (inst, graph) = tiny_instance();
        let cfg = fast_cfg();
        let runs = run_all(&inst, &graph, &cfg);
        assert_eq!(runs.len(), 6);
        let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["LIN-MQO", "LIN-QUB", "QA", "CLIMB", "GA(50)", "GA(200)"]
        );
        // On a 16-query toy instance every competitor should land on (or
        // near) the same optimum; LIN-MQO proves it.
        let lin = &runs[0];
        assert!(lin.proved_optimal);
        let opt = lin.trace.best().unwrap();
        for r in &runs {
            let best = r.trace.best().expect("non-empty trace");
            assert!(
                best >= opt - 1e-9,
                "{} reported {best}, below the proved optimum {opt}",
                r.name
            );
            assert!(
                best <= opt + opt.abs() * 0.5 + 5.0,
                "{} stayed far from optimum: {best} vs {opt}",
                r.name
            );
        }
    }

    #[test]
    fn qa_trace_lives_on_the_device_time_axis() {
        let (inst, graph) = tiny_instance();
        let runs = run_qa(&inst, &graph, &fast_cfg());
        let first = runs.trace.points().first().unwrap();
        assert!(first.elapsed <= Duration::from_millis(1));
        assert_eq!(first.elapsed, Duration::from_secs_f64(376e-6));
    }

    #[test]
    fn qa_reports_resilience_counters_and_classical_tracks_do_not() {
        let (inst, graph) = tiny_instance();
        let cfg = fast_cfg();
        assert!(run_lin_mqo(&inst.problem, &cfg).resilience.is_none());
        let clean = run_qa(&inst, &graph, &cfg);
        let summary = clean.resilience.expect("QA always reports a summary");
        assert_eq!(summary.reads, cfg.qa_reads);
        // Integrity accounting partitions the reads exactly.
        assert_eq!(
            summary.verified_clean_reads + summary.repaired_reads,
            summary.reads
        );
        // The behavioural back-end breaks no chain on this toy instance.
        assert_eq!(summary.chain_majority_repairs + summary.chain_tie_breaks, 0);
        assert_eq!(summary.chain_break_rate, 0.0);
        assert_eq!(summary.max_chain_break_rate, 0.0);
    }

    #[test]
    fn lin_qub_trace_is_on_the_mqo_cost_scale() {
        // Single cell → 4 queries × 2 plans: small enough that the QUBO B&B
        // (whose penalty-laden bound is deliberately weak, cf. the paper's
        // LIN-QUB observations) converges within the test budget.
        let graph = ChimeraGraph::new(1, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(2), &mut rng)
            .expect("single cell hosts the paper class");
        let cfg = fast_cfg();
        let qub = run_lin_qub(&inst.problem, &cfg);
        let mqo = run_lin_mqo(&inst.problem, &cfg);
        // Both exact solvers must agree on the final cost for a toy
        // instance (QUBO optimum decodes to the MQO optimum).
        assert!(
            (qub.trace.best().unwrap() - mqo.trace.best().unwrap()).abs() < 1e-6,
            "{} vs {}",
            qub.trace.best().unwrap(),
            mqo.trace.best().unwrap()
        );
    }
}
