//! Experiment driver: paper classes, instance batches, and aggregates.

use crate::algorithms::{run_all, AlgoRun, CompetitorConfig};
use mqo_annealer::parallel::{parallel_map_with, resolve_threads};
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::integrity::{self, DEFAULT_TOLERANCE};
use mqo_milp::{bb_mqo, MqoBbConfig, StopReason};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Seed that fixes the paper machine's broken-qubit pattern across all
/// experiments (the real pattern is proprietary; only the count matters).
pub const MACHINE_SEED: u64 = 0xD_2016;

/// The defective D-Wave 2X all experiments run against.
pub fn paper_machine() -> ChimeraGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(MACHINE_SEED);
    ChimeraGraph::dwave_2x_as_used_in_paper(&mut rng)
}

/// A scaled-down machine for fast harness runs and CI.
pub fn small_machine() -> ChimeraGraph {
    let mut g = ChimeraGraph::new(4, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(MACHINE_SEED);
    g.break_random_qubits(6, &mut rng); // same ~5% defect rate
    g
}

/// Results of one competitor batch on one instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceResult {
    /// Instance seed.
    pub seed: u64,
    /// Number of queries the machine fit.
    pub queries: usize,
    /// Best cost any competitor reached (the normalisation anchor).
    pub best_known: f64,
    /// Per-competitor traces.
    pub runs: Vec<AlgoRun>,
}

/// Results of one test-case class (fixed plans-per-query).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassResult {
    /// Plans per query.
    pub plans: usize,
    /// Queries per instance (identical across instances: same machine).
    pub queries: usize,
    /// Average physical qubits per logical variable (Figure 6 x-axis).
    pub qubits_per_variable: f64,
    /// Per-instance results.
    pub instances: Vec<InstanceResult>,
}

impl ClassResult {
    /// Display label in the paper's style, e.g. `537 Queries, 2 Plans`.
    pub fn label(&self) -> String {
        format!("{} Queries, {} Plans", self.queries, self.plans)
    }
}

/// Runs `num_instances` instances of the class with `plans` plans per query
/// on `graph`, executing all six competitors on each.
///
/// Instances fan out over `cfg.threads` workers; each derives its own seed
/// from the instance index, so the generated instances (and the device-time
/// QA traces) are identical at any thread count. Classical competitors are
/// timed on the wall clock, so their traces — but not their final quality
/// within budget — can shift under concurrent execution.
pub fn run_class(
    graph: &ChimeraGraph,
    plans: usize,
    num_instances: usize,
    cfg: &CompetitorConfig,
) -> ClassResult {
    let workload = PaperWorkloadConfig::paper_class(plans);
    let instances = parallel_map_with(
        num_instances,
        resolve_threads(cfg.threads),
        || (),
        |_, i| {
            let seed = cfg.seed.wrapping_add(1000 * i as u64 + 17);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = paper::generate(graph, &workload, &mut rng)
                .expect("experiment machines host every paper class");
            let run_cfg = CompetitorConfig { seed, ..*cfg };
            let runs = run_all(&inst, graph, &run_cfg);
            let best_known = runs
                .iter()
                .filter_map(|r| r.trace.best())
                .fold(f64::INFINITY, f64::min);
            let result = InstanceResult {
                seed,
                queries: inst.problem.num_queries(),
                best_known,
                runs,
            };
            (result, inst.layout.embedding.qubits_per_variable())
        },
    );
    let queries = instances.last().map_or(0, |(r, _)| r.queries);
    let qubits_per_variable = instances.last().map_or(0.0, |&(_, q)| q);
    ClassResult {
        plans,
        queries,
        qubits_per_variable,
        instances: instances.into_iter().map(|(r, _)| r).collect(),
    }
}

/// Outcome of the opt-in `--cross-check` audit of one class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrossCheckSummary {
    /// Instances audited against a proven optimum.
    pub audited: usize,
    /// Instances for which no optimality proof was affordable — reported,
    /// never silently counted as passing.
    pub skipped_unproven: usize,
    /// Human-readable audit failures; empty on honest runs.
    pub violations: Vec<String>,
}

/// Largest plan-combination count the audit will enumerate exhaustively.
const BRUTE_FORCE_CAP: f64 = (1u64 << 21) as f64;

/// Audits a class's recorded results against proven optima.
///
/// The proof obligation is discharged per instance, cheapest source first:
/// the recorded `LIN-MQO` branch-and-bound run when it terminated with an
/// optimality proof; else exhaustive enumeration when the plan-combination
/// space is small enough; else a fresh branch-and-bound run under
/// `proof_budget`. The latter two re-derive the problem from the recorded
/// seed, exactly as `run_class` generated it. No competitor's best reported
/// cost — nor the `best_known` normalisation anchor — may undercut the
/// proven optimum ([`integrity::verify_against_bound`]): a cost below a
/// proven bound is the canonical symptom of a corrupted ledger.
pub fn cross_check_class(
    graph: &ChimeraGraph,
    class: &ClassResult,
    proof_budget: Duration,
) -> CrossCheckSummary {
    let workload = PaperWorkloadConfig::paper_class(class.plans);
    let mut summary = CrossCheckSummary::default();
    for inst in &class.instances {
        let recorded_proof = inst
            .runs
            .iter()
            .find(|r| r.name == "LIN-MQO" && r.proved_optimal)
            .and_then(|r| r.trace.best());
        let bound = match recorded_proof {
            Some(b) => b,
            None => {
                let mut rng = ChaCha8Rng::seed_from_u64(inst.seed);
                let problem = paper::generate(graph, &workload, &mut rng)
                    .expect("audit re-derives the machine's own instances")
                    .problem;
                let combinations = (class.plans as f64).powi(problem.num_queries() as i32);
                if problem.num_queries() <= 24 && combinations <= BRUTE_FORCE_CAP {
                    problem.brute_force_optimum().1
                } else {
                    let out = bb_mqo::solve(
                        &problem,
                        &MqoBbConfig {
                            deadline: Some(proof_budget),
                            ..MqoBbConfig::default()
                        },
                    );
                    match (out.stop, out.trace.best()) {
                        (StopReason::Optimal, Some(b)) => b,
                        _ => {
                            summary.skipped_unproven += 1;
                            continue;
                        }
                    }
                }
            }
        };
        summary.audited += 1;
        if let Err(e) = integrity::verify_against_bound(inst.best_known, bound, DEFAULT_TOLERANCE) {
            summary.violations.push(format!(
                "instance {}: best_known anchor {}: {e}",
                inst.seed, inst.best_known
            ));
        }
        for run in &inst.runs {
            let Some(best) = run.trace.best() else {
                continue;
            };
            if let Err(e) = integrity::verify_against_bound(best, bound, DEFAULT_TOLERANCE) {
                summary.violations.push(format!(
                    "instance {}: {} reported {best}: {e}",
                    inst.seed, run.name
                ));
            }
        }
    }
    summary
}

/// Mean normalised cost of a competitor at a checkpoint across a class's
/// instances: `(cost − best_known) / best_known`, or `None` when the
/// competitor had no solution yet on any instance.
pub fn mean_normalised_cost(class: &ClassResult, algo: &str, checkpoint: Duration) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for inst in &class.instances {
        let run = inst.runs.iter().find(|r| r.name == algo)?;
        if let Some(value) = run.trace.value_at(checkpoint) {
            let anchor = inst.best_known.abs().max(1e-9);
            sum += (value - inst.best_known) / anchor;
            n += 1;
        }
    }
    (n == class.instances.len() && n > 0).then(|| sum / n as f64)
}

/// The paper's Figure 6 speedup for one instance: time until the *best*
/// classical competitor matches the quality of QA's first annealing run,
/// divided by the duration of that first run. `None` when no classical
/// competitor matched it within budget (the caller reports a `≥` bound).
pub fn quantum_speedup(inst: &InstanceResult, first_read: Duration) -> Option<f64> {
    let qa = inst.runs.iter().find(|r| r.name == "QA")?;
    let target = qa.trace.value_at(first_read)?;
    let fastest_classical = inst
        .runs
        .iter()
        .filter(|r| r.name != "QA")
        .filter_map(|r| r.trace.time_to_reach(target + 1e-9))
        .min()?;
    Some(fastest_classical.as_secs_f64() / first_read.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::trace::Trace;

    fn fast_cfg() -> CompetitorConfig {
        CompetitorConfig {
            classical_budget: Duration::from_millis(50),
            qa_reads: 50,
            qa_gauges: 5,
            seed: 9,
            ..CompetitorConfig::default()
        }
    }

    #[test]
    fn run_class_produces_full_batches() {
        let g = ChimeraGraph::new(2, 2);
        let res = run_class(&g, 2, 2, &fast_cfg());
        assert_eq!(res.plans, 2);
        assert_eq!(res.instances.len(), 2);
        assert!(res.queries > 0);
        assert!((res.qubits_per_variable - 1.0).abs() < 1e-9);
        for inst in &res.instances {
            assert_eq!(inst.runs.len(), 6);
            assert!(inst.best_known.is_finite());
        }
        assert!(res.label().contains("Queries"));
    }

    #[test]
    fn normalised_cost_is_zero_for_the_best_competitor_at_the_end() {
        let g = ChimeraGraph::new(2, 2);
        let res = run_class(&g, 2, 1, &fast_cfg());
        let end = Duration::from_secs(3600);
        let mins: Vec<f64> = ["LIN-MQO", "LIN-QUB", "QA", "CLIMB", "GA(50)", "GA(200)"]
            .iter()
            .filter_map(|a| mean_normalised_cost(&res, a, end))
            .collect();
        assert_eq!(mins.len(), 6);
        let best = mins.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            best.abs() < 1e-9,
            "someone must sit at the anchor: {mins:?}"
        );
        assert!(mins.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn speedup_is_positive_when_classical_matches_qa() {
        let g = ChimeraGraph::new(2, 2);
        let res = run_class(&g, 2, 1, &fast_cfg());
        let first_read = Duration::from_secs_f64(376e-6);
        // On toy instances the classical solvers reach QA quality, so the
        // speedup is defined and positive.
        let s = quantum_speedup(&res.instances[0], first_read);
        if let Some(v) = s {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn cross_check_clears_an_honest_class() {
        let g = ChimeraGraph::new(2, 2);
        let res = run_class(&g, 2, 2, &fast_cfg());
        let audit = cross_check_class(&g, &res, Duration::from_millis(200));
        assert_eq!(audit.audited, 2, "toy instances must all be provable");
        assert_eq!(audit.skipped_unproven, 0);
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    }

    #[test]
    fn cross_check_flags_costs_below_the_proven_optimum() {
        let g = ChimeraGraph::new(2, 2);
        let mut res = run_class(&g, 2, 1, &fast_cfg());
        let inst = &mut res.instances[0];
        let mut forged = Trace::new();
        forged.record(Duration::from_millis(1), inst.best_known - 10.0);
        inst.runs.push(AlgoRun {
            name: "FORGED".to_string(),
            trace: forged,
            proved_optimal: false,
            resilience: None,
        });
        inst.best_known -= 10.0;
        let audit = cross_check_class(&g, &res, Duration::from_millis(200));
        assert_eq!(audit.audited, 1);
        assert_eq!(audit.violations.len(), 2, "{:?}", audit.violations);
        assert!(audit.violations[0].contains("best_known anchor"));
        assert!(audit.violations[1].contains("FORGED"));
    }

    #[test]
    fn machines_have_the_documented_scale() {
        assert_eq!(paper_machine().num_working_qubits(), 1097);
        let small = small_machine();
        assert_eq!(small.num_qubits(), 128);
        assert_eq!(small.num_working_qubits(), 122);
    }
}
