//! Algorithm 1 of the paper, end to end:
//!
//! ```text
//! function QuantumMQO(M)
//!     lef ← LogicalMapping(M)          // mqo-core
//!     pef ← PhysicalMapping(lef)       // mqo-chimera
//!     bi  ← QuantumAnnealing(pef)      // mqo-annealer
//!     Xp  ← PhysicalMapping⁻¹(bi)      // unembedding
//!     Pe  ← LogicalMapping⁻¹(Xp)       // decode to plan selection
//!     return Pe
//! ```
//!
//! [`QuantumMqoSolver`] wires the crates together and converts the device's
//! read stream into an MQO-cost-over-device-time [`Trace`], the quantity
//! Figures 4 and 5 plot for the "QA" series.
//!
//! **Fault tolerance** (DESIGN.md §7). The device may misbehave when fault
//! injection is enabled: gauge programmings get rejected, qubits drop dead
//! mid-run, reads come back flipped or stuck. [`ResilienceConfig`] governs
//! how the solver reacts: rejected programmings are retried with a backoff
//! charged in *simulated device time*; qubit dropout triggers a
//! re-embedding around the newly-dead qubits on a degraded copy of the
//! graph; and when the retry budget is exhausted, iterated hill climbing
//! takes over from the best repaired sample so the solver still returns a
//! valid selection. Every fault, retry, re-embedding, and fallback is
//! counted in [`QuantumMqoOutcome`].

use mqo_annealer::device::{DeviceError, QuantumAnnealer};
use mqo_annealer::faults::FaultEvents;
use mqo_annealer::parallel::{derive_seed, STREAM_RETRY};
use mqo_annealer::sampler::{ChainBreakStats, Sampler};
use mqo_chimera::embedding::triad;
use mqo_chimera::embedding::{Embedding, EmbeddingError};
use mqo_chimera::graph::{ChimeraGraph, QubitId};
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::integrity::RepairStats;
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_core::solution::Selection;
use mqo_core::trace::Trace;
use mqo_heuristics::HillClimbing;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Everything that can go wrong between an MQO instance and annealer reads.
#[derive(Debug)]
pub enum PipelineError {
    /// The problem could not be embedded on the device graph.
    Embedding(EmbeddingError),
    /// The physical formula could not be programmed or run.
    Device(DeviceError),
    /// Every device attempt failed, the retry budget ran out, and the
    /// classical fallback was disabled.
    RetriesExhausted {
        /// Device runs attempted (the initial run plus retries).
        attempts: usize,
        /// The error of the last failed attempt.
        last: DeviceError,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Embedding(e) => write!(f, "embedding failed: {e}"),
            PipelineError::Device(e) => write!(f, "device run failed: {e}"),
            PipelineError::RetriesExhausted { attempts, last } => write!(
                f,
                "device retry budget exhausted after {attempts} attempts \
                 (last error: {last}); classical fallback disabled"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<EmbeddingError> for PipelineError {
    fn from(e: EmbeddingError) -> Self {
        PipelineError::Embedding(e)
    }
}

impl From<DeviceError> for PipelineError {
    fn from(e: DeviceError) -> Self {
        PipelineError::Device(e)
    }
}

/// Fault-tolerance policy of [`QuantumMqoSolver`].
///
/// On a clean run (fault injection disabled) the policy is inert — no
/// retries, re-embeddings, or fallbacks trigger, and results are
/// bit-identical to the pre-resilience pipeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct ResilienceConfig {
    /// Full device re-runs after a run aborted by rejected programmings
    /// (`0` disables retrying).
    pub max_retries: usize,
    /// Simulated device time charged per such re-run, microseconds.
    pub retry_backoff_us: f64,
    /// Re-embedding rounds allowed after qubit dropout (`0` keeps the
    /// degraded results instead of re-running).
    pub max_reembeds: usize,
    /// Attempts of the heuristic sparse embedder per re-embedding round.
    pub reembed_tries: usize,
    /// Fall back to iterated hill climbing when no device attempt produced
    /// a sample set.
    pub classical_fallback: bool,
    /// Random restarts of the classical fallback.
    pub fallback_restarts: usize,
    /// Wall-clock guard on the classical fallback.
    pub fallback_budget: Duration,
    /// Bounded greedy-descent moves applied to each *repaired* (infeasible)
    /// decoded sample after its min-delta settle (`0` disables the descent
    /// phase). Bounded by move count — never wall clock — so repair output
    /// is bit-identical across thread counts and hosts. Clean decodes are
    /// never touched.
    pub repair_descent_moves: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 2,
            retry_backoff_us: 10_000.0,
            max_reembeds: 1,
            reembed_tries: 8,
            classical_fallback: true,
            fallback_restarts: 4,
            fallback_budget: Duration::from_millis(250),
            repair_descent_moves: 4,
        }
    }
}

/// Result of one quantum-annealing MQO run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct QuantumMqoOutcome {
    /// Best valid selection over all reads, with its execution cost.
    pub best: (Selection, f64),
    /// MQO cost of the best-so-far read as a function of *simulated device
    /// time* (376 µs per read by default, plus injected backoff delays).
    pub trace: Trace,
    /// Simulated device time of the whole solve, microseconds: every read
    /// of every device run (376 µs each by default) plus injected delays
    /// and retry backoff. Unlike the trace's last point, which marks the
    /// best read, this covers the reads after it too.
    pub device_time_us: f64,
    /// Total reads performed, across all device runs.
    pub reads: usize,
    /// Reads whose decoded assignment violated one-plan-per-query and
    /// needed repair.
    pub repaired_reads: usize,
    /// Reads containing at least one broken chain.
    pub broken_chain_reads: usize,
    /// Physical qubits consumed by the (final) embedding.
    pub qubits_used: usize,
    /// Fault events injected across all device runs (empty when fault
    /// injection is disabled).
    pub faults: FaultEvents,
    /// Full device re-runs forced by rejected programming cycles.
    pub retries: usize,
    /// Re-embedding rounds performed after qubit dropout.
    pub reembeds: usize,
    /// Whether the classical fallback produced (or had to defend) the final
    /// answer because the device retry budget ran out.
    pub fallback: bool,
    /// Per-chain break statistics of the final successful device run.
    pub chain_breaks: ChainBreakStats,
    /// Integrity accounting over all decoded reads: `verified_clean` decodes
    /// were feasible as sampled, `repaired` needed the min-delta settle (and
    /// optional bounded descent), `rejected` is always 0 in the pipeline —
    /// every read of the right length is repairable (service layers count
    /// rejections at their own gate).
    pub integrity: RepairStats,
    /// Greedy-descent moves applied across all repaired reads (bounded per
    /// read by [`ResilienceConfig::repair_descent_moves`]).
    pub repair_descent_moves: usize,
}

/// The assembled Algorithm-1 solver.
#[derive(Debug, Clone)]
pub struct QuantumMqoSolver<S> {
    /// The device topology (including broken qubits).
    pub graph: ChimeraGraph,
    /// The device model (protocol + annealing back-end).
    pub device: QuantumAnnealer<S>,
    /// Weight slack `ε` for both mapping stages (paper: 0.25).
    pub epsilon: f64,
    /// Fault-tolerance policy (inert on clean runs).
    pub resilience: ResilienceConfig,
}

impl<S: Sampler> QuantumMqoSolver<S> {
    /// Creates a solver with the paper's `ε = 0.25` and the default
    /// resilience policy.
    pub fn new(graph: ChimeraGraph, device: QuantumAnnealer<S>) -> Self {
        QuantumMqoSolver {
            graph,
            device,
            epsilon: 0.25,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Replaces the resilience policy (builder style).
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Solves using an explicit embedding (e.g. the clustered layout the
    /// workload generator produced). `embedding` must assign chains to
    /// exactly the problem's plans, in plan-id order.
    ///
    /// Resilient execution: rejected programmings are retried (bounded by
    /// [`ResilienceConfig::max_retries`]); qubit dropout triggers a
    /// re-embedding around the dead qubits; and if no device attempt ever
    /// yields samples, the classical fallback answers (or, when disabled,
    /// [`PipelineError::RetriesExhausted`] is returned). Structural errors
    /// — a non-embeddable problem, couplings off the hardware graph, a
    /// degenerate device configuration — fail fast: retrying cannot help.
    pub fn solve_with_embedding(
        &self,
        problem: &MqoProblem,
        embedding: Embedding,
        seed: u64,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        let logical = LogicalMapping::new(problem, self.epsilon);
        let r = self.resilience;
        let edges: Vec<_> = logical
            .qubo()
            .quadratic()
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();

        let mut graph = self.graph.clone();
        let mut embedding = embedding;
        let mut trace = Trace::new();
        let mut best: Option<(Selection, f64)> = None;
        let mut reads = 0usize;
        let mut repaired_reads = 0usize;
        let mut broken_chain_reads = 0usize;
        let mut qubits_used = 0usize;
        let mut faults = FaultEvents::default();
        let mut retries = 0usize;
        let mut reembeds = 0usize;
        let mut descent_moves = 0usize;
        let mut chain_breaks = ChainBreakStats::default();
        let mut offset_us = 0.0f64;
        let mut attempt = 0u64;
        let mut exhausted = false;
        let mut last_device_err: Option<DeviceError> = None;

        loop {
            let physical =
                match PhysicalMapping::new(logical.qubo(), embedding.clone(), &graph, self.epsilon)
                {
                    Ok(p) => p,
                    // The caller's embedding failing to program is fatal; a
                    // re-embedding that does is abandoned, keeping the results
                    // gathered so far.
                    Err(e) if attempt == 0 => return Err(e.into()),
                    Err(_) => break,
                };
            let run_seed = if attempt == 0 {
                seed
            } else {
                derive_seed(seed, STREAM_RETRY, attempt, 0)
            };
            match self.device.run(&physical, &graph, run_seed) {
                Ok(samples) => {
                    qubits_used = physical.num_physical_vars();
                    let run_end_us =
                        offset_us + samples.reads().last().map_or(0.0, |r| r.elapsed_us);
                    for read in samples.reads() {
                        let unembedded = physical.unembed(&read.assignment);
                        if unembedded.broken_chains > 0 {
                            broken_chain_reads += 1;
                        }
                        let (selection, repaired) =
                            logical.decode_with_repair(problem, &unembedded.logical);
                        let (selection, cost) = if repaired {
                            repaired_reads += 1;
                            // Polish the repaired sample with a move-count-bounded
                            // descent (deterministic: pure function of problem +
                            // selection).
                            let (sel, cost, moves) = HillClimbing::descend_bounded(
                                problem,
                                selection,
                                r.repair_descent_moves,
                            );
                            descent_moves += moves;
                            (sel, cost)
                        } else {
                            let cost = problem.selection_cost(&selection);
                            (selection, cost)
                        };
                        let elapsed = Duration::from_secs_f64((offset_us + read.elapsed_us) * 1e-6);
                        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                            trace.record(elapsed, cost);
                            best = Some((selection, cost));
                        }
                    }
                    reads += samples.len();
                    chain_breaks = samples.chain_break_stats(&physical.dense_chains());
                    let dropped = samples.faults().dropped_qubits.clone();
                    faults.merge(samples.faults());
                    offset_us = run_end_us;
                    if !dropped.is_empty() && reembeds < r.max_reembeds {
                        // Re-embed around the newly-dead qubits and run
                        // again; the broken-qubit-aware embedders route
                        // around them.
                        let dead: Vec<QubitId> =
                            dropped.iter().map(|&p| physical.qubit_of_phys(p)).collect();
                        graph = graph.with_broken(&dead);
                        let mut rng =
                            ChaCha8Rng::seed_from_u64(derive_seed(seed, STREAM_RETRY, attempt, 1));
                        match mqo_chimera::embedding::reembed(
                            &graph,
                            logical.qubo().num_vars(),
                            &edges,
                            &mut rng,
                            r.reembed_tries.max(1),
                        ) {
                            Ok(next) => {
                                embedding = next;
                                reembeds += 1;
                                attempt += 1;
                                continue;
                            }
                            // The degraded graph no longer embeds the
                            // problem; keep what we have.
                            Err(_) => break,
                        }
                    }
                    break;
                }
                Err(err @ DeviceError::ProgrammingFailed { attempts, .. }) => {
                    // All attempts of the failed run were rejected
                    // programmings; account for them even though the run
                    // produced no samples.
                    faults.programming_rejects += attempts;
                    last_device_err = Some(err);
                    if retries < r.max_retries {
                        retries += 1;
                        attempt += 1;
                        offset_us += r.retry_backoff_us;
                        continue;
                    }
                    exhausted = true;
                    break;
                }
                // Structural failures are not transient; fail fast.
                Err(e) => return Err(e.into()),
            }
        }

        let (best, fallback) = if exhausted {
            if r.classical_fallback {
                let climbed =
                    self.fallback_climb(problem, best.as_ref().map(|(s, _)| s.clone()), seed);
                let elapsed_us = offset_us + self.device.config().time_per_read_us();
                trace.record(Duration::from_secs_f64(elapsed_us * 1e-6), climbed.1);
                let merged = match best {
                    Some(b) if b.1 <= climbed.1 => b,
                    _ => climbed,
                };
                (merged, true)
            } else if let Some(b) = best {
                (b, false)
            } else {
                return Err(PipelineError::RetriesExhausted {
                    attempts: retries + 1,
                    last: last_device_err.expect("exhausted retries imply a device error"),
                });
            }
        } else {
            (
                best.expect("a successful device run yields at least one read"),
                false,
            )
        };

        Ok(QuantumMqoOutcome {
            best,
            trace,
            device_time_us: offset_us,
            reads,
            repaired_reads,
            broken_chain_reads,
            qubits_used,
            faults,
            retries,
            reembeds,
            fallback,
            chain_breaks,
            integrity: RepairStats {
                verified_clean: reads - repaired_reads,
                repaired: repaired_reads,
                rejected: 0,
            },
            repair_descent_moves: descent_moves,
        })
    }

    /// Iterated hill climbing used when the device never yields samples:
    /// climbs from the best repaired device sample when one exists (first
    /// plan of every query otherwise), then from seeded random restarts.
    fn fallback_climb(
        &self,
        problem: &MqoProblem,
        start: Option<Selection>,
        seed: u64,
    ) -> (Selection, f64) {
        let r = self.resilience;
        let deadline = Instant::now() + r.fallback_budget;
        let start = start.unwrap_or_else(|| {
            Selection::new(
                problem
                    .queries()
                    .map(|q| {
                        problem
                            .plans_of(q)
                            .next()
                            .expect("every query has at least one plan")
                    })
                    .collect(),
            )
        });
        let (mut best_sel, mut best_cost) = HillClimbing::climb(problem, start, deadline);
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, STREAM_RETRY, u64::MAX, 0));
        for _ in 0..r.fallback_restarts {
            if Instant::now() >= deadline {
                break;
            }
            let candidate = Selection::new(
                problem
                    .queries()
                    .map(|q| {
                        let k = rng.gen_range(0..problem.num_plans_of(q));
                        problem.plans_of(q).nth(k).expect("plan index in range")
                    })
                    .collect(),
            );
            let (sel, cost) = HillClimbing::climb(problem, candidate, deadline);
            if cost < best_cost {
                best_sel = sel;
                best_cost = cost;
            }
        }
        (best_sel, best_cost)
    }

    /// Solves a small problem by embedding it as one global TRIAD clique
    /// (works for any savings structure, up to `4·min(rows, cols)` plans).
    pub fn solve(
        &self,
        problem: &MqoProblem,
        seed: u64,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        let embedding = triad::triad(&self.graph, 0, 0, problem.num_plans())?;
        self.solve_with_embedding(problem, embedding, seed)
    }

    /// Prepares the reusable half of a solve: the minor embedding of the
    /// problem's interaction *structure*, independent of weights and of the
    /// per-request seed.
    ///
    /// The embedding is computed deterministically from the structure hash
    /// of the logical QUBO (TRIAD origin scan first, heuristic routing as
    /// the fallback), so two structurally identical problems always prepare
    /// the same embedding. A service layer can therefore cache the returned
    /// embedding — keyed by
    /// `(logical QUBO structure hash, graph fingerprint)` — and feed it back
    /// through [`QuantumMqoSolver::solve_with_embedding`], which only
    /// re-derives the weights (the cheap, per-request part of physical
    /// mapping): a cache hit is bit-identical to a cold solve.
    pub fn prepare_embedding(&self, problem: &MqoProblem) -> Result<Embedding, PipelineError> {
        let logical = LogicalMapping::new(problem, self.epsilon);
        let edges: Vec<_> = logical
            .qubo()
            .quadratic()
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        let embedding = mqo_chimera::embedding::embed_structure(
            &self.graph,
            logical.qubo().num_vars(),
            &edges,
            logical.qubo().structure_hash(),
            16,
        )?;
        Ok(embedding)
    }

    /// Solves using the heuristic sparse minor embedder instead of a TRIAD
    /// clique: only the instance's *actual* interaction edges are routed, so
    /// sparse problems far beyond the clique capacity still fit on the chip
    /// (the "new mapping algorithms" direction of the paper's Section 7).
    pub fn solve_sparse(
        &self,
        problem: &MqoProblem,
        seed: u64,
        tries: usize,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        let logical = LogicalMapping::new(problem, self.epsilon);
        let edges: Vec<_> = logical
            .qubo()
            .quadratic()
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xE3BE);
        let embedding = mqo_chimera::embedding::heuristic::find_embedding(
            logical.qubo().num_vars(),
            &edges,
            &self.graph,
            &mut rng,
            tries,
        )?;
        self.solve_with_embedding(problem, embedding, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_annealer::device::DeviceConfig;
    use mqo_annealer::faults::FaultConfig;
    use mqo_annealer::sa::SimulatedAnnealingSampler;

    fn paper_example() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    fn solver() -> QuantumMqoSolver<SimulatedAnnealingSampler> {
        solver_with_faults(FaultConfig::NONE)
    }

    fn solver_with_faults(faults: FaultConfig) -> QuantumMqoSolver<SimulatedAnnealingSampler> {
        QuantumMqoSolver::new(
            ChimeraGraph::new(2, 2),
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 50,
                    num_gauges: 5,
                    faults,
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            ),
        )
    }

    #[test]
    fn algorithm_1_solves_the_paper_example() {
        let problem = paper_example();
        let out = solver().solve(&problem, 11).unwrap();
        let (selection, cost) = out.best;
        assert_eq!(cost, 2.0);
        assert_eq!(problem.selection_cost(&selection), 2.0);
        assert_eq!(out.reads, 50);
        assert!(out.qubits_used >= problem.num_plans());
        // A clean run leaves the resilience machinery untouched.
        assert!(out.faults.is_empty());
        assert_eq!(out.retries, 0);
        assert_eq!(out.reembeds, 0);
        assert!(!out.fallback);
        assert_eq!(out.chain_breaks.reads, 50);
        assert_eq!(out.chain_breaks.num_chains(), problem.num_plans());
    }

    #[test]
    fn prepared_embeddings_are_structure_deterministic_and_reusable() {
        let problem = paper_example();
        let s = solver();
        let e1 = s.prepare_embedding(&problem).unwrap();
        assert_eq!(s.prepare_embedding(&problem).unwrap(), e1);
        // Same structure with different weights prepares the same embedding.
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[7.0, 1.0]);
        let q2 = b.add_query(&[2.0, 9.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 1.0).unwrap();
        let other = b.build().unwrap();
        assert_eq!(s.prepare_embedding(&other).unwrap(), e1);
        // Feeding the prepared embedding back is bit-identical to solve().
        let cold = s.solve(&problem, 11).unwrap();
        let warm = s.solve_with_embedding(&problem, e1, 11).unwrap();
        assert_eq!(cold.best, warm.best);
        assert_eq!(cold.trace.points(), warm.trace.points());
        assert_eq!(cold.reads, warm.reads);
    }

    #[test]
    fn trace_uses_device_time_quanta() {
        let problem = paper_example();
        let out = solver().solve(&problem, 3).unwrap();
        let first = out.trace.points().first().unwrap();
        // First read completes after exactly one anneal+readout cycle.
        assert_eq!(first.elapsed, Duration::from_secs_f64(376e-6));
    }

    #[test]
    fn resilience_knobs_do_not_disturb_clean_runs() {
        let problem = paper_example();
        let a = solver().solve(&problem, 11).unwrap();
        let generous = ResilienceConfig {
            max_retries: 9,
            max_reembeds: 7,
            retry_backoff_us: 1.0,
            ..ResilienceConfig::default()
        };
        let b = solver()
            .with_resilience(generous)
            .solve(&problem, 11)
            .unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.trace.points(), b.trace.points());
        assert_eq!(a.reads, b.reads);
    }

    #[test]
    fn rejected_programmings_retry_then_fall_back_classically() {
        let problem = paper_example();
        let s = solver_with_faults(FaultConfig {
            programming_reject_rate: 1.0,
            ..FaultConfig::NONE
        });
        let out = s.solve(&problem, 11).unwrap();
        assert!(out.fallback);
        assert_eq!(out.retries, s.resilience.max_retries);
        assert_eq!(out.reads, 0);
        assert!(out.faults.programming_rejects > 0);
        // The tiny example climbs straight to its optimum.
        assert_eq!(out.best.1, 2.0);
        assert!(problem.validate_selection(&out.best.0).is_ok());
        assert!(!out.trace.points().is_empty());
    }

    #[test]
    fn exhausted_retries_without_fallback_are_a_typed_error() {
        let problem = paper_example();
        let s = solver_with_faults(FaultConfig {
            programming_reject_rate: 1.0,
            ..FaultConfig::NONE
        })
        .with_resilience(ResilienceConfig {
            classical_fallback: false,
            max_retries: 2,
            ..ResilienceConfig::default()
        });
        let err = s.solve(&problem, 11).unwrap_err();
        match err {
            PipelineError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(last, DeviceError::ProgrammingFailed { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn qubit_dropout_triggers_a_reembedding_round() {
        let problem = paper_example();
        let s = QuantumMqoSolver::new(
            // 3×3 leaves room to re-embed a K4 after a cell dies.
            ChimeraGraph::new(3, 3),
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 20,
                    num_gauges: 2,
                    faults: FaultConfig {
                        qubit_dropout_rate: 1.0,
                        ..FaultConfig::NONE
                    },
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            ),
        );
        let out = s.solve(&problem, 4).unwrap();
        assert_eq!(out.reembeds, 1, "certain dropout must force a re-embed");
        assert_eq!(out.reads, 40, "both runs' reads accumulate");
        assert!(!out.faults.dropped_qubits.is_empty());
        assert!(!out.fallback);
        assert!(problem.validate_selection(&out.best.0).is_ok());
        // Trace stays monotone in simulated time across the two runs.
        let pts = out.trace.points();
        assert!(pts.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
    }

    #[test]
    fn solve_sparse_handles_instances_beyond_the_clique_capacity() {
        // 12 queries × 2 plans = 24 vars: a 3×3 graph caps TRIAD at K12,
        // but a chain-structured savings graph routes fine (the greedy
        // embedder needs head-room; it does no chain ripping).
        let mut b = MqoProblem::builder();
        let mut prev = None;
        for i in 0..12 {
            let q = b.add_query(&[2.0 + (i % 2) as f64, 3.0]);
            let plans = b.plans_of(q);
            if let Some(p) = prev {
                b.add_saving(p, plans[1], 2.0).unwrap();
            }
            prev = Some(plans[1]);
        }
        let problem = b.build().unwrap();
        let s = QuantumMqoSolver::new(
            ChimeraGraph::new(3, 3),
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 50,
                    num_gauges: 5,
                    ..DeviceConfig::default()
                },
                SimulatedAnnealingSampler::default(),
            ),
        );
        assert!(s.solve(&problem, 0).is_err(), "clique embedding must fail");
        let out = s.solve_sparse(&problem, 3, 16).expect("sparse embeds");
        assert!(problem.validate_selection(&out.best.0).is_ok());
        let (_, optimum) = problem.brute_force_optimum();
        assert!(out.best.1 <= optimum + 2.0 + 1e-9);
    }

    #[test]
    fn problems_too_large_for_the_graph_are_rejected() {
        // 2×2 cells host at most K8 as one TRIAD.
        let mut b = MqoProblem::builder();
        for _ in 0..5 {
            b.add_query(&[1.0, 2.0]);
        }
        let problem = b.build().unwrap();
        let err = solver().solve(&problem, 0).unwrap_err();
        assert!(matches!(err, PipelineError::Embedding(_)));
    }
}
