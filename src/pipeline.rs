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
//! A solve is one device run: one physical mapping, one `device.run`, then
//! every read is unembedded, decoded and, when it breaks one-plan-per-query,
//! repaired ([`ResilienceConfig`]). The device's only defects are the
//! graph's permanently broken qubits, which the embedding avoids (DESIGN.md
//! §7).

use mqo_annealer::device::{DeviceError, QuantumAnnealer};
use mqo_annealer::sampler::{ChainBreakStats, Sampler};
use mqo_chimera::embedding::{embed_structure, triad, Embedding, EmbeddingError};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::packing::{self, Placer};
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::ids::QueryId;
use mqo_core::integrity::RepairStats;
use mqo_core::logical::LogicalMapping;
use mqo_core::problem::MqoProblem;
use mqo_core::qubo::Qubo;
use mqo_core::solution::Selection;
use mqo_core::trace::Trace;
use mqo_heuristics::HillClimbing;
use std::time::Duration;

/// Attempts of the heuristic embedder ([`QuantumMqoSolver::embed_heuristic`]).
pub const EMBED_TRIES: usize = 16;

/// Everything that can go wrong between an MQO instance and annealer reads.
#[derive(Debug)]
pub enum PipelineError {
    /// The problem could not be embedded on the device graph.
    Embedding(EmbeddingError),
    /// The physical formula could not be programmed or run.
    Device(DeviceError),
    /// A decomposed solve met a query with more plans than one block can
    /// hold, so no block embedding can represent it.
    QueryExceedsBlock {
        /// The offending query.
        query: QueryId,
        /// Its number of alternative plans.
        plans: usize,
        /// Plans per block on this device (and configuration).
        block_plans: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Embedding(e) => write!(f, "embedding failed: {e}"),
            PipelineError::Device(e) => write!(f, "device run failed: {e}"),
            PipelineError::QueryExceedsBlock {
                query,
                plans,
                block_plans,
            } => write!(
                f,
                "query {query} has {plans} plans but a block holds at most {block_plans}"
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

/// Read-repair policy of [`QuantumMqoSolver`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct ResilienceConfig {
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
    /// time* (376 µs per read by default).
    pub trace: Trace,
    /// Simulated device time of the whole solve, microseconds: every read
    /// of the run (376 µs each by default). Unlike the trace's last point,
    /// which marks the best read, this covers the reads after it too.
    pub device_time_us: f64,
    /// Reads performed.
    pub reads: usize,
    /// Reads whose decoded assignment violated one-plan-per-query and
    /// needed repair.
    pub repaired_reads: usize,
    /// Reads containing at least one broken chain.
    pub broken_chain_reads: usize,
    /// Physical qubits consumed by the embedding.
    pub qubits_used: usize,
    /// Per-chain break statistics of the run.
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
    /// Read-repair policy.
    pub resilience: ResilienceConfig,
}

impl<S: Sampler> QuantumMqoSolver<S> {
    /// Creates a solver with the paper's `ε = 0.25` and the default
    /// read-repair policy.
    pub fn new(graph: ChimeraGraph, device: QuantumAnnealer<S>) -> Self {
        QuantumMqoSolver {
            graph,
            device,
            epsilon: 0.25,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Solves using an explicit embedding (e.g. the clustered layout the
    /// workload generator produced). `embedding` must assign chains to
    /// exactly the problem's plans, in plan-id order.
    ///
    /// The device runs once; an embedding that does not program, or a
    /// degenerate device configuration, is a typed error.
    pub fn solve_with_embedding(
        &self,
        problem: &MqoProblem,
        embedding: Embedding,
        seed: u64,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        let logical = LogicalMapping::new(problem, self.epsilon);
        self.solve_with_mapping(problem, &logical, embedding, seed)
    }

    /// [`QuantumMqoSolver::solve_with_embedding`] with the problem's
    /// logical mapping already built, for callers that built it to choose
    /// the embedding. `logical` must be `problem`'s mapping at this
    /// solver's `epsilon`.
    pub fn solve_with_mapping(
        &self,
        problem: &MqoProblem,
        logical: &LogicalMapping,
        embedding: Embedding,
        seed: u64,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        debug_assert_eq!(logical.epsilon().to_bits(), self.epsilon.to_bits());
        let physical = PhysicalMapping::new(logical.qubo(), embedding, &self.graph, self.epsilon)?;
        let samples = self.device.run(&physical, &self.graph, seed)?;

        let mut trace = Trace::new();
        let mut best: Option<(Selection, f64)> = None;
        let mut repaired_reads = 0usize;
        let mut broken_chain_reads = 0usize;
        let mut descent_moves = 0usize;
        for read in samples.reads() {
            let unembedded = physical.unembed(&read.assignment);
            if unembedded.broken_chains > 0 {
                broken_chain_reads += 1;
            }
            let (selection, repaired) = logical.decode_with_repair(problem, &unembedded.logical);
            let (selection, cost) = if repaired {
                repaired_reads += 1;
                // Polish the repaired sample with a move-count-bounded
                // descent (deterministic: pure function of problem +
                // selection).
                let (sel, cost, moves) = HillClimbing::descend_bounded(
                    problem,
                    selection,
                    self.resilience.repair_descent_moves,
                );
                descent_moves += moves;
                (sel, cost)
            } else {
                let cost = problem.selection_cost(&selection);
                (selection, cost)
            };
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                trace.record(Duration::from_secs_f64(read.elapsed_us * 1e-6), cost);
                best = Some((selection, cost));
            }
        }

        let reads = samples.len();
        Ok(QuantumMqoOutcome {
            best: best.expect("a device run yields at least one read"),
            trace,
            device_time_us: samples.reads().last().map_or(0.0, |r| r.elapsed_us),
            reads,
            repaired_reads,
            broken_chain_reads,
            qubits_used: physical.num_physical_vars(),
            chain_breaks: samples.chain_break_stats(&physical.dense_chains()),
            integrity: RepairStats {
                verified_clean: reads - repaired_reads,
                repaired: repaired_reads,
                rejected: 0,
            },
            repair_descent_moves: descent_moves,
        })
    }

    /// Solves by the one annealer embedding policy, the one the serving
    /// engine runs: the TRIAD clique on the first cell block whose qubits
    /// all work ([`QuantumMqoSolver::place_clique`]), otherwise the
    /// structure-seeded heuristic ([`QuantumMqoSolver::embed_heuristic`]).
    ///
    /// The clique goes to the first working block in row-major order
    /// ([`Placer`]), so a defect near the top-left corner does not reject
    /// an instance that fits elsewhere. An instance no block hosts embeds
    /// only the interaction edges it has, so sparse instances beyond the
    /// clique bound still fit.
    pub fn solve(
        &self,
        problem: &MqoProblem,
        seed: u64,
    ) -> Result<QuantumMqoOutcome, PipelineError> {
        let logical = LogicalMapping::new(problem, self.epsilon);
        let embedding = match self.place_clique(problem.num_plans()) {
            Some(clique) => clique,
            None => self.embed_heuristic(logical.qubo())?,
        };
        self.solve_with_mapping(problem, &logical, embedding, seed)
    }

    /// The TRIAD `K_n` on the first cell block whose qubits all work, or
    /// `None` when no block hosts it. A clique wider than the graph's TRIAD
    /// bound ([`triad::max_clique`]) is declined before anything is built,
    /// so an over-capacity request costs no embedding.
    pub fn place_clique(&self, n: usize) -> Option<Embedding> {
        if n > triad::max_clique(&self.graph) {
            return None;
        }
        Placer::new(&self.graph)
            .place(&packing::canonical_embedding(n), packing::footprint_side(n))
            .map(|p| p.embedding)
    }

    /// Largest clique [`QuantumMqoSolver::place_clique`] can place on the
    /// graph (0 when not even one qubit works). Placement is monotone in
    /// the clique size — a smaller TRIAD's chains are sub-chains of a
    /// larger one's at the same origin — so every smaller clique places too.
    pub fn max_clique(&self) -> usize {
        (1..=triad::max_clique(&self.graph))
            .rev()
            .find(|&n| self.place_clique(n).is_some())
            .unwrap_or(0)
    }

    /// The heuristic embedding of `qubo`'s interaction edges, for instances
    /// no TRIAD block hosts: [`embed_structure`] seeded by
    /// [`Qubo::structure_hash`] with [`EMBED_TRIES`] attempts. The result
    /// depends only on the structure and the graph, so an embedding cached
    /// under that hash is the one a fresh search would find.
    pub fn embed_heuristic(&self, qubo: &Qubo) -> Result<Embedding, EmbeddingError> {
        let edges: Vec<_> = qubo.quadratic().iter().map(|&(a, b, _)| (a, b)).collect();
        embed_structure(
            &self.graph,
            qubo.num_vars(),
            &edges,
            qubo.structure_hash(),
            EMBED_TRIES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_annealer::device::DeviceConfig;
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
        QuantumMqoSolver::new(
            ChimeraGraph::new(2, 2),
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 50,
                    num_gauges: 5,
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
        assert_eq!(out.device_time_us, 50.0 * 376.0);
        assert_eq!(out.chain_breaks.reads, 50);
        assert_eq!(out.chain_breaks.num_chains(), problem.num_plans());
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
    fn solve_embeds_instances_beyond_the_clique_capacity() {
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
        assert!(s.place_clique(24).is_none(), "no TRIAD block hosts K24");
        let out = s.solve(&problem, 3).expect("the heuristic embeds");
        assert!(problem.validate_selection(&out.best.0).is_ok());
        let (_, optimum) = problem.brute_force_optimum();
        assert!(out.best.1 <= optimum + 2.0 + 1e-9);
    }

    #[test]
    fn problems_too_large_for_the_graph_are_rejected() {
        // 2×2 cells have 32 qubits; 17 two-plan queries need 34 chains.
        let mut b = MqoProblem::builder();
        for _ in 0..17 {
            b.add_query(&[1.0, 2.0]);
        }
        let problem = b.build().unwrap();
        let err = solver().solve(&problem, 0).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Embedding(EmbeddingError::InsufficientCapacity {
                    requested: 34,
                    available: 32,
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn cliques_over_the_triad_bound_are_declined_before_building() {
        // 12×12 cells host at most K48. A 2 000-plan request would need a
        // 500×500-cell canonical TRIAD; it is declined without one, and
        // the heuristic finds more plans than the graph's 1 152 qubits.
        let s = QuantumMqoSolver::new(ChimeraGraph::new(12, 12), solver().device);
        let cap = triad::max_clique(&s.graph);
        assert_eq!(cap, 48);
        assert!(s.place_clique(cap).is_some());
        assert!(s.place_clique(cap + 1).is_none());
        let mut b = MqoProblem::builder();
        for _ in 0..1_000 {
            b.add_query(&[1.0, 2.0]);
        }
        let problem = b.build().unwrap();
        assert_eq!(problem.num_plans(), 2_000);
        let err = s.solve(&problem, 0).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Embedding(EmbeddingError::InsufficientCapacity {
                    requested: 2_000,
                    available: 1_152,
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn a_dead_qubit_at_the_origin_moves_the_clique_to_a_working_cell() {
        // The paper example's K4 TRIAD fills one cell; chain 0 starts at
        // L0 of its cell. With that qubit dead in cell (0, 0), the clique
        // must move to cell (0, 1) instead of failing.
        let pristine = ChimeraGraph::new(2, 2);
        let dead = pristine.qubit(0, 0, mqo_chimera::graph::Side::Vertical, 0);
        let s = QuantumMqoSolver::new(pristine.with_broken(&[dead]), solver().device);
        assert_eq!(s.max_clique(), 4, "only single cells are clean");
        let problem = paper_example();
        let out = s.solve(&problem, 11).expect("three clean cells host K4");
        assert_eq!(out.best.1, 2.0);
        assert!(problem.validate_selection(&out.best.0).is_ok());
    }
}
