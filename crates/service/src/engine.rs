//! The solve engine: routing, the embedding cache, and the three backends
//! behind one synchronous `solve` call. The queue's workers share one
//! engine; everything inside is `Sync`.
//!
//! Robustness model (DESIGN.md §9): the request walks a stateless
//! preference chain — annealer → MILP → hill climbing — and every backend
//! attempt runs inside its own `catch_unwind`. A failed or panicking attempt
//! adds a `[degraded: <backend>: …]` note and the next link runs; only when
//! every link fails does the request resolve to a typed
//! `503 backend_unavailable`. No state carries from one request to the
//! next, so an answer depends on `(problem, seed)` alone. Tests prove these
//! paths through the one [`FaultSeam`]; served engines run the no-op
//! [`NoFaults`].

use crate::api::{Backend, Reject, SolveRequest, SolveResponse};
use crate::cache::{CacheKey, CacheStats, EmbeddingCache};
use crate::metrics::Metrics;
use crate::queue::panic_message;
use crate::router::{route, RouteDecision, RouterConfig};
use mqo::pipeline::{PipelineError, QuantumMqoOutcome, QuantumMqoSolver, ResilienceConfig};
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_chimera::embedding::{Embedding, EmbeddingError};
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::ids::PlanId;
use mqo_core::integrity::{self, DEFAULT_TOLERANCE};
use mqo_core::logical::{LogicalMapping, DEFAULT_EPSILON};
use mqo_core::qubo::Qubo;
use mqo_core::solution::Selection;
use mqo_heuristics::HillClimbing;
use mqo_milp::bb_mqo::{self, MqoBbConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LRU bound of the embedding cache, entries.
const CACHE_CAPACITY: usize = 128;

/// Engine configuration. [`EngineConfig::new`] applies service defaults
/// sized for interactive latency (100 reads, not the paper's offline 1000)
/// and runs each solve's reads on the one queue worker that owns it
/// (`device.threads = 1`): the service parallelises across requests, one
/// worker per core, not within one (DESIGN.md §6).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Device topology.
    pub graph: ChimeraGraph,
    /// Device protocol defaults; per-request `reads`/`gauges` override them.
    pub device: DeviceConfig,
    /// Read-repair policy of the pipeline; its descent bound also bounds
    /// the integrity gate's repair.
    pub resilience: ResilienceConfig,
    /// Weight slack ε of both mapping stages (paper: 0.25).
    pub epsilon: f64,
    /// Routing policy.
    pub router: RouterConfig,
    /// Wall-clock budget of the classical backends.
    pub classical_budget: Duration,
    /// Hard cap on per-request annealing reads.
    pub max_reads: usize,
    /// Relative tolerance of the gate's cost comparison.
    pub integrity_tolerance: f64,
}

impl EngineConfig {
    /// Service defaults on the given topology.
    pub fn new(graph: ChimeraGraph) -> Self {
        EngineConfig {
            graph,
            device: DeviceConfig {
                num_reads: 100,
                num_gauges: 10,
                threads: 1,
                ..DeviceConfig::default()
            },
            resilience: ResilienceConfig::default(),
            epsilon: DEFAULT_EPSILON,
            router: RouterConfig::default(),
            classical_budget: Duration::from_millis(250),
            max_reads: 10_000,
            integrity_tolerance: DEFAULT_TOLERANCE,
        }
    }
}

/// The engine's one fault seam: three points where a test can make a solve
/// fail the way a bug would, to prove the recovery paths. Production
/// engines run [`NoFaults`]; a test passes its injector to
/// [`SolveEngine::with_faults`]. No flag, environment variable or config
/// field reaches it.
pub trait FaultSeam: Send + Sync + std::fmt::Debug {
    /// Solve entry, outside the engine's own `catch_unwind`s: a panic here
    /// reaches the queue worker's `catch_unwind`, which answers the request
    /// `500 internal_error`.
    fn on_solve(&self, _req: &SolveRequest) {}
    /// Start of one backend attempt, inside its `catch_unwind`: a panic
    /// here fails that attempt like any backend failure, and the next link
    /// of the chain runs.
    fn on_attempt(&self, _req: &SolveRequest, _backend: Backend) {}
    /// A successful answer just before the integrity gate sees it.
    fn on_answer(&self, _req: &SolveRequest, _response: &mut SolveResponse) {}
}

/// The production [`FaultSeam`]: every hook does nothing.
#[derive(Debug)]
pub struct NoFaults;

impl FaultSeam for NoFaults {}

/// The shared, thread-safe solve engine.
#[derive(Debug)]
pub struct SolveEngine {
    config: EngineConfig,
    graph_fingerprint: u64,
    cache: EmbeddingCache,
    metrics: Arc<Metrics>,
    faults: Arc<dyn FaultSeam>,
}

impl SolveEngine {
    /// Builds the engine, fingerprinting the graph once.
    pub fn new(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        Self::with_faults(config, metrics, Arc::new(NoFaults))
    }

    /// [`SolveEngine::new`] with `faults` behind the fault seam.
    pub fn with_faults(
        config: EngineConfig,
        metrics: Arc<Metrics>,
        faults: Arc<dyn FaultSeam>,
    ) -> Self {
        let graph_fingerprint = config.graph.fingerprint();
        let cache = EmbeddingCache::new(CACHE_CAPACITY);
        SolveEngine {
            config,
            graph_fingerprint,
            cache,
            metrics,
            faults,
        }
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Embedding-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Solves one admitted request synchronously. Every failure path is a
    /// typed [`Reject`]; a panic outside the backend attempts escapes to
    /// the queue worker, whose `catch_unwind` isolates it into a
    /// `500 internal_error`.
    pub fn solve(&self, req: &SolveRequest) -> Result<SolveResponse, Reject> {
        let start = Instant::now();
        self.faults.on_solve(req);
        let decision = match req.backend {
            Some(backend) => RouteDecision {
                backend,
                reason: "pinned by request".to_string(),
            },
            None => route(&req.problem, &self.config.graph, &self.config.router),
        };
        // The fall-through chain behind the routed first choice. A pinned
        // request gets exactly its backend: pinning is a debugging/bench
        // contract ("this answer came from X"), so degrading it silently
        // would lie to the client.
        let candidates: Vec<Backend> = match (req.backend, decision.backend) {
            (Some(b), _) => vec![b],
            (None, Backend::Annealer) => {
                let mut chain = vec![Backend::Annealer];
                if req.problem.num_queries() <= self.config.router.milp_max_queries {
                    chain.push(Backend::Milp);
                }
                chain.push(Backend::HillClimbing);
                chain
            }
            (None, Backend::Milp) => vec![Backend::Milp, Backend::HillClimbing],
            (None, Backend::HillClimbing) => vec![Backend::HillClimbing, Backend::Milp],
        };

        let mut notes: Vec<String> = Vec::new();
        let mut any_unavailable = false;
        for &backend in &candidates {
            match self.attempt(backend, req) {
                Ok(mut response) => {
                    response.route_reason = if notes.is_empty() {
                        decision.reason
                    } else {
                        format!("{} [degraded: {}]", decision.reason, notes.join("; "))
                    };
                    self.faults.on_answer(req, &mut response);
                    self.gate(req, &mut response)?;
                    self.finish(&mut response, start);
                    return Ok(response);
                }
                Err(failure) => {
                    // An embedding failure (e.g. a dense savings graph on a
                    // degraded chip) is a property of the instance, not a
                    // backend failure: alone it makes the request
                    // `Unsolvable`, not `503`.
                    if !matches!(failure, AttemptFailure::Embedding(_)) {
                        Metrics::inc(&self.metrics.backend_attempt_failures);
                        any_unavailable = true;
                    }
                    notes.push(format!("{backend}: {failure}"));
                }
            }
        }

        let detail = notes.join("; ");
        if any_unavailable {
            Metrics::inc(&self.metrics.rejected_unavailable);
            Err(Reject::BackendUnavailable { detail })
        } else {
            Metrics::inc(&self.metrics.rejected_unsolvable);
            Err(Reject::Unsolvable { detail })
        }
    }

    /// One attempt of one backend, inside its own `catch_unwind` so a
    /// panicking backend is a failed attempt, not a dead worker.
    fn attempt(
        &self,
        backend: Backend,
        req: &SolveRequest,
    ) -> Result<SolveResponse, AttemptFailure> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.faults.on_attempt(req, backend);
            match backend {
                Backend::Annealer => self.solve_annealer(req),
                Backend::Milp => Ok(self.solve_milp(req)),
                Backend::HillClimbing => Ok(self.solve_climbing(req)),
            }
        }));
        match outcome {
            Ok(Ok(response)) => Ok(response),
            Ok(Err(AnnealerFailure::Embedding(e))) => Err(AttemptFailure::Embedding(e)),
            Ok(Err(AnnealerFailure::Fatal(detail))) => Err(AttemptFailure::Fatal(detail)),
            Err(payload) => Err(AttemptFailure::Panicked(panic_message(payload.as_ref()))),
        }
    }

    /// The answer-integrity gate (DESIGN.md §11): re-validates every
    /// successful answer — structural feasibility plus the reported cost
    /// against a from-scratch recomputation — before it is served. A clean
    /// answer passes untouched (the gate is observably transparent); a
    /// corrupt one is deterministically repaired (min-delta settle plus a
    /// bounded descent) and re-verified, or, when repair cannot fix it,
    /// withheld as a typed `500 integrity_violation`. Never serves an
    /// answer it could not verify.
    fn gate(&self, req: &SolveRequest, response: &mut SolveResponse) -> Result<(), Reject> {
        let candidate = Selection::new(response.selection.iter().map(|&p| PlanId(p)).collect());
        let violation = match integrity::verify_selection(
            &req.problem,
            &candidate,
            response.cost,
            self.config.integrity_tolerance,
        ) {
            Ok(_) => return Ok(()),
            Err(e) => e,
        };
        Metrics::inc(&self.metrics.integrity_violations);
        if let Ok(repaired) = integrity::repair_selection(&req.problem, &candidate) {
            let (sel, cost, _) = HillClimbing::descend_bounded(
                &req.problem,
                repaired.selection,
                self.config.resilience.repair_descent_moves,
            );
            if integrity::verify_selection(
                &req.problem,
                &sel,
                cost,
                self.config.integrity_tolerance,
            )
            .is_ok()
            {
                Metrics::inc(&self.metrics.integrity_repairs);
                response.selection = sel.plans().iter().map(|p| p.0).collect();
                response.cost = cost;
                response.route_reason = format!(
                    "{} [integrity: repaired ({violation})]",
                    response.route_reason
                );
                return Ok(());
            }
        }
        Metrics::inc(&self.metrics.integrity_rejects);
        Err(Reject::IntegrityViolation {
            detail: violation.to_string(),
        })
    }

    /// Success bookkeeping shared by every backend: per-backend counters,
    /// cache-counter mirroring, and the wall clock.
    fn finish(&self, response: &mut SolveResponse, start: Instant) {
        match response.backend {
            Backend::Annealer => Metrics::inc(&self.metrics.backend_annealer),
            Backend::Milp => Metrics::inc(&self.metrics.backend_milp),
            Backend::HillClimbing => Metrics::inc(&self.metrics.backend_hill_climbing),
        }
        // Mirror cache counters into the service metrics (single source of
        // truth stays the cache; /metrics reports both consistently).
        let cs = self.cache.stats();
        self.metrics
            .cache_hits
            .store(cs.hits, std::sync::atomic::Ordering::Relaxed);
        self.metrics
            .cache_misses
            .store(cs.misses, std::sync::atomic::Ordering::Relaxed);
        self.metrics
            .cache_evictions
            .store(cs.evictions, std::sync::atomic::Ordering::Relaxed);
        Metrics::inc(&self.metrics.solved_total);
        response.wall_us = start.elapsed().as_micros() as u64;
    }

    /// The embedding of an instance no TRIAD block hosts, through the
    /// cache. The key pairs the logical QUBO's structure hash with the
    /// device graph's fingerprint; a miss runs the pipeline's
    /// [`QuantumMqoSolver::embed_heuristic`], which is seeded by that
    /// structure hash, so a hit is bit-identical to a cold solve. The flag
    /// is `true` when the embedding came from the cache.
    fn heuristic_embedding(
        &self,
        solver: &QuantumMqoSolver<SimulatedAnnealingSampler>,
        qubo: &Qubo,
    ) -> Result<(Embedding, bool), EmbeddingError> {
        let key = CacheKey {
            structure: qubo.structure_hash(),
            graph: self.graph_fingerprint,
        };
        if let Some(e) = self.cache.get(key) {
            return Ok(((*e).clone(), true));
        }
        let e = solver.embed_heuristic(qubo)?;
        self.cache.insert(key, Arc::new(e.clone()));
        Ok((e, false))
    }

    /// The device protocol this request runs under: server defaults with
    /// the per-request overrides clamped to server caps.
    fn effective_device(&self, req: &SolveRequest) -> DeviceConfig {
        let mut device = self.config.device;
        if let Some(reads) = req.reads {
            device.num_reads = reads.clamp(1, self.config.max_reads);
        }
        if let Some(gauges) = req.gauges {
            device.num_gauges = gauges.clamp(1, device.num_reads);
        }
        device.num_gauges = device.num_gauges.min(device.num_reads);
        device
    }

    fn annealer_solver(&self, device: DeviceConfig) -> QuantumMqoSolver<SimulatedAnnealingSampler> {
        QuantumMqoSolver {
            graph: self.config.graph.clone(),
            device: QuantumAnnealer::new(device, SimulatedAnnealingSampler::default()),
            epsilon: self.config.epsilon,
            resilience: self.config.resilience,
        }
    }

    /// Read accounting + response assembly of an annealer answer.
    fn annealer_response(&self, outcome: QuantumMqoOutcome, cache_hit: bool) -> SolveResponse {
        Metrics::add(
            &self.metrics.reads_verified_clean,
            outcome.integrity.verified_clean as u64,
        );
        Metrics::add(
            &self.metrics.reads_repaired,
            outcome.integrity.repaired as u64,
        );
        Metrics::add(
            &self.metrics.reads_broken_chains,
            outcome.broken_chain_reads as u64,
        );
        Metrics::add(
            &self.metrics.chain_majority_repairs,
            outcome.chain_breaks.majority_repairs as u64,
        );
        Metrics::add(
            &self.metrics.chain_tie_breaks,
            outcome.chain_breaks.tie_breaks as u64,
        );
        let (selection, cost) = outcome.best;
        SolveResponse {
            selection: selection.plans().iter().map(|p| p.0).collect(),
            cost,
            backend: Backend::Annealer,
            route_reason: String::new(),
            cache_hit,
            reads: outcome.reads,
            qubits_used: outcome.qubits_used,
            device_time_us: outcome.device_time_us,
            wall_us: 0,
            queue_wait_us: 0,
        }
    }

    fn solve_annealer(&self, req: &SolveRequest) -> Result<SolveResponse, AnnealerFailure> {
        let solver = self.annealer_solver(self.effective_device(req));
        // `QuantumMqoSolver::solve`'s policy with the heuristic behind the
        // cache: TRIAD-placed instances never reach it. One logical mapping
        // serves the structure hash and the solve.
        let logical = LogicalMapping::new(&req.problem, solver.epsilon);
        let (embedding, cache_hit) = match solver.place_clique(req.problem.num_plans()) {
            Some(clique) => (clique, false),
            None => self
                .heuristic_embedding(&solver, logical.qubo())
                .map_err(AnnealerFailure::Embedding)?,
        };
        let outcome = solver
            .solve_with_mapping(&req.problem, &logical, embedding, req.seed)
            .map_err(|e| match e {
                PipelineError::Embedding(e) => AnnealerFailure::Embedding(e),
                other => AnnealerFailure::Fatal(other.to_string()),
            })?;
        Ok(self.annealer_response(outcome, cache_hit))
    }

    fn solve_milp(&self, req: &SolveRequest) -> SolveResponse {
        let outcome = bb_mqo::solve(
            &req.problem,
            &MqoBbConfig {
                deadline: Some(self.config.classical_budget),
                ..MqoBbConfig::default()
            },
        );
        let (selection, cost) = outcome.best;
        SolveResponse {
            selection: selection.plans().iter().map(|p| p.0).collect(),
            cost,
            backend: Backend::Milp,
            route_reason: String::new(),
            cache_hit: false,
            reads: 0,
            qubits_used: 0,
            device_time_us: 0.0,
            wall_us: 0,
            queue_wait_us: 0,
        }
    }

    fn solve_climbing(&self, req: &SolveRequest) -> SolveResponse {
        let problem = &req.problem;
        let deadline = Instant::now() + self.config.classical_budget;
        let first = Selection::new(
            problem
                .queries()
                .map(|q| {
                    problem
                        .plans_of(q)
                        .next()
                        .expect("every query has at least one plan")
                })
                .collect(),
        );
        let (mut best_sel, mut best_cost) = HillClimbing::climb(problem, first, deadline);
        let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
        for _ in 0..4 {
            if Instant::now() >= deadline {
                break;
            }
            let restart = Selection::new(
                problem
                    .queries()
                    .map(|q| {
                        let k = rng.gen_range(0..problem.num_plans_of(q));
                        problem.plans_of(q).nth(k).expect("plan index in range")
                    })
                    .collect(),
            );
            let (sel, cost) = HillClimbing::climb(problem, restart, deadline);
            if cost < best_cost {
                best_sel = sel;
                best_cost = cost;
            }
        }
        SolveResponse {
            selection: best_sel.plans().iter().map(|p| p.0).collect(),
            cost: best_cost,
            backend: Backend::HillClimbing,
            route_reason: String::new(),
            cache_hit: false,
            reads: 0,
            qubits_used: 0,
            device_time_us: 0.0,
            wall_us: 0,
            queue_wait_us: 0,
        }
    }
}

enum AnnealerFailure {
    Embedding(EmbeddingError),
    Fatal(String),
}

/// Why one backend attempt did not produce an answer.
enum AttemptFailure {
    /// The embedder could not place the instance (a property of the
    /// instance, not a backend failure).
    Embedding(EmbeddingError),
    /// The backend ran and failed fatally.
    Fatal(String),
    /// The backend panicked; caught by the per-attempt `catch_unwind`.
    Panicked(String),
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Embedding(e) => write!(f, "embedding failed ({e})"),
            AttemptFailure::Fatal(detail) => write!(f, "failed ({detail})"),
            AttemptFailure::Panicked(msg) => write!(f, "panicked ({msg})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        silence_injected_panics, FaultRates, Injected, SeededFaults, INJECTED_PANIC,
    };
    use mqo::pipeline::EMBED_TRIES;
    use mqo_core::problem::MqoProblem;

    fn paper_example() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    /// The 2×2-cell test engine: 50 reads in 5 gauges.
    fn test_config() -> EngineConfig {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        cfg
    }

    fn engine() -> SolveEngine {
        SolveEngine::new(test_config(), Arc::new(Metrics::default()))
    }

    #[test]
    fn annealer_path_matches_the_offline_pipeline() {
        let e = engine();
        let problem = paper_example();
        let req = SolveRequest::new(problem.clone(), 11);
        let r = e.solve(&req).unwrap();
        assert_eq!(r.backend, Backend::Annealer);
        assert!(!r.cache_hit, "first request is a miss");
        assert_eq!(r.cost, 2.0);
        // Identical to QuantumMqoSolver::solve with the same seed.
        let offline = QuantumMqoSolver::new(
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
        .solve(&problem, 11)
        .unwrap();
        let offline_sel: Vec<u32> = offline.best.0.plans().iter().map(|p| p.0).collect();
        assert_eq!(r.selection, offline_sel);
        assert_eq!(r.cost, offline.best.1);
        assert_eq!(r.reads, offline.reads);
    }

    #[test]
    fn device_time_covers_every_read_not_just_the_best() {
        // The optimum turns up well before the last read; the device still
        // ran all ten, at 376 µs each.
        let e = engine();
        let mut req = SolveRequest::new(paper_example(), 11);
        req.reads = Some(10);
        let r = e.solve(&req).unwrap();
        assert_eq!((r.backend, r.reads, r.cost), (Backend::Annealer, 10, 2.0));
        assert_eq!(r.device_time_us, 3760.0);
    }

    /// Five two-plan queries with chained savings: 10 variables, over the
    /// 2×2-cell TRIAD bound of 8, so the heuristic embeds them.
    fn heuristic_chain() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let mut prev = None;
        for _ in 0..5 {
            let q = b.add_query(&[2.0, 3.0]);
            let plans = b.plans_of(q);
            if let Some(p) = prev {
                b.add_saving(p, plans[0], 1.5).unwrap();
            }
            prev = Some(plans[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn second_identical_structure_is_a_cache_hit_with_identical_samples() {
        let e = engine();
        let req = SolveRequest::new(heuristic_chain(), 7);
        let cold = e.solve(&req).unwrap();
        let warm = e.solve(&req).unwrap();
        assert_eq!(cold.backend, Backend::Annealer);
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.selection, warm.selection);
        assert_eq!(cold.cost, warm.cost);
        assert_eq!(cold.reads, warm.reads);
        assert_eq!(cold.qubits_used, warm.qubits_used);
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn triad_placed_answers_never_touch_the_cache() {
        // The paper example fits one TRIAD block: it is placed like the
        // offline `solve` places it, every time, with no cache lookup.
        let e = engine();
        for _ in 0..3 {
            let r = e.solve(&SolveRequest::new(paper_example(), 7)).unwrap();
            assert_eq!(r.backend, Backend::Annealer);
            assert!(!r.cache_hit);
        }
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
    }

    #[test]
    fn over_capacity_requests_answer_classically() {
        // 5 queries × 2 plans = 10 plans: over the 1×1 clique (4) and the
        // clustered bound (4 two-plan queries per cell).
        let mut cfg = EngineConfig::new(ChimeraGraph::new(1, 1));
        cfg.classical_budget = Duration::from_millis(50);
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let mut b = MqoProblem::builder();
        for _ in 0..5 {
            b.add_query(&[3.0, 1.0]);
        }
        let problem = b.build().unwrap();
        let r = e.solve(&SolveRequest::new(problem.clone(), 0)).unwrap();
        assert_eq!(r.backend, Backend::Milp);
        // MILP inside its budget is exact here: all cheap plans.
        assert_eq!(r.cost, 5.0);
        assert!(problem
            .validate_selection(&Selection::new(
                r.selection
                    .iter()
                    .map(|&p| mqo_core::ids::PlanId(p))
                    .collect()
            ))
            .is_ok());
    }

    #[test]
    fn a_failed_embedding_search_is_reported_as_not_found() {
        // A 50×2 paper instance is within the clustered capacity of the
        // paper machine, so it routes to the annealer, but no embedder
        // places its 100 variables: the note names the failed search, not
        // the machine's capacity.
        use mqo_workload::paper::{self, PaperWorkloadConfig};
        use rand::SeedableRng;
        let graph = ChimeraGraph::dwave_2x();
        let cfg = PaperWorkloadConfig {
            max_queries: 50,
            ..PaperWorkloadConfig::paper_class(2)
        };
        let inst = paper::generate(&graph, &cfg, &mut ChaCha8Rng::seed_from_u64(50))
            .expect("the paper machine hosts 50 queries");
        assert_eq!(inst.problem.num_plans(), 100);
        let mut config = EngineConfig::new(graph);
        config.classical_budget = Duration::from_millis(50);
        let e = SolveEngine::new(config, Arc::new(Metrics::default()));
        let r = e.solve(&SolveRequest::new(inst.problem, 1)).unwrap();
        assert_ne!(r.backend, Backend::Annealer);
        let not_found = EmbeddingError::NotFound {
            variables: 100,
            tries: EMBED_TRIES,
        };
        assert!(
            r.route_reason
                .contains(&format!("annealer: embedding failed ({not_found})")),
            "{}",
            r.route_reason
        );
        assert!(
            !r.route_reason.contains("only supports"),
            "{}",
            r.route_reason
        );
        // No TRIAD block hosts K100, so none was built or cached: the
        // failed search leaves the cache empty.
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 0));
    }

    #[test]
    fn pinned_backend_overrides_the_router() {
        let e = engine();
        let mut req = SolveRequest::new(paper_example(), 3);
        req.backend = Some(Backend::HillClimbing);
        let r = e.solve(&req).unwrap();
        assert_eq!(r.backend, Backend::HillClimbing);
        assert_eq!(r.route_reason, "pinned by request");
        assert_eq!(r.cost, 2.0, "the tiny example climbs to its optimum");
    }

    #[test]
    fn per_request_read_overrides_are_clamped() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.max_reads = 60;
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let mut req = SolveRequest::new(paper_example(), 1);
        req.reads = Some(1_000_000);
        let r = e.solve(&req).unwrap();
        assert_eq!(r.reads, 60, "server cap applies");
    }

    /// Panics the annealer attempt of requests with seed `poison` only.
    #[derive(Debug)]
    struct PoisonSeed {
        poison: u64,
    }

    impl FaultSeam for PoisonSeed {
        fn on_attempt(&self, req: &SolveRequest, backend: Backend) {
            if req.seed == self.poison && backend == Backend::Annealer {
                panic!("{INJECTED_PANIC}: poison seed {}", req.seed);
            }
        }
    }

    #[test]
    fn a_failing_request_does_not_change_later_answers() {
        silence_injected_panics();
        let e = SolveEngine::with_faults(
            test_config(),
            Arc::new(Metrics::default()),
            Arc::new(PoisonSeed { poison: 13 }),
        );
        // Ten annealer failures in a row on one request: each one
        // degrades that request to MILP, and only that request.
        for _ in 0..10 {
            let r = e.solve(&SolveRequest::new(paper_example(), 13)).unwrap();
            assert_eq!(r.backend, Backend::Milp);
            assert_eq!(r.cost, 2.0, "the fallback still solves the instance");
            assert!(
                r.route_reason.contains(&format!(
                    "[degraded: annealer: panicked ({INJECTED_PANIC}: poison seed 13)]"
                )),
                "degradation is visible to the client: {}",
                r.route_reason
            );
        }
        assert_eq!(e.metrics().snapshot().backend_attempt_failures, 10);
        // An unrelated request is answered by the annealer exactly as a
        // fresh engine answers it.
        let strip = |mut r: SolveResponse| {
            r.wall_us = 0;
            r.queue_wait_us = 0;
            serde_json::to_string(&r).unwrap()
        };
        let after = e.solve(&SolveRequest::new(paper_example(), 5)).unwrap();
        assert_eq!(after.backend, Backend::Annealer);
        let fresh = engine()
            .solve(&SolveRequest::new(paper_example(), 5))
            .unwrap();
        assert_eq!(strip(after), strip(fresh));
    }

    /// An engine on [`test_config`] with `rates` behind its fault seam,
    /// plus the injector to read its counts.
    fn faulty_engine(rates: FaultRates) -> (SolveEngine, Arc<SeededFaults>) {
        let faults = SeededFaults::new(rates);
        let engine =
            SolveEngine::with_faults(test_config(), Arc::new(Metrics::default()), faults.clone());
        (engine, faults)
    }

    #[test]
    fn injected_backend_failures_fall_through_every_link_to_a_503() {
        silence_injected_panics();
        // Rate 1.0 fails every backend attempt: each request tries every
        // link of its chain and gets a typed 503.
        let (e, faults) = faulty_engine(FaultRates {
            seed: 41,
            backend_failure_rate: 1.0,
            ..FaultRates::default()
        });
        for seed in 0..10 {
            let err = e
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap_err();
            assert!(
                matches!(err, Reject::BackendUnavailable { .. }),
                "all-failing backends resolve to 503, got {err}"
            );
            assert_eq!(err.http_status(), 503);
        }
        let m = e.metrics().snapshot();
        // Annealer, MILP and hill climbing, ten times over.
        assert_eq!(faults.injected().backend_failures, 30);
        assert_eq!(
            m.backend_attempt_failures,
            faults.injected().backend_failures
        );
        assert_eq!(m.solved_total, 0);
    }

    #[test]
    fn pinned_requests_never_degrade_to_another_backend() {
        silence_injected_panics();
        let (e, _) = faulty_engine(FaultRates {
            seed: 1,
            backend_failure_rate: 1.0,
            ..FaultRates::default()
        });
        let mut req = SolveRequest::new(paper_example(), 2);
        req.backend = Some(Backend::Milp);
        let err = e.solve(&req).unwrap_err();
        // The pinned backend failed, so the request fails — it is never
        // silently answered by a different backend.
        assert!(matches!(err, Reject::BackendUnavailable { .. }), "{err}");
    }

    #[test]
    fn injected_worker_panic_escapes_solve_with_the_marker_message() {
        silence_injected_panics();
        let (e, faults) = faulty_engine(FaultRates {
            seed: 123,
            worker_panic_rate: 1.0,
            ..FaultRates::default()
        });
        let req = SolveRequest::new(paper_example(), 9);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.solve(&req)));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains(INJECTED_PANIC), "{msg}");
        assert_eq!(faults.injected().panics, 1);
    }

    #[test]
    fn corrupted_answers_are_caught_repaired_and_reconciled() {
        let (e, faults) = faulty_engine(FaultRates {
            seed: 21,
            corruption_rate: 1.0,
            ..FaultRates::default()
        });
        let problem = paper_example();
        for seed in 0..8 {
            let r = e
                .solve(&SolveRequest::new(problem.clone(), seed))
                .expect("every corruption is repairable");
            // The served answer is verified-feasible with a truthful cost.
            let sel = Selection::new(r.selection.iter().map(|&p| PlanId(p)).collect());
            assert!(problem.validate_selection(&sel).is_ok());
            assert_eq!(r.cost, problem.selection_cost(&sel));
            assert!(
                r.route_reason.contains("integrity: repaired"),
                "repair is visible to the client: {}",
                r.route_reason
            );
        }
        // Every injected corruption was flagged and repaired; none leaked.
        let m = e.metrics().snapshot();
        assert_eq!(faults.injected().corruptions, 8);
        assert_eq!(m.integrity_violations, 8);
        assert_eq!(m.integrity_repairs, 8);
        assert_eq!(m.integrity_rejects, 0);
        assert_eq!(m.solved_total, 8);
    }

    #[test]
    fn unrepairable_corruption_is_a_typed_500() {
        let (e, faults) = faulty_engine(FaultRates {
            seed: 21,
            corruption_rate: 1.0,
            unrepairable: true,
            ..FaultRates::default()
        });
        for seed in 0..4 {
            let err = e
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap_err();
            assert!(matches!(err, Reject::IntegrityViolation { .. }), "{err}");
            assert_eq!(err.http_status(), 500);
        }
        let m = e.metrics().snapshot();
        assert_eq!(faults.injected().corruptions, 4);
        assert_eq!(m.integrity_violations, 4);
        assert_eq!(m.integrity_rejects, 4);
        assert_eq!(m.integrity_repairs, 0);
        assert_eq!(m.solved_total, 0, "withheld answers are not solves");
    }

    #[test]
    fn clean_solves_pass_the_gate_untouched() {
        // Bit-identity with the ungated offline pipeline is
        // `annealer_path_matches_the_offline_pipeline`; here the gate's
        // books show it never fired.
        let gated = engine();
        for seed in 0..5 {
            let r = gated
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap();
            assert!(!r.route_reason.contains("integrity"), "{}", r.route_reason);
        }
        let m = gated.metrics().snapshot();
        assert_eq!(
            m.integrity_violations, 0,
            "clean answers never trip the gate"
        );
        // The annealer read accounting reached /metrics.
        assert_eq!(m.reads_verified_clean + m.reads_repaired, 5 * 50);
        assert_eq!(m.chain_majority_repairs + m.chain_tie_breaks, 0);
    }

    #[test]
    fn an_injector_that_never_fires_answers_like_a_clean_engine() {
        let clean = engine();
        let (idle, faults) = faulty_engine(FaultRates {
            seed: 777,
            ..FaultRates::default()
        });
        for seed in 0..5 {
            let a = clean
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap();
            let b = idle
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap();
            assert_eq!(a.selection, b.selection);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.route_reason, b.route_reason);
        }
        assert_eq!(faults.injected(), Injected::default());
    }
}
