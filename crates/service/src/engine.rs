//! The solve engine: routing, the embedding cache, circuit breakers, and
//! the three backends behind one synchronous `solve` call. Workers of the
//! batching queue share one engine; everything inside is `Sync`.
//!
//! Robustness model (DESIGN.md §9): every backend attempt runs inside its
//! own `catch_unwind`, failures (real, panicked, or chaos-injected) are
//! recorded against that backend's [`CircuitBreaker`], and the request
//! falls through an ordered candidate chain — annealer → MILP → hill
//! climbing — until a healthy backend answers. Only when every candidate is
//! breaker-open or failing does the request resolve to a typed
//! `503 backend_unavailable`.

use crate::api::{Backend, Reject, SolveRequest, SolveResponse};
use crate::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use crate::cache::{CacheKey, CacheStats, EmbeddingCache};
use crate::chaos::{ChaosConfig, SampleCorruption, CHAOS_PANIC_MESSAGE};
use crate::metrics::Metrics;
use crate::router::{route, RouteDecision, RouterConfig};
use mqo::pipeline::{PipelineError, QuantumMqoOutcome, QuantumMqoSolver, ResilienceConfig};
use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
use mqo_annealer::sa::SimulatedAnnealingSampler;
use mqo_chimera::embedding::{embed_structure, Embedding, EmbeddingError};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::packing::{self, Placer};
use mqo_core::ids::PlanId;
use mqo_core::integrity::{self, DEFAULT_TOLERANCE};
use mqo_core::logical::{LogicalMapping, DEFAULT_EPSILON};
use mqo_core::problem::MqoProblem;
use mqo_core::solution::Selection;
use mqo_heuristics::HillClimbing;
use mqo_milp::bb_mqo::{self, MqoBbConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LRU bound of the embedding cache, entries.
const CACHE_CAPACITY: usize = 128;
/// Attempts of the heuristic embedder on a cache miss.
const EMBED_TRIES: usize = 16;

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
    /// Fault-tolerance policy of the pipeline.
    pub resilience: ResilienceConfig,
    /// Weight slack ε of both mapping stages (paper: 0.25).
    pub epsilon: f64,
    /// Routing policy.
    pub router: RouterConfig,
    /// Wall-clock budget of the classical backends.
    pub classical_budget: Duration,
    /// Hard cap on per-request annealing reads.
    pub max_reads: usize,
    /// Per-backend circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Deterministic chaos injection (inert by default).
    pub chaos: ChaosConfig,
    /// Whether a gate failure is deterministically repaired (min-delta
    /// settle + bounded descent) and re-verified instead of rejected with a
    /// typed 500.
    pub integrity_repair: bool,
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
            breaker: BreakerConfig::default(),
            chaos: ChaosConfig::NONE,
            integrity_repair: true,
            integrity_tolerance: DEFAULT_TOLERANCE,
        }
    }
}

/// The shared, thread-safe solve engine.
#[derive(Debug)]
pub struct SolveEngine {
    config: EngineConfig,
    graph_fingerprint: u64,
    cache: EmbeddingCache,
    metrics: Arc<Metrics>,
    /// One breaker per backend, indexed by `Backend as usize`.
    breakers: [CircuitBreaker; 3],
}

impl SolveEngine {
    /// Builds the engine, fingerprinting the graph once.
    pub fn new(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        let graph_fingerprint = config.graph.fingerprint();
        let cache = EmbeddingCache::new(CACHE_CAPACITY);
        let breakers = [
            CircuitBreaker::new(config.breaker),
            CircuitBreaker::new(config.breaker),
            CircuitBreaker::new(config.breaker),
        ];
        SolveEngine {
            config,
            graph_fingerprint,
            cache,
            metrics,
            breakers,
        }
    }

    /// The circuit breaker guarding `backend`.
    pub fn breaker(&self, backend: Backend) -> &CircuitBreaker {
        &self.breakers[backend as usize]
    }

    /// Breaker snapshots of all three backends, for `/metrics`.
    pub fn breaker_panel(&self) -> BreakerPanel {
        BreakerPanel {
            annealer: self.breaker(Backend::Annealer).snapshot(),
            milp: self.breaker(Backend::Milp).snapshot(),
            hill_climbing: self.breaker(Backend::HillClimbing).snapshot(),
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
    /// typed [`Reject`]; the only panic that can escape is the
    /// chaos-injected worker panic (by design — the batching worker's
    /// `catch_unwind` isolates it into a `500 internal_error`).
    pub fn solve(&self, req: &SolveRequest) -> Result<SolveResponse, Reject> {
        let start = Instant::now();
        if self.config.chaos.worker_panics(req.seed) {
            Metrics::inc(&self.metrics.chaos_panics_injected);
            panic!("{CHAOS_PANIC_MESSAGE} (request seed {})", req.seed);
        }
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
        for (rank, &backend) in candidates.iter().enumerate() {
            if !self.breaker(backend).admit() {
                if rank == 0 {
                    Metrics::inc(&self.metrics.breaker_skips);
                }
                notes.push(format!("{backend}: breaker open"));
                any_unavailable = true;
                continue;
            }
            match self.attempt(backend, req) {
                Ok(mut response) => {
                    self.breaker(backend).record_success();
                    response.route_reason = if notes.is_empty() {
                        decision.reason
                    } else {
                        format!("{} [degraded: {}]", decision.reason, notes.join("; "))
                    };
                    if let Some(mode) = self.config.chaos.sample_corruption(req.seed) {
                        Metrics::inc(&self.metrics.chaos_corruptions_injected);
                        corrupt_response(&mut response, &req.problem, mode);
                    }
                    self.gate(req, &mut response)?;
                    self.finish(&mut response, start);
                    return Ok(response);
                }
                Err(AttemptFailure::Embedding(e)) => {
                    // The embedder could not place this instance (e.g. a
                    // dense savings graph on a degraded chip). That is a
                    // property of the instance, not of backend health, so
                    // it does not trip the breaker.
                    notes.push(format!("{backend}: embedding failed ({e})"));
                }
                Err(failure) => {
                    self.breaker(backend).record_failure();
                    Metrics::inc(&self.metrics.backend_attempt_failures);
                    any_unavailable = true;
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

    /// One attempt of one backend: chaos roll, then the solver inside its
    /// own `catch_unwind` so a panicking backend is a breaker failure, not
    /// a dead worker.
    fn attempt(
        &self,
        backend: Backend,
        req: &SolveRequest,
    ) -> Result<SolveResponse, AttemptFailure> {
        if self.config.chaos.backend_fails(req.seed, backend) {
            Metrics::inc(&self.metrics.chaos_backend_failures_injected);
            return Err(AttemptFailure::Injected);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match backend {
            Backend::Annealer => self.solve_annealer(req),
            Backend::Milp => Ok(self.solve_milp(req)),
            Backend::HillClimbing => Ok(self.solve_climbing(req)),
        }));
        match outcome {
            Ok(Ok(response)) => Ok(response),
            Ok(Err(AnnealerFailure::Embedding(e))) => Err(AttemptFailure::Embedding(e)),
            Ok(Err(AnnealerFailure::Fatal(detail))) => Err(AttemptFailure::Fatal(detail)),
            Err(payload) => Err(AttemptFailure::Panicked(crate::chaos::panic_message(
                payload.as_ref(),
            ))),
        }
    }

    /// The answer-integrity gate (DESIGN.md §11): re-validates every
    /// successful answer — structural feasibility plus the reported cost
    /// against a from-scratch recomputation — before it is served. A clean
    /// answer passes untouched (the gate is observably transparent); a
    /// corrupt one is either deterministically repaired and re-verified, or
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
        if self.config.integrity_repair {
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

    /// The canonical (region-relative) embedding of a logical structure,
    /// through the cache. The cache key pairs the structure hash with the
    /// fingerprint of the *pristine region graph* the canonical TRIAD lives
    /// on — not the device graph — so a warm hit relocates to any
    /// fault-clean region without re-embedding.
    fn canonical_embedding(&self, logical: &LogicalMapping) -> (Arc<Embedding>, bool, usize) {
        let n = logical.qubo().num_vars();
        let side = packing::footprint_side(n);
        let key = CacheKey {
            structure: logical.qubo().structure_hash(),
            graph: packing::region_graph(n).fingerprint(),
        };
        match self.cache.get(key) {
            Some(e) => (e, true, side),
            None => {
                let e = Arc::new(packing::canonical_embedding(n));
                self.cache.insert(key, Arc::clone(&e));
                (e, false, side)
            }
        }
    }

    /// Places one instance on the device graph: the cached canonical TRIAD
    /// relocated to the first fault-clean region (which scans exactly the
    /// origins the whole-graph TRIAD embedder scans, so answers are
    /// unchanged). Instances the placer cannot host fall back to the
    /// whole-graph embedder, heuristic included.
    fn placed_embedding(
        &self,
        logical: &LogicalMapping,
    ) -> Result<(Embedding, bool), EmbeddingError> {
        let graph = &self.config.graph;
        let (canonical, cache_hit, side) = self.canonical_embedding(logical);
        if let Some(placement) = Placer::new(graph).place(&canonical, side) {
            return Ok((placement.embedding, cache_hit));
        }
        let key = CacheKey {
            structure: logical.qubo().structure_hash(),
            graph: self.graph_fingerprint,
        };
        match self.cache.get(key) {
            Some(e) => Ok(((*e).clone(), true)),
            None => {
                let edges: Vec<_> = logical
                    .qubo()
                    .quadratic()
                    .iter()
                    .map(|&(a, b, _)| (a, b))
                    .collect();
                let e = embed_structure(
                    graph,
                    logical.qubo().num_vars(),
                    &edges,
                    key.structure,
                    EMBED_TRIES,
                )?;
                self.cache.insert(key, Arc::new(e.clone()));
                Ok((e, false))
            }
        }
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
        let logical = LogicalMapping::new(&req.problem, self.config.epsilon);
        let (embedding, cache_hit) = self
            .placed_embedding(&logical)
            .map_err(AnnealerFailure::Embedding)?;
        let solver = self.annealer_solver(self.effective_device(req));
        let outcome = solver
            .solve_with_embedding(&req.problem, embedding, req.seed)
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
        match outcome.best {
            Some((selection, cost)) => SolveResponse {
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
            },
            // Branch-and-bound found nothing inside the budget (it always
            // has an incumbent in practice, but stay total): climb instead.
            None => {
                let mut r = self.solve_climbing(req);
                r.route_reason = "MILP budget produced no incumbent; climbed instead".to_string();
                r
            }
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

/// Applies the chaos-chosen mangling to a successful answer. Every mode
/// yields a response [`SolveEngine::gate`] must flag: a cross-query plan
/// flip is structurally infeasible, a non-finite cost fails the finiteness
/// check. Single-query problems have no cross-query plan to flip, so that
/// mode degrades to a NaN cost.
fn corrupt_response(response: &mut SolveResponse, problem: &MqoProblem, mode: SampleCorruption) {
    match mode {
        SampleCorruption::CrossQueryPlan if problem.num_queries() >= 2 => {
            // Query 0's entry now points at query 1's selected plan: one
            // query uncovered, one doubly covered — always infeasible.
            response.selection[0] = response.selection[1];
        }
        SampleCorruption::CrossQueryPlan | SampleCorruption::NanCost => {
            response.cost = f64::NAN;
        }
        SampleCorruption::InfCost => response.cost = f64::INFINITY,
    }
}

enum AnnealerFailure {
    Embedding(EmbeddingError),
    Fatal(String),
}

/// Why one backend attempt did not produce an answer.
enum AttemptFailure {
    /// The embedder could not place the instance (does not trip breakers).
    Embedding(EmbeddingError),
    /// The backend ran and failed fatally.
    Fatal(String),
    /// A chaos roll failed the attempt before it ran.
    Injected,
    /// The backend panicked; caught by the per-attempt `catch_unwind`.
    Panicked(String),
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Embedding(e) => write!(f, "embedding failed ({e})"),
            AttemptFailure::Fatal(detail) => write!(f, "failed ({detail})"),
            AttemptFailure::Injected => write!(f, "failed (chaos: injected backend failure)"),
            AttemptFailure::Panicked(msg) => write!(f, "panicked ({msg})"),
        }
    }
}

/// Breaker snapshots of all three backends, serialised under
/// `"breakers"` in the `/metrics` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerPanel {
    /// The annealer backend's breaker.
    pub annealer: BreakerSnapshot,
    /// The MILP backend's breaker.
    pub milp: BreakerSnapshot,
    /// The hill-climbing backend's breaker.
    pub hill_climbing: BreakerSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::problem::MqoProblem;

    fn paper_example() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    fn engine() -> SolveEngine {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        SolveEngine::new(cfg, Arc::new(Metrics::default()))
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

    #[test]
    fn second_identical_structure_is_a_cache_hit_with_identical_samples() {
        let e = engine();
        let cold = e.solve(&SolveRequest::new(paper_example(), 7)).unwrap();
        let warm = e.solve(&SolveRequest::new(paper_example(), 7)).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.selection, warm.selection);
        assert_eq!(cold.cost, warm.cost);
        assert_eq!(cold.reads, warm.reads);
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
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

    #[test]
    fn open_breaker_falls_through_to_the_next_backend() {
        let e = engine();
        // Trip the annealer breaker by hand.
        for _ in 0..e.config().breaker.failure_threshold {
            e.breaker(Backend::Annealer).record_failure();
        }
        assert_eq!(
            e.breaker(Backend::Annealer).state(),
            crate::breaker::BreakerState::Open
        );
        let r = e.solve(&SolveRequest::new(paper_example(), 5)).unwrap();
        assert_ne!(r.backend, Backend::Annealer, "open backend is skipped");
        assert!(
            r.route_reason.contains("degraded") && r.route_reason.contains("breaker open"),
            "degradation is visible to the client: {}",
            r.route_reason
        );
        assert_eq!(r.cost, 2.0, "the fallback still solves the instance");
        let panel = e.breaker_panel();
        assert_eq!(panel.annealer.rejected_total, 1);
    }

    #[test]
    fn injected_backend_failures_trip_the_breaker_and_fall_through() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        cfg.chaos = ChaosConfig {
            seed: 41,
            backend_failure_rate: 1.0,
            ..ChaosConfig::NONE
        };
        // Rate 1.0 fails every backend attempt: after `failure_threshold`
        // requests every breaker is open and requests get a typed 503.
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let mut last = None;
        for seed in 0..10 {
            last = Some(e.solve(&SolveRequest::new(paper_example(), seed)));
        }
        let err = last.unwrap().unwrap_err();
        assert!(
            matches!(err, Reject::BackendUnavailable { .. }),
            "all-failing backends resolve to 503, got {err}"
        );
        assert_eq!(err.http_status(), 503);
        let panel = e.breaker_panel();
        assert_eq!(
            panel.annealer.state,
            crate::breaker::BreakerState::Open,
            "chaos failures opened the annealer breaker"
        );
        let m = e.metrics().snapshot();
        assert!(m.chaos_backend_failures_injected > 0);
        assert!(m.backend_attempt_failures > 0);
        assert_eq!(m.solved_total, 0);
    }

    #[test]
    fn pinned_requests_never_degrade_to_another_backend() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.chaos = ChaosConfig {
            seed: 1,
            backend_failure_rate: 1.0,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let mut req = SolveRequest::new(paper_example(), 2);
        req.backend = Some(Backend::Milp);
        let err = e.solve(&req).unwrap_err();
        // The pinned backend failed, so the request fails — it is never
        // silently answered by a different backend.
        assert!(matches!(err, Reject::BackendUnavailable { .. }), "{err}");
    }

    #[test]
    fn chaos_worker_panic_escapes_solve_with_the_marker_message() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.chaos = ChaosConfig {
            seed: 123,
            worker_panic_rate: 1.0,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let req = SolveRequest::new(paper_example(), 9);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.solve(&req)));
        let msg = crate::chaos::panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains(crate::chaos::CHAOS_PANIC_MESSAGE), "{msg}");
        assert_eq!(e.metrics().snapshot().chaos_panics_injected, 1);
    }

    #[test]
    fn corrupted_answers_are_caught_repaired_and_reconciled() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        cfg.chaos = ChaosConfig {
            seed: 21,
            sample_corruption_rate: 1.0,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
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
        assert_eq!(m.chaos_corruptions_injected, 8);
        assert_eq!(m.integrity_violations, 8);
        assert_eq!(m.integrity_repairs, 8);
        assert_eq!(m.integrity_rejects, 0);
        assert_eq!(m.solved_total, 8);
    }

    #[test]
    fn corruption_without_repair_is_a_typed_500() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        cfg.integrity_repair = false;
        cfg.chaos = ChaosConfig {
            seed: 21,
            sample_corruption_rate: 1.0,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        for seed in 0..4 {
            let err = e
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap_err();
            assert!(matches!(err, Reject::IntegrityViolation { .. }), "{err}");
            assert_eq!(err.http_status(), 500);
        }
        let m = e.metrics().snapshot();
        assert_eq!(m.chaos_corruptions_injected, 4);
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
    fn inert_chaos_answers_are_identical_to_a_clean_engine() {
        let clean = engine();
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 50;
        cfg.device.num_gauges = 5;
        cfg.chaos = ChaosConfig {
            seed: 777,
            ..ChaosConfig::NONE
        };
        let inert = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        for seed in 0..5 {
            let a = clean
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap();
            let b = inert
                .solve(&SolveRequest::new(paper_example(), seed))
                .unwrap();
            assert_eq!(a.selection, b.selection);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.backend, b.backend);
        }
    }
}
