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
use mqo::pipeline::{
    PackedInstance, PipelineError, QuantumMqoOutcome, QuantumMqoSolver, ResilienceConfig,
};
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
    /// Whether workers may pack multiple small requests onto disjoint chip
    /// regions and answer them from one composite programming cycle
    /// (DESIGN.md §12). Off by default; a packed answer is bit-identical to
    /// the same request solved solo with the same seed.
    pub packing: bool,
    /// Upper bound on tenants per packed cycle.
    pub packing_max_tenants: usize,
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
            packing: false,
            packing_max_tenants: 16,
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
    /// on — not the device graph — so a warm hit relocates to any free
    /// region without re-embedding.
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
    /// relocated to the first free fault-clean region (which, on a fresh
    /// placer, scans exactly the origins the legacy TRIAD embedder scans —
    /// solo answers are unchanged). Instances the placer cannot host fall
    /// back to the legacy full-graph embedder, heuristic included.
    fn placed_embedding(
        &self,
        logical: &LogicalMapping,
        placer: &mut Placer<'_>,
    ) -> Result<(Embedding, bool), EmbeddingError> {
        let graph = &self.config.graph;
        let (canonical, cache_hit, side) = self.canonical_embedding(logical);
        if side <= graph.rows().min(graph.cols()) {
            if let Some(placement) = placer.place(&canonical, side) {
                return Ok((placement.embedding, cache_hit));
            }
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

    /// Read accounting + response assembly shared by the solo and packed
    /// annealer paths.
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
            device_time_us: outcome
                .trace
                .points()
                .last()
                .map_or(0.0, |p| p.elapsed.as_secs_f64() * 1e6),
            wall_us: 0,
            queue_wait_us: 0,
            packed_tenants: 0,
        }
    }

    fn solve_annealer(&self, req: &SolveRequest) -> Result<SolveResponse, AnnealerFailure> {
        let logical = LogicalMapping::new(&req.problem, self.config.epsilon);
        let mut placer = Placer::new(&self.config.graph);
        let (embedding, cache_hit) = self
            .placed_embedding(&logical, &mut placer)
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

    /// Whether `req` may ride in a packed cycle: unpinned, routed to the
    /// annealer, its breaker fully closed (a half-open probe must stay a
    /// single observable attempt), and free of chaos rolls — an injected
    /// panic or backend failure must strike the request on the solo path,
    /// where the isolation machinery is exercised, not its batchmates.
    fn packable(&self, req: &SolveRequest) -> Option<RouteDecision> {
        if req.backend.is_some()
            || self.config.chaos.worker_panics(req.seed)
            || self.config.chaos.backend_fails(req.seed, Backend::Annealer)
            || self.breaker(Backend::Annealer).state() != crate::breaker::BreakerState::Closed
        {
            return None;
        }
        let decision = route(&req.problem, &self.config.graph, &self.config.router);
        (decision.backend == Backend::Annealer).then_some(decision)
    }

    /// Solves a batch multi-tenant: packable requests are placed onto
    /// disjoint regions of the chip (first-fit-decreasing over their TRIAD
    /// footprints) and answered from one composite programming cycle.
    ///
    /// Returns one slot per request: `Some(result)` when the request was
    /// answered packed (result as `solve` would produce, bit-identical
    /// modulo `route_reason`/timings), `None` when it must take the solo
    /// path — not packable, declined by the placer, or its tenant hit a
    /// device fault the solo resilience loop owns (retries, re-embeds,
    /// classical fallback). The integrity gate runs per tenant, so one
    /// corrupted tenant never poisons its batchmates.
    pub fn solve_packed(
        &self,
        reqs: &[&SolveRequest],
    ) -> Vec<Option<Result<SolveResponse, Reject>>> {
        let batch_start = Instant::now();
        let mut out: Vec<Option<Result<SolveResponse, Reject>>> =
            reqs.iter().map(|_| None).collect();
        if !self.config.packing || reqs.len() < 2 {
            return out;
        }

        // Screen, then group on the effective device protocol: one cycle
        // has one (reads, gauges) schedule, so the leader's protocol defines
        // the group and differently-configured requests solve solo.
        let mut candidates: Vec<(usize, RouteDecision)> = Vec::new();
        let mut leader: Option<(usize, usize)> = None;
        for (i, req) in reqs.iter().enumerate() {
            if candidates.len() >= self.config.packing_max_tenants {
                break;
            }
            let Some(decision) = self.packable(req) else {
                continue;
            };
            let device = self.effective_device(req);
            let protocol = (device.num_reads, device.num_gauges);
            match leader {
                None => leader = Some(protocol),
                Some(p) if p != protocol => continue,
                Some(_) => {}
            }
            candidates.push((i, decision));
        }
        if candidates.len() < 2 {
            return out;
        }

        // First-fit-decreasing greedy fill: place big footprints first,
        // stop at the first decline (the chip is full for this cycle).
        let mut placer = Placer::new(&self.config.graph);
        struct Tenant {
            idx: usize,
            reason: String,
            embedding: Embedding,
            cache_hit: bool,
        }
        let mut tenants: Vec<Tenant> = Vec::new();
        let logicals: Vec<LogicalMapping> = candidates
            .iter()
            .map(|&(i, _)| LogicalMapping::new(&reqs[i].problem, self.config.epsilon))
            .collect();
        let sides: Vec<usize> = logicals
            .iter()
            .map(|l| packing::footprint_side(l.qubo().num_vars()))
            .collect();
        for c in packing::ffd_order(&sides) {
            let (idx, ref decision) = candidates[c];
            let (canonical, cache_hit, side) = self.canonical_embedding(&logicals[c]);
            let placed = (side <= self.config.graph.rows().min(self.config.graph.cols()))
                .then(|| placer.place(&canonical, side))
                .flatten();
            match placed {
                Some(placement) => tenants.push(Tenant {
                    idx,
                    reason: decision.reason.clone(),
                    embedding: placement.embedding,
                    cache_hit,
                }),
                None => {
                    Metrics::inc(&self.metrics.packing_declines);
                    break;
                }
            }
        }
        if tenants.len() < 2 {
            return out;
        }

        Metrics::inc(&self.metrics.packed_batches);
        let solver = self.annealer_solver(self.effective_device(reqs[tenants[0].idx]));
        let instances: Vec<PackedInstance<'_>> = tenants
            .iter()
            .map(|t| PackedInstance {
                problem: &reqs[t.idx].problem,
                embedding: t.embedding.clone(),
                seed: reqs[t.idx].seed,
            })
            .collect();
        let outcomes = solver.solve_packed(&instances);
        let count = tenants.len();
        for (tenant, outcome) in tenants.iter().zip(outcomes) {
            let Some(outcome) = outcome else {
                continue; // device fault: the solo resilience loop owns it
            };
            let req = reqs[tenant.idx];
            self.breaker(Backend::Annealer).record_success();
            let mut response = self.annealer_response(outcome, tenant.cache_hit);
            response.route_reason = format!("{} [packed: {count} tenants]", tenant.reason);
            response.packed_tenants = count;
            if let Some(mode) = self.config.chaos.sample_corruption(req.seed) {
                Metrics::inc(&self.metrics.chaos_corruptions_injected);
                corrupt_response(&mut response, &req.problem, mode);
            }
            let result = self.gate(req, &mut response).map(|()| {
                self.finish(&mut response, batch_start);
                response
            });
            Metrics::inc(&self.metrics.tenants_packed);
            out[tenant.idx] = Some(result);
        }
        out
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
                packed_tenants: 0,
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
            packed_tenants: 0,
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

    fn packing_engine(max_tenants: usize) -> SolveEngine {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(4, 4));
        cfg.device.num_reads = 30;
        cfg.device.num_gauges = 3;
        cfg.packing = true;
        cfg.packing_max_tenants = max_tenants;
        SolveEngine::new(cfg, Arc::new(Metrics::default()))
    }

    fn solo_twin(e: &SolveEngine) -> SolveEngine {
        let mut cfg = e.config().clone();
        cfg.packing = false;
        SolveEngine::new(cfg, Arc::new(Metrics::default()))
    }

    #[test]
    fn packed_answers_are_bit_identical_to_solo_answers() {
        let e = packing_engine(16);
        let reqs: Vec<SolveRequest> = (0..4)
            .map(|i| SolveRequest::new(paper_example(), 100 + i))
            .collect();
        let refs: Vec<&SolveRequest> = reqs.iter().collect();
        let packed = e.solve_packed(&refs);
        let solo = solo_twin(&e);
        for (req, result) in reqs.iter().zip(&packed) {
            let p = result
                .as_ref()
                .expect("clean tenants pack")
                .as_ref()
                .unwrap();
            assert_eq!(p.packed_tenants, 4);
            assert!(
                p.route_reason.contains("[packed: 4 tenants]"),
                "{}",
                p.route_reason
            );
            let s = solo.solve(req).unwrap();
            assert_eq!(p.selection, s.selection);
            assert_eq!(p.cost, s.cost);
            assert_eq!(p.reads, s.reads);
            assert_eq!(p.qubits_used, s.qubits_used);
            assert_eq!(p.device_time_us, s.device_time_us);
        }
        let m = e.metrics().snapshot();
        assert_eq!(m.packed_batches, 1);
        assert_eq!(m.tenants_packed, 4);
    }

    #[test]
    fn packing_declines_overflow_and_leaves_it_to_the_solo_path() {
        // The paper example's TRIAD footprint is one unit cell, so a 2×2
        // chip hosts exactly 4 tenants; the fifth is declined and keeps a
        // `None` slot for the solo path.
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 30;
        cfg.device.num_gauges = 3;
        cfg.packing = true;
        cfg.packing_max_tenants = 16;
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let reqs: Vec<SolveRequest> = (0..5)
            .map(|i| SolveRequest::new(paper_example(), i))
            .collect();
        let refs: Vec<&SolveRequest> = reqs.iter().collect();
        let packed = e.solve_packed(&refs);
        assert_eq!(packed.iter().filter(|r| r.is_some()).count(), 4);
        assert!(packed[4].is_none(), "overflow tenant is left for solo");
        let m = e.metrics().snapshot();
        assert_eq!(m.packing_declines, 1);
        assert_eq!(m.tenants_packed, 4);
        assert!((m.tenants_per_cycle - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_tenants_caps_the_cycle() {
        let e = packing_engine(2);
        let reqs: Vec<SolveRequest> = (0..4)
            .map(|i| SolveRequest::new(paper_example(), i))
            .collect();
        let refs: Vec<&SolveRequest> = reqs.iter().collect();
        let packed = e.solve_packed(&refs);
        assert_eq!(packed.iter().filter(|r| r.is_some()).count(), 2);
        assert_eq!(e.metrics().snapshot().tenants_packed, 2);
    }

    #[test]
    fn pinned_and_chaos_marked_requests_never_pack() {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(4, 4));
        cfg.device.num_reads = 30;
        cfg.device.num_gauges = 3;
        cfg.packing = true;
        cfg.chaos = ChaosConfig {
            seed: 5,
            worker_panic_rate: 0.5,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let mut pinned = SolveRequest::new(paper_example(), 1000);
        pinned.backend = Some(Backend::Annealer);
        let panicky = (0..16)
            .map(|s| SolveRequest::new(paper_example(), s))
            .find(|r| e.config().chaos.worker_panics(r.seed))
            .expect("rate 0.5 marks some seed");
        let mut clean = (2000..)
            .filter(|&s| {
                !e.config().chaos.worker_panics(s)
                    && !e.config().chaos.backend_fails(s, Backend::Annealer)
            })
            .map(|s| SolveRequest::new(paper_example(), s));
        let clean_a = clean.next().unwrap();
        let clean_b = clean.next().unwrap();
        let reqs = [&pinned, &panicky, &clean_a, &clean_b];
        let packed = e.solve_packed(&reqs);
        assert!(packed[0].is_none(), "pinned requests keep their contract");
        assert!(
            packed[1].is_none(),
            "chaos-marked seeds panic on the solo path"
        );
        assert!(packed[2].is_some() && packed[3].is_some());
    }

    #[test]
    fn single_packable_tenant_stays_solo() {
        let e = packing_engine(16);
        let a = SolveRequest::new(paper_example(), 1);
        let mut b = SolveRequest::new(paper_example(), 2);
        b.backend = Some(Backend::Milp);
        let packed = e.solve_packed(&[&a, &b]);
        assert!(packed.iter().all(|r| r.is_none()));
        assert_eq!(e.metrics().snapshot().packed_batches, 0);
    }

    #[test]
    fn mixed_protocols_pack_with_the_leader_group_only() {
        let e = packing_engine(16);
        let a = SolveRequest::new(paper_example(), 1);
        let mut b = SolveRequest::new(paper_example(), 2);
        b.reads = Some(10);
        let c = SolveRequest::new(paper_example(), 3);
        let packed = e.solve_packed(&[&a, &b, &c]);
        assert!(packed[0].is_some() && packed[2].is_some());
        assert!(packed[1].is_none(), "different (reads, gauges) solves solo");
    }

    #[test]
    fn corrupted_tenants_are_gated_without_poisoning_batchmates() {
        // Corruption rate 1: every tenant's answer is mangled after the
        // composite run and must be repaired by the per-tenant gate.
        let mut cfg = EngineConfig::new(ChimeraGraph::new(4, 4));
        cfg.device.num_reads = 30;
        cfg.device.num_gauges = 3;
        cfg.packing = true;
        cfg.packing_max_tenants = 16;
        cfg.chaos = ChaosConfig {
            seed: 21,
            sample_corruption_rate: 1.0,
            ..ChaosConfig::NONE
        };
        let e = SolveEngine::new(cfg, Arc::new(Metrics::default()));
        let problem = paper_example();
        let reqs: Vec<SolveRequest> = (0..3)
            .map(|i| SolveRequest::new(problem.clone(), i))
            .collect();
        let refs: Vec<&SolveRequest> = reqs.iter().collect();
        let packed = e.solve_packed(&refs);
        for result in &packed {
            let r = result.as_ref().expect("packable").as_ref().unwrap();
            let sel = Selection::new(r.selection.iter().map(|&p| PlanId(p)).collect());
            assert!(problem.validate_selection(&sel).is_ok());
            assert_eq!(r.cost, problem.selection_cost(&sel));
            assert!(
                r.route_reason.contains("integrity: repaired"),
                "{}",
                r.route_reason
            );
        }
        let m = e.metrics().snapshot();
        assert_eq!(m.integrity_violations, 3);
        assert_eq!(m.integrity_repairs, 3);
        assert_eq!(m.tenants_packed, 3);
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
