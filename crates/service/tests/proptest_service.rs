//! Property-based tests of the service engine: the embedding cache must be
//! invisible in the results. A warm (cache-hit) solve returns bit-identical
//! samples to a cold solve, and neither depends on the device thread count
//! (the PR-1 per-(gauge, read) seed derivation makes reads order-free).

use mqo_chimera::graph::ChimeraGraph;
use mqo_core::problem::MqoProblem;
use mqo_service::api::{Backend, SolveRequest};
use mqo_service::engine::{EngineConfig, SolveEngine};
use mqo_service::metrics::Metrics;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Builds a random MQO instance the 2×2 test graph hosts only through the
/// heuristic embedder, so every annealer solve goes through the embedding
/// cache: 5–6 queries with 2 plans each (10–12 plans, over the TRIAD bound
/// of 8) and random savings between consecutive queries, all derived
/// deterministically from `gen_seed`.
fn random_problem(gen_seed: u64) -> MqoProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(gen_seed);
    let mut b = MqoProblem::builder();
    let num_queries = rng.gen_range(5..=6);
    let queries: Vec<_> = (0..num_queries)
        .map(|_| {
            let costs: Vec<f64> = (0..2).map(|_| f64::from(rng.gen_range(1..=8))).collect();
            b.add_query(&costs)
        })
        .collect();
    for pair in queries.windows(2) {
        if rng.gen_bool(0.7) {
            let a = b.plans_of(pair[0])[rng.gen_range(0..2usize)];
            let c = b.plans_of(pair[1])[rng.gen_range(0..2usize)];
            let saving = f64::from(rng.gen_range(1..=5));
            b.add_saving(a, c, saving).unwrap();
        }
    }
    b.build().unwrap()
}

fn engine(threads: usize) -> SolveEngine {
    let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
    cfg.device.num_reads = 20;
    cfg.device.num_gauges = 4;
    cfg.device.threads = threads;
    SolveEngine::new(cfg, Arc::new(Metrics::default()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit is bit-identical to a cold solve at any thread count:
    /// same selection, cost, and read statistics — and independent engines
    /// running with different thread counts agree with both.
    #[test]
    fn cache_hit_matches_cold_solve_at_any_thread_count(
        gen_seed in 0u64..1_000,
        solve_seed in 0u64..1_000,
        threads_a in 1usize..=4,
        threads_b in 1usize..=4,
    ) {
        let problem = random_problem(gen_seed);
        let mut req = SolveRequest::new(problem, solve_seed);
        // Pin the annealer so every case exercises the embedding cache.
        req.backend = Some(Backend::Annealer);

        let warm_engine = engine(threads_a);
        let cold = warm_engine.solve(&req).unwrap();
        let warm = warm_engine.solve(&req).unwrap();
        prop_assert!(!cold.cache_hit);
        prop_assert!(warm.cache_hit, "second identical structure must hit");
        prop_assert_eq!(&cold.selection, &warm.selection);
        prop_assert_eq!(cold.cost, warm.cost);
        prop_assert_eq!(cold.reads, warm.reads);
        prop_assert_eq!(cold.qubits_used, warm.qubits_used);

        // A fresh engine with a different thread count reproduces the same
        // result, cold: caching and parallelism are both invisible.
        let other = engine(threads_b).solve(&req).unwrap();
        prop_assert!(!other.cache_hit);
        prop_assert_eq!(&other.selection, &cold.selection);
        prop_assert_eq!(other.cost, cold.cost);
        prop_assert_eq!(other.reads, cold.reads);
    }

    /// Distinct savings *weights* on the same plan structure share one
    /// cache entry: the key is the structure hash, not the weights.
    #[test]
    fn weight_changes_reuse_the_structural_embedding(
        gen_seed in 0u64..1_000,
        seed in 0u64..1_000,
    ) {
        let problem = random_problem(gen_seed);
        let e = engine(1);
        let mut req = SolveRequest::new(problem.clone(), seed);
        req.backend = Some(Backend::Annealer);
        let first = e.solve(&req).unwrap();
        prop_assert!(!first.cache_hit);

        // Rescaling every saving keeps the QUBO adjacency (structure hash)
        // intact, so the second request must be served from the cache.
        let mut b = MqoProblem::builder();
        for q in problem.queries() {
            let costs: Vec<f64> = problem.plans_of(q).map(|p| problem.plan_cost(p)).collect();
            b.add_query(&costs);
        }
        for &(a, c, v) in problem.savings() {
            b.add_saving(a, c, v * 0.5).unwrap();
        }
        let rescaled = b.build().unwrap();
        let mut req2 = SolveRequest::new(rescaled, seed);
        req2.backend = Some(Backend::Annealer);
        let second = e.solve(&req2).unwrap();
        prop_assert!(second.cache_hit, "same structure, new weights: hit");
        // The hit answers exactly as a cold solve of the rescaled instance.
        let cold = engine(1).solve(&req2).unwrap();
        prop_assert_eq!(&second.selection, &cold.selection);
        prop_assert_eq!(second.cost, cold.cost);
        let stats = e.cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
