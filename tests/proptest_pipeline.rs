//! Properties of the pipeline's one device run: whatever the chain problem
//! and seed, `solve` either returns a valid plan selection, accounted read
//! by read, or a typed, displayable embedding error — it never panics and
//! never fabricates an invalid answer. Equal seeds give equal answers.

use mqo::pipeline::PipelineError;
use mqo::prelude::*;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const READS: usize = 12;

fn chain_problem(queries: usize) -> MqoProblem {
    let mut b = MqoProblem::builder();
    let mut prev = None;
    for i in 0..queries {
        let q = b.add_query(&[2.0 + (i % 3) as f64, 3.0]);
        let plans = b.plans_of(q);
        if let Some(p) = prev {
            b.add_saving(p, plans[0], 1.5).unwrap();
        }
        prev = Some(plans[0]);
    }
    b.build().unwrap()
}

fn solver(graph: ChimeraGraph, reads: usize) -> QuantumMqoSolver<SimulatedAnnealingSampler> {
    QuantumMqoSolver::new(
        graph,
        QuantumAnnealer::new(
            DeviceConfig {
                num_reads: reads,
                num_gauges: 3,
                ..DeviceConfig::default()
            },
            SimulatedAnnealingSampler::default(),
        ),
    )
}

/// Every property of one solve that does not depend on the seed.
fn assert_accounted(problem: &MqoProblem, out: &QuantumMqoOutcome, reads: usize) {
    assert!(problem.validate_selection(&out.best.0).is_ok());
    assert!(out.best.1.is_finite());
    assert_eq!(problem.selection_cost(&out.best.0), out.best.1);
    // The trace is monotone in simulated device time and ends at the best.
    let pts = out.trace.points();
    assert!(!pts.is_empty());
    assert!(pts.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
    assert!(pts.windows(2).all(|w| w[1].value < w[0].value));
    assert_eq!(pts.last().unwrap().value, out.best.1);
    assert_eq!(out.reads, reads);
    assert_eq!(out.chain_breaks.reads, out.reads);
    assert_eq!(out.device_time_us, out.reads as f64 * 376.0);
    assert_eq!(
        out.integrity.verified_clean + out.integrity.repaired,
        out.reads
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn solve_never_panics_and_answers_are_valid_or_typed(
        queries in 1usize..=6,
        seed in 0u64..200,
    ) {
        let problem = chain_problem(queries);
        // 2×2 cells host at most a K8 TRIAD: up to four two-plan queries
        // always place; longer chains go to the heuristic, which may fail.
        match solver(ChimeraGraph::new(2, 2), READS).solve(&problem, seed) {
            Ok(out) => assert_accounted(&problem, &out, READS),
            Err(e) => {
                prop_assert!(queries > 4);
                prop_assert!(!format!("{e}").is_empty());
                prop_assert!(matches!(e, PipelineError::Embedding(_)));
            }
        }
    }

    #[test]
    fn equal_seeds_give_equal_answers(queries in 1usize..=4, seed in 0u64..200) {
        let problem = chain_problem(queries);
        let s = solver(ChimeraGraph::new(2, 2), READS);
        let a = s.solve(&problem, seed).unwrap();
        let b = s.solve(&problem, seed).unwrap();
        prop_assert_eq!(&a.best, &b.best);
        prop_assert_eq!(a.trace.points(), b.trace.points());
        prop_assert_eq!(&a.chain_breaks, &b.chain_breaks);
    }
}

/// The scaled-down bench machine: 4×4 cells, ~5% defects.
fn small_machine() -> ChimeraGraph {
    let mut g = ChimeraGraph::new(4, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(0xD_2016);
    g.break_random_qubits(6, &mut rng);
    g
}

#[test]
fn clustered_paper_instances_solve_valid_and_reproducible() {
    const PAPER_READS: usize = 40;
    let graph = small_machine();
    let cfg = PaperWorkloadConfig {
        max_queries: 6,
        ..PaperWorkloadConfig::paper_class(2)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let inst = paper::generate(&graph, &cfg, &mut rng).expect("small machine hosts six queries");
    let s = solver(graph, PAPER_READS);
    let solve = |seed| {
        s.solve_with_embedding(&inst.problem, inst.layout.embedding.clone(), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: pipeline failed: {e}"))
    };
    for seed in 0..50u64 {
        let a = solve(seed);
        assert_accounted(&inst.problem, &a, PAPER_READS);
        if seed % 10 == 0 {
            let b = solve(seed);
            assert_eq!(a.best, b.best, "seed {seed}");
            assert_eq!(a.trace.points(), b.trace.points(), "seed {seed}");
            assert_eq!(a.chain_breaks, b.chain_breaks, "seed {seed}");
        }
    }
}
