//! Decomposition: mapping one MQO instance into a *series* of QUBO
//! problems — the extension the paper's conclusion announces as future work
//! ("We will explore approaches that map one MQO problem instance into a
//! series of QUBO problems … which should in principle allow to treat
//! larger problem instances").
//!
//! The scheme is block-coordinate descent over the plan-selection space:
//!
//! 1. start from the greedy selection;
//! 2. partition the queries into blocks small enough for a TRIAD clique
//!    embedding on the device;
//! 3. for each block, build the *conditioned* subproblem — block plans keep
//!    their intra-block savings, while savings towards the fixed plans
//!    outside the block are folded into the plan costs as discounts — and
//!    solve it with one annealer run (one QUBO of the series);
//! 4. accept the block's new plans if they improve the global cost; rotate
//!    the block boundaries and repeat for a configured number of rounds.
//!
//! Every subproblem objective equals the global objective restricted to the
//! block (up to a constant), so accepted moves strictly decrease the global
//! cost and the procedure terminates at a block-optimal selection.

use crate::pipeline::{PipelineError, QuantumMqoSolver};
use mqo_annealer::sampler::Sampler;
use mqo_core::ids::{PlanId, QueryId};
use mqo_core::problem::MqoProblem;
use mqo_core::solution::{CostEvaluator, Selection};
use mqo_core::trace::Trace;
use mqo_heuristics::Greedy;
use std::time::Duration;

/// Configuration for [`QuantumMqoSolver::solve_decomposed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompositionConfig {
    /// Block-descent rounds over all queries.
    pub rounds: usize,
    /// Maximum plans per block; 0 = the largest clique the device can place
    /// ([`QuantumMqoSolver::max_clique`]). Larger values are capped to it.
    pub block_plans: usize,
    /// Weight slack for the per-block mappings.
    pub epsilon: f64,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        DecompositionConfig {
            rounds: 3,
            block_plans: 0,
            epsilon: 0.25,
        }
    }
}

/// Outcome of a decomposed solve.
#[derive(Debug, Clone)]
pub struct DecompositionOutcome {
    /// Best selection found and its cost.
    pub best: (Selection, f64),
    /// Global cost over cumulative simulated device time.
    pub trace: Trace,
    /// QUBO subproblems dispatched to the annealer.
    pub blocks_solved: usize,
    /// Blocks whose annealer solution improved the global selection.
    pub blocks_improved: usize,
    /// Total simulated device time across all subproblem runs.
    pub device_time: Duration,
}

impl<S: Sampler> QuantumMqoSolver<S> {
    /// Solves an MQO instance of (almost) arbitrary size as a series of
    /// annealer-sized QUBO subproblems. Works for any savings structure —
    /// blocks are embedded as TRIAD cliques. Fails with
    /// [`PipelineError::QueryExceedsBlock`] when one query alone has more
    /// plans than a block holds.
    pub fn solve_decomposed(
        &self,
        problem: &MqoProblem,
        config: &DecompositionConfig,
        seed: u64,
    ) -> Result<DecompositionOutcome, PipelineError> {
        let capacity = self.max_clique();
        let block_plans = if config.block_plans == 0 {
            capacity
        } else {
            config.block_plans.min(capacity)
        };
        if let Some(query) = problem
            .queries()
            .find(|&q| problem.num_plans_of(q) > block_plans)
        {
            return Err(PipelineError::QueryExceedsBlock {
                query,
                plans: problem.num_plans_of(query),
                block_plans,
            });
        }

        let initial = Greedy::construct(problem);
        let mut eval = CostEvaluator::new(problem, initial);
        let mut trace = Trace::new();
        let mut device_time = Duration::ZERO;
        trace.record(device_time, eval.cost());

        let mut blocks_solved = 0usize;
        let mut blocks_improved = 0usize;
        let num_queries = problem.num_queries();

        for round in 0..config.rounds {
            // Rotate the partition so block boundaries move between rounds.
            let offset = (round * num_queries / config.rounds.max(1)) % num_queries;
            let order: Vec<QueryId> = (0..num_queries)
                .map(|i| QueryId::new((i + offset) % num_queries))
                .collect();

            let mut improved_this_round = false;
            let mut cursor = 0usize;
            while cursor < order.len() {
                // Grow the block up to the plan budget.
                let mut block = Vec::new();
                let mut plans = 0usize;
                while cursor < order.len() {
                    let q = order[cursor];
                    let l = problem.num_plans_of(q);
                    if plans + l > block_plans && !block.is_empty() {
                        break;
                    }
                    block.push(q);
                    plans += l;
                    cursor += 1;
                }

                let seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((round * 10_000 + cursor) as u64);
                let (sub, block_plan_ids) = self.conditioned_subproblem(problem, &block, &eval);
                let outcome = self.solve(&sub, seed)?;
                blocks_solved += 1;
                device_time += Duration::from_secs_f64(
                    outcome.reads as f64 * self.device.config().time_per_read_us() * 1e-6,
                );

                // Apply the block solution if it improves the global cost.
                let before = eval.cost();
                let previous: Vec<(QueryId, PlanId)> = block
                    .iter()
                    .map(|&q| (q, eval.selection().plan_of(q)))
                    .collect();
                for (k, &q) in block.iter().enumerate() {
                    let local = outcome.best.0.plan_of(QueryId::new(k));
                    eval.apply(q, block_plan_ids[local.index()]);
                }
                if eval.cost() < before - 1e-9 {
                    blocks_improved += 1;
                    improved_this_round = true;
                    trace.record(device_time, eval.cost());
                } else if eval.cost() > before + 1e-9 {
                    // The conditioned optimum can tie but never worsen the
                    // global cost; a worse block means annealer noise —
                    // revert to the previous plans.
                    for &(q, p) in &previous {
                        eval.apply(q, p);
                    }
                }
            }
            if !improved_this_round && round > 0 {
                break;
            }
        }

        let cost = eval.cost();
        Ok(DecompositionOutcome {
            best: (eval.selection().clone(), cost),
            trace,
            blocks_solved,
            blocks_improved,
            device_time,
        })
    }

    /// Builds the block subproblem: block queries with intra-block savings,
    /// and savings towards fixed outside plans folded into the costs (with
    /// a uniform shift keeping costs non-negative). Returns the subproblem
    /// plus the global plan id behind each subproblem plan.
    fn conditioned_subproblem(
        &self,
        problem: &MqoProblem,
        block: &[QueryId],
        eval: &CostEvaluator<'_>,
    ) -> (MqoProblem, Vec<PlanId>) {
        let in_block: std::collections::HashSet<QueryId> = block.iter().copied().collect();
        let selected_outside: Vec<PlanId> = problem
            .queries()
            .filter(|q| !in_block.contains(q))
            .map(|q| eval.selection().plan_of(q))
            .collect();
        let outside: std::collections::HashSet<PlanId> = selected_outside.into_iter().collect();

        // Discounted costs; remember the global ids.
        let mut discounted: Vec<(PlanId, f64)> = Vec::new();
        let mut min_cost: f64 = 0.0;
        for &q in block {
            for p in problem.plans_of(q) {
                let mut c = problem.plan_cost(p);
                for &(p2, s) in problem.savings_of(p) {
                    if outside.contains(&p2) {
                        c -= s;
                    }
                }
                min_cost = min_cost.min(c);
                discounted.push((p, c));
            }
        }
        let shift = -min_cost; // ≥ 0; uniform per plan keeps argmin intact

        let mut b = MqoProblem::builder();
        let mut global_ids = Vec::with_capacity(discounted.len());
        let mut local_of_global = std::collections::HashMap::new();
        let mut idx = 0usize;
        for &q in block {
            let costs: Vec<f64> = problem
                .plans_of(q)
                .map(|_| {
                    let c = discounted[idx].1 + shift;
                    idx += 1;
                    c
                })
                .collect();
            let local_q = b.add_query(&costs);
            for local_p in b.plans_of(local_q) {
                let global_p = discounted[global_ids.len()].0;
                local_of_global.insert(global_p, local_p);
                global_ids.push(global_p);
            }
        }
        // Intra-block savings.
        for &(p1, p2, s) in problem.savings() {
            if let (Some(&l1), Some(&l2)) = (local_of_global.get(&p1), local_of_global.get(&p2)) {
                b.add_saving(l1, l2, s).expect("valid intra-block saving");
            }
        }
        (b.build().expect("well-formed subproblem"), global_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_annealer::device::{DeviceConfig, QuantumAnnealer};
    use mqo_annealer::sqa::PathIntegralQmcSampler;
    use mqo_chimera::graph::ChimeraGraph;
    use mqo_milp::{bb_mqo, MqoBbConfig};
    use mqo_workload::generic::{self, RandomWorkloadConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn solver(cells: usize) -> QuantumMqoSolver<PathIntegralQmcSampler> {
        QuantumMqoSolver::new(
            ChimeraGraph::new(cells, cells),
            QuantumAnnealer::new(
                DeviceConfig {
                    num_reads: 60,
                    num_gauges: 6,
                    ..DeviceConfig::default()
                },
                PathIntegralQmcSampler::default(),
            ),
        )
    }

    fn big_problem(queries: usize, seed: u64) -> MqoProblem {
        generic::generate(
            &RandomWorkloadConfig {
                queries,
                plans_per_query: 3,
                savings_per_query: 3.0,
                ..RandomWorkloadConfig::default()
            },
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
    }

    #[test]
    fn decomposition_handles_problems_too_large_for_one_qubo() {
        // 30 queries × 3 plans = 90 plans; a 2×2 device hosts K8 cliques,
        // so a monolithic embedding is impossible but decomposition works.
        let problem = big_problem(30, 1);
        let s = solver(2);
        assert!(s.solve(&problem, 0).is_err(), "monolithic must fail");
        let out = s
            .solve_decomposed(&problem, &DecompositionConfig::default(), 0)
            .unwrap();
        assert!(problem.validate_selection(&out.best.0).is_ok());
        assert!((problem.selection_cost(&out.best.0) - out.best.1).abs() < 1e-9);
        assert!(out.blocks_solved >= 30 / 2);
    }

    #[test]
    fn decomposition_never_loses_to_greedy_and_improves_it() {
        let problem = big_problem(24, 2);
        let greedy_cost = problem.selection_cost(&Greedy::construct(&problem));
        let out = solver(2)
            .solve_decomposed(&problem, &DecompositionConfig::default(), 3)
            .unwrap();
        assert!(
            out.best.1 <= greedy_cost + 1e-9,
            "{} vs greedy {greedy_cost}",
            out.best.1
        );
        assert!(out.blocks_improved > 0, "should refine greedy somewhere");
    }

    #[test]
    fn decomposition_gets_close_to_the_exact_optimum() {
        let problem = big_problem(16, 3);
        let exact = bb_mqo::solve(&problem, &MqoBbConfig::default());
        let optimum = exact.best.1;
        let out = solver(3)
            .solve_decomposed(
                &problem,
                &DecompositionConfig {
                    rounds: 4,
                    ..DecompositionConfig::default()
                },
                7,
            )
            .unwrap();
        let gap = (out.best.1 - optimum) / optimum.abs().max(1e-9);
        assert!(
            gap <= 0.05,
            "decomposed {} vs optimum {optimum} (gap {:.1}%)",
            out.best.1,
            gap * 100.0
        );
    }

    #[test]
    fn trace_is_monotone_and_timed_in_device_microseconds() {
        let problem = big_problem(20, 4);
        let out = solver(2)
            .solve_decomposed(&problem, &DecompositionConfig::default(), 1)
            .unwrap();
        let pts = out.trace.points();
        assert!(!pts.is_empty());
        assert!(pts.windows(2).all(|w| w[1].value < w[0].value));
        assert_eq!(out.device_time.as_micros() % 376, 0);
        assert!(out.device_time >= pts.last().unwrap().elapsed);
    }

    #[test]
    fn blocks_shrink_to_the_largest_clique_a_defective_graph_places() {
        // Six dead qubits on a 4×4 graph (the small harness machine) break
        // the TRIAD K16 at every origin; blocks must shrink to fit.
        let mut graph = ChimeraGraph::new(4, 4);
        graph.break_random_qubits(6, &mut ChaCha8Rng::seed_from_u64(0xD_2016));
        let s = QuantumMqoSolver::new(graph, solver(1).device);
        let capacity = s.max_clique();
        assert!((3..16).contains(&capacity), "capacity {capacity}");
        let problem = big_problem(20, 6);
        let greedy_cost = problem.selection_cost(&Greedy::construct(&problem));
        let out = s
            .solve_decomposed(&problem, &DecompositionConfig::default(), 2)
            .expect("blocks sized to the placeable clique embed");
        assert!(problem.validate_selection(&out.best.0).is_ok());
        assert!(out.best.1 <= greedy_cost + 1e-9);
    }

    #[test]
    fn a_query_larger_than_a_block_is_a_typed_error() {
        let problem = big_problem(6, 7);
        let err = solver(2)
            .solve_decomposed(
                &problem,
                &DecompositionConfig {
                    block_plans: 2,
                    ..DecompositionConfig::default()
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::QueryExceedsBlock {
                plans: 3,
                block_plans: 2,
                ..
            }
        ));
    }

    #[test]
    fn conditioned_subproblem_matches_global_objective_up_to_constant() {
        let problem = big_problem(8, 5);
        let s = solver(3);
        let eval = CostEvaluator::new(&problem, Greedy::construct(&problem));
        let block: Vec<QueryId> = vec![QueryId(1), QueryId(4)];
        let (sub, globals) = s.conditioned_subproblem(&problem, &block, &eval);
        assert_eq!(sub.num_queries(), 2);
        assert_eq!(globals.len(), 6);

        // For every joint block choice, global Δcost must equal sub Δcost.
        let mut base_sel = eval.selection().clone();
        let sub_of = |a: usize, b: usize| {
            let plans = vec![
                sub.plans_of(QueryId(0)).nth(a).unwrap(),
                sub.plans_of(QueryId(1)).nth(b).unwrap(),
            ];
            sub.plan_set_cost(&plans)
        };
        let mut reference: Option<f64> = None;
        for a in 0..3 {
            for bidx in 0..3 {
                base_sel.set_plan(block[0], problem.plans_of(block[0]).nth(a).unwrap());
                base_sel.set_plan(block[1], problem.plans_of(block[1]).nth(bidx).unwrap());
                let global = problem.selection_cost(&base_sel);
                let local = sub_of(a, bidx);
                let diff = global - local;
                match reference {
                    None => reference = Some(diff),
                    Some(r) => assert!(
                        (diff - r).abs() < 1e-9,
                        "conditioning broke the objective: {diff} vs {r}"
                    ),
                }
            }
        }
    }
}
