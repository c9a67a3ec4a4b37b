//! Exact anytime branch-and-bound on the direct MQO formulation — the role
//! of "LIN-MQO" (integer linear programming applied to MQO) in the paper's
//! figures.
//!
//! Best-first search over per-query plan fixations, branching on the query
//! with the largest regret. Every bound, the root's included, comes from the
//! decomposable [`MqoBound`]; no LP is solved. Every node greedily completes
//! its partial assignment, so incumbents improve from the first milliseconds
//! on — the anytime behaviour Figures 4 and 5 plot.

use crate::bound::{MqoBound, MqoBoundResult};
use mqo_core::ids::{PlanId, QueryId};
use mqo_core::problem::MqoProblem;
use mqo_core::solution::Selection;
use mqo_core::trace::Trace;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Configuration for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MqoBbConfig {
    /// Wall-clock budget; `None` runs to completion.
    pub deadline: Option<Duration>,
    /// Hard cap on explored nodes (0 = unlimited).
    pub node_limit: u64,
    /// Numerical slack when pruning against the incumbent.
    pub tolerance: f64,
    /// Cap on simultaneously open nodes; beyond it the worst-bound half is
    /// discarded (memory stays bounded, the optimality certificate is lost
    /// and the run reports [`StopReason::NodeLimit`] instead of `Optimal`).
    pub max_open_nodes: usize,
}

impl Default for MqoBbConfig {
    fn default() -> Self {
        MqoBbConfig {
            deadline: None,
            node_limit: 0,
            tolerance: 1e-9,
            max_open_nodes: 200_000,
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted: the incumbent is proved optimal.
    Optimal,
    /// The deadline expired first.
    Deadline,
    /// The node limit was reached first.
    NodeLimit,
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MqoBbOutcome {
    /// Best solution found, with its cost. The greedy root completion is
    /// the first incumbent, so there always is one.
    pub best: (Selection, f64),
    /// Incumbent-improvement trace (cost over wall-clock time).
    pub trace: Trace,
    /// Whether and why the search terminated.
    pub stop: StopReason,
    /// Nodes expanded.
    pub nodes: u64,
    /// The root lower bound ([`MqoBound`] with nothing fixed).
    pub root_bound: f64,
}

struct Node {
    bound: f64,
    /// Plans fixed so far, one per fixed query (queries identified via the
    /// plan's owner).
    fixed: Vec<PlanId>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on bound; deeper nodes win ties (dive towards leaves).
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.fixed.len().cmp(&other.fixed.len()))
    }
}

/// Runs branch-and-bound on an MQO instance.
pub fn solve(problem: &MqoProblem, config: &MqoBbConfig) -> MqoBbOutcome {
    let start = Instant::now();
    let mut bound = MqoBound::new(problem);
    let mut trace = Trace::new();
    let mut nodes = 0u64;

    let root_bound = bound.evaluate(&[]).bound;

    // Root incumbent.
    let greedy = greedy_completion(problem, &[]);
    let greedy_cost = problem.selection_cost(&greedy);
    trace.record(start.elapsed(), greedy_cost);
    let mut best = (greedy, greedy_cost);

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: root_bound,
        fixed: Vec::new(),
    });

    let mut stop = StopReason::Optimal;
    let mut certificate_lost = false;
    while let Some(node) = heap.pop() {
        let incumbent = best.1;
        if node.bound >= incumbent - config.tolerance {
            // Best-first: every remaining node is at least as bad.
            break;
        }
        if let Some(deadline) = config.deadline {
            if start.elapsed() >= deadline {
                stop = StopReason::Deadline;
                break;
            }
        }
        nodes += 1;
        if config.node_limit > 0 && nodes > config.node_limit {
            stop = StopReason::NodeLimit;
            break;
        }

        let eval = bound.evaluate(&node.fixed);
        if eval.per_query.is_empty() {
            // Leaf: a complete assignment. (Bound == exact cost here.)
            continue;
        }

        // Greedy incumbent from this node's fixation.
        let completion = greedy_completion(problem, &node.fixed);
        let cost = problem.selection_cost(&completion);
        if cost < incumbent - config.tolerance {
            trace.record(start.elapsed(), cost);
            best = (completion, cost);
        }

        // Branch on the unfixed query with the largest regret.
        let target = branch_query(&eval);
        for plan in problem.plans_of(target) {
            let mut fixed = node.fixed.clone();
            fixed.push(plan);
            let child = bound.evaluate(&fixed);
            if child.bound < best.1 - config.tolerance {
                heap.push(Node {
                    bound: child.bound,
                    fixed,
                });
            }
        }

        if config.max_open_nodes > 0 && heap.len() > config.max_open_nodes {
            // Keep the best-bound half; the proof is gone but the anytime
            // behaviour (and memory) survive.
            let mut nodes_vec = heap.into_vec();
            nodes_vec.sort_by(|a, b| a.bound.total_cmp(&b.bound));
            nodes_vec.truncate(config.max_open_nodes / 2);
            heap = BinaryHeap::from(nodes_vec);
            certificate_lost = true;
        }
    }
    if certificate_lost && stop == StopReason::Optimal {
        stop = StopReason::NodeLimit;
    }

    MqoBbOutcome {
        best,
        trace,
        stop,
        nodes,
        root_bound,
    }
}

fn branch_query(eval: &MqoBoundResult) -> QueryId {
    eval.per_query
        .iter()
        .max_by(|a, b| a.regret.total_cmp(&b.regret))
        .expect("at least one unfixed query")
        .query
}

/// Completes a partial fixation greedily: remaining queries (in id order)
/// pick the plan with the lowest marginal cost against everything chosen so
/// far. `O(|P| + |S|)`.
pub fn greedy_completion(problem: &MqoProblem, fixed: &[PlanId]) -> Selection {
    let mut chosen: Vec<Option<PlanId>> = vec![None; problem.num_queries()];
    let mut selected = vec![false; problem.num_plans()];
    for &p in fixed {
        chosen[problem.query_of(p).index()] = Some(p);
        selected[p.index()] = true;
    }
    for q in problem.queries() {
        if chosen[q.index()].is_some() {
            continue;
        }
        let mut best = f64::INFINITY;
        let mut best_plan = None;
        for p in problem.plans_of(q) {
            let mut marginal = problem.plan_cost(p);
            for &(p2, s) in problem.savings_of(p) {
                if selected[p2.index()] {
                    marginal -= s;
                }
            }
            if marginal < best {
                best = marginal;
                best_plan = Some(p);
            }
        }
        let p = best_plan.expect("non-empty query");
        chosen[q.index()] = Some(p);
        selected[p.index()] = true;
    }
    Selection::new(chosen.into_iter().map(|p| p.expect("all fixed")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn random_problem(next: &mut impl FnMut() -> u64, queries: usize, plans: usize) -> MqoProblem {
        let mut b = MqoProblem::builder();
        for _ in 0..queries {
            let costs: Vec<f64> = (0..plans).map(|_| 1.0 + (next() % 9) as f64).collect();
            b.add_query(&costs);
        }
        let total = queries * plans;
        for _ in 0..(3 * queries) {
            let p1 = (next() % total as u64) as usize;
            let p2 = (next() % total as u64) as usize;
            let _ = b.add_saving(PlanId::new(p1), PlanId::new(p2), 1.0 + (next() % 2) as f64);
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_and_proves_the_optimum_on_random_small_instances() {
        let mut next = rng_stream(0xFEED);
        for case in 0..25 {
            let p = random_problem(&mut next, 3 + (case % 4), 2 + (case % 2));
            let (_, opt) = p.brute_force_optimum();
            let out = solve(&p, &MqoBbConfig::default());
            assert_eq!(out.stop, StopReason::Optimal, "case {case}");
            let (sel, cost) = out.best;
            assert!((cost - opt).abs() < 1e-9, "case {case}: {cost} vs {opt}");
            assert!(p.validate_selection(&sel).is_ok());
            assert!((p.selection_cost(&sel) - cost).abs() < 1e-9);
            assert!(out.root_bound <= opt + 1e-9);
        }
    }

    #[test]
    fn solves_the_paper_example() {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let p2 = b.plans_of(q1)[1];
        let p3 = b.plans_of(q2)[0];
        b.add_saving(p2, p3, 5.0).unwrap();
        let p = b.build().unwrap();
        let out = solve(&p, &MqoBbConfig::default());
        let (sel, cost) = out.best;
        assert_eq!(cost, 2.0);
        assert_eq!(sel.plans(), &[PlanId(1), PlanId(2)]);
        assert_eq!(out.stop, StopReason::Optimal);
    }

    #[test]
    fn trace_is_monotone_and_ends_at_the_optimum() {
        let mut next = rng_stream(0xBEE);
        let p = random_problem(&mut next, 8, 3);
        let out = solve(&p, &MqoBbConfig::default());
        let points = out.trace.points();
        assert!(!points.is_empty());
        assert!(points.windows(2).all(|w| w[1].value < w[0].value));
        let cost = out.best.1;
        assert_eq!(out.trace.best(), Some(cost));
    }

    #[test]
    fn deadline_stops_the_search_but_keeps_an_incumbent() {
        let mut next = rng_stream(0xACE);
        let p = random_problem(&mut next, 14, 3);
        let out = solve(
            &p,
            &MqoBbConfig {
                deadline: Some(Duration::ZERO),
                ..MqoBbConfig::default()
            },
        );
        assert_eq!(out.stop, StopReason::Deadline);
        let (sel, _) = out.best;
        assert!(p.validate_selection(&sel).is_ok());
    }

    #[test]
    fn node_limit_is_honoured() {
        let mut next = rng_stream(0xC0FFEE);
        let p = random_problem(&mut next, 12, 3);
        let out = solve(
            &p,
            &MqoBbConfig {
                node_limit: 3,
                ..MqoBbConfig::default()
            },
        );
        assert!(out.nodes <= 4);
        assert!(p.validate_selection(&out.best.0).is_ok());
    }

    #[test]
    fn greedy_completion_respects_fixed_plans() {
        let mut next = rng_stream(0x5151);
        let p = random_problem(&mut next, 5, 2);
        let fix = p.plans_of(QueryId(2)).nth(1).unwrap();
        let sel = greedy_completion(&p, &[fix]);
        assert_eq!(sel.plan_of(QueryId(2)), fix);
        assert!(p.validate_selection(&sel).is_ok());
    }

    #[test]
    fn larger_instances_with_sparse_savings_are_proved_quickly() {
        // A 40-query chain-structured instance — shaped like the paper's
        // hardware-adjacent workloads.
        let mut b = MqoProblem::builder();
        let mut plans = Vec::new();
        for i in 0..40 {
            let q = b.add_query(&[2.0 + (i % 3) as f64, 3.0]);
            plans.push(b.plans_of(q));
        }
        for w in plans.windows(2) {
            b.add_saving(w[0][1], w[1][1], 2.0).unwrap();
        }
        let p = b.build().unwrap();
        let out = solve(&p, &MqoBbConfig::default());
        assert_eq!(out.stop, StopReason::Optimal);
        // The all-shared selection: every query picks plan 1 at cost 3,
        // saving 2 per adjacent pair: 40·3 − 39·2 = 42. The alternative
        // no-sharing floor is Σ min(c) ≥ 40·2 = 80 > 42 only when i%3==0...
        // just verify against greedy and bound consistency.
        let cost = out.best.1;
        assert!(cost <= 42.0 + 1e-9);
        assert!(out.root_bound <= cost + 1e-9);
    }
}
