//! Multi-backend routing: the paper's representability split as a service
//! policy.
//!
//! Section 6 of the paper derives which MQO problem dimensions fit the
//! Chimera qubit matrix; Section 7 runs exactly those instances on the
//! annealer and leaves the rest to classical algorithms. The router encodes
//! that decision per request: instances inside the (possibly
//! fault-degraded) capacity bound go to the annealer, instances beyond it
//! go to MILP branch-and-bound when they are small enough to finish within
//! a service budget, and to iterated hill climbing otherwise.

use crate::api::Backend;
use mqo_chimera::capacity;
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::problem::MqoProblem;
use serde::{Deserialize, Serialize};

/// Routing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RouterConfig {
    /// Queries at or below this bound route to MILP when the annealer
    /// cannot host the instance; larger instances go to hill climbing
    /// (branch-and-bound beyond ~tens of queries blows the latency budget).
    pub milp_max_queries: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            milp_max_queries: 14,
        }
    }
}

/// A routing decision with its justification (returned in the response and
/// useful in logs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteDecision {
    /// Where the request goes.
    pub backend: Backend,
    /// Human-readable reason.
    pub reason: String,
}

/// Decides the backend for one instance on one device graph.
pub fn route(problem: &MqoProblem, graph: &ChimeraGraph, cfg: &RouterConfig) -> RouteDecision {
    let effective_qubits = graph.num_working_qubits();

    // A TRIAD clique hosts up to 4·min(rows, cols) chains regardless of the
    // savings structure — the unconditional representability bound.
    let clique_cap = 4 * graph.rows().min(graph.cols());
    let clique_fits = problem.num_plans() <= clique_cap;

    // The clustered capacity bound of Section 6: uniform queries of the
    // instance's worst plan count against the working qubits.
    let max_plans = problem
        .queries()
        .map(|q| problem.num_plans_of(q))
        .max()
        .unwrap_or(0);
    let clustered_cap = capacity::max_queries(effective_qubits, max_plans);
    let clustered_fits = clustered_cap >= problem.num_queries();

    if clique_fits || clustered_fits {
        let reason = if clique_fits {
            format!(
                "{} plans fit a TRIAD clique (capacity {clique_cap})",
                problem.num_plans()
            )
        } else {
            format!(
                "{} queries x {max_plans} plans within clustered capacity {clustered_cap} \
                 ({effective_qubits} effective qubits)",
                problem.num_queries()
            )
        };
        return RouteDecision {
            backend: Backend::Annealer,
            reason,
        };
    }

    if problem.num_queries() <= cfg.milp_max_queries {
        RouteDecision {
            backend: Backend::Milp,
            reason: format!(
                "over annealer capacity (clique {clique_cap}, clustered {clustered_cap}); \
                 {} queries within MILP bound {}",
                problem.num_queries(),
                cfg.milp_max_queries
            ),
        }
    } else {
        RouteDecision {
            backend: Backend::HillClimbing,
            reason: format!(
                "over annealer capacity and MILP bound ({} queries > {})",
                problem.num_queries(),
                cfg.milp_max_queries
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `queries` uniform queries with `plans` plans each, chained savings.
    fn uniform_problem(queries: usize, plans: usize) -> MqoProblem {
        let mut b = MqoProblem::builder();
        let mut prev = None;
        for _ in 0..queries {
            let q = b.add_query(&vec![1.0; plans]);
            let first = b.plans_of(q)[0];
            if let Some(p) = prev {
                b.add_saving(p, first, 0.5).unwrap();
            }
            prev = Some(first);
        }
        b.build().unwrap()
    }

    #[test]
    fn small_instances_route_to_the_annealer() {
        let g = ChimeraGraph::new(2, 2);
        let d = route(&uniform_problem(3, 2), &g, &RouterConfig::default());
        assert_eq!(d.backend, Backend::Annealer);
        assert!(d.reason.contains("TRIAD"), "{}", d.reason);
    }

    #[test]
    fn clustered_capacity_admits_beyond_the_clique_bound() {
        // 12×12 machine: clique caps at 48 plans, but 100 two-plan queries
        // (200 plans) fit the clustered pattern (576 queries).
        let g = ChimeraGraph::dwave_2x();
        let d = route(&uniform_problem(100, 2), &g, &RouterConfig::default());
        assert_eq!(d.backend, Backend::Annealer);
        assert!(d.reason.contains("clustered"), "{}", d.reason);
    }

    #[test]
    fn over_capacity_instances_split_between_milp_and_climbing() {
        let g = ChimeraGraph::new(1, 1); // 8 qubits: 4 two-plan queries max
        let cfg = RouterConfig::default();
        let d = route(&uniform_problem(10, 2), &g, &cfg);
        assert_eq!(d.backend, Backend::Milp);
        let d = route(&uniform_problem(cfg.milp_max_queries + 1, 2), &g, &cfg);
        assert_eq!(d.backend, Backend::HillClimbing);
    }
}
