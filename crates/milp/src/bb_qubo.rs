//! Exact anytime branch-and-bound on a QUBO — the role of
//! "LIN-QUB" in the paper's figures: the integer-programming solver applied
//! to the *transformed* problem the quantum annealer sees, rather than to
//! the MQO instance directly.
//!
//! The paper observes that LIN-QUB consistently trails LIN-MQO because the
//! QUBO reformulation blows up the search space with invalid selections that
//! the penalty terms must rule out; the same effect appears here through the
//! much looser decomposable bound over the penalty-laden energy formula.

use crate::bound::qubo_bound;
use mqo_core::ids::VarId;
use mqo_core::qubo::Qubo;
use mqo_core::trace::Trace;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

pub use crate::bb_mqo::StopReason;

/// Configuration for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuboBbConfig {
    /// Wall-clock budget; `None` runs to completion.
    pub deadline: Option<Duration>,
    /// Hard cap on explored nodes (0 = unlimited).
    pub node_limit: u64,
    /// Numerical slack when pruning against the incumbent.
    pub tolerance: f64,
    /// Cap on simultaneously open nodes; beyond it the worst-bound half is
    /// discarded (the optimality certificate is lost and the run reports
    /// [`StopReason::NodeLimit`] instead of `Optimal`).
    pub max_open_nodes: usize,
}

impl Default for QuboBbConfig {
    fn default() -> Self {
        QuboBbConfig {
            deadline: None,
            node_limit: 0,
            tolerance: 1e-9,
            max_open_nodes: 200_000,
        }
    }
}

/// Outcome of a QUBO branch-and-bound run.
#[derive(Debug, Clone)]
pub struct QuboBbOutcome {
    /// Best assignment found, with its energy. The root's greedy completion
    /// seeds it, so every run has one.
    pub best: (Vec<bool>, f64),
    /// Incumbent-improvement trace (energy over wall-clock time).
    pub trace: Trace,
    /// Whether and why the search terminated.
    pub stop: StopReason,
    /// Nodes expanded.
    pub nodes: u64,
    /// Root lower bound.
    pub root_bound: f64,
}

struct Node {
    bound: f64,
    depth: usize,
    /// Values for `order[0..depth]`.
    values: Vec<bool>,
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
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// Runs branch-and-bound on a QUBO.
pub fn solve(qubo: &Qubo, config: &QuboBbConfig) -> QuboBbOutcome {
    let start = Instant::now();
    let n = qubo.num_vars();
    let mut trace = Trace::new();

    // Static branching order: most "influential" variables first.
    let mut order: Vec<usize> = (0..n).collect();
    let influence: Vec<f64> = (0..n)
        .map(|i| {
            qubo.linear()[i].abs()
                + qubo
                    .neighbours(VarId::new(i))
                    .iter()
                    .map(|(_, w)| w.abs())
                    .sum::<f64>()
        })
        .collect();
    order.sort_by(|&a, &b| influence[b].total_cmp(&influence[a]));

    let mut fixed: Vec<Option<bool>> = vec![None; n];
    let root_bound = qubo_bound(qubo, &fixed);

    // Root incumbent.
    let greedy = greedy_completion(qubo, &fixed, &order);
    let greedy_energy = qubo.energy(&greedy);
    trace.record(start.elapsed(), greedy_energy);
    let mut best = (greedy, greedy_energy);

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: root_bound,
        depth: 0,
        values: Vec::new(),
    });

    let mut nodes = 0u64;
    let mut stop = StopReason::Optimal;
    let mut certificate_lost = false;
    while let Some(node) = heap.pop() {
        let incumbent = best.1;
        if node.bound >= incumbent - config.tolerance {
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
        if node.depth == n {
            continue; // complete leaf; bound was exact
        }

        // Materialise the node's fixation.
        fixed.fill(None);
        for (d, &v) in node.values.iter().enumerate() {
            fixed[order[d]] = Some(v);
        }

        // Incumbent from a greedy dive.
        let completion = greedy_completion(qubo, &fixed, &order);
        let energy = qubo.energy(&completion);
        if energy < incumbent - config.tolerance {
            trace.record(start.elapsed(), energy);
            best = (completion, energy);
        }

        let var = order[node.depth];
        for value in [false, true] {
            fixed[var] = Some(value);
            let child_bound = qubo_bound(qubo, &fixed);
            if child_bound < best.1 - config.tolerance {
                let mut values = node.values.clone();
                values.push(value);
                heap.push(Node {
                    bound: child_bound,
                    depth: node.depth + 1,
                    values,
                });
            }
        }
        fixed[var] = None;

        if config.max_open_nodes > 0 && heap.len() > config.max_open_nodes {
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

    QuboBbOutcome {
        best,
        trace,
        stop,
        nodes,
        root_bound,
    }
}

/// Greedy completion: unfixed variables (in branching order) take the value
/// minimising their local field against everything decided so far.
fn greedy_completion(qubo: &Qubo, fixed: &[Option<bool>], order: &[usize]) -> Vec<bool> {
    let n = qubo.num_vars();
    let mut x: Vec<bool> = (0..n).map(|i| fixed[i] == Some(true)).collect();
    let mut decided: Vec<bool> = fixed.iter().map(Option::is_some).collect();
    for &i in order {
        if decided[i] {
            continue;
        }
        let mut field = qubo.linear()[i];
        for &(j, w) in qubo.neighbours(VarId::new(i)) {
            if decided[j.index()] && x[j.index()] {
                field += w;
            }
        }
        x[i] = field < 0.0;
        decided[i] = true;
    }
    x
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

    fn random_qubo(next: &mut impl FnMut() -> u64, n: usize, density: u64) -> Qubo {
        let mut b = Qubo::builder(n);
        for i in 0..n {
            b.add_linear(VarId::new(i), ((next() % 15) as f64) - 7.0);
            for j in i + 1..n {
                if next() % 100 < density {
                    b.add_quadratic(VarId::new(i), VarId::new(j), ((next() % 9) as f64) - 4.0);
                }
            }
        }
        b.build()
    }

    #[test]
    fn finds_and_proves_the_minimum_on_random_quboss() {
        let mut next = rng_stream(0xBADA55);
        for case in 0..25 {
            let q = random_qubo(&mut next, 4 + (case % 7), 60);
            let (_, opt) = q.brute_force_minimum();
            let out = solve(&q, &QuboBbConfig::default());
            assert_eq!(out.stop, StopReason::Optimal, "case {case}");
            let (x, e) = out.best;
            assert!((e - opt).abs() < 1e-9, "case {case}: {e} vs {opt}");
            assert!((q.energy(&x) - e).abs() < 1e-9);
            assert!(out.root_bound <= opt + 1e-9);
        }
    }

    #[test]
    fn solves_the_paper_example_qubo() {
        use mqo_core::logical::LogicalMapping;
        use mqo_core::problem::MqoProblem;
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let p2 = b.plans_of(q1)[1];
        let p3 = b.plans_of(q2)[0];
        b.add_saving(p2, p3, 5.0).unwrap();
        let p = b.build().unwrap();
        let m = LogicalMapping::new(&p, 0.25);
        let out = solve(m.qubo(), &QuboBbConfig::default());
        let (x, _) = out.best;
        assert_eq!(x, vec![false, true, true, false]);
        assert_eq!(out.stop, StopReason::Optimal);
    }

    #[test]
    fn deadline_preserves_an_incumbent() {
        let mut next = rng_stream(0x747);
        let q = random_qubo(&mut next, 30, 30);
        let out = solve(
            &q,
            &QuboBbConfig {
                deadline: Some(Duration::ZERO),
                ..QuboBbConfig::default()
            },
        );
        assert_eq!(out.stop, StopReason::Deadline);
        let (x, e) = out.best;
        assert!((q.energy(&x) - e).abs() < 1e-9);
    }

    #[test]
    fn trace_is_strictly_improving() {
        let mut next = rng_stream(0x31337);
        let q = random_qubo(&mut next, 12, 70);
        let out = solve(&q, &QuboBbConfig::default());
        let pts = out.trace.points();
        assert!(!pts.is_empty());
        assert!(pts.windows(2).all(|w| w[1].value < w[0].value));
    }

    #[test]
    fn node_limit_is_honoured() {
        let mut next = rng_stream(0x888);
        let q = random_qubo(&mut next, 20, 50);
        let out = solve(
            &q,
            &QuboBbConfig {
                node_limit: 5,
                ..QuboBbConfig::default()
            },
        );
        assert!(out.nodes <= 6);
    }

    #[test]
    fn greedy_completion_respects_fixed_values() {
        let mut next = rng_stream(0x2222);
        let q = random_qubo(&mut next, 8, 60);
        let mut fixed = vec![None; 8];
        fixed[3] = Some(true);
        fixed[5] = Some(false);
        let order: Vec<usize> = (0..8).collect();
        let x = greedy_completion(&q, &fixed, &order);
        assert!(x[3]);
        assert!(!x[5]);
    }
}
