//! Heuristic minor embedding for arbitrary sparse interaction graphs — the
//! "new mapping … algorithms that might allow to represent significantly
//! larger problem instances with the given connectivity" the paper's
//! Section 7 announces as ongoing work.
//!
//! The algorithm is a simplified Cai–Macready–Roy search: variables are
//! placed one at a time (highest interaction degree first, shuffled on
//! retries); each new variable picks a root qubit minimising the total
//! number of free qubits needed to reach all of its already-placed
//! neighbours' chains, then claims the connecting BFS paths as its chain.
//! No chain ripping/refinement is attempted — for the sparse,
//! grid-structured interaction graphs MQO instances produce this already
//! beats the TRIAD clique pattern by a wide margin in qubit consumption,
//! because a TRIAD pays for all `n(n−1)/2` potential couplings while a
//! sparse instance needs only its actual edges.

use super::{Embedding, EmbeddingError};
use crate::graph::{ChimeraGraph, QubitId};
use mqo_core::ids::VarId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Attempts to embed the interaction graph (`num_vars` variables, unordered
/// `edges`) into `graph`, making `tries` placement attempts with shuffled
/// orders. Returns the first embedding whose chains realise every edge.
///
/// Fails with [`EmbeddingError::InsufficientCapacity`] when the graph has
/// fewer working qubits than variables, and with
/// [`EmbeddingError::NotFound`] when every attempt fails.
pub fn find_embedding(
    num_vars: usize,
    edges: &[(VarId, VarId)],
    graph: &ChimeraGraph,
    rng: &mut impl Rng,
    tries: usize,
) -> Result<Embedding, EmbeddingError> {
    assert!(tries >= 1, "need at least one attempt");
    for &(a, b) in edges {
        assert!(
            a.index() < num_vars && b.index() < num_vars,
            "edge out of range"
        );
        assert_ne!(a, b, "self-edges are not quadratic terms");
    }
    if num_vars == 0 {
        return Embedding::new(Vec::new(), graph.num_qubits());
    }
    if num_vars > graph.num_working_qubits() {
        return Err(EmbeddingError::InsufficientCapacity {
            requested: num_vars,
            available: graph.num_working_qubits(),
        });
    }

    // Adjacency of the logical interaction graph.
    let mut adjacency: Vec<Vec<VarId>> = vec![Vec::new(); num_vars];
    for &(a, b) in edges {
        if !adjacency[a.index()].contains(&b) {
            adjacency[a.index()].push(b);
            adjacency[b.index()].push(a);
        }
    }

    // Degree-descending base order.
    let mut base_order: Vec<usize> = (0..num_vars).collect();
    base_order.sort_by_key(|&v| std::cmp::Reverse(adjacency[v].len()));

    for attempt in 0..tries {
        let mut order = base_order.clone();
        if attempt > 0 {
            order.shuffle(rng);
        }
        if let Some(chains) = try_place(&order, &adjacency, graph, rng) {
            let embedding = Embedding::new(chains, graph.num_qubits())?;
            embedding.verify(graph, edges.iter().copied())?;
            return Ok(embedding);
        }
    }
    Err(EmbeddingError::NotFound {
        variables: num_vars,
        tries,
    })
}

/// One placement attempt in `order`; `None` when some variable finds no
/// free qubit to seed or connect its chain.
fn try_place(
    order: &[usize],
    adjacency: &[Vec<VarId>],
    graph: &ChimeraGraph,
    rng: &mut impl Rng,
) -> Option<Vec<Vec<QubitId>>> {
    let num_vars = adjacency.len();
    let mut chains: Vec<Vec<QubitId>> = vec![Vec::new(); num_vars];
    let mut owner: Vec<Option<usize>> = vec![None; graph.num_qubits()];

    for &v in order {
        let placed_neighbours: Vec<usize> = adjacency[v]
            .iter()
            .map(|n| n.index())
            .filter(|&n| !chains[n].is_empty())
            .collect();

        if placed_neighbours.is_empty() {
            // Seed anywhere free, preferring well-connected qubits.
            let mut candidates: Vec<QubitId> = (0..graph.num_qubits() as u32)
                .map(QubitId)
                .filter(|&q| graph.is_working(q) && owner[q.index()].is_none())
                .collect();
            if candidates.is_empty() {
                return None;
            }
            candidates.shuffle(rng);
            let seed = *candidates
                .iter()
                .max_by_key(|&&q| free_degree(graph, &owner, q))
                .expect("non-empty");
            owner[seed.index()] = Some(v);
            chains[v] = vec![seed];
            continue;
        }

        // One BFS per placed neighbour over *free* qubits; dist counts the
        // free qubits that must be claimed to connect (root inclusive).
        let mut dists: Vec<Vec<u32>> = Vec::with_capacity(placed_neighbours.len());
        let mut parents: Vec<Vec<Option<QubitId>>> = Vec::with_capacity(placed_neighbours.len());
        for &u in &placed_neighbours {
            let (dist, parent) = bfs_from_chain(graph, &owner, &chains[u]);
            dists.push(dist);
            parents.push(parent);
        }

        // Root minimising the total claim count (counting the root once).
        let mut best: Option<(u64, QubitId)> = None;
        for idx in 0..graph.num_qubits() {
            let q = QubitId(idx as u32);
            if owner[idx].is_some() || !graph.is_working(q) {
                continue;
            }
            let mut total: u64 = 1; // the root itself
            let mut reachable = true;
            for dist in &dists {
                if dist[idx] == u32::MAX {
                    reachable = false;
                    break;
                }
                total += u64::from(dist[idx].saturating_sub(1)); // path minus root
            }
            if reachable && best.is_none_or(|(t, _)| total < t) {
                best = Some((total, q));
            }
        }
        let (_, root) = best?;

        // Claim the root plus each connecting path.
        let mut chain = vec![root];
        owner[root.index()] = Some(v);
        for parent in &parents {
            let mut cursor = root;
            while let Some(next) = parent[cursor.index()] {
                if owner[next.index()].is_none() {
                    owner[next.index()] = Some(v);
                    chain.push(next);
                }
                cursor = next;
            }
        }
        chains[v] = chain;
    }

    Some(chains)
}

fn free_degree(graph: &ChimeraGraph, owner: &[Option<usize>], q: QubitId) -> usize {
    graph
        .neighbours(q)
        .into_iter()
        .filter(|n| owner[n.index()].is_none())
        .count()
}

/// BFS over free qubits starting from the free frontier of `chain`.
/// `dist[q]` = number of free qubits to claim to connect `q` to the chain
/// (1 when `q` touches the chain directly); `parent[q]` points one step
/// towards the chain (`None` at the frontier).
fn bfs_from_chain(
    graph: &ChimeraGraph,
    owner: &[Option<usize>],
    chain: &[QubitId],
) -> (Vec<u32>, Vec<Option<QubitId>>) {
    let mut dist = vec![u32::MAX; graph.num_qubits()];
    let mut parent: Vec<Option<QubitId>> = vec![None; graph.num_qubits()];
    let mut queue = VecDeque::new();
    for &cq in chain {
        for n in graph.neighbours(cq) {
            if owner[n.index()].is_none() && dist[n.index()] == u32::MAX {
                dist[n.index()] = 1;
                queue.push_back(n);
            }
        }
    }
    while let Some(q) = queue.pop_front() {
        for n in graph.neighbours(q) {
            if owner[n.index()].is_none() && dist[n.index()] == u32::MAX {
                dist[n.index()] = dist[q.index()] + 1;
                parent[n.index()] = Some(q);
                queue.push_back(n);
            }
        }
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::triad;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path_edges(n: usize) -> Vec<(VarId, VarId)> {
        (0..n - 1)
            .map(|i| (VarId::new(i), VarId::new(i + 1)))
            .collect()
    }

    fn grid_edges(side: usize) -> Vec<(VarId, VarId)> {
        let mut e = Vec::new();
        let id = |r: usize, c: usize| VarId::new(r * side + c);
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    e.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < side {
                    e.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        e
    }

    #[test]
    fn embeds_paths_with_short_chains() {
        let graph = ChimeraGraph::new(3, 3);
        let edges = path_edges(20);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let e = find_embedding(20, &edges, &graph, &mut rng, 8).unwrap();
        e.verify(&graph, edges.iter().copied()).unwrap();
        assert!(
            e.qubits_per_variable() <= 2.5,
            "paths should embed economically, got {:.2}",
            e.qubits_per_variable()
        );
    }

    #[test]
    fn embeds_grids_that_triad_cannot_fit() {
        // A 5×5 grid graph = 25 variables. The TRIAD clique for 25 vars
        // needs a 7×7 cell block — far more than a 4×4 graph offers — but
        // the sparse embedder fits it (no chain refinement, so denser grids
        // would need a bigger target; see the module docs).
        let graph = ChimeraGraph::new(4, 4);
        let edges = grid_edges(5);
        assert!(triad::triad(&graph, 0, 0, 25).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let e = find_embedding(25, &edges, &graph, &mut rng, 32).unwrap();
        e.verify(&graph, edges.iter().copied()).unwrap();
        assert!(e.qubits_used() < 8 * 16);
    }

    #[test]
    fn beats_triad_on_sparse_instances() {
        let graph = ChimeraGraph::new(4, 4);
        let n = 16;
        let edges = path_edges(n);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sparse = find_embedding(n, &edges, &graph, &mut rng, 8).unwrap();
        let clique = triad::triad(&graph, 0, 0, n).unwrap();
        assert!(
            sparse.qubits_used() < clique.qubits_used() / 2,
            "sparse {} vs clique {}",
            sparse.qubits_used(),
            clique.qubits_used()
        );
    }

    #[test]
    fn handles_disconnected_and_isolated_variables() {
        let graph = ChimeraGraph::new(2, 2);
        // Two components plus an isolated variable 4.
        let edges = vec![(VarId(0), VarId(1)), (VarId(2), VarId(3))];
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let e = find_embedding(5, &edges, &graph, &mut rng, 8).unwrap();
        e.verify(&graph, edges.iter().copied()).unwrap();
        assert_eq!(e.num_vars(), 5);
    }

    #[test]
    fn works_around_broken_qubits() {
        let graph = ChimeraGraph::new(2, 2);
        let broken: Vec<QubitId> = (0..8).map(QubitId).collect(); // kill cell (0,0)
        let graph = graph.with_broken(&broken);
        let edges = path_edges(8);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let e = find_embedding(8, &edges, &graph, &mut rng, 8).unwrap();
        e.verify(&graph, edges.iter().copied()).unwrap();
        for chain in e.chains() {
            for q in chain {
                assert!(graph.is_working(*q));
            }
        }
    }

    #[test]
    fn fails_cleanly_when_capacity_is_exhausted() {
        let graph = ChimeraGraph::new(1, 1);
        // A 9-clique cannot fit 8 qubits.
        let mut edges = Vec::new();
        for i in 0..9 {
            for j in i + 1..9 {
                edges.push((VarId::new(i), VarId::new(j)));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let err = find_embedding(9, &edges, &graph, &mut rng, 4).unwrap_err();
        assert!(matches!(err, EmbeddingError::InsufficientCapacity { .. }));
    }

    #[test]
    fn a_failed_search_within_capacity_is_not_found() {
        // 16 working qubits exceed 9 variables, but no K9 minor fits in
        // two Chimera cells.
        let graph = ChimeraGraph::new(2, 1);
        let mut edges = Vec::new();
        for i in 0..9 {
            for j in i + 1..9 {
                edges.push((VarId::new(i), VarId::new(j)));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let err = find_embedding(9, &edges, &graph, &mut rng, 4).unwrap_err();
        assert_eq!(
            err,
            EmbeddingError::NotFound {
                variables: 9,
                tries: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "no embedding of 9 variables found in 4 tries"
        );
    }

    #[test]
    fn end_to_end_with_physical_mapping() {
        // Heuristic embedding feeds the physical mapping and the ground
        // state still decodes to the logical optimum.
        use crate::physical::PhysicalMapping;
        use mqo_core::qubo::Qubo;
        let graph = ChimeraGraph::new(2, 2);
        let mut b = Qubo::builder(5);
        for i in 0..5u32 {
            b.add_linear(VarId(i), f64::from(i) - 2.0);
        }
        for i in 0..4u32 {
            b.add_quadratic(VarId(i), VarId(i + 1), if i % 2 == 0 { 2.0 } else { -1.5 });
        }
        let qubo = b.build();
        let edges: Vec<(VarId, VarId)> =
            qubo.quadratic().iter().map(|&(a, bb, _)| (a, bb)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let e = find_embedding(5, &edges, &graph, &mut rng, 8).unwrap();
        let pm = PhysicalMapping::new(&qubo, e, &graph, 0.25).unwrap();
        assert!(pm.num_physical_vars() <= 20);
        let (phys, _) = pm.physical_qubo().brute_force_minimum();
        let un = pm.unembed(&phys);
        assert_eq!(un.broken_chains, 0);
        assert_eq!(un.logical, qubo.brute_force_minimum().0);
    }

    #[test]
    fn deterministic_given_the_rng_seed() {
        let graph = ChimeraGraph::new(3, 3);
        let edges = grid_edges(4);
        let a = find_embedding(16, &edges, &graph, &mut ChaCha8Rng::seed_from_u64(9), 8).unwrap();
        let b = find_embedding(16, &edges, &graph, &mut ChaCha8Rng::seed_from_u64(9), 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_self_edges_and_out_of_range() {
        let graph = ChimeraGraph::new(1, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let self_edge = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = find_embedding(2, &[(VarId(0), VarId(0))], &graph, &mut rng, 1);
        }));
        assert!(self_edge.is_err());
    }
}
