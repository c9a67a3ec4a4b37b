//! Minor embeddings: mapping logical QUBO variables onto chains of physical
//! qubits (Section 5 of the paper).
//!
//! An [`Embedding`] assigns each logical variable a *chain* — a connected,
//! non-empty group of functional qubits — such that chains are pairwise
//! disjoint and every quadratic term of the logical energy formula can be
//! placed on at least one physical coupler between the two chains involved.
//!
//! Two concrete pattern generators are provided, mirroring the paper:
//!
//! * [`triad`] — Choi's TRIAD pattern (Figure 2), which connects *every* pair
//!   of chains and therefore embeds arbitrary QUBOs, at a quadratic cost in
//!   qubits (Theorem 3);
//! * [`clustered`] — the clustered pattern (Figure 3), which embeds one TRIAD
//!   per query cluster and exposes the sparse inter-cluster couplers for work
//!   sharing, growing only linearly in the number of clusters.

pub mod clustered;
pub mod heuristic;
pub mod triad;

use crate::graph::{ChimeraGraph, QubitId};
use mqo_core::ids::VarId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Errors detected while constructing or verifying an embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddingError {
    /// A variable was assigned no qubits.
    EmptyChain(VarId),
    /// Two chains claim the same qubit.
    OverlappingChains(QubitId),
    /// A chain uses a qubit outside the graph.
    QubitOutOfRange(QubitId),
    /// A chain uses a broken qubit, which makes the whole chain unusable
    /// (Figure 2(d) of the paper).
    BrokenQubit(VarId, QubitId),
    /// A chain is not connected through couplers, so its qubits cannot be
    /// forced to behave as one bit.
    DisconnectedChain(VarId),
    /// A required logical edge has no physical coupler between the chains.
    MissingEdge(VarId, VarId),
    /// The requested structure does not fit on the graph.
    InsufficientCapacity {
        /// What was requested (e.g. logical variables or queries).
        requested: usize,
        /// What the graph can host.
        available: usize,
    },
    /// A heuristic search within the graph's capacity found no embedding.
    NotFound {
        /// Logical variables to embed.
        variables: usize,
        /// Attempts made.
        tries: usize,
    },
}

impl std::fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingError::EmptyChain(v) => write!(f, "variable {v} has an empty chain"),
            EmbeddingError::OverlappingChains(q) => {
                write!(f, "qubit {q} belongs to more than one chain")
            }
            EmbeddingError::QubitOutOfRange(q) => write!(f, "qubit {q} is out of range"),
            EmbeddingError::BrokenQubit(v, q) => {
                write!(f, "chain of variable {v} uses broken qubit {q}")
            }
            EmbeddingError::DisconnectedChain(v) => {
                write!(f, "chain of variable {v} is not connected")
            }
            EmbeddingError::MissingEdge(a, b) => {
                write!(f, "no coupler connects the chains of {a} and {b}")
            }
            EmbeddingError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} but the graph only supports {available}"
            ),
            EmbeddingError::NotFound { variables, tries } => {
                write!(
                    f,
                    "no embedding of {variables} variables found in {tries} tries"
                )
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

/// A minor embedding: one chain of physical qubits per logical variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    chains: Vec<Vec<QubitId>>,
    /// `owner[q]` — which variable, if any, occupies qubit `q`.
    owner: Vec<Option<VarId>>,
}

impl Embedding {
    /// Wraps per-variable chains, checking only structural disjointness and
    /// non-emptiness. Graph-dependent properties (working qubits, chain
    /// connectivity, edge realisability) are checked by [`Embedding::verify`].
    pub fn new(chains: Vec<Vec<QubitId>>, num_qubits: usize) -> Result<Self, EmbeddingError> {
        let mut owner = vec![None; num_qubits];
        for (v, chain) in chains.iter().enumerate() {
            let var = VarId::new(v);
            if chain.is_empty() {
                return Err(EmbeddingError::EmptyChain(var));
            }
            for &q in chain {
                if q.index() >= num_qubits {
                    return Err(EmbeddingError::QubitOutOfRange(q));
                }
                if owner[q.index()].is_some() {
                    return Err(EmbeddingError::OverlappingChains(q));
                }
                owner[q.index()] = Some(var);
            }
        }
        Ok(Embedding { chains, owner })
    }

    /// Number of logical variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.chains.len()
    }

    /// The chain of a variable.
    #[inline]
    pub fn chain(&self, v: VarId) -> &[QubitId] {
        &self.chains[v.index()]
    }

    /// All chains, indexed by variable.
    #[inline]
    pub fn chains(&self) -> &[Vec<QubitId>] {
        &self.chains
    }

    /// The variable occupying a qubit, if any.
    #[inline]
    pub fn owner(&self, q: QubitId) -> Option<VarId> {
        self.owner[q.index()]
    }

    /// Total number of physical qubits consumed.
    pub fn qubits_used(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Longest chain length (1 when every variable is a single qubit).
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average physical qubits per logical variable — the x-axis of the
    /// paper's Figure 6.
    pub fn qubits_per_variable(&self) -> f64 {
        if self.chains.is_empty() {
            0.0
        } else {
            self.qubits_used() as f64 / self.num_vars() as f64
        }
    }

    /// Checks that every chain consists of functional qubits and is connected
    /// through couplers, and that every `required_edge` has at least one
    /// realising coupler.
    pub fn verify(
        &self,
        graph: &ChimeraGraph,
        required_edges: impl IntoIterator<Item = (VarId, VarId)>,
    ) -> Result<(), EmbeddingError> {
        for (v, chain) in self.chains.iter().enumerate() {
            let var = VarId::new(v);
            for &q in chain {
                if !graph.is_working(q) {
                    return Err(EmbeddingError::BrokenQubit(var, q));
                }
            }
            if !self.chain_is_connected(graph, chain) {
                return Err(EmbeddingError::DisconnectedChain(var));
            }
        }
        for (a, b) in required_edges {
            if self.find_coupler(graph, a, b).is_none() {
                return Err(EmbeddingError::MissingEdge(a, b));
            }
        }
        Ok(())
    }

    fn chain_is_connected(&self, graph: &ChimeraGraph, chain: &[QubitId]) -> bool {
        if chain.len() <= 1 {
            return true;
        }
        let in_chain: std::collections::HashSet<QubitId> = chain.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(chain[0]);
        seen.insert(chain[0]);
        while let Some(q) = queue.pop_front() {
            for n in graph.neighbours(q) {
                if in_chain.contains(&n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == chain.len()
    }

    /// A physical coupler connecting the chains of two variables, if one
    /// exists (deterministically the first in qubit order).
    pub fn find_coupler(
        &self,
        graph: &ChimeraGraph,
        a: VarId,
        b: VarId,
    ) -> Option<(QubitId, QubitId)> {
        for &qa in self.chain(a) {
            for &qb in self.chain(b) {
                if graph.has_coupler(qa, qb) {
                    return Some((qa, qb));
                }
            }
        }
        None
    }

    /// Enumerates every unordered variable pair whose chains are connected by
    /// at least one coupler. This is the set of quadratic terms the embedding
    /// can realise; the clustered workload generator draws sharing pairs from
    /// it.
    pub fn connectable_pairs(&self, graph: &ChimeraGraph) -> Vec<(VarId, VarId)> {
        let mut pairs = std::collections::BTreeSet::new();
        for (qa, qb) in graph.couplers() {
            if let (Some(a), Some(b)) = (self.owner(qa), self.owner(qb)) {
                if a != b {
                    pairs.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
        }
        pairs.into_iter().collect()
    }
}

/// Cache-aware embedding entry point: embeds a problem *structure*
/// (variable count + interaction edges) deterministically from
/// `structure_seed`, independent of any per-request randomness.
///
/// Minor embeddings depend only on structure, never on weights (Choi's
/// construction routes edges), so callers that cache embeddings — keyed by
/// `mqo_core::qubo::Qubo::structure_hash` plus
/// [`ChimeraGraph::fingerprint`] — can pass the structure hash as the seed:
/// a cold (miss) computation and any later recomputation of the same
/// structure then yield bit-identical embeddings, which in turn makes
/// cached-hit solves bit-identical to cold solves.
///
/// It runs the randomized heuristic embedder, routing only the edges
/// actually required, with `tries` (≥ 1) attempts. Clique placement is the
/// caller's first choice ([`crate::packing::Placer`]); this is the
/// embedder for structures no TRIAD block hosts. The offline pipeline and
/// the serving engine share it through one call,
/// `mqo::pipeline::QuantumMqoSolver::embed_heuristic`, so both embed an
/// instance the same way.
pub fn embed_structure(
    graph: &ChimeraGraph,
    num_vars: usize,
    edges: &[(VarId, VarId)],
    structure_seed: u64,
    tries: usize,
) -> Result<Embedding, EmbeddingError> {
    use rand::SeedableRng;
    assert!(num_vars >= 1, "cannot embed zero variables");
    assert!(tries >= 1, "at least one heuristic attempt is required");
    let mut rng = rand::rngs::StdRng::seed_from_u64(structure_seed);
    heuristic::find_embedding(num_vars, edges, graph, &mut rng, tries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Side;

    fn graph() -> ChimeraGraph {
        ChimeraGraph::new(2, 2)
    }

    #[test]
    fn construction_rejects_empty_and_overlapping_chains() {
        let g = graph();
        let err = Embedding::new(vec![vec![]], g.num_qubits()).unwrap_err();
        assert_eq!(err, EmbeddingError::EmptyChain(VarId(0)));

        let q = g.qubit(0, 0, Side::Vertical, 0);
        let err = Embedding::new(vec![vec![q], vec![q]], g.num_qubits()).unwrap_err();
        assert_eq!(err, EmbeddingError::OverlappingChains(q));

        let err = Embedding::new(vec![vec![QubitId(9999)]], g.num_qubits()).unwrap_err();
        assert_eq!(err, EmbeddingError::QubitOutOfRange(QubitId(9999)));
    }

    #[test]
    fn verify_detects_broken_qubits() {
        let g = graph();
        let q = g.qubit(0, 0, Side::Vertical, 0);
        let g = g.clone().with_broken(&[q]);
        let e = Embedding::new(vec![vec![q]], g.num_qubits()).unwrap();
        assert_eq!(
            e.verify(&g, []).unwrap_err(),
            EmbeddingError::BrokenQubit(VarId(0), q)
        );
    }

    #[test]
    fn verify_detects_disconnected_chains() {
        let g = graph();
        // Two left qubits of the same cell are not coupled.
        let a = g.qubit(0, 0, Side::Vertical, 0);
        let b = g.qubit(0, 0, Side::Vertical, 1);
        let e = Embedding::new(vec![vec![a, b]], g.num_qubits()).unwrap();
        assert_eq!(
            e.verify(&g, []).unwrap_err(),
            EmbeddingError::DisconnectedChain(VarId(0))
        );
    }

    #[test]
    fn verify_accepts_an_l_shaped_connected_chain() {
        let g = graph();
        // Left qubit + right qubit of a cell + right qubit of next cell.
        let chain = vec![
            g.qubit(0, 0, Side::Vertical, 1),
            g.qubit(0, 0, Side::Horizontal, 2),
            g.qubit(0, 1, Side::Horizontal, 2),
        ];
        let e = Embedding::new(vec![chain], g.num_qubits()).unwrap();
        assert!(e.verify(&g, []).is_ok());
    }

    #[test]
    fn missing_edges_are_reported() {
        let g = graph();
        // Chains in diagonal cells share no coupler.
        let a = vec![g.qubit(0, 0, Side::Vertical, 0)];
        let b = vec![g.qubit(1, 1, Side::Horizontal, 0)];
        let e = Embedding::new(vec![a, b], g.num_qubits()).unwrap();
        assert_eq!(
            e.verify(&g, [(VarId(0), VarId(1))]).unwrap_err(),
            EmbeddingError::MissingEdge(VarId(0), VarId(1))
        );
    }

    #[test]
    fn find_coupler_locates_intra_cell_couplers() {
        let g = graph();
        let a = vec![g.qubit(0, 0, Side::Vertical, 0)];
        let b = vec![g.qubit(0, 0, Side::Horizontal, 3)];
        let e = Embedding::new(vec![a.clone(), b.clone()], g.num_qubits()).unwrap();
        assert_eq!(e.find_coupler(&g, VarId(0), VarId(1)), Some((a[0], b[0])));
        assert!(e.verify(&g, [(VarId(0), VarId(1))]).is_ok());
    }

    #[test]
    fn connectable_pairs_reports_exactly_the_coupled_chains() {
        let g = graph();
        let e = Embedding::new(
            vec![
                vec![g.qubit(0, 0, Side::Vertical, 0)],
                vec![g.qubit(0, 0, Side::Horizontal, 0)],
                vec![g.qubit(1, 1, Side::Vertical, 0)],
            ],
            g.num_qubits(),
        )
        .unwrap();
        // var0–var1 share a cell; var2 is isolated from both.
        assert_eq!(e.connectable_pairs(&g), vec![(VarId(0), VarId(1))]);
    }

    #[test]
    fn embed_structure_routes_around_broken_qubits() {
        let g = ChimeraGraph::new(2, 2);
        // Kill half of the top-left cell: the heuristic routes the
        // structure on the working qubits only.
        let dead: Vec<QubitId> = (0..2)
            .flat_map(|u| {
                [
                    g.qubit(0, 0, Side::Vertical, u),
                    g.qubit(0, 0, Side::Horizontal, u),
                ]
            })
            .collect();
        let broken = g.clone().with_broken(&dead);
        let edges = [
            (VarId(0), VarId(1)),
            (VarId(0), VarId(2)),
            (VarId(1), VarId(3)),
        ];
        let e = embed_structure(&broken, 4, &edges, 1, 4).expect("three clean cells host it");
        assert_eq!(e.num_vars(), 4);
        assert!(e.verify(&broken, edges.iter().copied()).is_ok());
        for chain in e.chains() {
            for q in chain {
                assert!(!dead.contains(q), "the embedding used a dead qubit");
            }
        }
    }

    #[test]
    fn embed_structure_falls_back_to_the_heuristic_for_sparse_problems() {
        // 10 variables exceed the 2x2 TRIAD clique capacity (8), but a
        // sparse chain of edges routes heuristically.
        let g = ChimeraGraph::new(2, 2);
        let edges: Vec<(VarId, VarId)> = (0..9).map(|i| (VarId(i), VarId(i + 1))).collect();
        let e = embed_structure(&g, 10, &edges, 3, 16).expect("a sparse chain routes on 2x2");
        assert_eq!(e.num_vars(), 10);
        assert!(e.verify(&g, edges.iter().copied()).is_ok());
    }

    #[test]
    fn statistics_reflect_chain_sizes() {
        let g = graph();
        let e = Embedding::new(
            vec![
                vec![g.qubit(0, 0, Side::Vertical, 0)],
                vec![
                    g.qubit(0, 0, Side::Vertical, 1),
                    g.qubit(0, 0, Side::Horizontal, 1),
                ],
            ],
            g.num_qubits(),
        )
        .unwrap();
        assert_eq!(e.num_vars(), 2);
        assert_eq!(e.qubits_used(), 3);
        assert_eq!(e.max_chain_length(), 2);
        assert!((e.qubits_per_variable() - 1.5).abs() < 1e-12);
        assert_eq!(e.owner(g.qubit(0, 0, Side::Horizontal, 1)), Some(VarId(1)));
        assert_eq!(e.owner(g.qubit(1, 0, Side::Vertical, 0)), None);
    }
}
