//! The physical mapping (Section 5): logical QUBO → qubit weights.
//!
//! Given a logical energy formula and a minor [`Embedding`], this module
//! produces the *physical energy formula* the annealer actually minimises:
//!
//! 1. the linear weight `w_i` of variable `X_i` is distributed uniformly over
//!    the `|B|` qubits of its chain (`w_i/|B|` each);
//! 2. each quadratic term `w_ij X_i X_j` is placed on one physical coupler
//!    between the two chains;
//! 3. every chain gets ferromagnetic equality terms
//!    `EB = Σ (b_k + b_{k+1} − 2 b_k b_{k+1})` along a spanning tree of the
//!    chain, scaled by a per-chain strength `w_B = U + ε` where `U` bounds
//!    the energy increase that making an inconsistent chain consistent can
//!    cause in the rest of the formula (Choi's parameter-setting rule).
//!
//! For a *consistent* physical assignment (all qubits of each chain equal)
//! the physical energy equals the logical energy exactly; the chain terms add
//! nothing. [`PhysicalMapping::unembed`] maps samples back to logical
//! assignments by majority vote, reporting how many chains were broken.

use crate::embedding::{Embedding, EmbeddingError};
use crate::graph::{ChimeraGraph, QubitId};
use mqo_core::ids::VarId;
use mqo_core::qubo::Qubo;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Result of mapping one annealer sample back to logical variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnembedResult {
    /// Majority-vote value per logical variable.
    pub logical: Vec<bool>,
    /// Number of chains whose qubits disagreed (broken chains). Zero for any
    /// minimum-energy sample when chain strengths are set correctly.
    pub broken_chains: usize,
}

/// A fully programmed physical problem: the physical QUBO over densely
/// re-indexed active qubits, plus everything needed to move between logical
/// and physical assignments.
#[derive(Debug, Clone)]
pub struct PhysicalMapping {
    embedding: Embedding,
    /// Dense physical variable index per qubit (only chain qubits are active).
    phys_of_qubit: Vec<Option<u32>>,
    /// Qubit behind each dense physical variable.
    qubit_of_phys: Vec<QubitId>,
    /// The physical energy formula.
    qubo: Qubo,
    /// Ferromagnetic strength chosen for each chain.
    chain_strengths: Vec<f64>,
}

impl PhysicalMapping {
    /// Programs `logical` onto the hardware graph through `embedding`.
    ///
    /// `epsilon` is the slack added to every chain-strength lower bound (the
    /// paper keeps all weights as small as admissible because large weight
    /// ranges hurt annealer precision; it uses ε = 0.25).
    ///
    /// Fails if the embedding cannot realise the logical structure on this
    /// graph (broken/disconnected chains or a missing coupler).
    pub fn new(
        logical: &Qubo,
        embedding: Embedding,
        graph: &ChimeraGraph,
        epsilon: f64,
    ) -> Result<Self, EmbeddingError> {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert_eq!(
            logical.num_vars(),
            embedding.num_vars(),
            "embedding must cover exactly the logical variables"
        );
        let required: Vec<(VarId, VarId)> = logical
            .quadratic()
            .iter()
            .map(|&(i, j, _)| (i, j))
            .collect();
        embedding.verify(graph, required.iter().copied())?;

        // Dense physical indices, chain by chain.
        let mut phys_of_qubit: Vec<Option<u32>> = vec![None; graph.num_qubits()];
        let mut qubit_of_phys: Vec<QubitId> = Vec::new();
        for chain in embedding.chains() {
            for &q in chain {
                phys_of_qubit[q.index()] = Some(qubit_of_phys.len() as u32);
                qubit_of_phys.push(q);
            }
        }
        let num_phys = qubit_of_phys.len();
        let phys = |q: QubitId| phys_of_qubit[q.index()].expect("chain qubit") as usize;

        // Step 1+2: place the logical weights.
        let mut lin = vec![0.0; num_phys];
        for (v, &w) in logical.linear().iter().enumerate() {
            let chain = embedding.chain(VarId::new(v));
            let share = w / chain.len() as f64;
            for &q in chain {
                lin[phys(q)] += share;
            }
        }
        let mut quad: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(i, j, w) in logical.quadratic() {
            let (qa, qb) = embedding
                .find_coupler(graph, i, j)
                .expect("verified edge must have a coupler");
            let (a, b) = (phys(qa), phys(qb));
            let key = if a < b { (a, b) } else { (b, a) };
            *quad.entry(key).or_insert(0.0) += w;
        }

        // Step 3: per-chain strengths from the logical-only physical weights.
        // Each coupler is listed from both ends and sorted by (qubit,
        // neighbour), so one pass over the list visits every qubit's
        // neighbours in ascending order: linear in the couplers, and the
        // sums below never depend on hashing or insertion order.
        let mut incident: Vec<(usize, usize, f64)> = quad
            .iter()
            .flat_map(|(&(a, b), &w)| [(a, b, w), (b, a, w)])
            .collect();
        incident.sort_unstable_by_key(|&(q, other, _)| (q, other));
        let mut incident = incident.into_iter().peekable();
        let mut chain_strengths = Vec::with_capacity(embedding.num_vars());
        let mut first = 0;
        for chain in embedding.chains() {
            // Dense indices were handed out chain by chain, so this chain's
            // qubits are exactly `members`, in chain order.
            let members = first..first + chain.len();
            first = members.end;
            let mut up = 0.0; // Σ U0→1(b): worst-case increase setting all to 1
            let mut down = 0.0; // Σ U1→0(b)
            for b in members.clone() {
                let v_b = lin[b];
                let mut pos = 0.0;
                let mut neg = 0.0;
                while let Some((_, other, w)) = incident.next_if(|&(q, _, _)| q == b) {
                    if members.contains(&other) {
                        continue; // internal to the chain, excluded by the rule
                    }
                    if w > 0.0 {
                        pos += w;
                    } else {
                        neg += -w;
                    }
                }
                // Clamp per qubit: qubits already at the target value do not
                // change, so a qubit whose worst case is a decrease cannot
                // offset the increase caused by others.
                up += (v_b + pos).max(0.0);
                down += (-v_b + neg).max(0.0);
            }
            let u = up.min(down).max(0.0);
            chain_strengths.push(u + epsilon);
        }

        // Add the ferromagnetic chain terms along a spanning tree.
        let mut builder = Qubo::builder(num_phys);
        for (b, &w) in lin.iter().enumerate() {
            builder.add_linear(VarId::new(b), w);
        }
        for (&(a, b), &w) in &quad {
            builder.add_quadratic(VarId::new(a), VarId::new(b), w);
        }
        for (v, chain) in embedding.chains().iter().enumerate() {
            let w_b = chain_strengths[v];
            for (qa, qb) in spanning_tree_edges(graph, chain) {
                let (a, b) = (phys(qa), phys(qb));
                builder.add_linear(VarId::new(a), w_b);
                builder.add_linear(VarId::new(b), w_b);
                builder.add_quadratic(VarId::new(a), VarId::new(b), -2.0 * w_b);
            }
        }

        Ok(PhysicalMapping {
            embedding,
            phys_of_qubit,
            qubit_of_phys,
            qubo: builder.build(),
            chain_strengths,
        })
    }

    /// The physical energy formula over dense physical variables.
    #[inline]
    pub fn physical_qubo(&self) -> &Qubo {
        &self.qubo
    }

    /// The embedding this mapping was programmed through.
    #[inline]
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Number of active physical variables (= qubits used).
    #[inline]
    pub fn num_physical_vars(&self) -> usize {
        self.qubit_of_phys.len()
    }

    /// The qubit behind a dense physical variable.
    #[inline]
    pub fn qubit_of_phys(&self, phys: usize) -> QubitId {
        self.qubit_of_phys[phys]
    }

    /// The dense physical variable of a qubit, if it is part of a chain.
    #[inline]
    pub fn phys_of_qubit(&self, q: QubitId) -> Option<usize> {
        self.phys_of_qubit[q.index()].map(|p| p as usize)
    }

    /// The chains of the embedding translated to dense physical indices, in
    /// logical-variable order — the representation device-side machinery
    /// (sampler hints, chain-break statistics) works with.
    pub fn dense_chains(&self) -> Vec<Vec<usize>> {
        self.embedding
            .chains()
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .map(|&q| {
                        self.phys_of_qubit(q)
                            .expect("every chain qubit is an active physical variable")
                    })
                    .collect()
            })
            .collect()
    }

    /// The ferromagnetic strength chosen for a chain.
    #[inline]
    pub fn chain_strength(&self, v: VarId) -> f64 {
        self.chain_strengths[v.index()]
    }

    /// Extends a logical assignment to the consistent physical assignment
    /// (every chain uniformly set to its variable's value). The physical
    /// energy of the result equals the logical energy exactly.
    pub fn extend(&self, logical: &[bool]) -> Vec<bool> {
        assert_eq!(logical.len(), self.embedding.num_vars());
        let mut phys = vec![false; self.num_physical_vars()];
        for (v, &value) in logical.iter().enumerate() {
            for &q in self.embedding.chain(VarId::new(v)) {
                phys[self.phys_of_qubit(q).expect("chain qubit")] = value;
            }
        }
        phys
    }

    /// Maps a physical sample back to logical variables by majority vote per
    /// chain, reporting broken chains.
    ///
    /// **Tie-breaking contract** (pinned — answer reproducibility depends on
    /// it): an even-length chain split exactly in half resolves to `true`
    /// (`2·ones >= len`). The rule is a pure function of the chain's qubit
    /// values — no RNG, no iteration-order dependence — so identical samples
    /// unembed identically on every host, thread count, and run.
    /// `true` (plan selected) is the deliberate direction: the decoder's
    /// repair pass only ever *removes* over-selected plans cheaply via
    /// min-delta settling, whereas a dropped `true` could silently lose the
    /// sampler's intent for that plan. `SampleSet::chain_break_stats`
    /// counts these ties separately (`tie_breaks` vs `majority_repairs`) so
    /// an operator can see how often the rule actually decided an answer.
    pub fn unembed(&self, phys: &[bool]) -> UnembedResult {
        assert_eq!(phys.len(), self.num_physical_vars());
        let mut logical = Vec::with_capacity(self.embedding.num_vars());
        let mut broken = 0;
        for chain in self.embedding.chains() {
            let ones = chain
                .iter()
                .filter(|&&q| phys[self.phys_of_qubit(q).expect("chain qubit")])
                .count();
            if ones != 0 && ones != chain.len() {
                broken += 1;
            }
            logical.push(2 * ones >= chain.len());
        }
        UnembedResult {
            logical,
            broken_chains: broken,
        }
    }
}

/// Spanning-tree edges of the chain's induced subgraph (BFS). The embedding
/// verifier has already established connectivity.
fn spanning_tree_edges(graph: &ChimeraGraph, chain: &[QubitId]) -> Vec<(QubitId, QubitId)> {
    if chain.len() <= 1 {
        return Vec::new();
    }
    let members: HashSet<QubitId> = chain.iter().copied().collect();
    let mut edges = Vec::with_capacity(chain.len() - 1);
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(chain[0]);
    queue.push_back(chain[0]);
    while let Some(q) = queue.pop_front() {
        for n in graph.neighbours(q) {
            if members.contains(&n) && seen.insert(n) {
                edges.push((q, n));
                queue.push_back(n);
            }
        }
    }
    debug_assert_eq!(edges.len(), chain.len() - 1, "chain must be connected");
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::triad;
    use crate::graph::Side;
    use mqo_core::ids::VarId;

    /// A random-ish dense logical QUBO over n variables.
    fn dense_qubo(n: usize) -> Qubo {
        let mut b = Qubo::builder(n);
        for i in 0..n {
            b.add_linear(VarId::new(i), (i as f64) * 0.7 - 1.3);
            for j in i + 1..n {
                let w = ((i * 31 + j * 17) % 13) as f64 - 6.0;
                if w != 0.0 {
                    b.add_quadratic(VarId::new(i), VarId::new(j), w);
                }
            }
        }
        b.build()
    }

    fn mapping(n: usize) -> (PhysicalMapping, Qubo, ChimeraGraph) {
        let g = ChimeraGraph::new(3, 3);
        let logical = dense_qubo(n);
        let e = triad::triad(&g, 0, 0, n).unwrap();
        let pm = PhysicalMapping::new(&logical, e, &g, 0.25).unwrap();
        (pm, logical, g)
    }

    #[test]
    fn consistent_extension_preserves_energy_exactly() {
        let (pm, logical, _) = mapping(6);
        for mask in 0u32..64 {
            let x: Vec<bool> = (0..6).map(|i| mask & (1 << i) != 0).collect();
            let phys = pm.extend(&x);
            let le = logical.energy(&x);
            let pe = pm.physical_qubo().energy(&phys);
            assert!(
                (le - pe).abs() < 1e-9,
                "mask {mask}: logical {le} vs physical {pe}"
            );
        }
    }

    #[test]
    fn physical_ground_state_is_consistent_and_unembeds_to_logical_optimum() {
        // The decisive correctness property of the chain-strength rule: the
        // global minimum of the physical formula has no broken chains and
        // decodes to the logical optimum.
        let (pm, logical, _) = mapping(5);
        assert!(pm.num_physical_vars() <= 24);
        let (phys_best, phys_e) = pm.physical_qubo().brute_force_minimum();
        let (logical_best, logical_e) = logical.brute_force_minimum();
        let un = pm.unembed(&phys_best);
        assert_eq!(un.broken_chains, 0, "ground state must be chain-consistent");
        assert!((phys_e - logical_e).abs() < 1e-9);
        assert_eq!(
            logical.energy(&un.logical),
            logical.energy(&logical_best),
            "unembedded optimum must match the logical optimum"
        );
    }

    #[test]
    fn unembed_majority_vote_and_broken_chain_count() {
        let (pm, _, _) = mapping(6);
        // Flip a single qubit of the longest chain of the consistent
        // all-true assignment: chain breaks but majority still wins.
        let logical = vec![true; 6];
        let mut phys = pm.extend(&logical);
        let longest = (0..6)
            .map(VarId::new)
            .max_by_key(|&v| pm.embedding().chain(v).len())
            .unwrap();
        assert!(pm.embedding().chain(longest).len() >= 3);
        let q = pm.embedding().chain(longest)[0];
        phys[pm.phys_of_qubit(q).unwrap()] = false;
        let un = pm.unembed(&phys);
        assert_eq!(un.broken_chains, 1);
        assert_eq!(un.logical, logical);
    }

    #[test]
    fn even_chain_ties_resolve_to_true_deterministically() {
        // Find a mapping with an even-length chain and split that chain
        // exactly in half on top of the consistent all-false assignment.
        let (pm, even) = (2..=8usize)
            .find_map(|n| {
                let (pm, _, _) = mapping(n);
                let even = (0..n).map(VarId::new).find(|&v| {
                    let len = pm.embedding().chain(v).len();
                    len >= 2 && len % 2 == 0
                })?;
                Some((pm, even))
            })
            .expect("some triad embedding up to 8 vars has an even chain");
        let n = pm.embedding().num_vars();
        let chain = pm.embedding().chain(even).to_vec();
        let mut phys = pm.extend(&vec![false; n]);
        for &q in &chain[..chain.len() / 2] {
            phys[pm.phys_of_qubit(q).unwrap()] = true;
        }
        let un = pm.unembed(&phys);
        assert_eq!(un.broken_chains, 1, "a half-half chain is broken");
        assert!(
            un.logical[even.index()],
            "the pinned rule resolves an exact tie to true"
        );
        // Same sample, same answer — and flipping the *other* half must
        // give the same logical value: the rule depends only on the count.
        assert_eq!(pm.unembed(&phys).logical, un.logical);
        let mut other_half = pm.extend(&vec![false; n]);
        for &q in &chain[chain.len() / 2..] {
            other_half[pm.phys_of_qubit(q).unwrap()] = true;
        }
        let un2 = pm.unembed(&other_half);
        assert!(un2.logical[even.index()]);
        // One qubit past the tie in either direction follows the majority.
        phys[pm.phys_of_qubit(chain[chain.len() / 2]).unwrap()] = true;
        assert!(pm.unembed(&phys).logical[even.index()]);
        for &q in &chain {
            phys[pm.phys_of_qubit(q).unwrap()] = false;
        }
        phys[pm.phys_of_qubit(chain[0]).unwrap()] = true;
        if chain.len() > 2 {
            assert!(!pm.unembed(&phys).logical[even.index()]);
        }
    }

    #[test]
    fn chain_strengths_are_positive_and_scale_with_weights() {
        let (pm, _, _) = mapping(6);
        for v in 0..6 {
            assert!(pm.chain_strength(VarId::new(v)) > 0.0);
        }

        // Scaling all logical weights by 10 must scale the strengths too.
        let g = ChimeraGraph::new(3, 3);
        let logical = dense_qubo(6);
        let mut b = Qubo::builder(6);
        for (i, &w) in logical.linear().iter().enumerate() {
            b.add_linear(VarId::new(i), 10.0 * w);
        }
        for &(i, j, w) in logical.quadratic() {
            b.add_quadratic(i, j, 10.0 * w);
        }
        let scaled = b.build();
        let e = triad::triad(&g, 0, 0, 6).unwrap();
        let pm10 = PhysicalMapping::new(&scaled, e, &g, 0.25).unwrap();
        let mut grew = false;
        for v in 0..6 {
            let v = VarId::new(v);
            assert!(pm10.chain_strength(v) >= pm.chain_strength(v) - 1e-9);
            if pm10.chain_strength(v) > pm.chain_strength(v) + 1e-9 {
                grew = true;
            }
        }
        assert!(
            grew,
            "larger weights must raise at least one chain strength"
        );
    }

    #[test]
    fn breaking_a_chain_raises_energy_by_at_least_its_strength_margin() {
        // Choi's rule guarantees: flipping one qubit away from the consistent
        // ground state cannot lower the energy.
        let (pm, _, _) = mapping(5);
        let (phys_best, best_e) = pm.physical_qubo().brute_force_minimum();
        for i in 0..pm.num_physical_vars() {
            let mut x = phys_best.clone();
            x[i] = !x[i];
            assert!(
                pm.physical_qubo().energy(&x) >= best_e - 1e-9,
                "single-qubit flip {i} beat the ground state"
            );
        }
    }

    #[test]
    fn phys_qubit_correspondence_round_trips() {
        let (pm, _, _) = mapping(8);
        for p in 0..pm.num_physical_vars() {
            assert_eq!(pm.phys_of_qubit(pm.qubit_of_phys(p)), Some(p));
        }
    }

    #[test]
    fn single_qubit_chains_need_no_tree_edges() {
        let g = ChimeraGraph::new(1, 1);
        let logical = {
            let mut b = Qubo::builder(2);
            b.add_linear(VarId(0), 1.0);
            b.add_quadratic(VarId(0), VarId(1), -2.0);
            b.build()
        };
        let e = crate::embedding::triad::single_cell(&g, 0, 0, 2)
            .map(|c| Embedding::new(c, g.num_qubits()).unwrap())
            .unwrap();
        let pm = PhysicalMapping::new(&logical, e, &g, 0.25).unwrap();
        assert_eq!(pm.num_physical_vars(), 2);
        // Physical formula must be identical to the logical one.
        let (pb, pe) = pm.physical_qubo().brute_force_minimum();
        let (lb, le) = logical.brute_force_minimum();
        assert_eq!(pb, lb);
        assert!((pe - le).abs() < 1e-12);
    }

    #[test]
    fn chain_strengths_are_bit_identical_on_every_build() {
        // One left-side qubit coupled to three right-side chains with
        // weights whose float sum depends on the order it is taken in:
        // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ by one ulp.
        let g = ChimeraGraph::new(1, 1);
        let logical = {
            let mut b = Qubo::builder(4);
            b.add_linear(VarId(0), -0.4);
            for (j, w) in [(1, 0.1), (2, 0.2), (3, 0.3)] {
                b.add_quadratic(VarId(0), VarId(j), w);
            }
            b.build()
        };
        let chains = vec![
            vec![g.qubit(0, 0, Side::Vertical, 0)],
            vec![g.qubit(0, 0, Side::Horizontal, 0)],
            vec![g.qubit(0, 0, Side::Horizontal, 1)],
            vec![g.qubit(0, 0, Side::Horizontal, 2)],
        ];
        let e = Embedding::new(chains, g.num_qubits()).unwrap();
        let bits = || {
            let pm = PhysicalMapping::new(&logical, e.clone(), &g, 0.25).unwrap();
            pm.chain_strength(VarId(0)).to_bits()
        };
        let first = bits();
        for build in 1..64 {
            assert_eq!(bits(), first, "build {build}");
        }
        // Ascending neighbour order: (0.1 + 0.2 + 0.3) − 0.4 + ε.
        assert_eq!(f64::from_bits(first), (0.1 + 0.2 + 0.3 - 0.4) + 0.25);
    }

    #[test]
    fn mismatched_variable_counts_panic() {
        let g = ChimeraGraph::new(1, 1);
        let logical = Qubo::builder(3).build();
        let e = crate::embedding::triad::single_cell(&g, 0, 0, 2)
            .map(|c| Embedding::new(c, g.num_qubits()).unwrap())
            .unwrap();
        let result = std::panic::catch_unwind(|| PhysicalMapping::new(&logical, e, &g, 0.25));
        assert!(result.is_err());
    }
}
