//! Placement of one TRIAD clique: an origin-independent canonical embedding
//! relocated to the first fault-clean unit-cell region of the device graph.
//!
//! The paper programs one MQO instance per annealer run. A TRIAD clique
//! embedding of an `n`-variable instance occupies a square block of unit
//! cells, and its shape does not depend on where that block sits, so the
//! embedding depends only on the variable count and is then placed:
//!
//! * [`footprint_side`] — the per-instance cell footprint, derived from the
//!   TRIAD capacity bound (`⌈n/4⌉` cells per side for an `n`-variable
//!   clique);
//! * [`canonical_embedding`] — the instance's embedding expressed relative
//!   to its own region origin (a TRIAD anchored at cell `(0, 0)` of a
//!   pristine `side × side` region graph);
//! * [`translate_embedding`] — relocates a canonical embedding to a concrete
//!   origin on the real graph. Chimera is translation-invariant: every
//!   intra-region coupler exists at every origin, so the translated chains
//!   realise exactly the couplers the canonical ones do;
//! * [`Placer`] — a deterministic first-fit placer over the cell grid with
//!   fault-aware derating: a region is only accepted when every qubit the
//!   translated chains touch is functional, so dead qubits exclude exactly
//!   the placements they would corrupt.
//!
//! Bit-identity note: the TRIAD construction is origin-relative, so
//! translating the canonical embedding to origin `(r, c)` reproduces
//! `triad(graph, r, c, n)` verbatim, and the placer scans origins
//! row-major. Placing the canonical embedding therefore yields exactly the
//! chains a whole-graph scan of `triad` origins would produce; the
//! `placement_equals_the_whole_graph_triad_scan` property keeps that scan
//! as its oracle. The offline pipeline and the serving engine both place
//! cliques through `QuantumMqoSolver::place_clique`.

use crate::embedding::{triad, Embedding, EmbeddingError};
use crate::graph::{ChimeraGraph, Side, CELL_SIZE, HALF_CELL};
use serde::{Deserialize, Serialize};

/// Cells per side of the square region an `num_vars`-variable instance
/// needs under the TRIAD bound.
pub fn footprint_side(num_vars: usize) -> usize {
    assert!(num_vars >= 1, "an instance needs at least one variable");
    triad::triad_block_side(num_vars)
}

/// The instance's embedding relative to its own region origin: a TRIAD for
/// `K_num_vars` anchored at cell `(0, 0)` of a pristine
/// `footprint_side × footprint_side` region graph.
///
/// On a pristine region the TRIAD construction always succeeds, and
/// [`translate_embedding`] turns it into exactly `triad(graph, r, c, n)` at
/// any origin `(r, c)`.
pub fn canonical_embedding(num_vars: usize) -> Embedding {
    let side = footprint_side(num_vars);
    let region = ChimeraGraph::new(side, side);
    triad::triad(&region, 0, 0, num_vars).expect("TRIAD always fits its own pristine region block")
}

/// The pristine `footprint_side × footprint_side` region graph a canonical
/// embedding is expressed on.
pub fn region_graph(num_vars: usize) -> ChimeraGraph {
    let side = footprint_side(num_vars);
    ChimeraGraph::new(side, side)
}

/// A placed instance's cell region: a `side × side` block of unit cells
/// anchored at `(origin_row, origin_col)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Top cell row of the block.
    pub origin_row: usize,
    /// Left cell column of the block.
    pub origin_col: usize,
    /// Cells per side.
    pub side: usize,
}

/// Relocates a canonical region embedding (chains over a `side × side`
/// region graph) to the block anchored at `(origin_row, origin_col)` of
/// `graph`.
///
/// Coordinates are remapped structurally — region cell `(r, c)` becomes
/// graph cell `(origin_row + r, origin_col + c)` with side and in-column
/// index preserved — never by linear-index arithmetic, because qubit indices
/// depend on the grid width.
pub fn translate_embedding(
    canonical: &Embedding,
    side: usize,
    origin_row: usize,
    origin_col: usize,
    graph: &ChimeraGraph,
) -> Result<Embedding, EmbeddingError> {
    if origin_row + side > graph.rows() || origin_col + side > graph.cols() {
        return Err(EmbeddingError::InsufficientCapacity {
            requested: side,
            available: graph.rows().min(graph.cols()),
        });
    }
    let chains = canonical
        .chains()
        .iter()
        .map(|chain| {
            chain
                .iter()
                .map(|&q| {
                    let idx = q.index();
                    let cell = idx / CELL_SIZE;
                    let within = idx % CELL_SIZE;
                    let (s, k) = if within < HALF_CELL {
                        (Side::Vertical, within)
                    } else {
                        (Side::Horizontal, within - HALF_CELL)
                    };
                    graph.qubit(cell / side + origin_row, cell % side + origin_col, s, k)
                })
                .collect()
        })
        .collect();
    Embedding::new(chains, graph.num_qubits())
}

/// An instance successfully placed on the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The cell block the instance occupies.
    pub region: Region,
    /// The canonical embedding translated to that block.
    pub embedding: Embedding,
}

/// Deterministic first-fit placer over the unit-cell grid.
///
/// Origins of `side × side` blocks are scanned row-major from the top-left,
/// so a given graph and canonical embedding always yield the same
/// placement. Fault-aware derating is precise: an origin is rejected
/// exactly when one of the translated chain qubits is broken there, so dead
/// qubits exclude the regions they would corrupt and no others.
pub struct Placer<'a> {
    graph: &'a ChimeraGraph,
}

impl<'a> Placer<'a> {
    /// A placer over `graph`.
    pub fn new(graph: &'a ChimeraGraph) -> Self {
        Placer { graph }
    }

    /// Places a canonical embedding on the first fully functional
    /// `side × side` block (row-major scan). Returns `None` when no such
    /// block exists.
    pub fn place(&self, canonical: &Embedding, side: usize) -> Option<Placement> {
        if side == 0 || side > self.graph.rows() || side > self.graph.cols() {
            return None;
        }
        for origin_row in 0..=self.graph.rows() - side {
            for origin_col in 0..=self.graph.cols() - side {
                let Ok(embedding) =
                    translate_embedding(canonical, side, origin_row, origin_col, self.graph)
                else {
                    continue;
                };
                if embedding
                    .chains()
                    .iter()
                    .flatten()
                    .any(|&q| !self.graph.is_working(q))
                {
                    continue;
                }
                return Some(Placement {
                    region: Region {
                        origin_row,
                        origin_col,
                        side,
                    },
                    embedding,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_core::ids::VarId;

    fn all_pairs(n: usize) -> Vec<(VarId, VarId)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                v.push((VarId::new(i), VarId::new(j)));
            }
        }
        v
    }

    #[test]
    fn footprint_matches_the_triad_bound() {
        for (n, side) in [(1, 1), (4, 1), (5, 2), (8, 2), (9, 3), (12, 3)] {
            assert_eq!(footprint_side(n), side, "n={n}");
        }
    }

    #[test]
    fn translated_canonical_equals_triad_at_that_origin() {
        let g = ChimeraGraph::new(5, 7);
        for n in [2, 4, 5, 9] {
            let side = footprint_side(n);
            let canonical = canonical_embedding(n);
            for (dr, dc) in [(0, 0), (1, 2), (2, 4)] {
                let placed = translate_embedding(&canonical, side, dr, dc, &g).unwrap();
                let direct = triad::triad(&g, dr, dc, n).unwrap();
                assert_eq!(placed, direct, "n={n} origin=({dr},{dc})");
            }
        }
    }

    #[test]
    fn translation_off_the_grid_is_rejected() {
        let g = ChimeraGraph::new(2, 2);
        let canonical = canonical_embedding(8); // side 2
        let err = translate_embedding(&canonical, 2, 1, 0, &g).unwrap_err();
        assert!(matches!(err, EmbeddingError::InsufficientCapacity { .. }));
    }

    #[test]
    fn placer_takes_the_first_working_origin_row_major() {
        // Kill one qubit the K4 TRIAD uses in each cell, one cell at a
        // time: a fresh placer moves on to the next origin in row-major
        // order, and declines once no cell is clean.
        let mut g = ChimeraGraph::new(2, 2);
        let canonical = canonical_embedding(4); // one cell
        for origin in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let p = Placer::new(&g).place(&canonical, 1).expect("a clean cell");
            assert_eq!((p.region.origin_row, p.region.origin_col), origin);
            assert!(p.embedding.verify(&g, all_pairs(4)).is_ok());
            let dead = g.qubit(origin.0, origin.1, Side::Vertical, 0);
            g = g.with_broken(&[dead]);
        }
        assert!(Placer::new(&g).place(&canonical, 1).is_none());
    }

    #[test]
    fn placed_chains_never_share_a_qubit() {
        let g = ChimeraGraph::new(4, 4);
        for n in [2, 3, 4, 5, 8, 16] {
            let p = Placer::new(&g)
                .place(&canonical_embedding(n), footprint_side(n))
                .expect("a pristine 4x4 graph hosts K16");
            let mut seen = std::collections::HashSet::new();
            for &q in p.embedding.chains().iter().flatten() {
                assert!(seen.insert(q), "{q} claimed twice (n={n})");
            }
            assert!(p.embedding.verify(&g, all_pairs(n)).is_ok(), "n={n}");
        }
    }

    #[test]
    fn dead_qubits_exclude_exactly_the_regions_they_touch() {
        let g = ChimeraGraph::new(2, 2);
        // Kill a qubit the K4 TRIAD uses in cell (0, 0): L0 is chain 0's
        // only qubit there.
        let dead = g.qubit(0, 0, Side::Vertical, 0);
        let g = g.with_broken(&[dead]);
        let p = Placer::new(&g)
            .place(&canonical_embedding(4), 1)
            .expect("three cells still work");
        assert_eq!((p.region.origin_row, p.region.origin_col), (0, 1));
        // K1's only chain is L0 as well, so it skips the dead cell too.
        let p1 = Placer::new(&g)
            .place(&canonical_embedding(1), 1)
            .expect("three cells still work");
        assert_eq!((p1.region.origin_row, p1.region.origin_col), (0, 1));
        // A qubit no K1 chain touches excludes nothing.
        let pristine = ChimeraGraph::new(2, 2);
        let spare = pristine.qubit(0, 0, Side::Horizontal, 3);
        let spare = pristine.with_broken(&[spare]);
        let p2 = Placer::new(&spare)
            .place(&canonical_embedding(1), 1)
            .expect("cell (0, 0) still hosts K1");
        assert_eq!((p2.region.origin_row, p2.region.origin_col), (0, 0));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

        /// A random small Chimera graph with `dead` random broken qubits.
        fn damaged_graph(rows: usize, cols: usize, dead: usize, seed: u64) -> ChimeraGraph {
            let mut g = ChimeraGraph::new(rows, cols);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            g.break_random_qubits(dead.min(g.num_qubits()), &mut rng);
            g
        }

        proptest! {
            /// Placing the canonical embedding yields exactly what the
            /// whole-graph TRIAD origin scan yields: `triad(g, r, c, n)` at
            /// the first working origin, row-major — and declines exactly
            /// when that scan finds no working origin.
            #[test]
            fn placement_equals_the_whole_graph_triad_scan(
                rows in 1usize..=5,
                cols in 1usize..=5,
                n in 1usize..=16,
                dead in 0usize..=24,
                seed in 0u64..1024,
            ) {
                let g = damaged_graph(rows, cols, dead, seed);
                let side = footprint_side(n);
                let scan = (0..=rows.saturating_sub(side))
                    .flat_map(|r| (0..=cols.saturating_sub(side)).map(move |c| (r, c)))
                    .find_map(|(r, c)| triad::triad(&g, r, c, n).ok());
                let placed = Placer::new(&g)
                    .place(&canonical_embedding(n), side)
                    .map(|p| p.embedding);
                prop_assert_eq!(placed, scan);
            }
        }

        proptest! {
            /// Same graph → same placement, on working qubits only, with
            /// pairwise disjoint chains inside the placed region.
            #[test]
            fn placer_is_deterministic_and_disjoint(
                n in 1usize..=9,
                broken_seed in 0u64..64,
            ) {
                let g = damaged_graph(4, 4, (broken_seed % 16) as usize, broken_seed);
                let side = footprint_side(n);
                let canonical = canonical_embedding(n);
                let a = Placer::new(&g).place(&canonical, side);
                let b = Placer::new(&g).place(&canonical, side);
                prop_assert_eq!(&a, &b);

                if let Some(p) = a {
                    let r = p.region;
                    let mut seen = std::collections::HashSet::new();
                    for &q in p.embedding.chains().iter().flatten() {
                        prop_assert!(g.is_working(q));
                        prop_assert!(seen.insert(q), "{} claimed twice", q);
                        let at = g.coords(q);
                        prop_assert!(
                            (r.origin_row..r.origin_row + side).contains(&at.row)
                                && (r.origin_col..r.origin_col + side).contains(&at.col)
                        );
                    }
                }
            }
        }

        proptest! {
            /// Translation is exactly TRIAD at the target origin.
            #[test]
            fn translation_reproduces_triad(n in 1usize..=16, dr in 0usize..3, dc in 0usize..3) {
                let g = ChimeraGraph::new(7, 7);
                let side = footprint_side(n);
                let canonical = canonical_embedding(n);
                let placed = translate_embedding(&canonical, side, dr, dc, &g).unwrap();
                let direct = triad::triad(&g, dr, dc, n).unwrap();
                prop_assert_eq!(placed, direct);
            }
        }
    }
}
