//! ASCII rendering of the qubit matrix, embeddings, and chains — the textual
//! counterpart of the paper's Figures 1–3.
//!
//! Each unit cell is drawn as two columns of four slots:
//!
//! ```text
//! +---------+
//! | 1  | 2  |
//! | 3  | 3  |
//! | .  | 4  |
//! | XX | .  |
//! +---------+
//! ```
//!
//! Slots show the logical variable occupying the qubit, `.` for an unused
//! working qubit and `XX` for a broken one.

use crate::embedding::Embedding;
use crate::graph::{ChimeraGraph, Side, HALF_CELL};

/// Renders the graph with an optional embedding overlay. Variable ids are
/// shown modulo 100 to keep cells compact; `None` renders bare topology.
pub fn render(graph: &ChimeraGraph, embedding: Option<&Embedding>) -> String {
    let mut out = String::new();
    let cell_width = 11; // "| aa | bb |"
    let horizontal_rule = |out: &mut String| {
        for _ in 0..graph.cols() {
            out.push('+');
            for _ in 0..cell_width - 1 {
                out.push('-');
            }
        }
        out.push_str("+\n");
    };

    for row in 0..graph.rows() {
        horizontal_rule(&mut out);
        for k in 0..HALF_CELL {
            for col in 0..graph.cols() {
                let left = graph.qubit(row, col, Side::Vertical, k);
                let right = graph.qubit(row, col, Side::Horizontal, k);
                let fmt = |q| {
                    if !graph.is_working(q) {
                        "XX".to_string()
                    } else if let Some(v) = embedding.and_then(|e| e.owner(q)) {
                        format!("{:<2}", v.index() % 100)
                    } else {
                        ". ".to_string()
                    }
                };
                out.push_str(&format!("| {} | {} ", fmt(left), fmt(right)));
            }
            out.push_str("|\n");
        }
    }
    horizontal_rule(&mut out);
    out
}

/// Renders a one-line summary per chain: variable, length, and qubit list.
pub fn chain_summary(graph: &ChimeraGraph, embedding: &Embedding) -> String {
    let mut out = String::new();
    for (v, chain) in embedding.chains().iter().enumerate() {
        let coords: Vec<String> = chain
            .iter()
            .map(|&q| {
                let c = graph.coords(q);
                let side = match c.side {
                    Side::Vertical => 'L',
                    Side::Horizontal => 'R',
                };
                format!("({},{}){}{}", c.row, c.col, side, c.k)
            })
            .collect();
        out.push_str(&format!(
            "var {:>3}: chain of {} [{}]\n",
            v,
            chain.len(),
            coords.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::triad;

    #[test]
    fn render_shows_every_cell_and_marks_broken_qubits() {
        let g = ChimeraGraph::new(2, 2);
        let dead = g.qubit(0, 1, Side::Horizontal, 3);
        let g = g.with_broken(&[dead]);
        let s = render(&g, None);
        assert_eq!(s.matches("XX").count(), 1);
        // 2 rows × 4 slot lines + 3 rules.
        assert_eq!(s.lines().count(), 2 * 4 + 3);
    }

    #[test]
    fn render_overlays_chain_labels() {
        let g = ChimeraGraph::new(2, 2);
        let e = triad::triad(&g, 0, 0, 8).unwrap();
        let s = render(&g, Some(&e));
        for v in 0..8 {
            assert!(s.contains(&format!(" {v} ")), "missing label {v} in:\n{s}");
        }
    }

    #[test]
    fn chain_summary_lists_every_variable_once() {
        let g = ChimeraGraph::new(2, 2);
        let e = triad::triad(&g, 0, 0, 5).unwrap();
        let s = chain_summary(&g, &e);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("var   0"));
        assert!(s.contains("(0,0)L"));
    }
}
