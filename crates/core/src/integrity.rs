//! Solution-integrity verification and deterministic repair.
//!
//! The pipeline (MQO → QUBO → Chimera Ising → samples → unembed → selection)
//! has many places where a *wrong* answer can silently survive: broken chains
//! are majority-voted, control error perturbs programmed weights, and fault /
//! chaos injection deliberately corrupts state. This module is the layer that
//! re-checks every answer against the original instance:
//!
//! * [`verify_selection`] — a claimed solution is structurally feasible and
//!   its reported cost matches a from-scratch recomputation within tolerance;
//! * [`verify_against_bound`] — a reported cost never undercuts a proven
//!   optimum or lower bound (an impossibly *good* answer is corrupt too);
//! * [`repair_selection`] — a deterministic min-delta repair for infeasible
//!   selections, with accounting in [`RepairStats`].
//!
//! Every failure is a typed [`IntegrityError`] variant — never a panic — so
//! serving layers can turn violations into typed errors and counters.

use crate::error::CoreError;
use crate::ids::{PlanId, QueryId};
use crate::problem::MqoProblem;
use crate::solution::{CostEvaluator, Selection};
use serde::{Deserialize, Serialize};

/// Default verification tolerance. Costs are recomputed in a different
/// summation order than the incremental paths that produced them, so exact
/// equality is too strict; `1e-6` relative slack is ~9 orders of magnitude
/// above accumulated f64 rounding on paper-scale instances and ~6 below any
/// real cost difference the workloads produce.
pub const DEFAULT_TOLERANCE: f64 = 1e-6;

/// Mixed absolute/relative comparison: `|a − b| ≤ tol · (1 + max(|a|, |b|))`.
/// Behaves absolutely near zero and relatively for large magnitudes; any
/// non-finite operand fails.
#[must_use]
pub fn within_tolerance(a: f64, b: f64, tol: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// A typed integrity violation. Carries enough context to log and reconcile;
/// never panics out of the verification paths.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrityError {
    /// The claimed selection is not a structurally valid solution of the
    /// problem (wrong length, unknown plan, or a plan of the wrong query).
    InvalidSelection(CoreError),
    /// The reported cost is NaN or infinite.
    NonFiniteCost {
        /// The reported (non-finite) cost.
        reported: f64,
    },
    /// The reported cost disagrees with a from-scratch recomputation.
    CostMismatch {
        /// Cost the producer claimed.
        reported: f64,
        /// Cost recomputed from the problem definition.
        recomputed: f64,
        /// Tolerance the comparison used.
        tolerance: f64,
    },
    /// A reported cost undercuts a proven optimum / lower bound — an
    /// impossibly good answer, which only corruption can produce.
    BelowProvenOptimum {
        /// Cost the producer claimed.
        reported: f64,
        /// The proven optimum or lower bound it undercuts.
        bound: f64,
    },
    /// The candidate cannot be repaired (e.g. it covers the wrong number of
    /// queries, so no per-query settle exists).
    Unrepairable(CoreError),
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::InvalidSelection(e) => write!(f, "invalid selection: {e}"),
            IntegrityError::NonFiniteCost { reported } => {
                write!(f, "reported cost is non-finite ({reported})")
            }
            IntegrityError::CostMismatch {
                reported,
                recomputed,
                tolerance,
            } => write!(
                f,
                "reported cost {reported} disagrees with recomputed cost {recomputed} \
                 (tolerance {tolerance})"
            ),
            IntegrityError::BelowProvenOptimum { reported, bound } => write!(
                f,
                "reported cost {reported} undercuts the proven bound {bound}"
            ),
            IntegrityError::Unrepairable(e) => write!(f, "candidate is unrepairable: {e}"),
        }
    }
}

impl std::error::Error for IntegrityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntegrityError::InvalidSelection(e) | IntegrityError::Unrepairable(e) => Some(e),
            _ => None,
        }
    }
}

/// Verifies a claimed solution end to end: structural feasibility plus the
/// reported cost against a from-scratch recomputation. Returns the
/// recomputed cost on success.
pub fn verify_selection(
    problem: &MqoProblem,
    selection: &Selection,
    reported_cost: f64,
    tolerance: f64,
) -> Result<f64, IntegrityError> {
    problem
        .validate_selection(selection)
        .map_err(IntegrityError::InvalidSelection)?;
    if !reported_cost.is_finite() {
        return Err(IntegrityError::NonFiniteCost {
            reported: reported_cost,
        });
    }
    let recomputed = problem.selection_cost(selection);
    if !within_tolerance(reported_cost, recomputed, tolerance) {
        return Err(IntegrityError::CostMismatch {
            reported: reported_cost,
            recomputed,
            tolerance,
        });
    }
    Ok(recomputed)
}

/// Checks a reported cost against a proven optimum (or lower bound): any
/// answer more than `tolerance` *below* the bound is impossible and therefore
/// corrupt. Answers above the bound are merely suboptimal, not violations.
pub fn verify_against_bound(
    reported_cost: f64,
    bound: f64,
    tolerance: f64,
) -> Result<(), IntegrityError> {
    if !reported_cost.is_finite() {
        return Err(IntegrityError::NonFiniteCost {
            reported: reported_cost,
        });
    }
    if reported_cost < bound && !within_tolerance(reported_cost, bound, tolerance) {
        return Err(IntegrityError::BelowProvenOptimum {
            reported: reported_cost,
            bound,
        });
    }
    Ok(())
}

/// Accounting of a verify-then-repair pass over many results. Serialises
/// into outcomes and bench reports; counters add across batches via
/// [`RepairStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Results that passed verification untouched.
    pub verified_clean: usize,
    /// Results that failed verification and were deterministically repaired
    /// to a verified-feasible solution.
    pub repaired: usize,
    /// Results that failed verification and could not be repaired.
    pub rejected: usize,
}

impl RepairStats {
    /// Adds another batch's counters into this one.
    pub fn merge(&mut self, other: &RepairStats) {
        self.verified_clean += other.verified_clean;
        self.repaired += other.repaired;
        self.rejected += other.rejected;
    }

    /// Total results accounted for.
    #[must_use]
    pub fn total(&self) -> usize {
        self.verified_clean + self.repaired + self.rejected
    }
}

/// A repaired selection together with how much repair it needed.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedSelection {
    /// The feasible selection after repair.
    pub selection: Selection,
    /// Queries whose plan had to be replaced (0 when the candidate was
    /// already feasible).
    pub repaired_queries: usize,
}

/// Deterministically repairs an infeasible candidate selection.
///
/// Queries whose entry is a valid plan of that query are kept; every other
/// query is settled greedily (in ascending query order) to the plan with the
/// lowest marginal cost against the running selection, then refined with one
/// min-delta pass via [`CostEvaluator::delta`] over exactly the repaired
/// queries. The result is always structurally feasible. A pure function of
/// `(problem, candidate)` — no RNG, no wall clock — so it is trivially
/// thread-count-invariant and bit-reproducible.
///
/// Fails only when no repair exists: the candidate covers the wrong number
/// of queries.
pub fn repair_selection(
    problem: &MqoProblem,
    candidate: &Selection,
) -> Result<RepairedSelection, IntegrityError> {
    if candidate.num_queries() != problem.num_queries() {
        return Err(IntegrityError::Unrepairable(CoreError::AssignmentLength {
            expected: problem.num_queries(),
            actual: candidate.num_queries(),
        }));
    }
    let mut selected_mask = vec![false; problem.num_plans()];
    let mut plans: Vec<Option<PlanId>> = Vec::with_capacity(problem.num_queries());
    let mut violated: Vec<QueryId> = Vec::new();
    for q in problem.queries() {
        let p = candidate.plan_of(q);
        if p.index() < problem.num_plans() && problem.query_of(p) == q {
            selected_mask[p.index()] = true;
            plans.push(Some(p));
        } else {
            violated.push(q);
            plans.push(None);
        }
    }
    if violated.is_empty() {
        return Ok(RepairedSelection {
            selection: candidate.clone(),
            repaired_queries: 0,
        });
    }
    // Greedy settle: cheapest marginal cost against everything selected so
    // far (the same rule `LogicalMapping::decode_with_repair` uses).
    for &q in &violated {
        let best = problem
            .plans_of(q)
            .min_by(|&p1, &p2| {
                let marginal = |p: PlanId| {
                    let mut c = problem.plan_cost(p);
                    for &(p2, s) in problem.savings_of(p) {
                        if selected_mask[p2.index()] {
                            c -= s;
                        }
                    }
                    c
                };
                marginal(p1).total_cmp(&marginal(p2))
            })
            .expect("queries are non-empty by construction");
        selected_mask[best.index()] = true;
        plans[q.index()] = Some(best);
    }
    let settled = Selection::new(
        plans
            .into_iter()
            .map(|p| p.expect("every query settled"))
            .collect(),
    );
    // Min-delta refinement over the repaired queries: the greedy settle chose
    // against a partial selection; now that all queries are settled,
    // re-examine each repaired query with the exact delta evaluator.
    let mut evaluator = CostEvaluator::new(problem, settled);
    for &q in &violated {
        let best = problem
            .plans_of(q)
            .min_by(|&p1, &p2| evaluator.delta(q, p1).total_cmp(&evaluator.delta(q, p2)))
            .expect("queries are non-empty by construction");
        if evaluator.delta(q, best) < 0.0 {
            evaluator.apply(q, best);
        }
    }
    Ok(RepairedSelection {
        selection: evaluator.selection().clone(),
        repaired_queries: violated.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1 of the paper.
    fn example_problem() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let p2 = b.plans_of(q1)[1];
        let p3 = b.plans_of(q2)[0];
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn tolerance_comparison_is_mixed_absolute_relative() {
        assert!(within_tolerance(0.0, 5e-7, 1e-6));
        assert!(within_tolerance(1e9, 1e9 + 100.0, 1e-6));
        assert!(!within_tolerance(1.0, 1.1, 1e-6));
        assert!(!within_tolerance(f64::NAN, f64::NAN, 1e-6));
        assert!(!within_tolerance(1.0, f64::INFINITY, 1e-6));
    }

    #[test]
    fn verify_selection_accepts_correct_answers() {
        let p = example_problem();
        let sel = Selection::new(vec![PlanId(1), PlanId(2)]);
        let cost = verify_selection(&p, &sel, 2.0, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn verify_selection_rejects_each_corruption_mode() {
        let p = example_problem();
        let sel = Selection::new(vec![PlanId(1), PlanId(2)]);
        // Mis-priced answer.
        assert!(matches!(
            verify_selection(&p, &sel, 1.0, DEFAULT_TOLERANCE).unwrap_err(),
            IntegrityError::CostMismatch { reported, recomputed, .. }
                if reported == 1.0 && recomputed == 2.0
        ));
        // Non-finite cost.
        assert!(matches!(
            verify_selection(&p, &sel, f64::NAN, DEFAULT_TOLERANCE).unwrap_err(),
            IntegrityError::NonFiniteCost { .. }
        ));
        // Plan of the wrong query.
        let bad = Selection::new(vec![PlanId(2), PlanId(2)]);
        assert!(matches!(
            verify_selection(&p, &bad, 2.0, DEFAULT_TOLERANCE).unwrap_err(),
            IntegrityError::InvalidSelection(_)
        ));
        // Wrong length.
        let short = Selection::new(vec![PlanId(0)]);
        assert!(matches!(
            verify_selection(&p, &short, 2.0, DEFAULT_TOLERANCE).unwrap_err(),
            IntegrityError::InvalidSelection(CoreError::AssignmentLength { .. })
        ));
    }

    #[test]
    fn bound_check_rejects_impossibly_good_answers_only() {
        verify_against_bound(2.0, 2.0, DEFAULT_TOLERANCE).unwrap();
        verify_against_bound(3.0, 2.0, DEFAULT_TOLERANCE).unwrap(); // suboptimal is fine
        assert!(matches!(
            verify_against_bound(1.0, 2.0, DEFAULT_TOLERANCE).unwrap_err(),
            IntegrityError::BelowProvenOptimum { .. }
        ));
        assert!(verify_against_bound(f64::NAN, 2.0, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn repair_fixes_cross_query_and_out_of_range_plans() {
        let p = example_problem();
        // Entry 0 points at a plan of query 1; entry 1 is out of range.
        let bad = Selection::new(vec![PlanId(2), PlanId(99)]);
        let repaired = repair_selection(&p, &bad).unwrap();
        assert_eq!(repaired.repaired_queries, 2);
        assert!(p.validate_selection(&repaired.selection).is_ok());
        // Greedy settle picks the individually cheapest plans (cost 2 + 1);
        // reaching the shared-work optimum (cost 2.0) needs the coordinated
        // two-query move the pipeline's bounded descent phase handles.
        assert_eq!(repaired.selection.plans(), &[PlanId(0), PlanId(3)]);
        assert_eq!(p.selection_cost(&repaired.selection), 3.0);
    }

    #[test]
    fn repair_passes_feasible_candidates_through_untouched() {
        let p = example_problem();
        let ok = Selection::new(vec![PlanId(0), PlanId(3)]);
        let repaired = repair_selection(&p, &ok).unwrap();
        assert_eq!(repaired.repaired_queries, 0);
        assert_eq!(repaired.selection, ok);
    }

    #[test]
    fn repair_rejects_wrong_query_count() {
        let p = example_problem();
        let bad = Selection::new(vec![PlanId(0)]);
        assert!(matches!(
            repair_selection(&p, &bad).unwrap_err(),
            IntegrityError::Unrepairable(CoreError::AssignmentLength { .. })
        ));
    }

    #[test]
    fn repair_stats_merge_and_total() {
        let mut a = RepairStats {
            verified_clean: 3,
            repaired: 1,
            rejected: 0,
        };
        a.merge(&RepairStats {
            verified_clean: 2,
            repaired: 0,
            rejected: 1,
        });
        assert_eq!(a.verified_clean, 5);
        assert_eq!(a.repaired, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn errors_render_and_source_chain() {
        let e = IntegrityError::CostMismatch {
            reported: 1.0,
            recomputed: 2.0,
            tolerance: 1e-6,
        };
        assert!(e.to_string().contains("disagrees"));
        let e = IntegrityError::InvalidSelection(CoreError::NoPlanSelected(QueryId(0)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
