//! Dense two-phase primal simplex with bounded variables.
//!
//! Minimises `c·x` subject to sparse linear constraints and box bounds
//! `0 ≤ x_j ≤ u_j` (upper bounds handled *implicitly*: non-basic variables
//! may rest at either bound, so the `y ≤ 1`-style rows the MQO/QUBO models
//! would otherwise need never enter the tableau).
//!
//! Phase 1 drives artificial variables (added for `=` and `≥` rows) to zero;
//! phase 2 optimises the true objective. Pricing is Dantzig's rule with an
//! automatic switch to Bland's rule after a run of degenerate pivots, which
//! guarantees termination.
//!
//! This solver backs the LP relaxations of the branch-and-bound in
//! [`crate::bb_mqo`], playing the role of the commercial ILP solver used
//! for the paper's LIN-MQO and LIN-QUB baselines.

use crate::model::{LinearProgram, Sense};

/// Solver tolerances and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexConfig {
    /// Reduced-cost optimality tolerance.
    pub cost_tol: f64,
    /// Minimum absolute pivot element.
    pub pivot_tol: f64,
    /// Feasibility tolerance for declaring phase 1 successful.
    pub feas_tol: f64,
    /// Hard iteration cap across both phases (0 = automatic).
    pub max_iterations: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_threshold: usize,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            cost_tol: 1e-9,
            pivot_tol: 1e-8,
            feas_tol: 1e-6,
            max_iterations: 0,
            bland_threshold: 64,
        }
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Proved optimal.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration cap was reached before convergence.
    IterationLimit,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves with default configuration.
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    solve_with(lp, &SimplexConfig::default())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

struct Tableau {
    m: usize,
    total: usize,
    /// Row-major `m × total` current tableau (`B⁻¹A`).
    a: Vec<f64>,
    /// Current values of the basic variables, row-indexed.
    xb: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VarState>,
    upper: Vec<f64>,
    /// First artificial column (artificials occupy `art_start..total`).
    art_start: usize,
    cfg: SimplexConfig,
    iterations: usize,
    degenerate_streak: usize,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl Tableau {
    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.total..(i + 1) * self.total]
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.total + j]
    }

    fn build(lp: &LinearProgram, cfg: SimplexConfig) -> Tableau {
        let n = lp.num_vars();
        let m = lp.constraints.len();

        // Normalise rows to non-negative rhs, count extra columns.
        type Row = (Vec<(usize, f64)>, Sense, f64);
        let mut rows: Vec<Row> = lp
            .constraints
            .iter()
            .map(|c| {
                if c.rhs < 0.0 {
                    let coeffs = c.coeffs.iter().map(|&(v, a)| (v, -a)).collect();
                    let sense = match c.sense {
                        Sense::Le => Sense::Ge,
                        Sense::Eq => Sense::Eq,
                        Sense::Ge => Sense::Le,
                    };
                    (coeffs, sense, -c.rhs)
                } else {
                    (c.coeffs.clone(), c.sense, c.rhs)
                }
            })
            .collect();

        let n_slack = rows
            .iter()
            .filter(|(_, s, _)| matches!(s, Sense::Le | Sense::Ge))
            .count();
        let n_art = rows
            .iter()
            .filter(|(_, s, _)| matches!(s, Sense::Eq | Sense::Ge))
            .count();
        let art_start = n + n_slack;
        let total = art_start + n_art;

        let mut a = vec![0.0; m * total];
        let mut xb = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut upper = lp.upper.clone();
        upper.resize(total, f64::INFINITY);
        let mut state = vec![VarState::AtLower; total];

        let mut next_slack = n;
        let mut next_art = art_start;
        for (i, (coeffs, sense, rhs)) in rows.drain(..).enumerate() {
            let row = &mut a[i * total..(i + 1) * total];
            for (v, coeff) in coeffs {
                row[v] += coeff;
            }
            xb[i] = rhs;
            match sense {
                Sense::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Sense::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
            state[basis[i]] = VarState::Basic(i);
        }

        Tableau {
            m,
            total,
            a,
            xb,
            basis,
            state,
            upper,
            art_start,
            cfg,
            iterations: 0,
            degenerate_streak: 0,
        }
    }

    /// Reduced costs for a cost vector over all columns.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let mut d = cost.to_vec();
        for i in 0..self.m {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                let row = self.row(i);
                for (dj, &aij) in d.iter_mut().zip(row) {
                    *dj -= cb * aij;
                }
            }
        }
        d
    }

    fn max_iterations(&self) -> usize {
        if self.cfg.max_iterations > 0 {
            self.cfg.max_iterations
        } else {
            5_000 + 40 * (self.m + self.total)
        }
    }

    /// Runs the simplex loop on reduced-cost row `d` until optimality.
    fn optimise(&mut self, d: &mut [f64]) -> PhaseEnd {
        loop {
            if self.iterations >= self.max_iterations() {
                return PhaseEnd::IterationLimit;
            }
            let bland = self.degenerate_streak >= self.cfg.bland_threshold;

            // Pricing.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, dir)
            for (j, &dj) in d.iter().enumerate() {
                let movable = self.upper[j] > 0.0; // fixed columns cannot move
                if !movable {
                    continue;
                }
                let dir = match self.state[j] {
                    VarState::AtLower if dj < -self.cfg.cost_tol => 1.0,
                    VarState::AtUpper if dj > self.cfg.cost_tol => -1.0,
                    _ => continue,
                };
                if bland {
                    entering = Some((j, dj.abs(), dir));
                    break;
                }
                if entering.is_none_or(|(_, best, _)| dj.abs() > best) {
                    entering = Some((j, dj.abs(), dir));
                }
            }
            let Some((j, _, dir)) = entering else {
                return PhaseEnd::Optimal;
            };

            // Ratio test.
            let mut delta = self.upper[j]; // bound-flip span (may be ∞)
            let mut leave: Option<(usize, bool, f64)> = None; // (row, hits_upper, |pivot|)
            for i in 0..self.m {
                let coeff = self.at(i, j);
                if coeff.abs() < self.cfg.pivot_tol {
                    continue;
                }
                let change = dir * coeff; // xb[i] decreases by change·δ
                let (limit, hits_upper) = if change > 0.0 {
                    (self.xb[i].max(0.0) / change, false)
                } else {
                    let ub = self.upper[self.basis[i]];
                    if ub.is_infinite() {
                        continue;
                    }
                    (((ub - self.xb[i]).max(0.0)) / (-change), true)
                };
                let better = match leave {
                    None => limit < delta - 1e-12,
                    Some((_, _, best_pivot)) => {
                        limit < delta - 1e-12
                            || (limit <= delta + 1e-12 && coeff.abs() > best_pivot)
                    }
                };
                if better {
                    delta = delta.min(limit);
                    leave = Some((i, hits_upper, coeff.abs()));
                }
            }

            if delta.is_infinite() {
                return PhaseEnd::Unbounded;
            }
            let delta = delta.max(0.0);
            self.iterations += 1;
            if delta < self.cfg.feas_tol {
                self.degenerate_streak += 1;
            } else {
                self.degenerate_streak = 0;
            }

            // Apply the step to the basic values.
            for i in 0..self.m {
                let coeff = self.at(i, j);
                if coeff != 0.0 {
                    self.xb[i] -= dir * coeff * delta;
                }
            }

            match leave {
                None => {
                    // Bound flip: entering travels to its other bound.
                    self.state[j] = match self.state[j] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        VarState::Basic(_) => unreachable!("entering is non-basic"),
                    };
                }
                Some((r, hits_upper, _)) => {
                    let entering_value = match self.state[j] {
                        VarState::AtLower => delta,
                        VarState::AtUpper => self.upper[j] - delta,
                        VarState::Basic(_) => unreachable!("entering is non-basic"),
                    };
                    let leaving = self.basis[r];
                    self.state[leaving] = if hits_upper {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };

                    // Row reduction.
                    let pivot = self.at(r, j);
                    let inv = 1.0 / pivot;
                    for v in &mut self.a[r * self.total..(r + 1) * self.total] {
                        *v *= inv;
                    }
                    for i in 0..self.m {
                        if i == r {
                            continue;
                        }
                        let f = self.at(i, j);
                        if f != 0.0 {
                            let (head, tail) = self.a.split_at_mut(r.max(i) * self.total);
                            let (row_a, row_b) = if i < r {
                                (
                                    &mut head[i * self.total..(i + 1) * self.total],
                                    &tail[..self.total],
                                )
                            } else {
                                (
                                    &mut tail[..self.total],
                                    &head[r * self.total..(r + 1) * self.total],
                                )
                            };
                            for (x, &y) in row_a.iter_mut().zip(row_b) {
                                *x -= f * y;
                            }
                        }
                    }
                    let dj = d[j];
                    if dj != 0.0 {
                        let row = &self.a[r * self.total..(r + 1) * self.total];
                        for (x, &y) in d.iter_mut().zip(row) {
                            *x -= dj * y;
                        }
                    }

                    self.basis[r] = j;
                    self.state[j] = VarState::Basic(r);
                    self.xb[r] = entering_value;
                }
            }
        }
    }

    fn extract(&self, lp: &LinearProgram) -> LpSolution {
        let n = lp.num_vars();
        let mut x = vec![0.0; n];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VarState::Basic(i) => self.xb[i].max(0.0),
                VarState::AtLower => 0.0,
                VarState::AtUpper => self.upper[j],
            };
        }
        let objective = lp.objective_value(&x);
        LpSolution {
            x,
            objective,
            iterations: self.iterations,
        }
    }
}

/// Solves the LP with an explicit configuration.
pub fn solve_with(lp: &LinearProgram, cfg: &SimplexConfig) -> LpOutcome {
    let mut t = Tableau::build(lp, *cfg);

    // Phase 1: minimise the sum of artificials (skipped when none exist).
    if t.art_start < t.total {
        let mut c1 = vec![0.0; t.total];
        for c in &mut c1[t.art_start..] {
            *c = 1.0;
        }
        let mut d1 = t.reduced_costs(&c1);
        match t.optimise(&mut d1) {
            PhaseEnd::Optimal => {}
            // Phase 1 is bounded below by 0, so Unbounded cannot happen.
            PhaseEnd::Unbounded => unreachable!("phase 1 objective is bounded"),
            PhaseEnd::IterationLimit => return LpOutcome::IterationLimit,
        }
        let infeasibility: f64 = (0..t.m)
            .filter(|&i| t.basis[i] >= t.art_start)
            .map(|i| t.xb[i].max(0.0))
            .sum();
        if infeasibility > cfg.feas_tol {
            return LpOutcome::Infeasible;
        }
        // Freeze artificials at zero for phase 2.
        for j in t.art_start..t.total {
            t.upper[j] = 0.0;
        }
        t.degenerate_streak = 0;
    }

    // Phase 2: the real objective.
    let mut c2 = vec![0.0; t.total];
    c2[..lp.num_vars()].copy_from_slice(&lp.objective);
    let mut d2 = t.reduced_costs(&c2);
    match t.optimise(&mut d2) {
        PhaseEnd::Optimal => LpOutcome::Optimal(t.extract(lp)),
        PhaseEnd::Unbounded => LpOutcome::Unbounded,
        PhaseEnd::IterationLimit => LpOutcome::IterationLimit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Sense};

    fn lp(obj: &[f64], upper: &[f64]) -> LinearProgram {
        LinearProgram {
            objective: obj.to_vec(),
            constraints: vec![],
            upper: upper.to_vec(),
        }
    }

    #[test]
    fn pure_bounds_problem() {
        // min −2x₀ + x₁, 0 ≤ x ≤ 1: x₀ = 1 (bound flip), x₁ = 0.
        let p = lp(&[-2.0, 1.0], &[1.0, 1.0]);
        let s = solve(&p).optimal().unwrap();
        assert_eq!(s.x, vec![1.0, 0.0]);
        assert_eq!(s.objective, -2.0);
    }

    #[test]
    fn unbounded_without_upper_bound() {
        let p = lp(&[-1.0], &[f64::INFINITY]);
        assert_eq!(solve(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn classic_two_variable_maximisation() {
        // max 3x + 5y (min −3x − 5y) s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        // Optimum (2, 6) with value 36.
        let mut p = lp(&[-3.0, -5.0], &[f64::INFINITY, f64::INFINITY]);
        p.add_constraint(vec![(0, 1.0)], Sense::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Sense::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        let s = solve(&p).optimal().unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-7, "{:?}", s.x);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
        assert!((s.objective + 36.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints_with_phase_one() {
        // min x + 2y s.t. x + y = 10, x − y ≥ 2 → x = 6, y = 4? Check:
        // minimise ⇒ push y down: y as small as possible with x + y = 10,
        // x − y ≥ 2 ⇒ y ≤ 4 ⇒ y can be 0? x = 10, x − y = 10 ≥ 2 ok.
        // Value 10. (y = 0.)
        let mut p = lp(&[1.0, 2.0], &[f64::INFINITY, f64::INFINITY]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 10.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Sense::Ge, 2.0);
        let s = solve(&p).optimal().unwrap();
        assert!((s.x[0] - 10.0).abs() < 1e-7);
        assert!(s.x[1].abs() < 1e-7);
        assert!((s.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasibility() {
        // x ≤ 1 and x ≥ 3 with x ≥ 0.
        let mut p = lp(&[1.0], &[f64::INFINITY]);
        p.add_constraint(vec![(0, 1.0)], Sense::Le, 1.0);
        p.add_constraint(vec![(0, 1.0)], Sense::Ge, 3.0);
        assert_eq!(solve(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // −x ≤ −5  ⇔  x ≥ 5; min x → 5.
        let mut p = lp(&[1.0], &[f64::INFINITY]);
        p.add_constraint(vec![(0, -1.0)], Sense::Le, -5.0);
        let s = solve(&p).optimal().unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn upper_bounds_are_respected_without_explicit_rows() {
        // min −x₀ − x₁ s.t. x₀ + x₁ ≤ 1.5, 0 ≤ x ≤ 1.
        // Optimum 1.5 split across the two variables.
        let mut p = lp(&[-1.0, -1.0], &[1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Le, 1.5);
        let s = solve(&p).optimal().unwrap();
        assert!((s.objective + 1.5).abs() < 1e-7);
        assert!(s.x.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn assignment_polytope_relaxation_is_integral() {
        // Two queries × two plans, one-plan-per-query equalities: the LP
        // optimum is a vertex, i.e. integral.
        let mut p = lp(&[3.0, 1.0, 2.0, 5.0], &[1.0; 4]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 1.0);
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], Sense::Eq, 1.0);
        let s = solve(&p).optimal().unwrap();
        assert_eq!(
            s.x.iter().map(|&v| (v > 0.5) as u8).collect::<Vec<_>>(),
            vec![0, 1, 1, 0]
        );
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problems_terminate() {
        // Many redundant rows through the origin — classic cycling bait.
        let mut p = lp(&[-1.0, -1.0, -1.0], &[f64::INFINITY; 3]);
        for _ in 0..5 {
            p.add_constraint(vec![(0, 1.0), (1, -1.0)], Sense::Le, 0.0);
            p.add_constraint(vec![(1, 1.0), (2, -1.0)], Sense::Le, 0.0);
        }
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Le, 3.0);
        let s = solve(&p).optimal().unwrap();
        assert!((s.objective + 3.0).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn solves_an_mqo_relaxation_to_its_integral_optimum() {
        use crate::model::mqo_to_ilp;
        use mqo_core::problem::MqoProblem;
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let p2 = b.plans_of(q1)[1];
        let p3 = b.plans_of(q2)[0];
        b.add_saving(p2, p3, 5.0).unwrap();
        let problem = b.build().unwrap();
        let ilp = mqo_to_ilp(&problem);
        let s = solve(&ilp.program.relaxation).optimal().unwrap();
        // Relaxation bound can be ≤ the ILP optimum (2.0)...
        assert!(s.objective <= 2.0 + 1e-9);
        // ...and must beat the no-sharing bound.
        assert!(s.objective >= -3.0);
    }

    #[test]
    fn random_ilps_lp_bound_never_exceeds_integer_optimum() {
        // Deterministic pseudo-random small binary programs; compare the LP
        // relaxation against exhaustive enumeration.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..25 {
            let n = 3 + (next() % 4) as usize; // 3..=6 vars
            let m = 2 + (next() % 3) as usize;
            let mut p = LinearProgram::default();
            for _ in 0..n {
                p.add_var(((next() % 21) as f64) - 10.0, 1.0);
            }
            for _ in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n)
                    .filter_map(|j| {
                        let c = ((next() % 9) as f64) - 4.0;
                        (c != 0.0).then_some((j, c))
                    })
                    .collect();
                let rhs = ((next() % 7) as f64) - 1.0;
                p.add_constraint(coeffs, Sense::Le, rhs);
            }
            // Integer optimum by enumeration.
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << n) {
                let x: Vec<f64> = (0..n)
                    .map(|j| f64::from(u8::from(mask & (1 << j) != 0)))
                    .collect();
                if p.is_feasible(&x, 1e-9) {
                    best = best.min(p.objective_value(&x));
                }
            }
            match solve(&p) {
                LpOutcome::Optimal(s) => {
                    if best.is_finite() {
                        assert!(
                            s.objective <= best + 1e-6,
                            "case {case}: LP {} > ILP {best}",
                            s.objective
                        );
                    }
                    assert!(
                        p.is_feasible(&s.x, 1e-5),
                        "case {case}: LP point infeasible"
                    );
                }
                LpOutcome::Infeasible => {
                    assert!(best.is_infinite(), "case {case}: LP infeasible but ILP not");
                }
                other => panic!("case {case}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut p = lp(&[-3.0, -5.0], &[f64::INFINITY, f64::INFINITY]);
        p.add_constraint(vec![(0, 1.0)], Sense::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Sense::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Sense::Le, 18.0);
        let cfg = SimplexConfig {
            max_iterations: 1,
            ..SimplexConfig::default()
        };
        assert_eq!(solve_with(&p, &cfg), LpOutcome::IterationLimit);
    }
}
