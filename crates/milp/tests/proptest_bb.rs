//! Property-based tests of the branch-and-bound engines against exhaustive
//! enumeration.

use mqo_core::ids::{PlanId, VarId};
use mqo_core::problem::MqoProblem;
use mqo_core::qubo::Qubo;
use mqo_milp::{bb_mqo, bb_qubo, MqoBbConfig, QuboBbConfig, StopReason};
use proptest::prelude::*;

/// Strategy: a random MQO instance (2–5 queries × 2–3 plans, sparse savings).
fn arb_problem() -> impl Strategy<Value = MqoProblem> {
    let queries = proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, 2..=3), 2..=5);
    (
        queries,
        proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..4.0), 0..=8),
    )
        .prop_map(|(costs, savings)| {
            let mut b = MqoProblem::builder();
            for q in &costs {
                b.add_query(q);
            }
            let total = b.num_plans();
            for (x, y, s) in savings {
                let _ = b.add_saving(PlanId::new(x % total), PlanId::new(y % total), s);
            }
            b.build().unwrap()
        })
}

fn arb_qubo() -> impl Strategy<Value = Qubo> {
    (2usize..=7).prop_flat_map(|n| {
        let linear = proptest::collection::vec(-8.0f64..8.0, n);
        let quad = proptest::collection::vec(((0..n, 0..n), -5.0f64..5.0), 0..=n);
        (Just(n), linear, quad).prop_map(|(n, linear, quad)| {
            let mut b = Qubo::builder(n);
            for (i, w) in linear.into_iter().enumerate() {
                b.add_linear(VarId::new(i), w);
            }
            for ((i, j), w) in quad {
                if i != j {
                    b.add_quadratic(VarId::new(i), VarId::new(j), w);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LIN-MQO (branch-and-bound) always matches brute force and proves it.
    #[test]
    fn bb_mqo_matches_brute_force(problem in arb_problem()) {
        let (_, optimum) = problem.brute_force_optimum();
        let out = bb_mqo::solve(&problem, &MqoBbConfig::default());
        prop_assert_eq!(out.stop, StopReason::Optimal);
        let (sel, cost) = out.best;
        prop_assert!((cost - optimum).abs() < 1e-9);
        prop_assert!(problem.validate_selection(&sel).is_ok());
        prop_assert!(out.root_bound <= optimum + 1e-9);
    }

    /// LIN-QUB (branch-and-bound on the QUBO) matches brute force too.
    #[test]
    fn bb_qubo_matches_brute_force(qubo in arb_qubo()) {
        let (_, optimum) = qubo.brute_force_minimum();
        let out = bb_qubo::solve(&qubo, &QuboBbConfig::default());
        prop_assert_eq!(out.stop, StopReason::Optimal);
        let (x, e) = out.best;
        prop_assert!((e - optimum).abs() < 1e-9);
        prop_assert!((qubo.energy(&x) - e).abs() < 1e-9);
    }
}
