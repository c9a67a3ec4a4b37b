#![warn(missing_docs)]

//! # mqo-milp
//!
//! A from-scratch exact solver standing in for the commercial
//! integer-linear-programming solver the paper benchmarks against
//! (Section 7.1). It needs no LP: best-first branch-and-bound over plan
//! (or variable) fixations, pruned by decomposable combinatorial bounds.
//!
//! * [`bound`] — decomposable admissible lower bounds for both search
//!   spaces;
//! * [`bb_mqo`] / [`bb_qubo`] — exact anytime branch-and-bound engines on
//!   the MQO instance ("LIN-MQO") and on its QUBO ("LIN-QUB"), with greedy
//!   incumbent dives, deadlines, and [`mqo_core::trace::Trace`] recording
//!   for the cost-vs-time figures.
//!
//! ```
//! use mqo_milp::bb_mqo::{self, MqoBbConfig};
//! use mqo_core::MqoProblem;
//!
//! let mut b = MqoProblem::builder();
//! let q1 = b.add_query(&[2.0, 4.0]);
//! let q2 = b.add_query(&[3.0, 1.0]);
//! let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
//! b.add_saving(p2, p3, 5.0).unwrap();
//! let problem = b.build().unwrap();
//!
//! let out = bb_mqo::solve(&problem, &MqoBbConfig::default());
//! let (selection, cost) = out.best;
//! assert_eq!(cost, 2.0);
//! assert_eq!(problem.selection_cost(&selection), 2.0);
//! ```

pub mod bb_mqo;
pub mod bb_qubo;
pub mod bound;

pub use bb_mqo::{MqoBbConfig, MqoBbOutcome, StopReason};
pub use bb_qubo::{QuboBbConfig, QuboBbOutcome};
