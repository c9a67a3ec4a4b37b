//! The solve queue is a FIFO: one worker answers requests in the order they
//! were admitted, whatever their size. A request whose solve panics is
//! answered `500 internal_error`, and the worker goes on to the next
//! request, whose answer is the one a fresh engine gives.

use mqo::prelude::*;
use mqo_service::queue::Responder;
use mqo_service::testkit::{silence_injected_panics, INJECTED_PANIC};
use mqo_service::{
    EngineConfig, FaultSeam, Metrics, QueueConfig, Reject, SolveEngine, SolveQueue, SolveRequest,
    SolveResponse,
};
use std::sync::mpsc;
use std::sync::Arc;

/// The request seed whose solve panics.
const PANIC_SEED: u64 = 13;

/// Panics at solve entry on [`PANIC_SEED`] only.
#[derive(Debug)]
struct PanicOnSeed;

impl FaultSeam for PanicOnSeed {
    fn on_solve(&self, req: &SolveRequest) {
        if req.seed == PANIC_SEED {
            panic!("{INJECTED_PANIC}: request seed {PANIC_SEED}");
        }
    }
}

/// `n` two-plan queries with chained savings.
fn chain(n: usize) -> MqoProblem {
    let mut b = MqoProblem::builder();
    let mut prev = None;
    for _ in 0..n {
        let q = b.add_query(&[2.0, 3.0]);
        let plans = b.plans_of(q);
        if let Some(p) = prev {
            b.add_saving(p, plans[0], 1.5).unwrap();
        }
        prev = Some(plans[1]);
    }
    b.build().unwrap()
}

fn config() -> EngineConfig {
    let mut config = EngineConfig::new(ChimeraGraph::new(2, 2));
    config.device.num_reads = 20;
    config.device.num_gauges = 2;
    config
}

#[test]
fn one_worker_answers_in_admission_order_and_survives_a_panic() {
    silence_injected_panics();
    let engine = SolveEngine::with_faults(
        config(),
        Arc::new(Metrics::default()),
        Arc::new(PanicOnSeed),
    );
    let queue = SolveQueue::new(
        Arc::new(engine),
        QueueConfig {
            workers: 1,
            ..QueueConfig::default()
        },
    );
    // Largest first, smallest last: a queue that reorders by size answers
    // the last request first.
    let requests = [
        SolveRequest::new(chain(4), 1),
        SolveRequest::new(chain(3), PANIC_SEED),
        SolveRequest::new(chain(2), 2),
    ];
    let (tx, rx) = mpsc::channel();
    for (i, req) in requests.iter().enumerate() {
        let tx = tx.clone();
        let responder = Responder::new(move |answer| {
            let _ = tx.send((i, answer));
        });
        assert!(queue.submit_with(req.clone(), responder).is_ok());
    }
    drop(tx);
    queue.spawn_workers();
    queue.shutdown();
    let answers: Vec<(usize, Result<SolveResponse, Reject>)> = rx.iter().collect();

    let order: Vec<usize> = answers.iter().map(|(i, _)| *i).collect();
    assert_eq!(order, [0, 1, 2], "answers arrive in admission order");
    assert!(answers[0].1.is_ok(), "{:?}", answers[0].1);
    match &answers[1].1 {
        Err(Reject::InternalError { detail }) => assert!(detail.contains(INJECTED_PANIC)),
        other => panic!("the panicking request must answer InternalError, got {other:?}"),
    }
    let served = answers[2]
        .1
        .as_ref()
        .expect("the worker outlives the panic");
    let fresh = SolveEngine::new(config(), Arc::new(Metrics::default()))
        .solve(&requests[2])
        .expect("a fresh engine solves the small chain");
    assert_eq!(served.selection, fresh.selection);
    assert_eq!(served.cost.to_bits(), fresh.cost.to_bits());
    assert_eq!(served.backend, fresh.backend);
    assert_eq!(served.cache_hit, fresh.cache_hit);
    assert_eq!(served.reads, fresh.reads);
    assert_eq!(served.qubits_used, fresh.qubits_used);
    assert_eq!(served.route_reason, fresh.route_reason);
    assert_eq!(
        served.device_time_us.to_bits(),
        fresh.device_time_us.to_bits()
    );
}
