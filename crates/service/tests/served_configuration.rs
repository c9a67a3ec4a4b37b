//! The configuration `mqo_serve` runs: parallelism across requests only.
//!
//! `EngineConfig::new` runs each solve's reads on the queue worker that owns
//! the request (`device.threads = 1`), and the queue runs one worker per
//! core. These tests pin both defaults and prove that concurrent requests
//! through a real server answer bit-for-bit like a solo solve that fans its
//! reads over four threads.

use mqo_annealer::resolve_threads;
use mqo_chimera::graph::ChimeraGraph;
use mqo_core::problem::MqoProblem;
use mqo_service::api::{Backend, SolveRequest};
use mqo_service::engine::{EngineConfig, SolveEngine};
use mqo_service::metrics::Metrics;
use mqo_service::queue::QueueConfig;
use mqo_service::server::{Server, ServerConfig};
use mqo_service::testkit::roundtrip;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Response fields fixed by `(problem, seed)`; timing and cache fields vary
/// with scheduling.
const SOLUTION_FIELDS: [&str; 7] = [
    "selection",
    "cost",
    "backend",
    "route_reason",
    "reads",
    "qubits_used",
    "device_time_us",
];

/// The paper's two-query example (quickstart): optimum cost 2.
fn quickstart() -> MqoProblem {
    let mut b = MqoProblem::builder();
    let q1 = b.add_query(&[2.0, 4.0]);
    let q2 = b.add_query(&[3.0, 1.0]);
    let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
    b.add_saving(p2, p3, 5.0).unwrap();
    b.build().unwrap()
}

/// Small instances of the paper's generator, one per plan class.
fn paper_instances(graph: &ChimeraGraph) -> Vec<MqoProblem> {
    paper::PAPER_CLASSES
        .iter()
        .map(|&plans| {
            let config = PaperWorkloadConfig {
                max_queries: 4 + plans,
                ..PaperWorkloadConfig::paper_class(plans)
            };
            let mut rng = ChaCha8Rng::seed_from_u64(plans as u64);
            paper::generate(graph, &config, &mut rng).unwrap().problem
        })
        .collect()
}

#[test]
fn serving_defaults_run_one_solve_per_core_on_one_thread() {
    let engine = EngineConfig::new(ChimeraGraph::dwave_2x());
    assert_eq!(engine.device.threads, 1);
    assert_eq!(QueueConfig::default().workers, resolve_threads(0));
    let server = ServerConfig::new(engine);
    assert_eq!(server.queue, QueueConfig::default());
}

#[test]
fn concurrent_served_answers_match_a_four_thread_solo_solve() {
    const CLIENTS: usize = 3;
    let graph = ChimeraGraph::dwave_2x();
    let mut problems = vec![quickstart()];
    problems.extend(paper_instances(&graph));
    let requests: Vec<SolveRequest> = problems
        .into_iter()
        .enumerate()
        .map(|(i, problem)| SolveRequest::new(problem, 40 + i as u64))
        .collect();

    let mut solo_config = EngineConfig::new(graph.clone());
    solo_config.device.threads = 4;
    let solo = SolveEngine::new(solo_config, Arc::new(Metrics::default()));
    // Through the same JSON writer the server answers with.
    let expected: Vec<serde_json::Value> = requests
        .iter()
        .map(|req| {
            let json = serde_json::to_string(&solo.solve(req).unwrap()).unwrap();
            serde_json::from_str(&json).unwrap()
        })
        .collect();
    assert_eq!(expected[0]["cost"], 2.0, "quickstart optimum");
    for answer in &expected {
        assert_eq!(answer["backend"], "annealer", "{answer:?}");
    }

    let server = Server::start(ServerConfig::new(EngineConfig::new(graph))).unwrap();
    let addr = server.local_addr();
    let bodies: Arc<Vec<Vec<u8>>> = Arc::new(
        requests
            .iter()
            .map(|req| serde_json::to_string(req).unwrap().into_bytes())
            .collect(),
    );
    // Every client sends every request, each starting at a different one,
    // so the queue workers solve different requests at the same time.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                (0..bodies.len())
                    .map(|k| {
                        let i = (c + k) % bodies.len();
                        let (status, body) = roundtrip(addr, "POST", "/solve", &bodies[i]).unwrap();
                        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                        (
                            i,
                            serde_json::from_slice::<serde_json::Value>(&body).unwrap(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answered = 0;
    for client in clients {
        for (i, served) in client.join().unwrap() {
            for field in SOLUTION_FIELDS {
                assert_eq!(served[field], expected[i][field], "request {i}: {field}");
            }
            answered += 1;
        }
    }
    assert_eq!(answered, CLIENTS * requests.len());
    server.shutdown();
}

/// `(problem, seed)` requests whose served answers are pinned below: the
/// 12 `cold-backlog` shapes (2–5 plans × 2–4 queries) at 10 reads, then 12
/// `fleet-small` shapes (4 queries × 2 plans) at 4 reads, after the
/// quickstart at the server default.
fn golden_requests(graph: &ChimeraGraph) -> Vec<SolveRequest> {
    let instance = |plans: usize, queries: usize, draw: u64| {
        let config = PaperWorkloadConfig {
            max_queries: queries,
            sharing_probability: 0.6,
            ..PaperWorkloadConfig::paper_class(plans)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1_000 + draw);
        paper::generate(graph, &config, &mut rng).unwrap().problem
    };
    let mut requests = vec![SolveRequest::new(quickstart(), 7)];
    for k in 0..12u64 {
        let (plans, queries) = (2 + k as usize % 4, 2 + k as usize / 4);
        requests.push(SolveRequest {
            reads: Some(10),
            ..SolveRequest::new(instance(plans, queries, k), 100 + k)
        });
    }
    for k in 12..24u64 {
        requests.push(SolveRequest {
            reads: Some(4),
            ..SolveRequest::new(instance(2, 4, k), 100 + k)
        });
    }
    requests
}

/// `(selection, cost bits, reads)` of each golden request, recorded before
/// the lane kernel and the in-repo Metropolis `exp` replaced the one-read
/// kernel and libm's `exp`. Any kernel change that moves a served answer
/// fails here.
const GOLDEN: [(&[u32], u64, usize); 25] = [
    (&[1, 2], 0x4000000000000000, 100),
    (&[0, 3], 0x4010000000000000, 10),
    (&[2, 3], 0x4010000000000000, 10),
    (&[3, 7], 0x4010000000000000, 10),
    (&[0, 9], 0x4014000000000000, 10),
    (&[1, 2, 5], 0x4018000000000000, 10),
    (&[0, 4, 6], 0x401c000000000000, 10),
    (&[1, 4, 9], 0x4014000000000000, 10),
    (&[2, 7, 12], 0x4010000000000000, 10),
    (&[1, 2, 5, 6], 0x4026000000000000, 10),
    (&[0, 4, 8, 11], 0x4024000000000000, 10),
    (&[3, 7, 10, 14], 0x4018000000000000, 10),
    (&[0, 5, 14, 16], 0x4028000000000000, 10),
    (&[1, 2, 4, 7], 0x402c000000000000, 4),
    (&[0, 3, 4, 7], 0x4024000000000000, 4),
    (&[0, 3, 5, 7], 0x4028000000000000, 4),
    (&[1, 3, 5, 6], 0x4022000000000000, 4),
    (&[1, 2, 4, 6], 0x402e000000000000, 4),
    (&[0, 3, 4, 6], 0x402e000000000000, 4),
    (&[0, 3, 5, 6], 0x4032000000000000, 4),
    (&[1, 3, 4, 6], 0x402c000000000000, 4),
    (&[1, 2, 5, 6], 0x4022000000000000, 4),
    (&[1, 3, 4, 7], 0x401c000000000000, 4),
    (&[0, 2, 5, 6], 0x4035000000000000, 4),
    (&[0, 2, 5, 7], 0x4026000000000000, 4),
];

#[test]
fn served_answers_match_the_golden_table() {
    let graph = ChimeraGraph::dwave_2x();
    let engine = SolveEngine::new(
        EngineConfig::new(graph.clone()),
        Arc::new(Metrics::default()),
    );
    let requests = golden_requests(&graph);
    assert_eq!(requests.len(), GOLDEN.len());
    for (i, (req, &(selection, cost_bits, reads))) in requests.iter().zip(&GOLDEN).enumerate() {
        let answer = engine.solve(req).unwrap();
        assert_eq!(answer.backend, Backend::Annealer, "request {i}");
        assert_eq!(
            (
                answer.selection.as_slice(),
                answer.cost.to_bits(),
                answer.reads
            ),
            (selection, cost_bits, reads),
            "request {i}: cost {}",
            answer.cost
        );
    }
    assert_eq!(f64::from_bits(GOLDEN[0].1), 2.0, "quickstart optimum");
}
