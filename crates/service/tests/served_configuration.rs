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
use mqo_service::api::SolveRequest;
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
