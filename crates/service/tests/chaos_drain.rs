//! Served drains under injected faults.
//!
//! A server whose engine carries a [`SeededFaults`] injector — worker
//! panics, backend failures — must never lose a request: every replayed
//! request ends as a valid solve (200) or a typed error (500/503 with a
//! `reason` tag), the drain completes without hanging, and a worker whose
//! every request panics keeps serving. A second battery pins the determinism
//! contract: the fault plan is keyed on request seeds, so identical seeds
//! and rates produce identical injection counts, counters and per-request
//! outcomes at any worker count, and an injector that never fires is
//! indistinguishable from a production server.

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::engine::EngineConfig;
use mqo_service::metrics::MetricsSnapshot;
use mqo_service::server::{Server, ServerConfig};
use mqo_service::testkit::{
    roundtrip, silence_injected_panics, FaultRates, Injected, SeededFaults,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The small-graph engine every drain here runs.
fn engine_config() -> EngineConfig {
    let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
    engine.device.num_reads = 10;
    engine.device.num_gauges = 2;
    engine
}

/// A server with `faults` behind its engine's fault seam.
fn faulty_server(faults: &Arc<SeededFaults>, workers: usize) -> Server {
    let mut config = ServerConfig::new(engine_config());
    config.queue.workers = workers;
    Server::start_with_faults(config, faults.clone()).expect("bind loopback")
}

/// One tiny two-query instance; the structure is shared so the cache warms,
/// while the per-request `seed` drives both annealing and the fault rolls.
fn body(seed: u64) -> Vec<u8> {
    format!(
        r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
    )
    .into_bytes()
}

/// Replays `bodies` against the server from `clients` concurrent threads
/// and returns `(index, status, parsed body)` per request. Panics if any
/// connection errors — under faults the server must still answer every
/// accepted request.
fn replay(
    addr: std::net::SocketAddr,
    bodies: Vec<Vec<u8>>,
    clients: usize,
) -> Vec<(usize, u16, serde_json::Value)> {
    let bodies = Arc::new(bodies);
    let next = Arc::new(AtomicUsize::new(0));
    let results = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let bodies = Arc::clone(&bodies);
            let next = Arc::clone(&next);
            let results = Arc::clone(&results);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= bodies.len() {
                    return;
                }
                let (status, reply) =
                    roundtrip(addr, "POST", "/solve", &bodies[i]).expect("request completes");
                let v: serde_json::Value =
                    serde_json::from_slice(&reply).expect("body is valid JSON");
                results.lock().unwrap().push((i, status, v));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let mut results = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
    results.sort_by_key(|(i, _, _)| *i);
    results
}

/// The counters that must not depend on scheduling: the injections, all
/// keyed on request seeds, plus the outcome tallies they imply.
fn deterministic_counters(s: &MetricsSnapshot, injected: Injected) -> Vec<(&'static str, u64)> {
    vec![
        ("requests_total", s.requests_total),
        ("solved_total", s.solved_total),
        ("rejected_internal", s.rejected_internal),
        ("rejected_unavailable", s.rejected_unavailable),
        ("backend_attempt_failures", s.backend_attempt_failures),
        ("injected panics", injected.panics),
        ("injected backend failures", injected.backend_failures),
    ]
}

/// Fifty different fault plans: whatever mix of panics and backend
/// failures a seed produces, the drain is clean — every request is
/// answered with a solve or a typed error, shutdown completes, and every
/// injected panic is one `500 internal_error`.
#[test]
fn fifty_fault_seeds_drain_cleanly() {
    silence_injected_panics();
    const REQUESTS: usize = 8;
    for fault_seed in 0..50u64 {
        let faults = SeededFaults::new(FaultRates {
            seed: fault_seed,
            worker_panic_rate: 0.3,
            backend_failure_rate: 0.1,
            ..FaultRates::default()
        });
        let server = faulty_server(&faults, 2);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS)
            .map(|i| body(fault_seed * 100 + i as u64))
            .collect();
        let results = replay(addr, bodies, 3);
        assert_eq!(results.len(), REQUESTS, "seed {fault_seed}: lost requests");
        let mut solved = 0u64;
        for (i, status, v) in &results {
            match status {
                200 => {
                    assert!(v["cost"].is_number(), "seed {fault_seed} request {i}: {v}");
                    solved += 1;
                }
                500 | 503 => {
                    let reason = v["reason"].as_str().unwrap_or_else(|| {
                        panic!("seed {fault_seed} request {i}: {status} without reason: {v}")
                    });
                    assert!(
                        ["internal_error", "backend_unavailable"].contains(&reason),
                        "seed {fault_seed} request {i}: unexpected reason {reason}"
                    );
                }
                other => panic!("seed {fault_seed} request {i}: unexpected status {other}: {v}"),
            }
        }
        // Drain: shutdown must complete (a hang here fails the harness
        // timeout), and the books must balance afterwards.
        server.shutdown();
        let s = server.metrics().snapshot();
        let injected = faults.injected();
        assert_eq!(s.requests_total, REQUESTS as u64, "seed {fault_seed}");
        assert_eq!(s.solved_total, solved, "seed {fault_seed}");
        assert_eq!(
            s.solved_total + s.rejected_internal + s.rejected_unavailable,
            REQUESTS as u64,
            "seed {fault_seed}: outcomes must partition the requests"
        );
        assert_eq!(s.rejected_internal, injected.panics, "seed {fault_seed}");
    }
}

/// Same seeds + same fault rates at 1 worker and at 4 workers: the fault
/// plan is keyed on request seeds, not scheduling, so the per-request
/// outcomes, the injection counts and every counter they drive agree
/// exactly. The engine runs exactly as served: no state carries from one
/// request to the next, so nothing here depends on attempt order.
#[test]
fn fault_plan_is_identical_across_worker_counts() {
    silence_injected_panics();
    const REQUESTS: usize = 24;
    let rates = FaultRates {
        seed: 123,
        worker_panic_rate: 0.4,
        backend_failure_rate: 0.3,
        ..FaultRates::default()
    };
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let faults = SeededFaults::new(rates);
        let server = faulty_server(&faults, workers);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let results = replay(addr, bodies, 3);
        server.shutdown();
        let outcomes: BTreeMap<usize, u16> =
            results.iter().map(|(i, status, _)| (*i, *status)).collect();
        let counters = deterministic_counters(&server.metrics().snapshot(), faults.injected());
        runs.push((outcomes, counters, faults.injected()));
    }
    let (outcomes_a, counters_a, injected) = &runs[0];
    let (outcomes_b, counters_b, _) = &runs[1];
    assert_eq!(
        outcomes_a, outcomes_b,
        "per-request outcomes must not depend on the worker count"
    );
    assert_eq!(
        counters_a, counters_b,
        "fault counters must not depend on the worker count"
    );
    // The plan actually fired: these rates inject faults.
    assert!(injected.panics > 0, "panic stream never fired");
    assert!(injected.backend_failures > 0, "backend stream never fired");
}

/// An injector that never fires (seed set, all rates zero) is
/// indistinguishable from a production server: identical solve answers
/// (modulo wall-clock timing fields) and identically zero fault counters.
#[test]
fn an_idle_injector_is_indistinguishable_from_production() {
    silence_injected_panics();
    const REQUESTS: usize = 6;
    let idle = SeededFaults::new(FaultRates {
        seed: 99,
        ..FaultRates::default()
    });
    let mut answers = Vec::new();
    for faulty in [false, true] {
        let server = if faulty {
            faulty_server(&idle, 2)
        } else {
            let mut config = ServerConfig::new(engine_config());
            config.queue.workers = 2;
            Server::start(config).expect("bind loopback")
        };
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let mut results = replay(addr, bodies, 1);
        server.shutdown();
        let s = server.metrics().snapshot();
        assert_eq!(s.solved_total, REQUESTS as u64);
        assert_eq!(idle.injected(), Injected::default());
        assert_eq!(s.rejected_internal, 0);
        assert_eq!(s.backend_attempt_failures, 0);
        // Strip the only nondeterministic fields (timings) before the
        // bit-identical comparison.
        for (_, _, v) in &mut results {
            if let serde_json::Value::Object(fields) = v {
                fields.retain(|(k, _)| k != "wall_us" && k != "queue_wait_us");
            }
        }
        answers.push(results);
    }
    assert_eq!(
        answers[0], answers[1],
        "an idle injector must answer bit-identically to a production server"
    );
}

/// Panics cost requests, never workers: a stretch in which every request
/// panics leaves the pool serving. The first six request seeds the plan
/// panics on are all answered `500 internal_error`; six seeds it spares
/// then answer 200 on the same server and the same two workers.
#[test]
fn every_request_panicking_leaves_the_pool_serving() {
    silence_injected_panics();
    let rates = FaultRates {
        seed: 7,
        worker_panic_rate: 0.5,
        ..FaultRates::default()
    };
    let faults = SeededFaults::new(rates);
    let server = faulty_server(&faults, 2);
    let addr = server.local_addr();
    let (panicking, spared): (Vec<u64>, Vec<u64>) = (0..64).partition(|&s| rates.worker_panics(s));
    let results = replay(addr, panicking[..6].iter().map(|&s| body(s)).collect(), 2);
    for (i, status, v) in &results {
        assert_eq!(*status, 500, "request {i}: {v}");
        assert_eq!(v["reason"], "internal_error", "request {i}");
    }
    let results = replay(addr, spared[..6].iter().map(|&s| body(s)).collect(), 2);
    for (i, status, v) in &results {
        assert_eq!(*status, 200, "request {i}: {v}");
    }
    server.shutdown();
    let s = server.metrics().snapshot();
    assert_eq!(faults.injected().panics, 6);
    assert_eq!(s.rejected_internal, 6);
    assert_eq!(s.solved_total, 6);
}

/// The answer-integrity acceptance drain: with corruption injected into
/// successful answers, the run ends with **zero unflagged corrupted
/// answers** — every repairable corruption is deterministically repaired
/// to a verified-feasible selection with a truthful cost, every
/// unrepairable one is rejected with a typed 500, and the books reconcile
/// exactly: injected corruptions `== integrity_violations ==
/// integrity_repairs + integrity_rejects`.
#[test]
fn corruption_drains_with_zero_unflagged_answers() {
    const REQUESTS: usize = 16;
    // Client-side re-verification oracle for `body()`'s instance:
    // costs [2, 4, 3, 1], one saving (plan 1, plan 2) of 5.
    let verify = |selection: &[u64], cost: f64| {
        assert_eq!(selection.len(), 2, "one plan per query");
        assert!(selection[0] <= 1 && (2..=3).contains(&selection[1]));
        let costs = [2.0, 4.0, 3.0, 1.0];
        let mut expect = costs[selection[0] as usize] + costs[selection[1] as usize];
        if selection[0] == 1 && selection[1] == 2 {
            expect -= 5.0;
        }
        assert_eq!(cost, expect, "served cost must be truthful");
    };
    for repair in [true, false] {
        let faults = SeededFaults::new(FaultRates {
            seed: 31,
            corruption_rate: 0.6,
            unrepairable: !repair,
            ..FaultRates::default()
        });
        let server = faulty_server(&faults, 2);
        let addr = server.local_addr();
        let bodies = (0..REQUESTS).map(|i| body(i as u64)).collect();
        let results = replay(addr, bodies, 3);
        assert_eq!(results.len(), REQUESTS, "repair={repair}: lost requests");
        let mut rejected = 0u64;
        for (i, status, v) in &results {
            match status {
                200 => {
                    let selection: Vec<u64> = match &v["selection"] {
                        serde_json::Value::Array(items) => {
                            items.iter().map(|p| p.as_u64().expect("plan id")).collect()
                        }
                        other => panic!("request {i}: selection is not an array: {other:?}"),
                    };
                    verify(&selection, v["cost"].as_f64().expect("cost"));
                }
                500 => {
                    assert!(!repair, "every repairable corruption is fixed");
                    assert_eq!(v["reason"], "integrity_violation", "request {i}: {v}");
                    rejected += 1;
                }
                other => panic!("repair={repair} request {i}: status {other}: {v}"),
            }
        }
        server.shutdown();
        let s = server.metrics().snapshot();
        let corruptions = faults.injected().corruptions;
        assert!(
            corruptions > 0,
            "repair={repair}: the corruption stream never fired"
        );
        assert_eq!(
            s.integrity_violations, corruptions,
            "repair={repair}: every injected corruption must be flagged"
        );
        assert_eq!(
            s.integrity_repairs + s.integrity_rejects,
            s.integrity_violations,
            "repair={repair}: flagged answers are repaired or rejected, never served raw"
        );
        if repair {
            assert_eq!(s.integrity_rejects, 0);
            assert_eq!(s.solved_total, REQUESTS as u64);
        } else {
            assert_eq!(s.integrity_repairs, 0);
            assert!(rejected > 0);
            assert_eq!(s.integrity_rejects, rejected);
            assert_eq!(s.solved_total + rejected, REQUESTS as u64);
        }
    }
}
