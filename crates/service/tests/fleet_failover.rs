//! Fleet-supervision and zero-loss failover integration tests (ISSUE-10).
//!
//! These tests drive *real* `mqo_serve` cell processes (via
//! `CARGO_BIN_EXE_mqo_serve`) under a supervised `mqo_router` front and
//! prove the robustness contract end to end:
//!
//! * a SIGKILLed cell respawns and the fleet loses nothing — every request
//!   ends as exactly one final outcome (a 200 solve or a typed error), and
//!   the seeded 50-seed kill-chaos drain completes with zero lost requests
//!   and answers bit-identical to a solo unsupervised server;
//! * a crash-looping cell is quarantined and its shard range remapped onto
//!   the healthy cells;
//! * transparent replay after a cell death returns answers bit-identical
//!   to the first attempt — solves are deterministic by `(problem, seed)`,
//!   which is the idempotency argument that makes replay safe;
//! * the forwarded deadline budget strictly decreases across hops
//!   ([`mqo_service::shard::next_deadline`]).

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::chaos::CellKillSchedule;
use mqo_service::engine::EngineConfig;
use mqo_service::server::{Server, ServerConfig};
use mqo_service::shard::{next_deadline, MqoRouter, MqoRouterConfig};
use mqo_service::supervisor::SupervisorConfig;
use mqo_service::testkit::roundtrip;
use proptest::prelude::*;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A vector shared across the drain threads.
type SharedVec<T> = Arc<Mutex<Vec<T>>>;

/// A free loopback port: bind :0, read the address, drop the listener.
/// The tiny reuse race is acceptable in tests.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    listener.local_addr().expect("probe addr").to_string()
}

/// The cell command template: the real `mqo_serve` binary on the small
/// graph with the same solver knobs as [`solo_server`], so answers are
/// comparable bit-for-bit.
fn cell_command() -> Vec<String> {
    [
        env!("CARGO_BIN_EXE_mqo_serve"),
        "--small",
        "--addr",
        "{addr}",
        "--reads",
        "20",
        "--gauges",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// An in-process reference server configured identically to the supervised
/// cells: the bit-identity oracle.
fn solo_server() -> Server {
    let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
    engine.device.num_reads = 20;
    engine.device.num_gauges = 2;
    Server::start(ServerConfig::new(engine)).expect("bind solo")
}

/// A supervised router over `n` freshly spawned cells. Fast breaker and
/// backoff so kills and recoveries play out in test time.
fn supervised_router(n: usize, kill_schedule: CellKillSchedule) -> MqoRouter {
    let cells: Vec<String> = (0..n).map(|_| free_addr()).collect();
    let mut sup = SupervisorConfig::new(cell_command(), cells.clone());
    sup.probe_interval_ms = 50;
    sup.backoff_initial_ms = 50;
    sup.backoff_max_ms = 500;
    sup.kill_schedule = kill_schedule;
    let mut config = MqoRouterConfig::new(cells);
    config.supervisor = Some(sup);
    config.breaker.failure_threshold = 1;
    config.breaker.open_ms = 100;
    config.upstream_timeout_ms = 2_000;
    MqoRouter::start(config).expect("start supervised router")
}

/// One small two-query instance body under `seed`; all seeds share the
/// structure, so they all land on the same shard.
fn body(seed: u64) -> Vec<u8> {
    format!(
        r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
    )
    .into_bytes()
}

/// A structurally different instance (three plans in query 0), for shard
/// coverage in the quarantine test.
fn body_alt(seed: u64) -> Vec<u8> {
    format!(
        r#"{{"problem": {{"queries": [[2,4,6],[3,1]], "savings": [[1,3,5.0]]}}, "seed": {seed}}}"#
    )
    .into_bytes()
}

/// Sends until a 200 or the attempt budget is spent; shed/failed statuses
/// (429/5xx while the fleet recovers) retry after a short pause. Returns
/// the final `(status, body)`.
fn solve_with_retry(addr: SocketAddr, body: &[u8], attempts: u32) -> (u16, Vec<u8>) {
    let mut last = (0u16, Vec::new());
    for _ in 0..attempts.max(1) {
        match roundtrip(addr, "POST", "/solve", body) {
            Ok((status, reply)) => {
                if status == 200 {
                    return (status, reply);
                }
                last = (status, reply);
            }
            Err(e) => last = (0, e.to_string().into_bytes()),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    last
}

/// The solution surface of a solve answer — the fields that must be
/// bit-identical across cells, replays, and caches (timing fields vary).
fn surface(reply: &[u8]) -> serde_json::Value {
    let v: serde_json::Value = serde_json::from_slice(reply)
        .unwrap_or_else(|e| panic!("unparseable reply {}: {e}", String::from_utf8_lossy(reply)));
    serde_json::json!({
        "selection": v["selection"],
        "cost": v["cost"],
        "backend": v["backend"],
        "reads": v["reads"],
        "qubits_used": v["qubits_used"],
    })
}

#[test]
fn sigkilled_cell_respawns_and_requests_keep_completing() {
    let router = supervised_router(2, CellKillSchedule::default());
    let addr = router.local_addr();

    // Warm the fleet, then SIGKILL cell 0 and keep sending: every request
    // must still complete (transparent replay on the survivor plus the
    // supervisor respawning the victim), and the respawn must be counted.
    for seed in 0..4u64 {
        let (status, reply) = solve_with_retry(addr, &body(seed), 20);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    }
    let supervisor = router.supervisor().expect("supervised").clone();
    supervisor.kill_cell(0);
    for seed in 4..12u64 {
        let (status, reply) = solve_with_retry(addr, &body(seed), 20);
        assert_eq!(
            status,
            200,
            "request after kill: {}",
            String::from_utf8_lossy(&reply)
        );
    }
    // The monitor notices the death and respawns within its backoff.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.metrics().snapshot().cell_respawns == 0 {
        assert!(Instant::now() < deadline, "respawn never happened");
        std::thread::sleep(Duration::from_millis(20));
    }
    let snapshot = router.metrics().snapshot();
    assert!(snapshot.cell_respawns >= 1, "respawn counted");
    assert_eq!(snapshot.crash_loops_quarantined, 0, "one kill is no loop");
    // The respawned cell answers probes again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let cells = supervisor.snapshots();
        if cells.iter().all(|c| c.alive && !c.quarantined) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cell 0 never came back: {cells:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // A graceful router shutdown drains every supervised cell and reaps it.
    router.shutdown();
    let report = router.supervisor_report();
    assert_eq!(report.len(), 2, "{report:?}");
    assert!(
        report
            .iter()
            .all(|line| line.ends_with(": drained and stopped")),
        "{report:?}"
    );
}

#[test]
fn fifty_seed_kill_chaos_drain_loses_nothing_and_matches_solo() {
    // A seeded kill schedule SIGKILLs cells at deterministic times while a
    // 50-seed drain runs. Zero-loss: every seed must end as a 200 whose
    // solution surface is bit-identical to a solo unsupervised server.
    let schedule = CellKillSchedule {
        seed: 42,
        kills: 3,
        min_delay_ms: 200,
        max_delay_ms: 1_500,
    };
    let router = supervised_router(2, schedule);
    let addr = router.local_addr();
    let solo = solo_server();

    let seeds: Vec<u64> = (0..50).collect();
    let next = Arc::new(AtomicUsize::new(0));
    let answers: SharedVec<(u64, Vec<u8>)> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let next = Arc::clone(&next);
        let answers = Arc::clone(&answers);
        let seeds = seeds.clone();
        handles.push(std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= seeds.len() {
                return;
            }
            let seed = seeds[i];
            // Pace the drain so it overlaps the kill schedule window.
            std::thread::sleep(Duration::from_millis(25));
            let (status, reply) = solve_with_retry(addr, &body(seed), 40);
            assert_eq!(
                status,
                200,
                "seed {seed} lost: {}",
                String::from_utf8_lossy(&reply)
            );
            answers.lock().unwrap().push((seed, reply));
        }));
    }
    for handle in handles {
        handle.join().expect("drain thread");
    }

    // Zero lost requests: the outcome set partitions the seed set.
    let answers = answers.lock().unwrap();
    assert_eq!(answers.len(), 50, "every seed accounted for");
    let mut seen: Vec<u64> = answers.iter().map(|(s, _)| *s).collect();
    seen.sort_unstable();
    assert_eq!(seen, seeds, "each seed answered exactly once");

    // Bit-identity against the solo oracle, regardless of which cell (or
    // which replay) produced the answer.
    for (seed, reply) in answers.iter() {
        let (status, solo_reply) =
            roundtrip(solo.local_addr(), "POST", "/solve", &body(*seed)).expect("solo solve");
        assert_eq!(status, 200);
        assert_eq!(
            surface(reply),
            surface(&solo_reply),
            "seed {seed} diverged from the solo server"
        );
    }

    // The chaos schedule actually fired and the supervisor recovered. The
    // kill offsets are measured from supervisor start and may trail the
    // drain (a kill landing in a respawn-backoff window is consumed
    // without a victim), so poll until at least one delivered kill has its
    // matching respawn on the books.
    let deadline = Instant::now() + Duration::from_secs(10);
    let snapshot = loop {
        let s = router.metrics().snapshot();
        if s.chaos_cell_kills_injected >= 1 && s.cell_respawns >= s.chaos_cell_kills_injected {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "kill schedule never fired or respawns lagged: \
             {} kills, {} respawns",
            s.chaos_cell_kills_injected,
            s.cell_respawns
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        snapshot.crash_loops_quarantined, 0,
        "chaos kills are no loop"
    );
    assert_eq!(snapshot.integrity_violations, 0, "no integrity violations");

    router.shutdown();
    solo.shutdown();
}

#[test]
fn killed_cell_mid_drain_partitions_the_request_set() {
    // No client-side retries here: the assertion is that the router gives
    // every request exactly one final outcome — a 200 or a *typed* error —
    // even when a cell is SIGKILLed mid-drain. Nothing hangs, nothing is
    // answered twice, nothing vanishes.
    let router = supervised_router(2, CellKillSchedule::default());
    let addr = router.local_addr();
    let supervisor = router.supervisor().expect("supervised").clone();

    let total = 24usize;
    let next = Arc::new(AtomicUsize::new(0));
    let outcomes: SharedVec<(usize, u16, Vec<u8>)> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let next = Arc::clone(&next);
        let outcomes = Arc::clone(&outcomes);
        handles.push(std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            let (status, reply) =
                roundtrip(addr, "POST", "/solve", &body(i as u64)).expect("router answered");
            outcomes.lock().unwrap().push((i, status, reply));
        }));
    }
    // Kill a cell while the drain is in flight.
    std::thread::sleep(Duration::from_millis(60));
    supervisor.kill_cell(0);
    for handle in handles {
        handle.join().expect("drain thread");
    }

    let outcomes = outcomes.lock().unwrap();
    assert_eq!(
        outcomes.len(),
        total,
        "every request has exactly one outcome"
    );
    let mut indices: Vec<usize> = outcomes.iter().map(|(i, _, _)| *i).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..total).collect::<Vec<_>>());
    let mut solved = 0usize;
    for (i, status, reply) in outcomes.iter() {
        if *status == 200 {
            solved += 1;
        } else {
            // Failures must be typed rejections, never raw transport junk.
            let v: serde_json::Value = serde_json::from_slice(reply)
                .unwrap_or_else(|e| panic!("request {i}: untyped {status}: {e}"));
            assert!(
                v["reason"].as_str().is_some(),
                "request {i}: status {status} without a reason tag"
            );
        }
    }
    assert!(
        solved >= total / 2,
        "transparent failover kept most of the drain alive ({solved}/{total})"
    );
    router.shutdown();
}

#[test]
fn crash_looping_cell_is_quarantined_and_its_shards_remap() {
    // Cell 0 is spawned with a bogus flag, so it exits instantly, over and
    // over: the supervisor must quarantine it instead of respawning
    // forever, and the router must remap its shard range onto cell 1.
    let cells = vec![free_addr(), free_addr()];
    let mut sup = SupervisorConfig::new(cell_command(), cells.clone());
    sup.commands[0] = vec![
        env!("CARGO_BIN_EXE_mqo_serve").to_string(),
        "--definitely-not-a-flag".to_string(),
    ];
    sup.backoff_initial_ms = 10;
    sup.backoff_max_ms = 50;
    sup.crash_loop_threshold = 3;
    sup.probe_interval_ms = 50;
    let mut config = MqoRouterConfig::new(cells);
    config.supervisor = Some(sup);
    config.breaker.failure_threshold = 1;
    config.breaker.open_ms = 100;
    config.upstream_timeout_ms = 2_000;
    let router = MqoRouter::start(config).expect("start with one crash-looping cell");
    let addr = router.local_addr();

    let snapshot = router.metrics().snapshot();
    assert!(
        snapshot.crash_loops_quarantined >= 1,
        "crash loop detected during startup"
    );
    let cells = router.cells();
    assert!(
        cells[0].quarantined && !cells[1].quarantined,
        "exactly the broken cell is quarantined: {cells:?}"
    );
    // Both structures — whichever shard they hash to — answer via cell 1.
    for body in [body(1), body_alt(1)] {
        let (status, reply) = solve_with_retry(addr, &body, 10);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    }
    assert_eq!(
        router.cells()[0].forwarded,
        0,
        "quarantined cell got nothing"
    );
    assert!(router.cells()[1].forwarded >= 2, "survivor took the remap");
    router.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Replayed responses are bit-identical to the first attempt: solve a
    /// random-seeded instance, shut the owning cell down, and solve it
    /// again — the replay on the survivor must reproduce the original
    /// solution surface exactly (determinism by `(problem, seed)`).
    #[test]
    fn replayed_responses_are_bit_identical_to_the_first_attempt(seed in 0u64..1_000) {
        let cell_a = solo_server();
        let cell_b = solo_server();
        let mut config = MqoRouterConfig::new(vec![
            cell_a.local_addr().to_string(),
            cell_b.local_addr().to_string(),
        ]);
        config.breaker.failure_threshold = 1;
        config.breaker.open_ms = 50;
        config.upstream_timeout_ms = 1_000;
        let router = MqoRouter::start(config).expect("bind router");

        let (status, first) =
            roundtrip(router.local_addr(), "POST", "/solve", &body(seed)).expect("first solve");
        prop_assert_eq!(status, 200);
        let owner_idx = router
            .cells()
            .iter()
            .position(|c| c.forwarded == 1)
            .expect("one cell answered");
        let (owner, survivor) = if owner_idx == 0 { (cell_a, cell_b) } else { (cell_b, cell_a) };
        owner.shutdown();

        let (status, replayed) =
            roundtrip(router.local_addr(), "POST", "/solve", &body(seed)).expect("replayed solve");
        prop_assert_eq!(status, 200);
        prop_assert_eq!(
            surface(&first),
            surface(&replayed),
            "replay diverged from the first attempt"
        );
        prop_assert!(router.metrics().snapshot().failovers >= 1);
        router.shutdown();
        survivor.shutdown();
    }

    /// The deadline forwarded upstream strictly decreases across replay
    /// hops and never resurrects an exhausted budget.
    #[test]
    fn forwarded_deadline_budget_strictly_decreases(
        budget in 1u64..10_000,
        elapsed_steps in proptest::collection::vec(0u64..500, 1..12),
    ) {
        let mut elapsed = 0u64;
        let mut previous: Option<u64> = None;
        for step in elapsed_steps {
            elapsed = elapsed.saturating_add(step);
            match next_deadline(budget, elapsed, previous) {
                Some(deadline) => {
                    prop_assert!(deadline >= 1, "forwarded deadlines are positive");
                    prop_assert!(
                        deadline <= budget.saturating_sub(elapsed),
                        "never exceeds the remaining budget"
                    );
                    if let Some(prev) = previous {
                        prop_assert!(deadline < prev, "strictly decreasing: {deadline} < {prev}");
                    }
                    previous = Some(deadline);
                }
                None => {
                    // Exhausted: it must stay exhausted at equal-or-later
                    // elapsed times with the same history.
                    prop_assert!(next_deadline(budget, elapsed + 1, previous).is_none());
                    break;
                }
            }
        }
    }
}

/// A supervised cell must not outlive its supervisor. The supervisor hands
/// every cell a stdin pipe plus `MQO_SUPERVISED=1`; the cell's watchdog
/// sees EOF the instant the pipe's write end closes (which the kernel does
/// even when the supervisor is SIGKILLed) and drains itself. This drives
/// the cell directly: hold the pipe, prove the cell stays up, drop the
/// pipe, prove the cell exits.
#[test]
fn supervised_cell_exits_when_the_supervisor_pipe_closes() {
    let addr = free_addr();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mqo_serve"))
        .args(["--small", "--addr", &addr, "--reads", "10"])
        .env("MQO_SUPERVISED", "1")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cell");
    let stdin = child.stdin.take().expect("piped stdin");
    let sock: SocketAddr = addr.parse().expect("cell addr");

    // Wait until the cell answers /healthz, proving the watchdog does not
    // fire while the pipe is open.
    let ready = Instant::now();
    loop {
        if roundtrip(sock, "GET", "/healthz", b"").is_ok() {
            break;
        }
        assert!(
            ready.elapsed() < Duration::from_secs(10),
            "cell never came up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        matches!(child.try_wait(), Ok(None)),
        "cell stays alive while the supervisor holds the pipe"
    );

    // "Supervisor death": the write end closes, the cell must exit on its
    // own — nobody is left to kill it.
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("cell outlived its supervisor: {other:?}");
            }
        }
    }
}

/// End to end: SIGKILL a real supervised `mqo_router` process — its
/// `Drop`/drain cleanup never runs — and prove the cells it spawned die on
/// their own via the stdin watchdog instead of leaking as orphans.
#[test]
fn sigkilled_router_leaves_no_orphan_cells() {
    let router_addr = free_addr();
    let cell_a = free_addr();
    let cell_b = free_addr();
    let command = format!(
        "{} --small --addr {{addr}} --reads 10",
        env!("CARGO_BIN_EXE_mqo_serve")
    );
    let mut router = std::process::Command::new(env!("CARGO_BIN_EXE_mqo_router"))
        .args([
            "--addr",
            &router_addr,
            "--cells",
            &format!("{cell_a},{cell_b}"),
            "--supervise",
            &command,
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn router");

    // Wait until both cells answer: the fleet is up.
    let ready = Instant::now();
    for addr in [&cell_a, &cell_b] {
        let sock: SocketAddr = addr.parse().expect("cell addr");
        loop {
            if roundtrip(sock, "GET", "/healthz", b"").is_ok() {
                break;
            }
            if ready.elapsed() > Duration::from_secs(15) {
                let _ = router.kill();
                let _ = router.wait();
                panic!("fleet never came up");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // SIGKILL the router: no drain, no Drop, no cleanup of any kind.
    router.kill().expect("kill router");
    let _ = router.wait();

    // Both cells must notice the closed supervision pipe and exit: their
    // ports stop answering within the watchdog's bounded grace.
    let deadline = Instant::now() + Duration::from_secs(8);
    for addr in [&cell_a, &cell_b] {
        let sock: SocketAddr = addr.parse().expect("cell addr");
        loop {
            if roundtrip(sock, "GET", "/healthz", b"").is_err() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cell {addr} outlived the SIGKILLed router"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
