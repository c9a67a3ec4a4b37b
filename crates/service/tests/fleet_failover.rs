//! Zero-loss failover integration tests: a `mqo_router` front over real
//! `mqo_serve` cell processes (via `CARGO_BIN_EXE_mqo_serve`) that die by
//! SIGKILL mid-drain.
//!
//! The router never starts or restarts a cell; here the test plays the
//! service manager that does. It spawns every cell as a child process
//! ([`Cells`]), SIGKILLs children on a seeded
//! [`KillPlan`], and restarts a killed child on the same address when a
//! test wants the cell back. The tests prove:
//!
//! * the fleet loses nothing: every request ends as exactly one final
//!   outcome (a 200 solve or a typed error), and the 50-seed drain under
//!   the kill plan completes with zero lost requests and answers
//!   bit-identical to a solo server;
//! * transparent replay after a cell death returns answers bit-identical
//!   to the first attempt — solves are deterministic by `(problem, seed)`,
//!   which is the idempotency argument that makes replay safe;
//! * the forwarded deadline budget strictly decreases across hops
//!   ([`mqo_service::shard::next_deadline`]).

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::engine::EngineConfig;
use mqo_service::server::{Server, ServerConfig};
use mqo_service::shard::{next_deadline, MqoRouter, MqoRouterConfig};
use mqo_service::testkit::{roundtrip, KillPlan};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A vector shared across the drain threads.
type SharedVec<T> = Arc<Mutex<Vec<T>>>;

/// Starts the real `mqo_serve` binary on the small graph at `addr`, with
/// the same solver knobs as [`solo_server`], so answers are comparable
/// bit-for-bit. Returns the child and the address it printed after
/// `listening on`, or `None` when it could not bind `addr`.
fn spawn_cell(addr: &str) -> Option<(Child, SocketAddr)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mqo_serve"))
        .args(["--small", "--addr", addr, "--reads", "20", "--gauges", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cell");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let _ = stdout.read_line(&mut line);
    // Keep the pipe open for the cell's later lines.
    child.stdout = Some(stdout.into_inner());
    match line.trim().strip_prefix("listening on ") {
        Some(bound) => Some((child, bound.parse().expect("cell address"))),
        None => {
            let _ = child.wait();
            None
        }
    }
}

/// The cell processes, owned by the test as a service manager would own
/// them. Dropping the fleet kills whatever is still running, so a failed
/// test leaks no process.
struct Cells {
    addrs: Vec<SocketAddr>,
    children: Vec<Option<Child>>,
}

impl Cells {
    /// Starts `n` cells, each on a port the kernel picks.
    fn start(n: usize) -> Cells {
        let (children, addrs) = (0..n)
            .map(|_| {
                let (child, addr) = spawn_cell("127.0.0.1:0").expect("bind port 0");
                (Some(child), addr)
            })
            .unzip();
        Cells { addrs, children }
    }

    /// SIGKILLs cell `idx` (no drain: that is the point) and reaps it.
    /// Returns whether a live process was killed.
    fn kill(&mut self, idx: usize) -> bool {
        let Some(mut child) = self.children[idx].take() else {
            return false;
        };
        let killed = matches!(child.try_wait(), Ok(None)) && child.kill().is_ok();
        let _ = child.wait();
        killed
    }

    /// Starts cell `idx` again on its old address. The freed port can be
    /// taken for a moment, say as another connection's source port, so a
    /// cell that cannot bind is started again.
    fn restart(&mut self, idx: usize) {
        let addr = self.addrs[idx].to_string();
        for _ in 0..100 {
            if let Some((child, _)) = spawn_cell(&addr) {
                self.children[idx] = Some(child);
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("cell {addr} could not bind its address again");
    }
}

impl Drop for Cells {
    fn drop(&mut self) {
        for idx in 0..self.children.len() {
            self.kill(idx);
        }
    }
}

/// An in-process reference server configured identically to the cells:
/// the bit-identity oracle.
fn solo_server() -> Server {
    let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
    engine.device.num_reads = 20;
    engine.device.num_gauges = 2;
    Server::start(ServerConfig::new(engine)).expect("bind solo")
}

/// A router over `cells`. Fast breaker so kills and recoveries play out in
/// test time.
fn router_over(cells: &Cells) -> MqoRouter {
    let addrs = cells.addrs.iter().map(SocketAddr::to_string).collect();
    let mut config = MqoRouterConfig::new(addrs);
    config.breaker.failure_threshold = 1;
    config.breaker.open_ms = 100;
    config.upstream_timeout_ms = 2_000;
    MqoRouter::start(config).expect("start router")
}

/// One small two-query instance body under `seed`; all seeds share the
/// structure, so they all land on the same shard.
fn body(seed: u64) -> Vec<u8> {
    format!(
        r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
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
fn fifty_seed_kill_chaos_drain_loses_nothing_and_matches_solo() {
    // A seeded kill plan SIGKILLs cells at deterministic times while a
    // 50-seed drain runs, and the test restarts each killed cell on its
    // address at once, as a service manager would. Zero-loss: every seed
    // must end as a 200 whose solution surface is bit-identical to a solo
    // server.
    let plan = KillPlan {
        seed: 42,
        kills: 3,
        min_delay_ms: 200,
        max_delay_ms: 1_500,
    };
    let cells = Arc::new(Mutex::new(Cells::start(2)));
    let router = router_over(&cells.lock().unwrap());
    let addr = router.local_addr();
    let killer = plan.drive(2, {
        let cells = Arc::clone(&cells);
        move |idx| {
            let mut cells = cells.lock().unwrap();
            let killed = cells.kill(idx);
            cells.restart(idx);
            killed
        }
    });
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
            // Pace the drain so it overlaps the kill plan window.
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

    // Every kill found a live cell (a restarted cell is alive from its
    // spawn on), and every restarted cell came back on its address. The
    // kill offsets may trail the drain, so join the driver first.
    let delivered = killer.join().expect("kill driver");
    assert_eq!(delivered, plan.kills, "every planned kill reached a cell");
    for &cell in &cells.lock().unwrap().addrs {
        let (status, _) = roundtrip(cell, "GET", "/healthz", b"").expect("cell is back");
        assert_eq!(status, 200);
    }
    // The failover journal drains to zero: a forwarder drops its entry
    // just after answering, so give the last ones a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.cells().iter().any(|c| c.journal_outstanding > 0) {
        assert!(Instant::now() < deadline, "journal never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        router.metrics().snapshot().integrity_violations,
        0,
        "no integrity violations"
    );

    router.shutdown();
    solo.shutdown();
}

#[test]
fn killed_cell_mid_drain_partitions_the_request_set() {
    // No client-side retries here: the assertion is that the router gives
    // every request exactly one final outcome — a 200 or a *typed* error —
    // even when a cell is SIGKILLed mid-drain. Nothing hangs, nothing is
    // answered twice, nothing vanishes.
    let mut cells = Cells::start(2);
    let router = router_over(&cells);
    let addr = router.local_addr();

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
    // Kill a cell while the drain is in flight; nothing restarts it.
    std::thread::sleep(Duration::from_millis(60));
    assert!(cells.kill(0), "cell 0 was alive mid-drain");
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
