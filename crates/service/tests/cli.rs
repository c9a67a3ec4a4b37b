//! The `mqo_serve` and `mqo_router` binaries as processes: the flag set
//! each one accepts, the typed exit code 2 for bad command lines, and the
//! served lifecycle — print `listening on`, answer the paper's quickstart
//! instance at its optimum, then drain on `POST /shutdown` and exit 0 —
//! and the time and memory of the cell and of a router in front of it on
//! bodies at the request size cap.

use mqo_service::testkit::roundtrip;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

/// Asserts a usage error: exit status 2 and `message` on stderr.
fn assert_usage_error(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "expected {message:?} in {stderr:?}"
    );
}

/// Every `--flag` token `--help` prints.
fn help_flags(bin: &str) -> BTreeSet<String> {
    let output = run(bin, &["--help"]);
    assert_eq!(output.status.code(), Some(0));
    String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .filter(|token| token.starts_with("--"))
        .map(str::to_string)
        .collect()
}

fn set(flags: &[&str]) -> BTreeSet<String> {
    flags.iter().map(|flag| flag.to_string()).collect()
}

#[test]
fn help_lists_exactly_the_accepted_flags() {
    assert_eq!(
        help_flags(env!("CARGO_BIN_EXE_mqo_serve")),
        set(&["--addr", "--small", "--reads", "--gauges"])
    );
    let router = env!("CARGO_BIN_EXE_mqo_router");
    assert_eq!(help_flags(router), set(&["--cells", "--addr"]));
    // The router serves externally managed cells only: it spawns none.
    let cells = "127.0.0.1:1,127.0.0.1:2";
    assert_usage_error(
        &run(router, &["--supervise", "x", "--cells", cells]),
        "unknown flag --supervise",
    );
    assert_usage_error(
        &run(router, &["--cells", cells, "--supervise-cell", "0:x"]),
        "unknown flag --supervise-cell",
    );
}

#[test]
fn removed_flags_are_unknown() {
    let serve = env!("CARGO_BIN_EXE_mqo_serve");
    for flag in [
        "--accept-shards",
        "--cache-capacity",
        "--breaker-threshold",
        "--chaos-seed",
        "--chaos-panic-rate",
        "--chaos-kill-rate",
        "--chaos-backend-failure-rate",
        "--chaos-corruption-rate",
        "--packing",
        "--max-tenants",
    ] {
        assert_usage_error(&run(serve, &[flag, "1"]), &format!("unknown flag {flag}"));
    }
    let router = env!("CARGO_BIN_EXE_mqo_router");
    for flag in [
        "--epsilon",
        "--breaker-threshold",
        "--breaker-open-ms",
        "--backoff-initial-ms",
        "--backoff-max-ms",
        "--chaos-kill-seed",
        "--chaos-kills",
        "--chaos-kill-min-ms",
        "--chaos-kill-max-ms",
    ] {
        let output = run(router, &["--cells", "127.0.0.1:1", flag, "1"]);
        assert_usage_error(&output, &format!("unknown flag {flag}"));
    }
}

/// A served binary: the child process, its stdout lines, and the address
/// it printed after `listening on`.
struct Served {
    child: Child,
    stdout: Receiver<String>,
    stdout_reader: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Served {
    /// Spawns `bin` and waits for its `listening on <addr>` line.
    fn start(bin: &str, args: &[&str]) -> Served {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn binary");
        let (tx, stdout) = mpsc::channel();
        let pipe = BufReader::new(child.stdout.take().expect("piped stdout"));
        let stdout_reader = std::thread::spawn(move || {
            for line in pipe.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut served = Served {
            child,
            stdout,
            stdout_reader: Some(stdout_reader),
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
        };
        let line = served.line_starting("listening on ");
        served.addr = line["listening on ".len()..]
            .parse()
            .expect("listen address");
        served
    }

    /// The next stdout line starting with `prefix`; earlier lines are
    /// skipped. Panics if none arrives within 30 s.
    fn line_starting(&self, prefix: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self
                .stdout
                .recv_timeout(left)
                .unwrap_or_else(|e| panic!("no {prefix:?} line on stdout: {e}"));
            if line.starts_with(prefix) {
                return line;
            }
        }
    }

    /// `POST /shutdown`, then the drain line and a clean exit.
    fn shutdown(mut self) {
        let (status, _) = roundtrip(self.addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            self.line_starting("drained and stopped"),
            "drained and stopped"
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll child") {
                break status;
            }
            assert!(Instant::now() < deadline, "process never exited");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status.code(), Some(0));
        if let Some(reader) = self.stdout_reader.take() {
            reader.join().expect("stdout reader");
        }
    }
}

impl Drop for Served {
    /// A failed assertion must not leave a serving process behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The paper's quickstart instance: plan costs [2, 4] and [3, 1], a saving
/// of 5 between plans 1 and 2. The optimum selects plans 1 and 2 at cost 2.
fn assert_quickstart_optimum(addr: SocketAddr) {
    let body = br#"{"problem":{"queries":[[2,4],[3,1]],"savings":[[1,2,5.0]]},"seed":42}"#;
    let (status, reply) = roundtrip(addr, "POST", "/solve", body).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    let v: serde_json::Value = serde_json::from_slice(&reply).unwrap();
    assert_eq!(v["cost"], 2.0, "{v}");
    assert_eq!(v["selection"], serde_json::json!([1, 2]), "{v}");
}

#[test]
fn served_processes_answer_the_quickstart_optimum_and_drain_on_shutdown() {
    let any_port = "127.0.0.1:0";
    let cell = Served::start(
        env!("CARGO_BIN_EXE_mqo_serve"),
        &["--small", "--addr", any_port],
    );
    assert_quickstart_optimum(cell.addr);
    let router = Served::start(
        env!("CARGO_BIN_EXE_mqo_router"),
        &["--cells", &cell.addr.to_string(), "--addr", any_port],
    );
    assert_quickstart_optimum(router.addr);
    router.shutdown();
    cell.shutdown();
}

/// Request body cap of `mqo_serve` (`HttpLimits::default().max_body`).
const MAX_BODY: usize = 1 << 20;

/// Peak resident set the cell may reach while answering every body below:
/// 256 MiB, i.e. at most 256 bytes of memory per byte of request.
const MAX_HWM_KB: u64 = 256 << 10;

/// Peak resident set the router may reach while forwarding the same
/// bodies: the cell's bound. The router decodes each body to key it, then
/// forwards the client's bytes to the cell.
const MAX_ROUTER_HWM_KB: u64 = MAX_HWM_KB;

/// A process's peak resident set size (`VmHWM`), kB.
fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// A `/solve` body of `queries` (JSON arrays of plan costs) and `savings`
/// (`[plan, plan, saving]` triples).
fn solve_body(queries: &[String], savings: &[String]) -> Vec<u8> {
    format!(
        r#"{{"problem":{{"queries":[{}],"savings":[{}]}},"seed":1}}"#,
        queries.join(","),
        savings.join(",")
    )
    .into_bytes()
}

#[test]
fn bodies_at_the_size_cap_answer_promptly_in_bounded_memory() {
    // 1. One query with as many plans as fit.
    let plans = (MAX_BODY - 64) / 2;
    let one_query = solve_body(&[format!("[{}]", vec!["1"; plans].join(","))], &[]);
    // 2. Two queries with as many savings pairs as fit: 300 plans each,
    //    every cross pair saving, 90 000 pairs.
    let row = format!("[{}]", vec!["1"; 300].join(","));
    let pairs: Vec<String> = (0..300)
        .flat_map(|a| (300..600).map(move |b| format!("[{a},{b},1]")))
        .collect();
    let two_queries = solve_body(&[row.clone(), row], &pairs);
    // 3. As many one-plan queries as fit: about 2.6 x 10^5.
    let tiny = solve_body(&vec!["[1]".to_string(); (MAX_BODY - 64) / 4], &[]);

    let cell = Served::start(env!("CARGO_BIN_EXE_mqo_serve"), &["--addr", "127.0.0.1:0"]);
    let router = Served::start(
        env!("CARGO_BIN_EXE_mqo_router"),
        &["--cells", &cell.addr.to_string(), "--addr", "127.0.0.1:0"],
    );
    for (case, body) in [
        ("one query", one_query),
        ("two queries", two_queries),
        ("one-plan queries", tiny),
    ] {
        assert!(
            body.len() <= MAX_BODY && body.len() > MAX_BODY - 4_096,
            "{case}: {} bytes is not just under the cap",
            body.len()
        );
        // Straight to the cell, then through the router, which decodes the
        // body and hashes its structure before it forwards.
        for (front, served, max_hwm_kb) in [
            ("cell", &cell, MAX_HWM_KB),
            ("router", &router, MAX_ROUTER_HWM_KB),
        ] {
            let started = Instant::now();
            let (status, reply) = roundtrip(served.addr, "POST", "/solve", &body).unwrap();
            let elapsed = started.elapsed();
            assert!(
                status == 200 || (400..500).contains(&status),
                "{case} via {front}: status {status}: {}",
                String::from_utf8_lossy(&reply[..reply.len().min(512)])
            );
            let v: serde_json::Value = serde_json::from_slice(&reply).unwrap();
            if status != 200 {
                assert!(
                    v["reason"].as_str().is_some(),
                    "{case} via {front}: untyped {status}: {v}"
                );
            }
            assert!(
                elapsed < Duration::from_secs(5),
                "{case} via {front}: took {elapsed:?}"
            );
            let (status, _) = roundtrip(served.addr, "GET", "/healthz", b"").unwrap();
            assert_eq!(status, 200, "{case}: {front} unhealthy afterwards");
            let hwm = peak_rss_kb(served.child.id());
            assert!(
                hwm < max_hwm_kb,
                "{case} via {front}: peak RSS {hwm} kB over the {max_hwm_kb} kB bound"
            );
        }
    }
    router.shutdown();
    cell.shutdown();
}

#[test]
fn bodies_at_the_size_cap_get_the_direct_status_through_the_router() {
    // The one-plan-queries body of the test above: `[1]` re-serialised
    // as `[1.0]` would reach the cell half again past its cap, so the
    // router must forward the client's bytes.
    let tiny = solve_body(&vec!["[1]".to_string(); (MAX_BODY - 64) / 4], &[]);
    assert!(tiny.len() <= MAX_BODY);
    let cell = Served::start(env!("CARGO_BIN_EXE_mqo_serve"), &["--addr", "127.0.0.1:0"]);
    let router = Served::start(
        env!("CARGO_BIN_EXE_mqo_router"),
        &["--cells", &cell.addr.to_string(), "--addr", "127.0.0.1:0"],
    );
    let (direct, reply) = roundtrip(cell.addr, "POST", "/solve", &tiny).unwrap();
    assert_eq!(
        direct,
        200,
        "{}",
        String::from_utf8_lossy(&reply[..reply.len().min(512)])
    );
    for attempt in 0..10 {
        let (status, reply) = roundtrip(router.addr, "POST", "/solve", &tiny).unwrap();
        assert_eq!(
            status,
            direct,
            "attempt {attempt}: {}",
            String::from_utf8_lossy(&reply[..reply.len().min(512)])
        );
    }
    router.shutdown();
    cell.shutdown();
}
