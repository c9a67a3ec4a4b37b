//! `loadgen` — replays paper-workload request streams against `mqo_serve`
//! and reports throughput plus p50/p99 latency, split by cache hit/miss.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--clients C] [--structures S]
//!         [--plans P] [--reads N] [--seed S] [--small]
//!         [--keep-alive] [--pipeline N] [--retry N]
//!         [--mixed-sizes] [--tenants T]
//!         [--chaos-seed N] [--chaos-panic-rate F] [--chaos-kill-rate F]
//!         [--chaos-backend-failure-rate F] [--chaos-corruption-rate F]
//!         [--chaos-conn-abort-rate F] [--chaos-slow-rate F]
//!         [--breaker-threshold N] [--breaker-open-ms N]
//! ```
//!
//! Without `--addr` the harness self-hosts a server on a loopback port,
//! so a single invocation produces the full ISSUE-3 acceptance report:
//! repeated identical-structure requests must show up as cache hits with
//! measurably lower latency than the cold (embedding) requests.
//!
//! Chaos mode (ISSUE-5): the server-side `--chaos-*` rates inject worker
//! panics/deaths and backend failures (self-host only — against `--addr`
//! pass the same flags to `mqo_serve` itself); the client-side
//! `--chaos-conn-abort-rate` and `--chaos-slow-rate` abort or trickle a
//! deterministic subset of connections. All schedules are keyed on the
//! request index via the shared SplitMix64 chaos streams, so a fixed
//! `(--chaos-seed, --requests)` pair aborts exactly the same requests at
//! any `--clients` count. Under chaos the run asserts a clean drain:
//! every request ends as a solve, a typed error, or a deliberate abort.
//!
//! Packing mode (ISSUE-8): `--mixed-sizes` cycles the structures through
//! the paper's plan classes 2–5 (at one or two queries each) so request
//! footprints vary from one Chimera cell to several; `--tenants T`
//! self-hosts with chip packing enabled and up to `T` tenants per
//! programming cycle. The report gains a `packing` section — packed
//! batches, tenants packed, placer declines, and occupancy in tenants per
//! cycle — and a clean self-hosted run with a backlog asserts occupancy
//! exceeded 1.0.
//!
//! Keep-alive mode (ISSUE-9): `--keep-alive` gives every client thread one
//! persistent HTTP/1.1 connection for its whole request stream, and
//! `--pipeline N` (implies keep-alive) writes N requests back-to-back
//! before reading the N responses. Connect time is measured separately
//! from request time in both modes — the latency percentiles cover the
//! request/response exchange only, and the report carries a `connect`
//! section (count, mean, p50/p99) so connection churn is visible instead
//! of smeared into the solve latencies.
//!
//! Fleet mode (ISSUE-10): point `--addr` at an `mqo_router` front and pass
//! `--retry N` to give every request a client-side replay budget. Shed or
//! failed requests (429/5xx, or a reset connection from a cell dying
//! mid-solve) are re-sent — honouring the server's `Retry-After` header,
//! capped at 2 s — and the report gains a `failover` block, separate from
//! the error ledger: client retries, how many waits honoured `Retry-After`,
//! how many requests completed only after a retry, plus the router-side
//! failover/respawn counters scraped from `/metrics`. Because solves
//! are deterministic by `(problem, seed)`, retries are idempotent; a run
//! with retries still asserts the zero-loss books — every request ends as
//! exactly one final outcome.
//!
//! Integrity mode (ISSUE-7): `--chaos-corruption-rate` mangles a
//! deterministic subset of successful answers at the server's API
//! boundary. The report surfaces the integrity and chain-repair counters,
//! and a self-hosted run asserts the books reconcile — every injected
//! corruption was flagged and repaired or rejected; a fault-free run
//! asserts those counters are exactly zero.

use mqo_chimera::graph::ChimeraGraph;
use mqo_service::chaos::{chaos_roll, ChaosConfig, STREAM_CHAOS_CONN};
use mqo_service::engine::EngineConfig;
use mqo_service::http::{read_response, render_request, roundtrip, KeepAliveClient};
use mqo_service::server::{Server, ServerConfig};
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Options {
    addr: Option<String>,
    requests: usize,
    clients: usize,
    structures: usize,
    plans: usize,
    reads: usize,
    seed: u64,
    small: bool,
    keep_alive: bool,
    pipeline: usize,
    retry: u32,
    mixed_sizes: bool,
    tenants: usize,
    chaos: ChaosConfig,
    conn_abort_rate: f64,
    slow_rate: f64,
    breaker_threshold: u32,
    breaker_open_ms: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: None,
            requests: 64,
            clients: 4,
            structures: 4,
            plans: 2,
            reads: 50,
            seed: 7,
            small: true,
            keep_alive: false,
            pipeline: 1,
            retry: 0,
            mixed_sizes: false,
            tenants: 0,
            chaos: ChaosConfig::NONE,
            conn_abort_rate: 0.0,
            slow_rate: 0.0,
            breaker_threshold: 5,
            breaker_open_ms: 1_000,
        }
    }
}

impl Options {
    /// Whether any chaos — server- or client-side — is active.
    fn chaos_active(&self) -> bool {
        !self.chaos.is_inert() || self.conn_abort_rate > 0.0 || self.slow_rate > 0.0
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        fn num<T: std::str::FromStr>(v: String, flag: &str) -> T {
            v.parse()
                .unwrap_or_else(|_| fail(format!("{flag}: cannot parse {v:?}")))
        }
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--requests" => opts.requests = num(value("--requests"), "--requests"),
            "--clients" => opts.clients = num(value("--clients"), "--clients"),
            "--structures" => opts.structures = num(value("--structures"), "--structures"),
            "--plans" => opts.plans = num(value("--plans"), "--plans"),
            "--reads" => opts.reads = num(value("--reads"), "--reads"),
            "--seed" => opts.seed = num(value("--seed"), "--seed"),
            "--small" => opts.small = true,
            "--full" => opts.small = false,
            "--keep-alive" => opts.keep_alive = true,
            "--pipeline" => {
                opts.pipeline = num(value("--pipeline"), "--pipeline");
                opts.keep_alive = true;
            }
            "--retry" => opts.retry = num(value("--retry"), "--retry"),
            "--mixed-sizes" => opts.mixed_sizes = true,
            "--tenants" => opts.tenants = num(value("--tenants"), "--tenants"),
            "--chaos-seed" => opts.chaos.seed = num(value("--chaos-seed"), "--chaos-seed"),
            "--chaos-panic-rate" => {
                opts.chaos.worker_panic_rate =
                    num(value("--chaos-panic-rate"), "--chaos-panic-rate")
            }
            "--chaos-kill-rate" => {
                opts.chaos.worker_kill_rate = num(value("--chaos-kill-rate"), "--chaos-kill-rate")
            }
            "--chaos-backend-failure-rate" => {
                opts.chaos.backend_failure_rate = num(
                    value("--chaos-backend-failure-rate"),
                    "--chaos-backend-failure-rate",
                )
            }
            "--chaos-corruption-rate" => {
                opts.chaos.sample_corruption_rate =
                    num(value("--chaos-corruption-rate"), "--chaos-corruption-rate")
            }
            "--chaos-conn-abort-rate" => {
                opts.conn_abort_rate =
                    num(value("--chaos-conn-abort-rate"), "--chaos-conn-abort-rate")
            }
            "--chaos-slow-rate" => {
                opts.slow_rate = num(value("--chaos-slow-rate"), "--chaos-slow-rate")
            }
            "--breaker-threshold" => {
                opts.breaker_threshold = num(value("--breaker-threshold"), "--breaker-threshold")
            }
            "--breaker-open-ms" => {
                opts.breaker_open_ms = num(value("--breaker-open-ms"), "--breaker-open-ms")
            }
            "--help" | "-h" => {
                println!(
                    "loadgen: replay paper-workload streams against mqo_serve\n\
                     --addr HOST:PORT  target an already-running server (default: self-host)\n\
                     --requests N      total requests to send (64)\n\
                     --clients C       concurrent client threads (4)\n\
                     --structures S    distinct instance structures cycled through (4)\n\
                     --plans P         plans per query of the paper class (2)\n\
                     --reads N         annealing reads per request (50)\n\
                     --seed S          workload generator seed (7)\n\
                     --small           4-cell Chimera graph [default]\n\
                     --full            12x12 D-Wave 2X graph\n\
                     --keep-alive      one persistent connection per client thread\n\
                     --pipeline N      pipeline N requests per write (implies --keep-alive)\n\
                     --retry N         client-side replays per shed/failed request (0)\n\
                     --mixed-sizes     cycle structures through paper classes 2-5 plans\n\
                     --tenants T       self-host with chip packing, up to T tenants/cycle (0 = off)\n\
                     --chaos-seed N    seed of all chaos streams (0)\n\
                     --chaos-panic-rate F    server: worker panic probability (0, self-host)\n\
                     --chaos-kill-rate F     server: worker death probability (0, self-host)\n\
                     --chaos-backend-failure-rate F  server: backend failure probability (0)\n\
                     --chaos-corruption-rate F  server: answer corruption probability (0)\n\
                     --chaos-conn-abort-rate F  client: abort connection mid-request (0)\n\
                     --chaos-slow-rate F        client: trickle the request slowly (0)\n\
                     --breaker-threshold N      self-host breaker threshold (5)\n\
                     --breaker-open-ms N        self-host breaker cooling period (1000)"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown flag {other} (try --help)")),
        }
    }
    if opts.requests == 0 || opts.clients == 0 || opts.structures == 0 || opts.pipeline == 0 {
        fail("--requests, --clients, --structures, and --pipeline must be positive");
    }
    if opts.chaos.validate().is_err()
        || !(0.0..=1.0).contains(&opts.conn_abort_rate)
        || !(0.0..=1.0).contains(&opts.slow_rate)
    {
        fail("chaos rates must lie in [0, 1]");
    }
    opts
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn mean(us: &[u64]) -> f64 {
    if us.is_empty() {
        return 0.0;
    }
    us.iter().sum::<u64>() as f64 / us.len() as f64
}

/// What one replayed request ended as. Anything outside these three states
/// (an I/O error on a connection chaos did not abort) is a lost request and
/// fails the run.
enum Outcome {
    /// 200 with a solve body; latency and cache-hit flag recorded.
    Solved { latency_us: u64, cache_hit: bool },
    /// A typed non-200 rejection (`reason` tag from the JSON body).
    TypedError { status: u16 },
    /// Deliberately aborted by client-side chaos before completion.
    Aborted,
}

/// Opens a raw connection and writes roughly half the request, then drops
/// it — the deterministic "client died mid-request" probe. The server must
/// shrug (no thread leak, no panic) and move on.
fn abort_mid_request(addr: SocketAddr, raw: &[u8]) {
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        let half = raw.len() / 2;
        let _ = stream.write_all(&raw[..half]);
        let _ = stream.flush();
        // Dropping the stream closes the socket mid-request.
    }
}

/// Full request bytes for a manual (non-`roundtrip`) send.
fn raw_request(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /solve HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Outcome of one `connection: close` exchange:
/// `(status, body, connect_us, request_us, retry_after_secs)`.
type CloseRoundtrip = (u16, Vec<u8>, u64, u64, Option<u64>);

/// One `connection: close` exchange with the connect cost measured
/// separately from the request/response exchange.
fn close_roundtrip(addr: SocketAddr, body: &[u8]) -> std::io::Result<CloseRoundtrip> {
    use std::io::BufReader;
    let connecting = Instant::now();
    let mut stream = std::net::TcpStream::connect(addr)?;
    let connect_us = connecting.elapsed().as_micros() as u64;
    stream.set_nodelay(true)?;
    let sent = Instant::now();
    stream.write_all(&render_request(
        "POST",
        "/solve",
        &addr.to_string(),
        body,
        true,
    ))?;
    let mut reader = BufReader::new(stream);
    let parts = read_response(&mut reader)?;
    Ok((
        parts.status,
        parts.body,
        connect_us,
        sent.elapsed().as_micros() as u64,
        parts.retry_after,
    ))
}

/// Client-side replay accounting, reported as the `failover` block —
/// deliberately separate from the error ledger: a retried-then-solved
/// request is a success with a story, not an error.
#[derive(Default)]
struct FailoverStats {
    /// Replays issued (each extra attempt counts once).
    retries: AtomicU64,
    /// Replays whose pause came from a server `Retry-After` header.
    retry_after_honored: AtomicU64,
    /// Requests that ended 200 only after at least one replay.
    completed_after_retry: AtomicU64,
}

/// Whether a status is worth replaying against an idempotent fleet:
/// solves are deterministic by `(problem, seed)`, so re-sending a shed or
/// failed request cannot change the answer it eventually gets.
fn retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 503 | 504)
}

/// One request with up to `retries` client-side replays beyond the
/// attempts already spent (`prior_attempts`, for keep-alive hand-offs).
/// Pauses between attempts honour the server's `Retry-After` (capped at
/// 2 s); transport errors replay too — a cell dying mid-solve resets the
/// connection rather than answering.
fn send_with_retry(
    addr: SocketAddr,
    body: &[u8],
    retries: u32,
    prior_attempts: u32,
    stats: &FailoverStats,
) -> std::io::Result<(u16, Vec<u8>, u64, u64)> {
    let mut attempt = prior_attempts;
    loop {
        let pause = |after: Option<u64>| match after {
            Some(secs) => {
                stats.retry_after_honored.fetch_add(1, Ordering::Relaxed);
                Duration::from_secs(secs).min(Duration::from_secs(2))
            }
            None => Duration::from_millis(50),
        };
        match close_roundtrip(addr, body) {
            Ok((status, reply, connect_us, latency_us, retry_after)) => {
                if retryable(status) && attempt < retries {
                    attempt += 1;
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(pause(retry_after));
                    continue;
                }
                if status == 200 && attempt > 0 {
                    stats.completed_after_retry.fetch_add(1, Ordering::Relaxed);
                }
                return Ok((status, reply, connect_us, latency_us));
            }
            Err(_) if attempt < retries => {
                attempt += 1;
                stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(pause(None));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Maps one `(status, reply)` exchange to an [`Outcome`], failing the run
/// on anything that is neither a 200 solve nor (under chaos) a typed
/// rejection with a `reason` tag.
fn classify(i: usize, status: u16, reply: &[u8], latency_us: u64, chaos_active: bool) -> Outcome {
    if status == 200 {
        let v: serde_json::Value = serde_json::from_slice(reply).unwrap_or_else(|e| fail(e));
        Outcome::Solved {
            latency_us,
            cache_hit: v["cache_hit"].as_bool().unwrap_or(false),
        }
    } else if chaos_active {
        // Under chaos, typed rejections are expected outcomes; an untyped
        // body would mean the error path lost its shape.
        let v: serde_json::Value = serde_json::from_slice(reply)
            .unwrap_or_else(|e| fail(format!("request {i}: untyped {status}: {e}")));
        if v["reason"].as_str().is_none() {
            fail(format!("request {i}: status {status} without a reason tag"));
        }
        Outcome::TypedError { status }
    } else {
        fail(format!(
            "request {i}: status {status}: {}",
            String::from_utf8_lossy(reply)
        ))
    }
}

/// Sends the request a few bytes at a time (a cooperative slowloris that
/// stays inside the server's request deadline), then reads the response.
fn slow_roundtrip(addr: SocketAddr, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    use std::io::{BufRead, BufReader, Read};
    let mut stream = std::net::TcpStream::connect(addr)?;
    for chunk in raw.chunks(32) {
        stream.write_all(chunk)?;
        stream.flush()?;
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        if header.trim_end().is_empty() {
            break;
        }
        if let Some((name, v)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

fn main() {
    let opts = parse_options();
    let graph = if opts.small {
        ChimeraGraph::new(2, 2)
    } else {
        ChimeraGraph::dwave_2x()
    };

    // Distinct structures: vary the sharing pattern per generator seed so
    // the cache sees `structures` different keys, each repeated
    // `requests / structures` times. With `--mixed-sizes` the structures
    // additionally cycle through the paper's plan classes 2–5 at one or two
    // queries each — the size mix the chip-packing placer sees in practice.
    let mut problems = Vec::new();
    for s in 0..opts.structures {
        let cfg = if opts.mixed_sizes {
            PaperWorkloadConfig {
                sharing_probability: 0.6,
                max_queries: 1 + (s / 4) % 2,
                ..PaperWorkloadConfig::paper_class(2 + s % 4)
            }
        } else {
            PaperWorkloadConfig {
                sharing_probability: 0.6,
                max_queries: 4,
                ..PaperWorkloadConfig::paper_class(opts.plans)
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(s as u64));
        let inst = paper::generate(&graph, &cfg, &mut rng).unwrap_or_else(|e| fail(e));
        problems.push(inst.problem);
    }
    // Request i replays structure i % S under seed base+i: distinct seeds
    // give the server-side chaos streams (keyed on request seed) a distinct
    // roll per request, so fault schedules are index-deterministic.
    let bodies: Vec<Vec<u8>> = (0..opts.requests)
        .map(|i| {
            let mut req = mqo_service::api::SolveRequest::new(
                problems[i % problems.len()].clone(),
                opts.seed.wrapping_add(i as u64),
            );
            req.reads = Some(opts.reads);
            serde_json::to_string(&req)
                .unwrap_or_else(|e| fail(e))
                .into_bytes()
        })
        .collect();

    // Self-host unless an address was given.
    let (server, addr): (Option<Server>, SocketAddr) = match &opts.addr {
        Some(a) => (None, a.parse().unwrap_or_else(|e| fail(e))),
        None => {
            // With packing, host on a chip large enough to co-locate
            // several mixed-size tenants even when structures were
            // generated against the small graph.
            let host_graph = if opts.tenants > 0 && opts.small {
                ChimeraGraph::new(4, 4)
            } else {
                graph.clone()
            };
            let mut engine = EngineConfig::new(host_graph);
            engine.chaos = opts.chaos;
            engine.breaker.failure_threshold = opts.breaker_threshold;
            engine.breaker.open_ms = opts.breaker_open_ms;
            if opts.tenants > 0 {
                engine.packing = true;
                engine.packing_max_tenants = opts.tenants.max(2);
            }
            let mut config = ServerConfig::new(engine);
            config.addr = "127.0.0.1:0".to_string();
            if opts.tenants > 0 {
                // Few workers over a deep claim window: backlogs form while
                // a cycle runs, so the next claim packs several tenants.
                config.queue.workers = 2;
                config.queue.batch_size = config.queue.batch_size.max(opts.tenants);
            } else {
                config.queue.workers = opts.clients.max(2);
            }
            let server = Server::start(config).unwrap_or_else(|e| fail(e));
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };

    // Replay: `clients` threads pull request indices off a shared counter,
    // so the stream interleaves structures exactly like round-robin
    // arrivals.
    let chaos_active = opts.chaos_active();
    let chaos_seed = opts.chaos.seed;
    let (abort_rate, slow_rate) = (opts.conn_abort_rate, opts.slow_rate);
    let keep_alive = opts.keep_alive;
    let pipeline = opts.pipeline.max(1);
    let retry = opts.retry;
    let bodies = Arc::new(bodies);
    let next = Arc::new(AtomicUsize::new(0));
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let connects = Arc::new(Mutex::new(Vec::new()));
    let failover_stats = Arc::new(FailoverStats::default());
    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..opts.clients {
        let bodies = Arc::clone(&bodies);
        let next = Arc::clone(&next);
        let outcomes = Arc::clone(&outcomes);
        let connects = Arc::clone(&connects);
        let failover_stats = Arc::clone(&failover_stats);
        let total = opts.requests;
        handles.push(std::thread::spawn(move || {
            // In keep-alive mode each client thread holds one persistent
            // connection for its whole stream; chaos aborts/slowloris still
            // run on dedicated throwaway sockets so they never poison it.
            let mut client = keep_alive.then(|| KeepAliveClient::new(addr));
            loop {
                let base = next.fetch_add(pipeline, Ordering::Relaxed);
                if base >= total {
                    return;
                }
                let end = (base + pipeline).min(total);
                let mut batch = Vec::new();
                for i in base..end {
                    // Client-side chaos rolls, keyed on the request index —
                    // the same requests abort at any client-thread count.
                    let aborts = abort_rate > 0.0
                        && chaos_roll(chaos_seed, STREAM_CHAOS_CONN, i as u64, 0) < abort_rate;
                    let slow = slow_rate > 0.0
                        && chaos_roll(chaos_seed, STREAM_CHAOS_CONN, i as u64, 1) < slow_rate;
                    if aborts {
                        abort_mid_request(addr, &raw_request(addr, &bodies[i]));
                        outcomes.lock().unwrap().push((i, Outcome::Aborted));
                    } else if slow {
                        let sent = Instant::now();
                        let (status, reply) = slow_roundtrip(addr, &raw_request(addr, &bodies[i]))
                            .unwrap_or_else(|e| fail(format!("request {i}: {e}")));
                        let latency_us = sent.elapsed().as_micros() as u64;
                        let outcome = classify(i, status, &reply, latency_us, chaos_active);
                        outcomes.lock().unwrap().push((i, outcome));
                    } else {
                        batch.push(i);
                    }
                }
                if batch.is_empty() {
                    continue;
                }
                if let Some(client) = client.as_mut() {
                    let reqs: Vec<(&str, &str, &[u8])> = batch
                        .iter()
                        .map(|&i| ("POST", "/solve", bodies[i].as_slice()))
                        .collect();
                    let connects_before = client.connects();
                    let sent = Instant::now();
                    let responses = client
                        .request_batch(&reqs)
                        .unwrap_or_else(|e| fail(format!("requests {base}..{end}: {e}")));
                    let mut elapsed = sent.elapsed().as_micros() as u64;
                    if client.connects() > connects_before {
                        // A (re)connect happened inside this call: book it
                        // separately and keep it out of the request latency.
                        let connect_us = client.last_connect_us();
                        connects.lock().unwrap().push(connect_us);
                        elapsed = elapsed.saturating_sub(connect_us);
                    }
                    // Pipelined responses share the batch wall clock; book
                    // the amortised per-request latency.
                    let per_request = elapsed / responses.len().max(1) as u64;
                    for (&i, (status, reply)) in batch.iter().zip(&responses) {
                        if retry > 0 && retryable(*status) {
                            // The keep-alive attempt already failed once:
                            // hand the request to the replay path with that
                            // attempt on the books.
                            failover_stats.retries.fetch_add(1, Ordering::Relaxed);
                            let (status, reply, connect_us, latency_us) =
                                send_with_retry(addr, &bodies[i], retry, 1, &failover_stats)
                                    .unwrap_or_else(|e| fail(format!("request {i}: {e}")));
                            connects.lock().unwrap().push(connect_us);
                            let outcome = classify(i, status, &reply, latency_us, chaos_active);
                            outcomes.lock().unwrap().push((i, outcome));
                        } else {
                            let outcome = classify(i, *status, reply, per_request, chaos_active);
                            outcomes.lock().unwrap().push((i, outcome));
                        }
                    }
                } else {
                    for &i in &batch {
                        let (status, reply, connect_us, latency_us) =
                            send_with_retry(addr, &bodies[i], retry, 0, &failover_stats)
                                .unwrap_or_else(|e| fail(format!("request {i}: {e}")));
                        connects.lock().unwrap().push(connect_us);
                        let outcome = classify(i, status, &reply, latency_us, chaos_active);
                        outcomes.lock().unwrap().push((i, outcome));
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap_or_else(|_| fail("client thread panicked"));
    }
    let wall = started.elapsed();

    let (status, metrics_body) = roundtrip(addr, "GET", "/metrics", b"")
        .unwrap_or_else(|e| fail(format!("GET /metrics: {e}")));
    if status != 200 {
        fail(format!("GET /metrics: status {status}"));
    }
    let metrics: serde_json::Value =
        serde_json::from_slice(&metrics_body).unwrap_or_else(|e| fail(e));

    if let Some(server) = server {
        let _ = roundtrip(addr, "POST", "/shutdown", b"");
        server.wait();
    }

    let outcomes = outcomes.lock().unwrap();
    let mut all = Vec::new();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    let mut errors_by_status: BTreeMap<u16, u64> = BTreeMap::new();
    let mut aborted = 0u64;
    for (_, outcome) in outcomes.iter() {
        match outcome {
            Outcome::Solved {
                latency_us,
                cache_hit,
            } => {
                all.push(*latency_us);
                if *cache_hit {
                    hits.push(*latency_us);
                } else {
                    misses.push(*latency_us);
                }
            }
            Outcome::TypedError { status } => *errors_by_status.entry(*status).or_default() += 1,
            Outcome::Aborted => aborted += 1,
        }
    }
    all.sort_unstable();
    hits.sort_unstable();
    misses.sort_unstable();
    let errors_total: u64 = errors_by_status.values().sum();
    let mut connects = connects.lock().unwrap();
    connects.sort_unstable();

    // The chaos acceptance signal: nothing is silently dropped. Every
    // request the replay issued is accounted for as a solve, a typed
    // error, or a deliberate client-side abort.
    if all.len() as u64 + errors_total + aborted != opts.requests as u64 {
        fail(format!(
            "lost requests: {} solved + {errors_total} errors + {aborted} aborted != {}",
            all.len(),
            opts.requests
        ));
    }

    // Overall occupancy: solved tenants per programming cycle across the
    // whole run. Solo solves are one-tenant cycles, so without packing this
    // is exactly 1.0; packed batches push it above 1.0.
    let svc_count = |key: &str| metrics["service"][key].as_u64().unwrap_or(0);
    let solved_srv = svc_count("solved_total");
    let packed_batches = svc_count("packed_batches");
    let tenants_packed = svc_count("tenants_packed");
    let cycles = packed_batches + solved_srv.saturating_sub(tenants_packed);
    let occupancy = if cycles == 0 {
        0.0
    } else {
        solved_srv as f64 / cycles as f64
    };

    let errors_value = serde_json::Value::Object(
        errors_by_status
            .iter()
            .map(|(k, v)| (k.to_string(), serde_json::to_value(v)))
            .collect(),
    );
    let report = serde_json::json!({
        "requests": opts.requests,
        "clients": opts.clients,
        "structures": opts.structures,
        "keep_alive": opts.keep_alive,
        "pipeline": pipeline,
        "wall_ms": wall.as_secs_f64() * 1e3,
        "throughput_rps": outcomes.len() as f64 / wall.as_secs_f64().max(1e-9),
        "solved": all.len(),
        "errors_by_status": errors_value,
        "aborted": aborted,
        "p50_us": percentile(&all, 0.50),
        "p99_us": percentile(&all, 0.99),
        "cache_hits": hits.len(),
        "cache_misses": misses.len(),
        "hit_mean_us": mean(&hits),
        "hit_p50_us": percentile(&hits, 0.50),
        "miss_mean_us": mean(&misses),
        "miss_p50_us": percentile(&misses, 0.50),
        // Connection-establishment cost, booked apart from the request
        // latencies above: with --keep-alive this counts one entry per
        // (re)connect instead of one per request.
        "connect": serde_json::json!({
            "count": connects.len(),
            "mean_us": mean(&connects),
            "p50_us": percentile(&connects, 0.50),
            "p99_us": percentile(&connects, 0.99),
        }),
        // Client-side replays and the router's failover counters, apart
        // from the error ledger: a request that died with one cell and
        // completed on another is a success with a story, not an error.
        "failover": serde_json::json!({
            "client_retries": failover_stats.retries.load(Ordering::Relaxed),
            "retry_after_honored": failover_stats.retry_after_honored.load(Ordering::Relaxed),
            "completed_after_retry": failover_stats.completed_after_retry.load(Ordering::Relaxed),
            "router_failovers": metrics["service"]["failovers"].clone(),
            "cell_respawns": metrics["service"]["cell_respawns"].clone(),
            "crash_loops_quarantined": metrics["service"]["crash_loops_quarantined"].clone(),
            "cell_kills_injected": metrics["service"]["chaos_cell_kills_injected"].clone(),
            "deadline_budget_exhausted": metrics["service"]["deadline_budget_exhausted"].clone(),
        }),
        "integrity": serde_json::json!({
            "violations": metrics["service"]["integrity_violations"].clone(),
            "repairs": metrics["service"]["integrity_repairs"].clone(),
            "rejects": metrics["service"]["integrity_rejects"].clone(),
            "corruptions_injected": metrics["service"]["chaos_corruptions_injected"].clone(),
        }),
        "packing": serde_json::json!({
            "packed_batches": metrics["service"]["packed_batches"].clone(),
            "tenants_packed": metrics["service"]["tenants_packed"].clone(),
            "packing_declines": metrics["service"]["packing_declines"].clone(),
            "tenants_per_cycle": metrics["service"]["tenants_per_cycle"].clone(),
            "occupancy_tenants_per_cycle": occupancy,
        }),
        "chains": serde_json::json!({
            "reads_broken": metrics["service"]["reads_broken_chains"].clone(),
            "majority_repairs": metrics["service"]["chain_majority_repairs"].clone(),
            "tie_breaks": metrics["service"]["chain_tie_breaks"].clone(),
            "reads_verified_clean": metrics["service"]["reads_verified_clean"].clone(),
            "reads_repaired": metrics["service"]["reads_repaired"].clone(),
        }),
        "server_metrics": metrics,
    });
    println!("{report}");

    // Integrity reconciliation (self-host only: against --addr the metrics
    // may include traffic from other clients). Every injected corruption
    // must end flagged — repaired or rejected, never served raw — and a
    // fault-free run must show identically zero integrity and chain-repair
    // activity.
    if opts.addr.is_none() {
        let svc = &metrics["service"];
        let count = |key: &str| svc[key].as_u64().unwrap_or(0);
        let injected = count("chaos_corruptions_injected");
        let violations = count("integrity_violations");
        let repairs = count("integrity_repairs");
        let rejects = count("integrity_rejects");
        if violations < injected {
            fail(format!(
                "unflagged corrupted answers: {injected} injected, only {violations} flagged"
            ));
        }
        if repairs + rejects != violations {
            fail(format!(
                "integrity books do not reconcile: {repairs} repairs + {rejects} rejects != {violations} violations"
            ));
        }
        if !chaos_active {
            // Chain breaks are a physical reality of finite-temperature
            // annealing reads — majority-vote repair flagging them is the
            // mechanism working, not a fault — but the integrity ledger
            // itself must be silent when no corruption was injected.
            for key in ["integrity_violations", "chaos_corruptions_injected"] {
                if count(key) != 0 {
                    fail(format!(
                        "clean run must have zero {key}, got {}",
                        count(key)
                    ));
                }
            }
        }
    }

    // The cache acceptance signal (self-host, clean runs only — chaos can
    // 500 the repeats, and an external server may run a deliberately
    // capacity-starved cache): repeated structures must be hits.
    if opts.addr.is_none() && !chaos_active && outcomes.len() > opts.structures && hits.is_empty() {
        fail("no cache hits despite repeated structures");
    }

    // The packing acceptance signal (self-host, clean runs with a
    // meaningful backlog): at least one programming cycle must have carried
    // multiple tenants, i.e. occupancy exceeds one tenant per cycle.
    if opts.addr.is_none()
        && opts.tenants > 0
        && !chaos_active
        && opts.clients >= 2
        && opts.requests >= 8 * opts.clients
        && occupancy <= 1.0
    {
        fail(format!(
            "packing never engaged: occupancy {occupancy:.3} tenants/cycle \
             ({packed_batches} packed batches over {solved_srv} solves)"
        ));
    }
}
