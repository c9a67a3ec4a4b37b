//! The HTTP front-end: binds a listener, runs the nonblocking event-loop
//! tier ([`crate::event_loop`], DESIGN.md §13), and bridges parsed requests
//! onto the admission queue.
//!
//! Endpoints:
//!
//! * `POST /solve` — body is a JSON [`crate::api::SolveRequest`]; answers a
//!   [`crate::api::SolveResponse`] or a typed [`Reject`] with its status.
//! * `GET /metrics` — JSON counters, latency histograms, cache statistics,
//!   per-backend circuit-breaker state.
//! * `GET /healthz` — liveness probe.
//! * `POST /shutdown` — graceful drain: stop admissions, answer everything
//!   already queued, then exit [`Server::wait`].
//!
//! Connections are HTTP/1.1 keep-alive with pipelining: one connection can
//! carry many requests, and the solve path never blocks an event-loop
//! thread — the handler submits to the queue with a callback
//! [`crate::queue::Responder`] and the worker's answer is posted back to the
//! owning shard through its completion channel.
//!
//! Connection hardening (DESIGN.md §9) is enforced by the event loop:
//! byte/count caps and whole-request wall-clock deadlines on reads,
//! idle/write-stall timeouts, a connection cap shedding with `503` +
//! `Retry-After`, and `catch_unwind` around every handler dispatch.

use crate::api::{Reject, SolveRequest};
use crate::engine::{EngineConfig, SolveEngine};
use crate::event_loop::{Action, Completer, EventLoop, Handler, LoopConfig, Response};
use crate::http::Request;
use crate::metrics::{lock_recover, Metrics};
use crate::queue::{QueueConfig, Responder, SolveQueue};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine (device, cache, router, breakers, chaos) configuration.
    pub engine: EngineConfig,
    /// Admission queue configuration.
    pub queue: QueueConfig,
    /// Client-side event-loop front: HTTP caps, read deadline and
    /// connection cap.
    pub event_loop: LoopConfig,
}

impl ServerConfig {
    /// Loopback defaults around the given engine configuration.
    pub fn new(engine: EngineConfig) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine,
            queue: QueueConfig::default(),
            event_loop: LoopConfig::default(),
        }
    }
}

/// A running solve server.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<SolveQueue>,
    engine: Arc<SolveEngine>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    event_loop: Mutex<Option<EventLoop>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds the listener, spawns the event-loop shards and the worker pool.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(Metrics::default());
        let engine = Arc::new(SolveEngine::new(config.engine, Arc::clone(&metrics)));
        let queue = SolveQueue::start(Arc::clone(&engine), config.queue);
        let shutdown = Arc::new(AtomicBool::new(false));

        let handler = Arc::new(SolveHandler {
            queue: Arc::clone(&queue),
            engine: Arc::clone(&engine),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
        });
        let event_loop = EventLoop::spawn(
            listener,
            config.event_loop,
            handler,
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        )?;

        Ok(Server {
            addr,
            queue,
            engine,
            metrics,
            shutdown,
            event_loop: Mutex::new(Some(event_loop)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The engine (tests inspect cache statistics through it).
    pub fn engine(&self) -> &Arc<SolveEngine> {
        &self.engine
    }

    /// True once a shutdown has been requested (via [`Server::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested, then drains and joins
    /// everything: the event-loop shards stop accepting, answer every
    /// request already in flight (final responses carry
    /// `connection: close`), then the worker pool drains and joins.
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(event_loop) =
            lock_recover(&self.event_loop, &self.metrics.lock_poison_recoveries).take()
        {
            event_loop.wake();
            event_loop.join();
        }
        // Shards only exit once every connection has flushed, so every
        // in-flight answer is already on the wire; this join is for the
        // worker threads themselves.
        self.queue.shutdown();
    }

    /// Requests a graceful shutdown and waits for the drain to finish.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wait();
    }
}

/// Routes parsed requests to the solve queue and the introspection
/// endpoints. Runs on event-loop threads: everything here is non-blocking —
/// the solve path answers later through the queue's callback responder.
struct SolveHandler {
    queue: Arc<SolveQueue>,
    engine: Arc<SolveEngine>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
}

impl Handler for SolveHandler {
    fn handle(&self, request: Request, completer: Completer) -> Action {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Action::Respond(Response::json(200, r#"{"status":"ok"}"#)),
            ("GET", "/metrics") => {
                let payload = serde_json::json!({
                    "service": self.metrics.snapshot(),
                    "cache": self.engine.cache_stats(),
                    "breakers": self.engine.breaker_panel(),
                });
                Action::Respond(Response::json(200, payload.to_string()))
            }
            ("POST", "/solve") => self.handle_solve(request, completer),
            ("POST", "/shutdown") => {
                // The drain pass the shard runs after this dispatch flushes
                // the acknowledgement with `connection: close`; wait() wakes
                // the remaining shards.
                self.shutdown.store(true, Ordering::SeqCst);
                Action::Respond(Response::json(200, r#"{"status":"draining"}"#).closing())
            }
            ("GET", "/solve") | ("POST", "/healthz") | ("POST", "/metrics") => {
                Action::Respond(Response::json(405, r#"{"error":"method not allowed"}"#))
            }
            _ => Action::Respond(Response::json(404, r#"{"error":"not found"}"#)),
        }
    }
}

impl SolveHandler {
    fn handle_solve(&self, request: Request, completer: Completer) -> Action {
        Metrics::inc(&self.metrics.requests_total);
        let solve_request: SolveRequest = match serde_json::from_slice(&request.body) {
            Ok(r) => r,
            Err(e) => {
                Metrics::inc(&self.metrics.rejected_invalid);
                let reject = Reject::InvalidRequest {
                    detail: e.to_string(),
                };
                return Action::Respond(Response::reject(&reject));
            }
        };
        let responder = Responder::new(move |result| {
            completer.complete(queue_answer(result));
        });
        match self.queue.submit_with(solve_request, responder) {
            Ok(()) => Action::Pending,
            Err((responder, reject)) => {
                // Answer through the responder we got back: it carries the
                // completer, and `queue_answer` attaches the Retry-After
                // hint to back-pressure rejections.
                responder.respond(Err(reject));
                Action::Pending
            }
        }
    }
}

/// Renders a queue answer (worker result or typed rejection) as a response.
/// Back-pressure rejections carry a `Retry-After` hint, exactly like the
/// accept-time connection shed: a full queue is a transient condition the
/// client should retry, not an error.
fn queue_answer(result: Result<crate::api::SolveResponse, Reject>) -> Response {
    match result {
        Ok(response) => {
            let body = serde_json::to_string(&response)
                .unwrap_or_else(|_| r#"{"error":"serialisation failure"}"#.to_string());
            Response::json(200, body)
        }
        Err(reject) => {
            let response = Response::reject(&reject);
            if matches!(reject, Reject::QueueFull { .. }) {
                response.with_header("retry-after", "1")
            } else {
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::KeepAliveClient;
    use crate::testkit::{pipeline, roundtrip};
    use mqo_chimera::graph::ChimeraGraph;

    fn small_server() -> Server {
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        Server::start(ServerConfig::new(engine)).expect("bind loopback")
    }

    const TINY: &[u8] =
        br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 7}"#;

    #[test]
    fn healthz_metrics_and_unknown_paths() {
        let server = small_server();
        let addr = server.local_addr();
        let (status, body) = roundtrip(addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok"}"#);
        let (status, body) = roundtrip(addr, "GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert!(v["service"]["requests_total"].is_u64());
        assert!(v["cache"]["capacity"].is_u64());
        let (status, _) = roundtrip(addr, "GET", "/nope", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, "GET", "/solve", b"").unwrap();
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn solve_round_trip_with_cache_hit_on_repeat() {
        let server = small_server();
        let addr = server.local_addr();
        let (status, body) = roundtrip(addr, "POST", "/solve", TINY).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let cold: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(cold["cost"], 2.0);
        assert_eq!(cold["backend"], "annealer");
        assert_eq!(cold["cache_hit"], false);

        let (status, body) = roundtrip(addr, "POST", "/solve", TINY).unwrap();
        assert_eq!(status, 200);
        let warm: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(warm["cache_hit"], true);
        assert_eq!(warm["selection"], cold["selection"]);
        assert_eq!(warm["cost"], cold["cost"]);

        let (_, body) = roundtrip(addr, "GET", "/metrics", b"").unwrap();
        let m: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(m["service"]["solved_total"], 2);
        assert_eq!(m["service"]["cache_hits"], 1);
        assert_eq!(m["cache"]["hits"], 1);
        assert_eq!(m["cache"]["misses"], 1);
        server.shutdown();
    }

    #[test]
    fn solve_round_trips_over_one_keep_alive_connection() {
        let server = small_server();
        let addr = server.local_addr();
        let mut client = KeepAliveClient::new(addr, Duration::from_secs(30));
        let cold = client.request("POST", "/solve", TINY).unwrap();
        assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
        let warm = client.request("POST", "/solve", TINY).unwrap();
        assert_eq!(warm.status, 200);
        let cold: serde_json::Value = serde_json::from_slice(&cold.body).unwrap();
        let warm: serde_json::Value = serde_json::from_slice(&warm.body).unwrap();
        assert_eq!(warm["selection"], cold["selection"]);
        assert_eq!(warm["cache_hit"], true);
        assert_eq!(client.connects(), 1, "both requests shared one connection");
        let snapshot = server.metrics().snapshot();
        assert!(snapshot.connections_reused >= 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_solves_answer_in_request_order() {
        let server = small_server();
        let addr = server.local_addr();
        let batch: Vec<(&str, &str, &[u8])> = vec![
            ("POST", "/solve", TINY),
            ("GET", "/healthz", b""),
            ("POST", "/solve", TINY),
        ];
        let responses = pipeline(addr, &batch).unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].status, 200);
        assert_eq!(responses[1].body, br#"{"status":"ok"}"#.to_vec());
        let first: serde_json::Value = serde_json::from_slice(&responses[0].body).unwrap();
        let third: serde_json::Value = serde_json::from_slice(&responses[2].body).unwrap();
        assert_eq!(first["cost"], 2.0);
        assert_eq!(third["selection"], first["selection"]);
        assert!(server.metrics().snapshot().pipelined_requests >= 1);
        server.shutdown();
    }

    #[test]
    fn malformed_bodies_answer_400_not_a_hang() {
        let server = small_server();
        let addr = server.local_addr();
        let (status, body) = roundtrip(addr, "POST", "/solve", b"{not json").unwrap();
        assert_eq!(status, 400);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["reason"], "invalid_request");
        // Builder-invalid problem (saving inside one query): also 400.
        let bad = br#"{"problem": {"queries": [[2,4]], "savings": [[0,1,5.0]]}}"#;
        let (status, _) = roundtrip(addr, "POST", "/solve", bad).unwrap();
        assert_eq!(status, 400);
        assert_eq!(server.metrics().snapshot().rejected_invalid, 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_drains_and_releases_wait() {
        let server = small_server();
        let addr = server.local_addr();
        let (status, body) = roundtrip(addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"draining"}"#);
        server.wait();
        assert!(server.shutdown_requested());
    }

    #[test]
    fn metrics_report_breaker_state_per_backend() {
        let server = small_server();
        let addr = server.local_addr();
        let (status, body) = roundtrip(addr, "GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        for backend in ["annealer", "milp", "hill_climbing"] {
            assert_eq!(v["breakers"][backend]["state"], "closed", "{backend}");
            assert_eq!(v["breakers"][backend]["opened_total"], 0);
        }
        server.shutdown();
    }

    #[test]
    fn slow_clients_get_a_typed_408_within_the_deadline() {
        use std::io::{BufRead, BufReader, Write};
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        let mut config = ServerConfig::new(engine);
        config.event_loop.request_deadline_ms = 100;
        let server = Server::start(config).unwrap();
        let addr = server.local_addr();

        // Half a request line, then stall: the server must answer 408, not
        // hold the connection open forever.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /solve HT").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(&stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 408"), "{status_line}");
        assert_eq!(server.metrics().snapshot().rejected_request_timeout, 1);
        drop(reader);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn oversized_request_lines_get_a_typed_431() {
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        let mut config = ServerConfig::new(engine);
        config.event_loop.http.max_line_bytes = 128;
        let server = Server::start(config).unwrap();
        let addr = server.local_addr();
        let long_path = format!("/{}", "a".repeat(4096));
        let (status, body) = roundtrip(addr, "GET", &long_path, b"").unwrap();
        assert_eq!(status, 431, "{}", String::from_utf8_lossy(&body));
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["reason"], "header_limit");
        assert_eq!(server.metrics().snapshot().rejected_header_limit, 1);
        server.shutdown();
    }

    #[test]
    fn queue_full_answers_429_with_retry_after_like_the_shed_path() {
        use std::io::{BufRead, BufReader, Write};
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        let mut config = ServerConfig::new(engine);
        config.queue = crate::queue::QueueConfig {
            depth: 1,
            workers: 1,
            batch_size: 1,
        };
        let server = Server::start(config).unwrap();
        let addr = server.local_addr();

        // A long solve occupies the single worker; the next request fills
        // the depth-1 queue; the one after that must be rejected 429.
        let slow: &[u8] = br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 7, "reads": 4000, "gauges": 1}"#;
        let send = |body: &[u8]| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            let head = format!(
                "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(body).unwrap();
            s.flush().unwrap();
            s
        };
        let read_response = |stream: &std::net::TcpStream| {
            let mut reader = BufReader::new(stream);
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            let mut saw_retry_after = false;
            loop {
                let mut header = String::new();
                if reader.read_line(&mut header).unwrap() == 0 {
                    break;
                }
                if header.trim_end().is_empty() {
                    break;
                }
                if header.to_ascii_lowercase().starts_with("retry-after:") {
                    saw_retry_after = true;
                }
            }
            (status_line, saw_retry_after)
        };
        let wait_until = |ready: &dyn Fn() -> bool, what: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !ready() {
                assert!(std::time::Instant::now() < deadline, "timed out: {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        let a = send(slow);
        wait_until(
            &|| server.metrics().snapshot().batches_dispatched >= 1,
            "worker claims the first request",
        );
        let b = send(slow);
        wait_until(
            &|| server.metrics().snapshot().queue_depth >= 1,
            "second request queues",
        );
        let c = send(TINY);
        let (status, retry_after) = read_response(&c);
        assert!(status.starts_with("HTTP/1.1 429"), "{status}");
        assert!(retry_after, "429 advertises Retry-After like the 503 shed");
        assert_eq!(server.metrics().snapshot().rejected_queue_full, 1);
        // The occupying requests still answer normally.
        for held in [a, b] {
            let (status, _) = read_response(&held);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        }
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_cap_are_shed_with_retry_after() {
        use std::io::{BufRead, BufReader, Write};
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        let mut config = ServerConfig::new(engine);
        config.event_loop.max_connections = 1;
        config.event_loop.request_deadline_ms = 2_000;
        let server = Server::start(config).unwrap();
        let addr = server.local_addr();

        // Occupy the single slot with a connection that never finishes its
        // request, then connect again: the second must be shed.
        let mut holder = std::net::TcpStream::connect(addr).unwrap();
        holder.write_all(b"POST /solve HT").unwrap();
        holder.flush().unwrap();
        // Give the accept loop a beat to admit the holder.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.metrics().snapshot().connections_active < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "holder never admitted"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        let shed = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(&shed);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 503"), "{status_line}");
        let mut saw_retry_after = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header).unwrap() == 0 {
                break;
            }
            if header.trim_end().is_empty() {
                break;
            }
            if header.to_ascii_lowercase().starts_with("retry-after:") {
                saw_retry_after = true;
            }
        }
        assert!(saw_retry_after, "shed response advertises Retry-After");
        assert_eq!(server.metrics().snapshot().connections_shed, 1);
        drop(reader);
        drop(shed);
        drop(holder);
        server.shutdown();
    }
}
