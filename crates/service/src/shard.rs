//! The structure-sharded router front (`mqo_router`, DESIGN.md §13–§14).
//!
//! A thin front process that consistently shards `POST /solve` requests
//! across N `mqo_serve` *cells* by the instance's structure
//! ([`structure_key`], which is weight-independent): structurally
//! identical instances always land on the same cell, so each cell's
//! embedding cache sees the full hit-rate benefit of its shard instead of
//! every cell re-deriving every embedding.
//!
//! The router reuses the nonblocking event-loop front-end
//! ([`crate::event_loop`]) for its own client side; forwarding happens on a
//! small pool of forwarder threads over *pooled keep-alive upstream
//! connections* ([`crate::http::KeepAliveClient`]), so neither accepting nor
//! forwarding blocks the poll loop.
//!
//! Per-cell resilience (PR 9 + the PR 10 failover layer):
//!
//! * every cell has its own [`CircuitBreaker`]; an unreachable cell is
//!   skipped after `failure_threshold` consecutive failures and its traffic
//!   falls through to the next healthy cell (consistent order: the probe
//!   sequence starts at `hash % cells` and walks forward);
//! * **zero-loss failover**: a connection reset, timeout, or 5xx from a
//!   dying cell transparently replays the request on the next healthy cell
//!   — safe because solves are deterministic by `(problem, seed)`, so a
//!   replayed answer is bit-identical to the one the dying cell would have
//!   produced. Replays stay inside the client's remaining deadline budget:
//!   the router subtracts its own elapsed time and forwards a strictly
//!   decreasing `deadline_ms` upstream ([`next_deadline`]);
//! * every in-flight request sits in a **bounded per-shard journal**
//!   (the private `FailoverJournal`): admission beyond the per-shard bound
//!   answers a typed 429 instead of queueing without limit, and the journal
//!   draining to zero is the drain invariant the kill-chaos tests assert;
//! * cells **quarantined** by the fleet supervisor
//!   ([`crate::supervisor::Supervisor`]) are skipped like open breakers:
//!   the fall-through walk *is* the shard-range remap;
//! * any HTTP answer from a cell — including typed rejections — counts as
//!   cell transport health; only transport errors trip the breaker, but
//!   5xx answers are treated as replayable (the last one is passed through
//!   verbatim if no cell does better). A passed-through answer keeps the
//!   cell's `Retry-After`, so a cell's back-pressure hint reaches the
//!   client;
//! * a final `503 backend_unavailable` carries an honest `Retry-After`
//!   computed from the soonest breaker re-probe, not a constant.

use crate::api::{Reject, SolveRequest};
use crate::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use crate::event_loop::{Action, Completer, EventLoop, Handler, LoopConfig, Response};
use crate::http::{KeepAliveClient, Request, ResponseParts};
use crate::metrics::{lock_recover, Metrics};
use crate::supervisor::{Supervisor, SupervisorConfig};
use mqo_core::logical::DEFAULT_EPSILON;
use mqo_core::problem::MqoProblem;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Forwarder threads; each owns pooled upstream connections.
const FORWARDERS: usize = 4;
/// Replay window for requests that carry no `deadline_ms` of their own,
/// milliseconds. Requests with a client deadline use that instead.
const FAILOVER_BUDGET_MS: u64 = 2_000;
/// Pause between passes over the fleet, milliseconds: gives a respawning
/// cell or a cooling breaker a moment before the next pass.
const ROUND_BACKOFF_MS: u64 = 25;
/// Outstanding requests allowed per shard (primary cell); admission beyond
/// this answers a typed 429.
const JOURNAL_DEPTH: usize = 64;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct MqoRouterConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Upstream `mqo_serve` cell addresses (at least one).
    pub cells: Vec<String>,
    /// Upstream connect/read/write timeout, milliseconds.
    pub upstream_timeout_ms: u64,
    /// Per-cell circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Maximum passes over the fleet before a forward gives up (at least
    /// 1). Each pass tries every admissible cell once.
    pub failover_rounds: u32,
    /// Spawn and supervise the cells as child processes (respawn on death,
    /// quarantine on crash loop). `None` routes to externally managed
    /// cells exactly as before.
    pub supervisor: Option<SupervisorConfig>,
}

impl MqoRouterConfig {
    /// Loopback defaults over the given cells.
    #[must_use]
    pub fn new(cells: Vec<String>) -> Self {
        MqoRouterConfig {
            addr: "127.0.0.1:0".to_string(),
            cells,
            upstream_timeout_ms: 10_000,
            breaker: BreakerConfig::default(),
            failover_rounds: 4,
            supervisor: None,
        }
    }
}

/// The shard key of one instance: a hash of its per-query plan counts and
/// its savings pairs. Those fix the logical QUBO's edge set, so instances
/// with equal keys share the cells' embedding-cache key
/// (`Qubo::structure_hash`). Weight-independent, so instances differing
/// only in costs/savings values still map to the same cell (and hit its
/// cached embedding). `epsilon` only scales weights and does not enter the
/// key.
///
/// O(queries + savings): the key never builds the QUBO, whose one-hot
/// penalty is quadratic in plans per query, on the event-loop thread.
#[must_use]
pub fn structure_key(problem: &MqoProblem, _epsilon: f64) -> u64 {
    let mut hasher = DefaultHasher::new();
    problem.num_queries().hash(&mut hasher);
    for q in problem.queries() {
        problem.num_plans_of(q).hash(&mut hasher);
    }
    for &(p1, p2, _) in problem.savings() {
        (p1.0, p2.0).hash(&mut hasher);
    }
    hasher.finish()
}

/// The forwarded deadline for the next replay attempt: the client's budget
/// minus the time the router already spent, additionally capped one below
/// the previously forwarded deadline so the sequence is **strictly
/// decreasing across hops** even when attempts land in the same
/// millisecond. `None` means the budget is exhausted — stop replaying.
#[must_use]
pub fn next_deadline(budget_ms: u64, elapsed_ms: u64, previous: Option<u64>) -> Option<u64> {
    let remaining = budget_ms.checked_sub(elapsed_ms)?;
    let capped = match previous {
        Some(prev) => remaining.min(prev.saturating_sub(1)),
        None => remaining,
    };
    if capped == 0 {
        None
    } else {
        Some(capped)
    }
}

/// One upstream cell: address, connection pool, breaker, counters.
struct Cell {
    addr: SocketAddr,
    display: String,
    pool: Mutex<Vec<KeepAliveClient>>,
    breaker: CircuitBreaker,
    forwarded: AtomicU64,
    failures: AtomicU64,
}

/// Serialisable per-cell health reported under the router's `/metrics`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CellSnapshot {
    /// The cell's address.
    pub addr: String,
    /// Breaker state and transition counters.
    pub breaker: BreakerSnapshot,
    /// Requests this cell answered.
    pub forwarded: u64,
    /// Transport failures talking to this cell.
    pub failures: u64,
    /// Idle pooled keep-alive connections to this cell.
    pub pooled: usize,
    /// Whether the supervisor quarantined this cell (shard range remapped).
    #[serde(default)]
    pub quarantined: bool,
    /// Requests currently journaled against this cell's shard.
    #[serde(default)]
    pub journal_outstanding: usize,
}

/// The bounded per-shard journal of in-flight forwards. An entry lives
/// from event-loop admission to response completion (RAII: the guard pops
/// it even if a forwarder panics), so `outstanding` is an honest gauge of
/// requests the router has accepted but not yet answered — the drain
/// invariant of the kill-chaos tests is every shard returning to zero.
struct FailoverJournal {
    /// Per-shard ticket → structure hash of the outstanding request.
    shards: Vec<Mutex<HashMap<u64, u64>>>,
    depth: usize,
    next_ticket: AtomicU64,
    lock_recoveries: AtomicU64,
}

impl FailoverJournal {
    fn new(shards: usize, depth: usize) -> Self {
        FailoverJournal {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            depth,
            next_ticket: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
        }
    }

    /// Admits one request against `shard`, or `None` when the shard is at
    /// its journal bound (answer 429, don't queue without limit).
    fn admit(self: &Arc<Self>, shard: usize, hash: u64) -> Option<JournalGuard> {
        let mut entries = lock_recover(&self.shards[shard], &self.lock_recoveries);
        if entries.len() >= self.depth {
            return None;
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        entries.insert(ticket, hash);
        Some(JournalGuard {
            journal: Arc::clone(self),
            shard,
            ticket,
        })
    }

    fn outstanding(&self, shard: usize) -> usize {
        lock_recover(&self.shards[shard], &self.lock_recoveries).len()
    }
}

/// RAII journal entry: dropping it (response completed, or the forward
/// path unwound) removes the request from its shard's journal.
struct JournalGuard {
    journal: Arc<FailoverJournal>,
    shard: usize,
    ticket: u64,
}

impl Drop for JournalGuard {
    fn drop(&mut self) {
        lock_recover(
            &self.journal.shards[self.shard],
            &self.journal.lock_recoveries,
        )
        .remove(&self.ticket);
    }
}

/// Shared forwarding state: the cells and the failover machinery.
struct Fleet {
    cells: Vec<Cell>,
    upstream_timeout: Duration,
    /// Passes over the fleet before a forward gives up.
    rounds: u32,
    /// Per-cell quarantine flags; shared with the supervisor when one is
    /// running, all-false otherwise.
    quarantined: Arc<Vec<AtomicBool>>,
    journal: Arc<FailoverJournal>,
    metrics: Arc<Metrics>,
    lock_recoveries: AtomicU64,
}

impl Fleet {
    /// Primary cell of a shard key, before breaker fall-through.
    fn primary(&self, hash: u64) -> usize {
        (hash % self.cells.len() as u64) as usize
    }

    /// `Retry-After` seconds for a request no cell could take: the soonest
    /// moment any open breaker will admit a probe again (rounded up; at
    /// least 1 s). Falls back to 1 s when nothing is measurably open.
    fn retry_after_secs(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|cell| cell.breaker.remaining_open())
            .min()
            .map(|remaining| (remaining.as_millis() as u64).div_ceil(1_000).max(1))
            .unwrap_or(1)
    }

    /// Forwards one `/solve` request to the shard's cell, transparently
    /// replaying on the next healthy cell after a transport failure or a
    /// 5xx, within the request's deadline budget. Non-5xx HTTP answers are
    /// passed through verbatim, `Retry-After` included.
    fn forward(&self, hash: u64, request: &SolveRequest, admitted: Instant) -> Response {
        // The upstream body for deadline-less requests (and the fallback
        // when a deadline-carrying copy cannot be serialised).
        let without_deadline = {
            let mut canon = request.clone();
            canon.deadline_ms = None;
            match serde_json::to_string(&canon) {
                Ok(json) => json.into_bytes(),
                Err(e) => {
                    return Response::reject(&Reject::InternalError {
                        detail: format!("cannot re-serialise request: {e}"),
                    })
                }
            }
        };

        let n = self.cells.len();
        let budget = request.deadline_ms;
        // The replay window: the client's own deadline when it sent one,
        // the failover budget otherwise.
        let window_ms = budget.unwrap_or(FAILOVER_BUDGET_MS);
        let mut last_forwarded: Option<u64> = None;
        let mut last_5xx: Option<ResponseParts> = None;
        let mut failed_attempts = 0u32;
        let mut budget_exhausted = false;
        let mut detail = String::new();
        let mut note = |entry: String| {
            if detail.len() < 1_024 {
                if !detail.is_empty() {
                    detail.push_str("; ");
                }
                detail.push_str(&entry);
            }
        };

        'rounds: for round in 0..self.rounds.max(1) {
            if round > 0 {
                let elapsed = admitted.elapsed().as_millis() as u64;
                if elapsed.saturating_add(ROUND_BACKOFF_MS) >= window_ms {
                    budget_exhausted = true;
                    break 'rounds;
                }
                std::thread::sleep(Duration::from_millis(ROUND_BACKOFF_MS));
            }
            for step in 0..n {
                let idx = (self.primary(hash) + step) % n;
                let cell = &self.cells[idx];
                if self.quarantined[idx].load(Ordering::SeqCst) {
                    note(format!("{}: quarantined", cell.display));
                    continue;
                }
                if !cell.breaker.admit() {
                    note(format!("{}: breaker open", cell.display));
                    continue;
                }
                // Budget check per attempt; the forwarded deadline strictly
                // decreases across hops.
                let elapsed = admitted.elapsed().as_millis() as u64;
                let forwarded_deadline = match budget {
                    Some(b) => match next_deadline(b, elapsed, last_forwarded) {
                        Some(d) => {
                            last_forwarded = Some(d);
                            Some(d)
                        }
                        None => {
                            budget_exhausted = true;
                            break 'rounds;
                        }
                    },
                    None => {
                        if elapsed >= window_ms {
                            budget_exhausted = true;
                            break 'rounds;
                        }
                        None
                    }
                };
                let body: Vec<u8> = match forwarded_deadline {
                    Some(deadline) => {
                        let mut fwd = request.clone();
                        fwd.deadline_ms = Some(deadline);
                        match serde_json::to_string(&fwd) {
                            Ok(json) => json.into_bytes(),
                            Err(_) => without_deadline.clone(),
                        }
                    }
                    None => without_deadline.clone(),
                };
                match self.try_cell(cell, &body) {
                    Ok(parts) => {
                        cell.breaker.record_success();
                        if parts.status >= 500 {
                            // The cell answered, but with a server-side
                            // failure — replayable on another cell; keep the
                            // answer to pass through verbatim if nothing
                            // does better.
                            failed_attempts += 1;
                            note(format!("{}: upstream {}", cell.display, parts.status));
                            last_5xx = Some(parts);
                            continue;
                        }
                        Metrics::inc(&cell.forwarded);
                        if failed_attempts > 0 {
                            Metrics::inc(&self.metrics.failovers);
                        }
                        return passed_through(parts);
                    }
                    Err(e) => {
                        cell.breaker.record_failure();
                        Metrics::inc(&cell.failures);
                        failed_attempts += 1;
                        note(format!("{}: {e}", cell.display));
                    }
                }
            }
        }

        if budget_exhausted {
            Metrics::inc(&self.metrics.deadline_budget_exhausted);
        }
        // A 5xx a cell actually produced beats a synthetic router error —
        // pass the last one through verbatim.
        if let Some(parts) = last_5xx {
            return passed_through(parts);
        }
        if budget_exhausted {
            return Response::reject(&Reject::DeadlineExceeded {
                deadline_ms: window_ms,
            });
        }
        let retry_after = self.retry_after_secs();
        Response::reject(&Reject::BackendUnavailable { detail })
            .with_header("retry-after", retry_after.to_string())
    }

    /// One attempt against one cell over a pooled keep-alive connection;
    /// the client itself retries once on a stale pooled connection.
    fn try_cell(&self, cell: &Cell, body: &[u8]) -> io::Result<ResponseParts> {
        let mut client = lock_recover(&cell.pool, &self.lock_recoveries)
            .pop()
            .unwrap_or_else(|| KeepAliveClient::new(cell.addr, self.upstream_timeout));
        let result = client.request("POST", "/solve", body);
        if result.is_ok() {
            lock_recover(&cell.pool, &self.lock_recoveries).push(client);
        }
        result
    }

    fn cell_snapshots(&self) -> Vec<CellSnapshot> {
        self.cells
            .iter()
            .enumerate()
            .map(|(idx, cell)| CellSnapshot {
                addr: cell.display.clone(),
                breaker: cell.breaker.snapshot(),
                forwarded: cell.forwarded.load(Ordering::Relaxed),
                failures: cell.failures.load(Ordering::Relaxed),
                pooled: lock_recover(&cell.pool, &self.lock_recoveries).len(),
                quarantined: self.quarantined[idx].load(Ordering::SeqCst),
                journal_outstanding: self.journal.outstanding(idx),
            })
            .collect()
    }
}

/// A cell's answer as the router passes it on: status, body, and the
/// cell's `Retry-After` hint when it sent one.
fn passed_through(parts: ResponseParts) -> Response {
    let body = String::from_utf8(parts.body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    let response = Response::json(parts.status, body);
    match parts.retry_after {
        Some(secs) => response.with_header("retry-after", secs.to_string()),
        None => response,
    }
}

/// A solve forward in flight from the event loop to a forwarder thread.
/// Carries its journal guard: the entry pops when the job is dropped,
/// however the forward ends.
struct ForwardJob {
    hash: u64,
    request: SolveRequest,
    admitted: Instant,
    _journal: JournalGuard,
    completer: Completer,
}

/// Routes client requests: introspection answers inline, `/solve` is
/// dispatched to the forwarder pool.
struct RouterHandler {
    fleet: Arc<Fleet>,
    forward_tx: mpsc::Sender<ForwardJob>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    supervisor: Option<Arc<Supervisor>>,
}

impl Handler for RouterHandler {
    fn handle(&self, request: Request, completer: Completer) -> Action {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Action::Respond(Response::json(
                200,
                format!(r#"{{"status":"ok","cells":{}}}"#, self.fleet.cells.len()),
            )),
            ("GET", "/metrics") => {
                let supervisor = self.supervisor.as_ref().map(|s| s.snapshots());
                let payload = serde_json::json!({
                    "service": self.metrics.snapshot(),
                    "router": serde_json::json!({
                        "cells": self.fleet.cell_snapshots(),
                        "journal_depth": JOURNAL_DEPTH,
                    }),
                    "supervisor": supervisor,
                });
                Action::Respond(Response::json(200, payload.to_string()))
            }
            ("POST", "/solve") => {
                Metrics::inc(&self.metrics.requests_total);
                let solve_request: SolveRequest = match serde_json::from_slice(&request.body) {
                    Ok(r) => r,
                    Err(e) => {
                        Metrics::inc(&self.metrics.rejected_invalid);
                        return Action::Respond(Response::reject(&Reject::InvalidRequest {
                            detail: e.to_string(),
                        }));
                    }
                };
                let hash = structure_key(&solve_request.problem, DEFAULT_EPSILON);
                let shard = self.fleet.primary(hash);
                let Some(guard) = self.fleet.journal.admit(shard, hash) else {
                    Metrics::inc(&self.metrics.rejected_queue_full);
                    return Action::Respond(
                        Response::reject(&Reject::QueueFull {
                            depth: JOURNAL_DEPTH,
                        })
                        .with_header("retry-after", "1"),
                    );
                };
                match self.forward_tx.send(ForwardJob {
                    hash,
                    request: solve_request,
                    admitted: Instant::now(),
                    _journal: guard,
                    completer,
                }) {
                    Ok(()) => Action::Pending,
                    Err(mpsc::SendError(job)) => {
                        // Forwarder pool gone: only happens mid-teardown.
                        job.completer
                            .complete(Response::reject(&Reject::ShuttingDown));
                        Action::Pending
                    }
                }
            }
            ("POST", "/shutdown") => {
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

/// A running structure-sharded router (optionally supervising its cells).
pub struct MqoRouter {
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    event_loop: Mutex<Option<EventLoop>>,
    forwarders: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Option<Arc<Supervisor>>,
    supervisor_report: Mutex<Vec<String>>,
}

impl std::fmt::Debug for MqoRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MqoRouter")
            .field("addr", &self.addr)
            .field("cells", &self.fleet.cells.len())
            .field("supervised", &self.supervisor.is_some())
            .finish()
    }
}

impl MqoRouter {
    /// Binds the listener, optionally spawns and readies the supervised
    /// fleet, resolves the cells, then spawns the event-loop shards and
    /// the forwarder pool.
    pub fn start(config: MqoRouterConfig) -> io::Result<MqoRouter> {
        if config.cells.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one cell",
            ));
        }
        let metrics = Arc::new(Metrics::default());

        // Supervision first: cells must exist (or be quarantined) before
        // the router starts answering.
        let mut supervisor = None;
        let quarantined: Arc<Vec<AtomicBool>>;
        if let Some(sup_config) = config.supervisor.clone() {
            if sup_config.cells != config.cells {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "supervisor cell list must match the router cell list",
                ));
            }
            let sup =
                Supervisor::start(sup_config, Arc::clone(&metrics)).map_err(io::Error::other)?;
            sup.wait_ready().map_err(io::Error::other)?;
            quarantined = sup.quarantine_flags();
            supervisor = Some(Arc::new(sup));
        } else {
            quarantined = Arc::new(
                (0..config.cells.len())
                    .map(|_| AtomicBool::new(false))
                    .collect::<Vec<_>>(),
            );
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cells = config
            .cells
            .iter()
            .map(|spec| {
                let resolved = spec.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cell {spec:?} resolves to nothing"),
                    )
                })?;
                Ok(Cell {
                    addr: resolved,
                    display: spec.clone(),
                    pool: Mutex::new(Vec::new()),
                    breaker: CircuitBreaker::new(config.breaker),
                    forwarded: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                })
            })
            .collect::<io::Result<Vec<Cell>>>()?;
        let journal = Arc::new(FailoverJournal::new(cells.len(), JOURNAL_DEPTH));
        let fleet = Arc::new(Fleet {
            cells,
            upstream_timeout: Duration::from_millis(config.upstream_timeout_ms.max(1)),
            rounds: config.failover_rounds,
            quarantined,
            journal,
            metrics: Arc::clone(&metrics),
            lock_recoveries: AtomicU64::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        let (forward_tx, forward_rx) = mpsc::channel::<ForwardJob>();
        let forward_rx = Arc::new(Mutex::new(forward_rx));
        let mut forwarders = Vec::new();
        for i in 0..FORWARDERS {
            let fleet = Arc::clone(&fleet);
            let forward_rx = Arc::clone(&forward_rx);
            forwarders.push(
                std::thread::Builder::new()
                    .name(format!("mqo-forward-{i}"))
                    .spawn(move || loop {
                        // Pull one job under the lock, forward outside it.
                        let job = {
                            let rx = fleet_rx(&forward_rx, &fleet);
                            match rx.recv() {
                                Ok(job) => job,
                                Err(_) => return,
                            }
                        };
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                fleet.forward(job.hash, &job.request, job.admitted)
                            }))
                            .unwrap_or_else(|_| {
                                Response::reject(&Reject::InternalError {
                                    detail: "forwarder panicked".to_string(),
                                })
                            });
                        job.completer.complete(outcome);
                    })?,
            );
        }

        let handler = Arc::new(RouterHandler {
            fleet: Arc::clone(&fleet),
            forward_tx,
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            supervisor: supervisor.clone(),
        });
        let event_loop = EventLoop::spawn(
            listener,
            LoopConfig::default(),
            handler,
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        )?;

        Ok(MqoRouter {
            addr,
            fleet,
            metrics,
            shutdown,
            event_loop: Mutex::new(Some(event_loop)),
            forwarders: Mutex::new(forwarders),
            supervisor,
            supervisor_report: Mutex::new(Vec::new()),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's front-end metrics handle.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Per-cell health (breaker state, traffic, pool size,
    /// quarantine, journal occupancy).
    #[must_use]
    pub fn cells(&self) -> Vec<CellSnapshot> {
        self.fleet.cell_snapshots()
    }

    /// The fleet supervisor, when this router spawned its own cells.
    #[must_use]
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// How the supervised cells went down; empty before [`MqoRouter::wait`]
    /// finishes (or when unsupervised).
    #[must_use]
    pub fn supervisor_report(&self) -> Vec<String> {
        lock_recover(&self.supervisor_report, &self.fleet.lock_recoveries).clone()
    }

    /// True once a shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested, drains the event loop (every
    /// in-flight forward is answered), joins the forwarder pool, then
    /// drains the supervised cells.
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(event_loop) = lock_recover(&self.event_loop, &self.fleet.lock_recoveries).take()
        {
            event_loop.wake();
            event_loop.join();
        }
        // The event loop dropped the handler — and with it the forward
        // sender — so the forwarders drain whatever is queued and exit.
        let handles: Vec<JoinHandle<()>> =
            lock_recover(&self.forwarders, &self.fleet.lock_recoveries)
                .drain(..)
                .collect();
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(supervisor) = &self.supervisor {
            let report = supervisor.shutdown();
            *lock_recover(&self.supervisor_report, &self.fleet.lock_recoveries) = report;
        }
    }

    /// Requests a graceful shutdown and waits for the drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wait();
    }
}

/// Locks the shared forwarder receiver, recovering from poison via the
/// fleet's recovery counter.
fn fleet_rx<'a>(
    rx: &'a Arc<Mutex<mpsc::Receiver<ForwardJob>>>,
    fleet: &Fleet,
) -> std::sync::MutexGuard<'a, mpsc::Receiver<ForwardJob>> {
    lock_recover(rx, &fleet.lock_recoveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::http::{read_response, render_request, HttpLimits};
    use crate::queue::QueueConfig;
    use crate::server::{Server, ServerConfig};
    use crate::testkit::{read_request, roundtrip};
    use mqo_chimera::graph::ChimeraGraph;
    use std::io::Write;

    fn cell_server() -> Server {
        let mut engine = EngineConfig::new(ChimeraGraph::new(2, 2));
        engine.device.num_reads = 20;
        engine.device.num_gauges = 2;
        Server::start(ServerConfig::new(engine)).expect("bind cell")
    }

    fn router_over(cells: &[&Server]) -> MqoRouter {
        let specs = cells
            .iter()
            .map(|cell| cell.local_addr().to_string())
            .collect();
        MqoRouter::start(MqoRouterConfig::new(specs)).expect("bind router")
    }

    /// Two structurally distinct tiny instances (different plan counts), so
    /// they can shard to different cells.
    const TINY_A: &[u8] =
        br#"{"problem": {"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}, "seed": 7}"#;
    const TINY_B: &[u8] =
        br#"{"problem": {"queries": [[2,4,6],[3,1]], "savings": [[1,3,5.0]]}, "seed": 7}"#;

    #[test]
    fn sharded_responses_are_bit_identical_to_a_single_cell() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let router = router_over(&[&cell_a, &cell_b]);
        let solo = cell_server();
        for body in [TINY_A, TINY_B] {
            let (via_router, direct) = (
                roundtrip(router.local_addr(), "POST", "/solve", body).unwrap(),
                roundtrip(solo.local_addr(), "POST", "/solve", body).unwrap(),
            );
            assert_eq!(
                via_router.0,
                200,
                "{}",
                String::from_utf8_lossy(&via_router.1)
            );
            // Identical (problem, seed) answers bit-identically regardless
            // of which cell solved it (timing fields differ; compare the
            // solution surface).
            let r: serde_json::Value = serde_json::from_slice(&via_router.1).unwrap();
            let d: serde_json::Value = serde_json::from_slice(&direct.1).unwrap();
            for field in ["selection", "cost", "backend", "reads", "qubits_used"] {
                assert_eq!(r[field], d[field], "{field}");
            }
        }
        // The two structures shard to different cells: both serve traffic.
        let loads: Vec<u64> = router.cells().iter().map(|c| c.forwarded).collect();
        assert_eq!(loads, vec![1, 1]);
        router.shutdown();
        cell_a.shutdown();
        cell_b.shutdown();
        solo.shutdown();
    }

    #[test]
    fn same_structure_always_lands_on_the_same_cell() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let router = router_over(&[&cell_a, &cell_b]);
        // Same structure, different weights/seeds: one cell takes them all.
        let bodies: Vec<Vec<u8>> = (0..4)
            .map(|seed| {
                format!(
                    r#"{{"problem": {{"queries": [[2,4],[3,1]], "savings": [[1,2,5.0]]}}, "seed": {seed}}}"#
                )
                .into_bytes()
            })
            .collect();
        for body in &bodies {
            let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", body).unwrap();
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        }
        let cells = router.cells();
        let loads: Vec<u64> = cells.iter().map(|c| c.forwarded).collect();
        assert!(
            loads.contains(&4) && loads.contains(&0),
            "one cell takes the whole structure shard, saw {loads:?}"
        );
        // The owning cell saw 1 miss + 3 hits; the idle cell saw nothing.
        let owner = if loads[0] == 4 { &cell_a } else { &cell_b };
        assert_eq!(owner.metrics().snapshot().cache_hits, 3);
        router.shutdown();
        cell_a.shutdown();
        cell_b.shutdown();
    }

    #[test]
    fn dead_cells_fall_through_and_the_failover_is_counted() {
        let cell_a = cell_server();
        let cell_b = cell_server();
        let mut config = MqoRouterConfig::new(vec![
            cell_a.local_addr().to_string(),
            cell_b.local_addr().to_string(),
        ]);
        config.breaker.failure_threshold = 1;
        config.breaker.open_ms = 50;
        config.upstream_timeout_ms = 500;
        let router = MqoRouter::start(config).expect("bind router");

        // Find which cell owns TINY_A's structure, then kill it.
        let (status, _) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200);
        let owner_idx = router
            .cells()
            .iter()
            .position(|c| c.forwarded == 1)
            .expect("one cell answered");
        let (owner, survivor) = if owner_idx == 0 {
            (cell_a, &cell_b)
        } else {
            (cell_b, &cell_a)
        };
        owner.shutdown();

        // The shard's primary is gone: requests fall through to the
        // survivor and still answer 200.
        let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let cells = router.cells();
        assert!(
            cells[owner_idx].failures >= 1,
            "dead cell recorded failures"
        );
        assert_eq!(
            survivor.metrics().snapshot().requests_total,
            1,
            "survivor answered the fallen-through request"
        );
        // The fall-through was a transparent failover and is counted.
        assert!(
            router.metrics().snapshot().failovers >= 1,
            "failover counted"
        );
        router.shutdown();
        survivor.shutdown();
    }

    #[test]
    fn router_metrics_report_per_cell_breaker_state() {
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, body) = roundtrip(router.local_addr(), "GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["router"]["cells"][0]["breaker"]["state"], "closed");
        assert_eq!(v["router"]["cells"][0]["quarantined"], false);
        assert!(v["service"]["requests_total"].is_u64());
        assert!(
            v["supervisor"].is_null(),
            "unsupervised router reports no supervisor panel"
        );
        let (status, body) = roundtrip(router.local_addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok","cells":1}"#);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn malformed_bodies_are_rejected_at_the_router_without_forwarding() {
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", b"{nope").unwrap();
        assert_eq!(status, 400);
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["reason"], "invalid_request");
        assert_eq!(cell.metrics().snapshot().requests_total, 0);
        assert_eq!(router.cells()[0].forwarded, 0);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn deeply_nested_bodies_are_a_typed_400_and_both_processes_stay_up() {
        // Far past the parser's nesting cap and well under the body cap:
        // without the cap this overflows the decoding thread's stack and
        // aborts the process.
        let mut body = br#"{"problem":"#.to_vec();
        body.resize(body.len() + 100_000, b'[');
        let cell = cell_server();
        let router = router_over(&[&cell]);
        for addr in [cell.local_addr(), router.local_addr()] {
            let (status, reply) = roundtrip(addr, "POST", "/solve", &body).unwrap();
            assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reply));
            let v: serde_json::Value = serde_json::from_slice(&reply).unwrap();
            assert_eq!(v["reason"], "invalid_request");
            let (status, _) = roundtrip(addr, "GET", "/healthz", b"").unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(router.cells()[0].forwarded, 0);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn retry_after_reflects_the_breaker_cooling_interval() {
        // One unreachable cell with a 30 s breaker: the first request
        // opens the breaker, the second is rejected while it is open and
        // must advertise the breaker's remaining cooling time, not "1".
        let dead = {
            // Bind-then-drop: a port that connects to nothing.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let mut config = MqoRouterConfig::new(vec![dead.to_string()]);
        config.breaker.failure_threshold = 1;
        config.breaker.open_ms = 30_000;
        config.upstream_timeout_ms = 200;
        config.failover_rounds = 1;
        let router = MqoRouter::start(config).expect("bind router");

        let (status, _) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
        assert_eq!(status, 503, "dead cell yields backend_unavailable");
        // Second request: the breaker is open, nothing is attempted.
        let mut stream = std::net::TcpStream::connect(router.local_addr()).unwrap();
        stream
            .write_all(&render_request(
                "POST",
                "/solve",
                &router.local_addr().to_string(),
                TINY_A,
                true,
            ))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let parts = read_response(&mut reader, HttpLimits::default().max_body).unwrap();
        assert_eq!(parts.status, 503);
        let retry_after = parts.retry_after.expect("503 carries Retry-After");
        assert!(
            (2..=30).contains(&retry_after),
            "Retry-After tracks the ~30 s breaker interval, got {retry_after}"
        );
        router.shutdown();
    }

    #[test]
    fn a_cells_retry_after_reaches_the_client() {
        // A cell with no queue room answers every solve 429 + Retry-After.
        let mut config = ServerConfig::new(EngineConfig::new(ChimeraGraph::new(2, 2)));
        config.queue = QueueConfig {
            depth: 0,
            ..QueueConfig::default()
        };
        let cell = Server::start(config).expect("bind cell");
        let router = router_over(&[&cell]);
        let mut stream = std::net::TcpStream::connect(router.local_addr()).unwrap();
        stream
            .write_all(&render_request(
                "POST",
                "/solve",
                &router.local_addr().to_string(),
                TINY_A,
                true,
            ))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let parts = read_response(&mut reader, HttpLimits::default().max_body).unwrap();
        assert_eq!(
            parts.status,
            429,
            "{}",
            String::from_utf8_lossy(&parts.body)
        );
        let v: serde_json::Value = serde_json::from_slice(&parts.body).unwrap();
        assert_eq!(v["reason"], "queue_full");
        assert_eq!(parts.retry_after, Some(1), "the cell's hint passes through");
        // The cell answered, so it stays healthy and the 429 is not replayed.
        let cells = router.cells();
        assert_eq!((cells[0].forwarded, cells[0].failures), (1, 0));
        assert_eq!(cell.metrics().snapshot().rejected_queue_full, 1);
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn next_deadline_subtracts_elapsed_and_strictly_decreases() {
        assert_eq!(next_deadline(1_000, 0, None), Some(1_000));
        assert_eq!(next_deadline(1_000, 400, None), Some(600));
        assert_eq!(next_deadline(1_000, 1_000, None), None, "budget spent");
        assert_eq!(next_deadline(1_000, 1_500, None), None, "budget overdrawn");
        // Same-millisecond replays still strictly decrease.
        assert_eq!(next_deadline(1_000, 400, Some(600)), Some(599));
        assert_eq!(next_deadline(1_000, 400, Some(1)), None, "floor reached");
        // The previous cap never lets the deadline grow back.
        assert_eq!(next_deadline(1_000, 0, Some(500)), Some(499));
    }

    #[test]
    fn journal_bounds_outstanding_requests_per_shard() {
        let journal = Arc::new(FailoverJournal::new(2, 2));
        let a = journal.admit(0, 11).expect("first admitted");
        let _b = journal.admit(0, 12).expect("second admitted");
        assert!(journal.admit(0, 13).is_none(), "shard 0 at depth");
        assert!(journal.admit(1, 14).is_some(), "shard 1 unaffected");
        assert_eq!(journal.outstanding(0), 2);
        drop(a);
        assert_eq!(journal.outstanding(0), 1, "guard drop releases the slot");
        assert!(journal.admit(0, 15).is_some(), "slot reusable");
    }

    #[test]
    fn hostile_upstream_responses_are_a_typed_5xx_and_the_router_stays_up() {
        // Whatever listens at a cell address is untrusted. Each reply
        // breaks one response cap; reading it unbounded would allocate a
        // terabyte (aborting the router), buffer an endless header line,
        // or accept any number of headers.
        let long_line = format!("x-pad: {}\r\n", "a".repeat(16 << 10));
        let many_headers = "x-h: 1\r\n".repeat(100);
        let replies = [
            "HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\n".to_string(),
            format!("HTTP/1.1 200 OK\r\n{long_line}content-length: 0\r\n\r\n"),
            format!("HTTP/1.1 200 OK\r\n{many_headers}content-length: 0\r\n\r\n"),
        ];
        for reply in replies {
            // A raw "cell": reads the one forwarded request, answers the
            // hostile reply, closes. One round, one cell: one connection.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let cell = listener.local_addr().unwrap();
            let fake_cell = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let _ = read_request(&mut stream, &HttpLimits::default(), None);
                // The router may hang up mid-reply once a cap trips.
                let _ = stream.write_all(reply.as_bytes());
            });
            let mut config = MqoRouterConfig::new(vec![cell.to_string()]);
            config.upstream_timeout_ms = 2_000;
            config.failover_rounds = 1;
            let router = MqoRouter::start(config).expect("bind router");
            let (status, body) = roundtrip(router.local_addr(), "POST", "/solve", TINY_A).unwrap();
            assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
            let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
            assert_eq!(v["reason"], "backend_unavailable");
            assert!(
                router.cells()[0].failures >= 1,
                "counted as a transport failure"
            );
            let (status, _) = roundtrip(router.local_addr(), "GET", "/healthz", b"").unwrap();
            assert_eq!(status, 200);
            router.shutdown();
            fake_cell.join().expect("fake cell");
        }
    }

    #[test]
    fn answers_larger_than_the_request_cap_pass_through_the_router() {
        // A request just under the 1 MiB body cap of ~175k one-plan
        // queries (`[1.0]`, the form the router re-serialises them in):
        // its answer lists one plan id per query, ~1.1 MB. The router
        // must pass it through like any other answer, not count it as a
        // cell failure.
        let max_body = HttpLimits::default().max_body;
        let queries = (max_body - 256) / 6;
        let body = format!(
            r#"{{"problem": {{"queries": [{}], "savings": []}}, "seed": 5}}"#,
            vec!["[1.0]"; queries].join(",")
        )
        .into_bytes();
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let (status, via_router) = roundtrip(router.local_addr(), "POST", "/solve", &body).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&via_router));
        assert!(via_router.len() > max_body, "{} bytes", via_router.len());
        let (status, direct) = roundtrip(cell.local_addr(), "POST", "/solve", &body).unwrap();
        assert_eq!(status, 200);
        // Identical apart from the timing fields `wall_us`, `queue_wait_us`.
        let r: serde_json::Value = serde_json::from_slice(&via_router).unwrap();
        let d: serde_json::Value = serde_json::from_slice(&direct).unwrap();
        assert!(matches!(&r["selection"], serde_json::Value::Array(ids) if ids.len() == queries));
        for field in [
            "selection",
            "cost",
            "backend",
            "route_reason",
            "cache_hit",
            "reads",
            "qubits_used",
            "device_time_us",
            "packed_tenants",
        ] {
            assert_eq!(r[field], d[field], "{field}");
        }
        let cells = router.cells();
        assert_eq!((cells[0].forwarded, cells[0].failures), (1, 0));
        router.shutdown();
        cell.shutdown();
    }

    #[test]
    fn oversized_bodies_are_keyed_without_building_the_qubo() {
        // One query of 8 000 plans: ~32 M one-hot edges, far past any
        // chip. Building the logical QUBO for it takes seconds and
        // gigabytes; the router must still answer it fast and unchanged.
        let plans = vec!["1"; 8_000].join(",");
        let body =
            format!(r#"{{"problem": {{"queries": [[{plans}]], "savings": []}}, "seed": 3}}"#)
                .into_bytes();
        let cell = cell_server();
        let router = router_over(&[&cell]);
        let started = Instant::now();
        let (status, via_router) = roundtrip(router.local_addr(), "POST", "/solve", &body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&via_router));
        assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
        let (status, direct) = roundtrip(cell.local_addr(), "POST", "/solve", &body).unwrap();
        assert_eq!(status, 200);
        // Identical apart from the timing fields `wall_us`, `queue_wait_us`.
        let r: serde_json::Value = serde_json::from_slice(&via_router).unwrap();
        let d: serde_json::Value = serde_json::from_slice(&direct).unwrap();
        assert_eq!(r["selection"], serde_json::json!([0]));
        for field in [
            "selection",
            "cost",
            "backend",
            "route_reason",
            "cache_hit",
            "reads",
            "qubits_used",
            "device_time_us",
            "packed_tenants",
        ] {
            assert_eq!(r[field], d[field], "{field}");
        }
        for addr in [cell.local_addr(), router.local_addr()] {
            let (status, _) = roundtrip(addr, "GET", "/healthz", b"").unwrap();
            assert_eq!(status, 200);
        }
        router.shutdown();
        cell.shutdown();
    }
}
