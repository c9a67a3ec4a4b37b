//! Std-only poll(2)-driven HTTP front-end (DESIGN.md §13).
//!
//! Replaces the thread-per-connection accept loop: `SHARDS` *accept shards* each
//! run a nonblocking event loop over a cloned listener, a wakeup pipe, and
//! their connections. Every connection is a small state machine — buffered
//! partial reads feed the incremental parser ([`crate::http::parse_request`]),
//! parsed requests dispatch to a [`Handler`], and responses flush through a
//! buffered writer, strictly in request order (HTTP/1.1 keep-alive with
//! per-connection pipelining).
//!
//! All of the thread-per-connection hardening carries over, readiness-driven
//! instead of blocking:
//!
//! * **wall-clock request deadlines** — a partial request arms a deadline;
//!   `poll` timeouts enforce it with a typed `408` (slowloris defense);
//! * **byte/count caps** — the incremental parser rejects oversized lines,
//!   header floods, and oversized bodies on *partial* data, so buffering per
//!   connection is bounded;
//! * **connection cap** — accepts beyond [`LoopConfig::max_connections`] are
//!   shed with a typed `503` + `Retry-After` written through the same
//!   nonblocking writer (no helper thread, no blocking round-trip);
//! * **graceful drain** — on shutdown the shards stop accepting, parse the
//!   requests already buffered, answer everything in flight, and mark the
//!   final response on each connection `connection: close`;
//! * **panic isolation** — a panicking handler answers a typed `500` and
//!   closes that connection; the shard keeps running.
//!
//! Workers answer asynchronously through a [`Completer`]: the response is
//! posted to the owning shard's completion channel and the shard's `poll`
//! is woken through a pipe byte ([`Waker`]), so solve threads never touch
//! client sockets.

use crate::api::Reject;
use crate::http::{parse_request, render_response, HttpError, HttpLimits, Request};
use crate::metrics::{Metrics, MAX_TRACKED_SHARDS};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// poll(2) via FFI — std exposes no readiness API, and the build is offline
// (no libc crate). Linux ABI: nfds_t is unsigned long, events are i16.

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLNVAL: i16 = 0x020;
/// Error/hangup conditions are delivered in `revents` regardless of the
/// requested events; treating them as readable lets the normal read path
/// observe the EOF/error.
const POLL_READ_EVENTS: i16 = POLLIN | 0x008 | 0x010; // POLLIN | POLLERR | POLLHUP

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: std::os::raw::c_int) -> i32;
}

/// Blocks until a descriptor is ready or `timeout` passes, retrying EINTR.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    loop {
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

// ---------------------------------------------------------------------------
// Handler surface.

/// A response a [`Handler`] produces.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// Extra response headers (pre-sanitised names/values only).
    pub headers: Vec<(&'static str, String)>,
    /// Force `connection: close` after this response even if the client
    /// asked for keep-alive (the `/shutdown` acknowledgement does this).
    pub close: bool,
}

impl Response {
    /// A JSON response with no extra headers.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            headers: Vec::new(),
            close: false,
        }
    }

    /// Adds a response header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Marks the connection to close after this response.
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// A typed rejection body with the rejection's status.
    #[must_use]
    pub fn reject(reject: &Reject) -> Response {
        Response::json(reject.http_status(), reject.body_json())
    }
}

/// What a [`Handler`] did with a request.
pub enum Action {
    /// Answered synchronously.
    Respond(Response),
    /// The answer will arrive later through the [`Completer`] the handler
    /// was given (it must eventually be completed or dropped — a dropped
    /// completion simply never flushes and the connection times out).
    Pending,
}

/// Dispatches parsed requests. Implementations must be cheap and
/// non-blocking on the calling (shard) thread: anything slow goes through
/// an admission queue and answers via the [`Completer`].
pub trait Handler: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, request: Request, completer: Completer) -> Action;
}

/// Wakes a shard's `poll` by writing one byte into its wakeup pipe.
/// Nonblocking: a full pipe already guarantees a pending wakeup.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Wakes the owning shard.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// One-shot handle delivering an asynchronous response back to the shard
/// that owns the connection. Send-able into worker threads; completing
/// posts the response and wakes the shard's `poll`.
#[derive(Debug)]
pub struct Completer {
    token: u64,
    tx: mpsc::Sender<(u64, Response)>,
    waker: Waker,
}

impl Completer {
    /// Delivers the response for the request this completer was issued for.
    pub fn complete(self, response: Response) {
        let _ = self.tx.send((self.token, response));
        self.waker.wake();
    }
}

// ---------------------------------------------------------------------------
// Configuration and the public front-end handle.

/// Accept shards (event-loop threads); each polls its own clone of the
/// listener.
const SHARDS: usize = 2;
/// Keep-alive idle timeout and write-stall timeout, milliseconds: idle
/// connections close silently, stalled writers are dropped.
const IDLE_TIMEOUT_MS: u64 = 10_000;
/// Maximum requests queued per connection (parsed but not yet answered);
/// beyond it the shard stops reading from that connection until responses
/// drain (pipelining backpressure).
const MAX_PIPELINE: usize = 32;

/// Event-loop front-end knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Byte/count caps applied by the incremental parser.
    pub http: HttpLimits,
    /// Wall-clock budget for reading one request, milliseconds (0 disables);
    /// expiry answers a typed `408` and closes.
    pub request_deadline_ms: u64,
    /// Connection cap across all shards; accepts beyond it are shed with a
    /// typed `503` + `Retry-After`.
    pub max_connections: usize,
}

impl Default for LoopConfig {
    /// The serving defaults both fronts (`mqo_serve`, `mqo_router`) run with.
    fn default() -> Self {
        LoopConfig {
            http: HttpLimits::default(),
            request_deadline_ms: 10_000,
            max_connections: 256,
        }
    }
}

/// A running event-loop front-end: one thread per accept shard.
#[derive(Debug)]
pub struct EventLoop {
    wakers: Vec<Waker>,
    handles: Vec<JoinHandle<()>>,
}

impl EventLoop {
    /// Spawns `SHARDS` event-loop threads over clones of `listener`.
    /// The shards watch `shutdown`; flip it and [`EventLoop::wake`] to start
    /// a graceful drain.
    pub fn spawn(
        listener: TcpListener,
        config: LoopConfig,
        handler: Arc<dyn Handler>,
        metrics: Arc<Metrics>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let mut wakers = Vec::with_capacity(SHARDS);
        let mut handles = Vec::with_capacity(SHARDS);
        for shard_id in 0..SHARDS {
            let listener = listener.try_clone()?;
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            let waker = Waker {
                tx: Arc::new(wake_tx),
            };
            wakers.push(waker.clone());
            let (completion_tx, completions) = mpsc::channel();
            let mut shard = Shard {
                id: shard_id,
                listener,
                wake_rx,
                completions,
                completion_tx,
                waker,
                handler: Arc::clone(&handler),
                metrics: Arc::clone(&metrics),
                shutdown: Arc::clone(&shutdown),
                config,
                read_cap: config.http.max_body
                    + config.http.max_line_bytes * (config.http.max_header_count + 2),
                conns: HashMap::new(),
                tokens: HashMap::new(),
                next_conn: 0,
                next_token: 0,
                draining: false,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mqo-loop-{shard_id}"))
                    .spawn(move || shard.run())?,
            );
        }
        Ok(EventLoop { wakers, handles })
    }

    /// Wakes every shard's `poll` (call after flipping the shutdown flag).
    pub fn wake(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// Joins every shard thread; returns once all connections have drained.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection state machine.

/// A queued exchange on one connection, in request order.
enum Slot {
    /// Dispatched to the handler; the response will arrive by token.
    Waiting { token: u64, close: bool },
    /// Response ready to flush (responses only flush from the front, so
    /// pipelined responses keep request order).
    Ready { response: Response, close: bool },
}

struct Conn {
    stream: TcpStream,
    /// Unparsed input bytes (grows only while under the read cap).
    buf: Vec<u8>,
    /// In-flight exchanges, request order.
    pending: VecDeque<Slot>,
    /// Rendered output being written.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests parsed on this connection.
    requests: u64,
    /// Armed while a partial request sits in `buf`; expiry answers 408.
    read_deadline: Option<Instant>,
    /// Last I/O or parse progress (idle/stall timeouts key off this).
    idle_since: Instant,
    /// No more reads: peer EOF, a close-requesting or malformed request,
    /// or drain.
    read_closed: bool,
    /// Drain: close once everything pending has flushed.
    close_after_flush: bool,
    /// A `connection: close` response has been rendered; close once the
    /// output buffer empties.
    closing: bool,
    /// Counted in the `connections_active` gauge (shed connections are not).
    counted: bool,
}

impl Conn {
    fn new(stream: TcpStream, counted: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            requests: 0,
            read_deadline: None,
            idle_since: Instant::now(),
            read_closed: false,
            close_after_flush: false,
            closing: false,
            counted,
        }
    }

    fn wants_read(&self, read_cap: usize) -> bool {
        !self.read_closed && self.pending.len() < MAX_PIPELINE && self.buf.len() < read_cap
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len() || matches!(self.pending.front(), Some(Slot::Ready { .. }))
    }
}

// ---------------------------------------------------------------------------
// The shard loop.

struct Shard {
    id: usize,
    listener: TcpListener,
    wake_rx: UnixStream,
    completions: mpsc::Receiver<(u64, Response)>,
    completion_tx: mpsc::Sender<(u64, Response)>,
    waker: Waker,
    handler: Arc<dyn Handler>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    config: LoopConfig,
    /// Per-connection input-buffer cap: a full head plus a full body.
    read_cap: usize,
    conns: HashMap<u64, Conn>,
    /// token → connection id, for routing completions.
    tokens: HashMap<u64, u64>,
    next_conn: u64,
    next_token: u64,
    draining: bool,
}

impl Shard {
    fn run(&mut self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return;
            }
            let now = Instant::now();
            let timeout = self.poll_timeout(now);
            let (mut fds, listener_idx, first_conn, conn_ids) = self.build_poll_set();
            if poll_fds(&mut fds, timeout).is_err() {
                // EINVAL/ENOMEM would spin; back off and retry.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Metrics::inc(&self.metrics.event_loop_wakeups);
            if fds[0].revents != 0 {
                self.drain_wake_bytes();
            }
            if let Some(idx) = listener_idx {
                if fds[idx].revents != 0 {
                    self.accept_ready();
                }
            }
            for (i, id) in conn_ids.iter().enumerate() {
                let revents = fds[first_conn + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & POLLNVAL != 0 {
                    if let Some(conn) = self.conns.remove(id) {
                        self.finalize(conn);
                    }
                    continue;
                }
                self.pump(*id, revents & POLL_READ_EVENTS != 0);
            }
            self.apply_completions();
            // Catch a /shutdown dispatched this iteration before flushing,
            // so its acknowledgement and every in-flight response goes out
            // with the drain's `connection: close` semantics.
            if self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            self.enforce_deadlines();
        }
    }

    fn build_poll_set(&self) -> (Vec<PollFd>, Option<usize>, usize, Vec<u64>) {
        let mut fds = vec![PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let listener_idx = if self.draining {
            None
        } else {
            fds.push(PollFd {
                fd: self.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            Some(fds.len() - 1)
        };
        let first_conn = fds.len();
        let mut conn_ids = Vec::with_capacity(self.conns.len());
        for (&id, conn) in &self.conns {
            let mut events = 0i16;
            if conn.wants_read(self.read_cap) {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            // No interest (e.g. waiting on the engine): leave the fd out of
            // the poll set entirely — POLLHUP is reported regardless of the
            // mask and would busy-spin the loop.
            if events != 0 {
                conn_ids.push(id);
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
        }
        (fds, listener_idx, first_conn, conn_ids)
    }

    fn poll_timeout(&self, now: Instant) -> Duration {
        // The base tick bounds how stale another shard's shutdown flag can
        // go unnoticed; wakeup bytes cover everything latency-critical.
        let mut timeout = Duration::from_millis(if self.draining { 10 } else { 100 });
        for conn in self.conns.values() {
            if let Some(deadline) = conn.read_deadline {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
            let stalled_write = conn.out_pos < conn.out.len();
            let pure_idle = !conn.read_closed
                && conn.pending.is_empty()
                && conn.out.is_empty()
                && conn.buf.is_empty();
            if stalled_write || pure_idle {
                let expiry = conn.idle_since + Duration::from_millis(IDLE_TIMEOUT_MS);
                timeout = timeout.min(expiry.saturating_duration_since(now));
            }
        }
        timeout
    }

    fn drain_wake_bytes(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // drop: the listener race lost to drain
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let max = self.config.max_connections.max(1) as u64;
                    // fetch_add admission keeps the cap race-free across
                    // shards: whoever pushes the gauge past the cap backs
                    // out and sheds.
                    let prev = self
                        .metrics
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    if prev >= max {
                        self.metrics
                            .connections_active
                            .fetch_sub(1, Ordering::Relaxed);
                        Metrics::inc(&self.metrics.connections_shed);
                        let body = Reject::Overloaded {
                            max_connections: self.config.max_connections,
                        }
                        .body_json();
                        let mut conn = Conn::new(stream, false);
                        conn.out = render_response(503, &body, &[("retry-after", "1")], true);
                        conn.read_closed = true;
                        conn.closing = true;
                        let id = self.next_conn;
                        self.next_conn += 1;
                        self.conns.insert(id, conn);
                        self.pump(id, false);
                    } else {
                        Metrics::inc(&self.metrics.connections_accepted);
                        Metrics::inc(&self.metrics.shard_accepts[self.id % MAX_TRACKED_SHARDS]);
                        let id = self.next_conn;
                        self.next_conn += 1;
                        self.conns.insert(id, Conn::new(stream, true));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (EMFILE, aborted handshake):
                // leave the backlog for the next tick.
                Err(_) => return,
            }
        }
    }

    /// Runs one connection's state machine: optional read, then
    /// parse→dispatch→flush until quiescent, then reinsert or finalize.
    fn pump(&mut self, id: u64, readable: bool) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        if readable && !conn.read_closed && self.do_read(&mut conn).is_err() {
            self.finalize(conn);
            return;
        }
        self.pump_taken(id, conn);
    }

    fn pump_taken(&mut self, id: u64, mut conn: Conn) {
        loop {
            let before = (
                conn.buf.len(),
                conn.pending.len(),
                conn.out.len(),
                conn.out_pos,
                conn.requests,
            );
            self.parse_and_dispatch(id, &mut conn);
            if self.flush(&mut conn).is_err() {
                self.finalize(conn);
                return;
            }
            let after = (
                conn.buf.len(),
                conn.pending.len(),
                conn.out.len(),
                conn.out_pos,
                conn.requests,
            );
            if after == before {
                break;
            }
        }
        let flushed = conn.out_pos >= conn.out.len();
        let done = flushed
            && (conn.closing
                || (conn.read_closed && conn.pending.is_empty() && conn.buf.is_empty()));
        if done {
            self.finalize(conn);
        } else {
            self.conns.insert(id, conn);
        }
    }

    fn do_read(&self, conn: &mut Conn) -> Result<(), ()> {
        let mut chunk = [0u8; 4096];
        while conn.buf.len() < self.read_cap {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.idle_since = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Hard socket error: nothing can be answered.
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    fn parse_and_dispatch(&mut self, id: u64, conn: &mut Conn) {
        loop {
            if conn.pending.len() >= MAX_PIPELINE {
                return; // backpressure: stop parsing until responses drain
            }
            if conn.buf.is_empty() {
                conn.read_deadline = None;
                return;
            }
            match parse_request(&conn.buf, &self.config.http) {
                Ok(None) => {
                    if conn.read_closed {
                        // Peer half-closed mid-request: the blocking reader
                        // answered this "closed mid-headers" case with 400.
                        let reject = Reject::InvalidRequest {
                            detail: "connection closed mid-request".to_string(),
                        };
                        conn.pending.push_back(Slot::Ready {
                            response: Response::reject(&reject),
                            close: true,
                        });
                        conn.buf.clear();
                        conn.read_deadline = None;
                    } else if conn.read_deadline.is_none() && self.config.request_deadline_ms > 0 {
                        conn.read_deadline = Some(
                            Instant::now() + Duration::from_millis(self.config.request_deadline_ms),
                        );
                    }
                    return;
                }
                Ok(Some(parsed)) => {
                    conn.buf.drain(..parsed.consumed);
                    conn.read_deadline = None;
                    conn.idle_since = Instant::now();
                    conn.requests += 1;
                    if conn.requests >= 2 {
                        Metrics::inc(&self.metrics.connections_reused);
                    }
                    if !conn.pending.is_empty() {
                        Metrics::inc(&self.metrics.pipelined_requests);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let completer = Completer {
                        token,
                        tx: self.completion_tx.clone(),
                        waker: self.waker.clone(),
                    };
                    let handler = Arc::clone(&self.handler);
                    let request = parsed.request;
                    match catch_unwind(AssertUnwindSafe(move || handler.handle(request, completer)))
                    {
                        Ok(Action::Respond(response)) => {
                            conn.pending.push_back(Slot::Ready {
                                response,
                                close: parsed.close,
                            });
                        }
                        Ok(Action::Pending) => {
                            self.tokens.insert(token, id);
                            conn.pending.push_back(Slot::Waiting {
                                token,
                                close: parsed.close,
                            });
                        }
                        Err(_) => {
                            Metrics::inc(&self.metrics.conn_panics_caught);
                            let reject = Reject::InternalError {
                                detail: "handler panicked".to_string(),
                            };
                            conn.pending.push_back(Slot::Ready {
                                response: Response::reject(&reject),
                                close: true,
                            });
                            conn.read_closed = true;
                            conn.buf.clear();
                            return;
                        }
                    }
                    if parsed.close {
                        conn.read_closed = true;
                        conn.buf.clear();
                        return;
                    }
                }
                Err(e) => {
                    // Typed error, then close — mid-pipeline malformed
                    // requests still answer, after the responses queued
                    // ahead of them flush in order.
                    let reject = match &e {
                        HttpError::Timeout => {
                            Metrics::inc(&self.metrics.rejected_request_timeout);
                            Reject::RequestTimeout {
                                deadline_ms: self.config.request_deadline_ms,
                            }
                        }
                        HttpError::LineTooLong { .. } | HttpError::TooManyHeaders { .. } => {
                            Metrics::inc(&self.metrics.rejected_header_limit);
                            Reject::HeaderLimit {
                                detail: e.to_string(),
                            }
                        }
                        HttpError::NotImplemented(_) => Reject::NotImplemented {
                            detail: e.to_string(),
                        },
                        _ => Reject::InvalidRequest {
                            detail: e.to_string(),
                        },
                    };
                    conn.pending.push_back(Slot::Ready {
                        response: Response::json(e.http_status(), reject.body_json()),
                        close: true,
                    });
                    conn.read_closed = true;
                    conn.buf.clear();
                    conn.read_deadline = None;
                    return;
                }
            }
        }
    }

    /// Writes buffered output and renders front-of-queue ready responses
    /// until the socket would block or an ordered response is still pending.
    fn flush(&mut self, conn: &mut Conn) -> Result<(), ()> {
        loop {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.idle_since = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Err(()),
                }
            }
            conn.out.clear();
            conn.out_pos = 0;
            if conn.closing {
                return Ok(());
            }
            match conn.pending.front() {
                Some(Slot::Ready { .. }) => {
                    let Some(Slot::Ready { response, close }) = conn.pending.pop_front() else {
                        unreachable!("front checked Ready");
                    };
                    let is_final = conn.pending.is_empty();
                    let conn_closes = conn.close_after_flush || conn.read_closed;
                    let close_header = close || response.close || (conn_closes && is_final);
                    let headers: Vec<(&str, &str)> = response
                        .headers
                        .iter()
                        .map(|(name, value)| (*name, value.as_str()))
                        .collect();
                    conn.out =
                        render_response(response.status, &response.body, &headers, close_header);
                    conn.out_pos = 0;
                    conn.idle_since = Instant::now();
                    if close_header {
                        conn.closing = true;
                        conn.read_closed = true;
                    }
                }
                // Front response still being computed (ordering) or nothing
                // pending: wait.
                _ => return Ok(()),
            }
        }
    }

    fn apply_completions(&mut self) {
        let mut touched = Vec::new();
        while let Ok((token, response)) = self.completions.try_recv() {
            let Some(conn_id) = self.tokens.remove(&token) else {
                continue; // connection died first; drop the answer
            };
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                continue;
            };
            let found = conn
                .pending
                .iter()
                .position(|slot| matches!(slot, Slot::Waiting { token: t, .. } if *t == token));
            if let Some(idx) = found {
                let close = match conn.pending[idx] {
                    Slot::Waiting { close, .. } => close,
                    Slot::Ready { .. } => unreachable!("position matched Waiting"),
                };
                conn.pending[idx] = Slot::Ready { response, close };
                touched.push(conn_id);
            }
        }
        for id in touched {
            self.pump(id, false);
        }
    }

    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get(&id) else {
                continue;
            };
            if conn.read_deadline.is_some_and(|deadline| now >= deadline) {
                let mut conn = self.conns.remove(&id).expect("conn key just seen");
                Metrics::inc(&self.metrics.rejected_request_timeout);
                let reject = Reject::RequestTimeout {
                    deadline_ms: self.config.request_deadline_ms,
                };
                conn.pending.push_back(Slot::Ready {
                    response: Response::reject(&reject),
                    close: true,
                });
                conn.read_closed = true;
                conn.read_deadline = None;
                conn.buf.clear();
                self.pump_taken(id, conn);
                continue;
            }
            if now.duration_since(conn.idle_since) >= Duration::from_millis(IDLE_TIMEOUT_MS) {
                let stalled_write = conn.out_pos < conn.out.len();
                let pure_idle = !conn.read_closed
                    && conn.pending.is_empty()
                    && conn.out.is_empty()
                    && conn.buf.is_empty();
                if stalled_write || pure_idle {
                    // Keep-alive idle gap over, or a client that will not
                    // read its response: close silently.
                    let conn = self.conns.remove(&id).expect("conn key just seen");
                    self.finalize(conn);
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            // Answer what is already buffered as complete requests, then
            // stop reading; the final response flushes `connection: close`.
            self.parse_and_dispatch(id, &mut conn);
            conn.read_closed = true;
            conn.close_after_flush = true;
            conn.buf.clear();
            conn.read_deadline = None;
            self.pump_taken(id, conn);
        }
    }

    fn finalize(&mut self, conn: Conn) {
        if conn.counted {
            self.metrics.requests_per_connection.record(conn.requests);
            self.metrics
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
        }
        for slot in &conn.pending {
            if let Slot::Waiting { token, .. } = slot {
                self.tokens.remove(token);
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{pipeline, roundtrip};

    /// Echo-ish test handler: immediate answers for `/now`, deferred
    /// answers (completed from a helper thread) for `/later`, panic for
    /// `/boom`.
    struct TestHandler;

    impl Handler for TestHandler {
        fn handle(&self, request: Request, completer: Completer) -> Action {
            match request.path.as_str() {
                "/later" => {
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(5));
                        completer.complete(Response::json(200, r#"{"when":"later"}"#));
                    });
                    Action::Pending
                }
                "/boom" => panic!("handler exploded"),
                _ => Action::Respond(Response::json(
                    200,
                    format!(r#"{{"path":"{}"}}"#, request.path),
                )),
            }
        }
    }

    fn start_loop(
        config_mut: impl FnOnce(&mut LoopConfig),
    ) -> (
        EventLoop,
        std::net::SocketAddr,
        Arc<Metrics>,
        Arc<AtomicBool>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut config = LoopConfig {
            http: HttpLimits::default(),
            request_deadline_ms: 10_000,
            max_connections: 64,
        };
        config_mut(&mut config);
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let event_loop = EventLoop::spawn(
            listener,
            config,
            Arc::new(TestHandler),
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        )
        .unwrap();
        (event_loop, addr, metrics, shutdown)
    }

    fn stop(event_loop: EventLoop, shutdown: &AtomicBool) {
        shutdown.store(true, Ordering::SeqCst);
        event_loop.wake();
        event_loop.join();
    }

    #[test]
    fn immediate_and_deferred_responses_round_trip() {
        let (event_loop, addr, _metrics, shutdown) = start_loop(|_| {});
        let (status, body) = roundtrip(addr, "GET", "/now", b"").unwrap();
        assert_eq!(
            (status, body.as_slice()),
            (200, br#"{"path":"/now"}"#.as_slice())
        );
        let (status, body) = roundtrip(addr, "GET", "/later", b"").unwrap();
        assert_eq!(
            (status, body.as_slice()),
            (200, br#"{"when":"later"}"#.as_slice())
        );
        stop(event_loop, &shutdown);
    }

    #[test]
    fn keep_alive_pipelining_keeps_request_order() {
        let (event_loop, addr, metrics, shutdown) = start_loop(|_| {});
        // Mixed immediate/deferred pipelined batch on one connection:
        // responses must come back in request order regardless of
        // completion order.
        let responses = pipeline(
            addr,
            &[
                ("GET", "/later", b"".as_slice()),
                ("GET", "/a", b"".as_slice()),
                ("GET", "/later", b"".as_slice()),
                ("GET", "/b", b"".as_slice()),
            ],
        )
        .unwrap();
        let bodies: Vec<&str> = responses
            .iter()
            .map(|parts| {
                assert_eq!(parts.status, 200);
                std::str::from_utf8(&parts.body).unwrap()
            })
            .collect();
        assert_eq!(
            bodies,
            vec![
                r#"{"when":"later"}"#,
                r#"{"path":"/a"}"#,
                r#"{"when":"later"}"#,
                r#"{"path":"/b"}"#,
            ]
        );
        let snapshot = metrics.snapshot();
        assert!(snapshot.pipelined_requests >= 1, "batch pipelined");
        assert!(snapshot.connections_reused >= 3);
        stop(event_loop, &shutdown);
    }

    #[test]
    fn handler_panics_answer_500_and_close() {
        let (event_loop, addr, metrics, shutdown) = start_loop(|_| {});
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (status, body) = roundtrip(addr, "GET", "/boom", b"").unwrap();
        std::panic::set_hook(prev_hook);
        assert_eq!(status, 500, "{}", String::from_utf8_lossy(&body));
        assert_eq!(metrics.snapshot().conn_panics_caught, 1);
        // The loop survives: the next request answers normally.
        let (status, _) = roundtrip(addr, "GET", "/still-up", b"").unwrap();
        assert_eq!(status, 200);
        stop(event_loop, &shutdown);
    }

    #[test]
    fn drain_answers_in_flight_requests_with_connection_close() {
        let (event_loop, addr, _metrics, shutdown) = start_loop(|_| {});
        // Park a deferred request, then trigger drain before it completes.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&crate::http::render_request(
                "GET", "/later", "t", b"", false,
            ))
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        shutdown.store(true, Ordering::SeqCst);
        event_loop.wake();
        let mut reader = std::io::BufReader::new(&stream);
        let parts = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(parts.status, 200);
        assert!(
            parts.close,
            "final in-flight response announces connection: close"
        );
        event_loop.join();
    }

    #[test]
    fn byte_at_a_time_requests_complete_and_slowloris_gets_408() {
        let (event_loop, addr, metrics, shutdown) =
            start_loop(|config| config.request_deadline_ms = 150);
        // A slow-but-finite client completes normally.
        let mut stream = TcpStream::connect(addr).unwrap();
        for byte in b"GET /drip HTTP/1.1\r\n\r\n" {
            stream.write_all(&[*byte]).unwrap();
        }
        let mut reader = std::io::BufReader::new(&stream);
        let parts = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(parts.status, 200);
        drop(reader);
        drop(stream);
        // A stalling client is cut off with a typed 408 at the deadline.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /stall HT").unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let parts = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(parts.status, 408);
        assert_eq!(metrics.snapshot().rejected_request_timeout, 1);
        drop(reader);
        drop(stream);
        // A client that dies mid-request releases its connection at EOF,
        // not at the deadline, and the next request is served.
        let active_reaches = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(2);
            while metrics.connections_active.load(Ordering::Relaxed) != n {
                assert!(
                    Instant::now() < deadline,
                    "connections_active never reached {n}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        active_reaches(0);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /half HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"par")
            .unwrap();
        active_reaches(1);
        drop(stream);
        active_reaches(0);
        assert_eq!(metrics.snapshot().rejected_request_timeout, 1);
        let (status, _) = roundtrip(addr, "GET", "/after-abort", b"").unwrap();
        assert_eq!(status, 200);
        stop(event_loop, &shutdown);
    }

    #[test]
    fn mid_pipeline_malformed_requests_answer_typed_errors_then_close() {
        let (event_loop, addr, _metrics, shutdown) = start_loop(|_| {});
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        wire.extend_from_slice(&crate::http::render_request("GET", "/ok", "t", b"", false));
        wire.extend_from_slice(b"GET /bad HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
        stream.write_all(&wire).unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let first = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(first.status, 200, "valid leading request still answers");
        let second = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(second.status, 400, "malformed follow-up answers typed 400");
        assert!(second.close, "malformed request closes the connection");
        stop(event_loop, &shutdown);
    }

    #[test]
    fn ambiguous_framing_gets_exactly_one_typed_answer_then_close() {
        let (event_loop, addr, _metrics, shutdown) = start_loop(|_| {});
        // Each body, read as a second request, would be a valid `GET`:
        // only one answer may come back, and then the connection closes.
        let smuggled = "GET /smuggled HTTP/1.1\r\n\r\n";
        let cases = [
            (
                format!(
                    "POST /a HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
                    smuggled.len()
                ),
                501,
                "not_implemented",
            ),
            (
                format!(
                    "POST /a HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: {}\r\n\r\n{smuggled}",
                    smuggled.len()
                ),
                400,
                "invalid_request",
            ),
        ];
        for (wire, status, reason) in cases {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(wire.as_bytes()).unwrap();
            let mut reader = std::io::BufReader::new(&stream);
            let parts =
                crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
            assert_eq!(parts.status, status, "{wire:?}");
            let v: serde_json::Value = serde_json::from_slice(&parts.body).unwrap();
            assert_eq!(v["reason"], reason);
            assert!(parts.close, "the typed answer announces connection: close");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "a second answer followed: {rest:?}");
        }
        stop(event_loop, &shutdown);
    }

    #[test]
    fn connections_beyond_the_cap_are_shed_with_retry_after() {
        let (event_loop, addr, metrics, shutdown) = start_loop(|config| {
            config.max_connections = 1;
        });
        let mut holder = TcpStream::connect(addr).unwrap();
        holder.write_all(b"GET /hold HT").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics.connections_active.load(Ordering::Relaxed) < 1 {
            assert!(Instant::now() < deadline, "holder never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let shed = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(&shed);
        let parts = crate::http::read_response(&mut reader, crate::http::MAX_ANSWER_BODY).unwrap();
        assert_eq!(parts.status, 503);
        assert_eq!(metrics.snapshot().connections_shed, 1);
        drop(reader);
        drop(holder);
        stop(event_loop, &shutdown);
    }
}
