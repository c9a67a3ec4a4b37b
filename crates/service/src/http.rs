//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for a
//! JSON API (request line, headers, `Content-Length` bodies). No external
//! dependencies: the build environment is offline.
//!
//! Two parsing surfaces share the same limits and typed errors:
//!
//! * [`read_request`] — the original blocking reader over any
//!   [`RequestSource`], one request per call;
//! * [`parse_request`] — an incremental parser over a connection buffer for
//!   the nonblocking event loop (DESIGN.md §13): `Ok(None)` means "need
//!   more bytes", and every cap (line bytes, header count, body size) is
//!   enforced even on partial data, so a connection can never make the
//!   server buffer without bound while waiting for the rest of a request.
//!
//! Hardening (DESIGN.md §9): every read is bounded three ways —
//!
//! * **bytes** — the request line and each header line have byte caps, the
//!   header count is capped, and `Content-Length` is capped, so a hostile
//!   client can never make the server buffer without bound;
//! * **time** — an optional whole-request deadline ([`HttpLimits::deadline`])
//!   re-arms the socket read timeout before every line, so a slowloris
//!   client trickling one byte per second is cut off with a typed 408;
//! * **totality** — [`read_request`] is generic over any [`RequestSource`]
//!   (a live socket or an in-memory byte slice), and the property tests
//!   feed it arbitrary byte streams: it must always return `Ok` or a typed
//!   [`HttpError`], never panic.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Byte, count, and time bounds applied while reading one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Cap on the declared `Content-Length`, bytes.
    pub max_body: usize,
    /// Cap on the request line and on each header line, bytes (including
    /// the terminating `\r\n`).
    pub max_line_bytes: usize,
    /// Cap on the number of header lines.
    pub max_header_count: usize,
    /// Whole-request wall-clock deadline; reads past it fail with
    /// [`HttpError::Timeout`]. `None` disables the deadline (in-memory
    /// parsing, tests).
    pub deadline: Option<Instant>,
}

/// Default cap on a request body, bytes.
const DEFAULT_MAX_BODY: usize = 1 << 20;

/// Cap on a `/solve` answer body read from a cell: covers the largest
/// answer to a request within [`HttpLimits::default`]. Such a request
/// holds at most `max_body / 4` queries (`[0],` each) and `max_body / 2`
/// plans, so its `selection` is at most `7 / 4 × max_body` bytes
/// (plan ids of up to six digits, plus commas); every other field is
/// a few hundred bytes.
pub const MAX_ANSWER_BODY: usize = 4 * DEFAULT_MAX_BODY;

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_body: DEFAULT_MAX_BODY,
            max_line_bytes: 8 << 10,
            max_header_count: 64,
            deadline: None,
        }
    }
}

/// Errors while reading a request; each maps to a status via
/// [`HttpError::http_status`].
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers (400).
    BadRequest(&'static str),
    /// Body larger than the configured cap (413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The whole-request deadline expired mid-read (408).
    Timeout,
    /// A request or header line exceeded the byte cap (431).
    LineTooLong {
        /// Configured cap, bytes.
        limit: usize,
    },
    /// More header lines than the configured cap (431).
    TooManyHeaders {
        /// Configured cap.
        limit: usize,
    },
    /// Socket-level failure (no response is possible).
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        // Armed read timeouts surface as WouldBlock or TimedOut depending
        // on the platform; both mean the deadline struck.
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

impl HttpError {
    /// The HTTP status this error is answered with.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::Timeout => 408,
            HttpError::LineTooLong { .. } | HttpError::TooManyHeaders { .. } => 431,
            HttpError::Io(_) => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(d) => write!(f, "bad request: {d}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte cap")
            }
            HttpError::Timeout => write!(f, "request deadline expired mid-read"),
            HttpError::LineTooLong { limit } => {
                write!(f, "request/header line exceeds the {limit}-byte cap")
            }
            HttpError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header lines")
            }
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Anything a request can be read from: a live socket (which can arm
/// per-read timeouts toward the deadline) or an in-memory byte slice (the
/// property tests' fuzzing surface, where arming is a no-op).
pub trait RequestSource: Read {
    /// Arms an I/O timeout of `remaining` for the next read.
    fn arm_timeout(&mut self, remaining: Duration) -> io::Result<()> {
        let _ = remaining;
        Ok(())
    }
}

impl RequestSource for TcpStream {
    fn arm_timeout(&mut self, remaining: Duration) -> io::Result<()> {
        // Zero would mean "no timeout"; clamp up so an already-struck
        // deadline still produces a fast WouldBlock/TimedOut.
        self.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
    }
}

impl RequestSource for &[u8] {}

impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn arm_timeout(&mut self, remaining: Duration) -> io::Result<()> {
        (**self).arm_timeout(remaining)
    }
}

/// Reads one `\n`-terminated line, enforcing the byte cap and the deadline.
/// Returns `None` at a clean EOF before any byte of the line.
fn read_line_bounded<S: RequestSource>(
    reader: &mut BufReader<S>,
    limits: &HttpLimits,
) -> Result<Option<String>, HttpError> {
    if let Some(deadline) = limits.deadline {
        let now = Instant::now();
        if now >= deadline {
            return Err(HttpError::Timeout);
        }
        reader.get_mut().arm_timeout(deadline - now)?;
    }
    read_capped_line(reader, limits.max_line_bytes)
}

/// Reads one `\n`-terminated line of at most `cap` bytes (terminator
/// included). Returns `None` at a clean EOF before any byte of the line.
fn read_capped_line<R: BufRead>(reader: &mut R, cap: usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > cap || (buf.len() == cap && buf.last() != Some(&b'\n')) {
        return Err(HttpError::LineTooLong { limit: cap });
    }
    // Headers are ASCII in practice; anything else is malformed input, not
    // a reason to panic.
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request line or headers"))
}

/// Reads one request from the source under `limits`. Total: every input —
/// including adversarial byte streams and stalled sockets — produces `Ok`
/// or a typed [`HttpError`], never a panic or an unbounded buffer.
pub fn read_request<S: RequestSource>(
    source: &mut S,
    limits: &HttpLimits,
) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(source);
    let line = read_line_bounded(&mut reader, limits)?
        .ok_or(HttpError::BadRequest("empty request line"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut header_count = 0usize;
    loop {
        let header = read_line_bounded(&mut reader, limits)?
            .ok_or(HttpError::BadRequest("connection closed mid-headers"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > limits.max_header_count {
            return Err(HttpError::TooManyHeaders {
                limit: limits.max_header_count,
            });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest("unparseable content-length"))?;
            }
        }
    }
    if content_length > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body,
        });
    }
    if let Some(deadline) = limits.deadline {
        let now = Instant::now();
        if now >= deadline {
            return Err(HttpError::Timeout);
        }
        reader.get_mut().arm_timeout(deadline - now)?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// A request parsed incrementally out of a connection buffer by
/// [`parse_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The parsed request.
    pub request: Request,
    /// Bytes of the buffer this request consumed (head + body); the caller
    /// drains this prefix before parsing the next pipelined request.
    pub consumed: usize,
    /// True when the client asked the connection to close after this
    /// exchange (`Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`).
    pub close: bool,
}

/// Locates the next `\n`-terminated line starting at `start`, enforcing the
/// same byte cap as the blocking reader: the line including its `\n` must
/// fit in `cap` bytes. `Ok(None)` means the line is incomplete but still
/// within the cap.
fn scan_line(buf: &[u8], start: usize, cap: usize) -> Result<Option<(usize, usize)>, HttpError> {
    let rest = &buf[start..];
    let window = &rest[..rest.len().min(cap)];
    match window.iter().position(|&b| b == b'\n') {
        Some(pos) => Ok(Some((start + pos, start + pos + 1))),
        None if rest.len() >= cap => Err(HttpError::LineTooLong { limit: cap }),
        None => Ok(None),
    }
}

/// Decodes one header/request line (trailing `\r` stripped) as UTF-8.
fn line_str(line: &[u8]) -> Result<&str, HttpError> {
    let line = match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    };
    std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request line or headers"))
}

/// Incrementally parses one request from the front of `buf`.
///
/// * `Ok(Some(parsed))` — a complete request; the caller drains
///   `parsed.consumed` bytes and may call again on the remainder (pipelining).
/// * `Ok(None)` — the bytes so far are a valid prefix; read more and retry.
///   Buffering while in this state is bounded: the head is capped by
///   `max_line_bytes × max_header_count` and the body by `max_body`.
/// * `Err(_)` — the prefix can never become a valid request; the caller
///   answers the typed status and closes.
///
/// Total like [`read_request`]: arbitrary byte prefixes must produce one of
/// the three outcomes, never a panic (fuzzed in `proptest_http.rs`), and on
/// complete inputs the outcome agrees with the blocking reader.
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> Result<Option<ParsedRequest>, HttpError> {
    let cap = limits.max_line_bytes;
    let (line_end, mut cursor) = match scan_line(buf, 0, cap)? {
        Some(bounds) => bounds,
        None => return Ok(None),
    };
    let line = line_str(&buf[..line_end])?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    // HTTP/1.0 defaults to close; everything else (1.1, or the version-less
    // requests the blocking reader also tolerates) defaults to keep-alive.
    let mut close = parts.next() == Some("HTTP/1.0");

    let mut content_length = 0usize;
    let mut header_count = 0usize;
    loop {
        let (header_end, next) = match scan_line(buf, cursor, cap)? {
            Some(bounds) => bounds,
            None => return Ok(None),
        };
        let header = line_str(&buf[cursor..header_end])?.trim_end();
        cursor = next;
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > limits.max_header_count {
            return Err(HttpError::TooManyHeaders {
                limit: limits.max_header_count,
            });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest("unparseable content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    if content_length > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body,
        });
    }
    let total = cursor + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(ParsedRequest {
        request: Request {
            method,
            path,
            body: buf[cursor..total].to_vec(),
        },
        consumed: total,
        close,
    }))
}

/// Renders a complete response (head + JSON body) into a byte vector for
/// the event loop's buffered writer. `close` selects the `connection`
/// header; keep-alive responses rely on `content-length` framing.
#[must_use]
pub fn render_response(
    status: u16,
    body: &str,
    extra_headers: &[(&str, &str)],
    close: bool,
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Renders a request head + body for a client connection. `close` asks the
/// server to end the connection after this exchange; pooled keep-alive
/// clients pass `false`.
#[must_use]
pub fn render_request(method: &str, path: &str, host: &str, body: &[u8], close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response as read off a client connection by [`read_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseParts {
    /// Status code from the status line.
    pub status: u16,
    /// Body bytes (`content-length` framed).
    pub body: Vec<u8>,
    /// True when the server announced `connection: close` — the connection
    /// must not be reused for another request.
    pub close: bool,
    /// Parsed `Retry-After` header (whole seconds), when the server sent
    /// one on a 429/503 — clients use it to pace their retries.
    pub retry_after: Option<u64>,
}

/// Reads one `content-length`-framed response from a client-side reader.
/// A clean EOF before the status line is `UnexpectedEof` (pooled clients
/// use this to detect a stale connection and retry once).
///
/// The peer is untrusted: anything may listen at a cell address. The
/// status line and header lines and the header count are held to the
/// request caps of [`HttpLimits::default`], and the declared body to
/// `max_body`, checked before anything is allocated. A tripped cap or
/// broken framing is `InvalidData`, which callers handle like any
/// transport failure.
pub fn read_response<R: BufRead>(reader: &mut R, max_body: usize) -> io::Result<ResponseParts> {
    let limits = HttpLimits::default();
    let next_line = |reader: &mut R| {
        read_capped_line(reader, limits.max_line_bytes).map_err(|e| match e {
            HttpError::Io(e) => e,
            HttpError::Timeout => io::ErrorKind::TimedOut.into(),
            other => invalid_response(&other.to_string()),
        })
    };
    let status_line = next_line(reader)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response arrived",
        )
    })?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid_response("bad status line"))?;
    let mut content_length = 0usize;
    let mut close = false;
    let mut retry_after = None;
    let mut header_count = 0usize;
    while let Some(header) = next_line(reader)? {
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > limits.max_header_count {
            return Err(invalid_response("too many response headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .ok()
                    .filter(|&n| n <= max_body)
                    .ok_or_else(|| {
                        invalid_response("content-length unparseable or over the cap")
                    })?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ResponseParts {
        status,
        body,
        close,
        retry_after,
    })
}

/// An `InvalidData` error for a response that breaks a cap or the framing.
fn invalid_response(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("upstream response: {detail}"),
    )
}

/// Minimal client used by the tests: one round trip on a fresh connection
/// (`Connection: close`), returning `(status, body)`. Answers are capped
/// at [`MAX_ANSWER_BODY`].
pub fn roundtrip(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&render_request(method, path, &addr.to_string(), body, true))?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let parts = read_response(&mut reader, MAX_ANSWER_BODY)?;
    Ok((parts.status, parts.body))
}

/// A pooled keep-alive client connection: requests reuse one TCP stream,
/// reconnecting transparently (with a single retry) when the pooled stream
/// turns out to be stale — e.g. the server closed it during an idle gap.
///
/// Also supports request pipelining ([`KeepAliveClient::request_batch`]):
/// every request in the batch is written back-to-back before any response
/// is read, amortising syscalls and round trips across the batch. Answers
/// are capped at [`MAX_ANSWER_BODY`].
pub struct KeepAliveClient {
    addr: std::net::SocketAddr,
    host: String,
    io_timeout: Option<Duration>,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
}

/// Batch-exchange failure: the number of responses already read off the
/// wire (0 means a stale pooled connection, safe to retry) and the error.
type BatchError = (usize, io::Error);

impl KeepAliveClient {
    /// A client for `addr` with no I/O timeout.
    #[must_use]
    pub fn new(addr: std::net::SocketAddr) -> Self {
        Self::with_timeout(addr, None)
    }

    /// A client for `addr` arming `timeout` on reads and writes of every
    /// connection it opens.
    #[must_use]
    pub fn with_timeout(addr: std::net::SocketAddr, timeout: Option<Duration>) -> Self {
        KeepAliveClient {
            addr,
            host: addr.to_string(),
            io_timeout: timeout,
            stream: None,
            connects: 0,
        }
    }

    /// TCP connects this client has made.
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        let _ = stream.set_nodelay(true);
        if let Some(timeout) = self.io_timeout {
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
        }
        self.connects += 1;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    /// One keep-alive round trip, returning `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut responses = self.request_batch(&[(method, path, body)])?;
        responses
            .pop()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))
    }

    /// Writes every request in the batch back-to-back on one connection
    /// (HTTP/1.1 pipelining), then reads the responses in order. A stale
    /// pooled connection (error before any response byte) is replaced and
    /// the whole batch retried once; errors after a partial read are
    /// surfaced as-is, since the server has already seen some requests.
    pub fn request_batch(
        &mut self,
        reqs: &[(&str, &str, &[u8])],
    ) -> io::Result<Vec<(u16, Vec<u8>)>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        if self.stream.is_some() {
            match self.exchange(reqs) {
                Ok(responses) => return Ok(responses),
                // Nothing read back: the pooled stream was stale. Reconnect
                // and retry the batch once.
                Err((0, _stale)) => self.stream = None,
                Err((_, e)) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
        self.connect()?;
        self.exchange(reqs).map_err(|(_, e)| {
            self.stream = None;
            e
        })
    }

    /// One write-all-then-read-all exchange over the current stream.
    /// Errors carry the number of responses already read so the caller can
    /// distinguish a stale pooled connection (0) from a mid-batch failure.
    fn exchange(
        &mut self,
        reqs: &[(&str, &str, &[u8])],
    ) -> Result<Vec<(u16, Vec<u8>)>, BatchError> {
        let mut wire = Vec::new();
        for (method, path, body) in reqs {
            wire.extend(render_request(method, path, &self.host, body, false));
        }
        let mut responses = Vec::with_capacity(reqs.len());
        let mut server_closes = false;
        {
            let reader = self
                .stream
                .as_mut()
                .expect("exchange requires a connection");
            reader.get_mut().write_all(&wire).map_err(|e| (0, e))?;
            for _ in reqs {
                if server_closes {
                    return Err((
                        responses.len(),
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-pipeline",
                        ),
                    ));
                }
                let count = responses.len();
                let parts = read_response(reader, MAX_ANSWER_BODY).map_err(|e| (count, e))?;
                server_closes = parts.close;
                responses.push((parts.status, parts.body));
            }
        }
        if server_closes {
            self.stream = None;
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Exercises the parser + writer over a real loopback socket.
    #[test]
    fn request_and_response_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let limits = HttpLimits {
                max_body: 1024,
                ..HttpLimits::default()
            };
            let req = read_request(&mut stream, &limits).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/solve");
            assert_eq!(req.body, b"{\"x\":1}");
            stream
                .write_all(&render_response(200, "{\"ok\":true}", &[], true))
                .unwrap();
        });
        let (status, body) = roundtrip(addr, "POST", "/solve?verbose=1", b"{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let limits = HttpLimits {
                max_body: 16,
                ..HttpLimits::default()
            };
            match read_request(&mut stream, &limits) {
                Err(HttpError::BodyTooLarge { declared, limit }) => {
                    assert_eq!(declared, 1000);
                    assert_eq!(limit, 16);
                }
                other => panic!("expected BodyTooLarge, got {other:?}"),
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 1000\r\n\r\n")
            .unwrap();
        server.join().unwrap();
    }

    #[test]
    fn in_memory_sources_parse_without_a_socket() {
        let mut raw: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
        let req = read_request(&mut raw, &HttpLimits::default()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(req.body.is_empty());
    }

    #[test]
    fn long_request_lines_answer_431_not_unbounded_buffering() {
        let limits = HttpLimits {
            max_line_bytes: 64,
            ..HttpLimits::default()
        };
        let mut raw: Vec<u8> = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 10_000));
        match read_request(&mut raw.as_slice(), &limits) {
            Err(HttpError::LineTooLong { limit }) => assert_eq!(limit, 64),
            other => panic!("expected LineTooLong, got {other:?}"),
        }
        // A long *header* line trips the same cap.
        let mut raw: Vec<u8> = b"GET / HTTP/1.1\r\nx-junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'b', 10_000));
        match read_request(&mut raw.as_slice(), &limits) {
            Err(HttpError::LineTooLong { limit }) => assert_eq!(limit, 64),
            other => panic!("expected LineTooLong, got {other:?}"),
        }
    }

    #[test]
    fn header_count_cap_is_enforced() {
        let limits = HttpLimits {
            max_header_count: 4,
            ..HttpLimits::default()
        };
        let mut raw: Vec<u8> = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10 {
            raw.extend(format!("x-h{i}: v\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        match read_request(&mut raw.as_slice(), &limits) {
            Err(HttpError::TooManyHeaders { limit }) => assert_eq!(limit, 4),
            other => panic!("expected TooManyHeaders, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadlines_fail_with_timeout_before_reading() {
        let limits = HttpLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..HttpLimits::default()
        };
        let mut raw: &[u8] = b"GET / HTTP/1.1\r\n\r\n";
        match read_request(&mut raw, &limits) {
            Err(HttpError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn slowloris_clients_are_cut_off_by_the_wall_clock_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let limits = HttpLimits {
                deadline: Some(Instant::now() + Duration::from_millis(50)),
                ..HttpLimits::default()
            };
            let started = Instant::now();
            let result = read_request(&mut stream, &limits);
            assert!(
                matches!(result, Err(HttpError::Timeout)),
                "stalled client should time out, got {result:?}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "deadline cut the read off promptly"
            );
        });
        // Send half a request line, then stall well past the deadline.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /so").unwrap();
        stream.flush().unwrap();
        server.join().unwrap();
        drop(stream);
    }

    #[test]
    fn extra_headers_are_emitted_in_the_response_head() {
        let out = render_response(503, "{}", &[("retry-after", "1")], true);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn incremental_parser_needs_more_bytes_then_agrees_with_the_blocking_reader() {
        let wire = b"POST /solve HTTP/1.1\r\nhost: x\r\ncontent-length: 7\r\n\r\n{\"x\":1}";
        let limits = HttpLimits::default();
        // Every strict prefix is "need more bytes"...
        for cut in 0..wire.len() {
            match parse_request(&wire[..cut], &limits) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes should be incomplete, got {other:?}"),
            }
        }
        // ...and the full buffer parses to exactly what the blocking reader sees.
        let parsed = parse_request(wire, &limits).unwrap().unwrap();
        let blocking = read_request(&mut &wire[..], &limits).unwrap();
        assert_eq!(parsed.request, blocking);
        assert_eq!(parsed.consumed, wire.len());
        assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time_off_the_front() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        wire.extend_from_slice(b"POST /solve HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}");
        wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
        let limits = HttpLimits::default();
        let mut paths = Vec::new();
        let mut offset = 0;
        while let Some(parsed) = parse_request(&wire[offset..], &limits).unwrap() {
            paths.push((parsed.request.path.clone(), parsed.close));
            offset += parsed.consumed;
        }
        assert_eq!(offset, wire.len(), "every byte belongs to some request");
        assert_eq!(
            paths,
            vec![
                ("/healthz".to_string(), false),
                ("/solve".to_string(), false),
                ("/metrics".to_string(), true),
            ]
        );
    }

    #[test]
    fn connection_semantics_cover_http10_and_explicit_headers() {
        let limits = HttpLimits::default();
        let close = |wire: &[u8]| parse_request(wire, &limits).unwrap().unwrap().close;
        assert!(close(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(
            !close(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n"),
            "1.0 + keep-alive stays open"
        );
        assert!(close(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!close(b"GET / HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn incremental_caps_trip_on_partial_data() {
        let limits = HttpLimits {
            max_line_bytes: 32,
            max_header_count: 2,
            max_body: 8,
            deadline: None,
        };
        // A request line that can never fit errors before it completes.
        let long: Vec<u8> = b"GET /".iter().copied().chain([b'a'; 64]).collect();
        assert!(matches!(
            parse_request(&long, &limits),
            Err(HttpError::LineTooLong { limit: 32 })
        ));
        // Too many headers errors even though the blank line never arrived.
        let heads = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n";
        assert!(matches!(
            parse_request(heads, &limits),
            Err(HttpError::TooManyHeaders { limit: 2 })
        ));
        // An oversized declared body errors without waiting for the bytes.
        let big = b"POST / HTTP/1.1\r\ncontent-length: 999\r\n\r\n";
        assert!(matches!(
            parse_request(big, &limits),
            Err(HttpError::BodyTooLarge {
                declared: 999,
                limit: 8
            })
        ));
    }

    #[test]
    fn render_response_is_keep_alive_aware() {
        let keep = String::from_utf8(render_response(200, "{}", &[], false)).unwrap();
        assert!(keep.contains("connection: keep-alive\r\n"), "{keep}");
        let close = String::from_utf8(render_response(200, "{}", &[], true)).unwrap();
        assert!(close.contains("connection: close\r\n"), "{close}");
        assert!(close.ends_with("\r\n\r\n{}"), "{close}");
    }

    #[test]
    fn keep_alive_client_reuses_one_connection_and_recovers_from_a_stale_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: serve two requests, then close (stale pool).
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let req = read_request(&mut stream, &HttpLimits::default()).unwrap();
                assert_eq!(req.method, "GET");
                stream
                    .write_all(&render_response(200, "{\"n\":1}", &[], false))
                    .unwrap();
            }
            drop(stream);
            // Second connection: the client's retry after the stale reuse.
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream, &HttpLimits::default()).unwrap();
            stream
                .write_all(&render_response(200, "{\"n\":2}", &[], false))
                .unwrap();
        });
        let mut client = KeepAliveClient::new(addr);
        let (status, _) = client.request("GET", "/a", b"").unwrap();
        assert_eq!(status, 200);
        let (status, _) = client.request("GET", "/b", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.connects(), 1, "second request reused the stream");
        // The server has closed the pooled stream; the next request must
        // transparently reconnect and succeed.
        let (status, body) = client.request("GET", "/c", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"n\":2}");
        assert_eq!(client.connects(), 2, "stale reuse reconnected once");
        server.join().unwrap();
    }

    #[test]
    fn pipelined_batches_come_back_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Pipelined requests share read segments, so the server side
            // must parse incrementally from one buffer — `read_request`'s
            // per-call BufReader would swallow the trailing requests.
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0;
            while served < 3 {
                match parse_request(&buf, &HttpLimits::default()).unwrap() {
                    Some(parsed) => {
                        let body =
                            format!("{{\"path\":\"{}\",\"i\":{served}}}", parsed.request.path);
                        stream
                            .write_all(&render_response(200, &body, &[], false))
                            .unwrap();
                        buf.drain(..parsed.consumed);
                        served += 1;
                    }
                    None => {
                        let n = stream.read(&mut chunk).unwrap();
                        assert!(n > 0, "client closed before sending all requests");
                        buf.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        });
        let mut client = KeepAliveClient::new(addr);
        let responses = client
            .request_batch(&[
                ("GET", "/a", b"".as_slice()),
                ("GET", "/b", b"".as_slice()),
                ("GET", "/c", b"".as_slice()),
            ])
            .unwrap();
        let bodies: Vec<String> = responses
            .iter()
            .map(|(status, body)| {
                assert_eq!(*status, 200);
                String::from_utf8(body.clone()).unwrap()
            })
            .collect();
        assert_eq!(bodies[0], "{\"path\":\"/a\",\"i\":0}");
        assert_eq!(bodies[1], "{\"path\":\"/b\",\"i\":1}");
        assert_eq!(bodies[2], "{\"path\":\"/c\",\"i\":2}");
        assert_eq!(client.connects(), 1);
        server.join().unwrap();
    }

    #[test]
    fn status_mapping_covers_every_error() {
        assert_eq!(HttpError::BadRequest("x").http_status(), 400);
        assert_eq!(
            HttpError::BodyTooLarge {
                declared: 2,
                limit: 1
            }
            .http_status(),
            413
        );
        assert_eq!(HttpError::Timeout.http_status(), 408);
        assert_eq!(HttpError::LineTooLong { limit: 1 }.http_status(), 431);
        assert_eq!(HttpError::TooManyHeaders { limit: 1 }.http_status(), 431);
        let timeout: HttpError = io::Error::from(io::ErrorKind::TimedOut).into();
        assert!(matches!(timeout, HttpError::Timeout));
    }
}
