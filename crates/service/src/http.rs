//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for a
//! JSON API (request line, headers, `Content-Length` bodies). No external
//! dependencies: the build environment is offline.
//!
//! [`parse_request`] is the one request parser: an incremental parser over
//! a connection buffer for the nonblocking event loop (DESIGN.md §13).
//! `Ok(None)` means "need more bytes", and every cap (line bytes, header
//! count, body size) is enforced even on partial data, so a connection can
//! never make the server buffer without bound while waiting for the rest of
//! a request. Its differential oracle, a blocking reader over the same
//! grammar, lives in [`crate::testkit`].
//!
//! Hardening (DESIGN.md §9): every read is bounded —
//!
//! * **bytes** — the request line and each header line have byte caps, the
//!   header count is capped, and `Content-Length` is capped, so a hostile
//!   client can never make the server buffer without bound;
//! * **time** — the event loop arms a whole-request deadline on partial
//!   requests, so a slowloris client is cut off with a typed 408;
//! * **framing** — only `Content-Length` framing is accepted: a
//!   `Transfer-Encoding` is a typed 501 and conflicting `Content-Length`
//!   values a typed 400, and both close the connection (RFC 9112 §6.1,
//!   §6.3), so no body bytes are ever parsed as a second request;
//! * **totality** — the property tests feed the parser arbitrary byte
//!   streams: it must always return `Ok` or a typed [`HttpError`], never
//!   panic.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// Byte and count bounds applied while parsing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Cap on the declared `Content-Length`, bytes.
    pub max_body: usize,
    /// Cap on the request line and on each header line, bytes (including
    /// the terminating `\r\n`).
    pub max_line_bytes: usize,
    /// Cap on the number of header lines.
    pub max_header_count: usize,
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
        }
    }
}

/// Errors while reading a request; each maps to a status via
/// [`HttpError::http_status`].
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers, or conflicting `Content-Length`
    /// values (400).
    BadRequest(&'static str),
    /// A framing the server does not implement: any `Transfer-Encoding`
    /// (501).
    NotImplemented(&'static str),
    /// Body larger than the configured cap (413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// A read timed out mid-message (408).
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
            HttpError::NotImplemented(_) => 501,
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
            HttpError::NotImplemented(d) => write!(f, "not implemented: {d}"),
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

/// Reads one `\n`-terminated line of at most `cap` bytes (terminator
/// included). Returns `None` at a clean EOF before any byte of the line.
pub(crate) fn read_capped_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> Result<Option<String>, HttpError> {
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
/// line byte cap: the line including its `\n` must fit in `cap` bytes.
/// `Ok(None)` means the line is incomplete but still within the cap.
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
///   answers the typed status and closes. A `Transfer-Encoding` header or
///   a second `Content-Length` with a different value errs as soon as its
///   line arrives.
///
/// Total: arbitrary byte prefixes must produce one of the three outcomes,
/// never a panic (fuzzed in `proptest_http.rs`), and on complete inputs the
/// outcome agrees with the blocking oracle [`crate::testkit::read_request`].
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
    // HTTP/1.0 defaults to close; everything else (1.1, or a version-less
    // request line) defaults to keep-alive.
    let mut close = parts.next() == Some("HTTP/1.0");

    let mut content_length: Option<usize> = None;
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
                let declared = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest("unparseable content-length"))?;
                if content_length.is_some_and(|n| n != declared) {
                    return Err(HttpError::BadRequest("conflicting content-length values"));
                }
                content_length = Some(declared);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::NotImplemented("transfer-encoding"));
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
    let content_length = content_length.unwrap_or(0);
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
        501 => "Not Implemented",
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
/// [`MAX_ANSWER_BODY`], checked before anything is allocated. A tripped
/// cap or broken framing is `InvalidData`, which callers handle like any
/// transport failure.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ResponseParts> {
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
                    .filter(|&n| n <= MAX_ANSWER_BODY)
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

/// A pooled keep-alive client connection: requests reuse one TCP stream,
/// reconnecting transparently (with a single retry) when the pooled stream
/// turns out to be stale — e.g. the server closed it during an idle gap.
/// Answers are capped at [`MAX_ANSWER_BODY`].
pub struct KeepAliveClient {
    addr: SocketAddr,
    host: String,
    io_timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl KeepAliveClient {
    /// A client for `addr` arming `io_timeout` on reads and writes of
    /// every connection it opens.
    #[must_use]
    pub fn new(addr: SocketAddr, io_timeout: Duration) -> Self {
        KeepAliveClient {
            addr,
            host: addr.to_string(),
            io_timeout,
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
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        self.connects += 1;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    /// One keep-alive round trip. A pooled stream that fails before an
    /// answer arrives is taken as stale: the client reconnects and sends
    /// the request once more.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ResponseParts> {
        if self.stream.is_some() {
            match self.exchange(method, path, body) {
                Ok(parts) => return Ok(parts),
                Err(_stale) => self.stream = None,
            }
        }
        self.connect()?;
        self.exchange(method, path, body).inspect_err(|_| {
            self.stream = None;
        })
    }

    /// Writes one request on the current stream and reads its answer.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ResponseParts> {
        let reader = self
            .stream
            .as_mut()
            .expect("exchange requires a connection");
        reader
            .get_mut()
            .write_all(&render_request(method, path, &self.host, body, false))?;
        let parts = read_response(reader)?;
        if parts.close {
            self.stream = None;
        }
        Ok(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::read_request;
    use std::net::TcpListener;

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
        let blocking = read_request(&mut &wire[..], &limits, None).unwrap();
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
                let req = read_request(&mut stream, &HttpLimits::default(), None).unwrap();
                assert_eq!(req.method, "GET");
                stream
                    .write_all(&render_response(200, "{\"n\":1}", &[], false))
                    .unwrap();
            }
            drop(stream);
            // Second connection: the client's retry after the stale reuse.
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream, &HttpLimits::default(), None).unwrap();
            stream
                .write_all(&render_response(200, "{\"n\":2}", &[], false))
                .unwrap();
        });
        let mut client = KeepAliveClient::new(addr, Duration::from_secs(10));
        assert_eq!(client.request("GET", "/a", b"").unwrap().status, 200);
        assert_eq!(client.request("GET", "/b", b"").unwrap().status, 200);
        assert_eq!(client.connects(), 1, "second request reused the stream");
        // The server has closed the pooled stream; the next request must
        // transparently reconnect and succeed.
        let parts = client.request("GET", "/c", b"").unwrap();
        assert_eq!(parts.status, 200);
        assert_eq!(parts.body, b"{\"n\":2}");
        assert_eq!(client.connects(), 2, "stale reuse reconnected once");
        server.join().unwrap();
    }

    #[test]
    fn status_mapping_covers_every_error() {
        assert_eq!(HttpError::BadRequest("x").http_status(), 400);
        assert_eq!(HttpError::NotImplemented("x").http_status(), 501);
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
