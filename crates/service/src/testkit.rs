//! Test support: the blocking request reader that is the incremental
//! parser's differential oracle, and two minimal HTTP clients. Like
//! `mqo_annealer::reference` for the kernels, this module holds the
//! oracles; nothing on the serving path calls into it.
//!
//! * [`read_request`] — a blocking reader over any [`RequestSource`] (a
//!   live socket or an in-memory byte slice), one request per call. It
//!   restates the grammar of [`crate::http::parse_request`] line by line,
//!   and `proptest_http.rs` checks that the two agree on every input.
//! * [`roundtrip`] — one request on a fresh `Connection: close`
//!   connection.
//! * [`pipeline`] — several requests written back-to-back on one
//!   keep-alive connection before any answer is read (HTTP/1.1
//!   pipelining); the answers come back in request order.

use crate::http::{
    read_capped_line, read_response, render_request, HttpError, HttpLimits, Request, ResponseParts,
    MAX_ANSWER_BODY,
};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

/// Fails with [`HttpError::Timeout`] once `deadline` has passed, and
/// otherwise arms the source's timeout for the time left.
fn arm<S: RequestSource>(
    reader: &mut BufReader<S>,
    deadline: Option<Instant>,
) -> Result<(), HttpError> {
    if let Some(deadline) = deadline {
        let now = Instant::now();
        if now >= deadline {
            return Err(HttpError::Timeout);
        }
        reader.get_mut().arm_timeout(deadline - now)?;
    }
    Ok(())
}

/// Reads one `\n`-terminated line, enforcing the byte cap and the deadline.
/// Returns `None` at a clean EOF before any byte of the line.
fn read_line_bounded<S: RequestSource>(
    reader: &mut BufReader<S>,
    limits: &HttpLimits,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    arm(reader, deadline)?;
    read_capped_line(reader, limits.max_line_bytes)
}

/// Reads one request from the source under `limits`, failing with
/// [`HttpError::Timeout`] past `deadline` (`None`: no deadline). Total:
/// every input — including adversarial byte streams and stalled sockets —
/// produces `Ok` or a typed [`HttpError`], never a panic or an unbounded
/// buffer.
pub fn read_request<S: RequestSource>(
    source: &mut S,
    limits: &HttpLimits,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(source);
    let line = read_line_bounded(&mut reader, limits, deadline)?
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

    let mut content_length: Option<usize> = None;
    let mut header_count = 0usize;
    loop {
        let header = read_line_bounded(&mut reader, limits, deadline)?
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
    arm(&mut reader, deadline)?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// One round trip on a fresh connection (`Connection: close`), returning
/// `(status, body)`. Answers are capped at [`MAX_ANSWER_BODY`].
pub fn roundtrip(
    addr: SocketAddr,
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

/// Writes every `(method, path, body)` request back-to-back on one
/// keep-alive connection, then reads the answers in order. A server that
/// closes the connection before the last answer is an `UnexpectedEof`.
pub fn pipeline(
    addr: SocketAddr,
    requests: &[(&str, &str, &[u8])],
) -> io::Result<Vec<ResponseParts>> {
    let host = addr.to_string();
    let mut wire = Vec::new();
    for (method, path, body) in requests {
        wire.extend(render_request(method, path, &host, body, false));
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&wire)?;
    let mut reader = BufReader::new(stream);
    let mut answers: Vec<ResponseParts> = Vec::with_capacity(requests.len());
    for _ in requests {
        if answers.last().is_some_and(|parts| parts.close) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-pipeline",
            ));
        }
        answers.push(read_response(&mut reader, MAX_ANSWER_BODY)?);
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, render_response};
    use std::net::TcpListener;

    /// Exercises the oracle + writer over a real loopback socket.
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
            let req = read_request(&mut stream, &limits, None).unwrap();
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
            match read_request(&mut stream, &limits, None) {
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
        let req = read_request(&mut raw, &HttpLimits::default(), None).unwrap();
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
        match read_request(&mut raw.as_slice(), &limits, None) {
            Err(HttpError::LineTooLong { limit }) => assert_eq!(limit, 64),
            other => panic!("expected LineTooLong, got {other:?}"),
        }
        // A long *header* line trips the same cap.
        let mut raw: Vec<u8> = b"GET / HTTP/1.1\r\nx-junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'b', 10_000));
        match read_request(&mut raw.as_slice(), &limits, None) {
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
        match read_request(&mut raw.as_slice(), &limits, None) {
            Err(HttpError::TooManyHeaders { limit }) => assert_eq!(limit, 4),
            other => panic!("expected TooManyHeaders, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadlines_fail_with_timeout_before_reading() {
        let deadline = Some(Instant::now() - Duration::from_millis(1));
        let mut raw: &[u8] = b"GET / HTTP/1.1\r\n\r\n";
        match read_request(&mut raw, &HttpLimits::default(), deadline) {
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
            let deadline = Some(Instant::now() + Duration::from_millis(50));
            let started = Instant::now();
            let result = read_request(&mut stream, &HttpLimits::default(), deadline);
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
    fn pipelined_requests_come_back_in_order() {
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
        let answers = pipeline(
            addr,
            &[
                ("GET", "/a", b"".as_slice()),
                ("GET", "/b", b"".as_slice()),
                ("GET", "/c", b"".as_slice()),
            ],
        )
        .unwrap();
        let bodies: Vec<String> = answers
            .into_iter()
            .map(|parts| {
                assert_eq!(parts.status, 200);
                String::from_utf8(parts.body).unwrap()
            })
            .collect();
        assert_eq!(bodies[0], "{\"path\":\"/a\",\"i\":0}");
        assert_eq!(bodies[1], "{\"path\":\"/b\",\"i\":1}");
        assert_eq!(bodies[2], "{\"path\":\"/c\",\"i\":2}");
        server.join().unwrap();
    }
}
