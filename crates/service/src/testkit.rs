//! Test support: the blocking request reader that is the incremental
//! parser's differential oracle, two minimal HTTP clients, and the seeded
//! fault injectors. Like `mqo_annealer::reference` for the kernels, this
//! module holds the oracles and the drivers; nothing on the serving path
//! calls into it.
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
//! * [`SeededFaults`] — the engine-side injector: worker panics, backend
//!   failures and answer corruption, fired through
//!   [`FaultSeam`] on SplitMix64 streams keyed on the request seed, so a
//!   fault plan hits the same requests at any worker count.
//! * [`KillPlan`] — seeded cell SIGKILLs, delivered by a driver thread
//!   through a kill closure the test supplies (the test owns the cell
//!   processes, as a service manager would).

use crate::api::{Backend, SolveRequest, SolveResponse};
use crate::engine::FaultSeam;
use crate::http::{
    read_capped_line, read_response, render_request, HttpError, HttpLimits, Request, ResponseParts,
};
use crate::queue::panic_message;
use mqo_annealer::parallel::{derive_seed, splitmix64};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
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
/// `(status, body)`. Answers are capped at [`MAX_ANSWER_BODY`](crate::http::MAX_ANSWER_BODY).
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
    let parts = read_response(&mut reader)?;
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
        answers.push(read_response(&mut reader)?);
    }
    Ok(answers)
}

/// Text in every injected panic message; [`silence_injected_panics`]
/// keys on it.
pub const INJECTED_PANIC: &str = "injected fault";

const STREAM_PANIC: u64 = 0x4348_5041_4e49_0001;
const STREAM_BACKEND: u64 = 0x4348_4241_434b_0003;
const STREAM_CORRUPT: u64 = 0x4348_434f_5252_0005;
const STREAM_CELL_KILL: u64 = 0x4348_4345_4c4c_0006;

/// Maps a derived seed to one uniform sample in `[0, 1)` through an extra
/// SplitMix64 round: a single probability roll without an RNG object.
fn unit_uniform(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One uniform sample in `[0, 1)` for slot `(a, b)` of `stream`.
fn roll(seed: u64, stream: u64, a: u64, b: u64) -> f64 {
    unit_uniform(derive_seed(seed, stream, a, b))
}

/// Installs, once per process, a panic hook that keeps injected panics
/// off stderr and hands every other panic to the previous hook.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).contains(INJECTED_PANIC) {
                previous(info);
            }
        }));
    });
}

/// Seeded fault rates. Every decision is a pure function of `seed` and
/// the request seed, never of arrival order, thread or clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Seed of every fault stream; distinct from the request seeds.
    pub seed: u64,
    /// Per-request probability that the solve panics at entry.
    pub worker_panic_rate: f64,
    /// Per-(request, backend) probability that a backend attempt panics
    /// before it runs.
    pub backend_failure_rate: f64,
    /// Per-request probability that a successful answer is corrupted
    /// before the integrity gate.
    pub corruption_rate: f64,
    /// Corrupt by a selection of the wrong length, which the gate cannot
    /// repair, instead of the three repairable modes.
    pub unrepairable: bool,
}

/// How a fired corruption mangles an answer. Every mode fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Query 0's entry becomes query 1's plan: one query uncovered, one
    /// covered twice (a NaN cost on single-query problems).
    CrossQueryPlan,
    /// The reported cost becomes NaN.
    NanCost,
    /// The reported cost becomes +∞.
    InfCost,
    /// The selection gains an entry; repair refuses a wrong length.
    WrongLength,
}

impl FaultRates {
    /// Whether the request with seed `req_seed` panics at solve entry.
    #[must_use]
    pub fn worker_panics(&self, req_seed: u64) -> bool {
        roll(self.seed, STREAM_PANIC, req_seed, 0) < self.worker_panic_rate
    }

    /// Whether `backend`'s attempt for `req_seed` fails.
    #[must_use]
    pub fn backend_fails(&self, req_seed: u64, backend: Backend) -> bool {
        roll(self.seed, STREAM_BACKEND, req_seed, backend as u64) < self.backend_failure_rate
    }

    /// The corruption (if any) of `req_seed`'s successful answer. The mode
    /// comes from a second slot of the stream, so rate and mode don't alias.
    #[must_use]
    pub fn corruption(&self, req_seed: u64) -> Option<Corruption> {
        if roll(self.seed, STREAM_CORRUPT, req_seed, 0) >= self.corruption_rate {
            return None;
        }
        if self.unrepairable {
            return Some(Corruption::WrongLength);
        }
        let mode = roll(self.seed, STREAM_CORRUPT, req_seed, 1);
        Some(if mode < 1.0 / 3.0 {
            Corruption::CrossQueryPlan
        } else if mode < 2.0 / 3.0 {
            Corruption::NanCost
        } else {
            Corruption::InfCost
        })
    }
}

/// What a [`SeededFaults`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Injected {
    /// Panics at solve entry.
    pub panics: u64,
    /// Backend attempts failed.
    pub backend_failures: u64,
    /// Answers corrupted before the gate.
    pub corruptions: u64,
}

/// The seeded injector behind the engine's [`FaultSeam`]. It counts its
/// own injections ([`SeededFaults::injected`]); `/metrics` counts only
/// what the service did about them.
#[derive(Debug, Default)]
pub struct SeededFaults {
    rates: FaultRates,
    panics: AtomicU64,
    backend_failures: AtomicU64,
    corruptions: AtomicU64,
}

impl SeededFaults {
    /// An injector firing at `rates`.
    #[must_use]
    pub fn new(rates: FaultRates) -> Arc<SeededFaults> {
        Arc::new(SeededFaults {
            rates,
            ..SeededFaults::default()
        })
    }

    /// The injections so far.
    #[must_use]
    pub fn injected(&self) -> Injected {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Injected {
            panics: load(&self.panics),
            backend_failures: load(&self.backend_failures),
            corruptions: load(&self.corruptions),
        }
    }
}

impl FaultSeam for SeededFaults {
    fn on_solve(&self, req: &SolveRequest) {
        if !self.rates.worker_panics(req.seed) {
            return;
        }
        self.panics.fetch_add(1, Ordering::Relaxed);
        panic!("{INJECTED_PANIC}: worker panic (request seed {})", req.seed);
    }

    fn on_attempt(&self, req: &SolveRequest, backend: Backend) {
        if self.rates.backend_fails(req.seed, backend) {
            self.backend_failures.fetch_add(1, Ordering::Relaxed);
            panic!(
                "{INJECTED_PANIC}: {backend} failure (request seed {})",
                req.seed
            );
        }
    }

    fn on_answer(&self, req: &SolveRequest, response: &mut SolveResponse) {
        let Some(mode) = self.rates.corruption(req.seed) else {
            return;
        };
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        match mode {
            Corruption::CrossQueryPlan if req.problem.num_queries() >= 2 => {
                response.selection[0] = response.selection[1];
            }
            Corruption::CrossQueryPlan | Corruption::NanCost => response.cost = f64::NAN,
            Corruption::InfCost => response.cost = f64::INFINITY,
            Corruption::WrongLength => response.selection.push(response.selection[0]),
        }
    }
}

/// A seeded plan of cell SIGKILLs: kill `k` fires [`KillPlan::delay_ms`]
/// after [`KillPlan::drive`] starts and targets [`KillPlan::target_cell`].
/// The same plan kills the same cells at the same offsets on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Seed of the kill stream.
    pub seed: u64,
    /// Kills to attempt.
    pub kills: u32,
    /// Earliest offset of a kill, milliseconds.
    pub min_delay_ms: u64,
    /// Latest offset of a kill, milliseconds; at least `min_delay_ms`.
    pub max_delay_ms: u64,
}

impl KillPlan {
    /// Offset of kill `k`, uniform in `[min_delay_ms, max_delay_ms]`.
    #[must_use]
    pub fn delay_ms(&self, k: u32) -> u64 {
        let span = self.max_delay_ms - self.min_delay_ms;
        let r = roll(self.seed, STREAM_CELL_KILL, u64::from(k), 0);
        self.min_delay_ms + (r * (span + 1) as f64) as u64
    }

    /// Which of `cells` cells kill `k` targets.
    #[must_use]
    pub fn target_cell(&self, k: u32, cells: usize) -> usize {
        let r = roll(self.seed, STREAM_CELL_KILL, u64::from(k), 1);
        ((r * cells as f64) as usize).min(cells.saturating_sub(1))
    }

    /// Runs the plan over `cells` cells on a new thread, soonest kill
    /// first: each kill calls `kill(cell)`, which reports whether it found
    /// a live process to kill. The thread returns how many kills did.
    #[must_use]
    pub fn drive<F>(self, cells: usize, mut kill: F) -> JoinHandle<u32>
    where
        F: FnMut(usize) -> bool + Send + 'static,
    {
        let start = Instant::now();
        std::thread::spawn(move || {
            let mut kills: Vec<(u64, usize)> = (0..self.kills)
                .map(|k| (self.delay_ms(k), self.target_cell(k, cells)))
                .collect();
            kills.sort_unstable();
            let mut delivered = 0;
            for (delay_ms, cell) in kills {
                let due = start + Duration::from_millis(delay_ms);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                delivered += u32::from(kill(cell));
            }
            delivered
        })
    }
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

    #[test]
    fn unit_uniform_is_pinned_and_lands_in_the_half_open_interval() {
        // Pinned stream values: the same seeds fault the same requests.
        assert_eq!(
            unit_uniform(0),
            7_956_156_453_446_585.0 / (1u64 << 53) as f64
        );
        assert_eq!(
            unit_uniform(42),
            6_679_422_623_415_661.0 / (1u64 << 53) as f64
        );
        for seed in 0..10_000u64 {
            let u = unit_uniform(seed);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn zero_rates_never_fire() {
        let rates = FaultRates {
            seed: 99,
            ..FaultRates::default()
        };
        for req_seed in 0..1_000 {
            assert!(!rates.worker_panics(req_seed));
            assert!(!rates.backend_fails(req_seed, Backend::Annealer));
            assert!(rates.corruption(req_seed).is_none());
        }
    }

    #[test]
    fn corruption_schedule_is_deterministic_and_covers_every_mode() {
        let rates = FaultRates {
            seed: 13,
            corruption_rate: 0.5,
            ..FaultRates::default()
        };
        let schedule: Vec<_> = (0..400).map(|s| rates.corruption(s)).collect();
        let again: Vec<_> = (0..400).map(|s| rates.corruption(s)).collect();
        assert_eq!(schedule, again, "same seed, same corruption schedule");
        let fired: Vec<_> = schedule.iter().flatten().collect();
        assert!(
            (100..=300).contains(&fired.len()),
            "50% of 400 should land near 200, got {}",
            fired.len()
        );
        for mode in [
            Corruption::CrossQueryPlan,
            Corruption::NanCost,
            Corruption::InfCost,
        ] {
            assert!(
                fired.iter().any(|&&m| m == mode),
                "mode {mode:?} never drawn in 400 rolls"
            );
        }
        // The unrepairable plan fires on the same requests, always with a
        // wrong-length selection.
        let unrepairable = FaultRates {
            unrepairable: true,
            ..rates
        };
        for (s, mode) in schedule.iter().enumerate() {
            assert_eq!(
                unrepairable.corruption(s as u64),
                mode.map(|_| Corruption::WrongLength)
            );
        }
    }

    #[test]
    fn rolls_are_deterministic_and_content_keyed() {
        let rates = FaultRates {
            seed: 7,
            worker_panic_rate: 0.3,
            backend_failure_rate: 0.3,
            ..FaultRates::default()
        };
        let schedule: Vec<bool> = (0..200).map(|s| rates.worker_panics(s)).collect();
        let again: Vec<bool> = (0..200).map(|s| rates.worker_panics(s)).collect();
        assert_eq!(schedule, again, "same seed, same schedule");
        let fired = schedule.iter().filter(|&&p| p).count();
        assert!(
            (20..=100).contains(&fired),
            "30% of 200 requests should land near 60, got {fired}"
        );
        let other = FaultRates { seed: 8, ..rates };
        let other_schedule: Vec<bool> = (0..200).map(|s| other.worker_panics(s)).collect();
        assert_ne!(schedule, other_schedule, "different fault seeds differ");
    }

    #[test]
    fn streams_are_independent_per_backend_and_site() {
        let rates = FaultRates {
            seed: 3,
            worker_panic_rate: 0.5,
            backend_failure_rate: 0.5,
            ..FaultRates::default()
        };
        let panics: Vec<bool> = (0..400).map(|s| rates.worker_panics(s)).collect();
        let annealer: Vec<bool> = (0..400)
            .map(|s| rates.backend_fails(s, Backend::Annealer))
            .collect();
        let milp: Vec<bool> = (0..400)
            .map(|s| rates.backend_fails(s, Backend::Milp))
            .collect();
        assert_ne!(annealer, milp, "backend rolls are per-backend");
        assert_ne!(panics, annealer, "backend rolls use their own stream");
    }

    #[test]
    fn kill_plan_is_deterministic_and_bounded() {
        let plan = KillPlan {
            seed: 42,
            kills: 8,
            min_delay_ms: 100,
            max_delay_ms: 1_500,
        };
        let kills = |plan: &KillPlan| -> Vec<(u64, usize)> {
            (0..plan.kills)
                .map(|k| (plan.delay_ms(k), plan.target_cell(k, 3)))
                .collect()
        };
        assert_eq!(kills(&plan), kills(&plan), "same seed, same kill plan");
        for (delay, cell) in kills(&plan) {
            assert!(
                (100..=1_500).contains(&delay),
                "delay {delay} out of bounds"
            );
            assert!(cell < 3, "target {cell} out of range");
        }
        let other = KillPlan { seed: 43, ..plan };
        assert_ne!(
            kills(&plan),
            kills(&other),
            "different seeds, different plans"
        );
        // Over enough kills every cell is hit at least once.
        let wide: Vec<usize> = (0..64).map(|k| plan.target_cell(k, 3)).collect();
        for cell in 0..3 {
            assert!(
                wide.contains(&cell),
                "cell {cell} never targeted in 64 kills"
            );
        }
    }
}
