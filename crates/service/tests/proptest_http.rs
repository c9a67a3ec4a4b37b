//! Property-based fuzzing of the HTTP request reader (ISSUE-5, satellite c)
//! and of the incremental parser behind the nonblocking event loop
//! (ISSUE-9, satellite c).
//!
//! `testkit::read_request` is the blocking restatement of the service's
//! unauthenticated network-facing parsing surface: whatever bytes a client
//! throws at the socket flow through that grammar first. These properties
//! feed it arbitrary byte streams —
//! pure noise, truncated/corrupted valid requests, and adversarial
//! header shapes — through the in-memory [`RequestSource`] impl and
//! assert the total-function contract: the reader never panics and every
//! outcome is either a parsed [`Request`] or a typed [`HttpError`] whose
//! `http_status()` is an expected client-error code.
//!
//! `http::parse_request` is the same grammar restated over a buffer
//! prefix for the event loop: it must agree with the blocking reader on
//! every complete input, stay at `Ok(None)` on every proper prefix no
//! matter how reads are split (the slow-loris path), walk pipelined
//! requests in order, and turn mid-pipeline garbage into the same typed
//! errors.

use mqo_service::http::{parse_request, HttpError, HttpLimits};
use mqo_service::testkit::read_request;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tight limits so the generated inputs can actually trip every cap.
fn small_limits() -> HttpLimits {
    HttpLimits {
        max_body: 256,
        max_line_bytes: 128,
        max_header_count: 8,
    }
}

/// Runs the reader over an in-memory byte stream, translating a panic —
/// which must never happen — into a test failure, and checking that any
/// error carries a legal response status.
fn parse_never_panics(bytes: &[u8], limits: &HttpLimits) -> Result<(), TestCaseError> {
    let limits = *limits;
    let owned = bytes.to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut source: &[u8] = &owned;
        read_request(&mut source, &limits, None)
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(_) => {
            return Err(TestCaseError::fail(format!(
                "read_request panicked on {} bytes: {:?}",
                bytes.len(),
                &bytes[..bytes.len().min(64)]
            )))
        }
    };
    match result {
        Ok(req) => {
            // A parse that succeeds must respect the configured caps.
            prop_assert!(req.body.len() <= limits.max_body);
            prop_assert!(!req.method.is_empty());
        }
        Err(e) => {
            let status = e.http_status();
            prop_assert!(
                matches!(status, 400 | 408 | 413 | 431),
                "unexpected status {status} for {e}"
            );
            // In-memory sources cannot time out: the deadline is None.
            prop_assert!(!matches!(e, HttpError::Timeout));
        }
    }
    Ok(())
}

/// A syntactically valid request the corruption strategies start from.
fn valid_request(body_len: usize) -> Vec<u8> {
    let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 26) as u8).collect();
    let mut raw = format!(
        "POST /solve HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
         content-length: {body_len}\r\nconnection: close\r\n\r\n"
    )
    .into_bytes();
    raw.extend_from_slice(&body);
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: arbitrary bytes of arbitrary length.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
        parse_never_panics(&bytes, &small_limits())?;
        parse_never_panics(&bytes, &HttpLimits::default())?;
    }

    /// Structured noise: a valid request truncated at an arbitrary point
    /// and with one arbitrary byte overwritten. This walks the parser
    /// through every state (request line, headers, separator, body) with
    /// a corruption at each.
    #[test]
    fn corrupted_valid_requests_never_panic(
        body_len in 0usize..64,
        cut in 0usize..256,
        flip_at in 0usize..256,
        flip_to in 0u8..=255,
    ) {
        let mut raw = valid_request(body_len);
        if flip_at < raw.len() {
            raw[flip_at] = flip_to;
        }
        raw.truncate(cut.min(raw.len()));
        parse_never_panics(&raw, &small_limits())?;
    }

    /// Adversarial header shapes: arbitrary counts of arbitrary-length
    /// header lines, colon or not, plus a declared content length that
    /// need not match the actual trailing bytes.
    #[test]
    fn adversarial_headers_never_panic(
        header_count in 0usize..16,
        header_len in 0usize..200,
        declared in 0usize..1024,
        actual in 0usize..300,
        with_colon in proptest::bool::ANY,
    ) {
        let mut raw = b"POST /solve HTTP/1.1\r\n".to_vec();
        for i in 0..header_count {
            let name = format!("x-h{i}");
            let filler = "v".repeat(header_len);
            if with_colon {
                raw.extend_from_slice(format!("{name}: {filler}\r\n").as_bytes());
            } else {
                raw.extend_from_slice(format!("{name}{filler}\r\n").as_bytes());
            }
        }
        raw.extend_from_slice(format!("content-length: {declared}\r\n\r\n").as_bytes());
        raw.extend_from_slice(&vec![b'x'; actual]);
        parse_never_panics(&raw, &small_limits())?;
    }

    /// Differential property: the incremental parser and the blocking
    /// reader are the same grammar. On any corrupted/truncated valid
    /// request, a complete parse agrees field-for-field, a typed error
    /// agrees on the response status, and an incomplete verdict
    /// (`Ok(None)`) coincides with the blocking reader failing on EOF.
    #[test]
    fn incremental_parser_agrees_with_blocking_reader(
        body_len in 0usize..64,
        cut in 0usize..256,
        flip_at in 0usize..256,
        flip_to in 0u8..=255,
    ) {
        let mut raw = valid_request(body_len);
        if flip_at < raw.len() {
            raw[flip_at] = flip_to;
        }
        raw.truncate(cut.min(raw.len()));
        let limits = small_limits();
        let incremental = parse_request(&raw, &limits);
        let mut source: &[u8] = &raw;
        let blocking = read_request(&mut source, &limits, None);
        match incremental {
            Ok(Some(parsed)) => match blocking {
                Ok(req) => {
                    prop_assert_eq!(&parsed.request.method, &req.method);
                    prop_assert_eq!(&parsed.request.path, &req.path);
                    prop_assert_eq!(&parsed.request.body, &req.body);
                    prop_assert!(parsed.consumed <= raw.len());
                }
                Err(e) => return Err(TestCaseError::fail(format!(
                    "incremental parsed a request the blocking reader rejects: {e}"
                ))),
            },
            Ok(None) => prop_assert!(
                blocking.is_err(),
                "incremental says incomplete but the blocking reader parsed it"
            ),
            Err(e) => match blocking {
                Err(b) => prop_assert_eq!(e.http_status(), b.http_status()),
                Ok(_) => return Err(TestCaseError::fail(format!(
                    "incremental rejects ({e}) a request the blocking reader accepts"
                ))),
            },
        }
    }

    /// Split-read boundaries: every proper prefix of a valid request is
    /// `Ok(None)` — never an error, never a premature parse — and the full
    /// buffer parses with `consumed` equal to the request length. This is
    /// the byte-at-a-time slow-loris path: the event loop keeps buffering
    /// without misparsing regardless of where the kernel splits reads.
    #[test]
    fn every_prefix_of_a_valid_request_is_incomplete_not_an_error(
        body_len in 0usize..64,
        keep_alive in proptest::bool::ANY,
    ) {
        let mut raw = valid_request(body_len);
        if keep_alive {
            let text = String::from_utf8(raw).unwrap();
            raw = text.replace("connection: close", "connection: keep-alive").into_bytes();
        }
        let limits = small_limits();
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], &limits) {
                Ok(None) => {}
                other => return Err(TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes gave {other:?}", raw.len()
                ))),
            }
        }
        match parse_request(&raw, &limits) {
            Ok(Some(parsed)) => {
                prop_assert_eq!(parsed.consumed, raw.len());
                prop_assert_eq!(parsed.close, !keep_alive);
                prop_assert_eq!(parsed.request.body.len(), body_len);
            }
            other => return Err(TestCaseError::fail(format!(
                "complete request gave {other:?}"
            ))),
        }
    }

    /// Pipelining: several keep-alive requests concatenated into one
    /// segment parse strictly in order, each `consumed` draining exactly
    /// one request, with an empty buffer at the end.
    #[test]
    fn pipelined_requests_in_one_segment_parse_in_order(
        body_lens in vec(0usize..48, 1..6),
    ) {
        let limits = small_limits();
        let mut buf = Vec::new();
        for len in &body_lens {
            let text = String::from_utf8(valid_request(*len)).unwrap();
            buf.extend_from_slice(
                text.replace("connection: close", "connection: keep-alive").as_bytes(),
            );
        }
        for (k, len) in body_lens.iter().enumerate() {
            match parse_request(&buf, &limits) {
                Ok(Some(parsed)) => {
                    prop_assert_eq!(
                        parsed.request.body.len(), *len,
                        "request {} parsed out of order", k
                    );
                    prop_assert!(!parsed.close);
                    buf.drain(..parsed.consumed);
                }
                other => return Err(TestCaseError::fail(format!(
                    "pipelined request {k} gave {other:?}"
                ))),
            }
        }
        prop_assert!(buf.is_empty());
    }

    /// Mid-pipeline malformed input: a valid request followed by one of
    /// several definitively-broken tails parses the valid request first,
    /// then answers the tail with a typed client-error status — the event
    /// loop turns that into an error response plus connection close, never
    /// a hang or a panic.
    #[test]
    fn mid_pipeline_malformed_tails_are_typed_errors(
        body_len in 0usize..48,
        tail_kind in 0usize..4,
    ) {
        let limits = small_limits();
        let text = String::from_utf8(valid_request(body_len)).unwrap();
        let mut buf = text.replace("connection: close", "connection: keep-alive").into_bytes();
        let tail: &[u8] = match tail_kind {
            0 => b"POST /solve HTTP/1.1\r\ncontent-length: zzz\r\n\r\n",
            1 => b"not-even-a-request-line\r\n\r\n",
            2 => b"POST /solve HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            _ => b"POST\r\n\r\n",
        };
        buf.extend_from_slice(tail);
        let first = match parse_request(&buf, &limits) {
            Ok(Some(parsed)) => parsed,
            other => return Err(TestCaseError::fail(format!(
                "leading valid request gave {other:?}"
            ))),
        };
        buf.drain(..first.consumed);
        match parse_request(&buf, &limits) {
            Err(e) => {
                let status = e.http_status();
                prop_assert!(
                    matches!(status, 400 | 408 | 413 | 431),
                    "unexpected status {status} for {e}"
                );
            }
            other => return Err(TestCaseError::fail(format!(
                "malformed tail {tail_kind} gave {other:?}"
            ))),
        }
    }

    /// Chunked (or any other) transfer coding: wherever the
    /// `Transfer-Encoding` line sits among the headers and whatever body
    /// follows, the incremental parser and the blocking oracle both answer
    /// the typed 501 — the body bytes are never parsed as a request.
    #[test]
    fn transfer_encoding_is_a_typed_501_in_both_parsers(
        before in 0usize..4,
        coding in 0usize..3,
        upper in proptest::bool::ANY,
        body_len in 0usize..48,
    ) {
        let limits = small_limits();
        let name = if upper { "Transfer-Encoding" } else { "transfer-encoding" };
        let coding = ["chunked", "gzip, chunked", "identity"][coding];
        let mut raw = b"POST /solve HTTP/1.1\r\n".to_vec();
        for i in 0..before {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(format!("{name}: {coding}\r\n").as_bytes());
        // The header line alone decides: no need to wait for the rest.
        prop_assert!(matches!(
            parse_request(&raw, &limits),
            Err(HttpError::NotImplemented(_))
        ));
        raw.extend_from_slice(format!("\r\n{body_len:x}\r\n").as_bytes());
        raw.extend(std::iter::repeat_n(b'a', body_len));
        raw.extend_from_slice(b"\r\n0\r\n\r\n");
        match parse_request(&raw, &limits) {
            Err(e @ HttpError::NotImplemented(_)) => prop_assert_eq!(e.http_status(), 501),
            other => return Err(TestCaseError::fail(format!(
                "incremental parser gave {other:?}"
            ))),
        }
        let mut source: &[u8] = &raw;
        match read_request(&mut source, &limits, None) {
            Err(e @ HttpError::NotImplemented(_)) => prop_assert_eq!(e.http_status(), 501),
            other => return Err(TestCaseError::fail(format!(
                "blocking oracle gave {other:?}"
            ))),
        }
    }

    /// Repeated `Content-Length`: two different values are a typed 400 in
    /// both parsers; the same value twice frames the body as one length.
    #[test]
    fn repeated_content_lengths_agree_or_are_a_typed_400(
        first in 0usize..64,
        second in 0usize..64,
    ) {
        let limits = small_limits();
        let body: Vec<u8> = (0..first.max(second)).map(|i| b'a' + (i % 26) as u8).collect();
        let mut raw = format!(
            "POST /solve HTTP/1.1\r\ncontent-length: {first}\r\n\
             Content-Length: {second}\r\n\r\n"
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let incremental = parse_request(&raw, &limits);
        let mut source: &[u8] = &raw;
        let blocking = read_request(&mut source, &limits, None);
        if first == second {
            let parsed = incremental.unwrap().unwrap();
            prop_assert_eq!(&parsed.request.body, &body);
            prop_assert_eq!(parsed.request, blocking.unwrap());
        } else {
            match (incremental, blocking) {
                (Err(e @ HttpError::BadRequest(_)), Err(b @ HttpError::BadRequest(_))) => {
                    prop_assert_eq!(e.http_status(), 400);
                    prop_assert_eq!(b.http_status(), 400);
                }
                other => return Err(TestCaseError::fail(format!(
                    "conflicting lengths {first} vs {second} gave {other:?}"
                ))),
            }
        }
    }

    /// Oversized declared bodies are rejected with the typed 413, never by
    /// allocating first: the reader must refuse before reading the body.
    #[test]
    fn huge_content_length_is_typed_not_allocated(extra in 1usize..1_000_000) {
        let limits = small_limits();
        let declared = limits.max_body + extra;
        let raw = format!(
            "POST /solve HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n"
        );
        let mut source: &[u8] = raw.as_bytes();
        match read_request(&mut source, &limits, None) {
            Err(HttpError::BodyTooLarge { declared: d, limit }) => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(limit, limits.max_body);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected BodyTooLarge, got {other:?}"
            ))),
        }
    }
}
