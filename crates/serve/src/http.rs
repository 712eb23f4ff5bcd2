//! A deliberately small HTTP/1.1 server-side parser with hard limits.
//!
//! The daemon only speaks enough HTTP for its handful of endpoints, so
//! the parser is hand-rolled rather than pulled in as a dependency — but
//! it is written defensively: every dimension of a request (request-line
//! length, header count and size, body size) has an explicit bound, and
//! exceeding a bound is a typed [`HttpError`] that renders as a 4xx
//! response. Malformed or hostile input must never panic a worker; it
//! produces an error response and the connection is dropped. There is
//! one parser, [`PushParser`], whichever I/O driver reads the socket
//! (read pacing is [`crate::conn::Conn`]'s deadline).

use std::io::Write;

/// Hard bounds on what a single request may look like.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request line (method + path + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Most headers accepted on one request.
    pub max_header_count: usize,
    /// Largest accepted body, bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_header_count: 64,
            max_body: 1 << 20,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/compile`.
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Everything that turns into a non-200 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// 400 — syntactically broken request or body.
    BadRequest(String),
    /// 404 — no such endpoint.
    NotFound,
    /// 405 — endpoint exists, method does not.
    MethodNotAllowed,
    /// 408 — the client paced bytes slower than the read timeout.
    Timeout,
    /// 411 — a body-bearing method without `Content-Length`.
    LengthRequired,
    /// 413 — declared body larger than [`Limits::max_body`].
    PayloadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// 415 — body present but not `application/json`.
    UnsupportedMediaType,
    /// 422 — well-formed request the pipeline rejected (compile error,
    /// conversion explosion, watchdog, ...).
    Unprocessable(String),
    /// 431 — header section exceeds the configured bounds.
    HeadersTooLarge,
    /// 503 — the admission queue is full; retry after the hinted seconds.
    Overloaded,
}

impl HttpError {
    /// Status code and reason phrase.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::NotFound => (404, "Not Found"),
            HttpError::MethodNotAllowed => (405, "Method Not Allowed"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::LengthRequired => (411, "Length Required"),
            HttpError::PayloadTooLarge { .. } => (413, "Payload Too Large"),
            HttpError::UnsupportedMediaType => (415, "Unsupported Media Type"),
            HttpError::Unprocessable(_) => (422, "Unprocessable Entity"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::Overloaded => (503, "Service Unavailable"),
        }
    }

    /// Human-readable detail for the JSON error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) | HttpError::Unprocessable(m) => m.clone(),
            HttpError::NotFound => "no such endpoint".to_string(),
            HttpError::MethodNotAllowed => "method not allowed on this endpoint".to_string(),
            HttpError::Timeout => "client read timed out".to_string(),
            HttpError::LengthRequired => "POST requires Content-Length".to_string(),
            HttpError::PayloadTooLarge { limit } => {
                format!("body exceeds the {limit}-byte limit")
            }
            HttpError::UnsupportedMediaType => "Content-Type must be application/json".to_string(),
            HttpError::HeadersTooLarge => "header section too large".to_string(),
            HttpError::Overloaded => "request queue is full".to_string(),
        }
    }
}

/// Parse a request head — request line, headers, blank line — and
/// validate the body framing. Returns the request (empty body) and the
/// validated `Content-Length` (`None` = no body). [`PushParser`], the
/// only caller, has already bounded every line and the header count, so
/// the one limit left to check is [`Limits::max_body`]. A `head` that
/// stops before its blank line is a peer that hung up there.
fn parse_head(head: &[u8], limits: &Limits) -> Result<(Request, Option<usize>), HttpError> {
    let mut lines =
        head.split_inclusive(|&b| b == b'\n')
            .map(|raw| match raw.strip_suffix(b"\n") {
                Some(line) => Ok(line.strip_suffix(b"\r").unwrap_or(line)),
                None => Err(HttpError::BadRequest("truncated request".to_string())),
            });
    let mut next_line = || {
        lines
            .next()
            .unwrap_or_else(|| Err(HttpError::BadRequest("truncated headers".to_string())))
    };

    let line = std::str::from_utf8(next_line()?)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".to_string()))?;
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line: {line:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method: {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "bad request target: {path:?}"
        )));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("bad version: {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = next_line()?;
        if line.is_empty() {
            break;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".to_string()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!("malformed header: {line:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported".to_string(),
        ));
    }
    let body_bearing = matches!(request.method.as_str(), "POST" | "PUT" | "PATCH");
    let length = match request.header("content-length") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length: {v:?}")))?,
        ),
        None if body_bearing => return Err(HttpError::LengthRequired),
        None => None,
    };
    if let Some(n) = length {
        if n > limits.max_body {
            return Err(HttpError::PayloadTooLarge {
                limit: limits.max_body,
            });
        }
    }
    Ok((request, length))
}

/// What [`PushParser::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// Not enough bytes buffered yet — wait for more readiness.
    Pending,
    /// One complete request. More may still be buffered behind it
    /// (pipelining); poll again after responding.
    Ready(Request),
    /// The peer closed cleanly between requests (keep-alive teardown).
    Closed,
}

enum PushState {
    /// Accumulating request line + headers.
    Head,
    /// Head parsed and validated; waiting for `need` body bytes.
    Body { request: Request, need: usize },
}

/// The request parser: incremental, and the only one.
///
/// Bytes arrive in whatever chunks the socket delivers ([`feed`]);
/// [`poll`] reports whether a full request has formed. Limits are
/// enforced *as bytes arrive* — an over-long line or header bomb is
/// rejected without buffering it — and the head is parsed once, when
/// its blank line (or the peer's EOF) has been seen, so the verdict on
/// a byte stream does not depend on how it was cut into reads (pinned
/// by the `chunked_parsing` proptest).
///
/// [`feed`]: PushParser::feed
/// [`poll`]: PushParser::poll
pub struct PushParser {
    buf: Vec<u8>,
    /// `buf[..scanned]` has already been searched for a newline.
    scanned: usize,
    /// Start offset of the current (unterminated) head line in `buf`.
    line_start: usize,
    /// Completed head lines so far (request line + headers).
    lines: usize,
    state: PushState,
    eof: bool,
}

impl Default for PushParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PushParser {
    /// A parser with nothing buffered, expecting a request line.
    pub fn new() -> Self {
        PushParser {
            buf: Vec::new(),
            scanned: 0,
            line_start: 0,
            lines: 0,
            state: PushState::Head,
            eof: false,
        }
    }

    /// Buffer bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Record that the peer will send no more bytes (read returned 0).
    pub fn eof(&mut self) {
        self.eof = true;
    }

    /// True when in the middle of a declared body (drives the
    /// `ReadingHead` vs `ReadingBody` connection state).
    pub fn in_body(&self) -> bool {
        matches!(self.state, PushState::Body { .. })
    }

    /// Bytes buffered but not yet consumed by a completed request. A
    /// keep-alive connection with `buffered() == 0` is idle and safe to
    /// drop during drain.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Drop the first `upto` buffered bytes and reset line accounting
    /// for the next request.
    fn consume(&mut self, upto: usize) {
        self.buf.drain(..upto);
        self.scanned = 0;
        self.line_start = 0;
        self.lines = 0;
    }

    /// The bound on the head line now being scanned.
    fn line_limit(&self, limits: &Limits) -> usize {
        match self.lines {
            0 => limits.max_request_line,
            _ => limits.max_header_line,
        }
    }

    /// Try to complete one request from the buffered bytes.
    pub fn poll(&mut self, limits: &Limits) -> Result<Poll, HttpError> {
        loop {
            match &mut self.state {
                PushState::Head => {
                    // Scan newly-arrived bytes for line terminators,
                    // enforcing the per-line and header-count limits.
                    while let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n')
                    {
                        let nl = self.scanned + off;
                        let raw_len = nl - self.line_start;
                        if raw_len > self.line_limit(limits) {
                            return Err(HttpError::HeadersTooLarge);
                        }
                        let stripped = raw_len
                            - usize::from(nl > self.line_start && self.buf[nl - 1] == b'\r');
                        if stripped == 0 {
                            // Blank line: the head is complete (or, if
                            // this is the first line, syntactically
                            // broken — `parse_head` says so).
                            let head_end = nl + 1;
                            let (request, length) = parse_head(&self.buf[..head_end], limits)?;
                            self.consume(head_end);
                            match length {
                                Some(need) if need > 0 => {
                                    self.state = PushState::Body { request, need };
                                    break; // fall through to Body handling
                                }
                                _ => return Ok(Poll::Ready(request)),
                            }
                        }
                        self.lines += 1;
                        if self.lines > limits.max_header_count + 1 {
                            return Err(HttpError::HeadersTooLarge);
                        }
                        self.line_start = nl + 1;
                        self.scanned = nl + 1;
                    }
                    if let PushState::Body { .. } = self.state {
                        continue;
                    }
                    // No terminator yet: bound the partial line too, so
                    // a line-bomb is rejected before it is buffered.
                    let partial = self.buf.len() - self.line_start;
                    if partial > self.line_limit(limits) {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    self.scanned = self.buf.len();
                    if self.eof {
                        if self.buf.is_empty() && self.lines == 0 {
                            return Ok(Poll::Closed);
                        }
                        // Mid-head EOF: the head parser reports the
                        // first thing wrong with what did arrive, or
                        // where it stops (truncated request / headers).
                        return Err(match parse_head(&self.buf, limits) {
                            Err(e) => e,
                            Ok(_) => HttpError::BadRequest("truncated request".to_string()),
                        });
                    }
                    return Ok(Poll::Pending);
                }
                PushState::Body { request, need } => {
                    if self.buf.len() >= *need {
                        let need = *need;
                        let mut request = std::mem::take(request);
                        request.body = self.buf[..need].to_vec();
                        self.state = PushState::Head;
                        self.consume(need);
                        return Ok(Poll::Ready(request));
                    }
                    if self.eof {
                        return Err(HttpError::BadRequest("truncated request".to_string()));
                    }
                    return Ok(Poll::Pending);
                }
            }
        }
    }
}

/// Write a response. `extra` headers come after the standard ones; the
/// body is always accompanied by an exact `Content-Length`.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    keep_alive: bool,
    extra: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict on a connection that sends `raw` and hangs up: the
    /// first request (`None` = clean close) or the first error.
    fn parse_with(raw: &[u8], limits: &Limits) -> Result<Option<Request>, HttpError> {
        let mut p = PushParser::new();
        p.feed(raw);
        p.eof();
        match p.poll(limits)? {
            Poll::Ready(request) => Ok(Some(request)),
            Poll::Closed => Ok(None),
            Poll::Pending => panic!("parser pending after EOF"),
        }
    }

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        parse_with(raw.as_bytes(), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(req.body, b"{}");
        assert!(!req.wants_close());
    }

    #[test]
    fn get_without_length_is_fine() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn post_without_length_is_411() {
        assert_eq!(
            parse("POST /compile HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::PayloadTooLarge { .. })));
    }

    #[test]
    fn truncated_body_is_400() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn header_bombs_are_431() {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("X-Pad-{i}: x\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw), Err(HttpError::HeadersTooLarge));

        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(parse(&raw), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn limits_bite_exactly_at_their_boundaries() {
        let limits = Limits {
            max_request_line: 40,
            max_header_line: 24,
            max_header_count: 3,
            max_body: 8,
        };
        // A line's length is what precedes its `\n`, a `\r` included.
        let padded = |prefix: &str, suffix: &str, len: usize, eol: &str| {
            let pad = len - prefix.len() - suffix.len() - (eol.len() - 1);
            format!("{prefix}{}{suffix}{eol}", "a".repeat(pad))
        };
        let check = |raw: String, fits: bool| match parse_with(raw.as_bytes(), &limits) {
            Ok(Some(_)) if fits => {}
            Err(HttpError::HeadersTooLarge) if !fits => {}
            got => panic!("{raw:?} (fits: {fits}) gave {got:?}"),
        };
        for eol in ["\n", "\r\n"] {
            for (extra, fits) in [(0, true), (1, false)] {
                check(padded("GET /", " HTTP/1.1", 40 + extra, eol) + eol, fits);
                let header = padded("X-Pad: ", "", 24 + extra, eol);
                check(format!("GET / HTTP/1.1{eol}{header}{eol}"), fits);
            }
        }

        let with_headers = |n: usize| {
            let headers: String = (0..n).map(|i| format!("X-{i}: x\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{headers}\r\n")
        };
        let got = parse_with(with_headers(3).as_bytes(), &limits)
            .unwrap()
            .unwrap();
        assert_eq!(got.headers.len(), 3);
        assert_eq!(
            parse_with(with_headers(4).as_bytes(), &limits),
            Err(HttpError::HeadersTooLarge)
        );

        let got = parse_with(
            b"POST /c HTTP/1.1\r\nContent-Length: 8\r\n\r\n12345678",
            &limits,
        );
        assert_eq!(got.unwrap().unwrap().body, b"12345678");
        // One more is refused on the declared length alone: the head is
        // all that was sent, and the connection is still open.
        let mut p = PushParser::new();
        p.feed(b"POST /c HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
        assert_eq!(
            p.poll(&limits),
            Err(HttpError::PayloadTooLarge { limit: 8 })
        );
    }

    #[test]
    fn push_parser_byte_at_a_time_matches_whole_buffer() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let whole = parse(raw).unwrap().unwrap();
        let mut p = PushParser::new();
        let limits = Limits::default();
        let bytes = raw.as_bytes();
        for (i, b) in bytes.iter().enumerate() {
            p.feed(std::slice::from_ref(b));
            let got = p.poll(&limits).unwrap();
            if i + 1 == bytes.len() {
                assert_eq!(got, Poll::Ready(whole.clone()));
            } else {
                assert_eq!(got, Poll::Pending, "early ready after byte {i}");
            }
        }
    }

    #[test]
    fn push_parser_handles_pipelined_requests() {
        let mut p = PushParser::new();
        let limits = Limits::default();
        p.feed(b"GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
        let first = match p.poll(&limits).unwrap() {
            Poll::Ready(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.path, "/healthz");
        let second = match p.poll(&limits).unwrap() {
            Poll::Ready(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.path, "/x");
        assert_eq!(second.body, b"abc");
        p.eof();
        assert_eq!(p.poll(&limits).unwrap(), Poll::Closed);
    }

    #[test]
    fn push_parser_eof_mid_body_is_truncated_400() {
        let mut p = PushParser::new();
        p.feed(b"POST /compile HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}");
        assert_eq!(p.poll(&Limits::default()).unwrap(), Poll::Pending);
        p.eof();
        assert!(matches!(
            p.poll(&Limits::default()),
            Err(HttpError::BadRequest(m)) if m == "truncated request"
        ));
    }

    #[test]
    fn push_parser_rejects_line_bomb_before_buffering_it() {
        let mut p = PushParser::new();
        let limits = Limits::default();
        // No newline ever arrives; the partial line alone must trip 431.
        p.feed(&vec![b'a'; limits.max_request_line + 1]);
        assert_eq!(p.poll(&limits), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn push_parser_rejects_header_bombs() {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("X-Pad-{i}: x\r\n"));
        }
        let mut p = PushParser::new();
        p.feed(raw.as_bytes());
        assert_eq!(p.poll(&Limits::default()), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn push_parser_clean_close_and_truncated_head() {
        let limits = Limits::default();
        let mut p = PushParser::new();
        p.eof();
        assert_eq!(p.poll(&limits).unwrap(), Poll::Closed);

        let mut p = PushParser::new();
        p.feed(b"GET /healthz HT");
        assert_eq!(p.poll(&limits).unwrap(), Poll::Pending);
        p.eof();
        assert!(matches!(
            p.poll(&limits),
            Err(HttpError::BadRequest(m)) if m == "truncated request"
        ));

        let mut p = PushParser::new();
        p.feed(b"GET /healthz HTTP/1.1\r\nHost: x\r\n");
        p.eof();
        assert!(matches!(
            p.poll(&limits),
            Err(HttpError::BadRequest(m)) if m == "truncated headers"
        ));

        // Mid-header-line is mid-request, and a broken line that did
        // arrive whole is reported before the truncation.
        assert!(matches!(
            parse("GET /healthz HTTP/1.1\r\nHo"),
            Err(HttpError::BadRequest(m)) if m == "truncated request"
        ));
        assert!(matches!(
            parse("GARBAGE\r\nHo"),
            Err(HttpError::BadRequest(m)) if m.starts_with("malformed request line")
        ));
    }

    #[test]
    fn response_writer_shapes_the_head() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "Service Unavailable",
            false,
            &[("Retry-After", "1".to_string())],
            "application/json",
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
