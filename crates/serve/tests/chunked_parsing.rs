//! Any chunking ≡ one chunk.
//!
//! Both I/O drivers feed the HTTP parser whatever byte chunks the
//! socket delivers, so the incremental [`PushParser`] must reach the
//! same verdicts — same requests, in order, and the same typed error
//! (or clean close) at the end — for *any* byte stream however it is
//! cut into reads. The reference is the same parser handed the stream
//! in one piece: what that verdict *is* on each kind of input is pinned
//! by the unit tests in `http.rs` and by the robustness suite; this
//! property is what lets their expectations (408/400/411/413/431/...)
//! hold whatever the network does to the bytes.

use msc_serve::http::{HttpError, Limits, Poll, PushParser, Request};
use proptest::prelude::*;

/// How a parsing session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Terminal {
    CleanClose,
    Error(HttpError),
}

/// Push `stream` in chunks of the given sizes (cycled), then EOF, and
/// parse until the peer would be disconnected.
fn chunked(stream: &[u8], sizes: &[usize], limits: &Limits) -> (Vec<Request>, Terminal) {
    let mut parser = PushParser::new();
    let mut requests = Vec::new();
    let mut offset = 0;
    let mut turn = 0;
    while offset < stream.len() {
        let size = sizes.get(turn % sizes.len()).copied().unwrap_or(1).max(1);
        turn += 1;
        let end = (offset + size).min(stream.len());
        parser.feed(&stream[offset..end]);
        offset = end;
        loop {
            match parser.poll(limits) {
                Ok(Poll::Ready(r)) => requests.push(r),
                Ok(Poll::Pending) => break,
                Ok(Poll::Closed) => return (requests, Terminal::CleanClose),
                Err(e) => return (requests, Terminal::Error(e)),
            }
        }
    }
    parser.eof();
    loop {
        match parser.poll(limits) {
            Ok(Poll::Ready(r)) => requests.push(r),
            Ok(Poll::Pending) => unreachable!("parser pending after EOF"),
            Ok(Poll::Closed) => return (requests, Terminal::CleanClose),
            Err(e) => return (requests, Terminal::Error(e)),
        }
    }
}

/// The reference: the whole stream in one `feed`.
fn whole_buffer(stream: &[u8], limits: &Limits) -> (Vec<Request>, Terminal) {
    chunked(stream, &[stream.len()], limits)
}

/// One segment of a connection's byte stream: valid requests of every
/// shape the API serves, plus the malformed inputs the robustness suite
/// cares about.
fn arb_segment() -> BoxedStrategy<Vec<u8>> {
    let valid_get = (0u8..4).prop_map(|i| {
        let path = ["/healthz", "/metrics", "/x", "/"][i as usize];
        let close = if i % 2 == 0 {
            "Connection: close\r\n"
        } else {
            ""
        };
        format!("GET {path} HTTP/1.1\r\n{close}\r\n").into_bytes()
    });
    let valid_post = prop::collection::vec(0u8..=255, 0..24).prop_map(|body| {
        let mut out = format!(
            "POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(&body);
        out
    });
    let malformed = prop_oneof![
        Just(b"GARBAGE\r\n\r\n".to_vec()),
        Just(b"GET\r\n\r\n".to_vec()),
        Just(b"get /x HTTP/1.1\r\n\r\n".to_vec()),
        Just(b"GET x HTTP/1.1\r\n\r\n".to_vec()),
        Just(b"GET /x SPDY/3\r\n\r\n".to_vec()),
        Just(b"POST /compile HTTP/1.1\r\n\r\n".to_vec()),
        Just(b"POST /c HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec()),
        Just(b"POST /c HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec()),
        Just(b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec()),
        Just(b"GET /x HTTP/1.1\r\nNo-Colon-Header\r\n\r\n".to_vec()),
        Just(b"\xff\xfe\xfd\r\n\r\n".to_vec()),
        Just(b"\r\n\r\n".to_vec()),
        // Truncations: cut off mid-head and mid-body.
        Just(b"GET /x HTT".to_vec()),
        Just(b"GET /x HTTP/1.1\r\nHost: a\r\n".to_vec()),
        Just(b"POST /c HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"so".to_vec()),
        // Bombs: long line and many headers.
        Just({
            let mut v = b"GET /".to_vec();
            v.extend(std::iter::repeat_n(b'a', 9_000));
            v.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            v
        }),
        Just({
            let mut v = b"GET /x HTTP/1.1\r\n".to_vec();
            for i in 0..70 {
                v.extend_from_slice(format!("X-P{i}: x\r\n").as_bytes());
            }
            v.extend_from_slice(b"\r\n");
            v
        }),
    ];
    // Raw byte soup from an HTTP-flavored alphabet, so some of it forms
    // line structure and some of it is binary garbage.
    let soup = prop::collection::vec(0u8..16, 1..40).prop_map(|xs| {
        xs.into_iter()
            .map(|x| b"GET /PO\r\n :1.\x00\xffab"[x as usize])
            .collect::<Vec<u8>>()
    });
    prop_oneof![valid_get, valid_post, malformed, soup].boxed()
}

proptest! {
    /// Any stream, any chunking: the same requests and the same end of
    /// session as the stream fed whole.
    #[test]
    fn chunked_parsing_matches_whole_buffer(
        segments in prop::collection::vec(arb_segment(), 1..4),
        sizes in prop::collection::vec(1usize..17, 1..8),
    ) {
        let stream: Vec<u8> = segments.concat();
        let limits = Limits::default();
        let expected = whole_buffer(&stream, &limits);
        let got = chunked(&stream, &sizes, &limits);
        prop_assert_eq!(expected, got);
    }

    /// Degenerate chunking — one byte per readiness event — is the
    /// worst case for incremental state handling; pin it explicitly.
    #[test]
    fn byte_at_a_time_matches_whole_buffer(
        segments in prop::collection::vec(arb_segment(), 1..3),
    ) {
        let stream: Vec<u8> = segments.concat();
        let limits = Limits::default();
        let expected = whole_buffer(&stream, &limits);
        let got = chunked(&stream, &[1], &limits);
        prop_assert_eq!(expected, got);
    }
}
